//! The SMS prefetch engine: ties the AGT to a pattern-storage backend and
//! produces prefetch requests.

use crate::agt::{ActiveGenerationTable, AgtUpdate};
use crate::config::SmsConfig;
use crate::pattern::SpatialPattern;
use crate::pht::PatternStorage;
use crate::stats::SmsStats;
use pv_core::SharedPvProxy;
use pv_mem::{Address, BlockAddr, MemoryHierarchy};

/// One prefetch the engine wants performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchAction {
    /// Block to bring into the L1 data cache.
    pub block: BlockAddr,
    /// Cycle at which the prediction became available (the prefetch cannot
    /// be issued earlier; a virtualized PHT may add latency here).
    pub issue_at: u64,
}

/// The allocation-free verdict of one access: what
/// [`SmsPrefetcher::on_data_access_into`] decided, with the prefetches
/// themselves appended to the caller-owned buffer instead of an owned `Vec`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessDecision {
    /// Whether this access triggered a new spatial generation.
    pub triggered: bool,
    /// Whether the trigger's PHT lookup hit.
    pub pht_hit: bool,
}

/// The Spatial Memory Streaming prefetch engine for one core.
///
/// The engine is generic over its PHT storage: pass a
/// [`crate::DedicatedPht`], [`crate::InfinitePht`] or the virtualized
/// storage from `pv-core`. The rest of the prefetcher — the AGT and the
/// prediction logic — is identical in all configurations, exactly as the
/// paper requires ("the optimization engine remains unchanged").
#[derive(Debug)]
pub struct SmsPrefetcher {
    config: SmsConfig,
    agt: ActiveGenerationTable,
    storage: Box<dyn PatternStorage>,
    stats: SmsStats,
    /// Scratch AGT update reused across events so the per-record path does
    /// not allocate (the `completed` buffer keeps its capacity).
    update: AgtUpdate,
}

impl SmsPrefetcher {
    /// Creates an SMS engine with the given configuration and PHT backend.
    pub fn new(config: SmsConfig, storage: Box<dyn PatternStorage>) -> Self {
        config.assert_valid();
        SmsPrefetcher {
            agt: ActiveGenerationTable::new(
                config.filter_entries,
                config.accumulation_entries,
                config.region_blocks,
            ),
            config,
            storage,
            stats: SmsStats::default(),
            update: AgtUpdate::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SmsConfig {
        &self.config
    }

    /// The PHT storage backend.
    pub fn storage(&self) -> &dyn PatternStorage {
        self.storage.as_ref()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SmsStats {
        &self.stats
    }

    /// Resets the statistics (the learned state is preserved), including any
    /// statistics the PHT storage backend keeps.
    pub fn reset_stats(&mut self) {
        self.stats = SmsStats::default();
        self.storage.reset_stats();
    }

    /// Observes one L1 data access (hit or miss) by the core, appending the
    /// prefetches to issue — if the access triggered a generation whose
    /// pattern is known — to the caller-owned `out` buffer, so the
    /// simulator's per-record hot path never heap-allocates.
    pub fn on_data_access_into(
        &mut self,
        pc: u64,
        address: u64,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
        out: &mut Vec<PrefetchAction>,
    ) -> AccessDecision {
        self.stats.accesses_observed += 1;
        let block = Address::new(address).block();
        let mut update = std::mem::take(&mut self.update);
        update.clear();
        self.agt.on_access(pc, block, &mut update);
        let decision = self.apply_update(&update, block, mem, shared, now, out);
        self.update = update;
        decision
    }

    /// Notifies the engine that blocks left the L1 data cache (evictions or
    /// invalidations); generations covering them end and their patterns are
    /// stored.
    pub fn on_l1_evictions(
        &mut self,
        blocks: &[BlockAddr],
        mem: &mut MemoryHierarchy,
        mut shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        for &block in blocks {
            let mut update = std::mem::take(&mut self.update);
            update.clear();
            self.agt.on_l1_eviction(block, &mut update);
            self.store_completed(&update, mem, shared.as_deref_mut(), now);
            self.update = update;
        }
    }

    /// Ends all active generations and stores their patterns (used at the
    /// end of a simulation window).
    pub fn flush(
        &mut self,
        mem: &mut MemoryHierarchy,
        mut shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        for completed in self.agt.flush() {
            if completed.pattern.count() >= 2 {
                self.stats.patterns_stored += 1;
                self.storage.store(
                    completed.key.index(),
                    completed.pattern,
                    mem,
                    shared.as_deref_mut(),
                    now,
                );
            }
        }
    }

    fn apply_update(
        &mut self,
        update: &AgtUpdate,
        trigger_block: BlockAddr,
        mem: &mut MemoryHierarchy,
        mut shared: Option<&mut SharedPvProxy>,
        now: u64,
        out: &mut Vec<PrefetchAction>,
    ) -> AccessDecision {
        self.store_completed(update, mem, shared.as_deref_mut(), now);
        let mut decision = AccessDecision::default();
        let Some(trigger) = update.trigger else {
            return decision;
        };
        decision.triggered = true;
        self.stats.triggers += 1;
        self.stats.pht_lookups += 1;
        let lookup = self.storage.lookup(trigger.key.index(), mem, shared, now);
        match lookup.pattern {
            Some(pattern) => {
                self.stats.pht_hits += 1;
                decision.pht_hit = true;
                let before = out.len();
                self.pattern_to_prefetches(pattern, trigger_block, lookup.ready_at, out);
                self.stats.prefetch_candidates += (out.len() - before) as u64;
            }
            None => {
                self.stats.pht_misses += 1;
            }
        }
        decision
    }

    fn store_completed(
        &mut self,
        update: &AgtUpdate,
        mem: &mut MemoryHierarchy,
        mut shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        for completed in &update.completed {
            // Patterns reaching the PHT always have at least two blocks (the
            // filter table absorbs single-access generations).
            if completed.pattern.count() >= 2 {
                self.stats.patterns_stored += 1;
                self.storage.store(
                    completed.key.index(),
                    completed.pattern,
                    mem,
                    shared.as_deref_mut(),
                    now,
                );
            }
        }
    }

    /// Converts a predicted pattern into concrete prefetch addresses for the
    /// trigger's region, excluding the trigger block itself (the demand
    /// access is already fetching it), appending them to `out`.
    fn pattern_to_prefetches(
        &self,
        pattern: SpatialPattern,
        trigger_block: BlockAddr,
        issue_at: u64,
        out: &mut Vec<PrefetchAction>,
    ) {
        let region = trigger_block.region(self.config.region_blocks);
        let trigger_offset = trigger_block.region_offset(self.config.region_blocks);
        out.extend(
            pattern
                .without(trigger_offset)
                .offsets()
                .filter(|&offset| offset < self.config.region_blocks)
                .map(|offset| PrefetchAction {
                    block: region.block_at(offset, self.config.region_blocks),
                    issue_at,
                }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmsConfig;
    use crate::pht::build_storage;
    use pv_mem::{HierarchyConfig, RegionAddr};

    fn engine(config: SmsConfig) -> SmsPrefetcher {
        let storage = build_storage(&config);
        SmsPrefetcher::new(config, storage)
    }

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_baseline(1))
    }

    fn addr(region: u64, offset: u32) -> u64 {
        RegionAddr::new(region).block_at(offset, 32).base_address().raw()
    }

    /// One access through the engine, returning its decision and the
    /// prefetches it appended to a fresh buffer.
    fn observe(
        engine: &mut SmsPrefetcher,
        mem: &mut MemoryHierarchy,
        pc: u64,
        address: u64,
        now: u64,
    ) -> (AccessDecision, Vec<PrefetchAction>) {
        let mut prefetches = Vec::new();
        let decision = engine.on_data_access_into(pc, address, mem, None, now, &mut prefetches);
        (decision, prefetches)
    }

    /// Runs one full generation (accesses + eviction) and returns the engine
    /// response of the *next* trigger for the same PC.
    fn train_and_retrigger(
        engine: &mut SmsPrefetcher,
        mem: &mut MemoryHierarchy,
        pc: u64,
    ) -> (AccessDecision, Vec<PrefetchAction>) {
        // Generation over region 10: blocks 2, 5, 7.
        observe(engine, mem, pc, addr(10, 2), 0);
        observe(engine, mem, pc + 8, addr(10, 5), 10);
        observe(engine, mem, pc + 16, addr(10, 7), 20);
        // Evicting block 5 ends the generation and stores the pattern.
        engine.on_l1_evictions(&[RegionAddr::new(10).block_at(5, 32)], mem, None, 30);
        // The same trigger PC and offset on a different region now predicts.
        observe(engine, mem, pc, addr(20, 2), 100)
    }

    #[test]
    fn cold_trigger_produces_no_prefetches() {
        let mut engine = engine(SmsConfig::paper_1k_11a());
        let mut mem = mem();
        let (decision, prefetches) = observe(&mut engine, &mut mem, 0x400, addr(1, 3), 0);
        assert!(decision.triggered);
        assert!(!decision.pht_hit);
        assert!(prefetches.is_empty());
        assert_eq!(engine.stats().pht_misses, 1);
    }

    #[test]
    fn learned_pattern_predicts_future_generations() {
        let mut engine = engine(SmsConfig::paper_1k_11a());
        let mut mem = mem();
        let (decision, prefetches) = train_and_retrigger(&mut engine, &mut mem, 0x400);
        assert!(decision.triggered);
        assert!(decision.pht_hit, "the stored pattern must be found");
        // The pattern was {2, 5, 7}; the trigger block (offset 2) is excluded.
        let blocks: Vec<BlockAddr> = prefetches.iter().map(|p| p.block).collect();
        assert_eq!(
            blocks,
            vec![
                RegionAddr::new(20).block_at(5, 32),
                RegionAddr::new(20).block_at(7, 32)
            ]
        );
        assert_eq!(engine.stats().patterns_stored, 1);
        assert_eq!(engine.stats().pht_hits, 1);
    }

    #[test]
    fn prefetches_target_the_new_region_not_the_trained_one() {
        let mut engine = engine(SmsConfig::paper_1k_11a());
        let mut mem = mem();
        let (_, prefetches) = train_and_retrigger(&mut engine, &mut mem, 0x400);
        for p in &prefetches {
            assert_eq!(p.block.region(32), RegionAddr::new(20));
        }
    }

    #[test]
    fn prefetch_issue_time_respects_lookup_latency() {
        let mut engine = engine(SmsConfig::paper_1k_11a());
        let mut mem = mem();
        let (_, prefetches) = train_and_retrigger(&mut engine, &mut mem, 0x400);
        let latency = engine.config().dedicated_lookup_latency;
        for p in &prefetches {
            assert_eq!(p.issue_at, 100 + latency);
        }
    }

    #[test]
    fn different_pc_does_not_hit_the_learned_pattern() {
        let mut engine = engine(SmsConfig::paper_1k_11a());
        let mut mem = mem();
        train_and_retrigger(&mut engine, &mut mem, 0x400);
        let (decision, _) = observe(&mut engine, &mut mem, 0x9000, addr(30, 2), 200);
        assert!(decision.triggered);
        assert!(!decision.pht_hit);
    }

    #[test]
    fn tiny_pht_forgets_under_pressure() {
        let mut engine = engine(SmsConfig::small_8_11a());
        let mut mem = mem();
        // Train 2000 distinct triggers; an 88-entry table cannot hold them.
        for i in 0..2000u64 {
            let pc = 0x1000 + i * 4;
            let region = 100 + i;
            observe(&mut engine, &mut mem, pc, addr(region, 1), i * 10);
            observe(&mut engine, &mut mem, pc + 4, addr(region, 3), i * 10 + 1);
            engine.on_l1_evictions(
                &[RegionAddr::new(region).block_at(1, 32)],
                &mut mem,
                None,
                i * 10 + 2,
            );
        }
        // Re-trigger the earliest PC: it must have been evicted.
        let (decision, _) = observe(&mut engine, &mut mem, 0x1000, addr(5000, 1), 1_000_000);
        assert!(
            !decision.pht_hit,
            "an 88-entry PHT cannot retain 2000 patterns"
        );
    }

    #[test]
    fn infinite_pht_retains_everything() {
        let mut engine = engine(SmsConfig::infinite());
        let mut mem = mem();
        for i in 0..2000u64 {
            let pc = 0x1000 + i * 4;
            let region = 100 + i;
            observe(&mut engine, &mut mem, pc, addr(region, 1), i * 10);
            observe(&mut engine, &mut mem, pc + 4, addr(region, 3), i * 10 + 1);
            engine.on_l1_evictions(
                &[RegionAddr::new(region).block_at(1, 32)],
                &mut mem,
                None,
                i * 10 + 2,
            );
        }
        let (decision, _) = observe(&mut engine, &mut mem, 0x1000, addr(5000, 1), 1_000_000);
        assert!(decision.pht_hit, "the infinite PHT never forgets");
    }

    #[test]
    fn flush_persists_in_flight_generations() {
        let mut engine = engine(SmsConfig::paper_1k_11a());
        let mut mem = mem();
        observe(&mut engine, &mut mem, 0x400, addr(1, 0), 0);
        observe(&mut engine, &mut mem, 0x404, addr(1, 4), 1);
        engine.flush(&mut mem, None, 10);
        assert_eq!(engine.stats().patterns_stored, 1);
        // The flushed pattern is usable by a later trigger.
        let (decision, _) = observe(&mut engine, &mut mem, 0x400, addr(9, 0), 100);
        assert!(decision.pht_hit);
    }

    #[test]
    fn stats_reset_keeps_learned_state() {
        let mut engine = engine(SmsConfig::paper_1k_11a());
        let mut mem = mem();
        train_and_retrigger(&mut engine, &mut mem, 0x400);
        engine.reset_stats();
        assert_eq!(engine.stats().pht_hits, 0);
        let (decision, _) = observe(&mut engine, &mut mem, 0x400, addr(40, 2), 500);
        assert!(decision.pht_hit, "resetting stats must not clear the PHT");
    }
}
