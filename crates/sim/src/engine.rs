//! The prefetch-engine abstraction the simulator drives.
//!
//! Every data prefetcher the simulated CMP can run — SMS, Markov, the
//! cohabiting composite, and the feedback-throttled wrapper — implements
//! [`PrefetchEngine`], so `System` has exactly one feed/issue path instead
//! of a per-variant `match`. The contract mirrors what the paper's
//! "optimization engine" sees: L1 data accesses and L1 evictions flow in,
//! predicted prefetches (with the cycle their prediction became available)
//! flow out, and statistics are collected through a uniform
//! [`EngineSnapshot`].

use crate::repartition::RepartitionMetrics;
use crate::throttle::ThrottleMetrics;
use pv_core::{PvStats, SharedPvProxy};
use pv_markov::{MarkovPrefetcher, MarkovStats, VirtualizedMarkov};
use pv_mem::{BlockAddr, MemoryHierarchy};
use pv_sms::{PrefetchAction, SmsPrefetcher, SmsStats, VirtualizedPht};

/// Statistics of one cohabiting table, summed over cores by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PvTableStats {
    /// Table label (`"SMS"` or `"Markov"`).
    pub label: String,
    /// The table's PVProxy statistics.
    pub stats: PvStats,
}

/// Everything an engine reports at collection time. Single-predictor
/// engines fill their own slot (and `pv` when virtualized); composites
/// additionally split PV statistics per cohabiting table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineSnapshot {
    /// SMS engine statistics, when an SMS engine ran.
    pub sms: Option<SmsStats>,
    /// Markov engine statistics, when a Markov engine ran.
    pub markov: Option<MarkovStats>,
    /// Aggregate PVProxy statistics of a single virtualized table (`None`
    /// for dedicated storage; composites report per-table stats in
    /// [`Self::pv_tables`] instead).
    pub pv: Option<PvStats>,
    /// Labelled per-table PVProxy statistics of cohabiting engines (empty
    /// for single-predictor engines).
    pub pv_tables: Vec<PvTableStats>,
    /// Feedback-throttling statistics, when the engine is throttled.
    pub throttle: Option<ThrottleMetrics>,
    /// Dynamic-repartitioning statistics, when a controller moves the
    /// PV-region boundaries.
    pub repartition: Option<RepartitionMetrics>,
}

impl EngineSnapshot {
    /// Folds `other` into `self` (aggregation across engines or cores).
    pub fn merge(&mut self, other: EngineSnapshot) {
        if let Some(s) = other.sms {
            self.sms.get_or_insert_with(SmsStats::default).merge(&s);
        }
        if let Some(m) = other.markov {
            self.markov.get_or_insert_with(MarkovStats::default).merge(&m);
        }
        if let Some(p) = other.pv {
            self.pv.get_or_insert_with(PvStats::default).merge(&p);
        }
        for table in other.pv_tables {
            match self.pv_tables.iter_mut().find(|t| t.label == table.label) {
                Some(total) => total.stats.merge(&table.stats),
                None => self.pv_tables.push(table),
            }
        }
        if let Some(t) = other.throttle {
            self.throttle.get_or_insert_with(ThrottleMetrics::default).merge(&t);
        }
        if let Some(r) = other.repartition {
            self.repartition.get_or_insert_with(RepartitionMetrics::default).merge(&r);
        }
    }
}

/// One core's data-prefetch engine, as the simulator sees it.
///
/// Implementations must be deterministic: the same access stream against
/// the same `MemoryHierarchy` state must produce the same prefetch
/// sequence on every host.
///
/// The `shared` parameter on both feed methods carries the per-core
/// [`SharedPvProxy`] down to cohabitation adapters; whoever owns the proxy
/// (the composite prefetcher, in the shared arrangement) substitutes its
/// own on the way down, and the simulator passes `None` at the top. Engines
/// without shared tables ignore it. `Send` is a supertrait so a boxed
/// engine travels with its `System` across host threads (the fleet driver
/// depends on this).
pub trait PrefetchEngine: Send {
    /// Notifies the engine that blocks left the core's L1 data cache
    /// (evictions or invalidations). Engines that do not track residency
    /// (e.g. Markov) ignore this.
    fn on_l1_evictions(
        &mut self,
        blocks: &[BlockAddr],
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    );

    /// Observes one L1 data access and appends every prefetch the engine
    /// wants issued to `out` (each with the cycle its prediction became
    /// available). `out` is a scratch buffer owned by the caller; the
    /// engine must only push.
    fn on_data_access(
        &mut self,
        pc: u64,
        address: u64,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
        out: &mut Vec<PrefetchAction>,
    );

    /// Resets statistics; learned predictor state is preserved (the
    /// warm-up/measurement boundary).
    fn reset_stats(&mut self);

    /// Collects the engine's statistics.
    fn snapshot(&self) -> EngineSnapshot;
}

impl<E: PrefetchEngine + ?Sized> PrefetchEngine for Box<E> {
    fn on_l1_evictions(
        &mut self,
        blocks: &[BlockAddr],
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        (**self).on_l1_evictions(blocks, mem, shared, now);
    }

    fn on_data_access(
        &mut self,
        pc: u64,
        address: u64,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
        out: &mut Vec<PrefetchAction>,
    ) {
        (**self).on_data_access(pc, address, mem, shared, now, out);
    }

    fn reset_stats(&mut self) {
        (**self).reset_stats();
    }

    fn snapshot(&self) -> EngineSnapshot {
        (**self).snapshot()
    }
}

impl PrefetchEngine for SmsPrefetcher {
    fn on_l1_evictions(
        &mut self,
        blocks: &[BlockAddr],
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        SmsPrefetcher::on_l1_evictions(self, blocks, mem, shared, now);
    }

    fn on_data_access(
        &mut self,
        pc: u64,
        address: u64,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
        out: &mut Vec<PrefetchAction>,
    ) {
        SmsPrefetcher::on_data_access_into(self, pc, address, mem, shared, now, out);
    }

    fn reset_stats(&mut self) {
        SmsPrefetcher::reset_stats(self);
    }

    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            sms: Some(*self.stats()),
            pv: self
                .storage()
                .as_any()
                .downcast_ref::<VirtualizedPht>()
                .and_then(|pht| pht.table().stats().copied()),
            ..EngineSnapshot::default()
        }
    }
}

impl PrefetchEngine for MarkovPrefetcher {
    fn on_l1_evictions(
        &mut self,
        _blocks: &[BlockAddr],
        _mem: &mut MemoryHierarchy,
        _shared: Option<&mut SharedPvProxy>,
        _now: u64,
    ) {
        // The Markov engine learns from the access stream only; L1
        // residency does not factor into its predictions.
    }

    fn on_data_access(
        &mut self,
        pc: u64,
        address: u64,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
        out: &mut Vec<PrefetchAction>,
    ) {
        let response = MarkovPrefetcher::on_data_access(self, pc, address, mem, shared, now);
        if let Some(block) = response.prefetch {
            out.push(PrefetchAction {
                block,
                issue_at: response.issue_at,
            });
        }
    }

    fn reset_stats(&mut self) {
        MarkovPrefetcher::reset_stats(self);
    }

    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            markov: Some(*self.stats()),
            pv: self
                .storage()
                .as_any()
                .downcast_ref::<VirtualizedMarkov>()
                .and_then(|table| table.table().stats().copied()),
            ..EngineSnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pv_markov::{DedicatedMarkov, MarkovConfig};
    use pv_mem::HierarchyConfig;
    use pv_sms::{build_storage, SmsConfig};

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::paper_baseline(4))
    }

    /// Drives an engine through the trait object interface only.
    fn drive(engine: &mut dyn PrefetchEngine, mem: &mut MemoryHierarchy) -> usize {
        let mut out = Vec::new();
        for i in 0..256u64 {
            let pc = 0x4000 + (i % 4) * 4;
            let addr = (i % 32) * 4096 + (i % 8) * 64;
            engine.on_data_access(pc, addr, mem, None, i * 100, &mut out);
        }
        out.len()
    }

    #[test]
    fn sms_engine_reports_through_snapshot() {
        let config = SmsConfig::paper_1k_11a();
        let mut engine = SmsPrefetcher::new(config, build_storage(&config));
        let mut mem = mem();
        drive(&mut engine, &mut mem);
        let snap = engine.snapshot();
        let sms = snap.sms.expect("SMS stats present");
        assert!(sms.accesses_observed > 0);
        assert!(snap.markov.is_none());
        assert!(snap.pv.is_none(), "dedicated PHT exposes no PV stats");
        assert!(snap.pv_tables.is_empty());
    }

    #[test]
    fn markov_engine_ignores_evictions_and_reports_stats() {
        let config = MarkovConfig::paper_1k();
        let mut engine = MarkovPrefetcher::new(config, Box::new(DedicatedMarkov::new(config)));
        let mut mem = mem();
        let before = mem.stats().l2_requests.total();
        PrefetchEngine::on_l1_evictions(&mut engine, &[BlockAddr::new(7)], &mut mem, None, 0);
        assert_eq!(
            mem.stats().l2_requests.total(),
            before,
            "eviction feed must be a no-op for Markov"
        );
        drive(&mut engine, &mut mem);
        let snap = engine.snapshot();
        assert!(snap.markov.expect("Markov stats present").accesses_observed > 0);
        assert!(snap.sms.is_none());
    }

    #[test]
    fn snapshot_merge_accumulates_and_labels() {
        let mut total = EngineSnapshot::default();
        let a = EngineSnapshot {
            sms: Some(SmsStats {
                accesses_observed: 3,
                ..SmsStats::default()
            }),
            pv_tables: vec![PvTableStats {
                label: "SMS".to_owned(),
                stats: PvStats::default(),
            }],
            ..EngineSnapshot::default()
        };
        total.merge(a.clone());
        total.merge(a);
        assert_eq!(total.sms.unwrap().accesses_observed, 6);
        assert_eq!(total.pv_tables.len(), 1, "same label merges in place");
    }
}
