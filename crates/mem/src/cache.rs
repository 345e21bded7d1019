//! A single cache level (used for L1 I/D and the shared L2).
//!
//! The cache tracks tags and per-line metadata only; data values are never
//! modelled because the paper's metrics depend solely on hit/miss behaviour,
//! traffic and timing. Prefetch timeliness is modelled with a per-line
//! `ready_at` cycle: a demand access that arrives before an in-flight fill
//! completes pays the residual latency ("late prefetch").

use crate::address::BlockAddr;
use crate::block::LineState;
use crate::config::CacheConfig;
use crate::set_assoc::{Occupied, Probe, SetAssociative};
use crate::stats::CacheStats;
use std::fmt;

/// Demand access type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Load or instruction fetch.
    Read,
    /// Store.
    Write,
}

/// How a line came to be installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FillOrigin {
    /// Installed to satisfy a demand miss.
    Demand,
    /// Installed by a prefetcher (SMS stream or next-line I-prefetch).
    Prefetch,
}

/// Which level of the hierarchy serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Serviced by the private L1.
    L1,
    /// Serviced by the shared L2.
    L2,
    /// Serviced by main memory.
    Memory,
}

/// Per-line metadata stored in the tag array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineMeta {
    state: LineState,
    ready_at: u64,
    prefetched_unused: bool,
}

/// Result of a demand access against one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was present.
    pub hit: bool,
    /// Latency contributed by this level. On a hit this is the data latency
    /// (plus any residual in-flight wait); on a miss it is the tag latency
    /// only — the caller adds the lower-level latency.
    pub latency: u64,
    /// The access hit a line whose fill had not yet completed.
    pub late_prefetch: bool,
    /// The access is the first demand use of a prefetched line (used for
    /// coverage accounting).
    pub first_use_of_prefetch: bool,
}

/// A line pushed out of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted block.
    pub block: BlockAddr,
    /// Whether the line was dirty and must be written back below.
    pub dirty: bool,
    /// Whether the line had been prefetched and never used by a demand
    /// access (an over-prediction).
    pub prefetched_unused: bool,
}

/// One level of the cache hierarchy.
pub struct Cache {
    name: String,
    config: CacheConfig,
    sets: usize,
    array: SetAssociative<LineMeta>,
    stats: CacheStats,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("name", &self.name)
            .field("size_bytes", &self.config.size_bytes)
            .field("ways", &self.config.ways)
            .field("sets", &self.sets)
            .finish()
    }
}

impl Cache {
    /// Creates a cache level with the given configuration.
    pub fn new(name: impl Into<String>, config: CacheConfig) -> Self {
        let sets = config.sets();
        Cache {
            name: name.into(),
            config,
            sets,
            array: SetAssociative::new(sets, config.ways, config.replacement),
            stats: CacheStats::default(),
        }
    }

    /// The cache's human-readable name (e.g. `"L1D.0"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    fn index(&self, block: BlockAddr) -> (usize, u64) {
        let set = (block.raw() % self.sets as u64) as usize;
        let tag = block.raw() / self.sets as u64;
        (set, tag)
    }

    /// Whether `block` is currently present (no recency update, no stats).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let (set, tag) = self.index(block);
        self.array.peek(set, tag).is_some()
    }

    /// Performs a demand access. Returns whether it hit and the latency this
    /// level contributes; the caller is responsible for going below the
    /// cache on a miss and then calling [`Cache::fill`].
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind, now: u64) -> AccessOutcome {
        let (set, tag) = self.index(block);
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        if let Some(line) = self.array.get_mut(set, tag) {
            record_hit(line, kind, now, &self.config, &mut self.stats)
        } else {
            match kind {
                AccessKind::Read => self.stats.read_misses += 1,
                AccessKind::Write => self.stats.write_misses += 1,
            }
            AccessOutcome {
                hit: false,
                latency: self.config.tag_latency,
                late_prefetch: false,
                first_use_of_prefetch: false,
            }
        }
    }

    /// Installs `block`, evicting a victim if necessary.
    ///
    /// `ready_at` is the cycle at which the fill data arrives; `dirty` marks
    /// the line modified from the start (write-allocate stores, write-backs
    /// arriving from the level above).
    pub fn fill(
        &mut self,
        block: BlockAddr,
        dirty: bool,
        ready_at: u64,
        origin: FillOrigin,
    ) -> Option<Evicted> {
        let (set, tag) = self.index(block);
        if origin == FillOrigin::Prefetch {
            self.stats.prefetch_fills += 1;
        }
        let meta = LineMeta {
            state: if dirty {
                LineState::Dirty
            } else {
                LineState::Clean
            },
            ready_at,
            prefetched_unused: origin == FillOrigin::Prefetch,
        };
        match self.array.get_mut_or_insert(set, tag, meta) {
            // Already present: just merge state.
            Probe::Hit(line) => {
                if dirty {
                    line.state = LineState::Dirty;
                }
                None
            }
            Probe::Filled(evicted) => evicted.map(|occ| self.victim(set, occ)),
        }
    }

    /// Absorbs a write-back of `block` from the level above at cycle `now`.
    ///
    /// It counts as a write access. A hit dirties the line. A miss
    /// allocates the line dirty without fetching from below, because a
    /// write-back carries the whole block; the data lands `data_latency`
    /// after `now`. One way scan serves both cases.
    pub fn write_back(&mut self, block: BlockAddr, now: u64) -> Option<Evicted> {
        let (set, tag) = self.index(block);
        self.stats.writes += 1;
        let meta = LineMeta {
            state: LineState::Dirty,
            ready_at: now + self.config.data_latency,
            prefetched_unused: false,
        };
        match self.array.get_mut_or_insert(set, tag, meta) {
            Probe::Hit(line) => {
                record_hit(line, AccessKind::Write, now, &self.config, &mut self.stats);
                None
            }
            Probe::Filled(evicted) => {
                self.stats.write_misses += 1;
                evicted.map(|occ| self.victim(set, occ))
            }
        }
    }

    /// Accounts for the line that a fill into `set` pushed out.
    fn victim(&mut self, set: usize, occ: Occupied<LineMeta>) -> Evicted {
        if occ.value.prefetched_unused {
            self.stats.prefetched_evicted_unused += 1;
        }
        if occ.value.state.is_dirty() {
            self.stats.writebacks += 1;
        }
        Evicted {
            block: BlockAddr::new(occ.tag * self.sets as u64 + set as u64),
            dirty: occ.value.state.is_dirty(),
            prefetched_unused: occ.value.prefetched_unused,
        }
    }

    /// Removes `block` from the cache, returning its state if present.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Evicted> {
        let (set, tag) = self.index(block);
        self.array.invalidate(set, tag).map(|meta| {
            if meta.prefetched_unused {
                self.stats.prefetched_evicted_unused += 1;
            }
            Evicted {
                block,
                dirty: meta.state.is_dirty(),
                prefetched_unused: meta.prefetched_unused,
            }
        })
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics (not the contents), as at the end of warm-up.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.array.len()
    }
}

/// A demand access that hit `line`: consumes a pending prefetch, dirties
/// the line on a write and pays any residual in-flight latency.
fn record_hit(
    line: &mut LineMeta,
    kind: AccessKind,
    now: u64,
    config: &CacheConfig,
    stats: &mut CacheStats,
) -> AccessOutcome {
    let residual = line.ready_at.saturating_sub(now);
    let late_prefetch = residual > 0 && line.prefetched_unused;
    let first_use_of_prefetch = line.prefetched_unused;
    line.prefetched_unused = false;
    if kind == AccessKind::Write {
        line.state = LineState::Dirty;
    }
    match kind {
        AccessKind::Read => stats.read_hits += 1,
        AccessKind::Write => stats.write_hits += 1,
    }
    if late_prefetch {
        stats.late_prefetch_hits += 1;
    }
    AccessOutcome {
        hit: true,
        latency: config.data_latency.max(residual),
        late_prefetch,
        first_use_of_prefetch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::replacement::ReplacementKind;

    fn tiny_cache() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        let config = CacheConfig {
            size_bytes: 512,
            ways: 2,
            block_bytes: 64,
            tag_latency: 1,
            data_latency: 2,
            replacement: ReplacementKind::Lru,
            mshr_entries: 4,
            banks: 1,
            port_occupancy: 1,
        };
        Cache::new("test", config)
    }

    #[test]
    fn cold_access_misses_then_hits_after_fill() {
        let mut cache = tiny_cache();
        let block = BlockAddr::new(0x40);
        let miss = cache.access(block, AccessKind::Read, 0);
        assert!(!miss.hit);
        assert_eq!(miss.latency, 1);
        cache.fill(block, false, 10, FillOrigin::Demand);
        let hit = cache.access(block, AccessKind::Read, 20);
        assert!(hit.hit);
        assert_eq!(hit.latency, 2);
        assert_eq!(cache.stats().read_misses, 1);
        assert_eq!(cache.stats().read_hits, 1);
    }

    #[test]
    fn in_flight_fill_pays_residual_latency() {
        let mut cache = tiny_cache();
        let block = BlockAddr::new(0x80);
        cache.fill(block, false, 100, FillOrigin::Prefetch);
        // Demand access at cycle 60: the prefetch completes at 100, so the
        // access waits 40 cycles instead of the full miss latency.
        let outcome = cache.access(block, AccessKind::Read, 60);
        assert!(outcome.hit);
        assert!(outcome.late_prefetch);
        assert!(outcome.first_use_of_prefetch);
        assert_eq!(outcome.latency, 40);
        assert_eq!(cache.stats().late_prefetch_hits, 1);
    }

    #[test]
    fn write_marks_line_dirty_and_eviction_reports_writeback() {
        let mut cache = tiny_cache();
        let block = BlockAddr::new(0);
        cache.fill(block, false, 0, FillOrigin::Demand);
        cache.access(block, AccessKind::Write, 0);
        // Fill two more blocks mapping to the same set (set 0) to force the
        // dirty line out: blocks 0, 4, 8 all map to set 0 with 4 sets.
        cache.fill(BlockAddr::new(4), false, 0, FillOrigin::Demand);
        let evicted = cache.fill(BlockAddr::new(8), false, 0, FillOrigin::Demand);
        let evicted = evicted.expect("set of 2 ways with 3 blocks must evict");
        assert_eq!(evicted.block, block);
        assert!(evicted.dirty);
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn unused_prefetch_eviction_counts_as_overprediction() {
        let mut cache = tiny_cache();
        cache.fill(BlockAddr::new(0), false, 0, FillOrigin::Prefetch);
        cache.fill(BlockAddr::new(4), false, 0, FillOrigin::Demand);
        cache.fill(BlockAddr::new(8), false, 0, FillOrigin::Demand);
        assert_eq!(cache.stats().prefetched_evicted_unused, 1);
        assert_eq!(cache.stats().prefetch_fills, 1);
    }

    #[test]
    fn used_prefetch_is_not_an_overprediction() {
        let mut cache = tiny_cache();
        cache.fill(BlockAddr::new(0), false, 0, FillOrigin::Prefetch);
        cache.access(BlockAddr::new(0), AccessKind::Read, 10);
        cache.fill(BlockAddr::new(4), false, 0, FillOrigin::Demand);
        cache.fill(BlockAddr::new(8), false, 0, FillOrigin::Demand);
        assert_eq!(cache.stats().prefetched_evicted_unused, 0);
    }

    #[test]
    fn invalidate_reports_state() {
        let mut cache = tiny_cache();
        let block = BlockAddr::new(0x100);
        cache.fill(block, true, 0, FillOrigin::Demand);
        let evicted = cache.invalidate(block).expect("line was resident");
        assert!(evicted.dirty);
        assert!(!cache.contains(block));
        assert!(cache.invalidate(block).is_none());
    }

    #[test]
    fn fill_of_resident_block_merges_dirty_state() {
        let mut cache = tiny_cache();
        let block = BlockAddr::new(0x40);
        cache.fill(block, false, 0, FillOrigin::Demand);
        assert!(cache.fill(block, true, 0, FillOrigin::Demand).is_none());
        let evicted = cache.invalidate(block).unwrap();
        assert!(evicted.dirty);
    }

    #[test]
    fn write_back_dirties_resident_lines_and_allocates_missing_ones() {
        let mut cache = tiny_cache();
        // Miss: allocates dirty, fetches nothing, counts a write miss.
        assert!(cache.write_back(BlockAddr::new(1), 10).is_none());
        assert!(cache.contains(BlockAddr::new(1)));
        assert_eq!(cache.stats().write_misses, 1);
        // Hit on a clean prefetched line still in flight: a late write hit
        // that consumes the prefetch and dirties the line.
        cache.fill(BlockAddr::new(2), false, 100, FillOrigin::Prefetch);
        assert!(cache.write_back(BlockAddr::new(2), 60).is_none());
        assert_eq!(cache.stats().writes, 2);
        assert_eq!(cache.stats().write_hits, 1);
        assert_eq!(cache.stats().late_prefetch_hits, 1);
        let evicted = cache.invalidate(BlockAddr::new(2)).unwrap();
        assert!(evicted.dirty);
        assert!(!evicted.prefetched_unused);
        // A write-back into a full set evicts like a fill does.
        cache.fill(BlockAddr::new(0), true, 0, FillOrigin::Demand);
        cache.fill(BlockAddr::new(4), false, 0, FillOrigin::Demand);
        let victim = cache.write_back(BlockAddr::new(8), 0).expect("set 0 is full");
        assert_eq!(victim.block, BlockAddr::new(0));
        assert!(victim.dirty);
        assert_eq!(cache.stats().writebacks, 1);
    }

    #[test]
    fn eviction_reconstructs_block_address() {
        let mut cache = tiny_cache();
        // Blocks 3, 7, 11 all map to set 3.
        cache.fill(BlockAddr::new(3), false, 0, FillOrigin::Demand);
        cache.fill(BlockAddr::new(7), false, 0, FillOrigin::Demand);
        let evicted = cache.fill(BlockAddr::new(11), false, 0, FillOrigin::Demand).unwrap();
        assert_eq!(evicted.block, BlockAddr::new(3));
    }

    #[test]
    fn paper_l1_has_256_sets() {
        let cache = Cache::new("L1D", CacheConfig::l1_paper());
        assert_eq!(cache.sets(), 256);
        assert_eq!(cache.resident_lines(), 0);
    }
}
