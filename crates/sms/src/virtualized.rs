//! The virtualized PHT: SMS plugged into the `pv-core` substrate.
//!
//! This module is the dependency inversion the substrate demands: `pv-core`
//! knows nothing about SMS; instead SMS describes its PHT entry to the
//! substrate by implementing [`PvEntry`] for [`SmsEntry`] (an 11-bit tag
//! plus a 32-bit spatial pattern — the 43-bit packed entry of the paper's
//! Figure 3a), and [`VirtualizedPht`] adapts the generic
//! `ProxiedTable<SmsEntry>` to the engine-facing [`PatternStorage`] trait
//! so the unmodified SMS engine runs on top of it — exactly the property
//! the paper relies on ("the optimization engine remains unchanged").
//!
//! [`VirtualizedPht::new`] gives the PHT a PVProxy of its own; the
//! cohabitation constructor lives in [`crate::cohabit`].

use crate::index::{PhtIndex, INDEX_BITS};
use crate::pattern::SpatialPattern;
use crate::pht::{PatternLookup, PatternStorage};
use pv_core::{ProxiedTable, PvConfig, PvEntry, PvStorageBudget, SharedPvProxy};
use pv_mem::{Address, MemoryHierarchy};

/// One packed PHT entry as the virtualized table stores it: the tag bits of
/// the 21-bit PHT index above the 10 set bits, and the spatial pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmsEntry {
    /// Tag bits of the PHT index (11 bits for the 1K-set table).
    pub tag: u16,
    /// The stored spatial pattern.
    pub pattern: SpatialPattern,
}

impl SmsEntry {
    /// Creates an entry.
    pub fn new(tag: u16, pattern: SpatialPattern) -> Self {
        SmsEntry { tag, pattern }
    }
}

impl PvEntry for SmsEntry {
    // 21-bit index minus 10 set bits for the 1K-set virtualized table.
    const TAG_BITS: u32 = INDEX_BITS - 10;
    // One bit per block of a 32-block spatial region.
    const PAYLOAD_BITS: u32 = 32;

    fn tag(&self) -> u64 {
        u64::from(self.tag)
    }

    fn payload(&self) -> u64 {
        // An empty pattern is never stored by the prefetcher, so the
        // pattern bits double as the substrate's invalid marker.
        u64::from(self.pattern.bits())
    }

    fn from_parts(tag: u64, payload: u64) -> Option<Self> {
        (payload != 0).then_some(SmsEntry {
            tag: tag as u16,
            pattern: SpatialPattern::from_bits(payload as u32),
        })
    }
}

/// The virtualized PHT backend for one core's SMS prefetcher: a thin
/// [`PatternStorage`] adapter over a [`ProxiedTable`].
#[derive(Debug)]
pub struct VirtualizedPht {
    pub(crate) table: ProxiedTable<SmsEntry>,
}

impl VirtualizedPht {
    /// Creates the virtualized PHT for `core` with a PVProxy of its own,
    /// with its PVTable based at `pv_start` (normally
    /// `HierarchyConfig::pv_regions.core_base(core)`).
    ///
    /// # Panics
    ///
    /// Panics if the configured number of table sets leaves more index tag
    /// bits than the packed entry stores.
    pub fn new(core: usize, config: PvConfig, pv_start: Address) -> Self {
        check_geometry(&config);
        VirtualizedPht {
            table: ProxiedTable::owned(core, config, pv_start, "SMS"),
        }
    }

    /// The typed table underneath (PVTable, owned proxy, statistics).
    pub fn table(&self) -> &ProxiedTable<SmsEntry> {
        &self.table
    }

    /// The Section 4.6 storage budget of an SMS proxy with `config`.
    pub fn storage_budget(config: &PvConfig) -> PvStorageBudget {
        PvStorageBudget::for_entry::<SmsEntry>(config)
    }
}

/// Rejects table geometries whose index tags do not fit [`SmsEntry`].
pub(crate) fn check_geometry(config: &PvConfig) {
    assert!(
        PhtIndex::tag_bits(config.table_sets) <= SmsEntry::TAG_BITS,
        "a {}-set PVTable needs {} tag bits but SmsEntry stores {}",
        config.table_sets,
        PhtIndex::tag_bits(config.table_sets),
        SmsEntry::TAG_BITS
    );
}

impl PatternStorage for VirtualizedPht {
    fn lookup(
        &mut self,
        index: PhtIndex,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> PatternLookup {
        let (entry, ready_at) = self.table.lookup(u64::from(index.raw()), mem, shared, now);
        PatternLookup {
            pattern: entry.map(|e| e.pattern),
            ready_at,
        }
    }

    fn store(
        &mut self,
        index: PhtIndex,
        pattern: SpatialPattern,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        let raw = u64::from(index.raw());
        let entry = SmsEntry::new(self.table.tag_of(raw) as u16, pattern);
        self.table.store(raw, entry, mem, shared, now);
    }

    fn label(&self) -> String {
        self.table.label()
    }

    fn dedicated_storage_bytes(&self) -> u64 {
        self.table.storage_budget().total_bytes()
    }

    fn resident_patterns(&self) -> usize {
        self.table.table().resident_entries()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn reset_stats(&mut self) {
        self.table.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::TriggerKey;
    use pv_mem::HierarchyConfig;

    fn setup() -> (MemoryHierarchy, VirtualizedPht) {
        let config = HierarchyConfig::paper_baseline(4);
        let mem = MemoryHierarchy::new(config);
        let pht = VirtualizedPht::new(0, PvConfig::pv8(), config.pv_regions.core_base(0));
        (mem, pht)
    }

    fn index_for(pc: u64, offset: u32) -> PhtIndex {
        TriggerKey::new(pc, offset).index()
    }

    #[test]
    fn entry_widths_reproduce_the_papers_figure_3a_layout() {
        let (_, pht) = setup();
        let layout = *pht.table().layout();
        assert_eq!(SmsEntry::TAG_BITS, 11);
        assert_eq!(SmsEntry::entry_bits(), 43);
        assert_eq!(
            layout.entries_per_block(),
            11,
            "11 x 43-bit entries per 64-byte block"
        );
        assert_eq!(layout.unused_trailing_bits(), 39);
    }

    #[test]
    fn storage_budget_matches_paper_total() {
        let (_, pht) = setup();
        assert_eq!(pht.dedicated_storage_bytes(), 889);
        assert_eq!(
            VirtualizedPht::storage_budget(&PvConfig::pv8()).total_bytes(),
            889
        );
        assert_eq!(PatternStorage::label(&pht), "PV-8");
    }

    fn stats(pht: &VirtualizedPht) -> &pv_core::PvStats {
        pht.table().stats().expect("the PHT owns its proxy")
    }

    #[test]
    fn cold_lookup_misses_and_costs_memory_latency() {
        let (mut mem, mut pht) = setup();
        let lookup = pht.lookup(index_for(0x4000, 3), &mut mem, None, 0);
        assert!(lookup.pattern.is_none());
        assert!(
            lookup.ready_at >= 400,
            "cold PVTable set must come from DRAM"
        );
        assert_eq!(stats(&pht).pvcache_misses, 1);
        assert_eq!(stats(&pht).memory_requests, 1);
    }

    #[test]
    fn store_then_lookup_round_trips_the_pattern() {
        let (mut mem, mut pht) = setup();
        let index = index_for(0x4000, 3);
        let pattern = SpatialPattern::from_offsets([3, 4, 9]);
        pht.store(index, pattern, &mut mem, None, 0);
        let lookup = pht.lookup(index, &mut mem, None, 1_000);
        assert_eq!(lookup.pattern, Some(pattern));
        assert_eq!(stats(&pht).pvcache_hits, 1);
    }

    #[test]
    fn evicted_dirty_sets_survive_in_memory() {
        let (mut mem, mut pht) = setup();
        let pattern = SpatialPattern::from_offsets([1, 2]);
        // Store patterns into more distinct sets than the PVCache holds so
        // the first one is evicted (dirty) and written back.
        let capacity = pht.table().config().pvcache_sets;
        for i in 0..(capacity + 4) as u64 {
            // Consecutive instruction words map to different PVTable sets
            // (the set index is the low bits of PC-bits concatenated with
            // the offset, so a PC step of 4 moves the set by 32).
            let index = index_for(0x4000 + i * 4, 1);
            pht.store(index, pattern, &mut mem, None, i * 1000);
        }
        assert!(stats(&pht).dirty_writebacks >= 1);
        // The first index's pattern must still be retrievable: its set comes
        // back from the memory hierarchy.
        let lookup = pht.lookup(index_for(0x4000, 1), &mut mem, None, 1_000_000);
        assert_eq!(
            lookup.pattern,
            Some(pattern),
            "dirty write-back must preserve the pattern"
        );
    }

    #[test]
    fn merged_lookups_wait_for_the_inflight_fill() {
        let (mut mem, mut pht) = setup();
        let index = index_for(0x4000, 1);
        let first = pht.lookup(index, &mut mem, None, 0);
        // Same set requested again one cycle later: the fetch is merged (no
        // second memory request) and the early hit reports the in-flight
        // fill's completion time rather than pretending the data arrived.
        let second = pht.lookup(index, &mut mem, None, 1);
        assert_eq!(stats(&pht).memory_requests, 1);
        assert_eq!(second.ready_at, first.ready_at);
        assert_eq!(stats(&pht).pending_hits, 1);
    }

    #[test]
    #[should_panic(expected = "tag bits")]
    fn too_few_entry_tag_bits_panic() {
        let config = HierarchyConfig::paper_baseline(1);
        let mut pv = PvConfig::pv8();
        pv.table_sets = 256; // 13 tag bits needed, SmsEntry stores 11.
        VirtualizedPht::new(0, pv, config.pv_regions.core_base(0));
    }
}
