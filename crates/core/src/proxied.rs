//! The typed side of a virtualized table: a predictor's [`PvTable`] reached
//! through a [`SharedPvProxy`].
//!
//! The proxy is untyped: it tracks which sets are on chip and moves blocks
//! through the memory hierarchy, while the entry values live write-through
//! in the owner's table (see the [`crate::shared`] module docs). A
//! [`ProxiedTable`] is that owner for one table of entry type `E`. It splits
//! a predictor index into set and tag, asks the proxy for the set, and reads
//! or updates the table once the set is on chip. Every predictor adapter
//! (`pv-sms`, `pv-markov`) wraps one, in one of two arrangements:
//!
//! * **owned** ([`ProxiedTable::owned`]) — the table registers with a
//!   one-table proxy of its own, a PVCache of `config.pvcache_sets` sets;
//! * **lent** ([`ProxiedTable::lent`]) — the table registers with a proxy
//!   owned further up (the cohabitation composite), which arrives by `&mut`
//!   on every call and is shared with the other tables registered with it.
//!
//! # Clean evictions
//!
//! The paper's PVProxy discards a PVCache entry that is evicted unmodified
//! (Section 2.2), so the in-set recency promotions made by lookups while the
//! set was on chip are lost with it. An owned table keeps that behaviour:
//! on every fill it copies the fetched set into a buffer preallocated for
//! one PVCache slot, and when the proxy reports that a fill evicted a clean
//! set, the table restores the set from its copy. A lent table keeps the
//! promotions instead; that is the shared arrangement's documented rule, and
//! the tables of one proxy cannot each keep copies of the others' sets.
//! `ProxiedTable::track_fill` is the one place this rule is decided.

use crate::config::PvConfig;
use crate::entry::{PvEntry, PvLayout};
use crate::register::PvStartRegister;
use crate::shared::{SharedPvProxy, SharedSetAccess};
use crate::stats::PvStats;
use crate::storage::PvStorageBudget;
use crate::table::{PvSet, PvTable};
use pv_mem::{Address, MemoryHierarchy};

/// A proxy owned by the one table registered with it, plus the fill-time
/// copies that let the table discard promotions on a clean eviction.
#[derive(Debug)]
struct OwnedProxy<E> {
    proxy: SharedPvProxy,
    /// The set whose fill-time copy each PVCache slot holds (`None` while
    /// the slot is free).
    held: Vec<Option<usize>>,
    /// One preallocated set buffer per PVCache slot.
    copies: Vec<PvSet<E>>,
}

impl<E> OwnedProxy<E> {
    /// The slot currently holding `set` (`None`: a free slot).
    fn slot_of(&self, set: Option<usize>) -> usize {
        self.held
            .iter()
            .position(|held| *held == set)
            .expect("every resident set holds one PVCache slot")
    }
}

/// One virtualized predictor table of entry type `E`, registered with a
/// [`SharedPvProxy`] that it either owns or borrows on every call (see the
/// module docs).
#[derive(Debug)]
pub struct ProxiedTable<E> {
    config: PvConfig,
    table: PvTable<E>,
    table_id: usize,
    /// PVCache sets of the proxy the table is registered with, fixed for the
    /// proxy's lifetime, so labels and budgets need no proxy access.
    capacity: usize,
    owned: Option<OwnedProxy<E>>,
}

impl<E: PvEntry> ProxiedTable<E> {
    /// A table for `core` with a proxy of its own: a PVCache of
    /// `config.pvcache_sets` sets, with the table based at `pv_start`
    /// (normally `HierarchyConfig::pv_regions.core_base(core)`). `label`
    /// names the table in the proxy's statistics.
    pub fn owned(core: usize, config: PvConfig, pv_start: Address, label: &str) -> Self {
        let mut proxy = SharedPvProxy::new(core, config);
        let mut table = Self::lent(&mut proxy, config, pv_start, label);
        let ways = table.table.layout().entries_per_block();
        table.owned = Some(OwnedProxy {
            proxy,
            held: vec![None; config.pvcache_sets],
            copies: (0..config.pvcache_sets).map(|_| PvSet::new(ways)).collect(),
        });
        table
    }

    /// A table based at `pv_start` (normally a `PvRegionPlan` sub-region
    /// base) registered with `proxy`, which the caller owns and passes back
    /// on every [`Self::lookup`] and [`Self::store`]. `config` describes the
    /// table's geometry; the PVCache capacity is the proxy's.
    pub fn lent(
        proxy: &mut SharedPvProxy,
        config: PvConfig,
        pv_start: Address,
        label: &str,
    ) -> Self {
        let table_id = proxy.add_table(pv_start, config.table_sets, config.block_bytes, label);
        ProxiedTable {
            table: PvTable::new(&config, PvStartRegister::new(pv_start)),
            table_id,
            capacity: proxy.cache().capacity(),
            owned: None,
            config,
        }
    }

    /// The table's geometry.
    pub fn config(&self) -> &PvConfig {
        &self.config
    }

    /// The packed layout derived from `E`'s bit-widths.
    pub fn layout(&self) -> &PvLayout {
        self.table.layout()
    }

    /// The authoritative in-memory table.
    pub fn table(&self) -> &PvTable<E> {
        &self.table
    }

    /// This table's id within its proxy.
    pub fn table_id(&self) -> usize {
        self.table_id
    }

    /// The proxy this table owns (`None` for a lent table).
    pub fn proxy(&self) -> Option<&SharedPvProxy> {
        self.owned.as_ref().map(|owned| &owned.proxy)
    }

    /// Statistics of the owned proxy (`None` for a lent table: its proxy's
    /// owner reports them).
    pub fn stats(&self) -> Option<&PvStats> {
        self.proxy().map(|proxy| proxy.table_stats(self.table_id))
    }

    /// Resets the owned proxy's statistics; learned state is preserved. A
    /// lent table has none of its own to reset.
    pub fn reset_stats(&mut self) {
        if let Some(owned) = &mut self.owned {
            owned.proxy.reset_stats();
        }
    }

    /// Report label: `"PV-<sets>"` with an owned proxy, `"shPV-<sets>"` on a
    /// shared one.
    pub fn label(&self) -> String {
        let shared = if self.owned.is_some() { "" } else { "sh" };
        format!("{shared}PV-{}", self.capacity)
    }

    /// The Section 4.6 storage budget of the proxy at this entry's widths.
    /// Tables sharing a proxy each report the whole pooled figure rather
    /// than a per-table split.
    pub fn storage_budget(&self) -> PvStorageBudget {
        PvStorageBudget::for_entry::<E>(&PvConfig {
            pvcache_sets: self.capacity,
            ..self.config
        })
    }

    /// Splits a raw table index into (set index, tag): the low bits select
    /// the set, the remaining bits are the tag stored in the entry.
    pub fn split_index(&self, index: u64) -> (usize, u64) {
        (
            (index as usize) & (self.config.table_sets - 1),
            index >> self.config.table_sets.trailing_zeros(),
        )
    }

    /// The tag bits of `index` for this table's geometry.
    pub fn tag_of(&self, index: u64) -> u64 {
        self.split_index(index).1
    }

    /// Looks up the entry stored for `index`, returning it (or `None` on a
    /// predictor miss) and the cycle at which the result is available. A
    /// lookup the proxy drops (full pattern buffer, unbacked set) misses
    /// without touching the table.
    ///
    /// # Panics
    ///
    /// Panics if the table is lent and `shared` is `None`.
    pub fn lookup(
        &mut self,
        index: u64,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) -> (Option<E>, u64) {
        let (set_index, tag) = self.split_index(index);
        let table_id = self.table_id;
        let access = self.proxy_mut(shared).lookup_set(table_id, set_index, index, mem, now);
        self.track_fill(set_index, &access);
        let entry = if access.resident {
            self.table.set_mut(set_index).lookup(tag).cloned()
        } else {
            None
        };
        (entry, access.ready_at)
    }

    /// Stores `entry` for `index`, replacing any previous entry. The set is
    /// write-allocated through the proxy; a store to a set the proxy does
    /// not back is dropped and leaves the table untouched.
    ///
    /// # Panics
    ///
    /// Panics if `entry.tag()` differs from the tag bits of `index`, if the
    /// entry cannot pack into the layout, or if the table is lent and
    /// `shared` is `None`.
    pub fn store(
        &mut self,
        index: u64,
        entry: E,
        mem: &mut MemoryHierarchy,
        shared: Option<&mut SharedPvProxy>,
        now: u64,
    ) {
        let (set_index, tag) = self.split_index(index);
        // Geometry guards: an entry that disagrees with the index's tag bits
        // or that cannot pack into the derived layout would leave the
        // structured table modelling hardware that cannot exist.
        let layout = self.table.layout();
        assert_eq!(
            entry.tag(),
            tag,
            "stored entry's tag must match the index's tag bits"
        );
        assert!(
            entry.tag() <= layout.max_tag(),
            "tag {:#x} exceeds the layout's {} tag bits",
            entry.tag(),
            layout.tag_bits
        );
        assert!(
            entry.payload() != 0 && entry.payload() <= layout.max_payload(),
            "payload {:#x} must be non-zero (the invalid marker) and fit the layout's {} payload bits",
            entry.payload(),
            layout.payload_bits
        );
        let table_id = self.table_id;
        let access = self.proxy_mut(shared).store_set(table_id, set_index, mem, now);
        self.track_fill(set_index, &access);
        if access.resident {
            self.table.set_mut(set_index).insert(entry);
        }
    }

    /// The proxy to drive: the owned one, else the one lent by the caller.
    fn proxy_mut<'a>(&'a mut self, shared: Option<&'a mut SharedPvProxy>) -> &'a mut SharedPvProxy {
        match &mut self.owned {
            Some(owned) => &mut owned.proxy,
            None => shared.expect("a lent table needs the proxy it registered with"),
        }
    }

    /// Applies the clean-eviction rule (module docs) after an access that
    /// may have filled `set_index`. Owned tables restore a clean victim from
    /// its fill-time copy and copy the new set into the slot it frees; lent
    /// tables keep what the proxy left.
    fn track_fill(&mut self, set_index: usize, access: &SharedSetAccess) {
        let Some(owned) = &mut self.owned else {
            return;
        };
        if !access.filled {
            return;
        }
        let slot = match access.evicted {
            Some(victim) => {
                let slot = owned.slot_of(Some(victim.set_index));
                if !victim.dirty {
                    self.table.set_mut(victim.set_index).clone_from(&owned.copies[slot]);
                }
                slot
            }
            None => owned.slot_of(None),
        };
        owned.held[slot] = Some(set_index);
        owned.copies[slot].clone_from(self.table.read_set(set_index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::RawEntry;
    use pv_mem::{HierarchyConfig, PvRegionConfig};

    /// An SMS-shaped index: low 10 bits select the set of a 1K-set table,
    /// the remaining bits are the tag.
    fn index_for(set: u64, tag: u64) -> u64 {
        (tag << 10) | (set & 0x3FF)
    }

    fn setup() -> (MemoryHierarchy, ProxiedTable<RawEntry>) {
        let config = HierarchyConfig::paper_baseline(4);
        let mem = MemoryHierarchy::new(config);
        let table = ProxiedTable::owned(0, PvConfig::pv8(), config.pv_regions.core_base(0), "T");
        (mem, table)
    }

    fn stats(table: &ProxiedTable<RawEntry>) -> &PvStats {
        table.stats().expect("an owned table reports its proxy's statistics")
    }

    #[test]
    fn cold_lookup_misses_and_costs_memory_latency() {
        let (mut mem, mut table) = setup();
        let (entry, ready_at) = table.lookup(index_for(3, 0x20), &mut mem, None, 0);
        assert!(entry.is_none());
        assert!(ready_at >= 400, "cold PVTable set must come from DRAM");
        assert_eq!(stats(&table).pvcache_misses, 1);
        assert_eq!(stats(&table).memory_requests, 1);
    }

    #[test]
    fn pvcache_misses_generate_predictor_classified_l2_requests() {
        let (mut mem, mut table) = setup();
        table.lookup(index_for(3, 0x20), &mut mem, None, 0);
        assert_eq!(mem.stats().l2_requests.predictor, 1);
        assert_eq!(mem.stats().l2_requests.application, 0);
    }

    #[test]
    fn store_then_lookup_hits_in_pvcache() {
        let (mut mem, mut table) = setup();
        let index = index_for(3, 0x20);
        let entry = RawEntry::new(table.tag_of(index), 0x1234);
        table.store(index, entry, &mut mem, None, 0);
        let (found, ready_at) = table.lookup(index, &mut mem, None, 1_000);
        assert_eq!(found, Some(entry));
        assert_eq!(ready_at, 1_000 + table.config().pvcache_latency);
        assert_eq!(stats(&table).pvcache_hits, 1);
    }

    #[test]
    fn merged_requests_share_the_fill_and_its_completion_time() {
        let (mut mem, mut table) = setup();
        let index = index_for(3, 0x11);
        let (_, first) = table.lookup(index, &mut mem, None, 0);
        // The same set again before the fill completes: no second memory
        // request, and the early hit waits for the in-flight fill.
        let (_, second) = table.lookup(index, &mut mem, None, 1);
        assert_eq!(stats(&table).memory_requests, 1);
        assert_eq!(
            second, first,
            "an early hit must wait for the in-flight fill"
        );
        assert_eq!(stats(&table).pending_hits, 1);
        let (_, later) = table.lookup(index, &mut mem, None, first + 10);
        assert_eq!(later, first + 10 + table.config().pvcache_latency);
    }

    #[test]
    fn evicted_dirty_sets_survive_in_memory() {
        let (mut mem, mut table) = setup();
        // Store into more distinct sets than the PVCache holds so the first
        // one is evicted dirty and written back.
        let capacity = table.config().pvcache_sets as u64;
        for set in 0..capacity + 4 {
            let index = index_for(set, 5);
            table.store(index, RawEntry::new(5, 0xBEEF), &mut mem, None, set * 1_000);
        }
        assert!(stats(&table).dirty_writebacks >= 1);
        let (entry, _) = table.lookup(index_for(0, 5), &mut mem, None, 1_000_000);
        assert_eq!(
            entry,
            Some(RawEntry::new(5, 0xBEEF)),
            "dirty write-back must preserve the entry"
        );
    }

    #[test]
    fn hot_sets_are_served_from_l2_after_first_touch() {
        let (mut mem, mut table) = setup();
        let index = index_for(100, 7);
        table.lookup(index, &mut mem, None, 0);
        // Push the set out of the PVCache by touching as many other sets.
        for i in 1..=table.config().pvcache_sets as u64 {
            table.lookup(index_for(100 + i, 7), &mut mem, None, i * 1_000);
        }
        // Gone from the PVCache but resident in the L2: no DRAM access.
        let dram_before = mem.stats().dram_reads;
        let (_, ready_at) = table.lookup(index, &mut mem, None, 1_000_000);
        assert!(ready_at - 1_000_000 < 100, "refetch should be an L2 hit");
        assert_eq!(mem.stats().dram_reads, dram_before);
    }

    #[test]
    fn per_core_tables_use_disjoint_address_ranges() {
        let config = HierarchyConfig::paper_baseline(4);
        let core0: ProxiedTable<RawEntry> =
            ProxiedTable::owned(0, PvConfig::pv8(), config.pv_regions.core_base(0), "T");
        let core1: ProxiedTable<RawEntry> =
            ProxiedTable::owned(1, PvConfig::pv8(), config.pv_regions.core_base(1), "T");
        let last0 = core0.table().set_address(1023).raw() + 63;
        let first1 = core1.table().set_address(0).raw();
        assert!(last0 < first1);
        assert_eq!(core0.label(), "PV-8");
    }

    /// Promotes an entry of a full, clean, cached set, evicts the set clean,
    /// then stores a fifth tag into it (the refetch) and returns the tag
    /// that store pushed out of the set.
    fn way_evicted_after_a_clean_eviction(
        table: &mut ProxiedTable<RawEntry>,
        mem: &mut MemoryHierarchy,
        mut shared: Option<&mut SharedPvProxy>,
    ) -> u64 {
        const SET: u64 = 9;
        // Touches as many other sets as the PV-8 PVCache holds.
        let flood = |table: &mut ProxiedTable<RawEntry>,
                     mem: &mut MemoryHierarchy,
                     mut shared: Option<&mut SharedPvProxy>,
                     start: u64| {
            for set in 0..8 {
                let index = index_for(100 + set, 0);
                table.lookup(index, mem, shared.as_deref_mut(), start + set * 1_000);
            }
        };
        // Fill the set: RawEntry packs 4 to a block, so tag 1 ends up LRU.
        for tag in 1..=4 {
            let entry = RawEntry::new(tag, tag);
            table.store(
                index_for(SET, tag),
                entry,
                mem,
                shared.as_deref_mut(),
                tag * 1_000,
            );
        }
        // Write the dirty set back, refetch it clean and promote tag 1: the
        // LRU way becomes tag 2.
        flood(table, mem, shared.as_deref_mut(), 10_000);
        let (promoted, _) = table.lookup(index_for(SET, 1), mem, shared.as_deref_mut(), 20_000);
        assert_eq!(promoted, Some(RawEntry::new(1, 1)));
        // Evict the set while it is clean, then refetch it with a store.
        flood(table, mem, shared.as_deref_mut(), 30_000);
        table.store(index_for(SET, 5), RawEntry::new(5, 5), mem, shared, 40_000);
        let resident: Vec<u64> =
            table.table().read_set(SET as usize).iter().map(|e| e.tag).collect();
        let evicted: Vec<u64> = (1..=4).filter(|tag| !resident.contains(tag)).collect();
        assert_eq!(evicted.len(), 1, "one way makes room for tag 5");
        evicted[0]
    }

    #[test]
    fn clean_evictions_discard_promotions_only_with_an_owned_proxy() {
        // Owned: the clean eviction restores the fill-time copy, so the
        // promotion is lost and the pre-promotion LRU (tag 1) goes.
        let (mut mem, mut owned) = setup();
        assert_eq!(
            way_evicted_after_a_clean_eviction(&mut owned, &mut mem, None),
            1
        );

        // Lent: the shared arrangement keeps the promotion, so the
        // post-promotion LRU (tag 2) goes.
        let mut config = HierarchyConfig::paper_baseline(4);
        config.pv_regions = PvRegionConfig::with_bytes_per_core(4, 128 * 1024);
        let mut mem = MemoryHierarchy::new(config);
        let mut proxy = SharedPvProxy::new(0, PvConfig::pv8());
        let mut lent = ProxiedTable::lent(
            &mut proxy,
            PvConfig::pv8(),
            config.pv_regions.core_base(0),
            "T",
        );
        assert_eq!(lent.label(), "shPV-8");
        assert!(
            lent.stats().is_none(),
            "the proxy's owner reports its statistics"
        );
        assert_eq!(
            way_evicted_after_a_clean_eviction(&mut lent, &mut mem, Some(&mut proxy)),
            2
        );
    }

    #[test]
    #[should_panic(expected = "needs the proxy it registered with")]
    fn a_lent_table_needs_its_proxy() {
        let config = HierarchyConfig::paper_baseline(4);
        let mut mem = MemoryHierarchy::new(config);
        let mut proxy = SharedPvProxy::new(0, PvConfig::pv8());
        let mut lent: ProxiedTable<RawEntry> = ProxiedTable::lent(
            &mut proxy,
            PvConfig::pv8(),
            config.pv_regions.core_base(0),
            "T",
        );
        lent.lookup(0, &mut mem, None, 0);
    }
}
