//! SMS on a *shared* PVProxy: the cohabitation constructor.
//!
//! [`VirtualizedPht::new`] gives SMS a PVProxy of its own.
//! [`VirtualizedPht::shared`] instead registers the SMS PVTable as one table
//! of a per-core [`SharedPvProxy`], so SMS and any cohabiting predictor
//! (e.g. the Markov backend) arbitrate for the same table-tagged PVCache
//! entries and the same L2/DRAM bandwidth. The adapter is the same type in
//! both arrangements, and the SMS engine is — as always — unchanged: it
//! still sees only [`crate::PatternStorage`].
//!
//! The adapter does not own a shared proxy: the proxy lives with whoever
//! composes the cohabiting engines (the composite prefetcher), and arrives
//! by `&mut` through the `shared` parameter of every
//! [`crate::PatternStorage`] call. That keeps the adapter — and the whole
//! simulator above it — `Send`, with no per-access `RefCell` borrow
//! bookkeeping on the hot path.
//!
//! Contents are write-through in the adapter's own `PvTable<SmsEntry>`,
//! consulted only while the proxy reports the set resident. On a shared
//! proxy, in-set recency promotions survive a clean PVCache eviction (see
//! `pv_core::shared` for the rule).

use crate::virtualized::{check_geometry, VirtualizedPht};
use pv_core::{ProxiedTable, PvConfig, SharedPvProxy};
use pv_mem::Address;

impl VirtualizedPht {
    /// Registers an SMS PVTable based at `pv_start` (normally a
    /// `PvRegionPlan` sub-region base) with the core's shared `proxy`.
    /// `config` describes this table's geometry; the PVCache capacity is the
    /// shared proxy's, not `config.pvcache_sets`.
    ///
    /// # Panics
    ///
    /// Panics if the configured number of table sets leaves more index tag
    /// bits than the packed entry stores (as [`Self::new`] does).
    pub fn shared(proxy: &mut SharedPvProxy, config: PvConfig, pv_start: Address) -> Self {
        check_geometry(&config);
        VirtualizedPht {
            table: ProxiedTable::lent(proxy, config, pv_start, "SMS"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{PhtIndex, TriggerKey};
    use crate::pattern::SpatialPattern;
    use crate::pht::PatternStorage;
    use pv_mem::{HierarchyConfig, MemoryHierarchy, PvRegionConfig};

    fn setup() -> (MemoryHierarchy, SharedPvProxy, VirtualizedPht) {
        let mut config = HierarchyConfig::paper_baseline(4);
        config.pv_regions = PvRegionConfig::with_bytes_per_core(4, 128 * 1024);
        let mem = MemoryHierarchy::new(config);
        let mut shared = SharedPvProxy::new(0, PvConfig::pv8());
        let pht =
            VirtualizedPht::shared(&mut shared, PvConfig::pv8(), config.pv_regions.core_base(0));
        (mem, shared, pht)
    }

    fn index_for(pc: u64, offset: u32) -> PhtIndex {
        TriggerKey::new(pc, offset).index()
    }

    #[test]
    fn store_then_lookup_round_trips_through_the_shared_proxy() {
        let (mut mem, mut shared, mut pht) = setup();
        let index = index_for(0x4000, 3);
        let pattern = SpatialPattern::from_offsets([3, 4, 9]);
        pht.store(index, pattern, &mut mem, Some(&mut shared), 0);
        let lookup = pht.lookup(index, &mut mem, Some(&mut shared), 1_000);
        assert_eq!(lookup.pattern, Some(pattern));
        assert_eq!(shared.table_stats(0).stores, 1);
        assert_eq!(shared.table_stats(0).pvcache_hits, 1);
    }

    #[test]
    fn cold_lookup_pays_memory_latency_and_issues_predictor_traffic() {
        let (mut mem, mut shared, mut pht) = setup();
        let lookup = pht.lookup(index_for(0x4000, 3), &mut mem, Some(&mut shared), 0);
        assert!(lookup.pattern.is_none());
        assert!(lookup.ready_at >= 400, "cold set must come from DRAM");
        assert_eq!(mem.stats().l2_requests.predictor, 1);
    }

    #[test]
    fn evicted_dirty_sets_survive_via_write_through() {
        let (mut mem, mut shared, mut pht) = setup();
        let pattern = SpatialPattern::from_offsets([1, 2]);
        let capacity = shared.cache().capacity();
        for i in 0..(capacity + 4) as u64 {
            pht.store(
                index_for(0x4000 + i * 4, 1),
                pattern,
                &mut mem,
                Some(&mut shared),
                i * 1000,
            );
        }
        assert!(shared.table_stats(0).dirty_writebacks >= 1);
        let lookup = pht.lookup(index_for(0x4000, 1), &mut mem, Some(&mut shared), 1_000_000);
        assert_eq!(lookup.pattern, Some(pattern));
    }

    #[test]
    fn labels_and_budget_name_the_shared_cache() {
        let (_, _, pht) = setup();
        assert_eq!(PatternStorage::label(&pht), "shPV-8");
        // Same pooled budget as a dedicated PV-8 proxy at SMS widths.
        assert_eq!(pht.dedicated_storage_bytes(), 889);
    }

    #[test]
    fn the_adapter_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let (_, _, pht) = setup();
        assert_send(&pht);
    }
}
