//! The Markov next-address table on a *shared* PVProxy.
//!
//! Mirror of `pv_sms::cohabit`: [`VirtualizedMarkov::shared`] registers the
//! Markov table as one table of a per-core [`SharedPvProxy`], so it
//! competes with its cohabitants (e.g. SMS) for the same table-tagged
//! PVCache lines and the same L2/DRAM bandwidth. Contents are write-through
//! in the adapter's own `PvTable<MarkovEntry>`; the engine still sees only
//! [`crate::NextAddrStorage`].
//!
//! The adapter does not own a shared proxy: it arrives by `&mut` through
//! the `shared` parameter of every call, which keeps the adapter (and the
//! whole simulator above it) `Send` with no `RefCell` bookkeeping on the hot
//! path.

use crate::storage::{check_geometry, VirtualizedMarkov};
use pv_core::{ProxiedTable, PvConfig, SharedPvProxy};
use pv_mem::Address;

impl VirtualizedMarkov {
    /// Registers a Markov PVTable based at `pv_start` (normally a
    /// `PvRegionPlan` sub-region base) with the core's shared `proxy`.
    ///
    /// # Panics
    ///
    /// Panics if the configured number of table sets leaves more index tag
    /// bits than the packed entry stores (as [`Self::new`] does).
    pub fn shared(proxy: &mut SharedPvProxy, config: PvConfig, pv_start: Address) -> Self {
        check_geometry(&config);
        VirtualizedMarkov {
            table: ProxiedTable::lent(proxy, config, pv_start, "Markov"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::MarkovIndex;
    use crate::storage::NextAddrStorage;
    use pv_mem::{HierarchyConfig, MemoryHierarchy, PvRegionConfig};

    #[test]
    fn markov_round_trips_through_a_shared_proxy() {
        let mut config = HierarchyConfig::paper_baseline(4);
        config.pv_regions = PvRegionConfig::with_bytes_per_core(4, 128 * 1024);
        let mut mem = MemoryHierarchy::new(config);
        let mut shared = SharedPvProxy::new(0, PvConfig::pv8());
        let mut table =
            VirtualizedMarkov::shared(&mut shared, PvConfig::pv8(), config.pv_regions.core_base(0));
        let index = MarkovIndex::from_pc(0x4000);
        table.store(index, -7, &mut mem, Some(&mut shared), 0);
        assert_eq!(
            table.lookup(index, &mut mem, Some(&mut shared), 1_000).delta,
            Some(-7)
        );
        assert_eq!(shared.table_stats(0).stores, 1);
        assert!(mem.stats().l2_requests.predictor > 0);
        assert_eq!(NextAddrStorage::label(&table), "Markov-shPV-8");
    }

    #[test]
    fn two_tables_cohabit_one_proxy_with_separate_stats() {
        // Two Markov tables in one region (the SMS+Markov pairing lives in
        // the cross-crate integration tests): per-table ids, labels and
        // stats must stay separate while the cache is shared.
        let mut config = HierarchyConfig::paper_baseline(4);
        config.pv_regions = PvRegionConfig::with_bytes_per_core(4, 128 * 1024);
        let mut mem = MemoryHierarchy::new(config);
        let mut shared = SharedPvProxy::new(0, PvConfig::pv8());
        let base = config.pv_regions.core_base(0);
        let mut first = VirtualizedMarkov::shared(&mut shared, PvConfig::pv8(), base);
        let mut second = VirtualizedMarkov::shared(
            &mut shared,
            PvConfig::pv8(),
            Address::new(base.raw() + 64 * 1024),
        );
        assert_eq!(first.table().table_id(), 0);
        assert_eq!(second.table().table_id(), 1);

        first.store(
            MarkovIndex::from_pc(0x4000),
            -2,
            &mut mem,
            Some(&mut shared),
            0,
        );
        second.store(
            MarkovIndex::from_pc(0x8000),
            3,
            &mut mem,
            Some(&mut shared),
            10,
        );

        assert_eq!(shared.tables(), 2);
        assert_eq!(shared.table_stats(0).stores, 1);
        assert_eq!(shared.table_stats(1).stores, 1);
        // Both tables occupy the one shared cache.
        assert_eq!(shared.cache().occupancy_of(0), 1);
        assert_eq!(shared.cache().occupancy_of(1), 1);

        // Both entries remain retrievable through their own adapters.
        assert_eq!(
            first
                .lookup(
                    MarkovIndex::from_pc(0x4000),
                    &mut mem,
                    Some(&mut shared),
                    2_000
                )
                .delta,
            Some(-2)
        );
        assert_eq!(
            second
                .lookup(
                    MarkovIndex::from_pc(0x8000),
                    &mut mem,
                    Some(&mut shared),
                    2_000
                )
                .delta,
            Some(3)
        );
    }

    #[test]
    fn the_adapter_is_send() {
        fn assert_send<T: Send>(_: &T) {}
        let config = HierarchyConfig::paper_baseline(4);
        let mut shared = SharedPvProxy::new(0, PvConfig::pv8());
        let table =
            VirtualizedMarkov::shared(&mut shared, PvConfig::pv8(), config.pv_regions.core_base(0));
        assert_send(&table);
        assert_send(&shared);
    }
}
