//! End-to-end behaviour of predictor cohabitation: SMS and Markov sharing
//! one PV region — and, in the shared arrangement, one table-tagged PVCache
//! — on every core.

use pv_core::{PvConfig, PvRegionPlan, SharedPvProxy};
use pv_experiments::{cohabit, HierarchyVariant, RunSpec, Runner, Scale};
use pv_markov::{MarkovIndex, NextAddrStorage, VirtualizedMarkov};
use pv_mem::{ContentionModel, HierarchyConfig, MemoryHierarchy};
use pv_sim::PrefetcherKind;
use pv_sms::{PatternStorage, SpatialPattern, TriggerKey, VirtualizedPht};
use pv_workloads::WorkloadId;

/// The two backends cohabit one proxy: different entry widths, different
/// sub-regions, one cache, separate per-table statistics.
#[test]
fn sms_and_markov_share_one_proxy_and_one_cache() {
    let config = HierarchyConfig::paper_baseline(4).with_pv_bytes_per_core(128 * 1024);
    let mut mem = MemoryHierarchy::new(config);
    let pv = PvConfig::pv8();
    let plan = PvRegionPlan::new(config.pv_regions, vec![pv.table_bytes(), pv.table_bytes()]);
    let mut shared = SharedPvProxy::new(0, pv);
    let mut sms = VirtualizedPht::shared(&mut shared, pv, plan.base(0, 0));
    let mut markov = VirtualizedMarkov::shared(&mut shared, pv, plan.base(0, 1));

    let pattern = SpatialPattern::from_offsets([1, 4, 7]);
    sms.store(
        TriggerKey::new(0x4000, 1).index(),
        pattern,
        &mut mem,
        Some(&mut shared),
        0,
    );
    markov.store(
        MarkovIndex::from_pc(0x8000),
        3,
        &mut mem,
        Some(&mut shared),
        10,
    );

    assert_eq!(shared.tables(), 2);
    assert_eq!(shared.table_label(0), "SMS");
    assert_eq!(shared.table_label(1), "Markov");
    assert_eq!(shared.table_stats(0).stores, 1);
    assert_eq!(shared.table_stats(1).stores, 1);
    assert_eq!(shared.cache().occupancy_of(0), 1);
    assert_eq!(shared.cache().occupancy_of(1), 1);

    // Each adapter still retrieves its own entries through the shared cache.
    assert_eq!(
        sms.lookup(
            TriggerKey::new(0x4000, 1).index(),
            &mut mem,
            Some(&mut shared),
            2_000
        )
        .pattern,
        Some(pattern)
    );
    assert_eq!(
        markov
            .lookup(
                MarkovIndex::from_pc(0x8000),
                &mut mem,
                Some(&mut shared),
                2_000
            )
            .delta,
        Some(3)
    );
    // All of it flowed through one Requester::pv_proxy stream at the L2.
    assert!(mem.stats().l2_requests.predictor >= 2);
}

/// One table's working set can evict the other's sets — the arbitration a
/// per-predictor PVCache cannot express.
#[test]
fn one_table_can_claim_the_whole_shared_cache() {
    let config = HierarchyConfig::paper_baseline(4).with_pv_bytes_per_core(128 * 1024);
    let mut mem = MemoryHierarchy::new(config);
    let pv = PvConfig::pv8();
    let plan = PvRegionPlan::new(config.pv_regions, vec![pv.table_bytes(), pv.table_bytes()]);
    let mut shared = SharedPvProxy::new(0, pv);
    let mut sms = VirtualizedPht::shared(&mut shared, pv, plan.base(0, 0));
    let mut markov = VirtualizedMarkov::shared(&mut shared, pv, plan.base(0, 1));

    // Markov touches one set; SMS then streams through more sets than the
    // cache holds, displacing it entirely.
    markov.store(
        MarkovIndex::from_pc(0x8000),
        3,
        &mut mem,
        Some(&mut shared),
        0,
    );
    let capacity = pv.pvcache_sets;
    for i in 0..(capacity + 2) as u64 {
        sms.store(
            TriggerKey::new(0x4000 + i * 4, 1).index(),
            SpatialPattern::from_offsets([1, 2]),
            &mut mem,
            Some(&mut shared),
            1_000 + i * 1_000,
        );
    }
    assert_eq!(
        shared.cache().occupancy_of(1),
        0,
        "Markov's set was displaced"
    );
    assert_eq!(shared.cache().occupancy_of(0), capacity);
    assert_eq!(shared.table_stats(1).dirty_writebacks, 1);
    // The displaced delta survives in memory and comes back on demand.
    assert_eq!(
        markov
            .lookup(
                MarkovIndex::from_pc(0x8000),
                &mut mem,
                Some(&mut shared),
                1_000_000
            )
            .delta,
        Some(3)
    );
}

/// The headline cohabitation result at smoke scale: with equal total
/// on-chip capacity, the shared PVCache serves SMS + Markov with *less*
/// predictor L2 traffic than the dedicated split, because capacity flows to
/// whichever table is hot.
#[test]
fn shared_pvcache_reduces_predictor_traffic_vs_dedicated_split() {
    let runner = Runner::new(Scale::Smoke, 4);
    let rows = cohabit::rows_for(&runner, &[WorkloadId::Qry1]);
    let ideal = |config: &str| {
        rows.iter()
            .find(|r| r.config == config && r.variant.ends_with("ideal"))
            .expect("row present")
    };
    let dedicated = ideal("SMS+Markov-2xPV4");
    let shared = ideal("SMS+Markov-shPV8");
    assert!(
        shared.l2_predictor_requests < dedicated.l2_predictor_requests,
        "pooling the PVCache must cut predictor L2 traffic ({} vs {})",
        shared.l2_predictor_requests,
        dedicated.l2_predictor_requests
    );
    // The capacity flowed to the hot table: Markov's hit rate rises.
    let hit = |row: &cohabit::CohabitRow, label: &str| {
        row.tables.iter().find(|t| t.label == label).unwrap().stats.pvcache_hit_ratio()
    };
    assert!(
        hit(shared, "Markov") > hit(dedicated, "Markov"),
        "the shared cache must serve the hot table better ({:.3} vs {:.3})",
        hit(shared, "Markov"),
        hit(dedicated, "Markov")
    );
    // Both tables are genuinely served simultaneously.
    for row in [dedicated, shared] {
        for table in &row.tables {
            assert!(
                table.stats.lookups > 0,
                "{}: {} starved",
                row.config,
                table.label
            );
            assert!(
                table.stats.stores > 0,
                "{}: {} never stored",
                row.config,
                table.label
            );
        }
    }
}

/// Under queued contention the cohabiting tables' traffic competes for the
/// same shared resources, and the split of queueing delay is reported per
/// table.
#[test]
fn queued_cohabitation_reports_per_table_queue_delays() {
    let runner = Runner::new(Scale::Smoke, 4);
    let spec = RunSpec {
        workload: WorkloadId::Qry1,
        prefetcher: PrefetcherKind::composite_shared(8),
        hierarchy: HierarchyVariant::PvRegion {
            bytes_per_core: cohabit::PV_BYTES_PER_CORE,
            contention: ContentionModel::Queued,
        },
    };
    let metrics = runner.metrics(&spec);
    assert_eq!(metrics.pv_tables.len(), 2);
    for table in &metrics.pv_tables {
        assert!(
            table.stats.queue_delay_cycles > 0,
            "{} must observe contention under Queued",
            table.label
        );
    }
    let delay = metrics.hierarchy.total_queue_delay();
    assert!(delay.predictor_cycles() > 0);
    assert!(delay.application_cycles() > 0);
}

/// The cohabiting pair must still *prefetch usefully*: coverage and issued
/// prefetches are nonzero, and both dedicated and shared arrangements beat
/// the no-prefetch baseline on the scan workload under the ideal hierarchy.
#[test]
fn cohabiting_prefetchers_still_cover_misses_and_speed_up_scans() {
    let runner = Runner::new(Scale::Smoke, 4);
    let rows = cohabit::rows_for(&runner, &[WorkloadId::Qry1]);
    for row in rows.iter().filter(|r| r.variant.ends_with("ideal")) {
        assert!(row.coverage > 0.2, "{}: scan coverage too low", row.config);
        assert!(
            row.speedup > 0.0,
            "{}: cohabiting prefetchers must beat NoPrefetch on Qry1 (got {:.3})",
            row.config,
            row.speedup
        );
    }
}
