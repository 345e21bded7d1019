//! Substrate generality: two distinct `PvEntry` implementations — SMS's
//! 43-bit spatial-pattern entries and the Markov prefetcher's 40-bit
//! next-address entries — run through the *same* generic `ProxiedTable`
//! and proxy, and their traffic accounting is directly comparable (the
//! acceptance criterion for the dependency inversion).

use pv_core::{ProxiedTable, PvConfig, PvEntry};
use pv_markov::MarkovEntry;
use pv_mem::{HierarchyConfig, MemoryHierarchy};
use pv_sim::{run_workload, PrefetcherKind, SimConfig};
use pv_sms::{SmsEntry, SpatialPattern};
use pv_workloads::WorkloadId;

/// Drives `operations` store+lookup pairs over `distinct_sets` distinct
/// table sets through a proxy of entry type `E`, returning the proxy's
/// traffic counters. `make_entry` builds an entry for a given tag.
fn drive_proxy<E: PvEntry>(
    make_entry: impl Fn(u64) -> E,
    operations: u64,
    distinct_sets: u64,
) -> pv_core::PvStats {
    let config = HierarchyConfig::paper_baseline(4);
    let mut mem = MemoryHierarchy::new(config);
    let mut table: ProxiedTable<E> =
        ProxiedTable::owned(0, PvConfig::pv8(), config.pv_regions.core_base(0), "T");
    for i in 0..operations {
        let index = (i % distinct_sets) | ((i % 7) << 10);
        let entry = make_entry(table.tag_of(index));
        table.store(index, entry, &mut mem, None, i * 50);
        let (found, _) = table.lookup(index, &mut mem, None, i * 50 + 10);
        assert!(found.is_some(), "a just-stored entry must be retrievable");
    }
    *table.stats().expect("the table owns its proxy")
}

#[test]
fn both_backends_run_through_the_same_proxy_with_consistent_accounting() {
    const OPERATIONS: u64 = 2_000;
    const DISTINCT_SETS: u64 = 64;

    let sms = drive_proxy(
        |tag| SmsEntry::new(tag as u16, SpatialPattern::from_offsets([1, 5, 9])),
        OPERATIONS,
        DISTINCT_SETS,
    );
    let markov = drive_proxy(
        |tag| MarkovEntry::new(tag as u16, 3).expect("delta 3 is encodable"),
        OPERATIONS,
        DISTINCT_SETS,
    );

    // Identical access streams through the same substrate must produce
    // identical traffic accounting: the proxy's behaviour depends on the
    // index stream and geometry, not on what the payload means.
    for (name, stats) in [("SMS", sms), ("Markov", markov)] {
        assert_eq!(stats.lookups, OPERATIONS, "{name} lookups");
        assert_eq!(stats.stores, OPERATIONS, "{name} stores");
        assert!(stats.memory_requests > 0, "{name} must fetch table sets");
        assert!(
            stats.memory_requests <= stats.lookups + stats.stores,
            "{name}: at most one fetch per operation"
        );
        assert!(stats.pvcache_hits > 0, "{name}: the working set has reuse");
    }
    assert_eq!(
        sms.memory_requests, markov.memory_requests,
        "same index stream + same substrate = same memory traffic, regardless of entry type"
    );
    assert_eq!(sms.pvcache_hits, markov.pvcache_hits);
    assert_eq!(sms.dirty_writebacks, markov.dirty_writebacks);
}

#[test]
fn backend_layouts_and_budgets_derive_from_their_entry_widths() {
    let config = HierarchyConfig::paper_baseline(4);
    let sms: ProxiedTable<SmsEntry> =
        ProxiedTable::owned(0, PvConfig::pv8(), config.pv_regions.core_base(0), "SMS");
    let markov: ProxiedTable<MarkovEntry> =
        ProxiedTable::owned(1, PvConfig::pv8(), config.pv_regions.core_base(1), "Markov");

    assert_eq!(sms.layout().entry_bits(), 43);
    assert_eq!(sms.layout().entries_per_block(), 11);
    assert_eq!(markov.layout().entry_bits(), 40);
    assert_eq!(markov.layout().entries_per_block(), 12);
    // Different widths, different budgets — from the same formulas.
    assert_eq!(sms.storage_budget().total_bytes(), 889);
    assert_eq!(markov.storage_budget().total_bytes(), 896);
}

#[test]
fn full_simulations_of_both_virtualized_backends_account_predictor_traffic() {
    let mut config = SimConfig::quick(PrefetcherKind::sms_pv8());
    config.warmup_records = 30_000;
    config.measure_records = 40_000;
    let workload = WorkloadId::Qry1.params();

    let sms = run_workload(&config, &workload);
    let markov = run_workload(
        &config.clone().with_prefetcher(PrefetcherKind::markov_pv8()),
        &workload,
    );

    for (name, metrics) in [("SMS-PV8", &sms), ("Markov-PV8", &markov)] {
        let pv = metrics.pv.as_ref().unwrap_or_else(|| panic!("{name} must expose PV stats"));
        assert!(pv.lookups > 0, "{name} lookups");
        assert!(pv.memory_requests > 0, "{name} memory requests");
        assert!(
            metrics.hierarchy.l2_requests.predictor >= pv.memory_requests,
            "{name}: every proxy fetch is a predictor-classified L2 request"
        );
        assert!(
            metrics.hierarchy.l2_requests.application > metrics.hierarchy.l2_requests.predictor,
            "{name}: application traffic must dominate"
        );
    }
    // The two engines are different predictors, so their table-access
    // streams (and hence PV traffic) legitimately differ — but both flow
    // through the same accounting.
    assert_eq!(sms.configuration, "SMS-PV8");
    assert_eq!(markov.configuration, "Markov-PV8");
}
