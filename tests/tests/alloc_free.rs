//! Allocation-freedom guards for the per-record hot path.
//!
//! This binary swaps in a counting global allocator and asserts that the
//! L1-hit access path performs **zero** heap allocations per record, that
//! an MSHR file at capacity churns without allocating, and that a
//! warmed-up simulation phase stays allocation-free end to end.
//! Everything allocation-sensitive lives in the single test below: the
//! libtest harness runs tests in this binary concurrently, and a second
//! test's setup allocations would contaminate the counter.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

use pv_mem::{
    AccessKind, BlockAddr, ContentionModel, EvictionBuffer, HierarchyConfig, MemoryHierarchy,
    MshrFile, MshrOutcome,
};
use pv_sim::{PrefetcherKind, SimConfig, System};
use pv_trace::{record_generator, ReplayStream};
use pv_workloads::{workloads, AccessStream};

/// Counts every allocation and reallocation; frees are not interesting.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn hot_paths_do_not_allocate() {
    // --- L1-hit fast path: strictly zero allocations per access. ---
    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::paper_baseline(1));
    let mut evictions = EvictionBuffer::default();
    let blocks: Vec<u64> = (0..32u64).map(|i| i * 64).collect();
    // Warm the set: the misses below may touch MSHRs/DRAM bookkeeping.
    for &addr in &blocks {
        hierarchy.access_data(0, addr, AccessKind::Read, 0, &mut evictions);
    }
    let before = allocations();
    let mut latency_sum = 0u64;
    for round in 1..=1_000u64 {
        for &addr in &blocks {
            let response =
                hierarchy.access_data(0, addr, AccessKind::Read, round * 100, &mut evictions);
            latency_sum += response.latency;
        }
    }
    assert!(latency_sum > 0);
    assert_eq!(
        allocations() - before,
        0,
        "the L1-hit access path must not heap-allocate"
    );

    // --- MSHR churn: a capacity-64 file held at capacity through 100k
    // cycles of a refused register (the Ideal-mode overflow), a backpressure
    // wait that drains one entry, and a register that refills the slot.
    // Only construction may allocate. ---
    let mut mshr = MshrFile::new(64);
    for block in 0..64u64 {
        mshr.register(BlockAddr::new(block), 0, 1 + block);
    }
    let before = allocations();
    let mut now = 0u64;
    for block in 64..100_064u64 {
        let block = BlockAddr::new(block);
        assert_eq!(mshr.register(block, now, now + 64), MshrOutcome::Full);
        now += mshr.wait_for_slot(now);
        mshr.retire(now);
        assert_eq!(mshr.register(block, now, now + 64), MshrOutcome::Allocated);
        assert_eq!(mshr.occupancy(), 64, "the file must stay at capacity");
    }
    assert_eq!(mshr.full_stalls(), 100_000);
    assert_eq!(
        allocations() - before,
        0,
        "MSHR register/retire/wait_for_slot churn must not heap-allocate"
    );

    // --- Whole-system steady state: with replayed traces (decode from a
    // borrowed byte slice, no per-record work in the generator) a warmed-up
    // scheduling phase must reuse every buffer — event heap, targets,
    // action scratch, AGT update, eviction scratch, PVCache fill copies,
    // repartition window scratch — and allocate nothing, for every
    // prefetcher preset. Queued contention exercises extra hot-path
    // machinery the Ideal runs never touch — L2 port scalars, MSHR
    // backpressure waits, and the per-channel DRAM in-flight rings.
    //
    // Two records grow without bound by design and may still allocate,
    // amortized, after the warm-up: `InfinitePht`'s map and the throttle's
    // level-change trace. Neither grows in the measured phase of this
    // deterministic run. `composite_shared_dynamic(8)` is left out: every
    // boundary move it makes allocates (`PvRegionPlan::replan` copies the
    // new sizes with `to_vec`, `SharedPvProxy::apply_plan` rebuilds the
    // cache's entry `Vec`, and the move is pushed onto the `plan_trace`).
    let presets = [
        PrefetcherKind::None,
        PrefetcherKind::sms_1k_16a(),
        PrefetcherKind::sms_1k_11a(),
        PrefetcherKind::sms_16_11a(),
        PrefetcherKind::sms_8_11a(),
        PrefetcherKind::sms_infinite(),
        PrefetcherKind::sms_pv8(),
        PrefetcherKind::sms_pv16(),
        PrefetcherKind::markov_1k(),
        PrefetcherKind::markov_pv8(),
        PrefetcherKind::composite_dedicated(4),
        PrefetcherKind::composite_shared(8),
        PrefetcherKind::composite_shared_scarce(8),
        PrefetcherKind::sms_pv8_throttled(),
        PrefetcherKind::markov_pv8_throttled(),
    ];
    let phase = 10_000u64;
    for contention in [ContentionModel::Ideal, ContentionModel::Queued] {
        for kind in &presets {
            // Window sizes are irrelevant here — `run_records` drives phases
            // directly — but validation requires a non-empty measurement
            // window.
            let mut config = SimConfig::quick(kind.clone());
            config.warmup_records = 0;
            config.measure_records = 1;
            // Cohabiting tables need a larger PV region than the default.
            let needed = config.prefetcher.pv_bytes_per_core();
            if needed > config.hierarchy.pv_regions.bytes_per_core {
                config.hierarchy = config.hierarchy.with_pv_bytes_per_core(needed);
            }
            config.hierarchy = config.hierarchy.with_contention(contention);
            let streams: Vec<Box<dyn AccessStream>> = (0..config.cores)
                .map(|core| {
                    let bytes =
                        record_generator(&workloads::qry1(), config.seed, core as u32, 3 * phase)
                            .expect("records fit the default layout");
                    Box::new(ReplayStream::new(bytes).expect("valid trace"))
                        as Box<dyn AccessStream>
                })
                .collect();
            let mut system = System::from_streams(config, streams);
            // The first phases grow scratch capacities to their high-water
            // marks (heap, targets, actions, AGT update, accuracy backlogs).
            system.run_records(phase);
            system.run_records(phase);
            let before = allocations();
            system.run_records(phase);
            let grew = allocations() - before;
            assert_eq!(
                grew, 0,
                "a warmed-up {contention:?} phase must be allocation-free \
                 ({kind:?}: {grew} allocations)"
            );
        }
    }
}
