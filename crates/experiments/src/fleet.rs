//! Fleet sweeps: a work-stealing driver that expands configuration grids
//! into independent simulations and drains them over worker threads.
//!
//! The reproduction harness ([`Runner`](crate::Runner)) answers "what are
//! the paper's numbers?" — a fixed set of specs per figure. Fleet sweeps
//! answer the open-ended question "how does the whole design space behave?":
//! the cartesian product of prefetcher kinds × workloads (homogeneous,
//! mixed, or non-stationary scenarios) × DRAM bandwidth points × throttling,
//! expanded up front and executed by however many host threads are
//! available. The `System` ownership refactor makes this trivial — a whole
//! simulation is `Send`, so points migrate freely between workers.
//!
//! Scheduling is work-stealing rather than a single shared queue feeding
//! fixed slices: points differ wildly in cost (a Markov run is several
//! times slower than the no-prefetch baseline; `Queued` contention costs
//! more than `Ideal`), so pre-partitioning would leave workers idle behind
//! the unlucky one. Each worker owns a deque seeded round-robin, pops from
//! the front, and steals from the *back* of a neighbour when its own runs
//! dry.
//!
//! Output is JSON Lines: one `{"type": "run", ...}` object per completed
//! point — streamed in completion order, carrying the configuration key,
//! the run's [`RunMetrics::digest`] and headline metrics but deliberately
//! **no timing**, so the sorted row set diffs byte-identically across
//! thread counts and hosts — and one final `{"type": "summary", ...}`
//! object where all the wall-clock throughput lives.

use crate::runner::{lock, Scale};
use pv_mem::{ContentionModel, HierarchyConfig};
use pv_sim::{
    run_streams, run_workload, run_workload_mix, PrefetcherKind, RunMetrics, SimConfig,
    ThrottleConfig,
};
use pv_trace::Scenario;
use pv_workloads::WorkloadId;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// What the four cores run at one grid point.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetWorkload {
    /// Every core runs the same workload (the paper's methodology).
    Homogeneous(WorkloadId),
    /// Core `i` runs `workloads[i]` (heterogeneous multi-programming).
    Mix([WorkloadId; 4]),
    /// Every core runs its slice of a non-stationary scenario.
    Scenario(Scenario),
}

impl FleetWorkload {
    /// Machine-readable label, unique per workload selection (workload
    /// names, `+`-joined mixes, `Scenario::name` strings).
    pub fn label(&self) -> String {
        match self {
            FleetWorkload::Homogeneous(w) => w.name().to_owned(),
            FleetWorkload::Mix(ws) => {
                format!(
                    "mix:{}",
                    ws.iter().map(|w| w.name()).collect::<Vec<_>>().join("+")
                )
            }
            FleetWorkload::Scenario(s) => s.name(),
        }
    }
}

/// One point of a fleet sweep: a complete, independent simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPoint {
    /// The prefetcher every core uses (throttled kinds carry the policy).
    pub kind: PrefetcherKind,
    /// What the cores run.
    pub workload: FleetWorkload,
    /// DRAM data-bus cycles per 64-byte block. `0` selects the paper's
    /// `Ideal` fixed-latency model; any other value runs `Queued`
    /// contention at that bandwidth.
    pub cycles_per_transfer: u64,
}

impl FleetPoint {
    /// Stable configuration key: the row identity in JSONL output and the
    /// join column when diffing sweeps across thread counts.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|cpt{}",
            self.kind.label(),
            self.workload.label(),
            self.cycles_per_transfer
        )
    }

    fn config(&self, scale: Scale) -> SimConfig {
        let config = scale.config(self.kind.clone());
        let mut hierarchy = HierarchyConfig::paper_baseline(config.cores);
        if self.cycles_per_transfer > 0 {
            hierarchy = hierarchy
                .with_contention(ContentionModel::Queued)
                .with_dram_cycles_per_transfer(self.cycles_per_transfer);
        }
        // Cohabiting kinds hold two tables per core; grow the PV region to
        // fit (same rule the perfbench harness applies).
        let needed = self.kind.pv_bytes_per_core();
        if needed > hierarchy.pv_regions.bytes_per_core {
            hierarchy = hierarchy.with_pv_bytes_per_core(needed);
        }
        config.with_hierarchy(hierarchy)
    }

    /// Runs this point at `scale` and returns its metrics.
    pub fn run(&self, scale: Scale) -> RunMetrics {
        let config = self.config(scale);
        match &self.workload {
            FleetWorkload::Homogeneous(workload) => run_workload(&config, &workload.params()),
            FleetWorkload::Mix(workloads) => {
                let params: Vec<_> = workloads.iter().map(|w| w.params()).collect();
                run_workload_mix(&config, &params)
            }
            FleetWorkload::Scenario(scenario) => {
                let streams = scenario.build_streams(config.cores, config.seed);
                run_streams(&config, streams)
            }
        }
    }
}

/// The axes of a sweep, expanded to their cartesian product by
/// [`FleetGrid::points`].
#[derive(Debug, Clone)]
pub struct FleetGrid {
    /// Prefetcher kinds to sweep.
    pub kinds: Vec<PrefetcherKind>,
    /// Workload selections to sweep.
    pub workloads: Vec<FleetWorkload>,
    /// DRAM bandwidth points (`0` = `Ideal`, else `Queued` at that
    /// cycles-per-transfer).
    pub cycles_per_transfer: Vec<u64>,
    /// When set, every throttleable kind (anything but the no-prefetch
    /// baseline and already-throttled kinds) is *additionally* swept with
    /// the default feedback policy wrapped around it.
    pub throttle: bool,
}

impl FleetGrid {
    /// The default 64-point sweep: four representative kinds (baseline,
    /// virtualized SMS, virtualized Markov, and the shared-proxy composite)
    /// × four workloads × four bandwidth points, no throttle axis.
    pub fn default_grid() -> Self {
        FleetGrid {
            kinds: vec![
                PrefetcherKind::None,
                PrefetcherKind::sms_pv8(),
                PrefetcherKind::markov_pv8(),
                PrefetcherKind::composite_shared(8),
            ],
            workloads: vec![
                FleetWorkload::Homogeneous(WorkloadId::Apache),
                FleetWorkload::Homogeneous(WorkloadId::Db2),
                FleetWorkload::Homogeneous(WorkloadId::Qry1),
                FleetWorkload::Homogeneous(WorkloadId::Qry17),
            ],
            cycles_per_transfer: vec![0, 32, 64, 128],
            throttle: false,
        }
    }

    /// Expands the grid into its points, in a deterministic order
    /// (kind-major, then workload, then bandwidth; throttled variants
    /// follow their base kind).
    pub fn points(&self) -> Vec<FleetPoint> {
        let mut kinds = Vec::new();
        for kind in &self.kinds {
            kinds.push(kind.clone());
            if self.throttle && !matches!(kind, PrefetcherKind::None) && !kind.is_throttled() {
                kinds.push(kind.clone().throttled(ThrottleConfig::feedback_default()));
            }
        }
        let mut points = Vec::new();
        for kind in &kinds {
            for workload in &self.workloads {
                for &cycles_per_transfer in &self.cycles_per_transfer {
                    points.push(FleetPoint {
                        kind: kind.clone(),
                        workload: workload.clone(),
                        cycles_per_transfer,
                    });
                }
            }
        }
        points
    }
}

/// Wall-clock account of one sweep (everything the rows deliberately omit).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Points executed.
    pub points: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep.
    pub seconds: f64,
    /// Completed runs per wall-clock second.
    pub runs_per_sec: f64,
}

/// One JSONL row: the point's key and headline results, no timing. Two
/// sweeps of the same grid must produce identical row sets regardless of
/// thread count — only the *order* of completion may differ.
fn run_row(point: &FleetPoint, metrics: &RunMetrics) -> String {
    format!(
        "{{\"type\": \"run\", \"key\": \"{}\", \"kind\": \"{}\", \"workload\": \"{}\", \
         \"cpt\": {}, \"throttled\": {}, \"digest\": \"{}\", \"ipc\": {:.6}, \
         \"l2_misses\": {}, \"offchip_blocks\": {}, \"prefetches_issued\": {}, \
         \"dropped_prefetches\": {}}}",
        point.key(),
        point.kind.label(),
        point.workload.label(),
        point.cycles_per_transfer,
        point.kind.is_throttled(),
        metrics.digest(),
        metrics.aggregate_ipc(),
        metrics.hierarchy.l2_misses.total(),
        metrics.offchip_blocks(),
        metrics.prefetches_issued,
        metrics.dropped_prefetches(),
    )
}

/// Runs every point at `scale` over `threads` work-stealing workers,
/// streaming one JSONL row per completed run into `sink` (completion
/// order) followed by a `{"type": "summary", ...}` footer with the
/// wall-clock throughput.
///
/// # Panics
///
/// Panics if `sink` rejects a write (fleet output is the binary's whole
/// product; there is nothing sensible to do with a dead sink).
pub fn run_fleet(
    points: Vec<FleetPoint>,
    scale: Scale,
    threads: usize,
    sink: &mut dyn Write,
) -> FleetSummary {
    let threads = threads.max(1).min(points.len().max(1));
    let start = Instant::now();

    // Round-robin the points over per-worker deques: neighbouring indices
    // (same kind, adjacent bandwidth) land on different workers, so the
    // expensive kinds spread out even before any stealing happens.
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    for (index, _) in points.iter().enumerate() {
        lock(&deques[index % threads]).push_back(index);
    }

    let (tx, rx) = mpsc::channel::<String>();
    let executed = std::thread::scope(|scope| {
        for me in 0..threads {
            let tx = tx.clone();
            let deques = &deques;
            let points = &points;
            scope.spawn(move || loop {
                // Own work from the front; steal from the *back* of the
                // next non-empty neighbour so thieves and owners contend
                // for opposite ends of a deque.
                let index = lock(&deques[me]).pop_front().or_else(|| {
                    (1..threads)
                        .find_map(|offset| lock(&deques[(me + offset) % threads]).pop_back())
                });
                let Some(index) = index else { break };
                let point = &points[index];
                let metrics = point.run(scale);
                if tx.send(run_row(point, &metrics)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // The scope's own thread is the writer: rows stream out as workers
        // complete them, not after the whole sweep.
        let mut executed = 0usize;
        for row in rx {
            writeln!(sink, "{row}").expect("fleet sink write failed");
            executed += 1;
        }
        executed
    });

    let seconds = start.elapsed().as_secs_f64();
    let summary = FleetSummary {
        points: executed,
        threads,
        seconds,
        runs_per_sec: if seconds > 0.0 {
            executed as f64 / seconds
        } else {
            0.0
        },
    };
    writeln!(
        sink,
        "{{\"type\": \"summary\", \"points\": {}, \"threads\": {}, \"seconds\": {:.3}, \
         \"runs_per_sec\": {:.2}}}",
        summary.points, summary.threads, summary.seconds, summary.runs_per_sec
    )
    .expect("fleet sink write failed");
    summary
}

/// Parses a prefetcher-kind name as the fleet CLI accepts it.
pub fn parse_kind(name: &str) -> Option<PrefetcherKind> {
    let (base, throttled) = match name.strip_suffix("-throttled") {
        Some(base) => (base, true),
        None => (name, false),
    };
    let kind = match base {
        "none" => PrefetcherKind::None,
        "sms-1k-16a" => PrefetcherKind::sms_1k_16a(),
        "sms-1k-11a" => PrefetcherKind::sms_1k_11a(),
        "sms-16-11a" => PrefetcherKind::sms_16_11a(),
        "sms-8-11a" => PrefetcherKind::sms_8_11a(),
        "sms-infinite" => PrefetcherKind::sms_infinite(),
        "sms-pv8" => PrefetcherKind::sms_pv8(),
        "sms-pv16" => PrefetcherKind::sms_pv16(),
        "markov-1k" => PrefetcherKind::markov_1k(),
        "markov-pv8" => PrefetcherKind::markov_pv8(),
        "composite-dedicated4" => PrefetcherKind::composite_dedicated(4),
        "composite-shared8" => PrefetcherKind::composite_shared(8),
        "composite-shared8-dyn" => PrefetcherKind::composite_shared_dynamic(8),
        "composite-shared8-scarce" => PrefetcherKind::composite_shared_scarce(8),
        _ => return None,
    };
    if throttled {
        if matches!(kind, PrefetcherKind::None) {
            return None;
        }
        Some(kind.throttled(ThrottleConfig::feedback_default()))
    } else {
        Some(kind)
    }
}

/// The kind names [`parse_kind`] accepts (base forms; every one but `none`
/// also accepts a `-throttled` suffix).
pub fn kind_names() -> &'static [&'static str] {
    &[
        "none",
        "sms-1k-16a",
        "sms-1k-11a",
        "sms-16-11a",
        "sms-8-11a",
        "sms-infinite",
        "sms-pv8",
        "sms-pv16",
        "markov-1k",
        "markov-pv8",
        "composite-dedicated4",
        "composite-shared8",
        "composite-shared8-dyn",
        "composite-shared8-scarce",
    ]
}

/// Parses a workload name (case-insensitive) as the fleet CLI accepts it.
pub fn parse_workload(name: &str) -> Option<WorkloadId> {
    WorkloadId::all().into_iter().find(|w| w.name().eq_ignore_ascii_case(name))
}

/// The default scenario points the `--scenarios` flag adds: the throttle
/// re-convergence flip plus the characterisation set, scaled to the sweep's
/// scale so each phase spans several accuracy epochs.
pub fn default_scenarios(scale: Scale) -> Vec<FleetWorkload> {
    let mut scenarios = vec![crate::scenarios::throttle_flip(scale)];
    scenarios.extend(crate::scenarios::characterisation_scenarios(scale));
    scenarios.into_iter().map(FleetWorkload::Scenario).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_expands_to_64_points() {
        let points = FleetGrid::default_grid().points();
        assert_eq!(points.len(), 64);
        // Every key is unique — the join column must never alias.
        let keys: std::collections::HashSet<String> = points.iter().map(|p| p.key()).collect();
        assert_eq!(keys.len(), 64);
    }

    #[test]
    fn throttle_axis_adds_points_for_throttleable_kinds_only() {
        let mut grid = FleetGrid::default_grid();
        grid.throttle = true;
        // None is not throttleable; the other three kinds double up.
        assert_eq!(grid.points().len(), (4 + 3) * 4 * 4);
        assert!(grid.points().iter().any(|p| p.kind.is_throttled()));
    }

    #[test]
    fn kind_names_round_trip_through_the_parser() {
        for name in kind_names() {
            assert!(parse_kind(name).is_some(), "{name} must parse");
        }
        assert_eq!(parse_kind("sms-pv8").unwrap().label(), "SMS-PV8");
        assert!(parse_kind("sms-pv8-throttled").unwrap().is_throttled());
        assert!(parse_kind("none-throttled").is_none());
        assert!(parse_kind("warp-drive").is_none());
        let dynamic = parse_kind("composite-shared8-dyn").unwrap();
        assert_eq!(dynamic.label(), "SMS+Markov-shPV8-dyn");
        assert!(dynamic.is_repartitioned());
        assert_eq!(
            parse_kind("composite-shared8-scarce").unwrap().label(),
            "SMS+Markov-shPV8-scarce"
        );
        let both = parse_kind("composite-shared8-dyn-throttled").unwrap();
        assert!(both.is_throttled() && both.is_repartitioned());
    }

    /// Satellite determinism pin: the sorted row set of a sweep that
    /// includes the dynamic repartitioning kind is byte-identical across
    /// thread counts — replanning happens at deterministic window edges,
    /// never on wall-clock state.
    #[test]
    fn dynamic_kind_rows_are_identical_across_thread_counts() {
        let points = vec![
            FleetPoint {
                kind: parse_kind("composite-shared8-dyn").unwrap(),
                workload: FleetWorkload::Homogeneous(WorkloadId::Qry1),
                cycles_per_transfer: 0,
            },
            FleetPoint {
                kind: parse_kind("composite-shared8-scarce").unwrap(),
                workload: FleetWorkload::Homogeneous(WorkloadId::Qry1),
                cycles_per_transfer: 0,
            },
            FleetPoint {
                kind: parse_kind("composite-shared8-dyn").unwrap(),
                workload: FleetWorkload::Homogeneous(WorkloadId::Apache),
                cycles_per_transfer: 64,
            },
            FleetPoint {
                kind: PrefetcherKind::None,
                workload: FleetWorkload::Homogeneous(WorkloadId::Apache),
                cycles_per_transfer: 64,
            },
        ];
        let sorted_rows = |threads: usize| {
            let mut out = Vec::new();
            run_fleet(points.clone(), Scale::Smoke, threads, &mut out);
            let text = String::from_utf8(out).unwrap();
            let mut rows: Vec<String> = text
                .lines()
                .filter(|l| l.starts_with("{\"type\": \"run\""))
                .map(str::to_owned)
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(sorted_rows(1), sorted_rows(4));
    }

    #[test]
    fn workload_names_parse_case_insensitively() {
        assert_eq!(parse_workload("apache"), Some(WorkloadId::Apache));
        assert_eq!(parse_workload("Qry17"), Some(WorkloadId::Qry17));
        assert_eq!(parse_workload("fortran"), None);
    }

    #[test]
    fn cpt_zero_is_ideal_and_nonzero_is_queued() {
        let ideal = FleetPoint {
            kind: PrefetcherKind::None,
            workload: FleetWorkload::Homogeneous(WorkloadId::Qry1),
            cycles_per_transfer: 0,
        };
        let queued = FleetPoint {
            cycles_per_transfer: 64,
            ..ideal.clone()
        };
        assert_eq!(
            ideal.config(Scale::Smoke).hierarchy.contention,
            ContentionModel::Ideal
        );
        let queued_config = queued.config(Scale::Smoke);
        assert_eq!(queued_config.hierarchy.contention, ContentionModel::Queued);
        assert_eq!(queued_config.hierarchy.dram.cycles_per_transfer, 64);
        assert_eq!(queued.key(), "NoPrefetch|Qry1|cpt64");
    }

    #[test]
    fn fleet_streams_one_row_per_point_plus_a_summary() {
        let points = vec![
            FleetPoint {
                kind: PrefetcherKind::None,
                workload: FleetWorkload::Homogeneous(WorkloadId::Qry1),
                cycles_per_transfer: 0,
            },
            FleetPoint {
                kind: PrefetcherKind::sms_8_11a(),
                workload: FleetWorkload::Homogeneous(WorkloadId::Qry1),
                cycles_per_transfer: 0,
            },
        ];
        let mut out = Vec::new();
        let summary = run_fleet(points, Scale::Smoke, 2, &mut out);
        assert_eq!(summary.points, 2);
        let text = String::from_utf8(out).unwrap();
        let runs: Vec<&str> =
            text.lines().filter(|l| l.starts_with("{\"type\": \"run\"")).collect();
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|l| l.contains("\"digest\": \"cycles=")));
        assert!(
            text.lines().last().unwrap().starts_with("{\"type\": \"summary\""),
            "summary must be the footer"
        );
    }

    #[test]
    fn mixes_and_scenarios_have_distinct_labels() {
        let mix = FleetWorkload::Mix([
            WorkloadId::Apache,
            WorkloadId::Db2,
            WorkloadId::Qry1,
            WorkloadId::Qry17,
        ]);
        assert_eq!(mix.label(), "mix:Apache+DB2+Qry1+Qry17");
        for scenario in default_scenarios(Scale::Smoke) {
            assert!(!scenario.label().is_empty());
        }
    }
}
