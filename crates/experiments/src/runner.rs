//! Shared simulation runner with caching and parallel execution.

use pv_mem::{ContentionModel, HierarchyConfig};
use pv_sim::{run_streams, run_workload, run_workload_mix, PrefetcherKind, RunMetrics, SimConfig};
use pv_trace::Scenario;
use pv_workloads::WorkloadId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering from poisoning: every lock in this crate is
/// held for one map or deque operation and never across a simulation run,
/// so a holder that panicked cannot have left the data half-updated.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long each simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short warm-up/measure windows: minutes for the whole reproduction.
    Quick,
    /// The full windows used for the numbers recorded in `EXPERIMENTS.md`
    /// (see that file at the repository root for how each scale is used).
    Paper,
    /// Very short windows for unit/integration tests and CI runs.
    Smoke,
}

impl Scale {
    /// Reads the scale from the `PV_REPRO_SCALE` environment variable
    /// (`quick`, `paper` or `smoke`), defaulting to `Quick`.
    pub fn from_env() -> Self {
        match std::env::var("PV_REPRO_SCALE").as_deref() {
            Ok("paper") => Scale::Paper,
            Ok("smoke") => Scale::Smoke,
            _ => Scale::Quick,
        }
    }

    /// Parses a command-line value.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    /// The simulation configuration this scale runs (baseline hierarchy).
    pub fn config(self, prefetcher: PrefetcherKind) -> SimConfig {
        match self {
            Scale::Quick => SimConfig::quick(prefetcher),
            Scale::Paper => SimConfig::paper(prefetcher),
            Scale::Smoke => {
                let mut config = SimConfig::quick(prefetcher);
                config.warmup_records = 20_000;
                config.measure_records = 30_000;
                config
            }
        }
    }
}

/// The memory-hierarchy variant a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierarchyVariant {
    /// The paper's Table 1 baseline (8 MB L2, 6/12-cycle latency).
    Base,
    /// A different total L2 capacity in bytes (Figure 10).
    L2Size(u64),
    /// The slower 8/16-cycle L2 of Figure 11.
    SlowL2,
    /// The baseline under `ContentionModel::Queued` with the given DRAM
    /// data-bus transfer cost in cycles per 64-byte block (the bandwidth
    /// sweep knob; larger is slower).
    QueuedDram {
        /// Cycles one block occupies a channel's data bus.
        cycles_per_transfer: u64,
    },
    /// A queued-DRAM bandwidth point with a shortened prefetch-accuracy
    /// epoch (outcomes per window). The non-stationary scenario studies
    /// use this so the throttle feedback loop completes several epochs per
    /// workload phase and its re-convergence is observable within a run.
    QueuedDramEpoch {
        /// Cycles one block occupies a channel's data bus.
        cycles_per_transfer: u64,
        /// Prefetch outcomes per accuracy epoch (default hierarchy: 256).
        accuracy_epoch: u64,
    },
    /// The baseline with `bytes_per_core` bytes of PV region reserved per
    /// core — room for several cohabiting tables — under the given
    /// contention model (paper-default DRAM bandwidth).
    PvRegion {
        /// Reserved PV bytes per core (e.g. 128 KB for SMS + Markov).
        bytes_per_core: u64,
        /// How shared resources are timed.
        contention: ContentionModel,
    },
}

impl HierarchyVariant {
    /// Builds the hierarchy configuration for `cores` cores.
    pub fn build(self, cores: usize) -> HierarchyConfig {
        let base = HierarchyConfig::paper_baseline(cores);
        match self {
            HierarchyVariant::Base => base,
            HierarchyVariant::L2Size(bytes) => base.with_l2_size(bytes),
            HierarchyVariant::SlowL2 => base.with_slow_l2(),
            HierarchyVariant::QueuedDram {
                cycles_per_transfer,
            } => base
                .with_contention(ContentionModel::Queued)
                .with_dram_cycles_per_transfer(cycles_per_transfer),
            HierarchyVariant::QueuedDramEpoch {
                cycles_per_transfer,
                accuracy_epoch,
            } => base
                .with_contention(ContentionModel::Queued)
                .with_dram_cycles_per_transfer(cycles_per_transfer)
                .with_accuracy_epoch(accuracy_epoch),
            HierarchyVariant::PvRegion {
                bytes_per_core,
                contention,
            } => base.with_pv_bytes_per_core(bytes_per_core).with_contention(contention),
        }
    }

    /// Human-readable label for reports.
    pub fn label(self) -> String {
        match self {
            HierarchyVariant::Base => "base".to_owned(),
            HierarchyVariant::L2Size(bytes) => format!("l2-{}MB", bytes / (1024 * 1024)),
            HierarchyVariant::SlowL2 => "l2-slow".to_owned(),
            HierarchyVariant::QueuedDram {
                cycles_per_transfer,
            } => {
                format!("queued-cpt{cycles_per_transfer}")
            }
            HierarchyVariant::QueuedDramEpoch {
                cycles_per_transfer,
                accuracy_epoch,
            } => {
                format!("queued-cpt{cycles_per_transfer}-ep{accuracy_epoch}")
            }
            HierarchyVariant::PvRegion {
                bytes_per_core,
                contention,
            } => {
                let timing = match contention {
                    ContentionModel::Ideal => "ideal",
                    ContentionModel::Queued => "queued",
                };
                format!("pv{}KB-{timing}", bytes_per_core / 1024)
            }
        }
    }
}

/// Which workload(s) the cores run: the same workload on every core (the
/// paper's methodology) or a heterogeneous four-way mix (core `i` runs the
/// `i`-th entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WorkloadSel {
    Homogeneous(WorkloadId),
    PerCore([WorkloadId; 4]),
    /// Every core runs its slice of a non-stationary scenario composition
    /// (see `pv_trace::Scenario`); scenarios are small `Copy` values over
    /// workload identifiers and integer knobs, so they hash structurally
    /// like everything else in the key.
    Scenario(Scenario),
}

/// Cache key of one simulation: the full configuration, hashed structurally.
///
/// Deriving `Hash`/`Eq` over the actual configuration replaces the old
/// `format!`-built string keys — no allocation per lookup, and no risk of two
/// distinct configurations aliasing because their labels collide.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RunKey {
    workload: WorkloadSel,
    prefetcher: PrefetcherKind,
    hierarchy: HierarchyVariant,
}

/// One simulation to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Which workload all four cores run.
    pub workload: WorkloadId,
    /// Which prefetcher each core uses.
    pub prefetcher: PrefetcherKind,
    /// Which memory hierarchy variant is simulated.
    pub hierarchy: HierarchyVariant,
}

impl RunSpec {
    /// A run on the baseline hierarchy.
    pub fn base(workload: WorkloadId, prefetcher: PrefetcherKind) -> Self {
        RunSpec {
            workload,
            prefetcher,
            hierarchy: HierarchyVariant::Base,
        }
    }

    fn key(&self) -> RunKey {
        RunKey {
            workload: WorkloadSel::Homogeneous(self.workload),
            prefetcher: self.prefetcher.clone(),
            hierarchy: self.hierarchy,
        }
    }
}

/// One non-stationary scenario simulation to run: every core consumes its
/// per-core stream of `scenario` (phase flips, flash crowds, diurnal
/// modulation, or an antagonist on the last core).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The scenario composition all cores run.
    pub scenario: Scenario,
    /// Which prefetcher each core uses.
    pub prefetcher: PrefetcherKind,
    /// Which memory hierarchy variant is simulated.
    pub hierarchy: HierarchyVariant,
}

impl ScenarioSpec {
    /// A scenario run on the baseline hierarchy.
    pub fn base(scenario: Scenario, prefetcher: PrefetcherKind) -> Self {
        ScenarioSpec {
            scenario,
            prefetcher,
            hierarchy: HierarchyVariant::Base,
        }
    }

    fn key(&self) -> RunKey {
        RunKey {
            workload: WorkloadSel::Scenario(self.scenario),
            prefetcher: self.prefetcher.clone(),
            hierarchy: self.hierarchy,
        }
    }
}

/// One heterogeneous multi-programmed simulation to run: core `i` runs
/// `workloads[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct MixSpec {
    /// Per-core workloads.
    pub workloads: [WorkloadId; 4],
    /// Which prefetcher each core uses.
    pub prefetcher: PrefetcherKind,
    /// Which memory hierarchy variant is simulated.
    pub hierarchy: HierarchyVariant,
}

impl MixSpec {
    /// A mixed run on the baseline hierarchy.
    pub fn base(workloads: [WorkloadId; 4], prefetcher: PrefetcherKind) -> Self {
        MixSpec {
            workloads,
            prefetcher,
            hierarchy: HierarchyVariant::Base,
        }
    }

    /// Display label of the mix (e.g. `"Apache+DB2+Qry1+Qry17"`).
    pub fn label(&self) -> String {
        self.workloads.iter().map(|w| w.name()).collect::<Vec<_>>().join("+")
    }

    fn key(&self) -> RunKey {
        RunKey {
            workload: WorkloadSel::PerCore(self.workloads),
            prefetcher: self.prefetcher.clone(),
            hierarchy: self.hierarchy,
        }
    }
}

/// Runs simulations, caching results so experiments that share
/// configurations (most of them) never repeat work, and fanning independent
/// runs out over worker threads.
pub struct Runner {
    scale: Scale,
    threads: usize,
    cache: Mutex<HashMap<RunKey, Arc<RunMetrics>>>,
    runs_executed: AtomicUsize,
}

impl Runner {
    /// Creates a runner at the given scale using up to `threads` worker
    /// threads for batched runs.
    pub fn new(scale: Scale, threads: usize) -> Self {
        Runner {
            scale,
            threads: threads.max(1),
            cache: Mutex::new(HashMap::new()),
            runs_executed: AtomicUsize::new(0),
        }
    }

    /// A runner using all available parallelism.
    pub fn with_default_threads(scale: Scale) -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Self::new(scale, threads)
    }

    /// The scale this runner executes at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Number of simulations actually executed (cache misses).
    pub fn runs_executed(&self) -> usize {
        self.runs_executed.load(Ordering::Relaxed)
    }

    fn execute(&self, key: &RunKey) -> Arc<RunMetrics> {
        let config =
            self.scale.config(key.prefetcher.clone()).with_hierarchy(key.hierarchy.build(4));
        let metrics = match key.workload {
            WorkloadSel::Homogeneous(workload) => run_workload(&config, &workload.params()),
            WorkloadSel::PerCore(workloads) => {
                let params: Vec<_> = workloads.iter().map(|w| w.params()).collect();
                run_workload_mix(&config, &params)
            }
            WorkloadSel::Scenario(scenario) => {
                let streams = scenario.build_streams(config.cores, config.seed);
                run_streams(&config, streams)
            }
        };
        self.runs_executed.fetch_add(1, Ordering::Relaxed);
        Arc::new(metrics)
    }

    fn metrics_for_key(&self, key: RunKey) -> Arc<RunMetrics> {
        if let Some(found) = lock(&self.cache).get(&key) {
            return Arc::clone(found);
        }
        let metrics = self.execute(&key);
        lock(&self.cache).insert(key, Arc::clone(&metrics));
        metrics
    }

    /// Returns the metrics for `spec`, running the simulation if it has not
    /// been run yet.
    pub fn metrics(&self, spec: &RunSpec) -> Arc<RunMetrics> {
        self.metrics_for_key(spec.key())
    }

    /// Returns the metrics for a heterogeneous mix, running the simulation
    /// if it has not been run yet (mixes share the same cache as
    /// homogeneous runs).
    pub fn metrics_mixed(&self, spec: &MixSpec) -> Arc<RunMetrics> {
        self.metrics_for_key(spec.key())
    }

    /// Returns the metrics for a scenario run, running the simulation if
    /// it has not been run yet (scenarios share the cache with everything
    /// else).
    pub fn metrics_scenario(&self, spec: &ScenarioSpec) -> Arc<RunMetrics> {
        self.metrics_for_key(spec.key())
    }

    fn prefetch_keys(&self, keys: Vec<RunKey>) {
        let pending: Vec<RunKey> = {
            let cache = lock(&self.cache);
            let mut seen = std::collections::HashSet::new();
            keys.into_iter()
                .filter(|key| !cache.contains_key(key) && seen.insert(key.clone()))
                .collect()
        };
        if pending.is_empty() {
            return;
        }
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(pending.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(key) = pending.get(index) else {
                        break;
                    };
                    // Re-check under the lock in case another worker beat us
                    // to it.
                    if lock(&self.cache).contains_key(key) {
                        continue;
                    }
                    let metrics = self.execute(key);
                    lock(&self.cache).insert(key.clone(), metrics);
                });
            }
        });
    }

    /// Runs every spec in `specs` that is not cached yet, in parallel.
    pub fn prefetch(&self, specs: &[RunSpec]) {
        self.prefetch_keys(specs.iter().map(RunSpec::key).collect());
    }

    /// Runs every mixed spec in `specs` that is not cached yet, in parallel.
    pub fn prefetch_mixed(&self, specs: &[MixSpec]) {
        self.prefetch_keys(specs.iter().map(MixSpec::key).collect());
    }

    /// Runs every scenario spec in `specs` that is not cached yet, in
    /// parallel.
    pub fn prefetch_scenarios(&self, specs: &[ScenarioSpec]) {
        self.prefetch_keys(specs.iter().map(ScenarioSpec::key).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::from_name("quick"), Some(Scale::Quick));
        assert_eq!(Scale::from_name("paper"), Some(Scale::Paper));
        assert_eq!(Scale::from_name("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::from_name("huge"), None);
    }

    #[test]
    fn hierarchy_variant_builds_expected_configs() {
        assert_eq!(
            HierarchyVariant::Base.build(4).l2.size_bytes,
            8 * 1024 * 1024
        );
        assert_eq!(
            HierarchyVariant::L2Size(2 * 1024 * 1024).build(4).l2.size_bytes,
            2 * 1024 * 1024
        );
        assert_eq!(HierarchyVariant::SlowL2.build(4).l2.tag_latency, 8);
        assert_eq!(HierarchyVariant::L2Size(4 * 1024 * 1024).label(), "l2-4MB");
    }

    #[test]
    fn run_specs_have_unique_keys_per_configuration() {
        let a = RunSpec::base(WorkloadId::Apache, PrefetcherKind::sms_pv8());
        let b = RunSpec::base(WorkloadId::Apache, PrefetcherKind::sms_1k_11a());
        let c = RunSpec {
            hierarchy: HierarchyVariant::SlowL2,
            ..a.clone()
        };
        let d = RunSpec {
            hierarchy: HierarchyVariant::QueuedDram {
                cycles_per_transfer: 64,
            },
            ..a.clone()
        };
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_ne!(a.key(), d.key());
        assert_ne!(c.key(), d.key());
    }

    #[test]
    fn mixed_keys_do_not_alias_homogeneous_keys() {
        let homogeneous = RunSpec::base(WorkloadId::Apache, PrefetcherKind::None);
        let mix = MixSpec::base([WorkloadId::Apache; 4], PrefetcherKind::None);
        // Even a mix of four identical workloads keys separately from the
        // homogeneous run (same simulated behaviour, different spec space).
        assert_ne!(homogeneous.key(), mix.key());
        assert_eq!(mix.label(), "Apache+Apache+Apache+Apache");
    }

    #[test]
    fn queued_variant_builds_contended_hierarchy() {
        use pv_mem::ContentionModel;
        let variant = HierarchyVariant::QueuedDram {
            cycles_per_transfer: 64,
        };
        let config = variant.build(4);
        assert_eq!(config.contention, ContentionModel::Queued);
        assert_eq!(config.dram.cycles_per_transfer, 64);
        assert_eq!(variant.label(), "queued-cpt64");
        assert_eq!(
            HierarchyVariant::Base.build(4).contention,
            ContentionModel::Ideal
        );
    }

    #[test]
    fn mixed_metrics_are_cached() {
        let runner = Runner::new(Scale::Smoke, 2);
        let spec = MixSpec::base(
            [
                WorkloadId::Qry1,
                WorkloadId::Qry1,
                WorkloadId::Qry17,
                WorkloadId::Qry17,
            ],
            PrefetcherKind::None,
        );
        let first = runner.metrics_mixed(&spec);
        let second = runner.metrics_mixed(&spec);
        assert_eq!(runner.runs_executed(), 1);
        assert_eq!(first.elapsed_cycles, second.elapsed_cycles);
        assert_eq!(first.workload, "Qry1+Qry1+Qry17+Qry17");
    }

    #[test]
    fn metrics_are_cached() {
        let runner = Runner::new(Scale::Smoke, 2);
        let spec = RunSpec::base(WorkloadId::Qry1, PrefetcherKind::None);
        let first = runner.metrics(&spec);
        let second = runner.metrics(&spec);
        assert_eq!(runner.runs_executed(), 1);
        assert_eq!(first.elapsed_cycles, second.elapsed_cycles);
    }

    #[test]
    fn prefetch_runs_each_spec_once() {
        let runner = Runner::new(Scale::Smoke, 4);
        let specs = vec![
            RunSpec::base(WorkloadId::Qry1, PrefetcherKind::None),
            RunSpec::base(WorkloadId::Qry1, PrefetcherKind::sms_8_11a()),
            RunSpec::base(WorkloadId::Qry1, PrefetcherKind::None),
        ];
        runner.prefetch(&specs);
        assert_eq!(runner.runs_executed(), 2);
        runner.prefetch(&specs);
        assert_eq!(runner.runs_executed(), 2);
    }
}
