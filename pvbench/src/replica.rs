//! The traced run: a replica of `System`'s event-heap run loop, built only
//! from the simulator's public API, that times each call into a layer from
//! outside.
//!
//! The replica makes exactly the calls `System::run` makes, in the same
//! order, so it reproduces the untraced run's `RunMetrics` bit for bit; the
//! benchmark checks that before it publishes a single per-layer number. If
//! `System`'s loop changes and the replica does not follow, the fidelity
//! check fails instead of time being attributed to the wrong layer.

use crate::alloc_count::allocations;
use pv_core::PvRegionPlan;
use pv_markov::{DedicatedMarkov, MarkovPrefetcher, VirtualizedMarkov};
use pv_mem::{DataClass, EvictionBuffer, MemoryHierarchy, Requester};
use pv_sim::{
    CompositePrefetcher, CoreModel, CoverageMetrics, EngineSnapshot, PrefetchEngine,
    PrefetcherKind, RunMetrics, SimConfig, ThrottledEngine,
};
use pv_sms::{build_storage, PrefetchAction, SmsPrefetcher, VirtualizedPht};
use pv_workloads::{AccessStream, MemOp, TraceRecord};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// A layer of the simulator, named after the call the replica makes into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `AccessStream::next_record` (pv-workloads generator or pv-trace replay).
    Stream,
    /// `MemoryHierarchy::access_data` (demand loads and stores).
    Demand,
    /// `MemoryHierarchy::access` on the instruction side.
    Fetch,
    /// `MemoryHierarchy::prefetch_into_l1d`.
    Prefetch,
    /// `PrefetchEngine::on_data_access`, including the PV proxy and the
    /// PV-class hierarchy requests it makes.
    EngineAccess,
    /// `PrefetchEngine::on_l1_evictions`.
    EngineEvict,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] = [
        Layer::Stream,
        Layer::Demand,
        Layer::Fetch,
        Layer::Prefetch,
        Layer::EngineAccess,
        Layer::EngineEvict,
    ];

    /// The metric-name prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Stream => "stream",
            Layer::Demand => "hierarchy.demand",
            Layer::Fetch => "hierarchy.fetch",
            Layer::Prefetch => "hierarchy.prefetch",
            Layer::EngineAccess => "engine.access",
            Layer::EngineEvict => "engine.evict",
        }
    }
}

/// What one layer's calls added up to over a traced run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Span {
    /// Calls made.
    calls: u64,
    /// Heap allocations made inside the calls (exact, every call).
    allocs: u64,
    /// Calls that were timed (those of sampled records).
    timed_calls: u64,
    /// Raw host nanoseconds of the timed calls, timer cost included.
    timed_ns: u64,
}

/// Times one record in `SAMPLE_PERIOD`: a clock read costs tens of
/// nanoseconds, several times per record if every call were timed, while
/// one record in 16 keeps the traced run within about 15% of the untraced.
const SAMPLE_PERIOD: u64 = 16;

/// Collects spans and counts at every layer boundary of a traced run.
///
/// A sampled record opens an interval that runs until the next record
/// starts (or the phase ends), so consecutive intervals tile the run and
/// include the scheduler work between records. Layer shares are taken
/// within the sampled intervals, which keeps the unattributed residual free
/// of the noise of scaling each layer's sample separately.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Per-layer totals, indexed like [`Layer::ALL`].
    spans: [Span; 6],
    /// Records the streams produced.
    pub records: u64,
    /// Prefetches the hierarchy accepted (`hierarchy.prefetch` calls are
    /// the attempts).
    prefetches_issued: u64,
    /// Sampled intervals closed.
    intervals: u64,
    /// Raw host nanoseconds of the sampled intervals.
    interval_ns: u64,
    /// Clock reads that opened or closed intervals.
    boundary_reads: u64,
    /// xorshift state picking the sampled records.
    sampler: u64,
    /// Whether the current record's calls are timed.
    timing: bool,
    /// Start of the open interval.
    opened: Option<Instant>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            spans: [Span::default(); 6],
            records: 0,
            prefetches_issued: 0,
            intervals: 0,
            interval_ns: 0,
            boundary_reads: 0,
            sampler: 0x9E37_79B9_7F4A_7C15,
            timing: false,
            opened: None,
        }
    }
}

impl Probe {
    /// Closes the open interval and decides whether the next record is
    /// timed. A pseudo-random choice cannot alias with periodic structure
    /// in the record streams.
    fn begin_record(&mut self) {
        let mut x = self.sampler;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sampler = x;
        let sample = x.is_multiple_of(SAMPLE_PERIOD);
        if self.timing || sample {
            let now = self.boundary();
            if sample {
                self.opened = Some(now);
            }
        }
        self.timing = sample;
    }

    /// Closes the open interval at the end of a scheduling phase.
    fn end_phase(&mut self) {
        if self.timing {
            self.boundary();
        }
        self.timing = false;
    }

    fn boundary(&mut self) -> Instant {
        let now = Instant::now();
        self.boundary_reads += 1;
        if let Some(opened) = self.opened.take() {
            self.intervals += 1;
            self.interval_ns += now.duration_since(opened).as_nanos() as u64;
        }
        now
    }

    /// Runs `call` as one call into `layer`: counts it and its allocations,
    /// and times it when the current record is sampled.
    #[inline]
    fn span<R>(&mut self, layer: Layer, call: impl FnOnce() -> R) -> R {
        let allocs_before = allocations();
        let result = if self.timing {
            let start = Instant::now();
            let result = call();
            let ns = start.elapsed().as_nanos() as u64;
            let span = &mut self.spans[layer as usize];
            span.timed_calls += 1;
            span.timed_ns += ns;
            result
        } else {
            call()
        };
        let span = &mut self.spans[layer as usize];
        span.calls += 1;
        span.allocs += allocations() - allocs_before;
        result
    }

    /// Clock pairs read, one per timed call.
    fn timed_pairs(&self) -> u64 {
        self.spans.iter().map(|s| s.timed_calls).sum()
    }
}

/// Host time per layer over one or more traced runs, with the clock's own
/// cost removed.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Host ns spent in each layer, indexed like [`Layer::ALL`].
    pub layer_ns: [f64; 6],
    /// Host ns no span covers: the scheduler, `CoreModel` and the replica's
    /// own bookkeeping (`sim.loop`).
    pub loop_ns: f64,
    /// Traced wall time minus the cost of every clock read.
    pub wall_ns: f64,
    /// Calls into each layer.
    pub calls: [u64; 6],
    /// Heap allocations inside each layer's calls.
    pub allocs: [u64; 6],
    /// Records simulated.
    pub records: u64,
    /// Prefetches the hierarchy accepted.
    pub prefetches_issued: u64,
}

impl Attribution {
    /// Attributes one traced run of `wall_ns` host nanoseconds. `Err` voids
    /// the run: a layer's calibrated span total or the residual came out
    /// negative, so the clock correction cannot be trusted.
    pub fn of(probe: &Probe, wall_ns: f64, clock: Calibration) -> Result<Attribution, String> {
        let mut span_ns = [0.0; 6];
        for layer in Layer::ALL {
            let span = probe.spans[layer as usize];
            let calibrated = span.timed_ns as f64 - span.timed_calls as f64 * clock.timer_ns;
            if calibrated < 0.0 {
                return Err(format!("{} calibrated span is negative", layer.name()));
            }
            span_ns[layer as usize] = calibrated;
        }
        let pairs = probe.timed_pairs() as f64;
        let sampled = probe.interval_ns as f64
            - probe.intervals as f64 * clock.timer_ns
            - pairs * clock.pair_ns;
        let residual = sampled - span_ns.iter().sum::<f64>();
        if probe.intervals == 0 || residual < 0.0 {
            return Err(format!("sim.loop residual {residual} ns is negative"));
        }
        let wall = wall_ns - (pairs + probe.boundary_reads as f64 / 2.0) * clock.pair_ns;
        let scale = wall / sampled;
        Ok(Attribution {
            layer_ns: span_ns.map(|ns| ns * scale),
            loop_ns: residual * scale,
            wall_ns: wall,
            calls: probe.spans.map(|s| s.calls),
            allocs: probe.spans.map(|s| s.allocs),
            records: probe.records,
            prefetches_issued: probe.prefetches_issued,
        })
    }

    /// Folds another run in.
    pub fn add(&mut self, other: &Attribution) {
        for i in 0..Layer::ALL.len() {
            self.layer_ns[i] += other.layer_ns[i];
            self.calls[i] += other.calls[i];
            self.allocs[i] += other.allocs[i];
        }
        self.loop_ns += other.loop_ns;
        self.wall_ns += other.wall_ns;
        self.records += other.records;
        self.prefetches_issued += other.prefetches_issued;
    }
}

/// The measured cost of the clock, used to remove it from spans and wall time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Nanoseconds an empty span reads: the clock cost inside every span.
    pub timer_ns: f64,
    /// Host nanoseconds one timed call spends on its clock pair in total.
    pub pair_ns: f64,
}

/// Measures the clock: the median over batches of back-to-back reads.
pub fn calibrate() -> Calibration {
    const BATCHES: usize = 31;
    const PAIRS: u32 = 4_000;
    let mut inside = Vec::with_capacity(BATCHES);
    let mut total = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let batch = Instant::now();
        let mut ns = 0u64;
        for _ in 0..PAIRS {
            let start = Instant::now();
            ns += black_box(start.elapsed().as_nanos() as u64);
        }
        total.push(batch.elapsed().as_nanos() as f64 / f64::from(PAIRS));
        inside.push(ns as f64 / f64::from(PAIRS));
    }
    Calibration {
        timer_ns: crate::median(&mut inside),
        pair_ns: crate::median(&mut total),
    }
}

/// Builds the engine `System` builds for `kind` on `core`.
pub fn build_engine(
    kind: &PrefetcherKind,
    config: &SimConfig,
    core: usize,
) -> Option<Box<dyn PrefetchEngine>> {
    let pv_base = || config.hierarchy.pv_regions.core_base(core);
    let cohabit_plan = |pv: &pv_core::PvConfig| {
        PvRegionPlan::new(
            config.hierarchy.pv_regions,
            vec![pv.table_bytes(), pv.table_bytes()],
        )
    };
    match kind {
        PrefetcherKind::None => None,
        PrefetcherKind::Sms(sms) => Some(Box::new(SmsPrefetcher::new(*sms, build_storage(sms)))),
        PrefetcherKind::VirtualizedSms { sms, pv } => Some(Box::new(SmsPrefetcher::new(
            *sms,
            Box::new(VirtualizedPht::new(core, *pv, pv_base())),
        ))),
        PrefetcherKind::Markov(markov) => Some(Box::new(MarkovPrefetcher::new(
            *markov,
            Box::new(DedicatedMarkov::new(*markov)),
        ))),
        PrefetcherKind::VirtualizedMarkov { markov, pv } => Some(Box::new(MarkovPrefetcher::new(
            *markov,
            Box::new(VirtualizedMarkov::new(core, *pv, pv_base())),
        ))),
        PrefetcherKind::CompositeDedicated { sms, markov, pv } => Some(Box::new(
            CompositePrefetcher::dedicated(core, *sms, *markov, *pv, &cohabit_plan(pv)),
        )),
        PrefetcherKind::CompositeShared { sms, markov, pv } => Some(Box::new(
            CompositePrefetcher::shared(core, *sms, *markov, *pv, &cohabit_plan(pv)),
        )),
        PrefetcherKind::Throttled { inner, throttle } => {
            let engine = build_engine(inner, config, core)
                .expect("validation rejects throttled no-prefetch configurations");
            Some(Box::new(ThrottledEngine::new(core, engine, *throttle)))
        }
        PrefetcherKind::Repartitioned { inner, repartition } => {
            let PrefetcherKind::CompositeShared { sms, markov, pv } = &**inner else {
                unreachable!("validation rejects repartitioning non-shared-composite kinds")
            };
            // The scarce starting plan: the reserved region split evenly,
            // block-aligned, each half capped at the table's footprint.
            let half = config.hierarchy.pv_regions.bytes_per_core / 2;
            let per_table = ((half / pv.block_bytes) * pv.block_bytes).min(pv.table_bytes());
            let plan = PvRegionPlan::new(config.hierarchy.pv_regions, vec![per_table, per_table]);
            Some(Box::new(CompositePrefetcher::shared_repartitioned(
                core,
                *sms,
                *markov,
                *pv,
                plan,
                *repartition,
            )))
        }
    }
}

struct Core {
    stream: Box<dyn AccessStream>,
    model: CoreModel,
    engine: Option<Box<dyn PrefetchEngine>>,
    covered: u64,
    prefetches_issued: u64,
    records_consumed: u64,
    exhausted: bool,
}

/// The traced replica of `System`.
pub struct Replica {
    config: SimConfig,
    workload_name: String,
    hierarchy: MemoryHierarchy,
    cores: Vec<Core>,
    actions: Vec<PrefetchAction>,
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    targets: Vec<u64>,
    probe: Probe,
}

impl Replica {
    /// Builds the replica of `System::from_streams(config, streams)`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation or `streams` does not hold one
    /// stream per core.
    pub fn new(config: SimConfig, streams: Vec<Box<dyn AccessStream>>) -> Replica {
        config.assert_valid();
        assert_eq!(
            streams.len(),
            config.cores,
            "need exactly one stream per core"
        );
        let labels: Vec<&str> = streams.iter().map(|s| s.label()).collect();
        let workload_name = if labels.windows(2).all(|pair| pair[0] == pair[1]) {
            labels[0].to_owned()
        } else {
            labels.join("+")
        };
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(core, stream)| Core {
                stream,
                model: CoreModel::new(config.core, config.hierarchy.l1d.data_latency),
                engine: build_engine(&config.prefetcher, &config, core),
                covered: 0,
                prefetches_issued: 0,
                records_consumed: 0,
                exhausted: false,
            })
            .collect();
        Replica {
            hierarchy: MemoryHierarchy::new(config.hierarchy),
            workload_name,
            config,
            cores,
            actions: Vec::new(),
            ready: BinaryHeap::new(),
            targets: Vec::new(),
            probe: Probe::default(),
        }
    }

    /// Runs warm-up and measurement as `System::run` does, returning the
    /// measurement window's metrics and the spans of the whole run.
    pub fn run(mut self) -> (RunMetrics, Probe) {
        self.run_phase(self.config.warmup_records);
        self.hierarchy.reset_stats();
        for core in &mut self.cores {
            core.model.reset();
            core.covered = 0;
            core.prefetches_issued = 0;
            if let Some(engine) = &mut core.engine {
                engine.reset_stats();
            }
        }
        self.run_phase(self.config.measure_records);
        (self.collect_metrics(), self.probe)
    }

    fn run_phase(&mut self, records_per_core: u64) {
        self.targets.clear();
        self.targets
            .extend(self.cores.iter().map(|c| c.records_consumed + records_per_core));
        self.ready.clear();
        for (idx, core) in self.cores.iter().enumerate() {
            if !core.exhausted && core.records_consumed < self.targets[idx] {
                self.ready.push(Reverse((core.model.now(), idx)));
            }
        }
        while let Some(Reverse((_, idx))) = self.ready.pop() {
            loop {
                self.step_core(idx);
                let core = &self.cores[idx];
                if core.exhausted || core.records_consumed >= self.targets[idx] {
                    break;
                }
                let key = (core.model.now(), idx);
                if let Some(&Reverse(peek)) = self.ready.peek() {
                    if key > peek {
                        self.ready.push(Reverse(key));
                        break;
                    }
                }
            }
        }
        self.probe.end_phase();
    }

    fn step_core(&mut self, idx: usize) {
        self.probe.begin_record();
        let record = self.probe.span(Layer::Stream, || self.cores[idx].stream.next_record());
        let Some(record) = record else {
            self.cores[idx].exhausted = true;
            return;
        };
        self.probe.records += 1;
        self.cores[idx].records_consumed += 1;
        match record.op {
            MemOp::InstructionFetch => self.step_fetch(idx, &record),
            MemOp::Load | MemOp::Store => self.step_data(idx, &record),
        }
    }

    fn step_fetch(&mut self, idx: usize, record: &TraceRecord) {
        let now = self.cores[idx].model.now();
        let response = self.probe.span(Layer::Fetch, || {
            self.hierarchy.access(
                Requester::instruction(idx),
                record.address,
                CoreModel::access_kind(record.op),
                DataClass::Application,
                now,
            )
        });
        self.cores[idx].model.retire_memory_contended(
            record.op,
            response.latency,
            response.queue_delay,
        );
    }

    fn step_data(&mut self, idx: usize, record: &TraceRecord) {
        self.cores[idx].model.retire_non_memory(record.non_mem_instructions);
        let now = self.cores[idx].model.now();
        let mut evictions = EvictionBuffer::default();
        let response = self.probe.span(Layer::Demand, || {
            self.hierarchy.access_data(
                idx,
                record.address,
                CoreModel::access_kind(record.op),
                now,
                &mut evictions,
            )
        });
        if record.op == MemOp::Load && response.first_use_of_prefetch {
            self.cores[idx].covered += 1;
        }
        self.cores[idx].model.retire_memory_contended(
            record.op,
            response.latency,
            response.queue_delay,
        );

        let Some(mut engine) = self.cores[idx].engine.take() else {
            return;
        };
        if !evictions.is_empty() {
            self.probe.span(Layer::EngineEvict, || {
                engine.on_l1_evictions(evictions.as_slice(), &mut self.hierarchy, None, now)
            });
        }
        self.actions.clear();
        self.probe.span(Layer::EngineAccess, || {
            engine.on_data_access(
                record.pc,
                record.address,
                &mut self.hierarchy,
                None,
                now,
                &mut self.actions,
            )
        });
        for action_idx in 0..self.actions.len() {
            let action = self.actions[action_idx];
            let issue_at = action.issue_at.max(now);
            let outcome = self.probe.span(Layer::Prefetch, || {
                self.hierarchy.prefetch_into_l1d(idx, action.block, issue_at, &mut evictions)
            });
            if outcome.issued {
                self.cores[idx].prefetches_issued += 1;
                self.probe.prefetches_issued += 1;
            }
            if !evictions.is_empty() {
                self.probe.span(Layer::EngineEvict, || {
                    engine.on_l1_evictions(
                        evictions.as_slice(),
                        &mut self.hierarchy,
                        None,
                        issue_at,
                    )
                });
            }
        }
        self.cores[idx].engine = Some(engine);
    }

    fn collect_metrics(&self) -> RunMetrics {
        let hierarchy = self.hierarchy.stats();
        let mut coverage = CoverageMetrics::default();
        let mut snapshot = EngineSnapshot::default();
        let mut prefetches_issued = 0;
        for (idx, core) in self.cores.iter().enumerate() {
            coverage.covered += core.covered;
            coverage.uncovered += hierarchy.l1d[idx].read_misses;
            coverage.overpredictions += hierarchy.l1d[idx].prefetched_evicted_unused;
            prefetches_issued += core.prefetches_issued;
            if let Some(engine) = &core.engine {
                snapshot.merge(engine.snapshot());
            }
        }
        let mut pv_total = snapshot.pv;
        for table in &snapshot.pv_tables {
            pv_total.get_or_insert_with(pv_core::PvStats::default).merge(&table.stats);
        }
        RunMetrics {
            configuration: self.config.prefetcher.label(),
            workload: self.workload_name.clone(),
            elapsed_cycles: self.cores.iter().map(|c| c.model.now()).max().unwrap_or(0),
            total_instructions: self.cores.iter().map(|c| c.model.instructions()).sum(),
            per_core_ipc: self.cores.iter().map(|c| c.model.ipc()).collect(),
            hierarchy,
            coverage,
            sms: snapshot.sms,
            markov: snapshot.markov,
            pv: pv_total,
            pv_tables: snapshot.pv_tables,
            prefetches_issued,
            throttle: snapshot.throttle,
            repartition: snapshot.repartition,
        }
    }
}
