//! The repository benchmark: host cost of simulating the paper's
//! configurations, end to end and per simulator layer.
//!
//! ```text
//! cargo run --release --manifest-path pvbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times `System::from_streams(..).run()` with tracing off and
//! reports the end-to-end metrics, its rate in seconds of the host-speed
//! reference in [`reference`]. `--trace 1` interleaves the same untraced
//! runs with traced runs of the replica in [`replica`] and reports the
//! per-layer metrics. Every run's `RunMetrics::digest()` is checked against
//! `pins.txt` and against every other run of the same seed. The last line of
//! standard output is one JSON object with the result.

mod alloc_count;
mod reference;
mod replica;
mod workload;

use alloc_count::{allocations, CountingAlloc};
use pv_mem::ContentionModel;
use pv_sim::{PrefetcherKind, RunMetrics, SimConfig, System};
use reference::PAGES_PER_REF_S;
use replica::{calibrate, Attribution, Layer, Replica};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Digests of the untraced run, per workload and seed: `<workload> <seed>
/// <digest>` lines, regenerated with `--pin <first-seed> <last-seed>`.
const PINS: &str = include_str!("../pins.txt");

/// Every run repeats at least this often, however short `--seconds` is, so
/// a median exists.
const MIN_REPS: usize = 3;

/// Whether another repetition should start: one is due while fewer than
/// `MIN_REPS` have run (unless one failed), and otherwise only if it ends
/// within `budget` when it takes as long as the `last` one did.
fn another(start: Instant, last: Duration, budget: Duration, reps: usize, tally: &Tally) -> bool {
    (reps < MIN_REPS && tally.failed == 0) || start.elapsed() + last <= budget
}

/// The median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The pinned digest of `workload` at `seed`, if `pins.txt` has one.
fn pinned(workload: Workload, seed: u64) -> Option<&'static str> {
    PINS.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let mut fields = line.splitn(3, ' ');
            Some((
                fields.next()?,
                fields.next()?.parse::<u64>().ok()?,
                fields.next()?,
            ))
        })
        .find(|&(name, pin_seed, _)| name == workload.name() && pin_seed == seed)
        .map(|(_, _, digest)| digest)
}

/// The outcome of the runs of one invocation, with every failure counted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED {what}");
        }
    }
}

/// One untraced `System::from_streams(..).run()`.
struct Untraced {
    setup_s: f64,
    run_s: f64,
    /// The host-speed reference around `run()`, in pages per second, if it
    /// was measured.
    reference_pages_per_s: Option<f64>,
    setup_allocs: u64,
    records: u64,
    metrics: RunMetrics,
}

/// Builds and runs the untraced `System`, timing the host-speed reference
/// right before and right after `run()` if `with_reference` is set; `None`
/// if it panicked.
fn run_untraced(workload: Workload, seed: u64, with_reference: bool) -> Option<Untraced> {
    let config = workload.config(seed);
    let inputs = workload.inputs(seed);
    catch_unwind(AssertUnwindSafe(|| {
        let allocs_before = allocations();
        let start = Instant::now();
        let streams = inputs.into_streams().expect("recorded traces are valid");
        let mut system = System::from_streams(config, streams);
        let setup = start.elapsed();
        let setup_allocs = allocations() - allocs_before;
        let before = with_reference.then(reference::pages_per_s);
        let start = Instant::now();
        let metrics = system.run();
        let run = start.elapsed();
        let after = with_reference.then(reference::pages_per_s);
        Untraced {
            setup_s: setup.as_secs_f64(),
            run_s: run.as_secs_f64(),
            reference_pages_per_s: before.zip(after).map(|(b, a)| (b * a).sqrt()),
            setup_allocs,
            records: system.records_consumed().sum(),
            metrics,
        }
    }))
    .ok()
}

/// Checks an untraced run's digest against the pin and the first run.
fn check_digest(
    tally: &mut Tally,
    workload: Workload,
    seed: u64,
    first: &mut Option<String>,
    run: Option<&Untraced>,
) {
    let Some(run) = run else {
        tally.record(false, "untraced run panicked");
        return;
    };
    let digest = run.metrics.digest();
    let pin = pinned(workload, seed);
    if first.is_none() {
        println!(
            "digest {} seed={seed} pinned={} aggregate_ipc={} {digest}",
            workload.name(),
            if pin.is_some() { "yes" } else { "no" },
            run.metrics.aggregate_ipc(),
        );
    }
    let expected = pin.map(str::to_owned).or_else(|| first.clone());
    let ok = expected.as_deref().is_none_or(|expected| expected == digest);
    tally.record(ok, &format!("digest {digest} != expected {expected:?}"));
    first.get_or_insert(digest);
}

/// Peak resident memory of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics of one invocation, in output order: `(name, value, unit)`.
type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(workload: Workload, seed: u64, budget: Duration, tally: &mut Tally) -> Metrics {
    let start = Instant::now();
    let mut first = None;
    // One untimed warm-up repetition without the reference kernel, whose
    // transient 40 MiB would otherwise set the peak resident memory.
    let warmup = run_untraced(workload, seed, false);
    check_digest(tally, workload, seed, &mut first, warmup.as_ref());
    let peak_rss_mb = peak_rss_mb();
    let (mut rates, mut normalised, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = Duration::ZERO;
    while another(start, last, budget, rates.len(), tally) {
        let rep_start = Instant::now();
        let run = run_untraced(workload, seed, true);
        check_digest(tally, workload, seed, &mut first, run.as_ref());
        if let Some(run) = run {
            let pages_per_s = run.reference_pages_per_s.expect("the reference was timed");
            let rate = run.records as f64 / run.run_s;
            let per_ref_s = rate * PAGES_PER_REF_S / pages_per_s;
            rates.push(rate);
            normalised.push(per_ref_s);
            setups.push(run.setup_s);
            println!(
                "rep {} setup_s={} records_per_s={rate} reference_pages_per_s={pages_per_s} \
                 records_per_ref_s={per_ref_s}",
                rates.len(),
                run.setup_s,
            );
        }
        last = rep_start.elapsed();
    }
    println!("repetitions {}", rates.len());
    println!("raw records_per_s {} records/s", median(&mut rates));
    vec![
        (
            "records_per_ref_s".to_owned(),
            median(&mut normalised),
            "records/ref-s",
        ),
        ("setup_s".to_owned(), median(&mut setups), "s"),
        ("peak_rss_mb".to_owned(), peak_rss_mb, "MB"),
    ]
}

/// Presets the replica-fidelity check covers: every `PrefetcherKind`
/// constructor the simulator offers.
fn presets() -> Vec<PrefetcherKind> {
    vec![
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
        PrefetcherKind::composite_shared_dynamic(8),
        PrefetcherKind::composite_shared_scarce(8),
        PrefetcherKind::sms_pv8_throttled(),
        PrefetcherKind::markov_pv8_throttled(),
    ]
}

/// Runs `System` and the replica on the same small mixed traces for every
/// preset under both contention models; returns the cases whose metrics
/// differ (or that panicked).
fn fidelity_failures(seed: u64) -> Vec<String> {
    const WARMUP: u64 = 2_000;
    const MEASURE: u64 = 4_000;
    let Inputs::Replay(traces) = Inputs::record(&workload::mix(), seed, WARMUP + MEASURE) else {
        unreachable!("recording yields replay inputs")
    };
    let mut failures = Vec::new();
    for kind in presets() {
        for contention in [ContentionModel::Ideal, ContentionModel::Queued] {
            let mut config = workload::sim_config(kind.clone(), contention, seed);
            config.warmup_records = WARMUP;
            config.measure_records = MEASURE;
            let streams = || Inputs::Replay(traces.clone()).into_streams().expect("valid traces");
            let same = catch_unwind(AssertUnwindSafe(|| {
                let untraced = System::from_streams(config.clone(), streams()).run();
                let (traced, _) = Replica::new(config.clone(), streams()).run();
                untraced == traced
            }));
            if !matches!(same, Ok(true)) {
                failures.push(format!("{} {contention:?}", kind.label()));
            }
        }
    }
    failures
}

/// The per-layer metrics of the attributed traced runs.
fn layer_metrics(totals: &Attribution) -> Metrics {
    let records = totals.records as f64;
    let mut out: Metrics = Vec::new();
    for layer in Layer::ALL {
        let i = layer as usize;
        let (name, ns, calls) = (layer.name(), totals.layer_ns[i], totals.calls[i] as f64);
        let allocs = totals.allocs[i] as f64;
        if layer == Layer::Stream {
            out.push((format!("{name}.ns_per_record"), ns / records, "ns/record"));
            out.push((
                format!("{name}.allocs_per_record"),
                allocs / records,
                "allocs/record",
            ));
        } else {
            out.push((format!("{name}.ns_per_call"), ratio(ns, calls), "ns/call"));
            out.push((
                format!("{name}.calls_per_record"),
                calls / records,
                "calls/record",
            ));
            out.push((
                format!("{name}.allocs_per_call"),
                ratio(allocs, calls),
                "allocs/call",
            ));
        }
        if layer == Layer::Prefetch {
            let issued = totals.prefetches_issued as f64;
            out.push((
                format!("{name}.issued_ratio"),
                ratio(issued, calls),
                "ratio",
            ));
        }
        out.push((format!("{name}.share"), ns / totals.wall_ns, "ratio"));
    }
    out.push((
        "sim.loop.ns_per_record".to_owned(),
        totals.loop_ns / records,
        "ns/record",
    ));
    out.push((
        "sim.loop.share".to_owned(),
        totals.loop_ns / totals.wall_ns,
        "ratio",
    ));
    out
}

/// Simulated counts of the measurement window, per 1000 records where they
/// are counts. Host-independent: a performance-only change keeps them.
fn simulated(metrics: &RunMetrics, config: &SimConfig) -> Metrics {
    let records = (config.measure_records * config.cores as u64) as f64;
    let pk = |count: u64| count as f64 * 1000.0 / records;
    let h = &metrics.hierarchy;
    let pv = metrics.pv.unwrap_or_default();
    let (per_k, cycles_per_k) = ("count/krecord", "cycles/krecord");
    [
        ("l2.app_requests_pk", pk(h.l2_requests.application), per_k),
        ("l2.pv_requests_pk", pk(h.l2_requests.predictor), per_k),
        ("l2.app_misses_pk", pk(h.l2_misses.application), per_k),
        ("l2.pv_misses_pk", pk(h.l2_misses.predictor), per_k),
        ("dram.reads_pk", pk(h.dram_reads), per_k),
        ("dram.writes_pk", pk(h.dram_writes), per_k),
        ("dram.utilization", metrics.dram_utilization(), "ratio"),
        (
            "dram.queue_delay_app",
            metrics.dram_queue_delay_application(),
            "cycles/read",
        ),
        (
            "dram.queue_delay_pv",
            metrics.dram_queue_delay_predictor(),
            "cycles/read",
        ),
        (
            "mshr.stall_cycles_pk",
            pk(h.mshr_stall_delay.total_cycles()),
            cycles_per_k,
        ),
        (
            "l2.port_delay_cycles_pk",
            pk(h.l2_port_delay.total_cycles()),
            cycles_per_k,
        ),
        ("pv.lookups_pk", pk(pv.lookups), per_k),
        ("pv.pvcache_hit_ratio", pv.pvcache_hit_ratio(), "ratio"),
        ("pv.memory_requests_pk", pk(pv.memory_requests), per_k),
        ("pv.unbacked_lookups_pk", pk(pv.unbacked_lookups), per_k),
        ("prefetch.issued_pk", pk(metrics.prefetches_issued), per_k),
        ("prefetch.coverage", metrics.coverage.coverage(), "ratio"),
    ]
    .map(|(name, value, unit)| (name.to_owned(), value, unit))
    .into()
}

/// One traced replica run, checked against the untraced run's metrics.
struct Traced {
    attribution: Attribution,
    timer_ns: f64,
    records_per_s: f64,
    metrics: RunMetrics,
}

/// Runs the traced replica of `workload`; `Err` if it panicked, its metrics
/// differ from `untraced`, or its attribution is void.
fn run_traced(workload: Workload, seed: u64, untraced: &RunMetrics) -> Result<Traced, String> {
    let clock = calibrate();
    let streams = workload.inputs(seed).into_streams().expect("recorded traces are valid");
    let replica = Replica::new(workload.config(seed), streams);
    let start = Instant::now();
    let (metrics, probe) = catch_unwind(AssertUnwindSafe(|| replica.run()))
        .map_err(|_| "traced run panicked".to_owned())?;
    let wall_s = start.elapsed().as_secs_f64();
    if metrics != *untraced {
        return Err(format!("replica digest {} differs", metrics.digest()));
    }
    let attribution = Attribution::of(&probe, wall_s * 1e9, clock)
        .map_err(|why| format!("traced run void: {why}"))?;
    Ok(Traced {
        attribution,
        timer_ns: clock.timer_ns,
        records_per_s: probe.records as f64 / wall_s,
        metrics,
    })
}

fn traced(workload: Workload, seed: u64, budget: Duration, tally: &mut Tally) -> Metrics {
    let start = Instant::now();
    let failures = fidelity_failures(seed);
    for case in &failures {
        tally.record(false, &format!("replica fidelity: {case}"));
    }
    let cases = 2 * presets().len() as u64;
    tally.attempted += cases - failures.len() as u64;
    println!("replica fidelity: {cases} cases, {} failed", failures.len());

    let config = workload.config(seed);
    let mut first = None;
    let mut totals = Attribution::default();
    let (mut untraced_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut setup_ns, mut setup_allocs, mut timer_ns) = (Vec::new(), 0, Vec::new());
    let mut simulated_counts = Vec::new();
    let mut last = Duration::ZERO;
    while another(start, last, budget, traced_rates.len(), tally) {
        let pair_start = Instant::now();
        let run = run_untraced(workload, seed, false);
        check_digest(tally, workload, seed, &mut first, run.as_ref());
        let Some(run) = run else { continue };
        untraced_rates.push(run.records as f64 / run.run_s);
        setup_ns.push(run.setup_s * 1e9 / config.cores as f64);
        setup_allocs = run.setup_allocs;
        match run_traced(workload, seed, &run.metrics) {
            Ok(traced) => {
                tally.record(true, "");
                totals.add(&traced.attribution);
                timer_ns.push(traced.timer_ns);
                traced_rates.push(traced.records_per_s);
                simulated_counts = simulated(&traced.metrics, &config);
            }
            Err(why) => tally.record(false, &why),
        }
        last = pair_start.elapsed();
    }
    println!(
        "repetitions {} untraced + {} traced",
        untraced_rates.len(),
        traced_rates.len()
    );
    let untraced_rate = median(&mut untraced_rates);
    println!("untraced records_per_s {untraced_rate} records/s");
    let mut out = layer_metrics(&totals);
    out.push(("setup.allocs".to_owned(), setup_allocs as f64, "count"));
    out.push((
        "setup.ns_per_core".to_owned(),
        median(&mut setup_ns),
        "ns/core",
    ));
    out.extend(simulated_counts);
    out.push(("trace.timer_ns".to_owned(), median(&mut timer_ns), "ns"));
    out.push((
        "trace.overhead_ratio".to_owned(),
        ratio(untraced_rate, median(&mut traced_rates)),
        "ratio",
    ));
    out
}

/// Prints `pins.txt` lines for `seeds` (the untraced digests).
fn print_pins(seeds: std::ops::RangeInclusive<u64>) {
    for workload in Workload::ALL {
        for seed in seeds.clone() {
            let run = run_untraced(workload, seed, false).expect("untraced run completes");
            println!("{} {seed} {}", workload.name(), run.metrics.digest());
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: pv-benchmark --workload <apache-2xpv4|qry1-smspv8-queued|\
mix-shpv8dyn-replay> --seed <n> --seconds <s> --trace <0|1>\n       pv-benchmark --pin <first-seed> <last-seed>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number '{value}'"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("nproc={nproc} cpu=\"{cpu}\"")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--pin") {
        let seeds: Vec<u64> = argv[1..].iter().filter_map(|s| s.parse().ok()).collect();
        let [first, last] = seeds[..] else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        print_pins(first..=last);
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Panics are caught and counted as failed runs; their messages still go
    // to standard error.
    println!("host {}", host_fingerprint());
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        traced(args.workload, args.seed, budget, &mut tally)
    } else {
        end_to_end(args.workload, args.seed, budget, &mut tally)
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    println!("runs attempted={} failed={}", tally.attempted, tally.failed);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seed that is neither pinned nor used while the benchmark was tuned.
    const HELD_OUT_SEED: u64 = 977;

    /// A change to `System`'s run loop that the replica does not follow
    /// fails here instead of misattributing host time.
    #[test]
    fn replica_reproduces_system_for_every_preset() {
        assert_eq!(fidelity_failures(HELD_OUT_SEED), Vec::<String>::new());
    }

    /// Each workload keeps the layer profile it was chosen for on a seed
    /// held out from tuning.
    #[test]
    fn held_out_seed_keeps_each_workload_layer_profile() {
        for workload in Workload::ALL {
            let untraced =
                run_untraced(workload, HELD_OUT_SEED, false).expect("untraced run completes");
            let traced = run_traced(workload, HELD_OUT_SEED, &untraced.metrics)
                .unwrap_or_else(|why| panic!("{}: {why}", workload.name()));
            let a = &traced.attribution;
            let ns = |layer: Layer| a.layer_ns[layer as usize];
            let per_call =
                |layer: Layer| a.allocs[layer as usize] as f64 / a.calls[layer as usize] as f64;
            match workload {
                Workload::Apache2xPv4 => {
                    let largest = Layer::ALL.into_iter().max_by(|x, y| ns(*x).total_cmp(&ns(*y)));
                    assert_eq!(
                        largest,
                        Some(Layer::EngineAccess),
                        "apache-2xpv4 is engine-bound"
                    );
                }
                Workload::Qry1SmsPv8Queued => {
                    let hierarchy = ns(Layer::Demand) + ns(Layer::Fetch) + ns(Layer::Prefetch);
                    assert!(
                        hierarchy > 2.0 * ns(Layer::EngineAccess),
                        "qry1-smspv8-queued is hierarchy-bound"
                    );
                }
                Workload::MixShPv8DynReplay => {
                    assert_eq!(
                        a.allocs[Layer::Stream as usize],
                        0,
                        "replay decodes in place"
                    );
                    assert!(
                        per_call(Layer::EngineAccess) < 0.01,
                        "the shared proxy barely allocates"
                    );
                }
            }
        }
    }
}
