//! The benchmark's workloads: three paper configurations that load
//! different layers of the simulator, each built from `--seed`.

use pv_mem::ContentionModel;
use pv_sim::{PrefetcherKind, SimConfig};
use pv_trace::{record_generator, ReplayStream, TraceError};
use pv_workloads::{workloads, AccessStream, TraceGenerator, WorkloadParams};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SMS+Markov-2xPV4 on live-generated Apache, Ideal contention: both
    /// virtualized tables sit behind their own single-table PV proxy.
    Apache2xPv4,
    /// The paper's SMS-PV8 on live-generated Qry1 under Queued contention:
    /// the banked-L2/MSHR/DRAM-queue path does most of the work.
    Qry1SmsPv8Queued,
    /// SMS+Markov-shPV8-dyn on replayed Apache/DB2/Qry1/Qry17 traces under
    /// Queued contention: the shared proxy with live repartitioning, fed by
    /// the trace decoder instead of the generator.
    MixShPv8DynReplay,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Apache2xPv4,
        Workload::Qry1SmsPv8Queued,
        Workload::MixShPv8DynReplay,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Apache2xPv4 => "apache-2xpv4",
            Workload::Qry1SmsPv8Queued => "qry1-smspv8-queued",
            Workload::MixShPv8DynReplay => "mix-shpv8dyn-replay",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated system: four cores, `SimConfig::quick` windows.
    pub fn config(self, seed: u64) -> SimConfig {
        let (kind, contention) = match self {
            Workload::Apache2xPv4 => (
                PrefetcherKind::composite_dedicated(4),
                ContentionModel::Ideal,
            ),
            Workload::Qry1SmsPv8Queued => (PrefetcherKind::sms_pv8(), ContentionModel::Queued),
            Workload::MixShPv8DynReplay => (
                PrefetcherKind::composite_shared_dynamic(8),
                ContentionModel::Queued,
            ),
        };
        sim_config(kind, contention, seed)
    }

    /// Generates the workload's inputs from `seed`. Replayed workloads
    /// record their traces here, so trace generation stays outside every
    /// timed region; live workloads only carry their parameters.
    pub fn inputs(self, seed: u64) -> Inputs {
        let config = self.config(seed);
        match self {
            Workload::Apache2xPv4 => Inputs::Live {
                per_core: vec![workloads::apache(); 4],
                seed,
            },
            Workload::Qry1SmsPv8Queued => Inputs::Live {
                per_core: vec![workloads::qry1(); 4],
                seed,
            },
            Workload::MixShPv8DynReplay => {
                let per_core = config.warmup_records + config.measure_records;
                Inputs::record(&mix(), seed, per_core)
            }
        }
    }
}

/// The four-program mix the replayed workload runs, core `i` running
/// entry `i`.
pub fn mix() -> Vec<WorkloadParams> {
    vec![
        workloads::apache(),
        workloads::db2(),
        workloads::qry1(),
        workloads::qry17(),
    ]
}

/// The four-core `SimConfig::quick` system running `kind` under
/// `contention`, with the PV region grown to fit cohabiting tables.
pub fn sim_config(kind: PrefetcherKind, contention: ContentionModel, seed: u64) -> SimConfig {
    let mut config = SimConfig::quick(kind);
    config.seed = seed;
    let needed = config.prefetcher.pv_bytes_per_core();
    if needed > config.hierarchy.pv_regions.bytes_per_core {
        config.hierarchy = config.hierarchy.with_pv_bytes_per_core(needed);
    }
    config.hierarchy = config.hierarchy.with_contention(contention);
    config
}

/// One simulation's record sources, before they are turned into streams.
pub enum Inputs {
    /// Live generators, one per core, seeded with `seed`.
    Live {
        /// Core `i` runs `per_core[i]`.
        per_core: Vec<WorkloadParams>,
        /// Generator seed.
        seed: u64,
    },
    /// Recorded traces, one per core. Moved into the replay streams, so the
    /// benchmark never holds a second copy of the bytes.
    Replay(Vec<Vec<u8>>),
}

impl Inputs {
    /// Records `records` records per core of `per_core[i]` on core `i`.
    pub fn record(per_core: &[WorkloadParams], seed: u64, records: u64) -> Inputs {
        Inputs::Replay(
            per_core
                .iter()
                .zip(0u32..)
                .map(|(params, core)| {
                    record_generator(params, seed, core, records)
                        .expect("generated records fit the default trace layout")
                })
                .collect(),
        )
    }

    /// The per-core streams a `System` (or the traced replica) consumes.
    /// This is set-up work: building generators, or validating trace headers.
    pub fn into_streams(self) -> Result<Vec<Box<dyn AccessStream>>, TraceError> {
        match self {
            Inputs::Live { per_core, seed } => Ok(per_core
                .iter()
                .enumerate()
                .map(|(core, params)| {
                    Box::new(TraceGenerator::new(params, seed, core)) as Box<dyn AccessStream>
                })
                .collect()),
            Inputs::Replay(traces) => traces
                .into_iter()
                .map(|bytes| Ok(Box::new(ReplayStream::new(bytes)?) as Box<dyn AccessStream>))
                .collect(),
        }
    }
}
