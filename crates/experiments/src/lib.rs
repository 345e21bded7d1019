//! # pv-experiments — reproduction harness
//!
//! One module per table/figure of the paper's evaluation (Section 4), plus a
//! shared [`Runner`] that executes and caches simulation runs, and report
//! helpers that render each experiment as a markdown table with the paper's
//! reference values alongside the measured ones.
//!
//! The `reproduce` binary drives everything:
//!
//! ```text
//! cargo run --release -p pv-experiments --bin reproduce -- all --scale quick
//! cargo run --release -p pv-experiments --bin reproduce -- fig9 --scale paper
//! ```
//!
//! Every experiment is also exposed as a library function so the integration
//! tests can call it directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod backends;
pub mod bandwidth;
pub mod cohabit;
pub mod fig10;
pub mod fig11;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod mixes;
pub mod repartition;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod sec46;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod throttle;

pub use fleet::{run_fleet, FleetGrid, FleetPoint, FleetSummary, FleetWorkload};
pub use report::Table;
pub use runner::{HierarchyVariant, MixSpec, RunSpec, Runner, Scale, ScenarioSpec};

/// Identifier of one reproducible experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Experiment {
    /// Table 1: system configuration.
    Table1,
    /// Table 2: workloads.
    Table2,
    /// Table 3: PHT storage per configuration.
    Table3,
    /// Figure 4: SMS performance potential vs PHT size.
    Fig4,
    /// Figure 5: coverage across all intermediate PHT sizes.
    Fig5,
    /// Figure 6: increase in L2 requests due to virtualization.
    Fig6,
    /// Figure 7: off-chip bandwidth increase (L2 misses + write-backs).
    Fig7,
    /// Figure 8: off-chip increase split into application vs PV data.
    Fig8,
    /// Figure 9: speedup of dedicated and virtualized prefetchers.
    Fig9,
    /// Figure 10: sensitivity to L2 cache size.
    Fig10,
    /// Figure 11: sensitivity to L2 latency.
    Fig11,
    /// Section 4.6: PVProxy storage breakdown.
    Sec46,
    /// Ablation studies beyond the paper's figures.
    Ablation,
    /// Backend generality: SMS and Markov on the same substrate.
    Backends,
    /// Bandwidth sensitivity under queued DRAM contention.
    Bandwidth,
    /// Heterogeneous multi-programmed workload mixes.
    Mixes,
    /// Predictor cohabitation: SMS + Markov sharing one PV region and one
    /// PVCache (dedicated vs shared provisioning).
    Cohabit,
    /// Feedback-directed throttling: fixed vs adaptive issue degree under
    /// queued DRAM contention.
    Throttle,
    /// Non-stationary scenarios: phase flips, flash crowds, diurnal load,
    /// and an antagonist core (trace-composed workloads).
    Scenarios,
    /// Dynamic PV-region repartitioning: static vs utility-driven sub-region
    /// boundaries on a scarce region, across non-stationary scenarios.
    Repartition,
}

impl Experiment {
    /// Every experiment, in presentation order.
    pub fn all() -> Vec<Experiment> {
        use Experiment::*;
        vec![
            Table1,
            Table2,
            Table3,
            Fig4,
            Fig5,
            Fig6,
            Fig7,
            Fig8,
            Fig9,
            Fig10,
            Fig11,
            Sec46,
            Ablation,
            Backends,
            Bandwidth,
            Mixes,
            Cohabit,
            Throttle,
            Scenarios,
            Repartition,
        ]
    }

    /// Command-line name (e.g. `"fig4"`).
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Table3 => "table3",
            Experiment::Fig4 => "fig4",
            Experiment::Fig5 => "fig5",
            Experiment::Fig6 => "fig6",
            Experiment::Fig7 => "fig7",
            Experiment::Fig8 => "fig8",
            Experiment::Fig9 => "fig9",
            Experiment::Fig10 => "fig10",
            Experiment::Fig11 => "fig11",
            Experiment::Sec46 => "sec46",
            Experiment::Ablation => "ablation",
            Experiment::Backends => "backends",
            Experiment::Bandwidth => "bandwidth",
            Experiment::Mixes => "mixes",
            Experiment::Cohabit => "cohabit",
            Experiment::Throttle => "throttle",
            Experiment::Scenarios => "scenarios",
            Experiment::Repartition => "repartition",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Experiment> {
        Experiment::all().into_iter().find(|e| e.name() == name)
    }

    /// Runs the experiment and renders its report.
    pub fn run(self, runner: &Runner) -> String {
        match self {
            Experiment::Table1 => table1::report(),
            Experiment::Table2 => table2::report(),
            Experiment::Table3 => table3::report(),
            Experiment::Fig4 => fig4::report(runner),
            Experiment::Fig5 => fig5::report(runner),
            Experiment::Fig6 => fig6::report(runner),
            Experiment::Fig7 => fig7::report(runner),
            Experiment::Fig8 => fig8::report(runner),
            Experiment::Fig9 => fig9::report(runner),
            Experiment::Fig10 => fig10::report(runner),
            Experiment::Fig11 => fig11::report(runner),
            Experiment::Sec46 => sec46::report(),
            Experiment::Ablation => ablation::report(runner),
            Experiment::Backends => backends::report(runner),
            Experiment::Bandwidth => bandwidth::report(runner),
            Experiment::Mixes => mixes::report(runner),
            Experiment::Cohabit => cohabit::report(runner),
            Experiment::Throttle => throttle::report(runner),
            Experiment::Scenarios => scenarios::report(runner),
            Experiment::Repartition => repartition::report(runner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_round_trip() {
        for experiment in Experiment::all() {
            assert_eq!(Experiment::from_name(experiment.name()), Some(experiment));
        }
        assert_eq!(Experiment::from_name("fig99"), None);
    }

    #[test]
    fn static_reports_render_without_simulation() {
        assert!(table1::report().contains("L2"));
        assert!(table2::report().contains("Oracle"));
        assert!(table3::report().contains("1K-16a"));
        assert!(sec46::report().contains("889"));
    }
}
