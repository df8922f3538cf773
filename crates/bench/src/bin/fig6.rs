//! Reproduces Fig. 6: power-consumption decomposition of the single-core
//! (SC) and multi-core (MC) systems with and without the proposed
//! synchronization approach.
//!
//! Usage: `cargo run --release -p wbsn-bench --bin fig6`
//!
//! Environment:
//! * `WBSN_DURATION_S` — observation window (default 60 s).
//! * `WBSN_NO_BROADCAST=1` — ablation: disable crossbar broadcasting.

use wbsn_bench::experiment::duration_from_env;
use wbsn_bench::{run_sweep, BenchmarkId, ExperimentConfig, RunVariant, SweepCell, SweepOptions};
use wbsn_kernels::ClassifierParams;

fn main() {
    let config = ExperimentConfig {
        duration_s: duration_from_env(60.0),
        disable_broadcast: std::env::var("WBSN_NO_BROADCAST").is_ok(),
        ..ExperimentConfig::default()
    };
    let params = ClassifierParams::default_trained();
    eprintln!(
        "# Fig. 6 reproduction — power decomposition (uW), {} s simulated{}",
        config.duration_s,
        if config.disable_broadcast {
            ", broadcasting DISABLED (ablation)"
        } else {
            ""
        }
    );

    let variants = [
        RunVariant::SingleCore,
        RunVariant::MultiCoreBusyWait,
        RunVariant::MultiCoreSync,
    ];
    // One sweep grid: benchmark-major, variant-minor — the print order.
    let cells: Vec<SweepCell> = BenchmarkId::ALL
        .into_iter()
        .flat_map(|benchmark| {
            variants.map(|variant| SweepCell::new(benchmark, variant, config.clone()))
        })
        .collect();
    let report = run_sweep(cells, &params, &SweepOptions::default());
    let mut measurements = report.expect_all().into_iter();
    println!(
        "{:<10} {:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "config", "cores", "prog mem", "data mem", "intercon", "clock", "total"
    );
    for benchmark in BenchmarkId::ALL {
        for variant in variants {
            let m = measurements.next().expect("one measurement per cell");
            let b = &m.breakdown;
            println!(
                "{:<10} {:<14} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                benchmark.name(),
                variant.label(),
                b.cores_and_logic_uw,
                b.prog_mem_uw,
                b.data_mem_uw,
                b.interconnect_uw,
                b.clock_tree_uw,
                b.total_uw()
            );
        }
        println!();
    }

    report
        .write_requested_json()
        .expect("writing the sweep record");
}
