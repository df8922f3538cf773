//! Reproduces Fig. 7: power consumption of the single-core (SC) and
//! multi-core (MC) systems, and the respective reduction, while the
//! proportion of abnormal (pathological) heartbeats in the RP-CLASS
//! input sweeps from 0% to 100%.
//!
//! Usage: `cargo run --release -p wbsn-bench --bin fig7`
//!
//! Environment:
//! * `WBSN_DURATION_S` — observation window (default 60 s).
//! * `WBSN_NO_VFS=1` — ablation: run the multi-core platform at the
//!   baseline's clock and voltage, isolating the broadcast contribution.

use wbsn_bench::{run_sweep, BenchmarkId, ExperimentConfig, RunVariant, SweepCell, SweepOptions};
use wbsn_kernels::ClassifierParams;

const FRACTIONS: [f64; 7] = [0.0, 0.10, 0.20, 0.25, 0.33, 0.50, 1.00];

fn config_for(fraction: f64, duration_s: f64) -> ExperimentConfig {
    ExperimentConfig {
        duration_s,
        pathological_fraction: fraction,
        ..ExperimentConfig::default()
    }
}

fn main() {
    let duration_s = std::env::var("WBSN_DURATION_S")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60.0);
    let no_vfs = std::env::var("WBSN_NO_VFS").is_ok();
    let params = ClassifierParams::default_trained();
    let options = SweepOptions::default();
    eprintln!(
        "# Fig. 7 reproduction — RP-CLASS, {} s simulated{}",
        duration_s,
        if no_vfs {
            ", VFS DISABLED (ablation)"
        } else {
            ""
        }
    );

    // Phase 1: the SC baseline at every fraction. The no-VFS ablation
    // pins each MC cell to its baseline's clock, so the MC grid can only
    // be formed once these results exist.
    let sc_cells: Vec<SweepCell> = FRACTIONS
        .into_iter()
        .map(|fraction| {
            SweepCell::new(
                BenchmarkId::RpClass,
                RunVariant::SingleCore,
                config_for(fraction, duration_s),
            )
        })
        .collect();
    let mut report = run_sweep(sc_cells, &params, &options);

    // Phase 2: the MC point for every fraction, clock-pinned when VFS is
    // disabled.
    let mc_cells: Vec<SweepCell> = FRACTIONS
        .into_iter()
        .zip(report.expect_all())
        .map(|(fraction, sc)| {
            let config = config_for(fraction, duration_s);
            if no_vfs {
                SweepCell::pinned(
                    BenchmarkId::RpClass,
                    RunVariant::MultiCoreSync,
                    config,
                    sc.clock_hz,
                )
            } else {
                SweepCell::new(BenchmarkId::RpClass, RunVariant::MultiCoreSync, config)
            }
        })
        .collect();
    let mc_report = run_sweep(mc_cells, &params, &options);

    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "abnormal (%)", "SC f(MHz)", "MC f(MHz)", "SC (uW)", "MC (uW)", "reduction (%)"
    );
    let sc_points = report.expect_all();
    let mc_points = mc_report.expect_all();
    for ((fraction, sc), mc) in FRACTIONS.into_iter().zip(sc_points).zip(mc_points) {
        let reduction = 100.0 * (1.0 - mc.power_uw() / sc.power_uw());
        println!(
            "{:>12.0} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>12.1}",
            fraction * 100.0,
            sc.clock_hz / 1e6,
            mc.clock_hz / 1e6,
            sc.power_uw(),
            mc.power_uw(),
            reduction
        );
    }

    report.merge(mc_report);
    report
        .write_requested_json()
        .expect("writing the sweep record");
}
