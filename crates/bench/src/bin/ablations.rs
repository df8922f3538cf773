//! Ablation study of the design choices DESIGN.md calls out:
//!
//! * **broadcast off** — crossbars stop merging same-address reads;
//!   isolates the instruction/data broadcasting contribution.
//! * **lock-step barrier off** — the conditioning group never
//!   re-synchronizes after divergence; shows how much broadcast decays
//!   without the paper's branch-recovery mechanism.
//! * **VFS off** — the multi-core platform is pinned to the baseline's
//!   clock and voltage; isolates the voltage-frequency-scaling
//!   contribution (the decomposition of Fig. 7's discussion, §V-C).
//! * **busy wait** — the full "without the proposed approach" bar of
//!   Fig. 6, for reference.
//!
//! Usage: `cargo run --release -p wbsn-bench --bin ablations`
//! (`WBSN_DURATION_S` overrides the observation window.)

use wbsn_bench::experiment::duration_from_env;
use wbsn_bench::{
    run_sweep, BenchmarkId, ExperimentConfig, Measurement, RunVariant, SweepCell, SweepOptions,
};
use wbsn_kernels::ClassifierParams;

fn main() {
    let duration_s = duration_from_env(20.0);
    let base = ExperimentConfig {
        duration_s,
        ..ExperimentConfig::default()
    };
    let params = ClassifierParams::default_trained();
    let options = SweepOptions::default();
    eprintln!("# Ablations on 3L-MF (the broadcast-heaviest benchmark), {duration_s} s simulated");

    // Phase 1: every cell that searches its own minimum clock.
    let mc = RunVariant::MultiCoreSync;
    let cells = vec![
        SweepCell::new(BenchmarkId::Mf, RunVariant::SingleCore, base.clone()),
        SweepCell::new(BenchmarkId::Mf, mc, base.clone()),
        SweepCell::new(
            BenchmarkId::Mf,
            mc,
            ExperimentConfig {
                disable_broadcast: true,
                ..base.clone()
            },
        ),
        SweepCell::new(
            BenchmarkId::Mf,
            mc,
            ExperimentConfig {
                disable_lockstep: true,
                ..base.clone()
            },
        ),
        SweepCell::new(
            BenchmarkId::Mf,
            mc,
            ExperimentConfig {
                preloaded_barrier: true,
                ..base.clone()
            },
        ),
        SweepCell::new(BenchmarkId::Mf, RunVariant::MultiCoreBusyWait, base.clone()),
    ];
    let mut report = run_sweep(cells, &params, &options);
    let sc_clock_hz = report.expect_all()[0].clock_hz;

    // Phase 2: the VFS ablation runs at the baseline's clock, which
    // phase 1 just determined.
    let no_vfs_report = run_sweep(
        vec![SweepCell::pinned(BenchmarkId::Mf, mc, base, sc_clock_hz)],
        &params,
        &options,
    );

    println!(
        "{:<26} {:>9} {:>7} {:>11} {:>11} {:>12}",
        "configuration", "f (MHz)", "V", "IM bcast %", "power (uW)", "vs SC"
    );
    {
        let searched = report.expect_all();
        let sc = searched[0];
        let labelled = [
            ("SC baseline", searched[0]),
            ("MC full approach", searched[1]),
            ("MC - no broadcast", searched[2]),
            ("MC - no lock-step barrier", searched[3]),
            ("MC - preloaded barrier", searched[4]),
            ("MC - no VFS (SC's V/f)", no_vfs_report.expect_all()[0]),
            ("MC - busy wait", searched[5]),
        ];
        let row = |label: &str, m: &Measurement| {
            println!(
                "{:<26} {:>9.2} {:>7.1} {:>11.2} {:>11.2} {:>11.1}%",
                label,
                m.clock_hz / 1e6,
                m.voltage,
                m.im_broadcast_percent,
                m.power_uw(),
                100.0 * (1.0 - m.power_uw() / sc.power_uw())
            );
        };
        for (label, m) in labelled {
            row(label, m);
        }
    }

    report.merge(no_vfs_report);
    report
        .write_requested_json()
        .expect("writing the sweep record");
}
