//! Reproduces Table I: execution details of the three benchmarks on the
//! single-core (SC) baseline and the multi-core (MC) platform with the
//! proposed synchronization approach.
//!
//! Usage: `cargo run --release -p wbsn-bench --bin table1`
//! (set `WBSN_DURATION_S` to override the 60 s observation window).

use wbsn_bench::experiment::duration_from_env;
use wbsn_bench::{
    run_sweep, BenchmarkId, ExperimentConfig, Measurement, RunVariant, SweepCell, SweepOptions,
};
use wbsn_kernels::ClassifierParams;

fn main() {
    let config = ExperimentConfig {
        duration_s: duration_from_env(60.0),
        ..ExperimentConfig::default()
    };
    let params = ClassifierParams::default_trained();
    eprintln!(
        "# Table I reproduction — {} s simulated, fs = {} Hz, {}% pathological beats (RP-CLASS)",
        config.duration_s,
        config.fs,
        (config.pathological_fraction * 100.0).round()
    );

    // One sweep grid: (benchmark × {SC, MC}) in Table I order.
    let cells: Vec<SweepCell> = BenchmarkId::ALL
        .into_iter()
        .flat_map(|benchmark| {
            [RunVariant::SingleCore, RunVariant::MultiCoreSync]
                .map(|variant| SweepCell::new(benchmark, variant, config.clone()))
        })
        .collect();
    let report = run_sweep(cells, &params, &SweepOptions::default());
    let measurements = report.expect_all();
    let columns: Vec<(BenchmarkId, &Measurement, &Measurement)> = BenchmarkId::ALL
        .into_iter()
        .zip(measurements.chunks_exact(2))
        .map(|(benchmark, pair)| (benchmark, pair[0], pair[1]))
        .collect();

    let dash = "-".to_string();
    let header: Vec<String> = columns
        .iter()
        .flat_map(|(b, _, _)| [format!("{} SC", b.name()), "MC".to_string()])
        .collect();
    let row = |label: &str, f: &dyn Fn(&Measurement, bool) -> String| {
        let cells: Vec<String> = columns
            .iter()
            .flat_map(|(_, sc, mc)| [f(sc, false), f(mc, true)])
            .collect();
        println!(
            "{label:<22} {}",
            cells.iter().map(|c| format!("{c:>12}")).collect::<String>()
        );
    };

    println!(
        "{:<22} {}",
        "",
        header
            .iter()
            .map(|c| format!("{c:>12}"))
            .collect::<String>()
    );
    row("Active Cores", &|m, _| m.active_cores.to_string());
    row("Active IM banks", &|m, _| m.active_im_banks.to_string());
    row("Active DM banks", &|m, _| m.active_dm_banks.to_string());
    row("IM Broadcast (%)", &|m, is_mc| {
        if is_mc {
            format!("{:.2}", m.im_broadcast_percent)
        } else {
            dash.clone()
        }
    });
    row("DM Broadcast (%)", &|m, is_mc| {
        if is_mc {
            format!("{:.2}", m.dm_broadcast_percent)
        } else {
            dash.clone()
        }
    });
    row("Min. Clock (MHz)", &|m, _| {
        format!("{:.1}", m.clock_hz / 1e6)
    });
    row("Min. Voltage (V)", &|m, _| format!("{:.1}", m.voltage));
    row("Code Overhead (%)", &|m, is_mc| {
        if is_mc {
            format!("{:.2}", m.code_overhead_percent)
        } else {
            dash.clone()
        }
    });
    row("Run-time Overhead (%)", &|m, is_mc| {
        if is_mc {
            format!("{:.2}", m.runtime_overhead_percent)
        } else {
            dash.clone()
        }
    });
    row("Avg. Power (uW)", &|m, _| format!("{:.1}", m.power_uw()));

    print!("{:<22} ", "Saving");
    for (_, sc, mc) in &columns {
        let saving = 100.0 * (1.0 - mc.power_uw() / sc.power_uw());
        print!("{:>12}{:>12}", "", format!("{saving:.1} %"));
    }
    println!();

    report
        .write_requested_json()
        .expect("writing the sweep record");
}
