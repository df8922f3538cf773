//! The stand-alone sweep driver: runs a (benchmark × variant) grid
//! through the parallel sweep engine and writes the machine-readable
//! `BENCH_sweep.json` perf record.
//!
//! Usage: `cargo run --release -p wbsn-bench --bin sweep -- [options]`
//!
//! Options:
//! * `--benchmarks mf,mmd,rpclass` — grid rows (default: all).
//! * `--variants sc,mc,busy` — grid columns (default: all).
//! * `--duration <s>` — observation window (default 60 s, or
//!   `WBSN_DURATION_S`).
//! * `--workers <n>` — worker threads (default `WBSN_WORKERS`, then the
//!   host parallelism).
//! * `--json <path>` — record path (default `WBSN_SWEEP_JSON`, else
//!   `BENCH_sweep.json`; the option wins over both, and an empty path
//!   suppresses the record).
//! * `--no-fix-cells` — drop the scheduled/forwarding variants of the
//!   hardware-sync cells (the default grid includes them so the record
//!   diffs the load-use stall bucket before and after each fix).

use wbsn_bench::experiment::{duration_from_env, parse_duration};
use wbsn_bench::sweep::requested_json_path;
use wbsn_bench::{run_sweep, BenchmarkId, ExperimentConfig, RunVariant, SweepCell, SweepOptions};
use wbsn_kernels::ClassifierParams;

fn parse_benchmark(name: &str) -> BenchmarkId {
    match name {
        "mf" => BenchmarkId::Mf,
        "mmd" => BenchmarkId::Mmd,
        "rpclass" => BenchmarkId::RpClass,
        other => die(&format!("unknown benchmark {other:?} (mf, mmd, rpclass)")),
    }
}

fn parse_variant(name: &str) -> RunVariant {
    match name {
        "sc" => RunVariant::SingleCore,
        "mc" => RunVariant::MultiCoreSync,
        "busy" => RunVariant::MultiCoreBusyWait,
        other => die(&format!("unknown variant {other:?} (sc, mc, busy)")),
    }
}

fn die(message: &str) -> ! {
    eprintln!("sweep: {message}");
    std::process::exit(2);
}

fn main() {
    let mut benchmarks: Vec<BenchmarkId> = BenchmarkId::ALL.to_vec();
    let mut variants = vec![
        RunVariant::SingleCore,
        RunVariant::MultiCoreSync,
        RunVariant::MultiCoreBusyWait,
    ];
    let mut duration_s = duration_from_env(60.0);
    let mut options = SweepOptions::default();
    let mut json_path = requested_json_path().unwrap_or_else(|| String::from("BENCH_sweep.json"));
    let mut fix_cells = true;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--benchmarks" => {
                benchmarks = value("--benchmarks")
                    .split(',')
                    .map(parse_benchmark)
                    .collect();
            }
            "--variants" => {
                variants = value("--variants").split(',').map(parse_variant).collect();
            }
            "--duration" => {
                duration_s = parse_duration(&value("--duration"))
                    .unwrap_or_else(|e| die(&format!("--duration: {e}")));
            }
            "--workers" => {
                options.workers = Some(
                    value("--workers")
                        .parse()
                        .unwrap_or_else(|_| die("--workers needs a count")),
                );
            }
            "--json" => json_path = value("--json"),
            "--no-fix-cells" => fix_cells = false,
            other => die(&format!("unknown option {other:?}")),
        }
    }

    let config = ExperimentConfig {
        duration_s,
        ..ExperimentConfig::default()
    };
    let params = ClassifierParams::default_trained();
    let mut cells: Vec<SweepCell> = benchmarks
        .iter()
        .flat_map(|&benchmark| {
            let config = &config;
            variants
                .iter()
                .map(move |&variant| SweepCell::new(benchmark, variant, config.clone()))
        })
        .collect();
    if fix_cells {
        // Scheduled and forwarding variants of every hardware-sync cell:
        // the record pairs each with its baseline and diffs the load-use
        // stall bucket and the power integral.
        let baselines: Vec<SweepCell> = cells
            .iter()
            .filter(|c| c.variant == RunVariant::MultiCoreSync)
            .cloned()
            .collect();
        for base in baselines {
            let mut scheduled = base.clone();
            scheduled.config.schedule = true;
            cells.push(scheduled);
            let mut forwarded = base.clone();
            forwarded.config.forwarding = true;
            cells.push(forwarded);
        }
    }
    eprintln!(
        "# sweep driver — {} cells ({} benchmarks x {} variants{}), {} s simulated, {} workers",
        cells.len(),
        benchmarks.len(),
        variants.len(),
        if fix_cells { " + fix cells" } else { "" },
        duration_s,
        options.resolve_workers()
    );

    let report = run_sweep(cells, &params, &options);
    println!(
        "{:<10} {:<14} {:>10} {:>8} {:>12} {:>14}",
        "benchmark", "config", "f (MHz)", "V", "power (uW)", "cycles"
    );
    for outcome in &report.outcomes {
        let (benchmark, variant) = (outcome.cell.benchmark, outcome.cell.variant);
        let mut label = variant.label().to_string();
        if outcome.cell.config.schedule {
            label.push_str(" +sched");
        }
        if outcome.cell.config.forwarding {
            label.push_str(" +fwd");
        }
        match &outcome.result {
            Ok(m) => println!(
                "{:<10} {:<14} {:>10.2} {:>8.1} {:>12.2} {:>14}",
                benchmark.name(),
                label,
                m.clock_hz / 1e6,
                m.voltage,
                m.power_uw(),
                m.stats.cycles
            ),
            Err(e) => println!("{:<10} {:<14} FAILED: {e}", benchmark.name(), label),
        }
    }

    if !json_path.is_empty() {
        report.write_json(&json_path).expect("writing sweep record");
    }
    if report.outcomes.iter().any(|o| o.result.is_err()) {
        std::process::exit(1);
    }
}
