//! Measures simulator throughput on the 3L-MF builds — the repo's quick
//! interpreter-speed probe — for the single-core, hardware-sync and
//! busy-wait platforms, with observability off and with the counting
//! sink every sweep cell runs (`ObsConfig::counting_only`).
//!
//! Fast-forwarded cycles (every live core gated) cost next to nothing,
//! so they are reported beside the stepped platform cycles instead of
//! being counted as speed. The speed figure is wall nanoseconds per
//! active core-cycle: `Platform::run` wall time over the sum of
//! `CoreStats::active_cycles`, the definition of the benchmark's
//! `sim.ns_per_active_core_cycle`. Each row is the median (and minimum)
//! of `repeats` runs; `ratio` is the median over repeats of counting
//! over off, the instrumentation overhead.
//!
//! Usage: `cargo run --release --example sim_throughput [seconds] [repeats]`

use std::time::Instant;

use wbsn_dsp::ecg::{synthesize, EcgConfig};
use wbsn_kernels::{build_mf, Arch, BuildOptions, SyncApproach};
use wbsn_sim::ObsConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let seconds: f64 = args.next().and_then(|v| v.parse().ok()).unwrap_or(5.0);
    let repeats: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(5).max(1);
    let rec = synthesize(&EcgConfig {
        duration_s: seconds,
        ..EcgConfig::healthy_60s()
    });
    println!(
        "{:<13} {:<8} {:>10} {:>12} {:>12} {:>10} {:>8} {:>8}",
        "platform", "obs", "stepped", "fast-fwd", "active core", "ns/active", "(min)", "ratio"
    );
    let platforms = [
        ("SC", Arch::SingleCore, SyncApproach::Hardware),
        ("MC", Arch::MultiCore, SyncApproach::Hardware),
        ("MC (no synch)", Arch::MultiCore, SyncApproach::BusyWait),
    ];
    for (label, arch, approach) in platforms {
        let options = BuildOptions {
            approach,
            adc_period_cycles: 4600,
            ..BuildOptions::default()
        };
        let app = build_mf(arch, &options).expect("MF builds");
        let samples = rec.leads[0].len() as u64;
        let total = app.config.adc.start_cycle + samples * options.adc_period_cycles;
        // One run with obs off and one with counting on per repeat,
        // interleaved so that a slow phase of the host hits both.
        let mut ns = [Vec::new(), Vec::new()];
        let mut ratios = Vec::new();
        let mut counts = (0, 0, 0);
        for _ in 0..repeats {
            for counting in [false, true] {
                let mut platform = app.platform(rec.leads.clone()).expect("platform builds");
                if counting {
                    platform.enable_obs(ObsConfig::counting_only());
                }
                let start = Instant::now();
                platform.run(total).expect("runs clean");
                let wall = start.elapsed().as_secs_f64();
                let stats = platform.stats();
                let active: u64 = stats.cores.iter().map(|c| c.active_cycles).sum();
                let skipped = platform.fast_forwarded_cycles();
                counts = (stats.cycles - skipped, skipped, active);
                ns[usize::from(counting)].push(wall * 1e9 / active.max(1) as f64);
            }
            ratios.push(ns[1][ns[1].len() - 1] / ns[0][ns[0].len() - 1]);
        }
        let (stepped, skipped, active) = counts;
        for (setting, mut runs) in ["off", "counting"].into_iter().zip(ns) {
            runs.sort_by(f64::total_cmp);
            let ratio = if setting == "off" {
                String::new()
            } else {
                format!("{:.3}", median(&mut ratios))
            };
            println!(
                "{label:<13} {setting:<8} {stepped:>10} {skipped:>12} {active:>12} {:>10.2} {:>8.2} {ratio:>8}",
                median(&mut runs),
                runs[0]
            );
        }
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}
