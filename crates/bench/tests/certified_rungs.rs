//! Certified clock rungs against simulation.
//!
//! The feasibility search passes a rung without simulating it when the
//! calibration run's tick trace certifies it (`TickTrace::certifies`).
//! Here every certified rung of every sweep-grid configuration is
//! simulated anyway over the calibration slice: it must count no
//! overrun, gate every core at the same cycle after each tick as the
//! calibration run did, and end with the same statistics apart from the
//! clock (total and gated cycles). The search's decision is then the
//! one a fully simulated search makes, since it stops at the first
//! rung that passes.
//!
//! The windows are 3 s against a 2 s slice, longer than the slice as
//! in the paper's 60 s / 6 s setting, so the search runs are thrown
//! away and certification applies.

use wbsn_bench::experiment::{certified_rung, trace_slice, TickTrace, CALIBRATION_PERIOD};
use wbsn_bench::{BenchmarkId, ExperimentConfig, RunVariant};
use wbsn_kernels::app::benchmark_config;
use wbsn_kernels::{Arch, BuildOptions, ClassifierParams};
use wbsn_sim::SimStats;

/// The default seed and the held-out one.
const SEEDS: [u64; 2] = [0xEC60, 2014];

/// Fig. 7's pathological-beat fractions (RP-CLASS only).
const FRACTIONS: [f64; 7] = [0.0, 0.10, 0.20, 0.25, 0.33, 0.50, 1.00];

fn base(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        duration_s: 3.0,
        calibration_s: 2.0,
        seed,
        ..ExperimentConfig::default()
    }
}

/// The Table I configuration, then one per ablation and fix knob.
fn knobs(seed: u64) -> Vec<ExperimentConfig> {
    let base = base(seed);
    let with = |knob: fn(&mut ExperimentConfig)| {
        let mut config = base.clone();
        knob(&mut config);
        config
    };
    vec![
        base.clone(),
        with(|c| c.disable_broadcast = true),
        with(|c| c.disable_lockstep = true),
        with(|c| c.preloaded_barrier = true),
        with(|c| c.schedule = true),
        with(|c| c.forwarding = true),
    ]
}

/// Statistics with the clock taken out: total and gated cycles are the
/// only counters a longer or shorter idle tail may change.
fn without_clock(stats: &SimStats) -> SimStats {
    let mut stats = stats.clone();
    stats.cycles = 0;
    for core in &mut stats.cores {
        core.gated_cycles = 0;
    }
    stats
}

/// Simulates the certified rung of one cell, if its search has one, and
/// compares it with the calibration run. Returns whether it had one.
fn check_cell(
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &ExperimentConfig,
    params: &ClassifierParams,
) -> bool {
    let cell = format!(
        "{} {} seed {} fraction {}",
        benchmark.name(),
        variant.label(),
        config.seed,
        config.pathological_fraction
    );
    let Some(period) = certified_rung(benchmark, variant, config, params).expect(&cell) else {
        return false;
    };
    let (calibration, calibration_stats) =
        trace_slice(benchmark, variant, config, params, CALIBRATION_PERIOD).expect(&cell);
    let (rung, rung_stats) = trace_slice(benchmark, variant, config, params, period).expect(&cell);
    assert_eq!(rung.overruns, 0, "{cell}: certified rung {period} overran");
    assert_eq!(rung.startup, calibration.startup, "{cell}: rung {period}");
    assert_eq!(rung.spans, calibration.spans, "{cell}: rung {period}");
    assert_eq!(
        without_clock(&rung_stats),
        without_clock(&calibration_stats),
        "{cell}: rung {period}"
    );
    true
}

fn check_grid(seed: u64) {
    let params = ClassifierParams::default_trained();
    let variants = [RunVariant::SingleCore, RunVariant::MultiCoreSync];
    let mut certified = 0;
    for config in knobs(seed) {
        for benchmark in BenchmarkId::ALL {
            for variant in variants {
                certified += usize::from(check_cell(benchmark, variant, &config, &params));
            }
        }
    }
    for fraction in FRACTIONS {
        let config = ExperimentConfig {
            pathological_fraction: fraction,
            ..base(seed)
        };
        for variant in variants {
            certified += usize::from(check_cell(BenchmarkId::RpClass, variant, &config, &params));
        }
    }
    // Table I alone certifies MF SC, MMD SC and MF MC at either seed.
    assert!(
        certified >= 3,
        "seed {seed}: only {certified} certified rungs"
    );
}

#[test]
fn certified_rungs_agree_with_simulation_on_the_default_seed() {
    check_grid(SEEDS[0]);
}

#[test]
fn certified_rungs_agree_with_simulation_on_the_held_out_seed() {
    check_grid(SEEDS[1]);
}

/// The calibration run's trace of one Table I cell.
fn calibration(benchmark: BenchmarkId, variant: RunVariant) -> TickTrace {
    let params = ClassifierParams::default_trained();
    trace_slice(
        benchmark,
        variant,
        &base(SEEDS[0]),
        &params,
        CALIBRATION_PERIOD,
    )
    .expect("calibration runs")
    .0
}

/// The platform of a rung at ADC `period` on `arch`.
fn rung(arch: Arch, period: u64) -> wbsn_sim::PlatformConfig {
    benchmark_config(
        arch,
        &BuildOptions {
            adc_period_cycles: period,
            ..BuildOptions::default()
        },
    )
}

#[test]
fn a_crossbar_rung_off_the_rotation_phase_is_not_certified() {
    let trace = calibration(BenchmarkId::Mf, RunVariant::MultiCoreSync);
    // The 1 MHz floor (2000 cycles at 500 Hz) and the next rungs whose
    // ticks fall on rotation phase 0 are certified...
    for period in [2000, 2016, 2032] {
        assert!(trace.certifies(&rung(Arch::MultiCore, period)), "{period}");
    }
    // ...those between them, with the same spans to spare, are not.
    for period in [2001, 2004, 2008, 2012, 2024] {
        assert!(!trace.certifies(&rung(Arch::MultiCore, period)), "{period}");
    }
}

#[test]
fn a_rung_shorter_than_the_worst_span_is_not_certified() {
    let trace = calibration(BenchmarkId::Mf, RunVariant::SingleCore);
    let worst = trace
        .spans
        .iter()
        .map(|span| span.expect("every sample gates before the next tick"))
        .max()
        .expect("the slice has samples");
    let startup = trace.startup.expect("start-up gates before the first tick");
    // A decoder has no rotation: any period past the worst span (with
    // start-up before the first tick) is certified, down to one cycle
    // more than the span.
    let fits = (worst + 1).max(2 * startup + 2);
    assert!(trace.certifies(&rung(Arch::SingleCore, fits)));
    assert!(trace.certifies(&rung(Arch::SingleCore, fits + 1)));
    assert!(!trace.certifies(&rung(Arch::SingleCore, worst)));
    assert!(!trace.certifies(&rung(Arch::SingleCore, worst - 1)));
}
