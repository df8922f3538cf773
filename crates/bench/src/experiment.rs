//! The measurement flow behind every reproduced table and figure.
//!
//! For one `(benchmark, variant)` pair the flow mirrors the paper's
//! §V-A optimization ("the system clock frequency is reduced to the
//! minimum in order to exploit the benefits of VFS"):
//!
//! 1. **Calibrate** (hardware-sync cells only) — run a short slice of
//!    the workload at a generous reference clock and seed the search
//!    with the busiest core's average active cycles per sample
//!    (clock-independent), plus a guard band, clamped to the 1 MHz
//!    platform floor. Busy-wait cores spin between samples, so
//!    their search starts from the platform's clock floor and no
//!    calibration window is built or run.
//! 2. **Search** — climb the clock in ×1.15 steps until the calibration
//!    slice runs without ADC overruns, then pick the lowest voltage
//!    whose interconnect-dependent `f_max` covers it.
//! 3. **Measure** — re-run the full observation window with the sampling
//!    period implied by the chosen clock, verify no ADC overruns (else
//!    climb again), and integrate the run into the Fig. 6 power
//!    decomposition.
//!
//! Only runs that can become the returned [`Measurement`] pay for the
//! counting sink: every measurement attempt, and the search runs when
//! the window fits inside the calibration slice (then the feasible
//! search run *is* the measurement). Every search or measurement run
//! stops at its first ADC overrun, because an overrunning run is always
//! thrown away. None of this changes a clock, a µW figure or a digest.

use std::error::Error;
use std::fmt;

use wbsn_dsp::ecg::{synthesize, EcgConfig, EcgRecording};
use wbsn_kernels::{
    build_mf, build_mmd, build_rpclass, Arch, BuildError, BuildOptions, BuiltApp, ClassifierParams,
    SyncApproach,
};
use wbsn_power::{Activity, Interconnect, OperatingPoint, PowerBreakdown, PowerModel, VfsTable};
use wbsn_sim::{ObsConfig, ObsSummary, Platform, SimError, SimStats};

use crate::cache::BuildCache;

/// Which benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkId {
    /// Three-lead morphological filtering.
    Mf,
    /// Three-lead filtering + delineation.
    Mmd,
    /// Heartbeat classification with triggered delineation.
    RpClass,
}

impl BenchmarkId {
    /// All benchmarks, in Table I order.
    pub const ALL: [BenchmarkId; 3] = [BenchmarkId::Mf, BenchmarkId::Mmd, BenchmarkId::RpClass];

    /// The paper's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkId::Mf => "3L-MF",
            BenchmarkId::Mmd => "3L-MMD",
            BenchmarkId::RpClass => "RP-CLASS",
        }
    }
}

/// Which platform/synchronization configuration to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunVariant {
    /// Single-core baseline.
    SingleCore,
    /// Multi-core with the proposed HW/SW synchronization.
    MultiCoreSync,
    /// Multi-core with active waiting (Fig. 6's "no synch").
    MultiCoreBusyWait,
}

impl RunVariant {
    fn arch(self) -> Arch {
        match self {
            RunVariant::SingleCore => Arch::SingleCore,
            _ => Arch::MultiCore,
        }
    }

    fn approach(self) -> SyncApproach {
        match self {
            RunVariant::MultiCoreBusyWait => SyncApproach::BusyWait,
            _ => SyncApproach::Hardware,
        }
    }

    fn interconnect(self) -> Interconnect {
        match self {
            RunVariant::SingleCore => Interconnect::Decoder,
            _ => Interconnect::Crossbar,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            RunVariant::SingleCore => "SC",
            RunVariant::MultiCoreSync => "MC",
            RunVariant::MultiCoreBusyWait => "MC (no synch)",
        }
    }
}

/// Experiment-wide knobs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Observation window in simulated seconds (the paper uses 60 s).
    pub duration_s: f64,
    /// ECG sampling rate in Hz.
    pub fs: u32,
    /// Fraction of pathological beats (RP-CLASS input).
    pub pathological_fraction: f64,
    /// Guard band on the minimum-clock selection.
    pub guard: f64,
    /// Calibration slice length in seconds.
    pub calibration_s: f64,
    /// Disable crossbar broadcasting (ablation).
    pub disable_broadcast: bool,
    /// Disable the lock-step branch-recovery barrier (ablation).
    pub disable_lockstep: bool,
    /// Use the preloaded auto-reload barrier extension instead of the
    /// paper's SINC/SDEC protocol.
    pub preloaded_barrier: bool,
    /// Force the multi-core run onto the baseline's operating point
    /// (isolates the VFS contribution — ablation for Fig. 7's
    /// discussion).
    pub disable_vfs: bool,
    /// Run the load-latency-aware scheduler over every kernel (the
    /// software fix for the load-use stall bucket).
    pub schedule: bool,
    /// Model a memory→execute bypass in the pipeline (the hardware fix
    /// for the load-use stall bucket).
    pub forwarding: bool,
    /// Input seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            duration_s: 60.0,
            // The paper's CSE inputs are multi-lead recordings sampled at
            // 500 Hz.
            fs: 500,
            pathological_fraction: 0.2,
            guard: 0.10,
            calibration_s: 6.0,
            disable_broadcast: false,
            disable_lockstep: false,
            preloaded_barrier: false,
            disable_vfs: false,
            schedule: false,
            forwarding: false,
            seed: 0xEC60,
        }
    }
}

/// Everything measured for one `(benchmark, variant)` configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The benchmark.
    pub benchmark: BenchmarkId,
    /// The configuration.
    pub variant: RunVariant,
    /// Cores participating.
    pub active_cores: usize,
    /// Instruction banks holding code.
    pub active_im_banks: usize,
    /// Data banks that stay powered.
    pub active_dm_banks: usize,
    /// Fetch requests served by broadcast, percent.
    pub im_broadcast_percent: f64,
    /// Data reads served by broadcast, percent.
    pub dm_broadcast_percent: f64,
    /// Chosen clock in Hz.
    pub clock_hz: f64,
    /// Chosen supply voltage.
    pub voltage: f64,
    /// Static code overhead of the synchronization ISE, percent.
    pub code_overhead_percent: f64,
    /// Run-time share of synchronization instructions, percent.
    pub runtime_overhead_percent: f64,
    /// The Fig. 6 power decomposition.
    pub breakdown: PowerBreakdown,
    /// Raw statistics of the measurement run.
    pub stats: SimStats,
    /// Latency/stall digest of the measurement run (sleep and sync-gap
    /// percentiles, per-cause stall totals).
    pub obs: Option<ObsSummary>,
    /// The powered-instance counts used by the power model.
    pub activity: Activity,
    /// The selected operating point.
    pub op: OperatingPoint,
    /// The platform configuration of the measurement run.
    pub platform_config: wbsn_sim::PlatformConfig,
}

impl Measurement {
    /// Total average power in µW.
    pub fn power_uw(&self) -> f64 {
        self.breakdown.total_uw()
    }

    /// Re-integrates this run's statistics under a different energy
    /// characterization — the sensitivity-analysis hook: the simulation
    /// is reused, only the per-event energies change.
    pub fn power_with(&self, model: &PowerModel) -> PowerBreakdown {
        model.average_power(
            &self.stats,
            &self.platform_config,
            self.activity,
            self.op,
            self.clock_hz,
        )
    }
}

/// Errors of the measurement flow.
#[derive(Debug)]
pub enum MeasureError {
    /// The application failed to build.
    Build(BuildError),
    /// The simulator faulted.
    Sim(SimError),
    /// No operating point satisfies the required clock.
    Infeasible {
        /// The clock that could not be met.
        required_hz: f64,
    },
    /// The feasibility search climbed all its steps and the calibration
    /// slice still overran at every clock.
    NoFeasibleClock {
        /// The clock of the last search step, in Hz.
        clock_hz: f64,
        /// Overruns the last step had counted when it stopped.
        overruns: u64,
    },
    /// Real-time violations persisted over the measurement window after
    /// the retries (or, for a pinned clock, at that clock).
    Overruns {
        /// The clock of the last attempt, in Hz.
        clock_hz: f64,
        /// Overruns the last attempt had counted when it stopped (a run
        /// stops at its first overrun).
        overruns: u64,
    },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Build(e) => write!(f, "build failed: {e}"),
            MeasureError::Sim(e) => write!(f, "simulation failed: {e}"),
            MeasureError::Infeasible { required_hz } => {
                write!(f, "no operating point reaches {required_hz:.0} Hz")
            }
            MeasureError::NoFeasibleClock { clock_hz, overruns } => write!(
                f,
                "no feasible clock: the calibration slice still overran at \
                 {clock_hz:.0} Hz ({overruns} ADC overruns before the run stopped)"
            ),
            MeasureError::Overruns { clock_hz, overruns } => write!(
                f,
                "the measurement window overran at {clock_hz:.0} Hz \
                 ({overruns} ADC overruns before the run stopped)"
            ),
        }
    }
}

impl Error for MeasureError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MeasureError::Build(e) => Some(e),
            MeasureError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for MeasureError {
    fn from(e: BuildError) -> Self {
        MeasureError::Build(e)
    }
}

impl From<SimError> for MeasureError {
    fn from(e: SimError) -> Self {
        MeasureError::Sim(e)
    }
}

fn barrier_style(config: &ExperimentConfig) -> wbsn_kernels::app::BarrierStyle {
    if config.preloaded_barrier {
        wbsn_kernels::app::BarrierStyle::Preloaded
    } else {
        wbsn_kernels::app::BarrierStyle::SincSdec
    }
}

/// The image options of `variant` under `config` at one ADC sampling
/// period — the only knob that differs between a cell's runs.
fn build_options(
    variant: RunVariant,
    config: &ExperimentConfig,
    adc_period_cycles: u64,
) -> BuildOptions {
    BuildOptions {
        approach: variant.approach(),
        broadcast: !config.disable_broadcast,
        lockstep: !config.disable_lockstep,
        barrier: barrier_style(config),
        schedule: config.schedule,
        adc_period_cycles,
    }
}

/// The ADC sampling period, in cycles, at `clock_hz`.
fn period_at(config: &ExperimentConfig, clock_hz: f64) -> u64 {
    (clock_hz / config.fs as f64).round() as u64
}

fn recording(config: &ExperimentConfig, seconds: f64) -> EcgRecording {
    synthesize(&EcgConfig {
        fs: config.fs,
        duration_s: seconds,
        pathological_fraction: config.pathological_fraction,
        seed: config.seed,
        ..EcgConfig::healthy_60s()
    })
}

/// Builds one benchmark for one architecture — the single entry point
/// the [`BuildCache`](crate::cache::BuildCache) deduplicates.
pub(crate) fn build_app(
    benchmark: BenchmarkId,
    arch: Arch,
    options: &BuildOptions,
    params: &ClassifierParams,
) -> Result<BuiltApp, BuildError> {
    match benchmark {
        BenchmarkId::Mf => build_mf(arch, options),
        BenchmarkId::Mmd => build_mmd(arch, options),
        BenchmarkId::RpClass => build_rpclass(arch, options, params),
    }
}

/// Why a window is simulated, which decides what the run pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    /// Seeds the clock search from its active cycles: the whole slice
    /// runs, uninstrumented, whatever its overruns.
    Calibrate,
    /// A search step whose platform is dropped: uninstrumented, and it
    /// stops at its first overrun.
    Search,
    /// A run that can become the returned [`Measurement`]: the counting
    /// sink rides along, and it stops at its first overrun.
    Measure,
}

fn run_window(
    app: &BuiltApp,
    leads: Vec<Vec<i16>>,
    period: u64,
    forwarding: bool,
    purpose: Purpose,
) -> Result<Platform, SimError> {
    let samples = leads[0].len() as u64;
    let start = app.config.adc.start_cycle;
    let total = start + samples * period;
    let mut platform = app.platform(leads)?;
    // Forwarding is a platform property, not a build property: setting
    // it here keeps the build-cache keys clean (the image is identical
    // with and without the bypass).
    platform.set_forwarding(forwarding);
    // The counting sink's histograms become the per-cell latency digest
    // of the sweep record; runs that can never be returned skip its cost.
    if purpose == Purpose::Measure {
        platform.enable_obs(ObsConfig::counting_only());
    }
    // Advance sample by sample on the fixed grid `start + k·period`, so
    // a run that overruns (and will be thrown away) stops early. Each
    // target follows from the previous one, not from `stats.cycles`:
    // `run` returns without advancing when every core is idle and the
    // next ADC tick lies past the target.
    let mut target = start;
    loop {
        platform.run(target)?;
        if purpose != Purpose::Calibrate && platform.adc_overruns() > 0 {
            return Ok(platform);
        }
        if target >= total {
            break;
        }
        target += period;
    }
    platform.idle_until(total);
    platform.finish_obs();
    Ok(platform)
}

/// The latency/stall digest of a finished measurement window.
fn obs_summary(platform: &Platform) -> Option<ObsSummary> {
    platform
        .obs()
        .recorder()
        .and_then(|r| r.counting())
        .map(|c| c.summary())
}

/// Integrates an overrun-free measurement run at `clock_hz` into the
/// returned [`Measurement`].
fn assemble(
    benchmark: BenchmarkId,
    variant: RunVariant,
    app: &BuiltApp,
    platform: &Platform,
    op: OperatingPoint,
    clock_hz: f64,
) -> Measurement {
    let stats = platform.stats().clone();
    let activity = Activity::derive(&stats, &app.config, app.active_im_banks());
    let breakdown =
        PowerModel::default().average_power(&stats, &app.config, activity, op, clock_hz);
    Measurement {
        benchmark,
        variant,
        active_cores: app.active_cores,
        active_im_banks: app.active_im_banks(),
        active_dm_banks: activity.dm_banks_powered,
        im_broadcast_percent: stats.im.broadcast_percent(),
        dm_broadcast_percent: stats.dm.broadcast_percent(),
        clock_hz,
        voltage: op.voltage,
        code_overhead_percent: app.code_overhead_percent(),
        runtime_overhead_percent: stats.runtime_overhead_percent(),
        breakdown,
        stats,
        obs: obs_summary(platform),
        activity,
        op,
        platform_config: app.config.clone(),
    }
}

/// Measures one `(benchmark, variant)` configuration.
///
/// # Errors
///
/// Returns a [`MeasureError`] when the application cannot be built, the
/// simulator faults, or no operating point meets the real-time
/// requirement.
pub fn measure(
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &ExperimentConfig,
    params: &ClassifierParams,
) -> Result<Measurement, MeasureError> {
    measure_cached(benchmark, variant, config, params, &BuildCache::new())
}

/// [`measure`] with a shared [`BuildCache`]: sweep grids route every
/// cell through one cache so repeated `(benchmark, arch, options)`
/// builds are linked once (see the cache module docs for why this can
/// never change a measurement).
///
/// # Errors
///
/// Same conditions as [`measure`].
pub fn measure_cached(
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &ExperimentConfig,
    params: &ClassifierParams,
    cache: &BuildCache,
) -> Result<Measurement, MeasureError> {
    let vfs = VfsTable::ninety_nm_low_leakage();
    let build = |period| {
        cache.get_or_build(
            benchmark,
            variant.arch(),
            &build_options(variant, config, period),
            params,
        )
    };
    let calib = recording(config, config.calibration_s.min(config.duration_s));
    let full = recording(config, config.duration_s);
    // When the observation window fits inside the calibration slice the
    // recordings are identical, so the successful feasibility run IS the
    // measurement run (the simulator is deterministic): it counts, and
    // it is returned instead of stepping the same window twice.
    let reuse = calib.leads == full.leads;

    // 1. Seed the search with the average per-sample demand (measured at
    // a generous reference clock where real time trivially holds).
    // Busy-wait cores spin between samples, so their active cycles say
    // nothing about the clock requirement; those searches start from the
    // platform's clock floor without a calibration run.
    let mut required_hz = if variant.approach() == SyncApproach::BusyWait {
        vfs.min_clock_hz
    } else {
        let calib_period = 20_000u64;
        let platform = run_window(
            &*build(calib_period)?,
            calib.leads.clone(),
            calib_period,
            config.forwarding,
            Purpose::Calibrate,
        )?;
        let stats = platform.stats();
        let samples = stats.adc_samples.max(1) as f64;
        let avg_window = stats
            .cores
            .iter()
            .map(|c| c.active_cycles as f64 / samples)
            .fold(0.0f64, f64::max);
        vfs.clamp_clock(avg_window * config.fs as f64 * (1.0 + config.guard))
    };

    // 2. Feasibility search: the minimum clock is the lowest at which a
    // calibration slice shows no ADC overruns — the paper's "meeting
    // real-time constraints" criterion (work may pipeline across
    // sampling periods thanks to the data registers and buffering, so
    // worst-window heuristics alone are too conservative).
    let search = if reuse {
        Purpose::Measure
    } else {
        Purpose::Search
    };
    let mut feasible_run = None;
    let mut overruns = 0;
    for step in 0..24 {
        if step > 0 {
            required_hz *= 1.15;
        }
        let period = period_at(config, required_hz);
        let app = build(period)?;
        let platform = run_window(&app, calib.leads.clone(), period, config.forwarding, search)?;
        overruns = platform.adc_overruns();
        if overruns == 0 {
            feasible_run = Some((app, platform));
            break;
        }
    }
    let Some(feasible_run) = feasible_run else {
        return Err(MeasureError::NoFeasibleClock {
            clock_hz: required_hz,
            overruns,
        });
    };

    // 3. Measurement runs; bump the clock on residual overruns (the
    // calibration slice may have missed the worst window).
    let mut kept = reuse.then_some(feasible_run);
    for attempt in 0..6 {
        if attempt > 0 {
            required_hz *= 1.15;
        }
        let op = vfs
            .min_point_for(required_hz, variant.interconnect())
            .ok_or(MeasureError::Infeasible { required_hz })?;
        let (app, platform) = match kept.take() {
            Some(run) => run,
            None => {
                let period = period_at(config, required_hz);
                let app = build(period)?;
                let platform = run_window(
                    &app,
                    full.leads.clone(),
                    period,
                    config.forwarding,
                    Purpose::Measure,
                )?;
                (app, platform)
            }
        };
        overruns = platform.adc_overruns();
        if overruns == 0 {
            return Ok(assemble(
                benchmark,
                variant,
                &app,
                &platform,
                op,
                required_hz,
            ));
        }
    }
    Err(MeasureError::Overruns {
        clock_hz: required_hz,
        overruns,
    })
}

/// Measures a multi-core configuration pinned to a given clock (the
/// `--no-vfs` ablation: same workload, baseline operating point).
///
/// # Errors
///
/// Same conditions as [`measure`].
pub fn measure_at_clock(
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &ExperimentConfig,
    params: &ClassifierParams,
    clock_hz: f64,
) -> Result<Measurement, MeasureError> {
    measure_at_clock_cached(
        benchmark,
        variant,
        config,
        params,
        clock_hz,
        &BuildCache::new(),
    )
}

/// [`measure_at_clock`] with a shared [`BuildCache`] (the sweep-grid
/// entry point, like [`measure_cached`]).
///
/// # Errors
///
/// Same conditions as [`measure`].
pub fn measure_at_clock_cached(
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &ExperimentConfig,
    params: &ClassifierParams,
    clock_hz: f64,
    cache: &BuildCache,
) -> Result<Measurement, MeasureError> {
    let op = VfsTable::ninety_nm_low_leakage()
        .min_point_for(clock_hz, variant.interconnect())
        .ok_or(MeasureError::Infeasible {
            required_hz: clock_hz,
        })?;
    let period = period_at(config, clock_hz);
    let options = build_options(variant, config, period);
    let app = cache.get_or_build(benchmark, variant.arch(), &options, params)?;
    let full = recording(config, config.duration_s);
    let platform = run_window(
        &app,
        full.leads,
        period,
        config.forwarding,
        Purpose::Measure,
    )?;
    match platform.adc_overruns() {
        0 => Ok(assemble(benchmark, variant, &app, &platform, op, clock_hz)),
        overruns => Err(MeasureError::Overruns { clock_hz, overruns }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            duration_s: 3.0,
            calibration_s: 2.0,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn mf_sc_vs_mc_shows_the_paper_shape() {
        let params = ClassifierParams::default_trained();
        let config = quick_config();
        let sc = measure(BenchmarkId::Mf, RunVariant::SingleCore, &config, &params).unwrap();
        let mc = measure(BenchmarkId::Mf, RunVariant::MultiCoreSync, &config, &params).unwrap();
        // VFS: the multi-core platform runs slower and at lower voltage.
        assert!(mc.clock_hz < sc.clock_hz);
        assert!(mc.voltage < sc.voltage);
        // And saves power overall.
        assert!(
            mc.power_uw() < sc.power_uw(),
            "MC {:.1} µW vs SC {:.1} µW",
            mc.power_uw(),
            sc.power_uw()
        );
        // Broadcasting only exists on the multi-core platform.
        assert_eq!(sc.im_broadcast_percent, 0.0);
        assert!(mc.im_broadcast_percent > 10.0);
        // Table I structure: SC powers fewer DM banks.
        assert_eq!(mc.active_dm_banks, 16);
        assert!(sc.active_dm_banks < 16);
        // Overheads are small.
        assert!(mc.code_overhead_percent < 10.0);
        assert!(mc.runtime_overhead_percent < 10.0);
        // The counting sink rode along: the multi-core run observed
        // real sleeps and its percentiles are ordered.
        let obs = mc.obs.expect("measurement carries the latency digest");
        assert!(obs.sleep_count > 0, "{obs:?}");
        assert!(obs.sleep_p99_cycles >= obs.sleep_p50_cycles, "{obs:?}");
        assert!(
            obs.sync_gap_p99_cycles >= obs.sync_gap_p50_cycles,
            "{obs:?}"
        );
    }

    /// The reference the sample-by-sample loop must reproduce: the whole
    /// window in one `Platform::run`, then the idle tail.
    fn one_shot(app: &BuiltApp, leads: Vec<Vec<i16>>, period: u64) -> Platform {
        let total = app.config.adc.start_cycle + leads[0].len() as u64 * period;
        let mut platform = app.platform(leads).unwrap();
        platform.enable_obs(ObsConfig::counting_only());
        platform.run(total).unwrap();
        platform.idle_until(total);
        platform.finish_obs();
        platform
    }

    #[test]
    fn sample_by_sample_runs_match_one_shot_runs_and_stop_at_the_first_overrun() {
        let params = ClassifierParams::default_trained();
        let config = ExperimentConfig {
            duration_s: 0.5,
            ..ExperimentConfig::default()
        };
        let leads = recording(&config, config.duration_s).leads;
        let variants = [
            RunVariant::SingleCore,
            RunVariant::MultiCoreSync,
            RunVariant::MultiCoreBusyWait,
        ];
        for benchmark in BenchmarkId::ALL {
            for variant in variants {
                let build = |period| {
                    build_app(
                        benchmark,
                        variant.arch(),
                        &build_options(variant, &config, period),
                        &params,
                    )
                    .unwrap()
                };
                // 4 MHz: real time holds everywhere.
                let (period, app) = (8_000, build(8_000));
                let chunked =
                    run_window(&app, leads.clone(), period, false, Purpose::Measure).unwrap();
                let reference = one_shot(&app, leads.clone(), period);
                let cell = format!("{} {}", benchmark.name(), variant.label());
                assert_eq!(chunked.adc_overruns(), 0, "{cell}");
                assert_eq!(chunked.stats(), reference.stats(), "{cell}");
                assert!(obs_summary(&chunked).is_some(), "{cell}");
                assert_eq!(obs_summary(&chunked), obs_summary(&reference), "{cell}");

                // 50 kHz: every benchmark overruns within a few samples.
                let (period, app) = (100, build(100));
                let total = app.config.adc.start_cycle + leads[0].len() as u64 * period;
                let stopped =
                    run_window(&app, leads.clone(), period, false, Purpose::Search).unwrap();
                assert!(stopped.adc_overruns() > 0, "{cell}");
                assert!(stopped.stats().cycles < total, "{cell}");
            }
        }
    }

    #[test]
    fn exhausted_retries_report_the_last_clock_and_its_overruns() {
        // A 1 s slice misses RP-CLASS's triggered-delineation bursts: the
        // search settles too low and six ×1.15 retries cannot catch up.
        let params = ClassifierParams::default_trained();
        let config = ExperimentConfig {
            duration_s: 3.0,
            calibration_s: 1.0,
            ..ExperimentConfig::default()
        };
        match measure(
            BenchmarkId::RpClass,
            RunVariant::SingleCore,
            &config,
            &params,
        ) {
            Err(MeasureError::Overruns { clock_hz, overruns }) => {
                assert!(clock_hz.is_finite() && clock_hz > 1.0e6, "{clock_hz}");
                assert!(overruns > 0 && overruns < u64::MAX, "{overruns}");
            }
            other => panic!("expected Overruns, got {other:?}"),
        }
    }

    #[test]
    fn a_search_that_never_meets_real_time_fails_explicitly() {
        // At 50 kHz sampling no clock of the 24-step ladder keeps up.
        let params = ClassifierParams::default_trained();
        let config = ExperimentConfig {
            fs: 50_000,
            duration_s: 0.1,
            calibration_s: 0.05,
            ..ExperimentConfig::default()
        };
        match measure(
            BenchmarkId::Mf,
            RunVariant::MultiCoreBusyWait,
            &config,
            &params,
        ) {
            Err(MeasureError::NoFeasibleClock { clock_hz, overruns }) => {
                let floor = VfsTable::ninety_nm_low_leakage().min_clock_hz;
                let top = (1..24).fold(floor, |hz, _| hz * 1.15);
                assert_eq!(clock_hz, top);
                assert!(overruns > 0 && overruns < u64::MAX, "{overruns}");
            }
            other => panic!("expected NoFeasibleClock, got {other:?}"),
        }
    }
}
