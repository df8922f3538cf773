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
//!    whose interconnect-dependent `f_max` covers it. A rung that the
//!    calibration run's tick trace certifies passes without being
//!    simulated: every sample gated all cores in less than the rung's
//!    period, so the rung would replay the calibration trace tick for
//!    tick. Only a search run that would be thrown away is skipped.
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
use std::sync::Arc;

use wbsn_dsp::ecg::{synthesize, EcgConfig, EcgRecording};
use wbsn_kernels::app::benchmark_config;
use wbsn_kernels::{
    build_mf, build_mmd, build_rpclass, Arch, BuildError, BuildOptions, BuiltApp, ClassifierParams,
    SyncApproach,
};
use wbsn_power::{Activity, Interconnect, OperatingPoint, PowerBreakdown, PowerModel, VfsTable};
use wbsn_sim::{
    InterconnectKind, ObsConfig, ObsSummary, Platform, PlatformConfig, RunExit, SimError, SimStats,
};

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
    /// Calibration slice length in seconds.
    pub calibration_s: f64,
    /// Disable crossbar broadcasting (ablation).
    pub disable_broadcast: bool,
    /// Disable the lock-step branch-recovery barrier (ablation).
    pub disable_lockstep: bool,
    /// Use the preloaded auto-reload barrier extension instead of the
    /// paper's SINC/SDEC protocol.
    pub preloaded_barrier: bool,
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
            calibration_s: 6.0,
            disable_broadcast: false,
            disable_lockstep: false,
            preloaded_barrier: false,
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
    /// Latency digest of the measurement run (sleep, sync-gap and
    /// stall-run percentiles); the per-cause stall totals are in
    /// `stats`.
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

/// Guard band on the calibrated clock that seeds the search.
const GUARD: f64 = 0.10;

/// ADC sampling period of the calibration run, in cycles: at 500 Hz a
/// 10 MHz reference clock, where real time trivially holds.
#[doc(hidden)]
pub const CALIBRATION_PERIOD: u64 = 20_000;

/// Crossbar priority rotates with `cycle % ROTATION`, the only input of
/// a run that depends on the absolute cycle.
const ROTATION: u64 = 8;

// The calibration ticks (half a period, then every period) all fall on
// rotation phase 0, as do those of every crossbar rung with a period
// divisible by 16, the 1 MHz floor's 2000 cycles among them.
const _: () = assert!(CALIBRATION_PERIOD.is_multiple_of(2 * ROTATION));

/// When a window's cores are all clock-gated, relative to its ADC
/// ticks. Recorded by the calibration run, it certifies search rungs
/// (see [`TickTrace::certifies`]).
#[doc(hidden)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickTrace {
    /// The cycle at which start-up gated every core; `None` when a core
    /// was still awake at the first tick.
    pub startup: Option<u64>,
    /// Per sample, the cycles from its tick until every core was gated;
    /// `None` when a core was still awake at the next tick (for the last
    /// sample, at the window's end).
    pub spans: Vec<Option<u64>>,
    /// ADC overruns over the window.
    pub overruns: u64,
}

impl TickTrace {
    /// Whether a search rung on `rung` (the rung's platform, the same
    /// image at another ADC period) provably passes without being
    /// simulated.
    ///
    /// The rung replays the recorded window at another period. If
    /// start-up gates before the rung's first tick and every sample
    /// gates all cores before the rung's next tick, the platform is idle
    /// and in the same state at every tick of both runs. Each sample then
    /// runs the same cycles relative to its tick, provided nothing in a
    /// cycle depends on its absolute number. On a decoder nothing does;
    /// a crossbar's priority rotation does, so the rung's ticks must fall
    /// on the calibration's rotation phase. The rung then counts the
    /// recorded overruns, which must be none.
    pub fn certifies(&self, rung: &PlatformConfig) -> bool {
        let adc = rung.adc;
        let aligned = rung.interconnect == InterconnectKind::Decoder
            || (adc.start_cycle.is_multiple_of(ROTATION)
                && adc.period_cycles.is_multiple_of(ROTATION));
        aligned
            && self.overruns == 0
            && self.startup.is_some_and(|cycle| cycle < adc.start_cycle)
            && self
                .spans
                .iter()
                .all(|span| span.is_some_and(|span| span < adc.period_cycles))
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

/// The slice that calibration and the feasibility search simulate.
fn calibration_slice(config: &ExperimentConfig) -> EcgRecording {
    recording(config, config.calibration_s.min(config.duration_s))
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
    /// Seeds the clock search from its active cycles and records the
    /// tick trace that certifies rungs: the whole slice runs,
    /// uninstrumented, whatever its overruns.
    Calibrate,
    /// A search step whose platform is dropped: uninstrumented, and it
    /// stops at its first overrun.
    Search,
    /// A run that can become the returned [`Measurement`]: the counting
    /// sink rides along, and it stops at its first overrun.
    Measure,
}

/// Simulates `leads` on `app` at ADC `period`. The tick trace is
/// recorded for [`Purpose::Calibrate`] runs and left empty otherwise.
fn run_window(
    app: &BuiltApp,
    leads: Vec<Vec<i16>>,
    period: u64,
    forwarding: bool,
    purpose: Purpose,
) -> Result<(Platform, TickTrace), SimError> {
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
    let mut trace = TickTrace::default();
    let mut target = start;
    loop {
        let exit = platform.run(target)?;
        if purpose == Purpose::Calibrate {
            // `run` returns `Quiescent` at the first cycle with every
            // core gated, `CycleLimit` at the target otherwise.
            let gated = (exit == RunExit::Quiescent).then(|| platform.stats().cycles);
            if target == start {
                trace.startup = gated;
            } else {
                trace
                    .spans
                    .push(gated.map(|cycle| cycle - (target - period)));
            }
        } else if platform.adc_overruns() > 0 {
            return Ok((platform, trace));
        }
        if target >= total {
            break;
        }
        target += period;
    }
    platform.idle_until(total);
    platform.finish_obs();
    trace.overruns = platform.adc_overruns();
    Ok((platform, trace))
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

/// One cell of a grid: what every run of its measurement flow shares.
struct Cell<'a> {
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &'a ExperimentConfig,
    params: &'a ClassifierParams,
    cache: &'a BuildCache,
}

impl Cell<'_> {
    fn options(&self, period: u64) -> BuildOptions {
        build_options(self.variant, self.config, period)
    }

    fn build(&self, period: u64) -> Result<Arc<BuiltApp>, BuildError> {
        self.cache.get_or_build(
            self.benchmark,
            self.variant.arch(),
            &self.options(period),
            self.params,
        )
    }
}

/// Where steps 1 and 2 left a cell.
struct Searched {
    /// The clock the search settled on.
    required_hz: f64,
    /// The feasible search run, when it is the measurement.
    kept: Option<(Arc<BuiltApp>, Platform)>,
    /// The period of the rung that passed without being simulated.
    certified: Option<u64>,
}

/// Steps 1 and 2: calibration and the feasibility search over the
/// calibration slice `calib`. With `keep` the feasible search run is
/// the measurement, so it carries the counting sink and is returned.
fn search(cell: &Cell, calib: &EcgRecording, keep: bool) -> Result<Searched, MeasureError> {
    let vfs = VfsTable::ninety_nm_low_leakage();
    // 1. Seed the search with the average per-sample demand (measured at
    // a generous reference clock where real time trivially holds).
    // Busy-wait cores spin between samples, so their active cycles say
    // nothing about the clock requirement; those searches start from the
    // platform's clock floor without a calibration run.
    let (mut required_hz, trace) = if cell.variant.approach() == SyncApproach::BusyWait {
        (vfs.min_clock_hz, None)
    } else {
        let app = cell.build(CALIBRATION_PERIOD)?;
        let (platform, trace) = run_window(
            &app,
            calib.leads.clone(),
            CALIBRATION_PERIOD,
            cell.config.forwarding,
            Purpose::Calibrate,
        )?;
        let stats = platform.stats();
        let samples = stats.adc_samples.max(1) as f64;
        let avg_window = stats
            .cores
            .iter()
            .map(|c| c.active_cycles as f64 / samples)
            .fold(0.0f64, f64::max);
        let seed = vfs.clamp_clock(avg_window * cell.config.fs as f64 * (1.0 + GUARD));
        (seed, Some(trace))
    };

    // 2. Feasibility search: the minimum clock is the lowest at which a
    // calibration slice shows no ADC overruns — the paper's "meeting
    // real-time constraints" criterion (work may pipeline across
    // sampling periods thanks to the data registers and buffering, so
    // worst-window heuristics alone are too conservative).
    let purpose = if keep {
        Purpose::Measure
    } else {
        Purpose::Search
    };
    let mut overruns = 0;
    for step in 0..24 {
        if step > 0 {
            required_hz *= 1.15;
        }
        let period = period_at(cell.config, required_hz);
        // A rung the calibration trace certifies would only repeat the
        // calibration run's per-sample trace, so a run that would be
        // thrown away is skipped. A kept run is the measurement and
        // still runs.
        let rung = benchmark_config(cell.variant.arch(), &cell.options(period));
        if !keep && trace.as_ref().is_some_and(|t| t.certifies(&rung)) {
            return Ok(Searched {
                required_hz,
                kept: None,
                certified: Some(period),
            });
        }
        let app = cell.build(period)?;
        let (platform, _) = run_window(
            &app,
            calib.leads.clone(),
            period,
            cell.config.forwarding,
            purpose,
        )?;
        overruns = platform.adc_overruns();
        if overruns == 0 {
            return Ok(Searched {
                required_hz,
                kept: keep.then_some((app, platform)),
                certified: None,
            });
        }
    }
    Err(MeasureError::NoFeasibleClock {
        clock_hz: required_hz,
        overruns,
    })
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
    let cell = Cell {
        benchmark,
        variant,
        config,
        params,
        cache,
    };
    let calib = calibration_slice(config);
    let full = recording(config, config.duration_s);
    // When the observation window fits inside the calibration slice the
    // recordings are identical, so the successful feasibility run IS the
    // measurement run (the simulator is deterministic): it counts, and
    // it is returned instead of stepping the same window twice.
    let reuse = calib.leads == full.leads;
    let Searched {
        required_hz, kept, ..
    } = search(&cell, &calib, reuse)?;
    // 3. Measurement runs; the calibration slice may have missed the
    // worst window, so residual overruns bump the clock.
    measure_window(&cell, &full, required_hz, kept, 6)
}

/// Step 3: measurement runs over `full` from `required_hz`, bumping the
/// clock on residual overruns, for at most `attempts` runs. `kept`, a
/// feasible search run over the same window, is the first attempt.
fn measure_window(
    cell: &Cell,
    full: &EcgRecording,
    mut required_hz: f64,
    mut kept: Option<(Arc<BuiltApp>, Platform)>,
    attempts: usize,
) -> Result<Measurement, MeasureError> {
    let vfs = VfsTable::ninety_nm_low_leakage();
    let mut overruns = 0;
    for attempt in 0..attempts {
        if attempt > 0 {
            required_hz *= 1.15;
        }
        let op = vfs
            .min_point_for(required_hz, cell.variant.interconnect())
            .ok_or(MeasureError::Infeasible { required_hz })?;
        let (app, platform) = match kept.take() {
            Some(run) => run,
            None => {
                let period = period_at(cell.config, required_hz);
                let app = cell.build(period)?;
                let (platform, _) = run_window(
                    &app,
                    full.leads.clone(),
                    period,
                    cell.config.forwarding,
                    Purpose::Measure,
                )?;
                (app, platform)
            }
        };
        overruns = platform.adc_overruns();
        if overruns == 0 {
            return Ok(assemble(
                cell.benchmark,
                cell.variant,
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

/// The ADC period of the rung at which `benchmark` on `variant` passed
/// its feasibility search without being simulated, or `None` when the
/// search simulated the rung it settled on. The search runs as it does
/// inside [`measure`] when the window is longer than the calibration
/// slice.
///
/// # Errors
///
/// Same conditions as [`measure`]'s search.
#[doc(hidden)]
pub fn certified_rung(
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &ExperimentConfig,
    params: &ClassifierParams,
) -> Result<Option<u64>, MeasureError> {
    let cell = Cell {
        benchmark,
        variant,
        config,
        params,
        cache: &BuildCache::new(),
    };
    let calib = calibration_slice(config);
    Ok(search(&cell, &calib, false)?.certified)
}

/// Simulates the calibration slice of `config` at ADC `period`, whatever
/// its overruns, and returns its tick trace and statistics. At
/// [`CALIBRATION_PERIOD`] this is the calibration run itself.
///
/// # Errors
///
/// Build and simulator failures.
#[doc(hidden)]
pub fn trace_slice(
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &ExperimentConfig,
    params: &ClassifierParams,
    period: u64,
) -> Result<(TickTrace, SimStats), MeasureError> {
    let app = build_app(
        benchmark,
        variant.arch(),
        &build_options(variant, config, period),
        params,
    )?;
    let (platform, trace) = run_window(
        &app,
        calibration_slice(config).leads,
        period,
        config.forwarding,
        Purpose::Calibrate,
    )?;
    Ok((trace, platform.stats().clone()))
}

/// Measures a configuration pinned to a given clock instead of
/// searching for the minimum (the VFS-off ablation: same workload,
/// baseline operating point), with a shared [`BuildCache`] like
/// [`measure_cached`].
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
    let cell = Cell {
        benchmark,
        variant,
        config,
        params,
        cache,
    };
    let full = recording(config, config.duration_s);
    measure_window(&cell, &full, clock_hz, None, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_sim::StallCause;

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
                let (chunked, _) =
                    run_window(&app, leads.clone(), period, false, Purpose::Measure).unwrap();
                let reference = one_shot(&app, leads.clone(), period);
                let cell = format!("{} {}", benchmark.name(), variant.label());
                assert_eq!(chunked.adc_overruns(), 0, "{cell}");
                assert_eq!(chunked.stats(), reference.stats(), "{cell}");
                assert!(obs_summary(&chunked).is_some(), "{cell}");
                // The stall-run histogram holds every stalled cycle once.
                let counting = chunked.obs().recorder().and_then(|r| r.counting());
                let stalled: u64 = StallCause::ALL
                    .into_iter()
                    .map(|cause| chunked.stats().stall_cycles(cause))
                    .sum();
                assert_eq!(counting.unwrap().stall_run_cycles.sum(), stalled, "{cell}");
                assert_eq!(obs_summary(&chunked), obs_summary(&reference), "{cell}");

                // 50 kHz: every benchmark overruns within a few samples.
                let (period, app) = (100, build(100));
                let total = app.config.adc.start_cycle + leads[0].len() as u64 * period;
                let (stopped, _) =
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
