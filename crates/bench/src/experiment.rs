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
//!    When the window is longer than the slice, each simulated rung's
//!    measurement run starts beside its search run, on a second thread:
//!    if the slice passes, that run is step 3's first attempt; if the
//!    slice overruns or faults, it is cancelled at its next sample and
//!    dropped. The helper starts only while fewer threads simulate than
//!    the host runs in parallel (sweep workers count too); otherwise the
//!    rung runs serially, with the same result.
//! 3. **Measure** — re-run the full observation window with the sampling
//!    period implied by the chosen clock (the overlapped run, when the
//!    search simulated its rung), verify no ADC overruns (else climb
//!    again), and integrate the run into the Fig. 6 power decomposition.
//!
//! Only runs that can become the returned [`Measurement`] pay for the
//! counting sink: every measurement attempt, overlapped or not, and the
//! search runs when the window fits inside the calibration slice (then
//! the feasible search run *is* the measurement). Every search or
//! measurement run stops at its first ADC overrun, because an
//! overrunning run is always thrown away. An overlapped run hands its
//! result, fault included, to step 3 unread, and step 3 looks its image
//! up in the cache as the serial attempt would, so the flow returns the
//! same clock, µW figure, digest, error and cache counters as running
//! the three steps one after another.

use std::error::Error;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;

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

impl ExperimentConfig {
    /// Rejects a configuration that describes no recording.
    fn validate(&self) -> Result<(), MeasureError> {
        if !positive_seconds(self.duration_s) {
            return Err(MeasureError::InvalidConfig(
                "duration_s must be finite and positive",
            ));
        }
        if !positive_seconds(self.calibration_s) {
            return Err(MeasureError::InvalidConfig(
                "calibration_s must be finite and positive",
            ));
        }
        if self.fs == 0 {
            return Err(MeasureError::InvalidConfig("fs must be positive"));
        }
        if !(0.0..=1.0).contains(&self.pathological_fraction) {
            return Err(MeasureError::InvalidConfig(
                "pathological_fraction must lie in 0..=1",
            ));
        }
        Ok(())
    }
}

fn positive_seconds(seconds: f64) -> bool {
    seconds.is_finite() && seconds > 0.0
}

/// Parses an observation window in seconds.
///
/// # Errors
///
/// The text is not a finite, positive number.
pub fn parse_duration(text: &str) -> Result<f64, String> {
    match text.parse() {
        Ok(seconds) if positive_seconds(seconds) => Ok(seconds),
        _ => Err(format!(
            "{text:?} is not a finite, positive number of seconds"
        )),
    }
}

/// The observation window of the results binaries: `WBSN_DURATION_S`
/// seconds when set, else `default`. Exits the process with code 2 when
/// the variable is set but not a finite, positive number.
pub fn duration_from_env(default: f64) -> f64 {
    match std::env::var("WBSN_DURATION_S") {
        Err(std::env::VarError::NotPresent) => default,
        value => value
            .map_err(|e| e.to_string())
            .and_then(|text| parse_duration(&text))
            .unwrap_or_else(|e| {
                eprintln!("WBSN_DURATION_S: {e}");
                std::process::exit(2)
            }),
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
    /// The experiment configuration describes no recording: a duration
    /// that is not finite and positive, a zero sampling rate, or a
    /// pathological-beat fraction outside `0..=1`.
    InvalidConfig(&'static str),
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
            MeasureError::InvalidConfig(what) => write!(f, "invalid experiment: {what}"),
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

/// The cancel flag of a run that nothing cancels.
static UNCANCELLED: AtomicBool = AtomicBool::new(false);

/// Threads simulating in this process: every caller inside
/// [`measure_cached`] or [`measure_at_clock_cached`], and every helper
/// running an overlapped measurement.
static SIMULATING: AtomicUsize = AtomicUsize::new(0);

/// One thread's place in [`SIMULATING`], given back on drop.
struct Simulating;

impl Simulating {
    /// Counts the calling thread.
    fn enter() -> Simulating {
        SIMULATING.fetch_add(1, Ordering::Relaxed);
        Simulating
    }

    /// Counts a helper thread if fewer than `threads` threads simulate;
    /// the compare-exchange reserves the place before the helper starts.
    fn reserve(threads: usize) -> Option<Simulating> {
        SIMULATING
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < threads).then_some(n + 1)
            })
            .ok()
            .map(|_| Simulating)
    }
}

impl Drop for Simulating {
    fn drop(&mut self) {
        SIMULATING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The threads the host runs in parallel.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Simulates `leads` on `app` at ADC `period`. The tick trace is
/// recorded for [`Purpose::Calibrate`] runs and left empty otherwise.
/// Once `cancel` is set the run stops at its next sample boundary, and
/// its platform is only fit to be dropped.
fn run_window(
    app: &BuiltApp,
    leads: Vec<Vec<i16>>,
    period: u64,
    forwarding: bool,
    purpose: Purpose,
    cancel: &AtomicBool,
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
        if cancel.load(Ordering::Relaxed) {
            return Ok((platform, trace));
        }
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

/// What becomes of the search run at the rung that passes.
#[derive(Clone, Copy)]
enum Passing<'a> {
    /// It is the measurement: the window is the calibration slice, so
    /// the run carries the counting sink and is returned.
    Kept,
    /// It is thrown away: the window is this longer recording, and each
    /// simulated rung's measurement over it runs beside the search run
    /// on a helper thread, while fewer than `threads` threads simulate.
    Overlapped {
        window: &'a EcgRecording,
        threads: usize,
    },
    /// It is thrown away, and nothing runs beside it.
    Dropped,
}

/// A run that step 2 hands to step 3 as its first measurement attempt.
enum FirstAttempt {
    /// The passing search run, when the window is the slice.
    Kept(Arc<BuiltApp>, Platform),
    /// The measurement run that ran beside the passing search run. Step
    /// 3 reads its result only where the serial attempt would have run,
    /// and looks its image up as that attempt would.
    Overlapped(Result<Platform, SimError>),
}

/// Where steps 1 and 2 left a cell.
struct Searched {
    /// The clock the search settled on.
    required_hz: f64,
    /// Step 3's first attempt, when step 2 already ran it.
    first: Option<FirstAttempt>,
    /// The period of the rung that passed without being simulated.
    certified: Option<u64>,
}

/// Steps 1 and 2: calibration and the feasibility search over the
/// calibration slice `calib`; `passing` says what becomes of the search
/// run at the rung that passes.
fn search(cell: &Cell, calib: &EcgRecording, passing: Passing) -> Result<Searched, MeasureError> {
    let vfs = VfsTable::ninety_nm_low_leakage();
    let forwarding = cell.config.forwarding;
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
            forwarding,
            Purpose::Calibrate,
            &UNCANCELLED,
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
    let keep = matches!(passing, Passing::Kept);
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
                first: None,
                certified: Some(period),
            });
        }
        let app = cell.build(period)?;
        let slice = || {
            run_window(
                &app,
                calib.leads.clone(),
                period,
                forwarding,
                purpose,
                &UNCANCELLED,
            )
        };
        let helper = match passing {
            Passing::Overlapped { window, threads } => {
                Simulating::reserve(threads).map(|place| (window, place))
            }
            Passing::Kept | Passing::Dropped => None,
        };
        let (searched, overlapped) = match helper {
            Some((window, _place)) => {
                // The rung's measurement runs beside its search run, on
                // the same image; it is cancelled unless the slice passes.
                // The flag publishes no data (the join orders the run's
                // result), so it is read and written `Relaxed`.
                let cancel = AtomicBool::new(false);
                thread::scope(|scope| {
                    let measure = scope.spawn(|| {
                        run_window(
                            &app,
                            window.leads.clone(),
                            period,
                            forwarding,
                            Purpose::Measure,
                            &cancel,
                        )
                    });
                    let searched = slice();
                    let passed = matches!(&searched, Ok((p, _)) if p.adc_overruns() == 0);
                    if !passed {
                        cancel.store(true, Ordering::Relaxed);
                    }
                    let measured = measure
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    (searched, passed.then_some(measured))
                })
            }
            // No helper: the rung runs serially, and a passing slice
            // leaves the measurement to step 3.
            None => (slice(), None),
        };
        let (platform, _) = searched?;
        overruns = platform.adc_overruns();
        if overruns == 0 {
            let first = if keep {
                Some(FirstAttempt::Kept(app, platform))
            } else {
                overlapped.map(|run| FirstAttempt::Overlapped(run.map(|(platform, _)| platform)))
            };
            return Ok(Searched {
                required_hz,
                first,
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
    let _caller = Simulating::enter();
    measure_helped(benchmark, variant, config, params, cache, host_threads())
}

/// [`measure_cached`], whose overlapped measurement runs start while
/// fewer than `threads` threads simulate.
fn measure_helped(
    benchmark: BenchmarkId,
    variant: RunVariant,
    config: &ExperimentConfig,
    params: &ClassifierParams,
    cache: &BuildCache,
    threads: usize,
) -> Result<Measurement, MeasureError> {
    config.validate()?;
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
    // it is returned instead of stepping the same window twice. Otherwise
    // each simulated rung's measurement runs beside its search run.
    let passing = if calib.leads == full.leads {
        Passing::Kept
    } else {
        Passing::Overlapped {
            window: &full,
            threads,
        }
    };
    let Searched {
        required_hz, first, ..
    } = search(&cell, &calib, passing)?;
    // 3. Measurement runs; the calibration slice may have missed the
    // worst window, so residual overruns bump the clock.
    measure_window(&cell, &full, required_hz, first, 6)
}

/// Step 3: measurement runs over `full` from `required_hz`, bumping the
/// clock on residual overruns, for at most `attempts` runs. `first`, a
/// run over the same window at `required_hz` that step 2 already made,
/// is the first attempt, and is climbed from like any other when it
/// overran.
fn measure_window(
    cell: &Cell,
    full: &EcgRecording,
    mut required_hz: f64,
    mut first: Option<FirstAttempt>,
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
        let period = period_at(cell.config, required_hz);
        let (app, platform) = match first.take() {
            Some(FirstAttempt::Kept(app, platform)) => (app, platform),
            Some(FirstAttempt::Overlapped(run)) => (cell.build(period)?, run?),
            None => {
                let app = cell.build(period)?;
                let (platform, _) = run_window(
                    &app,
                    full.leads.clone(),
                    period,
                    cell.config.forwarding,
                    Purpose::Measure,
                    &UNCANCELLED,
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
/// slice, without the measurement runs beside it.
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
    config.validate()?;
    let cell = Cell {
        benchmark,
        variant,
        config,
        params,
        cache: &BuildCache::new(),
    };
    let calib = calibration_slice(config);
    Ok(search(&cell, &calib, Passing::Dropped)?.certified)
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
    config.validate()?;
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
        &UNCANCELLED,
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
    let _caller = Simulating::enter();
    config.validate()?;
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
                let (chunked, _) = run_window(
                    &app,
                    leads.clone(),
                    period,
                    false,
                    Purpose::Measure,
                    &UNCANCELLED,
                )
                .unwrap();
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
                let (stopped, _) = run_window(
                    &app,
                    leads.clone(),
                    period,
                    false,
                    Purpose::Search,
                    &UNCANCELLED,
                )
                .unwrap();
                assert!(stopped.adc_overruns() > 0, "{cell}");
                assert!(stopped.stats().cycles < total, "{cell}");
            }
        }
    }

    #[test]
    fn a_cancelled_run_stops_at_its_first_sample_boundary() {
        let params = ClassifierParams::default_trained();
        let config = ExperimentConfig {
            duration_s: 0.5,
            ..ExperimentConfig::default()
        };
        let variant = RunVariant::MultiCoreSync;
        let options = build_options(variant, &config, 8_000);
        let app = build_app(BenchmarkId::Mf, variant.arch(), &options, &params).unwrap();
        let leads = recording(&config, config.duration_s).leads;
        let start = app.config.adc.start_cycle;
        let (whole, _) = run_window(
            &app,
            leads.clone(),
            8_000,
            false,
            Purpose::Measure,
            &UNCANCELLED,
        )
        .unwrap();
        assert_eq!(whole.stats().adc_samples, leads[0].len() as u64);
        let cancel = AtomicBool::new(true);
        let (cancelled, _) =
            run_window(&app, leads, 8_000, false, Purpose::Measure, &cancel).unwrap();
        assert!(
            cancelled.stats().cycles <= start,
            "{}",
            cancelled.stats().cycles
        );
        assert!(cancelled.stats().adc_samples <= 1);
    }

    /// Steps 1 to 3 one after another, with no measurement run beside the
    /// search: the reference the overlapped flow must reproduce.
    fn serial(
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
        let passing = if calib.leads == full.leads {
            Passing::Kept
        } else {
            Passing::Dropped
        };
        let searched = search(&cell, &calib, passing)?;
        measure_window(&cell, &full, searched.required_hz, searched.first, 6)
    }

    /// Measures one cell with the overlapped flow and the serial
    /// reference, each on its own cache, and requires the same outcome
    /// and the same cache counters.
    fn assert_overlap_changes_nothing(
        benchmark: BenchmarkId,
        variant: RunVariant,
        config: &ExperimentConfig,
        params: &ClassifierParams,
    ) {
        let label = format!(
            "{} {} seed {} slice {} s",
            benchmark.name(),
            variant.label(),
            config.seed,
            config.calibration_s
        );
        let (cache, reference_cache) = (BuildCache::new(), BuildCache::new());
        // Tests run in parallel, so the overlapped path is forced
        // whatever the other threads simulate.
        let overlapped = measure_helped(benchmark, variant, config, params, &cache, usize::MAX);
        let reference = serial(benchmark, variant, config, params, &reference_cache);
        match (&overlapped, &reference) {
            (Ok(m), Ok(r)) => {
                assert_eq!(m.clock_hz.to_bits(), r.clock_hz.to_bits(), "{label}");
                assert_eq!(m.op, r.op, "{label}");
                assert_eq!(m.stats, r.stats, "{label}");
                assert_eq!(m.obs, r.obs, "{label}");
                let bits = |b: &PowerBreakdown| {
                    [
                        b.cores_and_logic_uw,
                        b.prog_mem_uw,
                        b.data_mem_uw,
                        b.interconnect_uw,
                        b.clock_tree_uw,
                    ]
                    .map(f64::to_bits)
                };
                assert_eq!(bits(&m.breakdown), bits(&r.breakdown), "{label}");
                assert_eq!(format!("{m:?}"), format!("{r:?}"), "{label}");
            }
            _ => assert_eq!(
                format!("{overlapped:?}"),
                format!("{reference:?}"),
                "{label}"
            ),
        }
        assert_eq!(cache.hits(), reference_cache.hits(), "{label}");
        assert_eq!(cache.misses(), reference_cache.misses(), "{label}");
    }

    /// Every benchmark × variant of `seed` at 3 s / 2 s.
    fn assert_overlap_changes_no_cell(seed: u64) {
        let params = ClassifierParams::default_trained();
        let config = ExperimentConfig {
            seed,
            ..quick_config()
        };
        let variants = [
            RunVariant::SingleCore,
            RunVariant::MultiCoreSync,
            RunVariant::MultiCoreBusyWait,
        ];
        for benchmark in BenchmarkId::ALL {
            for variant in variants {
                assert_overlap_changes_nothing(benchmark, variant, &config, &params);
            }
        }
    }

    #[test]
    fn overlapped_measurement_runs_change_no_result() {
        assert_overlap_changes_no_cell(0xEC60);
    }

    #[test]
    fn overlapped_measurement_runs_change_no_result_on_the_held_out_seed() {
        assert_overlap_changes_no_cell(2014);
    }

    #[test]
    fn step_3_climbs_from_a_kept_overlapped_run_that_overran() {
        // No grid cell has been seen to keep an overlapped run that then
        // overruns, so step 3 is handed one directly: RP-CLASS SC's
        // window, two ×1.15 rungs below the clock it settles on.
        let params = ClassifierParams::default_trained();
        let config = quick_config();
        let (benchmark, variant) = (BenchmarkId::RpClass, RunVariant::SingleCore);
        let settled = measure(benchmark, variant, &config, &params).unwrap();
        let start_hz = settled.clock_hz / 1.15 / 1.15;
        let period = period_at(&config, start_hz);
        let full = recording(&config, config.duration_s);
        let (cache, reference_cache) = (BuildCache::new(), BuildCache::new());
        let cell = |cache| Cell {
            benchmark,
            variant,
            config: &config,
            params: &params,
            cache,
        };
        // Each flow looks the rung's image up once, as its search did.
        let app = cell(&cache).build(period).unwrap();
        cell(&reference_cache).build(period).unwrap();
        let (kept, _) = run_window(
            &app,
            full.leads.clone(),
            period,
            config.forwarding,
            Purpose::Measure,
            &UNCANCELLED,
        )
        .unwrap();
        assert!(kept.adc_overruns() > 0, "the kept run must overrun");
        let first = Some(FirstAttempt::Overlapped(Ok(kept)));
        let climbed = measure_window(&cell(&cache), &full, start_hz, first, 6).unwrap();
        let reference = measure_window(&cell(&reference_cache), &full, start_hz, None, 6).unwrap();
        assert!(climbed.clock_hz > start_hz);
        assert_eq!(format!("{climbed:?}"), format!("{reference:?}"));
        assert_eq!(cache.hits(), reference_cache.hits());
        assert_eq!(cache.misses(), reference_cache.misses());
    }

    #[test]
    fn durations_that_describe_no_recording_are_errors() {
        let params = ClassifierParams::default_trained();
        let bad = [0.0, -1.0, f64::NAN, f64::INFINITY];
        let configs = bad
            .iter()
            .map(|&seconds| ExperimentConfig {
                duration_s: seconds,
                ..quick_config()
            })
            .chain(bad.iter().map(|&seconds| ExperimentConfig {
                calibration_s: seconds,
                ..quick_config()
            }))
            .chain([
                ExperimentConfig {
                    fs: 0,
                    ..quick_config()
                },
                ExperimentConfig {
                    pathological_fraction: f64::NAN,
                    ..quick_config()
                },
                ExperimentConfig {
                    pathological_fraction: 1.5,
                    ..quick_config()
                },
            ]);
        for config in configs {
            match measure(BenchmarkId::Mf, RunVariant::SingleCore, &config, &params) {
                Err(MeasureError::InvalidConfig(_)) => {}
                other => panic!("{config:?}: expected InvalidConfig, got {other:?}"),
            }
        }
        for text in ["0", "-1", "nan", "NaN", "inf", "-inf", "", "5s"] {
            assert!(parse_duration(text).is_err(), "{text:?}");
        }
        assert_eq!(parse_duration("2.5"), Ok(2.5));
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
