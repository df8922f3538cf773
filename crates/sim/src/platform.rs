//! The platform: cores, memories, crossbars, ATU, synchronizer and ADC
//! wired together by a cycle-accurate event loop.

use wbsn_core::{CoreId, Synchronizer, MAX_CORES};
use wbsn_isa::{DecodedImage, DecodedInstr, Instr, LinkedImage, MemClass, IM_WORDS};
use wbsn_obs::{Obs, ObsConfig, StallCause};

use crate::adc::Adc;
use crate::atu::{Atu, DmLocation, DmTarget};
use crate::config::{InterconnectKind, PlatformConfig};
use crate::cpu::{Core, MemIntent, Retire};
use crate::error::{ConfigError, Fault, FaultKind, SimError};
use crate::memory::{DataMemory, InstrMemory};
use crate::mmio::MmioReg;
use crate::stats::SimStats;
use crate::watchdog::{CoreDump, PhaseAttribution, PointDump, PostMortem, WatchdogTrip};
use crate::xbar::{arbitrate_into, Grant, Request};

/// Why a [`Platform::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every core executed `HALT`.
    AllHalted,
    /// All remaining cores are clock-gated and no further event (ADC
    /// sample or synchronization) can ever wake them — the workload is
    /// finished.
    Quiescent,
    /// The cycle budget was exhausted first.
    CycleLimit,
    /// A core reached a breakpoint (the instruction at that address has
    /// not executed yet).
    Breakpoint {
        /// The stopped core.
        core: usize,
        /// The breakpoint address.
        pc: u32,
    },
    /// A watched data address was written.
    Watchpoint {
        /// The writing core.
        core: usize,
        /// The watched (core-visible) address.
        addr: u32,
    },
}

#[derive(Debug)]
struct Slot {
    core: Core,
    /// Fetched (predecoded) instruction waiting to execute (set while
    /// stalled on hazards or data-memory arbitration).
    held: Option<DecodedInstr>,
    /// The next cycle is a taken-branch fetch bubble.
    bubble: bool,
    /// The core participates in the workload (an entry point was linked).
    present: bool,
    /// While gated: the first cycle whose gated time is not yet charged
    /// to the core's `gated_cycles` (see [`Platform::flush_gated`]).
    gated_since: u64,
    /// The open stall run: its cause and length in cycles.
    stall_run: Option<(StallCause, u64)>,
}

/// The word a ready instruction retires with: its loaded value, or
/// `None` for stores and instructions without a memory operand.
type Load = Option<u16>;

/// What an awake slot does with the rest of a cycle once it is
/// accounted.
#[derive(Debug, Clone, Copy)]
enum Issue {
    /// Spends the cycle in a taken-branch bubble.
    Bubble,
    /// Fetches its next instruction from this address.
    Fetch(u32),
    /// Still holds an instruction from an earlier cycle.
    Held,
}

/// A banked data-memory access waiting for its grant.
#[derive(Debug, Clone, Copy)]
struct DmAccess {
    core: usize,
    location: DmLocation,
    /// The core-visible address (watchpoints match on it).
    addr: u32,
    store: Option<u16>,
}

/// Where the held instruction stands after its hazard check.
#[derive(Debug, Clone, Copy)]
enum Resolved {
    /// Interlocked by a load-use hazard this cycle.
    Hazard,
    /// Retires without a banked data-memory access.
    Ready(Load),
    /// Needs a data-memory grant first.
    Dm(DmAccess),
}

/// An unused entry of the N-slot driver's per-cycle request buffers.
const NO_REQUEST: Request = Request {
    core: 0,
    bank: 0,
    addr: 0,
    write: false,
};

/// An unused entry of the N-slot driver's per-cycle access buffer.
const NO_ACCESS: DmAccess = DmAccess {
    core: 0,
    location: DmLocation { bank: 0, row: 0 },
    addr: 0,
    store: None,
};

// The awake mask holds one bit per core.
const _: () = assert!(MAX_CORES <= u8::BITS as usize);

/// The simulated WBSN platform.
///
/// See the [crate-level example](crate) for the typical
/// assemble–link–run flow.
#[derive(Debug)]
pub struct Platform {
    config: PlatformConfig,
    atu: Atu,
    /// The image's words, read only by the decode-per-cycle oracle.
    #[cfg(any(test, feature = "slow-decode"))]
    im: InstrMemory,
    decoded: DecodedImage,
    dm: DataMemory,
    slots: Vec<Slot>,
    /// Re-decode the binary word on every fetch instead of using the
    /// predecoded image — the differential oracle for the fast path.
    #[cfg(any(test, feature = "slow-decode"))]
    slow_decode: bool,
    synchronizer: Synchronizer,
    adc: Adc,
    stats: SimStats,
    /// Observability recorder, including the retirement ring; a
    /// disabled handle is a `None` check per hook.
    obs: Obs,
    breakpoints: Vec<u32>,
    watchpoints: Vec<u32>,
    watch_hit: Option<(usize, u32)>,
    /// Stall budget in cycles; `None` disables the watchdog.
    watchdog: Option<u64>,
    /// Last cycle at which progress (an instruction retirement or an
    /// accounted idle skip) was observed.
    last_progress_cycle: u64,
    /// Total retired instructions at the last progress observation.
    last_instr_total: u64,
    /// Number of present cores (fixed at construction).
    live_count: usize,
    /// Present cores that have executed `HALT` (halting is sticky).
    halted_count: usize,
    /// Running total of retired instructions across all cores, kept
    /// incrementally so the watchdog check is O(1) per cycle.
    instr_retired: u64,
    /// The cores that clock this cycle, one bit per slot: present, not
    /// halted, not gated. Changed only at construction, by a `HALT`
    /// retirement and by the synchronizer's slept and woken sets. The
    /// drivers step only these slots, and an empty mask means the
    /// platform is idle.
    awake: u8,
    /// Cycles advanced by [`Platform::idle_until`] instead of stepped.
    fast_forwarded: u64,
}

/// The indices of the set bits of a core mask, lowest first.
#[inline(always)]
fn bits(mut mask: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let idx = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            idx
        })
    })
}

impl Platform {
    /// Builds a platform from a configuration and a linked image.
    ///
    /// Cores without a linked entry point are treated as absent (they
    /// never clock). Initial data-memory segments are loaded through
    /// core 0's address map.
    ///
    /// # Errors
    ///
    /// Returns configuration errors, faults for initial data falling into
    /// reserved regions, and synchronizer construction errors.
    pub fn new(config: PlatformConfig, image: &LinkedImage) -> Result<Platform, SimError> {
        config.validate()?;
        let flat = config.interconnect == InterconnectKind::Decoder;
        let atu = Atu::new(
            config.cores,
            config.shared_words,
            config.sync_base,
            config.sync_points,
            flat,
        );
        #[cfg(any(test, feature = "slow-decode"))]
        let im = InstrMemory::from_image(image.im_words());
        let decoded = DecodedImage::from_words(image.im_words());
        let mut dm = DataMemory::new();
        for (addr, word) in image.dm_init() {
            match atu.translate(0, addr) {
                Ok(DmTarget::Memory { location, .. }) => dm.write(location, word),
                _ => {
                    return Err(Fault {
                        core: 0,
                        pc: 0,
                        addr,
                        kind: FaultKind::DmOutOfRange,
                    }
                    .into())
                }
            }
        }
        let synchronizer = Synchronizer::new(config.cores, config.sync_points)?;
        let slots = (0..config.cores)
            .map(|id| {
                let entry = image.entry(id);
                let mut core = Core::new(id, entry.unwrap_or(0));
                let present = entry.is_some();
                if !present {
                    // Absent cores stay permanently off.
                    core.set_gated(true);
                }
                Slot {
                    core,
                    held: None,
                    bubble: false,
                    present,
                    gated_since: 0,
                    stall_run: None,
                }
            })
            .collect::<Vec<_>>();
        let adc = Adc::new(config.adc, Vec::new());
        let stats = SimStats::new(config.cores);
        let awake = slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.present)
            .fold(0u8, |mask, (idx, _)| mask | 1 << idx);
        let live_count = awake.count_ones() as usize;
        Ok(Platform {
            config,
            atu,
            #[cfg(any(test, feature = "slow-decode"))]
            im,
            decoded,
            dm,
            slots,
            #[cfg(any(test, feature = "slow-decode"))]
            slow_decode: false,
            synchronizer,
            adc,
            stats,
            obs: Obs::off(),
            breakpoints: Vec::new(),
            watchpoints: Vec::new(),
            watch_hit: None,
            watchdog: None,
            last_progress_cycle: 0,
            last_instr_total: 0,
            live_count,
            halted_count: 0,
            instr_retired: 0,
            awake,
            fast_forwarded: 0,
        })
    }

    /// Replaces the ADC sample streams (one per channel). Call before
    /// running.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TooManyAdcStreams`] when more streams than
    /// ADC channels are supplied.
    pub fn set_adc_streams(&mut self, streams: Vec<Vec<i16>>) -> Result<(), SimError> {
        let channels = self.config.adc.channels;
        if streams.len() > channels {
            return Err(ConfigError::TooManyAdcStreams {
                streams: streams.len(),
                channels,
            }
            .into());
        }
        self.adc = Adc::new(self.config.adc, streams);
        Ok(())
    }

    /// Preloads a synchronization point (a building directive).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown points.
    pub fn preload_sync_point(
        &mut self,
        point: u16,
        count: u8,
        auto_reload: bool,
    ) -> Result<(), SimError> {
        self.synchronizer
            .preload(point, count, auto_reload)
            .map_err(SimError::from)
    }

    /// Configures a preloaded auto-reload barrier on a synchronization
    /// point (a building directive; see
    /// [`Synchronizer::preload_barrier`]).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown points.
    pub fn preload_barrier(
        &mut self,
        point: u16,
        count: u8,
        participants: wbsn_core::CoreSet,
    ) -> Result<(), SimError> {
        self.synchronizer
            .preload_barrier(point, count, participants)
            .map_err(SimError::from)
    }

    /// Switches instruction fetch to the legacy decode-per-cycle path:
    /// every fetch re-decodes the 24-bit word from the instruction
    /// memory instead of using the image predecoded at load time.
    ///
    /// This is the differential oracle for the predecoded fast path —
    /// architectural state, statistics and traces must be identical
    /// either way. Only available in tests and under the `slow-decode`
    /// feature; production builds always use the fast path.
    #[cfg(any(test, feature = "slow-decode"))]
    pub fn set_slow_decode(&mut self, slow: bool) {
        self.slow_decode = slow;
    }

    /// Enables or disables the memory→execute forwarding path.
    ///
    /// With forwarding on, a consumer issued immediately after a load
    /// of one of its sources no longer pays the one-cycle load-use
    /// hazard stall. Defaults to off in both presets, matching the
    /// paper's pipeline.
    pub fn set_forwarding(&mut self, on: bool) {
        self.config.forwarding = on;
    }

    /// Attaches an observability recorder: from the next cycle on, the
    /// platform emits the typed event stream (synchronizer, power,
    /// phase, ADC, stall runs) into the sinks selected by `config`, and
    /// keeps the last `config.ring` events, retirements and stalled
    /// cycles in the recorder's ring.
    ///
    /// Call [`Platform::finish_obs`] after the last cycle to close open
    /// stall runs and gated intervals before reading results.
    pub fn enable_obs(&mut self, config: ObsConfig) {
        self.obs.enable(self.config.cores, config);
    }

    /// The observability handle (disabled unless
    /// [`Platform::enable_obs`] was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Ends the observation: closes open stall runs, attributes open
    /// gated intervals, and lets sinks close open timeline slices.
    /// Idempotent; a no-op when observability is disabled.
    pub fn finish_obs(&mut self) {
        let cycle = self.stats.cycles;
        (0..self.slots.len()).for_each(|idx| self.close_stall_run(cycle, idx));
        self.obs.finish(cycle);
    }

    /// Adds an instruction breakpoint: [`Platform::run`] stops with
    /// [`RunExit::Breakpoint`] when any core is about to execute `pc`.
    pub fn add_breakpoint(&mut self, pc: u32) {
        if !self.breakpoints.contains(&pc) {
            self.breakpoints.push(pc);
        }
    }

    /// Adds a data watchpoint: [`Platform::run`] stops with
    /// [`RunExit::Watchpoint`] after any core writes the (core-visible)
    /// address.
    pub fn add_watchpoint(&mut self, addr: u32) {
        if !self.watchpoints.contains(&addr) {
            self.watchpoints.push(addr);
        }
    }

    /// Arms the runtime watchdog: [`Platform::run`] returns
    /// [`SimError::Watchdog`] with a [`PostMortem`] instead of exiting
    /// [`RunExit::Quiescent`] when gated cores wait on synchronization
    /// points that can never fire, and instead of spinning when no
    /// instruction retires for `stall_cycles` cycles.
    ///
    /// The watchdog is off by default so that workloads ending in an
    /// intentional final sleep keep their quiescent exit.
    pub fn set_watchdog(&mut self, stall_cycles: u64) {
        self.watchdog = Some(stall_cycles.max(1));
        self.last_progress_cycle = self.stats.cycles;
        self.last_instr_total = self.instr_retired;
    }

    /// Present, unhalted, gated cores that are flagged in at least one
    /// synchronization point — cores expecting a wake.
    fn sync_waiters(&self) -> Vec<usize> {
        let mut flagged = wbsn_core::CoreSet::empty();
        for point in 0..self.config.sync_points as u16 {
            if let Ok(value) = self.synchronizer.point_value(point) {
                flagged = flagged.union(value.flags());
            }
        }
        self.slots
            .iter()
            .enumerate()
            .filter(|(idx, slot)| {
                slot.present
                    && !slot.core.is_halted()
                    && slot.core.is_gated()
                    && CoreId::new(*idx).is_ok_and(|c| flagged.contains(c))
            })
            .map(|(idx, _)| idx)
            .collect()
    }

    /// Captures the platform state for a watchdog report.
    fn post_mortem(&self, trip: WatchdogTrip) -> PostMortem {
        let cores = self
            .slots
            .iter()
            .enumerate()
            .map(|(idx, slot)| CoreDump {
                core: idx,
                pc: slot.core.pc(),
                halted: slot.core.is_halted(),
                gated: slot.core.is_gated(),
                present: slot.present,
            })
            .collect();
        let points = (0..self.config.sync_points as u16)
            .map(|point| PointDump {
                point,
                value: self
                    .synchronizer
                    .point_value(point)
                    .expect("configured point"),
                armed: self
                    .synchronizer
                    .point_armed(point)
                    .expect("configured point"),
            })
            .collect();
        let (obs_tail, phase_profile) = self.obs_post_mortem();
        PostMortem {
            cycle: self.stats.cycles,
            trip,
            cores,
            points,
            obs_tail,
            phase_profile,
        }
    }

    /// The observability half of a post-mortem: the rendered tail of the
    /// event ring and the per-(core, phase) attribution, when a recorder
    /// with those sinks is attached.
    fn obs_post_mortem(&self) -> (Vec<String>, Vec<PhaseAttribution>) {
        let Some(recorder) = self.obs.recorder() else {
            return (Vec::new(), Vec::new());
        };
        let obs_tail = recorder.tail_rendered(16);
        let phase_profile = recorder
            .profiler()
            .map(|profiler| {
                profiler
                    .rows()
                    .into_iter()
                    .map(|row| PhaseAttribution {
                        core: row.core,
                        phase: row.phase,
                        active_cycles: row.counters.active_cycles,
                        instructions: row.counters.instructions,
                    })
                    .collect()
            })
            .unwrap_or_default();
        (obs_tail, phase_profile)
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Cycles the clock was advanced without stepping them: the run
    /// loop's skips over all-gated stretches and explicit
    /// [`Platform::idle_until`] calls. The remaining
    /// `stats().cycles - fast_forwarded_cycles()` were stepped.
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.fast_forwarded
    }

    /// The synchronizer (for inspection in tests and harnesses).
    pub fn synchronizer(&self) -> &Synchronizer {
        &self.synchronizer
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// A core's architectural state.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: usize) -> &Core {
        &self.slots[core].core
    }

    /// ADC overruns observed so far.
    pub fn adc_overruns(&self) -> u64 {
        self.adc.overruns()
    }

    /// Reads a data word through core 0's address map (test/harness
    /// convenience).
    ///
    /// # Errors
    ///
    /// Returns a fault for untranslatable addresses.
    pub fn peek_dm(&self, addr: u32) -> Result<u16, SimError> {
        self.peek_dm_for_core(0, addr)
    }

    /// Reads a data word through `core`'s address map.
    ///
    /// # Errors
    ///
    /// Returns a fault for untranslatable addresses.
    pub fn peek_dm_for_core(&self, core: usize, addr: u32) -> Result<u16, SimError> {
        match self.atu.translate(core, addr) {
            Ok(DmTarget::Memory { location, .. }) => Ok(self.dm.read(location)),
            Ok(DmTarget::SyncPoint(p)) => Ok(self
                .synchronizer
                .point_value(p)
                .map(|v| v.to_word())
                .map_err(SimError::from)?),
            Ok(DmTarget::Mmio(_)) => Ok(0),
            Err(kind) => Err(Fault {
                core,
                pc: self.slots[core].core.pc(),
                addr,
                kind,
            }
            .into()),
        }
    }

    /// Writes a data word through `core`'s address map (loader/test
    /// convenience).
    ///
    /// # Errors
    ///
    /// Returns a fault for untranslatable or reserved addresses.
    pub fn poke_dm_for_core(&mut self, core: usize, addr: u32, value: u16) -> Result<(), SimError> {
        match self.atu.translate(core, addr) {
            Ok(DmTarget::Memory { location, .. }) => {
                self.dm.write(location, value);
                Ok(())
            }
            Ok(_) => Err(Fault {
                core,
                pc: 0,
                addr,
                kind: FaultKind::WriteToSyncRegion,
            }
            .into()),
            Err(kind) => Err(Fault {
                core,
                pc: 0,
                addr,
                kind,
            }
            .into()),
        }
    }

    /// Runs until every core halts, the platform becomes quiescent, or
    /// `max_cycles` elapse.
    ///
    /// When every live core is clock-gated, the loop fast-forwards to the
    /// next ADC event instead of stepping empty cycles, charging the
    /// skipped time to the gated counters — this is what makes minutes of
    /// simulated bio-signal time affordable.
    ///
    /// # Errors
    ///
    /// Returns the first fault or synchronization protocol violation.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunExit, SimError> {
        let exit = self.run_with(max_cycles, Platform::advance);
        self.flush_gated();
        exit
    }

    /// The run loop around one cycle driver, which advances at least one
    /// cycle and never past `max_cycles`.
    fn run_with(
        &mut self,
        max_cycles: u64,
        step: impl Fn(&mut Platform, u64) -> Result<(), SimError>,
    ) -> Result<RunExit, SimError> {
        while self.stats.cycles < max_cycles {
            debug_assert!(self.awake_mask_is_exact());
            if self.halted_count == self.live_count {
                debug_assert!(self.all_halted());
                return Ok(RunExit::AllHalted);
            }
            if !self.breakpoints.is_empty() {
                for idx in bits(self.awake) {
                    let slot = &self.slots[idx];
                    if slot.held.is_none() && self.breakpoints.contains(&slot.core.pc()) {
                        return Ok(RunExit::Breakpoint {
                            core: idx,
                            pc: slot.core.pc(),
                        });
                    }
                }
            }
            if self.awake == 0 {
                match self.adc.next_tick() {
                    Some(tick) if tick < max_cycles => {
                        if tick > self.stats.cycles {
                            self.idle_until(tick);
                            // An accounted idle skip is progress, not a
                            // stall.
                            self.last_progress_cycle = tick;
                        }
                    }
                    _ => {
                        if self.watchdog.is_some() {
                            let waiting = self.sync_waiters();
                            if !waiting.is_empty() {
                                return Err(SimError::Watchdog(Box::new(
                                    self.post_mortem(WatchdogTrip::Deadlock { waiting }),
                                )));
                            }
                        }
                        return Ok(RunExit::Quiescent);
                    }
                }
            }
            step(self, max_cycles)?;
            if let Some((core, addr)) = self.watch_hit.take() {
                return Ok(RunExit::Watchpoint { core, addr });
            }
            if let Some(budget) = self.watchdog {
                let instr_total = self.instr_retired;
                if instr_total != self.last_instr_total {
                    self.last_instr_total = instr_total;
                    self.last_progress_cycle = self.stats.cycles;
                } else if self.stats.cycles - self.last_progress_cycle > budget {
                    return Err(SimError::Watchdog(Box::new(
                        self.post_mortem(WatchdogTrip::Stall { budget }),
                    )));
                }
            }
        }
        Ok(RunExit::CycleLimit)
    }

    fn all_halted(&self) -> bool {
        self.slots.iter().all(|s| !s.present || s.core.is_halted())
    }

    /// The awake mask agrees with a scan of the slots (present, not
    /// halted, not gated), and only awake slots hold an instruction or
    /// sit in a bubble.
    fn awake_mask_is_exact(&self) -> bool {
        self.slots.iter().enumerate().all(|(idx, slot)| {
            let scanned = slot.present && !slot.core.is_halted() && !slot.core.is_gated();
            let awake = self.awake & (1 << idx) != 0;
            scanned == awake && (awake || (slot.held.is_none() && !slot.bubble))
        })
    }

    /// Charges every gated live core the gated cycles since its last
    /// charge. Gated time is otherwise charged only when a core wakes, so
    /// every public entry point that advances the clock ends here to keep
    /// [`Platform::stats`] exact between calls.
    fn flush_gated(&mut self) {
        let now = self.stats.cycles;
        for (slot, cs) in self.slots.iter_mut().zip(&mut self.stats.cores) {
            if slot.present && !slot.core.is_halted() && slot.core.is_gated() {
                cs.gated_cycles += now - slot.gated_since;
                slot.gated_since = now;
            }
        }
    }

    /// Advances the platform clock to `target` with every live core
    /// clock-gated — used by harnesses to account a fixed wall-clock
    /// observation window after the workload quiesces (leakage and the
    /// clock trunk keep accruing). Awake cores are charged the skipped
    /// cycles as gated too.
    pub fn idle_until(&mut self, target: u64) {
        if target <= self.stats.cycles {
            return;
        }
        let skip = target - self.stats.cycles;
        for idx in bits(self.awake) {
            self.stats.cores[idx].gated_cycles += skip;
        }
        self.fast_forwarded += skip;
        self.stats.cycles = target;
        self.flush_gated();
    }

    /// Executes exactly one cycle.
    ///
    /// # Errors
    ///
    /// Returns the first fault or synchronization protocol violation.
    pub fn step(&mut self) -> Result<(), SimError> {
        let stepped = self.advance(self.stats.cycles + 1);
        self.flush_gated();
        stepped
    }

    /// The cycle driver of the run loop: the arbitrated driver for one
    /// cycle when two or more cores are awake, a burst otherwise. The
    /// burst stops at `max_cycles`, or after one cycle when a breakpoint
    /// or a watchdog budget below 2 needs a check between cycles. The
    /// test sits in the burst branch, so arbitrated cycles pay nothing
    /// for it.
    #[inline(always)]
    fn advance(&mut self, max_cycles: u64) -> Result<(), SimError> {
        if self.awake & self.awake.wrapping_sub(1) != 0 {
            return self.step_arbitrated();
        }
        let limit = if self.breakpoints.is_empty() && self.watchdog.is_none_or(|b| b >= 2) {
            max_cycles
        } else {
            self.stats.cycles + 1
        };
        self.burst(limit)
    }

    /// One cycle of the stage pipeline for any number of awake slots:
    /// their requests are gathered, in slot order, into buffers on the
    /// stack, the crossbars arbitrate them, and each grant is applied in
    /// request order. A decoder serves only a lone core, whose single
    /// request [`arbitrate_into`] always grants.
    fn step_arbitrated(&mut self) -> Result<(), SimError> {
        let cycle = self.stats.cycles;
        let broadcast = self.config.broadcast;
        self.tick_adc(cycle);
        // Only retirement and commit (stages 6 and 7) change the mask,
        // so this snapshot holds for the gathering stages.
        let awake = self.awake;

        let mut fetches = [NO_REQUEST; MAX_CORES];
        let mut fetching = 0;
        let mut lockstep = broadcast;
        for idx in bits(awake) {
            if let Issue::Fetch(pc) = self.issue(cycle, idx)? {
                fetches[fetching] = Request {
                    core: idx,
                    bank: InstrMemory::bank_of(pc),
                    addr: pc,
                    write: false,
                };
                lockstep &= pc == fetches[0].addr;
                fetching += 1;
            }
        }
        let fetches = &fetches[..fetching];
        if lockstep && fetching > 0 {
            self.fetch_group(cycle, fetches)?;
        } else {
            self.fetch_arbitrated(cycle, fetches)?;
        }

        let mut ready = [(0, None); MAX_CORES];
        let mut readied = 0;
        let mut dm_reqs = [NO_REQUEST; MAX_CORES];
        let mut dm_meta = [NO_ACCESS; MAX_CORES];
        let mut accessing = 0;
        for idx in bits(awake) {
            if self.slots[idx].held.is_none() {
                continue;
            }
            match self.resolve(cycle, idx)? {
                Resolved::Hazard => {}
                Resolved::Ready(load) => {
                    ready[readied] = (idx, load);
                    readied += 1;
                }
                Resolved::Dm(access) => {
                    dm_reqs[accessing] = Request {
                        core: idx,
                        bank: access.location.bank,
                        addr: access.addr,
                        write: access.store.is_some(),
                    };
                    dm_meta[accessing] = access;
                    accessing += 1;
                }
            }
        }

        // Broadcast loads observe the winner's value; resolve accesses in
        // grant order: all reads of one address see the pre-write value
        // only if no write won — writes and reads of the same address
        // never both win in one cycle, so read-after-write hazards within
        // a cycle cannot occur.
        let mut dm_grants = [Grant::Stall; MAX_CORES];
        arbitrate_into(
            &dm_reqs[..accessing],
            cycle as usize,
            broadcast,
            &mut dm_grants,
        );
        for (&access, &grant) in dm_meta[..accessing].iter().zip(&dm_grants) {
            if let Some(load) = self.dm_grant(cycle, access, grant) {
                ready[readied] = (access.core, load);
                readied += 1;
            }
        }

        for &(idx, load) in &ready[..readied] {
            self.retire(cycle, idx, load)?;
        }
        self.commit(cycle)
    }

    /// Stage 3 for the fetch requests of one cycle: the instruction
    /// crossbar arbitrates them and each grant is applied in request
    /// order.
    #[inline(always)]
    fn fetch_arbitrated(&mut self, cycle: u64, fetches: &[Request]) -> Result<(), SimError> {
        let mut grants = [Grant::Stall; MAX_CORES];
        arbitrate_into(fetches, cycle as usize, self.config.broadcast, &mut grants);
        for (req, &grant) in fetches.iter().zip(&grants) {
            self.fetch(cycle, req.core, req.addr, grant)?;
        }
        Ok(())
    }

    /// Stage 3 for a lock-step group: every fetching slot requests the
    /// same word with broadcast on. Arbitration gives the slot with the
    /// highest rotating priority the access and the others the
    /// broadcast, so the word is decoded once, one bank read and the
    /// broadcasts are counted, and every slot holds the same
    /// instruction. A word that does not decode takes the arbitrated
    /// path, whose first request faults once its grant is counted.
    #[inline(always)]
    fn fetch_group(&mut self, cycle: u64, fetches: &[Request]) -> Result<(), SimError> {
        let pc = fetches[0].addr;
        let Some(instr) = self.fetch_decoded(pc) else {
            return self.fetch_arbitrated(cycle, fetches);
        };
        let bank = fetches[0].bank;
        self.stats.im.reads[bank] += 1;
        self.stats.im.broadcasts += fetches.len() as u64 - 1;
        if self.crossbar() {
            self.stats.xbar_im += fetches.len() as u64;
        }
        for req in fetches {
            self.obs.im_access(cycle, bank);
            self.slots[req.core].held = Some(instr);
        }
        Ok(())
    }

    /// Stages 2–6 for the lone awake slot `idx`; `true` when an
    /// instruction retired.
    #[inline(always)]
    fn lone_slot(&mut self, cycle: u64, idx: usize) -> Result<bool, SimError> {
        match self.issue(cycle, idx)? {
            Issue::Bubble => return Ok(false),
            Issue::Fetch(pc) => self.fetch(cycle, idx, pc, Grant::Access)?,
            Issue::Held => {}
        }
        let load = match self.resolve(cycle, idx)? {
            Resolved::Hazard => return Ok(false),
            Resolved::Ready(load) => load,
            Resolved::Dm(access) => self
                .dm_grant(cycle, access, Grant::Access)
                .expect("a granted access completes"),
        };
        self.retire(cycle, idx, load)?;
        Ok(true)
    }

    /// The same pipeline for at most one awake core, stepped from this
    /// cycle, whose ADC tick it runs, up to the next tick or `limit`,
    /// whichever comes first (with no core awake, this cycle alone). A
    /// lone request always wins its bank, so gathering and arbitration
    /// collapse into an implicit [`Grant::Access`]; the stages are
    /// `#[inline(always)]` so that this constant grant folds away (left
    /// to the inliner, single-core throughput dropped by about a quarter
    /// on a 2-vCPU x86-64 host).
    ///
    /// Until the next tick nothing outside the core can change the
    /// platform, so the loop leaves out what [`Platform::run_with`]
    /// checks every cycle: the halted count, breakpoints (the caller
    /// admits none past the first cycle), the empty mask and the ADC. It
    /// ends after the cycle that stages a sync op, sleep or interrupt,
    /// halts the core or hits a watchpoint, and on a fault.
    ///
    /// The watchdog is checked once, after the burst. A lone core
    /// stalls at most one cycle between retirements (a taken-branch
    /// bubble or a load-use hazard, each right after a retirement), so
    /// a budget of 2 or more cannot trip inside a burst; the caller
    /// passes a one-cycle limit for smaller budgets. The progress state
    /// is left as per-cycle stepping leaves it.
    fn burst(&mut self, limit: u64) -> Result<(), SimError> {
        self.tick_adc(self.stats.cycles);
        let mask = self.awake;
        if mask == 0 {
            return self.commit(self.stats.cycles);
        }
        let end = self.adc.next_tick().map_or(limit, |tick| tick.min(limit));
        let idx = mask.trailing_zeros() as usize;
        let mut last_retired = None;
        let ended = loop {
            let cycle = self.stats.cycles;
            match self.lone_slot(cycle, idx) {
                Ok(true) => last_retired = Some((cycle, self.instr_retired)),
                Ok(false) => {}
                Err(e) => break Err(e),
            }
            let staged = self.synchronizer.has_staged();
            if staged {
                if let Err(e) = self.commit_staged(cycle) {
                    break Err(e);
                }
            }
            self.stats.cycles += 1;
            if staged || self.stats.cycles >= end || self.awake != mask || self.watch_hit.is_some()
            {
                break Ok(());
            }
        };
        if let (Some(_), Some((cycle, instr_total))) = (self.watchdog, last_retired) {
            self.last_instr_total = instr_total;
            self.last_progress_cycle = cycle + 1;
        }
        ended
    }

    fn crossbar(&self) -> bool {
        self.config.interconnect == InterconnectKind::Crossbar
    }

    /// Stage 1: ADC sampling and interrupt forwarding. A latched sample
    /// closes the real-time accounting window.
    #[inline(always)]
    fn tick_adc(&mut self, cycle: u64) {
        let irq_mask = self.adc.tick(cycle);
        if irq_mask == 0 {
            return;
        }
        self.stats.adc_samples += 1;
        self.obs.adc_sample(cycle, irq_mask);
        for source in 0..16 {
            if irq_mask & (1 << source) != 0 {
                self.synchronizer.raise_irq(source);
            }
        }
        for cs in &mut self.stats.cores {
            cs.max_window_active = cs.max_window_active.max(cs.window_active);
            cs.window_active = 0;
        }
        // Overruns only advance when a sample latches, so the snapshot
        // is refreshed here rather than every cycle.
        self.stats.adc_overruns = self.adc.overruns();
    }

    /// Stage 2: cycle accounting for one awake slot, and what it does
    /// with the rest of the cycle.
    #[inline(always)]
    fn issue(&mut self, cycle: u64, idx: usize) -> Result<Issue, SimError> {
        let slot = &mut self.slots[idx];
        debug_assert!(self.awake & (1 << idx) != 0, "only awake slots issue");
        let cs = &mut self.stats.cores[idx];
        cs.active_cycles += 1;
        cs.window_active += 1;
        let pc = slot.core.pc();
        self.obs.active_cycle(cycle, idx, pc);
        if slot.bubble {
            slot.bubble = false;
            cs.bubbles += 1;
            self.obs.bubble(cycle, idx);
            return Ok(Issue::Bubble);
        }
        if slot.held.is_some() {
            return Ok(Issue::Held);
        }
        if pc as usize >= IM_WORDS {
            return Err(Fault {
                core: idx,
                pc,
                addr: pc,
                kind: FaultKind::ImOutOfRange,
            }
            .into());
        }
        Ok(Issue::Fetch(pc))
    }

    /// Stage 3: applies the instruction-side grant of a fetch from `pc`.
    #[inline(always)]
    fn fetch(&mut self, cycle: u64, idx: usize, pc: u32, grant: Grant) -> Result<(), SimError> {
        let bank = InstrMemory::bank_of(pc);
        match grant {
            Grant::Access | Grant::Broadcast => {
                if grant == Grant::Access {
                    self.stats.im.reads[bank] += 1;
                } else {
                    self.stats.im.broadcasts += 1;
                }
                if self.crossbar() {
                    self.stats.xbar_im += 1;
                }
                let instr = self.fetch_decoded(pc).ok_or(SimError::Fault(Fault {
                    core: idx,
                    pc,
                    addr: pc,
                    kind: FaultKind::BadInstruction,
                }))?;
                self.obs.im_access(cycle, bank);
                self.slots[idx].held = Some(instr);
            }
            Grant::Stall => {
                self.stats.im.conflicts += 1;
                // The dead fetch cycle covers the load latency: the
                // eventual consumer is no longer the immediately next
                // issue slot, so a surviving hazard latch must not
                // charge a phantom stall on top of the IM stall.
                self.slots[idx].core.clear_hazard();
                self.record_stall(cycle, idx, pc, StallCause::ImConflict);
            }
        }
        Ok(())
    }

    /// Stage 4: the load-use hazard check and the memory intent of the
    /// held instruction. Sync-region reads and MMIO complete here;
    /// banked accesses go on to data-side arbitration.
    #[inline(always)]
    fn resolve(&mut self, cycle: u64, idx: usize) -> Result<Resolved, SimError> {
        let slot = &mut self.slots[idx];
        let decoded = slot.held.expect("only a holding slot resolves");
        let pc = slot.core.pc();
        if !self.config.forwarding && slot.core.has_load_use_hazard_mask(decoded.src_mask) {
            slot.core.clear_hazard();
            self.record_stall(cycle, idx, pc, StallCause::LoadUseHazard);
            return Ok(Resolved::Hazard);
        }
        if decoded.mem == MemClass::None {
            return Ok(Resolved::Ready(None));
        }
        let (addr, store) = match slot.core.mem_intent(&decoded.instr) {
            Some(MemIntent::Load { addr }) => (addr, None),
            Some(MemIntent::Store { addr, value }) => (addr, Some(value)),
            None => unreachable!("memory class implies an intent"),
        };
        let fault = |kind| -> SimError {
            Fault {
                core: idx,
                pc,
                addr,
                kind,
            }
            .into()
        };
        match self.atu.translate(idx, addr).map_err(fault)? {
            DmTarget::Memory { location, .. } => Ok(Resolved::Dm(DmAccess {
                core: idx,
                location,
                addr,
                store,
            })),
            DmTarget::SyncPoint(_) if store.is_some() => Err(fault(FaultKind::WriteToSyncRegion)),
            DmTarget::SyncPoint(point) => {
                let word = self.synchronizer.point_value(point)?.to_word();
                self.stats.sync_region_reads += 1;
                Ok(Resolved::Ready(Some(word)))
            }
            DmTarget::Mmio(mmio_addr) => {
                let value = self.access_mmio(idx, mmio_addr, store)?;
                Ok(Resolved::Ready(store.is_none().then_some(value)))
            }
        }
    }

    /// Stage 5: applies the data-side grant of a banked access; `None`
    /// when the access lost arbitration and the instruction stays held.
    #[inline(always)]
    fn dm_grant(&mut self, cycle: u64, access: DmAccess, grant: Grant) -> Option<Load> {
        let DmAccess {
            core,
            location,
            addr,
            store,
        } = access;
        if grant == Grant::Stall {
            self.stats.dm.conflicts += 1;
            let pc = self.slots[core].core.pc();
            self.record_stall(cycle, core, pc, StallCause::DmConflict);
            return None;
        }
        if self.crossbar() {
            self.stats.xbar_dm += 1;
        }
        self.obs.dm_access(cycle, location.bank);
        Some(match (grant, store) {
            (Grant::Broadcast, _) => {
                self.stats.dm.broadcasts += 1;
                Some(self.dm.read(location))
            }
            (_, Some(value)) => {
                self.stats.dm.writes[location.bank] += 1;
                self.dm.write(location, value);
                if !self.watchpoints.is_empty() && self.watchpoints.contains(&addr) {
                    self.watch_hit = Some((core, addr));
                }
                None
            }
            (_, None) => {
                self.stats.dm.reads[location.bank] += 1;
                Some(self.dm.read(location))
            }
        })
    }

    /// Stage 6: retires the held instruction of one slot, which ends its
    /// open stall run.
    #[inline(always)]
    fn retire(&mut self, cycle: u64, idx: usize, load: Load) -> Result<(), SimError> {
        self.close_stall_run(cycle, idx);
        let slot = &mut self.slots[idx];
        let instr = slot
            .held
            .take()
            .expect("ready instructions were held")
            .instr;
        let cs = &mut self.stats.cores[idx];
        cs.instructions += 1;
        self.instr_retired += 1;
        self.obs.retire(cycle, idx, slot.core.pc(), instr);
        match instr {
            Instr::Sync { kind, point } => {
                cs.sync_ops += 1;
                self.obs.sync_op(cycle, idx, kind, point);
            }
            Instr::Sleep => {
                cs.sleeps += 1;
                self.obs.sleep_op(cycle, idx);
            }
            _ => {}
        }
        match slot.core.retire(instr, load) {
            Retire::Next => {}
            Retire::Halt => {
                self.halted_count += 1;
                self.awake &= !(1 << idx);
            }
            Retire::Taken => slot.bubble = true,
            Retire::Sync { kind, point } => {
                self.synchronizer
                    .submit_op(CoreId::new(idx)?, kind, point)?;
            }
            Retire::Sleep => {
                self.synchronizer.request_sleep(CoreId::new(idx)?);
            }
        }
        Ok(())
    }

    /// Stage 7: the synchronizer commit (gating and wake-up), which ends
    /// the cycle. A cycle that staged no sync op, sleep request or
    /// interrupt only advances the clock.
    #[inline(always)]
    fn commit(&mut self, cycle: u64) -> Result<(), SimError> {
        if self.synchronizer.has_staged() {
            self.commit_staged(cycle)?;
        }
        self.stats.cycles += 1;
        Ok(())
    }

    /// Applies a staged synchronizer cycle: gates the slept cores, wakes
    /// the woken ones and charges them their gated interval.
    #[inline(never)]
    fn commit_staged(&mut self, cycle: u64) -> Result<(), SimError> {
        let outcome = self.synchronizer.commit()?;
        self.obs.sync_outcome(cycle, &outcome);
        self.stats.sync_region_writes += outcome.memory_writes as u64;
        for core in outcome.slept.iter() {
            let idx = core.index();
            let slot = &mut self.slots[idx];
            slot.core.set_gated(true);
            // Gated from the next cycle on.
            slot.gated_since = cycle + 1;
            self.awake &= !(1 << idx);
        }
        for core in outcome.woken.iter() {
            let idx = core.index();
            let slot = &mut self.slots[idx];
            slot.core.set_gated(false);
            // Invariant guard: a load retired just before a sleep must
            // not charge the first post-wake instruction a hazard stall.
            slot.core.clear_hazard();
            // This cycle was the last gated one.
            self.stats.cores[idx].gated_cycles += cycle + 1 - slot.gated_since;
            self.awake |= 1 << idx;
        }
        Ok(())
    }

    /// Records one stalled cycle of `core` at `pc` where stalls are
    /// counted: the per-core counter, the core's open stall run (a
    /// change of cause closes the old run first) and the recorder's
    /// per-cycle detail.
    fn record_stall(&mut self, cycle: u64, core: usize, pc: u32, cause: StallCause) {
        let cs = &mut self.stats.cores[core];
        match cause {
            StallCause::ImConflict => cs.stall_im += 1,
            StallCause::DmConflict => cs.stall_dm += 1,
            StallCause::LoadUseHazard => cs.stall_hazard += 1,
        }
        match &mut self.slots[core].stall_run {
            Some((open, len)) if *open == cause => *len += 1,
            run => {
                if let Some((open, len)) = run.replace((cause, 1)) {
                    self.obs.stall_run(cycle, core, open, len);
                }
            }
        }
        self.obs.stall(cycle, core, pc, cause);
    }

    /// Hands `core`'s open stall run, if any, to the recorder as ended
    /// at `cycle`.
    #[inline(always)]
    fn close_stall_run(&mut self, cycle: u64, core: usize) {
        if let Some((cause, len)) = self.slots[core].stall_run {
            self.slots[core].stall_run = None;
            self.obs.stall_run(cycle, core, cause, len);
        }
    }

    /// Resolves the instruction at `pc`: predecoded fast path by
    /// default, decode-per-cycle when the oracle path is selected.
    #[inline]
    fn fetch_decoded(&self, pc: u32) -> Option<DecodedInstr> {
        #[cfg(any(test, feature = "slow-decode"))]
        if self.slow_decode {
            return self
                .im
                .fetch(pc)
                .and_then(|w| Instr::decode(w).ok())
                .map(DecodedInstr::new);
        }
        self.decoded.get(pc).copied()
    }

    fn access_mmio(&mut self, core: usize, addr: u32, store: Option<u16>) -> Result<u16, SimError> {
        let pc = self.slots[core].core.pc();
        let fault = |kind: FaultKind| -> SimError {
            Fault {
                core,
                pc,
                addr,
                kind,
            }
            .into()
        };
        let reg = MmioReg::decode(addr).ok_or_else(|| fault(FaultKind::MmioUnmapped))?;
        match store {
            Some(value) => {
                self.stats.mmio_writes += 1;
                match reg {
                    MmioReg::Subscribe => {
                        self.synchronizer.subscribe(CoreId::new(core)?, value)?;
                        Ok(0)
                    }
                    _ => Err(fault(FaultKind::MmioReadOnly)),
                }
            }
            None => {
                self.stats.mmio_reads += 1;
                match reg {
                    MmioReg::AdcData(ch) => Ok(self.adc.read_data(ch)),
                    MmioReg::AdcSeq(ch) => Ok(self.adc.read_seq(ch)),
                    MmioReg::Subscription => Ok(self.synchronizer.subscription(CoreId::new(core)?)),
                    MmioReg::CoreId => Ok(core as u16),
                    MmioReg::Subscribe => Ok(0),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_isa::{assemble_text, Linker, Section};

    const ARITHMETIC: &str = "li r1, 6\n\
         li r2, 7\n\
         mul r3, r1, r2\n\
         sw r3, 0x100(r0)\n\
         halt\n";

    /// 4 iterations of a 2-instruction loop with a taken branch each
    /// time except the last.
    const LOOP: &str = "li r1, 4\n\
         loop: addi r1, r1, -1\n\
         bne r1, r0, loop\n\
         halt\n";

    const LOAD_USE: &str = "li r1, 0x40\n\
         sw r1, 0x40(r0)\n\
         lw r2, 0x40(r0)\n\
         add r3, r2, r2\n\
         halt\n";

    /// A jump right after the load: the consumer of the loaded register
    /// issues after the taken-branch bubble.
    const SQUASH: &str = "li r1, 7\n\
         sw r1, 0x40(r0)\n\
         lw r2, 0x40(r0)\n\
         jmp target\n\
         nop\n\
         target: add r3, r2, r2\n\
         sw r3, 0x41(r0)\n\
         halt\n";

    /// Load, subscribe to ADC channel 0, sleep; the first instructions
    /// after the wake consume the pre-sleep loaded register.
    const WAKE: &str = "li r1, 9\n\
         sw r1, 0x40(r0)\n\
         li r1, 1\n\
         lui r2, 0x7F\n\
         ori r2, r2, 0x20\n\
         sw r1, 0(r2)\n\
         lw r4, 0x40(r0)\n\
         sleep\n\
         add r3, r4, r4\n\
         sw r3, 0x200(r0)\n\
         halt\n";

    const SYNC_READ: &str = "lw r1, 0x10(r0)\nsw r1, 0x300(r0)\nhalt\n";

    fn single_core_platform(asm: &str) -> Platform {
        let program = assemble_text(asm).expect("test program assembles");
        let mut linker = Linker::new();
        linker.add_section(Section::new("main", program));
        linker.set_entry(0, "main");
        let image = linker.link().expect("test program links");
        Platform::new(PlatformConfig::single_core(), &image).expect("platform builds")
    }

    #[test]
    fn arithmetic_program_produces_result() {
        let mut p = single_core_platform(ARITHMETIC);
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        assert_eq!(p.peek_dm(0x100).unwrap(), 42);
        assert_eq!(p.stats().cores[0].instructions, 5);
    }

    #[test]
    fn loop_timing_counts_bubbles() {
        let mut p = single_core_platform(LOOP);
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[0];
        assert_eq!(cs.instructions, 1 + 4 * 2 + 1);
        assert_eq!(cs.bubbles, 3, "three taken branches");
    }

    #[test]
    fn load_use_hazard_costs_a_cycle() {
        let mut p = single_core_platform(LOAD_USE);
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[0];
        assert_eq!(cs.stall_hazard, 1);
        assert_eq!(p.core(0).reg(wbsn_isa::Reg::R3), 0x80);
    }

    #[test]
    fn forwarding_waives_the_load_use_stall() {
        // Same program as `load_use_hazard_costs_a_cycle`, but with the
        // memory→execute bypass on: the back-to-back load-use pair must
        // cost no hazard stall and still compute the right value.
        let mut p = single_core_platform(LOAD_USE);
        p.set_forwarding(true);
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[0];
        assert_eq!(cs.stall_hazard, 0);
        assert_eq!(p.core(0).reg(wbsn_isa::Reg::R3), 0x80);
    }

    #[test]
    fn im_conflict_between_load_and_consumer_charges_no_phantom_hazard() {
        // Core 1 shares IM bank 0 with core 0, which runs a long nop
        // sled and therefore fetches every cycle; the rotating arbiter
        // grants core 1 only one fetch in eight, so at least one
        // IM-conflict stall is guaranteed between core 1's `lw` and the
        // dependent `add`. That dead cycle already covers the load
        // latency, so a surviving hazard latch must not charge a stall
        // on top of the IM stall.
        let sled = "nop\n".repeat(120) + "halt\n";
        let hog = assemble_text(&sled).unwrap();
        let loaduse = assemble_text(
            "li r1, 0x2A\n\
             sw r1, 0x100(r0)\n\
             lw r2, 0x100(r0)\n\
             add r3, r2, r2\n\
             sw r3, 0x101(r0)\n\
             halt\n",
        )
        .unwrap();
        let mut linker = Linker::new();
        linker.add_section(Section::in_bank("hog", hog, 0));
        linker.add_section(Section::in_bank("loaduse", loaduse, 0));
        linker.set_entry(0, "hog");
        linker.set_entry(1, "loaduse");
        let image = linker.link().unwrap();
        let mut p = Platform::new(PlatformConfig::multi_core(), &image).unwrap();
        assert_eq!(p.run(10_000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[1];
        assert!(cs.stall_im > 0, "the bank conflict must have happened");
        assert_eq!(
            cs.stall_hazard, 0,
            "the IM-stall dead cycle covers the load latency"
        );
        assert_eq!(p.peek_dm(0x101).unwrap(), 0x54);
    }

    #[test]
    fn taken_branch_squash_clears_the_hazard_latch() {
        // The latch set by the `lw` must not charge the consumer after
        // the bubble a phantom hazard stall.
        let mut p = single_core_platform(SQUASH);
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[0];
        assert_eq!(cs.stall_hazard, 0);
        assert_eq!(cs.bubbles, 1, "one taken jump");
        assert_eq!(p.peek_dm(0x41).unwrap(), 14);
    }

    #[test]
    fn wake_after_sleep_charges_no_phantom_hazard() {
        // Any latch surviving the gated interval would charge a phantom
        // stall after the wake.
        let mut p = single_core_platform(WAKE);
        p.set_adc_streams(vec![vec![55]]).unwrap();
        assert_eq!(p.run(100_000).unwrap(), RunExit::AllHalted);
        let cs = &p.stats().cores[0];
        assert!(cs.gated_cycles > 0, "core slept until the sample");
        assert_eq!(cs.stall_hazard, 0);
        assert_eq!(p.peek_dm(0x200).unwrap(), 18);
    }

    #[test]
    fn decoder_platform_counts_memory_accesses() {
        let mut p = single_core_platform(
            "li r1, 1\n\
             sw r1, 0x50(r0)\n\
             lw r2, 0x50(r0)\n\
             halt\n",
        );
        p.run(100).unwrap();
        assert_eq!(p.stats().dm.accesses(), 2);
        assert_eq!(p.stats().xbar_dm, 0, "decoders are not crossbars");
        assert!(p.stats().im.accesses() >= 4);
    }

    #[test]
    fn quiescent_exit_when_no_work_remains() {
        // Subscribe to nothing and sleep forever: with no ADC streams the
        // platform is immediately quiescent after the sleep.
        let mut p = single_core_platform("sleep\nhalt\n");
        assert_eq!(p.run(10_000).unwrap(), RunExit::Quiescent);
        assert!(p.stats().cycles < 100);
    }

    #[test]
    fn cycle_limit_exit() {
        let mut p = single_core_platform("loop: jmp loop\n");
        assert_eq!(p.run(500).unwrap(), RunExit::CycleLimit);
        assert!(p.stats().cycles >= 500);
    }

    #[test]
    fn adc_wakeup_flow() {
        // Subscribe to channel 0, sleep, then read data on wake.
        let mut p = single_core_platform(
            "li r1, 1\n\
             lui r2, 0x7F\n\
             ori r2, r2, 0x20\n\
             sw r1, 0(r2)\n\
             sleep\n\
             lui r3, 0x7F\n\
             lw r4, 0(r3)\n\
             sw r4, 0x200(r0)\n\
             halt\n",
        );
        p.set_adc_streams(vec![vec![1234]]).unwrap();
        assert_eq!(p.run(100_000).unwrap(), RunExit::AllHalted);
        assert_eq!(p.peek_dm(0x200).unwrap(), 1234);
        assert_eq!(p.stats().adc_samples, 1);
        let cs = &p.stats().cores[0];
        assert!(cs.gated_cycles > 0, "core slept until the sample");
    }

    #[test]
    fn fault_on_store_to_sync_region() {
        let mut p = single_core_platform("li r1, 5\nsw r1, 0x10(r0)\nhalt\n");
        let err = p.run(100).unwrap_err();
        assert!(matches!(
            err,
            SimError::Fault(Fault {
                kind: FaultKind::WriteToSyncRegion,
                ..
            })
        ));
    }

    #[test]
    fn fault_on_unmapped_mmio() {
        let mut p = single_core_platform(
            "lui r2, 0x7F\n\
             ori r2, r2, 0xFF\n\
             lw r1, 0(r2)\n\
             halt\n",
        );
        let err = p.run(100).unwrap_err();
        assert!(matches!(
            err,
            SimError::Fault(Fault {
                kind: FaultKind::MmioUnmapped,
                ..
            })
        ));
    }

    #[test]
    fn sync_point_region_is_readable() {
        let mut p = single_core_platform(SYNC_READ);
        p.preload_sync_point(0, 3, false).unwrap();
        p.run(100).unwrap();
        assert_eq!(p.peek_dm(0x300).unwrap(), 3);
        assert_eq!(p.stats().sync_region_reads, 1);
    }

    #[test]
    fn orphaned_snop_trips_the_deadlock_watchdog() {
        // The core registers on point 0 and sleeps, but nothing will
        // ever signal the point. Without the watchdog this reads as a
        // quiescent exit; with it, a deadlock post-mortem.
        let mut p = single_core_platform("snop 0\nsleep\nhalt\n");
        p.set_watchdog(10_000);
        p.enable_obs(ObsConfig {
            ring: 16,
            ..ObsConfig::default()
        });
        let err = p.run(1_000_000).unwrap_err();
        let SimError::Watchdog(pm) = err else {
            panic!("expected watchdog trip, got {err:?}");
        };
        assert_eq!(pm.trip, WatchdogTrip::Deadlock { waiting: vec![0] });
        assert!(pm.cores[0].gated);
        assert!(pm.points[0].value.flags().bits() & 1 != 0, "core 0 flagged");
        assert!(
            pm.obs_tail
                .iter()
                .any(|line| line.ends_with("core0 0x0001: sleep")),
            "{:?}",
            pm.obs_tail
        );
        assert!(pm.to_string().contains("deadlock"));
    }

    #[test]
    fn intentional_final_sleep_stays_quiescent_under_watchdog() {
        // No sync-point registration: the sleep is the workload's end.
        let mut p = single_core_platform("sleep\nhalt\n");
        p.set_watchdog(10_000);
        assert_eq!(p.run(1_000_000).unwrap(), RunExit::Quiescent);
    }

    #[test]
    fn watchdog_off_preserves_quiescent_exit() {
        let mut p = single_core_platform("snop 0\nsleep\nhalt\n");
        assert_eq!(p.run(1_000_000).unwrap(), RunExit::Quiescent);
    }

    #[test]
    fn watchdog_spares_gated_waits_that_do_resolve() {
        // Producer/consumer on one core pair: the consumer's wait is
        // signalled, so the watchdog must not trip.
        let producer = assemble_text("sinc 0\nsdec 0\nhalt\n").unwrap();
        let consumer = assemble_text("snop 0\nsleep\nhalt\n").unwrap();
        let mut linker = Linker::new();
        linker.add_section(Section::in_bank("producer", producer, 0));
        linker.add_section(Section::in_bank("consumer", consumer, 1));
        linker.set_entry(0, "producer");
        linker.set_entry(1, "consumer");
        let image = linker.link().unwrap();
        let mut p = Platform::new(PlatformConfig::multi_core(), &image).unwrap();
        p.set_watchdog(10_000);
        assert_eq!(p.run(100_000).unwrap(), RunExit::AllHalted);
    }

    #[test]
    fn absent_cores_never_clock() {
        let program = assemble_text("halt\n").unwrap();
        let mut linker = Linker::new();
        linker.add_section(Section::new("main", program));
        linker.set_entry(0, "main");
        let image = linker.link().unwrap();
        let mut p = Platform::new(PlatformConfig::multi_core(), &image).unwrap();
        assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
        for idx in 1..8 {
            assert_eq!(p.stats().cores[idx].active_cycles, 0);
            assert_eq!(p.stats().cores[idx].instructions, 0);
        }
    }

    /// A benchmark image from `wbsn-kernels`, instantiated on this
    /// crate's `Platform`, with `seconds` of synthetic ECG on its ADC.
    /// `wbsn-kernels` links its own copy of this crate, so the
    /// configuration is carried over field by field and checked through
    /// its `Debug` form. Returns the platform and the cycle of the
    /// window's last sample.
    fn kernel_platform(app: &wbsn_kernels::BuiltApp, seconds: f64) -> (Platform, u64) {
        use wbsn_dsp::ecg::{synthesize, EcgConfig};
        let theirs = &app.config;
        let config = PlatformConfig {
            cores: theirs.cores,
            interconnect: if theirs.cores == 1 {
                InterconnectKind::Decoder
            } else {
                InterconnectKind::Crossbar
            },
            broadcast: theirs.broadcast,
            shared_words: theirs.shared_words,
            forwarding: theirs.forwarding,
            sync_points: theirs.sync_points,
            sync_base: theirs.sync_base,
            adc: crate::AdcConfig {
                channels: theirs.adc.channels,
                period_cycles: theirs.adc.period_cycles,
                start_cycle: theirs.adc.start_cycle,
            },
        };
        assert_eq!(format!("{config:?}"), format!("{theirs:?}"));
        let mut p = Platform::new(config, &app.image).expect("platform builds");
        for &(point, count, participants) in &app.preloads {
            p.preload_barrier(point, count, participants).unwrap();
        }
        let leads = synthesize(&EcgConfig {
            duration_s: seconds,
            ..EcgConfig::healthy_60s()
        })
        .leads;
        let end = theirs.adc.start_cycle + leads[0].len() as u64 * theirs.adc.period_cycles;
        p.set_adc_streams(leads).unwrap();
        (p, end)
    }

    /// Stall runs close where stalls are counted: a change of cause
    /// and the retirement stage close the open run at their cycle, and a
    /// run still open at [`Platform::finish_obs`] closes there once.
    #[test]
    fn stall_runs_coalesce_and_close_on_retire_and_finish() {
        let runs = |p: &Platform| {
            let ring = p.obs().recorder().unwrap().events();
            ring.filter_map(|t| match t.event {
                wbsn_obs::Event::StallRun { cause, len, .. } => Some((t.cycle, cause, len)),
                _ => None,
            })
            .collect::<Vec<_>>()
        };
        let mut p = single_core_platform("nop\nhalt\n");
        p.enable_obs(ObsConfig {
            counting: true,
            ring: 16,
            ..ObsConfig::default()
        });
        p.record_stall(5, 0, 0x10, StallCause::DmConflict);
        p.record_stall(6, 0, 0x10, StallCause::DmConflict);
        p.record_stall(7, 0, 0x10, StallCause::LoadUseHazard);
        p.slots[0].held = Some(DecodedInstr::new(Instr::Nop));
        p.retire(8, 0, None).unwrap();
        p.finish_obs();
        let retired = vec![
            (7, StallCause::DmConflict, 2),
            (8, StallCause::LoadUseHazard, 1),
        ];
        assert_eq!(runs(&p), retired);
        let counting = p.obs().recorder().unwrap().counting().unwrap();
        assert_eq!(counting.stall_run_cycles.sum(), 3);
        assert_eq!(counting.stall_run_cycles.count(), 2);

        p.record_stall(9, 0, 0x11, StallCause::ImConflict);
        p.record_stall(10, 0, 0x11, StallCause::ImConflict);
        p.stats.cycles = 11;
        p.finish_obs();
        p.finish_obs();
        let finished = [retired, vec![(11, StallCause::ImConflict, 2)]].concat();
        assert_eq!(runs(&p), finished);
    }

    /// Runs a platform from `make` to `max_cycles` by three routes: the
    /// N-slot driver alone, one-cycle [`Platform::advance`] as
    /// [`Platform::step`] runs it (one-cycle bursts whenever at most one
    /// core is awake) and [`Platform::run`]'s driver (lone-core bursts).
    /// Asserts the same exit or error at the same cycle, stats, recorder
    /// ring (retirements, stalled cycles and events), watchdog progress
    /// mark and data memory.
    fn assert_drivers_agree(
        label: &str,
        max_cycles: u64,
        make: impl Fn() -> Platform,
    ) -> Result<RunExit, SimError> {
        const RING: usize = 1 << 18;
        type Driver = fn(&mut Platform, u64) -> Result<(), SimError>;
        let routes: [Driver; 3] = [
            |p, _| p.step_arbitrated(),
            |p, _| p.advance(p.stats.cycles + 1),
            Platform::advance,
        ];
        let runs = routes.map(|driver| {
            let mut p = make();
            p.enable_obs(ObsConfig {
                ring: RING,
                ..ObsConfig::default()
            });
            let exit = p.run_with(max_cycles, driver);
            p.flush_gated();
            (p, exit)
        });
        let entries = |p: &Platform| {
            let ring = p.obs().recorder().unwrap().events();
            ring.copied().collect::<Vec<_>>()
        };
        let (general, general_exit) = &runs[0];
        let general_ring = entries(general);
        assert!(general_ring.len() < RING, "{label}: ring holds every entry");
        for (route, (p, exit)) in ["per-cycle", "burst"].iter().zip(&runs[1..]) {
            assert_eq!(general_exit, exit, "{label}: {route}");
            assert_eq!(general.stats(), p.stats(), "{label}: {route}");
            assert_eq!(general_ring, entries(p), "{label}: {route}");
            let progress = |p: &Platform| (p.last_progress_cycle, p.last_instr_total);
            assert_eq!(progress(general), progress(p), "{label}: {route}");
            for bank in 0..wbsn_isa::DM_BANKS {
                for row in 0..wbsn_isa::DM_BANK_WORDS {
                    let loc = DmLocation { bank, row };
                    assert_eq!(general.dm.read(loc), p.dm.read(loc), "{label}: {route}");
                }
            }
        }
        general_exit.clone()
    }

    /// A lock-step group that fetches a word that does not decode faults
    /// on its lowest fetching slot, with the grants counted as the
    /// arbitrated path counts them: the access when that slot wins the
    /// rotation (after `lead` nops, at cycle `lead`), a broadcast
    /// otherwise.
    #[test]
    fn lockstep_group_faults_on_an_undecodable_word_as_the_arbitrated_path() {
        use crate::xbar::arbitrate;
        let make = |lead: usize| {
            let program = assemble_text(&("nop\n".repeat(lead) + "nop\nhalt\n")).unwrap();
            let mut linker = Linker::new();
            linker.add_section(Section::new("main", program));
            for core in 2..5 {
                linker.set_entry(core, "main");
            }
            let image = linker.link().unwrap();
            let mut p = Platform::new(PlatformConfig::multi_core(), &image).unwrap();
            // A 25-bit word never decodes.
            let mut words = image.im_words().to_vec();
            let pc = image.entry(2).unwrap() + lead as u32;
            words[pc as usize] = 1 << 24;
            p.decoded = DecodedImage::from_words(&words);
            p.im = InstrMemory::from_image(&words);
            for _ in 0..lead {
                p.step_arbitrated().unwrap();
            }
            (p, pc)
        };
        let mut grants_seen = Vec::new();
        for lead in 0..8 {
            let (mut group, pc) = make(lead);
            let grouped = group.step_arbitrated();

            let (mut general, _) = make(lead);
            let cycle = general.stats.cycles;
            let fetches: Vec<Request> = bits(general.awake)
                .map(|idx| match general.issue(cycle, idx).unwrap() {
                    Issue::Fetch(pc) => Request {
                        core: idx,
                        bank: InstrMemory::bank_of(pc),
                        addr: pc,
                        write: false,
                    },
                    other => panic!("slot {idx} does not fetch: {other:?}"),
                })
                .collect();
            let grants = arbitrate(&fetches, cycle as usize, true);
            let arbitrated = fetches
                .iter()
                .zip(&grants)
                .try_for_each(|(req, &grant)| general.fetch(cycle, req.core, req.addr, grant));

            let fault = SimError::Fault(Fault {
                core: 2,
                pc,
                addr: pc,
                kind: FaultKind::BadInstruction,
            });
            assert_eq!(grouped, Err(fault.clone()), "lead {lead}");
            assert_eq!(arbitrated, Err(fault), "lead {lead}");
            assert_eq!(group.stats(), general.stats(), "lead {lead}");
            grants_seen.push(grants[0]);
        }
        assert!(grants_seen.contains(&Grant::Access));
        assert!(grants_seen.contains(&Grant::Broadcast));
    }

    /// Bursts of any length must stay instances of the pipeline: the
    /// arbitrated driver runs the same single-core programs to the
    /// same stats, ring and data memory.
    #[test]
    fn all_cycle_drivers_agree_on_single_core_programs() {
        type Setup = fn(&mut Platform);
        let cases: [(&str, Setup); 7] = [
            (ARITHMETIC, |_| {}),
            (LOOP, |_| {}),
            (LOAD_USE, |_| {}),
            (LOAD_USE, |p| p.set_forwarding(true)),
            (SQUASH, |_| {}),
            (WAKE, |p| p.set_adc_streams(vec![vec![55]]).unwrap()),
            (SYNC_READ, |p| p.preload_sync_point(0, 3, false).unwrap()),
        ];
        for (asm, setup) in cases {
            let exit = assert_drivers_agree(asm, 100_000, || {
                let mut p = single_core_platform(asm);
                setup(&mut p);
                p
            });
            assert_eq!(exit, Ok(RunExit::AllHalted), "{asm}");
        }
    }

    /// Multi-core programs in which all but one core sleep and then wake
    /// move between the N-slot driver and bursts;
    /// every route must end in the same state as the N-slot driver alone.
    #[test]
    fn all_cycle_drivers_agree_when_cores_sleep_and_wake() {
        let exit = assert_drivers_agree("producer/consumer", 100_000, producer_consumer);
        assert_eq!(exit, Ok(RunExit::AllHalted));

        let options = wbsn_kernels::BuildOptions::default();
        let mf = wbsn_kernels::build_mf(wbsn_kernels::Arch::MultiCore, &options).unwrap();
        let (_, end) = kernel_platform(&mf, 0.1);
        let exit = assert_drivers_agree("3-lead MF, 0.1 s", end, || kernel_platform(&mf, 0.1).0);
        assert_eq!(exit, Ok(RunExit::Quiescent), "the ADC stream ran out");

        let rpclass = rpclass_sc();
        let (_, end) = kernel_platform(&rpclass, 0.1);
        let exit = assert_drivers_agree("RP-CLASS SC, 0.1 s", end, || {
            kernel_platform(&rpclass, 0.1).0
        });
        assert_eq!(exit, Ok(RunExit::Quiescent), "the ADC stream ran out");
    }

    fn producer_consumer() -> Platform {
        let producer = assemble_text("sinc 0\nsdec 0\nhalt\n").unwrap();
        let consumer = assemble_text("snop 0\nsleep\nhalt\n").unwrap();
        let mut linker = Linker::new();
        linker.add_section(Section::in_bank("producer", producer, 0));
        linker.add_section(Section::in_bank("consumer", consumer, 1));
        linker.set_entry(0, "producer");
        linker.set_entry(1, "consumer");
        Platform::new(PlatformConfig::multi_core(), &linker.link().unwrap()).unwrap()
    }

    /// RP-CLASS on one core at 2 MHz / 250 Hz: long lone-core stretches
    /// between ADC ticks.
    fn rpclass_sc() -> wbsn_kernels::BuiltApp {
        let options = wbsn_kernels::BuildOptions {
            adc_period_cycles: 8000,
            ..wbsn_kernels::BuildOptions::default()
        };
        let params = wbsn_kernels::ClassifierParams::default_trained();
        wbsn_kernels::build_rpclass(wbsn_kernels::Arch::SingleCore, &options, &params).unwrap()
    }

    /// Every way a burst can end early — a breakpoint, a watchpoint, a
    /// `HALT`, a fault, a watchdog at each budget and the cycle limit —
    /// lands at the same cycle with the same state on every route.
    #[test]
    fn all_cycle_drivers_agree_when_a_burst_ends_early() {
        // 200 cycles of lone-core looping before the event.
        const SPIN: &str = "li r1, 100\n\
             spin: addi r1, r1, -1\n\
             bne r1, r0, spin\n";
        let halt = format!("{SPIN}li r2, 3\nsw r2, 0x40(r0)\nhalt\n");
        let exit = assert_drivers_agree("halt", 10_000, || single_core_platform(&halt));
        assert_eq!(exit, Ok(RunExit::AllHalted));

        let exit = assert_drivers_agree("breakpoint", 10_000, || {
            let mut p = single_core_platform(&halt);
            p.add_breakpoint(3);
            p
        });
        assert_eq!(exit, Ok(RunExit::Breakpoint { core: 0, pc: 3 }));

        let exit = assert_drivers_agree("watchpoint", 10_000, || {
            let mut p = single_core_platform(&halt);
            p.add_watchpoint(0x40);
            p
        });
        assert_eq!(
            exit,
            Ok(RunExit::Watchpoint {
                core: 0,
                addr: 0x40
            })
        );

        // The limit lands on a taken-branch bubble: the watchdog's
        // progress mark stays at the branch, one cycle back.
        let exit = assert_drivers_agree("cycle limit", 151, || {
            let mut p = single_core_platform(&halt);
            p.set_watchdog(2);
            p
        });
        assert_eq!(exit, Ok(RunExit::CycleLimit));

        let fault = format!("{SPIN}li r2, 5\nsw r2, 0x10(r0)\nhalt\n");
        let exit = assert_drivers_agree("fault", 10_000, || single_core_platform(&fault));
        assert!(
            matches!(
                exit,
                Err(SimError::Fault(Fault {
                    kind: FaultKind::WriteToSyncRegion,
                    ..
                }))
            ),
            "{exit:?}"
        );

        // A watched kernel store inside every sample's processing.
        let rpclass = rpclass_sc();
        let (_, end) = kernel_platform(&rpclass, 0.1);
        let exit = assert_drivers_agree("RP-CLASS SC watchpoint", end, || {
            let mut p = kernel_platform(&rpclass, 0.1).0;
            p.add_watchpoint(wbsn_kernels::layout::LEAD_COUNT_BASE);
            p
        });
        assert!(matches!(exit, Ok(RunExit::Watchpoint { .. })), "{exit:?}");

        // Budgets 0 and 1 run one-cycle bursts, larger ones longer; none
        // may change what the run does. The deadlocked tail trips every
        // budget after the spin.
        let deadlock = format!("{SPIN}snop 0\nsleep\nhalt\n");
        for budget in [0, 1, 2, 1_000_000] {
            let label = format!("watchdog {budget}");
            let exit = assert_drivers_agree(&label, end, || {
                let mut p = kernel_platform(&rpclass, 0.1).0;
                p.set_watchdog(budget);
                p
            });
            assert_eq!(exit, Ok(RunExit::Quiescent), "{label}");
            let exit = assert_drivers_agree(&label, 10_000, || {
                let mut p = single_core_platform(&deadlock);
                p.set_watchdog(budget);
                p
            });
            assert!(
                matches!(&exit, Err(SimError::Watchdog(pm))
                    if matches!(pm.trip, WatchdogTrip::Deadlock { .. })),
                "{label}: {exit:?}"
            );
        }
    }

    /// Steps every benchmark on the single-core, hardware-sync and
    /// busy-wait platforms for 0.2 s with [`Platform::step`] (no
    /// fast-forward) and checks the awake mask after every cycle.
    #[test]
    fn awake_mask_tracks_every_cycle_of_every_benchmark() {
        use wbsn_kernels::{Arch, BuildOptions, SyncApproach};
        let params = wbsn_kernels::ClassifierParams::default_trained();
        let platforms = [
            (Arch::SingleCore, SyncApproach::Hardware),
            (Arch::MultiCore, SyncApproach::Hardware),
            (Arch::MultiCore, SyncApproach::BusyWait),
        ];
        for (arch, approach) in platforms {
            let options = BuildOptions {
                approach,
                // 2 MHz at 250 Hz: every benchmark keeps up on one core.
                adc_period_cycles: 8000,
                ..BuildOptions::default()
            };
            let apps = [
                wbsn_kernels::build_mf(arch, &options).unwrap(),
                wbsn_kernels::build_mmd(arch, &options).unwrap(),
                wbsn_kernels::build_rpclass(arch, &options, &params).unwrap(),
            ];
            for app in &apps {
                let (mut p, end) = kernel_platform(app, 0.2);
                let mut slept = false;
                while p.stats().cycles < end {
                    p.step().unwrap();
                    assert!(
                        p.awake_mask_is_exact(),
                        "{} {arch:?} {approach:?}: mask {:#010b} at cycle {}",
                        app.name,
                        p.awake,
                        p.stats().cycles
                    );
                    slept |= p.awake.count_ones() < app.active_cores as u32;
                }
                let gated: u64 = p.stats().cores.iter().map(|c| c.gated_cycles).sum();
                assert_eq!(slept, gated > 0, "{} {arch:?} {approach:?}", app.name);
            }
        }
    }
}
