//! The platform: cores, memories, crossbars, ATU, synchronizer and ADC
//! wired together by a cycle-accurate event loop.

use wbsn_core::{CoreId, Synchronizer};
use wbsn_isa::{DecodedImage, DecodedInstr, Instr, LinkedImage, MemClass, IM_WORDS};
use wbsn_obs::{Obs, ObsConfig, StallCause};

use crate::adc::Adc;
use crate::atu::{Atu, DmLocation, DmTarget};
use crate::config::{InterconnectKind, PlatformConfig};
use crate::cpu::{Core, MemIntent, Retire};
use crate::error::{Fault, FaultKind, SimError};
use crate::memory::{DataMemory, InstrMemory};
use crate::mmio::MmioReg;
use crate::stats::SimStats;
use crate::trace::{StallRecord, TraceEvent, Tracer};
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
}

/// The word a ready instruction retires with: its loaded value, or
/// `None` for stores and instructions without a memory operand.
type Load = Option<u16>;

/// What a slot does with the rest of a cycle once it is accounted.
#[derive(Debug, Clone, Copy)]
enum Issue {
    /// Absent, halted, gated or in a taken-branch bubble.
    Idle,
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

/// Per-cycle work buffers, reused across [`Platform::step`] calls so the
/// hot loop performs no heap allocation once warmed up.
#[derive(Debug, Default)]
struct StepScratch {
    fetch_reqs: Vec<Request>,
    fetch_grants: Vec<Grant>,
    ready: Vec<(usize, Load)>,
    dm_reqs: Vec<Request>,
    dm_meta: Vec<DmAccess>,
    dm_grants: Vec<Grant>,
}

/// The simulated WBSN platform.
///
/// See the [crate-level example](crate) for the typical
/// assemble–link–run flow.
#[derive(Debug)]
pub struct Platform {
    config: PlatformConfig,
    atu: Atu,
    im: InstrMemory,
    decoded: DecodedImage,
    dm: DataMemory,
    slots: Vec<Slot>,
    scratch: StepScratch,
    /// Re-decode the binary word on every fetch instead of using the
    /// predecoded image — the differential oracle for the fast path.
    #[cfg(any(test, feature = "slow-decode"))]
    slow_decode: bool,
    synchronizer: Synchronizer,
    adc: Adc,
    stats: SimStats,
    tracer: Option<Tracer>,
    /// Observability recorder; a disabled handle is a `None` check per
    /// hook.
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
    /// The platform may have just become fully idle: set when a core
    /// sleeps or halts, cleared when an idleness check fails. Lets the
    /// run loop skip the per-cycle idleness scan in the common case.
    idle_candidate: bool,
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
                }
            })
            .collect();
        let adc = Adc::new(config.adc, Vec::new());
        let stats = SimStats::new(config.cores);
        let live_count = (0..config.cores)
            .filter(|&id| image.entry(id).is_some())
            .count();
        Ok(Platform {
            config,
            atu,
            im,
            decoded,
            dm,
            slots,
            scratch: StepScratch::default(),
            #[cfg(any(test, feature = "slow-decode"))]
            slow_decode: false,
            synchronizer,
            adc,
            stats,
            tracer: None,
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
            // Checked (and cleared if false) on the first loop iteration.
            idle_candidate: true,
        })
    }

    /// Replaces the ADC sample streams (one per channel). Call before
    /// running.
    pub fn set_adc_streams(&mut self, streams: Vec<Vec<i16>>) {
        self.adc = Adc::new(self.config.adc, streams);
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

    /// Enables retirement tracing: the last `capacity` retirements of
    /// the cores selected by `core_mask` (bit per core) are kept in a
    /// ring readable through [`Platform::trace`].
    pub fn enable_trace(&mut self, capacity: usize, core_mask: u8) {
        self.tracer = Some(Tracer::new(capacity, core_mask));
    }

    /// The retirement trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Attaches an observability recorder: from the next cycle on, the
    /// platform emits the typed event stream (synchronizer, power,
    /// phase, ADC, stall runs) into the sinks selected by `config`.
    ///
    /// Call [`Platform::finish_obs`] after the last cycle to flush open
    /// stall runs and gated intervals before reading results.
    pub fn enable_obs(&mut self, config: ObsConfig) {
        self.obs.enable(self.config.cores, config);
    }

    /// The observability handle (disabled unless
    /// [`Platform::enable_obs`] was called).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The observability handle, mutable (for attaching custom sinks).
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Ends the observation: flushes open stall runs, attributes open
    /// gated intervals, and lets sinks close open timeline slices.
    /// Idempotent; a no-op when observability is disabled.
    pub fn finish_obs(&mut self) {
        self.obs.finish(self.stats.cycles);
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
        let trace_tail = self
            .tracer
            .as_ref()
            .map(|t| t.events().copied().collect())
            .unwrap_or_default();
        let (obs_tail, phase_profile) = self.obs_post_mortem();
        PostMortem {
            cycle: self.stats.cycles,
            trip,
            cores,
            points,
            trace_tail,
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
        if self.slots.len() == 1 {
            self.run_with(max_cycles, Platform::step_single)
        } else {
            self.run_with(max_cycles, Platform::step_arbitrated)
        }
    }

    /// The run loop around one cycle driver.
    fn run_with(
        &mut self,
        max_cycles: u64,
        step: impl Fn(&mut Platform) -> Result<(), SimError>,
    ) -> Result<RunExit, SimError> {
        while self.stats.cycles < max_cycles {
            if self.halted_count == self.live_count {
                debug_assert!(self.all_halted());
                return Ok(RunExit::AllHalted);
            }
            if !self.breakpoints.is_empty() {
                for slot in &self.slots {
                    if slot.present
                        && !slot.core.is_halted()
                        && !slot.core.is_gated()
                        && slot.held.is_none()
                        && self.breakpoints.contains(&slot.core.pc())
                    {
                        return Ok(RunExit::Breakpoint {
                            core: slot.core.id(),
                            pc: slot.core.pc(),
                        });
                    }
                }
            }
            // Idleness can only begin on a cycle in which a core slept or
            // halted; `idle_candidate` tracks that so the scan is skipped
            // while cores are running.
            if self.idle_candidate && !self.all_idle() {
                self.idle_candidate = false;
            }
            if self.idle_candidate {
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
            step(self)?;
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

    fn all_idle(&self) -> bool {
        self.slots.iter().all(|s| {
            !s.present || s.core.is_halted() || (s.core.is_gated() && s.held.is_none() && !s.bubble)
        })
    }

    /// Advances the platform clock to `target` with every live core
    /// clock-gated — used by harnesses to account a fixed wall-clock
    /// observation window after the workload quiesces (leakage and the
    /// clock trunk keep accruing).
    pub fn idle_until(&mut self, target: u64) {
        if target <= self.stats.cycles {
            return;
        }
        let skip = target - self.stats.cycles;
        for slot in &self.slots {
            if slot.present && !slot.core.is_halted() {
                self.stats.cores[slot.core.id()].gated_cycles += skip;
            }
        }
        self.stats.cycles = target;
    }

    /// Executes exactly one cycle.
    ///
    /// # Errors
    ///
    /// Returns the first fault or synchronization protocol violation.
    pub fn step(&mut self) -> Result<(), SimError> {
        if self.slots.len() == 1 {
            self.step_single()
        } else {
            self.step_arbitrated()
        }
    }

    /// One cycle of the stage pipeline for any number of slots: the
    /// slots' requests are gathered into the scratch buffers, the
    /// crossbars arbitrate them, and each grant is applied in request
    /// order. A decoder serves only a lone core, whose single request
    /// [`arbitrate_into`] always grants.
    fn step_arbitrated(&mut self) -> Result<(), SimError> {
        let cycle = self.stats.cycles;
        let broadcast = self.config.broadcast;
        self.tick_adc(cycle);

        self.scratch.fetch_reqs.clear();
        for idx in 0..self.slots.len() {
            if let Issue::Fetch(pc) = self.issue(cycle, idx)? {
                self.scratch.fetch_reqs.push(Request {
                    core: idx,
                    bank: InstrMemory::bank_of(pc),
                    addr: pc,
                    write: false,
                });
            }
        }
        let scratch = &mut self.scratch;
        arbitrate_into(
            &scratch.fetch_reqs,
            cycle as usize,
            broadcast,
            &mut scratch.fetch_grants,
        );
        for i in 0..self.scratch.fetch_reqs.len() {
            let req = self.scratch.fetch_reqs[i];
            self.fetch(cycle, req.core, req.addr, self.scratch.fetch_grants[i])?;
        }

        // A slot holds an instruction only between its fetch and its
        // retirement, so every holder is present, unhalted and ungated:
        // gating and halting both follow a retirement.
        self.scratch.ready.clear();
        self.scratch.dm_reqs.clear();
        self.scratch.dm_meta.clear();
        for idx in 0..self.slots.len() {
            if self.slots[idx].held.is_none() {
                continue;
            }
            match self.resolve(cycle, idx)? {
                Resolved::Hazard => {}
                Resolved::Ready(load) => self.scratch.ready.push((idx, load)),
                Resolved::Dm(access) => {
                    self.scratch.dm_reqs.push(Request {
                        core: idx,
                        bank: access.location.bank,
                        addr: access.addr,
                        write: access.store.is_some(),
                    });
                    self.scratch.dm_meta.push(access);
                }
            }
        }

        // Broadcast loads observe the winner's value; resolve accesses in
        // grant order: all reads of one address see the pre-write value
        // only if no write won — writes and reads of the same address
        // never both win in one cycle, so read-after-write hazards within
        // a cycle cannot occur.
        let scratch = &mut self.scratch;
        arbitrate_into(
            &scratch.dm_reqs,
            cycle as usize,
            broadcast,
            &mut scratch.dm_grants,
        );
        for i in 0..self.scratch.dm_meta.len() {
            let access = self.scratch.dm_meta[i];
            if let Some(load) = self.dm_grant(cycle, access, self.scratch.dm_grants[i]) {
                self.scratch.ready.push((access.core, load));
            }
        }

        for i in 0..self.scratch.ready.len() {
            let (idx, load) = self.scratch.ready[i];
            self.retire(cycle, idx, load)?;
        }
        self.commit(cycle)
    }

    /// The same pipeline for a lone slot. A single request always wins
    /// its bank, so gathering and arbitration collapse into an implicit
    /// [`Grant::Access`] and no scratch buffer is touched. The stages
    /// are `#[inline(always)]` so that this constant grant folds away:
    /// left to the inliner, single-core throughput dropped by about a
    /// quarter on a 2-vCPU x86-64 host.
    fn step_single(&mut self) -> Result<(), SimError> {
        let cycle = self.stats.cycles;
        self.tick_adc(cycle);
        'slot: {
            match self.issue(cycle, 0)? {
                Issue::Idle => break 'slot,
                Issue::Fetch(pc) => self.fetch(cycle, 0, pc, Grant::Access)?,
                Issue::Held => {}
            }
            let load = match self.resolve(cycle, 0)? {
                Resolved::Hazard => break 'slot,
                Resolved::Ready(load) => load,
                Resolved::Dm(access) => self
                    .dm_grant(cycle, access, Grant::Access)
                    .expect("a granted access completes"),
            };
            self.retire(cycle, 0, load)?;
        }
        self.commit(cycle)
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

    /// Stage 2: cycle accounting for one slot, and what it does with the
    /// rest of the cycle.
    #[inline(always)]
    fn issue(&mut self, cycle: u64, idx: usize) -> Result<Issue, SimError> {
        let slot = &mut self.slots[idx];
        if !slot.present || slot.core.is_halted() {
            return Ok(Issue::Idle);
        }
        let cs = &mut self.stats.cores[idx];
        if slot.core.is_gated() {
            cs.gated_cycles += 1;
            return Ok(Issue::Idle);
        }
        cs.active_cycles += 1;
        cs.window_active += 1;
        let pc = slot.core.pc();
        self.obs.active_cycle(cycle, idx, pc);
        if slot.bubble {
            slot.bubble = false;
            cs.bubbles += 1;
            self.obs.bubble(cycle, idx);
            return Ok(Issue::Idle);
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
                debug_assert!(self.im.fetch(pc).is_some());
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

    /// Stage 6: retires the held instruction of one slot.
    #[inline(always)]
    fn retire(&mut self, cycle: u64, idx: usize, load: Load) -> Result<(), SimError> {
        let slot = &mut self.slots[idx];
        let instr = slot
            .held
            .take()
            .expect("ready instructions were held")
            .instr;
        let cs = &mut self.stats.cores[idx];
        cs.instructions += 1;
        self.instr_retired += 1;
        self.obs.retire(cycle, idx);
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
        if let Some(tracer) = &mut self.tracer {
            tracer.record(TraceEvent {
                cycle,
                core: idx,
                pc: slot.core.pc(),
                instr,
            });
        }
        match slot.core.retire(instr, load) {
            Retire::Next => {}
            Retire::Halt => {
                self.halted_count += 1;
                self.idle_candidate = true;
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
    /// the cycle.
    #[inline(always)]
    fn commit(&mut self, cycle: u64) -> Result<(), SimError> {
        let outcome = self.synchronizer.commit()?;
        self.obs.sync_outcome(cycle, &outcome);
        self.stats.sync_region_writes += outcome.memory_writes as u64;
        if !outcome.slept.is_empty() {
            self.idle_candidate = true;
        }
        for core in outcome.slept.iter() {
            self.slots[core.index()].core.set_gated(true);
        }
        for core in outcome.woken.iter() {
            let slot = &mut self.slots[core.index()];
            slot.core.set_gated(false);
            // Invariant guard: a load retired just before a sleep must
            // not charge the first post-wake instruction a hazard stall.
            slot.core.clear_hazard();
        }
        self.stats.cycles += 1;
        Ok(())
    }

    /// Records one stalled cycle of `core` at `pc` in all three places
    /// that count stalls: the per-core counter, the observability stall
    /// run and the trace ring.
    fn record_stall(&mut self, cycle: u64, core: usize, pc: u32, cause: StallCause) {
        let cs = &mut self.stats.cores[core];
        match cause {
            StallCause::ImConflict => cs.stall_im += 1,
            StallCause::DmConflict => cs.stall_dm += 1,
            StallCause::LoadUseHazard => cs.stall_hazard += 1,
        }
        self.obs.stall(cycle, core, cause);
        if let Some(tracer) = &mut self.tracer {
            tracer.record_stall(StallRecord {
                cycle,
                core,
                pc,
                cause,
            });
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
        p.set_adc_streams(vec![vec![55]]);
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
        p.set_adc_streams(vec![vec![1234]]);
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
        p.enable_trace(16, 0xFF);
        let err = p.run(1_000_000).unwrap_err();
        let SimError::Watchdog(pm) = err else {
            panic!("expected watchdog trip, got {err:?}");
        };
        assert_eq!(pm.trip, WatchdogTrip::Deadlock { waiting: vec![0] });
        assert!(pm.cores[0].gated);
        assert!(pm.points[0].value.flags().bits() & 1 != 0, "core 0 flagged");
        assert!(!pm.trace_tail.is_empty(), "trace tail captured");
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

    /// The 1-slot instance must stay an instance: the arbitrated driver
    /// runs the same single-core programs to the same stats, trace
    /// (stalls included) and data memory.
    #[test]
    fn both_cycle_drivers_agree_on_single_core_programs() {
        type Setup = fn(&mut Platform);
        let cases: [(&str, Setup); 7] = [
            (ARITHMETIC, |_| {}),
            (LOOP, |_| {}),
            (LOAD_USE, |_| {}),
            (LOAD_USE, |p| p.set_forwarding(true)),
            (SQUASH, |_| {}),
            (WAKE, |p| p.set_adc_streams(vec![vec![55]])),
            (SYNC_READ, |p| p.preload_sync_point(0, 3, false).unwrap()),
        ];
        for (asm, setup) in cases {
            let twins = [
                Platform::step_arbitrated as fn(&mut Platform) -> Result<(), SimError>,
                Platform::step_single,
            ]
            .map(|driver| {
                let mut p = single_core_platform(asm);
                setup(&mut p);
                p.enable_trace(4096, 0xFF);
                let exit = p.run_with(100_000, driver).unwrap();
                (p, exit)
            });
            let [(general, general_exit), (single, single_exit)] = twins;
            assert_eq!(general_exit, RunExit::AllHalted, "{asm}");
            assert_eq!(general_exit, single_exit, "{asm}");
            assert_eq!(general.stats(), single.stats(), "{asm}");
            let entries = |p: &Platform| p.trace().unwrap().entries().copied().collect::<Vec<_>>();
            assert_eq!(entries(&general), entries(&single), "{asm}");
            for bank in 0..wbsn_isa::DM_BANKS {
                for row in 0..wbsn_isa::DM_BANK_WORDS {
                    let loc = DmLocation { bank, row };
                    assert_eq!(general.dm.read(loc), single.dm.read(loc), "{asm}");
                }
            }
        }
    }
}
