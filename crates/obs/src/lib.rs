//! Observability layer for the WBSN simulator.
//!
//! This crate defines a typed event stream over everything the paper's
//! platform does that is worth watching — synchronizer activity, clock
//! gating, bank power-up, ADC traffic, mapping-phase transitions and
//! stall runs — plus the sinks that consume it:
//!
//! * [`CountingSink`] — three log2 histograms (sleep latency, sync
//!   gaps, stall-run lengths), cheap enough for every sweep cell; the
//!   event totals live in the simulator's `SimStats` and `SyncStats`;
//! * [`PhaseProfiler`] — attributes every core-cycle to the mapping
//!   phase executing at retirement;
//! * [`TraceJsonSink`] — a Chrome/Perfetto `trace_event` timeline.
//!
//! The recorder also keeps the most recent events in a bounded ring
//! ([`ObsConfig::ring`]): the emitted events interleaved with every
//! retirement ([`Event::Retire`]) and stalled cycle ([`Event::Stall`]),
//! which only the ring holds. It is the simulator's single
//! instruction-level trace and the tail of a watchdog post-mortem.
//!
//! The simulator talks to the layer through [`Obs`], whose hooks are
//! `#[inline]`. Disabled, every hook is a `None` check. With only the
//! counting sink, the hooks that feed just the profiler, timeline or
//! ring (retirements and stalled cycles among them) return on a flag
//! kept in the handle, and only event-level hooks reach the recorder:
//! sync ops, synchronizer outcomes and the stall runs the simulator
//! closes itself ([`Obs::stall_run`]). On `table1` of the repository's
//! benchmark, run time with counting over run time without
//! (`obs.overhead_ratio`) measured a median of 1.03 on a 2-vCPU
//! x86-64 host. Construct a recorder with [`ObsConfig`] and
//! [`Obs::enable`].

pub mod count;
pub mod event;
pub mod hist;
pub mod json;
pub mod perfetto;
pub mod profile;

use std::collections::VecDeque;
use std::fmt;

pub use count::{CountingSink, ObsSummary};
pub use event::{AdcEvent, Event, PhaseEvent, PowerEvent, StallCause, SyncEvent, TimedEvent};
pub use hist::Histogram;
pub use perfetto::TraceJsonSink;
pub use profile::{PhaseCounters, PhaseProfiler, PhaseRow, UNMAPPED_PHASE};

use wbsn_core::{SyncOutcome, MAX_CORES};
use wbsn_isa::{Instr, PhaseTable, SyncKind, NO_PHASE};

/// What to record.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Run the [`CountingSink`].
    pub counting: bool,
    /// Run the [`PhaseProfiler`].
    pub profile: bool,
    /// Run the [`TraceJsonSink`].
    pub trace: bool,
    /// Keep the most recent events, retirements and stalled cycles in a
    /// ring of this capacity (0 disables the ring).
    pub ring: usize,
    /// Phase table for pc → phase attribution. Without it, profiling
    /// and phase slices collapse into the unmapped phase.
    pub phases: Option<PhaseTable>,
}

impl ObsConfig {
    /// Counters and histograms only — the sweep engine's configuration.
    pub fn counting_only() -> ObsConfig {
        ObsConfig {
            counting: true,
            ..ObsConfig::default()
        }
    }

    /// Everything on: counting, profiling, timeline export and a
    /// post-mortem ring.
    pub fn full(phases: Option<PhaseTable>) -> ObsConfig {
        ObsConfig {
            counting: true,
            profile: true,
            trace: true,
            ring: 256,
            phases,
        }
    }

    /// Whether a consumer of the per-cycle hooks is selected: the
    /// profiler, the timeline or the ring.
    fn per_cycle(&self) -> bool {
        self.profile || self.trace || self.ring > 0
    }
}

/// Up-front reservation cap of the ring: a large capacity grows on
/// demand instead of being allocated whole.
const RING_RESERVE: usize = 1 << 20;

/// The live recorder behind an enabled [`Obs`] handle.
pub struct ObsCore {
    cores: usize,
    phases: Option<PhaseTable>,
    cur_phase: [u16; MAX_CORES],
    gate_start: [Option<(u64, u16)>; MAX_CORES],
    last_sync: [Option<u64>; MAX_CORES],
    im_banks_on: u32,
    dm_banks_on: u32,
    counting: Option<CountingSink>,
    profiler: Option<PhaseProfiler>,
    trace: Option<TraceJsonSink>,
    ring: VecDeque<TimedEvent>,
    ring_capacity: usize,
}

impl fmt::Debug for ObsCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsCore")
            .field("cores", &self.cores)
            .field("counting", &self.counting.is_some())
            .field("profile", &self.profiler.is_some())
            .field("trace", &self.trace.is_some())
            .field("ring_capacity", &self.ring_capacity)
            .finish()
    }
}

impl ObsCore {
    /// A recorder for `cores` cores. Only [`Obs::enable`] builds one, so
    /// the per-cycle hooks run only when [`Obs`] lets them through.
    fn new(cores: usize, config: ObsConfig) -> ObsCore {
        let cores = cores.min(MAX_CORES);
        let names: Vec<String> = config
            .phases
            .as_ref()
            .map(|t| t.names().to_vec())
            .unwrap_or_default();
        let profiler = config
            .profile
            .then(|| PhaseProfiler::new(cores, names.clone()));
        let trace = config.trace.then(|| TraceJsonSink::new(names));
        ObsCore {
            cores,
            cur_phase: [NO_PHASE; MAX_CORES],
            gate_start: [None; MAX_CORES],
            last_sync: [None; MAX_CORES],
            im_banks_on: 0,
            dm_banks_on: 0,
            counting: config.counting.then(CountingSink::new),
            profiler,
            trace,
            ring: VecDeque::with_capacity(config.ring.min(RING_RESERVE)),
            ring_capacity: config.ring,
            phases: config.phases,
        }
    }

    /// Keeps `event` in the ring, evicting the oldest entry when full.
    #[inline]
    fn record(&mut self, cycle: u64, event: Event) {
        if self.ring_capacity > 0 {
            if self.ring.len() == self.ring_capacity {
                self.ring.pop_front();
            }
            self.ring.push_back(TimedEvent { cycle, event });
        }
    }

    /// Records `event` in the ring and hands it to the sinks.
    #[inline]
    fn emit(&mut self, cycle: u64, event: Event) {
        self.record(cycle, event);
        if let Some(sink) = &mut self.counting {
            sink.on_event(&event);
        }
        if let Some(sink) = &mut self.trace {
            sink.on_event(cycle, &event);
        }
    }

    /// Profiler slot for a phase index.
    #[inline]
    fn slot(&self, phase: u16) -> usize {
        if phase == NO_PHASE {
            self.phases.as_ref().map_or(0, |t| t.num_phases())
        } else {
            phase as usize
        }
    }

    /// One active (ungated) cycle on `core`, with the program counter
    /// it is about to execute.
    #[inline]
    pub fn active_cycle(&mut self, cycle: u64, core: usize, pc: u32) {
        let phase = self.phases.as_ref().map_or(NO_PHASE, |t| t.phase_at(pc));
        if phase != self.cur_phase[core] {
            let old = self.cur_phase[core];
            if old != NO_PHASE {
                self.emit(
                    cycle,
                    Event::Phase(PhaseEvent::Exit {
                        core: core as u8,
                        phase: old,
                    }),
                );
            }
            if phase != NO_PHASE {
                self.emit(
                    cycle,
                    Event::Phase(PhaseEvent::Enter {
                        core: core as u8,
                        phase,
                    }),
                );
            }
            self.cur_phase[core] = phase;
        }
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.active(core, slot);
            }
        }
    }

    /// One stall cycle on `core`, held at `pc`, kept in the ring. The
    /// simulator counts consecutive stalls with the same cause into a
    /// run and reports it through [`ObsCore::stall_run`].
    #[inline]
    pub fn stall(&mut self, cycle: u64, core: usize, pc: u32, cause: StallCause) {
        self.record(
            cycle,
            Event::Stall {
                core: core as u8,
                pc,
                cause,
            },
        );
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.stall(core, slot, cause);
            }
        }
    }

    /// One bubble cycle on `core`.
    #[inline]
    pub fn bubble(&mut self, _cycle: u64, core: usize) {
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.bubble(core, slot);
            }
        }
    }

    /// `core` ended a run of `len` consecutive stalled cycles with
    /// `cause` at `cycle`: a stall with another cause, a retirement or
    /// the end of the recording.
    pub fn stall_run(&mut self, cycle: u64, core: usize, cause: StallCause, len: u64) {
        self.emit(
            cycle,
            Event::StallRun {
                core: core as u8,
                cause,
                len,
            },
        );
    }

    /// `core` retired `instr` from `pc` this cycle.
    #[inline]
    pub fn retire(&mut self, cycle: u64, core: usize, pc: u32, instr: Instr) {
        self.record(
            cycle,
            Event::Retire {
                core: core as u8,
                pc,
                instr,
            },
        );
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.retire(core, slot);
            }
        }
    }

    /// `core` retired a synchronization instruction on `point`.
    #[inline]
    pub fn sync_op(&mut self, cycle: u64, core: usize, kind: SyncKind, point: u16) {
        let since_last = self.last_sync[core].map(|last| cycle - last);
        self.last_sync[core] = Some(cycle);
        self.emit(
            cycle,
            Event::Sync(SyncEvent::OpRetired {
                core: core as u8,
                kind,
                point,
                since_last,
            }),
        );
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.sync_op(core, slot);
            }
        }
    }

    /// `core` issued a `SLEEP` this cycle.
    #[inline]
    pub fn sleep_op(&mut self, _cycle: u64, core: usize) {
        if self.profiler.is_some() {
            let slot = self.slot(self.cur_phase[core]);
            if let Some(p) = &mut self.profiler {
                p.sleep(core, slot);
            }
        }
    }

    /// The synchronizer committed a cycle; translate its outcome into
    /// events and gate bookkeeping.
    pub fn sync_outcome(&mut self, cycle: u64, outcome: &SyncOutcome) {
        for touch in &outcome.touched {
            if touch.requests > 1 {
                self.emit(
                    cycle,
                    Event::Sync(SyncEvent::PointMerged {
                        point: touch.point,
                        requests: touch.requests,
                    }),
                );
            }
            if touch.armed {
                self.emit(
                    cycle,
                    Event::Sync(SyncEvent::PointArmed { point: touch.point }),
                );
            }
            for core in touch.flagged.iter() {
                self.emit(
                    cycle,
                    Event::Sync(SyncEvent::CoreFlagged {
                        core: core.index() as u8,
                        point: touch.point,
                    }),
                );
            }
        }
        for (i, &point) in outcome.fired_points.iter().enumerate() {
            let woken = outcome.fired_wakes.get(i).map_or(0, |set| set.bits());
            self.emit(
                cycle,
                Event::Sync(SyncEvent::PointReleased { point, woken }),
            );
        }
        for core in outcome.fell_through.iter() {
            self.emit(
                cycle,
                Event::Sync(SyncEvent::SleepFellThrough {
                    core: core.index() as u8,
                }),
            );
        }
        for core in outcome.slept.iter() {
            let idx = core.index();
            self.emit(cycle, Event::Sync(SyncEvent::CoreSlept { core: idx as u8 }));
            self.emit(cycle, Event::Power(PowerEvent::Gate { core: idx as u8 }));
            if idx < MAX_CORES {
                self.gate_start[idx] = Some((cycle, self.cur_phase[idx]));
            }
        }
        for core in outcome.woken.iter() {
            let idx = core.index();
            let (slept_cycles, phase) = match self.gate_start.get_mut(idx).and_then(Option::take) {
                Some((start, phase)) => (cycle.saturating_sub(start), phase),
                None => (0, NO_PHASE),
            };
            self.emit(
                cycle,
                Event::Sync(SyncEvent::CoreWoken {
                    core: idx as u8,
                    slept_cycles,
                }),
            );
            self.emit(cycle, Event::Power(PowerEvent::Ungate { core: idx as u8 }));
            if self.profiler.is_some() {
                let slot = self.slot(phase);
                if let Some(p) = &mut self.profiler {
                    p.gated(idx, slot, slept_cycles);
                }
            }
        }
    }

    /// The ADC latched a sample and raised the interrupt sources in
    /// `mask`.
    pub fn adc_sample(&mut self, cycle: u64, mask: u16) {
        if mask == 0 {
            return;
        }
        self.emit(cycle, Event::Adc(AdcEvent::SampleReady { channels: mask }));
        for source in 0..16u8 {
            if mask & (1 << source) != 0 {
                self.emit(cycle, Event::Adc(AdcEvent::IrqForwarded { source }));
            }
        }
    }

    /// An instruction-memory bank served an access (first touch emits a
    /// power-up event).
    #[inline]
    pub fn im_access(&mut self, cycle: u64, bank: usize) {
        let bit = 1u32 << (bank as u32 & 31);
        if self.im_banks_on & bit == 0 {
            self.im_banks_on |= bit;
            self.emit(
                cycle,
                Event::Power(PowerEvent::ImBankOn { bank: bank as u8 }),
            );
        }
    }

    /// A data-memory bank served an access (first touch emits a
    /// power-up event).
    #[inline]
    pub fn dm_access(&mut self, cycle: u64, bank: usize) {
        let bit = 1u32 << (bank as u32 & 31);
        if self.dm_banks_on & bit == 0 {
            self.dm_banks_on |= bit;
            self.emit(
                cycle,
                Event::Power(PowerEvent::DmBankOn { bank: bank as u8 }),
            );
        }
    }

    /// Ends the recording: attributes open gated intervals, and lets
    /// the timeline close open slices. Idempotent: each open interval
    /// and slice closes once.
    pub fn finish(&mut self, cycle: u64) {
        for core in 0..self.cores {
            if let Some((start, phase)) = self.gate_start[core].take() {
                let slept = cycle.saturating_sub(start);
                let slot = self.slot(phase);
                if let Some(p) = &mut self.profiler {
                    p.gated(core, slot, slept);
                }
            }
        }
        if let Some(sink) = &mut self.trace {
            sink.finish(cycle);
        }
    }

    /// The counting sink, if enabled.
    pub fn counting(&self) -> Option<&CountingSink> {
        self.counting.as_ref()
    }

    /// The per-phase profiler, if enabled.
    pub fn profiler(&self) -> Option<&PhaseProfiler> {
        self.profiler.as_ref()
    }

    /// The timeline exporter, if enabled.
    pub fn trace_sink(&self) -> Option<&TraceJsonSink> {
        self.trace.as_ref()
    }

    /// Renders the timeline as `trace_event` JSON, if tracing was
    /// enabled.
    pub fn trace_json(&self) -> Option<String> {
        self.trace.as_ref().map(TraceJsonSink::to_json)
    }

    /// The phase table, if one was configured.
    pub fn phases(&self) -> Option<&PhaseTable> {
        self.phases.as_ref()
    }

    /// The retained ring, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.ring.iter()
    }

    /// The last `n` ring entries rendered as `[cycle] description`
    /// lines, oldest first.
    pub fn tail_rendered(&self, n: usize) -> Vec<String> {
        let skip = self.ring.len().saturating_sub(n);
        self.ring
            .iter()
            .skip(skip)
            .map(|t| format!("[{:>10}] {}", t.cycle, t.event.render(self.phases.as_ref())))
            .collect()
    }
}

/// The simulator-facing handle: `Obs::default()` is off and every hook
/// is a `None` check away from returning.
#[derive(Debug, Default)]
pub struct Obs {
    core: Option<Box<ObsCore>>,
    /// A consumer of per-cycle detail is attached: the profiler, the
    /// timeline or the ring. Without one, the per-cycle hooks
    /// (`active_cycle`, `stall`, `bubble`, `retire`, `sleep_op`,
    /// `adc_sample`, `im_access`, `dm_access`) return at once, since the
    /// counting sink ignores what they feed. Kept in the handle so that those hooks test it
    /// without following the box.
    detail: bool,
}

macro_rules! forward {
    ($(#[$doc:meta])* $name:ident ( $($arg:ident : $ty:ty),* )) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(&mut self, $($arg: $ty),*) {
            if let Some(core) = &mut self.core {
                core.$name($($arg),*);
            }
        }
    };
    (detail $(#[$doc:meta])* $name:ident ( $($arg:ident : $ty:ty),* )) => {
        $(#[$doc])*
        #[inline]
        pub fn $name(&mut self, $($arg: $ty),*) {
            if self.detail {
                if let Some(core) = &mut self.core {
                    core.$name($($arg),*);
                }
            }
        }
    };
}

impl Obs {
    /// A disabled handle.
    pub const fn off() -> Obs {
        Obs {
            core: None,
            detail: false,
        }
    }

    /// Enables recording for `cores` cores with `config`.
    pub fn enable(&mut self, cores: usize, config: ObsConfig) {
        self.detail = config.per_cycle();
        self.core = Some(Box::new(ObsCore::new(cores, config)));
    }

    /// True when a recorder is attached.
    pub fn enabled(&self) -> bool {
        self.core.is_some()
    }

    /// The recorder, if enabled.
    pub fn recorder(&self) -> Option<&ObsCore> {
        self.core.as_deref()
    }

    forward!(
        detail
        /// See [`ObsCore::active_cycle`].
        active_cycle(cycle: u64, core: usize, pc: u32)
    );
    forward!(
        detail
        /// See [`ObsCore::stall`].
        stall(cycle: u64, core: usize, pc: u32, cause: StallCause)
    );
    forward!(
        /// See [`ObsCore::stall_run`].
        stall_run(cycle: u64, core: usize, cause: StallCause, len: u64)
    );
    forward!(
        detail
        /// See [`ObsCore::bubble`].
        bubble(cycle: u64, core: usize)
    );
    forward!(
        detail
        /// See [`ObsCore::retire`].
        retire(cycle: u64, core: usize, pc: u32, instr: Instr)
    );
    forward!(
        /// See [`ObsCore::sync_op`].
        sync_op(cycle: u64, core: usize, kind: SyncKind, point: u16)
    );
    forward!(
        detail
        /// See [`ObsCore::sleep_op`].
        sleep_op(cycle: u64, core: usize)
    );
    forward!(
        detail
        /// See [`ObsCore::adc_sample`].
        adc_sample(cycle: u64, mask: u16)
    );
    forward!(
        detail
        /// See [`ObsCore::im_access`].
        im_access(cycle: u64, bank: usize)
    );
    forward!(
        detail
        /// See [`ObsCore::dm_access`].
        dm_access(cycle: u64, bank: usize)
    );
    forward!(
        /// See [`ObsCore::sync_outcome`].
        sync_outcome(cycle: u64, outcome: &SyncOutcome)
    );
    forward!(
        /// See [`ObsCore::finish`].
        finish(cycle: u64)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_core::{CoreSet, PointTouch};

    fn outcome_release(point: u16, woken_core: usize) -> SyncOutcome {
        let set = CoreSet::from_bits(1 << woken_core);
        SyncOutcome {
            woken: set,
            slept: CoreSet::empty(),
            fell_through: CoreSet::empty(),
            fired_points: vec![point],
            fired_wakes: vec![set],
            touched: vec![PointTouch {
                point,
                flagged: CoreSet::empty(),
                requests: 2,
                armed: false,
            }],
            memory_writes: 1,
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let mut obs = Obs::off();
        assert!(!obs.enabled());
        obs.active_cycle(0, 0, 0);
        obs.stall(1, 0, 0, StallCause::ImConflict);
        obs.retire(2, 0, 0, Instr::Nop);
        obs.finish(3);
        assert!(obs.recorder().is_none());
    }

    #[test]
    fn recorder_tracks_sleep_latency_through_outcomes() {
        let mut obs = Obs::off();
        obs.enable(2, ObsConfig::full(None));

        // Core 1 sleeps at cycle 10 and is woken at cycle 35.
        let slept = SyncOutcome {
            slept: CoreSet::from_bits(0b10),
            ..SyncOutcome::default()
        };
        obs.sleep_op(10, 1);
        obs.sync_outcome(10, &slept);
        obs.sync_outcome(35, &outcome_release(4, 1));
        obs.finish(40);

        let rec = obs.recorder().unwrap();
        let counting = rec.counting().unwrap();
        assert_eq!(counting.sleep_cycles.count(), 1);
        assert_eq!(counting.sleep_cycles.max(), 25);

        // The ring retained the story in order.
        let kinds: Vec<_> = rec.events().map(|t| t.event).collect();
        assert!(kinds.contains(&Event::Sync(SyncEvent::CoreSlept { core: 1 })));
        assert!(kinds.contains(&Event::Sync(SyncEvent::CoreWoken {
            core: 1,
            slept_cycles: 25
        })));
        assert!(kinds.contains(&Event::Power(PowerEvent::Gate { core: 1 })));
        assert!(kinds.contains(&Event::Sync(SyncEvent::PointMerged {
            point: 4,
            requests: 2
        })));

        // The trace exporter saw the gate as a 25-cycle sleep slice.
        let json = rec.trace_json().unwrap();
        let doc = json::parse(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let sleep = events
            .iter()
            .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("power"))
            .expect("sleep slice present");
        assert_eq!(sleep.get("dur").unwrap().as_num(), Some(25.0));
    }

    #[test]
    fn unfinished_gate_attributes_to_profiler_on_finish() {
        let mut obs = Obs::off();
        obs.enable(
            1,
            ObsConfig {
                profile: true,
                ..ObsConfig::default()
            },
        );
        let slept = SyncOutcome {
            slept: CoreSet::from_bits(0b1),
            ..SyncOutcome::default()
        };
        obs.sync_outcome(100, &slept);
        obs.finish(160);
        obs.finish(200); // idempotent: the interval closed at 160
        let p = obs.recorder().unwrap().profiler().unwrap();
        let rows = p.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].phase, UNMAPPED_PHASE);
        assert_eq!(rows[0].counters.gated_cycles, 60);
    }

    /// Counting alone skips the per-cycle hooks, yet summarizes exactly
    /// what a recorder with per-cycle consumers summarizes.
    #[test]
    fn per_cycle_hooks_run_only_for_their_consumers() {
        let feed = |obs: &mut Obs| {
            let slept = SyncOutcome {
                slept: CoreSet::from_bits(0b10),
                ..SyncOutcome::default()
            };
            obs.active_cycle(1, 0, 0x40);
            obs.im_access(1, 3);
            obs.dm_access(1, 2);
            obs.stall(2, 0, 0x40, StallCause::DmConflict);
            obs.stall(3, 0, 0x40, StallCause::DmConflict);
            obs.stall_run(4, 0, StallCause::DmConflict, 2);
            obs.retire(4, 0, 0x40, Instr::Nop);
            obs.bubble(5, 0);
            obs.sync_op(6, 1, SyncKind::Nop, 4);
            obs.sleep_op(7, 1);
            obs.sync_outcome(7, &slept);
            obs.adc_sample(20, 0b1);
            obs.sync_outcome(30, &outcome_release(4, 1));
            obs.finish(40);
        };
        let summary = |config: ObsConfig| {
            let mut obs = Obs::off();
            obs.enable(2, config);
            feed(&mut obs);
            obs.recorder().unwrap().counting().unwrap().summary()
        };
        let counting = summary(ObsConfig::counting_only());
        assert_eq!(counting.sleep_count, 1);
        assert_eq!(counting.stall_run_p99_cycles, 2);
        assert_eq!(counting, summary(ObsConfig::full(None)));
    }

    /// The ring keeps the newest `ring` entries of every kind, and a
    /// zero-capacity ring keeps nothing.
    #[test]
    fn ring_keeps_the_newest_retirements_stalls_and_events() {
        let ring = |capacity: usize| {
            let mut obs = Obs::off();
            obs.enable(
                2,
                ObsConfig {
                    ring: capacity,
                    ..ObsConfig::default()
                },
            );
            obs.retire(1, 0, 0x40, Instr::Nop);
            obs.stall(2, 1, 0x80, StallCause::ImConflict);
            obs.stall_run(3, 1, StallCause::ImConflict, 1);
            obs.retire(3, 1, 0x80, Instr::Sleep);
            obs.sync_op(4, 0, SyncKind::Dec, 2);
            obs.stall(5, 0, 0x41, StallCause::LoadUseHazard);
            obs.stall_run(6, 0, StallCause::LoadUseHazard, 1);
            obs.retire(6, 0, 0x41, Instr::Halt);
            let rec = obs.recorder().unwrap();
            rec.events().copied().collect::<Vec<_>>()
        };
        assert!(ring(0).is_empty());
        let stall_run = Event::StallRun {
            core: 0,
            cause: StallCause::LoadUseHazard,
            len: 1,
        };
        assert_eq!(
            ring(3),
            vec![
                TimedEvent {
                    cycle: 5,
                    event: Event::Stall {
                        core: 0,
                        pc: 0x41,
                        cause: StallCause::LoadUseHazard
                    }
                },
                TimedEvent {
                    cycle: 6,
                    event: stall_run
                },
                TimedEvent {
                    cycle: 6,
                    event: Event::Retire {
                        core: 0,
                        pc: 0x41,
                        instr: Instr::Halt
                    }
                },
            ]
        );
        let all = ring(64);
        assert_eq!(all.len(), 8, "{all:?}");
        assert!(all.contains(&TimedEvent {
            cycle: 4,
            event: Event::Sync(SyncEvent::OpRetired {
                core: 0,
                kind: SyncKind::Dec,
                point: 2,
                since_last: None
            })
        }));
    }

    /// A ring far larger than the run reserves a bounded buffer and
    /// grows on demand.
    #[test]
    fn huge_ring_reserves_a_bounded_buffer() {
        let mut obs = Obs::off();
        obs.enable(
            1,
            ObsConfig {
                ring: 4_000_000_000,
                ..ObsConfig::default()
            },
        );
        let rec = obs.recorder().unwrap();
        assert!(rec.ring.capacity() <= 2 * RING_RESERVE);
        obs.retire(1, 0, 0, Instr::Nop);
        assert_eq!(obs.recorder().unwrap().events().count(), 1);
    }

    #[test]
    fn bank_power_events_fire_once() {
        let mut obs = Obs::off();
        obs.enable(
            1,
            ObsConfig {
                ring: 8,
                ..ObsConfig::default()
            },
        );
        obs.im_access(1, 0);
        obs.im_access(2, 0);
        obs.im_access(3, 5);
        obs.dm_access(4, 2);
        obs.dm_access(5, 2);
        let events: Vec<_> = obs.recorder().unwrap().events().map(|t| t.event).collect();
        assert_eq!(
            events,
            vec![
                Event::Power(PowerEvent::ImBankOn { bank: 0 }),
                Event::Power(PowerEvent::ImBankOn { bank: 5 }),
                Event::Power(PowerEvent::DmBankOn { bank: 2 }),
            ]
        );
    }
}
