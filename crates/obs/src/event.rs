//! The typed event taxonomy.
//!
//! Every event is a small `Copy` value — recording one costs a match and
//! a few integer stores, never an allocation, which is what lets the
//! recorder sit inside the simulator's cycle loop.

use std::fmt;

use wbsn_isa::{Instr, PhaseTable, SyncKind, NO_PHASE};

/// Why a core failed to retire on a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Lost instruction-memory arbitration.
    ImConflict,
    /// Lost data-memory arbitration.
    DmConflict,
    /// Load-use hazard interlock.
    LoadUseHazard,
}

impl StallCause {
    /// All causes, in breakdown order.
    pub const ALL: [StallCause; 3] = [
        StallCause::ImConflict,
        StallCause::DmConflict,
        StallCause::LoadUseHazard,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            StallCause::ImConflict => "im-conflict",
            StallCause::DmConflict => "dm-conflict",
            StallCause::LoadUseHazard => "load-use",
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Synchronizer activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncEvent {
    /// A core retired a synchronization-point instruction.
    OpRetired {
        /// The issuing core.
        core: u8,
        /// The instruction kind.
        kind: SyncKind,
        /// The touched point.
        point: u16,
        /// Cycles since this core's previous sync op, if any.
        since_last: Option<u64>,
    },
    /// A merged update armed the point (a `SINC` was present).
    PointArmed {
        /// The armed point.
        point: u16,
    },
    /// Several same-cycle requests merged into the point's single write.
    PointMerged {
        /// The touched point.
        point: u16,
        /// Requests merged into one physical write.
        requests: u8,
    },
    /// The point fired: counter zero, flags set.
    PointReleased {
        /// The fired point.
        point: u16,
        /// Bitmask of the cores that were flagged at release.
        woken: u8,
    },
    /// A core registered itself in a point's flag field.
    CoreFlagged {
        /// The registering core.
        core: u8,
        /// The point.
        point: u16,
    },
    /// A `SLEEP` gated the core.
    CoreSlept {
        /// The gated core.
        core: u8,
    },
    /// A wake resumed the core.
    CoreWoken {
        /// The resumed core.
        core: u8,
        /// Cycles spent clock-gated (0 when the gate was not observed).
        slept_cycles: u64,
    },
    /// A `SLEEP` consumed a pending wake and completed without gating.
    SleepFellThrough {
        /// The core whose sleep fell through.
        core: u8,
    },
}

/// Clock-gating and bank power state changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerEvent {
    /// The core's clock was gated.
    Gate {
        /// The gated core.
        core: u8,
    },
    /// The core's clock was restored.
    Ungate {
        /// The resumed core.
        core: u8,
    },
    /// First access to an instruction-memory bank (it must be powered).
    ImBankOn {
        /// The bank.
        bank: u8,
    },
    /// First access to a data-memory bank.
    DmBankOn {
        /// The bank.
        bank: u8,
    },
}

/// Mapping-phase transitions, derived from the program counter and the
/// image's placed sections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseEvent {
    /// The core started executing inside the phase's section.
    Enter {
        /// The core.
        core: u8,
        /// Phase index (into the image's [`PhaseTable`]).
        phase: u16,
    },
    /// The core left the phase's section.
    Exit {
        /// The core.
        core: u8,
        /// Phase index.
        phase: u16,
    },
}

/// ADC activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdcEvent {
    /// A sample latched into the data registers.
    SampleReady {
        /// Bitmask of the interrupt sources raised (one per channel).
        channels: u16,
    },
    /// One data-ready interrupt was forwarded to the synchronizer.
    IrqForwarded {
        /// The interrupt source.
        source: u8,
    },
}

/// Any observable event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Synchronizer activity.
    Sync(SyncEvent),
    /// Power state change.
    Power(PowerEvent),
    /// Mapping-phase transition.
    Phase(PhaseEvent),
    /// ADC activity.
    Adc(AdcEvent),
    /// A completed run of consecutive stall cycles on one core (emitted
    /// when the run ends, so the whole run is one event).
    StallRun {
        /// The stalled core.
        core: u8,
        /// The cause shared by the run.
        cause: StallCause,
        /// Run length in cycles.
        len: u64,
    },
    /// A core retired an instruction. Kept in the recorder's ring only;
    /// no sink sees it.
    Retire {
        /// The retiring core.
        core: u8,
        /// Program counter of the instruction.
        pc: u32,
        /// The decoded instruction.
        instr: Instr,
    },
    /// A core failed to retire on this cycle. Kept in the recorder's
    /// ring only; the sinks see the whole run as one
    /// [`Event::StallRun`].
    Stall {
        /// The stalled core.
        core: u8,
        /// Program counter the core was held at.
        pc: u32,
        /// Why it could not retire.
        cause: StallCause,
    },
}

/// An event with its cycle stamp — what the recorder's ring holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Cycle at which the event was recorded.
    pub cycle: u64,
    /// The event.
    pub event: Event,
}

impl Event {
    /// Renders the event as one human-readable line, resolving phase
    /// indices through `phases` when available.
    pub fn render(&self, phases: Option<&PhaseTable>) -> String {
        let phase_name = |idx: u16| -> String {
            if idx == NO_PHASE {
                return "<unmapped>".to_string();
            }
            phases
                .and_then(|t| t.name_of(idx))
                .map(str::to_string)
                .unwrap_or_else(|| format!("phase{idx}"))
        };
        match self {
            Event::Sync(e) => match e {
                SyncEvent::OpRetired {
                    core,
                    kind,
                    point,
                    since_last,
                } => {
                    let kind = match kind {
                        SyncKind::Inc => "sinc",
                        SyncKind::Dec => "sdec",
                        SyncKind::Nop => "snop",
                    };
                    match since_last {
                        Some(gap) => format!("core{core} {kind} p{point} (+{gap} cycles)"),
                        None => format!("core{core} {kind} p{point}"),
                    }
                }
                SyncEvent::PointArmed { point } => format!("point p{point} armed"),
                SyncEvent::PointMerged { point, requests } => {
                    format!("point p{point} merged {requests} requests into one write")
                }
                SyncEvent::PointReleased { point, woken } => {
                    format!("point p{point} released (flagged mask {woken:#04x})")
                }
                SyncEvent::CoreFlagged { core, point } => {
                    format!("core{core} flagged in p{point}")
                }
                SyncEvent::CoreSlept { core } => format!("core{core} slept"),
                SyncEvent::CoreWoken { core, slept_cycles } => {
                    format!("core{core} woken after {slept_cycles} gated cycles")
                }
                SyncEvent::SleepFellThrough { core } => {
                    format!("core{core} sleep fell through on a pending wake")
                }
            },
            Event::Power(e) => match e {
                PowerEvent::Gate { core } => format!("core{core} clock gated"),
                PowerEvent::Ungate { core } => format!("core{core} clock restored"),
                PowerEvent::ImBankOn { bank } => format!("im bank {bank} powered"),
                PowerEvent::DmBankOn { bank } => format!("dm bank {bank} powered"),
            },
            Event::Phase(e) => match e {
                PhaseEvent::Enter { core, phase } => {
                    format!("core{core} entered phase {}", phase_name(*phase))
                }
                PhaseEvent::Exit { core, phase } => {
                    format!("core{core} left phase {}", phase_name(*phase))
                }
            },
            Event::Adc(e) => match e {
                AdcEvent::SampleReady { channels } => {
                    format!("adc sample ready (sources {channels:#06x})")
                }
                AdcEvent::IrqForwarded { source } => format!("adc irq {source} forwarded"),
            },
            Event::StallRun { core, cause, len } => {
                format!("core{core} stalled {len} cycles ({cause})")
            }
            Event::Retire { core, pc, instr } => format!("core{core} {pc:#06x}: {instr}"),
            Event::Stall { core, pc, cause } => format!("core{core} {pc:#06x}: ~~ stall ({cause})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_without_a_phase_table() {
        let e = Event::Sync(SyncEvent::CoreWoken {
            core: 3,
            slept_cycles: 120,
        });
        assert_eq!(e.render(None), "core3 woken after 120 gated cycles");
        let e = Event::StallRun {
            core: 1,
            cause: StallCause::ImConflict,
            len: 4,
        };
        assert!(e.render(None).contains("im-conflict"));
        let e = Event::Retire {
            core: 0,
            pc: 5,
            instr: Instr::Sync {
                kind: SyncKind::Dec,
                point: 0,
            },
        };
        assert_eq!(e.render(None), "core0 0x0005: sdec 0");
        let e = Event::Stall {
            core: 2,
            pc: 0x42,
            cause: StallCause::LoadUseHazard,
        };
        assert_eq!(e.render(None), "core2 0x0042: ~~ stall (load-use)");
        let e = Event::Phase(PhaseEvent::Enter { core: 0, phase: 2 });
        assert_eq!(e.render(None), "core0 entered phase phase2");
        let e = Event::Phase(PhaseEvent::Exit {
            core: 0,
            phase: NO_PHASE,
        });
        assert!(e.render(None).contains("<unmapped>"));
    }
}
