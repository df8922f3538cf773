//! Execution tracing: a bounded ring of retired instructions and the
//! stalls between them.
//!
//! Tracing is the debugging companion of the platform: when enabled it
//! records the last `capacity` entries — retirements (cycle, core,
//! program counter and decoded instruction) interleaved with the cycles
//! a core *failed* to retire and why (instruction-memory conflict,
//! data-memory conflict, load-use hazard) — which is usually what one
//! needs to diagnose a misbehaving kernel: why a core slept, which
//! branch diverged, what a lock-step group was fetching when it lost
//! alignment, and what kept it from advancing.

use std::collections::VecDeque;
use std::fmt;

use wbsn_isa::Instr;

use wbsn_obs::StallCause;

/// One retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle of retirement.
    pub cycle: u64,
    /// Core that retired the instruction.
    pub core: usize,
    /// Program counter of the instruction.
    pub pc: u32,
    /// The decoded instruction.
    pub instr: Instr,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}] core{} {:#06x}: {}",
            self.cycle, self.core, self.pc, self.instr
        )
    }
}

/// One cycle a core failed to retire, with the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallRecord {
    /// The stalled cycle.
    pub cycle: u64,
    /// The stalled core.
    pub core: usize,
    /// Program counter the core was held at.
    pub pc: u32,
    /// Why it could not retire.
    pub cause: StallCause,
}

impl StallRecord {
    fn cause_label(&self) -> &'static str {
        match self.cause {
            StallCause::ImConflict => "im conflict",
            StallCause::DmConflict => "dm conflict",
            StallCause::LoadUseHazard => "load-use hazard",
        }
    }
}

impl fmt::Display for StallRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}] core{} {:#06x}: ~~ stall ({})",
            self.cycle,
            self.core,
            self.pc,
            self.cause_label()
        )
    }
}

/// One ring entry: a retirement or a stalled cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEntry {
    /// An instruction retired.
    Retire(TraceEvent),
    /// The core was held this cycle.
    Stall(StallRecord),
}

impl TraceEntry {
    /// The entry's core.
    pub fn core(&self) -> usize {
        match self {
            TraceEntry::Retire(e) => e.core,
            TraceEntry::Stall(s) => s.core,
        }
    }

    /// The entry's cycle.
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEntry::Retire(e) => e.cycle,
            TraceEntry::Stall(s) => s.cycle,
        }
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEntry::Retire(e) => e.fmt(f),
            TraceEntry::Stall(s) => s.fmt(f),
        }
    }
}

/// A bounded retirement-and-stall trace.
#[derive(Debug, Clone)]
pub struct Tracer {
    ring: VecDeque<TraceEntry>,
    capacity: usize,
    core_mask: u8,
}

impl Tracer {
    /// Creates a tracer holding the last `capacity` entries for the cores
    /// in `core_mask` (bit per core).
    pub fn new(capacity: usize, core_mask: u8) -> Tracer {
        Tracer {
            ring: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            core_mask,
        }
    }

    /// Whether `core` is traced.
    pub fn traces(&self, core: usize) -> bool {
        self.core_mask & (1 << core) != 0
    }

    fn push(&mut self, entry: TraceEntry) {
        if !self.traces(entry.core()) {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(entry);
    }

    /// Records one retirement.
    pub fn record(&mut self, event: TraceEvent) {
        self.push(TraceEntry::Retire(event));
    }

    /// Records one stalled cycle.
    pub fn record_stall(&mut self, stall: StallRecord) {
        self.push(TraceEntry::Stall(stall));
    }

    /// The recorded retirements, oldest first (stall entries are
    /// skipped, keeping this iterator cycle-exact with the retirement
    /// stream the differential oracle compares).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter().filter_map(|entry| match entry {
            TraceEntry::Retire(e) => Some(e),
            TraceEntry::Stall(_) => None,
        })
    }

    /// All recorded entries — retirements and stalls — oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.ring.iter()
    }

    /// Number of recorded entries (retirements and stalls).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Renders the trace as a listing.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for entry in &self.ring {
            use std::fmt::Write;
            let _ = writeln!(out, "{entry}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_isa::{Instr, Reg};

    fn event(cycle: u64, core: usize) -> TraceEvent {
        TraceEvent {
            cycle,
            core,
            pc: 0x40 + cycle as u32,
            instr: Instr::add(Reg::R1, Reg::R2, Reg::R3),
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut t = Tracer::new(3, 0xFF);
        for cycle in 0..5 {
            t.record(event(cycle, 0));
        }
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn core_mask_filters() {
        let mut t = Tracer::new(8, 0b01);
        t.record(event(0, 0));
        t.record(event(1, 1));
        t.record_stall(StallRecord {
            cycle: 2,
            core: 1,
            pc: 0x10,
            cause: StallCause::DmConflict,
        });
        assert_eq!(t.len(), 1);
        assert!(t.traces(0));
        assert!(!t.traces(1));
    }

    #[test]
    fn listing_contains_pcs_and_mnemonics() {
        let mut t = Tracer::new(4, 0xFF);
        t.record(event(7, 2));
        let listing = t.listing();
        assert!(listing.contains("core2"));
        assert!(listing.contains("add r1, r2, r3"));
        assert!(!t.is_empty());
    }

    #[test]
    fn stalls_interleave_but_events_stay_retirements_only() {
        let mut t = Tracer::new(8, 0xFF);
        t.record(event(1, 0));
        t.record_stall(StallRecord {
            cycle: 2,
            core: 0,
            pc: 0x42,
            cause: StallCause::ImConflict,
        });
        t.record(event(3, 0));

        assert_eq!(t.len(), 3);
        // The retirement iterator and its Display format are unchanged.
        let retired: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(retired, vec![1, 3]);
        let listing = t.listing();
        assert!(listing.contains("~~ stall (im conflict)"));
        // A retirement line renders exactly as before.
        assert!(listing.contains(&format!("{}", event(1, 0))));
    }

    #[test]
    fn stall_records_render_each_cause() {
        for (cause, label) in [
            (StallCause::ImConflict, "im conflict"),
            (StallCause::DmConflict, "dm conflict"),
            (StallCause::LoadUseHazard, "load-use hazard"),
        ] {
            let s = StallRecord {
                cycle: 9,
                core: 3,
                pc: 0x80,
                cause,
            };
            assert!(s.to_string().contains(label));
            assert_eq!(TraceEntry::Stall(s).core(), 3);
            assert_eq!(TraceEntry::Stall(s).cycle(), 9);
        }
    }
}
