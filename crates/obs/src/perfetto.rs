//! Chrome/Perfetto `trace_event` JSON exporter.
//!
//! Emits the JSON Object Format (`{"traceEvents": [...]}`) that both
//! `chrome://tracing` and <https://ui.perfetto.dev> open directly. One
//! simulated cycle maps to one microsecond of trace time, so the
//! timeline axis reads in cycles.
//!
//! Track layout: each core owns a group of three threads —
//! `tid = core*4` carries mapping-phase slices, `core*4 + 1` carries
//! sleep (clock-gated) slices, `core*4 + 2` carries stall slices.
//! Synchronization-point releases and ADC samples appear as instant
//! events on a dedicated platform track.

use crate::event::{AdcEvent, Event, PhaseEvent, PowerEvent, SyncEvent};
use crate::json::escape;

/// Process id used for every track (one simulated platform).
const PID: u32 = 1;
/// Thread id carrying platform-wide instant events.
const PLATFORM_TID: u32 = 1000;
/// Per-core thread-group stride.
const CORE_STRIDE: u32 = 4;
/// Cores the exporter can track.
const MAX_CORES: usize = 8;

#[derive(Debug, Clone)]
enum Record {
    Complete {
        tid: u32,
        cat: &'static str,
        name: String,
        ts: u64,
        dur: u64,
    },
    Instant {
        tid: u32,
        cat: &'static str,
        name: String,
        ts: u64,
        args: Option<(&'static str, u64)>,
    },
}

/// Accumulates the event stream and renders a `trace_event` document.
#[derive(Debug, Clone)]
pub struct TraceJsonSink {
    phase_names: Vec<String>,
    records: Vec<Record>,
    open_phase: [Option<(u64, u16)>; MAX_CORES],
    open_gate: [Option<u64>; MAX_CORES],
    cores_seen: [bool; MAX_CORES],
}

impl TraceJsonSink {
    /// A sink that labels phase slices with `phase_names` (indexable by
    /// the `phase` field of [`PhaseEvent`]).
    pub fn new(phase_names: Vec<String>) -> TraceJsonSink {
        TraceJsonSink {
            phase_names,
            records: Vec::new(),
            open_phase: [None; MAX_CORES],
            open_gate: [None; MAX_CORES],
            cores_seen: [false; MAX_CORES],
        }
    }

    fn phase_name(&self, idx: u16) -> String {
        self.phase_names
            .get(idx as usize)
            .cloned()
            .unwrap_or_else(|| format!("phase{idx}"))
    }

    fn close_phase(&mut self, core: usize, now: u64) {
        if let Some((start, phase)) = self.open_phase[core].take() {
            let name = self.phase_name(phase);
            self.records.push(Record::Complete {
                tid: core as u32 * CORE_STRIDE,
                cat: "phase",
                name,
                ts: start,
                dur: now.saturating_sub(start),
            });
        }
    }

    fn close_gate(&mut self, core: usize, now: u64) {
        if let Some(start) = self.open_gate[core].take() {
            self.records.push(Record::Complete {
                tid: core as u32 * CORE_STRIDE + 1,
                cat: "power",
                name: "sleep".to_string(),
                ts: start,
                dur: now.saturating_sub(start),
            });
        }
    }

    /// Number of buffered records (before metadata).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records were buffered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the complete `trace_event` JSON document.
    pub fn to_json(&self) -> String {
        let mut events = Vec::new();
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"name\":\"process_name\",\"args\":{{\"name\":\"wbsn platform\"}}}}"
        ));
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{PLATFORM_TID},\"name\":\"thread_name\",\"args\":{{\"name\":\"platform events\"}}}}"
        ));
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{PLATFORM_TID},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{PLATFORM_TID}}}}}"
        ));
        for (core, seen) in self.cores_seen.iter().enumerate() {
            if !seen {
                continue;
            }
            let base = core as u32 * CORE_STRIDE;
            for (off, label) in [(0, "phase"), (1, "sleep"), (2, "stall")] {
                let tid = base + off;
                events.push(format!(
                    "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"core{core} {label}\"}}}}"
                ));
                events.push(format!(
                    "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{tid}}}}}"
                ));
            }
        }
        for record in &self.records {
            events.push(match record {
                Record::Complete {
                    tid,
                    cat,
                    name,
                    ts,
                    dur,
                } => format!(
                    "{{\"ph\":\"X\",\"pid\":{PID},\"tid\":{tid},\"cat\":\"{cat}\",\"name\":\"{}\",\"ts\":{ts},\"dur\":{dur}}}",
                    escape(name)
                ),
                Record::Instant {
                    tid,
                    cat,
                    name,
                    ts,
                    args,
                } => {
                    let args = match args {
                        Some((key, value)) => format!(",\"args\":{{\"{key}\":{value}}}"),
                        None => String::new(),
                    };
                    format!(
                        "{{\"ph\":\"i\",\"pid\":{PID},\"tid\":{tid},\"cat\":\"{cat}\",\"name\":\"{}\",\"ts\":{ts},\"s\":\"t\"{args}}}",
                        escape(name)
                    )
                }
            });
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// Records one event of the stream at `cycle`.
    pub fn on_event(&mut self, cycle: u64, event: &Event) {
        match event {
            Event::Phase(PhaseEvent::Enter { core, phase }) => {
                let core = *core as usize;
                if core >= MAX_CORES {
                    return;
                }
                self.cores_seen[core] = true;
                self.close_phase(core, cycle);
                self.open_phase[core] = Some((cycle, *phase));
            }
            Event::Phase(PhaseEvent::Exit { core, .. }) => {
                let core = *core as usize;
                if core >= MAX_CORES {
                    return;
                }
                self.close_phase(core, cycle);
            }
            Event::Power(PowerEvent::Gate { core }) => {
                let core = *core as usize;
                if core >= MAX_CORES {
                    return;
                }
                self.cores_seen[core] = true;
                self.open_gate[core] = Some(cycle);
            }
            Event::Power(PowerEvent::Ungate { core }) => {
                let core = *core as usize;
                if core >= MAX_CORES {
                    return;
                }
                self.close_gate(core, cycle);
            }
            Event::StallRun { core, cause, len } => {
                let core = *core as usize;
                if core >= MAX_CORES || *len == 0 {
                    return;
                }
                self.cores_seen[core] = true;
                self.records.push(Record::Complete {
                    tid: core as u32 * CORE_STRIDE + 2,
                    cat: "stall",
                    name: cause.label().to_string(),
                    ts: cycle.saturating_sub(*len),
                    dur: *len,
                });
            }
            Event::Sync(SyncEvent::PointReleased { point, woken }) => {
                self.records.push(Record::Instant {
                    tid: PLATFORM_TID,
                    cat: "sync",
                    name: format!("release p{point}"),
                    ts: cycle,
                    args: Some(("woken_mask", u64::from(*woken))),
                });
            }
            Event::Adc(AdcEvent::SampleReady { channels }) => {
                self.records.push(Record::Instant {
                    tid: PLATFORM_TID,
                    cat: "adc",
                    name: "adc sample".to_string(),
                    ts: cycle,
                    args: Some(("sources", u64::from(*channels))),
                });
            }
            _ => {}
        }
    }

    /// Closes the phase and sleep slices still open at `final_cycle`.
    /// Idempotent: a slice closes once.
    pub fn finish(&mut self, final_cycle: u64) {
        for core in 0..MAX_CORES {
            self.close_phase(core, final_cycle);
            self.close_gate(core, final_cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn exports_valid_trace_event_json() {
        let mut sink = TraceJsonSink::new(vec!["mf".into(), "classify".into()]);
        sink.on_event(0, &Event::Phase(PhaseEvent::Enter { core: 0, phase: 0 }));
        sink.on_event(10, &Event::Phase(PhaseEvent::Enter { core: 0, phase: 1 }));
        sink.on_event(4, &Event::Power(PowerEvent::Gate { core: 1 }));
        sink.on_event(9, &Event::Power(PowerEvent::Ungate { core: 1 }));
        sink.on_event(
            9,
            &Event::Sync(SyncEvent::PointReleased { point: 2, woken: 2 }),
        );
        sink.on_event(
            12,
            &Event::StallRun {
                core: 0,
                cause: crate::StallCause::DmConflict,
                len: 3,
            },
        );
        sink.finish(20);
        sink.finish(25); // idempotent

        let text = sink.to_json();
        let doc = json::parse(&text).expect("exporter output must parse");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());

        let mut phases = 0;
        let mut sleeps = 0;
        let mut stalls = 0;
        let mut instants = 0;
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            match ph {
                "X" => {
                    let cat = e.get("cat").unwrap().as_str().unwrap();
                    let dur = e.get("dur").unwrap().as_num().unwrap();
                    assert!(dur >= 0.0);
                    match cat {
                        "phase" => phases += 1,
                        "power" => sleeps += 1,
                        "stall" => stalls += 1,
                        other => panic!("unexpected slice category {other}"),
                    }
                }
                "i" => instants += 1,
                "M" => {}
                other => panic!("unexpected event phase {other}"),
            }
        }
        // mf closed at 10, classify closed by finish(20).
        assert_eq!(phases, 2);
        assert_eq!(sleeps, 1);
        assert_eq!(stalls, 1);
        assert_eq!(instants, 1);

        // The mf slice spans [0, 10).
        let mf = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("mf"))
            .unwrap();
        assert_eq!(mf.get("ts").unwrap().as_num(), Some(0.0));
        assert_eq!(mf.get("dur").unwrap().as_num(), Some(10.0));
        // The stall slice is back-dated to its first stalled cycle.
        let stall = events
            .iter()
            .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("stall"))
            .unwrap();
        assert_eq!(stall.get("ts").unwrap().as_num(), Some(9.0));
        assert_eq!(stall.get("dur").unwrap().as_num(), Some(3.0));
    }
}
