//! The pluggable sink interface.

use crate::event::Event;

/// A consumer of the recorder's event stream.
///
/// Sinks receive every event the recorder emits, in cycle order; the
/// ring-only [`Event::Retire`] and [`Event::Stall`] entries never reach
/// them. The recorder's sinks are the
/// [`CountingSink`](crate::CountingSink) and the
/// [`TraceJsonSink`](crate::TraceJsonSink), selected by
/// [`ObsConfig`](crate::ObsConfig).
pub trait EventSink {
    /// Called for every recorded event.
    fn on_event(&mut self, cycle: u64, event: &Event);

    /// Called once when the simulation ends, with the final cycle, so
    /// sinks can close open intervals.
    fn finish(&mut self, _final_cycle: u64) {}
}
