//! The latency histograms and the compact summary the sweep engine
//! embeds per cell.

use crate::event::{Event, SyncEvent};
use crate::hist::Histogram;

/// Aggregates the event stream into the three latency histograms that
/// no simulator counter holds. Every total (stall cycles per cause,
/// releases, merges, fall-throughs, ADC samples) lives in `SimStats` and
/// `SyncStats`.
///
/// This is the "always cheap" sink: it never allocates after
/// construction and does a handful of integer operations per event, so
/// the sweep engine can leave it on for every measured window.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Gated-interval lengths, one sample per observed wake.
    pub sleep_cycles: Histogram,
    /// Cycles between consecutive sync ops on the same core.
    pub sync_gap_cycles: Histogram,
    /// Lengths of consecutive-stall runs, all causes mixed.
    pub stall_run_cycles: Histogram,
}

impl CountingSink {
    /// An empty sink.
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Records one event of the stream.
    pub fn on_event(&mut self, event: &Event) {
        match event {
            Event::Sync(SyncEvent::OpRetired {
                since_last: Some(gap),
                ..
            }) => self.sync_gap_cycles.record(*gap),
            Event::Sync(SyncEvent::CoreWoken { slept_cycles, .. }) => {
                self.sleep_cycles.record(*slept_cycles);
            }
            Event::StallRun { len, .. } => self.stall_run_cycles.record(*len),
            _ => {}
        }
    }

    /// Collapses the histograms into the per-cell summary.
    pub fn summary(&self) -> ObsSummary {
        ObsSummary {
            sleep_count: self.sleep_cycles.count(),
            sleep_p50_cycles: self.sleep_cycles.p50(),
            sleep_p99_cycles: self.sleep_cycles.p99(),
            sync_gap_p50_cycles: self.sync_gap_cycles.p50(),
            sync_gap_p99_cycles: self.sync_gap_cycles.p99(),
            stall_run_p99_cycles: self.stall_run_cycles.p99(),
        }
    }
}

/// The latency digest a sweep cell records in its `obs` block (schema
/// `wbsn-bench-sweep/3`; the block's stall totals are read from
/// `SimStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsSummary {
    /// Observed wakes (samples behind the sleep percentiles).
    pub sleep_count: u64,
    /// Median gated-interval length, in cycles.
    pub sleep_p50_cycles: u64,
    /// 99th-percentile gated-interval length, in cycles.
    pub sleep_p99_cycles: u64,
    /// Median cycles between sync ops on a core.
    pub sync_gap_p50_cycles: u64,
    /// 99th-percentile cycles between sync ops on a core.
    pub sync_gap_p99_cycles: u64,
    /// 99th-percentile stall-run length, in cycles.
    pub stall_run_p99_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AdcEvent, PowerEvent, StallCause};

    #[test]
    fn counting_sink_aggregates_the_stream() {
        let mut sink = CountingSink::new();
        let stream = [
            Event::Sync(SyncEvent::OpRetired {
                core: 0,
                kind: wbsn_isa::SyncKind::Dec,
                point: 3,
                since_last: None,
            }),
            Event::Sync(SyncEvent::OpRetired {
                core: 0,
                kind: wbsn_isa::SyncKind::Dec,
                point: 3,
                since_last: Some(10),
            }),
            Event::Sync(SyncEvent::PointReleased {
                point: 3,
                woken: 0b10,
            }),
            Event::Sync(SyncEvent::CoreWoken {
                core: 1,
                slept_cycles: 5,
            }),
            Event::StallRun {
                core: 0,
                cause: StallCause::DmConflict,
                len: 4,
            },
            Event::StallRun {
                core: 1,
                cause: StallCause::LoadUseHazard,
                len: 1,
            },
            Event::Adc(AdcEvent::SampleReady { channels: 0b11 }),
            Event::Power(PowerEvent::Gate { core: 1 }),
        ];
        for event in &stream {
            sink.on_event(event);
        }

        // One sample per histogram-feeding event; the rest is ignored.
        assert_eq!(sink.sleep_cycles.count(), 1);
        assert_eq!(sink.sync_gap_cycles.count(), 1);
        assert_eq!(sink.sync_gap_cycles.max(), 10);
        assert_eq!(sink.stall_run_cycles.count(), 2);
        assert_eq!(sink.stall_run_cycles.sum(), 5);

        let summary = sink.summary();
        assert_eq!(summary.sleep_count, 1);
        assert_eq!(summary.sleep_p50_cycles, 5);
        assert_eq!(summary.sync_gap_p50_cycles, summary.sync_gap_p99_cycles);
        assert_eq!(summary.stall_run_p99_cycles, 4);
    }
}
