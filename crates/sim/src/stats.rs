//! Architectural event counters consumed by the power model.

use wbsn_core::SyncStats;
use wbsn_isa::{DM_BANKS, IM_BANKS};
use wbsn_obs::StallCause;

/// Per-core cycle and instruction accounting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles the core was clocked (executing, stalled or bubbling).
    pub active_cycles: u64,
    /// Cycles lost to instruction-memory arbitration.
    pub stall_im: u64,
    /// Cycles lost to data-memory arbitration.
    pub stall_dm: u64,
    /// Cycles lost to load-use hazards.
    pub stall_hazard: u64,
    /// Pipeline bubbles after taken control transfers.
    pub bubbles: u64,
    /// Cycles spent clock-gated.
    pub gated_cycles: u64,
    /// Synchronization-point instructions executed (`SINC`/`SDEC`/`SNOP`).
    pub sync_ops: u64,
    /// `SLEEP` instructions executed.
    pub sleeps: u64,
    /// Largest number of active cycles observed within one ADC sampling
    /// period — the per-core real-time requirement.
    pub max_window_active: u64,
    /// Active cycles in the current (incomplete) ADC window.
    pub window_active: u64,
}

impl CoreStats {
    /// Total cycles the core existed (active + gated).
    pub fn total_cycles(&self) -> u64 {
        self.active_cycles + self.gated_cycles
    }

    /// Fraction of existence spent clocked.
    pub fn duty_cycle(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.active_cycles as f64 / total as f64
        }
    }
}

/// Per-bank access accounting for one memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankStats {
    /// Physical read accesses per bank.
    pub reads: Vec<u64>,
    /// Physical write accesses per bank.
    pub writes: Vec<u64>,
    /// Requests served for free by broadcast merging.
    pub broadcasts: u64,
    /// Requests that lost arbitration (stall cycles).
    pub conflicts: u64,
}

impl BankStats {
    /// Creates counters for `banks` banks.
    pub fn new(banks: usize) -> BankStats {
        BankStats {
            reads: vec![0; banks],
            writes: vec![0; banks],
            broadcasts: 0,
            conflicts: 0,
        }
    }

    /// Total physical accesses (reads + writes) across banks.
    pub fn accesses(&self) -> u64 {
        self.reads.iter().sum::<u64>() + self.writes.iter().sum::<u64>()
    }

    /// Banks with at least one access — the power model's candidates for
    /// staying powered in the single-core baseline.
    pub fn touched_banks(&self) -> usize {
        self.reads
            .iter()
            .zip(&self.writes)
            .filter(|(r, w)| **r + **w > 0)
            .count()
    }

    /// Fraction of satisfied requests that were served by broadcast, in
    /// percent — Table I's "IM/DM Broadcast (%)".
    pub fn broadcast_percent(&self) -> f64 {
        let served = self.accesses() + self.broadcasts;
        if served == 0 {
            0.0
        } else {
            100.0 * self.broadcasts as f64 / served as f64
        }
    }
}

/// All counters of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Instruction-memory counters.
    pub im: BankStats,
    /// Data-memory counters.
    pub dm: BankStats,
    /// Crossbar traversals on the instruction side (granted requests).
    pub xbar_im: u64,
    /// Crossbar traversals on the data side.
    pub xbar_dm: u64,
    /// Loads served from the synchronization-point region.
    pub sync_region_reads: u64,
    /// Merged point writes performed by the synchronizer.
    pub sync_region_writes: u64,
    /// MMIO register reads.
    pub mmio_reads: u64,
    /// MMIO register writes.
    pub mmio_writes: u64,
    /// ADC samples delivered.
    pub adc_samples: u64,
    /// ADC samples lost to overruns (real-time violations).
    pub adc_overruns: u64,
}

impl SimStats {
    /// Creates zeroed statistics for `cores` cores.
    pub fn new(cores: usize) -> SimStats {
        SimStats {
            cycles: 0,
            cores: vec![CoreStats::default(); cores],
            im: BankStats::new(IM_BANKS),
            dm: BankStats::new(DM_BANKS),
            xbar_im: 0,
            xbar_dm: 0,
            sync_region_reads: 0,
            sync_region_writes: 0,
            mmio_reads: 0,
            mmio_writes: 0,
            adc_samples: 0,
            adc_overruns: 0,
        }
    }

    /// Sum of active cycles over all cores.
    pub fn total_active_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.active_cycles).sum()
    }

    /// Sum of executed synchronization-ISE instructions (`SINC`/`SDEC`/
    /// `SNOP`/`SLEEP`) over all cores.
    pub fn total_sync_instrs(&self) -> u64 {
        self.cores.iter().map(|c| c.sync_ops + c.sleeps).sum()
    }

    /// Stall cycles lost to `cause`, summed over all cores.
    pub fn stall_cycles(&self, cause: StallCause) -> u64 {
        self.cores
            .iter()
            .map(|c| match cause {
                StallCause::ImConflict => c.stall_im,
                StallCause::DmConflict => c.stall_dm,
                StallCause::LoadUseHazard => c.stall_hazard,
            })
            .sum()
    }

    /// Run-time overhead of the synchronization ISE in percent of the
    /// active cycles — Table I's "Run-time Overhead (%)".
    pub fn runtime_overhead_percent(&self) -> f64 {
        let active = self.total_active_cycles();
        if active == 0 {
            0.0
        } else {
            100.0 * self.total_sync_instrs() as f64 / active as f64
        }
    }

    /// The worst per-core real-time requirement: max active cycles within
    /// one ADC sampling window across all cores.
    pub fn worst_window_active(&self) -> u64 {
        self.cores
            .iter()
            .map(|c| c.max_window_active.max(c.window_active))
            .max()
            .unwrap_or(0)
    }
}

/// JSON shape for an `f64`: always carries a decimal point or exponent
/// so the value round-trips as a float; non-finite values become
/// `null`.
fn jf(value: f64) -> String {
    if !value.is_finite() {
        return "null".to_string();
    }
    let s = format!("{value}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn bank_json(bank: &BankStats) -> String {
    let list = |values: &[u64]| -> String {
        let items: Vec<String> = values.iter().map(u64::to_string).collect();
        format!("[{}]", items.join(", "))
    };
    format!(
        "{{\"reads\": {}, \"writes\": {}, \"broadcasts\": {}, \"conflicts\": {}, \"broadcast_percent\": {}}}",
        list(&bank.reads),
        list(&bank.writes),
        bank.broadcasts,
        bank.conflicts,
        jf(bank.broadcast_percent()),
    )
}

/// Serializes a run's statistics — [`SimStats`] plus the synchronizer's
/// [`SyncStats`] — as a stable, schema-tagged JSON document
/// (`wbsn-stats/1`). Key order is fixed so the output is
/// byte-reproducible for golden-file tests and scripted consumers
/// (`wbsn-run --stats-json`).
pub fn stats_json(stats: &SimStats, sync: &SyncStats) -> String {
    let mut out = String::from("{\n  \"schema\": \"wbsn-stats/1\",\n");
    out.push_str(&format!("  \"cycles\": {},\n", stats.cycles));
    out.push_str("  \"cores\": [\n");
    for (idx, c) in stats.cores.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"core\": {}, \"instructions\": {}, \"active_cycles\": {}, \"stall_im\": {}, \
             \"stall_dm\": {}, \"stall_hazard\": {}, \"bubbles\": {}, \"gated_cycles\": {}, \
             \"sync_ops\": {}, \"sleeps\": {}, \"max_window_active\": {}, \"duty_cycle\": {}}}{}\n",
            idx,
            c.instructions,
            c.active_cycles,
            c.stall_im,
            c.stall_dm,
            c.stall_hazard,
            c.bubbles,
            c.gated_cycles,
            c.sync_ops,
            c.sleeps,
            c.max_window_active.max(c.window_active),
            jf(c.duty_cycle()),
            if idx + 1 < stats.cores.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"im\": {},\n", bank_json(&stats.im)));
    out.push_str(&format!("  \"dm\": {},\n", bank_json(&stats.dm)));
    out.push_str(&format!("  \"xbar_im\": {},\n", stats.xbar_im));
    out.push_str(&format!("  \"xbar_dm\": {},\n", stats.xbar_dm));
    out.push_str(&format!(
        "  \"sync_region_reads\": {},\n",
        stats.sync_region_reads
    ));
    out.push_str(&format!(
        "  \"sync_region_writes\": {},\n",
        stats.sync_region_writes
    ));
    out.push_str(&format!("  \"mmio_reads\": {},\n", stats.mmio_reads));
    out.push_str(&format!("  \"mmio_writes\": {},\n", stats.mmio_writes));
    out.push_str(&format!("  \"adc_samples\": {},\n", stats.adc_samples));
    out.push_str(&format!("  \"adc_overruns\": {},\n", stats.adc_overruns));
    out.push_str(&format!(
        "  \"total_active_cycles\": {},\n",
        stats.total_active_cycles()
    ));
    out.push_str(&format!(
        "  \"runtime_overhead_percent\": {},\n",
        jf(stats.runtime_overhead_percent())
    ));
    out.push_str(&format!(
        "  \"worst_window_active\": {},\n",
        stats.worst_window_active()
    ));
    out.push_str(&format!(
        "  \"sync\": {{\"ops\": {}, \"writes\": {}, \"merged\": {}, \"fires\": {}, \
         \"sleeps\": {}, \"fallthroughs\": {}, \"irq_wakes\": {}, \"lost_wakes\": {}, \
         \"invariant_faults\": {}}}\n",
        sync.ops,
        sync.writes,
        sync.merged,
        sync.fires,
        sync.sleeps,
        sync.fallthroughs,
        sync.irq_wakes,
        sync.lost_wakes,
        sync.invariant_faults,
    ));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_percent() {
        let mut b = BankStats::new(4);
        b.reads[0] = 6;
        b.broadcasts = 4;
        assert!((b.broadcast_percent() - 40.0).abs() < 1e-9);
        assert_eq!(BankStats::new(2).broadcast_percent(), 0.0);
    }

    #[test]
    fn touched_banks() {
        let mut b = BankStats::new(4);
        b.reads[1] = 1;
        b.writes[3] = 2;
        assert_eq!(b.touched_banks(), 2);
        assert_eq!(b.accesses(), 3);
    }

    #[test]
    fn runtime_overhead() {
        let mut s = SimStats::new(2);
        s.cores[0].active_cycles = 90;
        s.cores[1].active_cycles = 10;
        s.cores[0].sync_ops = 1;
        s.cores[1].sleeps = 1;
        assert!((s.runtime_overhead_percent() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn duty_cycle() {
        let c = CoreStats {
            active_cycles: 25,
            gated_cycles: 75,
            ..CoreStats::default()
        };
        assert!((c.duty_cycle() - 0.25).abs() < 1e-12);
        assert_eq!(CoreStats::default().duty_cycle(), 0.0);
    }

    #[test]
    fn worst_window_includes_open_window() {
        let mut s = SimStats::new(2);
        s.cores[0].max_window_active = 10;
        s.cores[1].window_active = 42;
        assert_eq!(s.worst_window_active(), 42);
    }

    #[test]
    fn stats_json_is_stable_and_typed() {
        let mut s = SimStats::new(2);
        s.cycles = 100;
        s.cores[0].instructions = 40;
        s.cores[0].active_cycles = 50;
        s.cores[1].gated_cycles = 100;
        s.im.reads[0] = 40;
        let sync = SyncStats {
            ops: 3,
            writes: 2,
            merged: 1,
            ..SyncStats::default()
        };
        let text = stats_json(&s, &sync);
        assert!(text.contains("\"schema\": \"wbsn-stats/1\""));
        assert!(text.contains("\"cycles\": 100"));
        assert!(
            text.contains("\"duty_cycle\": 1.0"),
            "floats keep a decimal point"
        );
        assert!(text.contains("\"merged\": 1"));
        // Byte-stable: the same inputs serialize identically.
        assert_eq!(text, stats_json(&s, &sync));
    }

    #[test]
    fn jf_shapes_floats() {
        assert_eq!(jf(2.0), "2.0");
        assert_eq!(jf(0.25), "0.25");
        assert_eq!(jf(f64::NAN), "null");
        assert_eq!(jf(f64::INFINITY), "null");
    }
}
