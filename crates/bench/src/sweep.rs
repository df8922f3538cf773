//! The parallel experiment sweep engine.
//!
//! Every results-producing binary is a grid of independent measurement
//! cells — `(benchmark, variant, config)` triples fed to
//! [`measure_cached`] (or [`measure_at_clock_cached`] for
//! clock-pinned ablations). This module runs such grids:
//!
//! * cells are sharded across a fixed-size worker pool (the vendored
//!   [`threadpool`] shim), one OS thread per worker;
//! * every cell routes its builds through one shared
//!   [`BuildCache`], so repeated images are linked once per sweep;
//! * results land in their input slot: the report's order equals the
//!   grid's order regardless of worker count or completion order, and
//!   the measurements themselves are byte-identical to serial runs (the
//!   simulator is deterministic and cells share no mutable state);
//! * a machine-readable perf record ([`SweepReport::to_json`]) captures
//!   the grid, per-cell results and throughput for cross-run
//!   comparison. Wall-clock fields are the only non-deterministic
//!   content and every such key carries a `wall_` / `_per_wall_s`
//!   marker so differential tooling can strip them.
//!
//! Worker count resolution: explicit [`SweepOptions::workers`], else the
//! `WBSN_WORKERS` environment variable, else the host's available
//! parallelism.

use std::sync::{mpsc, Arc};
use std::time::Instant;

use threadpool::ThreadPool;
use wbsn_kernels::ClassifierParams;
use wbsn_sim::StallCause;

use crate::cache::BuildCache;
use crate::experiment::{
    measure_at_clock_cached, measure_cached, BenchmarkId, ExperimentConfig, MeasureError,
    Measurement, RunVariant,
};

/// One cell of a sweep grid.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The benchmark to measure.
    pub benchmark: BenchmarkId,
    /// The platform/synchronization configuration.
    pub variant: RunVariant,
    /// The experiment knobs for this cell.
    pub config: ExperimentConfig,
    /// Pin the run to this clock instead of searching for the minimum
    /// (the VFS-off ablations).
    pub pinned_clock_hz: Option<f64>,
}

impl SweepCell {
    /// A minimum-clock-search cell.
    pub fn new(benchmark: BenchmarkId, variant: RunVariant, config: ExperimentConfig) -> SweepCell {
        SweepCell {
            benchmark,
            variant,
            config,
            pinned_clock_hz: None,
        }
    }

    /// A cell pinned to a given clock (the no-VFS ablations).
    pub fn pinned(
        benchmark: BenchmarkId,
        variant: RunVariant,
        config: ExperimentConfig,
        clock_hz: f64,
    ) -> SweepCell {
        SweepCell {
            benchmark,
            variant,
            config,
            pinned_clock_hz: Some(clock_hz),
        }
    }
}

/// One finished cell: the input, its result and its wall time.
#[derive(Debug)]
pub struct CellOutcome {
    /// The cell as submitted.
    pub cell: SweepCell,
    /// The measurement, or the error string of the failed flow
    /// (stringified so outcomes stay `Send` + cheap to clone around).
    pub result: Result<Measurement, String>,
    /// Wall-clock seconds this cell took (non-deterministic).
    pub wall_s: f64,
}

/// Sweep-wide knobs.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` resolves `WBSN_WORKERS`, then the host's
    /// available parallelism.
    pub workers: Option<usize>,
}

impl SweepOptions {
    /// The effective worker count (≥ 1).
    pub fn resolve_workers(&self) -> usize {
        self.workers
            .or_else(|| {
                std::env::var("WBSN_WORKERS")
                    .ok()
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1)
    }
}

/// The result of one sweep: outcomes in grid order plus run metadata.
#[derive(Debug)]
pub struct SweepReport {
    /// Finished cells, in the exact order they were submitted.
    pub outcomes: Vec<CellOutcome>,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole sweep (non-deterministic).
    pub wall_s: f64,
    /// Build-cache lookups served without building.
    pub cache_hits: u64,
    /// Build-cache lookups that built an image.
    pub cache_misses: u64,
}

impl SweepReport {
    /// Measurements in grid order; failed cells panic with their error
    /// (the behaviour every binary wants: a failed reproduction is a
    /// bug, not a data point).
    pub fn expect_all(&self) -> Vec<&Measurement> {
        self.outcomes
            .iter()
            .map(|o| match &o.result {
                Ok(m) => m,
                Err(e) => panic!(
                    "{} {} failed: {e}",
                    o.cell.benchmark.name(),
                    o.cell.variant.label()
                ),
            })
            .collect()
    }

    /// Total simulated cycles across the successful cells.
    pub fn simulated_cycles(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|o| o.result.as_ref().ok())
            .map(|m| m.stats.cycles)
            .sum()
    }

    /// Merges another report into this one (grids run in phases — e.g.
    /// clock-pinned cells that need a baseline's result — append their
    /// outcomes and accumulate the counters).
    pub fn merge(&mut self, other: SweepReport) {
        self.outcomes.extend(other.outcomes);
        self.wall_s += other.wall_s;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.workers = self.workers.max(other.workers);
    }

    /// Pairs every baseline cell (no scheduling, no forwarding) with the
    /// fixed cells that differ from it only in those two knobs, for the
    /// record's `hazard_fixes` block: each entry diffs the load-use
    /// stall bucket and the power integral before/after the fix.
    fn hazard_fixes(&self) -> Vec<(&CellOutcome, &CellOutcome, &'static str)> {
        let mut fixes = Vec::new();
        for base in &self.outcomes {
            let c = &base.cell;
            if c.config.schedule || c.config.forwarding || base.result.is_err() {
                continue;
            }
            for fixed in &self.outcomes {
                let f = &fixed.cell;
                let same_cell = f.benchmark == c.benchmark
                    && f.variant == c.variant
                    && f.pinned_clock_hz == c.pinned_clock_hz
                    && f.config.seed == c.config.seed
                    && f.config.duration_s == c.config.duration_s
                    && f.config.pathological_fraction == c.config.pathological_fraction;
                if !same_cell || fixed.result.is_err() {
                    continue;
                }
                let label = match (f.config.schedule, f.config.forwarding) {
                    (true, false) => "schedule",
                    (false, true) => "forwarding",
                    (true, true) => "schedule+forwarding",
                    (false, false) => continue,
                };
                fixes.push((base, fixed, label));
            }
        }
        fixes
    }

    /// Renders the machine-readable sweep record (`BENCH_sweep.json`).
    ///
    /// One key per line; every non-deterministic key contains `wall_` or
    /// `_per_wall_s`, so `grep -v wall` yields a byte-stable view of the
    /// record for differential comparison across runs and worker counts
    /// (`workers` is deliberately excluded for the same reason).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"wbsn-bench-sweep/3\",\n");
        out.push_str(&format!("  \"grid_cells\": {},\n", self.outcomes.len()));
        out.push_str(&format!("  \"wall_s\": {},\n", json_f64(self.wall_s)));
        let cycles = self.simulated_cycles();
        out.push_str(&format!("  \"simulated_cycles\": {cycles},\n"));
        out.push_str(&format!(
            "  \"simulated_cycles_per_wall_s\": {},\n",
            json_f64(cycles as f64 / self.wall_s.max(1e-9))
        ));
        out.push_str(&format!("  \"build_cache_hits\": {},\n", self.cache_hits));
        out.push_str(&format!(
            "  \"build_cache_misses\": {},\n",
            self.cache_misses
        ));
        out.push_str("  \"cells\": [\n");
        for (i, outcome) in self.outcomes.iter().enumerate() {
            let cell = &outcome.cell;
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"benchmark\": \"{}\",\n",
                cell.benchmark.name()
            ));
            out.push_str(&format!(
                "      \"variant\": \"{}\",\n",
                cell.variant.label()
            ));
            out.push_str(&format!(
                "      \"duration_s\": {},\n",
                json_f64(cell.config.duration_s)
            ));
            out.push_str(&format!(
                "      \"pathological_fraction\": {},\n",
                json_f64(cell.config.pathological_fraction)
            ));
            out.push_str(&format!("      \"seed\": {},\n", cell.config.seed));
            out.push_str(&format!("      \"schedule\": {},\n", cell.config.schedule));
            out.push_str(&format!(
                "      \"forwarding\": {},\n",
                cell.config.forwarding
            ));
            out.push_str(&format!(
                "      \"pinned_clock_hz\": {},\n",
                match cell.pinned_clock_hz {
                    Some(hz) => json_f64(hz),
                    None => "null".to_string(),
                }
            ));
            out.push_str(&format!(
                "      \"wall_s\": {},\n",
                json_f64(outcome.wall_s)
            ));
            match &outcome.result {
                Ok(m) => {
                    out.push_str("      \"ok\": true,\n");
                    out.push_str(&format!("      \"clock_hz\": {},\n", json_f64(m.clock_hz)));
                    out.push_str(&format!("      \"voltage\": {},\n", json_f64(m.voltage)));
                    out.push_str(&format!(
                        "      \"power_uw\": {},\n",
                        json_f64(m.power_uw())
                    ));
                    out.push_str(&format!(
                        "      \"im_broadcast_percent\": {},\n",
                        json_f64(m.im_broadcast_percent)
                    ));
                    out.push_str(&format!(
                        "      \"dm_broadcast_percent\": {},\n",
                        json_f64(m.dm_broadcast_percent)
                    ));
                    out.push_str(&format!("      \"active_cores\": {},\n", m.active_cores));
                    out.push_str(&format!("      \"cycles\": {},\n", m.stats.cycles));
                    match &m.obs {
                        Some(s) => {
                            out.push_str("      \"obs\": {\n");
                            out.push_str(&format!("        \"sleep_count\": {},\n", s.sleep_count));
                            out.push_str(&format!(
                                "        \"sleep_p50_cycles\": {},\n",
                                s.sleep_p50_cycles
                            ));
                            out.push_str(&format!(
                                "        \"sleep_p99_cycles\": {},\n",
                                s.sleep_p99_cycles
                            ));
                            out.push_str(&format!(
                                "        \"sync_gap_p50_cycles\": {},\n",
                                s.sync_gap_p50_cycles
                            ));
                            out.push_str(&format!(
                                "        \"sync_gap_p99_cycles\": {},\n",
                                s.sync_gap_p99_cycles
                            ));
                            for (key, cause) in [
                                ("im", StallCause::ImConflict),
                                ("dm", StallCause::DmConflict),
                                ("hazard", StallCause::LoadUseHazard),
                            ] {
                                out.push_str(&format!(
                                    "        \"stall_{key}_cycles\": {},\n",
                                    m.stats.stall_cycles(cause)
                                ));
                            }
                            out.push_str(&format!(
                                "        \"stall_run_p99_cycles\": {}\n",
                                s.stall_run_p99_cycles
                            ));
                            out.push_str("      }\n");
                        }
                        None => out.push_str("      \"obs\": null\n"),
                    }
                }
                Err(e) => {
                    out.push_str("      \"ok\": false,\n");
                    out.push_str(&format!("      \"error\": \"{}\"\n", json_escape(e)));
                }
            }
            out.push_str(if i + 1 < self.outcomes.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ],\n");
        // Before/after view of the load-use stall bucket: one entry per
        // (baseline cell, fix) pair present in the grid.
        let fixes = self.hazard_fixes();
        out.push_str("  \"hazard_fixes\": [\n");
        for (i, (base, fixed, label)) in fixes.iter().enumerate() {
            let (b, f) = match (&base.result, &fixed.result) {
                (Ok(b), Ok(f)) => (b, f),
                _ => unreachable!("hazard_fixes only pairs successful cells"),
            };
            let before = b.stats.stall_cycles(StallCause::LoadUseHazard);
            let after = f.stats.stall_cycles(StallCause::LoadUseHazard);
            let cut = if before > 0 {
                100.0 * (before.saturating_sub(after)) as f64 / before as f64
            } else {
                0.0
            };
            out.push_str("    {\n");
            out.push_str(&format!(
                "      \"benchmark\": \"{}\",\n",
                base.cell.benchmark.name()
            ));
            out.push_str(&format!(
                "      \"variant\": \"{}\",\n",
                base.cell.variant.label()
            ));
            out.push_str(&format!("      \"fix\": \"{label}\",\n"));
            out.push_str(&format!(
                "      \"stall_hazard_cycles_before\": {before},\n"
            ));
            out.push_str(&format!("      \"stall_hazard_cycles_after\": {after},\n"));
            out.push_str(&format!(
                "      \"stall_hazard_cut_percent\": {},\n",
                json_f64(cut)
            ));
            out.push_str(&format!(
                "      \"power_uw_before\": {},\n",
                json_f64(b.power_uw())
            ));
            out.push_str(&format!(
                "      \"power_uw_after\": {},\n",
                json_f64(f.power_uw())
            ));
            out.push_str(&format!(
                "      \"clock_hz_before\": {},\n",
                json_f64(b.clock_hz)
            ));
            out.push_str(&format!(
                "      \"clock_hz_after\": {}\n",
                json_f64(f.clock_hz)
            ));
            out.push_str(if i + 1 < fixes.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the sweep record to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())?;
        eprintln!(
            "# sweep: {} cells, {} workers, {:.1}s wall, {:.1} Msim-cycles/s -> {path}",
            self.outcomes.len(),
            self.workers,
            self.wall_s,
            self.simulated_cycles() as f64 / self.wall_s.max(1e-9) / 1e6
        );
        Ok(())
    }

    /// Writes the sweep record where `WBSN_SWEEP_JSON` names a file, and
    /// nowhere otherwise (the results binaries' record output).
    ///
    /// # Errors
    ///
    /// Propagates the write error.
    pub fn write_requested_json(&self) -> std::io::Result<()> {
        match requested_json_path() {
            Some(path) if !path.is_empty() => self.write_json(&path),
            _ => Ok(()),
        }
    }
}

/// The record path `WBSN_SWEEP_JSON` names, if it is set; empty asks for
/// no record.
pub fn requested_json_path() -> Option<String> {
    std::env::var("WBSN_SWEEP_JSON").ok()
}

/// Formats an `f64` the way the record wants it: JSON has no NaN or
/// infinities, and Rust's shortest-roundtrip `{}` is deterministic.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers, but keep the float shape
        // so consumers see a stable type per key.
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// Escapes a string for embedding in a JSON literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs one measurement cell (the worker body).
fn run_cell(cell: &SweepCell, params: &ClassifierParams, cache: &BuildCache) -> CellOutcome {
    let start = Instant::now();
    let result = match cell.pinned_clock_hz {
        Some(clock_hz) => measure_at_clock_cached(
            cell.benchmark,
            cell.variant,
            &cell.config,
            params,
            clock_hz,
            cache,
        ),
        None => measure_cached(cell.benchmark, cell.variant, &cell.config, params, cache),
    };
    CellOutcome {
        cell: cell.clone(),
        result: result.map_err(|e: MeasureError| e.to_string()),
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs a grid of cells across the worker pool.
///
/// Results are slotted by submission index: `report.outcomes[i]` always
/// belongs to `cells[i]`, whatever the worker count. With one worker the
/// execution order is exactly the grid order, so serial and parallel
/// sweeps are comparable cell by cell.
pub fn run_sweep(
    cells: Vec<SweepCell>,
    params: &ClassifierParams,
    options: &SweepOptions,
) -> SweepReport {
    let workers = options.resolve_workers();
    let start = Instant::now();
    let cache = Arc::new(BuildCache::new());
    let params = Arc::new(params.clone());
    let count = cells.len();

    let mut slots: Vec<Option<CellOutcome>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    if workers == 1 || count <= 1 {
        // In-line serial path: same code path the workers run, without
        // thread-spawn overhead (and the baseline the determinism tests
        // compare against).
        for (i, cell) in cells.iter().enumerate() {
            slots[i] = Some(run_cell(cell, &params, &cache));
        }
    } else {
        let pool = ThreadPool::new(workers.min(count));
        let (tx, rx) = mpsc::channel::<(usize, CellOutcome)>();
        for (i, cell) in cells.iter().cloned().enumerate() {
            let tx = tx.clone();
            let params = Arc::clone(&params);
            let cache = Arc::clone(&cache);
            pool.execute(move || {
                let outcome = run_cell(&cell, &params, &cache);
                // The main thread keeps the receiver for the whole
                // collection loop, so this send cannot fail.
                let _ = tx.send((i, outcome));
            });
        }
        drop(tx);
        for (i, outcome) in rx {
            slots[i] = Some(outcome);
        }
        pool.join();
        assert_eq!(pool.panic_count(), 0, "sweep worker panicked");
    }

    SweepReport {
        outcomes: slots
            .into_iter()
            .map(|s| s.expect("every cell reports exactly once"))
            .collect(),
        workers,
        wall_s: start.elapsed().as_secs_f64(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_is_stable_and_typed() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1e300 * 1e300), "null");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn empty_grid_produces_a_valid_record() {
        let report = run_sweep(
            Vec::new(),
            &ClassifierParams::default_trained(),
            &SweepOptions { workers: Some(1) },
        );
        assert!(report.outcomes.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"wbsn-bench-sweep/3\""));
        assert!(json.contains("\"grid_cells\": 0"));
        assert!(json.contains("\"hazard_fixes\": [\n  ]"));
        assert!(json.ends_with("]\n}\n"));
    }
}
