//! The evaluation harness: reproduces every table and figure of the
//! paper's evaluation section.
//!
//! * [`experiment`] — the per-configuration measurement flow (calibrate →
//!   select V/f → measure power over a long simulated window).
//! * [`cache`] — the shared build cache: one linked image per distinct
//!   `(benchmark, architecture, BuildOptions)` key.
//! * [`sweep`] — the parallel sweep engine: grids of measurement cells
//!   sharded across a worker pool with deterministic, grid-ordered
//!   results and a machine-readable `BENCH_sweep.json` record.
//! * Binaries (all routed through the sweep engine):
//!   * `table1` — Table I: per-benchmark SC vs MC execution details.
//!   * `fig6` — Fig. 6: power decomposition for SC, MC without the
//!     proposed synchronization (busy wait) and MC with it.
//!   * `fig7` — Fig. 7: RP-CLASS power vs pathological-beat fraction.
//!   * `ablations`, `sensitivity` — the DESIGN.md studies.
//!   * `sweep` — the stand-alone sweep driver CLI, the one binary that
//!     writes `BENCH_sweep.json` by default; the others write a record
//!     only where `WBSN_SWEEP_JSON` names a file.
//!
//! Host-side timing of this harness lives in the stand-alone `wbsnbench`
//! package (medians over repeated runs, outputs checked), and
//! `examples/sim_throughput.rs` is the quick interpreter probe.

pub mod cache;
pub mod experiment;
pub mod sweep;

pub use cache::BuildCache;
pub use experiment::{measure, BenchmarkId, ExperimentConfig, Measurement, RunVariant};
pub use sweep::{run_sweep, SweepCell, SweepOptions, SweepReport};
