//! The benchmark's cells and workloads.
//!
//! A cell is a benchmark, a platform variant, a share of abnormal beats
//! and an observation window; a unit is a cell on one of its recordings,
//! one `measure_cached` call. A cell's modelled µW depends only on these
//! and the seed, so every run reports every cell (see README.md for why
//! each workload holds the cells it does).

use wbsn_bench::{BenchmarkId, ExperimentConfig, RunVariant};
use wbsn_dsp::ecg::{synthesize, EcgConfig, EcgRecording};
use wbsn_kernels::app::BarrierStyle;
use wbsn_kernels::{Arch, BuildOptions, SyncApproach};
use wbsn_power::Interconnect;

/// Observation window and calibration slice, in simulated seconds.
///
/// The window is longer than the slice, as in the paper's 60 s / 6 s
/// setting, so calibrate, search and measure are separate runs.
/// RP-CLASS needs a slice of 2 s: on a 1 s slice the single-core search
/// settles near 1.15 MHz, the harness's six ×1.15 retries stop short of
/// the ~3 MHz a triggered delineation burst needs, and the cell fails
/// with `MeasureError::Overruns`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub duration_s: f64,
    pub calibration_s: f64,
}

/// `table1` and `fig7`: 3 s holds three or four beats.
pub const PAPER_WINDOW: Window = Window {
    duration_s: 3.0,
    calibration_s: 2.0,
};

/// `busywait`: spinning cores step every cycle on 3–5 cores, so a short
/// window keeps a pass affordable; the discarded calibration run still
/// dominates, which is what the workload measures.
pub const BUSY_WINDOW: Window = Window {
    duration_s: 1.0,
    calibration_s: 0.5,
};

/// Recordings per cell whose work depends on which beats are abnormal.
///
/// RP-CLASS at 20 % has no abnormal beat in half of all 3 s windows,
/// which moves its µW by a quarter and its search cost by half from
/// seed to seed; at 100 % the beat count still moves µW by 8 %. Such a
/// cell runs on this many recordings and reports their mean, which
/// narrows both spreads across seeds. MF, MMD and all-normal RP-CLASS do
/// the same work whatever the input, so they run on one recording.
pub const VARIED_INPUTS: u64 = 4;

/// ECG sampling rate of every cell (the harness default).
pub const FS: u32 = 500;

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// `<benchmark>-<variant>[.ab<percent>]`, the suffix of `uw.*`.
    pub id: &'static str,
    pub workload: &'static str,
    pub benchmark: BenchmarkId,
    pub variant: RunVariant,
    pub fraction: f64,
    pub window: Window,
    /// Recordings the cell runs on (see [`VARIED_INPUTS`]).
    pub inputs: u64,
}

const fn cell(
    id: &'static str,
    workload: &'static str,
    benchmark: BenchmarkId,
    variant: RunVariant,
    fraction: f64,
    window: Window,
    inputs: u64,
) -> Cell {
    Cell {
        id,
        workload,
        benchmark,
        variant,
        fraction,
        window,
        inputs,
    }
}

use BenchmarkId::{Mf, Mmd, RpClass};
use RunVariant::{MultiCoreBusyWait as Busy, MultiCoreSync as Mc, SingleCore as Sc};

/// Every cell, grouped by workload in run order.
pub const CELLS: [Cell; 12] = [
    cell("mf-sc", "table1", Mf, Sc, 0.2, PAPER_WINDOW, 1),
    cell("mf-mc", "table1", Mf, Mc, 0.2, PAPER_WINDOW, 1),
    cell("mmd-sc", "table1", Mmd, Sc, 0.2, PAPER_WINDOW, 1),
    cell("mmd-mc", "table1", Mmd, Mc, 0.2, PAPER_WINDOW, 1),
    cell(
        "rpclass-sc",
        "table1",
        RpClass,
        Sc,
        0.2,
        PAPER_WINDOW,
        VARIED_INPUTS,
    ),
    cell(
        "rpclass-mc",
        "table1",
        RpClass,
        Mc,
        0.2,
        PAPER_WINDOW,
        VARIED_INPUTS,
    ),
    cell("mf-busy", "busywait", Mf, Busy, 0.2, BUSY_WINDOW, 1),
    cell("mmd-busy", "busywait", Mmd, Busy, 0.2, BUSY_WINDOW, 1),
    cell("rpclass-sc.ab0", "fig7", RpClass, Sc, 0.0, PAPER_WINDOW, 1),
    cell("rpclass-mc.ab0", "fig7", RpClass, Mc, 0.0, PAPER_WINDOW, 1),
    cell(
        "rpclass-sc.ab100",
        "fig7",
        RpClass,
        Sc,
        1.0,
        PAPER_WINDOW,
        VARIED_INPUTS,
    ),
    cell(
        "rpclass-mc.ab100",
        "fig7",
        RpClass,
        Mc,
        1.0,
        PAPER_WINDOW,
        VARIED_INPUTS,
    ),
];

pub const WORKLOADS: [&str; 3] = ["table1", "busywait", "fig7"];

/// The harness default seed (`ExperimentConfig::default().seed`).
pub const DEFAULT_SEED: u64 = 0xEC60;

impl Cell {
    pub fn arch(&self) -> Arch {
        match self.variant {
            Sc => Arch::SingleCore,
            _ => Arch::MultiCore,
        }
    }

    pub fn interconnect(&self) -> Interconnect {
        match self.variant {
            Sc => Interconnect::Decoder,
            _ => Interconnect::Crossbar,
        }
    }

    /// The build options the harness uses at a given ADC period.
    pub fn build_options(&self, adc_period_cycles: u64) -> BuildOptions {
        BuildOptions {
            approach: match self.variant {
                Busy => SyncApproach::BusyWait,
                _ => SyncApproach::Hardware,
            },
            broadcast: true,
            lockstep: true,
            barrier: BarrierStyle::SincSdec,
            schedule: false,
            adc_period_cycles,
        }
    }
}

/// The ECG seed of a cell's recording `input`: the workload seed
/// itself for the first, distinct seeds for the others.
pub fn input_seed(seed: u64, input: u64) -> u64 {
    seed ^ (input << 32)
}

/// Identifies a recording: abnormal-beat fraction and window (as bits)
/// and the recording's index.
pub type InputKey = (u64, u64, u64);

/// One `measure_cached` call: a cell on one of its recordings.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    pub cell: Cell,
    pub input: u64,
}

impl Unit {
    pub fn config(&self, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            duration_s: self.cell.window.duration_s,
            calibration_s: self.cell.window.calibration_s,
            fs: FS,
            pathological_fraction: self.cell.fraction,
            seed: input_seed(seed, self.input),
            ..ExperimentConfig::default()
        }
    }

    /// The observation-window input the harness synthesizes for this
    /// unit; the replay feeds the same samples.
    pub fn recording(&self, seed: u64) -> EcgRecording {
        synthesize(&EcgConfig {
            fs: FS,
            duration_s: self.cell.window.duration_s,
            pathological_fraction: self.cell.fraction,
            seed: input_seed(seed, self.input),
            ..EcgConfig::healthy_60s()
        })
    }

    /// Units that take the same samples share one recording.
    pub fn input_key(&self) -> InputKey {
        (
            self.cell.fraction.to_bits(),
            self.cell.window.duration_s.to_bits(),
            self.input,
        )
    }
}

/// Every unit of a workload's cells, in cell order.
pub fn workload_units(workload: &str) -> Vec<Unit> {
    CELLS
        .iter()
        .filter(|c| c.workload == workload)
        .flat_map(|&cell| (0..cell.inputs).map(move |input| Unit { cell, input }))
        .collect()
}
