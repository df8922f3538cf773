//! Replays a cell's measurement window through the crates' public
//! functions, one span per layer, and checks the cell's outputs.
//!
//! The replay rebuilds the image at the clock the harness chose, runs
//! exactly the harness's window (`start + samples × period`), and
//! integrates power. It must reproduce the harness's `Measurement` bit
//! for bit. Continuing the same platform past the window by
//! [`DRAIN_PERIODS`] sample periods lets the last sample's work finish,
//! after which the shared DSP words must equal the single-core
//! reference's on the same input.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use wbsn_bench::{BenchmarkId, Measurement};
use wbsn_dsp::ecg::EcgRecording;
use wbsn_kernels::{
    build_mf, build_mmd, build_rpclass, layout, Arch, BuildError, BuiltApp, ClassifierParams,
};
use wbsn_power::{Activity, PowerBreakdown, PowerModel, VfsTable};
use wbsn_sim::{ObsConfig, Platform, SimStats};

use crate::cells::{Cell, InputKey, Unit, FS};
use crate::spans::Spans;

/// Sample periods run past the window before outputs are compared. At
/// the exact window end a busy-waiting MMD mapping has not yet written
/// its last delineation words; eight periods drain every mapping.
const DRAIN_PERIODS: u64 = 8;

/// ADC period of the single-core reference run: the harness's
/// calibration period, far above any single-core requirement.
const REFERENCE_PERIOD: u64 = 20_000;

fn build(
    cell: &Cell,
    arch: Arch,
    period: u64,
    params: &ClassifierParams,
) -> Result<BuiltApp, BuildError> {
    let options = cell.build_options(period);
    match cell.benchmark {
        BenchmarkId::Mf => build_mf(arch, &options),
        BenchmarkId::Mmd => build_mmd(arch, &options),
        BenchmarkId::RpClass => build_rpclass(arch, &options, params),
    }
}

fn window_end(app: &BuiltApp, samples: u64, period: u64) -> u64 {
    app.config.adc.start_cycle + samples * period
}

/// One replayed measurement window and the time each layer took.
pub struct Replay {
    pub app: BuiltApp,
    pub platform: Platform,
    pub period: u64,
    pub stats: SimStats,
    pub breakdown: PowerBreakdown,
    pub build_s: f64,
    pub platform_new_s: f64,
    pub run_s: f64,
    pub integrate_s: f64,
}

/// Replays `m`'s measurement window. With `counting` the run carries
/// the harness's counting sink; without it, obs is off.
pub fn replay(
    unit: &Unit,
    m: &Measurement,
    input: &EcgRecording,
    params: &ClassifierParams,
    counting: bool,
    spans: &mut Spans,
) -> Result<Replay, String> {
    let cell = &unit.cell;
    let period = (m.clock_hz / f64::from(FS)).round() as u64;
    let open = spans.open("kernels.build", cell.id);
    let app = build(cell, cell.arch(), period, params);
    let build_s = spans.close(open);
    let app = app.map_err(|e| format!("build: {e}"))?;

    let leads = input.leads.clone();
    let samples = leads[0].len() as u64;
    let open = spans.open("sim.platform_new", cell.id);
    let platform = app.platform(leads);
    let platform_new_s = spans.close(open);
    let mut platform = platform.map_err(|e| format!("platform: {e}"))?;

    let total = window_end(&app, samples, period);
    let open = spans.open(
        if counting {
            "sim.run_counting"
        } else {
            "sim.run"
        },
        cell.id,
    );
    if counting {
        platform.enable_obs(ObsConfig::counting_only());
    }
    let ran = platform.run(total);
    platform.idle_until(total);
    if counting {
        platform.finish_obs();
    }
    let run_s = spans.close(open);
    ran.map_err(|e| format!("run: {e}"))?;

    let open = spans.open("power.integrate", cell.id);
    let stats = platform.stats().clone();
    let op = VfsTable::ninety_nm_low_leakage().min_point_for(m.clock_hz, cell.interconnect());
    let breakdown = op.map(|op| {
        let activity = Activity::derive(&stats, &app.config, app.active_im_banks());
        PowerModel::default().average_power(&stats, &app.config, activity, op, m.clock_hz)
    });
    let integrate_s = spans.close(open);
    let breakdown = breakdown.ok_or("no operating point for the harness's clock")?;

    Ok(Replay {
        app,
        platform,
        period,
        stats,
        breakdown,
        build_s,
        platform_new_s,
        run_s,
        integrate_s,
    })
}

/// Check 1: the replay reproduces the harness's measurement bit for bit.
pub fn check_reproduces(m: &Measurement, r: &Replay) -> Result<(), String> {
    if r.platform.adc_overruns() != 0 {
        return Err(format!(
            "{} ADC overruns in the replayed window",
            r.platform.adc_overruns()
        ));
    }
    if r.stats != m.stats {
        return Err(format!(
            "replayed SimStats differ (cycles {} vs {})",
            r.stats.cycles, m.stats.cycles
        ));
    }
    if r.breakdown.total_uw().to_bits() != m.power_uw().to_bits() {
        return Err(format!(
            "replayed power {} µW vs measured {} µW",
            r.breakdown.total_uw(),
            m.power_uw()
        ));
    }
    Ok(())
}

/// The shared DSP words compared between mappings, as
/// `tests/differential_oracle.rs` defines them: every progress counter,
/// filtered ring, fiducial event and label for MF/MMD; only the
/// classification outputs for RP-CLASS, whose single-core program
/// conditions leads 1/2 lazily by design.
fn signature(benchmark: BenchmarkId, platform: &Platform) -> Result<Vec<u16>, String> {
    let mut words: Vec<u32> = Vec::new();
    if benchmark == BenchmarkId::RpClass {
        words.extend([
            layout::LEAD_COUNT_BASE,
            layout::TRIG_FLAG,
            layout::TRIG_SEQ,
            layout::BEAT_COUNT,
            layout::PATH_COUNT,
        ]);
        words.extend((0..layout::OUT_RING_LEN).map(|i| layout::out_ring(0) + i));
    } else {
        words.extend((0..3).map(|l| layout::LEAD_COUNT_BASE + l));
        words.extend([
            layout::COMBINED_COUNT,
            layout::EVENT_COUNT,
            layout::BEAT_COUNT,
            layout::PATH_COUNT,
        ]);
        for lead in 0..3 {
            words.extend((0..layout::OUT_RING_LEN).map(|i| layout::out_ring(lead) + i));
        }
        words.extend((0..layout::COMBINED_RING_LEN).map(|i| layout::COMBINED_RING + i));
        words.extend((0..4 * layout::EVENT_RING_LEN).map(|i| layout::EVENT_RING + i));
    }
    words.extend((0..layout::LABEL_RING_LEN).map(|i| layout::LABEL_RING + i));
    words
        .into_iter()
        .map(|addr| {
            platform
                .peek_dm(addr)
                .map_err(|e| format!("peek {addr:#06x}: {e}"))
        })
        .collect()
}

/// The drained outputs of the single-core program on `unit`'s recording.
fn reference(
    unit: &Unit,
    input: &EcgRecording,
    params: &ClassifierParams,
) -> Result<Vec<u16>, String> {
    let cell = &unit.cell;
    let app = build(cell, Arch::SingleCore, REFERENCE_PERIOD, params)
        .map_err(|e| format!("reference build: {e}"))?;
    let samples = input.leads[0].len() as u64;
    let mut platform = app
        .platform(input.leads.clone())
        .map_err(|e| format!("reference platform: {e}"))?;
    let end = window_end(&app, samples + DRAIN_PERIODS, REFERENCE_PERIOD);
    platform
        .run(end)
        .map_err(|e| format!("reference run: {e}"))?;
    if platform.adc_overruns() != 0 {
        return Err("the single-core reference missed real time".into());
    }
    signature(cell.benchmark, &platform)
}

/// Single-core references, one per (benchmark, recording).
#[derive(Default)]
pub struct References {
    map: BTreeMap<(u8, InputKey), Vec<u16>>,
}

impl References {
    fn get(
        &mut self,
        unit: &Unit,
        input: &EcgRecording,
        params: &ClassifierParams,
    ) -> Result<&[u16], String> {
        let key = (unit.cell.benchmark as u8, unit.input_key());
        if let Entry::Vacant(slot) = self.map.entry(key) {
            slot.insert(reference(unit, input, params)?);
        }
        Ok(&self.map[&key])
    }
}

/// Check 2: drained past the window, the replay's shared DSP words equal
/// the single-core reference's.
pub fn check_outputs(
    unit: &Unit,
    r: &mut Replay,
    input: &EcgRecording,
    params: &ClassifierParams,
    references: &mut References,
) -> Result<(), String> {
    let samples = input.leads[0].len() as u64;
    let end = window_end(&r.app, samples + DRAIN_PERIODS, r.period);
    r.platform.run(end).map_err(|e| format!("drain: {e}"))?;
    let words = signature(unit.cell.benchmark, &r.platform)?;
    let reference = references.get(unit, input, params)?;
    let diverging = words.iter().zip(reference).filter(|(a, b)| a != b).count();
    if diverging > 0 {
        return Err(format!(
            "{diverging} shared DSP words differ from the single-core reference"
        ));
    }
    Ok(())
}
