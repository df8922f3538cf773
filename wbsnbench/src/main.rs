//! wbsnbench — end-to-end and per-layer benchmark of the wbsn harness.
//!
//! ```text
//! wbsnbench --workload <table1|busywait|fig7> [--seed N] [--seconds S] [--trace 0|1]
//! wbsnbench --crosscheck
//! ```
//!
//! A closed loop with one client: each unit (a cell on one recording)
//! goes through `wbsn_bench::experiment::measure_cached` after the
//! previous one returns, serially on one thread, with one `BuildCache`
//! per pass over the workload. `--trace 0` repeats passes for `--seconds`
//! and reports the end-to-end metrics, host times scaled by the probe in
//! `probe.rs`; `--trace 1` replays each unit's
//! measurement window layer by layer and reports the per-layer metrics. The last
//! stdout line is one JSON object. README.md documents the workloads and
//! the metric-to-layer map.

mod cells;
mod crosscheck;
mod probe;
mod replay;
mod spans;

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use wbsn_bench::experiment::{measure_cached, MeasureError};
use wbsn_bench::{BuildCache, Measurement};
use wbsn_dsp::ecg::EcgRecording;
use wbsn_kernels::ClassifierParams;

use cells::{workload_units, InputKey, Unit, CELLS, DEFAULT_SEED, WORKLOADS};
use replay::{check_outputs, check_reproduces, replay, References};
use spans::Spans;

const USAGE: &str = "usage: wbsnbench --workload <table1|busywait|fig7> [--seed N] [--seconds S] [--trace 0|1]\n       wbsnbench --crosscheck";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Table I's MC-vs-SC power savings in the paper, percent.
const PAPER_SAVINGS: [(&str, f64); 3] = [("mf", 40.7), ("mmd", 36.9), ("rpclass", 29.2)];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    crosscheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 35,
        trace: false,
        crosscheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--crosscheck" {
            args.crosscheck = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    if !args.crosscheck && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wbsnbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.crosscheck {
        return crosscheck::run();
    }
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wbsnbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Classifier training and every recording the run's replays need.
struct Setup {
    params: ClassifierParams,
    inputs: BTreeMap<InputKey, EcgRecording>,
}

impl Setup {
    fn new(units: &[Unit], seed: u64, spans: &mut Spans) -> Setup {
        let open = spans.open("kernels.train", "setup");
        let params = ClassifierParams::default_trained();
        spans.close(open);
        let mut inputs = BTreeMap::new();
        for unit in units {
            if let Entry::Vacant(slot) = inputs.entry(unit.input_key()) {
                let open = spans.open("dsp.synthesize", "setup");
                slot.insert(unit.recording(seed));
                spans.close(open);
            }
        }
        Setup { params, inputs }
    }

    fn input(&self, unit: &Unit) -> &EcgRecording {
        &self.inputs[&unit.input_key()]
    }
}

/// One `measure_cached` call.
struct UnitRun {
    unit: Unit,
    result: Result<Measurement, MeasureError>,
    seconds: f64,
    /// `seconds` scaled to the probe's reference host speed; equal to
    /// `seconds` in a pass without probes.
    scaled_s: f64,
    /// Build-cache lookups and misses during the call.
    lookups: u64,
    misses: u64,
}

/// Measures `units` serially through one fresh build cache. With
/// `probed`, the host-speed probe runs before the first unit and after
/// each one.
fn pass(
    units: &[Unit],
    seed: u64,
    params: &ClassifierParams,
    spans: &mut Spans,
    probed: bool,
) -> Vec<UnitRun> {
    let cache = BuildCache::new();
    let mut before = probed.then(probe::seconds);
    units
        .iter()
        .map(|&unit| {
            let cell = unit.cell;
            let (hits, misses) = (cache.hits(), cache.misses());
            let open = spans.open("bench.measure", cell.id);
            let result = measure_cached(
                cell.benchmark,
                cell.variant,
                &unit.config(seed),
                params,
                &cache,
            );
            let seconds = spans.close(open);
            let scaled_s = match before {
                Some(b) => {
                    let after = probe::seconds();
                    before = Some(after);
                    probe::scale(seconds, b, after)
                }
                None => seconds,
            };
            UnitRun {
                unit,
                result,
                seconds,
                scaled_s,
                lookups: cache.hits() + cache.misses() - hits - misses,
                misses: cache.misses() - misses,
            }
        })
        .collect()
}

/// Counts attempts and failures; every failure is printed to stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, unit: &Unit, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!(
                "wbsnbench: {} (recording {}) failed: {e}",
                unit.cell.id, unit.input
            );
        }
    }
}

fn same_measurement(a: &Measurement, b: &Measurement) -> bool {
    a.power_uw().to_bits() == b.power_uw().to_bits()
        && a.clock_hz.to_bits() == b.clock_hz.to_bits()
        && a.stats == b.stats
}

/// Measures every unit outside `workload` once, untimed, so each run
/// reports the full grid's modelled metrics.
fn other_units(
    workload: &str,
    seed: u64,
    params: &ClassifierParams,
    tally: &mut Tally,
) -> Vec<(Unit, Measurement)> {
    let mut out = Vec::new();
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        for run in pass(
            &workload_units(other),
            seed,
            params,
            &mut Spans::new(false),
            false,
        ) {
            match run.result {
                Ok(m) => {
                    tally.record(&run.unit, Ok(()));
                    out.push((run.unit, m));
                }
                Err(e) => tally.record(&run.unit, Err(format!("measure: {e}"))),
            }
        }
    }
    out
}

/// The first two output checks of one measured unit; the third, obs
/// A/B, runs only in traced runs. Returns the obs-off replay for the
/// per-layer numbers.
fn check_unit(
    unit: &Unit,
    m: &Measurement,
    setup: &Setup,
    references: &mut References,
    spans: &mut Spans,
) -> Result<replay::Replay, String> {
    let input = setup.input(unit);
    let mut r = replay(unit, m, input, &setup.params, false, spans)?;
    check_reproduces(m, &r)?;
    check_outputs(unit, &mut r, input, &setup.params, references)?;
    Ok(r)
}

/// Each cell's mean of `values` over its recordings, as `<prefix>.<cell>`.
fn per_cell_mean(
    values: &[(Unit, f64)],
    prefix: &str,
    unit: &'static str,
) -> Result<Vec<Metric>, String> {
    CELLS
        .iter()
        .map(|cell| {
            let own: Vec<f64> = values
                .iter()
                .filter(|(u, _)| u.cell.id == cell.id)
                .map(|v| v.1)
                .collect();
            if own.len() as u64 != cell.inputs {
                return Err(format!(
                    "{} has {} of {} measurements",
                    cell.id,
                    own.len(),
                    cell.inputs
                ));
            }
            let mean = own.iter().sum::<f64>() / own.len() as f64;
            Ok((format!("{prefix}.{}", cell.id), mean, unit))
        })
        .collect()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("peak RSS: no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A metric's name, value and unit.
type Metric = (String, f64, &'static str);

struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed
        )
    }
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(args: &Args) -> Result<Outcome, String> {
    let own = workload_units(&args.workload);
    probe::check()?;
    let mut setup_s = Vec::new();
    let mut setup = None;
    let before = probe::seconds();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        setup = Some(Setup::new(&own, args.seed, &mut Spans::new(false)));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let setup_s = probe::scale(median(&setup_s), before, probe::seconds());
    let setup = setup.expect("SETUP_REPEATS > 0");

    // Timed passes: whole passes until the next one would overrun. A
    // pass's time is the sum of its units' scaled times.
    let budget = args.seconds as f64;
    let start = Instant::now();
    let mut passes: Vec<Vec<UnitRun>> = Vec::new();
    let (mut raw_s, mut pass_s) = (Vec::new(), Vec::new());
    while passes.is_empty() || start.elapsed().as_secs_f64() + median(&raw_s) <= budget {
        let begun = Instant::now();
        let runs = pass(&own, args.seed, &setup.params, &mut Spans::new(false), true);
        raw_s.push(begun.elapsed().as_secs_f64());
        pass_s.push(runs.iter().map(|r| r.scaled_s).sum::<f64>());
        passes.push(runs);
    }
    eprintln!(
        "wbsnbench: {} passes of {} units, median {:.3} s scaled, {:.3} s unscaled (with probes); scaled {:.3?}",
        passes.len(),
        own.len(),
        median(&pass_s),
        median(&raw_s),
        pass_s
    );

    // Everything below is untimed: output checks and the other cells.
    let mut tally = Tally::default();
    let mut measured: Vec<(Unit, Measurement)> = Vec::new();
    let mut references = References::default();
    for (i, unit) in own.iter().enumerate() {
        let first = passes[0][i].result.as_ref();
        for pass in &passes {
            let outcome = match (&pass[i].result, first) {
                (Err(e), _) => Err(format!("measure: {e}")),
                (Ok(m), Ok(f)) if same_measurement(m, f) => Ok(()),
                (Ok(_), _) => Err("passes measured differently".to_string()),
            };
            tally.record(unit, outcome);
        }
        if let Ok(m) = first {
            let checked = check_unit(unit, m, &setup, &mut references, &mut Spans::new(false));
            tally.record(unit, checked.map(|_| ()));
            measured.push((*unit, m.clone()));
        }
    }
    // The peak before the other workloads' cells run is this workload's.
    let peak_rss_mb = peak_rss_mb()?;
    measured.extend(other_units(
        &args.workload,
        args.seed,
        &setup.params,
        &mut tally,
    ));

    let mut metrics = vec![
        ("wall_s".to_string(), median(&pass_s), "s"),
        ("setup_s".to_string(), setup_s, "s"),
        ("peak_rss_mb".to_string(), peak_rss_mb, "MB"),
        (
            "ok_ratio".to_string(),
            (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
            "ratio",
        ),
    ];
    let uw: Vec<(Unit, f64)> = measured.iter().map(|(u, m)| (*u, m.power_uw())).collect();
    let uw = per_cell_mean(&uw, "uw", "uW")?;
    print_table1(&uw);
    metrics.extend(uw);
    Ok(Outcome { tally, metrics })
}

/// Prints Table I's modelled powers and MC-vs-SC savings beside the
/// paper's. Reported, not gated: the power model is relative.
fn print_table1(uw: &[Metric]) {
    let get = |id: String| {
        uw.iter()
            .find(|(n, _, _)| *n == format!("uw.{id}"))
            .map(|m| m.1)
    };
    println!("# table1 (model-relative uW; saving vs paper Table I)");
    for (name, paper) in PAPER_SAVINGS {
        if let (Some(sc), Some(mc)) = (get(format!("{name}-sc")), get(format!("{name}-mc"))) {
            let saving = 100.0 * (sc - mc) / sc;
            println!(
                "#   {name:<8} SC {sc:8.3} uW  MC {mc:8.3} uW  saving {saving:5.1} %  paper {paper:4.1} %  error {:+5.1} pts",
                saving - paper
            );
        }
    }
}

/// The per-layer metrics of one traced pass, by name, with units.
type Layers = BTreeMap<String, (f64, &'static str)>;

/// Sums over a workload's units in one traced pass.
#[derive(Default)]
struct Sums {
    units: u64,
    measure_s: f64,
    untraced_measure_s: f64,
    sim_runs: u64,
    builds: u64,
    build_s: f64,
    code_overhead_pct: f64,
    platform_new_s: f64,
    run_s: f64,
    run_counting_s: f64,
    integrate_s: f64,
    active: u64,
    gated: u64,
    instructions: u64,
    stall_im: u64,
    stall_dm: u64,
    stall_hazard: u64,
    bubbles: u64,
    im_accesses: u64,
    im_broadcasts: u64,
    dm_accesses: u64,
    xbar: u64,
    sync_ops: u64,
    sleeps: u64,
    sync_point_writes: u64,
    sleep_p99: u64,
    sync_gap_p99: u64,
    cores_uw: f64,
    prog_mem_uw: f64,
    data_mem_uw: f64,
    interconnect_uw: f64,
    clock_tree_uw: f64,
}

impl Sums {
    fn add_replay(&mut self, m: &Measurement, r: &replay::Replay) {
        self.units += 1;
        self.build_s += r.build_s;
        self.code_overhead_pct += r.app.code_overhead_percent();
        self.platform_new_s += r.platform_new_s;
        self.run_s += r.run_s;
        self.integrate_s += r.integrate_s;
        let s = &r.stats;
        for core in &s.cores {
            self.active += core.active_cycles;
            self.gated += core.gated_cycles;
            self.instructions += core.instructions;
            self.stall_im += core.stall_im;
            self.stall_dm += core.stall_dm;
            self.stall_hazard += core.stall_hazard;
            self.bubbles += core.bubbles;
            self.sync_ops += core.sync_ops;
            self.sleeps += core.sleeps;
        }
        self.im_accesses += s.im.accesses();
        self.im_broadcasts += s.im.broadcasts;
        self.dm_accesses += s.dm.accesses();
        self.xbar += s.xbar_im + s.xbar_dm;
        self.sync_point_writes += s.sync_region_writes;
        if let Some(obs) = &m.obs {
            self.sleep_p99 = self.sleep_p99.max(obs.sleep_p99_cycles);
            self.sync_gap_p99 = self.sync_gap_p99.max(obs.sync_gap_p99_cycles);
        }
        let b = &r.breakdown;
        self.cores_uw += b.cores_and_logic_uw;
        self.prog_mem_uw += b.prog_mem_uw;
        self.data_mem_uw += b.data_mem_uw;
        self.interconnect_uw += b.interconnect_uw;
        self.clock_tree_uw += b.clock_tree_uw;
    }

    fn layers(&self) -> Layers {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let count = |v: u64| (v as f64, "count");
        let cycles = |v: u64| (v as f64, "cycles");
        let seconds = |v: f64| (v, "s");
        let uw = |v: f64| (v, "uW");
        [
            ("bench.measure_s", seconds(self.measure_s)),
            ("bench.sim_runs", count(self.sim_runs)),
            (
                "bench.useful_share",
                (ratio(self.run_s, self.measure_s), "ratio"),
            ),
            ("kernels.build_s", seconds(self.build_s)),
            ("kernels.builds", count(self.builds)),
            (
                "isa.code_overhead_pct",
                (ratio(self.code_overhead_pct, self.units as f64), "%"),
            ),
            ("sim.platform_new_s", seconds(self.platform_new_s)),
            ("sim.run_s", seconds(self.run_s)),
            ("sim.active_core_cycles", count(self.active)),
            ("sim.instructions", count(self.instructions)),
            (
                "sim.gated_share",
                (
                    ratio(self.gated as f64, (self.active + self.gated) as f64),
                    "ratio",
                ),
            ),
            (
                "sim.ns_per_active_core_cycle",
                (ratio(self.run_s * 1e9, self.active as f64), "ns"),
            ),
            ("sim.stall_im_cycles", cycles(self.stall_im)),
            ("sim.stall_dm_cycles", cycles(self.stall_dm)),
            ("sim.stall_hazard_cycles", cycles(self.stall_hazard)),
            ("sim.bubbles", cycles(self.bubbles)),
            ("sim.im_accesses", count(self.im_accesses)),
            (
                "sim.im_broadcast_pct",
                (
                    ratio(
                        100.0 * self.im_broadcasts as f64,
                        (self.im_accesses + self.im_broadcasts) as f64,
                    ),
                    "%",
                ),
            ),
            ("sim.dm_accesses", count(self.dm_accesses)),
            ("sim.xbar_traversals", count(self.xbar)),
            ("core.sync_ops", count(self.sync_ops)),
            ("core.sleeps", count(self.sleeps)),
            ("core.sync_point_writes", count(self.sync_point_writes)),
            (
                "obs.overhead_ratio",
                (ratio(self.run_counting_s, self.run_s), "ratio"),
            ),
            ("obs.sleep_p99_cycles", cycles(self.sleep_p99)),
            ("obs.sync_gap_p99_cycles", cycles(self.sync_gap_p99)),
            ("power.integrate_s", seconds(self.integrate_s)),
            ("power.cores_uw", uw(self.cores_uw)),
            ("power.prog_mem_uw", uw(self.prog_mem_uw)),
            ("power.data_mem_uw", uw(self.data_mem_uw)),
            ("power.interconnect_uw", uw(self.interconnect_uw)),
            ("power.clock_tree_uw", uw(self.clock_tree_uw)),
            (
                "trace.overhead_s",
                seconds(self.measure_s - self.untraced_measure_s),
            ),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
    }
}

/// Layers whose self time is reported; `wbsnbench` is the benchmark's
/// own grouping span around each cell's checks.
const SELF_LAYERS: [&str; 6] = ["wbsnbench", "bench", "kernels", "dsp", "sim", "power"];

/// An untraced pass, then a traced pass whose units are each replayed
/// with and without the counting sink.
fn traced_pass(
    units: &[Unit],
    seed: u64,
    setup: &Setup,
    references: &mut References,
    spans: &mut Spans,
    tally: &mut Tally,
    clocks: &mut Vec<(Unit, f64)>,
) -> Layers {
    let mut sums = Sums {
        untraced_measure_s: pass(units, seed, &setup.params, &mut Spans::new(false), false)
            .iter()
            .map(|r| r.seconds)
            .sum(),
        ..Sums::default()
    };
    for run in pass(units, seed, &setup.params, spans, false) {
        let unit = run.unit;
        sums.measure_s += run.seconds;
        sums.sim_runs += run.lookups;
        sums.builds += run.misses;
        let m = match run.result {
            Ok(m) => m,
            Err(e) => {
                tally.record(&unit, Err(format!("measure: {e}")));
                continue;
            }
        };
        tally.record(&unit, Ok(()));
        clocks.push((unit, m.clock_hz / 1e6));
        let open = spans.open("wbsnbench.check", unit.cell.id);
        let checked = check_unit(&unit, &m, setup, references, spans);
        let ab = checked.as_ref().ok().map(|off| {
            let on = replay(&unit, &m, setup.input(&unit), &setup.params, true, spans)?;
            if on.stats != off.stats {
                return Err("SimStats differ with the counting sink on".to_string());
            }
            Ok(on.run_s)
        });
        spans.close(open);
        let off = match checked {
            Ok(off) => off,
            Err(e) => {
                tally.record(&unit, Err(e));
                continue;
            }
        };
        tally.record(&unit, Ok(()));
        sums.add_replay(&m, &off);
        if off.run_s > run.seconds {
            eprintln!(
                "wbsnbench: {}: the replay took longer than the harness call",
                unit.cell.id
            );
        }
        match ab.expect("the obs A/B runs when the checks pass") {
            Ok(run_s) => {
                sums.run_counting_s += run_s;
                tally.record(&unit, Ok(()));
            }
            Err(e) => tally.record(&unit, Err(e)),
        }
    }
    sums.layers()
}

/// `--trace 1`: the per-layer metrics. Traced passes repeat for
/// `--seconds`; each metric is its median over passes.
fn traced(args: &Args) -> Result<Outcome, String> {
    let own = workload_units(&args.workload);
    let mut setup_spans = Spans::new(true);
    let setup = Setup::new(&own, args.seed, &mut setup_spans);
    let setup_self = setup_spans.self_seconds();
    let span_total = |name: &str| -> f64 {
        setup_spans
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds())
            .sum()
    };
    let (train_s, synthesize_s) = (span_total("kernels.train"), span_total("dsp.synthesize"));

    let mut tally = Tally::default();
    let mut references = References::default();
    let mut clocks = Vec::new();
    let mut samples: Vec<Layers> = Vec::new();
    let mut pass_spans: Vec<Spans> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while samples.is_empty() || start.elapsed() < budget {
        let mut spans = setup_spans.sibling();
        clocks.clear();
        let mut layers = traced_pass(
            &own,
            args.seed,
            &setup,
            &mut references,
            &mut spans,
            &mut tally,
            &mut clocks,
        );
        let mut own_s = spans.self_seconds();
        for (layer, s) in &setup_self {
            *own_s.entry(layer).or_insert(0.0) += s;
        }
        for layer in SELF_LAYERS {
            layers.insert(
                format!("self_s.{layer}"),
                (own_s.get(layer).copied().unwrap_or(0.0), "s"),
            );
        }
        samples.push(layers);
        pass_spans.push(spans);
    }
    eprintln!(
        "wbsnbench: {} traced passes of {} units",
        samples.len(),
        own.len()
    );

    for (unit, m) in other_units(&args.workload, args.seed, &setup.params, &mut tally) {
        clocks.push((unit, m.clock_hz / 1e6));
    }
    let mut metrics = vec![
        ("kernels.train_s".to_string(), train_s, "s"),
        ("dsp.synthesize_s".to_string(), synthesize_s, "s"),
    ];
    for (name, (_, unit)) in &samples[0] {
        let values: Vec<f64> = samples.iter().map(|s| s[name].0).collect();
        metrics.push((name.clone(), median(&values), *unit));
    }
    metrics.extend(per_cell_mean(&clocks, "power.clock_mhz", "MHz")?);
    write_spans(&args.workload, args.seed, &setup_spans, &pass_spans)?;
    Ok(Outcome { tally, metrics })
}

/// Writes every span of the run to `out/spans-<workload>-<seed>.json` in
/// the benchmark's directory.
fn write_spans(workload: &str, seed: u64, setup: &Spans, passes: &[Spans]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}-{seed}.json"));
    let passes: Vec<String> = passes.iter().map(Spans::to_json).collect();
    let json = format!(
        "{{\"setup\": {}, \"passes\": [{}]}}\n",
        setup.to_json(),
        passes.join(", ")
    );
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wbsnbench: spans written to {}", path.display());
    Ok(())
}
