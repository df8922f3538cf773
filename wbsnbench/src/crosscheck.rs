//! `--crosscheck`: re-measures the `table1` and `busywait` cells at the
//! committed sweep's window and seed and compares their modelled µW with
//! `power_uw` in the repository's `BENCH_sweep.json`. Run from anywhere;
//! the record is found next to the benchmark's directory. Slow (the
//! busy-wait cells step every cycle of a 5 s window), so it is a mode of
//! its own, not a workload.

use std::path::Path;
use std::process::ExitCode;

use wbsn_bench::experiment::measure;
use wbsn_bench::ExperimentConfig;
use wbsn_kernels::ClassifierParams;
use wbsn_obs::json::{parse, Json};

use crate::cells::CELLS;

fn committed_cells() -> Result<Vec<Json>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCH_sweep.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let record = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    record
        .get("cells")
        .and_then(Json::as_arr)
        .map(<[Json]>::to_vec)
        .ok_or_else(|| "no cells array in the sweep record".to_string())
}

pub fn run() -> ExitCode {
    let cells = match committed_cells() {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("wbsnbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let params = ClassifierParams::default_trained();
    let (mut compared, mut mismatched) = (0, 0);
    let mut uw = Vec::new();
    for cell in CELLS.iter().filter(|c| c.workload != "fig7") {
        let committed = cells.iter().find(|c| {
            c.get("benchmark").and_then(Json::as_str) == Some(cell.benchmark.name())
                && c.get("variant").and_then(Json::as_str) == Some(cell.variant.label())
                && c.get("schedule") == Some(&Json::Bool(false))
                && c.get("forwarding") == Some(&Json::Bool(false))
                && c.get("pinned_clock_hz") == Some(&Json::Null)
        });
        let num = |c: &Json, key: &str| c.get(key).and_then(Json::as_num);
        let Some((duration_s, seed, fraction, power_uw)) = committed.and_then(|c| {
            Some((
                num(c, "duration_s")?,
                num(c, "seed")?,
                num(c, "pathological_fraction")?,
                num(c, "power_uw")?,
            ))
        }) else {
            println!("{:<12} not in the committed record", cell.id);
            continue;
        };
        let config = ExperimentConfig {
            duration_s,
            pathological_fraction: fraction,
            seed: seed as u64,
            ..ExperimentConfig::default()
        };
        compared += 1;
        match measure(cell.benchmark, cell.variant, &config, &params) {
            Ok(m) => {
                let equal = m.power_uw().to_bits() == power_uw.to_bits();
                uw.push((format!("uw.{}", cell.id), m.power_uw(), "uW"));
                mismatched += u32::from(!equal);
                println!(
                    "{:<12} {duration_s} s seed {seed}: {} uW, committed {power_uw} uW: {}",
                    cell.id,
                    m.power_uw(),
                    if equal { "equal" } else { "DIFFERENT" }
                );
            }
            Err(e) => {
                mismatched += 1;
                println!("{:<12} failed: {e}", cell.id);
            }
        }
    }
    crate::print_table1(&uw);
    println!("crosscheck: {compared} cells compared, {mismatched} differ");
    if compared > 0 && mismatched == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
