//! The results binaries leave the committed sweep record alone: they
//! write a record only where `WBSN_SWEEP_JSON` names a file, never a
//! `BENCH_sweep.json` in the working directory.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty directory under the cargo target's test scratch area.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates the scratch directory");
    dir
}

/// Runs the `sensitivity` binary in `dir` on a 0.2 s window, with
/// `WBSN_SWEEP_JSON` set to `record` or unset.
fn run_sensitivity(dir: &Path, record: Option<&str>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sensitivity"));
    cmd.current_dir(dir)
        .env("WBSN_DURATION_S", "0.2")
        .env_remove("WBSN_SWEEP_JSON");
    if let Some(record) = record {
        cmd.env("WBSN_SWEEP_JSON", record);
    }
    let out = cmd.output().expect("sensitivity starts");
    assert!(
        out.status.success(),
        "sensitivity failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn results_bins_write_a_record_only_where_asked() {
    let dir = fresh_dir("results-bin-without-record");
    run_sensitivity(&dir, None);
    assert!(
        !dir.join("BENCH_sweep.json").exists(),
        "no record is written by default"
    );

    let dir = fresh_dir("results-bin-with-record");
    run_sensitivity(&dir, Some("rec.json"));
    let record = std::fs::read_to_string(dir.join("rec.json")).expect("record written");
    assert!(record.contains("\"grid_cells\": 2"), "{record}");
    assert!(!dir.join("BENCH_sweep.json").exists());
}
