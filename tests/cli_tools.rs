//! End-to-end test of the command-line tool-chain: `wbsn-asm` assembles
//! and links sources into an image, `wbsn-run` executes it, `wbsn-dis`
//! disassembles it.

use std::process::Command;

fn write(path: &std::path::Path, content: &str) {
    std::fs::write(path, content).expect("test file writable");
}

#[test]
fn assemble_run_disassemble_round_trip() {
    let dir = std::env::temp_dir().join(format!("wbsn-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let prod = dir.join("prod.asm");
    let cons = dir.join("cons.asm");
    let img = dir.join("demo.img");
    write(
        &prod,
        "sinc 0\nli r1, 6\nli r2, 7\nmul r3, r1, r2\nsw r3, 0x100(r0)\nsdec 0\nhalt\n",
    );
    write(
        &cons,
        "snop 0\nsleep\nlw r1, 0x100(r0)\nadd r1, r1, r1\nsw r1, 0x101(r0)\nhalt\n",
    );

    let asm = Command::new(env!("CARGO_BIN_EXE_wbsn-asm"))
        .arg("-o")
        .arg(&img)
        .args(["--entry", "0=prod", "--entry", "1=cons"])
        .arg(format!("{}:0", prod.display()))
        .arg(format!("{}:1", cons.display()))
        .output()
        .expect("wbsn-asm runs");
    assert!(asm.status.success(), "asm: {:?}", asm);
    let stdout = String::from_utf8_lossy(&asm.stdout);
    assert!(stdout.contains("2 sections"), "{stdout}");
    assert!(stdout.contains("(4 sync)"), "{stdout}");

    let run = Command::new(env!("CARGO_BIN_EXE_wbsn-run"))
        .args(["--dump", "0x100:2"])
        .arg(&img)
        .output()
        .expect("wbsn-run runs");
    assert!(run.status.success(), "run: {:?}", run);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("AllHalted"), "{stdout}");
    assert!(stdout.contains("0x002a 0x0054"), "{stdout}");
    assert!(stdout.contains("sync fires 1"), "{stdout}");

    let dis = Command::new(env!("CARGO_BIN_EXE_wbsn-dis"))
        .arg(&img)
        .output()
        .expect("wbsn-dis runs");
    assert!(dis.status.success(), "dis: {:?}", dis);
    let stdout = String::from_utf8_lossy(&dis.stdout);
    assert!(stdout.contains("section prod"), "{stdout}");
    assert!(stdout.contains("sinc 0"), "{stdout}");
    assert!(stdout.contains("<- core 1"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The observability flags end to end on the committed demo sources:
/// assemble `examples/asm/`, run with `--trace-json`/`--profile`/
/// `--stats-json`, and validate both JSON artifacts with the obs
/// crate's own parser (the same check CI's `obs-smoke` job performs
/// with `wbsn-trace-check`). Then `--trace N`: the ring interleaves
/// retirements with synchronizer events, keeps nothing at capacity 0,
/// and a capacity far beyond the run is not allocated up front.
#[test]
fn observability_flags_round_trip() {
    let dir = std::env::temp_dir().join(format!("wbsn-obs-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let img = dir.join("demo.img");
    let trace = dir.join("trace.json");
    let stats = dir.join("stats.json");
    let asm_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/asm");

    let asm = Command::new(env!("CARGO_BIN_EXE_wbsn-asm"))
        .arg("--lint")
        .arg("-o")
        .arg(&img)
        .args([
            "--entry", "0=lead0", "--entry", "1=lead1", "--entry", "2=lead2",
        ])
        .arg(format!("{}:0", asm_dir.join("lead0.asm").display()))
        .arg(format!("{}:1", asm_dir.join("lead1.asm").display()))
        .arg(format!("{}:2", asm_dir.join("lead2.asm").display()))
        .output()
        .expect("wbsn-asm runs");
    assert!(asm.status.success(), "asm: {asm:?}");

    let run = Command::new(env!("CARGO_BIN_EXE_wbsn-run"))
        .arg("--trace-json")
        .arg(&trace)
        .arg("--profile")
        .arg("--stats-json")
        .arg(&stats)
        .arg(&img)
        .output()
        .expect("wbsn-run runs");
    assert!(run.status.success(), "run: {run:?}");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("AllHalted"), "{stdout}");
    assert!(stdout.contains("phase profile"), "{stdout}");
    assert!(stdout.contains("lead0"), "{stdout}");
    assert!(stdout.contains("sleeps:"), "{stdout}");

    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    let root = wbsn_obs::json::parse(&trace_text).expect("valid trace JSON");
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents");
    assert!(!events.is_empty());
    assert!(trace_text.contains("\"lead1\""), "phase slices are named");

    let stats_text = std::fs::read_to_string(&stats).expect("stats written");
    let root = wbsn_obs::json::parse(&stats_text).expect("valid stats JSON");
    assert_eq!(
        root.get("schema").and_then(|v| v.as_str()),
        Some("wbsn-stats/1")
    );

    let traced = |args: &[&str]| {
        let run = Command::new(env!("CARGO_BIN_EXE_wbsn-run"))
            .args(args)
            .arg(&img)
            .output()
            .expect("wbsn-run runs");
        assert!(run.status.success(), "run {args:?}: {run:?}");
        String::from_utf8_lossy(&run.stdout).into_owned()
    };
    let ring = traced(&["--trace", "64"]);
    assert!(ring.contains("core0 0x0005: sdec 0"), "{ring}");
    assert!(ring.contains("point p0 released"), "{ring}");
    let ring_lines = |out: &str| out.lines().filter(|l| l.starts_with('[')).count();
    assert_eq!(ring_lines(&ring), 64, "{ring}");
    let empty = traced(&["--trace", "0"]);
    assert_eq!(ring_lines(&empty), 0, "{empty}");
    let huge = traced(&["--trace", "4000000000", "--cycles", "2000"]);
    assert!(huge.contains("AllHalted"), "{huge}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_inputs_fail_cleanly() {
    let missing = Command::new(env!("CARGO_BIN_EXE_wbsn-asm"))
        .arg("/nonexistent/input.asm")
        .output()
        .expect("runs");
    assert!(!missing.status.success());

    let bad_image = Command::new(env!("CARGO_BIN_EXE_wbsn-run"))
        .arg("/dev/null")
        .output()
        .expect("runs");
    assert!(!bad_image.status.success());
    // An empty file fails the header read before the magic check.
    assert!(String::from_utf8_lossy(&bad_image.stderr).contains("truncated"));
}
