//! Workspace-level observability integration: the event stream, the
//! per-phase profiler and the Perfetto exporter driven by real
//! workloads, with the accounting invariants the instrumentation must
//! keep.

use wbsn::dsp::ecg::{synthesize, EcgConfig};
use wbsn::isa::{assemble_text, Linker, PhaseTable, Section};
use wbsn::kernels::{build_mf, Arch, BuildOptions, SyncApproach};
use wbsn::sim::{ObsConfig, Platform, PlatformConfig, RunExit};
use wbsn_obs::json;

/// A three-core Fig. 3-b style program: divergent branch bodies
/// re-synchronized with SINC/SDEC + SLEEP, one section per core so each
/// core runs a distinct mapping phase.
fn fig3b_image() -> wbsn::isa::LinkedImage {
    let mut linker = Linker::new();
    for (idx, body_len) in [60u32, 5, 30].into_iter().enumerate() {
        let src = format!(
            "sinc 0\n\
             li r1, {body_len}\n\
             body: addi r1, r1, -1\n\
             bne r1, r0, body\n\
             sdec 0\n\
             sleep\n\
             li r2, 1\n\
             sw r2, {stamp}(r0)\n\
             halt\n",
            stamp = 0x100 + idx,
        );
        let program = assemble_text(&src).expect("assembles");
        let name = format!("phase{idx}");
        linker.add_section(Section::in_bank(&name, program, idx));
        linker.set_entry(idx, &name);
    }
    linker.link().expect("links")
}

/// The acceptance invariant of the per-phase profiler: every active
/// cycle and every retirement the platform counts is attributed to
/// exactly one phase, so the per-core profiler totals equal the
/// `CoreStats` counters — exactly, on a full multi-core kernel.
#[test]
fn profiler_totals_match_core_stats_exactly() {
    let options = BuildOptions {
        adc_period_cycles: 16_000,
        ..BuildOptions::default()
    };
    assert_eq!(options.approach, SyncApproach::Hardware);
    let app = build_mf(Arch::MultiCore, &options).expect("mf mc builds");
    let rec = synthesize(&EcgConfig {
        fs: 500,
        duration_s: 0.5,
        pathological_fraction: 0.2,
        seed: 0xB0B0,
        ..EcgConfig::healthy_60s()
    });
    let samples = rec.leads[0].len() as u64;
    let budget = app.config.adc.start_cycle + (samples + 8) * app.config.adc.period_cycles;
    let mut platform = app.platform(rec.leads).expect("platform builds");
    platform.enable_obs(ObsConfig::full(Some(PhaseTable::from_image(&app.image))));
    platform.run(budget).expect("no faults");
    platform.finish_obs();

    let stats = platform.stats();
    let recorder = platform.obs().recorder().expect("recorder attached");
    let profiler = recorder.profiler().expect("profiler attached");
    for (core, cs) in stats.cores.iter().enumerate() {
        assert_eq!(
            profiler.active_total(core),
            cs.active_cycles,
            "core {core}: profiler active cycles must sum to CoreStats.active_cycles"
        );
    }
    let rows = profiler.rows();
    for (core, cs) in stats.cores.iter().enumerate() {
        let attributed: u64 = rows
            .iter()
            .filter(|r| r.core == core)
            .map(|r| r.counters.instructions)
            .sum();
        assert_eq!(
            attributed, cs.instructions,
            "core {core}: every retirement lands in exactly one phase"
        );
    }
    // The workload really exercised the stream: cores slept at the
    // lock-step barrier, and every ADC sample reached the timeline.
    let counting = recorder.counting().expect("counting sink attached");
    let summary = counting.summary();
    assert!(summary.sleep_count > 0, "barrier sleeps were observed");
    let timeline = json::parse(&recorder.trace_json().expect("timeline attached")).unwrap();
    let adc_instants = timeline
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array")
        .iter()
        .filter(|e| {
            e.get("ph").and_then(|v| v.as_str()) == Some("i")
                && e.get("name").and_then(|v| v.as_str()) == Some("adc sample")
        })
        .count() as u64;
    assert!(
        adc_instants >= samples,
        "{adc_instants} adc sample instants"
    );
    // Phases carry real section names, not just the unmapped bucket.
    assert!(
        rows.iter().any(|r| r.phase != wbsn_obs::UNMAPPED_PHASE),
        "{rows:?}"
    );
}

/// The Perfetto exporter emits valid Chrome `trace_event` JSON: the
/// crate's own parser accepts it, and the timeline carries complete
/// slices, instants and track metadata.
#[test]
fn trace_json_is_valid_trace_event() {
    let image = fig3b_image();
    let mut platform =
        Platform::new(PlatformConfig::multi_core(), &image).expect("platform builds");
    platform.enable_obs(ObsConfig::full(Some(PhaseTable::from_image(&image))));
    assert_eq!(platform.run(100_000).expect("runs"), RunExit::AllHalted);
    platform.finish_obs();

    let json_text = platform
        .obs()
        .recorder()
        .and_then(|r| r.trace_json())
        .expect("trace sink attached");
    let root = json::parse(&json_text).expect("exporter output parses as JSON");
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut phases = Vec::new();
    for event in events {
        let obj = event.as_obj().expect("every event is an object");
        assert!(
            obj.iter().any(|(k, _)| k == "ph"),
            "every event carries a ph"
        );
        let ph = event.get("ph").and_then(|v| v.as_str()).expect("ph string");
        phases.push(ph.to_string());
        match ph {
            "X" => {
                let dur = event.get("dur").and_then(|v| v.as_num()).expect("dur");
                assert!(dur >= 0.0, "complete slices have non-negative duration");
            }
            "i" => {
                assert_eq!(event.get("s").and_then(|v| v.as_str()), Some("t"));
            }
            "M" => {}
            other => panic!("unexpected event type {other:?}"),
        }
    }
    assert!(phases.iter().any(|p| p == "X"), "phase/sleep slices");
    assert!(phases.iter().any(|p| p == "i"), "release instants");
    assert!(phases.iter().any(|p| p == "M"), "track metadata");

    // The three sections appear as named slices, and the barrier release
    // shows up as an instant on the platform track.
    assert!(json_text.contains("\"phase0\""));
    assert!(json_text.contains("\"phase1\""));
    assert!(json_text.contains("\"release p0\""));
    assert!(json_text.contains("\"wbsn platform\""));
}

/// Disabled observability stays disabled: no recorder, no events, and
/// the run result is byte-identical stats.
#[test]
fn obs_off_changes_nothing() {
    let image = fig3b_image();
    let mut with = Platform::new(PlatformConfig::multi_core(), &image).expect("builds");
    with.enable_obs(ObsConfig::full(Some(PhaseTable::from_image(&image))));
    let mut without = Platform::new(PlatformConfig::multi_core(), &image).expect("builds");
    assert!(without.obs().recorder().is_none());

    assert_eq!(with.run(100_000).expect("runs"), RunExit::AllHalted);
    assert_eq!(without.run(100_000).expect("runs"), RunExit::AllHalted);
    with.finish_obs();
    without.finish_obs();
    assert_eq!(with.stats(), without.stats(), "observation is passive");
}
