//! Failure injection: the platform must detect and report — never
//! mask — corrupted binaries, protocol violations and degraded inputs.

use wbsn::core::SyncError;
use wbsn::dsp::ecg::{synthesize, EcgConfig};
use wbsn::isa::{assemble_text, image, Linker, Section};
use wbsn::kernels::{build_mf, Arch, BuildOptions};
use wbsn::sim::{ConfigError, FaultKind, Platform, PlatformConfig, SimError};

fn platform_from(src: &str) -> Platform {
    let mut linker = Linker::new();
    linker.add_section(Section::new("main", assemble_text(src).expect("assembles")));
    linker.set_entry(0, "main");
    let image = linker.link().expect("links");
    Platform::new(PlatformConfig::multi_core(), &image).expect("builds")
}

#[test]
fn sdec_underflow_is_a_detected_protocol_violation() {
    let mut p = platform_from("sdec 0\nhalt\n");
    let err = p.run(100).unwrap_err();
    assert!(matches!(err, SimError::Sync(SyncError::CounterUnderflow)));
}

#[test]
fn runaway_pc_faults() {
    // Fall off the end of the section into zeroed memory: NOPs execute
    // until the PC leaves the bank's code... the zero word *is* a NOP
    // encoding, so the core walks to the end of the instruction memory
    // and faults there.
    let mut p = platform_from("nop\n");
    let err = p.run(200_000).unwrap_err();
    assert!(matches!(
        err,
        SimError::Fault(wbsn::sim::Fault {
            kind: FaultKind::ImOutOfRange,
            ..
        })
    ));
}

#[test]
fn corrupted_image_word_is_rejected_at_load() {
    let app = build_mf(Arch::MultiCore, &BuildOptions::default()).expect("builds");
    let mut bytes = image::to_bytes(&app.image);
    // Flip bits in the middle of the first section's code.
    let offset = 40;
    bytes[offset] ^= 0xFF;
    bytes[offset + 1] ^= 0xFF;
    assert!(image::from_bytes(&bytes).is_err());
}

#[test]
fn missing_adc_channels_degrade_gracefully() {
    // Only lead 0 has data; leads 1 and 2 read zeros. The application
    // must still meet real time and produce a full lead-0 stream.
    let rec = synthesize(&EcgConfig {
        fs: 500,
        duration_s: 2.0,
        ..EcgConfig::healthy_60s()
    });
    let app = build_mf(
        Arch::MultiCore,
        &BuildOptions {
            adc_period_cycles: 16_000,
            ..BuildOptions::default()
        },
    )
    .expect("builds");
    let samples = rec.leads[0].len() as u64;
    let mut platform = app
        .platform(vec![rec.leads[0].clone()])
        .expect("platform builds");
    platform
        .run(app.config.adc.start_cycle + (samples + 8) * app.config.adc.period_cycles)
        .expect("runs");
    assert_eq!(platform.adc_overruns(), 0);
    let count0 = platform
        .peek_dm(wbsn::kernels::layout::LEAD_COUNT_BASE)
        .expect("count");
    assert!(count0 as u64 >= samples - 1);
    // The silent leads settle to a zero-filtered stream.
    let count2 = platform
        .peek_dm(wbsn::kernels::layout::LEAD_COUNT_BASE + 2)
        .expect("count");
    assert!(count2 as u64 >= samples - 1);
}

#[test]
fn more_leads_than_adc_channels_is_a_config_error() {
    // The MF image has three ADC channels; a fourth lead must be refused
    // with an error, not a panic.
    let app = build_mf(Arch::MultiCore, &BuildOptions::default()).expect("builds");
    let lead = vec![0i16; 8];
    let err = app
        .platform(vec![lead; 4])
        .expect_err("four leads on three channels");
    assert!(matches!(
        err,
        SimError::Config(ConfigError::TooManyAdcStreams {
            streams: 4,
            channels: 3
        })
    ));
}

#[test]
fn overrun_detection_fires_under_starvation() {
    // A deliberately starved platform (period shorter than the per-sample
    // work) must *report* overruns rather than silently dropping samples.
    let rec = synthesize(&EcgConfig {
        fs: 500,
        duration_s: 1.0,
        ..EcgConfig::healthy_60s()
    });
    let app = build_mf(
        Arch::SingleCore,
        &BuildOptions {
            adc_period_cycles: 500, // far below the ~4300-cycle workload
            ..BuildOptions::default()
        },
    )
    .expect("builds");
    let samples = rec.leads[0].len() as u64;
    let mut platform = app.platform(rec.leads.clone()).expect("platform builds");
    platform
        .run(app.config.adc.start_cycle + (samples + 8) * app.config.adc.period_cycles)
        .expect("runs");
    assert!(platform.adc_overruns() > 0, "starvation must be visible");
}

#[test]
fn store_to_reserved_regions_faults() {
    for (src, kind) in [
        (
            "li r1, 1\nsw r1, 0x10(r0)\nhalt\n",
            FaultKind::WriteToSyncRegion,
        ),
        (
            "lui r2, 0x7F\nli r1, 1\nsw r1, 0(r2)\nhalt\n",
            FaultKind::MmioReadOnly,
        ),
    ] {
        let mut p = platform_from(src);
        let err = p.run(100).unwrap_err();
        match err {
            SimError::Fault(fault) => assert_eq!(fault.kind, kind),
            other => panic!("expected a fault, got {other}"),
        }
    }
}
