//! The two scenarios of the paper's Fig. 3, executed both on the
//! synchronizer unit directly and as real binaries on the full platform.

use wbsn::core::mapping::verify::{verify_image, VerifyConfig, VerifyDiag};
use wbsn::core::{CoreId, SyncPointValue, Synchronizer};
use wbsn::isa::syncflow::{self, SyncFlowDiag};
use wbsn::isa::{assemble_text, Linker, PhaseTable, Section, SyncKind};
use wbsn::sim::{ObsConfig, Platform, PlatformConfig, RunExit, SimError, WatchdogTrip};

fn core(i: usize) -> CoreId {
    CoreId::new(i).expect("test core in range")
}

/// Fig. 3-a: cores 0, 1 and 2 jointly produce data for core 4; data is
/// not yet available. The point's word must read flags {0,1,2,4} with
/// counter 3, and core 4 must resume exactly when the last producer
/// finishes.
#[test]
fn fig3a_unit_level() {
    let mut sync = Synchronizer::new(8, 1).expect("valid");
    for i in 0..3 {
        sync.submit_op(core(i), SyncKind::Inc, 0).expect("staged");
    }
    sync.submit_op(core(4), SyncKind::Nop, 0).expect("staged");
    sync.commit().expect("consistent");

    let value = sync.point_value(0).expect("point exists");
    assert_eq!(value, SyncPointValue::from_word(0b0001_0111 << 8 | 3));

    sync.request_sleep(core(4));
    sync.commit().expect("consistent");
    for i in 0..3 {
        sync.submit_op(core(i), SyncKind::Dec, 0).expect("staged");
        let outcome = sync.commit().expect("consistent");
        if i < 2 {
            assert!(outcome.woken.is_empty(), "woken too early at SDEC {i}");
        } else {
            assert!(outcome.woken.contains(core(4)), "last SDEC releases");
        }
    }
}

/// Fig. 3-b: cores 0, 1 and 2 enter a data-dependent branch; core 0
/// finishes first. The point reads flags {0,1,2} with counter 2.
#[test]
fn fig3b_unit_level() {
    let mut sync = Synchronizer::new(8, 1).expect("valid");
    for i in 0..3 {
        sync.submit_op(core(i), SyncKind::Inc, 0).expect("staged");
    }
    sync.commit().expect("consistent");
    sync.submit_op(core(0), SyncKind::Dec, 0).expect("staged");
    sync.commit().expect("consistent");

    let value = sync.point_value(0).expect("point exists");
    assert_eq!(value.flags().bits(), 0b0000_0111);
    assert_eq!(value.counter(), 2);
}

/// Fig. 3-b on the full platform: three cores take branch bodies of
/// different lengths and re-synchronize with SINC/SDEC + SLEEP; after
/// the barrier they write a completion stamp. All stamps must be
/// present, and every core must have spent time clock-gated except the
/// slowest.
#[test]
fn fig3b_on_the_platform() {
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
    let image = linker.link().expect("links");
    let mut platform =
        Platform::new(PlatformConfig::multi_core(), &image).expect("platform builds");
    assert_eq!(platform.run(100_000).expect("runs"), RunExit::AllHalted);
    for idx in 0..3 {
        assert_eq!(platform.peek_dm(0x100 + idx).expect("readable"), 1);
    }
    // The fast cores waited for the slow one.
    let stats = platform.stats();
    assert!(stats.cores[1].gated_cycles > stats.cores[0].gated_cycles);
    assert_eq!(platform.synchronizer().stats().fires, 1);
}

/// Fig. 3-b gone wrong: one branch arm carries the SINC but the other
/// does not, so the lock-step group's counter diverges depending on
/// data. The static lint must flag the join — this is exactly the
/// insertion rule the paper's step 2 enforces.
#[test]
fn unbalanced_branch_program_is_rejected_by_static_lint() {
    let src = "bne r1, r0, long\n\
               sdec 0\n\
               sleep\n\
               jmp done\n\
               long: sinc 0\n\
               sdec 0\n\
               sdec 0\n\
               sleep\n\
               done: halt\n";
    let program = assemble_text(src).expect("assembles");
    let diags = syncflow::analyze(&program, &syncflow::SyncFlowConfig::with_sync_points(16));
    assert!(
        diags.iter().any(
            |d| matches!(d, SyncFlowDiag::CounterUnderflow { point: 0, .. })
                || matches!(d, SyncFlowDiag::UnbalancedBranch { point: 0, .. })
        ),
        "{diags:?}"
    );

    // The same program flagged through the linked image, with section
    // and core attribution.
    let mut linker = Linker::new();
    linker.add_section(Section::new("cond", program));
    linker.set_entry(0, "cond");
    let image = linker.link().expect("links");
    let diags = verify_image(&image, &VerifyConfig::new(16)).expect("decodes");
    assert!(
        diags.iter().any(|d| matches!(
            d,
            VerifyDiag::Flow { section, cores, .. }
                if section == "cond" && cores.contains(&0)
        )),
        "{diags:?}"
    );
}

/// An orphaned SNOP: the consumer registers on a point no producer ever
/// signals. Without the watchdog the run would end as a (misleading)
/// quiescent exit; with it, the platform reports a deadlock post-mortem
/// naming the waiting core — instead of a silent hang on hardware.
#[test]
fn orphaned_snop_trips_the_runtime_watchdog() {
    let producer = assemble_text("li r1, 2\nspin: addi r1, r1, -1\nbne r1, r0, spin\nhalt\n")
        .expect("assembles");
    // Consumer waits on point 3, but the producer never touches it.
    let consumer = assemble_text("snop 3\nsleep\nsw r0, 0x120(r0)\nhalt\n").expect("assembles");
    let mut linker = Linker::new();
    linker.add_section(Section::in_bank("producer", producer, 0));
    linker.add_section(Section::in_bank("consumer", consumer, 1));
    linker.set_entry(0, "producer");
    linker.set_entry(1, "consumer");
    let image = linker.link().expect("links");
    let mut platform =
        Platform::new(PlatformConfig::multi_core(), &image).expect("platform builds");
    platform.set_watchdog(50_000);
    platform.enable_obs(ObsConfig::full(Some(PhaseTable::from_image(&image))));

    let err = platform
        .run(10_000_000)
        .expect_err("must not run to a clean exit");
    let SimError::Watchdog(pm) = err else {
        panic!("expected a watchdog post-mortem, got {err:?}");
    };
    assert_eq!(pm.trip, WatchdogTrip::Deadlock { waiting: vec![1] });
    let point3 = &pm.points[3];
    assert!(point3.value.flags().contains(core(1)), "consumer flagged");
    // The observability recorder feeds the dump: its one tail must show
    // the consumer retiring its `sleep` next to the synchronizer gating
    // it, and the profiler must attribute each core's cycles to its
    // section.
    assert!(
        pm.obs_tail
            .iter()
            .any(|line| line.contains("core1 ") && line.ends_with(": sleep")),
        "{:?}",
        pm.obs_tail
    );
    assert!(
        pm.obs_tail.iter().any(|line| line.contains("core1 slept")),
        "{:?}",
        pm.obs_tail
    );
    assert!(
        pm.phase_profile
            .iter()
            .any(|row| row.core == 0 && row.phase == "producer" && row.active_cycles > 0),
        "{:?}",
        pm.phase_profile
    );
    assert!(
        pm.phase_profile
            .iter()
            .any(|row| row.core == 1 && row.phase == "consumer" && row.instructions > 0),
        "{:?}",
        pm.phase_profile
    );
    let rendered = pm.to_string();
    assert!(rendered.contains("deadlock"), "{rendered}");
    assert!(rendered.contains("core 1"), "{rendered}");
    assert!(rendered.contains("last events:"), "{rendered}");
    assert!(rendered.contains("phase attribution:"), "{rendered}");
}

/// The merge rule: several synchronization instructions issued in the
/// same cycle on the same location become one consistent modification.
#[test]
fn same_cycle_requests_merge_into_one_write() {
    let mut sync = Synchronizer::new(8, 1).expect("valid");
    for i in 0..8 {
        sync.submit_op(core(i), SyncKind::Inc, 0).expect("staged");
    }
    let outcome = sync.commit().expect("consistent");
    assert_eq!(outcome.memory_writes, 1, "one physical write");
    assert_eq!(sync.stats().merged, 7, "seven requests rode along");
    assert_eq!(sync.point_value(0).expect("point").counter(), 8);
}
