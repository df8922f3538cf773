//! Tracing, arbitration-conflict accounting and fault paths on the full
//! platform.

use wbsn_isa::{assemble_text, Linker, Section};
use wbsn_sim::{ObsConfig, Platform, PlatformConfig, RunExit, StallCause, TraceEntry};

/// Count-down loops at different addresses of one instruction bank.
const FETCH_A: &str = "li r1, 50\nla: addi r1, r1, -1\nbne r1, r0, la\nsw r1, 0x40(r0)\nhalt\n";
const FETCH_B: &str = "li r2, 50\nlb: addi r2, r2, -1\nbne r2, r0, lb\nsw r2, 0x41(r0)\nhalt\n";

/// Store loops to addresses 0x40 and 0x50, both ≡ 0 (mod 16): the same
/// data bank.
const STORE_A: &str =
    "li r1, 100\nli r3, 7\nla: sw r3, 0x40(r0)\naddi r1, r1, -1\nbne r1, r0, la\nhalt\n";
const STORE_B: &str =
    "li r1, 100\nli r3, 9\nlb: sw r3, 0x50(r0)\naddi r1, r1, -1\nbne r1, r0, lb\nhalt\n";

/// A loop whose load feeds the very next instruction.
const LOAD_USE: &str =
    "li r1, 20\nlp: lw r2, 0x40(r0)\nadd r3, r2, r2\naddi r1, r1, -1\nbne r1, r0, lp\nhalt\n";

fn multi(sections: Vec<(&str, &str, usize)>, entries: &[(usize, &str)]) -> Platform {
    let mut linker = Linker::new();
    for (name, src, bank) in sections {
        linker.add_section(Section::in_bank(
            name,
            assemble_text(src).expect("assembles"),
            bank,
        ));
    }
    for &(core, section) in entries {
        linker.set_entry(core, section);
    }
    let image = linker.link().expect("links");
    Platform::new(PlatformConfig::multi_core(), &image).expect("builds")
}

#[test]
fn trace_records_retirements_in_order() {
    let mut p = multi(
        vec![(
            "main",
            "li r1, 2\nadd r1, r1, r1\nsw r1, 0x40(r0)\nhalt\n",
            0,
        )],
        &[(0, "main")],
    );
    p.enable_trace(16, 0b1);
    assert_eq!(p.run(100).unwrap(), RunExit::AllHalted);
    let trace = p.trace().expect("enabled");
    let listing = trace.listing();
    assert_eq!(trace.len(), 4);
    assert!(listing.contains("li r1, 2"));
    assert!(listing.contains("halt"));
    // Cycles are non-decreasing.
    let cycles: Vec<u64> = trace.events().map(|e| e.cycle).collect();
    assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn trace_mask_excludes_other_cores() {
    let mut p = multi(
        vec![("a", "halt\n", 0), ("b", "nop\nhalt\n", 1)],
        &[(0, "a"), (1, "b")],
    );
    p.enable_trace(16, 0b10);
    p.run(100).unwrap();
    let trace = p.trace().expect("enabled");
    assert!(trace.events().all(|e| e.core == 1));
    assert_eq!(trace.len(), 2);
}

/// Two cores looping over different addresses in the same instruction
/// bank conflict on every fetch; the arbitration counters must show it
/// and both programs must still finish correctly.
#[test]
fn same_bank_different_address_fetches_conflict() {
    // Both in bank 0, at different offsets.
    let mut linker = Linker::new();
    linker.add_section(Section::in_bank("a", assemble_text(FETCH_A).unwrap(), 0));
    linker.add_section(Section::in_bank("b", assemble_text(FETCH_B).unwrap(), 0));
    linker.set_entry(0, "a");
    linker.set_entry(1, "b");
    let image = linker.link().unwrap();
    let mut p = Platform::new(PlatformConfig::multi_core(), &image).unwrap();
    assert_eq!(p.run(10_000).unwrap(), RunExit::AllHalted);
    let stats = p.stats();
    assert!(
        stats.im.conflicts > 50,
        "expected sustained fetch conflicts, got {}",
        stats.im.conflicts
    );
    assert_eq!(stats.im.broadcasts, 0, "different addresses never merge");
    assert!(stats.cores[0].stall_im + stats.cores[1].stall_im > 50);
    assert_eq!(p.peek_dm(0x40).unwrap(), 0);
    assert_eq!(p.peek_dm(0x41).unwrap(), 0);
}

/// Two cores hammering the same shared data bank conflict on stores;
/// correctness is preserved through retries.
#[test]
fn shared_data_bank_conflicts_retry_correctly() {
    let mut p = multi(
        vec![("a", STORE_A, 0), ("b", STORE_B, 1)],
        &[(0, "a"), (1, "b")],
    );
    assert_eq!(p.run(10_000).unwrap(), RunExit::AllHalted);
    assert!(
        p.stats().dm.conflicts > 0,
        "stores to one bank must collide"
    );
    assert_eq!(p.peek_dm(0x40).unwrap(), 7);
    assert_eq!(p.peek_dm(0x50).unwrap(), 9);
}

#[test]
fn idle_until_accounts_gated_time() {
    let mut p = multi(vec![("main", "sleep\nhalt\n", 0)], &[(0, "main")]);
    assert_eq!(p.run(1_000).unwrap(), RunExit::Quiescent);
    let before = p.stats().cycles;
    p.idle_until(50_000);
    assert_eq!(p.stats().cycles, 50_000);
    assert!(p.stats().cores[0].gated_cycles >= 50_000 - before);
    // Idling backwards is a no-op.
    p.idle_until(10);
    assert_eq!(p.stats().cycles, 50_000);
}

#[test]
fn private_out_of_range_faults() {
    // The multi-core private window is ~3 KWords; address 0x7000 is
    // beyond it (but below the MMIO window).
    let src = "lui r2, 0x70\nlw r1, 0(r2)\nhalt\n";
    let mut p = multi(vec![("main", src, 0)], &[(0, "main")]);
    let err = p.run(100).unwrap_err();
    assert!(matches!(
        err,
        wbsn_sim::SimError::Fault(wbsn_sim::Fault {
            kind: wbsn_sim::FaultKind::PrivateOutOfRange,
            ..
        })
    ));
}

#[test]
fn breakpoints_stop_before_execution_and_resume() {
    let mut p = multi(
        vec![(
            "main",
            "li r1, 1\nli r2, 2\nadd r3, r1, r2\nsw r3, 0x40(r0)\nhalt\n",
            0,
        )],
        &[(0, "main")],
    );
    // Break at the `add` (program-relative pc 2).
    p.add_breakpoint(2);
    let exit = p.run(1000).unwrap();
    assert_eq!(exit, RunExit::Breakpoint { core: 0, pc: 2 });
    // The add has not executed yet.
    assert_eq!(p.core(0).reg(wbsn_isa::Reg::R3), 0);
    assert_eq!(p.core(0).reg(wbsn_isa::Reg::R2), 2);
    // Stepping once executes it; then the run continues to completion.
    p.step().unwrap();
    assert_eq!(p.core(0).reg(wbsn_isa::Reg::R3), 3);
    assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
    assert_eq!(p.peek_dm(0x40).unwrap(), 3);
}

#[test]
fn watchpoints_stop_on_the_writing_core() {
    let a = "li r1, 7\nsw r1, 0x60(r0)\nhalt\n";
    let b = "li r1, 9\nnop\nnop\nnop\nnop\nsw r1, 0x61(r0)\nhalt\n";
    let mut p = multi(vec![("a", a, 0), ("b", b, 1)], &[(0, "a"), (1, "b")]);
    p.add_watchpoint(0x61);
    let exit = p.run(1000).unwrap();
    assert_eq!(
        exit,
        RunExit::Watchpoint {
            core: 1,
            addr: 0x61
        }
    );
    // The write itself completed.
    assert_eq!(p.peek_dm(0x61).unwrap(), 9);
    assert_eq!(p.run(1000).unwrap(), RunExit::AllHalted);
}

/// Every stalled cycle is recorded exactly once in each of the three
/// places that count stalls: the per-core `SimStats` counters, the
/// counting sink's per-cause totals and the trace ring.
#[test]
fn each_stall_cycle_is_counted_once_in_stats_obs_and_trace() {
    const RING: usize = 1 << 16;
    let scenarios: [(&[(&str, usize)], StallCause); 3] = [
        (&[(FETCH_A, 0), (FETCH_B, 0)], StallCause::ImConflict),
        (&[(STORE_A, 0), (STORE_B, 1)], StallCause::DmConflict),
        (&[(LOAD_USE, 0), (LOAD_USE, 1)], StallCause::LoadUseHazard),
    ];
    for (programs, expected) in scenarios {
        for single in [false, true] {
            let (config, programs) = if single {
                (PlatformConfig::single_core(), &programs[..1])
            } else {
                (PlatformConfig::multi_core(), programs)
            };
            let mut linker = Linker::new();
            for (core, &(src, bank)) in programs.iter().enumerate() {
                let name = format!("p{core}");
                let program = assemble_text(src).expect("assembles");
                linker.add_section(Section::in_bank(name.as_str(), program, bank));
                linker.set_entry(core, &name);
            }
            let mut p = Platform::new(config, &linker.link().expect("links")).expect("builds");
            p.enable_trace(RING, 0xFF);
            p.enable_obs(ObsConfig::counting_only());
            assert_eq!(p.run(100_000).unwrap(), RunExit::AllHalted);
            p.finish_obs();
            let trace = p.trace().expect("enabled");
            assert!(trace.len() < RING, "the ring holds every entry");
            let counting = p.obs().recorder().and_then(|r| r.counting()).expect("on");
            for cause in StallCause::ALL {
                let stats: u64 = p
                    .stats()
                    .cores
                    .iter()
                    .map(|c| match cause {
                        StallCause::ImConflict => c.stall_im,
                        StallCause::DmConflict => c.stall_dm,
                        StallCause::LoadUseHazard => c.stall_hazard,
                    })
                    .sum();
                let traced = trace
                    .entries()
                    .filter(|e| matches!(e, TraceEntry::Stall(s) if s.cause == cause))
                    .count() as u64;
                let label = format!("{cause:?}, single core: {single}");
                assert_eq!(stats, counting.stall_cycles[cause.index()], "{label}");
                assert_eq!(stats, traced, "{label}");
                if cause == expected && (!single || cause == StallCause::LoadUseHazard) {
                    assert!(stats > 0, "the scenario must stall: {label}");
                }
            }
        }
    }
}
