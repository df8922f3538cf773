//! Building your *own* application on the platform — the complete
//! methodology, end to end, on something that is not one of the paper's
//! benchmarks: a two-channel activity monitor where two acquisition
//! phases compute per-channel moving averages and a third phase raises
//! an alarm when both channels exceed a threshold simultaneously.
//!
//! The walk-through mirrors §III-B of the paper:
//! 1. partition the application into phases (task graph),
//! 2. map phases onto cores, banks and synchronization points,
//! 3. generate the phase code with the insertion rules applied,
//! 4. link, load and run.
//!
//! Run with: `cargo run --release --example custom_app`

use wbsn::core::{Mapper, Phase, TaskGraph};
use wbsn::isa::{BranchCond, Instr, Linker, ProgramBuilder, Reg, Section};
use wbsn::sim::mmio::{ADC_DATA_BASE, ADC_SEQ_BASE, SYNC_SUBSCRIBE};
use wbsn::sim::{Platform, PlatformConfig};

const WINDOW: i16 = 8; // moving-average window (power of two)
const THRESHOLD: i16 = 120; // alarm threshold on the channel averages
const AVG_BASE: u32 = 0x100; // shared: per-channel averages
const ALARM_COUNT: u32 = 0x102; // shared: number of alarms raised
const SAMPLE_COUNT: u32 = 0x103; // shared: samples processed by channel 0

/// Step 3a: the acquisition phase — identical binary for both channels,
/// parameterized by the CORE_ID register exactly like the paper's
/// lock-step groups.
fn build_averager(consume_point: u16, lockstep_point: u16) -> wbsn::isa::Program {
    let mut b = ProgramBuilder::new();
    // Private layout: 0 = last_seq, 1 = running sum, 2.. = pointers.
    b.load_const(Reg::R0, 0);
    b.load_const(Reg::R6, 0x1800); // private base
                                   // ch = CORE_ID; precompute &ADC_SEQ[ch], &ADC_DATA[ch], &avg[ch].
    b.load_const(Reg::R2, 0x7F22); // CORE_ID
    b.push(Instr::lw(Reg::R5, Reg::R2, 0));
    b.load_const(Reg::R2, ADC_SEQ_BASE as u16);
    b.push(Instr::add(Reg::R2, Reg::R2, Reg::R5));
    b.push(Instr::sw(Reg::R2, Reg::R6, 2));
    b.load_const(Reg::R2, ADC_DATA_BASE as u16);
    b.push(Instr::add(Reg::R2, Reg::R2, Reg::R5));
    b.push(Instr::sw(Reg::R2, Reg::R6, 3));
    b.load_const(Reg::R2, AVG_BASE as u16);
    b.push(Instr::add(Reg::R2, Reg::R2, Reg::R5));
    b.push(Instr::sw(Reg::R2, Reg::R6, 4));
    // Subscribe to the channel's data-ready interrupt.
    b.load_const(Reg::R2, 1);
    b.push(Instr::Alu {
        op: wbsn::isa::AluOp::Sll,
        rd: Reg::R2,
        ra: Reg::R2,
        rb: Reg::R5,
    });
    b.load_const(Reg::R3, SYNC_SUBSCRIBE as u16);
    b.push(Instr::sw(Reg::R2, Reg::R3, 0));

    b.label("loop").expect("unique label");
    b.push(Instr::Sleep);
    // Fresh sample?
    b.push(Instr::lw(Reg::R2, Reg::R6, 2));
    b.push(Instr::lw(Reg::R1, Reg::R2, 0));
    b.push(Instr::lw(Reg::R3, Reg::R6, 0));
    b.branch_to(BranchCond::Eq, Reg::R1, Reg::R3, "loop");
    b.push(Instr::sw(Reg::R1, Reg::R6, 0));
    // Insertion rule: producers SINC when they start computing, and the
    // lock-step pair re-aligns through its barrier point.
    b.push(Instr::sinc(consume_point));
    b.push(Instr::sinc(lockstep_point));
    // Exponential moving average: sum += x - sum/WINDOW; avg = sum/WINDOW.
    b.push(Instr::lw(Reg::R2, Reg::R6, 3));
    b.push(Instr::lw(Reg::R1, Reg::R2, 0)); // x
    b.push(Instr::lw(Reg::R2, Reg::R6, 1)); // sum
    b.push(Instr::srai(
        Reg::R3,
        Reg::R2,
        WINDOW.trailing_zeros() as i16,
    ));
    b.push(Instr::sub(Reg::R2, Reg::R2, Reg::R3));
    b.push(Instr::add(Reg::R2, Reg::R2, Reg::R1));
    b.push(Instr::sw(Reg::R2, Reg::R6, 1));
    b.push(Instr::srai(
        Reg::R1,
        Reg::R2,
        WINDOW.trailing_zeros() as i16,
    ));
    b.push(Instr::lw(Reg::R2, Reg::R6, 4));
    b.push(Instr::sw(Reg::R1, Reg::R2, 0)); // publish avg[ch]
                                            // Barrier, then signal the consumer.
    b.push(Instr::sdec(lockstep_point));
    b.push(Instr::Sleep);
    b.push(Instr::sdec(consume_point));
    b.jmp_to("loop");
    b.assemble().expect("averager assembles")
}

/// Step 3b: the alarm phase — the consumer: SNOP + SLEEP, then compare
/// both averages against the threshold.
fn build_alarm(consume_point: u16) -> wbsn::isa::Program {
    let mut b = ProgramBuilder::new();
    b.load_const(Reg::R0, 0);
    b.label("loop").expect("unique label");
    b.push(Instr::snop(consume_point));
    b.push(Instr::Sleep);
    b.load_const(Reg::R2, AVG_BASE as u16);
    b.push(Instr::lw(Reg::R1, Reg::R2, 0));
    b.push(Instr::lw(Reg::R3, Reg::R2, 1));
    // Count processed rounds.
    b.load_const(Reg::R2, SAMPLE_COUNT as u16);
    b.push(Instr::lw(Reg::R4, Reg::R2, 0));
    b.push(Instr::addi(Reg::R4, Reg::R4, 1));
    b.push(Instr::sw(Reg::R4, Reg::R2, 0));
    // Alarm when min(avg0, avg1) > THRESHOLD.
    b.push(Instr::min(Reg::R1, Reg::R1, Reg::R3));
    b.load_const_i16(Reg::R3, THRESHOLD);
    b.branch_to(BranchCond::Ge, Reg::R3, Reg::R1, "loop"); // below threshold
    b.load_const(Reg::R2, ALARM_COUNT as u16);
    b.push(Instr::lw(Reg::R4, Reg::R2, 0));
    b.push(Instr::addi(Reg::R4, Reg::R4, 1));
    b.push(Instr::sw(Reg::R4, Reg::R2, 0));
    b.jmp_to("loop");
    b.assemble().expect("alarm assembles")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 1: partition.
    let mut graph = TaskGraph::new();
    let avg0 = graph.add_phase(Phase::acquire("avg0", 0))?;
    let avg1 = graph.add_phase(Phase::acquire("avg1", 1))?;
    let alarm = graph.add_phase(Phase::compute("alarm"))?;
    graph.add_edge(avg0, alarm)?;
    graph.add_edge(avg1, alarm)?;
    graph.add_lockstep_group(&[avg0, avg1])?;

    // Step 2: map.
    let plan = Mapper::new(8, 8, 16).map(&graph)?;
    let consume = plan.consume_point(alarm).expect("alarm has producers");
    let lockstep = plan.lockstep_point(avg0).expect("group has a barrier");
    println!(
        "mapping: {} cores, {} IM banks, {} sync points (consume {consume}, barrier {lockstep})",
        plan.cores_used(),
        plan.banks_used(),
        plan.points_used()
    );

    // Step 3 + 4: generate, link, load.
    let mut linker = Linker::new();
    linker.add_section(Section::in_bank(
        "averager",
        build_averager(consume, lockstep),
        plan.bank_of(avg0),
    ));
    linker.add_section(Section::in_bank(
        "alarm",
        build_alarm(consume),
        plan.bank_of(alarm),
    ));
    linker.set_entry(plan.core_of(avg0).index(), "averager");
    linker.set_entry(plan.core_of(avg1).index(), "averager");
    linker.set_entry(plan.core_of(alarm).index(), "alarm");
    let image = linker.link()?;

    let mut config = PlatformConfig::multi_core();
    config.adc.channels = 2;
    config.adc.period_cycles = 2_000;
    let mut platform = Platform::new(config, &image)?;

    // Two synthetic activity channels: quiet, then a joint burst.
    let n = 2_000usize;
    let channel = |phase: usize| -> Vec<i16> {
        (0..n)
            .map(|i| {
                let base = if (800..1400).contains(&i) { 200 } else { 40 };
                base + ((i * 7 + phase * 13) % 11) as i16
            })
            .collect()
    };
    platform.set_adc_streams(vec![channel(0), channel(1)])?;
    platform.run(2_000 * (n as u64 + 4))?;

    let rounds = platform.peek_dm(SAMPLE_COUNT)?;
    let alarms = platform.peek_dm(ALARM_COUNT)?;
    let stats = platform.stats();
    println!("rounds processed : {rounds}");
    println!("alarms raised    : {alarms}");
    println!(
        "avg0 {} / avg1 {} (final)",
        platform.peek_dm(AVG_BASE)? as i16,
        platform.peek_dm(AVG_BASE + 1)? as i16
    );
    println!(
        "IM broadcast {:.1}%  |  alarm-core duty {:.2}%  |  sync overhead {:.2}%",
        stats.im.broadcast_percent(),
        100.0 * stats.cores[plan.core_of(alarm).index()].duty_cycle(),
        stats.runtime_overhead_percent()
    );
    assert!(alarms > 0, "the joint burst must raise alarms");
    assert!(rounds as usize >= n - 2);
    Ok(())
}
