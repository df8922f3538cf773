//! Command-line platform runner: load a WBSN image and execute it.
//!
//! ```text
//! USAGE: wbsn-run [OPTIONS] <image.img>
//!
//!   --single-core        decoder baseline (default: 8-core platform)
//!   --forwarding         model a memory→execute bypass: back-to-back
//!                        load-use pairs cost no hazard stall
//!   --cycles <N>         cycle budget (default: 1,000,000)
//!   --check              statically verify the image's synchronization
//!                        protocol before running; violations abort
//!   --watchdog-cycles N  arm the runtime watchdog: a deadlock or N
//!                        cycles without progress exits with a
//!                        post-mortem dump instead of hanging
//!   --dump <addr:len>    print a data-memory range after the run (repeatable)
//!   --trace <N>          keep and print the last N retirements, stalled
//!                        cycles and synchronizer/power/phase/ADC events
//!   --break <pc>         stop when any core is about to execute pc (repeatable)
//!   --watch <addr>       stop after any core writes addr (repeatable)
//!   --trace-json <path>  write a Chrome/Perfetto trace_event timeline
//!                        (open it in ui.perfetto.dev)
//!   --profile            print the per-(core, phase) cycle attribution
//!                        table and event-stream summary after the run
//!   --stats-json <path>  write SimStats + SyncStats as stable JSON
//! ```

use std::process::ExitCode;

use wbsn::core::mapping::verify::{verify_image, VerifyConfig};
use wbsn::isa::{image, PhaseTable};
use wbsn::sim::{stats_json, ObsConfig, Platform, PlatformConfig, StallCause};

fn usage() -> ExitCode {
    eprintln!(
        "usage: wbsn-run [--single-core] [--forwarding] [--cycles N] [--check] [--watchdog-cycles N] [--dump addr:len]... [--trace N] [--break pc]... [--watch addr]... [--trace-json path] [--profile] [--stats-json path] <image.img>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut single_core = false;
    let mut forwarding = false;
    let mut cycles: u64 = 1_000_000;
    let mut check = false;
    let mut watchdog: Option<u64> = None;
    let mut dumps: Vec<(u32, u32)> = Vec::new();
    let mut trace: Option<usize> = None;
    let mut breakpoints: Vec<u32> = Vec::new();
    let mut watchpoints: Vec<u32> = Vec::new();
    let mut trace_json: Option<String> = None;
    let mut profile = false;
    let mut stats_json_path: Option<String> = None;
    let mut input: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--single-core" => single_core = true,
            "--forwarding" => forwarding = true,
            "--check" => check = true,
            "--cycles" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => cycles = n,
                None => return usage(),
            },
            "--watchdog-cycles" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => watchdog = Some(n),
                None => return usage(),
            },
            "--trace" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => trace = Some(n),
                None => return usage(),
            },
            "--break" => match args.next().and_then(|v| parse_int(&v).ok()) {
                Some(pc) => breakpoints.push(pc),
                None => return usage(),
            },
            "--watch" => match args.next().and_then(|v| parse_int(&v).ok()) {
                Some(addr) => watchpoints.push(addr),
                None => return usage(),
            },
            "--dump" => {
                let Some(spec) = args.next() else {
                    return usage();
                };
                let Some((addr, len)) = spec.split_once(':') else {
                    return usage();
                };
                match (parse_int(addr), parse_int(len)) {
                    (Ok(a), Ok(l)) => dumps.push((a, l)),
                    _ => return usage(),
                }
            }
            "--trace-json" => match args.next() {
                Some(path) => trace_json = Some(path),
                None => return usage(),
            },
            "--profile" => profile = true,
            "--stats-json" => match args.next() {
                Some(path) => stats_json_path = Some(path),
                None => return usage(),
            },
            "-h" | "--help" => return usage(),
            path => input = Some(path.to_string()),
        }
    }
    let Some(input) = input else { return usage() };

    let bytes = match std::fs::read(&input) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("wbsn-run: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let linked = match image::from_bytes(&bytes) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("wbsn-run: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = if single_core {
        PlatformConfig::single_core()
    } else {
        PlatformConfig::multi_core()
    };
    if check {
        let verify_config = VerifyConfig::new(config.sync_points as u16);
        match verify_image(&linked, &verify_config) {
            Ok(diags) if diags.is_empty() => {
                println!("check: synchronization protocol OK");
            }
            Ok(diags) => {
                for diag in &diags {
                    eprintln!("wbsn-run: check: {diag}");
                }
                eprintln!(
                    "wbsn-run: {input}: {} synchronization protocol violation(s)",
                    diags.len()
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("wbsn-run: check: {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut platform = match Platform::new(config, &linked) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("wbsn-run: {e}");
            return ExitCode::FAILURE;
        }
    };
    platform.set_forwarding(forwarding);
    if let Some(stall_cycles) = watchdog {
        platform.set_watchdog(stall_cycles);
    }
    for pc in breakpoints {
        platform.add_breakpoint(pc);
    }
    for addr in watchpoints {
        platform.add_watchpoint(addr);
    }
    if profile || trace_json.is_some() || trace.is_some() {
        platform.enable_obs(ObsConfig {
            counting: profile,
            profile,
            trace: trace_json.is_some(),
            ring: trace.unwrap_or(256),
            phases: Some(PhaseTable::from_image(&linked)),
        });
    }

    match platform.run(cycles) {
        Ok(exit) => {
            let stats = platform.stats();
            println!("exit: {exit:?} after {} cycles", stats.cycles);
            for (core, cs) in stats.cores.iter().enumerate() {
                if cs.instructions == 0 {
                    continue;
                }
                println!(
                    "core {core}: {} instructions, {} active / {} gated cycles, duty {:.1}%",
                    cs.instructions,
                    cs.active_cycles,
                    cs.gated_cycles,
                    100.0 * cs.duty_cycle()
                );
            }
            let sync = platform.synchronizer().stats();
            println!(
                "IM accesses {} (broadcast {:.1}%), DM accesses {}, sync fires {}",
                stats.im.accesses(),
                stats.im.broadcast_percent(),
                stats.dm.accesses(),
                sync.fires
            );
            if sync.lost_wakes > 0 || sync.invariant_faults > 0 {
                println!(
                    "sync detectors: {} lost wake(s), {} counter invariant fault(s)",
                    sync.lost_wakes, sync.invariant_faults
                );
            }
        }
        Err(e) => {
            eprintln!("wbsn-run: {e}");
            if trace.is_some() {
                eprintln!("--- last events ---");
                for line in ring_lines(&platform) {
                    eprintln!("{line}");
                }
            }
            // A partial timeline is still worth opening in Perfetto:
            // flush whatever the recorder saw before the failure.
            platform.finish_obs();
            if let Some(path) = &trace_json {
                if let Err(code) = write_trace_json(&platform, path) {
                    return code;
                }
            }
            return ExitCode::FAILURE;
        }
    }
    platform.finish_obs();
    if let Some(path) = &trace_json {
        if let Err(code) = write_trace_json(&platform, path) {
            return code;
        }
    }
    if profile {
        print_profile(&platform);
    }
    if let Some(path) = &stats_json_path {
        let json = stats_json(platform.stats(), &platform.synchronizer().stats());
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("wbsn-run: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("stats-json: wrote {path}");
    }

    for (addr, len) in dumps {
        print!("dm[{addr:#06x}..{:#06x}]:", addr + len);
        for offset in 0..len {
            match platform.peek_dm(addr + offset) {
                Ok(word) => print!(" {word:#06x}"),
                Err(_) => print!(" ????"),
            }
        }
        println!();
    }
    if trace.is_some() {
        println!("--- last events ---");
        for line in ring_lines(&platform) {
            println!("{line}");
        }
    }
    ExitCode::SUCCESS
}

/// The recorder's ring, one `[cycle] entry` line each, oldest first.
fn ring_lines(platform: &Platform) -> Vec<String> {
    platform
        .obs()
        .recorder()
        .map_or_else(Vec::new, |r| r.tail_rendered(usize::MAX))
}

fn write_trace_json(platform: &Platform, path: &str) -> Result<(), ExitCode> {
    let Some(json) = platform.obs().recorder().and_then(|r| r.trace_json()) else {
        return Ok(());
    };
    let events = platform
        .obs()
        .recorder()
        .and_then(|r| r.trace_sink())
        .map_or(0, |s| s.len());
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("wbsn-run: cannot write {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    println!("trace-json: wrote {events} events to {path}");
    Ok(())
}

fn print_profile(platform: &Platform) {
    let Some(recorder) = platform.obs().recorder() else {
        return;
    };
    if let Some(profiler) = recorder.profiler() {
        println!("--- phase profile ---");
        print!("{}", profiler.render());
    }
    if let Some(counting) = recorder.counting() {
        println!("--- event summary ---");
        let s = counting.summary();
        println!(
            "sleeps: {} (p50 {} / p99 {} cycles), sync gap p50 {} / p99 {} cycles",
            s.sleep_count,
            s.sleep_p50_cycles,
            s.sleep_p99_cycles,
            s.sync_gap_p50_cycles,
            s.sync_gap_p99_cycles
        );
        let stats = platform.stats();
        let stalls = StallCause::ALL.map(|cause| (cause, stats.stall_cycles(cause)));
        let [(_, im), (_, dm), (_, hazard)] = stalls;
        println!(
            "stalls: im {im} / dm {dm} / hazard {hazard} cycles (run p99 {})",
            s.stall_run_p99_cycles
        );
        if let Some((cause, cycles)) = stalls
            .into_iter()
            .max_by_key(|&(_, cycles)| cycles)
            .filter(|&(_, cycles)| cycles > 0)
        {
            println!("worst stall cause: {cause} ({cycles} cycles)");
        }
        let sync = platform.synchronizer().stats();
        println!(
            "releases {}, merges saved {}, fallthroughs {}, adc samples {}, irq wakes {}",
            sync.fires, sync.merged, sync.fallthroughs, stats.adc_samples, sync.irq_wakes
        );
    }
}

fn parse_int(text: &str) -> Result<u32, std::num::ParseIntError> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u32::from_str_radix(hex, 16),
        None => text.parse(),
    }
}
