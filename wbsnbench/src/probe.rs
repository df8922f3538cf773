//! Host-speed probe: a fixed loop of the benchmark's own, timed next to
//! the program's work so host noise can be divided out of `wall_s`.
//!
//! On a shared host the same pass runs 30–50 % slower for seconds to
//! minutes at a time while other tenants load the machine. The probe
//! is a tiny register-machine interpreter (jump-table dispatch, a 32 KiB
//! scratch memory), the same kind of work as the simulator's cycle loop,
//! so it slows down with it. It touches no code of the repository, so a
//! change to the program under test leaves the probe's time unchanged.

use std::hint::black_box;
use std::time::Instant;

/// Interpreted instructions per probe; about 50 ms on a 2.1 GHz Xeon.
const STEPS: u64 = 20_000_000;

/// The probe's time, in seconds, that defines the reference host speed:
/// scaled times are the seconds the work would take on a host where one
/// probe takes exactly this long.
pub const NOMINAL_S: f64 = 0.05;

/// The probe's result; a different value means the loop was miscompiled.
const CHECKSUM: u64 = 0x4f17_1eb5_f8fe_33ed;

/// Runs the probe once and checks its result.
pub fn check() -> Result<(), String> {
    let sum = interpret(black_box(STEPS));
    if sum != CHECKSUM {
        return Err(format!("probe checksum {sum:#x}, expected {CHECKSUM:#x}"));
    }
    Ok(())
}

/// Runs the probe once and returns its host seconds.
pub fn seconds() -> f64 {
    let start = Instant::now();
    black_box(interpret(black_box(STEPS)));
    start.elapsed().as_secs_f64()
}

/// `seconds` measured between probes that took `before` and `after`,
/// scaled to the reference host speed.
pub fn scale(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * NOMINAL_S / ((before + after) / 2.0)
}

fn interpret(steps: u64) -> u64 {
    let mut program = [0u32; 256];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for word in program.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *word = x as u32;
    }
    let mut regs = [0u64; 16];
    let mut mem = vec![0u64; 4096];
    let mut pc = 0usize;
    for _ in 0..steps {
        let w = program[pc & 255];
        let (a, b, c) = (
            (w >> 3) as usize & 15,
            (w >> 7) as usize & 15,
            (w >> 11) as usize & 15,
        );
        match w & 7 {
            0 => regs[a] = regs[b].wrapping_add(regs[c]),
            1 => regs[a] = regs[b] ^ (regs[c] << 1),
            2 => regs[a] = mem[regs[b] as usize & 4095],
            3 => mem[regs[b] as usize & 4095] = regs[c],
            4 => regs[a] = regs[b].wrapping_mul(regs[c] | 1),
            5 => {
                if regs[b] & 1 == 0 {
                    pc = pc.wrapping_add(w as usize >> 16);
                }
            }
            6 => regs[a] = regs[b].rotate_left(7).wrapping_add(u64::from(w)),
            _ => regs[a] = regs[a].wrapping_sub(regs[c]),
        }
        pc = pc.wrapping_add(1);
    }
    regs.iter().fold(mem[7], |acc, r| acc.rotate_left(5) ^ r)
}
