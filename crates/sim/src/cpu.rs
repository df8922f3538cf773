//! One 16-bit RISC core: register file, program counter and retirement
//! semantics.
//!
//! Timing (stalls, bubbles, arbitration) is handled by the platform's
//! cycle loop; the [`Core`] itself is the architectural state plus the
//! pure retirement function. The three-stage pipeline with forwarding is
//! modelled by its visible timing effects: one instruction per cycle, a
//! one-cycle bubble after taken control transfers, and a one-cycle
//! load-use stall when an instruction consumes the register loaded by the
//! immediately preceding `LW`.

use wbsn_isa::{Instr, Reg, SyncKind};

use crate::exec::{abs16, alu, alu_imm};

/// What the platform must do after a core retires an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retire {
    /// Plain sequential retirement.
    Next,
    /// A control transfer was taken (the platform charges the fetch
    /// bubble).
    Taken,
    /// A synchronization instruction must be submitted to the
    /// synchronizer.
    Sync {
        /// Which point update to perform.
        kind: SyncKind,
        /// Target synchronization point.
        point: u16,
    },
    /// The core requests clock gating.
    Sleep,
    /// The core halted.
    Halt,
}

/// A data-memory intention derived from an instruction before execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemIntent {
    /// Load from `addr` into the instruction's destination.
    Load {
        /// Core-visible word address.
        addr: u32,
    },
    /// Store `value` to `addr`.
    Store {
        /// Core-visible word address.
        addr: u32,
        /// The 16-bit value to store.
        value: u16,
    },
}

/// Architectural state of one core.
#[derive(Debug, Clone)]
pub struct Core {
    id: usize,
    regs: [u16; 8],
    pc: u32,
    halted: bool,
    gated: bool,
    /// Destination of the immediately preceding load, for load-use
    /// hazard detection.
    hazard: Option<Reg>,
}

impl Core {
    /// Creates a core starting at `entry`.
    pub fn new(id: usize, entry: u32) -> Core {
        Core {
            id,
            regs: [0; 8],
            pc: entry,
            halted: false,
            gated: false,
            hazard: None,
        }
    }

    /// The core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u16 {
        self.regs[r.index()]
    }

    /// Writes a register (used by loaders and tests).
    pub fn set_reg(&mut self, r: Reg, value: u16) {
        self.regs[r.index()] = value;
    }

    /// Whether the core has executed `HALT`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether the core is clock-gated.
    pub fn is_gated(&self) -> bool {
        self.gated
    }

    /// Updates the clock-gating state (driven by the synchronizer).
    pub fn set_gated(&mut self, gated: bool) {
        self.gated = gated;
    }

    /// Whether `instr` would consume the register loaded by the
    /// immediately preceding `LW` (a one-cycle stall, unless the
    /// platform models a memory→execute bypass — see
    /// `PlatformConfig::forwarding`).
    pub fn has_load_use_hazard(&self, instr: &Instr) -> bool {
        match self.hazard {
            Some(dest) => instr.sources().iter().flatten().any(|&s| s == dest),
            None => false,
        }
    }

    /// Mask form of [`Core::has_load_use_hazard`], for predecoded
    /// instructions: `src_mask` has bit `i` set when register `r<i>` is
    /// a source operand (see [`wbsn_isa::DecodedInstr::src_mask`]).
    #[inline]
    pub fn has_load_use_hazard_mask(&self, src_mask: u8) -> bool {
        match self.hazard {
            Some(dest) => src_mask & (1 << dest.index()) != 0,
            None => false,
        }
    }

    /// Clears the hazard latch (the stall was charged).
    pub fn clear_hazard(&mut self) {
        self.hazard = None;
    }

    /// The instruction's data-memory intention, with the effective
    /// address computed from current register state.
    pub fn mem_intent(&self, instr: &Instr) -> Option<MemIntent> {
        match *instr {
            Instr::Lw { ra, off, .. } => Some(MemIntent::Load {
                addr: effective_addr(self.reg(ra), off),
            }),
            Instr::Sw { rs, ra, off } => Some(MemIntent::Store {
                addr: effective_addr(self.reg(ra), off),
                value: self.reg(rs),
            }),
            _ => None,
        }
    }

    /// Retires `instr`, updating registers and the program counter.
    ///
    /// `load_value` must carry the loaded word for `LW` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `instr` is a load but `load_value` is `None` (the
    /// platform resolves memory before retiring).
    ///
    /// Always inlined: both cycle drivers retire through it, and as an
    /// out-of-line call it costs the lone-core path about a tenth of its
    /// time.
    #[inline(always)]
    pub fn retire(&mut self, instr: Instr, load_value: Option<u16>) -> Retire {
        let next_pc = self.pc + 1;
        self.hazard = None;
        let retire = match instr {
            Instr::Nop => Retire::Next,
            Instr::Halt => {
                self.halted = true;
                Retire::Halt
            }
            Instr::Sleep => Retire::Sleep,
            Instr::Sync { kind, point } => Retire::Sync { kind, point },
            Instr::Alu { op, rd, ra, rb } => {
                self.regs[rd.index()] = alu(op, self.reg(ra), self.reg(rb));
                Retire::Next
            }
            Instr::Mov { rd, ra } => {
                self.regs[rd.index()] = self.reg(ra);
                Retire::Next
            }
            Instr::Abs { rd, ra } => {
                self.regs[rd.index()] = abs16(self.reg(ra));
                Retire::Next
            }
            Instr::AluImm { op, rd, ra, imm } => {
                self.regs[rd.index()] = alu_imm(op, self.reg(ra), imm);
                Retire::Next
            }
            Instr::Li { rd, imm } => {
                self.regs[rd.index()] = imm as u16;
                Retire::Next
            }
            Instr::Lui { rd, imm } => {
                self.regs[rd.index()] = (imm as u16) << 8;
                Retire::Next
            }
            Instr::Lw { rd, .. } => {
                let value = load_value.expect("platform resolves loads before retiring");
                self.regs[rd.index()] = value;
                self.hazard = Some(rd);
                Retire::Next
            }
            Instr::Sw { .. } => Retire::Next,
            Instr::Branch { cond, ra, rb, off } => {
                if cond.eval(self.reg(ra), self.reg(rb)) {
                    self.pc = add_offset(next_pc, off as i32);
                    return Retire::Taken;
                }
                Retire::Next
            }
            Instr::Jmp { off } => {
                self.pc = add_offset(next_pc, off);
                return Retire::Taken;
            }
            Instr::Jal { rd, off } => {
                self.regs[rd.index()] = next_pc as u16;
                self.pc = add_offset(next_pc, off as i32);
                return Retire::Taken;
            }
            Instr::Jr { ra } => {
                self.pc = self.reg(ra) as u32;
                return Retire::Taken;
            }
        };
        self.pc = next_pc;
        retire
    }
}

#[inline]
fn effective_addr(base: u16, off: i16) -> u32 {
    base.wrapping_add(off as u16) as u32
}

#[inline]
fn add_offset(pc: u32, off: i32) -> u32 {
    (pc as i64 + off as i64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_isa::BranchCond;

    fn core() -> Core {
        Core::new(0, 0x100)
    }

    #[test]
    fn sequential_retirement_advances_pc() {
        let mut c = core();
        assert_eq!(c.retire(Instr::Nop, None), Retire::Next);
        assert_eq!(c.pc(), 0x101);
    }

    #[test]
    fn alu_writes_destination() {
        let mut c = core();
        c.set_reg(Reg::R2, 20);
        c.set_reg(Reg::R3, 22);
        c.retire(Instr::add(Reg::R1, Reg::R2, Reg::R3), None);
        assert_eq!(c.reg(Reg::R1), 42);
    }

    #[test]
    fn branch_taken_and_not_taken() {
        let mut c = core();
        c.set_reg(Reg::R1, 1);
        let taken = c.retire(
            Instr::Branch {
                cond: BranchCond::Ne,
                ra: Reg::R1,
                rb: Reg::R0,
                off: 10,
            },
            None,
        );
        assert_eq!(taken, Retire::Taken);
        assert_eq!(c.pc(), 0x100 + 1 + 10);

        let pc = c.pc();
        let not_taken = c.retire(
            Instr::Branch {
                cond: BranchCond::Eq,
                ra: Reg::R1,
                rb: Reg::R0,
                off: 10,
            },
            None,
        );
        assert_eq!(not_taken, Retire::Next);
        assert_eq!(c.pc(), pc + 1);
    }

    #[test]
    fn backward_branch() {
        let mut c = core();
        c.set_reg(Reg::R1, 1);
        c.retire(
            Instr::Branch {
                cond: BranchCond::Ne,
                ra: Reg::R1,
                rb: Reg::R0,
                off: -5,
            },
            None,
        );
        assert_eq!(c.pc(), 0x100 + 1 - 5);
    }

    #[test]
    fn jal_links_and_jr_returns() {
        let mut c = core();
        c.retire(
            Instr::Jal {
                rd: Reg::R7,
                off: 50,
            },
            None,
        );
        assert_eq!(c.reg(Reg::R7), 0x101);
        assert_eq!(c.pc(), 0x101 + 50);
        c.retire(Instr::Jr { ra: Reg::R7 }, None);
        assert_eq!(c.pc(), 0x101);
    }

    #[test]
    fn load_sets_hazard_and_next_user_stalls() {
        let mut c = core();
        c.retire(Instr::lw(Reg::R1, Reg::R0, 4), Some(99));
        assert_eq!(c.reg(Reg::R1), 99);
        assert!(c.has_load_use_hazard(&Instr::add(Reg::R2, Reg::R1, Reg::R0)));
        assert!(!c.has_load_use_hazard(&Instr::add(Reg::R2, Reg::R3, Reg::R4)));
        // The mask form agrees with the register form.
        use wbsn_isa::DecodedInstr;
        let dep = DecodedInstr::new(Instr::add(Reg::R2, Reg::R1, Reg::R0));
        let indep = DecodedInstr::new(Instr::add(Reg::R2, Reg::R3, Reg::R4));
        assert!(c.has_load_use_hazard_mask(dep.src_mask));
        assert!(!c.has_load_use_hazard_mask(indep.src_mask));
        // A non-dependent retire clears the latch.
        c.retire(Instr::Nop, None);
        assert!(!c.has_load_use_hazard(&Instr::add(Reg::R2, Reg::R1, Reg::R0)));
    }

    #[test]
    fn mem_intents_compute_effective_addresses() {
        let mut c = core();
        c.set_reg(Reg::R2, 100);
        c.set_reg(Reg::R4, 7);
        assert_eq!(
            c.mem_intent(&Instr::lw(Reg::R1, Reg::R2, -4)),
            Some(MemIntent::Load { addr: 96 })
        );
        assert_eq!(
            c.mem_intent(&Instr::sw(Reg::R4, Reg::R2, 4)),
            Some(MemIntent::Store {
                addr: 104,
                value: 7
            })
        );
        assert_eq!(c.mem_intent(&Instr::Nop), None);
    }

    #[test]
    fn halt_is_sticky() {
        let mut c = core();
        assert_eq!(c.retire(Instr::Halt, None), Retire::Halt);
        assert!(c.is_halted());
    }

    #[test]
    fn sync_and_sleep_are_forwarded() {
        let mut c = core();
        assert_eq!(
            c.retire(Instr::sinc(3), None),
            Retire::Sync {
                kind: SyncKind::Inc,
                point: 3
            }
        );
        assert_eq!(c.retire(Instr::Sleep, None), Retire::Sleep);
        assert_eq!(c.pc(), 0x102);
    }
}
