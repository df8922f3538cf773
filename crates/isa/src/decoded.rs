//! Predecoded instruction images for fast simulation.
//!
//! A cycle-accurate interpreter that re-decodes the 24-bit instruction
//! word on every fetch spends a large share of its time in the decoder
//! even though the instruction memory never changes after load. This
//! module decodes each word **once**, at image-load time, into a dense
//! array of [`DecodedInstr`] — the [`Instr`] plus the per-instruction
//! metadata the simulator's hot loop needs every cycle (source-register
//! mask for load-use hazard checks, memory-access class for intent
//! dispatch) — so the per-cycle work reduces to an indexed load.
//!
//! The representation is purely an acceleration: it carries exactly the
//! information of the binary words it was built from, and the simulator
//! keeps the decode-per-cycle path available (behind its `slow-decode`
//! feature) as a differential oracle.

use crate::instr::Instr;
use crate::mem::IM_WORDS;
use crate::reg::Reg;

/// What kind of data-memory access an instruction performs, fixed at
/// decode time (the effective address still depends on register state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemClass {
    /// No data-memory access.
    None,
    /// A load (`LW`).
    Load,
    /// A store (`SW`).
    Store,
}

/// One predecoded instruction: the decoded form plus hot-loop metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInstr {
    /// The decoded instruction.
    pub instr: Instr,
    /// Bit `i` set ⇔ register `r<i>` is a source operand. Used for
    /// load-use hazard detection without materializing register options.
    pub src_mask: u8,
    /// The instruction's data-memory class.
    pub mem: MemClass,
}

impl DecodedInstr {
    /// Precomputes the metadata for one instruction.
    pub fn new(instr: Instr) -> DecodedInstr {
        let mut src_mask = 0u8;
        for src in instr.sources().into_iter().flatten() {
            src_mask |= 1 << src.index();
        }
        let mem = match instr {
            Instr::Lw { .. } => MemClass::Load,
            Instr::Sw { .. } => MemClass::Store,
            _ => MemClass::None,
        };
        DecodedInstr {
            instr,
            src_mask,
            mem,
        }
    }

    /// Whether `reg` is a source operand.
    #[inline]
    pub fn reads(&self, reg: Reg) -> bool {
        self.src_mask & (1 << reg.index()) != 0
    }
}

/// A whole instruction memory predecoded into a dense array.
///
/// Every address holds either the predecoded instruction or `None` for
/// words that do not decode (uninitialized memory, data placed in the
/// instruction space); fetching such a word is an error the simulator
/// reports as a fault, exactly like the decode-per-cycle path. Only the
/// image up to its last nonzero word is stored: every later address of
/// the memory holds word 0.
#[derive(Debug, Clone)]
pub struct DecodedImage {
    /// The image up to its last nonzero word.
    slots: Box<[Option<DecodedInstr>]>,
    /// Word 0 predecoded: what every later address of the memory holds.
    zero: Option<DecodedInstr>,
}

impl DecodedImage {
    /// Predecodes a full instruction image (one `u32` word per address).
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly [`IM_WORDS`] long — the image
    /// must cover the whole memory, matching the simulator's geometry.
    pub fn from_words(words: &[u32]) -> DecodedImage {
        assert_eq!(words.len(), IM_WORDS, "image must cover the whole memory");
        let predecode = |w: u32| Instr::decode(w).ok().map(DecodedInstr::new);
        let used = words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |last| last + 1);
        DecodedImage {
            slots: words[..used].iter().map(|&w| predecode(w)).collect(),
            zero: predecode(0),
        }
    }

    /// The predecoded instruction at `addr`, or `None` when the address
    /// is out of range or the word does not decode.
    #[inline]
    pub fn get(&self, addr: u32) -> Option<&DecodedInstr> {
        match self.slots.get(addr as usize) {
            Some(slot) => slot.as_ref(),
            None if (addr as usize) < IM_WORDS => self.zero.as_ref(),
            None => None,
        }
    }

    /// Number of addresses holding a valid instruction.
    pub fn decoded_len(&self) -> usize {
        let stored = self.slots.iter().filter(|s| s.is_some()).count();
        let tail = if self.zero.is_some() {
            IM_WORDS - self.slots.len()
        } else {
            0
        };
        stored + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, BranchCond};

    #[test]
    fn src_masks_cover_operand_shapes() {
        let add = DecodedInstr::new(Instr::Alu {
            op: AluOp::Add,
            rd: Reg::R1,
            ra: Reg::R2,
            rb: Reg::R3,
        });
        assert_eq!(add.src_mask, 0b1100);
        assert!(add.reads(Reg::R2) && add.reads(Reg::R3));
        assert!(!add.reads(Reg::R1), "destination is not a source");

        let sw = DecodedInstr::new(Instr::sw(Reg::R4, Reg::R5, 0));
        assert_eq!(sw.src_mask, 0b11_0000);
        assert_eq!(sw.mem, MemClass::Store);

        let lw = DecodedInstr::new(Instr::lw(Reg::R1, Reg::R0, 4));
        assert_eq!(lw.mem, MemClass::Load);
        assert!(lw.reads(Reg::R0));

        let nop = DecodedInstr::new(Instr::Nop);
        assert_eq!(nop.src_mask, 0);
        assert_eq!(nop.mem, MemClass::None);
    }

    #[test]
    fn branch_sources_are_both_operands() {
        let b = DecodedInstr::new(Instr::Branch {
            cond: BranchCond::Eq,
            ra: Reg::R6,
            rb: Reg::R7,
            off: -2,
        });
        assert_eq!(b.src_mask, 0b1100_0000);
    }

    #[test]
    fn image_predecodes_valid_words_and_flags_bad_ones() {
        let mut words = vec![0u32; IM_WORDS];
        words[0] = Instr::Nop.encode().unwrap();
        words[1] = Instr::add(Reg::R1, Reg::R2, Reg::R3).encode().unwrap();
        words[2] = 0x00FF_FFFF; // does not decode
        let image = DecodedImage::from_words(&words);
        assert_eq!(image.get(0).unwrap().instr, Instr::Nop);
        assert_eq!(
            image.get(1).unwrap().instr,
            Instr::add(Reg::R1, Reg::R2, Reg::R3)
        );
        assert!(image.get(2).is_none());
        assert!(image.get(IM_WORDS as u32).is_none(), "out of range");
    }

    #[test]
    fn addresses_past_the_last_nonzero_word_hold_word_zero() {
        for last in [None, Some(0), Some(5), Some(IM_WORDS - 1)] {
            let mut words = vec![0u32; IM_WORDS];
            if let Some(last) = last {
                words[last] = Instr::add(Reg::R1, Reg::R2, Reg::R3).encode().unwrap();
            }
            let image = DecodedImage::from_words(&words);
            for (addr, &word) in words.iter().enumerate() {
                let expected = Instr::decode(word).ok();
                assert_eq!(image.get(addr as u32).map(|d| d.instr), expected, "@{addr}");
            }
            assert_eq!(image.get(IM_WORDS as u32), None, "out of range");
            let valid = words.iter().filter(|&&w| Instr::decode(w).is_ok()).count();
            assert_eq!(image.decoded_len(), valid);
        }
    }

    #[test]
    fn predecode_matches_per_word_decode_everywhere() {
        // Whatever the word, the predecoded slot agrees with Instr::decode.
        let mut words = vec![0u32; IM_WORDS];
        for (i, w) in words.iter_mut().enumerate().take(4096) {
            *w = (i as u32).wrapping_mul(0x9E37) & crate::mem::INSTR_MASK;
        }
        let image = DecodedImage::from_words(&words);
        for (addr, &word) in words.iter().enumerate().take(4096) {
            match Instr::decode(word) {
                Ok(instr) => assert_eq!(image.get(addr as u32).unwrap().instr, instr, "@{addr}"),
                Err(_) => assert!(image.get(addr as u32).is_none(), "@{addr}"),
            }
        }
    }
}
