//! Linear-sweep disassembler for EVM bytecode.

use crate::opcode::Opcode;
use crate::word::U256;
use std::fmt;
use std::ops::Deref;

/// The immediate bytes of one instruction, stored inline.
///
/// Holds at most 32 bytes (a `PUSH32`'s) and dereferences to the bytes
/// present, so decoding an instruction never allocates.
#[derive(Clone, Copy, Default)]
pub struct Immediate {
    len: u8,
    // Only the first `len` bytes are meaningful.
    bytes: [u8; 32],
}

impl Immediate {
    /// Copies `bytes` into an inline immediate.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than 32 bytes.
    pub fn new(bytes: &[u8]) -> Self {
        let mut imm = Immediate {
            len: bytes.len() as u8,
            bytes: [0; 32],
        };
        imm.bytes[..bytes.len()].copy_from_slice(bytes);
        imm
    }

    /// The `len` immediate bytes at `code[start..]`, all present. Away
    /// from the end of the code this is one fixed-size copy of 32 bytes.
    fn read(code: &[u8], start: usize, len: usize) -> Self {
        match code.get(start..start + 32) {
            Some(window) => Immediate {
                len: len as u8,
                bytes: window.try_into().expect("a 32-byte window"),
            },
            None => Immediate::new(&code[start..start + len]),
        }
    }
}

impl Deref for Immediate {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

impl PartialEq for Immediate {
    fn eq(&self, other: &Immediate) -> bool {
        **self == **other
    }
}

impl Eq for Immediate {}

impl PartialEq<Vec<u8>> for Immediate {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Immediate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// One decoded instruction.
///
/// Unassigned bytes decode with `opcode == None` and behave like `INVALID`
/// (they terminate execution if reached). A push whose immediate runs past
/// the end of the code keeps the bytes that exist; the EVM semantics of
/// zero-padding are applied by [`Instruction::push_value`]. The immediate
/// is stored inline, so an instruction owns all its data without a heap
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instruction {
    /// Byte offset of the opcode within the bytecode.
    pub offset: usize,
    /// Decoded opcode, `None` for unassigned bytes.
    pub opcode: Option<Opcode>,
    /// The raw opcode byte (meaningful when `opcode` is `None`).
    pub byte: u8,
    /// Immediate bytes actually present in the code (may be shorter than
    /// declared for a truncated trailing push).
    pub immediate: Immediate,
}

impl Instruction {
    /// Encoded size in bytes: opcode plus the immediate bytes present.
    pub fn size(&self) -> usize {
        1 + self.immediate.len()
    }

    /// Offset of the next instruction.
    pub fn next_offset(&self) -> usize {
        self.offset + self.size()
    }

    /// For a push instruction, its immediate as a word (zero-padded on the
    /// right if truncated, per EVM semantics). `None` for non-push opcodes.
    pub fn push_value(&self) -> Option<U256> {
        let op = self.opcode?;
        if !op.is_push() {
            return None;
        }
        let mut padded = [0u8; 32];
        padded[..self.immediate.len()].copy_from_slice(&self.immediate);
        Some(U256::from_be_bytes(&padded[..op.immediate_len()]))
    }

    /// `true` if this instruction halts or unconditionally transfers
    /// control (ends a basic block with no fall-through).
    pub fn is_block_terminator(&self) -> bool {
        match self.opcode {
            Some(op) => op.is_block_terminator(),
            None => true, // unassigned byte = INVALID
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.opcode {
            Some(op) if !self.immediate.is_empty() => {
                write!(f, "{:#06x}: {} 0x", self.offset, op.mnemonic())?;
                for b in self.immediate.iter() {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
            Some(op) => write!(f, "{:#06x}: {}", self.offset, op.mnemonic()),
            None => write!(f, "{:#06x}: UNKNOWN(0x{:02x})", self.offset, self.byte),
        }
    }
}

/// Iterator over the instructions of `code`, decoded lazily from the
/// borrowed bytes; see [`instructions`].
#[derive(Debug, Clone)]
pub struct Instructions<'a> {
    code: &'a [u8],
    pc: usize,
}

impl Iterator for Instructions<'_> {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        let pc = self.pc;
        let byte = *self.code.get(pc)?;
        let end = (pc + 1 + Opcode::immediate_len_of(byte)).min(self.code.len());
        self.pc = end;
        Some(Instruction {
            offset: pc,
            opcode: Opcode::from_byte(byte),
            byte,
            immediate: Immediate::read(self.code, pc + 1, end - pc - 1),
        })
    }

    fn count(self) -> usize {
        let mut pc = self.pc;
        let mut n = 0;
        while let Some(&byte) = self.code.get(pc) {
            n += 1;
            pc += 1 + Opcode::immediate_len_of(byte);
        }
        n
    }
}

/// Walks `code` with a linear sweep from offset 0, one instruction at a
/// time, without collecting them.
///
/// Every byte is decoded exactly once; push immediates are consumed by
/// their opcode. This matches how the EVM itself delimits instructions
/// (`JUMPDEST` analysis), so data embedded after code shows up as garbage
/// instructions — exactly what a static analyzer sees.
pub fn instructions(code: &[u8]) -> Instructions<'_> {
    Instructions { code, pc: 0 }
}

/// Disassembles `code` into a vector: [`instructions`], collected into
/// one allocation of the exact size.
///
/// # Examples
///
/// ```
/// use scamdetect_evm::{disasm::disassemble, opcode::Opcode};
///
/// // PUSH1 0x2a PUSH1 0x00 MSTORE
/// let code = [0x60, 0x2a, 0x60, 0x00, 0x52];
/// let instrs = disassemble(&code);
/// assert_eq!(instrs.len(), 3);
/// assert_eq!(instrs[0].opcode, Some(Opcode::PUSH1));
/// assert_eq!(instrs[0].push_value().unwrap().to_usize(), Some(0x2a));
/// assert_eq!(instrs[2].opcode, Some(Opcode::MSTORE));
/// ```
pub fn disassemble(code: &[u8]) -> Vec<Instruction> {
    let mut out = Vec::with_capacity(instructions(code).count());
    out.extend(instructions(code));
    out
}

/// Re-encodes instructions back to bytecode (inverse of [`disassemble`]).
pub fn assemble_instructions(instrs: &[Instruction]) -> Vec<u8> {
    let mut out = Vec::new();
    for ins in instrs {
        out.push(ins.byte);
        out.extend_from_slice(&ins.immediate);
    }
    out
}

/// Offsets of every `JUMPDEST` reachable by the linear sweep — the set of
/// valid jump targets per the EVM's jumpdest analysis.
pub fn jumpdest_offsets(instrs: &[Instruction]) -> Vec<usize> {
    instrs
        .iter()
        .filter(|i| i.opcode == Some(Opcode::JUMPDEST))
        .map(|i| i.offset)
        .collect()
}

/// A normalized histogram over the opcode bytes of `code` (256 bins,
/// frequencies summing to 1 for nonempty input), counted in one walk
/// over [`instructions`]. The classic PhishingHook-style feature vector.
pub fn opcode_histogram(code: &[u8]) -> Vec<f64> {
    let mut h = vec![0.0f64; 256];
    for ins in instructions(code) {
        h[usize::from(ins.byte)] += 1.0;
    }
    let total: f64 = h.iter().sum();
    if total > 0.0 {
        for v in &mut h {
            *v /= total;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_program_decodes() {
        // PUSH2 0x0102 DUP1 JUMP
        let code = [0x61, 0x01, 0x02, 0x80, 0x56];
        let instrs = disassemble(&code);
        assert_eq!(instrs.len(), 3);
        assert_eq!(instrs[0].opcode, Some(Opcode::PUSH2));
        assert_eq!(instrs[0].push_value().unwrap().to_usize(), Some(0x0102));
        assert_eq!(instrs[1].opcode, Some(Opcode::DUP1));
        assert_eq!(instrs[2].opcode, Some(Opcode::JUMP));
        assert_eq!(instrs[2].offset, 4);
    }

    #[test]
    fn roundtrip_reencode() {
        let code = vec![0x60, 0xff, 0x5b, 0x34, 0x57, 0x00, 0xfe, 0x7f];
        let instrs = disassemble(&code);
        assert_eq!(assemble_instructions(&instrs), code);
    }

    #[test]
    fn truncated_push_keeps_partial_immediate() {
        // PUSH4 with only 2 immediate bytes present.
        let code = [0x63, 0xaa, 0xbb];
        let instrs = disassemble(&code);
        assert_eq!(instrs.len(), 1);
        assert_eq!(instrs[0].immediate, vec![0xaa, 0xbb]);
        // EVM pads with zeros on the right: 0xaabb0000.
        assert_eq!(instrs[0].push_value().unwrap().to_usize(), Some(0xaabb0000));
    }

    #[test]
    fn unknown_bytes_are_invalid_terminators() {
        let code = [0x0c];
        let instrs = disassemble(&code);
        assert_eq!(instrs[0].opcode, None);
        assert!(instrs[0].is_block_terminator());
        assert!(instrs[0].to_string().contains("UNKNOWN"));
    }

    #[test]
    fn jumpdests_found() {
        let code = [0x5b, 0x60, 0x5b, 0x5b]; // JUMPDEST, PUSH1 0x5b, JUMPDEST
        let instrs = disassemble(&code);
        // The 0x5b at offset 2 is a push immediate, not a JUMPDEST.
        assert_eq!(jumpdest_offsets(&instrs), vec![0, 3]);
    }

    #[test]
    fn histogram_normalizes() {
        let code = [0x01, 0x01, 0x02, 0x00];
        let h = opcode_histogram(&code);
        assert!((h[0x01] - 0.5).abs() < 1e-12);
        assert!((h[0x02] - 0.25).abs() < 1e-12);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_bits_match_the_disassembly_definition() {
        // The histogram as first defined: over a disassembled vector.
        fn reference(instrs: &[Instruction]) -> Vec<f64> {
            let mut h = vec![0.0f64; 256];
            for ins in instrs {
                h[ins.byte as usize] += 1.0;
            }
            let total: f64 = h.iter().sum();
            if total > 0.0 {
                for v in &mut h {
                    *v /= total;
                }
            }
            h
        }
        let mut inputs: Vec<Vec<u8>> = vec![vec![], vec![0x63, 0xaa, 0xbb], vec![0x5f, 0x5f]];
        // Pseudo-random code (xorshift), long enough for every bin to be
        // hit and for sums that are not exact in binary.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in [1, 7, 100, 1000, 5000] {
            inputs.push(
                (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect(),
            );
        }
        for code in &inputs {
            let bits = |h: Vec<f64>| h.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(opcode_histogram(code)),
                bits(reference(&disassemble(code)))
            );
        }
    }

    #[test]
    fn iterator_matches_vector() {
        let code = [0x60, 0x01, 0x5b, 0x7f, 0x01, 0x02];
        let walked: Vec<Instruction> = instructions(&code).collect();
        assert_eq!(walked, disassemble(&code));
        assert_eq!(walked[2].immediate, vec![0x01, 0x02]);
        assert_eq!(walked[2].size(), 3);
    }

    #[test]
    fn empty_code() {
        assert!(disassemble(&[]).is_empty());
        let h = opcode_histogram(&[]);
        assert_eq!(h.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn display_formats() {
        let instrs = disassemble(&[0x60, 0x2a]);
        assert_eq!(instrs[0].to_string(), "0x0000: PUSH1 0x2a");
        let instrs = disassemble(&[0x01]);
        assert_eq!(instrs[0].to_string(), "0x0000: ADD");
    }
}
