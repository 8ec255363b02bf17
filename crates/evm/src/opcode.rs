//! The complete EVM opcode table (Shanghai/Cancun instruction set).

/// Coarse semantic category of an opcode.
///
/// Categories are the vocabulary shared with the platform-agnostic IR: the
/// WASM frontend maps its instructions into the same set, which is what
/// makes one detector transferable across runtimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpCategory {
    /// ADD, MUL, EXP, …
    Arithmetic,
    /// LT, GT, EQ, ISZERO, …
    Comparison,
    /// AND, OR, XOR, SHL, …
    Bitwise,
    /// KECCAK256.
    Crypto,
    /// CALLER, CALLVALUE, CALLDATALOAD, …
    Environment,
    /// TIMESTAMP, NUMBER, CHAINID, …
    Block,
    /// POP, DUP*, SWAP*.
    Stack,
    /// PUSH0‥PUSH32.
    Push,
    /// MLOAD, MSTORE, MCOPY, …
    Memory,
    /// SLOAD, SSTORE, TLOAD, TSTORE.
    Storage,
    /// JUMP, JUMPI, JUMPDEST, PC, GAS.
    Flow,
    /// LOG0‥LOG4.
    Log,
    /// CALL, CALLCODE, DELEGATECALL, STATICCALL.
    Call,
    /// CREATE, CREATE2.
    Create,
    /// STOP, RETURN, REVERT, INVALID, SELFDESTRUCT.
    Terminate,
}

macro_rules! opcodes {
    ($( $name:ident = $byte:literal, $mnem:literal, $pops:literal, $pushes:literal, $imm:literal, $cat:ident; )*) => {
        /// An EVM opcode.
        ///
        /// Every opcode assigned in the Shanghai/Cancun instruction set is a
        /// variant; unassigned bytes decode to `None` via
        /// [`Opcode::from_byte`] and are treated as `INVALID` by the
        /// disassembler.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        #[allow(missing_docs)] // variant names mirror the EVM mnemonics
        pub enum Opcode {
            $( $name = $byte, )*
        }

        impl Opcode {
            /// Decodes a byte into an opcode, `None` for unassigned bytes.
            pub fn from_byte(b: u8) -> Option<Opcode> {
                match b {
                    $( $byte => Some(Opcode::$name), )*
                    _ => None,
                }
            }

            /// Canonical mnemonic, e.g. `"CALLDATALOAD"`.
            pub fn mnemonic(self) -> &'static str {
                match self { $( Opcode::$name => $mnem, )* }
            }

            /// Number of stack items consumed.
            pub fn stack_pops(self) -> usize {
                match self { $( Opcode::$name => $pops, )* }
            }

            /// Number of stack items produced.
            pub fn stack_pushes(self) -> usize {
                match self { $( Opcode::$name => $pushes, )* }
            }

            /// Length in bytes of the inline immediate (nonzero only for
            /// `PUSH1`‥`PUSH32`).
            pub fn immediate_len(self) -> usize {
                match self { $( Opcode::$name => $imm, )* }
            }

            /// [`Opcode::immediate_len`] of the opcode byte `b`, 0 for
            /// unassigned bytes: one table lookup, for linear sweeps.
            pub(crate) fn immediate_len_of(b: u8) -> usize {
                match b {
                    $( $byte => $imm, )*
                    _ => 0,
                }
            }

            /// Semantic category.
            pub fn category(self) -> OpCategory {
                match self { $( Opcode::$name => OpCategory::$cat, )* }
            }

            /// All assigned opcodes, in byte order.
            pub fn all() -> &'static [Opcode] {
                &[ $( Opcode::$name, )* ]
            }
        }
    };
}

opcodes! {
    STOP = 0x00, "STOP", 0, 0, 0, Terminate;
    ADD = 0x01, "ADD", 2, 1, 0, Arithmetic;
    MUL = 0x02, "MUL", 2, 1, 0, Arithmetic;
    SUB = 0x03, "SUB", 2, 1, 0, Arithmetic;
    DIV = 0x04, "DIV", 2, 1, 0, Arithmetic;
    SDIV = 0x05, "SDIV", 2, 1, 0, Arithmetic;
    MOD = 0x06, "MOD", 2, 1, 0, Arithmetic;
    SMOD = 0x07, "SMOD", 2, 1, 0, Arithmetic;
    ADDMOD = 0x08, "ADDMOD", 3, 1, 0, Arithmetic;
    MULMOD = 0x09, "MULMOD", 3, 1, 0, Arithmetic;
    EXP = 0x0a, "EXP", 2, 1, 0, Arithmetic;
    SIGNEXTEND = 0x0b, "SIGNEXTEND", 2, 1, 0, Arithmetic;
    LT = 0x10, "LT", 2, 1, 0, Comparison;
    GT = 0x11, "GT", 2, 1, 0, Comparison;
    SLT = 0x12, "SLT", 2, 1, 0, Comparison;
    SGT = 0x13, "SGT", 2, 1, 0, Comparison;
    EQ = 0x14, "EQ", 2, 1, 0, Comparison;
    ISZERO = 0x15, "ISZERO", 1, 1, 0, Comparison;
    AND = 0x16, "AND", 2, 1, 0, Bitwise;
    OR = 0x17, "OR", 2, 1, 0, Bitwise;
    XOR = 0x18, "XOR", 2, 1, 0, Bitwise;
    NOT = 0x19, "NOT", 1, 1, 0, Bitwise;
    BYTE = 0x1a, "BYTE", 2, 1, 0, Bitwise;
    SHL = 0x1b, "SHL", 2, 1, 0, Bitwise;
    SHR = 0x1c, "SHR", 2, 1, 0, Bitwise;
    SAR = 0x1d, "SAR", 2, 1, 0, Bitwise;
    KECCAK256 = 0x20, "KECCAK256", 2, 1, 0, Crypto;
    ADDRESS = 0x30, "ADDRESS", 0, 1, 0, Environment;
    BALANCE = 0x31, "BALANCE", 1, 1, 0, Environment;
    ORIGIN = 0x32, "ORIGIN", 0, 1, 0, Environment;
    CALLER = 0x33, "CALLER", 0, 1, 0, Environment;
    CALLVALUE = 0x34, "CALLVALUE", 0, 1, 0, Environment;
    CALLDATALOAD = 0x35, "CALLDATALOAD", 1, 1, 0, Environment;
    CALLDATASIZE = 0x36, "CALLDATASIZE", 0, 1, 0, Environment;
    CALLDATACOPY = 0x37, "CALLDATACOPY", 3, 0, 0, Environment;
    CODESIZE = 0x38, "CODESIZE", 0, 1, 0, Environment;
    CODECOPY = 0x39, "CODECOPY", 3, 0, 0, Environment;
    GASPRICE = 0x3a, "GASPRICE", 0, 1, 0, Environment;
    EXTCODESIZE = 0x3b, "EXTCODESIZE", 1, 1, 0, Environment;
    EXTCODECOPY = 0x3c, "EXTCODECOPY", 4, 0, 0, Environment;
    RETURNDATASIZE = 0x3d, "RETURNDATASIZE", 0, 1, 0, Environment;
    RETURNDATACOPY = 0x3e, "RETURNDATACOPY", 3, 0, 0, Environment;
    EXTCODEHASH = 0x3f, "EXTCODEHASH", 1, 1, 0, Environment;
    BLOCKHASH = 0x40, "BLOCKHASH", 1, 1, 0, Block;
    COINBASE = 0x41, "COINBASE", 0, 1, 0, Block;
    TIMESTAMP = 0x42, "TIMESTAMP", 0, 1, 0, Block;
    NUMBER = 0x43, "NUMBER", 0, 1, 0, Block;
    PREVRANDAO = 0x44, "PREVRANDAO", 0, 1, 0, Block;
    GASLIMIT = 0x45, "GASLIMIT", 0, 1, 0, Block;
    CHAINID = 0x46, "CHAINID", 0, 1, 0, Block;
    SELFBALANCE = 0x47, "SELFBALANCE", 0, 1, 0, Environment;
    BASEFEE = 0x48, "BASEFEE", 0, 1, 0, Block;
    BLOBHASH = 0x49, "BLOBHASH", 1, 1, 0, Block;
    BLOBBASEFEE = 0x4a, "BLOBBASEFEE", 0, 1, 0, Block;
    POP = 0x50, "POP", 1, 0, 0, Stack;
    MLOAD = 0x51, "MLOAD", 1, 1, 0, Memory;
    MSTORE = 0x52, "MSTORE", 2, 0, 0, Memory;
    MSTORE8 = 0x53, "MSTORE8", 2, 0, 0, Memory;
    SLOAD = 0x54, "SLOAD", 1, 1, 0, Storage;
    SSTORE = 0x55, "SSTORE", 2, 0, 0, Storage;
    JUMP = 0x56, "JUMP", 1, 0, 0, Flow;
    JUMPI = 0x57, "JUMPI", 2, 0, 0, Flow;
    PC = 0x58, "PC", 0, 1, 0, Flow;
    MSIZE = 0x59, "MSIZE", 0, 1, 0, Memory;
    GAS = 0x5a, "GAS", 0, 1, 0, Flow;
    JUMPDEST = 0x5b, "JUMPDEST", 0, 0, 0, Flow;
    TLOAD = 0x5c, "TLOAD", 1, 1, 0, Storage;
    TSTORE = 0x5d, "TSTORE", 2, 0, 0, Storage;
    MCOPY = 0x5e, "MCOPY", 3, 0, 0, Memory;
    PUSH0 = 0x5f, "PUSH0", 0, 1, 0, Push;
    PUSH1 = 0x60, "PUSH1", 0, 1, 1, Push;
    PUSH2 = 0x61, "PUSH2", 0, 1, 2, Push;
    PUSH3 = 0x62, "PUSH3", 0, 1, 3, Push;
    PUSH4 = 0x63, "PUSH4", 0, 1, 4, Push;
    PUSH5 = 0x64, "PUSH5", 0, 1, 5, Push;
    PUSH6 = 0x65, "PUSH6", 0, 1, 6, Push;
    PUSH7 = 0x66, "PUSH7", 0, 1, 7, Push;
    PUSH8 = 0x67, "PUSH8", 0, 1, 8, Push;
    PUSH9 = 0x68, "PUSH9", 0, 1, 9, Push;
    PUSH10 = 0x69, "PUSH10", 0, 1, 10, Push;
    PUSH11 = 0x6a, "PUSH11", 0, 1, 11, Push;
    PUSH12 = 0x6b, "PUSH12", 0, 1, 12, Push;
    PUSH13 = 0x6c, "PUSH13", 0, 1, 13, Push;
    PUSH14 = 0x6d, "PUSH14", 0, 1, 14, Push;
    PUSH15 = 0x6e, "PUSH15", 0, 1, 15, Push;
    PUSH16 = 0x6f, "PUSH16", 0, 1, 16, Push;
    PUSH17 = 0x70, "PUSH17", 0, 1, 17, Push;
    PUSH18 = 0x71, "PUSH18", 0, 1, 18, Push;
    PUSH19 = 0x72, "PUSH19", 0, 1, 19, Push;
    PUSH20 = 0x73, "PUSH20", 0, 1, 20, Push;
    PUSH21 = 0x74, "PUSH21", 0, 1, 21, Push;
    PUSH22 = 0x75, "PUSH22", 0, 1, 22, Push;
    PUSH23 = 0x76, "PUSH23", 0, 1, 23, Push;
    PUSH24 = 0x77, "PUSH24", 0, 1, 24, Push;
    PUSH25 = 0x78, "PUSH25", 0, 1, 25, Push;
    PUSH26 = 0x79, "PUSH26", 0, 1, 26, Push;
    PUSH27 = 0x7a, "PUSH27", 0, 1, 27, Push;
    PUSH28 = 0x7b, "PUSH28", 0, 1, 28, Push;
    PUSH29 = 0x7c, "PUSH29", 0, 1, 29, Push;
    PUSH30 = 0x7d, "PUSH30", 0, 1, 30, Push;
    PUSH31 = 0x7e, "PUSH31", 0, 1, 31, Push;
    PUSH32 = 0x7f, "PUSH32", 0, 1, 32, Push;
    DUP1 = 0x80, "DUP1", 1, 2, 0, Stack;
    DUP2 = 0x81, "DUP2", 2, 3, 0, Stack;
    DUP3 = 0x82, "DUP3", 3, 4, 0, Stack;
    DUP4 = 0x83, "DUP4", 4, 5, 0, Stack;
    DUP5 = 0x84, "DUP5", 5, 6, 0, Stack;
    DUP6 = 0x85, "DUP6", 6, 7, 0, Stack;
    DUP7 = 0x86, "DUP7", 7, 8, 0, Stack;
    DUP8 = 0x87, "DUP8", 8, 9, 0, Stack;
    DUP9 = 0x88, "DUP9", 9, 10, 0, Stack;
    DUP10 = 0x89, "DUP10", 10, 11, 0, Stack;
    DUP11 = 0x8a, "DUP11", 11, 12, 0, Stack;
    DUP12 = 0x8b, "DUP12", 12, 13, 0, Stack;
    DUP13 = 0x8c, "DUP13", 13, 14, 0, Stack;
    DUP14 = 0x8d, "DUP14", 14, 15, 0, Stack;
    DUP15 = 0x8e, "DUP15", 15, 16, 0, Stack;
    DUP16 = 0x8f, "DUP16", 16, 17, 0, Stack;
    SWAP1 = 0x90, "SWAP1", 2, 2, 0, Stack;
    SWAP2 = 0x91, "SWAP2", 3, 3, 0, Stack;
    SWAP3 = 0x92, "SWAP3", 4, 4, 0, Stack;
    SWAP4 = 0x93, "SWAP4", 5, 5, 0, Stack;
    SWAP5 = 0x94, "SWAP5", 6, 6, 0, Stack;
    SWAP6 = 0x95, "SWAP6", 7, 7, 0, Stack;
    SWAP7 = 0x96, "SWAP7", 8, 8, 0, Stack;
    SWAP8 = 0x97, "SWAP8", 9, 9, 0, Stack;
    SWAP9 = 0x98, "SWAP9", 10, 10, 0, Stack;
    SWAP10 = 0x99, "SWAP10", 11, 11, 0, Stack;
    SWAP11 = 0x9a, "SWAP11", 12, 12, 0, Stack;
    SWAP12 = 0x9b, "SWAP12", 13, 13, 0, Stack;
    SWAP13 = 0x9c, "SWAP13", 14, 14, 0, Stack;
    SWAP14 = 0x9d, "SWAP14", 15, 15, 0, Stack;
    SWAP15 = 0x9e, "SWAP15", 16, 16, 0, Stack;
    SWAP16 = 0x9f, "SWAP16", 17, 17, 0, Stack;
    LOG0 = 0xa0, "LOG0", 2, 0, 0, Log;
    LOG1 = 0xa1, "LOG1", 3, 0, 0, Log;
    LOG2 = 0xa2, "LOG2", 4, 0, 0, Log;
    LOG3 = 0xa3, "LOG3", 5, 0, 0, Log;
    LOG4 = 0xa4, "LOG4", 6, 0, 0, Log;
    CREATE = 0xf0, "CREATE", 3, 1, 0, Create;
    CALL = 0xf1, "CALL", 7, 1, 0, Call;
    CALLCODE = 0xf2, "CALLCODE", 7, 1, 0, Call;
    RETURN = 0xf3, "RETURN", 2, 0, 0, Terminate;
    DELEGATECALL = 0xf4, "DELEGATECALL", 6, 1, 0, Call;
    CREATE2 = 0xf5, "CREATE2", 4, 1, 0, Create;
    STATICCALL = 0xfa, "STATICCALL", 6, 1, 0, Call;
    REVERT = 0xfd, "REVERT", 2, 0, 0, Terminate;
    INVALID = 0xfe, "INVALID", 0, 0, 0, Terminate;
    SELFDESTRUCT = 0xff, "SELFDESTRUCT", 1, 0, 0, Terminate;
}

impl Opcode {
    /// Byte value of this opcode.
    #[inline]
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// `true` for PUSH0‥PUSH32.
    pub fn is_push(self) -> bool {
        matches!(self.category(), OpCategory::Push)
    }

    /// `true` for opcodes that end a basic block (unconditional control
    /// transfer or halt): JUMP, STOP, RETURN, REVERT, INVALID, SELFDESTRUCT.
    pub fn is_block_terminator(self) -> bool {
        matches!(
            self,
            Opcode::JUMP
                | Opcode::STOP
                | Opcode::RETURN
                | Opcode::REVERT
                | Opcode::INVALID
                | Opcode::SELFDESTRUCT
        )
    }

    /// `true` for opcodes that halt execution (no successor at all).
    pub fn is_halt(self) -> bool {
        matches!(
            self,
            Opcode::STOP | Opcode::RETURN | Opcode::REVERT | Opcode::INVALID | Opcode::SELFDESTRUCT
        )
    }

    /// `true` for JUMP and JUMPI.
    pub fn is_jump(self) -> bool {
        matches!(self, Opcode::JUMP | Opcode::JUMPI)
    }

    /// The `PUSHn` opcode carrying an `n`-byte immediate.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn push_n(n: usize) -> Opcode {
        assert!(n <= 32, "push_n: EVM supports PUSH0..PUSH32, got {n}");
        Opcode::from_byte(0x5f + n as u8).expect("push opcodes are contiguous")
    }

    /// The `DUPn` opcode (`1 ..= 16`).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 16`.
    pub fn dup_n(n: usize) -> Opcode {
        assert!((1..=16).contains(&n), "dup_n: n must be 1..=16, got {n}");
        Opcode::from_byte(0x80 + (n as u8 - 1)).expect("dup opcodes are contiguous")
    }

    /// The `SWAPn` opcode (`1 ..= 16`).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= n <= 16`.
    pub fn swap_n(n: usize) -> Opcode {
        assert!((1..=16).contains(&n), "swap_n: n must be 1..=16, got {n}");
        Opcode::from_byte(0x90 + (n as u8 - 1)).expect("swap opcodes are contiguous")
    }
}

impl std::fmt::Display for Opcode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_assigned_bytes() {
        for &op in Opcode::all() {
            assert_eq!(Opcode::from_byte(op.byte()), Some(op));
        }
        assert_eq!(Opcode::all().len(), 149);
    }

    #[test]
    fn unassigned_bytes_decode_to_none() {
        for b in [0x0cu8, 0x0f, 0x1e, 0x21, 0x4b, 0xa5, 0xef, 0xfb] {
            assert_eq!(Opcode::from_byte(b), None, "byte {b:#x}");
        }
    }

    #[test]
    fn push_immediate_lengths() {
        assert_eq!(Opcode::PUSH0.immediate_len(), 0);
        assert_eq!(Opcode::PUSH1.immediate_len(), 1);
        assert_eq!(Opcode::PUSH32.immediate_len(), 32);
        assert_eq!(Opcode::ADD.immediate_len(), 0);
        for b in 0..=255u8 {
            let expected = Opcode::from_byte(b).map_or(0, Opcode::immediate_len);
            assert_eq!(Opcode::immediate_len_of(b), expected, "{b:#04x}");
        }
        assert!(Opcode::PUSH7.is_push());
        assert!(!Opcode::POP.is_push());
    }

    #[test]
    fn constructors() {
        assert_eq!(Opcode::push_n(0), Opcode::PUSH0);
        assert_eq!(Opcode::push_n(4), Opcode::PUSH4);
        assert_eq!(Opcode::push_n(32), Opcode::PUSH32);
        assert_eq!(Opcode::dup_n(1), Opcode::DUP1);
        assert_eq!(Opcode::dup_n(16), Opcode::DUP16);
        assert_eq!(Opcode::swap_n(3), Opcode::SWAP3);
    }

    #[test]
    #[should_panic(expected = "push_n")]
    fn push_n_out_of_range() {
        let _ = Opcode::push_n(33);
    }

    #[test]
    fn terminators_and_jumps() {
        assert!(Opcode::JUMP.is_block_terminator());
        assert!(Opcode::RETURN.is_block_terminator());
        assert!(!Opcode::JUMPI.is_block_terminator()); // has fall-through
        assert!(Opcode::JUMPI.is_jump());
        assert!(Opcode::SELFDESTRUCT.is_halt());
        assert!(!Opcode::JUMP.is_halt());
    }

    #[test]
    fn stack_effects_match_spec_samples() {
        assert_eq!(Opcode::ADD.stack_pops(), 2);
        assert_eq!(Opcode::ADD.stack_pushes(), 1);
        assert_eq!(Opcode::CALL.stack_pops(), 7);
        assert_eq!(Opcode::DUP3.stack_pops(), 3);
        assert_eq!(Opcode::DUP3.stack_pushes(), 4);
        assert_eq!(Opcode::SWAP2.stack_pops(), 3);
        assert_eq!(Opcode::SWAP2.stack_pushes(), 3);
        assert_eq!(Opcode::LOG4.stack_pops(), 6);
    }

    #[test]
    fn categories_sampled() {
        assert_eq!(Opcode::SSTORE.category(), OpCategory::Storage);
        assert_eq!(Opcode::DELEGATECALL.category(), OpCategory::Call);
        assert_eq!(Opcode::TIMESTAMP.category(), OpCategory::Block);
        assert_eq!(Opcode::KECCAK256.category(), OpCategory::Crypto);
        assert_eq!(Opcode::PUSH20.category(), OpCategory::Push);
    }

    #[test]
    fn display_uses_mnemonic() {
        assert_eq!(Opcode::CALLDATALOAD.to_string(), "CALLDATALOAD");
    }
}
