//! The Org32 instruction set.
//!
//! A 32-bit RISC with 16 general-purpose registers (`r0` reads zero),
//! word-addressed loads/stores, compare-and-branch, and jump-and-link. The
//! encoding packs `op:6 | rd:4 | rs1:4 | rs2:4 | imm:14` (signed
//! immediate); `Jal` extends the immediate through the `rs1`/`rs2` fields.

/// Architectural register, `R0..R15`; `R0` is hard-wired to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// The zero register.
    pub const ZERO: Reg = Reg(0);
    /// Conventional return-address register.
    pub const RA: Reg = Reg(15);
    /// Conventional stack pointer.
    pub const SP: Reg = Reg(14);

    /// Validated constructor.
    ///
    /// # Panics
    /// Panics if `i > 15`.
    pub fn new(i: u8) -> Reg {
        assert!(i < 16, "register index out of range");
        Reg(i)
    }
}

/// Operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// rd = rs1 + rs2
    Add,
    /// rd = rs1 - rs2
    Sub,
    /// rd = rs1 & rs2
    And,
    /// rd = rs1 | rs2
    Or,
    /// rd = rs1 ^ rs2
    Xor,
    /// rd = (rs1 as i32) < (rs2 as i32)
    Slt,
    /// rd = rs1 << (rs2 & 31)
    Sll,
    /// rd = rs1 >> (rs2 & 31) logical
    Srl,
    /// rd = (rs1 as i32) >> (rs2 & 31)
    Sra,
    /// rd = rs1 + imm
    Addi,
    /// rd = rs1 & imm
    Andi,
    /// rd = rs1 | imm
    Ori,
    /// rd = rs1 ^ imm
    Xori,
    /// rd = (rs1 as i32) < imm
    Slti,
    /// rd = imm << 13 (load upper immediate; 13 so the pairing ORI always
    /// has a non-negative in-range low part)
    Lui,
    /// rd = rs1 * rs2 (low 32)
    Mul,
    /// rd = rs1 / rs2 (signed; x/0 = -1)
    Div,
    /// rd = rs1 % rs2 (signed; x%0 = x)
    Rem,
    /// rd = mem[rs1 + imm]
    Lw,
    /// mem[rs1 + imm] = rs2
    Sw,
    /// if rs1 == rs2: pc += imm
    Beq,
    /// if rs1 != rs2: pc += imm
    Bne,
    /// if (rs1 as i32) < (rs2 as i32): pc += imm
    Blt,
    /// if (rs1 as i32) >= (rs2 as i32): pc += imm
    Bge,
    /// rd = pc + 1; pc += imm (wide immediate)
    Jal,
    /// rd = pc + 1; pc = rs1 + imm
    Jalr,
    /// stop simulation
    Halt,
}

impl Op {
    const ALL: [Op; 27] = [
        Op::Add,
        Op::Sub,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Slt,
        Op::Sll,
        Op::Srl,
        Op::Sra,
        Op::Addi,
        Op::Andi,
        Op::Ori,
        Op::Xori,
        Op::Slti,
        Op::Lui,
        Op::Mul,
        Op::Div,
        Op::Rem,
        Op::Lw,
        Op::Sw,
        Op::Beq,
        Op::Bne,
        Op::Blt,
        Op::Bge,
        Op::Jal,
        Op::Jalr,
        Op::Halt,
    ];

    fn code(self) -> u32 {
        Op::ALL.iter().position(|&o| o == self).unwrap() as u32
    }

    fn from_code(c: u32) -> Option<Op> {
        Op::ALL.get(c as usize).copied()
    }

    /// Is this a conditional branch?
    pub fn is_branch(self) -> bool {
        matches!(self, Op::Beq | Op::Bne | Op::Blt | Op::Bge)
    }

    /// Is this any control transfer (branch or jump)?
    pub fn is_control(self) -> bool {
        self.is_branch() || matches!(self, Op::Jal | Op::Jalr)
    }

    /// Is this a memory operation?
    pub fn is_mem(self) -> bool {
        matches!(self, Op::Lw | Op::Sw)
    }

    /// Is this a long-latency multiply/divide?
    pub fn is_muldiv(self) -> bool {
        matches!(self, Op::Mul | Op::Div | Op::Rem)
    }
}

/// The source registers of one instruction (at most two), held inline so
/// the simulators' per-cycle readiness checks never allocate. Derefs to
/// `&[Reg]` in operand order (`rs1`, then `rs2`); compare through the
/// slice, since registers past the length are unused.
#[derive(Debug, Clone, Copy)]
pub struct Sources {
    regs: [Reg; 2],
    len: usize,
}

impl std::ops::Deref for Sources {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        &self.regs[..self.len]
    }
}

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Operation.
    pub op: Op,
    /// Destination register.
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Signed immediate (14-bit normally, 22-bit for `Jal`).
    pub imm: i32,
}

impl Instr {
    /// A canonical NOP (`addi r0, r0, 0`).
    pub const NOP: Instr = Instr {
        op: Op::Addi,
        rd: Reg(0),
        rs1: Reg(0),
        rs2: Reg(0),
        imm: 0,
    };

    /// Encodes to a 32-bit word.
    ///
    /// # Panics
    /// Panics if the immediate does not fit the format.
    pub fn encode(&self) -> u32 {
        let op = self.op.code();
        if self.op == Op::Jal {
            assert!(
                self.imm >= -(1 << 21) && self.imm < (1 << 21),
                "jal imm out of range"
            );
            let imm = (self.imm as u32) & 0x3F_FFFF;
            return (op << 26) | ((self.rd.0 as u32) << 22) | imm;
        }
        assert!(
            self.imm >= -(1 << 13) && self.imm < (1 << 13),
            "imm out of range: {}",
            self.imm
        );
        let imm = (self.imm as u32) & 0x3FFF;
        (op << 26)
            | ((self.rd.0 as u32) << 22)
            | ((self.rs1.0 as u32) << 18)
            | ((self.rs2.0 as u32) << 14)
            | imm
    }

    /// Decodes a 32-bit word.
    ///
    /// Returns `None` for an invalid opcode.
    pub fn decode(word: u32) -> Option<Instr> {
        let op = Op::from_code(word >> 26)?;
        let rd = Reg(((word >> 22) & 0xF) as u8);
        if op == Op::Jal {
            let raw = word & 0x3F_FFFF;
            let imm = ((raw << 10) as i32) >> 10;
            return Some(Instr {
                op,
                rd,
                rs1: Reg(0),
                rs2: Reg(0),
                imm,
            });
        }
        let rs1 = Reg(((word >> 18) & 0xF) as u8);
        let rs2 = Reg(((word >> 14) & 0xF) as u8);
        let raw = word & 0x3FFF;
        let imm = ((raw << 18) as i32) >> 18;
        Some(Instr {
            op,
            rd,
            rs1,
            rs2,
            imm,
        })
    }

    /// Registers this instruction reads.
    pub fn sources(&self) -> Sources {
        let len = match self.op {
            Op::Lui | Op::Jal | Op::Halt => 0,
            Op::Addi | Op::Andi | Op::Ori | Op::Xori | Op::Slti | Op::Lw | Op::Jalr => 1,
            _ => 2,
        };
        Sources {
            regs: [self.rs1, self.rs2],
            len,
        }
    }

    /// Register this instruction writes, if any (`r0` filtered out).
    pub fn dest(&self) -> Option<Reg> {
        let writes = !matches!(
            self.op,
            Op::Sw | Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Halt
        );
        (writes && self.rd != Reg::ZERO).then_some(self.rd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_all_ops() {
        for &op in &Op::ALL {
            let i = Instr {
                op,
                rd: Reg(5),
                rs1: if op == Op::Jal { Reg(0) } else { Reg(7) },
                rs2: if op == Op::Jal { Reg(0) } else { Reg(12) },
                imm: if op == Op::Jal { -100_000 } else { -7321 },
            };
            let back = Instr::decode(i.encode()).expect("decodes");
            assert_eq!(back, i, "{op:?}");
        }
    }

    #[test]
    fn immediate_sign_extension() {
        let i = Instr {
            op: Op::Addi,
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(0),
            imm: -1,
        };
        assert_eq!(Instr::decode(i.encode()).unwrap().imm, -1);
        let j = Instr {
            op: Op::Jal,
            rd: Reg(15),
            rs1: Reg(0),
            rs2: Reg(0),
            imm: -(1 << 20),
        };
        assert_eq!(Instr::decode(j.encode()).unwrap().imm, -(1 << 20));
    }

    #[test]
    fn invalid_opcode_rejected() {
        assert_eq!(Instr::decode(0xFFFF_FFFF), None);
    }

    #[test]
    fn source_dest_classification() {
        let add = Instr {
            op: Op::Add,
            rd: Reg(3),
            rs1: Reg(1),
            rs2: Reg(2),
            imm: 0,
        };
        assert_eq!(*add.sources(), [Reg(1), Reg(2)]);
        assert_eq!(add.dest(), Some(Reg(3)));
        let sw = Instr {
            op: Op::Sw,
            rd: Reg(0),
            rs1: Reg(1),
            rs2: Reg(2),
            imm: 4,
        };
        assert_eq!(sw.dest(), None);
        let to_zero = Instr {
            op: Op::Add,
            rd: Reg(0),
            rs1: Reg(1),
            rs2: Reg(2),
            imm: 0,
        };
        assert_eq!(to_zero.dest(), None);
    }

    #[test]
    #[should_panic(expected = "imm out of range")]
    fn oversized_immediate_panics() {
        let i = Instr {
            op: Op::Addi,
            rd: Reg(1),
            rs1: Reg(1),
            rs2: Reg(0),
            imm: 100_000,
        };
        let _ = i.encode();
    }

    #[test]
    fn op_class_predicates() {
        assert!(Op::Beq.is_branch() && Op::Beq.is_control());
        assert!(Op::Jal.is_control() && !Op::Jal.is_branch());
        assert!(Op::Lw.is_mem() && !Op::Lw.is_control());
        assert!(Op::Div.is_muldiv());
    }
}
