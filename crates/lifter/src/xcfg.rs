//! Machine-level CFG reconstruction (paper §4, "CFG Construction").
//!
//! Decodes a function's byte range into instructions and rebuilds basic
//! blocks from branch targets — the `MCInst → MachineInstr` step of the
//! mctoll pipeline Figure 4 describes.

use lasagne_x86::decode::{decode_all, Decoded};
use lasagne_x86::inst::{Inst, Target};
use std::collections::BTreeSet;

/// Errors during machine-level CFG reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgError {
    /// Decoding failed.
    Decode(lasagne_x86::DecodeError),
    /// A branch targets an address outside the function.
    BranchOutOfFunction {
        /// Branch instruction address.
        at: u64,
        /// Target address.
        target: u64,
    },
    /// A branch targets an address inside the function that is not the
    /// start of a decoded instruction.
    BranchIntoInstruction {
        /// Branch instruction address.
        at: u64,
        /// Target address.
        target: u64,
    },
}

impl std::fmt::Display for CfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CfgError::Decode(e) => write!(f, "decode error: {e}"),
            CfgError::BranchOutOfFunction { at, target } => {
                write!(f, "branch at {at:#x} leaves the function (to {target:#x})")
            }
            CfgError::BranchIntoInstruction { at, target } => {
                write!(
                    f,
                    "branch at {at:#x} lands inside an instruction (at {target:#x})"
                )
            }
        }
    }
}

impl std::error::Error for CfgError {}

impl From<lasagne_x86::DecodeError> for CfgError {
    fn from(e: lasagne_x86::DecodeError) -> CfgError {
        CfgError::Decode(e)
    }
}

/// A machine basic block.
#[derive(Debug, Clone)]
pub struct XBlock {
    /// Address of the first instruction.
    pub start: u64,
    /// Instructions, terminator (if any) included as the last element.
    pub insts: Vec<Decoded>,
    /// Successor block start addresses, in branch order
    /// (`[taken, fallthrough]` for conditional jumps).
    pub succs: Vec<u64>,
}

/// A function-level machine CFG.
#[derive(Debug, Clone)]
pub struct XCfg {
    /// Entry address.
    pub entry: u64,
    /// Blocks sorted by start address.
    pub blocks: Vec<XBlock>,
}

impl XCfg {
    /// Index of the block starting at `addr` (a binary search: blocks are
    /// sorted by start address).
    pub fn block_index(&self, addr: u64) -> Option<usize> {
        self.blocks.binary_search_by_key(&addr, |b| b.start).ok()
    }
}

/// Reconstructs the CFG of one function from its machine code.
///
/// `base` is the address of `bytes[0]` (the function entry).
/// `is_call_target` identifies addresses that are valid tail-call targets
/// (entry points of other functions or extern stubs): a `jmp` to such an
/// address terminates its block like a `ret`, and the translator lowers it
/// as call-then-return (one of the paper's §4 mctoll contributions).
///
/// # Errors
///
/// Fails on undecodable bytes, on branches into the middle of an
/// instruction, and on branches that leave the function body, other than
/// jumps to an address `is_call_target` accepts.
pub fn build_xcfg(
    bytes: &[u8],
    base: u64,
    is_call_target: impl Fn(u64) -> bool,
) -> Result<XCfg, CfgError> {
    let decoded = decode_all(bytes, base)?;
    let end = base + bytes.len() as u64;

    // Pass 1: leaders = entry, branch targets, instruction after a terminator.
    let mut leaders: BTreeSet<u64> = BTreeSet::new();
    leaders.insert(base);
    for d in &decoded {
        match d.inst {
            Inst::Jmp {
                target: Target::Abs(t),
            }
            | Inst::Jcc {
                target: Target::Abs(t),
                ..
            } => {
                if t < base || t >= end {
                    let tail_call = matches!(d.inst, Inst::Jmp { .. }) && is_call_target(t);
                    if !tail_call {
                        return Err(CfgError::BranchOutOfFunction {
                            at: d.addr,
                            target: t,
                        });
                    }
                    leaders.insert(d.addr + d.len as u64);
                    continue;
                }
                if decoded.binary_search_by_key(&t, |d| d.addr).is_err() {
                    return Err(CfgError::BranchIntoInstruction {
                        at: d.addr,
                        target: t,
                    });
                }
                leaders.insert(t);
                leaders.insert(d.addr + d.len as u64);
            }
            Inst::Ret | Inst::Ud2 | Inst::Jmp { .. } => {
                leaders.insert(d.addr + d.len as u64);
            }
            _ => {}
        }
    }
    leaders.retain(|l| *l < end);

    // Pass 2: slice instruction stream into blocks.
    let mut blocks: Vec<XBlock> = Vec::new();
    let mut cur: Option<XBlock> = None;
    for d in decoded {
        if leaders.contains(&d.addr) {
            if let Some(b) = cur.take() {
                blocks.push(b);
            }
            cur = Some(XBlock {
                start: d.addr,
                insts: Vec::new(),
                succs: Vec::new(),
            });
        }
        let b = cur.as_mut().expect("instruction before entry leader");
        b.insts.push(d);
    }
    if let Some(b) = cur.take() {
        blocks.push(b);
    }

    // Pass 3: successor edges.
    let starts: Vec<u64> = blocks.iter().map(|b| b.start).collect();
    for b in &mut blocks {
        let last = b.insts.last().expect("empty block");
        let next = last.addr + last.len as u64;
        match last.inst {
            Inst::Jmp {
                target: Target::Abs(t),
            } => {
                if t >= base && t < end {
                    b.succs.push(t);
                }
                // Out-of-function: a tail call, no intra-function successor.
            }
            Inst::Jcc {
                cc: _,
                target: Target::Abs(t),
            } => {
                b.succs.push(t);
                if next < end {
                    b.succs.push(next);
                }
            }
            Inst::Ret
            | Inst::Ud2
            | Inst::Jmp {
                target: Target::Indirect(_),
            } => {}
            _ => {
                // Fallthrough into the next leader.
                if next < end && starts.binary_search(&next).is_ok() {
                    b.succs.push(next);
                }
            }
        }
    }

    Ok(XCfg {
        entry: base,
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_x86::asm::Asm;
    use lasagne_x86::inst::{AluOp, Inst, Rm};
    use lasagne_x86::reg::{Cond, Gpr, Width};

    /// Simple counted loop: entry, loop body, exit.
    fn loop_bytes(base: u64) -> Vec<u8> {
        let mut a = Asm::new();
        let top = a.label();
        let done = a.label();
        a.push(Inst::MovRmI {
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 10,
        });
        a.bind(top);
        a.push(Inst::AluRmI {
            op: AluOp::Sub,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 1,
        });
        a.jcc(Cond::Ne, top);
        a.jmp(done);
        a.bind(done);
        a.push(Inst::Ret);
        a.finish(base).unwrap()
    }

    #[test]
    fn loop_cfg_shape() {
        let base = 0x40_1000;
        let cfg = build_xcfg(&loop_bytes(base), base, |_| false).unwrap();
        assert_eq!(cfg.entry, base);
        // entry block, loop block, jmp block, ret block
        assert_eq!(cfg.blocks.len(), 4);
        let loop_block = &cfg.blocks[1];
        assert_eq!(loop_block.succs.len(), 2);
        assert_eq!(loop_block.succs[0], loop_block.start, "back edge to itself");
    }

    #[test]
    fn straightline_single_block() {
        let mut a = Asm::new();
        a.push(Inst::Nop);
        a.push(Inst::Nop);
        a.push(Inst::Ret);
        let bytes = a.finish(0).unwrap();
        let cfg = build_xcfg(&bytes, 0, |_| false).unwrap();
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].succs.is_empty());
        assert_eq!(cfg.blocks[0].insts.len(), 3);
    }

    #[test]
    fn out_of_function_branch_rejected() {
        let mut v = Vec::new();
        lasagne_x86::encode(
            &Inst::Jmp {
                target: lasagne_x86::inst::Target::Abs(0x9999),
            },
            0x100,
            &mut v,
        )
        .unwrap();
        let err = build_xcfg(&v, 0x100, |_| false).unwrap_err();
        assert!(matches!(err, CfgError::BranchOutOfFunction { .. }));
    }

    #[test]
    fn fallthrough_edge() {
        // cmp; jcc over one instruction; fallthrough block must link onward.
        let mut a = Asm::new();
        let skip = a.label();
        a.push(Inst::Test {
            w: Width::W64,
            a: Rm::Reg(Gpr::Rdi),
            b: Gpr::Rdi,
        });
        a.jcc(Cond::E, skip);
        a.push(Inst::AluRmI {
            op: AluOp::Add,
            w: Width::W64,
            dst: Rm::Reg(Gpr::Rax),
            imm: 1,
        });
        a.bind(skip);
        a.push(Inst::Ret);
        let bytes = a.finish(0x2000).unwrap();
        let cfg = build_xcfg(&bytes, 0x2000, |_| false).unwrap();
        assert_eq!(cfg.blocks.len(), 3);
        // middle block falls through to the ret block
        assert_eq!(cfg.blocks[1].succs, vec![cfg.blocks[2].start]);
    }
}
