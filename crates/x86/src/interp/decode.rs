//! The form [`X86Machine`](super::X86Machine) runs: the text decoded into
//! runs, each on first entry at its offset.
//!
//! A run is the straight-line instructions from its entry up to and
//! including the first that can transfer control or fail (`jmp`, `jcc`,
//! `call`, `ret`, `ud2`, `div`/`idiv`, packed `sqrtpd`/`sqrtps`), or up to
//! bytes that do not decode or the end of `.text`. Its steps, cycles,
//! loads and stores are summed here, so the machine charges a whole run at
//! once and executes its instructions with no per-instruction cost lookup.
//! Only a run's end can fail, so every statistic, and the first error, are
//! those of charging each instruction on its own step.
//!
//! A run's end holds what the machine does next. Branch and call targets
//! are [`Dest`]s: an address, and its run once the branch is first
//! followed. A call or tail jump to an extern stub holds the runtime's
//! [`Extern`], resolved here. `.text` is immutable (guest stores go to
//! [`Memory`](lasagne_lir::interp::Memory)), so a run never goes stale.
//! A jump into the middle of a run starts a run of its own at that offset,
//! decoded from the bytes there.

use crate::binary::Binary;
use crate::decode::decode_one;
use crate::inst::{Inst, MulDivOp, SseOp, Target};
use crate::reg::{Cond, Gpr};
use lasagne_lir::interp::runtime::Extern;

/// The run index of a [`Dest`] not followed yet.
pub(super) const UNLINKED: u32 = u32::MAX;

/// A branch or call target.
#[derive(Debug, Clone, Copy)]
pub(super) struct Dest {
    pub addr: u64,
    /// Its run, or [`UNLINKED`] until the branch is first followed (and
    /// for ever if `addr` is outside `.text`).
    pub run: u32,
}

impl Dest {
    fn new(addr: u64) -> Dest {
        Dest {
            addr,
            run: UNLINKED,
        }
    }
}

/// What a call to an extern stub runs: the runtime's [`Extern`], or the
/// name of one the runtime lacks.
pub(super) type ExternCall<'b> = Result<Extern, &'b str>;

/// What a run's end does once its instructions have run.
#[derive(Debug, Clone, Copy)]
pub(super) enum End<'b> {
    /// `jmp`.
    Jmp(Dest),
    /// `jcc`: `taken` if `cc` holds, else `next`.
    Jcc {
        cc: Cond,
        taken: Dest,
        next: Dest,
    },
    /// `call` into the text: pushes `ret`.
    Call {
        callee: Dest,
        ret: u64,
    },
    /// `call` to an extern stub, resuming at `next`.
    CallExtern {
        ext: ExternCall<'b>,
        next: Dest,
    },
    /// `jmp` to an extern stub (a tail call through the PLT): the extern
    /// returns to the caller's return address.
    TailExtern(ExternCall<'b>),
    /// `call reg`; `ret` is the address after it.
    CallReg {
        reg: Gpr,
        ret: u64,
    },
    Ret,
    /// An instruction that may fail (`ud2`, `div`, `idiv`, packed sqrt,
    /// an indirect `jmp`), kept after the run's body in the instruction
    /// table; the run goes on at `next` if it does not.
    Checked {
        next: Dest,
    },
    /// The bytes at this address do not decode, or it is the end of
    /// `.text`: the next step fails.
    Fault(u64),
}

impl End<'_> {
    /// The `slot`th [`Dest`] of this end: 0 is the jump or call target
    /// (or the fall-through of an extern call or checked instruction), 1
    /// a `jcc`'s fall-through.
    pub(super) fn dest_mut(&mut self, slot: usize) -> &mut Dest {
        match (self, slot) {
            (End::Jmp(d), 0)
            | (End::Jcc { taken: d, .. }, 0)
            | (End::Jcc { next: d, .. }, 1)
            | (End::Call { callee: d, .. }, 0)
            | (End::CallExtern { next: d, .. }, 0)
            | (End::Checked { next: d }, 0) => d,
            _ => unreachable!("no such branch target"),
        }
    }
}

/// A run and its charges.
#[derive(Debug, Clone, Copy)]
pub(super) struct Run<'b> {
    /// Its body: `Code::insts[start..start + len]`; the end's instruction
    /// is not among them, except a [`End::Checked`] one at `start + len`.
    pub start: u32,
    pub len: u32,
    /// One per instruction, the end's included.
    pub steps: u64,
    /// The cycles, loads and stores of those steps.
    pub cycles: u64,
    pub loads: u64,
    pub stores: u64,
    pub end: End<'b>,
}

/// Every run decoded so far, and the tables to find them.
#[derive(Default)]
pub(super) struct Code<'b> {
    text: &'b [u8],
    base: u64,
    pub runs: Vec<Run<'b>>,
    /// The runs' instructions, back to back.
    pub insts: Vec<Inst>,
    /// For each text offset, 1 + the index of the run entered there, or 0
    /// if none has been yet.
    entry: Vec<u32>,
    /// Each extern stub's address and what a call to it runs, sorted by
    /// address, stubs sharing one in `Binary::externs` order.
    externs: Vec<(u64, ExternCall<'b>)>,
}

/// Abstract cost of one instruction, aligned with the LIR interpreter's
/// weights (fences and RMWs dominate).
pub(super) fn cost_of(inst: &Inst) -> u64 {
    match inst {
        Inst::Mfence => 40,
        Inst::LockCmpxchg { .. }
        | Inst::LockXadd { .. }
        | Inst::LockAddI { .. }
        | Inst::Xchg { .. } => 48,
        Inst::MulDiv {
            op: MulDivOp::Div | MulDivOp::IDiv,
            ..
        } => 20,
        Inst::SseScalar { op: SseOp::Div, .. } | Inst::SsePacked { op: SseOp::Div, .. } => 15,
        Inst::Call { .. } => 4,
        i if i.reads_memory() || i.writes_memory() => 4,
        _ => 1,
    }
}

/// Whether `inst` can fail, and so must end its run.
fn may_fail(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Ud2
            | Inst::MulDiv {
                op: MulDivOp::Div | MulDivOp::IDiv,
                ..
            }
            | Inst::SsePacked {
                op: SseOp::Sqrt,
                ..
            }
            | Inst::Jmp {
                target: Target::Indirect(_)
            }
            | Inst::Jcc {
                target: Target::Indirect(_),
                ..
            }
    )
}

impl<'b> Code<'b> {
    pub(super) fn new(bin: &'b Binary) -> Code<'b> {
        let mut externs: Vec<_> = bin
            .externs
            .iter()
            .map(|e| (e.addr, Extern::parse(&e.name).ok_or(e.name.as_str())))
            .collect();
        externs.sort_by_key(|e| e.0);
        Code {
            text: &bin.text,
            base: bin.text_base,
            runs: Vec::new(),
            insts: Vec::new(),
            entry: vec![0; bin.text.len()],
            externs,
        }
    }

    /// Whether `rip` lies in `.text`, as an offset.
    fn offset(&self, rip: u64) -> Option<usize> {
        let off = rip.wrapping_sub(self.base);
        (off < self.text.len() as u64).then_some(off as usize)
    }

    /// The run entered at `rip`, if one has been decoded.
    #[inline]
    pub(super) fn decoded(&self, rip: u64) -> Option<u32> {
        let off = usize::try_from(rip.wrapping_sub(self.base)).ok()?;
        self.entry.get(off)?.checked_sub(1)
    }

    /// The run entered at `rip`, decoded now if it has not been; `None`
    /// if `rip` is outside `.text`.
    pub(super) fn run_at(&mut self, rip: u64) -> Option<u32> {
        let off = self.offset(rip)?;
        if let Some(r) = self.entry[off].checked_sub(1) {
            return Some(r);
        }
        let r = u32::try_from(self.runs.len()).expect("fewer runs than text bytes");
        let run = self.decode(rip);
        self.runs.push(run);
        self.entry[off] = r + 1;
        Some(r)
    }

    /// What a call to `addr` runs, if `addr` is an extern stub's.
    pub(super) fn extern_at(&self, addr: u64) -> Option<ExternCall<'b>> {
        let i = self.externs.partition_point(|e| e.0 < addr);
        self.externs.get(i).filter(|e| e.0 == addr).map(|e| e.1)
    }

    /// Decodes the run entered at `rip`, appending its body to `insts`.
    fn decode(&mut self, mut rip: u64) -> Run<'b> {
        let start = u32::try_from(self.insts.len()).expect("fewer instructions than 2^32");
        let (mut steps, mut cycles, mut loads, mut stores) = (0, 0, 0, 0);
        let end = loop {
            let Some(d) = self
                .offset(rip)
                .and_then(|off| decode_one(&self.text[off..], rip).ok())
            else {
                break End::Fault(rip);
            };
            let inst = d.inst;
            steps += 1;
            cycles += cost_of(&inst);
            loads += u64::from(inst.reads_memory());
            stores += u64::from(inst.writes_memory());
            rip += d.len as u64;
            if let Some(end) = self.end_of(&inst, rip) {
                break end;
            }
            self.insts.push(inst);
            if may_fail(&inst) {
                break End::Checked {
                    next: Dest::new(rip),
                };
            }
        };
        let body = self.insts.len() - start as usize;
        let len = body - usize::from(matches!(end, End::Checked { .. }));
        Run {
            start,
            len: len as u32,
            steps,
            cycles,
            loads,
            stores,
            end,
        }
    }

    /// The end `inst` makes of its run, if it transfers control; `next` is
    /// the address after it.
    fn end_of(&self, inst: &Inst, next: u64) -> Option<End<'b>> {
        Some(match *inst {
            Inst::Jmp {
                target: Target::Abs(t),
            } => match self.extern_at(t) {
                Some(ext) => End::TailExtern(ext),
                None => End::Jmp(Dest::new(t)),
            },
            Inst::Jcc {
                cc,
                target: Target::Abs(t),
            } => End::Jcc {
                cc,
                taken: Dest::new(t),
                next: Dest::new(next),
            },
            Inst::Call {
                target: Target::Abs(t),
            } => match self.extern_at(t) {
                Some(ext) => End::CallExtern {
                    ext,
                    next: Dest::new(next),
                },
                None => End::Call {
                    callee: Dest::new(t),
                    ret: next,
                },
            },
            Inst::Call {
                target: Target::Indirect(reg),
            } => End::CallReg { reg, ret: next },
            Inst::Ret => End::Ret,
            _ => return None,
        })
    }
}
