//! Machine-level peephole cleanup for the frame-based lowering.
//!
//! The `-O0`-style backend keeps every LIR value in a frame slot, so the
//! instruction stream is dominated by `str xS, [x29, #off]` immediately
//! followed by `ldr xS, [x29, #off]` traffic. This pass removes that
//! traffic within basic blocks:
//!
//! * **store-to-load forwarding** — a load from a slot whose current value
//!   is known to live in a register becomes a `mov` (or disappears when it
//!   targets that same register);
//! * **redundant-store elimination** — storing a register back to a slot
//!   that is already known to hold that register's value is a no-op;
//! * **dead-store elimination** — a slot store overwritten later in the
//!   same block, with no possible read in between, is dropped.
//!
//! # Soundness invariant
//!
//! The pass relies on value/parameter/φ-shadow slots being **private and
//! never address-taken**: the only instructions that address them are the
//! `[x29, #off]` forms the lowering itself emits. Pointers derived from
//! `alloca`s address the alloca region of the frame (disjoint offsets) and
//! heap/global memory, never value slots, so loads and stores through
//! non-`x29` bases do not invalidate slot knowledge. Calls clobber every
//! scratch register (and `x0…`/`d0…`), so both maps are cleared at `bl`.
//! `dmb` barriers order *shared* memory; private slots may be forwarded
//! across them, exactly as a compiler keeps non-escaping locals in
//! registers across fences.

use crate::inst::{ACallee, AFunc, AInst, AModule, Sz, X};
use lasagne_trace::{ArgVal, TraceCtx};
use std::collections::BTreeMap;

/// Frame base register (`x29`).
const FP: X = X(29);

/// What the pass removed or rewrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeepholeStats {
    /// Slot loads rewritten into register moves.
    pub loads_forwarded: usize,
    /// Slot loads deleted outright (value already in the target register).
    pub loads_deleted: usize,
    /// Stores deleted because the slot already held the stored value.
    pub redundant_stores: usize,
    /// Stores deleted because they were overwritten before any read.
    pub dead_stores: usize,
}

impl PeepholeStats {
    /// Total instructions removed (forwarded loads are rewritten, not
    /// removed, so they are excluded).
    pub fn removed(&self) -> usize {
        self.loads_deleted + self.redundant_stores + self.dead_stores
    }

    fn add(&mut self, other: PeepholeStats) {
        self.loads_forwarded += other.loads_forwarded;
        self.loads_deleted += other.loads_deleted;
        self.redundant_stores += other.redundant_stores;
        self.dead_stores += other.dead_stores;
    }
}

/// Runs the peephole over every block of every function.
pub fn peephole_module(m: &mut AModule) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    for f in &mut m.funcs {
        stats.add(peephole_function(f, &TraceCtx::disabled()));
    }
    stats
}

/// Runs the peephole over one function, recording its hits into `ctx`:
/// one `armgen.peephole.*` counter per rewrite category and (when tracing
/// is enabled) a `peephole-hits` instant event when anything fired.
/// Tracing never changes the function or the stats.
///
/// Frame slots are private to the function, so the peephole never looks
/// outside `f` — distinct functions may be cleaned concurrently, and
/// [`peephole_module`] equals running this on every function in any order.
pub fn peephole_function(f: &mut AFunc, ctx: &TraceCtx) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    for b in &mut f.blocks {
        stats.add(clean_block(&mut b.insts));
    }
    ctx.add(
        "armgen.peephole.loads_forwarded",
        stats.loads_forwarded as u64,
    );
    ctx.add("armgen.peephole.loads_deleted", stats.loads_deleted as u64);
    ctx.add(
        "armgen.peephole.redundant_stores",
        stats.redundant_stores as u64,
    );
    ctx.add("armgen.peephole.dead_stores", stats.dead_stores as u64);
    if ctx.is_enabled() && (stats.removed() > 0 || stats.loads_forwarded > 0) {
        ctx.instant(
            "armgen",
            "peephole-hits",
            vec![
                ("func", ArgVal::from(f.name.as_str())),
                ("forwarded", ArgVal::from(stats.loads_forwarded)),
                ("removed", ArgVal::from(stats.removed())),
            ],
        );
    }
    stats
}

/// Per-block forward dataflow state.
#[derive(Default)]
struct SlotState {
    /// Frame offset → integer register known to hold the slot's 64-bit
    /// value (only `Sz::X` accesses participate).
    int: BTreeMap<i32, X>,
    /// Frame offset → FP register known to hold the slot's value, with the
    /// access width it was established at (`Sz::X` scalars, `Sz::Q`
    /// vectors).
    fp: BTreeMap<i32, (u8, Sz)>,
    /// Offset of the latest not-yet-read store per slot, as an index into
    /// the output vector (dead-store candidates).
    pending_store: BTreeMap<i32, usize>,
}

impl SlotState {
    fn kill_x(&mut self, r: X) {
        self.int.retain(|_, v| *v != r);
    }

    fn kill_d(&mut self, d: u8) {
        self.fp.retain(|_, (v, _)| *v != d);
    }

    fn clear_regs(&mut self) {
        self.int.clear();
        self.fp.clear();
    }

    /// A slot was (possibly) read: its pending store is live after all.
    fn mark_read(&mut self, off: i32) {
        self.pending_store.remove(&off);
    }

    /// Any instruction that may observe frame memory (calls which may take
    /// alloca-derived pointers, exclusives, returns handled at block end).
    fn mark_all_read(&mut self) {
        self.pending_store.clear();
    }
}

/// Integer register defined by an instruction, if any.
fn def_x(i: &AInst) -> Option<X> {
    match i {
        AInst::MovImm { rd, .. }
        | AInst::MovReg { rd, .. }
        | AInst::Alu { rd, .. }
        | AInst::AddImm { rd, .. }
        | AInst::CSet { rd, .. }
        | AInst::CSel { rd, .. }
        | AInst::SExt { rd, .. }
        | AInst::ZExt { rd, .. }
        | AInst::Fcvtzs { rd, .. }
        | AInst::FMovToX { rd, .. }
        | AInst::AdrFunc { rd, .. }
        | AInst::AdrGlobal { rd, .. } => Some(*rd),
        AInst::Ldr { rt, .. } | AInst::Ldxr { rt, .. } => Some(*rt),
        AInst::Stxr { rs, .. } => Some(*rs),
        _ => None,
    }
}

/// FP register defined by an instruction, if any.
fn def_d(i: &AInst) -> Option<u8> {
    match i {
        AInst::LdrF { dt, .. } => Some(dt.0),
        AInst::Fp { dd, .. }
        | AInst::FpVec { dd, .. }
        | AInst::Scvtf { dd, .. }
        | AInst::Fcvt { dd, .. }
        | AInst::FMovFromX { dd, .. } => Some(dd.0),
        _ => None,
    }
}

#[allow(clippy::too_many_lines)]
fn clean_block(insts: &mut Vec<AInst>) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    let mut st = SlotState::default();
    let mut out: Vec<AInst> = Vec::with_capacity(insts.len());
    // Indices into `out` scheduled for deletion (dead stores).
    let mut dead: Vec<usize> = Vec::new();

    for inst in insts.drain(..) {
        match inst {
            // ---- slot loads: forward or delete -------------------------
            AInst::Ldr { sz: Sz::X, rt, mem } if mem.base == FP => {
                st.mark_read(mem.off);
                if let Some(&r) = st.int.get(&mem.off) {
                    if r == rt {
                        stats.loads_deleted += 1;
                    } else {
                        stats.loads_forwarded += 1;
                        st.kill_x(rt);
                        out.push(AInst::MovReg { rd: rt, rm: r });
                    }
                    continue;
                }
                st.kill_x(rt);
                st.int.insert(mem.off, rt);
                out.push(inst);
            }
            AInst::LdrF { sz, dt, mem } if mem.base == FP && matches!(sz, Sz::X | Sz::Q) => {
                st.mark_read(mem.off);
                if st.fp.get(&mem.off) == Some(&(dt.0, sz)) {
                    stats.loads_deleted += 1;
                    continue;
                }
                st.kill_d(dt.0);
                st.fp.insert(mem.off, (dt.0, sz));
                out.push(inst);
            }
            // Narrow slot loads: no forwarding (extension semantics), but
            // they do read the slot.
            AInst::Ldr { rt, mem, .. } if mem.base == FP => {
                st.mark_read(mem.off);
                st.kill_x(rt);
                out.push(inst);
            }
            AInst::LdrF { dt, mem, .. } if mem.base == FP => {
                st.mark_read(mem.off);
                st.kill_d(dt.0);
                out.push(inst);
            }

            // ---- slot stores: dedup, record, DSE-candidate -------------
            AInst::Str { sz: Sz::X, rt, mem } if mem.base == FP => {
                if st.int.get(&mem.off) == Some(&rt) {
                    stats.redundant_stores += 1;
                    continue;
                }
                if let Some(prev) = st.pending_store.insert(mem.off, out.len()) {
                    dead.push(prev);
                    stats.dead_stores += 1;
                }
                st.int.insert(mem.off, rt);
                st.fp.remove(&mem.off);
                out.push(inst);
            }
            AInst::StrF { sz, dt, mem } if mem.base == FP && matches!(sz, Sz::X | Sz::Q) => {
                if st.fp.get(&mem.off) == Some(&(dt.0, sz)) {
                    stats.redundant_stores += 1;
                    continue;
                }
                if let Some(prev) = st.pending_store.insert(mem.off, out.len()) {
                    dead.push(prev);
                    stats.dead_stores += 1;
                }
                st.fp.insert(mem.off, (dt.0, sz));
                st.int.remove(&mem.off);
                out.push(inst);
            }
            // Narrow slot stores invalidate knowledge of the slot (they
            // change part of it) and overwrite any pending full store.
            AInst::Str { mem, .. } | AInst::StrF { mem, .. } if mem.base == FP => {
                st.int.remove(&mem.off);
                st.fp.remove(&mem.off);
                // A narrow store does not fully overwrite the slot, so the
                // previous store stays live.
                st.mark_read(mem.off);
                out.push(inst);
            }

            // ---- calls clobber registers and may read frame pointers ----
            AInst::Bl { callee } => {
                let _: ACallee = callee;
                st.clear_regs();
                st.mark_all_read();
                out.push(inst);
            }
            // Exclusives operate on shared memory via register bases; the
            // status/value defs are handled below, but treat them as
            // potential readers to keep DSE maximally conservative.
            AInst::Ldxr { rt, .. } => {
                st.kill_x(rt);
                st.mark_all_read();
                out.push(inst);
            }
            AInst::Stxr { rs, .. } => {
                st.kill_x(rs);
                st.mark_all_read();
                out.push(inst);
            }
            // Loads/stores through non-frame bases address the alloca
            // region, globals, or the heap — never value slots (see module
            // docs) — but they may read alloca memory, so pending stores
            // survive only for slots, which such accesses cannot reach.
            // Register defs still apply.
            _ => {
                if let Some(r) = def_x(&inst) {
                    st.kill_x(r);
                }
                if let Some(d) = def_d(&inst) {
                    st.kill_d(d);
                }
                out.push(inst);
            }
        }
    }

    // Anything still pending at block end is live-out (slots carry values
    // across blocks): keep it. Delete only the overwritten stores.
    dead.sort_unstable();
    for &idx in dead.iter().rev() {
        out.remove(idx);
    }
    // Removing entries shifts indices; `pending_store` indices recorded
    // after a dead entry would be stale, but we only delete entries already
    // collected in `dead`, whose indices were recorded *before* later ones
    // were pushed — reverse-order removal keeps earlier indices valid.
    *insts = out;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{ABlock, AMem, ARet, AluOp, D};

    fn func(insts: Vec<AInst>) -> AFunc {
        AFunc {
            name: "t".into(),
            int_params: 0,
            fp_params: 0,
            frame_size: 64,
            ret: ARet::Void,
            blocks: vec![ABlock {
                insts,
                term: Some(crate::inst::ATerm::Ret),
            }],
        }
    }

    fn slot(off: i32) -> AMem {
        AMem { base: FP, off }
    }

    #[test]
    fn forwards_store_to_load() {
        let mut f = func(vec![
            AInst::Str {
                sz: Sz::X,
                rt: X(9),
                mem: slot(0),
            },
            AInst::Ldr {
                sz: Sz::X,
                rt: X(9),
                mem: slot(0),
            },
            AInst::Ldr {
                sz: Sz::X,
                rt: X(10),
                mem: slot(0),
            },
        ]);
        let s = peephole_function(&mut f, &TraceCtx::disabled());
        assert_eq!(s.loads_deleted, 1);
        assert_eq!(s.loads_forwarded, 1);
        assert_eq!(
            f.blocks[0].insts,
            vec![
                AInst::Str {
                    sz: Sz::X,
                    rt: X(9),
                    mem: slot(0)
                },
                AInst::MovReg {
                    rd: X(10),
                    rm: X(9)
                },
            ]
        );
    }

    #[test]
    fn register_redefinition_blocks_forwarding() {
        let mut f = func(vec![
            AInst::Str {
                sz: Sz::X,
                rt: X(9),
                mem: slot(0),
            },
            AInst::MovImm { rd: X(9), imm: 7 },
            AInst::Ldr {
                sz: Sz::X,
                rt: X(10),
                mem: slot(0),
            },
        ]);
        let s = peephole_function(&mut f, &TraceCtx::disabled());
        assert_eq!(s.loads_forwarded + s.loads_deleted, 0, "{s:?}");
        assert_eq!(f.blocks[0].insts.len(), 3);
    }

    #[test]
    fn narrow_accesses_do_not_forward() {
        let mut f = func(vec![
            AInst::Str {
                sz: Sz::W,
                rt: X(9),
                mem: slot(0),
            },
            AInst::Ldr {
                sz: Sz::X,
                rt: X(9),
                mem: slot(0),
            },
        ]);
        let s = peephole_function(&mut f, &TraceCtx::disabled());
        assert_eq!(s, PeepholeStats::default());
    }

    #[test]
    fn calls_clobber_everything() {
        let mut f = func(vec![
            AInst::Str {
                sz: Sz::X,
                rt: X(9),
                mem: slot(0),
            },
            AInst::Bl {
                callee: ACallee::Extern(0),
            },
            AInst::Ldr {
                sz: Sz::X,
                rt: X(9),
                mem: slot(0),
            },
        ]);
        let s = peephole_function(&mut f, &TraceCtx::disabled());
        assert_eq!(s.loads_deleted + s.loads_forwarded, 0);
    }

    #[test]
    fn dead_store_removed_only_when_overwritten() {
        let mut f = func(vec![
            AInst::Str {
                sz: Sz::X,
                rt: X(9),
                mem: slot(16),
            },
            AInst::Str {
                sz: Sz::X,
                rt: X(10),
                mem: slot(16),
            },
        ]);
        let s = peephole_function(&mut f, &TraceCtx::disabled());
        assert_eq!(s.dead_stores, 1);
        assert_eq!(
            f.blocks[0].insts,
            vec![AInst::Str {
                sz: Sz::X,
                rt: X(10),
                mem: slot(16)
            }]
        );

        // Live-out stores survive.
        let mut f = func(vec![AInst::Str {
            sz: Sz::X,
            rt: X(9),
            mem: slot(16),
        }]);
        let s = peephole_function(&mut f, &TraceCtx::disabled());
        assert_eq!(s.dead_stores, 0);
        assert_eq!(f.blocks[0].insts.len(), 1);
    }

    #[test]
    fn intervening_read_keeps_the_store() {
        let mut f = func(vec![
            AInst::Str {
                sz: Sz::X,
                rt: X(9),
                mem: slot(16),
            },
            AInst::Ldr {
                sz: Sz::X,
                rt: X(11),
                mem: slot(16),
            },
            AInst::Str {
                sz: Sz::X,
                rt: X(10),
                mem: slot(16),
            },
        ]);
        let s = peephole_function(&mut f, &TraceCtx::disabled());
        assert_eq!(s.dead_stores, 0);
        assert_eq!(s.loads_forwarded, 1);
    }

    #[test]
    fn redundant_store_after_load_is_dropped() {
        let mut f = func(vec![
            AInst::Ldr {
                sz: Sz::X,
                rt: X(9),
                mem: slot(0),
            },
            AInst::Alu {
                op: AluOp::Add,
                rd: X(10),
                rn: X(9),
                rm: X(9),
                ra: X::ZR,
            },
            AInst::Str {
                sz: Sz::X,
                rt: X(9),
                mem: slot(0),
            },
        ]);
        let s = peephole_function(&mut f, &TraceCtx::disabled());
        assert_eq!(s.redundant_stores, 1);
        assert_eq!(f.blocks[0].insts.len(), 2);
    }

    #[test]
    fn fp_slots_forward_at_matching_width() {
        let mut f = func(vec![
            AInst::StrF {
                sz: Sz::X,
                dt: D(8),
                mem: slot(0),
            },
            AInst::LdrF {
                sz: Sz::X,
                dt: D(8),
                mem: slot(0),
            },
            AInst::LdrF {
                sz: Sz::W,
                dt: D(8),
                mem: slot(0),
            },
        ]);
        let s = peephole_function(&mut f, &TraceCtx::disabled());
        assert_eq!(s.loads_deleted, 1, "{s:?}");
        assert_eq!(f.blocks[0].insts.len(), 2);
    }

    #[test]
    fn dmb_does_not_block_private_slot_forwarding() {
        let mut f = func(vec![
            AInst::Str {
                sz: Sz::X,
                rt: X(9),
                mem: slot(0),
            },
            AInst::DmbI {
                kind: crate::inst::Dmb::Ff,
            },
            AInst::Ldr {
                sz: Sz::X,
                rt: X(9),
                mem: slot(0),
            },
        ]);
        let s = peephole_function(&mut f, &TraceCtx::disabled());
        assert_eq!(s.loads_deleted, 1);
    }
}
