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
        stats.add(peephole_function(f));
    }
    stats
}

/// Runs the peephole over one function and returns what it rewrote.
///
/// Frame slots are private to the function, so the peephole never looks
/// outside `f` — distinct functions may be cleaned concurrently, and
/// [`peephole_module`] equals running this on every function in any order.
pub fn peephole_function(f: &mut AFunc) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    let mut st = SlotState::new(f);
    for b in &mut f.blocks {
        stats.add(clean_block(&mut b.insts, &mut st));
    }
    stats
}

/// Maps the function's `[x29, #off]` offsets to dense table indices.
enum SlotIndex {
    /// `(off - base) / stride`. Lowered frames address slots at a fixed
    /// stride, so the table holds about one entry per slot half.
    Strided { base: i64, stride: i64 },
    /// Sorted distinct offsets, for hand-built functions whose offsets
    /// are too sparse for a strided table.
    Sparse(Vec<i32>),
}

impl SlotIndex {
    /// Indexes every frame offset `f` addresses; also returns the table
    /// length.
    fn new(f: &AFunc) -> (SlotIndex, usize) {
        let offs = || {
            f.blocks
                .iter()
                .flat_map(|b| &b.insts)
                .filter_map(|i| match i {
                    AInst::Ldr { mem, .. }
                    | AInst::Str { mem, .. }
                    | AInst::LdrF { mem, .. }
                    | AInst::StrF { mem, .. }
                        if mem.base == FP =>
                    {
                        Some(i64::from(mem.off))
                    }
                    _ => None,
                })
        };
        let (mut min, mut max, mut stride, mut count) = (i64::MAX, i64::MIN, 0i64, 0usize);
        let mut first = None;
        for off in offs() {
            let first = *first.get_or_insert(off);
            min = min.min(off);
            max = max.max(off);
            stride = gcd(stride, (off - first).abs());
            count += 1;
        }
        if count == 0 {
            return (SlotIndex::Strided { base: 0, stride: 1 }, 0);
        }
        let stride = stride.max(1);
        let len = (max - min) / stride + 1;
        if len <= 2 * count as i64 + 64 {
            return (SlotIndex::Strided { base: min, stride }, len as usize);
        }
        let mut sorted: Vec<i32> = offs().map(|o| o as i32).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let len = sorted.len();
        (SlotIndex::Sparse(sorted), len)
    }

    fn get(&self, off: i32) -> usize {
        match self {
            SlotIndex::Strided { base, stride } => ((i64::from(off) - base) / stride) as usize,
            SlotIndex::Sparse(sorted) => sorted
                .binary_search(&off)
                .expect("every frame offset was indexed"),
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Forward dataflow state for one function's blocks, one table entry per
/// frame offset. Every access is O(1): an entry is valid only while its
/// stamp is newer than the last kill of its register (or the last reset),
/// so killing a register or starting a block bumps a stamp instead of
/// sweeping the tables. The clock advances at most three times per
/// instruction and twice per block of one function, so it cannot wrap.
struct SlotState {
    index: SlotIndex,
    /// Slot → integer register known to hold the slot's 64-bit value
    /// (only `Sz::X` accesses participate), with its stamp.
    int: Vec<(X, u32)>,
    /// Slot → FP register known to hold the slot's value, with the access
    /// width it was established at (`Sz::X` scalars, `Sz::Q` vectors) and
    /// its stamp.
    fp: Vec<(u8, Sz, u32)>,
    /// Slot → index into the output vector of the latest not-yet-read
    /// store (a dead-store candidate), with its stamp.
    pending_store: Vec<(usize, u32)>,
    /// Stamp of the last kill of each integer / FP register.
    killed_x: [u32; 256],
    killed_d: [u32; 256],
    /// Stamps of the last register clear and the last "all slots read".
    regs_cleared: u32,
    all_read: u32,
    clock: u32,
}

impl SlotState {
    fn new(f: &AFunc) -> SlotState {
        let (index, len) = SlotIndex::new(f);
        SlotState {
            index,
            int: vec![(X(0), 0); len],
            fp: vec![(0, Sz::X, 0); len],
            pending_store: vec![(0, 0); len],
            killed_x: [0; 256],
            killed_d: [0; 256],
            regs_cleared: 0,
            all_read: 0,
            clock: 0,
        }
    }

    fn tick(&mut self) -> u32 {
        self.clock += 1;
        self.clock
    }

    /// Forgets everything: the state at the top of a block.
    fn reset(&mut self) {
        self.clear_regs();
        self.mark_all_read();
    }

    fn int_get(&self, off: i32) -> Option<X> {
        let (r, t) = self.int[self.index.get(off)];
        (t > self.regs_cleared && t > self.killed_x[r.0 as usize]).then_some(r)
    }

    fn int_set(&mut self, off: i32, r: X) {
        let i = self.index.get(off);
        self.int[i] = (r, self.tick());
    }

    fn int_remove(&mut self, off: i32) {
        let i = self.index.get(off);
        self.int[i].1 = 0;
    }

    fn fp_get(&self, off: i32) -> Option<(u8, Sz)> {
        let (d, sz, t) = self.fp[self.index.get(off)];
        (t > self.regs_cleared && t > self.killed_d[d as usize]).then_some((d, sz))
    }

    fn fp_set(&mut self, off: i32, d: u8, sz: Sz) {
        let i = self.index.get(off);
        self.fp[i] = (d, sz, self.tick());
    }

    fn fp_remove(&mut self, off: i32) {
        let i = self.index.get(off);
        self.fp[i].2 = 0;
    }

    fn kill_x(&mut self, r: X) {
        self.killed_x[r.0 as usize] = self.tick();
    }

    fn kill_d(&mut self, d: u8) {
        self.killed_d[d as usize] = self.tick();
    }

    fn clear_regs(&mut self) {
        self.regs_cleared = self.tick();
    }

    /// A slot was (possibly) read: its pending store is live after all.
    fn mark_read(&mut self, off: i32) {
        let i = self.index.get(off);
        self.pending_store[i].1 = 0;
    }

    /// Any instruction that may observe frame memory (calls which may take
    /// alloca-derived pointers, exclusives, returns handled at block end).
    fn mark_all_read(&mut self) {
        self.all_read = self.tick();
    }

    /// Records the store at output index `at` as the slot's pending store,
    /// returning the one it overwrites unread.
    fn replace_pending(&mut self, off: i32, at: usize) -> Option<usize> {
        let i = self.index.get(off);
        let (prev, t) = self.pending_store[i];
        self.pending_store[i] = (at, self.tick());
        (t > self.all_read).then_some(prev)
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
fn clean_block(insts: &mut Vec<AInst>, st: &mut SlotState) -> PeepholeStats {
    let mut stats = PeepholeStats::default();
    st.reset();
    let mut out: Vec<AInst> = Vec::with_capacity(insts.len());
    // Indices into `out` scheduled for deletion (dead stores).
    let mut dead: Vec<usize> = Vec::new();

    for inst in insts.drain(..) {
        match inst {
            // ---- slot loads: forward or delete -------------------------
            AInst::Ldr { sz: Sz::X, rt, mem } if mem.base == FP => {
                st.mark_read(mem.off);
                if let Some(r) = st.int_get(mem.off) {
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
                st.int_set(mem.off, rt);
                out.push(inst);
            }
            AInst::LdrF { sz, dt, mem } if mem.base == FP && matches!(sz, Sz::X | Sz::Q) => {
                st.mark_read(mem.off);
                if st.fp_get(mem.off) == Some((dt.0, sz)) {
                    stats.loads_deleted += 1;
                    continue;
                }
                st.kill_d(dt.0);
                st.fp_set(mem.off, dt.0, sz);
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
                if st.int_get(mem.off) == Some(rt) {
                    stats.redundant_stores += 1;
                    continue;
                }
                if let Some(prev) = st.replace_pending(mem.off, out.len()) {
                    dead.push(prev);
                    stats.dead_stores += 1;
                }
                st.int_set(mem.off, rt);
                st.fp_remove(mem.off);
                out.push(inst);
            }
            AInst::StrF { sz, dt, mem } if mem.base == FP && matches!(sz, Sz::X | Sz::Q) => {
                if st.fp_get(mem.off) == Some((dt.0, sz)) {
                    stats.redundant_stores += 1;
                    continue;
                }
                if let Some(prev) = st.replace_pending(mem.off, out.len()) {
                    dead.push(prev);
                    stats.dead_stores += 1;
                }
                st.fp_set(mem.off, dt.0, sz);
                st.int_remove(mem.off);
                out.push(inst);
            }
            // Narrow slot stores invalidate knowledge of the slot (they
            // change part of it) and overwrite any pending full store.
            AInst::Str { mem, .. } | AInst::StrF { mem, .. } if mem.base == FP => {
                st.int_remove(mem.off);
                st.fp_remove(mem.off);
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
    // across blocks): keep it. Delete only the overwritten stores, in one
    // mark-and-retain pass.
    if !dead.is_empty() {
        let mut drop = vec![false; out.len()];
        for &idx in &dead {
            drop[idx] = true;
        }
        let mut idx = 0;
        out.retain(|_| {
            idx += 1;
            !drop[idx - 1]
        });
    }
    *insts = out;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{ABlock, AMem, ARet, AluOp, D};
    use std::collections::BTreeMap;

    /// The per-block forward dataflow state of the reference algorithm.
    #[derive(Default)]
    struct RefState {
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

    impl RefState {
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

    /// The original algorithm: ordered maps swept on every register kill
    /// and one `remove` per dead store. The randomised test below checks
    /// [`clean_block`] against it.
    #[allow(clippy::too_many_lines)]
    fn clean_block_reference(insts: &mut Vec<AInst>) -> PeepholeStats {
        let mut stats = PeepholeStats::default();
        let mut st = RefState::default();
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
        let s = peephole_function(&mut f);
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
        let s = peephole_function(&mut f);
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
        let s = peephole_function(&mut f);
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
        let s = peephole_function(&mut f);
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
        let s = peephole_function(&mut f);
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
        let s = peephole_function(&mut f);
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
        let s = peephole_function(&mut f);
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
        let s = peephole_function(&mut f);
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
        let s = peephole_function(&mut f);
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
        let s = peephole_function(&mut f);
        assert_eq!(s.loads_deleted, 1);
    }

    /// Random frame traffic (full and narrow slot accesses at a handful of
    /// offsets, register defs, calls, exclusives, barriers and non-frame
    /// accesses) over several blocks cleans to the same instructions, with
    /// the same stats, as the reference algorithm. Some functions add a
    /// far-away offset so the sparse slot index is exercised too.
    #[test]
    fn table_state_matches_reference_algorithm() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        let mut total = PeepholeStats::default();
        for round in 0..400 {
            let far = round % 5 == 0;
            let mut blocks = Vec::new();
            for _ in 0..1 + next(4) {
                let mut insts = Vec::new();
                for _ in 0..next(40) {
                    let off = if far && next(8) == 0 {
                        1 << 24
                    } else {
                        [0, 8, 16, 24, 32, 36, 48][next(7) as usize]
                    };
                    let base = if next(6) == 0 { X(9) } else { FP };
                    let mem = AMem { base, off };
                    let rt = X(9 + next(4) as u8);
                    let dt = D(8 + next(2) as u8);
                    let sz = [Sz::X, Sz::X, Sz::X, Sz::W, Sz::B, Sz::Q][next(6) as usize];
                    insts.push(match next(14) {
                        0..=2 => AInst::Ldr { sz, rt, mem },
                        3..=5 => AInst::Str { sz, rt, mem },
                        6 => AInst::LdrF { sz, dt, mem },
                        7 => AInst::StrF { sz, dt, mem },
                        8 => AInst::MovImm { rd: rt, imm: 1 },
                        9 => AInst::FMovFromX { dd: dt, rn: rt },
                        10 => AInst::Bl {
                            callee: ACallee::Extern(0),
                        },
                        11 => AInst::Ldxr {
                            sz: Sz::X,
                            rt,
                            rn: X(9),
                        },
                        12 => AInst::Stxr {
                            sz: Sz::X,
                            rs: rt,
                            rt: X(12),
                            rn: X(9),
                        },
                        _ => AInst::DmbI {
                            kind: crate::inst::Dmb::Ff,
                        },
                    });
                }
                blocks.push(ABlock {
                    insts,
                    term: Some(crate::inst::ATerm::Ret),
                });
            }
            let mut f = func(Vec::new());
            f.blocks = blocks;
            let mut want = f.blocks.clone();
            let want_stats = want
                .iter_mut()
                .fold(PeepholeStats::default(), |mut acc, b| {
                    acc.add(clean_block_reference(&mut b.insts));
                    acc
                });
            let stats = peephole_function(&mut f);
            assert_eq!(stats, want_stats, "round {round}");
            for (got, want) in f.blocks.iter().zip(&want) {
                assert_eq!(got.insts, want.insts, "round {round}");
            }
            total.add(stats);
        }
        // Every rewrite fired somewhere, so the comparison covered each.
        assert!(
            total.loads_forwarded > 0
                && total.loads_deleted > 0
                && total.redundant_stores > 0
                && total.dead_stores > 0,
            "{total:?}"
        );
    }
}
