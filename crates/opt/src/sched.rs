//! Change-driven pass scheduling.
//!
//! The blind fixpoint driver reruns all 13 pipeline slots over every
//! function every round until a whole-round fixpoint. Most of that work is
//! provably idle: a pass that ran clean on a function stays clean until
//! some *other* pass that can feed it new opportunities mutates the
//! function. This module tracks exactly that, per function × pass:
//!
//! * [`PassEffect`] — what a pass invocation did to a function, with
//!   mutation flags decoupled from the reported change count (a pass may
//!   mutate without counting, e.g. sccp's φ pruning, but it must never
//!   mutate while reporting clean).
//! * [`feeds`] — the static pass→pass invalidation matrix: `feeds(p, q)`
//!   says a non-clean run of `p` can expose new work for `q`.
//! * [`FuncState`] — per-function dirty bits over the 11 [`PassKind`]s
//!   plus the function's lazily maintained [`Analyses`] cache.
//! * [`SchedStats`] — counters proving the scheduler skips work
//!   (`ran + skipped` reconciles exactly with the blind driver's
//!   invocation count, and all counters are jobs-invariant).
//!
//! Soundness argument for byte-identity with the blind driver: a (function,
//! pass) pair is skipped only if the pass previously ran *clean* (zero
//! mutation) on that function and no pass with a `feeds` edge into it has
//! mutated the function since. By the matrix's correctness, rerunning the
//! pass would mutate nothing and report 0 changes — so the round's change
//! sum, the round count, and the final module bytes all match the blind
//! driver exactly. Scheduling decisions depend only on per-function pass
//! results, never on cross-function timing, so counters are identical at
//! any `--jobs` value.

use crate::PassKind;
pub use lasagne_lir::analysis::Analyses;

/// Number of distinct passes ([`PassKind::ALL`]).
pub const NPASS: usize = PassKind::ALL.len();

/// What one pass invocation did to one function.
///
/// `changes` is the reported change count, the number the pass functions
/// return; the flags are the scheduler's ground truth. The invariant each
/// pass must uphold: **if `is_clean()` the pass made zero mutations** —
/// the function is byte-identical to its state before the call. The
/// converse need not hold (a pass may mutate more than it counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassEffect {
    /// Reported change count.
    pub changes: usize,
    /// Instructions were added, removed, or rewritten.
    pub changed_insts: bool,
    /// A terminator target changed (branch folded, block unreachable).
    pub changed_cfg: bool,
}

impl PassEffect {
    /// No changes, no mutation.
    pub fn clean() -> PassEffect {
        PassEffect::default()
    }

    /// An instruction-level effect: `n` reported changes, instructions
    /// mutated iff `n > 0`, CFG untouched.
    pub fn insts(n: usize) -> PassEffect {
        PassEffect {
            changes: n,
            changed_insts: n > 0,
            changed_cfg: false,
        }
    }

    /// True iff the pass is known to have made zero mutations.
    pub fn is_clean(&self) -> bool {
        !self.changed_insts && !self.changed_cfg
    }
}

/// Static invalidation matrix: can a non-clean run of `src` expose new
/// opportunities for `dst` on the same function?
///
/// Rows err conservative (`true`) unless there is an argument for `false`.
/// The arguments, per `false` row (see ARCHITECTURE.md "Optimization
/// scheduling" for the full table):
///
/// * **Dce / Adce** only delete instructions with zero uses (resp. no
///   transitive side-effecting use). Deletion cannot create constants to
///   fold (`InstCombine`, `Reassociate`, `Sccp`/`IpSccp`), cannot make a
///   loop-invariant computation appear (`Licm`), and cannot change which
///   scalars dominate (`Gvn` numbering keys never mention use counts) —
///   but deleting a load/store *use* of an alloca can make a slot
///   promotable (`Mem2Reg`, `Sroa`) and can kill the last load between two
///   stores (`Dse`), and `Gvn`'s `load_elim` availability walk sees the
///   deleted memory ops, so those edges stay `true`. Self-edges are
///   `false`: both run an internal fixpoint to closure.
/// * **Licm** moves instructions between blocks and LVN-dedups the
///   preheader — value-level rewrites (`true` into the dead-value passes,
///   `Gvn`, `Dse` via reordered memory ops, `InstCombine`, and itself) but
///   it never changes an alloca use's *kind* (`Mem2Reg`/`Sroa` classify
///   use shapes, which moves preserve; dedup replaces a duplicate with an
///   identical original, leaving shapes intact), creates no constants
///   (`Sccp`), and cannot make `(x∘c1)∘c2` match when it didn't
///   (`Reassociate` — a dedup swaps one instruction id for an identical
///   instruction).
/// * **Reassociate** rewrites `(x∘c1)∘c2` in place to `x∘(c1∘c2)` — pure
///   scalar restructuring: no memory ops touched (`Mem2Reg`, `Sroa`, `Dse`
///   stay clean), no constants materialize that sccp's lattice could use
///   that `InstCombine` wouldn't fold first, but the freed inner value can
///   become dead (`Dce`/`Adce`) and the new shape re-keys `Gvn` and chains
///   for another `InstCombine`/`Reassociate`/`Licm` look.
/// * **Dse** deletes dead stores and dead-slot accesses: deletion can
///   unblock promotion (a deleted store may have been the one storing an
///   alloca's pointer *as a value*, so `Mem2Reg` and `Sroa` stay `true`)
///   and feeds the dead-value passes, `Gvn`'s availability walk, `Licm`'s
///   loop-writes check, and itself — but it creates no scalar structure
///   (`Reassociate`, `Sccp` stay `false`).
///
/// If a future pass invalidates these arguments, flip the edge to `true`;
/// the qc byte-identity suite (`sched_equiv.rs`) is the enforcement.
pub fn feeds(src: PassKind, dst: PassKind) -> bool {
    use PassKind::*;
    match src {
        // Structural rewriters: assume worst case.
        InstCombine | Gvn | Mem2Reg | Sroa | Sccp | IpSccp => true,
        Dce | Adce => matches!(dst, Gvn | Mem2Reg | Sroa | Dse),
        Licm => matches!(dst, InstCombine | Dce | Adce | Licm | Gvn | Dse),
        Reassociate => matches!(dst, InstCombine | Dce | Adce | Licm | Reassociate | Gvn),
        Dse => matches!(
            dst,
            InstCombine | Dce | Adce | Licm | Gvn | Mem2Reg | Sroa | Dse
        ),
    }
}

/// Per-function scheduling state: which passes must still run, plus the
/// function's analysis cache.
#[derive(Debug, Default)]
pub struct FuncState {
    dirty: [bool; NPASS],
    /// Lazily built analyses, threaded through every pass invocation on
    /// this function and invalidated by reported effects.
    pub analyses: Analyses,
}

impl FuncState {
    /// Fresh state: every pass is dirty (must run at least once).
    pub fn new() -> FuncState {
        FuncState {
            dirty: [true; NPASS],
            analyses: Analyses::new(),
        }
    }

    /// Whether pass `p` has pending work on this function.
    pub fn should_run(&self, p: PassKind) -> bool {
        self.dirty[p.index()]
    }

    /// Records that `p` ran with effect `eff`: clears `p`'s dirty bit
    /// (and its twin's — `Sccp` and `IpSccp` dispatch to the same
    /// per-function computation, so either run discharges both), then
    /// re-dirties every pass `q` with `feeds(p, q)` if the run mutated.
    pub fn note_ran(&mut self, p: PassKind, eff: &PassEffect) {
        self.dirty[p.index()] = false;
        match p {
            PassKind::Sccp => self.dirty[PassKind::IpSccp.index()] = false,
            PassKind::IpSccp => self.dirty[PassKind::Sccp.index()] = false,
            _ => {}
        }
        if !eff.is_clean() {
            for (qi, q) in PassKind::ALL.iter().enumerate() {
                if feeds(p, *q) {
                    self.dirty[qi] = true;
                }
            }
            // A mutating pass never discharges itself unless its own
            // self-edge is false (Dce/Adce run to internal fixpoint).
        }
    }

    /// An external mutation (ipSCCP fact substitution) touched the
    /// function: everything must be reconsidered, and cached analyses are
    /// stale.
    pub fn note_external_change(&mut self) {
        self.dirty = [true; NPASS];
        self.analyses.invalidate_all();
    }

    /// Whether every pass has run clean: the function is converged and
    /// whole rounds over it can be skipped.
    pub fn is_converged(&self) -> bool {
        self.dirty.iter().all(|d| !d)
    }
}

/// Scheduler counters. All are jobs-invariant (scheduling depends only on
/// per-function results) and reconcile with the blind driver:
/// `ran + skipped == 13 × nfuncs × rounds`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Total reported changes.
    pub changes: usize,
    /// (function, pass-slot) pairs actually executed.
    pub ran: u64,
    /// (function, pass-slot) pairs skipped as provably clean.
    pub skipped: u64,
    /// Function-rounds fully skipped because the function was converged
    /// at round start.
    pub retired: u64,
    /// Rounds executed (matches the blind driver's round count).
    pub rounds: u64,
    /// Functions compacted at pipeline end.
    pub compacted: u64,
    /// Functions whose `compact()` was skipped as a provable no-op.
    pub compact_skipped: u64,
}

/// Number of changes-per-invocation histogram buckets
/// (see [`hist_bucket`]).
pub const HIST_BUCKETS: usize = 5;

/// Maps a pass invocation's reported change count to its histogram
/// bucket: `0`, `1`, `2–3`, `4–7`, `≥8`.
pub fn hist_bucket(changes: usize) -> usize {
    match changes {
        0 => 0,
        1 => 1,
        2..=3 => 2,
        4..=7 => 3,
        _ => 4,
    }
}

impl SchedStats {
    /// Accumulates `other` into `self` (for merging per-shard stats).
    pub fn merge(&mut self, other: &SchedStats) {
        self.changes += other.changes;
        self.ran += other.ran;
        self.skipped += other.skipped;
        self.retired += other.retired;
        self.rounds = self.rounds.max(other.rounds);
        self.compacted += other.compacted;
        self.compact_skipped += other.compact_skipped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_index_covers_all() {
        for (i, p) in PassKind::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn clean_run_clears_dirty_bit() {
        let mut st = FuncState::new();
        assert!(st.should_run(PassKind::Dce));
        st.note_ran(PassKind::Dce, &PassEffect::clean());
        assert!(!st.should_run(PassKind::Dce));
    }

    #[test]
    fn sccp_and_ipsccp_are_twins() {
        let mut st = FuncState::new();
        st.note_ran(PassKind::Sccp, &PassEffect::clean());
        assert!(!st.should_run(PassKind::IpSccp));
        let mut st = FuncState::new();
        st.note_ran(PassKind::IpSccp, &PassEffect::clean());
        assert!(!st.should_run(PassKind::Sccp));
    }

    #[test]
    fn mutation_redirties_fed_passes_only() {
        let mut st = FuncState::new();
        // Run everything clean first.
        for p in PassKind::ALL {
            st.note_ran(p, &PassEffect::clean());
        }
        assert!(st.is_converged());
        // A mutating Dce re-dirties exactly its fed set.
        st.note_ran(PassKind::Dce, &PassEffect::insts(1));
        for q in PassKind::ALL {
            assert_eq!(
                st.should_run(q),
                feeds(PassKind::Dce, q),
                "dirty({q:?}) after mutating Dce"
            );
        }
    }

    #[test]
    fn dce_self_edge_is_false_structural_rewriters_worst_case() {
        assert!(!feeds(PassKind::Dce, PassKind::Dce));
        assert!(!feeds(PassKind::Adce, PassKind::Adce));
        for q in PassKind::ALL {
            assert!(feeds(PassKind::InstCombine, q));
            assert!(feeds(PassKind::Sccp, q));
            assert!(feeds(PassKind::Gvn, q));
            assert!(feeds(PassKind::Mem2Reg, q));
            assert!(feeds(PassKind::Sroa, q));
            assert!(feeds(PassKind::IpSccp, q));
        }
    }

    #[test]
    fn sccp_and_ipsccp_matrix_columns_match() {
        // note_ran clears both twins at once, which is only sound if every
        // row dirties them in lockstep.
        for p in PassKind::ALL {
            assert_eq!(
                feeds(p, PassKind::Sccp),
                feeds(p, PassKind::IpSccp),
                "{p:?}"
            );
        }
    }

    #[test]
    fn external_change_dirties_everything() {
        let mut st = FuncState::new();
        for p in PassKind::ALL {
            st.note_ran(p, &PassEffect::clean());
        }
        st.note_external_change();
        for p in PassKind::ALL {
            assert!(st.should_run(p));
        }
    }
}
