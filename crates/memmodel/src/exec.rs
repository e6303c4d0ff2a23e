//! Litmus programs, events, and exhaustive execution enumeration (§6.1).
//!
//! A [`Program`] is a set of initialising writes plus straight-line threads
//! of loads, stores, RMWs and fences. [`enumerate_executions`] produces
//! every candidate execution — all reads-from choices and all coherence
//! orders — which a model then filters for consistency.

use crate::rel::Rel;
use lasagne_pool::Pool;
use std::collections::BTreeMap;

/// A shared memory location.
pub type Loc = u8;
/// A thread-local register name.
pub type Reg = u8;

/// Fences across all three ISAs/models (each model accepts its own subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FenceTy {
    /// x86 `MFENCE`.
    Mfence,
    /// LIMM `Frm`.
    Frm,
    /// LIMM `Fww`.
    Fww,
    /// LIMM `Fsc`.
    Fsc,
    /// Arm `DMB FF` (full).
    DmbFf,
    /// Arm `DMB LD`.
    DmbLd,
    /// Arm `DMB ST`.
    DmbSt,
}

/// One operation in a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load `x` into register `r`.
    Ld {
        /// Destination register.
        r: Reg,
        /// Location.
        x: Loc,
    },
    /// Store constant `v` to `x`.
    St {
        /// Location.
        x: Loc,
        /// Stored value.
        v: u64,
    },
    /// Atomic compare-exchange on `x`: if the value read equals `expect`,
    /// write `new` (success); otherwise only the read happens. The value
    /// read lands in register `r`.
    Rmw {
        /// Destination register for the read value.
        r: Reg,
        /// Location.
        x: Loc,
        /// Expected value.
        expect: u64,
        /// Replacement value.
        new: u64,
    },
    /// A fence.
    Fence(FenceTy),
    /// Arm load-acquire (`ldar`, Appendix A): orders this read before every
    /// po-later access.
    LdA {
        /// Destination register.
        r: Reg,
        /// Location.
        x: Loc,
    },
    /// Arm store-release (`stlr`, Appendix A): orders every po-earlier
    /// access before this write.
    StR {
        /// Location.
        x: Loc,
        /// Stored value.
        v: u64,
    },
    /// An RMW implemented with acquire/release exclusives
    /// (`ldaxr`/`stlxr`) instead of surrounding full barriers — the
    /// alternative lowering the Appendix A ablation studies.
    RmwAr {
        /// Destination register for the read value.
        r: Reg,
        /// Location.
        x: Loc,
        /// Expected value.
        expect: u64,
        /// Replacement value.
        new: u64,
    },
}

/// A litmus program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Number of shared locations (initialised to zero).
    pub locs: u8,
    /// Threads of straight-line operations.
    pub threads: Vec<Vec<Op>>,
}

/// An event label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lab {
    /// Read of `x` returning `v`; `sc` marks an RMW-origin (seq_cst) read,
    /// `acq` a load-acquire (Appendix A).
    R {
        /// Location.
        x: Loc,
        /// Value read.
        v: u64,
        /// From an RMW (seq_cst access).
        sc: bool,
        /// Acquire semantics (`ldar`/`ldaxr`).
        acq: bool,
    },
    /// Write of `v` to `x`; `sc` marks an RMW-origin write, `rel` a
    /// store-release (Appendix A).
    W {
        /// Location.
        x: Loc,
        /// Value written.
        v: u64,
        /// From an RMW.
        sc: bool,
        /// Release semantics (`stlr`/`stlxr`).
        rel: bool,
    },
    /// Fence.
    F(FenceTy),
}

impl Lab {
    /// Location accessed, if a memory event.
    pub fn loc(&self) -> Option<Loc> {
        match self {
            Lab::R { x, .. } | Lab::W { x, .. } => Some(*x),
            Lab::F(_) => None,
        }
    }

    /// Whether this is a read.
    pub fn is_read(&self) -> bool {
        matches!(self, Lab::R { .. })
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        matches!(self, Lab::W { .. })
    }
}

/// An event: `⟨id, tid, lab⟩`. Thread id 0 is the initialisation pseudo-
/// thread; program threads are numbered from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Index into the execution's event vector.
    pub id: usize,
    /// Thread id (0 = initialisation).
    pub tid: usize,
    /// Label.
    pub lab: Lab,
}

/// A candidate execution: events plus the `po`, `rf`, `co`, `rmw` relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// Events (initialisation writes first).
    pub events: Vec<Event>,
    /// Program order (strict, total per thread; init writes precede all).
    pub po: Rel,
    /// Reads-from.
    pub rf: Rel,
    /// Coherence order (strict total order per location).
    pub co: Rel,
    /// RMW pairs.
    pub rmw: Rel,
    /// Final register values, keyed by `(thread, register)`.
    pub regs: BTreeMap<(usize, Reg), u64>,
}

impl Execution {
    /// `fr ≜ rf⁻¹ ; co`
    pub fn fr(&self) -> Rel {
        self.rf.inverse().compose(&self.co)
    }

    /// Restriction of a relation to same-location event pairs.
    pub fn same_loc(&self, r: &Rel) -> Rel {
        let mut out = Rel::new(self.events.len());
        for (a, b) in r.pairs() {
            if let (Some(x), Some(y)) = (self.events[a].lab.loc(), self.events[b].lab.loc()) {
                if x == y {
                    out.add(a, b);
                }
            }
        }
        out
    }

    /// External part of a relation (pairs not related by po either way).
    pub fn external(&self, r: &Rel) -> Rel {
        let mut out = Rel::new(self.events.len());
        for (a, b) in r.pairs() {
            if !self.po.has(a, b) && !self.po.has(b, a) {
                out.add(a, b);
            }
        }
        out
    }

    /// The behavior (paper §6.1): final value of each location, i.e. the
    /// value of the co-maximal write per location.
    pub fn behavior(&self) -> BTreeMap<Loc, u64> {
        let mut out = BTreeMap::new();
        for e in &self.events {
            if let Lab::W { x, v, .. } = e.lab {
                let is_max = !self.co.pairs().iter().any(|(a, _)| *a == e.id);
                if is_max {
                    out.insert(x, v);
                }
            }
        }
        out
    }
}

/// The observable outcome of an execution: final registers + final memory.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Outcome {
    /// Final register values per `(thread, register)`.
    pub regs: Vec<((usize, Reg), u64)>,
    /// Final memory values per location.
    pub mem: Vec<(Loc, u64)>,
}

impl Outcome {
    /// Builds the outcome of an execution.
    pub fn of(x: &Execution) -> Outcome {
        Outcome {
            regs: x.regs.iter().map(|(k, v)| (*k, *v)).collect(),
            mem: x.behavior().into_iter().collect(),
        }
    }
}

/// Enumerates every candidate execution of `prog`: all combinations of RMW
/// success/failure, reads-from choices, and per-location coherence orders.
/// Apply a model's consistency check to filter.
pub fn enumerate_executions(prog: &Program) -> Vec<Execution> {
    let mut out = Vec::new();
    for success_bits in 0..(1u32 << count_rmws(prog)) {
        let skel = build_skeleton(prog, success_bits);
        enumerate_skeleton(&skel, &[], &mut out);
    }
    out
}

/// One independent slice of a program's candidate-execution space: an RMW
/// success/failure assignment plus (when the program has reads) a pinned
/// reads-from choice for the *first* read. Every candidate execution
/// belongs to exactly one partition, and enumerating the partitions in
/// [`execution_partitions`] order concatenates to exactly the
/// [`enumerate_executions`] sequence — which is what lets a worker pool
/// split one program's enumeration without changing a single byte of
/// downstream output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPartition {
    /// RMW success/failure assignment (bit per RMW, in program order).
    success_bits: u32,
    /// Pinned rf choice (event id of the write) for the first read;
    /// `None` when the program has no reads under this RMW assignment.
    first_rf: Option<usize>,
}

/// Splits `prog`'s candidate-execution space into independently
/// enumerable partitions, in serial enumeration order: RMW assignments
/// ascending, then the first read's candidate writes in `writes_of`
/// (event id) order.
///
/// # Panics
///
/// Panics if the program has more than 8 RMWs (the enumeration bound).
pub fn execution_partitions(prog: &Program) -> Vec<ExecPartition> {
    let mut parts = Vec::new();
    for success_bits in 0..(1u32 << count_rmws(prog)) {
        let skel = build_skeleton(prog, success_bits);
        match skel.reads.first() {
            None => parts.push(ExecPartition {
                success_bits,
                first_rf: None,
            }),
            Some(&r) => {
                let Lab::R { x, .. } = skel.events[r].lab else {
                    unreachable!()
                };
                for w in writes_of(&skel.events, x) {
                    parts.push(ExecPartition {
                        success_bits,
                        first_rf: Some(w),
                    });
                }
            }
        }
    }
    parts
}

/// Enumerates the candidate executions of one partition, in the same
/// relative order [`enumerate_executions`] emits them. A partition can be
/// empty — its pinned rf choice may violate every RMW constraint.
pub fn enumerate_partition(prog: &Program, part: ExecPartition) -> Vec<Execution> {
    let skel = build_skeleton(prog, part.success_bits);
    let mut out = Vec::new();
    match part.first_rf {
        None => enumerate_skeleton(&skel, &[], &mut out),
        Some(w) => enumerate_skeleton(&skel, &[w], &mut out),
    }
    out
}

/// [`enumerate_executions`] with the partitions fanned out over up to
/// `jobs` workers of `pool` — same executions, same order, for every
/// `jobs` value: the partition list follows serial enumeration order and
/// the per-partition results are concatenated by partition index. The
/// litmus sweeps call this from inside pipeline work items; submitting to
/// the same pool (rather than spawning scoped threads) keeps one set of
/// worker threads busy across the nesting — a worker that hits this fan
/// out pushes the partitions onto its own deque and idle siblings steal
/// them.
pub fn enumerate_executions_par(pool: &Pool, jobs: usize, prog: &Program) -> Vec<Execution> {
    let parts = execution_partitions(prog);
    pool.par_map(jobs, parts, |_, p| enumerate_partition(prog, p))
        .into_iter()
        .flatten()
        .collect()
}

fn count_rmws(prog: &Program) -> usize {
    let n_rmws: usize = prog
        .threads
        .iter()
        .flatten()
        .filter(|op| matches!(op, Op::Rmw { .. } | Op::RmwAr { .. }))
        .count();
    assert!(n_rmws <= 8, "too many RMWs to enumerate");
    n_rmws
}

/// Same-location writes a read of `x` may take its value from, in event
/// id order — the enumeration order of rf choices.
fn writes_of(events: &[Event], x: Loc) -> Vec<usize> {
    (0..events.len())
        .filter(|i| matches!(events[*i].lab, Lab::W { x: wx, .. } if wx == x))
        .collect()
}

/// The per-RMW-assignment enumeration scaffold: events and the fixed
/// relations (`po`, `rmw`), plus the read list and RMW constraints the
/// rf/coherence product is built over.
struct Skeleton {
    events: Vec<Event>,
    po: Rel,
    rmw: Rel,
    read_regs: Vec<(usize, usize, Reg)>,
    rmw_constraints: Vec<(usize, u64, bool)>,
    reads: Vec<usize>,
}

fn build_skeleton(prog: &Program, success_bits: u32) -> Skeleton {
    // Generate events.
    let mut events: Vec<Event> = Vec::new();
    let mut po_pairs: Vec<(usize, usize)> = Vec::new();
    let mut rmw_pairs: Vec<(usize, usize)> = Vec::new();
    // (event index of read, register, thread) for register outcomes.
    let mut read_regs: Vec<(usize, usize, Reg)> = Vec::new();
    // Which rmw reads must succeed (read value == expect) / must fail.
    let mut rmw_constraints: Vec<(usize, u64, bool)> = Vec::new();

    // Init writes.
    for x in 0..prog.locs {
        let id = events.len();
        events.push(Event {
            id,
            tid: 0,
            lab: Lab::W {
                x,
                v: 0,
                sc: false,
                rel: false,
            },
        });
    }
    let mut rmw_idx = 0usize;
    for (t, ops) in prog.threads.iter().enumerate() {
        let tid = t + 1;
        let mut prev: Vec<usize> = Vec::new();
        for op in ops {
            let push = |events: &mut Vec<Event>, lab: Lab| {
                let id = events.len();
                events.push(Event { id, tid, lab });
                id
            };
            match op {
                Op::Ld { r, x } => {
                    let id = push(
                        &mut events,
                        Lab::R {
                            x: *x,
                            v: 0,
                            sc: false,
                            acq: false,
                        },
                    );
                    read_regs.push((id, tid, *r));
                    prev.push(id);
                }
                Op::LdA { r, x } => {
                    let id = push(
                        &mut events,
                        Lab::R {
                            x: *x,
                            v: 0,
                            sc: false,
                            acq: true,
                        },
                    );
                    read_regs.push((id, tid, *r));
                    prev.push(id);
                }
                Op::St { x, v } => {
                    let id = push(
                        &mut events,
                        Lab::W {
                            x: *x,
                            v: *v,
                            sc: false,
                            rel: false,
                        },
                    );
                    prev.push(id);
                }
                Op::StR { x, v } => {
                    let id = push(
                        &mut events,
                        Lab::W {
                            x: *x,
                            v: *v,
                            sc: false,
                            rel: true,
                        },
                    );
                    prev.push(id);
                }
                Op::Rmw { r, x, expect, new } => {
                    let succeed = success_bits & (1 << rmw_idx) != 0;
                    rmw_idx += 1;
                    let rid = push(
                        &mut events,
                        Lab::R {
                            x: *x,
                            v: 0,
                            sc: true,
                            acq: false,
                        },
                    );
                    read_regs.push((rid, tid, *r));
                    rmw_constraints.push((rid, *expect, succeed));
                    prev.push(rid);
                    if succeed {
                        let wid = push(
                            &mut events,
                            Lab::W {
                                x: *x,
                                v: *new,
                                sc: true,
                                rel: false,
                            },
                        );
                        rmw_pairs.push((rid, wid));
                        prev.push(wid);
                    }
                }
                Op::RmwAr { r, x, expect, new } => {
                    let succeed = success_bits & (1 << rmw_idx) != 0;
                    rmw_idx += 1;
                    let rid = push(
                        &mut events,
                        Lab::R {
                            x: *x,
                            v: 0,
                            sc: false,
                            acq: true,
                        },
                    );
                    read_regs.push((rid, tid, *r));
                    rmw_constraints.push((rid, *expect, succeed));
                    prev.push(rid);
                    if succeed {
                        let wid = push(
                            &mut events,
                            Lab::W {
                                x: *x,
                                v: *new,
                                sc: false,
                                rel: true,
                            },
                        );
                        rmw_pairs.push((rid, wid));
                        prev.push(wid);
                    }
                }
                Op::Fence(ft) => {
                    let id = push(&mut events, Lab::F(*ft));
                    prev.push(id);
                }
            }
        }
        for i in 0..prev.len() {
            for j in i + 1..prev.len() {
                po_pairs.push((prev[i], prev[j]));
            }
        }
    }
    // Init writes po-precede everything (modelled as po from init to all).
    let n = events.len();
    let mut po = Rel::new(n);
    for x in 0..prog.locs as usize {
        for e in prog.locs as usize..n {
            po.add(x, e);
        }
    }
    for (a, b) in po_pairs {
        po.add(a, b);
    }
    let mut rmw = Rel::new(n);
    for (a, b) in &rmw_pairs {
        rmw.add(*a, *b);
    }

    let reads: Vec<usize> = (0..n).filter(|i| events[*i].lab.is_read()).collect();
    Skeleton {
        events,
        po,
        rmw,
        read_regs,
        rmw_constraints,
        reads,
    }
}

/// Enumerates the rf × coherence product over `skel`, appending every
/// candidate execution to `out`. `rf_prefix` pins the rf choices of the
/// first `rf_prefix.len()` reads — the partitioning hook: an empty prefix
/// enumerates the whole space, a one-element prefix enumerates the slice
/// belonging to that first-read choice.
fn enumerate_skeleton(skel: &Skeleton, rf_prefix: &[usize], out: &mut Vec<Execution>) {
    let Skeleton {
        events,
        po,
        rmw,
        read_regs,
        rmw_constraints,
        reads,
    } = skel;

    // Recursive product over read choices.
    fn rec(
        events: &[Event],
        reads: &[usize],
        choice: &mut Vec<usize>,
        emit: &mut dyn FnMut(&[Event], &Vec<usize>),
    ) {
        if choice.len() == reads.len() {
            emit(events, choice);
            return;
        }
        let r = reads[choice.len()];
        let Lab::R { x, .. } = events[r].lab else {
            unreachable!()
        };
        for w in writes_of(events, x) {
            choice.push(w);
            rec(events, reads, choice, emit);
            choice.pop();
        }
    }

    let mut choice = rf_prefix.to_vec();
    let mut emit = |evs: &[Event], choice: &Vec<usize>| {
        // Assign read values from rf sources; check RMW constraints.
        let mut events = evs.to_vec();
        for (ri, &w) in choice.iter().enumerate() {
            let r = reads[ri];
            let Lab::W { v, .. } = events[w].lab else {
                unreachable!()
            };
            if let Lab::R { v: ref mut rv, .. } = events[r].lab {
                *rv = v;
            }
        }
        for (rid, expect, succeed) in rmw_constraints {
            let Lab::R { v, .. } = events[*rid].lab else {
                unreachable!()
            };
            if (v == *expect) != *succeed {
                return; // inconsistent success choice
            }
        }
        let mut rf = Rel::new(events.len());
        for (ri, &w) in choice.iter().enumerate() {
            rf.add(w, reads[ri]);
        }
        // Enumerate coherence orders: permutations per location, with init
        // writes first.
        let mut per_loc: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
        for e in &events {
            if let Lab::W { x, .. } = e.lab {
                if e.tid != 0 {
                    per_loc.entry(x).or_default().push(e.id);
                }
            }
        }
        let locs: Vec<Loc> = per_loc.keys().copied().collect();
        let mut orders: Vec<Vec<Vec<usize>>> = Vec::new();
        for l in &locs {
            orders.push(permutations(&per_loc[l]));
        }
        // Cartesian product over per-location permutations.
        let mut idx = vec![0usize; locs.len()];
        loop {
            let mut co = Rel::new(events.len());
            // Init writes co-precede all writes at their location.
            for (li, l) in locs.iter().enumerate() {
                let perm = &orders[li][idx[li]];
                let init = *l as usize;
                for (i, &w) in perm.iter().enumerate() {
                    co.add(init, w);
                    for &w2 in &perm[i + 1..] {
                        co.add(w, w2);
                    }
                }
            }
            // Registers: final value = last po read into that register.
            let mut regs: BTreeMap<(usize, Reg), u64> = BTreeMap::new();
            for (rid, tid, reg) in read_regs {
                let Lab::R { v, .. } = events[*rid].lab else {
                    unreachable!()
                };
                regs.insert((*tid, *reg), v);
            }
            // (read_regs is in po order per thread, so later reads overwrite.)
            let exec = Execution {
                events: events.clone(),
                po: po.clone(),
                rf: rf.clone(),
                co,
                rmw: rmw.clone(),
                regs,
            };
            out.push(exec);

            // Advance product counter.
            let mut k = 0;
            loop {
                if k == locs.len() {
                    return;
                }
                idx[k] += 1;
                if idx[k] < orders[k].len() {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    };
    rec(events, reads, &mut choice, &mut emit);
}

fn permutations(xs: &[usize]) -> Vec<Vec<usize>> {
    if xs.is_empty() {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for (i, &x) in xs.iter().enumerate() {
        let mut rest: Vec<usize> = xs.to_vec();
        rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, x);
            out.push(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SB: two threads, each storing then loading the other location.
    fn sb() -> Program {
        Program {
            locs: 2,
            threads: vec![
                vec![Op::St { x: 0, v: 1 }, Op::Ld { r: 0, x: 1 }],
                vec![Op::St { x: 1, v: 1 }, Op::Ld { r: 0, x: 0 }],
            ],
        }
    }

    #[test]
    fn enumeration_counts() {
        let execs = enumerate_executions(&sb());
        // 2 reads × 2 writes each = 4 rf choices; one write per loc → 1 co.
        assert_eq!(execs.len(), 4);
    }

    #[test]
    fn fr_definition() {
        let execs = enumerate_executions(&sb());
        // In the execution where T1 reads init(0) of loc1, fr relates that
        // read to T2's store to loc1.
        let found = execs.iter().any(|x| {
            let fr = x.fr();
            !fr.is_empty()
        });
        assert!(found);
    }

    #[test]
    fn rmw_success_and_failure() {
        let prog = Program {
            locs: 1,
            threads: vec![vec![Op::Rmw {
                r: 0,
                x: 0,
                expect: 0,
                new: 5,
            }]],
        };
        let execs = enumerate_executions(&prog);
        // Success: reads init 0, writes 5. The failed variant would need to
        // read a non-0 value but only 0 exists, so it is filtered out.
        assert_eq!(execs.len(), 1);
        let o = Outcome::of(&execs[0]);
        assert_eq!(o.mem, vec![(0, 5)]);
        assert_eq!(o.regs, vec![((1, 0), 0)]);
    }

    #[test]
    fn rmw_can_fail_when_value_differs() {
        let prog = Program {
            locs: 1,
            threads: vec![
                vec![Op::St { x: 0, v: 9 }],
                vec![Op::Rmw {
                    r: 0,
                    x: 0,
                    expect: 0,
                    new: 5,
                }],
            ],
        };
        let execs = enumerate_executions(&prog);
        // Either the RMW reads 0 (succeeds) or reads 9 (fails).
        let outcomes: std::collections::BTreeSet<Outcome> = execs.iter().map(Outcome::of).collect();
        assert!(outcomes.iter().any(|o| o.regs == vec![((2, 0), 9)]));
        assert!(outcomes.iter().any(|o| o.regs == vec![((2, 0), 0)]));
    }

    #[test]
    fn sb_outcome_set_is_exactly_the_tso_plus_weak_one() {
        // Candidate executions of SB: both reads from init or the other
        // thread's store → 4 outcomes before model filtering.
        let execs = enumerate_executions(&sb());
        let outs: std::collections::BTreeSet<Outcome> = execs.iter().map(Outcome::of).collect();
        assert_eq!(outs.len(), 4);
        // Every combination of (0|1, 0|1) for the two registers appears.
        for a in [0u64, 1] {
            for b in [0u64, 1] {
                assert!(
                    outs.iter()
                        .any(|o| o.regs == vec![((1, 0), a), ((2, 0), b)]),
                    "missing outcome a={a}, b={b}"
                );
            }
        }
    }

    #[test]
    fn partitioned_enumeration_is_order_identical_to_serial() {
        let progs = [
            sb(),
            // RMW + plain writes: exercises success-bit partitions,
            // including partitions emptied by the RMW constraints.
            Program {
                locs: 2,
                threads: vec![
                    vec![
                        Op::Rmw {
                            r: 0,
                            x: 0,
                            expect: 0,
                            new: 5,
                        },
                        Op::Ld { r: 1, x: 1 },
                    ],
                    vec![Op::St { x: 1, v: 3 }, Op::St { x: 0, v: 9 }],
                ],
            },
            // No reads at all: one partition per RMW assignment.
            Program {
                locs: 1,
                threads: vec![vec![Op::St { x: 0, v: 1 }], vec![Op::St { x: 0, v: 2 }]],
            },
        ];
        for prog in &progs {
            let serial = enumerate_executions(prog);
            let parts = execution_partitions(prog);
            let concat: Vec<Execution> = parts
                .iter()
                .flat_map(|p| enumerate_partition(prog, *p))
                .collect();
            assert_eq!(serial, concat, "partition order diverged from serial");
            for jobs in [1, 2, 8] {
                assert_eq!(
                    serial,
                    enumerate_executions_par(Pool::shared(), jobs, prog),
                    "jobs={jobs} diverged from serial"
                );
            }
        }
    }

    #[test]
    fn coherence_orders_enumerated() {
        let prog = Program {
            locs: 1,
            threads: vec![vec![Op::St { x: 0, v: 1 }], vec![Op::St { x: 0, v: 2 }]],
        };
        let execs = enumerate_executions(&prog);
        // No reads: 2 coherence orders.
        assert_eq!(execs.len(), 2);
        let finals: std::collections::BTreeSet<u64> =
            execs.iter().map(|x| x.behavior()[&0]).collect();
        assert_eq!(finals.len(), 2);
    }
}
