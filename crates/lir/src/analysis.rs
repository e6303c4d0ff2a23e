//! CFG analyses: predecessors/successors, reverse post-order, dominators,
//! dominance frontiers, and natural-loop detection.
//!
//! These power `mem2reg` (SSA construction), `licm`, `adce` and `gvn` in the
//! `lasagne-opt` crate.

use crate::func::Function;
use crate::inst::BlockId;

/// Control-flow graph summary of a function.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Successors per block.
    pub succs: Vec<Vec<BlockId>>,
    /// Predecessors per block.
    pub preds: Vec<Vec<BlockId>>,
    /// Blocks in reverse post-order from the entry; unreachable blocks are
    /// absent.
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (`usize::MAX` if unreachable).
    pub rpo_index: Vec<usize>,
}

impl Cfg {
    /// Computes the CFG of `f`.
    pub fn compute(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for b in f.block_ids() {
            for s in f.block(b).term.successors() {
                succs[b.0 as usize].push(s);
                preds[s.0 as usize].push(b);
            }
        }
        // Post-order DFS from entry.
        let mut post = Vec::with_capacity(n);
        let mut state = vec![0u8; n]; // 0 unvisited, 1 open, 2 done
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
        state[0] = 1;
        while let Some((b, i)) = stack.pop() {
            let ss = &succs[b.0 as usize];
            if i < ss.len() {
                stack.push((b, i + 1));
                let nxt = ss[i];
                if state[nxt.0 as usize] == 0 {
                    state[nxt.0 as usize] = 1;
                    stack.push((nxt, 0));
                }
            } else {
                state[b.0 as usize] = 2;
                post.push(b);
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.0 as usize] = i;
        }
        Cfg {
            succs,
            preds,
            rpo,
            rpo_index,
        }
    }

    /// Whether `b` is reachable from the entry.
    pub fn reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.0 as usize] != usize::MAX
    }
}

/// Immediate-dominator tree (Cooper–Harvey–Kennedy iterative algorithm).
#[derive(Debug, Clone)]
pub struct Dominators {
    /// Immediate dominator per block (`None` for the entry and unreachable
    /// blocks).
    pub idom: Vec<Option<BlockId>>,
    /// Dominator-tree children of block `b`, in block order:
    /// `child_list[child_start[b]..child_start[b + 1]]`.
    child_start: Vec<u32>,
    child_list: Vec<BlockId>,
    /// Dominator-tree pre/post numbers: reachable `a` dominates reachable
    /// `b` iff `b`'s interval nests in `a`'s.
    pre: Vec<u32>,
    post: Vec<u32>,
}

impl Dominators {
    /// Computes dominators over `cfg`.
    pub fn compute(cfg: &Cfg) -> Dominators {
        let n = cfg.succs.len();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if cfg.rpo.is_empty() {
            return Dominators::with_tree(cfg, idom);
        }
        idom[cfg.rpo[0].0 as usize] = Some(cfg.rpo[0]);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &cfg.preds[b.0 as usize] {
                    if !cfg.reachable(p) || idom[p.0 as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => self_intersect(cfg, &idom, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.0 as usize] != Some(ni) {
                        idom[b.0 as usize] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Entry's idom is conventionally itself during computation; expose None.
        idom[cfg.rpo[0].0 as usize] = None;
        Dominators::with_tree(cfg, idom)
    }

    /// Builds the child lists and pre/post numbers of the tree `idom`.
    fn with_tree(cfg: &Cfg, idom: Vec<Option<BlockId>>) -> Dominators {
        let n = idom.len();
        let mut child_start = vec![0u32; n + 1];
        for d in idom.iter().flatten() {
            child_start[d.0 as usize + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut fill = child_start.clone();
        let mut child_list = vec![BlockId(0); child_start[n] as usize];
        for (b, d) in idom.iter().enumerate() {
            if let Some(d) = d {
                child_list[fill[d.0 as usize] as usize] = BlockId(b as u32);
                fill[d.0 as usize] += 1;
            }
        }
        let mut doms = Dominators {
            idom,
            child_start,
            child_list,
            pre: vec![0; n],
            post: vec![0; n],
        };
        let mut clock = 0u32;
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        if let Some(&entry) = cfg.rpo.first() {
            stack.push((entry, 0));
        }
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if let Some(&c) = doms.children(b).get(*next) {
                *next += 1;
                clock += 1;
                doms.pre[c.0 as usize] = clock;
                stack.push((c, 0));
            } else {
                clock += 1;
                doms.post[b.0 as usize] = clock;
                stack.pop();
            }
        }
        doms
    }

    /// The blocks `b` immediately dominates, in block order.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        let b = b.0 as usize;
        &self.child_list[self.child_start[b] as usize..self.child_start[b + 1] as usize]
    }

    /// Whether `a` dominates `b` (reflexive). O(1).
    pub fn dominates(&self, cfg: &Cfg, a: BlockId, b: BlockId) -> bool {
        if !cfg.reachable(a) || !cfg.reachable(b) {
            return false;
        }
        let (a, b) = (a.0 as usize, b.0 as usize);
        self.pre[a] <= self.pre[b] && self.post[b] <= self.post[a]
    }

    /// Dominance frontier per block.
    pub fn frontiers(&self, cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let n = cfg.succs.len();
        let mut df = vec![Vec::new(); n];
        for b in 0..n {
            let b = BlockId(b as u32);
            if !cfg.reachable(b) || cfg.preds[b.0 as usize].len() < 2 {
                continue;
            }
            let idom_b = match self.idom[b.0 as usize] {
                Some(d) => d,
                None => continue,
            };
            for &p in &cfg.preds[b.0 as usize] {
                if !cfg.reachable(p) {
                    continue;
                }
                let mut runner = p;
                while runner != idom_b {
                    let dfr = &mut df[runner.0 as usize];
                    if !dfr.contains(&b) {
                        dfr.push(b);
                    }
                    match self.idom[runner.0 as usize] {
                        Some(d) => runner = d,
                        None => break,
                    }
                }
            }
        }
        df
    }
}

fn self_intersect(cfg: &Cfg, idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId) -> BlockId {
    while a != b {
        while cfg.rpo_index[a.0 as usize] > cfg.rpo_index[b.0 as usize] {
            a = idom[a.0 as usize].expect("intersect on unprocessed block");
        }
        while cfg.rpo_index[b.0 as usize] > cfg.rpo_index[a.0 as usize] {
            b = idom[b.0 as usize].expect("intersect on unprocessed block");
        }
    }
    a
}

/// A natural loop: header plus body blocks (including the header).
#[derive(Debug, Clone)]
pub struct Loop {
    /// Loop header.
    pub header: BlockId,
    /// All blocks in the loop, header included.
    pub blocks: Vec<BlockId>,
}

/// Finds natural loops via back edges (`latch → header` where the header
/// dominates the latch).
///
/// Linear in the CFG plus the loop bodies: body membership is tracked
/// with a stamp per block.
pub fn find_loops(cfg: &Cfg, doms: &Dominators) -> Vec<Loop> {
    let n = cfg.succs.len();
    let mut loops: Vec<Loop> = Vec::new();
    let mut loop_of = vec![u32::MAX; n];
    // `seen[b] == stamp`: `b` is already in the body being collected.
    let mut seen = vec![0u32; n];
    let mut stamp = 0u32;
    for &b in &cfg.rpo {
        for &s in &cfg.succs[b.0 as usize] {
            if doms.dominates(cfg, s, b) {
                // Back edge b -> s; collect the loop body by walking preds.
                let header = s;
                stamp += 1;
                seen[header.0 as usize] = stamp;
                let mut body = vec![header];
                let mut stack = vec![b];
                while let Some(x) = stack.pop() {
                    if seen[x.0 as usize] == stamp {
                        continue;
                    }
                    seen[x.0 as usize] = stamp;
                    body.push(x);
                    for &p in &cfg.preds[x.0 as usize] {
                        if cfg.reachable(p) {
                            stack.push(p);
                        }
                    }
                }
                match loop_of[header.0 as usize] {
                    u32::MAX => {
                        loop_of[header.0 as usize] = loops.len() as u32;
                        loops.push(Loop {
                            header,
                            blocks: body,
                        });
                    }
                    i => {
                        let existing = &mut loops[i as usize];
                        stamp += 1;
                        for x in &existing.blocks {
                            seen[x.0 as usize] = stamp;
                        }
                        for x in body {
                            if seen[x.0 as usize] != stamp {
                                seen[x.0 as usize] = stamp;
                                existing.blocks.push(x);
                            }
                        }
                    }
                }
            }
        }
    }
    loops
}

/// Lazily built, incrementally invalidated per-function analysis cache.
///
/// One `Analyses` lives alongside each function for the duration of an opt
/// run (see `lasagne-opt`'s scheduler). Passes pull what they need through
/// the accessors — a cached result is returned if still valid, otherwise it
/// is recomputed from the function — and report what they broke through the
/// `note_*` methods:
///
/// * `note_insts_changed` — instructions were added/removed/rewritten, so
///   use counts (and anything derived from instruction identity) are stale.
///   The CFG survives: no pass except sccp edits terminator *targets*.
/// * `note_cfg_changed` — a terminator target changed (sccp's branch folds
///   and unreachable-block pruning), so the CFG and dominators are stale.
///
/// Use counts are handed out by value (`seed_use_counts`/`store_use_counts`)
/// so a worklist pass can decrement them in place while mutating the
/// function, then hand the maintained vector back for the next pass.
#[derive(Debug, Default)]
pub struct Analyses {
    use_counts: Option<Vec<u32>>,
    cfg: Option<Cfg>,
    doms: Option<Dominators>,
}

impl Analyses {
    /// Fresh cache with nothing computed.
    pub fn new() -> Analyses {
        Analyses::default()
    }

    /// Takes the cached use-count vector if it is still valid for `f`
    /// (arena length matches), otherwise computes a fresh one. The caller
    /// owns the vector, may maintain it incrementally across its own edits,
    /// and should return it via [`Analyses::store_use_counts`].
    pub fn seed_use_counts(&mut self, f: &Function) -> Vec<u32> {
        match self.use_counts.take() {
            Some(counts) if counts.len() == f.insts.len() => counts,
            _ => f.use_counts(),
        }
    }

    /// Returns a maintained use-count vector to the cache.
    pub fn store_use_counts(&mut self, counts: Vec<u32>) {
        self.use_counts = Some(counts);
    }

    /// The CFG of `f`, computed on first use and cached until
    /// [`Analyses::note_cfg_changed`].
    pub fn cfg(&mut self, f: &Function) -> &Cfg {
        if self.cfg.is_none() {
            self.cfg = Some(Cfg::compute(f));
        }
        self.cfg.as_ref().expect("cfg just ensured")
    }

    /// The CFG and dominator tree of `f`, both cached.
    pub fn cfg_and_doms(&mut self, f: &Function) -> (&Cfg, &Dominators) {
        if self.cfg.is_none() {
            self.cfg = Some(Cfg::compute(f));
        }
        let cfg = self.cfg.as_ref().expect("cfg just ensured");
        if self.doms.is_none() {
            self.doms = Some(Dominators::compute(cfg));
        }
        (cfg, self.doms.as_ref().expect("doms just ensured"))
    }

    /// Instructions changed: drop anything keyed on instruction identity.
    pub fn note_insts_changed(&mut self) {
        self.use_counts = None;
    }

    /// Control flow changed: drop the CFG, dominators, and use counts
    /// (terminator rewrites change operand uses too).
    pub fn note_cfg_changed(&mut self) {
        self.cfg = None;
        self.doms = None;
        self.use_counts = None;
    }

    /// Drops everything.
    pub fn invalidate_all(&mut self) {
        *self = Analyses::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Operand, Terminator};
    use crate::types::Ty;

    /// Builds a diamond: 0 -> {1,2} -> 3.
    fn diamond() -> Function {
        let mut f = Function::new("d", vec![Ty::I1], Ty::Void);
        let b1 = f.add_block();
        let b2 = f.add_block();
        let b3 = f.add_block();
        f.set_term(
            f.entry(),
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: b1,
                if_false: b2,
            },
        );
        f.set_term(b1, Terminator::Br { dest: b3 });
        f.set_term(b2, Terminator::Br { dest: b3 });
        f.set_term(b3, Terminator::Ret { val: None });
        f
    }

    /// Builds a loop: 0 -> 1; 1 -> {1, 2}.
    fn looped() -> Function {
        let mut f = Function::new("l", vec![Ty::I1], Ty::Void);
        let body = f.add_block();
        let exit = f.add_block();
        f.set_term(f.entry(), Terminator::Br { dest: body });
        f.set_term(
            body,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: body,
                if_false: exit,
            },
        );
        f.set_term(exit, Terminator::Ret { val: None });
        f
    }

    #[test]
    fn diamond_cfg() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.succs[0], vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds[3], vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(cfg.rpo.len(), 4);
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let doms = Dominators::compute(&cfg);
        assert_eq!(doms.idom[1], Some(BlockId(0)));
        assert_eq!(doms.idom[2], Some(BlockId(0)));
        assert_eq!(doms.idom[3], Some(BlockId(0)));
        assert!(doms.dominates(&cfg, BlockId(0), BlockId(3)));
        assert!(!doms.dominates(&cfg, BlockId(1), BlockId(3)));
        assert!(doms.dominates(&cfg, BlockId(3), BlockId(3)));
    }

    #[test]
    fn diamond_frontiers() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let doms = Dominators::compute(&cfg);
        let df = doms.frontiers(&cfg);
        assert_eq!(df[1], vec![BlockId(3)]);
        assert_eq!(df[2], vec![BlockId(3)]);
        assert!(df[0].is_empty());
    }

    #[test]
    fn loop_detection() {
        let f = looped();
        let cfg = Cfg::compute(&f);
        let doms = Dominators::compute(&cfg);
        let loops = find_loops(&cfg, &doms);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].header, BlockId(1));
        assert_eq!(loops[0].blocks, vec![BlockId(1)]);
    }

    /// Nested loops: 0 → outer(1) → inner(2) → {2, 3}; 3 → {1, 4}.
    #[test]
    fn nested_loops_detected() {
        let mut f = Function::new("n", vec![Ty::I1], Ty::Void);
        let outer = f.add_block(); // 1
        let inner = f.add_block(); // 2
        let latch = f.add_block(); // 3
        let exit = f.add_block(); // 4
        f.set_term(f.entry(), Terminator::Br { dest: outer });
        f.set_term(outer, Terminator::Br { dest: inner });
        f.set_term(
            inner,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: inner,
                if_false: latch,
            },
        );
        f.set_term(
            latch,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: outer,
                if_false: exit,
            },
        );
        f.set_term(exit, Terminator::Ret { val: None });
        let cfg = Cfg::compute(&f);
        let doms = Dominators::compute(&cfg);
        let loops = find_loops(&cfg, &doms);
        assert_eq!(loops.len(), 2, "{loops:?}");
        let inner_loop = loops
            .iter()
            .find(|l| l.header == inner)
            .expect("inner loop");
        assert_eq!(inner_loop.blocks, vec![inner]);
        let outer_loop = loops
            .iter()
            .find(|l| l.header == outer)
            .expect("outer loop");
        assert!(outer_loop.blocks.contains(&inner) && outer_loop.blocks.contains(&latch));
    }

    #[test]
    fn unreachable_block_excluded() {
        let mut f = diamond();
        let dead = f.add_block();
        f.set_term(dead, Terminator::Ret { val: None });
        let cfg = Cfg::compute(&f);
        assert!(!cfg.reachable(dead));
        assert_eq!(cfg.rpo.len(), 4);
        let doms = Dominators::compute(&cfg);
        assert!(!doms.dominates(&cfg, BlockId(0), dead));
    }

    /// On random CFGs (some blocks unreachable), the interval test agrees
    /// with walking the `idom` chain, and `children` inverts `idom`.
    #[test]
    fn dominance_intervals_match_idom_chain() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % n
        };
        for _ in 0..200 {
            let mut f = Function::new("r", vec![Ty::I1], Ty::Void);
            let n = 1 + next(10) as u32;
            for _ in 1..n {
                f.add_block();
            }
            for b in 0..n {
                let term = match next(3) {
                    0 => Terminator::Ret { val: None },
                    1 => Terminator::Br {
                        dest: BlockId(next(n as u64) as u32),
                    },
                    _ => Terminator::CondBr {
                        cond: Operand::Param(0),
                        if_true: BlockId(next(n as u64) as u32),
                        if_false: BlockId(next(n as u64) as u32),
                    },
                };
                f.set_term(BlockId(b), term);
            }
            let cfg = Cfg::compute(&f);
            let doms = Dominators::compute(&cfg);
            let by_chain = |a: BlockId, b: BlockId| {
                let mut cur = Some(b);
                while let Some(c) = cur {
                    if c == a {
                        return true;
                    }
                    cur = doms.idom[c.0 as usize];
                }
                false
            };
            for a in (0..n).map(BlockId) {
                let kids: Vec<BlockId> = (0..n)
                    .map(BlockId)
                    .filter(|c| doms.idom[c.0 as usize] == Some(a))
                    .collect();
                assert_eq!(doms.children(a), &kids[..]);
                for b in (0..n).map(BlockId) {
                    let want = cfg.reachable(b) && by_chain(a, b);
                    assert_eq!(doms.dominates(&cfg, a, b), want, "{a:?} {b:?}");
                }
            }
        }
    }
}
