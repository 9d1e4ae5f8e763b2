//! Classic CFG analyses: reachability, dominators, natural loops — plus the
//! structural cross-validation the path numbering relies on.
//!
//! The analyses are standard (iterative dominators over a reverse post
//! order, natural-loop bodies from back edges), but their role here is
//! mostly *adversarial*: the Ball-Larus numbering in [`crate::blpath`]
//! assumes the graph is reducible with single-headed natural loops that
//! coincide one-to-one with the AST's `while`/`for` constructs. Instead of
//! trusting the lowering, [`Analysis::validate`] re-derives those facts from
//! the graph and reports any mismatch.

use std::collections::BTreeSet;

use crate::cfg::{BlockId, Cfg, Terminator};
use crate::expr::Expr;
use crate::stmt::Stmt;

/// A natural loop discovered from a back edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The loop header (target of the back edge, dominates the body).
    pub header: BlockId,
    /// Construct id carried by the header's [`Terminator::LoopHead`].
    pub construct: u32,
    /// All blocks of the loop, header included.
    pub body: BTreeSet<BlockId>,
}

/// Derived facts about a [`Cfg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// Immediate dominator of every block (`None` for the entry and for
    /// unreachable blocks).
    pub idom: Vec<Option<BlockId>>,
    /// Blocks reachable from the entry.
    pub reachable: Vec<bool>,
    /// Back edges `(source, header)` where the header dominates the source.
    pub back_edges: Vec<(BlockId, BlockId)>,
    /// One natural loop per back edge, in header construct-id order.
    pub loops: Vec<NaturalLoop>,
}

impl Analysis {
    /// Runs all analyses on a graph.
    #[must_use]
    pub fn of(cfg: &Cfg) -> Analysis {
        let rpo = reverse_postorder(cfg);
        let reachable = {
            let mut r = vec![false; cfg.len()];
            for &b in &rpo {
                r[b.idx()] = true;
            }
            r
        };
        let idom = dominators(cfg, &rpo);
        let mut back_edges = Vec::new();
        for (i, _) in cfg.blocks().iter().enumerate() {
            let u = BlockId(i as u32);
            if !reachable[u.idx()] {
                continue;
            }
            for v in cfg.succs(u) {
                if dominates(&idom, v, u) {
                    back_edges.push((u, v));
                }
            }
        }
        let preds = cfg.preds();
        let mut loops: Vec<NaturalLoop> = back_edges
            .iter()
            .map(|&(src, header)| {
                let construct = match cfg.blocks()[header.idx()].term {
                    Terminator::LoopHead { construct, .. } => construct,
                    // Validation reports this; use a sentinel meanwhile.
                    _ => u32::MAX,
                };
                NaturalLoop {
                    header,
                    construct,
                    body: natural_loop_body(header, src, &preds),
                }
            })
            .collect();
        loops.sort_by_key(|l| l.construct);
        Analysis {
            idom,
            reachable,
            back_edges,
            loops,
        }
    }

    /// Does `a` dominate `b`?
    #[must_use]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        dominates(&self.idom, a, b)
    }

    /// Cross-validates the graph against the structural invariants the path
    /// numbering needs, returning human-readable findings (empty = sound):
    ///
    /// * every block reachable from the entry;
    /// * every loop header carries a [`Terminator::LoopHead`] and each
    ///   `LoopHead` block heads exactly one natural loop (single back edge);
    /// * the natural-loop count equals the AST's `while`/`for` count, with
    ///   matching construct ids.
    #[must_use]
    pub fn validate(&self, cfg: &Cfg, ast_body: &[Stmt]) -> Vec<String> {
        let mut findings = Vec::new();
        for (i, ok) in self.reachable.iter().enumerate() {
            if !ok {
                findings.push(format!("bb{i} is unreachable from the entry"));
            }
        }
        for l in &self.loops {
            if !matches!(
                cfg.blocks()[l.header.idx()].term,
                Terminator::LoopHead { .. }
            ) {
                findings.push(format!(
                    "natural loop headed by {} has no LoopHead terminator",
                    l.header
                ));
            }
        }
        let mut headers: Vec<BlockId> = self.loops.iter().map(|l| l.header).collect();
        headers.sort_unstable();
        headers.dedup();
        if headers.len() != self.loops.len() {
            findings.push("a loop header has more than one back edge".to_string());
        }
        let mut ast_loop_ids = Vec::new();
        collect_loop_ids(ast_body, &mut 0, &mut ast_loop_ids);
        let mut cfg_loop_ids: Vec<u32> = self.loops.iter().map(|l| l.construct).collect();
        cfg_loop_ids.sort_unstable();
        let mut ast_sorted = ast_loop_ids.clone();
        ast_sorted.sort_unstable();
        if cfg_loop_ids != ast_sorted {
            findings.push(format!(
                "natural loops {cfg_loop_ids:?} do not match AST loops {ast_sorted:?}"
            ));
        }
        findings
    }
}

/// Blocks in reverse post order from the entry (unreachable blocks absent).
#[must_use]
pub fn reverse_postorder(cfg: &Cfg) -> Vec<BlockId> {
    let mut visited = vec![false; cfg.len()];
    let mut post = Vec::with_capacity(cfg.len());
    // Iterative DFS with an explicit phase marker (enter/exit).
    let mut stack = vec![(cfg.entry(), false)];
    while let Some((b, done)) = stack.pop() {
        if done {
            post.push(b);
            continue;
        }
        if visited[b.idx()] {
            continue;
        }
        visited[b.idx()] = true;
        stack.push((b, true));
        // Push successors reversed so the first successor is visited first.
        for s in cfg.succs(b).into_iter().rev() {
            if !visited[s.idx()] {
                stack.push((s, false));
            }
        }
    }
    post.reverse();
    post
}

/// Iterative dominator computation (Cooper–Harvey–Kennedy) over the reverse
/// post order. Entry's idom is `None`; unreachable blocks keep `None`.
#[must_use]
pub fn dominators(cfg: &Cfg, rpo: &[BlockId]) -> Vec<Option<BlockId>> {
    let mut order = vec![usize::MAX; cfg.len()];
    for (i, &b) in rpo.iter().enumerate() {
        order[b.idx()] = i;
    }
    let preds = cfg.preds();
    let mut idom: Vec<Option<BlockId>> = vec![None; cfg.len()];
    if rpo.is_empty() {
        return idom;
    }
    let entry = rpo[0];
    idom[entry.idx()] = Some(entry);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo[1..] {
            let mut new_idom: Option<BlockId> = None;
            for &p in &preds[b.idx()] {
                if idom[p.idx()].is_none() {
                    continue; // not yet processed / unreachable
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, &order, p, cur),
                });
            }
            if new_idom.is_some() && idom[b.idx()] != new_idom {
                idom[b.idx()] = new_idom;
                changed = true;
            }
        }
    }
    // Normalize: the entry's self-idom becomes None for callers.
    idom[entry.idx()] = None;
    idom
}

fn intersect(idom: &[Option<BlockId>], order: &[usize], mut a: BlockId, mut b: BlockId) -> BlockId {
    while a != b {
        while order[a.idx()] > order[b.idx()] {
            a = idom[a.idx()].expect("processed block has an idom");
        }
        while order[b.idx()] > order[a.idx()] {
            b = idom[b.idx()].expect("processed block has an idom");
        }
    }
    a
}

fn dominates(idom: &[Option<BlockId>], a: BlockId, b: BlockId) -> bool {
    let mut cur = b;
    loop {
        if cur == a {
            return true;
        }
        match idom[cur.idx()] {
            Some(next) => cur = next,
            None => return false,
        }
    }
}

/// The natural loop of back edge `src → header`: header plus everything
/// that reaches `src` without passing through the header.
fn natural_loop_body(header: BlockId, src: BlockId, preds: &[Vec<BlockId>]) -> BTreeSet<BlockId> {
    let mut body: BTreeSet<BlockId> = BTreeSet::new();
    body.insert(header);
    let mut stack = vec![src];
    while let Some(b) = stack.pop() {
        if body.insert(b) {
            for &p in &preds[b.idx()] {
                stack.push(p);
            }
        }
    }
    body
}

fn collect_loop_ids(stmts: &[Stmt], next_id: &mut u32, out: &mut Vec<u32>) {
    for s in stmts {
        match s {
            Stmt::Assign(..) | Stmt::Store { .. } | Stmt::Touch { .. } | Stmt::Nop { .. } => {}
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                *next_id += 1;
                collect_loop_ids(then_branch, next_id, out);
                collect_loop_ids(else_branch, next_id, out);
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => {
                out.push(*next_id);
                *next_id += 1;
                collect_loop_ids(body, next_id, out);
            }
        }
    }
}

/// Evaluates a constant expression, if it is one.
///
/// Variables and loads are unknown (`None`); division/remainder by a
/// constant zero is `None` too (the interpreter would fault). The operators
/// are the interpreter's own ([`crate::BinOp::apply`],
/// [`crate::UnOp::apply`]), so a `Some` result is the value every run
/// computes.
#[must_use]
pub fn const_eval(e: &Expr) -> Option<i64> {
    match e {
        Expr::Const(v) => Some(*v),
        Expr::Var(_) | Expr::Load(..) => None,
        Expr::Un(op, e) => Some(op.apply(const_eval(e)?)),
        Expr::Bin(op, l, r) => op.apply(const_eval(l)?, const_eval(r)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn c(v: i64) -> Expr {
        Expr::c(v)
    }

    fn analyzed(p: &crate::program::Program) -> (Cfg, Analysis) {
        let cfg = Cfg::of(p);
        let a = Analysis::of(&cfg);
        (cfg, a)
    }

    #[test]
    fn diamond_dominators() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![Stmt::Assign(x, c(1))],
            vec![Stmt::Assign(x, c(2))],
        ));
        let p = b.build().unwrap();
        let (cfg, a) = analyzed(&p);
        assert!(a.reachable.iter().all(|&r| r));
        // Entry dominates everything; join's idom is the entry, not an arm.
        assert_eq!(a.idom[cfg.exit().idx()], Some(cfg.entry()));
        assert!(a.dominates(cfg.entry(), cfg.exit()));
        assert!(a.back_edges.is_empty());
        assert!(a.loops.is_empty());
        assert!(a.validate(&cfg, p.body()).is_empty());
    }

    #[test]
    fn while_yields_one_natural_loop() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        b.push(Stmt::while_(
            Expr::var(i).lt(c(3)),
            3,
            vec![Stmt::Assign(i, Expr::var(i).add(c(1)))],
        ));
        let p = b.build().unwrap();
        let (cfg, a) = analyzed(&p);
        assert_eq!(a.back_edges.len(), 1);
        assert_eq!(a.loops.len(), 1);
        let l = &a.loops[0];
        assert_eq!(l.construct, 0);
        // Header + body block.
        assert_eq!(l.body.len(), 2);
        assert!(a.dominates(l.header, *l.body.iter().last().unwrap()));
        assert!(a.validate(&cfg, p.body()).is_empty());
    }

    #[test]
    fn nested_loops_and_branches_validate() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let i = b.var("i");
        let j = b.var("j");
        b.push(Stmt::for_(
            i,
            c(0),
            c(3),
            3,
            vec![Stmt::if_(
                Expr::var(x).gt(c(0)),
                vec![Stmt::while_(
                    Expr::var(j).lt(c(2)),
                    2,
                    vec![Stmt::Assign(j, Expr::var(j).add(c(1)))],
                )],
                vec![Stmt::Assign(x, c(0))],
            )],
        ));
        let p = b.build().unwrap();
        let (cfg, a) = analyzed(&p);
        assert_eq!(a.loops.len(), 2);
        assert_eq!(a.loops[0].construct, 0, "for loop");
        assert_eq!(a.loops[1].construct, 2, "inner while");
        // The inner loop's body is strictly inside the outer loop's body.
        assert!(a.loops[1].body.is_subset(&a.loops[0].body));
        assert!(a.loops[1].body.len() < a.loops[0].body.len());
        assert!(a.validate(&cfg, p.body()).is_empty());
    }

    #[test]
    fn const_eval_mirrors_interpreter() {
        assert_eq!(const_eval(&c(2).add(c(3)).mul(c(4))), Some(20));
        assert_eq!(const_eval(&c(7).div(c(0))), None);
        assert_eq!(const_eval(&c(1).lt(c(2))), Some(1));
        assert_eq!(const_eval(&Expr::var(crate::program::Var(0))), None);
        assert_eq!(const_eval(&c(5).neg().add(c(5))), Some(0));
    }

    #[test]
    fn rpo_starts_at_entry() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        b.push(Stmt::if_(Expr::var(x).gt(c(0)), vec![], vec![]));
        let p = b.build().unwrap();
        let cfg = Cfg::of(&p);
        let rpo = reverse_postorder(&cfg);
        assert_eq!(rpo[0], cfg.entry());
        assert_eq!(rpo.len(), cfg.len());
    }
}
