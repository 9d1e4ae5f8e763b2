//! Code layout: assigning instruction addresses to statements.
//!
//! Instruction-cache behaviour depends on where code lives in memory. The
//! layouter walks the statement tree in source order and assigns every
//! statement an [`InstrSpan`] — a run of [`INSTR_BYTES`]-byte instruction
//! slots sized by the statement's own token ([`crate::Token`]) — the way a
//! simple compiler would emit straight-line code: a conditional's header
//! (compare + branch) is followed by the then-branch, then the else-branch;
//! loop headers precede their bodies and are re-fetched on every iteration
//! check.
//!
//! The layout also assigns each conditional and loop a stable pre-order id,
//! used by path records ([`crate::PathRecord`]).

use crate::footprint::FOR_ITER_INSTRS;
use crate::program::{Program, CODE_BASE, INSTR_BYTES};
use crate::stmt::Stmt;

/// Cache-line size of the code layout.
pub const CODE_ALIGN: u64 = 32;

/// Instruction slots per cache line.
pub const INSTRS_PER_LINE: u32 = (CODE_ALIGN / INSTR_BYTES) as u32;

// Every statement span is quantized to whole cache lines (its instruction
// count rounded up to a multiple of INSTRS_PER_LINE, see `quantize`).
// Consequences that the PUB soundness argument relies on:
//
// * all spans start line-aligned and the layout has no gaps;
// * a statement of `k` instructions always fetches exactly `ceil(k/8)`
//   fresh lines — regardless of whether it is real code or a PUB-inserted
//   Touch/Nop with the same count;
// * therefore two branches whose token sequences have equal per-token
//   instruction counts produce *identical* instruction-line access
//   patterns (over their own, distinct lines), which under random
//   placement makes their I-cache behaviour identically distributed
//   (exchangeability of distinct lines).

/// A contiguous run of instruction slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstrSpan {
    /// Byte address of the first instruction.
    pub addr: u64,
    /// Number of instructions.
    pub count: u32,
}

impl InstrSpan {
    /// The byte address of instruction `i` within the span (clamped to the
    /// last instruction, which keeps emission total even if an analysis
    /// undercounts).
    #[inline]
    #[must_use]
    pub fn instr_addr(&self, i: u32) -> u64 {
        let i = if self.count == 0 {
            0
        } else {
            i.min(self.count - 1)
        };
        self.addr + u64::from(i) * INSTR_BYTES
    }

    /// End address (exclusive).
    #[must_use]
    pub fn end(&self) -> u64 {
        self.addr + u64::from(self.count) * INSTR_BYTES
    }
}

/// Layout information for one statement, in the shape of the statement
/// tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutNode {
    /// A straight-line statement (assign/store/touch/nop).
    Leaf(InstrSpan),
    /// An `if`: header (condition + branch), then both branch bodies.
    If {
        /// Pre-order conditional id (shared numbering with loops).
        id: u32,
        /// Condition evaluation + branch instructions.
        header: InstrSpan,
        /// Layout of the then-branch statements.
        then_branch: Vec<LayoutNode>,
        /// Layout of the else-branch statements.
        else_branch: Vec<LayoutNode>,
    },
    /// A `while`: header is fetched on every iteration check.
    While {
        /// Pre-order id.
        id: u32,
        /// Condition evaluation + branch instructions.
        header: InstrSpan,
        /// Body layout.
        body: Vec<LayoutNode>,
    },
    /// A `for`: `init` runs once, `iter` (compare + increment) on every
    /// check.
    For {
        /// Pre-order id.
        id: u32,
        /// Initialization instructions (bounds evaluation).
        init: InstrSpan,
        /// Per-iteration compare/increment instruction.
        iter: InstrSpan,
        /// Body layout.
        body: Vec<LayoutNode>,
    },
}

/// The code layout of a whole program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// One node per top-level statement.
    pub nodes: Vec<LayoutNode>,
    /// First address past the generated code.
    pub code_end: u64,
    /// Total number of conditionals and loops (= number of assigned ids).
    pub construct_count: u32,
}

/// Computes the deterministic code layout of a program.
///
/// # Examples
///
/// ```
/// use mbcr_ir::{layout_program, Expr, ProgramBuilder, Stmt};
/// let mut b = ProgramBuilder::new("t");
/// let x = b.var("x");
/// b.push(Stmt::Assign(x, Expr::c(1)));
/// let p = b.build().unwrap();
/// let l = layout_program(&p);
/// assert_eq!(l.nodes.len(), 1);
/// ```
#[must_use]
pub fn layout_program(p: &Program) -> Layout {
    let mut pc = CODE_BASE;
    let mut next_id = 0u32;
    let nodes = layout_stmts(p.body(), &mut pc, &mut next_id);
    Layout {
        nodes,
        code_end: pc,
        construct_count: next_id,
    }
}

/// The instruction slots a span of `instrs` instructions occupies: whole
/// cache lines (see the module notes above).
pub(crate) fn quantize(instrs: u32) -> u32 {
    instrs.next_multiple_of(INSTRS_PER_LINE.max(1))
}

fn take_span(pc: &mut u64, count: u32) -> InstrSpan {
    let count = quantize(count);
    let span = InstrSpan { addr: *pc, count };
    *pc += u64::from(count) * INSTR_BYTES;
    span
}

fn layout_stmts(stmts: &[Stmt], pc: &mut u64, next_id: &mut u32) -> Vec<LayoutNode> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign(..) | Stmt::Store { .. } | Stmt::Touch { .. } | Stmt::Nop { .. } => {
                LayoutNode::Leaf(take_span(pc, s.own_instr_count()))
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                let id = *next_id;
                *next_id += 1;
                let header = take_span(pc, s.own_instr_count());
                // Sibling branches are *overlaid*: both start at the same
                // address, and the layout continues after the longer one.
                // Only one branch executes per visit, so overlapping their
                // address ranges is the model equivalent of PUB's "branches
                // aligned to equivalent cache resources": after PUB
                // equalizes the instruction counts, the fetch streams of
                // both branch choices become *identical*, making the branch
                // decision invisible to the instruction cache.
                let start = *pc;
                let then_nodes = layout_stmts(then_branch, pc, next_id);
                let then_end = *pc;
                *pc = start;
                let else_nodes = layout_stmts(else_branch, pc, next_id);
                *pc = (*pc).max(then_end);
                LayoutNode::If {
                    id,
                    header,
                    then_branch: then_nodes,
                    else_branch: else_nodes,
                }
            }
            Stmt::While { body, .. } => {
                let id = *next_id;
                *next_id += 1;
                let header = take_span(pc, s.own_instr_count());
                let body_nodes = layout_stmts(body, pc, next_id);
                LayoutNode::While {
                    id,
                    header,
                    body: body_nodes,
                }
            }
            Stmt::For { body, .. } => {
                let id = *next_id;
                *next_id += 1;
                let init = take_span(pc, s.own_instr_count());
                let iter = take_span(pc, FOR_ITER_INSTRS);
                let body_nodes = layout_stmts(body, pc, next_id);
                LayoutNode::For {
                    id,
                    init,
                    iter,
                    body: body_nodes,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::program::ProgramBuilder;

    #[test]
    fn spans_are_contiguous_and_disjoint() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 8);
        let x = b.var("x");
        b.push(Stmt::Assign(x, Expr::load(a, Expr::c(0)))); // 2 instrs
        b.push(Stmt::if_(
            Expr::var(x).gt(Expr::c(0)), // 1 instr header
            vec![Stmt::Assign(x, Expr::c(1))],
            vec![Stmt::Assign(x, Expr::c(2)), Stmt::Nop { count: 3 }],
        ));
        let p = b.build().unwrap();
        let l = layout_program(&p);

        let LayoutNode::Leaf(first) = &l.nodes[0] else {
            panic!("leaf expected")
        };
        // x = a[0] is 4 instructions, quantized to one full line (8 slots).
        assert_eq!((first.addr, first.count), (CODE_BASE, 8));

        let LayoutNode::If {
            id,
            header,
            then_branch,
            else_branch,
        } = &l.nodes[1]
        else {
            panic!("if expected")
        };
        assert_eq!(*id, 0);
        assert_eq!(header.addr, first.end());
        let LayoutNode::Leaf(t0) = &then_branch[0] else {
            panic!()
        };
        assert_eq!(t0.addr, header.end(), "then-branch follows the header");
        let LayoutNode::Leaf(e0) = &else_branch[0] else {
            panic!()
        };
        assert_eq!(e0.addr, t0.addr, "else-branch overlays the then-branch");
        let LayoutNode::Leaf(e1) = &else_branch[1] else {
            panic!()
        };
        assert_eq!((e1.addr, e1.count), (e0.end(), 8));
        assert_eq!(l.code_end, e1.end());
        assert_eq!(l.construct_count, 1);
    }

    #[test]
    fn for_gets_init_and_iter_spans() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        b.push(Stmt::for_(
            i,
            Expr::c(0),
            Expr::c(4),
            4,
            vec![Stmt::Nop { count: 1 }],
        ));
        let p = b.build().unwrap();
        let l = layout_program(&p);
        let LayoutNode::For {
            init, iter, body, ..
        } = &l.nodes[0]
        else {
            panic!()
        };
        assert_eq!(init.count, 8, "li+li+init, quantized to one line");
        assert_eq!(iter.count, 8, "inc+cmp, quantized to one line");
        assert_eq!(iter.addr, init.end());
        let LayoutNode::Leaf(b0) = &body[0] else {
            panic!()
        };
        assert_eq!(b0.addr, iter.end());
    }

    #[test]
    fn ids_are_preorder() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        b.push(Stmt::while_(
            Expr::var(x).lt(Expr::c(2)),
            2,
            vec![Stmt::if_(Expr::var(x).gt(Expr::c(0)), vec![], vec![])],
        ));
        b.push(Stmt::if_(Expr::var(x).gt(Expr::c(1)), vec![], vec![]));
        let p = b.build().unwrap();
        let l = layout_program(&p);
        let LayoutNode::While { id: w, body, .. } = &l.nodes[0] else {
            panic!()
        };
        let LayoutNode::If { id: inner, .. } = &body[0] else {
            panic!()
        };
        let LayoutNode::If { id: outer2, .. } = &l.nodes[1] else {
            panic!()
        };
        assert_eq!((*w, *inner, *outer2), (0, 1, 2));
        assert_eq!(l.construct_count, 3);
    }

    #[test]
    fn instr_addr_clamps() {
        let s = InstrSpan {
            addr: 100,
            count: 2,
        };
        assert_eq!(s.instr_addr(0), 100);
        assert_eq!(s.instr_addr(1), 104);
        assert_eq!(s.instr_addr(9), 104, "clamped to last slot");
    }
}
