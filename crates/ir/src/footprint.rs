//! The footprint model: what a statement's code emits.
//!
//! A span of code's **token** is its architectural footprint: the ordered
//! data references it emits (array + index expression, loads in
//! evaluation order, a store's target last) plus its instruction count.
//! Every static view of a program reads the same tokens:
//!
//! * PUB (`mbcr-pub`) equalizes the [`flatten`]ed tokens of a
//!   conditional's arms and materializes missing tokens as
//!   [`Stmt::Touch`] / [`Stmt::Nop`];
//! * [`crate::verify_balance`] checks that the arms flatten alike;
//! * [`crate::PathSpace`] sums each span's quantized instruction count and
//!   reference count into exact path signatures;
//! * the cache analysis ([`crate::classify`]) turns each reference into an
//!   access site.
//!
//! The interpreter ([`crate::execute`]) is the source of truth: the path
//! signatures and the cache analysis' site walk are checked against its
//! traces.
//!
//! Two spans with equal tokens are architecturally exchangeable under
//! random placement (same data lines touched in the same order, same number
//! of sequential instruction fetches), even if they compute different
//! values.

use crate::expr::Expr;
use crate::program::ArrayId;
use crate::stmt::Stmt;

/// Instructions of a `for` loop's per-iteration check: increment plus
/// compare/branch.
pub const FOR_ITER_INSTRS: u32 = 2;

/// The architectural footprint of one span of code.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Ordered data references, in [`Stmt::Touch`]'s `refs` shape: loads
    /// in evaluation order, a store's target last.
    pub data: Vec<(ArrayId, Expr)>,
    /// Number of instructions.
    pub instrs: u32,
}

impl Token {
    /// The footprint of a `for` loop's per-iteration check: no data,
    /// [`FOR_ITER_INSTRS`] instructions.
    #[must_use]
    pub fn for_iter() -> Token {
        Token {
            data: Vec::new(),
            instrs: FOR_ITER_INSTRS,
        }
    }
}

impl Stmt {
    /// The footprint of the statement's own span, excluding nested bodies:
    /// a leaf's whole footprint, an `if`/`while` condition check, or a
    /// `for`'s bound evaluation.
    #[must_use]
    pub fn own_token(&self) -> Token {
        let mut data = Vec::new();
        let mut loads = |e: &Expr| e.for_each_load(&mut |a, index| data.push((a, index.clone())));
        match self {
            Stmt::Assign(_, e) | Stmt::If { cond: e, .. } | Stmt::While { cond: e, .. } => loads(e),
            Stmt::Store {
                array,
                index,
                value,
            } => {
                loads(index);
                loads(value);
                data.push((*array, index.clone()));
            }
            Stmt::For { from, to, .. } => {
                loads(from);
                loads(to);
            }
            Stmt::Touch { refs, .. } => data.clone_from(refs),
            Stmt::Nop { .. } => {}
        }
        Token {
            data,
            instrs: self.own_instr_count(),
        }
    }
}

/// Appends the footprint of one whole execution of `s`: loops unrolled to
/// `max_iter`, each `if` taken by its then-arm (exact once the arms are
/// equalized).
pub fn push_tokens(s: &Stmt, out: &mut Vec<Token>) {
    let own = s.own_token();
    match s {
        Stmt::If { then_branch, .. } => {
            out.push(own);
            for inner in then_branch {
                push_tokens(inner, out);
            }
        }
        Stmt::While { max_iter, body, .. } | Stmt::For { max_iter, body, .. } => {
            // The check runs once on entry and once after every iteration:
            // a `while`'s is its condition, a `for`'s follows its bounds.
            let check = if matches!(s, Stmt::For { .. }) {
                out.push(own);
                Token::for_iter()
            } else {
                own
            };
            out.push(check.clone());
            for _ in 0..*max_iter {
                for inner in body {
                    push_tokens(inner, out);
                }
                out.push(check.clone());
            }
        }
        _ => out.push(own),
    }
}

/// The footprint of a statement sequence (see [`push_tokens`]).
#[must_use]
pub fn flatten(stmts: &[Stmt]) -> Vec<Token> {
    let mut out = Vec::new();
    for s in stmts {
        push_tokens(s, &mut out);
    }
    out
}
