//! Static verification of PUB soundness invariants.
//!
//! PUB (path upper-bounding) promises that after the transform, the two
//! arms of every conditional are architecturally exchangeable: same
//! instruction footprint, same ordered data-access signature, with only
//! functionally-innocuous statements inserted. The arms are compared by
//! the footprint model PUB itself equalizes ([`crate::flatten`]); this
//! module re-checks the promise on *any* program, so `mbcr lint` can catch
//! a corrupted artifact, a hand-edited benchmark, or a buggy transform.
//!
//! Checks and their diagnostic codes:
//!
//! | code     | invariant                                                    |
//! |----------|--------------------------------------------------------------|
//! | `PUB001` | conditional arms have equal instruction footprints           |
//! | `PUB002` | conditional arms have equal ordered data-access signatures   |
//! | `PUB003` | a transformed program only *inserts innocuous* statements    |
//! | `PUB004` | loop bounds are consistent (const `for` span ≤ `max_iter`; unchanged across the transform) |
//! | `PUB005` | touch references stay inside their array                     |
//! | `IR001`  | the transformed program fails program validation             |
//!
//! The `CCA00x` codes are emitted by the cache analysis' simulator
//! cross-validation ([`crate::validate_classification`]) rather than by the
//! checks in this module:
//!
//! | code     | invariant                                                    |
//! |----------|--------------------------------------------------------------|
//! | `CCA001` | no simulated run misses on a must-analysis *always-hit*      |
//! | `CCA002` | no simulated run hits on a may-analysis *always-miss*        |
//! | `CCA003` | a *first-miss* access misses at most once per scope entry    |
//! | `CCA004` | observed hit/miss totals respect the static guaranteed bounds |
//!
//! [`verify_balance`] checks a single program; [`verify_pair`] additionally
//! embeds the original program into the transformed one to prove nothing
//! non-innocuous was inserted, dropped, or modified. Expressions have no
//! short-circuit operators ([`crate::Expr`] is total), so equal static
//! signatures imply equal dynamic access counts on every path — there is no
//! hidden data divergence for these checks to miss.

use std::fmt;

use crate::expr::{const_eval, Expr};
use crate::footprint::flatten;
use crate::program::{ArrayId, Program};
use crate::stmt::Stmt;

/// Machine-readable diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagCode {
    /// Conditional arms differ in instruction footprint.
    Pub001,
    /// Conditional arms differ in data-access signature.
    Pub002,
    /// Non-innocuous insertion, modification, or deletion.
    Pub003,
    /// Inconsistent loop bound.
    Pub004,
    /// Touch reference outside its array.
    Pub005,
    /// The transformed program fails program validation
    /// ([`crate::ProgramError`]).
    InvalidProgram,
    /// A simulated run missed on an access the must-analysis proved hit.
    Cca001,
    /// A simulated run hit on an access the may-analysis proved miss.
    Cca002,
    /// A first-miss access missed more than once per persistence scope.
    Cca003,
    /// Observed hit/miss totals undercut the static guaranteed bounds.
    Cca004,
}

impl DiagCode {
    /// The stable string form (`"PUB001"` …) used by `mbcr lint` output.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::Pub001 => "PUB001",
            DiagCode::Pub002 => "PUB002",
            DiagCode::Pub003 => "PUB003",
            DiagCode::Pub004 => "PUB004",
            DiagCode::Pub005 => "PUB005",
            DiagCode::InvalidProgram => "IR001",
            DiagCode::Cca001 => "CCA001",
            DiagCode::Cca002 => "CCA002",
            DiagCode::Cca003 => "CCA003",
            DiagCode::Cca004 => "CCA004",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One verification finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What invariant was violated.
    pub code: DiagCode,
    /// The pre-order construct id the finding is anchored to, when any
    /// (matches [`crate::layout_program`] numbering).
    pub construct: Option<u32>,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.construct {
            Some(id) => write!(f, "{} [construct {id}]: {}", self.code, self.message),
            None => write!(f, "{}: {}", self.code, self.message),
        }
    }
}

/// An ordered collection of findings; empty means the program verified.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diagnostics(Vec<Diagnostic>);

impl Diagnostics {
    /// An empty (passing) set.
    #[must_use]
    pub fn new() -> Diagnostics {
        Diagnostics(Vec::new())
    }

    /// Records a finding.
    pub fn push(&mut self, code: DiagCode, construct: Option<u32>, message: impl Into<String>) {
        self.0.push(Diagnostic {
            code,
            construct,
            message: message.into(),
        });
    }

    /// `true` when no invariant was violated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of findings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The findings, in discovery order.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.0.iter()
    }

    /// The distinct codes present (for test assertions).
    #[must_use]
    pub fn codes(&self) -> Vec<DiagCode> {
        let mut v: Vec<DiagCode> = self.0.iter().map(|d| d.code).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Diagnostics {
    type Item = &'a Diagnostic;
    type IntoIter = std::slice::Iter<'a, Diagnostic>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Verifies the per-program invariants: every conditional's arms are
/// instruction- and access-balanced (`PUB001`/`PUB002`), constant `for`
/// spans respect their declared bound (`PUB004`), and touch references stay
/// in range (`PUB005`).
///
/// A *source* (pre-PUB) program will normally fail the balance checks —
/// that imbalance is exactly what PUB exists to remove. Run this on
/// transformed programs.
#[must_use]
pub fn verify_balance(program: &Program) -> Diagnostics {
    let mut w = BalanceWalker {
        program,
        next_id: 0,
        diags: Diagnostics::new(),
    };
    w.walk_seq(program.body());
    w.diags
}

/// Verifies that `pubbed` is `orig` plus innocuous insertions only: every
/// original statement appears, in order and unmodified, with the same
/// conditional structure and loop bounds; everything else inserted is a
/// [`Stmt::Touch`] or [`Stmt::Nop`].
///
/// Valid only for transforms that preserve the statement tree shape (the
/// paper configuration; loop-padding configs restructure loop bodies and
/// must be checked with [`verify_balance`] alone).
#[must_use]
pub fn verify_pair(orig: &Program, pubbed: &Program) -> Diagnostics {
    let mut diags = Diagnostics::new();
    let mut next_id = 0u32;
    embed_seq(orig.body(), pubbed.body(), &mut next_id, &mut diags);
    diags
}

// ---------------------------------------------------------------------------
// Per-program balance checks

struct BalanceWalker<'p> {
    program: &'p Program,
    next_id: u32,
    diags: Diagnostics,
}

impl BalanceWalker<'_> {
    fn walk_seq(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.walk_stmt(s);
        }
    }

    fn walk_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Assign(..) | Stmt::Store { .. } | Stmt::Nop { .. } => {}
            Stmt::Touch { refs, .. } => {
                for (array, index) in refs {
                    if let Some(v) = const_eval(index) {
                        let decl = &self.program.arrays()[array.0 as usize];
                        let len = i64::from(decl.len);
                        if v < 0 || v >= len {
                            self.diags.push(
                                DiagCode::Pub005,
                                None,
                                format!("touch reads {}[{v}], outside 0..{len}", decl.name),
                            );
                        }
                    }
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let id = self.next_id;
                self.next_id += 1;
                self.walk_seq(then_branch);
                self.walk_seq(else_branch);
                // A constant condition decides the branch statically: only
                // one arm is feasible, so imbalance cannot split paths
                // (PUB's loop padding emits `if (1) { … } else {}` prefix
                // wrappers that rely on this).
                if const_eval(cond).is_some() {
                    return;
                }
                // `flatten` takes nested conditionals by their then-arms;
                // a nested imbalance is reported at its own construct.
                let then_toks = flatten(then_branch);
                let else_toks = flatten(else_branch);
                if then_toks != else_toks {
                    let ti: u64 = then_toks.iter().map(|t| u64::from(t.instrs)).sum();
                    let ei: u64 = else_toks.iter().map(|t| u64::from(t.instrs)).sum();
                    let td: Vec<&(ArrayId, Expr)> =
                        then_toks.iter().flat_map(|t| &t.data).collect();
                    let ed: Vec<&(ArrayId, Expr)> =
                        else_toks.iter().flat_map(|t| &t.data).collect();
                    if td != ed {
                        self.diags.push(
                            DiagCode::Pub002,
                            Some(id),
                            format!(
                                "arm data signatures differ ({} vs {} references)",
                                td.len(),
                                ed.len()
                            ),
                        );
                    } else {
                        // Equal data but unequal tokens: instruction totals
                        // or span chunking differ — both change the fetch
                        // footprint under random placement.
                        self.diags.push(
                            DiagCode::Pub001,
                            Some(id),
                            format!("arm instruction footprints differ ({ti} vs {ei} instrs)"),
                        );
                    }
                }
            }
            Stmt::While { body, .. } => {
                self.next_id += 1;
                self.walk_seq(body);
            }
            Stmt::For {
                from,
                to,
                max_iter,
                body,
                ..
            } => {
                let id = self.next_id;
                self.next_id += 1;
                if let (Some(lo), Some(hi)) = (const_eval(from), const_eval(to)) {
                    let span = (hi - lo).max(0);
                    if span > i64::from(*max_iter) {
                        self.diags.push(
                            DiagCode::Pub004,
                            Some(id),
                            format!(
                                "constant for-range spans {span} iterations > bound {max_iter}"
                            ),
                        );
                    }
                }
                self.walk_seq(body);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pair-mode embedding

/// Constructs (`if`/`while`/`for`) inside one statement, itself included.
fn construct_count_of(s: &Stmt) -> u32 {
    match s {
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            1 + then_branch.iter().map(construct_count_of).sum::<u32>()
                + else_branch.iter().map(construct_count_of).sum::<u32>()
        }
        Stmt::While { body, .. } | Stmt::For { body, .. } => {
            1 + body.iter().map(construct_count_of).sum::<u32>()
        }
        _ => 0,
    }
}

/// Greedy ordered embedding of `orig` into `pubbed`: PUB only inserts, so
/// the original statements must appear as an in-order subsequence with
/// matching structure. `next_id` numbers `pubbed`'s constructs pre-order.
fn embed_seq(orig: &[Stmt], pubbed: &[Stmt], next_id: &mut u32, diags: &mut Diagnostics) {
    let mut oi = 0;
    for p in pubbed {
        if oi < orig.len() && try_match(&orig[oi], p, next_id, diags) {
            oi += 1;
        } else if p.is_innocuous() {
            *next_id += construct_count_of(p);
        } else {
            let id = *next_id;
            *next_id += construct_count_of(p);
            diags.push(
                DiagCode::Pub003,
                None,
                format!("non-innocuous statement inserted or modified near construct {id}: {p:?}"),
            );
        }
    }
    for missing in &orig[oi..] {
        diags.push(
            DiagCode::Pub003,
            None,
            format!("original statement dropped by the transform: {missing:?}"),
        );
    }
}

/// Structural match of one original statement against one transformed
/// statement, recursing into matched constructs.
fn try_match(o: &Stmt, p: &Stmt, next_id: &mut u32, diags: &mut Diagnostics) -> bool {
    match (o, p) {
        (Stmt::Assign(..), Stmt::Assign(..))
        | (Stmt::Store { .. }, Stmt::Store { .. })
        | (Stmt::Touch { .. }, Stmt::Touch { .. })
        | (Stmt::Nop { .. }, Stmt::Nop { .. }) => o == p,
        (
            Stmt::If {
                cond: oc,
                then_branch: ot,
                else_branch: oe,
            },
            Stmt::If {
                cond: pc,
                then_branch: pt,
                else_branch: pe,
            },
        ) => {
            if oc != pc {
                return false;
            }
            *next_id += 1;
            embed_seq(ot, pt, next_id, diags);
            embed_seq(oe, pe, next_id, diags);
            true
        }
        (
            Stmt::While {
                cond: oc,
                max_iter: om,
                body: ob,
            },
            Stmt::While {
                cond: pc,
                max_iter: pm,
                body: pb,
            },
        ) => {
            if oc != pc {
                return false;
            }
            let id = *next_id;
            *next_id += 1;
            if om != pm {
                diags.push(
                    DiagCode::Pub004,
                    Some(id),
                    format!("while bound changed by the transform ({om} -> {pm})"),
                );
            }
            embed_seq(ob, pb, next_id, diags);
            true
        }
        (
            Stmt::For {
                var: ov,
                from: of,
                to: oto,
                max_iter: om,
                body: ob,
            },
            Stmt::For {
                var: pv,
                from: pf,
                to: pto,
                max_iter: pm,
                body: pb,
            },
        ) => {
            if ov != pv || of != pf || oto != pto {
                return false;
            }
            let id = *next_id;
            *next_id += 1;
            if om != pm {
                diags.push(
                    DiagCode::Pub004,
                    Some(id),
                    format!("for bound changed by the transform ({om} -> {pm})"),
                );
            }
            embed_seq(ob, pb, next_id, diags);
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn c(v: i64) -> Expr {
        Expr::c(v)
    }

    #[test]
    fn balanced_arms_pass_clean() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 8);
        let x = b.var("x");
        // then: x = a[0] (4 instrs, reads a[0]);
        // else: touch a[0] + 3 pads (4 instrs, reads a[0]).
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![Stmt::Assign(x, Expr::load(a, c(0)))],
            vec![Stmt::Touch {
                refs: vec![(a, c(0))],
                pad: 3,
            }],
        ));
        let p = b.build().unwrap();
        let d = verify_balance(&p);
        assert!(d.is_empty(), "{d}");
    }

    #[test]
    fn unbalanced_instrs_are_pub001() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![Stmt::Nop { count: 4 }],
            vec![Stmt::Nop { count: 2 }],
        ));
        let p = b.build().unwrap();
        let d = verify_balance(&p);
        assert_eq!(d.codes(), vec![DiagCode::Pub001]);
        assert_eq!(d.iter().next().unwrap().construct, Some(0));
    }

    #[test]
    fn unbalanced_data_is_pub002() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 8);
        let x = b.var("x");
        // Same instruction totals (1 each), different data refs.
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![Stmt::Touch {
                refs: vec![(a, c(0))],
                pad: 0,
            }],
            vec![Stmt::Nop { count: 1 }],
        ));
        let p = b.build().unwrap();
        assert_eq!(verify_balance(&p).codes(), vec![DiagCode::Pub002]);
    }

    #[test]
    fn nested_imbalance_is_anchored_to_inner_construct() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![Stmt::if_(
                Expr::var(x).gt(c(5)),
                vec![Stmt::Nop { count: 3 }],
                vec![Stmt::Nop { count: 3 }],
            )],
            vec![
                // Mirror the inner if so the outer arms balance.
                Stmt::if_(
                    Expr::var(x).gt(c(5)),
                    vec![Stmt::Nop { count: 3 }],
                    vec![Stmt::Nop { count: 1 }], // inner imbalance
                ),
            ],
        ));
        let p = b.build().unwrap();
        let d = verify_balance(&p);
        // Inner construct 2 is unbalanced; the outer arms then differ too
        // (the flattening takes then-arms), so we get both findings — the
        // inner one anchored to construct 2.
        assert!(d
            .iter()
            .any(|x| x.code == DiagCode::Pub001 && x.construct == Some(2)));
    }

    #[test]
    fn const_for_overrun_is_pub004() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        b.push(Stmt::for_(i, c(0), c(9), 4, vec![Stmt::Nop { count: 1 }]));
        let p = b.build().unwrap();
        assert_eq!(verify_balance(&p).codes(), vec![DiagCode::Pub004]);
    }

    #[test]
    fn touch_out_of_range_is_pub005() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        b.push(Stmt::Touch {
            refs: vec![(a, c(7))],
            pad: 0,
        });
        let p = b.build().unwrap();
        assert_eq!(verify_balance(&p).codes(), vec![DiagCode::Pub005]);
    }

    #[test]
    fn pair_accepts_innocuous_insertions() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 8);
        let x = b.var("x");
        b.push(Stmt::Assign(x, Expr::load(a, c(0))));
        b.push(Stmt::if_(Expr::var(x).gt(c(0)), vec![], vec![]));
        let orig = b.build().unwrap();

        let mut body = vec![Stmt::Touch {
            refs: vec![(a, c(1))],
            pad: 0,
        }];
        body.extend(orig.body().to_vec());
        body.insert(2, Stmt::Nop { count: 2 });
        let pubbed = orig.with_body(body).unwrap();
        let d = verify_pair(&orig, &pubbed);
        assert!(d.is_empty(), "{d}");
    }

    #[test]
    fn pair_flags_non_innocuous_insertion_and_drop() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        b.push(Stmt::Assign(x, c(1)));
        b.push(Stmt::Assign(x, c(2)));
        let orig = b.build().unwrap();

        // Replace the second assign with a different one: one insertion,
        // one drop — both PUB003.
        let pubbed = orig
            .with_body(vec![Stmt::Assign(x, c(1)), Stmt::Assign(x, c(9))])
            .unwrap();
        let d = verify_pair(&orig, &pubbed);
        assert_eq!(d.codes(), vec![DiagCode::Pub003]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn pair_flags_changed_loop_bound() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        b.push(Stmt::while_(
            Expr::var(i).lt(c(4)),
            4,
            vec![Stmt::Assign(i, Expr::var(i).add(c(1)))],
        ));
        let orig = b.build().unwrap();
        let pubbed = orig
            .with_body(vec![Stmt::while_(
                Expr::var(i).lt(c(4)),
                8,
                vec![Stmt::Assign(i, Expr::var(i).add(c(1)))],
            )])
            .unwrap();
        let d = verify_pair(&orig, &pubbed);
        assert_eq!(d.codes(), vec![DiagCode::Pub004]);
        assert_eq!(d.iter().next().unwrap().construct, Some(0));
    }
}
