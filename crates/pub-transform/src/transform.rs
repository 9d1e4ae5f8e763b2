//! The PUB program transformation.

use mbcr_ir::{const_eval, Expr, Program, ProgramError, Stmt, Var};
use mbcr_trace::scs::scs2_by;

use crate::tokens::{materialize, seq_sig, StmtSig};

/// How PUB handles data accesses whose addresses are not path-invariant.
///
/// An access like `keys[mid]`, where `mid` depends on earlier branch
/// decisions, touches *different lines on different paths* — possibly even
/// a different **number** of distinct lines. Equalizing branch footprints
/// alone cannot upper-bound that: a path reusing one line can be faster
/// than a path spreading over two. The sound, conservative remedy (what a
/// compiler-level PUB must do for statically-unknown addresses) is to widen
/// such accesses so every path touches **all lines the access could
/// reference** — the whole array, once per line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WidenPolicy {
    /// No widening. Unsound on programs with path-dependent addressing;
    /// kept for the ablation benches.
    Off,
    /// Widen accesses whose index expressions depend on *path-dependent*
    /// variables (assigned under a conditional, or data-flow-reachable from
    /// one — a taint fixpoint). Single-path code is never widened.
    #[default]
    PathDependent,
}

/// Configuration of the PUB transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PubConfig {
    /// Also pad loops to their declared bounds (`max_iter`), so paths that
    /// exit loops early still emit the full per-iteration footprint. A
    /// `for` whose constant bounds already span `max_iter` always runs its
    /// bound and is left as it is.
    ///
    /// The paper's PUB assumes analysis inputs trigger the highest loop
    /// bounds; enabling this removes that assumption at the cost of extra
    /// pessimism (an extension evaluated in the ablation benches).
    pub pad_loops: bool,
    /// Widening of path-dependent data accesses.
    pub widen: WidenPolicy,
}

impl PubConfig {
    /// The paper's configuration: conditionals equalized, path-dependent
    /// accesses widened, loop bounds assumed to be triggered by the
    /// analysis inputs.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            pad_loops: false,
            widen: WidenPolicy::PathDependent,
        }
    }

    /// The extended configuration with loop padding.
    #[must_use]
    pub fn with_loop_padding() -> Self {
        Self {
            pad_loops: true,
            widen: WidenPolicy::PathDependent,
        }
    }
}

/// Per-conditional inflation statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstructReport {
    /// Pre-order index of the conditional in the *original* program
    /// (same numbering as [`mbcr_ir::layout_program`]).
    pub construct_id: u32,
    /// Innocuous statements inserted into the then-branch.
    pub then_inserted: usize,
    /// Innocuous statements inserted into the else-branch.
    pub else_inserted: usize,
    /// Total instructions inserted (both branches).
    pub inserted_instrs: u64,
    /// Total data references inserted (both branches).
    pub inserted_data_refs: u64,
}

/// Summary of one PUB application.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PubReport {
    /// Per-conditional reports, in pre-order.
    pub constructs: Vec<ConstructReport>,
    /// Number of loops rewritten by [`PubConfig::pad_loops`].
    pub loops_padded: usize,
    /// Full-array touches inserted by the widening pass
    /// ([`PubConfig::widen`]).
    pub widened_touches: usize,
}

impl PubReport {
    /// Total instructions inserted across all constructs.
    #[must_use]
    pub fn total_inserted_instrs(&self) -> u64 {
        self.constructs.iter().map(|c| c.inserted_instrs).sum()
    }

    /// Total data references inserted across all constructs.
    #[must_use]
    pub fn total_inserted_data_refs(&self) -> u64 {
        self.constructs.iter().map(|c| c.inserted_data_refs).sum()
    }
}

/// The pubbed program plus its inflation report.
#[derive(Debug, Clone)]
pub struct PubResult {
    /// The transformed program (named `<original>_pub`).
    pub program: Program,
    /// What was inserted where.
    pub report: PubReport,
}

/// Applies PUB to a program: innermost-first, every conditional's branches
/// are inflated with [`Stmt::Touch`]/[`Stmt::Nop`] statements until both
/// flatten to the same access-token sequence — the minimal (token-level SCS)
/// common supersequence, inserted at statement boundaries.
///
/// The deployed binary is the *original* program; the pubbed program exists
/// only to collect analysis-time measurements (paper Section 2).
///
/// # Errors
///
/// Returns [`ProgramError`] if the rebuilt body fails validation (cannot
/// happen for programs built via [`mbcr_ir::ProgramBuilder`] unless the
/// program was hand-constructed inconsistently).
///
/// # Examples
///
/// ```
/// use mbcr_ir::{Expr, ProgramBuilder, Stmt};
/// use mbcr_pub::{pub_transform, PubConfig};
///
/// let mut b = ProgramBuilder::new("demo");
/// let a = b.array("a", 8);
/// let (x, y) = (b.var("x"), b.var("y"));
/// b.push(Stmt::if_(
///     Expr::var(x).gt(Expr::c(0)),
///     vec![Stmt::Assign(y, Expr::load(a, Expr::c(0)))],
///     vec![],
/// ));
/// let p = b.build().unwrap();
/// let pubbed = pub_transform(&p, &PubConfig::paper()).unwrap();
/// // The empty else-branch was inflated with the then-branch's footprint.
/// assert_eq!(pubbed.report.constructs[0].else_inserted, 1);
/// ```
pub fn pub_transform(program: &Program, cfg: &PubConfig) -> Result<PubResult, ProgramError> {
    // Widening first: the inserted touches become ordinary footprint that
    // the branch equalization then mirrors across siblings.
    let (widened, widened_touches) = match cfg.widen {
        WidenPolicy::Off => (program.clone(), 0),
        WidenPolicy::PathDependent => {
            let tainted = crate::widen::path_dependent_vars(program.body());
            let (body, inserted) =
                crate::widen::widen_body(program.body(), &tainted, program.arrays());
            (program.with_body(body)?, inserted)
        }
    };
    let mut ctx = Ctx {
        cfg: *cfg,
        next_construct: 0,
        fresh_counter: 0,
        base_var_count: widened.var_count() as u32,
        extra_vars: Vec::new(),
        report: PubReport {
            widened_touches,
            ..PubReport::default()
        },
    };
    let body = ctx.transform_stmts(widened.body());
    let extra: Vec<&str> = ctx.extra_vars.iter().map(String::as_str).collect();
    let (new_program, _) = widened.extended(&extra, body)?;
    Ok(PubResult {
        program: new_program.renamed(format!("{}_pub", program.name())),
        report: ctx.report,
    })
}

struct Ctx {
    cfg: PubConfig,
    next_construct: u32,
    fresh_counter: u32,
    base_var_count: u32,
    extra_vars: Vec<String>,
    report: PubReport,
}

impl Ctx {
    /// Allocates a scratch variable. `Program::extended` appends the extras
    /// after the original variables in push order, so the final id is
    /// `base_var_count + position`.
    fn fresh_var(&mut self, tag: &str) -> Var {
        let name = format!("__pub_{tag}{}", self.fresh_counter);
        self.fresh_counter += 1;
        self.extra_vars.push(name);
        Var(self.base_var_count + self.extra_vars.len() as u32 - 1)
    }

    fn transform_stmts(&mut self, stmts: &[Stmt]) -> Vec<Stmt> {
        stmts.iter().map(|s| self.transform_stmt(s)).collect()
    }

    fn transform_stmt(&mut self, s: &Stmt) -> Stmt {
        match s {
            Stmt::Assign(..) | Stmt::Store { .. } | Stmt::Touch { .. } | Stmt::Nop { .. } => {
                s.clone()
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let id = self.next_construct;
                self.next_construct += 1;
                let then_t = self.transform_stmts(then_branch);
                let else_t = self.transform_stmts(else_branch);
                let (then_p, else_p) = self.equalize_if(id, then_t, else_t);
                Stmt::If {
                    cond: cond.clone(),
                    then_branch: then_p,
                    else_branch: else_p,
                }
            }
            Stmt::While {
                cond,
                max_iter,
                body,
            } => {
                let _id = self.next_construct;
                self.next_construct += 1;
                let body_t = self.transform_stmts(body);
                if self.cfg.pad_loops {
                    self.report.loops_padded += 1;
                    self.pad_while(cond.clone(), *max_iter, body_t)
                } else {
                    Stmt::While {
                        cond: cond.clone(),
                        max_iter: *max_iter,
                        body: body_t,
                    }
                }
            }
            Stmt::For {
                var,
                from,
                to,
                max_iter,
                body,
            } => {
                let _id = self.next_construct;
                self.next_construct += 1;
                let body_t = self.transform_stmts(body);
                if self.cfg.pad_loops && !runs_its_bound(from, to, *max_iter) {
                    self.report.loops_padded += 1;
                    self.pad_for(*var, from.clone(), to.clone(), *max_iter, body_t)
                } else {
                    Stmt::For {
                        var: *var,
                        from: from.clone(),
                        to: to.clone(),
                        max_iter: *max_iter,
                        body: body_t,
                    }
                }
            }
        }
    }

    /// Inflates both branches to the token-level shortest common
    /// supersequence of their signatures.
    fn equalize_if(
        &mut self,
        construct_id: u32,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    ) -> (Vec<Stmt>, Vec<Stmt>) {
        let sig_t = seq_sig(&then_branch);
        let sig_e = seq_sig(&else_branch);
        let merged: Vec<StmtSig> = scs2_by(&sig_t, &sig_e, |a, b| a == b);

        let (then_p, t_ins, t_instrs, t_refs) = pad_branch(then_branch, &sig_t, &merged);
        let (else_p, e_ins, e_instrs, e_refs) = pad_branch(else_branch, &sig_e, &merged);

        debug_assert_eq!(
            mbcr_ir::flatten(&then_p),
            mbcr_ir::flatten(&else_p),
            "equalized branches must share one flattened token sequence"
        );

        self.report.constructs.push(ConstructReport {
            construct_id,
            then_inserted: t_ins,
            else_inserted: e_ins,
            inserted_instrs: t_instrs + e_instrs,
            inserted_data_refs: t_refs + e_refs,
        });
        (then_p, else_p)
    }

    /// `while (c) { body }` with loop padding: run exactly `max_iter`
    /// iterations; once the condition first fails, the remaining iterations
    /// execute an innocuous copy of the body's footprint. The condition is
    /// still evaluated every iteration (its loads must keep flowing).
    fn pad_while(&mut self, cond: Expr, max_iter: u32, body: Vec<Stmt>) -> Stmt {
        // flag = 1; for i in 0..max { flag &= (cond != 0); if flag { body } }
        // The inner conditional is equalized like any other, giving the
        // else-side the body's innocuous footprint. Its report entry uses
        // the synthetic id u32::MAX (it has no counterpart in the original
        // program's construct numbering).
        let flag = self.fresh_var("flag");
        let i = self.fresh_var("i");
        let (then_p, else_p) = self.equalize_if(u32::MAX, body, vec![]);
        let looped = Stmt::For {
            var: i,
            from: Expr::c(0),
            to: Expr::c(i64::from(max_iter)),
            max_iter,
            body: vec![
                Stmt::Assign(flag, Expr::var(flag).and(cond.ne(Expr::c(0)))),
                Stmt::If {
                    cond: Expr::var(flag),
                    then_branch: then_p,
                    else_branch: else_p,
                },
            ],
        };
        looped.prefixed(vec![Stmt::Assign(flag, Expr::c(1))])
    }

    /// `for v in from..to { body }` with loop padding: iterate the full
    /// declared bound, guarding the body with `v < hi`.
    fn pad_for(&mut self, var: Var, from: Expr, to: Expr, max_iter: u32, body: Vec<Stmt>) -> Stmt {
        let lo = self.fresh_var("lo");
        let hi = self.fresh_var("hi");
        let i = self.fresh_var("i");
        let (then_p, else_p) = self.equalize_if(u32::MAX, body, vec![]);
        Stmt::For {
            var: i,
            from: Expr::c(0),
            to: Expr::c(i64::from(max_iter)),
            max_iter,
            body: vec![
                Stmt::Assign(var, Expr::var(lo).add(Expr::var(i))),
                Stmt::If {
                    cond: Expr::var(var).lt(Expr::var(hi)),
                    then_branch: then_p,
                    else_branch: else_p,
                },
            ],
        }
        .prefixed(vec![Stmt::Assign(lo, from), Stmt::Assign(hi, to)])
    }
}

/// Whether `for v in from..to` provably runs exactly `max_iter` iterations:
/// both bounds are constant and span the bound. The IR has no `break` or
/// `return`, so such a loop always runs its bound and padding it would only
/// add the guard's cost.
fn runs_its_bound(from: &Expr, to: &Expr, max_iter: u32) -> bool {
    match (const_eval(from), const_eval(to)) {
        (Some(lo), Some(hi)) => hi.checked_sub(lo) == Some(i64::from(max_iter)),
        _ => false,
    }
}

// `pad_for` wants to prepend initialization statements before the loop;
// a tiny helper enum keeps `transform_stmt` returning a single Stmt.
trait Prefixed {
    fn prefixed(self, before: Vec<Stmt>) -> Stmt;
}

impl Prefixed for Stmt {
    fn prefixed(self, before: Vec<Stmt>) -> Stmt {
        if before.is_empty() {
            return self;
        }
        // Wrap in a degenerate single-iteration loop? No — use a Block-less
        // construct: an `if (1)` with an empty else, which the interpreter
        // executes unconditionally and costs one header instruction.
        let mut body = before;
        body.push(self);
        Stmt::if_(Expr::c(1), body, vec![])
    }
}

/// Pads one branch against the merged signature. Returns the padded branch
/// and (inserted statement count, inserted instructions, inserted refs).
fn pad_branch(
    branch: Vec<Stmt>,
    sig: &[StmtSig],
    merged: &[StmtSig],
) -> (Vec<Stmt>, usize, u64, u64) {
    let mut out = Vec::with_capacity(merged.len());
    let mut inserted = 0usize;
    let mut instrs = 0u64;
    let mut refs = 0u64;
    let mut stmts = branch.into_iter();
    let mut ptr = 0usize;
    for m in merged {
        if ptr < sig.len() && &sig[ptr] == m {
            out.push(stmts.next().expect("signature tracks branch statements"));
            ptr += 1;
        } else {
            let mat = materialize(m);
            inserted += mat.len();
            instrs += m.instr_total();
            refs += m.data_total();
            out.extend(mat);
        }
    }
    assert_eq!(
        ptr,
        sig.len(),
        "merged signature must embed the branch (SCS property)"
    );
    (out, inserted, instrs, refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_ir::{execute, Inputs, ProgramBuilder};

    fn c(v: i64) -> Expr {
        Expr::c(v)
    }

    /// Build the paper's Figure 1(b) situation at the IR level: an if whose
    /// branches access different array elements.
    fn two_branch_program() -> (Program, Var) {
        let mut b = ProgramBuilder::new("fig1b");
        let arr = b.array("m", 8);
        let x = b.var("x");
        let y = b.var("y");
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![
                Stmt::Assign(y, Expr::load(arr, c(0))), // A
                Stmt::Assign(y, Expr::load(arr, c(1))), // B
            ],
            vec![
                Stmt::Assign(y, Expr::load(arr, c(1))), // B
                Stmt::Assign(y, Expr::load(arr, c(2))), // C
            ],
        ));
        (b.build().unwrap(), x)
    }

    #[test]
    fn branches_get_equal_flat_signatures() {
        let (p, _) = two_branch_program();
        let result = pub_transform(&p, &PubConfig::paper()).unwrap();
        let Stmt::If {
            then_branch,
            else_branch,
            ..
        } = &result.program.body()[0]
        else {
            panic!("if expected")
        };
        assert_eq!(mbcr_ir::flatten(then_branch), mbcr_ir::flatten(else_branch));
        // SCS of [A,B] and [B,C] is [A,B,C]: one insertion per branch.
        let rep = &result.report.constructs[0];
        assert_eq!(rep.then_inserted, 1);
        assert_eq!(rep.else_inserted, 1);
    }

    #[test]
    fn pubbed_program_preserves_semantics() {
        let (p, x) = two_branch_program();
        let result = pub_transform(&p, &PubConfig::paper()).unwrap();
        for v in [-1, 1] {
            let orig = execute(&p, &Inputs::new().with_var(x, v)).unwrap();
            let pubbed = execute(&result.program, &Inputs::new().with_var(x, v)).unwrap();
            let y = p.var_by_name("y").unwrap();
            assert_eq!(orig.state.var(y), pubbed.state.var(y), "x = {v}");
        }
    }

    #[test]
    fn pubbed_traces_are_supersequences_of_originals_data() {
        let (p, x) = two_branch_program();
        let result = pub_transform(&p, &PubConfig::paper()).unwrap();
        for v in [-1, 1] {
            let orig = execute(&p, &Inputs::new().with_var(x, v)).unwrap();
            let pubbed = execute(&result.program, &Inputs::new().with_var(x, v)).unwrap();
            // The pubbed data-line sequence embeds the original's.
            let ol = orig.trace.data_lines(32);
            let pl = pubbed.trace.data_lines(32);
            let mut it = ol.iter();
            let mut need = it.next();
            for l in &pl {
                if Some(l) == need {
                    need = it.next();
                }
            }
            assert!(
                need.is_none(),
                "pubbed data lines must embed original (x = {v})"
            );
        }
    }

    #[test]
    fn both_paths_emit_identical_data_footprint() {
        let (p, x) = two_branch_program();
        let result = pub_transform(&p, &PubConfig::paper()).unwrap();
        let t = execute(&result.program, &Inputs::new().with_var(x, 1)).unwrap();
        let e = execute(&result.program, &Inputs::new().with_var(x, -1)).unwrap();
        assert_eq!(t.trace.data_lines(32), e.trace.data_lines(32));
        assert_eq!(
            t.trace.instr_fetches().count(),
            e.trace.instr_fetches().count(),
            "instruction counts equalized"
        );
    }

    #[test]
    fn empty_else_gets_full_copy() {
        let mut b = ProgramBuilder::new("t");
        let arr = b.array("a", 8);
        let x = b.var("x");
        let y = b.var("y");
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![Stmt::Assign(y, Expr::load(arr, c(3)))],
            vec![],
        ));
        let p = b.build().unwrap();
        let result = pub_transform(&p, &PubConfig::paper()).unwrap();
        let taken = execute(&result.program, &Inputs::new().with_var(x, 1)).unwrap();
        let skipped = execute(&result.program, &Inputs::new().with_var(x, -1)).unwrap();
        assert_eq!(taken.trace.data_lines(32), skipped.trace.data_lines(32));
        let y_id = p.var_by_name("y").unwrap();
        assert_eq!(skipped.state.var(y_id), 0, "touches don't write state");
    }

    #[test]
    fn nested_ifs_are_equalized_innermost_first() {
        let mut b = ProgramBuilder::new("t");
        let arr = b.array("a", 8);
        let x = b.var("x");
        let y = b.var("y");
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![Stmt::if_(
                Expr::var(x).gt(c(5)),
                vec![Stmt::Assign(y, Expr::load(arr, c(0)))],
                vec![Stmt::Assign(y, Expr::load(arr, c(1)))],
            )],
            vec![Stmt::Assign(y, Expr::load(arr, c(2)))],
        ));
        let p = b.build().unwrap();
        let result = pub_transform(&p, &PubConfig::paper()).unwrap();
        // All three paths must produce the same data footprint.
        let runs: Vec<_> = [7, 2, -1]
            .iter()
            .map(|&v| execute(&result.program, &Inputs::new().with_var(x, v)).unwrap())
            .collect();
        assert_eq!(runs[0].trace.data_lines(32), runs[1].trace.data_lines(32));
        assert_eq!(runs[1].trace.data_lines(32), runs[2].trace.data_lines(32));
        assert_eq!(result.report.constructs.len(), 2);
    }

    #[test]
    fn loops_inside_branches_unroll_in_signatures() {
        let mut b = ProgramBuilder::new("t");
        let arr = b.array("a", 8);
        let x = b.var("x");
        let y = b.var("y");
        let i = b.var("i");
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![Stmt::for_(
                i,
                c(0),
                c(4),
                4,
                vec![Stmt::Assign(y, Expr::load(arr, Expr::var(i)))],
            )],
            vec![],
        ));
        let p = b.build().unwrap();
        let result = pub_transform(&p, &PubConfig::paper()).unwrap();
        let taken = execute(&result.program, &Inputs::new().with_var(x, 1)).unwrap();
        let skipped = execute(&result.program, &Inputs::new().with_var(x, -1)).unwrap();
        assert_eq!(taken.trace.data_lines(32), skipped.trace.data_lines(32));
        assert_eq!(
            taken.trace.instr_fetches().count(),
            skipped.trace.instr_fetches().count()
        );
    }

    #[test]
    fn pad_loops_equalizes_iteration_counts() {
        // while (i < x) { y += a[i]; i++ } with bound 6: inputs with
        // different x must produce the same footprint when padded.
        let mut b = ProgramBuilder::new("t");
        let arr = b.array("a", 8);
        let x = b.var("x");
        let y = b.var("y");
        let i = b.var("i");
        b.push(Stmt::while_(
            Expr::var(i).lt(Expr::var(x)),
            6,
            vec![
                Stmt::Assign(y, Expr::var(y).add(Expr::load(arr, Expr::var(i)))),
                Stmt::Assign(i, Expr::var(i).add(c(1))),
            ],
        ));
        let p = b.build().unwrap();
        let result = pub_transform(&p, &PubConfig::with_loop_padding()).unwrap();
        assert_eq!(result.report.loops_padded, 1);

        let short = execute(&result.program, &Inputs::new().with_var(x, 2)).unwrap();
        let long = execute(&result.program, &Inputs::new().with_var(x, 6)).unwrap();
        assert_eq!(
            short.trace.data_lines(32).len(),
            long.trace.data_lines(32).len()
        );
        assert_eq!(
            short.trace.instr_fetches().count(),
            long.trace.instr_fetches().count()
        );
        // Semantics preserved: y sums the first x elements.
        let inputs = Inputs::new()
            .with_var(x, 2)
            .with_array(arr, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let run = execute(&result.program, &inputs).unwrap();
        assert_eq!(run.state.var(y), 3);
    }

    #[test]
    fn single_path_program_is_unchanged_in_footprint() {
        let mut b = ProgramBuilder::new("t");
        let arr = b.array("a", 8);
        let y = b.var("y");
        let i = b.var("i");
        b.push(Stmt::for_(
            i,
            c(0),
            c(8),
            8,
            vec![Stmt::Assign(
                y,
                Expr::var(y).add(Expr::load(arr, Expr::var(i))),
            )],
        ));
        let p = b.build().unwrap();
        let result = pub_transform(&p, &PubConfig::paper()).unwrap();
        assert!(result.report.constructs.is_empty());
        let orig = execute(&p, &Inputs::new()).unwrap();
        let pubbed = execute(&result.program, &Inputs::new()).unwrap();
        assert_eq!(orig.trace.len(), pubbed.trace.len());
    }
}

mbcr_json::impl_serialize_struct!(ConstructReport {
    construct_id,
    then_inserted,
    else_inserted,
    inserted_instrs,
    inserted_data_refs,
});
mbcr_json::impl_serialize_struct!(PubReport {
    constructs,
    loops_padded,
    widened_touches
});
