//! The `mbcr lint` engine: static PUB-soundness checks over a benchmark.
//!
//! Linting a program runs two layers:
//!
//! 1. **Transform** — [`pub_transform`] runs under the given
//!    configuration. If its output fails program validation, the
//!    [`ProgramError`](mbcr_ir::ProgramError) surfaces as one `IR001`
//!    diagnostic and there is nothing to pair.
//! 2. **Pairing** — [`lint_pair`] checks the transformed program on its
//!    own (branch balance, [`verify_balance`]) and against the original
//!    ([`verify_pair`]): anything inserted must be innocuous (`PUB003`),
//!    and loop bounds must survive untouched (`PUB004`).
//!
//! The IR has no `goto` or `break`, so every program's control flow is
//! structured by construction; there is no separate structural check.
//!
//! The CLI prints each [`Diagnostic`](mbcr_ir::Diagnostic) with its stable
//! code and exits nonzero when any check fails; the unit tests below seed
//! violations into transformed programs and pin the codes the lint
//! reports, so a regression in either the transform or the verifier shows
//! up as a changed code, not a silent pass.

use mbcr_ir::{verify_balance, verify_pair, DiagCode, Diagnostics, Program};
use mbcr_pub::{pub_transform, PubConfig};

/// Lints one source program end-to-end: the PUB transform under `cfg`,
/// then [`lint_pair`] on its output. Empty diagnostics mean the program
/// (and its transform) verified clean.
#[must_use]
pub fn lint_program(program: &Program, cfg: &PubConfig) -> Diagnostics {
    match pub_transform(program, cfg) {
        Ok(pubbed) => lint_pair(program, &pubbed.program),
        Err(e) => {
            let mut diags = Diagnostics::new();
            diags.push(DiagCode::InvalidProgram, None, format!("{e:?}"));
            diags
        }
    }
}

/// Lints an already-transformed program against its original: branch
/// balance on the transformed side ([`verify_balance`]) plus the
/// insertion-only embedding check ([`verify_pair`]). This is the entry
/// point for auditing a *stored* pubbed artifact, where re-running the
/// transform would only verify the transform, not the artifact.
#[must_use]
pub fn lint_pair(orig: &Program, pubbed: &Program) -> Diagnostics {
    let mut diags = verify_balance(pubbed);
    for d in &verify_pair(orig, pubbed) {
        diags.push(d.code, d.construct, d.message.clone());
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_ir::{ArrayId, Expr, ProgramBuilder, Stmt};

    fn branchy_program() -> Program {
        let mut b = ProgramBuilder::new("branchy");
        let m = b.array("m", 8);
        let x = b.var("x");
        let y = b.var("y");
        b.push(Stmt::if_(
            Expr::var(x).gt(Expr::c(0)),
            vec![
                Stmt::Assign(y, Expr::load(m, Expr::c(0))),
                Stmt::Assign(y, Expr::load(m, Expr::c(1))),
            ],
            vec![Stmt::Assign(y, Expr::load(m, Expr::c(2)))],
        ));
        b.build().unwrap()
    }

    fn pubbed(orig: &Program) -> Program {
        pub_transform(orig, &PubConfig::paper()).unwrap().program
    }

    /// Replaces the statement at `path` in the program body (top level
    /// only — the seeded mutations below all target top-level constructs).
    fn with_body<F: FnOnce(&mut Vec<Stmt>)>(p: &Program, mutate: F) -> Program {
        let mut body = p.body().to_vec();
        mutate(&mut body);
        p.with_body(body).unwrap()
    }

    #[test]
    fn clean_program_lints_clean() {
        let d = lint_program(&branchy_program(), &PubConfig::paper());
        assert!(d.is_empty(), "unexpected findings: {d}");
    }

    #[test]
    fn whole_suite_lints_clean() {
        for b in mbcr_malardalen::suite() {
            let d = lint_program(&b.program, &PubConfig::paper());
            assert!(d.is_empty(), "{}: {d}", b.name);
        }
    }

    #[test]
    fn seeded_arm_imbalance_reports_pub001() {
        let orig = branchy_program();
        let tampered = with_body(&pubbed(&orig), |body| {
            // Pad one arm further: the arms now differ in instruction
            // footprint.
            let Stmt::If { then_branch, .. } = &mut body[0] else {
                panic!("expected the conditional first");
            };
            then_branch.push(Stmt::Nop { count: 8 });
        });
        let codes = lint_pair(&orig, &tampered).codes();
        assert!(codes.contains(&DiagCode::Pub001), "got {codes:?}");
    }

    #[test]
    fn seeded_non_innocuous_insert_reports_pub003() {
        let orig = branchy_program();
        let tampered = with_body(&pubbed(&orig), |body| {
            // A store is never innocuous: it changes program state.
            body.push(Stmt::store(ArrayId(0), Expr::c(0), Expr::c(7)));
        });
        let codes = lint_pair(&orig, &tampered).codes();
        assert!(codes.contains(&DiagCode::Pub003), "got {codes:?}");
    }

    #[test]
    fn seeded_dropped_statement_reports_pub003() {
        let orig = branchy_program();
        let tampered = with_body(&pubbed(&orig), |body| {
            let Stmt::If {
                then_branch,
                else_branch,
                ..
            } = &mut body[0]
            else {
                panic!("expected the conditional first");
            };
            // Drop a real load from *both* arms: balance still holds if we
            // drop symmetrically, but the original no longer embeds.
            then_branch.remove(0);
            else_branch.remove(0);
        });
        let codes = lint_pair(&orig, &tampered).codes();
        assert!(codes.contains(&DiagCode::Pub003), "got {codes:?}");
    }

    #[test]
    fn seeded_loop_bound_change_reports_pub004() {
        let mut b = ProgramBuilder::new("looped");
        let m = b.array("m", 8);
        let (i, acc) = (b.var("i"), b.var("acc"));
        b.push(Stmt::for_(
            i,
            Expr::c(0),
            Expr::c(4),
            4,
            vec![Stmt::Assign(acc, Expr::load(m, Expr::var(i)))],
        ));
        let orig = b.build().unwrap();
        let tampered = with_body(&pubbed(&orig), |body| {
            let Stmt::For { to, .. } = &mut body[0] else {
                panic!("expected the loop first");
            };
            *to = Expr::c(6);
        });
        let codes = lint_pair(&orig, &tampered).codes();
        assert!(codes.contains(&DiagCode::Pub004), "got {codes:?}");
    }
}
