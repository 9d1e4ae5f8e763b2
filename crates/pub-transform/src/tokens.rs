//! Statement signatures: the token runs PUB equalizes.
//!
//! A token is a span's architectural footprint ([`mbcr_ir::Token`]: its
//! ordered data references plus its instruction count); the model lives in
//! `mbcr-ir`, where the lint verifier, the path signatures and the cache
//! analysis read it too. A statement's **signature** is its run of tokens,
//! with loops unrolled to their declared bounds — the paper's assumption
//! that analysis inputs trigger the highest loop bounds, made explicit. A
//! branch's signature is the list of its statements' signatures.
//!
//! Two statements with equal signatures are architecturally exchangeable
//! under random placement, even if they compute different values. That is
//! the equality PUB's merge uses.

use mbcr_ir::{push_tokens, Stmt, Token};

/// The footprint of one whole statement (loops unrolled to `max_iter`,
/// conditionals assumed equalized — callers must transform innermost
/// constructs first).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StmtSig(pub Vec<Token>);

impl StmtSig {
    /// Total instruction count of the statement.
    #[must_use]
    pub fn instr_total(&self) -> u64 {
        self.0.iter().map(|t| u64::from(t.instrs)).sum()
    }

    /// Total data-reference count of the statement.
    #[must_use]
    pub fn data_total(&self) -> u64 {
        self.0.iter().map(|t| t.data.len() as u64).sum()
    }
}

/// Computes the footprint of a statement.
///
/// For conditionals the **then**-branch signature is used; this is only
/// correct once the conditional has been equalized (both branches share one
/// flattened token sequence), which the PUB transformation guarantees by
/// processing constructs innermost-first.
#[must_use]
pub fn stmt_sig(s: &Stmt) -> StmtSig {
    let mut tokens = Vec::new();
    push_tokens(s, &mut tokens);
    StmtSig(tokens)
}

/// Signature of a statement list (concatenated per-statement signatures).
#[must_use]
pub fn seq_sig(stmts: &[Stmt]) -> Vec<StmtSig> {
    stmts.iter().map(stmt_sig).collect()
}

/// Materializes a signature as functionally-innocuous statements emitting
/// exactly the same footprint: one [`Stmt::Touch`] per data-carrying token,
/// one [`Stmt::Nop`] per instruction-only token.
#[must_use]
pub fn materialize(sig: &StmtSig) -> Vec<Stmt> {
    sig.0
        .iter()
        .map(|t| {
            if t.data.is_empty() {
                Stmt::Nop { count: t.instrs }
            } else {
                let pad = t.instrs.saturating_sub(t.data.len() as u32);
                Stmt::Touch {
                    refs: t.data.clone(),
                    pad,
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbcr_ir::{ArrayId, Expr, ProgramBuilder, Var};

    fn c(v: i64) -> Expr {
        Expr::c(v)
    }

    #[test]
    fn assign_token_orders_loads() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        let d = b.array("d", 4);
        let x = b.var("x");
        // x = a[d[0]] + a[1]: loads d[0], a[d[0]], a[1]; 4 instrs.
        let s = Stmt::Assign(
            x,
            Expr::load(a, Expr::load(d, c(0))).add(Expr::load(a, c(1))),
        );
        let sig = stmt_sig(&s);
        assert_eq!(sig.0.len(), 1);
        let tok = &sig.0[0];
        // a[d[0]] = 5, a[1] = 3, add = 1, move = 1.
        assert_eq!(tok.instrs, 10);
        let arrays: Vec<ArrayId> = tok.data.iter().map(|r| r.0).collect();
        assert_eq!(arrays, vec![d, a, a]);
    }

    #[test]
    fn store_target_comes_last() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        let _ = b.var("x");
        let s = Stmt::store(a, c(0), Expr::load(a, c(1)));
        let sig = stmt_sig(&s);
        let tok = &sig.0[0];
        assert_eq!(tok.data.len(), 2);
        assert_eq!(tok.data[1], (a, c(0)), "store target last");
    }

    #[test]
    fn while_unrolls_to_bound() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        let x = b.var("x");
        let s = Stmt::while_(
            Expr::var(x).lt(c(3)),
            3,
            vec![Stmt::Assign(x, Expr::load(a, c(0)))],
        );
        let sig = stmt_sig(&s);
        // header + 3 * (body + header) = 7 tokens.
        assert_eq!(sig.0.len(), 7);
        // header = cmp(2)+branch(1) = 3; body assign = load(3)+move(1) = 4.
        assert_eq!(sig.instr_total(), 4 * 3 + 3 * 4);
        assert_eq!(sig.data_total(), 3);
    }

    #[test]
    fn for_unrolls_with_init_and_iter() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        let s = Stmt::for_(i, c(0), c(2), 2, vec![Stmt::Nop { count: 5 }]);
        let sig = stmt_sig(&s);
        // init, iter, (body, iter) * 2 = 6 tokens.
        assert_eq!(sig.0.len(), 6);
        // init = li+li+set = 3; iter = inc+cmp = 2; body = 5-instr nop.
        assert_eq!(sig.instr_total(), 3 + 2 + 2 * (5 + 2));
    }

    #[test]
    fn materialize_roundtrips_footprint() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        let x = b.var("x");
        let stmts = vec![
            Stmt::Assign(x, Expr::load(a, Expr::var(Var(0)))),
            Stmt::Nop { count: 2 },
        ];
        let sigs = seq_sig(&stmts);
        for (orig, sig) in stmts.iter().zip(&sigs) {
            let mat = materialize(sig);
            let mat_sig: Vec<StmtSig> = seq_sig(&mat);
            let flat: Vec<Token> = mat_sig.into_iter().flat_map(|s| s.0).collect();
            assert_eq!(&flat, &sig.0, "materialized footprint differs for {orig:?}");
            assert!(mat.iter().all(Stmt::is_innocuous));
        }
    }

    #[test]
    fn equal_tokens_from_different_statements() {
        // x = a[i] (assign, 3 instrs) vs touch a[i] with 2 pads: same token.
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        let x = b.var("x");
        let i = b.var("i");
        let assign = Stmt::Assign(x, Expr::load(a, Expr::var(i)));
        let touch = Stmt::Touch {
            refs: vec![(a, Expr::var(i))],
            pad: 2,
        };
        assert_eq!(stmt_sig(&assign), stmt_sig(&touch));
    }
}
