//! PUB — Path Upper-Bounding for MBPTA (Kosmidis et al., ECRTS'14), as
//! combined with TAC in the DAC'18 paper this workspace reproduces.
//!
//! PUB rewrites a multipath program into a *pubbed* program whose every path
//! exhibits an execution-time distribution upper-bounding **all** paths of
//! the original (Equation 1 of the paper):
//!
//! ```text
//! ∀ i, j ∈ paths:  F(P_orig^i(t)) ≥ F(P_pub^j(t))
//! ```
//!
//! The transformation relies on a property exclusive to time-randomized
//! caches: inserting a memory access anywhere into an access sequence can
//! only worsen the probabilistic execution-time distribution. (Under LRU
//! the same insertion can *help* — see `mbcr-cache`'s Section 2
//! counter-example.)
//!
//! # How the IR-level transformation works
//!
//! 1. Conditionals are processed innermost-first.
//! 2. Each branch's **signature** is computed: per-statement access tokens
//!    (ordered data references + instruction count, `mbcr-ir`'s
//!    [`Token`](mbcr_ir::Token)), loops unrolled to their declared bounds
//!    ([`tokens`]).
//! 3. The two signatures are merged with a token-level shortest common
//!    supersequence — the minimal insertion set at statement granularity
//!    (PUB "tries to minimize the number of addresses inserted").
//! 4. Each branch is inflated to the merged signature with
//!    functionally-innocuous [`Touch`](mbcr_ir::Stmt::Touch) /
//!    [`Nop`](mbcr_ir::Stmt::Nop) statements, after which **both branches
//!    flatten to the same token sequence**: same arrays referenced in the
//!    same order, same instruction counts (and the IR layouter aligns branch
//!    starts to cache lines, so equal counts give identical instruction-line
//!    patterns).
//!
//! Under random placement, distinct lines receive i.i.d. uniform sets, so
//! equal shapes imply identically *distributed* cache behaviour even where
//! concrete addresses differ (exchangeability) — the distribution-level
//! guarantee Equation 1 needs. The [`shape`] module provides the runtime
//! checks; the workspace's integration tests add the statistical dominance
//! evidence (paper Figure 2).
//!
//! # Examples
//!
//! ```
//! use mbcr_ir::{execute, Expr, Inputs, ProgramBuilder, Stmt};
//! use mbcr_pub::{pub_transform, shape::data_shape, PubConfig};
//!
//! // if (x > 0) { y = m[0]; y = m[1]; } else { y = m[1]; y = m[2]; }
//! let mut b = ProgramBuilder::new("fig1b");
//! let m = b.array("m", 8);
//! let (x, y) = (b.var("x"), b.var("y"));
//! b.push(Stmt::if_(
//!     Expr::var(x).gt(Expr::c(0)),
//!     vec![
//!         Stmt::Assign(y, Expr::load(m, Expr::c(0))),
//!         Stmt::Assign(y, Expr::load(m, Expr::c(1))),
//!     ],
//!     vec![
//!         Stmt::Assign(y, Expr::load(m, Expr::c(1))),
//!         Stmt::Assign(y, Expr::load(m, Expr::c(2))),
//!     ],
//! ));
//! let p = b.build()?;
//! let pubbed = pub_transform(&p, &PubConfig::paper()).unwrap();
//!
//! // Both pubbed paths now touch the same arrays in the same order.
//! let t = execute(&pubbed.program, &Inputs::new().with_var(x, 1)).unwrap();
//! let e = execute(&pubbed.program, &Inputs::new().with_var(x, -1)).unwrap();
//! assert_eq!(
//!     data_shape(&t.trace, &pubbed.program),
//!     data_shape(&e.trace, &pubbed.program),
//! );
//! # Ok::<(), mbcr_ir::ProgramError>(())
//! ```

pub mod shape;
pub mod tokens;
mod transform;
pub mod widen;

pub use transform::{pub_transform, ConstructReport, PubConfig, PubReport, PubResult, WidenPolicy};

use mbcr_trace::scs::scs_many;
use mbcr_trace::SymSeq;

/// Sequence-level PUB: merges the address sequences of sibling paths into
/// their (pairwise-folded) shortest common supersequence — the paper's
/// `M_pub` for symbolic examples like Section 3.1.
///
/// # Examples
///
/// ```
/// use mbcr_pub::pub_merge;
/// use mbcr_trace::SymSeq;
/// let m1: SymSeq = "ABCA".parse().unwrap();
/// let m2: SymSeq = "ADEA".parse().unwrap();
/// let m = pub_merge(&[m1.clone(), m2.clone()]);
/// assert!(m.is_supersequence_of(&m1) && m.is_supersequence_of(&m2));
/// assert_eq!(m.len(), 6); // {ABCDEA}-like
/// ```
#[must_use]
pub fn pub_merge(paths: &[SymSeq]) -> SymSeq {
    scs_many(paths)
}

/// Checks Equation 2 of the paper: is `pubbed` obtainable from `orig` by a
/// chain of `ins(M, x)` insertions (i.e. is it a supersequence)?
#[must_use]
pub fn is_valid_pub_of(pubbed: &SymSeq, orig: &SymSeq) -> bool {
    pubbed.is_supersequence_of(orig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pub_merge_covers_all_paths() {
        let paths: Vec<SymSeq> = ["ABCA", "ADEA", "AFGA"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let merged = pub_merge(&paths);
        for p in &paths {
            assert!(is_valid_pub_of(&merged, p));
        }
    }

    #[test]
    fn paper_section311_merge() {
        // M1 = {ABCA}, M2 = {ADEA}: the paper's pubbed result {ABCDEA} has 6
        // accesses and 5 distinct addresses; our minimal merge matches that.
        let m1: SymSeq = "ABCA".parse().unwrap();
        let m2: SymSeq = "ADEA".parse().unwrap();
        let merged = pub_merge(&[m1, m2]);
        assert_eq!(merged.len(), 6);
        assert_eq!(merged.unique_symbols(), 5);
    }
}
