//! A small imperative IR with a trace-emitting interpreter.
//!
//! The paper analyses C programs compiled for a LEON3-like platform; the
//! artefacts its techniques consume are (a) the program's **control-flow
//! structure** (conditionals = paths, loops = bounds) and (b) the
//! **interleaved instruction/data address sequence** each path produces.
//! This crate provides exactly that substrate in library form:
//!
//! * [`Expr`] / [`Stmt`] / [`Program`] — an AST with scalars
//!   (register-allocated), arrays (memory-resident), two-way conditionals
//!   and bounded loops, rich enough to express the Mälardalen kernels;
//! * [`layout_program`] — deterministic code layout assigning every
//!   statement its instruction addresses (the I-cache view);
//! * [`execute`] — an interpreter that runs a program on concrete
//!   [`Inputs`], yielding the [`Trace`](mbcr_trace::Trace) of fetches and
//!   data accesses, the [`PathRecord`] identifying the traversed path, and
//!   the final [`ExecState`];
//! * [`Stmt::Touch`] / [`Stmt::Nop`] — the functionally-innocuous statement
//!   kinds PUB inserts (see the `mbcr-pub` crate);
//! * [`Token`] / [`Stmt::own_token`] / [`flatten`] — the footprint model:
//!   the data references and instruction count each span of code emits,
//!   read alike by PUB, [`verify_balance`], [`PathSpace`] and [`classify`].
//!
//! Design notes relevant to PUB soundness:
//!
//! * **No short-circuit evaluation** — every operand of an expression is
//!   evaluated, so an expression's data-access sequence is input-independent.
//! * **Enforced loop bounds** — `max_iter` is trusted analysis metadata; the
//!   interpreter errors if a run exceeds it.
//!
//! # Examples
//!
//! A two-path program, executed on both paths:
//!
//! ```
//! use mbcr_ir::{execute, Expr, Inputs, ProgramBuilder, Stmt};
//!
//! let mut b = ProgramBuilder::new("abs");
//! let (x, y) = (b.var("x"), b.var("y"));
//! b.push(Stmt::if_(
//!     Expr::var(x).lt(Expr::c(0)),
//!     vec![Stmt::Assign(y, Expr::var(x).neg())],
//!     vec![Stmt::Assign(y, Expr::var(x))],
//! ));
//! let p = b.build()?;
//!
//! let neg = execute(&p, &Inputs::new().with_var(x, -3)).unwrap();
//! let pos = execute(&p, &Inputs::new().with_var(x, 3)).unwrap();
//! assert_eq!(neg.state.var(y), 3);
//! assert_eq!(pos.state.var(y), 3);
//! assert_ne!(neg.path.path_id(), pos.path.path_id()); // different paths
//! # Ok::<(), mbcr_ir::ProgramError>(())
//! ```

mod blpath;
mod cachean;
mod expr;
mod footprint;
mod interp;
mod layout;
mod paths;
mod pretty;
mod program;
mod stmt;
mod verify;

pub use blpath::{PathError, PathSignature, PathSpace, StaticPath};
pub use cachean::{
    classify, validate_classification, AccessSite, CacheClassification, Classification,
    ClassifiedSite, Rollup, RollupSide, Scope, SiteLoc,
};
pub use expr::{const_eval, BinOp, Expr, UnOp};
pub use footprint::{flatten, push_tokens, Token, FOR_ITER_INSTRS};
pub use interp::{execute, execute_with, ExecState, Inputs, InterpConfig, InterpError, Run};
pub use layout::{layout_program, InstrSpan, Layout, LayoutNode, CODE_ALIGN, INSTRS_PER_LINE};
pub use paths::{Decision, PathRecord};
pub use pretty::pretty_print;
pub use program::{
    ArrayDecl, ArrayId, Program, ProgramBuilder, ProgramError, Var, ARRAY_ALIGN, CODE_BASE,
    DATA_BASE, ELEM_BYTES, INSTR_BYTES,
};
pub use stmt::Stmt;
pub use verify::{verify_balance, verify_pair, DiagCode, Diagnostic, Diagnostics};

/// Runs a program on several input vectors and groups them by traversed path.
///
/// Returns, for each distinct path (by [`PathRecord::path_id`]), the indices
/// of the inputs that exercised it — the library-level equivalent of the
/// paper's "8 different cases lead to different paths".
///
/// # Errors
///
/// Propagates the first [`InterpError`] encountered, including
/// [`InterpError::PathIdCollision`] if two *different* records ever share a
/// fingerprint — a collision must surface as an error, never as silent
/// mis-grouping.
pub fn group_inputs_by_path(
    program: &Program,
    inputs: &[Inputs],
) -> Result<Vec<(PathRecord, Vec<usize>)>, InterpError> {
    // Group by the 64-bit fingerprint (one hash + map lookup per input
    // instead of a full-record comparison against every known path), but
    // cross-check record equality so a collision cannot merge two paths.
    let mut groups: Vec<(PathRecord, Vec<usize>)> = Vec::new();
    let mut by_id: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (i, inp) in inputs.iter().enumerate() {
        let run = execute(program, inp)?;
        let id = run.path.path_id();
        match by_id.entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let (known, members) = &mut groups[*e.get()];
                if *known != run.path {
                    return Err(InterpError::PathIdCollision { path_id: id });
                }
                members.push(i);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(groups.len());
                groups.push((run.path, vec![i]));
            }
        }
    }
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_inputs_by_path_separates_paths() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let y = b.var("y");
        b.push(Stmt::if_(
            Expr::var(x).gt(Expr::c(0)),
            vec![Stmt::Assign(y, Expr::c(1))],
            vec![Stmt::Assign(y, Expr::c(2))],
        ));
        let p = b.build().unwrap();
        let inputs = vec![
            Inputs::new().with_var(x, 1),
            Inputs::new().with_var(x, -1),
            Inputs::new().with_var(x, 5),
        ];
        let groups = group_inputs_by_path(&p, &inputs).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1, vec![0, 2]);
        assert_eq!(groups[1].1, vec![1]);
    }
}
