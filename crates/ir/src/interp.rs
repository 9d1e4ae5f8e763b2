//! The trace-emitting interpreter.
//!
//! Executing a program serves two purposes at once:
//!
//! 1. **functional** — compute final variable/array values (used by the
//!    benchmark tests to check the models against their C originals);
//! 2. **architectural** — emit the exact interleaved instruction-fetch and
//!    data-access sequence ([`Trace`]) that the CPU/cache simulator replays
//!    to measure execution times.
//!
//! Loop bounds are *enforced*: exceeding a declared `max_iter` is an error,
//! mirroring the WCET-analysis contract that loop bounds are trusted
//! metadata.

use std::fmt;

use mbcr_trace::{Access, Trace};

use crate::expr::Expr;
use crate::layout::{layout_program, InstrSpan, LayoutNode};
use crate::paths::{Decision, PathRecord};
use crate::program::{ArrayId, Program, Var};
use crate::stmt::Stmt;

/// Interpreter limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterpConfig {
    /// Abort when the trace grows beyond this many accesses.
    pub max_trace_len: usize,
}

impl Default for InterpConfig {
    fn default() -> Self {
        Self {
            max_trace_len: 50_000_000,
        }
    }
}

/// Initial values for a run: unset variables are `0`, unset arrays are
/// all-zero with their declared length.
///
/// # Examples
///
/// ```
/// use mbcr_ir::{Inputs, ProgramBuilder};
/// let mut b = ProgramBuilder::new("t");
/// let a = b.array("a", 3);
/// let x = b.var("x");
/// let inputs = Inputs::new().with_var(x, 7).with_array(a, vec![1, 2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Inputs {
    vars: Vec<(Var, i64)>,
    arrays: Vec<(ArrayId, Vec<i64>)>,
}

impl Inputs {
    /// No inputs: everything zero-initialized.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a scalar's initial value.
    #[must_use]
    pub fn with_var(mut self, var: Var, value: i64) -> Self {
        self.vars.push((var, value));
        self
    }

    /// Sets an array's initial contents (must match the declared length).
    #[must_use]
    pub fn with_array(mut self, array: ArrayId, values: Vec<i64>) -> Self {
        self.arrays.push((array, values));
        self
    }

    /// The scalar initializers.
    #[must_use]
    pub fn vars(&self) -> &[(Var, i64)] {
        &self.vars
    }

    /// The array initializers.
    #[must_use]
    pub fn arrays(&self) -> &[(ArrayId, Vec<i64>)] {
        &self.arrays
    }
}

/// Machine state: scalar and array values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecState {
    vars: Vec<i64>,
    arrays: Vec<Vec<i64>>,
}

impl ExecState {
    /// Current value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable id is out of range for the program.
    #[must_use]
    pub fn var(&self, v: Var) -> i64 {
        self.vars[v.0 as usize]
    }

    /// Current contents of an array.
    ///
    /// # Panics
    ///
    /// Panics if the array id is out of range for the program.
    #[must_use]
    pub fn array(&self, a: ArrayId) -> &[i64] {
        &self.arrays[a.0 as usize]
    }
}

/// Errors during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Division or remainder by zero.
    DivByZero,
    /// Array index outside the declared length.
    IndexOutOfBounds {
        /// Offending array.
        array: ArrayId,
        /// Offending index value.
        index: i64,
    },
    /// A `while` loop ran more iterations than its declared bound.
    LoopBoundExceeded {
        /// Construct id of the loop.
        id: u32,
        /// The declared bound.
        max_iter: u32,
    },
    /// A `for` range exceeds the loop's declared bound.
    ForRangeExceedsBound {
        /// Construct id of the loop.
        id: u32,
        /// Number of iterations the evaluated range implies.
        span: i64,
        /// The declared bound.
        max_iter: u32,
    },
    /// The emitted trace exceeded [`InterpConfig::max_trace_len`].
    TraceLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// An input array's length differs from the declaration.
    ArrayLengthMismatch {
        /// Offending array.
        array: ArrayId,
        /// Declared element count.
        expected: u32,
        /// Provided element count.
        got: usize,
    },
    /// Two distinct [`crate::PathRecord`]s share one FNV fingerprint
    /// ([`crate::PathRecord::path_id`]) — grouping by fingerprint would
    /// silently merge different paths.
    PathIdCollision {
        /// The colliding 64-bit fingerprint.
        path_id: u64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::DivByZero => write!(f, "division by zero"),
            InterpError::IndexOutOfBounds { array, index } => {
                write!(f, "index {index} out of bounds for arr{}", array.0)
            }
            InterpError::LoopBoundExceeded { id, max_iter } => {
                write!(
                    f,
                    "loop {id} exceeded its declared bound of {max_iter} iterations"
                )
            }
            InterpError::ForRangeExceedsBound { id, span, max_iter } => {
                write!(
                    f,
                    "for-loop {id} range of {span} iterations exceeds bound {max_iter}"
                )
            }
            InterpError::TraceLimitExceeded { limit } => {
                write!(f, "trace exceeded the configured limit of {limit} accesses")
            }
            InterpError::ArrayLengthMismatch {
                array,
                expected,
                got,
            } => write!(
                f,
                "input for arr{} has {got} elements, declaration says {expected}",
                array.0
            ),
            InterpError::PathIdCollision { path_id } => write!(
                f,
                "distinct paths collide on fingerprint {path_id:#018x}; use PathSpace ids"
            ),
        }
    }
}

impl std::error::Error for InterpError {}

/// The result of one execution: the emitted trace, the control-flow path and
/// the final machine state.
#[derive(Debug, Clone)]
pub struct Run {
    /// Interleaved instruction fetches and data accesses, in order.
    pub trace: Trace,
    /// Which way every conditional went; how often every loop iterated.
    pub path: PathRecord,
    /// Final variable and array values.
    pub state: ExecState,
}

/// Executes `program` on `inputs` with default limits.
///
/// # Errors
///
/// See [`InterpError`].
pub fn execute(program: &Program, inputs: &Inputs) -> Result<Run, InterpError> {
    execute_with(program, inputs, &InterpConfig::default())
}

/// Executes `program` on `inputs` with explicit limits.
///
/// # Errors
///
/// See [`InterpError`].
pub fn execute_with(
    program: &Program,
    inputs: &Inputs,
    cfg: &InterpConfig,
) -> Result<Run, InterpError> {
    let layout = layout_program(program);
    let mut vars = vec![0i64; program.var_count()];
    for &(v, val) in inputs.vars() {
        vars[v.0 as usize] = val;
    }
    let mut arrays: Vec<Vec<i64>> = program
        .arrays()
        .iter()
        .map(|d| vec![0i64; d.len as usize])
        .collect();
    for (a, values) in inputs.arrays() {
        let decl = &program.arrays()[a.0 as usize];
        if values.len() != decl.len as usize {
            return Err(InterpError::ArrayLengthMismatch {
                array: *a,
                expected: decl.len,
                got: values.len(),
            });
        }
        arrays[a.0 as usize] = values.clone();
    }
    let mut interp = Interp {
        program,
        cfg: *cfg,
        state: ExecState { vars, arrays },
        trace: Trace::new(),
        path: PathRecord::new(),
    };
    interp.exec_stmts(program.body(), &layout.nodes)?;
    Ok(Run {
        trace: interp.trace,
        path: interp.path,
        state: interp.state,
    })
}

/// Emission cursor over one statement's instruction span: interleaves the
/// span's fetches with the data accesses of expression evaluation, then
/// [`finish`](Cursor::finish)es the remaining slots.
struct Cursor {
    span: InstrSpan,
    next: u32,
}

impl Cursor {
    fn new(span: InstrSpan) -> Self {
        Self { span, next: 0 }
    }

    fn fetch(&mut self, trace: &mut Trace) {
        if self.next < self.span.count {
            trace.push(Access::fetch(self.span.instr_addr(self.next)));
            self.next += 1;
        }
    }

    fn finish(mut self, trace: &mut Trace) {
        while self.next < self.span.count {
            trace.push(Access::fetch(self.span.instr_addr(self.next)));
            self.next += 1;
        }
    }
}

struct Interp<'p> {
    program: &'p Program,
    cfg: InterpConfig,
    state: ExecState,
    trace: Trace,
    path: PathRecord,
}

impl Interp<'_> {
    fn check_limit(&self) -> Result<(), InterpError> {
        if self.trace.len() > self.cfg.max_trace_len {
            Err(InterpError::TraceLimitExceeded {
                limit: self.cfg.max_trace_len,
            })
        } else {
            Ok(())
        }
    }

    fn eval(&mut self, e: &Expr, cur: &mut Cursor) -> Result<i64, InterpError> {
        match e {
            Expr::Const(v) => Ok(*v),
            Expr::Var(v) => Ok(self.state.vars[v.0 as usize]),
            Expr::Load(a, idx) => {
                let i = self.eval(idx, cur)?;
                cur.fetch(&mut self.trace); // the load instruction itself
                let decl = &self.program.arrays()[a.0 as usize];
                if i < 0 || i >= i64::from(decl.len) {
                    return Err(InterpError::IndexOutOfBounds {
                        array: *a,
                        index: i,
                    });
                }
                self.trace.push(Access::read(decl.elem_addr(i)));
                Ok(self.state.arrays[a.0 as usize][i as usize])
            }
            Expr::Un(op, e) => Ok(op.apply(self.eval(e, cur)?)),
            Expr::Bin(op, l, r) => {
                let a = self.eval(l, cur)?;
                let b = self.eval(r, cur)?;
                op.apply(a, b).ok_or(InterpError::DivByZero)
            }
        }
    }

    /// Evaluates an expression without emitting any trace accesses and
    /// without faulting: loads with out-of-range indices wrap into the
    /// array. Used only for [`Stmt::Touch`] index expressions.
    fn eval_silent(&self, e: &Expr) -> i64 {
        match e {
            Expr::Const(v) => *v,
            Expr::Var(v) => self.state.vars[v.0 as usize],
            Expr::Load(a, idx) => {
                let i = self.eval_silent(idx);
                let arr = &self.state.arrays[a.0 as usize];
                if arr.is_empty() {
                    0
                } else {
                    arr[i.rem_euclid(arr.len() as i64) as usize]
                }
            }
            Expr::Un(op, e) => op.apply(self.eval_silent(e)),
            Expr::Bin(op, l, r) => op
                .apply(self.eval_silent(l), self.eval_silent(r))
                .unwrap_or(0),
        }
    }

    fn exec_stmts(&mut self, stmts: &[Stmt], nodes: &[LayoutNode]) -> Result<(), InterpError> {
        debug_assert_eq!(stmts.len(), nodes.len(), "layout out of sync with body");
        for (s, n) in stmts.iter().zip(nodes) {
            self.exec_stmt(s, n)?;
            self.check_limit()?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt, n: &LayoutNode) -> Result<(), InterpError> {
        match (s, n) {
            (Stmt::Assign(v, e), LayoutNode::Leaf(span)) => {
                let mut cur = Cursor::new(*span);
                let val = self.eval(e, &mut cur)?;
                cur.finish(&mut self.trace);
                self.state.vars[v.0 as usize] = val;
                Ok(())
            }
            (
                Stmt::Store {
                    array,
                    index,
                    value,
                },
                LayoutNode::Leaf(span),
            ) => {
                let mut cur = Cursor::new(*span);
                let i = self.eval(index, &mut cur)?;
                let val = self.eval(value, &mut cur)?;
                cur.finish(&mut self.trace);
                let decl = &self.program.arrays()[array.0 as usize];
                if i < 0 || i >= i64::from(decl.len) {
                    return Err(InterpError::IndexOutOfBounds {
                        array: *array,
                        index: i,
                    });
                }
                self.state.arrays[array.0 as usize][i as usize] = val;
                self.trace.push(Access::write(decl.elem_addr(i)));
                Ok(())
            }
            (Stmt::Touch { refs, .. }, LayoutNode::Leaf(span)) => {
                let mut cur = Cursor::new(*span);
                for (a, idx) in refs {
                    // Index evaluation is silent: the inserted load reuses
                    // the address computed by the preceding inserted
                    // instruction, so only the touch read itself is emitted.
                    let i = self.eval_silent(idx);
                    cur.fetch(&mut self.trace);
                    let decl = &self.program.arrays()[a.0 as usize];
                    // Innocuous by construction: a touch evaluated in a
                    // diverged environment may compute any index, so it is
                    // wrapped into the array instead of erroring. Under
                    // random placement this substitutes one uniformly-placed
                    // line of the same array for another (exchangeable).
                    let len = i64::from(decl.len.max(1));
                    let wrapped = i.rem_euclid(len);
                    self.trace.push(Access::read(decl.elem_addr(wrapped)));
                }
                cur.finish(&mut self.trace);
                Ok(())
            }
            (Stmt::Nop { .. }, LayoutNode::Leaf(span)) => {
                Cursor::new(*span).finish(&mut self.trace);
                Ok(())
            }
            (
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                },
                LayoutNode::If {
                    id,
                    header,
                    then_branch: tn,
                    else_branch: en,
                },
            ) => {
                let mut cur = Cursor::new(*header);
                let c = self.eval(cond, &mut cur)?;
                cur.finish(&mut self.trace);
                let taken = c != 0;
                self.path.push(Decision::Branch { id: *id, taken });
                if taken {
                    self.exec_stmts(then_branch, tn)
                } else {
                    self.exec_stmts(else_branch, en)
                }
            }
            (
                Stmt::While {
                    cond,
                    max_iter,
                    body,
                },
                LayoutNode::While {
                    id,
                    header,
                    body: bn,
                },
            ) => {
                let mut iters = 0u32;
                loop {
                    let mut cur = Cursor::new(*header);
                    let c = self.eval(cond, &mut cur)?;
                    cur.finish(&mut self.trace);
                    if c == 0 {
                        break;
                    }
                    if iters == *max_iter {
                        return Err(InterpError::LoopBoundExceeded {
                            id: *id,
                            max_iter: *max_iter,
                        });
                    }
                    iters += 1;
                    self.exec_stmts(body, bn)?;
                    self.check_limit()?;
                }
                self.path.push(Decision::Loop { id: *id, iters });
                Ok(())
            }
            (
                Stmt::For {
                    var,
                    from,
                    to,
                    max_iter,
                    body,
                },
                LayoutNode::For {
                    id,
                    init,
                    iter,
                    body: bn,
                },
            ) => {
                let mut cur = Cursor::new(*init);
                let lo = self.eval(from, &mut cur)?;
                let hi = self.eval(to, &mut cur)?;
                cur.finish(&mut self.trace);
                let span = (hi - lo).max(0);
                if span > i64::from(*max_iter) {
                    return Err(InterpError::ForRangeExceedsBound {
                        id: *id,
                        span,
                        max_iter: *max_iter,
                    });
                }
                let mut i = lo;
                loop {
                    // Per-iteration compare/increment instruction.
                    Cursor::new(*iter).finish(&mut self.trace);
                    self.state.vars[var.0 as usize] = i;
                    if i >= hi {
                        break;
                    }
                    self.exec_stmts(body, bn)?;
                    self.check_limit()?;
                    i += 1;
                }
                self.path.push(Decision::Loop {
                    id: *id,
                    iters: span as u32,
                });
                Ok(())
            }
            _ => unreachable!("layout node does not match statement shape"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use mbcr_trace::AccessKind;

    fn c(v: i64) -> Expr {
        Expr::c(v)
    }

    #[test]
    fn arithmetic_and_state() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let y = b.var("y");
        b.push(Stmt::Assign(x, c(6).mul(c(7))));
        b.push(Stmt::Assign(y, Expr::var(x).sub(c(2))));
        let p = b.build().unwrap();
        let run = execute(&p, &Inputs::new()).unwrap();
        assert_eq!(run.state.var(x), 42);
        assert_eq!(run.state.var(y), 40);
        // x = 6*7 (4 instrs) and y = x-2 (3 instrs): one line-quantized
        // span (8 slots) each.
        assert_eq!(run.trace.len(), 16);
        assert!(run.trace.iter().all(|a| a.kind == AccessKind::InstrFetch));
    }

    #[test]
    fn loads_emit_fetch_then_read() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        let x = b.var("x");
        b.push(Stmt::Assign(x, Expr::load(a, c(2))));
        let p = b.build().unwrap();
        let run = execute(&p, &Inputs::new().with_array(a, vec![10, 20, 30, 40])).unwrap();
        assert_eq!(run.state.var(x), 30);
        let kinds: Vec<AccessKind> = run.trace.iter().map(|a| a.kind).collect();
        // x = a[2] is 4 instructions quantized to one 8-slot line; the data
        // read follows the load slot, the remaining slots come afterwards.
        let mut expected = vec![AccessKind::InstrFetch, AccessKind::Read];
        expected.extend(std::iter::repeat_n(AccessKind::InstrFetch, 7));
        assert_eq!(kinds, expected);
        // Data address = base + 2*4.
        let read = run
            .trace
            .iter()
            .find(|a| a.kind == AccessKind::Read)
            .unwrap();
        assert_eq!(read.addr.0, p.arrays()[0].base + 8);
    }

    #[test]
    fn store_emits_write_at_end() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        b.push(Stmt::store(a, c(1), c(99)));
        let p = b.build().unwrap();
        let run = execute(&p, &Inputs::new()).unwrap();
        assert_eq!(run.state.array(a), &[0, 99, 0, 0]);
        let last = run.trace.iter().last().unwrap();
        assert_eq!(last.kind, AccessKind::Write);
    }

    #[test]
    fn if_records_decisions_and_branches() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let y = b.var("y");
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![Stmt::Assign(y, c(1))],
            vec![Stmt::Assign(y, c(2))],
        ));
        let p = b.build().unwrap();

        let run_t = execute(&p, &Inputs::new().with_var(x, 5)).unwrap();
        assert_eq!(run_t.state.var(y), 1);
        assert_eq!(
            run_t.path.decisions(),
            &[Decision::Branch { id: 0, taken: true }]
        );

        let run_f = execute(&p, &Inputs::new().with_var(x, -1)).unwrap();
        assert_eq!(run_f.state.var(y), 2);
        assert_ne!(run_t.path.path_id(), run_f.path.path_id());
        // Branches are overlaid at the same addresses (see the layouter):
        // two equal-cost branches produce identical fetch streams.
        assert_eq!(run_t.trace, run_f.trace);
    }

    #[test]
    fn while_counts_iterations_and_respects_bound() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        b.push(Stmt::while_(
            Expr::var(i).lt(c(3)),
            5,
            vec![Stmt::Assign(i, Expr::var(i).add(c(1)))],
        ));
        let p = b.build().unwrap();
        let run = execute(&p, &Inputs::new()).unwrap();
        assert_eq!(run.state.var(i), 3);
        assert_eq!(run.path.loop_iters(0), Some(3));
    }

    #[test]
    fn while_bound_violation_errors() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        b.push(Stmt::while_(
            Expr::var(i).lt(c(10)),
            3,
            vec![Stmt::Assign(i, Expr::var(i).add(c(1)))],
        ));
        let p = b.build().unwrap();
        assert_eq!(
            execute(&p, &Inputs::new()).unwrap_err(),
            InterpError::LoopBoundExceeded { id: 0, max_iter: 3 }
        );
    }

    #[test]
    fn for_loop_semantics() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 5);
        let i = b.var("i");
        let sum = b.var("sum");
        b.push(Stmt::for_(
            i,
            c(0),
            c(5),
            5,
            vec![
                Stmt::store(a, Expr::var(i), Expr::var(i).mul(c(2))),
                Stmt::Assign(sum, Expr::var(sum).add(Expr::var(i))),
            ],
        ));
        let p = b.build().unwrap();
        let run = execute(&p, &Inputs::new()).unwrap();
        assert_eq!(run.state.array(a), &[0, 2, 4, 6, 8]);
        assert_eq!(run.state.var(sum), 10);
        assert_eq!(run.state.var(i), 5, "induction variable ends at the bound");
        assert_eq!(run.path.loop_iters(0), Some(5));
    }

    #[test]
    fn for_range_exceeding_bound_errors() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        b.push(Stmt::for_(i, c(0), c(10), 4, vec![Stmt::Nop { count: 1 }]));
        let p = b.build().unwrap();
        assert!(matches!(
            execute(&p, &Inputs::new()).unwrap_err(),
            InterpError::ForRangeExceedsBound {
                span: 10,
                max_iter: 4,
                ..
            }
        ));
    }

    #[test]
    fn empty_for_range_runs_zero_iterations() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        let x = b.var("x");
        b.push(Stmt::for_(i, c(5), c(2), 8, vec![Stmt::Assign(x, c(1))]));
        let p = b.build().unwrap();
        let run = execute(&p, &Inputs::new()).unwrap();
        assert_eq!(run.state.var(x), 0);
        assert_eq!(run.path.loop_iters(0), Some(0));
    }

    #[test]
    fn division_by_zero_errors() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let y = b.var("y");
        b.push(Stmt::Assign(x, c(1).div(Expr::var(y))));
        let p = b.build().unwrap();
        assert_eq!(
            execute(&p, &Inputs::new()).unwrap_err(),
            InterpError::DivByZero
        );
    }

    #[test]
    fn out_of_bounds_load_errors() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 2);
        let x = b.var("x");
        b.push(Stmt::Assign(x, Expr::load(a, c(7))));
        let p = b.build().unwrap();
        assert_eq!(
            execute(&p, &Inputs::new()).unwrap_err(),
            InterpError::IndexOutOfBounds { array: a, index: 7 }
        );
    }

    #[test]
    fn touch_is_innocuous_and_wraps() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        let x = b.var("x");
        b.push(Stmt::Assign(x, c(5)));
        b.push(Stmt::Touch {
            refs: vec![(a, Expr::var(x))],
            pad: 1,
        }); // index 5 wraps to 1
        let p = b.build().unwrap();
        let run = execute(&p, &Inputs::new().with_array(a, vec![9, 9, 9, 9])).unwrap();
        assert_eq!(run.state.var(x), 5, "touch must not change state");
        assert_eq!(run.state.array(a), &[9, 9, 9, 9]);
        let read = run
            .trace
            .iter()
            .find(|acc| acc.kind == AccessKind::Read)
            .unwrap();
        assert_eq!(read.addr.0, p.arrays()[0].base + 4, "wrapped to index 1");
        // x = 5 and the touch: one line-quantized span (8 slots) each.
        assert_eq!(run.trace.instr_fetches().count(), 16);
    }

    #[test]
    fn array_length_mismatch_errors() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 4);
        let p = b.build().unwrap();
        assert_eq!(
            execute(&p, &Inputs::new().with_array(a, vec![1, 2])).unwrap_err(),
            InterpError::ArrayLengthMismatch {
                array: a,
                expected: 4,
                got: 2
            }
        );
    }

    #[test]
    fn trace_limit_enforced() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        b.push(Stmt::for_(
            i,
            c(0),
            c(1000),
            1000,
            vec![Stmt::Nop { count: 10 }],
        ));
        let p = b.build().unwrap();
        let err =
            execute_with(&p, &Inputs::new(), &InterpConfig { max_trace_len: 100 }).unwrap_err();
        assert_eq!(err, InterpError::TraceLimitExceeded { limit: 100 });
    }

    #[test]
    fn same_inputs_same_trace() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 8);
        let i = b.var("i");
        let s = b.var("s");
        b.push(Stmt::for_(
            i,
            c(0),
            c(8),
            8,
            vec![Stmt::Assign(
                s,
                Expr::var(s).add(Expr::load(a, Expr::var(i))),
            )],
        ));
        let p = b.build().unwrap();
        let r1 = execute(&p, &Inputs::new()).unwrap();
        let r2 = execute(&p, &Inputs::new()).unwrap();
        assert_eq!(r1.trace, r2.trace);
        assert_eq!(r1.path, r2.path);
    }
}
