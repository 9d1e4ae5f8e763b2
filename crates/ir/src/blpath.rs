//! Ball–Larus path numbering with the bounded-loop (k-iteration) extension.
//!
//! Classic Ball–Larus profiling numbers the acyclic paths of a CFG by
//! assigning every block the count of paths from it to the exit
//! (`PathsFrom`), and every branch edge an increment — the sum of
//! `PathsFrom` over its earlier sibling successors — so that summing the
//! increments along any entry→exit path yields a distinct integer in
//! `[0, PathsFrom(entry))`, a *bijection* between paths and path ids.
//!
//! Loops make the graph cyclic, so classic BL cuts back edges and counts
//! loop-free fragments. This module instead applies the multi-iteration
//! extension (D'Elia & Demetrescu): every loop carries a static bound
//! `max_iter`, so the *whole-run* path space is finite, and a loop header
//! can be treated as a single collapsed node of weight
//!
//! ```text
//! W(header) = Σ_{k ∈ S} B^k
//! ```
//!
//! where `B` is the number of paths through one body iteration and `S` the
//! feasible iteration set (`{0..=max_iter}` for a `while`; a singleton
//! `{span}` for a `for` whose bounds constant-fold). Within the weight, the
//! iteration count `k` and the per-iteration body choices form a
//! mixed-radix digit `offset(k) + Σ_j b_j·B^(k-j)`; across the collapsed
//! acyclic graph the digits combine positionally exactly as BL increments
//! do. The resulting id is a bijection between [`PathRecord`]s and
//! `[0, num_paths)` — [`PathSpace::index_of`] and [`PathSpace::record_of`]
//! are exact inverses, replacing trust in the FNV fingerprint
//! ([`PathRecord::path_id`]) with arithmetic.
//!
//! Path counts use saturating `u128` arithmetic: several Mälardalen kernels
//! have astronomically many static paths (`cnt` ≈ 2^101 — still indexable),
//! and anything beyond 2^128 is reported as [saturated](PathSpace::is_saturated)
//! rather than silently wrong.

use std::fmt;

use crate::expr::const_eval;
use crate::footprint::Token;
use crate::layout::quantize;
use crate::paths::{Decision, PathRecord};
use crate::program::Program;
use crate::stmt::Stmt;

/// Errors from path encoding/decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The path count exceeds `u128`; indexing is unavailable.
    Saturated,
    /// A path index ≥ the total path count.
    IndexOutOfRange {
        /// The offending index.
        index: u128,
        /// Total number of static paths.
        total: u128,
    },
    /// A [`PathRecord`] does not correspond to any static path of the
    /// program (wrong construct ids, infeasible iteration count, trailing
    /// or missing decisions).
    RecordMismatch {
        /// What went wrong.
        detail: String,
    },
    /// More static paths than the requested enumeration cap.
    TooManyPaths {
        /// Total number of static paths.
        total: u128,
        /// The requested cap.
        cap: usize,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Saturated => write!(f, "path count exceeds u128"),
            PathError::IndexOutOfRange { index, total } => {
                write!(f, "path index {index} out of range (total {total})")
            }
            PathError::RecordMismatch { detail } => {
                write!(f, "path record does not match the program: {detail}")
            }
            PathError::TooManyPaths { total, cap } => {
                write!(f, "{total} static paths exceed the enumeration cap {cap}")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// The static architectural signature of one path: how many instruction
/// slots it fetches and how many data accesses it emits. Both are exact —
/// for any run following the path, `instr_fetches` equals the trace's fetch
/// count and `data_accesses` its read+write count (expressions have no
/// short-circuit operators, so access counts are path-determined). Each
/// executed span adds its own [`crate::Token`]'s counts, the instruction
/// count line-quantized as the layout emits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathSignature {
    /// Instruction fetches (line-quantized spans, as emitted).
    pub instr_fetches: u64,
    /// Data reads + writes.
    pub data_accesses: u64,
}

/// One statically enumerated path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticPath {
    /// Ball–Larus path id, in `[0, num_paths)`.
    pub index: u128,
    /// The decision sequence of the path.
    pub record: PathRecord,
    /// The path's instruction/access signature.
    pub signature: PathSignature,
}

/// Feasible iteration counts of one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IterSet {
    /// Any count in `0..=bound` (a `while`, or a `for` with non-constant
    /// bounds).
    UpTo(u32),
    /// Exactly this count (a `for` whose bounds constant-fold; clamped to
    /// the declared `max_iter` — a larger span faults at run time and is
    /// flagged by the verifier).
    Exact(u32),
}

impl IterSet {
    fn contains(self, k: u32) -> bool {
        match self {
            IterSet::UpTo(m) => k <= m,
            IterSet::Exact(e) => k == e,
        }
    }

    fn iter_counts(self) -> impl Iterator<Item = u32> {
        match self {
            IterSet::UpTo(m) => 0..=m,
            IterSet::Exact(e) => e..=e,
        }
    }
}

/// The decision tree of one statement, annotated with path counts.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    Leaf {
        instrs: u64,
        data: u64,
    },
    If {
        id: u32,
        header_instrs: u64,
        header_data: u64,
        then_s: Seq,
        else_s: Seq,
    },
    Loop {
        id: u32,
        /// Header span fetched on every check (`while` cond, `for` iter).
        check_instrs: u64,
        /// Data accesses of every check (`while` cond loads; 0 for `for`).
        check_data: u64,
        /// One-time prelude (`for` init span; 0 for `while`, whose header
        /// *is* the check).
        init_instrs: u64,
        init_data: u64,
        iters: IterSet,
        body: Seq,
        /// Cached `Σ_{k ∈ iters} body.paths^k`.
        paths: u128,
    },
}

impl Shape {
    fn paths(&self) -> u128 {
        match self {
            Shape::Leaf { .. } => 1,
            Shape::If { then_s, else_s, .. } => then_s.paths.saturating_add(else_s.paths),
            Shape::Loop { paths, .. } => *paths,
        }
    }
}

/// A statement sequence with its cached path count (product of members).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Seq {
    shapes: Vec<Shape>,
    paths: u128,
}

/// The static path space of one program: total count plus the bijective
/// `PathRecord ↔ path id` mapping.
///
/// # Examples
///
/// ```
/// use mbcr_ir::{execute, Expr, Inputs, PathSpace, ProgramBuilder, Stmt};
///
/// let mut b = ProgramBuilder::new("abs");
/// let (x, y) = (b.var("x"), b.var("y"));
/// b.push(Stmt::if_(
///     Expr::var(x).lt(Expr::c(0)),
///     vec![Stmt::Assign(y, Expr::var(x).neg())],
///     vec![Stmt::Assign(y, Expr::var(x))],
/// ));
/// let p = b.build()?;
/// let space = PathSpace::of(&p);
/// assert_eq!(space.num_paths(), 2);
/// let run = execute(&p, &Inputs::new().with_var(x, -3)).unwrap();
/// let id = space.index_of(&run.path).unwrap();
/// assert_eq!(space.record_of(id).unwrap(), run.path); // bijection
/// # Ok::<(), mbcr_ir::ProgramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSpace {
    top: Seq,
    saturated: bool,
}

impl PathSpace {
    /// Computes the path space of a program.
    #[must_use]
    pub fn of(program: &Program) -> PathSpace {
        let mut builder = Builder {
            next_id: 0,
            saturated: false,
        };
        let top = builder.build_seq(program.body());
        PathSpace {
            top,
            saturated: builder.saturated,
        }
    }

    /// Total number of static paths (saturating at `u128::MAX`).
    #[must_use]
    pub fn num_paths(&self) -> u128 {
        self.top.paths
    }

    /// `true` when the true count exceeds `u128` — enumeration and
    /// indexing are unavailable.
    #[must_use]
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// The Ball–Larus path id of an interpreter-observed record.
    ///
    /// # Errors
    ///
    /// [`PathError::Saturated`] when counts overflow `u128`;
    /// [`PathError::RecordMismatch`] when the record does not describe a
    /// static path of this program.
    pub fn index_of(&self, record: &PathRecord) -> Result<u128, PathError> {
        if self.saturated {
            return Err(PathError::Saturated);
        }
        let mut cur = Cursor {
            decisions: record.decisions(),
            pos: 0,
        };
        let idx = encode_seq(&self.top, &mut cur)?;
        if cur.pos != cur.decisions.len() {
            return Err(PathError::RecordMismatch {
                detail: format!(
                    "{} trailing decisions after the program ends",
                    cur.decisions.len() - cur.pos
                ),
            });
        }
        Ok(idx)
    }

    /// The decision record of path id `index` — the inverse of
    /// [`PathSpace::index_of`].
    ///
    /// # Errors
    ///
    /// [`PathError::Saturated`] / [`PathError::IndexOutOfRange`].
    pub fn record_of(&self, index: u128) -> Result<PathRecord, PathError> {
        if self.saturated {
            return Err(PathError::Saturated);
        }
        if index >= self.top.paths {
            return Err(PathError::IndexOutOfRange {
                index,
                total: self.top.paths,
            });
        }
        let mut rec = PathRecord::new();
        decode_seq(&self.top, index, &mut rec);
        Ok(rec)
    }

    /// The instruction/access signature of the path a record describes.
    ///
    /// # Errors
    ///
    /// [`PathError::RecordMismatch`] when the record does not describe a
    /// static path of this program.
    pub fn signature_of(&self, record: &PathRecord) -> Result<PathSignature, PathError> {
        let mut cur = Cursor {
            decisions: record.decisions(),
            pos: 0,
        };
        let mut sig = PathSignature::default();
        sig_seq(&self.top, &mut cur, &mut sig)?;
        if cur.pos != cur.decisions.len() {
            return Err(PathError::RecordMismatch {
                detail: format!(
                    "{} trailing decisions after the program ends",
                    cur.decisions.len() - cur.pos
                ),
            });
        }
        Ok(sig)
    }

    /// `true` when the record describes a static path of this program
    /// (valid construct ids, feasible iteration counts, no missing or
    /// trailing decisions). Unlike [`PathSpace::index_of`] this works even
    /// on [saturated](PathSpace::is_saturated) spaces — membership is a
    /// structural walk, not arithmetic.
    #[must_use]
    pub fn contains(&self, record: &PathRecord) -> bool {
        self.signature_of(record).is_ok()
    }

    /// Materializes every static path (id, record, signature), in id order.
    ///
    /// # Errors
    ///
    /// [`PathError::Saturated`] when the count overflows `u128`, or
    /// [`PathError::TooManyPaths`] when it exceeds `cap` — exponential path
    /// spaces must be *indexed*, not enumerated.
    pub fn enumerate_paths(&self, cap: usize) -> Result<Vec<StaticPath>, PathError> {
        if self.saturated {
            return Err(PathError::Saturated);
        }
        if self.top.paths > cap as u128 {
            return Err(PathError::TooManyPaths {
                total: self.top.paths,
                cap,
            });
        }
        let mut out = Vec::with_capacity(self.top.paths as usize);
        for index in 0..self.top.paths {
            let record = self.record_of(index)?;
            let signature = self.signature_of(&record)?;
            out.push(StaticPath {
                index,
                record,
                signature,
            });
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Construction

struct Builder {
    next_id: u32,
    saturated: bool,
}

/// A span's `(instruction fetches, data accesses)`: its line-quantized
/// instruction count and its reference count.
fn counts(t: &Token) -> (u64, u64) {
    (u64::from(quantize(t.instrs)), t.data.len() as u64)
}

impl Builder {
    fn sat_add(&mut self, a: u128, b: u128) -> u128 {
        a.checked_add(b).unwrap_or_else(|| {
            self.saturated = true;
            u128::MAX
        })
    }

    fn sat_mul(&mut self, a: u128, b: u128) -> u128 {
        a.checked_mul(b).unwrap_or_else(|| {
            self.saturated = true;
            u128::MAX
        })
    }

    fn sat_pow(&mut self, base: u128, exp: u32) -> u128 {
        let mut acc: u128 = 1;
        for _ in 0..exp {
            acc = self.sat_mul(acc, base);
            if self.saturated {
                break;
            }
        }
        acc
    }

    /// `Σ_{k ∈ iters} base^k` — the loop node's Ball–Larus weight.
    fn loop_weight(&mut self, base: u128, iters: IterSet) -> u128 {
        match iters {
            IterSet::Exact(k) => self.sat_pow(base, k),
            IterSet::UpTo(m) => {
                if base == 1 {
                    return u128::from(m) + 1;
                }
                let mut total: u128 = 0;
                let mut term: u128 = 1;
                for _ in 0..=m {
                    total = self.sat_add(total, term);
                    if self.saturated {
                        break;
                    }
                    term = self.sat_mul(term, base);
                    if self.saturated {
                        // The remaining terms only grow; the sum saturates.
                        return u128::MAX;
                    }
                }
                total
            }
        }
    }

    fn build_seq(&mut self, stmts: &[Stmt]) -> Seq {
        let shapes: Vec<Shape> = stmts.iter().map(|s| self.build_shape(s)).collect();
        let mut paths: u128 = 1;
        for s in &shapes {
            paths = self.sat_mul(paths, s.paths());
        }
        Seq { shapes, paths }
    }

    fn build_shape(&mut self, s: &Stmt) -> Shape {
        let (instrs, data) = counts(&s.own_token());
        match s {
            Stmt::Assign(..) | Stmt::Store { .. } | Stmt::Touch { .. } | Stmt::Nop { .. } => {
                Shape::Leaf { instrs, data }
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                let id = self.next_id;
                self.next_id += 1;
                let then_s = self.build_seq(then_branch);
                let else_s = self.build_seq(else_branch);
                Shape::If {
                    id,
                    header_instrs: instrs,
                    header_data: data,
                    then_s,
                    else_s,
                }
            }
            Stmt::While { max_iter, body, .. } => {
                let id = self.next_id;
                self.next_id += 1;
                let body_s = self.build_seq(body);
                let iters = IterSet::UpTo(*max_iter);
                let paths = self.loop_weight(body_s.paths, iters);
                Shape::Loop {
                    id,
                    check_instrs: instrs,
                    check_data: data,
                    init_instrs: 0,
                    init_data: 0,
                    iters,
                    body: body_s,
                    paths,
                }
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
                let body_s = self.build_seq(body);
                let iters = match (const_eval(from), const_eval(to)) {
                    (Some(lo), Some(hi)) => {
                        let span = (hi - lo).max(0).min(i64::from(*max_iter)) as u32;
                        IterSet::Exact(span)
                    }
                    _ => IterSet::UpTo(*max_iter),
                };
                let paths = self.loop_weight(body_s.paths, iters);
                let (check_instrs, check_data) = counts(&Token::for_iter());
                Shape::Loop {
                    id,
                    check_instrs,
                    check_data,
                    init_instrs: instrs,
                    init_data: data,
                    iters,
                    body: body_s,
                    paths,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding (PathRecord → id)

struct Cursor<'a> {
    decisions: &'a [Decision],
    pos: usize,
}

impl Cursor<'_> {
    fn next_branch(&mut self, id: u32) -> Result<bool, PathError> {
        match self.decisions.get(self.pos) {
            Some(&Decision::Branch { id: did, taken }) if did == id => {
                self.pos += 1;
                Ok(taken)
            }
            other => Err(PathError::RecordMismatch {
                detail: format!("expected branch decision for conditional {id}, got {other:?}"),
            }),
        }
    }

    /// Iteration count of loop `id`: the first exit record with that id at
    /// or after the cursor. Sound because a loop cannot nest within itself,
    /// so no *other* construct between here and the exit record shares the
    /// id.
    fn scan_loop_iters(&self, id: u32) -> Result<u32, PathError> {
        self.decisions[self.pos..]
            .iter()
            .find_map(|d| match *d {
                Decision::Loop { id: did, iters } if did == id => Some(iters),
                _ => None,
            })
            .ok_or_else(|| PathError::RecordMismatch {
                detail: format!("no exit record for loop {id}"),
            })
    }

    fn expect_loop(&mut self, id: u32, iters: u32) -> Result<(), PathError> {
        match self.decisions.get(self.pos) {
            Some(&Decision::Loop { id: did, iters: k }) if did == id && k == iters => {
                self.pos += 1;
                Ok(())
            }
            other => Err(PathError::RecordMismatch {
                detail: format!(
                    "expected exit record for loop {id} after {iters} iterations, got {other:?}"
                ),
            }),
        }
    }
}

/// Positional combination across a sequence: the digit of each statement is
/// weighted by the path counts of the statements after it — exactly the sum
/// of Ball–Larus edge increments along the collapsed acyclic graph.
fn encode_seq(seq: &Seq, cur: &mut Cursor<'_>) -> Result<u128, PathError> {
    let mut idx: u128 = 0;
    for shape in &seq.shapes {
        idx = idx * shape.paths() + encode_shape(shape, cur)?;
    }
    Ok(idx)
}

fn encode_shape(shape: &Shape, cur: &mut Cursor<'_>) -> Result<u128, PathError> {
    match shape {
        Shape::Leaf { .. } => Ok(0),
        Shape::If {
            id, then_s, else_s, ..
        } => {
            if cur.next_branch(*id)? {
                encode_seq(then_s, cur)
            } else {
                // The else edge's BL increment is the then-side path count.
                Ok(then_s.paths + encode_seq(else_s, cur)?)
            }
        }
        Shape::Loop {
            id, iters, body, ..
        } => {
            let k = cur.scan_loop_iters(*id)?;
            if !iters.contains(k) {
                return Err(PathError::RecordMismatch {
                    detail: format!("loop {id} ran {k} iterations, infeasible for {iters:?}"),
                });
            }
            let mut inner: u128 = 0;
            for _ in 0..k {
                inner = inner * body.paths + encode_seq(body, cur)?;
            }
            cur.expect_loop(*id, k)?;
            Ok(loop_offset(body.paths, *iters, k) + inner)
        }
    }
}

/// `Σ_{j ∈ iters, j < k} B^j` — the digit offset of iteration count `k`.
fn loop_offset(base: u128, iters: IterSet, k: u32) -> u128 {
    let mut off: u128 = 0;
    for j in iters.iter_counts() {
        if j >= k {
            break;
        }
        off += base.pow(j);
    }
    off
}

// ---------------------------------------------------------------------------
// Decoding (id → PathRecord)

fn decode_seq(seq: &Seq, mut idx: u128, rec: &mut PathRecord) {
    // Suffix products give each statement's place value.
    let mut place: Vec<u128> = vec![1; seq.shapes.len()];
    for i in (0..seq.shapes.len().saturating_sub(1)).rev() {
        place[i] = place[i + 1] * seq.shapes[i + 1].paths();
    }
    for (shape, p) in seq.shapes.iter().zip(place) {
        let digit = idx / p;
        idx %= p;
        decode_shape(shape, digit, rec);
    }
}

fn decode_shape(shape: &Shape, q: u128, rec: &mut PathRecord) {
    match shape {
        Shape::Leaf { .. } => debug_assert_eq!(q, 0),
        Shape::If {
            id, then_s, else_s, ..
        } => {
            if q < then_s.paths {
                rec.push(Decision::Branch {
                    id: *id,
                    taken: true,
                });
                decode_seq(then_s, q, rec);
            } else {
                rec.push(Decision::Branch {
                    id: *id,
                    taken: false,
                });
                decode_seq(else_s, q - then_s.paths, rec);
            }
        }
        Shape::Loop {
            id, iters, body, ..
        } => {
            // Find the iteration count whose digit band contains q.
            let mut k = 0;
            let mut off: u128 = 0;
            for j in iters.iter_counts() {
                let width = body.paths.pow(j);
                if q < off + width {
                    k = j;
                    break;
                }
                off += width;
            }
            let mut r = q - off;
            // Most-significant iteration first (matches encode order).
            for i in 0..k {
                let p = body.paths.pow(k - 1 - i);
                decode_seq(body, r / p, rec);
                r %= p;
            }
            rec.push(Decision::Loop { id: *id, iters: k });
        }
    }
}

// ---------------------------------------------------------------------------
// Signatures

fn sig_seq(seq: &Seq, cur: &mut Cursor<'_>, sig: &mut PathSignature) -> Result<(), PathError> {
    for shape in &seq.shapes {
        sig_shape(shape, cur, sig)?;
    }
    Ok(())
}

fn sig_shape(
    shape: &Shape,
    cur: &mut Cursor<'_>,
    sig: &mut PathSignature,
) -> Result<(), PathError> {
    match shape {
        Shape::Leaf { instrs, data } => {
            sig.instr_fetches += instrs;
            sig.data_accesses += data;
        }
        Shape::If {
            id,
            header_instrs,
            header_data,
            then_s,
            else_s,
        } => {
            sig.instr_fetches += header_instrs;
            sig.data_accesses += header_data;
            if cur.next_branch(*id)? {
                sig_seq(then_s, cur, sig)?;
            } else {
                sig_seq(else_s, cur, sig)?;
            }
        }
        Shape::Loop {
            id,
            check_instrs,
            check_data,
            init_instrs,
            init_data,
            iters,
            body,
            ..
        } => {
            let k = cur.scan_loop_iters(*id)?;
            if !iters.contains(k) {
                return Err(PathError::RecordMismatch {
                    detail: format!("loop {id} ran {k} iterations, infeasible for {iters:?}"),
                });
            }
            sig.instr_fetches += init_instrs;
            sig.data_accesses += init_data;
            // The check runs k+1 times (k successes + the failing one).
            sig.instr_fetches += check_instrs * (u64::from(k) + 1);
            sig.data_accesses += check_data * (u64::from(k) + 1);
            for _ in 0..k {
                sig_seq(body, cur, sig)?;
            }
            cur.expect_loop(*id, k)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::interp::{execute, Inputs};
    use crate::program::ProgramBuilder;

    fn c(v: i64) -> Expr {
        Expr::c(v)
    }

    #[test]
    fn straight_line_has_one_path() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        b.push(Stmt::Assign(x, c(1)));
        let p = b.build().unwrap();
        let space = PathSpace::of(&p);
        assert_eq!(space.num_paths(), 1);
        let run = execute(&p, &Inputs::new()).unwrap();
        assert_eq!(space.index_of(&run.path).unwrap(), 0);
        assert_eq!(space.record_of(0).unwrap(), run.path);
    }

    #[test]
    fn nested_ifs_count_and_roundtrip() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let y = b.var("y");
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![Stmt::if_(
                Expr::var(x).gt(c(5)),
                vec![Stmt::Assign(y, c(1))],
                vec![Stmt::Assign(y, c(2))],
            )],
            vec![Stmt::Assign(y, c(3))],
        ));
        b.push(Stmt::if_(Expr::var(y).gt(c(1)), vec![], vec![]));
        let p = b.build().unwrap();
        let space = PathSpace::of(&p);
        // (2 + 1) inner arms × trailing if = 3 * 2.
        assert_eq!(space.num_paths(), 6);
        // Exhaustive bijection check.
        for i in 0..6u128 {
            let rec = space.record_of(i).unwrap();
            assert_eq!(space.index_of(&rec).unwrap(), i);
        }
        // Distinct records.
        let recs: Vec<PathRecord> = (0..6).map(|i| space.record_of(i).unwrap()).collect();
        for (i, a) in recs.iter().enumerate() {
            for b2 in &recs[i + 1..] {
                assert_ne!(a, b2);
            }
        }
    }

    #[test]
    fn while_loop_paths_sum_over_iterations() {
        // while body has an if: B = 2, max_iter = 3 → 1+2+4+8 = 15 paths.
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        let y = b.var("y");
        b.push(Stmt::while_(
            Expr::var(i).lt(c(3)),
            3,
            vec![
                Stmt::if_(
                    Expr::var(y).gt(c(0)),
                    vec![Stmt::Assign(y, c(0))],
                    vec![Stmt::Assign(y, c(1))],
                ),
                Stmt::Assign(i, Expr::var(i).add(c(1))),
            ],
        ));
        let p = b.build().unwrap();
        let space = PathSpace::of(&p);
        assert_eq!(space.num_paths(), 15);
        for i in 0..15u128 {
            let rec = space.record_of(i).unwrap();
            assert_eq!(space.index_of(&rec).unwrap(), i, "roundtrip of {rec}");
        }
        // An actual run maps into the space.
        let run = execute(&p, &Inputs::new().with_var(y, 1)).unwrap();
        let id = space.index_of(&run.path).unwrap();
        assert_eq!(space.record_of(id).unwrap(), run.path);
    }

    #[test]
    fn const_for_bounds_collapse_to_one_count() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        let s = b.var("s");
        b.push(Stmt::for_(
            i,
            c(0),
            c(5),
            5,
            vec![Stmt::Assign(s, Expr::var(s).add(Expr::var(i)))],
        ));
        let p = b.build().unwrap();
        let space = PathSpace::of(&p);
        assert_eq!(space.num_paths(), 1, "constant bounds: single path");
        let run = execute(&p, &Inputs::new()).unwrap();
        assert_eq!(space.index_of(&run.path).unwrap(), 0);
        assert_eq!(space.record_of(0).unwrap(), run.path);
    }

    #[test]
    fn variable_for_bounds_span_all_counts() {
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        let n = b.var("n");
        let s = b.var("s");
        b.push(Stmt::for_(
            i,
            c(0),
            Expr::var(n),
            4,
            vec![Stmt::Assign(s, Expr::var(s).add(c(1)))],
        ));
        let p = b.build().unwrap();
        let space = PathSpace::of(&p);
        assert_eq!(space.num_paths(), 5, "0..=4 iterations feasible");
        for v in 0..=4 {
            let run = execute(&p, &Inputs::new().with_var(n, v)).unwrap();
            let id = space.index_of(&run.path).unwrap();
            assert_eq!(space.record_of(id).unwrap(), run.path);
        }
    }

    #[test]
    fn signatures_match_interpreter_traces() {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", 8);
        let x = b.var("x");
        let y = b.var("y");
        let i = b.var("i");
        b.push(Stmt::if_(
            Expr::var(x).gt(c(0)),
            vec![Stmt::Assign(y, Expr::load(a, c(0)))],
            vec![Stmt::store(a, c(1), c(9))],
        ));
        b.push(Stmt::while_(
            Expr::var(i).lt(Expr::var(x)),
            6,
            vec![Stmt::Assign(i, Expr::var(i).add(c(1)))],
        ));
        let p = b.build().unwrap();
        let space = PathSpace::of(&p);
        for v in [-1, 0, 2, 6] {
            let run = execute(&p, &Inputs::new().with_var(x, v)).unwrap();
            let sig = space.signature_of(&run.path).unwrap();
            assert_eq!(
                sig.instr_fetches as usize,
                run.trace.instr_fetches().count(),
                "x = {v}"
            );
            assert_eq!(
                sig.instr_fetches + sig.data_accesses,
                run.trace.len() as u64,
                "x = {v}"
            );
        }
    }

    #[test]
    fn enumerate_is_bounded_and_ordered() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        b.push(Stmt::if_(Expr::var(x).gt(c(0)), vec![], vec![]));
        b.push(Stmt::if_(Expr::var(x).gt(c(1)), vec![], vec![]));
        let p = b.build().unwrap();
        let space = PathSpace::of(&p);
        let paths = space.enumerate_paths(16).unwrap();
        assert_eq!(paths.len(), 4);
        for (i, sp) in paths.iter().enumerate() {
            assert_eq!(sp.index, i as u128);
        }
        assert_eq!(
            space.enumerate_paths(3).unwrap_err(),
            PathError::TooManyPaths { total: 4, cap: 3 }
        );
    }

    #[test]
    fn mismatched_records_are_rejected() {
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        b.push(Stmt::if_(Expr::var(x).gt(c(0)), vec![], vec![]));
        let p = b.build().unwrap();
        let space = PathSpace::of(&p);
        // Wrong construct id.
        let mut bad = PathRecord::new();
        bad.push(Decision::Branch { id: 7, taken: true });
        assert!(matches!(
            space.index_of(&bad),
            Err(PathError::RecordMismatch { .. })
        ));
        // Trailing decision.
        let mut long = PathRecord::new();
        long.push(Decision::Branch { id: 0, taken: true });
        long.push(Decision::Branch { id: 0, taken: true });
        assert!(matches!(
            space.index_of(&long),
            Err(PathError::RecordMismatch { .. })
        ));
        // Infeasible iteration count.
        let mut b = ProgramBuilder::new("t");
        let i = b.var("i");
        b.push(Stmt::while_(
            Expr::var(i).lt(c(2)),
            2,
            vec![Stmt::Assign(i, Expr::var(i).add(c(1)))],
        ));
        let p = b.build().unwrap();
        let space = PathSpace::of(&p);
        let mut over = PathRecord::new();
        over.push(Decision::Loop { id: 0, iters: 9 });
        assert!(matches!(
            space.index_of(&over),
            Err(PathError::RecordMismatch { .. })
        ));
    }

    #[test]
    fn exponential_spaces_saturate_cleanly() {
        // 2^200 paths: nested bounded loops of ifs.
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let i = b.var("i");
        let body: Vec<Stmt> = vec![
            Stmt::if_(
                Expr::var(x).gt(c(0)),
                vec![Stmt::Assign(x, c(0))],
                vec![Stmt::Assign(x, c(1))],
            );
            1
        ];
        b.push(Stmt::while_(Expr::var(i).lt(c(200)), 200, body));
        let p = b.build().unwrap();
        let space = PathSpace::of(&p);
        assert!(space.is_saturated());
        assert_eq!(space.num_paths(), u128::MAX);
        assert_eq!(
            space.index_of(&PathRecord::new()),
            Err(PathError::Saturated)
        );
        assert_eq!(space.record_of(0), Err(PathError::Saturated));
    }

    #[test]
    fn deep_but_unsaturated_space_still_indexes() {
        // B = 2 per iteration, 100 iterations max: Σ 2^k = 2^101 - 1 < 2^128.
        let mut b = ProgramBuilder::new("t");
        let x = b.var("x");
        let i = b.var("i");
        b.push(Stmt::while_(
            Expr::var(i).lt(c(100)),
            100,
            vec![
                Stmt::if_(
                    Expr::var(x).gt(c(0)),
                    vec![Stmt::Assign(x, c(0))],
                    vec![Stmt::Assign(x, c(1))],
                ),
                Stmt::Assign(i, Expr::var(i).add(c(1))),
            ],
        ));
        let p = b.build().unwrap();
        let space = PathSpace::of(&p);
        assert!(!space.is_saturated());
        assert_eq!(space.num_paths(), (1u128 << 101) - 1);
        let run = execute(&p, &Inputs::new().with_var(x, 1)).unwrap();
        let id = space.index_of(&run.path).unwrap();
        assert_eq!(space.record_of(id).unwrap(), run.path);
    }
}
