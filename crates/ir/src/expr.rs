//! Expressions of the mbcr IR.

use std::fmt;

use crate::program::{ArrayId, Var};

/// Binary operators (C-like semantics on `i64`, wrapping arithmetic).
///
/// Comparison operators yield `0` or `1`. There are **no short-circuit
/// logical operators**: `And`/`Or` are bitwise, so every operand of an
/// expression is always evaluated. This keeps the memory access sequence of
/// an expression input-independent, which is what lets PUB compute exact
/// static access signatures for branch equalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Truncating division (errors on zero divisor).
    Div,
    /// Remainder (errors on zero divisor).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (masked to 0–63).
    Shl,
    /// Arithmetic right shift (masked to 0–63).
    Shr,
    /// Less-than, yields 0/1.
    Lt,
    /// Less-or-equal, yields 0/1.
    Le,
    /// Greater-than, yields 0/1.
    Gt,
    /// Greater-or-equal, yields 0/1.
    Ge,
    /// Equality, yields 0/1.
    Eq,
    /// Inequality, yields 0/1.
    Ne,
}

impl BinOp {
    /// The IR's semantics of `a op b`: the one definition the interpreter
    /// and the constant evaluator share. `None` only for a zero divisor of
    /// `Div` or `Rem`; `i64::MIN / -1` wraps like every other overflow.
    #[must_use]
    pub fn apply(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div | BinOp::Rem if b == 0 => return None,
            BinOp::Div => a.wrapping_div(b),
            BinOp::Rem => a.wrapping_rem(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 63),
            BinOp::Shr => a.wrapping_shr(b as u32 & 63),
            BinOp::Lt => i64::from(a < b),
            BinOp::Le => i64::from(a <= b),
            BinOp::Gt => i64::from(a > b),
            BinOp::Ge => i64::from(a >= b),
            BinOp::Eq => i64::from(a == b),
            BinOp::Ne => i64::from(a != b),
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Wrapping negation.
    Neg,
    /// Bitwise not.
    Not,
    /// Logical not: `0 → 1`, non-zero → `0`.
    LNot,
}

impl UnOp {
    /// The IR's semantics of `op v` (total: negation wraps).
    #[must_use]
    pub fn apply(self, v: i64) -> i64 {
        match self {
            UnOp::Neg => v.wrapping_neg(),
            UnOp::Not => !v,
            UnOp::LNot => i64::from(v == 0),
        }
    }
}

/// Evaluates a constant expression, if it is one.
///
/// Variables and loads are unknown (`None`); division/remainder by a
/// constant zero is `None` too (the interpreter would fault). The operators
/// are the interpreter's own ([`BinOp::apply`], [`UnOp::apply`]), so a
/// `Some` result is the value every run computes.
#[must_use]
pub fn const_eval(e: &Expr) -> Option<i64> {
    match e {
        Expr::Const(v) => Some(*v),
        Expr::Var(_) | Expr::Load(..) => None,
        Expr::Un(op, e) => Some(op.apply(const_eval(e)?)),
        Expr::Bin(op, l, r) => op.apply(const_eval(l)?, const_eval(r)?),
    }
}

/// An expression tree.
///
/// Expressions are pure except that evaluating an [`Expr::Load`] emits a data
/// read access into the trace. Build them with the fluent helpers:
///
/// ```
/// use mbcr_ir::{Expr, ProgramBuilder};
/// let mut b = ProgramBuilder::new("demo");
/// let a = b.array("a", 4);
/// let i = b.var("i");
/// // a[i] + 1 < 10
/// let e = Expr::load(a, Expr::var(i)).add(Expr::c(1)).lt(Expr::c(10));
/// let mut loads = 0;
/// e.for_each_load(&mut |_, _| loads += 1);
/// assert_eq!(loads, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Scalar variable read (register-allocated: no memory access).
    Var(Var),
    /// Array element load: emits a data read when evaluated.
    Load(ArrayId, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

// The fluent builder methods deliberately mirror operator names (`add`,
// `mul`, `shr`, …): they *construct* expression nodes rather than compute,
// and the names read naturally at call sites (`x.add(y).lt(z)`).
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Integer constant.
    #[must_use]
    pub fn c(value: i64) -> Expr {
        Expr::Const(value)
    }

    /// Variable reference.
    #[must_use]
    pub fn var(v: Var) -> Expr {
        Expr::Var(v)
    }

    /// Array load `array[index]`.
    #[must_use]
    pub fn load(array: ArrayId, index: Expr) -> Expr {
        Expr::Load(array, Box::new(index))
    }

    fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(self), Box::new(rhs))
    }

    /// `self + rhs`.
    #[must_use]
    pub fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }

    /// `self - rhs`.
    #[must_use]
    pub fn sub(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sub, rhs)
    }

    /// `self * rhs`.
    #[must_use]
    pub fn mul(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Mul, rhs)
    }

    /// `self / rhs` (truncating).
    #[must_use]
    pub fn div(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Div, rhs)
    }

    /// `self % rhs`.
    #[must_use]
    pub fn rem(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Rem, rhs)
    }

    /// Bitwise `self & rhs`.
    #[must_use]
    pub fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }

    /// Bitwise `self | rhs`.
    #[must_use]
    pub fn or(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }

    /// Bitwise `self ^ rhs`.
    #[must_use]
    pub fn xor(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Xor, rhs)
    }

    /// `self << rhs` (shift amount masked to 0–63).
    #[must_use]
    pub fn shl(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Shl, rhs)
    }

    /// `self >> rhs` (arithmetic, amount masked to 0–63).
    #[must_use]
    pub fn shr(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Shr, rhs)
    }

    /// `self < rhs` as 0/1.
    #[must_use]
    pub fn lt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Lt, rhs)
    }

    /// `self <= rhs` as 0/1.
    #[must_use]
    pub fn le(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Le, rhs)
    }

    /// `self > rhs` as 0/1.
    #[must_use]
    pub fn gt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Gt, rhs)
    }

    /// `self >= rhs` as 0/1.
    #[must_use]
    pub fn ge(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ge, rhs)
    }

    /// `self == rhs` as 0/1.
    #[must_use]
    pub fn eq_(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }

    /// `self != rhs` as 0/1.
    #[must_use]
    pub fn ne(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ne, rhs)
    }

    /// Wrapping negation.
    #[must_use]
    pub fn neg(self) -> Expr {
        Expr::Un(UnOp::Neg, Box::new(self))
    }

    /// Logical not (`0 → 1`, else `0`).
    #[must_use]
    pub fn lnot(self) -> Expr {
        Expr::Un(UnOp::LNot, Box::new(self))
    }

    /// Instruction count of the compiled expression under a simple RISC
    /// cost model: constants materialize with one instruction, register
    /// reads are free, a load costs address generation plus the load
    /// itself, and every operator is one instruction.
    ///
    /// This drives the code layout (and therefore the I-cache footprint):
    /// a loop body of a few statements spans several cache lines, as
    /// compiled code does.
    #[must_use]
    pub fn instr_cost(&self) -> u32 {
        match self {
            Expr::Const(_) => 1,
            Expr::Var(_) => 0,
            Expr::Load(_, idx) => idx.instr_cost() + 2,
            Expr::Un(_, e) => e.instr_cost() + 1,
            Expr::Bin(_, l, r) => l.instr_cost() + r.instr_cost() + 1,
        }
    }

    /// Visits every `Load` node in evaluation order. Every one of them is
    /// evaluated, so these are exactly the data reads the expression emits.
    pub fn for_each_load(&self, f: &mut impl FnMut(ArrayId, &Expr)) {
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Load(a, idx) => {
                // Index sub-loads are evaluated before the load itself.
                idx.for_each_load(f);
                f(*a, idx);
            }
            Expr::Un(_, e) => e.for_each_load(f),
            Expr::Bin(_, l, r) => {
                l.for_each_load(f);
                r.for_each_load(f);
            }
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Const(v)
    }
}

impl From<Var> for Expr {
    fn from(v: Var) -> Self {
        Expr::Var(v)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Var(v) => write!(f, "v{}", v.0),
            Expr::Load(a, idx) => write!(f, "arr{}[{idx}]", a.0),
            Expr::Un(op, e) => {
                let s = match op {
                    UnOp::Neg => "-",
                    UnOp::Not => "~",
                    UnOp::LNot => "!",
                };
                write!(f, "{s}({e})")
            }
            Expr::Bin(op, l, r) => {
                let s = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::And => "&",
                    BinOp::Or => "|",
                    BinOp::Xor => "^",
                    BinOp::Shl => "<<",
                    BinOp::Shr => ">>",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                };
                write!(f, "({l} {s} {r})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_load_order_is_eval_order() {
        let a = ArrayId(0);
        let b = ArrayId(1);
        // a[b[0]] + a[1]: loads must visit b[0], a[.], a[1].
        let e = Expr::load(a, Expr::load(b, Expr::c(0))).add(Expr::load(a, Expr::c(1)));
        let mut order = Vec::new();
        e.for_each_load(&mut |arr, _| order.push(arr));
        assert_eq!(order, vec![b, a, a]);
    }

    #[test]
    fn operator_semantics() {
        assert_eq!(BinOp::Div.apply(7, 0), None);
        assert_eq!(BinOp::Rem.apply(7, 0), None);
        assert_eq!(BinOp::Div.apply(-7, 2), Some(-3), "division truncates");
        assert_eq!(BinOp::Rem.apply(-7, 2), Some(-1));
        assert_eq!(BinOp::Div.apply(i64::MIN, -1), Some(i64::MIN), "wraps");
        assert_eq!(BinOp::Rem.apply(i64::MIN, -1), Some(0));
        assert_eq!(BinOp::Add.apply(i64::MAX, 1), Some(i64::MIN));
        assert_eq!(BinOp::Shl.apply(1, 65), Some(2), "amount masked to 0-63");
        assert_eq!(BinOp::Shr.apply(-8, 1), Some(-4), "arithmetic shift");
        assert_eq!(BinOp::Le.apply(3, 3), Some(1));
        assert_eq!(BinOp::Ne.apply(3, 3), Some(0));
        assert_eq!(UnOp::Neg.apply(i64::MIN), i64::MIN);
        assert_eq!(UnOp::Not.apply(0), -1);
        assert_eq!(UnOp::LNot.apply(5), 0);
        assert_eq!(UnOp::LNot.apply(0), 1);
    }

    #[test]
    fn const_eval_mirrors_interpreter() {
        assert_eq!(
            const_eval(&Expr::c(2).add(Expr::c(3)).mul(Expr::c(4))),
            Some(20)
        );
        assert_eq!(const_eval(&Expr::c(7).div(Expr::c(0))), None);
        assert_eq!(const_eval(&Expr::c(1).lt(Expr::c(2))), Some(1));
        assert_eq!(const_eval(&Expr::var(Var(0))), None);
        assert_eq!(const_eval(&Expr::c(5).neg().add(Expr::c(5))), Some(0));
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::var(Var(0)).add(Expr::c(1)).lt(Expr::c(10));
        assert_eq!(e.to_string(), "((v0 + 1) < 10)");
    }

    #[test]
    fn structural_equality() {
        let a = ArrayId(0);
        let e1 = Expr::load(a, Expr::var(Var(1)));
        let e2 = Expr::load(a, Expr::var(Var(1)));
        let e3 = Expr::load(a, Expr::var(Var(2)));
        assert_eq!(e1, e2);
        assert_ne!(e1, e3);
    }
}
