//! The random-program generator the IR property tests share.
//!
//! Programs are generated from a per-case seed (no fixed corpus): nested
//! conditionals, bounded `while`/`for` loops (constant and input-dependent
//! bounds), loads, stores and arithmetic, plus the two statement kinds PUB
//! inserts — `Touch` (constant, variable and load-valued indices, which
//! the interpreter wraps into the array) and `Nop` — and a spread of
//! random input vectors to execute them on.

use mbcr_ir::{ArrayId, Expr, Inputs, Program, ProgramBuilder, Stmt, Var};

const ARRAY_LEN: u32 = 16;

/// Deterministic per-case generator (SplitMix64), independent of the shim's
/// internals so a failing seed reproduces from the panic message alone.
pub struct Gen {
    state: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }
}

/// A small arithmetic expression over the program's variables; loads use
/// constant in-range indices only (the interpreter faults on out-of-range
/// indices, and these programs must always run).
fn gen_expr(g: &mut Gen, vars: &[Var], arr: ArrayId) -> Expr {
    match g.below(5) {
        0 => Expr::c(g.below(9) as i64 - 4),
        1 | 2 => Expr::var(vars[g.below(vars.len() as u64) as usize]),
        3 => Expr::var(vars[g.below(vars.len() as u64) as usize]).add(Expr::c(g.below(5) as i64)),
        _ => Expr::load(arr, Expr::c(g.below(u64::from(ARRAY_LEN)) as i64)),
    }
}

/// A touch index: a constant (possibly outside the array), a variable, or
/// a load-valued expression. The interpreter evaluates it silently and
/// wraps it into the array, so every choice runs.
fn gen_touch_index(g: &mut Gen, vars: &[Var], arr: ArrayId) -> Expr {
    match g.below(3) {
        0 => Expr::c(g.below(u64::from(ARRAY_LEN) + 8) as i64 - 4),
        1 => Expr::var(vars[g.below(vars.len() as u64) as usize]),
        _ => Expr::load(arr, Expr::var(vars[g.below(vars.len() as u64) as usize])),
    }
}

/// Variable pools for generation. General variables are fair game as
/// assignment targets; loop variables (one per nesting depth) are only
/// ever written by the loop construct that owns them — the interpreter
/// *faults* on a loop exceeding `max_iter` (it never silently caps), so a
/// body statement clobbering a live counter would make generated programs
/// crash instead of exploring paths.
struct Pools {
    general: Vec<Var>,
    loops: Vec<Var>,
}

fn gen_seq(g: &mut Gen, p: &Pools, arr: ArrayId, depth: u32) -> Vec<Stmt> {
    let len = 1 + g.below(3) as usize;
    (0..len).map(|_| gen_stmt(g, p, arr, depth)).collect()
}

fn gen_stmt(g: &mut Gen, p: &Pools, arr: ArrayId, depth: u32) -> Stmt {
    let v = p.general[g.below(p.general.len() as u64) as usize];
    let choice = if depth == 0 { g.below(5) } else { g.below(8) };
    match choice {
        // Straight-line work.
        0 | 1 => Stmt::Assign(v, gen_expr(g, &p.general, arr)),
        2 => Stmt::store(
            arr,
            Expr::c(g.below(u64::from(ARRAY_LEN)) as i64),
            Expr::var(v),
        ),
        // The statements PUB inserts.
        3 => Stmt::Touch {
            refs: (0..1 + g.below(3))
                .map(|_| (arr, gen_touch_index(g, &p.general, arr)))
                .collect(),
            pad: g.below(10) as u32,
        },
        4 => Stmt::Nop {
            count: 1 + g.below(12) as u32,
        },
        // A data-dependent conditional.
        5 => Stmt::if_(
            Expr::var(v).gt(Expr::c(g.below(7) as i64 - 3)),
            gen_seq(g, p, arr, depth - 1),
            gen_seq(g, p, arr, depth - 1),
        ),
        // A pre-tested loop on a decremented dedicated counter, its seed
        // value folded into `[-(max_iter), max_iter]`: at most `max_iter`
        // iterations, input-dependent count.
        6 => {
            let counter = p.loops[depth as usize - 1];
            let max_iter = 2 + g.below(4) as u32;
            let mut body = gen_seq(g, p, arr, depth - 1);
            body.push(Stmt::Assign(counter, Expr::var(counter).sub(Expr::c(1))));
            Stmt::if_(
                Expr::c(1),
                vec![
                    Stmt::Assign(counter, Expr::var(v).rem(Expr::c(i64::from(max_iter) + 1))),
                    Stmt::while_(Expr::var(counter).gt(Expr::c(0)), max_iter, body),
                ],
                vec![],
            )
        }
        // A counted loop: constant bound (an Exact iteration set) or an
        // input-dependent bound folded under `max_iter` (an UpTo set);
        // loop-var indexing stays in array range via the bound itself.
        _ => {
            let idx = p.loops[depth as usize - 1];
            let max_iter = 2 + g.below(5) as u32;
            let to = if g.below(2) == 0 {
                Expr::c(i64::from(max_iter))
            } else {
                Expr::var(v).rem(Expr::c(i64::from(max_iter) + 1))
            };
            let mut body = gen_seq(g, p, arr, depth - 1);
            body.push(Stmt::Assign(
                p.general[g.below(p.general.len() as u64) as usize],
                Expr::load(arr, Expr::var(idx)),
            ));
            Stmt::for_(idx, Expr::c(0), to, max_iter, body)
        }
    }
}

/// A random program of nesting depth ≤ 2 and six input vectors it runs on
/// without faulting.
pub fn gen_program(seed: u64) -> (Program, Vec<Inputs>) {
    let mut g = Gen::new(seed);
    let mut b = ProgramBuilder::new("prop");
    let arr = b.array("m", ARRAY_LEN);
    let pools = Pools {
        general: (0..4).map(|i| b.var(&format!("x{i}"))).collect(),
        loops: (0..2).map(|i| b.var(&format!("l{i}"))).collect(),
    };
    for stmt in gen_seq(&mut g, &pools, arr, 2) {
        b.push(stmt);
    }
    let program = b
        .build()
        .expect("generated programs are structurally valid");
    // Loop-variable loads index `m[i]` with `i < max_iter ≤ 6 < ARRAY_LEN`,
    // and loop bounds are folded under max_iter at loop entry.
    let inputs = (0..6)
        .map(|_| {
            let mut inp = Inputs::new();
            for &v in &pools.general {
                inp = inp.with_var(v, g.below(11) as i64 - 4);
            }
            inp
        })
        .collect();
    (program, inputs)
}
