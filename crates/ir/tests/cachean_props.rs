//! Property tests for the abstract-interpretation cache analysis: on
//! randomly generated programs and randomly drawn cache geometries, the
//! classifier must stay sound against the `mbcr-cache` LRU simulator —
//! no site proved always-hit may ever miss, no site proved always-miss
//! may ever hit, no first-miss scope may see a second miss — and the
//! fixpoint must terminate (every `classify` call below returning at all
//! is that assertion; the iteration cap panics instead of spinning).
//!
//! The program generator mirrors `props.rs` (nested conditionals,
//! bounded loops, loads, arithmetic); geometries span 1–4 ways and
//! 16/32-byte lines down to caches small enough to thrash.

use mbcr_cache::CacheGeometry;
use mbcr_ir::{
    classify, validate_classification, Expr, Inputs, Program, ProgramBuilder, Stmt, Var,
};
use proptest::prelude::*;

const ARRAY_LEN: u32 = 16;

/// Deterministic per-case generator (SplitMix64), independent of the shim's
/// internals so a failing seed reproduces from the panic message alone.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }
}

/// A random valid L1 geometry, biased toward small caches so conflict
/// and capacity behavior (the hard part of the may analysis) is hit
/// often, not just the roomy paper configuration.
fn gen_geometry(g: &mut Gen) -> CacheGeometry {
    let line = [16u64, 32][g.below(2) as usize];
    let ways = [1u32, 2, 4][g.below(3) as usize];
    let sets = [1u64, 2, 4, 8][g.below(4) as usize];
    CacheGeometry::new(sets * u64::from(ways) * line, ways, line)
        .expect("generated geometries are valid")
}

/// A small arithmetic expression over the program's variables; loads use
/// constant in-range indices only (the interpreter faults on out-of-range
/// indices, and these programs must always run).
fn gen_expr(g: &mut Gen, vars: &[Var], arr: mbcr_ir::ArrayId) -> Expr {
    match g.below(5) {
        0 => Expr::c(g.below(9) as i64 - 4),
        1 | 2 => Expr::var(vars[g.below(vars.len() as u64) as usize]),
        3 => Expr::var(vars[g.below(vars.len() as u64) as usize]).add(Expr::c(g.below(5) as i64)),
        _ => Expr::load(arr, Expr::c(g.below(u64::from(ARRAY_LEN)) as i64)),
    }
}

/// Variable pools for generation: loop counters are owned by their loop
/// construct (see `props.rs` for why clobbering them would fault).
struct Pools {
    general: Vec<Var>,
    loops: Vec<Var>,
}

fn gen_seq(g: &mut Gen, p: &Pools, arr: mbcr_ir::ArrayId, depth: u32) -> Vec<Stmt> {
    let len = 1 + g.below(3) as usize;
    (0..len).map(|_| gen_stmt(g, p, arr, depth)).collect()
}

fn gen_stmt(g: &mut Gen, p: &Pools, arr: mbcr_ir::ArrayId, depth: u32) -> Stmt {
    let v = p.general[g.below(p.general.len() as u64) as usize];
    let choice = if depth == 0 { g.below(3) } else { g.below(6) };
    match choice {
        0 | 1 => Stmt::Assign(v, gen_expr(g, &p.general, arr)),
        2 => Stmt::store(
            arr,
            Expr::c(g.below(u64::from(ARRAY_LEN)) as i64),
            Expr::var(v),
        ),
        3 => Stmt::if_(
            Expr::var(v).gt(Expr::c(g.below(7) as i64 - 3)),
            gen_seq(g, p, arr, depth - 1),
            gen_seq(g, p, arr, depth - 1),
        ),
        4 => {
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

fn gen_program(seed: u64) -> (Program, Vec<Inputs>) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole soundness property: `classify` terminates on any
    /// (program, il1, dl1) and the simulator never contradicts it —
    /// `validate_classification` must return zero CCA diagnostics.
    #[test]
    fn classifier_is_sound_against_the_simulator(seed in any::<u64>(),) {
        let (program, inputs) = gen_program(seed);
        let mut g = Gen::new(seed ^ 0x00CA_C4EA);
        let il1 = gen_geometry(&mut g);
        let dl1 = gen_geometry(&mut g);
        let cls = classify(&program, il1, dl1);
        // The rollup is a partition of the sites.
        for side in [cls.rollup.il1, cls.rollup.dl1] {
            prop_assert_eq!(
                side.always_hit + side.always_miss + side.first_miss + side.not_classified,
                side.sites
            );
        }
        prop_assert_eq!(cls.rollup.il1.sites + cls.rollup.dl1.sites, cls.sites.len());
        let diags = validate_classification(&program, &inputs, &cls)
            .expect("generated programs execute on generated inputs");
        prop_assert!(
            diags.is_empty(),
            "soundness findings at il1 {il1} / dl1 {dl1} (seed {seed:#x}): {diags}"
        );
    }
}
