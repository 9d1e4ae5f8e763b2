//! Property tests for the abstract-interpretation cache analysis: on
//! randomly generated programs and randomly drawn cache geometries, the
//! classifier must stay sound against the `mbcr-cache` LRU simulator —
//! no site proved always-hit may ever miss, no site proved always-miss
//! may ever hit, no first-miss scope may see a second miss — and the
//! fixpoint must terminate (every `classify` call below returning at all
//! is that assertion; the iteration cap panics instead of spinning).
//!
//! Programs come from the generator `props.rs` uses too (`common/mod.rs`:
//! nested conditionals, bounded loops, loads, stores, arithmetic, `Touch`
//! and `Nop`); geometries span 1–4 ways and 16/32-byte lines down to
//! caches small enough to thrash.

mod common;

use common::{gen_program, Gen};
use mbcr_cache::CacheGeometry;
use mbcr_ir::{classify, validate_classification};
use proptest::prelude::*;

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
