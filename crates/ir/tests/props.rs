//! Property tests for the Ball–Larus path layer: on randomly generated
//! programs, the static path space must (a) contain every path the
//! interpreter actually takes, (b) map observed paths to ids and back
//! bijectively, and (c) predict each path's access signature exactly.
//!
//! Programs come from the shared generator (`common/mod.rs`): nested
//! conditionals, bounded loops, loads, stores, arithmetic and the `Touch` /
//! `Nop` statements PUB inserts, executed on a spread of random input
//! vectors.

mod common;

use common::{gen_program, Gen};
use mbcr_ir::{execute, PathSpace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Static ⊇ observed, id bijection, and exact signature prediction on
    /// random programs.
    #[test]
    fn observed_paths_lie_in_the_static_space(seed in any::<u64>(),) {
        let (program, inputs) = gen_program(seed);
        let space = PathSpace::of(&program);
        for inp in &inputs {
            let run = execute(&program, inp)
                .expect("generated programs execute on generated inputs");
            prop_assert!(
                space.contains(&run.path),
                "observed path escapes the static space (seed {seed:#x})"
            );
            let sig = space.signature_of(&run.path).expect("member signature");
            prop_assert_eq!(sig.instr_fetches, run.trace.instr_fetches().count() as u64);
            prop_assert_eq!(
                sig.instr_fetches + sig.data_accesses,
                run.trace.len() as u64,
            );
            if !space.is_saturated() {
                let id = space.index_of(&run.path).expect("member index");
                prop_assert!(id < space.num_paths());
                prop_assert_eq!(space.record_of(id).expect("roundtrip"), run.path);
            }
        }
    }

    /// `record_of` and `index_of` are mutually inverse over random ids,
    /// not just over interpreter-produced records.
    #[test]
    fn path_ids_roundtrip_from_either_side(seed in any::<u64>(),) {
        let (program, _) = gen_program(seed);
        let space = PathSpace::of(&program);
        if space.is_saturated() || space.num_paths() == 0 {
            return Ok(());
        }
        let mut g = Gen::new(seed ^ 0xD1F3);
        for _ in 0..16 {
            let id = u128::from(g.next()) % space.num_paths();
            let record = space.record_of(id).expect("in-range id decodes");
            prop_assert_eq!(space.index_of(&record).expect("decoded record encodes"), id);
            prop_assert!(space.contains(&record));
        }
    }

    /// Full enumeration agrees with the index bijection on small spaces.
    #[test]
    fn enumeration_is_exhaustive_on_small_spaces(seed in any::<u64>(),) {
        let (program, inputs) = gen_program(seed);
        let space = PathSpace::of(&program);
        if space.is_saturated() || space.num_paths() > 512 {
            return Ok(());
        }
        let all = space.enumerate_paths(512).expect("under the cap");
        prop_assert_eq!(all.len() as u128, space.num_paths());
        for path in &all {
            prop_assert_eq!(space.index_of(&path.record).expect("enumerated member"), path.index);
        }
        let ids: std::collections::HashSet<u128> = all.iter().map(|p| p.index).collect();
        prop_assert_eq!(ids.len() as u128, space.num_paths());
        for inp in &inputs {
            let run = execute(&program, inp).expect("runs");
            let id = space.index_of(&run.path).expect("observed member");
            prop_assert!(ids.contains(&id), "observed id missing from enumeration");
        }
    }
}
