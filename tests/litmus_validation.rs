//! Semantic validation: the litmus suite holds under all models, and the
//! fence vocabulary the timing simulator prices agrees with the semantic
//! classes the explorer enforces.

use wmm::wmm_litmus::ops::{FClass, LOp, LitmusTest};
use wmm::wmm_litmus::suite::{full_suite, run_full_suite};
use wmm::wmm_litmus::{explore, ModelKind};
use wmm::wmm_sim::isa::FenceKind;

#[test]
fn full_suite_expectations_hold() {
    let rows = run_full_suite();
    assert!(rows.len() >= 50, "suite too small: {}", rows.len());
    let failures: Vec<_> = rows.iter().filter(|(_, _, e, o)| e != o).collect();
    assert!(failures.is_empty(), "violations: {failures:?}");
}

#[test]
fn sc_never_shows_any_weak_outcome() {
    for entry in full_suite() {
        let out = explore(&entry.test, ModelKind::Sc);
        // If the suite marks SC as forbidding, verify; and regardless, any
        // outcome SC allows must also be reachable on every weaker model.
        for weaker in [ModelKind::Tso, ModelKind::ArmV8, ModelKind::Power] {
            let weak = explore(&entry.test, weaker);
            for f in &out.finals {
                assert!(
                    weak.finals.contains(f),
                    "{}: SC outcome {f:?} missing under {weaker:?} — models must be monotone",
                    entry.test.name
                );
            }
        }
    }
}

/// Does the program carry release/acquire access attributes?
fn uses_rel_acq(test: &LitmusTest) -> bool {
    test.threads.iter().flatten().any(|op| {
        matches!(
            op,
            LOp::Store { release: true, .. } | LOp::Load { acquire: true, .. }
        )
    })
}

#[test]
fn tso_is_between_sc_and_armv8() {
    // The inclusion holds on the plain+fence fragment only. Programs with
    // release/acquire attributes are incomparable across the two models:
    // ARMv8 is RCsc, so `stlr; ldar` stay ordered, while on TSO the
    // attributes lower to plain MOVs and the store→load pair may reorder —
    // SB+rel+acq is forbidden on ARMv8 yet observable on TSO.
    for entry in full_suite() {
        if uses_rel_acq(&entry.test) {
            continue;
        }
        let tso = explore(&entry.test, ModelKind::Tso);
        let arm = explore(&entry.test, ModelKind::ArmV8);
        for f in &tso.finals {
            assert!(
                arm.finals.contains(f),
                "{}: TSO outcome {f:?} not reachable on ARMv8",
                entry.test.name
            );
        }
    }
}

#[test]
fn rcsc_makes_armv8_and_tso_incomparable_on_rel_acq() {
    // The exception above is real, not vacuous: the RCsc entry must exist
    // and must split the two models in ARMv8's favour.
    let entry = wmm::wmm_litmus::suite::sb_rel_acq();
    assert!(uses_rel_acq(&entry.test));
    let interesting = &entry.test.interesting;
    let memory = &entry.test.memory;
    assert!(explore(&entry.test, ModelKind::Tso).allows_with_memory(interesting, memory));
    assert!(!explore(&entry.test, ModelKind::ArmV8).allows_with_memory(interesting, memory));
}

#[test]
fn fence_kinds_map_to_the_classes_the_explorer_enforces() {
    // The timing model prices these instructions; the explorer defines what
    // they mean. The mapping must stay total over hardware fences.
    assert_eq!(FClass::of_fence(FenceKind::DmbIsh), Some(FClass::Full));
    assert_eq!(FClass::of_fence(FenceKind::HwSync), Some(FClass::Full));
    assert_eq!(FClass::of_fence(FenceKind::LwSync), Some(FClass::LwSync));
    assert_eq!(FClass::of_fence(FenceKind::DmbIshSt), Some(FClass::StSt));
    assert_eq!(FClass::of_fence(FenceKind::DmbIshLd), Some(FClass::LdLdSt));
    // Compiler barriers and isb have no standalone ordering class.
    assert_eq!(FClass::of_fence(FenceKind::Compiler), None);
    assert_eq!(FClass::of_fence(FenceKind::Isb), None);
}

#[test]
fn exploration_visits_reasonable_state_counts() {
    // Each reachable state is counted once, so the counts are exact
    // properties of the state graph: SB under SC is tiny, IRIW+addrs under
    // POWER (store propagation one thread at a time) about 180x larger.
    let sb = wmm::wmm_litmus::suite::store_buffering();
    let small = explore(&sb.test, ModelKind::Sc);
    assert_eq!(small.states_visited, 17);
    let iriw = wmm::wmm_litmus::suite::iriw_addrs();
    let big = explore(&iriw.test, ModelKind::Power);
    assert_eq!(big.states_visited, 3049, "IRIW/POWER state count");
}
