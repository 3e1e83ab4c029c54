//! Facade-level conformance tests: the pure-model paper figures against
//! the checked-in golden tables, and the failure paths of the harness —
//! a seeded intentional mutation must trip both a golden gate and the
//! differential fuzzer's shrinker.
//!
//! The simulator-backed figures (3–5) are exercised by the
//! `commloc conformance` CLI (and its CI job); here we gate only the
//! figures that run in milliseconds so plain `cargo test -q` stays fast.

use std::path::Path;

use commloc::net::fuzz::{run_scenario_mutated, run_seed, shrink, FuzzMutation, FuzzScenario};
use commloc::sim::conformance::figures::{load_golden, self_check, ConformanceRun};
use commloc::sim::conformance::GoldenTable;

fn golden_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/conformance/golden"))
}

/// The model-side figures (6–9) reproduce the checked-in golden tables
/// exactly (GOLDEN_MODEL tolerance) and pass the paper's self-checks.
#[test]
fn model_figures_match_checked_in_goldens() {
    let mut run = ConformanceRun::new(1);
    for fig in ["fig6", "fig7", "fig8", "fig9"] {
        let table = run.figure(fig).expect("figure computes");
        let checks = self_check(&table);
        assert!(checks.is_empty(), "{fig} self-check violations: {checks:?}");
        let golden = load_golden(golden_dir(), fig).expect("golden table checked in");
        let violations = table.compare_against(&golden);
        assert!(violations.is_empty(), "{fig} violations: {violations:?}");
    }
}

/// Acceptance criterion, golden half: perturbing one blessed value by
/// more than the tolerance demonstrably trips the gate.
#[test]
fn perturbed_golden_value_trips_the_gate() {
    let mut run = ConformanceRun::new(1);
    let table = run.figure("fig9").expect("figure computes");
    let mut golden = GoldenTable::from_json(&table.to_json()).expect("round trip");
    // A 1% skew against the 1e-6 model tolerance.
    golden.rows[0].values[0].1 *= 1.01;
    let violations = table.compare_against(&golden);
    assert_eq!(violations.len(), 1, "exactly the skewed point must trip");
    assert_eq!(violations[0].figure, "fig9");
}

/// Acceptance criterion, fuzzer half: a seeded intentional mutation of
/// the reference engine's injection stream trips the lockstep checker,
/// and the shrinker reduces it to a minimal scenario with a
/// ready-to-paste repro test.
#[test]
fn seeded_mutation_trips_fuzzer_and_shrinker() {
    let scenario = FuzzScenario::from_seed(7);
    let mutation = Some(FuzzMutation::SkewDestination(0));
    let divergence =
        run_scenario_mutated(&scenario, mutation).expect_err("mutation must be caught");
    assert!(!divergence.what.is_empty());
    let outcome = shrink(&scenario, mutation).expect("failing scenario must shrink");
    assert!(outcome.scenario.cycles <= scenario.cycles);
    let repro = outcome.repro_test();
    assert!(repro.contains("#[test]"), "repro must be a pasteable test");
    assert!(repro.contains("fuzz_repro_seed_7"));
}

/// The differential fuzzer is reachable through the facade under plain
/// `cargo test -q`, and a few seeds run clean.
#[test]
fn fuzzer_runs_clean_through_the_facade() {
    for seed in [0u64, 1, 2] {
        let report = run_seed(seed).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        assert!(report.cycles > 0);
        assert_eq!(
            report.injected,
            report.delivered + report.dropped + report.wedged,
            "seed {seed}: conservation"
        );
    }
}
