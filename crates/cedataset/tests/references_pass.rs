//! The dataset's ground-truth guarantee: every generated unit test passes
//! against its own (label-stripped) reference solution, and fails against
//! an obviously wrong answer. This mirrors the paper's manual verification
//! of hand-written tests (§2.1: the reference YAML is used "to facilitate
//! the development and verification of the unit test script").

use cedataset::Dataset;

#[test]
fn every_unit_test_passes_on_its_reference() {
    let ds = Dataset::generate();
    let mut failures = Vec::new();
    for p in ds.problems() {
        let reference = p.clean_reference();
        match minishell::run_unit_test(&p.unit_test, reference) {
            Ok(outcome) if outcome.combined.contains("unit_test_passed") => {}
            Ok(outcome) => failures.push(format!(
                "{}: test did not pass\n--- transcript ---\n{}",
                p.id, outcome.combined
            )),
            Err(e) => failures.push(format!("{}: interpreter error: {e}", p.id)),
        }
    }
    assert!(
        failures.is_empty(),
        "{} / {} references fail their own unit test:\n{}",
        failures.len(),
        ds.len(),
        failures.join("\n\n")
    );
}

#[test]
fn extended_scenario_references_pass_their_unit_tests() {
    let ds = Dataset::generate_extended(30);
    let mut failures = Vec::new();
    for p in ds.problems().iter().filter(|p| p.id.starts_with("scn-")) {
        let reference = p.clean_reference();
        match minishell::run_unit_test(&p.unit_test, reference) {
            Ok(outcome) if outcome.combined.contains("unit_test_passed") => {}
            Ok(outcome) => failures.push(format!(
                "{}: test did not pass\n--- transcript ---\n{}",
                p.id, outcome.combined
            )),
            Err(e) => failures.push(format!("{}: interpreter error: {e}", p.id)),
        }
        // Scenario tests must also reject an empty answer.
        if let Ok(o) = minishell::run_unit_test(&p.unit_test, "") {
            assert!(
                !o.combined.contains("unit_test_passed"),
                "{} passed with an empty answer",
                p.id
            );
        }
    }
    assert!(
        failures.is_empty(),
        "{} scenario references fail their own unit test:\n{}",
        failures.len(),
        failures.join("\n\n")
    );
}

#[test]
fn unit_tests_reject_empty_answers() {
    let ds = Dataset::generate();
    for p in ds.problems().iter().step_by(13) {
        // An interpreter error also counts as failure; only an `Ok` outcome
        // that prints the marker would be a bug.
        if let Ok(o) = minishell::run_unit_test(&p.unit_test, "") {
            assert!(
                !o.combined.contains("unit_test_passed"),
                "{} passed with an empty answer",
                p.id
            );
        }
    }
}

#[test]
fn unit_tests_reject_wrong_kind_answers() {
    let ds = Dataset::generate();
    let wrong = "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: wrong-answer\ndata:\n  k: v\n";
    for p in ds.problems().iter().step_by(17) {
        if p.clean_reference().contains("kind: ConfigMap") {
            continue; // the decoy would accidentally be near-correct
        }
        let outcome = minishell::run_unit_test(&p.unit_test, wrong);
        if let Ok(o) = outcome {
            assert!(
                !o.combined.contains("unit_test_passed"),
                "{} passed with a wrong-kind answer:\n{}",
                p.id,
                o.combined
            );
        }
    }
}
