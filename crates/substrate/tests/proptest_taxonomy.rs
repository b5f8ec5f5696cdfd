//! Property tests for the deployment-error taxonomy classifier: total,
//! deterministic, and structurally sound on arbitrary error strings.

use proptest::prelude::*;
use substrate::taxonomy::{classify_error, classify_message, classify_outcome, Bucket};
use substrate::{ExecError, ExecOutcome};

/// Arbitrary error-shaped text: real backend phrasings with randomized
/// names, plus fully random strings (including quotes, braces, unicode)
/// the classifier must still be total over.
fn arb_error_text() -> impl Strategy<Value = String> {
    prop_oneof![
        // Fully random — anything a future backend might emit.
        "[ -~]{0,100}",
        ".{0,40}",
        // Backend phrasings with randomized subjects.
        "[a-z]{1,10}".prop_map(|f| format!(
            "Pod in version \"v1\" cannot be handled as a Pod: strict decoding error: unknown field \"{f}\""
        )),
        "[a-z]{1,10}".prop_map(|n| format!("namespaces \"{n}\" not found")),
        "[a-z]{1,10}".prop_map(|n| format!(
            "The Deployment \"{n}\" is invalid: spec.template.metadata.labels: Invalid value: `selector` does not match template `labels`"
        )),
        "[a-z]{1,10}".prop_map(|n| format!(
            "pods \"{n}\" is forbidden: exceeded quota: {n}-quota, requested: pods=1, used: pods=1, limited: pods=1"
        )),
        "[a-z]{1,10}".prop_map(|n| format!("error: timed out waiting for the condition on pods/{n}")),
        "[a-z]{1,10}".prop_map(|n| format!("route: unknown cluster '{n}'")),
        "[a-z]{1,10}".prop_map(|n| format!("error parsing YAML: {n}")),
        Just(String::new()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Totality + determinism: classification never panics, always lands
    /// in the closed bucket set, and the same input maps to the same
    /// diagnosis every time.
    #[test]
    fn classifier_is_total_and_deterministic(msg in arb_error_text()) {
        let first = classify_message(&msg);
        let second = classify_message(&msg);
        prop_assert_eq!(&first, &second);
        prop_assert!(Bucket::ALL.contains(&first.bucket));
        prop_assert_eq!(first.raw.as_str(), msg.as_str());
    }

    /// Every `ExecError` variant classifies without panicking, and the
    /// retryability shortcut agrees with the bucket's own answer.
    #[test]
    fn exec_errors_classify_and_retryable_agrees(msg in arb_error_text()) {
        for e in [
            ExecError::InvalidInput(msg.clone()),
            ExecError::Probe(msg.clone()),
        ] {
            let d = classify_error(&e);
            prop_assert_eq!(e.retryable(), d.bucket.retryable());
            // InvalidInput is a parse failure by construction — never
            // retryable.
            if matches!(e, ExecError::InvalidInput(_)) {
                prop_assert_eq!(d.bucket, Bucket::YamlSyntax);
            }
            // Probe errors never land in Unknown: an unmatched probe
            // message is an assertion-layer fault.
            if matches!(e, ExecError::Probe(_)) {
                prop_assert_ne!(d.bucket, Bucket::Unknown);
            }
        }
    }

    /// Failing transcripts always classify (never `None`), passing ones
    /// never do, and multi-line transcripts are deterministic too.
    #[test]
    fn outcome_classification_tracks_passed(
        lines in prop::collection::vec(arb_error_text(), 0..6),
        passed in any::<bool>(),
    ) {
        let outcome = ExecOutcome {
            passed,
            transcript: lines.join("\n"),
            simulated_ms: 0,
        };
        let d = classify_outcome(&outcome);
        prop_assert_eq!(d.is_some(), !passed);
        if let Some(d) = d {
            // Transcript classification falls back to ProbeFailed, so a
            // failing outcome is never Unknown.
            prop_assert_ne!(d.bucket, Bucket::Unknown);
            prop_assert_eq!(Some(d), classify_outcome(&outcome));
        }
    }

    /// Label round-trip survives arbitrary junk: `from_label` only ever
    /// resolves the nine canonical labels.
    #[test]
    fn from_label_rejects_junk(s in "[ -~]{0,24}") {
        if let Some(b) = Bucket::from_label(&s) {
            prop_assert_eq!(b.label(), s.as_str());
        }
    }
}
