//! Pinned verdicts of the grid's slow tail: the generated candidates whose
//! replica counts were corrupted to `1002`–`1005`, so their unit tests run
//! a kubesim cluster of about a thousand pods that never pull. They are
//! the costliest executions of the Table 4 grid and the ones most exposed
//! to a change of kubesim's clock, which the pipeline identity checks
//! cannot see (both sides of those comparisons share kubesim).
//!
//! The expected `(passed, simulated_ms, bucket)` of each candidate was
//! recorded with kubesim's stepwise clock, which reconciled at every
//! 250 ms tick.

use std::sync::Arc;

use cedataset::{Dataset, Variant};
use evalcluster::executor::execute_uncached;
use llmsim::{extract_yaml, GenParams, LanguageModel, ModelProfile, SimulatedModel};
use substrate::taxonomy::Bucket;
use yamlkit::PreparedDoc;

/// (model, problem, variant, passed, simulated_ms, bucket).
#[rustfmt::skip]
const PINNED: [(&str, &str, Variant, bool, u64, Bucket); 23] = [
    // `kubectl rollout status --timeout=120s` on ~1,004 unpullable pods.
    ("codellama-13b-instruct", "deployment-004", Variant::Simplified, false, 120_000, Bucket::ProbeFailed),
    ("llama-2-13b-chat", "deployment-007", Variant::Simplified, false, 120_000, Bucket::ProbeFailed),
    ("llama-13b-lora", "deployment-009", Variant::Original, false, 120_000, Bucket::ProbeFailed),
    ("gpt-4", "deployment-010", Variant::Original, false, 120_000, Bucket::ProbeFailed),
    ("llama-13b-lora", "deployment-010", Variant::Original, false, 120_000, Bucket::ProbeFailed),
    ("gpt-3.5", "deployment-012", Variant::Original, false, 120_000, Bucket::ProbeFailed),
    ("llama-7b", "deployment-012", Variant::Original, false, 120_000, Bucket::ProbeFailed),
    ("llama-2-13b-chat", "deployment-013", Variant::Simplified, false, 120_000, Bucket::ProbeFailed),
    ("gpt-3.5", "deployment-013", Variant::Translated, false, 120_000, Bucket::ProbeFailed),
    ("codellama-13b-instruct", "deployment-015", Variant::Original, false, 120_000, Bucket::ProbeFailed),
    ("llama-2-13b-chat", "deployment-017", Variant::Simplified, false, 120_000, Bucket::ProbeFailed),
    ("codellama-13b-instruct", "deployment-018", Variant::Translated, false, 120_000, Bucket::ProbeFailed),
    // `sleep 15` after applying a StatefulSet of ~1,002 unpullable pods.
    ("wizardcoder-34b-v1.0", "others-011", Variant::Simplified, false, 15_000, Bucket::ProbeFailed),
    ("wizardcoder-34b-v1.0", "others-011", Variant::Translated, false, 15_000, Bucket::ProbeFailed),
    ("llama-2-7b-chat", "others-037", Variant::Translated, false, 15_000, Bucket::ProbeFailed),
    ("palm-2-bison", "others-050", Variant::Original, false, 15_000, Bucket::ProbeFailed),
    ("llama-2-13b-chat", "others-063", Variant::Original, false, 15_000, Bucket::ProbeFailed),
    ("llama-2-70b-chat", "others-063", Variant::Original, false, 15_000, Bucket::ProbeFailed),
    ("llama-7b", "others-076", Variant::Simplified, false, 15_000, Bucket::ProbeFailed),
    ("llama-2-13b-chat", "others-089", Variant::Original, false, 15_000, Bucket::ProbeFailed),
    ("llama-13b-lora", "others-102", Variant::Original, false, 15_000, Bucket::ProbeFailed),
    ("llama-2-70b-chat", "others-102", Variant::Translated, false, 15_000, Bucket::ProbeFailed),
    ("llama-7b", "others-115", Variant::Simplified, false, 15_000, Bucket::ProbeFailed),
];

#[test]
fn slow_tail_verdicts_are_pinned() {
    let dataset = Arc::new(Dataset::generate());
    let mut mismatches = Vec::new();
    for (model, problem_id, variant, passed, simulated_ms, bucket) in PINNED {
        let profile = ModelProfile::by_name(model).expect("model profile");
        let model = SimulatedModel::new(profile, Arc::clone(&dataset));
        let problem = dataset
            .problems()
            .iter()
            .find(|p| p.id == problem_id)
            .expect("problem id");
        // The grid's prompt (zero-shot) and generation parameters.
        let prompt = cedataset::fewshot::build_prompt(&problem.prompt_body(variant), 0);
        let candidate = extract_yaml(&model.generate(&prompt, &GenParams::default()));
        assert!(
            ["1002", "1003", "1004", "1005"]
                .iter()
                .any(|n| candidate.contains(&format!("replicas: {n}"))),
            "{problem_id}@{variant:?}: not a slow-tail candidate:\n{candidate}"
        );
        let verdict = execute_uncached(&PreparedDoc::shared(candidate), &problem.unit_test);
        let got = (
            verdict.passed,
            verdict.simulated_ms,
            verdict.diagnosis.map(|d| d.bucket),
        );
        if got != (passed, simulated_ms, Some(bucket)) {
            mismatches.push(format!(
                "{}/{problem_id}@{variant:?}: got {got:?}, pinned {:?}",
                model.name(),
                (passed, simulated_ms, Some(bucket))
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
