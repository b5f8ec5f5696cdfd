//! # llmsim
//!
//! Simulated LLMs for the CloudEval-YAML benchmark, plus the §3.1 YAML
//! generation pipeline around them: the universal query interface with
//! parallel dispatch, and response post-processing.
//!
//! ## The substitution
//!
//! The paper evaluates 12 real models (GPT-4 … CodeLlama). Offline, each
//! becomes a [`SimulatedModel`]: a pure `prompt -> text` function whose
//! behaviour is calibrated against the paper's published numbers —
//! per-variant unit-test pass counts (Table 5), few-shot deltas (Table 6),
//! failure-mode mixtures (Figure 7) — with pass probability following a
//! logistic skill/difficulty model (answer length, category, code context;
//! Figure 6). Responses are real text with real noise: prose wrappers,
//! markdown fences, truncated YAML, wrong kinds — so the extraction,
//! scoring and unit-test layers all do genuine work.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use cedataset::{Dataset, Variant};
//! use llmsim::{extract_yaml, GenParams, LanguageModel, ModelProfile, SimulatedModel};
//!
//! let dataset = Arc::new(Dataset::generate());
//! let gpt4 = SimulatedModel::new(ModelProfile::by_name("gpt-4").unwrap(), Arc::clone(&dataset));
//!
//! let problem = &dataset.problems()[0];
//! let prompt = cedataset::fewshot::build_prompt(&problem.prompt_body(Variant::Original), 0);
//! let raw = gpt4.generate(&prompt, &GenParams::default());
//! let yaml = extract_yaml(&raw);
//! let scores = cescore::score_pair(&problem.labeled_reference, &yaml);
//! assert!(scores.bleu >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anchor;
#[cfg(test)]
mod anchor_oracle;
pub mod corrupt;
pub mod difficulty;
mod model;
mod postprocess;
pub mod profiles;
pub mod query;
pub mod repair;

pub use corrupt::AnswerCategory;
pub use model::{standard_models, GenParams, LanguageModel, SimulatedModel};
pub use postprocess::extract_yaml;
pub use profiles::{all_models, ModelProfile, Tier};
pub use query::{
    auto_batch_size, query_batch, query_stream, BatchReport, QueryConfig, StreamReport,
};
pub use repair::{
    parse_repair_prompt, repair_prompt, repair_query, synthesize_feedback, FeedbackMode,
};

/// Classifies an extracted answer into Figure 7's six categories, given
/// the unit-test verdict. This is the analysis-side mirror of the
/// generation-side [`AnswerCategory`].
pub fn classify_answer(
    extracted_yaml: &str,
    reference: &str,
    passed_unit_test: bool,
) -> AnswerCategory {
    if passed_unit_test {
        return AnswerCategory::Correct;
    }
    let line_count = extracted_yaml.trim().lines().count();
    if extracted_yaml.trim().is_empty() || line_count < 3 {
        return AnswerCategory::EmptyOrTiny;
    }
    // Envoy configurations have no `kind`; the paper searches for
    // `static_resources` instead (§4.1 footnote 2).
    let key_field = if reference.contains("static_resources") {
        "static_resources"
    } else {
        "kind"
    };
    if !extracted_yaml.contains(key_field) {
        return AnswerCategory::NoKind;
    }
    let Ok(docs) = yamlkit::parse(extracted_yaml) else {
        return AnswerCategory::IncompleteYaml;
    };
    if docs.is_empty() {
        return AnswerCategory::IncompleteYaml;
    }
    let ref_kind = yamlkit::parse(reference)
        .ok()
        .and_then(|d| d.first().map(|n| n.to_value()))
        .and_then(|v| v.get("kind").map(yamlkit::Yaml::render_scalar));
    let got_kind = docs
        .first()
        .map(|n| n.to_value())
        .and_then(|v| v.get("kind").map(yamlkit::Yaml::render_scalar));
    match (ref_kind, got_kind) {
        (Some(want), Some(got)) if want != got => AnswerCategory::WrongKind,
        (Some(_), None) => AnswerCategory::NoKind,
        _ => AnswerCategory::FailsTest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REF: &str = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: x\n";

    #[test]
    fn classify_matches_figure_7_definitions() {
        assert_eq!(classify_answer("", REF, false), AnswerCategory::EmptyOrTiny);
        assert_eq!(
            classify_answer("one\ntwo", REF, false),
            AnswerCategory::EmptyOrTiny
        );
        assert_eq!(
            classify_answer("line\nline\nline\nprose without the field", REF, false),
            AnswerCategory::NoKind
        );
        assert_eq!(
            classify_answer("kind: Pod\nbroken: [\nmore\n", REF, false),
            AnswerCategory::IncompleteYaml
        );
        assert_eq!(
            classify_answer(
                "apiVersion: v1\nkind: Service\nmetadata:\n  name: y\n",
                REF,
                false
            ),
            AnswerCategory::WrongKind
        );
        assert_eq!(
            classify_answer(
                "apiVersion: v1\nkind: Pod\nmetadata:\n  name: other\n",
                REF,
                false
            ),
            AnswerCategory::FailsTest
        );
        assert_eq!(classify_answer(REF, REF, true), AnswerCategory::Correct);
    }

    #[test]
    fn envoy_uses_static_resources_field() {
        let envoy_ref = "static_resources:\n  listeners: []\n";
        assert_eq!(
            classify_answer("a\nb\nc\nd: 1\ne: 2\n", envoy_ref, false),
            AnswerCategory::NoKind
        );
        assert_eq!(
            classify_answer(
                "static_resources:\n  listeners: []\n  clusters: []\n",
                envoy_ref,
                false
            ),
            AnswerCategory::FailsTest
        );
    }
}
