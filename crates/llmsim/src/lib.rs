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

use yamlkit::PreparedDoc;

/// Classifies an extracted answer into Figure 7's six categories, given
/// the unit-test verdict. This is the analysis-side mirror of the
/// generation-side [`AnswerCategory`].
///
/// The text form parses both YAML texts itself; it is the oracle
/// [`classify_prepared`] must agree with.
pub fn classify_answer(
    extracted_yaml: &str,
    reference: &str,
    passed_unit_test: bool,
) -> AnswerCategory {
    classify(extracted_yaml, reference, passed_unit_test, || {
        let first_kind = |docs: &[yamlkit::Node]| {
            docs.first()
                .map(|n| n.to_value())
                .and_then(|v| v.get("kind").map(yamlkit::Yaml::render_scalar))
        };
        let docs = yamlkit::parse(extracted_yaml).ok()?;
        if docs.is_empty() {
            return None;
        }
        let want = yamlkit::parse(reference).ok().and_then(|d| first_kind(&d));
        Some((want, first_kind(&docs)))
    })
}

/// [`classify_answer`] over parse-once documents: the candidate's parse
/// state and first document's `kind` come from `candidate`'s own parse,
/// and the reference's `kind` from `reference` (the label-stripped
/// reference, e.g. `cescore::PreparedRef::clean_doc`), so neither text is
/// parsed again. Returns the same class as [`classify_answer`] over the
/// two texts.
pub fn classify_prepared(
    candidate: &PreparedDoc,
    reference: &PreparedDoc,
    passed_unit_test: bool,
) -> AnswerCategory {
    classify(candidate.text(), reference.text(), passed_unit_test, || {
        if candidate.doc_count() == 0 {
            return None;
        }
        let kind = |doc: &PreparedDoc| doc.first_doc_field("kind").map(|v| v.render_scalar());
        Some((kind(reference), kind(candidate)))
    })
}

/// [`classify_answer`] of a candidate against a dataset problem, given the
/// candidate's parse: the reference's text and `kind` are the problem's
/// stored artefacts, so neither text is parsed here.
fn classify_parsed(
    extracted_yaml: &str,
    parsed: Option<&[yamlkit::Node]>,
    problem: &cedataset::Problem,
    passed_unit_test: bool,
) -> AnswerCategory {
    classify(
        extracted_yaml,
        problem.clean_reference(),
        passed_unit_test,
        || {
            let first = parsed.and_then(<[yamlkit::Node]>::first)?;
            let kind = first
                .to_value()
                .get("kind")
                .map(yamlkit::Yaml::render_scalar);
            Some((reference_kind(problem), kind))
        },
    )
}

/// The `kind` of a problem's first reference document.
fn reference_kind(problem: &cedataset::Problem) -> Option<String> {
    let first = problem.reference_tree().first()?;
    first.get("kind").map(yamlkit::Yaml::render_scalar)
}

/// The Figure 7 decision list over the two texts. `kinds` runs only once
/// the text checks pass: `None` when the candidate does not parse to at
/// least one document, else the first-document `kind`s of the reference
/// and the candidate.
fn classify(
    extracted_yaml: &str,
    reference: &str,
    passed_unit_test: bool,
    kinds: impl FnOnce() -> Option<(Option<String>, Option<String>)>,
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
    let Some((ref_kind, got_kind)) = kinds() else {
        return AnswerCategory::IncompleteYaml;
    };
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
    fn prepared_classifier_matches_the_text_classifier() {
        let envoy_ref = "static_resources:\n  listeners: []\n";
        let cases = [
            ("", REF),
            ("one\ntwo", REF),
            ("line\nline\nline\nprose without the field", REF),
            ("kind: Pod\nbroken: [\nmore\n", REF),
            ("apiVersion: v1\nkind: Service\nmetadata:\n  name: y\n", REF),
            ("apiVersion: v1\nkind: Pod\nmetadata:\n  name: other\n", REF),
            ("apiVersion: v1\nmetadata:\n  name: y\nkinds: 1\n", REF),
            ("# kind: Pod\n# a\n# b\n", REF),
            ("- kind: Pod\n- b\n- c\n", REF),
            ("kind: [Pod]\na: 1\nb: 2\n", REF),
            ("kind: Pod\n---\nkind: Service\nx: 1\n", REF),
            ("a\nb\nc\nd: 1\ne: 2\n", envoy_ref),
            (
                "static_resources:\n  listeners: []\n  clusters: []\n",
                envoy_ref,
            ),
            (REF, "not: [yaml\nkind: Pod\n"),
        ];
        for (candidate, reference) in cases {
            for passed in [false, true] {
                assert_eq!(
                    classify_prepared(
                        &PreparedDoc::new(candidate),
                        &PreparedDoc::new(reference),
                        passed
                    ),
                    classify_answer(candidate, reference, passed),
                    "{candidate:?} against {reference:?}"
                );
            }
        }
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
