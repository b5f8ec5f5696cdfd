//! The prepared answer classifier against the text classifier on the
//! candidates the paper's grid produces: every 3rd problem, in all three
//! variants, for all 12 models, each candidate extracted and parsed once
//! and classified against its `RefCache`d reference.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use cedataset::{Category, Dataset, Variant};
use cescore::{PreparedDoc, RefCache};
use llmsim::{
    classify_answer, classify_prepared, extract_yaml, standard_models, AnswerCategory, GenParams,
    LanguageModel,
};

#[test]
fn prepared_classifier_matches_text_on_every_distinct_grid_candidate() {
    let dataset = Arc::new(Dataset::generate());
    let models = standard_models(Arc::clone(&dataset));
    let refs = RefCache::new();
    let params = GenParams::default();
    let mut seen = HashSet::new();
    let mut classes = BTreeSet::new();
    let mut envoy_failures = 0usize;
    for model in &models {
        for variant in Variant::ALL {
            for problem in dataset.problems().iter().step_by(3) {
                let prompt = cedataset::fewshot::build_prompt(&problem.prompt_body(variant), 0);
                let yaml = extract_yaml(&model.generate(&prompt, &params));
                if !seen.insert((problem.id.clone(), yaml.clone())) {
                    continue;
                }
                let reference = refs.prepare(&problem.labeled_reference);
                let doc = PreparedDoc::new(yaml);
                // Unit-test verdicts only decide `Correct`; classify every
                // candidate as failing to walk the whole decision list.
                let got = classify_prepared(&doc, reference.clean_doc(), false);
                let want = classify_answer(doc.text(), reference.clean_text(), false);
                assert_eq!(
                    got,
                    want,
                    "{} {}: {:?}",
                    model.name(),
                    problem.id,
                    doc.text()
                );
                classes.insert(format!("{got:?}"));
                if problem.category == Category::Envoy && got != AnswerCategory::FailsTest {
                    envoy_failures += 1;
                }
            }
        }
    }
    // The sample reaches every failure class: empty, unparseable,
    // kind-less and wrong-kind answers, plus envoy answers judged by
    // `static_resources`.
    for class in [
        AnswerCategory::EmptyOrTiny,
        AnswerCategory::IncompleteYaml,
        AnswerCategory::NoKind,
        AnswerCategory::WrongKind,
        AnswerCategory::FailsTest,
    ] {
        assert!(
            classes.contains(&format!("{class:?}")),
            "{class:?} never seen"
        );
    }
    assert!(envoy_failures > 0, "no envoy answer left the default class");
    eprintln!("{} distinct candidates, classes {classes:?}", seen.len());
}
