//! Every generation records one observation to its model's
//! `llm_generation_us` series, through a handle the model resolved when it
//! was built. Kept alone in its binary so no other test generates
//! concurrently.

use std::sync::Arc;

use cedataset::{Dataset, Variant};
use llmsim::{GenParams, LanguageModel, ModelProfile, SimulatedModel};

const LABELS: &[(&str, &str)] = &[("model", "gpt-4")];

fn observations() -> u64 {
    obs::global()
        .histogram_snapshot("llm_generation_us", LABELS)
        .map_or(0, |h| h.count)
}

#[test]
fn n_generations_add_n_observations_to_one_series() {
    let dataset = Arc::new(Dataset::generate());
    let model = SimulatedModel::new(
        ModelProfile::by_name("gpt-4").expect("gpt-4 profile"),
        Arc::clone(&dataset),
    );
    let before = observations();
    let n = 25;
    for (i, problem) in dataset.problems().iter().take(n).enumerate() {
        let prompt = cedataset::fewshot::build_prompt(&problem.prompt_body(Variant::ALL[i % 3]), 0);
        model.generate(&prompt, &GenParams::default());
    }
    assert_eq!(observations(), before + n as u64);
    let labels = vec![("model".to_owned(), "gpt-4".to_owned())];
    let series = obs::global()
        .snapshot()
        .into_iter()
        .filter(|m| m.name == "llm_generation_us" && m.labels == labels)
        .count();
    assert_eq!(series, 1);
}
