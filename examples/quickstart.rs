//! Quickstart: evaluate one model on one problem, end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the full CloudEval-YAML pipeline on a single problem: build the
//! prompt, query the model, post-process the response, compute all six
//! metrics, and run the unit test against the simulated cluster.

use std::sync::Arc;

use cloudeval::dataset::{Dataset, Variant};
use cloudeval::llm::{extract_yaml, GenParams, LanguageModel, ModelProfile, SimulatedModel};

fn main() {
    // 1. The dataset: 337 problems, deterministic generation.
    let dataset = Arc::new(Dataset::generate());
    let problem = dataset.get("pod-000").expect("problem exists");
    println!(
        "== Problem {} ({:?}) ==\n{}\n",
        problem.id,
        problem.category,
        problem.description_for(Variant::Original)
    );

    // 2. Prompt assembly (Appendix B template, zero-shot).
    let prompt =
        cloudeval::dataset::fewshot::build_prompt(&problem.prompt_body(Variant::Original), 0);

    // 3. Query a model. GPT-4 here is a calibrated simulation.
    let model = SimulatedModel::new(
        ModelProfile::by_name("gpt-4").expect("known model"),
        Arc::clone(&dataset),
    );
    let raw = model.generate(&prompt, &GenParams::default());
    println!("== Raw model response ==\n{raw}\n");

    // 4. Post-processing (§3.1): extract clean YAML.
    let yaml = extract_yaml(&raw);
    println!("== Extracted YAML ==\n{yaml}");

    // 5. Text-level + YAML-aware scores (§3.2).
    let scores = cloudeval::score::score_pair(&problem.labeled_reference, &yaml);
    println!("== Static scores ==");
    println!("  BLEU          {:.3}", scores.bleu);
    println!("  Edit distance {:.3}", scores.edit_distance);
    println!("  Exact match   {:.3}", scores.exact_match);
    println!("  KV exact      {:.3}", scores.kv_exact);
    println!("  KV wildcard   {:.3}", scores.kv_wildcard);

    // 6. Function-level score: run the unit test in a fresh simulated
    //    cluster (minikube stand-in).
    let outcome =
        cloudeval::shell::run_unit_test(&problem.unit_test, &yaml).expect("script interprets");
    let passed = outcome.combined.contains("unit_test_passed");
    println!("\n== Unit test ==\n{}", outcome.combined.trim_end());
    println!("\nunit test {}", if passed { "PASSED" } else { "FAILED" });
}
