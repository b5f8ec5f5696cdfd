//! Ordering-determinism proof for the streaming driver: for arbitrary
//! worker counts, strides, models and variant subsets, `evaluate` must
//! produce **record-for-record identical** output to the barriered seed
//! path `evaluate_barriered` — same `EvalRecord`s, same order, same
//! scores, same classifications.

use std::sync::{Arc, OnceLock};

use cedataset::{Dataset, Variant};
use cloudeval_core::harness::{evaluate, evaluate_barriered, EvalOptions};
use llmsim::{standard_models, SimulatedModel};
use proptest::prelude::*;

fn models() -> &'static (Arc<Dataset>, Vec<SimulatedModel>) {
    static CTX: OnceLock<(Arc<Dataset>, Vec<SimulatedModel>)> = OnceLock::new();
    CTX.get_or_init(|| {
        let dataset = Arc::new(Dataset::generate());
        let models = standard_models(Arc::clone(&dataset));
        (dataset, models)
    })
}

fn variant_subset(mask: usize) -> Vec<Variant> {
    let all = Variant::ALL;
    let picked: Vec<Variant> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, v)| *v)
        .collect();
    if picked.is_empty() {
        vec![Variant::Original]
    } else {
        picked
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The core determinism property: streamed output is bit-identical
    /// to the barriered reference across the scheduling parameter space.
    /// The streamed driver scores parse-once prepared documents and the
    /// barriered one re-parses text, so this also certifies the document
    /// model against the text path.
    #[test]
    fn streamed_evaluate_is_record_identical_to_barriered(
        workers in 1usize..6,
        stride in 18usize..48,
        model_idx in 0usize..12,
        variant_mask in 1usize..8,
    ) {
        let (dataset, models) = models();
        let model = &models[model_idx % models.len()];
        let options = EvalOptions {
            workers,
            stride,
            variants: variant_subset(variant_mask),
            ..EvalOptions::default()
        };
        let streamed = evaluate(model, dataset, &options);
        let barriered = evaluate_barriered(model, dataset, &options);
        prop_assert_eq!(streamed, barriered);
    }
}

/// The same property pinned to the adversarial corners proptest's random
/// draws can miss: a single-worker pool (the degenerate run-to-completion
/// schedule) and worker counts far above the record count.
#[test]
fn determinism_holds_at_scheduling_extremes() {
    let (dataset, models) = models();
    let model = &models[0];
    let reference = evaluate_barriered(
        model,
        dataset,
        &EvalOptions {
            workers: 4,
            stride: 30,
            ..EvalOptions::default()
        },
    );
    for workers in [1, 16, 32] {
        let streamed = evaluate(
            model,
            dataset,
            &EvalOptions {
                workers,
                stride: 30,
                ..EvalOptions::default()
            },
        );
        assert_eq!(streamed, reference, "divergence at workers={workers}");
    }
}
