//! The judge engine's per-stage latency series. This suite runs alone in
//! its own test binary, so the process-wide obs registry counts exactly
//! the records of the one run below.

use std::sync::Arc;

use cedataset::Dataset;
use cloudeval_core::harness::{evaluate, EvalOptions};
use llmsim::{ModelProfile, SimulatedModel};

#[test]
fn stage_latency_series_record_every_record() {
    let dataset = Arc::new(Dataset::generate());
    let model = SimulatedModel::new(
        ModelProfile::by_name("gpt-3.5").unwrap(),
        Arc::clone(&dataset),
    );
    let records = evaluate(
        &model,
        &dataset,
        &EvalOptions {
            stride: 20,
            workers: 4,
            ..EvalOptions::default()
        },
    );
    assert!(!records.is_empty());
    let count = |name: &str, stage: &str| {
        obs::global()
            .histogram_snapshot(name, &[("stage", stage)])
            .unwrap_or_else(|| panic!("{name}{{stage={stage}}} registered"))
            .count
    };
    for stage in ["extract", "score"] {
        assert_eq!(
            count("stage_service_us", stage),
            records.len() as u64,
            "{stage}"
        );
        assert_eq!(
            count("stage_queue_wait_us", stage),
            records.len() as u64,
            "{stage}"
        );
    }
}
