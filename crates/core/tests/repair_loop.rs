//! The fail–learn–refine repair loop, end to end: the streamed loop-back
//! driver against the round-barriered reference, and the feedback
//! ablation — taxonomy feedback is what closes the loop, bare retry is
//! not.

use std::sync::Arc;

use cedataset::Dataset;
use cloudeval_core::harness::{evaluate_repair, evaluate_repair_barriered, EvalOptions};
use llmsim::{FeedbackMode, ModelProfile, SimulatedModel};

fn model(name: &str, dataset: &Arc<Dataset>) -> SimulatedModel {
    SimulatedModel::new(ModelProfile::by_name(name).unwrap(), Arc::clone(dataset))
}

fn options(stride: usize, workers: usize) -> EvalOptions {
    EvalOptions {
        stride,
        workers,
        ..EvalOptions::default()
    }
}

#[test]
fn streamed_and_barriered_repair_reports_are_identical() {
    let dataset = Arc::new(Dataset::generate());
    let gpt4 = model("gpt-4", &dataset);
    let reference = evaluate_repair_barriered(
        &gpt4,
        &dataset,
        &options(17, 4),
        2,
        FeedbackMode::BucketOnly,
    );
    assert!(reference.total() > 0);
    // Any worker count must reproduce the reference byte for byte — the
    // repair chain is seeded by attempt content, so the schedule cannot
    // leak into the traces.
    for workers in [1, 4, 16] {
        let streamed = evaluate_repair(
            &gpt4,
            &dataset,
            &options(17, workers),
            2,
            FeedbackMode::BucketOnly,
        );
        assert_eq!(streamed, reference, "workers={workers}");
    }
}

#[test]
fn bucket_feedback_repairs_but_bare_retry_does_not() {
    let dataset = Arc::new(Dataset::generate());
    let gpt4 = model("gpt-4", &dataset);
    let opts = options(7, 8);
    let rounds = 2;
    let bucketed = evaluate_repair(&gpt4, &dataset, &opts, rounds, FeedbackMode::BucketOnly);
    let blind = evaluate_repair(&gpt4, &dataset, &opts, rounds, FeedbackMode::None);
    let full = evaluate_repair(&gpt4, &dataset, &opts, rounds, FeedbackMode::Full);

    // Identical first attempts: the ablation only changes what the repair
    // prompts reveal.
    assert_eq!(bucketed.pass_at_round(0), blind.pass_at_round(0));
    assert_eq!(bucketed.pass_at_round(0), full.pass_at_round(0));
    eprintln!(
        "total={} round0={} bucketed@2={} blind@2={} full@2={}",
        bucketed.total(),
        bucketed.pass_at_round(0),
        bucketed.pass_at_round(rounds),
        blind.pass_at_round(rounds),
        full.pass_at_round(rounds),
    );
    eprintln!("round-0 buckets: {:?}", bucketed.bucket_counts(0));
    eprintln!("round-2 buckets: {:?}", bucketed.bucket_counts(rounds));

    // Named-bucket feedback converts failures into passes...
    assert!(bucketed.pass_at_round(rounds) > bucketed.pass_at_round(0));
    // ...and beats retry-without-learning, which barely moves.
    assert!(bucketed.pass_at_round(rounds) > blind.pass_at_round(rounds));
    // Full diagnostics repair at least as well as the bucket alone.
    assert!(full.pass_at_round(rounds) >= bucketed.pass_at_round(rounds));
    // pass@repair-round-r is cumulative and bounded.
    for r in 1..=rounds {
        assert!(bucketed.pass_at_round(r) >= bucketed.pass_at_round(r - 1));
    }
    assert!(bucketed.pass_at_round(rounds) <= bucketed.total());
}

#[test]
fn every_failure_bucket_sees_repairs_under_bucket_feedback() {
    let dataset = Arc::new(Dataset::generate());
    // A mid-tier model fails often enough to populate several buckets.
    let llama = model("llama-2-70b-chat", &dataset);
    let opts = options(3, 8);
    let rounds = 3;
    let bucketed = evaluate_repair(&llama, &dataset, &opts, rounds, FeedbackMode::BucketOnly);
    let blind = evaluate_repair(&llama, &dataset, &opts, rounds, FeedbackMode::None);
    eprintln!(
        "llama total={} round0={} bucketed@{rounds}={} blind@{rounds}={}",
        bucketed.total(),
        bucketed.pass_at_round(0),
        bucketed.pass_at_round(rounds),
        blind.pass_at_round(rounds),
    );
    eprintln!("llama round-0 buckets: {:?}", bucketed.bucket_counts(0));

    // For every taxonomy bucket seen at round 0, at least one trace that
    // failed with that bucket is repaired within the round budget when
    // the feedback names the bucket.
    for (bucket, count) in bucketed.bucket_counts(0) {
        let repaired = bucketed
            .traces
            .iter()
            .filter(|t| {
                t.attempts
                    .first()
                    .is_some_and(|a| !a.passed && a.bucket.as_deref() == Some(bucket))
                    && t.passed_by(rounds)
            })
            .count();
        eprintln!("  {bucket}: {count} at round 0, {repaired} repaired");
        assert!(
            repaired > 0,
            "bucket {bucket} ({count} failures) saw no repairs in {rounds} rounds"
        );
    }
    // Bare retry repairs strictly less overall.
    assert!(bucketed.pass_at_round(rounds) > blind.pass_at_round(rounds));
}
