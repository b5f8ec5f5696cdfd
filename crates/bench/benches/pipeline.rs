//! The `pipeline_engine` bench group: the barriered seed evaluation
//! driver vs the streaming driver on the
//! (model × problem × variant) grid.
//!
//! Both drivers run with run-local memos (no shared cache) so the
//! numbers measure scheduling — phase barriers + serial main-thread
//! scoring vs overlapped generation / extraction / scoring / substrate
//! execution. CI runs this group with `CRITERION_JSON=BENCH_pipeline.json`
//! to record the trajectory.

use std::sync::Arc;

use cedataset::{Dataset, Variant};
use cloudeval_core::harness::{evaluate, evaluate_barriered, EvalOptions};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use llmsim::{ModelProfile, SimulatedModel};

fn grid_models(dataset: &Arc<Dataset>) -> Vec<SimulatedModel> {
    // One model per tier keeps an iteration affordable while exercising
    // the full quality range (pass-heavy and fail-heavy substrate loads).
    ["gpt-4", "gpt-3.5", "llama-2-70b-chat"]
        .into_iter()
        .map(|name| SimulatedModel::new(ModelProfile::by_name(name).unwrap(), Arc::clone(dataset)))
        .collect()
}

/// Streamed vs barriered wall-clock over a sampled grid, in both
/// generation regimes:
///
/// * `grid` — instant generation (pure simulation speed). CPU-bound: the
///   streaming driver wins by parallelizing the phases the seed ran serially,
///   so the margin tracks the machine's core count.
/// * `remote-grid` — the paper's regime: each request really occupies
///   its query worker for a service latency. The streaming driver fills that
///   idle wire time with scoring and substrate execution, so it wins on
///   any machine — including single-core CI runners.
fn bench_pipeline_engine(c: &mut Criterion) {
    let dataset = Arc::new(Dataset::generate());
    let models = grid_models(&dataset);
    let instant = EvalOptions {
        variants: Variant::ALL.to_vec(),
        stride: 6, // 57 problems x 3 variants x 3 models per iteration
        workers: 8,
        ..EvalOptions::default()
    };
    let remote = EvalOptions {
        live_latency_ms: Some(15),
        ..instant.clone()
    };
    let mut group = c.benchmark_group("pipeline_engine");
    group.sample_size(10);
    for (label, options) in [("grid", &instant), ("remote-grid", &remote)] {
        group.bench_with_input(
            BenchmarkId::new("barriered", label),
            options,
            |b, options| {
                b.iter(|| {
                    for model in &models {
                        black_box(evaluate_barriered(model, &dataset, options));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("streamed", label),
            options,
            |b, options| {
                b.iter(|| {
                    for model in &models {
                        black_box(evaluate(model, &dataset, options));
                    }
                })
            },
        );
    }
    group.finish();
}

/// Worker-scaling of the streamed driver alone: it should
/// keep winning as the pool grows instead of serializing on a phase.
fn bench_streamed_scaling(c: &mut Criterion) {
    let dataset = Arc::new(Dataset::generate());
    let model = SimulatedModel::new(
        ModelProfile::by_name("gpt-3.5").unwrap(),
        Arc::clone(&dataset),
    );
    let mut group = c.benchmark_group("pipeline_workers");
    group.sample_size(10);
    for workers in [2usize, 8] {
        let options = EvalOptions {
            variants: vec![Variant::Original],
            stride: 4,
            workers,
            ..EvalOptions::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &options,
            |b, options| b.iter(|| black_box(evaluate(&model, &dataset, options))),
        );
    }
    group.finish();
}

criterion_group!(
    pipeline_benches,
    bench_pipeline_engine,
    bench_streamed_scaling
);
criterion_main!(pipeline_benches);
