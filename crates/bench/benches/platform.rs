//! Platform benchmarks: parallel unit-test execution (the real-speedup
//! counterpart of Figure 5), the discrete-event cluster simulation, the
//! query module, and the unit-test predictor.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn executor_jobs(n: usize) -> Vec<evalcluster::UnitTestJob> {
    let ds = cedataset::Dataset::generate();
    ds.problems()
        .iter()
        .cycle()
        .take(n)
        .map(|p| {
            evalcluster::UnitTestJob::prepared(
                p.id.clone(),
                p.unit_test.clone(),
                yamlkit::PreparedDoc::shared(p.clean_reference()),
            )
        })
        .collect()
}

/// Real parallel speedup of the executor: the in-process analogue of the
/// paper's 13x from parallel unit testing.
fn bench_executor_scaling(c: &mut Criterion) {
    let jobs = executor_jobs(48);
    let mut group = c.benchmark_group("executor_workers");
    group.sample_size(10);
    for workers in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| evalcluster::run_jobs(black_box(&jobs), w))
        });
    }
    group.finish();
}

fn bench_des(c: &mut Criterion) {
    let jobs = evalcluster::dataset_workload(evalcluster::des::DEFAULT_OVERHEAD_S);
    c.bench_function("des_simulate_64_workers_1011_jobs", |b| {
        b.iter(|| {
            evalcluster::simulate(
                black_box(&jobs),
                &evalcluster::SimConfig {
                    workers: 64,
                    ..Default::default()
                },
            )
        })
    });
    c.bench_function("des_figure5_full_sweep", |b| {
        b.iter(|| evalcluster::figure5(black_box(evalcluster::des::DEFAULT_OVERHEAD_S)))
    });
}

fn bench_query_module(c: &mut Criterion) {
    let dataset = std::sync::Arc::new(cedataset::Dataset::generate());
    let model = llmsim::SimulatedModel::new(
        llmsim::ModelProfile::by_name("gpt-4").unwrap(),
        std::sync::Arc::clone(&dataset),
    );
    let prompts: Vec<String> = dataset
        .problems()
        .iter()
        .take(64)
        .map(|p| cedataset::fewshot::build_prompt(&p.prompt_body(cedataset::Variant::Original), 0))
        .collect();
    let mut group = c.benchmark_group("query_batch");
    group.sample_size(10);
    for parallelism in [1usize, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(parallelism),
            &parallelism,
            |b, &p| {
                let config = llmsim::QueryConfig {
                    parallelism: p,
                    ..Default::default()
                };
                b.iter(|| {
                    llmsim::query_batch(
                        black_box(&model),
                        black_box(&prompts),
                        &llmsim::GenParams::default(),
                        &config,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_predictor(c: &mut Criterion) {
    // Synthetic score-shaped features: 5 metrics -> pass/fail.
    let n = 2000;
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    let mut state = 0xdeadbeefu64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 1000.0
    };
    for _ in 0..n {
        let row = vec![rng(), rng(), rng(), rng(), rng()];
        let pass = f64::from(row[4] * 0.8 + row[0] * 0.2 > 0.55);
        xs.push(row);
        ys.push(pass);
    }
    c.bench_function("gbdt_fit_2000x5", |b| {
        b.iter(|| {
            gboost::Classifier::fit(
                black_box(&xs),
                black_box(&ys),
                &gboost::BoostParams::default(),
            )
        })
    });
    let clf = gboost::Classifier::fit(&xs, &ys, &gboost::BoostParams::default());
    c.bench_function("shap_values_single", |b| {
        b.iter(|| gboost::shap_values(black_box(&clf), black_box(&xs[0])))
    });
}

fn bench_postprocess(c: &mut Criterion) {
    let wrapped = "Sure! Here is the YAML you requested:\n```yaml\napiVersion: v1\nkind: Pod\nmetadata:\n  name: x\nspec:\n  containers:\n  - name: c\n    image: nginx\n```\nLet me know if you need more help.";
    c.bench_function("extract_yaml_from_wrapped_response", |b| {
        b.iter(|| llmsim::extract_yaml(black_box(wrapped)))
    });
}

criterion_group!(
    benches,
    bench_executor_scaling,
    bench_des,
    bench_query_module,
    bench_predictor,
    bench_postprocess
);
criterion_main!(benches);
