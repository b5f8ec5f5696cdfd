//! The offline workloads: `grid` (the paper's Table 4 run) and `repair`
//! (the fail-learn-refine loop), both through `cloudeval_core::harness`.
//!
//! The untraced run times the product drivers (`evaluate`,
//! `evaluate_repair`) and checks every call's output digest against the
//! barriered reference drivers. The traced run drives the same inputs
//! through the public layer calls, in the order the pipeline makes
//! them, on the same number of threads, and checks that this replica
//! produces the same records.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cedataset::{Application, Dataset, Problem, Variant};
use cescore::{score_pair_prepared, PreparedDoc, RefCache, Scores};
use cloudeval_core::harness::{
    evaluate, evaluate_barriered, evaluate_repair, evaluate_repair_barriered, EvalOptions,
    EvalRecord, RepairAttempt, RepairReport, RepairTrace,
};
use evalcluster::memo::{CachedVerdict, ScoreMemo};
use llmsim::{extract_yaml, FeedbackMode, GenParams, LanguageModel, ModelProfile, SimulatedModel};

use crate::report::{self, Outcome};
use crate::stats::{self, Rng};
use crate::trace::{self, Local, Tracer};

/// Every `GRID_STRIDE`-th problem, in all three variants, for all 12
/// models: 468 records a pass. A few LLM-corrupted manifests
/// (`replicas: 1003`) make one unit test take seconds, so a small sample
/// weighs them by luck. This stride's records/s came closest to the full
/// 12,132-record grid's (318 against 284 with `repro grid`); every 32nd
/// problem ran at 75, one unit test taking most of each pass.
pub const GRID_STRIDE: usize = 28;
/// Every `REPAIR_STRIDE`-th problem, original variant, for the repair models.
pub const REPAIR_STRIDE: usize = 4;
/// Repair models spanning the pass-rate range.
pub const REPAIR_MODELS: [&str; 3] = ["gpt-4", "llama-2-70b-chat", "codellama-7b-instruct"];
/// Repair rounds after the first attempt.
pub const REPAIR_ROUNDS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed passes per untraced run.
const MIN_PASSES: u32 = 3;
/// Seed stream that orders the models.
const STREAM_ORDER: u64 = 1;

/// Which offline workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 12 models × 3 variants through `evaluate`.
    Grid,
    /// 3 models, original variant, through `evaluate_repair`.
    Repair,
}

/// The generated inputs: the dataset and the calibrated models, in the
/// seed's order. The order decides which model pays for a candidate
/// that several models produce (the pass memo answers the later ones).
struct Inputs {
    dataset: Arc<Dataset>,
    models: Vec<SimulatedModel>,
}

fn setup(kind: Kind, seed: u64) -> Inputs {
    let dataset = Arc::new(Dataset::generate());
    let mut models = match kind {
        Kind::Grid => llmsim::standard_models(Arc::clone(&dataset)),
        Kind::Repair => REPAIR_MODELS
            .iter()
            .map(|name| {
                let profile = ModelProfile::by_name(name).expect("repair model profile");
                SimulatedModel::new(profile, Arc::clone(&dataset))
            })
            .collect(),
    };
    Rng::new(seed, STREAM_ORDER).shuffle(&mut models);
    Inputs { dataset, models }
}

/// Evaluation options of one pass: a fresh memo and reference cache per
/// pass, shared by every model in it (like `repro grid`).
fn options(kind: Kind, workers: usize) -> EvalOptions {
    let (variants, stride) = match kind {
        Kind::Grid => (Variant::ALL.to_vec(), GRID_STRIDE),
        Kind::Repair => (vec![Variant::Original], REPAIR_STRIDE),
    };
    EvalOptions {
        variants,
        workers,
        stride,
        memo: Some(Arc::new(ScoreMemo::new())),
        refs: Some(Arc::new(RefCache::new())),
        ..EvalOptions::default()
    }
}

/// One model call's output: digest, records (or traces), attempts.
struct CallOutput {
    digest: u64,
    records: usize,
    attempts: usize,
}

fn grid_output(records: &[EvalRecord]) -> CallOutput {
    CallOutput {
        digest: stats::digest(&format!("{records:?}")),
        records: records.len(),
        attempts: records.len(),
    }
}

fn repair_output(report: &RepairReport) -> CallOutput {
    CallOutput {
        digest: stats::digest(&format!("{report:?}")),
        records: report.total(),
        attempts: report.traces.iter().map(|t| t.attempts.len()).sum(),
    }
}

/// The product driver for one model.
fn run_model(
    kind: Kind,
    model: &SimulatedModel,
    dataset: &Dataset,
    opts: &EvalOptions,
) -> CallOutput {
    match kind {
        Kind::Grid => grid_output(&evaluate(model, dataset, opts)),
        Kind::Repair => repair_output(&evaluate_repair(
            model,
            dataset,
            opts,
            REPAIR_ROUNDS,
            FeedbackMode::BucketOnly,
        )),
    }
}

/// Reference digests from the barriered drivers, one per model (untimed).
fn reference_digests(kind: Kind, inputs: &Inputs, workers: usize) -> Vec<u64> {
    let opts = options(kind, workers);
    inputs
        .models
        .iter()
        .map(|model| match kind {
            Kind::Grid => grid_output(&evaluate_barriered(model, &inputs.dataset, &opts)).digest,
            Kind::Repair => {
                repair_output(&evaluate_repair_barriered(
                    model,
                    &inputs.dataset,
                    &opts,
                    REPAIR_ROUNDS,
                    FeedbackMode::BucketOnly,
                ))
                .digest
            }
        })
        .collect()
}

/// The untraced run: `SETUPS` set-ups, then timed passes for `seconds`.
pub fn run(kind: Kind, seed: u64, seconds: u64, workers: usize) -> Outcome {
    let mut setup_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let built = setup(kind, seed);
        setup_s.push(started.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let want = reference_digests(kind, &inputs, workers);

    let mut out = Outcome::default();
    // Per model: its call durations, and the records and attempts one
    // call yields (the same in every pass).
    let mut call_s: Vec<Vec<f64>> = vec![Vec::new(); inputs.models.len()];
    let mut yields = vec![(0usize, 0usize); inputs.models.len()];
    let mut latencies_ms = Vec::new();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut passes = 0u32;
    let mut rss_mb = Vec::new();
    loop {
        let opts = options(kind, workers);
        report::reset_peak_rss();
        for (m, (model, want)) in inputs.models.iter().zip(&want).enumerate() {
            let call_started = Instant::now();
            let got = run_model(kind, model, &inputs.dataset, &opts);
            let secs = call_started.elapsed().as_secs_f64();
            let ok = got.digest == *want;
            if !ok {
                out.failed += got.records as u64;
            }
            // A record is delivered when its call returns; a wrong one
            // misses any latency limit.
            let latency = if ok { secs * 1e3 } else { f64::INFINITY };
            latencies_ms.extend(std::iter::repeat_n(latency, got.records));
            out.attempted += got.records as u64;
            call_s[m].push(secs);
            yields[m] = (got.records, got.attempts);
        }
        passes += 1;
        rss_mb.push(report::peak_rss_mb());
        let mean_pass = started.elapsed() / passes;
        if passes >= MIN_PASSES && started.elapsed() + mean_pass > budget {
            break;
        }
    }
    // A typical pass: every model's call at its median duration, so a
    // burst of machine noise in one pass does not move the rate.
    let pass_s: f64 = call_s.iter().map(|c| stats::median(c)).sum();
    let records: usize = yields.iter().map(|y| y.0).sum();
    let attempts: usize = yields.iter().map(|y| y.1).sum();

    let (unit_name, attempt_name) = match kind {
        Kind::Grid => ("records", "generation requests"),
        Kind::Repair => ("repair traces", "repair attempts"),
    };
    out.lines.push(format!(
        "{passes} passes over {} models; {} {unit_name} judged, {} wrong",
        inputs.models.len(),
        out.attempted,
        out.failed
    ));
    out.lines.push(format!(
        "median pass: {records} {unit_name}, {attempts} {attempt_name} in {pass_s:.3} s (throughput_rps counts {attempt_name})"
    ));
    out.metric("setup_s", stats::median(&setup_s), "s");
    out.metric("peak_rss_mb", stats::median(&rss_mb), "MB");
    out.metric("records_per_s", records as f64 / pass_s, "1/s");
    out.metric("throughput_rps", attempts as f64 / pass_s, "1/s");
    report::latency_metrics(&mut out, &latencies_ms);
    out
}

/// Substrate layers, one per application.
pub const SUBSTRATES: [&str; 3] = ["substrate.kubernetes", "substrate.envoy", "substrate.istio"];
/// Their pass-ratio metrics, same order.
pub const PASS_RATIOS: [&str; 3] = [
    "substrate.kubernetes.pass_ratio",
    "substrate.envoy.pass_ratio",
    "substrate.istio.pass_ratio",
];

/// Index into [`SUBSTRATES`] of the substrate that runs a problem.
pub fn application_index(problem: &Problem) -> usize {
    match problem.category.application() {
        Application::Kubernetes => 0,
        Application::Envoy => 1,
        Application::Istio => 2,
    }
}

/// State shared by a replica pass: the pass memo and reference cache,
/// and substrate pass counters.
struct Shared {
    memo: ScoreMemo,
    refs: RefCache,
    passes: [AtomicUsize; 3],
    next_rid: AtomicUsize,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            memo: ScoreMemo::new(),
            refs: RefCache::new(),
            passes: Default::default(),
            next_rid: AtomicUsize::new(1),
        }
    }
}

/// What one attempt's layer calls produce.
struct Attempt {
    extracted: String,
    clean_reference: String,
    scores: Scores,
    verdict: CachedVerdict,
}

/// Generation → extraction → parse → reference → score → memo →
/// substrate → memo insert: one record's (or repair attempt's) calls in
/// the order the pipeline makes them.
#[allow(clippy::too_many_arguments)]
fn attempt(
    local: &mut Local<'_>,
    shared: &Shared,
    model: &SimulatedModel,
    problem: &Problem,
    prompt: &str,
    retry: bool,
    parent: u64,
    rid: u64,
) -> Attempt {
    let params = GenParams::default();
    let raw = local.time("llmsim.generate", parent, rid, || {
        model.generate(prompt, &params)
    });
    let yaml = local.time("llmsim.extract", parent, rid, || extract_yaml(&raw));
    let doc = local.time("yamlkit.parse", parent, rid, || PreparedDoc::shared(yaml));
    let reference = local.time("cescore.ref_prepare", parent, rid, || {
        shared.refs.prepare(&problem.labeled_reference)
    });
    let scores = local.time("cescore.score", parent, rid, || {
        score_pair_prepared(&reference, &doc)
    });
    let (key, found) = local.time("evalcluster.memo", parent, rid, || {
        let key = (
            doc.content_hash(),
            substrate::content_hash(&problem.unit_test),
        );
        (key, shared.memo.get_fresh(key, retry))
    });
    let verdict = match found {
        Some(v) => v,
        None => {
            let app = application_index(problem);
            let v = local.time(SUBSTRATES[app], parent, rid, || {
                evalcluster::execute_uncached(&doc, &problem.unit_test)
            });
            if v.passed {
                shared.passes[app].fetch_add(1, Ordering::Relaxed);
            }
            local.time("evalcluster.memo", parent, rid, || {
                shared.memo.insert(key, v.clone())
            });
            v
        }
    };
    Attempt {
        extracted: doc.text().to_owned(),
        clean_reference: reference.clean_text().to_owned(),
        scores,
        verdict,
    }
}

/// The (problem, variant) coordinates and prompts a driver plans.
fn plan<'d>(dataset: &'d Dataset, opts: &EvalOptions) -> Vec<(&'d Problem, Variant, String)> {
    let problems: Vec<&Problem> = dataset.problems().iter().step_by(opts.stride).collect();
    let mut coords = Vec::new();
    for &variant in &opts.variants {
        for p in &problems {
            let prompt = cedataset::fewshot::build_prompt(&p.prompt_body(variant), opts.shots);
            coords.push((*p, variant, prompt));
        }
    }
    coords
}

/// The grid replica for one model: `workers` threads each take the next
/// coordinate and run it through every layer.
fn grid_replica(
    tracer: &Tracer,
    shared: &Shared,
    model: &SimulatedModel,
    dataset: &Dataset,
    opts: &EvalOptions,
) -> CallOutput {
    let coords = plan(dataset, opts);
    let slots: Vec<Mutex<Option<EvalRecord>>> = coords.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..opts.workers {
            scope.spawn(|| {
                let mut local = tracer.local();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((problem, variant, prompt)) = coords.get(i) else {
                        break;
                    };
                    let rid = shared.next_rid.fetch_add(1, Ordering::Relaxed) as u64;
                    let root = local.open("record", 0, rid);
                    let a = attempt(
                        &mut local, shared, model, problem, prompt, false, root.id, rid,
                    );
                    let mut scores = a.scores;
                    let passed = a.verdict.passed;
                    scores.unit_test = f64::from(u8::from(passed));
                    let record = EvalRecord {
                        model: model.name().to_owned(),
                        problem_id: problem.id.clone(),
                        variant: *variant,
                        category: problem.category,
                        has_context: problem.has_context(),
                        reference_lines: a.clean_reference.lines().count(),
                        question_tokens: cedataset::stats::token_count(
                            problem.description_for(*variant),
                        ),
                        answer_class: llmsim::classify_answer(
                            &a.extracted,
                            &a.clean_reference,
                            passed,
                        ),
                        extracted: a.extracted,
                        scores,
                    };
                    local.close(root);
                    *slots[i].lock().expect("record slot poisoned") = Some(record);
                }
            });
        }
    });
    let records: Vec<EvalRecord> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("record slot poisoned")
                .expect("every record built")
        })
        .collect();
    grid_output(&records)
}

/// A repair task: coordinate slot, round, prompt.
type Task = (usize, usize, String);

/// The repair replica for one model: `workers` threads share a task
/// queue; a failing attempt below the round cap builds its repair
/// prompt and loops back into the queue.
fn repair_replica(
    tracer: &Tracer,
    shared: &Shared,
    model: &SimulatedModel,
    dataset: &Dataset,
    opts: &EvalOptions,
) -> CallOutput {
    let coords = plan(dataset, opts);
    let rounds_per = REPAIR_ROUNDS + 1;
    let results: Vec<Mutex<Option<RepairAttempt>>> = (0..coords.len() * rounds_per)
        .map(|_| Mutex::new(None))
        .collect();
    let queue: Mutex<(VecDeque<Task>, usize)> = Mutex::new((
        coords
            .iter()
            .enumerate()
            .map(|(slot, c)| (slot, 0, c.2.clone()))
            .collect(),
        coords.len(),
    ));
    let ready = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..opts.workers {
            scope.spawn(|| {
                let mut local = tracer.local();
                loop {
                    let (slot, round, prompt) = {
                        let mut q = queue.lock().expect("task queue poisoned");
                        loop {
                            if let Some(task) = q.0.pop_front() {
                                break task;
                            }
                            if q.1 == 0 {
                                return;
                            }
                            q = ready.wait(q).expect("task queue poisoned");
                        }
                    };
                    let (problem, variant, _) = &coords[slot];
                    let rid = shared.next_rid.fetch_add(1, Ordering::Relaxed) as u64;
                    let root = local.open("attempt", 0, rid);
                    let a = attempt(
                        &mut local,
                        shared,
                        model,
                        problem,
                        &prompt,
                        round > 0,
                        root.id,
                        rid,
                    );
                    let passed = a.verdict.passed;
                    let retry = (!passed && round < REPAIR_ROUNDS).then(|| {
                        local.time("llmsim.repair_prompt", root.id, rid, || {
                            let fb = llmsim::synthesize_feedback(
                                a.verdict.diagnosis.as_ref(),
                                FeedbackMode::BucketOnly,
                            );
                            llmsim::repair_prompt(
                                &problem.prompt_body(*variant),
                                &a.extracted,
                                &fb,
                                round + 1,
                            )
                        })
                    });
                    let mut scores = a.scores;
                    scores.unit_test = f64::from(u8::from(passed));
                    let diagnosis = a.verdict.diagnosis;
                    *results[slot * rounds_per + round]
                        .lock()
                        .expect("attempt slot poisoned") = Some(RepairAttempt {
                        round,
                        extracted: a.extracted,
                        scores,
                        passed,
                        bucket: diagnosis.as_ref().map(|d| d.bucket.label().to_owned()),
                        subject: diagnosis.and_then(|d| d.subject),
                    });
                    local.close(root);
                    let mut q = queue.lock().expect("task queue poisoned");
                    match retry {
                        Some(prompt) => q.0.push_back((slot, round + 1, prompt)),
                        None => q.1 -= 1,
                    }
                    ready.notify_all();
                }
            });
        }
    });
    let mut results = results
        .into_iter()
        .map(|s| s.into_inner().expect("attempt slot poisoned"));
    let traces = coords
        .iter()
        .map(|(problem, variant, _)| RepairTrace {
            problem_id: problem.id.clone(),
            variant: *variant,
            attempts: results.by_ref().take(rounds_per).flatten().collect(),
        })
        .collect();
    repair_output(&RepairReport {
        model: model.name().to_owned(),
        rounds: REPAIR_ROUNDS,
        feedback: FeedbackMode::BucketOnly,
        traces,
    })
}

/// One replica lane: its pass state, time and per-model outputs.
struct Lane {
    shared: Shared,
    busy: Duration,
    outputs: Vec<CallOutput>,
}

/// A replica pass over every model on two lanes, model by model: one
/// records spans under `tracer`, the other runs the same calls
/// untraced. Alternating which lane goes first lets both see the same
/// machine, so their time difference is the tracing overhead. Returns
/// the traced lane, then the untraced one.
fn replica_pass(kind: Kind, tracer: &Tracer, inputs: &Inputs, workers: usize) -> (Lane, Lane) {
    let opts = EvalOptions {
        memo: None,
        refs: None,
        ..options(kind, workers)
    };
    let quiet = Tracer::new(false);
    let lane = || Lane {
        shared: Shared::new(),
        busy: Duration::ZERO,
        outputs: Vec::new(),
    };
    let (mut traced, mut plain) = (lane(), lane());
    for (m, model) in inputs.models.iter().enumerate() {
        let run = |lane: &mut Lane, tracer: &Tracer| {
            let started = Instant::now();
            lane.outputs.push(match kind {
                Kind::Grid => grid_replica(tracer, &lane.shared, model, &inputs.dataset, &opts),
                Kind::Repair => repair_replica(tracer, &lane.shared, model, &inputs.dataset, &opts),
            });
            lane.busy += started.elapsed();
        };
        if m % 2 == 0 {
            run(&mut plain, &quiet);
            run(&mut traced, tracer);
        } else {
            run(&mut traced, tracer);
            run(&mut plain, &quiet);
        }
    }
    (traced, plain)
}

/// Summed `stage_queue_wait_us` of one pipeline stage, in ms.
fn queue_wait_ms(stage: &str) -> f64 {
    obs::global()
        .histogram_snapshot("stage_queue_wait_us", &[("stage", stage)])
        .map_or(0.0, |h| h.sum_us as f64 / 1e3)
}

/// The traced run: one real driver pass for the pipeline's queue-wait
/// series, then the replica untraced and traced.
pub fn run_traced(kind: Kind, seed: u64, workers: usize, spans_path: &std::path::Path) -> Outcome {
    let inputs = setup(kind, seed);
    let want = reference_digests(kind, &inputs, workers);
    let mut out = Outcome::default();
    let mut extras: BTreeMap<&'static str, f64> = BTreeMap::new();

    let before = ["extract", "score"].map(queue_wait_ms);
    let opts = options(kind, workers);
    let mut latencies_ms = Vec::new();
    for (model, want) in inputs.models.iter().zip(&want) {
        let started = Instant::now();
        let got = run_model(kind, model, &inputs.dataset, &opts);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        latencies_ms.extend(std::iter::repeat_n(ms, got.records));
        out.attempted += got.records as u64;
        if got.digest != *want {
            out.failed += got.records as u64;
        }
    }
    report::tail_extras(&mut extras, &latencies_ms);
    let after = ["extract", "score"].map(queue_wait_ms);
    extras.insert("core.pipeline.extract.queue_wait_ms", after[0] - before[0]);
    extras.insert("core.pipeline.score.queue_wait_ms", after[1] - before[1]);

    let tracer = Tracer::new(true);
    let (traced, plain) = replica_pass(kind, &tracer, &inputs, workers);
    let (wall, plain_wall, shared) = (traced.busy, plain.busy, traced.shared);
    for (got, want) in plain
        .outputs
        .iter()
        .chain(&traced.outputs)
        .zip(want.iter().cycle())
    {
        out.attempted += got.records as u64;
        if got.digest != *want {
            out.failed += got.records as u64;
        }
    }
    let spans = tracer.take();
    if let Err(e) = trace::write_jsonl(spans_path, &spans) {
        out.check_failures.push(format!("writing spans: {e}"));
    }
    let table = trace::layers(&spans, &report::LAYERS);
    let wall_ns = wall.as_nanos() as u64;
    for (app, name) in SUBSTRATES.iter().enumerate() {
        let executed = table[name].calls.max(1) as f64;
        extras.insert(
            PASS_RATIOS[app],
            shared.passes[app].load(Ordering::Relaxed) as f64 / executed,
        );
    }
    let lookups = (shared.memo.hits() + shared.memo.misses()).max(1) as f64;
    extras.insert(
        "evalcluster.memo.hit_ratio",
        shared.memo.hits() as f64 / lookups,
    );
    extras.insert(
        "evalcluster.memo.stale_retries",
        shared.memo.stale_retries() as f64,
    );
    extras.insert(
        "unattributed_ms",
        trace::unattributed_ms(wall_ns, workers, &table),
    );
    extras.insert("trace.wall_ms", wall.as_secs_f64() * 1e3);
    extras.insert("trace.threads", workers as f64);
    let overhead = wall.as_secs_f64() - plain_wall.as_secs_f64();
    extras.insert("tracing.overhead_ms", overhead * 1e3);
    extras.insert(
        "tracing.overhead_ratio",
        overhead / plain_wall.as_secs_f64().max(1e-9),
    );

    out.lines.push(format!(
        "replica pass: {:.1} ms traced, {:.1} ms untraced, {} threads, {} spans -> {}",
        wall.as_secs_f64() * 1e3,
        plain_wall.as_secs_f64() * 1e3,
        workers,
        spans.len(),
        spans_path.display()
    ));
    out.lines
        .extend(report::layer_lines(&table, wall_ns, workers));
    report::layer_metrics(&mut out, &table, &extras);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: Kind) -> (Inputs, EvalOptions) {
        let mut inputs = setup(kind, 5);
        inputs.models.truncate(2);
        let opts = EvalOptions {
            stride: 48,
            memo: None,
            refs: None,
            ..options(kind, 2)
        };
        (inputs, opts)
    }

    #[test]
    fn grid_replica_reproduces_the_product_records() {
        let (inputs, opts) = tiny(Kind::Grid);
        let tracer = Tracer::new(true);
        let shared = Shared::new();
        for model in &inputs.models {
            let want = grid_output(&evaluate_barriered(model, &inputs.dataset, &opts)).digest;
            let got = grid_replica(&tracer, &shared, model, &inputs.dataset, &opts);
            assert_eq!(got.digest, want);
        }
        let spans = tracer.take();
        assert!(spans.iter().any(|s| s.name == "llmsim.generate"));
    }

    #[test]
    fn repair_replica_reproduces_the_product_traces() {
        let (inputs, opts) = tiny(Kind::Repair);
        let tracer = Tracer::new(false);
        let shared = Shared::new();
        for model in &inputs.models {
            let want = repair_output(&evaluate_repair_barriered(
                model,
                &inputs.dataset,
                &opts,
                REPAIR_ROUNDS,
                FeedbackMode::BucketOnly,
            ));
            let got = repair_replica(&tracer, &shared, model, &inputs.dataset, &opts);
            assert_eq!(got.digest, want.digest);
            assert_eq!(got.attempts, want.attempts);
        }
    }

    #[test]
    fn unattributed_time_is_never_below_zero_beyond_clock_slack() {
        let (inputs, opts) = tiny(Kind::Grid);
        let tracer = Tracer::new(true);
        let shared = Shared::new();
        let started = Instant::now();
        for model in &inputs.models {
            grid_replica(&tracer, &shared, model, &inputs.dataset, &opts);
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        let table = trace::layers(&tracer.take(), &report::LAYERS);
        let covered: u64 = table.values().map(|l| l.self_ns).sum();
        assert!(covered > 0);
        // 1 ms of slack for clock reads at the pass edges.
        assert!(trace::unattributed_ms(wall_ns, opts.workers, &table) > -1.0);
    }
}
