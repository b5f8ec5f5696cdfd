//! The end-to-end benchmark pipeline (Figure 3): dataset → prompt →
//! query → post-process → score → cloud evaluation.
//!
//! Every streaming driver runs on one private judge engine: a pool of
//! `workers` scoped threads, each owning one [`ScoreScratch`], that take
//! the next coordinate from an atomic cursor and run it to completion —
//! generation, §3.1 extraction, the one parse into a [`PreparedDoc`],
//! static scoring against the [`RefCache`]d reference, the unit test
//! through the memo's single flight ([`ScoreMemo::single_flight`]),
//! answer classification and record assembly. No channel links two
//! stages, so no record waits in a queue behind another. The drivers:
//!
//! * [`evaluate`] — one (problem, variant) coordinate per item; every
//!   record settles on the thread that generated it.
//! * [`evaluate_repair`] — the same, except a failing attempt below the
//!   round cap loops the coordinate straight into its next round on the
//!   same thread: the fail–learn–refine edge.
//! * [`score_submissions_stream`] — one submission per item, each
//!   verdict emitted the moment it lands.
//!
//! [`evaluate_barriered`] and [`evaluate_repair_barriered`] keep the
//! seed's phase barriers as the reference semantics: the streamed drivers
//! must reproduce their output exactly. [`evaluate_barriered`] also keeps
//! the text path (every layer re-parses the candidate, and
//! [`llmsim::classify_answer`] parses it again), so that identity
//! certifies the parse-once document model too.
//!
//! All drivers dedupe unit-test executions by content hash (identical
//! extracted YAML for the same unit test scores once) and honor
//! [`EvalOptions::memo`] so verdicts carry across runs.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cedataset::{Category, Dataset, Problem, Variant};
use cescore::{
    score_pair_prepared, score_pair_prepared_with, PreparedDoc, RefCache, ScoreScratch, Scores,
};
use evalcluster::executor::{run_jobs_cached, UnitTestJob};
use evalcluster::memo::{Answered, CachedVerdict, ScoreMemo};
use evalcluster::StreamStats;
use llmsim::{
    extract_yaml, AnswerCategory, FeedbackMode, GenParams, LanguageModel, QueryConfig,
    SimulatedModel,
};
use obs::{Span, TraceId};

/// Default unit-test worker count: one per available hardware thread,
/// clamped to `[2, 32]`.
///
/// The seed hard-coded 8 workers, which under-drove big machines and
/// oversubscribed small containers. Override per run via
/// [`EvalOptions::workers`] (or `repro --workers N` on the CLI).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(8)
        .clamp(2, 32)
}

/// One scored (model, problem, variant) evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalRecord {
    /// Model name.
    pub model: String,
    /// Problem id.
    pub problem_id: String,
    /// Dataset variant.
    pub variant: Variant,
    /// Problem category.
    pub category: Category,
    /// Whether the question carried a YAML context.
    pub has_context: bool,
    /// Reference solution length in lines.
    pub reference_lines: usize,
    /// Question length in (approximate) tokens.
    pub question_tokens: usize,
    /// Extracted YAML (after §3.1 post-processing).
    pub extracted: String,
    /// All six metrics, including the unit-test outcome.
    pub scores: Scores,
    /// Figure 7 failure class.
    pub answer_class: AnswerCategory,
}

/// Evaluation options.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Variants to include.
    pub variants: Vec<Variant>,
    /// Few-shot exemplar count (0–3).
    pub shots: usize,
    /// Generation parameters.
    pub params: GenParams,
    /// Worker threads of the judge engine (and of the barriered drivers'
    /// generation and unit-test pools). Defaults to [`default_workers`]
    /// (available parallelism, clamped); set explicitly to pin a run to a
    /// fixed width.
    pub workers: usize,
    /// Optional problem subsample: keep every `stride`-th problem
    /// (1 = full dataset). Used by fast tests.
    pub stride: usize,
    /// Shared content-addressed verdict cache. `None` (the default) uses
    /// a run-local memo — identical candidates still execute once within
    /// the run; supply one `Arc<ScoreMemo>` across runs to carry verdicts
    /// over a whole grid or pass@k sweep.
    pub memo: Option<Arc<ScoreMemo>>,
    /// When `Some(ms)`, generation runs in the latency-realistic remote
    /// regime: each request really occupies its worker for `ms` of
    /// wall-clock ([`QueryConfig::live_latency`]), as a remote API would.
    /// Only [`evaluate`] and [`evaluate_barriered`] honor it, identically
    /// (so their comparison stays fair); the repair drivers call the
    /// model directly and never sleep. `None` (the default) generates at
    /// pure simulation speed.
    pub live_latency_ms: Option<u64>,
    /// Shared prepared-reference cache. `None` (the default) uses a
    /// run-local cache — each reference still parses at most once within
    /// the run; supply one `Arc<RefCache>` across runs to parse each
    /// reference exactly once per session (grid sweeps, pass@k).
    pub refs: Option<Arc<RefCache>>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            variants: vec![Variant::Original],
            shots: 0,
            params: GenParams::default(),
            workers: default_workers(),
            stride: 1,
            memo: None,
            live_latency_ms: None,
            refs: None,
        }
    }
}

impl EvalOptions {
    /// All three variants (Table 4's full 1011-problem evaluation).
    pub fn full() -> EvalOptions {
        EvalOptions {
            variants: Variant::ALL.to_vec(),
            ..EvalOptions::default()
        }
    }

    /// The memo to use: the shared one when provided, else `fallback`.
    fn memo_or<'a>(&'a self, fallback: &'a ScoreMemo) -> &'a ScoreMemo {
        self.memo.as_deref().unwrap_or(fallback)
    }

    /// The prepared-reference cache to use: the shared one when provided,
    /// else `fallback`.
    fn refs_or<'a>(&'a self, fallback: &'a RefCache) -> &'a RefCache {
        self.refs.as_deref().unwrap_or(fallback)
    }

    /// The query configuration the barriered grid driver dispatches
    /// generation with.
    fn query_config(&self) -> QueryConfig {
        QueryConfig {
            parallelism: self.workers.max(1),
            request_latency_ms: self
                .live_latency_ms
                .unwrap_or(QueryConfig::default().request_latency_ms),
            live_latency: self.live_latency_ms.is_some(),
            ..QueryConfig::default()
        }
    }
}

/// The (problem, variant) grid selected by the options, with prompts.
fn plan<'d>(
    dataset: &'d Dataset,
    options: &EvalOptions,
) -> (Vec<(&'d Problem, Variant)>, Vec<String>) {
    let problems: Vec<&Problem> = dataset
        .problems()
        .iter()
        .step_by(options.stride.max(1))
        .collect();
    let mut coords: Vec<(&Problem, Variant)> = Vec::new();
    for &variant in &options.variants {
        for p in &problems {
            coords.push((p, variant));
        }
    }
    let prompts: Vec<String> = coords
        .iter()
        .map(|(p, v)| cedataset::fewshot::build_prompt(&p.prompt_body(*v), options.shots))
        .collect();
    (coords, prompts)
}

/// `scores` with the unit-test verdict filled in.
fn judged(mut scores: Scores, passed: bool) -> Scores {
    scores.unit_test = f64::from(u8::from(passed));
    scores
}

/// Assembles the final record for one coordinate — shared verbatim by
/// both grid drivers so their outputs stay bit-identical. The reference
/// length and question size are the problem's stored counts.
fn assemble_record(
    model_name: &str,
    problem: &Problem,
    variant: Variant,
    yaml: String,
    scores: Scores,
    answer_class: AnswerCategory,
) -> EvalRecord {
    EvalRecord {
        model: model_name.to_owned(),
        problem_id: problem.id.clone(),
        variant,
        category: problem.category,
        has_context: problem.has_context(),
        reference_lines: problem.reference_lines(),
        question_tokens: problem.description_tokens(variant),
        extracted: yaml,
        scores,
        answer_class,
    }
}

/// The `stage_queue_wait_us` / `stage_service_us` series of one engine
/// stage, resolved once per run so workers record lock-free.
struct StageSeries {
    queue_wait: obs::Histogram,
    service: obs::Histogram,
}

impl StageSeries {
    fn new(stage: &'static str) -> StageSeries {
        let labels = [("stage", stage)];
        StageSeries {
            queue_wait: obs::global().histogram(
                "stage_queue_wait_us",
                &labels,
                "time a stage worker spent blocked waiting for its next record",
            ),
            service: obs::global().histogram(
                "stage_service_us",
                &labels,
                "time a stage worker spent processing one record",
            ),
        }
    }

    /// Records `waited` as queue wait, then runs `work` timed as service.
    fn time<R>(&self, waited: Duration, work: impl FnOnce() -> R) -> R {
        self.queue_wait.record(waited);
        let started = Instant::now();
        let out = work();
        self.service.record(started.elapsed());
        out
    }
}

/// The two timed stages of every attempt: `extract` (§3.1 extraction and
/// the one parse; for repair, generation too) and `score` (static
/// scoring). Each attempt records one observation in each series; the
/// `extract` queue wait is the wait for the next coordinate, and `score`
/// never waits (it follows extraction on the same thread).
struct Stages {
    extract: StageSeries,
    score: StageSeries,
}

impl Stages {
    fn new() -> Stages {
        Stages {
            extract: StageSeries::new("extract"),
            score: StageSeries::new("score"),
        }
    }
}

/// The judge engine behind [`evaluate`], [`evaluate_repair`] and
/// [`score_submissions_stream`]: `workers` scoped threads (never more than
/// there are items), each owning one [`ScoreScratch`], take the next index
/// from an atomic cursor and run `item` on it to completion. `item` also
/// gets the time its thread waited for the index. Outputs come back in
/// index order.
///
/// Threads share nothing but the cursor, the caches and the memo's single
/// flight, so a panicking `item` cannot hang the run: the other threads
/// finish the remaining indices and the scope re-raises the panic.
fn run_to_completion<O: Send + Sync>(
    items: usize,
    workers: usize,
    item: impl Fn(usize, Duration, &mut ScoreScratch) -> O + Sync,
) -> Vec<O> {
    let cursor = AtomicUsize::new(0);
    let outputs: Vec<OnceLock<O>> = (0..items).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1).min(items) {
            scope.spawn(|| {
                let mut scratch = ScoreScratch::new();
                loop {
                    let idle_from = Instant::now();
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= items {
                        break;
                    }
                    let out = item(index, idle_from.elapsed(), &mut scratch);
                    assert!(outputs[index].set(out).is_ok(), "index {index} ran twice");
                }
            });
        }
    });
    outputs
        .into_iter()
        .map(|out| out.into_inner().expect("every index ran"))
        .collect()
}

/// The unit-test verdict of `doc` under `script` through the memo's
/// single flight: a memo hit, a wait on a concurrent execution of the
/// same candidate, or one hermetic execution. `retry` marks a repair
/// resubmission ([`ScoreMemo::get_fresh`]).
fn judge(
    memo: &ScoreMemo,
    doc: &PreparedDoc,
    script: &str,
    retry: bool,
) -> (CachedVerdict, Answered) {
    let key = (doc.content_hash(), substrate::content_hash(script));
    memo.single_flight(key, retry, || evalcluster::execute_uncached(doc, script))
}

/// Runs the full pipeline for one model — the streaming driver: each
/// engine thread generates one coordinate's response (sleeping through
/// [`EvalOptions::live_latency_ms`] the way [`QueryConfig::live_latency`]
/// does), then extracts, scores, judges and classifies it.
///
/// Each candidate is parsed exactly once into a [`PreparedDoc`] that
/// serves static scoring, substrate execution and answer classification,
/// and each reference is prepared once per [`RefCache`] lifetime.
///
/// Output is record-for-record identical to [`evaluate_barriered`] (same
/// `EvalRecord`s in the same order) for any worker count or stride; only
/// the schedule differs. See the `pipeline_determinism` test suite for
/// the property-based proof.
pub fn evaluate(
    model: &SimulatedModel,
    dataset: &Dataset,
    options: &EvalOptions,
) -> Vec<EvalRecord> {
    let (coords, prompts) = plan(dataset, options);
    let local_memo = ScoreMemo::new();
    let memo = options.memo_or(&local_memo);
    let local_refs = RefCache::new();
    let refs = options.refs_or(&local_refs);
    let stages = Stages::new();
    run_to_completion(coords.len(), options.workers, |index, waited, scratch| {
        let (problem, variant) = coords[index];
        let raw = model.generate(&prompts[index], &options.params);
        if let Some(ms) = options.live_latency_ms {
            // The worker is "on the wire" for the service time.
            std::thread::sleep(Duration::from_millis(ms));
        }
        let doc = stages
            .extract
            .time(waited, || PreparedDoc::new(extract_yaml(&raw)));
        let (reference, scores) = stages.score.time(Duration::ZERO, || {
            let reference = refs.prepare(&problem.labeled_reference);
            let scores = score_pair_prepared_with(&reference, &doc, scratch);
            (reference, scores)
        });
        let (verdict, _) = judge(memo, &doc, &problem.unit_test, false);
        assemble_record(
            model.name(),
            problem,
            variant,
            doc.text().to_owned(),
            judged(scores, verdict.passed),
            llmsim::classify_prepared(&doc, reference.clean_doc(), verdict.passed),
        )
    })
}

/// Runs the full pipeline for one model with the seed's phase barriers:
/// every prompt is answered before any YAML is extracted, every unit
/// test runs before any static metric is computed, and the static
/// metrics are computed serially on the calling thread — **on the
/// pre-refactor text path** (every layer re-parses the candidate), which
/// this driver preserves verbatim as the oracle for the parse-once
/// document model.
///
/// Kept as the reference semantics [`evaluate`] must reproduce exactly
/// (the `pipeline_determinism` suite proves record equality, which also
/// certifies the parse-once document model against the text path), and
/// as the baseline `repro pipeline` measures the streaming driver
/// against.
pub fn evaluate_barriered(
    model: &SimulatedModel,
    dataset: &Dataset,
    options: &EvalOptions,
) -> Vec<EvalRecord> {
    let (coords, prompts) = plan(dataset, options);
    // 1. YAML generation: prompts through the query module.
    let batch = llmsim::query_batch(model, &prompts, &options.params, &options.query_config());
    // 2. Post-processing.
    let extracted: Vec<String> = batch.responses.iter().map(|r| extract_yaml(r)).collect();
    // 3. Function-level scoring on the evaluation cluster.
    let jobs: Vec<UnitTestJob> = coords
        .iter()
        .zip(&extracted)
        .map(|((p, v), yaml)| {
            UnitTestJob::new(format!("{}@{v:?}", p.id), p.unit_test.clone(), yaml.clone())
        })
        .collect();
    let local_memo = ScoreMemo::new();
    let report = run_jobs_cached(&jobs, options.workers, options.memo_or(&local_memo));
    // 4. Static scoring + assembly, serially on this thread.
    coords
        .into_iter()
        .zip(extracted)
        .zip(report.results)
        .map(|(((problem, variant), yaml), job_result)| {
            let scores = cescore::score_pair_text(&problem.labeled_reference, &yaml);
            let answer_class =
                llmsim::classify_answer(&yaml, problem.clean_reference(), job_result.passed);
            assemble_record(
                model.name(),
                problem,
                variant,
                yaml,
                judged(scores, job_result.passed),
                answer_class,
            )
        })
        .collect()
}

/// One generation→extraction→scoring→deployment attempt inside a repair
/// trace. `round` 0 is the first attempt; each later round re-generates
/// from a [`llmsim::repair_prompt`] carrying the prior candidate and the
/// taxonomy feedback of its failure.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairAttempt {
    /// 0-based repair round this attempt ran in.
    pub round: usize,
    /// Extracted YAML of this attempt.
    pub extracted: String,
    /// Static metrics of this attempt, `unit_test` included.
    pub scores: Scores,
    /// Whether the deployment passed.
    pub passed: bool,
    /// Taxonomy bucket label of the failure
    /// ([`substrate::taxonomy::Bucket::label`]); `None` when the attempt
    /// passed (or a legacy memo entry carried no diagnosis).
    pub bucket: Option<String>,
    /// Offending subject from the diagnosis, when the classifier isolated
    /// one.
    pub subject: Option<String>,
}

/// The attempt history of one (problem, variant) coordinate through the
/// repair loop: one entry per round actually run, stopping early at the
/// first pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairTrace {
    /// Problem id.
    pub problem_id: String,
    /// Dataset variant.
    pub variant: Variant,
    /// Attempts in round order; the last one either passed or exhausted
    /// the round budget.
    pub attempts: Vec<RepairAttempt>,
}

impl RepairTrace {
    /// Whether the coordinate passed at any attempt up to and including
    /// `round`.
    pub fn passed_by(&self, round: usize) -> bool {
        self.attempts.iter().any(|a| a.round <= round && a.passed)
    }
}

/// The outcome of a fail–learn–refine run for one model:
/// pass@repair-round-r and taxonomy-bucketed failure counts per round.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// Model name.
    pub model: String,
    /// Maximum repair rounds after the first attempt (a report spans
    /// rounds `0..=rounds`).
    pub rounds: usize,
    /// How much of each failure diagnosis the repair prompts revealed.
    pub feedback: FeedbackMode,
    /// One trace per (problem, variant) coordinate, in plan order.
    pub traces: Vec<RepairTrace>,
}

impl RepairReport {
    /// Coordinates in the report.
    pub fn total(&self) -> usize {
        self.traces.len()
    }

    /// pass@repair-round-`round`: coordinates whose candidate passed at
    /// any attempt up to and including `round` (cumulative, so it is
    /// non-decreasing in `round`).
    pub fn pass_at_round(&self, round: usize) -> usize {
        self.traces.iter().filter(|t| t.passed_by(round)).count()
    }

    /// Taxonomy histogram of the failures standing at `round`: coordinates
    /// whose attempt at that round ran and failed, counted by bucket label
    /// in taxonomy order (zero-count buckets omitted). A failed attempt
    /// with no diagnosis counts as `unknown`.
    pub fn bucket_counts(&self, round: usize) -> Vec<(&'static str, usize)> {
        use substrate::taxonomy::Bucket;
        let mut counts = [0usize; Bucket::ALL.len()];
        for trace in &self.traces {
            if let Some(attempt) = trace
                .attempts
                .iter()
                .find(|a| a.round == round && !a.passed)
            {
                let bucket = attempt
                    .bucket
                    .as_deref()
                    .and_then(Bucket::from_label)
                    .unwrap_or(Bucket::Unknown);
                counts[bucket.index()] += 1;
            }
        }
        Bucket::ALL
            .into_iter()
            .zip(counts)
            .filter(|&(_, c)| c > 0)
            .map(|(b, c)| (b.label(), c))
            .collect()
    }
}

/// The unit-test job for one repair attempt. Attempt content is what the
/// memo keys on; the round only names the job and — past round 0 — marks
/// it a resubmission, so the memo answers deterministic failures from
/// cache and re-executes only retryable ones
/// ([`evalcluster::CachedVerdict::retryable_failure`]).
fn repair_job(
    problem: &Problem,
    variant: Variant,
    round: usize,
    doc: &Arc<PreparedDoc>,
) -> UnitTestJob {
    let job = UnitTestJob::prepared(
        format!("{}@{variant:?}#r{round}", problem.id),
        problem.unit_test.clone(),
        Arc::clone(doc),
    );
    if round > 0 {
        job.retry()
    } else {
        job
    }
}

/// Runs the fail–learn–refine loop on the judge engine: each engine
/// thread takes a coordinate and runs its attempts through generation →
/// extraction → static scoring → substrate execution, and a failing
/// verdict below the round cap **loops back** on the same thread — it
/// synthesizes taxonomy feedback ([`llmsim::synthesize_feedback`]),
/// builds the repair prompt and starts the next round while the other
/// threads keep working on theirs. No phase barrier: one coordinate can
/// be on round 2 while another is still generating round 0.
///
/// Memo-aware end to end: repeat candidates are answered from the
/// [`ScoreMemo`], and repair resubmissions (round > 0) re-execute only
/// retryable failures. Output is identical to
/// [`evaluate_repair_barriered`] for any worker count — repair generation
/// is seeded by the prior attempt's content, so the schedule cannot leak
/// into the traces.
pub fn evaluate_repair(
    model: &SimulatedModel,
    dataset: &Dataset,
    options: &EvalOptions,
    rounds: usize,
    feedback: FeedbackMode,
) -> RepairReport {
    let (coords, prompts) = plan(dataset, options);
    // Distinct nonce per repair run so span trace ids from concurrent or
    // successive runs never collide (`TraceId::for_record(run, slot)`).
    static RUN_NONCE: AtomicU64 = AtomicU64::new(1);
    let run_nonce = RUN_NONCE.fetch_add(1, Ordering::Relaxed);
    let local_memo = ScoreMemo::new();
    let memo = options.memo_or(&local_memo);
    let local_refs = RefCache::new();
    let refs = options.refs_or(&local_refs);
    let stages = Stages::new();
    let histories = run_to_completion(coords.len(), options.workers, |slot, waited, scratch| {
        let (problem, variant) = coords[slot];
        let trace = TraceId::for_record(run_nonce, slot);
        let mut prompt = Cow::Borrowed(prompts[slot].as_str());
        let mut waited = waited;
        let mut attempts = Vec::new();
        for round in 0..=rounds {
            // One span per attempt, child spans per stage — the
            // generation→extraction→scoring path of this round,
            // correlated with its verdict leg by the trace id.
            let mut attempt = Span::start("repair_attempt", trace);
            if attempt.is_recording() {
                attempt.tag("round", round.to_string());
                attempt.tag("problem", problem.id.clone());
            }
            // Generation runs inside the extract stage: initial and
            // repair attempts take the same path — a repair request is
            // just a prompt.
            let doc = stages.extract.time(std::mem::take(&mut waited), || {
                let raw = {
                    let _gen = attempt.child("generate");
                    model.generate(&prompt, &options.params)
                };
                let _extract = attempt.child("extract");
                PreparedDoc::new(extract_yaml(&raw))
            });
            let scores = stages.score.time(Duration::ZERO, || {
                let reference = refs.prepare(&problem.labeled_reference);
                let _score = attempt.child("score");
                score_pair_prepared_with(&reference, &doc, scratch)
            });
            attempt.finish();
            let (verdict, _) = judge(memo, &doc, &problem.unit_test, round > 0);
            let diagnosis = verdict.diagnosis;
            // The verdict leg of the attempt's trace: round number and
            // taxonomy bucket, correlated by the shared trace id.
            let mut verdict_span = Span::start("repair_verdict", trace);
            if verdict_span.is_recording() {
                verdict_span.tag("round", round.to_string());
                verdict_span.tag("passed", verdict.passed.to_string());
                verdict_span.tag(
                    "bucket",
                    diagnosis
                        .as_ref()
                        .map_or("none", |d| d.bucket.label())
                        .to_owned(),
                );
            }
            verdict_span.finish();
            attempts.push(RepairAttempt {
                round,
                extracted: doc.text().to_owned(),
                scores: judged(scores, verdict.passed),
                passed: verdict.passed,
                bucket: diagnosis.as_ref().map(|d| d.bucket.label().to_owned()),
                subject: diagnosis.as_ref().and_then(|d| d.subject.clone()),
            });
            if verdict.passed || round == rounds {
                break;
            }
            let fb = llmsim::synthesize_feedback(diagnosis.as_ref(), feedback);
            prompt = Cow::Owned(llmsim::repair_prompt(
                &problem.prompt_body(variant),
                doc.text(),
                &fb,
                round + 1,
            ));
        }
        attempts
    });
    let traces = coords
        .iter()
        .zip(histories)
        .map(|(&(problem, variant), attempts)| RepairTrace {
            problem_id: problem.id.clone(),
            variant,
            attempts,
        })
        .collect();
    RepairReport {
        model: model.name().to_owned(),
        rounds,
        feedback,
        traces,
    }
}

/// [`evaluate_repair`] with a phase barrier between rounds: every active
/// coordinate generates, extracts and scores serially, all jobs of the
/// round execute together ([`run_jobs_cached`]), and only then does the
/// next round start from the collected failures. Kept as the reference
/// semantics the streamed loop-back driver must reproduce byte for byte
/// (`repro repair` and cebench's `repair` workload check it).
pub fn evaluate_repair_barriered(
    model: &SimulatedModel,
    dataset: &Dataset,
    options: &EvalOptions,
    rounds: usize,
    feedback: FeedbackMode,
) -> RepairReport {
    let (coords, prompts) = plan(dataset, options);
    let local_memo = ScoreMemo::new();
    let memo = options.memo_or(&local_memo);
    let local_refs = RefCache::new();
    let refs = options.refs_or(&local_refs);
    let mut traces: Vec<RepairTrace> = coords
        .iter()
        .map(|&(p, v)| RepairTrace {
            problem_id: p.id.clone(),
            variant: v,
            attempts: Vec::new(),
        })
        .collect();
    // Coordinates still failing, each with its next prompt.
    let mut pending: Vec<(usize, String)> = prompts.into_iter().enumerate().collect();
    for round in 0..=rounds {
        if pending.is_empty() {
            break;
        }
        // 1. Generation + extraction + static scoring, serially.
        let prepared: Vec<(usize, Arc<PreparedDoc>, Scores)> = pending
            .iter()
            .map(|(slot, prompt)| {
                let (problem, _) = coords[*slot];
                let raw = model.generate(prompt, &options.params);
                let doc = PreparedDoc::shared(extract_yaml(&raw));
                let reference = refs.prepare(&problem.labeled_reference);
                let scores = score_pair_prepared(&reference, &doc);
                (*slot, doc, scores)
            })
            .collect();
        // 2. Substrate execution behind the phase barrier.
        let jobs: Vec<UnitTestJob> = prepared
            .iter()
            .map(|(slot, doc, _)| {
                let (problem, variant) = coords[*slot];
                repair_job(problem, variant, round, doc)
            })
            .collect();
        let report = run_jobs_cached(&jobs, options.workers, memo);
        // 3. Record the round; failures below the cap become next round's
        // repair prompts.
        let mut next = Vec::new();
        for ((slot, doc, scores), result) in prepared.into_iter().zip(report.results) {
            let (problem, variant) = coords[slot];
            traces[slot].attempts.push(RepairAttempt {
                round,
                extracted: doc.text().to_owned(),
                scores: judged(scores, result.passed),
                passed: result.passed,
                bucket: result
                    .diagnosis
                    .as_ref()
                    .map(|d| d.bucket.label().to_owned()),
                subject: result.diagnosis.as_ref().and_then(|d| d.subject.clone()),
            });
            if !result.passed && round < rounds {
                let fb = llmsim::synthesize_feedback(result.diagnosis.as_ref(), feedback);
                let prompt = llmsim::repair_prompt(
                    &problem.prompt_body(variant),
                    doc.text(),
                    &fb,
                    round + 1,
                );
                next.push((slot, prompt));
            }
        }
        pending = next;
    }
    RepairReport {
        model: model.name().to_owned(),
        rounds,
        feedback,
        traces,
    }
}

/// One externally-submitted candidate awaiting evaluation — the
/// benchmark-as-a-service entry point (`ceserve`'s `/v1/evaluate` and
/// `/v1/batch` bodies land here).
#[derive(Debug, Clone, PartialEq)]
pub struct Submission<'p> {
    /// The problem the candidate answers.
    pub problem: &'p Problem,
    /// Which dataset variant the candidate was produced against (affects
    /// only bookkeeping: reference, unit test and scoring are shared).
    pub variant: Variant,
    /// Raw model output; §3.1 post-processing is applied before scoring.
    pub raw: String,
    /// Already-extracted candidate, when the caller ran §3.1
    /// post-processing itself (the `ceserve` batch decoder does, to key
    /// its response cache) — the streaming scorer then skips the second
    /// extraction. `None` extracts from `raw`.
    pub extracted: Option<String>,
}

/// The scored outcome of one [`Submission`] — the same numbers, bit for
/// bit, that a direct [`evaluate`] run produces for an identical
/// candidate, plus service-level metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmissionVerdict {
    /// Problem id.
    pub problem_id: String,
    /// Submitted variant.
    pub variant: Variant,
    /// Extracted YAML (after §3.1 post-processing).
    pub extracted: String,
    /// All six metrics, `unit_test` included.
    pub scores: Scores,
    /// Whether the unit test passed.
    pub passed: bool,
    /// Simulated in-substrate milliseconds of the (original) execution.
    pub simulated_ms: u64,
    /// Figure 7 failure class of the candidate.
    pub answer_class: AnswerCategory,
    /// Taxonomy bucket label of the deployment failure
    /// ([`substrate::taxonomy::Bucket::label`]); `None` on a pass (or
    /// when a legacy memo entry carried no diagnosis).
    pub failure_bucket: Option<String>,
    /// `true` when the verdict was served from the score memo without
    /// touching a substrate this call.
    pub cached: bool,
    /// A benchmark-input defect detected while scoring (e.g. an
    /// unparseable reference — see [`cescore::ScoreIssue`]), in wire
    /// form. A broken reference is a benchmark bug, not a model failure:
    /// the YAML-aware metrics still read 0.0 (unchanged numbers), but the
    /// defect is surfaced here instead of silently blaming the model.
    pub score_issue: Option<String>,
}

/// Live occupancy gauges of the submission-scoring stages, for a serving
/// layer's statistics endpoint. All counters are instantaneous gauges
/// except `completed`, which accumulates.
#[derive(Debug, Default)]
pub struct StageGauges {
    extracting: AtomicUsize,
    scoring: AtomicUsize,
    executing: AtomicUsize,
    completed: AtomicUsize,
}

impl StageGauges {
    /// Fresh gauges, all zero.
    pub fn new() -> StageGauges {
        StageGauges::default()
    }

    /// Submissions currently in §3.1 extraction.
    pub fn extracting(&self) -> usize {
        self.extracting.load(Ordering::Relaxed)
    }

    /// Submissions currently in static scoring.
    pub fn scoring(&self) -> usize {
        self.scoring.load(Ordering::Relaxed)
    }

    /// Submissions in unit-test judging: executing, or waiting on an
    /// in-flight execution of the same candidate.
    pub fn executing(&self) -> usize {
        self.executing.load(Ordering::Relaxed)
    }

    /// Total submissions fully judged through these gauges.
    pub fn completed(&self) -> usize {
        self.completed.load(Ordering::Relaxed)
    }
}

/// RAII increment/decrement of one gauge.
struct GaugeGuard<'a>(&'a AtomicUsize);

impl<'a> GaugeGuard<'a> {
    fn enter(gauge: &'a AtomicUsize) -> GaugeGuard<'a> {
        gauge.fetch_add(1, Ordering::Relaxed);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Builds the final verdict from the scored pieces — shared by the single
/// and streaming submission paths so both stay identical to [`evaluate`]'s
/// records.
fn assemble_verdict(
    problem: &Problem,
    variant: Variant,
    reference: &cescore::PreparedRef,
    doc: &PreparedDoc,
    scores: Scores,
    execution: CachedVerdict,
    cached: bool,
) -> SubmissionVerdict {
    let passed = execution.passed;
    SubmissionVerdict {
        problem_id: problem.id.clone(),
        variant,
        extracted: doc.text().to_owned(),
        scores: judged(scores, passed),
        passed,
        simulated_ms: execution.simulated_ms,
        answer_class: llmsim::classify_prepared(doc, reference.clean_doc(), passed),
        failure_bucket: execution
            .diagnosis
            .as_ref()
            .map(|d| d.bucket.label().to_owned()),
        cached,
        score_issue: reference.issue().map(cescore::ScoreIssue::wire),
    }
}

/// Scores one externally-submitted candidate: §3.1 extraction, **one**
/// parse into a [`PreparedDoc`] shared with every metric and the
/// substrate, the five static metrics from cached views, and the unit
/// test through the shared [`ScoreMemo`] — a repeat submission of an
/// already-judged candidate is answered from cache without touching a
/// substrate.
pub fn score_submission(
    problem: &Problem,
    variant: Variant,
    raw: &str,
    memo: &ScoreMemo,
    refs: &RefCache,
) -> SubmissionVerdict {
    score_submission_doc(
        problem,
        variant,
        &PreparedDoc::shared(extract_yaml(raw)),
        memo,
        refs,
    )
}

/// [`score_submission`] from an already-extracted, already-prepared
/// candidate — the entry point for callers (the `ceserve` HTTP layer)
/// that decoded the request body straight into a [`PreparedDoc`], so a
/// service request parses candidate YAML exactly once end-to-end.
pub fn score_submission_doc(
    problem: &Problem,
    variant: Variant,
    doc: &Arc<PreparedDoc>,
    memo: &ScoreMemo,
    refs: &RefCache,
) -> SubmissionVerdict {
    let reference = refs.prepare(&problem.labeled_reference);
    let scores = score_pair_prepared(&reference, doc);
    let (verdict, answered) = judge(memo, doc, &problem.unit_test, false);
    assemble_verdict(
        problem,
        variant,
        &reference,
        doc,
        scores,
        verdict,
        answered == Answered::Cached,
    )
}

/// Scores a batch of submissions on the judge engine: each engine thread
/// takes the next submission and runs extraction, the one parse into a
/// [`PreparedDoc`], static scoring and the memo-aware unit test, then
/// `emit` fires **in completion order** (the submission's index makes
/// reassembly trivial). Verdicts are identical to calling
/// [`score_submission`] per item — only the schedule differs.
///
/// `gauges` exposes live per-stage occupancy to a serving layer; pass a
/// fresh [`StageGauges`] when nothing is watching.
pub fn score_submissions_stream<F>(
    submissions: &[Submission<'_>],
    workers: usize,
    memo: &ScoreMemo,
    refs: &RefCache,
    gauges: &StageGauges,
    emit: F,
) -> StreamStats
where
    F: Fn(usize, SubmissionVerdict) + Send + Sync,
{
    let stages = Stages::new();
    let executed = AtomicUsize::new(0);
    run_to_completion(submissions.len(), workers, |i, waited, scratch| {
        let sub = &submissions[i];
        let doc = stages.extract.time(waited, || {
            let _g = GaugeGuard::enter(&gauges.extracting);
            let yaml = match &sub.extracted {
                Some(done) => done.clone(),
                None => extract_yaml(&sub.raw),
            };
            PreparedDoc::new(yaml)
        });
        let (reference, scores) = stages.score.time(Duration::ZERO, || {
            let reference = refs.prepare(&sub.problem.labeled_reference);
            let _g = GaugeGuard::enter(&gauges.scoring);
            let scores = score_pair_prepared_with(&reference, &doc, scratch);
            (reference, scores)
        });
        let (verdict, answered) = {
            let _g = GaugeGuard::enter(&gauges.executing);
            judge(memo, &doc, &sub.problem.unit_test, false)
        };
        if answered == Answered::Executed {
            executed.fetch_add(1, Ordering::Relaxed);
        }
        gauges.completed.fetch_add(1, Ordering::Relaxed);
        emit(
            i,
            assemble_verdict(
                sub.problem,
                sub.variant,
                &reference,
                &doc,
                scores,
                verdict,
                answered == Answered::Cached,
            ),
        );
    });
    let executed = executed.into_inner();
    StreamStats {
        workers: workers.max(1),
        executed,
        cache_hits: submissions.len() - executed,
    }
}

/// Mean scores over records (a Table 4 row).
pub fn mean_scores(records: &[EvalRecord]) -> Scores {
    cescore::ScoreTable::aggregate(records.iter().map(|r| &r.scores)).mean
}

/// Count of unit-test passes.
pub fn pass_count(records: &[EvalRecord]) -> usize {
    records.iter().filter(|r| r.scores.unit_test > 0.5).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmsim::ModelProfile;
    use std::sync::{Arc, Mutex};

    fn quick_eval(model_name: &str, stride: usize) -> Vec<EvalRecord> {
        let dataset = Arc::new(Dataset::generate());
        let model = SimulatedModel::new(
            ModelProfile::by_name(model_name).unwrap(),
            Arc::clone(&dataset),
        );
        evaluate(
            &model,
            &dataset,
            &EvalOptions {
                stride,
                workers: 8,
                ..EvalOptions::default()
            },
        )
    }

    #[test]
    fn repair_spans_reconstruct_the_attempt_tree() {
        let dataset = Arc::new(Dataset::generate());
        let model = SimulatedModel::new(
            ModelProfile::by_name("llama-7b").unwrap(),
            Arc::clone(&dataset),
        );
        obs::spans().set_enabled(true);
        let report = evaluate_repair(
            &model,
            &dataset,
            &EvalOptions {
                stride: 40,
                workers: 4,
                ..EvalOptions::default()
            },
            1,
            FeedbackMode::Full,
        );
        obs::spans().set_enabled(false);
        let spans = obs::spans().drain();
        assert!(!report.traces.is_empty());
        // Every attempt root carries round + problem tags and owns
        // generate/extract/score children parented to it.
        let attempts: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "repair_attempt")
            .collect();
        assert!(!attempts.is_empty());
        for root in &attempts {
            assert_eq!(root.parent, 0);
            assert!(root.tags.iter().any(|(k, _)| *k == "round"));
            assert!(root.tags.iter().any(|(k, _)| *k == "problem"));
            for child in ["generate", "extract", "score"] {
                assert!(
                    spans.iter().any(|s| s.name == child
                        && s.parent == root.id
                        && s.trace == root.trace
                        && s.start_us >= root.start_us),
                    "missing {child} child for trace {:?}",
                    root.trace
                );
            }
        }
        // Verdict legs share the attempt's trace id and carry the
        // taxonomy bucket.
        let verdicts: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "repair_verdict")
            .collect();
        assert!(!verdicts.is_empty());
        for v in &verdicts {
            assert!(v.tags.iter().any(|(k, _)| *k == "bucket"));
            assert!(attempts.iter().any(|a| a.trace == v.trace));
        }
    }

    #[test]
    fn default_workers_tracks_hardware_within_bounds() {
        let w = default_workers();
        assert!((2..=32).contains(&w), "{w}");
        assert_eq!(EvalOptions::default().workers, w);
    }

    #[test]
    fn pipeline_produces_scored_records() {
        let records = quick_eval("gpt-4", 10); // 34 problems
        assert_eq!(records.len(), 34);
        for r in &records {
            let s = &r.scores;
            for v in [
                s.bleu,
                s.edit_distance,
                s.exact_match,
                s.kv_exact,
                s.kv_wildcard,
                s.unit_test,
            ] {
                assert!(
                    (0.0..=1.0).contains(&v),
                    "{v} out of range for {}",
                    r.problem_id
                );
            }
        }
        // GPT-4 passes a healthy share even on a subsample.
        let passes = pass_count(&records);
        assert!(passes >= 10, "gpt-4 passed only {passes}/34");
    }

    #[test]
    fn weak_model_rarely_passes() {
        let records = quick_eval("codellama-13b-instruct", 10);
        let passes = pass_count(&records);
        assert!(passes <= 4, "codellama passed {passes}/34");
    }

    #[test]
    fn passing_records_have_consistent_classification() {
        let records = quick_eval("gpt-3.5", 12);
        for r in &records {
            if r.scores.unit_test > 0.5 {
                assert_eq!(r.answer_class, AnswerCategory::Correct, "{}", r.problem_id);
            } else {
                assert_ne!(r.answer_class, AnswerCategory::Correct, "{}", r.problem_id);
            }
        }
    }

    #[test]
    fn metric_ordering_better_model_wins() {
        let strong = mean_scores(&quick_eval("gpt-4", 8));
        let weak = mean_scores(&quick_eval("llama-7b", 8));
        assert!(strong.unit_test > weak.unit_test);
        assert!(strong.bleu > weak.bleu);
        assert!(strong.kv_wildcard > weak.kv_wildcard);
    }

    #[test]
    fn streamed_matches_barriered_exactly() {
        let dataset = Arc::new(Dataset::generate());
        let model = SimulatedModel::new(
            ModelProfile::by_name("gpt-3.5").unwrap(),
            Arc::clone(&dataset),
        );
        let options = EvalOptions {
            stride: 15,
            workers: 4,
            variants: vec![Variant::Original, Variant::Translated],
            ..EvalOptions::default()
        };
        let streamed = evaluate(&model, &dataset, &options);
        let barriered = evaluate_barriered(&model, &dataset, &options);
        assert_eq!(streamed, barriered);
    }

    #[test]
    fn shared_ref_cache_parses_each_reference_once_per_session() {
        let dataset = Arc::new(Dataset::generate());
        let model = SimulatedModel::new(
            ModelProfile::by_name("gpt-4").unwrap(),
            Arc::clone(&dataset),
        );
        let refs = Arc::new(RefCache::new());
        let options = EvalOptions {
            stride: 20,
            workers: 4,
            variants: vec![Variant::Original, Variant::Translated],
            refs: Some(Arc::clone(&refs)),
            ..EvalOptions::default()
        };
        let first = evaluate(&model, &dataset, &options);
        // Variants share one labeled reference per problem: the cache
        // holds one entry per problem, not per (problem, variant).
        let problems = dataset.problems().iter().step_by(20).count();
        assert_eq!(refs.len(), problems);
        let second = evaluate(&model, &dataset, &options);
        assert_eq!(first, second);
        assert_eq!(refs.len(), problems, "re-run grew the ref cache");
    }

    #[test]
    fn submission_scores_match_direct_evaluation() {
        // Scoring a raw model response through the service entry point
        // must reproduce evaluate()'s records bit for bit.
        let dataset = Arc::new(Dataset::generate());
        let model = SimulatedModel::new(
            ModelProfile::by_name("gpt-3.5").unwrap(),
            Arc::clone(&dataset),
        );
        let options = EvalOptions {
            stride: 18,
            workers: 4,
            variants: vec![Variant::Original, Variant::Translated],
            ..EvalOptions::default()
        };
        let records = evaluate(&model, &dataset, &options);
        // Regenerate the same raw responses the run scored (generation is
        // deterministic per prompt/params).
        let (coords, prompts) = plan(&dataset, &options);
        let batch = llmsim::query_batch(&model, &prompts, &options.params, &options.query_config());
        let memo = ScoreMemo::new();
        let refs = RefCache::new();
        for (i, record) in records.iter().enumerate() {
            let (problem, variant) = coords[i];
            let verdict = score_submission(problem, variant, &batch.responses[i], &memo, &refs);
            assert_eq!(verdict.extracted, record.extracted, "{}", record.problem_id);
            assert_eq!(verdict.scores, record.scores, "{}", record.problem_id);
            assert_eq!(verdict.answer_class, record.answer_class);
            assert_eq!(verdict.problem_id, record.problem_id);
        }
    }

    #[test]
    fn repeat_submission_is_served_from_cache() {
        let dataset = Dataset::generate();
        let problem = &dataset.problems()[0];
        let raw = format!("```yaml\n{}```", problem.clean_reference());
        let memo = ScoreMemo::new();
        let refs = RefCache::new();
        let first = score_submission(problem, Variant::Original, &raw, &memo, &refs);
        assert!(!first.cached);
        let second = score_submission(problem, Variant::Original, &raw, &memo, &refs);
        assert!(second.cached);
        assert_eq!(first.scores, second.scores);
        assert_eq!(first.simulated_ms, second.simulated_ms);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn streamed_submissions_match_single_scoring() {
        let dataset = Dataset::generate();
        let problems = dataset.problems();
        // A mixed batch: references (pass), garbage (fail), duplicates
        // (dedup path).
        let mut submissions: Vec<Submission<'_>> = Vec::new();
        for (i, problem) in problems.iter().step_by(23).enumerate() {
            let raw = if i % 3 == 0 {
                "not yaml at all {{{".to_owned()
            } else {
                format!("```yaml\n{}```", problem.clean_reference())
            };
            submissions.push(Submission {
                problem,
                variant: Variant::Original,
                raw,
                extracted: None,
            });
        }
        let dup = submissions[1].clone();
        submissions.push(dup);

        let reference_memo = ScoreMemo::new();
        let reference_refs = RefCache::new();
        let want: Vec<SubmissionVerdict> = submissions
            .iter()
            .map(|sub| {
                score_submission(
                    sub.problem,
                    sub.variant,
                    &sub.raw,
                    &reference_memo,
                    &reference_refs,
                )
            })
            .collect();
        assert!(want.iter().any(|v| v.failure_bucket.is_some()));

        for workers in [1, 4, 16] {
            let gauges = StageGauges::new();
            let memo = ScoreMemo::new();
            let refs = RefCache::new();
            let collected: Mutex<Vec<Option<SubmissionVerdict>>> =
                Mutex::new(vec![None; submissions.len()]);
            let stats =
                score_submissions_stream(&submissions, workers, &memo, &refs, &gauges, |i, v| {
                    let slot = &mut collected.lock().unwrap()[i];
                    assert!(slot.is_none(), "duplicate emit for {i}");
                    *slot = Some(v);
                });
            assert_eq!(stats.executed + stats.cache_hits, submissions.len());
            assert!(stats.cache_hits >= 1, "duplicate should hit the dedup path");

            // Every stage drained; every submission judged exactly once.
            assert_eq!(
                (gauges.extracting(), gauges.scoring(), gauges.executing()),
                (0, 0, 0)
            );
            assert_eq!(gauges.completed(), submissions.len());

            let collected = collected.into_inner().unwrap();
            for ((sub, got), want) in submissions.iter().zip(collected).zip(&want) {
                let got = got.expect("emitted");
                let id = format!("{} at {workers} workers", sub.problem.id);
                // `cached` depends on arrival timing for in-batch
                // duplicates; everything that matters must agree.
                assert_eq!(got.scores, want.scores, "{id}");
                assert_eq!(got.extracted, want.extracted, "{id}");
                assert_eq!(got.passed, want.passed, "{id}");
                assert_eq!(got.simulated_ms, want.simulated_ms, "{id}");
                assert_eq!(got.answer_class, want.answer_class, "{id}");
                assert_eq!(got.failure_bucket, want.failure_bucket, "{id}");
                assert_eq!(got.score_issue, want.score_issue, "{id}");
            }
        }
    }

    #[test]
    fn empty_plan_returns_empty_output_without_hanging() {
        let dataset = Arc::new(Dataset::generate());
        let model = SimulatedModel::new(
            ModelProfile::by_name("gpt-4").unwrap(),
            Arc::clone(&dataset),
        );
        let options = EvalOptions {
            variants: vec![],
            workers: 4,
            ..EvalOptions::default()
        };
        assert!(evaluate(&model, &dataset, &options).is_empty());
        let report = evaluate_repair(&model, &dataset, &options, 2, FeedbackMode::Full);
        assert_eq!(report.total(), 0);
        let gauges = StageGauges::new();
        let stats = score_submissions_stream(
            &[],
            4,
            &ScoreMemo::new(),
            &RefCache::new(),
            &gauges,
            |i, _| panic!("emitted {i} for an empty batch"),
        );
        assert_eq!((stats.executed, stats.cache_hits), (0, 0));
        assert_eq!(gauges.completed(), 0);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn panicking_stage_fails_the_run_instead_of_hanging() {
        // One of eight items panics on a two-thread pool: the other thread
        // finishes the rest, and the run fails instead of hanging.
        let _: Vec<usize> = run_to_completion(8, 2, |index, _, _| {
            assert_ne!(index, 3, "extract failed on item {index}");
            index
        });
    }

    #[test]
    fn engine_runs_every_item_once_in_index_order() {
        for (items, workers) in [(0, 4), (1, 4), (7, 1), (50, 3)] {
            let ran = AtomicUsize::new(0);
            let out = run_to_completion(items, workers, |index, _, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                index * 2
            });
            assert_eq!(out, (0..items).map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(ran.into_inner(), items);
        }
    }

    #[test]
    fn shared_memo_eliminates_reexecution_across_runs() {
        let dataset = Arc::new(Dataset::generate());
        let model = SimulatedModel::new(
            ModelProfile::by_name("gpt-4").unwrap(),
            Arc::clone(&dataset),
        );
        let memo = Arc::new(ScoreMemo::new());
        let options = EvalOptions {
            stride: 20,
            workers: 4,
            memo: Some(Arc::clone(&memo)),
            ..EvalOptions::default()
        };
        let first = evaluate(&model, &dataset, &options);
        let stored_after_first = memo.len();
        assert!(stored_after_first > 0, "memo never populated");
        let second = evaluate(&model, &dataset, &options);
        assert_eq!(first, second);
        // Deterministic generation → identical candidates → the second
        // run adds nothing new to the memo.
        assert_eq!(memo.len(), stored_after_first);
    }
}
