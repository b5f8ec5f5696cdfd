//! The parallel unit-test executor: the live counterpart of §3.3's
//! "Scalable Evaluation Cluster".
//!
//! [`run_jobs_stream`] pulls `(record_index, job)` pairs from a channel
//! as they arrive, executes them on a fresh [`substrate::ShellSubstrate`]
//! sandbox, and judges each through the content-addressed score memo's
//! single flight ([`ScoreMemo::single_flight`]) so identical
//! `(candidate, script)` pairs — ubiquitous under pass@k sampling —
//! execute exactly once. [`run_jobs_cached`] (and [`run_jobs`], with a
//! run-local memo) is its batch form: it queues a slice of jobs into the
//! stream and collects the results back into input order. The harness's
//! judge engine calls the same single flight with [`execute_uncached`]
//! from its own threads, so every driver dedups by one rule.
//!
//! Every job gets a freshly prepared substrate environment, so tests are
//! hermetic — the clean-environment guarantee the paper gets from tearing
//! clusters down between problems.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use substrate::{content_hash, ShellSubstrate};
use yamlkit::PreparedDoc;

use crate::memo::{Answered, CachedVerdict, ScoreMemo};

/// The candidate side of a job: either raw text (the pre-refactor shape,
/// parsed by every layer that touches it) or a parse-once
/// [`PreparedDoc`] shared with the scoring stage by `Arc`.
#[derive(Debug, Clone)]
enum Candidate {
    /// Raw YAML text; hashed per memo lookup and re-parsed by the
    /// substrate layers, exactly like the seed pipeline. The barriered
    /// reference grid driver submits its candidates this way.
    Text(String),
    /// Pre-parsed document: hash cached, parse shared with every layer.
    Prepared(Arc<PreparedDoc>),
}

/// One unit-test job.
#[derive(Debug, Clone)]
pub struct UnitTestJob {
    /// Problem identifier.
    pub problem_id: String,
    /// The bash unit-test script.
    pub script: String,
    candidate: Candidate,
    retry: bool,
}

impl PartialEq for UnitTestJob {
    /// Jobs are equal when their observable inputs are — the candidate
    /// representation (text vs prepared) and the retry flag change
    /// scheduling cost, never the verdict.
    fn eq(&self, other: &Self) -> bool {
        self.problem_id == other.problem_id
            && self.script == other.script
            && self.candidate_yaml() == other.candidate_yaml()
    }
}

impl Eq for UnitTestJob {}

impl UnitTestJob {
    /// A job over raw candidate text (the seed pipeline's shape: every
    /// downstream layer parses the text itself).
    pub fn new(
        problem_id: impl Into<String>,
        script: impl Into<String>,
        candidate_yaml: impl Into<String>,
    ) -> UnitTestJob {
        UnitTestJob {
            problem_id: problem_id.into(),
            script: script.into(),
            candidate: Candidate::Text(candidate_yaml.into()),
            retry: false,
        }
    }

    /// A job over a parse-once prepared candidate: the substrate consumes
    /// the shared parsed documents instead of re-parsing, and the memo
    /// key reads the cached content hash.
    pub fn prepared(
        problem_id: impl Into<String>,
        script: impl Into<String>,
        candidate: Arc<PreparedDoc>,
    ) -> UnitTestJob {
        UnitTestJob {
            problem_id: problem_id.into(),
            script: script.into(),
            candidate: Candidate::Prepared(candidate),
            retry: false,
        }
    }

    /// Marks this job as a deliberate resubmission of a previously-judged
    /// candidate (a repair-loop retry). Retry jobs treat a memoized
    /// **retryable** failure ([`CachedVerdict::retryable_failure`]) as
    /// stale and re-execute; every other memoized verdict — passes and
    /// deterministic failures alike — is still served from cache, so
    /// resubmitting a candidate the taxonomy proves broken stays free.
    #[must_use]
    pub fn retry(mut self) -> UnitTestJob {
        self.retry = true;
        self
    }

    /// Whether this job is a repair-loop resubmission (see
    /// [`UnitTestJob::retry`]).
    pub fn is_retry(&self) -> bool {
        self.retry
    }

    /// The candidate YAML text (whatever the representation).
    pub fn candidate_yaml(&self) -> &str {
        match &self.candidate {
            Candidate::Text(text) => text,
            Candidate::Prepared(doc) => doc.text(),
        }
    }

    /// Whether the candidate travels in parse-once prepared form.
    pub fn is_prepared(&self) -> bool {
        matches!(self.candidate, Candidate::Prepared(_))
    }

    /// The content-addressed memo key for this job. Prepared candidates
    /// read their cached hash; text candidates hash on every call (the
    /// pre-refactor behavior).
    pub fn memo_key(&self) -> (u64, u64) {
        let candidate_hash = match &self.candidate {
            Candidate::Text(text) => content_hash(text),
            Candidate::Prepared(doc) => doc.content_hash(),
        };
        (candidate_hash, content_hash(&self.script))
    }

    /// Executes this job hermetically (no memo involved).
    fn execute(&self) -> CachedVerdict {
        match &self.candidate {
            Candidate::Text(text) => execute_uncached_text(text, &self.script),
            Candidate::Prepared(doc) => execute_uncached(doc, &self.script),
        }
    }
}

/// Result of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// Problem identifier.
    pub problem_id: String,
    /// Did the transcript contain `unit_test_passed`?
    pub passed: bool,
    /// Simulated in-cluster seconds the test consumed (sleeps + waits).
    pub simulated_ms: u64,
    /// Which worker ran it. A result this job did not execute — a memo
    /// hit, or a wait for a concurrent execution of the same key —
    /// reports 0.
    pub worker: usize,
    /// Taxonomy classification when the job failed (`None` on a pass).
    pub diagnosis: Option<substrate::taxonomy::Diagnosis>,
}

/// Outcome of a full run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-job results, in input order.
    pub results: Vec<JobResult>,
    /// Real wall-clock time of the parallel run.
    pub wall: Duration,
    /// Worker count used.
    pub workers: usize,
    /// Jobs that actually executed on a substrate.
    pub executed: usize,
    /// Jobs answered from the score memo / in-run deduplication.
    pub cache_hits: usize,
}

impl RunReport {
    /// Number of passed jobs.
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.passed).count()
    }
}

/// Executes one prepared candidate hermetically on a fresh shell
/// substrate and maps the outcome to a verdict: the substrate consumes
/// the candidate's one-and-only parse (the sandbox cluster is primed, so
/// the script's `kubectl apply` skips its parse too). Candidate faults
/// and probe failures both score 0 — the seed path's "interpreter error
/// counts as failure" policy. The scheduler and the service layer's
/// single-submission path share this one mapping.
pub fn execute_uncached(candidate: &PreparedDoc, script: &str) -> CachedVerdict {
    outcome_to_verdict(ShellSubstrate::new().execute_prepared(candidate, script))
}

/// [`execute_uncached`] over raw candidate text: every substrate layer
/// parses the text itself, exactly like the seed pipeline. Text jobs
/// ([`UnitTestJob::new`], which the barriered reference grid driver
/// submits) run through it, and the parse-once path is checked against it.
pub fn execute_uncached_text(candidate_yaml: &str, script: &str) -> CachedVerdict {
    outcome_to_verdict(ShellSubstrate::new().execute(candidate_yaml, script))
}

fn outcome_to_verdict(
    result: Result<substrate::ExecOutcome, substrate::ExecError>,
) -> CachedVerdict {
    let diagnosis = substrate::taxonomy::classify_result(&result);
    match result {
        Ok(outcome) => CachedVerdict {
            passed: outcome.passed,
            simulated_ms: outcome.simulated_ms,
            diagnosis,
        },
        Err(_) => CachedVerdict {
            passed: false,
            simulated_ms: 0,
            diagnosis,
        },
    }
}

/// Runs all jobs over `workers` threads; results come back in input
/// order. Uses a run-local score memo — see [`run_jobs_cached`] to share
/// a memo across runs.
pub fn run_jobs(jobs: &[UnitTestJob], workers: usize) -> RunReport {
    run_jobs_cached(jobs, workers, &ScoreMemo::new())
}

/// Like [`run_jobs`], with a caller-owned [`ScoreMemo`] so verdicts carry
/// over between batches (pass@k sweeps, resumed grids).
///
/// The batch form of [`run_jobs_stream`]: every job is queued up front,
/// the scheduler runs them, and the results are collected back into
/// input order. The first occurrence of a `(candidate, script)` key
/// executes; every other occurrence — in-batch duplicate or cross-batch
/// memo hit — is answered from cache without touching a substrate
/// (apart from the retry rule of [`UnitTestJob::retry`]).
pub fn run_jobs_cached(jobs: &[UnitTestJob], workers: usize, memo: &ScoreMemo) -> RunReport {
    let start = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    for (i, job) in jobs.iter().enumerate() {
        tx.send((i, job.clone()))
            .expect("receiver outlives the feed");
    }
    drop(tx);
    let slots: Vec<OnceLock<JobResult>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let stats = run_jobs_stream(
        rx,
        workers.clamp(1, jobs.len().max(1)),
        memo,
        |i, result| {
            slots[i].set(result).expect("job answered twice");
        },
    );
    RunReport {
        results: slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("stream dropped a job"))
            .collect(),
        wall: start.elapsed(),
        // The requested pool width (the stream runs fewer threads when
        // there are fewer jobs than workers).
        workers: workers.max(1),
        executed: stats.executed,
        cache_hits: stats.cache_hits,
    }
}

/// Aggregate statistics of a [`run_jobs_stream`] run (the stream has no
/// materialized result vector to hang a [`RunReport`] on — results left
/// through the `emit` callback as they completed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs that actually executed on a substrate.
    pub executed: usize,
    /// Jobs answered from the memo or by waiting for an in-flight
    /// execution of the same key.
    pub cache_hits: usize,
}

/// The unit-test scheduler: consumes `(record_index, job)` pairs from a
/// channel **as they arrive** — no full `&[UnitTestJob]` slice required —
/// and emits each `(record_index, JobResult)` the moment its verdict is
/// known. [`run_jobs_cached`] is its batch form.
///
/// Every job is judged through [`ScoreMemo::single_flight`]: a memo hit
/// answers without executing, the first arrival of a `(candidate,
/// script)` key executes, and an arrival while that execution is in
/// flight waits for its verdict. Identical candidates therefore execute
/// exactly once per memo lifetime. `emit` is called from worker threads,
/// concurrently and in completion order.
///
/// Returns once the channel disconnects (all senders dropped) and every
/// received job has been answered.
pub fn run_jobs_stream<F>(
    jobs: std::sync::mpsc::Receiver<(usize, UnitTestJob)>,
    workers: usize,
    memo: &ScoreMemo,
    emit: F,
) -> StreamStats
where
    F: Fn(usize, JobResult) + Send + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let workers = workers.max(1);
    let input = Mutex::new(jobs);
    let executed = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (input, executed, answered, emit) = (&input, &executed, &answered, &emit);
            scope.spawn(move || loop {
                let received = input.lock().expect("stream input poisoned").recv();
                let Ok((idx, job)) = received else { break };
                let (verdict, how) =
                    memo.single_flight(job.memo_key(), job.is_retry(), || job.execute());
                let worker = match how {
                    Answered::Executed => {
                        executed.fetch_add(1, Ordering::Relaxed);
                        w
                    }
                    Answered::Cached => 0,
                };
                answered.fetch_add(1, Ordering::Relaxed);
                emit(
                    idx,
                    JobResult {
                        problem_id: job.problem_id,
                        passed: verdict.passed,
                        simulated_ms: verdict.simulated_ms,
                        worker,
                        diagnosis: verdict.diagnosis,
                    },
                );
            });
        }
    });
    let executed = executed.into_inner();
    StreamStats {
        workers,
        executed,
        cache_hits: answered.into_inner() - executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn sample_jobs(n: usize) -> Vec<UnitTestJob> {
        let script = "kubectl apply -f labeled_code.yaml\nkubectl wait --for=condition=Ready pod -l app=t --timeout=60s && echo unit_test_passed";
        (0..n)
            .map(|i| {
                // Distinct pod names keep the jobs content-distinct, like
                // real problems (identical candidates are a cache test).
                // Alternate candidate representations so the scheduler is
                // exercised on both the text and the parse-once path.
                let yaml = format!("apiVersion: v1\nkind: Pod\nmetadata:\n  name: web-{i}\n  labels:\n    app: t\nspec:\n  containers:\n  - name: c\n    image: nginx\n");
                if i % 2 == 0 {
                    UnitTestJob::new(format!("p{i}"), script, yaml)
                } else {
                    UnitTestJob::prepared(format!("p{i}"), script, PreparedDoc::shared(yaml))
                }
            })
            .collect()
    }

    #[test]
    fn all_jobs_complete_and_pass() {
        let jobs = sample_jobs(24);
        let report = run_jobs(&jobs, 4);
        assert_eq!(report.results.len(), 24);
        assert_eq!(report.passed(), 24);
        assert_eq!(report.executed, 24);
        assert_eq!(report.cache_hits, 0);
        // Results ordered by input.
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.problem_id, format!("p{i}"));
            assert!(r.simulated_ms > 0);
        }
    }

    #[test]
    fn failing_candidate_fails() {
        let mut jobs = sample_jobs(3);
        jobs[1] = UnitTestJob::new(
            "p1",
            jobs[1].script.clone(),
            "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: x\n",
        );
        let report = run_jobs(&jobs, 2);
        assert!(report.results[0].passed);
        assert!(!report.results[1].passed);
        assert!(report.results[2].passed);
    }

    #[test]
    fn work_spreads_across_workers() {
        let jobs = sample_jobs(200);
        let report = run_jobs(&jobs, 4);
        let distinct: std::collections::HashSet<usize> =
            report.results.iter().map(|r| r.worker).collect();
        assert!(
            distinct.len() >= 2,
            "expected multiple workers, got {distinct:?}"
        );
        assert_eq!(report.passed(), 200);
    }

    #[test]
    fn single_worker_works() {
        let jobs = sample_jobs(5);
        let report = run_jobs(&jobs, 1);
        assert_eq!(report.passed(), 5);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn empty_job_list() {
        let report = run_jobs(&[], 4);
        assert!(report.results.is_empty());
        assert_eq!(report.executed, 0);
    }

    #[test]
    fn identical_candidates_execute_once() {
        // 24 copies of the same (candidate, script): one execution, 23
        // cache hits, identical verdicts in input order.
        let mut jobs = sample_jobs(1);
        let template = jobs[0].clone();
        for i in 1..24 {
            let mut dup = template.clone();
            dup.problem_id = format!("dup{i}");
            jobs.push(dup);
        }
        let report = run_jobs(&jobs, 4);
        assert_eq!(report.executed, 1);
        assert_eq!(report.cache_hits, 23);
        assert_eq!(report.passed(), 24);
        assert_eq!(report.results[23].problem_id, "dup23");
    }

    #[test]
    fn text_and_prepared_candidates_share_keys_and_verdicts() {
        let jobs = sample_jobs(2);
        let text = UnitTestJob::new("t", jobs[0].script.clone(), jobs[0].candidate_yaml());
        let prepared = UnitTestJob::prepared(
            "t",
            jobs[0].script.clone(),
            PreparedDoc::shared(jobs[0].candidate_yaml()),
        );
        // Same content → same memo key (cross-representation dedup) and
        // the same verdict from either execution path.
        assert_eq!(text.memo_key(), prepared.memo_key());
        assert_eq!(text, prepared);
        assert!(!text.is_prepared());
        assert!(prepared.is_prepared());
        let vt = execute_uncached_text(text.candidate_yaml(), &text.script);
        let vp = execute_uncached(&PreparedDoc::new(text.candidate_yaml()), &text.script);
        assert_eq!(vt, vp);
        assert!(vt.passed);
        // Garbage candidates agree too (typed invalid-input on both).
        let garbage = "not yaml {{{";
        assert_eq!(
            execute_uncached_text(garbage, &text.script),
            execute_uncached(&PreparedDoc::new(garbage), &text.script),
        );
    }

    #[test]
    fn memo_carries_across_runs() {
        let memo = ScoreMemo::new();
        let jobs = sample_jobs(6);
        let first = run_jobs_cached(&jobs, 2, &memo);
        assert_eq!(first.executed, 6);
        let second = run_jobs_cached(&jobs, 2, &memo);
        assert_eq!(second.executed, 0);
        assert_eq!(second.cache_hits, 6);
        assert_eq!(first.passed(), second.passed());
    }

    /// A pod that deploys fine while the check waits on a label no pod
    /// carries — the wait runs out its deadline (`ProbeTimeout`,
    /// retryable).
    fn timeout_job() -> UnitTestJob {
        UnitTestJob::new(
            "timeout",
            "kubectl apply -f labeled_code.yaml\nkubectl wait --for=condition=Ready pod -l app=ghost --timeout=30s && echo unit_test_passed",
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n  labels:\n    app: t\nspec:\n  containers:\n  - name: c\n    image: nginx\n",
        )
    }

    /// A pod with an unknown field — strict decoding rejects it
    /// (`SchemaViolation`, deterministic: never retryable).
    fn schema_job() -> UnitTestJob {
        UnitTestJob::new(
            "schema",
            "kubectl apply -f labeled_code.yaml && echo unit_test_passed",
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containerz: []\n",
        )
    }

    #[test]
    fn retry_jobs_reexecute_only_retryable_failures() {
        let memo = ScoreMemo::new();
        let jobs = [timeout_job(), schema_job()];
        let first = run_jobs_cached(&jobs, 2, &memo);
        assert_eq!(first.executed, 2);
        assert_eq!(first.passed(), 0);
        assert_eq!(
            first.results[0].diagnosis.as_ref().map(|d| d.bucket),
            Some(substrate::taxonomy::Bucket::ProbeTimeout)
        );
        assert_eq!(
            first.results[1].diagnosis.as_ref().map(|d| d.bucket),
            Some(substrate::taxonomy::Bucket::SchemaViolation)
        );

        // Plain resubmission: everything is a memo hit (unchanged policy).
        let warm = run_jobs_cached(&jobs, 2, &memo);
        assert_eq!((warm.executed, warm.cache_hits), (0, 2));

        // Repair resubmission: the retryable timeout re-executes, the
        // deterministic schema fault is still answered from the memo.
        let retries = [timeout_job().retry(), schema_job().retry()];
        assert!(retries.iter().all(UnitTestJob::is_retry));
        let retried = run_jobs_cached(&retries, 2, &memo);
        assert_eq!((retried.executed, retried.cache_hits), (1, 1));
        // Diagnoses ride along either way.
        assert!(retried.results.iter().all(|r| r.diagnosis.is_some()));
    }

    #[test]
    fn stream_engine_retry_semantics_match_batch() {
        let memo = ScoreMemo::new();
        run_jobs_cached(&[timeout_job(), schema_job()], 2, &memo);

        let (tx, rx) = std::sync::mpsc::channel();
        tx.send((0, timeout_job().retry())).unwrap();
        tx.send((1, schema_job().retry())).unwrap();
        drop(tx);
        let results = Mutex::new(vec![None, None]);
        let stats = run_jobs_stream(rx, 2, &memo, |idx, result| {
            results.lock().unwrap()[idx] = Some(result);
        });
        assert_eq!((stats.executed, stats.cache_hits), (1, 1));
        let results = results.into_inner().unwrap();
        let timeout = results[0].as_ref().expect("timeout retry answered");
        let schema = results[1].as_ref().expect("schema retry answered");
        assert!(!timeout.passed && !schema.passed);
        assert_eq!(
            schema.diagnosis.as_ref().map(|d| d.bucket),
            Some(substrate::taxonomy::Bucket::SchemaViolation)
        );
    }

    #[test]
    fn sharded_and_queue_engines_agree() {
        // The batch entry point (every job queued up front) and the stream
        // fed job by job through a bounded queue by a concurrent producer
        // give the same verdicts, in the same order.
        let mut jobs = sample_jobs(12);
        jobs[4] = UnitTestJob::new(
            "p4",
            jobs[4].script.clone(),
            "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: x\n",
        );
        jobs[9] = UnitTestJob::prepared(
            "p9",
            jobs[9].script.clone(),
            PreparedDoc::shared("not yaml {{{"),
        );
        let sharded = run_jobs(&jobs, 3);
        let queue = Mutex::new(vec![None; jobs.len()]);
        let (tx, rx) = std::sync::mpsc::sync_channel(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (i, job) in jobs.iter().cloned().enumerate() {
                    tx.send((i, job)).unwrap();
                }
                drop(tx);
            });
            run_jobs_stream(rx, 3, &ScoreMemo::new(), |i, result| {
                queue.lock().unwrap()[i] = Some(result);
            });
        });
        let queue: Vec<JobResult> = queue
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|r| r.expect("queue dropped a job"))
            .collect();
        assert_eq!(sharded.results.len(), queue.len());
        assert!(!sharded.results[4].passed && !sharded.results[9].passed);
        for (a, b) in sharded.results.iter().zip(&queue) {
            assert_eq!(a.problem_id, b.problem_id);
            assert_eq!(a.passed, b.passed, "{}", a.problem_id);
            assert_eq!(a.simulated_ms, b.simulated_ms, "{}", a.problem_id);
        }
    }

    #[test]
    fn mixed_retry_batch_executes_a_stale_key_once_in_either_order() {
        // A plain job and a retry of the same key in one batch: the plain
        // job trusts the memoized retryable failure, the retry re-executes
        // it, and the two answers agree whichever comes first.
        let mut verdicts = Vec::new();
        for jobs in [
            [timeout_job(), timeout_job().retry()],
            [timeout_job().retry(), timeout_job()],
        ] {
            let memo = ScoreMemo::new();
            run_jobs_cached(&[timeout_job()], 1, &memo);
            let report = run_jobs_cached(&jobs, 2, &memo);
            assert_eq!((report.executed, report.cache_hits), (1, 1));
            for r in report.results {
                assert_eq!(
                    r.diagnosis.as_ref().map(|d| d.bucket),
                    Some(substrate::taxonomy::Bucket::ProbeTimeout)
                );
                verdicts.push((r.passed, r.simulated_ms, r.diagnosis));
            }
        }
        assert!(verdicts.iter().all(|v| *v == verdicts[0]), "{verdicts:?}");
    }
}
