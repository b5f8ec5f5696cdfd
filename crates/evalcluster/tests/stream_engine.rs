//! The unit-test scheduler, streamed and batched, against the memo-free
//! serial reference and against each other: verdict and diagnosis
//! agreement under mixed pass/fail workloads, in-flight deduplication,
//! and skewed arrival pacing.

use std::sync::mpsc::sync_channel;
use std::sync::Mutex;
use std::time::Duration;

use evalcluster::executor::{
    execute_uncached_text, run_jobs, run_jobs_stream, JobResult, UnitTestJob,
};
use evalcluster::memo::ScoreMemo;

fn sample_jobs(n: usize) -> Vec<UnitTestJob> {
    let script = "kubectl apply -f labeled_code.yaml\nkubectl wait --for=condition=Ready pod -l app=t --timeout=60s && echo unit_test_passed";
    (0..n)
        .map(|i| {
            // Alternate text and parse-once candidates so the stream
            // engine is exercised on both representations.
            let yaml = format!(
                "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web-{i}\n  labels:\n    app: t\nspec:\n  containers:\n  - name: c\n    image: nginx\n"
            );
            if i % 2 == 0 {
                UnitTestJob::new(format!("p{i}"), script, yaml)
            } else {
                UnitTestJob::prepared(format!("p{i}"), script, yamlkit::PreparedDoc::shared(yaml))
            }
        })
        .collect()
}

/// Drives `jobs` through the streaming engine, optionally sleeping
/// `feed_gap` between sends to model a skewed/slow producer, and returns
/// the results in record-index order plus the stream stats.
fn stream_all(
    jobs: &[UnitTestJob],
    workers: usize,
    memo: &ScoreMemo,
    feed_gap: Option<Duration>,
) -> (Vec<JobResult>, evalcluster::StreamStats) {
    let slots: Mutex<Vec<Option<JobResult>>> = Mutex::new(vec![None; jobs.len()]);
    let (tx, rx) = sync_channel::<(usize, UnitTestJob)>(4);
    let stats = std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, job) in jobs.iter().cloned().enumerate() {
                if let Some(gap) = feed_gap {
                    std::thread::sleep(gap);
                }
                tx.send((i, job)).expect("stream consumer hung up early");
            }
        });
        run_jobs_stream(rx, workers, memo, |i, result| {
            let mut slots = slots.lock().unwrap();
            assert!(slots[i].is_none(), "record {i} answered twice");
            slots[i] = Some(result);
        })
    });
    let results = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("stream dropped a record"))
        .collect();
    (results, stats)
}

#[test]
fn scheduler_agrees_with_serial_reference_on_mixed_verdicts() {
    // Passing pods, a ConfigMap that fails the pod wait, and unparseable
    // YAML, each in both text and prepared form.
    let mut jobs = sample_jobs(18);
    jobs[3] = UnitTestJob::new(
        "p3",
        jobs[3].script.clone(),
        "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: x\n",
    );
    jobs[6] = UnitTestJob::new("p6", jobs[6].script.clone(), "not yaml {{{");
    jobs[9] = UnitTestJob::prepared(
        "p9",
        jobs[9].script.clone(),
        yamlkit::PreparedDoc::shared("apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: x\n"),
    );
    jobs[11] = UnitTestJob::prepared(
        "p11",
        jobs[11].script.clone(),
        yamlkit::PreparedDoc::shared("not yaml {{{"),
    );
    let reference: Vec<_> = jobs
        .iter()
        .map(|job| execute_uncached_text(job.candidate_yaml(), &job.script))
        .collect();
    assert_eq!(reference.iter().filter(|v| !v.passed).count(), 4);
    for workers in [1, 2, 4] {
        let batch = run_jobs(&jobs, workers);
        let (streamed, stats) = stream_all(&jobs, workers, &ScoreMemo::new(), None);
        // The two representations of each failure share one memo key.
        assert_eq!((batch.executed, batch.cache_hits), (16, 2));
        assert_eq!((stats.executed, stats.cache_hits), (16, 2));
        for (engine, results) in [("batch", &batch.results), ("stream", &streamed)] {
            assert_eq!(results.len(), jobs.len());
            for ((r, job), v) in results.iter().zip(&jobs).zip(&reference) {
                let at = format!("{engine} at {workers} workers, {}", job.problem_id);
                assert_eq!(r.problem_id, job.problem_id, "{at}");
                assert_eq!(r.passed, v.passed, "{at}");
                assert_eq!(r.simulated_ms, v.simulated_ms, "{at}");
                assert_eq!(r.diagnosis, v.diagnosis, "{at}");
            }
        }
    }
}

#[test]
fn stream_agrees_with_batch_engine_on_mixed_verdicts() {
    let mut jobs = sample_jobs(18);
    jobs[3] = UnitTestJob::new(
        "p3",
        jobs[3].script.clone(),
        "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: x\n",
    );
    jobs[11] = UnitTestJob::prepared(
        "p11",
        jobs[11].script.clone(),
        yamlkit::PreparedDoc::shared("not yaml {{{"),
    );
    let batch = run_jobs(&jobs, 4);
    let (streamed, stats) = stream_all(&jobs, 4, &ScoreMemo::new(), None);
    assert_eq!(streamed.len(), batch.results.len());
    for (s, b) in streamed.iter().zip(&batch.results) {
        assert_eq!(s.problem_id, b.problem_id);
        assert_eq!(s.passed, b.passed, "{}", s.problem_id);
        assert_eq!(s.simulated_ms, b.simulated_ms, "{}", s.problem_id);
    }
    assert_eq!(stats.executed, 18);
    assert_eq!(stats.cache_hits, 0);
}

#[test]
fn stream_deduplicates_identical_candidates() {
    // 30 records, only 3 distinct (candidate, script) keys: each key must
    // execute exactly once whether its duplicates arrive while it is in
    // flight or after it landed in the memo.
    let distinct = sample_jobs(3);
    let jobs: Vec<UnitTestJob> = (0..30)
        .map(|i| {
            let mut dup = distinct[i % 3].clone();
            dup.problem_id = format!("dup{i}");
            dup
        })
        .collect();
    let memo = ScoreMemo::new();
    let (results, stats) = stream_all(&jobs, 4, &memo, None);
    assert_eq!(stats.executed, 3);
    assert_eq!(stats.cache_hits, 27);
    assert!(results.iter().all(|r| r.passed));
    assert_eq!(memo.len(), 3);
    // A second streamed run over the same memo executes nothing.
    let (_, warm) = stream_all(&jobs, 4, &memo, None);
    assert_eq!(warm.executed, 0);
    assert_eq!(warm.cache_hits, 30);
}

#[test]
fn stream_survives_skewed_arrival_pacing() {
    // A slow producer (1 ms between sends) must not wedge or starve the
    // consumer pool: every record is still answered exactly once, with
    // verdicts identical to an instantaneous feed.
    let jobs = sample_jobs(24);
    let (paced, _) = stream_all(&jobs, 4, &ScoreMemo::new(), Some(Duration::from_millis(1)));
    let (instant, _) = stream_all(&jobs, 4, &ScoreMemo::new(), None);
    for (a, b) in paced.iter().zip(&instant) {
        assert_eq!(a.problem_id, b.problem_id);
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.simulated_ms, b.simulated_ms);
    }
}
