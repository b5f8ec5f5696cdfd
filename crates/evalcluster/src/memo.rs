//! Content-addressed score memoization.
//!
//! Substrate execution is deterministic: the same candidate YAML run
//! against the same unit-test script on a fresh environment always yields
//! the same verdict. [`ScoreMemo`] exploits that to make repeated
//! generations free — pass@k sampling re-produces identical candidates
//! constantly (strong models converge on the same answer; weak models
//! repeat the same boilerplate), and the three dataset variants of one
//! problem share a unit test, so identical extracted YAML across variants
//! also collapses to one execution.
//!
//! Keys are [`substrate::content_hash`] pairs over `(candidate, script)`
//! — the script hash carries the problem identity (each problem's
//! generated unit test embeds its own names, labels and ports), and the
//! candidate hash the extracted YAML, so the key is exactly the
//! issue-level `(extracted_yaml_hash, problem, variant)` contract with
//! variant-level sharing as a bonus.
//!
//! [`save`]/[`load`] persist a memo as JSONL (one verdict per line,
//! encoded with [`yamlkit::json::to_json`] and decoded through the YAML
//! parser — the same wire format the `ceserve` HTTP layer speaks), so a
//! long-lived benchmark service keeps its verdicts across restarts.

use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

use substrate::content_hash;
use substrate::taxonomy::{Bucket, Diagnosis};
use yamlkit::ymap;

/// A memoized execution verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedVerdict {
    /// Did the unit test pass?
    pub passed: bool,
    /// Simulated in-substrate milliseconds of the original execution.
    pub simulated_ms: u64,
    /// Taxonomy classification of the failure; `None` for passing
    /// verdicts and for verdicts loaded from stores written before the
    /// taxonomy existed.
    pub diagnosis: Option<Diagnosis>,
}

impl CachedVerdict {
    /// A passing or failing verdict with no diagnosis (test helper and
    /// pre-taxonomy constructor shape).
    pub fn bare(passed: bool, simulated_ms: u64) -> CachedVerdict {
        CachedVerdict {
            passed,
            simulated_ms,
            diagnosis: None,
        }
    }

    /// Whether this is a failure whose taxonomy bucket says resubmission
    /// could plausibly change the verdict ([`Bucket::retryable`]). A
    /// failure with no diagnosis is conservatively retryable — it is
    /// indistinguishable from [`Bucket::Unknown`].
    pub fn retryable_failure(&self) -> bool {
        !self.passed && self.diagnosis.as_ref().is_none_or(|d| d.bucket.retryable())
    }
}

/// Thread-safe content-addressed cache of unit-test verdicts.
///
/// Shareable across [`run_jobs`](crate::executor::run_jobs) calls (e.g.
/// one memo for a whole pass@k sweep) via `&ScoreMemo`.
///
/// # Examples
///
/// ```
/// use evalcluster::memo::{CachedVerdict, ScoreMemo};
///
/// let memo = ScoreMemo::new();
/// let key = ScoreMemo::key("kind: Pod\n", "echo unit_test_passed");
/// assert!(memo.get(key).is_none());
/// memo.insert(key, CachedVerdict::bare(true, 12));
/// assert_eq!(memo.get(key).unwrap().passed, true);
/// assert_eq!(memo.hits(), 1);
/// ```
#[derive(Debug, Default)]
pub struct ScoreMemo {
    map: Mutex<HashMap<(u64, u64), CachedVerdict>>,
    /// Keys executing right now under [`ScoreMemo::single_flight`].
    flights: Mutex<HashMap<(u64, u64), Arc<Flight>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    stale_retries: AtomicUsize,
}

/// One in-flight execution: its outcome once it lands (`Some(None)` when
/// the executing call panicked) and the condvar its waiters park on.
#[derive(Debug, Default)]
struct Flight {
    landed: Mutex<Option<Option<CachedVerdict>>>,
    done: Condvar,
}

/// How [`ScoreMemo::single_flight`] answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answered {
    /// From the memo, or by waiting for a concurrent caller's execution.
    Cached,
    /// By running the caller's execution.
    Executed,
}

/// Lands a claimed flight when dropped: removes the key from the flight
/// table and hands the outcome to every waiter. Dropped during a panic,
/// it lands `None`, so a waiter claims the key itself instead of
/// blocking forever.
struct Landing<'m> {
    memo: &'m ScoreMemo,
    key: (u64, u64),
    flight: Arc<Flight>,
    verdict: Option<CachedVerdict>,
}

impl Drop for Landing<'_> {
    fn drop(&mut self) {
        self.memo
            .flights
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        // Only waiters hold another handle, and none can join once the
        // key has left the table.
        if Arc::strong_count(&self.flight) > 1 {
            *self
                .flight
                .landed
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(self.verdict.take());
            self.flight.done.notify_all();
        }
    }
}

/// Process-wide memo traffic counters in the global obs registry,
/// resolved once so the lookup path pays only atomic increments.
fn obs_counters() -> &'static (obs::Counter, obs::Counter, obs::Counter) {
    static COUNTERS: OnceLock<(obs::Counter, obs::Counter, obs::Counter)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = obs::global();
        (
            registry.counter(
                "memo_hits_total",
                &[],
                "score-memo lookups answered from cache",
            ),
            registry.counter("memo_misses_total", &[], "score-memo lookups that missed"),
            registry.counter(
                "memo_stale_retries_total",
                &[],
                "memoized retryable failures bypassed because the lookup was a repair retry",
            ),
        )
    })
}

impl ScoreMemo {
    /// An empty cache.
    pub fn new() -> ScoreMemo {
        ScoreMemo::default()
    }

    /// The content-addressed key for a `(candidate, script)` pair.
    pub fn key(candidate_yaml: &str, script: &str) -> (u64, u64) {
        (content_hash(candidate_yaml), content_hash(script))
    }

    /// Looks up a verdict, counting a hit or miss.
    pub fn get(&self, key: (u64, u64)) -> Option<CachedVerdict> {
        let found = self.map.lock().expect("memo poisoned").get(&key).cloned();
        let (hits, misses, _) = obs_counters();
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                hits.inc();
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                misses.inc();
                None
            }
        }
    }

    /// Looks up a verdict with the repair-loop staleness rule applied:
    /// on a retry (`is_retry`), a memoized *retryable* failure is treated
    /// as stale — the caller should re-execute rather than trust a verdict
    /// the resubmission could plausibly change. Counts a hit or miss like
    /// [`get`](ScoreMemo::get) (a stale hit is still a hit — the cache
    /// answered; policy rejected it), plus a stale-retry when the
    /// staleness rule fires.
    pub fn get_fresh(&self, key: (u64, u64), is_retry: bool) -> Option<CachedVerdict> {
        let verdict = self.get(key)?;
        if is_retry && verdict.retryable_failure() {
            self.stale_retries.fetch_add(1, Ordering::Relaxed);
            obs_counters().2.inc();
            return None;
        }
        Some(verdict)
    }

    /// The single-flight judge of one key: a memo hit (with the
    /// [`get_fresh`](ScoreMemo::get_fresh) staleness rule) answers at
    /// once; otherwise the first caller of `key` runs `execute` and
    /// memoizes its verdict, and a caller arriving while that execution
    /// is in flight waits for its verdict instead of executing again — a
    /// retry included, since that execution is as fresh as the one it
    /// would start. If the executing call panics, its waiters retry the
    /// claim, so one of them executes instead.
    ///
    /// Identical candidates therefore execute once per memo lifetime,
    /// whichever scheduler asks.
    pub fn single_flight(
        &self,
        key: (u64, u64),
        is_retry: bool,
        execute: impl FnOnce() -> CachedVerdict,
    ) -> (CachedVerdict, Answered) {
        if let Some(v) = self.get_fresh(key, is_retry) {
            return (v, Answered::Cached);
        }
        loop {
            let mut flights = self.flights.lock().expect("flight table poisoned");
            if let Some(flight) = flights.get(&key).map(Arc::clone) {
                drop(flights);
                let mut landed = flight.landed.lock().expect("flight poisoned");
                while landed.is_none() {
                    landed = flight.done.wait(landed).expect("flight poisoned");
                }
                match landed.clone().flatten() {
                    Some(v) => return (v, Answered::Cached),
                    // The executing call panicked: try to claim the key.
                    None => continue,
                }
            }
            // A flight lands its verdict in the memo before it leaves the
            // table, so the key may have landed since the probe above.
            if let Some(v) = self.peek(key) {
                if !(is_retry && v.retryable_failure()) {
                    return (v, Answered::Cached);
                }
            }
            let flight = Arc::<Flight>::default();
            flights.insert(key, Arc::clone(&flight));
            drop(flights);
            let mut landing = Landing {
                memo: self,
                key,
                flight,
                verdict: None,
            };
            let verdict = execute();
            self.insert(key, verdict.clone());
            landing.verdict = Some(verdict.clone());
            drop(landing);
            return (verdict, Answered::Executed);
        }
    }

    /// Looks up a verdict **without** touching the hit/miss counters.
    /// For observability probes (e.g. marking a response as cache-served)
    /// that must not distort the traffic statistics.
    pub fn peek(&self, key: (u64, u64)) -> Option<CachedVerdict> {
        self.map.lock().expect("memo poisoned").get(&key).cloned()
    }

    /// Records a verdict (last write wins; verdicts are deterministic so
    /// concurrent duplicates agree).
    pub fn insert(&self, key: (u64, u64), verdict: CachedVerdict) {
        self.map.lock().expect("memo poisoned").insert(key, verdict);
    }

    /// Distinct verdicts stored.
    pub fn len(&self) -> usize {
        self.map.lock().expect("memo poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached retryable failures bypassed by retry lookups
    /// ([`get_fresh`](ScoreMemo::get_fresh) with `is_retry`).
    pub fn stale_retries(&self) -> usize {
        self.stale_retries.load(Ordering::Relaxed)
    }

    /// All stored `(key, verdict)` pairs, sorted by key so callers (and
    /// the persisted JSONL file) see a deterministic order.
    pub fn snapshot(&self) -> Vec<((u64, u64), CachedVerdict)> {
        let mut entries: Vec<((u64, u64), CachedVerdict)> = self
            .map
            .lock()
            .expect("memo poisoned")
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        entries
    }

    /// Drops every stored verdict and zeroes the hit/miss/stale-retry
    /// counters (used by benchmarks to measure cold-cache behavior in
    /// place).
    pub fn clear(&self) {
        self.map.lock().expect("memo poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.stale_retries.store(0, Ordering::Relaxed);
    }
}

/// One persisted verdict line. Hashes travel as fixed-width hex strings:
/// they are `u64` and the wire integer type is `i64`. The taxonomy fields
/// (`bucket`, `subject`, `raw`) are present only when the verdict carries
/// a diagnosis, so pre-taxonomy stores and new stores share one format.
fn to_line(key: (u64, u64), v: &CachedVerdict) -> String {
    let mut doc = ymap! {
        "candidate" => format!("{:016x}", key.0),
        "script" => format!("{:016x}", key.1),
        "passed" => v.passed,
        "ms" => i64::try_from(v.simulated_ms).unwrap_or(i64::MAX),
    };
    if let Some(d) = &v.diagnosis {
        doc.insert("bucket", yamlkit::Yaml::from(d.bucket.label()));
        if let Some(subject) = &d.subject {
            doc.insert("subject", yamlkit::Yaml::from(subject.as_str()));
        }
        doc.insert("raw", yamlkit::Yaml::from(d.raw.as_str()));
    }
    yamlkit::json::to_json(&doc)
}

/// Decodes one JSONL line; `None` for anything malformed or truncated.
/// Lines written before the taxonomy existed load with `diagnosis: None`.
fn from_line(line: &str) -> Option<((u64, u64), CachedVerdict)> {
    let doc = yamlkit::parse_one(line).ok()?.to_value();
    let hash =
        |field: &str| -> Option<u64> { u64::from_str_radix(doc.get(field)?.as_str()?, 16).ok() };
    let key = (hash("candidate")?, hash("script")?);
    let passed = doc.get("passed")?.as_bool()?;
    let ms = doc.get("ms")?.as_i64()?;
    let text = |field: &str| Some(doc.get(field)?.as_str()?.to_owned());
    let diagnosis = doc
        .get("bucket")
        .and_then(|b| Bucket::from_label(b.as_str()?))
        .map(|bucket| Diagnosis {
            bucket,
            subject: text("subject"),
            raw: text("raw").unwrap_or_default(),
        });
    Some((
        key,
        CachedVerdict {
            passed,
            simulated_ms: u64::try_from(ms).ok()?,
            diagnosis,
        },
    ))
}

/// Persists a memo as JSONL, one verdict per line in sorted key order.
///
/// The file is written to `<path>.tmp` first and renamed into place, so a
/// reader (or a crash) never observes a half-written store. Returns the
/// number of verdicts written.
pub fn save(memo: &ScoreMemo, path: impl AsRef<Path>) -> io::Result<usize> {
    let path = path.as_ref();
    let entries = memo.snapshot();
    let tmp = path.with_extension("tmp");
    {
        let mut out = io::BufWriter::new(std::fs::File::create(&tmp)?);
        for (key, verdict) in &entries {
            out.write_all(to_line(*key, verdict).as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(entries.len())
}

/// Loads a JSONL verdict store into a fresh memo with zeroed hit/miss
/// counters (persistence carries verdicts, not traffic statistics).
///
/// Malformed or truncated lines — e.g. a trailing line cut short by a
/// crash mid-append — are skipped, not fatal: every parseable verdict
/// before and after them still loads.
pub fn load(path: impl AsRef<Path>) -> io::Result<ScoreMemo> {
    let memo = ScoreMemo::new();
    load_into(&memo, path)?;
    Ok(memo)
}

/// Merges a JSONL verdict store into an existing memo (last write wins on
/// key collisions, which agree anyway — verdicts are deterministic).
/// Returns the number of verdicts merged; counters are left untouched.
pub fn load_into(memo: &ScoreMemo, path: impl AsRef<Path>) -> io::Result<usize> {
    let file = std::fs::File::open(path)?;
    let mut merged = 0usize;
    for line in io::BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if let Some((key, verdict)) = from_line(&line) {
            memo.map.lock().expect("memo poisoned").insert(key, verdict);
            merged += 1;
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_content_distinct_keys() {
        let a = ScoreMemo::key("kind: Pod\n", "script");
        let b = ScoreMemo::key("kind: Pod \n", "script");
        let c = ScoreMemo::key("kind: Pod\n", "script2");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, ScoreMemo::key("kind: Pod\n", "script"));
    }

    #[test]
    fn hit_and_miss_counters() {
        let memo = ScoreMemo::new();
        let key = ScoreMemo::key("a", "b");
        assert!(memo.get(key).is_none());
        memo.insert(key, CachedVerdict::bare(false, 3));
        assert_eq!(memo.get(key), Some(CachedVerdict::bare(false, 3)));
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (1, 1, 1));
        assert!(!memo.is_empty());
    }

    #[test]
    fn get_fresh_bypasses_retryable_failures_on_retry_only() {
        let memo = ScoreMemo::new();
        let key = ScoreMemo::key("kind: Pod", "script");
        memo.insert(key, CachedVerdict::bare(false, 3)); // no diagnosis: retryable
                                                         // First attempt trusts the cache; a retry treats it as stale.
        assert!(memo.get_fresh(key, false).is_some());
        assert!(memo.get_fresh(key, true).is_none());
        assert_eq!(memo.stale_retries(), 1);
        // Terminal failures and passes survive retries.
        let pass = ScoreMemo::key("kind: Pod", "pass");
        memo.insert(pass, CachedVerdict::bare(true, 1));
        assert!(memo.get_fresh(pass, true).is_some());
        assert_eq!(memo.stale_retries(), 1);
        // Both stale-retry lookups above were hits at the cache layer.
        assert_eq!(memo.hits(), 3);
        memo.clear();
        assert_eq!(memo.stale_retries(), 0);
    }

    #[test]
    fn single_flight_executes_a_contended_key_once() {
        let memo = ScoreMemo::new();
        let key = ScoreMemo::key("kind: Pod", "script");
        let runs = AtomicUsize::new(0);
        let threads = 8;
        let start = std::sync::Barrier::new(threads);
        let answers: Vec<(CachedVerdict, Answered)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        memo.single_flight(key, false, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            // Hold the flight open so the others find it.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            CachedVerdict::bare(true, 5)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.into_inner(), 1);
        let executed = answers
            .iter()
            .filter(|(_, a)| *a == Answered::Executed)
            .count();
        assert_eq!(executed, 1);
        assert!(answers
            .iter()
            .all(|(v, _)| *v == CachedVerdict::bare(true, 5)));
        assert_eq!(memo.len(), 1);
        // Settled: a later caller is a plain memo hit.
        let (_, answered) = memo.single_flight(key, false, || unreachable!("memoized"));
        assert_eq!(answered, Answered::Cached);
    }

    #[test]
    fn single_flight_retry_reexecutes_a_memoized_retryable_failure() {
        let memo = ScoreMemo::new();
        let key = ScoreMemo::key("kind: Pod", "script");
        // No diagnosis: conservatively retryable.
        memo.insert(key, CachedVerdict::bare(false, 3));
        let (v, answered) = memo.single_flight(key, false, || unreachable!("plain jobs trust it"));
        assert_eq!((v.passed, answered), (false, Answered::Cached));
        let (v, answered) = memo.single_flight(key, true, || CachedVerdict::bare(true, 4));
        assert_eq!((v.passed, answered), (true, Answered::Executed));
        assert_eq!(memo.stale_retries(), 1);
        // The fresh verdict replaced the stale one; a pass survives retries.
        assert_eq!(memo.peek(key), Some(CachedVerdict::bare(true, 4)));
        let (_, answered) = memo.single_flight(key, true, || unreachable!("passes stay cached"));
        assert_eq!(answered, Answered::Cached);
    }

    #[test]
    fn single_flight_waiter_gets_a_verdict_when_the_executor_panics() {
        let memo = ScoreMemo::new();
        let key = ScoreMemo::key("kind: Pod", "script");
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let executor = scope.spawn(|| {
                memo.single_flight(key, false, || {
                    started_tx.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("substrate crashed mid-execution");
                })
            });
            started_rx.recv().unwrap();
            // The key is in flight: this caller waits, sees the flight
            // land without a verdict, and executes the key itself.
            let (v, answered) = memo.single_flight(key, false, || CachedVerdict::bare(true, 9));
            assert_eq!(
                (v, answered),
                (CachedVerdict::bare(true, 9), Answered::Executed)
            );
            assert!(executor.join().is_err(), "the executor panicked");
        });
        assert_eq!(memo.peek(key), Some(CachedVerdict::bare(true, 9)));
        assert!(memo.flights.lock().unwrap().is_empty());
    }

    #[test]
    fn diagnosis_survives_the_wire_and_old_lines_still_load() {
        let diagnosed = CachedVerdict {
            passed: false,
            simulated_ms: 7,
            diagnosis: Some(substrate::taxonomy::classify_message(
                "pods \"x\" is forbidden: exceeded quota: q, requested: pods=1, used: pods=1, limited: pods=1",
            )),
        };
        let key = (0x1234, 0x5678);
        let line = to_line(key, &diagnosed);
        let (rkey, rv) = from_line(&line).expect("line decodes");
        assert_eq!(rkey, key);
        assert_eq!(rv, diagnosed);
        assert!(rv.retryable_failure());
        // A pre-taxonomy line (no bucket/subject/raw) still loads.
        let old = r#"{"candidate": "0000000000001234", "script": "0000000000005678", "passed": false, "ms": 3}"#;
        let (_, rv) = from_line(old).expect("old line decodes");
        assert_eq!(rv, CachedVerdict::bare(false, 3));
        // No diagnosis on a failure is conservatively retryable; a
        // passing verdict never is.
        assert!(rv.retryable_failure());
        assert!(!CachedVerdict::bare(true, 3).retryable_failure());
        assert!(!CachedVerdict {
            passed: false,
            simulated_ms: 0,
            diagnosis: Some(substrate::taxonomy::classify_message("missing kind")),
        }
        .retryable_failure());
    }
}
