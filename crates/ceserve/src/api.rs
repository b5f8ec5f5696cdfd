//! The JSON API: routing, body decoding, response encoding, and the
//! service state shared by every worker.
//!
//! The wire format is produced by [`yamlkit::json::to_json`] and decoded
//! through the YAML parser (JSON is a YAML subset), so requests and
//! responses get the exact parser guarantees the benchmark itself runs
//! on — floats stay floats, quoted number-lookalikes stay strings.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cedataset::{Dataset, Variant};
use cescore::RefCache;
use cloudeval_core::harness::{
    score_submission_doc, score_submissions_stream, StageGauges, Submission, SubmissionVerdict,
};
use evalcluster::memo::ScoreMemo;
use llmsim::extract_yaml;
use substrate::taxonomy::Bucket;
use yamlkit::{ymap, PreparedDoc, Yaml};

use crate::http::{self, Request, MAX_BODY_BYTES};

/// Where framed response bytes go.
///
/// The event loop handles cheap requests inline with a [`BufSink`]
/// (bytes land straight in the connection's output buffer); worker
/// threads handle scoring requests with a completion-channel sink that
/// re-arms the connection for writing. Either way the handler never
/// touches a socket, so a slow reader can never wedge the thread that
/// computes responses.
pub trait ResponseSink: Send {
    /// Queues framed bytes toward the client. `false` means the client
    /// is gone — streaming handlers stop writing (but may keep scoring;
    /// verdicts still land in the shared memo).
    fn send(&mut self, bytes: Vec<u8>) -> bool;
}

/// A [`ResponseSink`] over a plain output buffer (the inline fast path).
pub struct BufSink<'a>(pub &'a mut Vec<u8>);

impl ResponseSink for BufSink<'_> {
    fn send(&mut self, bytes: Vec<u8>) -> bool {
        self.0.extend_from_slice(&bytes);
        true
    }
}

/// Most items accepted in one `/v1/batch` request.
pub const MAX_BATCH_ITEMS: usize = 4096;

/// Longest accepted `x-request-id` value.
const MAX_REQUEST_ID: usize = 128;

/// Wire labels of the service's endpoints — the `endpoint` label values
/// on `http_requests_total` and `http_request_us`.
const ENDPOINTS: [&str; 6] = ["problems", "stats", "metrics", "evaluate", "batch", "other"];

fn endpoint_index(path: &str) -> usize {
    match path {
        "/v1/problems" => 0,
        "/v1/stats" => 1,
        "/v1/metrics" => 2,
        "/v1/evaluate" => 3,
        "/v1/batch" => 4,
        _ => 5,
    }
}

fn id_value_ok(value: &str) -> bool {
    !value.is_empty()
        && value.len() <= MAX_REQUEST_ID
        && value.bytes().all(|b| (0x21..=0x7e).contains(&b))
}

/// The request's `x-request-id` header value, when present and wire-safe
/// (visible ASCII, at most `MAX_REQUEST_ID` = 128 bytes). The service echoes
/// it verbatim on every response to the request, so client-side and
/// server-side observations of one request correlate.
pub fn request_id(request: &Request) -> Option<&str> {
    request.header("x-request-id").filter(|v| id_value_ok(v))
}

/// Scans raw (possibly incomplete) request bytes for an `x-request-id`
/// header, so responses sent before a request finishes parsing (408
/// timeout, 400 parse failure, 503 shed) still correlate.
pub fn scan_request_id(bytes: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(bytes);
    for line in text.split(['\r', '\n']) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("x-request-id") {
            let value = value.trim();
            return id_value_ok(value).then(|| value.to_owned());
        }
    }
    None
}

/// Pre-resolved handles into this service's private metrics registry, so
/// the per-request hot path pays atomic increments, never a registry
/// lookup. Serving metrics (`http_*`) live here, isolated per
/// [`Service`]; engine metrics (`stage_*`, `memo_*`, `substrate_*`, ...)
/// live in [`obs::global`] — `GET /v1/metrics` renders both.
pub struct HttpMetrics {
    registry: obs::Registry,
    pub(crate) request_us: [obs::Histogram; ENDPOINTS.len()],
    pub(crate) requests_total: [obs::Counter; ENDPOINTS.len()],
    pub(crate) accept_to_first_byte_us: obs::Histogram,
    pub(crate) assembly_us: obs::Histogram,
    pub(crate) handler_us: obs::Histogram,
    pub(crate) queue_wait_us: obs::Histogram,
    pub(crate) write_drain_us: obs::Histogram,
    pub(crate) bytes_in: obs::Counter,
    pub(crate) bytes_out: obs::Counter,
}

impl HttpMetrics {
    fn new() -> HttpMetrics {
        let registry = obs::Registry::new();
        let request_us = ENDPOINTS.map(|e| {
            registry.histogram(
                "http_request_us",
                &[("endpoint", e)],
                "end-to-end handler latency of one request",
            )
        });
        let requests_total = ENDPOINTS.map(|e| {
            registry.counter(
                "http_requests_total",
                &[("endpoint", e)],
                "requests answered, by endpoint",
            )
        });
        let phase = |p| {
            registry.histogram(
                "http_phase_us",
                &[("phase", p)],
                "time one request spent in one serving phase",
            )
        };
        let bytes = |d| {
            registry.counter(
                "http_bytes_total",
                &[("direction", d)],
                "request and response bytes moved",
            )
        };
        HttpMetrics {
            request_us,
            requests_total,
            accept_to_first_byte_us: phase("accept_to_first_byte"),
            assembly_us: phase("assembly"),
            handler_us: phase("handler"),
            queue_wait_us: phase("queue_wait"),
            write_drain_us: phase("write_drain"),
            bytes_in: bytes("in"),
            bytes_out: bytes("out"),
            registry,
        }
    }

    /// The registry behind this service's `http_*` series.
    pub fn registry(&self) -> &obs::Registry {
        &self.registry
    }
}

/// Most entries held in the in-process response cache before it resets.
const MAX_RESPONSE_CACHE: usize = 65_536;

/// Wire label of a variant (`original` / `simplified` / `translated`).
pub fn variant_wire(variant: Variant) -> &'static str {
    match variant {
        Variant::Original => "original",
        Variant::Simplified => "simplified",
        Variant::Translated => "translated",
    }
}

/// Parses a wire variant label.
pub fn parse_variant(label: &str) -> Option<Variant> {
    match label {
        "original" => Some(Variant::Original),
        "simplified" => Some(Variant::Simplified),
        "translated" => Some(Variant::Translated),
        _ => None,
    }
}

/// Request counters, gauges and timing shared across workers.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// All requests answered (any status).
    pub requests: AtomicUsize,
    /// `GET /v1/problems` requests.
    pub problems_requests: AtomicUsize,
    /// `POST /v1/evaluate` requests.
    pub evaluate_requests: AtomicUsize,
    /// `POST /v1/batch` requests.
    pub batch_requests: AtomicUsize,
    /// `GET /v1/stats` requests.
    pub stats_requests: AtomicUsize,
    /// `GET /v1/metrics` requests.
    pub metrics_requests: AtomicUsize,
    /// Requests answered with a 4xx error.
    pub client_errors: AtomicUsize,
    /// Individual records streamed through `/v1/batch`.
    pub batch_records: AtomicUsize,
    /// Connections waiting in the bounded accept queue.
    pub queue_depth: AtomicUsize,
    /// Connections rejected with `503` because the queue was full.
    pub rejected_busy: AtomicUsize,
    /// Connections currently held by workers.
    pub connections: AtomicUsize,
    /// Workers currently processing a request.
    pub busy_workers: AtomicUsize,
    /// Requests answered from the full-verdict response cache (no
    /// extraction, scoring or substrate work at all).
    pub response_cache_hits: AtomicUsize,
    /// Deployment failures among freshly judged submissions, bucketed by
    /// the error taxonomy (indexed by [`Bucket::index`]). Cache replays
    /// do not re-count.
    pub taxonomy_failures: [AtomicUsize; Bucket::ALL.len()],
}

impl ServiceStats {
    /// Folds one freshly judged verdict into the taxonomy counters. A
    /// failure whose verdict carries no diagnosis (a legacy memo entry)
    /// counts as `unknown`.
    pub fn record_judged(&self, verdict: &SubmissionVerdict) {
        if verdict.passed {
            return;
        }
        let bucket = verdict
            .failure_bucket
            .as_deref()
            .and_then(Bucket::from_label)
            .unwrap_or(Bucket::Unknown);
        self.taxonomy_failures[bucket.index()].fetch_add(1, Ordering::Relaxed);
    }
}

/// The process-wide benchmark service: the problem corpus, one shared
/// verdict memo, live statistics and stage gauges.
pub struct Service {
    dataset: Arc<Dataset>,
    index: HashMap<String, usize>,
    memo: Arc<ScoreMemo>,
    /// Full verdicts keyed by `(candidate, problem@variant)` content
    /// hash: a repeat submission of an already-judged candidate is
    /// answered without recomputing anything — the substrate memo makes
    /// repeats skip execution, this layer makes them skip scoring too.
    /// In-process only; across restarts the persisted [`ScoreMemo`]
    /// still guarantees no substrate re-execution.
    responses: Mutex<HashMap<(u64, u64), SubmissionVerdict>>,
    /// Prepared-reference cache: each problem's labeled reference is
    /// parsed once per process lifetime, no matter how many submissions
    /// it judges.
    refs: RefCache,
    gauges: StageGauges,
    stats: ServiceStats,
    metrics: HttpMetrics,
    workers: usize,
    started: Instant,
}

impl Service {
    /// Builds the service over a problem corpus. `workers` is the width
    /// used for `/v1/batch` stage pools (and mirrors the HTTP pool).
    pub fn new(dataset: Arc<Dataset>, memo: Arc<ScoreMemo>, workers: usize) -> Service {
        let index = dataset
            .problems()
            .iter()
            .enumerate()
            .map(|(i, p)| (p.id.clone(), i))
            .collect();
        Service {
            dataset,
            index,
            memo,
            responses: Mutex::new(HashMap::new()),
            refs: RefCache::new(),
            gauges: StageGauges::new(),
            stats: ServiceStats::default(),
            metrics: HttpMetrics::new(),
            workers: workers.max(1),
            started: Instant::now(),
        }
    }

    /// The problem corpus this service judges against.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// The shared verdict memo.
    pub fn memo(&self) -> &Arc<ScoreMemo> {
        &self.memo
    }

    /// Live statistics counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Serving-layer metrics (`http_*` series) for this service.
    pub fn metrics(&self) -> &HttpMetrics {
        &self.metrics
    }

    /// Looks a problem up by id.
    pub fn problem(&self, id: &str) -> Option<&cedataset::Problem> {
        self.index.get(id).map(|&i| &self.dataset.problems()[i])
    }

    /// Drops both caches (verdict memo and response cache) — the
    /// cold-cache reset before each closed-loop round of cebench's
    /// `serve-cold` workload.
    pub fn clear_caches(&self) {
        self.memo.clear();
        self.responses
            .lock()
            .expect("response cache poisoned")
            .clear();
    }

    /// A cache-served copy of an already-judged submission, if any.
    fn cached_response(&self, key: (u64, u64)) -> Option<SubmissionVerdict> {
        let found = self
            .responses
            .lock()
            .expect("response cache poisoned")
            .get(&key)
            .cloned();
        if found.is_some() {
            self.stats
                .response_cache_hits
                .fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores a fresh verdict for replay. Bounded: the cache resets when
    /// it would outgrow [`MAX_RESPONSE_CACHE`].
    fn store_response(&self, key: (u64, u64), verdict: SubmissionVerdict) {
        let mut cache = self.responses.lock().expect("response cache poisoned");
        if cache.len() >= MAX_RESPONSE_CACHE {
            cache.clear();
        }
        cache.insert(key, verdict);
    }
}

/// The response-cache key for an item: **extracted** candidate content ×
/// problem × variant (the same content-addressing vocabulary as the
/// score memo — the candidate side is exactly the `PreparedDoc`'s
/// content hash, so two raw bodies that extract to the same YAML share
/// one cached verdict).
fn response_key(item: &EvalItem<'_>) -> (u64, u64) {
    (
        yamlkit::doc::content_hash(&item.extracted),
        yamlkit::doc::content_hash(&format!(
            "{}@{}",
            item.problem.id,
            variant_wire(item.variant)
        )),
    )
}

/// A typed client error: `(status, code, message)` rendered as
/// `{"error":{"code":...,"message":...}}`.
struct ApiError {
    status: u16,
    code: &'static str,
    message: String,
}

impl ApiError {
    fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError {
            status: 400,
            code: "bad_request",
            message: message.into(),
        }
    }

    fn unknown_problem(id: &str) -> ApiError {
        ApiError {
            status: 404,
            code: "unknown_problem",
            message: format!("no problem with id {id:?}"),
        }
    }

    fn body(&self) -> String {
        yamlkit::json::to_json(&ymap! {
            "error" => ymap! {
                "code" => self.code,
                "message" => self.message.clone(),
            },
        })
    }
}

/// Encodes one verdict as a wire object.
pub fn verdict_to_yaml(v: &SubmissionVerdict) -> Yaml {
    ymap! {
        "problem_id" => v.problem_id.clone(),
        "variant" => variant_wire(v.variant),
        "passed" => v.passed,
        "cached" => v.cached,
        "simulated_ms" => i64::try_from(v.simulated_ms).unwrap_or(i64::MAX),
        "answer_class" => format!("{:?}", v.answer_class),
        "failure_bucket" => v.failure_bucket.clone().map_or(Yaml::Null, Yaml::Str),
        "score_issue" => v.score_issue.clone().map_or(Yaml::Null, Yaml::Str),
        "scores" => ymap! {
            "bleu" => v.scores.bleu,
            "edit_distance" => v.scores.edit_distance,
            "exact_match" => v.scores.exact_match,
            "kv_exact" => v.scores.kv_exact,
            "kv_wildcard" => v.scores.kv_wildcard,
            "unit_test" => v.scores.unit_test,
        },
        "extracted" => v.extracted.clone(),
    }
}

/// One decoded `/v1/evaluate`-shaped item.
struct EvalItem<'s> {
    problem: &'s cedataset::Problem,
    variant: Variant,
    /// The raw candidate body, as submitted.
    candidate: String,
    /// §3.1 post-processed candidate (extraction is a cheap string scan,
    /// done once at decode so the response cache can be keyed on content
    /// before any parsing or scoring happens).
    extracted: String,
}

/// Decodes an item object (`{"problem_id", "candidate", "variant"?}`).
fn decode_item<'s>(service: &'s Service, value: &Yaml, at: &str) -> Result<EvalItem<'s>, ApiError> {
    let id = value
        .get("problem_id")
        .and_then(Yaml::as_str)
        .ok_or_else(|| ApiError::bad_request(format!("{at}: missing string \"problem_id\"")))?;
    let candidate = value
        .get("candidate")
        .and_then(Yaml::as_str)
        .ok_or_else(|| ApiError::bad_request(format!("{at}: missing string \"candidate\"")))?;
    let variant = match value.get("variant") {
        None | Some(Yaml::Null) => Variant::Original,
        Some(v) => v
            .as_str()
            .and_then(parse_variant)
            .ok_or_else(|| ApiError::bad_request(format!("{at}: bad \"variant\"")))?,
    };
    let problem = service
        .problem(id)
        .ok_or_else(|| ApiError::unknown_problem(id))?;
    Ok(EvalItem {
        problem,
        variant,
        candidate: candidate.to_owned(),
        extracted: extract_yaml(candidate),
    })
}

/// Parses a JSON request body through the YAML engine.
fn decode_body(body: &str) -> Result<Yaml, ApiError> {
    if body.trim().is_empty() {
        return Err(ApiError::bad_request("empty request body"));
    }
    yamlkit::parse_one(body)
        .map(|n| n.to_value())
        .map_err(|e| ApiError::bad_request(format!("body is not valid JSON/YAML: {e}")))
}

/// `GET /v1/problems`.
fn problems_body(service: &Service) -> String {
    let problems: Yaml = service
        .dataset
        .problems()
        .iter()
        .map(|p| {
            ymap! {
                "id" => p.id.clone(),
                "category" => p.category.label(),
                "application" => format!("{:?}", p.category.application()),
                "variants" => Variant::ALL.iter().map(|v| variant_wire(*v)).collect::<Yaml>(),
                "has_context" => p.has_context(),
                "reference_lines" => i64::try_from(p.reference_lines()).unwrap_or(0),
            }
        })
        .collect();
    yamlkit::json::to_json(&ymap! {
        "count" => i64::try_from(service.dataset.len()).unwrap_or(0),
        "problems" => problems,
    })
}

/// `GET /v1/stats`.
fn stats_body(service: &Service) -> String {
    let s = &service.stats;
    let memo = &service.memo;
    let (hits, misses) = (memo.hits(), memo.misses());
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    let count = |a: &AtomicUsize| i64::try_from(a.load(Ordering::Relaxed)).unwrap_or(0);
    let g = &service.gauges;
    let m = &service.metrics;
    let latency: Yaml = Yaml::Map(
        ENDPOINTS
            .iter()
            .zip(&m.request_us)
            .map(|(endpoint, hist)| {
                let snap = hist.snapshot();
                (
                    (*endpoint).to_string(),
                    ymap! {
                        "count" => i64::try_from(snap.count).unwrap_or(i64::MAX),
                        "mean_us" => snap.mean_us(),
                        "p50_us" => snap.p50_us(),
                        "p99_us" => snap.p99_us(),
                    },
                )
            })
            .collect(),
    );
    // The scoring-kernel histograms live in the process-global obs
    // registry (cescore registers them on first score), not the
    // service's own: absent until the first evaluation is scored.
    let score_kernels: Yaml = Yaml::Map(
        ["bleu", "editdist"]
            .iter()
            .filter_map(|metric| {
                let snap =
                    obs::global().histogram_snapshot("score_kernel_us", &[("metric", metric)])?;
                Some((
                    (*metric).to_string(),
                    ymap! {
                        "count" => i64::try_from(snap.count).unwrap_or(i64::MAX),
                        "mean_us" => snap.mean_us(),
                        "p50_us" => snap.p50_us(),
                        "p99_us" => snap.p99_us(),
                    },
                ))
            })
            .collect(),
    );
    yamlkit::json::to_json(&ymap! {
        "uptime_ms" => i64::try_from(service.started.elapsed().as_millis()).unwrap_or(i64::MAX),
        "uptime_seconds" => i64::try_from(service.started.elapsed().as_secs()).unwrap_or(i64::MAX),
        "workers" => i64::try_from(service.workers).unwrap_or(0),
        "requests" => ymap! {
            "total" => count(&s.requests),
            "problems" => count(&s.problems_requests),
            "evaluate" => count(&s.evaluate_requests),
            "batch" => count(&s.batch_requests),
            "stats" => count(&s.stats_requests),
            "metrics" => count(&s.metrics_requests),
            "errors_4xx" => count(&s.client_errors),
        },
        "bytes" => ymap! {
            "in" => i64::try_from(m.bytes_in.get()).unwrap_or(i64::MAX),
            "out" => i64::try_from(m.bytes_out.get()).unwrap_or(i64::MAX),
        },
        "latency" => latency,
        "score_kernels" => score_kernels,
        "connections" => ymap! {
            "active" => count(&s.connections),
            "accept_queue_depth" => count(&s.queue_depth),
            "rejected_busy" => count(&s.rejected_busy),
            "busy_workers" => count(&s.busy_workers),
        },
        "memo" => ymap! {
            "entries" => i64::try_from(memo.len()).unwrap_or(0),
            "hits" => i64::try_from(hits).unwrap_or(0),
            "misses" => i64::try_from(misses).unwrap_or(0),
            "hit_rate" => hit_rate,
        },
        "response_cache" => ymap! {
            "entries" => i64::try_from(
                service.responses.lock().expect("response cache poisoned").len()
            ).unwrap_or(0),
            "hits" => count(&s.response_cache_hits),
        },
        "stages" => ymap! {
            "extracting" => i64::try_from(g.extracting()).unwrap_or(0),
            "scoring" => i64::try_from(g.scoring()).unwrap_or(0),
            "executing" => i64::try_from(g.executing()).unwrap_or(0),
            "completed" => i64::try_from(g.completed()).unwrap_or(0),
        },
        "taxonomy" => Yaml::Map(
            Bucket::ALL
                .iter()
                .map(|b| (
                    b.label().to_string(),
                    Yaml::Int(count(&s.taxonomy_failures[b.index()])),
                ))
                .collect(),
        ),
        "batch_records" => count(&s.batch_records),
    })
}

/// `GET /v1/metrics`: Prometheus text exposition — this service's
/// `http_*` series followed by the process-wide engine series
/// (`stage_*`, `memo_*`, `substrate_*`, `llm_*`). The two
/// registries use disjoint metric names, so the concatenation never
/// duplicates a series.
fn metrics_body(service: &Service) -> String {
    let mut text = obs::expo::render(&service.metrics.registry.snapshot());
    text.push_str(&obs::expo::render(&obs::global().snapshot()));
    text
}

/// `POST /v1/evaluate`.
fn evaluate_body(service: &Service, request: &Request) -> Result<String, ApiError> {
    let value = decode_body(request.body())?;
    let mut item = decode_item(service, &value, "body")?;
    let key = response_key(&item);
    if let Some(mut verdict) = service.cached_response(key) {
        verdict.cached = true;
        return Ok(yamlkit::json::to_json(&verdict_to_yaml(&verdict)));
    }
    // Cache miss: the candidate's one-and-only parse. The PreparedDoc
    // built here flows through static scoring and substrate execution.
    let doc = PreparedDoc::shared(std::mem::take(&mut item.extracted));
    let verdict = score_submission_doc(
        item.problem,
        item.variant,
        &doc,
        &service.memo,
        &service.refs,
    );
    service.stats.record_judged(&verdict);
    service.store_response(key, verdict.clone());
    Ok(yamlkit::json::to_json(&verdict_to_yaml(&verdict)))
}

/// `POST /v1/batch`: decodes every item up front (any invalid item fails
/// the whole request with a typed 400 before work starts), then streams
/// verdicts back in completion order as one JSON object per chunk.
fn batch_stream<S: ResponseSink>(
    service: &Service,
    request: &Request,
    sink: &mut S,
    extra_headers: &[(&str, &str)],
) -> Result<bool, ApiError> {
    let value = decode_body(request.body())?;
    let items = match value.get("items") {
        Some(Yaml::Seq(items)) => items,
        _ => return Err(ApiError::bad_request("missing array \"items\"")),
    };
    if items.len() > MAX_BATCH_ITEMS {
        return Err(ApiError::bad_request(format!(
            "too many items: {} > {MAX_BATCH_ITEMS}",
            items.len()
        )));
    }
    let decoded: Vec<EvalItem<'_>> = items
        .iter()
        .enumerate()
        .map(|(i, v)| decode_item(service, v, &format!("items[{i}]")))
        .collect::<Result<_, _>>()?;

    // Partition: items the response cache already answers stream out
    // immediately; only the rest enter the judge engine.
    let mut replayed: Vec<(usize, SubmissionVerdict)> = Vec::new();
    let mut fresh_indices: Vec<usize> = Vec::new();
    let mut submissions: Vec<Submission<'_>> = Vec::new();
    for (index, item) in decoded.iter().enumerate() {
        match service.cached_response(response_key(item)) {
            Some(mut verdict) => {
                verdict.cached = true;
                replayed.push((index, verdict));
            }
            None => {
                fresh_indices.push(index);
                submissions.push(Submission {
                    problem: item.problem,
                    variant: item.variant,
                    raw: item.candidate.clone(),
                    // decode_item already ran §3.1; don't extract twice.
                    extracted: Some(item.extracted.clone()),
                });
            }
        }
    }
    let replayed_count = replayed.len();

    // From here on the status line is committed; a vanished client just
    // stops the stream (`alive` flips false and writes become no-ops).
    let head = http::encode_chunked_head_with(
        200,
        "application/x-ndjson",
        request.keep_alive,
        extra_headers,
    );
    let writer = Mutex::new((sink, true));
    if !{
        let mut guard = writer.lock().expect("batch writer poisoned");
        let ok = guard.0.send(head);
        guard.1 = ok;
        ok
    } {
        return Ok(false);
    }
    let write_line = |index: usize, verdict: &SubmissionVerdict| {
        service.stats.batch_records.fetch_add(1, Ordering::Relaxed);
        let mut line = String::with_capacity(256);
        yamlkit::json::write_json(
            &ymap! {
                "index" => i64::try_from(index).unwrap_or(0),
                "result" => verdict_to_yaml(verdict),
            },
            &mut line,
        );
        line.push('\n');
        let mut guard = writer.lock().expect("batch writer poisoned");
        if guard.1 && !guard.0.send(http::encode_chunk(&line)) {
            // Client went away mid-stream: stop writing, keep scoring
            // (verdicts still land in the shared memo).
            guard.1 = false;
        }
    };
    for (index, verdict) in replayed {
        write_line(index, &verdict);
    }
    let stats = score_submissions_stream(
        &submissions,
        service.workers,
        &service.memo,
        &service.refs,
        &service.gauges,
        |i, verdict| {
            let index = fresh_indices[i];
            write_line(index, &verdict);
            service.stats.record_judged(&verdict);
            service.store_response(response_key(&decoded[index]), verdict);
        },
    );
    let mut guard = writer.lock().expect("batch writer poisoned");
    if !guard.1 {
        return Ok(false);
    }
    let summary = yamlkit::json::to_json(&ymap! {
        "done" => i64::try_from(decoded.len()).unwrap_or(0),
        "executed" => i64::try_from(stats.executed).unwrap_or(0),
        "cache_hits" => i64::try_from(stats.cache_hits + replayed_count).unwrap_or(0),
    });
    let mut tail = http::encode_chunk(&(summary + "\n"));
    tail.extend_from_slice(http::CHUNK_STREAM_END);
    Ok(guard.0.send(tail) && request.keep_alive)
}

/// Whether a request must be handled on a worker thread (scoring work)
/// rather than inline on the event loop (corpus/stats lookups, typed
/// errors — all sub-millisecond).
pub fn needs_worker(request: &Request) -> bool {
    request.method() == "POST" && matches!(request.path(), "/v1/evaluate" | "/v1/batch")
}

/// Routes one request and queues the response into `sink`. Returns
/// whether the connection may serve another request.
///
/// Wraps the dispatch with the serving-layer observability: per-endpoint
/// request counters and latency histograms, byte accounting, an
/// `http_request` trace span, and the `x-request-id` echo.
pub fn handle<S: ResponseSink>(service: &Service, request: &Request, sink: &mut S) -> bool {
    let started = Instant::now();
    let m = &service.metrics;
    let endpoint = endpoint_index(request.path());
    m.requests_total[endpoint].inc();
    m.bytes_in.add(request.wire_len() as u64);
    let id = request_id(request);
    let trace = id.map_or_else(obs::TraceId::new, obs::TraceId::from_label);
    let mut span = obs::Span::start("http_request", trace);
    if span.is_recording() {
        span.tag("endpoint", ENDPOINTS[endpoint]);
        span.tag("method", request.method().to_owned());
        if let Some(id) = id {
            span.tag("request_id", id.to_owned());
        }
    }
    let mut counting = CountingSink {
        inner: sink,
        bytes_out: &m.bytes_out,
    };
    let keep = dispatch(service, request, &mut counting, &mut span);
    m.request_us[endpoint].record(started.elapsed());
    keep
}

/// A [`ResponseSink`] wrapper that accumulates
/// `http_bytes_total{direction="out"}` for every framed byte it forwards.
struct CountingSink<'a, S: ResponseSink> {
    inner: &'a mut S,
    bytes_out: &'a obs::Counter,
}

impl<S: ResponseSink> ResponseSink for CountingSink<'_, S> {
    fn send(&mut self, bytes: Vec<u8>) -> bool {
        self.bytes_out.add(bytes.len() as u64);
        self.inner.send(bytes)
    }
}

/// The routing core behind [`handle`].
fn dispatch<S: ResponseSink>(
    service: &Service,
    request: &Request,
    sink: &mut S,
    span: &mut obs::Span<'static>,
) -> bool {
    let echo: Vec<(&str, &str)> = request_id(request)
        .map(|v| ("x-request-id", v))
        .into_iter()
        .collect();
    service.stats.requests.fetch_add(1, Ordering::Relaxed);
    let outcome: Result<Option<(&'static str, String)>, ApiError> =
        match (request.method(), request.path()) {
            ("GET", "/v1/problems") => {
                service
                    .stats
                    .problems_requests
                    .fetch_add(1, Ordering::Relaxed);
                Ok(Some(("application/json", problems_body(service))))
            }
            ("GET", "/v1/stats") => {
                service.stats.stats_requests.fetch_add(1, Ordering::Relaxed);
                Ok(Some(("application/json", stats_body(service))))
            }
            ("GET", "/v1/metrics") => {
                service
                    .stats
                    .metrics_requests
                    .fetch_add(1, Ordering::Relaxed);
                Ok(Some((obs::expo::CONTENT_TYPE, metrics_body(service))))
            }
            ("POST", "/v1/evaluate") => {
                service
                    .stats
                    .evaluate_requests
                    .fetch_add(1, Ordering::Relaxed);
                evaluate_body(service, request).map(|body| Some(("application/json", body)))
            }
            ("POST", "/v1/batch") => {
                service.stats.batch_requests.fetch_add(1, Ordering::Relaxed);
                match batch_stream(service, request, sink, &echo) {
                    Ok(keep) => {
                        if span.is_recording() {
                            span.tag("status", "200");
                        }
                        return keep && request.keep_alive;
                    }
                    Err(e) => Err(e),
                }
            }
            (
                method,
                "/v1/problems" | "/v1/stats" | "/v1/metrics" | "/v1/evaluate" | "/v1/batch",
            ) => Err(ApiError {
                status: 405,
                code: "method_not_allowed",
                message: format!("{method} is not supported on {}", request.path()),
            }),
            (_, path) => Err(ApiError {
                status: 404,
                code: "not_found",
                message: format!("no such endpoint {path:?}"),
            }),
        };
    match outcome {
        Ok(Some((content_type, body))) => {
            if span.is_recording() {
                span.tag("status", "200");
            }
            let sent = sink.send(http::encode_response_with(
                200,
                content_type,
                &body,
                request.keep_alive,
                &echo,
            ));
            sent && request.keep_alive
        }
        Ok(None) => request.keep_alive,
        Err(e) => {
            if span.is_recording() {
                span.tag("status", e.status.to_string());
            }
            service.stats.client_errors.fetch_add(1, Ordering::Relaxed);
            let sent = sink.send(http::encode_response_with(
                e.status,
                "application/json",
                &e.body(),
                request.keep_alive,
                &echo,
            ));
            sent && request.keep_alive
        }
    }
}

/// The typed `413` body used when a request body exceeds
/// [`MAX_BODY_BYTES`].
pub fn oversized_body(declared: usize) -> String {
    ApiError {
        status: 413,
        code: "body_too_large",
        message: format!("declared body of {declared} bytes exceeds {MAX_BODY_BYTES}"),
    }
    .body()
}

/// The typed `400` body used when the request never parsed.
pub fn malformed_body(message: &str) -> String {
    ApiError::bad_request(format!("malformed request: {message}")).body()
}

/// The typed `411` body used when a request body arrives with
/// `transfer-encoding: chunked` instead of a `content-length`.
pub fn length_required_body() -> String {
    ApiError {
        status: 411,
        code: "length_required",
        message: "chunked request bodies are not accepted; send a content-length".into(),
    }
    .body()
}

/// The typed `408` body used when a started request stalls past the
/// read timeout — distinct from an idle keep-alive connection, which is
/// closed silently.
pub fn timeout_body() -> String {
    ApiError {
        status: 408,
        code: "request_timeout",
        message: "request started but did not complete within the read timeout".into(),
    }
    .body()
}

/// The typed `503` body used when the accept queue is full.
pub fn busy_body() -> String {
    ApiError {
        status: 503,
        code: "server_busy",
        message: "accept queue full; retry".into(),
    }
    .body()
}
