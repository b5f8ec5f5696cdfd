//! The serving workloads: `serve-hot` (re-submissions the response cache
//! answers) and `serve-cold` (new submissions that miss every cache),
//! both against an in-process `ceserve` server over real keep-alive
//! connections opened during set-up.
//!
//! Each run has an open-loop phase (Poisson arrivals, latency timed from
//! each request's due time) and a closed-loop saturation phase on the
//! same connections. Every `200` body must equal the direct
//! `score_submission` verdict with `cached` removed.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufReader, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cedataset::{Dataset, Variant};
use cescore::{score_pair_prepared, PreparedDoc, RefCache};
use cloudeval_core::harness::{score_submission, SubmissionVerdict};
use evalcluster::memo::ScoreMemo;
use llmsim::{extract_yaml, GenParams, LanguageModel, ModelProfile, SimulatedModel};
use yamlkit::Yaml;

use crate::offline::{application_index, PASS_RATIOS, REPAIR_MODELS, SUBSTRATES};
use crate::report::{self, Outcome};
use crate::stats::{self, Rng, Zipf};
use crate::trace::{self, Layer, Local, Tracer};

/// Distinct candidates `serve-hot` re-submits.
pub const HOT_CANDIDATES: usize = 64;
/// `serve-hot` open-loop arrival rate (requests per second).
pub const HOT_RATE: f64 = 200.0;
/// `serve-cold` open-loop arrival rate (requests per second). While one
/// worker runs the slowest candidate (seconds), the other carries the
/// whole arrival stream; at this rate it stays lightly loaded. At 300
/// req/s it ran near saturation for seconds, and p50 and p90 moved
/// several-fold between identical runs.
pub const COLD_RATE: f64 = 150.0;
/// `serve-cold` warm-up requests (candidates the timed phases never use).
pub const COLD_WARMUP: usize = 150;
/// `serve-cold` closed-loop rounds; `throughput_rps` is their median.
pub const COLD_ROUNDS: usize = 2;
/// Share of a `serve-hot` run the open-loop phase takes; the closed loop
/// gets the rest.
const HOT_OPEN_SHARE: f64 = 0.6;
/// Window of the `serve-hot` closed-loop rate; `throughput_rps` is the
/// median window.
const RATE_WINDOW: Duration = Duration::from_millis(500);
/// Safety cap on warm-up and on one `serve-cold` closed-loop round.
const ROUND_CAP: Duration = Duration::from_secs(60);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

const STREAM_CORPUS: u64 = 10;
const STREAM_ORDER: u64 = 11;
const STREAM_ARRIVALS: u64 = 12;
const STREAM_PICKS: u64 = 13;
const STREAM_CLOSED: u64 = 14;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 64 candidates, Zipf(1.0) repeats, all judged during set-up.
    Hot,
    /// Every request a distinct generated candidate.
    Cold,
}

/// One candidate submission.
#[derive(Debug, Clone)]
struct Item {
    problem: usize,
    variant: Variant,
    raw: String,
    /// The full HTTP request, bytes as sent.
    request: Vec<u8>,
}

/// Frames a `POST /v1/evaluate` request the way `ceserve`'s client does.
pub fn request_bytes(body: &str) -> Vec<u8> {
    let mut bytes = format!(
        "POST /v1/evaluate HTTP/1.1\r\nhost: ceserve\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

fn item(dataset: &Dataset, problem: usize, variant: Variant, raw: String) -> Item {
    let body = ceserve::loadgen::evaluate_body(&ceserve::loadgen::LoadItem {
        problem_id: dataset.problems()[problem].id.clone(),
        variant,
        raw: raw.clone(),
    });
    Item {
        problem,
        variant,
        request: request_bytes(&body),
        raw,
    }
}

/// One run's candidates: `items[..timed]` are submitted in the timed
/// phases, `items[warmup_from..]` during warm-up.
struct Corpus {
    items: Vec<Item>,
    timed: usize,
    warmup_from: usize,
}

/// Raw output and extracted YAML of one generation.
fn generate(
    dataset: &Dataset,
    model: &SimulatedModel,
    problem: usize,
    variant: Variant,
) -> (String, String) {
    let prompt =
        cedataset::fewshot::build_prompt(&dataset.problems()[problem].prompt_body(variant), 0);
    let raw = model.generate(&prompt, &GenParams::default());
    let yaml = extract_yaml(&raw);
    (raw, yaml)
}

/// The candidates, distinct on extracted YAML.
///
/// `serve-hot`: [`HOT_CANDIDATES`] seeded generations of the repair
/// models, warmed up and then re-submitted. `serve-cold`: every
/// (problem, variant) generation of the repair models, generated on
/// `workers` threads and kept in generation order, so every seed times
/// the same work; then [`COLD_WARMUP`] seeded reference-derived
/// candidates (fenced, or with the tail cut, as `ceserve::loadgen`
/// builds them) for warm-up only.
fn corpus(kind: Kind, dataset: &Arc<Dataset>, seed: u64, workers: usize) -> Corpus {
    let models: Vec<SimulatedModel> = REPAIR_MODELS
        .iter()
        .map(|name| {
            SimulatedModel::new(
                ModelProfile::by_name(name).expect("model profile"),
                Arc::clone(dataset),
            )
        })
        .collect();
    let mut rng = Rng::new(seed, STREAM_CORPUS);
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut seen = HashSet::new();
    let mut items = Vec::new();
    if kind == Kind::Hot {
        while items.len() < HOT_CANDIDATES {
            let (m, p, v) = (
                pick(models.len()),
                pick(dataset.len()),
                Variant::ALL[pick(3)],
            );
            let (raw, yaml) = generate(dataset, &models[m], p, v);
            if seen.insert(yaml) {
                items.push(item(dataset, p, v, raw));
            }
        }
        return Corpus {
            timed: items.len(),
            warmup_from: 0,
            items,
        };
    }
    let coords: Vec<(usize, usize, Variant)> = (0..models.len())
        .flat_map(|m| {
            Variant::ALL
                .into_iter()
                .flat_map(move |v| (0..dataset.len()).map(move |p| (m, p, v)))
        })
        .collect();
    let slots: Vec<Mutex<Option<(String, String)>>> =
        coords.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(m, p, v)) = coords.get(i) else {
                    break;
                };
                *slots[i].lock().expect("corpus slot poisoned") =
                    Some(generate(dataset, &models[m], p, v));
            });
        }
    });
    for (&(_, p, v), slot) in coords.iter().zip(slots) {
        let (raw, yaml) = slot
            .into_inner()
            .expect("corpus slot poisoned")
            .expect("generated");
        if seen.insert(yaml) {
            items.push(item(dataset, p, v, raw));
        }
    }
    let timed = items.len();
    while items.len() < timed + COLD_WARMUP {
        let (p, v) = (pick(dataset.len()), Variant::ALL[pick(3)]);
        let reference = dataset.problems()[p].clean_reference();
        let raw = if pick(2) == 0 {
            format!("Here is the configuration:\n```yaml\n{reference}```\n")
        } else {
            let keep = reference.lines().count().saturating_sub(3).max(1);
            format!(
                "```yaml\n{}\n```",
                reference.lines().take(keep).collect::<Vec<_>>().join("\n")
            )
        };
        if seen.insert(extract_yaml(&raw)) {
            items.push(item(dataset, p, v, raw));
        }
    }
    Corpus {
        items,
        timed,
        warmup_from: timed,
    }
}

/// How one request fared.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// `200` with exactly the expected body.
    Ok,
    /// `200` with another body, kept for the comparison without `cached`.
    Differs(String),
    /// Another status.
    Status(u16),
    /// The connection failed.
    Transport,
}

/// One keep-alive client connection.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    /// Connects now, so connection set-up is never inside a timed request.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let mut conn = Conn { addr, stream: None };
        conn.connect()?;
        Ok(conn)
    }

    /// Opens a fresh connection. Called before each phase: the server
    /// closes keep-alive connections idle for its read timeout, which a
    /// connection can be at a phase boundary while the other one
    /// finishes a slow request.
    pub fn connect(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        self.stream = Some((stream, reader));
        Ok(())
    }

    /// Sends one request and checks its response against `want` (any
    /// `200` passes when `want` is `None`). After a transport error the
    /// next call reconnects.
    pub fn call(&mut self, request: &[u8], want: Option<&str>) -> Check {
        if self.stream.is_none() && self.connect().is_err() {
            return Check::Transport;
        }
        let Some((stream, reader)) = self.stream.as_mut() else {
            return Check::Transport;
        };
        let response = stream
            .write_all(request)
            .ok()
            .and_then(|()| ceserve::http::read_response(reader).ok());
        match response {
            None => {
                self.stream = None;
                Check::Transport
            }
            Some(r) if r.status != 200 => Check::Status(r.status),
            Some(r) if want.is_none_or(|w| w == r.body) => Check::Ok,
            Some(r) => Check::Differs(r.body),
        }
    }
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the corpus.
    pub item: usize,
    /// When it was due (open loop) or sent (closed loop).
    pub due: Instant,
    /// When its first byte was written.
    pub sent: Instant,
    /// When its response was read.
    pub end: Instant,
    /// How it fared.
    pub check: Check,
}

impl Sample {
    /// Latency from due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.end.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Expected response bodies by corpus index (`None`: accept any `200`).
type Expected = [Option<String>];

/// Open loop: request `k` is due at `start + schedule[k].0` seconds no
/// matter how earlier requests fared. Each connection's thread takes the
/// next due request, waits for its due time if it is early, and sends.
/// A stalled server therefore makes later requests late, and their
/// latency, timed from the due time, shows it.
pub fn open_loop(
    conns: &mut [Conn],
    schedule: &[(f64, usize)],
    requests: &[&[u8]],
    want: &Expected,
) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(5);
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(schedule.len()));
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (next, samples) = (&next, &samples);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(offset, item)) = schedule.get(k) else {
                        break;
                    };
                    let due = start + Duration::from_secs_f64(offset);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let check =
                        conn.call(requests[item], want.get(item).and_then(Option::as_deref));
                    mine.push(Sample {
                        item,
                        due,
                        sent,
                        end: Instant::now(),
                        check,
                    });
                }
                samples.lock().expect("samples poisoned").append(&mut mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("samples poisoned");
    samples.sort_by_key(|s| s.due);
    samples
}

/// Closed loop: each connection sends its next request as soon as the
/// previous one returns, until `until` passes or `pick(thread)` (the
/// next corpus item) runs dry.
pub fn closed_loop<F>(
    conns: &mut [Conn],
    until: Instant,
    requests: &[&[u8]],
    want: &Expected,
    pick: F,
) -> Vec<Sample>
where
    F: Fn(usize) -> Option<usize> + Sync,
{
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (thread, conn) in conns.iter_mut().enumerate() {
            let (samples, pick) = (&samples, &pick);
            scope.spawn(move || {
                let mut mine = Vec::new();
                while Instant::now() < until {
                    let Some(item) = pick(thread) else { break };
                    let sent = Instant::now();
                    let check =
                        conn.call(requests[item], want.get(item).and_then(Option::as_deref));
                    mine.push(Sample {
                        item,
                        due: sent,
                        sent,
                        end: Instant::now(),
                        check,
                    });
                }
                samples.lock().expect("samples poisoned").append(&mut mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("samples poisoned");
    samples.sort_by_key(|s| s.sent);
    samples
}

/// A verdict as compared: the wire object minus `cached`, re-encoded
/// (the comparison `repro serve` makes).
fn canonical(body: &str) -> Option<String> {
    let mut value = yamlkit::parse_one(body).ok()?.to_value();
    value.remove("cached");
    Some(yamlkit::json::to_json(&value))
}

/// Whether a request passed: exactly the expected body, or one equal to
/// it with `cached` removed.
fn passed(check: &Check, want: Option<&str>) -> bool {
    match check {
        Check::Ok => true,
        Check::Differs(body) => {
            want.is_some_and(|w| canonical(body).is_some() && canonical(body) == canonical(w))
        }
        Check::Status(_) | Check::Transport => false,
    }
}

/// The body a direct `score_submission` gives each timed item, with
/// `cached` as the timed phases must report it (untimed).
fn expected(
    kind: Kind,
    dataset: &Dataset,
    items: &[Item],
    timed: usize,
    workers: usize,
) -> Vec<Option<String>> {
    let refs = RefCache::new();
    let next = AtomicUsize::new(0);
    let bodies: Vec<Mutex<Option<String>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= timed {
                    break;
                }
                let it = &items[i];
                let mut v = score_submission(
                    &dataset.problems()[it.problem],
                    it.variant,
                    &it.raw,
                    &ScoreMemo::new(),
                    &refs,
                );
                v.cached = kind == Kind::Hot;
                *bodies[i].lock().expect("body slot poisoned") =
                    Some(yamlkit::json::to_json(&ceserve::api::verdict_to_yaml(&v)));
            });
        }
    });
    bodies
        .into_iter()
        .map(|b| b.into_inner().expect("body slot poisoned"))
        .collect()
}

/// A running server with its connections: one set-up's result.
struct Live {
    dataset: Arc<Dataset>,
    corpus: Corpus,
    want: Vec<Option<String>>,
    server: ceserve::ServerHandle,
    conns: Vec<Conn>,
}

impl Live {
    fn shutdown(self) -> Result<(), String> {
        drop(self.conns);
        self.server
            .shutdown()
            .map_err(|e| format!("server shutdown: {e}"))
    }
}

fn requests(corpus: &Corpus) -> Vec<&[u8]> {
    corpus.items.iter().map(|i| i.request.as_slice()).collect()
}

/// Dataset, corpus, server start, connections and warm-up; returns the
/// set-up time. The expected bodies are left for the caller to fill in.
fn setup(kind: Kind, seed: u64, workers: usize, clients: usize) -> Result<(Live, f64), String> {
    let started = Instant::now();
    let dataset = Arc::new(Dataset::generate());
    let corpus = corpus(kind, &dataset, seed, workers);
    let server = ceserve::spawn(
        (Ipv4Addr::LOCALHOST, 0),
        Arc::clone(&dataset),
        ceserve::ServerConfig {
            workers,
            ..ceserve::ServerConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut conns = (0..clients)
        .map(|_| Conn::open(server.addr()))
        .collect::<std::io::Result<Vec<Conn>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let warmup: Vec<usize> = (corpus.warmup_from..corpus.items.len()).collect();
    let cursor = AtomicUsize::new(0);
    let warm = closed_loop(
        &mut conns,
        Instant::now() + ROUND_CAP,
        &requests(&corpus),
        &[],
        |_| warmup.get(cursor.fetch_add(1, Ordering::Relaxed)).copied(),
    );
    if let Some(bad) = warm.iter().find(|s| s.check != Check::Ok) {
        return Err(format!("warm-up request failed: {:?}", bad.check));
    }
    let setup_s = started.elapsed().as_secs_f64();
    Ok((
        Live {
            dataset,
            corpus,
            want: Vec::new(),
            server,
            conns,
        },
        setup_s,
    ))
}

/// [`setup`], then the expected bodies (untimed). The server may close
/// the now idle connections; each phase opens fresh ones.
fn setup_checked(
    kind: Kind,
    seed: u64,
    workers: usize,
    clients: usize,
) -> Result<(Live, f64), String> {
    let (mut live, setup_s) = setup(kind, seed, workers, clients)?;
    live.want = expected(
        kind,
        &live.dataset,
        &live.corpus.items,
        live.corpus.timed,
        workers,
    );
    Ok((live, setup_s))
}

/// Requests of one run, by phase.
struct Phases {
    open: Vec<Sample>,
    /// Closed-loop rounds (one for `serve-hot`); caches are dropped
    /// before each `serve-cold` round.
    closed: Vec<Vec<Sample>>,
    /// Closed-loop rates: per window (`serve-hot`) or per round.
    rates: Vec<f64>,
    /// Peak resident set of each phase and round, MiB.
    rss_mb: Vec<f64>,
    wall: Duration,
}

/// Successful completions per second in each whole `window` after
/// `start`, up to the last completion.
fn window_rates(samples: &[Sample], start: Instant, window: Duration) -> Vec<f64> {
    let end = samples.iter().map(|s| s.end).max().unwrap_or(start);
    let windows = (end.duration_since(start).as_secs_f64() / window.as_secs_f64()) as usize;
    let mut counts = vec![0usize; windows];
    for s in samples.iter().filter(|s| s.check == Check::Ok) {
        let w = (s.end.duration_since(start).as_secs_f64() / window.as_secs_f64()) as usize;
        if w < windows {
            counts[w] += 1;
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 / window.as_secs_f64())
        .collect()
}

/// Re-opens every connection outside the timed phases.
fn reconnect(conns: &mut [Conn]) {
    for conn in conns {
        // A failure here shows up as transport errors in the phase.
        let _ = conn.connect();
    }
}

fn phases(kind: Kind, live: &mut Live, seed: u64, seconds: u64) -> Phases {
    let requests = requests(&live.corpus);
    let want = &live.want;
    let timed: Vec<usize> = (0..live.corpus.timed).collect();
    let mut arrivals = Rng::new(seed, STREAM_ARRIVALS);
    let started = Instant::now();
    match kind {
        Kind::Hot => {
            // Zipf rank r → the candidate the seed put at rank r.
            let mut order = timed.clone();
            Rng::new(seed, STREAM_ORDER).shuffle(&mut order);
            let zipf = Zipf::new(order.len(), 1.0);
            let mut picks = Rng::new(seed, STREAM_PICKS);
            let open_s = seconds as f64 * HOT_OPEN_SHARE;
            let mut schedule = Vec::new();
            let mut t = arrivals.exp(1.0 / HOT_RATE);
            while t < open_s {
                schedule.push((t, order[zipf.sample(&mut picks)]));
                t += arrivals.exp(1.0 / HOT_RATE);
            }
            reconnect(&mut live.conns);
            report::reset_peak_rss();
            let open = open_loop(&mut live.conns, &schedule, &requests, want);
            let mut rss_mb = vec![report::peak_rss_mb()];
            reconnect(&mut live.conns);
            report::reset_peak_rss();
            let closed_started = Instant::now();
            let until = closed_started + Duration::from_secs_f64(seconds as f64 - open_s);
            let streams: Vec<Mutex<Rng>> = (0..live.conns.len())
                .map(|c| Mutex::new(Rng::new(seed, STREAM_CLOSED + c as u64)))
                .collect();
            let closed = closed_loop(&mut live.conns, until, &requests, want, |thread| {
                Some(order[zipf.sample(&mut streams[thread].lock().expect("rng poisoned"))])
            });
            // Median of per-window rates: a burst of machine noise moves
            // one window, not the figure.
            rss_mb.push(report::peak_rss_mb());
            let rates = window_rates(&closed, closed_started, RATE_WINDOW);
            Phases {
                open,
                closed: vec![closed],
                rates,
                rss_mb,
                wall: started.elapsed(),
            }
        }
        Kind::Cold => {
            // Every timed candidate once per phase, in corpus order: at
            // the open-loop rate with seeded gaps, then in each
            // closed-loop round, after the server dropped both caches, as
            // fast as it answers. The order stays fixed because a few
            // candidates take seconds: where they fall decides how many
            // requests queue behind them.
            let mut schedule = Vec::new();
            let mut t = 0.0;
            for &item in &timed {
                t += arrivals.exp(1.0 / COLD_RATE);
                schedule.push((t, item));
            }
            reconnect(&mut live.conns);
            report::reset_peak_rss();
            let open = open_loop(&mut live.conns, &schedule, &requests, want);
            let mut rss_mb = vec![report::peak_rss_mb()];
            let mut closed = Vec::new();
            let mut rates = Vec::new();
            for _ in 0..COLD_ROUNDS {
                live.server.service().clear_caches();
                reconnect(&mut live.conns);
                report::reset_peak_rss();
                let round_started = Instant::now();
                let cursor = AtomicUsize::new(0);
                let round = closed_loop(
                    &mut live.conns,
                    round_started + ROUND_CAP,
                    &requests,
                    want,
                    |_| timed.get(cursor.fetch_add(1, Ordering::Relaxed)).copied(),
                );
                let end = round.iter().map(|s| s.end).max().unwrap_or(round_started);
                let ok = round.iter().filter(|s| s.check == Check::Ok).count();
                rates.push(ok as f64 / end.duration_since(round_started).as_secs_f64().max(1e-9));
                rss_mb.push(report::peak_rss_mb());
                closed.push(round);
            }
            Phases {
                open,
                closed,
                rates,
                rss_mb,
                wall: started.elapsed(),
            }
        }
    }
}

/// Counts attempted and failed requests, notes the first failure, and
/// returns whether each passed.
fn failures(out: &mut Outcome, samples: &[&Sample], want: &Expected) -> Vec<bool> {
    let ok: Vec<bool> = samples
        .iter()
        .map(|s| passed(&s.check, want.get(s.item).and_then(Option::as_deref)))
        .collect();
    out.attempted += samples.len() as u64;
    out.failed += ok.iter().filter(|ok| !**ok).count() as u64;
    if let Some((s, _)) = samples.iter().zip(&ok).find(|(_, ok)| !**ok) {
        let mut what = format!("{:?}", s.check);
        what.truncate(300);
        out.lines
            .push(format!("first failed request: item {}: {what}", s.item));
    }
    ok
}

/// Open-loop latencies from due time; a failed request misses any
/// latency limit, so it counts as infinite.
fn latencies_ms(open: &[Sample], want: &Expected) -> Vec<f64> {
    open.iter()
        .map(
            |s| match passed(&s.check, want.get(s.item).and_then(Option::as_deref)) {
                true => s.latency_ms(),
                false => f64::INFINITY,
            },
        )
        .collect()
}

/// The untraced run.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    workers: usize,
    clients: usize,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    for n in 1..=SETUPS {
        // The previous set-up's server and connections close first.
        if let Some(old) = live.take() {
            old.shutdown()?;
        }
        let (fresh, secs) = if n == SETUPS {
            setup_checked(kind, seed, workers, clients)?
        } else {
            setup(kind, seed, workers, clients)?
        };
        setup_s.push(secs);
        live = Some(fresh);
    }
    let mut live = live.expect("at least one set-up");
    let p = phases(kind, &mut live, seed, seconds);

    let mut out = Outcome::default();
    let open: Vec<&Sample> = p.open.iter().collect();
    failures(&mut out, &open, &live.want);
    let closed: Vec<&Sample> = p.closed.iter().flatten().collect();
    failures(&mut out, &closed, &live.want);
    let latencies = latencies_ms(&p.open, &live.want);
    let late: Vec<f64> = open.iter().map(|s| s.late_ms()).collect();
    let rate = match kind {
        Kind::Hot => HOT_RATE,
        Kind::Cold => COLD_RATE,
    };
    out.lines.push(format!(
        "corpus {} timed + {} warm-up candidates; open loop {} requests at {rate} req/s; closed loop {} requests",
        live.corpus.timed,
        live.corpus.items.len() - live.corpus.warmup_from,
        open.len(),
        closed.len(),
    ));
    out.lines.push(format!(
        "closed-loop rates ({}): {:?}",
        match kind {
            Kind::Hot => "per 0.5 s window",
            Kind::Cold => "per round",
        },
        p.rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));
    out.lines.push(format!(
        "generator late p50 {:.3} ms, max {:.3} ms",
        stats::median(&late),
        late.iter().copied().fold(0.0, f64::max),
    ));
    let rps = stats::median(&p.rates);
    out.metric("setup_s", stats::median(&setup_s), "s");
    out.metric("peak_rss_mb", stats::median(&p.rss_mb), "MB");
    out.metric("records_per_s", rps, "1/s");
    out.metric("throughput_rps", rps, "1/s");
    report::latency_metrics(&mut out, &latencies);
    live.shutdown()?;
    Ok(out)
}

/// `/v1/stats` counters the hit ratios come from: evaluate requests,
/// response-cache hits, memo hits, memo misses.
fn stat_counts(addr: SocketAddr) -> Result<[f64; 4], String> {
    let stats = ceserve::loadgen::fetch_stats(addr).map_err(|e| format!("stats: {e}"))?;
    let get = |path: &[&str]| stats.get_path(path).and_then(Yaml::as_i64).unwrap_or(0) as f64;
    Ok([
        get(&["requests", "evaluate"]),
        get(&["response_cache", "hits"]),
        get(&["memo", "hits"]),
        get(&["memo", "misses"]),
    ])
}

/// The caches of a fresh `Service`, mirrored so the layer-by-layer
/// breakdown sees the same hits and misses `api::handle` does.
#[derive(Default)]
struct Replica {
    memo: ScoreMemo,
    refs: RefCache,
    responses: HashMap<(u64, u64), SubmissionVerdict>,
    /// Substrate passes per application, in [`SUBSTRATES`] order.
    passes: [usize; 3],
}

/// One replayed request.
struct Replayed {
    /// `api::handle` answered the expected body and the replica
    /// reproduced it byte for byte.
    ok: bool,
    parse_ns: u64,
    handle_ns: u64,
}

/// Replays one request in-process: `ceserve.http_parse` and
/// `ceserve.handle` against the fresh `Service`, then the layers inside
/// `handle` one by one against the replica caches, recorded as children
/// of the handle span.
fn replay_one(
    local: &mut Local<'_>,
    service: &ceserve::Service,
    replica: &mut Replica,
    it: &Item,
    want: Option<&str>,
    rid: u64,
) -> Replayed {
    let root = local.open("request", 0, rid);
    let t0 = Instant::now();
    let request = local.time("ceserve.http_parse", root.id, rid, || {
        let mut parser = ceserve::http::RequestParser::new();
        parser.feed(&it.request);
        parser.try_next()
    });
    let parse_ns = t0.elapsed().as_nanos() as u64;
    let Ok(Some(request)) = request else {
        local.close(root);
        return Replayed {
            ok: false,
            parse_ns,
            handle_ns: 0,
        };
    };
    let mut bytes = Vec::new();
    let t1 = Instant::now();
    let handle = local.open("ceserve.handle", root.id, rid);
    ceserve::api::handle(service, &request, &mut ceserve::api::BufSink(&mut bytes));
    local.close(handle);
    let handle_ns = t1.elapsed().as_nanos() as u64;
    let served = ceserve::http::read_response(&mut bytes.as_slice())
        .ok()
        .filter(|r| r.status == 200)
        .map(|r| r.body);

    let (h, problem) = (handle.id, &service.dataset().problems()[it.problem]);
    let decoded = local.time("yamlkit.json_decode", h, rid, || {
        yamlkit::parse_one(request.body()).map(|n| n.to_value())
    });
    let candidate = decoded
        .ok()
        .and_then(|v| v.get("candidate").and_then(Yaml::as_str).map(str::to_owned))
        .unwrap_or_default();
    let extracted = local.time("llmsim.extract", h, rid, || extract_yaml(&candidate));
    let key = (
        yamlkit::doc::content_hash(&extracted),
        yamlkit::doc::content_hash(&format!(
            "{}@{}",
            problem.id,
            ceserve::api::variant_wire(it.variant)
        )),
    );
    let verdict = match replica.responses.get(&key) {
        Some(v) => SubmissionVerdict {
            cached: true,
            ..v.clone()
        },
        None => {
            let doc = local.time("yamlkit.parse", h, rid, || PreparedDoc::shared(extracted));
            let reference = local.time("cescore.ref_prepare", h, rid, || {
                replica.refs.prepare(&problem.labeled_reference)
            });
            let mut scores = local.time("cescore.score", h, rid, || {
                score_pair_prepared(&reference, &doc)
            });
            let (memo_key, found) = local.time("evalcluster.memo", h, rid, || {
                let memo_key = (
                    doc.content_hash(),
                    substrate::content_hash(&problem.unit_test),
                );
                (memo_key, replica.memo.get(memo_key))
            });
            let cached = found.is_some();
            let execution = match found {
                Some(v) => v,
                None => {
                    let app = application_index(problem);
                    let v = local.time(SUBSTRATES[app], h, rid, || {
                        evalcluster::execute_uncached(&doc, &problem.unit_test)
                    });
                    replica.passes[app] += usize::from(v.passed);
                    local.time("evalcluster.memo", h, rid, || {
                        replica.memo.insert(memo_key, v.clone())
                    });
                    v
                }
            };
            scores.unit_test = f64::from(u8::from(execution.passed));
            let verdict = SubmissionVerdict {
                problem_id: problem.id.clone(),
                variant: it.variant,
                extracted: doc.text().to_owned(),
                scores,
                passed: execution.passed,
                simulated_ms: execution.simulated_ms,
                answer_class: llmsim::classify_answer(
                    doc.text(),
                    reference.clean_text(),
                    execution.passed,
                ),
                failure_bucket: execution
                    .diagnosis
                    .as_ref()
                    .map(|d| d.bucket.label().to_owned()),
                cached,
                score_issue: reference.issue().map(cescore::ScoreIssue::wire),
            };
            replica.responses.insert(key, verdict.clone());
            verdict
        }
    };
    let body = local.time("yamlkit.json_encode", h, rid, || {
        yamlkit::json::to_json(&ceserve::api::verdict_to_yaml(&verdict))
    });
    local.close(root);
    let ok = served.as_deref() == Some(body.as_str())
        && want.is_none_or(|w| passed(&Check::Differs(body.clone()), Some(w)));
    Replayed {
        ok,
        parse_ns,
        handle_ns,
    }
}

/// One replay lane: a fresh `Service` and the replica of its caches.
struct Lane {
    service: ceserve::Service,
    replica: Replica,
    busy: Duration,
}

/// Replays the warm-up, then each timed segment (on `serve-cold` both
/// caches are dropped before every segment after the first, as in the
/// real run), on two lanes in lockstep: one records spans under
/// `tracer`, the other runs the same calls untraced. Alternating which
/// lane goes first, request by request, lets both see the same machine,
/// so their time difference is the tracing overhead. Returns the traced
/// and untraced lane times, each traced request's result and the traced
/// lane's substrate pass counts.
fn replay(
    tracer: &Tracer,
    kind: Kind,
    live: &Live,
    segments: &[Vec<usize>],
    workers: usize,
) -> (Duration, Duration, Vec<Replayed>, [usize; 3]) {
    let lane = || Lane {
        service: ceserve::Service::new(
            Arc::clone(&live.dataset),
            Arc::new(ScoreMemo::new()),
            workers,
        ),
        replica: Replica::default(),
        busy: Duration::ZERO,
    };
    let (mut traced, mut plain) = (lane(), lane());
    let quiet = Tracer::new(false);
    let mut quiet_local = quiet.local();
    for l in [&mut traced, &mut plain] {
        for it in &live.corpus.items[live.corpus.warmup_from..] {
            replay_one(&mut quiet_local, &l.service, &mut l.replica, it, None, 0);
        }
        l.replica.passes = [0; 3];
    }
    let mut local = tracer.local();
    let mut results = Vec::new();
    for (n, segment) in segments.iter().enumerate() {
        if kind == Kind::Cold && n > 0 {
            for l in [&mut traced, &mut plain] {
                l.service.clear_caches();
                l.replica.memo = ScoreMemo::new();
                l.replica.responses.clear();
            }
        }
        for &i in segment {
            let rid = results.len() as u64;
            let (it, want) = (
                &live.corpus.items[i],
                live.want.get(i).and_then(Option::as_deref),
            );
            let mut run_plain = |plain: &mut Lane| {
                let started = Instant::now();
                replay_one(
                    &mut quiet_local,
                    &plain.service,
                    &mut plain.replica,
                    it,
                    want,
                    rid,
                );
                plain.busy += started.elapsed();
            };
            let plain_first = rid.is_multiple_of(2);
            if plain_first {
                run_plain(&mut plain);
            }
            let started = Instant::now();
            results.push(replay_one(
                &mut local,
                &traced.service,
                &mut traced.replica,
                it,
                want,
                rid,
            ));
            traced.busy += started.elapsed();
            if !plain_first {
                run_plain(&mut plain);
            }
        }
    }
    (traced.busy, plain.busy, results, traced.replica.passes)
}

/// The traced run: the real server run with client-side spans, then the
/// in-process replay of the same requests, untraced and traced.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: u64,
    workers: usize,
    clients: usize,
    spans_path: &std::path::Path,
) -> Result<Outcome, String> {
    let (mut live, _) = setup_checked(kind, seed, workers, clients)?;
    let tracer = Tracer::new(true);
    let addr = live.server.addr();
    let before = stat_counts(addr)?;
    let p = phases(kind, &mut live, seed, seconds);
    let after = stat_counts(addr)?;

    let mut out = Outcome::default();
    // Timed requests in the order the server saw them: by phase, then
    // by send time. The request id is the position in this order.
    let mut segments: Vec<Vec<&Sample>> = vec![p.open.iter().collect()];
    segments.extend(p.closed.iter().map(|round| round.iter().collect()));
    for segment in &mut segments {
        segment.sort_by_key(|s| s.sent);
    }
    let timed: Vec<&Sample> = segments.iter().flatten().copied().collect();
    failures(&mut out, &timed, &live.want);
    for (rid, s) in timed.iter().enumerate() {
        let rid = rid as u64;
        let request = tracer.record(
            "loadgen.request",
            0,
            rid,
            tracer.at(s.due),
            tracer.at(s.end),
        );
        tracer.record(
            "loadgen.round_trip",
            request,
            rid,
            tracer.at(s.sent),
            tracer.at(s.end),
        );
    }
    let order: Vec<Vec<usize>> = segments
        .iter()
        .map(|seg| seg.iter().map(|s| s.item).collect())
        .collect();
    let (replay_wall, plain_wall, replayed, passes) = replay(&tracer, kind, &live, &order, workers);
    out.attempted += replayed.len() as u64;
    out.failed += replayed.iter().filter(|r| !r.ok).count() as u64;

    let spans = tracer.take();
    if let Err(e) = trace::write_jsonl(spans_path, &spans) {
        out.check_failures.push(format!("writing spans: {e}"));
    }
    let mut table = trace::layers(&spans, &report::LAYERS);
    // Transport: the real round trip minus server-side parse and handle.
    let mut transport = Layer::default();
    for (s, r) in timed.iter().zip(&replayed) {
        let round_trip = s.end.duration_since(s.sent).as_nanos() as u64;
        let t = round_trip.saturating_sub(r.parse_ns + r.handle_ns);
        transport.add(t, t);
    }
    table.insert("ceserve.transport", transport);

    let mut extras: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (app, name) in SUBSTRATES.iter().enumerate() {
        let executed = table[name].calls.max(1) as f64;
        extras.insert(PASS_RATIOS[app], passes[app] as f64 / executed);
    }
    let delta = |i: usize| after[i] - before[i];
    extras.insert(
        "ceserve.response_cache.hit_ratio",
        delta(1) / delta(0).max(1.0),
    );
    extras.insert(
        "evalcluster.memo.hit_ratio",
        delta(2) / (delta(2) + delta(3)).max(1.0),
    );
    report::tail_extras(&mut extras, &latencies_ms(&p.open, &live.want));
    let late: Vec<f64> = p.open.iter().map(Sample::late_ms).collect();
    extras.insert("loadgen.late_ms.p50", stats::median(&late));
    extras.insert(
        "loadgen.late_ms.max",
        late.iter().copied().fold(0.0, f64::max),
    );
    let wall_ns = p.wall.as_nanos() as u64;
    extras.insert(
        "unattributed_ms",
        trace::unattributed_ms(wall_ns, clients, &table),
    );
    extras.insert("trace.wall_ms", p.wall.as_secs_f64() * 1e3);
    extras.insert("trace.threads", clients as f64);
    let overhead = replay_wall.as_secs_f64() - plain_wall.as_secs_f64();
    extras.insert("tracing.overhead_ms", overhead * 1e3);
    extras.insert(
        "tracing.overhead_ratio",
        overhead / plain_wall.as_secs_f64().max(1e-9),
    );

    out.lines.push(format!(
        "real run: {} timed requests in {:.2} s on {clients} connections; replay {:.1} ms traced, {:.1} ms untraced; {} spans -> {}",
        timed.len(),
        p.wall.as_secs_f64(),
        replay_wall.as_secs_f64() * 1e3,
        plain_wall.as_secs_f64() * 1e3,
        spans.len(),
        spans_path.display()
    ));
    out.lines.push(format!(
        "after warm-up: response-cache hit ratio {:.3}, memo hit ratio {:.3} (from /v1/stats)",
        extras["ceserve.response_cache.hit_ratio"], extras["evalcluster.memo.hit_ratio"]
    ));
    out.lines
        .extend(report::layer_lines(&table, wall_ns, clients));
    report::layer_metrics(&mut out, &table, &extras);
    live.shutdown()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// A one-connection HTTP server answering `{}` at once, except the
    /// `stall_at`-th request, which it holds for `stall`.
    fn stalling_server(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut parser = ceserve::http::RequestParser::new();
            let mut buf = [0u8; 4096];
            let mut served = 0;
            loop {
                while let Ok(Some(_)) = parser.try_next() {
                    if served == stall_at {
                        std::thread::sleep(stall);
                    }
                    served += 1;
                    let response =
                        ceserve::http::encode_response(200, "application/json", "{}", true);
                    if stream.write_all(&response).is_err() {
                        return;
                    }
                }
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => parser.feed(&buf[..n]),
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn due_time_latency_shows_a_server_stall() {
        let (addr, server) = stalling_server(5, Duration::from_millis(50));
        let mut conns = vec![Conn::open(addr).unwrap()];
        let request = request_bytes("{}");
        // One request every 5 ms on one connection.
        let schedule: Vec<(f64, usize)> = (0..20).map(|k| (k as f64 * 0.005, 0)).collect();
        let samples = open_loop(
            &mut conns,
            &schedule,
            &[request.as_slice()],
            &[Some("{}".to_owned())],
        );
        drop(conns);
        server.join().unwrap();
        assert_eq!(samples.len(), 20);
        assert!(samples.iter().all(|s| s.check == Check::Ok));
        let latency: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let round_trip = |s: &Sample| s.end.duration_since(s.sent).as_secs_f64() * 1e3;
        assert!(latency[5] >= 50.0, "{latency:?}");
        // Requests due during the stall queue behind it: their latency
        // from due time carries the wait, although their own round trip
        // is short.
        for k in 6..9 {
            assert!(
                latency[k] >= 50.0 - 5.0 * (k - 5) as f64 - 2.0,
                "{k}: {latency:?}"
            );
            assert!(
                round_trip(&samples[k]) < 20.0,
                "{k}: {}",
                round_trip(&samples[k])
            );
            assert!(samples[k].late_ms() > 10.0);
        }
        // Well before the stall nothing waits.
        assert!(latency[..5].iter().all(|l| *l < 20.0), "{latency:?}");
    }

    #[test]
    fn a_body_that_differs_only_in_cached_passes() {
        let want = r#"{"passed":true,"cached":true,"x":1}"#;
        assert!(passed(&Check::Ok, Some(want)));
        assert!(passed(
            &Check::Differs(r#"{"passed":true,"cached":false,"x":1}"#.into()),
            Some(want)
        ));
        assert!(!passed(
            &Check::Differs(r#"{"passed":false,"cached":true,"x":1}"#.into()),
            Some(want)
        ));
        assert!(!passed(&Check::Status(503), Some(want)));
        assert!(!passed(&Check::Transport, None));
    }
}
