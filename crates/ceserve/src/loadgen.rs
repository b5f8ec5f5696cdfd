//! The built-in load-generator client: N concurrent `TcpStream` clients
//! replaying a candidate corpus against `/v1/evaluate` with a Zipf-ish
//! repeat distribution — low-rank corpus entries are requested far more
//! often than the tail, exactly the traffic shape that makes the shared
//! verdict memo earn its keep.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use cedataset::{Dataset, Variant};
use rand::{rngs::StdRng, Rng, SeedableRng};
use yamlkit::{ymap, Yaml};

use crate::api::variant_wire;
use crate::http;

/// One corpus entry: a raw candidate for a specific problem/variant.
#[derive(Debug, Clone)]
pub struct LoadItem {
    /// Target problem id.
    pub problem_id: String,
    /// Target variant.
    pub variant: Variant,
    /// Raw candidate text (post-processing happens server-side).
    pub raw: String,
}

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Zipf exponent: weight of corpus rank `r` is `1/(r+1)^s`. `0.0`
    /// degenerates to uniform; around `1.0` is web-like skew.
    pub zipf_exponent: f64,
    /// RNG seed (each client derives its own stream from it).
    pub seed: u64,
    /// Keep-alive connections each client thread holds open,
    /// round-robining its requests across them. `1` is the classic
    /// one-connection-per-client shape; larger values measure how the
    /// server carries many mostly-idle keep-alive connections (the C10K
    /// sweep drives 1024 connections from 16 client threads this way).
    pub connections_per_client: usize,
}

impl Default for LoadGenConfig {
    fn default() -> LoadGenConfig {
        LoadGenConfig {
            clients: 4,
            requests: 200,
            zipf_exponent: 1.0,
            seed: 7,
            connections_per_client: 1,
        }
    }
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// Which corpus entry was submitted.
    pub corpus_index: usize,
    /// HTTP status of the response.
    pub status: u16,
    /// Parsed response body.
    pub body: Yaml,
    /// Client-observed latency of the successful attempt: first request
    /// byte written to last response byte read (retries restart the
    /// clock — this measures the request the server actually answered).
    pub latency: Duration,
}

/// Aggregate result of a load-generation run.
#[derive(Debug)]
pub struct LoadReport {
    /// Every completed request (unordered across clients).
    pub outcomes: Vec<LoadOutcome>,
    /// Requests that failed at the transport layer.
    pub transport_errors: usize,
    /// Wall-clock of the whole run.
    pub wall: Duration,
}

impl LoadReport {
    /// Completed requests per second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / self.wall.as_secs_f64()
    }

    /// Client-observed latency at quantile `q` (`0.0..=1.0`) across the
    /// completed requests, nearest-rank. Zero when nothing completed.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        if self.outcomes.is_empty() {
            return Duration::ZERO;
        }
        let mut latencies: Vec<Duration> = self.outcomes.iter().map(|o| o.latency).collect();
        latencies.sort_unstable();
        let rank = ((q.clamp(0.0, 1.0) * latencies.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(latencies.len() - 1);
        latencies[rank]
    }

    /// Median client-observed latency.
    pub fn latency_p50(&self) -> Duration {
        self.latency_quantile(0.50)
    }

    /// Tail (p99) client-observed latency.
    pub fn latency_p99(&self) -> Duration {
        self.latency_quantile(0.99)
    }
}

/// Builds a candidate corpus from a dataset: a mix of reference-derived
/// passing candidates (fenced like real model output), lightly broken
/// ones (wrong image / dropped lines → unit-test failures) and outright
/// garbage, cycling through problems and variants deterministically.
pub fn build_corpus(dataset: &Dataset, size: usize) -> Vec<LoadItem> {
    let problems = dataset.problems();
    let mut corpus = Vec::with_capacity(size);
    for i in 0..size {
        let problem = &problems[(i * 13) % problems.len()];
        let variant = Variant::ALL[i % Variant::ALL.len()];
        let reference = problem.clean_reference();
        let raw = match i % 4 {
            // Clean pass, wrapped the way chat models answer.
            0 | 1 => format!("Here is the configuration:\n```yaml\n{reference}```\n"),
            // Likely failure: drop the tail of the reference.
            2 => {
                let keep = reference.lines().count().saturating_sub(3).max(1);
                let head: Vec<&str> = reference.lines().take(keep).collect();
                format!("```yaml\n{}\n```", head.join("\n"))
            }
            // Garbage: not YAML at all.
            _ => "I cannot produce YAML for this request {{{".to_owned(),
        };
        corpus.push(LoadItem {
            problem_id: problem.id.clone(),
            variant,
            raw,
        });
    }
    corpus
}

/// Precomputed cumulative Zipf weights over corpus ranks.
fn zipf_cumulative(n: usize, s: f64) -> Vec<f64> {
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 0..n {
        total += 1.0 / ((rank + 1) as f64).powf(s);
        cumulative.push(total);
    }
    cumulative
}

/// Samples a corpus index from the Zipf-ish distribution.
fn sample_index(cumulative: &[f64], rng: &mut StdRng) -> usize {
    let total = *cumulative.last().expect("non-empty corpus");
    let needle = rng.gen_range(0.0..total);
    cumulative
        .partition_point(|&c| c <= needle)
        .min(cumulative.len() - 1)
}

/// Encodes the `/v1/evaluate` body for a corpus entry.
pub fn evaluate_body(item: &LoadItem) -> String {
    yamlkit::json::to_json(&ymap! {
        "problem_id" => item.problem_id.clone(),
        "variant" => variant_wire(item.variant),
        "candidate" => item.raw.clone(),
    })
}

/// One failed request attempt, tagged with whether re-sending the
/// request on a fresh connection is safe.
///
/// Re-sending is safe only when the server cannot have *executed* the
/// request: the write itself failed, or the connection closed/reset
/// before a single response byte arrived — the ordinary stale
/// keep-alive close. A response-read timeout or a truncated response
/// means the server may be (or have finished) executing it; re-sending
/// those would run the request twice server-side and skew the
/// `executed`/`cache_hits` counters `/v1/stats` reports.
struct AttemptError {
    retriable: bool,
}

/// Issues one request on an existing connection.
fn one_request(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    item: &LoadItem,
) -> Result<http::Response, AttemptError> {
    if http::write_request(stream, "POST", "/v1/evaluate", Some(&evaluate_body(item))).is_err() {
        // The request never fully reached the kernel: safe to re-send.
        return Err(AttemptError { retriable: true });
    }
    http::read_response(reader).map_err(|e| AttemptError {
        // `read_response` reserves `Closed` (and a raw `Io`) for
        // failures before the first response byte; truncations surface
        // as `Malformed` and stalls as `Timeout`.
        retriable: matches!(e, http::RequestError::Closed | http::RequestError::Io(_)),
    })
}

/// Opens one keep-alive connection to the server.
fn connect(addr: SocketAddr) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nodelay(true);
    let read_half = stream.try_clone()?;
    Ok((stream, BufReader::new(read_half)))
}

/// Runs the load generator against a server.
///
/// Each client keeps [`LoadGenConfig::connections_per_client`]
/// persistent connections, round-robining Zipf-sampled corpus entries
/// across them. A request whose failure proves the server never
/// executed it (write failure, or a close before any response byte —
/// the ordinary stale keep-alive event) is retried **once on a fresh
/// connection** rather than losing the sample, so a run against a
/// responsive server completes exactly `requests` requests; a timeout
/// or truncated response is counted as a transport error instead of
/// re-sent, because the server may still execute the original and a
/// duplicate would skew the `executed`/`cache_hits` stats. The combined
/// outcomes come back with their corpus indices so callers can verify
/// every response against a direct pipeline run.
pub fn run(
    addr: SocketAddr,
    corpus: &[LoadItem],
    config: &LoadGenConfig,
) -> io::Result<LoadReport> {
    assert!(!corpus.is_empty(), "empty load corpus");
    let clients = config.clients.max(1);
    let conns_per_client = config.connections_per_client.max(1);
    let cumulative = zipf_cumulative(corpus.len(), config.zipf_exponent);
    let started = Instant::now();
    let mut outcomes: Vec<LoadOutcome> = Vec::with_capacity(config.requests);
    let mut transport_errors = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for client in 0..clients {
            let share = config.requests / clients + usize::from(client < config.requests % clients);
            let cumulative = &cumulative;
            handles.push(scope.spawn(move || {
                let mut rng =
                    StdRng::seed_from_u64(config.seed ^ (client as u64).wrapping_mul(0x9e37_79b9));
                let mut conns: Vec<Option<(TcpStream, BufReader<TcpStream>)>> =
                    (0..conns_per_client).map(|_| None).collect();
                let mut outcomes = Vec::with_capacity(share);
                let mut errors = 0usize;
                for n in 0..share {
                    let index = sample_index(cumulative, &mut rng);
                    let slot = n % conns_per_client;
                    // Two attempts: the second always on a fresh
                    // connection, so a stale keep-alive close costs a
                    // reconnect, not a sample. Failures that leave the
                    // request possibly executing server-side (timeout,
                    // truncated response) are never re-sent — see
                    // [`AttemptError`].
                    let mut completed = false;
                    for _ in 0..2 {
                        if conns[slot].is_none() {
                            conns[slot] = connect(addr).ok();
                        }
                        let Some((stream, reader)) = conns[slot].as_mut() else {
                            continue;
                        };
                        let attempt_started = Instant::now();
                        match one_request(stream, reader, &corpus[index]) {
                            Ok(response) => {
                                let latency = attempt_started.elapsed();
                                let body = yamlkit::parse_one(&response.body)
                                    .map(|n| n.to_value())
                                    .unwrap_or(Yaml::Null);
                                outcomes.push(LoadOutcome {
                                    corpus_index: index,
                                    status: response.status,
                                    body,
                                    latency,
                                });
                                completed = true;
                                break;
                            }
                            Err(failure) => {
                                conns[slot] = None;
                                if !failure.retriable {
                                    break;
                                }
                            }
                        }
                    }
                    if !completed {
                        errors += 1;
                    }
                }
                (outcomes, errors)
            }));
        }
        for handle in handles {
            let (mut client_outcomes, errors) = handle.join().expect("loadgen client panicked");
            outcomes.append(&mut client_outcomes);
            transport_errors += errors;
        }
    });
    Ok(LoadReport {
        outcomes,
        transport_errors,
        wall: started.elapsed(),
    })
}

/// Fetches the Prometheus text exposition from `GET /v1/metrics` on a
/// running server.
pub fn fetch_metrics(addr: SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(stream.try_clone()?);
    http::write_request(&mut stream, "GET", "/v1/metrics", None)?;
    let response = http::read_response(&mut reader)
        .map_err(|e| io::Error::other(format!("bad metrics response: {e:?}")))?;
    Ok(response.body)
}

/// Fetches and parses `GET /v1/stats` from a running server.
pub fn fetch_stats(addr: SocketAddr) -> io::Result<Yaml> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut reader = BufReader::new(stream.try_clone()?);
    http::write_request(&mut stream, "GET", "/v1/stats", None)?;
    let response = http::read_response(&mut reader)
        .map_err(|e| io::Error::other(format!("bad stats response: {e:?}")))?;
    yamlkit::parse_one(&response.body)
        .map(|n| n.to_value())
        .map_err(|e| io::Error::other(format!("unparseable stats body: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampling_is_skewed_toward_low_ranks() {
        let cumulative = zipf_cumulative(32, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 32];
        for _ in 0..4000 {
            counts[sample_index(&cumulative, &mut rng)] += 1;
        }
        assert!(counts[0] > counts[8], "{counts:?}");
        assert!(counts[0] > counts[31] * 3, "{counts:?}");
        // Every rank still reachable-ish: the head dominates.
        let head: usize = counts[..4].iter().sum();
        assert!(head * 2 > 4000, "head too light: {counts:?}");
    }

    #[test]
    fn corpus_mixes_pass_and_fail_candidates() {
        let dataset = Dataset::generate();
        let corpus = build_corpus(&dataset, 24);
        assert_eq!(corpus.len(), 24);
        assert!(corpus.iter().any(|i| i.raw.contains("```yaml")));
        assert!(corpus.iter().any(|i| i.raw.contains("{{{")));
        let distinct: std::collections::HashSet<&str> =
            corpus.iter().map(|i| i.problem_id.as_str()).collect();
        assert!(distinct.len() > 8);
    }
}
