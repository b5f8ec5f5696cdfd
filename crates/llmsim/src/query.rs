//! The query module (§3.1): one interface over local and remote models,
//! with parallel dispatch and throughput accounting.
//!
//! The paper's query module exists to (a) unify local/remote APIs behind
//! one interface — [`LanguageModel`] here — and (b) maximize throughput by
//! exploiting provider auto-scaling with many parallel requests ("128
//! raylets ... can significantly increase the speed by two orders of
//! magnitude") and by sizing local batches to GPU memory. This module
//! reproduces both mechanisms: a scoped worker pool with a shared work
//! queue, and the batch-size heuristic for local models.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::model::{GenParams, LanguageModel};

/// Parallel dispatch configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryConfig {
    /// Number of worker threads (the paper's raylet count).
    pub parallelism: usize,
    /// Provider rate limit in requests/minute (`None` = unlimited);
    /// recorded in the report, enforced as a ceiling on effective
    /// throughput accounting.
    pub rate_limit_per_min: Option<u32>,
    /// Simulated per-request service latency in milliseconds, used for the
    /// speedup accounting (remote APIs are dominated by service time).
    pub request_latency_ms: u64,
    /// When `true`, each request *really* occupies its worker for
    /// [`request_latency_ms`](QueryConfig::request_latency_ms) of
    /// wall-clock (the worker sleeps through the service time instead of
    /// only modeling it). This reproduces the remote-API regime the paper
    /// runs in — generation threads idle on the network while local CPU
    /// is free — which is exactly the idle time the streaming driver
    /// fills with downstream scoring and substrate execution. Default
    /// `false`: responses return at pure simulation speed.
    pub live_latency: bool,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            parallelism: 16,
            rate_limit_per_min: None,
            request_latency_ms: 800,
            live_latency: false,
        }
    }
}

/// Result of a batch query.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Responses, in prompt order.
    pub responses: Vec<String>,
    /// Modeled wall-clock milliseconds for the batch (latency-bound).
    pub modeled_wall_ms: u64,
    /// Modeled wall-clock for a single worker, for the speedup claim.
    pub modeled_serial_ms: u64,
}

impl BatchReport {
    /// Parallel speedup implied by the latency model.
    pub fn speedup(&self) -> f64 {
        self.modeled_serial_ms as f64 / self.modeled_wall_ms.max(1) as f64
    }
}

/// Result of a streaming query run: the [`BatchReport`] accounting without
/// the materialized response vector (responses were already emitted
/// incrementally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReport {
    /// Number of prompts dispatched.
    pub prompts: usize,
    /// Modeled wall-clock milliseconds for the batch (latency-bound).
    pub modeled_wall_ms: u64,
    /// Modeled wall-clock for a single worker, for the speedup claim.
    pub modeled_serial_ms: u64,
}

impl StreamReport {
    /// Parallel speedup implied by the latency model.
    pub fn speedup(&self) -> f64 {
        self.modeled_serial_ms as f64 / self.modeled_wall_ms.max(1) as f64
    }
}

/// Queries every prompt against one model with a worker pool, emitting
/// each `(prompt_index, response)` the moment it completes instead of
/// materializing the whole batch.
///
/// A consumer can start downstream work (YAML extraction, static
/// scoring, unit-test execution) on record 0 while record 1 is still
/// generating. `emit` is called from the worker threads, concurrently and in
/// completion order — pair each response with its index if ordering
/// matters downstream. The latency model (waves of `parallelism`
/// requests, optional rate-limit ceiling) is identical to
/// [`query_batch`]'s.
pub fn query_stream<F>(
    model: &dyn LanguageModel,
    prompts: &[String],
    params: &GenParams,
    config: &QueryConfig,
    emit: F,
) -> StreamReport
where
    F: Fn(usize, String) + Send + Sync,
{
    let n = prompts.len();
    let next: AtomicUsize = AtomicUsize::new(0);
    let workers = config.parallelism.max(1).min(n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let response = model.generate(&prompts[i], params);
                if config.live_latency {
                    // The worker is "on the wire" for the service time.
                    std::thread::sleep(std::time::Duration::from_millis(config.request_latency_ms));
                }
                emit(i, response);
            });
        }
    });
    // Latency model: each request occupies a worker for latency_ms, so a
    // batch drains in ceil(n/workers) waves; a rate limit caps
    // concurrency-adjusted throughput.
    let serial = config.request_latency_ms * n as u64;
    let waves = (n as u64).div_ceil(workers as u64);
    let mut wall = waves * config.request_latency_ms;
    if let Some(rpm) = config.rate_limit_per_min {
        let min_by_rate = (n as u64 * 60_000) / u64::from(rpm.max(1));
        wall = wall.max(min_by_rate);
    }
    StreamReport {
        prompts: n,
        modeled_wall_ms: wall,
        modeled_serial_ms: serial,
    }
}

/// Queries every prompt against one model with a worker pool.
///
/// Responses are returned in prompt order regardless of completion order.
/// Implemented over [`query_stream`] — the all-at-once `Vec` is just the
/// streamed emission collected back into index order.
pub fn query_batch(
    model: &dyn LanguageModel,
    prompts: &[String],
    params: &GenParams,
    config: &QueryConfig,
) -> BatchReport {
    let n = prompts.len();
    let results: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; n]);
    let stream = query_stream(model, prompts, params, config, |i, response| {
        results.lock().expect("results lock poisoned")[i] = Some(response);
    });
    let responses: Vec<String> = results
        .into_inner()
        .expect("results lock poisoned")
        .into_iter()
        .map(|r| r.expect("all prompts answered"))
        .collect();
    BatchReport {
        responses,
        modeled_wall_ms: stream.modeled_wall_ms,
        modeled_serial_ms: stream.modeled_serial_ms,
    }
}

/// Batch-size heuristic for local models (§3.1: "the module automatically
/// checks the available GPU memory and adjusts the batch size").
///
/// Assumes fp16 weights (~2 bytes/param) plus ~1.2 GiB of activations per
/// sequence in the batch.
pub fn auto_batch_size(gpu_memory_gb: f64, model_size_b_params: f64) -> usize {
    let weights_gb = model_size_b_params * 2.0;
    let free = gpu_memory_gb - weights_gb - 1.0; // runtime overhead
    if free <= 0.0 {
        return 0;
    }
    (free / 1.2).floor().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl LanguageModel for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn generate(&self, prompt: &str, params: &GenParams) -> String {
            format!("{}#{}", prompt, params.sample_index)
        }
    }

    #[test]
    fn responses_preserve_prompt_order() {
        let prompts: Vec<String> = (0..200).map(|i| format!("p{i}")).collect();
        let report = query_batch(
            &Echo,
            &prompts,
            &GenParams::default(),
            &QueryConfig::default(),
        );
        for (i, r) in report.responses.iter().enumerate() {
            assert_eq!(r, &format!("p{i}#0"));
        }
    }

    #[test]
    fn parallelism_speeds_up_the_latency_model() {
        let prompts: Vec<String> = (0..128).map(|i| format!("p{i}")).collect();
        let serial_cfg = QueryConfig {
            parallelism: 1,
            ..QueryConfig::default()
        };
        let wide_cfg = QueryConfig {
            parallelism: 128,
            ..QueryConfig::default()
        };
        let serial = query_batch(&Echo, &prompts, &GenParams::default(), &serial_cfg);
        let wide = query_batch(&Echo, &prompts, &GenParams::default(), &wide_cfg);
        assert!(
            wide.modeled_wall_ms < serial.modeled_wall_ms / 50,
            "wide {} vs serial {}",
            wide.modeled_wall_ms,
            serial.modeled_wall_ms
        );
        assert!(wide.speedup() > 50.0);
    }

    #[test]
    fn rate_limit_caps_throughput() {
        let prompts: Vec<String> = (0..120).map(|i| format!("p{i}")).collect();
        let cfg = QueryConfig {
            parallelism: 64,
            rate_limit_per_min: Some(60),
            request_latency_ms: 10,
            ..QueryConfig::default()
        };
        let report = query_batch(&Echo, &prompts, &GenParams::default(), &cfg);
        // 120 requests at 60 rpm >= 2 minutes.
        assert!(report.modeled_wall_ms >= 120_000);
    }

    #[test]
    fn batch_size_tracks_gpu_memory() {
        assert_eq!(auto_batch_size(16.0, 7.0), 1); // 7B fp16 ≈ 14 GB: tight
        assert!(auto_batch_size(80.0, 7.0) > 20);
        assert_eq!(auto_batch_size(24.0, 70.0), 0); // does not fit
    }

    #[test]
    fn empty_prompt_list_is_fine() {
        let report = query_batch(&Echo, &[], &GenParams::default(), &QueryConfig::default());
        assert!(report.responses.is_empty());
    }

    #[test]
    fn stream_emits_every_prompt_exactly_once() {
        let prompts: Vec<String> = (0..150).map(|i| format!("p{i}")).collect();
        let seen: Mutex<Vec<Option<String>>> = Mutex::new(vec![None; prompts.len()]);
        let report = query_stream(
            &Echo,
            &prompts,
            &GenParams::default(),
            &QueryConfig::default(),
            |i, r| {
                let mut seen = seen.lock().unwrap();
                assert!(seen[i].is_none(), "prompt {i} emitted twice");
                seen[i] = Some(r);
            },
        );
        assert_eq!(report.prompts, 150);
        for (i, r) in seen.into_inner().unwrap().into_iter().enumerate() {
            assert_eq!(r.as_deref(), Some(format!("p{i}#0").as_str()));
        }
    }

    #[test]
    fn live_latency_occupies_workers_for_real() {
        let prompts: Vec<String> = (0..6).map(|i| format!("p{i}")).collect();
        let cfg = QueryConfig {
            parallelism: 2,
            request_latency_ms: 10,
            live_latency: true,
            ..QueryConfig::default()
        };
        let started = std::time::Instant::now();
        let report = query_stream(&Echo, &prompts, &GenParams::default(), &cfg, |_, _| {});
        // 6 requests over 2 workers at 10 ms each = at least 3 waves.
        assert!(started.elapsed() >= std::time::Duration::from_millis(30));
        assert_eq!(report.prompts, 6);
    }

    #[test]
    fn stream_and_batch_share_the_latency_model() {
        let prompts: Vec<String> = (0..64).map(|i| format!("p{i}")).collect();
        for cfg in [
            QueryConfig::default(),
            QueryConfig {
                parallelism: 3,
                rate_limit_per_min: Some(90),
                request_latency_ms: 25,
                ..QueryConfig::default()
            },
        ] {
            let batch = query_batch(&Echo, &prompts, &GenParams::default(), &cfg);
            let stream = query_stream(&Echo, &prompts, &GenParams::default(), &cfg, |_, _| {});
            assert_eq!(stream.modeled_wall_ms, batch.modeled_wall_ms);
            assert_eq!(stream.modeled_serial_ms, batch.modeled_serial_ms);
            assert!((stream.speedup() - batch.speedup()).abs() < 1e-12);
        }
    }
}
