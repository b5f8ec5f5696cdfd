//! Metric names, the result object every workload returns, and the
//! environment stamp printed with it.

use std::collections::BTreeMap;

use crate::stats;
use crate::trace::Layer;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("records_per_s", "1/s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Adds `latency_p50_ms` from `latencies_ms` (failed operations count as
/// infinite: they miss any limit) and a line with p50, p90 and p99.
///
/// The tail carries no bound. On a small shared machine the few percent
/// of requests that absorb host scheduling delays, or that queue behind
/// the slowest unit test, decide it: between identical runs p99 moved
/// 2.6–11.6 ms on `serve-hot` and p90 3.7–8.3 ms on `serve-cold`. The
/// traced run reports both as per-layer metrics.
pub fn latency_metrics(out: &mut Outcome, latencies_ms: &[f64]) {
    let sorted = stats::sorted(latencies_ms);
    let shown = |q: f64| match stats::percentile(&sorted, q) {
        Some(v) if v.is_finite() => format!("{v:.3} ms"),
        Some(_) => "failed".to_owned(),
        None => "n/a".to_owned(),
    };
    out.lines.push(format!(
        "latency over {} samples: p50 {}, p90 {}, p99 {}",
        sorted.len(),
        shown(0.50),
        shown(0.90),
        shown(0.99)
    ));
    match stats::percentile(&sorted, 0.50) {
        Some(v) if v.is_finite() => out.metric("latency_p50_ms", v, "ms"),
        other => {
            out.check_failures.push(format!(
                "latency_p50_ms: {} ({} samples)",
                if other.is_some() {
                    "failed operations decide it"
                } else {
                    "too few samples beyond it"
                },
                sorted.len()
            ));
            out.metric("latency_p50_ms", 0.0, "ms");
        }
    }
}

/// Inserts the latency tail (`loadgen.latency_p90_ms`, `_p99_ms`) of
/// `latencies_ms` into the traced run's extras; 0 where too few samples
/// lie beyond a percentile.
pub fn tail_extras(extras: &mut BTreeMap<&'static str, f64>, latencies_ms: &[f64]) {
    let sorted = stats::sorted(latencies_ms);
    for (name, q) in [
        ("loadgen.latency_p90_ms", 0.90),
        ("loadgen.latency_p99_ms", 0.99),
    ] {
        let v = stats::percentile(&sorted, q).filter(|v| v.is_finite());
        extras.insert(name, v.unwrap_or(0.0));
    }
}

/// Layers timed by the traced run, each reported as `.calls`,
/// `.self_ms`, `.p50_us` and `.p99_us`.
pub const LAYERS: [&str; 15] = [
    "substrate.kubernetes",
    "substrate.envoy",
    "substrate.istio",
    "llmsim.generate",
    "llmsim.extract",
    "llmsim.repair_prompt",
    "yamlkit.parse",
    "cescore.ref_prepare",
    "cescore.score",
    "evalcluster.memo",
    "ceserve.http_parse",
    "yamlkit.json_decode",
    "yamlkit.json_encode",
    "ceserve.handle",
    "ceserve.transport",
];

/// Per-layer ratios, counts and times beside the layer table.
pub const LAYER_EXTRAS: [(&str, &str); 17] = [
    ("substrate.kubernetes.pass_ratio", "ratio"),
    ("substrate.envoy.pass_ratio", "ratio"),
    ("substrate.istio.pass_ratio", "ratio"),
    ("evalcluster.memo.hit_ratio", "ratio"),
    ("evalcluster.memo.stale_retries", "count"),
    ("ceserve.response_cache.hit_ratio", "ratio"),
    ("core.pipeline.extract.queue_wait_ms", "ms"),
    ("core.pipeline.score.queue_wait_ms", "ms"),
    ("loadgen.late_ms.p50", "ms"),
    ("loadgen.late_ms.max", "ms"),
    ("loadgen.latency_p90_ms", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.threads", "count"),
    ("tracing.overhead_ms", "ms"),
    ("tracing.overhead_ratio", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: String,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (records, traces or requests).
    pub attempted: u64,
    /// Operations that failed: wrong output, non-200, transport error.
    pub failed: u64,
    /// Failed checks that are not a single operation.
    pub check_failures: Vec<String>,
    /// Reported metrics in output order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Whether every output matched and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty() && self.attempted > 0
    }

    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        });
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (never expected) become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The layer table as per-layer metrics (every listed name, zeros for a
/// layer the workload never calls or a percentile with too few calls
/// beyond it), followed by `extras` in [`LAYER_EXTRAS`] order.
pub fn layer_metrics(
    out: &mut Outcome,
    table: &BTreeMap<&'static str, Layer>,
    extras: &BTreeMap<&'static str, f64>,
) {
    let empty = Layer::default();
    for name in LAYERS {
        let layer = table.get(name).unwrap_or(&empty);
        out.metric(&format!("{name}.calls"), layer.calls as f64, "count");
        out.metric(&format!("{name}.self_ms"), layer.self_ns as f64 / 1e6, "ms");
        out.metric(
            &format!("{name}.p50_us"),
            layer.percentile_us(0.50).unwrap_or(0.0),
            "us",
        );
        out.metric(
            &format!("{name}.p99_us"),
            layer.percentile_us(0.99).unwrap_or(0.0),
            "us",
        );
    }
    for (name, unit) in LAYER_EXTRAS {
        out.metric(name, extras.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// Metric names a run must report: every end-to-end metric untraced,
/// every per-layer metric traced.
pub fn expected_names(traced: bool) -> Vec<String> {
    if !traced {
        return END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
    }
    let mut out = Outcome::default();
    layer_metrics(&mut out, &BTreeMap::new(), &BTreeMap::new());
    out.metrics.into_iter().map(|m| m.name).collect()
}

/// Human-readable layer table, largest self time first.
pub fn layer_lines(
    table: &BTreeMap<&'static str, Layer>,
    wall_ns: u64,
    threads: usize,
) -> Vec<String> {
    let budget = (wall_ns as f64 * threads as f64).max(1.0);
    let fmt = |v: Option<f64>| v.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.1}"));
    let mut rows: Vec<(&&str, &Layer)> = table.iter().filter(|(_, l)| l.calls > 0).collect();
    rows.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
    let mut lines = vec![format!(
        "  {:<24} {:>8} {:>11} {:>6} {:>10} {:>10}",
        "layer", "calls", "self ms", "share", "p50 us", "p99 us"
    )];
    for (name, l) in rows {
        lines.push(format!(
            "  {:<24} {:>8} {:>11.2} {:>5.1}% {:>10} {:>10}",
            name,
            l.calls,
            l.self_ns as f64 / 1e6,
            l.self_ns as f64 * 100.0 / budget,
            fmt(l.percentile_us(0.50)),
            fmt(l.percentile_us(0.99)),
        ));
    }
    lines
}

/// Returns the heap's free pages to the system and resets this
/// process's peak resident set to its current one, so the next
/// [`peak_rss_mb`] covers what runs in between, starting from live
/// memory only. Without the trim, whether a pass reused pages an earlier
/// pass left in some allocator arena decided the peak, and it jumped
/// between two values run to run.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` only releases free heap memory and may be
        // called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    // Without procfs the peak simply keeps covering the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Output of a short command, first line, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut command = std::process::Command::new(program);
    command.args(args).stdin(std::process::Stdio::null());
    if program == "git" {
        // Stay inside this checkout: never pick up a repository above it.
        if let Some(parent) = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.to_path_buf()))
        {
            command.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The environment a result was measured in, as one JSON object.
pub fn env_stamp(workload: &str, seed: u64, trace: bool, workers: usize, clients: usize) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"nproc\": {}, \"workers\": {workers}, \"client_threads\": {clients}, \"connections\": {clients}, \"git_rev\": \"{}\", \"rustc\": \"{}\"}}",
        nproc(),
        command_line("git", &["rev-parse", "HEAD"]),
        command_line("rustc", &["-V"]),
    )
}
