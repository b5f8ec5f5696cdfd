//! # obs
//!
//! Dependency-free observability for the CloudEval-YAML engine: a
//! metrics registry of atomic counters, gauges, and log-bucketed latency
//! [histograms](hist) with lock-free recording and mergeable snapshots;
//! [trace spans](span) with monotonic timestamps, per-record/per-request
//! [`TraceId`]s, a bounded in-memory ring, and an optional JSONL sink;
//! and [Prometheus text exposition](expo) of registry snapshots.
//!
//! # Overhead budget
//!
//! Recording through a handle is a relaxed load of the registry's
//! enabled flag plus a handful of relaxed atomic RMWs (one for a
//! counter, five for a histogram) — no locks, no allocation. Starting a
//! span against a disabled collector (the default) is a single relaxed
//! load; nothing allocates until a collector is enabled. The kill
//! switch ([`Registry::set_enabled`]) turns recording off entirely.
//!
//! # Examples
//!
//! ```
//! // Handles are resolved once, recorded lock-free.
//! let registry = obs::Registry::new();
//! let hits = registry.counter("memo_hits_total", &[], "memo hits");
//! let lat = registry.histogram("job_us", &[("shard", "0")], "job latency");
//! hits.inc();
//! lat.record_us(1_250);
//! assert_eq!(lat.snapshot().count, 1);
//!
//! // Spans collect only when a collector is enabled.
//! let spans = obs::Collector::new(1024);
//! spans.set_enabled(true);
//! let trace = obs::TraceId::new();
//! {
//!     let mut root = obs::Span::start_in(&spans, "evaluate", trace);
//!     root.tag("round", "0");
//!     let _score = root.child("score");
//! }
//! assert_eq!(spans.len(), 2);
//!
//! // Prometheus text format from a snapshot.
//! let text = obs::expo::render(&registry.snapshot());
//! assert!(text.contains("memo_hits_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expo;
pub mod hist;
pub mod registry;
pub mod span;

pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use registry::{global, Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry};
pub use span::{now_us, spans, Collector, Span, SpanRecord, TraceId};
