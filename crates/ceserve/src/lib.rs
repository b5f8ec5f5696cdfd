//! # ceserve
//!
//! Benchmark-as-a-service: an event-driven HTTP/1.1 server (hand-rolled
//! on `std::net` — no dependencies, per the offline vendor policy)
//! exposing the CloudEval-YAML evaluation pipeline as a JSON API, plus
//! the load-generator client that exercises it.
//!
//! The serving core is readiness-driven, not thread-per-connection: one
//! event loop owns every socket through a nonblocking [`poll`] shim and
//! a generation-tagged connection slab, an incremental
//! [`http::RequestParser`] assembles requests byte by byte, and a fixed
//! worker pool scores the slow endpoints through a completion channel.
//! Thousands of idle keep-alive connections cost slab slots, not
//! threads — see [`server`] for the life of a request.
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `GET /v1/problems` | The problem corpus (ids, categories, variants) |
//! | `POST /v1/evaluate` | Score one candidate → full verdict |
//! | `POST /v1/batch` | Stream many candidates through the judge engine (chunked) |
//! | `GET /v1/stats` | Memo hit rate, queue depth, per-stage occupancy |
//!
//! Request/response bodies ride the same engine as the benchmark itself:
//! encoded with [`yamlkit::json::to_json`], decoded through the YAML
//! parser (JSON is a YAML subset). Verdicts come from
//! [`cloudeval_core::harness::score_submission`] /
//! [`score_submissions_stream`](cloudeval_core::harness::score_submissions_stream),
//! so a response is bit-identical to what a direct pipeline run produces
//! for the same candidate. One process-wide
//! [`ScoreMemo`](evalcluster::memo::ScoreMemo) backs every request and
//! can be persisted as JSONL across restarts
//! ([`ServerConfig::memo_path`]).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! let dataset = Arc::new(cedataset::Dataset::generate());
//! let server = ceserve::spawn(
//!     "127.0.0.1:0",
//!     Arc::clone(&dataset),
//!     ceserve::ServerConfig::default(),
//! )
//! .unwrap();
//!
//! let corpus = ceserve::loadgen::build_corpus(&dataset, 8);
//! let report = ceserve::loadgen::run(
//!     server.addr(),
//!     &corpus,
//!     &ceserve::loadgen::LoadGenConfig {
//!         clients: 2,
//!         requests: 8,
//!         ..Default::default()
//!     },
//! )
//! .unwrap();
//! assert_eq!(report.outcomes.len(), 8);
//! server.shutdown().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod loadgen;
pub mod poll;
pub mod server;

pub use api::{Service, ServiceStats};
pub use server::{spawn, ServerConfig, ServerHandle};
