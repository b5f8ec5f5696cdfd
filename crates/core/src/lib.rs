//! # cloudeval-core
//!
//! The benchmark orchestration layer: everything in Figure 3 wired
//! together, plus the §4 analyses.
//!
//! * [`harness`] — dataset → prompt → query → §3.1 post-processing → six
//!   metrics → unit tests on the evaluation cluster. One streaming judge
//!   engine runs the grid ([`harness::evaluate`]), the fail–learn–refine
//!   loop ([`harness::evaluate_repair`]) and service batches
//!   ([`harness::score_submissions_stream`]); the phase-barriered seed
//!   drivers are kept as the reference ([`harness::evaluate_barriered`],
//!   [`harness::evaluate_repair_barriered`]);
//! * [`analysis`] — Figure 6 / Table 9 factor breakdowns and Figure 7
//!   failure modes;
//! * [`passk`] — §4.2 multi-sample generation and pass@k;
//! * [`predict`] — §4.4 unit-test prediction (leave-one-model-out) and
//!   SHAP feature importance;
//! * [`tables`] — text renderers for every table and figure;
//! * [`survey`] / [`related`] — the static Table 8 and Table 7 data.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use cedataset::Dataset;
//! use cloudeval_core::harness::{evaluate, pass_count, EvalOptions};
//! use llmsim::{ModelProfile, SimulatedModel};
//!
//! let dataset = Arc::new(Dataset::generate());
//! let model = SimulatedModel::new(ModelProfile::by_name("gpt-4").unwrap(), Arc::clone(&dataset));
//! // Evaluate a 1-in-25 subsample of the original questions.
//! let records = evaluate(&model, &dataset, &EvalOptions { stride: 25, ..Default::default() });
//! assert_eq!(records.len(), 14);
//! assert!(pass_count(&records) > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod harness;
pub mod passk;
pub mod predict;
pub mod related;
pub mod survey;
pub mod tables;

pub use harness::{
    default_workers, evaluate, evaluate_barriered, evaluate_repair, evaluate_repair_barriered,
    mean_scores, pass_count, score_submission, score_submissions_stream, EvalOptions, EvalRecord,
    RepairAttempt, RepairReport, RepairTrace, StageGauges, Submission, SubmissionVerdict,
};
