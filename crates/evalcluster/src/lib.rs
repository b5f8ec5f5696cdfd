//! # evalcluster
//!
//! The CloudEval-YAML scalable evaluation platform (§3.3–§3.4):
//!
//! * [`executor`] — the parallel unit-test engine:
//!   [`executor::run_jobs_stream`] consumes jobs as they arrive and runs
//!   them hermetically on [`substrate::ShellSubstrate`] with
//!   content-addressed score memoization; [`executor::run_jobs_cached`]
//!   is its batch form over a slice of jobs;
//! * [`memo`] — the `(candidate, script)` content-addressed verdict cache
//!   and its single flight ([`memo::ScoreMemo::single_flight`]), the one
//!   in-flight dedup rule every scheduler and driver uses;
//! * [`des`] — a discrete-event simulation of the §3.3 Redis
//!   master/worker cloud deployment (N× 4-core VMs, a shared 100 Mbps
//!   uplink, the Figure 4 pull-through Docker registry cache) that
//!   regenerates Figure 5;
//! * [`cost`] — the Table 3 running-cost model.
//!
//! # Examples
//!
//! ```
//! use evalcluster::executor::{run_jobs, UnitTestJob};
//!
//! let job = UnitTestJob::prepared(
//!     "demo",
//!     "kubectl apply -f labeled_code.yaml && echo unit_test_passed",
//!     yamlkit::PreparedDoc::shared(
//!         "apiVersion: v1\nkind: Pod\nmetadata:\n  name: x\nspec:\n  containers:\n  - name: c\n    image: nginx\n",
//!     ),
//! );
//! let report = run_jobs(&[job], 2);
//! assert_eq!(report.passed(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod des;
pub mod executor;
pub mod memo;

pub use cost::{evaluation_cost, inference_cost, table3, CloudOption, InferenceOption};
pub use des::{dataset_workload, figure5, simulate, SimConfig, SimJob, SimResult};
pub use executor::{
    execute_uncached, execute_uncached_text, run_jobs, run_jobs_cached, run_jobs_stream, JobResult,
    RunReport, StreamStats, UnitTestJob,
};
pub use memo::{Answered, CachedVerdict, ScoreMemo};
