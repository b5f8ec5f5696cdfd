//! # cloudeval
//!
//! Facade crate for the CloudEval-YAML reproduction workspace (MLSYS 2024,
//! arXiv:2401.06786): one `use cloudeval::...` away from the dataset, the
//! scoring metrics, the Kubernetes/Envoy simulators, the shell-based unit
//! test runner, the simulated models, the evaluation platform and the
//! benchmark orchestration.
//!
//! # Examples
//!
//! ```
//! use cloudeval::dataset::Dataset;
//!
//! let ds = Dataset::generate();
//! let problem = &ds.problems()[0];
//! let outcome =
//!     cloudeval::shell::run_unit_test(&problem.unit_test, problem.clean_reference()).unwrap();
//! assert!(outcome.combined.contains("unit_test_passed"));
//! ```

#![forbid(unsafe_code)]

pub use cedataset as dataset;
pub use cescore as score;
pub use ceserve as serve;
pub use cloudeval_core as core;
pub use envoysim as envoy;
pub use evalcluster as cluster;
pub use gboost as boost;
pub use kubesim as kube;
pub use llmsim as llm;
pub use minishell as shell;
pub use substrate as exec;
pub use yamlkit as yaml;
