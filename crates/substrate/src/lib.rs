//! # substrate
//!
//! The execution substrate for CloudEval-YAML's function-level evaluation
//! (§3.2–§3.3 of the paper): a candidate configuration is judged by
//! *running* its problem's hand-written unit-test script, not by diffing
//! it against the reference.
//!
//! [`ShellSubstrate`] is that judge. Each judgment mounts the candidate at
//! [`CANDIDATE_FILE`] in a fresh simulated sandbox (a `kubesim` cluster
//! plus the `kubectl`, `curl`, `minikube`, `envoy` and `istioctl` commands
//! `minishell` wires to it) and interprets the script there. The script
//! passes when its transcript contains `unit_test_passed`. A new sandbox
//! per judgment is the clean-environment guarantee the paper gets from
//! tearing minikube clusters down between problems.
//!
//! Results come in two shapes: [`ExecOutcome`] for "the script ran, here
//! is the verdict" and [`ExecError`] for "the candidate never got that
//! far". [`taxonomy`] folds both into the closed deployment-error buckets
//! the repair loop learns from.
//!
//! # Examples
//!
//! An Envoy problem's script validates the candidate, starts the proxy and
//! probes its routing:
//!
//! ```
//! use substrate::ShellSubstrate;
//!
//! let script = "\
//! envoy --mode validate -c labeled_code.yaml || exit 1
//! envoy-start -c labeled_code.yaml
//! body=$(curl -s localhost:10000/)
//! [[ $body == *service_backend* ]] && echo unit_test_passed";
//! let outcome = ShellSubstrate::new()
//!     .execute(envoysim::SAMPLE_CONFIG, script)
//!     .unwrap();
//! assert!(outcome.passed);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod shell;
pub mod taxonomy;

pub use shell::{ShellSubstrate, CANDIDATE_FILE};

use std::fmt;

/// The verdict after a candidate's unit-test script ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Did the assertion program pass?
    pub passed: bool,
    /// Human-readable transcript of the assertion run (what the CloudEval
    /// scripts grep for `unit_test_passed`).
    pub transcript: String,
    /// Simulated in-substrate milliseconds the run consumed (sleeps,
    /// waits, reconcile time). Wall-clock time is orders of magnitude
    /// smaller.
    pub simulated_ms: u64,
}

/// Why a candidate never produced an [`ExecOutcome`].
///
/// Either the candidate is broken *as text* (not parseable), or the
/// script itself could not run (a harness bug or a malformed check, never
/// the candidate's fault). A candidate the cluster refuses is neither: the
/// script runs, its `kubectl apply` fails, and the failing transcript
/// says why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The candidate is not parseable YAML.
    InvalidInput(String),
    /// The unit-test script itself could not run (interpreter parse
    /// error, step budget exhausted). Distinct from a failing assertion,
    /// which is a successful [`ExecOutcome`] with `passed == false`.
    Probe(String),
}

impl ExecError {
    /// The error message without the variant prefix.
    pub fn message(&self) -> &str {
        match self {
            ExecError::InvalidInput(m) | ExecError::Probe(m) => m,
        }
    }

    /// Whether the error is attributable to the candidate rather than to
    /// the harness (probe).
    pub fn is_candidate_fault(&self) -> bool {
        matches!(self, ExecError::InvalidInput(_))
    }

    /// Whether resubmitting the same candidate could plausibly change the
    /// result. Delegates to the taxonomy so the two layers can never
    /// disagree: a [`taxonomy::Bucket::QuotaExceeded`] rejection is
    /// retryable, a [`taxonomy::Bucket::SchemaViolation`] never is.
    pub fn retryable(&self) -> bool {
        taxonomy::classify_error(self).bucket.retryable()
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::InvalidInput(m) => write!(f, "invalid input: {m}"),
            ExecError::Probe(m) => write!(f, "probe error: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// 64-bit FNV-1a hash of a byte string.
///
/// The evaluation engine's score memo cache addresses results by content:
/// `(content_hash(candidate), content_hash(check))`. The implementation
/// lives in [`yamlkit::doc::content_hash`] (so `PreparedDoc` can cache
/// the candidate's hash at parse time); this re-export keeps the
/// substrate-level vocabulary. The two are bit-identical — persisted
/// memo stores written before the parse-once refactor still load.
///
/// # Examples
///
/// ```
/// assert_eq!(substrate::content_hash(""), 0xcbf29ce484222325);
/// assert_ne!(substrate::content_hash("a"), substrate::content_hash("b"));
/// assert_eq!(substrate::content_hash("x"), yamlkit::doc::content_hash("x"));
/// ```
pub fn content_hash(text: &str) -> u64 {
    yamlkit::doc::content_hash(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        assert_eq!(content_hash("kind: Pod"), content_hash("kind: Pod"));
        assert_ne!(content_hash("kind: Pod"), content_hash("kind: Pod\n"));
        assert_eq!(content_hash(""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn exec_error_accessors() {
        let e = ExecError::InvalidInput("unclosed flow".into());
        assert_eq!(e.message(), "unclosed flow");
        assert!(e.is_candidate_fault());
        assert!(!ExecError::Probe("bad verb".into()).is_candidate_fault());
        assert_eq!(
            ExecError::InvalidInput("x".into()).to_string(),
            "invalid input: x"
        );
    }
}
