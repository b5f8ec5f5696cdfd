//! The judge: CloudEval bash unit-test scripts interpreted by `minishell`
//! against a fresh simulated cluster sandbox.

use std::sync::OnceLock;
use std::time::Instant;

use minishell::{ClusterSandbox, Interp};
use yamlkit::PreparedDoc;

use crate::{ExecError, ExecOutcome};

/// The candidate file name every CloudEval unit-test script references.
pub const CANDIDATE_FILE: &str = "labeled_code.yaml";

/// Bash-script substrate over a simulated cluster sandbox.
///
/// This is the paper's evaluation path: the hand-written unit-test
/// scripts (Appendix C) `kubectl apply` the candidate mounted at
/// [`CANDIDATE_FILE`], poll cluster state, curl endpoints and finally
/// `echo unit_test_passed`. Every judgment runs in a brand-new
/// [`ClusterSandbox`], so no state leaks from one candidate to the next.
///
/// Candidate text that does not parse as YAML is refused with
/// [`ExecError::InvalidInput`] before any script runs; a script the
/// interpreter cannot finish (parse error, step budget) is an
/// [`ExecError::Probe`]. A script that runs but never prints the marker is
/// a failing [`ExecOutcome`], not an error.
///
/// Every judgment's wall-clock time is recorded to the
/// `substrate_exec_us{backend="minishell"}` histogram in [`obs::global`].
///
/// # Examples
///
/// ```
/// use substrate::ShellSubstrate;
///
/// let manifest = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n  labels:\n    app: t\nspec:\n  containers:\n  - name: c\n    image: nginx\n";
/// let check = "kubectl apply -f labeled_code.yaml\nkubectl wait --for=condition=Ready pod -l app=t --timeout=60s && echo unit_test_passed";
/// let outcome = ShellSubstrate::new().execute(manifest, check).unwrap();
/// assert!(outcome.passed);
/// ```
#[derive(Debug, Default)]
pub struct ShellSubstrate;

impl ShellSubstrate {
    /// The shell substrate.
    pub fn new() -> ShellSubstrate {
        ShellSubstrate
    }

    /// Judges candidate text by running `check` against it in a fresh
    /// sandbox.
    ///
    /// # Errors
    ///
    /// [`ExecError::InvalidInput`] when the candidate is not parseable
    /// YAML, [`ExecError::Probe`] when the script itself cannot run.
    pub fn execute(&self, manifest: &str, check: &str) -> Result<ExecOutcome, ExecError> {
        let started = Instant::now();
        let result = if yamlkit::parse(manifest).is_err() {
            Err(invalid_input(manifest))
        } else {
            run_check(ClusterSandbox::new(), manifest, check)
        };
        record_exec(started);
        result
    }

    /// [`ShellSubstrate::execute`] from a prepared document: the validity
    /// check reads the cached parse, and the sandbox cluster is primed
    /// with the shared parsed documents, so the script's `kubectl apply -f
    /// labeled_code.yaml` skips its parse too. The candidate is parsed
    /// exactly once, when the [`PreparedDoc`] was built.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShellSubstrate::execute`].
    pub fn execute_prepared(
        &self,
        doc: &PreparedDoc,
        check: &str,
    ) -> Result<ExecOutcome, ExecError> {
        let started = Instant::now();
        let result = if doc.parses() {
            let mut sandbox = ClusterSandbox::new();
            sandbox
                .cluster
                .prime_parsed(doc.content_hash(), doc.values_shared());
            run_check(sandbox, doc.text(), check)
        } else {
            Err(invalid_input(doc.text()))
        };
        record_exec(started);
        result
    }
}

fn invalid_input(manifest: &str) -> ExecError {
    ExecError::InvalidInput(format!(
        "candidate is not parseable YAML ({} bytes)",
        manifest.len()
    ))
}

/// Mounts the candidate in `sandbox` and runs the script there.
fn run_check(
    mut sandbox: ClusterSandbox,
    manifest: &str,
    check: &str,
) -> Result<ExecOutcome, ExecError> {
    let mut shell = Interp::new(&mut sandbox);
    shell
        .files
        .insert(CANDIDATE_FILE.to_owned(), manifest.to_owned());
    match shell.run_script(check) {
        Ok(outcome) => Ok(ExecOutcome {
            passed: outcome.combined.contains("unit_test_passed"),
            transcript: outcome.combined,
            simulated_ms: sandbox.cluster.now_ms(),
        }),
        Err(e) => Err(ExecError::Probe(e.to_string())),
    }
}

/// Records one judgment to `substrate_exec_us`, through a handle resolved
/// on the first judgment.
fn record_exec(started: Instant) {
    static EXEC_US: OnceLock<obs::Histogram> = OnceLock::new();
    EXEC_US
        .get_or_init(|| {
            obs::global().histogram(
                "substrate_exec_us",
                &[("backend", "minishell")],
                "wall-clock latency of one unit-test judgment",
            )
        })
        .record(started.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    const POD: &str = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n  labels:\n    app: t\nspec:\n  containers:\n  - name: c\n    image: nginx\n";

    #[test]
    fn passing_and_failing_checks() {
        let s = ShellSubstrate::new();
        let pass = s
            .execute(POD, "kubectl apply -f labeled_code.yaml\nkubectl wait --for=condition=Ready pod -l app=t --timeout=60s && echo unit_test_passed")
            .unwrap();
        assert!(pass.passed);
        assert!(pass.simulated_ms > 0);
        let fail = s
            .execute(POD, "kubectl apply -f labeled_code.yaml\nkubectl get pod missing || exit 1\necho unit_test_passed")
            .unwrap();
        assert!(!fail.passed);
    }

    #[test]
    fn unparseable_candidate_is_invalid_input() {
        let err = ShellSubstrate::new()
            .execute("kind: [unclosed", "echo unit_test_passed")
            .unwrap_err();
        assert!(matches!(err, ExecError::InvalidInput(_)));
    }

    #[test]
    fn probe_error_on_unparseable_script() {
        // An unbounded loop exhausts the interpreter's fuel budget.
        let err = ShellSubstrate::new()
            .execute(POD, "while true; do x=1; done")
            .unwrap_err();
        assert!(matches!(err, ExecError::Probe(_)));
    }
}
