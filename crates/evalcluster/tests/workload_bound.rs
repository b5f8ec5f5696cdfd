//! A manifest that asks for more pods than kubesim admits for one
//! workload (`kubesim::cluster::MAX_PODS_PER_WORKLOAD`) is refused at
//! `kubectl apply` with the typed `quota-exceeded` verdict, before any pod
//! exists, instead of building a million pods on the judging worker.

use substrate::taxonomy::{classify_result, Bucket};
use substrate::ShellSubstrate;

/// Applies `manifest`, waits, then prints how many pods exist.
const SCRIPT: &str =
    "kubectl apply -f labeled_code.yaml\nsleep 30\necho pods=$(kubectl get pods -o name | wc -l)\n";

fn assert_refused(manifest: &str) {
    let result = ShellSubstrate::new().execute(manifest, SCRIPT);
    let outcome = result.as_ref().expect("the unit test runs");
    assert!(!outcome.passed);
    assert!(
        outcome.transcript.contains("pods=0"),
        "a pod was created:\n{}",
        outcome.transcript
    );
    let diagnosis = classify_result(&result).expect("a failing verdict is diagnosed");
    assert_eq!(diagnosis.bucket, Bucket::QuotaExceeded, "{diagnosis:?}");
    assert_eq!(diagnosis.subject.as_deref(), Some("pods-per-workload"));
}

#[test]
fn deployment_with_a_million_replicas_is_quota_exceeded() {
    assert_refused(
        "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: 1000000\n  selector:\n    matchLabels:\n      app: web\n  template:\n    metadata:\n      labels:\n        app: web\n    spec:\n      containers:\n      - name: web\n        image: nginx\n",
    );
}

#[test]
fn job_with_a_million_completions_is_quota_exceeded() {
    assert_refused(
        "apiVersion: batch/v1\nkind: Job\nmetadata:\n  name: batch\nspec:\n  completions: 1000000\n  template:\n    spec:\n      containers:\n      - name: c\n        image: busybox\n        command: [\"echo\", \"hi\"]\n      restartPolicy: Never\n",
    );
}
