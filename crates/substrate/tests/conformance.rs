//! The shell substrate's contract: unparseable candidates are typed
//! candidate faults, a passing script passes, a failing script is an
//! outcome rather than an error, an empty script never passes, judgments
//! share no state, and every curated broken candidate classifies to its
//! pinned taxonomy bucket, identically through `execute` and
//! `execute_prepared`.

use substrate::taxonomy::{classify_result, Bucket};
use substrate::{ExecError, ShellSubstrate};
use yamlkit::PreparedDoc;

const POD: &str = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n  labels:\n    app: conf\nspec:\n  containers:\n  - name: c\n    image: nginx\n";
const PASSING_CHECK: &str = "kubectl apply -f labeled_code.yaml\nkubectl wait --for=condition=Ready pod -l app=conf --timeout=60s && echo unit_test_passed";
const FAILING_CHECK: &str = "kubectl apply -f labeled_code.yaml\nphase=$(kubectl get pod web -o jsonpath={.status.phase})\nif [ \"$phase\" == \"Succeeded\" ]; then echo unit_test_passed; fi";
const APPLY_CHECK: &str = "kubectl apply -f labeled_code.yaml && echo unit_test_passed";
const VALIDATE_CHECK: &str = "envoy --mode validate -c labeled_code.yaml && echo unit_test_passed";

#[test]
fn shell_substrate_conforms() {
    let shell = ShellSubstrate::new();
    let prepared = PreparedDoc::new(POD);
    for (check, passes) in [(PASSING_CHECK, true), (FAILING_CHECK, false)] {
        let from_text = shell
            .execute(POD, check)
            .unwrap_or_else(|e| panic!("{check:?} errored: {e}"));
        assert_eq!(from_text.passed, passes, "{}", from_text.transcript);
        assert_eq!(
            shell.execute_prepared(&prepared, check),
            Ok(from_text),
            "execute_prepared diverged from execute on {check:?}"
        );
    }
}

#[test]
fn garbage_is_always_candidate_fault() {
    let garbage = "::: not yaml {{{\n  - [";
    let shell = ShellSubstrate::new();
    for result in [
        shell.execute(garbage, PASSING_CHECK),
        shell.execute_prepared(&PreparedDoc::new(garbage), PASSING_CHECK),
    ] {
        match result {
            Err(e @ ExecError::InvalidInput(_)) => assert!(e.is_candidate_fault(), "{e}"),
            other => panic!("expected a candidate-fault error, got {other:?}"),
        }
    }
}

#[test]
fn empty_check_never_passes() {
    for check in ["", "   \n\n", "# just a comment\n"] {
        match ShellSubstrate::new().execute(POD, check) {
            Ok(outcome) => assert!(!outcome.passed, "{check:?} passed"),
            Err(ExecError::Probe(_)) => {}
            Err(e) => panic!("unexpected error on {check:?}: {e}"),
        }
    }
}

#[test]
fn judgments_share_no_state() {
    let shell = ShellSubstrate::new();
    assert!(shell.execute(POD, PASSING_CHECK).unwrap().passed);
    // The pod the first judgment applied is gone in the next one.
    let outcome = shell
        .execute(POD, "kubectl get pod web && echo unit_test_passed")
        .unwrap();
    assert!(!outcome.passed, "{}", outcome.transcript);
}

#[test]
fn curated_broken_candidates_classify_to_their_buckets() {
    let unknown_field =
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containerz: []\n";
    let dangling_selector = "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: 1\n  selector:\n    matchLabels:\n      app: web\n  template:\n    metadata:\n      labels:\n        app: other\n    spec:\n      containers:\n      - name: c\n        image: nginx\n";
    let missing_image = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n  - name: c\n    image: no-such-image:v1\n";
    let dangling_mount = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n  - name: c\n    image: nginx\n    volumeMounts:\n    - name: cfg\n      mountPath: /etc/cfg\n";
    let quota = format!(
        "apiVersion: v1\nkind: ResourceQuota\nmetadata:\n  name: team-quota\nspec:\n  hard:\n    pods: \"0\"\n---\n{POD}"
    );
    let dangling_cluster =
        envoysim::SAMPLE_CONFIG.replace("cluster: service_backend", "cluster: missing_cluster");
    let cases: [(&str, &str, &str, Bucket); 10] = [
        (
            "bad yaml",
            "kind: [unclosed\n  flow: {\n",
            APPLY_CHECK,
            Bucket::YamlSyntax,
        ),
        (
            "unknown field",
            unknown_field,
            APPLY_CHECK,
            Bucket::SchemaViolation,
        ),
        (
            "dangling selector",
            dangling_selector,
            APPLY_CHECK,
            Bucket::SelectorMismatch,
        ),
        (
            // The wait times out (symptom); the final `get` surfaces the
            // ImagePullBackOff cause, which must win classification.
            "missing image",
            missing_image,
            "kubectl apply -f labeled_code.yaml\nkubectl wait --for=condition=Ready pod web --timeout=30s && echo unit_test_passed\nkubectl get pod web",
            Bucket::MissingResource,
        ),
        ("failing probe", POD, FAILING_CHECK, Bucket::ProbeFailed),
        (
            "wait deadline",
            POD,
            "kubectl apply -f labeled_code.yaml\nkubectl wait --for=condition=Ready pod -l app=ghost --timeout=30s && echo unit_test_passed",
            Bucket::ProbeTimeout,
        ),
        (
            "dangling volume mount",
            dangling_mount,
            APPLY_CHECK,
            Bucket::BadReference,
        ),
        ("quota exhausted", &quota, APPLY_CHECK, Bucket::QuotaExceeded),
        (
            "missing static_resources",
            "admin:\n  access_log_path: /dev/null\n",
            VALIDATE_CHECK,
            Bucket::SchemaViolation,
        ),
        (
            "dangling cluster reference",
            &dangling_cluster,
            VALIDATE_CHECK,
            Bucket::BadReference,
        ),
    ];
    let shell = ShellSubstrate::new();
    for (label, manifest, check, expected) in cases {
        let from_text = classify_result(&shell.execute(manifest, check))
            .unwrap_or_else(|| panic!("{label}: unexpectedly passed"));
        assert_eq!(
            from_text.bucket, expected,
            "{label}: classified as {} (raw: {})",
            from_text.bucket, from_text.raw
        );
        let from_doc = classify_result(&shell.execute_prepared(&PreparedDoc::new(manifest), check))
            .unwrap_or_else(|| panic!("{label}: passed via execute_prepared"));
        assert_eq!(
            (from_doc.bucket, &from_doc.subject),
            (from_text.bucket, &from_text.subject),
            "{label}: execute_prepared classified differently"
        );
    }
}
