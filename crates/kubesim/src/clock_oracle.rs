//! The fast paths against the old behaviour: two clusters, one with the
//! event-driven clock, the kind and owner indexes and change-only pod
//! status, the other with the stepwise clock, full store scans and a
//! status rebuild on every reconcile, run the same random sequence of
//! kubectl commands and clock advances. They must agree on every
//! command's result and on the whole cluster state after every step, and
//! every index must equal its recomputation from a full scan.

use proptest::prelude::*;

use crate::{kubectl, Cluster, KubectlResult};

/// Images by behaviour: HTTP servers, a TCP server, a batch image, an
/// unpullable reference.
const IMAGES: [&str; 8] = [
    "nginx",
    "httpd",
    "nginx",
    "mysql",
    "nginx",
    "busybox",
    "nginx",
    "no-such-image:v1",
];

/// The namespace of a manifest or command: `default` seven times in
/// eight, else `team`, which exists only while a `Namespace` object for it
/// does.
fn namespace(n: u64) -> &'static str {
    if n % 8 == 7 {
        "team"
    } else {
        "default"
    }
}

/// Container commands: long-running, sleeps, success, failure.
fn command(variant: u64) -> &'static str {
    match variant % 6 {
        0 => "",
        1 => "\n        command: [\"sleep\", \"7\"]",
        2 => "\n        command: [\"sleep\", \"65\"]",
        3 => "\n        command: [\"echo\", \"hi\"]",
        4 => "\n        command: [\"sleep\", \"1.3\"]",
        _ => "\n        command: [\"sh\", \"-c\", \"exit 1\"]",
    }
}

/// The pod template shared by the workload kinds, indented for
/// `spec.template`: `variant` picks the extra label, the readiness delay
/// and the command.
fn template(app: &str, image: &str, variant: u64) -> String {
    let (extra_label, ready_delay_s) = (variant % 2, (variant / 2) % 3);
    let command = if variant.is_multiple_of(3) {
        command(variant / 3)
    } else {
        ""
    };
    let probe = if ready_delay_s > 0 {
        format!(
            "\n        readinessProbe:\n          initialDelaySeconds: {ready_delay_s}\n          httpGet:\n            path: /\n            port: 80"
        )
    } else {
        String::new()
    };
    format!(
        "  template:\n    metadata:\n      labels:\n        app: {app}\n        rev: r{extra_label}\n    spec:\n      containers:\n      - name: c\n        image: {image}{probe}{command}\n"
    )
}

/// Replica counts, up to 64.
const REPLICAS: [u64; 8] = [0, 1, 2, 3, 4, 8, 16, 64];

/// One manifest from a kind selector and four free parameters.
fn manifest(kind: u64, a: u64, b: u64, c: u64, ns: u64) -> String {
    let ns = namespace(ns);
    let image = IMAGES[(a % 8) as usize];
    let head = |api: &str, kind: &str, name: &str| {
        format!("apiVersion: {api}\nkind: {kind}\nmetadata:\n  name: {name}\n  namespace: {ns}\n")
    };
    match kind % 11 {
        0 => format!(
            "{}  labels:\n    app: web\nspec:\n  containers:\n  - name: c\n    image: {image}\n",
            head("v1", "Pod", &format!("solo-{}", b % 2))
        ),
        1 | 2 => format!(
            "{}spec:\n  replicas: {}\n  selector:\n    matchLabels:\n      app: web\n{}",
            head("apps/v1", "Deployment", "web"),
            REPLICAS[(b % 8) as usize],
            template("web", image, c),
        ),
        3 => format!(
            "{}spec:\n  serviceName: db\n  replicas: {}\n  selector:\n    matchLabels:\n      app: db\n{}",
            head("apps/v1", "StatefulSet", "db"),
            REPLICAS[(b % 8) as usize],
            template("db", image, c),
        ),
        4 => format!(
            "{}spec:\n  selector:\n    matchLabels:\n      app: agent\n{}",
            head("apps/v1", "DaemonSet", "agent"),
            template("agent", image, c),
        ),
        5 => format!(
            "{}spec:\n  template:\n    spec:\n      restartPolicy: Never\n      containers:\n      - name: c\n        image: {}{}\n",
            head("batch/v1", "Job", "batch"),
            ["busybox", "nginx"][(a % 2) as usize],
            command(c),
        ),
        6 => format!(
            "{}spec:\n  schedule: \"* * * * *\"\n  jobTemplate:\n    spec:\n      template:\n        spec:\n          restartPolicy: OnFailure\n          containers:\n          - name: c\n            image: busybox\n            command: [\"echo\", \"tick\"]\n",
            head("batch/v1", "CronJob", "tick"),
        ),
        7 => format!(
            "{}spec:\n  type: {}\n  selector:\n    app: web\n  ports:\n  - port: 80\n    targetPort: 80\n",
            head("v1", "Service", &format!("svc-{}", b % 2)),
            ["LoadBalancer", "NodePort", "ClusterIP"][(c % 3) as usize],
        ),
        8 => format!(
            "{}spec:\n  rules:\n  - http:\n      paths:\n      - path: /\n        pathType: Prefix\n        backend:\n          service:\n            name: svc-0\n            port:\n              number: 80\n",
            head("networking.k8s.io/v1", "Ingress", "ing"),
        ),
        9 => format!(
            "{}spec:\n  scaleTargetRef:\n    apiVersion: apps/v1\n    kind: Deployment\n    name: web\n  minReplicas: {}\n  maxReplicas: 5\n  targetCPUUtilizationPercentage: 50\n",
            head("autoscaling/v1", "HorizontalPodAutoscaler", "web"),
            1 + b % 3,
        ),
        _ => "apiVersion: v1\nkind: Namespace\nmetadata:\n  name: team\n".to_owned(),
    }
}

/// A `wait` or `rollout status` command line on what a manifest of `kind`
/// creates, with its timeout.
fn wait_command(kind: u64, variant: u64, ns: u64, timeout_ms: u64) -> String {
    let target = match (kind % 11, variant % 3) {
        (0, 0) => "wait --for=delete pod/solo-0",
        (0, _) => "wait --for=condition=Ready pod/solo-1",
        (1 | 2, 0) => "wait --for=condition=Ready pods -l app=web",
        (1 | 2, 1) => "wait --for=condition=Available deployment/web",
        (1 | 2, _) => "rollout status deployment/web",
        (3, _) => "wait --for=condition=Ready pod/db-1",
        (4, _) => "wait --for=condition=Ready pods -l app=agent",
        (5, _) => "wait --for=condition=Complete job/batch",
        (6, _) => "wait --for=condition=Complete jobs",
        (8, _) => "wait --for=condition=SYNCED ingress/ing",
        _ => "wait --for=condition=Ready pods",
    };
    format!("{target} -n {} --timeout={timeout_ms}ms", namespace(ns))
}

#[derive(Debug, Clone)]
enum Op {
    /// `kubectl apply -f -` of this manifest, then maybe a wait on it.
    Apply(String, Option<String>),
    /// `kubectl delete` of the n-th ReplicaSet-owned pod (modulo their
    /// count) in `default`.
    DeleteReplicaSetPod(usize),
    /// `kubectl delete namespace team`.
    DeleteNamespace,
    /// Apply of this Deployment manifest, an advance of this many ms
    /// (short of every pod's readiness), then `kubectl delete` of the
    /// Deployment or, when the flag is set, of its ReplicaSet: a cascade
    /// in mid-rollout.
    DeleteMidRollout(String, u64, bool),
    /// `Cluster::advance(ms)`.
    Advance(u64),
    /// A `wait` or `rollout status` command line.
    Kubectl(String),
}

/// An apply, followed half the time by a wait on what it created.
fn apply() -> impl Strategy<Value = Op> {
    (
        (0u64..11, 0u64..8),
        (0u64..8, 0u64..8),
        0u64..36,
        0u64..260_000,
    )
        .prop_map(|((kind, ns), (a, b), c, wait)| {
            let then = wait
                .is_multiple_of(2)
                .then(|| wait_command(kind, a + c, ns, wait / 2));
            Op::Apply(manifest(kind, a, b, c, ns), then)
        })
}

fn delete_mid_rollout() -> impl Strategy<Value = Op> {
    ((0u64..8, 0u64..8), 0u64..36, 0u64..1_500, any::<bool>()).prop_map(
        |((a, b), c, after, replica_set)| {
            Op::DeleteMidRollout(manifest(1, a, b, c, 0), after, replica_set)
        },
    )
}

fn wait() -> impl Strategy<Value = Op> {
    ((0u64..11, 0u64..3), 0u64..8, 0u64..130_000)
        .prop_map(|((kind, v), ns, t)| Op::Kubectl(wait_command(kind, v, ns, t)))
}

/// Three steps in eight apply, one deletes a Deployment or its
/// ReplicaSet in mid-rollout. A namespace delete is one step in 48, so
/// `team` usually lives long enough to fill; the rest of that arm are
/// short advances off the 250 ms grid.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        apply(),
        apply(),
        apply(),
        wait(),
        (0usize..8).prop_map(Op::DeleteReplicaSetPod),
        delete_mid_rollout(),
        (0u64..6).prop_map(|n| if n == 0 {
            Op::DeleteNamespace
        } else {
            Op::Advance(n * 37)
        }),
        (0u64..90_000).prop_map(Op::Advance),
    ]
}

fn kubectl_line(cluster: &mut Cluster, line: &str, stdin: &str) -> KubectlResult {
    let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
    kubectl::run(cluster, &args, stdin, &|_| None)
}

/// Runs one step on one cluster; the result is what the step printed.
fn step(cluster: &mut Cluster, op: &Op) -> KubectlResult {
    match op {
        Op::Apply(manifest, then) => {
            let applied = kubectl_line(cluster, "apply -f -", manifest);
            match then {
                Some(line) => {
                    let waited = kubectl_line(cluster, line, "");
                    KubectlResult {
                        stdout: applied.stdout + &waited.stdout,
                        stderr: applied.stderr + &waited.stderr,
                        code: applied.code.max(waited.code),
                    }
                }
                None => applied,
            }
        }
        Op::DeleteReplicaSetPod(n) => {
            let owned: Vec<String> = cluster
                .get("Pod", Some("default"), None)
                .into_iter()
                .filter(|p| {
                    p.body
                        .get_path(&["metadata", "ownerReferences"])
                        .and_then(|refs| refs.idx(0))
                        .and_then(|r| r.get("kind"))
                        .and_then(yamlkit::Yaml::as_str)
                        == Some("ReplicaSet")
                })
                .map(|p| p.name)
                .collect();
            if owned.is_empty() {
                return KubectlResult::default();
            }
            let name = &owned[n % owned.len()];
            kubectl_line(cluster, &format!("delete pod {name}"), "")
        }
        Op::DeleteNamespace => kubectl_line(cluster, "delete namespace team", ""),
        Op::DeleteMidRollout(manifest, after, replica_set) => {
            let applied = kubectl_line(cluster, "apply -f -", manifest);
            cluster.advance(*after);
            let target = if *replica_set {
                match cluster.get("ReplicaSet", Some("default"), None).first() {
                    Some(rs) => format!("delete replicaset {}", rs.name),
                    None => return applied,
                }
            } else {
                "delete deployment web".to_owned()
            };
            let deleted = kubectl_line(cluster, &target, "");
            KubectlResult {
                stdout: applied.stdout + &deleted.stdout,
                stderr: applied.stderr + &deleted.stderr,
                code: applied.code.max(deleted.code),
            }
        }
        Op::Advance(ms) => {
            cluster.advance(*ms);
            KubectlResult::default()
        }
        Op::Kubectl(line) => kubectl_line(cluster, line, ""),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every kubectl result and the full cluster state after every step
    /// are identical with the fast paths and with the old behaviour.
    #[test]
    fn event_clock_matches_stepwise_oracle(ops in prop::collection::vec(op(), 1..24)) {
        let mut event = Cluster::new();
        let mut oracle = Cluster::new_oracle();
        for (i, op) in ops.iter().enumerate() {
            let got = step(&mut event, op);
            let want = step(&mut oracle, op);
            prop_assert_eq!(&got, &want, "step {}: {:?}", i, op);
            prop_assert_eq!(event.now_ms(), oracle.now_ms(), "step {}", i);
            prop_assert!(
                event.state_debug() == oracle.state_debug(),
                "step {}: cluster state diverged after {:?}",
                i,
                op
            );
            event.check_indexes();
            oracle.check_indexes();
        }
        prop_assert!(event.reconciles() <= oracle.reconciles());
    }
}

/// 1,004 pods that never pull: `rollout status --timeout=120s` spans 240
/// polls and 480 ticks, but the clock reconciles once per event. No
/// reconcile builds a pod's status: a status is built when it is read, so
/// `get pods` builds each pod's once.
#[test]
fn rollout_on_unpullable_pods_costs_events_not_ticks() {
    let deployment = format!(
        "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web\nspec:\n  replicas: 1004\n  selector:\n    matchLabels:\n      app: web\n{}",
        template("web", "no-such-image:v1", 1)
    );
    let mut cluster = Cluster::new();
    kubectl_line(&mut cluster, "apply -f -", &deployment);
    let (reconciles, now) = (cluster.reconciles(), cluster.now_ms());
    let result = kubectl_line(
        &mut cluster,
        "rollout status deployment/web --timeout=120s",
        "",
    );
    assert_eq!(
        result.stderr,
        "error: deployment exceeded its progress deadline"
    );
    assert_eq!(cluster.now_ms() - now, 120_000);
    // The first tick after the apply, whose reconcile inserted the pods;
    // the end of the first poll interval; the poll at the timeout.
    assert_eq!(cluster.reconciles() - reconciles, 3);
    assert_eq!(cluster.status_builds(), 0);
    let listed = kubectl_line(&mut cluster, "get pods -o name", "");
    assert_eq!(listed.stdout.lines().count(), 1004);
    assert_eq!(cluster.status_builds(), 1004);
}
