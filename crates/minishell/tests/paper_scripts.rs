//! End-to-end tests: the three sample unit tests from the paper's
//! Appendix C, run verbatim (modulo environment-specific sleeps) against
//! the simulated cluster.

use minishell::{ClusterSandbox, Interp};

fn run_with_files(script: &str, files: &[(&str, &str)]) -> minishell::ScriptOutcome {
    let mut sandbox = ClusterSandbox::new();
    let mut shell = Interp::new(&mut sandbox);
    for (name, content) in files {
        shell
            .files
            .insert((*name).to_owned(), (*content).to_owned());
    }
    shell.run_script(script).expect("script runs")
}

/// Appendix C.1: DaemonSet with hostPort probe, env vars, resource limits.
#[test]
fn sample_1_daemonset() {
    let labeled = "\
apiVersion: apps/v1
kind: DaemonSet
metadata:
  name: kube-registry-proxy-modified
spec:
  selector:
    matchLabels:
      app: kube-registry-modified
  template:
    metadata:
      labels:
        app: kube-registry-modified
    spec:
      containers:
      - name: kube-registry-proxy-modified
        image: nginx:latest
        resources:
          limits:
            cpu: 100m
            memory: 50Mi
        env:
        - name: REGISTRY_HOST
          value: kube-registry-modified.svc.cluster.local
        - name: REGISTRY_PORT
          value: \"5000\"
        ports:
        - name: registry
          containerPort: 80
          hostPort: 5000
";
    let script = r#"
kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Ready pod -l app=kube-registry-modified --timeout=60s
passed_tests=0
total_tests=3
pods=$(kubectl get pods -l app=kube-registry-modified --output=jsonpath={.items..metadata.name})
host_ip=$(kubectl get pod $pods -o=jsonpath='{.status.hostIP}')
curl_output=$(curl -s -o /dev/null -w "%{http_code}" $host_ip:5000)
if [ "$curl_output" == "200" ]; then
    ((passed_tests++))
else
    exit 1
fi
env_vars=$(kubectl get pods --selector=app=kube-registry-modified -o=jsonpath='{.items[0].spec.containers[0].env[*].name}')
if [[ $env_vars == *"REGISTRY_HOST"* && $env_vars == *"REGISTRY_PORT"* ]]; then
    ((passed_tests++))
fi
cpu_limit=$(kubectl get pod $pods -o=jsonpath='{.spec.containers[0].resources.limits.cpu}')
memory_limit=$(kubectl get pod $pods -o=jsonpath='{.spec.containers[0].resources.limits.memory}')
if [ "$cpu_limit" == "100m" ] && [ "$memory_limit" == "50Mi" ]; then
    ((passed_tests++))
fi
if [ $passed_tests -eq $total_tests ]; then
    echo unit_test_passed
fi
"#;
    let outcome = run_with_files(script, &[("labeled_code.yaml", labeled)]);
    assert!(
        outcome.combined.contains("unit_test_passed"),
        "transcript:\n{}",
        outcome.combined
    );
}

/// Appendix C.1 negative control: wrong resource limits fail the test.
#[test]
fn sample_1_fails_on_wrong_limits() {
    let labeled_bad = "\
apiVersion: apps/v1
kind: DaemonSet
metadata:
  name: kube-registry-proxy-modified
spec:
  selector:
    matchLabels:
      app: kube-registry-modified
  template:
    metadata:
      labels:
        app: kube-registry-modified
    spec:
      containers:
      - name: p
        image: nginx:latest
        resources:
          limits:
            cpu: 200m
            memory: 50Mi
        ports:
        - containerPort: 80
          hostPort: 5000
";
    let script = r#"
kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Ready pod -l app=kube-registry-modified --timeout=60s
pods=$(kubectl get pods -l app=kube-registry-modified --output=jsonpath={.items..metadata.name})
cpu_limit=$(kubectl get pod $pods -o=jsonpath='{.spec.containers[0].resources.limits.cpu}')
if [ "$cpu_limit" == "100m" ]; then
    echo unit_test_passed
fi
"#;
    let outcome = run_with_files(script, &[("labeled_code.yaml", labeled_bad)]);
    assert!(!outcome.combined.contains("unit_test_passed"));
}

/// Appendix C.2: deployment context piped from echo, LoadBalancer service,
/// `minikube service` under `timeout` with output grepping.
#[test]
fn sample_2_loadbalancer_service() {
    let labeled = "\
apiVersion: v1
kind: Service
metadata:
  name: nginx-service
spec:
  selector:
    app: nginx
  ports:
  - name: http
    port: 80
    targetPort: 80
  type: LoadBalancer
";
    let script = r#"
echo "apiVersion: apps/v1
kind: Deployment
metadata:
  name: nginx-deployment
spec:
  replicas: 3
  selector:
    matchLabels:
      app: nginx
  template:
    metadata:
      labels:
        app: nginx
    spec:
      containers:
      - name: nginx-container
        image: nginx:latest
        ports:
        - containerPort: 80" | kubectl apply -f -
kubectl wait --for=condition=ready deployment --all --timeout=15s
kubectl apply -f labeled_code.yaml
sleep 15
kubectl get svc
timeout -s INT 8s minikube service nginx-service > bash_output.txt 2>&1
cat bash_output.txt
grep "Opening service default/nginx-service in default browser..." bash_output.txt && echo unit_test_passed
"#;
    let outcome = run_with_files(script, &[("labeled_code.yaml", labeled)]);
    assert!(
        outcome.combined.contains("unit_test_passed"),
        "transcript:\n{}",
        outcome.combined
    );
}

/// Appendix C.3: the Ingress debugging problem. The corrected YAML must
/// apply cleanly and describe must show the backend.
#[test]
fn sample_3_ingress_debugging() {
    let fixed = "\
apiVersion: networking.k8s.io/v1
kind: Ingress
metadata:
  name: minimal-ingress
  annotations:
    nginx.ingress.kubernetes.io/rewrite-target: /
spec:
  rules:
  - http:
      paths:
      - path: /
        pathType: Prefix
        backend:
          service:
            name: test-app
            port:
              number: 5000
";
    let script = r#"
kubectl apply -f labeled_code.yaml
kubectl wait --namespace default --for=condition=SYNCED ingress --all --timeout=15s
kubectl describe ingress minimal-ingress | grep "test-app:5000" && echo unit_test_passed
"#;
    let outcome = run_with_files(script, &[("labeled_code.yaml", fixed)]);
    assert!(
        outcome.combined.contains("unit_test_passed"),
        "transcript:\n{}",
        outcome.combined
    );
}

/// Appendix C.3 negative control: the buggy original YAML is rejected with
/// the strict-decoding error and the test cannot pass.
#[test]
fn sample_3_buggy_yaml_rejected() {
    let buggy = "\
apiVersion: networking.k8s.io/v1
kind: Ingress
metadata:
  name: test-ingress
  annotations:
    nginx.ingress.kubernetes.io/rewrite-target: /
spec:
  rules:
  - http:
      paths:
      - path: /
        backend:
          serviceName: test-app
          servicePort: 5000
";
    let script = r#"
kubectl apply -f labeled_code.yaml
kubectl describe ingress test-ingress | grep "test-app:5000" && echo unit_test_passed
"#;
    let outcome = run_with_files(script, &[("labeled_code.yaml", buggy)]);
    assert!(!outcome.combined.contains("unit_test_passed"));
    assert!(
        outcome.combined.contains("strict decoding error"),
        "expected API-server-style error, got:\n{}",
        outcome.combined
    );
    assert!(outcome
        .combined
        .contains("unknown field \"spec.rules[0].http.paths[0].backend.serviceName\""));
}

/// The RoleBinding example from Figure 1.
#[test]
fn figure_1_rolebinding() {
    let labeled = "\
apiVersion: rbac.authorization.k8s.io/v1
kind: RoleBinding
metadata:
  name: read-secrets
  namespace: development
subjects:
- kind: User
  name: dave
  apiGroup: rbac.authorization.k8s.io
roleRef:
  kind: ClusterRole
  name: secret-reader
  apiGroup: rbac.authorization.k8s.io
";
    let script = r#"
kubectl create ns development
kubectl apply -f labeled_code.yaml
namespace=$(kubectl get rolebinding read-secrets -n development -o jsonpath={.metadata.namespace})
subject_name=$(kubectl get rolebinding read-secrets -n development -o jsonpath={.subjects[0].name})
role_ref_name=$(kubectl get rolebinding read-secrets -n development -o jsonpath={.roleRef.name})
if [[ $namespace == "development" && $subject_name == "dave" && $role_ref_name == "secret-reader" ]]; then
    echo cn1000_unit_test_passed
fi
"#;
    let outcome = run_with_files(script, &[("labeled_code.yaml", labeled)]);
    assert!(
        outcome.combined.contains("cn1000_unit_test_passed"),
        "transcript:\n{}",
        outcome.combined
    );
}

/// Envoy flow: validate config, start the proxy, probe routing via curl.
#[test]
fn envoy_validate_and_route() {
    let script = r#"
envoy --mode validate -c labeled_code.yaml || exit 1
envoy-start -c labeled_code.yaml
code=$(curl -s -o /dev/null -w "%{http_code}" localhost:10000/)
body=$(curl -s localhost:10000/api)
if [ "$code" == "200" ]; then
  if [[ $body == *"service_backend"* ]]; then
    echo unit_test_passed
  fi
fi
"#;
    let outcome = run_with_files(script, &[("labeled_code.yaml", envoysim::SAMPLE_CONFIG)]);
    assert!(
        outcome.combined.contains("unit_test_passed"),
        "transcript:\n{}",
        outcome.combined
    );
}

/// Shell semantics: loops, arithmetic, pipes, redirection, subshells.
#[test]
fn shell_kitchen_sink() {
    let script = r#"
total=0
for i in 1 2 3 4; do
  ((total += i))
done
echo total=$total
count=$(seq 1 5 | wc -l)
echo count=$count
echo "a,b,c" | cut -d, -f2
x=hello
while [ ${#x} -eq 0 ]; do echo never; done
if [ "$x" != "hello" ]; then echo bad; else echo good; fi
printf "%s=%d\n" answer 42
echo "one two three" | tr ' ' '\n' | sort | head -n 1
"#;
    let outcome = run_with_files(script, &[]);
    assert!(outcome.stdout.contains("total=10"), "{}", outcome.stdout);
    assert!(outcome.stdout.contains("count=5"));
    assert!(outcome.stdout.contains("b\n"));
    assert!(outcome.stdout.contains("good"));
    assert!(outcome.stdout.contains("answer=42"));
    assert!(outcome.stdout.contains("one"));
}

/// Runaway loops hit the fuel limit instead of hanging.
#[test]
fn runaway_loop_is_stopped() {
    let mut sandbox = ClusterSandbox::new();
    let mut shell = Interp::new(&mut sandbox);
    let err = shell.run_script("while true; do x=1; done").unwrap_err();
    assert!(err.to_string().contains("step budget"));
}

/// `kubectl` errors surface on stderr and fail `&&` chains.
#[test]
fn kubectl_failure_breaks_chain() {
    let script = "kubectl get pods nonexistent && echo should_not_print\necho done";
    let outcome = run_with_files(script, &[]);
    assert!(!outcome.stdout.contains("should_not_print"));
    assert!(outcome.stdout.contains("done"));
    assert!(outcome.combined.contains("NotFound"));
}

/// `curl -o FILE` stores the body in the virtual filesystem under that
/// name and prints nothing; `-o /dev/null` discards it.
#[test]
fn curl_output_file_lands_in_vfs() {
    let pod = "\
apiVersion: v1
kind: Pod
metadata:
  name: web
spec:
  containers:
  - name: web
    image: nginx:latest
    ports:
    - containerPort: 80
      hostPort: 5000
";
    let wait = "kubectl apply -f pod.yaml\n\
                kubectl wait --for=condition=Ready pod/web --timeout=60s > /dev/null\n";
    let direct = run_with_files(
        &format!("{wait}curl -s 192.168.49.2:5000"),
        &[("pod.yaml", pod)],
    );
    assert_eq!(direct.exit_code, 0, "transcript:\n{}", direct.combined);
    let body = direct.stdout.strip_prefix("pod/web created\n").unwrap();
    assert!(!body.is_empty());

    let saved = run_with_files(
        &format!("{wait}curl -s -o page.html 192.168.49.2:5000\necho ---\ncat page.html"),
        &[("pod.yaml", pod)],
    );
    assert_eq!(saved.exit_code, 0, "transcript:\n{}", saved.combined);
    assert_eq!(saved.stdout, format!("pod/web created\n---\n{body}"));

    let discarded = run_with_files(
        &format!("{wait}curl -s -o /dev/null -w \"%{{http_code}}\" 192.168.49.2:5000"),
        &[("pod.yaml", pod)],
    );
    assert_eq!(
        discarded.exit_code, 0,
        "transcript:\n{}",
        discarded.combined
    );
    assert_eq!(discarded.stdout, "pod/web created\n200");
}
