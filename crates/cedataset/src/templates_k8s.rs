//! Kubernetes problem templates: pods, daemonsets, services, jobs,
//! deployments and the `others` families of Table 2.
//!
//! Every template returns a [`Problem`] whose unit test provably passes
//! against its own reference solution (checked by the crate's integration
//! tests), and whose description states every asserted field — the
//! paper's "clearly defined, purpose easily understandable" guideline.

use crate::augment;
use crate::problem::{Category, Problem};

/// Deterministic parameter picker: cycles through options by index.
fn pick<T>(options: &[T], i: usize) -> &T {
    &options[i % options.len()]
}

const HTTP_IMAGES: [(&str, u16); 3] = [("nginx", 80), ("httpd", 80), ("registry", 5000)];
const APP_WORDS: [&str; 8] = [
    "web",
    "frontend",
    "api",
    "cache-proxy",
    "gateway",
    "store",
    "metrics",
    "portal",
];
const NAMESPACES: [&str; 4] = ["default", "development", "prod", "staging"];

pub(crate) fn finish_problem(
    id: String,
    category: Category,
    description: String,
    context_yaml: Option<String>,
    labeled_reference: String,
    unit_test: String,
) -> Problem {
    let simplified = augment::simplify(&description);
    let translated = augment::translate(&description);
    Problem::new(
        id,
        category,
        [description, simplified, translated],
        context_yaml,
        labeled_reference,
        unit_test,
    )
}

// ---------------------------------------------------------------------
// Pod templates (48)
// ---------------------------------------------------------------------

/// Builds the i-th pod problem (6 families × parameter sweep).
pub fn pod(i: usize) -> Problem {
    let id = format!("pod-{i:03}");
    let n = i / 6;
    match i % 6 {
        0 => pod_basic(id, n),
        1 => pod_env(id, n),
        2 => pod_resources(id, n),
        3 => pod_command(id, n),
        4 => pod_hostport(id, n),
        _ => pod_volume(id, n),
    }
}

fn pod_basic(id: String, n: usize) -> Problem {
    let (image, port) = *pick(&HTTP_IMAGES, n);
    let app = pick(&APP_WORDS, n);
    let name = format!("{app}-pod");
    let description = format!(
        "Write a YAML file to create a Kubernetes Pod named \"{name}\" that runs a single \
container using the {image} image with the latest tag. The container should be named \
\"{app}\" and must expose container port {port}. Please add the label app: {app} to the \
Pod metadata so that services can select it later."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name} # *\n  labels:\n    app: {app}\nspec:\n  containers:\n  - name: {app} # *\n    image: {image}:latest # v in ['{image}', '{image}:latest']\n    ports:\n    - containerPort: {port}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Ready pod -l app={app} --timeout=60s
pod=$(kubectl get pods -l app={app} -o jsonpath={{.items[0].metadata.name}})
image=$(kubectl get pod $pod -o jsonpath={{.spec.containers[0].image}})
port=$(kubectl get pod $pod -o jsonpath={{.spec.containers[0].ports[0].containerPort}})
phase=$(kubectl get pod $pod -o jsonpath={{.status.phase}})
if [[ $image == *"{image}"* && $port == "{port}" && $phase == "Running" ]]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::Pod,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn pod_env(id: String, n: usize) -> Problem {
    let app = pick(&APP_WORDS, n);
    let db = pick(&["mysql", "postgres", "redis", "mongo"], n);
    let name = format!("{app}-env-pod");
    let (var1, val1) = ("DB_HOST", format!("{db}.default.svc.cluster.local"));
    let (var2, val2) = ("DB_PORT", "5432");
    let description = format!(
        "Create a Kubernetes Pod configuration in YAML. The Pod must be called \"{name}\" with \
label app: {app}, running the {db} image. Inside the container definition, set two \
environment variables: {var1} should be \"{val1}\" and {var2} should be the string \"{val2}\". \
The container name should be \"main\"."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name} # *\n  labels:\n    app: {app}\nspec:\n  containers:\n  - name: main # *\n    image: {db}\n    env:\n    - name: {var1}\n      value: {val1}\n    - name: {var2}\n      value: \"{val2}\"\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
sleep 8
pod=$(kubectl get pods -l app={app} -o jsonpath={{.items[0].metadata.name}})
envs=$(kubectl get pod $pod -o jsonpath='{{.spec.containers[0].env[*].name}}')
v1=$(kubectl get pod $pod -o jsonpath='{{.spec.containers[0].env[0].value}}')
if [[ $envs == *"{var1}"* && $envs == *"{var2}"* && $v1 == "{val1}" ]]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::Pod,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn pod_resources(id: String, n: usize) -> Problem {
    let app = pick(&APP_WORDS, n);
    let cpu_req = pick(&["100m", "250m", "500m"], n);
    let mem_req = pick(&["64Mi", "128Mi", "256Mi"], n);
    let cpu_lim = pick(&["200m", "500m", "1"], n);
    let mem_lim = pick(&["128Mi", "256Mi", "512Mi"], n);
    let name = format!("{app}-limited");
    let description = format!(
        "I need a YAML manifest for a Pod named \"{name}\" (label app: {app}) running nginx. \
The container must declare resource requests of {cpu_req} CPU and {mem_req} memory, and \
resource limits of {cpu_lim} CPU and {mem_lim} memory, so the scheduler and the kubelet \
can enforce them."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name} # *\n  labels:\n    app: {app}\nspec:\n  containers:\n  - name: nginx # *\n    image: nginx\n    resources:\n      requests:\n        cpu: {cpu_req}\n        memory: {mem_req}\n      limits:\n        cpu: {cpu_lim}\n        memory: {mem_lim}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Ready pod -l app={app} --timeout=60s
pod=$(kubectl get pods -l app={app} -o jsonpath={{.items[0].metadata.name}})
cpu=$(kubectl get pod $pod -o jsonpath='{{.spec.containers[0].resources.requests.cpu}}')
mem=$(kubectl get pod $pod -o jsonpath='{{.spec.containers[0].resources.limits.memory}}')
if [ "$cpu" == "{cpu_req}" ] && [ "$mem" == "{mem_lim}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::Pod,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn pod_command(id: String, n: usize) -> Problem {
    let app = pick(&APP_WORDS, n);
    let msg = pick(
        &[
            "hello-cloud",
            "bootstrap-done",
            "job-finished",
            "ready-to-serve",
        ],
        n,
    );
    let name = format!("{app}-task");
    let description = format!(
        "Write a Kubernetes Pod YAML for a one-shot task. Name the Pod \"{name}\" with label \
app: {app}. It runs the busybox image and executes the command `echo {msg}`. Because the \
container exits after printing, set restartPolicy to Never."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name} # *\n  labels:\n    app: {app}\nspec:\n  restartPolicy: Never\n  containers:\n  - name: task # *\n    image: busybox\n    command: [\"echo\", \"{msg}\"]\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
sleep 10
pod=$(kubectl get pods -l app={app} -o jsonpath={{.items[0].metadata.name}})
policy=$(kubectl get pod $pod -o jsonpath={{.spec.restartPolicy}})
kubectl logs $pod | grep "{msg}" || exit 1
if [ "$policy" == "Never" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::Pod,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn pod_hostport(id: String, n: usize) -> Problem {
    let app = pick(&APP_WORDS, n);
    let host_port = 5000 + (n as u16 % 4) * 100;
    let name = format!("{app}-edge");
    let description = format!(
        "Please provide a YAML manifest for a Pod called \"{name}\" labeled app: {app}. It \
runs nginx listening on container port 80, and the port must additionally be published on \
the node via hostPort {host_port} so that the node IP serves traffic directly. It should \
respond to HTTP requests on that host port."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name} # *\n  labels:\n    app: {app}\nspec:\n  containers:\n  - name: edge # *\n    image: nginx\n    ports:\n    - containerPort: 80\n      hostPort: {host_port}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Ready pod -l app={app} --timeout=60s
pod=$(kubectl get pods -l app={app} -o jsonpath={{.items[0].metadata.name}})
host_ip=$(kubectl get pod $pod -o jsonpath='{{.status.hostIP}}')
code=$(curl -s -o /dev/null -w "%{{http_code}}" $host_ip:{host_port})
if [ "$code" == "200" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::Pod,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn pod_volume(id: String, n: usize) -> Problem {
    let app = pick(&APP_WORDS, n);
    let mount = pick(&["/data", "/cache", "/var/tmp/work", "/scratch"], n);
    let vol = pick(&["data-vol", "cache-vol", "work-vol", "scratch-vol"], n);
    let name = format!("{app}-with-volume");
    let description = format!(
        "Generate YAML for a Pod named \"{name}\" (label app: {app}) running redis. Define an \
emptyDir volume called \"{vol}\" and mount it into the container at \"{mount}\". The \
container should be named \"store\"."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name} # *\n  labels:\n    app: {app}\nspec:\n  containers:\n  - name: store # *\n    image: redis\n    volumeMounts:\n    - name: {vol}\n      mountPath: {mount}\n  volumes:\n  - name: {vol}\n    emptyDir: {{}}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Ready pod -l app={app} --timeout=60s
pod=$(kubectl get pods -l app={app} -o jsonpath={{.items[0].metadata.name}})
vol=$(kubectl get pod $pod -o jsonpath='{{.spec.volumes[0].name}}')
path=$(kubectl get pod $pod -o jsonpath='{{.spec.containers[0].volumeMounts[0].mountPath}}')
if [ "$vol" == "{vol}" ] && [ "$path" == "{mount}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::Pod,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

// ---------------------------------------------------------------------
// DaemonSet templates (55)
// ---------------------------------------------------------------------

/// Builds the i-th daemonset problem.
pub fn daemonset(i: usize) -> Problem {
    let id = format!("daemonset-{i:03}");
    let n = i / 3;
    match i % 3 {
        0 => daemonset_registry_proxy(id, n),
        1 => daemonset_log_agent(id, n),
        _ => daemonset_modify_context(id, n),
    }
}

fn daemonset_registry_proxy(id: String, n: usize) -> Problem {
    let app = format!(
        "kube-registry-{}",
        pick(&["modified", "edge", "node", "mirror"], n)
    );
    let host_port = 5000 + (n as u16 % 5) * 10;
    let cpu = pick(&["100m", "150m", "200m"], n);
    let mem = pick(&["50Mi", "100Mi", "200Mi"], n);
    let name = format!("{app}-proxy");
    let description = format!(
        "Create a DaemonSet configuration. This DaemonSet should run the latest nginx image \
labeled as \"app: {app}\" and expose a registry service on port 80 (with hostPort \
{host_port}). The environment variables REGISTRY_HOST and REGISTRY_PORT should be set to \
\"{app}.svc.cluster.local\" and \"{host_port}\" respectively. Ensure the CPU request is \
set to {cpu} and memory request is set to {mem}."
    );
    let labeled_reference = format!(
        "apiVersion: apps/v1\nkind: DaemonSet\nmetadata:\n  name: {name} # *\nspec:\n  selector:\n    matchLabels:\n      app: {app}\n  template:\n    metadata:\n      labels:\n        app: {app}\n    spec:\n      containers:\n      - name: {name} # *\n        image: nginx:latest\n        resources:\n          limits:\n            cpu: {cpu}\n            memory: {mem}\n        env:\n        - name: REGISTRY_HOST\n          value: {app}.svc.cluster.local\n        - name: REGISTRY_PORT\n          value: \"{host_port}\"\n        ports:\n        - name: registry # *\n          containerPort: 80\n          hostPort: {host_port}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Ready pod -l app={app} --timeout=60s
passed_tests=0
total_tests=3
pods=$(kubectl get pods -l app={app} --output=jsonpath={{.items..metadata.name}})
host_ip=$(kubectl get pod $pods -o=jsonpath='{{.status.hostIP}}')
curl_output=$(curl -s -o /dev/null -w "%{{http_code}}" $host_ip:{host_port})
if [ "$curl_output" == "200" ]; then
  ((passed_tests++))
else
  exit 1
fi
env_vars=$(kubectl get pods --selector=app={app} -o=jsonpath='{{.items[0].spec.containers[0].env[*].name}}')
if [[ $env_vars == *"REGISTRY_HOST"* && $env_vars == *"REGISTRY_PORT"* ]]; then
  ((passed_tests++))
fi
cpu_limit=$(kubectl get pod $pods -o=jsonpath='{{.spec.containers[0].resources.limits.cpu}}')
memory_limit=$(kubectl get pod $pods -o=jsonpath='{{.spec.containers[0].resources.limits.memory}}')
if [ "$cpu_limit" == "{cpu}" ] && [ "$memory_limit" == "{mem}" ]; then
  ((passed_tests++))
fi
if [ $passed_tests -eq $total_tests ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::DaemonSet,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn daemonset_log_agent(id: String, n: usize) -> Problem {
    let agent = format!(
        "{}-{n}",
        pick(
            &[
                "log-agent",
                "node-exporter",
                "metrics-shipper",
                "trace-agent"
            ],
            n
        )
    );
    let host_path = pick(
        &["/var/log", "/var/lib/docker/containers", "/proc", "/sys"],
        n,
    );
    let description = format!(
        "Write a YAML file for a Kubernetes DaemonSet named \"{agent}\" so that every node in \
the cluster runs one agent pod. Use the busybox image with the command `echo agent-started`, \
label the pods app: {agent}, and mount the host directory {host_path} into the container at \
/host-logs using a hostPath volume named \"logs\". Set restartPolicy default (Always)."
    );
    let labeled_reference = format!(
        "apiVersion: apps/v1\nkind: DaemonSet\nmetadata:\n  name: {agent}\nspec:\n  selector:\n    matchLabels:\n      app: {agent}\n  template:\n    metadata:\n      labels:\n        app: {agent}\n    spec:\n      containers:\n      - name: agent # *\n        image: busybox\n        command: [\"echo\", \"agent-started\"]\n        volumeMounts:\n        - name: logs\n          mountPath: /host-logs\n      volumes:\n      - name: logs\n        hostPath:\n          path: {host_path}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
sleep 8
count=$(kubectl get pods -l app={agent} -o name | wc -l)
path=$(kubectl get ds {agent} -o jsonpath='{{.spec.template.spec.volumes[0].hostPath.path}}')
kubectl logs -l app={agent} | grep agent-started || exit 1
if [ "$count" -ge "1" ] && [ "$path" == "{host_path}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::DaemonSet,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn daemonset_modify_context(id: String, n: usize) -> Problem {
    let app = format!(
        "{}-{n}",
        pick(&["proxy", "sidecar-injector", "cni-agent", "dns-cache"], n)
    );
    let new_image = pick(&["httpd", "nginx", "registry"], n);
    let context = format!(
        "apiVersion: apps/v1\nkind: DaemonSet\nmetadata:\n  name: {app}-ds\nspec:\n  selector:\n    matchLabels:\n      app: {app}\n  template:\n    metadata:\n      labels:\n        app: {app}\n    spec:\n      containers:\n      - name: main\n        image: busybox\n"
    );
    let description = format!(
        "Given the following DaemonSet YAML for \"{app}-ds\", please change the container \
image from busybox to {new_image} (keep the latest tag implicit) and add an environment \
variable MODE with the value \"edge\" to the container. Keep everything else exactly the \
same and provide the complete updated YAML."
    );
    let labeled_reference = format!(
        "apiVersion: apps/v1\nkind: DaemonSet\nmetadata:\n  name: {app}-ds\nspec:\n  selector:\n    matchLabels:\n      app: {app}\n  template:\n    metadata:\n      labels:\n        app: {app}\n    spec:\n      containers:\n      - name: main # *\n        image: {new_image}\n        env:\n        - name: MODE\n          value: edge\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Ready pod -l app={app} --timeout=60s
image=$(kubectl get ds {app}-ds -o jsonpath='{{.spec.template.spec.containers[0].image}}')
mode=$(kubectl get ds {app}-ds -o jsonpath='{{.spec.template.spec.containers[0].env[0].value}}')
if [[ $image == *"{new_image}"* && $mode == "edge" ]]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::DaemonSet,
        description,
        Some(context),
        labeled_reference,
        unit_test,
    )
}

// ---------------------------------------------------------------------
// Service templates (20)
// ---------------------------------------------------------------------

/// Builds the i-th service problem.
pub fn service(i: usize) -> Problem {
    let id = format!("service-{i:03}");
    let n = i / 2;
    match i % 2 {
        0 => service_loadbalancer_context(id, n),
        _ => service_clusterip(id, n),
    }
}

fn deployment_context(app: &str, replicas: usize) -> String {
    format!(
        "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: {app}-deployment\nspec:\n  replicas: {replicas}\n  selector:\n    matchLabels:\n      app: {app}\n  template:\n    metadata:\n      labels:\n        app: {app}\n    spec:\n      containers:\n      - name: {app}-container\n        image: nginx:latest\n        ports:\n        - containerPort: 80\n"
    )
}

fn service_loadbalancer_context(id: String, n: usize) -> Problem {
    let app = pick(&["nginx", "frontend", "shop", "blog", "wiki"], n);
    let replicas = 2 + n % 3;
    let context = deployment_context(app, replicas);
    let description = format!(
        "Given the following YAML with {replicas} replicas, please help me create a service \
with load balancer that uses the {app} selector, exposed on port 80. It should be \
accessible via browser."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: Service\nmetadata:\n  name: {app}-service # *\nspec:\n  selector:\n    app: {app}\n  ports:\n  - name: http # *\n    port: 80\n    targetPort: 80\n  type: LoadBalancer\n"
    );
    let unit_test = format!(
        r#"echo "{context}" | kubectl apply -f -
kubectl wait --for=condition=ready deployment --all --timeout=15s
kubectl apply -f labeled_code.yaml
sleep 15
kubectl get svc
svc=$(kubectl get svc -o jsonpath='{{.items[0].metadata.name}}')
svc_type=$(kubectl get svc $svc -o jsonpath='{{.spec.type}}')
port=$(kubectl get svc $svc -o jsonpath='{{.spec.ports[0].port}}')
sel=$(kubectl get svc $svc -o jsonpath='{{.spec.selector.app}}')
if [ "$svc_type" != "LoadBalancer" ] || [ "$port" != "80" ] || [ "$sel" != "{app}" ]; then
  exit 1
fi
timeout -s INT 8s minikube service $svc > bash_output.txt 2>&1
cat bash_output.txt
grep "Opening service default/$svc in default browser" bash_output.txt && echo unit_test_passed
"#,
        context = context.trim_end()
    );
    finish_problem(
        id,
        Category::Service,
        description,
        Some(context),
        labeled_reference,
        unit_test,
    )
}

fn service_clusterip(id: String, n: usize) -> Problem {
    let app = format!(
        "{}{n}",
        pick(&["api", "backend", "search", "auth", "billing"], n)
    );
    let port = 8000 + (n as u16 % 5) * 100;
    let context = deployment_context(&app, 1);
    let description = format!(
        "Given the deployment below, write a YAML file for a ClusterIP Service named \
\"{app}-svc\" that selects pods with label app: {app} and exposes service port {port}, \
forwarding to container port 80 via targetPort. Requests to the service name on port \
{port} inside the cluster must reach the pods."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: Service\nmetadata:\n  name: {app}-svc\nspec:\n  selector:\n    app: {app}\n  ports:\n  - port: {port}\n    targetPort: 80\n"
    );
    let unit_test = format!(
        r#"echo "{context}" | kubectl apply -f -
kubectl wait --for=condition=Ready pod -l app={app} --timeout=60s
kubectl apply -f labeled_code.yaml
sleep 5
code=$(curl -s -o /dev/null -w "%{{http_code}}" {app}-svc:{port})
target=$(kubectl get svc {app}-svc -o jsonpath='{{.spec.ports[0].targetPort}}')
if [ "$code" == "200" ] && [ "$target" == "80" ]; then
  echo unit_test_passed
fi
"#,
        context = context.trim_end()
    );
    finish_problem(
        id,
        Category::Service,
        description,
        Some(context),
        labeled_reference,
        unit_test,
    )
}

// ---------------------------------------------------------------------
// Job templates (19)
// ---------------------------------------------------------------------

/// Builds the i-th job problem.
pub fn job(i: usize) -> Problem {
    let id = format!("job-{i:03}");
    let n = i / 2;
    match i % 2 {
        0 => job_echo(id, n),
        _ => job_completions(id, n),
    }
}

fn job_echo(id: String, n: usize) -> Problem {
    let task = pick(&["migration", "backup", "report", "cleanup", "indexing"], n);
    let msg = format!("{task}-complete");
    let backoff = 2 + n % 4;
    let description = format!(
        "Write a Kubernetes Job YAML named \"{task}-job\". The Job runs a busybox container \
called \"worker\" that executes `echo {msg}` and then exits. Set restartPolicy to Never \
and backoffLimit to {backoff}. The Job must run to completion."
    );
    let labeled_reference = format!(
        "apiVersion: batch/v1\nkind: Job\nmetadata:\n  name: {task}-job # *\nspec:\n  backoffLimit: {backoff}\n  template:\n    spec:\n      containers:\n      - name: worker # *\n        image: busybox\n        command: [\"echo\", \"{msg}\"]\n      restartPolicy: Never\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Complete job --all --timeout=120s
job=$(kubectl get jobs -o jsonpath='{{.items[0].metadata.name}}')
succeeded=$(kubectl get job $job -o jsonpath={{.status.succeeded}})
backoff=$(kubectl get job $job -o jsonpath={{.spec.backoffLimit}})
kubectl logs -l job-name=$job 2> /dev/null
if [ "$succeeded" == "1" ] && [ "$backoff" == "{backoff}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::Job,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn job_completions(id: String, n: usize) -> Problem {
    let task = pick(&["batch", "fanout", "shard", "chunk"], n);
    let completions = 2 + n % 3;
    let description = format!(
        "Create a YAML manifest for a Kubernetes Job named \"{task}-runner\" that needs \
{completions} successful completions (spec.completions: {completions}). Each pod runs the \
perl image with the command `perl -e 'print 42'`, the container is named \"calc\", and \
restartPolicy must be OnFailure."
    );
    let labeled_reference = format!(
        "apiVersion: batch/v1\nkind: Job\nmetadata:\n  name: {task}-runner # *\nspec:\n  completions: {completions}\n  template:\n    spec:\n      containers:\n      - name: calc # *\n        image: perl\n        command: [\"perl\", \"-e\", \"print 42\"]\n      restartPolicy: OnFailure\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Complete job --all --timeout=180s
job=$(kubectl get jobs -o jsonpath='{{.items[0].metadata.name}}')
succeeded=$(kubectl get job $job -o jsonpath={{.status.succeeded}})
if [ "$succeeded" == "{completions}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::Job,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

// ---------------------------------------------------------------------
// Deployment templates (19)
// ---------------------------------------------------------------------

/// Builds the i-th deployment problem.
pub fn deployment(i: usize) -> Problem {
    let id = format!("deployment-{i:03}");
    let n = i / 2;
    match i % 2 {
        0 => deployment_basic(id, n),
        _ => deployment_scale_context(id, n),
    }
}

fn deployment_basic(id: String, n: usize) -> Problem {
    let app = pick(&["webapp", "landing", "docs", "admin", "status"], n);
    let replicas = 2 + n % 4;
    let description = format!(
        "Please write a YAML file that defines a Kubernetes Deployment named \
\"{app}-deployment\" with {replicas} replicas. Pods carry the label app: {app}; the \
selector must match it. Each pod runs one container named \"{app}-container\" using the \
nginx:latest image and exposing container port 80. All replicas must become ready."
    );
    let labeled_reference = format!(
        "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: {app}-deployment\nspec:\n  replicas: {replicas}\n  selector:\n    matchLabels:\n      app: {app}\n  template:\n    metadata:\n      labels:\n        app: {app}\n    spec:\n      containers:\n      - name: {app}-container # *\n        image: nginx:latest # v in ['nginx', 'nginx:latest']\n        ports:\n        - containerPort: 80\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl rollout status deployment/{app}-deployment --timeout=120s
ready=$(kubectl get deployment {app}-deployment -o jsonpath={{.status.readyReplicas}})
count=$(kubectl get pods -l app={app} -o name | wc -l)
if [ "$ready" == "{replicas}" ] && [ "$count" == "{replicas}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::Deployment,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn deployment_scale_context(id: String, n: usize) -> Problem {
    let app = pick(&["checkout", "cart", "payments", "inventory", "emails"], n);
    let new_replicas = 3 + n % 3;
    let new_image = pick(&["httpd", "nginx"], n);
    let context = deployment_context(app, 1);
    let description = format!(
        "Given the following Deployment YAML for \"{app}-deployment\", update it so that it \
runs {new_replicas} replicas and uses the {new_image} image instead of the current one. Keep the same names, labels and \
container port, and return the entire modified YAML."
    );
    let labeled_reference = format!(
        "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: {app}-deployment\nspec:\n  replicas: {new_replicas}\n  selector:\n    matchLabels:\n      app: {app}\n  template:\n    metadata:\n      labels:\n        app: {app}\n    spec:\n      containers:\n      - name: {app}-container # *\n        image: {new_image}\n        ports:\n        - containerPort: 80\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl rollout status deployment/{app}-deployment --timeout=120s
replicas=$(kubectl get deployment {app}-deployment -o jsonpath={{.spec.replicas}})
image=$(kubectl get deployment {app}-deployment -o jsonpath='{{.spec.template.spec.containers[0].image}}')
if [ "$replicas" == "{new_replicas}" ] && [[ $image == *"{new_image}"* ]]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::Deployment,
        description,
        Some(context),
        labeled_reference,
        unit_test,
    )
}

// ---------------------------------------------------------------------
// "Others" templates (122) — see `others` for the family layout.
// ---------------------------------------------------------------------

/// Builds the i-th `others` problem, spread over 13 sub-families.
pub fn others(i: usize) -> Problem {
    let id = format!("others-{i:03}");
    let n = i / 13;
    match i % 13 {
        0 => cm_problem(id, n),
        1 => secret_problem(id, n),
        2 => namespace_quota(id, n),
        3 => rolebinding_problem(id, n),
        4 => clusterrole_problem(id, n),
        5 => ingress_problem(id, n),
        6 => limitrange_problem(id, n),
        7 => pvc_problem(id, n),
        8 => hpa_problem(id, n),
        9 => cronjob_problem(id, n),
        10 => netpol_problem(id, n),
        11 => statefulset_problem(id, n),
        _ => multi_doc_problem(id, n),
    }
}

fn cm_problem(id: String, n: usize) -> Problem {
    let app = pick(&APP_WORDS, n);
    let mode = pick(&["production", "staging", "debug", "canary"], n);
    let retries = 1 + n % 5;
    let description = format!(
        "Write a YAML file for a Kubernetes ConfigMap named \"{app}-config\". It must contain \
two keys under data: \"mode\" with the value \"{mode}\" and \"retries\" with the string \
value \"{retries}\"."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: {app}-config # *\ndata:\n  mode: {mode}\n  retries: \"{retries}\"\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
cm=$(kubectl get configmap -o jsonpath='{{.items[0].metadata.name}}')
mode=$(kubectl get configmap $cm -o jsonpath={{.data.mode}})
retries=$(kubectl get configmap $cm -o jsonpath={{.data.retries}})
if [ "$mode" == "{mode}" ] && [ "$retries" == "{retries}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn secret_problem(id: String, n: usize) -> Problem {
    let app = pick(&APP_WORDS, n);
    let user = pick(&["admin", "service", "deploy", "ops"], n);
    let description = format!(
        "Create a Kubernetes Secret manifest in YAML. Name it \"{app}-secret\", set its type to \
Opaque, and provide two entries under stringData: \"username\" = \"{user}\" and \"password\" \
= \"s3cr3t-{n}\". stringData lets us write the values in plain text."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: Secret\nmetadata:\n  name: {app}-secret # *\ntype: Opaque\nstringData:\n  username: {user}\n  password: s3cr3t-{n}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
s=$(kubectl get secret -o jsonpath='{{.items[0].metadata.name}}')
t=$(kubectl get secret $s -o jsonpath={{.type}})
u=$(kubectl get secret $s -o jsonpath={{.stringData.username}})
if [ "$t" == "Opaque" ] && [ "$u" == "{user}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn namespace_quota(id: String, n: usize) -> Problem {
    let team = pick(&["payments", "ml", "data", "platform", "growth"], n);
    let pods = 4 + n % 8;
    let description = format!(
        "Write a YAML file with two documents. The first creates a Namespace named \
\"team-{team}\". The second creates a ResourceQuota named \"{team}-quota\" inside that \
namespace limiting the number of pods to {pods} (hard limit, key \"pods\")."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: Namespace\nmetadata:\n  name: team-{team}\n---\napiVersion: v1\nkind: ResourceQuota\nmetadata:\n  name: {team}-quota # *\n  namespace: team-{team}\nspec:\n  hard:\n    pods: \"{pods}\"\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
ns=$(kubectl get namespace team-{team} -o jsonpath={{.metadata.name}})
quota=$(kubectl get resourcequota -n team-{team} -o jsonpath='{{.items[0].spec.hard.pods}}')
if [ "$ns" == "team-{team}" ] && [ "$quota" == "{pods}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn rolebinding_problem(id: String, n: usize) -> Problem {
    let user = pick(&["dave", "alice", "bob", "carol", "erin"], n);
    let ns = pick(&NAMESPACES[1..], n);
    let role = pick(
        &["secret-reader", "pod-viewer", "config-editor", "log-reader"],
        n,
    );
    let description = format!(
        "Write a yaml file to create a Kubernetes RoleBinding in the {ns} namespace with the \
name \"read-secrets\". This RoleBinding should bind the user \"{user}\" to the ClusterRole \
named \"{role}\". Ensure that both the user and the ClusterRole are under the \
rbac.authorization.k8s.io API group."
    );
    let labeled_reference = format!(
        "apiVersion: rbac.authorization.k8s.io/v1\nkind: RoleBinding\nmetadata:\n  name: read-secrets\n  namespace: {ns}\nsubjects:\n- kind: User\n  name: {user}\n  apiGroup: rbac.authorization.k8s.io\nroleRef:\n  kind: ClusterRole\n  name: {role}\n  apiGroup: rbac.authorization.k8s.io\n"
    );
    let unit_test = format!(
        r#"kubectl create ns {ns} || true
kubectl apply -f labeled_code.yaml
namespace=$(kubectl get rolebinding read-secrets -n {ns} -o jsonpath={{.metadata.namespace}})
subject_name=$(kubectl get rolebinding read-secrets -n {ns} -o jsonpath='{{.subjects[0].name}}')
role_ref_name=$(kubectl get rolebinding read-secrets -n {ns} -o jsonpath={{.roleRef.name}})
if [[ $namespace == "{ns}" && $subject_name == "{user}" && $role_ref_name == "{role}" ]]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn clusterrole_problem(id: String, n: usize) -> Problem {
    let what = pick(&["pods", "services", "deployments", "configmaps"], n);
    let name = format!("{}-reader-{n}", what.trim_end_matches('s'));
    let description = format!(
        "Create YAML for a Kubernetes ClusterRole named \"{name}\" that grants read-only access \
to {what}: the rule must cover the core API group (empty string), resource \"{what}\", and \
the verbs get, watch and list."
    );
    let labeled_reference = format!(
        "apiVersion: rbac.authorization.k8s.io/v1\nkind: ClusterRole\nmetadata:\n  name: {name}\nrules:\n- apiGroups: [\"\"]\n  resources: [\"{what}\"]\n  verbs: [\"get\", \"watch\", \"list\"]\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
cr=$(kubectl get clusterrole -o jsonpath='{{.items[?(@.metadata.name=="{name}")].metadata.name}}')
res=$(kubectl get clusterrole {name} -o jsonpath='{{.rules[0].resources[0]}}')
verbs=$(kubectl get clusterrole {name} -o jsonpath='{{.rules[0].verbs[*]}}')
if [ "$res" == "{what}" ] && [[ $verbs == *"watch"* ]]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn ingress_problem(id: String, n: usize) -> Problem {
    let svc = format!(
        "{}-{n}",
        pick(&["test-app", "web-app", "api-server", "frontend-svc"], n)
    );
    let svc = svc.as_str();
    let port = 5000 + (n as u16 % 4) * 1000;
    if n.is_multiple_of(2) {
        // Debugging variant — the paper's Appendix C.3.
        let buggy = format!(
            "apiVersion: networking.k8s.io/v1\nkind: Ingress\nmetadata:\n  name: test-ingress\n  annotations:\n    nginx.ingress.kubernetes.io/rewrite-target: /\nspec:\n  rules:\n  - http:\n      paths:\n      - path: /\n        backend:\n          serviceName: {svc}\n          servicePort: {port}\n"
        );
        let description = format!(
            "Given the following YAML which is not functionally correct: when executing it, it \
would report the error: Error from server (BadRequest): error when creating \"wrong.yaml\": \
Ingress in version \"v1\" cannot be handled as a Ingress: strict decoding error: unknown \
field \"spec.rules[0].http.paths[0].backend.serviceName\", unknown field \
\"spec.rules[0].http.paths[0].backend.servicePort\". Please debug it to make it valid, keeping the backend service \"{svc}\" on port {port}. \
Please provide the entire YAML."
        );
        let labeled_reference = format!(
            "apiVersion: networking.k8s.io/v1\nkind: Ingress\nmetadata:\n  name: minimal-ingress # *\n  annotations:\n    nginx.ingress.kubernetes.io/rewrite-target: /\nspec:\n  rules:\n  - http:\n      paths:\n      - path: /\n        pathType: Prefix\n        backend:\n          service:\n            name: {svc}\n            port:\n              number: {port}\n"
        );
        let unit_test = format!(
            r#"kubectl apply -f labeled_code.yaml
kubectl wait --namespace default --for=condition=SYNCED ingress --all --timeout=15s
ing=$(kubectl get ingress -o jsonpath='{{.items[0].metadata.name}}')
kubectl describe ingress $ing | grep "{svc}:{port}" && echo unit_test_passed
"#
        );
        finish_problem(
            id,
            Category::KubernetesOther,
            description,
            Some(buggy),
            labeled_reference,
            unit_test,
        )
    } else {
        let host = pick(
            &["shop.example.com", "docs.example.com", "api.example.com"],
            n,
        );
        let description = format!(
            "Write YAML for a Kubernetes Ingress (networking.k8s.io/v1) named \"{svc}-ingress\". \
Route HTTP traffic for host \"{host}\" with path \"/\" (pathType Prefix) to the backend \
service \"{svc}\" on port number {port}."
        );
        let labeled_reference = format!(
            "apiVersion: networking.k8s.io/v1\nkind: Ingress\nmetadata:\n  name: {svc}-ingress # *\nspec:\n  rules:\n  - host: {host}\n    http:\n      paths:\n      - path: /\n        pathType: Prefix\n        backend:\n          service:\n            name: {svc}\n            port:\n              number: {port}\n"
        );
        let unit_test = format!(
            r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=SYNCED ingress --all --timeout=15s
ing=$(kubectl get ingress -o jsonpath='{{.items[0].metadata.name}}')
host=$(kubectl get ingress $ing -o jsonpath='{{.spec.rules[0].host}}')
kubectl describe ingress $ing | grep "{svc}:{port}" || exit 1
if [ "$host" == "{host}" ]; then
  echo unit_test_passed
fi
"#
        );
        finish_problem(
            id,
            Category::KubernetesOther,
            description,
            None,
            labeled_reference,
            unit_test,
        )
    }
}

fn limitrange_problem(id: String, n: usize) -> Problem {
    let cpu_default = pick(&["100m", "200m", "300m"], n);
    let mem_default = pick(&["200Mi", "256Mi", "512Mi"], n);
    let cpu_max = pick(&["150m", "500m", "1"], n);
    let mem_max = pick(&["250Mi", "512Mi", "1Gi"], n);
    let description = format!(
        "Craft a yaml file to define a Kubernetes LimitRange named \"resource-limits-{n}\". \
Containers within the cluster should have a default CPU request of {cpu_default} and a \
memory request of {mem_default}. Any Container created should not exceed a maximum CPU \
usage of {cpu_max} or a memory usage of {mem_max}. Use a single limit entry of type \
Container with defaultRequest and max sections."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: LimitRange\nmetadata:\n  name: resource-limits-{n}\nspec:\n  limits:\n  - type: Container\n    defaultRequest:\n      cpu: {cpu_default}\n      memory: {mem_default}\n    max:\n      cpu: {cpu_max}\n      memory: {mem_max}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
lr=$(kubectl get limitrange -o jsonpath='{{.items[0].metadata.name}}')
cpu=$(kubectl get limitrange $lr -o jsonpath='{{.spec.limits[0].defaultRequest.cpu}}')
maxmem=$(kubectl get limitrange $lr -o jsonpath='{{.spec.limits[0].max.memory}}')
if [ "$cpu" == "{cpu_default}" ] && [ "$maxmem" == "{mem_max}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn pvc_problem(id: String, n: usize) -> Problem {
    let app = pick(&APP_WORDS, n);
    let size = pick(&["1Gi", "5Gi", "10Gi", "20Gi"], n);
    let mode = pick(&["ReadWriteOnce", "ReadOnlyMany", "ReadWriteMany"], n);
    let description = format!(
        "Write a YAML manifest for a PersistentVolumeClaim named \"{app}-data\". It must \
request {size} of storage (resources.requests.storage) with the access mode {mode}, and \
use the storage class \"standard\"."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: PersistentVolumeClaim\nmetadata:\n  name: {app}-data # *\nspec:\n  accessModes:\n  - {mode}\n  storageClassName: standard\n  resources:\n    requests:\n      storage: {size}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
pvc=$(kubectl get pvc -o jsonpath='{{.items[0].metadata.name}}')
size=$(kubectl get pvc $pvc -o jsonpath='{{.spec.resources.requests.storage}}')
mode=$(kubectl get pvc $pvc -o jsonpath='{{.spec.accessModes[0]}}')
if [ "$size" == "{size}" ] && [ "$mode" == "{mode}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn hpa_problem(id: String, n: usize) -> Problem {
    let app = pick(&["checkout", "search", "feed", "upload"], n);
    let min = 1 + n % 3;
    let max = 5 + n % 6;
    let cpu = 50 + (n % 5) * 10;
    let context = deployment_context(app, min);
    let description = format!(
        "Given this Deployment, write a HorizontalPodAutoscaler (autoscaling/v1) named \
\"{app}-hpa\" that targets it by name. Scale between {min} and {max} replicas \
(minReplicas/maxReplicas) with a targetCPUUtilizationPercentage of {cpu}."
    );
    let labeled_reference = format!(
        "apiVersion: autoscaling/v1\nkind: HorizontalPodAutoscaler\nmetadata:\n  name: {app}-hpa # *\nspec:\n  scaleTargetRef:\n    apiVersion: apps/v1\n    kind: Deployment\n    name: {app}-deployment\n  minReplicas: {min}\n  maxReplicas: {max}\n  targetCPUUtilizationPercentage: {cpu}\n"
    );
    let unit_test = format!(
        r#"echo "{context}" | kubectl apply -f -
kubectl apply -f labeled_code.yaml
hpa=$(kubectl get hpa -o jsonpath='{{.items[0].metadata.name}}')
max=$(kubectl get hpa $hpa -o jsonpath={{.spec.maxReplicas}})
target=$(kubectl get hpa $hpa -o jsonpath='{{.spec.scaleTargetRef.name}}')
cpu=$(kubectl get hpa $hpa -o jsonpath={{.spec.targetCPUUtilizationPercentage}})
if [ "$max" == "{max}" ] && [ "$target" == "{app}-deployment" ] && [ "$cpu" == "{cpu}" ]; then
  echo unit_test_passed
fi
"#,
        context = context.trim_end()
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        Some(context),
        labeled_reference,
        unit_test,
    )
}

fn cronjob_problem(id: String, n: usize) -> Problem {
    let task = pick(&["heartbeat", "sync", "rotate", "prune"], n);
    let schedule = pick(&["* * * * *", "*/5 * * * *", "0 * * * *"], n);
    let description = format!(
        "Write a Kubernetes CronJob YAML named \"{task}-cron\" with the schedule \"{schedule}\". \
The job template runs a busybox container named \"tick\" executing `echo {task}-tick`, \
with restartPolicy OnFailure."
    );
    let labeled_reference = format!(
        "apiVersion: batch/v1\nkind: CronJob\nmetadata:\n  name: {task}-cron # *\nspec:\n  schedule: \"{schedule}\"\n  jobTemplate:\n    spec:\n      template:\n        spec:\n          containers:\n          - name: tick # *\n            image: busybox\n            command: [\"echo\", \"{task}-tick\"]\n          restartPolicy: OnFailure\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
cj=$(kubectl get cronjob -o jsonpath='{{.items[0].metadata.name}}')
sched=$(kubectl get cronjob $cj -o jsonpath='{{.spec.schedule}}')
sleep 70
jobs=$(kubectl get jobs -o name | wc -l)
if [ "$sched" == "{schedule}" ] && [ "$jobs" -ge "1" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn netpol_problem(id: String, n: usize) -> Problem {
    let app = format!(
        "{}-{n}",
        pick(&["db", "vault", "internal-api", "billing"], n)
    );
    let description = format!(
        "Create a NetworkPolicy YAML named \"deny-{app}\" that selects pods labeled app: {app} \
(spec.podSelector.matchLabels) and declares both policy types Ingress and Egress, which \
together with no rules means all traffic to and from those pods is denied."
    );
    let labeled_reference = format!(
        "apiVersion: networking.k8s.io/v1\nkind: NetworkPolicy\nmetadata:\n  name: deny-{app} # *\nspec:\n  podSelector:\n    matchLabels:\n      app: {app}\n  policyTypes:\n  - Ingress\n  - Egress\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
np=$(kubectl get networkpolicy -o jsonpath='{{.items[0].metadata.name}}')
sel=$(kubectl get networkpolicy $np -o jsonpath='{{.spec.podSelector.matchLabels.app}}')
types=$(kubectl get networkpolicy $np -o jsonpath='{{.spec.policyTypes[*]}}')
if [ "$sel" == "{app}" ] && [[ $types == *"Ingress"* && $types == *"Egress"* ]]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn statefulset_problem(id: String, n: usize) -> Problem {
    let db = pick(&["mysql", "postgres", "mongo", "redis"], n);
    let replicas = 2 + n % 2;
    let description = format!(
        "Write YAML for a Kubernetes StatefulSet named \"{db}-set{n}\" with {replicas} replicas. \
It must set serviceName to \"{db}-headless\", select pods labeled app: {db}, and the pod \
template runs the {db} image in a container named \"{db}\". StatefulSet pods get stable \
ordinal names."
    );
    let labeled_reference = format!(
        "apiVersion: apps/v1\nkind: StatefulSet\nmetadata:\n  name: {db}-set{n}\nspec:\n  serviceName: {db}-headless\n  replicas: {replicas}\n  selector:\n    matchLabels:\n      app: {db}\n  template:\n    metadata:\n      labels:\n        app: {db}\n    spec:\n      containers:\n      - name: {db}\n        image: {db}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
sleep 15
first=$(kubectl get pod {db}-set{n}-0 -o jsonpath={{.metadata.name}})
svc=$(kubectl get statefulset {db}-set{n} -o jsonpath={{.spec.serviceName}})
count=$(kubectl get pods -l app={db} -o name | wc -l)
if [ "$first" == "{db}-set{n}-0" ] && [ "$svc" == "{db}-headless" ] && [ "$count" == "{replicas}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

// ---------------------------------------------------------------------
// Scenario templates (extended dataset): workload families added to
// exercise the unit-test substrate across richer Kubernetes surface —
// CronJob policies, autoscaling/v2 HPAs, multi-path Ingresses,
// NetworkPolicy allow rules, and ConfigMap-backed volumes.
// ---------------------------------------------------------------------

/// Number of scenario families in [`scenario`].
pub const SCENARIO_FAMILIES: usize = 5;

/// Builds the i-th extended-scenario problem (5 families × parameter
/// sweep). These ride on [`crate::Dataset::generate_extended`]; the base
/// 337-problem set is unchanged.
pub fn scenario(i: usize) -> Problem {
    let n = i / SCENARIO_FAMILIES;
    match i % SCENARIO_FAMILIES {
        0 => scenario_configmap_volume(format!("scn-cmvol-{n:02}"), n),
        1 => scenario_cronjob(format!("scn-cronjob-{n:02}"), n),
        2 => scenario_hpa_v2(format!("scn-hpa-{n:02}"), n),
        3 => scenario_ingress_multipath(format!("scn-ingress-{n:02}"), n),
        _ => scenario_netpol_allow(format!("scn-netpol-{n:02}"), n),
    }
}

fn scenario_configmap_volume(id: String, n: usize) -> Problem {
    let app = pick(&APP_WORDS, n);
    let mode = pick(&["production", "staging", "canary"], n);
    let mount = pick(&["/etc/app", "/config", "/opt/settings"], n);
    let description = format!(
        "Write a YAML file with two documents. First, a ConfigMap named \"{app}-settings\" \
with one key under data: \"mode\" set to \"{mode}\". Second, a Pod named \"{app}-reader\" \
(label app: {app}) running nginx, which mounts that ConfigMap as a volume named \"settings\" \
at \"{mount}\", projecting the \"mode\" key to the file name \"mode.conf\" using items."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: {app}-settings\ndata:\n  mode: {mode}\n---\napiVersion: v1\nkind: Pod\nmetadata:\n  name: {app}-reader\n  labels:\n    app: {app}\nspec:\n  containers:\n  - name: reader # *\n    image: nginx\n    volumeMounts:\n    - name: settings\n      mountPath: {mount}\n  volumes:\n  - name: settings\n    configMap:\n      name: {app}-settings\n      items:\n      - key: mode\n        path: mode.conf\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Ready pod -l app={app} --timeout=60s
cm_mode=$(kubectl get configmap {app}-settings -o jsonpath={{.data.mode}})
vol_cm=$(kubectl get pod {app}-reader -o jsonpath='{{.spec.volumes[0].configMap.name}}')
item_path=$(kubectl get pod {app}-reader -o jsonpath='{{.spec.volumes[0].configMap.items[0].path}}')
mount=$(kubectl get pod {app}-reader -o jsonpath='{{.spec.containers[0].volumeMounts[0].mountPath}}')
if [ "$cm_mode" == "{mode}" ] && [ "$vol_cm" == "{app}-settings" ] && [ "$item_path" == "mode.conf" ] && [ "$mount" == "{mount}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn scenario_cronjob(id: String, n: usize) -> Problem {
    let task = format!(
        "{}-{n}",
        pick(&["compact", "snapshot", "billing-sync", "reindex"], n)
    );
    let history = 1 + n % 4;
    let description = format!(
        "Create a Kubernetes CronJob YAML named \"{task}-schedule\" that runs every minute \
(schedule \"* * * * *\"). Set concurrencyPolicy to Forbid so overlapping runs are skipped, \
and keep only {history} successful jobs (successfulJobsHistoryLimit). The job template runs \
a busybox container named \"tick\" executing `echo {task}-done` with restartPolicy OnFailure."
    );
    let labeled_reference = format!(
        "apiVersion: batch/v1\nkind: CronJob\nmetadata:\n  name: {task}-schedule # *\nspec:\n  schedule: \"* * * * *\"\n  concurrencyPolicy: Forbid\n  successfulJobsHistoryLimit: {history}\n  jobTemplate:\n    spec:\n      template:\n        spec:\n          containers:\n          - name: tick # *\n            image: busybox\n            command: [\"echo\", \"{task}-done\"]\n          restartPolicy: OnFailure\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
cj=$(kubectl get cronjob -o jsonpath='{{.items[0].metadata.name}}')
policy=$(kubectl get cronjob $cj -o jsonpath='{{.spec.concurrencyPolicy}}')
history=$(kubectl get cronjob $cj -o jsonpath='{{.spec.successfulJobsHistoryLimit}}')
sleep 70
jobs=$(kubectl get jobs -o name | wc -l)
if [ "$policy" == "Forbid" ] && [ "$history" == "{history}" ] && [ "$jobs" -ge "1" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn scenario_hpa_v2(id: String, n: usize) -> Problem {
    let app = pick(&["render", "ingest", "score", "transcode"], n);
    let max = 6 + n % 6;
    let util = 50 + (n % 4) * 10;
    let context = deployment_context(app, 2);
    let description = format!(
        "Given this Deployment, write an autoscaling/v2 HorizontalPodAutoscaler named \
\"{app}-hpa-v2\" targeting it by name. Scale from 2 to {max} replicas using the v2 metrics \
form: one Resource metric on cpu with target type Utilization and averageUtilization {util}."
    );
    let labeled_reference = format!(
        "apiVersion: autoscaling/v2\nkind: HorizontalPodAutoscaler\nmetadata:\n  name: {app}-hpa-v2 # *\nspec:\n  scaleTargetRef:\n    apiVersion: apps/v1\n    kind: Deployment\n    name: {app}-deployment\n  minReplicas: 2\n  maxReplicas: {max}\n  metrics:\n  - type: Resource\n    resource:\n      name: cpu\n      target:\n        type: Utilization\n        averageUtilization: {util}\n"
    );
    let unit_test = format!(
        r#"echo "{context}" | kubectl apply -f -
kubectl apply -f labeled_code.yaml
hpa=$(kubectl get hpa -o jsonpath='{{.items[0].metadata.name}}')
max=$(kubectl get hpa $hpa -o jsonpath={{.spec.maxReplicas}})
metric=$(kubectl get hpa $hpa -o jsonpath='{{.spec.metrics[0].resource.name}}')
util=$(kubectl get hpa $hpa -o jsonpath='{{.spec.metrics[0].resource.target.averageUtilization}}')
if [ "$max" == "{max}" ] && [ "$metric" == "cpu" ] && [ "$util" == "{util}" ]; then
  echo unit_test_passed
fi
"#,
        context = context.trim_end()
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        Some(context),
        labeled_reference,
        unit_test,
    )
}

fn scenario_ingress_multipath(id: String, n: usize) -> Problem {
    let host = pick(
        &["app.example.com", "portal.example.com", "edge.example.com"],
        n,
    );
    let api_svc = format!("api-v{n}");
    let web_svc = format!("web-v{n}");
    let api_port = 8000 + (n as u16 % 3) * 100;
    let description = format!(
        "Write YAML for a networking.k8s.io/v1 Ingress named \"split-ingress-{n}\" with \
ingressClassName \"nginx\". For host \"{host}\" route path \"/api\" (pathType Prefix) to \
service \"{api_svc}\" on port number {api_port}, and path \"/\" (pathType Prefix) to \
service \"{web_svc}\" on port number 80."
    );
    let labeled_reference = format!(
        "apiVersion: networking.k8s.io/v1\nkind: Ingress\nmetadata:\n  name: split-ingress-{n} # *\nspec:\n  ingressClassName: nginx\n  rules:\n  - host: {host}\n    http:\n      paths:\n      - path: /api\n        pathType: Prefix\n        backend:\n          service:\n            name: {api_svc}\n            port:\n              number: {api_port}\n      - path: /\n        pathType: Prefix\n        backend:\n          service:\n            name: {web_svc}\n            port:\n              number: 80\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=SYNCED ingress --all --timeout=15s
ing=$(kubectl get ingress -o jsonpath='{{.items[0].metadata.name}}')
host=$(kubectl get ingress $ing -o jsonpath='{{.spec.rules[0].host}}')
class=$(kubectl get ingress $ing -o jsonpath='{{.spec.ingressClassName}}')
kubectl describe ingress $ing | grep "{api_svc}:{api_port}" || exit 1
kubectl describe ingress $ing | grep "{web_svc}:80" || exit 1
if [ "$host" == "{host}" ] && [ "$class" == "nginx" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn scenario_netpol_allow(id: String, n: usize) -> Problem {
    let app = format!(
        "{}-{n}",
        pick(&["redis", "postgres", "vault", "rabbitmq"], n)
    );
    let app = app.as_str();
    let client = pick(&["frontend", "worker", "api", "scheduler"], n);
    let port = [6379u16, 5432, 8200, 5672][n % 4];
    let description = format!(
        "Create a NetworkPolicy YAML named \"allow-{client}-to-{app}\" that selects pods \
labeled app: {app} and declares policy type Ingress with one allow rule: traffic from pods \
labeled role: {client} (a from.podSelector) on TCP port {port} only."
    );
    let labeled_reference = format!(
        "apiVersion: networking.k8s.io/v1\nkind: NetworkPolicy\nmetadata:\n  name: allow-{client}-to-{app} # *\nspec:\n  podSelector:\n    matchLabels:\n      app: {app}\n  policyTypes:\n  - Ingress\n  ingress:\n  - from:\n    - podSelector:\n        matchLabels:\n          role: {client}\n    ports:\n    - protocol: TCP\n      port: {port}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
np=$(kubectl get networkpolicy -o jsonpath='{{.items[0].metadata.name}}')
sel=$(kubectl get networkpolicy $np -o jsonpath='{{.spec.podSelector.matchLabels.app}}')
peer=$(kubectl get networkpolicy $np -o jsonpath='{{.spec.ingress[0].from[0].podSelector.matchLabels.role}}')
port=$(kubectl get networkpolicy $np -o jsonpath='{{.spec.ingress[0].ports[0].port}}')
if [ "$sel" == "{app}" ] && [ "$peer" == "{client}" ] && [ "$port" == "{port}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}

fn multi_doc_problem(id: String, n: usize) -> Problem {
    let db = pick(&["mysql", "postgres"], n);
    let port = if *pick(&["mysql", "postgres"], n) == "mysql" {
        3306
    } else {
        5432
    };
    let description = format!(
        "Please write a YAML file that defines firstly a Service and then a Deployment. The \
Deployment runs a single {db} instance using the latest image on port {port}, with the \
environment MYSQL_ROOT_PASSWORD=password{n}. The deployment should also define a volume mount \
for /var/lib/{db} backed by an emptyDir volume. The Service simply exposes the deployment \
on its port. All potential names should be {db} and labels should be app: {db}."
    );
    let labeled_reference = format!(
        "apiVersion: v1\nkind: Service\nmetadata:\n  name: {db}\n  labels:\n    app: {db}\nspec:\n  selector:\n    app: {db}\n  ports:\n  - port: {port}\n---\napiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: {db}\n  labels:\n    app: {db}\nspec:\n  selector:\n    matchLabels:\n      app: {db}\n  template:\n    metadata:\n      labels:\n        app: {db}\n    spec:\n      containers:\n      - name: {db}\n        image: {db}:latest # v in ['{db}', '{db}:latest']\n        ports:\n        - containerPort: {port}\n        env:\n        - name: MYSQL_ROOT_PASSWORD\n          value: password{n}\n        volumeMounts:\n        - name: data\n          mountPath: /var/lib/{db}\n      volumes:\n      - name: data\n        emptyDir: {{}}\n"
    );
    let unit_test = format!(
        r#"kubectl apply -f labeled_code.yaml
kubectl wait --for=condition=Ready pod -l app={db} --timeout=90s
svc_port=$(kubectl get svc {db} -o jsonpath='{{.spec.ports[0].port}}')
image=$(kubectl get deployment {db} -o jsonpath='{{.spec.template.spec.containers[0].image}}')
env_name=$(kubectl get deployment {db} -o jsonpath='{{.spec.template.spec.containers[0].env[0].name}}')
env_val=$(kubectl get deployment {db} -o jsonpath='{{.spec.template.spec.containers[0].env[0].value}}')
if [ "$svc_port" == "{port}" ] && [[ $image == *"{db}"* ]] && [ "$env_name" == "MYSQL_ROOT_PASSWORD" ] && [ "$env_val" == "password{n}" ]; then
  echo unit_test_passed
fi
"#
    );
    finish_problem(
        id,
        Category::KubernetesOther,
        description,
        None,
        labeled_reference,
        unit_test,
    )
}
