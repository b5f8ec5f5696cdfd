//! Simulated cluster networking: enough of `curl` to run the benchmark's
//! unit tests (hostPort probes, service VIPs, NodePorts, DNS names).

use yamlkit::Yaml;

use crate::cluster::{Cluster, PodView};
use crate::images::{self, ImageBehavior};
use crate::resources::Resource;

/// A successful HTTP exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code (200 for every simulated server).
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// Failure modes `curl` distinguishes by exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CurlError {
    /// Exit 6 — hostname did not resolve.
    CouldNotResolve,
    /// Exit 7 — nothing listening on the target port.
    ConnectionRefused,
    /// Exit 52 — connected, but the peer is not an HTTP server.
    EmptyReply,
    /// Exit 28 — timed out (unused by the default backends, reserved for
    /// fault injection).
    Timeout,
}

impl CurlError {
    /// The curl CLI exit code.
    pub fn exit_code(&self) -> i32 {
        match self {
            CurlError::CouldNotResolve => 6,
            CurlError::ConnectionRefused => 7,
            CurlError::EmptyReply => 52,
            CurlError::Timeout => 28,
        }
    }
}

/// Performs a simulated HTTP GET against the cluster network.
///
/// Supported targets: node IP + hostPort/NodePort, service cluster IPs,
/// LoadBalancer ingress IPs, service DNS (`svc`, `svc.ns`,
/// `svc.ns.svc.cluster.local`) and pod IPs.
///
/// # Errors
///
/// [`CurlError`] mirroring curl exit codes.
pub fn curl(cluster: &Cluster, url: &str) -> Result<HttpResponse, CurlError> {
    let (host, port, _path) = parse_url(url);

    // 1. Node IP / localhost: hostPort bindings and NodePort services.
    let is_node = cluster.nodes().iter().any(|n| n.ip == host)
        || host == "localhost"
        || host == "127.0.0.1"
        || host == "minikube";
    if is_node {
        if let Some(resp) = serve_host_port(cluster, port) {
            return resp;
        }
        if let Some(resp) = serve_node_port(cluster, port) {
            return resp;
        }
        return Err(CurlError::ConnectionRefused);
    }

    // 2. Service by cluster IP / LB IP / DNS name.
    if let Some(svc) = find_service(cluster, &host) {
        return serve_service(cluster, svc, port);
    }

    // 3. Pod IP.
    if let Some(pod) = cluster.pod_views().find(|p| p.ip.as_deref() == Some(&host)) {
        return serve_container(&pod, port);
    }

    if host.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        // Unknown IPs connect nowhere.
        return Err(CurlError::ConnectionRefused);
    }
    Err(CurlError::CouldNotResolve)
}

fn parse_url(url: &str) -> (String, u16, String) {
    let rest = url
        .trim()
        .trim_start_matches("http://")
        .trim_start_matches("https://");
    let (host_port, path) = match rest.find('/') {
        Some(i) => (&rest[..i], rest[i..].to_owned()),
        None => (rest, "/".to_owned()),
    };
    match host_port.rsplit_once(':') {
        Some((h, p)) => (h.to_owned(), p.parse().unwrap_or(80), path),
        None => (host_port.to_owned(), 80, path),
    }
}

fn serve_host_port(cluster: &Cluster, port: u16) -> Option<Result<HttpResponse, CurlError>> {
    for pod in cluster.pod_views() {
        if pod.phase != Some("Running") {
            continue;
        }
        for c in pod.pod.containers() {
            for p in c.get("ports").into_iter().flat_map(Yaml::items) {
                let host_port = p.get("hostPort").and_then(Yaml::as_i64);
                if host_port == Some(i64::from(port)) {
                    let target = p
                        .get("containerPort")
                        .and_then(Yaml::as_i64)
                        .unwrap_or(i64::from(port)) as u16;
                    return Some(serve_container(&pod, target));
                }
            }
        }
    }
    None
}

fn serve_node_port(cluster: &Cluster, port: u16) -> Option<Result<HttpResponse, CurlError>> {
    for svc in cluster.stored("Service") {
        let node_port = svc.status.get("nodePort").and_then(Yaml::as_i64);
        let declared: Vec<i64> = svc
            .body
            .get_path(&["spec", "ports"])
            .into_iter()
            .flat_map(Yaml::items)
            .filter_map(|p| p.get("nodePort").and_then(Yaml::as_i64))
            .collect();
        if node_port == Some(i64::from(port)) || declared.contains(&i64::from(port)) {
            let first_port = svc
                .body
                .get_path(&["spec", "ports"])
                .and_then(|p| p.idx(0))
                .and_then(|p| p.get("port"))
                .and_then(Yaml::as_i64)
                .unwrap_or(80) as u16;
            return Some(serve_service(cluster, svc, first_port));
        }
    }
    None
}

fn find_service<'a>(cluster: &'a Cluster, host: &str) -> Option<&'a Resource> {
    cluster.stored("Service").find(|r| {
        if r.status
            .get("clusterIP")
            .map(Yaml::render_scalar)
            .as_deref()
            == Some(host)
        {
            return true;
        }
        let lb = r
            .status
            .get_path(&["loadBalancer", "ingress"])
            .and_then(|i| i.idx(0))
            .and_then(|i| i.get("ip"))
            .map(Yaml::render_scalar);
        if lb.as_deref() == Some(host) {
            return true;
        }
        // DNS forms.
        let name = &r.name;
        let ns = &r.namespace;
        host == *name
            || host == format!("{name}.{ns}")
            || host == format!("{name}.{ns}.svc")
            || host == format!("{name}.{ns}.svc.cluster.local")
    })
}

fn serve_service(cluster: &Cluster, svc: &Resource, port: u16) -> Result<HttpResponse, CurlError> {
    let ports = svc.body.get_path(&["spec", "ports"]);
    let entry = ports
        .into_iter()
        .flat_map(Yaml::items)
        .find(|p| p.get("port").and_then(Yaml::as_i64) == Some(i64::from(port)))
        .ok_or(CurlError::ConnectionRefused)?;
    // Find a ready endpoint pod.
    let endpoints: Vec<String> = svc
        .status
        .get("endpoints")
        .into_iter()
        .flat_map(Yaml::items)
        .map(Yaml::render_scalar)
        .collect();
    let pod = cluster
        .pod_views()
        .find(|p| p.ip.as_ref().is_some_and(|ip| endpoints.contains(ip)))
        .ok_or(CurlError::ConnectionRefused)?;
    // Resolve targetPort: number, named container port, or the port itself.
    let target = match entry.get("targetPort") {
        Some(Yaml::Int(n)) => *n as u16,
        Some(Yaml::Str(name)) => pod
            .pod
            .containers()
            .iter()
            .flat_map(|c| {
                c.get("ports")
                    .into_iter()
                    .flat_map(Yaml::items)
                    .collect::<Vec<_>>()
            })
            .find(|p| p.get("name").and_then(Yaml::as_str) == Some(name))
            .and_then(|p| p.get("containerPort").and_then(Yaml::as_i64))
            .unwrap_or(i64::from(port)) as u16,
        _ => port,
    };
    serve_container(&pod, target)
}

/// Serves a request hitting a specific pod container port.
fn serve_container(pod: &PodView<'_>, port: u16) -> Result<HttpResponse, CurlError> {
    if pod.phase != Some("Running") {
        return Err(CurlError::ConnectionRefused);
    }
    for c in pod.pod.containers() {
        let image = c.get("image").map(Yaml::render_scalar).unwrap_or_default();
        let Some(info) = images::lookup(&image) else {
            continue;
        };
        match info.behavior {
            ImageBehavior::HttpServer { default_port } => {
                let declared: Vec<i64> = c
                    .get("ports")
                    .into_iter()
                    .flat_map(Yaml::items)
                    .filter_map(|p| p.get("containerPort").and_then(Yaml::as_i64))
                    .collect();
                // The server listens on its image's default port; declared
                // containerPorts are documentation, as in real Kubernetes.
                if port == default_port || declared.contains(&i64::from(port)) {
                    return Ok(HttpResponse {
                        status: 200,
                        body: info.http_body.to_owned(),
                    });
                }
            }
            ImageBehavior::TcpServer { default_port } => {
                if port == default_port {
                    return Err(CurlError::EmptyReply);
                }
            }
            ImageBehavior::Batch => {}
        }
    }
    Err(CurlError::ConnectionRefused)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster_with_nginx() -> Cluster {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n  labels:\n    app: nginx\nspec:\n  containers:\n  - name: c\n    image: nginx\n    ports:\n    - containerPort: 80\n      hostPort: 5000\n",
            "default",
        )
        .unwrap();
        c.advance(10_000);
        c
    }

    #[test]
    fn host_port_routes_to_container() {
        let c = cluster_with_nginx();
        let r = curl(&c, "192.168.49.2:5000").unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body.contains("nginx"));
    }

    #[test]
    fn unbound_port_refuses() {
        let c = cluster_with_nginx();
        assert_eq!(
            curl(&c, "192.168.49.2:9999"),
            Err(CurlError::ConnectionRefused)
        );
    }

    #[test]
    fn service_dns_and_cluster_ip() {
        let mut c = cluster_with_nginx();
        c.apply_manifest(
            "apiVersion: v1\nkind: Service\nmetadata:\n  name: web-svc\nspec:\n  selector:\n    app: nginx\n  ports:\n  - port: 8080\n    targetPort: 80\n",
            "default",
        )
        .unwrap();
        c.advance(3_000);
        assert_eq!(curl(&c, "http://web-svc:8080").unwrap().status, 200);
        assert_eq!(
            curl(&c, "web-svc.default.svc.cluster.local:8080")
                .unwrap()
                .status,
            200
        );
        let svc = c
            .get("Service", Some("default"), Some("web-svc"))
            .pop()
            .unwrap();
        let ip = svc
            .status
            .get("clusterIP")
            .map(yamlkit::Yaml::render_scalar)
            .unwrap();
        assert_eq!(curl(&c, &format!("{ip}:8080")).unwrap().status, 200);
        // Wrong service port refuses.
        assert!(curl(&c, "web-svc:9090").is_err());
    }

    #[test]
    fn named_target_port_resolves() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n  labels:\n    app: w\nspec:\n  containers:\n  - name: c\n    image: nginx\n    ports:\n    - name: http\n      containerPort: 80\n",
            "default",
        )
        .unwrap();
        c.apply_manifest(
            "apiVersion: v1\nkind: Service\nmetadata:\n  name: s\nspec:\n  selector:\n    app: w\n  ports:\n  - port: 80\n    targetPort: http\n",
            "default",
        )
        .unwrap();
        c.advance(10_000);
        assert_eq!(curl(&c, "s").unwrap().status, 200);
    }

    #[test]
    fn tcp_server_yields_empty_reply() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: db\nspec:\n  containers:\n  - name: c\n    image: redis\n",
            "default",
        )
        .unwrap();
        c.advance(10_000);
        let pod = c.get("Pod", Some("default"), Some("db")).pop().unwrap();
        let ip = pod
            .status
            .get("podIP")
            .map(yamlkit::Yaml::render_scalar)
            .unwrap();
        assert_eq!(curl(&c, &format!("{ip}:6379")), Err(CurlError::EmptyReply));
    }

    #[test]
    fn unknown_host_does_not_resolve() {
        let c = Cluster::new();
        assert_eq!(
            curl(&c, "http://no-such-host"),
            Err(CurlError::CouldNotResolve)
        );
        assert_eq!(CurlError::CouldNotResolve.exit_code(), 6);
    }
}
