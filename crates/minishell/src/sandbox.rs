//! The benchmark sandbox: external commands backed by the Kubernetes and
//! Envoy simulators. One sandbox = one isolated test environment, matching
//! the paper's per-problem clean-cluster guarantee (§2.1: "The test script
//! also includes a clean-up function ensuring the environment is reset
//! after each test").

use std::collections::HashMap;

use envoysim::{EnvoyConfig, RouteOutcome};
use kubesim::net::{curl, CurlError};
use kubesim::Cluster;
use yamlkit::Yaml;

use crate::interp::{ExecResult, Sandbox};

/// Sandbox hosting a fresh [`Cluster`] and optional Envoy proxy.
#[derive(Debug, Default)]
pub struct ClusterSandbox {
    /// The simulated Kubernetes cluster.
    pub cluster: Cluster,
    /// Loaded Envoy configuration (after `envoy -c file` / `envoy-start`).
    pub envoy: Option<EnvoyConfig>,
}

impl ClusterSandbox {
    /// Fresh sandbox with a new single-node cluster.
    pub fn new() -> ClusterSandbox {
        ClusterSandbox {
            cluster: Cluster::new(),
            envoy: None,
        }
    }

    fn run_curl(&mut self, args: &[String], files: &mut HashMap<String, String>) -> ExecResult {
        let mut silent = false;
        let mut out_file: Option<String> = None;
        let mut write_format: Option<String> = None;
        let mut url: Option<String> = None;
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            match a {
                "-s" | "--silent" | "-L" | "--location" | "-k" | "--insecure" | "-f" | "--fail"
                | "-I" | "--head" | "-4" | "-6" | "-v" => {
                    silent |= a == "-s" || a == "--silent";
                }
                "-o" | "--output" => {
                    i += 1;
                    out_file = args.get(i).cloned();
                }
                "-w" | "--write-out" => {
                    i += 1;
                    write_format = args.get(i).cloned();
                }
                "-m" | "--max-time" | "--connect-timeout" | "-H" | "--header" | "-X"
                | "--request" | "-d" | "--data" | "--retry" => {
                    i += 1; // consume the value
                }
                _ if a.starts_with('-') => {}
                _ => url = Some(a.to_owned()),
            }
            i += 1;
        }
        let Some(url) = url else {
            return ExecResult {
                stderr: "curl: no URL specified\n".into(),
                code: 2,
                ..Default::default()
            };
        };
        // A loaded Envoy config owns localhost listener ports.
        if let Some(status_body) = self.try_envoy(&url) {
            return render_curl(status_body, silent, out_file, write_format, files);
        }
        let result = curl(&self.cluster, &url).map(|resp| (resp.status, resp.body));
        render_curl(result, silent, out_file, write_format, files)
    }

    /// Routes a URL through the loaded Envoy config when the host/port is
    /// one of its listeners.
    fn try_envoy(&self, url: &str) -> Option<Result<(u16, String), CurlError>> {
        let envoy = self.envoy.as_ref()?;
        let rest = url
            .trim_start_matches("http://")
            .trim_start_matches("https://");
        let (host_port, path) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        let (host, port) = match host_port.rsplit_once(':') {
            Some((h, p)) => (h, p.parse().unwrap_or(80u16)),
            None => (host_port, 80),
        };
        if !matches!(host, "localhost" | "127.0.0.1" | "0.0.0.0") {
            return None;
        }
        if !envoy.listeners.iter().any(|l| l.port == port) {
            return None;
        }
        Some(match envoy.route(port, host, path) {
            RouteOutcome::Cluster(name) => {
                // An upstream cluster answers 200 with a recognizable body.
                Ok((200, format!("upstream: {name}\n")))
            }
            RouteOutcome::DirectResponse(status, body) => Ok((status, body)),
            RouteOutcome::Redirect(to) => Ok((301, format!("redirect: {to}\n"))),
            RouteOutcome::NotFound => Ok((404, "not found\n".into())),
            RouteOutcome::NoListener => Err(CurlError::ConnectionRefused),
        })
    }

    fn run_minikube(&mut self, args: &[String]) -> ExecResult {
        match args.first().map(String::as_str) {
            Some("service") => {
                let mut name: Option<String> = None;
                let mut namespace = "default".to_owned();
                let mut url_mode = false;
                let mut i = 1;
                while i < args.len() {
                    match args[i].as_str() {
                        "-n" | "--namespace" => {
                            i += 1;
                            namespace = args.get(i).cloned().unwrap_or_default();
                        }
                        "--url" => url_mode = true,
                        a if !a.starts_with('-') => name = Some(a.to_owned()),
                        _ => {}
                    }
                    i += 1;
                }
                let Some(name) = name else {
                    return ExecResult {
                        stderr: "usage: minikube service NAME\n".into(),
                        code: 64,
                        ..Default::default()
                    };
                };
                let Some(svc) = self
                    .cluster
                    .get("Service", Some(&namespace), Some(&name))
                    .pop()
                else {
                    return ExecResult {
                        stderr: format!(
                            "service '{name}' was not found in '{namespace}' namespace\n"
                        ),
                        code: 80,
                        ..Default::default()
                    };
                };
                let node_port = svc
                    .status
                    .get("nodePort")
                    .and_then(Yaml::as_i64)
                    .unwrap_or(30000);
                if url_mode {
                    return ExecResult {
                        stdout: format!("http://192.168.49.2:{node_port}\n"),
                        ..Default::default()
                    };
                }
                let mut out = String::new();
                out.push_str(&format!(
                    "|-----------|{name}|-------------|---------------------------|\n"
                ));
                out.push_str(&format!("* Starting tunnel for service {name}.\n"));
                out.push_str(&format!(
                    "* Opening service {namespace}/{name} in default browser...\n"
                ));
                // Holding the tunnel open blocks until interrupted.
                ExecResult {
                    stdout: out,
                    blocking: true,
                    ..Default::default()
                }
            }
            other => ExecResult {
                stderr: format!("minikube: unknown command {other:?}\n"),
                code: 64,
                ..Default::default()
            },
        }
    }

    fn run_envoy(&mut self, args: &[String], files: &HashMap<String, String>) -> ExecResult {
        let mut config_file: Option<String> = None;
        let mut validate = false;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "-c" | "--config-path" => {
                    i += 1;
                    config_file = args.get(i).cloned();
                }
                "--mode" => {
                    i += 1;
                    validate = args.get(i).map(String::as_str) == Some("validate");
                }
                _ => {}
            }
            i += 1;
        }
        let Some(file) = config_file else {
            return ExecResult {
                stderr: "envoy: missing -c\n".into(),
                code: 1,
                ..Default::default()
            };
        };
        let Some(content) = files.get(&file) else {
            return ExecResult {
                stderr: format!("envoy: unable to read file: {file}\n"),
                code: 1,
                ..Default::default()
            };
        };
        match EnvoyConfig::parse(content) {
            Ok(cfg) => {
                if validate {
                    ExecResult {
                        stdout: format!("configuration '{file}' OK\n"),
                        ..Default::default()
                    }
                } else {
                    self.envoy = Some(cfg);
                    // A foreground proxy blocks; tests use `envoy-start` or
                    // `timeout` to background it.
                    ExecResult {
                        stdout: "starting main dispatch loop\n".into(),
                        blocking: true,
                        ..Default::default()
                    }
                }
            }
            Err(e) => ExecResult {
                stderr: format!("{e}\n"),
                code: 1,
                ..Default::default()
            },
        }
    }
}

fn render_curl(
    result: Result<(u16, String), CurlError>,
    silent: bool,
    out_file: Option<String>,
    write_format: Option<String>,
    files: &mut HashMap<String, String>,
) -> ExecResult {
    match result {
        Ok((status, body)) => {
            let mut stdout = String::new();
            match out_file {
                Some(f) if f == "/dev/null" => {}
                Some(f) => {
                    files.insert(f, body);
                }
                None => stdout.push_str(&body),
            }
            if let Some(fmt) = write_format {
                stdout.push_str(&fmt.replace("%{http_code}", &status.to_string()));
            }
            ExecResult {
                stdout,
                ..Default::default()
            }
        }
        Err(e) => {
            let mut stdout = String::new();
            if let Some(fmt) = write_format {
                stdout.push_str(&fmt.replace("%{http_code}", "000"));
            }
            let stderr = if silent {
                String::new()
            } else {
                match &e {
                    CurlError::CouldNotResolve => "curl: (6) Could not resolve host\n".to_owned(),
                    CurlError::ConnectionRefused => "curl: (7) Failed to connect\n".to_owned(),
                    CurlError::EmptyReply => "curl: (52) Empty reply from server\n".to_owned(),
                    CurlError::Timeout => "curl: (28) Operation timed out\n".to_owned(),
                }
            };
            ExecResult {
                stdout,
                stderr,
                code: e.exit_code(),
                blocking: false,
            }
        }
    }
}

impl Sandbox for ClusterSandbox {
    fn run(
        &mut self,
        name: &str,
        args: &[String],
        stdin: &str,
        files: &mut HashMap<String, String>,
    ) -> Option<ExecResult> {
        match name {
            "kubectl" => {
                let resolver = |f: &str| files.get(f).cloned();
                let r = kubesim::kubectl::run(&mut self.cluster, args, stdin, &resolver);
                Some(ExecResult {
                    stdout: r.stdout,
                    stderr: r.stderr,
                    code: r.code,
                    blocking: false,
                })
            }
            "curl" => Some(self.run_curl(args, files)),
            "minikube" => Some(self.run_minikube(args)),
            "envoy" => Some(self.run_envoy(args, files)),
            "envoy-start" => {
                // Non-blocking variant used by the generated unit tests.
                let mut r = self.run_envoy(args, files);
                if r.blocking {
                    r.blocking = false;
                    r.stdout = "envoy started\n".into();
                }
                Some(r)
            }
            "istioctl" => {
                match args.first().map(String::as_str) {
                    // Applied Istio resources have already passed strict
                    // schema validation, so analyze always reports clean.
                    Some("analyze") => Some(ExecResult {
                        stdout: "\u{2714} No validation issues found when analyzing namespace: default.\n".into(),
                        ..Default::default()
                    }),
                    _ => Some(ExecResult {
                        stderr: "istioctl: unknown command\n".into(),
                        code: 64,
                        ..Default::default()
                    }),
                }
            }
            _ => None,
        }
    }

    fn sleep(&mut self, ms: u64) {
        self.cluster.advance(ms);
    }
}
