//! The `kubectl` command facade used by unit-test scripts.
//!
//! [`run`] takes an argv (without the leading `kubectl`), a stdin string
//! (for `-f -`) and a file resolver, executes against a [`Cluster`], and
//! returns stdout/stderr/exit-code the way the CLI would.

use yamlkit::path::render_template;
use yamlkit::Yaml;

use crate::cluster::{Cluster, ClusterError};
use crate::resources::{canonical_kind, is_cluster_scoped, Resource};
use crate::selector::Selector;

/// Outcome of a kubectl invocation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KubectlResult {
    /// Standard output.
    pub stdout: String,
    /// Standard error.
    pub stderr: String,
    /// Process exit code (0 = success).
    pub code: i32,
}

impl KubectlResult {
    fn ok(stdout: impl Into<String>) -> Self {
        KubectlResult {
            stdout: stdout.into(),
            stderr: String::new(),
            code: 0,
        }
    }

    fn err(stderr: impl Into<String>, code: i32) -> Self {
        KubectlResult {
            stdout: String::new(),
            stderr: stderr.into(),
            code,
        }
    }
}

/// Parsed common flags.
#[derive(Debug, Default)]
struct Flags {
    namespace: Option<String>,
    all_namespaces: bool,
    selector: Option<String>,
    output: Option<String>,
    filename: Option<String>,
    timeout_ms: Option<u64>,
    wait_for: Option<String>,
    all: bool,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("flag needs an argument: {a}"))
        };
        match a {
            "-n" | "--namespace" => f.namespace = Some(take_value(&mut i)?),
            _ if a.starts_with("--namespace=") => {
                f.namespace = Some(a["--namespace=".len()..].to_owned())
            }
            "-A" | "--all-namespaces" => f.all_namespaces = true,
            "-l" | "--selector" => f.selector = Some(take_value(&mut i)?),
            _ if a.starts_with("--selector=") => {
                f.selector = Some(a["--selector=".len()..].to_owned())
            }
            _ if a.starts_with("-l") && a.len() > 2 => f.selector = Some(a[2..].to_owned()),
            "-o" | "--output" => f.output = Some(take_value(&mut i)?),
            _ if a.starts_with("--output=") => f.output = Some(a["--output=".len()..].to_owned()),
            _ if a.starts_with("-o=") => f.output = Some(a[3..].to_owned()),
            _ if a.starts_with("-o") && a.len() > 2 => f.output = Some(a[2..].to_owned()),
            "-f" | "--filename" => f.filename = Some(take_value(&mut i)?),
            _ if a.starts_with("--filename=") => {
                f.filename = Some(a["--filename=".len()..].to_owned())
            }
            _ if a.starts_with("-f=") => f.filename = Some(a[3..].to_owned()),
            _ if a.starts_with("--timeout=") => {
                f.timeout_ms = Some(parse_duration_ms(&a["--timeout=".len()..])?)
            }
            _ if a.starts_with("--for=") => f.wait_for = Some(a["--for=".len()..].to_owned()),
            "--all" => f.all = true,
            // Other long flags (`--record`, `--overwrite`, ...) are
            // accepted and ignored.
            _ if a.starts_with("--") => {}
            _ => f.positional.push(a.to_owned()),
        }
        i += 1;
    }
    Ok(f)
}

/// Parses `60s`, `2m`, `1500ms`, `1h`.
fn parse_duration_ms(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1000)
    } else if let Some(n) = s.strip_suffix('m') {
        (n, 60_000)
    } else if let Some(n) = s.strip_suffix('h') {
        (n, 3_600_000)
    } else {
        (s, 1000)
    };
    num.parse::<f64>()
        .map(|v| (v * mult as f64) as u64)
        .map_err(|_| format!("invalid duration {s:?}"))
}

/// Executes a kubectl command line.
///
/// `resolve_file` maps `-f` names to contents (the test sandbox's virtual
/// filesystem); `stdin` backs `-f -`.
pub fn run(
    cluster: &mut Cluster,
    args: &[String],
    stdin: &str,
    resolve_file: &dyn Fn(&str) -> Option<String>,
) -> KubectlResult {
    let Some(verb) = args.first().map(String::as_str) else {
        return KubectlResult::err("error: kubectl requires a subcommand", 1);
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => return KubectlResult::err(format!("error: {e}"), 1),
    };
    let ns = flags
        .namespace
        .clone()
        .unwrap_or_else(|| "default".to_owned());
    match verb {
        "apply" | "create" if flags.filename.is_some() => {
            let file = flags.filename.as_deref().expect("checked");
            let content = if file == "-" {
                Some(stdin.to_owned())
            } else {
                resolve_file(file)
            };
            let Some(content) = content else {
                return KubectlResult::err(format!("error: the path \"{file}\" does not exist"), 1);
            };
            match cluster.apply_manifest(&content, &ns) {
                Ok(messages) => KubectlResult::ok(messages.join("\n") + "\n"),
                Err(e) => render_apply_error(file, &e),
            }
        }
        "create" => create_namespace(cluster, &flags),
        "delete" => delete_cmd(cluster, &flags, &ns, stdin, resolve_file),
        "get" => get_cmd(cluster, &flags, &ns),
        "wait" => wait_cmd(cluster, &flags, &ns),
        "describe" => describe_cmd(cluster, &flags, &ns),
        "logs" => logs_cmd(cluster, &flags, &ns),
        "rollout" => rollout_cmd(cluster, &flags, &ns),
        "exec" => exec_cmd(cluster, &args[1..]),
        other => KubectlResult::err(format!("error: unknown command \"{other}\""), 1),
    }
}

fn render_apply_error(file: &str, e: &ClusterError) -> KubectlResult {
    let msg = match e {
        ClusterError::Decoding(..) => {
            format!("Error from server (BadRequest): error when creating \"{file}\": {e}")
        }
        ClusterError::NoKindMatch(..) => {
            format!("error: unable to recognize \"{file}\": {e}")
        }
        ClusterError::NamespaceNotFound(_) => {
            format!("Error from server (NotFound): error when creating \"{file}\": {e}")
        }
        ClusterError::Invalid(m) => format!("The request is invalid: {m}"),
        ClusterError::AlreadyExists(what) => {
            format!("Error from server (AlreadyExists): {what} already exists")
        }
        ClusterError::NotFound(what) => format!("Error from server (NotFound): {what}"),
        ClusterError::Forbidden(_) => {
            format!("Error from server (Forbidden): error when creating \"{file}\": {e}")
        }
    };
    KubectlResult::err(msg, 1)
}

fn create_namespace(cluster: &mut Cluster, flags: &Flags) -> KubectlResult {
    match flags.positional.first().map(String::as_str) {
        Some("namespace") | Some("ns") => {
            let Some(name) = flags.positional.get(1) else {
                return KubectlResult::err("error: namespace name required", 1);
            };
            match cluster.create_namespace(name) {
                Ok(()) => KubectlResult::ok(format!("namespace/{name} created\n")),
                Err(e) => KubectlResult::err(format!("Error from server (AlreadyExists): {e}"), 1),
            }
        }
        Some(other) => KubectlResult::err(format!("error: unknown create target {other:?}"), 1),
        None => KubectlResult::err("error: create requires -f or a resource", 1),
    }
}

fn delete_cmd(
    cluster: &mut Cluster,
    flags: &Flags,
    ns: &str,
    stdin: &str,
    resolve_file: &dyn Fn(&str) -> Option<String>,
) -> KubectlResult {
    if let Some(file) = &flags.filename {
        let content = if file == "-" {
            Some(stdin.to_owned())
        } else {
            resolve_file(file)
        };
        let Some(content) = content else {
            return KubectlResult::err(format!("error: the path \"{file}\" does not exist"), 1);
        };
        let Ok(docs) = yamlkit::parse(&content) else {
            return KubectlResult::err("error: error parsing manifest", 1);
        };
        let mut out = String::new();
        for d in docs {
            let v = d.to_value();
            let kind = v.get("kind").map(Yaml::render_scalar).unwrap_or_default();
            let name = v
                .get_path(&["metadata", "name"])
                .map(Yaml::render_scalar)
                .unwrap_or_default();
            let target_ns = v
                .get_path(&["metadata", "namespace"])
                .map(Yaml::render_scalar)
                .unwrap_or_else(|| ns.to_owned());
            if let Ok(msg) = cluster.delete(&kind, &target_ns, &name) {
                out.push_str(&msg);
                out.push('\n');
            }
        }
        return KubectlResult::ok(out);
    }
    let Some(resource_arg) = flags.positional.first() else {
        return KubectlResult::err("error: resource type required", 1);
    };
    // `kubectl delete pod/name` and `kubectl delete pod name ...`.
    let mut targets: Vec<(String, String)> = Vec::new();
    if let Some((k, n)) = resource_arg.split_once('/') {
        targets.push((k.to_owned(), n.to_owned()));
    } else if flags.all {
        let kind = resource_arg.clone();
        for r in cluster.get(&kind, Some(ns), None) {
            targets.push((kind.clone(), r.name));
        }
    } else {
        for name in &flags.positional[1..] {
            targets.push((resource_arg.clone(), name.clone()));
        }
    }
    if targets.is_empty() {
        return KubectlResult::err("error: no resources to delete", 1);
    }
    let mut out = String::new();
    for (kind, name) in targets {
        match cluster.delete(&kind, ns, &name) {
            Ok(msg) => {
                out.push_str(&msg);
                out.push('\n');
            }
            Err(e) => return KubectlResult::err(format!("Error from server (NotFound): {e}"), 1),
        }
    }
    KubectlResult::ok(out)
}

fn lookup_resources(
    cluster: &Cluster,
    flags: &Flags,
    ns: &str,
) -> Result<(String, Vec<Resource>), KubectlResult> {
    let Some(resource_arg) = flags.positional.first() else {
        return Err(KubectlResult::err("error: resource type required", 1));
    };
    let (kind_arg, name_from_slash) = match resource_arg.split_once('/') {
        Some((k, n)) => (k.to_owned(), Some(n.to_owned())),
        None => (resource_arg.clone(), None),
    };
    let Some(kind) = canonical_kind(&kind_arg) else {
        return Err(KubectlResult::err(
            format!("error: the server doesn't have a resource type \"{kind_arg}\""),
            1,
        ));
    };
    let name = name_from_slash.or_else(|| flags.positional.get(1).cloned());
    let namespace = if flags.all_namespaces || is_cluster_scoped(kind) {
        None
    } else {
        Some(ns)
    };
    let selector = flags
        .selector
        .as_deref()
        .map(Selector::parse_cli)
        .transpose()
        .map_err(|e| KubectlResult::err(format!("error: {e}"), 1))?;
    let resources = cluster.get_matching(kind, namespace, name.as_deref(), selector.as_ref());
    if let Some(n) = &name {
        if resources.is_empty() {
            return Err(KubectlResult::err(
                format!(
                    "Error from server (NotFound): {}.\"{n}\" not found",
                    kind.to_lowercase()
                ),
                1,
            ));
        }
    }
    Ok((kind.to_owned(), resources))
}

fn get_cmd(cluster: &mut Cluster, flags: &Flags, ns: &str) -> KubectlResult {
    let (kind, resources) = match lookup_resources(cluster, flags, ns) {
        Ok(r) => r,
        Err(e) => return e,
    };
    let single_named = flags.positional.len() > 1 || flags.positional[0].contains('/');
    match flags.output.as_deref() {
        Some(o) if o.starts_with("jsonpath") => {
            let template = o.trim_start_matches("jsonpath=").to_owned();
            let root = if single_named && resources.len() == 1 {
                resources[0].to_yaml()
            } else {
                items_wrapper(&resources)
            };
            match render_template(trim_quotes(&template), &root) {
                Ok(s) => KubectlResult::ok(s),
                Err(e) => KubectlResult::err(format!("error: {e}"), 1),
            }
        }
        Some("json") => {
            let root = if single_named && resources.len() == 1 {
                resources[0].to_yaml()
            } else {
                items_wrapper(&resources)
            };
            KubectlResult::ok(yamlkit::json::to_json_pretty(&root))
        }
        Some("yaml") => {
            let docs: Vec<Yaml> = resources.iter().map(Resource::to_yaml).collect();
            if single_named && docs.len() == 1 {
                KubectlResult::ok(yamlkit::emit(&docs[0]))
            } else {
                KubectlResult::ok(yamlkit::emit(&items_wrapper(&resources)))
            }
        }
        Some("name") => {
            let names: Vec<String> = resources
                .iter()
                .map(|r| format!("{}/{}", r.kind.to_lowercase(), r.name))
                .collect();
            KubectlResult::ok(names.join("\n") + if names.is_empty() { "" } else { "\n" })
        }
        Some("wide") | None => {
            if resources.is_empty() {
                return KubectlResult {
                    stdout: String::new(),
                    stderr: format!("No resources found in {ns} namespace.\n"),
                    code: 0,
                };
            }
            KubectlResult::ok(render_table(&kind, &resources, cluster.now_ms()))
        }
        Some(other) => KubectlResult::err(format!("error: unknown output format {other:?}"), 1),
    }
}

fn trim_quotes(s: &str) -> &str {
    let s = s.trim();
    if (s.starts_with('\'') && s.ends_with('\'') && s.len() >= 2)
        || (s.starts_with('"') && s.ends_with('"') && s.len() >= 2)
    {
        &s[1..s.len() - 1]
    } else {
        s
    }
}

fn items_wrapper(resources: &[Resource]) -> Yaml {
    yamlkit::ymap! {
        "apiVersion" => "v1",
        "kind" => "List",
        "items" => Yaml::Seq(resources.iter().map(Resource::to_yaml).collect()),
    }
}

fn age_str(created: u64, now: u64) -> String {
    let secs = now.saturating_sub(created) / 1000;
    if secs < 120 {
        format!("{secs}s")
    } else if secs < 7200 {
        format!("{}m", secs / 60)
    } else {
        format!("{}h", secs / 3600)
    }
}

fn render_table(kind: &str, resources: &[Resource], now: u64) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let header: Vec<&str> = match kind {
        "Pod" => vec!["NAME", "READY", "STATUS", "RESTARTS", "AGE"],
        "Service" => vec![
            "NAME",
            "TYPE",
            "CLUSTER-IP",
            "EXTERNAL-IP",
            "PORT(S)",
            "AGE",
        ],
        "Deployment" | "StatefulSet" => vec!["NAME", "READY", "UP-TO-DATE", "AVAILABLE", "AGE"],
        "Job" => vec!["NAME", "COMPLETIONS", "DURATION", "AGE"],
        "Namespace" => vec!["NAME", "STATUS", "AGE"],
        _ => vec!["NAME", "AGE"],
    };
    for r in resources {
        let age = age_str(r.created_at_ms, now);
        let row = match kind {
            "Pod" => {
                let total = r.containers().len().max(1);
                let ready = if r.condition("Ready") == Some(true) {
                    total
                } else {
                    0
                };
                let phase = r
                    .status
                    .get("phase")
                    .map(Yaml::render_scalar)
                    .unwrap_or_else(|| "Pending".into());
                let status = r
                    .status
                    .get("containerStatuses")
                    .and_then(|s| s.idx(0))
                    .and_then(|c| c.get_path(&["state", "waiting", "reason"]))
                    .map(Yaml::render_scalar)
                    .unwrap_or(phase);
                vec![
                    r.name.clone(),
                    format!("{ready}/{total}"),
                    status,
                    "0".into(),
                    age,
                ]
            }
            "Service" => {
                let svc_type = r
                    .body
                    .get_path(&["spec", "type"])
                    .map(Yaml::render_scalar)
                    .unwrap_or_else(|| "ClusterIP".into());
                let cluster_ip = r
                    .status
                    .get("clusterIP")
                    .map(Yaml::render_scalar)
                    .unwrap_or_else(|| "None".into());
                let external = r
                    .status
                    .get_path(&["loadBalancer", "ingress"])
                    .and_then(|i| i.idx(0))
                    .and_then(|i| i.get("ip"))
                    .map(Yaml::render_scalar)
                    .unwrap_or_else(|| {
                        if svc_type == "LoadBalancer" {
                            "<pending>".into()
                        } else {
                            "<none>".into()
                        }
                    });
                let ports: Vec<String> = r
                    .body
                    .get_path(&["spec", "ports"])
                    .into_iter()
                    .flat_map(Yaml::items)
                    .map(|p| {
                        let port = p.get("port").map(Yaml::render_scalar).unwrap_or_default();
                        let proto = p
                            .get("protocol")
                            .map(Yaml::render_scalar)
                            .unwrap_or_else(|| "TCP".into());
                        match r.status.get("nodePort").map(Yaml::render_scalar) {
                            Some(np) if svc_type != "ClusterIP" => format!("{port}:{np}/{proto}"),
                            _ => format!("{port}/{proto}"),
                        }
                    })
                    .collect();
                vec![
                    r.name.clone(),
                    svc_type,
                    cluster_ip,
                    external,
                    ports.join(","),
                    age,
                ]
            }
            "Deployment" | "StatefulSet" => {
                let desired = r.replicas();
                let ready = r
                    .status
                    .get("readyReplicas")
                    .and_then(Yaml::as_i64)
                    .unwrap_or(0);
                vec![
                    r.name.clone(),
                    format!("{ready}/{desired}"),
                    desired.to_string(),
                    ready.to_string(),
                    age,
                ]
            }
            "Job" => {
                let succeeded = r
                    .status
                    .get("succeeded")
                    .and_then(Yaml::as_i64)
                    .unwrap_or(0);
                let completions = r
                    .body
                    .get_path(&["spec", "completions"])
                    .and_then(Yaml::as_i64)
                    .unwrap_or(1);
                vec![
                    r.name.clone(),
                    format!("{succeeded}/{completions}"),
                    "10s".into(),
                    age,
                ]
            }
            "Namespace" => vec![r.name.clone(), "Active".into(), age],
            _ => vec![r.name.clone(), age],
        };
        rows.push(row);
    }
    format_columns(&header, &rows)
}

fn format_columns(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<&str>, out: &mut String, widths: &[usize]| {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(cell);
            if i + 1 < cells.len() {
                for _ in cell.len()..widths[i] + 3 {
                    out.push(' ');
                }
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    render_row(header.to_vec(), &mut out, &widths);
    for row in rows {
        render_row(row.iter().map(String::as_str).collect(), &mut out, &widths);
    }
    out
}

fn wait_cmd(cluster: &mut Cluster, flags: &Flags, ns: &str) -> KubectlResult {
    let Some(wait_for) = &flags.wait_for else {
        return KubectlResult::err("error: --for is required", 1);
    };
    let timeout = flags.timeout_ms.unwrap_or(30_000);
    let deadline = cluster.now_ms() + timeout;
    let for_delete = wait_for == "delete";
    let condition = wait_for
        .strip_prefix("condition=")
        .map(|c| c.split('=').next().unwrap_or(c).to_owned());
    loop {
        let (_, resources) = match lookup_resources(cluster, flags, ns) {
            Ok(r) => r,
            Err(e) => {
                if for_delete {
                    return KubectlResult::ok("");
                }
                // Not-found targets may appear later (e.g. wait for pods of
                // a deployment still rolling out); keep polling.
                if cluster.now_ms() >= deadline {
                    return e;
                }
                advance_to_next_poll(cluster, deadline);
                continue;
            }
        };
        if for_delete {
            if resources.is_empty() {
                return KubectlResult::ok("");
            }
        } else if let Some(cond) = &condition {
            if !resources.is_empty() {
                let satisfied = resources.iter().all(|r| condition_met(r, cond));
                if satisfied {
                    let lines: Vec<String> = resources
                        .iter()
                        .map(|r| format!("{}/{} condition met", r.kind.to_lowercase(), r.name))
                        .collect();
                    return KubectlResult::ok(lines.join("\n") + "\n");
                }
            }
        } else {
            return KubectlResult::err(format!("error: unsupported --for {wait_for:?}"), 1);
        }
        if cluster.now_ms() >= deadline {
            return KubectlResult::err(
                format!(
                    "error: timed out waiting for the condition on {}",
                    flags.positional.first().cloned().unwrap_or_default()
                ),
                1,
            );
        }
        advance_to_next_poll(cluster, deadline);
    }
}

/// Simulated time between two polls of `wait` and `rollout status`.
const POLL_MS: u64 = 500;

/// Advances to the next poll that can see a different cluster. A poll
/// before [`Cluster::next_event_ms`] would see what the last poll saw,
/// so it is skipped; the clock lands on the same 500 ms poll grid, and
/// never past the first poll at or after `deadline`, where the caller
/// times out.
fn advance_to_next_poll(cluster: &mut Cluster, deadline: u64) {
    let now = cluster.now_ms();
    let until = cluster.next_event_ms().min(deadline);
    let polls = until.saturating_sub(now).div_ceil(POLL_MS).max(1);
    cluster.advance(polls.saturating_mul(POLL_MS));
}

/// Case-insensitive condition check with the aliases kubectl accepts.
fn condition_met(r: &Resource, cond: &str) -> bool {
    let canonical = match cond.to_lowercase().as_str() {
        "ready" => "Ready",
        "available" => "Available",
        "complete" | "completed" => "Complete",
        "progressing" => "Progressing",
        "synced" => "SYNCED",
        "reconciled" => "Reconciled",
        "initialized" => "Initialized",
        "containersready" => "ContainersReady",
        "podscheduled" => "PodScheduled",
        other => {
            return r.condition(other) == Some(true)
                || r.condition(&other.to_uppercase()) == Some(true);
        }
    };
    r.condition(canonical) == Some(true)
}

fn describe_cmd(cluster: &mut Cluster, flags: &Flags, ns: &str) -> KubectlResult {
    let (kind, resources) = match lookup_resources(cluster, flags, ns) {
        Ok(r) => r,
        Err(e) => return e,
    };
    if resources.is_empty() {
        return KubectlResult::err(format!("No resources found in {ns} namespace."), 1);
    }
    let mut out = String::new();
    for r in &resources {
        out.push_str(&describe_resource(&kind, r));
        out.push('\n');
    }
    KubectlResult::ok(out)
}

fn describe_resource(kind: &str, r: &Resource) -> String {
    let mut out = String::new();
    out.push_str(&format!("Name:             {}\n", r.name));
    if !r.namespace.is_empty() {
        out.push_str(&format!("Namespace:        {}\n", r.namespace));
    }
    if !r.labels.is_empty() {
        let labels: Vec<String> = r.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        out.push_str(&format!("Labels:           {}\n", labels.join(",")));
    }
    if let Some(annotations) = r.body.get_path(&["metadata", "annotations"]) {
        let list: Vec<String> = annotations
            .entries()
            .map(|(k, v)| format!("{k}: {}", v.render_scalar()))
            .collect();
        out.push_str(&format!("Annotations:      {}\n", list.join(", ")));
    }
    match kind {
        "Ingress" => {
            out.push_str("Rules:\n  Host        Path  Backends\n  ----        ----  --------\n");
            for rule in r
                .body
                .get_path(&["spec", "rules"])
                .into_iter()
                .flat_map(Yaml::items)
            {
                let host = rule
                    .get("host")
                    .map(Yaml::render_scalar)
                    .unwrap_or_else(|| "*".into());
                for p in rule
                    .get_path(&["http", "paths"])
                    .into_iter()
                    .flat_map(Yaml::items)
                {
                    let path = p
                        .get("path")
                        .map(Yaml::render_scalar)
                        .unwrap_or_else(|| "/".into());
                    let svc = p
                        .get_path(&["backend", "service", "name"])
                        .map(Yaml::render_scalar)
                        .unwrap_or_default();
                    let port = p
                        .get_path(&["backend", "service", "port", "number"])
                        .or_else(|| p.get_path(&["backend", "service", "port", "name"]))
                        .map(Yaml::render_scalar)
                        .unwrap_or_default();
                    out.push_str(&format!(
                        "  {host}        {path}     {svc}:{port} (10.244.0.5:{port})\n"
                    ));
                }
            }
        }
        "Pod" => {
            out.push_str(&format!(
                "Status:           {}\n",
                r.status
                    .get("phase")
                    .map(Yaml::render_scalar)
                    .unwrap_or_default()
            ));
            out.push_str(&format!(
                "IP:               {}\n",
                r.status
                    .get("podIP")
                    .map(Yaml::render_scalar)
                    .unwrap_or_default()
            ));
            out.push_str("Containers:\n");
            for c in r.containers() {
                out.push_str(&format!(
                    "  {}:\n    Image:          {}\n",
                    c.get("name").map(Yaml::render_scalar).unwrap_or_default(),
                    c.get("image").map(Yaml::render_scalar).unwrap_or_default()
                ));
                if let Some(res) = c.get("resources") {
                    for section in ["limits", "requests"] {
                        if let Some(vals) = res.get(section) {
                            let list: Vec<String> = vals
                                .entries()
                                .map(|(k, v)| format!("{k}: {}", v.render_scalar()))
                                .collect();
                            out.push_str(&format!("    {section}: {}\n", list.join(", ")));
                        }
                    }
                }
            }
        }
        "Service" => {
            out.push_str(&format!(
                "Type:             {}\n",
                r.body
                    .get_path(&["spec", "type"])
                    .map(Yaml::render_scalar)
                    .unwrap_or_else(|| "ClusterIP".into())
            ));
            out.push_str(&format!(
                "IP:               {}\n",
                r.status
                    .get("clusterIP")
                    .map(Yaml::render_scalar)
                    .unwrap_or_default()
            ));
            let endpoints: Vec<String> = r
                .status
                .get("endpoints")
                .into_iter()
                .flat_map(Yaml::items)
                .map(Yaml::render_scalar)
                .collect();
            out.push_str(&format!("Endpoints:        {}\n", endpoints.join(",")));
        }
        _ => {
            out.push_str(&yamlkit::emit(&r.to_yaml()));
        }
    }
    out
}

fn logs_cmd(cluster: &mut Cluster, flags: &Flags, ns: &str) -> KubectlResult {
    let name = match flags.positional.first() {
        Some(n) => n.trim_start_matches("pod/").to_owned(),
        None => {
            // `kubectl logs -l app=x` uses selector.
            String::new()
        }
    };
    let pods = if name.is_empty() {
        let sel = flags
            .selector
            .as_deref()
            .and_then(|s| Selector::parse_cli(s).ok())
            .unwrap_or_default();
        cluster.select("Pod", Some(ns), &sel)
    } else {
        cluster.get("Pod", Some(ns), Some(&name))
    };
    if pods.is_empty() {
        return KubectlResult::err(
            format!("Error from server (NotFound): pods \"{name}\" not found"),
            1,
        );
    }
    let mut out = String::new();
    for pod in &pods {
        out.push_str(&pod_logs(pod));
    }
    KubectlResult::ok(out)
}

/// Synthesizes logs: echo commands print their arguments, servers print an
/// access-log line.
fn pod_logs(pod: &Resource) -> String {
    let mut out = String::new();
    for c in pod.containers() {
        let mut words: Vec<String> = Vec::new();
        for field in ["command", "args"] {
            if let Some(list) = c.get(field) {
                words.extend(list.items().map(Yaml::render_scalar));
            }
        }
        if let Some(pos) = words.iter().position(|w| w == "echo") {
            out.push_str(&words[pos + 1..].join(" "));
            out.push('\n');
        } else if words.iter().any(|w| w.contains("print")) {
            // perl/python one-liners print something deterministic.
            out.push_str("3.14159\n");
        } else {
            let image = c.get("image").map(Yaml::render_scalar).unwrap_or_default();
            if crate::images::lookup(&image).is_some() {
                out.push_str("10.244.0.1 - - \"GET / HTTP/1.1\" 200\n");
            }
        }
    }
    out
}

/// `kubectl exec [flags] POD [--] COMMAND [args...]`.
///
/// Parses its own argv because everything after `--` belongs to the
/// in-container command verbatim (the shared flag parser would eat it).
fn exec_cmd(cluster: &mut Cluster, args: &[String]) -> KubectlResult {
    let mut ns = "default".to_owned();
    let mut pod_name: Option<String> = None;
    let mut command: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--" => {
                command.extend(args[i + 1..].iter().cloned());
                break;
            }
            "-n" | "--namespace" => {
                i += 1;
                match args.get(i) {
                    Some(v) => ns = v.clone(),
                    None => return KubectlResult::err("error: flag needs an argument: -n", 1),
                }
            }
            _ if a.starts_with("--namespace=") => ns = a["--namespace=".len()..].to_owned(),
            "-c" | "--container" => i += 1, // container choice is irrelevant here
            _ if a.starts_with("--container=") => {}
            "-i" | "-t" | "-it" | "-ti" | "--stdin" | "--tty" | "-q" | "--quiet" => {}
            // Unknown flags before the pod name are rejected (a tolerated
            // space-separated value flag would misparse its value as the
            // pod name); after the pod name they belong to the command.
            _ if a.starts_with('-') && pod_name.is_none() => {
                return KubectlResult::err(format!("error: unknown flag: {a}"), 1);
            }
            other if pod_name.is_none() => {
                pod_name = Some(other.trim_start_matches("pod/").to_owned());
            }
            other => command.push(other.to_owned()),
        }
        i += 1;
    }
    let Some(pod_name) = pod_name else {
        return KubectlResult::err("error: pod or type/name must be specified", 1);
    };
    if command.is_empty() {
        return KubectlResult::err(
            "error: you must specify at least one command for the container",
            1,
        );
    }
    let Some(pod) = cluster.get("Pod", Some(&ns), Some(&pod_name)).pop() else {
        return KubectlResult::err(
            format!("Error from server (NotFound): pods \"{pod_name}\" not found"),
            1,
        );
    };
    if pod.status.get("phase").and_then(Yaml::as_str) != Some("Running") {
        return KubectlResult::err(
            format!("Error from server (BadRequest): pod {pod_name} is not running"),
            1,
        );
    }
    container_command(&pod, &command, cluster.now_ms())
}

/// Converts days since the simulated epoch (2024-01-01) into
/// (year, month name, day-of-month), with leap years.
fn civil_from_day(mut days: u64) -> (u64, &'static str, u64) {
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    let mut year = 2024u64;
    loop {
        let leap =
            year.is_multiple_of(4) && (!year.is_multiple_of(100) || year.is_multiple_of(400));
        let year_days = if leap { 366 } else { 365 };
        if days < year_days {
            let lengths = [
                31,
                if leap { 29 } else { 28 },
                31,
                30,
                31,
                30,
                31,
                31,
                30,
                31,
                30,
                31,
            ];
            for (month, &len) in lengths.iter().enumerate() {
                if days < len {
                    return (year, MONTHS[month], days + 1);
                }
                days -= len;
            }
        }
        days -= year_days;
        year += 1;
    }
}

/// Simulates the small command vocabulary real benchmark unit tests run
/// inside containers. Unknown binaries fail the way an OCI runtime does.
fn container_command(pod: &Resource, command: &[String], now_ms: u64) -> KubectlResult {
    let args = &command[1..];
    match command[0].as_str() {
        "echo" => KubectlResult::ok(args.join(" ") + "\n"),
        "hostname" => KubectlResult::ok(format!("{}\n", pod.name)),
        "date" => {
            // The simulated clock booted at 2024-01-01T00:00:00Z, a Monday.
            let secs = now_ms / 1000;
            let days = secs / 86_400;
            let (h, m, s) = ((secs % 86_400) / 3600, (secs % 3600) / 60, secs % 60);
            let weekday = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"][(days % 7) as usize];
            let (year, month, dom) = civil_from_day(days);
            KubectlResult::ok(format!(
                "{weekday} {month} {dom:2} {h:02}:{m:02}:{s:02} UTC {year}\n"
            ))
        }
        "uname" => KubectlResult::ok("Linux\n"),
        "true" => KubectlResult::ok(""),
        "false" => KubectlResult::err("", 1),
        "env" | "printenv" => {
            let mut out = format!("HOSTNAME={}\n", pod.name);
            out.push_str("PATH=/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin\n");
            out.push_str("KUBERNETES_SERVICE_HOST=10.96.0.1\nKUBERNETES_SERVICE_PORT=443\n");
            for c in pod.containers() {
                if let Some(env) = c.get("env") {
                    for entry in env.items() {
                        let name = entry
                            .get("name")
                            .map(Yaml::render_scalar)
                            .unwrap_or_default();
                        let value = entry
                            .get("value")
                            .map(Yaml::render_scalar)
                            .unwrap_or_default();
                        out.push_str(&format!("{name}={value}\n"));
                    }
                }
            }
            KubectlResult::ok(out)
        }
        "ls" => KubectlResult::ok("bin\ndev\netc\nhome\nproc\nroot\nsys\ntmp\nusr\nvar\n"),
        "cat" => match args.first().map(String::as_str) {
            Some("/etc/hostname") => KubectlResult::ok(format!("{}\n", pod.name)),
            Some("/proc/uptime") => KubectlResult::ok(format!("{}.00 0.00\n", now_ms / 1000)),
            Some(path) => KubectlResult::err(format!("cat: {path}: No such file or directory"), 1),
            None => KubectlResult::ok(""),
        },
        other => KubectlResult::err(
            format!(
                "OCI runtime exec failed: exec failed: unable to start container process: \
                 exec: \"{other}\": executable file not found in $PATH: unknown"
            ),
            126,
        ),
    }
}

fn rollout_cmd(cluster: &mut Cluster, flags: &Flags, ns: &str) -> KubectlResult {
    if flags.positional.first().map(String::as_str) != Some("status") {
        return KubectlResult::err("error: only `rollout status` is supported", 1);
    }
    let inner = Flags {
        positional: flags.positional[1..].to_vec(),
        namespace: flags.namespace.clone(),
        ..Flags::default()
    };
    let timeout = flags.timeout_ms.unwrap_or(60_000);
    let deadline = cluster.now_ms() + timeout;
    loop {
        let (_, resources) = match lookup_resources(cluster, &inner, ns) {
            Ok(r) => r,
            Err(e) => return e,
        };
        let Some(r) = resources.first() else {
            return KubectlResult::err("error: deployment not found", 1);
        };
        let desired = r.replicas();
        let ready = r
            .status
            .get("readyReplicas")
            .and_then(Yaml::as_i64)
            .unwrap_or(0);
        if ready >= desired {
            return KubectlResult::ok(format!(
                "deployment \"{}\" successfully rolled out\n",
                r.name
            ));
        }
        if cluster.now_ms() >= deadline {
            return KubectlResult::err("error: deployment exceeded its progress deadline", 1);
        }
        advance_to_next_poll(cluster, deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn no_fs(_: &str) -> Option<String> {
        None
    }

    const POD: &str = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n  labels:\n    app: nginx\nspec:\n  containers:\n  - name: c\n    image: nginx\n    ports:\n    - containerPort: 80\n";

    #[test]
    fn apply_from_stdin_and_get() {
        let mut c = Cluster::new();
        let r = run(&mut c, &argv("apply -f -"), POD, &no_fs);
        assert_eq!(r.code, 0, "{}", r.stderr);
        assert_eq!(r.stdout, "pod/web created\n");
        let r = run(&mut c, &argv("get pods"), "", &no_fs);
        assert!(r.stdout.contains("web"), "{}", r.stdout);
    }

    #[test]
    fn apply_from_file_resolver() {
        let mut c = Cluster::new();
        let fs = |name: &str| (name == "labeled_code.yaml").then(|| POD.to_owned());
        let r = run(&mut c, &argv("apply -f labeled_code.yaml"), "", &fs);
        assert_eq!(r.code, 0);
        let r = run(&mut c, &argv("apply -f missing.yaml"), "", &fs);
        assert_eq!(r.code, 1);
        assert!(r.stderr.contains("does not exist"));
    }

    #[test]
    fn wait_for_ready_advances_clock() {
        let mut c = Cluster::new();
        run(&mut c, &argv("apply -f -"), POD, &no_fs);
        let r = run(
            &mut c,
            &argv("wait --for=condition=Ready pod -l app=nginx --timeout=60s"),
            "",
            &no_fs,
        );
        assert_eq!(r.code, 0, "{}", r.stderr);
        assert!(r.stdout.contains("condition met"));
    }

    #[test]
    fn wait_times_out_on_bad_image() {
        let mut c = Cluster::new();
        let bad = POD.replace("image: nginx", "image: nope-missing");
        run(&mut c, &argv("apply -f -"), &bad, &no_fs);
        let r = run(
            &mut c,
            &argv("wait --for=condition=Ready pod/web --timeout=5s"),
            "",
            &no_fs,
        );
        assert_eq!(r.code, 1);
        assert!(r.stderr.contains("timed out"));
    }

    #[test]
    fn jsonpath_output_single_and_list() {
        let mut c = Cluster::new();
        run(&mut c, &argv("apply -f -"), POD, &no_fs);
        run(
            &mut c,
            &argv("wait --for=condition=Ready pod/web --timeout=60s"),
            "",
            &no_fs,
        );
        let r = run(
            &mut c,
            &argv("get pod web -o=jsonpath={.status.hostIP}"),
            "",
            &no_fs,
        );
        assert_eq!(r.stdout, "192.168.49.2");
        let r = run(
            &mut c,
            &argv("get pods -l app=nginx --output=jsonpath={.items..metadata.name}"),
            "",
            &no_fs,
        );
        assert_eq!(r.stdout, "web");
    }

    #[test]
    fn get_name_output() {
        let mut c = Cluster::new();
        run(&mut c, &argv("apply -f -"), POD, &no_fs);
        let r = run(&mut c, &argv("get pods -o name"), "", &no_fs);
        assert_eq!(r.stdout, "pod/web\n");
    }

    #[test]
    fn create_namespace_and_duplicate() {
        let mut c = Cluster::new();
        let r = run(&mut c, &argv("create ns development"), "", &no_fs);
        assert_eq!(r.stdout, "namespace/development created\n");
        let r = run(&mut c, &argv("create namespace development"), "", &no_fs);
        assert_eq!(r.code, 1);
        assert!(r.stderr.contains("AlreadyExists"));
    }

    #[test]
    fn namespaced_apply_via_flag() {
        let mut c = Cluster::new();
        run(&mut c, &argv("create ns dev"), "", &no_fs);
        let r = run(&mut c, &argv("apply -n dev -f -"), POD, &no_fs);
        assert_eq!(r.code, 0);
        let r = run(&mut c, &argv("get pods -n dev -o name"), "", &no_fs);
        assert_eq!(r.stdout, "pod/web\n");
        let r = run(&mut c, &argv("get pods -o name"), "", &no_fs);
        assert_eq!(r.stdout, "");
    }

    #[test]
    fn delete_by_name_and_not_found() {
        let mut c = Cluster::new();
        run(&mut c, &argv("apply -f -"), POD, &no_fs);
        let r = run(&mut c, &argv("delete pod web"), "", &no_fs);
        assert_eq!(r.stdout, "pod \"web\" deleted\n");
        let r = run(&mut c, &argv("delete pod web"), "", &no_fs);
        assert_eq!(r.code, 1);
    }

    #[test]
    fn describe_ingress_shows_backend() {
        let mut c = Cluster::new();
        let ing = "apiVersion: networking.k8s.io/v1\nkind: Ingress\nmetadata:\n  name: minimal-ingress\nspec:\n  rules:\n  - http:\n      paths:\n      - path: /\n        pathType: Prefix\n        backend:\n          service:\n            name: test-app\n            port:\n              number: 5000\n";
        run(&mut c, &argv("apply -f -"), ing, &no_fs);
        let r = run(
            &mut c,
            &argv("describe ingress minimal-ingress"),
            "",
            &no_fs,
        );
        assert!(r.stdout.contains("test-app:5000"), "{}", r.stdout);
    }

    #[test]
    fn logs_echo_command() {
        let mut c = Cluster::new();
        let pod = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: say\nspec:\n  containers:\n  - name: c\n    image: busybox\n    command: [\"echo\", \"hello\", \"world\"]\n";
        run(&mut c, &argv("apply -f -"), pod, &no_fs);
        run(
            &mut c,
            &argv("wait --for=condition=PodScheduled pod/say --timeout=10s"),
            "",
            &no_fs,
        );
        let r = run(&mut c, &argv("logs say"), "", &no_fs);
        assert_eq!(r.stdout, "hello world\n");
    }

    #[test]
    fn rollout_status_waits_for_every_replica() {
        let mut c = Cluster::new();
        let deploy = "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: d\nspec:\n  replicas: 3\n  selector:\n    matchLabels:\n      app: d\n  template:\n    metadata:\n      labels:\n        app: d\n    spec:\n      containers:\n      - name: c\n        image: nginx\n";
        run(&mut c, &argv("apply -f -"), deploy, &no_fs);
        let r = run(
            &mut c,
            &argv("rollout status deployment/d --timeout=120s"),
            "",
            &no_fs,
        );
        assert_eq!(r.code, 0, "{}", r.stderr);
        assert!(r.stdout.contains("successfully rolled out"));
        let pods = run(&mut c, &argv("get pods -l app=d -o name"), "", &no_fs);
        assert_eq!(pods.stdout.lines().count(), 3);
    }

    #[test]
    fn bad_resource_type_errors() {
        let mut c = Cluster::new();
        let r = run(&mut c, &argv("get frobnicators"), "", &no_fs);
        assert_eq!(r.code, 1);
        assert!(r.stderr.contains("doesn't have a resource type"));
    }

    #[test]
    fn wait_skips_idle_polls_up_to_a_huge_timeout() {
        let mut c = Cluster::new();
        run(
            &mut c,
            &argv("apply -f -"),
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: bad\nspec:\n  containers:\n  - name: c\n    image: no-such-image:v1\n",
            &no_fs,
        );
        // 10^19 ms is 2 * 10^16 polls: only the polls that can see a
        // change run, and the clock stops at the timeout poll.
        let r = run(
            &mut c,
            &argv("wait --for=condition=Ready pod/bad --timeout=10000000000000000000ms"),
            "",
            &no_fs,
        );
        assert_eq!(r.code, 1);
        assert!(r.stderr.contains("timed out"), "{r:?}");
        assert_eq!(c.now_ms(), 10_000_000_000_000_000_000);
    }

    #[test]
    fn wait_for_delete() {
        let mut c = Cluster::new();
        run(&mut c, &argv("apply -f -"), POD, &no_fs);
        run(&mut c, &argv("delete pod web"), "", &no_fs);
        let r = run(
            &mut c,
            &argv("wait --for=delete pod/web --timeout=5s"),
            "",
            &no_fs,
        );
        assert_eq!(r.code, 0);
    }

    #[test]
    fn get_json_output_parses() {
        let mut c = Cluster::new();
        run(&mut c, &argv("apply -f -"), POD, &no_fs);
        let r = run(&mut c, &argv("get pod web -o json"), "", &no_fs);
        assert!(r.stdout.contains("\"kind\": \"Pod\""));
    }

    #[test]
    fn civil_from_day_rolls_months_and_leap_years() {
        assert_eq!(civil_from_day(0), (2024, "Jan", 1));
        assert_eq!(civil_from_day(30), (2024, "Jan", 31));
        assert_eq!(civil_from_day(31), (2024, "Feb", 1));
        assert_eq!(civil_from_day(59), (2024, "Feb", 29)); // 2024 is a leap year
        assert_eq!(civil_from_day(60), (2024, "Mar", 1));
        assert_eq!(civil_from_day(365), (2024, "Dec", 31));
        assert_eq!(civil_from_day(366), (2025, "Jan", 1));
        assert_eq!(civil_from_day(366 + 58), (2025, "Feb", 28));
        assert_eq!(civil_from_day(366 + 59), (2025, "Mar", 1)); // 2025 is not
    }
}
