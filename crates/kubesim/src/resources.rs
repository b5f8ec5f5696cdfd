//! Generic Kubernetes resource model.
//!
//! Resources keep their full YAML body (so JSONPath queries over arbitrary
//! fields work) alongside parsed-out metadata and a mutable `status`
//! subtree maintained by the controllers.

use std::fmt;

use yamlkit::Yaml;

/// Key uniquely identifying a resource in a cluster.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceKey {
    /// Resource kind, e.g. `Pod`.
    pub kind: String,
    /// Namespace (empty for cluster-scoped resources).
    pub namespace: String,
    /// Object name.
    pub name: String,
}

impl fmt::Display for ResourceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.namespace.is_empty() {
            write!(f, "{}/{}", self.kind.to_lowercase(), self.name)
        } else {
            write!(
                f,
                "{}/{} -n {}",
                self.kind.to_lowercase(),
                self.name,
                self.namespace
            )
        }
    }
}

/// A stored Kubernetes object.
#[derive(Debug, Clone, PartialEq)]
pub struct Resource {
    /// `apiVersion` as written.
    pub api_version: String,
    /// `kind` as written.
    pub kind: String,
    /// `metadata.name`.
    pub name: String,
    /// Effective namespace (after defaulting; empty for cluster-scoped).
    pub namespace: String,
    /// `metadata.labels` as string pairs.
    pub labels: Vec<(String, String)>,
    /// The full object body (spec, data, rules, ... everything as applied).
    pub body: Yaml,
    /// Controller-maintained `status` subtree, merged into [`Self::to_yaml`].
    pub status: Yaml,
    /// Simulated-clock timestamp (ms) when the object was created.
    pub created_at_ms: u64,
    /// Monotonic generation, bumped on every apply.
    pub generation: u64,
}

impl Resource {
    /// Builds a resource from a parsed manifest body.
    ///
    /// `default_namespace` is used when the manifest does not set one and
    /// the kind is namespaced.
    pub fn from_yaml(body: Yaml, default_namespace: &str, now_ms: u64) -> Result<Resource, String> {
        let api_version = body
            .get("apiVersion")
            .and_then(Yaml::as_str)
            .ok_or("missing required field \"apiVersion\"")?
            .to_owned();
        let kind = body
            .get("kind")
            .and_then(Yaml::as_str)
            .ok_or("missing required field \"kind\"")?
            .to_owned();
        let metadata = body
            .get("metadata")
            .ok_or("missing required field \"metadata\"")?;
        let name = metadata
            .get("name")
            .map(Yaml::render_scalar)
            .filter(|n| !n.is_empty())
            .or_else(|| {
                metadata
                    .get("generateName")
                    .map(|g| format!("{}{:05}", g.render_scalar(), now_ms % 100_000))
            })
            .ok_or("metadata.name is required")?;
        let namespace = if is_cluster_scoped(&kind) {
            String::new()
        } else {
            metadata
                .get("namespace")
                .and_then(Yaml::as_str)
                .unwrap_or(default_namespace)
                .to_owned()
        };
        let labels = extract_labels(metadata.get("labels"));
        Ok(Resource {
            api_version,
            kind,
            name,
            namespace,
            labels,
            body,
            status: Yaml::Null,
            created_at_ms: now_ms,
            generation: 1,
        })
    }

    /// The store key for this resource.
    pub fn key(&self) -> ResourceKey {
        ResourceKey {
            kind: self.kind.clone(),
            namespace: self.namespace.clone(),
            name: self.name.clone(),
        }
    }

    /// Full object view with controller status merged in, as `kubectl get
    /// -o yaml/json` would serve it.
    pub fn to_yaml(&self) -> Yaml {
        let mut full = self.body.clone();
        // Ensure namespace defaulting is visible.
        if !self.namespace.is_empty() {
            if let Some(meta) = full.get_mut("metadata") {
                if meta.get("namespace").is_none() {
                    meta.insert("namespace", Yaml::Str(self.namespace.clone()));
                }
            }
        }
        if !self.status.is_null() {
            full.insert("status", self.status.clone());
        }
        full
    }

    /// Looks up a path in the merged view.
    pub fn get_path(&self, path: &[&str]) -> Option<Yaml> {
        self.to_yaml().get_path(path).cloned()
    }

    /// The pod template spec for workload kinds, if present, borrowed
    /// from the body.
    pub fn pod_template(&self) -> Option<&Yaml> {
        match self.kind.as_str() {
            "Pod" => Some(&self.body),
            "CronJob" => self
                .body
                .get_path(&["spec", "jobTemplate", "spec", "template"]),
            _ => self.body.get_path(&["spec", "template"]),
        }
    }

    /// Container list of a pod-shaped body (`spec.containers`).
    pub fn containers(&self) -> Vec<Yaml> {
        self.body
            .get_path(&["spec", "containers"])
            .map(|c| c.items().cloned().collect())
            .unwrap_or_default()
    }

    /// `spec.replicas`, defaulting to 1 the way the API server does.
    pub fn replicas(&self) -> i64 {
        self.body
            .get_path(&["spec", "replicas"])
            .and_then(Yaml::as_i64)
            .unwrap_or(1)
    }

    /// Sets a status condition (replacing any with the same type), with
    /// `status: "True"` strings like the real API.
    pub fn set_condition(&mut self, condition_type: &str, value: bool, now_ms: u64) {
        if self.status.is_null() {
            self.status = Yaml::Map(vec![]);
        }
        if self.status.get("conditions").is_none() {
            self.status.insert("conditions", Yaml::Seq(vec![]));
        }
        let Some(Yaml::Seq(conditions)) = self.status.get_mut("conditions") else {
            return;
        };
        let status_str = if value { "True" } else { "False" };
        let entry = Yaml::Map(vec![
            ("type".into(), Yaml::Str(condition_type.into())),
            ("status".into(), Yaml::Str(status_str.into())),
            (
                "lastTransitionTime".into(),
                Yaml::Str(format_sim_time(now_ms)),
            ),
        ]);
        if let Some(existing) = conditions
            .iter_mut()
            .find(|c| c.get("type").and_then(Yaml::as_str) == Some(condition_type))
        {
            *existing = entry;
        } else {
            conditions.push(entry);
        }
    }

    /// Reads a status condition by type.
    pub fn condition(&self, condition_type: &str) -> Option<bool> {
        self.status
            .get("conditions")?
            .items()
            .find(|c| c.get("type").and_then(Yaml::as_str) == Some(condition_type))
            .and_then(|c| c.get("status"))
            .and_then(Yaml::as_str)
            .map(|s| s == "True")
    }
}

/// Renders the simulated clock as an ISO-ish timestamp (epoch at the
/// cluster's boot).
pub fn format_sim_time(now_ms: u64) -> String {
    let secs = now_ms / 1000;
    let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
    format!("2024-01-01T{h:02}:{m:02}:{s:02}Z")
}

/// Whether a kind lives outside namespaces.
pub fn is_cluster_scoped(kind: &str) -> bool {
    matches!(
        kind,
        "Namespace"
            | "Node"
            | "ClusterRole"
            | "ClusterRoleBinding"
            | "PersistentVolume"
            | "StorageClass"
            | "CustomResourceDefinition"
            | "PriorityClass"
            | "IngressClass"
    )
}

/// Plural, lower-case resource name (what `kubectl get pods` uses) for a
/// kind, including the common short names.
pub fn canonical_kind(resource_arg: &str) -> Option<&'static str> {
    let lower = resource_arg.to_lowercase();
    let base = lower.split('.').next().unwrap_or(&lower);
    Some(match base {
        "pod" | "pods" | "po" => "Pod",
        "deployment" | "deployments" | "deploy" => "Deployment",
        "replicaset" | "replicasets" | "rs" => "ReplicaSet",
        "daemonset" | "daemonsets" | "ds" => "DaemonSet",
        "statefulset" | "statefulsets" | "sts" => "StatefulSet",
        "service" | "services" | "svc" => "Service",
        "job" | "jobs" => "Job",
        "cronjob" | "cronjobs" | "cj" => "CronJob",
        "configmap" | "configmaps" | "cm" => "ConfigMap",
        "secret" | "secrets" => "Secret",
        "namespace" | "namespaces" | "ns" => "Namespace",
        "serviceaccount" | "serviceaccounts" | "sa" => "ServiceAccount",
        "role" | "roles" => "Role",
        "rolebinding" | "rolebindings" => "RoleBinding",
        "clusterrole" | "clusterroles" => "ClusterRole",
        "clusterrolebinding" | "clusterrolebindings" => "ClusterRoleBinding",
        "ingress" | "ingresses" | "ing" => "Ingress",
        "networkpolicy" | "networkpolicies" | "netpol" => "NetworkPolicy",
        "persistentvolume" | "persistentvolumes" | "pv" => "PersistentVolume",
        "persistentvolumeclaim" | "persistentvolumeclaims" | "pvc" => "PersistentVolumeClaim",
        "limitrange" | "limitranges" | "limits" => "LimitRange",
        "resourcequota" | "resourcequotas" | "quota" => "ResourceQuota",
        "horizontalpodautoscaler" | "horizontalpodautoscalers" | "hpa" => "HorizontalPodAutoscaler",
        "node" | "nodes" | "no" => "Node",
        "endpoints" | "ep" => "Endpoints",
        "virtualservice" | "virtualservices" | "vs" => "VirtualService",
        "destinationrule" | "destinationrules" | "dr" => "DestinationRule",
        "gateway" | "gateways" | "gw" => "Gateway",
        "serviceentry" | "serviceentries" => "ServiceEntry",
        "event" | "events" | "ev" => "Event",
        _ => return None,
    })
}

fn extract_labels(labels: Option<&Yaml>) -> Vec<(String, String)> {
    labels
        .map(|l| {
            l.entries()
                .map(|(k, v)| (k.to_owned(), v.render_scalar()))
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod_yaml() -> Yaml {
        yamlkit::parse_one(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n  labels:\n    app: nginx\nspec:\n  containers:\n  - name: c\n    image: nginx:latest\n",
        )
        .unwrap()
        .to_value()
    }

    #[test]
    fn builds_resource_with_defaulted_namespace() {
        let r = Resource::from_yaml(pod_yaml(), "default", 0).unwrap();
        assert_eq!(r.kind, "Pod");
        assert_eq!(r.namespace, "default");
        assert_eq!(r.labels, vec![("app".to_owned(), "nginx".to_owned())]);
    }

    #[test]
    fn explicit_namespace_wins() {
        let mut y = pod_yaml();
        y.get_mut("metadata")
            .unwrap()
            .insert("namespace", Yaml::Str("prod".into()));
        let r = Resource::from_yaml(y, "default", 0).unwrap();
        assert_eq!(r.namespace, "prod");
    }

    #[test]
    fn cluster_scoped_kinds_have_no_namespace() {
        let y = yamlkit::parse_one("apiVersion: v1\nkind: Namespace\nmetadata:\n  name: dev\n")
            .unwrap()
            .to_value();
        let r = Resource::from_yaml(y, "default", 0).unwrap();
        assert_eq!(r.namespace, "");
    }

    #[test]
    fn missing_name_is_error() {
        let y = yamlkit::parse_one("apiVersion: v1\nkind: Pod\nmetadata: {}\n")
            .unwrap()
            .to_value();
        assert!(Resource::from_yaml(y, "default", 0).is_err());
    }

    #[test]
    fn generate_name_synthesizes() {
        let y = yamlkit::parse_one(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  generateName: web-\nspec: {}\n",
        )
        .unwrap()
        .to_value();
        let r = Resource::from_yaml(y, "default", 12345).unwrap();
        assert!(r.name.starts_with("web-"));
    }

    #[test]
    fn conditions_round_trip() {
        let mut r = Resource::from_yaml(pod_yaml(), "default", 0).unwrap();
        assert_eq!(r.condition("Ready"), None);
        r.set_condition("Ready", true, 1000);
        assert_eq!(r.condition("Ready"), Some(true));
        r.set_condition("Ready", false, 2000);
        assert_eq!(r.condition("Ready"), Some(false));
        // Replaced, not duplicated.
        assert_eq!(r.status.get("conditions").unwrap().seq_len(), Some(1));
    }

    #[test]
    fn to_yaml_merges_status_and_namespace() {
        let mut r = Resource::from_yaml(pod_yaml(), "default", 0).unwrap();
        r.status = yamlkit::ymap! { "phase" => "Running" };
        let full = r.to_yaml();
        assert_eq!(
            full.get_path(&["status", "phase"]).and_then(Yaml::as_str),
            Some("Running")
        );
        assert_eq!(
            full.get_path(&["metadata", "namespace"])
                .and_then(Yaml::as_str),
            Some("default")
        );
    }

    #[test]
    fn canonical_kind_aliases() {
        assert_eq!(canonical_kind("po"), Some("Pod"));
        assert_eq!(canonical_kind("deploy"), Some("Deployment"));
        assert_eq!(canonical_kind("svc"), Some("Service"));
        assert_eq!(canonical_kind("ingress.networking.k8s.io"), Some("Ingress"));
        assert_eq!(canonical_kind("nonsense"), None);
    }

    #[test]
    fn replicas_defaults_to_one() {
        let r = Resource::from_yaml(pod_yaml(), "default", 0).unwrap();
        assert_eq!(r.replicas(), 1);
    }
}
