//! The in-memory cluster: resource store, simulated clock, and the
//! controller loops that stand in for kube-controller-manager + kubelet.
//!
//! Time is virtual: [`Cluster::advance`] moves the clock in 250 ms ticks,
//! and nothing sleeps for real. The clock is event-driven: a tick
//! reconciles only when the store changed since the last reconcile or a
//! deadline falls due (a pod's pull, ready or exit time, a LoadBalancer's
//! or an Ingress's address, a CronJob's first minute), and the last tick
//! of every `advance` always reconciles. `kubectl wait` and `rollout
//! status` skip the polls that cannot see a change. So a `kubectl wait
//! --timeout=60s` on pods that never become ready costs a few reconciles
//! rather than one per tick.
//!
//! A reconcile costs what can change, not the whole store once per
//! workload. The store is ordered by kind, then namespace, then name, so
//! the objects of one kind (or of one kind in one namespace) are one
//! range of it: the kind index. An owner index maps each owner named in
//! some `ownerReferences` to the objects that name it. Three private
//! methods are the only ones that change which objects exist or whom they
//! name as owners — `insert_owned`, `remove_resource` and
//! `update_resource` (an apply over an existing object) — and they keep
//! the owner index, the pods' runtime models, the clock's mutation epoch
//! and the memo of pod counts and endpoints in step. A reconcile keeps
//! each pod's phase, readiness, waiting reason and IP in its runtime
//! model and stores no pod `status`: a pod's status is built when it is
//! read, so no reconcile rebuilds or restamps one.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry as Slot;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Write as _};
use std::ops::Bound;

use yamlkit::Yaml;

use crate::images::{self, ImageBehavior};
use crate::resources::{canonical_kind, format_sim_time, is_cluster_scoped, Resource, ResourceKey};
use crate::schema::{self, Violation};
use crate::selector::Selector;

/// Errors surfaced to kubectl (which renders them in CLI phrasing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Manifest failed strict decoding; payload is (kind, apiVersion, violations).
    Decoding(String, String, Vec<Violation>),
    /// Kind/apiVersion pair the API server does not serve.
    NoKindMatch(String, String),
    /// Target namespace does not exist.
    NamespaceNotFound(String),
    /// Object not found.
    NotFound(String),
    /// Semantic validation failure (selector mismatch, bad port, ...).
    Invalid(String),
    /// Object already exists (create on existing name).
    AlreadyExists(String),
    /// Admission refused the object (e.g. a `ResourceQuota` is exhausted).
    Forbidden(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Decoding(kind, version, violations) => {
                let v = version.rsplit('/').next().unwrap_or(version);
                let list = violations
                    .iter()
                    .map(Violation::render)
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(
                    f,
                    "{kind} in version \"{v}\" cannot be handled as a {kind}: strict decoding error: {list}"
                )
            }
            ClusterError::NoKindMatch(kind, version) => {
                write!(f, "no matches for kind \"{kind}\" in version \"{version}\"")
            }
            ClusterError::NamespaceNotFound(ns) => write!(f, "namespaces \"{ns}\" not found"),
            ClusterError::NotFound(what) => write!(f, "{what} not found"),
            ClusterError::Invalid(msg) => write!(f, "{msg}"),
            ClusterError::AlreadyExists(what) => write!(f, "{what} already exists"),
            ClusterError::Forbidden(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A virtual worker node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Node name (the default cluster has a single `minikube` node).
    pub name: String,
    /// Node IP, returned as pod `hostIP`.
    pub ip: String,
}

/// Admission bound on the pods one workload may ask for: `spec.replicas`
/// of a Deployment, ReplicaSet or StatefulSet, and `spec.completions` of
/// a Job or of a CronJob's job template. A workload over it is refused
/// with [`ClusterError::Forbidden`] in the API server's exhausted-quota
/// phrasing, as a `ResourceQuota` would refuse it, instead of building
/// that many pods. The bound is far above every reference solution and
/// every generated candidate of the benchmark (at most 1,005 replicas).
pub const MAX_PODS_PER_WORKLOAD: i64 = 10_000;

/// Per-pod runtime model: when pulls finish, when the pod is ready, when a
/// finite command terminates.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PodRuntime {
    created_ms: u64,
    pull_done_ms: u64,
    ready_ms: u64,
    /// Some(t) when the pod's containers exit at simulated time t.
    terminates_ms: Option<u64>,
    /// The command exits non-zero.
    fails: bool,
    /// Image cannot be pulled (unknown reference).
    unpullable: bool,
    /// The state the pod's `status` shows: its state at the last
    /// reconcile. `None` before the pod's first reconcile.
    shown: Option<PodState>,
    /// The last octet counter of the pod's IP, assigned at its first
    /// reconcile.
    ip: Option<u32>,
}

/// Everything a pod's `status` shows that can change over time, except
/// condition timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PodState {
    phase: &'static str,
    ready: bool,
    waiting_reason: Option<&'static str>,
}

impl PodRuntime {
    /// The pod's state at `now`.
    fn state_at(&self, now: u64) -> PodState {
        let (phase, ready, waiting_reason) = if self.unpullable {
            ("Pending", false, Some("ImagePullBackOff"))
        } else if now < self.pull_done_ms {
            ("Pending", false, Some("ContainerCreating"))
        } else if self.terminates_ms.is_some_and(|t| now >= t) {
            (if self.fails { "Failed" } else { "Succeeded" }, false, None)
        } else {
            ("Running", now >= self.ready_ms, None)
        };
        PodState {
            phase,
            ready,
            waiting_reason,
        }
    }
}

/// A stored pod with the phase and IP its status shows (see
/// [`Cluster::pod_views`]).
pub(crate) struct PodView<'a> {
    /// The stored pod, without its status.
    pub(crate) pod: &'a Resource,
    /// `status.phase`.
    pub(crate) phase: Option<&'a str>,
    /// `status.podIP`.
    pub(crate) ip: Option<String>,
}

/// One stored object, with its runtime model when it is a Pod.
#[derive(Debug, Clone)]
struct Entry {
    resource: Resource,
    /// `Some` for every Pod, `None` for every other kind.
    runtime: Option<PodRuntime>,
}

/// The kinds whose status counts the pods they own.
const WORKLOAD_KINDS: [&str; 5] = [
    "DaemonSet",
    "Deployment",
    "Job",
    "ReplicaSet",
    "StatefulSet",
];

/// Pod counts of one workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PodCounts {
    total: i64,
    ready: i64,
    succeeded: i64,
    failed: i64,
}

impl PodCounts {
    fn add(&mut self, ready: bool, phase: Option<&str>) {
        self.total += 1;
        self.ready += i64::from(ready);
        self.succeeded += i64::from(phase == Some("Succeeded"));
        self.failed += i64::from(phase == Some("Failed"));
    }
}

/// A pod body built once from a workload's template, copied for each pod
/// the workload spawns in one reconcile, with the runtime model and image
/// pulls every such pod shares.
struct PodPrototype {
    pod: Resource,
    runtime: PodRuntime,
    pulled: Vec<String>,
}

/// What the controllers derive from pods and reuse while nothing they
/// read changes. Not cluster state.
#[derive(Debug, Clone, Default)]
struct Memo {
    /// Bumped by every insert, remove and changing in-place update of an
    /// object and by every change of a pod's state: everything a
    /// workload's pod counts and a Service's endpoints read.
    revision: u64,
    /// The revision `counts` was taken at.
    counted: Option<u64>,
    /// The last [`Cluster::workload_counts`].
    counts: Vec<(ResourceKey, PodCounts)>,
    /// The revision every Service's endpoints were last computed at.
    endpoints: Option<u64>,
}

/// Simulated time between two controller ticks.
const TICK_MS: u64 = 250;

/// Bookkeeping of the event-driven clock (see [`Cluster::advance`]), and
/// the test build's oracle switches and counters, none of which is
/// cluster state.
#[derive(Debug, Clone, Default)]
struct Clock {
    /// Bumped by every store insert or remove. (An apply that updates an
    /// object in place reconciles at once, so it needs no bump.)
    epoch: u64,
    /// `epoch` as it stood when the last reconcile started: a reconcile
    /// that inserts or removes leaves the next tick due.
    reconciled_epoch: u64,
    /// Earliest deadline after the last reconcile; `u64::MAX` when none.
    /// Zero (a fresh cluster) makes the first tick due.
    next_deadline_ms: u64,
    /// Reconciles run so far.
    #[cfg(test)]
    reconciles: u64,
    /// Reconcile every tick and poll every 500 ms, as the clock before
    /// this one did: the oracle the event-driven clock is tested against.
    #[cfg(test)]
    stepwise: bool,
    /// Find objects by scanning the whole store instead of through the
    /// kind and owner indexes, and rebuild every pod's status on every
    /// reconcile: the oracle the indexes are tested against.
    #[cfg(test)]
    full_scan: bool,
    /// Pod statuses built so far, stored or read.
    #[cfg(test)]
    status_builds: std::cell::Cell<u64>,
}

/// The simulated Kubernetes cluster.
///
/// # Examples
///
/// ```
/// use kubesim::Cluster;
/// let mut cluster = Cluster::new();
/// cluster
///     .apply_manifest(
///         "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n  - name: c\n    image: nginx\n",
///         "default",
///     )
///     .unwrap();
/// cluster.advance(10_000);
/// let pod = cluster.get("Pod", Some("default"), Some("web")).pop().unwrap();
/// assert_eq!(pod.condition("Ready"), Some(true));
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    now_ms: u64,
    /// The store. Its key order (kind, namespace, name) is the kind index.
    resources: BTreeMap<ResourceKey, Entry>,
    /// The owner index: for each `ownerReferences` entry with a string
    /// kind and name, the key (that kind, the referring object's
    /// namespace, that name) maps to the keys of the objects holding it.
    owners: OwnerIndex,
    namespaces: BTreeSet<String>,
    nodes: Vec<NodeInfo>,
    name_counter: u64,
    ip_counter: u32,
    node_port_counter: u16,
    /// Bandwidth used for image pulls (minikube default: fast local link).
    pub pull_bandwidth_mbps: f64,
    /// Image pulls performed (image, at_ms) — feeds the eval-cluster cache
    /// model and `describe` events.
    pulls: Vec<(String, u64)>,
    /// Pre-parsed manifests keyed by source-text content hash
    /// ([`yamlkit::doc::content_hash`]). Seeded by [`Cluster::prime_parsed`]
    /// from a `PreparedDoc`'s shared values so that `kubectl apply -f` of
    /// the same text skips the YAML parse entirely — the candidate is
    /// parsed once per evaluation, not once per layer.
    primed: HashMap<u64, std::sync::Arc<Vec<Yaml>>>,
    clock: Clock,
    memo: Memo,
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new()
    }
}

impl Cluster {
    /// A fresh single-node cluster with `default`, `kube-system` and
    /// `kube-public` namespaces, mirroring a minikube boot.
    pub fn new() -> Cluster {
        Cluster {
            now_ms: 0,
            resources: BTreeMap::new(),
            owners: BTreeMap::new(),
            namespaces: ["default", "kube-system", "kube-public"]
                .into_iter()
                .map(str::to_owned)
                .collect(),
            nodes: vec![NodeInfo {
                name: "minikube".into(),
                ip: "192.168.49.2".into(),
            }],
            name_counter: 0,
            ip_counter: 1,
            node_port_counter: 30000,
            pull_bandwidth_mbps: 400.0,
            pulls: Vec::new(),
            primed: HashMap::new(),
            clock: Clock::default(),
            memo: Memo::default(),
        }
    }

    /// Current simulated time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// The cluster's nodes.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Image pulls recorded so far (image reference, time).
    pub fn pulls(&self) -> &[(String, u64)] {
        &self.pulls
    }

    /// Existing namespace names.
    pub fn namespaces(&self) -> impl Iterator<Item = &str> {
        self.namespaces.iter().map(String::as_str)
    }

    /// Advances the simulated clock by `ms`, reconciling controllers as
    /// time passes.
    ///
    /// Ticks fall every 250 ms from the current time, plus one at the end
    /// when `ms` is not a multiple of 250. A tick reconciles when it is
    /// the last one, when the store changed since the last reconcile, or
    /// when a deadline has fallen due; the clock jumps over the others. A skipped tick would change nothing but
    /// condition timestamps: a reconcile that neither inserts nor removes
    /// is a fixpoint (each controller reads only what it or an earlier
    /// controller in the same pass writes), every time-dependent rule is
    /// a deadline, and every reconcile rewrites each condition it keeps
    /// with the current time, so the last tick restores exact timestamps.
    pub fn advance(&mut self, ms: u64) {
        #[cfg(test)]
        if self.clock.stepwise {
            return self.advance_stepwise(ms);
        }
        let target = self.now_ms.saturating_add(ms);
        while self.now_ms < target {
            let ticks = (self.next_event_ms() - self.now_ms).div_ceil(TICK_MS);
            self.now_ms = self
                .now_ms
                .saturating_add(ticks.saturating_mul(TICK_MS))
                .min(target);
            self.reconcile();
        }
    }

    /// The clock before the event-driven one: every tick reconciles.
    #[cfg(test)]
    fn advance_stepwise(&mut self, ms: u64) {
        let target = self.now_ms + ms;
        while self.now_ms < target {
            let step = (target - self.now_ms).min(TICK_MS);
            self.now_ms += step;
            self.reconcile();
        }
    }

    /// The earliest simulated time, after now, at which a reconcile may
    /// change the store: the next tick while a store mutation is not yet
    /// reconciled, else the next deadline (`u64::MAX` when there is none).
    /// Until then every reconcile only restamps condition times, so a
    /// poll loop may skip its polls before this time.
    pub(crate) fn next_event_ms(&self) -> u64 {
        #[cfg(test)]
        if self.clock.stepwise {
            return self.now_ms + 1;
        }
        if self.clock.epoch != self.clock.reconciled_epoch {
            return self.now_ms + 1;
        }
        self.clock.next_deadline_ms.max(self.now_ms + 1)
    }

    /// Creates a namespace.
    ///
    /// # Errors
    ///
    /// [`ClusterError::AlreadyExists`] when it is already present.
    pub fn create_namespace(&mut self, name: &str) -> Result<(), ClusterError> {
        if !self.namespaces.insert(name.to_owned()) {
            return Err(ClusterError::AlreadyExists(format!(
                "namespaces \"{name}\""
            )));
        }
        Ok(())
    }

    /// Applies every document in a manifest, returning per-object messages
    /// (`pod/web created`).
    ///
    /// # Errors
    ///
    /// Validation, decoding and namespace errors; on error earlier
    /// documents in the stream stay applied (kubectl behaviour).
    pub fn apply_manifest(
        &mut self,
        manifest: &str,
        default_namespace: &str,
    ) -> Result<Vec<String>, ClusterError> {
        // Parse-once fast path: a substrate that already holds the parsed
        // form of this exact text (see [`Cluster::prime_parsed`]) lets
        // `kubectl apply -f` skip the parse.
        if !self.primed.is_empty() {
            let primed = self
                .primed
                .get(&yamlkit::doc::content_hash(manifest))
                .cloned();
            if let Some(docs) = primed {
                // Cloning each body out of the shared documents replaces
                // a full text parse.
                return self.apply_owned(docs.to_vec(), default_namespace);
            }
        }
        let docs = yamlkit::parse(manifest)
            .map_err(|e| ClusterError::Invalid(format!("error parsing YAML: {e}")))?;
        let values: Vec<Yaml> = docs.iter().map(yamlkit::Node::to_value).collect();
        self.apply_owned(values, default_namespace)
    }

    /// Registers the pre-parsed form of a manifest text so subsequent
    /// [`Cluster::apply_manifest`] calls with byte-identical text apply
    /// the shared parsed documents instead of re-parsing. `hash` must be
    /// [`yamlkit::doc::content_hash`] of the exact text (a
    /// `PreparedDoc::content_hash`).
    pub fn prime_parsed(&mut self, hash: u64, docs: std::sync::Arc<Vec<Yaml>>) {
        self.primed.insert(hash, docs);
    }

    /// Shared tail of the apply paths: empty-stream checks + per-object
    /// application, moving each owned body into the store.
    fn apply_owned(
        &mut self,
        docs: Vec<Yaml>,
        default_namespace: &str,
    ) -> Result<Vec<String>, ClusterError> {
        if docs.is_empty() {
            return Err(ClusterError::Invalid("no objects passed to apply".into()));
        }
        let mut messages = Vec::new();
        for body in docs {
            if body.is_null() {
                continue;
            }
            messages.push(self.apply_object(body, default_namespace)?);
        }
        if messages.is_empty() {
            return Err(ClusterError::Invalid("no objects passed to apply".into()));
        }
        Ok(messages)
    }

    /// Applies a single parsed object.
    ///
    /// # Errors
    ///
    /// Same classes as [`Cluster::apply_manifest`].
    fn apply_object(
        &mut self,
        body: Yaml,
        default_namespace: &str,
    ) -> Result<String, ClusterError> {
        let kind = body
            .get("kind")
            .and_then(Yaml::as_str)
            .ok_or_else(|| ClusterError::Invalid("error validating data: missing kind".into()))?
            .to_owned();
        let api_version = body
            .get("apiVersion")
            .and_then(Yaml::as_str)
            .ok_or_else(|| {
                ClusterError::Invalid("error validating data: missing apiVersion".into())
            })?
            .to_owned();
        if let Some(expected) = schema::expected_api_versions(&kind) {
            if !expected.contains(&api_version.as_str()) {
                return Err(ClusterError::NoKindMatch(kind, api_version));
            }
        }
        let violations = schema::validate(&body);
        if !violations.is_empty() {
            return Err(ClusterError::Decoding(kind, api_version, violations));
        }
        let resource = Resource::from_yaml(body, default_namespace, self.now_ms)
            .map_err(|e| ClusterError::Invalid(format!("error validating data: {e}")))?;
        if !resource.namespace.is_empty() && !self.namespaces.contains(&resource.namespace) {
            return Err(ClusterError::NamespaceNotFound(resource.namespace));
        }
        self.validate_semantics(&resource)?;
        enforce_workload_bound(&resource)?;
        let key = resource.key();
        if resource.kind == "Pod" && !self.resources.contains_key(&key) {
            self.enforce_pod_quota(&resource)?;
        }
        if resource.kind == "Namespace" {
            self.namespaces.insert(resource.name.clone());
        }
        let verb = if self.resources.contains_key(&key) {
            if self.update_resource(&key, resource) {
                "configured"
            } else {
                "unchanged"
            }
        } else {
            self.insert_resource(resource);
            "created"
        };
        self.reconcile();
        Ok(format!("{}/{} {verb}", key.kind.to_lowercase(), key.name))
    }

    /// Deletes an object (cascading to owned children).
    ///
    /// # Errors
    ///
    /// [`ClusterError::NotFound`] when absent.
    pub fn delete(
        &mut self,
        kind: &str,
        namespace: &str,
        name: &str,
    ) -> Result<String, ClusterError> {
        let kind = canonical_kind(kind).unwrap_or(kind).to_owned();
        let ns = if is_cluster_scoped(&kind) {
            ""
        } else {
            namespace
        };
        let key = ResourceKey {
            kind: kind.clone(),
            namespace: ns.to_owned(),
            name: name.to_owned(),
        };
        if !self.remove_resource(&key) {
            return Err(ClusterError::NotFound(format!(
                "{}.\"{name}\"",
                kind.to_lowercase()
            )));
        }
        if kind == "Namespace" {
            self.namespaces.remove(name);
            let contents: Vec<ResourceKey> = self
                .resources
                .keys()
                .filter(|k| k.namespace == name)
                .cloned()
                .collect();
            for k in &contents {
                self.remove_resource(k);
            }
        }
        self.cascade_delete(&key);
        Ok(format!("{} \"{name}\" deleted", kind.to_lowercase()))
    }

    fn cascade_delete(&mut self, owner: &ResourceKey) {
        let children: Vec<ResourceKey> = self.owned(owner, None).into_iter().cloned().collect();
        for child in children {
            self.remove_resource(&child);
            self.cascade_delete(&child);
        }
    }

    /// Inserts a new object (see [`Cluster::insert_owned`]).
    fn insert_resource(&mut self, r: Resource) {
        let owners = owner_keys(&r.namespace, &r.body);
        self.insert_owned(r, None, &owners);
    }

    /// Inserts `r`, whose [`owner_keys`] are `owners`. With
    /// [`Cluster::remove_resource`] and [`Cluster::update_resource`], this
    /// is the only change to which objects exist or whom they name as
    /// owners, so the clock, the owner index and the memo see every one.
    /// A Pod comes with its runtime model or gets one here.
    fn insert_owned(&mut self, r: Resource, runtime: Option<PodRuntime>, owners: &[ResourceKey]) {
        let runtime = match runtime {
            None if r.kind == "Pod" => Some(self.track_pod(&r)),
            runtime => runtime,
        };
        let entry = Entry {
            resource: r,
            runtime,
        };
        match self.resources.entry(entry.resource.key()) {
            Slot::Vacant(slot) => {
                index(&mut self.owners, slot.key(), owners);
                slot.insert(entry);
            }
            // A controller may reuse the name of an object it replaces.
            Slot::Occupied(mut slot) => {
                let old = slot.insert(entry).resource;
                unindex(
                    &mut self.owners,
                    slot.key(),
                    &owner_keys(&old.namespace, &old.body),
                );
                index(&mut self.owners, slot.key(), owners);
            }
        }
        self.clock.epoch += 1;
        self.memo.revision += 1;
    }

    /// Removes an object and its pod runtime; false when absent.
    fn remove_resource(&mut self, key: &ResourceKey) -> bool {
        let Some(entry) = self.resources.remove(key) else {
            return false;
        };
        let r = entry.resource;
        unindex(&mut self.owners, key, &owner_keys(&r.namespace, &r.body));
        self.clock.epoch += 1;
        self.memo.revision += 1;
        true
    }

    /// Applies `new` over the stored object at `key`: body, labels and
    /// `apiVersion` are replaced and the generation bumped, while status,
    /// creation time and runtime model stay. True when the body changed.
    /// An in-place update reconciles at once, so the clock needs no epoch
    /// bump.
    fn update_resource(&mut self, key: &ResourceKey, new: Resource) -> bool {
        let Some(entry) = self.resources.get_mut(key) else {
            return false;
        };
        let r = &mut entry.resource;
        let changed = r.body != new.body;
        let stale = changed.then(|| owner_keys(&r.namespace, &r.body));
        r.body = new.body;
        r.labels = new.labels;
        r.api_version = new.api_version;
        r.generation += 1;
        if let Some(stale) = stale {
            let fresh = owner_keys(&r.namespace, &r.body);
            unindex(&mut self.owners, key, &stale);
            index(&mut self.owners, key, &fresh);
            self.memo.revision += 1;
        }
        changed
    }

    /// Keys of the objects that name `owner` in their `ownerReferences`
    /// (its kind and name, in its namespace), of `kind` when given, in
    /// store order.
    fn owned(&self, owner: &ResourceKey, kind: Option<&str>) -> Vec<&ResourceKey> {
        let of_kind = |k: &&ResourceKey| kind.is_none_or(|kind| k.kind == kind);
        #[cfg(test)]
        if self.full_scan() {
            return self
                .resources
                .iter()
                .filter(|(k, e)| {
                    k.namespace == owner.namespace
                        && owned_by(&e.resource, &owner.kind, &owner.name)
                })
                .map(|(k, _)| k)
                .filter(of_kind)
                .collect();
        }
        self.owners
            .get(owner)
            .into_iter()
            .flatten()
            .filter(of_kind)
            .collect()
    }

    /// The stored objects of `kind`, in `namespace` when given, in store
    /// order: one range of the store.
    fn of_kind<'a>(
        &'a self,
        kind: &'a str,
        namespace: Option<&'a str>,
    ) -> impl Iterator<Item = (&'a ResourceKey, &'a Entry)> + 'a {
        let bounds = kind_bounds(kind, namespace);
        self.resources
            .range::<dyn KeyView, _>(store_range(&bounds, self.full_scan()))
            .filter(move |(k, _)| in_kind(k, kind, namespace))
    }

    /// Keys of [`Cluster::of_kind`], for a controller that mutates the
    /// store while it walks them.
    fn keys_of_kind(&self, kind: &str) -> Vec<ResourceKey> {
        self.of_kind(kind, None).map(|(k, _)| k.clone()).collect()
    }

    /// Snapshot of every object of `kind`, for a controller that reads
    /// each as it stood when its pass began.
    fn snapshot_of_kind(&self, kind: &str) -> Vec<Resource> {
        self.of_kind(kind, None)
            .map(|(_, e)| e.resource.clone())
            .collect()
    }

    /// Whether this is the full-scan oracle (test builds only).
    fn full_scan(&self) -> bool {
        #[cfg(test)]
        return self.clock.full_scan;
        #[cfg(not(test))]
        false
    }

    /// Fetches resources by kind with optional namespace and name filters.
    /// `namespace: None` means all namespaces.
    pub fn get(&self, kind: &str, namespace: Option<&str>, name: Option<&str>) -> Vec<Resource> {
        self.get_matching(kind, namespace, name, None)
    }

    /// Fetches resources matching a label selector.
    pub fn select(
        &self,
        kind: &str,
        namespace: Option<&str>,
        selector: &Selector,
    ) -> Vec<Resource> {
        self.get_matching(kind, namespace, None, Some(selector))
    }

    /// [`Cluster::get`] with an optional label selector. Every filter runs
    /// before a resource is cloned (and, for a pod, before its status is
    /// built), so a selector that matches a few pods of a large deployment
    /// copies only those, and only the objects of the kind (and namespace)
    /// asked for are visited.
    pub fn get_matching(
        &self,
        kind: &str,
        namespace: Option<&str>,
        name: Option<&str>,
        selector: Option<&Selector>,
    ) -> Vec<Resource> {
        let kind = canonical_kind(kind).unwrap_or(kind);
        let selected = |r: &Resource| selector.is_none_or(|s| s.matches(&r.labels));
        if kind == "Node" {
            let mut nodes = self.node_resources();
            nodes.retain(selected);
            return nodes;
        }
        // Cluster-scoped objects are stored with an empty namespace.
        let namespace = if is_cluster_scoped(kind) {
            Some("")
        } else {
            namespace
        };
        let wanted = |e: &&Entry| {
            let r = &e.resource;
            name.is_none_or(|name| name == r.name) && selected(r)
        };
        if let (Some(namespace), Some(name)) = (namespace, name) {
            let key = ResourceKey {
                kind: kind.to_owned(),
                namespace: namespace.to_owned(),
                name: name.to_owned(),
            };
            return self
                .resources
                .get(&key)
                .filter(wanted)
                .map(|e| self.materialize(e))
                .into_iter()
                .collect();
        }
        self.of_kind(kind, namespace)
            .map(|(_, e)| e)
            .filter(wanted)
            .map(|e| self.materialize(e))
            .collect()
    }

    /// Direct lookup by key, as [`Cluster::get`] returns the object.
    pub fn resource(&self, key: &ResourceKey) -> Option<Resource> {
        self.resources.get(key).map(|e| self.materialize(e))
    }

    /// Every stored object as [`Cluster::get`] returns it, in store order.
    pub fn all_resources(&self) -> impl Iterator<Item = Resource> + '_ {
        self.resources.values().map(|e| self.materialize(e))
    }

    fn node_resources(&self) -> Vec<Resource> {
        self.nodes
            .iter()
            .map(|n| {
                let body = yamlkit::ymap! {
                    "apiVersion" => "v1",
                    "kind" => "Node",
                    "metadata" => yamlkit::ymap! { "name" => n.name.as_str() },
                };
                let mut r = Resource::from_yaml(body, "", 0).expect("static node yaml");
                r.status = yamlkit::ymap! {
                    "addresses" => Yaml::Seq(vec![
                        yamlkit::ymap! { "type" => "InternalIP", "address" => n.ip.as_str() },
                    ]),
                    "conditions" => Yaml::Seq(vec![
                        yamlkit::ymap! { "type" => "Ready", "status" => "True" },
                    ]),
                };
                r
            })
            .collect()
    }

    // -----------------------------------------------------------------
    // Semantic validation
    // -----------------------------------------------------------------

    fn validate_semantics(&self, r: &Resource) -> Result<(), ClusterError> {
        match r.kind.as_str() {
            "Deployment" | "ReplicaSet" | "DaemonSet" | "StatefulSet" => {
                let selector = r
                    .body
                    .get_path(&["spec", "selector"])
                    .map(Selector::from_spec)
                    .unwrap_or_default();
                let template_labels: Vec<(String, String)> = r
                    .body
                    .get_path(&["spec", "template", "metadata", "labels"])
                    .map(|l| {
                        l.entries()
                            .map(|(k, v)| (k.to_owned(), v.render_scalar()))
                            .collect()
                    })
                    .unwrap_or_default();
                if !selector.is_empty() && !selector.matches(&template_labels) {
                    return Err(ClusterError::Invalid(format!(
                        "The {} \"{}\" is invalid: spec.template.metadata.labels: Invalid value: `selector` does not match template `labels`",
                        r.kind, r.name
                    )));
                }
                self.validate_pod_spec(r, &["spec", "template", "spec"])?;
            }
            "Job" => {
                let policy = r
                    .body
                    .get_path(&["spec", "template", "spec", "restartPolicy"])
                    .map(|p| p.render_scalar())
                    .unwrap_or_else(|| "Always".to_owned());
                if policy != "Never" && policy != "OnFailure" {
                    return Err(ClusterError::Invalid(format!(
                        "Job.batch \"{}\" is invalid: spec.template.spec.restartPolicy: Required value: valid values: \"OnFailure\", \"Never\"",
                        r.name
                    )));
                }
                self.validate_pod_spec(r, &["spec", "template", "spec"])?;
            }
            "Pod" => self.validate_pod_spec(r, &["spec"])?,
            "Service" => {
                let svc_type = service_type(r);
                let ports = r
                    .body
                    .get_path(&["spec", "ports"])
                    .map(|p| p.items().count())
                    .unwrap_or(0);
                if svc_type != "ExternalName" && ports == 0 {
                    return Err(ClusterError::Invalid(format!(
                        "Service \"{}\" is invalid: spec.ports: Required value",
                        r.name
                    )));
                }
                for p in r
                    .body
                    .get_path(&["spec", "ports"])
                    .into_iter()
                    .flat_map(Yaml::items)
                {
                    if let Some(port) = p.get("port").and_then(Yaml::as_i64) {
                        if !(1..=65535).contains(&port) {
                            return Err(ClusterError::Invalid(format!(
                                "Service \"{}\" is invalid: spec.ports[0].port: Invalid value: {port}",
                                r.name
                            )));
                        }
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// `ResourceQuota` admission for directly-applied pods: when a quota in
    /// the target namespace pins `spec.hard.pods`, creating a pod beyond
    /// the ceiling is refused with the API server's `Forbidden` phrasing.
    /// (Controller-created pods bypass admission here, like the real
    /// quota controller's eventual-consistency window.)
    fn enforce_pod_quota(&self, pod: &Resource) -> Result<(), ClusterError> {
        let ns = Some(pod.namespace.as_str());
        for (_, quota) in self.of_kind("ResourceQuota", ns) {
            let quota = &quota.resource;
            let Some(hard) = quota
                .body
                .get_path(&["spec", "hard", "pods"])
                .map(Yaml::render_scalar)
                .and_then(|s| s.trim().parse::<u64>().ok())
            else {
                continue;
            };
            let used = self.of_kind("Pod", ns).count() as u64;
            if used >= hard {
                return Err(ClusterError::Forbidden(format!(
                    "pods \"{}\" is forbidden: exceeded quota: {}, requested: pods=1, used: pods={used}, limited: pods={hard}",
                    pod.name, quota.name
                )));
            }
        }
        Ok(())
    }

    fn validate_pod_spec(&self, r: &Resource, path: &[&str]) -> Result<(), ClusterError> {
        let Some(spec) = r.body.get_path(path) else {
            return Ok(());
        };
        let containers = spec
            .get("containers")
            .map(|c| c.items().count())
            .unwrap_or(0);
        if containers == 0 {
            return Err(ClusterError::Invalid(format!(
                "{} \"{}\" is invalid: spec.containers: Required value",
                r.kind, r.name
            )));
        }
        // volumeMounts must reference declared volumes.
        let volumes: Vec<String> = spec
            .get("volumes")
            .map(|v| {
                v.items()
                    .filter_map(|x| x.get("name").map(Yaml::render_scalar))
                    .collect()
            })
            .unwrap_or_default();
        for c in spec.get("containers").into_iter().flat_map(Yaml::items) {
            for m in c.get("volumeMounts").into_iter().flat_map(Yaml::items) {
                let name = m.get("name").map(Yaml::render_scalar).unwrap_or_default();
                if !volumes.contains(&name) && r.kind != "StatefulSet" {
                    return Err(ClusterError::Invalid(format!(
                        "{} \"{}\" is invalid: spec.containers[0].volumeMounts[0].name: Not found: \"{name}\"",
                        r.kind, r.name
                    )));
                }
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Controllers
    // -----------------------------------------------------------------

    /// One pass of every controller at the current time, then the clock's
    /// bookkeeping: the epoch the pass started from and the next deadline.
    fn reconcile(&mut self) {
        let epoch = self.clock.epoch;
        self.reconcile_deployments();
        self.reconcile_replicasets();
        self.reconcile_daemonsets();
        self.reconcile_statefulsets();
        self.reconcile_jobs();
        self.reconcile_cronjobs();
        self.update_pods();
        self.update_workload_status();
        self.reconcile_services();
        self.reconcile_ingresses();
        self.reconcile_hpas();
        self.reconcile_istio();
        self.clock.reconciled_epoch = epoch;
        self.clock.next_deadline_ms = self.next_deadline();
        #[cfg(test)]
        {
            self.clock.reconciles += 1;
        }
    }

    /// The earliest time after now at which a controller's output changes
    /// with no store mutation: a pullable pod's pull, ready or exit time, a
    /// LoadBalancer Service's address (+2 s), an Ingress's address (+1 s),
    /// a CronJob's first minute boundary. `u64::MAX` when there is none.
    fn next_deadline(&self) -> u64 {
        let pods = self
            .of_kind("Pod", None)
            .filter_map(|(_, e)| e.runtime)
            .filter(|rt| !rt.unpullable)
            .flat_map(|rt| [Some(rt.pull_done_ms), Some(rt.ready_ms), rt.terminates_ms])
            .flatten();
        let created = |kind| self.of_kind(kind, None).map(|(_, e)| &e.resource);
        let balancers = created("Service")
            .filter(|r| service_type(r) == "LoadBalancer")
            .map(|r| r.created_at_ms + 2_000);
        let ingresses = created("Ingress").map(|r| r.created_at_ms + 1_000);
        let cronjobs = created("CronJob").map(|r| (r.created_at_ms / 60_000 + 1) * 60_000);
        pods.chain(balancers)
            .chain(ingresses)
            .chain(cronjobs)
            .filter(|&t| t > self.now_ms)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// `count` fresh pod names for `owner`: `owner-` and five letters.
    fn fresh_names(&mut self, owner: &str, count: usize) -> Vec<String> {
        let alphabet = b"abcdefghijklmnopqrstuvwxyz";
        (0..count)
            .map(|_| {
                self.name_counter += 1;
                let mut n = self.name_counter * 7919 + 13;
                let mut name = String::with_capacity(owner.len() + 6);
                name.push_str(owner);
                name.push('-');
                for _ in 0..5 {
                    name.push(alphabet[(n % 26) as usize] as char);
                    n /= 26;
                }
                name
            })
            .collect()
    }

    fn reconcile_deployments(&mut self) {
        for d in self.snapshot_of_kind("Deployment") {
            let rs_name = format!("{}-{}", d.name, template_hash(&d.body));
            let rs_key = ResourceKey {
                kind: "ReplicaSet".into(),
                namespace: d.namespace.clone(),
                name: rs_name.clone(),
            };
            if let Some(rs) = self.resources.get_mut(&rs_key) {
                // Keep replica count in sync.
                let replicas = d.replicas();
                rs.resource
                    .body
                    .get_mut("spec")
                    .map(|s| s.insert("replicas", Yaml::Int(replicas)));
                continue;
            }
            // Old replica sets from previous template hashes are scaled away.
            let stale: Vec<ResourceKey> = self
                .owned(&d.key(), Some("ReplicaSet"))
                .into_iter()
                .cloned()
                .collect();
            for key in stale {
                self.remove_resource(&key);
                self.cascade_delete(&key);
            }
            let mut body = yamlkit::ymap! {
                "apiVersion" => "apps/v1",
                "kind" => "ReplicaSet",
                "metadata" => yamlkit::ymap! {
                    "name" => rs_name.as_str(),
                    "namespace" => d.namespace.as_str(),
                    "ownerReferences" => Yaml::Seq(vec![owner_ref("Deployment", &d.name)]),
                },
                "spec" => yamlkit::ymap! { "replicas" => d.replicas() },
            };
            if let Some(selector) = d.body.get_path(&["spec", "selector"]) {
                body.get_mut("spec")
                    .unwrap()
                    .insert("selector", selector.clone());
            }
            if let Some(template) = d.body.get_path(&["spec", "template"]) {
                body.get_mut("spec")
                    .unwrap()
                    .insert("template", template.clone());
            }
            let r = Resource::from_yaml(body, &d.namespace, self.now_ms).expect("rs body");
            self.insert_resource(r);
        }
    }

    fn reconcile_replicasets(&mut self) {
        for rs in self.snapshot_of_kind("ReplicaSet") {
            let desired = rs.replicas().max(0) as usize;
            let children = self.owned(&rs.key(), Some("Pod"));
            let have = children.len();
            // Scale down from the end of the store order.
            let extra: Vec<ResourceKey> = children.into_iter().skip(desired).cloned().collect();
            for key in extra.iter().rev() {
                self.remove_resource(key);
            }
            let names = self.fresh_names(&rs.name, desired.saturating_sub(have));
            self.spawn_pods(&rs, names);
        }
    }

    fn reconcile_daemonsets(&mut self) {
        for ds in self.snapshot_of_kind("DaemonSet") {
            for node_idx in 0..self.nodes.len() {
                let node_name = self.nodes[node_idx].name.clone();
                let exists = self.owned(&ds.key(), Some("Pod")).into_iter().any(|key| {
                    self.resources[key]
                        .resource
                        .body
                        .get_path(&["spec", "nodeName"])
                        .map(Yaml::render_scalar)
                        .as_deref()
                        == Some(node_name.as_str())
                });
                if !exists {
                    let names = self.fresh_names(&ds.name, 1);
                    let name = names[0].clone();
                    if self.spawn_pods(&ds, names) {
                        let key = ResourceKey {
                            kind: "Pod".into(),
                            namespace: ds.namespace.clone(),
                            name,
                        };
                        if let Some(pod) = self.resources.get_mut(&key) {
                            pod.resource
                                .body
                                .get_mut("spec")
                                .map(|s| s.insert("nodeName", Yaml::Str(node_name)));
                        }
                    }
                }
            }
        }
    }

    fn reconcile_statefulsets(&mut self) {
        for sts in self.snapshot_of_kind("StatefulSet") {
            let desired = sts.replicas().max(0);
            let mut key = ResourceKey {
                kind: "Pod".into(),
                namespace: sts.namespace.clone(),
                name: String::new(),
            };
            let mut missing = Vec::new();
            for ordinal in 0..desired {
                key.name.clear();
                write!(key.name, "{}-{ordinal}", sts.name).expect("write to String");
                if !self.resources.contains_key(&key) {
                    missing.push(key.name.clone());
                }
            }
            self.spawn_pods(&sts, missing);
            // Scale down: remove higher ordinals.
            let extra: Vec<ResourceKey> = self
                .owned(&sts.key(), Some("Pod"))
                .into_iter()
                .filter(|k| {
                    k.name
                        .rsplit('-')
                        .next()
                        .and_then(|o| o.parse::<i64>().ok())
                        .is_some_and(|o| o >= desired)
                })
                .cloned()
                .collect();
            for key in extra {
                self.remove_resource(&key);
            }
        }
    }

    fn reconcile_jobs(&mut self) {
        for job in self.snapshot_of_kind("Job") {
            let completions = job
                .body
                .get_path(&["spec", "completions"])
                .and_then(Yaml::as_i64)
                .unwrap_or(1)
                .max(1) as usize;
            let existing = self.owned(&job.key(), Some("Pod")).len();
            let names = self.fresh_names(&job.name, completions.saturating_sub(existing));
            self.spawn_pods(&job, names);
        }
    }

    fn reconcile_cronjobs(&mut self) {
        for cj in self.snapshot_of_kind("CronJob") {
            // Simplified schedule model: one Job per simulated minute.
            let due = (self.now_ms / 60_000) > (cj.created_at_ms / 60_000)
                || self.now_ms.saturating_sub(cj.created_at_ms) >= 60_000;
            if !due {
                continue;
            }
            if !self.owned(&cj.key(), Some("Job")).is_empty() {
                continue;
            }
            let Some(job_spec) = cj.body.get_path(&["spec", "jobTemplate", "spec"]) else {
                continue;
            };
            let name = format!("{}-{}", cj.name, 28000000 + self.name_counter);
            self.name_counter += 1;
            let body = yamlkit::ymap! {
                "apiVersion" => "batch/v1",
                "kind" => "Job",
                "metadata" => yamlkit::ymap! {
                    "name" => name.as_str(),
                    "namespace" => cj.namespace.as_str(),
                    "ownerReferences" => Yaml::Seq(vec![owner_ref("CronJob", &cj.name)]),
                },
                "spec" => job_spec.clone(),
            };
            if let Ok(r) = Resource::from_yaml(body, &cj.namespace, self.now_ms) {
                self.insert_resource(r);
            }
        }
    }

    /// Creates one pod per name from `owner`'s pod template; false, and
    /// nothing created, when there is no name or no template. The template
    /// is copied once, into a prototype pod whose runtime model every pod
    /// of the batch shares; each pod is one copy of the prototype.
    fn spawn_pods(&mut self, owner: &Resource, names: Vec<String>) -> bool {
        if names.is_empty() {
            return false;
        }
        let Some(prototype) = self.pod_prototype(owner) else {
            return false;
        };
        let now = self.now_ms;
        let owners = owner_keys(&prototype.pod.namespace, &prototype.pod.body);
        for name in names {
            let mut pod = prototype.pod.clone();
            pod.name = name.clone();
            if let Some(metadata) = pod.body.get_mut("metadata") {
                metadata.insert("name", Yaml::Str(name));
            }
            self.pulls
                .extend(prototype.pulled.iter().map(|image| (image.clone(), now)));
            self.insert_owned(pod, Some(prototype.runtime), &owners);
        }
        true
    }

    /// The pod `owner`'s template describes, with an empty name for
    /// [`Cluster::spawn_pods`] to fill in, and its runtime model.
    fn pod_prototype(&self, owner: &Resource) -> Option<PodPrototype> {
        let template = owner.pod_template()?;
        let labels = template
            .get_path(&["metadata", "labels"])
            .cloned()
            .unwrap_or(Yaml::Map(vec![]));
        let mut spec = template.get("spec").cloned().unwrap_or(Yaml::Map(vec![]));
        let mut metadata = yamlkit::ymap! {
            "name" => owner.name.as_str(),
            "namespace" => owner.namespace.as_str(),
            "labels" => labels,
            "ownerReferences" => Yaml::Seq(vec![owner_ref(&owner.kind, &owner.name)]),
        };
        if let Some(anns) = template.get_path(&["metadata", "annotations"]) {
            metadata.insert("annotations", anns.clone());
        }
        if spec.get("nodeName").is_none() {
            if let Some(n) = self.nodes.first() {
                spec.insert("nodeName", Yaml::Str(n.name.clone()));
            }
        }
        let body = yamlkit::ymap! {
            "apiVersion" => "v1",
            "kind" => "Pod",
            "metadata" => metadata,
            "spec" => spec,
        };
        let mut pod = Resource::from_yaml(body, &owner.namespace, self.now_ms).ok()?;
        pod.name = String::new();
        pod.body
            .get_mut("metadata")?
            .insert("name", Yaml::Str(String::new()));
        let (runtime, pulled) = self.model_runtime(&pod);
        Some(PodPrototype {
            pod,
            runtime,
            pulled,
        })
    }

    /// Models a new pod's runtime and records its image pulls.
    fn track_pod(&mut self, pod: &Resource) -> PodRuntime {
        let (runtime, pulled) = self.model_runtime(pod);
        let now = self.now_ms;
        self.pulls
            .extend(pulled.into_iter().map(|image| (image, now)));
        runtime
    }

    /// The runtime model of a pod created now, and the images it pulls.
    fn model_runtime(&self, pod: &Resource) -> (PodRuntime, Vec<String>) {
        let mut pulled = Vec::new();
        let mut pull_ms = 0u64;
        let mut unpullable = false;
        let mut terminates: Option<u64> = None;
        let mut fails = false;
        let mut ready_delay = 200u64;
        let containers = pod.body.get_path(&["spec", "containers"]);
        for c in containers.into_iter().flat_map(Yaml::items) {
            let image = c.get("image").map(Yaml::render_scalar).unwrap_or_default();
            match images::lookup(&image) {
                Some(info) => {
                    pull_ms = pull_ms.max(images::pull_time_ms(
                        info.size_mib,
                        self.pull_bandwidth_mbps,
                    ));
                    pulled.push(image);
                    let command_finite = command_duration(c);
                    match (info.behavior, command_finite) {
                        (
                            _,
                            Some(CommandRun {
                                duration_ms,
                                fails: f,
                            }),
                        ) => {
                            terminates = Some(terminates.unwrap_or(0).max(duration_ms));
                            fails |= f;
                        }
                        (ImageBehavior::Batch, None) => {
                            // Bare shell image with no command exits at once.
                            terminates = Some(terminates.unwrap_or(0).max(300));
                        }
                        _ => {}
                    }
                }
                None => unpullable = true,
            }
            if let Some(probe) = c.get("readinessProbe") {
                let delay = probe
                    .get("initialDelaySeconds")
                    .and_then(Yaml::as_i64)
                    .unwrap_or(0)
                    .max(0) as u64;
                ready_delay = ready_delay.max(delay * 1000 + 200);
            }
        }
        let created = self.now_ms;
        let pull_done = created + pull_ms.max(300);
        let runtime = PodRuntime {
            created_ms: created,
            pull_done_ms: pull_done,
            ready_ms: pull_done + ready_delay,
            terminates_ms: terminates.map(|d| pull_done + d),
            fails,
            unpullable,
            shown: None,
            ip: None,
        };
        (runtime, pulled)
    }

    /// Brings every pod's state to the current time, and gives a pod seen
    /// for the first time its IP. The `status` a reader sees is built from
    /// these when read ([`Cluster::materialize`]); the full-scan oracle
    /// instead rebuilds every pod's stored status here, as the controller
    /// once did.
    fn update_pods(&mut self) {
        let now = self.now_ms;
        #[cfg(test)]
        let (rebuild_all, node_ip) = (self.full_scan(), self.node_ip().to_owned());
        let bounds = kind_bounds("Pod", None);
        let range = store_range(&bounds, self.full_scan());
        for entry in self
            .resources
            .range_mut::<dyn KeyView, _>(range)
            .map(|(_, e)| e)
        {
            let Some(runtime) = &mut entry.runtime else {
                continue;
            };
            if runtime.ip.is_none() {
                runtime.ip = Some(self.ip_counter);
                self.ip_counter += 1;
            }
            let state = runtime.state_at(now);
            if runtime.shown != Some(state) {
                runtime.shown = Some(state);
                self.memo.revision += 1;
            }
            #[cfg(test)]
            if rebuild_all {
                let pod = &mut entry.resource;
                let containers = pod.body.get_path(&["spec", "containers"]);
                pod.status = pod_status(runtime, containers, &node_ip, now);
                self.clock
                    .status_builds
                    .set(self.clock.status_builds.get() + 1);
            }
        }
    }

    /// `entry`'s object as a reader sees it. A pod gets the status its
    /// runtime shows, its conditions stamped at the last reconcile, which
    /// is now: every change of the clock ends with a reconcile.
    fn materialize(&self, entry: &Entry) -> Resource {
        let mut r = entry.resource.clone();
        if let (Some(runtime), false) = (&entry.runtime, self.full_scan()) {
            let containers = r.body.get_path(&["spec", "containers"]);
            r.status = pod_status(runtime, containers, self.node_ip(), self.now_ms);
            #[cfg(test)]
            self.clock
                .status_builds
                .set(self.clock.status_builds.get() + 1);
        }
        r
    }

    /// Every pod in store order, with the phase and IP its status shows,
    /// without building the status: what the network model reads.
    pub(crate) fn pod_views(&self) -> impl Iterator<Item = PodView<'_>> + '_ {
        self.of_kind("Pod", None).map(|(_, e)| {
            let pod = &e.resource;
            #[cfg(test)]
            if self.full_scan() {
                return PodView {
                    pod,
                    phase: pod.status.get("phase").and_then(Yaml::as_str),
                    ip: pod.status.get("podIP").map(Yaml::render_scalar),
                };
            }
            let runtime = e.runtime.as_ref();
            PodView {
                pod,
                phase: runtime.and_then(|rt| rt.shown).map(|state| state.phase),
                ip: runtime.and_then(|rt| rt.ip).map(pod_ip),
            }
        })
    }

    /// The stored objects of `kind` in store order. A pod's status is not
    /// stored (see [`Cluster::pod_views`]).
    pub(crate) fn stored<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Resource> + 'a {
        self.of_kind(kind, None).map(|(_, e)| &e.resource)
    }

    /// The IP of the node pods run on.
    fn node_ip(&self) -> &str {
        self.nodes.first().map_or("", |n| n.ip.as_str())
    }

    fn update_workload_status(&mut self) {
        let now = self.now_ms;
        let counts = if self.memo.counted == Some(self.memo.revision) && !self.full_scan() {
            std::mem::take(&mut self.memo.counts)
        } else {
            self.workload_counts()
        };
        for &(ref key, counts) in &counts {
            let Some(entry) = self.resources.get_mut(key) else {
                continue;
            };
            let res = &mut entry.resource;
            let PodCounts {
                total,
                ready,
                succeeded,
                failed,
            } = counts;
            match key.kind.as_str() {
                "Job" => {
                    let completions = res
                        .body
                        .get_path(&["spec", "completions"])
                        .and_then(Yaml::as_i64)
                        .unwrap_or(1);
                    res.status = yamlkit::ymap! {
                        "active" => total - succeeded - failed,
                        "succeeded" => succeeded,
                        "failed" => failed,
                    };
                    res.set_condition("Complete", succeeded >= completions, now);
                    if failed > 0 {
                        res.set_condition("Failed", true, now);
                    }
                }
                "DaemonSet" => {
                    res.status = yamlkit::ymap! {
                        "desiredNumberScheduled" => total,
                        "currentNumberScheduled" => total,
                        "numberReady" => ready,
                        "numberAvailable" => ready,
                        "numberMisscheduled" => 0i64,
                    };
                }
                _ => {
                    let desired = res.replicas();
                    res.status = yamlkit::ymap! {
                        "replicas" => total,
                        "readyReplicas" => ready,
                        "availableReplicas" => ready,
                        "updatedReplicas" => total,
                        "observedGeneration" => res.generation as i64,
                    };
                    res.set_condition("Available", ready >= desired.min(1.max(desired)), now);
                    res.set_condition("Progressing", true, now);
                }
            }
        }
        self.memo.counts = counts;
        self.memo.counted = Some(self.memo.revision);
    }

    /// Every workload's key, in store order, with the counts of the pods
    /// in its namespace it owns: directly, or for a Deployment through a
    /// ReplicaSet it owns. One pass over the pods attributes each to the
    /// workloads its `ownerReferences` name, once each.
    fn workload_counts(&self) -> Vec<(ResourceKey, PodCounts)> {
        #[cfg(test)]
        if self.full_scan() {
            return self.workload_counts_by_scan();
        }
        let keys: Vec<&ResourceKey> = WORKLOAD_KINDS
            .iter()
            .flat_map(|kind| self.of_kind(kind, None))
            .map(|(k, _)| k)
            .collect();
        let find = |kind: &str, namespace: &str, name: &str| {
            keys.binary_search_by(|k| {
                (k.kind.as_str(), k.namespace.as_str(), k.name.as_str())
                    .cmp(&(kind, namespace, name))
            })
            .ok()
        };
        // For each ReplicaSet among the workloads, the Deployments among
        // them that own it.
        let rs_owners: Vec<Vec<usize>> = keys
            .iter()
            .map(|k| {
                if k.kind != "ReplicaSet" {
                    return Vec::new();
                }
                owner_keys(&k.namespace, &self.resources[*k].resource.body)
                    .into_iter()
                    .filter(|o| o.kind == "Deployment")
                    .filter_map(|o| find(&o.kind, &o.namespace, &o.name))
                    .collect()
            })
            .collect();
        let mut counts = vec![PodCounts::default(); keys.len()];
        let mut counted_by = Vec::new();
        for (_, entry) in self.of_kind("Pod", None) {
            let pod = &entry.resource;
            counted_by.clear();
            for owner in owner_refs(&pod.body) {
                let kind = owner.get("kind").and_then(Yaml::as_str);
                let name = owner.get("name");
                if let (Some(kind), Some(name)) = (kind, name.and_then(Yaml::as_str)) {
                    counted_by.extend(find(kind, &pod.namespace, name));
                }
                if kind == Some("ReplicaSet") {
                    let rs = name.map(Yaml::render_scalar_ref).unwrap_or_default();
                    if let Some(rs) = find("ReplicaSet", &pod.namespace, &rs) {
                        counted_by.extend(&rs_owners[rs]);
                    }
                }
            }
            counted_by.sort_unstable();
            counted_by.dedup();
            let shown = entry.runtime.and_then(|rt| rt.shown);
            for &i in &counted_by {
                counts[i].add(shown.is_some_and(|s| s.ready), shown.map(|s| s.phase));
            }
        }
        keys.into_iter().cloned().zip(counts).collect()
    }

    fn reconcile_services(&mut self) {
        // Endpoint lists change only with the memo's revision.
        let unchanged = self.memo.endpoints == Some(self.memo.revision) && !self.full_scan();
        self.memo.endpoints = Some(self.memo.revision);
        for key in self.keys_of_kind("Service") {
            let svc = &self.resources[&key].resource;
            let endpoints = if unchanged { None } else { self.endpoints(svc) };
            let now = self.now_ms;
            let created = svc.created_at_ms;
            let svc_type = service_type(svc);
            // Assign stable virtual IPs/ports once.
            if svc.status.get("clusterIP").is_none() {
                let ip = format!("10.96.0.{}", self.ip_counter);
                self.ip_counter += 1;
                let node_port = if svc_type == "NodePort" || svc_type == "LoadBalancer" {
                    self.node_port_counter += 1;
                    Some(self.node_port_counter)
                } else {
                    None
                };
                let r = &mut self.resources.get_mut(&key).expect("svc key").resource;
                if r.status.is_null() {
                    r.status = Yaml::Map(vec![]);
                }
                r.status.insert("clusterIP", Yaml::Str(ip));
                if let Some(np) = node_port {
                    r.status.insert("nodePort", Yaml::Int(i64::from(np)));
                }
            }
            let r = &mut self.resources.get_mut(&key).expect("svc key").resource;
            if let Some(endpoints) = endpoints {
                r.status.insert("endpoints", endpoints);
            }
            // LoadBalancer external IP arrives after a short provisioning
            // delay, like minikube tunnel / cloud LBs.
            if svc_type == "LoadBalancer" && now.saturating_sub(created) >= 2_000 {
                r.status.insert(
                    "loadBalancer",
                    yamlkit::ymap! {
                        "ingress" => Yaml::Seq(vec![yamlkit::ymap! { "ip" => "10.110.0.10" }]),
                    },
                );
            }
        }
    }

    /// The endpoint list `svc` should show: the IPs of the ready pods its
    /// selector matches in its namespace. `None` when it shows them.
    fn endpoints(&self, svc: &Resource) -> Option<Yaml> {
        let selector = svc
            .body
            .get_path(&["spec", "selector"])
            .map(Selector::from_spec)
            .unwrap_or_default();
        let ips: Vec<String> = if selector.is_empty() {
            Vec::new()
        } else {
            self.of_kind("Pod", Some(&svc.namespace))
                .map(|(_, e)| e)
                .filter(|e| selector.matches(&e.resource.labels))
                .filter_map(|e| self.ready_pod_ip(e))
                .collect()
        };
        let shown = svc.status.get("endpoints");
        let same = shown.and_then(Yaml::seq_len) == Some(ips.len())
            && shown
                .into_iter()
                .flat_map(Yaml::items)
                .zip(&ips)
                .all(|(old, new)| old.as_str() == Some(new));
        (!same).then(|| Yaml::Seq(ips.into_iter().map(Yaml::Str).collect()))
    }

    /// The IP of a pod whose status shows it ready.
    fn ready_pod_ip(&self, pod: &Entry) -> Option<String> {
        #[cfg(test)]
        if self.full_scan() {
            let r = &pod.resource;
            return (r.condition("Ready") == Some(true))
                .then(|| r.status.get("podIP").map(Yaml::render_scalar))
                .flatten();
        }
        let runtime = pod.runtime.as_ref()?;
        runtime
            .shown
            .filter(|state| state.ready)
            .and(runtime.ip)
            .map(pod_ip)
    }

    fn reconcile_ingresses(&mut self) {
        let now = self.now_ms;
        for key in self.keys_of_kind("Ingress") {
            let r = &mut self.resources.get_mut(&key).expect("ingress key").resource;
            if r.status.is_null() {
                r.status = Yaml::Map(vec![]);
            }
            if now.saturating_sub(r.created_at_ms) >= 1_000 {
                r.status.insert(
                    "loadBalancer",
                    yamlkit::ymap! {
                        "ingress" => Yaml::Seq(vec![yamlkit::ymap! { "ip" => "192.168.49.2" }]),
                    },
                );
                // The benchmark's tests wait on a SYNCED condition.
                r.set_condition("SYNCED", true, now);
            }
        }
    }

    fn reconcile_hpas(&mut self) {
        for key in self.keys_of_kind("HorizontalPodAutoscaler") {
            let (target_kind, target_name, min) = {
                let r = &self.resources[&key].resource;
                (
                    r.body
                        .get_path(&["spec", "scaleTargetRef", "kind"])
                        .map(Yaml::render_scalar)
                        .unwrap_or_default(),
                    r.body
                        .get_path(&["spec", "scaleTargetRef", "name"])
                        .map(Yaml::render_scalar)
                        .unwrap_or_default(),
                    r.body
                        .get_path(&["spec", "minReplicas"])
                        .and_then(Yaml::as_i64)
                        .unwrap_or(1),
                )
            };
            let current = self
                .get(&target_kind, Some(&key.namespace), Some(&target_name))
                .first()
                .map(Resource::replicas)
                .unwrap_or(0);
            let r = &mut self.resources.get_mut(&key).expect("hpa key").resource;
            r.status = yamlkit::ymap! {
                "currentReplicas" => current,
                "desiredReplicas" => current.max(min),
                "currentCPUUtilizationPercentage" => 10i64,
            };
        }
    }

    fn reconcile_istio(&mut self) {
        let now = self.now_ms;
        for kind in ["DestinationRule", "Gateway", "VirtualService"] {
            for key in self.keys_of_kind(kind) {
                let r = &mut self.resources.get_mut(&key).expect("istio key").resource;
                r.set_condition("Reconciled", true, now);
            }
        }
    }
}

#[cfg(test)]
impl Cluster {
    /// A fresh cluster with the behaviour the fast paths are tested
    /// against: the stepwise clock, full store scans instead of the kind
    /// and owner indexes, and a rebuild of every pod's status on every
    /// reconcile.
    pub(crate) fn new_oracle() -> Cluster {
        let mut cluster = Cluster::new();
        cluster.clock.stepwise = true;
        cluster.clock.full_scan = true;
        cluster
    }

    /// Reconciles run so far.
    pub(crate) fn reconciles(&self) -> u64 {
        self.clock.reconciles
    }

    /// Pod statuses built so far.
    pub(crate) fn status_builds(&self) -> u64 {
        self.clock.status_builds.get()
    }

    /// `Debug` of everything but the clock's bookkeeping and the memo,
    /// with every object as a reader sees it: the state two clusters must
    /// agree on.
    pub(crate) fn state_debug(&self) -> String {
        let mut state = Cluster {
            clock: Clock::default(),
            memo: Memo::default(),
            ..self.clone()
        };
        for (stored, shown) in state.resources.values_mut().zip(self.resources.values()) {
            stored.resource = self.materialize(shown);
        }
        format!("{state:?}")
    }

    /// Panics unless every index equals its recomputation from a full
    /// scan of the store: the owner index, the kind ranges and the runtime
    /// models (on pods only). A fast cluster stores no pod status; the
    /// oracle's stored statuses show the runtime's state.
    pub(crate) fn check_indexes(&self) {
        let mut owners = OwnerIndex::new();
        for (key, e) in &self.resources {
            let r = &e.resource;
            for owner in owner_keys(&r.namespace, &r.body) {
                owners.entry(owner).or_default().insert(key.clone());
            }
            assert_eq!(
                e.runtime.is_some(),
                r.kind == "Pod",
                "runtime model of {key}"
            );
            if e.runtime.is_some() && !self.full_scan() {
                assert!(r.status.is_null(), "stored status of {key}");
            }
            if let (Some(state), true) = (e.runtime.and_then(|rt| rt.shown), self.full_scan()) {
                let phase = r.status.get("phase").and_then(Yaml::as_str);
                assert_eq!(phase, Some(state.phase), "phase of {key}");
                assert_eq!(
                    r.condition("Ready"),
                    Some(state.ready),
                    "readiness of {key}"
                );
            }
        }
        assert_eq!(owners, self.owners, "owner index");
        let ranges: BTreeSet<(&str, Option<&str>)> = self
            .resources
            .keys()
            .flat_map(|k| {
                [
                    (k.kind.as_str(), None),
                    (k.kind.as_str(), Some(k.namespace.as_str())),
                ]
            })
            .collect();
        for (kind, namespace) in ranges {
            let bounds = kind_bounds(kind, namespace);
            let ranged: Vec<&ResourceKey> = self
                .resources
                .range::<dyn KeyView, _>(store_range(&bounds, false))
                .map(|(k, _)| k)
                .collect();
            let scanned: Vec<&ResourceKey> = self
                .resources
                .keys()
                .filter(|k| in_kind(k, kind, namespace))
                .collect();
            assert_eq!(ranged, scanned, "kind range of {kind} in {namespace:?}");
        }
    }

    /// [`Cluster::workload_counts`] as the controller counted before the
    /// owner index: for each workload, a scan of the whole store.
    fn workload_counts_by_scan(&self) -> Vec<(ResourceKey, PodCounts)> {
        let stored = || self.resources.values().map(|e| &e.resource);
        stored()
            .filter(|r| WORKLOAD_KINDS.contains(&r.kind.as_str()))
            .map(|parent| {
                let mut counts = PodCounts::default();
                for pod in stored().filter(|r| {
                    r.kind == "Pod"
                        && r.namespace == parent.namespace
                        && transitively_owned(self, r, &parent.kind, &parent.name)
                }) {
                    let phase = pod.status.get("phase").and_then(Yaml::as_str);
                    counts.add(pod.condition("Ready") == Some(true), phase);
                }
                (parent.key(), counts)
            })
            .collect()
    }
}

/// The status of a pod in the state its runtime shows, every condition
/// stamped `now` (what [`Resource::set_condition`] writes); `Null` before
/// the pod's first reconcile.
fn pod_status(runtime: &PodRuntime, containers: Option<&Yaml>, node_ip: &str, now: u64) -> Yaml {
    let (
        Some(PodState {
            phase,
            ready,
            waiting_reason,
        }),
        Some(ip),
    ) = (runtime.shown, runtime.ip)
    else {
        return Yaml::Null;
    };
    let mut statuses = Vec::new();
    for c in containers.into_iter().flat_map(Yaml::items) {
        let cname = c.get("name").map(Yaml::render_scalar).unwrap_or_default();
        let image = c.get("image").map(Yaml::render_scalar).unwrap_or_default();
        let state = match (phase, waiting_reason) {
            (_, Some(reason)) => yamlkit::ymap! {
                "waiting" => yamlkit::ymap! { "reason" => reason, "message" => "" },
            },
            ("Succeeded", _) | ("Failed", _) => yamlkit::ymap! {
                "terminated" => yamlkit::ymap! {
                    "exitCode" => if runtime.fails { 1i64 } else { 0i64 },
                    "reason" => if runtime.fails { "Error" } else { "Completed" },
                },
            },
            _ => yamlkit::ymap! {
                "running" => yamlkit::ymap! { "startedAt" => format_sim_time(runtime.pull_done_ms) },
            },
        };
        statuses.push(yamlkit::ymap! {
            "name" => cname,
            "image" => image,
            "ready" => ready,
            "restartCount" => 0i64,
            "state" => state,
        });
    }
    let stamp = format_sim_time(now);
    let condition = |kind: &str, value: bool| {
        yamlkit::ymap! {
            "type" => kind,
            "status" => if value { "True" } else { "False" },
            "lastTransitionTime" => stamp.as_str(),
        }
    };
    yamlkit::ymap! {
        "phase" => phase,
        "podIP" => pod_ip(ip),
        "hostIP" => node_ip,
        "startTime" => format_sim_time(runtime.created_ms),
        "containerStatuses" => Yaml::Seq(statuses),
        "conditions" => Yaml::Seq(vec![
            condition("PodScheduled", true),
            condition("Initialized", true),
            condition("ContainersReady", ready),
            condition("Ready", ready),
        ]),
    }
}

/// The IP of the pod given IP counter value `n`.
fn pod_ip(n: u32) -> String {
    format!("10.244.0.{n}")
}

/// A Service's `spec.type`, `ClusterIP` when unset.
fn service_type(svc: &Resource) -> String {
    svc.body
        .get_path(&["spec", "type"])
        .map(Yaml::render_scalar)
        .unwrap_or_else(|| "ClusterIP".to_owned())
}

/// `metadata.ownerReferences` entry.
fn owner_ref(kind: &str, name: &str) -> Yaml {
    yamlkit::ymap! { "kind" => kind, "name" => name, "controller" => true }
}

/// The `metadata.ownerReferences` entries of an object's body.
fn owner_refs(body: &Yaml) -> impl Iterator<Item = &Yaml> {
    body.get_path(&["metadata", "ownerReferences"])
        .into_iter()
        .flat_map(Yaml::items)
}

/// The owner-index keys of an object in `namespace`: one per owner
/// reference whose kind and name are strings, the references an owner
/// lookup matches.
fn owner_keys(namespace: &str, body: &Yaml) -> Vec<ResourceKey> {
    owner_refs(body)
        .filter_map(|o| {
            Some(ResourceKey {
                kind: o.get("kind")?.as_str()?.to_owned(),
                namespace: namespace.to_owned(),
                name: o.get("name")?.as_str()?.to_owned(),
            })
        })
        .collect()
}

/// Owner key → keys of the objects whose owner references name it.
type OwnerIndex = BTreeMap<ResourceKey, BTreeSet<ResourceKey>>;

/// Adds `key` to the owner-index sets of `owners`.
fn index(index: &mut OwnerIndex, key: &ResourceKey, owners: &[ResourceKey]) {
    for owner in owners {
        match index.get_mut(owner) {
            Some(children) => {
                children.insert(key.clone());
            }
            None => {
                index.insert(owner.clone(), BTreeSet::from([key.clone()]));
            }
        }
    }
}

/// Drops `key` from the owner-index sets of `owners`, and each set it
/// leaves empty.
fn unindex(index: &mut OwnerIndex, key: &ResourceKey, owners: &[ResourceKey]) {
    for owner in owners {
        if let Some(children) = index.get_mut(owner) {
            children.remove(key);
            if children.is_empty() {
                index.remove(owner);
            }
        }
    }
}

/// One field of a store position: a string, or past every string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Part<'a> {
    Str(&'a str),
    Last,
}

/// A borrowed store position, `[kind, namespace, name]` in the store's
/// order. [`ResourceKey`] borrows as one, so a kind range is searched
/// with bounds that borrow the kind instead of owning copies of it.
trait KeyView {
    fn position(&self) -> [Part<'_>; 3];
}

impl KeyView for ResourceKey {
    fn position(&self) -> [Part<'_>; 3] {
        [
            Part::Str(&self.kind),
            Part::Str(&self.namespace),
            Part::Str(&self.name),
        ]
    }
}

impl KeyView for [Part<'_>; 3] {
    fn position(&self) -> [Part<'_>; 3] {
        *self
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for ResourceKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.position() == other.position()
    }
}

impl Eq for dyn KeyView + '_ {}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.position().cmp(&other.position())
    }
}

/// The first and the past-the-last store positions of the objects of
/// `kind` (in `namespace` when given).
fn kind_bounds<'k>(kind: &'k str, namespace: Option<&'k str>) -> [[Part<'k>; 3]; 2] {
    match namespace {
        Some(ns) => [
            [Part::Str(kind), Part::Str(ns), Part::Str("")],
            [Part::Str(kind), Part::Str(ns), Part::Last],
        ],
        None => [
            [Part::Str(kind), Part::Str(""), Part::Str("")],
            [Part::Str(kind), Part::Last, Part::Last],
        ],
    }
}

/// `bounds` as a store range, or the whole store in the full-scan oracle.
fn store_range<'b>(
    bounds: &'b [[Part<'_>; 3]; 2],
    full_scan: bool,
) -> (Bound<&'b dyn KeyView>, Bound<&'b dyn KeyView>) {
    if full_scan {
        return (Bound::Unbounded, Bound::Unbounded);
    }
    (Bound::Included(&bounds[0]), Bound::Excluded(&bounds[1]))
}

/// Whether `key` is of `kind` (and in `namespace` when given).
fn in_kind(key: &ResourceKey, kind: &str, namespace: Option<&str>) -> bool {
    key.kind == kind && namespace.is_none_or(|ns| key.namespace == ns)
}

/// Refuses a workload that asks for more than [`MAX_PODS_PER_WORKLOAD`]
/// pods.
fn enforce_workload_bound(r: &Resource) -> Result<(), ClusterError> {
    let count = |path: &[&str]| r.body.get_path(path).and_then(Yaml::as_i64);
    let requested = match r.kind.as_str() {
        "Deployment" | "ReplicaSet" | "StatefulSet" => Some(r.replicas()),
        "Job" => count(&["spec", "completions"]),
        "CronJob" => count(&["spec", "jobTemplate", "spec", "completions"]),
        _ => None,
    };
    match requested {
        Some(pods) if pods > MAX_PODS_PER_WORKLOAD => Err(ClusterError::Forbidden(format!(
            "{} \"{}\" is forbidden: exceeded quota: pods-per-workload, requested: pods={pods}, limited: pods={MAX_PODS_PER_WORKLOAD}",
            r.kind.to_lowercase(),
            r.name
        ))),
        _ => Ok(()),
    }
}

#[cfg(test)]
fn owned_by(r: &Resource, kind: &str, name: &str) -> bool {
    owner_refs(&r.body).any(|o| {
        o.get("kind").and_then(Yaml::as_str) == Some(kind)
            && o.get("name").and_then(Yaml::as_str) == Some(name)
    })
}

/// Pod owned by `kind/name` directly or through an intermediate ReplicaSet.
#[cfg(test)]
fn transitively_owned(cluster: &Cluster, pod: &Resource, kind: &str, name: &str) -> bool {
    if owned_by(pod, kind, name) {
        return true;
    }
    if kind == "Deployment" {
        // Pod -> ReplicaSet -> Deployment.
        for o in owner_refs(&pod.body) {
            if o.get("kind").and_then(Yaml::as_str) == Some("ReplicaSet") {
                let rs_name = o.get("name").map(Yaml::render_scalar).unwrap_or_default();
                let rs_key = ResourceKey {
                    kind: "ReplicaSet".into(),
                    namespace: pod.namespace.clone(),
                    name: rs_name,
                };
                if cluster
                    .resources
                    .get(&rs_key)
                    .is_some_and(|rs| owned_by(&rs.resource, "Deployment", name))
                {
                    return true;
                }
            }
        }
    }
    false
}

/// Short deterministic hash of the pod template, used in ReplicaSet names.
fn template_hash(deployment_body: &Yaml) -> String {
    let text = deployment_body
        .get_path(&["spec", "template"])
        .map(yamlkit::json::to_json)
        .unwrap_or_default();
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{:08x}", (h >> 16) as u32)
}

/// Duration model for an explicit container command.
struct CommandRun {
    duration_ms: u64,
    fails: bool,
}

/// Interprets `command`/`args` to decide whether the container terminates.
fn command_duration(container: &Yaml) -> Option<CommandRun> {
    let mut words: Vec<String> = Vec::new();
    for field in ["command", "args"] {
        if let Some(list) = container.get(field) {
            words.extend(list.items().map(Yaml::render_scalar));
        }
    }
    if words.is_empty() {
        return None;
    }
    let joined = words.join(" ");
    // Servers launched via explicit commands keep running.
    for server in [
        "nginx",
        "httpd",
        "redis-server",
        "mysqld",
        "tail -f",
        "sleep infinity",
        "http.server",
        "while true",
    ] {
        if joined.contains(server) {
            return None;
        }
    }
    if let Some(pos) = words.iter().position(|w| w == "sleep") {
        let secs = words
            .get(pos + 1)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(1.0);
        return Some(CommandRun {
            duration_ms: (secs * 1000.0) as u64 + 200,
            fails: false,
        });
    }
    let fails = joined.contains("exit 1") || joined.contains("false");
    let duration_ms = if joined.contains("echo") || joined.contains("true") {
        300
    } else {
        1500
    };
    Some(CommandRun { duration_ms, fails })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NGINX_DEPLOY: &str = "\
apiVersion: apps/v1
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
        - containerPort: 80
";

    #[test]
    fn deployment_spawns_ready_pods() {
        let mut c = Cluster::new();
        c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        c.advance(15_000);
        let pods = c.select(
            "Pod",
            Some("default"),
            &Selector::parse_cli("app=nginx").unwrap(),
        );
        assert_eq!(pods.len(), 3);
        assert!(pods.iter().all(|p| p.condition("Ready") == Some(true)));
        let d = c
            .get("Deployment", Some("default"), Some("nginx-deployment"))
            .pop()
            .unwrap();
        assert_eq!(d.status.get("readyReplicas"), Some(&Yaml::Int(3)));
    }

    #[test]
    fn scale_down_removes_pods() {
        let mut c = Cluster::new();
        c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        c.advance(10_000);
        let scaled = NGINX_DEPLOY.replace("replicas: 3", "replicas: 1");
        c.apply_manifest(&scaled, "default").unwrap();
        c.advance(2_000);
        let pods = c.select(
            "Pod",
            Some("default"),
            &Selector::parse_cli("app=nginx").unwrap(),
        );
        assert_eq!(pods.len(), 1);
    }

    #[test]
    fn unknown_image_never_ready() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: bad\nspec:\n  containers:\n  - name: c\n    image: not-a-real-image:v9\n",
            "default",
        )
        .unwrap();
        c.advance(120_000);
        let pod = c.get("Pod", Some("default"), Some("bad")).pop().unwrap();
        assert_eq!(
            pod.status.get("phase").and_then(Yaml::as_str),
            Some("Pending")
        );
        assert_eq!(pod.condition("Ready"), Some(false));
        let reason = pod
            .status
            .get("containerStatuses")
            .and_then(|s| s.idx(0))
            .and_then(|c| c.get_path(&["state", "waiting", "reason"]))
            .and_then(Yaml::as_str);
        assert_eq!(reason, Some("ImagePullBackOff"));
    }

    #[test]
    fn job_completes() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: batch/v1\nkind: Job\nmetadata:\n  name: pi\nspec:\n  template:\n    spec:\n      containers:\n      - name: pi\n        image: perl\n        command: [\"perl\", \"-e\", \"print 1\"]\n      restartPolicy: Never\n  backoffLimit: 4\n",
            "default",
        )
        .unwrap();
        c.advance(60_000);
        let job = c.get("Job", Some("default"), Some("pi")).pop().unwrap();
        assert_eq!(job.status.get("succeeded"), Some(&Yaml::Int(1)));
        assert_eq!(job.condition("Complete"), Some(true));
    }

    #[test]
    fn job_requires_restart_policy() {
        let mut c = Cluster::new();
        let err = c
            .apply_manifest(
                "apiVersion: batch/v1\nkind: Job\nmetadata:\n  name: j\nspec:\n  template:\n    spec:\n      containers:\n      - name: x\n        image: busybox\n",
                "default",
            )
            .unwrap_err();
        assert!(err.to_string().contains("restartPolicy"));
    }

    #[test]
    fn daemonset_runs_one_pod_per_node() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: apps/v1\nkind: DaemonSet\nmetadata:\n  name: proxy\nspec:\n  selector:\n    matchLabels:\n      app: proxy\n  template:\n    metadata:\n      labels:\n        app: proxy\n    spec:\n      containers:\n      - name: c\n        image: nginx\n",
            "default",
        )
        .unwrap();
        c.advance(10_000);
        let pods = c.select(
            "Pod",
            Some("default"),
            &Selector::parse_cli("app=proxy").unwrap(),
        );
        assert_eq!(pods.len(), c.nodes().len());
        let ds = c
            .get("DaemonSet", Some("default"), Some("proxy"))
            .pop()
            .unwrap();
        assert_eq!(ds.status.get("numberReady"), Some(&Yaml::Int(1)));
    }

    #[test]
    fn statefulset_ordinal_names() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: apps/v1\nkind: StatefulSet\nmetadata:\n  name: db\nspec:\n  serviceName: db\n  replicas: 2\n  selector:\n    matchLabels:\n      app: db\n  template:\n    metadata:\n      labels:\n        app: db\n    spec:\n      containers:\n      - name: c\n        image: mysql\n",
            "default",
        )
        .unwrap();
        c.advance(15_000);
        assert!(c.get("Pod", Some("default"), Some("db-0")).len() == 1);
        assert!(c.get("Pod", Some("default"), Some("db-1")).len() == 1);
    }

    #[test]
    fn service_collects_ready_endpoints_and_lb_ip() {
        let mut c = Cluster::new();
        c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        c.apply_manifest(
            "apiVersion: v1\nkind: Service\nmetadata:\n  name: nginx-service\nspec:\n  selector:\n    app: nginx\n  ports:\n  - port: 80\n    targetPort: 80\n  type: LoadBalancer\n",
            "default",
        )
        .unwrap();
        c.advance(15_000);
        let svc = c
            .get("Service", Some("default"), Some("nginx-service"))
            .pop()
            .unwrap();
        assert_eq!(svc.status.get("endpoints").unwrap().seq_len(), Some(3));
        assert!(svc.status.get_path(&["loadBalancer", "ingress"]).is_some());
    }

    #[test]
    fn namespace_must_exist() {
        let mut c = Cluster::new();
        let manifest = NGINX_DEPLOY.replace("name: nginx-deployment", "name: d\n  namespace: dev");
        let err = c.apply_manifest(&manifest, "default").unwrap_err();
        assert_eq!(err, ClusterError::NamespaceNotFound("dev".into()));
        c.create_namespace("dev").unwrap();
        assert!(c.apply_manifest(&manifest, "default").is_ok());
    }

    #[test]
    fn selector_template_mismatch_rejected() {
        let mut c = Cluster::new();
        let bad = NGINX_DEPLOY.replace("app: nginx\n  template", "app: other\n  template");
        let err = c.apply_manifest(&bad, "default").unwrap_err();
        assert!(err.to_string().contains("does not match template"), "{err}");
    }

    #[test]
    fn wrong_api_version_is_no_kind_match() {
        let mut c = Cluster::new();
        let bad = NGINX_DEPLOY.replace("apps/v1", "apps/v1beta1");
        let err = c.apply_manifest(&bad, "default").unwrap_err();
        assert_eq!(
            err.to_string(),
            "no matches for kind \"Deployment\" in version \"apps/v1beta1\""
        );
    }

    #[test]
    fn strict_decoding_error_message_matches_api_server() {
        let mut c = Cluster::new();
        let err = c
            .apply_manifest(
                "apiVersion: networking.k8s.io/v1\nkind: Ingress\nmetadata:\n  name: i\nspec:\n  rules:\n  - http:\n      paths:\n      - path: /\n        pathType: Prefix\n        backend:\n          serviceName: app\n          servicePort: 5000\n",
                "default",
            )
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.starts_with(
                "Ingress in version \"v1\" cannot be handled as a Ingress: strict decoding error:"
            ),
            "{msg}"
        );
        assert!(msg.contains("unknown field \"spec.rules[0].http.paths[0].backend.serviceName\""));
    }

    #[test]
    fn delete_cascades() {
        let mut c = Cluster::new();
        c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        c.advance(10_000);
        c.delete("deployment", "default", "nginx-deployment")
            .unwrap();
        assert!(c.get("Pod", Some("default"), None).is_empty());
        assert!(c.get("ReplicaSet", Some("default"), None).is_empty());
    }

    #[test]
    fn apply_is_idempotent() {
        let mut c = Cluster::new();
        let m1 = c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        assert_eq!(m1, vec!["deployment/nginx-deployment created"]);
        let m2 = c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        assert_eq!(m2, vec!["deployment/nginx-deployment unchanged"]);
    }

    #[test]
    fn cronjob_spawns_job_after_a_minute() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: batch/v1\nkind: CronJob\nmetadata:\n  name: tick\nspec:\n  schedule: \"* * * * *\"\n  jobTemplate:\n    spec:\n      template:\n        spec:\n          containers:\n          - name: c\n            image: busybox\n            command: [\"echo\", \"hi\"]\n          restartPolicy: OnFailure\n",
            "default",
        )
        .unwrap();
        c.advance(70_000);
        let jobs = c.get("Job", Some("default"), None);
        assert_eq!(jobs.len(), 1);
        assert!(jobs[0].name.starts_with("tick-"));
    }

    #[test]
    fn pod_gets_ips() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: Pod\nmetadata:\n  name: p\nspec:\n  containers:\n  - name: c\n    image: nginx\n",
            "default",
        )
        .unwrap();
        c.advance(8_000);
        let pod = c.get("Pod", Some("default"), Some("p")).pop().unwrap();
        assert!(pod
            .status
            .get("podIP")
            .map(Yaml::render_scalar)
            .unwrap()
            .starts_with("10.244."));
        assert_eq!(
            pod.status.get("hostIP").map(Yaml::render_scalar).as_deref(),
            Some("192.168.49.2")
        );
    }

    #[test]
    fn pod_quota_is_enforced_on_direct_applies() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: ResourceQuota\nmetadata:\n  name: team-quota\nspec:\n  hard:\n    pods: \"1\"\n",
            "default",
        )
        .unwrap();
        let pod = |name: &str| {
            format!(
                "apiVersion: v1\nkind: Pod\nmetadata:\n  name: {name}\nspec:\n  containers:\n  - name: c\n    image: nginx\n"
            )
        };
        c.apply_manifest(&pod("one"), "default").unwrap();
        let err = c.apply_manifest(&pod("two"), "default").unwrap_err();
        assert_eq!(
            err.to_string(),
            "pods \"two\" is forbidden: exceeded quota: team-quota, requested: pods=1, used: pods=1, limited: pods=1"
        );
        // Re-applying the existing pod is an update, not a new creation.
        c.apply_manifest(&pod("one"), "default").unwrap();
    }

    #[test]
    fn workloads_over_the_pod_bound_are_refused_before_any_pod_exists() {
        let job = "apiVersion: batch/v1\nkind: Job\nmetadata:\n  name: many\nspec:\n  completions: 1000000\n  template:\n    spec:\n      containers:\n      - name: c\n        image: busybox\n        command: [\"echo\", \"hi\"]\n      restartPolicy: Never\n";
        let cases = [
            (
                NGINX_DEPLOY.replace("replicas: 3", "replicas: 1000000"),
                "deployment \"nginx-deployment\" is forbidden: exceeded quota: pods-per-workload, requested: pods=1000000, limited: pods=10000",
            ),
            (
                job.to_owned(),
                "job \"many\" is forbidden: exceeded quota: pods-per-workload, requested: pods=1000000, limited: pods=10000",
            ),
        ];
        for (manifest, message) in cases {
            let mut c = Cluster::new();
            let err = c.apply_manifest(&manifest, "default").unwrap_err();
            assert_eq!(err, ClusterError::Forbidden(message.to_owned()));
            c.advance(60_000);
            assert_eq!(c.all_resources().count(), 0, "{manifest}");
        }
    }

    #[test]
    fn pod_bound_covers_every_pod_count_field_and_admits_the_bound() {
        let resource = |manifest: &str| {
            let body = yamlkit::parse_one(manifest).unwrap().to_value();
            Resource::from_yaml(body, "default", 0).unwrap()
        };
        let at = MAX_PODS_PER_WORKLOAD;
        let over = MAX_PODS_PER_WORKLOAD + 1;
        for (kind, field) in [
            ("Deployment", "spec:\n  replicas"),
            ("ReplicaSet", "spec:\n  replicas"),
            ("StatefulSet", "spec:\n  replicas"),
            ("Job", "spec:\n  completions"),
            (
                "CronJob",
                "spec:\n  jobTemplate:\n    spec:\n      completions",
            ),
        ] {
            let manifest = |n: i64| {
                format!("apiVersion: v1\nkind: {kind}\nmetadata:\n  name: w\n{field}: {n}\n")
            };
            assert!(
                enforce_workload_bound(&resource(&manifest(at))).is_ok(),
                "{kind}"
            );
            let err = enforce_workload_bound(&resource(&manifest(over))).unwrap_err();
            assert!(
                err.to_string()
                    .contains("exceeded quota: pods-per-workload"),
                "{kind}: {err}"
            );
        }
        let daemons = "apiVersion: apps/v1\nkind: DaemonSet\nmetadata:\n  name: d\nspec:\n  replicas: 1000000\n";
        assert!(enforce_workload_bound(&resource(daemons)).is_ok());
    }

    #[test]
    fn owner_index_follows_applies_that_change_owner_references() {
        let mut c = Cluster::new();
        c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        let rs = c.get("ReplicaSet", Some("default"), None).pop().unwrap();
        let pod = |owner: &str| {
            format!(
                "apiVersion: v1\nkind: Pod\nmetadata:\n  name: adopted\n  labels:\n    app: nginx\n{owner}spec:\n  containers:\n  - name: c\n    image: nginx\n"
            )
        };
        let owned = format!(
            "  ownerReferences:\n  - kind: ReplicaSet\n    name: {}\n",
            rs.name
        );
        c.apply_manifest(&pod(&owned), "default").unwrap();
        c.check_indexes();
        // The adopted pod counts toward the Deployment through its
        // ReplicaSet, and the ReplicaSet scales one of its own pods away.
        c.advance(15_000);
        let d = c.get("Deployment", Some("default"), None).pop().unwrap();
        assert_eq!(d.status.get("replicas"), Some(&Yaml::Int(3)));
        assert!(c.get("Pod", Some("default"), Some("adopted")).len() == 1);
        c.apply_manifest(&pod(""), "default").unwrap();
        c.check_indexes();
        c.advance(15_000);
        let d = c.get("Deployment", Some("default"), None).pop().unwrap();
        assert_eq!(d.status.get("replicas"), Some(&Yaml::Int(3)));
        assert_eq!(c.get("Pod", Some("default"), None).len(), 4);
    }

    #[test]
    fn namespace_delete_drops_its_pod_runtimes() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: v1\nkind: Namespace\nmetadata:\n  name: dev\n",
            "default",
        )
        .unwrap();
        let in_dev = NGINX_DEPLOY.replace("name: nginx-deployment", "name: d\n  namespace: dev");
        c.apply_manifest(&in_dev, "default").unwrap();
        c.apply_manifest(NGINX_DEPLOY, "default").unwrap();
        c.advance(250);
        let runtimes = |c: &Cluster| -> Vec<ResourceKey> {
            c.resources
                .iter()
                .filter(|(_, e)| e.runtime.is_some())
                .map(|(k, _)| k.clone())
                .collect()
        };
        assert_eq!(runtimes(&c).len(), 6);
        c.delete("namespace", "", "dev").unwrap();
        assert!(runtimes(&c).iter().all(|k| k.namespace == "default"));
        assert_eq!(runtimes(&c).len(), 3);
        // Once the default pods are ready, nothing is left to wake for:
        // no deadline of a deleted pod lingers.
        c.advance(15_000);
        assert_eq!(c.next_event_ms(), u64::MAX);
    }

    #[test]
    fn istio_resources_reconcile() {
        let mut c = Cluster::new();
        c.apply_manifest(
            "apiVersion: networking.istio.io/v1alpha3\nkind: DestinationRule\nmetadata:\n  name: ratings\nspec:\n  host: ratings\n  trafficPolicy:\n    loadBalancer:\n      simple: LEAST_REQUEST\n",
            "default",
        )
        .unwrap();
        c.advance(1_000);
        let dr = c
            .get("DestinationRule", Some("default"), Some("ratings"))
            .pop()
            .unwrap();
        assert_eq!(dr.condition("Reconciled"), Some(true));
    }
}
