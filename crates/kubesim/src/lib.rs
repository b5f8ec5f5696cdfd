//! # kubesim
//!
//! An in-memory Kubernetes cluster simulator standing in for the minikube
//! clusters CloudEval-YAML's function-level evaluation runs against (§3.2:
//! "Minikube offers the capability to set up virtual Kubernetes clusters
//! within a local testing environment. The kubectl command set ...
//! functions identically on these virtual clusters").
//!
//! What it provides:
//!
//! * [`Cluster`] — resource store + simulated clock + controller loops
//!   (Deployment→ReplicaSet→Pod, DaemonSet, StatefulSet, Job, CronJob,
//!   Service endpoints, Ingress, HPA, Istio CRDs);
//! * strict-decoding [`schema`]s that reproduce the API server's
//!   unknown-field errors (the paper's Appendix C.3 debugging problem);
//! * a [`kubectl`] facade with the verbs the unit-test scripts use
//!   (apply, create, get, wait, describe, delete, logs, exec and
//!   `rollout status`) and JSONPath output;
//! * [`net::curl`] — simulated cluster networking for functional probes.
//!
//! Time is virtual: `kubectl wait --timeout=60s` advances the simulated
//! clock, nothing sleeps for real, and the clock reconciles only at ticks
//! where the cluster can change (see [`Cluster::advance`]).
//!
//! A reconcile's cost does not grow with the store once per workload. The
//! store is ordered by kind, namespace and name, so each kind is one range
//! of it (the kind index), and an owner index maps each owner named in an
//! `ownerReferences` entry to the objects naming it. The private
//! insert, remove and in-place update of an object are the only changes to
//! which objects exist or whom they name as owners, and they maintain the
//! owner index (see the [`cluster`] module). A pod's status is built when it
//! is read, from the state the reconcile keeps in the pod's runtime model.
//! Admission refuses a workload that asks for more than
//! [`cluster::MAX_PODS_PER_WORKLOAD`] pods.
//!
//! # Examples
//!
//! ```
//! use kubesim::{kubectl, Cluster};
//!
//! let mut cluster = Cluster::new();
//! let manifest = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n  - name: c\n    image: nginx\n    ports:\n    - containerPort: 80\n      hostPort: 5000\n";
//! let args: Vec<String> = "apply -f -".split_whitespace().map(str::to_owned).collect();
//! let result = kubectl::run(&mut cluster, &args, manifest, &|_| None);
//! assert_eq!(result.stdout, "pod/web created\n");
//!
//! cluster.advance(10_000);
//! let response = kubesim::net::curl(&cluster, "192.168.49.2:5000").unwrap();
//! assert_eq!(response.status, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod clock_oracle;
pub mod cluster;
pub mod images;
pub mod kubectl;
pub mod net;
pub mod resources;
pub mod schema;
pub mod selector;

pub use cluster::{Cluster, ClusterError, NodeInfo};
pub use kubectl::{run as run_kubectl, KubectlResult};
pub use resources::{Resource, ResourceKey};
