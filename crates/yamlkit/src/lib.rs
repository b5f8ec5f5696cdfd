//! # yamlkit
//!
//! A self-contained YAML engine for the CloudEval-YAML reproduction: the
//! document model ([`Yaml`]), a parser for the cloud-native YAML dialect
//! ([`parse`] / [`parse_one`], with comments preserved on [`Node`]s), a
//! canonical emitter ([`emit`]), CloudEval reference match labels
//! ([`labels::MatchTree`]), compact/pretty JSON rendering ([`json`]), and
//! the JSONPath subset `kubectl -o jsonpath` queries need ([`path`]).
//!
//! The paper's benchmark pipeline leans on exactly these pieces: the
//! YAML-aware metrics load documents order-insensitively (§3.2), the
//! reference files carry `# *` / `# v in [...]` labels (§2.1), and unit
//! tests interrogate cluster state through JSONPath (§3.2, Appendix C).
//!
//! # Examples
//!
//! ```
//! use yamlkit::{labels::MatchTree, Yaml};
//!
//! let reference = "kind: Service\nmetadata:\n  name: web # *\nspec:\n  port: 80\n";
//! let candidate = "metadata:\n  name: anything\nkind: Service\nspec:\n  port: 80\n";
//!
//! let tree = MatchTree::parse(reference)?;
//! let cand = yamlkit::parse_one(candidate)?.to_value();
//! assert_eq!(tree.iou(&cand), 1.0);
//! # Ok::<(), yamlkit::ParseYamlError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arena;
pub mod doc;
pub mod emitter;
pub mod intern;
pub mod json;
pub mod labels;
pub mod parser;
pub mod path;
mod value;

pub use arena::ArenaDoc;
pub use doc::PreparedDoc;
pub use emitter::{emit, emit_all};
pub use parser::{parse, parse_legacy, parse_one, Node, NodeKind, ParseYamlError};
pub use value::Yaml;
