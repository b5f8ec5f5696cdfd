//! The problem schema (§2.1): prompt template + NL description + optional
//! YAML context + labeled reference YAML + bash unit test.

use yamlkit::Yaml;

use crate::stats::token_count;

/// Application category, matching Table 2's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Kubernetes `Pod` problems.
    Pod,
    /// Kubernetes `DaemonSet` problems.
    DaemonSet,
    /// Kubernetes `Service` problems.
    Service,
    /// Kubernetes `Job` problems.
    Job,
    /// Kubernetes `Deployment` problems.
    Deployment,
    /// Other Kubernetes kinds (ConfigMap, RBAC, Ingress, ...).
    KubernetesOther,
    /// Envoy static configurations.
    Envoy,
    /// Istio CRDs.
    Istio,
}

impl Category {
    /// Table 2 column header.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Pod => "pod",
            Category::DaemonSet => "daemonset",
            Category::Service => "service",
            Category::Job => "job",
            Category::Deployment => "deployment",
            Category::KubernetesOther => "others",
            Category::Envoy => "Envoy",
            Category::Istio => "Istio",
        }
    }

    /// Top-level application (Figure 6's first panel).
    pub fn application(&self) -> Application {
        match self {
            Category::Envoy => Application::Envoy,
            Category::Istio => Application::Istio,
            _ => Application::Kubernetes,
        }
    }

    /// Target problem counts from Table 2.
    pub fn target_counts() -> [(Category, usize); 8] {
        [
            (Category::Pod, 48),
            (Category::DaemonSet, 55),
            (Category::Service, 20),
            (Category::Job, 19),
            (Category::Deployment, 19),
            (Category::KubernetesOther, 122),
            (Category::Envoy, 41),
            (Category::Istio, 13),
        ]
    }
}

/// Application grouping used in the per-application analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Application {
    /// Kubernetes (includes the `others` kinds).
    Kubernetes,
    /// Envoy proxy configuration.
    Envoy,
    /// Istio service mesh CRDs.
    Istio,
}

/// Dataset variant after practical augmentation (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The hand-written original question.
    Original,
    /// Concise/abbreviated rewriting.
    Simplified,
    /// Native-language (Chinese) rewriting.
    Translated,
}

impl Variant {
    /// All three variants, in Table 1/5 order.
    pub const ALL: [Variant; 3] = [Variant::Original, Variant::Simplified, Variant::Translated];

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Original => "Original",
            Variant::Simplified => "Simplified",
            Variant::Translated => "Translated",
        }
    }
}

/// One benchmark problem.
///
/// Besides its generated texts, a problem carries the artefacts that
/// depend on nothing but those texts, derived once by [`Problem::new`]:
/// the reference's value tree, its label-stripped text and line count,
/// and the token count of each variant's description. Every generation,
/// calibration and record assembly reads them instead of re-deriving them.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Stable identifier, e.g. `pod-007`.
    pub id: String,
    /// Application category.
    pub category: Category,
    /// Original English problem description.
    description: String,
    /// Optional YAML context shown with the question (§2.1: infilling /
    /// modification / extension problems).
    pub context_yaml: Option<String>,
    /// Reference solution with `# *` / `# v in [...]` match labels.
    ///
    /// Public for reading: the benchmark crate outside this workspace
    /// reads it as a field. The derived artefacts below are computed from
    /// it once, by [`Problem::new`]; editing it afterwards does not update
    /// them, so build a new problem instead.
    pub labeled_reference: String,
    /// Bash unit-test script; echoes `unit_test_passed` on success.
    pub unit_test: String,
    /// Pre-computed simplified description (manually-reviewed-equivalent).
    simplified: String,
    /// Pre-computed translated description.
    translated: String,
    /// Values of the reference's documents (labels are comments, so the
    /// labeled and the clean text parse to the same tree); empty when the
    /// reference does not parse.
    reference_tree: Vec<Yaml>,
    /// `cescore::strip_label_comments(labeled_reference)`.
    clean_reference: String,
    reference_lines: usize,
    /// [`token_count`] of each variant's description, in `Variant::ALL`
    /// order.
    description_tokens: [usize; 3],
}

impl Problem {
    /// A problem from its texts; `descriptions` are the original,
    /// simplified and translated question, in [`Variant::ALL`] order.
    /// Parses `labeled_reference` once to derive the reference artefacts.
    pub fn new(
        id: String,
        category: Category,
        descriptions: [String; 3],
        context_yaml: Option<String>,
        labeled_reference: String,
        unit_test: String,
    ) -> Problem {
        let (reference_tree, clean_reference) = cescore::parse_and_strip_labels(&labeled_reference);
        let reference_lines = clean_reference.lines().count();
        let description_tokens = descriptions.each_ref().map(|d| token_count(d));
        let [description, simplified, translated] = descriptions;
        Problem {
            id,
            category,
            description,
            context_yaml,
            labeled_reference,
            unit_test,
            simplified,
            translated,
            reference_tree,
            clean_reference,
            reference_lines,
            description_tokens,
        }
    }

    /// The description text for a dataset variant.
    pub fn description_for(&self, variant: Variant) -> &str {
        match variant {
            Variant::Original => &self.description,
            Variant::Simplified => &self.simplified,
            Variant::Translated => &self.translated,
        }
    }

    /// [`token_count`] of [`Problem::description_for`] `variant`.
    pub fn description_tokens(&self, variant: Variant) -> usize {
        // `variant as usize` is the variant's position in `Variant::ALL`.
        self.description_tokens[variant as usize]
    }

    /// The full prompt body (description plus fenced YAML context), before
    /// the Appendix B template is prepended.
    pub fn prompt_body(&self, variant: Variant) -> String {
        let mut s = self.description_for(variant).to_owned();
        if let Some(ctx) = &self.context_yaml {
            s.push_str("\n```\n");
            s.push_str(ctx);
            s.push_str("```\n");
        }
        s
    }

    /// Reference solution with the grading labels stripped — what a
    /// perfect answer looks like.
    pub fn clean_reference(&self) -> &str {
        &self.clean_reference
    }

    /// The values of the reference's documents, in order; empty when the
    /// reference does not parse.
    pub fn reference_tree(&self) -> &[Yaml] {
        &self.reference_tree
    }

    /// Whether the question ships a YAML context (Figure 6's "Code
    /// Context" panel).
    pub fn has_context(&self) -> bool {
        self.context_yaml.is_some()
    }

    /// Lines in the reference solution (Figure 6's length buckets).
    pub fn reference_lines(&self) -> usize {
        self.reference_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Problem {
        Problem::new(
            "pod-000".into(),
            Category::Pod,
            ["Write a pod.".into(), "pod pls".into(), "写一个 pod".into()],
            Some("kind: Pod\n".into()),
            "kind: Pod\nmetadata:\n  name: x # *\n".into(),
            "echo unit_test_passed".into(),
        )
    }

    #[test]
    fn variant_descriptions() {
        let p = sample();
        assert_eq!(p.description_for(Variant::Original), "Write a pod.");
        assert_eq!(p.description_for(Variant::Simplified), "pod pls");
        assert_eq!(p.description_for(Variant::Translated), "写一个 pod");
    }

    #[test]
    fn prompt_body_includes_context() {
        let p = sample();
        let body = p.prompt_body(Variant::Original);
        assert!(body.contains("```\nkind: Pod"));
    }

    #[test]
    fn clean_reference_strips_labels() {
        let p = sample();
        assert_eq!(p.clean_reference(), "kind: Pod\nmetadata:\n  name: x\n");
    }

    #[test]
    fn table2_counts_sum_to_337() {
        let total: usize = Category::target_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 337);
    }
}
