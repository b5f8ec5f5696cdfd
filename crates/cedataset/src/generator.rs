//! Deterministic dataset generation: 337 problems with the exact category
//! counts of Table 2, expandable to the 1011-problem three-variant set.

use crate::problem::{Category, Problem, Variant};
use crate::{templates_k8s, templates_mesh};

/// The generated CloudEval-YAML dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    problems: Vec<Problem>,
}

impl Dataset {
    /// Generates the full 337-problem dataset. Generation is pure —
    /// calling twice yields identical problems.
    pub fn generate() -> Dataset {
        let mut problems = Vec::with_capacity(337);
        for (category, count) in Category::target_counts() {
            for i in 0..count {
                problems.push(match category {
                    Category::Pod => templates_k8s::pod(i),
                    Category::DaemonSet => templates_k8s::daemonset(i),
                    Category::Service => templates_k8s::service(i),
                    Category::Job => templates_k8s::job(i),
                    Category::Deployment => templates_k8s::deployment(i),
                    Category::KubernetesOther => templates_k8s::others(i),
                    Category::Envoy => templates_mesh::envoy(i),
                    Category::Istio => templates_mesh::istio(i),
                });
            }
        }
        Dataset { problems }
    }

    /// The base dataset plus the extended scenario families (CronJob
    /// policies, autoscaling/v2 HPAs, multi-path Ingresses, NetworkPolicy
    /// allow rules, ConfigMap-backed volumes): `extra` problems appended
    /// after the 337, cycling over the five families deterministically.
    ///
    /// The paper-faithful counts of [`Dataset::generate`] are untouched —
    /// the extension is how the benchmark grows toward "as many scenarios
    /// as you can imagine" without disturbing Table 1/2 reproduction.
    pub fn generate_extended(extra: usize) -> Dataset {
        let mut ds = Dataset::generate();
        ds.problems
            .extend((0..extra).map(crate::templates_k8s::scenario));
        ds
    }

    /// The problems in stable order.
    pub fn problems(&self) -> &[Problem] {
        &self.problems
    }

    /// Number of base problems (337).
    pub fn len(&self) -> usize {
        self.problems.len()
    }

    /// Whether the dataset is empty (never, after generation).
    pub fn is_empty(&self) -> bool {
        self.problems.is_empty()
    }

    /// Problems of one category.
    pub fn by_category(&self, category: Category) -> impl Iterator<Item = &Problem> {
        self.problems.iter().filter(move |p| p.category == category)
    }

    /// Looks up a problem by id.
    pub fn get(&self, id: &str) -> Option<&Problem> {
        self.problems.iter().find(|p| p.id == id)
    }

    /// Expands to the full 1011-entry benchmark: every problem in all
    /// three variants (the paper's 337 × {original, simplified,
    /// translated}).
    pub fn expanded(&self) -> Vec<(&Problem, Variant)> {
        let mut out = Vec::with_capacity(self.problems.len() * 3);
        for variant in Variant::ALL {
            for p in &self.problems {
                out.push((p, variant));
            }
        }
        out
    }
}

impl Default for Dataset {
    fn default() -> Self {
        Dataset::generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_counts_match_table_2() {
        let ds = Dataset::generate();
        assert_eq!(ds.len(), 337);
        for (cat, expected) in Category::target_counts() {
            assert_eq!(ds.by_category(cat).count(), expected, "{cat:?}");
        }
    }

    #[test]
    fn expanded_is_1011() {
        let ds = Dataset::generate();
        assert_eq!(ds.expanded().len(), 1011);
    }

    #[test]
    fn ids_are_unique() {
        let ds = Dataset::generate_extended(30);
        let mut ids: Vec<&str> = ds.problems().iter().map(|p| p.id.as_str()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn extended_dataset_appends_scenarios() {
        let ds = Dataset::generate_extended(30);
        assert_eq!(ds.len(), 367);
        let scenarios: Vec<&Problem> = ds
            .problems()
            .iter()
            .filter(|p| p.id.starts_with("scn-"))
            .collect();
        assert_eq!(scenarios.len(), 30);
        // All five families represented.
        for family in ["cmvol", "cronjob", "hpa", "ingress", "netpol"] {
            assert!(
                scenarios
                    .iter()
                    .any(|p| p.id.starts_with(&format!("scn-{family}-"))),
                "missing {family}"
            );
        }
        // Extended generation is deterministic too.
        assert_eq!(ds, Dataset::generate_extended(30));
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Dataset::generate(), Dataset::generate());
    }

    #[test]
    fn every_reference_is_valid_labeled_yaml() {
        let ds = Dataset::generate();
        for p in ds.problems() {
            let parsed = yamlkit::parse(&p.labeled_reference);
            assert!(parsed.is_ok(), "{}: {:?}", p.id, parsed.err());
            // And it round-trips through the wildcard-match tree at 1.0.
            let score = cescore::kv_wildcard_match(&p.labeled_reference, p.clean_reference());
            assert!(
                (score - 1.0).abs() < 1e-9,
                "{}: reference does not match itself: {score}",
                p.id
            );
        }
    }

    #[test]
    fn derived_artefacts_match_their_texts() {
        let values = |text: &str| -> Vec<yamlkit::Yaml> {
            yamlkit::parse(text)
                .expect("reference parses")
                .iter()
                .map(yamlkit::Node::to_value)
                .collect()
        };
        for p in Dataset::generate_extended(30).problems() {
            let clean = cescore::strip_label_comments(&p.labeled_reference);
            assert_eq!(p.clean_reference(), clean, "{}", p.id);
            assert_eq!(p.reference_tree(), values(&p.labeled_reference), "{}", p.id);
            assert_eq!(p.reference_tree(), values(&clean), "{}", p.id);
            assert_eq!(p.reference_lines(), clean.lines().count(), "{}", p.id);
            for v in Variant::ALL {
                let tokens = crate::stats::token_count(p.description_for(v));
                assert_eq!(p.description_tokens(v), tokens, "{} {v:?}", p.id);
            }
        }
    }

    #[test]
    fn descriptions_are_nonempty_and_variants_differ() {
        let ds = Dataset::generate();
        for p in ds.problems() {
            assert!(!p.description_for(Variant::Original).is_empty(), "{}", p.id);
            assert!(
                !p.description_for(Variant::Simplified).is_empty(),
                "{}",
                p.id
            );
            assert!(
                p.description_for(Variant::Translated).contains('。')
                    || p.description_for(Variant::Translated).contains('写'),
                "{}",
                p.id
            );
        }
    }

    #[test]
    fn some_problems_have_context() {
        let ds = Dataset::generate();
        let with = ds.problems().iter().filter(|p| p.has_context()).count();
        let without = ds.len() - with;
        assert!(with >= 50, "{with} problems with context");
        assert!(without >= 150, "{without} problems without context");
    }

    #[test]
    fn envoy_solutions_are_longest() {
        let ds = Dataset::generate();
        let avg = |cat: Category| -> f64 {
            let lines: Vec<usize> = ds.by_category(cat).map(Problem::reference_lines).collect();
            lines.iter().sum::<usize>() as f64 / lines.len() as f64
        };
        assert!(avg(Category::Envoy) > avg(Category::Pod) * 1.8);
        assert!(avg(Category::Envoy) > avg(Category::Istio));
    }
}
