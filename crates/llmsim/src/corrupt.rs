//! Answer realization: turning a (problem, outcome category) pair into
//! response text with the failure anatomy of Figure 7 and the prose/
//! markdown wrappers that motivate §3.1's post-processing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yamlkit::labels::{MatchRule, MatchTree};
use yamlkit::Yaml;

use cedataset::Problem;

/// The six answer categories of Figure 7, ordered by distance from
/// correct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnswerCategory {
    /// Empty or fewer than 3 lines.
    EmptyOrTiny = 1,
    /// Longer than 3 lines but no `kind` (or `static_resources`) field.
    NoKind = 2,
    /// Contains `kind` but is not complete/valid YAML.
    IncompleteYaml = 3,
    /// Valid YAML, wrong `kind`.
    WrongKind = 4,
    /// Valid YAML, right kind, fails the unit test.
    FailsTest = 5,
    /// Passes the unit test.
    Correct = 6,
}

impl AnswerCategory {
    /// All categories in Figure 7 order.
    pub const ALL: [AnswerCategory; 6] = [
        AnswerCategory::EmptyOrTiny,
        AnswerCategory::NoKind,
        AnswerCategory::IncompleteYaml,
        AnswerCategory::WrongKind,
        AnswerCategory::FailsTest,
        AnswerCategory::Correct,
    ];
}

/// Deterministic seed from generation coordinates.
pub fn answer_seed(
    model: &str,
    problem_id: &str,
    variant_tag: u8,
    shots: usize,
    sample: u64,
) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(model.as_bytes());
    eat(b"|");
    eat(problem_id.as_bytes());
    eat(&[variant_tag]);
    eat(&shots.to_le_bytes());
    eat(&sample.to_le_bytes());
    h
}

/// Realizes the raw (pre-post-processing) answer text for a category.
pub fn realize(problem: &Problem, category: AnswerCategory, seed: u64, wrap_prob: f64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let body = match category {
        AnswerCategory::EmptyOrTiny => return tiny_answer(&mut rng),
        AnswerCategory::NoKind => return prose_answer(problem, &mut rng),
        AnswerCategory::IncompleteYaml => incomplete_yaml(problem, &mut rng),
        AnswerCategory::WrongKind => wrong_kind(problem, &mut rng),
        AnswerCategory::FailsTest => corrupted_reference(problem, &mut rng),
        AnswerCategory::Correct => correct_answer(problem, &mut rng),
    };
    if rng.gen_bool(wrap_prob) {
        wrap(&body, &mut rng)
    } else {
        body
    }
}

fn tiny_answer(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4) {
        0 => String::new(),
        1 => "Sorry, I can't help with that.".to_owned(),
        2 => "yaml".to_owned(),
        _ => "apiVersion: v1".to_owned(),
    }
}

fn prose_answer(problem: &Problem, rng: &mut StdRng) -> String {
    let topic = problem.category.label();
    match rng.gen_range(0..3) {
        0 => format!(
            "To accomplish this you need to create a {topic} resource.\nFirst, open your editor and define the metadata.\nThen configure the spec section according to your needs.\nFinally apply it with the CLI tool.\nLet me know if you need more details about any step."
        ),
        1 => format!(
            "There are several ways to configure a {topic}.\nThe most common approach is to use the declarative API.\nYou should consult the official documentation for the full schema.\nA minimal example would include the resource metadata and desired state.\nRemember to validate the file before applying it."
        ),
        _ => format!(
            "I understand you want to set up a {topic} for your cluster.\nUnfortunately the exact fields depend on your environment version.\nGenerally you define the resource name and the desired configuration.\nAfter that the controller reconciles the state automatically.\nPlease share your cluster version for a precise answer."
        ),
    }
}

fn incomplete_yaml(problem: &Problem, rng: &mut StdRng) -> String {
    let lines: Vec<&str> = problem.clean_reference().lines().collect();
    // Keep the head (always including the kind line), then break the
    // document with an unterminated flow collection.
    let kind_idx = lines
        .iter()
        .position(|l| l.starts_with("kind:") || l.starts_with("static_resources"))
        .unwrap_or(0);
    let keep = (lines.len() * rng.gen_range(40..70) / 100).max(kind_idx + 1);
    let mut out: Vec<String> = lines.iter().take(keep).map(|s| (*s).to_owned()).collect();
    out.push("spec: [unterminated".to_owned());
    out.join("\n")
}

fn wrong_kind(problem: &Problem, rng: &mut StdRng) -> String {
    let reference = problem.clean_reference();
    let actual_kind = crate::reference_kind(problem).unwrap_or_else(|| "Pod".to_owned());
    let replacements = [
        "Pod",
        "Deployment",
        "Service",
        "ConfigMap",
        "DaemonSet",
        "Job",
    ];
    let wrong = replacements
        .iter()
        .filter(|k| **k != actual_kind)
        .nth(rng.gen_range(0..replacements.len() - 1) % (replacements.len() - 1))
        .copied()
        .unwrap_or("ConfigMap");
    if reference.contains("static_resources") {
        // Envoy answers of this class answer with a Kubernetes object.
        return format!(
            "apiVersion: v1\nkind: {wrong}\nmetadata:\n  name: envoy-config\nspec: {{}}\n"
        );
    }
    reference.replacen(
        &format!("kind: {actual_kind}"),
        &format!("kind: {wrong}"),
        1,
    )
}

/// Valid YAML, right kind, but critical fields corrupted so the unit test
/// fails.
///
/// Corruption targets the fields functional tests actually assert — label
/// selectors, images, ports, values — so a category-5 answer reliably
/// fails its unit test (the calibration in `difficulty` depends on this).
fn corrupted_reference(problem: &Problem, rng: &mut StdRng) -> String {
    if problem.reference_tree().is_empty() {
        return problem.clean_reference().to_owned();
    }
    let mut values = problem.reference_tree().to_vec();
    let mut any_changed = false;
    for doc in &mut values {
        let mut paths = Vec::new();
        collect_scalar_paths(doc, &mut Vec::new(), &mut paths);
        paths.retain(|p| {
            let last = p.last().map(String::as_str).unwrap_or("");
            if matches!(last, "kind" | "apiVersion" | "@type") {
                return false;
            }
            // `metadata.name` stays intact (identity: "right kind" class);
            // every other `name` field is fair game.
            !(last == "name" && p.len() >= 2 && p[p.len() - 2] == "metadata")
        });
        if paths.is_empty() {
            continue;
        }
        // Assertion-bearing fields first: label maps (their change breaks
        // selectors and lookups), data payloads, and commonly-checked
        // leaves.
        let checked_leaves = [
            "image",
            "containerPort",
            "hostPort",
            "port",
            "value",
            "replicas",
            "host",
            "schedule",
            "storage",
            "cpu",
            "memory",
            "prefix",
            "cluster",
            "subset",
            "weight",
            "mountPath",
            "path",
            "simple",
            "port_value",
            "mode",
            "number",
            "name",
            "cluster_name",
            "serviceName",
        ];
        let checked_segments = [
            "labels",
            "matchLabels",
            "selector",
            "data",
            "stringData",
            "hard",
            "rules",
            "subjects",
            "roleRef",
            "accessModes",
            "env",
            "scaleTargetRef",
            "policyTypes",
        ];
        let critical: Vec<Vec<String>> = paths
            .iter()
            .filter(|p| {
                // List items end in "[i]"; the semantic leaf name is the
                // last non-index segment.
                let last = p
                    .iter()
                    .rev()
                    .find(|seg| !seg.starts_with('['))
                    .map(String::as_str)
                    .unwrap_or("");
                p.iter().any(|seg| checked_segments.contains(&seg.as_str()))
                    || checked_leaves.contains(&last)
            })
            .cloned()
            .collect();
        let targets: Vec<Vec<String>> = if critical.is_empty() {
            // No obviously-checked fields: corrupt half of everything.
            let mut t = paths.clone();
            let keep = t.len().div_ceil(2);
            while t.len() > keep {
                let drop = rng.gen_range(0..t.len());
                t.remove(drop);
            }
            t
        } else {
            // Corrupt every critical field; the answer is recognizably an
            // attempt but functionally wrong everywhere it matters.
            critical
        };
        for path in &targets {
            if let Some(slot) = get_mut_path(doc, path) {
                *slot = mutate_scalar(slot, rng);
                any_changed = true;
            }
        }
    }
    if !any_changed {
        // Fallback: append a bogus field that flips dictionary equality.
        if let Some(first) = values.first_mut() {
            first.insert("bogusField", Yaml::Str("misconfigured".into()));
        }
    }
    yamlkit::emit_all(&values)
}

/// A correct answer: textually exact, reordered, decorated with benign
/// extra fields, or semantically equivalent with wildcard-labeled fields
/// renamed. All variants pass the unit test; only the first is textually
/// identical to the reference, mirroring Table 4's gap between the exact-
/// match and unit-test columns.
fn correct_answer(problem: &Problem, rng: &mut StdRng) -> String {
    let style = rng.gen_range(0..10);
    if style < 2 || problem.reference_tree().is_empty() {
        return problem.clean_reference().to_owned(); // verbatim
    }
    let mut values = problem.reference_tree().to_vec();
    if style < 5 {
        // Reorder mapping keys (kv-exact still passes; exact match fails).
        for v in &mut values {
            rotate_map_keys(v);
        }
    } else if style < 7 {
        // Benign extra content: an annotation or default no test asserts
        // and no selector reads. Functionally correct, dictionary-unequal,
        // wildcard IoU < 1 — the "passing but noisy" answers that keep the
        // paper's unit-test predictor honest (Figure 9's 5-30% errors).
        for v in &mut values {
            if let Some(meta) = v.get_mut("metadata") {
                let note =
                    ["managed-by: llm", "generated: true", "reviewed: no"][rng.gen_range(0..3)];
                let (k, val) = note.split_once(": ").expect("static note");
                let mut annotations = meta
                    .get("annotations")
                    .cloned()
                    .unwrap_or(Yaml::Map(vec![]));
                annotations.insert(k, Yaml::Str(val.to_owned()));
                meta.insert("annotations", annotations);
            }
        }
    } else {
        // Rename wildcard-labeled scalars — semantically free fields. The
        // labels live in the parse's comments, which the tree drops.
        let docs = yamlkit::parse(&problem.labeled_reference)
            .expect("a non-empty reference tree comes from a successful parse");
        for (value, node) in values.iter_mut().zip(&docs) {
            let tree = MatchTree::from_node(node);
            rename_wildcards(value, &tree, rng);
        }
    }
    yamlkit::emit_all(&values)
}

fn rotate_map_keys(value: &mut Yaml) {
    if let Yaml::Map(entries) = value {
        // Keep apiVersion/kind in front (models usually do), rotate the rest.
        let pivot = entries
            .iter()
            .take_while(|(k, _)| k == "apiVersion" || k == "kind")
            .count();
        if entries.len() > pivot + 1 {
            entries[pivot..].rotate_left(1);
        }
        for (_, v) in entries.iter_mut() {
            rotate_map_keys(v);
        }
    } else if let Yaml::Seq(items) = value {
        for v in items {
            rotate_map_keys(v);
        }
    }
}

fn rename_wildcards(value: &mut Yaml, tree: &MatchTree, rng: &mut StdRng) {
    match (value, tree) {
        (Yaml::Str(s), MatchTree::Leaf(MatchRule::Wildcard)) => {
            *s = format!("{s}-{}", ["alt", "new", "my", "gen"][rng.gen_range(0..4)]);
        }
        (v, MatchTree::Leaf(MatchRule::OneOf { options, .. })) if !options.is_empty() => {
            *v = options[rng.gen_range(0..options.len())].clone();
        }
        (Yaml::Map(entries), MatchTree::Map(tree_entries)) => {
            for (k, v) in entries.iter_mut() {
                if let Some((_, sub)) = tree_entries.iter().find(|(tk, _)| tk == k) {
                    rename_wildcards(v, sub, rng);
                }
            }
        }
        (Yaml::Seq(items), MatchTree::Seq(subs)) => {
            for (v, sub) in items.iter_mut().zip(subs) {
                rename_wildcards(v, sub, rng);
            }
        }
        _ => {}
    }
}

fn collect_scalar_paths(value: &Yaml, prefix: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
    match value {
        Yaml::Map(entries) => {
            for (k, v) in entries {
                prefix.push(k.clone());
                collect_scalar_paths(v, prefix, out);
                prefix.pop();
            }
        }
        Yaml::Seq(items) => {
            for (i, v) in items.iter().enumerate() {
                prefix.push(format!("[{i}]"));
                collect_scalar_paths(v, prefix, out);
                prefix.pop();
            }
        }
        _ => out.push(prefix.clone()),
    }
}

fn get_mut_path<'a>(value: &'a mut Yaml, path: &[String]) -> Option<&'a mut Yaml> {
    let mut cur = value;
    for seg in path {
        cur = if let Some(idx) = seg.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let i: usize = idx.parse().ok()?;
            match cur {
                Yaml::Seq(items) => items.get_mut(i)?,
                _ => return None,
            }
        } else {
            cur.get_mut(seg)?
        };
    }
    Some(cur)
}

fn mutate_scalar(value: &Yaml, rng: &mut StdRng) -> Yaml {
    match value {
        Yaml::Int(i) => Yaml::Int(i + [1, -1, 10, 1000][rng.gen_range(0..4)]),
        Yaml::Bool(b) => Yaml::Bool(!b),
        Yaml::Float(f) => Yaml::Float(f * 2.0 + 1.0),
        Yaml::Str(s) => {
            let mut mutated = match rng.gen_range(0..3) {
                0 => format!("wrong-{s}"),
                1 => s.to_uppercase(),
                _ => format!("{s}x"),
            };
            if &mutated == s {
                // Uppercasing numerals/empty strings is a no-op; a
                // corruption must corrupt.
                mutated = format!("wrong-{s}");
            }
            Yaml::Str(mutated)
        }
        other => other.clone(),
    }
}

/// Wraps YAML in one of the prose/markup styles §3.1 post-processing must
/// strip.
fn wrap(body: &str, rng: &mut StdRng) -> String {
    match rng.gen_range(0..5) {
        0 => format!(
            "Here is the YAML configuration you requested:\n\n{body}\n\nThis configuration follows best practices. Let me know if you need adjustments."
        ),
        1 => format!("Sure! The following manifest does what you described.\n```yaml\n{body}\n```\nApply it with kubectl."),
        2 => format!("<code>\n{body}\n</code>"),
        3 => format!("\\begin{{code}}\n{body}\n\\end{{code}}"),
        _ => format!("START SOLUTION\n{body}\nEND SOLUTION"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedataset::Dataset;

    fn first_problem() -> Problem {
        Dataset::generate().problems()[0].clone()
    }

    #[test]
    fn correct_answers_score_high_and_pass_their_unit_test() {
        let p = first_problem();
        let mut saw_imperfect_wildcard = false;
        for seed in 0..30 {
            let ans = realize(&p, AnswerCategory::Correct, seed, 0.0);
            let score = cescore::kv_wildcard_match(&p.labeled_reference, &ans);
            assert!(score > 0.85, "seed {seed}: wildcard {score}\n{ans}");
            saw_imperfect_wildcard |= score < 1.0 - 1e-9;
        }
        // The benign-extras style must appear: passing answers are not all
        // wildcard-perfect (keeps the Figure 9 predictor study honest).
        assert!(saw_imperfect_wildcard);
    }

    #[test]
    fn fails_test_answers_are_valid_yaml_with_right_kind() {
        let p = first_problem();
        let expected_kind = yamlkit::parse_one(p.clean_reference())
            .unwrap()
            .to_value()
            .get("kind")
            .map(Yaml::render_scalar);
        for seed in 0..20 {
            let ans = realize(&p, AnswerCategory::FailsTest, seed, 0.0);
            let parsed = yamlkit::parse(&ans).expect("must stay valid yaml");
            let kind = parsed[0].to_value().get("kind").map(Yaml::render_scalar);
            assert_eq!(kind, expected_kind);
            // And it must differ from the reference as a dictionary.
            assert_eq!(
                cescore::kv_exact_match(&p.labeled_reference, &ans),
                0.0,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn wrong_kind_is_valid_but_different_kind() {
        let p = first_problem();
        let ans = realize(&p, AnswerCategory::WrongKind, 3, 0.0);
        let v = yamlkit::parse(&ans).unwrap()[0].to_value();
        assert_ne!(
            v.get("kind").map(Yaml::render_scalar).as_deref(),
            Some("Pod")
        );
    }

    #[test]
    fn incomplete_yaml_contains_kind_but_fails_parse() {
        let p = first_problem();
        for seed in 0..10 {
            let ans = realize(&p, AnswerCategory::IncompleteYaml, seed, 0.0);
            assert!(ans.contains("kind:"));
            assert!(yamlkit::parse(&ans).is_err(), "seed {seed} parsed:\n{ans}");
        }
    }

    #[test]
    fn tiny_answers_are_tiny_and_prose_lacks_kind() {
        let p = first_problem();
        let tiny = realize(&p, AnswerCategory::EmptyOrTiny, 1, 0.0);
        assert!(tiny.lines().count() < 3);
        let prose = realize(&p, AnswerCategory::NoKind, 1, 0.0);
        assert!(prose.lines().count() > 3);
        assert!(!prose.contains("kind"));
    }

    #[test]
    fn realization_is_deterministic_per_seed() {
        let p = first_problem();
        for cat in AnswerCategory::ALL {
            assert_eq!(realize(&p, cat, 42, 0.5), realize(&p, cat, 42, 0.5));
        }
    }

    #[test]
    fn wrappers_cover_all_extraction_cases() {
        let p = first_problem();
        let mut styles = std::collections::HashSet::new();
        for seed in 0..60 {
            let ans = realize(&p, AnswerCategory::Correct, seed, 1.0);
            for marker in [
                "Here is",
                "```",
                "<code>",
                "\\begin{code}",
                "START SOLUTION",
            ] {
                if ans.contains(marker) {
                    styles.insert(marker);
                }
            }
        }
        assert!(styles.len() >= 4, "only saw {styles:?}");
    }
}
