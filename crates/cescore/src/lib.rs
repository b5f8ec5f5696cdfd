//! # cescore
//!
//! The CloudEval-YAML performance-score calculation (§3.2 of the paper):
//! three score families over six metrics.
//!
//! | Family | Metrics |
//! |---|---|
//! | Text-level | [`bleu`], [`edit_distance_score`], [`exact_match`] |
//! | YAML-aware | [`kv_exact_match`], [`kv_wildcard_match`] |
//! | Function-level | unit tests (run by the `evalcluster` crate; recorded in [`Scores::unit_test`]) |
//!
//! [`score_pair`] computes all five static metrics for a generated/reference
//! YAML pair; [`Scores`] carries them plus the unit-test outcome, and
//! [`ScoreTable`] aggregates means across a dataset the way Table 4 reports
//! them.
//!
//! # Examples
//!
//! ```
//! let reference = "kind: Service\nmetadata:\n  name: web # *\nspec:\n  port: 80\n";
//! let generated = "kind: Service\nmetadata:\n  name: frontend\nspec:\n  port: 80\n";
//! let s = cescore::score_pair(reference, generated);
//! assert_eq!(s.kv_wildcard, 1.0);       // `# *` lets the name vary
//! assert_eq!(s.kv_exact, 0.0);          // dictionaries differ
//! assert!(s.bleu > 0.5);                // mostly the same text
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bleu;
mod editdist;
mod kernel;
mod prepared;
mod yamlaware;

pub use bleu::{bleu, bleu_tokens_ref, tokenize, tokenize_ref, Smoothing};
pub use editdist::{
    edit_distance_score, edit_distance_score_lines, line_edit_distance, line_edit_distance_lines,
};
pub use kernel::{
    bleu_kernel, edit_distance_kernel, edit_distance_score_kernel, RefLineIndex, RefNgrams,
    ScoreScratch,
};
pub use prepared::{
    score_pair_prepared, score_pair_prepared_legacy, score_pair_prepared_with, PreparedRef,
    RefCache, ScoreIssue,
};
pub use yamlaware::{kv_exact_match, kv_wildcard_match};
pub use yamlkit::PreparedDoc;

/// Exact match (§3.2): 1 only when the generated text equals the reference
/// after trailing-whitespace normalization, else 0.
///
/// # Examples
///
/// ```
/// assert_eq!(cescore::exact_match("a: 1\n", "a: 1"), 1.0);
/// assert_eq!(cescore::exact_match("a: 1\n", "a: 2\n"), 0.0);
/// ```
pub fn exact_match(reference: &str, candidate: &str) -> f64 {
    if normalized_eq(reference, candidate) {
        1.0
    } else {
        0.0
    }
}

/// Whether two texts are equal after exact-match normalization (per-line
/// trailing whitespace stripped, trailing empty-line run dropped).
/// Allocation-free: compares trimmed line tables directly instead of
/// materializing normalized strings.
pub fn normalized_eq(a: &str, b: &str) -> bool {
    fn trimmed(text: &str) -> Vec<&str> {
        let mut lines: Vec<&str> = text.lines().map(str::trim_end).collect();
        while lines.last().is_some_and(|l| l.is_empty()) {
            lines.pop();
        }
        lines
    }
    trimmed(a) == trimmed(b)
}

/// All six CloudEval-YAML metrics for one generated answer.
///
/// `unit_test` is `0.0` until the function-level evaluation runs; the five
/// static metrics are filled by [`score_pair`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Scores {
    /// BLEU similarity, `[0, 1]`.
    pub bleu: f64,
    /// Line edit-distance score, `[0, 1]`.
    pub edit_distance: f64,
    /// Strict textual equality, `{0, 1}`.
    pub exact_match: f64,
    /// Order-insensitive dictionary equality, `{0, 1}`.
    pub kv_exact: f64,
    /// Label-aware leaf IoU, `[0, 1]`.
    pub kv_wildcard: f64,
    /// Unit-test outcome, `{0, 1}` (function-level score).
    pub unit_test: f64,
}

impl Scores {
    /// The five static metric values in Table 4 column order
    /// (BLEU, Edit Dist., Exact Match, Key-value Exact, Key-value Wildcard).
    pub fn static_metrics(&self) -> [f64; 5] {
        [
            self.bleu,
            self.edit_distance,
            self.exact_match,
            self.kv_exact,
            self.kv_wildcard,
        ]
    }
}

/// Names of the six metrics in Table 4 column order.
pub const METRIC_NAMES: [&str; 6] = [
    "bleu",
    "edit_distance",
    "exact_match",
    "kv_exact",
    "kv_wildcard",
    "unit_test",
];

/// Computes the five static metrics for a generated answer against the
/// labeled reference. Label comments are stripped from the reference before
/// text-level comparison (they are instructions to the grader, not part of
/// the solution): a reference that parses is re-emitted by [`yamlkit::emit_all`],
/// which drops its comments and normalizes its formatting. The candidate is
/// compared as written, so its formatting counts in the text-level scores.
///
/// Thin wrapper over [`score_pair_prepared`]: both sides are prepared
/// (parsed once) and scored from cached views. Callers scoring the same
/// reference repeatedly should hold a [`PreparedRef`] (via [`RefCache`])
/// and call [`score_pair_prepared`] directly.
pub fn score_pair(labeled_reference: &str, candidate: &str) -> Scores {
    score_pair_prepared(
        &PreparedRef::new(labeled_reference),
        &PreparedDoc::new(candidate),
    )
}

/// The pre-refactor text-path score calculation, parsing both sides on
/// every call: the reference is stripped (parse + emit), then kv-exact
/// re-parses the cleaned reference and the candidate, and kv-wildcard
/// re-parses the labeled reference and the candidate again.
///
/// Kept verbatim as the baseline [`score_pair`] must stay score-identical
/// to (the `proptest_metrics` suite proves it on arbitrary YAML), as the
/// scorer of the barriered reference driver `evaluate_barriered`.
pub fn score_pair_text(labeled_reference: &str, candidate: &str) -> Scores {
    let reference_clean = strip_label_comments(labeled_reference);
    // Text-level metrics compare the cleaned reference against raw output.
    let bleu_score = bleu(&reference_clean, candidate, Smoothing::Epsilon);
    let edit = edit_distance_score(&reference_clean, candidate);
    let exact = exact_match(&reference_clean, candidate);
    Scores {
        bleu: bleu_score,
        edit_distance: edit,
        exact_match: exact,
        kv_exact: kv_exact_match(&reference_clean, candidate),
        kv_wildcard: kv_wildcard_match(labeled_reference, candidate),
        unit_test: 0.0,
    }
}

/// Removes `# ...` trailing comments (the reference labels) from YAML text,
/// leaving block-scalar bodies untouched.
pub fn strip_label_comments(labeled: &str) -> String {
    parse_and_strip_labels(labeled).1
}

/// [`strip_label_comments`] together with the values it emits: the
/// documents of `labeled` (labels are comments, so they leave no trace in
/// the values) and their emitted text. Text that does not parse gives no
/// values and is returned as it is, so text metrics still work.
pub fn parse_and_strip_labels(labeled: &str) -> (Vec<yamlkit::Yaml>, String) {
    match yamlkit::parse(labeled) {
        Ok(docs) => {
            let values: Vec<yamlkit::Yaml> = docs.iter().map(yamlkit::Node::to_value).collect();
            let text = yamlkit::emit_all(&values);
            (values, text)
        }
        Err(_) => (Vec::new(), labeled.to_owned()),
    }
}

/// Mean of each metric over a collection of [`Scores`] — one row of
/// Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScoreTable {
    /// Mean scores across the dataset.
    pub mean: Scores,
    /// Number of aggregated problems.
    pub count: usize,
}

impl ScoreTable {
    /// Aggregates per-problem scores into dataset means.
    pub fn aggregate<'a, I: IntoIterator<Item = &'a Scores>>(scores: I) -> ScoreTable {
        let mut sum = Scores::default();
        let mut count = 0usize;
        for s in scores {
            sum.bleu += s.bleu;
            sum.edit_distance += s.edit_distance;
            sum.exact_match += s.exact_match;
            sum.kv_exact += s.kv_exact;
            sum.kv_wildcard += s.kv_wildcard;
            sum.unit_test += s.unit_test;
            count += 1;
        }
        if count > 0 {
            let n = count as f64;
            sum.bleu /= n;
            sum.edit_distance /= n;
            sum.exact_match /= n;
            sum.kv_exact /= n;
            sum.kv_wildcard /= n;
            sum.unit_test /= n;
        }
        ScoreTable { mean: sum, count }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REF: &str = "\
apiVersion: v1
kind: Service
metadata:
  name: nginx-service # *
spec:
  selector:
    app: nginx
  ports:
  - name: http
    port: 80
    targetPort: 80
  type: LoadBalancer
";

    #[test]
    fn perfect_answer_maxes_static_metrics() {
        let perfect = strip_label_comments(REF);
        let s = score_pair(REF, &perfect);
        assert!((s.bleu - 1.0).abs() < 1e-9);
        assert_eq!(s.edit_distance, 1.0);
        assert_eq!(s.exact_match, 1.0);
        assert_eq!(s.kv_exact, 1.0);
        assert_eq!(s.kv_wildcard, 1.0);
    }

    #[test]
    fn renamed_service_passes_wildcard_only() {
        let cand = strip_label_comments(REF).replace("nginx-service", "my-svc");
        let s = score_pair(REF, &cand);
        assert_eq!(s.kv_wildcard, 1.0);
        assert_eq!(s.kv_exact, 0.0);
        assert_eq!(s.exact_match, 0.0);
        assert!(s.bleu < 1.0);
    }

    #[test]
    fn reordered_keys_pass_kv_not_exact() {
        let cand = "\
kind: Service
apiVersion: v1
metadata:
  name: nginx-service
spec:
  type: LoadBalancer
  selector:
    app: nginx
  ports:
  - name: http
    port: 80
    targetPort: 80
";
        let s = score_pair(REF, cand);
        assert_eq!(s.kv_exact, 1.0);
        assert_eq!(s.kv_wildcard, 1.0);
        assert_eq!(s.exact_match, 0.0);
    }

    #[test]
    fn prose_answer_scores_near_zero_on_yaml_aware() {
        let s = score_pair(REF, "Sure! Here is what you should do: create a service.");
        assert_eq!(s.kv_exact, 0.0);
        assert_eq!(s.kv_wildcard, 0.0);
        assert!(s.bleu < 0.2);
    }

    #[test]
    fn strip_label_comments_removes_labels() {
        let cleaned = strip_label_comments("a: 1 # *\nb: 2 # v in [1,2]\n");
        assert_eq!(cleaned, "a: 1\nb: 2\n");
    }

    #[test]
    fn exact_match_ignores_trailing_whitespace() {
        assert_eq!(exact_match("a: 1  \nb: 2\n\n\n", "a: 1\nb: 2"), 1.0);
    }

    #[test]
    fn aggregate_means() {
        let scores = [
            Scores {
                bleu: 1.0,
                unit_test: 1.0,
                ..Default::default()
            },
            Scores {
                bleu: 0.0,
                unit_test: 0.0,
                ..Default::default()
            },
        ];
        let t = ScoreTable::aggregate(scores.iter());
        assert_eq!(t.count, 2);
        assert!((t.mean.bleu - 0.5).abs() < 1e-9);
        assert!((t.mean.unit_test - 0.5).abs() < 1e-9);
    }

    #[test]
    fn aggregate_empty_is_zero() {
        let t = ScoreTable::aggregate([].iter());
        assert_eq!(t.count, 0);
        assert_eq!(t.mean.bleu, 0.0);
    }
}
