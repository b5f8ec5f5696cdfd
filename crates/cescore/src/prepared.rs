//! Parse-once scoring: [`PreparedRef`] + [`score_pair_prepared`].
//!
//! [`crate::score_pair`] on raw text parses the reference three times
//! (label stripping, kv-exact, kv-wildcard) and the candidate twice —
//! and under pass@k sampling the *same* reference is re-parsed for every
//! candidate. This module splits the work by lifetime:
//!
//! * [`PreparedRef`] — everything derivable from the labeled reference
//!   alone, built once per problem per session (via [`RefCache`]): the
//!   cleaned text, its parsed/tokenized views, the label match trees and
//!   the reference leaf count;
//! * [`yamlkit::PreparedDoc`] — everything derivable from the candidate
//!   alone, built once per candidate and shared by `Arc` with the
//!   substrate stage;
//! * [`score_pair_prepared`] — the pure join: all five static metrics
//!   from cached views, score-identical to the text path (proved by the
//!   `proptest_metrics` suite).
//!
//! A reference that fails to parse is a **benchmark bug**, not a model
//! failure: the text path silently scored the YAML-aware metrics 0.0.
//! The prepared path keeps the numbers (score identity) but surfaces a
//! typed [`ScoreIssue`] on the [`PreparedRef`], logged once per problem,
//! which the harness and service layers attach to their verdicts.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use yamlkit::labels::MatchTree;
use yamlkit::PreparedDoc;

use crate::kernel::{
    bleu_kernel, edit_distance_score_kernel, RefLineIndex, RefNgrams, ScoreScratch,
};
use crate::{normalized_eq, Scores, Smoothing};

/// A defect in the benchmark inputs (not the candidate) detected during
/// scoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoreIssue {
    /// The labeled reference solution is not parseable YAML — the
    /// YAML-aware metrics degrade to 0.0 for *every* candidate of this
    /// problem, which says nothing about the model.
    ReferenceUnparsable {
        /// The parser's diagnosis.
        error: String,
    },
}

impl ScoreIssue {
    /// Compact wire label (`reference_unparsable: ...`) for verdicts.
    pub fn wire(&self) -> String {
        match self {
            ScoreIssue::ReferenceUnparsable { error } => {
                format!("reference_unparsable: {error}")
            }
        }
    }
}

impl fmt::Display for ScoreIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScoreIssue::ReferenceUnparsable { error } => {
                write!(f, "reference does not parse as YAML: {error}")
            }
        }
    }
}

/// References whose parse failure has already been logged, keyed by
/// content hash — a broken reference is reported once per process, not
/// once per candidate scored against it.
fn issue_logged_once(reference_hash: u64) -> bool {
    static LOGGED: OnceLock<Mutex<std::collections::HashSet<u64>>> = OnceLock::new();
    LOGGED
        .get_or_init(|| Mutex::new(std::collections::HashSet::new()))
        .lock()
        .expect("issue log poisoned")
        .insert(reference_hash)
}

/// A labeled reference prepared for repeated scoring: parsed once, label
/// trees lifted once, cleaned text emitted and re-tokenized once.
///
/// # Examples
///
/// ```
/// use cescore::{score_pair, score_pair_prepared, PreparedRef};
/// use yamlkit::PreparedDoc;
///
/// let reference = "kind: Service\nmetadata:\n  name: web # *\nspec:\n  port: 80\n";
/// let candidate = "kind: Service\nmetadata:\n  name: frontend\nspec:\n  port: 80\n";
/// let prepared = PreparedRef::new(reference);
/// let s = score_pair_prepared(&prepared, &PreparedDoc::new(candidate));
/// assert_eq!(s, score_pair(reference, candidate));
/// assert_eq!(s.kv_wildcard, 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct PreparedRef {
    labeled_hash: u64,
    /// Whether the labeled reference parsed (label trees are valid).
    labeled_parses: bool,
    /// The cleaned reference (labels stripped), itself fully prepared —
    /// text metrics and kv-exact run off this document. When the labeled
    /// text does not parse this wraps the raw text (the text path's
    /// fallback), so text metrics still work.
    clean: PreparedDoc,
    /// Label match trees, one per document of the labeled reference.
    trees: Vec<MatchTree>,
    /// Total reference-side leaf count across the trees.
    ref_leaves: usize,
    /// The cleaned reference's 1–4-gram count tables, built once here so
    /// every pass@k candidate scores BLEU against shared tables.
    ngrams: RefNgrams,
    /// The cleaned reference's interned line table, the reference side
    /// of the bit-parallel edit-distance kernel.
    line_index: RefLineIndex,
    issue: Option<ScoreIssue>,
}

impl PreparedRef {
    /// Prepares a labeled reference. An unparseable reference records a
    /// [`ScoreIssue`] (and logs it once per distinct reference text per
    /// process) instead of failing.
    pub fn new(labeled_reference: &str) -> PreparedRef {
        let labeled = PreparedDoc::new(labeled_reference);
        let labeled_hash = labeled.content_hash();
        if let Some(err) = labeled.parse_error() {
            let issue = ScoreIssue::ReferenceUnparsable {
                error: err.to_string(),
            };
            if issue_logged_once(labeled_hash) {
                eprintln!("cescore: benchmark bug: {issue}");
            }
            // The text path falls back to the raw labeled text for
            // text-level metrics; mirror it exactly.
            let clean = labeled;
            let ngrams = RefNgrams::build(clean.sym_stream());
            let line_index = RefLineIndex::build(&clean.lines());
            return PreparedRef {
                labeled_hash,
                labeled_parses: false,
                clean,
                trees: Vec::new(),
                ref_leaves: 0,
                ngrams,
                line_index,
                issue: Some(issue),
            };
        }
        // Label trees come straight off the arena backing store — the
        // labeled reference never materializes its boxed `Node` trees.
        let trees: Vec<MatchTree> = labeled.match_trees();
        let ref_leaves = trees.iter().map(MatchTree::leaf_count).sum();
        // The cleaned text is parse→emit of the labeled reference — then
        // prepared in turn, so kv-exact and the text metrics read cached
        // views instead of re-parsing per candidate.
        let clean = PreparedDoc::new(yamlkit::emit_all(labeled.values()));
        // The scoring-kernel reference sides: n-gram count tables over
        // the clean document's interned token stream and the interned
        // line table, both built exactly once per reference.
        let ngrams = RefNgrams::build(clean.sym_stream());
        let line_index = RefLineIndex::build(&clean.lines());
        PreparedRef {
            labeled_hash,
            labeled_parses: true,
            clean,
            trees,
            ref_leaves,
            ngrams,
            line_index,
            issue: None,
        }
    }

    /// The reference with label comments stripped (what a perfect answer
    /// looks like) — equal to [`crate::strip_label_comments`] output.
    pub fn clean_text(&self) -> &str {
        self.clean.text()
    }

    /// The cleaned reference's prepared document.
    pub fn clean_doc(&self) -> &PreparedDoc {
        &self.clean
    }

    /// Content hash of the *labeled* reference text (the cache key).
    pub fn content_hash(&self) -> u64 {
        self.labeled_hash
    }

    /// The label match trees, one per reference document.
    pub fn match_trees(&self) -> &[MatchTree] {
        &self.trees
    }

    /// The benchmark defect detected while preparing, if any.
    pub fn issue(&self) -> Option<&ScoreIssue> {
        self.issue.as_ref()
    }
}

/// A per-session cache of [`PreparedRef`]s keyed by reference content
/// hash: a pass@k sweep or a full evaluation grid parses each reference
/// exactly once, no matter how many candidates it scores.
///
/// # Examples
///
/// ```
/// let refs = cescore::RefCache::new();
/// let a = refs.prepare("a: 1 # *\n");
/// let b = refs.prepare("a: 1 # *\n");
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(refs.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct RefCache {
    map: Mutex<HashMap<u64, Arc<PreparedRef>>>,
}

impl RefCache {
    /// An empty cache.
    pub fn new() -> RefCache {
        RefCache::default()
    }

    /// The prepared form of `labeled_reference`, built on first sight and
    /// shared thereafter.
    ///
    /// This sits on the scoring hot path (one call per record), so the
    /// lock is never held across preparation: probe, build outside the
    /// lock on a miss, then insert — first writer wins, so two workers
    /// racing on the same cold reference at worst build it twice but
    /// always share one copy afterwards.
    pub fn prepare(&self, labeled_reference: &str) -> Arc<PreparedRef> {
        let key = yamlkit::doc::content_hash(labeled_reference);
        if let Some(found) = self.map.lock().expect("ref cache poisoned").get(&key) {
            return Arc::clone(found);
        }
        let built = Arc::new(PreparedRef::new(labeled_reference));
        let mut map = self.map.lock().expect("ref cache poisoned");
        Arc::clone(map.entry(key).or_insert(built))
    }

    /// Distinct references prepared so far.
    pub fn len(&self) -> usize {
        self.map.lock().expect("ref cache poisoned").len()
    }

    /// Whether nothing has been prepared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Key-value exact match over prepared documents — same decision table as
/// [`crate::kv_exact_match`] on the corresponding texts.
fn kv_exact_prepared(clean_ref: &PreparedDoc, candidate: &PreparedDoc) -> f64 {
    if !clean_ref.parses() || !candidate.parses() {
        return 0.0;
    }
    let ref_docs = clean_ref.values();
    let cand_docs = candidate.values();
    if ref_docs.is_empty() || ref_docs.len() != cand_docs.len() {
        return 0.0;
    }
    let all_equal = ref_docs
        .iter()
        .zip(cand_docs)
        .all(|(r, c)| r.eq_unordered(c));
    if all_equal {
        1.0
    } else {
        0.0
    }
}

/// Key-value wildcard match over prepared documents — same arithmetic as
/// [`crate::kv_wildcard_match`] on the corresponding texts.
fn kv_wildcard_prepared(reference: &PreparedRef, candidate: &PreparedDoc) -> f64 {
    if !reference.labeled_parses || !candidate.parses() {
        return 0.0;
    }
    if reference.trees.is_empty() {
        return 0.0;
    }
    let cand_values = candidate.values();
    let mut matched = 0usize;
    for (i, tree) in reference.trees.iter().enumerate() {
        if let Some(cand) = cand_values.get(i) {
            matched += tree.matched_leaves(cand);
        }
    }
    let union = reference.ref_leaves + candidate.leaf_count() - matched;
    if union == 0 {
        1.0
    } else {
        matched as f64 / union as f64
    }
}

/// Pre-resolved `score_kernel_us{metric}` histogram handles in
/// [`obs::global`] — (bleu, editdist). Resolved once per process;
/// recording through a handle is lock-free.
fn kernel_hists() -> &'static (obs::Histogram, obs::Histogram) {
    static HISTS: OnceLock<(obs::Histogram, obs::Histogram)> = OnceLock::new();
    HISTS.get_or_init(|| {
        let registry = obs::global();
        (
            registry.histogram(
                "score_kernel_us",
                &[("metric", "bleu")],
                "latency of the symbol-interned BLEU kernel, per scored pair",
            ),
            registry.histogram(
                "score_kernel_us",
                &[("metric", "editdist")],
                "latency of the bit-parallel edit-distance kernel, per scored pair",
            ),
        )
    })
}

/// Computes the five static metrics from prepared views — the hot path
/// every driver runs on. Score-identical to [`crate::score_pair`] on the
/// corresponding texts (which is a thin wrapper over this) and to
/// [`score_pair_prepared_legacy`], but BLEU and edit distance run on the
/// symbol-interned kernels against the reference tables precomputed in
/// [`PreparedRef::new`].
///
/// Kernel scratch is kept per thread; workers that want explicit
/// ownership (the harness's scoring pools, `repro score`) should hold a
/// [`ScoreScratch`] and call [`score_pair_prepared_with`] directly.
pub fn score_pair_prepared(reference: &PreparedRef, candidate: &PreparedDoc) -> Scores {
    thread_local! {
        static SCRATCH: RefCell<ScoreScratch> = RefCell::new(ScoreScratch::new());
    }
    SCRATCH
        .with(|scratch| score_pair_prepared_with(reference, candidate, &mut scratch.borrow_mut()))
}

/// [`score_pair_prepared`] with caller-owned kernel scratch: count
/// tables, translation buffers, and LCS bit vectors are reused across
/// calls, so a long-lived scoring worker allocates nothing per record in
/// steady state.
///
/// Kernel latencies are recorded to the `score_kernel_us{metric}`
/// histograms in [`obs::global`] when recording is enabled.
pub fn score_pair_prepared_with(
    reference: &PreparedRef,
    candidate: &PreparedDoc,
    scratch: &mut ScoreScratch,
) -> Scores {
    let timed = obs::global().is_enabled();
    let started = timed.then(Instant::now);
    let bleu_score = bleu_kernel(
        reference.clean.sym_stream(),
        &reference.ngrams,
        candidate.sym_stream(),
        scratch,
        Smoothing::Epsilon,
    );
    let mid = timed.then(Instant::now);
    let edit = edit_distance_score_kernel(
        &reference.line_index,
        &candidate.lines(),
        candidate.line_hashes(),
        scratch,
    );
    if let (Some(started), Some(mid)) = (started, mid) {
        let (bleu_hist, edit_hist) = kernel_hists();
        bleu_hist.record(mid.duration_since(started));
        edit_hist.record(mid.elapsed());
    }
    let exact = if normalized_eq(reference.clean_text(), candidate.text()) {
        1.0
    } else {
        0.0
    };
    Scores {
        bleu: bleu_score,
        edit_distance: edit,
        exact_match: exact,
        kv_exact: kv_exact_prepared(&reference.clean, candidate),
        kv_wildcard: kv_wildcard_prepared(reference, candidate),
        unit_test: 0.0,
    }
}

/// The pre-kernel prepared scoring path, kept verbatim as the
/// equivalence oracle for the symbol-interned kernels (the
/// `kernel_equivalence` proptest suite pins
/// [`score_pair_prepared`] == `score_pair_prepared_legacy` on arbitrary
/// pairs) and as the legacy side of the `repro score` A/B report: BLEU
/// re-hashes `&[&str]` n-gram windows per pair and edit distance runs
/// the O(n·m) string-comparing LCS.
pub fn score_pair_prepared_legacy(reference: &PreparedRef, candidate: &PreparedDoc) -> Scores {
    let ref_tokens = reference.clean.tokens();
    let cand_tokens = candidate.tokens();
    let bleu_score = crate::bleu_tokens_ref(&ref_tokens, &cand_tokens, Smoothing::Epsilon);
    let edit =
        crate::editdist::edit_distance_score_lines(&reference.clean.lines(), &candidate.lines());
    let exact = if normalized_eq(reference.clean_text(), candidate.text()) {
        1.0
    } else {
        0.0
    };
    Scores {
        bleu: bleu_score,
        edit_distance: edit,
        exact_match: exact,
        kv_exact: kv_exact_prepared(&reference.clean, candidate),
        kv_wildcard: kv_wildcard_prepared(reference, candidate),
        unit_test: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score_pair_text;

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
    fn prepared_matches_text_path_on_representative_candidates() {
        let prepared = PreparedRef::new(REF);
        for candidate in [
            crate::strip_label_comments(REF),
            crate::strip_label_comments(REF).replace("nginx-service", "my-svc"),
            "kind: Service\napiVersion: v1\n".to_owned(),
            "Sure! Here is what you should do: create a service.".to_owned(),
            "not: [valid\n".to_owned(),
            String::new(),
            "a: 1\n---\nb: 2\n".to_owned(),
        ] {
            let got = score_pair_prepared(&prepared, &PreparedDoc::new(candidate.as_str()));
            let want = score_pair_text(REF, &candidate);
            assert_eq!(got, want, "diverged on candidate {candidate:?}");
        }
    }

    #[test]
    fn kernel_path_matches_legacy_path() {
        let prepared = PreparedRef::new(REF);
        let mut scratch = crate::ScoreScratch::new();
        for candidate in [
            crate::strip_label_comments(REF),
            crate::strip_label_comments(REF).replace("nginx-service", "my-svc"),
            "totally different\nprose lines\n".to_owned(),
            "not: [valid\n".to_owned(),
            String::new(),
        ] {
            let doc = PreparedDoc::new(candidate.as_str());
            let kernel = score_pair_prepared_with(&prepared, &doc, &mut scratch);
            let legacy = score_pair_prepared_legacy(&prepared, &doc);
            assert_eq!(kernel, legacy, "kernel diverged on {candidate:?}");
        }
    }

    #[test]
    fn kernel_latency_lands_in_obs_histograms() {
        let prepared = PreparedRef::new(REF);
        let before = obs::global()
            .histogram_snapshot("score_kernel_us", &[("metric", "bleu")])
            .map_or(0, |s| s.count);
        score_pair_prepared(&prepared, &PreparedDoc::new("a: 1\n"));
        let after = obs::global()
            .histogram_snapshot("score_kernel_us", &[("metric", "bleu")])
            .expect("histogram registered")
            .count;
        assert!(after > before, "bleu kernel histogram did not record");
    }

    #[test]
    fn clean_text_equals_strip_label_comments() {
        let prepared = PreparedRef::new(REF);
        assert_eq!(prepared.clean_text(), crate::strip_label_comments(REF));
        assert!(prepared.issue().is_none());
    }

    #[test]
    fn unparsable_reference_surfaces_issue_and_keeps_scores() {
        let broken = "a: [1,\nb: 2\n";
        let prepared = PreparedRef::new(broken);
        let issue = prepared.issue().expect("issue surfaced");
        assert!(matches!(issue, ScoreIssue::ReferenceUnparsable { .. }));
        assert!(issue.wire().starts_with("reference_unparsable:"));
        // Numeric scores stay identical to the text path's silent zeros.
        for candidate in ["a: 1\n", "garbage {{{", ""] {
            let got = score_pair_prepared(&prepared, &PreparedDoc::new(candidate));
            assert_eq!(got, score_pair_text(broken, candidate));
            assert_eq!(got.kv_exact, 0.0);
            assert_eq!(got.kv_wildcard, 0.0);
        }
    }

    #[test]
    fn ref_cache_prepares_each_reference_once() {
        let cache = RefCache::new();
        let a = cache.prepare(REF);
        let b = cache.prepare(REF);
        assert!(Arc::ptr_eq(&a, &b));
        cache.prepare("other: ref\n");
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }
}
