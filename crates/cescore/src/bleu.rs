//! BLEU (Papineni et al., 2002) for YAML similarity, mirroring NLTK's
//! `sentence_bleu` with uniform 1–4-gram weights, the metric CloudEval-YAML
//! uses for its text-level score (§3.2).

use std::collections::HashMap;

/// Smoothing applied to zero n-gram precisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Smoothing {
    /// No smoothing: any zero n-gram precision yields a zero score
    /// (NLTK's default behaviour).
    None,
    /// NLTK smoothing method 1: replace zero counts with a small epsilon.
    #[default]
    Epsilon,
}

/// Tokenizes text for BLEU: whitespace-separated words, with YAML/JSON
/// punctuation split out as individual tokens so `name:` and `name` share a
/// unigram.
///
/// Owned convenience wrapper over [`tokenize_ref`]; prefer the borrowed
/// variant on hot paths — it slices the input instead of allocating a
/// `String` per token.
pub fn tokenize(text: &str) -> Vec<String> {
    tokenize_ref(text).into_iter().map(str::to_owned).collect()
}

/// Borrowed-token tokenizer: identical segmentation to [`tokenize`], but
/// every token is a slice of `text` — zero per-token allocations. This is
/// the fast path [`bleu`] (and therefore [`crate::score_pair`]) runs on.
///
/// # Examples
///
/// ```
/// assert_eq!(cescore::tokenize_ref("name: web"), vec!["name", ":", "web"]);
/// ```
pub fn tokenize_ref(text: &str) -> Vec<&str> {
    // Single-pass slice tokenizer, kept verbatim as the seed cost
    // profile of the cold-parse text path. `yamlkit::doc::token_spans`
    // implements the same segmentation as byte spans for PreparedDoc's
    // cache; the `prepared_doc_views_match_direct_tokenization` proptest
    // pins the two together.
    let mut tokens = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in text.char_indices() {
        match c {
            c if c.is_whitespace() => {
                if let Some(s) = start.take() {
                    tokens.push(&text[s..i]);
                }
            }
            ':' | ',' | '[' | ']' | '{' | '}' | '"' | '\'' | '-' | '=' => {
                if let Some(s) = start.take() {
                    tokens.push(&text[s..i]);
                }
                tokens.push(&text[i..i + c.len_utf8()]);
            }
            _ => {
                if start.is_none() {
                    start = Some(i);
                }
            }
        }
    }
    if let Some(s) = start {
        tokens.push(&text[s..]);
    }
    tokens
}

fn ngram_counts<'a>(tokens: &'a [&str], n: usize) -> HashMap<&'a [&'a str], usize> {
    let mut counts: HashMap<&[&str], usize> = HashMap::new();
    if tokens.len() >= n {
        for w in tokens.windows(n) {
            *counts.entry(w).or_insert(0) += 1;
        }
    }
    counts
}

/// Computes sentence-level BLEU of `candidate` against a single `reference`
/// with uniform weights over 1..=4-grams and the given smoothing.
///
/// The score is in `[0, 1]`; higher is better.
///
/// # Examples
///
/// ```
/// let r = "kind: Service\nmetadata:\n  name: web\n";
/// assert!((cescore::bleu(r, r, cescore::Smoothing::Epsilon) - 1.0).abs() < 1e-9);
/// assert!(cescore::bleu(r, "totally unrelated prose", cescore::Smoothing::Epsilon) < 0.1);
/// ```
pub fn bleu(reference: &str, candidate: &str, smoothing: Smoothing) -> f64 {
    let ref_tokens = tokenize_ref(reference);
    let cand_tokens = tokenize_ref(candidate);
    bleu_tokens_ref(&ref_tokens, &cand_tokens, smoothing)
}

/// BLEU over borrowed token sequences (the allocation-free hot path).
pub fn bleu_tokens_ref(reference: &[&str], candidate: &[&str], smoothing: Smoothing) -> f64 {
    if candidate.is_empty() || reference.is_empty() {
        return 0.0;
    }
    const MAX_N: usize = 4;
    const EPS: f64 = 0.1;
    // Orders the reference cannot produce are skipped and the remaining
    // weights renormalized, so short-but-correct answers can still reach
    // BLEU 1.0 (matching how NLTK users evaluate short sequences).
    let effective_n = MAX_N.min(reference.len());
    let mut log_precisions = Vec::with_capacity(effective_n);
    for n in 1..=effective_n {
        let cand_counts = ngram_counts(candidate, n);
        let ref_counts = ngram_counts(reference, n);
        let total: usize = cand_counts.values().sum();
        if total == 0 {
            // Candidate shorter than n, reference is not.
            match smoothing {
                Smoothing::None => return 0.0,
                Smoothing::Epsilon => {
                    log_precisions.push(EPS.ln());
                    continue;
                }
            }
        }
        let clipped: usize = cand_counts
            .iter()
            .map(|(gram, &count)| count.min(ref_counts.get(gram).copied().unwrap_or(0)))
            .sum();
        let p = if clipped == 0 {
            match smoothing {
                Smoothing::None => return 0.0,
                Smoothing::Epsilon => EPS / total as f64,
            }
        } else {
            clipped as f64 / total as f64
        };
        log_precisions.push(p.ln());
    }
    if log_precisions.is_empty() {
        return 0.0;
    }
    let mean_log = log_precisions.iter().sum::<f64>() / log_precisions.len() as f64;
    let bp = brevity_penalty(reference.len(), candidate.len());
    bp * mean_log.exp()
}

/// NLTK's brevity penalty, shared with the symbol-interned kernel in
/// [`crate::kernel`] so both paths run the identical float expression.
pub(crate) fn brevity_penalty(ref_len: usize, cand_len: usize) -> f64 {
    if cand_len >= ref_len {
        1.0
    } else if cand_len == 0 {
        0.0
    } else {
        (1.0 - ref_len as f64 / cand_len as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_text_scores_one() {
        let t = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: x\n";
        assert!((bleu(t, t, Smoothing::Epsilon) - 1.0).abs() < 1e-9);
        assert!((bleu(t, t, Smoothing::None) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_text_scores_zero_without_smoothing() {
        assert_eq!(
            bleu("aaa bbb ccc ddd", "eee fff ggg hhh", Smoothing::None),
            0.0
        );
    }

    #[test]
    fn partial_overlap_is_between() {
        let r = "kind: Service\nmetadata:\n  name: web\nspec:\n  port: 80\n";
        let c = "kind: Service\nmetadata:\n  name: other\nspec:\n  port: 80\n";
        let s = bleu(r, c, Smoothing::Epsilon);
        assert!(s > 0.3 && s < 1.0, "score {s}");
    }

    #[test]
    fn brevity_penalty_punishes_short_candidates() {
        let r = "a b c d e f g h i j k l";
        let short = "a b c d";
        let full = "a b c d e f g h i j k l";
        assert!(bleu(r, short, Smoothing::Epsilon) < bleu(r, full, Smoothing::Epsilon));
    }

    #[test]
    fn empty_candidate_scores_zero() {
        assert_eq!(bleu("a b c", "", Smoothing::Epsilon), 0.0);
    }

    #[test]
    fn tokenizer_splits_yaml_punctuation() {
        assert_eq!(
            tokenize("name: web\nports: [80, 443]"),
            vec!["name", ":", "web", "ports", ":", "[", "80", ",", "443", "]"]
        );
    }

    #[test]
    fn borrowed_tokenizer_matches_owned() {
        for text in [
            "name: web\nports: [80, 443]",
            "",
            "  leading and trailing  ",
            "a-b=c{d}'e'\"f\"",
            "unicode: héllo wörld — dash",
            "block: |\n  multi line\n  body\n",
        ] {
            let owned = tokenize(text);
            let borrowed = tokenize_ref(text);
            assert_eq!(owned, borrowed, "tokenizers disagree on {text:?}");
        }
    }

    #[test]
    fn order_matters_for_higher_ngrams() {
        let r = "a b c d e f";
        let scrambled = "f e d c b a";
        let s = bleu(r, scrambled, Smoothing::Epsilon);
        assert!(s < 0.5, "scrambled should lose n-gram credit, got {s}");
    }

    #[test]
    fn score_bounded() {
        for (r, c) in [("a", "a a a a a"), ("x y", "y x"), ("k: v", "k: v\nk2: v2")] {
            let s = bleu(r, c, Smoothing::Epsilon);
            assert!((0.0..=1.0).contains(&s), "{s} for ({r}, {c})");
        }
    }
}
