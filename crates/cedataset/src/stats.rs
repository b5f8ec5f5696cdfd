//! Dataset statistics: Table 1 (augmentation) and Table 2 (per-category).

use crate::augment::word_count;
use crate::generator::Dataset;
use crate::problem::{Category, Problem, Variant};

/// Approximate LLM token count. Matches the shape of BPE tokenizers: one
/// token per ~4 characters of prose, with whitespace/punctuation splits as
/// a lower bound.
pub fn token_count(text: &str) -> usize {
    let by_chars = text.chars().count().div_ceil(4);
    let by_words = cescore::tokenize_ref(text).len();
    by_chars.max(by_words)
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryStats {
    /// Category (column).
    pub category: Category,
    /// Total problems.
    pub count: usize,
    /// Mean words in the question.
    pub avg_question_words: f64,
    /// Mean lines in the reference solution.
    pub avg_solution_lines: f64,
    /// Mean tokens in the reference solution.
    pub avg_solution_tokens: f64,
    /// Max tokens in the reference solution.
    pub max_solution_tokens: usize,
    /// Mean lines in the unit test.
    pub avg_unit_test_lines: f64,
}

/// Computes Table 2 rows for every category plus a synthetic `Total/Avg`
/// row (returned last with `category` = the first category; use
/// [`table2`] for display).
pub fn category_stats(dataset: &Dataset) -> Vec<CategoryStats> {
    Category::target_counts()
        .iter()
        .map(|(cat, _)| {
            let problems: Vec<&Problem> = dataset.by_category(*cat).collect();
            stats_for(*cat, &problems)
        })
        .collect()
}

fn stats_for(category: Category, problems: &[&Problem]) -> CategoryStats {
    let n = problems.len().max(1) as f64;
    let words: usize = problems
        .iter()
        .map(|p| word_count(p.description_for(Variant::Original)))
        .sum();
    let sol_lines: usize = problems.iter().map(|p| p.reference_lines()).sum();
    let sol_tokens: Vec<usize> = problems
        .iter()
        .map(|p| token_count(p.clean_reference()))
        .collect();
    let test_lines: usize = problems
        .iter()
        .map(|p| p.unit_test.trim().lines().count())
        .sum();
    CategoryStats {
        category,
        count: problems.len(),
        avg_question_words: words as f64 / n,
        avg_solution_lines: sol_lines as f64 / n,
        avg_solution_tokens: sol_tokens.iter().sum::<usize>() as f64 / n,
        max_solution_tokens: sol_tokens.iter().copied().max().unwrap_or(0),
        avg_unit_test_lines: test_lines as f64 / n,
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantStats {
    /// Variant (column).
    pub variant: Variant,
    /// Problem count (337 each).
    pub count: usize,
    /// Mean words per question.
    pub avg_words: f64,
    /// Mean tokens per question (including the YAML context, as the paper
    /// counts whole prompts).
    pub avg_tokens: f64,
}

/// Computes Table 1: original vs simplified vs translated statistics.
pub fn variant_stats(dataset: &Dataset) -> Vec<VariantStats> {
    Variant::ALL
        .iter()
        .map(|variant| {
            let mut words = 0usize;
            let mut tokens = 0usize;
            for p in dataset.problems() {
                words += word_count(p.description_for(*variant));
                tokens += token_count(&p.prompt_body(*variant));
            }
            let n = dataset.len() as f64;
            VariantStats {
                variant: *variant,
                count: dataset.len(),
                avg_words: words as f64 / n,
                avg_tokens: tokens as f64 / n,
            }
        })
        .collect()
}

/// Renders Table 2 as aligned text.
pub fn table2(dataset: &Dataset) -> String {
    let rows = category_stats(dataset);
    let mut out = String::from(
        "Statistics                 pod   daemonset service   job  deployment others  Envoy  Istio  Total/Avg\n",
    );
    let fmt_row = |label: &str, f: &dyn Fn(&CategoryStats) -> String, total: String| {
        let mut line = format!("{label:<26}");
        for r in &rows {
            line.push_str(&format!("{:>7}", f(r)));
        }
        line.push_str(&format!("{total:>11}\n"));
        line
    };
    let total_count: usize = rows.iter().map(|r| r.count).sum();
    out.push_str(&fmt_row(
        "Total Problem Count",
        &|r| r.count.to_string(),
        total_count.to_string(),
    ));
    let avg = |extract: &dyn Fn(&CategoryStats) -> f64| -> f64 {
        rows.iter()
            .map(|r| extract(r) * r.count as f64)
            .sum::<f64>()
            / total_count as f64
    };
    out.push_str(&fmt_row(
        "Avg. Question Words",
        &|r| format!("{:.1}", r.avg_question_words),
        format!("{:.1}", avg(&|r| r.avg_question_words)),
    ));
    out.push_str(&fmt_row(
        "Avg. Lines of Solution",
        &|r| format!("{:.1}", r.avg_solution_lines),
        format!("{:.1}", avg(&|r| r.avg_solution_lines)),
    ));
    out.push_str(&fmt_row(
        "Avg. Tokens of Solution",
        &|r| format!("{:.1}", r.avg_solution_tokens),
        format!("{:.1}", avg(&|r| r.avg_solution_tokens)),
    ));
    out.push_str(&fmt_row(
        "Max Tokens of Solution",
        &|r| r.max_solution_tokens.to_string(),
        rows.iter()
            .map(|r| r.max_solution_tokens)
            .max()
            .unwrap_or(0)
            .to_string(),
    ));
    out.push_str(&fmt_row(
        "Avg. Lines of Unit Test",
        &|r| format!("{:.1}", r.avg_unit_test_lines),
        format!("{:.1}", avg(&|r| r.avg_unit_test_lines)),
    ));
    out
}

/// Renders Table 1 as aligned text.
pub fn table1(dataset: &Dataset) -> String {
    let rows = variant_stats(dataset);
    let original_words = rows[0].avg_words;
    let original_tokens = rows[0].avg_tokens;
    let mut out = String::from("            Original   Simplified      Translated\n");
    out.push_str(&format!(
        "Count       {:>8}   {:>10}      {:>10}\n",
        rows[0].count, rows[1].count, rows[2].count
    ));
    out.push_str(&format!(
        "Avg. words  {:>8.2}   {:>6.2} ({:+.1}%) {:>8.2}\n",
        rows[0].avg_words,
        rows[1].avg_words,
        (rows[1].avg_words / original_words - 1.0) * 100.0,
        rows[2].avg_words,
    ));
    out.push_str(&format!(
        "Avg. tokens {:>8.1}   {:>6.1} ({:+.1}%) {:>8.1}\n",
        rows[0].avg_tokens,
        rows[1].avg_tokens,
        (rows[1].avg_tokens / original_tokens - 1.0) * 100.0,
        rows[2].avg_tokens,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_count_matches_the_owned_token_formula() {
        // The formula as it stood over owned `String` tokens, on every
        // description the grid's records count.
        let ds = Dataset::generate();
        for p in ds.problems() {
            for v in Variant::ALL {
                let text = p.description_for(v);
                let owned = text
                    .chars()
                    .count()
                    .div_ceil(4)
                    .max(cescore::tokenize(text).len());
                assert_eq!(token_count(text), owned, "{} {v:?}", p.id);
            }
        }
    }

    #[test]
    fn table2_shape_matches_paper() {
        let ds = Dataset::generate();
        let rows = category_stats(&ds);
        assert_eq!(rows.len(), 8);
        // Counts are exact.
        let counts: Vec<usize> = rows.iter().map(|r| r.count).collect();
        assert_eq!(counts, vec![48, 55, 20, 19, 19, 122, 41, 13]);
        // Envoy questions and solutions are the longest, as in the paper.
        let envoy = rows.iter().find(|r| r.category == Category::Envoy).unwrap();
        for r in rows.iter().filter(|r| r.category != Category::Envoy) {
            assert!(
                envoy.avg_solution_lines > r.avg_solution_lines,
                "{:?}",
                r.category
            );
            assert!(
                envoy.avg_question_words > r.avg_question_words,
                "{:?}",
                r.category
            );
        }
    }

    #[test]
    fn simplified_reduces_words_like_table_1() {
        let ds = Dataset::generate();
        let rows = variant_stats(&ds);
        let reduction = 1.0 - rows[1].avg_words / rows[0].avg_words;
        // Paper: 25.7% fewer words. Accept a broad band around it.
        assert!(
            (0.10..=0.45).contains(&reduction),
            "word reduction {:.1}% out of band",
            reduction * 100.0
        );
        // Translated questions use fewer (space-separated) words too.
        assert!(rows[2].avg_words < rows[0].avg_words);
    }

    #[test]
    fn tables_render() {
        let ds = Dataset::generate();
        let t1 = table1(&ds);
        let t2 = table2(&ds);
        assert!(t1.contains("Avg. words"));
        assert!(t2.contains("Total Problem Count"));
        assert!(t2.contains("337"));
    }

    #[test]
    fn token_count_reasonable() {
        assert!(token_count("kind: Pod") >= 2);
        assert!(token_count("") == 0);
        let long = "word ".repeat(100);
        assert!(token_count(&long) >= 100);
    }
}
