//! The `repro parse` and `repro score` targets: kernel-versus-oracle
//! A/Bs that check their two paths agree and time both.
//!
//! `parse` is a self-contained A/B of the legacy boxed-tree parser
//! against the arena + interner path over the full generated corpus.
//! It runs in seconds and prints a PASS/MISS verdict against the 1.5x
//! acceptance floor.
//!
//! `score` is the same shape for the scoring engine: the
//! symbol-interned kernels (rolling-hash BLEU + bit-parallel edit
//! distance) against the kept legacy string-slice kernels on the pass@k
//! workload, with a bit-for-bit identical-scores check and a PASS/MISS
//! verdict on the same 1.5x floor.

use std::time::{Duration, Instant};

/// Every YAML text the pipeline parses per session: the labeled
/// reference and the clean reference of each generated problem.
fn corpus() -> Vec<String> {
    let ds = cedataset::Dataset::generate();
    ds.problems()
        .iter()
        .flat_map(|p| [p.labeled_reference.clone(), p.clean_reference().to_owned()])
        .collect()
}

/// Runs `f` once as warmup, then `reps` timed repetitions, returning
/// the best wall-clock time and the (checksum) result of the last run.
fn best_of<F: FnMut() -> usize>(reps: usize, mut f: F) -> (Duration, usize) {
    let mut check = f();
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let started = Instant::now();
        check = f();
        best = best.min(started.elapsed());
    }
    (best, check)
}

/// Legacy-vs-arena parse throughput over the full corpus, with the
/// 1.5x acceptance verdict. Returned as a printable report.
pub fn parse_report() -> String {
    const REPS: usize = 7;
    let texts = corpus();
    let bytes: usize = texts.iter().map(String::len).sum();
    let (legacy, legacy_check) = best_of(REPS, || {
        texts
            .iter()
            .filter_map(|t| yamlkit::parse_legacy(t).ok())
            .map(|nodes| nodes.len())
            .sum()
    });
    let (arena, arena_check) = best_of(REPS, || {
        texts
            .iter()
            .map(|t| {
                let doc = yamlkit::ArenaDoc::parse(t.as_str());
                if doc.error().is_none() {
                    doc.doc_count()
                } else {
                    0
                }
            })
            .sum()
    });
    let (materialized, materialized_check) = best_of(REPS, || {
        texts
            .iter()
            .filter_map(|t| yamlkit::parse(t).ok())
            .map(|nodes| nodes.len())
            .sum()
    });
    assert_eq!(legacy_check, arena_check, "parser disagreement on corpus");
    assert_eq!(legacy_check, materialized_check);
    let mbps = |d: Duration| bytes as f64 / 1e6 / d.as_secs_f64();
    let speedup = legacy.as_secs_f64() / arena.as_secs_f64();
    let verdict = if speedup >= 1.5 { "PASS" } else { "MISS" };
    format!(
        "parse engine A/B — {} documents, {:.2} MB, best of {REPS}\n\
         legacy boxed-tree     {:>9.3} ms  {:>7.1} MB/s\n\
         arena + interner      {:>9.3} ms  {:>7.1} MB/s\n\
         arena, materialized   {:>9.3} ms  {:>7.1} MB/s\n\
         speedup (arena vs legacy): {speedup:.2}x — {verdict} (floor 1.5x)\n",
        texts.len(),
        bytes as f64 / 1e6,
        legacy.as_secs_f64() * 1e3,
        mbps(legacy),
        arena.as_secs_f64() * 1e3,
        mbps(arena),
        materialized.as_secs_f64() * 1e3,
        mbps(materialized),
    )
}

/// Kernel-vs-legacy static scoring over the pass@k workload (every 6th
/// reference × k near-miss candidates), with the bit-for-bit identity
/// check and the 1.5x acceptance verdict. Returned as a printable report; CI greps it for
/// `identical` and `PASS`.
pub fn score_report() -> String {
    const REPS: usize = 7;
    const K: usize = 8;
    let ds = cedataset::Dataset::generate();
    // Every 6th problem, each with k near-miss candidate variants.
    let workload: Vec<(cescore::PreparedRef, Vec<cescore::PreparedDoc>)> = ds
        .problems()
        .iter()
        .step_by(6)
        .map(|p| {
            let base = p.clean_reference();
            let candidates = (0..K)
                .map(|k| match k % 4 {
                    0 => base.to_owned(),
                    1 => base.replace("latest", "1.25"),
                    2 => format!("{base}extra-{k}: {k}\n"),
                    _ => base.replace("name:", "name: variant-"),
                })
                .map(|c| cescore::PreparedDoc::new(c.as_str()))
                .collect();
            (cescore::PreparedRef::new(&p.labeled_reference), candidates)
        })
        .collect();
    let pairs: usize = workload.iter().map(|(_, cands)| cands.len()).sum();

    // Identity first: every pair, every static metric, bit for bit.
    let mut scratch = cescore::ScoreScratch::new();
    for (reference, candidates) in &workload {
        for doc in candidates {
            let kernel = cescore::score_pair_prepared_with(reference, doc, &mut scratch);
            let legacy = cescore::score_pair_prepared_legacy(reference, doc);
            assert_eq!(
                kernel, legacy,
                "kernel/legacy divergence — scoring is broken, not just slow"
            );
        }
    }

    // A fingerprint of all five metric bit patterns, so the timed runs
    // also prove both paths compute the same numbers.
    let fingerprint = |s: &cescore::Scores| {
        s.static_metrics()
            .iter()
            .fold(0usize, |acc, v| acc.rotate_left(7) ^ v.to_bits() as usize)
    };
    let (legacy, legacy_check) = best_of(REPS, || {
        workload
            .iter()
            .flat_map(|(reference, candidates)| {
                candidates
                    .iter()
                    .map(|doc| fingerprint(&cescore::score_pair_prepared_legacy(reference, doc)))
            })
            .fold(0usize, usize::wrapping_add)
    });
    let mut scratch = cescore::ScoreScratch::new();
    let (kernel, kernel_check) = best_of(REPS, || {
        let mut acc = 0usize;
        for (reference, candidates) in &workload {
            for doc in candidates {
                acc = acc.wrapping_add(fingerprint(&cescore::score_pair_prepared_with(
                    reference,
                    doc,
                    &mut scratch,
                )));
            }
        }
        acc
    });
    assert_eq!(legacy_check, kernel_check, "timed runs disagree");
    let speedup = legacy.as_secs_f64() / kernel.as_secs_f64();
    let verdict = if speedup >= 1.5 { "PASS" } else { "MISS" };
    format!(
        "scoring kernel A/B — {} references x {K} candidates ({pairs} pairs), best of {REPS}\n\
         legacy string-slice kernels   {:>9.3} ms  {:>7.1} us/pair\n\
         symbol-interned kernels       {:>9.3} ms  {:>7.1} us/pair\n\
         scores: identical across {pairs} pairs (all five static metrics, bit-for-bit)\n\
         speedup (kernel vs legacy): {speedup:.2}x — {verdict} (floor 1.5x)\n",
        workload.len(),
        legacy.as_secs_f64() * 1e3,
        legacy.as_secs_f64() * 1e6 / pairs as f64,
        kernel.as_secs_f64() * 1e3,
        kernel.as_secs_f64() * 1e6 / pairs as f64,
    )
}
