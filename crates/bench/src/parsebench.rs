//! The `repro parse`, `repro score`, and `repro bench` targets.
//!
//! `parse` is a self-contained A/B of the legacy boxed-tree parser
//! against the arena + interner path over the full generated corpus —
//! no criterion harness, so it runs in seconds and prints a PASS/MISS
//! verdict against the 1.5x acceptance floor.
//!
//! `score` is the same shape for the scoring engine: the
//! symbol-interned kernels (rolling-hash BLEU + bit-parallel edit
//! distance) against the kept legacy string-slice kernels on the pass@k
//! workload, with a bit-for-bit identical-scores check and a PASS/MISS
//! verdict on the same 1.5x floor.
//!
//! `bench` drives every criterion engine group and writes each one's
//! machine-readable report to `BENCH_<name>.json` at the repository
//! root, which is exactly what CI archives — running it locally keeps
//! the checked-in perf trajectory current.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every YAML text the pipeline parses per session: the labeled
/// reference and the clean reference of each generated problem.
fn corpus() -> Vec<String> {
    let ds = cedataset::Dataset::generate();
    ds.problems()
        .iter()
        .flat_map(|p| [p.labeled_reference.clone(), p.clean_reference()])
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

/// Kernel-vs-legacy static scoring over the pass@k workload (the same
/// reference × k-candidate shape the `score_engine` criterion group
/// uses), with the bit-for-bit identity check and the 1.5x acceptance
/// verdict. Returned as a printable report; CI greps it for
/// `identical` and `PASS`.
pub fn score_report() -> String {
    const REPS: usize = 7;
    const K: usize = 8;
    let ds = cedataset::Dataset::generate();
    // Every 6th problem, each with k near-miss candidate variants —
    // identical to the score_engine bench workload.
    let workload: Vec<(cescore::PreparedRef, Vec<cescore::PreparedDoc>)> = ds
        .problems()
        .iter()
        .step_by(6)
        .map(|p| {
            let base = p.clean_reference();
            let candidates = (0..K)
                .map(|k| match k % 4 {
                    0 => base.clone(),
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

/// `(bench file, criterion group filter, repo-root artifact)` for every
/// engine group CI tracks. `repro bench` and the CI steps stay in sync
/// through this table.
pub const ENGINE_BENCHES: &[(&str, &str, &str)] = &[
    ("parse", "parse_engine", "BENCH_parse.json"),
    ("pipeline", "pipeline_engine", "BENCH_pipeline.json"),
    ("scoring", "score_engine", "BENCH_score.json"),
    ("repair", "repair_engine", "BENCH_repair.json"),
    ("serve", "serve_engine", "BENCH_serve.json"),
    ("obs", "obs_engine", "BENCH_obs.json"),
];

/// The repository root, resolved from this crate's manifest directory
/// (`crates/bench` → two levels up).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels below the repo root")
        .to_path_buf()
}

/// Runs every criterion engine group via `cargo bench`, pointing
/// `CRITERION_JSON` at `BENCH_<name>.json` in the repository root so
/// the perf-trajectory artifacts CI archives are refreshed in place.
pub fn bench_report() -> String {
    let root = repo_root();
    let mut out = String::new();
    for (bench, group, artifact) in ENGINE_BENCHES {
        let json = root.join(artifact);
        let status = std::process::Command::new("cargo")
            .args([
                "bench",
                "-p",
                "cloudeval-bench",
                "--bench",
                bench,
                "--",
                group,
            ])
            .env("CRITERION_JSON", &json)
            .status();
        let line = match status {
            Ok(s) if s.success() => format!("{group:<16} -> {}\n", json.display()),
            Ok(s) => format!("{group:<16} FAILED ({s})\n"),
            Err(e) => format!("{group:<16} could not launch cargo: {e}\n"),
        };
        out.push_str(&line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_bench_table_names_are_consistent() {
        for (bench, group, artifact) in ENGINE_BENCHES {
            assert!(artifact.starts_with("BENCH_") && artifact.ends_with(".json"));
            assert!(!bench.is_empty() && group.ends_with("_engine"));
        }
    }

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
