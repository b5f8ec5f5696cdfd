//! Pinned verdict digest: the `(passed, simulated_ms, diagnosis)` of every
//! distinct unit-test execution of the Table 4 grid (12 models × 3
//! variants, zero-shot greedy prompts) is folded into one FNV-1a hash, so
//! a change to kubesim, minishell or the substrate that alters a single
//! verdict, simulated duration or diagnosis line fails here.
//!
//! An execution is a distinct (extracted candidate, unit-test script)
//! pair, run once through the memo-free executor in first-seen order
//! (model, then problem, then variant). The default test covers every
//! 7th problem (1,213 executions) and keeps to a few seconds in a debug
//! build. The ignored test is the full grid, 8,341 executions; run it with
//! `cargo test --release -p evalcluster --test verdict_digest -- --include-ignored`.
//!
//! Re-pin a digest only when a verdict is meant to change.

use std::collections::HashSet;
use std::sync::Arc;

use cedataset::fewshot::build_prompt;
use cedataset::{Dataset, Variant};
use evalcluster::executor::execute_uncached;
use llmsim::{extract_yaml, standard_models, GenParams, LanguageModel};
use yamlkit::PreparedDoc;

/// FNV-1a over every verdict, each followed by a `0xff` separator (a
/// byte no UTF-8 text contains), plus a count of the executions.
struct Digest {
    hash: u64,
    executions: usize,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            executions: 0,
        }
    }

    fn add(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(&[0xff]) {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
        self.executions += 1;
    }
}

/// Executes every distinct (candidate, script) pair of every
/// `problem_stride`-th problem and digests the verdicts.
fn digest(problem_stride: usize) -> Digest {
    let dataset = Arc::new(Dataset::generate());
    let models = standard_models(Arc::clone(&dataset));
    let mut seen: HashSet<(String, &str)> = HashSet::new();
    let mut digest = Digest::new();
    for model in &models {
        for problem in dataset.problems().iter().step_by(problem_stride) {
            for variant in Variant::ALL {
                let prompt = build_prompt(&problem.prompt_body(variant), 0);
                let candidate = extract_yaml(&model.generate(&prompt, &GenParams::default()));
                if !seen.insert((candidate.clone(), problem.unit_test.as_str())) {
                    continue;
                }
                let verdict = execute_uncached(&PreparedDoc::shared(candidate), &problem.unit_test);
                digest.add(&format!(
                    "{} {} {:?}",
                    verdict.passed, verdict.simulated_ms, verdict.diagnosis
                ));
            }
        }
    }
    digest
}

fn assert_digest(problem_stride: usize, want_hash: u64, want_executions: usize) {
    let got = digest(problem_stride);
    assert!(
        (got.executions, got.hash) == (want_executions, want_hash),
        "unit-test verdicts changed: {} executions, digest {:#018x} \
         (pinned: {want_executions}, {want_hash:#018x})",
        got.executions,
        got.hash
    );
}

#[test]
fn verdict_digest_is_pinned() {
    assert_digest(7, 0x7ba8_2663_e20d_cb4c, 1_213);
}

#[test]
#[ignore = "full grid; run in release with --include-ignored"]
fn verdict_digest_full_grid_is_pinned() {
    assert_digest(1, 0xc9e4_564a_d677_c898, 8_341);
}
