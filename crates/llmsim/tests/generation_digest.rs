//! Pinned generation digest: every response of the 12 standard models is
//! folded into one FNV-1a hash, so any change to prompt recognition, the
//! answer-category draw or response realization that alters a single
//! byte fails here.
//!
//! The default test keeps to a few seconds in a debug build: greedy
//! decoding at 0 and 3 shots for every variant of every 4th problem, two
//! sampled draws on every 28th problem and one repair round per feedback
//! mode on every 24th. The ignored test is the full sweep (every problem,
//! every shot count, samples 0–4, repair on every problem); run it with
//! `cargo test --release -p llmsim --test generation_digest -- --include-ignored`.
//!
//! Re-pin a digest only when generated text is meant to change.

use std::sync::Arc;

use cedataset::fewshot::build_prompt;
use cedataset::{Dataset, Variant};
use llmsim::{
    extract_yaml, repair_prompt, standard_models, synthesize_feedback, FeedbackMode, GenParams,
    LanguageModel,
};
use substrate::taxonomy::{Bucket, Diagnosis};

/// FNV-1a over every response, each followed by a `0xff` separator (a
/// byte no UTF-8 text contains), plus a count of the responses.
struct Digest {
    hash: u64,
    responses: usize,
}

impl Digest {
    fn new() -> Digest {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            responses: 0,
        }
    }

    fn add(&mut self, text: &str) {
        for &b in text.as_bytes().iter().chain(&[0xff]) {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
        self.responses += 1;
    }
}

/// Which prompts a digest covers.
struct Sweep {
    /// Every `problem_stride`-th problem, in all three variants.
    problem_stride: usize,
    /// Shot counts for greedy decoding and sampling.
    shots: &'static [usize],
    /// Sample indices drawn with [`GenParams::sampling`].
    samples: &'static [u64],
    /// Sampling covers every `sample_stride`-th problem.
    sample_stride: usize,
    /// One repair round per feedback mode on every `repair_stride`-th
    /// problem.
    repair_stride: usize,
}

/// A deterministic diagnosis for the repair round of problem `idx`:
/// cycles through every taxonomy bucket, with a subject and a detail
/// line so [`FeedbackMode::Full`] differs from the bucket alone.
fn diagnosis(idx: usize) -> Diagnosis {
    Diagnosis {
        bucket: Bucket::ALL[idx % Bucket::ALL.len()],
        subject: Some(format!("field-{idx}")),
        raw: format!("error: problem {idx} failed its unit test"),
    }
}

fn digest(sweep: &Sweep) -> Digest {
    let dataset = Arc::new(Dataset::generate());
    let models = standard_models(Arc::clone(&dataset));
    let mut digest = Digest::new();
    for model in &models {
        digest.add(model.name());
        let problems = dataset.problems().iter().enumerate();
        for (idx, problem) in problems.step_by(sweep.problem_stride) {
            for variant in Variant::ALL {
                let body = problem.prompt_body(variant);
                for &shots in sweep.shots {
                    let prompt = build_prompt(&body, shots);
                    digest.add(&model.generate(&prompt, &GenParams::default()));
                    if idx % sweep.sample_stride == 0 {
                        for &sample in sweep.samples {
                            digest.add(&model.generate(&prompt, &GenParams::sampling(sample)));
                        }
                    }
                }
                if idx % sweep.repair_stride == 0 {
                    let first = model.generate(&build_prompt(&body, 0), &GenParams::default());
                    let prior = extract_yaml(&first);
                    let diagnosis = diagnosis(idx);
                    for mode in FeedbackMode::ALL {
                        let feedback = synthesize_feedback(Some(&diagnosis), mode);
                        let prompt = repair_prompt(&body, &prior, &feedback, 1);
                        digest.add(&model.generate(&prompt, &GenParams::default()));
                    }
                }
            }
        }
    }
    digest
}

fn assert_digest(sweep: &Sweep, want_hash: u64, want_responses: usize) {
    let got = digest(sweep);
    assert!(
        (got.responses, got.hash) == (want_responses, want_hash),
        "generated responses changed: {} responses, digest {:#018x} \
         (pinned: {want_responses}, {want_hash:#018x})",
        got.responses,
        got.hash
    );
}

#[test]
fn generation_digest_is_pinned() {
    let sweep = Sweep {
        problem_stride: 4,
        shots: &[0, 3],
        samples: &[1, 2],
        sample_stride: 28,
        repair_stride: 24,
    };
    assert_digest(&sweep, 0x265f_7b8d_2c5a_1281, 9_624);
}

#[test]
#[ignore = "full sweep; run in release with --include-ignored"]
fn generation_digest_full_sweep_is_pinned() {
    let sweep = Sweep {
        problem_stride: 1,
        shots: &[0, 1, 2, 3],
        samples: &[0, 1, 2, 3, 4],
        sample_stride: 1,
        repair_stride: 1,
    };
    assert_digest(&sweep, 0x294a_93fa_290a_3d12, 327_576);
}
