//! The [`LanguageModel`] interface and the calibrated simulated model.
//!
//! A simulated model is a pure function of the prompt text and generation
//! parameters: it recognizes which benchmark problem (and variant, and
//! shot count) the prompt contains, draws an answer category from its
//! calibrated distribution, and realizes raw response text. The whole
//! benchmark pipeline — prompt assembly, querying, §3.1 post-processing,
//! scoring, unit testing — therefore runs exactly as it would against a
//! remote API.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cedataset::{Dataset, Problem, Variant};

use crate::anchor::AnchorIndex;
use crate::corrupt::{answer_seed, realize, AnswerCategory};
use crate::difficulty::{calibrate_alpha, dataset_difficulties, pass_probability};
use crate::profiles::ModelProfile;
use crate::repair::{parse_repair_prompt, ParsedRepair};
use substrate::taxonomy::Bucket;

/// Generation parameters (§4.2 uses temperature/top_p/top_k 0.75/0.9/50
/// for Llama-2-70B multi-sampling).
#[derive(Debug, Clone, PartialEq)]
pub struct GenParams {
    /// Sampling temperature; 0 = deterministic greedy decoding.
    pub temperature: f64,
    /// Nucleus sampling mass (recorded; the simulation keys off
    /// temperature and sample index).
    pub top_p: f64,
    /// Top-k cutoff (recorded).
    pub top_k: u32,
    /// Which sample this is (pass@k uses 0..k).
    pub sample_index: u64,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            temperature: 0.0,
            top_p: 1.0,
            top_k: 0,
            sample_index: 0,
        }
    }
}

impl GenParams {
    /// The paper's multi-sample settings for open models.
    pub fn sampling(sample_index: u64) -> GenParams {
        GenParams {
            temperature: 0.75,
            top_p: 0.9,
            top_k: 50,
            sample_index,
        }
    }
}

/// A text-in/text-out model, the query module's universal interface.
pub trait LanguageModel: Send + Sync {
    /// Model name (Table 4's `Name` column).
    fn name(&self) -> &str;

    /// Generates a raw response for a prompt.
    fn generate(&self, prompt: &str, params: &GenParams) -> String;
}

/// Shot counts the benchmark calibrates (0–3).
const SHOT_COUNTS: usize = 4;

/// A simulated benchmark model with a calibrated capability profile.
pub struct SimulatedModel {
    profile: ModelProfile,
    dataset: Arc<Dataset>,
    /// Distinct rows of per-problem pass probabilities, `dataset.len()`
    /// each: settings with the same calibrated pass target share a row.
    pass_rows: Vec<f64>,
    /// Row of `pass_rows` per (variant, shots ≤ 3), in (`Variant::ALL`,
    /// shots) order.
    row_of: [usize; Variant::ALL.len() * SHOT_COUNTS],
    /// Recognizes the problem a prompt asks about; models over one
    /// dataset may share it.
    anchors: Arc<AnchorIndex>,
    /// This model's `llm_generation_us{model=...}` series.
    generation_us: obs::Histogram,
}

impl SimulatedModel {
    /// Builds a simulated model over a dataset.
    pub fn new(profile: ModelProfile, dataset: Arc<Dataset>) -> SimulatedModel {
        let anchors = Arc::new(AnchorIndex::new(dataset.problems()));
        SimulatedModel::with_anchors(profile, dataset, anchors)
    }

    /// Builds a simulated model whose anchor index was built from
    /// `dataset`'s problems.
    fn with_anchors(
        profile: ModelProfile,
        dataset: Arc<Dataset>,
        anchors: Arc<AnchorIndex>,
    ) -> SimulatedModel {
        let difficulties = dataset_difficulties(&dataset, profile.tier);
        let mut pass_rows = Vec::new();
        let mut row_targets: Vec<Option<usize>> = Vec::new();
        let mut row_of = [0; Variant::ALL.len() * SHOT_COUNTS];
        for variant in Variant::ALL {
            for shots in 0..SHOT_COUNTS {
                // α = −∞ (every probability 0) for no target or a target of 0.
                let target = profile.target_passes(variant, shots).filter(|&t| t > 0);
                let row = match row_targets.iter().position(|&t| t == target) {
                    Some(row) => row,
                    None => {
                        let alpha =
                            target.map_or(f64::NEG_INFINITY, |t| calibrate_alpha(&difficulties, t));
                        pass_rows.extend(difficulties.iter().map(|&d| pass_probability(alpha, d)));
                        row_targets.push(target);
                        row_targets.len() - 1
                    }
                };
                // `variant as usize` is the variant's position in `Variant::ALL`.
                row_of[variant as usize * SHOT_COUNTS + shots] = row;
            }
        }
        let generation_us = obs::global().histogram(
            "llm_generation_us",
            &[("model", profile.name)],
            "wall-clock latency of one simulated-model generation",
        );
        SimulatedModel {
            profile,
            dataset,
            pass_rows,
            row_of,
            anchors,
            generation_us,
        }
    }

    /// The model's profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Pass probability for a problem index under a variant/shots setting
    /// (0 beyond the calibrated shot counts 0–3).
    pub fn pass_probability(&self, problem_index: usize, variant: Variant, shots: usize) -> f64 {
        if shots < SHOT_COUNTS {
            self.pass_row(variant, shots)[problem_index]
        } else {
            0.0
        }
    }

    /// Pass probabilities of every problem under one (variant, shots ≤ 3)
    /// setting, in problem order.
    fn pass_row(&self, variant: Variant, shots: usize) -> &[f64] {
        let n = self.dataset.len();
        let row = self.row_of[variant as usize * SHOT_COUNTS + shots];
        &self.pass_rows[row * n..(row + 1) * n]
    }

    /// Identifies (problem, variant, shots) from prompt text: the prompt
    /// embeds one of the three per-variant descriptions, and each few-shot
    /// exemplar adds an `Example question:` header (counted up to 3).
    ///
    /// The problem and variant are those of the longest description the
    /// prompt contains, ties going to the first in (problem index,
    /// `Variant::ALL`) order; the longest match keeps a description that
    /// contains another from being read as the shorter one.
    ///
    /// An [`AnchorIndex`] finds them. Every non-empty description is at
    /// least `m` bytes long (`m` = the shortest; 117 on the 337-problem
    /// set), so every contained description starts at a prompt window
    /// whose `m`-byte hash equals that of its own first `m` bytes; the
    /// index checks each hash hit with `starts_with`, so collisions
    /// cannot produce a false match. The cost is one rolling-hash pass
    /// over the prompt plus one `starts_with` per hit, independent of the
    /// number of problems: under 10 µs for a 1 kB prompt (release build,
    /// 2-vCPU x86-64 Xeon), where a `str::contains` per description costs
    /// 1.3–2.0 ms over the 1,011 descriptions.
    fn identify<'d>(&'d self, prompt: &str) -> Option<(usize, &'d Problem, Variant, usize)> {
        let problems = self.dataset.problems();
        let (idx, variant, shots) = self.anchors.recognize(problems, prompt)?;
        Some((idx, &problems[idx], variant, shots))
    }

    /// Draws the answer category via **systematic sampling**: problems are
    /// laid on a line in a per-(model, variant, shots, sample) permuted
    /// order, each occupying a segment of length `pᵢ`; the integer grid
    /// shifted by a single uniform offset θ marks the passing problems.
    /// Marginally every problem passes with probability exactly `pᵢ`,
    /// while the realized pass count lands within ±1 of the calibrated
    /// target `Σpᵢ` — the paper's Table 5/6 entries are single observed
    /// counts, and this keeps ours faithful to them.
    fn draw_category(
        &self,
        variant: Variant,
        shots: usize,
        problem_index: usize,
        group_seed: u64,
        seed: u64,
        jitter: f64,
    ) -> AnswerCategory {
        let mut rng = StdRng::seed_from_u64(seed);
        let probs = self.pass_row(variant, shots);
        let n = probs.len() as u64;
        // Per-group permutation of the line order (n = 337 is prime, so
        // any multiplier in 1..n generates a permutation): problem j sits
        // at (a·j + b) mod n.
        let a = group_seed % (n - 1) + 1;
        let b = (group_seed >> 32) % n;
        let my_pos = (a * problem_index as u64 + b) % n;
        // Sum in problem order, stepping the position by a mod n.
        let mut c_lo = 0.0f64;
        let mut pos = b;
        for &p in probs {
            if pos < my_pos {
                c_lo += p;
            }
            pos += a;
            if pos >= n {
                pos -= n;
            }
        }
        let p = probs[problem_index];
        // Temperature jitter scales the effective ability window by up to
        // ±TEMPERATURE_JITTER; over k samples only the best draw matters,
        // so pass@k saturates at ≈(1 + TEMPERATURE_JITTER)·pass@1 — the
        // paper's 30-40% multi-sample ceiling.
        const TEMPERATURE_JITTER: f64 = 0.4;
        let p_eff = (p * (1.0 + TEMPERATURE_JITTER * jitter)).clamp(0.0, 1.0);
        let theta = ((group_seed >> 11) as f64) / (u64::MAX >> 11) as f64;
        // Pass iff a point of {θ + m : m ∈ ℤ} falls inside [c_lo, c_lo+p):
        // the point count is floor(c_hi−θ) − floor(c_lo−θ).
        let passes = (c_lo + p_eff - theta).floor() > (c_lo - theta).floor();
        if p_eff > 0.0 && passes {
            return AnswerCategory::Correct;
        }
        let weights = self.profile.failure_weights;
        let total: f64 = weights.iter().sum();
        let mut x = rng.gen_range(0.0..total.max(1e-9));
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return AnswerCategory::ALL[i];
            }
            x -= w;
        }
        AnswerCategory::FailsTest
    }

    /// Answers one repair round: the prompt carried a prior attempt plus
    /// deployment feedback. The fix probability depends on whether the
    /// feedback *plausibly explains the prior attempt* — a named bucket
    /// must agree with what the model can see of its own answer (a
    /// `yaml-syntax` bucket against a well-formed prior, or a semantic
    /// bucket against unparseable text, reads as noise and falls to the
    /// floor). Feedback that names no bucket is never actionable.
    ///
    /// The draw seed hashes the prior attempt's content and the round, so
    /// a repair chain is deterministic per (model, problem, prior, round)
    /// regardless of scheduling — and independent of the first-attempt
    /// seed chain.
    fn generate_repair(
        &self,
        problem: &Problem,
        variant: Variant,
        repair: &ParsedRepair,
    ) -> String {
        // PaLM-2's English-only refusal survives into the repair loop.
        if variant == Variant::Translated && self.profile.passes_translated.is_none() {
            return "I'm sorry, I can only assist with requests in English at this time.\nPlease translate your question and try again.\nThank you for your understanding.\nRegards.".to_owned();
        }
        let prior_docs = yamlkit::parse(&repair.prior).ok();
        let prior_parses = prior_docs.as_ref().is_some_and(|docs| !docs.is_empty());
        let named = repair.named_bucket();
        let plausible = named.is_some_and(|b| (b == Bucket::YamlSyntax) != prior_parses);
        let p = if plausible {
            let base = self
                .profile
                .repair_prob(named.expect("plausible implies named"));
            if repair.has_subject() {
                // Structured diagnostics (Full feedback) localize the fix.
                (base * 1.2).min(0.95)
            } else {
                base
            }
        } else {
            self.profile.repair_floor()
        };
        let seed = answer_seed(
            self.profile.name,
            &format!(
                "{}\u{1}repair\u{1}{}\u{1}{:016x}",
                problem.id,
                repair.round,
                yamlkit::doc::content_hash(&repair.prior)
            ),
            variant as u8,
            0,
            0,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let category = if rng.gen_bool(p.clamp(0.0, 1.0)) {
            AnswerCategory::Correct
        } else {
            // A failed repair is another attempt of the same answer class
            // the prior landed in — realized under a fresh seed, so the
            // next round sees a *different* broken candidate.
            crate::classify_parsed(&repair.prior, prior_docs.as_deref(), problem, false)
        };
        realize(
            problem,
            category,
            seed ^ 0x9e37_79b9_7f4a_7c15,
            self.profile.wrap_prob,
        )
    }
}

impl LanguageModel for SimulatedModel {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn generate(&self, prompt: &str, params: &GenParams) -> String {
        let started = std::time::Instant::now();
        let text = self.generate_text(prompt, params);
        self.generation_us.record(started.elapsed());
        text
    }
}

impl SimulatedModel {
    /// The uninstrumented generation path ([`LanguageModel::generate`]
    /// wraps this with the `llm_generation_us{model=...}` histogram).
    fn generate_text(&self, prompt: &str, params: &GenParams) -> String {
        let Some((idx, problem, variant, shots)) = self.identify(prompt) else {
            // Unknown prompt: a generic, useless-but-plausible reply.
            return "Here is a general example:\napiVersion: v1\nkind: ConfigMap\nmetadata:\n  name: example\n".to_owned();
        };
        // Repair prompts ride the same generate() path (so the query,
        // extraction and scoring stages are literally reused) but draw
        // from the repair distribution.
        if let Some(repair) = parse_repair_prompt(prompt) {
            return self.generate_repair(problem, variant, &repair);
        }
        // PaLM-2's API is English-only at submission time (Table 4 note).
        if variant == Variant::Translated && self.profile.passes_translated.is_none() {
            return "I'm sorry, I can only assist with requests in English at this time.\nPlease translate your question and try again.\nThank you for your understanding.\nRegards.".to_owned();
        }
        // Greedy decoding is deterministic: every sample at temperature 0
        // is the same draw. Positive temperature jitters the model's
        // effective ability per sample, but ability is mostly *persistent*
        // across samples — real models either can or cannot do a problem,
        // and resampling buys the paper ~30-40% at 20 samples (Figure 8),
        // not unbounded gains.
        let effective_sample = if params.temperature == 0.0 {
            0
        } else {
            params.sample_index
        };
        let seed = answer_seed(
            self.profile.name,
            &problem.id,
            variant as u8,
            shots,
            effective_sample,
        );
        let jitter = if effective_sample == 0 {
            0.0
        } else {
            let j = answer_seed(
                self.profile.name,
                &format!("{}\u{1}jitter", problem.id),
                variant as u8,
                shots,
                effective_sample,
            );
            ((j >> 11) as f64 / (u64::MAX >> 11) as f64) * 2.0 - 1.0
        };
        let group_seed = answer_seed(self.profile.name, "\u{1}group", variant as u8, shots, 0);
        let category = self.draw_category(variant, shots, idx, group_seed, seed, jitter);
        realize(
            problem,
            category,
            seed ^ 0x9e37_79b9_7f4a_7c15,
            self.profile.wrap_prob,
        )
    }
}

/// Builds all 12 simulated models over a shared dataset (and one shared
/// anchor index).
pub fn standard_models(dataset: Arc<Dataset>) -> Vec<SimulatedModel> {
    let anchors = Arc::new(AnchorIndex::new(dataset.problems()));
    crate::profiles::all_models()
        .into_iter()
        .map(|p| SimulatedModel::with_anchors(p, Arc::clone(&dataset), Arc::clone(&anchors)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedataset::fewshot::build_prompt;

    fn gpt4() -> SimulatedModel {
        let ds = Arc::new(Dataset::generate());
        SimulatedModel::new(ModelProfile::by_name("gpt-4").unwrap(), ds)
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let m = gpt4();
        let ds = Dataset::generate();
        let p = &ds.problems()[0];
        let prompt = build_prompt(&p.prompt_body(Variant::Original), 0);
        let a = m.generate(&prompt, &GenParams::default());
        let b = m.generate(&prompt, &GenParams::default());
        assert_eq!(a, b);
        // Different sample index at temperature 0 is still the same.
        let c = m.generate(
            &prompt,
            &GenParams {
                sample_index: 5,
                ..GenParams::default()
            },
        );
        assert_eq!(a, c);
    }

    #[test]
    fn sampling_varies_by_sample_index() {
        let m = gpt4();
        let ds = Dataset::generate();
        // Find some problem where outputs differ across samples.
        let mut saw_difference = false;
        for p in ds.problems().iter().take(20) {
            let prompt = build_prompt(&p.prompt_body(Variant::Original), 0);
            let a = m.generate(&prompt, &GenParams::sampling(0));
            let b = m.generate(&prompt, &GenParams::sampling(1));
            if a != b {
                saw_difference = true;
                break;
            }
        }
        assert!(saw_difference);
    }

    #[test]
    fn identifies_variant_from_prompt() {
        let m = gpt4();
        let ds = Dataset::generate();
        let p = &ds.problems()[10];
        let prompt = build_prompt(&p.prompt_body(Variant::Translated), 0);
        let (idx, found, variant, shots) = m.identify(&prompt).unwrap();
        assert_eq!(found.id, p.id);
        assert_eq!(variant, Variant::Translated);
        assert_eq!(shots, 0);
        assert_eq!(ds.problems()[idx].id, p.id);
    }

    #[test]
    fn identifies_shots() {
        let m = gpt4();
        let ds = Dataset::generate();
        let p = &ds.problems()[0];
        let prompt = build_prompt(&p.prompt_body(Variant::Original), 3);
        let (_, _, _, shots) = m.identify(&prompt).unwrap();
        assert_eq!(shots, 3);
    }

    #[test]
    fn palm_refuses_translated() {
        let ds = Arc::new(Dataset::generate());
        let palm = SimulatedModel::new(
            ModelProfile::by_name("palm-2-bison").unwrap(),
            Arc::clone(&ds),
        );
        let p = &ds.problems()[0];
        let prompt = build_prompt(&p.prompt_body(Variant::Translated), 0);
        let out = palm.generate(&prompt, &GenParams::default());
        assert!(out.contains("English"));
    }

    #[test]
    fn expected_pass_rate_matches_target() {
        let m = gpt4();
        let ds = Dataset::generate();
        let total: f64 = (0..ds.len())
            .map(|i| m.pass_probability(i, Variant::Original, 0))
            .sum();
        assert!((total - 179.0).abs() < 0.5, "expected pass mass {total}");
    }

    #[test]
    fn unknown_prompt_gets_generic_answer() {
        let m = gpt4();
        let out = m.generate("What is the weather like?", &GenParams::default());
        assert!(out.contains("ConfigMap"));
    }
}
