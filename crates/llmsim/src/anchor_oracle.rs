//! The anchor index against the linear-scan oracle: on every prompt the
//! benchmark builds, on repair prompts, on concatenations, cuts and
//! splices of them, and on hand-built datasets that exercise the
//! longest-match and tie rules, [`AnchorIndex::recognize`] and
//! [`recognize_by_scan`] must return the same (problem, variant, shots).

use std::sync::{Arc, OnceLock};

use cedataset::fewshot::build_prompt;
use cedataset::{Category, Dataset, Problem, Variant};
use proptest::prelude::*;

use crate::anchor::{recognize_by_scan, AnchorIndex};
use crate::{
    extract_yaml, repair_prompt, synthesize_feedback, FeedbackMode, GenParams, LanguageModel,
    ModelProfile, SimulatedModel,
};

/// The 337-problem dataset and its index, built once for every test.
fn fixture() -> &'static (Arc<Dataset>, AnchorIndex) {
    static FIXTURE: OnceLock<(Arc<Dataset>, AnchorIndex)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = Arc::new(Dataset::generate());
        let index = AnchorIndex::new(dataset.problems());
        (dataset, index)
    })
}

/// Asserts index ≡ scan on one prompt and returns the shared answer.
fn check(
    index: &AnchorIndex,
    problems: &[Problem],
    prompt: &str,
) -> Option<(usize, Variant, usize)> {
    let got = index.recognize(problems, prompt);
    let want = recognize_by_scan(problems, prompt);
    assert_eq!(got, want, "prompt: {prompt:?}");
    got
}

/// Length of the description a recognition names.
fn described_len(problems: &[Problem], found: Option<(usize, Variant, usize)>) -> usize {
    found.map_or(0, |(idx, v, _)| problems[idx].description_for(v).len())
}

/// The shortest non-empty description, in bytes.
fn anchor_len(problems: &[Problem]) -> usize {
    problems
        .iter()
        .flat_map(|p| Variant::ALL.map(|v| p.description_for(v).len()))
        .filter(|&len| len > 0)
        .min()
        .unwrap()
}

/// Every (problem, variant, shots) prompt the benchmark builds is
/// recognized as what it was built from; the scan, slow in a debug build,
/// confirms one shot count per (problem, variant), cycling through 0–3.
#[test]
fn every_benchmark_prompt_is_recognized_as_the_scan_does() {
    let (dataset, index) = fixture();
    let problems = dataset.problems();
    for (idx, p) in problems.iter().enumerate() {
        for (rank, variant) in Variant::ALL.into_iter().enumerate() {
            for shots in 0..=3 {
                let prompt = build_prompt(&p.prompt_body(variant), shots);
                let found = if (idx + rank) % 4 == shots {
                    check(index, problems, &prompt)
                } else {
                    index.recognize(problems, &prompt)
                };
                assert_eq!(found, Some((idx, variant, shots)), "{} {variant:?}", p.id);
            }
        }
    }
}

#[test]
fn anchor_length_is_the_shortest_description() {
    let (dataset, _) = fixture();
    assert_eq!(anchor_len(dataset.problems()), 117);
    // The extended scenario families are indexed and recognized too.
    let extended = Dataset::generate_extended(40);
    let problems = extended.problems();
    let index = AnchorIndex::new(problems);
    for (idx, p) in problems.iter().enumerate().skip(330) {
        for variant in Variant::ALL {
            let prompt = build_prompt(&p.prompt_body(variant), 1);
            assert_eq!(check(&index, problems, &prompt), Some((idx, variant, 1)));
        }
    }
}

#[test]
fn repair_prompts_are_recognized_as_the_scan_does() {
    let (dataset, index) = fixture();
    let problems = dataset.problems();
    let model = SimulatedModel::new(ModelProfile::by_name("gpt-4").unwrap(), Arc::clone(dataset));
    let diagnosis = substrate::taxonomy::classify_message(
        "Pod in version \"v1\" cannot be handled as a Pod: strict decoding error: unknown field \"containerz\"",
    );
    for (idx, p) in problems.iter().enumerate().step_by(4) {
        for variant in Variant::ALL {
            let body = p.prompt_body(variant);
            let first = model.generate(&build_prompt(&body, 0), &GenParams::default());
            let mode = FeedbackMode::ALL[idx % FeedbackMode::ALL.len()];
            let feedback = synthesize_feedback(Some(&diagnosis), mode);
            let prompt = repair_prompt(&body, &extract_yaml(&first), &feedback, 1 + idx % 3);
            assert_eq!(check(index, problems, &prompt), Some((idx, variant, 0)));
        }
    }
}

#[test]
fn short_empty_and_unknown_prompts_match_the_scan() {
    let (dataset, index) = fixture();
    let problems = dataset.problems();
    let m = anchor_len(problems);
    assert_eq!(check(index, problems, ""), None);
    assert_eq!(check(index, problems, "What is the weather like?"), None);
    assert_eq!(check(index, problems, "Example question:\nhi"), None);
    let d = problems[0].description_for(Variant::Original);
    let mut cut = m - 1;
    while !d.is_char_boundary(cut) {
        cut -= 1;
    }
    assert_eq!(check(index, problems, &d[..cut]), None);
}

/// A problem whose three descriptions are given; other fields are filler.
fn problem(id: &str, description: &str, simplified: &str, translated: &str) -> Problem {
    Problem::new(
        id.to_owned(),
        Category::Pod,
        [description, simplified, translated].map(str::to_owned),
        None,
        "apiVersion: v1\nkind: Pod\n".to_owned(),
        "echo unit_test_passed".to_owned(),
    )
}

#[test]
fn a_description_containing_another_wins() {
    let short = "Create a pod named web running nginx.";
    let long = "Create a pod named web running nginx. Expose port 80 and label it app=web.";
    let problems = vec![
        problem("short", short, "", ""),
        problem("long", "", long, ""),
    ];
    let index = AnchorIndex::new(&problems);
    assert_eq!(
        check(&index, &problems, &build_prompt(short, 0)),
        Some((0, Variant::Original, 0))
    );
    assert_eq!(
        check(&index, &problems, &build_prompt(long, 2)),
        Some((1, Variant::Simplified, 2))
    );
    // Either order of the two in one prompt: the longer wins.
    for prompt in [format!("{short}\n{long}"), format!("{long}\n{short}")] {
        assert_eq!(
            check(&index, &problems, &prompt),
            Some((1, Variant::Simplified, 0))
        );
    }
}

#[test]
fn equal_length_descriptions_sharing_an_anchor_tie_to_scan_order() {
    // Three descriptions of one length share their first m bytes (m is
    // the length of the shortest, "创建一个服务", 18 bytes); a duplicate
    // description makes a second exact tie.
    let a = "Create a deployment named api with 3 replicas.";
    let b = "Create a deployment named api with 5 replicas.";
    let c = "Create a deployment named api with 7 replicas.";
    let problems = vec![
        problem("p0", "创建一个服务", b, ""),
        problem("p1", a, "", c),
        problem("p2", "", b, ""),
    ];
    let index = AnchorIndex::new(&problems);
    assert_eq!(anchor_len(&problems), 18);
    // Each alone: the anchor hash collides across all three, so only the
    // `starts_with` check tells them apart.
    assert_eq!(check(&index, &problems, a), Some((1, Variant::Original, 0)));
    assert_eq!(
        check(&index, &problems, c),
        Some((1, Variant::Translated, 0))
    );
    // `b` is both p0/Simplified and p2/Simplified: the first wins.
    assert_eq!(
        check(&index, &problems, b),
        Some((0, Variant::Simplified, 0))
    );
    // Several in one prompt, in any order: the first in (problem,
    // variant) order wins, wherever it sits in the prompt.
    let orders = [[a, b, c], [c, b, a], [c, a, b], [b, c, a]];
    for order in orders {
        let prompt = order.join("\n");
        assert_eq!(
            check(&index, &problems, &prompt),
            Some((0, Variant::Simplified, 0))
        );
    }
    for prompt in [format!("{c} {a}"), format!("{a} {c}")] {
        assert_eq!(
            check(&index, &problems, &prompt),
            Some((1, Variant::Original, 0))
        );
    }
    // The shortest description, multi-byte, with text around it.
    assert_eq!(
        check(&index, &problems, "请：创建一个服务。"),
        Some((0, Variant::Original, 0))
    );
}

fn any_description() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..337, 0usize..3, 0usize..4)
}

fn prompt_of((idx, variant, shots): (usize, usize, usize)) -> String {
    let (dataset, _) = fixture();
    build_prompt(
        &dataset.problems()[idx].prompt_body(Variant::ALL[variant]),
        shots,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two prompts back to back: the longer description wins, ties to
    /// the first in (problem, variant) order.
    #[test]
    fn concatenated_prompts_match_the_scan(
        first in any_description(),
        second in any_description(),
    ) {
        let (dataset, index) = fixture();
        let problems = dataset.problems();
        let prompt = format!("{}{}", prompt_of(first), prompt_of(second));
        let found = check(index, problems, &prompt);
        let longest = [first, second]
            .map(|(idx, v, _)| problems[idx].description_for(Variant::ALL[v]).len())
            .into_iter()
            .max()
            .unwrap();
        prop_assert!(described_len(problems, found) >= longest);
    }

    /// Random fragments of descriptions and of prompts, spliced with
    /// filler: partial anchors, and descriptions that only appear whole
    /// across a splice.
    #[test]
    fn spliced_fragments_match_the_scan(
        parts in prop::collection::vec((any_description(), 0usize..4096, 0usize..4096), 1..5),
        filler in "[a-z ]{0,12}",
    ) {
        let (dataset, index) = fixture();
        let mut prompt = String::new();
        for (desc, from, to) in parts {
            let text = prompt_of(desc);
            let (mut from, mut to) = (from % (text.len() + 1), to % (text.len() + 1));
            if from > to {
                std::mem::swap(&mut from, &mut to);
            }
            while !text.is_char_boundary(from) {
                from -= 1;
            }
            while !text.is_char_boundary(to) {
                to += 1;
            }
            prompt.push_str(&text[from..to]);
            prompt.push_str(&filler);
        }
        check(index, dataset.problems(), &prompt);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A prompt cut at every char boundary within ±m bytes of where its
    /// description starts and ends: each prefix and suffix.
    #[test]
    fn prompts_cut_near_a_description_match_the_scan(desc in any_description()) {
        let (dataset, index) = fixture();
        let problems = dataset.problems();
        let m = anchor_len(problems);
        let prompt = prompt_of(desc);
        let d = problems[desc.0].description_for(Variant::ALL[desc.1]);
        let start = prompt.rfind(d).unwrap();
        for edge in [start, start + d.len()] {
            let cuts = edge.saturating_sub(m)..=(edge + m).min(prompt.len());
            for cut in cuts.filter(|&c| prompt.is_char_boundary(c)) {
                check(index, problems, &prompt[..cut]);
                check(index, problems, &prompt[cut..]);
            }
        }
    }
}
