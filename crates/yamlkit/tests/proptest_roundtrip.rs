//! Property tests for the yamlkit engine: the emitter/parser pair must
//! round-trip arbitrary value trees, and the wildcard-match IoU must obey
//! its mathematical invariants.

use proptest::prelude::*;
use yamlkit::labels::MatchTree;
use yamlkit::Yaml;

/// Strategy for scalar strings that exercise quoting edge cases without
/// drowning the shrinker in exotic unicode.
fn scalar_string() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9_./:-]{0,12}",
        Just("true".to_owned()),
        Just("5000".to_owned()),
        Just("null".to_owned()),
        Just("- dash".to_owned()),
        Just("a: b".to_owned()),
        Just("has # hash".to_owned()),
        Just("it's".to_owned()),
        Just("line1\nline2".to_owned()),
        Just("trail\n".to_owned()),
        Just("*star".to_owned()),
        Just("&anchor".to_owned()),
        Just(" leading".to_owned()),
    ]
}

/// Strategy for strings exercised through the JSON wire format: quote and
/// escape edge cases, flow punctuation, control characters, unicode.
fn wire_string() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9_./:-]{0,12}",
        Just(String::new()),
        Just("a\"b".to_owned()),
        Just("back\\slash".to_owned()),
        Just("trailing\\".to_owned()),
        Just("a: b".to_owned()),
        Just("comma, brace }".to_owned()),
        Just("]{[".to_owned()),
        Just("line1\nline2".to_owned()),
        Just("tab\there".to_owned()),
        Just("\u{1}ctl".to_owned()),
        Just("写一个 pod".to_owned()),
        Just("1.0".to_owned()),
        Just("null".to_owned()),
        Just("has # hash".to_owned()),
    ]
}

/// Strategy for JSON-representable values: like [`arb_yaml`] but floats
/// stay finite (JSON has no inf/nan) and strings/keys range over the wire
/// edge cases above. Duplicate map keys are fine here: the JSON writer
/// emits both entries and the flow parser preserves both, in order.
fn arb_json_yaml() -> impl Strategy<Value = Yaml> {
    let leaf = prop_oneof![
        Just(Yaml::Null),
        any::<bool>().prop_map(Yaml::Bool),
        (-1_000_000i64..1_000_000).prop_map(Yaml::Int),
        (-1000.0f64..1000.0).prop_map(Yaml::Float),
        Just(Yaml::Float(1.0)),
        Just(Yaml::Float(-0.0)),
        Just(Yaml::Float(1e300)),
        Just(Yaml::Float(2.5e-10)),
        wire_string().prop_map(Yaml::Str),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Yaml::Seq),
            prop::collection::vec((wire_string(), inner), 0..4).prop_map(Yaml::Map),
        ]
    })
}

fn arb_yaml() -> impl Strategy<Value = Yaml> {
    let leaf = prop_oneof![
        Just(Yaml::Null),
        any::<bool>().prop_map(Yaml::Bool),
        (-1_000_000i64..1_000_000).prop_map(Yaml::Int),
        (-1000.0f64..1000.0).prop_map(|f| Yaml::Float((f * 16.0).round() / 16.0)),
        scalar_string().prop_map(Yaml::Str),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Yaml::Seq),
            prop::collection::vec(("[a-zA-Z][a-zA-Z0-9_.-]{0,8}", inner), 0..4).prop_map(
                |entries| {
                    // Deduplicate keys: duplicate-key maps do not round-trip
                    // (the parser keeps both, dictionary loads keep the last).
                    let mut seen = std::collections::HashSet::new();
                    Yaml::Map(
                        entries
                            .into_iter()
                            .filter(|(k, _)| seen.insert(k.clone()))
                            .collect(),
                    )
                }
            ),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse(emit(v)) == v for every value tree.
    #[test]
    fn emit_parse_round_trip(v in arb_yaml()) {
        let text = yamlkit::emit(&v);
        let back = yamlkit::parse_one(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"))
            .to_value();
        prop_assert_eq!(back, v);
    }

    /// A document always matches its own (unlabeled) match tree with IoU 1.
    #[test]
    fn iou_reflexive(v in arb_yaml()) {
        let text = yamlkit::emit(&v);
        let node = yamlkit::parse_one(&text).unwrap();
        let tree = MatchTree::from_node(&node);
        let value = node.to_value();
        prop_assert!((tree.iou(&value) - 1.0).abs() < 1e-12);
    }

    /// IoU is always within [0, 1].
    #[test]
    fn iou_bounded(a in arb_yaml(), b in arb_yaml()) {
        let text = yamlkit::emit(&a);
        let tree = MatchTree::from_node(&yamlkit::parse_one(&text).unwrap());
        let score = tree.iou(&b);
        prop_assert!((0.0..=1.0).contains(&score), "iou {score} out of range");
    }

    /// eq_unordered is reflexive and agrees with kv-exact equality on
    /// emitted round trips.
    #[test]
    fn eq_unordered_reflexive(v in arb_yaml()) {
        prop_assert!(v.eq_unordered(&v));
        let back = yamlkit::parse_one(&yamlkit::emit(&v)).unwrap().to_value();
        prop_assert!(v.eq_unordered(&back));
    }

    /// JSON rendering never panics and produces non-empty output.
    #[test]
    fn json_total(v in arb_yaml()) {
        prop_assert!(!yamlkit::json::to_json(&v).is_empty());
        prop_assert!(!yamlkit::json::to_json_pretty(&v).is_empty());
    }

    /// The API wire-format contract: compact JSON output re-parses through
    /// the YAML parser (JSON is a YAML subset) to a value equal to the
    /// original — types included, so floats stay floats and quoted
    /// number-lookalikes stay strings.
    #[test]
    fn json_reparses_through_yaml_parser(v in arb_json_yaml()) {
        let wire = yamlkit::json::to_json(&v);
        let back = yamlkit::parse_one(&wire)
            .unwrap_or_else(|e| panic!("wire reparse failed: {e}\n---\n{wire}"))
            .to_value();
        prop_assert_eq!(back, v);
    }
}
