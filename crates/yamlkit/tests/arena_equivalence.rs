//! The arena parse path's correctness gate: on *arbitrary* input — valid
//! manifests, labeled references, anchors, comments, and malformed text
//! alike — the arena parser must be indistinguishable from the legacy
//! parser: identical node trees (values, comments, line numbers) on
//! success, identical error line and message on failure. The generator
//! deliberately produces a mix of well-formed and broken documents so
//! both halves of the contract are exercised in the same run.

use proptest::prelude::*;
use yamlkit::labels::MatchTree;
use yamlkit::{ArenaDoc, Node, PreparedDoc, Yaml};

/// Asserts legacy ≡ arena on one input, across every surface the ISSUE
/// names: values, comments, line numbers (all carried by `Node`'s
/// `PartialEq`), label match trees, and parse-error line/message.
fn assert_equivalent(src: &str) {
    let legacy = yamlkit::parse_legacy(src);
    let arena = yamlkit::parse(src);
    match (&legacy, &arena) {
        (Ok(l), Ok(a)) => {
            assert_eq!(l, a, "node trees diverge on {src:?}");
        }
        (Err(l), Err(a)) => {
            assert_eq!(l.line(), a.line(), "error line diverges on {src:?}");
            assert_eq!(
                l.message(),
                a.message(),
                "error message diverges on {src:?}"
            );
        }
        _ => panic!("parse outcome diverges on {src:?}: legacy {legacy:?} vs arena {arena:?}"),
    }
    // The ArenaDoc views must agree with the materialized trees.
    let doc = ArenaDoc::parse(src);
    match &legacy {
        Ok(nodes) => {
            assert!(doc.error().is_none());
            assert_eq!(&doc.materialize_nodes(), nodes);
            let values: Vec<Yaml> = nodes.iter().map(Node::to_value).collect();
            assert_eq!(doc.materialize_values(), values);
            let leaf_count: usize = values.iter().map(Yaml::leaf_count).sum();
            assert_eq!(doc.leaf_count(), leaf_count, "leaf count on {src:?}");
            // Label trees built off the arena equal trees built off nodes.
            let prepared = PreparedDoc::new(src);
            let want: Vec<MatchTree> = nodes.iter().map(MatchTree::from_node).collect();
            assert_eq!(prepared.match_trees(), want, "match trees on {src:?}");
            assert_eq!(prepared.nodes(), nodes.as_slice());
            assert_eq!(prepared.values(), values.as_slice());
        }
        Err(e) => {
            let got = doc.error().expect("arena records the error");
            assert_eq!((got.line(), got.message()), (e.line(), e.message()));
            assert_eq!(doc.doc_count(), 0);
        }
    }
}

/// One body line of generated pseudo-YAML: drawn from a vocabulary that
/// covers scalars, quoting, flow collections, block-scalar headers,
/// anchors/aliases/tags, comments and labels — plus malformed variants
/// (unterminated quotes/flows, tabs, stray content) so error paths get
/// equal coverage.
fn key_strat() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("apiVersion"),
        Just("kind"),
        Just("metadata"),
        Just("name"),
        Just("spec"),
        Just("image"),
        Just("ports"),
        Just("a"),
        Just("b-c"),
        Just("nginx.ingress.kubernetes.io/rewrite-target"),
        Just("\"quoted: key\""),
        Just("'single key'"),
    ]
}

fn value_strat() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("web".to_owned()),
        Just("80".to_owned()),
        Just("1.5".to_owned()),
        Just("true".to_owned()),
        Just("null".to_owned()),
        Just("~".to_owned()),
        Just("0x1F".to_owned()),
        Just("-.inf".to_owned()),
        Just("nginx:latest".to_owned()),
        Just("\"a # b\"".to_owned()),
        Just("'it''s'".to_owned()),
        Just("\"esc\\n\\u0041\"".to_owned()),
        Just("[1, 2, [3]]".to_owned()),
        Just("{app: web, tier: 2}".to_owned()),
        Just("[]".to_owned()),
        Just("{}".to_owned()),
        Just("&anc nginx".to_owned()),
        Just("*anc".to_owned()),
        Just("*missing".to_owned()),
        Just("!!str 80".to_owned()),
        Just("!!int 80".to_owned()),
        Just("|".to_owned()),
        Just("|-".to_owned()),
        Just(">".to_owned()),
        Just(">+".to_owned()),
        Just("http://x/#frag".to_owned()),
        // Malformed values — must produce identical diagnostics.
        Just("[1, 2".to_owned()),
        Just("[1 2]".to_owned()),
        Just("{a}".to_owned()),
        Just("{a: 1 b: 2}".to_owned()),
        Just("[1], x".to_owned()),
        Just("{a: 1} x".to_owned()),
        Just("\"unterminated".to_owned()),
        Just("'unterminated".to_owned()),
        Just("\"dangle\\\"".to_owned()),
        Just("\"bad\\uZZZZ\"".to_owned()),
        "[a-z0-9 ]{0,10}",
    ]
}

fn comment_strat() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("".to_owned()),
        Just(" # *".to_owned()),
        Just(" # v in ['20.04', '22.04']".to_owned()),
        Just(" # just a note".to_owned()),
        Just(" #".to_owned()),
    ]
}

fn arb_body() -> impl Strategy<Value = String> {
    let entry = || {
        (key_strat(), value_strat(), comment_strat()).prop_map(|(k, v, c)| format!("{k}: {v}{c}"))
    };
    let item = || (value_strat(), comment_strat()).prop_map(|(v, c)| format!("- {v}{c}"));
    let nested_key = (key_strat(), comment_strat()).prop_map(|(k, c)| format!("{k}:{c}"));
    let structural = prop_oneof![
        Just("-".to_owned()),
        Just("# full line comment".to_owned()),
        Just("---".to_owned()),
        Just("--- 42".to_owned()),
        Just("...".to_owned()),
        Just("%YAML 1.2".to_owned()),
        Just("just a bare scalar".to_owned()),
        Just("\ttabbed".to_owned()),
        Just(" \tmixed tab".to_owned()),
    ];
    // The vendored prop_oneof! has no weighted arms; repeating the
    // mapping-entry arm biases generation toward realistic documents.
    prop_oneof![
        entry(),
        entry(),
        entry(),
        nested_key,
        item(),
        item(),
        structural,
    ]
}

/// A whole document: lines at random (even) indents, newline-joined.
fn arb_doc() -> impl Strategy<Value = String> {
    prop::collection::vec(
        (
            prop_oneof![Just(0usize), Just(2), Just(4), Just(6)],
            arb_body(),
        ),
        0..16,
    )
    .prop_map(|lines| {
        let mut out = String::new();
        for (indent, body) in lines {
            out.push_str(&" ".repeat(indent));
            out.push_str(&body);
            out.push('\n');
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arena ≡ legacy on arbitrary generated documents, valid or not.
    #[test]
    fn arena_equals_legacy_on_generated_documents(src in arb_doc()) {
        assert_equivalent(&src);
    }

    /// Arena ≡ legacy on emitted well-formed value trees (guaranteed-valid
    /// inputs, so the success half of the contract is always exercised).
    #[test]
    fn arena_equals_legacy_on_emitted_values(v in arb_emit_yaml()) {
        assert_equivalent(&yamlkit::emit(&v));
    }
}

/// Value-tree strategy for the emitted-input property (kept small; the
/// emitter guarantees validity).
fn arb_emit_yaml() -> impl Strategy<Value = Yaml> {
    let leaf = prop_oneof![
        Just(Yaml::Null),
        any::<bool>().prop_map(Yaml::Bool),
        (-1_000_000i64..1_000_000).prop_map(Yaml::Int),
        (-1000.0f64..1000.0).prop_map(|f| Yaml::Float((f * 16.0).round() / 16.0)),
        "[a-zA-Z0-9_./:-]{0,12}".prop_map(Yaml::Str),
        Just(Yaml::Str("has # hash".to_owned())),
        Just(Yaml::Str("line1\nline2".to_owned())),
        Just(Yaml::Str("a: b".to_owned())),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Yaml::Seq),
            prop::collection::vec(("[a-zA-Z][a-zA-Z0-9_.-]{0,8}", inner), 0..4).prop_map(
                |entries| {
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

/// Every distinct diagnostic the parser can emit, pinned one by one:
/// the proptest above covers these probabilistically, this covers them
/// deterministically so a regression names the exact error that moved.
#[test]
fn error_diagnostics_pinned_case_by_case() {
    for src in [
        "a:\n\tb: 1\n",           // tab used for indentation
        "a: [1,\n",               // unterminated flow sequence
        "a: {x: 1,\n",            // unterminated flow mapping
        "a: {x}\n",               // expected key: value in flow mapping
        "a: [1], z\n",            // trailing characters after flow sequence
        "a: {x: 1} z\n",          // trailing characters after flow mapping
        "a: \"unterminated\n",    // unterminated double-quoted string
        "a: 'unterminated\n",     // unterminated single-quoted string
        "a: \"dangle\\\"\n",      // dangling escape
        "a: \"bad\\uZZZZ\"\n",    // bad \u escape
        "a: \"bad\\udfff\"\n",    // bad \u codepoint
        "a: [\"oops]\n",          // unterminated quoted string (flow)
        "a: *nope\n",             // unknown alias *nope
        "a: 1\nbare\n",           // unexpected content after document
        "a:\n    b: 1\n  c: 2\n", // bad indentation inside mapping
        "s:\n- 1\n   - 2\n",      // bad indentation inside sequence
        "a: 1\n---\nb: [\n",      // error in second document of a stream
    ] {
        assert_equivalent(src);
        // Each case must actually be an error, or the pin is vacuous.
        assert!(yamlkit::parse(src).is_err(), "expected error on {src:?}");
    }
}

/// Representative well-formed manifests, pinned deterministically.
#[test]
fn representative_manifests_are_equivalent() {
    for src in [
        "apiVersion: apps/v1\nkind: Deployment\nmetadata:\n  name: web # *\n  labels:\n    app: web\nspec:\n  replicas: 3\n  template:\n    spec:\n      containers:\n      - name: c\n        image: nginx # v in ['nginx', 'httpd']\n        ports: [80, 443]\n        env:\n        - {name: A, value: \"1\"}\n",
        "script: |\n  echo hi # kept\n  second\nfolded: >-\n  one\n  two\n\n  para\n",
        "---\na: 1\n---\nb: &x 2\nc: *x\n...\n%YAML 1.2\n",
        "--- 42\n",
        "defaults: &def\n  cpu: 1\nprod:\n  limits: *def\n",
        "empty:\nseq: []\nmap: {}\nnested:\n- - 1\n  - 2\n- - 3\n",
        "\"a: b\": 1\n'k': 2\n",
        // Plain flow scalars absorb spaces up to , ] } — not errors.
        "a: [1 2]\n",
        "a: {x: 1 y: 2}\n",
        "a: !!str 80\nb: !!int \"80\"\nc: !!bool True\n",
        "",
        "\n\n\n",
        "# only a comment\n",
        // A multi-byte character right after the indentation: the tab
        // check must not slice inside it.
        "é: 1\n",
        "a:\n  ñ: 2\n",
    ] {
        assert_equivalent(src);
    }
}

/// The interner stress test the ISSUE asks for: 10k distinct keys then
/// 10k duplicates — dense assignment-ordered ids, id stability across
/// duplicate interning, no table growth or buffer growth on the
/// duplicate pass, and the 3/4 load-factor bound.
#[test]
fn interner_stress_ten_thousand_distinct_plus_duplicates() {
    use yamlkit::intern::{StrInterner, Sym};
    let mut interner = StrInterner::with_capacity(16);
    let syms: Vec<Sym> = (0..10_000)
        .map(|n| interner.intern(&format!("key-{n}")))
        .collect();
    assert_eq!(interner.len(), 10_000);
    // Ids are dense and assignment-ordered.
    for (n, sym) in syms.iter().enumerate() {
        assert_eq!(*sym, Sym(n as u32));
    }
    let capacity_before = interner.table_capacity();
    let buffer_before = interner.buffer_len();
    // 10k duplicates: same ids come back, nothing grows.
    for (n, sym) in syms.iter().enumerate() {
        assert_eq!(interner.intern(&format!("key-{n}")), *sym);
    }
    assert_eq!(interner.len(), 10_000);
    assert_eq!(interner.table_capacity(), capacity_before);
    assert_eq!(interner.buffer_len(), buffer_before);
    // Load factor stays at or under 3/4.
    assert!(interner.table_capacity() * 3 >= interner.len() * 4);
    // Every symbol still resolves to its exact text.
    for (n, sym) in syms.iter().enumerate() {
        assert_eq!(interner.resolve(*sym), format!("key-{n}"));
    }
}

/// The same stress shape driven through an actual parse: a document with
/// 10k distinct keys and one with a single value repeated 10k times.
#[test]
fn parser_interns_at_scale() {
    let mut distinct = String::new();
    for n in 0..10_000 {
        distinct.push_str(&format!("key-{n}: {n}\n"));
    }
    let doc = ArenaDoc::parse(distinct.as_str());
    assert!(doc.error().is_none());
    assert_eq!(doc.leaf_count(), 10_000);
    // 10k distinct keys; integer values don't intern.
    assert_eq!(doc.interned_strings(), 10_000);

    let mut repeated = String::from("items:\n");
    for _ in 0..10_000 {
        repeated.push_str("- name: web\n");
    }
    let doc = ArenaDoc::parse(repeated.as_str());
    assert!(doc.error().is_none());
    // "items", "name", "web": repetition costs nothing.
    assert_eq!(doc.interned_strings(), 3);
    assert_eq!(doc.leaf_count(), 10_000);
}
