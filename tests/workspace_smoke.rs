//! Facade smoke test: every `cloudeval::*` re-export is exercised with at
//! least one call, so a broken re-export (or a crate silently dropped
//! from the workspace wiring) fails here instead of in a downstream user.

use cloudeval::{boost, cluster, core, dataset, envoy, exec, kube, llm, score, serve, shell, yaml};

#[test]
fn yaml_reexport_round_trips() {
    let value = yaml::parse_one("a: 1\nb: x\n").unwrap().to_value();
    let emitted = yaml::emit(&value);
    assert_eq!(yaml::parse_one(&emitted).unwrap().to_value(), value);
}

#[test]
fn dataset_reexport_generates_problems() {
    let ds = dataset::Dataset::generate();
    assert!(!ds.problems().is_empty());
    assert!(ds.get("pod-000").is_some());
}

#[test]
fn score_reexport_scores_a_pair() {
    let s = score::score_pair("a: 1\n", "a: 1\n");
    assert_eq!(s.exact_match, 1.0);
    assert!((s.bleu - 1.0).abs() < 1e-9);
}

#[test]
fn document_model_reexports_share_one_parse() {
    // The parse-once pipeline through the facade: one PreparedDoc for
    // the candidate, one PreparedRef for the reference, scored and
    // executed without any layer re-parsing.
    let reference = "kind: Pod\nmetadata:\n  name: web # *\n";
    let candidate = yaml::PreparedDoc::shared("kind: Pod\nmetadata:\n  name: anything\n");
    let prepared = score::RefCache::new().prepare(reference);
    let s = score::score_pair_prepared(&prepared, &candidate);
    assert_eq!(s.kv_wildcard, 1.0);
    assert_eq!(s, score::score_pair_text(reference, candidate.text()));
    assert_eq!(
        candidate.content_hash(),
        exec::content_hash(candidate.text())
    );
    let job = cluster::UnitTestJob::prepared("smoke", "echo unit_test_passed", candidate);
    assert!(cluster::run_jobs(&[job], 1).results[0].passed);
}

#[test]
fn shell_reexport_runs_a_script() {
    let mut sandbox = shell::EmptySandbox;
    let mut sh = shell::Interp::new(&mut sandbox);
    let out = sh.run_script("echo $((6 * 7))").unwrap();
    assert_eq!(out.stdout.trim(), "42");
}

#[test]
fn kube_reexport_applies_a_manifest() {
    let mut c = kube::Cluster::new();
    let manifest = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: p\nspec:\n  containers:\n  - name: c\n    image: nginx\n";
    c.apply_manifest(manifest, "default").unwrap();
    assert_eq!(c.get("Pod", Some("default"), Some("p")).len(), 1);
}

#[test]
fn llm_reexport_extracts_yaml() {
    let wrapped = "Here you go:\n```yaml\na: 1\n```\nDone.";
    assert_eq!(llm::extract_yaml(wrapped).trim(), "a: 1");
}

#[test]
fn cluster_reexport_runs_jobs() {
    let report = cluster::run_jobs(&[], 2);
    assert!(report.results.is_empty());
    assert_eq!(report.workers, 2);
}

#[test]
fn streaming_reexports_compose_into_a_stage_graph() {
    // llm::query_stream emits incrementally...
    struct Echo;
    impl llm::LanguageModel for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn generate(&self, prompt: &str, _params: &llm::GenParams) -> String {
            prompt.to_owned()
        }
    }
    let prompts: Vec<String> = (0..8).map(|i| format!("p{i}")).collect();
    let emitted = std::sync::Mutex::new(0usize);
    let stream = llm::query_stream(
        &Echo,
        &prompts,
        &llm::GenParams::default(),
        &llm::QueryConfig::default(),
        |_, _| *emitted.lock().unwrap() += 1,
    );
    assert_eq!(stream.prompts, 8);
    assert_eq!(*emitted.lock().unwrap(), 8);

    // ...and the streaming executor drains a disconnected channel.
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, cluster::UnitTestJob)>(1);
    drop(tx);
    let stats = cluster::run_jobs_stream(rx, 2, &cluster::ScoreMemo::new(), |_, _| {});
    assert_eq!(stats.executed, 0);
}

#[test]
fn envoy_reexport_parses_sample_config() {
    let cfg = envoy::EnvoyConfig::parse(envoy::SAMPLE_CONFIG).unwrap();
    assert!(matches!(
        cfg.route(10000, "example.com", "/"),
        envoy::RouteOutcome::Cluster(_)
    ));
}

#[test]
fn boost_reexport_fits_a_classifier() {
    let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![f64::from(i % 2)]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
    let clf = boost::Classifier::fit(&xs, &ys, &boost::BoostParams::default());
    assert!(clf.predict(&[1.0]));
}

#[test]
fn core_reexport_reaches_the_harness_layer() {
    // pass@k curve accessors from the harness layer.
    let table = core::passk::PassAtK {
        model: "m".to_owned(),
        curve: vec![2, 3, 3],
    };
    assert_eq!(table.pass_at_1(), 2);
    assert_eq!(table.normalized().last().copied(), Some(1.5));
}

#[test]
fn exec_reexport_drives_the_substrate_trait() {
    let script = "\
envoy --mode validate -c labeled_code.yaml || exit 1
envoy-start -c labeled_code.yaml
body=$(curl -s localhost:10000/)
[[ $body == *service_backend* ]] && echo unit_test_passed";
    let outcome = exec::ShellSubstrate::new()
        .execute(envoy::SAMPLE_CONFIG, script)
        .unwrap();
    assert!(outcome.passed, "{}", outcome.transcript);
    assert_ne!(exec::content_hash("a"), exec::content_hash("b"));
}

#[test]
fn serve_reexport_answers_one_evaluate_request() {
    let dataset = std::sync::Arc::new(dataset::Dataset::generate());
    let server = serve::spawn(
        "127.0.0.1:0",
        std::sync::Arc::clone(&dataset),
        serve::ServerConfig {
            workers: 2,
            ..serve::ServerConfig::default()
        },
    )
    .unwrap();
    let corpus = serve::loadgen::build_corpus(&dataset, 2);
    let report = serve::loadgen::run(
        server.addr(),
        &corpus,
        &serve::loadgen::LoadGenConfig {
            clients: 1,
            requests: 2,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.outcomes.len(), 2);
    assert!(report.outcomes.iter().all(|o| o.status == 200));
    server.shutdown().unwrap();
}
