//! The extended scenario families end to end through the substrate
//! engine: every new workload (CronJob, HPA v2, multi-path Ingress,
//! NetworkPolicy rules, ConfigMap volumes) scores correctly under the
//! unit-test scheduler, and duplicated candidates hit the memo cache.

use cedataset::Dataset;
use evalcluster::executor::{run_jobs, UnitTestJob};

fn scenario_jobs() -> Vec<UnitTestJob> {
    let ds = Dataset::generate_extended(30);
    ds.problems()
        .iter()
        .filter(|p| p.id.starts_with("scn-"))
        .map(|p| {
            UnitTestJob::prepared(
                p.id.clone(),
                p.unit_test.clone(),
                yamlkit::PreparedDoc::shared(p.clean_reference()),
            )
        })
        .collect()
}

#[test]
fn scenario_references_pass_through_the_engine() {
    let jobs = scenario_jobs();
    assert_eq!(jobs.len(), 30);
    let report = run_jobs(&jobs, 4);
    let failed: Vec<&str> = report
        .results
        .iter()
        .filter(|r| !r.passed)
        .map(|r| r.problem_id.as_str())
        .collect();
    assert!(failed.is_empty(), "scenarios failed: {failed:?}");
    assert_eq!(report.executed, 30);
}

#[test]
fn duplicated_scenario_candidates_score_once() {
    // Simulate a pass@k sweep where every sample happens to be identical:
    // 3 samples per scenario, one execution each.
    let mut jobs = Vec::new();
    for job in scenario_jobs() {
        for sample in 0..3 {
            let mut dup = job.clone();
            dup.problem_id = format!("{}#{sample}", job.problem_id);
            jobs.push(dup);
        }
    }
    let report = run_jobs(&jobs, 4);
    assert_eq!(report.results.len(), 90);
    assert_eq!(report.executed, 30);
    assert_eq!(report.cache_hits, 60);
    assert_eq!(report.passed(), 90);
}
