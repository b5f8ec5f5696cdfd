//! Every judgment records one observation to the one
//! `substrate_exec_us{backend="minishell"}` series. Kept alone in its
//! binary so no other test judges concurrently.

use substrate::ShellSubstrate;

const LABELS: &[(&str, &str)] = &[("backend", "minishell")];
const POD: &str = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\n";

fn observations() -> u64 {
    obs::global()
        .histogram_snapshot("substrate_exec_us", LABELS)
        .map_or(0, |h| h.count)
}

#[test]
fn n_judgments_add_n_observations_to_one_series() {
    let shell = ShellSubstrate::new();
    let before = observations();
    let n = 12;
    for i in 0..n {
        // Unparseable candidates are judged (and recorded) too.
        let manifest = if i % 3 == 0 { "kind: [" } else { POD };
        let _ = shell.execute(manifest, "echo unit_test_passed");
    }
    assert_eq!(observations(), before + n);
    let labels = vec![("backend".to_owned(), "minishell".to_owned())];
    let series = obs::global()
        .snapshot()
        .into_iter()
        .filter(|m| m.name == "substrate_exec_us" && m.labels == labels)
        .count();
    assert_eq!(series, 1);
}
