//! Command substitution and arithmetic semantics: `$(…)` bodies are
//! parsed with their script, yet behave as if parsed when evaluated.
//! Expected values are those of GNU bash 5, except the error texts, which
//! are minishell's own (a parse error at the end of a body reports line 0).

use minishell::{ClusterSandbox, EmptySandbox, Interp, ShellError};

fn run(script: &str) -> Result<minishell::ScriptOutcome, ShellError> {
    Interp::new(&mut EmptySandbox).run_script(script)
}

#[test]
fn unparseable_body_on_a_branch_not_taken_still_runs() {
    let out = run("if false; then x=$(if true; then echo hi); fi\necho ran").expect("runs");
    assert_eq!(out.stdout, "ran\n");
    let out = run("true || echo `for`\necho ran").expect("runs");
    assert_eq!(out.stdout, "ran\n");
}

#[test]
fn unparseable_body_fails_when_evaluated() {
    let err = run("echo before\nx=$(if true; then echo hi)\necho after").unwrap_err();
    assert_eq!(
        err.to_string(),
        "shell error: shell parse error at line 0: expected elif/else/fi"
    );
    let err = run("echo \"`echo 'x`\"").unwrap_err();
    assert_eq!(
        err.to_string(),
        "shell error: shell parse error at line 1: unterminated single quote"
    );
}

#[test]
fn nested_substitution() {
    let out = run("echo $(echo $(echo inner) outer) \"$(echo `echo tick`)\"").expect("runs");
    assert_eq!(out.stdout, "inner outer tick\n");
}

#[test]
fn substitution_inside_arithmetic() {
    let out = run("(( $(echo 2) * 3 == 6 )) && echo yes\necho $(( $(echo 4) + 1 ))").expect("runs");
    assert_eq!(out.stdout, "yes\n5\n");
}

#[test]
fn nested_arithmetic() {
    let out = run("(( $((1)) ))\necho exit=$?\nx=$(( $((2)) * 3 ))\necho $x").expect("runs");
    assert_eq!(out.stdout, "exit=0\n6\n");
    let out = run("echo $(( $(echo 4) + $(( 1 + $(echo 1) )) ))").expect("runs");
    assert_eq!(out.stdout, "6\n");
}

#[test]
fn polling_loop_sees_fresh_output_each_round() {
    let pod = "apiVersion: v1\nkind: Pod\nmetadata:\n  name: web\nspec:\n  containers:\n  - name: c\n    image: nginx\n";
    let script = r#"kubectl apply -f labeled_code.yaml
polls=0
while [ "$(kubectl get pod web -o jsonpath='{.status.phase}')" != "Running" ]; do
  polls=$((polls + 1))
  sleep 1
done
echo "polls=$polls phase=$(kubectl get pod web -o jsonpath='{.status.phase}')"
"#;
    let mut sandbox = ClusterSandbox::new();
    let mut shell = Interp::new(&mut sandbox);
    shell
        .files
        .insert("labeled_code.yaml".to_owned(), pod.to_owned());
    let out = shell.run_script(script).expect("runs");
    let line = out.stdout.lines().last().expect("one line");
    let polls: u32 = line
        .strip_prefix("polls=")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("{line}"));
    assert!(polls >= 1, "{line}");
    assert!(line.ends_with(" phase=Running"), "{line}");
}
