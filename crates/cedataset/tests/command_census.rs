//! Static census of what the dataset's unit tests run.
//!
//! Every distinct unit-test script is parsed with `minishell::lang` and
//! its AST walked, recursing into `$(…)` bodies (arithmetic ones too) and
//! into the command that `timeout` runs after its options. The walk
//! yields the shell commands and the kubectl verbs the scripts can reach
//! on any branch. Both sets are pinned here, so a new template that needs
//! a command minishell or kubesim lacks fails this test, and a command
//! dropped from the simulators while a script still names it fails the
//! dispatch check.
//! Which branches actually run is pinned elsewhere, by the verdict digest
//! over the full grid.

use std::collections::BTreeSet;

use cedataset::Dataset;
use minishell::lang::{self, Cmd, Seg, Word};

/// Shell commands the dataset's scripts name, with the subcommand for the
/// tools whose other subcommands the sandbox does not provide.
const SHELL_COMMANDS: &[&str] = &[
    "((",
    "[",
    "[[",
    "cat",
    "curl",
    "echo",
    "envoy",
    "envoy-start",
    "exit",
    "grep",
    "istioctl analyze",
    "kubectl",
    "minikube service",
    "sleep",
    "timeout",
    "true",
    "wc",
];

/// kubectl verbs the dataset's scripts use.
const KUBECTL_VERBS: &[&str] = &[
    "apply -f",
    "create ns",
    "describe",
    "get",
    "logs",
    "rollout status",
    "wait",
];

/// Commands kept for the paper's Appendix C scripts (`paper_scripts`) and
/// the kata lifecycle (`kubectl_lifecycle`), which the dataset does not use.
const APPENDIX_C_COMMANDS: &[&str] = &["cut", "head", "printf", "seq", "sort", "tr"];
const KATA_KUBECTL_VERBS: &[&str] = &["create -f", "delete", "exec"];

#[derive(Default)]
struct Census {
    shell: BTreeSet<String>,
    kubectl: BTreeSet<String>,
}

impl Census {
    fn script(&mut self, src: &str) {
        let prog = lang::parse(src).unwrap_or_else(|e| panic!("{e}\n--- script ---\n{src}"));
        self.list(&prog);
    }

    fn list(&mut self, cmds: &[Cmd]) {
        for cmd in cmds {
            self.cmd(cmd);
        }
    }

    fn cmd(&mut self, cmd: &Cmd) {
        match cmd {
            Cmd::Simple {
                assignments,
                words,
                redirects,
            } => {
                let all_words = assignments
                    .iter()
                    .map(|(_, w)| w)
                    .chain(words)
                    .chain(redirects.iter().map(|r| &r.target));
                for w in all_words {
                    self.substitutions(w);
                }
                let argv: Vec<String> = words.iter().map(literal).collect();
                if !argv.is_empty() {
                    self.command(&argv);
                }
            }
            Cmd::Pipeline(cmds) | Cmd::AndOr { cmds, .. } => self.list(cmds),
            Cmd::Not(inner) => self.cmd(inner),
            Cmd::If { arms, otherwise } => {
                for (cond, body) in arms {
                    self.list(cond);
                    self.list(body);
                }
                self.list(otherwise);
            }
            Cmd::For { items, body, .. } => {
                for w in items {
                    self.substitutions(w);
                }
                self.list(body);
            }
            Cmd::While { cond, body } => {
                self.list(cond);
                self.list(body);
            }
            Cmd::Arith(expr) => {
                self.shell.insert("((".to_owned());
                self.substitutions(expr);
            }
            Cmd::Cond(words) => {
                self.shell.insert("[[".to_owned());
                for w in words {
                    self.substitutions(w);
                }
            }
            Cmd::LoopCtl(_) => {}
        }
    }

    fn substitutions(&mut self, word: &Word) {
        for seg in &word.segs {
            match seg {
                Seg::CmdSub { body, .. } => {
                    let prog = body.as_ref().unwrap_or_else(|e| panic!("{e} in $(…)"));
                    self.list(prog);
                }
                Seg::Arith { expr } => self.substitutions(expr),
                Seg::Lit { .. } | Seg::Var { .. } => {}
            }
        }
    }

    fn command(&mut self, argv: &[String]) {
        let name = argv[0].as_str();
        let sub = argv.get(1).map(String::as_str).unwrap_or("");
        match name {
            "timeout" => {
                self.shell.insert(name.to_owned());
                // Mirrors `builtin_timeout`: skip the signal and kill-after
                // options, then the duration.
                let mut i = 1;
                while i < argv.len() {
                    match argv[i].as_str() {
                        "-s" | "--signal" | "-k" | "--kill-after" => i += 2,
                        a if a.starts_with("--signal=") || a.starts_with("--kill-after=") => i += 1,
                        _ => break,
                    }
                }
                if let Some(inner) = argv.get(i + 1..).filter(|rest| !rest.is_empty()) {
                    self.command(inner);
                }
            }
            "minikube" | "istioctl" => {
                self.shell.insert(format!("{name} {sub}"));
            }
            "kubectl" => {
                self.shell.insert(name.to_owned());
                let verb = match sub {
                    "apply" | "create" if argv.iter().any(|a| a == "-f") => format!("{sub} -f"),
                    "create" | "rollout" => {
                        format!("{sub} {}", argv.get(2).map(String::as_str).unwrap_or(""))
                    }
                    _ => sub.to_owned(),
                };
                self.kubectl.insert(verb);
            }
            _ => {
                self.shell.insert(name.to_owned());
            }
        }
    }
}

/// A word's text when it is literal; an expansion renders as `$…`, so a
/// command name chosen at run time shows up in the census as such.
fn literal(word: &Word) -> String {
    word.segs
        .iter()
        .map(|seg| match seg {
            Seg::Lit { text, .. } => text.clone(),
            Seg::Var { name, .. } => format!("${name}"),
            Seg::CmdSub { .. } => "$(…)".to_owned(),
            Seg::Arith { .. } => "$((…))".to_owned(),
        })
        .collect()
}

fn distinct_unit_tests() -> BTreeSet<String> {
    Dataset::generate_extended(30)
        .problems()
        .iter()
        .map(|p| p.unit_test.clone())
        .collect()
}

fn pinned(list: &[&str]) -> BTreeSet<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn dataset_scripts_reach_exactly_the_pinned_commands() {
    let scripts = distinct_unit_tests();
    assert_eq!(scripts.len(), 328, "distinct unit tests");
    let mut census = Census::default();
    for script in &scripts {
        census.script(script);
    }
    assert_eq!(census.shell, pinned(SHELL_COMMANDS), "shell commands");
    assert_eq!(census.kubectl, pinned(KUBECTL_VERBS), "kubectl verbs");
}

/// Runs `script` in a fresh sandbox and checks the shell found the command
/// and kubectl knew the verb. Missing arguments are fine: a usage error
/// still proves the command dispatches.
fn assert_dispatches(script: &str) {
    let outcome = minishell::run_unit_test(script, "")
        .unwrap_or_else(|e| panic!("`{script}`: interpreter error {e}"));
    assert_ne!(outcome.exit_code, 127, "`{script}`: {}", outcome.combined);
    for refusal in ["command not found", "unknown command"] {
        assert!(
            !outcome.combined.contains(refusal),
            "`{script}`: {}",
            outcome.combined
        );
    }
}

#[test]
fn every_pinned_command_still_dispatches() {
    for &command in SHELL_COMMANDS.iter().chain(APPENDIX_C_COMMANDS) {
        let script = match command {
            "((" => "(( 1 ))".to_owned(),
            "[" => "[ a = a ]".to_owned(),
            "[[" => "[[ a == a ]]".to_owned(),
            _ => command.to_owned(),
        };
        assert_dispatches(&script);
    }
    for &verb in KUBECTL_VERBS.iter().chain(KATA_KUBECTL_VERBS) {
        assert_dispatches(&format!("kubectl {verb}"));
    }
}
