//! The interpreter: word expansion, builtins, pipelines, control flow, and
//! a virtual filesystem. External commands (kubectl, curl, minikube, envoy)
//! are delegated to a [`Sandbox`].

use std::collections::HashMap;

use crate::expand::{arith_eval, glob_match};
use crate::lang::{self, Cmd, RedirOp, Seg, Word};
use crate::regex::Regex;

/// Result of one external command.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecResult {
    /// Captured stdout.
    pub stdout: String,
    /// Captured stderr.
    pub stderr: String,
    /// Exit code.
    pub code: i32,
    /// The command would block forever (e.g. `minikube service` holding a
    /// tunnel open); `timeout` converts this into exit 124.
    pub blocking: bool,
}

/// Host environment for external commands and simulated time.
pub trait Sandbox {
    /// Runs an external command; `None` means "unknown command".
    fn run(
        &mut self,
        name: &str,
        args: &[String],
        stdin: &str,
        files: &mut HashMap<String, String>,
    ) -> Option<ExecResult>;

    /// Advances simulated time (used by `sleep` and `timeout`).
    fn sleep(&mut self, ms: u64);
}

/// A sandbox with no external commands (pure-shell scripts and tests).
#[derive(Debug, Default, Clone, Copy)]
pub struct EmptySandbox;

impl Sandbox for EmptySandbox {
    fn run(
        &mut self,
        _name: &str,
        _args: &[String],
        _stdin: &str,
        _files: &mut HashMap<String, String>,
    ) -> Option<ExecResult> {
        None
    }

    fn sleep(&mut self, _ms: u64) {}
}

/// Error from running a script (parse failure or fuel exhaustion).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShellError(pub String);

impl std::fmt::Display for ShellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shell error: {}", self.0)
    }
}

impl std::error::Error for ShellError {}

/// Outcome of a whole script run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptOutcome {
    /// Final stdout.
    pub stdout: String,
    /// Interleaved stdout + stderr transcript (what the benchmark greps
    /// for `unit_test_passed`).
    pub combined: String,
    /// Exit code of the script.
    pub exit_code: i32,
}

enum Flow {
    Normal(i32),
    Break,
    Continue,
    Exit(i32),
}

/// The shell interpreter.
///
/// # Examples
///
/// ```
/// use minishell::{EmptySandbox, Interp};
/// let mut sandbox = EmptySandbox;
/// let mut sh = Interp::new(&mut sandbox);
/// let out = sh.run_script("x=40; ((x += 2)); echo value=$x").unwrap();
/// assert_eq!(out.stdout, "value=42\n");
/// ```
pub struct Interp<'a> {
    /// Shell variables.
    pub vars: HashMap<String, String>,
    /// Virtual filesystem: name → contents.
    pub files: HashMap<String, String>,
    sandbox: &'a mut dyn Sandbox,
    last_status: i32,
    fuel: u64,
    total_sleep_ms: u64,
}

impl<'a> Interp<'a> {
    /// Creates an interpreter over a sandbox.
    pub fn new(sandbox: &'a mut dyn Sandbox) -> Interp<'a> {
        Interp {
            vars: HashMap::new(),
            files: HashMap::new(),
            sandbox,
            last_status: 0,
            fuel: 200_000,
            total_sleep_ms: 0,
        }
    }

    /// Total simulated time the script slept.
    pub fn slept_ms(&self) -> u64 {
        self.total_sleep_ms
    }

    /// Parses and runs a script.
    ///
    /// # Errors
    ///
    /// [`ShellError`] on parse failure or when the step budget is exceeded
    /// (runaway loops).
    pub fn run_script(&mut self, src: &str) -> Result<ScriptOutcome, ShellError> {
        let prog = lang::parse(src).map_err(|e| ShellError(e.to_string()))?;
        let mut out = String::new();
        let mut err = String::new();
        let code = match self.exec_list(&prog, "", &mut out, &mut err)? {
            Flow::Exit(c) | Flow::Normal(c) => c,
            Flow::Break | Flow::Continue => 0,
        };
        let mut combined = out.clone();
        combined.push_str(&err);
        Ok(ScriptOutcome {
            stdout: out,
            combined,
            exit_code: code,
        })
    }

    fn burn(&mut self) -> Result<(), ShellError> {
        self.fuel = self.fuel.saturating_sub(1);
        if self.fuel == 0 {
            return Err(ShellError(
                "script exceeded step budget (runaway loop?)".into(),
            ));
        }
        Ok(())
    }

    fn exec_list(
        &mut self,
        cmds: &[Cmd],
        stdin: &str,
        out: &mut String,
        err: &mut String,
    ) -> Result<Flow, ShellError> {
        let mut status = self.last_status;
        for cmd in cmds {
            match self.exec_cmd(cmd, stdin, out, err)? {
                Flow::Normal(c) => status = c,
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal(status))
    }

    fn exec_cmd(
        &mut self,
        cmd: &Cmd,
        stdin: &str,
        out: &mut String,
        err: &mut String,
    ) -> Result<Flow, ShellError> {
        self.burn()?;
        match cmd {
            Cmd::Simple {
                assignments,
                words,
                redirects,
            } => self.exec_simple(assignments, words, redirects, stdin, out, err),
            Cmd::Pipeline(cmds) => {
                let mut cur_in = stdin.to_owned();
                let mut status = 0;
                for (i, c) in cmds.iter().enumerate() {
                    let mut stage_out = String::new();
                    match self.exec_cmd(c, &cur_in, &mut stage_out, err)? {
                        Flow::Normal(s) => status = s,
                        Flow::Exit(s) => {
                            // `exit` in a pipeline stage ends that stage only.
                            status = s;
                        }
                        flow @ (Flow::Break | Flow::Continue) => return Ok(flow),
                    }
                    if i + 1 == cmds.len() {
                        out.push_str(&stage_out);
                    } else {
                        cur_in = stage_out;
                    }
                }
                self.last_status = status;
                Ok(Flow::Normal(status))
            }
            Cmd::AndOr { cmds, ops } => {
                let mut flow = self.exec_cmd(&cmds[0], stdin, out, err)?;
                for (op, next) in ops.iter().zip(&cmds[1..]) {
                    let status = match flow {
                        Flow::Normal(s) => s,
                        other => return Ok(other),
                    };
                    let should_run = if *op { status == 0 } else { status != 0 };
                    if should_run {
                        flow = self.exec_cmd(next, stdin, out, err)?;
                    }
                }
                Ok(flow)
            }
            Cmd::Not(inner) => match self.exec_cmd(inner, stdin, out, err)? {
                Flow::Normal(s) => {
                    let status = i32::from(s == 0);
                    self.last_status = status;
                    Ok(Flow::Normal(status))
                }
                other => Ok(other),
            },
            Cmd::If { arms, otherwise } => {
                for (cond, body) in arms {
                    let c = match self.exec_list(cond, stdin, out, err)? {
                        Flow::Normal(c) => c,
                        other => return Ok(other),
                    };
                    if c == 0 {
                        return self.exec_list(body, stdin, out, err);
                    }
                }
                self.exec_list(otherwise, stdin, out, err)
            }
            Cmd::For { var, items, body } => {
                let mut fields = Vec::new();
                for w in items {
                    fields.extend(self.expand_fields(w, out, err)?);
                }
                let mut status = 0;
                'outer: for f in fields {
                    self.vars.insert(var.clone(), f);
                    match self.exec_list(body, stdin, out, err)? {
                        Flow::Normal(s) => status = s,
                        Flow::Break => break 'outer,
                        Flow::Continue => continue,
                        exit @ Flow::Exit(_) => return Ok(exit),
                    }
                }
                self.last_status = status;
                Ok(Flow::Normal(status))
            }
            Cmd::While { cond, body } => {
                let mut status = 0;
                loop {
                    self.burn()?;
                    let c = match self.exec_list(cond, stdin, out, err)? {
                        Flow::Normal(c) => c,
                        other => return Ok(other),
                    };
                    if c != 0 {
                        break;
                    }
                    match self.exec_list(body, stdin, out, err)? {
                        Flow::Normal(s) => status = s,
                        Flow::Break => break,
                        Flow::Continue => continue,
                        exit @ Flow::Exit(_) => return Ok(exit),
                    }
                }
                self.last_status = status;
                Ok(Flow::Normal(status))
            }
            Cmd::Arith(expr) => {
                let expanded = self.expand_arith(expr, out, err)?;
                match arith_eval(&expanded, &mut self.vars) {
                    Ok(v) => {
                        let status = i32::from(v == 0);
                        self.last_status = status;
                        Ok(Flow::Normal(status))
                    }
                    Err(e) => {
                        err.push_str(&format!("bash: ((: {e}\n"));
                        self.last_status = 1;
                        Ok(Flow::Normal(1))
                    }
                }
            }
            Cmd::Cond(words) => {
                let status = self.eval_cond(words, out, err)?;
                self.last_status = status;
                Ok(Flow::Normal(status))
            }
            Cmd::LoopCtl(is_break) => Ok(if *is_break {
                Flow::Break
            } else {
                Flow::Continue
            }),
        }
    }

    fn exec_simple(
        &mut self,
        assignments: &[(String, Word)],
        words: &[Word],
        redirects: &[lang::Redirect],
        stdin: &str,
        out: &mut String,
        err: &mut String,
    ) -> Result<Flow, ShellError> {
        for (name, value) in assignments {
            let v = self.expand_joined(value, out, err)?;
            self.vars.insert(name.clone(), v);
        }
        if words.is_empty() {
            self.last_status = 0;
            return Ok(Flow::Normal(0));
        }
        let mut argv: Vec<String> = Vec::new();
        for w in words {
            argv.extend(self.expand_fields(w, out, err)?);
        }
        if argv.is_empty() {
            self.last_status = 0;
            return Ok(Flow::Normal(0));
        }
        // Apply input redirection before running.
        let mut effective_stdin = stdin.to_owned();
        for r in redirects {
            if r.op == RedirOp::In {
                let target = self.expand_joined(&r.target, out, err)?;
                effective_stdin = self.files.get(&target).cloned().unwrap_or_default();
            }
        }
        let (mut cmd_out, mut cmd_err, code) =
            match self.run_command(&argv, &effective_stdin, err)? {
                RunOutcome::Captured { out, err, code } => (out, err, code),
                RunOutcome::Exit(c) => return Ok(Flow::Exit(c)),
            };
        // Apply output redirections.
        let mut out_target: Option<(String, bool)> = None;
        let mut err_target: Option<(String, bool)> = None;
        let mut err_to_out = false;
        for r in redirects {
            match r.op {
                RedirOp::Out => {
                    out_target = Some((self.expand_joined(&r.target, out, err)?, false))
                }
                RedirOp::Append => {
                    out_target = Some((self.expand_joined(&r.target, out, err)?, true))
                }
                RedirOp::ErrOut => {
                    err_target = Some((self.expand_joined(&r.target, out, err)?, false))
                }
                RedirOp::ErrAppend => {
                    err_target = Some((self.expand_joined(&r.target, out, err)?, true))
                }
                RedirOp::ErrToOut => err_to_out = true,
                RedirOp::AllOut => {
                    let t = self.expand_joined(&r.target, out, err)?;
                    out_target = Some((t, false));
                    err_to_out = true;
                }
                RedirOp::In => {}
            }
        }
        if err_to_out {
            cmd_out.push_str(&cmd_err);
            cmd_err.clear();
        }
        if let Some((file, append)) = out_target {
            self.write_file(&file, std::mem::take(&mut cmd_out), append);
        }
        if let Some((file, append)) = err_target {
            self.write_file(&file, std::mem::take(&mut cmd_err), append);
        }
        out.push_str(&cmd_out);
        err.push_str(&cmd_err);
        self.last_status = code;
        Ok(Flow::Normal(code))
    }

    fn write_file(&mut self, name: &str, content: String, append: bool) {
        if name == "/dev/null" {
            return;
        }
        if append {
            self.files
                .entry(name.to_owned())
                .or_default()
                .push_str(&content);
        } else {
            self.files.insert(name.to_owned(), content);
        }
    }

    /// Expands a word into whitespace-split fields (bash word splitting on
    /// unquoted expansions).
    fn expand_fields(
        &mut self,
        word: &Word,
        out: &mut String,
        err: &mut String,
    ) -> Result<Vec<String>, ShellError> {
        let mut fields: Vec<String> = Vec::new();
        let mut current = String::new();
        let mut any = false;
        for seg in &word.segs {
            let (text, quoted) = self.expand_seg(seg, out, err)?;
            if quoted {
                current.push_str(&text);
                any = true;
            } else {
                let starts_ws = text.starts_with(char::is_whitespace);
                let ends_ws = text.ends_with(char::is_whitespace);
                let parts: Vec<&str> = text.split_whitespace().collect();
                if starts_ws && (any || !current.is_empty()) {
                    fields.push(std::mem::take(&mut current));
                    any = false;
                }
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        fields.push(std::mem::take(&mut current));
                    }
                    current.push_str(p);
                    any = true;
                }
                if ends_ws && !parts.is_empty() {
                    fields.push(std::mem::take(&mut current));
                    any = false;
                }
            }
        }
        if any || !current.is_empty() {
            fields.push(current);
        }
        Ok(fields)
    }

    /// Expands a word into a single string (assignment RHS, redirect
    /// targets): no field splitting.
    fn expand_joined(
        &mut self,
        word: &Word,
        out: &mut String,
        err: &mut String,
    ) -> Result<String, ShellError> {
        let mut s = String::new();
        for seg in &word.segs {
            s.push_str(&self.expand_seg(seg, out, err)?.0);
        }
        Ok(s)
    }

    /// Expands a word into a glob pattern string: characters from quoted
    /// segments are backslash-escaped so they match literally.
    fn expand_pattern(
        &mut self,
        word: &Word,
        out: &mut String,
        err: &mut String,
    ) -> Result<String, ShellError> {
        let mut s = String::new();
        for seg in &word.segs {
            let (text, quoted) = self.expand_seg(seg, out, err)?;
            if quoted {
                for c in text.chars() {
                    s.push('\\');
                    s.push(c);
                }
            } else {
                s.push_str(&text);
            }
        }
        Ok(s)
    }

    fn expand_seg(
        &mut self,
        seg: &Seg,
        out: &mut String,
        err: &mut String,
    ) -> Result<(String, bool), ShellError> {
        Ok(match seg {
            Seg::Lit { text, quoted } => (text.clone(), *quoted),
            Seg::Var {
                name,
                default,
                quoted,
            } => {
                // `${#name}` expands to the value's length.
                let v = if let Some(inner) = name.strip_prefix('#').filter(|n| !n.is_empty()) {
                    self.var(inner).chars().count().to_string()
                } else {
                    self.var(name)
                };
                let v = if v.is_empty() {
                    default.clone().unwrap_or_default()
                } else {
                    v
                };
                (v, *quoted)
            }
            Seg::CmdSub { body, quoted } => {
                let prog = body.as_ref().map_err(|e| ShellError(e.to_string()))?;
                let mut captured = String::new();
                self.last_status = match self.exec_list(prog, "", &mut captured, err)? {
                    Flow::Normal(c) | Flow::Exit(c) => c,
                    _ => 0,
                };
                (captured.trim_end_matches('\n').to_owned(), *quoted)
            }
            Seg::Arith { expr } => {
                let expanded = self.expand_arith(expr, out, err)?;
                match arith_eval(&expanded, &mut self.vars) {
                    Ok(v) => (v.to_string(), false),
                    Err(e) => {
                        err.push_str(&format!("bash: $(( )): {e}\n"));
                        (String::new(), false)
                    }
                }
            }
        })
    }

    /// An arithmetic expression's source with its `$(cmd)` and `$((…))`
    /// pieces expanded (bash expands before evaluating).
    fn expand_arith(
        &mut self,
        expr: &Word,
        out: &mut String,
        err: &mut String,
    ) -> Result<String, ShellError> {
        let mut s = String::new();
        for seg in &expr.segs {
            let (text, _) = self.expand_seg(seg, out, err)?;
            s.push_str(match seg {
                Seg::CmdSub { .. } => text.trim(),
                _ => &text,
            });
        }
        Ok(s)
    }

    fn var(&self, name: &str) -> String {
        match name {
            "?" => self.last_status.to_string(),
            "#" => "0".to_owned(),
            "HOME" => "/root".to_owned(),
            "RANDOM" => "17".to_owned(), // deterministic by design
            _ => self.vars.get(name).cloned().unwrap_or_default(),
        }
    }

    // ------------------------------------------------------------------
    // [[ ]] / [ ] conditions
    // ------------------------------------------------------------------

    fn eval_cond(
        &mut self,
        words: &[Word],
        out: &mut String,
        err: &mut String,
    ) -> Result<i32, ShellError> {
        let v = self.eval_cond_expr(words, 0, out, err)?;
        Ok(i32::from(!v.0))
    }

    /// Evaluates a condition starting at `pos`; returns (truth, next_pos).
    fn eval_cond_expr(
        &mut self,
        words: &[Word],
        pos: usize,
        out: &mut String,
        err: &mut String,
    ) -> Result<(bool, usize), ShellError> {
        let (mut acc, mut pos) = self.eval_cond_term(words, pos, out, err)?;
        loop {
            match words.get(pos).and_then(Word::as_keyword) {
                Some("&&") | Some("-a") => {
                    let (rhs, next) = self.eval_cond_term(words, pos + 1, out, err)?;
                    acc = acc && rhs;
                    pos = next;
                }
                Some("||") | Some("-o") => {
                    let (rhs, next) = self.eval_cond_term(words, pos + 1, out, err)?;
                    acc = acc || rhs;
                    pos = next;
                }
                _ => break,
            }
        }
        Ok((acc, pos))
    }

    fn eval_cond_term(
        &mut self,
        words: &[Word],
        pos: usize,
        out: &mut String,
        err: &mut String,
    ) -> Result<(bool, usize), ShellError> {
        match words.get(pos).and_then(Word::as_keyword) {
            Some("!") => {
                let (v, next) = self.eval_cond_term(words, pos + 1, out, err)?;
                return Ok((!v, next));
            }
            Some("(") => {
                let (v, next) = self.eval_cond_expr(words, pos + 1, out, err)?;
                // Expect ")".
                let after = if words.get(next).and_then(Word::as_keyword) == Some(")") {
                    next + 1
                } else {
                    next
                };
                return Ok((v, after));
            }
            _ => {}
        }
        // Unary operators.
        if let Some(op) = words.get(pos).and_then(Word::as_keyword) {
            if matches!(
                op,
                "-z" | "-n" | "-f" | "-e" | "-s" | "-d" | "-r" | "-w" | "-x"
            ) {
                let operand = words
                    .get(pos + 1)
                    .map(|w| self.expand_joined(w, out, err))
                    .transpose()?
                    .unwrap_or_default();
                let v = match op {
                    "-z" => operand.is_empty(),
                    "-n" => !operand.is_empty(),
                    "-f" | "-e" | "-r" | "-w" | "-x" => self.files.contains_key(&operand),
                    "-s" => self.files.get(&operand).is_some_and(|c| !c.is_empty()),
                    "-d" => false, // no directories in the VFS
                    _ => false,
                };
                return Ok((v, pos + 2));
            }
        }
        // Binary operator or bare string.
        let lhs = words
            .get(pos)
            .map(|w| self.expand_joined(w, out, err))
            .transpose()?
            .unwrap_or_default();
        let Some(op_word) = words.get(pos + 1) else {
            return Ok((!lhs.is_empty(), pos + 1));
        };
        let Some(op) = op_word.as_keyword().map(str::to_owned) else {
            return Ok((!lhs.is_empty(), pos + 1));
        };
        match op.as_str() {
            "==" | "=" | "!=" => {
                let rhs_word = words.get(pos + 2).cloned().unwrap_or_default();
                let pattern = self.expand_pattern(&rhs_word, out, err)?;
                let matched = glob_match(&pattern, &lhs);
                let v = if op == "!=" { !matched } else { matched };
                Ok((v, pos + 3))
            }
            "=~" => {
                let rhs_word = words.get(pos + 2).cloned().unwrap_or_default();
                let pattern = self.expand_joined(&rhs_word, out, err)?;
                let v = Regex::new(&pattern)
                    .map(|re| re.is_match(&lhs))
                    .unwrap_or(false);
                Ok((v, pos + 3))
            }
            "-eq" | "-ne" | "-lt" | "-le" | "-gt" | "-ge" => {
                let rhs = words
                    .get(pos + 2)
                    .map(|w| self.expand_joined(w, out, err))
                    .transpose()?
                    .unwrap_or_default();
                let a: i64 = lhs.trim().parse().unwrap_or(0);
                let b: i64 = rhs.trim().parse().unwrap_or(0);
                let v = match op.as_str() {
                    "-eq" => a == b,
                    "-ne" => a != b,
                    "-lt" => a < b,
                    "-le" => a <= b,
                    "-gt" => a > b,
                    _ => a >= b,
                };
                Ok((v, pos + 3))
            }
            "<" | ">" => {
                let rhs = words
                    .get(pos + 2)
                    .map(|w| self.expand_joined(w, out, err))
                    .transpose()?
                    .unwrap_or_default();
                let v = if op == "<" { lhs < rhs } else { lhs > rhs };
                Ok((v, pos + 3))
            }
            _ => Ok((!lhs.is_empty(), pos + 1)),
        }
    }
}

mod commands;
pub use commands::*;
