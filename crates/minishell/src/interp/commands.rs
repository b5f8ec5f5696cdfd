//! Builtin commands and external-command dispatch.

use crate::interp::{Interp, ShellError};
use crate::regex::Regex;

/// Result of resolving and running a single command.
#[derive(Debug)]
pub enum RunOutcome {
    /// Command ran; streams captured.
    Captured {
        /// stdout
        out: String,
        /// stderr
        err: String,
        /// exit code
        code: i32,
    },
    /// The `exit` builtin was invoked.
    Exit(i32),
}

fn captured(out: impl Into<String>, err: impl Into<String>, code: i32) -> RunOutcome {
    RunOutcome::Captured {
        out: out.into(),
        err: err.into(),
        code,
    }
}

impl Interp<'_> {
    /// Runs argv\[0\] with arguments: builtins first, then the sandbox.
    pub(crate) fn run_command(
        &mut self,
        argv: &[String],
        stdin: &str,
        outer_err: &mut String,
    ) -> Result<RunOutcome, ShellError> {
        let name = argv[0].as_str();
        let args = &argv[1..];
        Ok(match name {
            "echo" => self.builtin_echo(args),
            "printf" => builtin_printf(args),
            "cat" => self.builtin_cat(args, stdin),
            "grep" => self.builtin_grep(args, stdin),
            "test" | "[" => {
                let mut args = args.to_vec();
                if name == "[" && args.last().map(String::as_str) == Some("]") {
                    args.pop();
                }
                let words: Vec<crate::lang::Word> = args.iter().map(|a| quoted_word(a)).collect();
                let mut scratch_out = String::new();
                let mut scratch_err = String::new();
                let status = self.eval_cond(&words, &mut scratch_out, &mut scratch_err)?;
                captured("", scratch_err, status)
            }
            "sleep" => {
                let secs: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(1.0);
                let ms = (secs * 1000.0) as u64;
                self.total_sleep_ms += ms;
                self.sandbox.sleep(ms);
                captured("", "", 0)
            }
            "exit" => {
                let code = args
                    .first()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(self.last_status);
                return Ok(RunOutcome::Exit(code));
            }
            "true" | ":" => captured("", "", 0),
            "wc" => builtin_wc(args, stdin),
            "head" => self.builtin_head(args, stdin),
            "cut" => builtin_cut(args, stdin),
            "tr" => builtin_tr(args, stdin),
            "sort" => {
                let mut lines: Vec<&str> = stdin.lines().collect();
                lines.sort_unstable();
                if args.contains(&"-r".to_owned()) {
                    lines.reverse();
                }
                captured(join_lines(&lines), "", 0)
            }
            "seq" => {
                let nums: Vec<i64> = args.iter().filter_map(|a| a.parse().ok()).collect();
                let (lo, hi) = match nums.as_slice() {
                    [hi] => (1, *hi),
                    [lo, hi] => (*lo, *hi),
                    _ => (1, 0),
                };
                let out: Vec<String> = (lo..=hi).map(|n| n.to_string()).collect();
                captured(
                    join_lines(&out.iter().map(String::as_str).collect::<Vec<_>>()),
                    "",
                    0,
                )
            }
            "timeout" => return self.builtin_timeout(args, stdin, outer_err),
            // A blocking sandbox command outside `timeout` behaves like a
            // command that ran until interrupted: its exit code stands.
            _ => match self.sandbox.run(name, args, stdin, &mut self.files) {
                Some(r) => captured(r.stdout, r.stderr, r.code),
                None => captured("", format!("bash: {name}: command not found\n"), 127),
            },
        })
    }

    fn builtin_echo(&self, args: &[String]) -> RunOutcome {
        let mut newline = true;
        let mut escapes = false;
        let mut rest = args;
        loop {
            match rest.first().map(String::as_str) {
                Some("-n") => {
                    newline = false;
                    rest = &rest[1..];
                }
                Some("-e") => {
                    escapes = true;
                    rest = &rest[1..];
                }
                Some("-ne") | Some("-en") => {
                    newline = false;
                    escapes = true;
                    rest = &rest[1..];
                }
                _ => break,
            }
        }
        let mut s = rest.join(" ");
        if escapes {
            s = s.replace("\\n", "\n").replace("\\t", "\t");
        }
        if newline {
            s.push('\n');
        }
        captured(s, "", 0)
    }

    fn builtin_cat(&self, args: &[String], stdin: &str) -> RunOutcome {
        let files: Vec<&String> = args.iter().filter(|a| !a.starts_with('-')).collect();
        if files.is_empty() {
            return captured(stdin, "", 0);
        }
        let mut out = String::new();
        for f in files {
            match self.files.get(f.as_str()) {
                Some(content) => out.push_str(content),
                None => return captured(out, format!("cat: {f}: No such file or directory\n"), 1),
            }
        }
        captured(out, "", 0)
    }

    fn builtin_grep(&self, args: &[String], stdin: &str) -> RunOutcome {
        let mut quiet = false;
        let mut count = false;
        let mut only = false;
        let mut invert = false;
        let mut ignore_case = false;
        let mut pattern: Option<String> = None;
        let mut files: Vec<String> = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            match a {
                "-q" | "--quiet" | "--silent" => quiet = true,
                "-c" | "--count" => count = true,
                "-o" | "--only-matching" => only = true,
                "-v" | "--invert-match" => invert = true,
                "-i" | "--ignore-case" => ignore_case = true,
                "-E" | "-e" | "--line-buffered" | "-F" | "-a" => {
                    if a == "-e" {
                        i += 1;
                        pattern = args.get(i).cloned();
                    }
                }
                _ if a.starts_with('-') && a.len() > 1 && pattern.is_some() => {}
                _ if pattern.is_none() => pattern = Some(a.to_owned()),
                _ => files.push(a.to_owned()),
            }
            i += 1;
        }
        let Some(pattern) = pattern else {
            return captured("", "usage: grep PATTERN [FILE]\n", 2);
        };
        let haystack = if files.is_empty() {
            stdin.to_owned()
        } else {
            let mut s = String::new();
            for f in &files {
                match self.files.get(f) {
                    Some(c) => s.push_str(c),
                    None => {
                        return captured("", format!("grep: {f}: No such file or directory\n"), 2)
                    }
                }
            }
            s
        };
        let pat = if ignore_case {
            pattern.to_lowercase()
        } else {
            pattern.clone()
        };
        let re = Regex::new(&pat).ok();
        let line_matches = |line: &str| -> bool {
            let l = if ignore_case {
                line.to_lowercase()
            } else {
                line.to_owned()
            };
            match &re {
                Some(re) => re.is_match(&l),
                None => l.contains(&pat), // unparsable pattern: fixed string
            }
        };
        let mut matched_lines: Vec<&str> = Vec::new();
        for line in haystack.lines() {
            if line_matches(line) != invert {
                matched_lines.push(line);
            }
        }
        let any = !matched_lines.is_empty();
        let code = if any { 0 } else { 1 };
        if quiet {
            return captured("", "", code);
        }
        if count {
            return captured(format!("{}\n", matched_lines.len()), "", code);
        }
        if only {
            let mut out = String::new();
            if let Some(re) = &re {
                for line in &matched_lines {
                    let l = if ignore_case {
                        line.to_lowercase()
                    } else {
                        (*line).to_owned()
                    };
                    for m in re.find_all(&l) {
                        out.push_str(m);
                        out.push('\n');
                    }
                }
            }
            return captured(out, "", code);
        }
        captured(join_lines(&matched_lines), "", code)
    }

    fn builtin_head(&self, args: &[String], stdin: &str) -> RunOutcome {
        let mut n: usize = 10;
        let mut files: Vec<String> = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if a == "-n" {
                i += 1;
                n = args
                    .get(i)
                    .and_then(|s| s.trim_start_matches('-').parse().ok())
                    .unwrap_or(10);
            } else if let Some(num) = a.strip_prefix("-n") {
                n = num.parse().unwrap_or(10);
            } else if let Some(num) = a.strip_prefix('-') {
                if let Ok(v) = num.parse() {
                    n = v;
                }
            } else {
                files.push(a.to_owned());
            }
            i += 1;
        }
        let content = if files.is_empty() {
            stdin.to_owned()
        } else {
            files
                .iter()
                .filter_map(|f| self.files.get(f))
                .cloned()
                .collect::<Vec<_>>()
                .join("")
        };
        let lines: Vec<&str> = content.lines().take(n).collect();
        captured(join_lines(&lines), "", 0)
    }

    fn builtin_timeout(
        &mut self,
        args: &[String],
        stdin: &str,
        outer_err: &mut String,
    ) -> Result<RunOutcome, ShellError> {
        let mut i = 0;
        // Skip `-s SIGNAL` / `--signal=..` / `-k ..`.
        while i < args.len() {
            match args[i].as_str() {
                "-s" | "--signal" | "-k" | "--kill-after" => i += 2,
                a if a.starts_with("--signal=") || a.starts_with("--kill-after=") => i += 1,
                _ => break,
            }
        }
        let duration = args.get(i).cloned().unwrap_or_default();
        let ms = parse_duration_secs(&duration)
            .map(|s| (s * 1000.0) as u64)
            .unwrap_or(1000);
        i += 1;
        let inner: Vec<String> = args.get(i..).unwrap_or_default().to_vec();
        if inner.is_empty() {
            return Ok(captured("", "timeout: missing command\n", 125));
        }
        self.total_sleep_ms += ms;
        let name = inner[0].clone();
        let inner_args = inner[1..].to_vec();
        // Builtins under timeout run to completion; sandbox commands may
        // report `blocking`, which timeout converts to exit 124.
        match self.sandbox.run(&name, &inner_args, stdin, &mut self.files) {
            Some(r) => {
                self.sandbox.sleep(ms);
                let code = if r.blocking { 124 } else { r.code };
                Ok(RunOutcome::Captured {
                    out: r.stdout,
                    err: r.stderr,
                    code,
                })
            }
            None => {
                let argv: Vec<String> = inner;
                self.sandbox.sleep(ms);
                self.run_command(&argv, stdin, outer_err)
            }
        }
    }
}

/// Wraps pre-expanded text as a quoted word so `[` arguments are not
/// re-expanded (they came in expanded already). Operators must stay
/// recognizable as keywords, so bare operator-looking strings stay unquoted.
fn quoted_word(text: &str) -> crate::lang::Word {
    let ops = [
        "==", "=", "!=", "-eq", "-ne", "-lt", "-le", "-gt", "-ge", "-z", "-n", "-f", "-e", "-s",
        "-d", "-a", "-o", "!", "(", ")", "<", ">", "=~",
    ];
    if ops.contains(&text) {
        crate::lang::Word::lit(text)
    } else {
        crate::lang::Word {
            segs: vec![crate::lang::Seg::Lit {
                text: text.to_owned(),
                quoted: true,
            }],
        }
    }
}

fn parse_duration_secs(s: &str) -> Option<f64> {
    let s = s.trim();
    if let Some(n) = s.strip_suffix('s') {
        n.parse().ok()
    } else if let Some(n) = s.strip_suffix('m') {
        n.parse::<f64>().ok().map(|v| v * 60.0)
    } else if let Some(n) = s.strip_suffix('h') {
        n.parse::<f64>().ok().map(|v| v * 3600.0)
    } else {
        s.parse().ok()
    }
}

fn join_lines(lines: &[&str]) -> String {
    if lines.is_empty() {
        String::new()
    } else {
        let mut s = lines.join("\n");
        s.push('\n');
        s
    }
}

fn builtin_printf(args: &[String]) -> RunOutcome {
    let Some(format) = args.first() else {
        return captured("", "usage: printf FORMAT [ARGS]\n", 2);
    };
    let mut out = String::new();
    let mut arg_iter = args[1..].iter();
    let mut chars = format.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => {}
            },
            '%' => match chars.next() {
                Some('s') => out.push_str(arg_iter.next().map(String::as_str).unwrap_or("")),
                Some('d') => {
                    let v: i64 = arg_iter
                        .next()
                        .and_then(|a| a.trim().parse().ok())
                        .unwrap_or(0);
                    out.push_str(&v.to_string());
                }
                Some('%') => out.push('%'),
                Some(other) => {
                    out.push('%');
                    out.push(other);
                }
                None => {}
            },
            c => out.push(c),
        }
    }
    captured(out, "", 0)
}

fn builtin_wc(args: &[String], stdin: &str) -> RunOutcome {
    let lines = stdin.lines().count();
    let words = stdin.split_whitespace().count();
    let bytes = stdin.len();
    let out = if args.contains(&"-l".to_owned()) {
        format!("{lines}\n")
    } else if args.contains(&"-w".to_owned()) {
        format!("{words}\n")
    } else if args.contains(&"-c".to_owned()) {
        format!("{bytes}\n")
    } else {
        format!("{lines} {words} {bytes}\n")
    };
    captured(out, "", 0)
}

fn builtin_cut(args: &[String], stdin: &str) -> RunOutcome {
    let mut delim = '\t';
    let mut fields: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a == "-d" {
            i += 1;
            delim = args.get(i).and_then(|s| s.chars().next()).unwrap_or('\t');
        } else if let Some(d) = a.strip_prefix("-d") {
            delim = d.chars().next().unwrap_or('\t');
        } else if a == "-f" {
            i += 1;
            fields = parse_field_list(args.get(i).map(String::as_str).unwrap_or(""));
        } else if let Some(f) = a.strip_prefix("-f") {
            fields = parse_field_list(f);
        }
        i += 1;
    }
    let mut out = String::new();
    for line in stdin.lines() {
        let parts: Vec<&str> = line.split(delim).collect();
        let selected: Vec<&str> = fields
            .iter()
            .filter_map(|f| parts.get(f.saturating_sub(1)).copied())
            .collect();
        out.push_str(&selected.join(&delim.to_string()));
        out.push('\n');
    }
    captured(out, "", 0)
}

fn parse_field_list(spec: &str) -> Vec<usize> {
    spec.split(',')
        .filter_map(|p| p.trim().parse().ok())
        .collect()
}

fn builtin_tr(args: &[String], stdin: &str) -> RunOutcome {
    let delete = args.first().map(String::as_str) == Some("-d");
    if delete {
        let set = args.get(1).cloned().unwrap_or_default();
        let out: String = stdin.chars().filter(|c| !set.contains(*c)).collect();
        return captured(out, "", 0);
    }
    let from: Vec<char> = args
        .first()
        .map(|s| s.chars().collect())
        .unwrap_or_default();
    let to: Vec<char> = args.get(1).map(|s| s.chars().collect()).unwrap_or_default();
    let out: String = stdin
        .chars()
        .map(|c| {
            from.iter()
                .position(|f| *f == c)
                .and_then(|i| to.get(i.min(to.len().saturating_sub(1))))
                .copied()
                .unwrap_or(c)
        })
        .collect();
    captured(out, "", 0)
}
