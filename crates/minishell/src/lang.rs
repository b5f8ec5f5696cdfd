//! Lexer, word model and recursive-descent parser for the bash subset the
//! CloudEval-YAML unit-test scripts use.
//!
//! Supported syntax: simple commands with assignments and redirections,
//! pipelines (`|`), `&&`/`||` lists, `!` negation, `if/elif/else/fi`,
//! `for ... in ...; do ... done`, `while ... do ... done`, `(( ... ))`
//! arithmetic commands, `[[ ... ]]` conditionals, single/double quotes,
//! `$var`/`${var}`/`${var:-def}` expansion, `$(...)` and backtick command
//! substitution, `$(( ... ))` arithmetic expansion, and comments.

use std::fmt;

/// Parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseShellError {
    /// 1-based line.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseShellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shell parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseShellError {}

/// A piece of a word, tracking whether it was quoted (quoting suppresses
/// glob interpretation in `[[ ]]` patterns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seg {
    /// Literal text; `quoted` is true inside quotes.
    Lit {
        /// The text.
        text: String,
        /// Whether the text came from inside quotes.
        quoted: bool,
    },
    /// `$name` or `${name}` (with optional `:-` default).
    Var {
        /// Variable name.
        name: String,
        /// `${name:-default}` fallback, if written.
        default: Option<String>,
        /// Inside double quotes?
        quoted: bool,
    },
    /// `$(...)` or backticks.
    CmdSub {
        /// The parsed body, or its parse error, raised only when the
        /// substitution is evaluated (as bash does).
        body: Result<Vec<Cmd>, ParseShellError>,
        /// Inside double quotes?
        quoted: bool,
    },
    /// `$(( ... ))`.
    Arith {
        /// The expression; see [`Cmd::Arith`].
        expr: Word,
    },
}

/// A (possibly multi-segment) shell word.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Word {
    /// Segments in order.
    pub segs: Vec<Seg>,
}

impl Word {
    /// A purely literal unquoted word.
    pub fn lit(text: &str) -> Word {
        Word {
            segs: vec![Seg::Lit {
                text: text.to_owned(),
                quoted: false,
            }],
        }
    }

    /// The word's text if it is a single unquoted literal (used to detect
    /// keywords like `if` and `then`).
    pub fn as_keyword(&self) -> Option<&str> {
        match self.segs.as_slice() {
            [Seg::Lit {
                text,
                quoted: false,
            }] => Some(text),
            _ => None,
        }
    }
}

/// Redirection operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirOp {
    /// `> file`
    Out,
    /// `>> file`
    Append,
    /// `< file`
    In,
    /// `2> file`
    ErrOut,
    /// `2>> file`
    ErrAppend,
    /// `2>&1`
    ErrToOut,
    /// `&> file` (both streams)
    AllOut,
}

/// One redirection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Redirect {
    /// Operator.
    pub op: RedirOp,
    /// Target file word (unused for `2>&1`).
    pub target: Word,
}

/// Commands (the AST's statement level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cmd {
    /// Assignments, argv words, redirections.
    Simple {
        /// Leading `NAME=value` assignments.
        assignments: Vec<(String, Word)>,
        /// Command and arguments.
        words: Vec<Word>,
        /// Redirections in order.
        redirects: Vec<Redirect>,
    },
    /// `left | right | ...`
    Pipeline(Vec<Cmd>),
    /// `a && b`, `a || b` — `ops[i]` joins `cmds[i]` to `cmds[i+1]`.
    AndOr {
        /// Constituent pipelines.
        cmds: Vec<Cmd>,
        /// `true` = `&&`, `false` = `||`.
        ops: Vec<bool>,
    },
    /// `! cmd`
    Not(Box<Cmd>),
    /// `if c; then t; elif c2; then t2; else e; fi`
    If {
        /// (condition, body) pairs: the `if` and every `elif`.
        arms: Vec<(Vec<Cmd>, Vec<Cmd>)>,
        /// `else` body.
        otherwise: Vec<Cmd>,
    },
    /// `for v in words; do body; done`
    For {
        /// Loop variable.
        var: String,
        /// Item words (expanded and split at run time).
        items: Vec<Word>,
        /// Loop body.
        body: Vec<Cmd>,
    },
    /// `while cond; do body; done`
    While {
        /// Condition list.
        cond: Vec<Cmd>,
        /// Body list.
        body: Vec<Cmd>,
    },
    /// `(( expr ))` — exit 0 when the expression is non-zero. The
    /// expression is literal text except for its `$(…)` and `$((…))`
    /// pieces, which are expanded before it is evaluated.
    Arith(Word),
    /// `[[ ... ]]` — conditional expression, words kept raw.
    Cond(Vec<Word>),
    /// `break` / `continue`
    LoopCtl(bool),
}

/// Token stream element.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(Word),
    Op(&'static str),
    Newline,
    Arith(Word),
    CondStart,
    CondEnd,
}

/// Tokenizes source into words and operators.
fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseShellError> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks: Vec<(Tok, usize)> = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                toks.push((Tok::Newline, line));
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '\\' if chars.get(i + 1) == Some(&'\n') => {
                line += 1;
                i += 2; // line continuation
            }
            '#' => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            ';' => {
                toks.push((Tok::Newline, line));
                i += 1;
            }
            '&' if chars.get(i + 1) == Some(&'&') => {
                toks.push((Tok::Op("&&"), line));
                i += 2;
            }
            '&' if chars.get(i + 1) == Some(&'>') => {
                toks.push((Tok::Op("&>"), line));
                i += 2;
            }
            '|' if chars.get(i + 1) == Some(&'|') => {
                toks.push((Tok::Op("||"), line));
                i += 2;
            }
            '|' => {
                toks.push((Tok::Op("|"), line));
                i += 1;
            }
            '(' if chars.get(i + 1) == Some(&'(') => {
                let (expr, consumed, newlines) = read_until_double_close(&chars[i + 2..], line)?;
                toks.push((Tok::Arith(arith_word(&expr)), line));
                line += newlines;
                i += 2 + consumed + 2;
            }
            '[' if chars.get(i + 1) == Some(&'[') => {
                toks.push((Tok::CondStart, line));
                i += 2;
            }
            ']' if chars.get(i + 1) == Some(&']') => {
                toks.push((Tok::CondEnd, line));
                i += 2;
            }
            '>' if chars.get(i + 1) == Some(&'>') => {
                toks.push((Tok::Op(">>"), line));
                i += 2;
            }
            '>' => {
                toks.push((Tok::Op(">"), line));
                i += 1;
            }
            '<' => {
                toks.push((Tok::Op("<"), line));
                i += 1;
            }
            '2' if chars.get(i + 1) == Some(&'>')
                && word_boundary_before(&toks)
                && chars.get(i + 2) == Some(&'&')
                && chars.get(i + 3) == Some(&'1') =>
            {
                toks.push((Tok::Op("2>&1"), line));
                i += 4;
            }
            '2' if chars.get(i + 1) == Some(&'>') && word_boundary_before(&toks) => {
                if chars.get(i + 2) == Some(&'>') {
                    toks.push((Tok::Op("2>>"), line));
                    i += 3;
                } else {
                    toks.push((Tok::Op("2>"), line));
                    i += 2;
                }
            }
            '!' if word_boundary_before(&toks)
                && chars.get(i + 1).is_some_and(|n| n.is_whitespace()) =>
            {
                toks.push((Tok::Op("!"), line));
                i += 1;
            }
            _ => {
                let (word, consumed, newlines) = lex_word(&chars[i..], line)?;
                toks.push((Tok::Word(word), line));
                line += newlines;
                i += consumed;
            }
        }
    }
    Ok(toks)
}

fn word_boundary_before(toks: &[(Tok, usize)]) -> bool {
    // `2>` is a redirection only at the start of a word.
    true_boundary(toks)
}

fn true_boundary(_toks: &[(Tok, usize)]) -> bool {
    true
}

fn read_until_double_close(
    chars: &[char],
    line: usize,
) -> Result<(String, usize, usize), ParseShellError> {
    let mut depth = 0i32;
    let mut out = String::new();
    let mut newlines = 0;
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == ')' && chars.get(i + 1) == Some(&')') && depth == 0 {
            return Ok((out, i, newlines));
        }
        match chars[i] {
            '(' => depth += 1,
            ')' => depth -= 1,
            '\n' => newlines += 1,
            _ => {}
        }
        out.push(chars[i]);
        i += 1;
    }
    Err(ParseShellError {
        line,
        message: "unterminated (( )) expression".into(),
    })
}

/// Reads one word starting at `chars[0]`; returns (word, chars consumed,
/// newlines inside quotes).
fn lex_word(chars: &[char], line: usize) -> Result<(Word, usize, usize), ParseShellError> {
    let mut segs: Vec<Seg> = Vec::new();
    let mut lit = String::new();
    let mut lit_quoted = false;
    let mut i = 0;
    let mut newlines = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\r' | '\n' | ';' | '|' | '&' | '>' | '<' | '#' => break,
            ')' | '(' => break,
            ']' if chars.get(i + 1) == Some(&']') => break,
            '\'' => {
                flush(&mut lit, lit_quoted, &mut segs);
                lit_quoted = false;
                let mut j = i + 1;
                let mut s = String::new();
                while j < chars.len() && chars[j] != '\'' {
                    if chars[j] == '\n' {
                        newlines += 1;
                    }
                    s.push(chars[j]);
                    j += 1;
                }
                if j >= chars.len() {
                    return Err(ParseShellError {
                        line,
                        message: "unterminated single quote".into(),
                    });
                }
                segs.push(Seg::Lit {
                    text: s,
                    quoted: true,
                });
                i = j + 1;
            }
            '"' => {
                flush(&mut lit, lit_quoted, &mut segs);
                lit_quoted = false;
                let (inner, consumed, nl) = lex_double_quoted(&chars[i + 1..], line)?;
                segs.extend(inner);
                newlines += nl;
                i += 1 + consumed;
            }
            '`' => {
                flush(&mut lit, lit_quoted, &mut segs);
                let mut j = i + 1;
                let mut s = String::new();
                while j < chars.len() && chars[j] != '`' {
                    if chars[j] == '\n' {
                        newlines += 1;
                    }
                    s.push(chars[j]);
                    j += 1;
                }
                if j >= chars.len() {
                    return Err(ParseShellError {
                        line,
                        message: "unterminated backtick".into(),
                    });
                }
                segs.push(Seg::CmdSub {
                    body: parse(&s),
                    quoted: false,
                });
                i = j + 1;
            }
            '$' => {
                flush(&mut lit, lit_quoted, &mut segs);
                let (seg, consumed, nl) = lex_dollar(&chars[i..], line, false)?;
                segs.push(seg);
                newlines += nl;
                i += consumed;
            }
            '\\' => {
                if let Some(&next) = chars.get(i + 1) {
                    if next == '\n' {
                        newlines += 1;
                    } else {
                        lit.push(next);
                    }
                    i += 2;
                } else {
                    i += 1;
                }
            }
            c => {
                lit.push(c);
                i += 1;
            }
        }
    }
    flush(&mut lit, lit_quoted, &mut segs);
    if segs.is_empty() {
        return Err(ParseShellError {
            line,
            message: format!("empty word at {:?}", &chars[..chars.len().min(5)]),
        });
    }
    Ok((Word { segs }, i, newlines))
}

/// Moves pending literal text, if any, into `segs`.
fn flush(lit: &mut String, quoted: bool, segs: &mut Vec<Seg>) {
    if !lit.is_empty() {
        segs.push(Seg::Lit {
            text: std::mem::take(lit),
            quoted,
        });
    }
}

/// Lexes the inside of a double-quoted region up to the closing quote.
fn lex_double_quoted(
    chars: &[char],
    line: usize,
) -> Result<(Vec<Seg>, usize, usize), ParseShellError> {
    let mut segs = Vec::new();
    let mut lit = String::new();
    let mut i = 0;
    let mut newlines = 0;
    while i < chars.len() {
        match chars[i] {
            '"' => {
                if !lit.is_empty() || segs.is_empty() {
                    segs.push(Seg::Lit {
                        text: lit,
                        quoted: true,
                    });
                }
                return Ok((segs, i + 1, newlines));
            }
            '\\' if matches!(
                chars.get(i + 1),
                Some('"') | Some('\\') | Some('$') | Some('`')
            ) =>
            {
                lit.push(chars[i + 1]);
                i += 2;
            }
            '$' => {
                flush(&mut lit, true, &mut segs);
                let (seg, consumed, nl) = lex_dollar(&chars[i..], line, true)?;
                segs.push(seg);
                newlines += nl;
                i += consumed;
            }
            '`' => {
                flush(&mut lit, true, &mut segs);
                let mut j = i + 1;
                let mut s = String::new();
                while j < chars.len() && chars[j] != '`' {
                    s.push(chars[j]);
                    j += 1;
                }
                segs.push(Seg::CmdSub {
                    body: parse(&s),
                    quoted: true,
                });
                i = j + 1;
            }
            c => {
                if c == '\n' {
                    newlines += 1;
                }
                lit.push(c);
                i += 1;
            }
        }
    }
    Err(ParseShellError {
        line,
        message: "unterminated double quote".into(),
    })
}

/// Lexes `$var`, `${var}`, `${var:-def}`, `$(cmd)`, `$((expr))`, `$?`.
fn lex_dollar(
    chars: &[char],
    line: usize,
    quoted: bool,
) -> Result<(Seg, usize, usize), ParseShellError> {
    debug_assert_eq!(chars[0], '$');
    match chars.get(1) {
        Some('(') if chars.get(2) == Some(&'(') => {
            let (expr, consumed, nl) = read_until_double_close(&chars[3..], line)?;
            let expr = arith_word(&expr);
            Ok((Seg::Arith { expr }, 3 + consumed + 2, nl))
        }
        Some('(') => {
            // Balanced command substitution.
            let mut depth = 1;
            let mut j = 2;
            let mut s = String::new();
            let mut nl = 0;
            while j < chars.len() {
                match chars[j] {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            let body = parse(&s);
                            return Ok((Seg::CmdSub { body, quoted }, j + 1, nl));
                        }
                    }
                    '\n' => nl += 1,
                    _ => {}
                }
                s.push(chars[j]);
                j += 1;
            }
            Err(ParseShellError {
                line,
                message: "unterminated $( )".into(),
            })
        }
        Some('{') => {
            let mut j = 2;
            let mut s = String::new();
            while j < chars.len() && chars[j] != '}' {
                s.push(chars[j]);
                j += 1;
            }
            if j >= chars.len() {
                return Err(ParseShellError {
                    line,
                    message: "unterminated ${ }".into(),
                });
            }
            let (name, default) = match s.split_once(":-") {
                Some((n, d)) => (n.to_owned(), Some(d.to_owned())),
                None => (s, None),
            };
            Ok((
                Seg::Var {
                    name,
                    default,
                    quoted,
                },
                j + 1,
                0,
            ))
        }
        Some('?') => Ok((
            Seg::Var {
                name: "?".into(),
                default: None,
                quoted,
            },
            2,
            0,
        )),
        Some('#') => Ok((
            Seg::Var {
                name: "#".into(),
                default: None,
                quoted,
            },
            2,
            0,
        )),
        Some(c) if c.is_alphabetic() || *c == '_' => {
            let mut j = 1;
            let mut name = String::new();
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                name.push(chars[j]);
                j += 1;
            }
            Ok((
                Seg::Var {
                    name,
                    default: None,
                    quoted,
                },
                j,
                0,
            ))
        }
        _ => Ok((
            Seg::Lit {
                text: "$".into(),
                quoted,
            },
            1,
            0,
        )),
    }
}

/// Splits arithmetic source into literal text and its `$(…)` and `$((…))`
/// pieces; an unterminated `$(` stays literal text.
fn arith_word(expr: &str) -> Word {
    let chars: Vec<char> = expr.chars().collect();
    let (mut segs, mut lit, mut i) = (Vec::new(), String::new(), 0);
    while i < chars.len() {
        match (chars[i] == '$').then(|| lex_dollar(&chars[i..], 0, false)) {
            Some(Ok((seg @ (Seg::CmdSub { .. } | Seg::Arith { .. }), consumed, _))) => {
                flush(&mut lit, false, &mut segs);
                segs.push(seg);
                i += consumed;
            }
            _ => {
                lit.push(chars[i]);
                i += 1;
            }
        }
    }
    flush(&mut lit, false, &mut segs);
    Word { segs }
}

/// Parses a script into a statement list.
///
/// # Errors
///
/// [`ParseShellError`] for unterminated quotes, missing `fi`/`done`, etc.
///
/// # Examples
///
/// ```
/// let prog = minishell::lang::parse("if [ 1 -eq 1 ]; then echo ok; fi").unwrap();
/// assert_eq!(prog.len(), 1);
/// ```
pub fn parse(src: &str) -> Result<Vec<Cmd>, ParseShellError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let list = p.parse_list(&[])?;
    if p.pos < p.toks.len() {
        let line = p.toks[p.pos].1;
        return Err(ParseShellError {
            line,
            message: "unexpected trailing tokens".into(),
        });
    }
    Ok(list)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks.get(self.pos).map(|(_, l)| *l).unwrap_or(0)
    }

    fn peek_keyword(&self) -> Option<&str> {
        match self.peek() {
            Some(Tok::Word(w)) => w.as_keyword(),
            _ => None,
        }
    }

    fn eat_newlines(&mut self) {
        while matches!(self.peek(), Some(Tok::Newline)) {
            self.pos += 1;
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseShellError> {
        self.eat_newlines();
        if self.peek_keyword() == Some(kw) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseShellError {
                line: self.line(),
                message: format!("expected `{kw}`"),
            })
        }
    }

    /// Parses statements until one of `terminators` (as a keyword) or EOF.
    fn parse_list(&mut self, terminators: &[&str]) -> Result<Vec<Cmd>, ParseShellError> {
        let mut cmds = Vec::new();
        loop {
            self.eat_newlines();
            match self.peek() {
                None => break,
                Some(Tok::Word(w)) => {
                    if let Some(kw) = w.as_keyword() {
                        if terminators.contains(&kw) {
                            break;
                        }
                    }
                }
                _ => {}
            }
            if self.peek().is_none() {
                break;
            }
            cmds.push(self.parse_and_or(terminators)?);
        }
        Ok(cmds)
    }

    fn parse_and_or(&mut self, terminators: &[&str]) -> Result<Cmd, ParseShellError> {
        let first = self.parse_pipeline(terminators)?;
        let mut cmds = vec![first];
        let mut ops = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Op("&&")) => {
                    self.pos += 1;
                    self.eat_newlines();
                    ops.push(true);
                    cmds.push(self.parse_pipeline(terminators)?);
                }
                Some(Tok::Op("||")) => {
                    self.pos += 1;
                    self.eat_newlines();
                    ops.push(false);
                    cmds.push(self.parse_pipeline(terminators)?);
                }
                _ => break,
            }
        }
        if cmds.len() == 1 {
            Ok(cmds.pop().expect("len 1"))
        } else {
            Ok(Cmd::AndOr { cmds, ops })
        }
    }

    fn parse_pipeline(&mut self, terminators: &[&str]) -> Result<Cmd, ParseShellError> {
        let negated = matches!(self.peek(), Some(Tok::Op("!")));
        if negated {
            self.pos += 1;
        }
        let first = self.parse_command(terminators)?;
        let mut cmds = vec![first];
        while matches!(self.peek(), Some(Tok::Op("|"))) {
            self.pos += 1;
            self.eat_newlines();
            cmds.push(self.parse_command(terminators)?);
        }
        let pipeline = if cmds.len() == 1 {
            cmds.pop().expect("len 1")
        } else {
            Cmd::Pipeline(cmds)
        };
        Ok(if negated {
            Cmd::Not(Box::new(pipeline))
        } else {
            pipeline
        })
    }

    fn parse_command(&mut self, terminators: &[&str]) -> Result<Cmd, ParseShellError> {
        self.eat_newlines();
        match self.peek() {
            Some(Tok::Arith(expr)) => {
                let e = expr.clone();
                self.pos += 1;
                Ok(Cmd::Arith(e))
            }
            Some(Tok::CondStart) => {
                self.pos += 1;
                let mut words = Vec::new();
                loop {
                    match self.peek() {
                        Some(Tok::CondEnd) => {
                            self.pos += 1;
                            break;
                        }
                        Some(Tok::Word(w)) => {
                            words.push(w.clone());
                            self.pos += 1;
                        }
                        Some(Tok::Op(op @ ("&&" | "||" | "!" | "<" | ">"))) => {
                            words.push(Word::lit(op));
                            self.pos += 1;
                        }
                        other => {
                            return Err(ParseShellError {
                                line: self.line(),
                                message: format!("unexpected token in [[ ]]: {other:?}"),
                            })
                        }
                    }
                }
                Ok(Cmd::Cond(words))
            }
            Some(Tok::Word(w)) => match w.as_keyword() {
                Some("if") => self.parse_if(),
                Some("for") => self.parse_for(),
                Some("while") => self.parse_while(),
                Some("break") => {
                    self.pos += 1;
                    Ok(Cmd::LoopCtl(true))
                }
                Some("continue") => {
                    self.pos += 1;
                    Ok(Cmd::LoopCtl(false))
                }
                _ => self.parse_simple(terminators),
            },
            other => Err(ParseShellError {
                line: self.line(),
                message: format!("unexpected token: {other:?}"),
            }),
        }
    }

    fn parse_if(&mut self) -> Result<Cmd, ParseShellError> {
        self.expect_keyword("if")?;
        let mut arms = Vec::new();
        let cond = self.parse_list(&["then"])?;
        self.expect_keyword("then")?;
        let body = self.parse_list(&["elif", "else", "fi"])?;
        arms.push((cond, body));
        let mut otherwise = Vec::new();
        loop {
            self.eat_newlines();
            match self.peek_keyword() {
                Some("elif") => {
                    self.pos += 1;
                    let c = self.parse_list(&["then"])?;
                    self.expect_keyword("then")?;
                    let b = self.parse_list(&["elif", "else", "fi"])?;
                    arms.push((c, b));
                }
                Some("else") => {
                    self.pos += 1;
                    otherwise = self.parse_list(&["fi"])?;
                }
                Some("fi") => {
                    self.pos += 1;
                    break;
                }
                _ => {
                    return Err(ParseShellError {
                        line: self.line(),
                        message: "expected elif/else/fi".into(),
                    })
                }
            }
        }
        Ok(Cmd::If { arms, otherwise })
    }

    fn parse_for(&mut self) -> Result<Cmd, ParseShellError> {
        self.expect_keyword("for")?;
        let var = match self.peek() {
            Some(Tok::Word(w)) => {
                w.as_keyword()
                    .map(str::to_owned)
                    .ok_or_else(|| ParseShellError {
                        line: self.line(),
                        message: "bad for variable".into(),
                    })?
            }
            _ => {
                return Err(ParseShellError {
                    line: self.line(),
                    message: "for needs a variable".into(),
                })
            }
        };
        self.pos += 1;
        self.expect_keyword("in")?;
        let mut items = Vec::new();
        while let Some(Tok::Word(w)) = self.peek() {
            if w.as_keyword() == Some("do") {
                break;
            }
            items.push(w.clone());
            self.pos += 1;
        }
        self.expect_keyword("do")?;
        let body = self.parse_list(&["done"])?;
        self.expect_keyword("done")?;
        Ok(Cmd::For { var, items, body })
    }

    fn parse_while(&mut self) -> Result<Cmd, ParseShellError> {
        self.expect_keyword("while")?;
        let cond = self.parse_list(&["do"])?;
        self.expect_keyword("do")?;
        let body = self.parse_list(&["done"])?;
        self.expect_keyword("done")?;
        Ok(Cmd::While { cond, body })
    }

    fn parse_simple(&mut self, _terminators: &[&str]) -> Result<Cmd, ParseShellError> {
        let mut assignments = Vec::new();
        let mut words: Vec<Word> = Vec::new();
        let mut redirects = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Word(w)) => {
                    // NAME=value before the command word is an assignment.
                    if words.is_empty() {
                        if let Some((name, rest)) = split_assignment(w) {
                            assignments.push((name, rest));
                            self.pos += 1;
                            continue;
                        }
                    }
                    words.push(w.clone());
                    self.pos += 1;
                }
                Some(Tok::Op(op @ (">" | ">>" | "<" | "2>" | "2>>" | "&>"))) => {
                    let op = match *op {
                        ">" => RedirOp::Out,
                        ">>" => RedirOp::Append,
                        "<" => RedirOp::In,
                        "2>" => RedirOp::ErrOut,
                        "2>>" => RedirOp::ErrAppend,
                        _ => RedirOp::AllOut,
                    };
                    self.pos += 1;
                    let target = match self.peek() {
                        Some(Tok::Word(w)) => w.clone(),
                        _ => {
                            return Err(ParseShellError {
                                line: self.line(),
                                message: "redirection needs a target".into(),
                            })
                        }
                    };
                    self.pos += 1;
                    redirects.push(Redirect { op, target });
                }
                Some(Tok::Op("2>&1")) => {
                    self.pos += 1;
                    redirects.push(Redirect {
                        op: RedirOp::ErrToOut,
                        target: Word::default(),
                    });
                }
                _ => break,
            }
        }
        if words.is_empty() && assignments.is_empty() {
            return Err(ParseShellError {
                line: self.line(),
                message: "empty command".into(),
            });
        }
        Ok(Cmd::Simple {
            assignments,
            words,
            redirects,
        })
    }
}

/// Splits `NAME=rest` when the word starts with a literal assignment
/// prefix. The value keeps the remaining segments.
fn split_assignment(w: &Word) -> Option<(String, Word)> {
    let Seg::Lit {
        text,
        quoted: false,
    } = w.segs.first()?
    else {
        return None;
    };
    let eq = text.find('=')?;
    let name = &text[..eq];
    if name.is_empty()
        || !name.chars().all(|c| c.is_alphanumeric() || c == '_')
        || name.chars().next().is_some_and(|c| c.is_numeric())
    {
        return None;
    }
    let mut value_segs = Vec::new();
    if eq + 1 < text.len() {
        value_segs.push(Seg::Lit {
            text: text[eq + 1..].to_owned(),
            quoted: false,
        });
    }
    value_segs.extend(w.segs[1..].iter().cloned());
    Some((name.to_owned(), Word { segs: value_segs }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_simple_command() {
        let prog = parse("kubectl apply -f labeled_code.yaml").unwrap();
        let Cmd::Simple { words, .. } = &prog[0] else {
            panic!()
        };
        assert_eq!(words.len(), 4);
    }

    #[test]
    fn parses_assignment_with_cmdsub() {
        let prog = parse("pods=$(kubectl get pods -o name)").unwrap();
        let Cmd::Simple {
            assignments, words, ..
        } = &prog[0]
        else {
            panic!()
        };
        assert!(words.is_empty());
        assert_eq!(assignments[0].0, "pods");
        assert!(matches!(assignments[0].1.segs[0], Seg::CmdSub { .. }));
    }

    #[test]
    fn parses_pipeline_and_andor() {
        let prog = parse("cat f | grep x && echo yes || echo no").unwrap();
        let Cmd::AndOr { cmds, ops } = &prog[0] else {
            panic!("{prog:?}")
        };
        assert_eq!(cmds.len(), 3);
        assert_eq!(ops, &vec![true, false]);
        assert!(matches!(cmds[0], Cmd::Pipeline(_)));
    }

    #[test]
    fn parses_if_elif_else() {
        let prog = parse("if [ \"$a\" == \"b\" ]; then\n  echo 1\nelif [ -z \"$a\" ]; then\n  echo 2\nelse\n  echo 3\nfi\n").unwrap();
        let Cmd::If { arms, otherwise } = &prog[0] else {
            panic!()
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(otherwise.len(), 1);
    }

    #[test]
    fn parses_double_bracket_cond() {
        let prog =
            parse("if [[ $ns == \"development\" && $x == *\"HOST\"* ]]; then echo ok; fi").unwrap();
        let Cmd::If { arms, .. } = &prog[0] else {
            panic!()
        };
        let Cmd::Cond(words) = &arms[0].0[0] else {
            panic!("{:?}", arms[0].0)
        };
        assert!(words.len() >= 5);
    }

    #[test]
    fn parses_arith_command_and_expansion() {
        let prog = parse("((passed_tests++))\nx=$((1 + 2))").unwrap();
        assert_eq!(prog[0], Cmd::Arith(Word::lit("passed_tests++")));
        let Cmd::Simple { assignments, .. } = &prog[1] else {
            panic!()
        };
        assert!(
            matches!(&assignments[0].1.segs[0], Seg::Arith { expr } if *expr == Word::lit("1 + 2"))
        );
    }

    #[test]
    fn parses_for_loop() {
        let prog = parse("for i in a b c; do echo $i; done").unwrap();
        let Cmd::For { var, items, body } = &prog[0] else {
            panic!()
        };
        assert_eq!(var, "i");
        assert_eq!(items.len(), 3);
        assert_eq!(body.len(), 1);
    }

    #[test]
    fn parses_while_loop_with_break() {
        let prog = parse("while true; do break; done").unwrap();
        let Cmd::While { body, .. } = &prog[0] else {
            panic!()
        };
        assert!(matches!(body[0], Cmd::LoopCtl(true)));
    }

    #[test]
    fn parses_redirections() {
        let prog = parse("cmd > out.txt 2>&1\ncmd2 >> log 2> err < in").unwrap();
        let Cmd::Simple { redirects, .. } = &prog[0] else {
            panic!()
        };
        assert_eq!(redirects.len(), 2);
        assert_eq!(redirects[0].op, RedirOp::Out);
        assert_eq!(redirects[1].op, RedirOp::ErrToOut);
        let Cmd::Simple { redirects, .. } = &prog[1] else {
            panic!()
        };
        assert_eq!(
            redirects.iter().map(|r| r.op).collect::<Vec<_>>(),
            vec![RedirOp::Append, RedirOp::ErrOut, RedirOp::In]
        );
    }

    #[test]
    fn multiline_double_quote_is_one_word() {
        let prog = parse("echo \"line1\nline2\" | kubectl apply -f -").unwrap();
        let Cmd::Pipeline(cmds) = &prog[0] else {
            panic!("{prog:?}")
        };
        let Cmd::Simple { words, .. } = &cmds[0] else {
            panic!()
        };
        assert_eq!(words.len(), 2);
    }

    #[test]
    fn dollar_variants() {
        let prog = parse("echo $? ${HOME} ${X:-fallback} $(ls) `pwd`").unwrap();
        let Cmd::Simple { words, .. } = &prog[0] else {
            panic!()
        };
        assert_eq!(words.len(), 6);
        assert!(
            matches!(&words[3].segs[0], Seg::Var { name, default: Some(d), .. } if name == "X" && d == "fallback")
        );
    }

    #[test]
    fn comments_are_ignored() {
        let prog = parse("echo hi # a comment\n# whole line\necho bye").unwrap();
        assert_eq!(prog.len(), 2);
    }

    #[test]
    fn negation() {
        let prog = parse("! grep -q foo file").unwrap();
        assert!(matches!(prog[0], Cmd::Not(_)));
    }

    #[test]
    fn unterminated_quote_errors() {
        assert!(parse("echo \"oops").is_err());
        assert!(parse("echo 'oops").is_err());
        assert!(parse("x=$(echo ").is_err());
    }

    #[test]
    fn missing_fi_errors() {
        assert!(parse("if true; then echo hi").is_err());
    }

    #[test]
    fn timeout_style_command() {
        let prog = parse("timeout -s INT 8s minikube service nginx-service > bash_output.txt 2>&1")
            .unwrap();
        let Cmd::Simple {
            words, redirects, ..
        } = &prog[0]
        else {
            panic!()
        };
        assert_eq!(words.len(), 7);
        assert_eq!(redirects.len(), 2);
    }
}
