//! An indentation-driven parser for the YAML subset used by cloud-native
//! configuration (Kubernetes, Istio, Envoy).
//!
//! Supported: block mappings and sequences, flow collections (`[..]`,
//! `{..}`), plain / single-quoted / double-quoted scalars, literal (`|`) and
//! folded (`>`) block scalars with chomping indicators, comments (captured
//! and attached to nodes so reference-YAML match labels survive parsing),
//! multi-document streams (`---` / `...`), anchors (`&a`) and aliases
//! (`*a`), and `!!tag` prefixes (parsed, ignored).
//!
//! Not supported (not used by the target dialects): complex keys (`? `),
//! block scalars with explicit indentation indicators, and directives other
//! than `%YAML` (skipped).

use std::collections::HashMap;
use std::fmt;

use crate::value::Yaml;

/// Error produced when a document cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseYamlError {
    line: usize,
    message: String,
}

impl ParseYamlError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        ParseYamlError {
            line,
            message: message.into(),
        }
    }

    /// 1-based source line on which the error was detected.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Human-readable description of the problem.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseYamlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "yaml parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseYamlError {}

/// A parsed node: a value plus the trailing comment that annotated it.
///
/// Comments are what carry the CloudEval-YAML reference labels (`# *`,
/// `# v in [...]`), so the parser keeps them attached to the exact scalar
/// they follow.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The node's structure.
    pub kind: NodeKind,
    /// Trailing `# ...` comment on the line that introduced this node.
    pub comment: Option<String>,
    /// 1-based source line.
    pub line: usize,
}

/// Structure of a [`Node`].
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A scalar leaf.
    Scalar(Yaml),
    /// A sequence of nodes.
    Seq(Vec<Node>),
    /// A mapping with string keys, order preserved.
    Map(Vec<(String, Node)>),
}

impl Node {
    fn scalar(value: Yaml, comment: Option<String>, line: usize) -> Self {
        Node::from_value(value, comment, line)
    }

    /// Lifts a plain value into a structural node tree (flow collections
    /// parsed inline become `Seq`/`Map` nodes, not scalar leaves).
    fn from_value(value: Yaml, comment: Option<String>, line: usize) -> Self {
        match value {
            Yaml::Seq(items) => Node {
                kind: NodeKind::Seq(
                    items
                        .into_iter()
                        .map(|v| Node::from_value(v, None, line))
                        .collect(),
                ),
                comment,
                line,
            },
            Yaml::Map(entries) => Node {
                kind: NodeKind::Map(
                    entries
                        .into_iter()
                        .map(|(k, v)| (k, Node::from_value(v, None, line)))
                        .collect(),
                ),
                comment,
                line,
            },
            scalar => Node::leaf(scalar, comment, line),
        }
    }

    fn leaf(value: Yaml, comment: Option<String>, line: usize) -> Self {
        Node {
            kind: NodeKind::Scalar(value),
            comment,
            line,
        }
    }

    /// Projects the annotated tree to a plain [`Yaml`] value.
    pub fn to_value(&self) -> Yaml {
        match &self.kind {
            NodeKind::Scalar(v) => v.clone(),
            NodeKind::Seq(items) => Yaml::Seq(items.iter().map(Node::to_value).collect()),
            NodeKind::Map(entries) => Yaml::Map(
                entries
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_value()))
                    .collect(),
            ),
        }
    }
}

/// Parses every document in a YAML stream.
///
/// Since the arena refactor this is a thin wrapper: the stream is parsed
/// once by the span-based arena path ([`crate::arena`]) and the annotated
/// [`Node`] trees are materialized from it. Output is identical to
/// [`parse_legacy`] (proved by the proptest equivalence suite), without
/// the per-line/per-token `String` churn.
///
/// # Errors
///
/// Returns [`ParseYamlError`] on malformed input: bad indentation, unclosed
/// quotes or flow collections, tab indentation, or unknown aliases.
///
/// # Examples
///
/// ```
/// let docs = yamlkit::parse("a: 1\n---\nb: 2\n")?;
/// assert_eq!(docs.len(), 2);
/// # Ok::<(), yamlkit::ParseYamlError>(())
/// ```
pub fn parse(source: &str) -> Result<Vec<Node>, ParseYamlError> {
    let parts = crate::arena::parse_arena(source)?;
    Ok(parts.roots.iter().map(|&r| parts.node_to_node(r)).collect())
}

/// The pre-arena recursive-descent parser, retained as the correctness
/// oracle for the equivalence suite and as the baseline leg of the
/// `repro parse` A/B. Semantics are identical to
/// [`parse`]; allocation behavior is not (per-line `String`s, per-token
/// `String`s, boxed `Node` trees).
///
/// # Errors
///
/// Same failure modes and diagnostics as [`parse`].
pub fn parse_legacy(source: &str) -> Result<Vec<Node>, ParseYamlError> {
    let lines = split_lines(source)?;
    let mut docs = Vec::new();
    let mut start = 0;
    let mut chunk: Vec<Line> = Vec::new();
    let flush = |chunk: &mut Vec<Line>, docs: &mut Vec<Node>| -> Result<(), ParseYamlError> {
        if chunk.iter().any(|l| !l.is_blank()) {
            let mut parser = Parser::new(std::mem::take(chunk));
            docs.push(parser.parse_document()?);
        } else {
            chunk.clear();
        }
        Ok(())
    };
    for line in lines {
        let content = line.content.trim_end();
        if line.indent == 0 && (content == "---" || content.starts_with("--- ")) {
            flush(&mut chunk, &mut docs)?;
            // `--- value` puts an inline document on the separator line.
            let rest = content.trim_start_matches("---").trim_start();
            if !rest.is_empty() {
                let mut inline = line.clone();
                inline.content = rest.to_owned();
                inline.indent = 4; // synthetic; only relative depth matters
                chunk.push(inline);
            }
            start = line.number;
            continue;
        }
        if line.indent == 0 && content == "..." {
            flush(&mut chunk, &mut docs)?;
            continue;
        }
        if line.indent == 0 && content.starts_with('%') && chunk.is_empty() {
            continue; // %YAML / %TAG directives
        }
        chunk.push(line);
    }
    let _ = start;
    flush(&mut chunk, &mut docs)?;
    Ok(docs)
}

/// Parses a stream expected to contain exactly one document.
///
/// # Errors
///
/// Fails if the stream is empty, holds more than one document, or any
/// document is malformed.
pub fn parse_one(source: &str) -> Result<Node, ParseYamlError> {
    let mut docs = parse(source)?;
    match docs.len() {
        0 => Err(ParseYamlError::new(1, "empty yaml stream")),
        1 => Ok(docs.remove(0)),
        n => Err(ParseYamlError::new(
            1,
            format!("expected 1 document, found {n}"),
        )),
    }
}

/// A physical line split into indentation, content and trailing comment.
#[derive(Debug, Clone)]
struct Line {
    number: usize,
    indent: usize,
    content: String,
    comment: Option<String>,
}

impl Line {
    fn is_blank(&self) -> bool {
        self.content.is_empty()
    }
}

/// Splits source into [`Line`]s, detaching trailing comments (respecting
/// quotes) and rejecting tab indentation.
fn split_lines(source: &str) -> Result<Vec<Line>, ParseYamlError> {
    let mut out = Vec::new();
    for (i, raw) in source.lines().enumerate() {
        let number = i + 1;
        let indent = raw.chars().take_while(|c| *c == ' ').count();
        if raw[indent..].starts_with('\t') && raw.trim() != "" {
            // A tab before content is illegal YAML indentation.
            let before = &raw[..raw
                .find(|c: char| c != ' ' && c != '\t')
                .unwrap_or(raw.len())];
            if before.contains('\t') {
                return Err(ParseYamlError::new(number, "tab used for indentation"));
            }
        }
        let body = &raw[indent..];
        let (content, comment) = detach_comment(body);
        out.push(Line {
            number,
            indent,
            content: content.trim_end().to_owned(),
            comment,
        });
    }
    Ok(out)
}

/// Splits `foo: bar # comment` into (`foo: bar`, Some(`comment`)), leaving
/// `#` inside quotes alone. A comment `#` must be at the start of the body
/// or preceded by whitespace.
fn detach_comment(body: &str) -> (String, Option<String>) {
    let mut in_single = false;
    let mut in_double = false;
    let mut prev: Option<char> = None;
    let chars: Vec<(usize, char)> = body.char_indices().collect();
    let mut k = 0;
    while k < chars.len() {
        let (idx, c) = chars[k];
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => {
                if prev != Some('\\') || !in_double {
                    in_double = !in_double;
                } else {
                    in_double = !in_double; // escaped quote toggles handled below
                }
            }
            '#' if !in_single && !in_double => {
                let at_start = idx == 0;
                let after_space = prev.is_some_and(|p| p == ' ' || p == '\t');
                if at_start || after_space {
                    let comment = body[idx + 1..].trim().to_owned();
                    let content = body[..idx].to_owned();
                    let comment = if comment.is_empty() {
                        Some(String::new())
                    } else {
                        Some(comment)
                    };
                    return (content, comment);
                }
            }
            '\\' if in_double => {
                // Skip the escaped character entirely.
                k += 2;
                prev = Some('\\');
                continue;
            }
            _ => {}
        }
        prev = Some(c);
        k += 1;
    }
    (body.to_owned(), None)
}

struct Parser {
    lines: Vec<Line>,
    pos: usize,
    anchors: HashMap<String, Node>,
}

impl Parser {
    fn new(lines: Vec<Line>) -> Self {
        Parser {
            lines,
            pos: 0,
            anchors: HashMap::new(),
        }
    }

    fn parse_document(&mut self) -> Result<Node, ParseYamlError> {
        self.skip_blanks();
        if self.pos >= self.lines.len() {
            return Ok(Node::scalar(Yaml::Null, None, 1));
        }
        let indent = self.lines[self.pos].indent;
        let node = self.parse_block(indent)?;
        self.skip_blanks();
        if let Some(line) = self.lines.get(self.pos) {
            return Err(ParseYamlError::new(
                line.number,
                format!("unexpected content after document: {:?}", line.content),
            ));
        }
        Ok(node)
    }

    fn skip_blanks(&mut self) {
        while self
            .pos
            .checked_sub(0)
            .and_then(|p| self.lines.get(p))
            .is_some_and(Line::is_blank)
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<&Line> {
        self.skip_blanks();
        self.lines.get(self.pos)
    }

    /// Parses a block node whose first line sits at exactly `indent`.
    fn parse_block(&mut self, indent: usize) -> Result<Node, ParseYamlError> {
        let line = match self.peek() {
            Some(l) if l.indent == indent => l.clone(),
            Some(l) => {
                return Err(ParseYamlError::new(
                    l.number,
                    format!("expected indent {indent}, found {}", l.indent),
                ))
            }
            None => return Ok(Node::scalar(Yaml::Null, None, 0)),
        };
        if line.content == "-" || line.content.starts_with("- ") {
            self.parse_sequence(indent)
        } else if let Some((key, rest)) = split_key(&line.content) {
            let _ = (key, rest);
            self.parse_mapping(indent)
        } else {
            // A bare scalar document (possibly multi-line plain scalar).
            self.pos += 1;
            let value = parse_scalar_token(&line.content, line.number, &mut self.anchors)?;
            Ok(Node::scalar(value, line.comment.clone(), line.number))
        }
    }

    fn parse_sequence(&mut self, indent: usize) -> Result<Node, ParseYamlError> {
        let mut items = Vec::new();
        let first_line = self.peek().map(|l| l.number).unwrap_or(0);
        loop {
            let line = match self.peek() {
                Some(l)
                    if l.indent == indent && (l.content == "-" || l.content.starts_with("- ")) =>
                {
                    l.clone()
                }
                Some(l) if l.indent > indent => {
                    return Err(ParseYamlError::new(
                        l.number,
                        "bad indentation inside sequence",
                    ))
                }
                _ => break,
            };
            let after = if line.content == "-" {
                ""
            } else {
                line.content[2..].trim_start()
            };
            if after.is_empty() {
                // Item body is the nested block (if any) at deeper indent.
                self.pos += 1;
                match self.peek() {
                    Some(next) if next.indent > indent => {
                        let child_indent = next.indent;
                        items.push(self.parse_block(child_indent)?);
                    }
                    _ => items.push(Node::scalar(Yaml::Null, line.comment.clone(), line.number)),
                }
            } else if let Some(header) = BlockScalarHeader::parse(after) {
                self.pos += 1;
                let text = self.parse_block_scalar(indent, header, line.number)?;
                items.push(Node::scalar(
                    Yaml::Str(text),
                    line.comment.clone(),
                    line.number,
                ));
            } else {
                // Re-indent the content after `- ` and parse it as a block
                // that may continue on following, deeper-indented lines.
                let inner_indent = indent + (line.content.len() - after.len());
                let mut rewritten = line.clone();
                rewritten.indent = inner_indent;
                rewritten.content = after.to_owned();
                self.lines[self.pos] = rewritten;
                items.push(self.parse_block(inner_indent)?);
            }
        }
        Ok(Node {
            kind: NodeKind::Seq(items),
            comment: None,
            line: first_line,
        })
    }

    fn parse_mapping(&mut self, indent: usize) -> Result<Node, ParseYamlError> {
        let mut entries: Vec<(String, Node)> = Vec::new();
        let first_line = self.peek().map(|l| l.number).unwrap_or(0);
        loop {
            let line = match self.peek() {
                Some(l) if l.indent == indent => l.clone(),
                Some(l) if l.indent > indent => {
                    return Err(ParseYamlError::new(
                        l.number,
                        "bad indentation inside mapping",
                    ))
                }
                _ => break,
            };
            let Some((key, rest)) = split_key(&line.content) else {
                break;
            };
            let key = unquote_key_text(key, line.number)?;
            self.pos += 1;
            let rest = rest.trim();
            let node = if rest.is_empty() {
                // Value is a nested block, or null when nothing deeper follows.
                match self.peek() {
                    Some(next) if next.indent > indent => {
                        let child = next.indent;
                        let mut node = self.parse_block(child)?;
                        if node.comment.is_none() {
                            node.comment = line.comment.clone();
                        }
                        node
                    }
                    // `key:` followed by a sequence at the *same* indent is
                    // legal YAML (common in hand-written manifests).
                    Some(next)
                        if next.indent == indent
                            && (next.content == "-" || next.content.starts_with("- ")) =>
                    {
                        self.parse_sequence(indent)?
                    }
                    _ => Node::scalar(Yaml::Null, line.comment.clone(), line.number),
                }
            } else if let Some(header) = BlockScalarHeader::parse(rest) {
                let text = self.parse_block_scalar(indent, header, line.number)?;
                Node::scalar(Yaml::Str(text), line.comment.clone(), line.number)
            } else {
                let value = parse_scalar_token(rest, line.number, &mut self.anchors)?;
                Node::scalar(value, line.comment.clone(), line.number)
            };
            entries.push((key, node));
        }
        if entries.is_empty() {
            let n = self.lines.get(self.pos).map(|l| l.number).unwrap_or(0);
            return Err(ParseYamlError::new(n, "expected mapping entry"));
        }
        Ok(Node {
            kind: NodeKind::Map(entries),
            comment: None,
            line: first_line,
        })
    }

    /// Reads the body of a `|` / `>` block scalar: all following lines that
    /// are blank or indented deeper than the key line.
    fn parse_block_scalar(
        &mut self,
        key_indent: usize,
        header: BlockScalarHeader,
        _line: usize,
    ) -> Result<String, ParseYamlError> {
        let mut raw: Vec<(usize, String)> = Vec::new();
        while let Some(l) = self.lines.get(self.pos) {
            if l.is_blank() {
                raw.push((usize::MAX, String::new()));
                self.pos += 1;
                continue;
            }
            if l.indent <= key_indent {
                break;
            }
            // Comments are content inside block scalars: reassemble.
            let mut text = l.content.clone();
            if let Some(c) = &l.comment {
                if c.is_empty() {
                    text.push_str(" #");
                } else {
                    text.push_str(" # ");
                    text.push_str(c);
                }
            }
            raw.push((l.indent, text));
            self.pos += 1;
        }
        // Trim trailing blank markers; they matter only for keep-chomping.
        let mut trailing_blanks = 0;
        while raw.last().is_some_and(|(i, _)| *i == usize::MAX) {
            raw.pop();
            trailing_blanks += 1;
        }
        let base = raw
            .iter()
            .filter(|(i, _)| *i != usize::MAX)
            .map(|(i, _)| *i)
            .min()
            .unwrap_or(key_indent + 1);
        let lines: Vec<String> = raw
            .into_iter()
            .map(|(i, text)| {
                if i == usize::MAX {
                    String::new()
                } else {
                    format!("{}{}", " ".repeat(i - base), text)
                }
            })
            .collect();
        let mut body = if header.folded {
            fold_lines(&lines)
        } else {
            lines.join("\n")
        };
        match header.chomp {
            Chomp::Strip => {}
            Chomp::Clip => {
                if !body.is_empty() {
                    body.push('\n');
                }
            }
            Chomp::Keep => {
                body.push('\n');
                for _ in 0..trailing_blanks {
                    body.push('\n');
                }
            }
        }
        Ok(body)
    }
}

/// Folds lines the way `>` block scalars do: single newlines become spaces,
/// blank lines become newlines, more-indented lines stay literal.
pub(crate) fn fold_lines(lines: &[String]) -> String {
    let mut out = String::new();
    let mut prev_blank = true;
    let mut prev_indented = false;
    for (i, l) in lines.iter().enumerate() {
        let indented = l.starts_with(' ');
        if i == 0 {
            out.push_str(l);
        } else if l.is_empty() {
            out.push('\n');
        } else if prev_blank || indented || prev_indented {
            if !prev_blank {
                out.push('\n');
            }
            out.push_str(l);
        } else {
            out.push(' ');
            out.push_str(l);
        }
        prev_blank = l.is_empty();
        prev_indented = indented;
    }
    out
}

#[derive(Clone, Copy)]
pub(crate) enum Chomp {
    Strip,
    Clip,
    Keep,
}

pub(crate) struct BlockScalarHeader {
    pub(crate) folded: bool,
    pub(crate) chomp: Chomp,
}

impl BlockScalarHeader {
    pub(crate) fn parse(token: &str) -> Option<Self> {
        let mut chars = token.chars();
        let folded = match chars.next()? {
            '|' => false,
            '>' => true,
            _ => return None,
        };
        let chomp = match chars.next() {
            None => Chomp::Clip,
            Some('-') => Chomp::Strip,
            Some('+') => Chomp::Keep,
            Some(_) => return None,
        };
        if chars.next().is_some() {
            return None;
        }
        Some(BlockScalarHeader { folded, chomp })
    }
}

/// Splits a mapping line into key and the remainder after `: `.
/// Returns `None` if the line is not a mapping entry.
pub(crate) fn split_key(content: &str) -> Option<(&str, &str)> {
    let bytes = content.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            '\\' if in_double => {
                i += 2;
                continue;
            }
            '[' | '{' if !in_single && !in_double => depth += 1,
            ']' | '}' if !in_single && !in_double => depth -= 1,
            ':' if !in_single && !in_double && depth == 0 => {
                let next = bytes.get(i + 1).map(|b| *b as char);
                if next.is_none() || next == Some(' ') {
                    let key = content[..i].trim();
                    if key.is_empty() {
                        return None;
                    }
                    let rest = if i + 1 < content.len() {
                        &content[i + 1..]
                    } else {
                        ""
                    };
                    return Some((key, rest));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Unquotes a mapping key: quoted keys are unescaped, bare keys pass
/// through. Shared between the legacy and arena paths.
pub(crate) fn unquote_key_text(key: &str, line: usize) -> Result<String, ParseYamlError> {
    if key.starts_with('"') && key.ends_with('"') && key.len() >= 2 {
        unescape_double_quoted(key, line)
    } else if key.starts_with('\'') && key.ends_with('\'') && key.len() >= 2 {
        unescape_single_quoted(key, line)
    } else {
        Ok(key.to_owned())
    }
}

/// Parses an inline scalar or flow collection token.
fn parse_scalar_token(
    token: &str,
    line: usize,
    anchors: &mut HashMap<String, Node>,
) -> Result<Yaml, ParseYamlError> {
    let token = token.trim();
    // Anchor definition: `&name value`
    if let Some(rest) = token.strip_prefix('&') {
        let (name, rest) = rest
            .split_once(char::is_whitespace)
            .map(|(n, r)| (n, r.trim()))
            .unwrap_or((rest, ""));
        let value = if rest.is_empty() {
            Yaml::Null
        } else {
            parse_scalar_token(rest, line, anchors)?
        };
        anchors.insert(name.to_owned(), Node::scalar(value.clone(), None, line));
        return Ok(value);
    }
    // Alias: `*name`
    if let Some(name) = token.strip_prefix('*') {
        return anchors
            .get(name.trim())
            .map(Node::to_value)
            .ok_or_else(|| ParseYamlError::new(line, format!("unknown alias *{name}")));
    }
    // Tag: `!!str 5` — strip and reparse.
    if token.starts_with("!!") {
        if let Some((tag, rest)) = token.split_once(char::is_whitespace) {
            let v = parse_scalar_token(rest.trim(), line, anchors)?;
            return Ok(coerce_tag(tag, v));
        }
        return Ok(Yaml::Null);
    }
    if token.starts_with('[') {
        let (value, used) = parse_flow(token, line)?;
        if used != token.len() {
            return Err(ParseYamlError::new(
                line,
                "trailing characters after flow sequence",
            ));
        }
        return Ok(value);
    }
    if token.starts_with('{') {
        let (value, used) = parse_flow(token, line)?;
        if used != token.len() {
            return Err(ParseYamlError::new(
                line,
                "trailing characters after flow mapping",
            ));
        }
        return Ok(value);
    }
    if token.starts_with('"') {
        return parse_double_quoted(token, line);
    }
    if token.starts_with('\'') {
        return parse_single_quoted(token, line);
    }
    Ok(plain_scalar(token))
}

pub(crate) fn coerce_tag(tag: &str, v: Yaml) -> Yaml {
    match tag {
        "!!str" => Yaml::Str(v.render_scalar()),
        "!!int" => v.render_scalar().parse::<i64>().map(Yaml::Int).unwrap_or(v),
        "!!float" => v
            .render_scalar()
            .parse::<f64>()
            .map(Yaml::Float)
            .unwrap_or(v),
        "!!bool" => match v.render_scalar().as_str() {
            "true" | "True" => Yaml::Bool(true),
            "false" | "False" => Yaml::Bool(false),
            _ => v,
        },
        _ => v,
    }
}

/// The type a plain scalar resolves to, with `Str` left unallocated so
/// the arena path can intern the source slice directly.
pub(crate) enum PlainKind {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str,
}

/// Classifies a plain (unquoted) scalar per YAML 1.2 core schema
/// conventions without allocating. Single source of truth for both the
/// legacy and arena paths.
pub(crate) fn plain_scalar_kind(token: &str) -> PlainKind {
    match token {
        "" | "~" | "null" | "Null" | "NULL" => return PlainKind::Null,
        "true" | "True" | "TRUE" => return PlainKind::Bool(true),
        "false" | "False" | "FALSE" => return PlainKind::Bool(false),
        ".inf" | "+.inf" | ".Inf" => return PlainKind::Float(f64::INFINITY),
        "-.inf" | "-.Inf" => return PlainKind::Float(f64::NEG_INFINITY),
        ".nan" | ".NaN" => return PlainKind::Float(f64::NAN),
        _ => {}
    }
    if let Some(hex) = token.strip_prefix("0x") {
        if let Ok(i) = i64::from_str_radix(hex, 16) {
            return PlainKind::Int(i);
        }
    }
    if let Some(oct) = token.strip_prefix("0o") {
        if let Ok(i) = i64::from_str_radix(oct, 8) {
            return PlainKind::Int(i);
        }
    }
    if looks_like_int(token) {
        if let Ok(i) = token.parse::<i64>() {
            return PlainKind::Int(i);
        }
    }
    if looks_like_float(token) {
        if let Ok(f) = token.parse::<f64>() {
            return PlainKind::Float(f);
        }
    }
    PlainKind::Str
}

/// Types a plain (unquoted) scalar per YAML 1.2 core schema conventions.
pub fn plain_scalar(token: &str) -> Yaml {
    match plain_scalar_kind(token) {
        PlainKind::Null => Yaml::Null,
        PlainKind::Bool(b) => Yaml::Bool(b),
        PlainKind::Int(i) => Yaml::Int(i),
        PlainKind::Float(f) => Yaml::Float(f),
        PlainKind::Str => Yaml::Str(token.to_owned()),
    }
}

fn looks_like_int(token: &str) -> bool {
    let t = token.strip_prefix(['+', '-']).unwrap_or(token);
    !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit())
}

fn looks_like_float(token: &str) -> bool {
    let t = token.strip_prefix(['+', '-']).unwrap_or(token);
    if t.is_empty() {
        return false;
    }
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    let bytes = t.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => seen_digit = true,
            b'.' if !seen_dot && !seen_exp => seen_dot = true,
            b'e' | b'E' if seen_digit && !seen_exp => {
                seen_exp = true;
                if matches!(bytes.get(i + 1), Some(b'+') | Some(b'-')) {
                    i += 1;
                }
            }
            _ => return false,
        }
        i += 1;
    }
    seen_digit && (seen_dot || seen_exp)
}

fn parse_double_quoted(token: &str, line: usize) -> Result<Yaml, ParseYamlError> {
    unescape_double_quoted(token, line).map(Yaml::Str)
}

/// Unescapes a `"..."` token (quotes included) into its text. Shared
/// between the legacy and arena paths.
pub(crate) fn unescape_double_quoted(token: &str, line: usize) -> Result<String, ParseYamlError> {
    let inner = token
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| ParseYamlError::new(line, "unterminated double-quoted string"))?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('0') => out.push('\0'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let cp = u32::from_str_radix(&hex, 16)
                    .map_err(|_| ParseYamlError::new(line, "bad \\u escape"))?;
                out.push(
                    char::from_u32(cp)
                        .ok_or_else(|| ParseYamlError::new(line, "bad \\u codepoint"))?,
                );
            }
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => return Err(ParseYamlError::new(line, "dangling escape")),
        }
    }
    Ok(out)
}

fn parse_single_quoted(token: &str, line: usize) -> Result<Yaml, ParseYamlError> {
    unescape_single_quoted(token, line).map(Yaml::Str)
}

/// Unescapes a `'...'` token (quotes included) into its text. Shared
/// between the legacy and arena paths.
pub(crate) fn unescape_single_quoted(token: &str, line: usize) -> Result<String, ParseYamlError> {
    let inner = token
        .strip_prefix('\'')
        .and_then(|t| t.strip_suffix('\''))
        .ok_or_else(|| ParseYamlError::new(line, "unterminated single-quoted string"))?;
    Ok(inner.replace("''", "'"))
}

/// Parses a flow collection starting at byte 0 of `s`; returns the value and
/// how many bytes were consumed.
fn parse_flow(s: &str, line: usize) -> Result<(Yaml, usize), ParseYamlError> {
    let bytes = s.as_bytes();
    match bytes.first() {
        Some(b'[') => {
            let mut items = Vec::new();
            let mut i = 1;
            loop {
                i = skip_ws(s, i);
                if i >= s.len() {
                    return Err(ParseYamlError::new(line, "unterminated flow sequence"));
                }
                if bytes[i] == b']' {
                    return Ok((Yaml::Seq(items), i + 1));
                }
                let (v, used) = parse_flow_value(&s[i..], line)?;
                items.push(v);
                i = skip_ws(s, i + used);
                match bytes.get(i) {
                    Some(b',') => i += 1,
                    Some(b']') => return Ok((Yaml::Seq(items), i + 1)),
                    _ => {
                        return Err(ParseYamlError::new(
                            line,
                            "expected , or ] in flow sequence",
                        ))
                    }
                }
            }
        }
        Some(b'{') => {
            let mut entries = Vec::new();
            let mut i = 1;
            loop {
                i = skip_ws(s, i);
                if i >= s.len() {
                    return Err(ParseYamlError::new(line, "unterminated flow mapping"));
                }
                if bytes[i] == b'}' {
                    return Ok((Yaml::Map(entries), i + 1));
                }
                let colon = find_flow_colon(&s[i..]).ok_or_else(|| {
                    ParseYamlError::new(line, "expected key: value in flow mapping")
                })?;
                let key = unquote_key_text(s[i..i + colon].trim(), line)?;
                i = skip_ws(s, i + colon + 1);
                let (v, used) = if matches!(bytes.get(i), Some(b',') | Some(b'}')) {
                    (Yaml::Null, 0)
                } else {
                    parse_flow_value(&s[i..], line)?
                };
                entries.push((key, v));
                i = skip_ws(s, i + used);
                match bytes.get(i) {
                    Some(b',') => i += 1,
                    Some(b'}') => return Ok((Yaml::Map(entries), i + 1)),
                    _ => return Err(ParseYamlError::new(line, "expected , or } in flow mapping")),
                }
            }
        }
        _ => Err(ParseYamlError::new(line, "not a flow collection")),
    }
}

fn skip_ws(s: &str, mut i: usize) -> usize {
    let bytes = s.as_bytes();
    while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b'\t') {
        i += 1;
    }
    i
}

/// Finds the `:` separating key from value inside a flow mapping entry.
pub(crate) fn find_flow_colon(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut in_single = false;
    let mut in_double = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            // `\"` inside a double-quoted key must not toggle the quote
            // state (JSON keys arrive here via the flow-mapping path).
            b'\\' if in_double => i += 1,
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b':' if !in_single && !in_double => return Some(i),
            b',' | b'}' if !in_single && !in_double => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses one value inside a flow collection; returns bytes consumed.
fn parse_flow_value(s: &str, line: usize) -> Result<(Yaml, usize), ParseYamlError> {
    let bytes = s.as_bytes();
    match bytes.first() {
        Some(b'[') | Some(b'{') => parse_flow(s, line),
        Some(b'"') => {
            let end = find_quote_end(s, '"', line)?;
            Ok((parse_double_quoted(&s[..=end], line)?, end + 1))
        }
        Some(b'\'') => {
            let end = find_quote_end(s, '\'', line)?;
            Ok((parse_single_quoted(&s[..=end], line)?, end + 1))
        }
        _ => {
            // Plain scalar: up to , ] } at depth 0.
            let mut i = 0;
            while i < bytes.len() && !matches!(bytes[i], b',' | b']' | b'}') {
                i += 1;
            }
            Ok((plain_scalar(s[..i].trim()), i))
        }
    }
}

pub(crate) fn find_quote_end(s: &str, quote: char, line: usize) -> Result<usize, ParseYamlError> {
    let bytes = s.as_bytes();
    let q = quote as u8;
    let mut i = 1;
    while i < bytes.len() {
        if bytes[i] == b'\\' && quote == '"' {
            i += 2;
            continue;
        }
        if bytes[i] == q {
            if quote == '\'' && bytes.get(i + 1) == Some(&q) {
                i += 2;
                continue;
            }
            return Ok(i);
        }
        i += 1;
    }
    Err(ParseYamlError::new(line, "unterminated quoted string"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ymap, yseq};

    fn v(src: &str) -> Yaml {
        parse_one(src).expect("parse").to_value()
    }

    #[test]
    fn parses_simple_mapping() {
        let doc = v("apiVersion: v1\nkind: Pod\n");
        assert_eq!(doc.get("apiVersion").and_then(Yaml::as_str), Some("v1"));
        assert_eq!(doc.get("kind").and_then(Yaml::as_str), Some("Pod"));
    }

    #[test]
    fn parses_nested_blocks() {
        let doc = v("metadata:\n  name: x\n  labels:\n    app: nginx\n");
        assert_eq!(
            doc.get_path(&["metadata", "labels", "app"])
                .and_then(Yaml::as_str),
            Some("nginx")
        );
    }

    #[test]
    fn parses_block_sequence_of_maps() {
        let doc = v("containers:\n- name: a\n  image: nginx\n- name: b\n");
        let containers = doc.get("containers").unwrap();
        assert_eq!(containers.seq_len(), Some(2));
        assert_eq!(
            containers
                .idx(0)
                .unwrap()
                .get("image")
                .and_then(Yaml::as_str),
            Some("nginx")
        );
        assert_eq!(
            containers
                .idx(1)
                .unwrap()
                .get("name")
                .and_then(Yaml::as_str),
            Some("b")
        );
    }

    #[test]
    fn sequence_at_same_indent_as_key() {
        // Kubernetes manifests commonly write the list at the key's indent.
        let doc = v("subjects:\n- kind: User\n  name: dave\nroleRef:\n  kind: ClusterRole\n");
        assert_eq!(doc.get("subjects").unwrap().seq_len(), Some(1));
        assert_eq!(
            doc.get_path(&["roleRef", "kind"]).and_then(Yaml::as_str),
            Some("ClusterRole")
        );
    }

    #[test]
    fn scalar_typing() {
        let doc = v("a: 80\nb: \"5000\"\nc: true\nd: null\ne: 1.5\nf: 100m\n");
        assert_eq!(doc.get("a"), Some(&Yaml::Int(80)));
        assert_eq!(doc.get("b"), Some(&Yaml::Str("5000".into())));
        assert_eq!(doc.get("c"), Some(&Yaml::Bool(true)));
        assert_eq!(doc.get("d"), Some(&Yaml::Null));
        assert_eq!(doc.get("e"), Some(&Yaml::Float(1.5)));
        assert_eq!(doc.get("f"), Some(&Yaml::Str("100m".into())));
    }

    #[test]
    fn flow_collections() {
        let doc =
            v("args: [run, --port, 80]\nsel: {app: nginx, tier: web}\nnest: [[1, 2], {k: [3]}]\n");
        assert_eq!(doc.get("args").unwrap(), &yseq!["run", "--port", 80i64]);
        assert_eq!(
            doc.get("sel").unwrap(),
            &ymap! {"app" => "nginx", "tier" => "web"}
        );
        assert_eq!(
            doc.get("nest").unwrap().idx(1).unwrap().get("k").unwrap(),
            &yseq![3i64]
        );
    }

    #[test]
    fn comments_are_captured() {
        let node = parse_one("metadata:\n  name: web # *\n  ns: default\n").unwrap();
        let NodeKind::Map(entries) = &node.kind else {
            panic!()
        };
        let NodeKind::Map(meta) = &entries[0].1.kind else {
            panic!()
        };
        assert_eq!(meta[0].1.comment.as_deref(), Some("*"));
        assert_eq!(meta[1].1.comment, None);
    }

    #[test]
    fn hash_inside_quotes_is_not_comment() {
        let doc = v("anno: \"a # b\"\nurl: http://x/#frag\n");
        assert_eq!(doc.get("anno").and_then(Yaml::as_str), Some("a # b"));
        // `#` not preceded by space is content.
        assert_eq!(
            doc.get("url").and_then(Yaml::as_str),
            Some("http://x/#frag")
        );
    }

    #[test]
    fn literal_block_scalar() {
        let doc = v("script: |\n  line1\n  line2\nnext: 1\n");
        assert_eq!(
            doc.get("script").and_then(Yaml::as_str),
            Some("line1\nline2\n")
        );
        assert_eq!(doc.get("next"), Some(&Yaml::Int(1)));
    }

    #[test]
    fn literal_block_scalar_strip_chomp() {
        let doc = v("s: |-\n  a\n  b\n");
        assert_eq!(doc.get("s").and_then(Yaml::as_str), Some("a\nb"));
    }

    #[test]
    fn folded_block_scalar() {
        let doc = v("s: >-\n  hello\n  world\n\n  next para\n");
        assert_eq!(
            doc.get("s").and_then(Yaml::as_str),
            Some("hello world\nnext para")
        );
    }

    #[test]
    fn block_scalar_keeps_hash() {
        let doc = v("cmd: |\n  echo hi # not a comment\n");
        assert_eq!(
            doc.get("cmd").and_then(Yaml::as_str),
            Some("echo hi # not a comment\n")
        );
    }

    #[test]
    fn multi_document_stream() {
        let docs = parse("---\na: 1\n---\nb: 2\n...\n").unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[1].to_value().get("b"), Some(&Yaml::Int(2)));
    }

    #[test]
    fn quoted_keys_and_url_keys() {
        let doc = v("\"a: b\": 1\nnginx.ingress.kubernetes.io/rewrite-target: /\n");
        assert_eq!(doc.get("a: b"), Some(&Yaml::Int(1)));
        assert_eq!(
            doc.get("nginx.ingress.kubernetes.io/rewrite-target")
                .and_then(Yaml::as_str),
            Some("/")
        );
    }

    #[test]
    fn anchors_and_aliases() {
        let doc = v("base: &img nginx:latest\ncopy: *img\n");
        assert_eq!(doc.get("copy").and_then(Yaml::as_str), Some("nginx:latest"));
    }

    #[test]
    fn unknown_alias_is_error() {
        assert!(parse_one("a: *nope\n").is_err());
    }

    #[test]
    fn tab_indentation_is_error() {
        assert!(parse("a:\n\tb: 1\n").is_err());
    }

    #[test]
    fn unterminated_flow_is_error() {
        assert!(parse_one("a: [1, 2\n").is_err());
    }

    #[test]
    fn bad_dedent_is_error() {
        assert!(parse_one("a:\n    b: 1\n  c: 2\n").is_err());
    }

    #[test]
    fn empty_value_is_null() {
        let doc = v("a:\nb: 1\n");
        assert_eq!(doc.get("a"), Some(&Yaml::Null));
    }

    #[test]
    fn dash_only_item_with_nested_map() {
        let doc = v("items:\n-\n  name: x\n- name: y\n");
        assert_eq!(doc.get("items").unwrap().seq_len(), Some(2));
        assert_eq!(
            doc.get("items")
                .unwrap()
                .idx(0)
                .unwrap()
                .get("name")
                .and_then(Yaml::as_str),
            Some("x")
        );
    }

    #[test]
    fn nested_sequence_in_sequence() {
        let doc = v("m:\n- - 1\n  - 2\n- - 3\n");
        let m = doc.get("m").unwrap();
        assert_eq!(m.idx(0).unwrap(), &yseq![1i64, 2i64]);
        assert_eq!(m.idx(1).unwrap(), &yseq![3i64]);
    }

    #[test]
    fn single_quote_escapes() {
        let doc = v("s: 'it''s'\n");
        assert_eq!(doc.get("s").and_then(Yaml::as_str), Some("it's"));
    }

    #[test]
    fn double_quote_escapes() {
        let doc = v("s: \"a\\nb\\u0041\"\n");
        assert_eq!(doc.get("s").and_then(Yaml::as_str), Some("a\nbA"));
    }

    #[test]
    fn inline_document_after_separator() {
        let docs = parse("--- 42\n").unwrap();
        assert_eq!(docs[0].to_value(), Yaml::Int(42));
    }

    #[test]
    fn env_var_listing_like_paper_example() {
        let src = "spec:\n  containers:\n  - env:\n    - name: MYSQL_USER\n      value: mysql\n    image: \"mysql:latest\"\n    name: mysql\n    ports:\n    - containerPort: 3306\n";
        let doc = v(src);
        let c0 = doc
            .get_path(&["spec", "containers"])
            .unwrap()
            .idx(0)
            .unwrap();
        assert_eq!(c0.get("image").and_then(Yaml::as_str), Some("mysql:latest"));
        assert_eq!(
            c0.get("env")
                .unwrap()
                .idx(0)
                .unwrap()
                .get("name")
                .and_then(Yaml::as_str),
            Some("MYSQL_USER")
        );
        assert_eq!(
            c0.get("ports")
                .unwrap()
                .idx(0)
                .unwrap()
                .get("containerPort"),
            Some(&Yaml::Int(3306))
        );
    }
}
