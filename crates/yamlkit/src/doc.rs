//! The parse-once document model.
//!
//! Every layer of the benchmark used to re-parse the same candidate text:
//! the YAML-aware metrics parsed it twice (kv-exact and kv-wildcard), the
//! shell substrate parsed it to validate it, and `kubectl apply` inside
//! the simulated cluster parsed it again — up to five parses per
//! evaluation, dominating static-scoring wall-clock the same way the
//! paper's cost analysis (§5) shows YAML handling dominating evaluation
//! cost. [`PreparedDoc`] is the fix: one structure that parses the text
//! **once** and caches every derived view the pipeline needs —
//!
//! * the parsed node tree (comments attached, so reference match labels
//!   survive) and the plain [`Yaml`] values behind an `Arc` for
//!   zero-copy sharing with the cluster simulator;
//! * the BLEU token stream and the line table as byte spans into the
//!   source (no per-token allocation, computed once);
//! * the scalar leaf count the wildcard metric's IoU denominator needs;
//! * the FNV-1a [`content_hash`] the score memo and response caches key
//!   on.
//!
//! A `PreparedDoc` is immutable and cheap to share: build it once per
//! candidate (or per reference, see `cescore::PreparedRef`) and pass
//! `Arc<PreparedDoc>` between pipeline stages.

use std::sync::{Arc, OnceLock};

use crate::arena::{parse_arena, ArenaKind, ArenaParts};
use crate::intern::{fnv1a, StrInterner, Sym};
use crate::labels::MatchTree;
use crate::parser::{Node, ParseYamlError};
use crate::value::Yaml;

/// The BLEU token stream of one document as dense interned symbols: a
/// per-document [`StrInterner`] plus one [`Sym`] per token, in stream
/// order. Scoring kernels run on the `u32` ids instead of `&str` slices
/// — n-gram windows pack into fixed-width integers and line/token
/// equality becomes an integer compare. Symbols are only meaningful
/// against [`SymStream::interner`]; cross-document comparison goes
/// through [`StrInterner::lookup`] on the *other* side's interner.
#[derive(Debug, Clone)]
pub struct SymStream {
    interner: StrInterner,
    syms: Vec<Sym>,
}

impl SymStream {
    /// Interns every token of `text` (per [`token_spans`] segmentation)
    /// into a fresh per-document interner.
    fn from_spans(text: &str, spans: &[(usize, usize)]) -> SymStream {
        let mut interner = StrInterner::with_capacity(32);
        let syms = spans
            .iter()
            .map(|&(s, e)| interner.intern(&text[s..e]))
            .collect();
        SymStream { interner, syms }
    }

    /// The per-document interner the symbols resolve against.
    pub fn interner(&self) -> &StrInterner {
        &self.interner
    }

    /// The token stream as symbols, one per token.
    pub fn syms(&self) -> &[Sym] {
        &self.syms
    }

    /// Number of tokens in the stream.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether the document tokenizes to nothing.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }
}

/// 64-bit FNV-1a hash of a byte string — the content-addressing hash the
/// whole pipeline keys caches on. Stable across processes and platforms
/// (unlike `DefaultHasher`), cheap, and collision-safe enough for
/// memoization keys drawn from a few thousand distinct YAML documents.
///
/// # Examples
///
/// ```
/// assert_eq!(yamlkit::doc::content_hash(""), 0xcbf29ce484222325);
/// assert_ne!(yamlkit::doc::content_hash("a"), yamlkit::doc::content_hash("b"));
/// ```
pub fn content_hash(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Byte spans of the BLEU token stream: whitespace-separated words with
/// YAML/JSON punctuation (`:,[]{}"'-=`) split out as individual tokens.
/// Identical segmentation to `cescore::tokenize_ref`, which delegates
/// here — every span indexes into `text`.
pub fn token_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start: Option<usize> = None;
    for (i, c) in text.char_indices() {
        match c {
            c if c.is_whitespace() => {
                if let Some(s) = start.take() {
                    spans.push((s, i));
                }
            }
            ':' | ',' | '[' | ']' | '{' | '}' | '"' | '\'' | '-' | '=' => {
                if let Some(s) = start.take() {
                    spans.push((s, i));
                }
                spans.push((i, i + c.len_utf8()));
            }
            _ => {
                if start.is_none() {
                    start = Some(i);
                }
            }
        }
    }
    if let Some(s) = start {
        spans.push((s, text.len()));
    }
    spans
}

/// Byte spans of the line table, matching `str::lines` exactly: split at
/// `\n`, a preceding `\r` stripped, the final line ending optional.
fn line_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            let end = if i > start && bytes[i - 1] == b'\r' {
                i - 1
            } else {
                i
            };
            spans.push((start, end));
            start = i + 1;
        }
    }
    if start < bytes.len() {
        spans.push((start, bytes.len()));
    }
    spans
}

/// A YAML text parsed exactly once, with every derived view the
/// evaluation pipeline needs cached alongside.
///
/// Construction never fails: unparseable text is recorded as a
/// [`parse_error`](PreparedDoc::parse_error) (with empty node/value
/// views) so the document can still travel through text-level metrics
/// and substrate execution, which score garbage as garbage rather than
/// erroring out.
///
/// # Examples
///
/// ```
/// use yamlkit::doc::PreparedDoc;
///
/// let doc = PreparedDoc::new("kind: Pod\nmetadata:\n  name: web\n");
/// assert!(doc.parses());
/// assert_eq!(doc.values().len(), 1);
/// assert_eq!(doc.tokens()[0], "kind");
/// assert_eq!(doc.content_hash(), yamlkit::doc::content_hash(doc.text()));
///
/// let bad = PreparedDoc::new("kind: [unclosed\n");
/// assert!(!bad.parses());
/// assert!(bad.values().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PreparedDoc {
    source: String,
    /// The arena parse is the backing store: a flat node table with
    /// interned strings (see [`crate::arena`]). Everything structural —
    /// leaf counts, match trees, the `Node`/`Yaml` views — reads from it.
    arena: ArenaParts,
    error: Option<ParseYamlError>,
    /// `Node`/`Yaml` tree views, materialized from the arena on first
    /// use: consumers that stay on the arena (leaf counts, match trees)
    /// or only need text-level views never build the boxed trees at all.
    nodes: OnceLock<Arc<Vec<Node>>>,
    values: OnceLock<Arc<Vec<Yaml>>>,
    /// Token/line span tables, computed on first use: documents that only
    /// ever reach a substrate (pass@k samples, batch jobs) never pay the
    /// tokenization scans; documents that reach static scoring compute
    /// them once and reuse them for every metric thereafter.
    tokens: OnceLock<Vec<(usize, usize)>>,
    lines: OnceLock<Vec<(usize, usize)>>,
    /// The interned token stream, built over the token spans on first
    /// use — the symbol-level view the scoring kernels run on.
    syms: OnceLock<SymStream>,
    /// FNV-1a hash of each line (same segmentation as `lines`), computed
    /// once — the edit-distance kernel probes a reference's line index
    /// with these instead of re-hashing the candidate per pair.
    line_hashes: OnceLock<Vec<u64>>,
    leaf_count: usize,
    hash: u64,
}

impl PreparedDoc {
    /// Parses `source` once (into the arena) and caches every derived view.
    pub fn new(source: impl Into<String>) -> PreparedDoc {
        let source = source.into();
        let (arena, error) = match parse_arena(&source) {
            Ok(parts) => (parts, None),
            Err(e) => (ArenaParts::default(), Some(e)),
        };
        let leaf_count = arena.roots.iter().map(|&r| arena.leaf_count(r)).sum();
        let hash = content_hash(&source);
        PreparedDoc {
            arena,
            error,
            nodes: OnceLock::new(),
            values: OnceLock::new(),
            tokens: OnceLock::new(),
            lines: OnceLock::new(),
            syms: OnceLock::new(),
            line_hashes: OnceLock::new(),
            leaf_count,
            hash,
            source,
        }
    }

    /// [`PreparedDoc::new`] wrapped in an `Arc`, the shape pipeline
    /// stages pass between threads.
    pub fn shared(source: impl Into<String>) -> Arc<PreparedDoc> {
        Arc::new(PreparedDoc::new(source))
    }

    /// The original text, untouched.
    pub fn text(&self) -> &str {
        &self.source
    }

    /// Whether the text parsed as YAML.
    pub fn parses(&self) -> bool {
        self.error.is_none()
    }

    /// The parse error, when the text did not parse.
    pub fn parse_error(&self) -> Option<&ParseYamlError> {
        self.error.as_ref()
    }

    /// The parsed node trees (comments attached), one per document in the
    /// stream; empty when the text did not parse. Materialized from the
    /// arena on first use, then cached.
    pub fn nodes(&self) -> &[Node] {
        self.nodes.get_or_init(|| {
            Arc::new(
                self.arena
                    .roots
                    .iter()
                    .map(|&r| self.arena.node_to_node(r))
                    .collect(),
            )
        })
    }

    /// The plain values, one per document; empty when the text did not
    /// parse. Materialized from the arena on first use, then cached.
    pub fn values(&self) -> &[Yaml] {
        self.values_arc()
    }

    fn values_arc(&self) -> &Arc<Vec<Yaml>> {
        self.values.get_or_init(|| {
            Arc::new(
                self.arena
                    .roots
                    .iter()
                    .map(|&r| self.arena.node_to_value(r))
                    .collect(),
            )
        })
    }

    /// Number of documents in the stream; 0 when the text did not parse
    /// or holds no document (empty, or comments only).
    pub fn doc_count(&self) -> usize {
        self.arena.roots.len()
    }

    /// The value under `key` in the first document's top-level mapping
    /// (first occurrence, like [`Yaml::get`]), materialized straight from
    /// the arena without building the rest of the tree. `None` when the
    /// stream is empty, the first document is not a mapping, or the key
    /// is absent.
    pub fn first_doc_field(&self, key: &str) -> Option<Yaml> {
        let &root = self.arena.roots.first()?;
        let ArenaKind::Map { start, len } = self.arena.nodes[root as usize].kind else {
            return None;
        };
        self.arena.map_entries[start as usize..(start + len) as usize]
            .iter()
            .find(|&&(k, _)| self.arena.interner.resolve(k) == key)
            .map(|&(_, value)| self.arena.node_to_value(value))
    }

    /// The values behind their shared allocation — hand this to another
    /// component (e.g. a simulated cluster's parse store) without deep
    /// copying the trees.
    pub fn values_shared(&self) -> Arc<Vec<Yaml>> {
        Arc::clone(self.values_arc())
    }

    /// The reference match trees (one per document), built by walking the
    /// arena directly — label scoring never needs the boxed [`Node`]
    /// trees. Empty when the text did not parse.
    pub fn match_trees(&self) -> Vec<MatchTree> {
        self.arena
            .roots
            .iter()
            .map(|&r| MatchTree::from_parts(&self.arena, r))
            .collect()
    }

    /// The cached BLEU token stream as slices of [`text`](PreparedDoc::text)
    /// (tokenized once, on first use).
    pub fn tokens(&self) -> Vec<&str> {
        self.tokens
            .get_or_init(|| token_spans(&self.source))
            .iter()
            .map(|&(s, e)| &self.source[s..e])
            .collect()
    }

    /// The cached line table as slices of [`text`](PreparedDoc::text)
    /// (identical to `text().lines()`; scanned once, on first use).
    pub fn lines(&self) -> Vec<&str> {
        self.lines
            .get_or_init(|| line_spans(&self.source))
            .iter()
            .map(|&(s, e)| &self.source[s..e])
            .collect()
    }

    /// The interned symbol view of the token stream (built once, on
    /// first use): token text resolves through the stream's per-document
    /// interner, and `syms()[i]` corresponds 1:1 to `tokens()[i]`.
    pub fn sym_stream(&self) -> &SymStream {
        self.syms.get_or_init(|| {
            let spans = self.tokens.get_or_init(|| token_spans(&self.source));
            SymStream::from_spans(&self.source, spans)
        })
    }

    /// FNV-1a hash of each line of [`lines`](PreparedDoc::lines)
    /// (hashed once, on first use) — pre-hashed probes for
    /// [`crate::intern::StrInterner::lookup_hashed`] against a
    /// reference-side line index.
    pub fn line_hashes(&self) -> &[u64] {
        self.line_hashes.get_or_init(|| {
            self.lines
                .get_or_init(|| line_spans(&self.source))
                .iter()
                .map(|&(s, e)| fnv1a(&self.source.as_bytes()[s..e]))
                .collect()
        })
    }

    /// Total scalar-leaf count across all documents (the wildcard
    /// metric's candidate-side union term).
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// The FNV-1a hash of the source text — the key the score memo and
    /// the service response cache address this document by.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for PreparedDoc {
    /// Documents are equal when their source text is: every cached view
    /// is a pure function of the text.
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.source == other.source
    }
}

impl Eq for PreparedDoc {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_matches_known_fnv_vectors() {
        assert_eq!(content_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(content_hash("kind: Pod"), content_hash("kind: Pod\n"));
        assert_eq!(content_hash("a"), content_hash("a"));
    }

    #[test]
    fn prepared_doc_caches_parse_and_views() {
        let text = "a: 1\n---\nb:\n- x\n- y\n";
        let doc = PreparedDoc::new(text);
        assert!(doc.parses());
        assert_eq!(doc.values().len(), 2);
        assert_eq!(doc.nodes().len(), 2);
        assert_eq!(doc.leaf_count(), 3);
        assert_eq!(doc.content_hash(), content_hash(text));
        assert_eq!(doc.text(), text);
    }

    #[test]
    fn unparseable_text_records_the_error() {
        let doc = PreparedDoc::new("a: [1,\n");
        assert!(!doc.parses());
        assert!(doc.parse_error().is_some());
        assert!(doc.values().is_empty());
        assert!(doc.nodes().is_empty());
        assert_eq!(doc.leaf_count(), 0);
        // Text-level views still work on garbage.
        assert!(!doc.tokens().is_empty());
        assert_eq!(doc.lines().len(), 1);
    }

    #[test]
    fn lines_match_std_lines() {
        for text in [
            "",
            "a",
            "a\n",
            "a\nb",
            "a\r\nb\r\n",
            "a\r",
            "\n\n",
            "unicode: héllo\n wörld",
            "mixed\r\nendings\nhere\r\n",
        ] {
            let doc = PreparedDoc::new(text);
            let want: Vec<&str> = text.lines().collect();
            assert_eq!(doc.lines(), want, "line table diverges on {text:?}");
        }
    }

    #[test]
    fn tokens_index_the_source() {
        let doc = PreparedDoc::new("name: web\nports: [80, 443]");
        assert_eq!(
            doc.tokens(),
            vec!["name", ":", "web", "ports", ":", "[", "80", ",", "443", "]"]
        );
    }

    #[test]
    fn sym_stream_mirrors_tokens() {
        let doc = PreparedDoc::new("name: web\nname: web\nports: [80, 443]");
        let tokens = doc.tokens();
        let stream = doc.sym_stream();
        assert_eq!(stream.len(), tokens.len());
        for (sym, token) in stream.syms().iter().zip(&tokens) {
            assert_eq!(stream.interner().resolve(*sym), *token);
        }
        // Repeated tokens share one symbol.
        assert_eq!(stream.syms()[0], stream.syms()[3], "name == name");
        assert!(stream.interner().len() < tokens.len());
        assert!(!stream.is_empty());
        assert!(PreparedDoc::new("").sym_stream().is_empty());
    }

    #[test]
    fn line_hashes_match_line_table() {
        let doc = PreparedDoc::new("a: 1\r\nb: 2\na: 1\n");
        let lines = doc.lines();
        let hashes = doc.line_hashes();
        assert_eq!(hashes.len(), lines.len());
        for (h, l) in hashes.iter().zip(&lines) {
            assert_eq!(*h, crate::intern::fnv1a(l.as_bytes()));
        }
        assert_eq!(hashes[0], hashes[2], "identical lines hash identically");
    }

    #[test]
    fn values_shared_is_the_same_allocation() {
        let doc = PreparedDoc::new("a: 1\n");
        assert!(Arc::ptr_eq(&doc.values_shared(), &doc.values_shared()));
    }

    #[test]
    fn equality_is_textual() {
        assert_eq!(PreparedDoc::new("a: 1\n"), PreparedDoc::new("a: 1\n"));
        assert_ne!(PreparedDoc::new("a: 1\n"), PreparedDoc::new("a:  1\n"));
    }
}
