//! Symbol-interned scoring kernels: rolling-hash BLEU n-gram counting
//! and bit-parallel line edit distance, with all reference-side work
//! precomputed once per problem.
//!
//! The legacy kernels ([`crate::bleu_tokens_ref`] and the rolling-row
//! LCS behind [`crate::line_edit_distance_lines`]) operate on `&str`
//! slices: every BLEU order re-hashes every n-gram window — hashing `n`
//! strings per window, on *both* sides, per candidate — and the LCS DP
//! runs a string compare per cell. This module moves the hot path onto
//! dense `u32` symbols from the per-document interner
//! ([`yamlkit::doc::SymStream`]):
//!
//! * [`RefNgrams`] — the reference's 1–4-gram count tables, built
//!   **once** per reference (they live on `cescore::PreparedRef`, so a
//!   pass@k sweep shares them across all candidates). Each table is a
//!   flat open-addressing map from the n-gram window — the `n` symbol
//!   ids packed exactly into a `u128` key, maintained by a rolling
//!   shift-or as the window slides — to its occurrence count. Keys are
//!   compared exactly, so a hash collision can never conflate two
//!   distinct grams.
//! * [`bleu_kernel`] — translates the candidate's symbols into the
//!   reference's symbol space (one read-only interner probe per
//!   *distinct* candidate token), then counts candidate windows against
//!   the reference tables. Clipped counts are integers; the final
//!   floating-point steps replicate [`crate::bleu_tokens_ref`]
//!   operation-for-operation, so scores are bit-identical.
//! * [`RefLineIndex`] — the reference's lines interned to dense ids,
//!   built once per reference.
//! * [`edit_distance_kernel`] — maps candidate lines to reference line
//!   ids via cached per-line hashes, trims the common prefix/suffix,
//!   and runs a bit-parallel LCS (Hyyrö/Crochemore `(V + U) | (V - U)`
//!   form, 64 lines per machine word) instead of the O(n·m)
//!   string-comparing DP. LCS length is a well-defined integer, so the
//!   derived distance and score are exactly the legacy values.
//! * [`ScoreScratch`] — every transient the kernels need (candidate
//!   count table, translation buffers, match-mask rows, bit vectors),
//!   owned by a scoring worker and reused across records so steady-state
//!   scoring allocates nothing.

use yamlkit::doc::SymStream;
use yamlkit::intern::StrInterner;

use crate::Smoothing;

/// Highest BLEU order (uniform 1–4-gram weights, as the paper uses).
const MAX_N: usize = 4;
/// NLTK smoothing-method-1 epsilon, mirrored from the legacy kernel.
const EPS: f64 = 0.1;
/// Candidate symbol with no equivalent in the reference vocabulary. Any
/// window containing it can never match a reference gram (reference ids
/// are dense and far below it), so one shared sentinel is exact.
const UNSEEN: u32 = u32::MAX;

/// FNV-1a over the first `n` little-endian `u32` lanes of a packed
/// n-gram key — the rolling window's hash into the count tables.
#[inline]
fn gram_hash(key: u128, n: usize) -> u64 {
    let bytes = key.to_le_bytes();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes[..n * 4] {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The window mask for order `n`: keeps the low `n` 32-bit lanes.
#[inline]
fn window_mask(n: usize) -> u128 {
    if n >= 4 {
        u128::MAX
    } else {
        (1u128 << (32 * n)) - 1
    }
}

/// One open-addressing n-gram count table: packed `u128` window keys
/// (compared exactly) and `u32` counts, power-of-two capacity, count 0
/// marking an empty slot.
#[derive(Debug, Clone, Default)]
struct NgramTable {
    keys: Vec<u128>,
    counts: Vec<u32>,
}

impl NgramTable {
    fn with_window_count(windows: usize) -> NgramTable {
        let cap = (windows.max(4) * 2).next_power_of_two();
        NgramTable {
            keys: vec![0; cap],
            counts: vec![0; cap],
        }
    }

    #[inline]
    fn slot_of(&self, key: u128, n: usize) -> usize {
        let mask = self.keys.len() - 1;
        let mut slot = (gram_hash(key, n) as usize) & mask;
        while self.counts[slot] != 0 && self.keys[slot] != key {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Occurrences of the window `key`, 0 when absent.
    #[inline]
    fn get(&self, key: u128, n: usize) -> u32 {
        if self.counts.is_empty() {
            return 0;
        }
        self.counts[self.slot_of(key, n)]
    }

    /// Increments the count of `key` (the table is sized up front for
    /// its window count, so load never exceeds 1/2).
    #[inline]
    fn bump(&mut self, key: u128, n: usize) {
        let slot = self.slot_of(key, n);
        self.keys[slot] = key;
        self.counts[slot] += 1;
    }
}

/// The reference side of BLEU, precomputed once per reference: one
/// `NgramTable` per order 1–4 over the reference's interned symbol
/// stream, plus the token count the brevity penalty and effective-order
/// computation need.
///
/// Built by [`RefNgrams::build`] from a document's
/// [`SymStream`]; lives on `cescore::PreparedRef` so every candidate of
/// a pass@k sweep shares the same tables.
#[derive(Debug, Clone, Default)]
pub struct RefNgrams {
    tables: [NgramTable; MAX_N],
    len: usize,
}

impl RefNgrams {
    /// Counts every 1–4-gram of the reference stream, maintaining each
    /// order's packed window key by rolling shift-or.
    pub fn build(stream: &SymStream) -> RefNgrams {
        let syms = stream.syms();
        let len = syms.len();
        let mut tables: [NgramTable; MAX_N] = Default::default();
        for (n, table) in tables.iter_mut().enumerate() {
            let n = n + 1;
            if len < n {
                continue;
            }
            *table = NgramTable::with_window_count(len - n + 1);
            let mask = window_mask(n);
            let mut key: u128 = 0;
            for (i, sym) in syms.iter().enumerate() {
                key = ((key << 32) | u128::from(sym.0)) & mask;
                if i + 1 >= n {
                    table.bump(key, n);
                }
            }
        }
        RefNgrams { tables, len }
    }

    /// Token count of the reference stream.
    pub fn token_len(&self) -> usize {
        self.len
    }
}

/// The reference side of line edit distance, precomputed once per
/// reference: every reference line interned to a dense id (exact string
/// equality, deduplicated), plus the id sequence.
#[derive(Debug, Clone, Default)]
pub struct RefLineIndex {
    interner: StrInterner,
    ids: Vec<u32>,
}

impl RefLineIndex {
    /// Interns the reference's line table.
    pub fn build(lines: &[&str]) -> RefLineIndex {
        let mut interner = StrInterner::with_capacity(lines.len());
        let ids = lines.iter().map(|l| interner.intern(l).0).collect();
        RefLineIndex { interner, ids }
    }

    /// Number of reference lines.
    pub fn line_len(&self) -> usize {
        self.ids.len()
    }

    /// Number of *distinct* reference lines (the match-mask row space).
    fn distinct(&self) -> usize {
        self.interner.len()
    }
}

/// Reusable kernel scratch: count tables, translation buffers, match
/// masks and bit vectors, owned by one scoring worker and reused across
/// records so repeated scoring allocates nothing in steady state.
///
/// [`crate::score_pair_prepared`] keeps one per thread automatically;
/// workers that want explicit control (the harness's scoring pools,
/// `repro score`) own one and call [`crate::score_pair_prepared_with`].
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// Candidate symbol id → reference symbol id (or [`UNSEEN`]),
    /// rebuilt per pair, indexed by the candidate's dense sym ids.
    translate: Vec<u32>,
    /// The candidate token stream mapped into reference symbol space.
    cand_stream: Vec<u32>,
    /// Candidate-side count table: windows that exist in the reference,
    /// with their candidate count and (cached) reference count.
    gram_keys: Vec<u128>,
    gram_cand: Vec<u32>,
    gram_ref: Vec<u32>,
    /// Occupied slots of the candidate table, for O(distinct) clearing.
    touched: Vec<usize>,
    /// Candidate line ids in reference line space (or [`UNSEEN`]).
    cand_lines: Vec<u32>,
    /// Flat match-mask rows, `line_words` words per distinct reference
    /// line id, cleared lazily via `row_gen` generation stamps.
    line_masks: Vec<u64>,
    row_gen: Vec<u32>,
    generation: u32,
    line_words: usize,
    /// The LCS bit vector (one bit per reference line in the trimmed
    /// window).
    v: Vec<u64>,
}

impl ScoreScratch {
    /// Fresh, empty scratch. All buffers grow on demand and are then
    /// reused.
    pub fn new() -> ScoreScratch {
        ScoreScratch::default()
    }

    /// Ensures the candidate gram table can hold `windows` distinct
    /// entries at ≤ 1/2 load, preserving nothing.
    fn reserve_grams(&mut self, windows: usize) {
        let cap = (windows.max(4) * 2).next_power_of_two();
        if self.gram_keys.len() < cap {
            self.gram_keys = vec![0; cap];
            self.gram_cand = vec![0; cap];
            self.gram_ref = vec![0; cap];
            self.touched.clear();
        }
    }

    /// Zeroes the occupied candidate-table slots (O(distinct grams)).
    fn clear_grams(&mut self) {
        for &slot in &self.touched {
            self.gram_cand[slot] = 0;
        }
        self.touched.clear();
    }

    /// Ensures match-mask rows exist for `rows` distinct line ids at
    /// `words` words per row, invalidating stale rows when the row
    /// width changes.
    fn reserve_masks(&mut self, rows: usize, words: usize) {
        if self.line_words != words || self.row_gen.len() < rows {
            self.line_words = words;
            self.line_masks = vec![0; rows.max(1) * words];
            self.row_gen = vec![0; rows.max(1)];
            self.generation = 0;
        }
        self.generation += 1;
    }
}

/// Sentence BLEU of a candidate against a precomputed reference, on
/// interned symbols — bit-identical to
/// [`crate::bleu_tokens_ref`]`(reference_tokens, candidate_tokens, smoothing)`.
///
/// `ref_stream` is the reference's own symbol stream (its interner is
/// the shared vocabulary candidates translate into); `ngrams` its
/// precomputed count tables; `cand_stream` the candidate's cached
/// symbol stream.
pub fn bleu_kernel(
    ref_stream: &SymStream,
    ngrams: &RefNgrams,
    cand_stream: &SymStream,
    scratch: &mut ScoreScratch,
    smoothing: Smoothing,
) -> f64 {
    let cand_len = cand_stream.len();
    let ref_len = ngrams.token_len();
    if cand_len == 0 || ref_len == 0 {
        return 0.0;
    }
    // Translate the candidate vocabulary into reference symbol space:
    // one read-only probe per *distinct* candidate token.
    let ref_interner = ref_stream.interner();
    let cand_interner = cand_stream.interner();
    scratch.translate.clear();
    scratch.translate.extend((0..cand_interner.len()).map(|id| {
        let text = cand_interner.resolve(yamlkit::intern::Sym(id as u32));
        ref_interner.lookup(text).map_or(UNSEEN, |sym| sym.0)
    }));
    scratch.cand_stream.clear();
    scratch.cand_stream.extend(
        cand_stream
            .syms()
            .iter()
            .map(|sym| scratch.translate[sym.0 as usize]),
    );

    let effective_n = MAX_N.min(ref_len);
    let mut log_precisions = [0.0f64; MAX_N];
    let mut orders = 0usize;
    for n in 1..=effective_n {
        let total = if cand_len >= n { cand_len - n + 1 } else { 0 };
        if total == 0 {
            // Candidate shorter than n, reference is not.
            match smoothing {
                Smoothing::None => return 0.0,
                Smoothing::Epsilon => {
                    log_precisions[orders] = EPS.ln();
                    orders += 1;
                    continue;
                }
            }
        }
        scratch.reserve_grams(total);
        let table = &ngrams.tables[n - 1];
        let mask = window_mask(n);
        let slot_mask = scratch.gram_keys.len() - 1;
        let mut key: u128 = 0;
        for (i, &sym) in scratch.cand_stream.iter().enumerate() {
            key = ((key << 32) | u128::from(sym)) & mask;
            if i + 1 < n {
                continue;
            }
            // Windows absent from the reference clip to zero; skip them
            // so the candidate table only ever holds matchable grams.
            let ref_count = table.get(key, n);
            if ref_count == 0 {
                continue;
            }
            let mut slot = (gram_hash(key, n) as usize) & slot_mask;
            while scratch.gram_cand[slot] != 0 && scratch.gram_keys[slot] != key {
                slot = (slot + 1) & slot_mask;
            }
            if scratch.gram_cand[slot] == 0 {
                scratch.gram_keys[slot] = key;
                scratch.gram_ref[slot] = ref_count;
                scratch.touched.push(slot);
            }
            scratch.gram_cand[slot] += 1;
        }
        let clipped: usize = scratch
            .touched
            .iter()
            .map(|&slot| scratch.gram_cand[slot].min(scratch.gram_ref[slot]) as usize)
            .sum();
        scratch.clear_grams();
        let p = if clipped == 0 {
            match smoothing {
                Smoothing::None => return 0.0,
                Smoothing::Epsilon => EPS / total as f64,
            }
        } else {
            clipped as f64 / total as f64
        };
        log_precisions[orders] = p.ln();
        orders += 1;
    }
    if orders == 0 {
        return 0.0;
    }
    let mean_log = log_precisions[..orders].iter().sum::<f64>() / orders as f64;
    crate::bleu::brevity_penalty(ref_len, cand_len) * mean_log.exp()
}

/// Line insertions + deletions between the reference (as a precomputed
/// [`RefLineIndex`]) and a candidate line table — the same integer as
/// [`crate::line_edit_distance_lines`] on the corresponding `&str`
/// tables.
///
/// `cand_hashes[i]` must be the FNV-1a hash of `cand_lines[i]` (the
/// cached [`yamlkit::doc::PreparedDoc::line_hashes`] view), so mapping
/// a candidate into reference line space costs one probe per line.
pub fn edit_distance_kernel(
    reference: &RefLineIndex,
    cand_lines: &[&str],
    cand_hashes: &[u64],
    scratch: &mut ScoreScratch,
) -> usize {
    debug_assert_eq!(cand_lines.len(), cand_hashes.len());
    let a = &reference.ids;
    scratch.cand_lines.clear();
    scratch
        .cand_lines
        .extend(cand_lines.iter().zip(cand_hashes).map(|(line, &hash)| {
            reference
                .interner
                .lookup_hashed(hash, line)
                .map_or(UNSEEN, |sym| sym.0)
        }));
    let b = std::mem::take(&mut scratch.cand_lines);
    // Common prefix/suffix lines are LCS members by construction; trim
    // them so the bit-parallel core only sees the differing window.
    let mut lo = 0usize;
    while lo < a.len() && lo < b.len() && a[lo] == b[lo] {
        lo += 1;
    }
    let mut a_hi = a.len();
    let mut b_hi = b.len();
    while a_hi > lo && b_hi > lo && a[a_hi - 1] == b[b_hi - 1] {
        a_hi -= 1;
        b_hi -= 1;
    }
    let lcs =
        lo + (a.len() - a_hi) + lcs_bitparallel(reference, &a[lo..a_hi], &b[lo..b_hi], scratch);
    let distance = (a.len() - lcs) + (b.len() - lcs);
    scratch.cand_lines = b;
    distance
}

/// Bit-parallel LCS length over the trimmed windows: the reference
/// window `a` is the bit dimension (64 lines per word), the candidate
/// window `b` drives the scan with the Hyyrö/Crochemore recurrence
/// `U = V & M[b_j]; V = (V + U) | (V - U)` carried across words.
/// Candidate lines outside the reference vocabulary (or outside the
/// trimmed window) have an all-zero match mask and leave `V` unchanged,
/// exactly like a DP row with no matches.
fn lcs_bitparallel(
    reference: &RefLineIndex,
    a: &[u32],
    b: &[u32],
    scratch: &mut ScoreScratch,
) -> usize {
    let m = a.len();
    if m == 0 || b.is_empty() {
        return 0;
    }
    let words = m.div_ceil(64);
    scratch.reserve_masks(reference.distinct(), words);
    let generation = scratch.generation;
    // Match masks: bit i of row `id` set iff a[i] == id. Rows are
    // cleared lazily on first touch this generation.
    for (i, &id) in a.iter().enumerate() {
        let row = id as usize * words;
        if scratch.row_gen[id as usize] != generation {
            scratch.row_gen[id as usize] = generation;
            scratch.line_masks[row..row + words].fill(0);
        }
        scratch.line_masks[row + i / 64] |= 1u64 << (i % 64);
    }
    scratch.v.clear();
    scratch.v.resize(words, u64::MAX);
    for &id in b {
        let id = id as usize;
        // A candidate line never seen in the reference, or seen only in
        // the trimmed-away prefix/suffix, matches nothing in `a`.
        let row = if id < scratch.row_gen.len() && scratch.row_gen[id] == generation {
            id * words
        } else {
            continue;
        };
        let mut carry = 0u64;
        let mut borrow = 0u64;
        for w in 0..words {
            let v = scratch.v[w];
            let u = v & scratch.line_masks[row + w];
            let (sum, c1) = v.overflowing_add(u);
            let (sum, c2) = sum.overflowing_add(carry);
            carry = u64::from(c1) | u64::from(c2);
            let (diff, b1) = v.overflowing_sub(u);
            let (diff, b2) = diff.overflowing_sub(borrow);
            borrow = u64::from(b1) | u64::from(b2);
            scratch.v[w] = sum | diff;
        }
    }
    // Zero bits among the low m positions are LCS members.
    let mut ones = 0usize;
    for (w, &word) in scratch.v.iter().enumerate() {
        let live = if (w + 1) * 64 <= m {
            word
        } else {
            word & ((1u64 << (m % 64)) - 1)
        };
        ones += live.count_ones() as usize;
    }
    m - ones
}

/// The paper's edit-distance score over the kernel distance — the same
/// arithmetic as [`crate::edit_distance_score_lines`].
pub fn edit_distance_score_kernel(
    reference: &RefLineIndex,
    cand_lines: &[&str],
    cand_hashes: &[u64],
    scratch: &mut ScoreScratch,
) -> f64 {
    let ref_len = reference.line_len();
    if ref_len == 0 {
        return if cand_lines.is_empty() { 1.0 } else { 0.0 };
    }
    let dist = edit_distance_kernel(reference, cand_lines, cand_hashes, scratch);
    (1.0 - dist as f64 / ref_len as f64).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use yamlkit::PreparedDoc;

    fn bleu_both(reference: &str, candidate: &str, smoothing: Smoothing) -> (f64, f64) {
        let r = PreparedDoc::new(reference);
        let c = PreparedDoc::new(candidate);
        let ngrams = RefNgrams::build(r.sym_stream());
        let mut scratch = ScoreScratch::new();
        let kernel = bleu_kernel(
            r.sym_stream(),
            &ngrams,
            c.sym_stream(),
            &mut scratch,
            smoothing,
        );
        let legacy = crate::bleu(reference, candidate, smoothing);
        (kernel, legacy)
    }

    #[test]
    fn bleu_kernel_matches_legacy_on_representative_pairs() {
        for (r, c) in [
            (
                "kind: Service\nmetadata:\n  name: web\n",
                "kind: Service\nmetadata:\n  name: web\n",
            ),
            (
                "kind: Service\nmetadata:\n  name: web\n",
                "kind: Service\nmetadata:\n  name: other\n",
            ),
            ("a b c d e f", "f e d c b a"),
            ("a", "a a a a a"),
            ("a b", ""),
            ("", "a b"),
            ("x", "y"),
            ("a b c", "a b"),
            ("aaa bbb ccc ddd", "eee fff ggg hhh"),
            ("k: v", "k: v\nk2: v2"),
        ] {
            for smoothing in [Smoothing::Epsilon, Smoothing::None] {
                let (kernel, legacy) = bleu_both(r, c, smoothing);
                assert_eq!(
                    kernel.to_bits(),
                    legacy.to_bits(),
                    "bleu diverged on ({r:?}, {c:?}, {smoothing:?}): {kernel} vs {legacy}"
                );
            }
        }
    }

    fn edit_both(reference: &str, candidate: &str) -> (usize, usize) {
        let r = PreparedDoc::new(reference);
        let c = PreparedDoc::new(candidate);
        let index = RefLineIndex::build(&r.lines());
        let mut scratch = ScoreScratch::new();
        let kernel = edit_distance_kernel(&index, &c.lines(), c.line_hashes(), &mut scratch);
        let legacy = crate::line_edit_distance(reference, candidate);
        (kernel, legacy)
    }

    #[test]
    fn edit_kernel_matches_legacy_on_representative_pairs() {
        for (r, c) in [
            ("a\nb\nc", "a\nb\nc"),
            ("a\nb\nc", "a\nX\nc"),
            ("a\nc", "a\nb\nc"),
            ("a\nb\nc", "a\nc"),
            ("a", "x\ny\nz\nw\n"),
            ("", ""),
            ("", "a\n"),
            ("a\nb", "x\ny"),
            ("a\na\na", "a\na"),
            ("x\na\nb\nc\nx", "y\na\nc\nb\ny"),
        ] {
            let (kernel, legacy) = edit_both(r, c);
            assert_eq!(kernel, legacy, "edit distance diverged on ({r:?}, {c:?})");
        }
    }

    #[test]
    fn bitparallel_lcs_crosses_word_boundaries() {
        // 130 reference lines (3 words), candidate = every other line:
        // LCS is the full candidate.
        let ref_lines: Vec<String> = (0..130).map(|i| format!("line-{i}")).collect();
        let cand: Vec<String> = ref_lines.iter().step_by(2).cloned().collect();
        let r = ref_lines.join("\n");
        let c = cand.join("\n");
        let (kernel, legacy) = edit_both(&r, &c);
        assert_eq!(kernel, legacy);
        assert_eq!(kernel, 130 - 65);
    }

    #[test]
    fn scratch_reuse_is_pure() {
        let mut scratch = ScoreScratch::new();
        let pairs = [
            ("a\nb\nc\nd", "a\nX\nc"),
            ("kind: Pod\nname: x", "kind: Pod\nname: y"),
            ("", "z"),
            ("a\nb\nc\nd", "a\nX\nc"),
        ];
        let mut first = Vec::new();
        for (r, c) in pairs {
            let rd = PreparedDoc::new(r);
            let cd = PreparedDoc::new(c);
            let ngrams = RefNgrams::build(rd.sym_stream());
            let index = RefLineIndex::build(&rd.lines());
            first.push((
                bleu_kernel(
                    rd.sym_stream(),
                    &ngrams,
                    cd.sym_stream(),
                    &mut scratch,
                    Smoothing::Epsilon,
                ),
                edit_distance_kernel(&index, &cd.lines(), cd.line_hashes(), &mut scratch),
            ));
        }
        assert_eq!(first[0], first[3], "reused scratch changed a result");
    }
}
