//! Exact problem recognition: which (problem, variant) description a
//! prompt contains, found in one pass over the prompt.
//!
//! Every non-empty description is at least `m` bytes long, where `m` is
//! the length of the shortest one, so any description contained in a
//! prompt starts with an `m`-byte window of it. [`AnchorIndex`] keys every
//! description by a hash of its first `m` bytes (its *anchor*); one
//! rolling-hash pass over the prompt looks each window up and confirms a
//! hit with `starts_with` at that position. Every contained description is
//! therefore found, and nothing else is reported, whatever the hash
//! collisions: the result equals a `str::contains` scan of every
//! description, which `recognize_by_scan` keeps as the test oracle.

use cedataset::{Problem, Variant};

/// Multiplier of the polynomial rolling hash (odd, so multiplication is
/// a bijection mod 2⁶⁴).
const BASE: u64 = 0x0100_0000_01b3;

/// The `Example question:` header each few-shot exemplar adds.
const SHOT_HEADER: &str = "Example question:";

/// Shot count of a prompt: its exemplar headers, capped at the three the
/// benchmark uses.
fn shot_count(prompt: &str) -> usize {
    prompt.matches(SHOT_HEADER).count().min(3)
}

/// Position of a (problem, variant) description in (problem index,
/// [`Variant::ALL`]) order: the recognition tie-break order.
fn key(problem: usize, variant: Variant) -> u32 {
    u32::try_from(problem * Variant::ALL.len() + variant as usize)
        .expect("problem count fits the anchor key")
}

fn unkey(key: u32) -> (usize, Variant) {
    let key = key as usize;
    let n = Variant::ALL.len();
    (key / n, Variant::ALL[key % n])
}

/// Hash of one window; [`AnchorIndex::recognize`] rolls it forward.
fn window_hash(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0u64, |h, &b| {
        h.wrapping_mul(BASE).wrapping_add(u64::from(b))
    })
}

/// The anchor index of one problem list: two flat arrays, no allocation
/// per bucket.
///
/// Anchors are bucketed by the top bits of their mixed hash and sorted by
/// bucket, so the anchors of bucket `b` are
/// `anchors[starts[b]..starts[b + 1]]`. With at least twice as many
/// buckets as anchors, a prompt window costs one bucket read and, on a
/// hit, one `starts_with` of the candidate.
pub(crate) struct AnchorIndex {
    /// `m`: the shortest non-empty description, in bytes (0 when every
    /// description is empty, and then nothing is recognized).
    anchor_len: usize,
    /// `BASE^(m-1)`: the weight of the byte leaving the window.
    lead: u64,
    /// Right shift from a mixed hash to its bucket.
    shift: u32,
    /// Bucket boundaries into `anchors`.
    starts: Vec<u32>,
    /// (anchor hash, [`key`]) of every non-empty description, by bucket.
    anchors: Vec<(u64, u32)>,
}

impl AnchorIndex {
    /// Indexes every non-empty description of `problems`.
    pub(crate) fn new(problems: &[Problem]) -> AnchorIndex {
        let descriptions = || {
            problems.iter().enumerate().flat_map(|(idx, p)| {
                Variant::ALL
                    .into_iter()
                    .map(move |v| (idx, v, p.description_for(v)))
                    .filter(|(_, _, d)| !d.is_empty())
            })
        };
        let anchor_len = descriptions().map(|(_, _, d)| d.len()).min().unwrap_or(0);
        let mut anchors: Vec<(u64, u32)> = descriptions()
            .map(|(idx, v, d)| (window_hash(&d.as_bytes()[..anchor_len]), key(idx, v)))
            .collect();
        let bits = (anchors.len() * 2).next_power_of_two().trailing_zeros();
        let shift = 64 - bits;
        anchors.sort_unstable_by_key(|&(hash, key)| (bucket(hash, shift), hash, key));
        let mut starts = vec![0u32; (1 << bits) + 1];
        for &(hash, _) in &anchors {
            starts[bucket(hash, shift) + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let lead = (1..anchor_len).fold(1u64, |w, _| w.wrapping_mul(BASE));
        AnchorIndex {
            anchor_len,
            lead,
            shift,
            starts,
            anchors,
        }
    }

    /// Recognizes (problem index, variant, shots) in a prompt.
    ///
    /// The problem and variant are those of the longest description the
    /// prompt contains; among equally long ones, the first in (problem
    /// index, [`Variant::ALL`]) order. `problems` must be the list the
    /// index was built from. Costs one pass over the prompt plus one
    /// `starts_with` per anchor hit, whatever the number of problems.
    pub(crate) fn recognize(
        &self,
        problems: &[Problem],
        prompt: &str,
    ) -> Option<(usize, Variant, usize)> {
        let bytes = prompt.as_bytes();
        let m = self.anchor_len;
        if m == 0 || bytes.len() < m {
            return None;
        }
        // The winner so far, as (length, key): longer wins, then lower key.
        let mut best: Option<(usize, u32)> = None;
        let mut hash = window_hash(&bytes[..m]);
        for start in 0..=bytes.len() - m {
            if start > 0 {
                hash = hash
                    .wrapping_sub(u64::from(bytes[start - 1]).wrapping_mul(self.lead))
                    .wrapping_mul(BASE)
                    .wrapping_add(u64::from(bytes[start + m - 1]));
            }
            let b = bucket(hash, self.shift);
            let candidates = &self.anchors[self.starts[b] as usize..self.starts[b + 1] as usize];
            for &(anchor_hash, key) in candidates {
                if anchor_hash != hash {
                    continue;
                }
                let (idx, variant) = unkey(key);
                let d = problems[idx].description_for(variant);
                let wins = best.is_none_or(|(len, k)| d.len() > len || (d.len() == len && key < k));
                if wins && bytes[start..].starts_with(d.as_bytes()) {
                    best = Some((d.len(), key));
                }
            }
        }
        best.map(|(_, key)| {
            let (idx, variant) = unkey(key);
            (idx, variant, shot_count(prompt))
        })
    }
}

/// Bucket of a hash: Fibonacci mixing, then the top bits.
fn bucket(hash: u64, shift: u32) -> usize {
    (hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> shift) as usize
}

/// The linear scan the index replaces: `str::contains` for every
/// description, longest wins, ties to the first in scan order.
#[cfg(test)]
pub(crate) fn recognize_by_scan(
    problems: &[Problem],
    prompt: &str,
) -> Option<(usize, Variant, usize)> {
    let mut best: Option<(usize, Variant, usize)> = None;
    for (idx, p) in problems.iter().enumerate() {
        for variant in Variant::ALL {
            let d = p.description_for(variant);
            if !d.is_empty() && prompt.contains(d) {
                let len = d.len();
                if best.map(|(_, _, l)| len > l).unwrap_or(true) {
                    best = Some((idx, variant, len));
                }
            }
        }
    }
    best.map(|(idx, variant, _)| (idx, variant, shot_count(prompt)))
}
