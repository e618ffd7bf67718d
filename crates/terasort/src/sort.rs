//! Local sort kernels for the Reduce stage.
//!
//! Sort time is key comparisons plus *record movement* (the observation
//! behind offset-value coding, arXiv:2209.08420), so both kernels touch the
//! 100-byte records as little as possible: they read each key once into a
//! packed `(key, index)` entry (`u128`: 80 key bits above 48 index bits),
//! order the 16-byte entries, and gather the records **once**, straight
//! from wherever they lie — a partition is handed over as its *pieces*
//! (one buffer per input file) and is never concatenated first.
//!
//! * [`SortKernel::Comparison`] — `sort_unstable` over the entries: the
//!   paper's `std::sort` (§V-A), comparing two machine words per step
//!   instead of dereferencing two records.
//! * [`SortKernel::KeyIndex`] — least-significant-digit radix sort over the
//!   10-byte key in five 16-bit passes over the same entries
//!   (5 × 16 B + 1 × 100 B moved per record).
//!
//! An entry's index counts records in piece order, so the total order is
//! `(key, input position)`: both kernels are **stable** (equal keys keep
//! input order), which makes every kernel — and every [`WorkerPool`] thread
//! count, via chunked sort-then-merge — produce byte-identical output.
//!
//! Entry arrays and the per-pass count/offset tables live in a reusable
//! [`SortScratch`] (built on [`cts_core::pool::Scratch`]), so a warm sort
//! performs exactly one allocation: the returned output buffer.

use cts_core::exec::WorkerPool;
use cts_core::pool::Scratch;

use crate::record::{key_of, key_to_u128, record_count, records, RECORD_LEN};

/// Which sorting algorithm the Reduce stage runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SortKernel {
    /// Comparison sort (the paper's `std::sort`) of packed `(key, index)`
    /// entries, then a single gather of the records.
    #[default]
    Comparison,
    /// Key-index LSD radix sort: five stable counting-sort passes over
    /// 16-bit key digits (least significant first) of the same entries,
    /// then the same gather.
    KeyIndex,
}

impl SortKernel {
    /// All kernels, for ablations and equivalence tests.
    pub const ALL: [SortKernel; 2] = [SortKernel::Comparison, SortKernel::KeyIndex];
}

impl std::fmt::Display for SortKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SortKernel::Comparison => "comparison",
            SortKernel::KeyIndex => "key-index",
        })
    }
}

impl std::str::FromStr for SortKernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "comparison" | "std" => Ok(SortKernel::Comparison),
            "key-index" | "keyindex" => Ok(SortKernel::KeyIndex),
            other => Err(format!(
                "unknown sort kernel `{other}` (expected comparison | key-index)"
            )),
        }
    }
}

/// Digit width of the radix passes (16 bits → five passes over 80-bit
/// keys).
const RADIX_BITS: usize = 16;
/// Radix table size.
const RADIX: usize = 1 << RADIX_BITS;
/// Number of radix passes over a 10-byte key.
const RADIX_PASSES: usize = 5;

/// Reusable buffers for the sort kernels (grow-only; see
/// [`cts_core::pool::Scratch`]): the entry arrays and the radix passes'
/// count/offset tables.
#[derive(Debug, Default)]
pub struct SortScratch {
    counts: Scratch<u32>,
    offsets: Scratch<u32>,
    entries: Scratch<u128>,
    entries_tmp: Scratch<u128>,
}

impl SortScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Width of the index field under the key in a packed entry: the piece
/// number above the record number within the piece.
const INDEX_BITS: usize = 48;

/// Sorts a packed record buffer by key, returning the sorted buffer.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of the record size.
pub fn sort_records(data: &[u8], kernel: SortKernel) -> Vec<u8> {
    sort_records_with(data, kernel, &mut SortScratch::new())
}

/// Like [`sort_records`], but reusing `scratch` across calls — a warm
/// scratch makes every kernel's only allocation the returned buffer.
///
/// # Panics
/// As [`sort_pieces`].
pub fn sort_records_with(data: &[u8], kernel: SortKernel, scratch: &mut SortScratch) -> Vec<u8> {
    sort_pieces_with(&[data], kernel, scratch)
}

/// Sorts the concatenation of `pieces` by key without building it: entries
/// are packed from, and records gathered from, the pieces where they lie.
fn sort_pieces_with(pieces: &[&[u8]], kernel: SortKernel, scratch: &mut SortScratch) -> Vec<u8> {
    let counts = pieces.iter().map(|piece| record_count(piece));
    let (n, longest) = counts.fold((0, 0), |(n, longest), c| (n + c, longest.max(c)));
    // Index = piece number above the record number: ascending in input
    // position, and split back with a shift and a mask at gather time.
    let rec_bits = bits_for(longest);
    assert!(
        bits_for(pieces.len()) + rec_bits <= INDEX_BITS as u32,
        "entry packing supports pieces x records-per-piece < 2^{INDEX_BITS}"
    );
    let mut entries = scratch.entries.take();
    entries.clear();
    entries.reserve(n);
    for (p, piece) in pieces.iter().enumerate() {
        let base = (p as u128) << rec_bits;
        for (i, rec) in records(piece).enumerate() {
            entries.push((key_to_u128(key_of(rec)) << INDEX_BITS) | base | i as u128);
        }
    }
    match kernel {
        // Unstable sort — the paper's `std::sort` — made stable by the index
        // every entry carries below its key, at unstable-sort speed and
        // without the stable sort's n/2 temp allocation.
        SortKernel::Comparison => entries.sort_unstable(),
        SortKernel::KeyIndex => radix_sort_by_key(&mut entries, scratch),
    }
    // Gather the records once, in final order.
    let rec_mask = (1u64 << rec_bits) - 1;
    let mut out = Vec::with_capacity(n * RECORD_LEN);
    for &e in &entries {
        let index = e as u64 & ((1 << INDEX_BITS) - 1);
        let at = (index & rec_mask) as usize * RECORD_LEN;
        out.extend_from_slice(&pieces[(index >> rec_bits) as usize][at..at + RECORD_LEN]);
    }
    scratch.entries.restore(entries);
    out
}

/// Bits needed to number `n` items (`0..n`).
fn bits_for(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// Orders `entries` by their key bits in five stable counting-sort passes,
/// least significant digit first; stability keeps equal-key entries in
/// input (index) order.
fn radix_sort_by_key(entries: &mut Vec<u128>, scratch: &mut SortScratch) {
    let n = entries.len();
    if n <= 1 {
        return;
    }
    assert!(n <= u32::MAX as usize, "radix tables count < 2^32 records");
    let mut dst = scratch.entries_tmp.take();
    dst.clear();
    dst.resize(n, 0);
    for pass in 0..RADIX_PASSES {
        let shift = INDEX_BITS + RADIX_BITS * pass;
        let counts = scratch.counts.zeroed(RADIX);
        for &e in entries.iter() {
            counts[(e >> shift) as usize & (RADIX - 1)] += 1;
        }
        if counts[(entries[0] >> shift) as usize & (RADIX - 1)] as usize == n {
            continue;
        }
        let offsets = scratch.offsets.zeroed(RADIX);
        let mut acc = 0u32;
        for (o, c) in offsets.iter_mut().zip(counts.iter()) {
            *o = acc;
            acc += c;
        }
        for &e in entries.iter() {
            let d = (e >> shift) as usize & (RADIX - 1);
            dst[offsets[d] as usize] = e;
            offsets[d] += 1;
        }
        std::mem::swap(entries, &mut dst);
    }
    scratch.entries_tmp.restore(dst);
}

/// Sorts the concatenation of `pieces` by key with up to `pool.threads()`
/// workers: the records split into contiguous chunks (of the concatenation,
/// so a chunk may span pieces), each chunk is sorted independently (one
/// warm [`SortScratch`] per worker), and the sorted runs are merged stably
/// (ties broken by chunk order = input order).
///
/// Because every kernel is stable, the output is byte-identical for *any*
/// thread count and equal to the serial [`sort_records`] of the
/// concatenated buffer.
///
/// # Panics
/// Panics if a piece's length is not a multiple of the record size, or if
/// piece count × longest piece overflows the 48-bit entry index.
pub fn sort_pieces(pieces: &[&[u8]], kernel: SortKernel, pool: &WorkerPool) -> Vec<u8> {
    let total: usize = pieces.iter().map(|piece| piece.len()).sum();
    let ranges = pool.chunk_ranges(total / RECORD_LEN, PAR_MIN_RECORDS_PER_CHUNK);
    if ranges.len() <= 1 {
        return sort_pieces_with(pieces, kernel, &mut SortScratch::new());
    }
    let runs: Vec<Vec<u8>> = pool.map_with(ranges.len(), SortScratch::new, |scratch, c| {
        let r = &ranges[c];
        let chunk = byte_range_of(pieces, r.start * RECORD_LEN..r.end * RECORD_LEN);
        sort_pieces_with(&chunk, kernel, scratch)
    });
    merge_sorted_runs(&runs, total)
}

/// The sub-slices of `pieces` that make up `range` of their concatenation.
fn byte_range_of<'a>(pieces: &[&'a [u8]], range: std::ops::Range<usize>) -> Vec<&'a [u8]> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    for piece in pieces {
        let start = range.start.max(offset) - offset;
        let end = range.end.min(offset + piece.len()).saturating_sub(offset);
        if start < end {
            out.push(&piece[start..end]);
        }
        offset += piece.len();
    }
    out
}

/// Minimum records per parallel chunk (~400 KiB of records): below this,
/// chunking/merge overhead beats the parallelism. Shared by the parallel
/// sort and `TeraSortWorkload`'s parallel Map hash so both stages chunk
/// identically.
pub(crate) const PAR_MIN_RECORDS_PER_CHUNK: usize = 1 << 12;

/// Stable T-way merge of sorted record runs (tie → lowest run index).
fn merge_sorted_runs(runs: &[Vec<u8>], total_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(total_len);
    let mut pos = vec![0usize; runs.len()];
    // Cached head keys; `None` = run exhausted.
    let mut heads: Vec<Option<u128>> = runs
        .iter()
        .map(|r| (!r.is_empty()).then(|| key_to_u128(key_of(&r[..RECORD_LEN]))))
        .collect();
    loop {
        let mut best: Option<(usize, u128)> = None;
        for (i, head) in heads.iter().enumerate() {
            if let Some(k) = head {
                // Strictly-less keeps ties on the lowest run index: stable.
                if best.is_none_or(|(_, bk)| *k < bk) {
                    best = Some((i, *k));
                }
            }
        }
        let Some((i, _)) = best else { break };
        let at = pos[i];
        out.extend_from_slice(&runs[i][at..at + RECORD_LEN]);
        pos[i] = at + RECORD_LEN;
        heads[i] = (pos[i] < runs[i].len())
            .then(|| key_to_u128(key_of(&runs[i][pos[i]..pos[i] + RECORD_LEN])));
    }
    debug_assert_eq!(out.len(), total_len);
    out
}

/// True if the buffer's records are in non-decreasing key order.
pub fn is_sorted(data: &[u8]) -> bool {
    let mut prev: Option<&[u8]> = None;
    for rec in records(data) {
        let k = key_of(rec);
        if let Some(p) = prev {
            if p > k {
                return false;
            }
        }
        prev = Some(k);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::checksum;
    use crate::teragen::generate;

    #[test]
    fn all_kernels_sort() {
        let data = generate(500, 99);
        for kernel in SortKernel::ALL {
            let sorted = sort_records(&data, kernel);
            assert!(is_sorted(&sorted), "{kernel:?}");
            assert_eq!(sorted.len(), data.len());
            assert_eq!(checksum(&sorted), checksum(&data), "{kernel:?}");
        }
    }

    #[test]
    fn kernels_agree_exactly() {
        let data = generate(1000, 123);
        let reference = sort_records(&data, SortKernel::Comparison);
        assert_eq!(reference, sort_records(&data, SortKernel::KeyIndex));
    }

    /// Input with heavy key duplication, distinguishable values.
    fn duplicate_key_data(n: usize, distinct_keys: usize) -> Vec<u8> {
        let mut data = vec![0u8; n * RECORD_LEN];
        for i in 0..n {
            let rec = &mut data[i * RECORD_LEN..(i + 1) * RECORD_LEN];
            rec[9] = (i % distinct_keys) as u8; // key
            rec[10..14].copy_from_slice(&(i as u32).to_le_bytes()); // value
        }
        data
    }

    #[test]
    fn kernels_agree_on_duplicate_keys() {
        // All kernels are stable, so even massive key duplication yields
        // byte-identical outputs.
        let data = duplicate_key_data(997, 5);
        let reference = sort_records(&data, SortKernel::Comparison);
        assert!(is_sorted(&reference));
        assert_eq!(reference, sort_records(&data, SortKernel::KeyIndex));
    }

    #[test]
    fn kernels_are_stable_for_equal_keys() {
        // Two records with identical keys, distinguishable values.
        let mut data = vec![0u8; 2 * RECORD_LEN];
        data[10] = b'a'; // first record's value
        data[RECORD_LEN + 10] = b'b';
        for kernel in SortKernel::ALL {
            let sorted = sort_records(&data, kernel);
            assert_eq!(sorted[10], b'a', "{kernel:?}");
            assert_eq!(sorted[RECORD_LEN + 10], b'b', "{kernel:?}");
        }
    }

    #[test]
    fn empty_and_single() {
        for kernel in SortKernel::ALL {
            assert!(sort_records(&[], kernel).is_empty());
            let one = generate(1, 5);
            assert_eq!(sort_records(&one, kernel), one.to_vec());
        }
    }

    #[test]
    fn already_sorted_is_fixed_point() {
        let data = generate(200, 44);
        let once = sort_records(&data, SortKernel::Comparison);
        assert_eq!(once, sort_records(&once, SortKernel::KeyIndex));
    }

    #[test]
    fn warm_scratch_matches_cold() {
        let mut scratch = SortScratch::new();
        for seed in [7u64, 8, 9] {
            let data = generate(700, seed);
            for kernel in SortKernel::ALL {
                assert_eq!(
                    sort_records_with(&data, kernel, &mut scratch),
                    sort_records(&data, kernel),
                    "{kernel:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_for_all_kernels_and_threads() {
        // Enough records that the parallel path actually chunks (the
        // min-chunk guard is 4 096 records).
        let data = generate(10_000, 321).to_vec();
        let dup = duplicate_key_data(9_000, 3);
        for input in [&data, &dup] {
            let reference = sort_records(input, SortKernel::Comparison);
            for kernel in SortKernel::ALL {
                for threads in [1usize, 2, 4] {
                    let pool = WorkerPool::new(threads);
                    assert_eq!(
                        sort_pieces(&[input], kernel, &pool),
                        reference,
                        "{kernel:?} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn pieces_sort_like_their_concatenation() {
        // Duplicate-heavy keys: only the (key, input position) order makes
        // the split invisible. Cuts at record boundaries, with empty pieces
        // at the front, in the middle and at the end.
        let data = duplicate_key_data(9_000, 3);
        for cuts in [1usize, 2, 56] {
            let mut pieces: Vec<&[u8]> = vec![&[]];
            let mut at = 0usize;
            for c in 1..=cuts {
                let end = record_count(&data) * c / cuts * RECORD_LEN;
                pieces.push(&data[at..end]);
                if c % 5 == 0 {
                    pieces.push(&[]);
                }
                at = end;
            }
            pieces.push(&[]);
            for kernel in SortKernel::ALL {
                let reference = sort_records(&data, kernel);
                for threads in [1usize, 2, 4] {
                    assert_eq!(
                        sort_pieces(&pieces, kernel, &WorkerPool::new(threads)),
                        reference,
                        "{kernel:?} {cuts} pieces threads {threads}"
                    );
                }
            }
        }
        assert!(sort_pieces(&[], SortKernel::Comparison, &WorkerPool::serial()).is_empty());
    }

    #[test]
    fn sort_kernel_parses_and_displays() {
        for kernel in SortKernel::ALL {
            assert_eq!(kernel.to_string().parse::<SortKernel>(), Ok(kernel));
        }
        assert_eq!("keyindex".parse::<SortKernel>(), Ok(SortKernel::KeyIndex));
        assert!("bogosort".parse::<SortKernel>().is_err());
    }

    #[test]
    fn is_sorted_detects_disorder() {
        let data = generate(50, 7);
        let sorted = sort_records(&data, SortKernel::Comparison);
        assert!(is_sorted(&sorted));
        // Swap two records to break order (keys random → near-surely
        // different).
        let mut broken = sorted.clone();
        let (a, b) = (0, RECORD_LEN * 25);
        for i in 0..RECORD_LEN {
            broken.swap(a + i, b + i);
        }
        assert!(!is_sorted(&broken));
    }
}
