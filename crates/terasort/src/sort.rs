//! Local sort kernels for the Reduce stage, and the reducer that runs them.
//!
//! Sort time is key comparisons plus *record movement* (the observation
//! behind offset-value coding, arXiv:2209.08420), and on 100-byte records the
//! movement is most of it. A partition is therefore partitioned a second
//! time, as it arrives: the partition's reducer range-scatters each piece into
//! ~128–512-record key sub-ranges (*buckets*) the moment the Shuffle
//! completes it — a copy of the piece, bucket by bucket, in a buffer leased
//! from [`cts_core::pool`] while the piece itself goes back to it. What is
//! left once the last piece is in is one pass over the buckets in key order,
//! each small enough to stay in cache: read each key once into a packed
//! `(key, index)` entry (`u128`: 80 key bits above 48 index bits), order the
//! 16-byte entries, and copy the records **once** into the output.
//!
//! * [`SortKernel::Comparison`] — `sort_unstable` over a bucket's entries:
//!   the paper's `std::sort` (§V-A), comparing two machine words per step
//!   instead of dereferencing two records.
//! * [`SortKernel::KeyIndex`] — least-significant-digit radix sort over the
//!   10-byte key of the same entries: five 16-bit passes over a large bucket,
//!   ten 8-bit ones over a small one (whose count tables then stay small too).
//!
//! An entry's index counts a bucket's records in file order, then position,
//! so the total order is `(key, file order, position)` whichever order the
//! pieces arrived in: both kernels are **stable** (equal keys keep input
//! order), which makes every kernel — and every [`WorkerPool`] thread count,
//! workers taking disjoint bucket ranges — produce byte-identical output.
//!
//! Entry arrays and the per-pass count/offset tables live in a reusable
//! [`SortScratch`] (built on [`cts_core::pool::Scratch`]) sized to the largest
//! bucket, so the output buffer is a warm sort's only allocation of any size.

use std::ops::Range;

use bytes::Bytes;
use cts_core::exec::WorkerPool;
use cts_core::pool::{self, Scratch};
use cts_mapreduce::workload::Reducer;

use crate::record::{key_of, key_to_u128, record_count, records, KEY_LEN, RECORD_LEN};

/// Which sorting algorithm orders a bucket of the Reduce stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SortKernel {
    /// Comparison sort (the paper's `std::sort`) of packed `(key, index)`
    /// entries, then a single copy of the records.
    #[default]
    Comparison,
    /// Key-index LSD radix sort: stable counting-sort passes over the key's
    /// digits (least significant first) of the same entries, then the same
    /// copy.
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

/// Width of the index field under the key in a packed entry: the number of
/// the run (one per piece) above the record number within the run.
const INDEX_BITS: usize = 48;
/// Width of the key above it.
const KEY_BITS: usize = 8 * KEY_LEN;

/// The smallest bucket the reducer aims for, in records; the largest is four
/// times that (a bucket is a power-of-two slice of the partition's key
/// range). Measured on a 62 500-record partition in 56 pieces, 60 interleaved
/// repetitions: the last pass costs the same from 2 000 records a bucket down
/// to 250, 9 % more at 120 and 16 % more at 60.
const BUCKET_RECORDS: usize = 128;
/// A piece is not cut into runs of fewer records than this on average: every
/// run is a slice to find and a loop to start when its bucket is sorted (the
/// 9 % above is runs of two records).
const MIN_RUN_RECORDS: usize = 4;
/// Most buckets a partition is cut into (a bucket number is a `u16`).
const MAX_BUCKETS: usize = 1 << 10;

/// Sorts a packed record buffer by key, returning the sorted buffer.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of the record size.
pub fn sort_records(data: &[u8], kernel: SortKernel) -> Vec<u8> {
    sort_records_with(data, kernel, &mut SortScratch::new())
}

/// Like [`sort_records`], but reusing `scratch` across calls.
///
/// # Panics
/// As [`sort_pieces`].
pub fn sort_records_with(data: &[u8], kernel: SortKernel, scratch: &mut SortScratch) -> Vec<u8> {
    let mut reducer = SortReducer::new(kernel, 0..1 << KEY_BITS, 1, record_count(data));
    std::mem::swap(&mut reducer.scratch, scratch);
    reducer.scatter(0, data);
    let sorted = reducer.sorted(&WorkerPool::serial());
    std::mem::swap(&mut reducer.scratch, scratch);
    sorted
}

/// Sorts the concatenation of `pieces` by key without building it, with up to
/// `pool.threads()` workers: what the engine's Reduce does with a partition,
/// every piece absorbed before the first bucket is sorted.
///
/// Because every kernel is stable, the output is byte-identical for *any*
/// thread count and equal to the serial [`sort_records`] of the
/// concatenated buffer.
///
/// # Panics
/// Panics if a piece's length is not a multiple of the record size.
pub fn sort_pieces(pieces: &[&[u8]], kernel: SortKernel, pool: &WorkerPool) -> Vec<u8> {
    let total: usize = pieces.iter().map(|piece| record_count(piece)).sum();
    let mut reducer = SortReducer::new(kernel, 0..1 << KEY_BITS, pieces.len(), total);
    for (file_rank, piece) in pieces.iter().enumerate() {
        reducer.scatter(file_rank as u64, piece);
    }
    reducer.sorted(pool)
}

/// One partition on its way to being sorted: every piece absorbed so far,
/// range-scattered into the same key sub-ranges, and the kernel's scratch.
pub(crate) struct SortReducer {
    kernel: SortKernel,
    /// A record's bucket is `(key − first) >> shift`, held to `0..buckets`:
    /// ascending in the key, whatever the key.
    first: u128,
    shift: u32,
    buckets: usize,
    pieces: Vec<Scattered>,
    /// Of the piece being scattered: each record's bucket, then the record
    /// numbers in bucket order.
    ids: Vec<u16>,
    order: Vec<u32>,
    /// Sized to the largest bucket, not the partition.
    scratch: SortScratch,
}

/// One absorbed piece: its records bucket by bucket, in their order within
/// the piece.
struct Scattered {
    file_rank: u64,
    records: Bytes,
    /// `ends[b]`: the record number one past bucket `b`'s run.
    ends: Vec<u32>,
}

impl Scattered {
    /// The piece's records of bucket `b`.
    fn run(&self, b: usize) -> &[u8] {
        let start = b.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.records[start as usize * RECORD_LEN..self.ends[b] as usize * RECORD_LEN]
    }
}

impl SortReducer {
    /// A reducer for a partition holding the keys of `keys`, expected to come
    /// in `pieces` pieces of `expected_records` records in all. The bucket
    /// count follows from the three; a partition that turns out skewed has
    /// some buckets larger than planned, which sort as any other.
    pub(crate) fn new(
        kernel: SortKernel,
        keys: Range<u128>,
        pieces: usize,
        expected_records: usize,
    ) -> Self {
        let runs = expected_records / pieces.max(1) / MIN_RUN_RECORDS;
        let want = (expected_records / BUCKET_RECORDS).min(runs);
        let want = want.clamp(1, MAX_BUCKETS);
        // The narrowest power-of-two sub-range that cuts the span into at most
        // `want` buckets — more than half of `want` when it is a power of two.
        let last = keys.end.saturating_sub(keys.start).saturating_sub(1);
        let shift = (u128::BITS - last.leading_zeros()).saturating_sub(want.ilog2());
        SortReducer {
            kernel,
            first: keys.start,
            shift,
            buckets: (last >> shift) as usize + 1,
            pieces: Vec::with_capacity(pieces),
            ids: Vec::new(),
            order: Vec::new(),
            scratch: SortScratch::new(),
        }
    }

    /// Takes a copy of `piece`, its records grouped by bucket: a stable
    /// counting sort of the record numbers, then one sequential write into a
    /// buffer leased at the piece's own size — the buffer the piece before it
    /// gave back, as often as not.
    ///
    /// # Panics
    /// Panics if `piece` is not whole records.
    fn scatter(&mut self, file_rank: u64, piece: &[u8]) {
        let top = self.buckets as u128 - 1;
        let mut ends = vec![0u32; self.buckets];
        self.ids.clear();
        for rec in records(piece) {
            let key = key_to_u128(key_of(rec));
            let b = (key.saturating_sub(self.first) >> self.shift).min(top) as usize;
            ends[b] += 1;
            self.ids.push(b as u16);
        }
        assert!(
            self.ids.len() <= u32::MAX as usize,
            "run bounds count < 2^32 records a piece"
        );
        // Counts to starts; the pass below advances each start to its end.
        let mut start = 0;
        for end in &mut ends {
            start += std::mem::replace(end, start);
        }
        self.order.clear();
        self.order.resize(self.ids.len(), 0);
        for (i, &b) in self.ids.iter().enumerate() {
            self.order[ends[b as usize] as usize] = i as u32;
            ends[b as usize] += 1;
        }
        let mut records = pool::global().get(piece.len());
        for &i in &self.order {
            let at = i as usize * RECORD_LEN;
            records.extend_from_slice(&piece[at..at + RECORD_LEN]);
        }
        self.pieces.push(Scattered {
            file_rank,
            records: pool::global().freeze(records),
            ends,
        });
    }

    /// The partition, sorted: the buckets in key order, each the runs of
    /// every piece in file order. With more than one worker the buckets split
    /// into contiguous ranges of about equal record counts, sorted apart and
    /// joined; a range is never less than [`PAR_MIN_RECORDS_PER_CHUNK`].
    fn sorted(&mut self, pool: &WorkerPool) -> Vec<u8> {
        self.pieces.sort_unstable_by_key(|piece| piece.file_rank);
        let pieces = &self.pieces;
        let size = |b| pieces.iter().map(|piece| piece.run(b).len()).sum::<usize>();
        let sizes: Vec<usize> = (0..self.buckets).map(size).collect();
        let total: usize = sizes.iter().sum();
        // Each worker's buckets and their bytes: buckets are taken until the
        // records seen reach the end of the worker's even share.
        let mut ranges: Vec<(Range<usize>, usize)> = Vec::new();
        let (mut b, mut seen) = (0, 0);
        for share in pool.chunk_ranges(total / RECORD_LEN, PAR_MIN_RECORDS_PER_CHUNK) {
            let (from, before) = (b, seen);
            while b < self.buckets && seen < share.end * RECORD_LEN {
                seen += sizes[b];
                b += 1;
            }
            ranges.push((from..b, seen - before));
        }
        let kernel = self.kernel;
        let sort = |scratch: &mut SortScratch, (buckets, bytes): &(Range<usize>, usize)| {
            let mut out = Vec::with_capacity(*bytes);
            let mut runs: Vec<&[u8]> = Vec::with_capacity(pieces.len());
            for b in buckets.clone() {
                runs.clear();
                runs.extend(pieces.iter().map(|piece| piece.run(b)));
                sort_runs_into(&runs, kernel, scratch, &mut out);
            }
            out
        };
        match &ranges[..] {
            [all] => sort(&mut self.scratch, all),
            _ => pool
                .map_with(ranges.len(), SortScratch::new, |s, i| sort(s, &ranges[i]))
                .concat(),
        }
    }
}

impl Reducer for SortReducer {
    fn absorb(&mut self, file_rank: u64, piece: Bytes) {
        if self.buckets == 1 {
            // The one bucket is the piece as it lies: kept, not copied.
            let records = u32::try_from(record_count(&piece));
            let ends = vec![records.expect("run bounds count < 2^32 records a piece")];
            self.pieces.push(Scattered {
                file_rank,
                records: piece,
                ends,
            });
        } else {
            // The piece itself goes back to the pool here.
            self.scatter(file_rank, &piece);
        }
    }

    fn finish(mut self: Box<Self>, pool: &WorkerPool) -> Vec<u8> {
        self.sorted(pool)
    }
}

/// Appends the concatenation of `runs`, sorted by key, to `out` without
/// building it: entries are packed from, and records copied from, the runs
/// where they lie.
fn sort_runs_into(
    runs: &[&[u8]],
    kernel: SortKernel,
    scratch: &mut SortScratch,
    out: &mut Vec<u8>,
) {
    let counts = runs.iter().map(|run| record_count(run));
    let (n, longest) = counts.fold((0, 0), |(n, longest), c| (n + c, longest.max(c)));
    // Index = run number above the record number: ascending in input
    // position, and split back with a shift and a mask at copy time.
    let rec_bits = bits_for(longest);
    assert!(
        bits_for(runs.len()) + rec_bits <= INDEX_BITS as u32,
        "entry packing supports runs x records-per-run < 2^{INDEX_BITS}"
    );
    let mut entries = scratch.entries.take();
    entries.clear();
    entries.reserve(n);
    for (p, run) in runs.iter().enumerate() {
        let base = (p as u128) << rec_bits;
        for (i, rec) in records(run).enumerate() {
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
    // Copy the records once, in final order.
    let rec_mask = (1u64 << rec_bits) - 1;
    for &e in &entries {
        let index = e as u64 & ((1 << INDEX_BITS) - 1);
        let at = (index & rec_mask) as usize * RECORD_LEN;
        out.extend_from_slice(&runs[(index >> rec_bits) as usize][at..at + RECORD_LEN]);
    }
    scratch.entries.restore(entries);
}

/// Bits needed to number `n` items (`0..n`).
fn bits_for(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// Orders `entries` by their key bits in stable counting-sort passes, least
/// significant digit first; stability keeps equal-key entries in input
/// (index) order. Every pass zeroes and sums a table of one count per digit
/// value, so the digit is 16 bits wide (five passes) only from 2^15 entries
/// on, where halving the passes saves what 65 536-slot tables cost, and 8
/// bits (ten passes) below (256 entries: 7 µs against 151 µs).
fn radix_sort_by_key(entries: &mut Vec<u128>, scratch: &mut SortScratch) {
    let n = entries.len();
    if n <= 1 {
        return;
    }
    assert!(n <= u32::MAX as usize, "radix tables count < 2^32 records");
    let digit_bits = if n < 1 << 15 { 8 } else { 16 };
    let radix = 1usize << digit_bits;
    let mut dst = scratch.entries_tmp.take();
    dst.clear();
    dst.resize(n, 0);
    for pass in 0..KEY_BITS / digit_bits {
        let shift = INDEX_BITS + digit_bits * pass;
        let counts = scratch.counts.zeroed(radix);
        for &e in entries.iter() {
            counts[(e >> shift) as usize & (radix - 1)] += 1;
        }
        if counts[(entries[0] >> shift) as usize & (radix - 1)] as usize == n {
            continue;
        }
        let offsets = scratch.offsets.zeroed(radix);
        let mut acc = 0u32;
        for (o, c) in offsets.iter_mut().zip(counts.iter()) {
            *o = acc;
            acc += c;
        }
        for &e in entries.iter() {
            let d = (e >> shift) as usize & (radix - 1);
            dst[offsets[d] as usize] = e;
            offsets[d] += 1;
        }
        std::mem::swap(entries, &mut dst);
    }
    scratch.entries_tmp.restore(dst);
}

/// Minimum records per parallel chunk (~400 KiB of records): below this,
/// chunking overhead beats the parallelism. Shared by the parallel sort and
/// `TeraSortWorkload`'s parallel Map hash so both stages chunk identically.
pub(crate) const PAR_MIN_RECORDS_PER_CHUNK: usize = 1 << 12;

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
