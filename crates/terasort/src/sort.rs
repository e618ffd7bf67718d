//! Local sort kernels for the Reduce stage, and the reducer that runs them.
//!
//! Sort time is key comparisons plus *record movement* (the observation
//! behind offset-value coding, arXiv:2209.08420), and on 100-byte records the
//! movement is most of it. The last pass over a partition reads each key once
//! into an 8-byte entry, orders the entries, and copies the records **once**
//! into the output; it is fast while what it reads stays in cache. Where the
//! partition is put for that pass depends on its size, so its reducer picks
//! one of two regimes from the partition's expected bytes when it is made:
//!
//! - **In cache** — up to `IN_CACHE_BYTES`, one core's L2: each piece is
//!   kept where the Shuffle landed it, and the last pass runs over the whole
//!   partition as one *bucket*. It fits in L2 already, so a copy to make it
//!   fit would be pure cost: a record moves once.
//! - **Scattered** — a larger partition is partitioned a second time, as it
//!   arrives: the reducer range-scatters each piece into ~128–512-record key
//!   sub-ranges (buckets) the moment the Shuffle completes it — a copy of the
//!   piece, bucket by bucket, in a buffer leased from [`cts_core::pool`] while
//!   the piece itself goes back to it. The last pass then runs bucket by
//!   bucket in key order, each small enough to stay in cache: a record moves
//!   twice, and the first move pays for itself in the second.
//!
//! An entry is a `u64`: the key's offset from its bucket's first key, cut to
//! the bits the index leaves (a normalized key prefix, the idea behind
//! offset-value coding), above the index, which counts the bucket's records
//! in file order, then position. A scattered bucket spans a small slice of the
//! key space, and an in-cache one holds few records (a narrow index), so the
//! cut drops only low bits: a run of entries with equal prefixes — rare but
//! for duplicate keys — is re-ordered by the full 10-byte key, then index.
//!
//! Every job sorts its buckets with `sort_unstable` over their entries
//! ([`SortKernel::Comparison`]): the paper's `std::sort` (§V-A), comparing one
//! machine word per step instead of dereferencing two records. The one other
//! kernel, [`SortKernel::KeyIndex`] — least-significant-digit radix sort over
//! the prefix of the same entries: 16-bit digits over a large bucket, 8-bit
//! ones over a small one — wins at no bucket size measured. It is library
//! code only, reached through [`sort_records`], [`sort_records_with`] and
//! [`sort_pieces`] because `benchmark/` times it; it goes with ROADMAP 1(a).
//!
//! The total order is `(key, file order, position)` whichever order the
//! pieces arrived in: both kernels are **stable** (equal keys keep input
//! order), so they produce byte-identical output.
//!
//! Entry arrays and the per-pass count/offset tables live in a reusable
//! [`SortScratch`] (built on [`cts_core::pool::Scratch`]) sized to the largest
//! bucket, so the output buffer is a warm sort's only allocation of any size.
//! The library sorts plan their buckets as a reducer does, so an input that
//! fits `IN_CACHE_BYTES` is sorted from where it lies too.

use std::cell::Cell;
use std::ops::Range;

use bytes::Bytes;
use cts_core::pool::{self, Scratch};
use cts_mapreduce::workload::Reducer;

use crate::record::{key_of, key_to_u128, record_count, records, KEY_LEN, RECORD_LEN};

/// Which sorting algorithm orders a bucket: the Reduce stage's is always
/// `Comparison`; the library sorts take either.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortKernel {
    /// Comparison sort (the paper's `std::sort`) of packed `(key prefix,
    /// index)` entries, then a single copy of the records.
    Comparison,
    /// Key-index LSD radix sort: stable counting-sort passes over the key
    /// prefix's digits (least significant first) of the same entries, then
    /// the same copy.
    KeyIndex,
}

impl SortKernel {
    /// Both kernels, for equivalence tests.
    pub const ALL: [SortKernel; 2] = [SortKernel::Comparison, SortKernel::KeyIndex];
}

/// Reusable buffers for the sort kernels (grow-only; see
/// [`cts_core::pool::Scratch`]): the entry arrays and the radix passes'
/// count/offset tables.
#[derive(Debug, Default)]
pub struct SortScratch {
    counts: Scratch<u32>,
    offsets: Scratch<u32>,
    entries: Scratch<u64>,
    entries_tmp: Scratch<u64>,
}

impl SortScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Width of a key.
const KEY_BITS: usize = 8 * KEY_LEN;

/// The largest partition, in bytes, sorted in cache: kept where its pieces
/// land and sorted as one bucket. It is one core's L2 — 2 MiB on the 2-core
/// x86 host the regimes were measured on — because the one-bucket pass is as
/// fast as a bucket-by-bucket one only while the partition stays in L2, and
/// the scatter copy is the price of that. Job CPU, one bucket against the
/// scatter (through `JobRuntime`, two submitters, r = 1 and 2, alternated
/// runs): −8 to −22 % at 0.05–1 MB partitions and −4 to −15 % at 2 MB
/// (K = 4). Past the limit the gain thins and turns: a median −8 % at
/// 2.5 MB and K = 4 but +0.6 % at K = 8 (ahead in 4 of 8 pairs), and +3 %
/// at 5 MB and K = 8 (ahead in 3 of 8). A limit at the L2 keeps every size
/// that gained at both K and none that lost.
pub(crate) const IN_CACHE_BYTES: usize = 2 << 20;

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
    sort_in_buckets(&[data], plan(1, record_count(data)), kernel, scratch)
}

/// Sorts the concatenation of `pieces` by key without building it: what the
/// engine's Reduce does with a partition, every piece absorbed before the
/// first bucket is sorted.
///
/// Because every kernel is stable, the output equals [`sort_records`] of the
/// concatenated buffer.
///
/// # Panics
/// Panics if a piece's length is not a multiple of the record size.
pub fn sort_pieces(pieces: &[&[u8]], kernel: SortKernel) -> Vec<u8> {
    let total: usize = pieces.iter().map(|piece| record_count(piece)).sum();
    let buckets = plan(pieces.len(), total);
    sort_in_buckets(pieces, buckets, kernel, &mut SortScratch::new())
}

/// Sorts the concatenation of `pieces` as a reducer planned for about
/// `buckets` buckets does: one bucket sorts them where they lie, more
/// scatter each piece first.
fn sort_in_buckets(
    pieces: &[&[u8]],
    buckets: usize,
    kernel: SortKernel,
    scratch: &mut SortScratch,
) -> Vec<u8> {
    if buckets <= 1 {
        // The one bucket spans the whole key space.
        let mut out = Vec::with_capacity(pieces.iter().map(|piece| piece.len()).sum());
        sort_runs_into(pieces, 0, KEY_BITS as u32, kernel, scratch, &mut out);
        return out;
    }
    let mut reducer = SortReducer::with_buckets(kernel, 0..1 << KEY_BITS, pieces.len(), buckets);
    for (file_rank, piece) in pieces.iter().enumerate() {
        reducer.scatter(file_rank as u64, piece);
    }
    reducer.sorted(scratch)
}

/// How many buckets a partition of `records` records in `pieces` pieces is
/// planned in: one if it fits `IN_CACHE_BYTES`, else enough for buckets of
/// `BUCKET_RECORDS` or more and runs of `MIN_RUN_RECORDS` or more.
fn plan(pieces: usize, records: usize) -> usize {
    if records.saturating_mul(RECORD_LEN) <= IN_CACHE_BYTES {
        return 1;
    }
    let runs = records / pieces.max(1) / MIN_RUN_RECORDS;
    (records / BUCKET_RECORDS).min(runs).clamp(1, MAX_BUCKETS)
}

thread_local! {
    /// The thread's sort scratch between sorts: taken by a reducer's
    /// `finish` and given back once it has sorted, so that every reducer a
    /// thread finishes — the ranks of a job that run in turn on it too —
    /// sorts in the one scratch.
    static SCRATCH: Cell<SortScratch> = Cell::default();
}

/// One partition on its way to being sorted: every piece absorbed so far —
/// as it landed if the partition is one bucket, else range-scattered into
/// the same key sub-ranges.
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
    /// count follows from the three ([`plan`]); a partition that turns out
    /// skewed has some buckets larger than planned, which sort as any other,
    /// and one larger than `IN_CACHE_BYTES` in one bucket still sorts
    /// correctly.
    pub(crate) fn new(
        kernel: SortKernel,
        keys: Range<u128>,
        pieces: usize,
        expected_records: usize,
    ) -> Self {
        Self::with_buckets(kernel, keys, pieces, plan(pieces, expected_records))
    }

    /// A reducer whose partition is cut into about `want` buckets.
    fn with_buckets(kernel: SortKernel, keys: Range<u128>, pieces: usize, want: usize) -> Self {
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

    /// The partition, sorted in `scratch` (sized to the largest bucket: the
    /// partition only if it is one bucket): the buckets in key order, each
    /// the runs of every piece in file order.
    fn sorted(&mut self, scratch: &mut SortScratch) -> Vec<u8> {
        self.pieces.sort_unstable_by_key(|piece| piece.file_rank);
        let (kernel, first, shift) = (self.kernel, self.first, self.shift);
        let pieces = &self.pieces;
        let mut out = Vec::with_capacity(pieces.iter().map(|piece| piece.records.len()).sum());
        let mut runs: Vec<&[u8]> = Vec::with_capacity(pieces.len());
        for b in 0..self.buckets {
            runs.clear();
            runs.extend(pieces.iter().map(|piece| piece.run(b)));
            let bucket_first = first + ((b as u128) << shift);
            sort_runs_into(&runs, bucket_first, shift, kernel, scratch, &mut out);
        }
        out
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

    fn finish(mut self: Box<Self>) -> Vec<u8> {
        let mut scratch = SCRATCH.take();
        let out = self.sorted(&mut scratch);
        SCRATCH.set(scratch);
        out
    }
}

/// Appends the concatenation of `runs`, sorted by key, to `out` without
/// building it: entries are packed from, and records copied from, the runs
/// where they lie. The runs hold one bucket's keys: from `first`, less than
/// `2^span_bits` above it (a key outside, which no partitioner produces,
/// still sorts correctly).
fn sort_runs_into(
    runs: &[&[u8]],
    first: u128,
    span_bits: u32,
    kernel: SortKernel,
    scratch: &mut SortScratch,
    out: &mut Vec<u8>,
) {
    let counts = runs.iter().map(|run| record_count(run));
    let (n, longest) = counts.fold((0, 0), |(n, longest), c| (n + c, longest.max(c)));
    // Index = run number above the record number: ascending in input
    // position, and split back with a shift and a mask at copy time.
    let rec_bits = bits_for(longest);
    let index_bits = bits_for(runs.len()) + rec_bits;
    assert!(
        index_bits < u64::BITS,
        "entry packing supports runs x records-per-run < 2^63"
    );
    // The prefix above the index: the key's offset in the bucket, in the
    // span's bits or, where the span is wider than the room left, its top
    // ones. A key outside the span is held at its edge, where the tie pass
    // below puts it in order.
    let prefix_bits = span_bits.min(u64::BITS - index_bits);
    let cut = span_bits - prefix_bits;
    let top = (1u128 << prefix_bits) - 1;
    let prefix = |key: u128| ((key.saturating_sub(first) >> cut).min(top) as u64) << index_bits;
    let mut entries = scratch.entries.take();
    entries.clear();
    entries.reserve_exact(n); // a scratch a little short grows by that little
    for (p, run) in runs.iter().enumerate() {
        let base = (p as u64) << rec_bits;
        for (i, rec) in records(run).enumerate() {
            entries.push(prefix(key_to_u128(key_of(rec))) | base | i as u64);
        }
    }
    match kernel {
        // Unstable sort — the paper's `std::sort` — made stable by the index
        // every entry carries below its prefix, at unstable-sort speed and
        // without the stable sort's n/2 temp allocation.
        SortKernel::Comparison => entries.sort_unstable(),
        SortKernel::KeyIndex => {
            radix_sort_by_prefix(&mut entries, index_bits..index_bits + prefix_bits, scratch)
        }
    }
    let index_mask = (1u64 << index_bits) - 1;
    let rec_mask = (1u64 << rec_bits) - 1;
    let record = |e: u64| {
        let index = e & index_mask;
        let at = (index & rec_mask) as usize * RECORD_LEN;
        &runs[(index >> rec_bits) as usize][at..at + RECORD_LEN]
    };
    // Equal prefixes came out in index order; the full key decides among them.
    for ties in entries.chunk_by_mut(|a, b| a >> index_bits == b >> index_bits) {
        if ties.len() > 1 {
            ties.sort_unstable_by_key(|&e| (key_of(record(e)), e));
        }
    }
    // Copy the records once, in final order.
    for &e in &entries {
        out.extend_from_slice(record(e));
    }
    scratch.entries.restore(entries);
}

/// Bits needed to number `n` items (`0..n`).
fn bits_for(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// Orders `entries` by their bits in `prefix` in stable counting-sort passes,
/// least significant digit first; stability keeps entries of equal prefix
/// in input (index) order. Every pass zeroes and sums a table of one
/// count per digit value, so the digit is 16 bits wide only from 2^15
/// entries on, where halving the passes saves what 65 536-slot tables cost,
/// and 8 bits below (256 entries: 7 µs against 151 µs).
fn radix_sort_by_prefix(entries: &mut Vec<u64>, prefix: Range<u32>, scratch: &mut SortScratch) {
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
    for shift in prefix.step_by(digit_bits) {
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

    /// The bucket counts every test sorts in: one (in cache) and sixteen
    /// (scattered), whatever the input's size.
    const PLANS: [usize; 2] = [1, 16];

    /// Every plan with every kernel.
    fn plans_and_kernels() -> impl Iterator<Item = (usize, SortKernel)> {
        PLANS
            .into_iter()
            .flat_map(|buckets| SortKernel::ALL.map(|kernel| (buckets, kernel)))
    }

    /// `data` sorted in `buckets` buckets.
    fn sort_planned(data: &[u8], kernel: SortKernel, buckets: usize) -> Vec<u8> {
        sort_in_buckets(&[data], buckets, kernel, &mut SortScratch::new())
    }

    #[test]
    fn the_plan_is_one_bucket_up_to_one_l2() {
        let limit = IN_CACHE_BYTES / RECORD_LEN;
        let keys = 1u128 << 78..1 << 79;
        for pieces in [1, 8, 56] {
            for records in [0, 1, 500, limit] {
                let reducer =
                    SortReducer::new(SortKernel::Comparison, keys.clone(), pieces, records);
                assert_eq!(reducer.buckets, 1, "{records} records in {pieces} pieces");
            }
            for records in [limit + 1, 50_000, 125_000] {
                let reducer =
                    SortReducer::new(SortKernel::Comparison, keys.clone(), pieces, records);
                assert!(reducer.buckets > 1, "{records} records in {pieces} pieces");
            }
        }
    }

    #[test]
    fn one_bucket_keeps_each_piece_where_it_lies_and_more_copy_it() {
        let data = bytes::Bytes::from(generate(3_000, 41).to_vec());
        let cut = 1_000 * RECORD_LEN;
        for buckets in PLANS {
            let keys = 0..1 << KEY_BITS;
            let mut reducer = SortReducer::with_buckets(SortKernel::Comparison, keys, 2, buckets);
            reducer.absorb(1, data.slice(cut..));
            reducer.absorb(0, data.slice(..cut));
            let kept = reducer.pieces.iter().map(|piece| piece.records.as_ptr());
            let landed = [data[cut..].as_ptr(), data.as_ptr()];
            let in_place = kept
                .zip(landed)
                .filter(|(kept, landed)| kept == landed)
                .count();
            assert_eq!(
                in_place,
                if buckets == 1 { 2 } else { 0 },
                "{buckets} buckets"
            );
            let sorted = Box::new(reducer).finish();
            assert_eq!(
                sorted,
                sort_planned(&data, SortKernel::Comparison, 1),
                "{buckets} buckets"
            );
        }
    }

    #[test]
    fn all_kernels_sort() {
        let data = generate(500, 99);
        for (buckets, kernel) in plans_and_kernels() {
            let sorted = sort_planned(&data, kernel, buckets);
            assert!(is_sorted(&sorted), "{kernel:?} in {buckets}");
            assert_eq!(sorted.len(), data.len());
            assert_eq!(
                checksum(&sorted),
                checksum(&data),
                "{kernel:?} in {buckets}"
            );
        }
        for kernel in SortKernel::ALL {
            assert_eq!(sort_records(&data, kernel), sort_planned(&data, kernel, 1));
        }
    }

    #[test]
    fn kernels_agree_exactly() {
        let data = generate(1000, 123);
        let reference = sort_records(&data, SortKernel::Comparison);
        for (buckets, kernel) in plans_and_kernels() {
            assert_eq!(
                reference,
                sort_planned(&data, kernel, buckets),
                "{kernel:?} in {buckets}"
            );
        }
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
        // byte-identical outputs, in one bucket or scattered.
        let data = duplicate_key_data(997, 5);
        let reference = sort_records(&data, SortKernel::Comparison);
        assert!(is_sorted(&reference));
        for (buckets, kernel) in plans_and_kernels() {
            assert_eq!(
                reference,
                sort_planned(&data, kernel, buckets),
                "{kernel:?} in {buckets}"
            );
        }
    }

    #[test]
    fn kernels_are_stable_for_equal_keys() {
        // Two records with identical keys, distinguishable values.
        let mut data = vec![0u8; 2 * RECORD_LEN];
        data[10] = b'a'; // first record's value
        data[RECORD_LEN + 10] = b'b';
        for (buckets, kernel) in plans_and_kernels() {
            let sorted = sort_planned(&data, kernel, buckets);
            assert_eq!(sorted[10], b'a', "{kernel:?} in {buckets}");
            assert_eq!(sorted[RECORD_LEN + 10], b'b', "{kernel:?} in {buckets}");
        }
    }

    #[test]
    fn empty_and_single() {
        for (buckets, kernel) in plans_and_kernels() {
            assert!(sort_planned(&[], kernel, buckets).is_empty());
            let one = generate(1, 5);
            assert_eq!(sort_planned(&one, kernel, buckets), one.to_vec());
        }
    }

    #[test]
    fn already_sorted_is_fixed_point() {
        let data = generate(200, 44);
        let once = sort_records(&data, SortKernel::Comparison);
        for (buckets, kernel) in plans_and_kernels() {
            assert_eq!(
                once,
                sort_planned(&once, kernel, buckets),
                "{kernel:?} in {buckets}"
            );
        }
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
                // The scattered plan's buckets, sorted in the same scratch.
                assert_eq!(
                    sort_in_buckets(&[&data], PLANS[1], kernel, &mut scratch),
                    sort_records(&data, kernel),
                    "{kernel:?} seed {seed}, scattered"
                );
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
                let whole = sort_records(&data, kernel);
                assert_eq!(
                    sort_pieces(&pieces, kernel),
                    whole,
                    "{kernel:?} {cuts} pieces"
                );
                for buckets in PLANS {
                    assert_eq!(
                        sort_in_buckets(&pieces, buckets, kernel, &mut SortScratch::new()),
                        whole,
                        "{kernel:?} {cuts} pieces in {buckets}"
                    );
                }
            }
        }
        assert!(sort_pieces(&[], SortKernel::Comparison).is_empty());
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
