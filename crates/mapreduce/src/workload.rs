//! The workload abstraction: what varies between TeraSort, WordCount,
//! Grep, … (the paper's §VI "beyond sorting" direction).
//!
//! A [`Workload`] is byte-oriented, mirroring the paper's implementation
//! where intermediate values are serialized buffers and the shuffle layer
//! never looks inside them:
//!
//! * [`Workload::map_file`] hashes one input file into `K` per-partition
//!   serialized intermediates (the paper's `Hash(F)` producing
//!   `{I¹_F, …, I^K_F}`), less those outside the keep-mask: the engine
//!   passes the partitions its layout routes somewhere, so the (r − 1)/K
//!   share nobody reads is never written;
//! * [`Workload::reduce`] turns the *concatenation* of a partition's
//!   intermediates into final output (the paper's `Sort`); the engine
//!   reaches it through the partition's [`Reducer`], which it feeds one
//!   piece at a time, the moment the Shuffle completes it.
//!
//! Two contracts make a workload coding-compatible:
//! 1. intermediates must be concatenation-mergeable — `reduce` sees the
//!    pieces in file order;
//! 2. the order pieces are *absorbed* in must not matter: they land as the
//!    Shuffle delivers them, which differs from scheme to scheme and from
//!    run to run, and uncoded and coded executions must produce identical
//!    output.

use bytes::Bytes;
pub use cts_core::subset::NodeSet;

/// How raw input bytes split into files without breaking records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputFormat {
    /// Fixed-width records of the given byte size (TeraGen: 100).
    FixedWidth(usize),
    /// Newline-delimited text; splits land after `\n`.
    Lines,
}

impl InputFormat {
    /// Splits `input` into `n` contiguous files at record boundaries, as
    /// evenly as byte counts allow. Zero-copy: files share `input`'s
    /// buffer.
    ///
    /// # Panics
    /// Panics if `n == 0`, or for `FixedWidth(w)` if `w == 0` or the input
    /// length is not a multiple of `w`.
    pub fn split(&self, input: &Bytes, n: usize) -> Vec<Bytes> {
        assert!(n > 0, "cannot split into zero files");
        match *self {
            InputFormat::FixedWidth(w) => {
                assert!(w > 0, "record width must be positive");
                assert!(
                    input.len().is_multiple_of(w),
                    "input length {} is not a multiple of record width {w}",
                    input.len()
                );
                let records = input.len() / w;
                let base = records / n;
                let extra = records % n;
                let mut out = Vec::with_capacity(n);
                let mut offset = 0usize;
                for i in 0..n {
                    let count = base + usize::from(i < extra);
                    let bytes = count * w;
                    out.push(input.slice(offset..offset + bytes));
                    offset += bytes;
                }
                debug_assert_eq!(offset, input.len());
                out
            }
            InputFormat::Lines => {
                let len = input.len();
                let mut cuts = Vec::with_capacity(n + 1);
                cuts.push(0usize);
                for i in 1..n {
                    let target = len * i / n;
                    let target = target.max(*cuts.last().unwrap());
                    // Advance to just past the next newline (or EOF).
                    let cut = input[target..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map(|p| target + p + 1)
                        .unwrap_or(len);
                    cuts.push(cut);
                }
                cuts.push(len);
                cuts.windows(2).map(|w| input.slice(w[0]..w[1])).collect()
            }
        }
    }
}

/// A MapReduce workload runnable by the engine, coded or not.
pub trait Workload: Send + Sync {
    /// Human-readable name ("terasort", "wordcount", …).
    fn name(&self) -> &str;

    /// The input splitting rule.
    fn format(&self) -> InputFormat;

    /// Hashes one file into `num_partitions` serialized intermediates
    /// (`out[p]` holds the KV pairs of partition `p`). Only the partitions
    /// in `keep` are read: a workload leaves the others empty.
    fn map_file(&self, file: &[u8], num_partitions: usize, keep: NodeSet) -> Vec<Vec<u8>>;

    /// Produces the final output of `partition` from the concatenation of
    /// all its intermediates. Must be insensitive to concatenation order.
    fn reduce(&self, partition: usize, data: &[u8]) -> Vec<u8>;

    /// Parallel variant of [`map_file`](Workload::map_file) keeping every
    /// partition, driven by the engine's
    /// [`WorkerPool`](cts_core::exec::WorkerPool). The default ignores the
    /// pool; workloads that can chunk their input (TeraSort's fixed-width
    /// records) override this. **Must** produce output byte-identical to
    /// `map_file` for every thread count.
    fn map_file_par(
        &self,
        file: &[u8],
        num_partitions: usize,
        pool: &cts_core::exec::WorkerPool,
    ) -> Vec<Vec<u8>> {
        let _ = pool;
        self.map_file(file, num_partitions, NodeSet::full(num_partitions))
    }

    /// The engine's Reduce entry: a [`Reducer`] for `partition`, which is
    /// about to receive `shape.pieces` pieces. **Must** produce output
    /// byte-identical to [`reduce`](Workload::reduce) of the pieces
    /// concatenated in file order, whatever order they are absorbed in and
    /// for every thread count — as the default does, which collects them and
    /// calls `reduce`; a workload that can start on a piece before the last
    /// one is in (TeraSort) moves that work inside the Shuffle.
    fn reducer(&self, partition: usize, shape: PartitionShape) -> Box<dyn Reducer + '_> {
        Box::new(Collect {
            workload: self,
            partition,
            pieces: Vec::with_capacity(shape.pieces),
        })
    }
}

/// FNV-1a 64, the partitioning hash of the keyed workloads here: stable
/// across platforms and runs, so a key's partition is too.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the placement says a partition will look like, before its first
/// piece exists.
#[derive(Clone, Copy, Debug)]
pub struct PartitionShape {
    /// Pieces the partition arrives in: one per input file.
    pub pieces: usize,
    /// Its share of the input if keys spread evenly, in bytes.
    pub expected_bytes: usize,
}

/// One partition being reduced. The engine hands it each of the partition's
/// pieces as the rank comes to hold it — kept from its own Map, received
/// plain, or decoded — and asks for the output when the last one is in.
pub trait Reducer {
    /// Takes the piece mapped from the file `file_rank`: a number ascending
    /// in input order (not dense — the engine passes the file's node set).
    /// Each file's piece comes once, in no particular order.
    fn absorb(&mut self, file_rank: u64, piece: Bytes);

    /// Every piece is in: the partition's output.
    fn finish(self: Box<Self>, pool: &cts_core::exec::WorkerPool) -> Vec<u8>;
}

/// The default [`Reducer`]: holds the pieces, then reduces their
/// concatenation in file order.
struct Collect<'a, W: ?Sized> {
    workload: &'a W,
    partition: usize,
    pieces: Vec<(u64, Bytes)>,
}

impl<W: Workload + ?Sized> Reducer for Collect<'_, W> {
    fn absorb(&mut self, file_rank: u64, piece: Bytes) {
        self.pieces.push((file_rank, piece));
    }

    fn finish(mut self: Box<Self>, _: &cts_core::exec::WorkerPool) -> Vec<u8> {
        self.pieces
            .sort_unstable_by_key(|(file_rank, _)| *file_rank);
        let in_order: Vec<&[u8]> = self.pieces.iter().map(|(_, piece)| &piece[..]).collect();
        self.workload.reduce(self.partition, &in_order.concat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_gives_the_published_answers() {
        // The keyed workloads' partitions are these hashes mod K.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fixed_width_split_even() {
        let input = Bytes::from(vec![7u8; 100 * 10]);
        let files = InputFormat::FixedWidth(100).split(&input, 5);
        assert_eq!(files.len(), 5);
        assert!(files.iter().all(|f| f.len() == 200));
    }

    #[test]
    fn fixed_width_split_remainder_spread() {
        // 11 records over 4 files: 3,3,3,2.
        let input = Bytes::from(vec![0u8; 11 * 4]);
        let files = InputFormat::FixedWidth(4).split(&input, 4);
        let lens: Vec<usize> = files.iter().map(|f| f.len() / 4).collect();
        assert_eq!(lens, vec![3, 3, 3, 2]);
        let total: usize = files.iter().map(|f| f.len()).sum();
        assert_eq!(total, input.len());
    }

    #[test]
    #[should_panic(expected = "multiple of record width")]
    fn fixed_width_rejects_partial_records() {
        InputFormat::FixedWidth(100).split(&Bytes::from(vec![0u8; 150]), 2);
    }

    #[test]
    fn lines_split_at_newlines() {
        let input = Bytes::from_static(b"aa\nbbbb\nc\ndddd\ne\n");
        let files = InputFormat::Lines.split(&input, 3);
        assert_eq!(files.len(), 3);
        // Re-concatenation is lossless.
        let joined: Vec<u8> = files.iter().flat_map(|f| f.iter().copied()).collect();
        assert_eq!(&joined[..], &input[..]);
        // Every file ends at a line boundary (or is last).
        for f in &files[..2] {
            assert!(f.is_empty() || f.last() == Some(&b'\n'), "{f:?}");
        }
    }

    #[test]
    fn lines_split_handles_no_trailing_newline() {
        let input = Bytes::from_static(b"one\ntwo\nthree");
        let files = InputFormat::Lines.split(&input, 2);
        let joined: Vec<u8> = files.iter().flat_map(|f| f.iter().copied()).collect();
        assert_eq!(&joined[..], &input[..]);
    }

    #[test]
    fn lines_split_more_files_than_lines() {
        let input = Bytes::from_static(b"only\n");
        let files = InputFormat::Lines.split(&input, 4);
        assert_eq!(files.len(), 4);
        let non_empty: Vec<&Bytes> = files.iter().filter(|f| !f.is_empty()).collect();
        assert_eq!(non_empty.len(), 1);
    }

    #[test]
    fn split_is_zero_copy() {
        let input = Bytes::from(vec![1u8; 400]);
        let files = InputFormat::FixedWidth(100).split(&input, 2);
        assert_eq!(files[0].as_ptr(), input.as_ptr());
    }

    #[test]
    fn empty_input_splits_into_empty_files() {
        let input = Bytes::new();
        for fmt in [InputFormat::FixedWidth(100), InputFormat::Lines] {
            let files = fmt.split(&input, 3);
            assert_eq!(files.len(), 3);
            assert!(files.iter().all(|f| f.is_empty()));
        }
    }
}
