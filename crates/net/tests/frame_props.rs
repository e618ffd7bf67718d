//! Property suite for the one frame reader (`cts_net::frame`), which both
//! TCP sockets — the fabric's links and the `cts serve` wire — read with.
//!
//! Whatever bytes arrive, `read_head` + `read_body` return `Ok` or a typed
//! `Err`: they never panic, and their largest allocation is at most the
//! larger of 1 MiB and twice the bytes supplied, whatever length a header
//! claims. Valid frames cut short or carrying forged lengths get exactly
//! the error their bytes call for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;

use cts_net::frame::{read_body, read_head, MAX_FRAME};
use proptest::prelude::*;

thread_local! {
    /// This thread's largest single allocation (or reallocation) since it
    /// was last reset: per thread, so the properties can run in parallel.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct LargestAlloc;

fn note(size: usize) {
    LARGEST.with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// What reading `wire` frame by frame came to.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// The first body read, if any.
    first: Option<Vec<u8>>,
    /// Frames read whole, and their body bytes.
    frames: usize,
    bytes: usize,
    /// How the reading ended: `None` for a clean end.
    ended: Option<ErrorKind>,
    /// The largest allocation the reading made.
    largest: usize,
}

/// Reads frames with an `H`-byte head off `wire` until it ends or fails.
fn read_all<const H: usize>(wire: &[u8]) -> Outcome {
    let mut reader = wire;
    let (mut first, mut frames, mut bytes) = (None, 0, 0);
    LARGEST.with(|largest| largest.set(0));
    let ended = loop {
        let body = match read_head::<H>(&mut reader) {
            Ok(None) => break None,
            Ok(Some((_, len))) => read_body(&mut reader, len),
            Err(e) => Err(e),
        };
        match body {
            Ok(body) => {
                (frames, bytes) = (frames + 1, bytes + body.len());
                first.get_or_insert(body);
            }
            Err(e) => break Some(e.kind()),
        }
    };
    let largest = LARGEST.with(Cell::get);
    Outcome {
        first,
        frames,
        bytes,
        ended,
        largest,
    }
}

/// The allocation bound: a length's say-so buys 1 MiB, the rest is paid for
/// in bytes.
fn bound(supplied: usize) -> usize {
    (1 << 20).max(2 * supplied)
}

/// A link frame: the tag, the length `claimed`, then `body`.
fn frame(claimed: u32, body: &[u8]) -> Vec<u8> {
    [&7u32.to_le_bytes()[..], &claimed.to_le_bytes(), body].concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_read_typed_and_cheap(wire in collection::vec(any::<u8>(), 0..2048)) {
        for read in [read_all::<4>(&wire), read_all::<0>(&wire)] {
            prop_assert!(read.largest <= bound(wire.len()), "{} bytes for {}", read.largest, wire.len());
            prop_assert!(matches!(
                read.ended,
                None | Some(ErrorKind::UnexpectedEof | ErrorKind::InvalidData)
            ));
            prop_assert!(read.bytes <= wire.len());
        }
    }

    #[test]
    fn a_cut_frame_is_unexpected_eof(
        body in collection::vec(any::<u8>(), 0..4096),
        cut in any::<usize>(),
    ) {
        let wire = frame(body.len() as u32, &body);
        let cut = cut % (wire.len() + 1);
        let read = read_all::<4>(&wire[..cut]);
        let inside = 0 < cut && cut < wire.len();
        prop_assert_eq!(read.ended, inside.then_some(ErrorKind::UnexpectedEof));
        prop_assert_eq!(read.first, (cut == wire.len()).then_some(body));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_forged_length_costs_what_was_sent(
        supplied in 0usize..(3 << 20),
        forge in 0u8..4,
        claim in any::<u32>(),
    ) {
        // Any length; any under the cap; one the bytes cover; one just past them.
        let claimed = match forge {
            0 => claim,
            1 => claim % (MAX_FRAME + 1),
            2 => claim % (supplied as u32 + 1),
            _ => supplied as u32 + 1 + claim % 64,
        };
        let wire = frame(claimed, &vec![0xA5; supplied]);
        let read = read_all::<4>(&wire);
        prop_assert!(read.largest <= bound(wire.len()), "{} bytes for {}", read.largest, wire.len());
        if claimed > MAX_FRAME {
            prop_assert_eq!((read.frames, read.ended), (0, Some(ErrorKind::InvalidData)));
        } else if claimed as usize > supplied {
            prop_assert_eq!((read.frames, read.ended), (0, Some(ErrorKind::UnexpectedEof)));
        } else {
            // The claimed body; what follows it is read as more frames.
            prop_assert_eq!(read.first, Some(vec![0xA5; claimed as usize]));
        }
    }
}
