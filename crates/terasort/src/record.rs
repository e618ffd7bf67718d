//! The TeraSort record format.
//!
//! Following the paper's §V-A data format (TeraGen output): each record is
//! exactly 100 bytes — a 10-byte key and a 90-byte value. Keys are
//! unsigned integers compared by standard integer ordering, which for
//! fixed-width big-endian byte strings is plain lexicographic comparison.

/// Key width in bytes.
pub const KEY_LEN: usize = 10;
/// Value width in bytes.
pub const VALUE_LEN: usize = 90;
/// Total record width.
pub const RECORD_LEN: usize = KEY_LEN + VALUE_LEN;

/// Borrowing view over the records in a packed buffer.
///
/// # Panics
/// Panics if `buf.len()` is not a multiple of [`RECORD_LEN`].
pub fn records(buf: &[u8]) -> impl ExactSizeIterator<Item = &[u8]> {
    assert!(
        buf.len().is_multiple_of(RECORD_LEN),
        "buffer of {} bytes is not whole records",
        buf.len()
    );
    buf.chunks_exact(RECORD_LEN)
}

/// The key bytes of a record slice.
///
/// # Panics
/// Panics if `record.len() != RECORD_LEN`.
#[inline]
pub fn key_of(record: &[u8]) -> &[u8] {
    assert_eq!(record.len(), RECORD_LEN, "not a record");
    &record[..KEY_LEN]
}

/// Interprets a 10-byte key as an unsigned integer (big-endian), the
/// paper's "standard integer ordering".
#[inline]
pub fn key_to_u128(key: &[u8]) -> u128 {
    debug_assert_eq!(key.len(), KEY_LEN);
    let mut padded = [0u8; 16];
    padded[6..16].copy_from_slice(key);
    u128::from_be_bytes(padded)
}

/// Number of whole records in a packed buffer.
pub fn record_count(buf: &[u8]) -> usize {
    debug_assert!(buf.len().is_multiple_of(RECORD_LEN));
    buf.len() / RECORD_LEN
}

/// An order-independent checksum over the records of a buffer (wrapping
/// sum of per-record hashes). Input and sorted output must agree — the
/// TeraValidate invariant.
///
/// The per-record hash consumes eight bytes per step (a multiply–rotate
/// mix over little-endian words, ~8× fewer rounds than the previous
/// byte-at-a-time FNV-1a over 100-byte records); [`checksum_bytewise`] is
/// the byte-at-a-time reference computing the *same* value.
pub fn checksum(buf: &[u8]) -> u64 {
    let mut total: u64 = 0;
    for rec in records(buf) {
        total = total.wrapping_add(hash_words(rec));
    }
    total
}

/// Byte-at-a-time reference for [`checksum`]: identical values, built one
/// byte per step (the form a streaming validator would use).
pub fn checksum_bytewise(buf: &[u8]) -> u64 {
    let mut total: u64 = 0;
    for rec in records(buf) {
        total = total.wrapping_add(hash_bytewise(rec));
    }
    total
}

/// Hash seed (the FNV-1a offset basis, kept for familiarity).
const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Odd multiplier (the golden-ratio constant) driving the word mix.
const HASH_MULT: u64 = 0x9e37_79b9_7f4a_7c15;

/// One mixing round over an eight-byte little-endian word.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(HASH_MULT).rotate_left(29)
}

/// Finalizer: avalanche the state and bind in the input length so the
/// zero-padded tail word cannot alias a shorter input.
#[inline]
fn finish(h: u64, len: usize) -> u64 {
    let mut h = h ^ (len as u64).wrapping_mul(HASH_MULT);
    h ^= h >> 32;
    h = h.wrapping_mul(HASH_MULT);
    h ^ (h >> 29)
}

/// Word-at-a-time hash of an arbitrary slice: full 8-byte little-endian
/// words, then the remaining tail zero-padded into one final word.
#[inline]
fn hash_words(bytes: &[u8]) -> u64 {
    let mut h = HASH_SEED;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(word));
    }
    finish(h, bytes.len())
}

/// Byte-at-a-time equivalent of [`hash_words`]: accumulates each
/// little-endian word one byte per step.
#[inline]
fn hash_bytewise(bytes: &[u8]) -> u64 {
    let mut h = HASH_SEED;
    let mut word = 0u64;
    let mut shift = 0u32;
    for &b in bytes {
        word |= (b as u64) << shift;
        shift += 8;
        if shift == 64 {
            h = mix(h, word);
            word = 0;
            shift = 0;
        }
    }
    if shift > 0 {
        h = mix(h, word);
    }
    finish(h, bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key_byte: u8) -> Vec<u8> {
        let mut r = vec![0u8; RECORD_LEN];
        r[0] = key_byte;
        r[KEY_LEN] = 0xEE;
        r
    }

    #[test]
    fn key_accessor_splits_off_the_key() {
        let r = rec(42);
        assert_eq!(key_of(&r)[0], 42);
        assert_eq!(key_of(&r).len(), KEY_LEN);
    }

    #[test]
    fn records_iterates_chunks() {
        let mut buf = rec(1);
        buf.extend(rec(2));
        buf.extend(rec(3));
        let keys: Vec<u8> = records(&buf).map(|r| r[0]).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(record_count(&buf), 3);
    }

    #[test]
    #[should_panic(expected = "whole records")]
    fn records_rejects_partial() {
        let buf = vec![0u8; 150];
        let _ = records(&buf);
    }

    #[test]
    fn key_integer_order_is_lexicographic() {
        let lo = [0u8, 0, 0, 0, 0, 0, 0, 0, 1, 0];
        let hi = [0u8, 0, 0, 0, 0, 0, 0, 0, 1, 1];
        assert!(key_to_u128(&lo) < key_to_u128(&hi));
        assert!(lo < hi); // byte order agrees
        let max = [0xFFu8; KEY_LEN];
        assert_eq!(key_to_u128(&max), (1u128 << 80) - 1);
    }

    #[test]
    fn checksum_is_order_independent() {
        let mut a = rec(1);
        a.extend(rec(2));
        let mut b = rec(2);
        b.extend(rec(1));
        assert_eq!(checksum(&a), checksum(&b));
        // …but content-dependent.
        let mut c = rec(1);
        c.extend(rec(3));
        assert_ne!(checksum(&a), checksum(&c));
    }

    #[test]
    fn checksum_of_empty_is_zero() {
        assert_eq!(checksum(&[]), 0);
    }

    #[test]
    fn word_hash_matches_bytewise_reference_on_unaligned_lengths() {
        // The word kernel and the byte-at-a-time reference must agree for
        // every tail length (0..8 leftover bytes) and across word counts.
        for len in 0..=130usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(
                hash_words(&data),
                hash_bytewise(&data),
                "length {len} disagrees"
            );
        }
    }

    #[test]
    fn checksum_matches_bytewise_reference_on_records() {
        let data: Vec<u8> = (0..7 * RECORD_LEN).map(|i| (i * 13 + 5) as u8).collect();
        assert_eq!(checksum(&data), checksum_bytewise(&data));
    }

    #[test]
    fn hash_distinguishes_zero_padding_from_short_input() {
        // "ab" and "ab\0" pad to the same tail word; the length binding in
        // the finalizer must keep them distinct.
        assert_ne!(hash_words(b"ab"), hash_words(b"ab\0"));
        assert_ne!(hash_words(&[]), hash_words(&[0]));
        assert_ne!(hash_words(&[0u8; 8]), hash_words(&[0u8; 16]));
    }
}
