//! TeraGen: deterministic input generation.
//!
//! Replaces the Hadoop TeraGen the paper uses (§V-A): 100-byte records
//! with a uniformly random 10-byte key and a 90-byte value carrying the
//! record's sequence number (so every record is distinct and losses are
//! detectable). A skewed generator exercises the sampling partitioner: with
//! uniform range partitioning, skewed keys overload a few reducers.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::record::{KEY_LEN, RECORD_LEN};

/// Generates `count` records with uniformly random keys.
pub fn generate(count: usize, seed: u64) -> Bytes {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf = vec![0u8; count * RECORD_LEN];
    for (i, rec) in buf.chunks_exact_mut(RECORD_LEN).enumerate() {
        rng.fill_bytes(&mut rec[..KEY_LEN]);
        fill_value(&mut rec[KEY_LEN..], i);
    }
    Bytes::from(buf)
}

/// Generates `count` records whose keys are skewed: a `hot_fraction` of
/// records share the top `hot_prefix_bits` of their key with a single hot
/// prefix, concentrating them in a narrow key range. The rest are uniform.
///
/// # Panics
/// Panics unless `0.0 <= hot_fraction <= 1.0` and `hot_prefix_bits <= 32`.
pub fn generate_skewed(count: usize, seed: u64, hot_fraction: f64, hot_prefix_bits: u32) -> Bytes {
    assert!((0.0..=1.0).contains(&hot_fraction), "bad hot fraction");
    assert!(hot_prefix_bits <= 32, "prefix bits must be <= 32");
    let mut rng = StdRng::seed_from_u64(seed);
    let hot_prefix: u32 = rng.next_u32();
    let mut buf = vec![0u8; count * RECORD_LEN];
    for (i, rec) in buf.chunks_exact_mut(RECORD_LEN).enumerate() {
        rng.fill_bytes(&mut rec[..KEY_LEN]);
        let is_hot = (rng.next_u64() as f64 / u64::MAX as f64) < hot_fraction;
        if is_hot && hot_prefix_bits > 0 {
            // Overwrite the top bits with the hot prefix.
            let mut head = u32::from_be_bytes(rec[..4].try_into().unwrap());
            let mask = if hot_prefix_bits == 32 {
                u32::MAX
            } else {
                !((1u32 << (32 - hot_prefix_bits)) - 1)
            };
            head = (hot_prefix & mask) | (head & !mask);
            rec[..4].copy_from_slice(&head.to_be_bytes());
        }
        fill_value(&mut rec[KEY_LEN..], i);
    }
    Bytes::from(buf)
}

/// `CTS-`, the index as 16 lowercase hex digits, `-`.
const TAG_LEN: usize = 21;

/// The alphabet five times over: any run of the filler is one slice of it.
const FILLER: &[u8] = concat!(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
)
.as_bytes();

/// The value payload: a readable tag plus the record index, padded with a
/// rotating filler (mirrors TeraGen's rowid + filler layout) — byte `j` of
/// the value is `'A' + (index + j) % 26` past the tag.
fn fill_value(value: &mut [u8], index: usize) {
    let (tag, filler) = value.split_at_mut(TAG_LEN);
    tag[..4].copy_from_slice(b"CTS-");
    for (i, digit) in tag[4..20].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(index as u64 >> (60 - 4 * i)) as usize & 0xf];
    }
    tag[20] = b'-';
    let start = (index % 26 + TAG_LEN) % 26;
    filler.copy_from_slice(&FILLER[start..start + filler.len()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{key_of, key_to_u128, records};
    use std::collections::HashSet;

    #[test]
    fn generates_exact_sizes() {
        let data = generate(123, 7);
        assert_eq!(data.len(), 123 * RECORD_LEN);
        assert_eq!(records(&data).count(), 123);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate(50, 1), generate(50, 1));
        assert_ne!(generate(50, 1), generate(50, 2));
    }

    #[test]
    fn values_make_records_unique() {
        let data = generate(500, 3);
        let set: HashSet<&[u8]> = records(&data).collect();
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn uniform_keys_spread_over_the_domain() {
        let data = generate(4000, 11);
        // Bucket keys by their top byte; a uniform draw puts ~15.6 per
        // bucket. No bucket should be empty or wildly overloaded.
        let mut buckets = [0u32; 256];
        for rec in records(&data) {
            buckets[rec[0] as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max < 60, "top-byte bucket of {max} is implausibly hot");
    }

    #[test]
    fn skewed_keys_concentrate() {
        let data = generate_skewed(4000, 5, 0.5, 16);
        let mut prefix_counts = std::collections::HashMap::new();
        for rec in records(&data) {
            let p = u16::from_be_bytes(rec[..2].try_into().unwrap());
            *prefix_counts.entry(p).or_insert(0u32) += 1;
        }
        let hottest = *prefix_counts.values().max().unwrap();
        // ~half of all records share one 16-bit prefix.
        assert!(hottest > 1500, "hottest prefix only {hottest}");
    }

    #[test]
    fn skew_zero_is_uniform() {
        let a = generate_skewed(100, 9, 0.0, 16);
        // No concentration: behaves like uniform (can't be identical to
        // `generate` because the RNG stream differs, but keys still spread).
        let mut top = [0u32; 4];
        for rec in records(&a) {
            top[(rec[0] >> 6) as usize] += 1;
        }
        assert!(top.iter().all(|&c| c > 5), "{top:?}");
    }

    /// The per-record implementation `fill_value` replaced: the oracle.
    fn fill_value_formatted(value: &mut [u8], index: usize) {
        let tag = format!("CTS-{index:016x}-");
        let tag = tag.as_bytes();
        let n = tag.len().min(value.len());
        value[..n].copy_from_slice(&tag[..n]);
        for (j, b) in value.iter_mut().enumerate().skip(n) {
            *b = b'A' + ((index + j) % 26) as u8;
        }
    }

    #[test]
    fn values_are_the_formatted_ones_byte_for_byte() {
        for (count, seed) in [(0, 1), (1, 7), (7, 3), (1_000, 11), (123_457, 2017)] {
            for data in [generate(count, seed), generate_skewed(count, seed, 0.5, 16)] {
                let mut expected = data.to_vec();
                for (i, rec) in expected.chunks_exact_mut(RECORD_LEN).enumerate() {
                    fill_value_formatted(&mut rec[KEY_LEN..], i);
                }
                assert!(data[..] == expected[..], "count {count}, seed {seed}");
            }
        }
        for index in [25, 26, 0xfedc_ba98_7654_3210, usize::MAX / 2] {
            let (mut got, mut want) = ([0u8; RECORD_LEN - KEY_LEN], [0u8; RECORD_LEN - KEY_LEN]);
            fill_value(&mut got, index);
            fill_value_formatted(&mut want, index);
            assert_eq!(got, want, "index {index:#x}");
        }
    }

    #[test]
    fn keys_cover_u128_range_semantics() {
        let data = generate(10, 42);
        for rec in records(&data) {
            let k = key_to_u128(key_of(rec));
            assert!(k < (1u128 << 80));
        }
    }
}
