//! TeraGen: deterministic input generation.
//!
//! Replaces the Hadoop TeraGen the paper uses (§V-A): 100-byte records
//! with a uniformly random 10-byte key and a 90-byte value carrying the
//! record's sequence number (so every record is distinct and losses are
//! detectable). A skewed generator exercises the sampling partitioner: with
//! uniform range partitioning, skewed keys overload a few reducers.
//!
//! The keys are this module's own: xoshiro256** seeded through splitmix64
//! (`Xoshiro`). A seed names the same bytes on every platform and build,
//! and `tests::keys_are_pinned_byte_for_byte` holds them.

use bytes::Bytes;

use crate::record::{KEY_LEN, RECORD_LEN};

/// The key generator: xoshiro256**, its state seeded by four splitmix64
/// draws.
struct Xoshiro {
    s: [u64; 4],
}

impl Xoshiro {
    fn seed(seed: u64) -> Xoshiro {
        let mut sm = seed;
        let mut splitmix64 = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (sm ^ (sm >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro {
            s: [splitmix64(), splitmix64(), splitmix64(), splitmix64()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The high half of one draw.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// One draw per 8 bytes, little-endian; a remainder is cut from one
    /// more draw.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let len = rem.len();
            rem.copy_from_slice(&self.next_u64().to_le_bytes()[..len]);
        }
    }
}

/// Generates `count` records with uniformly random keys.
pub fn generate(count: usize, seed: u64) -> Bytes {
    let mut rng = Xoshiro::seed(seed);
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
    let mut rng = Xoshiro::seed(seed);
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

    /// FNV-1a over every record's key: a digest that moves with any draw.
    fn key_digest(data: &[u8]) -> u64 {
        records(data)
            .flat_map(|rec| &rec[..KEY_LEN])
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }

    /// The keys of 1 000 records, uniform and skewed as `cts gen --skew
    /// 0.9` draws them, at two seeds: what the generator made before it
    /// moved into this module.
    #[test]
    fn keys_are_pinned_byte_for_byte() {
        let first = generate(1, 2017);
        assert_eq!(
            first[..KEY_LEN],
            [0xa8, 0xeb, 0x74, 0x93, 0xc1, 0xbf, 0x15, 0x66, 0xe4, 0x2d]
        );
        for (seed, uniform, skewed) in [
            (2017, 0x3fbe_be29_d86c_933a, 0x128e_4a31_29a2_c3fd),
            (7, 0x122b_87e7_3351_9456, 0xfabf_a734_91b4_f182),
        ] {
            assert_eq!(key_digest(&generate(1_000, seed)), uniform, "seed {seed}");
            let hot = generate_skewed(1_000, seed, 0.9, 16);
            assert_eq!(key_digest(&hot), skewed, "skewed, seed {seed}");
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
