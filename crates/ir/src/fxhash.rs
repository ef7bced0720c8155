//! A fast, non-cryptographic hasher for the analysis hot paths.
//!
//! Std's default SipHash-1-3 is DoS-resistant but costs real time in
//! the IFDS tables, which hash small `Copy` keys (statement refs,
//! interned fact ids) millions of times per run. This is the classic
//! "Fx" multiply-xor hash used by rustc (the environment has no
//! crates.io access, so `rustc-hash` is reimplemented here, std-only):
//! each 8-byte chunk is folded in with a rotate, xor and multiply by a
//! 64-bit constant derived from the golden ratio. Inputs here are
//! internal ids, never attacker-controlled, so HashDoS is not a
//! concern.
//!
//! [`Fnv1a64`] is the byte hash for values that must not change with
//! the hasher's implementation: snapshot checksums, seed splits and
//! content-derived job names.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant (⌊2⁶⁴/φ⌋, forced odd — the same constant
/// rustc's FxHasher uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-xor hasher.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[..8]);
            self.add_to_hash(u64::from_le_bytes(chunk));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            let mut chunk = [0u8; 4];
            chunk.copy_from_slice(&bytes[..4]);
            self.add_to_hash(u64::from(u32::from_le_bytes(chunk)));
            bytes = &bytes[4..];
        }
        if bytes.len() >= 2 {
            let mut chunk = [0u8; 2];
            chunk.copy_from_slice(&bytes[..2]);
            self.add_to_hash(u64::from(u16::from_le_bytes(chunk)));
            bytes = &bytes[2..];
        }
        if let Some(&b) = bytes.first() {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// Hashes one value with [`FxHasher`] (used for shard selection in the
/// field-sequence arena).
pub fn fxhash64<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// The FNV-1a 64 hasher: one xor and one multiply per byte, with the
/// offset basis and prime fixed by the FNV specification. Callers that
/// hash several variable-length parts write each part's length before
/// its bytes, so the part boundaries are hashed too.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`Fnv1a64`] over one byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(fxhash64(&(1u32, 2u32)), fxhash64(&(1u32, 2u32)));
        assert_ne!(fxhash64(&(1u32, 2u32)), fxhash64(&(2u32, 1u32)));
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        assert!(s.insert((3, 4)));
        assert!(!s.insert((3, 4)));
    }

    #[test]
    fn byte_tail_paths_are_exercised() {
        // 1-, 2-, 4-, 8- and mixed-length writes all fold in.
        let hashes: Vec<u64> = [&b"a"[..], b"ab", b"abcd", b"abcdefgh", b"abcdefghijk"]
            .iter()
            .map(|b| {
                let mut h = FxHasher::default();
                h.write(b);
                h.finish()
            })
            .collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn distribution_is_reasonable() {
        // 16 shards over sequential ids should not collapse into a few
        // buckets.
        let mut counts = [0usize; 16];
        for i in 0..4096u64 {
            counts[(fxhash64(&i) >> 60) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 64, "shard badly underloaded: {counts:?}");
        }
    }
}
