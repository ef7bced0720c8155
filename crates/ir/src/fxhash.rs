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
//! golden fingerprints. [`WordHasher`] names whole app archives: it
//! reads eight bytes at a time in four independent lanes, so it runs at
//! a few bytes per cycle where FNV-1a takes several cycles per byte.

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

/// Multipliers of [`WordHasher`]'s lane step and finalizer (odd, from
/// SplitMix64 and MurmurHash3's `fmix64`).
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const FMIX_MUL1: u64 = 0xff51_afd7_ed55_8ccd;
const FMIX_MUL2: u64 = 0xc4ce_b9fe_1a85_ec53;

/// A 64-bit hash of byte strings that reads little-endian `u64` words
/// in four lanes, a 32-byte block at a time.
///
/// Each lane takes its word with an xor, a multiply by an odd constant
/// and an xor-shift: both steps are bijections, so a lane's final state
/// differs whenever one of its words does, and the xor-shift carries
/// high bits down where a word-wise FNV or Fx hash only carries low bits
/// up. [`Hasher::finish`] pads the last partial block with zeros,
/// starts from the total length and folds in each lane through
/// MurmurHash3's `fmix64` finalizer, a bijection in which every input
/// bit can flip every output bit. So two inputs of one length that
/// differ in one bit always hash apart. Not a cryptographic hash: it
/// names content, it does not defend against a chosen collision.
///
/// The result depends only on the bytes written, in order, not on how
/// they were split across [`Hasher::write`] calls; integers are written
/// little-endian on every platform.
#[derive(Clone, Debug)]
pub struct WordHasher {
    lanes: [u64; 4],
    /// The bytes of a block not yet full.
    buf: [u8; 32],
    buffered: usize,
    len: u64,
}

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher {
            lanes: [
                0x243f_6a88_85a3_08d3,
                0x1319_8a2e_0370_7344,
                0xa409_3822_299f_31d0,
                0x082e_fa98_ec4e_6c89,
            ],
            buf: [0; 32],
            buffered: 0,
            len: 0,
        }
    }
}

#[inline]
fn lane_step(lane: u64, word: u64) -> u64 {
    let v = (lane ^ word).wrapping_mul(LANE_MUL);
    v ^ (v >> 32)
}

fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(FMIX_MUL1);
    h ^= h >> 33;
    h = h.wrapping_mul(FMIX_MUL2);
    h ^ (h >> 33)
}

fn word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

impl WordHasher {
    /// Folds whole 32-byte blocks into the lanes.
    fn blocks(&mut self, blocks: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for block in blocks.chunks_exact(32) {
            a = lane_step(a, word(&block[..8]));
            b = lane_step(b, word(&block[8..16]));
            c = lane_step(c, word(&block[16..24]));
            d = lane_step(d, word(&block[24..]));
        }
        self.lanes = [a, b, c, d];
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.buffered > 0 {
            let take = bytes.len().min(32 - self.buffered);
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < 32 {
                return;
            }
            let block = self.buf;
            self.blocks(&block);
            self.buffered = 0;
        }
        let whole = bytes.len() - bytes.len() % 32;
        self.blocks(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.buffered > 0 {
            let mut block = [0u8; 32];
            block[..self.buffered].copy_from_slice(&self.buf[..self.buffered]);
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = lane_step(*lane, word(w));
            }
        }
        lanes.iter().fold(fmix64(self.len), |h, &lane| fmix64(h ^ lane))
    }
}

/// [`WordHasher`] over one byte string.
pub fn word_hash64(bytes: &[u8]) -> u64 {
    let mut h = WordHasher::default();
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
    fn word_hash64_matches_the_reference_vectors() {
        let long: Vec<u8> = (0..100u8).collect();
        let got = [word_hash64(b""), word_hash64(b"a"), word_hash64(b"foobar"), word_hash64(&long)];
        let want = [
            0xaa80_f746_6ca3_941f,
            0x2530_3ca8_bf66_1966,
            0xfb84_3d50_fe5c_9fb0,
            0xbcf5_6363_82b2_6113,
        ];
        assert_eq!(got, want, "{got:#018x?}");
    }

    #[test]
    fn word_hash_ignores_how_the_bytes_are_split() {
        let bytes: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = word_hash64(&bytes);
        for cuts in [[0, 1, 2], [5, 31, 32], [32, 64, 65], [7, 100, 199]] {
            let mut h = WordHasher::default();
            let mut at = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                h.write(&bytes[at..cut]);
                at = cut;
            }
            assert_eq!(h.finish(), whole, "split at {cuts:?}");
        }
        let mut h = WordHasher::default();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(h.finish(), word_hash64(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }

    #[test]
    fn every_single_bit_flip_changes_the_word_hash() {
        // Lengths around the block and word boundaries, so the flipped
        // bit lands in whole blocks, the padded tail and every lane.
        for len in [1, 7, 8, 31, 32, 33, 64, 97] {
            let mut bytes: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(37)).collect();
            let base = word_hash64(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(word_hash64(&bytes), base, "len {len}, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        // A trailing zero byte is not padding.
        assert_ne!(word_hash64(b"abc"), word_hash64(b"abc\0"));
    }

    #[test]
    fn word_hash_output_bits_each_flip_about_half_the_time() {
        // Avalanche: flipping one input bit flips each output bit with
        // probability near 1/2, high input bits reaching low output bits
        // too. 64 inputs of 40 bytes, every input bit flipped once.
        let mut flips = [0u32; 64];
        let mut trials = 0u32;
        for seed in 0..64u64 {
            let mut bytes: Vec<u8> =
                (0..40u64).map(|i| (fxhash64(&(seed, i)) >> 56) as u8).collect();
            let base = word_hash64(&bytes);
            for bit in 0..bytes.len() * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                let diff = word_hash64(&bytes) ^ base;
                bytes[bit / 8] ^= 1 << (bit % 8);
                for (o, f) in flips.iter_mut().enumerate() {
                    *f += (diff >> o) as u32 & 1;
                }
                trials += 1;
            }
        }
        for (o, &f) in flips.iter().enumerate() {
            let rate = f64::from(f) / f64::from(trials);
            assert!((0.45..0.55).contains(&rate), "output bit {o} flipped at rate {rate}");
        }
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
