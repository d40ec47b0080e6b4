//! A small, fast, non-cryptographic hasher for hot maps.
//!
//! The engine's inner loops key maps by small integers, id pairs, and
//! short interned strings; SipHash (the `std` default) dominates their
//! profile. This is the rustc-style "Fx" multiplicative hash: fold each
//! word into the state with a rotate + xor + multiply. Quality is ample
//! for our key distributions and it is several times faster than the
//! default hasher on 8–32 byte keys.
//!
//! Not DoS-resistant — use only for internal data, never for keys an
//! adversary controls.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiplicative word-at-a-time hasher (rustc's FxHasher scheme).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[..8]);
            self.add(u64::from_le_bytes(buf));
            bytes = &bytes[8..];
        }
        if !bytes.is_empty() {
            let mut buf = [0u8; 8];
            buf[..bytes.len()].copy_from_slice(bytes);
            // Fold the length in so "ab" + "" and "a" + "b" differ.
            buf[7] = bytes.len() as u8;
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] (zero-sized, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes a single value with [`FxHasher`] (convenience for cache keys).
pub fn fx_hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal() {
        assert_eq!(fx_hash_one(&(3u32, 7u32)), fx_hash_one(&(3u32, 7u32)));
        assert_eq!(fx_hash_one(&"hello"), fx_hash_one(&"hello"));
    }

    #[test]
    fn distinct_small_keys_rarely_collide() {
        let mut seen = HashSet::new();
        for a in 0u32..64 {
            for b in 0u32..64 {
                seen.insert(fx_hash_one(&(a, b)));
            }
        }
        assert_eq!(seen.len(), 64 * 64);
    }

    #[test]
    fn map_alias_works() {
        let mut m: FxHashMap<&str, usize> = FxHashMap::default();
        m.insert("a", 1);
        m.insert("b", 2);
        assert_eq!(m.get("a"), Some(&1));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(9);
        assert!(s.contains(&9));
    }

    #[test]
    fn byte_streams_with_different_boundaries_differ() {
        let mut h1 = FxHasher::default();
        h1.write(b"abcdefgh-tail");
        let mut h2 = FxHasher::default();
        h2.write(b"abcdefgh");
        h2.write(b"-tail");
        // Not required to be equal (we fold lengths), just both stable.
        assert_eq!(h1.finish(), {
            let mut h = FxHasher::default();
            h.write(b"abcdefgh-tail");
            h.finish()
        });
        let _ = h2.finish();
    }
}
