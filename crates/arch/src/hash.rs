//! A fast, deterministic hasher for the kernel hot path.
//!
//! The simulator's fault path performs a dozen hash-map operations per
//! page fault (resident tracking, the PSPT directory, the backing-store
//! presence set, policy bookkeeping), all keyed by small integers —
//! block numbers, page numbers, frame numbers. `std`'s default SipHash
//! is DoS-resistant but costs tens of nanoseconds per `u64` key, which
//! is pure overhead here: every key is simulator-internal, so there is
//! no untrusted input to defend against.
//!
//! [`FxHasher`] is the multiply-fold hasher used by rustc (the `FxHash`
//! algorithm): one rotate, one xor, one multiply per word. It is
//! seed-free and therefore *stable across runs and platforms* — one
//! less source of nondeterminism than `RandomState`, which is seeded
//! per process. No map in this workspace iterates in a way that leaks
//! hash order into results (the deterministic engine's reports are
//! min-clock ordered, and every iteration over one of these maps is
//! either order-insensitive or explicitly sorted), but a stable hasher
//! keeps even debug output reproducible.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The rustc `FxHash` multiply constant (a 64-bit truncation of the
/// golden ratio, the same mixer the PSPT page-table lock selector uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One-word-at-a-time multiply-fold hasher. Not DoS-resistant — use
/// only for simulator-internal keys.
#[derive(Default, Clone)]
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
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; zero-sized and seed-free.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(0xdead_beefu64), hash_of(0xdead_beefu64));
        assert_ne!(hash_of(1u64), hash_of(2u64));
    }

    #[test]
    fn integer_and_byte_paths_agree_on_width() {
        // Not required by the Hasher contract, but documents that the
        // word path is what integer keys hit (one multiply per key).
        assert_eq!(hash_of(7u64), {
            let mut h = FxHasher::default();
            h.write_u64(7);
            h.finish()
        });
    }

    #[test]
    fn maps_work_with_u64_keys() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for k in 0..1000u64 {
            m.insert(k, k as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&999));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(42);
        assert!(s.contains(&42));
    }

    #[test]
    fn distributes_small_sequential_keys() {
        // The hot maps are keyed by small sequential block numbers; a
        // degenerate hasher would collapse them onto few buckets and
        // turn O(1) lookups into list scans. Check spread via distinct
        // high bits (HashMap uses the top 7 bits for its control bytes
        // and the low bits for bucket choice — both must vary).
        let hashes: Vec<u64> = (0..4096u64).map(hash_of).collect();
        let distinct_low: FxHashSet<u64> = hashes.iter().map(|h| h & 0xfff).collect();
        let distinct_top: FxHashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(
            distinct_low.len() > 3500,
            "low bits collapse: {}",
            distinct_low.len()
        );
        assert!(
            distinct_top.len() > 100,
            "top bits collapse: {}",
            distinct_top.len()
        );
    }
}
