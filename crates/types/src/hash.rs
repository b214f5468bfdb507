//! Deterministic hashing: a fast hasher for hot-path lookup tables,
//! and the FNV-1a byte hash behind every on-disk checksum and file stem.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3 with per-process
//! random keys — robust against adversarial keys, but several times the
//! cost of the multiply-rotate mix below on the simulator's `u64` keys
//! (page numbers, PCs, line addresses), and randomly seeded, which is
//! pointless in a simulator whose outputs must be a pure function of
//! its inputs. This is the FxHash construction (a single wrapping
//! multiply per word, as used by rustc itself).
//!
//! Determinism note: swapping a table's hasher changes only *iteration
//! order*, never lookup results. The workspace's hot-path tables are
//! queried by key and never fold over iteration order (reductions that
//! do, sort first), so using [`FxHashMap`] is output-neutral — and,
//! unlike `RandomState`, makes the hash itself reproducible too.
//!
//! [`fnv1a`] is the 64-bit FNV-1a hash. It checksums recorded trace
//! files and names and checksums result-store entries, so its output
//! is part of those on-disk formats and must never change.
//!
//! # Examples
//!
//! ```
//! use triangel_types::hash::FxHashMap;
//!
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(42, "line");
//! assert_eq!(m.get(&42), Some(&"line"));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit FNV-1a offset basis: the seed of a fresh [`fnv1a`] hash.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// 64-bit FNV-1a over `bytes`, continuing from `seed`.
///
/// Start from [`FNV_OFFSET`]; feeding the result back in as the next
/// seed hashes a byte stream incrementally, chunk by chunk.
///
/// ```
/// use triangel_types::hash::{fnv1a, FNV_OFFSET};
///
/// let whole = fnv1a(FNV_OFFSET, b"trace");
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"tr"), b"ace"), whole);
/// ```
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(seed, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The 64-bit FxHash multiplier (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast multiply-rotate hasher for simulator keys.
///
/// Not DoS-resistant — do not use it for tables keyed by untrusted
/// external input. Simulation keys (addresses, PCs, page numbers) are
/// generated by the workloads themselves.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
        // Mix the length so byte strings differing only in trailing
        // zeros (which the padding above would conflate) hash apart.
        self.mix(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`] (deterministic: no random state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn deterministic_across_builders() {
        let a = FxBuildHasher::default().hash_one(0xDEAD_BEEFu64);
        let b = FxBuildHasher::default().hash_one(0xDEAD_BEEFu64);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_keys_usually_hash_apart() {
        let build = FxBuildHasher::default();
        let mut seen = std::collections::HashSet::new();
        for k in 0..10_000u64 {
            seen.insert(build.hash_one(k));
        }
        assert_eq!(seen.len(), 10_000, "trivial collisions on sequential keys");
    }

    #[test]
    fn trailing_zero_bytes_hash_apart() {
        let build = FxBuildHasher::default();
        assert_ne!(
            build.hash_one(b"ab".as_slice()),
            build.hash_one(b"ab\0".as_slice())
        );
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        let mut s: FxHashSet<u64> = FxHashSet::default();
        for k in 0..100u64 {
            m.insert(k, k * 3);
            s.insert(k);
        }
        assert_eq!(m.get(&40), Some(&120));
        assert!(s.contains(&99) && !s.contains(&100));
    }
}
