//! Shared primitive types for the Triangel simulator workspace.
//!
//! This crate holds the vocabulary types used by every other crate in the
//! reproduction of *"Triangel: A High-Performance, Accurate, Timely On-Chip
//! Temporal Prefetcher"* (ISCA 2024):
//!
//! * [`Addr`], [`LineAddr`] and [`Pc`] — newtypes over `u64` that keep byte
//!   addresses, cache-line addresses and program counters statically
//!   distinct (mixing them up is the classic simulator bug).
//! * [`rng`] — small deterministic generators (linear congruential and
//!   SplitMix64). The paper (Section 4.4.3, footnote 6) notes that simple
//!   linear-congruential randomness suffices for the samplers.
//! * [`stats`] — counters, ratios, histograms and the geometric mean used
//!   throughout the evaluation.
//! * [`LineMeta`] / [`FillSource`] — the per-cache-line metadata word
//!   (who filled the line, when the fill completes, demand-used bit)
//!   shared by the cache model, the prefetcher interfaces and the
//!   memory system.
//! * [`hash`] — a deterministic fast hasher ([`hash::FxHashMap`]) for
//!   hot-path lookup tables keyed by simulator-generated values, and
//!   the FNV-1a byte hash ([`hash::fnv1a`]) behind on-disk checksums.
//!
//! # Examples
//!
//! ```
//! use triangel_types::{Addr, LineAddr, CACHE_LINE_BYTES};
//!
//! let a = Addr::new(0xDEAD_BEEF);
//! let line: LineAddr = a.line();
//! assert_eq!(line.byte_addr().get() % CACHE_LINE_BYTES, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
pub mod arena;
mod counter;
pub mod hash;
mod meta;
pub mod rng;
pub mod snap;
pub mod stats;

pub use addr::{
    Addr, LineAddr, Pc, CACHE_LINE_BYTES, LINE_OFFSET_BITS, PAGE_BYTES, PAGE_OFFSET_BITS,
};
pub use counter::SaturatingCounter;
pub use meta::{FillSource, LineMeta};

/// A simulated clock value, measured in core cycles.
pub type Cycle = u64;

/// Hashes a 64-bit value down to `bits` bits by XOR-folding.
///
/// This is the tag-compression hash used for Markov-table tag-#s and
/// PC-tag-#s in both Triage-ISR and Triangel (Sections 3.1 and 4.2 of the
/// paper): the full value is folded onto itself until only `bits` bits
/// remain, so every input bit influences the result.
///
/// # Panics
///
/// Panics if `bits` is zero or greater than 63.
///
/// # Examples
///
/// ```
/// use triangel_types::xor_fold;
///
/// let h = xor_fold(0xDEAD_BEEF_F00D, 10);
/// assert!(h < (1 << 10));
/// // Deterministic:
/// assert_eq!(h, xor_fold(0xDEAD_BEEF_F00D, 10));
/// ```
pub fn xor_fold(value: u64, bits: u32) -> u64 {
    assert!(bits > 0 && bits < 64, "xor_fold requires 0 < bits < 64");
    let mask = (1u64 << bits) - 1;
    let mut v = value;
    let mut acc = 0u64;
    while v != 0 {
        acc ^= v & mask;
        v >>= bits;
    }
    acc & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_fold_stays_in_range() {
        for bits in 1..16 {
            for v in [0u64, 1, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF0] {
                assert!(xor_fold(v, bits) < (1 << bits));
            }
        }
    }

    #[test]
    fn xor_fold_uses_high_bits() {
        // Two values differing only in high bits must (usually) hash apart.
        let a = xor_fold(0x0000_0000_0000_1234, 10);
        let b = xor_fold(0xFFFF_0000_0000_1234, 10);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "xor_fold requires")]
    fn xor_fold_rejects_zero_bits() {
        let _ = xor_fold(1, 0);
    }
}
