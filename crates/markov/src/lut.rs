//! The 1024-entry prefetch-target lookup table (Section 3.1).

use crate::format::LutAssociativity;

/// The shared upper-bits table Triage's 32-bit format indirects through.
///
/// Each slot holds the upper bits (`target_line >> offset_bits`) of some
/// physical region. Markov entries store a 10-bit slot index; when the
/// slot is re-used for a different region, those Markov entries silently
/// start reconstructing *wrong addresses* — the paper's Fig. 19 accuracy
/// collapse. "Unlike the Markov table, which stops generating prefetches
/// if its capacity is exhausted, the lookup table (accessed only via
/// index) returns addresses the program may never have accessed."
#[derive(Debug, Clone)]
pub struct LookupTable {
    assoc: LutAssociativity,
    slots: Vec<Option<u64>>,
    stamps: Vec<u64>,
    clock: u64,
    evictions: u64,
}

impl LookupTable {
    /// Number of slots (Section 3.1's 1024-entry table); valid slot
    /// indices are `0..CAPACITY`.
    pub(crate) const CAPACITY: usize = 1024;

    /// Creates an empty table.
    pub fn new(assoc: LutAssociativity) -> Self {
        LookupTable {
            assoc,
            slots: vec![None; Self::CAPACITY],
            stamps: vec![0; Self::CAPACITY],
            clock: 0,
            evictions: 0,
        }
    }

    fn set_range(&self, upper: u64) -> (usize, usize) {
        match self.assoc {
            LutAssociativity::Way16 => {
                // 64 sets x 16 ways, indexed by the upper value.
                let set = (upper as usize) % 64;
                (set * 16, 16)
            }
            LutAssociativity::Full => (0, Self::CAPACITY),
        }
    }

    /// Finds the slot holding `upper`, if any (the reverse lookup the
    /// paper notes the structure must support).
    pub fn find(&self, upper: u64) -> Option<u16> {
        let (base, len) = self.set_range(upper);
        (base..base + len)
            .find(|i| self.slots[*i] == Some(upper))
            .map(|i| i as u16)
    }

    /// Returns the slot index for `upper`, allocating (and possibly
    /// evicting an unrelated region) if absent. The eviction is the
    /// silent-corruption event: any Markov entry still holding the old
    /// index now reconstructs a different region's address.
    pub fn index_for(&mut self, upper: u64) -> u16 {
        self.clock += 1;
        if let Some(i) = self.find(upper) {
            self.stamps[i as usize] = self.clock;
            return i;
        }
        let (base, len) = self.set_range(upper);
        // Empty slot first, else LRU victim.
        let victim = (base..base + len)
            .find(|i| self.slots[*i].is_none())
            .unwrap_or_else(|| {
                (base..base + len)
                    .min_by_key(|i| self.stamps[*i])
                    .expect("non-empty set")
            });
        if self.slots[victim].is_some() {
            self.evictions += 1;
        }
        self.slots[victim] = Some(upper);
        self.stamps[victim] = self.clock;
        victim as u16
    }

    /// Reads the upper bits currently stored at `idx` (whatever region
    /// now owns the slot).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= CAPACITY`.
    pub fn upper_at(&self, idx: u16) -> Option<u64> {
        self.slots[idx as usize]
    }

    /// Refreshes recency of `idx` on a prefetch-generation read.
    pub fn touch(&mut self, idx: u16) {
        self.clock += 1;
        self.stamps[idx as usize] = self.clock;
    }

    /// Slots reused for a new region so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Dedicated-storage size in bytes (4-byte tags, per Section 3.1's
    /// "4KiB structure").
    pub fn size_bytes(&self) -> usize {
        Self::CAPACITY * 4
    }
}

use triangel_types::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for LookupTable {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.slots.len());
        for s in &self.slots {
            match s {
                Some(upper) => {
                    w.bool(true);
                    w.u64(*upper);
                }
                None => w.bool(false),
            }
        }
        for s in &self.stamps {
            w.u64(*s);
        }
        w.u64(self.clock);
        w.u64(self.evictions);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.expect_len(self.slots.len(), "LUT slots")?;
        for s in &mut self.slots {
            *s = if r.bool()? { Some(r.u64()?) } else { None };
        }
        for s in &mut self.stamps {
            *s = r.u64()?;
        }
        self.clock = r.u64()?;
        self.evictions = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut lut = LookupTable::new(LutAssociativity::Way16);
        let i = lut.index_for(0xABC);
        assert_eq!(lut.upper_at(i), Some(0xABC));
        assert_eq!(lut.find(0xABC), Some(i));
        assert_eq!(lut.index_for(0xABC), i, "stable index for same region");
    }

    #[test]
    fn eviction_corrupts_stale_indices() {
        let mut lut = LookupTable::new(LutAssociativity::Way16);
        // Fill one set (uppers congruent mod 64) past its 16 ways.
        let first = lut.index_for(64);
        for k in 1..=16u64 {
            let _ = lut.index_for(64 + k * 64);
        }
        // Slot `first` now belongs to someone else: a stale Markov entry
        // holding `first` reconstructs the wrong region.
        assert_ne!(lut.upper_at(first), Some(64));
        assert!(lut.evictions() > 0);
    }

    #[test]
    fn full_assoc_uses_whole_table() {
        let mut lut = LookupTable::new(LutAssociativity::Full);
        for k in 0..LookupTable::CAPACITY as u64 {
            let _ = lut.index_for(k * 64); // same set under Way16
        }
        assert_eq!(lut.occupancy(), LookupTable::CAPACITY);
        assert_eq!(lut.evictions(), 0);
    }

    #[test]
    fn way16_capacity_is_per_set() {
        let mut lut = LookupTable::new(LutAssociativity::Way16);
        for k in 0..32u64 {
            let _ = lut.index_for(k * 64); // all map to set 0
        }
        // Only 16 can coexist.
        assert_eq!(lut.occupancy(), 16);
        assert_eq!(lut.evictions(), 16);
    }

    #[test]
    fn lru_keeps_hot_regions() {
        let mut lut = LookupTable::new(LutAssociativity::Way16);
        let hot = lut.index_for(0);
        for k in 1..16u64 {
            let _ = lut.index_for(k * 64);
        }
        lut.touch(hot);
        let _ = lut.index_for(16 * 64); // evicts someone, not `hot`
        assert_eq!(lut.upper_at(hot), Some(0));
    }

    #[test]
    fn size_matches_paper() {
        assert_eq!(LookupTable::new(LutAssociativity::Way16).size_bytes(), 4096);
    }
}
