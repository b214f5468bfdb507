//! The set-associative cache model.

use crate::config::CacheConfig;
use crate::replacement::{all_ways, AccessMeta, ReplacementImpl, ReplacementPolicy, WayMask};
use triangel_types::{Cycle, FillSource, LineAddr, LineMeta, Pc};

/// One cache line's bookkeeping state, packed into four `u64` words (32
/// bytes, so a 16-way set spans eight 64-byte host cache lines). It
/// includes the simulation metadata word ([`LineMeta`]) that used to
/// live in `MemorySystem` side tables: who filled the line, when the
/// fill's data arrives, and whether a demand has touched it since.
///
/// Two invariants make the packing lossless; [`Cache::fill_at`] asserts
/// both and [`Snapshot::restore`] rejects data that breaks them:
///
/// * a line index is below 2^63, so bit 63 of `tag` is free to mark the
///   way valid;
/// * a fill ordinal is below 2^56, so the flag bits fit above it in
///   `seq`.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    /// The line index, with [`VALID`] set while the way holds it. An
    /// invalidated way keeps its former index (the snapshot records it).
    tag: u64,
    /// Cycle the fill's data arrives (late-prefetch timing).
    ready_at: Cycle,
    /// The fill ordinal (the cache's fill clock at install time; see
    /// [`Cache`]'s `fill_clock`) under [`SEQ_MASK`], plus the
    /// [`TAGGED`], [`USED`] and [`HAS_PC`] flags and the two
    /// [`FillSource`] bits at [`SOURCE_SHIFT`].
    seq: u64,
    /// The PC recorded at fill time; meaningful only under [`HAS_PC`].
    pc: u64,
}

/// `Line::tag` bit marking the way valid.
const VALID: u64 = 1 << 63;
/// `Line::seq` bits holding the fill ordinal.
const SEQ_MASK: u64 = (1 << 56) - 1;
/// Prefetch tag bit: set when the line was filled by a prefetch and has
/// not yet been demanded. The first demand hit to such a line is a
/// "tagged prefetch hit" and trains temporal prefetchers exactly as a
/// miss would (Section 2 of the paper).
const TAGGED: u64 = 1 << 56;
/// Whether the line has been demand-accessed since fill; used to
/// classify evictions for accuracy accounting.
const USED: u64 = 1 << 57;
/// Whether `Line::pc` holds a fill PC.
const HAS_PC: u64 = 1 << 58;
/// Position of the two [`FillSource`] bits (its snapshot tag).
const SOURCE_SHIFT: u32 = 59;
const SOURCE_MASK: u64 = 0b11 << SOURCE_SHIFT;

impl Line {
    fn new(
        line: LineAddr,
        pc: Option<Pc>,
        source: FillSource,
        tagged: bool,
        ready_at: Cycle,
        fill_seq: u64,
    ) -> Self {
        let mut seq = fill_seq | (u64::from(source.snap_tag()) << SOURCE_SHIFT);
        seq |= if tagged { TAGGED } else { USED };
        if pc.is_some() {
            seq |= HAS_PC;
        }
        Line {
            tag: line.index() | VALID,
            ready_at,
            seq,
            pc: pc.map_or(0, Pc::get),
        }
    }

    fn is_valid(&self) -> bool {
        self.tag & VALID != 0
    }

    fn line(&self) -> LineAddr {
        LineAddr::new(self.tag & !VALID)
    }

    fn flag(&self, bit: u64) -> bool {
        self.seq & bit != 0
    }

    fn set_flag(&mut self, bit: u64, on: bool) {
        if on {
            self.seq |= bit;
        } else {
            self.seq &= !bit;
        }
    }

    /// Records a demand hit: consumes the prefetch tag and marks the
    /// line used. Returns whether the tag was still set.
    fn demand_touch(&mut self) -> bool {
        let first_use = self.flag(TAGGED);
        self.seq = (self.seq & !TAGGED) | USED;
        first_use
    }

    fn fill_seq(&self) -> u64 {
        self.seq & SEQ_MASK
    }

    fn source(&self) -> FillSource {
        let tag = ((self.seq & SOURCE_MASK) >> SOURCE_SHIFT) as u8;
        FillSource::from_snap_tag(tag).expect("packed fill source")
    }

    fn set_source(&mut self, source: FillSource) {
        self.seq = (self.seq & !SOURCE_MASK) | (u64::from(source.snap_tag()) << SOURCE_SHIFT);
    }

    fn fill_pc(&self) -> Option<Pc> {
        self.flag(HAS_PC).then_some(Pc::new(self.pc))
    }

    fn meta(&self) -> LineMeta {
        LineMeta {
            source: self.source(),
            ready_at: self.ready_at,
            used: self.flag(USED),
            fill_seq: self.fill_seq(),
        }
    }

    fn to_evicted(self, evict_seq: u64) -> EvictedLine {
        EvictedLine {
            line: self.line(),
            was_unused_prefetch: self.flag(TAGGED),
            was_used: self.flag(USED),
            source: self.source(),
            ready_at: self.ready_at,
            fill_seq: self.fill_seq(),
            evict_seq,
            fill_pc: self.fill_pc(),
        }
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The line was present.
    pub hit: bool,
    /// The line was present, was filled by a prefetch, and this was its
    /// first demand use — a *tagged prefetch hit*.
    pub prefetch_hit: bool,
    /// The hit line's metadata word (as of after this access updated
    /// it); `None` on a miss.
    pub meta: Option<LineMeta>,
}

/// Describes a line displaced by a fill or invalidation, carrying its
/// final metadata word so used/wasted prefetch attribution happens
/// exactly where the line dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The displaced line address.
    pub line: LineAddr,
    /// The line was prefetched and never demand-used (a wasted prefetch).
    pub was_unused_prefetch: bool,
    /// The line was demand-used at least once while resident.
    pub was_used: bool,
    /// Who filled the line.
    pub source: FillSource,
    /// Cycle the line's fill completed (from its metadata word).
    pub ready_at: Cycle,
    /// Fill-clock ordinal of the fill that installed the dying line.
    pub fill_seq: u64,
    /// Fill-clock reading at the eviction itself. For a conflict
    /// eviction this is the incoming fill's own ordinal, so
    /// `fill_seq < evict_seq` holds strictly; invalidations and
    /// way-mask flushes read the clock without advancing it, so there
    /// `fill_seq <= evict_seq`.
    pub evict_seq: u64,
    /// PC recorded at fill time, if any.
    pub fill_pc: Option<Pc>,
}

impl EvictedLine {
    /// The dying line's metadata word.
    pub fn meta(&self) -> LineMeta {
        LineMeta {
            source: self.source,
            ready_at: self.ready_at,
            used: self.was_used,
            fill_seq: self.fill_seq,
        }
    }
}

/// Result of a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Whatever line had to be displaced, if the fill replaced one.
    pub evicted: Option<EvictedLine>,
    /// The set the line was installed into.
    pub set: usize,
    /// The way the line was installed into.
    pub way: usize,
}

/// Running event counts for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub demand_hits: u64,
    /// Demand lookups that missed.
    pub demand_misses: u64,
    /// Tagged prefetch hits (subset of `demand_hits`).
    pub prefetch_hits: u64,
    /// Prefetch lookups (to decide whether a prefetch is redundant).
    pub prefetch_lookups: u64,
    /// Lines filled.
    pub fills: u64,
    /// Valid lines displaced by fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Total demand accesses.
    pub fn demand_accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses
    }

    /// Demand hit rate in `[0, 1]`; zero when no accesses were recorded.
    pub fn hit_rate(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.demand_hits as f64 / total as f64
        }
    }
}

impl triangel_obs::Probe for CacheStats {
    fn probe(&self, out: &mut triangel_obs::ProbeSet) {
        out.record("demand_hits", self.demand_hits);
        out.record("demand_misses", self.demand_misses);
        out.record("prefetch_hits", self.prefetch_hits);
        out.record("prefetch_lookups", self.prefetch_lookups);
        out.record("fills", self.fills);
        out.record("evictions", self.evictions);
    }
}

/// A set-associative cache with pluggable replacement, prefetch tag bits
/// and way masking (for the L3 Markov partition).
///
/// Ways are stored as one array of 32-byte records, set after set, so
/// a lookup scans one contiguous run: a 16-way set is 512 bytes. Each
/// record packs the valid bit into bit 63 of the tag word and the
/// prefetch tag, used, has-PC and fill-source bits above a 56-bit fill
/// ordinal. [`Cache::fill_at`] asserts that a line index stays below
/// 2^63 and the fill clock below 2^56; a snapshot that breaks either
/// bound fails to restore with [`SnapError::Corrupt`]. A lookup of an
/// index with bit 63 set misses.
///
/// # Examples
///
/// ```
/// use triangel_cache::{Cache, CacheConfig};
/// use triangel_cache::replacement::PolicyKind;
/// use triangel_types::LineAddr;
///
/// let mut c = Cache::new(CacheConfig::new("L2", 512 * 1024, 8, PolicyKind::Lru));
/// let line = LineAddr::new(42);
/// assert!(!c.access(line, None, false).hit);
/// c.fill(line, None, true); // prefetch fill
/// let out = c.access(line, None, false);
/// assert!(out.hit && out.prefetch_hit); // first demand use of a prefetch
/// assert!(!c.access(line, None, false).prefetch_hit); // tag consumed
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    /// Enum-dispatched so victim selection inlines into the set scan
    /// (no virtual call per access).
    policy: ReplacementImpl,
    way_mask: WayMask,
    stats: CacheStats,
    /// Monotonic fill clock: incremented on every installing fill and
    /// stamped onto the installed line. Deliberately *not* part of
    /// [`CacheStats`] — `reset_stats` must never rewind it, or fill
    /// ordinals from before a measurement reset would compare wrongly
    /// against evictions after it.
    fill_clock: u64,
    /// Geometry cached out of `cfg` — `CacheConfig::sets` divides, and
    /// the hot path indexes on every access.
    ways: usize,
    set_mask: usize,
}

impl Cache {
    /// Builds a cache from its configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways();
        let policy = cfg.policy().build_impl(sets, ways);
        Cache {
            lines: vec![Line::default(); sets * ways],
            policy,
            way_mask: all_ways(ways),
            cfg,
            stats: CacheStats::default(),
            fill_clock: 0,
            ways,
            set_mask: sets - 1,
        }
    }

    /// Returns the configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets accumulated statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Returns the set index a line maps to.
    pub fn set_of(&self, line: LineAddr) -> usize {
        (line.index() as usize) & self.set_mask
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        // An index with the valid bit set cannot be resident (`fill_at`
        // refuses it), and would otherwise alias the line without it.
        if line.index() & VALID != 0 {
            return None;
        }
        let key = line.index() | VALID;
        let set = self.set_of(line);
        let ways = self.ways;
        let base = set * ways;
        // One contiguous scan of the set — this is the single hottest
        // loop in the simulator (every access walks it at least once).
        // One word per way: the valid bit rides in the tag.
        self.lines[base..base + ways]
            .iter()
            .position(|l| l.tag == key)
            .map(|w| (set, w))
    }

    /// Looks up `line`, updating replacement and prefetch-tag state.
    ///
    /// `is_prefetch` marks lookups made on behalf of the prefetcher (to
    /// filter redundant prefetches); they do not clear prefetch tags and
    /// are not counted as demand traffic.
    pub fn access(&mut self, line: LineAddr, pc: Option<Pc>, is_prefetch: bool) -> AccessOutcome {
        let meta = AccessMeta {
            line,
            pc,
            is_prefetch,
        };
        if is_prefetch {
            self.stats.prefetch_lookups += 1;
            let hit = self.find(line).is_some();
            return AccessOutcome {
                hit,
                prefetch_hit: false,
                meta: None,
            };
        }
        match self.find(line) {
            Some((set, way)) => {
                self.stats.demand_hits += 1;
                let slot = self.slot(set, way);
                let hit = &mut self.lines[slot];
                let first_use_of_prefetch = hit.demand_touch();
                let hit_meta = hit.meta();
                self.stats.prefetch_hits += u64::from(first_use_of_prefetch);
                self.policy.on_hit(set, way, &meta);
                AccessOutcome {
                    hit: true,
                    prefetch_hit: first_use_of_prefetch,
                    meta: Some(hit_meta),
                }
            }
            None => {
                self.stats.demand_misses += 1;
                AccessOutcome {
                    hit: false,
                    prefetch_hit: false,
                    meta: None,
                }
            }
        }
    }

    /// Peeks for `line` without updating any state.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Peeks at `line`'s metadata word without updating any state
    /// (policy- and prefetcher-visible; `None` when not resident).
    pub fn line_meta(&self, line: LineAddr) -> Option<LineMeta> {
        let (set, way) = self.find(line)?;
        Some(self.lines[self.slot(set, way)].meta())
    }

    /// Installs `line`, evicting if necessary (convenience form of
    /// [`Cache::fill_at`]: a prefetch fill is attributed to the stride
    /// prefetcher and tagged, with an immediately-ready timestamp).
    pub fn fill(&mut self, line: LineAddr, pc: Option<Pc>, is_prefetch: bool) -> FillOutcome {
        let source = if is_prefetch {
            FillSource::Stride
        } else {
            FillSource::Demand
        };
        self.fill_at(line, pc, source, is_prefetch, 0)
    }

    /// Installs `line`, evicting if necessary, recording the full
    /// metadata word: who filled it (`source`), whether it gets the
    /// prefetch tag bit (`tagged` — the memory system tags temporal L2
    /// fills and L1/L3 prefetch fills, but treats stride fills into the
    /// L2 as demand-like), and when the fill's data arrives
    /// (`ready_at`).
    ///
    /// Filling a line already present refreshes its metadata instead of
    /// duplicating it: the word is overwritten, and a demand (untagged)
    /// refill clears the prefetch tag while a prefetch refill keeps the
    /// stronger (demand) tag state. A refresh does not advance the fill
    /// clock or restamp `fill_seq` — the line's install ordinal is the
    /// fill that actually brought it in.
    ///
    /// # Panics
    ///
    /// Panics if `line`'s index has bit 63 set (no line at or below
    /// [`LineAddr::MAX`] does), or if this would be the cache's 2^56th
    /// installing fill: neither fits the packed record.
    pub fn fill_at(
        &mut self,
        line: LineAddr,
        pc: Option<Pc>,
        source: FillSource,
        tagged: bool,
        ready_at: Cycle,
    ) -> FillOutcome {
        let meta = AccessMeta {
            line,
            pc,
            is_prefetch: source.is_prefetch(),
        };
        if let Some((set, way)) = self.find(line) {
            // Already present (e.g. demand fill racing a prefetch fill):
            // treat as a touch.
            let slot = self.slot(set, way);
            let present = &mut self.lines[slot];
            if !tagged {
                present.set_flag(TAGGED, false);
            }
            present.set_source(source);
            present.ready_at = ready_at;
            self.policy.on_hit(set, way, &meta);
            return FillOutcome {
                evicted: None,
                set,
                way,
            };
        }

        assert!(
            line.index() & VALID == 0 && self.fill_clock < SEQ_MASK,
            "line index or fill clock overflows its packed field"
        );
        self.stats.fills += 1;
        self.fill_clock += 1;
        let set = self.set_of(line);
        // Fill an invalid eligible way first.
        let way = (0..self.cfg.ways())
            .filter(|w| self.way_mask & (1 << w) != 0)
            .find(|w| !self.lines[self.slot(set, *w)].is_valid())
            .unwrap_or_else(|| {
                let w = self.policy.victim(set, self.way_mask);
                debug_assert!(self.way_mask & (1 << w) != 0);
                w
            });

        let slot = self.slot(set, way);
        let evicted = if self.lines[slot].is_valid() {
            self.stats.evictions += 1;
            let old = self.lines[slot];
            self.policy.on_evict(set, way, old.line());
            Some(old.to_evicted(self.fill_clock))
        } else {
            None
        };

        self.lines[slot] = Line::new(line, pc, source, tagged, ready_at, self.fill_clock);
        self.policy.on_fill(set, way, &meta);
        FillOutcome { evicted, set, way }
    }

    /// Invalidates `line` if present, returning its eviction record.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let (set, way) = self.find(line)?;
        Some(self.invalidate_slot(set, way))
    }

    fn invalidate_slot(&mut self, set: usize, way: usize) -> EvictedLine {
        let slot = self.slot(set, way);
        let old = self.lines[slot];
        self.lines[slot].tag &= !VALID;
        self.policy.on_invalidate(set, way);
        old.to_evicted(self.fill_clock)
    }

    /// Restricts fills and victims to the ways in `mask`, invalidating
    /// any resident lines outside it. Returns the displaced lines.
    ///
    /// This is how the L3 hands ways over to the Markov partition
    /// (Section 3.2): shrinking the data mask flushes the surrendered
    /// ways.
    ///
    /// # Panics
    ///
    /// Panics if `mask` selects no way.
    pub fn set_way_mask(&mut self, mask: WayMask) -> Vec<EvictedLine> {
        assert!(
            mask & all_ways(self.cfg.ways()) != 0,
            "way mask must keep at least one way"
        );
        self.way_mask = mask;
        let mut flushed = Vec::new();
        for set in 0..self.cfg.sets() {
            for way in 0..self.cfg.ways() {
                if mask & (1 << way) == 0 && self.lines[self.slot(set, way)].is_valid() {
                    flushed.push(self.invalidate_slot(set, way));
                }
            }
        }
        flushed
    }

    /// Returns the current way mask.
    pub fn way_mask(&self) -> WayMask {
        self.way_mask
    }

    /// Returns the number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.is_valid()).count()
    }

    /// Iterates over the valid resident lines (for diagnostics/tests).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines.iter().filter(|l| l.is_valid()).map(|l| l.line())
    }
}

use triangel_types::snap::{snap_check, SnapError, SnapReader, SnapWriter, Snapshot};

impl Snapshot for CacheStats {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u64(self.demand_hits);
        w.u64(self.demand_misses);
        w.u64(self.prefetch_hits);
        w.u64(self.prefetch_lookups);
        w.u64(self.fills);
        w.u64(self.evictions);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.demand_hits = r.u64()?;
        self.demand_misses = r.u64()?;
        self.prefetch_hits = r.u64()?;
        self.prefetch_lookups = r.u64()?;
        self.fills = r.u64()?;
        self.evictions = r.u64()?;
        Ok(())
    }
}

impl Snapshot for Line {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.u64(self.line().index());
        w.bool(self.is_valid());
        w.bool(self.flag(TAGGED));
        w.u8(self.source().snap_tag());
        w.u64(self.ready_at);
        w.bool(self.flag(USED));
        w.u64(self.fill_seq());
        w.opt_u64(self.fill_pc().map(Pc::get));
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        let index = r.u64()?;
        snap_check(index & VALID == 0, "cache line index has bit 63 set")?;
        let valid = r.bool()?;
        let tagged = r.bool()?;
        let source = FillSource::from_snap_tag(r.u8()?)?;
        let ready_at = r.u64()?;
        let used = r.bool()?;
        let fill_seq = r.u64()?;
        snap_check(
            fill_seq <= SEQ_MASK,
            "cache line fill ordinal at or above 2^56",
        )?;
        let pc = r.opt_u64()?.map(Pc::new);
        *self = Line::new(LineAddr::new(index), pc, source, tagged, ready_at, fill_seq);
        // `new` derives the used bit from `tagged`; a snapshot records it.
        self.set_flag(USED, used);
        if !valid {
            self.tag &= !VALID;
        }
        Ok(())
    }
}

impl Snapshot for Cache {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.usize(self.lines.len());
        for line in &self.lines {
            line.save(w)?;
        }
        self.policy.save(w)?;
        w.u64(self.way_mask);
        self.stats.save(w)?;
        w.u64(self.fill_clock);
        Ok(())
    }

    fn restore(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.expect_len(self.lines.len(), "cache lines")?;
        for line in &mut self.lines {
            line.restore(r)?;
        }
        self.policy.restore(r)?;
        self.way_mask = r.u64()?;
        snap_check(
            self.way_mask & all_ways(self.ways) != 0,
            "cache way mask selects no way",
        )?;
        self.stats.restore(r)?;
        self.fill_clock = r.u64()?;
        snap_check(
            self.fill_clock <= SEQ_MASK,
            "cache fill clock at or above 2^56",
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::PolicyKind;

    fn tiny(ways: usize) -> Cache {
        // 4 sets x `ways`.
        Cache::new(CacheConfig::new(
            "t",
            4 * ways as u64 * 64,
            ways,
            PolicyKind::Lru,
        ))
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny(2);
        let l = LineAddr::new(5);
        assert!(!c.access(l, None, false).hit);
        c.fill(l, None, false);
        assert!(c.access(l, None, false).hit);
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn prefetch_tag_consumed_once() {
        let mut c = tiny(2);
        let l = LineAddr::new(9);
        c.fill(l, None, true);
        assert!(c.access(l, None, false).prefetch_hit);
        assert!(!c.access(l, None, false).prefetch_hit);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn prefetch_lookup_does_not_consume_tag() {
        let mut c = tiny(2);
        let l = LineAddr::new(9);
        c.fill(l, None, true);
        assert!(c.access(l, None, true).hit);
        assert!(c.access(l, None, false).prefetch_hit);
    }

    #[test]
    fn conflict_eviction_reports_victim() {
        let mut c = tiny(1);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4); // same set (4 sets)
        c.fill(a, None, true);
        let out = c.fill(b, None, false);
        let ev = out.evicted.expect("must evict");
        assert_eq!(ev.line, a);
        assert!(ev.was_unused_prefetch);
        assert!(!ev.was_used);
    }

    #[test]
    fn used_bit_tracked_through_eviction() {
        let mut c = tiny(1);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        c.fill(a, None, true);
        c.access(a, None, false); // consume tag, mark used
        let ev = c.fill(b, None, false).evicted.unwrap();
        assert!(ev.was_used);
        assert!(!ev.was_unused_prefetch);
    }

    #[test]
    fn fill_clock_orders_fills_before_their_evictions() {
        let mut c = tiny(1);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4); // same set
        c.fill(a, None, false);
        let seq_a = c.line_meta(a).unwrap().fill_seq;
        assert_eq!(seq_a, 1, "first fill stamps ordinal 1");
        // A refresh keeps the install ordinal and does not tick the clock.
        c.fill(a, None, false);
        assert_eq!(c.line_meta(a).unwrap().fill_seq, seq_a);
        // A conflict eviction carries the evicting fill's ordinal,
        // strictly after the victim's.
        let ev = c.fill(b, None, false).evicted.unwrap();
        assert_eq!(ev.fill_seq, seq_a);
        assert_eq!(ev.evict_seq, 2);
        assert!(ev.fill_seq < ev.evict_seq);
        assert_eq!(ev.meta().fill_seq, seq_a);
        // An invalidation reads the clock without advancing it.
        let ev = c.invalidate(b).unwrap();
        assert_eq!(ev.fill_seq, 2);
        assert_eq!(ev.evict_seq, 2, "invalidation does not tick the clock");
        // The clock survives a stats reset (it is not a statistic).
        c.fill(a, None, false);
        c.reset_stats();
        let ev = c.fill(b, None, false).evicted.unwrap();
        assert!(ev.fill_seq < ev.evict_seq);
        assert_eq!(ev.evict_seq, 4);
    }

    #[test]
    fn refill_does_not_duplicate() {
        let mut c = tiny(2);
        let l = LineAddr::new(3);
        c.fill(l, None, false);
        c.fill(l, None, false);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn demand_refill_clears_prefetch_tag() {
        let mut c = tiny(2);
        let l = LineAddr::new(3);
        c.fill(l, None, true);
        c.fill(l, None, false);
        assert!(!c.access(l, None, false).prefetch_hit);
    }

    #[test]
    fn way_mask_restricts_and_flushes() {
        let mut c = tiny(4);
        // Fill all 4 ways of set 0.
        for i in 0..4u64 {
            c.fill(LineAddr::new(i * 4), None, false);
        }
        assert_eq!(c.occupancy(), 4);
        let flushed = c.set_way_mask(0b0011);
        assert_eq!(flushed.len(), 2);
        assert_eq!(c.occupancy(), 2);
        // New fills only land in ways 0..2: capacity of set 0 is now 2.
        for i in 0..8u64 {
            c.fill(LineAddr::new(i * 4), None, false);
        }
        let set0 = (0..4)
            .map(|i| LineAddr::new(i * 4))
            .filter(|l| c.contains(*l))
            .count();
        assert!(set0 <= 2);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn way_mask_cannot_be_empty() {
        let mut c = tiny(2);
        let _ = c.set_way_mask(0);
    }

    #[test]
    fn lru_order_respected() {
        let mut c = tiny(2);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        let d = LineAddr::new(8); // all map to set 0
        c.fill(a, None, false);
        c.fill(b, None, false);
        c.access(a, None, false); // a is MRU
        let ev = c.fill(d, None, false).evicted.unwrap();
        assert_eq!(ev.line, b);
    }

    #[test]
    fn metadata_word_travels_fill_hit_evict() {
        let mut c = tiny(1);
        let a = LineAddr::new(0);
        let b = LineAddr::new(4); // same set
        c.fill_at(a, Some(Pc::new(9)), FillSource::Temporal, true, 777);
        let m = c.line_meta(a).unwrap();
        assert_eq!(m.source, FillSource::Temporal);
        assert_eq!(m.ready_at, 777);
        assert!(!m.used);
        let out = c.access(a, None, false);
        assert!(out.prefetch_hit);
        let m = out.meta.unwrap();
        assert_eq!(m.ready_at, 777, "hit must surface the fill time");
        assert!(m.used, "meta reflects the access that just happened");
        let ev = c
            .fill_at(b, None, FillSource::Demand, false, 0)
            .evicted
            .unwrap();
        assert_eq!(ev.source, FillSource::Temporal, "attribution at death");
        assert!(ev.was_used);
        assert!(!ev.was_unused_prefetch);
    }

    #[test]
    fn untagged_prefetch_fill_is_demand_like_but_attributed() {
        // The memory system fills stride prefetches into the L2
        // untagged; they must not produce tagged prefetch hits, yet the
        // metadata word still records who brought the line in.
        let mut c = tiny(1);
        let a = LineAddr::new(0);
        c.fill_at(a, None, FillSource::Stride, false, 42);
        let out = c.access(a, None, false);
        assert!(out.hit && !out.prefetch_hit);
        assert_eq!(out.meta.unwrap().source, FillSource::Stride);
        assert_eq!(c.stats().prefetch_hits, 0);
    }

    #[test]
    fn miss_and_prefetch_lookup_carry_no_meta() {
        let mut c = tiny(2);
        let l = LineAddr::new(3);
        assert_eq!(c.access(l, None, false).meta, None);
        c.fill(l, None, true);
        assert_eq!(c.access(l, None, true).meta, None, "prefetch lookup");
        assert_eq!(c.line_meta(LineAddr::new(99)), None);
    }

    #[test]
    fn line_record_is_four_words() {
        assert_eq!(std::mem::size_of::<Line>(), 32);
    }

    /// A 4-way LRU cache holding tagged, untagged, PC-less, `Some(0)`-PC
    /// and invalidated lines, and its snapshot bytes.
    fn filled_snapshot() -> Vec<u8> {
        let mut c = tiny(4);
        for i in 0..20u64 {
            let pc = (i % 3 != 0).then_some(Pc::new(i % 2 * 0x400));
            let source =
                [FillSource::Demand, FillSource::Stride, FillSource::Temporal][(i % 3) as usize];
            c.fill_at(
                LineAddr::new(i * 3),
                pc,
                source,
                i.is_multiple_of(2),
                i * 11,
            );
        }
        c.access(LineAddr::new(57), None, false);
        c.invalidate(LineAddr::new(54));
        let mut w = SnapWriter::new();
        c.save(&mut w).unwrap();
        w.into_bytes()
    }

    fn restore_bytes(bytes: &[u8]) -> Result<Cache, SnapError> {
        let mut c = tiny(4);
        let mut r = SnapReader::new(bytes);
        c.restore(&mut r)?;
        r.finish()?;
        Ok(c)
    }

    #[test]
    fn snapshot_round_trips() {
        let bytes = filled_snapshot();
        let c = restore_bytes(&bytes).unwrap();
        let mut w = SnapWriter::new();
        c.save(&mut w).unwrap();
        assert_eq!(w.into_bytes(), bytes);
    }

    #[test]
    fn corrupt_snapshots_are_errors_not_panics() {
        let bytes = filled_snapshot();
        for n in 0..bytes.len() {
            assert!(restore_bytes(&bytes[..n]).is_err(), "truncated to {n}");
        }
        for extra in [&[0u8][..], &[0; 8]] {
            let long = [&bytes[..], extra].concat();
            assert!(restore_bytes(&long).is_err(), "extended by {}", extra.len());
        }
        // A flip in a counter or cycle is undetectable; what must never
        // happen is a panic, in the restore or in the traffic after it.
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(mut c) = restore_bytes(&flipped) {
                for i in 0..24u64 {
                    c.access(LineAddr::new(i), None, false);
                    c.fill(LineAddr::new(i * 5), Some(Pc::new(i)), i.is_multiple_of(2));
                }
            }
        }
    }

    #[test]
    fn out_of_range_fields_are_corrupt() {
        // Layout: the line count (8 bytes), then the first line's tag
        // (8), valid, tagged and source bytes, ready_at (8), used byte,
        // fill_seq (8). The snapshot ends with the way mask (8), six
        // counters (48) and the fill clock (8).
        type Corrupt = fn(&mut [u8]);
        let cases: [(&str, Corrupt); 4] = [
            ("tag bit 63", |b| b[8 + 7] |= 0x80),
            ("fill_seq bit 56", |b| b[8 + 8 + 3 + 8 + 1 + 7] |= 0x01),
            ("empty way mask", |b| {
                let n = b.len();
                b[n - 64..n - 56].fill(0);
            }),
            ("fill clock bit 56", |b| {
                let n = b.len();
                b[n - 1] |= 0x01;
            }),
        ];
        let bytes = filled_snapshot();
        for (what, corrupt) in cases {
            let mut b = bytes.clone();
            corrupt(&mut b);
            assert!(
                matches!(restore_bytes(&b), Err(SnapError::Corrupt(_))),
                "{what}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "overflows its packed field")]
    fn fill_refuses_a_line_index_with_the_valid_bit() {
        let mut c = tiny(2);
        c.fill(LineAddr::new(1 << 63), None, false);
    }

    #[test]
    fn lookup_of_a_line_index_with_the_valid_bit_misses() {
        let mut c = tiny(2);
        c.fill(LineAddr::new(5), None, false);
        assert!(!c.contains(LineAddr::new(5 | 1 << 63)));
    }

    #[test]
    fn invalidate_returns_record() {
        let mut c = tiny(2);
        let l = LineAddr::new(7);
        c.fill(l, None, true);
        let ev = c.invalidate(l).unwrap();
        assert_eq!(ev.line, l);
        assert!(ev.was_unused_prefetch);
        assert!(!c.contains(l));
        assert!(c.invalidate(l).is_none());
    }
}
