//! Differential property tests: `Cache` against a retained copy of its
//! pre-packing line record.
//!
//! `Cache` stores each way as a 32-byte record: the valid bit rides in
//! the tag word, and the prefetch tag, used bit, has-PC bit and fill
//! source share a word with the fill ordinal. That is only a storage
//! change. Lookups, fills, refreshes, evictions, invalidations and
//! way-mask flushes must behave exactly as they did when every field
//! had its own slot. This test keeps the original 48-byte record and
//! the cache logic around it (trimmed to behaviour, plus the snapshot
//! fields), drives both through identical randomized operation
//! sequences under every replacement policy and a spread of
//! associativities, and asserts equal observable results after every
//! step and equal snapshot bytes at the end.

use proptest::prelude::*;
use triangel_cache::replacement::{
    all_ways, AccessMeta, PolicyKind, ReplacementImpl, ReplacementPolicy, WayMask,
};
use triangel_cache::{
    AccessOutcome, Cache, CacheConfig, CacheStats, EvictedLine, FillOutcome, FillSource, LineMeta,
};
use triangel_types::snap::{SnapWriter, Snapshot};
use triangel_types::{Cycle, LineAddr, Pc};

// ---------------------------------------------------------------------
// The naive reference: the unpacked line record and the cache logic
// over it, verbatim in behaviour (scan order, replacement
// notifications, stats, fill clock).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: LineAddr,
    valid: bool,
    prefetch_tagged: bool,
    source: FillSource,
    ready_at: Cycle,
    used: bool,
    fill_seq: u64,
    fill_pc: Option<Pc>,
}

impl Line {
    fn meta(&self) -> LineMeta {
        LineMeta {
            source: self.source,
            ready_at: self.ready_at,
            used: self.used,
            fill_seq: self.fill_seq,
        }
    }

    fn to_evicted(self, evict_seq: u64) -> EvictedLine {
        EvictedLine {
            line: self.tag,
            was_unused_prefetch: self.prefetch_tagged,
            was_used: self.used,
            source: self.source,
            ready_at: self.ready_at,
            fill_seq: self.fill_seq,
            evict_seq,
            fill_pc: self.fill_pc,
        }
    }

    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.tag.index());
        w.bool(self.valid);
        w.bool(self.prefetch_tagged);
        w.u8(self.source.snap_tag());
        w.u64(self.ready_at);
        w.bool(self.used);
        w.u64(self.fill_seq);
        w.opt_u64(self.fill_pc.map(Pc::get));
    }
}

struct NaiveCache {
    sets: usize,
    ways: usize,
    lines: Vec<Line>,
    policy: ReplacementImpl,
    way_mask: WayMask,
    stats: CacheStats,
    fill_clock: u64,
}

impl NaiveCache {
    fn new(cfg: &CacheConfig) -> Self {
        let (sets, ways) = (cfg.sets(), cfg.ways());
        NaiveCache {
            sets,
            ways,
            lines: vec![Line::default(); sets * ways],
            policy: cfg.policy().build_impl(sets, ways),
            way_mask: all_ways(ways),
            stats: CacheStats::default(),
            fill_clock: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.index() as usize) & (self.sets - 1)
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn find(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        (0..self.ways)
            .find(|&w| {
                let l = &self.lines[self.slot(set, w)];
                l.valid && l.tag == line
            })
            .map(|w| (set, w))
    }

    fn access(&mut self, line: LineAddr, pc: Option<Pc>, is_prefetch: bool) -> AccessOutcome {
        let meta = AccessMeta {
            line,
            pc,
            is_prefetch,
        };
        if is_prefetch {
            self.stats.prefetch_lookups += 1;
            return AccessOutcome {
                hit: self.find(line).is_some(),
                prefetch_hit: false,
                meta: None,
            };
        }
        match self.find(line) {
            Some((set, way)) => {
                self.stats.demand_hits += 1;
                let slot = self.slot(set, way);
                let first_use = self.lines[slot].prefetch_tagged;
                if first_use {
                    self.stats.prefetch_hits += 1;
                    self.lines[slot].prefetch_tagged = false;
                }
                self.lines[slot].used = true;
                self.policy.on_hit(set, way, &meta);
                AccessOutcome {
                    hit: true,
                    prefetch_hit: first_use,
                    meta: Some(self.lines[slot].meta()),
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

    fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    fn line_meta(&self, line: LineAddr) -> Option<LineMeta> {
        let (set, way) = self.find(line)?;
        Some(self.lines[self.slot(set, way)].meta())
    }

    fn fill(&mut self, line: LineAddr, pc: Option<Pc>, is_prefetch: bool) -> FillOutcome {
        let source = if is_prefetch {
            FillSource::Stride
        } else {
            FillSource::Demand
        };
        self.fill_at(line, pc, source, is_prefetch, 0)
    }

    fn fill_at(
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
            let slot = self.slot(set, way);
            if !tagged {
                self.lines[slot].prefetch_tagged = false;
            }
            self.lines[slot].source = source;
            self.lines[slot].ready_at = ready_at;
            self.policy.on_hit(set, way, &meta);
            return FillOutcome {
                evicted: None,
                set,
                way,
            };
        }
        self.stats.fills += 1;
        self.fill_clock += 1;
        let set = self.set_of(line);
        let way = (0..self.ways)
            .filter(|w| self.way_mask & (1 << w) != 0)
            .find(|w| !self.lines[self.slot(set, *w)].valid)
            .unwrap_or_else(|| self.policy.victim(set, self.way_mask));
        let slot = self.slot(set, way);
        let evicted = if self.lines[slot].valid {
            self.stats.evictions += 1;
            let old = self.lines[slot];
            self.policy.on_evict(set, way, old.tag);
            Some(old.to_evicted(self.fill_clock))
        } else {
            None
        };
        self.lines[slot] = Line {
            tag: line,
            valid: true,
            prefetch_tagged: tagged,
            source,
            ready_at,
            used: !tagged,
            fill_seq: self.fill_clock,
            fill_pc: pc,
        };
        self.policy.on_fill(set, way, &meta);
        FillOutcome { evicted, set, way }
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let (set, way) = self.find(line)?;
        Some(self.invalidate_slot(set, way))
    }

    fn invalidate_slot(&mut self, set: usize, way: usize) -> EvictedLine {
        let slot = self.slot(set, way);
        let old = self.lines[slot];
        self.lines[slot].valid = false;
        self.policy.on_invalidate(set, way);
        old.to_evicted(self.fill_clock)
    }

    fn set_way_mask(&mut self, mask: WayMask) -> Vec<EvictedLine> {
        self.way_mask = mask;
        let mut flushed = Vec::new();
        for set in 0..self.sets {
            for way in 0..self.ways {
                if mask & (1 << way) == 0 && self.lines[self.slot(set, way)].valid {
                    flushed.push(self.invalidate_slot(set, way));
                }
            }
        }
        flushed
    }

    fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    fn resident_lines(&self) -> Vec<LineAddr> {
        self.lines
            .iter()
            .filter(|l| l.valid)
            .map(|l| l.tag)
            .collect()
    }

    /// The fields `Cache::save` writes, in its order.
    fn save(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(self.lines.len());
        for line in &self.lines {
            line.save(&mut w);
        }
        self.policy.save(&mut w).expect("policies snapshot");
        w.u64(self.way_mask);
        self.stats.save(&mut w).expect("stats snapshot");
        w.u64(self.fill_clock);
        w.into_bytes()
    }
}

// ---------------------------------------------------------------------
// Running both caches side by side.
// ---------------------------------------------------------------------

const SETS: usize = 8;

/// One randomized cache operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access {
        line: u64,
        pc: Option<u64>,
        is_prefetch: bool,
    },
    FillAt {
        line: u64,
        pc: Option<u64>,
        source: FillSource,
        tagged: bool,
        ready_at: Cycle,
    },
    Fill {
        line: u64,
        pc: Option<u64>,
        is_prefetch: bool,
    },
    Invalidate {
        line: u64,
    },
    SetWayMask {
        mask: u64,
    },
    LineMeta {
        line: u64,
    },
    Contains {
        line: u64,
    },
}

/// Raw generated form: an op selector plus three operand draws (the
/// shim's strategies compose over tuples, not mapped enums).
type RawOp = (usize, u64, u64, u64);

/// Maps a raw draw to a line for a cache of `ways` ways. Most lines
/// come from a hot space three times the cache's capacity, so sets
/// fill, conflict and refill; one in eight is a wide index (up to 2^58,
/// the largest a byte address yields) that exercises the upper bits of
/// the tag word.
fn line_of(a: u64, ways: usize) -> LineAddr {
    LineAddr::new(if a.is_multiple_of(8) {
        a >> 6
    } else {
        a % (SETS * ways * 3) as u64
    })
}

/// PCs include `Some(0)`, which the packed record must keep apart from
/// `None`.
fn pc_of(c: u64) -> Option<u64> {
    match c % 4 {
        0 => None,
        1 => Some(0),
        _ => Some(c >> 2),
    }
}

fn decode(raw: RawOp) -> Op {
    let (kind, line, b, c) = raw;
    match kind {
        0..=2 => Op::Access {
            line,
            pc: pc_of(c),
            is_prefetch: b.is_multiple_of(4),
        },
        3..=5 => Op::FillAt {
            line,
            pc: pc_of(c),
            source: [FillSource::Demand, FillSource::Stride, FillSource::Temporal]
                [(b % 3) as usize],
            tagged: (b >> 2) % 2 == 0,
            // Full-range fill cycles, small ones most often.
            ready_at: if c.is_multiple_of(3) { b } else { b % 1000 },
        },
        6 => Op::Fill {
            line,
            pc: pc_of(c),
            is_prefetch: b.is_multiple_of(2),
        },
        7 => Op::Invalidate { line },
        8 => Op::SetWayMask { mask: b },
        9 => Op::LineMeta { line },
        _ => Op::Contains { line },
    }
}

const POLICIES: [PolicyKind; 7] = [
    PolicyKind::Lru,
    PolicyKind::Fifo,
    PolicyKind::Random,
    PolicyKind::TreePlru,
    PolicyKind::Srrip,
    PolicyKind::Brrip,
    PolicyKind::Hawkeye,
];

/// A way mask for `ways` ways drawn from `b`: usually every way, else a
/// nonempty subset.
fn way_mask_of(b: u64, ways: usize) -> WayMask {
    let all = all_ways(ways);
    if b.is_multiple_of(3) {
        all
    } else {
        (b >> 2) % all + 1
    }
}

fn drive(
    policy: PolicyKind,
    ways: usize,
    ops: &[Op],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let cfg = CacheConfig::new("diff", (SETS * ways * 64) as u64, ways, policy);
    let mut cache = Cache::new(cfg.clone());
    let mut naive = NaiveCache::new(&cfg);
    let pc = |p: Option<u64>| p.map(Pc::new);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Access {
                line,
                pc: p,
                is_prefetch,
            } => {
                let line = line_of(line, ways);
                let (a, n) = (
                    cache.access(line, pc(p), is_prefetch),
                    naive.access(line, pc(p), is_prefetch),
                );
                prop_assert_eq!(a, n, "access diverged at step {}", step);
            }
            Op::FillAt {
                line,
                pc: p,
                source,
                tagged,
                ready_at,
            } => {
                let line = line_of(line, ways);
                let (a, n) = (
                    cache.fill_at(line, pc(p), source, tagged, ready_at),
                    naive.fill_at(line, pc(p), source, tagged, ready_at),
                );
                prop_assert_eq!(a, n, "fill_at diverged at step {}", step);
            }
            Op::Fill {
                line,
                pc: p,
                is_prefetch,
            } => {
                let line = line_of(line, ways);
                let (a, n) = (
                    cache.fill(line, pc(p), is_prefetch),
                    naive.fill(line, pc(p), is_prefetch),
                );
                prop_assert_eq!(a, n, "fill diverged at step {}", step);
            }
            Op::Invalidate { line } => {
                let line = line_of(line, ways);
                let (a, n) = (cache.invalidate(line), naive.invalidate(line));
                prop_assert_eq!(a, n, "invalidate diverged at step {}", step);
            }
            Op::SetWayMask { mask } => {
                let mask = way_mask_of(mask, ways);
                let (a, n) = (cache.set_way_mask(mask), naive.set_way_mask(mask));
                prop_assert_eq!(a, n, "set_way_mask diverged at step {}", step);
            }
            Op::LineMeta { line } => {
                let line = line_of(line, ways);
                let (a, n) = (cache.line_meta(line), naive.line_meta(line));
                prop_assert_eq!(a, n, "line_meta diverged at step {}", step);
            }
            Op::Contains { line } => {
                let line = line_of(line, ways);
                let (a, n) = (cache.contains(line), naive.contains(line));
                prop_assert_eq!(a, n, "contains diverged at step {}", step);
            }
        }
        prop_assert_eq!(cache.stats(), naive.stats, "stats at step {}", step);
        prop_assert_eq!(
            cache.occupancy(),
            naive.occupancy(),
            "occupancy at step {}",
            step
        );
        prop_assert_eq!(
            cache.resident_lines().collect::<Vec<_>>(),
            naive.resident_lines(),
            "resident lines at step {}",
            step
        );
    }
    let mut w = SnapWriter::new();
    cache.save(&mut w).expect("cache snapshot");
    prop_assert!(
        w.into_bytes() == naive.save(),
        "snapshot bytes diverged after {} ops ({:?}, {} ways)",
        ops.len(),
        policy,
        ways
    );
    Ok(())
}

proptest! {
    /// The packed cache and the unpacked reference agree on every
    /// observable result and on their snapshot bytes, under every
    /// replacement policy and associativity, across randomized
    /// operation sequences.
    #[test]
    fn packed_lines_match_unpacked_reference(
        raw_ops in prop::collection::vec(
            (0usize..11, any::<u64>(), any::<u64>(), any::<u64>()),
            1..160,
        ),
    ) {
        let ops: Vec<Op> = raw_ops.into_iter().map(decode).collect();
        for policy in POLICIES {
            for ways in [1, 2, 4, 8, 16] {
                drive(policy, ways, &ops)?;
            }
        }
    }
}
