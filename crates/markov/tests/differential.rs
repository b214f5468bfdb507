//! Differential property tests: the arena-backed `MarkovTable` against
//! a retained naive reference.
//!
//! The refactor that moved the Markov table onto the packed
//! set-associative arena (`triangel_types::arena::SetArena`) is only a
//! storage change — lookup, training, the confidence protocol,
//! eviction-time feedback, and resize re-indexing must behave exactly
//! as the original `Vec<Option<Entry>>` implementation did. This test
//! keeps that original implementation alive (trimmed to behaviour; no
//! snapshots) and drives both through identical randomized operation
//! sequences across every `TargetFormat` and a spread of replacement
//! policies, asserting equal observable results after every step, and
//! equal snapshot bytes at the end: the packed one-word entry must
//! serialize exactly as the reference's `bool` + enum entry does.

use proptest::prelude::*;
use triangel_cache::replacement::{
    all_ways, AccessMeta, PolicyKind, ReplacementImpl, ReplacementPolicy,
};
use triangel_markov::{LookupTable, MarkovHit, MarkovTableConfig, MarkovTableImpl, TargetFormat};
use triangel_types::snap::{SnapWriter, Snapshot};
use triangel_types::{xor_fold, LineAddr, Pc};

// ---------------------------------------------------------------------
// The naive reference: the pre-arena implementation, verbatim in
// behaviour (entry scan order, replacement notifications, stats).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoredTarget {
    Direct(u64),
    Lut { idx: u16, offset: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    tag: u16,
    conf: bool,
    target: StoredTarget,
}

struct NaiveMarkov {
    cfg: MarkovTableConfig,
    set_bits: u32,
    ways: usize,
    entries: Vec<Option<Entry>>,
    repl: ReplacementImpl,
    lut: Option<LookupTable>,
    reads: u64,
    writes: u64,
    entry_evictions: u64,
    resizes: u64,
    reindex_drops: u64,
}

impl NaiveMarkov {
    fn new(cfg: MarkovTableConfig) -> Self {
        let epl = cfg.format.entries_per_line();
        let lines = cfg.sets * cfg.max_ways;
        let lut = match cfg.format {
            TargetFormat::Lut { assoc, .. } => Some(LookupTable::new(assoc)),
            _ => None,
        };
        NaiveMarkov {
            cfg,
            set_bits: cfg.sets.trailing_zeros(),
            ways: 0,
            entries: vec![None; lines * epl],
            repl: cfg.replacement.build_impl(lines, epl),
            lut,
            reads: 0,
            writes: 0,
            entry_evictions: 0,
            resizes: 0,
            reindex_drops: 0,
        }
    }

    fn tag_of(&self, line: LineAddr) -> u16 {
        xor_fold(line.index() >> self.set_bits, self.cfg.tag_bits) as u16
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.index() as usize) & (self.cfg.sets - 1)
    }

    fn line_index(&self, line: LineAddr) -> Option<usize> {
        if self.ways == 0 {
            return None;
        }
        let tag = self.tag_of(line) as usize;
        let way = tag % self.ways;
        Some(self.set_of(line) * self.cfg.max_ways + way)
    }

    fn slot_range(&self, line_idx: usize) -> std::ops::Range<usize> {
        let epl = self.cfg.format.entries_per_line();
        line_idx * epl..(line_idx + 1) * epl
    }

    fn encode_target(&mut self, target: LineAddr) -> StoredTarget {
        match self.cfg.format {
            TargetFormat::Direct42 => StoredTarget::Direct(target.index() & ((1 << 31) - 1)),
            // Intentional difference: the packed table masks `Ideal32`
            // targets to `LineAddr::MAX` (58 bits), which no line of a
            // byte address exceeds. The driver's lines stay far below
            // it, so the two agree on every sequence generated here.
            TargetFormat::Ideal32 => StoredTarget::Direct(target.index()),
            TargetFormat::Lut { offset_bits, .. } => {
                let offset = (target.index() & ((1 << offset_bits) - 1)) as u32;
                let upper = target.index() >> offset_bits;
                let idx = self
                    .lut
                    .as_mut()
                    .expect("LUT format has a LUT")
                    .index_for(upper);
                StoredTarget::Lut { idx, offset }
            }
        }
    }

    fn peek_target(&self, stored: StoredTarget) -> Option<LineAddr> {
        match (stored, self.cfg.format) {
            (StoredTarget::Direct(t), _) => Some(LineAddr::new(t)),
            (StoredTarget::Lut { idx, offset }, TargetFormat::Lut { offset_bits, .. }) => self
                .lut
                .as_ref()
                .and_then(|l| l.upper_at(idx))
                .map(|u| LineAddr::new((u << offset_bits) | offset as u64)),
            (StoredTarget::Lut { .. }, _) => unreachable!("LUT target under non-LUT format"),
        }
    }

    fn decode_target(&mut self, stored: StoredTarget) -> Option<LineAddr> {
        match (stored, self.cfg.format) {
            (StoredTarget::Direct(t), _) => Some(LineAddr::new(t)),
            (StoredTarget::Lut { idx, offset }, TargetFormat::Lut { offset_bits, .. }) => {
                let lut = self.lut.as_mut().expect("LUT format has a LUT");
                let upper = lut.upper_at(idx)?;
                lut.touch(idx);
                Some(LineAddr::new((upper << offset_bits) | offset as u64))
            }
            (StoredTarget::Lut { .. }, _) => unreachable!("LUT target under non-LUT format"),
        }
    }

    fn lookup(&mut self, line: LineAddr) -> Option<MarkovHit> {
        let line_idx = self.line_index(line)?;
        self.reads += 1;
        let tag = self.tag_of(line);
        let range = self.slot_range(line_idx);
        for (i, slot) in range.enumerate() {
            if let Some(e) = self.entries[slot] {
                if e.tag == tag {
                    let meta = AccessMeta::prefetch(line, None);
                    self.repl.on_hit(line_idx, i, &meta);
                    let target = self.decode_target(e.target)?;
                    return Some(MarkovHit {
                        target,
                        confidence: e.conf,
                    });
                }
            }
        }
        None
    }

    fn peek(&self, line: LineAddr) -> Option<(LineAddr, bool)> {
        let line_idx = self.line_index(line)?;
        let tag = self.tag_of(line);
        for slot in self.slot_range(line_idx) {
            if let Some(e) = self.entries[slot] {
                if e.tag == tag {
                    return Some((self.peek_target(e.target)?, e.conf));
                }
            }
        }
        None
    }

    fn canonical_target(&self, target: LineAddr) -> LineAddr {
        match self.cfg.format {
            TargetFormat::Direct42 => LineAddr::new(target.index() & ((1 << 31) - 1)),
            _ => target,
        }
    }

    fn train(&mut self, prev: LineAddr, next: LineAddr, pc: Pc) {
        let Some(line_idx) = self.line_index(prev) else {
            return;
        };
        self.writes += 1;
        let tag = self.tag_of(prev);
        let range = self.slot_range(line_idx);
        let meta = AccessMeta::demand(prev, Some(pc));
        for (i, slot) in range.clone().enumerate() {
            let Some(mut e) = self.entries[slot] else {
                continue;
            };
            if e.tag != tag {
                continue;
            }
            let current = self.peek_target(e.target);
            let same = current == Some(self.canonical_target(next));
            if same {
                e.conf = true;
            } else if e.conf {
                e.conf = false;
            } else {
                e.target = self.encode_target(next);
            }
            self.entries[slot] = Some(e);
            self.repl.on_hit(line_idx, i, &meta);
            return;
        }
        let epl = range.len();
        let way = range
            .clone()
            .position(|slot| self.entries[slot].is_none())
            .unwrap_or_else(|| {
                let v = self.repl.victim(line_idx, all_ways(epl));
                self.entry_evictions += 1;
                if let Some(old) = self.entries[range.start + v] {
                    self.repl
                        .on_evict(line_idx, v, LineAddr::new(old.tag as u64));
                }
                v
            });
        let target = self.encode_target(next);
        self.entries[range.start + way] = Some(Entry {
            tag,
            conf: false,
            target,
        });
        self.repl.on_fill(line_idx, way, &meta);
    }

    fn train_on_evict(&mut self, prev: LineAddr, target: LineAddr, used: bool) -> bool {
        let Some(line_idx) = self.line_index(prev) else {
            return false;
        };
        let tag = self.tag_of(prev);
        let range = self.slot_range(line_idx);
        let canonical = self.canonical_target(target);
        for (i, slot) in range.enumerate() {
            let Some(mut e) = self.entries[slot] else {
                continue;
            };
            if e.tag != tag {
                continue;
            }
            if self.peek_target(e.target) != Some(canonical) {
                return false;
            }
            self.writes += 1;
            if used {
                e.conf = true;
                self.entries[slot] = Some(e);
            } else if e.conf {
                e.conf = false;
                self.entries[slot] = Some(e);
            } else {
                self.entries[slot] = None;
                self.entry_evictions += 1;
                self.repl.on_invalidate(line_idx, i);
            }
            return true;
        }
        false
    }

    fn set_ways(&mut self, ways: usize) -> bool {
        let ways = ways.min(self.cfg.max_ways);
        if ways == self.ways {
            return false;
        }
        self.resizes += 1;
        let epl = self.cfg.format.entries_per_line();
        let old: Vec<(usize, Entry)> = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i / (self.cfg.max_ways * epl), e)))
            .collect();
        self.entries.iter_mut().for_each(|e| *e = None);
        self.ways = ways;
        if ways == 0 {
            self.reindex_drops += old.len() as u64;
            return true;
        }
        for (set, e) in old {
            let way = (e.tag as usize) % ways;
            let line_idx = set * self.cfg.max_ways + way;
            let range = self.slot_range(line_idx);
            match range.clone().find(|slot| self.entries[*slot].is_none()) {
                Some(slot) => self.entries[slot] = Some(e),
                None => self.reindex_drops += 1,
            }
        }
        true
    }

    fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// The snapshot layout `MarkovTableImpl::save` promises, written
    /// from the reference's entries: policy tag, partition ways, then
    /// per line a validity mask and each live entry as `u16` tag,
    /// `bool` confidence, `u8` kind and a `u64` line or a `u16` LUT
    /// slot plus `u32` offset; then the policy state, the LUT and the
    /// counters.
    fn save_bytes(&self) -> Vec<u8> {
        let mut repl = SnapWriter::new();
        self.repl.save(&mut repl).unwrap();
        let repl = repl.into_bytes();
        let (policy_tag, policy_state) = repl.split_first().unwrap();
        let mut w = SnapWriter::new();
        w.u8(*policy_tag);
        w.usize(self.ways);
        let epl = self.cfg.format.entries_per_line();
        w.usize(self.cfg.sets * self.cfg.max_ways);
        w.usize(epl);
        for line in self.entries.chunks(epl) {
            let mask = line
                .iter()
                .enumerate()
                .filter(|(_, e)| e.is_some())
                .fold(0u64, |m, (way, _)| m | 1 << way);
            w.u64(mask);
            for e in line.iter().flatten() {
                w.u16(e.tag);
                w.bool(e.conf);
                match e.target {
                    StoredTarget::Direct(t) => {
                        w.u8(0);
                        w.u64(t);
                    }
                    StoredTarget::Lut { idx, offset } => {
                        w.u8(1);
                        w.u16(idx);
                        w.u32(offset);
                    }
                }
            }
        }
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(policy_state);
        let mut w = SnapWriter::new();
        match &self.lut {
            Some(lut) => {
                w.bool(true);
                lut.save(&mut w).unwrap();
            }
            None => w.bool(false),
        }
        for c in [
            self.reads,
            self.writes,
            self.entry_evictions,
            self.resizes,
            self.reindex_drops,
        ] {
            w.u64(c);
        }
        bytes.extend(w.into_bytes());
        bytes
    }
}

// ---------------------------------------------------------------------
// The differential driver.
// ---------------------------------------------------------------------

/// One randomized table operation. Addresses are drawn from a small
/// space (plus a shift for LUT-exercising upper bits) so sequences
/// collide in sets, tags, and LUT frames often enough to reach the
/// eviction, confidence-conflict, and stale-feedback paths.
#[derive(Debug, Clone, Copy)]
enum Op {
    Train { prev: u64, next: u64, pc: u64 },
    Lookup { line: u64 },
    Peek { line: u64 },
    TrainOnEvict { prev: u64, target: u64, used: bool },
    SetWays { ways: usize },
}

/// Raw generated form: an op selector plus three operand draws (the
/// shim's strategies compose over tuples, not mapped enums).
type RawOp = (usize, u64, u64, u64);

fn decode(raw: RawOp) -> Op {
    let (kind, a, b, c) = raw;
    // Most operands are folded into a tiny 32-line hot space so the
    // same pairs recur: retraining (confidence protocol), entry
    // eviction, and matching eviction-time feedback all need repeats,
    // which a uniform 14-bit draw essentially never produces.
    match kind {
        0 | 1 => Op::Train {
            prev: a % 32,
            next: b % 32,
            pc: c,
        },
        2 => Op::Train {
            prev: a,
            next: b,
            pc: c,
        },
        3 => Op::Lookup { line: a % 32 },
        4 => Op::Peek { line: a % 32 },
        5 => Op::Lookup { line: a },
        6 => Op::TrainOnEvict {
            prev: a % 32,
            target: b % 32,
            used: c % 2 == 0,
        },
        _ => Op::SetWays {
            ways: (c % 5) as usize,
        },
    }
}

fn any_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Fifo),
        Just(PolicyKind::Random),
        Just(PolicyKind::TreePlru),
        Just(PolicyKind::Srrip),
        Just(PolicyKind::Brrip),
        Just(PolicyKind::Hawkeye),
    ]
}

/// Upper-bit multiplier so LUT formats see distinct frames: lines map
/// into frames of 2^10/2^11 lines, so spreading the 14-bit space across
/// more uppers exercises LUT sharing and silent-eviction redirects.
fn widen(line: u64) -> u64 {
    (line << 7) | (line & 0x7F)
}

fn drive(
    format: TargetFormat,
    policy: PolicyKind,
    ops: &[Op],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let cfg = MarkovTableConfig {
        sets: 64,
        max_ways: 4,
        format,
        tag_bits: 10,
        replacement: policy,
    };
    let mut arena = MarkovTableImpl::new(cfg);
    let mut naive = NaiveMarkov::new(cfg);
    arena.set_ways(2);
    naive.set_ways(2);
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Train { prev, next, pc } => {
                let (prev, next) = (LineAddr::new(widen(prev)), LineAddr::new(widen(next)));
                arena.train(prev, next, Pc::new(pc));
                naive.train(prev, next, Pc::new(pc));
            }
            Op::Lookup { line } => {
                let line = LineAddr::new(widen(line));
                let (a, n) = (arena.lookup(line), naive.lookup(line));
                prop_assert_eq!(a, n, "lookup diverged at step {}", step);
            }
            Op::Peek { line } => {
                let line = LineAddr::new(widen(line));
                let (a, n) = (arena.peek(line), naive.peek(line));
                prop_assert_eq!(a, n, "peek diverged at step {}", step);
            }
            Op::TrainOnEvict { prev, target, used } => {
                let (prev, target) = (LineAddr::new(widen(prev)), LineAddr::new(widen(target)));
                let (a, n) = (
                    arena.train_on_evict(prev, target, used),
                    naive.train_on_evict(prev, target, used),
                );
                prop_assert_eq!(a, n, "train_on_evict diverged at step {}", step);
            }
            Op::SetWays { ways } => {
                let (a, n) = (arena.set_ways(ways), naive.set_ways(ways));
                prop_assert_eq!(a, n, "set_ways diverged at step {}", step);
            }
        }
        prop_assert_eq!(
            arena.occupancy(),
            naive.occupancy(),
            "occupancy diverged at step {}",
            step
        );
    }
    let s = arena.stats();
    prop_assert_eq!(s.reads, naive.reads);
    prop_assert_eq!(s.writes, naive.writes);
    prop_assert_eq!(s.entry_evictions, naive.entry_evictions);
    prop_assert_eq!(s.resizes, naive.resizes);
    prop_assert_eq!(s.reindex_drops, naive.reindex_drops);
    let mut w = SnapWriter::new();
    arena.save(&mut w).unwrap();
    let (packed, reference) = (w.into_bytes(), naive.save_bytes());
    prop_assert!(
        packed == reference,
        "snapshot bytes diverged: {} vs {} bytes, first difference at byte {:?}",
        packed.len(),
        reference.len(),
        packed.iter().zip(&reference).position(|(a, b)| a != b)
    );
    Ok(())
}

proptest! {
    /// The arena-backed table and the naive reference agree on every
    /// observable result, for every target format, across randomized
    /// operation sequences and every replacement policy.
    #[test]
    fn arena_matches_naive_reference(
        format_idx in 0usize..4,
        policy in any_policy(),
        raw_ops in prop::collection::vec(
            (0usize..8, 0u64..(1 << 14), 0u64..(1 << 14), 0u64..64),
            1..400,
        ),
    ) {
        let format = [
            TargetFormat::Direct42,
            TargetFormat::Ideal32,
            TargetFormat::triage_default(),
            TargetFormat::triage_10b_offset(),
        ][format_idx];
        let ops: Vec<Op> = raw_ops.into_iter().map(decode).collect();
        drive(format, policy, &ops)?;
    }
}
