//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared. Other tenants slow
//! execution itself, by up to 2.5× over periods from milliseconds to
//! minutes, and the guest's steal time does not show it. So a fixed
//! reference kernel runs between measured samples, for a fixed share of
//! the run's wall time, and the run-time metrics are scaled by how
//! much slower than nominal the kernel ran over the same run. A change
//! to the simulator moves the scaled figures; a change of host speed,
//! to first order, does not.
//!
//! The kernel is a small cache-hierarchy model of its own: xorshift
//! addresses from strided and random streams, three set-associative
//! levels with LRU stamps, and a successor table. It uses no
//! repository code, so no change to the simulator changes it, and it
//! does the simulator's kind of work, so it slows down as the simulator
//! does.

use std::hint::black_box;
use std::time::Instant;

use crate::host::{self, mean};

/// Wall (and CPU) seconds of one kernel call at nominal host speed:
/// about its fastest call (4.7 ms) on the 2-vCPU Xeon guest it was
/// tuned on. Scaled figures are host times at that speed. It is a fixed
/// constant, so scaled figures compare across runs and commits.
pub const NOMINAL_S: f64 = 0.005;

/// Share of the run's wall time spent in the kernel, so its calls are
/// spread over the run in proportion to the measured work.
const KERNEL_SHARE: f64 = 0.15;

/// Simulated accesses per kernel call.
const STEPS: u32 = 100_000;
/// Byte-address space of the kernel's streams: 64 MiB.
const SPACE_MASK: u64 = (1 << 26) - 1;
/// Successor-table entries: 1 MiB of `u64`.
const TABLE_ENTRIES: usize = 1 << 17;

/// One set-associative level with LRU stamps.
struct Level {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u32>,
}

impl Level {
    fn new(sets: usize, ways: usize) -> Self {
        Level {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
        }
    }

    /// Looks `line` up; fills it over the LRU way on a miss.
    fn access(&mut self, line: u64, now: u32) -> bool {
        let base = (line as usize & (self.sets - 1)) * self.ways;
        let mut victim = base;
        let mut oldest = u32::MAX;
        for i in base..base + self.ways {
            if self.tags[i] == line {
                self.stamps[i] = now;
                return true;
            }
            if self.stamps[i] < oldest {
                oldest = self.stamps[i];
                victim = i;
            }
        }
        self.tags[victim] = line;
        self.stamps[victim] = now;
        false
    }
}

/// The reference kernel and the host speed it has seen.
pub struct Calibrator {
    l1: Level,
    l2: Level,
    l3: Level,
    successors: Vec<u64>,
    x: u64,
    now: u32,
    streams: [u64; 4],
    start: Instant,
    /// Wall seconds of every call, timed or not.
    kernel_s: f64,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
}

impl Calibrator {
    /// A calibrator with its tables warmed by one discarded call. The
    /// run it calibrates starts now.
    pub fn new() -> Self {
        let mut c = Calibrator {
            l1: Level::new(64, 8),
            l2: Level::new(1024, 8),
            l3: Level::new(4096, 16),
            successors: vec![0; TABLE_ENTRIES],
            x: 0x2545_F491_4F6C_DD1D,
            now: 0,
            streams: [0, 1 << 20, 2 << 20, 3 << 20],
            start: Instant::now(),
            kernel_s: 0.0,
            wall_s: Vec::new(),
            cpu_s: Vec::new(),
        };
        c.kernel();
        c.start = Instant::now();
        c
    }

    fn kernel(&mut self) {
        let mut hits = 0u64;
        for _ in 0..STEPS {
            let mut x = self.x;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.x = x;
            self.now = self.now.wrapping_add(1);
            let pc = x & 15;
            let addr = if pc < 8 {
                let s = &mut self.streams[(pc & 3) as usize];
                *s = s.wrapping_add(64 * (1 + (pc & 1)));
                *s & SPACE_MASK
            } else {
                (x >> 20) & SPACE_MASK
            };
            let line = addr >> 6;
            if self.l1.access(line, self.now) || self.l2.access(line, self.now) {
                hits += 1;
                continue;
            }
            let slot = (line ^ pc.wrapping_mul(0x9E37_79B9)) as usize & (TABLE_ENTRIES - 1);
            hits += u64::from(self.successors[slot] == line);
            self.successors[slot] = line;
            hits += u64::from(self.l3.access(line, self.now));
        }
        black_box(hits);
    }

    /// Runs the kernel until it has had its share of the wall time
    /// since the calibrator was made. Call it between measured samples,
    /// while no other thread of the process is busy. The first call of
    /// each catch-up is untimed: the measured work has evicted the
    /// kernel's tables, and how often that happens depends on the
    /// length of the measured samples, which a change may move. At
    /// least one timed call follows it, so a run that falls behind once
    /// has a slowdown to report.
    pub fn keep_up(&mut self) {
        let behind = |c: &Self| {
            let measured_s = c.start.elapsed().as_secs_f64() - c.kernel_s;
            c.kernel_s < KERNEL_SHARE * measured_s
        };
        if !behind(self) {
            return;
        }
        self.call();
        loop {
            let cpu0 = host::process_cpu_ns();
            let wall = self.call();
            self.wall_s.push(wall);
            self.cpu_s
                .push((host::process_cpu_ns() - cpu0) as f64 / 1e9);
            if !behind(self) {
                break;
            }
        }
    }

    /// Runs the kernel once; returns its wall seconds.
    fn call(&mut self) -> f64 {
        let t0 = Instant::now();
        self.kernel();
        let wall = t0.elapsed().as_secs_f64();
        self.kernel_s += wall;
        wall
    }

    /// Timed kernel calls so far.
    pub fn samples(&self) -> usize {
        self.wall_s.len()
    }

    /// Host wall-time slowdown against nominal: the mean kernel wall
    /// time over [`NOMINAL_S`]. Divide a total or mean wall time by it
    /// to scale it. The mean, not the median, because the measured
    /// times are means too: a run's simulated jobs absorb every stall.
    pub fn wall_mean(&self) -> f64 {
        mean(&self.wall_s) / NOMINAL_S
    }

    /// The same from the mean kernel CPU time, for CPU time.
    pub fn cpu_mean(&self) -> f64 {
        mean(&self.cpu_s) / NOMINAL_S
    }
}
