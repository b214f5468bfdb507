//! Run reports and cross-configuration comparisons (the paper's
//! metrics: speedup, DRAM traffic, accuracy, coverage, L3 accesses,
//! energy).

use triangel_cache::CacheStats;
use triangel_mem::{DramStats, EnergyBreakdown, EnergyModel};
use triangel_prefetch::PrefetcherStats;
use triangel_types::stats::geomean;

use crate::hierarchy::CoreStats;

/// Measurement results for one core.
#[derive(Debug, Clone)]
pub struct CoreReport {
    /// Trace-source name.
    pub workload: String,
    /// Temporal-prefetcher name.
    pub pf_name: String,
    /// Instructions retired during measurement.
    pub instructions: u64,
    /// Cycles elapsed during measurement.
    pub cycles: u64,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Accuracy/traffic bookkeeping.
    pub core: CoreStats,
    /// Temporal-prefetcher counters.
    pub pf: PrefetcherStats,
}

impl CoreReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles as f64
    }
}

/// Measurement results for one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload label (e.g. the paper's figure x-axis name).
    pub workload: String,
    /// Per-core results.
    pub cores: Vec<CoreReport>,
    /// Shared-L3 statistics.
    pub l3: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// Final Markov partition allocation (L3 ways).
    pub markov_ways: usize,
    /// Interval time-series, when the session sampled one
    /// ([`SimSessionBuilder::sample_every`](crate::SimSessionBuilder::sample_every)).
    ///
    /// Purely observational: a function of simulation state only
    /// (never wall-clock), excluded from the summary emitters, so
    /// every aggregate stays byte-identical whether sampling is on or
    /// off.
    pub intervals: Option<triangel_obs::IntervalSeries>,
}

impl RunReport {
    /// Single-core IPC (core 0).
    pub fn ipc(&self) -> f64 {
        self.cores[0].ipc()
    }

    /// Aggregate multiprogrammed IPC: total instructions retired
    /// across all cores over the *slowest* core's cycles — a system
    /// throughput summary, matching the convention of
    /// [`IntervalSample::ipc_so_far`](triangel_obs::IntervalSample::ipc_so_far).
    /// Equals [`RunReport::ipc`] on a single core.
    pub fn aggregate_ipc(&self) -> f64 {
        let instructions: u64 = self.cores.iter().map(|c| c.instructions).sum();
        let cycles = self.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
        instructions as f64 / cycles.max(1) as f64
    }

    /// Total DRAM line reads — the paper's DRAM-traffic metric
    /// (Fig. 11).
    pub fn dram_reads(&self) -> u64 {
        self.dram.total_reads()
    }

    /// Total L3 accesses: data lookups (demand and prefetch) plus
    /// Markov-table reads/writes (Fig. 14).
    pub fn l3_accesses(&self) -> u64 {
        let data = self.l3.demand_accesses() + self.l3.prefetch_lookups;
        let markov: u64 = self.cores.iter().map(|c| c.pf.markov_l3_accesses()).sum();
        data + markov
    }

    /// DRAM+L3 dynamic energy under the paper's 25:1 unit model
    /// (Fig. 15).
    pub fn energy(&self) -> EnergyBreakdown {
        EnergyModel::paper().evaluate(self.dram_reads(), self.l3_accesses())
    }

    /// Temporal-prefetch accuracy, pooled over cores (Fig. 12).
    pub fn accuracy(&self) -> f64 {
        let used: u64 = self.cores.iter().map(|c| c.core.temporal_used).sum();
        let wasted: u64 = self.cores.iter().map(|c| c.core.temporal_wasted).sum();
        if used + wasted == 0 {
            0.0
        } else {
            used as f64 / (used + wasted) as f64
        }
    }

    /// Demand misses at the L2 (coverage baseline input, Fig. 13).
    pub fn l2_demand_misses(&self) -> u64 {
        self.cores.iter().map(|c| c.l2.demand_misses).sum()
    }
}

/// A run compared against the stride-only baseline, yielding exactly
/// the paper's per-workload figure values.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Speedup over baseline (geomean of per-core IPC ratios; Fig. 10).
    pub speedup: f64,
    /// DRAM traffic normalized to baseline (Fig. 11).
    pub dram_traffic: f64,
    /// Prefetch accuracy (Fig. 12).
    pub accuracy: f64,
    /// Coverage: fraction of baseline L2 demand misses eliminated
    /// (Fig. 13).
    pub coverage: f64,
    /// L3 accesses normalized to baseline (Fig. 14).
    pub l3_accesses: f64,
    /// DRAM+L3 dynamic energy normalized to baseline (Fig. 15); NaN
    /// when the baseline spent no energy.
    pub energy: f64,
    /// DRAM share of this run's energy (the hashed bars of Fig. 15).
    pub energy_dram_fraction: f64,
}

impl Comparison {
    /// Compares `run` against `baseline` (same workload, stride-only).
    ///
    /// # Panics
    ///
    /// Panics if the two runs have different core counts.
    pub fn new(baseline: &RunReport, run: &RunReport) -> Self {
        assert_eq!(
            baseline.cores.len(),
            run.cores.len(),
            "core counts must match"
        );
        let ratios: Vec<f64> = run
            .cores
            .iter()
            .zip(&baseline.cores)
            .map(|(r, b)| r.ipc() / b.ipc())
            .collect();
        let speedup = geomean(&ratios).unwrap_or(1.0);
        let base_misses = baseline.l2_demand_misses();
        let coverage = if base_misses == 0 {
            0.0
        } else {
            1.0 - run.l2_demand_misses() as f64 / base_misses as f64
        };
        Comparison {
            speedup,
            dram_traffic: run.dram_reads() as f64 / baseline.dram_reads().max(1) as f64,
            accuracy: run.accuracy(),
            coverage: coverage.max(0.0),
            l3_accesses: run.l3_accesses() as f64 / baseline.l3_accesses().max(1) as f64,
            energy: run.energy().normalized_to(&baseline.energy()),
            energy_dram_fraction: run.energy().dram_fraction(),
        }
    }

    /// The inverse of speedup, as plotted for adversarial workloads
    /// (Fig. 17 "Slowdown").
    pub fn slowdown(&self) -> f64 {
        1.0 / self.speedup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ipc_cycles: u64, dram: u64, misses: u64) -> RunReport {
        RunReport {
            workload: "w".into(),
            cores: vec![CoreReport {
                workload: "w".into(),
                pf_name: "p".into(),
                instructions: 1_000_000,
                cycles: ipc_cycles,
                l2: CacheStats {
                    demand_misses: misses,
                    ..Default::default()
                },
                core: CoreStats {
                    temporal_used: 80,
                    temporal_wasted: 20,
                    ..Default::default()
                },
                pf: PrefetcherStats::default(),
            }],
            l3: CacheStats::default(),
            dram: DramStats {
                demand_reads: dram,
                ..Default::default()
            },
            markov_ways: 0,
            intervals: None,
        }
    }

    #[test]
    fn comparison_math() {
        let base = report(2_000_000, 1000, 10_000);
        let run = report(1_600_000, 1100, 6_000);
        let c = Comparison::new(&base, &run);
        assert!((c.speedup - 1.25).abs() < 1e-9);
        assert!((c.dram_traffic - 1.1).abs() < 1e-9);
        assert!((c.coverage - 0.4).abs() < 1e-9);
        assert!((c.accuracy - 0.8).abs() < 1e-9);
        assert!((c.slowdown() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn energy_uses_paper_units() {
        let r = report(1_000_000, 100, 0);
        assert_eq!(r.energy().dram, 2500.0);
    }

    #[test]
    fn aggregate_ipc_sums_instructions_over_the_slowest_core() {
        let mut r = report(2_000_000, 0, 0);
        assert_eq!(r.aggregate_ipc(), r.ipc());
        let mut fast = r.cores[0].clone();
        fast.cycles = 1_000_000;
        r.cores.push(fast);
        // 2M instructions over the slowest core's 2M cycles — NOT
        // core 0's IPC, and NOT a mean of per-core IPCs.
        assert!((r.aggregate_ipc() - 1.0).abs() < 1e-12);
    }
}
