//! JSON and CSV emitters for figure tables and sweep reports.
//!
//! Hand-rolled (the workspace has no serialization dependency) and
//! deterministic: emitting the same data twice yields identical bytes,
//! which the harness's reproducibility tests rely on.

use triangel_obs::json::{escape, fmt_f64};
use triangel_sim::report::FigureTable;
use triangel_sim::RunReport;

use crate::sweep::SweepReport;

fn json_f64_list(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|v| fmt_f64(*v)).collect();
    format!("[{}]", items.join(","))
}

/// Serializes a figure table as JSON.
pub fn table_to_json(t: &FigureTable) -> String {
    let configs: Vec<String> = t.configs().iter().map(|c| escape(c)).collect();
    let rows: Vec<String> = t
        .rows()
        .iter()
        .map(|(label, vals)| {
            format!(
                "{{\"workload\":{},\"values\":{}}}",
                escape(label),
                json_f64_list(vals)
            )
        })
        .collect();
    let geomean = if t.has_geomean() {
        format!(",\"geomean\":{}", json_f64_list(&t.geomeans()))
    } else {
        String::new()
    };
    format!(
        "{{\"title\":{},\"metric\":{},\"configs\":[{}],\"rows\":[{}]{}}}",
        escape(t.title()),
        escape(t.metric()),
        configs.join(","),
        rows.join(","),
        geomean,
    )
}

/// Renders an `f64` as a CSV field, mirroring the JSON emitter's
/// treatment of non-finite values (an empty field, CSV's "missing").
fn csv_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        String::new()
    }
}

/// Escapes one CSV field (RFC 4180 quoting).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serializes a figure table as CSV: a header row, one row per
/// workload, and a final geomean row when the table has one.
pub fn table_to_csv(t: &FigureTable) -> String {
    let mut out = String::new();
    out.push_str("workload");
    for c in t.configs() {
        out.push(',');
        out.push_str(&csv_field(c));
    }
    out.push('\n');
    for (label, vals) in t.rows() {
        out.push_str(&csv_field(label));
        for v in vals {
            out.push_str(&format!(",{}", csv_f64(*v)));
        }
        out.push('\n');
    }
    if t.has_geomean() {
        out.push_str("geomean");
        for v in t.geomeans() {
            out.push_str(&format!(",{}", csv_f64(v)));
        }
        out.push('\n');
    }
    out
}

/// One cell of the `features` ablation: the comparison metrics of a
/// `(workload, ladder step, gate)` configuration against its
/// stride-only baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureCell {
    /// IPC over the stride-only baseline.
    pub speedup: f64,
    /// Prefetch accuracy (used / resolved temporal fills).
    pub accuracy: f64,
    /// Fraction of baseline L2 demand misses eliminated.
    pub coverage: f64,
    /// DRAM line reads relative to baseline.
    pub dram_traffic: f64,
}

/// One ladder step of the `features` ablation for one workload: the
/// gate-off and gate-on measurements side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureStep {
    /// Ladder step index (0 = Triage-Deg-4, 8 = full Triangel).
    pub step: usize,
    /// The step's Fig. 20 label.
    pub label: String,
    /// Metrics with `train_on_eviction` off.
    pub off: FeatureCell,
    /// Metrics with `train_on_eviction` on.
    pub on: FeatureCell,
}

/// One workload row of the `features` ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureRow {
    /// Workload label.
    pub workload: String,
    /// One entry per ladder step.
    pub steps: Vec<FeatureStep>,
}

/// The `features` ablation artefact (`BENCH_features.json`): the
/// Fig. 20 feature ladder swept with the experimental
/// `train_on_eviction` gate off and on, per workload. It carries no
/// wall-clock numbers, so its bytes are fully deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct FeaturesReport {
    /// Human description of the fixed sweep.
    pub sweep: String,
    /// Per-workload results.
    pub rows: Vec<FeatureRow>,
}

fn feature_cell_json(c: &FeatureCell) -> String {
    format!(
        "{{\"speedup\":{},\"accuracy\":{},\"coverage\":{},\"dram_traffic\":{}}}",
        fmt_f64(c.speedup),
        fmt_f64(c.accuracy),
        fmt_f64(c.coverage),
        fmt_f64(c.dram_traffic),
    )
}

/// Serializes a features report as JSON (the `BENCH_features.json`
/// schema). Deterministic: equal reports emit equal bytes.
pub fn features_to_json(r: &FeaturesReport) -> String {
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            let steps: Vec<String> = row
                .steps
                .iter()
                .map(|s| {
                    format!(
                        "{{\"step\":{},\"label\":{},\"off\":{},\"on\":{}}}",
                        s.step,
                        escape(&s.label),
                        feature_cell_json(&s.off),
                        feature_cell_json(&s.on),
                    )
                })
                .collect();
            format!(
                "{{\"workload\":{},\"steps\":[{}]}}",
                escape(&row.workload),
                steps.join(",")
            )
        })
        .collect();
    format!(
        "{{\"schema\":1,\"figure\":\"features\",\"sweep\":{},\"rows\":[{}]}}",
        escape(&r.sweep),
        rows.join(","),
    )
}

/// One configuration cell of the `traces` figure: the comparison
/// metrics of one prefetcher configuration against the row's
/// stride-only baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCell {
    /// Configuration label (e.g. `"Triangel"`).
    pub config: String,
    /// IPC over the stride-only baseline.
    pub speedup: f64,
    /// Prefetch accuracy (used / resolved temporal fills).
    pub accuracy: f64,
    /// Fraction of baseline L2 demand misses eliminated.
    pub coverage: f64,
    /// DRAM line reads relative to baseline.
    pub dram_traffic: f64,
}

/// Where one `traces` row's accesses come from.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceProvenance {
    /// A synthetic irregular-family generator.
    Generator,
    /// A recorded trace file replayed under the looping end-of-trace
    /// policy. Carries the header digest and the per-core access count
    /// the row simulated, so the wrap arithmetic is evident in the
    /// artefact: a reader can see exactly how much of the measurement
    /// re-walked the same recording.
    Recorded {
        /// Record count from the trace header.
        records: u64,
        /// Payload checksum from the trace header.
        checksum: u64,
        /// Accesses each core replayed (warm-up + measured).
        replayed: u64,
    },
}

/// One workload row of the `traces` figure.
#[derive(Debug, Clone, PartialEq)]
pub struct TracesRow {
    /// Workload label (family name or trace file name).
    pub workload: String,
    /// Generator or recorded trace.
    pub provenance: TraceProvenance,
    /// One cell per configuration column.
    pub cells: Vec<TraceCell>,
}

/// The `traces` artefact (`BENCH_traces.json`): the irregular workload
/// families and a recorded-trace replay, each compared against its
/// stride-only baseline. Carries no wall-clock numbers, so its bytes
/// are fully deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct TracesReport {
    /// Human description of the fixed sweep.
    pub sweep: String,
    /// Per-workload rows.
    pub rows: Vec<TracesRow>,
}

fn trace_cell_json(c: &TraceCell) -> String {
    format!(
        "{{\"config\":{},\"speedup\":{},\"accuracy\":{},\"coverage\":{},\"dram_traffic\":{}}}",
        escape(&c.config),
        fmt_f64(c.speedup),
        fmt_f64(c.accuracy),
        fmt_f64(c.coverage),
        fmt_f64(c.dram_traffic),
    )
}

/// Serializes a traces report as JSON (the `BENCH_traces.json`
/// schema). Deterministic: equal reports emit equal bytes.
pub fn traces_to_json(r: &TracesReport) -> String {
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.cells.iter().map(trace_cell_json).collect();
            let provenance = match &row.provenance {
                TraceProvenance::Generator => {
                    "\"source\":\"generator\",\"trace\":null".to_string()
                }
                TraceProvenance::Recorded {
                    records,
                    checksum,
                    replayed,
                } => format!(
                    "\"source\":\"recorded\",\"trace\":{{\"records\":{records},\"checksum\":{},\"replayed\":{replayed},\"wraps\":{}}}",
                    escape(&format!("{checksum:016x}")),
                    *replayed / (*records).max(1),
                ),
            };
            format!(
                "{{\"workload\":{},{provenance},\"cells\":[{}]}}",
                escape(&row.workload),
                cells.join(",")
            )
        })
        .collect();
    format!(
        "{{\"schema\":1,\"figure\":\"traces\",\"sweep\":{},\"rows\":[{}]}}",
        escape(&r.sweep),
        rows.join(","),
    )
}

/// One per-interval point of a timeline series, already differenced
/// (see [`triangel_obs::IntervalSeries::windows`]) and normalized
/// against the stride-only baseline where a baseline exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Measured accesses completed at the end of this interval.
    pub end_access: u64,
    /// IPC within the interval.
    pub ipc: f64,
    /// L2 demand miss rate within the interval.
    pub l2_miss_rate: f64,
    /// Temporal prefetches issued within the interval.
    pub issued: u64,
    /// Temporal prefetches used within the interval.
    pub useful: u64,
    /// Temporal prefetches evicted dead within the interval.
    pub wasted: u64,
    /// Cumulative prefetch accuracy up to the end of the interval.
    pub accuracy_so_far: f64,
    /// Cumulative fraction of the baseline's L2 demand misses
    /// eliminated so far (0 for the baseline's own series).
    pub coverage_so_far: f64,
    /// Markov-table occupancy (entries) at the end of the interval.
    pub markov_occupancy: u64,
    /// L3 ways granted to the Markov partition at the end of the
    /// interval.
    pub markov_ways: u64,
    /// Ways the prefetcher wanted at the end of the interval.
    pub desired_ways: u64,
}

/// One configuration's timeline over a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSeries {
    /// Configuration label (e.g. `"Triangel+EvictTrain"`).
    pub config: String,
    /// Per-interval points, in simulation-time order.
    pub points: Vec<TimelinePoint>,
}

impl TimelineSeries {
    /// Builds a timeline series from a recorded interval series,
    /// differencing adjacent samples and computing cumulative coverage
    /// against `baseline` (the stride-only run's series over the same
    /// workload at the same period). With no baseline, coverage is 0.
    pub fn from_intervals(
        config: impl Into<String>,
        series: &triangel_obs::IntervalSeries,
        baseline: Option<&triangel_obs::IntervalSeries>,
    ) -> Self {
        let points = series
            .windows()
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let coverage_so_far = baseline.and_then(|b| b.samples.get(i)).map_or(0.0, |base| {
                    let own = series.samples[i].l2_demand_misses;
                    let base = base.l2_demand_misses;
                    if base == 0 {
                        0.0
                    } else {
                        (base as f64 - own as f64) / base as f64
                    }
                });
                TimelinePoint {
                    end_access: w.end_access,
                    ipc: w.ipc,
                    l2_miss_rate: w.l2_miss_rate,
                    issued: w.issued,
                    useful: w.useful,
                    wasted: w.wasted,
                    accuracy_so_far: w.accuracy_so_far,
                    coverage_so_far,
                    markov_occupancy: w.markov_occupancy,
                    markov_ways: w.markov_ways,
                    desired_ways: w.desired_ways,
                }
            })
            .collect();
        TimelineSeries {
            config: config.into(),
            points,
        }
    }
}

/// One workload row of the timeline figure: the same workload under
/// several configurations, sampled at the same period.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRow {
    /// Workload label.
    pub workload: String,
    /// One series per configuration.
    pub series: Vec<TimelineSeries>,
}

/// The timeline artefact (`BENCH_timeline.json`): per-interval
/// time-series over the run, diagnosing *when* in a run a
/// configuration's behaviour diverges (the EvictTrain coverage
/// collapse). Carries no wall-clock numbers, so its bytes are fully
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// Human description of the fixed sweep.
    pub sweep: String,
    /// Sampling period in measured accesses.
    pub every: u64,
    /// Per-workload timelines.
    pub rows: Vec<TimelineRow>,
}

fn timeline_point_json(p: &TimelinePoint) -> String {
    format!(
        "{{\"end_access\":{},\"ipc\":{},\"l2_miss_rate\":{},\"issued\":{},\"useful\":{},\"wasted\":{},\"accuracy_so_far\":{},\"coverage_so_far\":{},\"markov_occupancy\":{},\"markov_ways\":{},\"desired_ways\":{}}}",
        p.end_access,
        fmt_f64(p.ipc),
        fmt_f64(p.l2_miss_rate),
        p.issued,
        p.useful,
        p.wasted,
        fmt_f64(p.accuracy_so_far),
        fmt_f64(p.coverage_so_far),
        p.markov_occupancy,
        p.markov_ways,
        p.desired_ways,
    )
}

/// Serializes a timeline report as JSON (the `BENCH_timeline.json`
/// schema). Deterministic: equal reports emit equal bytes.
pub fn timeline_to_json(r: &TimelineReport) -> String {
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            let series: Vec<String> = row
                .series
                .iter()
                .map(|s| {
                    let points: Vec<String> = s.points.iter().map(timeline_point_json).collect();
                    format!(
                        "{{\"config\":{},\"points\":[{}]}}",
                        escape(&s.config),
                        points.join(",")
                    )
                })
                .collect();
            format!(
                "{{\"workload\":{},\"series\":[{}]}}",
                escape(&row.workload),
                series.join(",")
            )
        })
        .collect();
    format!(
        "{{\"schema\":1,\"figure\":\"timeline\",\"sweep\":{},\"every\":{},\"rows\":[{}]}}",
        escape(&r.sweep),
        r.every,
        rows.join(","),
    )
}

/// One `(core count, configuration)` cell of the multi-core scaling
/// figure.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticoreRow {
    /// Cores the system was configured with
    /// ([`triangel_sim::SystemConfig::paper_n_core`]).
    pub n_cores: usize,
    /// Configuration label (e.g. `"Triangel"`).
    pub config: String,
    /// Per-core IPC, indexed by core. Computed from each core's own
    /// retire clock — *not* from the aggregate max-over-cores cycle
    /// count, which would understate every core but the slowest.
    pub core_ipc: Vec<f64>,
    /// Whole-system IPC (total instructions over the slowest core's
    /// cycles).
    pub aggregate_ipc: f64,
    /// Total DRAM line reads across all channels.
    pub dram_reads: u64,
    /// Total cycles requests spent queued behind DRAM bandwidth (the
    /// congestion indicator the channel scaling is meant to relieve).
    pub dram_queue_delay: u64,
    /// Markov-partition occupancy (entries) at the end of the run, 0
    /// for prefetcher-less configurations.
    pub markov_occupancy: u64,
    /// L3 ways granted to the Markov partition at the end of the run.
    pub markov_ways: u64,
}

/// The multi-core scaling artefact (`BENCH_multicore.json`): the same
/// workload replicated across 1..N cores on the contended N-core
/// timing model, under the stride-only baseline and Triangel. Carries
/// no wall-clock numbers, so its bytes are fully deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticoreReport {
    /// Human description of the fixed sweep.
    pub sweep: String,
    /// Workload label each core runs.
    pub workload: String,
    /// One row per `(core count, configuration)`, core counts ascending.
    pub rows: Vec<MulticoreRow>,
}

fn multicore_row_json(r: &MulticoreRow) -> String {
    format!(
        "{{\"n_cores\":{},\"config\":{},\"core_ipc\":{},\"aggregate_ipc\":{},\"dram_reads\":{},\"dram_queue_delay\":{},\"markov_occupancy\":{},\"markov_ways\":{}}}",
        r.n_cores,
        escape(&r.config),
        json_f64_list(&r.core_ipc),
        fmt_f64(r.aggregate_ipc),
        r.dram_reads,
        r.dram_queue_delay,
        r.markov_occupancy,
        r.markov_ways,
    )
}

/// Serializes a multi-core scaling report as JSON (the
/// `BENCH_multicore.json` schema). Deterministic: equal reports emit
/// equal bytes.
pub fn multicore_to_json(r: &MulticoreReport) -> String {
    let rows: Vec<String> = r.rows.iter().map(multicore_row_json).collect();
    format!(
        "{{\"schema\":1,\"figure\":\"multicore\",\"sweep\":{},\"workload\":{},\"rows\":[{}]}}",
        escape(&r.sweep),
        escape(&r.workload),
        rows.join(","),
    )
}

/// The per-run scalars worth publishing in machine-readable reports.
fn run_summary_json(r: &RunReport) -> String {
    format!(
        "{{\"workload\":{},\"ipc\":{},\"dram_reads\":{},\"l3_accesses\":{},\"accuracy\":{},\"l2_demand_misses\":{},\"markov_ways\":{}}}",
        escape(&r.workload),
        fmt_f64(r.ipc()),
        r.dram_reads(),
        r.l3_accesses(),
        fmt_f64(r.accuracy()),
        r.l2_demand_misses(),
        r.markov_ways,
    )
}

/// Serializes a sweep report as JSON: scheduler stats (including the
/// cache-hit counter) and one summary per job, in job order.
pub fn sweep_to_json(report: &SweepReport) -> String {
    let jobs: Vec<String> = report
        .keys
        .iter()
        .zip(&report.results)
        .map(|(key, result)| match result {
            Ok(run) => format!(
                "{{\"key\":{},\"ok\":true,\"run\":{}}}",
                escape(key),
                run_summary_json(run)
            ),
            Err(e) => format!(
                "{{\"key\":{},\"ok\":false,\"error\":{}}}",
                escape(key),
                escape(&e.message)
            ),
        })
        .collect();
    format!(
        "{{\"stats\":{{\"jobs\":{},\"executed\":{},\"cache_hits\":{},\"errors\":{}}},\"jobs\":[{}]}}",
        report.stats.jobs,
        report.stats.executed,
        report.stats.cache_hits,
        report.stats.errors,
        jobs.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> FigureTable {
        let mut t = FigureTable::new("T, \"quoted\"", "m", vec!["A".into(), "B".into()]);
        t.push_row("w1", vec![1.0, 2.5]);
        t.push_row("w2", vec![4.0, 0.125]);
        t
    }

    #[test]
    fn json_round_trips_exact_floats() {
        let j = table_to_json(&table());
        assert!(j.contains("\"title\":\"T, \\\"quoted\\\"\""));
        assert!(j.contains("\"values\":[1.0,2.5]"));
        assert!(j.contains("\"geomean\":[2.0,"));
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let c = table_to_csv(&table());
        let mut lines = c.lines();
        assert_eq!(lines.next(), Some("workload,A,B"));
        assert_eq!(lines.next(), Some("w1,1.0,2.5"));
        assert_eq!(lines.next(), Some("w2,4.0,0.125"));
        assert!(lines.next().unwrap().starts_with("geomean,2.0,"));
    }

    #[test]
    fn non_finite_values_agree_across_emitters() {
        let mut t = FigureTable::new("t", "m", vec!["A".into()]);
        t.push_row("w", vec![f64::NAN]);
        t.push_row("x", vec![f64::INFINITY]);
        let j = table_to_json(&t);
        assert!(j.contains("\"values\":[null]"));
        assert!(!j.contains("NaN") && !j.contains("inf"));
        let c = table_to_csv(&t);
        assert!(c.contains("w,\n"), "NaN should be an empty CSV field: {c}");
        assert!(!c.contains("NaN") && !c.contains("inf"));
    }

    #[test]
    fn emission_is_deterministic() {
        let t = table();
        assert_eq!(table_to_json(&t), table_to_json(&t));
        assert_eq!(table_to_csv(&t), table_to_csv(&t));
    }

    #[test]
    fn timeline_report_json_shape() {
        use triangel_obs::{IntervalSample, IntervalSeries};
        let sample = |end: u64, instr: u64, cyc: u64, misses: u64, used: u64| IntervalSample {
            end_access: end,
            instructions: instr,
            cycles: cyc,
            l2_demand_hits: end,
            l2_demand_misses: misses,
            prefetches_issued: used * 2,
            temporal_used: used,
            temporal_wasted: used / 2,
            markov_occupancy: 100,
            markov_ways: 4,
            desired_ways: 6,
            ..Default::default()
        };
        let baseline = IntervalSeries {
            every: 100,
            samples: vec![sample(100, 400, 200, 80, 0), sample(200, 800, 400, 160, 0)],
        };
        let triangel = IntervalSeries {
            every: 100,
            samples: vec![
                sample(100, 500, 200, 40, 10),
                sample(200, 1000, 400, 80, 20),
            ],
        };
        let row = TimelineRow {
            workload: "MCF".into(),
            series: vec![
                TimelineSeries::from_intervals("Baseline", &baseline, None),
                TimelineSeries::from_intervals("Triangel", &triangel, Some(&baseline)),
            ],
        };
        assert_eq!(row.series[0].points[0].coverage_so_far, 0.0);
        // 40 of the baseline's 80 cumulative misses eliminated.
        assert!((row.series[1].points[0].coverage_so_far - 0.5).abs() < 1e-12);
        assert!((row.series[1].points[1].coverage_so_far - 0.5).abs() < 1e-12);
        assert!((row.series[1].points[1].ipc - 2.5).abs() < 1e-12);
        let r = TimelineReport {
            sweep: "1 workload x 2 configs".into(),
            every: 100,
            rows: vec![row],
        };
        let j = timeline_to_json(&r);
        assert!(j.contains("\"schema\":1"));
        assert!(j.contains("\"figure\":\"timeline\""));
        assert!(j.contains("\"every\":100"));
        assert!(j.contains("\"config\":\"Triangel\""));
        assert!(j.contains("\"coverage_so_far\":0.5"));
        assert_eq!(timeline_to_json(&r), timeline_to_json(&r));
    }

    #[test]
    fn traces_report_json_shape() {
        let cell = TraceCell {
            config: "Triangel".into(),
            speedup: 1.5,
            accuracy: 0.75,
            coverage: 0.5,
            dram_traffic: 1.125,
        };
        let r = TracesReport {
            sweep: "4 families + 1 trace x 2 configs".into(),
            rows: vec![
                TracesRow {
                    workload: "ZipfKV".into(),
                    provenance: TraceProvenance::Generator,
                    cells: vec![cell.clone()],
                },
                TracesRow {
                    workload: "smoke.trc".into(),
                    provenance: TraceProvenance::Recorded {
                        records: 1000,
                        checksum: 0xabcd,
                        replayed: 2500,
                    },
                    cells: vec![cell],
                },
            ],
        };
        let j = traces_to_json(&r);
        assert!(j.contains("\"figure\":\"traces\""));
        assert!(j.contains("\"source\":\"generator\",\"trace\":null"));
        assert!(j.contains("\"checksum\":\"000000000000abcd\""));
        assert!(j.contains("\"replayed\":2500,\"wraps\":2"));
        assert!(j.contains("\"cells\":[{\"config\":\"Triangel\",\"speedup\":1.5,"));
        assert_eq!(traces_to_json(&r), traces_to_json(&r));
    }

    #[test]
    fn multicore_report_json_shape() {
        let r = MulticoreReport {
            sweep: "MCF x {1,2,4} cores x 2 configs".into(),
            workload: "MCF".into(),
            rows: vec![
                MulticoreRow {
                    n_cores: 1,
                    config: "Baseline".into(),
                    core_ipc: vec![1.5],
                    aggregate_ipc: 1.5,
                    dram_reads: 1000,
                    dram_queue_delay: 40,
                    markov_occupancy: 0,
                    markov_ways: 0,
                },
                MulticoreRow {
                    n_cores: 4,
                    config: "Triangel".into(),
                    core_ipc: vec![1.25, 1.0, 0.75, 0.5],
                    aggregate_ipc: 0.875,
                    dram_reads: 5000,
                    dram_queue_delay: 900,
                    markov_occupancy: 4096,
                    markov_ways: 4,
                },
            ],
        };
        let j = multicore_to_json(&r);
        assert!(j.contains("\"figure\":\"multicore\""));
        assert!(j.contains("\"n_cores\":4"));
        assert!(j.contains("\"core_ipc\":[1.25,1.0,0.75,0.5]"));
        assert!(j.contains("\"dram_queue_delay\":900"));
        assert!(j.contains("\"markov_occupancy\":4096"));
        assert_eq!(multicore_to_json(&r), multicore_to_json(&r));
    }

    #[test]
    fn features_report_json_shape() {
        let cell = |s: f64| FeatureCell {
            speedup: s,
            accuracy: 0.5,
            coverage: 0.25,
            dram_traffic: 1.0,
        };
        let r = FeaturesReport {
            sweep: "7 workloads x 9 steps x {off,on}".into(),
            rows: vec![FeatureRow {
                workload: "Xalan".into(),
                steps: vec![FeatureStep {
                    step: 0,
                    label: "Triage-Deg-4".into(),
                    off: cell(1.0),
                    on: cell(1.25),
                }],
            }],
        };
        let j = features_to_json(&r);
        assert!(j.contains("\"figure\":\"features\""));
        assert!(j.contains("\"label\":\"Triage-Deg-4\""));
        assert!(j.contains("\"off\":{\"speedup\":1.0,"));
        assert!(j.contains("\"on\":{\"speedup\":1.25,"));
        assert_eq!(features_to_json(&r), features_to_json(&r));
    }
}
