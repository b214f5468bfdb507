//! The per-figure experiment definitions: declarative grids handed to
//! the harness, plus the folds that turn their reports into tables.

use std::sync::Arc;

use triangel_core::{structure_sizes, TriangelConfig, TriangelFeatures};
use triangel_harness::emit::{
    features_to_json, multicore_to_json, timeline_to_json, traces_to_json, FeatureCell, FeatureRow,
    FeatureStep, FeaturesReport, MulticoreReport, MulticoreRow, TimelineReport, TimelineRow,
    TimelineSeries, TraceCell, TraceProvenance, TracesReport, TracesRow,
};
use triangel_harness::goldens::gated_features;
use triangel_harness::{
    GridResult, GridSpec, JobSpec, MapperSpec, RunParams, Sweep, SweepOptions, WorkloadSpec,
};
use triangel_markov::TargetFormat;
use triangel_sim::report::FigureTable;
use triangel_sim::{PrefetcherChoice, SystemConfig};
use triangel_triage::TriageConfig;
use triangel_workloads::graph500::Graph500Config;
use triangel_workloads::irregular::IrregularWorkload;
use triangel_workloads::spec::SpecWorkload;
use triangel_workloads::trace_file::record_trace;

use super::{FigureContext, FigureOutput};
use crate::quick_mode;

/// What every experiment returns: its artefacts, or a one-line reason
/// it could not produce them.
type Outputs = Result<Vec<FigureOutput>, String>;

fn tables(tables: Vec<FigureTable>) -> Vec<FigureOutput> {
    tables.into_iter().map(FigureOutput::Table).collect()
}

/// Runs `grid` on the context's shared scheduler options and folds its
/// counters into the per-process totals.
fn run_grid(ctx: &mut FigureContext, grid: GridSpec) -> Result<GridResult, String> {
    let result = grid.run(&ctx.opts).map_err(|e| e.to_string())?;
    ctx.absorb(result.stats);
    Ok(result)
}

/// Fig. 10: speedup over the stride-only baseline.
pub(super) fn fig10(ctx: &mut FigureContext) -> Outputs {
    Ok(tables(vec![ctx.spec_sweep()?.fig10_speedup()]))
}

/// Fig. 11: normalized DRAM traffic.
pub(super) fn fig11(ctx: &mut FigureContext) -> Outputs {
    Ok(tables(vec![ctx.spec_sweep()?.fig11_traffic()]))
}

/// Fig. 12: prefetch accuracy.
pub(super) fn fig12(ctx: &mut FigureContext) -> Outputs {
    Ok(tables(vec![ctx.spec_sweep()?.fig12_accuracy()]))
}

/// Fig. 13: coverage.
pub(super) fn fig13(ctx: &mut FigureContext) -> Outputs {
    Ok(tables(vec![ctx.spec_sweep()?.fig13_coverage()]))
}

/// Fig. 14: normalized L3 accesses, including Triangel-NoMRB.
pub(super) fn fig14(ctx: &mut FigureContext) -> Outputs {
    Ok(tables(vec![ctx.spec_sweep()?.fig14_l3()]))
}

/// Fig. 15: normalized DRAM+L3 dynamic energy, including
/// Triangel-NoMRB, plus the DRAM share of each run's energy.
pub(super) fn fig15(ctx: &mut FigureContext) -> Outputs {
    let sweep = ctx.spec_sweep()?;
    Ok(tables(vec![
        sweep.fig15_energy(),
        sweep.fig15_dram_fraction(),
    ]))
}

/// The paper's multiprogrammed pairings ("with Xalan doubled to make an
/// even set").
pub const FIG16_PAIRS: [(SpecWorkload, SpecWorkload); 4] = [
    (SpecWorkload::Xalan, SpecWorkload::Omnetpp),
    (SpecWorkload::Mcf, SpecWorkload::Gcc166),
    (SpecWorkload::Astar, SpecWorkload::Soplex),
    (SpecWorkload::Sphinx, SpecWorkload::Xalan),
];

/// Fig. 16: multiprogrammed-workload speedup. Each [`FIG16_PAIRS`]
/// pair runs on two cores sharing the L3 (and thus the Markov
/// partition) and the DRAM channel; the per-pair speedup is the
/// geometric mean of the two cores' IPC ratios against the same pair
/// run with the stride-only baseline.
pub(super) fn fig16(ctx: &mut FigureContext) -> Outputs {
    let mut grid = GridSpec::new(ctx.params.run_params()).columns([
        PrefetcherChoice::Triage,
        PrefetcherChoice::TriageDeg4,
        PrefetcherChoice::Triangel,
        PrefetcherChoice::TriangelBloom,
    ]);
    for (a, b) in FIG16_PAIRS {
        grid = grid.row(WorkloadSpec::Pair(a, b));
    }
    let result = run_grid(ctx, grid)?;
    Ok(tables(vec![result.table(
        "Fig. 16: Multiprogrammed-workload speedup",
        "per-pair geomean IPC ratio vs stride-only dual-core baseline",
        |c| c.speedup,
    )]))
}

/// Fig. 17: slowdown and DRAM traffic on Graph500 search, the paper's
/// adversarial workload (Section 6.4).
///
/// Neither input has exploitable temporal correlation: `s16 e10` fits
/// the Markov range but repeats too little; `s21 e10`'s reuse distances
/// exceed any on-chip capacity. Temporal prefetchers should ideally do
/// nothing; the paper shows the Triage variants slowing the system
/// dramatically while Triangel's classifiers largely switch off. Under
/// `TRIANGEL_QUICK=1` one tiny graph replaces both inputs.
pub(super) fn fig17(ctx: &mut FigureContext) -> Outputs {
    let inputs: Vec<Graph500Config> = if quick_mode() {
        vec![Graph500Config::tiny()]
    } else {
        vec![Graph500Config::s16_e10(), Graph500Config::s21_e10()]
    };
    let mut grid = GridSpec::new(ctx.params.run_params()).columns([
        PrefetcherChoice::Triage,
        PrefetcherChoice::TriageDeg4,
        PrefetcherChoice::Triangel,
        PrefetcherChoice::TriangelBloom,
    ]);
    for input in inputs {
        eprintln!("[fig17] generating graph {}", input.label());
        // Build the graph once; every configuration's BFS shares it.
        let graph = input.build_trace().graph_handle();
        eprintln!(
            "[fig17] {}: {} vertices, {} edges, {:.1} MiB",
            input.label(),
            graph.n_vertices(),
            graph.n_entries() / 2,
            graph.footprint_bytes() as f64 / (1024.0 * 1024.0)
        );
        grid = grid.row(WorkloadSpec::Graph500 {
            label: input.label(),
            graph: Arc::clone(&graph),
        });
    }
    let result = run_grid(ctx, grid)?;
    Ok(tables(vec![
        result
            .table(
                "Fig. 17 (left): Graph500 search slowdown",
                "baseline IPC / configuration IPC (higher = worse)",
                |c| c.slowdown(),
            )
            .without_geomean(),
        result
            .table(
                "Fig. 17 (right): Graph500 DRAM traffic",
                "DRAM line reads relative to baseline",
                |c| c.dram_traffic,
            )
            .without_geomean(),
    ]))
}

/// Fig. 18: Triage speedup under different Markov-table entry formats
/// and lookup-table configurations (Section 6.5).
///
/// The five variants: the default 32-bit entry with a 16-way-associative
/// 1024-entry lookup table; a hypothetical *ideal* (never-wrong) lookup
/// table; a fully-associative lookup table; Triangel's 42-bit direct
/// format; and the 10-bit-offset variant that models halved physical
/// frame locality.
pub(super) fn fig18(ctx: &mut FigureContext) -> Outputs {
    let formats = [
        TargetFormat::triage_default(),
        TargetFormat::Ideal32,
        TargetFormat::triage_full_lut(),
        TargetFormat::Direct42,
        TargetFormat::triage_10b_offset(),
    ];
    let mut grid = GridSpec::new(ctx.params.run_params()).spec_rows();
    for f in formats {
        grid = grid.column(PrefetcherChoice::TriageFormat(f));
    }
    let result = run_grid(ctx, grid)?;
    Ok(tables(vec![result.table(
        "Fig. 18: Triage speedup by Markov-table format",
        "IPC relative to stride-only baseline (first column is Triage's default)",
        |c| c.speedup,
    )]))
}

/// Fig. 19: accuracy of Triage's lookup-table format with 11 and 10
/// offset bits (Section 6.5), under a fragmented page mapping.
///
/// The 10-bit variant gives the lookup table twice as many distinct
/// upper-bit regions to track ("roughly equivalent to halving
/// physical-page locality or doubling page fragmentation"); when its
/// 1024 entries are exhausted, stale indices silently reconstruct wrong
/// addresses and accuracy collapses.
pub(super) fn fig19(ctx: &mut FigureContext) -> Outputs {
    let variants = [
        ("11-bit", TargetFormat::triage_default()),
        ("10-bit", TargetFormat::triage_10b_offset()),
    ];
    let mut grid = GridSpec::new(ctx.params.run_params())
        .spec_rows()
        .mapper(MapperSpec::Realistic(ctx.params.seed));
    for (name, f) in variants {
        grid = grid.labeled_column(name, PrefetcherChoice::TriageFormat(f));
    }
    let result = run_grid(ctx, grid)?;
    Ok(tables(vec![result.table(
        "Fig. 19: Triage LUT accuracy by offset width",
        "prefetched lines used before L2 eviction (fragmented page mapping)",
        |c| c.accuracy,
    )]))
}

/// Fig. 20: the ablation study (Section 6.6).
///
/// Starting from Triage Degree-4, each column enables one more Triangel
/// mechanism, in the paper's order: +Lookahead-2, +Triangel Metadata,
/// +BasePatternConf, +Second-Chance, +Metadata Reuse Buffer, +Set Duel,
/// +ReuseConf, +HighPatternConf. Both panels of the figure are printed:
/// (a) speedup, (b) normalized DRAM traffic.
pub(super) fn fig20(ctx: &mut FigureContext) -> Outputs {
    let mut grid = GridSpec::new(ctx.params.run_params()).spec_rows();
    for step in 0..=8 {
        grid = grid.labeled_column(
            TriangelFeatures::ladder_label(step),
            PrefetcherChoice::TriangelLadder(step),
        );
    }
    let result = run_grid(ctx, grid)?;
    Ok(tables(vec![
        result.table(
            "Fig. 20a: Ablation speedup",
            "IPC relative to stride-only baseline, features added cumulatively",
            |c| c.speedup,
        ),
        result.table(
            "Fig. 20b: Ablation DRAM traffic",
            "DRAM line reads relative to baseline",
            |c| c.dram_traffic,
        ),
    ]))
}

/// Table 1: sizing of Triangel's dedicated structures (no simulation).
pub(super) fn table1(_ctx: &mut FigureContext) -> Outputs {
    let sizes = structure_sizes(&TriangelConfig::paper_default());
    let mut out = String::new();
    out.push_str("## Table 1: Sizing of Triangel's structures\n\n");
    out.push_str(&format!("{:24} {:>10} {:>8}\n", "Table", "Entries", "Size"));
    out.push_str(&format!("{}\n", "-".repeat(46)));
    let mut total = 0usize;
    for s in &sizes {
        let entries = if s.name == "Set Dueller" {
            "64x(8+16)".to_string()
        } else {
            s.entries.to_string()
        };
        out.push_str(&format!("{:24} {:>10} {:>7}B\n", s.name, entries, s.bytes));
        total += s.bytes;
    }
    out.push_str(&format!("{}\n", "-".repeat(46)));
    out.push_str(&format!(
        "{:24} {:>10} {:>6.1}KiB\n",
        "Total",
        "",
        total as f64 / 1024.0
    ));
    out.push_str("\n(paper: 17.6 KiB total, versus 219.5 KiB for Triage once its\n");
    out.push_str(" lookup table, HawkEye dueller and Bloom filter are counted)");
    Ok(vec![FigureOutput::Text(out)])
}

/// Table 2: the core and memory experimental setup (no simulation).
pub(super) fn table2(_ctx: &mut FigureContext) -> Outputs {
    let cfg = SystemConfig::paper_single_core();
    let mut out = String::new();
    out.push_str("## Table 2: Core and memory experimental setup\n\n");
    out.push_str("Core       5-wide out-of-order approximation, 2 GHz\n");
    out.push_str(&format!(
        "Pipeline   {}-entry ROB (issue window), width {}\n",
        cfg.rob_entries, cfg.width
    ));
    for (name, c) in [
        ("L1 DCache", &cfg.l1),
        ("L2 Cache", &cfg.l2),
        ("L3 Cache", &cfg.l3),
    ] {
        out.push_str(&format!(
            "{:10} {} KiB, {}-way, {}-cycle hit latency, {} sets\n",
            name,
            c.size_bytes() / 1024,
            c.ways(),
            c.hit_latency(),
            c.sets()
        ));
    }
    out.push_str(&format!("L2 MSHRs   {}\n", cfg.l2_mshrs));
    out.push_str(&format!(
        "Memory     LPDDR5-like: {} cycles access latency, {} cycles/line channel occupancy\n",
        cfg.dram.access_latency, cfg.dram.service_interval
    ));
    out.push_str(&format!(
        "Stride pf  degree-{} at the L1D (baseline includes it)\n",
        cfg.stride_degree
    ));
    out.push_str(&format!(
        "Markov     up to {} of {} L3 ways (half the cache)",
        cfg.max_markov_ways,
        cfg.l3.ways()
    ));
    Ok(vec![FigureOutput::Text(out)])
}

/// The Section 3.3 observation: HawkEye versus simpler policies for
/// Markov-entry replacement barely matters at the full 1 MiB table,
/// and matters more when the table is artificially capacity-limited.
///
/// Sweeps Triage with {LRU, SRRIP, HawkEye} entry replacement at the
/// full partition and at a quarter-size partition (2 max ways =
/// 256 KiB-class), reporting speedup over the stride baseline.
pub(super) fn sec33_replacement(ctx: &mut FigureContext) -> Outputs {
    use triangel_cache::replacement::PolicyKind;
    let policies = [
        ("LRU", PolicyKind::Lru),
        ("SRRIP", PolicyKind::Srrip),
        ("HawkEye", PolicyKind::Hawkeye),
    ];
    let mut out = Vec::new();
    // Two capacity points; the shared cache makes the per-workload
    // baselines execute once across both grids.
    for (cap_name, max_ways) in [
        ("full 1 MiB table (8 ways)", 8),
        ("capacity-limited table (2 ways)", 2),
    ] {
        let mut grid = GridSpec::new(ctx.params.run_params()).spec_rows();
        for (name, pk) in policies {
            let mut cfg = TriageConfig::paper_default();
            cfg.table.replacement = pk;
            cfg.table.max_ways = max_ways;
            grid = grid.labeled_column(name, PrefetcherChoice::TriageCustom(cfg));
        }
        let result = run_grid(ctx, grid)?;
        out.push(FigureOutput::Table(result.table(
            format!("Sec. 3.3: Markov replacement policy, {cap_name}"),
            "Triage speedup over stride-only baseline",
            |c| c.speedup,
        )));
    }
    Ok(out)
}

/// The `features` ablation's fixed smoke scale. Deliberately not tied to `TRIANGEL_QUICK`/`TRIANGEL_WARMUP`: the
/// gate's effect is only comparable across PRs if every measurement
/// simulates the same work — and the scale must be large enough that
/// temporal fills die (eviction training is a no-op until lines
/// actually leave the L2).
pub const FEATURES_PARAMS: RunParams = RunParams {
    warmup: 25_000,
    accesses: 25_000,
    sizing_window: 10_000,
    seed: 42,
};

/// The `features` ablation at paper scale: the methodology's 1M-access
/// warm-up plus 2M measured accesses per core. This is the scale the
/// `train_on_eviction` promotion verdict is recorded at (sampled
/// policies and Markov confidence dynamics only converge here); runs
/// of this size go through the `campaign` binary, which checkpoints
/// and resumes them.
pub const FEATURES_FULL_PARAMS: RunParams = RunParams {
    warmup: 1_000_000,
    accesses: 2_000_000,
    sizing_window: 250_000,
    seed: 42,
};

/// The features-ablation grid at `params` scale: the Fig. 20 ladder,
/// each step paired with its `+EvictTrain` twin.
pub fn features_grid(params: RunParams) -> GridSpec {
    let mut grid = GridSpec::new(params).spec_rows();
    for step in 0..=8 {
        let label = TriangelFeatures::ladder_label(step);
        grid = grid.labeled_column(label, PrefetcherChoice::TriangelLadder(step));
        grid = grid.labeled_column_with_features(
            format!("{label}+EvictTrain"),
            PrefetcherChoice::TriangelLadder(step),
            TriangelFeatures {
                train_on_eviction: true,
                ..TriangelFeatures::ladder(step)
            },
        );
    }
    grid
}

/// The `features` ablation: the Fig. 20 feature ladder, each step run
/// with the experimental `train_on_eviction` gate off and on, at the
/// fixed [`FEATURES_PARAMS`] scale (`TRIANGEL_QUICK` and friends do not
/// apply). Emits the per-step off/on metrics as
/// `BENCH_features_smoke.json` (byte-deterministic; the un-suffixed
/// `BENCH_features.json` at the repo root is the campaign runner's
/// full-scale record) plus speedup/accuracy/coverage tables.
pub(super) fn features(ctx: &mut FigureContext) -> Outputs {
    let result = run_grid(ctx, features_grid(FEATURES_PARAMS))?;
    Ok(features_outputs(
        &result,
        FEATURES_PARAMS,
        "BENCH_features_smoke",
    ))
}

/// Folds a finished features grid into its tables and the
/// `<artifact>.json` machine-readable report (shared by the smoke
/// figure, which emits `BENCH_features_smoke`, and the campaign
/// runner, whose full-scale run records `BENCH_features`).
pub fn features_outputs(
    result: &triangel_harness::GridResult,
    params: RunParams,
    artifact: &str,
) -> Vec<FigureOutput> {
    let cell = |c: triangel_sim::Comparison| FeatureCell {
        speedup: c.speedup,
        accuracy: c.accuracy,
        coverage: c.coverage,
        dram_traffic: c.dram_traffic,
    };
    let rows = result
        .row_labels()
        .iter()
        .enumerate()
        .map(|(r, workload)| FeatureRow {
            workload: workload.clone(),
            // Columns alternate off/on per step (2 per ladder step).
            steps: (0..=8)
                .map(|step| FeatureStep {
                    step,
                    label: TriangelFeatures::ladder_label(step).to_string(),
                    off: cell(result.comparison(r, step * 2)),
                    on: cell(result.comparison(r, step * 2 + 1)),
                })
                .collect(),
        })
        .collect();
    let report = FeaturesReport {
        sweep: format!(
            "7 SPEC workloads x 9 ladder steps x {{-, +EvictTrain}}, warmup {} + {} accesses each",
            params.warmup, params.accesses
        ),
        rows,
    };

    let mut out = tables(vec![
        result.table(
            "Features ablation: speedup +/- EvictTrain",
            "IPC relative to stride-only baseline; each ladder step paired with its +EvictTrain twin",
            |c| c.speedup,
        ),
        result
            .table(
                "Features ablation: accuracy +/- EvictTrain",
                "prefetched lines demand-used before L2 eviction",
                |c| c.accuracy,
            )
            .without_geomean(),
        result
            .table(
                "Features ablation: coverage +/- EvictTrain",
                "fraction of baseline L2 demand misses eliminated",
                |c| c.coverage,
            )
            .without_geomean(),
    ]);
    out.push(FigureOutput::Json {
        name: artifact.to_string(),
        body: features_to_json(&report),
    });
    out
}

/// Sampling period of the `timeline` figure at [`FEATURES_PARAMS`]
/// scale: ten intervals across the measured run, fine enough to see
/// *when* in a run EvictTrain's MCF coverage falls away, coarse
/// enough to keep the figure at smoke-test cost.
pub const TIMELINE_SAMPLE_EVERY: u64 = 2_500;

/// The workloads the timeline watches: MCF is where the eviction-
/// training gate's coverage collapses (the PR 5 campaign verdict);
/// Astar and Omnetpp are the contrast group whose coverage holds.
const TIMELINE_WORKLOADS: [SpecWorkload; 3] = [
    SpecWorkload::Mcf,
    SpecWorkload::Astar,
    SpecWorkload::Omnetpp,
];

/// The `timeline` figure: per-interval time-series of
/// {Baseline, Triangel-L0, Triangel-L0+EvictTrain} over the workloads
/// above, recorded through the interval sampler and emitted as
/// `BENCH_timeline.json` (`BENCH_timeline_smoke.json` when
/// `TRIANGEL_TIMELINE_SMOKE=1`, so CI never clobbers the recorded
/// artefact). The aggregate features tables say *that* EvictTrain
/// loses MCF coverage; this figure says *when*.
pub(super) fn timeline(ctx: &mut FigureContext) -> Outputs {
    let params = FEATURES_PARAMS;
    // Ladder step 0, like the gate-on golden sweep: its ungated
    // prefetching exercises the eviction-training path heavily at this
    // scale, whereas full Triangel's confidence gates barely open
    // within 25k measured accesses and every series would be flat.
    let configs: [(&str, PrefetcherChoice, bool); 3] = [
        ("Baseline", PrefetcherChoice::Baseline, false),
        ("Triangel-L0", PrefetcherChoice::TriangelLadder(0), false),
        (
            "Triangel-L0+EvictTrain",
            PrefetcherChoice::TriangelLadder(0),
            true,
        ),
    ];
    let mut sweep = Sweep::new();
    for wl in TIMELINE_WORKLOADS {
        for (_, pf, gated) in configs {
            let mut job = JobSpec::new(WorkloadSpec::Spec(wl), pf, params)
                .sample_every(TIMELINE_SAMPLE_EVERY);
            if gated {
                job = job.features(gated_features(pf));
            }
            sweep.push(job);
        }
    }
    // A *private* cache, deliberately: sampling never enters content
    // keys, so the shared figure cache may hold unsampled twins of
    // these jobs — correct for summaries, useless for a figure that
    // needs the recorded series.
    let mut opts = SweepOptions::parallel(ctx.opts.workers);
    if let Some(trace) = &ctx.opts.trace {
        opts = opts.with_trace(Arc::clone(trace));
    }
    let result = sweep.run(&opts);
    ctx.absorb(result.stats);

    let series = result
        .results
        .iter()
        .map(|r| {
            let report = r.as_ref().map_err(|e| e.to_string())?;
            Ok(report.intervals.as_ref().expect("timeline jobs sample"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let rows: Vec<TimelineRow> = TIMELINE_WORKLOADS
        .iter()
        .enumerate()
        .map(|(wi, wl)| {
            let baseline = series[wi * configs.len()];
            TimelineRow {
                workload: wl.label().to_string(),
                series: configs
                    .iter()
                    .enumerate()
                    .map(|(ci, (label, _, _))| {
                        TimelineSeries::from_intervals(
                            *label,
                            series[wi * configs.len() + ci],
                            (ci != 0).then_some(baseline),
                        )
                    })
                    .collect(),
            }
        })
        .collect();
    let report = TimelineReport {
        sweep: format!(
            "{{MCF, Astar, Omnetpp}} x {{Baseline, Triangel-L0, Triangel-L0+EvictTrain}}, warmup {} + {} accesses, sampled every {}",
            params.warmup, params.accesses, TIMELINE_SAMPLE_EVERY
        ),
        every: TIMELINE_SAMPLE_EVERY,
        rows,
    };

    // Localize the gate's effect: the first interval where the gated
    // twin visibly departs from the ungated run — cumulative coverage
    // trailing by > 0.05, or the per-interval issue count shifting by
    // more than 5% (with a small floor so near-idle intervals don't
    // trigger on noise-scale counts).
    let mut notes = vec![
        "Timeline: first interval where +EvictTrain diverges from the ungated run".to_string(),
    ];
    for row in &report.rows {
        let plain = &row.series[1].points;
        let gated = &row.series[2].points;
        let diverged = |p: &triangel_harness::emit::TimelinePoint,
                        g: &triangel_harness::emit::TimelinePoint| {
            let coverage_gap = p.coverage_so_far - g.coverage_so_far > 0.05;
            let issue_shift = p.issued.max(20) as f64 * 0.05;
            coverage_gap || (p.issued as f64 - g.issued as f64).abs() > issue_shift
        };
        match plain.iter().zip(gated).find(|(p, g)| diverged(p, g)) {
            Some((p, g)) => notes.push(format!(
                "  {}: diverges at access {} (issued {} vs {}, coverage {:.3} vs {:.3}); \
                 end of run coverage {:.3} vs {:.3}",
                row.workload,
                p.end_access,
                p.issued,
                g.issued,
                p.coverage_so_far,
                g.coverage_so_far,
                plain.last().map_or(0.0, |p| p.coverage_so_far),
                gated.last().map_or(0.0, |p| p.coverage_so_far),
            )),
            None => notes.push(format!(
                "  {}: no divergence (end of run coverage {:.3} vs {:.3})",
                row.workload,
                plain.last().map_or(0.0, |p| p.coverage_so_far),
                gated.last().map_or(0.0, |p| p.coverage_so_far),
            )),
        }
    }

    let smoke = std::env::var("TRIANGEL_TIMELINE_SMOKE").is_ok_and(|v| v == "1");
    Ok(vec![
        FigureOutput::Text(notes.join("\n")),
        FigureOutput::Json {
            name: if smoke {
                "BENCH_timeline_smoke".to_string()
            } else {
                "BENCH_timeline".to_string()
            },
            body: timeline_to_json(&report),
        },
    ])
}

/// Configurations of the `multicore` figure. Ladder step 0 is the
/// column that actually loads the shared Markov partition at
/// [`FEATURES_PARAMS`] scale (same reasoning as the `timeline`
/// figure: full Triangel's confidence gates barely open within 25k
/// measured accesses); full Triangel still rides along to pin the
/// gated configuration's N-core behaviour.
const MULTICORE_CONFIGS: [(&str, PrefetcherChoice); 3] = [
    ("Baseline", PrefetcherChoice::Baseline),
    ("Triangel-L0", PrefetcherChoice::TriangelLadder(0)),
    ("Triangel", PrefetcherChoice::Triangel),
];

/// The `multicore` scaling figure: MCF replicated across the core-count
/// ladder on the contended N-core timing model
/// ([`SystemConfig::paper_n_core`] — banked shared LLC, per-channel
/// DRAM bandwidth, MSHR back-pressure, cycle-ordered stepping), under
/// the stride-only baseline and full Triangel. Emits per-core IPC and
/// end-of-run Markov-partition occupancy per core count as
/// `BENCH_multicore.json` (`BENCH_multicore_smoke.json` with a shorter
/// ladder under `TRIANGEL_MULTICORE_SMOKE=1`, so CI never clobbers the
/// recorded artefact). Honors `TRIANGEL_EXEC_THREADS` for intra-sim
/// trace generation — the artefact must be byte-identical at any
/// width, and CI diffs the 1-thread and N-thread runs to prove it.
pub(super) fn multicore(ctx: &mut FigureContext) -> Outputs {
    let params = FEATURES_PARAMS;
    let smoke = std::env::var("TRIANGEL_MULTICORE_SMOKE").is_ok_and(|v| v == "1");
    let core_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let exec_threads: usize = std::env::var("TRIANGEL_EXEC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    let mut sweep = Sweep::new();
    for &n in core_counts {
        for (_, pf) in MULTICORE_CONFIGS {
            sweep.push(
                JobSpec::new(WorkloadSpec::Spec(SpecWorkload::Mcf), pf, params)
                    .with_cores(n)
                    // One sample, exactly at the end of the measured
                    // run: the final Markov-partition occupancy.
                    .sample_every(params.accesses)
                    .exec_threads(exec_threads),
            );
        }
    }
    // A *private* cache, like `timeline`: sampling never enters content
    // keys, so the shared figure cache may hold unsampled twins of
    // these jobs — useless for a figure that reads the recorded series.
    let mut opts = SweepOptions::parallel(ctx.opts.workers);
    if let Some(trace) = &ctx.opts.trace {
        opts = opts.with_trace(Arc::clone(trace));
    }
    let result = sweep.run(&opts);
    ctx.absorb(result.stats);

    let mut rows = Vec::new();
    let mut table = FigureTable::new(
        "Multi-core scaling: aggregate IPC",
        "total instructions over the slowest core's cycles (contended N-core model)",
        MULTICORE_CONFIGS
            .iter()
            .map(|(l, _)| l.to_string())
            .collect(),
    )
    .without_geomean();
    for (i, &n) in core_counts.iter().enumerate() {
        let mut ipcs = Vec::new();
        for (j, (label, _)) in MULTICORE_CONFIGS.iter().enumerate() {
            let report = result.results[i * MULTICORE_CONFIGS.len() + j]
                .as_ref()
                .map_err(|e| e.to_string())?;
            let last = report
                .intervals
                .as_ref()
                .and_then(|s| s.samples.last().cloned())
                .expect("multicore jobs sample");
            rows.push(MulticoreRow {
                n_cores: n,
                config: label.to_string(),
                core_ipc: report.cores.iter().map(|c| c.ipc()).collect(),
                aggregate_ipc: report.aggregate_ipc(),
                dram_reads: report.dram_reads(),
                dram_queue_delay: report.dram.total_queue_delay,
                markov_occupancy: last.markov_occupancy,
                markov_ways: report.markov_ways as u64,
            });
            ipcs.push(report.aggregate_ipc());
        }
        table.push_row(format!("{n} core{}", if n == 1 { "" } else { "s" }), ipcs);
    }
    let report = MulticoreReport {
        sweep: format!(
            "MCF x {core_counts:?} cores x {{Baseline, Triangel-L0, Triangel}}, warmup {} + {} accesses per core",
            params.warmup, params.accesses
        ),
        workload: SpecWorkload::Mcf.label().to_string(),
        rows,
    };
    Ok(vec![
        FigureOutput::Table(table),
        FigureOutput::Json {
            name: if smoke {
                "BENCH_multicore_smoke".to_string()
            } else {
                "BENCH_multicore".to_string()
            },
            body: multicore_to_json(&report),
        },
    ])
}

/// Extension study: the Set Dueller's bias factor B (Section 4.7,
/// footnote 11).
///
/// B discounts modelled Markov-table hits by the DRAM cost of
/// prefetches (each Markov hit is worth `12 / B` cache hits). The paper
/// uses B = 2 and notes that "more aggressive tradeoff parameters...
/// do increase performance" at the cost of traffic; this sweeps B over
/// {1, 2, 4} to expose that tradeoff.
pub(super) fn duel_bias(ctx: &mut FigureContext) -> Outputs {
    let biases = [1u32, 2, 4];
    let mut grid = GridSpec::new(ctx.params.run_params()).spec_rows();
    for b in biases {
        let mut cfg = TriangelConfig::paper_default();
        cfg.dueller_bias = b;
        cfg.sizing_window = ctx.params.sizing_window;
        grid = grid.labeled_column(format!("B={b}"), PrefetcherChoice::TriangelCustom(cfg));
    }
    let result = run_grid(ctx, grid)?;
    Ok(tables(vec![
        result.table(
            "Dueller bias sweep: speedup",
            "IPC vs stride-only baseline (B=2 is the paper's default)",
            |c| c.speedup,
        ),
        result.table(
            "Dueller bias sweep: DRAM traffic",
            "line reads vs baseline",
            |c| c.dram_traffic,
        ),
    ]))
}

/// Columns of the `traces` figure: the degree-matched Triage reference
/// and full Triangel.
const TRACES_CONFIGS: [PrefetcherChoice; 2] =
    [PrefetcherChoice::Triage, PrefetcherChoice::Triangel];

/// Resolves the `traces` figure's recorded-trace row:
/// `TRIANGEL_TRACE_FILE` when set (replay any ChampSim-style `.trc`
/// recording, e.g. one captured from a real program), otherwise a
/// deterministic smoke trace recorded from the ZipfKV generator into
/// the temp directory. The smoke recording is deliberately shorter
/// than the run it feeds (half the warm-up + measured length), so the
/// looping end-of-trace policy and its wrap accounting are exercised
/// on every smoke run, never just at full scale.
fn traces_trace_spec(params: RunParams) -> Result<WorkloadSpec, String> {
    if let Ok(path) = std::env::var("TRIANGEL_TRACE_FILE") {
        return WorkloadSpec::trace_file(&path)
            .map_err(|e| format!("TRIANGEL_TRACE_FILE `{path}`: {e}"));
    }
    let records = ((params.warmup + params.accesses) / 2).clamp(256, 1 << 20);
    let dir = std::env::temp_dir().join("triangel-traces-figure");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    // Seed and length in the name: distinct scales record distinct
    // files, and an existing file's content is exactly what this run
    // would record (the generator is deterministic), so reuse is safe
    // — `trace_file` re-validates the header either way.
    let path = dir.join(format!("smoke-s{}-r{records}.trc", params.seed));
    if let Ok(spec) = WorkloadSpec::trace_file(&path) {
        return Ok(spec);
    }
    let mut src = IrregularWorkload::ZipfKv.generator(params.seed);
    record_trace(&mut src, records, &path)
        .map_err(|e| format!("recording {}: {e}", path.display()))?;
    WorkloadSpec::trace_file(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `traces` figure: the four irregular workload families (zipfian
/// KV store, GC churn, hash join, web serving) plus a recorded-trace
/// replay row, each compared against its stride-only baseline under
/// the [`TRACES_CONFIGS`] columns. Emits speedup/accuracy tables and
/// the machine-readable `BENCH_traces.json`, whose trace row carries
/// the header digest and wrap arithmetic. Set `TRIANGEL_TRACE_FILE` to
/// replay a specific recording (see the `trace_record` devtool) in
/// place of the deterministic smoke trace.
pub(super) fn traces(ctx: &mut FigureContext) -> Outputs {
    let params = ctx.params.run_params();
    let trace_spec = traces_trace_spec(params)?;
    let mut grid = GridSpec::new(params).columns(TRACES_CONFIGS);
    for wl in IrregularWorkload::ALL {
        grid = grid.row(WorkloadSpec::Irregular(wl));
    }
    grid = grid.row(trace_spec.clone());
    let result = run_grid(ctx, grid)?;

    let rows: Vec<TracesRow> = result
        .row_labels()
        .iter()
        .enumerate()
        .map(|(r, workload)| {
            let provenance = if r < IrregularWorkload::ALL.len() {
                TraceProvenance::Generator
            } else {
                let WorkloadSpec::TraceFile {
                    records, checksum, ..
                } = &trace_spec
                else {
                    unreachable!("last row is the trace-file row");
                };
                TraceProvenance::Recorded {
                    records: *records,
                    checksum: *checksum,
                    replayed: params.warmup + params.accesses,
                }
            };
            TracesRow {
                workload: workload.clone(),
                provenance,
                cells: result
                    .col_labels()
                    .iter()
                    .enumerate()
                    .map(|(c, config)| {
                        let m = result.comparison(r, c);
                        TraceCell {
                            config: config.clone(),
                            speedup: m.speedup,
                            accuracy: m.accuracy,
                            coverage: m.coverage,
                            dram_traffic: m.dram_traffic,
                        }
                    })
                    .collect(),
            }
        })
        .collect();
    let report = TracesReport {
        sweep: format!(
            "4 irregular families + 1 recorded trace x {{Triage, Triangel}}, \
             warmup {} + {} accesses each",
            params.warmup, params.accesses
        ),
        rows,
    };

    let mut out = tables(vec![
        result.table(
            "Traces: irregular-family and recorded-trace speedup",
            "IPC relative to stride-only baseline",
            |c| c.speedup,
        ),
        result
            .table(
                "Traces: prefetch accuracy",
                "prefetched lines demand-used before L2 eviction",
                |c| c.accuracy,
            )
            .without_geomean(),
    ]);
    out.push(FigureOutput::Json {
        name: "BENCH_traces".into(),
        body: traces_to_json(&report),
    });
    Ok(out)
}
