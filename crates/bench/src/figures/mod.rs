//! The experiment registry: every figure and table of the paper as a
//! named, declarative definition, executed by `triangel-harness`.
//!
//! `all_figures` runs the registry entries named on its command line
//! (every entry when none is named), always in registry order, over
//! one shared result cache, so simulations common to several figures
//! — above all the per-workload stride-only baselines — execute
//! exactly once per process.

mod defs;

pub use defs::{
    features_grid, features_outputs, FEATURES_FULL_PARAMS, FEATURES_PARAMS, TIMELINE_SAMPLE_EVERY,
};

use std::path::PathBuf;
use std::sync::Arc;

use triangel_harness::emit;
use triangel_harness::{ResultCache, SweepOptions, SweepStats};
use triangel_sim::report::FigureTable;

use crate::{SpecSweep, SweepParams};

/// One rendered artefact of an experiment.
#[derive(Debug)]
pub enum FigureOutput {
    /// A workloads × configurations table.
    Table(FigureTable),
    /// Free-form text (Tables 1 and 2 of the paper).
    Text(String),
    /// A machine-readable JSON artefact written under exactly
    /// `<name>.json` (e.g. `BENCH_traces.json`). Always persisted — to
    /// `--out-dir` when given, the working directory otherwise — and
    /// never printed to stdout.
    Json {
        /// File stem (`BENCH_traces` → `BENCH_traces.json`).
        name: String,
        /// The serialized JSON body.
        body: String,
    },
}

impl FigureOutput {
    /// Prints to stdout, matching the historical binary output.
    pub fn print(&self) {
        match self {
            FigureOutput::Table(t) => t.print(),
            FigureOutput::Text(s) => println!("{s}"),
            FigureOutput::Json { name, .. } => {
                println!("(machine-readable artefact: {name}.json)");
            }
        }
    }

    /// A short slug for file names when emitting JSON/CSV.
    fn slug(&self, fallback: &str, ordinal: usize) -> String {
        let base = match self {
            FigureOutput::Table(t) => t.title().to_string(),
            FigureOutput::Text(_) => fallback.to_string(),
            // Exact, ordinal-free: tooling greps for this very path.
            FigureOutput::Json { name, .. } => return name.clone(),
        };
        let mut slug: String = base
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        while slug.contains("__") {
            slug = slug.replace("__", "_");
        }
        format!("{}_{}", slug.trim_matches('_'), ordinal)
    }
}

/// Shared state for one process's worth of experiments.
#[derive(Debug)]
pub struct FigureContext {
    /// Scale parameters (from the environment).
    pub params: SweepParams,
    /// Scheduler options; the cache inside is shared by every figure.
    pub opts: SweepOptions,
    stats: SweepStats,
    spec_sweep: Option<SpecSweep>,
}

impl FigureContext {
    /// A context with `jobs` workers (0 = one per core) and a fresh
    /// shared cache.
    pub fn new(params: SweepParams, jobs: usize) -> Self {
        FigureContext {
            params,
            opts: SweepOptions::parallel(jobs)
                .with_progress()
                .with_cache(Arc::new(ResultCache::new())),
            stats: SweepStats::default(),
            spec_sweep: None,
        }
    }

    /// The shared Figs. 10–15 sweep, run on first use with the full
    /// configuration set (individual figures select their columns).
    ///
    /// # Errors
    ///
    /// The first failed job, rendered.
    pub fn spec_sweep(&mut self) -> Result<&SpecSweep, String> {
        if self.spec_sweep.is_none() {
            let sweep = SpecSweep::run_opts(
                SpecSweep::paper_configs_with_nomrb(),
                &self.params,
                &self.opts,
            )
            .map_err(|e| e.to_string())?;
            self.absorb(sweep.stats());
            self.spec_sweep = Some(sweep);
        }
        Ok(self.spec_sweep.as_ref().expect("spec sweep stored above"))
    }

    /// Folds one sweep's counters into the per-process totals.
    pub fn absorb(&mut self, s: SweepStats) {
        self.stats.jobs += s.jobs;
        self.stats.executed += s.executed;
        self.stats.cache_hits += s.cache_hits;
        self.stats.errors += s.errors;
    }

    /// Totals across every sweep this context ran.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

/// A named experiment.
#[derive(Clone)]
pub struct FigureDef {
    /// Registry name (`fig10`, `table1`, `sec33_replacement`, ...).
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
    run: fn(&mut FigureContext) -> Result<Vec<FigureOutput>, String>,
}

impl std::fmt::Debug for FigureDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FigureDef({})", self.name)
    }
}

impl FigureDef {
    /// Runs the experiment's sweeps and returns its artefacts.
    ///
    /// # Errors
    ///
    /// A one-line message when a job fails or the environment or file
    /// system the experiment reads is unusable.
    pub fn run(&self, ctx: &mut FigureContext) -> Result<Vec<FigureOutput>, String> {
        (self.run)(ctx)
    }
}

/// Every experiment, in the order `all_figures` runs them.
pub fn registry() -> Vec<FigureDef> {
    vec![
        FigureDef {
            name: "fig10",
            title: "Speedup over stride baseline",
            run: defs::fig10,
        },
        FigureDef {
            name: "fig11",
            title: "Normalized DRAM traffic",
            run: defs::fig11,
        },
        FigureDef {
            name: "fig12",
            title: "Prefetch accuracy",
            run: defs::fig12,
        },
        FigureDef {
            name: "fig13",
            title: "Coverage",
            run: defs::fig13,
        },
        FigureDef {
            name: "fig14",
            title: "Normalized L3 accesses",
            run: defs::fig14,
        },
        FigureDef {
            name: "fig15",
            title: "Normalized DRAM+L3 energy",
            run: defs::fig15,
        },
        FigureDef {
            name: "fig16",
            title: "Multiprogrammed speedup",
            run: defs::fig16,
        },
        FigureDef {
            name: "fig17",
            title: "Graph500 adversarial study",
            run: defs::fig17,
        },
        FigureDef {
            name: "fig18",
            title: "Markov metadata formats",
            run: defs::fig18,
        },
        FigureDef {
            name: "fig19",
            title: "LUT offset-width accuracy",
            run: defs::fig19,
        },
        FigureDef {
            name: "fig20",
            title: "Feature-ladder ablation",
            run: defs::fig20,
        },
        FigureDef {
            name: "table1",
            title: "Triangel structure sizing",
            run: defs::table1,
        },
        FigureDef {
            name: "table2",
            title: "Experimental setup",
            run: defs::table2,
        },
        FigureDef {
            name: "sec33_replacement",
            title: "Markov replacement-policy study",
            run: defs::sec33_replacement,
        },
        FigureDef {
            name: "duel_bias",
            title: "Set Dueller bias sweep",
            run: defs::duel_bias,
        },
        FigureDef {
            name: "features",
            title: "Feature ladder +/- eviction training",
            run: defs::features,
        },
        FigureDef {
            name: "timeline",
            title: "Per-interval time-series +/- eviction training",
            run: defs::timeline,
        },
        FigureDef {
            name: "traces",
            title: "Irregular families + recorded-trace replay",
            run: defs::traces,
        },
        FigureDef {
            name: "multicore",
            title: "N-core scaling on the contended timing model",
            run: defs::multicore,
        },
    ]
}

/// Command-line options of `all_figures`.
#[derive(Debug, Default)]
pub struct CliOptions {
    /// `--jobs N` (0 = one worker per core).
    pub jobs: usize,
    /// Positional `NAME`s: the registry entries to run (every entry
    /// when empty). Each is an exact registry name; they run in
    /// registry order, whatever order they were given in.
    pub names: Vec<String>,
    /// `--out-dir <dir>`: emit JSON/CSV here.
    pub out_dir: Option<PathBuf>,
    /// `--trace <path>`: record the harness's wall-time spans and write
    /// them as Chrome `trace_event` JSON (load at
    /// <https://ui.perfetto.dev>). Host-only observability — figure
    /// output is byte-identical with or without it.
    pub trace: Option<PathBuf>,
    /// `--store <dir>`: resolve jobs against (and publish them into)
    /// the on-disk result store at `dir`, shared safely with other
    /// processes. Serving a sweep from the store is byte-identical to
    /// executing it.
    pub store: Option<PathBuf>,
}

/// Parses `[--jobs N] [--out-dir DIR] [--trace PATH] [--store DIR]
/// [NAME…]`.
///
/// # Errors
///
/// A usage message on unknown flags, missing values, or a `NAME` that
/// is not in the [`registry`] (the message lists the valid names).
pub fn parse_cli(mut args: impl Iterator<Item = String>) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a value")?;
                opts.jobs = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
            }
            "--out-dir" => {
                let v = args.next().ok_or("--out-dir needs a path")?;
                opts.out_dir = Some(PathBuf::from(v));
            }
            "--trace" => {
                let v = args.next().ok_or("--trace needs a path")?;
                opts.trace = Some(PathBuf::from(v));
            }
            "--store" => {
                let v = args.next().ok_or("--store needs a directory")?;
                opts.store = Some(PathBuf::from(v));
            }
            flag if flag.starts_with('-') => {
                return Err(format!(
                    "unknown argument `{flag}` (expected --jobs N, --out-dir DIR, --trace PATH, \
                     --store DIR, NAME...)"
                ))
            }
            name => {
                let names: Vec<&str> = registry().iter().map(|f| f.name).collect();
                if !names.contains(&name) {
                    return Err(format!(
                        "unknown figure `{name}` (expected one of: {})",
                        names.join(", ")
                    ));
                }
                opts.names.push(arg);
            }
        }
    }
    Ok(opts)
}

/// Writes artefacts under `dir`. `FigureOutput::Json` artefacts are
/// always written (they are the whole point of the experiments that
/// produce them); tables and text only when `all` is set (i.e. the
/// user asked for `--out-dir`).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn emit_selected(
    dir: &std::path::Path,
    name: &str,
    outputs: &[FigureOutput],
    all: bool,
) -> std::io::Result<()> {
    if all
        || outputs
            .iter()
            .any(|o| matches!(o, FigureOutput::Json { .. }))
    {
        std::fs::create_dir_all(dir)?;
    }
    for (i, out) in outputs.iter().enumerate() {
        let slug = out.slug(name, i);
        match out {
            FigureOutput::Table(t) if all => {
                std::fs::write(dir.join(format!("{slug}.json")), emit::table_to_json(t))?;
                std::fs::write(dir.join(format!("{slug}.csv")), emit::table_to_csv(t))?;
            }
            FigureOutput::Text(s) if all => {
                std::fs::write(dir.join(format!("{slug}.txt")), s)?;
            }
            FigureOutput::Json { body, .. } => {
                std::fs::write(dir.join(format!("{slug}.json")), body)?;
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args<'a>(v: &'a [&str]) -> impl Iterator<Item = String> + 'a {
        v.iter().map(|s| s.to_string())
    }

    #[test]
    fn registry_names_are_unique_and_cover_the_evaluation() {
        let names: Vec<&str> = registry().iter().map(|f| f.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry names");
        for expected in [
            "fig10",
            "fig16",
            "fig17",
            "fig20",
            "table1",
            "table2",
            "sec33_replacement",
            "duel_bias",
            "features",
            "timeline",
            "traces",
            "multicore",
        ] {
            assert!(names.contains(&expected), "registry missing {expected}");
        }
    }

    #[test]
    fn cli_parses_all_flags() {
        let opts = parse_cli(args(&[
            "--jobs",
            "8",
            "table2",
            "--out-dir",
            "/tmp/x",
            "--store",
            "/tmp/store",
            "fig10",
        ]))
        .unwrap();
        assert_eq!(opts.jobs, 8);
        assert_eq!(opts.names, ["table2", "fig10"]);
        assert_eq!(
            opts.out_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(
            opts.store.as_deref(),
            Some(std::path::Path::new("/tmp/store"))
        );
        assert!(parse_cli(args(&[])).unwrap().names.is_empty());
        assert!(parse_cli(args(&["--bogus"])).is_err());
        let err = parse_cli(args(&["--connect", "x.sock"])).unwrap_err();
        assert!(err.starts_with("unknown argument `--connect`"), "{err}");
        let err = parse_cli(args(&["--filter", "fig1[0-5]"])).unwrap_err();
        assert!(err.starts_with("unknown argument `--filter`"), "{err}");
        let err = parse_cli(args(&["fig1"])).unwrap_err();
        assert!(err.starts_with("unknown figure `fig1`"), "{err}");
        assert!(err.contains("fig10") && err.contains("multicore"), "{err}");
        assert!(parse_cli(args(&["--store"])).is_err());
    }
}
