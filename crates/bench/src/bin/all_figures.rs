//! Regenerates the paper's figures and tables: the one entry point to
//! the `triangel_bench::figures` registry.
//!
//! All experiments execute in-process through the `triangel-harness`
//! scheduler over one shared result cache, so simulations common to
//! several figures (the per-workload stride-only baselines above all)
//! run exactly once; the final summary reports the cache-hit count.
//!
//! ```text
//! all_figures [--jobs N] [--out-dir <dir>] [--trace <path>] [--store <dir>] [NAME...]
//! ```
//!
//! * `NAME...` — exact registry names (`fig10`, `table1`, `traces`, ...)
//!   to run; none means every entry. Entries always run in registry
//!   order, so argument order never changes stdout. An unknown name
//!   exits 2 before anything runs.
//! * `--jobs N` — worker threads (default: one per core). Reports are
//!   bit-identical for every value, `--jobs 1` included.
//! * `--out-dir <dir>` — additionally emit every table as JSON and CSV.
//! * `--trace <path>` — record the harness's wall-time spans (job
//!   lifetimes, worker lanes, cache counters) as Chrome `trace_event`
//!   JSON for <https://ui.perfetto.dev>. Host-only: figure output is
//!   byte-identical with or without it.
//! * `--store <dir>` — resolve jobs against (and publish into) the
//!   shared on-disk result store. Byte-identical output, warm or cold.
//!
//! Exit status: 0 on success, 1 when an experiment fails (one line,
//! `error: <name>: <message>`, on stderr) or an artefact cannot be
//! written, 2 on usage errors.
//!
//! Full-scale run: `cargo run --release -p triangel-bench --bin all_figures`
//! Smoke run: `TRIANGEL_QUICK=1 cargo run --release -p triangel-bench --bin all_figures -- fig10 table1 table2`

use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

use triangel_bench::figures::{self, FigureContext};
use triangel_bench::SweepParams;
use triangel_harness::ResultStore;
use triangel_obs::TraceBuffer;

fn main() {
    let (cli, params) = figures::parse_cli(std::env::args().skip(1))
        .and_then(|cli| Ok((cli, SweepParams::from_env()?)))
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            exit(2);
        });
    eprintln!(
        "==> all_figures: warmup {}, accesses {}, {} worker(s)",
        params.warmup,
        params.accesses,
        if cli.jobs == 0 {
            "per-core".to_string()
        } else {
            cli.jobs.to_string()
        }
    );

    let mut ctx = FigureContext::new(params, cli.jobs);
    let trace = cli.trace.as_ref().map(|_| Arc::new(TraceBuffer::new()));
    ctx.opts.trace = trace.clone();
    if let Some(dir) = &cli.store {
        let store = ResultStore::open(dir).unwrap_or_else(|e| {
            eprintln!("cannot open result store at {}: {e}", dir.display());
            exit(2);
        });
        ctx.opts.store = Some(Arc::new(store));
    }
    // Tables/text are emitted only under --out-dir; JSON artefacts are
    // always written, defaulting to the working directory.
    let dir = cli.out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    let mut ran = 0usize;
    for def in figures::registry() {
        if !cli.names.is_empty() && !cli.names.iter().any(|n| n == def.name) {
            continue;
        }
        eprintln!("==> {} ({})", def.name, def.title);
        let outputs = def.run(&mut ctx).unwrap_or_else(|e| {
            eprintln!("error: {}: {e}", def.name);
            exit(1);
        });
        for out in &outputs {
            out.print();
        }
        if let Err(e) = figures::emit_selected(&dir, def.name, &outputs, cli.out_dir.is_some()) {
            eprintln!("failed to emit {} to {}: {e}", def.name, dir.display());
            exit(1);
        }
        ran += 1;
    }
    if let (Some(path), Some(trace)) = (&cli.trace, &trace) {
        if let Err(e) = std::fs::write(path, trace.to_json()) {
            eprintln!("failed to write trace to {}: {e}", path.display());
            exit(1);
        }
        eprintln!("[trace] {} event(s) -> {}", trace.len(), path.display());
    }
    if let Some(store) = &ctx.opts.store {
        eprintln!("[store] {}", store.stats().render());
    }
    let stats = ctx.stats();
    eprintln!(
        "==> {} experiment(s); {} job(s), {} executed, {} cache hit(s), {} error(s)",
        ran, stats.jobs, stats.executed, stats.cache_hits, stats.errors
    );
}
