//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spec-stride --seed 42 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload (see `perfbench/README.md`) through the Triangel
//! crates' public API, checks every simulated result, and prints as
//! its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, measured untraced; with
//! `--trace 1` a separate traced run reports the per-layer ones and
//! writes its spans under `.bench_out/`.

mod calib;
mod host;
mod layers;
mod measure;
mod plan;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use triangel_sim::{Comparison, PrefetcherChoice};
use triangel_types::stats::geomean;

use measure::{Gate, Metric, Outcome};
use plan::Workload;

/// Seed held out from tuning: gain claims are checked on it as well.
const HELD_OUT_SEED: u64 = 20_240_629;

/// Scratch directory (relative to the working directory), removed on
/// exit.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent is shared by concurrent runs; remove it only once
        // it is empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SpecStride,
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// One JSON number: finite values with every digit, anything else null.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(gate: &Gate, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        let _ = write!(
            m,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            x.name,
            json_num(x.value),
            x.unit
        );
    }
    let correct = gate.failed == 0 && metrics.iter().all(|x| x.value.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        gate.ops.max(1),
        gate.failed
    )
}

/// Prints the model's simulated outputs next to the host metrics.
/// The repository holds no reference results, so these carry no error
/// figure; they are recorded, never gated.
fn print_model(w: Workload, out: &Outcome) {
    println!(
        "model outputs ({}; simulated time; model unvalidated, no error figure):",
        w.name()
    );
    let by_col = |col| measure::of_column(out.jobs.iter().zip(&out.reports), col);
    let base = by_col(PrefetcherChoice::Baseline);
    for col in plan::COLUMNS {
        let name = plan::column_name(col);
        let runs = by_col(col);
        if runs.is_empty() {
            continue;
        }
        let ipc =
            geomean(&runs.iter().map(|r| r.aggregate_ipc()).collect::<Vec<_>>()).unwrap_or(0.0);
        let dram: u64 = runs.iter().map(|r| r.dram_reads()).sum();
        let accuracy = measure::pooled_accuracy(&runs);
        let mut line =
            format!("  {name:<12} ipc_geomean={ipc:.4} dram_reads={dram} accuracy={accuracy:.4}");
        if base.len() == runs.len() {
            let cmp: Vec<Comparison> = base
                .iter()
                .zip(&runs)
                .map(|(b, r)| Comparison::new(b, r))
                .collect();
            let gm = |f: fn(&Comparison) -> f64| {
                geomean(&cmp.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
            };
            let coverage = cmp.iter().map(|c| c.coverage).sum::<f64>() / cmp.len() as f64;
            let _ = write!(
                line,
                " coverage_mean={coverage:.4} speedup_geomean={:.4} dram_traffic_geomean={:.4}",
                gm(|c| c.speedup),
                gm(|c| c.dram_traffic)
            );
        } else {
            line.push_str(" coverage=n/a speedup=n/a (no baseline column)");
        }
        println!("{line}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
                 (check gain claims on the held-out seed {HELD_OUT_SEED} too)",
                plan::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let tmp = TmpDir(PathBuf::from(".bench_tmp").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&tmp.0) {
        eprintln!("perfbench: creating {}: {e}", tmp.0.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "[bench] {} seed={} seconds={} trace={} threads_available={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let (outcome, gate) = if args.trace {
        layers::traced_run(args.workload, args.seed, &tmp.0)
    } else if args.workload == Workload::CampaignResume {
        measure::measure_campaign(args.workload, args.seed, args.seconds, &tmp.0)
    } else {
        measure::measure_jobs(args.workload, args.seed, args.seconds, &tmp.0)
    };
    if outcome.reports.is_empty() {
        eprintln!("perfbench: {} produced no results", args.workload.name());
        return ExitCode::FAILURE;
    }
    print_model(args.workload, &outcome);
    println!("sim_digest: {:016x}", outcome.digest);
    for m in &outcome.metrics {
        let kind = if m.is_host() { "host" } else { "deterministic" };
        println!("{:<34} {:>18.6} {:<6} {kind}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&gate, &outcome.metrics));
    ExitCode::SUCCESS
}
