//! `trace_record`: captures any built-in generator to a ChampSim-style
//! binary trace file (see `triangel_workloads::trace_file`).
//!
//! Usage:
//!
//! ```text
//! trace_record --workload <label> --out <path.trc> [--seed N] [--accesses N]
//! ```
//!
//! `<label>` is any SPEC-like generator label (`MCF`, `Xalan`, ...) or
//! irregular-family label (`ZipfKV`, `GCChurn`, `HashJoin`,
//! `WebServe`). Recording is deterministic: the same label, seed, and
//! access count always produce byte-identical files (the header
//! checksum proves it). Replay the result with the `traces` figure
//! (`TRIANGEL_TRACE_FILE=<path.trc>`) or programmatically through
//! `WorkloadSpec::trace_file`.
//!
//! Exit status: 0 on success, 1 when the trace cannot be written (one
//! line, `error: recording <path>: <message>`, on stderr), 2 on usage
//! errors (a missing, malformed or unknown argument or label; the
//! usage text follows the message).

use std::path::PathBuf;
use std::process::exit;

use triangel_workloads::irregular::IrregularWorkload;
use triangel_workloads::spec::SpecWorkload;
use triangel_workloads::trace_file::record_trace;
use triangel_workloads::TraceSource;

/// Prints `msg` and the usage text to stderr and exits 2.
fn usage_error(msg: &str) -> ! {
    let spec: Vec<&str> = SpecWorkload::ALL.iter().map(|w| w.label()).collect();
    let irr: Vec<&str> = IrregularWorkload::ALL.iter().map(|w| w.label()).collect();
    eprintln!(
        "{msg}\n\
         usage: trace_record --workload <label> --out <path.trc> [--seed N] [--accesses N]\n\
         labels: {} | {}",
        spec.join(", "),
        irr.join(", ")
    );
    exit(2);
}

fn generator(label: &str, seed: u64) -> Option<Box<dyn TraceSource + Send>> {
    if let Some(wl) = SpecWorkload::ALL.into_iter().find(|w| w.label() == label) {
        return Some(Box::new(wl.generator(seed)));
    }
    IrregularWorkload::from_label(label).map(|wl| Box::new(wl.generator(seed)) as Box<_>)
}

struct Args {
    workload: String,
    out: PathBuf,
    seed: u64,
    accesses: u64,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut out = None;
    let mut seed = 42;
    let mut accesses = 100_000;
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|e| format!("{arg}: `{v}` is not an unsigned integer ({e})"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--seed" => seed = number(value()?)?,
            "--accesses" => accesses = number(value()?)?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        out: out.ok_or("--out is required")?,
        seed,
        accesses,
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(&e));
    let Some(mut src) = generator(&args.workload, args.seed) else {
        usage_error(&format!("unknown workload `{}`", args.workload));
    };
    let header = record_trace(src.as_mut(), args.accesses, &args.out).unwrap_or_else(|e| {
        eprintln!("error: recording {}: {e}", args.out.display());
        exit(1);
    });
    eprintln!(
        "[trace_record] {} seed {}: {} record(s), checksum {:016x} -> {}",
        args.workload,
        args.seed,
        header.records,
        header.checksum,
        args.out.display()
    );
}
