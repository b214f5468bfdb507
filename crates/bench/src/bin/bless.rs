//! `bless` — regenerate (or verify) the committed golden fixtures.
//!
//! Golden fixtures pin the simulator's behaviour byte-for-byte; they
//! must only ever change as a *deliberate, reviewed* step when a
//! behaviour change lands. This tool makes that step explicit:
//!
//! ```sh
//! # Regenerate every fixture (then inspect `git diff` and commit):
//! cargo run --release -p triangel-bench --bin bless
//!
//! # Regenerate some fixtures, by exact name:
//! cargo run --release -p triangel-bench --bin bless -- golden_evict_train
//!
//! # Verify without writing (CI: nonzero exit on any drift):
//! cargo run --release -p triangel-bench --bin bless -- --check
//! ```
//!
//! Usage: `bless [--check] [NAME...]`, where each `NAME` is one of
//! `golden_sweep`, `golden_evict_train`, `golden_multicore` (none means
//! all). An unknown name or flag exits 2 before anything runs.
//!
//! The sweep definitions live in `triangel_harness::goldens`, shared
//! with the fixture tests, so what `bless` writes is exactly what the
//! tests assert against.

use std::path::PathBuf;
use std::process::ExitCode;

use triangel_harness::goldens;

struct Fixture {
    name: &'static str,
    what: &'static str,
    path: PathBuf,
    generate: fn() -> String,
}

fn fixtures() -> Vec<Fixture> {
    vec![
        Fixture {
            name: "golden_sweep",
            what: "default (gate-off) behaviour, pre-refactor pin",
            path: goldens::golden_fixture_path(),
            generate: || goldens::render(&goldens::golden_sweep()),
        },
        Fixture {
            name: "golden_evict_train",
            what: "train_on_eviction gate-on behaviour",
            path: goldens::evict_train_fixture_path(),
            generate: || goldens::render(&goldens::evict_train_sweep()),
        },
        Fixture {
            name: "golden_multicore",
            what: "four-core contended timing model",
            path: goldens::multicore_fixture_path(),
            generate: || goldens::render(&goldens::multicore_sweep()),
        },
    ]
}

fn main() -> ExitCode {
    let all = fixtures();
    let mut check = false;
    let mut names: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else if !arg.starts_with('-') && all.iter().any(|fx| fx.name == arg) {
            names.push(arg);
        } else {
            let valid: Vec<&str> = all.iter().map(|fx| fx.name).collect();
            eprintln!(
                "unknown argument `{arg}` (expected --check, NAME...; names: {})",
                valid.join(", ")
            );
            return ExitCode::from(2);
        }
    }

    let mut drifted = 0usize;
    for fx in all {
        if !names.is_empty() && !names.iter().any(|n| n == fx.name) {
            continue;
        }
        eprintln!("[bless] generating {} ({})...", fx.name, fx.what);
        let fresh = (fx.generate)();
        let on_disk = std::fs::read_to_string(&fx.path).ok();
        let state = match &on_disk {
            Some(d) if *d == fresh => "unchanged",
            Some(_) => "CHANGED",
            None => "NEW",
        };
        if check {
            eprintln!("[bless] {:18} {}  {}", fx.name, state, fx.path.display());
            if state != "unchanged" {
                drifted += 1;
            }
        } else {
            if state != "unchanged" {
                if let Err(e) = std::fs::write(&fx.path, &fresh) {
                    eprintln!("[bless] cannot write {}: {e}", fx.path.display());
                    return ExitCode::FAILURE;
                }
            }
            eprintln!("[bless] {:18} {}  {}", fx.name, state, fx.path.display());
        }
    }
    if check && drifted > 0 {
        eprintln!(
            "[bless] {drifted} fixture(s) out of sync — a behaviour change reached a pinned \
             sweep. If intentional, re-bless with `cargo run -p triangel-bench --bin bless` \
             and commit the diff with an explanation."
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
