//! The CLIs' contract, driven through the built binaries:
//! exact-name selection, registry-order output, usage errors (exit 2)
//! and typed experiment or recording failures (exit 1, one line, no
//! panic).

use std::process::{Command, Output};

/// Runs `bin` with `args` and the scale environment cleared, so the
/// outcome does not depend on the caller's `TRIANGEL_*` variables.
fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for var in [
        "TRIANGEL_QUICK",
        "TRIANGEL_WARMUP",
        "TRIANGEL_ACCESSES",
        "TRIANGEL_TRACE_FILE",
    ] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("spawn binary")
}

fn all_figures(args: &[&str], env: &[(&str, &str)]) -> Output {
    run(env!("CARGO_BIN_EXE_all_figures"), args, env)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_name_exits_2_and_lists_the_registry() {
    let out = all_figures(&["zzz"], &[]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(out.stdout.is_empty(), "nothing may run before the check");
    let err = stderr(&out);
    assert!(err.contains("`zzz`"), "{err}");
    for name in [
        "fig10",
        "table1",
        "sec33_replacement",
        "traces",
        "multicore",
    ] {
        assert!(err.contains(name), "registry name {name} missing: {err}");
    }
}

#[test]
fn argument_order_never_changes_stdout() {
    let forward = all_figures(&["--jobs", "1", "table1", "table2"], &[]);
    let reverse = all_figures(&["table2", "table1", "--jobs", "1"], &[]);
    assert!(forward.status.success(), "{}", stderr(&forward));
    assert!(reverse.status.success(), "{}", stderr(&reverse));
    assert!(!forward.stdout.is_empty());
    assert_eq!(forward.stdout, reverse.stdout);
    let text = String::from_utf8_lossy(&forward.stdout);
    let t1 = text.find("Table 1").expect("table1 printed");
    let t2 = text.find("Table 2").expect("table2 printed");
    assert!(t1 < t2, "registry order: table1 before table2");
}

#[test]
fn unreadable_trace_file_is_an_error_not_a_panic() {
    let path = "/nonexistent.trc";
    let out = all_figures(&["--jobs", "1", "traces"], &[("TRIANGEL_TRACE_FILE", path)]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("error: traces: "), "{err}");
    assert!(err.contains(path), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn malformed_scale_env_is_a_usage_error() {
    let out = all_figures(&["table1"], &[("TRIANGEL_WARMUP", "lots")]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(out.stdout.is_empty());
    let err = stderr(&out);
    assert!(
        err.contains("TRIANGEL_WARMUP") && !err.contains("panicked"),
        "{err}"
    );
}

#[test]
fn bless_rejects_unknown_fixture_names() {
    let out = run(env!("CARGO_BIN_EXE_bless"), &["--check", "bogus"], &[]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("golden_sweep"), "{}", stderr(&out));
}

fn trace_record(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_trace_record"), args, &[])
}

#[test]
fn trace_record_bad_arguments_exit_2_with_usage() {
    for args in [
        &["--workload", "MCF", "--out", "x.trc", "--seed"][..],
        &["--workload", "MCF", "--out", "x.trc", "--seed", "abc"],
        &["--workload", "MCF", "--out", "x.trc", "--accesses", "abc"],
        &["--workload", "NoSuchWorkload", "--out", "x.trc"],
        &["--out", "x.trc"],
    ] {
        let out = trace_record(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("usage: trace_record"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn trace_record_write_failure_exits_1() {
    let dir = std::env::temp_dir().join(format!("triangel-cli-missing-{}", std::process::id()));
    let path = dir.join("x.trc");
    let path = path.to_str().expect("temp path is UTF-8");
    let out = trace_record(&["--workload", "MCF", "--accesses", "10", "--out", path]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains(&format!("error: recording {path}: ")), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
