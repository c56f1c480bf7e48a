//! The command line both binaries share (`xquery_bang::cli`): every engine
//! setting is one flag in one table and one line of each binary's help,
//! the flags reach the engine in any order, and the process environment
//! reaches nothing.

use std::process::Command;
use xquery_bang::cli::{self, ENGINE_FLAGS};
use xquery_bang::SyncMode;

/// The nine engine settings a binary can reach.
const SETTINGS: [&str; 9] = [
    "--store",
    "--durability",
    "--threads",
    "--max-depth",
    "--fuel",
    "--deadline-ms",
    "--memory-items",
    "--slow-ms",
    "--trace",
];

fn temp_path(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("xqb_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

fn args(list: &[&str]) -> cli::Args {
    cli::parse("usage: test", "", list.iter().map(|s| s.to_string())).unwrap()
}

/// A row of a help text that starts with `flag`.
fn rows_naming(help: &str, flag: &str) -> usize {
    help.lines()
        .filter(|line| line.trim_start().starts_with(&format!("{flag} ")))
        .count()
}

#[test]
fn each_engine_setting_is_one_row_in_the_table_and_in_each_help() {
    assert_eq!(
        ENGINE_FLAGS
            .lines()
            .filter(|l| l.starts_with("  --"))
            .count(),
        9
    );
    for bin in [env!("CARGO_BIN_EXE_xqbang"), env!("CARGO_BIN_EXE_xqserve")] {
        let out = Command::new(bin).arg("--help").output().unwrap();
        let help = String::from_utf8(out.stderr).unwrap();
        assert!(!help.contains("XQB_"), "{bin} --help names a variable");
        for flag in SETTINGS {
            assert_eq!(rows_naming(ENGINE_FLAGS, flag), 1, "{flag} in ENGINE_FLAGS");
            assert_eq!(rows_naming(&help, flag), 1, "{flag} in {bin} --help");
        }
    }
}

#[test]
fn engine_flags_configure_the_engine_in_any_order() {
    let store = temp_path("store");
    let trace = temp_path("trace.jsonl");
    let (store_s, trace_s) = (store.to_str().unwrap(), trace.to_str().unwrap());
    // `--store` before `--durability`: the store runs under the mode.
    let parsed = args(&[
        "--store",
        store_s,
        "--durability",
        "off",
        "--threads",
        "4",
        "--max-depth",
        "0",
        "--fuel",
        "10",
        "--deadline-ms",
        "20",
        "--memory-items",
        "30",
        "--slow-ms",
        "1.5",
        "--trace",
        trace_s,
    ]);
    let mut engine = cli::engine(&parsed).unwrap();
    assert_eq!(engine.durability(), SyncMode::Off);
    assert_eq!(engine.store.durability(), Some(SyncMode::Off));
    assert_eq!(engine.threads(), 4);
    let limits = *engine.limits();
    assert_eq!(limits.max_depth, 1, "a zero depth is clamped to 1");
    assert_eq!(
        (limits.fuel, limits.deadline_ms, limits.memory_items),
        (Some(10), Some(20), Some(30))
    );
    // Depth 1 trips at once; the run is still traced.
    engine.run("count(1 to 3)").unwrap_err();
    assert!(
        std::fs::metadata(&trace).unwrap().len() > 0,
        "trace written"
    );
    drop(engine);
    std::fs::remove_dir_all(&store).unwrap();
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn bad_engine_flags_are_startup_errors() {
    assert!(cli::engine(&args(&["--trace", "/nonexistent/dir/t.jsonl"])).is_err());
    assert!(cli::engine(&args(&["--durability", "never"])).is_err());
    assert!(cli::engine(&args(&["--fuel", "lots"])).is_err());
    for ms in ["nan", "inf", "-1"] {
        let err = cli::engine(&args(&["--slow-ms", ms])).err();
        assert_eq!(err, Some(format!("bad value \"{ms}\" for --slow-ms")));
    }
    assert!(cli::parse("usage: test", "", ["--fuel".to_string()]).is_err());
    assert!(cli::parse("usage: test", "", ["--bogus".to_string()]).is_err());
}

#[test]
fn exported_variables_reach_nothing() {
    let (store, trace) = (temp_path("env_store"), temp_path("env_trace"));
    let out = Command::new(env!("CARGO_BIN_EXE_xqbang"))
        .env("XQB_STORE_PATH", &store)
        .env("XQB_FUEL", "1")
        .env("XQB_THREADS", "4")
        .env("XQB_TRACE", &trace)
        .args([
            "--analyze",
            "-q",
            "count(for $i in 1 to 1000 return $i + 1)",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(
        report.contains(" rows=1 ") && report.contains(" threads=1 "),
        "{report}"
    );
    assert!(!store.exists(), "XQB_STORE_PATH opened a store");
    assert!(!trace.exists(), "XQB_TRACE opened a sink");
}
