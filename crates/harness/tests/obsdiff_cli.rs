//! The `obsdiff` binary's exit codes, run as CI runs it.
//!
//! `obsdiff` gates CI: `diff` against the committed golden record, `trend`
//! against the committed snapshot stream, and `check` over every emitted
//! record file. Exit 0 means clean, 1 flagged or invalid, 2 a usage error.
//! A gate that a malformed threshold or a wrong input file can turn green
//! shows nothing, so each of those cases is pinned here.

use contention_harness::record::load_jsonl;
use mac_sim::obs::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/golden_run_record.jsonl")
}

/// Writes `body` to a file under the system temp dir, named for this test
/// process and `name` so parallel tests never share one.
fn temp_file(name: &str, body: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("obsdiff_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    path
}

/// Runs `obsdiff args…` and returns its exit code and stdout.
fn obsdiff(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obsdiff"))
        .args(args)
        .output()
        .expect("obsdiff runs");
    let code = out.status.code().expect("obsdiff exits with a code");
    (code, String::from_utf8_lossy(&out.stdout).into_owned())
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

/// The golden fixture with 5 added to every trial's `rounds`, written to
/// the temp file `name`.
fn golden_plus_five_rounds(name: &str) -> PathBuf {
    let lines: Vec<String> = load_jsonl(&golden())
        .expect("golden fixture loads")
        .into_iter()
        .map(|record| {
            let Json::Obj(mut fields) = record else {
                panic!("record is not an object");
            };
            if fields
                .iter()
                .any(|(k, v)| k == "kind" && v.as_str() == Some("trial"))
            {
                let (_, rounds) = fields
                    .iter_mut()
                    .find(|(k, _)| k == "rounds")
                    .expect("trial has rounds");
                *rounds = Json::UInt(rounds.as_u64().expect("rounds is a count") + 5);
            }
            Json::Obj(fields).render()
        })
        .collect();
    temp_file(name, &(lines.join("\n") + "\n"))
}

#[test]
fn golden_fixture_against_itself_is_clean() {
    let golden = golden();
    let (code, stdout) = obsdiff(&["diff", path_str(&golden), path_str(&golden)]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("summary: 0 flagged"), "{stdout}");
}

#[test]
fn added_rounds_are_flagged() {
    let (golden, shifted) = (golden(), golden_plus_five_rounds("flagged.jsonl"));
    let (code, stdout) = obsdiff(&["diff", path_str(&golden), path_str(&shifted)]);
    let _ = std::fs::remove_file(&shifted);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("summary: 5 flagged"), "{stdout}");
}

#[test]
fn malformed_thresholds_are_usage_errors() {
    let (golden, shifted) = (golden(), golden_plus_five_rounds("usage.jsonl"));
    for (flag, value) in [
        ("--round-pct", "NaN"),
        ("--round-pct", "inf"),
        ("--round-pct", "-5"),
        ("--energy-pct", "NaN"),
        ("--cell-pct", "-inf"),
        ("--wall-pct", "-1"),
    ] {
        let (code, stdout) = obsdiff(&["diff", path_str(&golden), path_str(&shifted), flag, value]);
        assert_eq!(code, 2, "{flag} {value}: {stdout}");
    }
    let _ = std::fs::remove_file(&shifted);
}

#[test]
fn trend_without_snapshots_is_flagged() {
    let empty = temp_file("empty.jsonl", "");
    let golden = golden();
    for (a, b) in [(&empty, &empty), (&golden, &empty)] {
        let (code, stdout) = obsdiff(&["trend", path_str(a), path_str(b)]);
        assert_eq!(code, 1, "{stdout}");
    }
    let (_, stdout) = obsdiff(&["trend", path_str(&empty), path_str(&empty)]);
    let _ = std::fs::remove_file(&empty);
    assert!(stdout.contains("summary: 2 flagged"), "{stdout}");
}

#[test]
fn check_rejects_the_bench_kind() {
    let bench = temp_file(
        "bench.jsonl",
        "{\"schema_version\":2,\"kind\":\"bench\",\"name\":\"x\",\"mean_ns\":1.5,\"iters\":10}\n",
    );
    let (code, _) = obsdiff(&["check", path_str(&bench)]);
    let _ = std::fs::remove_file(&bench);
    assert_eq!(code, 1);
}

#[test]
fn unknown_flags_are_usage_errors() {
    let (golden, shifted) = (golden(), golden_plus_five_rounds("misspelt.jsonl"));
    let (code, stdout) = obsdiff(&[
        "diff",
        path_str(&golden),
        path_str(&shifted),
        "--round-pc",
        "50",
    ]);
    assert_eq!(code, 2, "{stdout}");
    let (code, stdout) = obsdiff(&["trend", path_str(&golden), path_str(&shifted), "--x", "1"]);
    assert_eq!(code, 2, "{stdout}");
    let (code, _) = obsdiff(&["check", path_str(&golden), "--strict", "1"]);
    assert_eq!(code, 2);
    let (code, stdout) = obsdiff(&[
        "diff",
        path_str(&golden),
        path_str(&shifted),
        "--round-pct",
        "1000",
    ]);
    let _ = std::fs::remove_file(&shifted);
    assert_eq!(code, 0, "the spelt-out flag is accepted: {stdout}");
}

#[test]
fn diff_and_trend_exit_1_on_an_invalid_record() {
    let golden = golden();
    let first = std::fs::read_to_string(&golden)
        .expect("golden fixture reads")
        .lines()
        .next()
        .expect("golden fixture has a manifest")
        .to_string();
    let invalid = temp_file(
        "invalid.jsonl",
        &format!(
            "{first}\n{{\"schema_version\":2,\"kind\":\"bench\",\"name\":\"x\",\"mean_ns\":1.5,\"iters\":10}}\n"
        ),
    );
    let (check, _) = obsdiff(&["check", path_str(&invalid)]);
    let (diff, diff_out) = obsdiff(&["diff", path_str(&golden), path_str(&invalid)]);
    let (trend, trend_out) = obsdiff(&["trend", path_str(&invalid), path_str(&golden)]);
    let _ = std::fs::remove_file(&invalid);
    assert_eq!(check, 1);
    assert_eq!(diff, 1, "{diff_out}");
    assert_eq!(trend, 1, "{trend_out}");
}
