//! End-to-end checks of `repro`'s observability surfaces.
//!
//! * Every campaign appends one metrics snapshot — batches as well as
//!   sweeps — so an experiment made only of batches (E4's protocol
//!   cross-check) still leaves a `metrics.jsonl` whose last snapshot
//!   agrees with the `--metrics-out` exposition.
//! * `--progress` under self-healing ends stderr with the run's summary
//!   line, heal segment included, and each caught trial panic prints one
//!   line (no backtrace) instead of the default panic report.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use contention_harness::experiments::seed_base;
use contention_harness::record::load_jsonl;
use contention_harness::Scale;
use mac_sim::obs::Json;
use mac_sim::MetricsSnapshot;

fn repro(args: &[&str]) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("contention-repro-cli").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn batch_experiment_checkpoints_a_metrics_snapshot() {
    let dir = fresh_dir("m4");
    let prom = dir.join("m.prom");
    repro(&[
        "--quick",
        "--record-dir",
        dir.to_str().expect("utf-8 temp dir"),
        "--metrics-out",
        prom.to_str().expect("utf-8 temp dir"),
        "e4",
    ]);
    let exported: u64 = fs::read_to_string(&prom)
        .expect("exposition written")
        .lines()
        .find_map(|line| line.strip_prefix("campaign_trials_done_total "))
        .expect("trials counter exported")
        .parse()
        .expect("counter value");
    let stream = load_jsonl(&dir.join("metrics.jsonl")).expect("snapshot stream written");
    let last: &Json = stream.last().expect("at least one snapshot");
    let snapshot = MetricsSnapshot::from_json(last).expect("snapshot parses");
    assert!(exported > 0);
    assert_eq!(
        snapshot
            .registry
            .counter(mac_sim::Counter::CampaignTrialsDone),
        exported
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn progress_line_ends_with_the_heal_summary() {
    // The third trial of E4's quick protocol cross-check.
    let seed = (seed_base("e4", 1024, 0) + 2).to_string();
    let output = repro(&[
        "--quick",
        "--progress",
        "--self-heal",
        "2",
        "--chaos-panic-seed",
        &seed,
        "e4",
    ]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    // Two attempts at the poisoned seed, one line each, even with
    // backtraces requested.
    assert!(!stderr.contains("stack backtrace"), "{stderr}");
    let panic_lines: Vec<&str> = stderr
        .lines()
        .filter(|line| line.contains("panicked at"))
        .collect();
    assert_eq!(panic_lines.len(), 2, "{stderr}");
    assert!(
        panic_lines
            .iter()
            .all(|line| line.starts_with("thread 'campaign-worker-")
                && line.ends_with(&format!("chaos: injected panic at seed {seed}"))),
        "{stderr}"
    );
    let last = stderr
        .rsplit(['\n', '\r'])
        .map(str::trim)
        .find(|line| !line.is_empty())
        .expect("stderr is not empty");
    let done = format!("done: {} trials in ", Scale::Quick.trials());
    assert!(
        last.starts_with(&done) && last.ends_with("heal: r1 q1"),
        "unexpected final progress line: {last:?}"
    );
}
