//! The `contend` binary end to end: bad input ends in a usage error (exit
//! code 2 and one `error:` line on stderr), never in a panic, `--trace`
//! prints the run's channel-activity chart, and a run prints its rounds by
//! phase.

use std::process::{Command, Output};

fn contend(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_contend"))
        .args(args)
        .output()
        .expect("contend runs")
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = contend(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.trim_end(), format!("error: {message}"), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
}

#[test]
fn zero_channels_is_a_usage_error() {
    assert_usage_error(&["--channels", "0"], "--channels must be at least 1");
    assert_usage_error(
        &["-c", "0", "--trials", "3"],
        "--channels must be at least 1",
    );
}

#[test]
fn universe_below_two_is_a_usage_error() {
    for n in ["0", "1"] {
        assert_usage_error(&["--universe", n], "--universe must be at least 2");
        assert_usage_error(&["-n", n, "--trials", "3"], "--universe must be at least 2");
    }
}

#[test]
fn zero_trials_is_a_usage_error() {
    assert_usage_error(&["--trials", "0"], "--trials must be at least 1");
}

#[test]
fn one_channel_is_accepted() {
    let out = contend(&["--channels", "1", "--active", "8"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn trace_prints_the_activity_chart() {
    let out = contend(&["--channels", "4", "--active", "3", "--trace"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.ends_with(
            "\nactivity (S silence, M message, X collision):\n\
             ch    1 |XSM\n   round 012\n"
        ),
        "stdout was:\n{stdout}"
    );
}

#[test]
fn supervised_run_prints_rounds_by_phase() {
    let out = contend(&["--algo", "supervised"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("rounds by phase:"))
        .unwrap_or_else(|| panic!("no rounds-by-phase line in:\n{stdout}"));
    assert_eq!(
        line,
        "rounds by phase: id-rename=1 id-report=1 le-pair=1 le-root-check=2 \
         le-split-search=15 reduce=8"
    );
}
