//! Deadline and resume behaviour for the dynamic-arrivals experiment.
//!
//! E21's fault section runs *horizonless* traffic sweeps (the run ends
//! when the backlog drains or the round budget trips), which is exactly
//! the shape that can wedge under a cooperative deadline if any layer
//! waits on "all packets delivered" instead of polling the token. This
//! suite pins the contract end to end through the `repro` binary:
//!
//! * a deadline mid-E21 exits with code 3, leaves a checkpoint, and
//!   terminates promptly (no wedge);
//! * `--resume` completes the sweep bit-identically to an uninterrupted
//!   run, at a different worker count.
//! * a `--deadline` that is not a positive, representable duration is a
//!   usage error (exit 2), not a panic.
//!
//! Companion to `resume_bit_identity.rs`, which pins the same contract
//! for an in-process cancel on a non-traffic experiment.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const ID: &str = "e21";

/// Runs `repro` with the given args, failing the test if the process is
/// still alive after `limit` — a wedged run must fail loudly, not hang
/// the suite.
fn repro_within(limit: Duration, args: &[&str]) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro spawns");
    let started = Instant::now();
    loop {
        match child.try_wait().expect("wait on repro") {
            Some(_) => return child.wait_with_output().expect("collect repro output"),
            None if started.elapsed() > limit => {
                let _ = child.kill();
                panic!("repro {args:?} wedged: still running after {limit:?}");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("contention-traffic-cancel")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create record dir");
    dir
}

fn record_path(dir: &Path) -> PathBuf {
    dir.join(format!("{ID}.jsonl"))
}

#[test]
fn deadline_mid_e21_exits_three_and_resumes_bit_identically() {
    let limit = Duration::from_secs(300);

    // Reference: uninterrupted quick E21.
    let reference_dir = fresh_dir("reference");
    let reference = repro_within(
        limit,
        &[
            "--quick",
            ID,
            "--record-dir",
            reference_dir.to_str().unwrap(),
            "--workers",
            "2",
        ],
    );
    assert_eq!(
        reference.status.code(),
        Some(0),
        "reference run failed: {}",
        String::from_utf8_lossy(&reference.stderr)
    );
    let reference_bytes = fs::read(record_path(&reference_dir)).expect("reference record");

    // Interrupted: a deadline far shorter than the sweep. The process must
    // terminate on its own (repro_within panics on a wedge) with exit 3.
    let interrupted_dir = fresh_dir("interrupted");
    let interrupted = repro_within(
        limit,
        &[
            "--quick",
            ID,
            "--record-dir",
            interrupted_dir.to_str().unwrap(),
            "--workers",
            "2",
            "--deadline",
            "0.05",
        ],
    );
    let checkpoint = interrupted_dir.join(format!("{ID}.jsonl.part"));
    match interrupted.status.code() {
        Some(3) => {
            assert!(
                checkpoint.exists(),
                "deadline expiry leaves a checkpoint behind"
            );
            assert!(
                !record_path(&interrupted_dir).exists(),
                "a deadline-cancelled run must not finalize its record"
            );
        }
        // On an absurdly fast machine the sweep may beat the deadline;
        // the resume below then degenerates to a replay — still checked.
        Some(0) => {}
        code => panic!(
            "deadline run exited with {code:?}, expected 3 (or 0 if it finished): {}",
            String::from_utf8_lossy(&interrupted.stderr)
        ),
    }

    // Resume at a different worker count: bit-identical record, no
    // checkpoint left behind.
    let resumed = repro_within(
        limit,
        &[
            "--quick",
            ID,
            "--resume",
            interrupted_dir.to_str().unwrap(),
            "--workers",
            "3",
        ],
    );
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "resumed run failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(!checkpoint.exists(), "finalizing removes the checkpoint");
    let resumed_bytes = fs::read(record_path(&interrupted_dir)).expect("resumed record");
    assert_eq!(
        resumed_bytes, reference_bytes,
        "resumed E21 record must be byte-identical to an uninterrupted run"
    );

    let _ = fs::remove_dir_all(std::env::temp_dir().join("contention-traffic-cancel"));
}

#[test]
fn deadline_outside_the_duration_range_is_a_usage_error() {
    for secs in ["inf", "1e30", "0", "-1", "soon"] {
        let out = repro_within(
            Duration::from_secs(60),
            &["--quick", "--deadline", secs, "e1"],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--deadline {secs}: {stderr}");
        assert!(
            stderr.contains("--deadline needs a positive number of seconds"),
            "--deadline {secs}: {stderr}"
        );
    }
}
