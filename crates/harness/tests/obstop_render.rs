//! Golden-render pin for the `obstop` dashboard.
//!
//! `obstop --once` over the committed snapshot fixture must render
//! byte-identically to the pinned frame below. The fixture's final
//! snapshot has an empty queue, so the frame also proves the fresh/idle
//! hardening: the ETA renders as `—`, never `0s`, `inf`, or `NaN`.
//! A renderer change that alters the frame must update the golden here
//! (and eyeball the new frame first).

use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

const GOLDEN_FRAME: &str = "\
obstop — tests/fixtures/golden_snapshot.jsonl  (snapshot #4, 5 in stream)
campaign   trials 160  cells 20  shards 40  queue 0  workers 2
           ETA — (queue × mean shard wall)
heal       retried 0  quarantined 0
counters
  campaign_worker_busy_ns_total                731.2ms
histograms
  campaign_shard_wall_ns             n=40      mean=18.3ms    |██▂▂▂▂ ▂        ▂             ▂▂|
";

#[test]
fn once_render_matches_the_golden_frame() {
    let output = Command::new(env!("CARGO_BIN_EXE_obstop"))
        .current_dir(workspace_root())
        .args(["tests/fixtures/golden_snapshot.jsonl", "--once"])
        .output()
        .expect("obstop runs");
    assert!(
        output.status.success(),
        "obstop --once failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let frame = String::from_utf8(output.stdout).expect("frame is UTF-8");
    assert_eq!(
        frame, GOLDEN_FRAME,
        "obstop --once drifted from the pinned golden frame"
    );
}

#[test]
fn once_render_never_shows_non_finite_numbers() {
    // Belt and braces over the golden: whatever the fixture evolves into,
    // a rendered frame must never leak inf/NaN from a division site.
    let output = Command::new(env!("CARGO_BIN_EXE_obstop"))
        .current_dir(workspace_root())
        .args(["tests/fixtures/golden_snapshot.jsonl", "--once"])
        .output()
        .expect("obstop runs");
    let frame = String::from_utf8_lossy(&output.stdout);
    for bad in ["inf", "NaN"] {
        assert!(
            !frame.contains(bad),
            "rendered frame contains '{bad}':\n{frame}"
        );
    }
}

#[test]
fn once_on_an_empty_stream_exits_one() {
    let dir = std::env::temp_dir().join("obstop-empty-stream-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let empty = dir.join("metrics.jsonl");
    std::fs::write(&empty, "").expect("write empty stream");
    let output = Command::new(env!("CARGO_BIN_EXE_obstop"))
        .arg(&empty)
        .arg("--once")
        .output()
        .expect("obstop runs");
    assert_eq!(output.status.code(), Some(1), "empty stream exits 1");
}
