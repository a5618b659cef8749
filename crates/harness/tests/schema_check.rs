//! Schema conformance for every JSONL surface the workspace emits.
//!
//! Three producers write run-record JSONL: `repro --record-dir` (manifest +
//! cell records per experiment), `obsdiff record` (manifest + trial
//! records, the committed golden fixture), and the `bench_round_engine`
//! custom main (bench records, the committed `BENCH_round_engine.json`).
//! This test validates each against `record::validate_record`, so a schema
//! drift in any producer — or in the committed artifacts — fails CI before
//! `obsdiff` ever sees a malformed line.

use contention_harness::record::{self, load_jsonl, validate_record};
use contention_harness::{experiments, RunCtx, Scale};
use mac_sim::obs::Json;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn kind(record: &Json) -> &str {
    match record.get("kind").and_then(Json::as_str) {
        Some(k) => k,
        None => panic!("record without kind: {record:?}"),
    }
}

fn assert_all_valid(records: &[Json], source: &str) {
    for (i, rec) in records.iter().enumerate() {
        if let Err(e) = validate_record(rec) {
            panic!("{source} line {}: {e}\n  {rec:?}", i + 1);
        }
    }
}

#[test]
fn golden_fixture_conforms_to_schema() {
    let path = workspace_root().join("tests/fixtures/golden_run_record.jsonl");
    let records = load_jsonl(&path).expect("golden fixture loads");
    assert_all_valid(&records, "golden_run_record.jsonl");
    assert_eq!(
        kind(&records[0]),
        "manifest",
        "first record is the manifest"
    );
    let trials = records.iter().filter(|r| kind(r) == "trial").count();
    assert_eq!(trials, 5, "the golden fixture holds five trials");
}

#[test]
fn golden_snapshot_fixture_conforms_to_schema() {
    // The committed metrics stream (written by `repro --quick e18
    // --record-dir` with telemetry attached; see CI's observability job).
    let path = workspace_root().join("tests/fixtures/golden_snapshot.jsonl");
    let records = load_jsonl(&path).expect("snapshot fixture loads");
    assert!(!records.is_empty(), "snapshot fixture is non-empty");
    assert_all_valid(&records, "golden_snapshot.jsonl");
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(kind(rec), "snapshot");
        assert_eq!(
            rec.get("seq").and_then(Json::as_u64),
            Some(i as u64),
            "snapshot seq numbers the stream contiguously"
        );
        let snap = mac_sim::MetricsSnapshot::from_json(rec).expect("typed parse");
        assert_eq!(snap.to_json().render(), rec.render(), "lossless round-trip");
    }
}

#[test]
fn schema_version_is_two() {
    // v2 added the snapshot kind; bump this (and the migration note in
    // docs/OBSERVABILITY.md) together with any future schema change.
    assert_eq!(record::SCHEMA_VERSION, 2);
}

#[test]
fn committed_bench_export_conforms_to_schema() {
    let path = workspace_root().join("BENCH_round_engine.json");
    let records = load_jsonl(&path).expect("bench export loads");
    assert!(!records.is_empty(), "bench export is non-empty");
    assert_all_valid(&records, "BENCH_round_engine.json");
    assert!(
        records.iter().all(|r| kind(r) == "bench"),
        "bench export holds only bench records"
    );
}

#[test]
fn every_quick_experiment_emits_valid_records() {
    // The exact lines `repro --quick --record-dir` writes, validated for
    // every registered experiment without touching the filesystem.
    let ctx = RunCtx::new(Scale::Quick);
    for (id, _) in experiments::list() {
        let run = experiments::by_id(id).expect("listed experiment resolves");
        let report = run(&ctx);
        let lines = record::experiment_records(&report, Scale::Quick);
        assert!(
            lines.len() > 1,
            "{id}: expected a manifest and at least one cell record"
        );
        for (i, line) in lines.iter().enumerate() {
            if let Err(e) = record::validate_line(line) {
                panic!("{id} line {}: {e}\n  {line}", i + 1);
            }
        }
        let first = Json::parse(&lines[0]).expect("manifest parses");
        assert_eq!(
            kind(&first),
            "manifest",
            "{id}: first record is the manifest"
        );
    }
}

#[test]
fn trial_without_phase_transmissions_is_rejected() {
    let path = workspace_root().join("tests/fixtures/golden_run_record.jsonl");
    let records = load_jsonl(&path).expect("golden fixture loads");
    let trial = records
        .iter()
        .find(|r| kind(r) == "trial")
        .expect("the fixture holds a trial");
    let Json::Obj(fields) = trial else {
        panic!("trial record is not an object: {trial:?}");
    };
    let mut fields = fields.clone();
    let before = fields.len();
    fields.retain(|(key, _)| key != "phase_transmissions");
    assert_eq!(
        fields.len(),
        before - 1,
        "the fixture trial carries the field"
    );
    let err = validate_record(&Json::Obj(fields)).expect_err("incomplete trial rejected");
    assert!(err.contains("phase_transmissions"), "{err}");
}
