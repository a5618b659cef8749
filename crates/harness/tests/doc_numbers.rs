//! Measured numbers quoted in the docs match the committed bench export.
//!
//! EXPERIMENTS.md's "Instrumentation tax" paragraph quotes the
//! `run/metrics_hub` and `run/full_report` means from
//! `BENCH_round_engine.json` and the tax derived from them; README and
//! DESIGN quote the `run/sparse_population` mean and its speed-up over
//! `ab/dense_reference`. Editing either the export or a quoting paragraph
//! alone fails these tests.

use contention_harness::record::load_jsonl;
use mac_sim::obs::Json;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The committed mean of the bench case whose name ends in `/{case}`, in µs.
fn mean_us(records: &[Json], case: &str) -> f64 {
    let suffix = format!("/{case}");
    let mut hits = records.iter().filter(|r| {
        r.get("name")
            .and_then(Json::as_str)
            .is_some_and(|n| n.ends_with(&suffix))
    });
    let rec = hits.next().unwrap_or_else(|| panic!("no {case} record"));
    assert!(hits.next().is_none(), "more than one {case} record");
    rec.get("mean_ns")
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{case} has no mean_ns"))
        / 1000.0
}

/// The paragraph starting with `start`, its whitespace collapsed to single
/// spaces so line wrapping does not matter.
fn paragraph(doc: &str, start: &str) -> String {
    let at = doc
        .find(start)
        .unwrap_or_else(|| panic!("no paragraph starting {start:?}"));
    let body = &doc[at..];
    let body = &body[..body.find("\n\n").unwrap_or(body.len())];
    body.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The committed `BENCH_round_engine.json` records.
fn round_engine_export(root: &Path) -> Vec<Json> {
    load_jsonl(&root.join("BENCH_round_engine.json")).expect("export loads")
}

/// Asserts that the paragraph of `file` starting with `start` contains
/// every quote.
fn assert_quotes(root: &Path, file: &str, start: &str, quotes: &[String]) {
    let doc = std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
    let text = paragraph(&doc, start);
    for quote in quotes {
        assert!(
            text.contains(quote.as_str()),
            "{file} does not quote {quote:?}; paragraph:\n{text}"
        );
    }
}

#[test]
fn instrumentation_tax_quotes_the_committed_export() {
    let root = workspace_root();
    let records = round_engine_export(&root);
    let metered = mean_us(&records, "run/metrics_hub");
    let bare = mean_us(&records, "run/full_report");
    let tax = (metered - bare) / bare * 100.0;

    assert_quotes(
        &root,
        "EXPERIMENTS.md",
        "Instrumentation tax:",
        &[
            format!("`run/metrics_hub` case in `bench_round_engine` — {metered:.1} µs/run"),
            format!("vs {bare:.1} µs for the unmetered `run/full_report` path"),
            format!("That is a {tax:.1} % tax"),
        ],
    );
}

#[test]
fn sparse_speedup_quotes_the_committed_export() {
    let root = workspace_root();
    let records = round_engine_export(&root);
    let sparse = mean_us(&records, "run/sparse_population");
    let dense = mean_us(&records, "ab/dense_reference");
    let speedup = dense / sparse;

    assert_quotes(
        &root,
        "README.md",
        "The simulator is layered:",
        &[format!(
            "runs in {sparse:.1} µs, {speedup:.0}× faster than the all-slots dense reference"
        )],
    );
    assert_quotes(
        &root,
        "DESIGN.md",
        "`benches/bench_round_engine.rs` times the execution paths",
        &[format!(
            "the committed export records the sparse path {speedup:.0}× faster than the dense reference"
        )],
    );
}
