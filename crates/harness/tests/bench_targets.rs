//! Every bench target is one CI runs and whose export is committed.
//!
//! A Criterion target that no CI step runs and that exports nothing still
//! has to be migrated on every API change, yet measures nothing anyone
//! reads. So for each `[[bench]]` in `crates/bench/Cargo.toml`, CI must run
//! `cargo bench … --bench <name>` and a `BENCH_<stem>.json` export must be
//! committed at the workspace root (`<stem>` is the name without its
//! `bench_` prefix). Every file under `crates/bench/benches/` must be a
//! declared target, so none is auto-discovered behind the manifest's back.
//!
//! Examples rot the same way, so every `[[example]]` in that manifest must
//! be run by a CI `cargo run … --example <name>` line.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(root: &Path, file: &str) -> String {
    std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The `name` of every `table` (e.g. `[[bench]]`) in the bench crate's
/// manifest.
fn targets(manifest: &str, table: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == table;
        } else if in_table {
            if let Some(value) = line.strip_prefix("name = ") {
                names.push(value.trim_matches('"').to_owned());
            }
        }
    }
    names
}

/// Whether some line of `ci` runs `command` (e.g. `cargo bench`) with
/// `flag <name>` (e.g. `--bench bench_campaign`).
fn ci_runs(ci: &str, command: &str, flag: &str, name: &str) -> bool {
    ci.lines().any(|line| {
        line.contains(command)
            && line
                .split_whitespace()
                .skip_while(|word| *word != flag)
                .nth(1)
                == Some(name)
    })
}

#[test]
fn every_bench_target_is_run_by_ci_and_exported() {
    let root = workspace_root();
    let targets = targets(&read(&root, "crates/bench/Cargo.toml"), "[[bench]]");
    assert!(!targets.is_empty(), "no [[bench]] targets found");
    let mut files: Vec<String> = std::fs::read_dir(root.join("crates/bench/benches"))
        .expect("benches dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .filter_map(|name| name.to_str()?.strip_suffix(".rs").map(str::to_owned))
        .collect();
    files.sort();
    let mut declared = targets.clone();
    declared.sort();
    assert_eq!(files, declared, "benches/*.rs and [[bench]] targets differ");

    let ci = read(&root, ".github/workflows/ci.yml");
    let mut unrun = Vec::new();
    for name in &targets {
        let run = ci_runs(&ci, "cargo bench", "--bench", name);
        let stem = name.strip_prefix("bench_").unwrap_or(name);
        let export = root.join(format!("BENCH_{stem}.json"));
        if !run || !export.is_file() {
            unrun.push(format!(
                "{name} (CI runs it: {run}; BENCH_{stem}.json committed: {})",
                export.is_file()
            ));
        }
    }
    assert!(
        unrun.is_empty(),
        "bench targets that CI does not run or that export nothing:\n  {}",
        unrun.join("\n  ")
    );
}

#[test]
fn every_example_is_run_by_ci() {
    let root = workspace_root();
    let examples = targets(&read(&root, "crates/bench/Cargo.toml"), "[[example]]");
    assert!(!examples.is_empty(), "no [[example]] targets found");
    let ci = read(&root, ".github/workflows/ci.yml");
    let unrun: Vec<&String> = examples
        .iter()
        .filter(|name| !ci_runs(&ci, "cargo run", "--example", name))
        .collect();
    assert!(
        unrun.is_empty(),
        "examples that no CI `cargo run … --example` line runs: {unrun:?}"
    );
}
