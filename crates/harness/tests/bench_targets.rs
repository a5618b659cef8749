//! Every bench target is one CI runs and whose export is committed.
//!
//! A Criterion target that no CI step runs and that exports nothing still
//! has to be migrated on every API change, yet measures nothing anyone
//! reads. So for each `[[bench]]` in `crates/bench/Cargo.toml`, CI must run
//! `cargo bench … --bench <name>` and a `BENCH_<stem>.json` export must be
//! committed at the workspace root (`<stem>` is the name without its
//! `bench_` prefix). Every file under `crates/bench/benches/` must be a
//! declared target, so none is auto-discovered behind the manifest's back.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(root: &Path, file: &str) -> String {
    std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The `name` of every `[[bench]]` table in the bench crate's manifest.
fn bench_targets(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if in_bench {
            if let Some(value) = line.strip_prefix("name = ") {
                names.push(value.trim_matches('"').to_owned());
            }
        }
    }
    names
}

#[test]
fn every_bench_target_is_run_by_ci_and_exported() {
    let root = workspace_root();
    let targets = bench_targets(&read(&root, "crates/bench/Cargo.toml"));
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
        let run = ci.lines().any(|line| {
            line.contains("cargo bench")
                && line
                    .split_whitespace()
                    .skip_while(|word| *word != "--bench")
                    .nth(1)
                    == Some(name.as_str())
        });
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
