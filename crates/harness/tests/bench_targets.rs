//! Every example is one CI runs.
//!
//! An example that no CI step runs still has to be migrated on every API
//! change, yet nothing notices when it rots. So every `[[example]]` in
//! `crates/bench/Cargo.toml` must be run by a CI
//! `cargo run … --example <name>` line.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(root: &Path, file: &str) -> String {
    std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The `name` of every `[[example]]` in the bench crate's manifest.
fn examples(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == "[[example]]";
        } else if in_table {
            if let Some(value) = line.strip_prefix("name = ") {
                names.push(value.trim_matches('"').to_owned());
            }
        }
    }
    names
}

/// Whether some line of `ci` is a `cargo run` with `--example <name>`.
fn ci_runs_example(ci: &str, name: &str) -> bool {
    ci.lines().any(|line| {
        line.contains("cargo run")
            && line
                .split_whitespace()
                .skip_while(|word| *word != "--example")
                .nth(1)
                == Some(name)
    })
}

#[test]
fn every_example_is_run_by_ci() {
    let root = workspace_root();
    let examples = examples(&read(&root, "crates/bench/Cargo.toml"));
    assert!(!examples.is_empty(), "no [[example]] targets found");
    let ci = read(&root, ".github/workflows/ci.yml");
    let unrun: Vec<&String> = examples
        .iter()
        .filter(|name| !ci_runs_example(&ci, name))
        .collect();
    assert!(
        unrun.is_empty(),
        "examples that no CI `cargo run … --example` line runs: {unrun:?}"
    );
}
