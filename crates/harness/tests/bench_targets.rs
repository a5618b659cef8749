//! CI runs exactly the examples there are.
//!
//! An example that no CI step runs still has to be migrated on every API
//! change, yet nothing notices when it rots. So every `[[example]]` in
//! `crates/bench/Cargo.toml` must be run by a CI
//! `cargo run … --example <name>` line, and every such line must name an
//! `[[example]]` (a line left behind by a deleted example fails only in
//! CI otherwise).
//!
//! The chaos job's poisoned seed must likewise stay a seed that
//! `repro --quick` runs; otherwise a refactor that moves it fails only in
//! CI.

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

/// The example named by every `cargo run … --example <name>` line of `ci`.
fn ci_examples(ci: &str) -> Vec<&str> {
    ci.lines()
        .filter(|line| line.contains("cargo run"))
        .filter_map(|line| {
            line.split_whitespace()
                .skip_while(|word| *word != "--example")
                .nth(1)
        })
        .collect()
}

#[test]
fn every_example_is_run_by_ci() {
    let root = workspace_root();
    let examples = examples(&read(&root, "crates/bench/Cargo.toml"));
    assert!(!examples.is_empty(), "no [[example]] targets found");
    let ci = read(&root, ".github/workflows/ci.yml");
    let run = ci_examples(&ci);
    let unrun: Vec<&String> = examples
        .iter()
        .filter(|name| !run.contains(&name.as_str()))
        .collect();
    assert!(
        unrun.is_empty(),
        "examples that no CI `cargo run … --example` line runs: {unrun:?}"
    );
}

#[test]
fn every_ci_example_exists() {
    let root = workspace_root();
    let examples = examples(&read(&root, "crates/bench/Cargo.toml"));
    let ci = read(&root, ".github/workflows/ci.yml");
    let run = ci_examples(&ci);
    assert!(!run.is_empty(), "no CI `cargo run … --example` lines found");
    let missing: Vec<&str> = run
        .into_iter()
        .filter(|name| !examples.iter().any(|e| e == name))
        .collect();
    assert!(
        missing.is_empty(),
        "CI runs examples with no [[example]] in crates/bench/Cargo.toml: {missing:?}"
    );
}

/// The value of the `POISON_SEED` env entry in `ci`.
fn poison_seed(ci: &str) -> u64 {
    ci.lines()
        .find_map(|line| line.trim().strip_prefix("POISON_SEED: "))
        .map(|value| {
            value
                .trim_matches('"')
                .parse()
                .expect("POISON_SEED is a u64")
        })
        .expect("ci.yml sets POISON_SEED")
}

#[test]
fn chaos_poison_seed_is_a_quick_e19_anatomy_trial() {
    use contention_harness::experiments::{e18_fault_thresholds, seed_base};
    use contention_harness::Scale;
    let ci = read(&workspace_root(), ".github/workflows/ci.yml");
    // Trial 2 of the anatomy table's second row (B = 8 at quick scale).
    let trial = 2;
    assert_eq!(
        poison_seed(&ci),
        seed_base("e19anat", 3, 1) + trial,
        "POISON_SEED no longer names E19's anatomy trial"
    );
    // E19 runs E18's trial count per level.
    let quick_trials = e18_fault_thresholds::trials(Scale::Quick) as u64;
    assert!(
        trial < quick_trials,
        "trial {trial} is outside E19's {quick_trials} quick trials"
    );
}
