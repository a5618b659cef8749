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
//!
//! Experiments run their trials through the run context alone: a direct
//! `mac_sim::trials` fan-out would ignore `repro`'s worker count,
//! deadline, self-healing, progress and metrics.
//!
//! perfbench's lock file must record exactly the dependencies of the
//! workspace crates it builds, or its `--locked` build fails only in CI.

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

#[test]
fn experiments_run_trials_only_through_the_run_context() {
    let dir = workspace_root().join("crates/harness/src/experiments");
    let mut offenders = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("experiments directory") {
        let path = entry.expect("directory entry").path();
        let source = std::fs::read_to_string(&path).expect("experiment source");
        if source.contains("fan_out") {
            offenders.push(path.file_name().expect("file name").to_owned());
        }
    }
    offenders.sort();
    assert!(
        offenders.is_empty(),
        "experiments bypass RunCtx::trials with fan_out: {offenders:?}"
    );
}

/// The lines of the `[header]` table of a TOML file, up to the next table.
fn table<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    toml.lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

/// The package name and sorted `[dependencies]` names of a crate manifest.
fn manifest_dependencies(manifest: &str) -> (String, Vec<String>) {
    let name = table(manifest, "[package]")
        .into_iter()
        .find_map(|line| line.strip_prefix("name = "))
        .expect("manifest names its package")
        .trim_matches('"')
        .to_owned();
    let mut deps: Vec<String> = table(manifest, "[dependencies]")
        .into_iter()
        .map(|line| {
            let end = line.find(['.', ' ', '=']).unwrap_or(line.len());
            line[..end].to_owned()
        })
        .collect();
    deps.sort();
    (name, deps)
}

/// The sorted dependency names a `Cargo.lock` records for `package`.
fn locked_dependencies(lock: &str, package: &str) -> Vec<String> {
    let header = format!("name = \"{package}\"");
    let entry: Vec<&str> = lock
        .lines()
        .skip_while(|line| *line != header)
        .take_while(|line| *line != "[[package]]")
        .collect();
    assert!(
        !entry.is_empty(),
        "perfbench/Cargo.lock lists no package {package}"
    );
    let mut deps: Vec<String> = entry
        .into_iter()
        .skip_while(|line| *line != "dependencies = [")
        .skip(1)
        .take_while(|line| *line != "]")
        .map(|line| {
            let dep = line.trim().trim_end_matches(',').trim_matches('"');
            dep.split(' ').next().unwrap_or(dep).to_owned()
        })
        .collect();
    deps.sort();
    deps
}

/// perfbench builds with `--locked` against its own `perfbench/Cargo.lock`,
/// which records every workspace crate it builds with that crate's
/// dependency names. Adding or removing a `[dependencies]` entry in one of
/// those crates makes the benchmark build fail ("cannot update the lock
/// file"), and the lock file belongs to the benchmark, so it changes only
/// with a benchmark change. That is why the harness keeps its `crew-pram`
/// dependency although no harness code uses it: dropping it would break
/// the benchmark build. Without this test only CI's `perf-smoke` job
/// notices such a drift.
#[test]
fn perfbench_lock_matches_each_crates_dependencies() {
    let root = workspace_root();
    let lock = read(&root, "perfbench/Cargo.lock");
    for dir in ["core", "analysis", "harness", "crew-pram", "mac-sim"] {
        let (package, deps) =
            manifest_dependencies(&read(&root, &format!("crates/{dir}/Cargo.toml")));
        assert_eq!(
            locked_dependencies(&lock, &package),
            deps,
            "perfbench/Cargo.lock and crates/{dir}/Cargo.toml disagree on {package}'s dependencies"
        );
    }
}
