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
//!
//! Every `tests/*.rs` and `examples/*.rs` file at the repo root must be a
//! `[[test]]` or `[[example]]` target of the bench crate; an unlisted
//! file is never built.
//!
//! Every backticked `module::item` in the Modules column of DESIGN.md's
//! experiment table must name an item defined in that module's source.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(root: &Path, file: &str) -> String {
    std::fs::read_to_string(root.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
}

/// The `key` value of every `header` table (`[[example]]`, `[[test]]`)
/// in a manifest.
fn target_values(manifest: &str, header: &str, key: &str) -> Vec<String> {
    let prefix = format!("{key} = ");
    let mut values = Vec::new();
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == header;
        } else if in_table {
            if let Some(value) = line.strip_prefix(&prefix) {
                values.push(value.trim_matches('"').to_owned());
            }
        }
    }
    values
}

/// The `name` of every `[[example]]` in the bench crate's manifest.
fn examples(manifest: &str) -> Vec<String> {
    target_values(manifest, "[[example]]", "name")
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

#[test]
fn every_root_test_and_example_is_a_bench_target() {
    let root = workspace_root();
    let manifest = read(&root, "crates/bench/Cargo.toml");
    for (dir, header) in [("tests", "[[test]]"), ("examples", "[[example]]")] {
        let listed = target_values(&manifest, header, "path");
        let mut sources = 0;
        let mut unlisted = Vec::new();
        for entry in std::fs::read_dir(root.join(dir)).expect("root directory") {
            let name = entry.expect("directory entry").file_name();
            let name = name.to_str().expect("UTF-8 file name").to_owned();
            if name.ends_with(".rs") {
                sources += 1;
                if !listed.contains(&format!("../../{dir}/{name}")) {
                    unlisted.push(name);
                }
            }
        }
        assert!(sources > 0, "no {dir}/*.rs found");
        unlisted.sort();
        assert!(
            unlisted.is_empty(),
            "{dir}/ files with no {header} in crates/bench/Cargo.toml, so never built: {unlisted:?}"
        );
    }
}

/// The directory of a path's first segment in DESIGN.md's Modules column:
/// a crate, or else a module of the `contention` crate.
fn crate_src(root: &Path, first: &str) -> (PathBuf, Option<String>) {
    match first {
        "mac_sim" => (root.join("crates/mac-sim/src"), None),
        "contention" => (root.join("crates/core/src"), None),
        "analysis" => (root.join("crates/analysis/src"), None),
        module => (root.join("crates/core/src"), Some(module.to_owned())),
    }
}

/// The source of module `path` (its segments after the crate) under `src`.
fn module_source(src: &Path, path: &[String]) -> Option<String> {
    let mut dir = src.to_path_buf();
    let mut file = src.join("lib.rs");
    for module in path {
        file = [
            dir.join(format!("{module}.rs")),
            dir.join(module).join("mod.rs"),
        ]
        .into_iter()
        .find(|candidate| candidate.is_file())?;
        dir = dir.join(module);
    }
    std::fs::read_to_string(file).ok()
}

/// Whether `source` defines `item`, or re-exports it with `pub use`.
fn defines(source: &str, item: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    source.lines().map(str::trim_start).any(|line| {
        let (public, line) = match line.strip_prefix("pub ") {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        if let Some(rest) = line.strip_prefix("use ") {
            return public && rest.split(|c| !is_ident(c)).any(|word| word == item);
        }
        [
            "mod ", "struct ", "enum ", "fn ", "trait ", "type ", "const ",
        ]
        .iter()
        .filter_map(|keyword| line.strip_prefix(keyword))
        .any(|rest| rest.split(|c| !is_ident(c)).next() == Some(item))
    })
}

#[test]
fn the_design_experiment_table_names_only_defined_items() {
    let root = workspace_root();
    let design = read(&root, "DESIGN.md");
    let rows: Vec<&str> = design
        .lines()
        .skip_while(|line| !line.starts_with("| Exp | Claim exercised |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .collect();
    assert!(rows.len() >= 20, "experiment table not found in DESIGN.md");
    let mut checked = 0;
    let mut undefined = Vec::new();
    for row in rows {
        let (_, modules) = row
            .trim_end()
            .trim_end_matches('|')
            .rsplit_once(" | ")
            .unwrap_or_else(|| panic!("table row {row:?}"));
        for path in modules.split('`').skip(1).step_by(2) {
            let Some((module, item)) = path.rsplit_once("::") else {
                continue;
            };
            let mut segments = module.split("::");
            let (src, first) = crate_src(&root, segments.next().unwrap_or_default());
            let modules: Vec<String> = first
                .into_iter()
                .chain(segments.map(str::to_owned))
                .collect();
            checked += 1;
            if !module_source(&src, &modules).is_some_and(|source| defines(&source, item)) {
                undefined.push(path.to_owned());
            }
        }
    }
    assert!(checked >= 10, "only {checked} `module::item` paths found");
    assert!(
        undefined.is_empty(),
        "DESIGN.md's experiment table names items its modules do not define: {undefined:?}"
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
