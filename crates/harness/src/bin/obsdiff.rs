//! `obsdiff` — record, validate, and diff structured run-record files.
//!
//! ```text
//! obsdiff record <out.jsonl> [--trials N] [--seed S] [--channels C]
//!                            [--log2n K] [--active A]
//!     run the deterministic full-algorithm probe and write a record file
//!     (manifest line + one trial record per seed)
//!
//! obsdiff check <file.jsonl>...
//!     validate every line of every file against the record schema
//!
//! obsdiff diff <a.jsonl> <b.jsonl> [--round-pct P] [--energy-pct P]
//!                                  [--cell-pct P] [--wall-pct P]
//!     compare two record files: per-phase round-count deltas, energy
//!     deltas, and table-cell deltas are flagged beyond their thresholds
//!     (default 0 — deterministic fields must match exactly); wall-clock
//!     deltas are informational unless --wall-pct is given. Each
//!     threshold is a percentage, finite and at least 0
//!
//! obsdiff trend <a.jsonl> <b.jsonl>
//!     compare two telemetry streams (`metrics.jsonl` snapshot files):
//!     the last snapshot of each stream is diffed metric by metric —
//!     deterministic counters and histogram shapes must match exactly,
//!     wall-clock and scheduling-dependent metrics are informational. A
//!     side with no snapshot is flagged
//! ```
//!
//! Exit codes: 0 clean, 1 flagged regressions / unreadable files / invalid
//! records, 2 usage (a wrong argument count, an unknown or malformed flag).
//!
//! See `docs/OBSERVABILITY.md` for the schema and the CI wiring.

use contention::{FullAlgorithm, Params};
use contention_harness::experiments::observe_trial;
use contention_harness::record::{self, validate_record};
use mac_sim::obs::{Json, RunManifest, RunRecord, RunRecorder};
use mac_sim::trials::fan_out;
use mac_sim::{Engine, MetricsSnapshot, SimConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("trend") => cmd_trend(&args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!(
                "usage: obsdiff record <out.jsonl> [--trials N] [--seed S] [--channels C] \
                 [--log2n K] [--active A]\n       obsdiff check <file.jsonl>...\n       \
                 obsdiff diff <a.jsonl> <b.jsonl> [--round-pct P] [--energy-pct P] \
                 [--cell-pct P] [--wall-pct P]\n       \
                 obsdiff trend <a.jsonl> <b.jsonl>"
            );
            ExitCode::from(2)
        }
        Some(other) => {
            eprintln!("unknown subcommand: {other}");
            ExitCode::from(2)
        }
    }
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == flag {
            let value = iter.next().ok_or(format!("{flag} needs a value"))?;
            return value
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot parse '{value}'"));
        }
    }
    Ok(None)
}

/// A percentage threshold flag: absent, or finite and at least 0. A `NaN`,
/// infinite or negative threshold would pass or flag every comparison, so
/// it is a usage error.
fn parse_pct(args: &[String], flag: &str) -> Result<Option<f64>, String> {
    match parse_flag::<f64>(args, flag)? {
        Some(p) if !(p.is_finite() && p >= 0.0) => {
            Err(format!("{flag}: want a finite percentage >= 0, got {p}"))
        }
        pct => Ok(pct),
    }
}

/// The positional arguments of `args`, for a subcommand that accepts the
/// value-taking `flags`. Any other `--` argument is a usage error, so a
/// misspelt threshold cannot silently fall back to its default.
fn positionals<'a>(args: &'a [String], flags: &[&str]) -> Result<Vec<&'a String>, String> {
    let mut out = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg.starts_with("--") {
            if !flags.contains(&arg.as_str()) {
                return Err(format!("unknown flag {arg}"));
            }
            let _ = iter.next(); // every flag takes one value
        } else {
            out.push(arg);
        }
    }
    Ok(out)
}

/// Why a comparison stopped early: a usage error exits 2; an input that
/// cannot be read or holds an invalid record exits 1, as under `check`.
enum Failure {
    Usage(String),
    Invalid(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Usage(e)
    }
}

/// The exit code of `diff`/`trend`: 0 clean, 1 flagged or invalid input,
/// 2 usage.
fn comparison_exit(cmd: &str, outcome: Result<usize, Failure>) -> ExitCode {
    match outcome {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(Failure::Invalid(e)) => {
            eprintln!("obsdiff {cmd}: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(e)) => {
            eprintln!("obsdiff {cmd}: {e}");
            ExitCode::from(2)
        }
    }
}

// --- record ----------------------------------------------------------------

fn cmd_record(args: &[String]) -> ExitCode {
    let run = || -> Result<PathBuf, String> {
        let pos = positionals(
            args,
            &["--trials", "--seed", "--channels", "--log2n", "--active"],
        )?;
        let out = pos.first().ok_or("record needs an output path")?;
        let out = PathBuf::from(out);
        let trials: usize = parse_flag(args, "--trials")?.unwrap_or(5);
        let seed: u64 = parse_flag(args, "--seed")?.unwrap_or(11);
        let channels: u32 = parse_flag(args, "--channels")?.unwrap_or(16);
        let log2n: u32 = parse_flag(args, "--log2n")?.unwrap_or(10);
        let n = 1u64 << log2n;
        let active: usize = parse_flag(args, "--active")?.unwrap_or(64);

        let config = SimConfig::new(channels).seed(seed).max_rounds(10_000_000);
        let mut manifest = RunManifest::new("full-algorithm", &config)
            .n(n)
            .active(active as u64)
            .crate_version("contention-harness", env!("CARGO_PKG_VERSION"))
            .extra("trials", trials.to_string())
            .extra("params", "practical");
        if let Some(rev) = record::git_rev() {
            manifest = manifest.git_rev(rev);
        }

        let records = fan_out(trials, seed, None, |s| {
            let mut engine = Engine::new(SimConfig::new(channels).seed(s).max_rounds(10_000_000))
                .populated(
                    (0..active).map(|_| FullAlgorithm::new(Params::practical(), channels, n)),
                );
            let mut recorder = RunRecorder::new();
            observe_trial(&mut engine, &mut recorder);
            recorder.into_record(s)
        });
        let mut lines = vec![manifest.to_jsonl_line()];
        lines.extend(records.iter().map(RunRecord::to_jsonl_line));
        record::write_jsonl(&out, &lines).map_err(|e| format!("write {}: {e}", out.display()))?;
        Ok(out)
    };
    match run() {
        Ok(out) => {
            eprintln!("wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obsdiff record: {e}");
            ExitCode::from(2)
        }
    }
}

// --- check -----------------------------------------------------------------

fn cmd_check(args: &[String]) -> ExitCode {
    let files = match positionals(args, &[]) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("obsdiff check: {e}");
            return ExitCode::from(2);
        }
    };
    if files.is_empty() {
        eprintln!("obsdiff check: no files given");
        return ExitCode::from(2);
    }
    let mut bad = 0usize;
    let mut records = 0usize;
    for file in files {
        let path = Path::new(file);
        match record::load_jsonl(path) {
            Ok(parsed) => {
                for (idx, value) in parsed.iter().enumerate() {
                    records += 1;
                    if let Err(e) = validate_record(value) {
                        eprintln!("{}:{}: {e}", path.display(), idx + 1);
                        bad += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                bad += 1;
            }
        }
    }
    if bad == 0 {
        eprintln!("ok: {records} records valid");
        ExitCode::SUCCESS
    } else {
        eprintln!("{bad} invalid");
        ExitCode::FAILURE
    }
}

// --- diff ------------------------------------------------------------------

/// Classified contents of one record file.
#[derive(Default)]
struct RecordFile {
    trials: Vec<RunRecord>,
    cells: Vec<Json>,
}

fn classify(path: &Path) -> Result<RecordFile, String> {
    let mut out = RecordFile::default();
    for value in record::load_jsonl(path)? {
        validate_record(&value).map_err(|e| format!("{}: {e}", path.display()))?;
        match value.get("kind").and_then(Json::as_str) {
            Some("trial") => out.trials.push(RunRecord::from_json(&value)?),
            Some("cell") => out.cells.push(value),
            _ => {} // manifests carry provenance, not comparable results
        }
    }
    Ok(out)
}

/// Accumulates comparison outcomes and renders the flagged/ok tally.
struct DiffReport {
    flagged: usize,
    ok: usize,
}

impl DiffReport {
    /// Compares `a` vs `b` under a percentage threshold; prints and counts
    /// a FLAG beyond it, stays silent (but counted) within it.
    fn compare(&mut self, what: &str, a: f64, b: f64, pct: f64) {
        let base = a.abs().max(1e-9);
        let delta_pct = (b - a).abs() / base * 100.0;
        if delta_pct > pct {
            println!("FLAG {what}: {a} -> {b} ({delta_pct:+.1}% > {pct}%)");
            self.flagged += 1;
        } else {
            self.ok += 1;
        }
    }

    /// Reports a wall-clock delta: informational unless a threshold is set.
    fn compare_wall(&mut self, what: &str, a: u64, b: u64, pct: Option<f64>) {
        let base = (a as f64).max(1.0);
        let delta_pct = (b as f64 - a as f64) / base * 100.0;
        match pct {
            Some(p) if delta_pct.abs() > p => {
                println!("FLAG {what}: wall {a}ns -> {b}ns ({delta_pct:+.1}% > {p}%)");
                self.flagged += 1;
            }
            Some(_) => self.ok += 1,
            None => println!("info {what}: wall {a}ns -> {b}ns ({delta_pct:+.1}%)"),
        }
    }

    fn missing(&mut self, what: &str, side: &str) {
        println!("FLAG {what}: only present in {side}");
        self.flagged += 1;
    }
}

fn diff_trials(a: &[RunRecord], b: &[RunRecord], args: &DiffArgs, report: &mut DiffReport) {
    for ra in a {
        let Some(rb) = b.iter().find(|r| r.seed == ra.seed) else {
            report.missing(&format!("trial seed={}", ra.seed), "A");
            continue;
        };
        let id = format!("trial seed={}", ra.seed);
        report.compare(
            &format!("{id} rounds"),
            ra.rounds as f64,
            rb.rounds as f64,
            args.round_pct,
        );
        report.compare(
            &format!("{id} energy(tx)"),
            ra.transmissions as f64,
            rb.transmissions as f64,
            args.energy_pct,
        );
        report.compare(
            &format!("{id} energy(rx)"),
            ra.listens as f64,
            rb.listens as f64,
            args.energy_pct,
        );
        report.compare(
            &format!("{id} max-node-tx"),
            ra.max_node_transmissions as f64,
            rb.max_node_transmissions as f64,
            args.energy_pct,
        );
        let mut labels: Vec<&str> = ra
            .phase_node_rounds
            .iter()
            .chain(&rb.phase_node_rounds)
            .map(|(l, _)| l.as_str())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        for label in labels {
            report.compare(
                &format!("{id} phase[{label}] node-rounds"),
                ra.node_rounds(label) as f64,
                rb.node_rounds(label) as f64,
                args.round_pct,
            );
            report.compare(
                &format!("{id} phase[{label}] tx"),
                ra.phase_tx(label) as f64,
                rb.phase_tx(label) as f64,
                args.energy_pct,
            );
        }
        report.compare_wall(&id, ra.wall_ns, rb.wall_ns, args.wall_pct);
    }
    for rb in b {
        if !a.iter().any(|r| r.seed == rb.seed) {
            report.missing(&format!("trial seed={}", rb.seed), "B");
        }
    }
}

fn cell_key(cell: &Json) -> String {
    format!(
        "cell {}/{}#{}",
        cell.get("experiment").and_then(Json::as_str).unwrap_or("?"),
        cell.get("section").and_then(Json::as_str).unwrap_or("?"),
        cell.get("row").and_then(Json::as_u64).unwrap_or(0),
    )
}

fn diff_cells(a: &[Json], b: &[Json], args: &DiffArgs, report: &mut DiffReport) {
    let same_key = |x: &Json, y: &Json| cell_key(x) == cell_key(y);
    for ca in a {
        let Some(cb) = b.iter().find(|c| same_key(ca, c)) else {
            report.missing(&cell_key(ca), "A");
            continue;
        };
        let key = cell_key(ca);
        let (Some(va), Some(vb)) = (
            ca.get("values").and_then(Json::as_obj),
            cb.get("values").and_then(Json::as_obj),
        ) else {
            continue;
        };
        for (column, value_a) in va {
            let Some(value_b) = vb.iter().find(|(c, _)| c == column).map(|(_, v)| v) else {
                report.missing(&format!("{key} [{column}]"), "A");
                continue;
            };
            match (value_a.as_f64(), value_b.as_f64()) {
                (Some(x), Some(y)) => {
                    report.compare(&format!("{key} [{column}]"), x, y, args.cell_pct);
                }
                _ => {
                    // Non-numeric columns (keys, winner names): exact match
                    // in strict mode, informational under a loose threshold.
                    if value_a == value_b {
                        report.ok += 1;
                    } else if args.cell_pct == 0.0 {
                        println!(
                            "FLAG {key} [{column}]: {} -> {}",
                            value_a.render(),
                            value_b.render()
                        );
                        report.flagged += 1;
                    } else {
                        println!(
                            "info {key} [{column}]: {} -> {}",
                            value_a.render(),
                            value_b.render()
                        );
                    }
                }
            }
        }
    }
    for cb in b {
        if !a.iter().any(|c| same_key(c, cb)) {
            report.missing(&cell_key(cb), "B");
        }
    }
}

// --- trend -----------------------------------------------------------------

/// The snapshot stream of one trend input, in file order.
fn load_trend(path: &Path) -> Result<Vec<MetricsSnapshot>, String> {
    let mut snapshots = Vec::new();
    for value in record::load_jsonl(path)? {
        validate_record(&value).map_err(|e| format!("{}: {e}", path.display()))?;
        // trend reads telemetry; run records belong to `diff`
        if value.get("kind").and_then(Json::as_str) == Some("snapshot") {
            snapshots.push(MetricsSnapshot::from_json(&value)?);
        }
    }
    Ok(snapshots)
}

/// Metrics that legitimately move run to run: wall-clock tallies, and
/// scheduling artifacts of worker timing (drop counts, queue depth).
fn is_machine_dependent(name: &str) -> bool {
    name.contains("_ns") || name == "campaign_progress_dropped_total"
}

fn trend_snapshots(a: &MetricsSnapshot, b: &MetricsSnapshot, report: &mut DiffReport) {
    fn union<'a>(xa: Vec<&'a String>, xb: Vec<&'a String>) -> Vec<&'a String> {
        let mut names: Vec<&String> = xa.into_iter().chain(xb).collect();
        names.sort_unstable();
        names.dedup();
        names
    }
    let (ca, cb) = (a.registry.counters(), b.registry.counters());
    for name in union(ca.keys().collect(), cb.keys().collect()) {
        match (ca.get(name), cb.get(name)) {
            (Some(&x), Some(&y)) if x == y => report.ok += 1,
            (Some(&x), Some(&y)) if is_machine_dependent(name) => {
                println!("info counter {name}: {x} -> {y}");
                report.ok += 1;
            }
            (Some(&x), Some(&y)) => {
                println!("FLAG counter {name}: {x} -> {y} (deterministic counter drifted)");
                report.flagged += 1;
            }
            (a_side, _) => report.missing(
                &format!("counter {name}"),
                if a_side.is_some() { "A" } else { "B" },
            ),
        }
    }
    // Gauges describe the run's shape (worker count, queue depth): they
    // vary with the machine, so they inform but never flag.
    let (ga, gb) = (a.registry.gauges(), b.registry.gauges());
    for name in union(ga.keys().collect(), gb.keys().collect()) {
        let (x, y) = (ga.get(name), gb.get(name));
        if x != y {
            let show = |v: Option<&u64>| v.map_or("absent".to_string(), u64::to_string);
            println!("info gauge {name}: {} -> {}", show(x), show(y));
        }
        report.ok += 1;
    }
    let (ha, hb) = (a.registry.histograms(), b.registry.histograms());
    for name in union(ha.keys().collect(), hb.keys().collect()) {
        match (ha.get(name), hb.get(name)) {
            (Some(x), Some(y)) => {
                // Observation counts are deterministic even for wall-clock
                // histograms; the observed values only are machine-bound.
                if x.count() != y.count() {
                    println!(
                        "FLAG histogram {name}: count {} -> {}",
                        x.count(),
                        y.count()
                    );
                    report.flagged += 1;
                } else if !is_machine_dependent(name) && x.sum() != y.sum() {
                    println!("FLAG histogram {name}: sum {} -> {}", x.sum(), y.sum());
                    report.flagged += 1;
                } else {
                    report.ok += 1;
                }
            }
            (x, _) => report.missing(
                &format!("histogram {name}"),
                if x.is_some() { "A" } else { "B" },
            ),
        }
    }
}

fn cmd_trend(args: &[String]) -> ExitCode {
    let run = || -> Result<usize, Failure> {
        let pos = positionals(args, &[])?;
        let [path_a, path_b] = pos.as_slice() else {
            return Err(Failure::Usage(
                "trend needs exactly two telemetry files".into(),
            ));
        };
        let a = load_trend(Path::new(path_a.as_str())).map_err(Failure::Invalid)?;
        let b = load_trend(Path::new(path_b.as_str())).map_err(Failure::Invalid)?;
        println!(
            "obsdiff trend: A={path_a} ({} snapshots) vs B={path_b} ({})",
            a.len(),
            b.len()
        );
        let mut report = DiffReport { flagged: 0, ok: 0 };
        if let (Some(sa), Some(sb)) = (a.last(), b.last()) {
            trend_snapshots(sa, sb, &mut report);
        } else {
            // A side without a snapshot is not a telemetry stream: wrong
            // input, flagged even when both sides lack one.
            for (side, stream) in [("A", &a), ("B", &b)] {
                if stream.is_empty() {
                    println!("FLAG snapshot stream: absent from {side}");
                    report.flagged += 1;
                }
            }
        }
        println!(
            "summary: {} flagged, {} within thresholds",
            report.flagged, report.ok
        );
        Ok(report.flagged)
    };
    comparison_exit("trend", run())
}

struct DiffArgs {
    round_pct: f64,
    energy_pct: f64,
    cell_pct: f64,
    wall_pct: Option<f64>,
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let run = || -> Result<usize, Failure> {
        let pos = positionals(
            args,
            &["--round-pct", "--energy-pct", "--cell-pct", "--wall-pct"],
        )?;
        let [path_a, path_b] = pos.as_slice() else {
            return Err(Failure::Usage("diff needs exactly two record files".into()));
        };
        let diff_args = DiffArgs {
            round_pct: parse_pct(args, "--round-pct")?.unwrap_or(0.0),
            energy_pct: parse_pct(args, "--energy-pct")?.unwrap_or(0.0),
            cell_pct: parse_pct(args, "--cell-pct")?.unwrap_or(0.0),
            wall_pct: parse_pct(args, "--wall-pct")?,
        };
        let a = classify(Path::new(path_a.as_str())).map_err(Failure::Invalid)?;
        let b = classify(Path::new(path_b.as_str())).map_err(Failure::Invalid)?;
        println!(
            "obsdiff: A={path_a} ({} trials, {} cells) vs B={path_b} ({}, {})",
            a.trials.len(),
            a.cells.len(),
            b.trials.len(),
            b.cells.len()
        );
        let mut report = DiffReport { flagged: 0, ok: 0 };
        diff_trials(&a.trials, &b.trials, &diff_args, &mut report);
        diff_cells(&a.cells, &b.cells, &diff_args, &mut report);
        println!(
            "summary: {} flagged, {} within thresholds",
            report.flagged, report.ok
        );
        Ok(report.flagged)
    };
    comparison_exit("diff", run())
}
