//! Structured JSONL record emission for experiment runs.
//!
//! The markdown tables in `EXPERIMENTS.md` are for humans; this module
//! writes the same results as machine-diffable JSONL so `obsdiff` (and CI)
//! can answer "did E9's Reduce phase get slower than last PR?" without a
//! human re-reading tables.
//!
//! One record file holds, in order:
//!
//! 1. a `kind: "manifest"` line — provenance (experiment, scale, git rev,
//!    crate versions); for trial batches, [`mac_sim::obs::RunManifest`]
//!    carries the full `SimConfig`;
//! 2. `kind: "trial"` lines — one [`mac_sim::obs::RunRecord`] per run,
//!    when the producer records at trial granularity;
//! 3. `kind: "cell"` lines — one per table row of the experiment report,
//!    carrying every column as a typed value.
//!
//! Telemetry streams write `kind: "snapshot"` lines in the same schema.
//! Every line is validated by [`validate_line`], which the `schema_check`
//! test runs over everything the suite emits.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::report::ExperimentReport;
use crate::Scale;
use mac_sim::obs::Json;

pub use mac_sim::obs::SCHEMA_VERSION;

/// The git revision of the working tree, when running inside a checkout
/// with `git` on the PATH. Best-effort: failures degrade to `None`.
#[must_use]
pub fn git_rev() -> Option<String> {
    let output = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let rev = String::from_utf8(output.stdout).ok()?;
    let rev = rev.trim();
    if rev.is_empty() {
        None
    } else {
        Some(rev.to_string())
    }
}

/// Parses a table cell into the most specific JSON value: `u64`, then
/// `f64`, then string. Percentages and dimension labels (`"2^10"`) stay
/// strings.
#[must_use]
pub fn cell_value(cell: &str) -> Json {
    if let Ok(v) = cell.parse::<u64>() {
        return Json::UInt(v);
    }
    if let Ok(v) = cell.parse::<f64>() {
        if v.is_finite() {
            return Json::Float(v);
        }
    }
    Json::Str(cell.to_string())
}

/// The manifest line for an experiment-level record file (no single
/// `SimConfig` exists at this granularity — trial-batch producers use
/// [`mac_sim::obs::RunManifest`] instead).
#[must_use]
pub fn experiment_manifest(report: &ExperimentReport, scale: Scale) -> Json {
    Json::obj(vec![
        ("schema_version".into(), SCHEMA_VERSION.into()),
        ("kind".into(), "manifest".into()),
        ("algorithm".into(), report.id.into()),
        ("title".into(), report.title.into()),
        ("scale".into(), format!("{scale:?}").into()),
        ("git_rev".into(), git_rev().into()),
        (
            "crates".into(),
            Json::Obj(vec![
                (
                    "contention-harness".into(),
                    env!("CARGO_PKG_VERSION").into(),
                ),
                ("mac-sim".into(), mac_sim_version().into()),
            ]),
        ),
    ])
}

fn mac_sim_version() -> &'static str {
    // The workspace pins one version for every member crate.
    env!("CARGO_PKG_VERSION")
}

/// Turns a finished experiment report into JSONL lines: one manifest, then
/// one `cell` record per table row. Row identity is `(experiment, section
/// caption, row index)`; the first column doubles as a human-readable key.
#[must_use]
pub fn experiment_records(report: &ExperimentReport, scale: Scale) -> Vec<String> {
    let mut lines = vec![experiment_manifest(report, scale).render()];
    for section in &report.sections {
        let headers = section.table.headers();
        for (row_idx, row) in section.table.rows().iter().enumerate() {
            let record = row_record(report.id, &section.caption, headers, row_idx, row);
            lines.push(record.render());
        }
    }
    lines
}

/// The `kind: "cell"` record for one table row: typed `values` for
/// `obsdiff`, plus the raw `cells` strings for bit-identical resume
/// (formatted floats do not round-trip through parse/reformat, so the
/// resume layer replays the exact strings).
#[must_use]
pub fn row_record(
    experiment: &str,
    section: &str,
    headers: &[String],
    row_idx: usize,
    row: &[String],
) -> Json {
    let values = Json::Obj(
        headers
            .iter()
            .zip(row)
            .map(|(header, cell)| (header.clone(), cell_value(cell)))
            .collect(),
    );
    let cells = Json::Arr(row.iter().map(|c| Json::Str(c.clone())).collect());
    Json::obj(vec![
        ("schema_version".into(), SCHEMA_VERSION.into()),
        ("kind".into(), "cell".into()),
        ("experiment".into(), experiment.into()),
        ("section".into(), section.into()),
        ("row".into(), row_idx.into()),
        (
            "key".into(),
            row.first().map(String::as_str).unwrap_or("").into(),
        ),
        ("values".into(), values),
        ("cells".into(), cells),
    ])
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
/// sealing `.part` checkpoint rows. Hand-rolled bitwise form: checkpoint
/// rows are written once per completed table row, so throughput is
/// irrelevant and the repo stays dependency-free.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Renders `record` with a trailing `crc` field sealing it: the checksum
/// covers the record rendered *without* the field, so a verifier strips the
/// last field, re-renders ([`Json`] preserves key order), and compares.
/// Non-object records render unsealed.
#[must_use]
pub fn seal_line(record: &Json) -> String {
    let body = record.render();
    match record {
        Json::Obj(pairs) => {
            let mut sealed = pairs.clone();
            sealed.push(("crc".into(), Json::UInt(u64::from(crc32(body.as_bytes())))));
            Json::Obj(sealed).render()
        }
        _ => body,
    }
}

/// Parses one checkpoint line and verifies its seal, returning the record
/// with the `crc` field stripped — i.e. exactly the [`Json`] that was
/// sealed. Lines without a trailing `crc` field (final `.jsonl` records
/// are deliberately unsealed, and pre-seal checkpoints lack it) pass
/// through unverified.
///
/// # Errors
///
/// Returns a message naming the defect: unparsable JSON, a mistyped `crc`,
/// or a checksum mismatch (bit rot / torn write).
pub fn verify_sealed_line(line: &str) -> Result<Json, String> {
    let value = Json::parse(line)?;
    let Json::Obj(pairs) = &value else {
        return Ok(value);
    };
    match pairs.last() {
        Some((key, crc_field)) if key == "crc" => {
            let stored = crc_field
                .as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .ok_or("mistyped 'crc' field")?;
            let stripped = Json::Obj(pairs[..pairs.len() - 1].to_vec());
            let computed = crc32(stripped.render().as_bytes());
            if computed != stored {
                return Err(format!(
                    "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                ));
            }
            Ok(stripped)
        }
        _ => Ok(value),
    }
}

/// A `kind: "quarantine"` record line: one trial (or checkpoint row) the
/// self-healing machinery set aside so the sweep could complete. `detail`
/// carries kind-specific fields (seed/trial/attempts for a quarantined
/// campaign trial, file/line for a corrupted checkpoint row).
#[must_use]
pub fn quarantine_record(experiment: &str, reason: &str, detail: Vec<(String, Json)>) -> Json {
    let mut fields = vec![
        ("schema_version".into(), SCHEMA_VERSION.into()),
        ("kind".into(), "quarantine".into()),
        ("experiment".into(), experiment.into()),
        ("reason".into(), reason.into()),
    ];
    fields.extend(detail);
    Json::obj(fields)
}

/// Writes JSONL lines to `path`, creating parent directories. The write is
/// atomic — body goes to a `.tmp` sibling first, then renames over `path` —
/// so a kill mid-write leaves either the old complete file or the new one,
/// never a torn hybrid.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_jsonl(path: &Path, lines: &[String]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut body = String::new();
    for line in lines {
        let _ = writeln!(body, "{line}");
    }
    let tmp = tmp_sibling(path);
    fs::write(&tmp, body)?;
    fs::rename(&tmp, path)
}

/// The `.tmp` staging sibling of `path` (same directory, so the final
/// rename never crosses a filesystem boundary).
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Loads a JSONL record file, parsing every non-empty line.
///
/// # Errors
///
/// Returns a message naming the offending line on parse failure.
pub fn load_jsonl(path: &Path) -> Result<Vec<Json>, String> {
    let body =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    body.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| {
            Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), idx + 1))
        })
        .collect()
}

/// Validates one JSONL line against the record schema: every record needs
/// `schema_version` and a known `kind`, and each kind has required typed
/// fields. This is the repo's schema validator — no external tool.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_line(line: &str) -> Result<(), String> {
    let value = Json::parse(line)?;
    validate_record(&value)
}

/// [`validate_line`] for an already-parsed record.
///
/// # Errors
///
/// Returns a message naming the first violated constraint.
pub fn validate_record(value: &Json) -> Result<(), String> {
    let version = value
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing or mistyped 'schema_version'")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    let kind = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing or mistyped 'kind'")?;
    let need_str = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(|_| ())
            .ok_or(format!("{kind} record: missing or mistyped '{key}'"))
    };
    let need_u64 = |key: &str| {
        value
            .get(key)
            .and_then(Json::as_u64)
            .map(|_| ())
            .ok_or(format!("{kind} record: missing or mistyped '{key}'"))
    };
    match kind {
        "manifest" => {
            need_str("algorithm")?;
        }
        "trial" => {
            // Round-trip through the typed parser, like snapshots: every
            // field `RunRecord::to_json` writes must be present and typed.
            mac_sim::obs::RunRecord::from_json(value).map(|_| ())?;
        }
        "cell" => {
            need_str("experiment")?;
            need_str("section")?;
            need_u64("row")?;
            value
                .get("values")
                .and_then(Json::as_obj)
                .ok_or("cell record: missing or mistyped 'values'")?;
            // Raw row strings are optional (added for resume); when present
            // every element must be a string.
            if let Some(cells) = value.get("cells") {
                let cells = cells
                    .as_arr()
                    .ok_or("cell record: mistyped 'cells' (want array)")?;
                for cell in cells {
                    cell.as_str()
                        .ok_or("cell record: non-string entry in 'cells'")?;
                }
            }
        }
        "quarantine" => {
            need_str("experiment")?;
            need_str("reason")?;
        }
        "snapshot" => {
            need_u64("seq")?;
            for key in ["counters", "gauges", "histograms"] {
                value
                    .get(key)
                    .and_then(Json::as_obj)
                    .ok_or(format!("snapshot record: missing or mistyped '{key}'"))?;
            }
            // Round-trip through the typed parser: bucket arrays, shifts,
            // and scalar types all check out or name the defect.
            mac_sim::MetricsSnapshot::from_json(value).map(|_| ())?;
        }
        other => return Err(format!("unknown record kind '{other}'")),
    }
    Ok(())
}

/// Checkpointing record sink with resume: the persistence half of the
/// campaign layer.
///
/// For each experiment the store keeps an *incremental* `<id>.jsonl.part`
/// file — a minimal manifest line followed by one `cell` record per
/// completed table row, flushed as rows stream out of the campaign pool —
/// and replaces it with the complete `<id>.jsonl` (manifest + every cell)
/// when the experiment finishes. A run killed mid-sweep therefore leaves
/// behind exactly the rows that completed.
///
/// Opened with [`RecordStore::resume`], the store loads previously
/// completed rows (preferring the final `.jsonl`, falling back to a
/// `.part`, tolerating a truncated trailing line) and serves them through
/// [`RecordStore::stored_row`] so the scheduler only re-runs the
/// remainder. Rows are replayed as the *raw formatted strings* recorded in
/// the `cells` field — formatted floats do not round-trip through
/// parse/reformat, and replaying exact strings is what makes a resumed
/// run's output bit-identical to an uninterrupted one. Records from a
/// different [`Scale`] are ignored wholesale: quick rows must never leak
/// into a full sweep.
#[derive(Debug)]
pub struct RecordStore {
    dir: std::path::PathBuf,
    resume: bool,
    current: Option<OpenExperiment>,
    quarantined: Vec<QuarantinedRow>,
}

/// One checkpoint line set aside during resume because it was damaged —
/// unparsable JSON, a failed [`crc32`] seal, or a malformed record. The
/// surrounding intact rows still load (and replay byte-exactly); the
/// damaged row is simply re-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRow {
    /// The checkpoint file the line came from.
    pub file: std::path::PathBuf,
    /// 1-indexed line number within that file.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

#[derive(Debug)]
struct OpenExperiment {
    id: String,
    part_path: std::path::PathBuf,
    part: fs::File,
    loaded: std::collections::HashMap<(String, usize), Vec<String>>,
}

impl RecordStore {
    /// Opens a fresh store in `dir` (created if missing); any prior
    /// records are ignored and will be overwritten experiment by
    /// experiment.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(dir: impl Into<std::path::PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        // A fresh store starts a fresh metric history; only resumed
        // stores append to an existing side stream.
        match fs::remove_file(dir.join("metrics.jsonl")) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(RecordStore {
            dir,
            resume: false,
            current: None,
            quarantined: Vec::new(),
        })
    }

    /// Opens `dir` for resumption: completed rows found in existing
    /// `.jsonl` / `.jsonl.part` files (at a matching scale) are replayed
    /// instead of re-run.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn resume(dir: impl Into<std::path::PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(RecordStore {
            dir,
            resume: true,
            current: None,
            quarantined: Vec::new(),
        })
    }

    /// The directory records are written to.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoint lines quarantined while resuming, across every
    /// experiment this store has begun. Empty unless a checkpoint file was
    /// damaged (bit rot, torn write, manual edit).
    #[must_use]
    pub fn quarantined(&self) -> &[QuarantinedRow] {
        &self.quarantined
    }

    /// Starts (or resumes) the experiment with registry id `id` (`"e9"`):
    /// loads any previously completed rows, then opens a fresh `.part`
    /// file seeded with a minimal manifest and the replayed rows, so the
    /// checkpoint stays complete even if this run is also killed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn begin_experiment(&mut self, id: &str, scale: Scale) -> io::Result<()> {
        use io::Write as _;
        let id = id.to_lowercase();
        let part_path = self.dir.join(format!("{id}.jsonl.part"));
        let mut loaded = std::collections::HashMap::new();
        if self.resume {
            let final_path = self.dir.join(format!("{id}.jsonl"));
            for source in [&final_path, &part_path] {
                if source.exists() {
                    let (rows, damaged) = load_completed_rows(source, scale);
                    loaded = rows;
                    self.quarantined.extend(damaged);
                    break;
                }
            }
        }
        // Stage the fresh checkpoint in a `.tmp` sibling and rename it into
        // place: a kill mid-replay must not have half-truncated the very
        // checkpoint being resumed from.
        let tmp_path = tmp_sibling(&part_path);
        let mut staged = fs::File::create(&tmp_path)?;
        let manifest = Json::obj(vec![
            ("schema_version".into(), SCHEMA_VERSION.into()),
            ("kind".into(), "manifest".into()),
            ("algorithm".into(), id.to_uppercase().into()),
            ("scale".into(), format!("{scale:?}").into()),
            ("partial".into(), Json::Bool(true)),
        ]);
        writeln!(staged, "{}", seal_line(&manifest))?;
        let mut replay: Vec<(&(String, usize), &Vec<String>)> = loaded.iter().collect();
        replay.sort();
        for ((section, row), cells) in replay {
            let record = row_record(&id.to_uppercase(), section, &[], *row, cells);
            writeln!(staged, "{}", seal_line(&record))?;
        }
        staged.flush()?;
        drop(staged);
        fs::rename(&tmp_path, &part_path)?;
        let part = fs::OpenOptions::new().append(true).open(&part_path)?;
        self.current = Some(OpenExperiment {
            id,
            part_path,
            part,
            loaded,
        });
        Ok(())
    }

    /// A previously completed row for the open experiment, if the store
    /// was opened for resume and has one.
    #[must_use]
    pub fn stored_row(&self, section: &str, row: usize) -> Option<Vec<String>> {
        self.current
            .as_ref()?
            .loaded
            .get(&(section.to_string(), row))
            .cloned()
    }

    /// Appends one completed row to the open experiment's `.part` file
    /// and flushes, so the checkpoint survives a kill at any moment. The
    /// line is sealed with a [`crc32`] checksum ([`seal_line`]) so a resume
    /// can tell bit rot from a benign mid-line truncation.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; errors if no experiment is open.
    pub fn record_row(
        &mut self,
        section: &str,
        headers: &[String],
        row: usize,
        cells: &[String],
    ) -> io::Result<()> {
        use io::Write as _;
        let open = self
            .current
            .as_mut()
            .ok_or_else(|| io::Error::other("record_row outside begin/finish_experiment"))?;
        let record = row_record(&open.id.to_uppercase(), section, headers, row, cells);
        writeln!(open.part, "{}", seal_line(&record))?;
        open.part.flush()
    }

    /// Appends one metrics snapshot to the store's `metrics.jsonl` side
    /// stream and flushes — and, when an experiment is open, a sealed
    /// copy to its `.part` checkpoint, so a killed sweep keeps its metric
    /// history alongside its rows. Snapshot lines never enter the final
    /// `<id>.jsonl` outputs: those stay byte-identical whether or not
    /// telemetry was attached.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn record_snapshot(&mut self, snapshot: &mac_sim::MetricsSnapshot) -> io::Result<()> {
        use io::Write as _;
        let path = self.metrics_path();
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        writeln!(file, "{}", snapshot.to_jsonl_line())?;
        file.flush()?;
        if let Some(open) = self.current.as_mut() {
            writeln!(open.part, "{}", seal_line(&snapshot.to_json()))?;
            open.part.flush()?;
        }
        Ok(())
    }

    /// The metrics side stream path (`<dir>/metrics.jsonl`).
    #[must_use]
    pub fn metrics_path(&self) -> std::path::PathBuf {
        self.dir.join("metrics.jsonl")
    }

    /// Snapshot lines already in the metrics side stream — the sequence
    /// number a resumed sweep's hub should continue from
    /// ([`mac_sim::MetricsHub::set_seq`]), so a resumed metric history
    /// extends the original instead of restarting at zero.
    #[must_use]
    pub fn snapshot_count(&self) -> u64 {
        fs::read_to_string(self.metrics_path())
            .map(|body| body.lines().filter(|l| !l.trim().is_empty()).count() as u64)
            .unwrap_or(0)
    }

    /// Completes the open experiment: writes the full `<id>.jsonl`
    /// (manifest + every cell record, identical whether or not the run
    /// was resumed) and removes the `.part` checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish_experiment(&mut self, report: &ExperimentReport, scale: Scale) -> io::Result<()> {
        let Some(open) = self.current.take() else {
            return Err(io::Error::other(
                "finish_experiment without begin_experiment",
            ));
        };
        let lines = experiment_records(report, scale);
        let path = self.dir.join(format!("{}.jsonl", open.id));
        write_jsonl(&path, &lines)?;
        drop(open.part);
        match fs::remove_file(&open.part_path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Loads the completed rows of one record file, keyed by `(section, row)`,
/// plus a quarantine report of the damaged lines.
///
/// Tolerant by design — a file truncated mid-line by a kill, or with a row
/// corrupted by bit rot, must still yield every *intact* row: each damaged
/// line (unparsable, failed [`crc32`] seal, or malformed record) is
/// quarantined and reported while its neighbours load normally. Only
/// `cell` records carrying a `cells` string array count as rows. If the
/// file's manifest declares a different scale, the whole file is ignored
/// (deliberate, not damage — no quarantine).
#[allow(clippy::type_complexity)]
fn load_completed_rows(
    path: &Path,
    scale: Scale,
) -> (
    std::collections::HashMap<(String, usize), Vec<String>>,
    Vec<QuarantinedRow>,
) {
    let mut rows = std::collections::HashMap::new();
    let mut damaged = Vec::new();
    let Ok(raw) = fs::read(path) else {
        return (rows, damaged);
    };
    // Lossy decoding keeps a single flipped byte from discarding the whole
    // checkpoint: the mangled line fails its seal and is quarantined alone,
    // while every byte-intact neighbour still loads.
    let body = String::from_utf8_lossy(&raw);
    let want_scale = format!("{scale:?}");
    let mut quarantine = |line_no: usize, reason: String| {
        damaged.push(QuarantinedRow {
            file: path.to_path_buf(),
            line: line_no,
            reason,
        });
    };
    for (idx, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = match verify_sealed_line(line) {
            Ok(value) => value,
            Err(reason) => {
                quarantine(idx + 1, reason);
                continue;
            }
        };
        match value.get("kind").and_then(Json::as_str) {
            Some("manifest") if value.get("scale").and_then(Json::as_str) != Some(&want_scale) => {
                rows.clear();
                damaged.clear();
                return (rows, damaged);
            }
            Some("cell") => {
                let Some(section) = value.get("section").and_then(Json::as_str) else {
                    quarantine(idx + 1, "cell record: missing 'section'".into());
                    continue;
                };
                let Some(row) = value.get("row").and_then(Json::as_u64) else {
                    quarantine(idx + 1, "cell record: missing 'row'".into());
                    continue;
                };
                let Some(cells) = value.get("cells").and_then(Json::as_arr) else {
                    quarantine(idx + 1, "cell record: missing 'cells'".into());
                    continue;
                };
                let Some(strings) = cells
                    .iter()
                    .map(|c| c.as_str().map(String::from))
                    .collect::<Option<Vec<String>>>()
                else {
                    quarantine(idx + 1, "cell record: non-string entry in 'cells'".into());
                    continue;
                };
                #[allow(clippy::cast_possible_truncation)]
                rows.insert((section.to_string(), row as usize), strings);
            }
            Some(_) => {}
            None => quarantine(idx + 1, "record without a 'kind'".into()),
        }
    }
    (rows, damaged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_analysis::Table;

    fn sample_report() -> ExperimentReport {
        let mut report = ExperimentReport::new("E0", "sample");
        let mut table = Table::new(&["n", "rounds", "ratio"]);
        table.row(&["2^10", "123", "1.5"]);
        table.row(&["2^12", "145", "1.6"]);
        report.section("rounds vs n", table);
        report
    }

    #[test]
    fn experiment_records_emit_manifest_then_cells() {
        let lines = experiment_records(&sample_report(), Scale::Quick);
        assert_eq!(lines.len(), 3);
        for line in &lines {
            validate_line(line).unwrap();
        }
        let manifest = Json::parse(&lines[0]).unwrap();
        assert_eq!(
            manifest.get("kind").and_then(Json::as_str),
            Some("manifest")
        );
        assert_eq!(manifest.get("algorithm").and_then(Json::as_str), Some("E0"));
        let cell = Json::parse(&lines[1]).unwrap();
        assert_eq!(cell.get("kind").and_then(Json::as_str), Some("cell"));
        assert_eq!(cell.get("key").and_then(Json::as_str), Some("2^10"));
        let values = cell.get("values").unwrap();
        assert_eq!(values.get("rounds").and_then(Json::as_u64), Some(123));
        assert_eq!(values.get("ratio").and_then(Json::as_f64), Some(1.5));
        assert_eq!(values.get("n").and_then(Json::as_str), Some("2^10"));
    }

    #[test]
    fn validate_rejects_bad_records() {
        assert!(validate_line("{}").is_err());
        assert!(validate_line(r#"{"schema_version":99,"kind":"cell"}"#).is_err());
        // v1 records are rejected wholesale: v2 only added the snapshot
        // kind, so v1 files are regenerated, not migrated.
        assert!(validate_line(
            r#"{"schema_version":1,"kind":"quarantine","experiment":"e1","reason":"x"}"#
        )
        .is_err());
        assert!(validate_line(
            r#"{"schema_version":2,"kind":"quarantine","experiment":"e1","reason":"x"}"#
        )
        .is_ok());
        assert!(validate_line(r#"{"schema_version":2,"kind":"wat"}"#).is_err());
        // Nothing writes `bench` lines any more: the kind is unknown.
        assert!(validate_line(
            r#"{"schema_version":2,"kind":"bench","name":"x","mean_ns":1.5,"iters":10}"#
        )
        .is_err());
    }

    #[test]
    fn snapshot_records_validate() {
        use mac_sim::MetricsHub;
        let hub = MetricsHub::new(2);
        hub.with_shard(0, |reg| {
            reg.count("engine_rounds_total", 41);
            reg.observe("engine_round_acts", 7);
        });
        let snap = hub.snapshot();
        validate_line(&snap.to_jsonl_line()).unwrap();
        // A snapshot missing its seq is rejected.
        assert!(validate_line(r#"{"schema_version":2,"kind":"snapshot"}"#).is_err());
        // Mistyped histograms are rejected by the typed round-trip.
        assert!(validate_line(
            r#"{"schema_version":2,"kind":"snapshot","seq":0,"counters":{},"gauges":{},"histograms":{"h":{"buckets":"nope"}}}"#
        )
        .is_err());
    }

    #[test]
    fn trial_records_validate() {
        use mac_sim::obs::RunRecorder;
        use mac_sim::trials::fan_out;
        use mac_sim::{Action, ChannelId, Engine, SimConfig};
        use rand::rngs::SmallRng;

        struct Beacon;
        impl mac_sim::Protocol for Beacon {
            type Msg = u8;
            fn act(&mut self, _: &mac_sim::RoundContext, _: &mut SmallRng) -> Action<u8> {
                Action::transmit(ChannelId::PRIMARY, 0)
            }
            fn observe(
                &mut self,
                _: &mac_sim::RoundContext,
                _: mac_sim::Feedback<u8>,
                _: &mut SmallRng,
            ) {
            }
            fn status(&self) -> mac_sim::Status {
                mac_sim::Status::Active
            }
        }

        let records = fan_out(3, 7, None, |seed| {
            let mut engine = Engine::new(SimConfig::new(2).seed(seed));
            engine.add_node(Beacon);
            let mut recorder = RunRecorder::new();
            engine.run_observed(&mut recorder).unwrap();
            recorder.into_record(seed)
        });
        for record in &records {
            validate_line(&record.to_jsonl_line()).unwrap();
        }
    }

    #[test]
    fn jsonl_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("contention-record-test");
        let path = dir.join("e0.jsonl");
        let lines = experiment_records(&sample_report(), Scale::Quick);
        write_jsonl(&path, &lines).unwrap();
        let back = load_jsonl(&path).unwrap();
        assert_eq!(back.len(), lines.len());
        for record in &back {
            validate_record(record).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_checkpoints_rows_and_resumes_them() {
        let dir = std::env::temp_dir().join("contention-store-test-resume");
        let _ = std::fs::remove_dir_all(&dir);
        let headers: Vec<String> = vec!["n".into(), "rounds".into()];

        // First run: two rows complete, then the process "dies" (no finish).
        let mut store = RecordStore::create(&dir).unwrap();
        store.begin_experiment("e99", Scale::Quick).unwrap();
        store
            .record_row("rounds vs n", &headers, 0, &["2^10".into(), "123".into()])
            .unwrap();
        store
            .record_row("rounds vs n", &headers, 1, &["2^12".into(), "145".into()])
            .unwrap();
        drop(store);
        assert!(dir.join("e99.jsonl.part").exists());
        assert!(!dir.join("e99.jsonl").exists());

        // Resume: both rows come back; a third completes; finalize.
        let mut store = RecordStore::resume(&dir).unwrap();
        store.begin_experiment("e99", Scale::Quick).unwrap();
        assert_eq!(
            store.stored_row("rounds vs n", 0),
            Some(vec!["2^10".into(), "123".into()])
        );
        assert_eq!(
            store.stored_row("rounds vs n", 1),
            Some(vec!["2^12".into(), "145".into()])
        );
        assert_eq!(store.stored_row("rounds vs n", 2), None);
        store
            .record_row("rounds vs n", &headers, 2, &["2^14".into(), "170".into()])
            .unwrap();

        let mut report = ExperimentReport::new("E99", "resume smoke");
        let mut table = Table::new(&["n", "rounds"]);
        table.row(&["2^10", "123"]);
        table.row(&["2^12", "145"]);
        table.row(&["2^14", "170"]);
        report.section("rounds vs n", table);
        store.finish_experiment(&report, Scale::Quick).unwrap();

        assert!(dir.join("e99.jsonl").exists());
        assert!(!dir.join("e99.jsonl.part").exists());
        for record in load_jsonl(&dir.join("e99.jsonl")).unwrap() {
            validate_record(&record).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_ignores_records_at_a_different_scale() {
        let dir = std::env::temp_dir().join("contention-store-test-scale");
        let _ = std::fs::remove_dir_all(&dir);
        let headers: Vec<String> = vec!["x".into()];
        let mut store = RecordStore::create(&dir).unwrap();
        store.begin_experiment("e98", Scale::Quick).unwrap();
        store.record_row("s", &headers, 0, &["1".into()]).unwrap();
        drop(store);

        let mut store = RecordStore::resume(&dir).unwrap();
        store.begin_experiment("e98", Scale::Full).unwrap();
        assert_eq!(
            store.stored_row("s", 0),
            None,
            "quick rows leaked into full"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_tolerates_a_truncated_trailing_line() {
        let dir = std::env::temp_dir().join("contention-store-test-trunc");
        let _ = std::fs::remove_dir_all(&dir);
        let headers: Vec<String> = vec!["x".into()];
        let mut store = RecordStore::create(&dir).unwrap();
        store.begin_experiment("e97", Scale::Quick).unwrap();
        store.record_row("s", &headers, 0, &["1".into()]).unwrap();
        store.record_row("s", &headers, 1, &["2".into()]).unwrap();
        drop(store);

        // Chop the file mid-way through the final record, as a kill would.
        let part = dir.join("e97.jsonl.part");
        let body = std::fs::read_to_string(&part).unwrap();
        std::fs::write(&part, &body[..body.len() - 10]).unwrap();

        let mut store = RecordStore::resume(&dir).unwrap();
        store.begin_experiment("e97", Scale::Quick).unwrap();
        assert_eq!(store.stored_row("s", 0), Some(vec!["1".into()]));
        assert_eq!(
            store.stored_row("s", 1),
            None,
            "truncated row must not load"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_stream_to_the_side_file_and_survive_in_the_checkpoint() {
        use mac_sim::MetricsHub;
        let dir = std::env::temp_dir().join("contention-store-test-metrics");
        let _ = std::fs::remove_dir_all(&dir);
        let hub = MetricsHub::new(2);
        hub.with_shard(0, |reg| reg.count("campaign_trials_done_total", 5));

        let mut store = RecordStore::create(&dir).unwrap();
        store.begin_experiment("e95", Scale::Quick).unwrap();
        store.record_snapshot(&hub.snapshot()).unwrap();
        hub.with_shard(1, |reg| reg.count("campaign_trials_done_total", 3));
        store.record_snapshot(&hub.snapshot()).unwrap();
        assert_eq!(store.snapshot_count(), 2);

        // Side stream: two plain, valid snapshot lines with advancing seq.
        let lines = load_jsonl(&store.metrics_path()).unwrap();
        assert_eq!(lines.len(), 2);
        for record in &lines {
            validate_record(record).unwrap();
        }
        assert_eq!(lines[0].get("seq").and_then(Json::as_u64), Some(0));
        assert_eq!(lines[1].get("seq").and_then(Json::as_u64), Some(1));

        // Checkpoint: the sealed copies ride in the .part and verify.
        let part_body = std::fs::read_to_string(dir.join("e95.jsonl.part")).unwrap();
        let snapshot_lines: Vec<_> = part_body
            .lines()
            .filter(|l| l.contains("\"kind\":\"snapshot\""))
            .collect();
        assert_eq!(snapshot_lines.len(), 2);
        for line in snapshot_lines {
            verify_sealed_line(line).unwrap();
        }

        // A resumed store keeps the history; a fresh one truncates it.
        drop(store);
        let store = RecordStore::resume(&dir).unwrap();
        assert_eq!(store.snapshot_count(), 2);
        drop(store);
        let store = RecordStore::create(&dir).unwrap();
        assert_eq!(store.snapshot_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sealed_lines_roundtrip_and_detect_corruption() {
        let record = row_record("E0", "s", &["n".into()], 3, &["2^10".into()]);
        let sealed = seal_line(&record);
        // The seal verifies and strips back to the original record.
        let back = verify_sealed_line(&sealed).unwrap();
        assert_eq!(back.render(), record.render());
        // Unsealed lines (final .jsonl records) pass through untouched.
        let plain = record.render();
        assert_eq!(verify_sealed_line(&plain).unwrap().render(), plain);
        // Any single-character corruption of the sealed payload is caught.
        let corrupted = sealed.replace("2^10", "2^11");
        let err = verify_sealed_line(&corrupted).unwrap_err();
        assert!(err.contains("crc mismatch"), "{err}");
    }

    #[test]
    fn resume_quarantines_a_corrupted_row_and_keeps_the_rest() {
        let dir = std::env::temp_dir().join("contention-store-test-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let headers: Vec<String> = vec!["x".into()];
        let mut store = RecordStore::create(&dir).unwrap();
        store.begin_experiment("e96", Scale::Quick).unwrap();
        store.record_row("s", &headers, 0, &["10".into()]).unwrap();
        store.record_row("s", &headers, 1, &["20".into()]).unwrap();
        store.record_row("s", &headers, 2, &["30".into()]).unwrap();
        drop(store);

        // Flip one digit inside row 1's sealed payload: still valid JSON,
        // but the seal no longer matches.
        let part = dir.join("e96.jsonl.part");
        let body = std::fs::read_to_string(&part).unwrap();
        let tampered = body.replace("\"20\"", "\"21\"");
        assert_ne!(body, tampered, "tamper target not found");
        std::fs::write(&part, tampered).unwrap();

        let mut store = RecordStore::resume(&dir).unwrap();
        store.begin_experiment("e96", Scale::Quick).unwrap();
        assert_eq!(store.stored_row("s", 0), Some(vec!["10".into()]));
        assert_eq!(store.stored_row("s", 1), None, "tampered row must not load");
        assert_eq!(store.stored_row("s", 2), Some(vec!["30".into()]));
        assert_eq!(store.quarantined().len(), 1);
        let q = &store.quarantined()[0];
        assert_eq!(q.file, part);
        assert_eq!(q.line, 3, "manifest is line 1, row 1 is line 3");
        assert!(q.reason.contains("crc mismatch"), "{}", q.reason);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_records_validate() {
        let record = quarantine_record(
            "E7",
            "panicked after 2 attempts",
            vec![("seed".into(), Json::UInt(1005))],
        );
        validate_record(&record).unwrap();
        assert!(validate_line(r#"{"schema_version":2,"kind":"quarantine"}"#).is_err());
    }

    #[test]
    fn cell_value_types() {
        assert_eq!(cell_value("42"), Json::UInt(42));
        assert_eq!(cell_value("1.25"), Json::Float(1.25));
        assert_eq!(cell_value("2^10"), Json::Str("2^10".into()));
        assert_eq!(cell_value(""), Json::Str(String::new()));
    }
}
