//! The campaign-backed experiment runner.
//!
//! Everything an experiment needs to execute lives in a [`RunCtx`]: the
//! [`Scale`], the worker count, a cancellation token, an optional progress
//! hub, and an optional [`RecordStore`] for checkpoint/resume. Experiments
//! describe their measurements as [`Sweep`]s — one cell per table row, each
//! cell a `(trials, seed stream, aggregate, trial closure, render closure)`
//! tuple — and the sweep schedules every cell on one
//! [`mac_sim::campaign::Campaign`] worker pool. Results stream into
//! aggregates (no `Vec<RunReport>` accumulation), finished rows are
//! checkpointed to disk as they complete, and rows already present in a
//! resumed record store are replayed without running a single trial. A
//! measurement that needs every sample instead of a table row runs as a
//! batch, [`RunCtx::trials`]: one campaign cell under the same scheduling
//! knobs, recomputed rather than replayed on resume.
//!
//! Determinism contract: the campaign layer merges shard aggregates in a
//! fixed order, so a sweep's rendered rows are bit-identical for every
//! worker count; the record store replays the exact row strings, so a
//! killed-and-resumed run is bit-identical to an uninterrupted one. For
//! that to hold end to end, experiments must derive their prose notes from
//! the rendered row strings (via [`cell_f64`]/[`cell_u64`]), not from
//! transient sample vectors.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use contention_analysis::Table;
use mac_sim::campaign::{
    Aggregate, Campaign, CampaignOutcome, CampaignProgress, CancelToken, Cell, Collect,
    Quarantined, SeedStream, DEFAULT_SHARD_SIZE,
};
use mac_sim::obs::Json;
use mac_sim::MetricsHub;

use crate::record::{quarantine_record, RecordStore};
use crate::Scale;

/// Samples `count` distinct values from `0..universe` (a partial
/// Fisher-Yates), deterministically from `seed`. Used to pick which node
/// ids are activated in baseline runs.
///
/// # Panics
///
/// Panics if `count > universe`.
#[must_use]
pub fn sample_distinct(universe: u64, count: usize, seed: u64) -> Vec<u64> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    assert!(
        count as u64 <= universe,
        "cannot sample {count} distinct values from 0..{universe}"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    // Partial Fisher–Yates over a sparse map to stay O(count) in memory.
    let mut swaps: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(count);
    for i in 0..count as u64 {
        let j = rng.gen_range(i..universe);
        let vi = *swaps.get(&i).unwrap_or(&i);
        let vj = *swaps.get(&j).unwrap_or(&j);
        out.push(vj);
        swaps.insert(j, vi);
    }
    out
}

/// Parses a rendered table cell back to `f64`, tolerating a trailing `%`.
///
/// Notes must be derived from rendered cells (not transient samples) so
/// that resumed rows — which exist only as strings — produce bit-identical
/// reports; this is the standard parser for doing so.
///
/// # Panics
///
/// Panics if the cell is not numeric.
#[must_use]
pub fn cell_f64(cell: &str) -> f64 {
    let trimmed = cell.trim().trim_end_matches('%');
    trimmed
        .parse::<f64>()
        .unwrap_or_else(|_| panic!("table cell {cell:?} is not numeric"))
}

/// [`cell_f64`] for integer cells.
///
/// # Panics
///
/// Panics if the cell is not an unsigned integer.
#[must_use]
pub fn cell_u64(cell: &str) -> u64 {
    cell.trim()
        .parse::<u64>()
        .unwrap_or_else(|_| panic!("table cell {cell:?} is not an unsigned integer"))
}

/// Panic payload thrown by [`Sweep::run`] and [`RunCtx::trials`] when
/// their campaign is cancelled (deadline or explicit token) before every
/// row or trial completed. The rows that did complete are already
/// checkpointed in the record store; `repro` catches this payload, reports
/// how to resume, and exits cleanly.
#[derive(Debug, Clone, Copy)]
pub struct SweepCancelled;

/// Everything an experiment run needs: scale, scheduling knobs, and the
/// optional observability/persistence attachments.
pub struct RunCtx {
    /// The sizing of the run (trial counts, grid thinning).
    pub scale: Scale,
    workers: Option<usize>,
    cancel: CancelToken,
    hub: Option<ProgressHub>,
    metrics: Option<Arc<MetricsHub>>,
    store: Option<Mutex<RecordStore>>,
    /// Self-healing: retry panicking trials up to this many attempts, then
    /// quarantine the seed so the sweep completes ([`Campaign::self_heal`]).
    heal_attempts: Option<u32>,
    /// Fault injection for the chaos harness: the trial at exactly this
    /// seed panics, exercising the quarantine path end to end.
    chaos_panic_seed: Option<u64>,
    /// Registry id of the experiment currently running (for quarantine
    /// records).
    current_id: Mutex<String>,
    /// Set when checkpoint I/O failed permanently and the run degraded to
    /// computing without persistence.
    degraded: AtomicBool,
}

impl RunCtx {
    /// A plain context: default worker count, no cancellation, no
    /// progress, no records. What tests use.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        RunCtx {
            scale,
            workers: None,
            cancel: CancelToken::new(),
            hub: None,
            metrics: None,
            store: None,
            heal_attempts: None,
            chaos_panic_seed: None,
            current_id: Mutex::new(String::new()),
            degraded: AtomicBool::new(false),
        }
    }

    /// Pins the campaign worker count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Attaches a cancellation token (flag or deadline).
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Attaches a stderr progress line with a whole-sweep ETA, redrawn
    /// every 200 ms while a campaign runs.
    #[must_use]
    pub fn progress(mut self) -> Self {
        self.hub = Some(ProgressHub::new());
        self
    }

    /// Attaches a live metrics hub: every campaign (sweep or batch) streams
    /// its scheduler counters into the hub's per-worker shards, and when a
    /// record store is also attached, each finished campaign appends one
    /// `kind: "snapshot"` record to `metrics.jsonl` in the record
    /// directory. The hub observes — it never feeds back into scheduling
    /// or trial RNG, so an attached run is bit-identical to a bare one.
    #[must_use]
    pub fn metrics_hub(mut self, hub: Arc<MetricsHub>) -> Self {
        self.metrics = Some(hub);
        self
    }

    /// Attaches a record store for checkpointing and resume.
    #[must_use]
    pub fn record_store(mut self, store: RecordStore) -> Self {
        self.store = Some(Mutex::new(store));
        self
    }

    /// Enables trial self-healing on every sweep: a panicking trial is
    /// retried up to `attempts` times, then its seed is quarantined
    /// (reported to stderr and, when a record store is attached, to
    /// `quarantine.jsonl`) so the sweep still completes. Off by default —
    /// a panic in a vanilla run stays loud.
    #[must_use]
    pub fn self_heal(mut self, attempts: u32) -> Self {
        self.heal_attempts = Some(attempts);
        self
    }

    /// Chaos harness hook: makes the trial at exactly `seed` panic,
    /// exercising quarantine, checkpointing, and resume under injected
    /// failure. Implies nothing by itself — pair with [`RunCtx::self_heal`]
    /// to let the sweep survive it.
    #[must_use]
    pub fn chaos_panic_seed(mut self, seed: u64) -> Self {
        self.chaos_panic_seed = Some(seed);
        self
    }

    /// Whether checkpoint I/O failed permanently and the run degraded to
    /// computing without persistence (records incomplete).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Marks the run degraded: checkpoint I/O is abandoned (the sweep
    /// keeps computing), and the caller is told records are incomplete.
    fn degrade(&self, what: &str, error: &std::io::Error) {
        eprintln!(
            "warning: {what}: {error}; continuing without checkpoints — records will be incomplete"
        );
        self.degraded.store(true, Ordering::Relaxed);
    }

    /// Starts a sweep: one table with the given `headers`, one campaign
    /// cell per [`Sweep::row`], identified for resume by the `section`
    /// caption.
    #[must_use]
    pub fn sweep<'ctx, 'a, A: Aggregate>(
        &'ctx self,
        section: impl Into<String>,
        headers: &[&str],
    ) -> Sweep<'ctx, 'a, A> {
        Sweep {
            ctx: self,
            section: section.into(),
            headers: headers.iter().map(|&h| h.to_string()).collect(),
            cells: Vec::new(),
            rows: Vec::new(),
            renders: Vec::new(),
        }
    }

    /// Runs one batch of `trials` seeded trials, trial `i` at seed
    /// `base_seed + i`, and returns their results in seed order: the run
    /// path for measurements that need every sample rather than a table
    /// row. The batch is a single [`Collect`] campaign cell scheduled like
    /// a sweep's (same workers, cancellation, self-healing, progress,
    /// telemetry and chaos seed), so its output never depends on the worker
    /// count. Like a sweep it appends a metrics snapshot, but it writes no
    /// checkpoint rows: a resumed run recomputes it.
    ///
    /// # Panics
    ///
    /// Panics with [`SweepCancelled`] if the context's cancellation token
    /// fired before the batch completed; propagates trial panics. Under
    /// self-healing a quarantined trial is left out of the result and
    /// reported as row 0 of `section`.
    pub fn trials<T: Send>(
        &self,
        section: &str,
        trials: usize,
        base_seed: u64,
        run: impl Fn(u64) -> T + Sync,
    ) -> Vec<T> {
        let run = &run;
        let cell = CellSpec {
            trials,
            seeds: SeedStream::Offset(base_seed),
            make: Box::new(Collect::default),
            run: Box::new(move |seed, acc: &mut Collect<T>| acc.0.push(run(seed))),
        };
        let mut results = None;
        let outcome = self.run_campaign(vec![cell], |_, acc| results = Some(acc.0));
        let quarantined: Vec<(usize, &Quarantined)> =
            outcome.quarantined.iter().map(|q| (0, q)).collect();
        self.report_quarantined(section, &quarantined);
        results.unwrap_or_else(|| std::panic::panic_any(SweepCancelled))
    }

    /// Schedules `cells` as one campaign under this context: its worker
    /// count, cancellation token, self-healing, progress hub and metrics
    /// hub, with the chaos seed injected into every trial. Each finished
    /// cell's aggregate streams to `on_cell`, in cell order; once the
    /// campaign returns, one metrics snapshot is checkpointed.
    fn run_campaign<'a, A: Aggregate>(
        &self,
        cells: Vec<CellSpec<'a, A>>,
        on_cell: impl FnMut(usize, A) + Send,
    ) -> CampaignOutcome {
        let mut campaign = Campaign::new()
            .shard_size(default_shard_size(self.scale))
            .cancel_token(self.cancel.clone());
        if let Some(workers) = self.workers {
            campaign = campaign.workers(workers);
        }
        if let Some(attempts) = self.heal_attempts {
            campaign = campaign.self_heal(attempts);
        }
        if let Some(hub) = &self.metrics {
            campaign = campaign.telemetry(hub.clone());
        }
        let chaos = self.chaos_panic_seed;
        for cell in cells {
            let run = cell.run;
            campaign.push(Cell::new(
                cell.trials,
                cell.seeds,
                cell.make,
                move |seed, acc: &mut A| {
                    if chaos == Some(seed) {
                        panic!("chaos: injected panic at seed {seed}");
                    }
                    run(seed, acc);
                },
            ));
        }
        let outcome = match &self.hub {
            Some(hub) => hub.tick_beside(|| campaign.progress(hub.counts.clone()).run(on_cell)),
            None => campaign.run(on_cell),
        };
        self.checkpoint_metrics();
        outcome
    }

    /// Marks the start of experiment `id` (registry form, `"e9"`): loads
    /// resumable rows and opens the incremental checkpoint. Called by the
    /// experiment registry, not by experiments.
    ///
    /// Checkpoint I/O failures are retried with backoff; a persistent
    /// failure degrades the run (stderr warning, [`RunCtx::is_degraded`])
    /// instead of killing it — losing the records is better than losing
    /// the compute.
    pub fn begin_experiment(&self, id: &str) {
        if let Some(hub) = &self.hub {
            hub.set_label(id);
        }
        *self.current_id.lock().expect("current id lock") = id.to_string();
        if self.is_degraded() {
            return;
        }
        if let Some(store) = &self.store {
            let result = io_with_retry(|| {
                store
                    .lock()
                    .expect("record store lock")
                    .begin_experiment(id, self.scale)
            });
            if let Err(e) = result {
                self.degrade(&format!("cannot checkpoint {id}"), &e);
                return;
            }
            // Surface checkpoint rows the resume quarantined as damaged.
            let store = store.lock().expect("record store lock");
            for row in store.quarantined() {
                eprintln!(
                    "warning: quarantined checkpoint row {}:{} ({}); it will be re-run",
                    row.file.display(),
                    row.line,
                    row.reason
                );
            }
        }
    }

    /// Marks the end of an experiment: writes the final record file and
    /// removes the checkpoint. I/O failures retry, then degrade (stderr
    /// warning + [`RunCtx::is_degraded`]) rather than panic.
    pub fn finish_experiment(&self, report: &crate::ExperimentReport) {
        if self.is_degraded() {
            return;
        }
        if let Some(store) = &self.store {
            let result = io_with_retry(|| {
                store
                    .lock()
                    .expect("record store lock")
                    .finish_experiment(report, self.scale)
            });
            if let Err(e) = result {
                self.degrade(&format!("cannot finalize records for {}", report.id), &e);
            }
        }
    }

    /// Prints the final progress summary, if a hub is attached.
    pub fn finish_progress(&self) {
        if let Some(hub) = &self.hub {
            hub.finish();
        }
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    fn stored_row(&self, section: &str, row: usize) -> Option<Vec<String>> {
        self.store
            .as_ref()?
            .lock()
            .expect("record store lock")
            .stored_row(section, row)
    }

    fn record_row(&self, section: &str, headers: &[String], row: usize, cells: &[String]) {
        if self.is_degraded() {
            return;
        }
        if let Some(store) = &self.store {
            let result = io_with_retry(|| {
                store
                    .lock()
                    .expect("record store lock")
                    .record_row(section, headers, row, cells)
            });
            if let Err(e) = result {
                self.degrade(&format!("cannot checkpoint row {row} of {section:?}"), &e);
            }
        }
    }

    /// Appends one metrics snapshot to the record store's side stream
    /// (`metrics.jsonl`), when both a hub and a store are attached. Called
    /// at the end of every campaign, so the stream records the hub's
    /// evolution campaign by campaign and a resumed run can replay its
    /// metric history.
    fn checkpoint_metrics(&self) {
        let (Some(hub), Some(store)) = (&self.metrics, &self.store) else {
            return;
        };
        if self.is_degraded() {
            return;
        }
        let snapshot = hub.snapshot();
        let result = io_with_retry(|| {
            store
                .lock()
                .expect("record store lock")
                .record_snapshot(&snapshot)
        });
        if let Err(e) = result {
            self.degrade("cannot checkpoint metrics snapshot", &e);
        }
    }

    /// Reports trials the self-healing campaign quarantined: a stderr
    /// summary always, plus `kind: "quarantine"` JSONL records appended to
    /// `quarantine.jsonl` in the record directory when a store is attached.
    fn report_quarantined(&self, section: &str, entries: &[(usize, &Quarantined)]) {
        use std::io::Write as _;
        if entries.is_empty() {
            return;
        }
        let experiment = self
            .current_id
            .lock()
            .expect("current id lock")
            .to_uppercase();
        for (row, q) in entries {
            eprintln!(
                "warning: quarantined trial {} (seed {}) of {section:?} row {row} after {} attempts: {}",
                q.trial, q.seed, q.attempts, q.error
            );
        }
        let Some(store) = &self.store else {
            return;
        };
        let dir = store.lock().expect("record store lock").dir().to_path_buf();
        let result = io_with_retry(|| {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("quarantine.jsonl"))?;
            for (row, q) in entries {
                let record = quarantine_record(
                    &experiment,
                    &q.error,
                    vec![
                        ("section".into(), section.into()),
                        ("row".into(), (*row).into()),
                        ("trial".into(), q.trial.into()),
                        ("seed".into(), q.seed.into()),
                        ("attempts".into(), Json::UInt(u64::from(q.attempts))),
                    ],
                );
                writeln!(file, "{}", record.render())?;
            }
            file.flush()
        });
        if let Err(e) = result {
            self.degrade("cannot record quarantined trials", &e);
        }
    }
}

/// Runs a fallible I/O operation up to three times with a short backoff,
/// returning the last error if every attempt fails. Transient conditions
/// (NFS hiccup, `ENOSPC` racing a cleanup) get a second chance; persistent
/// ones degrade gracefully at the call sites.
fn io_with_retry(mut op: impl FnMut() -> std::io::Result<()>) -> std::io::Result<()> {
    let mut backoff = std::time::Duration::from_millis(10);
    let mut last = None;
    for attempt in 0..3 {
        match op() {
            Ok(()) => return Ok(()),
            Err(e) => last = Some(e),
        }
        if attempt < 2 {
            std::thread::sleep(backoff);
            backoff *= 5;
        }
    }
    Err(last.expect("three failed attempts leave an error"))
}

/// Shard granularity by scale: quick sweeps have tiny cells, so shards of
/// the default size would serialize them; full sweeps amortize better.
fn default_shard_size(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 4,
        Scale::Full => DEFAULT_SHARD_SIZE,
    }
}

type RenderFn<'a, A> = Box<dyn FnOnce(A) -> Vec<String> + Send + 'a>;
type TrialFn<'a, A> = Box<dyn Fn(u64, &mut A) + Send + Sync + 'a>;

/// One declared campaign cell, before [`RunCtx::run_campaign`] schedules
/// it: a trial count, a seed stream, and the aggregate and trial closures.
struct CellSpec<'a, A> {
    trials: usize,
    seeds: SeedStream,
    make: Box<dyn Fn() -> A + Send + Sync + 'a>,
    run: TrialFn<'a, A>,
}

/// One table's worth of measurements, scheduled as a single campaign.
///
/// Each [`Sweep::row`] is one campaign cell; rows already present in a
/// resumed record store are replayed without scheduling anything. The
/// sweep renders into a [`Table`] whose rows arrive in declaration order.
pub struct Sweep<'ctx, 'a, A: Aggregate> {
    ctx: &'ctx RunCtx,
    section: String,
    headers: Vec<String>,
    cells: Vec<CellSpec<'a, A>>,
    rows: Vec<Option<Vec<String>>>,
    renders: Vec<(usize, Option<RenderFn<'a, A>>)>,
}

impl<'ctx, 'a, A: Aggregate> Sweep<'ctx, 'a, A> {
    /// Declares the next table row: `trials` trials over `seeds`, folded
    /// into the aggregate built by `make` via `run`, rendered to table
    /// cells by `render` once the row's last shard merges.
    pub fn row(
        &mut self,
        trials: usize,
        seeds: SeedStream,
        make: impl Fn() -> A + Send + Sync + 'a,
        run: impl Fn(u64, &mut A) + Send + Sync + 'a,
        render: impl FnOnce(A) -> Vec<String> + Send + 'a,
    ) {
        let row_idx = self.rows.len();
        if let Some(stored) = self.ctx.stored_row(&self.section, row_idx) {
            self.rows.push(Some(stored));
            return;
        }
        self.rows.push(None);
        self.cells.push(CellSpec {
            trials,
            seeds,
            make: Box::new(make),
            run: Box::new(run),
        });
        self.renders.push((row_idx, Some(Box::new(render))));
    }

    /// Runs the campaign and returns the completed table.
    ///
    /// # Panics
    ///
    /// Panics with [`SweepCancelled`] if the context's cancellation token
    /// fired before every row completed (completed rows are already
    /// checkpointed); propagates trial panics.
    #[must_use = "the sweep's table is its output"]
    pub fn run(self) -> Table {
        let Sweep {
            ctx,
            section,
            headers,
            cells,
            mut rows,
            mut renders,
        } = self;
        let outcome = ctx.run_campaign(cells, |cell, acc| {
            let (row_idx, render) = &mut renders[cell];
            let row_idx = *row_idx;
            let render = render.take().expect("each cell delivers once");
            let cells = render(acc);
            ctx.record_row(&section, &headers, row_idx, &cells);
            rows[row_idx] = Some(cells);
        });
        let quarantined: Vec<(usize, &Quarantined)> = outcome
            .quarantined
            .iter()
            .map(|q| (renders[q.cell].0, q))
            .collect();
        ctx.report_quarantined(&section, &quarantined);
        if outcome.cancelled && rows.iter().any(Option::is_none) {
            std::panic::panic_any(SweepCancelled);
        }
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(&header_refs);
        for row in rows {
            let cells = row.expect("uncancelled sweep delivered every row");
            let cell_refs: Vec<&str> = cells.iter().map(String::as_str).collect();
            table.row(&cell_refs);
        }
        table
    }
}

/// How often the progress line is redrawn while a campaign runs.
const TICK: Duration = Duration::from_millis(200);

/// The unified progress channel: one stderr line covering every campaign
/// the context runs, with a cumulative trial rate and an ETA for the
/// trials known so far. Every campaign bumps the same
/// [`CampaignProgress`] counters, so totals accumulate across campaigns,
/// and a ticker thread beside the running campaign redraws the line —
/// nothing sits on the worker pool's path.
///
/// When the run self-heals, the line grows a `heal: rX qY` segment:
/// `r` trials retried and `q` seeds quarantined, cumulative across every
/// campaign the context has run.
pub struct ProgressHub {
    started: Instant,
    label: Mutex<String>,
    counts: Arc<CampaignProgress>,
}

impl ProgressHub {
    fn new() -> Self {
        ProgressHub {
            started: Instant::now(),
            label: Mutex::new(String::new()),
            counts: Arc::default(),
        }
    }

    fn set_label(&self, label: &str) {
        *self.label.lock().expect("label lock") = label.to_string();
    }

    /// Runs `work` beside a scoped ticker thread that redraws the line
    /// every [`TICK`] until `work` returns. A panic in `work` stops the
    /// ticker too before it propagates: the scope joins the ticker first,
    /// so a ticker left running would hang the unwind.
    fn tick_beside<R>(&self, work: impl FnOnce() -> R) -> R {
        let finished = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let ticker = scope.spawn(|| loop {
                std::thread::park_timeout(TICK);
                if finished.load(Ordering::Relaxed) {
                    break;
                }
                self.print_line();
            });
            let result = catch_unwind(AssertUnwindSafe(work));
            finished.store(true, Ordering::Relaxed);
            ticker.thread().unpark();
            result
        })
        .unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// The `heal: rX qY` segment, empty while the run is healthy.
    fn heal_segment(&self) -> String {
        let (r, q) = (self.counts.retried(), self.counts.quarantined());
        if r + q == 0 {
            String::new()
        } else {
            format!("  heal: r{r} q{q}")
        }
    }

    fn finish(&self) {
        let done = self.counts.done();
        let elapsed = self.started.elapsed().as_secs_f64();
        #[allow(clippy::cast_precision_loss)]
        let rate = done as f64 / elapsed.max(1e-9);
        let heal = self.heal_segment();
        eprintln!("\r  done: {done} trials in {elapsed:.1}s ({rate:.0}/s){heal}        ");
    }

    fn print_line(&self) {
        let (done, total) = (self.counts.done(), self.counts.total());
        let label = self.label.lock().expect("label lock").clone();
        let elapsed = self.started.elapsed().as_secs_f64();
        #[allow(clippy::cast_precision_loss)]
        let rate = done as f64 / elapsed.max(1e-9);
        #[allow(clippy::cast_precision_loss)]
        let eta = if rate > 0.0 && total > done {
            (total - done) as f64 / rate
        } else {
            0.0
        };
        let heal = self.heal_segment();
        eprint!("\r  {label}: {done}/{total} trials  {rate:.0}/s  ETA {eta:.0}s{heal}   ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Samples;

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        for seed in 0..20 {
            let s = sample_distinct(100, 50, seed);
            assert_eq!(s.len(), 50);
            let set: std::collections::HashSet<u64> = s.iter().copied().collect();
            assert_eq!(set.len(), 50, "seed {seed}: duplicates");
            assert!(s.iter().all(|&x| x < 100));
        }
    }

    #[test]
    fn sample_distinct_full_universe_is_permutation() {
        let mut s = sample_distinct(10, 10, 3);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        let _ = sample_distinct(5, 6, 0);
    }

    #[test]
    fn sweep_renders_rows_in_declaration_order() {
        let ctx = RunCtx::new(Scale::Quick);
        let mut sweep = ctx.sweep::<Samples>("smoke", &["k", "mean"]);
        for k in 1u64..=3 {
            sweep.row(
                10,
                SeedStream::Offset(100 * k),
                Samples::default,
                move |seed, acc| acc.push(seed % (k + 1)),
                move |acc| vec![k.to_string(), format!("{:.2}", acc.mean())],
            );
        }
        let table = sweep.run();
        assert_eq!(table.rows().len(), 3);
        assert_eq!(table.rows()[0][0], "1");
        assert_eq!(table.rows()[2][0], "3");
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let render_table = |workers: usize| {
            let ctx = RunCtx::new(Scale::Quick).workers(workers);
            let mut sweep = ctx.sweep::<Samples>("smoke", &["k", "mean", "p95"]);
            for k in 1u64..=4 {
                sweep.row(
                    33,
                    SeedStream::Derived(k),
                    Samples::default,
                    move |seed, acc| acc.push(seed.wrapping_mul(k) % 1000),
                    move |s| {
                        vec![
                            k.to_string(),
                            format!("{:.3}", s.mean()),
                            format!("{:.3}", s.percentile(95.0)),
                        ]
                    },
                );
            }
            format!("{}", sweep.run())
        };
        let one = render_table(1);
        for workers in [2, 3, 8] {
            assert_eq!(one, render_table(workers), "{workers} workers diverged");
        }
    }

    #[test]
    fn chaos_seed_is_quarantined_and_sweep_completes() {
        let ctx = RunCtx::new(Scale::Quick).self_heal(2).chaos_panic_seed(105);
        let mut sweep = ctx.sweep::<Samples>("chaos", &["k", "n"]);
        for k in 0u64..2 {
            sweep.row(
                10,
                SeedStream::Offset(100 * (k + 1)),
                Samples::default,
                move |seed, acc| acc.push(seed),
                move |acc| vec![k.to_string(), acc.count().to_string()],
            );
        }
        let table = sweep.run();
        // Row 0 covers seeds 100..110 and loses exactly the poisoned one;
        // row 1 (seeds 200..210) is untouched.
        assert_eq!(table.rows()[0][1], "9");
        assert_eq!(table.rows()[1][1], "10");
        assert!(!ctx.is_degraded());
    }

    // The seed-naming message is printed by the worker thread; the scope
    // re-panics with its own payload, so only the panic itself is asserted.
    #[test]
    #[should_panic]
    fn chaos_seed_without_self_heal_stays_loud() {
        let ctx = RunCtx::new(Scale::Quick).workers(1).chaos_panic_seed(105);
        let mut sweep = ctx.sweep::<Samples>("chaos", &["n"]);
        sweep.row(
            10,
            SeedStream::Offset(100),
            Samples::default,
            |seed, acc| acc.push(seed),
            |acc| vec![acc.count().to_string()],
        );
        let _ = sweep.run();
    }

    #[test]
    fn self_heal_keeps_panic_free_sweeps_bit_identical() {
        let render = |heal: bool| {
            let ctx = RunCtx::new(Scale::Quick);
            let ctx = if heal { ctx.self_heal(2) } else { ctx };
            let mut sweep = ctx.sweep::<Samples>("same", &["mean", "p95"]);
            sweep.row(
                40,
                SeedStream::Derived(7),
                Samples::default,
                |seed, acc| acc.push(seed % 977),
                |s| {
                    vec![
                        format!("{:.6}", s.mean()),
                        format!("{:.6}", s.percentile(95.0)),
                    ]
                },
            );
            format!("{}", sweep.run())
        };
        assert_eq!(render(false), render(true));
    }

    #[test]
    fn checkpoint_failure_degrades_instead_of_panicking() {
        // A store whose directory is swept away mid-run: every write fails,
        // the run keeps going, and the context reports degradation.
        let dir = std::env::temp_dir().join("contention-runner-test-degraded");
        let _ = std::fs::remove_dir_all(&dir);
        let store = RecordStore::create(dir.join("records")).unwrap();
        let ctx = RunCtx::new(Scale::Quick).record_store(store);
        let _ = std::fs::remove_dir_all(&dir);
        ctx.begin_experiment("e99");
        assert!(ctx.is_degraded(), "begin on a dead store must degrade");
        let mut sweep = ctx.sweep::<Samples>("s", &["n"]);
        sweep.row(
            5,
            SeedStream::Offset(0),
            Samples::default,
            |seed, acc| acc.push(seed),
            |acc| vec![acc.count().to_string()],
        );
        let table = sweep.run();
        assert_eq!(table.rows()[0][0], "5", "compute must survive degradation");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_hub_observes_sweeps_without_changing_them() {
        let render = |hub: Option<Arc<MetricsHub>>| {
            let mut ctx = RunCtx::new(Scale::Quick).workers(3);
            if let Some(hub) = hub {
                ctx = ctx.metrics_hub(hub);
            }
            let mut sweep = ctx.sweep::<Samples>("observed", &["k", "mean"]);
            for k in 1u64..=3 {
                sweep.row(
                    20,
                    SeedStream::Derived(k),
                    Samples::default,
                    move |seed, acc| acc.push(seed.wrapping_mul(k) % 503),
                    move |acc| vec![k.to_string(), format!("{:.4}", acc.mean())],
                );
            }
            format!("{}", sweep.run())
        };
        let bare = render(None);
        let hub = Arc::new(MetricsHub::new(3));
        let observed = render(Some(hub.clone()));
        assert_eq!(bare, observed, "attaching the hub changed the table");
        let snapshot = hub.snapshot();
        assert_eq!(snapshot.registry.counter("campaign_trials_done_total"), 60);
        assert_eq!(
            snapshot.registry.counter("campaign_cells_delivered_total"),
            3
        );
    }

    #[test]
    fn sweep_checkpoints_a_metrics_snapshot_per_run() {
        let dir = std::env::temp_dir().join("contention-runner-test-metrics");
        let _ = std::fs::remove_dir_all(&dir);
        let hub = Arc::new(MetricsHub::new(2));
        let store = RecordStore::create(&dir).unwrap();
        let metrics_path = store.metrics_path();
        let ctx = RunCtx::new(Scale::Quick)
            .workers(2)
            .metrics_hub(hub.clone())
            .record_store(store);
        ctx.begin_experiment("e1");
        for pass in 0..2u64 {
            let mut sweep = ctx.sweep::<Samples>(format!("pass{pass}"), &["n"]);
            sweep.row(
                8,
                SeedStream::Offset(100 * pass),
                Samples::default,
                |seed, acc| acc.push(seed),
                |acc| vec![acc.count().to_string()],
            );
            let _ = sweep.run();
        }
        let text = std::fs::read_to_string(&metrics_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "one snapshot per finished sweep");
        for (i, line) in lines.iter().enumerate() {
            let snap = mac_sim::MetricsSnapshot::from_json(&Json::parse(line).unwrap()).unwrap();
            assert_eq!(snap.seq, i as u64, "snapshots are numbered in order");
        }
        let last = mac_sim::MetricsSnapshot::from_json(&Json::parse(lines[1]).unwrap()).unwrap();
        assert_eq!(last.registry.counter("campaign_trials_done_total"), 16);
        assert!(!ctx.is_degraded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_returns_seed_ordered_results_for_every_worker_count() {
        for workers in [1, 2, 3] {
            let ctx = RunCtx::new(Scale::Quick).workers(workers);
            assert_eq!(
                ctx.trials("batch", 10, 5, |seed| seed),
                (5..15).collect::<Vec<u64>>(),
                "{workers} workers"
            );
        }
        assert!(RunCtx::new(Scale::Quick)
            .trials("empty", 0, 5, |seed| seed)
            .is_empty());
    }

    #[test]
    fn batch_quarantines_the_chaos_seed() {
        let ctx = RunCtx::new(Scale::Quick).self_heal(2).chaos_panic_seed(105);
        let seeds = ctx.trials("chaos", 10, 100, |seed| seed);
        let expected: Vec<u64> = (100..110).filter(|&seed| seed != 105).collect();
        assert_eq!(seeds, expected);
    }

    #[test]
    fn progress_hub_renders_heal_state_only_when_unhealthy() {
        let ctx = RunCtx::new(Scale::Quick)
            .progress()
            .self_heal(2)
            .chaos_panic_seed(105);
        let hub = ctx.hub.as_ref().expect("progress attached");
        assert_eq!(hub.heal_segment(), "");
        let _ = ctx.trials("chaos", 10, 100, |seed| seed);
        assert_eq!((hub.counts.done(), hub.counts.total()), (10, 10));
        assert_eq!(hub.heal_segment(), "  heal: r1 q1");
    }

    #[test]
    fn cell_parsers_round_trip() {
        assert!((cell_f64("1.25") - 1.25).abs() < 1e-12);
        assert!((cell_f64("37%") - 37.0).abs() < 1e-12);
        assert_eq!(cell_u64(" 42 "), 42);
    }

    #[test]
    #[should_panic(expected = "is not numeric")]
    fn cell_f64_rejects_labels() {
        let _ = cell_f64("2^10");
    }
}
