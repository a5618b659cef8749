//! The campaign layer: one work-stealing worker pool for a whole sweep.
//!
//! The [`trials`](crate::trials) layer fans one cell's trials over threads;
//! a *campaign* schedules **all cells of a sweep at once**. Worker threads
//! are spawned once per campaign and steal seed-sharded trial chunks from a
//! single global queue, so a cell with slow trials cannot strand idle cores
//! while the next cell waits — the pool stays saturated across the whole
//! sweep instead of draining and refilling at every grid point.
//!
//! Results stream: every trial folds into a per-shard [`Aggregate`]
//! (`O(1)`-ish memory), shard aggregates merge **in shard-index order**,
//! and completed cells are delivered **in cell order** through a callback.
//! Because the shard decomposition is a pure function of `(trials,
//! shard_size)` and the merge order is fixed, the output is bit-identical
//! for every worker count — even for aggregates whose merge is not exactly
//! associative. The deterministic-merge contract is what lets the harness
//! checkpoint cells to disk and resume a killed sweep bit-identically.
//!
//! Cooperative cancellation rides on a [`CancelToken`] (flag or deadline),
//! checked between trials: a cancelled campaign stops claiming work,
//! delivers the in-order prefix of completed cells, and reports how far it
//! got. Progress is counted in a shared [`CampaignProgress`], giving one ETA
//! for the whole sweep instead of a garbled line per cell.
//!
//! ## Self-healing
//!
//! By default a panicking trial propagates and kills the sweep (a failed
//! trial is an experiment bug, not a data point). Long campaigns can opt
//! into *self-healing* with [`Campaign::self_heal`]: each trial then runs
//! under `catch_unwind` into a fresh aggregate that is merged in only on
//! success, panicking trials are retried up to a bounded attempt count,
//! and trials that fail every attempt are **quarantined** — the sweep
//! completes without them and reports each [`Quarantined`] trial in the
//! [`CampaignOutcome`]. A trial that never returns is not healed: it
//! blocks campaign exit, so bound a run with a [`CancelToken`] deadline,
//! kill a wedged process, and let the harness checkpoint/resume layer
//! recover the sweep.
//!
//! ```
//! use mac_sim::campaign::{Campaign, Cell, Collect, SeedStream};
//!
//! let mut campaign = Campaign::new();
//! for k in 1u64..=3 {
//!     campaign.push(Cell::new(
//!         4,
//!         SeedStream::Offset(100 * k),
//!         Collect::default,
//!         move |seed, acc: &mut Collect<u64>| acc.0.push(seed * k),
//!     ));
//! }
//! let mut rows = Vec::new();
//! let outcome = campaign.run(|cell, acc| rows.push((cell, acc.0)));
//! assert_eq!(outcome.cells_delivered, 3);
//! assert_eq!(rows[0], (0, vec![100, 101, 102, 103]));
//! ```

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::obs::telemetry::{Counter, Gauge, Histogram, MetricsHub, PowHistogram, Registry};
use crate::rng::derive_stream_seed;

/// Name prefix of campaign worker threads (`campaign-worker-0`, …), so a
/// panic hook can tell a trial panic on a worker from any other panic.
pub const WORKER_THREAD_PREFIX: &str = "campaign-worker-";

/// Extracts a human-readable message from a panic payload (the `Box<dyn
/// Any>` that [`std::panic::catch_unwind`] returns), for the
/// [`Quarantined::error`] of a self-healing campaign.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A streaming accumulator for trial results.
///
/// Shard aggregates are merged in shard-index order, so implementations
/// need not be exactly associative for campaign output to be deterministic
/// — but associative, commutative merges (exact integer moments, counters,
/// canonical histograms) additionally make the result independent of the
/// shard decomposition itself, which is what the resume layer relies on.
pub trait Aggregate: Send {
    /// Folds `other` — the aggregate of the *next* shard in seed order —
    /// into `self`.
    fn merge(&mut self, other: Self);
}

/// The simplest aggregate: collect every extracted value in seed order.
///
/// `merge` appends, and shards merge in seed order, so the final vector is
/// ordered exactly as the sequential loop would produce it. This is the
/// bridge that lets the [`trials`](crate::trials) layer (and tests that
/// want full sample vectors) run on the campaign pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collect<T>(pub Vec<T>);

impl<T> Default for Collect<T> {
    fn default() -> Self {
        Collect(Vec::new())
    }
}

impl<T: Send> Aggregate for Collect<T> {
    fn merge(&mut self, other: Self) {
        self.0.extend(other.0);
    }
}

/// Unit aggregate for cells run purely for their side effects on shared
/// state (rare; prefer a real aggregate).
impl Aggregate for () {
    fn merge(&mut self, (): Self) {}
}

/// A plain counter: merge adds.
impl Aggregate for u64 {
    fn merge(&mut self, other: Self) {
        *self += other;
    }
}

/// A running sum. Floating-point addition is not associative, but the
/// campaign merges shards in a fixed order, so the result is still
/// bit-identical for every worker count.
impl Aggregate for f64 {
    fn merge(&mut self, other: Self) {
        *self += other;
    }
}

/// Power-of-two histograms merge exactly (integer bucket counts, min/max,
/// sum), so traffic latency distributions aggregated across shards are
/// independent of the shard decomposition — the property the E21 tables'
/// worker-count invariance rests on.
impl Aggregate for PowHistogram {
    fn merge(&mut self, other: Self) {
        PowHistogram::merge(self, &other);
    }
}

/// Element-wise merge; `other` may be longer (its tail is appended), which
/// lets cells grow a per-phase vector lazily.
impl<A: Aggregate> Aggregate for Vec<A> {
    fn merge(&mut self, other: Self) {
        let mut other = other.into_iter();
        for slot in self.iter_mut() {
            let Some(elem) = other.next() else { return };
            slot.merge(elem);
        }
        self.extend(other);
    }
}

macro_rules! tuple_aggregate {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Aggregate),+> Aggregate for ($($name,)+) {
            fn merge(&mut self, other: Self) {
                $(self.$idx.merge(other.$idx);)+
            }
        }
    };
}
tuple_aggregate!(A0: 0);
tuple_aggregate!(A0: 0, A1: 1);
tuple_aggregate!(A0: 0, A1: 1, A2: 2);
tuple_aggregate!(A0: 0, A1: 1, A2: 2, A3: 3);

/// How a cell maps trial indices to engine seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedStream {
    /// Trial `i` runs at seed `base + i` (wrapping). The historical trial
    /// layer convention — existing experiment tables were recorded under
    /// it, so migrated sweeps keep their numbers.
    Offset(u64),
    /// Trial `i` runs at [`derive_stream_seed`]`(master, i)`: audited
    /// SplitMix64 expansion, decorrelated even across near-identical
    /// masters. The right choice for new sweeps and shard seeding.
    Derived(u64),
}

impl SeedStream {
    /// The engine seed for trial `trial`.
    #[must_use]
    pub fn seed(&self, trial: u64) -> u64 {
        match *self {
            SeedStream::Offset(base) => base.wrapping_add(trial),
            SeedStream::Derived(master) => derive_stream_seed(master, trial),
        }
    }
}

/// The boxed trial closure of a [`Cell`]: runs the trial at one engine
/// seed and folds the result into the shard aggregate.
type TrialFn<'a, A> = Box<dyn Fn(u64, &mut A) + Send + Sync + 'a>;

/// One grid point of a sweep: a trial count, a seed stream, and the two
/// closures the pool needs — `make` builds an empty aggregate, `run`
/// executes the trial at one seed and folds the result in.
pub struct Cell<'a, A> {
    trials: usize,
    seeds: SeedStream,
    make: Box<dyn Fn() -> A + Send + Sync + 'a>,
    run: TrialFn<'a, A>,
}

impl<'a, A> Cell<'a, A> {
    /// Builds a cell. The closures may borrow from the caller: the pool
    /// runs on scoped threads, so nothing needs `'static`.
    pub fn new(
        trials: usize,
        seeds: SeedStream,
        make: impl Fn() -> A + Send + Sync + 'a,
        run: impl Fn(u64, &mut A) + Send + Sync + 'a,
    ) -> Self {
        Cell {
            trials,
            seeds,
            make: Box::new(make),
            run: Box::new(run),
        }
    }

    /// The cell's trial count.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.trials
    }
}

/// A cooperative cancellation handle: flips on [`CancelToken::cancel`] or
/// when a deadline passes. Checked between trials; an in-flight trial is
/// never interrupted.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

struct CancelInner {
    flag: AtomicBool,
    /// The clock origin the deadline is measured from.
    base: Instant,
    /// The deadline in nanoseconds past `base`; [`NO_DEADLINE`] when none
    /// is armed. An atomic, so the per-trial check takes no lock.
    deadline_ns: AtomicU64,
}

const NO_DEADLINE: u64 = u64::MAX;

impl Default for CancelInner {
    fn default() -> Self {
        CancelInner {
            flag: AtomicBool::new(false),
            base: Instant::now(),
            deadline_ns: AtomicU64::new(NO_DEADLINE),
        }
    }
}

impl CancelToken {
    /// A token that never fires until [`CancelToken::cancel`] is called.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Relaxed);
    }

    /// Arms a deadline `timeout` from now; the token reports cancelled
    /// once the deadline passes. A deadline past the clock's range never
    /// fires.
    pub fn set_deadline(&self, timeout: Duration) {
        // A deadline beyond `u64` nanoseconds (~584 years) is as good as
        // none.
        let ns = self
            .inner
            .base
            .elapsed()
            .checked_add(timeout)
            .and_then(|at| u64::try_from(at.as_nanos()).ok())
            .unwrap_or(NO_DEADLINE);
        self.inner.deadline_ns.store(ns, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested or the deadline passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Relaxed) {
            return true;
        }
        let at = self.inner.deadline_ns.load(Ordering::Relaxed);
        if at != NO_DEADLINE && self.inner.base.elapsed().as_nanos() >= u128::from(at) {
            self.inner.flag.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// Live progress counters: trials scheduled, trials finished, retries and
/// quarantines. Workers bump them with relaxed atomic adds as trials
/// finish, and a reader polls them on its own schedule, so nothing on the
/// worker path ever waits for the reader. Campaigns that share one
/// `CampaignProgress` accumulate into it.
#[derive(Debug, Default)]
pub struct CampaignProgress {
    total: AtomicU64,
    done: AtomicU64,
    retried: AtomicU64,
    quarantined: AtomicU64,
}

impl CampaignProgress {
    /// Trials in every campaign started so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Trials finished so far, quarantined ones included.
    #[must_use]
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Panicked trial attempts that self-healing re-ran.
    #[must_use]
    pub fn retried(&self) -> u64 {
        self.retried.load(Ordering::Relaxed)
    }

    /// Trials that failed every self-healing attempt.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }
}

/// One trial that failed every self-healing attempt and was excluded from
/// its cell's aggregate (see [`Campaign::self_heal`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Index of the cell the trial belonged to.
    pub cell: usize,
    /// Trial index within the cell.
    pub trial: u64,
    /// The engine seed the trial ran at.
    pub seed: u64,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// The last attempt's panic message.
    pub error: String,
}

/// What a finished (or cancelled) campaign reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// Cells delivered to the callback — always the in-order prefix
    /// `0..cells_delivered`.
    pub cells_delivered: usize,
    /// Whether the campaign stopped on a [`CancelToken`].
    pub cancelled: bool,
    /// Trials excluded by self-healing, sorted by `(cell, trial)`. Always
    /// empty unless [`Campaign::self_heal`] was enabled.
    pub quarantined: Vec<Quarantined>,
}

/// A sweep scheduled as one unit: cells × trials, one worker pool.
pub struct Campaign<'a, A> {
    cells: Vec<Cell<'a, A>>,
    shard_size: usize,
    workers: Option<usize>,
    cancel: Option<CancelToken>,
    progress: Option<Arc<CampaignProgress>>,
    telemetry: Option<Arc<MetricsHub>>,
    heal_attempts: Option<u32>,
}

/// Default trials per shard: small enough to load-balance sweeps whose
/// cells have wildly different per-trial cost, big enough that shard
/// bookkeeping stays noise.
pub const DEFAULT_SHARD_SIZE: usize = 8;

impl<A: Aggregate> Default for Campaign<'_, A> {
    fn default() -> Self {
        Campaign::new()
    }
}

impl<'a, A: Aggregate> Campaign<'a, A> {
    /// An empty campaign with default shard size and worker count.
    #[must_use]
    pub fn new() -> Self {
        Campaign {
            cells: Vec::new(),
            shard_size: DEFAULT_SHARD_SIZE,
            workers: None,
            cancel: None,
            progress: None,
            telemetry: None,
            heal_attempts: None,
        }
    }

    /// Sets the trials-per-shard granularity. The shard decomposition (and
    /// therefore the exact merge bracketing) is a pure function of
    /// `(trials, shard_size)` — never of the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size` is zero.
    #[must_use]
    pub fn shard_size(mut self, shard_size: usize) -> Self {
        assert!(shard_size > 0, "shard size must be positive");
        self.shard_size = shard_size;
        self
    }

    /// Pins the worker count (default: `available_parallelism()`).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "at least one worker is required");
        self.workers = Some(workers);
        self
    }

    /// Attaches a cancellation token.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches progress counters: the campaign adds its trial count to
    /// the total when it starts and bumps the others as trials finish.
    #[must_use]
    pub fn progress(mut self, progress: Arc<CampaignProgress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Attaches a metrics hub. Each worker tallies into a private
    /// [`Registry`] and absorbs it into the hub's shard for its worker
    /// index when it exits, so the hot trial loop never takes a shared
    /// lock; scheduler-level gauges (worker count, queue depth) land in
    /// shard 0 after the pool drains. Purely observational: trial seeds,
    /// shard decomposition, and aggregates are bit-identical with or
    /// without a hub attached.
    #[must_use]
    pub fn telemetry(mut self, hub: Arc<MetricsHub>) -> Self {
        self.telemetry = Some(hub);
        self
    }

    /// Enables self-healing: every trial runs under `catch_unwind` into a
    /// fresh aggregate merged in only on success; a panicking trial is
    /// retried up to `attempts` times in total, then *quarantined* —
    /// excluded from its cell's aggregate and reported in
    /// [`CampaignOutcome::quarantined`] — instead of killing the sweep.
    ///
    /// The fresh-aggregate-then-merge fold is exactly equivalent to the
    /// direct fold for associative aggregates (all the integer-moment,
    /// counter, and collect aggregates the harness uses), so enabling
    /// self-healing does not change panic-free results.
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    #[must_use]
    pub fn self_heal(mut self, attempts: u32) -> Self {
        assert!(attempts >= 1, "self-healing needs at least one attempt");
        self.heal_attempts = Some(attempts);
        self
    }

    /// Appends a cell; returns its index (= delivery order).
    pub fn push(&mut self, cell: Cell<'a, A>) -> usize {
        self.cells.push(cell);
        self.cells.len() - 1
    }

    /// Number of cells queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Runs the campaign: spawns the pool once, streams every finished
    /// cell's aggregate to `on_cell(cell_index, aggregate)` **in cell
    /// order**, and returns the outcome.
    ///
    /// # Panics
    ///
    /// Propagates panics from cell closures (a failed trial is an
    /// experiment bug, not a data point) — unless [`Campaign::self_heal`]
    /// is enabled, in which case failing trials are quarantined instead.
    pub fn run<F>(self, on_cell: F) -> CampaignOutcome
    where
        F: FnMut(usize, A) + Send,
    {
        let Campaign {
            cells,
            shard_size,
            workers,
            cancel,
            progress,
            telemetry,
            heal_attempts,
        } = self;

        // The fixed shard decomposition: every cell's trial range cut into
        // `shard_size` chunks, queued cell-major.
        struct Shard {
            cell: usize,
            index: usize,
            start: u64,
            len: u64,
        }
        let mut shards = Vec::new();
        let mut shard_counts = vec![0usize; cells.len()];
        for (cell_idx, cell) in cells.iter().enumerate() {
            let count = cell.trials.div_ceil(shard_size);
            shard_counts[cell_idx] = count;
            for index in 0..count {
                let start = (index * shard_size) as u64;
                let len = (cell.trials - index * shard_size).min(shard_size) as u64;
                shards.push(Shard {
                    cell: cell_idx,
                    index,
                    start,
                    len,
                });
            }
        }
        let total_trials: u64 = cells.iter().map(|c| c.trials as u64).sum();

        // Per-cell ordered-merge state.
        struct Merging<A> {
            next_shard: usize,
            pending: BTreeMap<usize, A>,
            acc: Option<A>,
        }
        let merging: Vec<Mutex<Merging<A>>> = cells
            .iter()
            .map(|_| {
                Mutex::new(Merging {
                    next_shard: 0,
                    pending: BTreeMap::new(),
                    acc: None,
                })
            })
            .collect();

        // In-cell-order delivery state: cells `0..next_cell` are delivered.
        struct Delivery<A, F> {
            next_cell: usize,
            ready: BTreeMap<usize, A>,
            on_cell: F,
        }
        let delivery = Mutex::new(Delivery {
            next_cell: 0,
            ready: BTreeMap::new(),
            on_cell,
        });

        let next_shard = AtomicUsize::new(0);
        let quarantined: Mutex<Vec<Quarantined>> = Mutex::new(Vec::new());

        let progress = progress.as_deref();
        if let Some(progress) = progress {
            progress.total.fetch_add(total_trials, Ordering::Relaxed);
        }

        let deliver = |cell_idx: usize, acc: A| {
            let mut delivery = delivery.lock().expect("delivery lock");
            delivery.ready.insert(cell_idx, acc);
            loop {
                let cell = delivery.next_cell;
                let Some(acc) = delivery.ready.remove(&cell) else {
                    break;
                };
                (delivery.on_cell)(cell, acc);
                delivery.next_cell += 1;
            }
        };

        let submit = |cell_idx: usize, shard_index: usize, agg: A| {
            let mut state = merging[cell_idx].lock().expect("merge lock");
            state.pending.insert(shard_index, agg);
            while let Some(agg) = {
                let key = state.next_shard;
                state.pending.remove(&key)
            } {
                match state.acc.as_mut() {
                    Some(acc) => acc.merge(agg),
                    None => state.acc = Some(agg),
                }
                state.next_shard += 1;
            }
            if state.next_shard == shard_counts[cell_idx] {
                let acc = state.acc.take().expect("completed cell has an aggregate");
                drop(state);
                deliver(cell_idx, acc);
            }
        };

        // Zero-trial cells complete immediately with an empty aggregate;
        // no shard will ever submit to them.
        for (cell_idx, cell) in cells.iter().enumerate() {
            if shard_counts[cell_idx] == 0 {
                deliver(cell_idx, (cell.make)());
            }
        }

        let worker_count = workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
            })
            .min(shards.len().max(1));

        let cancelled = || cancel.as_ref().is_some_and(CancelToken::is_cancelled);

        std::thread::scope(|scope| {
            for worker_idx in 0..worker_count {
                let quarantined = &quarantined;
                let cells = &cells;
                let shards = &shards;
                let next_shard = &next_shard;
                let telemetry = &telemetry;
                let submit = &submit;
                let cancelled = &cancelled;
                let worker =
                    std::thread::Builder::new().name(format!("{WORKER_THREAD_PREFIX}{worker_idx}"));
                let spawned = worker.spawn_scoped(scope, move || {
                    // Worker-private tallies; absorbed into the hub only
                    // once, at worker exit, so the trial loop stays
                    // lock-free with respect to other workers.
                    let mut local = Registry::new();
                    loop {
                        if cancelled() {
                            break;
                        }
                        let claim = next_shard.fetch_add(1, Ordering::Relaxed);
                        let Some(shard) = shards.get(claim) else {
                            break;
                        };
                        let shard_started = Instant::now();
                        let cell = &cells[shard.cell];
                        let mut agg = (cell.make)();
                        let mut abandoned = false;
                        for trial in shard.start..shard.start + shard.len {
                            if trial != shard.start && cancelled() {
                                abandoned = true;
                                break;
                            }
                            let seed = cell.seeds.seed(trial);
                            match heal_attempts {
                                None => (cell.run)(seed, &mut agg),
                                Some(max_attempts) => {
                                    // Healed trials fold into a fresh
                                    // aggregate merged in on success, so a
                                    // mid-mutation panic cannot tear the
                                    // shard aggregate.
                                    let mut attempt = 0;
                                    loop {
                                        attempt += 1;
                                        let one = catch_unwind(AssertUnwindSafe(|| {
                                            let mut one = (cell.make)();
                                            (cell.run)(seed, &mut one);
                                            one
                                        }));
                                        match one {
                                            Ok(one) => {
                                                agg.merge(one);
                                                break;
                                            }
                                            Err(payload) if attempt >= max_attempts => {
                                                quarantined.lock().expect("quarantine lock").push(
                                                    Quarantined {
                                                        cell: shard.cell,
                                                        trial,
                                                        seed,
                                                        attempts: attempt,
                                                        error: panic_message(payload.as_ref()),
                                                    },
                                                );
                                                if let Some(progress) = progress {
                                                    progress
                                                        .quarantined
                                                        .fetch_add(1, Ordering::Relaxed);
                                                }
                                                local.count(Counter::CampaignTrialsQuarantined, 1);
                                                break;
                                            }
                                            Err(_) => {
                                                if let Some(progress) = progress {
                                                    progress
                                                        .retried
                                                        .fetch_add(1, Ordering::Relaxed);
                                                }
                                                local.count(Counter::CampaignTrialsRetried, 1);
                                            }
                                        }
                                    }
                                }
                            }
                            if let Some(progress) = progress {
                                progress.done.fetch_add(1, Ordering::Relaxed);
                            }
                            local.count(Counter::CampaignTrialsDone, 1);
                        }
                        let shard_ns =
                            u64::try_from(shard_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        local.count(Counter::CampaignShardsClaimed, 1);
                        local.count(Counter::CampaignWorkerBusyNs, shard_ns);
                        local.observe(Histogram::CampaignShardWallNs, shard_ns);
                        if abandoned {
                            break;
                        }
                        submit(shard.cell, shard.index, agg);
                    }
                    if let Some(hub) = telemetry {
                        hub.absorb(worker_idx, &local);
                    }
                });
                spawned.expect("spawn a campaign worker thread");
            }
        });

        let delivery = delivery.into_inner().expect("delivery lock");
        let mut quarantined = quarantined.into_inner().expect("quarantine lock");
        quarantined.sort_by_key(|q| (q.cell, q.trial));
        let was_cancelled = cancelled();

        // Scheduler-level tallies that only exist once per campaign land
        // in shard 0 after the pool drains (the workers' own shards hold
        // the per-worker trial/shard counters).
        if let Some(hub) = &telemetry {
            let mut tail = Registry::new();
            tail.gauge_max(Gauge::CampaignWorkers, worker_count as u64);
            tail.gauge_max(Gauge::CampaignCellsTotal, cells.len() as u64);
            tail.gauge_max(Gauge::CampaignShardsTotal, shards.len() as u64);
            tail.gauge_max(
                Gauge::CampaignQueueDepth,
                shards.len().saturating_sub(next_shard.into_inner()) as u64,
            );
            tail.count(Counter::CampaignCellsDelivered, delivery.next_cell as u64);
            if was_cancelled {
                tail.count(Counter::CampaignCancelled, 1);
            }
            hub.absorb(0, &tail);
        }

        CampaignOutcome {
            cells_delivered: delivery.next_cell,
            cancelled: was_cancelled,
            quarantined,
        }
    }

    /// Runs the campaign and collects every cell's aggregate in cell
    /// order. Convenience for callers without streaming needs (tests and
    /// the trial layer).
    ///
    /// # Panics
    ///
    /// Panics if the campaign was cancelled before every cell completed.
    #[must_use]
    pub fn run_collect(self) -> Vec<A> {
        let total = self.len();
        let mut out: Vec<Option<A>> = (0..total).map(|_| None).collect();
        let outcome = self.run(|cell, acc| out[cell] = Some(acc));
        assert!(
            outcome.cells_delivered == total,
            "campaign cancelled after {} of {total} cells",
            outcome.cells_delivered
        );
        out.into_iter().map(|c| c.expect("delivered")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic "workload": collatz-ish step count, varies by seed.
    fn work(seed: u64) -> u64 {
        let mut x = seed | 1;
        let mut steps = 0u64;
        while x != 1 && steps < 200 {
            x = if x.is_multiple_of(2) {
                x / 2
            } else {
                3 * x + 1
            };
            steps += 1;
        }
        steps
    }

    fn sum_campaign(cells: usize, trials: usize) -> Campaign<'static, Collect<u64>> {
        let mut campaign = Campaign::new();
        for c in 0..cells {
            campaign.push(Cell::new(
                trials,
                SeedStream::Offset(1000 * c as u64),
                Collect::default,
                |seed, acc: &mut Collect<u64>| acc.0.push(work(seed)),
            ));
        }
        campaign
    }

    #[test]
    fn cells_deliver_in_order_with_seed_ordered_contents() {
        let mut order = Vec::new();
        let outcome = sum_campaign(5, 20).run(|cell, acc| {
            assert_eq!(acc.0.len(), 20);
            let expect: Vec<u64> = (0..20).map(|i| work(1000 * cell as u64 + i)).collect();
            assert_eq!(acc.0, expect, "cell {cell} is not in seed order");
            order.push(cell);
        });
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(outcome.cells_delivered, 5);
        assert!(!outcome.cancelled);
    }

    #[test]
    fn output_is_worker_count_invariant() {
        let collect = |workers: usize| -> Vec<Vec<u64>> {
            sum_campaign(3, 17)
                .workers(workers)
                .shard_size(4)
                .run_collect()
                .into_iter()
                .map(|c| c.0)
                .collect()
        };
        let one = collect(1);
        for workers in [2, 3, 8, 32] {
            assert_eq!(one, collect(workers), "{workers} workers diverged");
        }
    }

    #[test]
    fn shard_size_does_not_change_collected_output() {
        let collect = |shard: usize| {
            sum_campaign(2, 23)
                .shard_size(shard)
                .run_collect()
                .into_iter()
                .map(|c| c.0)
                .collect::<Vec<_>>()
        };
        let baseline = collect(1);
        for shard in [2, 5, 23, 100] {
            assert_eq!(baseline, collect(shard));
        }
    }

    #[test]
    fn cancellation_delivers_a_prefix() {
        let token = CancelToken::new();
        token.cancel();
        let mut delivered = Vec::new();
        let outcome = sum_campaign(4, 50)
            .cancel_token(token)
            .run(|cell, _| delivered.push(cell));
        assert!(outcome.cancelled);
        assert!(outcome.cells_delivered <= 4);
        let expect: Vec<usize> = (0..outcome.cells_delivered).collect();
        assert_eq!(delivered, expect, "delivery is not an in-order prefix");
    }

    #[test]
    fn deadline_cancels() {
        let token = CancelToken::new();
        token.set_deadline(Duration::from_secs(0));
        assert!(token.is_cancelled());
    }

    #[test]
    fn deadline_past_the_clock_range_never_fires() {
        let token = CancelToken::new();
        token.set_deadline(Duration::MAX);
        assert!(!token.is_cancelled());
    }

    #[test]
    fn zero_trial_cells_complete_empty() {
        let mut campaign: Campaign<Collect<u64>> = Campaign::new();
        campaign.push(Cell::new(
            0,
            SeedStream::Offset(0),
            Collect::default,
            |_, _| panic!("no trials to run"),
        ));
        let cells = campaign.run_collect();
        assert_eq!(cells.len(), 1);
        assert!(cells[0].0.is_empty());
    }

    #[test]
    fn empty_campaign_returns_clean_outcome() {
        // A campaign with no cells at all must complete cleanly, not
        // panic: zero cells, zero trials, nothing delivered, not
        // cancelled.
        let campaign: Campaign<Collect<u64>> = Campaign::new();
        assert!(campaign.is_empty());
        let mut delivered = 0usize;
        let outcome = campaign.run(|_, _| delivered += 1);
        assert_eq!(delivered, 0);
        assert_eq!(
            outcome,
            CampaignOutcome {
                cells_delivered: 0,
                cancelled: false,
                quarantined: Vec::new(),
            }
        );
        // run_collect on an empty campaign is an empty vector.
        let campaign: Campaign<Collect<u64>> = Campaign::new();
        assert!(campaign.run_collect().is_empty());
    }

    #[test]
    fn self_heal_quarantines_deterministic_panics() {
        let poison = 1005u64;
        let mut campaign: Campaign<Collect<u64>> = Campaign::new().self_heal(2).shard_size(3);
        for c in 0..2u64 {
            campaign.push(Cell::new(
                10,
                SeedStream::Offset(1000 * (c + 1)),
                Collect::default,
                move |seed, acc: &mut Collect<u64>| {
                    assert!(seed != poison, "poisoned seed {seed}");
                    acc.0.push(work(seed));
                },
            ));
        }
        let mut rows = Vec::new();
        let outcome = campaign.run(|cell, acc| rows.push((cell, acc.0)));
        assert_eq!(outcome.cells_delivered, 2, "sweep completes");
        assert!(!outcome.cancelled);
        assert_eq!(outcome.quarantined.len(), 1, "one trial quarantined");
        let q = &outcome.quarantined[0];
        assert_eq!((q.cell, q.trial, q.seed, q.attempts), (0, 5, poison, 2));
        assert!(q.error.contains("poisoned seed 1005"), "{}", q.error);
        // The poisoned cell's aggregate holds the other nine trials, in
        // seed order; the healthy cell is untouched.
        let expect0: Vec<u64> = (1000..1010).filter(|&s| s != poison).map(work).collect();
        let expect1: Vec<u64> = (2000..2010).map(work).collect();
        assert_eq!(rows, vec![(0, expect0), (1, expect1)]);
    }

    #[test]
    fn self_heal_retries_transient_panics() {
        let failures = AtomicU64::new(2);
        let mut campaign: Campaign<Collect<u64>> = Campaign::new().self_heal(3);
        campaign.push(Cell::new(
            4,
            SeedStream::Offset(0),
            Collect::default,
            |seed, acc: &mut Collect<u64>| {
                if seed == 2 && failures.load(Ordering::Relaxed) > 0 {
                    failures.fetch_sub(1, Ordering::Relaxed);
                    panic!("transient");
                }
                acc.0.push(seed);
            },
        ));
        let mut rows = Vec::new();
        let outcome = campaign.run(|_, acc| rows.push(acc.0));
        assert!(outcome.quarantined.is_empty(), "retry healed the trial");
        assert_eq!(rows, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn self_heal_is_bit_identical_on_panic_free_sweeps() {
        let plain: Vec<Vec<u64>> = sum_campaign(3, 17)
            .shard_size(4)
            .run_collect()
            .into_iter()
            .map(|c| c.0)
            .collect();
        let healed: Vec<Vec<u64>> = sum_campaign(3, 17)
            .shard_size(4)
            .self_heal(2)
            .run_collect()
            .into_iter()
            .map(|c| c.0)
            .collect();
        assert_eq!(plain, healed);
    }

    #[test]
    fn panic_message_extracts_common_payloads() {
        let caught = catch_unwind(|| panic!("plain literal")).expect_err("panics");
        assert_eq!(panic_message(caught.as_ref()), "plain literal");
        let caught = catch_unwind(|| panic!("formatted {}", 7)).expect_err("panics");
        assert_eq!(panic_message(caught.as_ref()), "formatted 7");
        let caught = catch_unwind(|| std::panic::panic_any(42i32)).expect_err("panics");
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }

    #[test]
    fn derived_seed_stream_uses_the_audited_helper() {
        let s = SeedStream::Derived(42);
        assert_eq!(s.seed(0), derive_stream_seed(42, 0));
        assert_eq!(s.seed(9), derive_stream_seed(42, 9));
        let o = SeedStream::Offset(u64::MAX);
        assert_eq!(o.seed(1), 0, "offset streams wrap");
    }

    #[test]
    fn scalar_and_tuple_aggregates_merge() {
        let mut campaign: Campaign<(u64, f64, Vec<u64>)> = Campaign::new().shard_size(3);
        campaign.push(Cell::new(
            10,
            SeedStream::Offset(0),
            <(u64, f64, Vec<u64>)>::default,
            |seed, acc| {
                acc.0 += seed;
                acc.1 += 0.5;
                if acc.2.is_empty() {
                    acc.2.push(0);
                }
                acc.2[0] += 1;
            },
        ));
        let (count, half, v) = campaign.run_collect().remove(0);
        assert_eq!(count, 45);
        assert!((half - 5.0).abs() < 1e-12);
        assert_eq!(v, vec![10]);
    }

    #[test]
    fn progress_reports_every_trial_and_cell() {
        // Every delivered cell's trials are already counted as done, and
        // the total covers the whole campaign from the first delivery on.
        let progress = Arc::new(CampaignProgress::default());
        let mut cells = 0u64;
        sum_campaign(3, 4)
            .workers(2)
            .progress(progress.clone())
            .run(|_, _| {
                cells += 1;
                assert_eq!(progress.total(), 12);
                assert!(progress.done() >= 4 * cells);
            });
        assert_eq!(cells, 3);
        assert_eq!((progress.done(), progress.total()), (12, 12));
        assert_eq!((progress.retried(), progress.quarantined()), (0, 0));
    }

    #[test]
    fn progress_reports_retries_quarantines_and_running_totals() {
        let progress = Arc::new(CampaignProgress::default());
        sum_campaign(3, 4).progress(progress.clone()).run(|_, _| {});
        assert_eq!((progress.done(), progress.total()), (12, 12));

        // Seed 3 fails both attempts: attempt 1 is a retry, attempt 2
        // quarantines. The counters accumulate across both campaigns.
        let mut campaign: Campaign<Collect<u64>> = Campaign::new().self_heal(2);
        campaign.push(Cell::new(
            6,
            SeedStream::Offset(0),
            Collect::default,
            |seed, acc: &mut Collect<u64>| {
                assert!(seed != 3, "poisoned seed {seed}");
                acc.0.push(seed);
            },
        ));
        let outcome = campaign.progress(progress.clone()).run(|_, _| {});
        assert_eq!(outcome.quarantined.len(), 1);
        assert_eq!((progress.done(), progress.total()), (18, 18));
        assert_eq!((progress.retried(), progress.quarantined()), (1, 1));
    }

    #[test]
    fn telemetry_hub_tallies_scheduler_counters() {
        let hub = Arc::new(MetricsHub::new(4));
        sum_campaign(3, 17)
            .shard_size(4)
            .workers(4)
            .telemetry(hub.clone())
            .run(|_, _| {});
        let snap = hub.snapshot();
        let reg = &snap.registry;
        assert_eq!(reg.counter(Counter::CampaignTrialsDone), 51);
        assert_eq!(reg.counter(Counter::CampaignCellsDelivered), 3);
        // 3 cells × ceil(17/4) = 15 shards, all claimed exactly once.
        assert_eq!(reg.counter(Counter::CampaignShardsClaimed), 15);
        assert_eq!(reg.gauge(Gauge::CampaignWorkers), Some(4));
        assert_eq!(reg.gauge(Gauge::CampaignCellsTotal), Some(3));
        assert_eq!(reg.gauge(Gauge::CampaignShardsTotal), Some(15));
        assert_eq!(reg.gauge(Gauge::CampaignQueueDepth), Some(0));
        let wall = reg.histogram(Histogram::CampaignShardWallNs);
        assert_eq!(wall.count(), 15, "one latency sample per shard");
        assert!(reg.counter(Counter::CampaignWorkerBusyNs) >= wall.sum());
    }

    #[test]
    fn telemetry_attachment_does_not_change_aggregates() {
        let bare: Vec<Vec<u64>> = sum_campaign(3, 17)
            .shard_size(4)
            .run_collect()
            .into_iter()
            .map(|c| c.0)
            .collect();
        let hub = Arc::new(MetricsHub::new(2));
        let mut observed = Vec::new();
        let outcome = sum_campaign(3, 17)
            .shard_size(4)
            .telemetry(hub)
            .run(|cell, acc| observed.push((cell, acc.0)));
        let observed: Vec<Vec<u64>> = observed.into_iter().map(|(_, v)| v).collect();
        assert_eq!(bare, observed, "hub attachment perturbed results");
        assert!(!outcome.cancelled && outcome.quarantined.is_empty());
    }
}
