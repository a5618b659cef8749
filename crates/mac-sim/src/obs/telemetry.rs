//! The live telemetry hub: a sharded, mergeable metrics registry with
//! snapshot exposition.
//!
//! The run-record layer ([`crate::obs`]) is exact but *post hoc* — a
//! sweep in flight is a black box. This module adds the in-flight view:
//!
//! * [`Registry`] — one fixed slot per series of the closed series
//!   table ([`Counter`]s, merge = sum; [`Gauge`]s, merge = max;
//!   [`Histogram`]s, [`PowHistogram`]s with merge = bucket-wise sum) plus
//!   the per-channel outcome rows;
//! * [`MetricsHub`] — per-worker shards, each behind its own lock, merged
//!   only at snapshot time. Workers accumulate locally (one lock per
//!   *run*, not per round) so the engine hot loop never takes a shared
//!   lock;
//! * [`MetricsSnapshot`] — a point-in-time merge, exportable as a
//!   versioned `kind: "snapshot"` JSONL record (same schema family as
//!   [`super::RunRecord`]) and as Prometheus-style text exposition;
//! * [`TelemetrySink`] — an [`EventSink`] that tallies engine activity
//!   (rounds, acts/round, retirements, per-channel outcomes) into local
//!   fields and flushes once at end of run.
//!
//! Every merge operation is associative and commutative over exact
//! integers, a snapshot lists its series in name order, and a histogram
//! lists its buckets in ascending order, so **a snapshot merged from k
//! worker shards renders byte-identically for any k and any partition of
//! the same events**. A [`PowHistogram`] stores its buckets flat (a fixed
//! array below bucket 64, a sorted vector above), so its memory is
//! bounded by its distinct buckets and recording a small value is one
//! indexed add. The harness's
//! `contention_harness::Samples` cell aggregate is the same
//! [`PowHistogram`] at a 4096-bucket cap, so experiment cells and the
//! metrics plane share one bucket scheme and one mergeability contract.
//!
//! Observer-effect freedom: nothing in this module touches an engine,
//! node, or RNG — sinks only read the event stream — so a run with the
//! hub attached is bit-identical to a bare run (pinned by the
//! `observer_effect` suite).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use super::{ChannelTally, Json, SCHEMA_VERSION};
use crate::channel::{ChannelOutcome, OutcomeKind};
use crate::engine::{NodeId, SlotState};
use crate::sink::EventSink;

/// The default distinct-bucket cap of a [`PowHistogram`]: the cap of
/// every telemetry histogram. Smaller than the 4096 cap of the harness's
/// `Samples` cell aggregate, which keeps experiment quantiles exact:
/// telemetry histograms are rendered live and shipped in every snapshot
/// line.
pub const TELEMETRY_BUCKET_CAP: usize = 512;

/// Buckets `0..HEAD` of a [`PowHistogram`] are counted in a fixed array;
/// higher buckets in a sorted vector. Small values (latencies in rounds,
/// acts per round) then record with one indexed add.
const HEAD: usize = 64;

/// A power-of-two-bucket histogram over `u64` samples, keeping at most
/// `CAP` distinct buckets.
///
/// Bucket `b` at width shift `s` covers values `[b << s, (b+1) << s)`;
/// when the bucket count exceeds `CAP` the width doubles (`s += 1`) and
/// buckets pairwise-collapse, so the state is always the width-`2^s`
/// bucketing of every sample recorded, at the smallest width that fits
/// the cap. Merging aligns both operands to the coarser shift and adds
/// counts, so merge is exactly associative and commutative: any
/// partition of the same samples over any number of shards produces the
/// same histogram. Telemetry uses the default [`TELEMETRY_BUCKET_CAP`].
///
/// Storage is flat: buckets below 64 sit in a fixed inline array, the
/// rest in a vector of `(bucket, count)` pairs sorted by bucket. The heap
/// part holds one pair per nonempty high bucket, so memory stays bounded
/// by the distinct-bucket count (at most `CAP`), never by the values'
/// span. Equality compares the canonical state: count, sum, extremes,
/// shift and the nonempty buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PowHistogram<const CAP: usize = TELEMETRY_BUCKET_CAP> {
    n: u64,
    sum: u64,
    min: u64,
    max: u64,
    shift: u32,
    /// Counts of buckets `0..HEAD`, zero where empty.
    head: [u64; HEAD],
    /// Nonzero entries of `head`.
    head_len: usize,
    /// Buckets `≥ HEAD` as `(bucket, count)`: ascending, counts nonzero.
    tail: Vec<(u64, u64)>,
}

impl<const CAP: usize> Default for PowHistogram<CAP> {
    fn default() -> Self {
        PowHistogram {
            n: 0,
            sum: 0,
            min: 0,
            max: 0,
            shift: 0,
            head: [0; HEAD],
            head_len: 0,
            tail: Vec::new(),
        }
    }
}

impl PowHistogram {
    /// An empty telemetry histogram at the finest bucket width.
    #[must_use]
    pub fn new() -> Self {
        PowHistogram::default()
    }
}

/// `bucket`'s index in the dense head, if it has one.
#[inline]
fn head_index(bucket: u64) -> Option<usize> {
    usize::try_from(bucket).ok().filter(|&i| i < HEAD)
}

impl<const CAP: usize> PowHistogram<CAP> {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        if self.n == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.n += 1;
        self.sum = self.sum.saturating_add(value);
        self.add(value >> self.shift, 1);
        self.shrink_to_cap();
    }

    /// Adds `count` (≥ 1) samples to `bucket`.
    #[inline]
    fn add(&mut self, bucket: u64, count: u64) {
        match head_index(bucket) {
            Some(i) => {
                self.head_len += usize::from(self.head[i] == 0);
                self.head[i] += count;
            }
            None => match self.tail.binary_search_by_key(&bucket, |&(b, _)| b) {
                Ok(i) => self.tail[i].1 += count,
                Err(i) => self.tail.insert(i, (bucket, count)),
            },
        }
    }

    /// Folds `other` into `self`. Exactly associative and commutative.
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.n += other.n;
        self.sum = self.sum.saturating_add(other.sum);
        while self.shift < other.shift {
            self.coarsen();
        }
        let delta = self.shift - other.shift;
        for (bucket, count) in other.buckets() {
            self.add(bucket >> delta, count);
        }
        self.shrink_to_cap();
    }

    fn coarsen(&mut self) {
        self.shift += 1;
        let mut head_len = 0;
        for i in 0..HEAD / 2 {
            self.head[i] = self.head[2 * i] + self.head[2 * i + 1];
            head_len += usize::from(self.head[i] > 0);
        }
        self.head[HEAD / 2..].fill(0);
        self.head_len = head_len;
        let tail = std::mem::take(&mut self.tail);
        self.tail.reserve(tail.len());
        for (bucket, count) in tail {
            self.add(bucket >> 1, count);
        }
    }

    #[inline]
    fn shrink_to_cap(&mut self) {
        while self.head_len + self.tail.len() > CAP {
            self.coarsen();
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples (saturating at `u64::MAX`).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.n == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        if self.n == 0 {
            0
        } else {
            self.max
        }
    }

    /// Current bucket width as a power-of-two shift.
    #[must_use]
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// The nonempty buckets as `(value >> shift, count)`, in ascending
    /// bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0u64..)
            .zip(self.head.iter().copied())
            .filter(|&(_, count)| count > 0)
            .chain(self.tail.iter().copied())
    }

    /// Mean sample value, or 0.0 when empty.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q`-quantile (0.0 ≤ q ≤ 1.0) to bucket resolution: the upper
    /// edge of the first bucket whose cumulative count reaches `⌈q·n⌉`,
    /// clamped to the observed [`min`](PowHistogram::min) /
    /// [`max`](PowHistogram::max). Returns 0 when empty. Deterministic in
    /// the recorded multiset, so quantiles of merged shard histograms are
    /// partition-independent.
    #[must_use]
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    #[allow(clippy::cast_possible_truncation)]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, count) in self.buckets() {
            seen += count;
            if seen >= rank {
                // Upper edge of this bucket (inclusive), clamped to the
                // exact extremes the histogram tracked.
                let hi = ((bucket + 1) << self.shift).saturating_sub(1);
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("n".into(), self.n.into()),
            ("sum".into(), self.sum.into()),
            ("min".into(), self.min().into()),
            ("max".into(), self.max().into()),
            ("shift".into(), u64::from(self.shift).into()),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets()
                        .map(|(b, c)| Json::Arr(vec![b.into(), c.into()]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, String> {
        let field = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram field '{key}' missing or mistyped"))
        };
        let n = field("n")?;
        let mut h = Self {
            n,
            sum: field("sum")?,
            min: if n == 0 { 0 } else { field("min")? },
            max: field("max")?,
            shift: u32::try_from(field("shift")?).map_err(|_| "shift overflows u32")?,
            ..Self::default()
        };
        let pairs = value
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram missing 'buckets' array")?;
        let mut last = None;
        for pair in pairs {
            let (bucket, count) = match pair.as_arr().ok_or("histogram bucket is not a pair")? {
                [b, c] => (
                    b.as_u64().ok_or("bucket key is not a u64")?,
                    c.as_u64().ok_or("bucket count is not a u64")?,
                ),
                _ => return Err("histogram bucket is not a pair".to_string()),
            };
            if count == 0 || last.is_some_and(|last| bucket <= last) {
                return Err("histogram buckets must ascend, with nonzero counts".to_string());
            }
            last = Some(bucket);
            h.add(bucket, count);
        }
        Ok(h)
    }
}

/// Declares one kind of series: an enum whose variants are the series,
/// each with its exposition name (labels included).
macro_rules! series {
    ($(#[$doc:meta])* $kind:ident { $($variant:ident => $name:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $kind {
            $(#[doc = concat!("`", $name, "`")] $variant,)*
        }

        impl $kind {
            /// Every series of this kind, in declaration order.
            pub const ALL: [$kind; [$($name),*].len()] = [$($kind::$variant),*];

            /// The series' exposition name.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self {
                    $($kind::$variant => $name,)*
                }
            }

            fn from_name(name: &str) -> Option<$kind> {
                $kind::ALL.into_iter().find(|series| series.name() == name)
            }
        }
    };
}

series! {
    /// A counter series (merge = sum). With the channel rows of
    /// `engine_channel_outcomes_total`, these are every counter there is.
    Counter {
        EngineRuns => "engine_runs_total",
        EngineRounds => "engine_rounds_total",
        EngineTransmissions => "engine_transmissions_total",
        EngineListens => "engine_listens_total",
        EngineSolved => "engine_solved_total",
        EngineRetiredTerminated => "engine_retired_total{state=\"terminated\"}",
        EngineRetiredCrashed => "engine_retired_total{state=\"crashed\"}",
        SessionRuns => "session_runs_total",
        SessionRounds => "session_rounds_total",
        SessionTransmissions => "session_transmissions_total",
        SessionSolved => "session_solved_total",
        SupervisedRestarts => "supervised_restarts_total",
        SupervisedRestartRounds => "supervised_restart_rounds_total",
        CampaignTrialsDone => "campaign_trials_done_total",
        CampaignTrialsRetried => "campaign_trials_retried_total",
        CampaignTrialsQuarantined => "campaign_trials_quarantined_total",
        CampaignShardsClaimed => "campaign_shards_claimed_total",
        CampaignWorkerBusyNs => "campaign_worker_busy_ns_total",
        CampaignCellsDelivered => "campaign_cells_delivered_total",
        CampaignCancelled => "campaign_cancelled_total",
    }
}

series! {
    /// A gauge series (merge = max).
    Gauge {
        CampaignWorkers => "campaign_workers",
        CampaignCellsTotal => "campaign_cells_total",
        CampaignShardsTotal => "campaign_shards_total",
        CampaignQueueDepth => "campaign_queue_depth",
    }
}

series! {
    /// A histogram series (merge = bucket-wise sum).
    Histogram {
        EngineRoundActs => "engine_round_acts",
        SessionSolveRounds => "session_solve_rounds",
        CampaignShardWallNs => "campaign_shard_wall_ns",
    }
}

/// The counter family of the per-channel outcome rows; a row's series
/// are labelled by channel number and outcome kind.
const CHANNEL_FAMILY: &str = "engine_channel_outcomes_total";

/// The `kind` labels of a channel row, in row order.
const CHANNEL_KINDS: [&str; 3] = ["silence", "message", "collision"];

/// The highest channel number [`MetricsSnapshot::from_json`] accepts:
/// the rows are dense, so a parsed channel number sizes an allocation.
const MAX_PARSED_CHANNEL: usize = 1 << 20;

/// The name of channel `channel`'s series of outcome `kind`.
fn channel_series(channel: usize, kind: &str) -> String {
    format!("{CHANNEL_FAMILY}{{channel=\"{channel}\",kind=\"{kind}\"}}")
}

/// The (row index, kind index) of a channel series name in its canonical
/// spelling.
fn parse_channel_series(name: &str) -> Option<(usize, usize)> {
    let (channel, kind) = name
        .strip_prefix(CHANNEL_FAMILY)?
        .strip_prefix("{channel=\"")?
        .strip_suffix("\"}")?
        .split_once("\",kind=\"")?;
    let channel: usize = channel.parse().ok()?;
    let kind = CHANNEL_KINDS.iter().position(|&k| k == kind)?;
    if channel == 0
        || channel > MAX_PARSED_CHANNEL
        || channel_series(channel, CHANNEL_KINDS[kind]) != name
    {
        return None;
    }
    Some((channel - 1, kind))
}

/// Adds `delta` to `row`, kind by kind.
fn add_row(row: &mut [u64; 3], delta: [u64; 3]) {
    for (n, d) in row.iter_mut().zip(delta) {
        *n += d;
    }
}

/// One shard's worth of metrics: every [`Counter`], [`Gauge`] and
/// [`Histogram`] in a fixed slot, plus the `engine_channel_outcomes_total`
/// rows.
///
/// The set of series is closed: a series is named by its enum variant,
/// and names are made only where text is (the snapshot JSON and the
/// Prometheus exposition). A counter at 0 and an empty histogram are
/// absent from both; a gauge is absent until first set, and renders
/// at 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: [u64; Counter::ALL.len()],
    gauges: [Option<u64>; Gauge::ALL.len()],
    histograms: [PowHistogram; Histogram::ALL.len()],
    /// `engine_channel_outcomes_total` counts: index = channel − 1, one
    /// count per [`CHANNEL_KINDS`] entry.
    channels: Vec<[u64; 3]>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to `counter`.
    pub fn count(&mut self, counter: Counter, delta: u64) {
        self.counters[counter as usize] += delta;
    }

    /// Raises `gauge` to `value` if larger (merge = max, so the merged
    /// value is partition-independent).
    pub fn gauge_max(&mut self, gauge: Gauge, value: u64) {
        let slot = &mut self.gauges[gauge as usize];
        *slot = (*slot).max(Some(value));
    }

    /// Records `value` into `histogram`.
    pub fn observe(&mut self, histogram: Histogram, value: u64) {
        self.histograms[histogram as usize].record(value);
    }

    /// Folds a whole pre-built histogram into `histogram` — how per-run
    /// histograms (e.g. [`TelemetrySink`]'s acts per round) land in a
    /// shard registry without being replayed sample by sample.
    pub fn merge_histogram(&mut self, histogram: Histogram, h: &PowHistogram) {
        self.histograms[histogram as usize].merge(h);
    }

    /// Adds `rows` to the `engine_channel_outcomes_total` counts.
    fn count_channels(&mut self, rows: &[ChannelTally]) {
        for t in rows {
            let row = self.channel_row(t.channel as usize - 1);
            add_row(row, [t.silences, t.messages, t.collisions]);
        }
    }

    /// The counts of row `index`, growing the rows to reach it.
    fn channel_row(&mut self, index: usize) -> &mut [u64; 3] {
        if self.channels.len() <= index {
            self.channels.resize(index + 1, [0; 3]);
        }
        &mut self.channels[index]
    }

    /// Folds another registry into this one.
    pub fn merge(&mut self, other: &Registry) {
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters) {
            *mine += theirs;
        }
        for (mine, theirs) in self.gauges.iter_mut().zip(other.gauges) {
            *mine = (*mine).max(theirs);
        }
        for (mine, theirs) in self.histograms.iter_mut().zip(&other.histograms) {
            mine.merge(theirs);
        }
        for (index, &theirs) in other.channels.iter().enumerate() {
            add_row(self.channel_row(index), theirs);
        }
    }

    /// Current value of `counter`.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Current value of `gauge`, or `None` if it was never set.
    #[must_use]
    pub fn gauge(&self, gauge: Gauge) -> Option<u64> {
        self.gauges[gauge as usize]
    }

    /// The histogram `histogram` (empty if nothing was recorded).
    #[must_use]
    pub fn histogram(&self, histogram: Histogram) -> &PowHistogram {
        &self.histograms[histogram as usize]
    }

    /// Every nonzero counter, channel series included, by name.
    #[must_use]
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let scalars = Counter::ALL.map(|c| (c.name().to_owned(), self.counter(c)));
        let channels = self.channels.iter().enumerate().flat_map(|(index, row)| {
            CHANNEL_KINDS
                .iter()
                .zip(row)
                .map(move |(kind, &n)| (channel_series(index + 1, kind), n))
        });
        scalars
            .into_iter()
            .chain(channels)
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Every gauge that was set, by name.
    #[must_use]
    pub fn gauges(&self) -> BTreeMap<String, u64> {
        Gauge::ALL
            .into_iter()
            .filter_map(|g| Some((g.name().to_owned(), self.gauge(g)?)))
            .collect()
    }

    /// Every nonempty histogram, by name.
    #[must_use]
    pub fn histograms(&self) -> BTreeMap<String, &PowHistogram> {
        Histogram::ALL
            .into_iter()
            .map(|h| (h.name().to_owned(), self.histogram(h)))
            .filter(|(_, h)| h.count() > 0)
            .collect()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Registry::default()
    }
}

/// The sharded hub: one [`Registry`] per worker, merged only at snapshot
/// time.
///
/// Each shard sits behind its own `Mutex`; a worker that writes only to
/// its own shard never contends with the others. The intended discipline
/// (used by the campaign scheduler) is stricter still: workers
/// accumulate into a thread-local [`Registry`] and [`absorb`] it in one
/// lock acquisition at the end of a run, so the engine hot loop takes
/// *no* lock at all.
///
/// [`absorb`]: MetricsHub::absorb
#[derive(Debug)]
pub struct MetricsHub {
    shards: Vec<Mutex<Registry>>,
    seq: AtomicU64,
}

impl MetricsHub {
    /// A hub with `shards` independent shards (at least one).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        MetricsHub {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            seq: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Runs `f` under the lock of shard `shard % self.shards()`.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the shard lock panicked.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut Registry) -> R) -> R {
        let mut guard = self.shards[shard % self.shards.len()]
            .lock()
            .expect("metrics shard poisoned");
        f(&mut guard)
    }

    /// Merges a locally-accumulated registry into shard
    /// `shard % self.shards()` in a single lock acquisition.
    pub fn absorb(&self, shard: usize, local: &Registry) {
        if !local.is_empty() {
            self.with_shard(shard, |reg| reg.merge(local));
        }
    }

    /// Sets the next snapshot sequence number (used when resuming a sweep
    /// whose earlier snapshots are already on disk).
    pub fn set_seq(&self, next: u64) {
        self.seq.store(next, Ordering::SeqCst);
    }

    /// Merges every shard (in index order) into a point-in-time snapshot
    /// and advances the sequence number.
    ///
    /// Because counter/gauge/histogram merges are associative and
    /// commutative and the result maps are ordered, the snapshot is
    /// byte-identical for any shard count and any partition of the same
    /// events across shards.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut merged = Registry::new();
        for shard in &self.shards {
            merged.merge(&shard.lock().expect("metrics shard poisoned"));
        }
        MetricsSnapshot {
            seq: self.seq.fetch_add(1, Ordering::SeqCst),
            registry: merged,
        }
    }
}

/// A point-in-time merge of every hub shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Snapshot sequence number within the producing process (resumed
    /// sweeps continue where the on-disk stream left off).
    pub seq: u64,
    /// The merged metrics.
    pub registry: Registry,
}

impl MetricsSnapshot {
    /// This snapshot as a JSON value (`kind: "snapshot"`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let scalar_obj = |map: BTreeMap<String, u64>| {
            Json::Obj(
                map.into_iter()
                    .map(|(name, v)| (name, Json::UInt(v)))
                    .collect(),
            )
        };
        let reg = &self.registry;
        Json::obj(vec![
            ("schema_version".into(), SCHEMA_VERSION.into()),
            ("kind".into(), "snapshot".into()),
            ("seq".into(), self.seq.into()),
            ("counters".into(), scalar_obj(reg.counters())),
            ("gauges".into(), scalar_obj(reg.gauges())),
            (
                "histograms".into(),
                Json::Obj(
                    reg.histograms()
                        .into_iter()
                        .map(|(name, h)| (name, h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// One JSONL line for this snapshot.
    #[must_use]
    pub fn to_jsonl_line(&self) -> String {
        self.to_json().render()
    }

    /// Parses a snapshot back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field, the
    /// first series name outside the series table, or a schema-version
    /// mismatch.
    pub fn from_json(value: &Json) -> Result<MetricsSnapshot, String> {
        let version = value
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("snapshot missing 'schema_version'")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} != supported {SCHEMA_VERSION}"
            ));
        }
        if value.get("kind").and_then(Json::as_str) != Some("snapshot") {
            return Err("record kind is not 'snapshot'".to_string());
        }
        let section = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("snapshot missing '{key}' object"))
        };
        let scalar = |key: &str, name: &str, v: &Json| {
            v.as_u64()
                .ok_or_else(|| format!("'{key}.{name}' is not a u64"))
        };
        let unknown = |key: &str, name: &str| format!("'{key}.{name}' is not a known series");
        let mut registry = Registry::new();
        for (name, v) in section("counters")? {
            let n = scalar("counters", name, v)?;
            if let Some(counter) = Counter::from_name(name) {
                registry.count(counter, n);
            } else if let Some((index, kind)) = parse_channel_series(name) {
                if n > 0 {
                    registry.channel_row(index)[kind] += n;
                }
            } else {
                return Err(unknown("counters", name));
            }
        }
        for (name, v) in section("gauges")? {
            let gauge = Gauge::from_name(name).ok_or_else(|| unknown("gauges", name))?;
            registry.gauge_max(gauge, scalar("gauges", name, v)?);
        }
        for (name, h) in section("histograms")? {
            let histogram =
                Histogram::from_name(name).ok_or_else(|| unknown("histograms", name))?;
            registry.merge_histogram(histogram, &PowHistogram::from_json(h)?);
        }
        Ok(MetricsSnapshot {
            seq: value
                .get("seq")
                .and_then(Json::as_u64)
                .ok_or("snapshot missing 'seq'")?,
            registry,
        })
    }

    /// Renders the snapshot as Prometheus-style text exposition.
    ///
    /// Counters and gauges become single sample lines; histograms expand
    /// to cumulative `_bucket{le="…"}` lines plus `_sum` and `_count`.
    /// Label sets embedded in metric names pass through verbatim. The
    /// output is deterministic: one `# TYPE` comment per metric family,
    /// families in name order.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let family = name.split('{').next().unwrap_or(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} {kind}");
                last_family = family.to_string();
            }
        };
        for (name, v) in self.registry.counters() {
            type_line(&mut out, &name, "counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, v) in self.registry.gauges() {
            type_line(&mut out, &name, "gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in self.registry.histograms() {
            type_line(&mut out, &name, "histogram");
            let mut cumulative = 0u64;
            for (bucket, count) in h.buckets() {
                cumulative += count;
                let le = (bucket + 1) << h.shift();
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }
}

/// An [`EventSink`] that tallies engine activity for the hub.
///
/// The sink reads each finished round's channel outcomes once: they feed
/// the per-channel rows, whose sums are the run's transmission and listen
/// totals, and the round's acts. It has no per-event hooks, so a round
/// that fails before it finishes adds nothing. All accumulation happens
/// in plain local fields — no locks, no allocation per round beyond the
/// per-channel vector's one-time growth — and nothing is shared until
/// [`flush_into`] / [`flush_to`] runs after the engine stops. Composable
/// with any other sink through the `(A, B)` pair impl. A
/// [`super::RunRecorder`] counts through one too, so a run's totals and
/// channel rows have one tally.
///
/// [`flush_into`]: TelemetrySink::flush_into
/// [`flush_to`]: TelemetrySink::flush_to
#[derive(Debug, Default)]
pub struct TelemetrySink {
    pub(super) rounds: u64,
    /// The first solve, `(round, solver)`.
    pub(super) solved: Option<(u64, NodeId)>,
    retired_terminated: u64,
    retired_crashed: u64,
    acts_per_round: PowHistogram,
    /// One row per channel, index = channel − 1, up to the highest
    /// channel that saw a participant.
    pub(super) channels: Vec<ChannelTally>,
}

impl TelemetrySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        TelemetrySink::default()
    }

    /// Transmissions over the run's finished rounds: the sum of the
    /// channel rows.
    pub(super) fn transmissions(&self) -> u64 {
        self.channels.iter().map(|t| t.transmissions).sum()
    }

    /// Listens over the run's finished rounds: the sum of the channel
    /// rows.
    pub(super) fn listens(&self) -> u64 {
        self.channels.iter().map(|t| t.listens).sum()
    }

    /// Counts one finished round and adds its outcomes to the channel
    /// rows; returns the round's acts, Σ(transmitters + listeners) over
    /// its outcomes.
    pub(super) fn tally_round(&mut self, outcomes: &[ChannelOutcome]) -> u64 {
        self.rounds += 1;
        let mut acts = 0;
        for outcome in outcomes {
            let idx = outcome.channel.index();
            if self.channels.len() <= idx {
                let next = self.channels.len() as u32 + 1;
                self.channels
                    .extend((next..=outcome.channel.get()).map(|channel| ChannelTally {
                        channel,
                        ..ChannelTally::default()
                    }));
            }
            let tally = &mut self.channels[idx];
            match outcome.kind {
                OutcomeKind::Silence => tally.silences += 1,
                OutcomeKind::Message => tally.messages += 1,
                OutcomeKind::Collision => tally.collisions += 1,
            }
            let (tx, rx) = (outcome.transmitters as u64, outcome.listeners as u64);
            tally.transmissions += tx;
            tally.listens += rx;
            acts += tx + rx;
        }
        acts
    }

    /// Adds this run's tallies to `reg` under the `engine_*` metric
    /// family and resets the sink for reuse, keeping its allocations.
    pub fn flush_into(&mut self, reg: &mut Registry) {
        reg.count(Counter::EngineRuns, 1);
        reg.count(Counter::EngineRounds, self.rounds);
        reg.count(Counter::EngineTransmissions, self.transmissions());
        reg.count(Counter::EngineListens, self.listens());
        reg.count(Counter::EngineSolved, u64::from(self.solved.is_some()));
        reg.count(Counter::EngineRetiredTerminated, self.retired_terminated);
        reg.count(Counter::EngineRetiredCrashed, self.retired_crashed);
        reg.count_channels(&self.channels);
        reg.merge_histogram(Histogram::EngineRoundActs, &self.acts_per_round);
        let mut channels = std::mem::take(&mut self.channels);
        channels.clear();
        *self = TelemetrySink {
            channels,
            ..TelemetrySink::default()
        };
    }

    /// Flushes into hub shard `shard` under its one lock acquisition,
    /// straight into the shard's registry.
    pub fn flush_to(&mut self, hub: &MetricsHub, shard: usize) {
        hub.with_shard(shard, |reg| self.flush_into(reg));
    }
}

impl EventSink for TelemetrySink {
    fn on_solved(&mut self, round: u64, solver: NodeId) {
        self.solved.get_or_insert((round, solver));
    }

    fn on_round(&mut self, _round: u64, _phase: &'static str, outcomes: &[ChannelOutcome]) {
        let acts = self.tally_round(outcomes);
        self.acts_per_round.record(acts);
    }

    fn on_retired(&mut self, _round: u64, _node: NodeId, state: SlotState) {
        if state == SlotState::Crashed {
            self.retired_crashed += 1;
        } else {
            self.retired_terminated += 1;
        }
    }

    fn wants_outcomes(&self) -> bool {
        true
    }

    fn wants_node_phases(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelId;

    /// A deterministic pseudo-random-ish sample stream (no RNG: telemetry
    /// tests must not disturb seed accounting anywhere).
    fn samples() -> Vec<u64> {
        (0..4000u64)
            .map(|i| (i * i * 2_654_435_761) >> 17)
            .collect()
    }

    #[test]
    fn histogram_tracks_exact_moments() {
        let mut h = PowHistogram::new();
        for v in [4u64, 9, 1, 16, 9] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 39);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 16);
        let total: u64 = h.buckets().map(|(_, count)| count).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn histogram_coarsens_at_cap() {
        let mut h = PowHistogram::new();
        for v in 0..(TELEMETRY_BUCKET_CAP as u64 * 4) {
            h.record(v);
        }
        assert!(h.buckets().count() <= TELEMETRY_BUCKET_CAP);
        assert!(h.shift() >= 1);
        let total: u64 = h.buckets().map(|(_, count)| count).sum();
        assert_eq!(total, TELEMETRY_BUCKET_CAP as u64 * 4);
    }

    #[test]
    fn histogram_merge_is_partition_invariant() {
        let all = samples();
        let mut whole = PowHistogram::new();
        for &v in &all {
            whole.record(v);
        }
        for parts in [2usize, 3, 7] {
            let mut shards = vec![PowHistogram::new(); parts];
            for (i, &v) in all.iter().enumerate() {
                shards[i % parts].record(v);
            }
            let mut merged = PowHistogram::new();
            for shard in &shards {
                merged.merge(shard);
            }
            assert_eq!(merged, whole, "partition into {parts} shards diverged");
        }
    }

    fn filled<const CAP: usize>(values: impl IntoIterator<Item = u64>) -> PowHistogram<CAP> {
        let mut h = PowHistogram::<CAP>::default();
        for v in values {
            h.record(v);
        }
        h
    }

    /// Shard merges of `samples()` equal the sequential fold, and `CAP`
    /// distinct values fit while `CAP + 1` coarsen.
    fn assert_cap_contract<const CAP: usize>() {
        let all = samples();
        let whole: PowHistogram<CAP> = filled(all.iter().copied());
        for parts in [2usize, 3, 7] {
            let mut merged = PowHistogram::<CAP>::default();
            for first in 0..parts {
                merged.merge(&filled(all.iter().copied().skip(first).step_by(parts)));
            }
            assert_eq!(merged, whole, "cap {CAP}: {parts} shards diverged");
        }
        let cap = CAP as u64;
        assert_eq!(
            filled::<CAP>(0..cap).shift(),
            0,
            "cap {CAP} coarsened early"
        );
        let over = filled::<CAP>(0..=cap);
        assert_eq!(over.shift(), 1, "cap {CAP} did not coarsen");
        assert!(over.buckets().count() <= CAP);
    }

    #[test]
    fn each_cap_merges_exactly_and_coarsens_at_its_own_cap() {
        assert_cap_contract::<TELEMETRY_BUCKET_CAP>();
        assert_cap_contract::<4096>();
        // The same 4000 samples: the telemetry cap coarsens, the
        // experiment-cell cap keeps them exact.
        assert!(filled::<TELEMETRY_BUCKET_CAP>(samples()).shift() > 0);
        assert_eq!(filled::<4096>(samples()).shift(), 0);
    }

    /// The histogram as it was stored before the flat layout: one
    /// `BTreeMap` of buckets. The reference model for the flat storage.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Model {
        n: u64,
        sum: u64,
        min: u64,
        max: u64,
        shift: u32,
        buckets: BTreeMap<u64, u64>,
    }

    impl Model {
        fn record(&mut self, value: u64, cap: usize) {
            (self.min, self.max) = if self.n == 0 {
                (value, value)
            } else {
                (self.min.min(value), self.max.max(value))
            };
            self.n += 1;
            self.sum = self.sum.saturating_add(value);
            *self.buckets.entry(value >> self.shift).or_insert(0) += 1;
            self.shrink(cap);
        }

        fn merge(&mut self, other: &Model, cap: usize) {
            if other.n == 0 {
                return;
            }
            if self.n == 0 {
                *self = other.clone();
                return;
            }
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            self.n += other.n;
            self.sum = self.sum.saturating_add(other.sum);
            while self.shift < other.shift {
                self.coarsen();
            }
            let delta = self.shift - other.shift;
            for (&bucket, &count) in &other.buckets {
                *self.buckets.entry(bucket >> delta).or_insert(0) += count;
            }
            self.shrink(cap);
        }

        fn coarsen(&mut self) {
            self.shift += 1;
            for (bucket, count) in std::mem::take(&mut self.buckets) {
                *self.buckets.entry(bucket >> 1).or_insert(0) += count;
            }
        }

        fn shrink(&mut self, cap: usize) {
            while self.buckets.len() > cap {
                self.coarsen();
            }
        }

        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        #[allow(clippy::cast_possible_truncation)]
        fn quantile(&self, q: f64) -> u64 {
            if self.n == 0 {
                return 0;
            }
            let rank = ((q * self.n as f64).ceil() as u64).max(1);
            let mut seen = 0;
            for (&bucket, &count) in &self.buckets {
                seen += count;
                if seen >= rank {
                    return (((bucket + 1) << self.shift).saturating_sub(1))
                        .clamp(self.min, self.max);
                }
            }
            self.max
        }

        fn json_line(&self) -> String {
            let buckets: Vec<String> = self
                .buckets
                .iter()
                .map(|(b, c)| format!("[{b},{c}]"))
                .collect();
            format!(
                "{{\"n\":{},\"sum\":{},\"min\":{},\"max\":{},\"shift\":{},\"buckets\":[{}]}}",
                self.n,
                self.sum,
                self.min,
                self.max,
                self.shift,
                buckets.join(",")
            )
        }
    }

    /// Checks every observable of `h` against `model`, and the JSON round
    /// trip.
    fn assert_matches_model<const CAP: usize>(h: &PowHistogram<CAP>, model: &Model) {
        assert_eq!(
            (h.count(), h.sum(), h.min(), h.max(), h.shift()),
            (model.n, model.sum, model.min, model.max, model.shift)
        );
        let buckets: Vec<_> = h.buckets().collect();
        let expected: Vec<_> = model.buckets.iter().map(|(&b, &c)| (b, c)).collect();
        assert_eq!(buckets, expected);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), model.quantile(q), "q = {q}");
        }
        let line = h.to_json().render();
        assert_eq!(line, model.json_line());
        let parsed = PowHistogram::<CAP>::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(&parsed, h, "JSON round trip");
    }

    /// Records `values` whole and split over `shards` shards (chosen per
    /// value from `salt`), in the flat histogram and in the model.
    fn check_against_model<const CAP: usize>(values: &[u64], shards: usize, salt: u64) {
        let mut whole = PowHistogram::<CAP>::default();
        let mut model = Model::default();
        let mut parts = vec![(PowHistogram::<CAP>::default(), Model::default()); shards];
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            model.record(v, CAP);
            let shard = (crate::derive_stream_seed(salt, i as u64) % shards as u64) as usize;
            parts[shard].0.record(v);
            parts[shard].1.record(v, CAP);
        }
        assert_matches_model(&whole, &model);
        let (mut forward, mut backward) = (PowHistogram::<CAP>::default(), Model::default());
        for (h, m) in &parts {
            assert_matches_model(h, m);
            forward.merge(h);
            backward.merge(m, CAP);
        }
        assert_matches_model(&forward, &backward);
        assert_eq!(forward, whole, "merged shards equal the whole");
        let mut reversed = PowHistogram::<CAP>::default();
        for (h, _) in parts.iter().rev() {
            reversed.merge(h);
        }
        assert_eq!(reversed, whole, "merge order does not matter");
        if let Some(&v) = values.first() {
            let mut more = whole.clone();
            more.record(v);
            assert_ne!(more, whole, "one more sample is a different histogram");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        #[test]
        fn flat_histogram_matches_the_btreemap_model(
            values in proptest::collection::vec(
                proptest::prop_oneof![
                    0u64..64,
                    64u64..6_000,
                    (1u64 << 30)..(1u64 << 40),
                    proptest::arbitrary::any::<u64>(),
                ],
                0..9_000,
            ),
            shards in 1usize..6,
            salt in proptest::arbitrary::any::<u64>(),
        ) {
            check_against_model::<TELEMETRY_BUCKET_CAP>(&values, shards, salt);
            check_against_model::<4096>(&values, shards, salt);
        }
    }

    #[test]
    fn malformed_bucket_lists_are_rejected() {
        for buckets in ["[[3,1],[3,1]]", "[[5,1],[2,1]]", "[[70,0]]"] {
            let line = format!(
                "{{\"n\":2,\"sum\":8,\"min\":3,\"max\":5,\"shift\":0,\"buckets\":{buckets}}}"
            );
            let parsed =
                PowHistogram::<TELEMETRY_BUCKET_CAP>::from_json(&Json::parse(&line).unwrap());
            assert!(parsed.is_err(), "{buckets} parsed");
        }
    }

    /// Storage, in count slots, stays within a constant of twice the most
    /// distinct buckets the histogram has held (at most `CAP + 1`).
    fn assert_storage_tracks_distinct_buckets<const CAP: usize>() {
        let mut h = PowHistogram::<CAP>::default();
        let mut peak = 0;
        for i in 0..10_000u64 {
            // The first sample is 2^60 itself; the rest spread over [0, 2^60).
            let v = if i == 0 {
                1 << 60
            } else {
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 4
            };
            h.record(v);
            peak = peak.max(h.buckets().count());
            assert!(
                h.tail.capacity() <= 2 * peak.max(2),
                "cap {CAP}: {} tail slots for at most {peak} buckets",
                h.tail.capacity()
            );
        }
        assert!(peak <= CAP + 1);
        assert!(h.shift() > 0, "the samples crossed the cap");
    }

    #[test]
    fn storage_stays_proportional_to_the_distinct_buckets() {
        assert_storage_tracks_distinct_buckets::<TELEMETRY_BUCKET_CAP>();
        assert_storage_tracks_distinct_buckets::<4096>();
    }

    #[test]
    fn snapshot_is_byte_identical_for_every_worker_count() {
        // The acceptance criterion, verbatim: the same event stream
        // partitioned over k shards must merge to the same bytes for
        // every k.
        let reference = hub_snapshot_bytes(1);
        for k in [2usize, 3, 4, 8] {
            assert_eq!(
                hub_snapshot_bytes(k),
                reference,
                "snapshot from {k} shards is not byte-identical"
            );
        }
    }

    fn hub_snapshot_bytes(k: usize) -> (String, String) {
        let hub = MetricsHub::new(k);
        for (i, &v) in samples().iter().enumerate() {
            let mut local = Registry::new();
            local.count(Counter::CampaignTrialsDone, 1);
            let labelled = [
                Counter::EngineRetiredTerminated,
                Counter::EngineRetiredCrashed,
            ];
            local.count(labelled[i % 2], v % 5);
            local.count_channels(&[ChannelTally {
                channel: (i % 11 + 1) as u32,
                silences: v % 3,
                collisions: v % 7,
                ..ChannelTally::default()
            }]);
            local.gauge_max(Gauge::CampaignQueueDepth, v % 97);
            local.observe(Histogram::CampaignShardWallNs, v);
            hub.absorb(i % k, &local);
        }
        let snap = hub.snapshot();
        assert_eq!(snap.seq, 0);
        (snap.to_jsonl_line(), snap.render_prometheus())
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let hub = MetricsHub::new(2);
        hub.with_shard(0, |reg| {
            reg.count(Counter::EngineRounds, 41);
            reg.gauge_max(Gauge::CampaignWorkers, 4);
            reg.observe(Histogram::EngineRoundActs, 17);
            reg.observe(Histogram::EngineRoundActs, 3);
        });
        hub.with_shard(1, |reg| reg.count(Counter::EngineRounds, 1));
        let snap = hub.snapshot();
        let line = snap.to_jsonl_line();
        assert!(line.contains("\"kind\":\"snapshot\""));
        assert!(line.contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
        let parsed = MetricsSnapshot::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.registry.counter(Counter::EngineRounds), 42);
    }

    #[test]
    fn snapshot_seq_advances_and_can_resume() {
        let hub = MetricsHub::new(1);
        assert_eq!(hub.snapshot().seq, 0);
        assert_eq!(hub.snapshot().seq, 1);
        hub.set_seq(10);
        assert_eq!(hub.snapshot().seq, 10);
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let hub = MetricsHub::new(1);
        hub.with_shard(0, |reg| {
            reg.count(Counter::EngineRounds, 7);
            reg.count(Counter::EngineRetiredTerminated, 2);
            reg.count(Counter::EngineRetiredCrashed, 1);
            reg.gauge_max(Gauge::CampaignWorkers, 3);
            reg.observe(Histogram::CampaignShardWallNs, 1000);
            reg.observe(Histogram::CampaignShardWallNs, 3000);
        });
        let text = hub.snapshot().render_prometheus();
        // One TYPE line per family even with multiple label sets.
        assert_eq!(text.matches("# TYPE engine_retired_total").count(), 1);
        assert!(text.contains("# TYPE campaign_workers gauge"));
        assert!(text.contains("# TYPE campaign_shard_wall_ns histogram"));
        assert!(text.contains("campaign_shard_wall_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("campaign_shard_wall_ns_sum 4000"));
        assert!(text.contains("campaign_shard_wall_ns_count 2"));
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value in {line:?}");
        }
    }

    #[test]
    fn telemetry_sink_tallies_and_flushes() {
        use crate::action::{Action, Feedback};
        use crate::config::{SimConfig, StopWhen};
        use crate::engine::Engine;
        use crate::protocol::{Protocol, RoundContext, Status};
        use rand::rngs::SmallRng;

        struct Chirp {
            left: u32,
        }
        impl Protocol for Chirp {
            type Msg = u8;
            fn act(&mut self, _: &RoundContext, _: &mut SmallRng) -> Action<u8> {
                self.left -= 1;
                Action::transmit(ChannelId::PRIMARY, 0)
            }
            fn observe(&mut self, _: &RoundContext, _: Feedback<u8>, _: &mut SmallRng) {}
            fn status(&self) -> Status {
                if self.left == 0 {
                    Status::Inactive
                } else {
                    Status::Active
                }
            }
        }

        let cfg = SimConfig::new(2)
            .seed(5)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100);
        let mut engine = Engine::new(cfg);
        engine.add_node(Chirp { left: 3 });
        let mut sink = TelemetrySink::new();
        let report = engine.run_observed(&mut sink).unwrap();
        assert_eq!(sink.rounds, report.rounds_executed);
        assert_eq!(sink.transmissions(), report.metrics.transmissions);
        assert_eq!((sink.retired_terminated, sink.retired_crashed), (1, 0));

        let hub = MetricsHub::new(1);
        sink.flush_to(&hub, 0);
        let snap = hub.snapshot();
        assert_eq!(snap.registry.counter(Counter::EngineRuns), 1);
        assert_eq!(snap.registry.counter(Counter::EngineRounds), 3);
        assert_eq!(snap.registry.counter(Counter::EngineRetiredTerminated), 1);
        assert_eq!(
            snap.registry.counters()
                ["engine_channel_outcomes_total{channel=\"1\",kind=\"message\"}"],
            3
        );
        // The sink reset on flush.
        assert_eq!(sink.rounds, 0);
    }

    #[test]
    fn a_run_counts_its_first_solve_once() {
        // Under continuous delivery every delivery reports a solve.
        let mut sink = TelemetrySink::new();
        sink.on_solved(3, NodeId(4));
        sink.on_solved(7, NodeId(1));
        assert_eq!(sink.solved, Some((3, NodeId(4))));
        let mut reg = Registry::new();
        sink.flush_into(&mut reg);
        assert_eq!(reg.counter(Counter::EngineSolved), 1);
    }

    #[test]
    fn flushes_of_every_width_count_under_the_formatted_keys() {
        let mut reg = Registry::new();
        for width in [2, 3, 1] {
            let mut sink = TelemetrySink::new();
            sink.channels = (1..=width)
                .map(|ch| ChannelTally {
                    channel: ch as u32,
                    silences: ch,
                    messages: 10 * ch,
                    collisions: 100 * ch,
                    ..ChannelTally::default()
                })
                .collect();
            sink.flush_into(&mut reg);
        }
        let mut want = BTreeMap::new();
        for (ch, flushes) in [(1, 3), (2, 2), (3, 1)] {
            for (kind, unit) in [("silence", 1), ("message", 10), ("collision", 100)] {
                let key =
                    format!("engine_channel_outcomes_total{{channel=\"{ch}\",kind=\"{kind}\"}}");
                want.insert(key, unit * ch * flushes);
            }
        }
        let mut got = reg.counters();
        got.retain(|name, _| name.starts_with(CHANNEL_FAMILY));
        assert_eq!(got, want);
    }

    /// Every series in the table, channel rows 1–12 (with one zero
    /// count), a gauge at 0 and both `engine_retired_total` labels. The
    /// literals below are the output of the string-keyed registry this
    /// one replaced.
    #[test]
    fn exposition_is_pinned_byte_for_byte() {
        let mut reg = Registry::new();
        for (i, counter) in Counter::ALL.into_iter().enumerate() {
            reg.count(counter, 100 + i as u64);
        }
        let rows: Vec<ChannelTally> = (1..=12u64)
            .map(|ch| ChannelTally {
                channel: ch as u32,
                silences: ch * 10,
                messages: if ch == 5 { 0 } else { ch * 10 + 1 },
                collisions: ch * 10 + 2,
                ..ChannelTally::default()
            })
            .collect();
        reg.count_channels(&rows);
        for (gauge, value) in Gauge::ALL.into_iter().zip([4, 3, 15, 0]) {
            reg.gauge_max(gauge, value);
        }
        for v in [3, 17, 17, 64, 200] {
            reg.observe(Histogram::EngineRoundActs, v);
        }
        reg.observe(Histogram::SessionSolveRounds, 41);
        for v in [1000, 3000, 1 << 40] {
            reg.observe(Histogram::CampaignShardWallNs, v);
        }
        let snap = MetricsSnapshot {
            seq: 7,
            registry: reg,
        };
        assert_eq!(snap.to_jsonl_line(), JSONL);
        assert_eq!(snap.render_prometheus(), PROM);
        let parsed = MetricsSnapshot::from_json(&Json::parse(JSONL).unwrap()).unwrap();
        assert_eq!(parsed, snap);
    }

    const JSONL: &str = "\
        {\"schema_version\":2,\"kind\":\"snapshot\",\"seq\":7,\
        \"counters\":{\"campaign_cancelled_total\":119,\
        \"campaign_cells_delivered_total\":118,\"campaign_shards_claimed_total\":116,\
        \"campaign_trials_done_total\":113,\"campaign_trials_quarantined_total\":115,\
        \"campaign_trials_retried_total\":114,\"campaign_worker_busy_ns_total\":117,\
        \"engine_channel_outcomes_total{channel=\\\"1\\\",kind=\\\"collision\\\"}\":12,\
        \"engine_channel_outcomes_total{channel=\\\"1\\\",kind=\\\"message\\\"}\":11,\
        \"engine_channel_outcomes_total{channel=\\\"1\\\",kind=\\\"silence\\\"}\":10,\
        \"engine_channel_outcomes_total{channel=\\\"10\\\",kind=\\\"collision\\\"}\":102,\
        \"engine_channel_outcomes_total{channel=\\\"10\\\",kind=\\\"message\\\"}\":101,\
        \"engine_channel_outcomes_total{channel=\\\"10\\\",kind=\\\"silence\\\"}\":100,\
        \"engine_channel_outcomes_total{channel=\\\"11\\\",kind=\\\"collision\\\"}\":112,\
        \"engine_channel_outcomes_total{channel=\\\"11\\\",kind=\\\"message\\\"}\":111,\
        \"engine_channel_outcomes_total{channel=\\\"11\\\",kind=\\\"silence\\\"}\":110,\
        \"engine_channel_outcomes_total{channel=\\\"12\\\",kind=\\\"collision\\\"}\":122,\
        \"engine_channel_outcomes_total{channel=\\\"12\\\",kind=\\\"message\\\"}\":121,\
        \"engine_channel_outcomes_total{channel=\\\"12\\\",kind=\\\"silence\\\"}\":120,\
        \"engine_channel_outcomes_total{channel=\\\"2\\\",kind=\\\"collision\\\"}\":22,\
        \"engine_channel_outcomes_total{channel=\\\"2\\\",kind=\\\"message\\\"}\":21,\
        \"engine_channel_outcomes_total{channel=\\\"2\\\",kind=\\\"silence\\\"}\":20,\
        \"engine_channel_outcomes_total{channel=\\\"3\\\",kind=\\\"collision\\\"}\":32,\
        \"engine_channel_outcomes_total{channel=\\\"3\\\",kind=\\\"message\\\"}\":31,\
        \"engine_channel_outcomes_total{channel=\\\"3\\\",kind=\\\"silence\\\"}\":30,\
        \"engine_channel_outcomes_total{channel=\\\"4\\\",kind=\\\"collision\\\"}\":42,\
        \"engine_channel_outcomes_total{channel=\\\"4\\\",kind=\\\"message\\\"}\":41,\
        \"engine_channel_outcomes_total{channel=\\\"4\\\",kind=\\\"silence\\\"}\":40,\
        \"engine_channel_outcomes_total{channel=\\\"5\\\",kind=\\\"collision\\\"}\":52,\
        \"engine_channel_outcomes_total{channel=\\\"5\\\",kind=\\\"silence\\\"}\":50,\
        \"engine_channel_outcomes_total{channel=\\\"6\\\",kind=\\\"collision\\\"}\":62,\
        \"engine_channel_outcomes_total{channel=\\\"6\\\",kind=\\\"message\\\"}\":61,\
        \"engine_channel_outcomes_total{channel=\\\"6\\\",kind=\\\"silence\\\"}\":60,\
        \"engine_channel_outcomes_total{channel=\\\"7\\\",kind=\\\"collision\\\"}\":72,\
        \"engine_channel_outcomes_total{channel=\\\"7\\\",kind=\\\"message\\\"}\":71,\
        \"engine_channel_outcomes_total{channel=\\\"7\\\",kind=\\\"silence\\\"}\":70,\
        \"engine_channel_outcomes_total{channel=\\\"8\\\",kind=\\\"collision\\\"}\":82,\
        \"engine_channel_outcomes_total{channel=\\\"8\\\",kind=\\\"message\\\"}\":81,\
        \"engine_channel_outcomes_total{channel=\\\"8\\\",kind=\\\"silence\\\"}\":80,\
        \"engine_channel_outcomes_total{channel=\\\"9\\\",kind=\\\"collision\\\"}\":92,\
        \"engine_channel_outcomes_total{channel=\\\"9\\\",kind=\\\"message\\\"}\":91,\
        \"engine_channel_outcomes_total{channel=\\\"9\\\",kind=\\\"silence\\\"}\":90,\
        \"engine_listens_total\":103,\"engine_retired_total{state=\\\"crashed\\\"}\":106,\
        \"engine_retired_total{state=\\\"terminated\\\"}\":105,\"engine_rounds_total\":101,\
        \"engine_runs_total\":100,\"engine_solved_total\":104,\
        \"engine_transmissions_total\":102,\"session_rounds_total\":108,\
        \"session_runs_total\":107,\"session_solved_total\":110,\
        \"session_transmissions_total\":109,\"supervised_restart_rounds_total\":112,\
        \"supervised_restarts_total\":111},\"gauges\":{\"campaign_cells_total\":3,\
        \"campaign_queue_depth\":0,\"campaign_shards_total\":15,\"campaign_workers\":4},\
        \"histograms\":{\"campaign_shard_wall_ns\":{\"n\":3,\"sum\":1099511631776,\
        \"min\":1000,\"max\":1099511627776,\"shift\":0,\"buckets\":[[1000,1],[3000,1],\
        [1099511627776,1]]},\"engine_round_acts\":{\"n\":5,\"sum\":301,\"min\":3,\"max\":200,\
        \"shift\":0,\"buckets\":[[3,1],[17,2],[64,1],[200,1]]},\
        \"session_solve_rounds\":{\"n\":1,\"sum\":41,\"min\":41,\"max\":41,\"shift\":0,\
        \"buckets\":[[41,1]]}}}";
    const PROM: &str = r#"# TYPE campaign_cancelled_total counter
campaign_cancelled_total 119
# TYPE campaign_cells_delivered_total counter
campaign_cells_delivered_total 118
# TYPE campaign_shards_claimed_total counter
campaign_shards_claimed_total 116
# TYPE campaign_trials_done_total counter
campaign_trials_done_total 113
# TYPE campaign_trials_quarantined_total counter
campaign_trials_quarantined_total 115
# TYPE campaign_trials_retried_total counter
campaign_trials_retried_total 114
# TYPE campaign_worker_busy_ns_total counter
campaign_worker_busy_ns_total 117
# TYPE engine_channel_outcomes_total counter
engine_channel_outcomes_total{channel="1",kind="collision"} 12
engine_channel_outcomes_total{channel="1",kind="message"} 11
engine_channel_outcomes_total{channel="1",kind="silence"} 10
engine_channel_outcomes_total{channel="10",kind="collision"} 102
engine_channel_outcomes_total{channel="10",kind="message"} 101
engine_channel_outcomes_total{channel="10",kind="silence"} 100
engine_channel_outcomes_total{channel="11",kind="collision"} 112
engine_channel_outcomes_total{channel="11",kind="message"} 111
engine_channel_outcomes_total{channel="11",kind="silence"} 110
engine_channel_outcomes_total{channel="12",kind="collision"} 122
engine_channel_outcomes_total{channel="12",kind="message"} 121
engine_channel_outcomes_total{channel="12",kind="silence"} 120
engine_channel_outcomes_total{channel="2",kind="collision"} 22
engine_channel_outcomes_total{channel="2",kind="message"} 21
engine_channel_outcomes_total{channel="2",kind="silence"} 20
engine_channel_outcomes_total{channel="3",kind="collision"} 32
engine_channel_outcomes_total{channel="3",kind="message"} 31
engine_channel_outcomes_total{channel="3",kind="silence"} 30
engine_channel_outcomes_total{channel="4",kind="collision"} 42
engine_channel_outcomes_total{channel="4",kind="message"} 41
engine_channel_outcomes_total{channel="4",kind="silence"} 40
engine_channel_outcomes_total{channel="5",kind="collision"} 52
engine_channel_outcomes_total{channel="5",kind="silence"} 50
engine_channel_outcomes_total{channel="6",kind="collision"} 62
engine_channel_outcomes_total{channel="6",kind="message"} 61
engine_channel_outcomes_total{channel="6",kind="silence"} 60
engine_channel_outcomes_total{channel="7",kind="collision"} 72
engine_channel_outcomes_total{channel="7",kind="message"} 71
engine_channel_outcomes_total{channel="7",kind="silence"} 70
engine_channel_outcomes_total{channel="8",kind="collision"} 82
engine_channel_outcomes_total{channel="8",kind="message"} 81
engine_channel_outcomes_total{channel="8",kind="silence"} 80
engine_channel_outcomes_total{channel="9",kind="collision"} 92
engine_channel_outcomes_total{channel="9",kind="message"} 91
engine_channel_outcomes_total{channel="9",kind="silence"} 90
# TYPE engine_listens_total counter
engine_listens_total 103
# TYPE engine_retired_total counter
engine_retired_total{state="crashed"} 106
engine_retired_total{state="terminated"} 105
# TYPE engine_rounds_total counter
engine_rounds_total 101
# TYPE engine_runs_total counter
engine_runs_total 100
# TYPE engine_solved_total counter
engine_solved_total 104
# TYPE engine_transmissions_total counter
engine_transmissions_total 102
# TYPE session_rounds_total counter
session_rounds_total 108
# TYPE session_runs_total counter
session_runs_total 107
# TYPE session_solved_total counter
session_solved_total 110
# TYPE session_transmissions_total counter
session_transmissions_total 109
# TYPE supervised_restart_rounds_total counter
supervised_restart_rounds_total 112
# TYPE supervised_restarts_total counter
supervised_restarts_total 111
# TYPE campaign_cells_total gauge
campaign_cells_total 3
# TYPE campaign_queue_depth gauge
campaign_queue_depth 0
# TYPE campaign_shards_total gauge
campaign_shards_total 15
# TYPE campaign_workers gauge
campaign_workers 4
# TYPE campaign_shard_wall_ns histogram
campaign_shard_wall_ns_bucket{le="1001"} 1
campaign_shard_wall_ns_bucket{le="3001"} 2
campaign_shard_wall_ns_bucket{le="1099511627777"} 3
campaign_shard_wall_ns_bucket{le="+Inf"} 3
campaign_shard_wall_ns_sum 1099511631776
campaign_shard_wall_ns_count 3
# TYPE engine_round_acts histogram
engine_round_acts_bucket{le="4"} 1
engine_round_acts_bucket{le="18"} 3
engine_round_acts_bucket{le="65"} 4
engine_round_acts_bucket{le="201"} 5
engine_round_acts_bucket{le="+Inf"} 5
engine_round_acts_sum 301
engine_round_acts_count 5
# TYPE session_solve_rounds histogram
session_solve_rounds_bucket{le="42"} 1
session_solve_rounds_bucket{le="+Inf"} 1
session_solve_rounds_sum 41
session_solve_rounds_count 1
"#;

    #[test]
    fn a_snapshot_naming_an_unknown_series_is_rejected() {
        let mut reg = Registry::new();
        reg.count(Counter::EngineRounds, 5);
        reg.count_channels(&[ChannelTally {
            channel: 3,
            messages: 2,
            ..ChannelTally::default()
        }]);
        reg.gauge_max(Gauge::CampaignWorkers, 2);
        reg.observe(Histogram::EngineRoundActs, 4);
        let line = MetricsSnapshot {
            seq: 0,
            registry: reg,
        }
        .to_jsonl_line();
        let parse = |line: &str| MetricsSnapshot::from_json(&Json::parse(line).unwrap());
        assert!(parse(&line).is_ok());
        for (known, unknown) in [
            ("\"engine_rounds_total\"", "\"engine_round_total\""),
            (
                "\"engine_rounds_total\"",
                "\"fault_injections_total{kind=\\\"k0\\\"}\"",
            ),
            ("\"engine_rounds_total\"", "\"campaign_workers\""),
            ("\"campaign_workers\"", "\"engine_rounds_total\""),
            ("\"engine_round_acts\"", "\"session_solve_round\""),
            ("channel=\\\"3\\\"", "channel=\\\"03\\\""),
            ("channel=\\\"3\\\"", "channel=\\\"0\\\""),
            ("channel=\\\"3\\\"", "channel=\\\"4294967296\\\""),
            ("kind=\\\"message", "kind=\\\"messages"),
        ] {
            assert!(line.contains(known), "{known} not in {line}");
            let err = parse(&line.replacen(known, unknown, 1)).unwrap_err();
            assert!(err.contains("not a known series"), "{unknown}: {err}");
        }
    }

    #[test]
    fn a_flush_keeps_the_channel_rows_allocation() {
        let mut sink = TelemetrySink::new();
        sink.channels = (1..=9)
            .map(|channel| ChannelTally {
                channel,
                messages: 1,
                ..ChannelTally::default()
            })
            .collect();
        let capacity = sink.channels.capacity();
        sink.flush_into(&mut Registry::new());
        assert!(sink.channels.is_empty());
        assert_eq!(sink.channels.capacity(), capacity);
    }

    /// Every family of the series table with its kind, and every family
    /// of the metric table in `docs/OBSERVABILITY.md`, are the same set.
    #[test]
    fn the_docs_metric_table_lists_exactly_the_series_table() {
        let family = |name: &'static str| name.split('{').next().unwrap_or(name);
        let table: std::collections::BTreeSet<(&str, &str)> = Counter::ALL
            .into_iter()
            .map(|c| (family(c.name()), "counter"))
            .chain([(CHANNEL_FAMILY, "counter")])
            .chain(Gauge::ALL.into_iter().map(|g| (g.name(), "gauge")))
            .chain(Histogram::ALL.into_iter().map(|h| (h.name(), "histogram")))
            .collect();
        let doc = include_str!("../../../../docs/OBSERVABILITY.md");
        let documented: std::collections::BTreeSet<(&str, &str)> = doc
            .lines()
            .skip_while(|line| !line.starts_with("| metric | type |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| {
                let (name, rest) = line
                    .strip_prefix("| `")
                    .and_then(|row| row.split_once("` | "))
                    .unwrap_or_else(|| panic!("metric row {line:?}"));
                let kind = rest.split_whitespace().next().unwrap_or_default();
                (name.split('{').next().unwrap_or(name), kind)
            })
            .collect();
        assert_eq!(documented, table);
    }
}
