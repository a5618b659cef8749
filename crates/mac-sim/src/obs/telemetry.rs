//! The live telemetry hub: a sharded, mergeable metrics registry with
//! snapshot exposition.
//!
//! The run-record layer ([`crate::obs`]) is exact but *post hoc* — a
//! sweep in flight is a black box. This module adds the in-flight view:
//!
//! * [`Registry`] — a plain bag of counters (merge = sum), gauges
//!   (merge = max), and [`PowHistogram`]s (merge = bucket-wise sum);
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
//! integers, the merged registry is held in `BTreeMap`s, and a histogram
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

use std::cell::RefCell;
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

/// One shard's worth of metrics: counters, gauges, and histograms, all
/// keyed by metric name.
///
/// Names follow Prometheus conventions (`snake_case`, unit-suffixed,
/// `_total` for counters) and may embed a label set verbatim, e.g.
/// `engine_retired_total{state="crashed"}` — the registry treats the whole
/// string as the key, which keeps merging trivially deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, PowHistogram>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `delta` to the counter `name` (merge = sum).
    pub fn count(&mut self, name: &str, delta: u64) {
        if delta > 0 {
            update(&mut self.counters, name, |n| *n += delta);
        }
    }

    /// Raises the gauge `name` to `value` if larger (merge = max, so the
    /// merged value is partition-independent).
    pub fn gauge_max(&mut self, name: &str, value: u64) {
        update(&mut self.gauges, name, |g| *g = (*g).max(value));
    }

    /// Records `value` into the histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        update(&mut self.histograms, name, |h| h.record(value));
    }

    /// Folds a whole pre-built histogram into the histogram `name` — how
    /// per-run histograms (e.g. [`TelemetrySink`]'s acts per round) land in
    /// a shard registry without being replayed sample by sample.
    pub fn merge_histogram(&mut self, name: &str, h: &PowHistogram) {
        if h.count() > 0 {
            update(&mut self.histograms, name, |mine| mine.merge(h));
        }
    }

    /// Folds another registry into this one.
    pub fn merge(&mut self, other: &Registry) {
        for (name, &v) in &other.counters {
            update(&mut self.counters, name, |n| *n += v);
        }
        for (name, &v) in &other.gauges {
            update(&mut self.gauges, name, |g| *g = (*g).max(v));
        }
        for (name, h) in &other.histograms {
            update(&mut self.histograms, name, |mine| mine.merge(h));
        }
    }

    /// Current value of counter `name` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, sorted by name.
    #[must_use]
    pub fn gauges(&self) -> &BTreeMap<String, u64> {
        &self.gauges
    }

    /// All histograms, sorted by name.
    #[must_use]
    pub fn histograms(&self) -> &BTreeMap<String, PowHistogram> {
        &self.histograms
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Applies `f` to the value under `name` in `map`, starting a new entry
/// from the default if absent: one descent when the key exists, two when
/// it is new. The key is looked up by `&str`, so a name the map already
/// holds costs no allocation.
fn update<V: Default>(map: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    if let Some(value) = map.get_mut(name) {
        f(value);
    } else {
        let mut value = V::default();
        f(&mut value);
        map.insert(name.to_owned(), value);
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
        let scalar_obj = |map: &BTreeMap<String, u64>| {
            Json::Obj(
                map.iter()
                    .map(|(name, &v)| (name.clone(), Json::UInt(v)))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("schema_version".into(), SCHEMA_VERSION.into()),
            ("kind".into(), "snapshot".into()),
            ("seq".into(), self.seq.into()),
            ("counters".into(), scalar_obj(self.registry.counters())),
            ("gauges".into(), scalar_obj(self.registry.gauges())),
            (
                "histograms".into(),
                Json::Obj(
                    self.registry
                        .histograms()
                        .iter()
                        .map(|(name, h)| (name.clone(), h.to_json()))
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
    /// Returns a message naming the first missing or mistyped field, or a
    /// schema-version mismatch.
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
        let scalar_map = |key: &str| -> Result<BTreeMap<String, u64>, String> {
            value
                .get(key)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("snapshot missing '{key}' object"))?
                .iter()
                .map(|(name, v)| {
                    v.as_u64()
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("'{key}.{name}' is not a u64"))
                })
                .collect()
        };
        let mut registry = Registry {
            counters: scalar_map("counters")?,
            gauges: scalar_map("gauges")?,
            histograms: BTreeMap::new(),
        };
        for (name, h) in value
            .get("histograms")
            .and_then(Json::as_obj)
            .ok_or("snapshot missing 'histograms' object")?
        {
            registry
                .histograms
                .insert(name.clone(), PowHistogram::from_json(h)?);
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
        for (name, &v) in self.registry.counters() {
            type_line(&mut out, name, "counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, &v) in self.registry.gauges() {
            type_line(&mut out, name, "gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in self.registry.histograms() {
            type_line(&mut out, name, "histogram");
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

thread_local! {
    /// The `engine_channel_outcomes_total` keys of channels 1, 2, …, as
    /// `[silence, message, collision]`: formatted once per thread, when a
    /// flush first sees the channel, so every later flush only looks its
    /// keys up.
    static CHANNEL_KEYS: RefCell<Vec<[String; 3]>> = const { RefCell::new(Vec::new()) };
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
    /// family and resets the sink for reuse.
    pub fn flush_into(&mut self, reg: &mut Registry) {
        reg.count("engine_runs_total", 1);
        reg.count("engine_rounds_total", self.rounds);
        reg.count("engine_transmissions_total", self.transmissions());
        reg.count("engine_listens_total", self.listens());
        reg.count("engine_solved_total", u64::from(self.solved.is_some()));
        reg.count(
            "engine_retired_total{state=\"terminated\"}",
            self.retired_terminated,
        );
        reg.count(
            "engine_retired_total{state=\"crashed\"}",
            self.retired_crashed,
        );
        CHANNEL_KEYS.with_borrow_mut(|keys| {
            while keys.len() < self.channels.len() {
                let ch = keys.len() + 1;
                keys.push(["silence", "message", "collision"].map(|kind| {
                    format!("engine_channel_outcomes_total{{channel=\"{ch}\",kind=\"{kind}\"}}")
                }));
            }
            for (keys, t) in keys.iter().zip(&self.channels) {
                for (key, n) in keys.iter().zip([t.silences, t.messages, t.collisions]) {
                    reg.count(key, n);
                }
            }
        });
        reg.merge_histogram("engine_round_acts", &self.acts_per_round);
        *self = TelemetrySink::default();
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
            local.count("campaign_trials_done_total", 1);
            local.count(
                &format!("fault_injections_total{{kind=\"k{}\"}}", i % 3),
                v % 5,
            );
            local.gauge_max("campaign_queue_depth", v % 97);
            local.observe("campaign_shard_wall_ns", v);
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
            reg.count("engine_rounds_total", 41);
            reg.gauge_max("campaign_workers", 4);
            reg.observe("engine_round_acts", 17);
            reg.observe("engine_round_acts", 3);
        });
        hub.with_shard(1, |reg| reg.count("engine_rounds_total", 1));
        let snap = hub.snapshot();
        let line = snap.to_jsonl_line();
        assert!(line.contains("\"kind\":\"snapshot\""));
        assert!(line.contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
        let parsed = MetricsSnapshot::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.registry.counter("engine_rounds_total"), 42);
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
            reg.count("engine_rounds_total", 7);
            reg.count("fault_injections_total{kind=\"flip\"}", 2);
            reg.count("fault_injections_total{kind=\"jam\"}", 1);
            reg.gauge_max("campaign_workers", 3);
            reg.observe("campaign_shard_wall_ns", 1000);
            reg.observe("campaign_shard_wall_ns", 3000);
        });
        let text = hub.snapshot().render_prometheus();
        // One TYPE line per family even with multiple label sets.
        assert_eq!(text.matches("# TYPE fault_injections_total").count(), 1);
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
        assert_eq!(snap.registry.counter("engine_runs_total"), 1);
        assert_eq!(snap.registry.counter("engine_rounds_total"), 3);
        assert_eq!(
            snap.registry
                .counter("engine_retired_total{state=\"terminated\"}"),
            1
        );
        assert_eq!(
            snap.registry
                .counter("engine_channel_outcomes_total{channel=\"1\",kind=\"message\"}"),
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
        assert_eq!(reg.counter("engine_solved_total"), 1);
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
        let got: BTreeMap<String, u64> = reg
            .counters()
            .iter()
            .filter(|(name, _)| name.starts_with("engine_channel_outcomes_total"))
            .map(|(name, &n)| (name.clone(), n))
            .collect();
        assert_eq!(got, want);
    }
}
