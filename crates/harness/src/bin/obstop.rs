//! `obstop` — live TTY dashboard over a campaign's telemetry stream.
//!
//! ```text
//! obstop <record-dir | metrics.jsonl> [--interval MS] [--once]
//!
//!   <path>         a `repro --record-dir` directory (its `metrics.jsonl`
//!                  is tailed) or a snapshot JSONL file directly
//!   --interval MS  redraw period in milliseconds       (default: 1000)
//!   --once         render a single frame without clearing the screen and
//!                  exit — what CI uses to prove the dashboard renders
//! ```
//!
//! The dashboard is file-based: `repro --metrics-out ... --record-dir DIR`
//! appends one `kind: "snapshot"` record to `DIR/metrics.jsonl` per
//! finished sweep, and `obstop` re-reads the stream every interval. The
//! top lines summarise scheduler progress (trials, shards, queue depth,
//! self-heal state) with a throughput estimate from successive frames;
//! every histogram in the snapshot renders as a power-of-two-bucket
//! sparkline. A half-written trailing line (the writer is mid-append) is
//! skipped, never an error.
//!
//! Exit codes: 0 clean, 1 stream missing/empty under `--once`, 2 usage.

use mac_sim::obs::Json;
use mac_sim::{MetricsSnapshot, PowHistogram};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Args {
    path: PathBuf,
    interval: Duration,
    once: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<PathBuf> = None;
    let mut interval = Duration::from_millis(1000);
    let mut once = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--interval needs a value")?
                    .parse()
                    .map_err(|e| format!("--interval: {e}"))?;
                if ms == 0 {
                    return Err("--interval must be at least 1ms".into());
                }
                interval = Duration::from_millis(ms);
            }
            "--once" => once = true,
            "--help" | "-h" => {
                println!("usage: obstop <record-dir | metrics.jsonl> [--interval MS] [--once]");
                std::process::exit(0);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other => {
                if path.replace(PathBuf::from(other)).is_some() {
                    return Err("obstop takes exactly one path".into());
                }
            }
        }
    }
    let mut path = path.ok_or("obstop needs a record dir or metrics.jsonl path")?;
    if path.is_dir() {
        path = path.join("metrics.jsonl");
    }
    Ok(Args {
        path,
        interval,
        once,
    })
}

/// Reads every parseable snapshot in the stream, in file order. The
/// writer appends and flushes line-atomically, but a reader can still
/// catch a torn tail on some filesystems; unparseable lines are skipped.
fn load_snapshots(path: &std::path::Path) -> Vec<MetricsSnapshot> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| MetricsSnapshot::from_json(&Json::parse(line).ok()?).ok())
        .collect()
}

/// Scales the histogram's power-of-two buckets into a fixed-width bar
/// strip. Wider-than-width bucket spans merge adjacent buckets, so the
/// shape survives at any scale.
fn sparkline(h: &PowHistogram, width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let buckets = h.buckets();
    let (Some(&lo), Some(&hi)) = (buckets.keys().min(), buckets.keys().max()) else {
        return "—".to_string();
    };
    let span = (hi - lo + 1) as usize;
    let per_cell = span.div_ceil(width).max(1);
    let cells = span.div_ceil(per_cell);
    let mut counts = vec![0u64; cells];
    for (&bucket, &count) in buckets {
        counts[(bucket - lo) as usize / per_cell] += count;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                ' '
            } else {
                let idx = (c * (BARS.len() as u64 - 1)).div_ceil(peak) as usize;
                BARS[idx.min(BARS.len() - 1)]
            }
        })
        .collect()
}

/// Renders a nanosecond quantity at a human scale.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.1}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// One dashboard frame, rendered from the latest snapshot. `rate` is the
/// trials-per-second estimate from the previous frame, when one exists.
fn render(snap: &MetricsSnapshot, stream_len: usize, rate: Option<f64>, source: &str) -> String {
    let reg = &snap.registry;
    let counter = |name: &str| reg.counter(name);
    let gauge = |name: &str| reg.gauges().get(name).copied().unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "obstop — {source}  (snapshot #{}, {} in stream)",
        snap.seq, stream_len
    );
    let _ = writeln!(
        out,
        "campaign   trials {}  cells {}  shards {}  queue {}  workers {}",
        counter("campaign_trials_done_total"),
        counter("campaign_cells_delivered_total"),
        counter("campaign_shards_claimed_total"),
        gauge("campaign_queue_depth"),
        gauge("campaign_workers"),
    );
    let queue = gauge("campaign_queue_depth");
    let workers = gauge("campaign_workers").max(1);
    let mean_shard_ns = reg
        .histograms()
        .get("campaign_shard_wall_ns")
        .map_or(0.0, PowHistogram::mean);
    #[allow(clippy::cast_precision_loss)]
    let eta = queue as f64 * mean_shard_ns / workers as f64 / 1e9;
    // A fresh or idle stream has no queue or no completed shard yet: there
    // is no estimate, and "ETA 0s" (or worse, inf/NaN) would lie about it.
    let eta = if queue == 0 || mean_shard_ns <= 0.0 || !eta.is_finite() {
        "—".to_string()
    } else {
        format!("{eta:.0}s")
    };
    match rate {
        Some(rate) if rate.is_finite() => {
            let _ = writeln!(out, "           rate {rate:.0} trials/s  ETA {eta}");
        }
        Some(_) => {
            let _ = writeln!(out, "           rate —  ETA {eta}");
        }
        None => {
            let _ = writeln!(out, "           ETA {eta} (queue × mean shard wall)");
        }
    }
    let _ = writeln!(
        out,
        "heal       retried {}  quarantined {}",
        counter("campaign_trials_retried_total"),
        counter("campaign_trials_quarantined_total"),
    );
    // Everything the summary lines above did not consume, grouped so the
    // engine/session/fault layers read as their own blocks.
    let shown = [
        "campaign_trials_done_total",
        "campaign_cells_delivered_total",
        "campaign_shards_claimed_total",
        "campaign_trials_retried_total",
        "campaign_trials_quarantined_total",
        "campaign_worker_busy_ns_total",
    ];
    let rest: Vec<(&String, &u64)> = reg
        .counters()
        .iter()
        .filter(|(name, _)| !shown.contains(&name.as_str()))
        .collect();
    let busy = counter("campaign_worker_busy_ns_total");
    if !rest.is_empty() || busy > 0 {
        let _ = writeln!(out, "counters");
        for (name, value) in rest {
            let _ = writeln!(out, "  {name:<44} {value}");
        }
        if busy > 0 {
            #[allow(clippy::cast_precision_loss)]
            let _ = writeln!(
                out,
                "  {:<44} {}",
                "campaign_worker_busy_ns_total",
                fmt_ns(busy as f64)
            );
        }
    }
    if !reg.histograms().is_empty() {
        let _ = writeln!(out, "histograms");
        for (name, h) in reg.histograms() {
            let mean = if h.count() == 0 {
                "—".to_string()
            } else if name.contains("_ns") {
                fmt_ns(h.mean())
            } else {
                format!("{:.1}", h.mean())
            };
            let _ = writeln!(
                out,
                "  {name:<34} n={:<7} mean={mean:<9} |{}|",
                h.count(),
                sparkline(h, 32)
            );
        }
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let source = args.path.display().to_string();
    let mut prev: Option<(Instant, u64)> = None;
    loop {
        let snapshots = load_snapshots(&args.path);
        match snapshots.last() {
            Some(snap) => {
                let done = snap.registry.counter("campaign_trials_done_total");
                #[allow(clippy::cast_precision_loss)]
                let rate = prev.map(|(at, was)| {
                    let dt = at.elapsed().as_secs_f64().max(1e-9);
                    done.saturating_sub(was) as f64 / dt
                });
                prev = Some((Instant::now(), done));
                let frame = render(snap, snapshots.len(), rate, &source);
                if args.once {
                    print!("{frame}");
                } else {
                    // Clear, home, draw: one flicker-free frame per interval.
                    print!("\x1b[2J\x1b[H{frame}");
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                }
            }
            None if args.once => {
                eprintln!("obstop: no snapshots in {source}");
                std::process::exit(1);
            }
            None => {
                print!("\x1b[2J\x1b[Hobstop — {source}  (waiting for snapshots)\r\n");
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
            }
        }
        if args.once {
            return;
        }
        std::thread::sleep(args.interval);
    }
}
