//! `repro` — regenerate every experiment table from the paper reproduction.
//!
//! ```text
//! repro [--quick] [ids...]
//!
//!   --quick            reduced trial counts / thinned grids (seconds, not minutes)
//!   --tsv              emit tab-separated tables (for plotting) instead of markdown
//!   --record-dir DIR   write one schema-versioned JSONL record file per experiment
//!                      (manifest + cell records) into DIR, checkpointing completed
//!                      rows incrementally as `<id>.jsonl.part`
//!   --resume DIR       like --record-dir DIR, but rows already recorded in DIR
//!                      (from a finished file or a killed run's checkpoint) are
//!                      replayed instead of re-run; output is bit-identical to an
//!                      uninterrupted run
//!   --progress         one throttled stderr line: campaign-wide trials/sec + ETA
//!   --workers N        pin the campaign worker-pool size (default: all cores)
//!   --deadline SECS    cooperative deadline; on expiry the sweep checkpoints and
//!                      exits with code 3 (resume later with --resume)
//!   --self-heal N      isolate panicking trials (N attempts each) instead of
//!                      crashing the sweep; deterministically-failing seeds are
//!                      quarantined into `<record-dir>/quarantine.jsonl`
//!   --chaos-panic-seed S
//!                      fault-inject the runner itself: the trial drawing seed S
//!                      panics on every attempt (implies --self-heal 2); used by
//!                      the CI chaos job to prove the sweep survives and
//!                      quarantines exactly that seed
//!   --metrics-out PATH attach a live metrics hub and write its final snapshot
//!                      to PATH as Prometheus text exposition; with --record-dir
//!                      or --resume, every finished sweep also appends one
//!                      `kind: "snapshot"` JSONL record to DIR/metrics.jsonl
//!                      (a resumed run continues the snapshot stream where the
//!                      killed run left off)
//!   ids                experiment ids to run, e.g. `e1 e9 e16`; default: all
//! ```
//!
//! Exit codes: 0 success, 1 record-dir open failure, 2 usage, 3 deadline
//! expiry (checkpointed; resume later), 4 completed but degraded (checkpoint
//! I/O failed mid-run; tables were computed but records are incomplete).
//!
//! All experiments run on the campaign scheduler (`mac_sim::campaign`):
//! one worker pool spans every cell of every sweep, results stream into
//! `O(1)`-memory aggregates, and completed table rows are checkpointed to
//! the record dir the moment they finish. See docs/CAMPAIGNS.md.

use contention_harness::{experiments, RecordStore, RunCtx, Scale, SweepCancelled};
use mac_sim::campaign::{CancelToken, WORKER_THREAD_PREFIX};
use mac_sim::MetricsHub;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Full;
    let mut tsv = false;
    let mut progress = false;
    let mut record_dir: Option<PathBuf> = None;
    let mut resume = false;
    let mut workers: Option<usize> = None;
    let mut deadline: Option<Duration> = None;
    let mut self_heal: Option<u32> = None;
    let mut chaos_panic_seed: Option<u64> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut iter = args.iter();
    let dir_arg = |iter: &mut std::slice::Iter<String>, flag: &str| -> PathBuf {
        match iter.next() {
            Some(dir) => PathBuf::from(dir),
            None => {
                eprintln!("{flag} needs a path argument");
                std::process::exit(2);
            }
        }
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" | "-q" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            "--tsv" => tsv = true,
            "--progress" => progress = true,
            "--record-dir" => record_dir = Some(dir_arg(&mut iter, "--record-dir")),
            "--resume" => {
                record_dir = Some(dir_arg(&mut iter, "--resume"));
                resume = true;
            }
            "--workers" => match iter.next().and_then(|w| w.parse().ok()) {
                Some(w) if w > 0 => workers = Some(w),
                _ => {
                    eprintln!("--workers needs a positive integer argument");
                    std::process::exit(2);
                }
            },
            "--deadline" => match iter
                .next()
                .and_then(|s| s.parse().ok())
                .filter(|&secs: &f64| secs > 0.0)
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
            {
                Some(timeout) => deadline = Some(timeout),
                _ => {
                    eprintln!("--deadline needs a positive number of seconds");
                    std::process::exit(2);
                }
            },
            "--self-heal" => match iter.next().and_then(|n| n.parse().ok()) {
                Some(n) if n > 0 => self_heal = Some(n),
                _ => {
                    eprintln!("--self-heal needs a positive attempt count");
                    std::process::exit(2);
                }
            },
            "--metrics-out" => metrics_out = Some(dir_arg(&mut iter, "--metrics-out")),
            "--chaos-panic-seed" => match iter.next().and_then(|s| s.parse().ok()) {
                Some(seed) => chaos_panic_seed = Some(seed),
                None => {
                    eprintln!("--chaos-panic-seed needs a u64 seed argument");
                    std::process::exit(2);
                }
            },
            "--list" => {
                for (id, title) in experiments::list() {
                    println!("{id:<5} {title}");
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick] [--tsv] [--record-dir DIR | --resume DIR] \
                     [--progress] [--workers N] [--deadline SECS] [--self-heal N] \
                     [--chaos-panic-seed S] [--metrics-out PATH] [--list] [e1 e2 ... e21]"
                );
                return;
            }
            other => ids.push(other.to_string()),
        }
    }

    let mut ctx = RunCtx::new(scale);
    if let Some(w) = workers {
        ctx = ctx.workers(w);
    }
    if progress {
        ctx = ctx.progress();
    }
    let token = CancelToken::new();
    if let Some(timeout) = deadline {
        token.set_deadline(timeout);
    }
    ctx = ctx.cancel_token(token);
    if chaos_panic_seed.is_some() && self_heal.is_none() {
        // Chaos injection is only useful if the runner is allowed to heal.
        self_heal = Some(2);
    }
    if let Some(attempts) = self_heal {
        ctx = ctx.self_heal(attempts);
    }
    if let Some(seed) = chaos_panic_seed {
        ctx = ctx.chaos_panic_seed(seed);
    }
    let metrics_hub = metrics_out.as_ref().map(|_| {
        // One hub shard per campaign worker: the hot loop tallies into its
        // own shard, and shards merge only at snapshot time.
        let shards =
            workers.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from));
        Arc::new(MetricsHub::new(shards))
    });
    if let Some(hub) = &metrics_hub {
        ctx = ctx.metrics_hub(hub.clone());
    }
    if let Some(dir) = &record_dir {
        let store = if resume {
            RecordStore::resume(dir)
        } else {
            RecordStore::create(dir)
        };
        match store {
            Ok(store) => {
                if resume {
                    // Continue the snapshot stream where the killed run
                    // left off, so seq stays contiguous across resumes.
                    if let Some(hub) = &metrics_hub {
                        hub.set_seq(store.snapshot_count());
                    }
                }
                ctx = ctx.record_store(store);
            }
            Err(e) => {
                eprintln!("cannot open record dir {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    let write_metrics = |hub: &Arc<MetricsHub>| {
        if let Some(path) = &metrics_out {
            if let Err(e) = std::fs::write(path, hub.snapshot().render_prometheus()) {
                eprintln!("warning: cannot write metrics to {}: {e}", path.display());
            }
        }
    };

    // A deadline expiry unwinds out of the sweep with a `SweepCancelled`
    // payload; it is expected control flow, so silence the default hook's
    // backtrace chatter for exactly that payload. Under self-healing, a
    // trial panic on a campaign worker is caught and retried or
    // quarantined, so it gets one line — on a fresh line, clear of the
    // redrawn progress line — instead of a full report.
    let default_hook = std::panic::take_hook();
    let healing = self_heal.is_some();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<SweepCancelled>().is_some() {
            return;
        }
        let thread = std::thread::current();
        match thread.name() {
            Some(name) if healing && name.starts_with(WORKER_THREAD_PREFIX) => {
                let location = info
                    .location()
                    .map_or(String::new(), |l| format!(" at {l}"));
                let message = info.payload_as_str().unwrap_or("non-string panic payload");
                let fresh_line = if progress { "\n" } else { "" };
                eprintln!("{fresh_line}thread '{name}' panicked{location}: {message}");
            }
            _ => default_hook(info),
        }
    }));

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(
        out,
        "# Reproduction: Contention Resolution on Multiple Channels with Collision Detection (PODC 2016)\n"
    )
    .expect("stdout");
    writeln!(out, "_Scale: {scale:?}_\n").expect("stdout");

    let started = Instant::now();
    if ids.is_empty() {
        ids = experiments::list()
            .iter()
            .map(|(id, _)| (*id).into())
            .collect();
    }
    for id in &ids {
        if experiments::by_id(id).is_none() {
            eprintln!("unknown experiment id: {id} (valid: e1..e21)");
            std::process::exit(2);
        }
    }
    for id in &ids {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            experiments::run_one(id, &ctx)
        }));
        match run {
            Ok(Some(report)) => {
                if tsv {
                    for section in &report.sections {
                        writeln!(out, "# {} / {}", report.id, section.caption).expect("stdout");
                        writeln!(out, "{}", section.table.to_tsv()).expect("stdout");
                        writeln!(out).expect("stdout");
                    }
                } else {
                    writeln!(out, "{report}").expect("stdout");
                }
            }
            Ok(None) => unreachable!("ids were validated above"),
            Err(payload) if payload.downcast_ref::<SweepCancelled>().is_some() => {
                ctx.finish_progress();
                if let Some(hub) = &metrics_hub {
                    write_metrics(hub);
                }
                let dir = record_dir
                    .as_ref()
                    .map_or_else(|| "<record dir>".into(), |d| d.display().to_string());
                eprintln!(
                    "\ndeadline reached during {id}: completed rows are checkpointed in {dir}; \
                     rerun with `--resume {dir}` to finish bit-identically"
                );
                std::process::exit(3);
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    ctx.finish_progress();
    if let Some(hub) = &metrics_hub {
        write_metrics(hub);
    }
    writeln!(out, "\n_Total wall time: {:.1?}_", started.elapsed()).expect("stdout");
    if ctx.is_degraded() {
        // Every table above was still computed and printed, but checkpoint
        // I/O failed somewhere along the way: the record files are not a
        // faithful transcript. Distinct from exit 3 (deadline, resumable).
        eprintln!("warning: run completed degraded; record files are incomplete");
        std::process::exit(4);
    }
}
