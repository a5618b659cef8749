//! Host-time benchmark of the contention-resolution simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oneshot_anchor --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing attached;
//! `--trace 1` is the traced run, which prints the per-layer metrics and
//! the tracing overhead and writes its spans under `.perfbench_out/`.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object. See `perfbench/README.md` for the design.

mod bench;
mod oneshot;
mod sweep;
mod trace;
mod traffic;
mod wrap;

use std::process::ExitCode;

use bench::{Outcome, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run<W: Workload>(args: &Args) -> Outcome {
    println!(
        "perfbench workload={} seed={} seconds={} trace={} loop={} threads={} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        W::LOOP,
        W::THREADS,
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    );
    if args.trace {
        let dir = std::path::Path::new(".perfbench_out");
        if let Err(e) = std::fs::create_dir_all(dir) {
            println!("cannot create {}: {e}", dir.display());
        }
        let spans = dir.join(format!("{}.spans.tsv", args.workload));
        bench::traced::<W>(args.seed, args.seconds, &spans)
    } else {
        bench::measure::<W>(args.seed, args.seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <oneshot_anchor|traffic_lossy|sweep_sparse> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "oneshot_anchor" => run::<oneshot::OneShot>(&args),
        "traffic_lossy" => run::<traffic::Traffic>(&args),
        "sweep_sparse" => run::<sweep::Sweep>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
