//! `contend` — run one contention-resolution session from the command line.
//!
//! ```text
//! contend [--algo NAME] [--channels C] [--universe N] [--active K]
//!         [--seed S] [--trials T] [--trace] [--complete]
//!
//!   --algo      paper | supervised | two-active | tournament | descent |
//!               tree-split | willard | decay | multichannel-nocd |
//!               expected                         (default: paper)
//!               (`supervised` wraps the paper stack in restart-with-backoff
//!               recovery: 4 attempts, 250-round slices — see docs/ROBUSTNESS.md)
//!   --channels  number of channels C            (default: 64)
//!   --universe  universe size n                 (default: 4096)
//!   --active    activated nodes |A|             (default: 100)
//!   --seed      master seed                     (default: 0)
//!   --trials    run T seeded sessions (seed, seed+1, …) through the
//!               campaign scheduler and print streamed summary statistics
//!               instead of one run's story            (default: 1)
//!   --trace     print the channel-activity chart of the run
//!   --complete  run until every node terminates (default: stop at solve)
//!   --metrics   append the session-layer telemetry (runs, rounds, energy,
//!               solve-round histogram, supervised restarts) as Prometheus
//!               text exposition after the human-readable output
//! ```

use std::collections::BTreeMap;

use contention::session::{Algorithm, Session};
use contention::Params;
use contention_harness::Samples;
use mac_sim::campaign::{Campaign, Cell, SeedStream};
use mac_sim::{MetricsHub, Trace};

struct Args {
    algo: Algorithm,
    channels: u32,
    universe: u64,
    active: usize,
    seed: u64,
    trials: usize,
    trace: bool,
    complete: bool,
    metrics: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        algo: Algorithm::Paper(Params::practical()),
        channels: 64,
        universe: 4096,
        active: 100,
        seed: 0,
        trials: 1,
        trace: false,
        complete: false,
        metrics: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--algo" => {
                args.algo = match value("--algo")?.as_str() {
                    "paper" => Algorithm::Paper(Params::practical()),
                    "supervised" => Algorithm::SupervisedPaper(
                        Params::practical(),
                        contention::RestartPolicy::new(250, 4),
                    ),
                    "paper-literal" => Algorithm::Paper(Params::paper()),
                    "two-active" => Algorithm::TwoActive,
                    "tournament" => Algorithm::CdTournament,
                    "descent" => Algorithm::BinaryDescent,
                    "tree-split" => Algorithm::TreeSplit,
                    "decay" => Algorithm::Decay,
                    "multichannel-nocd" => Algorithm::MultiChannelNoCd,
                    "expected" => Algorithm::ExpectedConstant,
                    "willard" => Algorithm::Willard,
                    other => return Err(format!("unknown algorithm: {other}")),
                };
            }
            "--channels" | "-c" => {
                args.channels = value("--channels")?
                    .parse()
                    .map_err(|e| format!("--channels: {e}"))?;
                if args.channels == 0 {
                    return Err("--channels must be at least 1".to_string());
                }
            }
            "--universe" | "-n" => {
                args.universe = value("--universe")?
                    .parse()
                    .map_err(|e| format!("--universe: {e}"))?;
                if args.universe < 2 {
                    return Err("--universe must be at least 2".to_string());
                }
            }
            "--active" | "-k" => {
                args.active = value("--active")?
                    .parse()
                    .map_err(|e| format!("--active: {e}"))?;
            }
            "--seed" | "-s" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--trials" | "-t" => {
                args.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
                if args.trials == 0 {
                    return Err("--trials must be at least 1".to_string());
                }
            }
            "--trace" => args.trace = true,
            "--complete" => args.complete = true,
            "--metrics" => args.metrics = true,
            "--help" | "-h" => {
                println!(
                    "usage: contend [--algo NAME] [--channels C] [--universe N] \
                     [--active K] [--seed S] [--trials T] [--trace] [--complete] \
                     [--metrics]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

/// Streamed multi-trial mode: `--trials T` schedules one campaign cell of
/// `T` seeded sessions (seed, seed+1, …) and folds every run into online
/// summaries — constant memory however many trials are requested, and the
/// same scheduler (and determinism contract) the experiment sweeps use.
fn run_batch(args: &Args) {
    type Agg = (Samples, Samples, Samples, u64);
    let hub = args.metrics.then(|| MetricsHub::new(1));
    let cell = Cell::new(
        args.trials,
        SeedStream::Offset(args.seed),
        Agg::default,
        |seed, acc: &mut Agg| {
            let session = Session::new(args.channels, args.universe)
                .algorithm(args.algo)
                .seed(seed)
                .run_to_completion(args.complete);
            let resolution = session.run(args.active).unwrap_or_else(|e| {
                eprintln!("error: trial with seed {seed} failed: {e}");
                std::process::exit(1);
            });
            if let Some(hub) = &hub {
                hub.with_shard(0, |reg| resolution.record_telemetry(reg));
            }
            if let Some(r) = resolution.report.rounds_to_solve() {
                acc.0.push(r);
                acc.3 += 1;
            }
            acc.1.push(resolution.report.metrics.transmissions);
            acc.2.push(resolution.report.metrics.listens);
        },
    );
    let mut campaign = Campaign::new();
    campaign.push(cell);
    let (rounds, tx, rx, solved) = campaign
        .run_collect()
        .pop()
        .expect("one cell yields one aggregate");

    println!(
        "{} trials: C={} n={} |A|={} seeds {}..{}",
        args.trials,
        args.channels,
        args.universe,
        args.active,
        args.seed,
        args.seed.wrapping_add(args.trials as u64)
    );
    println!("solved: {solved}/{}", args.trials);
    if solved > 0 {
        println!(
            "rounds to solve: mean {:.1}, p95 {:.1}, max {:.0}",
            rounds.mean(),
            rounds.percentile(95.0),
            rounds.max()
        );
    }
    println!(
        "energy per trial: mean {:.1} transmissions, mean {:.1} listens",
        tx.mean(),
        rx.mean()
    );
    if let Some(hub) = &hub {
        print!("\n{}", hub.snapshot().render_prometheus());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };

    if args.trials > 1 {
        run_batch(&args);
        return;
    }

    let session = Session::new(args.channels, args.universe)
        .algorithm(args.algo)
        .seed(args.seed)
        .run_to_completion(args.complete);

    let mut trace = Trace::new();
    match session.run_observed(args.active, &mut trace) {
        Ok(resolution) => {
            println!(
                "{}: C={} n={} |A|={} seed={}",
                resolution.algorithm, args.channels, args.universe, args.active, args.seed
            );
            match resolution.report.solved_round {
                Some(round) => println!("solved in round {round} ({} rounds)", round + 1),
                None => println!("run ended without a lone primary-channel transmission"),
            }
            if let Some(solver) = resolution.report.solver {
                println!("solving transmission by node {solver}");
            }
            println!(
                "energy: {} transmissions, {} listens",
                resolution.report.metrics.transmissions, resolution.report.metrics.listens
            );
            if resolution.restarts() > 0 {
                println!(
                    "supervision: solver restarted {} time(s), {} rounds spent in \
                     abandoned attempts",
                    resolution.restarts(),
                    resolution.restart_rounds()
                );
            }
            let mut rounds_by_phase = BTreeMap::new();
            for round in trace.rounds() {
                *rounds_by_phase.entry(round.phase).or_insert(0u64) += 1;
            }
            let mut phases: Vec<String> = rounds_by_phase
                .iter()
                .map(|(p, r)| format!("{p}={r}"))
                .collect();
            // Sorted as `label=count` text, which orders `le-pair` before
            // a bare `le`; the map's label order would not.
            phases.sort();
            println!("rounds by phase: {}", phases.join(" "));
            if args.trace {
                println!("\nactivity (S silence, M message, X collision):");
                print!("{}", mac_sim::render::activity_chart(&trace, 60));
            }
            if args.metrics {
                let hub = MetricsHub::new(1);
                hub.with_shard(0, |reg| resolution.record_telemetry(reg));
                print!("\n{}", hub.snapshot().render_prometheus());
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
