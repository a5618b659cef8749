//! Bench target for the campaign scheduler itself: the same sweep (a grid
//! of full-algorithm cells, each a batch of engine runs) executed three
//! ways, so the cost of trial fan-out strategy is visible in isolation:
//!
//! * `schedule/campaign_pool` — the campaign layer: one persistent worker
//!   pool spans every cell, work-stealing seed-sharded chunks;
//! * `schedule/per_cell_spawn` — the pre-campaign harness idiom: each cell
//!   spawns (and joins) its own scoped worker set, paying thread startup
//!   and a barrier per grid point;
//! * `schedule/sequential` — the single-threaded floor.
//!
//! Like `bench_round_engine`, this bench has a custom `main`: after the
//! runs it exports the measurements as schema-versioned JSONL
//! (`BENCH_campaign.json` at the workspace root — `kind: "bench"` records,
//! diffable with `obsdiff`) and exits non-zero if the write fails.

use contention::{FullAlgorithm, Params};
use contention_harness::record;
use criterion::{criterion_group, take_results, Criterion};
use mac_sim::campaign::{Campaign, Cell, SeedStream};
use mac_sim::{Engine, SimConfig};
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;

const C: u32 = 16;
const N: u64 = 1 << 12;
const ACTIVE: usize = 48;
const CELLS: usize = 24;
const TRIALS: usize = 16;

/// One trial: a full-algorithm run at a mid-size grid point — heavy enough
/// that scheduling overhead is the signal, not the noise.
fn trial(seed: u64) -> u64 {
    let mut exec = Engine::new(SimConfig::new(C).seed(seed).max_rounds(10_000_000));
    for _ in 0..ACTIVE {
        exec.add_node(FullAlgorithm::new(Params::practical(), C, N));
    }
    let report = exec.run().expect("solves");
    report
        .rounds_to_solve()
        .expect("full algorithm always solves")
}

/// The per-cell aggregate: (total rounds, trial count).
type Agg = (u64, u64);

fn seeds() -> Vec<SeedStream> {
    (0..CELLS as u64).map(SeedStream::Derived).collect()
}

fn campaign_pool() -> Vec<Agg> {
    let mut campaign = Campaign::new();
    for stream in seeds() {
        campaign.push(Cell::new(TRIALS, stream, Agg::default, |seed, acc| {
            acc.0 += trial(seed);
            acc.1 += 1;
        }));
    }
    campaign.run_collect()
}

fn per_cell_spawn(workers: usize) -> Vec<Agg> {
    seeds()
        .into_iter()
        .map(|stream| {
            // Fresh threads per cell, joined before the next cell starts —
            // the fan-out shape every experiment used before the campaign
            // layer existed.
            let partials = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let stream = &stream;
                        scope.spawn(move || {
                            let mut acc = Agg::default();
                            for i in (w..TRIALS).step_by(workers) {
                                acc.0 += trial(stream.seed(i as u64));
                                acc.1 += 1;
                            }
                            acc
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker"))
                    .collect::<Vec<_>>()
            });
            partials
                .into_iter()
                .fold(Agg::default(), |a, b| (a.0 + b.0, a.1 + b.1))
        })
        .collect()
}

fn sequential() -> Vec<Agg> {
    seeds()
        .into_iter()
        .map(|stream| {
            let mut acc = Agg::default();
            for i in 0..TRIALS as u64 {
                acc.0 += trial(stream.seed(i));
                acc.1 += 1;
            }
            acc
        })
        .collect()
}

fn bench_campaign(criterion: &mut Criterion) {
    let workers = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let mut group = criterion.benchmark_group(format!(
        "campaign({CELLS}cells x {TRIALS}trials,full C={C} |A|={ACTIVE})"
    ));
    group.measurement_time(std::time::Duration::from_secs(2));

    // All three paths must agree before any of them is worth timing.
    assert_eq!(campaign_pool(), sequential());
    assert_eq!(per_cell_spawn(workers), sequential());

    group.bench_function("schedule/campaign_pool", |b| {
        b.iter(|| black_box(campaign_pool()));
    });
    group.bench_function("schedule/per_cell_spawn", |b| {
        b.iter(|| black_box(per_cell_spawn(workers)));
    });
    group.bench_function("schedule/sequential", |b| {
        b.iter(|| black_box(sequential()));
    });

    group.finish();
}

criterion_group!(benches, bench_campaign);

fn main() -> ExitCode {
    benches();
    // Export the measurements in the run-record JSONL schema so obsdiff
    // (and CI) can compare bench runs the same way it compares trials. A
    // failed write fails the bench, so CI never trends a stale export.
    let lines: Vec<String> = take_results()
        .iter()
        .map(|r| record::bench_record(&r.name, r.mean_ns, r.iters).render())
        .collect();
    let out = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_campaign.json"
    ));
    match record::write_jsonl(out, &lines) {
        Ok(()) => {
            eprintln!("wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}
