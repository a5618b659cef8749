//! Trace equivalence between the distributed `SplitSearch` and the CREW
//! PRAM search it simulates.
//!
//! The paper's central claim about coalescing cohorts is that they let the
//! distributed system *simulate* Snir's parallel search. This test makes
//! the simulation claim literal: step a `LeafElection` execution round by
//! round, record the sequence of level intervals its search visits, and
//! check that the interval-shrinking schedule is exactly the one
//! `crew_pram::search::split_points` prescribes for the same `(interval,
//! cohort size)` — i.e. every visited interval is a valid subrange of its
//! predecessor's `(p+1)`-ary subdivision, and the number of iterations
//! matches the PRAM iteration count for the found boundary.

use contention::LeafElection;
use crew_pram::search::split_points;
use mac_sim::{Engine, Protocol as _, SimConfig, Status, StepStatus, StopWhen};

/// Steps an election and collects, for each distinct search the lowest-id
/// surviving node performs, the sequence of `(l_min, l_max, c_size)`.
fn interval_traces(c: u32, ids: &[u32]) -> Vec<Vec<(u32, u32, u32)>> {
    let cfg = SimConfig::new(c)
        .seed(0)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000);
    let mut exec = Engine::new(cfg).populated(ids.iter().map(|&id| LeafElection::new(c, id)));
    let mut searches: Vec<Vec<(u32, u32, u32)>> = Vec::new();
    let mut last: Option<(u32, u32, u32)> = None;
    loop {
        let status = exec.step().expect("steps");
        let probe = exec
            .iter_nodes()
            .find(|n| n.status() == Status::Active)
            .and_then(|n| {
                n.search_interval()
                    .map(|(lo, hi)| (lo, hi, n.cohort_size()))
            });
        if probe != last {
            if let Some(interval) = probe {
                let starts_new = last.is_none()
                    || matches!(last, Some((lo, hi, _)) if interval.0 < lo || interval.1 > hi);
                if starts_new {
                    searches.push(vec![interval]);
                } else {
                    searches.last_mut().expect("in a search").push(interval);
                }
            }
            last = probe;
        }
        if status == StepStatus::Finished {
            break;
        }
    }
    searches
}

/// Every consecutive interval pair must be one of the `(p+1)`-ary
/// subranges `split_points` defines — the exact PRAM schedule.
fn assert_pram_schedule(search: &[(u32, u32, u32)]) {
    for pair in search.windows(2) {
        let (lo, hi, p) = pair[0];
        let (nlo, nhi, np) = pair[1];
        assert_eq!(p, np, "cohort size changed mid-search");
        let (seg, k) = split_points(lo as usize, hi as usize, p as usize);
        let level = |j: usize| -> u32 {
            if j >= k {
                hi
            } else {
                lo + (j * seg) as u32
            }
        };
        let valid = (0..k).any(|i| nlo == level(i) && nhi == level(i + 1));
        assert!(
            valid,
            "({nlo}, {nhi}] is not a (p+1)-ary subrange of ({lo}, {hi}] with p = {p}"
        );
    }
    // Iteration count: each recorded interval after the first is one
    // iteration; the total must not exceed the PRAM worst case.
    let (lo0, hi0, p) = search[0];
    let ideal = crew_pram::search::ideal_iterations((hi0 - lo0) as usize, p as usize);
    assert!(
        search.len() - 1 <= ideal,
        "{} iterations > PRAM worst case {ideal}",
        search.len() - 1
    );
}

#[test]
fn split_search_follows_the_pram_schedule_densely() {
    let traces = interval_traces(256, &(1..=128).collect::<Vec<u32>>());
    assert!(!traces.is_empty(), "no searches recorded");
    for search in &traces {
        assert_pram_schedule(search);
    }
    // Dense occupancy coalesces: later searches must run at larger p.
    let first_p = traces.first().expect("nonempty")[0].2;
    let last_p = traces.last().expect("nonempty")[0].2;
    assert!(
        last_p > first_p,
        "cohorts never grew: {first_p} -> {last_p}"
    );
}

#[test]
fn split_search_follows_the_pram_schedule_sparsely() {
    let traces = interval_traces(512, &[3, 9, 77, 130, 200, 250, 14, 95]);
    assert!(!traces.is_empty());
    for search in &traces {
        assert_pram_schedule(search);
    }
}

#[test]
fn two_node_search_is_plain_binary() {
    // With singleton cohorts (p = 1), the PRAM schedule is binary search.
    let traces = interval_traces(128, &[5, 50]);
    let first = &traces[0];
    for pair in first.windows(2) {
        let (lo, hi, _) = pair[0];
        let (nlo, nhi, _) = pair[1];
        let mid = lo + (hi - lo).div_ceil(2);
        assert!(
            (nlo, nhi) == (lo, mid) || (nlo, nhi) == (mid, hi),
            "binary step ({lo},{hi}] -> ({nlo},{nhi}] is not a halving"
        );
    }
}
