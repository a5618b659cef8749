//! Property-based and cross-program tests for the CREW PRAM substrate.

use crew_pram::search::{ideal_iterations, snir_boundary, snir_lower_bound};
use crew_pram::{Machine, MemView, Processor, StepOutcome, Word, Write};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn lower_bound_matches_partition_point(
        mut sorted in vec(-500i64..500, 0..150),
        target in -600i64..600,
        p in 1usize..16,
    ) {
        sorted.sort_unstable();
        let got = snir_lower_bound(&sorted, target, p).expect("runs").index;
        prop_assert_eq!(got, sorted.partition_point(|&x| x < target));
    }

    #[test]
    fn worst_case_iterations_shrink_with_processors(
        range in 1usize..10_000,
        p_small in 1usize..8,
        p_extra in 1usize..32,
    ) {
        // Per-instance counts can wobble by one with probe-grid alignment,
        // but the worst case over the range is monotone in p.
        let small = ideal_iterations(range, p_small);
        let large = ideal_iterations(range, p_small + p_extra);
        prop_assert!(large <= small, "p={} {} vs p={} {}", p_small, small, p_small + p_extra, large);
    }

    #[test]
    fn ideal_iterations_upper_bounds_reality(zeros in 0usize..200, p in 1usize..32) {
        let mut bits = vec![false; zeros];
        bits.push(true);
        let real = snir_boundary(&bits, p).expect("runs").iterations;
        prop_assert!(real <= ideal_iterations(bits.len(), p));
    }
}

/// Two programs back-to-back on the same machine memory, checking that
/// `Machine` state carries over cleanly between `run` calls.
#[test]
fn machine_reuse_across_programs() {
    struct Doubler {
        cell: usize,
    }
    impl Processor for Doubler {
        fn step(&mut self, _step: usize, mem: &MemView<'_>) -> StepOutcome {
            StepOutcome::Halt(vec![Write::new(self.cell, mem.read(self.cell) * 2)])
        }
    }

    let mut machine = Machine::new(4);
    for i in 0..4 {
        machine.store(i, i as Word + 1); // [1, 2, 3, 4]
    }
    let mut procs: Vec<Box<dyn Processor>> =
        (0..4).map(|cell| Box::new(Doubler { cell }) as _).collect();
    machine.run(&mut procs, 5).expect("first program");
    assert_eq!(machine.memory(), &[2, 4, 6, 8]);

    // Second program on the same memory.
    let mut procs: Vec<Box<dyn Processor>> =
        (0..4).map(|cell| Box::new(Doubler { cell }) as _).collect();
    machine.run(&mut procs, 5).expect("second program");
    assert_eq!(machine.memory(), &[4, 8, 12, 16]);
}

/// The searched interval of `snir_boundary` shrinks monotonically — checked
/// indirectly: iteration counts for nested predicates are consistent.
#[test]
fn search_cost_is_boundary_independent_up_to_one() {
    // For fixed m and p, the iteration count may vary by at most 1 across
    // boundary positions (ceil effects), never more.
    let (m, p) = (257usize, 5usize);
    let mut counts = std::collections::BTreeSet::new();
    for ans in 1..=m {
        let bits: Vec<bool> = (1..=m).map(|j| j >= ans).collect();
        counts.insert(snir_boundary(&bits, p).expect("runs").iterations);
    }
    assert!(
        counts.len() <= 2,
        "iteration counts vary too much: {counts:?}"
    );
}
