//! Heap-allocation budget of a long traffic stream.
//!
//! The engine's steady-state round loop is meant to run on preallocated
//! scratch, so a stream's allocation count should grow only with the
//! amortized doubling of its per-packet ledgers (`O(log packets)`), never
//! once per arrival round. A counting global allocator, armed on the test
//! thread only, measures one 50,000-round Poisson(0.2) stream (about
//! 10,000 packets) on the `traffic_lossy` stack: `BackoffMac(2, 256)` over
//! `LossyChannel(0.1)` on strong collision detection, two channels.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mac_sim::fault::{Layered, LossyChannel};
use mac_sim::{run_traffic, ArrivalProcess, BackoffMac, CdMode, SimConfig, TrafficSpec};

/// Delegates to [`System`], counting the calls made while the current
/// thread is armed.
struct CountingAlloc;

thread_local! {
    /// `Some(count)` while this thread counts its allocations.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn tally() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = COUNT.try_with(|count| {
        if let Some(n) = count.get() {
            count.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's guarantees for `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations (fresh or resized) made by `f` on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|count| count.set(Some(0)));
    let out = f();
    let n = COUNT.with(|count| count.take()).expect("armed above");
    (out, n)
}

#[test]
fn long_traffic_stream_allocates_only_logarithmically() {
    const ROUNDS: u64 = 50_000;
    let spec = TrafficSpec::new(ArrivalProcess::Poisson { rate: 0.2 }, ROUNDS).horizon(ROUNDS);
    let config = SimConfig::new(2).seed(1).max_rounds(2 * ROUNDS);
    let feedback = Layered::new(LossyChannel::new(0.1), CdMode::Strong);

    let (report, count) = allocations(|| {
        run_traffic(config, feedback, &spec, |packet| {
            BackoffMac::new(2, 256, packet)
        })
    });
    let report = report.expect("a below-knee stream completes");

    assert_eq!(report.rounds, ROUNDS);
    assert!(report.delivered > 9_000, "{} delivered", report.delivered);
    assert!(
        count < 200,
        "{count} heap allocations for {} packets over {ROUNDS} rounds",
        report.offered
    );
}
