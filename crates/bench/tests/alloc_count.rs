//! Allocation-count regression gate for the trial path: in steady state
//! (every trial after a scenario's first on a given pool), a trial —
//! building its fault-free [`rn_sim::TrialCtx`] included — performs
//! **zero** heap allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! every `alloc`/`alloc_zeroed`/`realloc` call. The test warms a
//! [`rn_sim::TrialPool`] with one trial per scenario — that trial is allowed
//! to allocate freely (it builds protocol tables, reserves worst-case
//! scratch, memoizes connectivity) — then asserts the allocation counter
//! does not move across subsequent trials.
//!
//! This file is its own integration-test binary on purpose: the global
//! allocator override must not leak into other tests, and the single
//! `#[test]` keeps the harness from running trials concurrently with the
//! measurement.

use rn_bench::ProtocolSpec;
use rn_graph::TopologySpec;
use rn_sim::{CollisionModel, FaultPlan, NetParams, TrialCtx, TrialPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator with a global counter on every allocating entry point.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure forwarding wrapper around `System`; every method delegates
// to the corresponding `System` entry point with unchanged arguments, so
// `System`'s layout/provenance contract is upheld verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System.alloc` with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: forwards to `System.alloc_zeroed` with the caller's layout.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: forwards to `System.realloc` with the caller's pointer/layout.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards to `System.dealloc` with the caller's pointer/layout.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_pooled_trials_allocate_nothing() {
    // The smoke-campaign topology: the cell the committed baseline pins.
    let g = TopologySpec::Rgg { n: 2000, radius: 0.05 }.build(0x5EED);
    let net = NetParams::new(g.n(), g.diameter_double_sweep());
    let mut pool = TrialPool::new();
    // Four families spanning the scratch paths the clear-before-reserve
    // lint reasons about: plain broadcast, Decay's coin batching, the
    // CD compete path (pins CollisionDetection via `effective_model`),
    // and the cluster partition scratch.
    for name in ["broadcast", "decay(16)", "compete_cd(4)", "partition(0.5)"] {
        let runnable = ProtocolSpec::parse(name).instantiate();
        let model = runnable.effective_model(CollisionModel::NoCollisionDetection);
        // Warm-up: the first trial on this (pool, scenario, graph) may
        // allocate — it builds the protocol state, reserves worst-case
        // scratch, and memoizes graph connectivity.
        runnable.run(&TrialCtx::new(&g, net, model, 0, &FaultPlan::none()), &mut pool);
        for seed in 1..=5u64 {
            // The context is built inside the measured window: a
            // fault-free context must not allocate either.
            let before = allocation_count();
            let ctx = TrialCtx::new(&g, net, model, seed, &FaultPlan::none());
            let record = runnable.run(&ctx, &mut pool);
            let during = allocation_count() - before;
            assert!(record.rounds > 0, "{name} seed {seed}: the trial really ran");
            assert_eq!(
                during, 0,
                "{name} seed {seed}: a steady-state pooled trial must not touch \
                 the heap, but performed {during} allocation(s)"
            );
        }
    }
}
