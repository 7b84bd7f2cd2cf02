//! Guard the property, don't just benchmark it: after warm-up,
//! `PeriodAnalyzer::estimate_period` performs **zero** steady-state heap
//! allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator; counters
//! are thread-local so the measurement is immune to other test threads
//! allocating concurrently. As a sanity check, the same harness shows a
//! cold analyzer *does* allocate while it builds its plans — if that
//! ever reads zero the harness itself is broken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f` on this thread.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(|c| c.get());
    let r = f();
    let after = ALLOCS.with(|c| c.get());
    (after - before, r)
}

fn power_trace(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    (0..n)
        .map(|i| 250.0 + 30.0 * (2.0 * std::f64::consts::PI * i as f64 / 10.0).sin() + 3.0 * next())
        .collect()
}

#[test]
fn planned_estimate_period_is_allocation_free_after_warmup() {
    use fluxpm_fft::{PeriodAnalyzer, Samples};

    let mut analyzer = PeriodAnalyzer::new();
    // FPP's production lengths: 15 (Bluestein), 90 (Bluestein), and a
    // power-of-two for the radix-2 path.
    let traces: Vec<Vec<f64>> = [15usize, 90, 128]
        .iter()
        .map(|&n| power_trace(n, 0xA5))
        .collect();

    // Warm-up: builds plans, grows scratch and output buffers.
    for t in &traces {
        analyzer.estimate_period(Samples::contiguous(t), 1.0);
    }

    for t in &traces {
        let (allocs, est) = allocs_during(|| analyzer.estimate_period(Samples::contiguous(t), 1.0));
        assert!(est.is_some(), "periodic trace must yield an estimate");
        assert_eq!(
            allocs,
            0,
            "planned estimate_period allocated {allocs}x at n={}",
            t.len()
        );
    }
}

#[test]
fn planned_path_stays_clean_on_wrapped_views() {
    use fluxpm_fft::{PeriodAnalyzer, Samples};

    let mut analyzer = PeriodAnalyzer::new();
    let trace = power_trace(90, 0x77);
    analyzer.estimate_period(Samples::new(&trace[..40], &trace[40..]), 1.0);

    for split in [1usize, 30, 60, 89] {
        let view = Samples::new(&trace[..split], &trace[split..]);
        let (allocs, est) = allocs_during(|| analyzer.estimate_period(view, 1.0));
        assert!(est.is_some());
        assert_eq!(allocs, 0, "wrapped view split={split} allocated {allocs}x");
    }
}

#[test]
fn unplanned_paths_do_allocate_sanity_check() {
    use fluxpm_fft::{PeriodAnalyzer, Samples};

    // A fresh analyzer has no plans yet for either length: 90 builds a
    // Bluestein plan, 128 (the power of two next to it) a radix-2 one.
    let mut analyzer = PeriodAnalyzer::new();
    for n in [90usize, 128] {
        let trace = power_trace(n, 0xBEEF);
        let (allocs, _) =
            allocs_during(|| analyzer.estimate_period(Samples::contiguous(&trace), 1.0));
        assert!(
            allocs > 0,
            "harness broken: a cold estimate at n={n} shows 0 allocs"
        );
    }
}
