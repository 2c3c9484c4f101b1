//! Peak heap of replicated batches: neither a replicated grid nor a
//! scenario run may keep every replicate's bulk (the exact-p80
//! distributions, the per-ME snapshots) until its last job ends. A
//! counting global allocator tracks the process's live and peak heap
//! bytes. Every batch runs on `Runner::serial()`, so each peak is
//! deterministic, and the many-seed run of a batch must peak at most
//! 1.5× its few-seed run. A batch whose jobs return their whole result
//! instead peaks linearly in the seed count: about 11 kB more per
//! replicate of these 400 000-cycle grid cells, 4.3× at 16 seeds.
//!
//! The counters are process-wide, so this binary holds one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use abdex::compare::ComparisonConfig;
use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{run_grid, try_run_scenario, Grid, Runner};

/// Heap bytes live right now, and the most live since the last reset.
/// Statistics only: they publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// The system allocator, counting the bytes it hands out.
struct Counting;

// SAFETY: each method forwards the caller's arguments to `System`
// unchanged, so `System`'s guarantees are this allocator's. The
// bookkeeping only touches two static atomics, which never allocate or
// re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most heap `batch` held live at once, above what was live when it
/// started; its result counts until the peak is read.
fn peak_heap<T>(batch: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = batch();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    drop(result);
    peak
}

/// Asserts that `many` seeds peak at most 1.5× `few` seeds.
fn assert_bounded(what: &str, (few, few_peak): (u64, usize), (many, many_peak): (u64, usize)) {
    eprintln!("{what}: peak heap {few_peak} B at {few} seeds, {many_peak} B at {many} seeds");
    assert!(
        many_peak as f64 <= 1.5 * few_peak as f64,
        "{what}: {many} seeds peaked at {many_peak} B, over 1.5x the {few_peak} B of {few} seeds"
    );
}

#[test]
fn peak_heap_does_not_grow_with_replicates() {
    let runner = Runner::serial();

    let config = ComparisonConfig {
        cycles: 400_000,
        ..ComparisonConfig::default()
    };
    let grid = Grid::compare(&[Benchmark::Ipfwdr], &[TrafficLevel::High.into()], &config);
    assert_eq!(grid.cells().len(), 6);
    let grid_peak = |seeds: u64| {
        let peak = peak_heap(|| {
            let run = run_grid(&runner, &grid, seeds);
            assert!(run.failures.is_empty(), "{:?}", run.failures);
            run
        });
        (seeds, peak)
    };
    // The first batch also pays one-time set-up (registries, profiler
    // state), so it is not measured.
    grid_peak(2);
    assert_bounded("compare grid", grid_peak(2), grid_peak(16));

    let mut scenario = abdex::scenario::builtin("burst-storm").expect("a built-in scenario");
    scenario.cycles = 2_000_000;
    let mut scenario_peak = |seeds: u64| {
        scenario.seeds = seeds;
        let peak = peak_heap(|| {
            let (run, errors) = try_run_scenario(&runner, &scenario);
            assert!(errors.is_empty(), "{errors:?}");
            run
        });
        (seeds, peak)
    };
    assert_bounded("burst-storm scenario", scenario_peak(2), scenario_peak(16));
}
