//! A fault replay's cycle loop allocates nothing per simulated cycle.
//!
//! A counting global allocator tallies every allocation made on the
//! current thread (the counter is thread-local because tests run in
//! parallel); a lean window replay of thousands of cycles must stay under
//! a small constant number of allocations, whatever its length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ses_arch::{Emulator, ExecutionTrace};
use ses_isa::Program;
use ses_pipeline::{DetectionModel, FaultRun, FaultSpec, Pipeline, PipelineConfig};
use ses_types::Cycle;
use ses_workloads::{synthesize, WorkloadSpec};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// thread-local counter neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread, with its result.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn quick_run() -> (Program, ExecutionTrace) {
    let spec = WorkloadSpec::quick("replay-alloc", 31);
    let program = synthesize(&spec);
    let trace = Emulator::new(&program)
        .run(spec.target_dynamic * 4)
        .expect("golden run");
    (program, trace)
}

/// A replay of the whole run, struck in its last cycle so no detection
/// ends it early, from the from-scratch window base and from a restored
/// snapshot (both lean), under the `none` and `parity` models.
#[test]
fn lean_window_replay_allocates_nothing_per_cycle() {
    let (program, trace) = quick_run();
    let pipeline = Pipeline::new(PipelineConfig::default());
    for detection in [
        DetectionModel::None,
        DetectionModel::Parity { tracking: None },
    ] {
        let (golden, snapshots) = pipeline.run_with_snapshots(&program, &trace, detection, 1_000);
        let fault = FaultSpec::single(Cycle::new(golden.cycles - 1), 0, 9);
        for snapshot in [None, Some(&snapshots[1])] {
            let window = pipeline.fault_window(&program, &trace, snapshot, detection);
            let start = snapshot.map_or(0, |s| s.cycle().as_u64());
            let (allocations, run): (u64, FaultRun) =
                allocations_in(|| window.run_last(fault, false));
            let cycles = run.end_cycle - start;
            assert!(
                cycles >= 5_000,
                "the replay must be long enough to show a per-cycle cost ({cycles} cycles)"
            );
            assert!(
                allocations < 32,
                "{allocations} allocations over a {cycles}-cycle replay from cycle {start} \
                 under {detection:?}"
            );
        }
    }
}
