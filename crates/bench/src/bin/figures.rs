//! `figures <command> [--flag value]...` — every table and figure of
//! the paper, the ablations, the extensions and the baseline differ
//! (the crate doc lists the commands). Writes the command's artifacts
//! into `--out` and exits 1 when one of its gates fails.

use polystyrene_bench::{figures, ALLOCATIONS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

/// The system allocator with an allocation counter, mirroring the
/// allocation gates in `tests/gates.rs`: `fig_loss_latency` reads it
/// for its `allocs_per_round`. One relaxed atomic add per allocation.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = figures::parse(&argv);
    let failures = (command.run)(&args).finish(&args);
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
