//! Build-memory guard: a domain build sizes every column vector once.
//!
//! The generators hand `Table::push_rows` an iterator of known length,
//! and `push_rows` reserves that many rows before appending. So no
//! column vector grows by doubling during a build, and none is shrunk at
//! its end: the process does not fragment its heap with the freed
//! doubling buffers, and a second build (a snapshot reload) fits in the
//! memory the first one released.
//!
//! A counting global allocator records every reallocation that touches
//! a column-sized block (64 KiB or more) while a Full domain builds,
//! twice in a row, and checks that the data profile computed at the end
//! of the build accounts for all of them. This file holds one test, so
//! no other test of this binary allocates while the counter is armed.

use sb_data::{Domain, SizeClass};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The smallest block counted: a column of 8,192 eight-byte cells.
const BLOCK: usize = 64 * 1024;

/// How many reallocations are kept for the failure message.
const KEPT: usize = 64;

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicUsize = AtomicUsize::new(0);
static OLD: [AtomicUsize; KEPT] = [const { AtomicUsize::new(0) }; KEPT];
static NEW: [AtomicUsize; KEPT] = [const { AtomicUsize::new(0) }; KEPT];

/// The system allocator, counting large reallocations while armed.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator and returns its result; the counting touches only atomics
// and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) && layout.size().max(new_size) >= BLOCK {
            let k = COUNT.fetch_add(1, Ordering::Relaxed);
            if k < KEPT {
                OLD[k].store(layout.size(), Ordering::Relaxed);
                NEW[k].store(new_size, Ordering::Relaxed);
            }
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The large reallocations made while `f` runs, as `(old, new)` byte
/// sizes (at most [`KEPT`] of them) and their total count.
fn large_reallocs(f: impl FnOnce()) -> (Vec<(usize, usize)>, usize) {
    COUNT.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    let n = COUNT.load(Ordering::Relaxed);
    let kept = (0..n.min(KEPT))
        .map(|k| {
            (
                OLD[k].load(Ordering::Relaxed),
                NEW[k].load(Ordering::Relaxed),
            )
        })
        .collect();
    (kept, n)
}

#[test]
fn full_domain_builds_never_regrow_a_column() {
    for domain in Domain::ALL {
        // Build, drop, build again: the second build runs in the memory
        // the first one released, as a snapshot reload does.
        for build in ["first", "second"] {
            let mut data = None;
            let (built, n) = large_reallocs(|| data = Some(domain.build(SizeClass::Full)));
            let db = data.expect("built").db;
            assert!(db.total_rows() > 0, "{} built no rows", domain.name());
            // The build ends by profiling its content, whose reused
            // tally buffers may grow; every other large reallocation
            // would be a column vector growing or being trimmed.
            let (profiled, m) = large_reallocs(|| drop(sb_engine::profile_database(&db)));
            assert_eq!(
                (n, &built),
                (m, &profiled),
                "{} {build} Full build: (count, [(old, new) bytes]) of its \
                 reallocations of blocks of 64 KiB or more, left, against \
                 those of profiling its content, right",
                domain.name()
            );
        }
    }
}
