//! An allocation ratchet over warm hits.
//!
//! Counts heap allocations (calls to `alloc` and `realloc`) while the
//! stdio session answers the 160 `serve_warm` pool lines — twenty kernels
//! at scale 1 on two machines under four vectorizing schemes — from a warm
//! cache, and holds the count per line to a ceiling. One round compiles
//! and stores the pool; ten counted rounds then answer it into an
//! in-memory sink. A change that allocates more per warm hit fails here;
//! one that allocates less lowers the constant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

use slp_driver::json::Json;
use slp_driver::CompileCache;
use slp_serve::{serve_handler, Handler};

/// The system allocator, counting the blocks it hands out.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// memory the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per warm line the counted rounds may make: the measured
/// 44.2 rounded up to the next five (76.4 while the request line was
/// parsed into a tree and every response encoded into a fresh string).
const CEILING_PER_LINE: u64 = 45;

/// Counted rounds of the pool.
const ROUNDS: usize = 10;

/// Round `round` of the pool, one request per line: the same bytes every
/// round but for the `id`.
fn pool_round(round: usize) -> String {
    let mut kernels: Vec<(String, String)> = (slp::suite::catalog().into_iter())
        .map(|spec| (spec.name.to_string(), slp::suite::source(spec.name, 1)))
        .collect();
    for name in slp::suite::branchy_catalog() {
        kernels.push((name.to_string(), slp::suite::branchy_source(name, 1)));
    }
    let mut lines = String::new();
    let mut entry = 0;
    for (name, source) in &kernels {
        for machine in ["intel", "amd"] {
            for (strategy, layout) in [
                ("native", false),
                ("slp", false),
                ("global", false),
                ("global", true),
            ] {
                let line = Json::obj([
                    ("v", Json::num(1)),
                    ("id", Json::str(format!("r{round}-{entry}"))),
                    ("cmd", Json::str("compile")),
                    ("name", Json::str(name.as_str())),
                    ("source", Json::str(source.as_str())),
                    ("strategy", Json::str(strategy)),
                    ("layout", Json::Bool(layout)),
                    ("machine", Json::str(machine)),
                    ("verify", Json::str("static")),
                ]);
                lines.push_str(&line.to_compact());
                lines.push('\n');
                entry += 1;
            }
        }
    }
    assert_eq!(entry, 160);
    lines
}

/// Allocations made answering `rounds`, and the response bytes.
fn count(handler: &Handler, rounds: &[String]) -> (u64, Vec<u8>) {
    let mut sink = Vec::new();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in rounds {
        serve_handler(Cursor::new(round), &mut sink, handler).expect("in-memory I/O");
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before, sink)
}

// The only test of this file: the counter is process-wide, and nothing
// else may allocate while it is read.
#[test]
fn warm_hits_stay_under_the_allocation_ceiling() {
    let handler = Handler::with_cache(CompileCache::in_memory(1024));
    let rounds: Vec<String> = (0..=2 * ROUNDS).map(pool_round).collect();
    let (_, warming) = count(&handler, &rounds[..1]);
    assert_eq!(handler.cache().stats().stores, 160);
    assert!(!String::from_utf8_lossy(&warming).contains("\"ok\":false"));

    let (total, sink) = count(&handler, &rounds[1..=ROUNDS]);
    let (again, _) = count(&handler, &rounds[ROUNDS + 1..]);
    assert_eq!(total, again, "the count repeats");
    let text = String::from_utf8(sink).expect("responses are UTF-8");
    let lines = (ROUNDS * 160) as u64;
    assert_eq!(text.lines().count() as u64, lines);
    assert!(text.lines().all(|l| l.contains("\"cache\":\"memory\"")));
    assert_eq!(handler.summary().cache_hits, 2 * lines);

    println!(
        "{total} allocations over {lines} warm lines: {:.1} per line",
        total as f64 / lines as f64
    );
    assert!(
        total <= CEILING_PER_LINE * lines,
        "{total} allocations over {lines} warm lines: {:.1} per line, ceiling {CEILING_PER_LINE}",
        total as f64 / lines as f64
    );
}
