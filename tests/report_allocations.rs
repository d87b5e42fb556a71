//! The deterministic gate on what writing a report costs the allocator.
//!
//! `serde_json::to_string` builds the report's `Value` tree and writes it into one
//! `String`. The writer formats numbers and escapes straight into that buffer, so
//! what it allocates beyond the tree is the buffer's doublings — a count that grows
//! with the logarithm of the output, not with the number of integers in the report
//! (one `String` each before). Wall clock cannot gate that; an allocation count
//! can. This binary installs a counting `#[global_allocator]` that forwards to
//! `System` — an integration test is its own crate, so the library crates keep
//! `#![forbid(unsafe_code)]` — and holds a single test, because the counter is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Serialize, Value};
use uba_core::sim::{AdversaryKind, ScenarioExt, Simulation};

/// Allocations made so far (`alloc` and `realloc` both count).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is an atomic and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `work` makes, and its result.
fn counted<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = work();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, result)
}

fn integers(value: &Value) -> u64 {
    match value {
        Value::U64(_) | Value::I64(_) => 1,
        Value::Array(items) => items.iter().map(integers).sum(),
        Value::Object(fields) => fields.iter().map(|(_, value)| integers(value)).sum(),
        _ => 0,
    }
}

/// What writing one split-vote consensus report costs beyond its `Value` tree.
struct Written {
    /// Allocations of `to_string` minus those of `to_value`.
    beyond_the_tree: u64,
    integers: u64,
    bytes: usize,
}

fn write_consensus_report(correct: usize, byzantine: usize) -> Written {
    let inputs: Vec<u64> = (0..correct as u64).map(|i| i % 2).collect();
    let report = Simulation::scenario()
        .correct(correct)
        .byzantine(byzantine)
        .seed(0x1B0C)
        .adversary(AdversaryKind::SplitVote)
        .consensus(&inputs)
        .run()
        .expect("nothing is forged");
    assert!(report.completed());
    let (tree, value) = counted(|| report.to_value());
    let (written, json) = counted(|| serde_json::to_string(&report).expect("reports serialise"));
    assert_eq!(serde_json::from_str::<Value>(&json).unwrap(), value);
    Written {
        beyond_the_tree: written - tree,
        integers: integers(&value),
        bytes: json.len(),
    }
}

#[test]
fn writing_a_report_allocates_per_buffer_doubling_not_per_integer() {
    let small = write_consensus_report(11, 5);
    let large = write_consensus_report(43, 21);
    // The larger report holds hundreds more integers …
    assert!(
        large.integers >= small.integers + 200 && large.bytes >= 2 * small.bytes,
        "{} integers in {} bytes against {} in {}",
        large.integers,
        large.bytes,
        small.integers,
        small.bytes
    );
    for written in [&small, &large] {
        // … and each is written into a buffer that starts empty and doubles.
        let doublings = u64::from(usize::BITS - written.bytes.leading_zeros());
        assert!(
            written.beyond_the_tree <= doublings,
            "{} allocations beyond the tree for {} bytes ({} integers)",
            written.beyond_the_tree,
            written.bytes,
            written.integers
        );
    }
    // Going from one size to the other costs the doublings between them.
    assert!(
        large.beyond_the_tree <= small.beyond_the_tree + 3,
        "{} → {} allocations beyond the tree for {} → {} bytes",
        small.beyond_the_tree,
        large.beyond_the_tree,
        small.bytes,
        large.bytes
    );
}
