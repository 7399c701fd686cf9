//! The batched evaluator's allocation bound: a batch travels the cascade as
//! one block in two grow-only arenas, so once warm a `classify_batch` call
//! allocates its output vectors and index lists — a handful, whatever the
//! batch size and however many layers it runs — and a later, smaller batch
//! grows no buffer. (When activations moved as one `Tensor` per image per
//! layer this was at least two allocations per image per layer: ~6 000 for
//! 256 images through MNIST_3C.)
//!
//! A binary of its own: the counting allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cdl::core::batch::BatchEvaluator;
use cdl::core::confidence::ExitOverride;
use cdl::core::persist::SavedCdl;
use cdl::dataset::SyntheticMnist;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the thread-local counter is a `const`-initialised
// `Cell<u64>` with no destructor, so touching it neither allocates nor runs
// during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// What a warm call may allocate: the outcome slots and the index list are
/// two (measured: exactly two at every size); collecting and unwrapping the
/// outcomes reuse the slots' buffer where the standard library can and are
/// two more where it cannot. The rest is slack, not the evaluator's.
const CEILING: u64 = 8;

#[test]
fn a_warm_batch_allocates_a_handful_whatever_its_size() {
    let net = serde_json::from_str::<SavedCdl>(include_str!("../benchmark/models/mnist_3c.json"))
        .expect("committed model parses")
        .restore()
        .expect("committed model restores");
    let images = SyntheticMnist::default()
        .generate_split(0, 256, 47)
        .1
        .images;
    // hard images: no early exit, every layer and every head runs for all
    let never_exit = ExitOverride::with_delta(1.0);
    let layers = net.base().layer_count();
    assert!(layers >= 10, "MNIST_3C runs {layers} runtime layers");

    let mut eval = BatchEvaluator::new(&net);
    let warm = eval
        .classify_batch_with_override(&images, never_exit)
        .expect("warm-up batch");
    assert!(warm.iter().all(|o| !o.exited_early));
    let grown = eval.scratch_capacity();
    assert!(grown > 0);

    for n in [256usize, 64, 9, 1] {
        let (count, outputs) = allocations_during(|| {
            eval.classify_batch_with_override(&images[..n], never_exit)
                .expect("warm batch")
        });
        assert_eq!(outputs, warm[..n], "n={n}");
        println!("{count} allocations for a warm batch of {n} images through {layers} layers");
        assert!(
            count <= CEILING,
            "{count} allocations for {n} images through {layers} layers (ceiling {CEILING})"
        );
        assert_eq!(
            eval.scratch_capacity(),
            grown,
            "a batch of {n} after one of 256 grew a buffer"
        );
    }

    // the natural mix (exits at every gate, compaction) is no different
    let (count, _) = allocations_during(|| eval.classify_batch(&images).expect("natural batch"));
    println!("{count} allocations for a warm natural batch of 256 images");
    assert!(count <= CEILING, "{count} allocations for the natural mix");
    assert_eq!(eval.scratch_capacity(), grown);
}
