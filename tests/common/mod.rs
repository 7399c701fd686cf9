//! Fixtures and checks shared by the serving integration suites
//! (`mod common;`).
#![allow(dead_code)] // each suite uses the subset it has the data for

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdl::core::arch::CdlArchitecture;
use cdl::core::confidence::ConfidencePolicy;
use cdl::core::head::LinearClassifier;
use cdl::core::network::{CdlNetwork, CdlOutput};
use cdl::hw::OpCount;
use cdl::nn::network::Network;
use cdl::serve::RouterMetrics;
use cdl::tensor::Tensor;

/// While alive, bounds the threads a test started and joins: if it is not
/// dropped within `limit`, the test binary prints `what` and aborts. A
/// scoped thread waiting on a wake that never comes cannot be left behind
/// by a failing assertion (the scope joins it), so a lost wake would hang
/// the suite; this makes it fail.
pub struct Watchdog(Arc<AtomicBool>);

impl Watchdog {
    pub fn arm(limit: Duration, what: &'static str) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&done);
        let deadline = Instant::now() + limit;
        std::thread::spawn(move || {
            while !seen.load(Ordering::Relaxed) {
                if Instant::now() >= deadline {
                    eprintln!("{what}: still running after {limit:?}");
                    std::process::abort();
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        Watchdog(done)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// An untrained cascade of `arch` (weights drawn from `seed`), one linear
/// head per tap, gated at max-probability 0.6.
pub fn build_untrained(arch: CdlArchitecture, seed: u64) -> Arc<CdlNetwork> {
    let base = Network::from_spec(&arch.spec, seed).unwrap();
    let feats = arch.tap_features().unwrap();
    let stages = arch
        .taps
        .iter()
        .zip(&feats)
        .map(|(t, &f)| {
            (
                t.spec_layer,
                t.name.clone(),
                LinearClassifier::new(f, 10, 1).unwrap(),
            )
        })
        .collect();
    Arc::new(CdlNetwork::assemble(base, stages, ConfidencePolicy::max_prob(0.6)).unwrap())
}

/// A constant MNIST-shaped image; eleven distinct values as `i` runs.
pub fn image(i: usize) -> Tensor {
    Tensor::full(&[1, 28, 28], 0.1 + 0.07 * (i as f32 % 11.0))
}

/// The conservation laws of a **settled** snapshot — one taken after every
/// admitted request resolved (a final `Router::shutdown()` always is).
/// Checked per model, which by [`cdl::serve::ServerMetrics::merge`]
/// summing every field involved implies them for `total()`:
///
/// * routing: `routed == submitted`, nothing still queued;
/// * every admission settles exactly once: `submitted == completed +
///   cancelled + failed + expired` — so `shed` and `rejected` (refused,
///   never admitted) lie outside `submitted`;
/// * each completion is in exactly one exit slot, one latency sample and
///   one evaluated batch: `Σ exit_histogram == completed ==
///   latency_histogram.count() == Σ size · batch_size_histogram[size]`
///   (mid-batch sheds leave their batch before it is recorded);
/// * the per-class breakdowns add up to their aggregates, and the
///   mid-batch partial work is a slice of the total.
pub fn assert_settled(metrics: &RouterMetrics) {
    for shard in &metrics.shards {
        let m = &shard.total();
        let at = &shard.model;
        assert_eq!(shard.routed(), m.submitted, "{at}: routed vs submitted");
        assert_eq!(m.queue_depth, 0, "{at}: requests still queued");
        assert_eq!(
            m.submitted,
            m.completed + m.cancelled + m.failed + m.expired,
            "{at}: an admission settled zero or two times"
        );
        let exits: u64 = m.exit_histogram.iter().sum();
        assert_eq!(exits, m.completed, "{at}: exit histogram");
        assert_eq!(
            m.latency_histogram.count(),
            m.completed,
            "{at}: latency samples"
        );
        let batch_members: u64 = (0u64..)
            .zip(&m.batch_size_histogram)
            .map(|(size, &n)| size * n)
            .sum();
        assert_eq!(batch_members, m.completed, "{at}: batch-size histogram");
        assert_eq!(m.expired_by_class.iter().sum::<u64>(), m.expired, "{at}");
        assert_eq!(m.shed_by_class.iter().sum::<u64>(), m.shed, "{at}");
        let (all, partial) = (m.total_ops, m.expired_partial_ops);
        assert!(
            partial.compute_ops() <= all.compute_ops() && partial.mem_words() <= all.mem_words(),
            "{at}: partial ops {partial} exceed total ops {all}"
        );
    }
}

/// [`assert_settled`], plus the op ledger against the outputs the test
/// holds: `total_ops − expired_partial_ops` is exactly the work of the
/// `delivered` answers — valid when every completion was delivered to the
/// test (none was evaluated for a caller that had hung up).
pub fn assert_settled_with<'a>(
    metrics: &RouterMetrics,
    delivered: impl IntoIterator<Item = &'a CdlOutput>,
) {
    assert_settled(metrics);
    let total = metrics.total();
    let delivered: OpCount = delivered.into_iter().map(|out| out.ops).sum();
    assert_eq!(
        total.total_ops,
        delivered + total.expired_partial_ops,
        "op ledger is not delivered work plus accounted partial work"
    );
}
