//! Server observability: counters, batch-size/exit histograms, latency
//! percentiles and cumulative op/energy accounting.
//!
//! Latency distributions are backed by [`LogHistogram`] (see
//! `cdl_telemetry`): O(1) per-completion recording, O(buckets) snapshots
//! (no more sorting a 65k-sample window per snapshot), exact lifetime
//! `min`/`mean`/`max`, quantiles within a documented 1/64 relative-error
//! bound — and, because histograms merge losslessly,
//! [`ShardMetrics::latency`]/[`RouterMetrics::latency`] report *true*
//! cross-replica tail percentiles instead of unaggregatable per-server
//! numbers.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cdl_hw::{EnergyModel, OpCount};
use cdl_telemetry::{LogHistogram, TelemetrySnapshot};

use crate::config::{PlacementPolicy, Priority, ReplicaHealth};

/// Latency distribution over completed requests (submit → result).
///
/// Extracted from a [`LogHistogram`]: `count`/`min`/`mean`/`max` are exact
/// lifetime values; the percentiles are nearest-rank estimates within
/// [`cdl_telemetry::MAX_RELATIVE_ERROR`] (1/64) of the exact order
/// statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Completed requests over the server's lifetime.
    pub count: u64,
    /// Fastest request (lifetime, exact).
    pub min: Duration,
    /// Arithmetic mean (lifetime, exact).
    pub mean: Duration,
    /// Median (lifetime, bounded relative error).
    pub p50: Duration,
    /// 99th percentile (lifetime, bounded relative error).
    pub p99: Duration,
    /// 99.9th percentile (lifetime, bounded relative error).
    pub p999: Duration,
    /// 99.99th percentile (lifetime, bounded relative error).
    pub p9999: Duration,
    /// Slowest request (lifetime, exact).
    pub max: Duration,
}

impl LatencyStats {
    /// Extract the stats from a latency histogram (`None` when empty).
    /// O(buckets), independent of how many samples were recorded.
    pub fn from_histogram(histogram: &LogHistogram) -> Option<LatencyStats> {
        if histogram.is_empty() {
            return None;
        }
        let q = |q: f64| histogram.quantile_duration(q).unwrap_or(Duration::ZERO);
        Some(LatencyStats {
            count: histogram.count(),
            min: Duration::from_nanos(histogram.min_value().unwrap_or(0)),
            mean: Duration::from_nanos(histogram.mean().unwrap_or(0)),
            p50: q(0.5),
            p99: q(0.99),
            p999: q(0.999),
            p9999: q(0.9999),
            max: Duration::from_nanos(histogram.max_value().unwrap_or(0)),
        })
    }
}

/// Why the batcher dispatched a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchCause {
    /// `max_batch_size` reached.
    Full,
    /// `max_wait` elapsed since the batch's first request.
    Deadline,
    /// Shutdown flushed a partially formed batch.
    Flush,
}

/// A point-in-time snapshot of a [`crate::Server`]'s counters.
///
/// Obtained from [`crate::Server::metrics`] (live) or returned by
/// [`crate::Server::shutdown`] (final). `Display` renders a compact
/// multi-line report.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    /// Wall-clock since the server started.
    pub elapsed: Duration,
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// [`crate::Admission::Try`] admissions bounced with
    /// [`crate::ServeError::Full`].
    pub rejected: u64,
    /// Requests evaluated and delivered.
    pub completed: u64,
    /// Requests whose [`crate::Pending`] was dropped before evaluation.
    pub cancelled: u64,
    /// Requests that failed (evaluator error / pipeline teardown).
    pub failed: u64,
    /// Admitted requests whose deadline passed before they finished —
    /// settled with [`crate::ServeError::Expired`] at batch formation,
    /// at dispatch time (both spending zero evaluator ops), or shed
    /// mid-batch at a cascade stage boundary (the ops already consumed by
    /// then are charged to `total_ops`/`stages_activated`, so the energy
    /// ledger stays honest). Never recorded in the latency histogram
    /// (only served requests are).
    pub expired: u64,
    /// Submissions refused at the admission gate by overload control: a
    /// priority class above its admission limit
    /// ([`crate::ServeError::Shed`]) or a tenant over its quota
    /// ([`crate::ServeError::QuotaExceeded`]). Disjoint from `rejected`,
    /// which counts only capacity bounces of the default class.
    pub shed: u64,
    /// Submissions refused by an armed [`crate::fault::FaultPlan`]
    /// ([`crate::ServeError::Fault`]). Always zero in production
    /// configurations (the default plan is unarmed); under chaos testing
    /// this is the per-replica error signal the router's health tracker
    /// watches.
    pub faults: u64,
    /// `expired_by_class[c]` = expired requests of priority class `c`
    /// ([`Priority::class`] index order, high → low).
    pub expired_by_class: [u64; Priority::COUNT],
    /// `shed_by_class[c]` = shed submissions of priority class `c`.
    pub shed_by_class: [u64; Priority::COUNT],
    /// Expired requests per tenant id, sorted by tenant (untenanted
    /// requests appear only in the aggregate `expired`).
    pub expired_by_tenant: Vec<(u32, u64)>,
    /// Shed submissions per tenant id, sorted by tenant (quota refusals
    /// always carry a tenant and land here).
    pub shed_by_tenant: Vec<(u32, u64)>,
    /// Admitted requests not yet completed/cancelled/failed.
    pub queue_depth: usize,
    /// Batches evaluated (batches whose live requests were all cancelled
    /// are not counted — nothing was evaluated). A dispatched batch whose
    /// requests carry `k` distinct [`crate::SubmitOptions`] overrides is
    /// evaluated as `k` policy-uniform sub-batches and counted `k` times
    /// here (the `batches_full`/`batches_deadline`/`batches_flushed`
    /// dispatch counters still count it once).
    pub batches: u64,
    /// Batches dispatched because they were full.
    pub batches_full: u64,
    /// Batches dispatched by the `max_wait` deadline.
    pub batches_deadline: u64,
    /// Partial batches flushed by shutdown.
    pub batches_flushed: u64,
    /// `batch_size_histogram[s]` = evaluated batches of size `s` (after
    /// cancellation pruning and override grouping — see
    /// [`ServerMetrics::batches`]).
    pub batch_size_histogram: Vec<u64>,
    /// Mean evaluated batch size.
    pub mean_batch_size: f64,
    /// Completed requests per second over the server's **active span** —
    /// the wall-clock between its first and its last completion — so a
    /// server that sat idle before its first request or after its last one
    /// (e.g. a long pre-drain tail) is not understated. When the span is
    /// degenerate (zero completions, or every completion at one instant,
    /// as with a single completed request) the rate falls back to
    /// completions per second of total uptime.
    pub throughput_rps: f64,
    /// Submit→result latency distribution (`None` until something
    /// completed).
    pub latency: Option<LatencyStats>,
    /// The full latency histogram behind [`ServerMetrics::latency`] —
    /// mergeable across replicas ([`LogHistogram::merge`] is lossless), so
    /// shard- and router-level rollups report true union percentiles.
    pub latency_histogram: LogHistogram,
    /// `exit_histogram[i]` = completed requests that exited at stage `i`
    /// (last slot = final output layer).
    pub exit_histogram: Vec<u64>,
    /// Cumulative operations of every completed request, plus the partial
    /// work of requests shed mid-batch (broken out in
    /// `expired_partial_ops`).
    pub total_ops: OpCount,
    /// The slice of `total_ops` burned by requests shed **mid-batch**: a
    /// deadline that passed while its batch was in flight evicts the
    /// request at the next cascade stage boundary, and the stages already
    /// evaluated cost real ops even though no result was delivered.
    /// `total_ops − expired_partial_ops` is exactly the work of completed
    /// requests; requests expired before dispatch contribute to neither.
    pub expired_partial_ops: OpCount,
    /// Cumulative hardware stages activated by completed requests.
    pub stages_activated: u64,
    /// Cumulative energy of completed requests under the server's
    /// [`EnergyModel`], picojoules.
    pub energy_pj: f64,
}

impl fmt::Display for ServerMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "uptime {:.3}s — {} submitted, {} completed ({:.0} req/s), \
             {} cancelled, {} failed, {} rejected, queue depth {}",
            self.elapsed.as_secs_f64(),
            self.submitted,
            self.completed,
            self.throughput_rps,
            self.cancelled,
            self.failed,
            self.rejected,
            self.queue_depth,
        )?;
        if self.faults > 0 {
            writeln!(
                f,
                "chaos: {} submissions refused by injected faults",
                self.faults
            )?;
        }
        if self.expired > 0 || self.shed > 0 {
            let by_class: Vec<String> = Priority::ALL
                .iter()
                .map(|p| {
                    format!(
                        "{p}:{}e/{}s",
                        self.expired_by_class[p.class()],
                        self.shed_by_class[p.class()]
                    )
                })
                .collect();
            writeln!(
                f,
                "overload: {} expired, {} shed ({})",
                self.expired,
                self.shed,
                by_class.join(" "),
            )?;
        }
        writeln!(
            f,
            "batches: {} evaluated (mean size {:.1}; dispatched {} full / {} deadline / {} flush)",
            self.batches,
            self.mean_batch_size,
            self.batches_full,
            self.batches_deadline,
            self.batches_flushed,
        )?;
        let hist: Vec<String> = self
            .batch_size_histogram
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(size, n)| format!("{size}x{n}"))
            .collect();
        writeln!(f, "batch sizes (size x count): {}", hist.join(" "))?;
        if let Some(lat) = &self.latency {
            writeln!(
                f,
                "latency: min {:?} / mean {:?} / p50 {:?} / p99 {:?} / p99.9 {:?} / max {:?}",
                lat.min, lat.mean, lat.p50, lat.p99, lat.p999, lat.max,
            )?;
        }
        let exits: Vec<String> = self
            .exit_histogram
            .iter()
            .enumerate()
            .map(|(stage, &n)| format!("stage{stage}:{n}"))
            .collect();
        writeln!(f, "exits: {}", exits.join(" "))?;
        write!(
            f,
            "work: {} compute ops, {} stages activated, {:.2} µJ total ({:.1} nJ/request)",
            self.total_ops.compute_ops(),
            self.stages_activated,
            self.energy_pj / 1e6,
            if self.completed > 0 {
                self.energy_pj / 1e3 / self.completed as f64
            } else {
                0.0
            },
        )
    }
}

impl ServerMetrics {
    /// Append this snapshot's counters and latency histogram to a
    /// [`TelemetrySnapshot`] under the given labels — the building block
    /// behind [`crate::Server::telemetry_snapshot`] and
    /// [`crate::Router::telemetry_snapshot`].
    pub fn fill_telemetry(&self, snapshot: &mut TelemetrySnapshot, labels: &[(&str, &str)]) {
        snapshot.push_counter("cdl_requests_submitted_total", labels, self.submitted);
        snapshot.push_counter("cdl_requests_completed_total", labels, self.completed);
        snapshot.push_counter("cdl_requests_rejected_total", labels, self.rejected);
        snapshot.push_counter("cdl_requests_cancelled_total", labels, self.cancelled);
        snapshot.push_counter("cdl_requests_failed_total", labels, self.failed);
        snapshot.push_counter("cdl_requests_expired_total", labels, self.expired);
        snapshot.push_counter("cdl_requests_shed_total", labels, self.shed);
        snapshot.push_counter("cdl_requests_faulted_total", labels, self.faults);
        for p in Priority::ALL {
            let class = p.to_string();
            let mut class_labels: Vec<(&str, &str)> = labels.to_vec();
            class_labels.push(("class", class.as_str()));
            snapshot.push_counter(
                "cdl_requests_expired_by_class_total",
                &class_labels,
                self.expired_by_class[p.class()],
            );
            snapshot.push_counter(
                "cdl_requests_shed_by_class_total",
                &class_labels,
                self.shed_by_class[p.class()],
            );
        }
        snapshot.push_counter("cdl_batches_total", labels, self.batches);
        snapshot.push_counter("cdl_queue_depth", labels, self.queue_depth as u64);
        snapshot.push_histogram(
            "cdl_request_latency_ns",
            labels,
            self.latency_histogram.clone(),
        );
    }

    /// Merges another server's final snapshot into this one — how a
    /// replica slot carries the lifetime totals of the servers it retired
    /// through [`crate::Router::swap_model`] forward into its live
    /// numbers, so a hot-swap never loses history.
    ///
    /// Counters and op/energy ledgers sum; histograms merge losslessly
    /// (latency percentiles of the result are true union order
    /// statistics); `elapsed` takes the longer lifetime, and the derived
    /// `mean_batch_size`/`throughput_rps`/`latency` are recomputed from
    /// the merged data (`throughput_rps` over the merged `elapsed`, an
    /// approximation of the two active spans).
    pub fn absorb(&mut self, other: &ServerMetrics) {
        fn merge_by_tenant(into: &mut Vec<(u32, u64)>, other: &[(u32, u64)]) {
            let mut map: BTreeMap<u32, u64> = into.iter().copied().collect();
            for &(t, n) in other {
                *map.entry(t).or_insert(0) += n;
            }
            *into = map.into_iter().collect();
        }
        fn add_padded(into: &mut Vec<u64>, other: &[u64]) {
            if into.len() < other.len() {
                into.resize(other.len(), 0);
            }
            for (slot, &n) in other.iter().enumerate() {
                into[slot] += n;
            }
        }
        self.elapsed = self.elapsed.max(other.elapsed);
        self.submitted += other.submitted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.cancelled += other.cancelled;
        self.failed += other.failed;
        self.expired += other.expired;
        self.shed += other.shed;
        self.faults += other.faults;
        for c in 0..Priority::COUNT {
            self.expired_by_class[c] += other.expired_by_class[c];
            self.shed_by_class[c] += other.shed_by_class[c];
        }
        merge_by_tenant(&mut self.expired_by_tenant, &other.expired_by_tenant);
        merge_by_tenant(&mut self.shed_by_tenant, &other.shed_by_tenant);
        self.queue_depth += other.queue_depth;
        self.batches += other.batches;
        self.batches_full += other.batches_full;
        self.batches_deadline += other.batches_deadline;
        self.batches_flushed += other.batches_flushed;
        add_padded(&mut self.batch_size_histogram, &other.batch_size_histogram);
        let batched: u64 = self
            .batch_size_histogram
            .iter()
            .enumerate()
            .map(|(size, &n)| size as u64 * n)
            .sum();
        self.mean_batch_size = if self.batches > 0 {
            batched as f64 / self.batches as f64
        } else {
            0.0
        };
        self.latency_histogram.merge(&other.latency_histogram);
        self.latency = LatencyStats::from_histogram(&self.latency_histogram);
        add_padded(&mut self.exit_histogram, &other.exit_histogram);
        self.total_ops += other.total_ops;
        self.expired_partial_ops += other.expired_partial_ops;
        self.stages_activated += other.stages_activated;
        self.energy_pj += other.energy_pj;
        self.throughput_rps = if self.completed > 0 && self.elapsed > Duration::ZERO {
            self.completed as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        };
    }
}

/// One replica's slice of a [`ShardMetrics`] snapshot.
#[derive(Debug, Clone)]
pub struct ReplicaMetrics {
    /// Requests the router placed on this replica — counted at the router
    /// front-end *before* the replica's own admission (and rolled back if
    /// admission fails), independently of the replica's `submitted`
    /// counter. A concurrent snapshot may therefore transiently observe
    /// `routed > metrics.submitted` (a placement in flight), but **never**
    /// `metrics.submitted > routed`; in any settled snapshot the two are
    /// equal — a cross-check that nothing was mis-placed or dropped.
    pub routed: u64,
    /// The replica's health state at snapshot time (always
    /// [`ReplicaHealth::Healthy`] when the shard has no
    /// [`crate::HealthPolicy`]).
    pub health: ReplicaHealth,
    /// Health-state transitions this replica has gone through (0 when no
    /// health policy is installed, or while the replica has never left
    /// `Healthy`).
    pub transitions: u64,
    /// The replica's own [`ServerMetrics`] snapshot. After a
    /// [`crate::Router::swap_model`] this includes the absorbed lifetime
    /// totals of every server previously retired from this slot (see
    /// [`ServerMetrics::absorb`]).
    pub metrics: ServerMetrics,
}

/// One model's slice of a [`RouterMetrics`] snapshot: the placement policy
/// plus every replica's [`ReplicaMetrics`], with rollup accessors summing
/// over the replica set.
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// The model name the replica set was registered under.
    pub model: String,
    /// The admission-time placement policy choosing among the replicas.
    pub placement: PlacementPolicy,
    /// Submission attempts relaunched on another replica by the shard's
    /// [`crate::RetryPolicy`] after a retryable failure (0 without one).
    pub retries: u64,
    /// Hedged duplicate submissions launched by the shard's
    /// [`crate::RetryPolicy`] because the primary outlived the hedge
    /// delay (0 without hedging).
    pub hedges: u64,
    /// Per-replica metrics, in replica-index order.
    pub replicas: Vec<ReplicaMetrics>,
}

impl ShardMetrics {
    /// Total requests the router routed to this model (sum over replicas).
    pub fn routed(&self) -> u64 {
        self.replicas.iter().map(|r| r.routed).sum()
    }

    /// Requests placed per replica, in replica-index order — the placement
    /// histogram showing how the policy spread this model's admissions.
    pub fn placement_histogram(&self) -> Vec<u64> {
        self.replicas.iter().map(|r| r.routed).collect()
    }

    /// Total requests admitted across this model's replicas.
    pub fn submitted(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.submitted).sum()
    }

    /// Total [`crate::ServeError::Full`] rejections across this model's replicas.
    pub fn rejected(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.rejected).sum()
    }

    /// Total requests evaluated and delivered across this model's replicas.
    pub fn completed(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.completed).sum()
    }

    /// Total requests cancelled across this model's replicas.
    pub fn cancelled(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.cancelled).sum()
    }

    /// Total requests failed across this model's replicas.
    pub fn failed(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.failed).sum()
    }

    /// Total requests expired unevaluated across this model's replicas.
    pub fn expired(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.expired).sum()
    }

    /// Total submissions shed by overload control across this model's
    /// replicas.
    pub fn shed(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.shed).sum()
    }

    /// Total submissions refused by injected faults across this model's
    /// replicas (zero outside chaos testing).
    pub fn faults(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.faults).sum()
    }

    /// Total in-flight requests across this model's replicas — the live
    /// queue depth the `LeastLoaded`/`PowerOfTwoChoices` policies balance.
    pub fn queue_depth(&self) -> usize {
        self.replicas.iter().map(|r| r.metrics.queue_depth).sum()
    }

    /// Total batches evaluated across this model's replicas.
    pub fn batches(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.batches).sum()
    }

    /// Element-wise sum of the replicas' exit histograms.
    pub fn exit_histogram(&self) -> Vec<u64> {
        sum_exit_histograms(self.replicas.iter().map(|r| &r.metrics.exit_histogram))
    }

    /// The replicas' latency histograms merged into one. The merge is
    /// lossless, so quantiles of the result are true order statistics of
    /// the union of every replica's completions.
    pub fn latency_histogram(&self) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for r in &self.replicas {
            merged.merge(&r.metrics.latency_histogram);
        }
        merged
    }

    /// Cross-replica latency distribution (`None` until any replica
    /// completed a request) — including p99.9/p99.99 tails that per-server
    /// percentiles could never be combined into.
    pub fn latency(&self) -> Option<LatencyStats> {
        LatencyStats::from_histogram(&self.latency_histogram())
    }

    /// Cumulative operations of every completed request across replicas.
    pub fn total_ops(&self) -> OpCount {
        self.replicas.iter().map(|r| r.metrics.total_ops).sum()
    }

    /// The slice of [`ShardMetrics::total_ops`] burned by mid-batch
    /// shedding across replicas (see
    /// [`ServerMetrics::expired_partial_ops`]).
    pub fn expired_partial_ops(&self) -> OpCount {
        self.replicas
            .iter()
            .map(|r| r.metrics.expired_partial_ops)
            .sum()
    }

    /// Cumulative hardware stages activated across replicas.
    pub fn stages_activated(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.metrics.stages_activated)
            .sum()
    }

    /// Cumulative energy across replicas, picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.replicas.iter().map(|r| r.metrics.energy_pj).sum()
    }
}

/// Element-wise sum of exit histograms of possibly different depths.
fn sum_exit_histograms<'a>(histograms: impl Iterator<Item = &'a Vec<u64>> + Clone) -> Vec<u64> {
    let len = histograms.clone().map(|h| h.len()).max().unwrap_or(0);
    let mut total = vec![0u64; len];
    for histogram in histograms {
        for (slot, &n) in histogram.iter().enumerate() {
            total[slot] += n;
        }
    }
    total
}

/// A point-in-time snapshot across every shard of a [`crate::Router`]:
/// per-model breakdowns plus aggregate accessors (sums over shards).
///
/// Obtained from [`crate::Router::metrics`] (live) or returned by
/// [`crate::Router::shutdown`] (final). `Display` renders the aggregate
/// line followed by each shard's full report.
#[derive(Debug, Clone)]
pub struct RouterMetrics {
    /// Per-shard metrics, in model registration order ([`crate::ModelId`]
    /// index order).
    pub shards: Vec<ShardMetrics>,
}

impl RouterMetrics {
    /// Requests routed per model, in registration order — the routing
    /// histogram (each entry summed over that model's replicas; see
    /// [`ShardMetrics::placement_histogram`] for the per-replica split).
    pub fn routing_histogram(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.routed()).collect()
    }

    /// Per-model placement histograms, in registration order: entry `m` is
    /// [`ShardMetrics::placement_histogram`] of model `m` — how each
    /// model's placement policy spread its admissions across replicas.
    pub fn placement_histograms(&self) -> Vec<Vec<u64>> {
        self.shards
            .iter()
            .map(|s| s.placement_histogram())
            .collect()
    }

    /// Total requests admitted across all models and replicas.
    pub fn submitted(&self) -> u64 {
        self.shards.iter().map(|s| s.submitted()).sum()
    }

    /// Total [`crate::ServeError::Full`] rejections across all models and replicas.
    pub fn rejected(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected()).sum()
    }

    /// Total requests evaluated and delivered across all models and
    /// replicas.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed()).sum()
    }

    /// Total requests cancelled across all models and replicas.
    pub fn cancelled(&self) -> u64 {
        self.shards.iter().map(|s| s.cancelled()).sum()
    }

    /// Total requests failed across all models and replicas.
    pub fn failed(&self) -> u64 {
        self.shards.iter().map(|s| s.failed()).sum()
    }

    /// Total requests expired unevaluated across all models and replicas.
    pub fn expired(&self) -> u64 {
        self.shards.iter().map(|s| s.expired()).sum()
    }

    /// Total submissions shed by overload control across all models and
    /// replicas.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed()).sum()
    }

    /// Total submissions refused by injected faults across all models and
    /// replicas (zero outside chaos testing).
    pub fn faults(&self) -> u64 {
        self.shards.iter().map(|s| s.faults()).sum()
    }

    /// Total in-flight requests across all models and replicas.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth()).sum()
    }

    /// Total batches evaluated across all models and replicas.
    pub fn batches(&self) -> u64 {
        self.shards.iter().map(|s| s.batches()).sum()
    }

    /// Element-wise sum of the shards' exit histograms (index `i` =
    /// completed requests that exited at stage `i` on *any* model; models
    /// with fewer stages simply contribute nothing to the deeper slots).
    pub fn exit_histogram(&self) -> Vec<u64> {
        let per_shard: Vec<Vec<u64>> = self.shards.iter().map(|s| s.exit_histogram()).collect();
        sum_exit_histograms(per_shard.iter())
    }

    /// Every replica's latency histogram across every shard merged into
    /// one (losslessly — see [`ShardMetrics::latency_histogram`]).
    pub fn latency_histogram(&self) -> LogHistogram {
        let mut merged = LogHistogram::new();
        for s in &self.shards {
            merged.merge(&s.latency_histogram());
        }
        merged
    }

    /// Router-wide latency distribution over every completion on every
    /// replica of every model (`None` until anything completed).
    pub fn latency(&self) -> Option<LatencyStats> {
        LatencyStats::from_histogram(&self.latency_histogram())
    }

    /// Cumulative operations of every completed request across all models
    /// and replicas.
    pub fn total_ops(&self) -> OpCount {
        self.shards.iter().map(|s| s.total_ops()).sum()
    }

    /// The slice of [`RouterMetrics::total_ops`] burned by mid-batch
    /// shedding across all models and replicas (see
    /// [`ServerMetrics::expired_partial_ops`]).
    pub fn expired_partial_ops(&self) -> OpCount {
        self.shards.iter().map(|s| s.expired_partial_ops()).sum()
    }

    /// Cumulative hardware stages activated across all models and replicas.
    pub fn stages_activated(&self) -> u64 {
        self.shards.iter().map(|s| s.stages_activated()).sum()
    }

    /// Cumulative energy across all models and replicas, picojoules (each
    /// replica priced under its own [`EnergyModel`]).
    pub fn energy_pj(&self) -> f64 {
        self.shards.iter().map(|s| s.energy_pj()).sum()
    }
}

impl fmt::Display for RouterMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let histogram: Vec<String> = self
            .shards
            .iter()
            .map(|s| format!("{}:{}", s.model, s.routed()))
            .collect();
        writeln!(
            f,
            "router: {} models — {} routed ({}), {} completed, {} cancelled, \
             {} failed, {} rejected, {:.2} µJ total",
            self.shards.len(),
            self.submitted(),
            histogram.join(" "),
            self.completed(),
            self.cancelled(),
            self.failed(),
            self.rejected(),
            self.energy_pj() / 1e6,
        )?;
        if let Some(lat) = self.latency() {
            writeln!(
                f,
                "router latency (merged): p50 {:?} / p99 {:?} / p99.9 {:?} / max {:?}",
                lat.p50, lat.p99, lat.p999, lat.max,
            )?;
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let placement: Vec<String> = shard
                .placement_histogram()
                .iter()
                .map(|n| n.to_string())
                .collect();
            writeln!(
                f,
                "── shard {} · {} — {} replica(s), {} placement [{}] ──",
                i,
                shard.model,
                shard.replicas.len(),
                shard.placement,
                placement.join(" "),
            )?;
            if let Some(lat) = shard.latency() {
                writeln!(
                    f,
                    "shard latency (merged): p50 {:?} / p99 {:?} / p99.9 {:?} / max {:?}",
                    lat.p50, lat.p99, lat.p999, lat.max,
                )?;
            }
            for (r, replica) in shard.replicas.iter().enumerate() {
                writeln!(
                    f,
                    "· replica {} — routed {} [{}]",
                    r, replica.routed, replica.health
                )?;
                let last = i + 1 == self.shards.len() && r + 1 == shard.replicas.len();
                if last {
                    write!(f, "{}", replica.metrics)?;
                } else {
                    writeln!(f, "{}", replica.metrics)?;
                }
            }
        }
        Ok(())
    }
}

/// Mutable counters behind one mutex (updated per batch, so contention is
/// amortised over the batch size).
#[derive(Debug, Default)]
struct Counters {
    completed: u64,
    cancelled: u64,
    failed: u64,
    expired: u64,
    shed: u64,
    expired_by_class: [u64; Priority::COUNT],
    shed_by_class: [u64; Priority::COUNT],
    expired_by_tenant: BTreeMap<u32, u64>,
    shed_by_tenant: BTreeMap<u32, u64>,
    batches_full: u64,
    batches_deadline: u64,
    batches_flushed: u64,
    batch_sizes: Vec<u64>,
    latency: LogHistogram,
    exit_histogram: Vec<u64>,
    total_ops: OpCount,
    expired_partial_ops: OpCount,
    stages_activated: u64,
    /// When the first request completed — the start of the active span
    /// `throughput_rps` is computed over.
    first_completion: Option<Instant>,
    /// When the most recent request completed — the end of the active span.
    last_completion: Option<Instant>,
}

/// Shared metrics sink for the submit path, the batcher and the workers.
#[derive(Debug)]
pub(crate) struct Recorder {
    started: Instant,
    energy_model: EnergyModel,
    submitted: AtomicU64,
    rejected: AtomicU64,
    faulted: AtomicU64,
    counters: Mutex<Counters>,
}

impl Recorder {
    pub(crate) fn new(energy_model: EnergyModel) -> Self {
        Recorder {
            started: Instant::now(),
            energy_model,
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
            counters: Mutex::new(Counters::default()),
        }
    }

    pub(crate) fn admitted(&self) {
        // Release, paired with the Acquire load in `snapshot`: a snapshot
        // that sees this admission also sees the router's `routed`
        // increment that preceded it (`submitted <= routed`)
        self.submitted.fetch_add(1, Ordering::Release);
    }

    /// Rolls back an [`Recorder::admitted`] whose send never reached the
    /// pipeline (the request cannot complete, so counting it would leave
    /// `submitted` permanently short of reality the other way).
    pub(crate) fn unadmitted(&self) {
        self.submitted.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a submission refused by an injected
    /// [`crate::fault::FaultPlan`] error burst (never admitted).
    pub(crate) fn fault_rejected(&self) {
        self.faulted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn dispatched(&self, cause: BatchCause) {
        let mut c = self.counters.lock().unwrap();
        match cause {
            BatchCause::Full => c.batches_full += 1,
            BatchCause::Deadline => c.batches_deadline += 1,
            BatchCause::Flush => c.batches_flushed += 1,
        }
    }

    pub(crate) fn cancelled(&self, n: u64) {
        if n > 0 {
            self.counters.lock().unwrap().cancelled += n;
        }
    }

    pub(crate) fn batch_failed(&self, n: u64) {
        self.counters.lock().unwrap().failed += n;
    }

    /// Records an admitted request settled [`crate::ServeError::Expired`]
    /// at a shed point (batch formation or dispatch), unevaluated.
    pub(crate) fn expired(&self, priority: Priority, tenant: Option<u32>) {
        let mut c = self.counters.lock().unwrap();
        c.expired += 1;
        c.expired_by_class[priority.class()] += 1;
        if let Some(t) = tenant {
            *c.expired_by_tenant.entry(t).or_insert(0) += 1;
        }
    }

    /// Records an admitted request shed **mid-batch**: its deadline passed
    /// while its batch was in flight, and the evaluator evicted it at a
    /// cascade stage boundary after `stages` stages costing `ops`. Counts
    /// toward `expired` like the zero-ops shed points, but the work
    /// already burned is charged to the op/energy ledger — partial
    /// evaluations consume real energy even though no result is delivered.
    pub(crate) fn expired_mid_batch(
        &self,
        priority: Priority,
        tenant: Option<u32>,
        ops: OpCount,
        stages: u64,
    ) {
        let mut c = self.counters.lock().unwrap();
        c.expired += 1;
        c.expired_by_class[priority.class()] += 1;
        if let Some(t) = tenant {
            *c.expired_by_tenant.entry(t).or_insert(0) += 1;
        }
        c.total_ops += ops;
        c.expired_partial_ops += ops;
        c.stages_activated += stages;
    }

    /// Records a submission refused at the admission gate by overload
    /// control (priority class over its limit, or tenant over quota).
    pub(crate) fn shed(&self, priority: Priority, tenant: Option<u32>) {
        let mut c = self.counters.lock().unwrap();
        c.shed += 1;
        c.shed_by_class[priority.class()] += 1;
        if let Some(t) = tenant {
            *c.shed_by_tenant.entry(t).or_insert(0) += 1;
        }
    }

    /// Records one evaluated batch: per-request latencies, exits and op
    /// accounting.
    pub(crate) fn batch_completed(
        &self,
        outputs: impl Iterator<Item = (Duration, cdl_core::network::CdlOutput)>,
    ) {
        let mut c = self.counters.lock().unwrap();
        let mut size = 0usize;
        for (latency, out) in outputs {
            size += 1;
            c.completed += 1;
            c.latency.record_duration(latency);
            if c.exit_histogram.len() <= out.exit_stage {
                c.exit_histogram.resize(out.exit_stage + 1, 0);
            }
            c.exit_histogram[out.exit_stage] += 1;
            c.total_ops += out.ops;
            c.stages_activated += out.stages_activated;
        }
        if size > 0 {
            if c.batch_sizes.len() <= size {
                c.batch_sizes.resize(size + 1, 0);
            }
            c.batch_sizes[size] += 1;
            let now = Instant::now();
            c.first_completion.get_or_insert(now);
            c.last_completion = Some(now);
        }
    }

    /// Takes a consistent snapshot. `queue_depth` is sampled by the caller
    /// (it lives in the admission gate, not here).
    pub(crate) fn snapshot(&self, queue_depth: usize) -> ServerMetrics {
        let c = self.counters.lock().unwrap();
        let elapsed = self.started.elapsed();
        let batches: u64 = c.batch_sizes.iter().sum();
        let batched_requests: u64 = c
            .batch_sizes
            .iter()
            .enumerate()
            .map(|(size, &n)| size as u64 * n)
            .sum();
        let latency = LatencyStats::from_histogram(&c.latency);
        ServerMetrics {
            elapsed,
            submitted: self.submitted.load(Ordering::Acquire),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: c.completed,
            cancelled: c.cancelled,
            failed: c.failed,
            expired: c.expired,
            shed: c.shed,
            faults: self.faulted.load(Ordering::Relaxed),
            expired_by_class: c.expired_by_class,
            shed_by_class: c.shed_by_class,
            expired_by_tenant: c.expired_by_tenant.iter().map(|(&t, &n)| (t, n)).collect(),
            shed_by_tenant: c.shed_by_tenant.iter().map(|(&t, &n)| (t, n)).collect(),
            queue_depth,
            batches,
            batches_full: c.batches_full,
            batches_deadline: c.batches_deadline,
            batches_flushed: c.batches_flushed,
            batch_size_histogram: c.batch_sizes.clone(),
            mean_batch_size: if batches > 0 {
                batched_requests as f64 / batches as f64
            } else {
                0.0
            },
            throughput_rps: {
                // rate over the active span (first → last completion); a
                // degenerate span (nothing completed, or one instant) falls
                // back to total uptime — see the field docs
                let active = match (c.first_completion, c.last_completion) {
                    (Some(first), Some(last)) => last.saturating_duration_since(first),
                    _ => Duration::ZERO,
                };
                let span = if active > Duration::ZERO {
                    active
                } else {
                    elapsed
                };
                if c.completed > 0 && span > Duration::ZERO {
                    c.completed as f64 / span.as_secs_f64()
                } else {
                    0.0
                }
            },
            latency,
            latency_histogram: c.latency.clone(),
            exit_histogram: c.exit_histogram.clone(),
            total_ops: c.total_ops,
            expired_partial_ops: c.expired_partial_ops,
            stages_activated: c.stages_activated,
            energy_pj: self.energy_model.total_pj(&c.total_ops, c.stages_activated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdl_core::network::CdlOutput;

    fn out(exit_stage: usize, macs: u64) -> CdlOutput {
        CdlOutput {
            label: 0,
            exit_stage,
            confidence: 1.0,
            ops: OpCount {
                macs,
                ..OpCount::ZERO
            },
            stages_activated: exit_stage as u64 + 1,
            exited_early: exit_stage == 0,
        }
    }

    /// Asserts `actual` is within the histogram's documented relative
    /// error (1/64) of the exact order statistic `exact_ns`.
    fn assert_within_bound(what: &str, actual: Duration, exact_ns: u64) {
        let err = (actual.as_nanos() as i128 - exact_ns as i128).unsigned_abs();
        assert!(
            err * 64 <= exact_ns as u128,
            "{what}: {actual:?} is more than 1/64 away from exact {exact_ns}ns"
        );
    }

    #[test]
    fn latency_percentiles() {
        let mut h = LogHistogram::new();
        assert!(LatencyStats::from_histogram(&h).is_none());
        for i in 1..=100u64 {
            h.record(i * 1000);
        }
        let stats = LatencyStats::from_histogram(&h).unwrap();
        assert_eq!(stats.count, 100);
        // min/mean/max are exact lifetime accumulators
        assert_eq!(stats.min, Duration::from_nanos(1000));
        assert_eq!(stats.max, Duration::from_nanos(100_000));
        assert_eq!(stats.mean, Duration::from_nanos(50_500));
        // percentiles carry the documented 1/64 bound vs the exact
        // nearest-rank order statistics (rank ceil(q*n))
        assert_within_bound("p50", stats.p50, 50_000);
        assert_within_bound("p99", stats.p99, 99_000);
        assert_within_bound("p99.9", stats.p999, 100_000);
        assert_within_bound("p99.99", stats.p9999, 100_000);
    }

    #[test]
    fn latency_stats_cover_the_whole_lifetime_not_a_window() {
        // the old 65k ring evicted early samples from the percentile
        // window; the histogram keeps every sample at fixed memory
        let mut h = LogHistogram::new();
        let n = 200_000u64;
        h.record(5); // early outlier
        for i in 0..n {
            h.record(1_000_000 + i);
        }
        let stats = LatencyStats::from_histogram(&h).unwrap();
        assert_eq!(stats.count, n + 1);
        assert_eq!(stats.min, Duration::from_nanos(5));
        assert_eq!(stats.max, Duration::from_nanos(1_000_000 + n - 1));
        // exact p50 over the lifetime is ~1_100_000; the early outlier is
        // still in the distribution but cannot drag the median
        assert_within_bound("p50", stats.p50, 1_000_000 + n / 2 - 1);
        assert_within_bound("p99.9", stats.p999, 1_000_000 + n * 999 / 1000 - 1);
    }

    #[test]
    fn bimodal_distribution_keeps_both_modes() {
        let mut h = LogHistogram::new();
        let half = 65_536u64;
        for _ in 0..half {
            h.record(1_000);
        }
        for _ in 0..half {
            h.record(5_000);
        }
        let stats = LatencyStats::from_histogram(&h).unwrap();
        assert_eq!(stats.count, 2 * half);
        assert_eq!(stats.min, Duration::from_nanos(1_000));
        assert_eq!(stats.max, Duration::from_nanos(5_000));
        // exact nearest-rank p50 (rank = n) lands on the last 1_000 sample
        assert_within_bound("p50", stats.p50, 1_000);
        assert_within_bound("p99", stats.p99, 5_000);
        assert_within_bound("p99.9", stats.p999, 5_000);
    }

    fn shard_snapshot(n_requests: u64, exits: Vec<u64>) -> ServerMetrics {
        let rec = Recorder::new(EnergyModel::cmos_45nm());
        let ms = Duration::from_millis(1);
        for _ in 0..n_requests {
            rec.admitted();
            rec.dispatched(BatchCause::Full);
        }
        for (stage, &count) in exits.iter().enumerate() {
            for _ in 0..count {
                rec.batch_completed([(ms, out(stage, 50))].into_iter());
            }
        }
        rec.snapshot(1)
    }

    #[test]
    fn router_metrics_aggregate_replica_sums() {
        let metrics = RouterMetrics {
            shards: vec![
                ShardMetrics {
                    model: "A".into(),
                    placement: PlacementPolicy::RoundRobin,
                    retries: 0,
                    hedges: 0,
                    replicas: vec![ReplicaMetrics {
                        routed: 3,
                        health: ReplicaHealth::Healthy,
                        transitions: 0,
                        metrics: shard_snapshot(3, vec![2, 1]),
                    }],
                },
                ShardMetrics {
                    model: "B".into(),
                    placement: PlacementPolicy::LeastLoaded,
                    retries: 0,
                    hedges: 0,
                    replicas: vec![
                        ReplicaMetrics {
                            routed: 2,
                            health: ReplicaHealth::Healthy,
                            transitions: 0,
                            metrics: shard_snapshot(2, vec![1, 0, 1]),
                        },
                        ReplicaMetrics {
                            routed: 2,
                            health: ReplicaHealth::Healthy,
                            transitions: 0,
                            metrics: shard_snapshot(2, vec![0, 0, 2]),
                        },
                    ],
                },
            ],
        };
        assert_eq!(metrics.routing_histogram(), vec![3, 4]);
        assert_eq!(metrics.placement_histograms(), vec![vec![3], vec![2, 2]]);
        assert_eq!(metrics.shards[1].routed(), 4);
        assert_eq!(metrics.shards[1].placement_histogram(), vec![2, 2]);
        assert_eq!(metrics.shards[1].submitted(), 4);
        assert_eq!(metrics.shards[1].completed(), 4);
        assert_eq!(metrics.shards[1].exit_histogram(), vec![1, 0, 3]);
        assert_eq!(metrics.submitted(), 7);
        assert_eq!(metrics.completed(), 7);
        assert_eq!(metrics.batches(), 7);
        assert_eq!(metrics.queue_depth(), 3);
        assert_eq!(metrics.exit_histogram(), vec![3, 1, 3]);
        assert_eq!(metrics.total_ops().macs, 7 * 50);
        assert!(metrics.energy_pj() > 0.0);
        // latency rollups: the shard/router histograms are the lossless
        // merge of the replicas' (every completion was recorded at 1ms)
        let shard_lat = metrics.shards[1].latency().unwrap();
        assert_eq!(shard_lat.count, 4);
        let router_lat = metrics.latency().unwrap();
        assert_eq!(router_lat.count, 7);
        assert_eq!(metrics.latency_histogram().count(), 7);
        let ms = Duration::from_millis(1).as_nanos() as u64;
        assert_within_bound("merged p50", router_lat.p50, ms);
        assert_within_bound("merged p99.9", router_lat.p999, ms);
        assert_eq!(router_lat.min, Duration::from_millis(1));
        assert_eq!(router_lat.max, Duration::from_millis(1));
        let text = metrics.to_string();
        assert!(text.contains("router: 2 models"));
        assert!(text.contains("router latency (merged): p50"));
        assert!(text.contains("shard latency (merged): p50"));
        assert!(text.contains("p99.9"));
        assert!(text.contains("shard 0 · A"));
        assert!(text.contains("shard 1 · B"));
        assert!(text.contains("least_loaded"));
        assert!(text.contains("replica 1"));
    }

    #[test]
    fn server_metrics_fill_a_telemetry_snapshot() {
        let snap = shard_snapshot(3, vec![2, 1]);
        let mut telemetry = TelemetrySnapshot::new();
        snap.fill_telemetry(&mut telemetry, &[("model", "A"), ("replica", "0")]);
        let text = telemetry.render_prometheus();
        assert!(text.contains("# TYPE cdl_requests_completed_total counter"));
        assert!(text.contains("cdl_requests_completed_total{model=\"A\",replica=\"0\"} 3"));
        assert!(text.contains("# TYPE cdl_request_latency_ns histogram"));
        assert!(text.contains("cdl_request_latency_ns_count{model=\"A\",replica=\"0\"} 3"));
    }

    #[test]
    fn throughput_is_computed_over_the_active_span() {
        let rec = Recorder::new(EnergyModel::cmos_45nm());
        let ms = Duration::from_millis(1);
        // two completion bursts a little apart, then a long idle tail
        for _ in 0..10 {
            rec.admitted();
        }
        rec.dispatched(BatchCause::Full);
        rec.batch_completed((0..5).map(|_| (ms, out(0, 10))));
        std::thread::sleep(Duration::from_millis(20));
        rec.dispatched(BatchCause::Full);
        rec.batch_completed((0..5).map(|_| (ms, out(0, 10))));
        std::thread::sleep(Duration::from_millis(200));
        let snap = rec.snapshot(0);
        // the active span is ~20ms; lifetime uptime is ~220ms. A
        // lifetime-based rate would report ≤ 50 rps here; the span-based
        // rate must be an order of magnitude above it.
        let lifetime_rate = snap.completed as f64 / snap.elapsed.as_secs_f64();
        assert!(
            snap.throughput_rps > 2.0 * lifetime_rate,
            "active-span rate {} should beat lifetime rate {} (idle tail excluded)",
            snap.throughput_rps,
            lifetime_rate
        );
        // and it can never exceed what the span supports: span >= 20ms
        // (two sleeps bound it below), so the rate is bounded above too
        assert!(snap.throughput_rps <= 10.0 / 0.02 + 1.0);
    }

    #[test]
    fn throughput_falls_back_to_uptime_on_degenerate_spans() {
        // nothing completed → 0
        let rec = Recorder::new(EnergyModel::cmos_45nm());
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(rec.snapshot(0).throughput_rps, 0.0);
        // a single completion instant → completed / uptime (never inf/NaN)
        let rec = Recorder::new(EnergyModel::cmos_45nm());
        rec.admitted();
        rec.batch_completed([(Duration::from_millis(1), out(0, 10))].into_iter());
        std::thread::sleep(Duration::from_millis(5));
        let snap = rec.snapshot(0);
        assert!(snap.throughput_rps.is_finite());
        assert!(snap.throughput_rps > 0.0);
        let uptime_rate = snap.completed as f64 / snap.elapsed.as_secs_f64();
        assert!((snap.throughput_rps - uptime_rate).abs() <= uptime_rate * 0.5);
    }

    #[test]
    fn recorder_tracks_shed_and_expired_per_class_and_tenant() {
        let rec = Recorder::new(EnergyModel::cmos_45nm());
        rec.shed(Priority::Low, Some(1));
        rec.shed(Priority::Low, Some(1));
        rec.shed(Priority::Normal, None);
        rec.expired(Priority::High, Some(2));
        rec.expired(Priority::Low, None);
        let snap = rec.snapshot(0);
        assert_eq!(snap.shed, 3);
        assert_eq!(snap.expired, 2);
        assert_eq!(snap.shed_by_class, [0, 1, 2]);
        assert_eq!(snap.expired_by_class, [1, 0, 1]);
        assert_eq!(snap.shed_by_tenant, vec![(1, 2)]);
        assert_eq!(snap.expired_by_tenant, vec![(2, 1)]);
        // shed/expired never pollute the served-latency histogram
        assert!(snap.latency.is_none());
        let text = snap.to_string();
        assert!(text.contains("overload: 2 expired, 3 shed"));
        let mut telemetry = TelemetrySnapshot::new();
        snap.fill_telemetry(&mut telemetry, &[("model", "A")]);
        let text = telemetry.render_prometheus();
        assert!(text.contains("cdl_requests_expired_total{model=\"A\"} 2"));
        assert!(text.contains("cdl_requests_shed_total{model=\"A\"} 3"));
        assert!(text.contains("cdl_requests_shed_by_class_total{model=\"A\",class=\"low\"} 2"));
    }

    #[test]
    fn mid_batch_expiry_charges_partial_work_to_the_energy_ledger() {
        let rec = Recorder::new(EnergyModel::cmos_45nm());
        let zero_work = rec.snapshot(0).energy_pj;
        rec.expired_mid_batch(Priority::Normal, Some(7), OpCount::from_macs(1234), 2);
        let snap = rec.snapshot(0);
        assert_eq!(snap.expired, 1);
        assert_eq!(snap.expired_by_class, [0, 1, 0]);
        assert_eq!(snap.expired_by_tenant, vec![(7, 1)]);
        // unlike the zero-ops shed points, the burned work is on the ledger,
        // and the partial slice is broken out so `total_ops -
        // expired_partial_ops` stays exactly the completed requests' work
        assert_eq!(snap.total_ops.macs, 1234);
        assert_eq!(snap.expired_partial_ops.macs, 1234);
        assert_eq!(snap.stages_activated, 2);
        assert!(snap.energy_pj > zero_work);
        // but nothing was delivered: no completion, no latency sample
        assert_eq!(snap.completed, 0);
        assert!(snap.latency.is_none());
    }

    #[test]
    fn absorbed_snapshots_merge_counters_and_histograms() {
        // the hot-swap shape: a retired server's final snapshot folded
        // into its successor's — totals must behave as if one server had
        // served both lifetimes
        let mut live = shard_snapshot(3, vec![2, 1]);
        let retired = shard_snapshot(4, vec![1, 0, 3]);
        live.absorb(&retired);
        assert_eq!(live.submitted, 7);
        assert_eq!(live.completed, 7);
        assert_eq!(live.batches, 7);
        assert_eq!(live.exit_histogram, vec![3, 1, 3]);
        assert_eq!(live.total_ops.macs, 7 * 50);
        assert_eq!(live.latency_histogram.count(), 7);
        assert_eq!(live.latency.unwrap().count, 7);
        assert!((live.mean_batch_size - 1.0).abs() < 1e-12);
        assert!(live.throughput_rps > 0.0);
        // queue_depth sums (shard_snapshot samples depth 1 each)
        assert_eq!(live.queue_depth, 2);
    }

    #[test]
    fn recorder_aggregates_batches() {
        let rec = Recorder::new(EnergyModel::cmos_45nm());
        rec.admitted();
        rec.admitted();
        rec.admitted();
        rec.rejected();
        rec.dispatched(BatchCause::Full);
        rec.dispatched(BatchCause::Deadline);
        rec.cancelled(1);
        let ms = Duration::from_millis(1);
        rec.batch_completed([(ms, out(0, 100)), (ms, out(2, 300))].into_iter());
        rec.batch_completed([(ms, out(0, 100))].into_iter());
        let snap = rec.snapshot(7);
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.cancelled, 1);
        assert_eq!(snap.queue_depth, 7);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batches_full, 1);
        assert_eq!(snap.batches_deadline, 1);
        assert_eq!(snap.batch_size_histogram[1], 1);
        assert_eq!(snap.batch_size_histogram[2], 1);
        assert!((snap.mean_batch_size - 1.5).abs() < 1e-12);
        assert_eq!(snap.exit_histogram, vec![2, 0, 1]);
        assert_eq!(snap.total_ops.macs, 500);
        assert_eq!(snap.stages_activated, 1 + 3 + 1);
        assert!(snap.energy_pj > 0.0);
        assert!(snap.latency.is_some());
        // the report renders
        let text = snap.to_string();
        assert!(text.contains("batches"));
        assert!(text.contains("latency"));
    }
}
