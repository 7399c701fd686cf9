//! Server observability: one mergeable ledger, [`ServerMetrics`] —
//! counters, batch-size/exit histograms, latency histogram and cumulative
//! op/energy accounting. It is the recorder's state, the snapshot a caller
//! gets, the value a hot-swap carries forward and the unit of every rollup:
//! [`ShardMetrics::total`] and [`RouterMetrics::total`] fold
//! [`ServerMetrics::merge`] over their replicas (the latency
//! [`LogHistogram`] merges losslessly, so a total's percentiles are *true*
//! cross-replica tails), and the Prometheus export
//! (`RouterMetrics::fill_telemetry`) renders the same snapshot.

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
    pub(crate) fn from_histogram(histogram: &LogHistogram) -> Option<LatencyStats> {
        let q = |q: f64| histogram.quantile_duration(q);
        Some(LatencyStats {
            count: histogram.count(),
            min: Duration::from_nanos(histogram.min_value()?),
            mean: Duration::from_nanos(histogram.mean()?),
            p50: q(0.5)?,
            p99: q(0.99)?,
            p999: q(0.999)?,
            p9999: q(0.9999)?,
            max: Duration::from_nanos(histogram.max_value()?),
        })
    }
}

/// Why a worker sealed a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchCause {
    /// `max_batch_size` reached.
    Full,
    /// A free worker took what was queued, short of full.
    Ready,
    /// Shutdown flushed a partially formed batch.
    Flush,
}

/// The serve layer's ledger: a point-in-time snapshot of one
/// [`crate::Server`]'s counters (`crate::Server::metrics` live,
/// [`crate::Server::shutdown`] final), or the [`ServerMetrics::merge`] of
/// several ([`ShardMetrics::total`] / [`RouterMetrics::total`]). `Display`
/// renders a compact multi-line report.
///
/// Every field is **primary**: recorded once, and merged by one rule —
/// counters, op ledgers, `energy_pj` and `queue_depth` sum, histograms add
/// slot-wise, `elapsed` takes the maximum and `active_span` the union. The
/// **derived** values — `ServerMetrics::batches`,
/// `ServerMetrics::mean_batch_size`, [`ServerMetrics::throughput_rps`],
/// [`ServerMetrics::latency`] — are methods over the primaries, so they
/// mean the same on one server's snapshot and on a merge. `Default` is the
/// empty ledger, the identity of `merge`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerMetrics {
    /// Wall-clock since the server started (merged: the longest lifetime).
    pub elapsed: Duration,
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Non-blocking admissions bounced with
    /// [`crate::ServeError::Full`].
    pub rejected: u64,
    /// Requests evaluated and delivered.
    pub completed: u64,
    /// Requests whose [`crate::Pending`] was dropped before evaluation.
    pub cancelled: u64,
    /// Requests that failed (evaluator error, or dropped by a dying worker).
    pub failed: u64,
    /// Admitted requests whose deadline passed before they finished —
    /// settled with [`crate::ServeError::Expired`] as their batch was
    /// sealed (zero evaluator ops), or shed mid-batch at a cascade stage
    /// boundary (the ops already consumed by then are charged to
    /// `total_ops`/`stages_activated`, so the energy ledger stays honest).
    /// Never recorded in the latency histogram (only served requests are).
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
    /// Admitted requests not yet completed/cancelled/failed (a gauge).
    pub queue_depth: usize,
    /// Batches dispatched because they were full.
    pub batches_full: u64,
    /// Batches dispatched short of full because a worker was free to take
    /// them (never under [`crate::BatchPolicy::by_size`]).
    pub batches_ready: u64,
    /// Partial batches flushed by shutdown.
    pub batches_flushed: u64,
    /// `batch_size_histogram[s]` = evaluated batches of size `s` (after
    /// cancellation and expiry pruning — see `ServerMetrics::batches`).
    pub batch_size_histogram: Vec<u64>,
    /// The **active span** [`ServerMetrics::throughput_rps`] is a rate
    /// over: the instants of the first and the latest completion (`None`
    /// until something completed). Merges as the union (earliest first,
    /// latest last), so the rate keeps its meaning across a hot swap.
    pub active_span: Option<(Instant, Instant)>,
    /// The submit→result latency histogram behind
    /// [`ServerMetrics::latency`] — [`LogHistogram::merge`] is lossless, so
    /// shard- and router-level totals report true union percentiles.
    pub latency_histogram: LogHistogram,
    /// `exit_histogram[i]` = completed requests that exited at stage `i`
    /// (last slot = final output layer).
    pub exit_histogram: Vec<u64>,
    /// Cumulative operations of every completed request, plus the partial
    /// work of requests shed mid-batch (broken out in the next field).
    pub total_ops: OpCount,
    /// The slice of `total_ops` burned by requests shed **mid-batch**: a
    /// deadline that passed while its batch was in flight evicts the
    /// request at the next cascade stage boundary, and the stages already
    /// evaluated cost real ops even though no result was delivered.
    /// `total_ops` minus this slice is exactly the work of completed
    /// requests; requests expired before dispatch contribute to neither.
    pub expired_partial_ops: OpCount,
    /// Cumulative hardware stages activated by completed requests.
    pub stages_activated: u64,
    /// Cumulative energy of `total_ops` / `stages_activated`, picojoules,
    /// priced at snapshot time under [`EnergyModel::cmos_45nm`]. The model
    /// is linear in both, so a reader who wants another technology
    /// re-prices any snapshot, merged or not, with
    /// `model.total_pj(&m.total_ops, m.stages_activated)`.
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
            self.throughput_rps(),
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
            "batches: {} evaluated (mean size {:.1}; dispatched {} full / {} ready / {} flush)",
            self.batches(),
            self.mean_batch_size(),
            self.batches_full,
            self.batches_ready,
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
        if let Some(lat) = self.latency() {
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

/// `slots[slot] += n`, growing the histogram to reach `slot`.
fn add_at(slots: &mut Vec<u64>, slot: usize, n: u64) {
    if slots.len() <= slot {
        slots.resize(slot + 1, 0);
    }
    slots[slot] += n;
}

/// `by_tenant[tenant] += n` on a tenant-sorted association list.
fn add_for_tenant(by_tenant: &mut Vec<(u32, u64)>, tenant: u32, n: u64) {
    match by_tenant.binary_search_by_key(&tenant, |&(t, _)| t) {
        Ok(i) => by_tenant[i].1 += n,
        Err(i) => by_tenant.insert(i, (tenant, n)),
    }
}

impl ServerMetrics {
    /// Batches evaluated (batches whose live requests were all cancelled
    /// are not counted — nothing was evaluated). A sealed batch is one
    /// evaluator pass whatever mix of [`crate::SubmitOptions`] overrides its
    /// requests carry, so it is counted here at most once, as the three
    /// `batches_*` seal counters count it.
    pub(crate) fn batches(&self) -> u64 {
        self.batch_size_histogram.iter().sum()
    }

    /// Mean evaluated batch size (0 before the first batch). Every member
    /// of an evaluated batch is a completion (`Σ size ·
    /// batch_size_histogram[size] == completed`), so this is completions
    /// per batch.
    pub(crate) fn mean_batch_size(&self) -> f64 {
        match self.batches() {
            0 => 0.0,
            batches => self.completed as f64 / batches as f64,
        }
    }

    /// Completed requests per second over the **active span** — the
    /// wall-clock between the first and the last completion — so a server
    /// that sat idle before its first request or after its last one (e.g.
    /// a long pre-drain tail) is not understated. When the span is
    /// degenerate (zero completions, or every completion at one instant,
    /// as with a single completed request) the rate falls back to
    /// completions per second of `elapsed`.
    pub fn throughput_rps(&self) -> f64 {
        let span = match self.active_span {
            Some((first, last)) if last > first => last - first,
            _ => self.elapsed,
        };
        match span.as_secs_f64() {
            secs if secs > 0.0 => self.completed as f64 / secs,
            _ => 0.0,
        }
    }

    /// Submit→result latency distribution (`None` until something
    /// completed).
    pub fn latency(&self) -> Option<LatencyStats> {
        LatencyStats::from_histogram(&self.latency_histogram)
    }

    /// Folds `other` into this ledger — the one rollup of the serve layer:
    /// a replica slot carrying forward the servers it retired through
    /// [`crate::Router::swap_model`], a shard summing its replicas, a
    /// router its shards. Commutative and associative (up to float
    /// rounding in `energy_pj`), with [`Default`] as the identity.
    pub fn merge(&mut self, other: &ServerMetrics) {
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
        for &(tenant, n) in &other.expired_by_tenant {
            add_for_tenant(&mut self.expired_by_tenant, tenant, n);
        }
        for &(tenant, n) in &other.shed_by_tenant {
            add_for_tenant(&mut self.shed_by_tenant, tenant, n);
        }
        self.queue_depth += other.queue_depth;
        self.batches_full += other.batches_full;
        self.batches_ready += other.batches_ready;
        self.batches_flushed += other.batches_flushed;
        for (size, &n) in other.batch_size_histogram.iter().enumerate() {
            add_at(&mut self.batch_size_histogram, size, n);
        }
        self.active_span = match (self.active_span, other.active_span) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (mine, theirs) => mine.or(theirs),
        };
        self.latency_histogram.merge(&other.latency_histogram);
        for (stage, &n) in other.exit_histogram.iter().enumerate() {
            add_at(&mut self.exit_histogram, stage, n);
        }
        self.total_ops += other.total_ops;
        self.expired_partial_ops += other.expired_partial_ops;
        self.stages_activated += other.stages_activated;
        self.energy_pj += other.energy_pj;
    }

    /// Append this ledger to a [`TelemetrySnapshot`] under the given
    /// labels: the request/batch counters, the paper's per-input
    /// quantities (`cdl_exits_total{stage}`, `cdl_ops_total{kind}`,
    /// `cdl_stages_activated_total`, `cdl_energy_picojoules_total` in whole
    /// picojoules), the `cdl_queue_depth` gauge and the latency histogram.
    pub(crate) fn fill_telemetry(&self, snapshot: &mut TelemetrySnapshot, labels: &[(&str, &str)]) {
        for (name, value) in [
            ("cdl_requests_submitted_total", self.submitted),
            ("cdl_requests_completed_total", self.completed),
            ("cdl_requests_rejected_total", self.rejected),
            ("cdl_requests_cancelled_total", self.cancelled),
            ("cdl_requests_failed_total", self.failed),
            ("cdl_requests_expired_total", self.expired),
            ("cdl_requests_shed_total", self.shed),
            ("cdl_requests_faulted_total", self.faults),
            ("cdl_batches_total", self.batches()),
            ("cdl_stages_activated_total", self.stages_activated),
            ("cdl_energy_picojoules_total", self.energy_pj.round() as u64),
        ] {
            snapshot.push_counter(name, labels, value);
        }
        let mut push = |name: &str, key: &str, value: &str, n: u64| {
            let mut all: Vec<(&str, &str)> = labels.to_vec();
            all.push((key, value));
            snapshot.push_counter(name, &all, n);
        };
        for (name, by_class) in [
            (
                "cdl_requests_expired_by_class_total",
                &self.expired_by_class,
            ),
            ("cdl_requests_shed_by_class_total", &self.shed_by_class),
        ] {
            for p in Priority::ALL {
                push(name, "class", &p.to_string(), by_class[p.class()]);
            }
        }
        for (cause, n) in [
            ("full", self.batches_full),
            ("ready", self.batches_ready),
            ("flush", self.batches_flushed),
        ] {
            push("cdl_batches_dispatched_total", "cause", cause, n);
        }
        for (stage, &n) in self.exit_histogram.iter().enumerate() {
            push("cdl_exits_total", "stage", &stage.to_string(), n);
        }
        let ops = self.total_ops;
        for (kind, n) in [
            ("macs", ops.macs),
            ("adds", ops.adds),
            ("compares", ops.compares),
            ("activations", ops.activations),
            ("mem_reads", ops.mem_reads),
            ("mem_writes", ops.mem_writes),
        ] {
            push("cdl_ops_total", "kind", kind, n);
        }
        snapshot.push_gauge("cdl_queue_depth", labels, self.queue_depth as u64);
        snapshot.push_histogram(
            "cdl_request_latency_ns",
            labels,
            self.latency_histogram.clone(),
        );
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
    /// The replica's own [`ServerMetrics`] ledger. After a
    /// [`crate::Router::swap_model`] this includes the merged lifetime
    /// totals of every server previously retired from this slot (see
    /// [`ServerMetrics::merge`]).
    pub metrics: ServerMetrics,
}

/// One model's slice of a [`RouterMetrics`] snapshot: the placement policy
/// plus every replica's [`ReplicaMetrics`]; [`ShardMetrics::total`] is the
/// rollup over the replica set.
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

    /// This model's ledger, the [`ServerMetrics::merge`] of its replicas':
    /// every per-model total is a field or method of it (`completed`,
    /// `exit_histogram`, `latency()` — true cross-replica percentiles).
    pub fn total(&self) -> ServerMetrics {
        let mut total = ServerMetrics::default();
        self.replicas.iter().for_each(|r| total.merge(&r.metrics));
        total
    }
}

/// A point-in-time snapshot across every shard of a [`crate::Router`]:
/// per-model breakdowns plus [`RouterMetrics::total`], the one ledger
/// summed over all of them.
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

    /// The router-wide ledger: the [`ServerMetrics::merge`] of every
    /// replica of every model. Take it once and read fields off it.
    pub fn total(&self) -> ServerMetrics {
        let mut total = ServerMetrics::default();
        self.shards.iter().for_each(|s| total.merge(&s.total()));
        total
    }

    /// Append the whole snapshot to a [`TelemetrySnapshot`]: per-shard
    /// retry/hedge counters labelled `model`; every replica's ledger,
    /// health-state gauge and transition counter labelled
    /// `model`/`replica`. The one renderer behind
    /// [`crate::Router::telemetry_snapshot`].
    pub(crate) fn fill_telemetry(&self, snapshot: &mut TelemetrySnapshot) {
        for shard in &self.shards {
            let model = ("model", shard.model.as_str());
            snapshot.push_counter("cdl_shard_retries_total", &[model], shard.retries);
            snapshot.push_counter("cdl_shard_hedges_total", &[model], shard.hedges);
            for (i, replica) in shard.replicas.iter().enumerate() {
                let labels = [model, ("replica", &*i.to_string())];
                replica.metrics.fill_telemetry(snapshot, &labels);
                let health = u64::from(replica.health.code());
                snapshot.push_gauge("cdl_replica_health_state", &labels, health);
                let transitions = replica.transitions;
                snapshot.push_counter("cdl_replica_health_transitions_total", &labels, transitions);
            }
        }
    }
}

/// Reads of [`RouterMetrics::total`] that `benchmark/src/serve.rs`
/// (`metrics_json`) calls by name. The benchmark package cannot change in
/// the same PR as the code it measures, so these twelve stay until it
/// moves to `total()`; new code reads `total()` once instead.
#[allow(missing_docs)]
impl RouterMetrics {
    pub fn submitted(&self) -> u64 {
        self.total().submitted
    }
    pub fn rejected(&self) -> u64 {
        self.total().rejected
    }
    pub fn completed(&self) -> u64 {
        self.total().completed
    }
    pub fn cancelled(&self) -> u64 {
        self.total().cancelled
    }
    pub fn failed(&self) -> u64 {
        self.total().failed
    }
    pub fn expired(&self) -> u64 {
        self.total().expired
    }
    pub fn shed(&self) -> u64 {
        self.total().shed
    }
    pub fn queue_depth(&self) -> usize {
        self.total().queue_depth
    }
    pub fn batches(&self) -> u64 {
        self.total().batches()
    }
    pub fn total_ops(&self) -> OpCount {
        self.total().total_ops
    }
    pub fn expired_partial_ops(&self) -> OpCount {
        self.total().expired_partial_ops
    }
    pub fn latency_histogram(&self) -> LogHistogram {
        self.total().latency_histogram
    }
}

impl fmt::Display for RouterMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        let routed: Vec<String> = self
            .shards
            .iter()
            .map(|s| format!("{}:{}", s.model, s.routed()))
            .collect();
        write!(
            f,
            "router: {} models — {} routed ({}), {} completed, {} cancelled, \
             {} failed, {} rejected, {:.2} µJ total",
            self.shards.len(),
            total.submitted,
            routed.join(" "),
            total.completed,
            total.cancelled,
            total.failed,
            total.rejected,
            total.energy_pj / 1e6,
        )?;
        // every later section opens with its own newline, so the report
        // never ends on one
        let merged_latency = |f: &mut fmt::Formatter<'_>, scope: &str, ledger: &ServerMetrics| {
            let Some(lat) = ledger.latency() else {
                return Ok(());
            };
            write!(
                f,
                "\n{scope} latency (merged): p50 {:?} / p99 {:?} / p99.9 {:?} / max {:?}",
                lat.p50, lat.p99, lat.p999, lat.max,
            )
        };
        merged_latency(f, "router", &total)?;
        for (i, shard) in self.shards.iter().enumerate() {
            let placement: Vec<String> = shard
                .replicas
                .iter()
                .map(|r| r.routed.to_string())
                .collect();
            write!(
                f,
                "\n── shard {} · {} — {} replica(s), {} placement [{}] ──",
                i,
                shard.model,
                shard.replicas.len(),
                shard.placement,
                placement.join(" "),
            )?;
            merged_latency(f, "shard", &shard.total())?;
            for (r, replica) in shard.replicas.iter().enumerate() {
                let (routed, health) = (replica.routed, replica.health);
                write!(
                    f,
                    "\n· replica {r} — routed {routed} [{health}]\n{}",
                    replica.metrics
                )?;
            }
        }
        Ok(())
    }
}

/// Shared metrics sink for the submit path and the workers:
/// a [`ServerMetrics`] ledger behind one mutex (updated per batch, so
/// contention is amortised over the batch size) plus the three admission
/// counters every submit touches, kept as lock-free atomics. Those three,
/// `elapsed`, `queue_depth` and `energy_pj` enter the ledger only in
/// [`Recorder::snapshot`].
#[derive(Debug)]
pub(crate) struct Recorder {
    started: Instant,
    submitted: AtomicU64,
    rejected: AtomicU64,
    faulted: AtomicU64,
    ledger: Mutex<ServerMetrics>,
}

impl Recorder {
    pub(crate) fn new() -> Self {
        Recorder {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
            ledger: Mutex::new(ServerMetrics::default()),
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
        let mut m = self.ledger.lock().unwrap();
        match cause {
            BatchCause::Full => m.batches_full += 1,
            BatchCause::Ready => m.batches_ready += 1,
            BatchCause::Flush => m.batches_flushed += 1,
        }
    }

    pub(crate) fn cancelled(&self, n: u64) {
        if n > 0 {
            self.ledger.lock().unwrap().cancelled += n;
        }
    }

    pub(crate) fn batch_failed(&self, n: u64) {
        self.ledger.lock().unwrap().failed += n;
    }

    /// Records an admitted request settled [`crate::ServeError::Expired`]:
    /// with zero `ops`/`stages` at the shed point before evaluation, or —
    /// shed **mid-batch**, evicted at a cascade stage boundary after its
    /// deadline passed in flight — with the `stages` it ran and the `ops`
    /// they cost, charged to the op/energy ledger because partial
    /// evaluations consume real energy even though no result is delivered.
    pub(crate) fn expired(
        &self,
        priority: Priority,
        tenant: Option<u32>,
        ops: OpCount,
        stages: u64,
    ) {
        let mut m = self.ledger.lock().unwrap();
        m.expired += 1;
        m.expired_by_class[priority.class()] += 1;
        if let Some(t) = tenant {
            add_for_tenant(&mut m.expired_by_tenant, t, 1);
        }
        m.total_ops += ops;
        m.expired_partial_ops += ops;
        m.stages_activated += stages;
    }

    /// Records a submission refused at the admission gate by overload
    /// control (priority class over its limit, or tenant over quota).
    pub(crate) fn shed(&self, priority: Priority, tenant: Option<u32>) {
        let mut m = self.ledger.lock().unwrap();
        m.shed += 1;
        m.shed_by_class[priority.class()] += 1;
        if let Some(t) = tenant {
            add_for_tenant(&mut m.shed_by_tenant, t, 1);
        }
    }

    /// Records one evaluated batch: per-request latencies, exits and op
    /// accounting.
    pub(crate) fn batch_completed(
        &self,
        outputs: impl Iterator<Item = (Duration, cdl_core::network::CdlOutput)>,
    ) {
        let mut m = self.ledger.lock().unwrap();
        let mut size = 0usize;
        for (latency, out) in outputs {
            size += 1;
            m.completed += 1;
            m.latency_histogram.record_duration(latency);
            add_at(&mut m.exit_histogram, out.exit_stage, 1);
            m.total_ops += out.ops;
            m.stages_activated += out.stages_activated;
        }
        if size > 0 {
            add_at(&mut m.batch_size_histogram, size, 1);
            let now = Instant::now();
            m.active_span = Some((m.active_span.map_or(now, |(first, _)| first), now));
        }
    }

    /// Takes a consistent snapshot: the ledger as recorded, plus the
    /// fields only a snapshot knows. `queue_depth` is sampled by the
    /// caller (it lives in the admission gate, not here).
    pub(crate) fn snapshot(&self, queue_depth: usize) -> ServerMetrics {
        let m = self.ledger.lock().unwrap();
        ServerMetrics {
            elapsed: self.started.elapsed(),
            submitted: self.submitted.load(Ordering::Acquire),
            rejected: self.rejected.load(Ordering::Relaxed),
            faults: self.faulted.load(Ordering::Relaxed),
            queue_depth,
            energy_pj: EnergyModel::cmos_45nm().total_pj(&m.total_ops, m.stages_activated),
            ..m.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdl_core::network::CdlOutput;
    use proptest::prelude::*;

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
        let rec = Recorder::new();
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

    fn replica(routed: u64, metrics: ServerMetrics) -> ReplicaMetrics {
        ReplicaMetrics {
            routed,
            health: ReplicaHealth::Healthy,
            transitions: 0,
            metrics,
        }
    }

    fn shard(
        model: &str,
        placement: PlacementPolicy,
        replicas: Vec<ReplicaMetrics>,
    ) -> ShardMetrics {
        ShardMetrics {
            model: model.into(),
            placement,
            retries: 0,
            hedges: 0,
            replicas,
        }
    }

    /// A random ledger: every primary field drawn independently (tenant
    /// lists sorted and unique, as the recording sites keep them).
    fn ledger() -> impl Strategy<Value = ServerMetrics> {
        collection::vec(0u64..1_000, 64usize).prop_map(|draws| {
            let mut draws = draws.into_iter();
            let mut n = move || draws.next().expect("64 draws cover every field");
            let mut m = ServerMetrics {
                elapsed: Duration::from_millis(n()),
                submitted: n(),
                rejected: n(),
                completed: n(),
                cancelled: n(),
                failed: n(),
                expired: n(),
                shed: n(),
                faults: n(),
                expired_by_class: [n(), n(), n()],
                shed_by_class: [n(), n(), n()],
                queue_depth: n() as usize,
                batches_full: n(),
                batches_ready: n(),
                batches_flushed: n(),
                total_ops: OpCount {
                    macs: n(),
                    adds: n(),
                    compares: n(),
                    activations: n(),
                    mem_reads: n(),
                    mem_writes: n(),
                },
                expired_partial_ops: OpCount::from_macs(n()),
                stages_activated: n(),
                energy_pj: n() as f64 * 0.37,
                ..ServerMetrics::default()
            };
            for _ in 0..n() % 4 {
                add_for_tenant(&mut m.expired_by_tenant, (n() % 5) as u32, n());
                add_for_tenant(&mut m.shed_by_tenant, (n() % 5) as u32, n());
            }
            m.batch_size_histogram = (0..n() % 6).map(|_| n()).collect();
            m.exit_histogram = (0..n() % 4).map(|_| n()).collect();
            for _ in 0..n() % 5 {
                m.latency_histogram.record(n() * 1_000);
            }
            if n() % 3 > 0 {
                let first = Instant::now() + Duration::from_millis(n());
                m.active_span = Some((first, first + Duration::from_millis(n())));
            }
            m
        })
    }

    fn merged(a: &ServerMetrics, b: &ServerMetrics) -> ServerMetrics {
        let mut out = a.clone();
        out.merge(b);
        out
    }

    /// Field-for-field equality (histograms by `==`), `energy_pj` to 1e-9
    /// relative: float addition is commutative but not associative.
    fn assert_same(a: &ServerMetrics, b: &ServerMetrics) -> Result<(), TestCaseError> {
        let (mut a, mut b) = (a.clone(), b.clone());
        let (ea, eb) = (a.energy_pj, b.energy_pj);
        prop_assert!((ea - eb).abs() <= 1e-9 * ea.abs().max(1.0), "{ea} vs {eb}");
        (a.energy_pj, b.energy_pj) = (0.0, 0.0);
        prop_assert_eq!(a, b);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn merge_is_commutative_associative_with_default_as_identity(
            a in ledger(), b in ledger(), c in ledger(),
        ) {
            assert_same(&merged(&a, &b), &merged(&b, &a))?;
            assert_same(&merged(&merged(&a, &b), &c), &merged(&a, &merged(&b, &c)))?;
            assert_same(&merged(&a, &ServerMetrics::default()), &a)?;
            assert_same(&merged(&ServerMetrics::default(), &a), &a)?;
            // the derived values are functions of the merged primaries
            let ab = merged(&a, &b);
            prop_assert_eq!(ab.batches(), a.batches() + b.batches());
            prop_assert_eq!(ab.latency().map(|l| l.count).unwrap_or(0),
                a.latency_histogram.count() + b.latency_histogram.count());
        }

        #[test]
        fn totals_equal_the_fold_of_the_replica_tree_in_any_order(
            tree in collection::vec(collection::vec(ledger(), 1..4), 1..4),
        ) {
            let router = RouterMetrics {
                shards: tree
                    .iter()
                    .map(|ledgers| {
                        let replicas = ledgers.iter().map(|m| replica(m.submitted, m.clone()));
                        shard("M", PlacementPolicy::RoundRobin, replicas.collect())
                    })
                    .collect(),
            };
            let fold = |ledgers: &mut dyn Iterator<Item = &ServerMetrics>| {
                ledgers.fold(ServerMetrics::default(), |acc, m| merged(&acc, m))
            };
            for (shard, ledgers) in router.shards.iter().zip(&tree) {
                assert_same(&shard.total(), &fold(&mut ledgers.iter().rev()))?;
                prop_assert_eq!(shard.routed(), shard.total().submitted);
            }
            let total = router.total();
            assert_same(&total, &fold(&mut tree.iter().flatten()))?;
            assert_same(&total, &fold(&mut tree.iter().rev().flatten().rev()))?;
            let shard_totals: Vec<ServerMetrics> = router.shards.iter().map(|s| s.total()).collect();
            assert_same(&total, &fold(&mut shard_totals.iter()))?;
            // the accessors the benchmark pins are reads of the same total
            prop_assert_eq!(router.completed(), total.completed);
            prop_assert_eq!(router.batches(), total.batches());
            prop_assert_eq!(router.latency_histogram(), total.latency_histogram);
        }
    }

    #[test]
    fn router_metrics_render_shards_and_merged_latency() {
        let metrics = RouterMetrics {
            shards: vec![
                shard(
                    "A",
                    PlacementPolicy::RoundRobin,
                    vec![replica(3, shard_snapshot(3, vec![2, 1]))],
                ),
                shard(
                    "B",
                    PlacementPolicy::LeastLoaded,
                    vec![
                        replica(2, shard_snapshot(2, vec![1, 0, 1])),
                        replica(2, shard_snapshot(2, vec![0, 0, 2])),
                    ],
                ),
            ],
        };
        assert_eq!(metrics.routing_histogram(), vec![3, 4]);
        assert_eq!(metrics.shards[0].placement_histogram(), vec![3]);
        assert_eq!(metrics.shards[1].routed(), 4);
        assert_eq!(metrics.shards[1].placement_histogram(), vec![2, 2]);
        assert_eq!(metrics.shards[1].total().exit_histogram, vec![1, 0, 3]);
        let total = metrics.total();
        assert_eq!(
            (total.submitted, total.completed, total.batches()),
            (7, 7, 7)
        );
        assert_eq!(total.queue_depth, 3);
        assert_eq!(total.exit_histogram, vec![3, 1, 3]);
        assert_eq!(total.total_ops.macs, 7 * 50);
        assert!(total.energy_pj > 0.0);
        // latency rollups: the shard/router histograms are the lossless
        // merge of the replicas' (every completion was recorded at 1ms)
        assert_eq!(metrics.shards[1].total().latency().unwrap().count, 4);
        let router_lat = total.latency().unwrap();
        assert_eq!(router_lat.count, 7);
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
        // a level that goes down is a gauge, never a counter
        assert!(text.contains("# TYPE cdl_queue_depth gauge"));
        assert!(!text.contains("# TYPE cdl_queue_depth counter"));
        assert!(text.contains("cdl_queue_depth{model=\"A\",replica=\"0\"} 1"));
        // the paper's quantities: exits per stage, ops per kind, energy
        assert!(text.contains("# TYPE cdl_exits_total counter"));
        assert!(text.contains("cdl_exits_total{model=\"A\",replica=\"0\",stage=\"0\"} 2"));
        assert!(text.contains("cdl_exits_total{model=\"A\",replica=\"0\",stage=\"1\"} 1"));
        assert!(text.contains("cdl_ops_total{model=\"A\",replica=\"0\",kind=\"macs\"} 150"));
        assert!(text.contains("cdl_stages_activated_total{model=\"A\",replica=\"0\"} 4"));
        assert!(text
            .contains("cdl_batches_dispatched_total{model=\"A\",replica=\"0\",cause=\"full\"} 3"));
        let energy = format!(
            "cdl_energy_picojoules_total{{model=\"A\",replica=\"0\"}} {}",
            snap.energy_pj.round() as u64
        );
        assert!(text.contains(&energy), "{energy} not in:\n{text}");
    }

    /// Two completion bursts 20 ms apart on a fresh recorder.
    fn two_bursts() -> Recorder {
        let rec = Recorder::new();
        let ms = Duration::from_millis(1);
        for _ in 0..10 {
            rec.admitted();
        }
        rec.dispatched(BatchCause::Full);
        rec.batch_completed((0..5).map(|_| (ms, out(0, 10))));
        std::thread::sleep(Duration::from_millis(20));
        rec.dispatched(BatchCause::Full);
        rec.batch_completed((0..5).map(|_| (ms, out(0, 10))));
        rec
    }

    #[test]
    fn throughput_is_computed_over_the_active_span() {
        // two completion bursts a little apart, then a long idle tail
        let rec = two_bursts();
        std::thread::sleep(Duration::from_millis(200));
        let snap = rec.snapshot(0);
        // the active span is ~20ms; lifetime uptime is ~220ms. A
        // lifetime-based rate would report ≤ 50 rps here; the span-based
        // rate must be an order of magnitude above it.
        let lifetime_rate = snap.completed as f64 / snap.elapsed.as_secs_f64();
        assert!(
            snap.throughput_rps() > 2.0 * lifetime_rate,
            "active-span rate {} should beat lifetime rate {} (idle tail excluded)",
            snap.throughput_rps(),
            lifetime_rate
        );
        // and it can never exceed what the span supports: span >= 20ms
        // (two sleeps bound it below), so the rate is bounded above too
        assert!(snap.throughput_rps() <= 10.0 / 0.02 + 1.0);
    }

    #[test]
    fn merged_throughput_is_over_the_merged_active_span() {
        // the hot-swap shape: a retired server's bursts, its successor's,
        // then an idle tail — the merged rate is still completions over
        // first → last completion, not over the lifetime
        let retired = two_bursts();
        let live = two_bursts();
        std::thread::sleep(Duration::from_millis(200));
        let mut merged = live.snapshot(0);
        merged.merge(&retired.snapshot(0));
        assert_eq!(merged.completed, 20);
        let lifetime_rate = merged.completed as f64 / merged.elapsed.as_secs_f64();
        assert!(
            merged.throughput_rps() > 2.0 * lifetime_rate,
            "merged active-span rate {} should beat lifetime rate {}",
            merged.throughput_rps(),
            lifetime_rate
        );
        // the merged span covers both servers' bursts (>= 40ms of sleeps)
        assert!(merged.throughput_rps() <= 20.0 / 0.04 + 1.0);
    }

    #[test]
    fn throughput_falls_back_to_uptime_on_degenerate_spans() {
        // nothing completed → 0
        let rec = Recorder::new();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(rec.snapshot(0).throughput_rps(), 0.0);
        // a single completion instant → completed / uptime (never inf/NaN)
        let rec = Recorder::new();
        rec.admitted();
        rec.batch_completed([(Duration::from_millis(1), out(0, 10))].into_iter());
        std::thread::sleep(Duration::from_millis(5));
        let snap = rec.snapshot(0);
        assert!(snap.throughput_rps().is_finite());
        assert!(snap.throughput_rps() > 0.0);
        let uptime_rate = snap.completed as f64 / snap.elapsed.as_secs_f64();
        assert!((snap.throughput_rps() - uptime_rate).abs() <= uptime_rate * 0.5);
    }

    #[test]
    fn recorder_tracks_shed_and_expired_per_class_and_tenant() {
        let rec = Recorder::new();
        rec.shed(Priority::Low, Some(1));
        rec.shed(Priority::Low, Some(1));
        rec.shed(Priority::Normal, None);
        rec.expired(Priority::High, Some(2), OpCount::ZERO, 0);
        rec.expired(Priority::Low, None, OpCount::ZERO, 0);
        let snap = rec.snapshot(0);
        assert_eq!(snap.shed, 3);
        assert_eq!(snap.expired, 2);
        assert_eq!(snap.shed_by_class, [0, 1, 2]);
        assert_eq!(snap.expired_by_class, [1, 0, 1]);
        assert_eq!(snap.shed_by_tenant, vec![(1, 2)]);
        assert_eq!(snap.expired_by_tenant, vec![(2, 1)]);
        // shed/expired never pollute the served-latency histogram
        assert!(snap.latency().is_none());
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
        let rec = Recorder::new();
        let zero_work = rec.snapshot(0).energy_pj;
        rec.expired(Priority::Normal, Some(7), OpCount::from_macs(1234), 2);
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
        assert!(snap.latency().is_none());
    }

    #[test]
    fn merged_snapshots_sum_counters_and_histograms() {
        // the hot-swap shape: a retired server's final snapshot folded
        // into its successor's — totals must behave as if one server had
        // served both lifetimes
        let mut live = shard_snapshot(3, vec![2, 1]);
        let retired = shard_snapshot(4, vec![1, 0, 3]);
        live.merge(&retired);
        assert_eq!(live.submitted, 7);
        assert_eq!(live.completed, 7);
        assert_eq!(live.batches(), 7);
        assert_eq!(live.exit_histogram, vec![3, 1, 3]);
        assert_eq!(live.total_ops.macs, 7 * 50);
        assert_eq!(live.latency_histogram.count(), 7);
        assert_eq!(live.latency().unwrap().count, 7);
        assert!((live.mean_batch_size() - 1.0).abs() < 1e-12);
        assert!(live.throughput_rps() > 0.0);
        // queue_depth sums (shard_snapshot samples depth 1 each)
        assert_eq!(live.queue_depth, 2);
    }

    #[test]
    fn recorder_aggregates_batches() {
        let rec = Recorder::new();
        rec.admitted();
        rec.admitted();
        rec.admitted();
        rec.rejected();
        rec.dispatched(BatchCause::Full);
        rec.dispatched(BatchCause::Ready);
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
        assert_eq!(snap.batches(), 2);
        assert_eq!(snap.batches_full, 1);
        assert_eq!(snap.batches_ready, 1);
        assert_eq!(snap.batch_size_histogram[1], 1);
        assert_eq!(snap.batch_size_histogram[2], 1);
        assert!((snap.mean_batch_size() - 1.5).abs() < 1e-12);
        assert_eq!(snap.exit_histogram, vec![2, 0, 1]);
        assert_eq!(snap.total_ops.macs, 500);
        assert_eq!(snap.stages_activated, 1 + 3 + 1);
        assert!(snap.energy_pj > 0.0);
        assert!(snap.latency().is_some());
        // the report renders
        let text = snap.to_string();
        assert!(text.contains("batches"));
        assert!(text.contains("latency"));
    }
}
