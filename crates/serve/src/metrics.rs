//! Server observability: one mergeable ledger, [`ServerMetrics`] —
//! counters, batch-size/exit histograms, latency histogram and cumulative
//! op/energy accounting — and one renderer of it. The ledger is the
//! recorder's state, the snapshot a caller gets, the value a hot-swap
//! carries forward and the unit of every rollup: a model's ledger
//! ([`ShardMetrics::total`]) folds in the servers it retired, and
//! [`RouterMetrics::total`] folds every model (the latency [`LogHistogram`]
//! merges losslessly, so a total's percentiles are *true* tails of the
//! union). The renderer is
//! `fill_telemetry`, which appends a ledger to a [`TelemetrySnapshot`]:
//! [`crate::Router::telemetry_snapshot`] exports it, and `Display` of
//! [`ServerMetrics`] and [`RouterMetrics`] prints its Prometheus text.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use cdl_hw::{EnergyModel, OpCount};
use cdl_telemetry::{LogHistogram, TelemetrySnapshot};

use crate::config::Priority;

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
/// prints its Prometheus text, unlabelled.
///
/// Every field is **primary**: recorded once, and merged by one rule —
/// counters, op ledgers, `energy_pj` and `queue_depth` sum, histograms add
/// slot-wise. What is derived (the batch count, latency quantiles through
/// [`LogHistogram::quantile`]) is read off the primaries, so it
/// means the same on one server's snapshot and on a merge. `Default` is
/// the empty ledger, the identity of `merge`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerMetrics {
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
    /// ([`crate::ServeError::Shed`]). Disjoint from `rejected`, which counts
    /// only capacity bounces of the default class.
    pub shed: u64,
    /// `expired_by_class[c]` = expired requests of priority class `c`
    /// ([`Priority::class`] index order, high → low).
    pub expired_by_class: [u64; Priority::COUNT],
    /// `shed_by_class[c]` = shed submissions of priority class `c`.
    pub shed_by_class: [u64; Priority::COUNT],
    /// Expired requests per tenant id, sorted by tenant (untenanted
    /// requests appear only in the aggregate `expired`).
    pub expired_by_tenant: Vec<(u32, u64)>,
    /// Shed submissions per tenant id, sorted by tenant (untenanted
    /// submissions appear only in the aggregate `shed`).
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
    /// Batches sealed and evaluated by the TCP edge thread that read their
    /// requests rather than by a worker: what an idle server does with a
    /// wire request (each is also counted under its seal cause above).
    pub batches_on_edge: u64,
    /// `batch_size_histogram[s]` = evaluated batches of size `s` (after
    /// cancellation and expiry pruning — see `ServerMetrics::batches`).
    pub batch_size_histogram: Vec<u64>,
    /// The submit→result latency histogram — [`LogHistogram::merge`] is
    /// lossless, so shard- and router-level totals report true union
    /// percentiles.
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

/// Writes the Prometheus text of what `fill` appends to an empty
/// [`TelemetrySnapshot`]: the one rendering of the ledger.
fn write_prometheus(
    f: &mut fmt::Formatter<'_>,
    fill: impl FnOnce(&mut TelemetrySnapshot),
) -> fmt::Result {
    let mut snapshot = TelemetrySnapshot::new();
    fill(&mut snapshot);
    f.write_str(&snapshot.render_prometheus())
}

impl fmt::Display for ServerMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_prometheus(f, |snapshot| self.fill_telemetry(snapshot, &[]))
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

    /// Folds `other` into this ledger — the one rollup of the serve layer:
    /// a model carrying forward the servers it retired through
    /// [`crate::Router::swap_model`], a router summing its models.
    /// Commutative and associative (up to float rounding in `energy_pj`),
    /// with [`Default`] as the identity.
    pub fn merge(&mut self, other: &ServerMetrics) {
        self.submitted += other.submitted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.cancelled += other.cancelled;
        self.failed += other.failed;
        self.expired += other.expired;
        self.shed += other.shed;
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
        self.batches_on_edge += other.batches_on_edge;
        for (size, &n) in other.batch_size_histogram.iter().enumerate() {
            add_at(&mut self.batch_size_histogram, size, n);
        }
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
    /// labels, one series per primary field: the request/batch counters
    /// (per class, per tenant, per seal cause, per evaluated batch size
    /// that occurred), the paper's per-input quantities
    /// (`cdl_exits_total{stage}`, `cdl_ops_total{kind}` with its
    /// mid-batch-expiry slice `cdl_expired_partial_ops_total{kind}`,
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
            ("cdl_batches_total", self.batches()),
            ("cdl_batches_on_edge_total", self.batches_on_edge),
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
        for (name, by_tenant) in [
            (
                "cdl_requests_expired_by_tenant_total",
                &self.expired_by_tenant,
            ),
            ("cdl_requests_shed_by_tenant_total", &self.shed_by_tenant),
        ] {
            for &(tenant, n) in by_tenant {
                push(name, "tenant", &tenant.to_string(), n);
            }
        }
        for (cause, n) in [
            ("full", self.batches_full),
            ("ready", self.batches_ready),
            ("flush", self.batches_flushed),
        ] {
            push("cdl_batches_dispatched_total", "cause", cause, n);
        }
        for (size, &n) in self.batch_size_histogram.iter().enumerate() {
            if n > 0 {
                push("cdl_batches_by_size_total", "size", &size.to_string(), n);
            }
        }
        for (stage, &n) in self.exit_histogram.iter().enumerate() {
            push("cdl_exits_total", "stage", &stage.to_string(), n);
        }
        for (name, ops) in [
            ("cdl_ops_total", self.total_ops),
            ("cdl_expired_partial_ops_total", self.expired_partial_ops),
        ] {
            for (kind, n) in [
                ("macs", ops.macs),
                ("adds", ops.adds),
                ("compares", ops.compares),
                ("activations", ops.activations),
                ("mem_reads", ops.mem_reads),
                ("mem_writes", ops.mem_writes),
            ] {
                push(name, "kind", kind, n);
            }
        }
        snapshot.push_gauge("cdl_queue_depth", labels, self.queue_depth as u64);
        snapshot.push_histogram(
            "cdl_request_latency_ns",
            labels,
            self.latency_histogram.clone(),
        );
    }
}

/// One model's routed count beside its ledger. The measurement harness
/// reads `metrics` through `ShardMetrics::replicas`, so the struct is held
/// until ROADMAP 1(g).
#[derive(Debug, Clone)]
pub struct ReplicaMetrics {
    /// Requests the router handed to the model's server — counted at the
    /// router front-end *before* the server's own admission (and rolled back
    /// if admission fails), independently of the server's `submitted`
    /// counter. A concurrent snapshot may therefore transiently observe
    /// `routed > metrics.submitted` (an admission in flight), but **never**
    /// `metrics.submitted > routed`; in any settled snapshot the two are
    /// equal — a cross-check that nothing was dropped between the two.
    pub routed: u64,
    /// The model's [`ServerMetrics`] ledger. After a
    /// [`crate::Router::swap_model`] this includes the merged lifetime
    /// totals of every server previously retired (see
    /// [`ServerMetrics::merge`]).
    pub metrics: ServerMetrics,
}

/// One model's slice of a [`RouterMetrics`] snapshot; [`ShardMetrics::total`]
/// is its ledger.
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// The model name the shard was registered under.
    pub model: String,
    /// Always 0, and not exported: the router relaunches nothing. Held,
    /// with `hedges`, while the measurement harness reads them (ROADMAP
    /// 1(g)).
    pub retries: u64,
    /// Always 0, and not exported: the router launches no duplicate
    /// attempts.
    pub hedges: u64,
    /// One entry: the model's routed count and ledger.
    pub replicas: Vec<ReplicaMetrics>,
}

impl ShardMetrics {
    /// Total requests the router routed to this model.
    pub fn routed(&self) -> u64 {
        self.replicas.iter().map(|r| r.routed).sum()
    }

    /// This model's ledger: every per-model total is a field of it
    /// (`completed`, `exit_histogram`, `latency_histogram`).
    pub fn total(&self) -> ServerMetrics {
        let mut total = ServerMetrics::default();
        self.replicas.iter().for_each(|r| total.merge(&r.metrics));
        total
    }
}

/// A point-in-time snapshot across every model of a [`crate::Router`]:
/// per-model ledgers plus [`RouterMetrics::total`], the one ledger summed
/// over all of them.
///
/// Obtained from [`crate::Router::metrics`] (live) or returned by
/// [`crate::Router::shutdown`] (final). `Display` prints the same
/// Prometheus text as [`crate::Router::telemetry_snapshot`].
#[derive(Debug, Clone)]
pub struct RouterMetrics {
    /// Per-model metrics, in registration order ([`crate::ModelId`] index
    /// order).
    pub shards: Vec<ShardMetrics>,
}

impl RouterMetrics {
    /// The router-wide ledger: the [`ServerMetrics::merge`] of every
    /// model's. Take it once and read fields off it.
    pub fn total(&self) -> ServerMetrics {
        let mut total = ServerMetrics::default();
        self.shards.iter().for_each(|s| total.merge(&s.total()));
        total
    }

    /// Append the whole snapshot to a [`TelemetrySnapshot`]: every model's
    /// routed counter and ledger, labelled `model`. The one renderer behind
    /// [`crate::Router::telemetry_snapshot`] and `Display`.
    pub(crate) fn fill_telemetry(&self, snapshot: &mut TelemetrySnapshot) {
        for shard in &self.shards {
            let labels = [("model", shard.model.as_str())];
            for replica in &shard.replicas {
                snapshot.push_counter("cdl_routed_total", &labels, replica.routed);
                replica.metrics.fill_telemetry(snapshot, &labels);
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
        write_prometheus(f, |snapshot| self.fill_telemetry(snapshot))
    }
}

/// Shared metrics sink for the submit path and the workers:
/// a [`ServerMetrics`] ledger behind one mutex (updated per batch, so
/// contention is amortised over the batch size) plus the two admission
/// counters every submit touches, kept as lock-free atomics. Those two,
/// `queue_depth` and `energy_pj` enter the ledger only in
/// [`Recorder::snapshot`].
#[derive(Debug)]
pub(crate) struct Recorder {
    submitted: AtomicU64,
    rejected: AtomicU64,
    ledger: Mutex<ServerMetrics>,
}

impl Recorder {
    pub(crate) fn new() -> Self {
        Recorder {
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
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

    /// Records a sealed batch: why it was sealed, and whether the edge
    /// thread sealed it (to evaluate it there) instead of a worker.
    pub(crate) fn dispatched(&self, cause: BatchCause, on_edge: bool) {
        let mut m = self.ledger.lock().unwrap();
        match cause {
            BatchCause::Full => m.batches_full += 1,
            BatchCause::Ready => m.batches_ready += 1,
            BatchCause::Flush => m.batches_flushed += 1,
        }
        m.batches_on_edge += u64::from(on_edge);
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
    /// control (its priority class over its limit), under its class and, if
    /// it carries one, its tenant.
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
        }
    }

    /// Takes a consistent snapshot: the ledger as recorded, plus the
    /// fields only a snapshot knows. `queue_depth` is sampled by the
    /// caller (it lives in the admission gate, not here).
    pub(crate) fn snapshot(&self, queue_depth: usize) -> ServerMetrics {
        let m = self.ledger.lock().unwrap();
        ServerMetrics {
            submitted: self.submitted.load(Ordering::Acquire),
            rejected: self.rejected.load(Ordering::Relaxed),
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

    /// Asserts the `q` quantile `actual` is within the histogram's
    /// documented relative error (1/64) of the exact order statistic.
    fn assert_within_bound(q: f64, actual: u64, exact: u64) {
        assert!(
            actual.abs_diff(exact) * 64 <= exact,
            "q{q}: {actual} is more than 1/64 away from exact {exact}"
        );
    }

    fn shard_snapshot(n_requests: u64, exits: Vec<u64>) -> ServerMetrics {
        let rec = Recorder::new();
        let ms = Duration::from_millis(1);
        for _ in 0..n_requests {
            rec.admitted();
            rec.dispatched(BatchCause::Full, false);
        }
        for (stage, &count) in exits.iter().enumerate() {
            for _ in 0..count {
                rec.batch_completed([(ms, out(stage, 50))].into_iter());
            }
        }
        rec.snapshot(1)
    }

    fn shard(model: &str, routed: u64, metrics: ServerMetrics) -> ShardMetrics {
        ShardMetrics {
            model: model.into(),
            retries: 0,
            hedges: 0,
            replicas: vec![ReplicaMetrics { routed, metrics }],
        }
    }

    /// A random ledger: every primary field drawn independently (tenant
    /// lists sorted and unique, as the recording sites keep them).
    fn ledger() -> impl Strategy<Value = ServerMetrics> {
        collection::vec(0u64..1_000, 64usize).prop_map(|draws| {
            let mut draws = draws.into_iter();
            let mut n = move || draws.next().expect("64 draws cover every field");
            let mut m = ServerMetrics {
                submitted: n(),
                rejected: n(),
                completed: n(),
                cancelled: n(),
                failed: n(),
                expired: n(),
                shed: n(),
                expired_by_class: [n(), n(), n()],
                shed_by_class: [n(), n(), n()],
                queue_depth: n() as usize,
                batches_full: n(),
                batches_ready: n(),
                batches_flushed: n(),
                batches_on_edge: n(),
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
            prop_assert_eq!(ab.latency_histogram.count(),
                a.latency_histogram.count() + b.latency_histogram.count());
        }

        #[test]
        fn totals_equal_the_fold_of_the_models_in_any_order(
            ledgers in collection::vec(ledger(), 1..6),
        ) {
            let router = RouterMetrics {
                shards: ledgers.iter().map(|m| shard("M", m.submitted, m.clone())).collect(),
            };
            let fold = |ledgers: &mut dyn Iterator<Item = &ServerMetrics>| {
                ledgers.fold(ServerMetrics::default(), |acc, m| merged(&acc, m))
            };
            for (shard, ledger) in router.shards.iter().zip(&ledgers) {
                prop_assert_eq!(&shard.total(), ledger);
                prop_assert_eq!(shard.routed(), shard.total().submitted);
            }
            let total = router.total();
            assert_same(&total, &fold(&mut ledgers.iter()))?;
            assert_same(&total, &fold(&mut ledgers.iter().rev()))?;
            // the accessors the benchmark pins are reads of the same total
            prop_assert_eq!(router.completed(), total.completed);
            prop_assert_eq!(router.batches(), total.batches());
            prop_assert_eq!(router.latency_histogram(), total.latency_histogram);
        }
    }

    #[test]
    fn router_metrics_roll_up_shards_and_merged_latency() {
        // B's ledger is a live server's with a retired one folded in
        let mut b = shard_snapshot(2, vec![1, 0, 1]);
        b.merge(&shard_snapshot(2, vec![0, 0, 2]));
        let metrics = RouterMetrics {
            shards: vec![
                shard("A", 3, shard_snapshot(3, vec![2, 1])),
                shard("B", 4, b),
            ],
        };
        assert_eq!(metrics.shards[0].routed(), 3);
        assert_eq!(metrics.shards[1].routed(), 4);
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
        // latency rollups: the model and router histograms are lossless
        // merges (every completion was recorded at 1ms)
        let shard_latency = metrics.shards[1].total().latency_histogram;
        assert_eq!(shard_latency.count(), 4);
        let router_latency = &total.latency_histogram;
        assert_eq!(router_latency.count(), 7);
        let ms = Duration::from_millis(1).as_nanos() as u64;
        for q in [0.5, 0.999] {
            assert_within_bound(q, router_latency.quantile(q).unwrap(), ms);
        }
        assert_eq!(router_latency.min_value(), Some(ms));
        assert_eq!(router_latency.max_value(), Some(ms));
        // the report is the export: per-model series
        let text = metrics.to_string();
        assert!(text.contains("cdl_routed_total{model=\"B\"} 4"));
        assert!(text.contains("cdl_exits_total{model=\"B\",stage=\"2\"} 3"));
        assert!(text.contains("cdl_request_latency_ns_count{model=\"A\"} 3"));
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
        // every batch was one request: three batches of size one
        assert!(text.contains("cdl_batches_by_size_total{model=\"A\",replica=\"0\",size=\"1\"} 3"));
        assert!(!text.contains("size=\"0\""));
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
        assert_eq!(snap.latency_histogram.count(), 0);
        // the report is the unlabelled export
        let text = snap.to_string();
        assert!(text.contains("cdl_requests_expired_total 2"));
        assert!(text.contains("cdl_requests_shed_by_tenant_total{tenant=\"1\"} 2"));
        assert!(text.contains("cdl_requests_expired_by_tenant_total{tenant=\"2\"} 1"));
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
        assert!(snap
            .to_string()
            .contains("cdl_expired_partial_ops_total{kind=\"macs\"} 1234"));
        // but nothing was delivered: no completion, no latency sample
        assert_eq!(snap.completed, 0);
        assert_eq!(snap.latency_histogram.count(), 0);
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
        assert_eq!(live.batch_size_histogram, vec![0, 7]);
        assert_eq!(live.exit_histogram, vec![3, 1, 3]);
        assert_eq!(live.total_ops.macs, 7 * 50);
        assert_eq!(live.latency_histogram.count(), 7);
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
        rec.dispatched(BatchCause::Full, false);
        rec.dispatched(BatchCause::Ready, true);
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
        assert_eq!(
            snap.batches_on_edge, 1,
            "the ready batch was sealed on the edge"
        );
        assert_eq!(snap.batch_size_histogram, vec![0, 1, 1]);
        assert_eq!(snap.exit_histogram, vec![2, 0, 1]);
        assert_eq!(snap.total_ops.macs, 500);
        assert_eq!(snap.stages_activated, 1 + 3 + 1);
        assert!(snap.energy_pj > 0.0);
        assert_eq!(snap.latency_histogram.count(), 3);
        // the report renders the batch sizes that occurred
        let text = snap.to_string();
        assert!(text.contains("cdl_batches_by_size_total{size=\"1\"} 1"));
        assert!(text.contains("cdl_batches_by_size_total{size=\"2\"} 1"));
        assert!(text.contains("cdl_request_latency_ns_count 3"));
        assert!(text.contains("cdl_batches_on_edge_total 1"));
    }
}
