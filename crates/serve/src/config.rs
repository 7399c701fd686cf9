//! Batch-formation policy, replica placement and server configuration.

use std::fmt;
use std::time::Duration;

use cdl_core::confidence::{ConfidencePolicy, ExitOverride};
use cdl_telemetry::TelemetryConfig;

use crate::error::{ServeError, ServeResult};
use crate::fault::FaultPlan;

/// How a [`crate::Router`] picks the replica that admits a request, chosen
/// once per submission over the replica set's **live queue depths** (the
/// gate occupancy `crate::Server::queue_depth` reports).
///
/// Whatever the policy picks, the response is bit-identical — every replica
/// of a model serves the same network — so placement only shapes load,
/// latency and backpressure, never results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Cycle through the replicas in index order (a lock-free counter):
    /// perfectly even admission counts, blind to load imbalance.
    #[default]
    RoundRobin,
    /// Scan every replica's queue depth and place on the least loaded
    /// (ties to the lowest index). Best balance, O(replicas) per admission.
    LeastLoaded,
    /// Sample two distinct replicas pseudo-randomly and place on the less
    /// loaded of the pair — the classic power-of-two-choices compromise:
    /// near-least-loaded balance at O(1) probes per admission.
    PowerOfTwoChoices,
}

impl PlacementPolicy {
    /// Every placement policy, for equivalence sweeps.
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::LeastLoaded,
        PlacementPolicy::PowerOfTwoChoices,
    ];
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlacementPolicy::RoundRobin => "round_robin",
            PlacementPolicy::LeastLoaded => "least_loaded",
            PlacementPolicy::PowerOfTwoChoices => "p2c",
        })
    }
}

/// How a model is replicated inside a [`crate::Router`]: the replica count
/// and the [`PlacementPolicy`] choosing among them at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaSpec {
    /// Number of identical shards serving this model (each the full
    /// gate → queue → worker-pool pipeline). Must be ≥ 1.
    pub replicas: usize,
    /// The admission-time placement policy over the replica set.
    pub placement: PlacementPolicy,
}

impl ReplicaSpec {
    /// `replicas` shards balanced by `placement`.
    pub fn new(replicas: usize, placement: PlacementPolicy) -> Self {
        ReplicaSpec {
            replicas,
            placement,
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a zero replica count.
    pub(crate) fn validate(&self) -> ServeResult<()> {
        if self.replicas == 0 {
            return Err(ServeError::BadConfig("replicas must be >= 1".into()));
        }
        Ok(())
    }
}

impl Default for ReplicaSpec {
    /// One replica, round-robin (vacuously) placed.
    fn default() -> Self {
        ReplicaSpec {
            replicas: 1,
            placement: PlacementPolicy::RoundRobin,
        }
    }
}

/// Health state of one replica in a [`crate::Router`] shard, as driven by
/// the shard's [`HealthPolicy`] state machine:
///
/// ```text
///  Healthy ──unhealthy window──▶ Degraded ──evict_after bad checks──▶ Evicted
///     ▲                            │                                    │
///     │◀──────healthy window───────┘                              next check
///     │                                                                │
///     └──healthy probe window── Probing ◀──────(canary admissions)─────┘
/// ```
///
/// `Healthy` and `Degraded` replicas take normal placements (`Degraded` is
/// the hysteresis band — suspicious but still serving). `Evicted` replicas
/// take **no** placements at all. `Probing` replicas take only a bounded
/// number of canary admissions ([`HealthPolicy::probe_budget`]) whose
/// outcomes decide readmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum ReplicaHealth {
    /// Serving normally; takes placements.
    #[default]
    Healthy = 0,
    /// One unhealthy check window observed; still takes placements while
    /// the hysteresis counter decides between recovery and eviction.
    Degraded = 1,
    /// Removed from placement entirely; no requests are routed here.
    Evicted = 2,
    /// Taking up to [`HealthPolicy::probe_budget`] canary admissions to
    /// decide readmission.
    Probing = 3,
}

impl ReplicaHealth {
    /// Stable numeric code (also the telemetry export encoding).
    pub(crate) fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`ReplicaHealth::code`].
    pub(crate) fn from_code(code: u8) -> Option<ReplicaHealth> {
        match code {
            0 => Some(ReplicaHealth::Healthy),
            1 => Some(ReplicaHealth::Degraded),
            2 => Some(ReplicaHealth::Evicted),
            3 => Some(ReplicaHealth::Probing),
            _ => None,
        }
    }

    /// Whether the replica takes normal (non-canary) placements.
    pub(crate) fn is_live(self) -> bool {
        matches!(self, ReplicaHealth::Healthy | ReplicaHealth::Degraded)
    }
}

/// Hysteresis thresholds for the per-replica health state machine (see
/// [`ReplicaHealth`]), attached to a shard with
/// [`crate::ShardSpec::health`].
///
/// Checks judge a **window**: the delta of a replica's error counters and
/// latency histogram since the previous judged check (windowed via
/// [`cdl_telemetry::LogHistogram::subtracted`]). A window is unhealthy
/// when its error rate exceeds `error_threshold` **or** its
/// `latency_quantile` latency exceeds `latency_threshold`. Windows with
/// fewer than `min_samples` settled outcomes are inconclusive and leave
/// the state untouched, so an idle replica is never judged on noise.
///
/// Checks run opportunistically every `check_every` placements on the
/// shard, and on demand through [`crate::Router::check_health`] (what
/// deterministic tests drive).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthPolicy {
    /// Window error rate (failed + injected-fault outcomes over all
    /// settled outcomes) above which the window is unhealthy. In `[0, 1]`:
    /// `0.0` makes any error unhealthy, and `1.0` effectively disables the
    /// error signal (a rate can equal but never exceed it).
    pub error_threshold: f64,
    /// Window latency above which the window is unhealthy, compared at
    /// `latency_quantile`. `None` disables the latency signal.
    pub latency_threshold: Option<Duration>,
    /// Which quantile of the window's latency histogram to compare against
    /// `latency_threshold`. In `[0, 1]` (`0.0` is the window's fastest
    /// outcome, `1.0` its slowest).
    pub latency_quantile: f64,
    /// Minimum settled outcomes in a window before it is judged (for a
    /// `Probing` replica, the effective minimum is
    /// `min_samples.min(probe_budget)` so a small probe budget can still
    /// readmit).
    pub min_samples: u64,
    /// Consecutive unhealthy checks before the replica is evicted. `1`
    /// evicts on the first bad window, straight from `Healthy`; `2` (the
    /// default) requires confirmation, the first bad window moving
    /// `Healthy → Degraded`.
    pub evict_after: u32,
    /// Canary admissions a `Probing` replica may take before its probe
    /// window is judged for readmission.
    pub probe_budget: u64,
    /// Run an automatic health check once per this many placements on the
    /// shard. `0` disables automatic checks (checks then only run through
    /// [`crate::Router::check_health`]).
    pub check_every: u64,
}

impl HealthPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for thresholds or quantiles out
    /// of range, or zero hysteresis/probe/window parameters.
    pub(crate) fn validate(&self) -> ServeResult<()> {
        if !self.error_threshold.is_finite() || !(0.0..=1.0).contains(&self.error_threshold) {
            return Err(ServeError::BadConfig(format!(
                "health error_threshold must be in [0, 1], got {}",
                self.error_threshold
            )));
        }
        if !self.latency_quantile.is_finite() || !(0.0..=1.0).contains(&self.latency_quantile) {
            return Err(ServeError::BadConfig(format!(
                "health latency_quantile must be in [0, 1], got {}",
                self.latency_quantile
            )));
        }
        if self.latency_threshold == Some(Duration::ZERO) {
            return Err(ServeError::BadConfig(
                "health latency_threshold must be > 0 when set (use None to disable)".into(),
            ));
        }
        if self.min_samples == 0 {
            return Err(ServeError::BadConfig(
                "health min_samples must be >= 1".into(),
            ));
        }
        if self.evict_after == 0 {
            return Err(ServeError::BadConfig(
                "health evict_after must be >= 1".into(),
            ));
        }
        if self.probe_budget == 0 {
            return Err(ServeError::BadConfig(
                "health probe_budget must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

impl Default for HealthPolicy {
    /// Evict on half the window failing or a p99 over 250 ms, confirmed by
    /// a second bad check; readmit through 4 canary probes; auto-check
    /// every 64 placements.
    fn default() -> Self {
        HealthPolicy {
            error_threshold: 0.5,
            latency_threshold: Some(Duration::from_millis(250)),
            latency_quantile: 0.99,
            min_samples: 8,
            evict_after: 2,
            probe_budget: 4,
            check_every: 64,
        }
    }
}

/// Request-level resilience for one shard, attached with
/// [`crate::ShardSpec::retry`]: budgeted retries on replica failure, plus
/// an optional hedged second attempt.
///
/// A failed attempt is retried (on a freshly placed replica) when its
/// error is *retryable* — [`ServeError::Eval`],
/// [`ServeError::Disconnected`], [`ServeError::Fault`], or
/// [`ServeError::Full`] (a sibling may have queue headroom) — up to
/// `max_retries` extra attempts. The other typed refusals (`Shed`, quota,
/// validation) are **not** retried: retrying them would amplify overload.
///
/// With `hedge_quantile` set, a second attempt is also launched if the
/// first has not settled after the shard's merged latency histogram says
/// `hedge_quantile` of requests should have (clamped below by
/// `hedge_floor`, which is also the cold-start delay while the histogram
/// is empty). First completion wins; the loser is cancelled through its
/// drop-to-cancel handle at **zero** evaluator ops. Responses stay
/// bit-identical whichever attempt wins — every replica serves the same
/// network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Extra attempts after the first, spent only on retryable errors.
    pub max_retries: u32,
    /// Latency quantile deriving the hedge delay from the shard's merged
    /// histogram; `None` disables hedging.
    pub hedge_quantile: Option<f64>,
    /// Lower bound on the hedge delay, and the delay used while the shard
    /// has no latency samples yet.
    pub hedge_floor: Duration,
}

impl RetryPolicy {
    /// Retry-only policy: `max_retries` extra attempts, no hedging.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            hedge_quantile: None,
            hedge_floor: Duration::from_millis(10),
        }
    }

    /// Returns this policy with hedging at `quantile` (builder-style).
    pub fn hedged(mut self, quantile: f64) -> Self {
        self.hedge_quantile = Some(quantile);
        self
    }

    /// Returns this policy with the hedge-delay floor set (builder-style).
    pub fn hedge_floor(mut self, floor: Duration) -> Self {
        self.hedge_floor = floor;
        self
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for an out-of-range hedge
    /// quantile or a zero-attempt policy (no retries *and* no hedge —
    /// use no policy at all instead).
    pub(crate) fn validate(&self) -> ServeResult<()> {
        if let Some(q) = self.hedge_quantile {
            if !q.is_finite() || !(0.0..=1.0).contains(&q) {
                return Err(ServeError::BadConfig(format!(
                    "retry hedge_quantile must be in [0, 1], got {q}"
                )));
            }
        }
        if self.max_retries == 0 && self.hedge_quantile.is_none() {
            return Err(ServeError::BadConfig(
                "retry policy with no retries and no hedge does nothing (omit it instead)".into(),
            ));
        }
        Ok(())
    }
}

impl Default for RetryPolicy {
    /// One retry, no hedging, 10 ms hedge floor.
    fn default() -> Self {
        RetryPolicy::retries(1)
    }
}

/// Priority class of a submission, used by the admission gate to decide
/// which requests to shed first under load.
///
/// The gate admits each class only up to a fraction of
/// [`ServerConfig::queue_capacity`]: [`Priority::High`] may fill the whole
/// gate, [`Priority::Normal`] roughly the lower two thirds, and
/// [`Priority::Low`] roughly the lower third. As queue depth rises the low
/// classes are refused first (a typed [`ServeError::Shed`]), reserving the
/// remaining headroom for higher classes — strict priority admission
/// without reordering the FIFO queue.
///
/// The default is [`Priority::High`]: a request that never states a
/// priority behaves exactly as before priorities existed (admitted until
/// the gate is completely full). Lower classes are strictly opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Admitted until the gate is completely full (the pre-priority
    /// behavior, and the default).
    #[default]
    High,
    /// Shed once the gate passes roughly two thirds of capacity.
    Normal,
    /// Shed first: admitted only while the gate is under roughly one third
    /// of capacity.
    Low,
}

impl Priority {
    /// Number of priority classes (array-index bound for per-class
    /// counters).
    pub const COUNT: usize = 3;

    /// Every priority class, highest first.
    pub const ALL: [Priority; Priority::COUNT] = [Priority::High, Priority::Normal, Priority::Low];

    /// Class index: 0 = [`Priority::High`] … 2 = [`Priority::Low`].
    pub fn class(self) -> usize {
        self as usize
    }

    /// Inverse of [`Priority::class`] (and of the u8 wire encoding).
    pub(crate) fn from_class(class: u8) -> Option<Priority> {
        match class {
            0 => Some(Priority::High),
            1 => Some(Priority::Normal),
            2 => Some(Priority::Low),
            _ => None,
        }
    }

    /// Gate occupancy below which this class is still admitted, for a gate
    /// of `capacity` slots: `High` ⇒ the full capacity, lower classes ⇒
    /// proportionally smaller ceilings (always ≥ 1 so a lone low-priority
    /// request on an idle server is never refused).
    pub(crate) fn admission_limit(self, capacity: usize) -> usize {
        // ⌈capacity · keep / 3⌉ without forming the product, which
        // overflows for a capacity above `usize::MAX / 3`
        let keep = Priority::COUNT - self.class();
        let (q, r) = (capacity / Priority::COUNT, capacity % Priority::COUNT);
        (q * keep + (r * keep).div_ceil(Priority::COUNT)).max(1)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        })
    }
}

/// Per-request overrides carried on a submission — the runtime-adjustable
/// accuracy/energy trade-off of the paper's Fig. 10, exposed per request so
/// one stream can mix service levels.
///
/// * `delta` replaces the model's confidence threshold δ for this request
///   only (lax δ → earlier exits, less energy; strict δ → deeper cascade,
///   more accuracy).
/// * `max_stage` caps how deep this request may cascade: reaching
///   conditional stage `max_stage` (0-based) terminates there
///   unconditionally — a hard per-request cost bound.
///
/// A sealed batch is one evaluator pass, each row gated by its own
/// request's override, so responses stay **bit-identical** to
/// [`cdl_core::network::CdlNetwork::classify_with_override`] whatever batch
/// (and whichever neighbours) a request lands in.
///
/// Beyond the accuracy/energy knobs, a submission can carry service-level
/// metadata for overload control:
///
/// * `deadline` — a per-request latency budget, measured from admission. A
///   request still queued when its budget runs out is settled with
///   [`ServeError::Expired`] as its batch is sealed, spending zero
///   evaluator ops (the queue-level analogue of early exit).
/// * `priority` — the admission class; lower classes are shed first as the
///   gate fills (see [`Priority`]).
/// * `tenant` — an opaque tenant id for per-tenant admission quotas
///   ([`ServerConfig::tenant_quota`]) and per-tenant shed/expired counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SubmitOptions {
    /// Replacement δ for this request (`None` = the model's configured
    /// threshold).
    pub delta: Option<f32>,
    /// Deepest conditional stage this request may cascade to (`None` = no
    /// cap).
    pub max_stage: Option<usize>,
    /// Latency budget measured from admission; once it elapses the request
    /// is shed unevaluated with [`ServeError::Expired`] (`None` = never
    /// expires, and so does a budget that ends past the clock's range, such
    /// as `Duration::MAX`).
    pub deadline: Option<Duration>,
    /// Admission priority class (default [`Priority::High`] — the
    /// pre-priority behavior).
    pub priority: Priority,
    /// Tenant id for quota accounting (`None` = untenanted: exempt from
    /// quotas, counted only in the aggregate counters).
    pub tenant: Option<u32>,
}

impl SubmitOptions {
    /// Overrides only δ.
    pub fn with_delta(delta: f32) -> Self {
        SubmitOptions {
            delta: Some(delta),
            ..SubmitOptions::default()
        }
    }

    /// Caps only the cascade depth.
    pub fn with_max_stage(max_stage: usize) -> Self {
        SubmitOptions {
            max_stage: Some(max_stage),
            ..SubmitOptions::default()
        }
    }

    /// Sets only a per-request deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        SubmitOptions {
            deadline: Some(deadline),
            ..SubmitOptions::default()
        }
    }

    /// Returns these options with `priority` set (builder-style).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Returns these options with `tenant` set (builder-style).
    pub fn tenant(mut self, tenant: u32) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// The [`ExitOverride`] these options apply to the evaluator.
    pub fn exit_override(&self) -> ExitOverride {
        ExitOverride {
            delta: self.delta,
            max_stage: self.max_stage,
        }
    }

    /// Validates the options against the policy they would override.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadOptions`] when the substituted δ is out of
    /// range for the model's policy type.
    pub(crate) fn validate_for(&self, policy: ConfidencePolicy) -> ServeResult<()> {
        self.exit_override()
            .validate_for(policy)
            .map_err(|e| ServeError::BadOptions(e.to_string()))
    }
}

/// When is a batch sealed and evaluated?
///
/// There is no batching thread and no timer: a worker that asks for a batch
/// seals one off the front of the server's one queue, oldest first, at most
/// `max_batch_size` requests. The policy's one choice is what the worker
/// does with a *shorter* queue:
///
/// * [`BatchPolicy::new`], the default, is work-conserving: the worker takes
///   what is queued, so batches grow only while every worker is busy — which
///   is when batching pays — and an idle server answers in batches of one;
/// * [`BatchPolicy::by_size`] holds until full: only full batches are sealed,
///   and the remainder when [`crate::Server::shutdown`] flushes it, so
///   formation is a function of the arrivals alone, never of thread timing —
///   the deterministic device of the backpressure and exact-size tests.
///
/// Batch composition never changes an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// The most requests one batch holds; a queue this long seals at once.
    pub max_batch_size: usize,
    /// Whether a worker leaves a shorter, open queue alone instead of taking it.
    pub hold_until_full: bool,
}

impl BatchPolicy {
    /// Work-conserving policy: a free worker takes whatever is queued, up to
    /// `max_batch_size` requests (`usize::MAX`: always the whole queue).
    pub fn new(max_batch_size: usize) -> Self {
        BatchPolicy {
            max_batch_size,
            hold_until_full: false,
        }
    }

    /// Hold-until-full policy: only full batches dispatch (the rest at shutdown).
    ///
    /// **Liveness caveat**: a batch larger than the number of requests that
    /// can be in flight never fills. With blocking (`submit`) producers,
    /// keep [`crate::ServerConfig::queue_capacity`] `>= max_batch_size`, or
    /// the producers and the workers wait on each other until
    /// [`crate::Server::shutdown`] flushes the batch (`try_submit_with`
    /// callers just see [`crate::ServeError::Full`] meanwhile — that stalled-open shape is
    /// exactly what the backpressure tests use deterministically).
    pub fn by_size(max_batch_size: usize) -> Self {
        BatchPolicy {
            max_batch_size,
            hold_until_full: true,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a zero batch size.
    pub(crate) fn validate(&self) -> ServeResult<()> {
        if self.max_batch_size == 0 {
            return Err(ServeError::BadConfig("max_batch_size must be >= 1".into()));
        }
        Ok(())
    }
}

impl Default for BatchPolicy {
    /// Up to 32 requests, work-conserving.
    fn default() -> Self {
        BatchPolicy::new(32)
    }
}

/// Configuration of a [`crate::Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Batch-formation policy.
    pub policy: BatchPolicy,
    /// Maximum number of **in-flight** requests: admitted (by
    /// `crate::Server::admit`) but not yet completed, cancelled or
    /// failed. Submitting beyond this bound waits (`submit`) or returns
    /// [`ServeError::Full`] (`try_submit_with`) — the server's backpressure.
    pub queue_capacity: usize,
    /// Batches in evaluation at once: the worker threads, and the persistent
    /// evaluator states ([`cdl_core::batch::EvalState`]: arenas and kernel
    /// scratch, reused across every batch) that whichever thread runs a batch
    /// draws from — a worker, or the TCP edge thread that read an idle
    /// server's request. A worker seals only while one of them is free.
    pub workers: usize,
    /// Runtime tracing switchboard: whether per-request lifecycle spans
    /// are recorded ([`crate::Server::telemetry`] drains them). Off by
    /// default — recording calls then cost one branch, so the
    /// instrumentation stays compiled into production paths.
    pub telemetry: TelemetryConfig,
    /// Per-tenant cap on in-flight requests: a submission carrying
    /// [`SubmitOptions::tenant`] is refused with
    /// [`ServeError::QuotaExceeded`] while that tenant already has this
    /// many requests admitted on the replica, no matter how empty the gate
    /// is — one noisy tenant cannot crowd out the rest. `None` (default)
    /// disables quotas; untenanted submissions are always exempt.
    pub tenant_quota: Option<usize>,
    /// Scripted fault injection for chaos testing
    /// ([`crate::fault::FaultPlan`]). Unarmed by default: the hooks then
    /// cost one branch each, the same disabled-path model as telemetry.
    pub fault: FaultPlan,
}

impl ServerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for an invalid policy, a zero
    /// queue capacity or an empty worker pool.
    pub(crate) fn validate(&self) -> ServeResult<()> {
        self.policy.validate()?;
        if self.queue_capacity == 0 {
            return Err(ServeError::BadConfig("queue_capacity must be >= 1".into()));
        }
        if self.workers == 0 {
            return Err(ServeError::BadConfig("workers must be >= 1".into()));
        }
        if self.tenant_quota == Some(0) {
            return Err(ServeError::BadConfig(
                "tenant_quota must be >= 1 when set (use None to disable quotas)".into(),
            ));
        }
        Ok(())
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(2);
        ServerConfig {
            policy: BatchPolicy::default(),
            queue_capacity: 1024,
            workers,
            telemetry: TelemetryConfig::default(),
            tenant_quota: None,
            fault: FaultPlan::default(),
        }
    }
}

/// Configuration of the event-loop TCP edge ([`crate::TcpServer`]).
///
/// The edge multiplexes every accepted connection onto a fixed pool of
/// `pollers` reactor threads — connection count never changes the thread
/// count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeConfig {
    /// Poller (reactor) threads multiplexing the connections. Each owns an
    /// epoll instance and the full read/decode/submit/encode/write state
    /// machines of the connections assigned to it (round-robin at accept).
    /// Total edge threads = `pollers` + 1 accept thread, independent of
    /// connection count.
    pub pollers: usize,
}

impl EdgeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a zero poller count.
    pub(crate) fn validate(&self) -> ServeResult<()> {
        if self.pollers == 0 {
            return Err(ServeError::BadConfig("pollers must be >= 1".into()));
        }
        Ok(())
    }
}

impl Default for EdgeConfig {
    /// One poller per core up to 4 (the same shape as
    /// [`ServerConfig::default`]'s worker pool).
    fn default() -> Self {
        let pollers = std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(2);
        EdgeConfig { pollers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_constructors() {
        let policy = |max_batch_size, hold_until_full| BatchPolicy {
            max_batch_size,
            hold_until_full,
        };
        assert_eq!(BatchPolicy::new(16), policy(16, false));
        assert_eq!(BatchPolicy::new(usize::MAX), policy(usize::MAX, false));
        assert_eq!(BatchPolicy::by_size(8), policy(8, true));
        assert_eq!(BatchPolicy::default(), policy(32, false));
    }

    #[test]
    fn invalid_policies_rejected() {
        assert!(BatchPolicy::by_size(0).validate().is_err());
        assert!(BatchPolicy::new(0).validate().is_err());
        for ok in [
            BatchPolicy::new(1),
            BatchPolicy::by_size(1),
            BatchPolicy::new(usize::MAX),
            BatchPolicy::default(),
        ] {
            assert!(ok.validate().is_ok(), "{ok:?}");
        }
    }

    #[test]
    fn placement_policy_displays() {
        let names: Vec<String> = PlacementPolicy::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["round_robin", "least_loaded", "p2c"]);
    }

    #[test]
    fn replica_spec_validates() {
        assert_eq!(ReplicaSpec::default().replicas, 1);
        let spec = ReplicaSpec::new(3, PlacementPolicy::PowerOfTwoChoices);
        assert!(spec.validate().is_ok());
        assert!(ReplicaSpec::new(0, PlacementPolicy::RoundRobin)
            .validate()
            .is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        let ok = ServerConfig::default();
        assert!(ok.validate().is_ok());
        assert!(ok.workers >= 1);
        let bad = ServerConfig {
            queue_capacity: 0,
            ..ServerConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = ServerConfig {
            workers: 0,
            ..ServerConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn priority_defaults_high_and_limits_are_monotone() {
        // the default class keeps the pre-priority behavior: full capacity
        assert_eq!(Priority::default(), Priority::High);
        assert_eq!(SubmitOptions::default().priority, Priority::High);
        for capacity in [1, 2, 3, 4, 7, 64, 1000, usize::MAX / 2, usize::MAX] {
            assert_eq!(Priority::High.admission_limit(capacity), capacity);
            let mut prev = capacity;
            for p in Priority::ALL {
                let limit = p.admission_limit(capacity);
                assert!(limit >= 1, "class {p} starved at capacity {capacity}");
                assert!(limit <= prev, "limits must not grow as class drops");
                prev = limit;
            }
        }
        for p in Priority::ALL {
            assert_eq!(Priority::from_class(p.class() as u8), Some(p));
        }
        assert_eq!(Priority::from_class(3), None);
    }

    #[test]
    fn submit_options_builders_compose() {
        let opts = SubmitOptions::with_delta(0.8)
            .priority(Priority::Low)
            .tenant(7);
        assert_eq!(opts.delta, Some(0.8));
        assert_eq!(opts.priority, Priority::Low);
        assert_eq!(opts.tenant, Some(7));
        let opts = SubmitOptions::with_deadline(Duration::from_secs(1));
        assert_eq!(opts.deadline, Some(Duration::from_secs(1)));
        assert_eq!(opts.delta, None);
        assert_eq!(opts.priority, Priority::High);
    }

    #[test]
    fn edge_config_defaults_and_validation() {
        let edge = EdgeConfig::default();
        assert!(edge.pollers >= 1);
        assert!(edge.validate().is_ok());
        assert!(EdgeConfig { pollers: 0 }.validate().is_err());
    }

    #[test]
    fn zero_tenant_quota_rejected() {
        let bad = ServerConfig {
            tenant_quota: Some(0),
            ..ServerConfig::default()
        };
        assert!(bad.validate().is_err());
        let ok = ServerConfig {
            tenant_quota: Some(1),
            ..ServerConfig::default()
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn health_policy_validates_and_codes_round_trip() {
        let ok = HealthPolicy::default();
        assert!(ok.validate().is_ok());
        assert!(HealthPolicy {
            error_threshold: 1.5,
            ..HealthPolicy::default()
        }
        .validate()
        .is_err());
        assert!(HealthPolicy {
            latency_quantile: f64::NAN,
            ..HealthPolicy::default()
        }
        .validate()
        .is_err());
        assert!(HealthPolicy {
            latency_threshold: Some(Duration::ZERO),
            ..HealthPolicy::default()
        }
        .validate()
        .is_err());
        for (field, bad) in [("min_samples", 0u64), ("probe_budget", 0)] {
            let policy = match field {
                "min_samples" => HealthPolicy {
                    min_samples: bad,
                    ..HealthPolicy::default()
                },
                _ => HealthPolicy {
                    probe_budget: bad,
                    ..HealthPolicy::default()
                },
            };
            assert!(policy.validate().is_err(), "{field} = 0 must be rejected");
        }
        assert!(HealthPolicy {
            evict_after: 0,
            ..HealthPolicy::default()
        }
        .validate()
        .is_err());
        // manual-only checks are a valid configuration
        assert!(HealthPolicy {
            check_every: 0,
            ..HealthPolicy::default()
        }
        .validate()
        .is_ok());
        for state in [
            ReplicaHealth::Healthy,
            ReplicaHealth::Degraded,
            ReplicaHealth::Evicted,
            ReplicaHealth::Probing,
        ] {
            assert_eq!(ReplicaHealth::from_code(state.code()), Some(state));
        }
        assert_eq!(ReplicaHealth::from_code(4), None);
        assert!(ReplicaHealth::Healthy.is_live());
        assert!(ReplicaHealth::Degraded.is_live());
        assert!(!ReplicaHealth::Evicted.is_live());
        assert!(!ReplicaHealth::Probing.is_live());
        assert_eq!(ReplicaHealth::default(), ReplicaHealth::Healthy);
    }

    #[test]
    fn retry_policy_validates() {
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy::retries(2).hedged(0.95).validate().is_ok());
        assert!(RetryPolicy::retries(1)
            .hedge_floor(Duration::from_millis(5))
            .validate()
            .is_ok());
        assert!(RetryPolicy::retries(2).hedged(1.5).validate().is_err());
        assert!(RetryPolicy::retries(0).validate().is_err());
        assert!(RetryPolicy::retries(0).hedged(0.5).validate().is_ok());
    }

    #[test]
    fn server_config_defaults_unarmed_fault_plan() {
        let config = ServerConfig::default();
        assert!(config.fault.on_admission().is_none());
        assert!(config.validate().is_ok());
        let chaotic = ServerConfig {
            fault: crate::fault::FaultPlan::scripted(vec![(
                0,
                crate::fault::FaultKind::ErrorBurst(1),
            )]),
            ..ServerConfig::default()
        };
        assert!(chaotic.fault.on_admission().is_some());
        assert!(chaotic.validate().is_ok());
    }

    #[test]
    fn telemetry_defaults_off() {
        let config = ServerConfig::default();
        assert!(!config.telemetry.spans);
        let traced = ServerConfig {
            telemetry: TelemetryConfig::enabled(),
            ..ServerConfig::default()
        };
        assert!(traced.validate().is_ok());
    }
}
