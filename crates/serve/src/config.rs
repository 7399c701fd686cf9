//! Batch-formation policy, per-request options, and the configuration of a
//! server and of the TCP edge.

use std::fmt;
use std::time::Duration;

use cdl_core::confidence::{ConfidencePolicy, ExitOverride};
use cdl_telemetry::TelemetryConfig;

use crate::error::{ServeError, ServeResult};
use crate::fault::FaultPlan;

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
/// * `tenant` — an opaque tenant id, a label only: admission ignores it,
///   and the per-tenant shed/expired counters count by it.
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
    /// Tenant id the per-tenant shed/expired counters count by (`None` =
    /// untenanted: counted only in the aggregate counters).
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
    fn server_config_defaults_unarmed_fault_plan() {
        let config = ServerConfig::default();
        assert!(!config.fault.is_armed());
        assert!(config.validate().is_ok());
        let chaotic = ServerConfig {
            fault: crate::fault::FaultPlan::scripted(vec![(0, crate::fault::FaultKind::PanicOnce)]),
            ..ServerConfig::default()
        };
        assert!(chaotic.fault.is_armed());
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
