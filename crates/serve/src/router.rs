//! Sharded multi-network serving: one front-end fanning requests out to
//! per-model **replica sets** of shards.
//!
//! A [`Router`] owns one replica set per registered model; every replica is
//! the full single-model pipeline of [`Server`] — bounded admission gate,
//! one queue, a worker pool sealing batches onto a pool of persistent
//! evaluator states. Requests carry a [`ModelId`]; at
//! admission the model's [`PlacementPolicy`] picks the replica (round-robin,
//! least-loaded, or power-of-two-choices over the replicas' **live queue
//! depths**), and the request is routed synchronously into that replica's
//! admission queue. **Backpressure stays per replica**: a saturated replica
//! blocks (or bounces) only the submitters placed on it, never traffic for
//! its siblings or for other models.
//!
//! Per-request [`SubmitOptions`] compose with routing and placement: one
//! stream can mix models *and* δ/depth service levels, and every response
//! stays bit-identical to
//! [`cdl_core::network::CdlNetwork::classify_with_override`] on the routed
//! model **whichever replica served it** (all replicas of a model evaluate
//! the same network — pinned by `tests/router_equivalence.rs` and
//! `tests/replica_equivalence.rs`).
//!
//! On top of routing, each shard optionally carries the fault-tolerance
//! stack (see the crate-level *Failure model* essay in [`crate`]). Each of
//! its decisions is written once, in a module of its own:
//!
//! - `placement` — `candidates(health, exclude)`, which replicas an
//!   admission may go to (`Evicted` ones never, while anything else is
//!   live), and `pick(policy, cursor, candidates, depth)`, the three
//!   [`PlacementPolicy`] arms;
//! - `health` — a [`HealthPolicy`] drives a per-replica state machine
//!   ([`ReplicaHealth`]) over windowed error-rate and latency-tail
//!   signals, readmitting through bounded canary probes:
//!   `step(state, bad_streak, window, policy)` is its whole transition
//!   table, over a window of three numbers;
//! - `retry` — a [`RetryPolicy`] relaunches a request refused or failed
//!   by one replica on another, against a per-request budget; one attempt
//!   is in flight at a time, held by the caller's handle so that hanging
//!   up cancels it.
//!
//! The first two are pure functions whose table tests start no server and
//! no thread, and the tables are the specification: `tests/chaos.rs`
//! exercises the same cells end to end, through real pipelines and faults.
//! This file is the state they are applied to (`Shard::place` and
//! `Shard::check_replica` read the atomics and the ledger delta, call the
//! function, apply the result), the [`Router`] API, metrics, and
//! [`Router::swap_model`], which hot-swaps a shard's network replica by
//! replica without draining the router.

mod health;
mod placement;
mod retry;

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use cdl_core::network::CdlNetwork;
use cdl_telemetry::{EventKind, SpanEvent, TelemetrySnapshot, TraceId};
use cdl_tensor::Tensor;

use self::health::{HealthWindow, Window};
use crate::config::{
    HealthPolicy, PlacementPolicy, ReplicaHealth, ReplicaSpec, RetryPolicy, ServerConfig,
    SubmitOptions,
};
use crate::error::{Refused, ServeError, ServeResult};
use crate::fault::FaultPlan;
use crate::metrics::{ReplicaMetrics, RouterMetrics, ServerMetrics, ShardMetrics};
use crate::pending::Pending;
use crate::server::{Admission, Request, Server};

/// Identifies one model (replica set) registered with a [`Router`].
///
/// Ids are dense indices in registration order: the `i`-th
/// [`ShardSpec`] passed to [`Router::start`] gets id `i`. Look one up by
/// name with [`Router::model_id`], or construct it directly from a known
/// registration index with [`ModelId::from_index`]. Replicas are an
/// implementation detail behind the id — callers never address one
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(usize);

impl ModelId {
    /// The id of the model registered at `index` (0-based registration
    /// order).
    pub fn from_index(index: usize) -> Self {
        ModelId(index)
    }

    /// This id's registration index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model#{}", self.0)
    }
}

/// One model's slice of a [`Router`]: the network it serves, the serving
/// configuration of each replica, how it is replicated, and its optional
/// fault-tolerance policies.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Model name, unique within the router (e.g. `"MNIST_2C"`).
    pub name: String,
    /// The network every replica of this model evaluates.
    pub net: Arc<CdlNetwork>,
    /// The pipeline configuration (batch policy, queue capacity, worker
    /// count, energy model) **each replica** gets — replica sets are
    /// configured independently of each other.
    pub config: ServerConfig,
    /// Replica count + placement policy (one replica by default — the
    /// unreplicated behaviour).
    pub replicas: ReplicaSpec,
    /// Health-based eviction/readmission thresholds; `None` (the default)
    /// disables health tracking and every replica stays
    /// [`ReplicaHealth::Healthy`] forever.
    pub health: Option<HealthPolicy>,
    /// Request-level retries; `None` (the default) keeps the
    /// single-attempt behaviour.
    pub retry: Option<RetryPolicy>,
    /// Per-replica fault-plan overrides `(replica index, plan)`, replacing
    /// [`ServerConfig::fault`] for those replicas only — how chaos tests
    /// break *one* replica of a set.
    pub replica_faults: Vec<(usize, FaultPlan)>,
}

impl ShardSpec {
    /// A single-replica spec serving `net` under `name` with `config`.
    pub fn new(name: impl Into<String>, net: Arc<CdlNetwork>, config: ServerConfig) -> Self {
        ShardSpec {
            name: name.into(),
            net,
            config,
            replicas: ReplicaSpec::default(),
            health: None,
            retry: None,
            replica_faults: Vec::new(),
        }
    }

    /// The same spec replicated per `replicas` (builder style):
    /// `ShardSpec::new(...).replicated(ReplicaSpec::new(3,
    /// PlacementPolicy::LeastLoaded))`.
    pub fn replicated(mut self, replicas: ReplicaSpec) -> Self {
        self.replicas = replicas;
        self
    }

    /// Attaches a health policy (builder style).
    pub fn health(mut self, policy: HealthPolicy) -> Self {
        self.health = Some(policy);
        self
    }

    /// Attaches a retry policy (builder style).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Arms `plan` on replica `replica` only (builder style), overriding
    /// [`ServerConfig::fault`] for that replica.
    pub fn fault_on(mut self, replica: usize, plan: FaultPlan) -> Self {
        self.replica_faults.push((replica, plan));
        self
    }
}

/// One running replica: a hot-swappable [`Server`] slot plus the
/// router-level placement counter and health state.
struct Replica {
    /// The live pipeline. Swapped whole by [`Router::swap_model`]; taken
    /// (→ `None`) only by [`Router::shutdown`]. Submission paths clone the
    /// `Arc` out under the read lock and release it before admitting, so a
    /// swap never blocks behind an in-flight request.
    server: RwLock<Option<Arc<Server>>>,
    /// This replica's own pipeline configuration (the shard config plus
    /// any [`ShardSpec::fault_on`] override) — what a swapped-in server is
    /// rebuilt from.
    config: ServerConfig,
    /// Requests the router placed on this replica — counted at the router
    /// **before** the replica admits (rolled back if admission fails), so
    /// a concurrent snapshot can observe `routed > submitted` (a placement
    /// in flight) but never the reverse; settled snapshots agree exactly.
    /// Counted independently of the replica's own `submitted` counter so
    /// metrics consistency is a checkable invariant, not a tautology.
    /// Spans server generations: a swap does not reset it.
    routed: AtomicU64,
    /// Current [`ReplicaHealth`] code.
    health: AtomicU8,
    /// Health state transitions so far.
    transitions: AtomicU64,
    /// Canary placements claimed while `Probing` (capped at the policy's
    /// `probe_budget`; reset on `Evicted → Probing`).
    probes_used: AtomicU64,
    /// Check-window baseline; the mutex also serializes health checks.
    window: Mutex<HealthWindow>,
    /// The final ledgers of the servers retired by [`Router::swap_model`],
    /// as one merge — folded into every later snapshot so a swap never
    /// loses counters.
    retired: Mutex<ServerMetrics>,
}

impl Replica {
    fn health_state(&self) -> ReplicaHealth {
        ReplicaHealth::from_code(self.health.load(Ordering::Relaxed))
            .expect("health slot only ever holds valid codes")
    }

    /// Clones the live server handle out, `None` once shutdown took it.
    fn server(&self) -> Option<Arc<Server>> {
        self.server.read().unwrap().clone()
    }

    fn queue_depth(&self) -> usize {
        self.server().map_or(usize::MAX, |s| s.queue_depth())
    }

    /// Wraps this replica's already-taken `metrics` snapshot with the
    /// router-level counters. `routed` is loaded here, *after* `metrics`
    /// was taken (`submitted` pairs Release/Acquire with it): an
    /// admission landing between the two reads then shows as
    /// `routed > submitted`, the direction the invariant allows.
    fn metrics_with(&self, metrics: ServerMetrics) -> ReplicaMetrics {
        ReplicaMetrics {
            routed: self.routed.load(Ordering::Relaxed),
            health: self.health_state(),
            transitions: self.transitions.load(Ordering::Relaxed),
            metrics,
        }
    }

    /// The live [`ReplicaMetrics`], retired-pipeline metrics folded in.
    fn live_metrics(&self) -> ReplicaMetrics {
        let mut metrics = self
            .server()
            .expect("replica pipeline live until shutdown")
            .metrics();
        metrics.merge(&self.retired.lock().unwrap());
        self.metrics_with(metrics)
    }
}

/// One running replica set.
struct Shard {
    name: String,
    placement: PlacementPolicy,
    /// Monotonic placement cursor: the round-robin position, and the
    /// deterministic seed stream for power-of-two-choices sampling.
    cursor: AtomicU64,
    health: Option<HealthPolicy>,
    retry: Option<RetryPolicy>,
    /// Placements since start — drives the opportunistic health check
    /// every [`HealthPolicy::check_every`] placements.
    checks: AtomicU64,
    /// Retry attempts launched beyond each request's first.
    retries: AtomicU64,
    replicas: Vec<Replica>,
}

impl Shard {
    /// Picks the replica index the next admission goes to.
    ///
    /// With no [`HealthPolicy`] this is exactly the placement policy over
    /// live queue depths. With one, a `Probing` replica first claims
    /// canary placements up to its probe budget; normal placements then
    /// run over [`placement::candidates`]. `exclude` (used by retries) is
    /// the replica that just refused or failed the request.
    fn place(&self, exclude: Option<usize>) -> usize {
        if self.replicas.len() == 1 {
            return 0;
        }
        if let Some(policy) = &self.health {
            // canary claims first: readmission needs traffic to judge
            for (i, replica) in self.replicas.iter().enumerate() {
                if Some(i) == exclude || replica.health_state() != ReplicaHealth::Probing {
                    continue;
                }
                if replica.probes_used.fetch_add(1, Ordering::Relaxed) < policy.probe_budget {
                    return i;
                }
                replica.probes_used.fetch_sub(1, Ordering::Relaxed);
            }
        }
        let health = self.replicas.iter().map(Replica::health_state);
        placement::pick(
            self.placement,
            || self.cursor.fetch_add(1, Ordering::Relaxed),
            &placement::candidates(health, exclude),
            |i| self.replicas[i].queue_depth(),
        )
    }

    /// Places `request` on one replica and admits it there — the one
    /// placement body, shared by the plain path and every attempt of a
    /// retried request. Returns the replica index picked (what a relaunch
    /// excludes) with the admission's outcome.
    fn attempt(
        &self,
        exclude: Option<usize>,
        request: Request,
        admission: Admission,
    ) -> (usize, Result<Pending, Refused>) {
        let index = self.place(exclude);
        let replica = &self.replicas[index];
        let Some(server) = replica.server() else {
            let refused = Refused::returning(ServeError::ShuttingDown, request.input);
            return (index, Err(refused));
        };
        // count the placement BEFORE the replica admits and roll back on
        // refusal (mirroring the admitted/unadmitted pattern inside the
        // gate): a concurrent metrics() snapshot must never observe
        // `submitted > routed` — that would break the documented
        // cross-check invariant on `ReplicaMetrics::routed`
        replica.routed.fetch_add(1, Ordering::Relaxed);
        let admitted = server.admit(request, admission);
        match (&admitted, admission) {
            (Err(_), _) => {
                replica.routed.fetch_sub(1, Ordering::Relaxed);
            }
            // the edge announces (or runs) what it pushed at its pass's end
            (Ok(_), Admission::Park(edge)) => edge.pushed_to(&server),
            (Ok(_), _) => {}
        }
        (index, admitted)
    }

    /// Counts a placement and runs the opportunistic health check when the
    /// policy's `check_every` divides the count.
    fn auto_check(&self) {
        if let Some(policy) = &self.health {
            if policy.check_every > 0
                && (self.checks.fetch_add(1, Ordering::Relaxed) + 1)
                    .is_multiple_of(policy.check_every)
            {
                self.check_health_now();
            }
        }
    }

    /// Runs one health check over every replica (no-op without a policy).
    fn check_health_now(&self) {
        if let Some(policy) = &self.health {
            for replica in &self.replicas {
                self.check_replica(replica, policy);
            }
        }
    }

    /// Judges one replica's window since its last conclusive check and
    /// applies what [`health::step`] decides.
    fn check_replica(&self, replica: &Replica, policy: &HealthPolicy) {
        let Some(server) = replica.server() else {
            return; // shutting down
        };
        // the window mutex serializes checks so two concurrent checks can
        // never double-count one transition
        let mut window = replica.window.lock().unwrap();
        let state = replica.health_state();
        let snapshot = server.metrics();
        let judged = Window::since(&window.baseline, &snapshot, policy.latency_quantile);
        let Some((next, bad_streak)) = health::step(state, window.bad_streak, judged, policy)
        else {
            return; // inconclusive: keep accumulating this window
        };
        (window.baseline, window.bad_streak) = (snapshot, bad_streak);
        if next == ReplicaHealth::Probing {
            replica.probes_used.store(0, Ordering::Relaxed);
        }
        if next != state {
            // one transition: state slot, counter, span event
            replica.health.store(next.code(), Ordering::Relaxed);
            replica.transitions.fetch_add(1, Ordering::Relaxed);
            let (from, to) = (state.code(), next.code());
            let event = EventKind::Health { from, to };
            server.telemetry().record(TraceId::next(), event);
        }
    }

    /// This set's [`ShardMetrics`] around already-taken replica snapshots.
    fn metrics_with(&self, replicas: Vec<ReplicaMetrics>) -> ShardMetrics {
        ShardMetrics {
            model: self.name.clone(),
            placement: self.placement,
            retries: self.retries.load(Ordering::Relaxed),
            hedges: 0,
            replicas,
        }
    }

    fn live_metrics(&self) -> ShardMetrics {
        self.metrics_with(self.replicas.iter().map(Replica::live_metrics).collect())
    }
}

/// The sharded, replicated multi-network serving front-end.
///
/// See the [module docs](self) for the architecture and guarantees.
/// `shutdown` (or `Drop`) drains every replica of every model: all
/// outstanding [`Pending`] handles resolve before the threads exit.
pub struct Router {
    shards: Vec<Arc<Shard>>,
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut models = f.debug_map();
        for shard in &self.shards {
            models.entry(&shard.name, &shard.replicas.len());
        }
        models.finish()
    }
}

impl Router {
    /// Starts every replica of every spec and begins accepting routed
    /// requests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] when no shard is given, a model
    /// name repeats, a replica count is zero, any [`ServerConfig`],
    /// [`HealthPolicy`], or [`RetryPolicy`] is invalid, or a
    /// [`ShardSpec::fault_on`] index is out of range or repeats.
    pub fn start(specs: Vec<ShardSpec>) -> ServeResult<Router> {
        if specs.is_empty() {
            return Err(ServeError::BadConfig(
                "router needs at least one shard".into(),
            ));
        }
        for (i, spec) in specs.iter().enumerate() {
            if specs[..i].iter().any(|s| s.name == spec.name) {
                return Err(ServeError::BadConfig(format!(
                    "duplicate model name {:?}",
                    spec.name
                )));
            }
            spec.replicas.validate()?;
            if let Some(policy) = &spec.health {
                policy.validate()?;
            }
            if let Some(policy) = &spec.retry {
                policy.validate()?;
            }
            for (k, (index, _)) in spec.replica_faults.iter().enumerate() {
                if *index >= spec.replicas.replicas {
                    return Err(ServeError::BadConfig(format!(
                        "fault_on replica {index} out of range for {} replicas",
                        spec.replicas.replicas
                    )));
                }
                if spec.replica_faults[..k].iter().any(|(i, _)| i == index) {
                    return Err(ServeError::BadConfig(format!(
                        "fault_on replica {index} of {:?} given twice",
                        spec.name
                    )));
                }
            }
        }
        let shards = specs
            .into_iter()
            .map(|spec| {
                let replicas = (0..spec.replicas.replicas)
                    .map(|i| {
                        let mut config = spec.config.clone();
                        if let Some((_, plan)) =
                            spec.replica_faults.iter().find(|(index, _)| *index == i)
                        {
                            config.fault = plan.clone();
                        }
                        let server = Server::start(Arc::clone(&spec.net), config.clone())?;
                        Ok(Replica {
                            server: RwLock::new(Some(Arc::new(server))),
                            config,
                            routed: AtomicU64::new(0),
                            health: AtomicU8::new(ReplicaHealth::Healthy.code()),
                            transitions: AtomicU64::new(0),
                            probes_used: AtomicU64::new(0),
                            window: Mutex::new(HealthWindow::default()),
                            retired: Mutex::default(),
                        })
                    })
                    .collect::<ServeResult<Vec<Replica>>>()?;
                Ok(Arc::new(Shard {
                    name: spec.name,
                    placement: spec.replicas.placement,
                    cursor: AtomicU64::new(0),
                    health: spec.health,
                    retry: spec.retry,
                    checks: AtomicU64::new(0),
                    retries: AtomicU64::new(0),
                    replicas,
                }))
            })
            .collect::<ServeResult<Vec<Arc<Shard>>>>()?;
        Ok(Router { shards })
    }

    /// Looks a model up by name.
    pub fn model_id(&self, name: &str) -> Option<ModelId> {
        self.shards.iter().position(|s| s.name == name).map(ModelId)
    }

    /// The name `model` was registered under.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id.
    pub fn model_name(&self, model: ModelId) -> ServeResult<&str> {
        Ok(self.shard(model)?.name.as_str())
    }

    /// How many replicas serve `model`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id.
    pub fn replica_count(&self, model: ModelId) -> ServeResult<usize> {
        Ok(self.shard(model)?.replicas.len())
    }

    /// The network `model`'s replicas currently evaluate (the
    /// most-recently swapped-in one during a [`Router::swap_model`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id,
    /// [`ServeError::ShuttingDown`] once shutdown has begun.
    pub fn network(&self, model: ModelId) -> ServeResult<Arc<CdlNetwork>> {
        self.shard(model)?.replicas[0]
            .server()
            .map(|s| s.network_arc())
            .ok_or(ServeError::ShuttingDown)
    }

    /// Current health state of every replica of `model`, in replica order,
    /// **without** running a check.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id.
    pub fn replica_health(&self, model: ModelId) -> ServeResult<Vec<ReplicaHealth>> {
        Ok(self
            .shard(model)?
            .replicas
            .iter()
            .map(|r| r.health_state())
            .collect())
    }

    /// Runs one health check over every replica of `model` right now and
    /// returns the resulting states (what deterministic tests drive
    /// instead of waiting for the every-`check_every`-placements
    /// opportunistic check). A no-op (states stay `Healthy`) without a
    /// [`ShardSpec::health`] policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id.
    pub fn check_health(&self, model: ModelId) -> ServeResult<Vec<ReplicaHealth>> {
        self.shard(model)?.check_health_now();
        self.replica_health(model)
    }

    fn shard(&self, model: ModelId) -> ServeResult<&Arc<Shard>> {
        self.shards
            .get(model.0)
            .ok_or(ServeError::UnknownModel(model))
    }

    /// The one routed admission path: picks a replica of `model` by the
    /// set's [`PlacementPolicy`] and admits `request` there
    /// ([`Server::admit`] — `admission` and the refusal contract are
    /// its). Backpressure stays per replica: a saturated one blocks (or
    /// bounces) only the submitters placed on it, never its siblings or
    /// other models.
    ///
    /// Without a [`RetryPolicy`] that is one placement. With one, for every
    /// [`Admission`] and so for in-process and wire traffic alike, a
    /// retryable refusal ([`ServeError::Full`] included — a sibling may
    /// have headroom) or failure is relaunched on another replica against
    /// the retry budget before the caller sees it.
    ///
    /// # Errors
    ///
    /// A [`Refused`] carrying [`ServeError::UnknownModel`] for an
    /// unregistered id, else the placed replica's [`Server::admit`]
    /// refusal (the last one, after the retry budget) — with the tensor
    /// handed back in every case.
    pub(crate) fn admit(
        &self,
        model: ModelId,
        request: Request,
        admission: Admission,
    ) -> Result<Pending, Refused> {
        let shard = match self.shard(model) {
            Ok(shard) => shard,
            Err(error) => return Err(Refused::returning(error, request.input)),
        };
        shard.auto_check();
        match &shard.retry {
            None => shard.attempt(None, request, admission).1,
            Some(policy) => retry::admit(shard, policy, request, admission),
        }
    }

    /// `Router::admit` of a default-options request under `Admission::Block`.
    ///
    /// # Errors
    ///
    /// The [`ServeError`] that `Router::admit` refuses with.
    pub fn submit(&self, model: ModelId, input: Tensor) -> ServeResult<Pending> {
        self.submit_with(model, input, SubmitOptions::default())
    }

    /// `Router::admit` under `Admission::Block` with per-request
    /// [`SubmitOptions`] (δ override and/or cascade-depth cap for this
    /// request only).
    ///
    /// # Errors
    ///
    /// The [`ServeError`] that `Router::admit` refuses with.
    pub fn submit_with(
        &self,
        model: ModelId,
        input: Tensor,
        options: SubmitOptions,
    ) -> ServeResult<Pending> {
        Ok(self.admit(model, Request::new(input, options), Admission::Block)?)
    }

    /// [`Router::submit_with`] under `Admission::Try`: never blocks.
    ///
    /// # Errors
    ///
    /// The [`ServeError`] that `Router::admit` refuses with.
    pub fn try_submit_with(
        &self,
        model: ModelId,
        input: Tensor,
        options: SubmitOptions,
    ) -> ServeResult<Pending> {
        Ok(self.admit(model, Request::new(input, options), Admission::Try)?)
    }

    /// Hot-swaps the network `model`'s replicas evaluate, **without
    /// draining the router**: one replica at a time, a fresh pipeline on
    /// `net` is built and published, then the retired pipeline is drained
    /// to completion (every request it admitted still resolves — with its
    /// *old* network, which is the swap's consistency contract: every
    /// response is bit-identical to whichever network's
    /// `classify_with_override` was current when the request was placed).
    /// Requests keep flowing to the other replicas, and to the swapped
    /// replica's new pipeline, throughout. The retired pipeline's final
    /// metrics are folded into all later snapshots, so no counters are
    /// lost.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id, any
    /// [`Server::start`] failure for the replacement pipelines (in which
    /// case **no** replica was swapped — all pipelines are built before
    /// the first publish), [`ServeError::ShuttingDown`] once shutdown has
    /// begun.
    pub fn swap_model(&self, model: ModelId, net: Arc<CdlNetwork>) -> ServeResult<()> {
        let shard = self.shard(model)?;
        // build every replacement first so a mid-set start failure can
        // never leave the set half-swapped
        let fresh = shard
            .replicas
            .iter()
            .map(|replica| Server::start(Arc::clone(&net), replica.config.clone()).map(Arc::new))
            .collect::<ServeResult<Vec<Arc<Server>>>>()?;
        for (replica, next) in shard.replicas.iter().zip(fresh) {
            let old = {
                let mut slot = replica.server.write().unwrap();
                if slot.is_none() {
                    return Err(ServeError::ShuttingDown);
                }
                slot.replace(next)
            };
            let old = wait_unshared(old.expect("checked above"));
            let metrics = old.shutdown();
            replica.retired.lock().unwrap().merge(&metrics);
            // the retired pipeline's window baseline is meaningless
            // against the fresh pipeline's zeroed counters
            let mut window = replica.window.lock().unwrap();
            *window = HealthWindow::default();
        }
        Ok(())
    }

    /// A point-in-time snapshot of one model's replica set: per-replica
    /// [`crate::ServerMetrics`] plus the placement histogram.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id.
    pub fn shard_metrics(&self, model: ModelId) -> ServeResult<ShardMetrics> {
        Ok(self.shard(model)?.live_metrics())
    }

    /// A point-in-time snapshot across all models and replicas: per-model
    /// breakdowns (routing + placement histograms, exits, energy) plus
    /// aggregate accessors.
    pub fn metrics(&self) -> RouterMetrics {
        RouterMetrics {
            shards: self.shards.iter().map(|s| s.live_metrics()).collect(),
        }
    }

    /// A full exportable snapshot across all models and replicas:
    /// [`Router::metrics`] rendered through
    /// `RouterMetrics::fill_telemetry` (every replica's routed count,
    /// ledger, latency histogram and health state labeled
    /// `model`/`replica`, per-shard retry counters; the text
    /// `RouterMetrics`' `Display` prints), plus all span events drained
    /// from every replica's telemetry domain. Render it with
    /// [`TelemetrySnapshot::render_prometheus`] or
    /// [`TelemetrySnapshot::render_chrome_trace`].
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snapshot = TelemetrySnapshot::new();
        self.metrics().fill_telemetry(&mut snapshot);
        snapshot.spans = self.drain_spans();
        snapshot
    }

    /// Drains the lifecycle span events of **every** replica of every
    /// model, merged and sorted by timestamp. Each event's `at_ns` is
    /// measured from its own replica's epoch; replicas start together in
    /// [`Router::start`], so the merged ordering is only approximate
    /// *across* traces, while intervals *within* one trace are exact (a
    /// request's whole lifecycle is recorded by the one replica that
    /// served it).
    pub fn drain_spans(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for replica in &shard.replicas {
                if let Some(server) = replica.server() {
                    out.extend(server.telemetry().drain());
                }
            }
        }
        out.sort_by_key(|e| e.at_ns);
        out
    }

    /// Graceful drain-then-stop across **all** replicas of all models:
    /// every replica stops admissions, flushes its queued and partially
    /// formed batches, and resolves every outstanding [`Pending`] before
    /// its threads join. Returns the final metrics snapshot, including the
    /// folded-in metrics of any pipelines retired by
    /// [`Router::swap_model`].
    pub fn shutdown(self) -> RouterMetrics {
        let mut out = Vec::new();
        for shard in self.shards {
            let mut replicas = Vec::new();
            for replica in &shard.replicas {
                let server = replica
                    .server
                    .write()
                    .unwrap()
                    .take()
                    .expect("router shutdown runs once");
                let mut metrics = wait_unshared(server).shutdown();
                metrics.merge(&replica.retired.lock().unwrap());
                replicas.push(replica.metrics_with(metrics));
            }
            out.push(shard.metrics_with(replicas));
        }
        RouterMetrics { shards: out }
    }
}

/// Spins (briefly sleeping) until `server` is the only handle left, then
/// returns it by value so it can be shut down. Submission paths hold their
/// clones only across one admission call, and the TCP edge across the rest
/// of the pass that pushed to it (an idle server's batch is evaluated in
/// it), so the wait is bounded by the longest in-flight admission (a
/// *blocking* `submit` against a full gate in the extreme) or edge batch.
fn wait_unshared(mut server: Arc<Server>) -> Server {
    loop {
        match Arc::try_unwrap(server) {
            Ok(inner) => return inner,
            Err(shared) => {
                server = shared;
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::BatchPolicy;
    use crate::server::tests::join_within;
    use cdl_core::arch::{self, CdlArchitecture};
    use cdl_core::confidence::{ConfidencePolicy, ExitOverride};
    use cdl_core::head::LinearClassifier;
    use cdl_nn::network::Network;
    use std::time::Duration;

    pub(crate) fn build_untrained(arch: CdlArchitecture, seed: u64) -> Arc<CdlNetwork> {
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

    fn two_model_specs(policy: BatchPolicy, queue_capacity: usize) -> Vec<ShardSpec> {
        let config = ServerConfig {
            policy,
            queue_capacity,
            workers: 1,
            ..ServerConfig::default()
        };
        vec![
            ShardSpec::new(
                "MNIST_2C",
                build_untrained(arch::mnist_2c(), 5),
                config.clone(),
            ),
            ShardSpec::new("MNIST_3C", build_untrained(arch::mnist_3c(), 9), config),
        ]
    }

    pub(super) fn images(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::full(&[1, 28, 28], 0.1 + 0.07 * (i as f32 % 11.0)))
            .collect()
    }

    #[test]
    fn routes_to_the_right_model() {
        let router = Router::start(two_model_specs(BatchPolicy::new(usize::MAX), 64)).unwrap();
        let m2c = router.model_id("MNIST_2C").unwrap();
        let m3c = router.model_id("MNIST_3C").unwrap();
        assert_eq!(router.model_name(m2c).unwrap(), "MNIST_2C");
        assert_eq!(router.model_name(m3c).unwrap(), "MNIST_3C");
        assert_eq!(router.replica_count(m2c).unwrap(), 1);
        // 2C has 1 conditional stage, 3C has 2 — structurally different
        assert_eq!(router.network(m2c).unwrap().stage_count(), 1);
        assert_eq!(router.network(m3c).unwrap().stage_count(), 2);

        let inputs = images(12);
        let pendings: Vec<(ModelId, Pending)> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                let model = if i % 2 == 0 { m2c } else { m3c };
                (model, router.submit(model, x.clone()).unwrap())
            })
            .collect();
        for ((model, pending), x) in pendings.into_iter().zip(&inputs) {
            let expected = router.network(model).unwrap().classify(x).unwrap();
            assert_eq!(pending.wait().unwrap(), expected);
        }
        let metrics = router.shutdown();
        assert_eq!(metrics.routing_histogram(), vec![6, 6]);
        assert_eq!(metrics.total().completed, 12);
        assert_eq!(metrics.total().failed, 0);
        for shard in &metrics.shards {
            assert_eq!(shard.routed(), shard.total().submitted);
            for replica in &shard.replicas {
                assert_eq!(replica.routed, replica.metrics.submitted);
            }
        }
    }

    #[test]
    fn unknown_model_is_a_typed_error() {
        let router = Router::start(two_model_specs(BatchPolicy::default(), 8)).unwrap();
        let ghost = ModelId::from_index(7);
        let x = images(1).remove(0);
        assert_eq!(
            router.submit(ghost, x.clone()).unwrap_err(),
            ServeError::UnknownModel(ghost)
        );
        assert_eq!(
            router
                .try_submit_with(ghost, x, SubmitOptions::default())
                .unwrap_err(),
            ServeError::UnknownModel(ghost)
        );
        assert!(matches!(
            router.shard_metrics(ghost),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(router.model_name(ghost).is_err());
        assert!(router.replica_count(ghost).is_err());
        // nothing was admitted anywhere
        let metrics = router.shutdown();
        assert_eq!(metrics.total().submitted, 0);
        assert!(ServeError::UnknownModel(ghost)
            .to_string()
            .contains("model#7"));
    }

    #[test]
    fn per_request_overrides_route_with_the_request() {
        let router = Router::start(two_model_specs(BatchPolicy::new(usize::MAX), 64)).unwrap();
        let m3c = router.model_id("MNIST_3C").unwrap();
        let x = images(1).remove(0);
        // δ ≈ 1 never exits by confidence; capping at stage 0 must force it
        let opts = SubmitOptions {
            delta: Some(0.999),
            max_stage: Some(0),
            ..SubmitOptions::default()
        };
        let out = router
            .submit_with(m3c, x.clone(), opts)
            .unwrap()
            .wait()
            .unwrap();
        let expected = router
            .network(m3c)
            .unwrap()
            .classify_with_override(
                &x,
                ExitOverride {
                    delta: Some(0.999),
                    max_stage: Some(0),
                },
            )
            .unwrap();
        assert_eq!(out, expected);
        assert_eq!(out.exit_stage, 0);
        // invalid overrides bounce at admission with a typed error
        assert!(matches!(
            router.submit_with(m3c, x, SubmitOptions::with_delta(7.0)),
            Err(ServeError::BadOptions(_))
        ));
        router.shutdown();
    }

    #[test]
    fn shard_backpressure_is_independent() {
        // shard queues of 2; a size-bound batch that never fills keeps
        // everything admitted to 2C stuck on its queue
        let router = Router::start(two_model_specs(BatchPolicy::by_size(1 << 20), 2)).unwrap();
        let m2c = router.model_id("MNIST_2C").unwrap();
        let m3c = router.model_id("MNIST_3C").unwrap();
        let inputs = images(2);
        let stuck: Vec<Pending> = inputs
            .iter()
            .map(|x| {
                router
                    .try_submit_with(m2c, x.clone(), SubmitOptions::default())
                    .unwrap()
            })
            .collect();
        // 2C is saturated…
        assert_eq!(
            router
                .try_submit_with(m2c, inputs[0].clone(), SubmitOptions::default())
                .unwrap_err(),
            ServeError::Full
        );
        // …but 3C still accepts (and blocks nothing)
        let other = router
            .try_submit_with(m3c, inputs[0].clone(), SubmitOptions::default())
            .unwrap();
        let live = router.metrics();
        assert_eq!(live.shards[m2c.index()].total().rejected, 1);
        assert_eq!(live.shards[m3c.index()].total().rejected, 0);
        assert_eq!(live.total().rejected, 1);
        assert_eq!(live.total().queue_depth, 3);
        // the bounced request was rolled back out of the routed count, so
        // even this *unsettled* snapshot cross-checks per replica
        for shard in &live.shards {
            for replica in &shard.replicas {
                assert_eq!(replica.routed, replica.metrics.submitted);
            }
        }
        // drain-then-stop resolves handles across ALL shards
        let metrics = router.shutdown();
        assert_eq!(metrics.total().completed, 3);
        assert_eq!(metrics.total().queue_depth, 0);
        for pending in stuck {
            pending.wait().unwrap();
        }
        other.wait().unwrap();
    }

    #[test]
    fn concurrent_snapshots_never_observe_submitted_over_routed() {
        // regression for the routed-after-admission race: hammer submits
        // from several threads while a sampler takes live snapshots — no
        // snapshot may ever catch a replica with submitted > routed
        use std::sync::atomic::AtomicBool;
        let net = build_untrained(arch::mnist_2c(), 5);
        let config = ServerConfig {
            policy: BatchPolicy::new(usize::MAX),
            queue_capacity: 4096,
            workers: 1,
            ..ServerConfig::default()
        };
        let router = Arc::new(
            Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)
                .replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin))])
            .unwrap(),
        );
        let model = router.model_id("m").unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let submitters: Vec<_> = (0..3)
            .map(|t| {
                let router = Arc::clone(&router);
                std::thread::spawn(move || {
                    let x = Tensor::full(&[1, 28, 28], 0.1 + 0.01 * t as f32);
                    let pendings: Vec<Pending> = (0..80)
                        .map(|_| router.submit(model, x.clone()).unwrap())
                        .collect();
                    for pending in pendings {
                        pending.wait().unwrap();
                    }
                })
            })
            .collect();
        let sampler = {
            let (router, done) = (Arc::clone(&router), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut samples = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let snapshot = router.metrics();
                    for replica in &snapshot.shards[0].replicas {
                        assert!(
                            replica.metrics.submitted <= replica.routed,
                            "snapshot observed submitted {} > routed {}",
                            replica.metrics.submitted,
                            replica.routed
                        );
                    }
                    samples += 1;
                }
                samples
            })
        };
        for handle in submitters {
            join_within(handle);
        }
        done.store(true, Ordering::Relaxed);
        assert!(join_within(sampler) > 0, "sampler never ran");
        let router = Arc::into_inner(router).expect("every thread is done");
        let metrics = router.shutdown();
        assert_eq!(metrics.total().completed, 240);
        for replica in &metrics.shards[0].replicas {
            assert_eq!(replica.routed, replica.metrics.submitted);
        }
    }

    #[test]
    fn adopted_traces_flow_through_routing() {
        let net = build_untrained(arch::mnist_2c(), 5);
        let config = ServerConfig {
            policy: BatchPolicy::new(usize::MAX),
            queue_capacity: 64,
            workers: 1,
            telemetry: cdl_telemetry::TelemetryConfig::enabled(),
            ..ServerConfig::default()
        };
        let router = Router::start(vec![ShardSpec::new("m", Arc::clone(&net), config)
            .replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin))])
        .unwrap();
        let model = router.model_id("m").unwrap();
        let trace = TraceId::next();
        let x = images(1).remove(0);
        let request = Request {
            trace: Some(trace),
            ..Request::new(x, SubmitOptions::default())
        };
        let pending = router.admit(model, request, Admission::Block).unwrap();
        pending.wait().unwrap();
        // Exit is recorded before the result settles, so after wait() the
        // admission-to-exit lifecycle is guaranteed drained (only Reply
        // may still race; tests/telemetry.rs covers it post-shutdown)
        let events = router.drain_spans();
        let mine: Vec<_> = events.iter().filter(|e| e.trace == trace).collect();
        assert!(
            mine.iter()
                .any(|e| e.kind == cdl_telemetry::EventKind::Admit),
            "missing Admit: {mine:?}"
        );
        assert!(
            mine.iter()
                .any(|e| matches!(e.kind, cdl_telemetry::EventKind::Exit(_))),
            "missing Exit: {mine:?}"
        );
        router.shutdown();
    }

    /// Every `name{labels} value` sample line of a Prometheus exposition.
    fn prometheus_samples(text: &str) -> std::collections::HashMap<String, u64> {
        text.lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| {
                let (series, value) = line.rsplit_once(' ').expect("sample line");
                (series.to_string(), value.parse().expect("integer sample"))
            })
            .collect()
    }

    #[test]
    fn prometheus_export_equals_the_metrics_snapshot() {
        // mixed traffic: two models of different depth, one of them on two
        // replicas, batches held to pairs, a few callers hanging up before
        // their answer, and tenant-tagged requests that are shed or expire
        let mut specs = two_model_specs(BatchPolicy::by_size(2), 64);
        specs[0].config.tenant_quota = Some(1);
        let three_c = specs.pop().unwrap();
        specs.push(three_c.replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin)));
        let router = Router::start(specs).unwrap();
        let models = [
            router.model_id("MNIST_2C").unwrap(),
            router.model_id("MNIST_3C").unwrap(),
        ];
        let mut pendings: Vec<Pending> = images(24)
            .into_iter()
            .enumerate()
            .map(|(i, x)| router.submit(models[i % 2], x).unwrap())
            .collect();
        pendings.truncate(20); // the last four are dropped unanswered

        // tenant 7 holds its one slot while its request waits for a pair,
        // so its second is shed; tenant 8's completes the pair, expired
        let x = images(1).remove(0);
        let tenant = |t: u32| SubmitOptions::default().tenant(t);
        pendings.push(router.submit_with(models[0], x.clone(), tenant(7)).unwrap());
        let refused = router.try_submit_with(models[0], x.clone(), tenant(7));
        assert_eq!(refused.unwrap_err(), ServeError::QuotaExceeded(7));
        let doomed = SubmitOptions::with_deadline(Duration::ZERO).tenant(8);
        let expired = router.submit_with(models[0], x, doomed).unwrap();
        assert_eq!(expired.wait().unwrap_err(), ServeError::Expired);
        for pending in pendings {
            pending.wait().unwrap();
        }
        while router.metrics().total().queue_depth > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // settled: the export and the snapshot must now agree exactly
        let text = router.telemetry_snapshot().render_prometheus();
        let metrics = router.metrics();
        // and the report is that same text
        assert_eq!(metrics.to_string(), text);
        let mut samples = prometheus_samples(&text);
        let mut exported = |name: &str, labels: &str| {
            let series = format!("{name}{{{labels}}}");
            samples
                .remove(&series)
                .unwrap_or_else(|| panic!("{series} not exported:\n{text}"))
        };
        // every field is destructured with no `..`: a field added to the
        // snapshot does not compile here until it is exported or named as
        // skipped
        for shard in &metrics.shards {
            let ShardMetrics {
                model,
                placement: _, // configuration, not a count
                retries,
                hedges: _, // always 0, not exported
                replicas,
            } = shard;
            let model = format!("model=\"{model}\"");
            assert_eq!(exported("cdl_shard_retries_total", &model), *retries);
            for (i, replica) in replicas.iter().enumerate() {
                let at = format!("{model},replica=\"{i}\"");
                let ReplicaMetrics {
                    routed,
                    health,
                    transitions,
                    metrics,
                } = replica;
                let ServerMetrics {
                    submitted,
                    rejected,
                    completed,
                    cancelled,
                    failed,
                    expired,
                    shed,
                    faults,
                    expired_by_class,
                    shed_by_class,
                    expired_by_tenant,
                    shed_by_tenant,
                    queue_depth,
                    batches_full,
                    batches_ready,
                    batches_flushed,
                    batches_on_edge,
                    batch_size_histogram,
                    latency_histogram,
                    exit_histogram,
                    total_ops,
                    expired_partial_ops,
                    stages_activated,
                    energy_pj,
                } = metrics;
                for (name, value) in [
                    ("cdl_replica_routed_total", *routed),
                    ("cdl_replica_health_state", u64::from(health.code())),
                    ("cdl_replica_health_transitions_total", *transitions),
                    ("cdl_requests_submitted_total", *submitted),
                    ("cdl_requests_completed_total", *completed),
                    ("cdl_requests_rejected_total", *rejected),
                    ("cdl_requests_cancelled_total", *cancelled),
                    ("cdl_requests_failed_total", *failed),
                    ("cdl_requests_expired_total", *expired),
                    ("cdl_requests_shed_total", *shed),
                    ("cdl_requests_faulted_total", *faults),
                    ("cdl_batches_total", batch_size_histogram.iter().sum()),
                    ("cdl_batches_on_edge_total", *batches_on_edge),
                    ("cdl_stages_activated_total", *stages_activated),
                    ("cdl_energy_picojoules_total", energy_pj.round() as u64),
                    ("cdl_queue_depth", *queue_depth as u64),
                    ("cdl_request_latency_ns_count", latency_histogram.count()),
                    ("cdl_request_latency_ns_sum", latency_histogram.sum()),
                ] {
                    assert_eq!(exported(name, &at), value, "{name}{{{at}}}");
                }
                let mut labelled = |name: &str, key: &str, value: &str, n: u64| {
                    let labels = format!("{at},{key}=\"{value}\"");
                    assert_eq!(exported(name, &labels), n, "{name}{{{labels}}}");
                };
                for p in crate::Priority::ALL {
                    let (class, c) = (p.to_string(), p.class());
                    let name = "cdl_requests_expired_by_class_total";
                    labelled(name, "class", &class, expired_by_class[c]);
                    let name = "cdl_requests_shed_by_class_total";
                    labelled(name, "class", &class, shed_by_class[c]);
                }
                for (name, by_tenant) in [
                    ("cdl_requests_expired_by_tenant_total", expired_by_tenant),
                    ("cdl_requests_shed_by_tenant_total", shed_by_tenant),
                ] {
                    for &(t, n) in by_tenant {
                        labelled(name, "tenant", &t.to_string(), n);
                    }
                }
                for (cause, n) in [
                    ("full", batches_full),
                    ("ready", batches_ready),
                    ("flush", batches_flushed),
                ] {
                    labelled("cdl_batches_dispatched_total", "cause", cause, *n);
                }
                for (size, &n) in batch_size_histogram.iter().enumerate() {
                    if n > 0 {
                        labelled("cdl_batches_by_size_total", "size", &size.to_string(), n);
                    }
                }
                for (stage, &n) in exit_histogram.iter().enumerate() {
                    labelled("cdl_exits_total", "stage", &stage.to_string(), n);
                }
                for (name, ops) in [
                    ("cdl_ops_total", total_ops),
                    ("cdl_expired_partial_ops_total", expired_partial_ops),
                ] {
                    labelled(name, "kind", "macs", ops.macs);
                    labelled(name, "kind", "adds", ops.adds);
                    labelled(name, "kind", "compares", ops.compares);
                    labelled(name, "kind", "activations", ops.activations);
                    labelled(name, "kind", "mem_reads", ops.mem_reads);
                    labelled(name, "kind", "mem_writes", ops.mem_writes);
                }
                let count = latency_histogram.count();
                labelled("cdl_request_latency_ns_bucket", "le", "+Inf", count);
            }
        }
        // nothing is exported that the snapshot does not account for
        samples.retain(|series, _| !series.starts_with("cdl_request_latency_ns_bucket"));
        assert!(samples.is_empty(), "unaccounted samples: {samples:?}");
        // and the traffic was what the test set out to send
        let total = metrics.total();
        assert_eq!(total.submitted, 26);
        assert_eq!(total.completed + total.cancelled, 25);
        assert!(total.completed >= 21 && total.energy_pj > 0.0);
        assert_eq!(total.exit_histogram.iter().sum::<u64>(), total.completed);
        assert!(total.batch_size_histogram[2] > 0, "no batch of two");
        assert_eq!(total.shed_by_tenant, vec![(7, 1)]);
        assert_eq!(total.expired_by_tenant, vec![(8, 1)]);
        assert!(
            text.contains("# TYPE cdl_replica_health_state gauge"),
            "{text}"
        );
        assert!(text.contains("# TYPE cdl_exits_total counter"), "{text}");
        router.shutdown();
    }

    #[test]
    fn start_validates_shard_set() {
        use crate::fault::{FaultKind, FaultPlan};
        assert!(matches!(
            Router::start(vec![]),
            Err(ServeError::BadConfig(_))
        ));
        let mut specs = two_model_specs(BatchPolicy::default(), 8);
        specs[1].name = specs[0].name.clone();
        assert!(matches!(
            Router::start(specs),
            Err(ServeError::BadConfig(_))
        ));
        let mut specs = two_model_specs(BatchPolicy::default(), 8);
        specs[0].config.workers = 0;
        assert!(Router::start(specs).is_err());
        let mut specs = two_model_specs(BatchPolicy::default(), 8);
        specs[0].replicas = ReplicaSpec::new(0, PlacementPolicy::RoundRobin);
        assert!(matches!(
            Router::start(specs),
            Err(ServeError::BadConfig(_))
        ));
        // fault-tolerance configs are validated up front too
        let mut specs = two_model_specs(BatchPolicy::default(), 8);
        specs[0].health = Some(HealthPolicy {
            min_samples: 0,
            ..HealthPolicy::default()
        });
        assert!(matches!(
            Router::start(specs),
            Err(ServeError::BadConfig(_))
        ));
        let mut specs = two_model_specs(BatchPolicy::default(), 8);
        specs[0].retry = Some(RetryPolicy::retries(0));
        assert!(matches!(
            Router::start(specs),
            Err(ServeError::BadConfig(_))
        ));
        let spec = two_model_specs(BatchPolicy::default(), 8).remove(0);
        let specs =
            vec![spec.fault_on(3, FaultPlan::scripted(vec![(0, FaultKind::ErrorBurst(1))]))];
        assert!(matches!(
            Router::start(specs),
            Err(ServeError::BadConfig(_))
        ));
        // a second plan for one replica is refused, not silently dropped
        let spec = two_model_specs(BatchPolicy::default(), 8).remove(0);
        let spec = spec
            .fault_on(0, FaultPlan::scripted(vec![(0, FaultKind::ErrorBurst(1))]))
            .fault_on(0, FaultPlan::scripted(vec![(0, FaultKind::PanicOnce)]));
        let err = Router::start(vec![spec]).err();
        assert!(
            matches!(&err, Some(ServeError::BadConfig(m)) if m.contains("MNIST_2C")),
            "{err:?}"
        );
    }

    #[test]
    fn swap_model_publishes_the_new_network() {
        let net_a = build_untrained(arch::mnist_2c(), 5);
        let net_b = build_untrained(arch::mnist_2c(), 11);
        let config = ServerConfig {
            policy: BatchPolicy::new(usize::MAX),
            queue_capacity: 64,
            workers: 1,
            ..ServerConfig::default()
        };
        let router = Router::start(vec![ShardSpec::new("m", Arc::clone(&net_a), config)
            .replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin))])
        .unwrap();
        let model = router.model_id("m").unwrap();
        let x = images(1).remove(0);
        let before = router.submit(model, x.clone()).unwrap().wait().unwrap();
        assert_eq!(before, net_a.classify(&x).unwrap());
        router.swap_model(model, Arc::clone(&net_b)).unwrap();
        assert!(Arc::ptr_eq(&router.network(model).unwrap(), &net_b));
        let after = router.submit(model, x.clone()).unwrap().wait().unwrap();
        assert_eq!(after, net_b.classify(&x).unwrap());
        // retired-pipeline counters are folded into later snapshots
        let metrics = router.shutdown();
        assert_eq!(metrics.total().completed, 2);
        for replica in &metrics.shards[0].replicas {
            assert_eq!(replica.routed, replica.metrics.submitted);
        }
    }

    #[test]
    fn a_request_parked_on_a_retiring_pipeline_is_woken_by_its_drain_and_served_by_the_next() {
        let net_a = build_untrained(arch::mnist_2c(), 5);
        let net_b = build_untrained(arch::mnist_2c(), 11);
        // capacity 1 and a batch that never fills: the held request keeps the
        // gate full until a drain flushes it
        let config = ServerConfig {
            policy: BatchPolicy::by_size(1 << 20),
            queue_capacity: 1,
            workers: 1,
            ..ServerConfig::default()
        };
        let router = Router::start(vec![ShardSpec::new("m", Arc::clone(&net_a), config)]).unwrap();
        let model = router.model_id("m").unwrap();
        let x = images(2);
        let held = router.submit(model, x[0].clone()).unwrap();
        // what the TCP edge does with a decoded request
        let (woken, edge) = crate::server::tests::counting_edge();
        let park = |input: Tensor| {
            let request = Request::new(input, SubmitOptions::default());
            router.admit(model, request, Admission::Park(&edge))
        };
        let refused = park(x[1].clone()).unwrap_err();
        assert_eq!(refused.error, ServeError::Full);
        assert_eq!(woken.load(Ordering::SeqCst), 0);
        router.swap_model(model, Arc::clone(&net_b)).unwrap();
        // the swap drained the retiring pipeline, whose release woke the edge
        assert_eq!(woken.load(Ordering::SeqCst), 1);
        assert_eq!(held.wait().unwrap(), net_a.classify(&x[0]).unwrap());
        let retried = park(refused.input.unwrap()).unwrap();
        edge.end_pass(); // as the edge does after every pass: it holds no server past it
        router.shutdown(); // the replacement's drain flushes the retry
        assert_eq!(retried.wait().unwrap(), net_b.classify(&x[1]).unwrap());
    }

    #[test]
    fn a_park_relaunched_past_a_fault_leaves_its_waker_on_the_full_replica() {
        use crate::fault::{FaultKind, FaultPlan};
        let config = ServerConfig {
            policy: BatchPolicy::by_size(1 << 20),
            queue_capacity: 1,
            workers: 1,
            ..ServerConfig::default()
        };
        // round-robin places the first attempt on replica 0, which refuses
        // every admission; the one retry goes to replica 1, which is full
        let faulty = FaultPlan::scripted(vec![(0, FaultKind::ErrorBurst(1 << 20))]);
        let spec = ShardSpec::new("m", build_untrained(arch::mnist_2c(), 5), config)
            .replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin))
            .fault_on(0, faulty)
            .retry(RetryPolicy::retries(1));
        let router = Router::start(vec![spec]).unwrap();
        let model = router.model_id("m").unwrap();
        let server = |i: usize| router.shards[0].replicas[i].server().unwrap();
        let _held = server(1).submit(images(1).remove(0)).unwrap();
        let (_, edge) = crate::server::tests::counting_edge();
        let request = Request::new(images(1).remove(0), SubmitOptions::default());
        let refused = router
            .admit(model, request, Admission::Park(&edge))
            .unwrap_err();
        assert_eq!(refused.error, ServeError::Full);
        // the `Full` that reached the caller left the waker where it was said
        assert_eq!([0, 1].map(|i| server(i).parked_wakers()), [0, 1]);
        router.shutdown();
    }

    /// The production trigger: with `check_every: k` the k-th placement
    /// runs a health check on its own, no `Router::check_health` call. The
    /// first k − 1 placements alternate over the two replicas, so replica
    /// 1 refuses four of them under its error burst; the k-th judges that
    /// window and evicts it. Checks are counted in placements, not timed,
    /// so the placement that triggers one is known exactly.
    #[test]
    fn the_kth_placement_runs_the_health_check() {
        use crate::fault::{FaultKind, FaultPlan};
        const K: u64 = 9;
        let config = ServerConfig {
            policy: BatchPolicy::new(usize::MAX),
            queue_capacity: 64,
            workers: 1,
            ..ServerConfig::default()
        };
        let spec = ShardSpec::new("m", build_untrained(arch::mnist_2c(), 5), config)
            .replicated(ReplicaSpec::new(2, PlacementPolicy::RoundRobin))
            .fault_on(
                1,
                FaultPlan::scripted(vec![(0, FaultKind::ErrorBurst(1 << 20))]),
            )
            .health(HealthPolicy {
                check_every: K,
                evict_after: 1,
                min_samples: 4,
                latency_threshold: None,
                ..HealthPolicy::default()
            });
        let router = Router::start(vec![spec]).unwrap();
        let model = router.model_id("m").unwrap();
        let healthy = vec![ReplicaHealth::Healthy; 2];
        let mut pending = Vec::new();
        for x in images(K as usize - 1) {
            // replica 1's refusals are the window the check will judge
            pending.extend(
                router
                    .try_submit_with(model, x, SubmitOptions::default())
                    .ok(),
            );
            assert_eq!(router.replica_health(model).unwrap(), healthy);
        }
        assert_eq!(
            pending.len(),
            K as usize / 2,
            "replica 0 admitted its share"
        );
        pending.extend(
            router
                .try_submit_with(model, images(1).remove(0), SubmitOptions::default())
                .ok(),
        );
        assert_eq!(
            router.replica_health(model).unwrap(),
            [ReplicaHealth::Healthy, ReplicaHealth::Evicted]
        );
        router.shutdown();
        for p in pending {
            p.wait().unwrap();
        }
    }

    #[test]
    fn every_refusal_hands_the_tensor_back() {
        use crate::config::Priority;
        use crate::fault::{FaultKind, FaultPlan};
        for retry in [None, Some(RetryPolicy::retries(2))] {
            // a refused attempt is retried (on the same replica: there is
            // only one), so the burst must outlast the budget to surface
            let burst = 1 + retry.map_or(0, |r| u64::from(r.max_retries));
            let mut spec = ShardSpec::new(
                "m",
                build_untrained(arch::mnist_2c(), 5),
                ServerConfig {
                    // never-full batch: gate occupancy only ever grows.
                    // capacity 6 → admission limits high 6, low 2
                    policy: BatchPolicy::by_size(1 << 20),
                    queue_capacity: 6,
                    workers: 1,
                    tenant_quota: Some(1),
                    fault: FaultPlan::scripted(vec![(0, FaultKind::ErrorBurst(burst))]),
                    ..ServerConfig::default()
                },
            );
            spec.retry = retry;
            let router = Router::start(vec![spec]).unwrap();
            let model = router.model_id("m").unwrap();
            let refused = |model: ModelId, input: Tensor, options: SubmitOptions| {
                let allocation = input.data().as_ptr();
                let refused = router
                    .admit(model, Request::new(input, options), Admission::Try)
                    .unwrap_err();
                let back = refused.input.expect("refusal must return the tensor");
                assert_eq!(
                    back.data().as_ptr(),
                    allocation,
                    "{} returned a copy (retry: {retry:?})",
                    refused.error
                );
                refused.error
            };
            let x = || images(1).remove(0);
            let plain = SubmitOptions::default();
            assert!(matches!(refused(model, x(), plain), ServeError::Fault(_)));
            assert!(matches!(
                refused(model, x(), SubmitOptions::with_delta(7.0)),
                ServeError::BadOptions(_)
            ));
            assert!(matches!(
                refused(model, Tensor::zeros(&[2, 2]), plain),
                ServeError::BadInput(_)
            ));
            let ghost = ModelId::from_index(7);
            assert_eq!(refused(ghost, x(), plain), ServeError::UnknownModel(ghost));
            let mut held = vec![router.try_submit_with(model, x(), plain.tenant(1)).unwrap()];
            assert_eq!(
                refused(model, x(), plain.tenant(1)),
                ServeError::QuotaExceeded(1)
            );
            held.push(router.try_submit_with(model, x(), plain).unwrap());
            assert_eq!(
                refused(model, x(), plain.priority(Priority::Low)),
                ServeError::Shed(Priority::Low)
            );
            while held.len() < 6 {
                held.push(router.try_submit_with(model, x(), plain).unwrap());
            }
            assert_eq!(refused(model, x(), plain), ServeError::Full);
            // refusals were rolled back out of the placement count
            let live = router.metrics();
            let replica = &live.shards[0].replicas[0];
            assert_eq!((replica.routed, replica.metrics.submitted), (6, 6));
            drop(held);
            router.shutdown();
        }
    }
}
