//! Multi-model serving: one front-end routing each request by [`ModelId`]
//! to the [`Server`] of that model.
//!
//! A [`Router`] owns one shard per registered model, and a shard is one
//! [`Server`] — the full single-model pipeline: bounded admission gate, one
//! queue, a worker pool sealing batches onto a pool of persistent evaluator
//! states. A request is admitted synchronously into its model's server.
//! **Backpressure stays per model**: a saturated server blocks (or bounces)
//! only its own submitters, never traffic for other models.
//!
//! Per-request [`SubmitOptions`] compose with routing: one stream can mix
//! models *and* δ/depth service levels, and every response stays
//! bit-identical to [`cdl_core::network::CdlNetwork::classify_with_override`]
//! on the routed model (pinned by `tests/router_equivalence.rs`).
//!
//! Beyond the map from model to server, the router does one thing:
//! [`Router::swap_model`] replaces a model's network without draining the
//! router.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use cdl_core::network::CdlNetwork;
use cdl_telemetry::{SpanEvent, TelemetrySnapshot};
use cdl_tensor::Tensor;

use crate::config::{ServerConfig, SubmitOptions};
use crate::error::{Refused, ServeError, ServeResult};
use crate::metrics::{ReplicaMetrics, RouterMetrics, ServerMetrics, ShardMetrics};
use crate::pending::Pending;
use crate::server::{Admission, Request, Server};

/// Identifies one model registered with a [`Router`].
///
/// Ids are dense indices in registration order: the `i`-th
/// [`ShardSpec`] passed to [`Router::start`] gets id `i`. Look one up by
/// name with [`Router::model_id`], or construct it directly from a known
/// registration index with [`ModelId::from_index`].
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

/// One model's slice of a [`Router`]: its name, the network it serves and
/// the configuration of its [`Server`].
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Model name, unique within the router (e.g. `"MNIST_2C"`).
    pub name: String,
    /// The network this model's server evaluates.
    pub net: Arc<CdlNetwork>,
    /// The server's configuration (batch policy, queue capacity, worker
    /// count, telemetry, fault plan).
    pub config: ServerConfig,
}

impl ShardSpec {
    /// A spec serving `net` under `name` with `config`. The three fields
    /// are public, so this is a convenience; the measurement harness builds
    /// its shards with it until ROADMAP 1(g).
    pub fn new(name: impl Into<String>, net: Arc<CdlNetwork>, config: ServerConfig) -> Self {
        ShardSpec {
            name: name.into(),
            net,
            config,
        }
    }
}

/// One running model: a hot-swappable [`Server`] slot, the router-level
/// routed counter, and the ledgers of the servers it retired.
struct Shard {
    name: String,
    /// What a server swapped in by [`Router::swap_model`] is started with.
    config: ServerConfig,
    /// The live pipeline. Swapped whole by [`Router::swap_model`]; taken
    /// (→ `None`) only by [`Router::shutdown`]. Submission paths clone the
    /// `Arc` out under the read lock and release it before admitting, so a
    /// swap never blocks behind an in-flight request.
    server: RwLock<Option<Arc<Server>>>,
    /// Requests the router handed to the server — counted **before** the
    /// server admits (rolled back if admission fails), so a concurrent
    /// snapshot can observe `routed > submitted` (an admission in flight)
    /// but never the reverse; settled snapshots agree exactly. Counted
    /// independently of the server's own `submitted` counter so that this
    /// is a checkable conservation law, not a tautology. Spans server
    /// generations: a swap does not reset it.
    routed: AtomicU64,
    /// The final ledgers of the servers retired by [`Router::swap_model`],
    /// as one merge — folded into every later snapshot so a swap never
    /// loses counters.
    retired: Mutex<ServerMetrics>,
}

impl Shard {
    /// Clones the live server handle out, `None` once shutdown took it.
    fn server(&self) -> Option<Arc<Server>> {
        self.server.read().unwrap().clone()
    }

    /// This shard's [`ShardMetrics`] around its server's already-taken
    /// `metrics`, retired ledgers folded in. `routed` is loaded here,
    /// *after* `metrics` was taken (`submitted` pairs Release/Acquire with
    /// it): an admission landing between the two reads then shows as
    /// `routed > submitted`, the direction the invariant allows.
    fn metrics_with(&self, mut metrics: ServerMetrics) -> ShardMetrics {
        metrics.merge(&self.retired.lock().unwrap());
        ShardMetrics {
            model: self.name.clone(),
            retries: 0,
            hedges: 0,
            replicas: vec![ReplicaMetrics {
                routed: self.routed.load(Ordering::Relaxed),
                metrics,
            }],
        }
    }

    fn live_metrics(&self) -> ShardMetrics {
        let server = self.server().expect("server live until shutdown");
        self.metrics_with(server.metrics())
    }
}

/// The multi-model serving front-end.
///
/// See the [module docs](self) for the architecture and guarantees.
/// `shutdown` (or `Drop`) drains the server of every model: all
/// outstanding [`Pending`] handles resolve before the threads exit.
pub struct Router {
    shards: Vec<Shard>,
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.shards.iter().map(|shard| &shard.name))
            .finish()
    }
}

impl Router {
    /// Starts the server of every spec and begins accepting routed
    /// requests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] when no shard is given, a model
    /// name repeats, or any [`ServerConfig`] is invalid.
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
        }
        let shards = specs
            .into_iter()
            .map(|spec| {
                let server = Server::start(spec.net, spec.config.clone())?;
                Ok(Shard {
                    name: spec.name,
                    config: spec.config,
                    server: RwLock::new(Some(Arc::new(server))),
                    routed: AtomicU64::new(0),
                    retired: Mutex::default(),
                })
            })
            .collect::<ServeResult<Vec<Shard>>>()?;
        Ok(Router { shards })
    }

    /// Looks a model up by name.
    pub fn model_id(&self, name: &str) -> Option<ModelId> {
        self.shards.iter().position(|s| s.name == name).map(ModelId)
    }

    /// The network `model`'s server currently evaluates (the newly swapped-in
    /// one once [`Router::swap_model`] has published it).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id,
    /// [`ServeError::ShuttingDown`] once shutdown has begun.
    pub fn network(&self, model: ModelId) -> ServeResult<Arc<CdlNetwork>> {
        self.shard(model)?
            .server()
            .map(|s| s.network_arc())
            .ok_or(ServeError::ShuttingDown)
    }

    fn shard(&self, model: ModelId) -> ServeResult<&Shard> {
        self.shards
            .get(model.0)
            .ok_or(ServeError::UnknownModel(model))
    }

    /// The one routed admission path: admits `request` on `model`'s server
    /// ([`Server::admit`] — `admission` and the refusal contract are its).
    /// Backpressure stays per model: a saturated server blocks (or bounces)
    /// only its own submitters.
    ///
    /// # Errors
    ///
    /// A [`Refused`] carrying [`ServeError::UnknownModel`] for an
    /// unregistered id, [`ServeError::ShuttingDown`] once shutdown has taken
    /// the server, else the server's [`Server::admit`] refusal — with the
    /// tensor handed back in every case.
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
        let Some(server) = shard.server() else {
            return Err(Refused::returning(ServeError::ShuttingDown, request.input));
        };
        // count BEFORE the server admits and roll back on refusal
        // (mirroring the admitted/unadmitted pattern inside the gate): a
        // concurrent metrics() snapshot must never observe
        // `submitted > routed`
        shard.routed.fetch_add(1, Ordering::Relaxed);
        let admitted = server.admit(request, admission);
        match (&admitted, admission) {
            (Err(_), _) => {
                shard.routed.fetch_sub(1, Ordering::Relaxed);
            }
            // the edge announces (or runs) what it pushed at its pass's end
            (Ok(_), Admission::Park(edge)) => edge.pushed_to(&server),
            (Ok(_), _) => {}
        }
        admitted
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

    /// Hot-swaps the network `model` is served with, **without draining
    /// the router**: a fresh server on `net` is started and published, then
    /// the retired server is drained to completion (every request it
    /// admitted still resolves — with its *old* network, which is the swap's
    /// consistency contract: every response is bit-identical to whichever
    /// network's `classify_with_override` was current when the request was
    /// admitted). Requests keep flowing to the new server, and to every
    /// other model, throughout. The retired server's final metrics are
    /// folded into all later snapshots, so no counters are lost.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for an unregistered id, any
    /// [`Server::start`] failure for the replacement (in which case nothing
    /// was swapped), [`ServeError::ShuttingDown`] once shutdown has begun.
    pub fn swap_model(&self, model: ModelId, net: Arc<CdlNetwork>) -> ServeResult<()> {
        let shard = self.shard(model)?;
        let next = Arc::new(Server::start(net, shard.config.clone())?);
        let old = match shard.server.write().unwrap().as_mut() {
            Some(live) => std::mem::replace(live, next),
            None => return Err(ServeError::ShuttingDown),
        };
        let metrics = wait_unshared(old).shutdown();
        shard.retired.lock().unwrap().merge(&metrics);
        Ok(())
    }

    /// A point-in-time snapshot across all models: per-model ledgers (routed
    /// counts, exits, energy) plus the router-wide [`RouterMetrics::total`].
    pub fn metrics(&self) -> RouterMetrics {
        RouterMetrics {
            shards: self.shards.iter().map(Shard::live_metrics).collect(),
        }
    }

    /// A full exportable snapshot across all models: [`Router::metrics`]
    /// rendered through `RouterMetrics::fill_telemetry` (every model's
    /// routed count, ledger and latency histogram labelled `model`; the text
    /// `RouterMetrics`' `Display` prints), plus all span events drained from
    /// every server's telemetry domain. Render it with
    /// [`TelemetrySnapshot::render_prometheus`] or
    /// [`TelemetrySnapshot::render_chrome_trace`].
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snapshot = TelemetrySnapshot::new();
        self.metrics().fill_telemetry(&mut snapshot);
        snapshot.spans = self.drain_spans();
        snapshot
    }

    /// Drains the lifecycle span events of every model's server, merged and
    /// sorted by timestamp. Each event's `at_ns` is measured from its own
    /// server's epoch; the servers start together in [`Router::start`], so
    /// the merged ordering is only approximate *across* traces, while
    /// intervals *within* one trace are exact (a request's whole lifecycle
    /// is recorded by the one server that served it).
    pub fn drain_spans(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for server in self.shards.iter().filter_map(Shard::server) {
            out.extend(server.telemetry().drain());
        }
        out.sort_by_key(|e| e.at_ns);
        out
    }

    /// Graceful drain-then-stop across all models: every server stops
    /// admissions, flushes its queued and partially formed batches, and
    /// resolves every outstanding [`Pending`] before its threads join.
    /// Returns the final metrics snapshot, including the folded-in metrics
    /// of any servers retired by [`Router::swap_model`].
    pub fn shutdown(self) -> RouterMetrics {
        let shards = self
            .shards
            .iter()
            .map(|shard| {
                let server = shard.server.write().unwrap().take();
                let server = server.expect("router shutdown runs once");
                shard.metrics_with(wait_unshared(server).shutdown())
            })
            .collect();
        RouterMetrics { shards }
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
    use crate::config::{BatchPolicy, Priority};
    use crate::server::tests::join_within;
    use cdl_core::arch::{self, CdlArchitecture};
    use cdl_core::confidence::{ConfidencePolicy, ExitOverride};
    use cdl_core::head::LinearClassifier;
    use cdl_nn::network::Network;
    use cdl_telemetry::TraceId;
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

    fn images(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::full(&[1, 28, 28], 0.1 + 0.07 * (i as f32 % 11.0)))
            .collect()
    }

    #[test]
    fn routes_to_the_right_model() {
        let router = Router::start(two_model_specs(BatchPolicy::new(usize::MAX), 64)).unwrap();
        let m2c = router.model_id("MNIST_2C").unwrap();
        let m3c = router.model_id("MNIST_3C").unwrap();
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
        assert_eq!(metrics.total().completed, 12);
        assert_eq!(metrics.total().failed, 0);
        for shard in &metrics.shards {
            assert_eq!((shard.routed(), shard.total().submitted), (6, 6));
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
            router.network(ghost),
            Err(ServeError::UnknownModel(_))
        ));
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
        // even this *unsettled* snapshot cross-checks per model
        for shard in &live.shards {
            assert_eq!(shard.routed(), shard.total().submitted);
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
        // snapshot may ever catch a server with submitted > routed
        use std::sync::atomic::AtomicBool;
        let net = build_untrained(arch::mnist_2c(), 5);
        let config = ServerConfig {
            policy: BatchPolicy::new(usize::MAX),
            queue_capacity: 4096,
            workers: 1,
            ..ServerConfig::default()
        };
        let router = Arc::new(Router::start(vec![ShardSpec::new("m", net, config)]).unwrap());
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
                    let shard = &snapshot.shards[0];
                    let (submitted, routed) = (shard.total().submitted, shard.routed());
                    assert!(
                        submitted <= routed,
                        "snapshot observed submitted {submitted} > routed {routed}"
                    );
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
        assert_eq!(metrics.shards[0].routed(), metrics.total().submitted);
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
        let router = Router::start(vec![ShardSpec::new("m", net, config)]).unwrap();
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
        // mixed traffic: two models of different depth, batches held to
        // pairs, a few callers hanging up before their answer, and
        // tenant-tagged requests that are shed or expire
        let mut specs = two_model_specs(BatchPolicy::by_size(2), 64);
        // capacity 3 → the `Low` class is admitted only into an empty gate
        specs[0].config.queue_capacity = 3;
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

        // tenant 7's request holds a slot while it waits for a pair, so its
        // `Low` one is shed; tenant 8's completes the pair, expired
        let x = images(1).remove(0);
        let tenant = |t: u32| SubmitOptions::default().tenant(t);
        pendings.push(router.submit_with(models[0], x.clone(), tenant(7)).unwrap());
        let low = tenant(7).priority(Priority::Low);
        let refused = router.try_submit_with(models[0], x.clone(), low);
        assert_eq!(refused.unwrap_err(), ServeError::Shed(Priority::Low));
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
                retries: _, // always 0, not exported
                hedges: _,  // always 0, not exported
                replicas,
            } = shard;
            let at = format!("model=\"{model}\"");
            for replica in replicas {
                let ReplicaMetrics { routed, metrics } = replica;
                let ServerMetrics {
                    submitted,
                    rejected,
                    completed,
                    cancelled,
                    failed,
                    expired,
                    shed,
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
                    ("cdl_routed_total", *routed),
                    ("cdl_requests_submitted_total", *submitted),
                    ("cdl_requests_completed_total", *completed),
                    ("cdl_requests_rejected_total", *rejected),
                    ("cdl_requests_cancelled_total", *cancelled),
                    ("cdl_requests_failed_total", *failed),
                    ("cdl_requests_expired_total", *expired),
                    ("cdl_requests_shed_total", *shed),
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
                for p in Priority::ALL {
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
        assert!(text.contains("# TYPE cdl_queue_depth gauge"), "{text}");
        assert!(text.contains("# TYPE cdl_exits_total counter"), "{text}");
        router.shutdown();
    }

    #[test]
    fn start_validates_shard_set() {
        assert!(matches!(
            Router::start(vec![]),
            Err(ServeError::BadConfig(_))
        ));
        let mut specs = two_model_specs(BatchPolicy::default(), 8);
        specs[1].name = specs[0].name.clone();
        let err = Router::start(specs).err();
        assert!(
            matches!(&err, Some(ServeError::BadConfig(m)) if m.contains("MNIST_2C")),
            "{err:?}"
        );
        let mut specs = two_model_specs(BatchPolicy::default(), 8);
        specs[0].config.workers = 0;
        assert!(Router::start(specs).is_err());
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
        let router = Router::start(vec![ShardSpec::new("m", Arc::clone(&net_a), config)]).unwrap();
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
        assert_eq!(metrics.shards[0].routed(), metrics.total().submitted);
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
        let retried = park(refused.input).unwrap();
        edge.end_pass(); // as the edge does after every pass: it holds no server past it
        router.shutdown(); // the replacement's drain flushes the retry
        assert_eq!(retried.wait().unwrap(), net_b.classify(&x[1]).unwrap());
    }

    #[test]
    fn every_refusal_hands_the_tensor_back() {
        let spec = ShardSpec::new(
            "m",
            build_untrained(arch::mnist_2c(), 5),
            ServerConfig {
                // never-full batch: gate occupancy only ever grows.
                // capacity 6 → admission limits high 6, low 2
                policy: BatchPolicy::by_size(1 << 20),
                queue_capacity: 6,
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let router = Router::start(vec![spec]).unwrap();
        let model = router.model_id("m").unwrap();
        let refused = |model: ModelId, input: Tensor, options: SubmitOptions| {
            let allocation = input.data().as_ptr();
            let refused = router
                .admit(model, Request::new(input, options), Admission::Try)
                .unwrap_err();
            assert_eq!(
                refused.input.data().as_ptr(),
                allocation,
                "{} returned a copy",
                refused.error
            );
            refused.error
        };
        let x = || images(1).remove(0);
        let plain = SubmitOptions::default();
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
        let mut held = vec![router.try_submit_with(model, x(), plain).unwrap()];
        held.push(router.try_submit_with(model, x(), plain).unwrap());
        assert_eq!(
            refused(model, x(), plain.priority(Priority::Low)),
            ServeError::Shed(Priority::Low)
        );
        while held.len() < 6 {
            held.push(router.try_submit_with(model, x(), plain).unwrap());
        }
        assert_eq!(refused(model, x(), plain), ServeError::Full);
        // refusals were rolled back out of the routed count
        let live = router.metrics();
        let shard = &live.shards[0];
        assert_eq!((shard.routed(), shard.total().submitted), (6, 6));
        drop(held);
        router.shutdown();
    }
}
