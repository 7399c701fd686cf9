//! # cdl-serve — streaming inference with dynamic batching
//!
//! A queue-and-worker-pool serving layer over the batched early-exit evaluator
//! ([`cdl_core::batch::BatchEvaluator`]): callers submit single images from
//! any number of threads, the server transparently forms batches and
//! answers through one-shot [`Pending`] handles. Results are
//! **bit-identical** to per-image [`cdl_core::network::CdlNetwork::classify`]
//! no matter how concurrent submissions are interleaved into batches (the
//! same guarantee the batch-equivalence suite pins for `BatchEvaluator`).
//!
//! ## Architecture
//!
//! ```text
//!  clients                     cdl-serve                        evaluators
//!  ───────                     ─────────                        ──────────
//!  submit / try_submit_with ──▶ [bounded in-flight gate]
//!        │                        │  no room: submit waits / try_ → Full
//!        ▼                        ▼
//!   Pending handle ◀──┐      the one queue ── a worker that asks seals
//!   (one-shot,        │       ╱        ╲        what is queued, ≤ max_batch_size
//!    drop = cancel)   │      ▼          ▼       (by_size: only once it is full)
//!                     └── worker 1 … worker N   each batch on one of N persistent
//!                          (or, on an idle      evaluator states (arenas + kernel
//!                          server, the TCP      scratch reused across batches)
//!                          edge thread)
//! ```
//!
//! * **Admission**: at most [`ServerConfig::queue_capacity`] requests are
//!   *in flight*. Beyond that [`Server::submit`], [`Router::submit`] and
//!   [`Router::submit_with`] wait, and [`Router::try_submit_with`] returns
//!   [`ServeError::Full`]. Each is one line over the crate's one admission
//!   call, `Server::admit` (behind the model lookup in `Router::admit`).
//!   The TCP edge calls it too: a refusal hands its tensor back, and a
//!   `Full` one leaves the edge's waker on the gate that refused, which
//!   calls it at its next release.
//! * **Batch formation** ([`BatchPolicy`]) has no thread of its own: a
//!   worker that asks takes what is queued, up to `max_batch_size`, so
//!   batches grow only while every worker is busy and a request changes
//!   threads once on its way in. No timer is involved: the one other mode,
//!   [`BatchPolicy::by_size`], seals full batches only.
//! * **An idle server evaluates on the edge.** A request the TCP edge pushes
//!   onto a server with no batch in evaluation wakes no worker: at the end
//!   of its pass the poller thread that read it seals the batch and runs it
//!   through the workers' own batch path, so an unloaded wire request
//!   changes no thread between its read and its reply. One pure rule beside
//!   the sealing rule decides: the edge runs only what a free worker would
//!   take short of full, whole; a full batch is load, and its push wakes a
//!   worker so the edge keeps reading through a burst; a busy server, a
//!   closed queue, a short `by_size` queue or an armed [`FaultPlan`] leave
//!   the batch to the workers. [`ServerMetrics::batches_on_edge`] counts
//!   the batches the edge ran.
//! * **Evaluators**: each server keeps [`ServerConfig::workers`] persistent
//!   evaluator states ([`cdl_core::batch::EvalState`]) in one pool that
//!   whichever thread runs a batch draws from, so at most `workers` batches
//!   are in evaluation at once: steady-state serving performs no
//!   arena/scratch allocations, and which kernel bodies run (AVX2 or
//!   portable, bit-identical) is the host's matter, found at construction.
//! * **Cancellation**: dropping a [`Pending`] before evaluation removes the
//!   request from its batch at no evaluator cost.
//! * **Shutdown** ([`Server::shutdown`]) drains then stops: queued requests
//!   and partially formed batches are flushed, every outstanding handle
//!   resolves, threads join, and the final [`ServerMetrics`] snapshot is
//!   returned (queue depth, batch-size and latency histograms,
//!   cumulative ops + energy).
//! * **Per-request overrides** ([`Router::submit_with`] +
//!   [`SubmitOptions`]): each request may replace the model's confidence
//!   threshold δ and/or cap its cascade depth — the Fig. 10
//!   accuracy/energy trade-off, selectable per request. A batch is one
//!   evaluator pass with each row gated by its own override, so results stay
//!   bit-identical to `classify_with_override` whatever mix it holds.
//! * **Multi-model serving** ([`Router`]): one front-end routing requests
//!   by [`ModelId`] to one [`Server`] per model, with independent
//!   backpressure, per-model and aggregate metrics ([`RouterMetrics`]:
//!   per-model routed counts and ledgers, and [`RouterMetrics::total`] —
//!   the one [`ServerMetrics::merge`] folded over every model, so every
//!   total is a field of one ledger), a routed/submitted cross-check per
//!   model, no-drain model hot-swap ([`Router::swap_model`]), and
//!   drain-then-stop shutdown across all models.
//! * **Overload control** ([`SubmitOptions::deadline`] / [`Priority`]):
//!   each request may carry a latency budget, an admission class, and a
//!   tenant id, a label the gate ignores. A request whose deadline
//!   passes on the queue is settled [`ServeError::Expired`] as its batch is
//!   sealed, spending **zero** evaluator ops — the queue-level analogue of
//!   early exit; one that expires *mid-batch* is shed at the next stage
//!   boundary instead of riding the cascade to the end (survivors stay
//!   bit-identical; the partial work is charged honestly to the energy
//!   ledger, see [`ServerMetrics::expired`]). As the gate fills, lower
//!   priority classes are refused first (typed [`ServeError::Shed`]): the
//!   gate's one policy is its capacity and these class limits. Shed/expired
//!   counts are broken out per class and per tenant.
//! * **Input validation**: submissions are shape-checked against the
//!   model's declared input spec at admission ([`ServeError::BadInput`]),
//!   so one malformed tensor can no longer poison the co-batched requests
//!   around it (a batch whose evaluator pass fails settles every member
//!   with [`ServeError::Eval`]).
//! * **Network edge** ([`net`]): a length-prefixed binary TCP protocol
//!   ([`TcpServer`]; a client pipelines on the halves of [`net::split`], or
//!   calls one request at a time through [`TcpClient`]; the format is
//!   written once, in [`net::codec`]) in front of the router — pipelined
//!   request ids per connection, typed error replies, and bit-exact f32
//!   transport (IEEE-754 bit patterns on the wire). The server side is a
//!   fixed-size event loop ([`EdgeConfig`]): an accept thread with
//!   exponential backoff feeds [`EdgeConfig::pollers`] reactor threads
//!   that own every connection's read/decode/submit/encode/write state
//!   machine over edge-triggered readiness, so idle connections cost
//!   buffers rather than threads and completions wake the edge through
//!   an eventfd instead of 50 ms poll slices; an idle server's batch is
//!   evaluated by the poller that read it (see *An idle server evaluates on
//!   the edge* above).
//! * **Fault injection** ([`fault`]): seeded worker stalls and panics, by
//!   batch sequence number, against which the *Failure model* below is
//!   tested.
//! * **Telemetry** ([`cdl_telemetry`], re-exported here): every latency
//!   metric is backed by a mergeable log-bucketed [`LogHistogram`] (O(1)
//!   record, ≤ 1/64 relative quantile error, exact min/mean/max — the
//!   merged ledger of [`ShardMetrics::total`] / [`RouterMetrics::total`]
//!   carries the merged histogram, so a quantile of its
//!   [`ServerMetrics::latency_histogram`] is a true tail of the union), and
//!   [`ServerConfig::telemetry`] can switch on per-request lifecycle
//!   **spans** (admit → enqueue → batch-seal → dispatch → per-stage →
//!   exit → reply, recorded into lock-free per-thread rings, every
//!   request under its trace id). [`Router::telemetry_snapshot`] exports
//!   both as Prometheus text or a Chrome trace — the Prometheus side is
//!   [`Router::metrics`] rendered by `RouterMetrics::fill_telemetry`, one
//!   series per ledger field, the paper's quantities among them
//!   (`cdl_exits_total{stage}`, `cdl_ops_total{kind}`,
//!   `cdl_energy_picojoules_total`). That text is the only report: the
//!   `Display` of [`ServerMetrics`] and [`RouterMetrics`] prints it too.
//!   [`net::SendHalf::queue`] carries a client's [`TraceId`] across the
//!   wire so one trace covers the hop.
//!
//! ## Example
//!
//! ```
//! use cdl_serve::{Server, ServerConfig};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let arch = cdl_core::arch::mnist_3c();
//! # let base = cdl_nn::network::Network::from_spec(&arch.spec, 3)?;
//! # let feats = arch.tap_features()?;
//! # let stages = arch.taps.iter().zip(&feats).map(|(t, &f)| {
//! #     Ok((t.spec_layer, t.name.clone(),
//! #         cdl_core::head::LinearClassifier::new(f, 10, 1)?))
//! # }).collect::<Result<Vec<_>, cdl_core::CdlError>>()?;
//! # let cdln = cdl_core::network::CdlNetwork::assemble(
//! #     base, stages, cdl_core::confidence::ConfidencePolicy::max_prob(0.6))?;
//! // cdln: a trained cdl_core::network::CdlNetwork
//! let server = Server::start(Arc::new(cdln), ServerConfig::default())?;
//! let image = cdl_tensor::Tensor::full(&[1, 28, 28], 0.4);
//! let pending = server.submit(image)?;          // returns immediately
//! let output = pending.wait()?;                  // bit-identical to classify()
//! println!("label {} at stage {}", output.label, output.exit_stage);
//! println!("{}", server.shutdown());             // final ledger, Prometheus text
//! # Ok(())
//! # }
//! ```
//!
//! ## Failure model
//!
//! A model is served by one [`Server`]; its workers share one process, one
//! network and one input stream, so the failures worth containing are a
//! stalled or dying worker and a model update. The crate makes two
//! commitments, pinned by `tests/chaos.rs`:
//!
//! 1. **Every admitted request settles.** A request accepted by the
//!    router resolves exactly once: a bit-identical output or a typed
//!    [`ServeError`] — never a hang. Faults injected mid-stream
//!    ([`fault::FaultPlan`]: a stalled worker, a scripted worker panic) may
//!    slow or fail individual requests, but cannot strand a [`Pending`]
//!    handle: a dying worker's batch settles [`ServeError::Disconnected`]
//!    (booked `failed`), the surviving workers serve the rest, and the last
//!    worker out closes the queue, so nothing parks behind a dead pool.
//! 2. **Model updates don't drain the world.** [`Router::swap_model`]
//!    starts a fresh server on the new network and publishes it; the
//!    retired server finishes every request it admitted (with its *old*
//!    network — a response is always consistent with the network that was
//!    current at admission), and its final counters fold into later
//!    snapshots. A TCP request parked on the retired server's full gate is
//!    woken by its drain, like any release, and is admitted by the
//!    replacement.
//!
//! ```
//! use cdl_serve::{BatchPolicy, Router, ServerConfig, ShardSpec};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let build = |seed| -> Result<_, Box<dyn std::error::Error>> {
//! # let arch = cdl_core::arch::mnist_2c();
//! # let base = cdl_nn::network::Network::from_spec(&arch.spec, seed)?;
//! # let feats = arch.tap_features()?;
//! # let stages = arch.taps.iter().zip(&feats).map(|(t, &f)| {
//! #     Ok((t.spec_layer, t.name.clone(),
//! #         cdl_core::head::LinearClassifier::new(f, 10, 1)?))
//! # }).collect::<Result<Vec<_>, cdl_core::CdlError>>()?;
//! # Ok(Arc::new(cdl_core::network::CdlNetwork::assemble(
//! #     base, stages, cdl_core::confidence::ConfidencePolicy::max_prob(0.6))?))
//! # };
//! # let (cdln, retrained) = (build(3)?, build(4)?);
//! // cdln, retrained: two versions of one cdl_core::network::CdlNetwork
//! let config = ServerConfig {
//!     policy: BatchPolicy::new(8),
//!     workers: 2,
//!     ..ServerConfig::default()
//! };
//! let router = Router::start(vec![ShardSpec::new("mnist", Arc::clone(&cdln), config)])?;
//! let model = router.model_id("mnist").unwrap();
//! let image = cdl_tensor::Tensor::full(&[1, 28, 28], 0.4);
//! let before = router.submit(model, image.clone())?;
//! // swap while `before` may still be in flight: it is answered by `cdln`
//! router.swap_model(model, Arc::clone(&retrained))?;
//! assert_eq!(before.wait()?, cdln.classify(&image)?);
//! assert_eq!(router.submit(model, image.clone())?.wait()?, retrained.classify(&image)?);
//! assert_eq!(router.shutdown().total().completed, 2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod config;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod pending;
pub mod router;
pub mod server;

pub use cdl_telemetry::{
    EventKind, LogHistogram, PhaseBreakdown, SpanEvent, Telemetry, TelemetryConfig,
    TelemetrySnapshot, TraceId,
};
pub use config::{BatchPolicy, EdgeConfig, Priority, ServerConfig, SubmitOptions};
pub use error::{ServeError, ServeResult};
pub use fault::{FaultKind, FaultPlan};
pub use metrics::{ReplicaMetrics, RouterMetrics, ServerMetrics, ShardMetrics};
pub use net::{ErrorCode, ErrorReply, TcpClient, TcpServer};
pub use pending::Pending;
pub use router::{ModelId, Router, ShardSpec};
pub use server::Server;
