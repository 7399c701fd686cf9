//! # cdl — Conditional Deep Learning (DATE 2016) reproduction
//!
//! Facade crate re-exporting every sub-crate of the workspace so that
//! examples and downstream users can depend on a single crate:
//!
//! * [`tensor`] — minimal f32 tensor library (conv/pool primitives, the
//!   batched block-to-block convolution and affine entries with reusable
//!   scratch, and the kernels under them — one body each, compiled for the
//!   baseline target and for AVX2, the host deciding which runs
//!   ([`tensor::GemmKernel`])),
//! * [`nn`] — from-scratch CNN layers, losses and SGD trainer, plus
//!   whole-batch forward passes ([`nn::batch`]),
//! * [`dataset`] — synthetic MNIST generator (parallel over scoped threads)
//!   + IDX loader,
//! * [`hw`] — analytical 45nm energy/area model,
//! * [`core`] — the paper's contribution: cascaded linear classifiers with
//!   confidence-gated early exit (Conditional Deep Learning), including the
//!   batched serving path [`core::batch::BatchEvaluator`],
//! * [`serve`] — streaming inference: bounded submission queue → pool of
//!   persistent batched evaluators that seal their own batches off it
//!   (whatever is queued when a worker is free; on an idle server the TCP
//!   edge thread that read a short queue evaluates it itself), per-request δ/depth
//!   overrides, a multi-model [`serve::Router`] front-end (one server per
//!   model, hot-swappable), and a length-prefixed TCP edge ([`serve::TcpServer`]; clients pipeline
//!   on the halves of [`serve::net::split`] or call through
//!   [`serve::TcpClient`]; the wire format is [`serve::net::codec`]), with
//!   deadline / priority overload control
//!   ([`serve::Priority`]),
//! * [`load`] — open-loop workload generation: seeded Poisson and bursty
//!   ON/OFF arrival schedules with per-tenant request mixes
//!   ([`load::LoadSpec`]), replayed on the wall clock by
//!   [`load::run_open_loop`] so offered load is independent of
//!   completions,
//! * [`telemetry`] — mergeable log-bucketed latency histograms
//!   ([`telemetry::LogHistogram`]) behind every serving metric, optional
//!   per-request lifecycle spans, and Prometheus / Chrome-trace export
//!   ([`telemetry::TelemetrySnapshot`]).
//!
//! ## Workspace layout & building
//!
//! The repository is a cargo workspace rooted at this crate:
//!
//! ```text
//! crates/tensor    cdl-tensor   tensor primitives
//! crates/nn        cdl-nn       layers / trainer
//! crates/dataset   cdl-dataset  synthetic MNIST + IDX
//! crates/hw        cdl-hw       energy model
//! crates/core      cdl-core     the CDL mechanism (Algorithms 1 & 2)
//! crates/serve     cdl-serve    streaming server w/ dynamic batching
//! crates/load      cdl-load     open-loop workload generator
//! crates/telemetry cdl-telemetry mergeable histograms + lifecycle spans
//! crates/bench     cdl-bench    experiment harness (fig*/table* binaries)
//! vendor/*                      offline stand-ins for rand, serde(+derive),
//!                               serde_json, proptest, rayon, bytes, reactor
//! benchmark/                    the measurement spine (its own workspace;
//!                               see benchmark/README.md and BENCHMARK.json)
//! ```
//!
//! The build environment is fully offline: every external dependency is
//! vendored under `vendor/` as a small, documented API-compatible subset.
//! Do not add crates.io dependencies — extend the vendored crates instead.
//!
//! ```text
//! cargo build --release            # build everything
//! cargo test -q                    # full test suite (minutes)
//! cargo run --release --example quickstart
//! cargo run --release --example serve_stream       # serving demo + metrics
//! (cd benchmark && cargo run --release -- run --seed 23)   # the benchmark
//! cargo run --release -p cdl-bench --bin run_all   # every paper figure
//! cargo run --release -p cdl-bench --bin run_all -- fig10_delta_sweep   # one of them
//! ```
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end train → attach heads →
//! early-exit inference walkthrough (its compiled twin runs in
//! `tests/quickstart_smoke.rs`), and `cdl_bench::experiments`' module docs
//! for the experiment index reproducing every table and figure of the paper
//! (`cargo run --release -p cdl-bench --bin run_all` runs them all).
//!
//! ## Batched serving
//!
//! High-throughput streams should go through
//! [`core::batch::BatchEvaluator`]: one persistent evaluator pushes a whole
//! batch stage by stage **as one block** — a contiguous `[n, features]` array
//! ping-ponging between two grow-only arenas ([`nn::batch`]); the first
//! stage reads the caller's tensors in place, each head is one GEMM over
//! the block's rows, and after every confidence gate the still-active rows
//! are compacted in place. No tensor is built per image per layer, and a
//! warm batch allocates only its outputs (`tests/eval_allocs.rs`). Outputs
//! are bit-identical to per-image [`core::network::CdlNetwork::classify`]
//! (enforced by `tests/batch_equivalence.rs`).
//!
//! The analysis side runs on the same loop, once per data set:
//! [`core::batch::BatchEvaluator::trace`] lets nothing exit and stores, per
//! input, every head's raw score row and the final layer's output row
//! ([`core::batch::CascadeTrace`]). δ only enters at the gate, so
//! [`core::batch::CascadeTrace::outputs`] replays any policy, δ, per-stage
//! schedule or depth cap from the stored rows — bit-identical to the
//! per-image cascade — and the δ sweep of Fig. 10, δ calibration, the policy
//! ablations and the oracle bound ([`core::stats::replay`], [`core::sweep`],
//! [`core::calibrate`]) never re-run the network for another δ. The
//! per-image `CdlNetwork::classify*` family is the reference the suites
//! compare against; no library code path calls it.
//!
//! ## Kernels
//!
//! Both batched hot paths — the convolution and the batched dense/head
//! affine — run through `cdl_tensor::gemm`, where every hot body is written
//! once, in plain Rust over `[f32; 8]` lane arrays with each lane owning one
//! output element — separate mul+add, never FMA, so the rounding sequence
//! stays the scalar one — and compiled twice; the host picks.
//! [`tensor::GemmKernel::Simd`] runs the AVX2 compilation where the CPU has
//! AVX2 and the baseline one everywhere else;
//! [`tensor::GemmKernel::Reference`] is the baseline compilation always.
//! Both arms run the same kernels. No convolution is lowered to a GEMM:
//! eight images share a vector (lanes across images) wherever a row of the
//! output map cannot fill the lanes of the per-image direct kernel, which
//! takes the rest; the heads' affine runs lanes across images too, eight
//! rows a block. (One measured exception to "one body": the 8×8 transposes
//! of the x8 pack keep AVX shuffles.)
//! The arms accumulate each output element in the identical order because
//! they are one source, so they are **bit-identical** — held to the
//! specification by parity proptests against a naive triple loop, by the
//! batch equivalence suites walking `GemmKernel::ALL`, and by the golden
//! vectors of `tests/golden.rs`, which hold both arms to committed bits for
//! the two benchmark models. The arm is the only switch — every batched
//! body, the sigmoid included, runs the compilation it names — and nobody
//! configures it: every evaluator asks `GemmKernel::detect()` at
//! construction, the per-image paths pass the same, and the serving stack
//! has no option for it;
//! [`core::batch::BatchEvaluator::with_kernel`] exists only so a parity
//! suite can drive the other arm. The `benchmark/` package's traced runs
//! (`--trace 1`) place the detected arm on the machine's roofline (the
//! `tensor.*` rows).
//!
//! ## Streaming serving
//!
//! Online request streams go through [`serve::Server`]:
//! [`serve::Server::submit`] waits while the bounded in-flight queue is
//! full, then returns a one-shot [`serve::Pending`] handle at once. Callers
//! on any number of threads share one server, and every submit, routed and
//! wire-borne ones included, ends in the same crate-internal admission call.
//! A worker pool seals batches off the one queue — a free worker takes what
//! is queued, up to [`serve::BatchPolicy`]'s `max_batch_size` — and answers
//! them, each batch on one of the server's `workers` persistent evaluator
//! states. A wire request that reaches an idle server changes no thread:
//! the TCP edge thread that read it seals and evaluates its batch at the end
//! of its pass, on an evaluator state from the same pool (a full batch is
//! load, and still goes to a worker).
//! Drop-to-cancel, graceful drain-then-stop shutdown and a
//! [`serve::ServerMetrics`] snapshot (batch-size histogram, latency
//! histogram, cumulative ops/energy; printed as Prometheus text) are built
//! in. Responses are bit-identical to per-image `classify` for every
//! interleaving (enforced by `tests/serve_equivalence.rs`); see
//! `examples/serve_stream.rs` for an end-to-end simulated workload.
//!
//! ## Sharded multi-model serving & per-request δ overrides
//!
//! [`serve::Router`] serves **several models behind one front-end**: each
//! registered [`serve::ShardSpec`] gets its own server (admission gate →
//! queue → worker pool). [`serve::Router::submit_with`] routes a request by
//! [`serve::ModelId`] to that server; the TCP edge takes the same path.
//! [`serve::Router::try_submit_with`] refuses at a full gate with
//! [`serve::ServeError::Full`] instead of waiting. Backpressure is per
//! shard: a saturated model never blocks traffic for the others. Each
//! request may also carry [`serve::SubmitOptions`]: a
//! replacement confidence threshold δ and/or a hard cascade-depth cap,
//! which is the paper's Fig. 10 accuracy/energy trade-off selectable *per
//! request* within one stream. A batch is one evaluator pass with each row
//! gated by its own override, so each response stays bit-identical to
//! [`core::network::CdlNetwork::classify_with_override`] on the routed
//! model (enforced by `tests/router_equivalence.rs` and the routing
//! proptest in `tests/proptests.rs`); [`serve::RouterMetrics`] reports the
//! per-model routed counts plus per-model exit/energy breakdowns
//! ([`serve::ShardMetrics::total`]) and the router-wide ledger
//! ([`serve::RouterMetrics::total`]).
//!
//! ```
//! use cdl::serve::{Router, ServerConfig, ShardSpec, SubmitOptions};
//! use std::sync::Arc;
//!
//! # fn build(arch: cdl::core::arch::CdlArchitecture, seed: u64)
//! #     -> Result<cdl::core::network::CdlNetwork, Box<dyn std::error::Error>> {
//! #     let base = cdl::nn::network::Network::from_spec(&arch.spec, seed)?;
//! #     let feats = arch.tap_features()?;
//! #     let stages = arch.taps.iter().zip(&feats).map(|(t, &f)| {
//! #         Ok((t.spec_layer, t.name.clone(),
//! #             cdl::core::head::LinearClassifier::new(f, 10, 1)?))
//! #     }).collect::<Result<Vec<_>, cdl::core::CdlError>>()?;
//! #     Ok(cdl::core::network::CdlNetwork::assemble(
//! #         base, stages,
//! #         cdl::core::confidence::ConfidencePolicy::sigmoid_prob(0.5))?)
//! # }
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // two (here: untrained) models behind one front-end
//! let router = Router::start(vec![
//!     ShardSpec::new(
//!         "MNIST_2C",
//!         Arc::new(build(cdl::core::arch::mnist_2c(), 1)?),
//!         ServerConfig::default(),
//!     ),
//!     ShardSpec::new(
//!         "MNIST_3C",
//!         Arc::new(build(cdl::core::arch::mnist_3c(), 2)?),
//!         ServerConfig::default(),
//!     ),
//! ])?;
//! let m3c = router.model_id("MNIST_3C").expect("registered");
//! let image = cdl::tensor::Tensor::full(&[1, 28, 28], 0.4);
//! // an energy-saver request: lax δ for this request only
//! let pending = router.submit_with(m3c, image, SubmitOptions::with_delta(0.35))?;
//! let output = pending.wait()?; // bit-identical to classify_with_override
//! assert!(output.label < 10);
//! println!("{}", router.shutdown()); // final ledger as Prometheus text
//! # Ok(())
//! # }
//! ```
//!
//! ## The TCP edge
//!
//! In front of the router, [`serve::TcpServer`] speaks a
//! length-prefixed binary protocol over plain `std::net` sockets to a
//! client's [`serve::net::SendHalf`] / [`serve::net::RecvHalf`], or to
//! [`serve::TcpClient`], which runs one call at a time on them: pipelined
//! request ids per connection, typed
//! error replies ([`serve::ErrorCode`]), and f32s travelling as IEEE-754
//! bit patterns so even the network edge is bit-exact
//! (`tests/net_loopback.rs`). The server side is a fixed-size **event
//! loop** ([`serve::EdgeConfig`]): an accept thread with exponential
//! backoff hands sockets to a small pool of poller threads that
//! multiplex every connection over edge-triggered readiness (the
//! vendored `reactor` crate — epoll on Linux), so 256 idle connections
//! cost buffers rather than threads and completed requests wake the edge
//! through an eventfd instead of being polled (`tests/net_soak.rs`).
//!
//! ```
//! use cdl::serve::{Router, ServerConfig, ShardSpec, SubmitOptions, TcpClient, TcpServer};
//! use std::sync::Arc;
//!
//! # fn build(arch: cdl::core::arch::CdlArchitecture, seed: u64)
//! #     -> Result<cdl::core::network::CdlNetwork, Box<dyn std::error::Error>> {
//! #     let base = cdl::nn::network::Network::from_spec(&arch.spec, seed)?;
//! #     let feats = arch.tap_features()?;
//! #     let stages = arch.taps.iter().zip(&feats).map(|(t, &f)| {
//! #         Ok((t.spec_layer, t.name.clone(),
//! #             cdl::core::head::LinearClassifier::new(f, 10, 1)?))
//! #     }).collect::<Result<Vec<_>, cdl::core::CdlError>>()?;
//! #     Ok(cdl::core::network::CdlNetwork::assemble(
//! #         base, stages,
//! #         cdl::core::confidence::ConfidencePolicy::sigmoid_prob(0.5))?)
//! # }
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Arc::new(build(cdl::core::arch::mnist_2c(), 1)?);
//! let router = Arc::new(Router::start(vec![ShardSpec::new(
//!     "MNIST_2C",
//!     Arc::clone(&net),
//!     ServerConfig::default(),
//! )])?);
//! // the TCP edge shares the router and serves it over loopback
//! let edge = TcpServer::bind("127.0.0.1:0", Arc::clone(&router))?;
//! let mut client = TcpClient::connect(edge.local_addr())?;
//! let image = cdl::tensor::Tensor::full(&[1, 28, 28], 0.4);
//! let output = client
//!     .call("MNIST_2C", &image, SubmitOptions::default())?
//!     .expect("typed server-side errors surface here");
//! // bit-exact across the wire
//! assert_eq!(output, net.classify(&image)?);
//! drop(client);
//! edge.shutdown(); // stop the edge first…
//! let metrics = Arc::try_unwrap(router).unwrap().shutdown(); // …then drain
//! assert_eq!(metrics.shards[0].routed(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! ## Overload control & open-loop load generation
//!
//! Under sustained overload, serving *something* late is worse than
//! serving *the right things* on time. Each request may therefore carry a
//! **deadline** (a latency budget measured from admission — requests
//! still queued when it runs out are settled with
//! [`serve::ServeError::Expired`] at batch-formation or dispatch time,
//! spending zero evaluator ops, and a deadline that expires *mid-batch*
//! sheds the request at the next stage boundary — survivors stay
//! bit-identical, and the partial work already spent is charged honestly
//! to the energy ledger: the queue-level analogue of early exit),
//! a **priority class** ([`serve::Priority`] — lower classes are refused
//! first as the admission gate fills, with a typed
//! [`serve::ServeError::Shed`]), and a **tenant id** (a label: admission
//! ignores it, and the counters count by it). Shed and expired counts are
//! broken out per class and per tenant in [`serve::ServerMetrics`], and
//! all three fields travel across the TCP edge on backward-compatible
//! flag bits.
//!
//! Overloading a server honestly requires **open-loop** load — arrivals
//! drawn from a fixed schedule, not paced by completions. [`load`]
//! generates exactly that: seeded Poisson or bursty ON/OFF arrival
//! schedules with weighted per-tenant option mixes, replayed on the wall
//! clock by [`load::run_open_loop`]. The same seed reproduces the same
//! schedule, so "with shedding" and "without shedding" runs compare the
//! identical workload (`tests/overload.rs` pins shed-vs-baseline p99
//! under a 2× burst).
//!
//! ```
//! use cdl::load::{ArrivalProcess, LoadSpec, TenantProfile};
//! use cdl::serve::Priority;
//! use std::time::Duration;
//!
//! // a bursty two-tenant mix: latency-sensitive foreground traffic with
//! // a 5ms budget, plus low-priority best-effort background scans
//! let spec = LoadSpec {
//!     arrival: ArrivalProcess::OnOff {
//!         on_rate_rps: 2000.0,
//!         off_rate_rps: 0.0,
//!         mean_on: Duration::from_millis(50),
//!         mean_off: Duration::from_millis(150),
//!     },
//!     tenants: vec![
//!         TenantProfile::new()
//!             .tenant(1)
//!             .weight(3.0)
//!             .deadline(Duration::from_millis(5)),
//!         TenantProfile::new()
//!             .tenant(2)
//!             .weight(1.0)
//!             .priority(Priority::Low),
//!     ],
//!     requests: 200,
//!     seed: 42,
//! };
//! let schedule = spec.schedule().expect("valid spec");
//! assert_eq!(schedule.len(), 200);
//! // same seed ⇒ bit-identical schedule: runs are exactly comparable
//! assert_eq!(schedule, spec.schedule().unwrap());
//! // replay it open-loop against any submit closure (Router, a SendHalf…)
//! let stats = cdl::load::run_open_loop(&schedule[..10], |arrival| {
//!     assert!(arrival.tenant.is_some());
//! });
//! assert_eq!(stats.dispatched, 10);
//! ```
//!
//! ## Telemetry: tail latencies & request-lifecycle tracing
//!
//! Every latency figure in the serving stack is backed by
//! [`telemetry::LogHistogram`] — a mergeable log-bucketed (HDR-style)
//! histogram with O(1) recording, exact min/mean/max, and quantiles
//! within a documented 1/64 relative error over the whole lifetime of the
//! server (no sliding window, no unbounded sample buffer). Because merge
//! is associative, [`serve::RouterMetrics::total`] folds the per-model
//! ledgers — latency histogram included — into one [`serve::ServerMetrics`],
//! whose `latency_histogram` quantiles are **true tails across models**
//! (p99/p99.9/p99.99 of the merged distribution, not an average of
//! per-model percentiles).
//!
//! Switching [`serve::ServerConfig`]'s `telemetry` to
//! [`telemetry::TelemetryConfig::enabled`] additionally records a
//! per-request lifecycle span — admit, enqueue, batch-seal, dispatch,
//! each cascade stage, exit, reply — into lock-free per-thread rings,
//! keyed by [`telemetry::TraceId`] (a client id carried across the TCP
//! edge is continued server-side, so one trace covers the hop).
//! [`serve::Router::telemetry_snapshot`] bundles counters, histograms and
//! drained spans for [`telemetry::TelemetrySnapshot::render_prometheus`]
//! or [`telemetry::TelemetrySnapshot::render_chrome_trace`]
//! (`chrome://tracing`-loadable JSON), and
//! [`telemetry::PhaseBreakdown`] condenses drained spans into mean
//! queue-wait / batch-wait / eval / reply times (`tests/telemetry.rs`
//! pins the error bound, the merge law, and trace propagation across the
//! TCP loopback).
//!
//! ```
//! use cdl::telemetry::{EventKind, LogHistogram, Telemetry, TelemetryConfig};
//!
//! // mergeable tails: two servers' histograms fold into one
//! let mut a = LogHistogram::new();
//! let mut b = LogHistogram::new();
//! for v in 0..1000u64 {
//!     a.record(v);
//!     b.record(10 * v);
//! }
//! let mut merged = a.clone();
//! merged.merge(&b);
//! assert_eq!(merged.count(), 2000);
//! assert_eq!(merged.max_value(), b.max_value());
//!
//! // lifecycle spans: record on any thread, drain centrally
//! let telemetry = Telemetry::new(TelemetryConfig::enabled());
//! let trace = telemetry.begin_trace().expect("spans are on");
//! telemetry.record(trace, EventKind::Admit);
//! telemetry.record(trace, EventKind::Reply);
//! assert_eq!(telemetry.drain().len(), 2);
//! ```

pub use cdl_core as core;
pub use cdl_dataset as dataset;
pub use cdl_hw as hw;
pub use cdl_load as load;
pub use cdl_nn as nn;
pub use cdl_serve as serve;
pub use cdl_telemetry as telemetry;
pub use cdl_tensor as tensor;
