//! Sharded streaming-serving demo: an open-loop two-model client workload
//! against [`cdl::serve::Router`], compared with the sequential per-image
//! loop.
//!
//! Trains the paper's two reference models (MNIST_2C with one conditional
//! exit, MNIST_3C with two), then fires `CDL_SERVE_REQUESTS` classification
//! requests at a two-shard router from `CDL_SERVE_CLIENTS` concurrent
//! client threads (open loop: clients submit on their own clock and collect
//! the `Pending` handles). Request `i` is routed to model `i % 2` and
//! carries a per-request δ/depth override from a small service-level mix —
//! the Fig. 10 accuracy/energy trade-off exercised per request within one
//! stream. Prints the router's ledger as Prometheus text — the same
//! text `Router::telemetry_snapshot` exports: per-model routed counts,
//! exits, ops, energy and latency histograms — cross-checks a
//! sample of responses against `CdlNetwork::classify_with_override`, then
//! serves the same workload once more with lifecycle tracing on. Every
//! assert is about answers and counters; the rates are printed, never
//! asserted — `benchmark/` is where throughput is measured and compared.
//!
//! ```text
//! cargo run --release --example serve_stream
//! CDL_SERVE_REQUESTS=5000 CDL_SERVE_WORKERS=4 cargo run --release --example serve_stream
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use cdl::core::arch;
use cdl::core::network::CdlNetwork;
use cdl::dataset::SyntheticMnist;
use cdl::nn::trainer::LabelledSet;
use cdl::serve::{
    BatchPolicy, Pending, PhaseBreakdown, Router, ServerConfig, ShardSpec, SubmitOptions,
    TelemetryConfig,
};
use cdl::tensor::Tensor;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The service-level mix of the stream: mostly the deployment default,
/// with lax-δ (energy-saver), strict-δ (accuracy-first) and depth-capped
/// (hard cost bound) requests mixed in.
fn service_level(i: usize) -> SubmitOptions {
    match i % 8 {
        0..=4 => SubmitOptions::default(),
        5 => SubmitOptions::with_delta(0.35),
        6 => SubmitOptions::with_delta(0.9),
        _ => SubmitOptions::with_max_stage(0),
    }
}

fn train_model(
    arch: cdl::core::arch::CdlArchitecture,
    train_set: &LabelledSet,
    seed: u64,
) -> Result<Arc<CdlNetwork>, Box<dyn std::error::Error>> {
    // the standard demo recipe shared with `benchmark/` — see
    // `cdl_bench::pipeline::train_demo_model`
    let cdln = cdl_bench::pipeline::train_demo_model(arch, train_set, 3, seed)
        .map_err(|e| e as Box<dyn std::error::Error>)?;
    Ok(Arc::new(cdln))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let requests = env_usize("CDL_SERVE_REQUESTS", 2000);
    let clients = env_usize("CDL_SERVE_CLIENTS", 4).max(1);
    let workers = env_usize(
        "CDL_SERVE_WORKERS",
        std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(2),
    )
    .max(1);

    // 1. The paper's two reference models, quickly trained on one set.
    let (train_set, test_set) = SyntheticMnist::default().generate_split(800, 1024, 23);
    let m2c = train_model(arch::mnist_2c(), &train_set, 7)?;
    let m3c = train_model(arch::mnist_3c(), &train_set, 11)?;
    let nets = [&m2c, &m3c];

    // 2. The request stream: cycle through the test images, alternating
    //    models and cycling service levels.
    let stream: Vec<Tensor> = (0..requests)
        .map(|i| test_set.images[i % test_set.len()].clone())
        .collect();

    // 3. Reference: the sequential per-image loop over the same routed
    //    workload (one unmeasured warmup pass first, so neither contender
    //    pays the cold caches).
    for (i, image) in stream.iter().enumerate().take(256) {
        nets[i % 2].classify_with_override(image, service_level(i).exit_override())?;
    }
    let seq_started = Instant::now();
    let mut seq_exits = 0usize;
    for (i, image) in stream.iter().enumerate() {
        let out = nets[i % 2].classify_with_override(image, service_level(i).exit_override())?;
        seq_exits += out.exit_stage;
    }
    let seq_elapsed = seq_started.elapsed();
    println!(
        "sequential per-image loop (2 models): {} requests in {:.3}s ({:.0} req/s)",
        requests,
        seq_elapsed.as_secs_f64(),
        requests as f64 / seq_elapsed.as_secs_f64(),
    );

    // 4. The sharded router under an open-loop multi-client workload.
    //    The default formation (a free worker takes what is queued) with a
    //    larger cap, since the clients' burst outruns the workers.
    let policy = BatchPolicy::new(128);
    let config = ServerConfig {
        policy,
        queue_capacity: 4096,
        workers,
        ..ServerConfig::default()
    };
    println!(
        "router: 2 shards × {workers} workers, {clients} clients, batch ≤ {}, per-request \
         δ/depth overrides\n",
        policy.max_batch_size,
    );

    let run_workload = |router: &Router,
                        models: &[cdl::serve::ModelId; 2]|
     -> (Duration, Vec<(usize, cdl::core::network::CdlOutput)>) {
        let started = Instant::now();
        let outputs = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let stream = &stream;
                    scope.spawn(move || {
                        // client c owns every c-th request of the open stream
                        let mine: Vec<(usize, Pending)> = stream
                            .iter()
                            .enumerate()
                            .skip(c)
                            .step_by(clients)
                            .map(|(i, image)| {
                                let pending = router
                                    .submit_with(models[i % 2], image.clone(), service_level(i))
                                    .unwrap();
                                (i, pending)
                            })
                            .collect();
                        mine.into_iter()
                            .map(|(i, pending)| (i, pending.wait().unwrap()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        (started.elapsed(), outputs)
    };

    // 5. Equivalence: a sample of the routed answers is bit-identical to
    //    the per-image path on the routed model with the carried override,
    //    whatever batches they landed in.
    let assert_sample_identical = |outputs: &[(usize, cdl::core::network::CdlOutput)],
                                   what: &str|
     -> Result<(), Box<dyn std::error::Error>> {
        assert_eq!(outputs.len(), requests);
        for (i, out) in outputs.iter().filter(|(i, _)| i % 97 == 0) {
            let expected = nets[i % 2]
                .classify_with_override(&stream[*i], service_level(*i).exit_override())?;
            assert_eq!(*out, expected, "request {i} {what}");
        }
        Ok(())
    };

    let model_ids = |router: &Router| {
        ["MNIST_2C", "MNIST_3C"].map(|name| router.model_id(name).expect("registered"))
    };

    let router = Router::start(vec![
        ShardSpec::new("MNIST_2C", Arc::clone(&m2c), config.clone()),
        ShardSpec::new("MNIST_3C", Arc::clone(&m3c), config.clone()),
    ])?;
    let models = model_ids(&router);
    // the second pass runs on warm scratch and threads; the metrics
    // snapshot describes exactly the first pass of the stream
    let (first_elapsed, outputs) = run_workload(&router, &models);
    let metrics = router.metrics();
    let elapsed = run_workload(&router, &models).0.min(first_elapsed);
    for shard in &router.shutdown().shards {
        // the router's routed count and the server's own ledger agree once
        // settled
        assert_eq!(shard.routed(), shard.total().submitted, "{}", shard.model);
    }
    assert_sample_identical(&outputs, "on the two-shard router")?;
    let srv_exits: usize = outputs.iter().map(|(_, out)| out.exit_stage).sum();
    assert_eq!(srv_exits, seq_exits, "same exit decisions as sequential");
    println!("=== router metrics (Prometheus text) ===\n{metrics}");
    println!(
        "router: {} requests in {:.3}s ({:.0} req/s) → {:.2}x vs sequential",
        requests,
        elapsed.as_secs_f64(),
        requests as f64 / elapsed.as_secs_f64(),
        seq_elapsed.as_secs_f64() / elapsed.as_secs_f64(),
    );

    // 6. Lifecycle tracing: the same workload once more with spans on
    //    (every request traced), then the mean per-stage breakdown of the
    //    request lifecycle — where a request's wall time actually goes:
    //    waiting for a batch vs seal → dispatch (one worker does both in
    //    one pass over the batch, so this is ≈ 0) vs cascade evaluation
    //    vs reply.
    println!("\n=== request-lifecycle tracing (spans on, sample rate 1.0) ===");
    let traced_config = ServerConfig {
        telemetry: TelemetryConfig::enabled(),
        ..config.clone()
    };
    let router = Router::start(vec![
        ShardSpec::new("MNIST_2C", Arc::clone(&m2c), traced_config.clone()),
        ShardSpec::new("MNIST_3C", Arc::clone(&m3c), traced_config),
    ])?;
    let models = model_ids(&router);
    let (traced_elapsed, outputs) = run_workload(&router, &models);
    // tracing must be invisible in the answers
    assert_sample_identical(&outputs, "with tracing enabled")?;
    // every handle has resolved, so every trace is complete through its
    // cascade-exit event; the handful of reply events still in flight at
    // drain time only shrink `traces`, never skew the means
    let spans = router.drain_spans();
    let breakdown = PhaseBreakdown::from_events(&spans);
    assert!(
        breakdown.traces > 0,
        "expected completed traces in {spans:?}"
    );
    println!(
        "traced pass: {} requests in {:.3}s ({:.0} req/s), {} span events drained",
        requests,
        traced_elapsed.as_secs_f64(),
        requests as f64 / traced_elapsed.as_secs_f64(),
        spans.len(),
    );
    println!("{breakdown}");
    router.shutdown();
    Ok(())
}
