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
//! stream. Prints the router's final per-shard + aggregate metrics report
//! (routing histogram, per-model exit/energy breakdown), cross-checks a
//! sample of responses against `CdlNetwork::classify_with_override`, and
//! finishes with a GEMM-kernel A/B/C: the identical workload against a
//! router per kernel (`reference` → `tiled` → `simd`), asserting the
//! throughput order `simd ≥ tiled ≥ reference` — the SIMD leg of the
//! assert is skipped (with a note) on hosts without AVX2, where the
//! `Simd` arm transparently runs the tiled loops anyway. A final replica
//! scale-out A/B serves the same workload from 1 vs 3 least-loaded
//! replicas per model, asserting bit-identical answers and (on
//! multi-core hosts) that the replicated configuration at least matches
//! single-shard throughput.
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
    BatchPolicy, GemmKernel, Pending, PhaseBreakdown, PlacementPolicy, ReplicaSpec, Router,
    ServerConfig, ShardSpec, SubmitOptions, TelemetryConfig,
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

    // 4. The sharded router under an open-loop multi-client workload —
    //    once per GEMM microkernel (A/B/C: reference loops, tiled
    //    register blocks, explicit AVX2 SIMD).
    let config = ServerConfig {
        policy: BatchPolicy::new(128, Duration::from_millis(2)),
        queue_capacity: 4096,
        workers,
        ..ServerConfig::default()
    };
    println!(
        "router: 2 shards × {workers} workers, {clients} clients, batch ≤128 or 2ms, \
         per-request δ/depth overrides, AVX2 {}\n",
        if GemmKernel::simd_available() {
            "available"
        } else {
            "absent (simd arm runs the tiled fallback)"
        }
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

    // best of two runs per kernel: the first pass pays scratch allocation
    // and thread warmup, and a scheduler hiccup on a loaded 1-core box
    // shouldn't fail the throughput ordering asserts below — every kernel
    // is measured the same way, so the comparison stays symmetric
    let mut per_kernel: Vec<(GemmKernel, Duration)> = Vec::new();
    for kernel in [GemmKernel::Reference, GemmKernel::Tiled, GemmKernel::Simd] {
        let shard_config = ServerConfig {
            gemm_kernel: kernel,
            ..config.clone()
        };
        let router = Router::start(vec![
            ShardSpec::new("MNIST_2C", Arc::clone(&m2c), shard_config.clone()),
            ShardSpec::new("MNIST_3C", Arc::clone(&m3c), shard_config),
        ])?;
        let models = [
            router.model_id("MNIST_2C").expect("registered"),
            router.model_id("MNIST_3C").expect("registered"),
        ];
        let (first_elapsed, outputs) = run_workload(&router, &models);
        let metrics = router.metrics();
        let elapsed = run_workload(&router, &models).0.min(first_elapsed);
        router.shutdown();

        // 5. Equivalence per kernel: the routed answers are bit-identical
        //    to the per-image path on the routed model with the carried
        //    override, whatever batches (and whatever kernel) they landed
        //    in.
        let mut srv_exits = 0usize;
        for (i, out) in &outputs {
            srv_exits += out.exit_stage;
            if i % 97 == 0 {
                let expected = nets[i % 2]
                    .classify_with_override(&stream[*i], service_level(*i).exit_override())?;
                assert_eq!(*out, expected, "request {i} on kernel {kernel}");
            }
        }
        assert_eq!(outputs.len(), requests);
        assert_eq!(
            srv_exits, seq_exits,
            "kernel {kernel}: same exit decisions as sequential"
        );
        if kernel == GemmKernel::Tiled {
            // one representative report (the metrics snapshot always
            // describes exactly one pass of the stream)
            println!("=== router metrics (tiled pass) ===\n{metrics}\n");
        }
        println!(
            "router ({kernel} GEMM): {} requests in {:.3}s ({:.0} req/s) → {:.2}x vs sequential",
            requests,
            elapsed.as_secs_f64(),
            requests as f64 / elapsed.as_secs_f64(),
            seq_elapsed.as_secs_f64() / elapsed.as_secs_f64(),
        );
        per_kernel.push((kernel, elapsed));
    }

    // 6. Throughput ordering: every kernel-equipped router must beat the
    //    sequential loop, tiled must not lose to the reference loops, and
    //    on an AVX2 host the SIMD arm must not lose to tiled (on a host
    //    without AVX2 the simd router *is* the tiled router, so the
    //    assert would be pure scheduler noise — skipped with a note).
    let elapsed_of = |kernel: GemmKernel| {
        per_kernel
            .iter()
            .find(|(k, _)| *k == kernel)
            .expect("measured")
            .1
    };
    let (ref_elapsed, tiled_elapsed, simd_elapsed) = (
        elapsed_of(GemmKernel::Reference),
        elapsed_of(GemmKernel::Tiled),
        elapsed_of(GemmKernel::Simd),
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    assert!(
        tiled_elapsed < seq_elapsed,
        "dynamic batching + 2 shards × {workers} workers must beat the sequential loop \
         ({tiled_elapsed:?} vs {seq_elapsed:?})"
    );
    // since the batcher anchors its deadline at first *submission*, a
    // backlogged stream dispatches greedily instead of idling 2ms per
    // batch — better latency, but small batches leave kernel deltas
    // within scheduler jitter on a single-core host, so the kernel-order
    // asserts only run where there is real parallelism (with 5% slack)
    if cores > 1 {
        assert!(
            tiled_elapsed <= ref_elapsed.mul_f64(1.05),
            "the tiled GEMM kernel must not be slower than the reference loops \
             ({tiled_elapsed:?} vs {ref_elapsed:?})"
        );
    } else {
        println!(
            "single-core host: tiled {:.3}s vs reference {:.3}s is scheduler noise; \
             ordering assert skipped",
            tiled_elapsed.as_secs_f64(),
            ref_elapsed.as_secs_f64(),
        );
    }
    if GemmKernel::simd_available() && cores > 1 {
        assert!(
            simd_elapsed <= tiled_elapsed.mul_f64(1.05),
            "the AVX2 SIMD kernel must not be slower than the tiled one \
             ({simd_elapsed:?} vs {tiled_elapsed:?})"
        );
        println!(
            "kernel ordering holds: simd {:.3}s ≤ tiled {:.3}s ≤ reference {:.3}s",
            simd_elapsed.as_secs_f64(),
            tiled_elapsed.as_secs_f64(),
            ref_elapsed.as_secs_f64(),
        );
    } else if !GemmKernel::simd_available() {
        println!(
            "AVX2 absent: simd ran the tiled fallback ({:.3}s); ordering assert skipped",
            simd_elapsed.as_secs_f64(),
        );
    }

    // 7. Replica scale-out A/B: the identical workload against the same
    //    two models served by 1 replica vs 3 least-loaded replicas per
    //    model. Placement must be invisible in the answers and must not
    //    cost throughput when there are cores for the extra pipelines.
    let replica_pass = |n: usize| -> Result<Duration, Box<dyn std::error::Error>> {
        let replicas = ReplicaSpec::new(n, PlacementPolicy::LeastLoaded);
        let router = Router::start(vec![
            ShardSpec::new("MNIST_2C", Arc::clone(&m2c), config.clone()).replicated(replicas),
            ShardSpec::new("MNIST_3C", Arc::clone(&m3c), config.clone()).replicated(replicas),
        ])?;
        let models = [
            router.model_id("MNIST_2C").expect("registered"),
            router.model_id("MNIST_3C").expect("registered"),
        ];
        let (first_elapsed, outputs) = run_workload(&router, &models);
        let elapsed = run_workload(&router, &models).0.min(first_elapsed);
        let metrics = router.shutdown();
        assert_eq!(outputs.len(), requests);
        // replication is invisible in the answers: bit-identical to the
        // per-image path whichever replica served each sampled request
        for (i, out) in &outputs {
            if i % 97 == 0 {
                let expected = nets[i % 2]
                    .classify_with_override(&stream[*i], service_level(*i).exit_override())?;
                assert_eq!(*out, expected, "request {i} with {n} replica(s)");
            }
        }
        for shard in &metrics.shards {
            // the placement histogram partitions the shard's traffic and
            // the router/replica bookkeeping agrees once settled
            assert_eq!(
                shard.placement_histogram().iter().sum::<u64>(),
                shard.routed()
            );
            for replica in &shard.replicas {
                assert_eq!(replica.routed, replica.metrics.submitted);
            }
            println!(
                "  {} × {n} replica(s): placement histogram {:?}",
                shard.model,
                shard.placement_histogram()
            );
        }
        Ok(elapsed)
    };
    println!("\n=== replica scale-out A/B (least-loaded placement) ===");
    let single_elapsed = replica_pass(1)?;
    let replicated_elapsed = replica_pass(3)?;
    println!(
        "1 replica: {:.3}s ({:.0} req/s) · 3 replicas: {:.3}s ({:.0} req/s)",
        single_elapsed.as_secs_f64(),
        requests as f64 / single_elapsed.as_secs_f64(),
        replicated_elapsed.as_secs_f64(),
        requests as f64 / replicated_elapsed.as_secs_f64(),
    );
    if cores > 1 {
        // 5% slack: best-of-two absorbs warmup, this absorbs scheduler
        // jitter — a real regression (replicas serializing each other)
        // is far outside it
        assert!(
            replicated_elapsed <= single_elapsed.mul_f64(1.05),
            "3 replicas must at least match 1 replica on a {cores}-core host \
             ({replicated_elapsed:?} vs {single_elapsed:?})"
        );
        println!("replica scale-out holds: 3 replicas ≥ 1 replica throughput");
    } else {
        println!(
            "single-core host: replicas add threads but no parallelism; \
             throughput assert skipped"
        );
    }

    // 8. Lifecycle tracing: the same workload once more with spans on
    //    (every request traced), then the mean per-stage breakdown of the
    //    request lifecycle — where a request's wall time actually goes:
    //    batcher queue vs work queue vs cascade evaluation vs reply.
    println!("\n=== request-lifecycle tracing (spans on, sample rate 1.0) ===");
    let traced_config = ServerConfig {
        telemetry: TelemetryConfig::enabled(),
        ..config.clone()
    };
    let router = Router::start(vec![
        ShardSpec::new("MNIST_2C", Arc::clone(&m2c), traced_config.clone()),
        ShardSpec::new("MNIST_3C", Arc::clone(&m3c), traced_config),
    ])?;
    let models = [
        router.model_id("MNIST_2C").expect("registered"),
        router.model_id("MNIST_3C").expect("registered"),
    ];
    let (traced_elapsed, outputs) = run_workload(&router, &models);
    assert_eq!(outputs.len(), requests);
    // tracing must be invisible in the answers
    for (i, out) in &outputs {
        if i % 97 == 0 {
            let expected = nets[i % 2]
                .classify_with_override(&stream[*i], service_level(*i).exit_override())?;
            assert_eq!(*out, expected, "request {i} with tracing enabled");
        }
    }
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
