//! Per-layer measurements that do not depend on the workload: each layer is
//! timed from outside, by calling its public functions on batches of 256
//! pool images (the evaluator's stream chunk).

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cdl_core::batch::BatchEvaluator;
use cdl_core::network::CdlNetwork;
use cdl_nn::batch::BatchScratch;
use cdl_serve::{Router, Server, ServerConfig};
use cdl_telemetry::LogHistogram;
use cdl_tensor::gemm::{self, GemmKernel};
use cdl_tensor::im2col::{self, ConvScratch};
use cdl_tensor::Tensor;

use crate::prepare::{Prepared, MODEL_TAGS};
use crate::stats::median;

/// Batch every kernel and segment is timed at.
const BATCH: usize = 256;

/// Named per-layer values, in the order they were measured.
pub type Metrics = Vec<(String, f64)>;

/// How long each layer is timed, as a share of the full budget: 1 for a
/// full run, less for `--smoke`.
#[derive(Clone, Copy)]
pub struct Effort(pub f64);

impl Effort {
    fn ms(self, full_ms: u64) -> Duration {
        Duration::from_secs_f64(full_ms as f64 / 1e3 * self.0)
    }
}

/// Median seconds per call of `f`, over calls repeated for `budget`.
fn time_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // first call grows scratch buffers
    let mut samples = Vec::new();
    let began = Instant::now();
    while samples.len() < 5 || began.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples).expect("at least five samples")
}

/// Values in `[-0.5, 0.5)` from a fixed linear congruential stream: the
/// kernels' speed does not depend on the data, only on the shapes.
fn filler(len: usize, salt: u32) -> Vec<f32> {
    let mut x = 0x9E37_79B9u32 ^ salt;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
        .collect()
}

const LANES: usize = 96;
const ROUNDS: usize = 200_000;

/// `ROUNDS` rounds of a mul followed by a dependent add per lane, no FMA —
/// what the repo's AVX2 kernels issue — over enough independent
/// accumulators to cover the latency.
fn mul_add_rounds() {
    #[inline(always)]
    fn rounds(acc: &mut [f32; LANES], a: f32, b: f32) {
        for _ in 0..ROUNDS {
            for v in acc.iter_mut() {
                *v = *v * a + b;
            }
        }
    }
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn rounds_avx2(acc: &mut [f32; LANES], a: f32, b: f32) {
        rounds(acc, a, b);
    }
    let mut acc = [1.0f32; LANES];
    let (a, b) = (black_box(0.999_9f32), black_box(0.000_1f32));
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just confirmed at run time, the only
        // requirement of the `target_feature` function.
        unsafe { rounds_avx2(&mut acc, a, b) };
        black_box(&mut acc);
        return;
    }
    rounds(&mut acc, a, b);
    black_box(&mut acc);
}

/// Peak of [`mul_add_rounds`] in GFLOP/s.
fn peak_gflops_mul_add(e: Effort) -> f64 {
    let secs = time_call(e.ms(250), mul_add_rounds);
    (2 * LANES * ROUNDS) as f64 / secs / 1e9
}

/// STREAM triad `a[i] = b[i] + s·c[i]` over arrays far larger than the
/// caches; counts two reads and one write per element. GB/s.
fn stream_gbps(e: Effort) -> f64 {
    const N: usize = 4 << 20;
    let (b, c) = (filler(N, 1), filler(N, 2));
    let mut a = vec![0.0f32; N];
    let s = black_box(1.5f32);
    let secs = time_call(e.ms(250), || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(&mut a);
    });
    (3 * 4 * N) as f64 / secs / 1e9
}

struct Roof {
    effort: Effort,
    peak_gflops: f64,
    stream_gbps: f64,
}

impl Roof {
    /// Pushes `ns_per_img`, `gflops` and `roofline_share` for one kernel
    /// shape. `bytes` per image is computed from the tensor sizes (input,
    /// output, and the weights once per batch), not measured.
    fn push(&self, out: &mut Metrics, shape: &str, secs_per_batch: f64, macs: usize, bytes: f64) {
        let per_img = secs_per_batch / BATCH as f64;
        let gflops = 2.0 * macs as f64 / per_img / 1e9;
        let intensity = 2.0 * macs as f64 / bytes;
        let bound = self.peak_gflops.min(self.stream_gbps * intensity);
        out.push((format!("tensor.{shape}_ns_per_img"), per_img * 1e9));
        out.push((format!("tensor.{shape}_gflops"), gflops));
        out.push((format!("tensor.{shape}_roofline_share"), gflops / bound));
    }
}

/// Times `conv2d_valid_batch` on `BATCH` inputs of `[c_in, hw, hw]` with a
/// `[c_out, c_in, k, k]` kernel bank; returns seconds per batch.
fn conv_kernel(
    roof: &Roof,
    out: &mut Metrics,
    shape: &str,
    c_in: usize,
    hw: usize,
    c_out: usize,
    k: usize,
) -> f64 {
    let inputs: Vec<Tensor> = (0..BATCH)
        .map(|i| {
            Tensor::from_vec(filler(c_in * hw * hw, i as u32), &[c_in, hw, hw]).expect("conv input")
        })
        .collect();
    let kernels = Tensor::from_vec(filler(c_out * c_in * k * k, 77), &[c_out, c_in, k, k])
        .expect("kernel bank");
    let bias = filler(c_out, 78);
    let mut scratch = ConvScratch::default();
    let kernel = GemmKernel::detect();
    let secs = time_call(roof.effort.ms(120), || {
        black_box(
            im2col::conv2d_valid_batch(&inputs, &kernels, &bias, &mut scratch, kernel)
                .expect("conv shapes are valid"),
        );
    });
    let o = hw - k + 1;
    let macs = c_out * o * o * c_in * k * k;
    let words = (c_in * hw * hw + c_out * o * o) as f64 + kernels.len() as f64 / BATCH as f64;
    roof.push(out, shape, secs, macs, 4.0 * words);
    secs
}

/// Times `gemm_nt` (dense layer / head shape) on `BATCH` rows of `k`
/// features into `m` outputs; returns seconds per batch.
fn affine_kernel(roof: &Roof, out: &mut Metrics, shape: &str, k: usize, m: usize) -> f64 {
    let rows: Vec<Vec<f32>> = (0..BATCH).map(|i| filler(k, i as u32)).collect();
    let row_refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    let (w, bias) = (filler(m * k, 79), filler(m, 80));
    let mut result = vec![0.0f32; BATCH * m];
    let kernel = GemmKernel::detect();
    let secs = time_call(roof.effort.ms(60), || {
        gemm::gemm_nt(kernel, k, &row_refs, &w, &bias, &mut result);
        black_box(&mut result);
    });
    let words = (k + m) as f64 + (m * k) as f64 / BATCH as f64;
    roof.push(out, shape, secs, m * k, 4.0 * words);
    secs
}

/// `cdl_nn` segments and `cdl_core` heads of one model on the first
/// `BATCH` pool images, every image pushed through every stage.
/// `kernel_secs[s]` is the conv/GEMM kernel time inside segment `s`.
fn model_stages(
    e: Effort,
    out: &mut Metrics,
    net: &CdlNetwork,
    images: &[Tensor],
    tag: &str,
    kernel_secs: &[f64],
) {
    let mut scratch = BatchScratch::new();
    let mut taps: Vec<usize> = net.stages().iter().map(|s| s.tap_runtime).collect();
    taps.push(net.base().layer_count() - 1);
    let mut inputs = images.to_vec();
    let mut from = None;
    let mut staged_secs = 0.0;
    for (s, &upto) in taps.iter().enumerate() {
        let secs = time_call(e.ms(120), || {
            black_box(
                net.base()
                    .forward_batch_segment(&inputs, from, upto, &mut scratch)
                    .expect("segment runs"),
            );
        });
        out.push((
            format!("nn.stage{s}_{tag}_ns_per_img"),
            secs / BATCH as f64 * 1e9,
        ));
        out.push((
            format!("nn.stage{s}_{tag}_nonconv_share"),
            (1.0 - kernel_secs[s] / secs).max(0.0),
        ));
        staged_secs += secs;
        inputs = net
            .base()
            .forward_batch_segment(&inputs, from, upto, &mut scratch)
            .expect("segment runs");
        from = Some(upto);
        if let Some(stage) = net.stages().get(s) {
            let mut scores = Vec::new();
            let head_secs = time_call(e.ms(60), || {
                stage
                    .head
                    .scores_batch_into(&inputs, &mut scores, scratch.kernel)
                    .expect("head runs");
                black_box(&mut scores);
            });
            out.push((
                format!("core.head_o{}_{tag}_ns_per_img", s + 1),
                head_secs / BATCH as f64 * 1e9,
            ));
            staged_secs += head_secs;
        }
    }
    // the same images with every exit forced to the last stage, so the
    // evaluator runs exactly the segments and heads timed above; what is
    // left is compaction, the confidence gate and output assembly
    let mut eval = BatchEvaluator::new(net);
    let never_exit = cdl_core::confidence::ExitOverride::with_delta(1.0);
    let whole = time_call(e.ms(120), || {
        black_box(
            eval.classify_batch_with_override(images, never_exit)
                .expect("batch classifies"),
        );
    });
    out.push((
        format!("core.eval_overhead_share_{tag}"),
        (1.0 - staged_secs / whole).max(0.0),
    ));
}

/// `classify_batch` cost per image at the batch sizes the server forms.
fn batch_sweep(e: Effort, out: &mut Metrics, net: &CdlNetwork, images: &[Tensor]) {
    let mut eval = BatchEvaluator::new(net);
    for size in [1usize, 8, 32, 256] {
        let chunks: Vec<&[Tensor]> = images.chunks_exact(size).collect();
        let secs = time_call(e.ms(100), || {
            for chunk in &chunks {
                black_box(eval.classify_batch(chunk).expect("batch classifies"));
            }
        });
        out.push((
            format!("core.ns_per_img_b{size}_2c"),
            secs / (chunks.len() * size) as f64 * 1e9,
        ));
    }
}

/// Closed loop of `window` outstanding requests against an in-process
/// submit function for `run`; returns completions per second.
fn inproc_closed_loop<P>(
    run: Duration,
    window: usize,
    mut submit: impl FnMut(usize) -> P,
    wait: impl Fn(P),
) -> f64 {
    let mut pending = VecDeque::with_capacity(window);
    let mut next = 0usize;
    let mut done = 0u64;
    let began = Instant::now();
    while began.elapsed() < run {
        while pending.len() < window {
            pending.push_back(submit(next));
            next += 1;
        }
        wait(pending.pop_front().expect("window is full"));
        done += 1;
    }
    let rate = done as f64 / began.elapsed().as_secs_f64();
    pending.into_iter().for_each(wait);
    rate
}

/// The serve layers without the edge: `Server::submit` alone, then the same
/// closed loop through `Router::submit`.
fn serve_inproc(e: Effort, out: &mut Metrics, prep: &Prepared, router: &Router) {
    let images = &prep.pool.images;
    let run = e.ms(700);

    let server =
        Server::start(Arc::clone(&prep.nets[0]), ServerConfig::default()).expect("server starts");
    let server_rps = inproc_closed_loop(
        run,
        256,
        |k| {
            server
                .submit(images[k % images.len()].clone())
                .expect("in-process submit")
        },
        |p| {
            p.wait().expect("in-process request completes");
        },
    );
    // one submit call on an idle server, its reply awaited outside the timing
    let mut calls = Vec::new();
    for k in 0..(2000.0 * e.0) as usize + 10 {
        let input = images[k % images.len()].clone();
        let t = Instant::now();
        let pending = server.submit(input).expect("in-process submit");
        calls.push(t.elapsed().as_secs_f64() * 1e9);
        pending.wait().expect("in-process request completes");
    }
    server.shutdown();

    let models = [0, 1].map(|m| {
        router
            .model_id(crate::prepare::MODEL_NAMES[m])
            .expect("model is routed")
    });
    let routed = |pick: &dyn Fn(usize) -> usize| {
        inproc_closed_loop(
            run,
            256,
            |k| {
                router
                    .submit(models[pick(k)], images[k % images.len()].clone())
                    .expect("routed submit")
            },
            |p| {
                p.wait().expect("routed request completes");
            },
        )
    };
    // the server loop's single model: the difference is the router's own cost
    let router_one_model_rps = routed(&|_| 0);
    // both models alternating, the traffic of the wire workloads
    let router_rps = routed(&|k| k % 2);
    out.push((
        "server.submit_ns".into(),
        median(&calls).expect("at least ten calls"),
    ));
    out.push(("server.inproc_rps".into(), server_rps));
    out.push(("router.inproc_rps".into(), router_rps));
    out.push((
        "router.overhead_share".into(),
        1.0 - router_one_model_rps / server_rps,
    ));
}

/// `LogHistogram::record` timed directly, ns per call.
fn hist_record_ns(e: Effort) -> f64 {
    const N: u64 = 1_000_000;
    let mut hist = LogHistogram::new();
    let secs = time_call(e.ms(40), || {
        for v in 0..N {
            hist.record(black_box(v.wrapping_mul(2_654_435_761) % 50_000_000));
        }
        black_box(&mut hist);
    });
    secs / N as f64 * 1e9
}

/// Every workload-independent per-layer metric. `router` is an idle
/// in-process router (spans off) for the router closed loop.
pub fn measure(prep: &Prepared, router: &Router, e: Effort) -> Metrics {
    let mut out = Metrics::new();
    let roof = Roof {
        effort: e,
        peak_gflops: peak_gflops_mul_add(e),
        stream_gbps: stream_gbps(e),
    };
    out.push(("host.peak_gflops_mul_add".into(), roof.peak_gflops));
    out.push(("host.stream_gbps".into(), roof.stream_gbps));

    // MNIST_2C: C1 5×5 1→6 on 28², C2 5×5 6→12 on 12², FC 192→10, O1 864→10
    let c1 = conv_kernel(&roof, &mut out, "conv_c1_2c", 1, 28, 6, 5);
    let c2 = conv_kernel(&roof, &mut out, "conv_c2_2c", 6, 12, 12, 5);
    let fc = affine_kernel(&roof, &mut out, "fc_2c", 192, 10);
    affine_kernel(&roof, &mut out, "o1_2c", 864, 10);
    let kernels_2c = [c1, c2 + fc];
    // MNIST_3C: C1 3×3 1→3 on 28², C2 4×4 3→6 on 13², C3 3×3 6→9 on 5²,
    // FC 81→10, O1 507→10, O2 150→10
    let c1 = conv_kernel(&roof, &mut out, "conv_c1_3c", 1, 28, 3, 3);
    let c2 = conv_kernel(&roof, &mut out, "conv_c2_3c", 3, 13, 6, 4);
    let c3 = conv_kernel(&roof, &mut out, "conv_c3_3c", 6, 5, 9, 3);
    let fc = affine_kernel(&roof, &mut out, "fc_3c", 81, 10);
    affine_kernel(&roof, &mut out, "o1_3c", 507, 10);
    affine_kernel(&roof, &mut out, "o2_3c", 150, 10);
    let kernels_3c = [c1, c2, c3 + fc];

    let images = &prep.pool.images[..BATCH.min(prep.pool.len())];
    model_stages(
        e,
        &mut out,
        &prep.nets[0],
        images,
        MODEL_TAGS[0],
        &kernels_2c,
    );
    model_stages(
        e,
        &mut out,
        &prep.nets[1],
        images,
        MODEL_TAGS[1],
        &kernels_3c,
    );
    batch_sweep(e, &mut out, &prep.nets[0], images);
    serve_inproc(e, &mut out, prep, router);
    out.push(("telemetry.hist_record_ns".into(), hist_record_ns(e)));
    out
}
