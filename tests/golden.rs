//! Golden vectors: "same input, same model file ⇒ same output bits" as a
//! checked claim.
//!
//! `tests/golden/vectors.json` holds, for both committed benchmark models
//! (`benchmark/models/*.json`) and 64 inputs each, the exact bits of every
//! stage's head scores plus — under `ExitOverride::NONE` — the label, the
//! exit stage, the early-exit confidence bits and the six op counts. The
//! inputs are reproducible from integers alone: splitmix64 pixels, a dozen
//! pool digits stored u8-quantised in the file itself, and edge images.
//!
//! The replay recomputes them through the per-image oracle and through the
//! batched path on **both `GemmKernel` arms**, so on an AVX2 host both
//! compilations of every body, the sigmoid included, are held to one
//! committed answer (what `Simd` runs on a host without AVX2 is the
//! `Reference` arm: `gemm`'s dispatch-table test). A reordered
//! sum, an FMA the compiler was allowed to contract or a new libm call on
//! the classify path fails here by name instead of silently retraining a
//! cache; it is also what `cdl_bench::pipeline::NUMERICS` has to be bumped
//! for. The final exit's confidence is a libm softmax and stays outside the
//! file (`confidence: null`).

use cdl::core::batch::BatchEvaluator;
use cdl::core::confidence::ExitOverride;
use cdl::core::network::{CdlNetwork, CdlOutput};
use cdl::core::persist::SavedCdl;
use cdl::dataset::SyntheticMnist;
use cdl::nn::batch::BatchScratch;
use cdl::tensor::{GemmKernel, Tensor};
use serde::{Deserialize, Serialize};

const MODELS: [(&str, &str); 2] = [
    (
        "mnist_2c",
        include_str!("../benchmark/models/mnist_2c.json"),
    ),
    (
        "mnist_3c",
        include_str!("../benchmark/models/mnist_3c.json"),
    ),
];
const GOLDEN: &str = include_str!("golden/vectors.json");
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/vectors.json");

const INPUTS: usize = 64;
const DIGITS: usize = 12;
const PIXELS: usize = 28 * 28;

/// What the file records for one input on one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Record {
    /// `to_bits()` of every stage's head scores, stage-major — all stages,
    /// also those past the input's exit.
    scores: Vec<Vec<u32>>,
    label: usize,
    exit_stage: usize,
    /// Confidence bits of an early exit; `None` at the final exit.
    confidence: Option<u32>,
    /// macs, adds, compares, activations, mem_reads, mem_writes.
    ops: [u64; 6],
}

#[derive(Debug, Serialize, Deserialize)]
struct Golden {
    /// The pool digits, `round(pixel · 255)`.
    digits: Vec<Vec<u8>>,
    mnist_2c: Vec<Record>,
    mnist_3c: Vec<Record>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The 64 inputs: the stored digits, six edge images, then splitmix64
/// noise — every pixel an exact function of integers.
fn inputs(digits: &[Vec<u8>]) -> Vec<Tensor> {
    assert_eq!(digits.len(), DIGITS);
    let image = |pixels: Vec<f32>| Tensor::from_vec(pixels, &[1, 28, 28]).unwrap();
    let mut out: Vec<Tensor> = digits
        .iter()
        .map(|d| image(d.iter().map(|&q| f32::from(q) / 255.0).collect()))
        .collect();
    let alternating = |a: f32, b: f32| -> Vec<f32> { (0..PIXELS).map(|i| [a, b][i % 2]).collect() };
    out.push(image(vec![0.0; PIXELS]));
    out.push(image(vec![1.0; PIXELS]));
    out.push(image(alternating(0.0, -0.0)));
    // saturating magnitudes: every sigmoid downstream sits at exactly 0 or 1
    out.push(image(vec![1e30; PIXELS]));
    out.push(image(vec![-1e30; PIXELS]));
    out.push(image(alternating(1e30, -1e30)));
    let mut state = 0x00C0_FFEE;
    while out.len() < INPUTS {
        let pixels = (0..PIXELS)
            .map(|_| (splitmix64(&mut state) >> 40) as f32 / (1u32 << 24) as f32)
            .collect();
        out.push(image(pixels));
    }
    out
}

fn load(json: &str) -> CdlNetwork {
    serde_json::from_str::<SavedCdl>(json)
        .expect("committed model parses")
        .restore()
        .expect("committed model restores")
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn record(scores: Vec<Vec<u32>>, out: &CdlOutput) -> Record {
    Record {
        scores,
        label: out.label,
        exit_stage: out.exit_stage,
        confidence: out.exited_early.then(|| out.confidence.to_bits()),
        ops: [
            out.ops.macs,
            out.ops.adds,
            out.ops.compares,
            out.ops.activations,
            out.ops.mem_reads,
            out.ops.mem_writes,
        ],
    }
}

/// One input through the per-image layers and heads — the oracle.
fn oracle_record(net: &CdlNetwork, x: &Tensor) -> Record {
    let mut scores = Vec::new();
    let mut cur = x.clone();
    let mut prev: Option<usize> = None;
    for stage in net.stages() {
        cur = net
            .base()
            .forward_segment(&cur, prev, stage.tap_runtime)
            .unwrap();
        scores.push(bits(stage.head.scores(&cur).unwrap().data()));
        prev = Some(stage.tap_runtime);
    }
    let out = net.classify_with_override(x, ExitOverride::NONE).unwrap();
    record(scores, &out)
}

/// All inputs as one batch through `forward_batch_segment` +
/// `scores_batch_into` (every stage, no compaction) and through
/// `BatchEvaluator::with_kernel`.
fn batched_records(net: &CdlNetwork, xs: &[Tensor], kernel: GemmKernel) -> Vec<Record> {
    let mut scratch = BatchScratch::with_kernel(kernel);
    let mut scores: Vec<Vec<Vec<u32>>> = vec![Vec::new(); xs.len()];
    let mut cur: Vec<Tensor> = Vec::new();
    let mut prev: Option<usize> = None;
    let mut rows = Vec::new();
    for stage in net.stages() {
        let src = if prev.is_some() { &cur[..] } else { xs };
        cur = net
            .base()
            .forward_batch_segment(src, prev, stage.tap_runtime, &mut scratch)
            .unwrap();
        stage
            .head
            .scores_batch_into(&cur, &mut rows, kernel)
            .unwrap();
        for (per_input, row) in scores.iter_mut().zip(rows.chunks(stage.head.classes())) {
            per_input.push(bits(row));
        }
        prev = Some(stage.tap_runtime);
    }
    let outs = BatchEvaluator::with_kernel(net, kernel)
        .classify_batch_with_override(xs, ExitOverride::NONE)
        .unwrap();
    scores
        .into_iter()
        .zip(&outs)
        .map(|(s, out)| record(s, out))
        .collect()
}

fn assert_records(got: &[Record], want: &[Record], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: record count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{what}: input {i}");
    }
}

#[test]
fn golden_vectors_replay_on_every_arm() {
    let golden: Golden = serde_json::from_str(GOLDEN).expect("tests/golden/vectors.json parses");
    let xs = inputs(&golden.digits);
    for ((name, json), want) in MODELS.into_iter().zip([&golden.mnist_2c, &golden.mnist_3c]) {
        let net = load(json);
        // a file in which every input takes the same exit would pin little
        let early = want.iter().filter(|r| r.confidence.is_some()).count();
        assert!(
            early > 0 && early < want.len(),
            "{name}: degenerate exit mix"
        );

        let oracle: Vec<Record> = xs.iter().map(|x| oracle_record(&net, x)).collect();
        assert_records(&oracle, want, &format!("{name} per-image oracle"));
        for kernel in GemmKernel::ALL {
            let got = batched_records(&net, &xs, kernel);
            assert_records(&got, want, &format!("{name} batched {kernel:?}"));
        }
    }
}

/// Rewrites `tests/golden/vectors.json` from the per-image oracle:
/// `cargo test --release --test golden -- --ignored`. A diff after running
/// it is a numerics change — say so in the PR and bump
/// `cdl_bench::pipeline::NUMERICS`.
#[test]
#[ignore = "regenerates the committed golden file"]
fn regenerate_golden_vectors() {
    let pool = SyntheticMnist::default().generate_split(0, DIGITS, 5).1;
    let digits: Vec<Vec<u8>> = pool
        .images
        .iter()
        .map(|x| x.data().iter().map(|p| (p * 255.0).round() as u8).collect())
        .collect();
    let xs = inputs(&digits);
    // one line per digit and per record keeps the file diffable
    let lines = |rows: Vec<String>| rows.join(",\n");
    let mut file = format!(
        "{{\n\"digits\": [\n{}\n]",
        lines(
            digits
                .iter()
                .map(|d| serde_json::to_string(d).unwrap())
                .collect()
        )
    );
    for (name, json) in MODELS {
        let net = load(json);
        let rows = xs
            .iter()
            .map(|x| serde_json::to_string(&oracle_record(&net, x)).unwrap())
            .collect();
        file.push_str(&format!(",\n\"{name}\": [\n{}\n]", lines(rows)));
    }
    file.push_str("\n}\n");
    std::fs::write(GOLDEN_PATH, file).expect("write tests/golden/vectors.json");
}
