//! Criterion bench: raw layer primitive throughput (the substrate the
//! op-count model assumes). Geometry matches the paper's Table I/II layers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cdl_tensor::im2col::{conv2d_valid_batch, ConvScratch};
use cdl_tensor::{conv, ops, pool, GemmKernel, Tensor};

fn bench_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("layers");

    // Table I C1: 28x28x1 -> 24x24x6, 5x5 kernels
    let input = Tensor::full(&[1, 28, 28], 0.5);
    let kernels = Tensor::full(&[6, 1, 5, 5], 0.02);
    let bias = vec![0.0f32; 6];
    group.bench_function("conv_c1_28x28_6maps_5x5", |b| {
        b.iter(|| conv::conv2d_valid(black_box(&input), black_box(&kernels), &bias).unwrap())
    });

    let mut scratch = ConvScratch::default();
    let detected = GemmKernel::detect();
    let batch_of_one = std::slice::from_ref(&input);
    group.bench_function("conv_c1_batched_kernel", |b| {
        b.iter(|| {
            conv2d_valid_batch(
                black_box(batch_of_one),
                &kernels,
                &bias,
                &mut scratch,
                detected,
            )
            .unwrap()
        })
    });

    // Table I C2: 12x12x6 -> 8x8x12, 5x5 kernels
    let input2 = Tensor::full(&[6, 12, 12], 0.5);
    let kernels2 = Tensor::full(&[12, 6, 5, 5], 0.02);
    let bias2 = vec![0.0f32; 12];
    group.bench_function("conv_c2_12x12x6_12maps_5x5", |b| {
        b.iter(|| conv::conv2d_valid(black_box(&input2), black_box(&kernels2), &bias2).unwrap())
    });

    let batch_of_one = std::slice::from_ref(&input2);
    group.bench_function("conv_c2_batched_kernel", |b| {
        b.iter(|| {
            conv2d_valid_batch(
                black_box(batch_of_one),
                &kernels2,
                &bias2,
                &mut scratch,
                detected,
            )
            .unwrap()
        })
    });

    // P1: 24x24x6 max pool 2x2
    let pin = Tensor::full(&[6, 24, 24], 0.5);
    group.bench_function("maxpool_24x24x6_w2", |b| {
        b.iter(|| pool::maxpool2d(black_box(&pin), 2).unwrap())
    });
    group.bench_function("meanpool_24x24x6_w2", |b| {
        b.iter(|| pool::meanpool2d(black_box(&pin), 2).unwrap())
    });

    // O1 head: 864 -> 10 matvec
    let w = Tensor::full(&[10, 864], 0.01);
    let x = Tensor::full(&[864], 0.5);
    group.bench_function("dense_864_to_10", |b| {
        b.iter(|| ops::matvec(black_box(&w), black_box(&x)).unwrap())
    });

    // softmax on 10 scores (the activation module's normalisation)
    let scores = Tensor::from_vec((0..10).map(|i| i as f32 * 0.3).collect(), &[10]).unwrap();
    group.bench_function("softmax_10", |b| {
        b.iter(|| ops::softmax(black_box(&scores)))
    });

    group.finish();
}

criterion_group!(benches, bench_layers);
criterion_main!(benches);
