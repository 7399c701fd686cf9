//! Register-blocked GEMM microkernels — the shared inner engine of the
//! batched hot paths ([`crate::im2col::conv2d_valid_batch`], its fused
//! sibling [`crate::im2col::conv2d_pool_batch`], and
//! [`crate::ops::affine_rows_into`]) — with one portable body and one AVX2
//! body per GEMM shape, chosen by the host.
//!
//! # Two arms, and why there is an enum at all
//!
//! Every batched evaluator in this workspace promises results that are
//! **bit-identical** to the per-image path, and which loop runs is a
//! property of the host, not of a configuration: [`GemmKernel::Simd`] runs
//! the explicit AVX2 bodies where the CPU has AVX2 and the portable bodies
//! everywhere else. The enum exists so that an AVX2 host can still be made
//! to run the portable bodies — [`GemmKernel::Reference`] is that arm, and
//! the parity suites iterate [`GemmKernel::ALL`] so both bodies of each
//! shape are driven on every run. The specification both are held to is
//! not in this module: it is the naive triple loops of the test modules,
//! [`crate::ops::affine_row`] and [`crate::conv::conv2d_valid`]. A future
//! arm (NEON, AVX-512, a kernel with lanes across images) is a new body
//! behind `Simd` that must reproduce them bit for bit before it is timed.
//!
//! # Tiling scheme of the portable bodies
//!
//! Both tile the M×N *output* plane into small register blocks and keep
//! the **full-k inner loop sequential per output element**:
//!
//! * [`gemm_nn`] (`C = bias ⊕ A·B`, the im2col convolution shape) uses
//!   6×8 tiles: 6 output rows × 8 output columns of accumulators live in
//!   registers for the whole `k` loop, and the 8-wide column dimension is a
//!   straight independent-lane loop that autovectorizes. A straight loop
//!   would re-read and re-write each `n`-length output row once per `k`
//!   step — `m·k` passes over memory versus one per tile here.
//! * [`gemm_nt`] (`out = rows·Wᵀ + bias`, the batched dense/head shape)
//!   uses 4×4 tiles: 16 independent dot-product accumulators advance
//!   through `k` together. A single f32 dot product cannot be vectorized
//!   without reassociating the sum (which would change results), so the win
//!   here is instruction-level parallelism — 16 dependency chains keep the
//!   FPU busy — plus one pass over each operand row per tile instead of
//!   one per output element.
//!
//! Straight (untiled) loops give the same bits 1.7–2.1× slower end to end
//! on both benchmark models, so there is no third, slower arm.
//!
//! # Why the k-order is preserved
//!
//! f32 addition is not associative, so the *sequence* of additions that
//! produces an output element defines its bit pattern. Tiling only
//! repartitions **which** elements are computed together; within one
//! element the accumulation stays exactly the specified order (`gemm_nn`:
//! bias first, then `p = 0..k` ascending; `gemm_nt`: `p = 0..k` ascending
//! from zero, bias added last). Tails — `m` or `n` not divisible by the
//! tile — fall back to narrower blocks or scalar loops with the same
//! per-element order, so parity holds for every shape, including `k = 0`
//! (pure bias). The parity proptests in `crates/tensor/tests/proptests.rs`
//! pin both arms against a naive triple loop bit for bit.
//!
//! # The AVX2 bodies: lane layout, and why mul+add instead of FMA
//!
//! [`GemmKernel::Simd`] re-expresses the tiled design in explicit
//! `core::arch::x86_64` AVX2 intrinsics, 8 f32 lanes per `__m256` vector.
//! The crucial layout decision is **which dimension becomes the lanes**:
//! both microkernels vectorize across the *output-column* dimension (`n`
//! columns of `gemm_nn`, output features of `gemm_nt`), so **each lane
//! owns exactly one output element** and accumulates *its own* k-loop
//! sequentially — `p = 0, 1, 2, …` in program order, one addition per
//! step, exactly like the scalar chain. Lanes never cooperate on an
//! element, so no horizontal reduction (and no reassociated addition tree)
//! ever touches an accumulator. That is what keeps the AVX2 bodies
//! **bit-identical**: vectorizing across independent elements is pure
//! repartitioning; vectorizing *within* an element's dot product would
//! split its addition chain into per-lane partial sums and change the
//! rounding sequence.
//!
//! The second bit-exactness decision is arithmetic: the k-step is a
//! separate `_mm256_mul_ps` followed by `_mm256_add_ps`, **never**
//! `_mm256_fmadd_ps`. An FMA computes `a·b + c` with a *single* rounding
//! of the infinitely precise product-sum; the scalar chain rounds the
//! product first, then rounds the sum — two roundings. Fused results are
//! usually *more* accurate, but they are different bits, and the contract
//! of this module is bit-parity across hosts, enforced by the parity
//! proptests and the golden vectors of `tests/golden.rs` on both arms.
//! (The portable bodies have the same property implicitly: the
//! autovectorizer may not fuse because the source says `mul` then `add`
//! and `-C target-feature` doesn't enable FMA contraction for baseline
//! x86-64.)
//!
//! Per shape:
//!
//! * `gemm_nn`: up to 6 rows × 16 columns per tile — two `__m256`
//!   accumulators per row (12 accumulators + 2 loaded `b` vectors + 1
//!   broadcast = 15 of the 16 ymm registers), seeded with the row bias;
//!   per `p` one broadcast of `a[i,p]` (`_mm256_set1_ps`) is shared by
//!   two contiguous unaligned loads of `b[p][j0..j0+16]`, halving the
//!   broadcast overhead that dominates the small-`k` conv layers. An
//!   8-wide tile covers the 8..=15-column remainder, and ragged `n % 8` /
//!   `m` tails fall back to the same scalar loops the portable body uses.
//!   (The paper-scale C1 layers are DRAM-bandwidth-bound at ~1 flop/byte,
//!   so the SIMD gain there is bounded by memory, not arithmetic — the
//!   compute-rich C2/C3/head shapes are where the 1.5–2x shows up.)
//! * `gemm_nt`: the 8 lanes are 8 *output features*, whose weight rows are
//!   `k`-strided in the row-major `[m, k]` buffer — a gather per step if
//!   read in place. Instead each 8-feature block is **packed once** into
//!   an interleaved `[k × 8]` scratch (`pack[p·8 + lane] = w[r0+lane, p]`,
//!   zero-padded lanes past `m`), turning every k-step into one contiguous
//!   load + one broadcast of `x[p]`, amortized over all samples in the
//!   batch. Up to 4 samples advance together to reuse each packed load.
//!   The pack buffer is a thread-local `Vec` reused across calls, so the
//!   steady-state no-allocation promise of the batched paths holds.
//! * **Fused direct convolution** ([`conv2d_direct_simd`]): for the conv
//!   hot path the Simd arm goes one step further than a faster GEMM — it
//!   skips the im2col lowering entirely. Lanes are contiguous output-x
//!   positions, whose receptive fields are contiguous spans of the input
//!   rows, so every tap is one weight broadcast against contiguous input
//!   loads; the patch-matrix write, its read-back and the output copy-out
//!   all disappear. The output plane is covered by **vector positions**: a
//!   row of `ow ≥ 8` columns takes `ceil(ow/8)` vectors at `ox = 0, 8, …`
//!   with the last one placed at `ow − 8`, so a width that is not a
//!   multiple of 8 costs one more full vector (up to 7 columns computed
//!   twice) instead of a scalar column tail. The positions of the whole
//!   `[oh, ow]` plane are walked in order and taken two at a time, across
//!   a row end too, and three output channels share each input load:
//!   every tile is 2 vectors × 3 channels = 6 independent add chains (the
//!   odd last position runs 1 × 3), which is what hides the latency of the
//!   dependent adds. Bit-exactness: each lane owns exactly one output
//!   element and accumulates bias first, then taps in channel-major
//!   `(c, ky, kx)` ascending order with separate mul and add — the im2col
//!   patch-row order the GEMM sums — so its bits depend only on which
//!   element it owns, and a cell stored by two overlapping vectors
//!   receives the same bits twice. Requires `ow ≥ 8` (checked,
//!   not assumed: `ow − 8` would underflow); narrower maps (the paper's
//!   3×3 C3) take the im2col + [`gemm_nn`] path. Tried and dropped: 4
//!   vectors × 3 channels (12 accumulators spill — slower than 2 × 3
//!   throughout), a const-generic kernel size (no gain), and with them a
//!   packed weight layout: the per-tap broadcasts are L1 hits already.
//!
//! # The host picks
//!
//! Nothing above the evaluator chooses a kernel. `BatchScratch::new` /
//! `BatchEvaluator::new` take [`GemmKernel::detect`] — `Simd` where
//! `is_x86_feature_detected!("avx2")`, `Reference` otherwise (and on
//! non-x86 builds, where the intrinsics module is compiled out) — and the
//! serving stack has no option for it. `Simd` on a host without AVX2 runs
//! the portable bodies itself, so naming it explicitly is always safe and
//! the difference is observable only in throughput; tests reach that path
//! on an AVX2 host through the [`force_simd_fallback`] hook. The only
//! caller that passes anything but `detect()` is a parity suite walking
//! [`GemmKernel::ALL`] (`BatchEvaluator::with_kernel`), and the
//! `benchmark/` package's `tensor.*` rows time the detected arm. The next
//! steps if LeNet-scale feature maps are outgrown: lanes across images for
//! the narrow and single-channel convolutions (which would retire the
//! lowering and `gemm_nn`'s AVX2 body), an AVX-512 body, and a
//! packed/L2-blocked operand layout.

/// Which body of each GEMM shape the batched paths run. Both arms are
/// bit-identical; they differ only in speed.
///
/// Callers do not choose: every evaluator takes [`GemmKernel::detect`].
/// The value is still an argument of the kernels so that a parity suite
/// can drive the portable bodies on an AVX2 host
/// (`BatchEvaluator::with_kernel` over [`GemmKernel::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmKernel {
    /// The portable body, always: register-blocked 6×8 / 4×4 output tiles
    /// in plain Rust (see the [module docs](self)).
    Reference,
    /// Explicit AVX2 intrinsics, 8 f32 lanes across the output-column
    /// dimension (see the [module docs](self)), where the host has AVX2;
    /// the portable body of [`GemmKernel::Reference`] everywhere else.
    Simd,
}

impl GemmKernel {
    /// Both arms, for the parity suites: on an AVX2 host iterating this
    /// drives the AVX2 and the portable body of every shape.
    pub const ALL: [GemmKernel; 2] = [GemmKernel::Reference, GemmKernel::Simd];

    /// The arm that names what this host runs: [`GemmKernel::Simd`] when
    /// the CPU reports AVX2 (`is_x86_feature_detected!`),
    /// [`GemmKernel::Reference`] otherwise. This is what
    /// `GemmKernel::default()` returns and what every evaluator is
    /// constructed with — asked once per construction, never in a hot loop.
    pub fn detect() -> GemmKernel {
        if simd::available() {
            GemmKernel::Simd
        } else {
            GemmKernel::Reference
        }
    }

    /// Whether the [`GemmKernel::Simd`] arm runs its AVX2 bodies on this
    /// host (rather than the portable ones). The other host-dispatched
    /// kernels of this crate (`im2col`'s direct convolution,
    /// `math::sigmoid_slice`) ask the same question.
    pub fn simd_available() -> bool {
        simd::available()
    }
}

impl Default for GemmKernel {
    /// [`GemmKernel::detect`].
    fn default() -> Self {
        GemmKernel::detect()
    }
}

/// Test hook: make the host look as if it had no AVX2, so
/// [`GemmKernel::Simd`] — and every other kernel that asks
/// [`GemmKernel::simd_available`] — takes its portable body.
/// Process-global; results are unchanged by construction (both bodies are
/// bit-identical), so flipping it concurrently with other work is safe —
/// only throughput and [`GemmKernel::detect`] are affected.
#[doc(hidden)]
pub fn force_simd_fallback(on: bool) {
    simd::force_fallback(on);
}

/// Rows × columns of the [`gemm_nn`] register tile (output rows of `A·B`).
/// Six rows × eight columns is 12 SSE (6 AVX) accumulator registers — the
/// tallest tile that still fits the x86-64 baseline register file, and it
/// covers the paper's 6-map C1 layer in a single row block.
const NN_MR: usize = 6;
/// Columns per [`gemm_nn`] register tile — the autovectorized lane count.
const NN_NR: usize = 8;
/// Sample rows per [`gemm_nt`] register tile.
const NT_MR: usize = 4;
/// Output features per [`gemm_nt`] register tile.
const NT_NR: usize = 4;

/// Bias-seeded matrix product `out[i][j] = bias[i] + Σ_p a[i,p]·b[p,j]`
/// over row-major buffers: `a` is `[m, k]`, `b` is `[k, n]`, `out` is
/// `[m, n]`.
///
/// This is the im2col convolution shape: `a` the reshaped kernel bank,
/// `b` the batch patch matrix, `bias` one value per output channel. The
/// per-element accumulation order — bias first, then `p` ascending — is
/// identical for both bodies, so both arms produce the same bits.
///
/// # Panics
///
/// Panics when a buffer length disagrees with `m`/`k`/`n` (callers
/// pre-validate shapes; this guards the unsafe-free indexing below).
// a GEMM takes three matrices and their dimensions — bundling them into a
// struct would only obscure the BLAS-shaped signature
#[allow(clippy::too_many_arguments)]
pub fn gemm_nn(
    kernel: GemmKernel,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm_nn: a must be [m={m}, k={k}]");
    assert_eq!(b.len(), k * n, "gemm_nn: b must be [k={k}, n={n}]");
    assert_eq!(bias.len(), m, "gemm_nn: bias must have m={m} entries");
    assert_eq!(out.len(), m * n, "gemm_nn: out must be [m={m}, n={n}]");
    if kernel == GemmKernel::Simd && simd::available() {
        // SAFETY: `available()` just confirmed AVX2 at runtime (it is never
        // true off x86-64), and the four length asserts above are
        // `gemm_nn_avx2`'s shape contract (`a = [m,k]`, `b = [k,n]`,
        // `bias = [m]`, `out = [m,n]`), which bounds every unchecked access.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            simd::gemm_nn_avx2(m, k, n, a, b, bias, out)
        };
    } else {
        gemm_nn_portable(m, k, n, a, b, bias, out)
    }
}

/// The portable body: 6×8 output tiles accumulate in registers across
/// the whole `k` loop; `m`/`n` tails fall back to narrower blocks
/// and scalar columns with the same per-element order. The row-block
/// height is dispatched to a const-generic microkernel so the compiler
/// fully unrolls the tile and keeps every accumulator in a register.
fn gemm_nn_portable(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let mut i0 = 0;
    while i0 < m {
        let mr = NN_MR.min(m - i0);
        match mr {
            6 => nn_row_block::<6>(i0, k, n, a, b, bias, out),
            5 => nn_row_block::<5>(i0, k, n, a, b, bias, out),
            4 => nn_row_block::<4>(i0, k, n, a, b, bias, out),
            3 => nn_row_block::<3>(i0, k, n, a, b, bias, out),
            2 => nn_row_block::<2>(i0, k, n, a, b, bias, out),
            _ => nn_row_block::<1>(i0, k, n, a, b, bias, out),
        }
        i0 += mr;
    }
}

/// All `n` columns of the `MR` output rows starting at `i0`: full 8-wide
/// tiles first, then a scalar column tail with the identical per-element
/// order.
#[inline]
fn nn_row_block<const MR: usize>(
    i0: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let n_main = n - n % NN_NR;
    let mut j0 = 0;
    while j0 < n_main {
        nn_microkernel::<MR>(i0, j0, k, n, a, b, bias, out);
        j0 += NN_NR;
    }
    // column tail (n % NN_NR columns): scalar accumulator per element,
    // bias first then p ascending — bit-identical, just unblocked
    for mi in 0..MR {
        let i = i0 + mi;
        let arow = &a[i * k..(i + 1) * k];
        for j in n_main..n {
            let mut acc = bias[i];
            for (p, &av) in arow.iter().enumerate() {
                acc += av * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// One `MR×NN_NR` output tile: accumulators seeded with the row bias, then
/// every `p` broadcasts `a[i,p]` against an 8-wide slice of `b[p]` — the
/// independent lanes are what autovectorizes, and the const `MR` lets the
/// whole tile live in registers for the duration of the `k` loop.
#[inline]
#[allow(clippy::too_many_arguments)]
fn nn_microkernel<const MR: usize>(
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let arows: [&[f32]; MR] = std::array::from_fn(|mi| &a[(i0 + mi) * k..(i0 + mi) * k + k]);
    let mut acc: [[f32; NN_NR]; MR] = std::array::from_fn(|mi| [bias[i0 + mi]; NN_NR]);
    for p in 0..k {
        let brow = &b[p * n + j0..p * n + j0 + NN_NR];
        for (lanes, arow) in acc.iter_mut().zip(&arows) {
            let av = arow[p];
            for (o, &bv) in lanes.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    for (mi, lanes) in acc.iter().enumerate() {
        let obase = (i0 + mi) * n + j0;
        out[obase..obase + NN_NR].copy_from_slice(lanes);
    }
}

/// Batched affine map `out[i][r] = (Σ_p rows[i][p]·w[r,p]) + bias[r]` —
/// one dot product per (sample, output) pair, bias added **after** the
/// sum, exactly [`crate::ops::affine_row`]'s order.
///
/// `w` is the row-major `[m, k]` weight buffer with `m = bias.len()`;
/// `out` is `[rows.len(), m]` row-major. This is the dense-layer / head
/// shape: both operands are traversed along `k`, so the portable body
/// wins through instruction-level parallelism (16 independent
/// accumulators), not lane vectorization — see the [module docs](self).
///
/// # Panics
///
/// Panics when a buffer length disagrees with the shapes (callers
/// pre-validate; this guards the indexing below).
pub fn gemm_nt(
    kernel: GemmKernel,
    k: usize,
    rows: &[&[f32]],
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let m = bias.len();
    assert_eq!(w.len(), m * k, "gemm_nt: w must be [m={m}, k={k}]");
    assert_eq!(
        out.len(),
        rows.len() * m,
        "gemm_nt: out must be [rows={}, m={m}]",
        rows.len()
    );
    for row in rows {
        assert_eq!(row.len(), k, "gemm_nt: every row must have k={k} entries");
    }
    if kernel == GemmKernel::Simd && simd::available() {
        // SAFETY: AVX2 confirmed at runtime; the asserts above are
        // `gemm_nt_avx2`'s shape contract (`w = [m,k]`, every row of length
        // `k`, `out = [rows.len(), m]`).
        #[cfg(target_arch = "x86_64")]
        unsafe {
            simd::gemm_nt_avx2(k, rows, w, bias, out)
        };
    } else {
        gemm_nt_portable(k, rows, w, bias, out)
    }
}

/// The portable body: up to 4 samples × 4 outputs of dot-product
/// accumulators advance through `k` together; ragged tails shrink the
/// tile, never the per-element order. Both tile dimensions are dispatched
/// to a const-generic microkernel so all 16 accumulators stay in
/// registers.
fn gemm_nt_portable(k: usize, rows: &[&[f32]], w: &[f32], bias: &[f32], out: &mut [f32]) {
    let mut i0 = 0;
    while i0 < rows.len() {
        let mr = NT_MR.min(rows.len() - i0);
        match mr {
            4 => nt_row_block::<4>(i0, k, rows, w, bias, out),
            3 => nt_row_block::<3>(i0, k, rows, w, bias, out),
            2 => nt_row_block::<2>(i0, k, rows, w, bias, out),
            _ => nt_row_block::<1>(i0, k, rows, w, bias, out),
        }
        i0 += mr;
    }
}

/// All `m` outputs of the `MR` samples starting at `i0`, in 4-wide output
/// tiles with a narrower tail.
#[inline]
fn nt_row_block<const MR: usize>(
    i0: usize,
    k: usize,
    rows: &[&[f32]],
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let m = bias.len();
    let xr: [&[f32]; MR] = std::array::from_fn(|mi| &rows[i0 + mi][..k]);
    let mut r0 = 0;
    while r0 < m {
        let nr = NT_NR.min(m - r0);
        match nr {
            4 => nt_microkernel::<MR, 4>(i0, r0, k, &xr, w, bias, out),
            3 => nt_microkernel::<MR, 3>(i0, r0, k, &xr, w, bias, out),
            2 => nt_microkernel::<MR, 2>(i0, r0, k, &xr, w, bias, out),
            _ => nt_microkernel::<MR, 1>(i0, r0, k, &xr, w, bias, out),
        }
        r0 += nr;
    }
}

/// One `MR×NR` tile of (sample, output) dot products: `MR·NR` independent
/// accumulators advance through `k` together — per element the sum is
/// still a single sequential chain from zero, bias added last, exactly
/// [`crate::ops::affine_row`]'s order.
#[inline]
fn nt_microkernel<const MR: usize, const NR: usize>(
    i0: usize,
    r0: usize,
    k: usize,
    xr: &[&[f32]; MR],
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let m = bias.len();
    let wr: [&[f32]; NR] = std::array::from_fn(|ni| &w[(r0 + ni) * k..(r0 + ni) * k + k]);
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        for (lanes, xrow) in acc.iter_mut().zip(xr) {
            let xv = xrow[p];
            for (o, wrow) in lanes.iter_mut().zip(&wr) {
                *o += xv * wrow[p];
            }
        }
    }
    for (mi, lanes) in acc.iter().enumerate() {
        let obase = (i0 + mi) * m + r0;
        for (ni, &v) in lanes.iter().enumerate() {
            out[obase + ni] = v + bias[r0 + ni];
        }
    }
}

/// Explicit AVX2 microkernels for [`GemmKernel::Simd`] — see the module
/// docs for the lane layout and the mul+add (not FMA) bit-exactness
/// argument.
#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};

    use super::NN_MR;

    /// Lane width of one `__m256` vector of f32.
    const LANES: usize = 8;
    /// Samples advanced together per packed weight block in
    /// [`gemm_nt_avx2`] — each reuses the same packed load of 8 weights.
    const NT_SIMD_MR: usize = 4;

    static FORCE_FALLBACK: AtomicBool = AtomicBool::new(false);

    thread_local! {
        /// Interleaved `[k × 8]` weight pack reused across [`gemm_nt_avx2`]
        /// calls, so steady-state batched inference stays allocation-free.
        static NT_PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn force_fallback(on: bool) {
        FORCE_FALLBACK.store(on, Ordering::SeqCst);
    }

    pub(super) fn available() -> bool {
        !FORCE_FALLBACK.load(Ordering::SeqCst) && is_x86_feature_detected!("avx2")
    }

    /// AVX2 `gemm_nn`: up to 6 rows × 16 columns per tile — two `__m256`
    /// accumulators per row (12 + 2 loaded `b` vectors + 1 broadcast = 15
    /// of the 16 ymm registers), so each broadcast of `a[i,p]` is reused
    /// across 16 lanes. Ragged `n` tails run an 8-wide tile and then the
    /// identical scalar order; ragged `m` tails shrink `MR`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and the `gemm_nn` shape
    /// invariants (`a = [m,k]`, `b = [k,n]`, `bias = [m]`, `out = [m,n]`).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemm_nn_avx2(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let mut i0 = 0;
        while i0 < m {
            let mr = NN_MR.min(m - i0);
            // SAFETY: AVX2 and the shapes are this function's own contract;
            // `i0 + mr <= m` by the `min`.
            match mr {
                6 => nn_rows_avx2::<6>(i0, k, n, a, b, bias, out),
                5 => nn_rows_avx2::<5>(i0, k, n, a, b, bias, out),
                4 => nn_rows_avx2::<4>(i0, k, n, a, b, bias, out),
                3 => nn_rows_avx2::<3>(i0, k, n, a, b, bias, out),
                2 => nn_rows_avx2::<2>(i0, k, n, a, b, bias, out),
                _ => nn_rows_avx2::<1>(i0, k, n, a, b, bias, out),
            }
            i0 += mr;
        }
    }

    /// All `n` columns of the `MR` rows starting at `i0`: 16-wide
    /// double-vector tiles, an 8-wide tile on the remainder, then the same
    /// scalar column tail as the portable body. Every lane everywhere owns
    /// one output element's full sequential k-chain.
    ///
    /// # Safety
    ///
    /// As [`gemm_nn_avx2`], plus `i0 + MR <= m`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn nn_rows_avx2<const MR: usize>(
        i0: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let bp = b.as_ptr();
        let n_wide = n - n % (2 * LANES);
        let n_main = n - n % LANES;
        let mut j0 = 0;
        // SAFETY (every load, `get_unchecked` and store below): a vector
        // access at column `j0` touches `j0..j0 + 8` (`+ 16` in the wide
        // tile) with `j0 + 8 <= n_main <= n` (`j0 + 16 <= n_wide <= n`), in
        // row `p < k` of `b = [k, n]` or row `i0 + mi < m` of `out = [m, n]`;
        // `a` is read at `(i0 + mi)·k + p < m·k`.
        while j0 < n_wide {
            // each lane owns out[i0+mi][j0+lane]: seeded with the row
            // bias, then one mul+add per p — the scalar chain, 16
            // elements at a time, one broadcast of a[i,p] per row shared
            // by both halves
            let mut lo: [__m256; MR] = std::array::from_fn(|mi| _mm256_set1_ps(bias[i0 + mi]));
            let mut hi: [__m256; MR] = std::array::from_fn(|mi| _mm256_set1_ps(bias[i0 + mi]));
            for p in 0..k {
                let bv0 = _mm256_loadu_ps(bp.add(p * n + j0));
                let bv1 = _mm256_loadu_ps(bp.add(p * n + j0 + LANES));
                for mi in 0..MR {
                    let av = _mm256_set1_ps(*a.get_unchecked((i0 + mi) * k + p));
                    lo[mi] = _mm256_add_ps(lo[mi], _mm256_mul_ps(av, bv0));
                    hi[mi] = _mm256_add_ps(hi[mi], _mm256_mul_ps(av, bv1));
                }
            }
            for mi in 0..MR {
                let obase = (i0 + mi) * n + j0;
                _mm256_storeu_ps(out.as_mut_ptr().add(obase), lo[mi]);
                _mm256_storeu_ps(out.as_mut_ptr().add(obase + LANES), hi[mi]);
            }
            j0 += 2 * LANES;
        }
        while j0 < n_main {
            // one 8-wide tile on the 8..=15-column remainder
            let mut acc: [__m256; MR] = std::array::from_fn(|mi| _mm256_set1_ps(bias[i0 + mi]));
            for p in 0..k {
                let bv = _mm256_loadu_ps(bp.add(p * n + j0));
                for (mi, lanes) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_ps(*a.get_unchecked((i0 + mi) * k + p));
                    *lanes = _mm256_add_ps(*lanes, _mm256_mul_ps(av, bv));
                }
            }
            for (mi, lanes) in acc.iter().enumerate() {
                _mm256_storeu_ps(out.as_mut_ptr().add((i0 + mi) * n + j0), *lanes);
            }
            j0 += LANES;
        }
        // column tail (n % 8 columns): scalar, bias first then p ascending
        for mi in 0..MR {
            let i = i0 + mi;
            let arow = &a[i * k..(i + 1) * k];
            for j in n_main..n {
                let mut acc = bias[i];
                for (p, &av) in arow.iter().enumerate() {
                    acc += av * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
    }

    /// AVX2 `gemm_nt`: each 8-output-feature block is packed once into an
    /// interleaved `[k × 8]` buffer (lanes past `m` zero-padded), then up
    /// to [`NT_SIMD_MR`] samples advance through `k` together, reusing
    /// every packed load. Per element the sum is a single sequential chain
    /// from zero with the bias added last — `affine_row`'s exact order.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and the `gemm_nt` shape
    /// invariants (`w = [m,k]` with `m = bias.len()`, every row of length
    /// `k`, `out = [rows.len(), m]`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_nt_avx2(
        k: usize,
        rows: &[&[f32]],
        w: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let m = bias.len();
        NT_PACK.with(|cell| {
            let mut pack = cell.borrow_mut();
            pack.resize(k * LANES, 0.0);
            let mut r0 = 0;
            while r0 < m {
                let nr = LANES.min(m - r0);
                for lane in 0..LANES {
                    if lane < nr {
                        let wrow = &w[(r0 + lane) * k..(r0 + lane) * k + k];
                        for (p, &wv) in wrow.iter().enumerate() {
                            pack[p * LANES + lane] = wv;
                        }
                    } else {
                        // padded lanes compute garbage dot products that
                        // are never stored; zero keeps them finite
                        for p in 0..k {
                            pack[p * LANES + lane] = 0.0;
                        }
                    }
                }
                let mut i0 = 0;
                while i0 < rows.len() {
                    let mr = NT_SIMD_MR.min(rows.len() - i0);
                    // SAFETY: AVX2 and the shapes are this function's own
                    // contract; `pack` was just sized to `k·8`, `nr <= 8`,
                    // `r0 + nr <= m` and `i0 + mr <= rows.len()`.
                    match mr {
                        4 => nt_samples_avx2::<4>(i0, r0, nr, k, rows, &pack, bias, out),
                        3 => nt_samples_avx2::<3>(i0, r0, nr, k, rows, &pack, bias, out),
                        2 => nt_samples_avx2::<2>(i0, r0, nr, k, rows, &pack, bias, out),
                        _ => nt_samples_avx2::<1>(i0, r0, nr, k, rows, &pack, bias, out),
                    }
                    i0 += mr;
                }
                r0 += nr;
            }
        });
    }

    /// `MR` samples × one packed 8-feature block: `MR` accumulator vectors
    /// advance through `k` together, every step one packed load shared by
    /// all samples plus one broadcast per sample.
    ///
    /// # Safety
    ///
    /// As [`gemm_nt_avx2`], plus `pack.len() == k·8`, `nr <= 8`,
    /// `r0 + nr <= m` and `i0 + MR <= rows.len()`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn nt_samples_avx2<const MR: usize>(
        i0: usize,
        r0: usize,
        nr: usize,
        k: usize,
        rows: &[&[f32]],
        pack: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let m = bias.len();
        let xr: [&[f32]; MR] = std::array::from_fn(|mi| rows[i0 + mi]);
        let mut acc: [__m256; MR] = [_mm256_setzero_ps(); MR];
        let pp = pack.as_ptr();
        for p in 0..k {
            // SAFETY: `p·8 + 8 <= k·8 = pack.len()`, and every row has `k`
            // entries, so `p` indexes it.
            let wv = _mm256_loadu_ps(pp.add(p * LANES));
            for (lanes, xrow) in acc.iter_mut().zip(&xr) {
                let xv = _mm256_set1_ps(*xrow.get_unchecked(p));
                *lanes = _mm256_add_ps(*lanes, _mm256_mul_ps(xv, wv));
            }
        }
        for (mi, lanes) in acc.iter().enumerate() {
            let mut tmp = [0.0f32; LANES];
            // SAFETY: `tmp` is exactly one vector of 8 f32.
            _mm256_storeu_ps(tmp.as_mut_ptr(), *lanes);
            let obase = (i0 + mi) * m + r0;
            for (ni, &v) in tmp.iter().take(nr).enumerate() {
                out[obase + ni] = v + bias[r0 + ni];
            }
        }
    }

    /// Output channels advanced together per fused-conv tile — each input
    /// load is reused by this many weight broadcasts.
    const CONV_OC: usize = 3;

    // the bound `conv2d_direct_simd` asserts is the one `ow - LANES` needs
    const _: () = assert!(super::DIRECT_MIN_OW >= LANES);

    /// Fused direct convolution: lanes are contiguous output-x positions
    /// (whose receptive fields are contiguous in the input row), so every
    /// tap is one broadcast of `w[oc, c, ky, kx]` against contiguous
    /// unaligned loads of the input — no patch matrix, no copy-out.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and the conv shape
    /// invariants (`input = [c_in, h, w]`, `weights = [c_out, c_in, kh,
    /// kw]`, `bias = [c_out]`, `out = [c_out, oh, ow]` with the valid
    /// geometry `oh = h - kh + 1`, `ow = w - kw + 1`, `ow >= 8`).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn conv2d_direct_avx2(
        input: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        weights: &[f32],
        kh: usize,
        kw: usize,
        bias: &[f32],
        out: &mut [f32],
        oh: usize,
        ow: usize,
        c_out: usize,
    ) {
        let mut oc0 = 0;
        while oc0 < c_out {
            let ocr = CONV_OC.min(c_out - oc0);
            // SAFETY: AVX2 and the shape invariants are this function's own
            // contract, passed through unchanged; `oc0 + ocr <= c_out`.
            match ocr {
                3 => conv_oc_block_avx2::<3>(
                    oc0, input, c_in, h, w, weights, kh, kw, bias, out, oh, ow,
                ),
                2 => conv_oc_block_avx2::<2>(
                    oc0, input, c_in, h, w, weights, kh, kw, bias, out, oh, ow,
                ),
                _ => conv_oc_block_avx2::<1>(
                    oc0, input, c_in, h, w, weights, kh, kw, bias, out, oh, ow,
                ),
            }
            oc0 += ocr;
        }
    }

    /// The whole `[oh, ow]` output plane of the `OC` channels starting at
    /// `oc0`, as a walk over **vector positions**: a row of `ow >= 8`
    /// columns is covered by `ceil(ow / 8)` 8-lane vectors at `ox = 0, 8,
    /// …` with the last one placed at `ow − 8`, where it overlaps its
    /// neighbour and recomputes up to 7 columns. The positions of the plane
    /// are taken in row-major order two at a time — a pair may straddle a
    /// row end — so every [`conv_tile_avx2`] call but possibly the last
    /// runs `2 × OC` independent add chains.
    ///
    /// The overlap is bit-safe: a lane's value depends only on which output
    /// element it owns (see [`conv_tile_avx2`]), so a cell stored twice
    /// receives the same bits twice — which is what lets a full vector
    /// stand in for a scalar loop over the `ow % 8` ragged columns.
    ///
    /// # Safety
    ///
    /// As [`conv2d_direct_avx2`], plus `oc0 + OC <= c_out`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn conv_oc_block_avx2<const OC: usize>(
        oc0: usize,
        input: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        weights: &[f32],
        kh: usize,
        kw: usize,
        bias: &[f32],
        out: &mut [f32],
        oh: usize,
        ow: usize,
    ) {
        let per_row = ow.div_ceil(LANES);
        // `(input offset, output offset)` within a plane of the `q`-th
        // position; `ox + 8 <= ow` because `ow >= 8`
        let (mut oy, mut v) = (0, 0);
        let mut next = || {
            let ox = (v * LANES).min(ow - LANES);
            let at = (oy * w + ox, oy * ow + ox);
            v += 1;
            if v == per_row {
                (oy, v) = (oy + 1, 0);
            }
            at
        };
        let positions = oh * per_row;
        // SAFETY (both calls): every position handed over has `oy < oh` and
        // `ox <= ow - 8`, which with this function's contract is the whole
        // of `conv_tile_avx2`'s.
        for _ in 0..positions / 2 {
            let at = [next(), next()];
            conv_tile_avx2::<OC, 2>(
                oc0, at, input, c_in, h, w, weights, kh, kw, bias, out, oh, ow,
            );
        }
        if positions % 2 == 1 {
            let at = [next()];
            conv_tile_avx2::<OC, 1>(
                oc0, at, input, c_in, h, w, weights, kh, kw, bias, out, oh, ow,
            );
        }
    }

    /// The one conv tile: `NV` vector positions × `OC` output channels,
    /// `NV·OC` accumulators (≤ 6) + `NV` input vectors + 1 broadcast inside
    /// the 16 ymm registers. Each lane owns one output element and runs its
    /// chain alone — bias first, then the taps in `(c, ky, kx)` ascending
    /// order, a separate mul and add per tap — which is the im2col
    /// patch-row order, hence bit-parity with [`super::gemm_nn`] on the
    /// lowered form and with [`crate::conv::conv2d_valid`].
    ///
    /// Larger tiles and a const-generic kernel size were tried and dropped
    /// (module docs).
    ///
    /// # Safety
    ///
    /// As [`conv2d_direct_avx2`], plus `oc0 + OC <= c_out` and, for each
    /// `(input offset, output offset)` in `at`, `input offset = oy·w + ox`
    /// and `output offset = oy·ow + ox` with `oy < oh` and `ox + 8 <= ow`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn conv_tile_avx2<const OC: usize, const NV: usize>(
        oc0: usize,
        at: [(usize, usize); NV],
        input: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        weights: &[f32],
        kh: usize,
        kw: usize,
        bias: &[f32],
        out: &mut [f32],
        oh: usize,
        ow: usize,
    ) {
        let (ip, wp, op) = (input.as_ptr(), weights.as_ptr(), out.as_mut_ptr());
        let ktaps = c_in * kh * kw;
        // acc[o][p]: output channel `oc0 + o` at position `at[p]`
        let mut acc: [[__m256; NV]; OC] =
            std::array::from_fn(|o| [_mm256_set1_ps(bias[oc0 + o]); NV]);
        for c in 0..c_in {
            for ky in 0..kh {
                let irow = c * h * w + ky * w;
                let wrow = oc0 * ktaps + (c * kh + ky) * kw;
                for kx in 0..kw {
                    // SAFETY: the highest index any load reads is
                    // (c_in−1)·h·w + (oh−1 + kh−1)·w + (ow−8) + (kw−1) + 7
                    // = c_in·h·w − 1 (valid geometry: oh + kh − 1 = h,
                    // ow + kw − 1 = w), the last element of `input`.
                    let iv: [__m256; NV] =
                        std::array::from_fn(|p| _mm256_loadu_ps(ip.add(irow + at[p].0 + kx)));
                    for (o, chains) in acc.iter_mut().enumerate() {
                        // SAFETY: (oc0 + o)·ktaps + tap with oc0 + o < c_out
                        // and tap < ktaps is inside `weights = [c_out, ktaps]`.
                        let wv = _mm256_set1_ps(*wp.add(wrow + o * ktaps + kx));
                        for (chain, &x) in chains.iter_mut().zip(&iv) {
                            *chain = _mm256_add_ps(*chain, _mm256_mul_ps(wv, x));
                        }
                    }
                }
            }
        }
        for (o, chains) in acc.iter().enumerate() {
            for (&chain, &(_, ooff)) in chains.iter().zip(&at) {
                // SAFETY: the highest index stored is (oc0+OC−1)·oh·ow +
                // (oh−1)·ow + (ow−8) + 7 <= c_out·oh·ow − 1, the last
                // element of `out`.
                _mm256_storeu_ps(op.add((oc0 + o) * oh * ow + ooff), chain);
            }
        }
    }
}

/// Narrowest output map [`conv2d_direct_simd`] takes: one full 8-lane
/// vector of output columns (the overlapped last vector sits at `ow − 8`).
pub(crate) const DIRECT_MIN_OW: usize = 8;

/// Crate-internal entry for the fused direct convolution of the
/// [`GemmKernel::Simd`] arm: convolves one `[c_in, h, w]` image straight
/// from its feature maps (no im2col materialization), writing every cell
/// of the `[c_out, oh, ow]` output. Whether it applies — AVX2 host, `ow >=`
/// [`DIRECT_MIN_OW`] — is the caller's question to ask *before* calling
/// (`im2col::BatchGeometry::direct_applies`); narrower maps take the
/// im2col + [`gemm_nn`] path.
///
/// Bit-exactness: each output lane accumulates `bias` first, then the
/// taps in channel-major `(c, ky, kx)` ascending order with separate
/// mul+add — exactly the im2col patch-row order that [`gemm_nn`] sums, so
/// fused and lowered results are identical to the last bit (pinned by the
/// conv parity suites, which iterate both arms).
///
/// # Panics
///
/// Panics when a buffer length disagrees with the geometry, when the
/// geometry is not the valid one (`oh = h − kh + 1`, `ow = w − kw + 1`),
/// when `ow <` [`DIRECT_MIN_OW`], or when the CPU has no AVX2 — these
/// are the invariants the unchecked loads and stores of the microkernel
/// rely on, so they are checked in release builds too.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_direct_simd(
    input: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    weights: &[f32],
    c_out: usize,
    kh: usize,
    kw: usize,
    bias: &[f32],
    out: &mut [f32],
    oh: usize,
    ow: usize,
) {
    assert_eq!(input.len(), c_in * h * w);
    assert_eq!(weights.len(), c_out * c_in * kh * kw);
    assert_eq!(bias.len(), c_out);
    assert_eq!(out.len(), c_out * oh * ow);
    assert!(h + 1 == oh + kh && w + 1 == ow + kw);
    assert!(ow >= DIRECT_MIN_OW, "direct conv needs ow >= 8, got {ow}");
    #[cfg(target_arch = "x86_64")]
    {
        // the CPU itself, not `simd::available()`: the forced-fallback test
        // hook only steers callers away, it cannot make the kernel unsound
        assert!(is_x86_feature_detected!("avx2"), "direct conv needs AVX2");
        // SAFETY: AVX2 confirmed on this CPU, and the asserts above are
        // exactly the shape invariants `conv2d_direct_avx2` documents: every
        // buffer has its geometry's length, the geometry is the valid one,
        // and `ow >= 8` keeps the overlapped position `ow − 8` in range.
        unsafe {
            simd::conv2d_direct_avx2(input, c_in, h, w, weights, kh, kw, bias, out, oh, ow, c_out);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("the direct conv kernel exists on x86_64 only; `GemmKernel::simd_available()` is false here");
}

/// Non-x86 stand-in: the `Simd` arm always runs the portable bodies.
#[cfg(not(target_arch = "x86_64"))]
mod simd {
    pub(super) fn force_fallback(_on: bool) {}

    pub(super) fn available() -> bool {
        false
    }
}

/// Serializes this crate's tests that read *and* those that flip the
/// process-global forced-fallback flag — a flip between two reads in a
/// concurrently running detection test would fail it spuriously (result
/// bits are flip-immune; only detection itself is not) — and releases the
/// hook when dropped, even on panic.
#[cfg(test)]
pub(crate) struct DetectionGuard {
    _lock: std::sync::MutexGuard<'static, ()>,
}

#[cfg(test)]
impl DetectionGuard {
    pub(crate) fn lock() -> Self {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // the flag is restored by `drop` before the lock is released, so a
        // holder that panicked left nothing half-done behind the poison
        DetectionGuard {
            _lock: LOCK
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
impl Drop for DetectionGuard {
    fn drop(&mut self) {
        force_simd_fallback(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_valid;
    use crate::im2col::{conv2d_valid_batch, ConvScratch};
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn fill(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.random_range(-2.0..2.0)).collect()
    }

    /// The specification of the nn (bias-first) shape as a naive triple
    /// loop: bias first, then `p` ascending.
    fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], bias: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = bias[i];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    /// The specification of the nt (bias-last) shape:
    /// [`crate::ops::affine_row`] per sample.
    fn naive_nt(k: usize, rows: &[&[f32]], w: &[f32], bias: &[f32]) -> Vec<f32> {
        let m = bias.len();
        let mut out = vec![0.0f32; rows.len() * m];
        for (i, row) in rows.iter().enumerate() {
            crate::ops::affine_row(row, w, k, bias, &mut out[i * m..(i + 1) * m]);
        }
        out
    }

    #[test]
    fn nn_kernels_bit_identical_across_shapes() {
        let mut rng = StdRng::seed_from_u64(41);
        // deliberately ragged shapes: tile tails in m and n, k = 0,
        // single row / column, and the exact 4×8 tile
        for (m, k, n) in [
            (1usize, 1usize, 1usize),
            (4, 5, 8),
            (6, 25, 147),
            (5, 3, 9),
            (3, 0, 7),
            (1, 12, 31),
            (12, 150, 1),
            (7, 7, 7),
        ] {
            let a = fill(&mut rng, m * k);
            let b = fill(&mut rng, k * n);
            let bias = fill(&mut rng, m);
            let expected = naive_nn(m, k, n, &a, &b, &bias);
            for kernel in GemmKernel::ALL {
                let mut out = vec![f32::NAN; m * n];
                gemm_nn(kernel, m, k, n, &a, &b, &bias, &mut out);
                for (got, want) in out.iter().zip(&expected) {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{kernel:?} nn mismatch at ({m},{k},{n})"
                    );
                }
            }
        }
    }

    #[test]
    fn nt_kernels_bit_identical_across_shapes() {
        let mut rng = StdRng::seed_from_u64(43);
        for (rows_n, m, k) in [
            (1usize, 1usize, 1usize),
            (4, 4, 9),
            (5, 10, 864),
            (9, 3, 17),
            (2, 6, 0),
            (1, 13, 5),
            (16, 1, 12),
        ] {
            let samples: Vec<Vec<f32>> = (0..rows_n).map(|_| fill(&mut rng, k)).collect();
            let rows: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
            let w = fill(&mut rng, m * k);
            let bias = fill(&mut rng, m);
            let expected = naive_nt(k, &rows, &w, &bias);
            for kernel in GemmKernel::ALL {
                let mut out = vec![f32::NAN; rows_n * m];
                gemm_nt(kernel, k, &rows, &w, &bias, &mut out);
                for (got, want) in out.iter().zip(&expected) {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{kernel:?} nt mismatch at ({rows_n},{m},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_k_is_pure_bias() {
        for kernel in GemmKernel::ALL {
            let mut out = vec![9.0f32; 6];
            gemm_nn(kernel, 2, 0, 3, &[], &[], &[1.5, -0.5], &mut out);
            assert_eq!(out, [1.5, 1.5, 1.5, -0.5, -0.5, -0.5]);
            let mut out = vec![9.0f32; 4];
            let rows: Vec<&[f32]> = vec![&[], &[]];
            gemm_nt(kernel, 0, &rows, &[], &[0.25, -1.0], &mut out);
            assert_eq!(out, [0.25, -1.0, 0.25, -1.0]);
        }
    }

    #[test]
    fn empty_row_set_writes_nothing() {
        for kernel in GemmKernel::ALL {
            let mut out = Vec::new();
            gemm_nt(kernel, 3, &[], &[0.0; 6], &[0.0, 0.0], &mut out);
            assert!(out.is_empty());
            gemm_nn(kernel, 0, 3, 4, &[], &[0.0; 12], &[], &mut out);
        }
    }

    #[test]
    fn known_values_match_hand_computation() {
        // A = [[1,2],[3,4]], B = [[5,6,7],[8,9,10]], bias = [0.5, -0.5]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        for kernel in GemmKernel::ALL {
            let mut out = [0.0f32; 6];
            gemm_nn(kernel, 2, 2, 3, &a, &b, &[0.5, -0.5], &mut out);
            assert_eq!(out, [21.5, 24.5, 27.5, 46.5, 53.5, 60.5]);
        }
        // rows·Wᵀ + bias with W = A: row [1,1] → [1+2+0.5, 3+4-0.5]
        for kernel in GemmKernel::ALL {
            let row: &[f32] = &[1.0, 1.0];
            let mut out = [0.0f32; 2];
            gemm_nt(kernel, 2, &[row], &a, &[0.5, -0.5], &mut out);
            assert_eq!(out, [3.5, 6.5]);
        }
    }

    #[test]
    fn validates_buffer_shapes() {
        let r = std::panic::catch_unwind(|| {
            let mut out = vec![0.0f32; 4];
            gemm_nn(
                GemmKernel::Reference,
                2,
                2,
                2,
                &[0.0; 3],
                &[0.0; 4],
                &[0.0; 2],
                &mut out,
            );
        });
        assert!(r.is_err(), "short a must panic");
        let r = std::panic::catch_unwind(|| {
            let row: &[f32] = &[0.0; 3];
            let mut out = vec![0.0f32; 2];
            gemm_nt(
                GemmKernel::Reference,
                2,
                &[row],
                &[0.0; 4],
                &[0.0; 2],
                &mut out,
            );
        });
        assert!(r.is_err(), "wrong row length must panic");
    }

    #[test]
    fn detect_matches_host_support() {
        let _guard = DetectionGuard::lock();
        if GemmKernel::simd_available() {
            assert_eq!(GemmKernel::detect(), GemmKernel::Simd);
        } else {
            assert_eq!(GemmKernel::detect(), GemmKernel::Reference);
        }
        assert_eq!(GemmKernel::default(), GemmKernel::detect());
    }

    /// The `Simd` arm on a host (or build) without AVX2 must silently run
    /// the portable bodies of `Reference` with identical results —
    /// exercised here through the forced-fallback hook, on shapes with
    /// ragged tails in every dimension. The guard restores the real
    /// dispatch even on panic.
    #[test]
    fn simd_forced_fallback_is_bit_identical_to_reference() {
        let _guard = DetectionGuard::lock();
        let mut rng = StdRng::seed_from_u64(77);
        let (m, k, n) = (7usize, 13usize, 29usize);
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n);
        let bias = fill(&mut rng, m);
        let mut portable = vec![f32::NAN; m * n];
        gemm_nn(GemmKernel::Reference, m, k, n, &a, &b, &bias, &mut portable);

        force_simd_fallback(true);
        assert!(!GemmKernel::simd_available());
        assert_eq!(GemmKernel::detect(), GemmKernel::Reference);
        let mut forced = vec![f32::NAN; m * n];
        gemm_nn(GemmKernel::Simd, m, k, n, &a, &b, &bias, &mut forced);
        for (got, want) in forced.iter().zip(&portable) {
            assert_eq!(got.to_bits(), want.to_bits(), "forced-fallback nn");
        }

        let samples: Vec<Vec<f32>> = (0..5).map(|_| fill(&mut rng, k)).collect();
        let rows: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
        let w = fill(&mut rng, m * k);
        let mut portable_nt = vec![f32::NAN; rows.len() * m];
        gemm_nt(GemmKernel::Reference, k, &rows, &w, &bias, &mut portable_nt);
        let mut forced_nt = vec![f32::NAN; rows.len() * m];
        gemm_nt(GemmKernel::Simd, k, &rows, &w, &bias, &mut forced_nt);
        for (got, want) in forced_nt.iter().zip(&portable_nt) {
            assert_eq!(got.to_bits(), want.to_bits(), "forced-fallback nt");
        }

        // the conv entry under the hook: 3C's C1 and C2 geometries leave
        // the direct kernel for the lowering and keep their bits
        for (c_in, c_out, k, side) in [(1usize, 3usize, 3usize, 28usize), (3, 6, 4, 13)] {
            let mut tensor = |dims: &[usize]| {
                Tensor::from_vec(fill(&mut rng, dims.iter().product()), dims).unwrap()
            };
            let xs = [tensor(&[c_in, side, side])];
            let kernels = tensor(&[c_out, c_in, k, k]);
            let cbias = tensor(&[c_out]).into_vec();
            let oracle = conv2d_valid(&xs[0], &kernels, &cbias).unwrap();
            let mut scratch = ConvScratch::default();
            for forced in [false, true] {
                force_simd_fallback(forced);
                let got = conv2d_valid_batch(&xs, &kernels, &cbias, &mut scratch, GemmKernel::Simd)
                    .unwrap();
                for (g, want) in got[0].data().iter().zip(oracle.data()) {
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "conv, fallback forced: {forced}"
                    );
                }
            }
        }
        force_simd_fallback(false);
        // with the hook released, detection is back to the host truth
        assert_eq!(
            GemmKernel::simd_available(),
            GemmKernel::detect() == GemmKernel::Simd
        );
    }

    /// SIMD-specific shape torture: n exactly one vector, n just past a
    /// vector boundary, n under one vector, and a head-shaped nt (m = 10 →
    /// one 8-lane block + a 2-lane tail) — both arms bit-identical to the
    /// naive loops.
    #[test]
    fn simd_tail_shapes_match_reference() {
        let mut rng = StdRng::seed_from_u64(99);
        for (m, k, n) in [
            (3usize, 11usize, 8usize),
            (6, 25, 9),
            (2, 4, 7),
            (13, 3, 40),
            (1, 30, 17),
        ] {
            let a = fill(&mut rng, m * k);
            let b = fill(&mut rng, k * n);
            let bias = fill(&mut rng, m);
            let expected = naive_nn(m, k, n, &a, &b, &bias);
            for kernel in GemmKernel::ALL {
                let mut out = vec![f32::NAN; m * n];
                gemm_nn(kernel, m, k, n, &a, &b, &bias, &mut out);
                for (got, want) in out.iter().zip(&expected) {
                    assert_eq!(got.to_bits(), want.to_bits(), "{kernel:?} at ({m},{k},{n})");
                }
            }
        }
        for (rows_n, m, k) in [
            (6usize, 10usize, 84usize),
            (3, 8, 5),
            (5, 17, 12),
            (1, 2, 9),
        ] {
            let samples: Vec<Vec<f32>> = (0..rows_n).map(|_| fill(&mut rng, k)).collect();
            let rows: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
            let w = fill(&mut rng, m * k);
            let bias = fill(&mut rng, m);
            let expected = naive_nt(k, &rows, &w, &bias);
            for kernel in GemmKernel::ALL {
                let mut out = vec![f32::NAN; rows_n * m];
                gemm_nt(kernel, k, &rows, &w, &bias, &mut out);
                for (got, want) in out.iter().zip(&expected) {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{kernel:?} at ({rows_n},{m},{k})"
                    );
                }
            }
        }
    }

    /// An ordinary value most of the time; otherwise (one draw in `rate`)
    /// one of the values that break a careless kernel: signed zeros, exact
    /// ties, magnitudes whose products and sums saturate, subnormals, ±inf
    /// and NaN.
    fn edge_fill(rng: &mut StdRng, len: usize, rate: u32) -> Vec<f32> {
        const EDGES: [f32; 14] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            -0.5,
            f32::MAX,
            f32::MIN,
            1.0e38,
            -1.0e38,
            f32::MIN_POSITIVE / 4.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        (0..len)
            .map(|_| {
                if rng.random_range(0..rate) == 0 {
                    EDGES[rng.random_range(0..EDGES.len())]
                } else {
                    rng.random_range(-2.0..2.0)
                }
            })
            .collect()
    }

    /// The direct AVX2 kernel against the oracle [`conv2d_valid`], bit for
    /// bit (a NaN only has to be a NaN in the same cell), for every output
    /// width from one vector to five — every overlap `ow % 8` of the last
    /// vector — crossed with output heights that make the position count
    /// odd or even and let a pair of positions straddle a row end, every
    /// channel-block remainder, and kernels from 1×1 to 5×5. The output
    /// buffer starts as a sentinel no arithmetic on these inputs produces,
    /// so a cell the tiles skipped shows.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn direct_conv_matches_oracle_for_every_width() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let sentinel = f32::from_bits(0x7fc0_dead);
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for ow in 8usize..=40 {
            for oh in [1usize, 2, 5, 8] {
                for c_out in 1usize..=7 {
                    for k in 1usize..=5 {
                        for c_in in 1usize..=3 {
                            let (h, w) = (oh + k - 1, ow + k - 1);
                            // clean, sparse and dense edge values in turn
                            let rate = [u32::MAX, 64, 6][(ow + oh + c_out + k + c_in) % 3];
                            let x = edge_fill(&mut rng, c_in * h * w, rate);
                            let kernels = edge_fill(&mut rng, c_out * c_in * k * k, rate);
                            let bias = edge_fill(&mut rng, c_out, rate);
                            let mut out = vec![sentinel; c_out * oh * ow];
                            conv2d_direct_simd(
                                &x, c_in, h, w, &kernels, c_out, k, k, &bias, &mut out, oh, ow,
                            );
                            let oracle = conv2d_valid(
                                &Tensor::from_vec(x, &[c_in, h, w]).unwrap(),
                                &Tensor::from_vec(kernels, &[c_out, c_in, k, k]).unwrap(),
                                &bias,
                            )
                            .unwrap();
                            for (i, (got, want)) in out.iter().zip(oracle.data()).enumerate() {
                                let at = format!(
                                    "cell {i} of ow={ow} oh={oh} c_out={c_out} k={k} c_in={c_in}"
                                );
                                assert_ne!(got.to_bits(), sentinel.to_bits(), "unwritten {at}");
                                assert!(
                                    got.to_bits() == want.to_bits()
                                        || (got.is_nan() && want.is_nan()),
                                    "{at}: {got:e} ({:#x}) vs {want:e} ({:#x})",
                                    got.to_bits(),
                                    want.to_bits()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The shape checks in front of the unchecked loads and stores: a map
    /// narrower than a vector (the overlapped position `ow − 8` would
    /// underflow), a geometry that is not the valid one, a short buffer.
    #[test]
    fn direct_conv_rejects_what_its_unsafe_code_cannot_take() {
        let run = |input: usize, h: usize, w: usize, out: usize, oh: usize, ow: usize| {
            std::panic::catch_unwind(|| {
                let mut o = vec![0.0f32; out];
                conv2d_direct_simd(
                    &vec![0.0; input],
                    1,
                    h,
                    w,
                    &[0.0; 4],
                    1,
                    2,
                    2,
                    &[0.0],
                    &mut o,
                    oh,
                    ow,
                );
            })
        };
        assert!(run(8 * 8, 8, 8, 7 * 7, 7, 7).is_err(), "ow = 7");
        assert!(run(9 * 9, 9, 9, 8 * 9, 8, 9).is_err(), "ow != w - kw + 1");
        assert!(run(9 * 9 - 1, 9, 9, 8 * 8, 8, 8).is_err(), "short input");
        assert!(run(9 * 9, 9, 9, 8 * 8 - 1, 8, 8).is_err(), "short output");
    }
}
