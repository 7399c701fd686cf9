//! Register-blocked GEMM microkernels and the AVX2 convolution kernels —
//! the shared inner engine of the batched hot paths
//! ([`crate::im2col::conv2d_pool_block`] and
//! [`crate::ops::affine_rows_into`]) — chosen by the host.
//!
//! # Two arms, and why there is an enum at all
//!
//! Every batched evaluator in this workspace promises results that are
//! **bit-identical** to the per-image path, and which loop runs is a
//! property of the host, not of a configuration: [`GemmKernel::Simd`] runs
//! the explicit AVX2 bodies where the CPU has AVX2 and the portable bodies
//! everywhere else. The enum exists so that an AVX2 host can still be made
//! to run the portable bodies — [`GemmKernel::Reference`] is that arm, and
//! the parity suites iterate [`GemmKernel::ALL`] so both are driven on
//! every run. The specification both are held to is not in this module: it
//! is the naive triple loops of the test modules,
//! [`crate::ops::affine_row`] and [`crate::conv::conv2d_valid`]. A future
//! arm (NEON, AVX-512) is a new body behind `Simd` that must reproduce them
//! bit for bit before it is timed.
//!
//! What each arm runs:
//!
//! | shape | `Reference` (and `Simd` without AVX2) | `Simd` on an AVX2 host |
//! |---|---|---|
//! | batched affine ([`gemm_nt_rows`]) | portable 4×4 tiles | packed-weight AVX2 body |
//! | convolution | im2col lowering + [`gemm_nn`] | the x8 kernel (`conv2d_x8`) and the direct kernel (`conv2d_direct_simd`) — nothing is lowered |
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
//!   step — `m·k` passes over memory versus one per tile here. It has no
//!   AVX2 body: the lowering it multiplies for is the portable arm's only.
//! * [`gemm_nt_rows`] (`out = rows·Wᵀ + bias`, the batched dense/head
//!   shape) uses 4×4 tiles: 16 independent dot-product accumulators advance
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
//! element the accumulation stays exactly the specified order (`gemm_nn`
//! and the conv kernels: bias first, then `p = 0..k` ascending; `gemm_nt`:
//! `p = 0..k` ascending from zero, bias added last). Tails — `m` or `n` not
//! divisible by the tile — fall back to narrower blocks or scalar loops
//! with the same per-element order, so parity holds for every shape,
//! including `k = 0` (pure bias). The parity proptests in
//! `crates/tensor/tests/proptests.rs` pin both arms against a naive triple
//! loop bit for bit.
//!
//! # The AVX2 bodies: lane layout, and why mul+add instead of FMA
//!
//! [`GemmKernel::Simd`] re-expresses the design in explicit
//! `core::arch::x86_64` AVX2 intrinsics, 8 f32 lanes per `__m256` vector.
//! The crucial layout decision is **which dimension becomes the lanes**,
//! and the rule is the same in all three bodies: **each lane owns exactly
//! one output element** and accumulates *its own* k-loop sequentially —
//! `p = 0, 1, 2, …` in program order, one addition per step, exactly like
//! the scalar chain. Lanes never cooperate on an element, so no horizontal
//! reduction (and no reassociated addition tree) ever touches an
//! accumulator. That is what keeps the AVX2 bodies **bit-identical**:
//! vectorizing across independent elements is pure repartitioning;
//! vectorizing *within* an element's dot product would split its addition
//! chain into per-lane partial sums and change the rounding sequence.
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
//! Per body:
//!
//! * `gemm_nt`: the 8 lanes are 8 *output features*, whose weight rows are
//!   `k`-strided in the row-major `[m, k]` buffer — a gather per step if
//!   read in place. Instead each 8-feature block is **packed once** into
//!   an interleaved `[k × 8]` scratch (`pack[p·8 + lane] = w[r0+lane, p]`,
//!   zero-padded lanes past `m`), turning every k-step into one contiguous
//!   load + one broadcast of `x[p]`, amortized over all samples in the
//!   batch. Up to 4 samples advance together to reuse each packed load.
//!   The pack buffer is a thread-local `Vec` reused across calls, so the
//!   steady-state no-allocation promise of the batched paths holds.
//! * **Direct convolution, lanes across a row** (`conv2d_direct_simd`):
//!   one image at a time, straight from its feature maps. Lanes are
//!   contiguous output-x positions, whose receptive fields are contiguous
//!   spans of the input rows, so every tap is one weight broadcast against
//!   contiguous input loads; there is no patch matrix. The output plane is
//!   covered by **vector positions**: a row of `ow ≥ 8` columns takes
//!   `ceil(ow/8)` vectors at `ox = 0, 8, …` with the last one placed at
//!   `ow − 8`, so a width that is not a multiple of 8 costs one more full
//!   vector (up to 7 columns computed twice) instead of a scalar column
//!   tail. The positions of the whole `[oh, ow]` plane are walked in order
//!   and taken two at a time, across a row end too, and three output
//!   channels share each input load: every tile is 2 vectors × 3 channels
//!   = 6 independent add chains (the odd last position runs 1 × 3), which
//!   is what hides the latency of the dependent adds. Bit-exactness: each
//!   lane owns exactly one output element and accumulates bias first, then
//!   taps in channel-major `(c, ky, kx)` ascending order with separate mul
//!   and add, so its bits depend only on which element it owns, and a cell
//!   stored by two overlapping vectors receives the same bits twice.
//!   Requires `ow ≥ 8` (checked, not assumed: `ow − 8` would underflow).
//!   Tried and dropped: 4 vectors × 3 channels (12 accumulators spill —
//!   slower than 2 × 3 throughout), a const-generic kernel size (no gain),
//!   and with them a packed weight layout: the per-tap broadcasts are L1
//!   hits already.
//! * **The x8 convolution, lanes across images** (`conv2d_x8`): the
//!   direct kernel wastes the lanes a row cannot fill — 6 of 16 on 3C's
//!   10-wide C2 maps — and cannot run at all below 8 columns (3C's 3×3 C3,
//!   which used to pay for a batch-wide im2col + GEMM at 0.12 of the
//!   roofline). With the batch travelling as one block, eight images are
//!   adjacent, so the lanes can be **eight images' copies of one output
//!   cell**: every lane is always full, whatever the map's width. A block
//!   of eight rows is transposed (8×8 shuffles) into an interleaved
//!   `[c_in, h, w, 8]` scratch, where a tap of all eight images is one
//!   load; tiles of 2 cells × 3 channels (6 chains, the same register
//!   budget as above; the odd last cell runs 1 × 3) walk the `window` conv
//!   rows under one pooled row into an L1-resident strip; the strip is
//!   max-pooled with an ordered `>` compare + blend per lane — the scalar
//!   scan's rule exactly: the first cell seeds, a later one replaces only
//!   when strictly greater, a NaN that is not first is skipped — the pooled
//!   vectors are activated as one slice and transposed back into the
//!   output rows. **Why padding is exact**: a short block's missing lanes
//!   are zeros that compute some finite-or-not value of their own; lanes
//!   never interact (no horizontal operation anywhere in the kernel), so a
//!   real lane's chain is the chain it would run in any company, and the
//!   transpose back writes only the lanes that exist.
//!
//! # Which convolution kernel runs
//!
//! One pure function of the geometry and the batch size,
//! `im2col::BatchGeometry::x8_images` (tested as a table), no knob. On the
//! `Simd` arm of an AVX2 host: every **full** block of eight images takes
//! the x8 kernel unless `ow % 8 == 0`; the `n % 8` remainder takes the
//! direct kernel per image when `ow ≥ 8` and one zero-padded x8 block when
//! `ow < 8`. The numbers behind each clause (fused `conv → pool → sigmoid`
//! per image including the pack, n = 256, this repository's 2-vCPU
//! reference box): 3C's C3 (ow = 3) 1040 → 285 ns (×3.6 over the
//! lowering), C2 (ow = 10) 2150 → 1350–1430 ns (×1.5–1.8 over the direct
//! kernel), C1 (ow = 26) 1800 → 1556 ns (×1.16); 2C's C1 (ow = 24)
//! ×1.07–1.13 and C2 (ow = 8) ×0.89–1.08 — the direct kernel's lanes are
//! already full there, hence the `ow % 8` clause. A zero-padded block does
//! eight images' work for fewer and loses to the direct kernel below about
//! six images (n = 4: ×0.58–0.71; n = 1: ×0.14–0.20), hence the remainder
//! rule; where there is no direct kernel to lose to it still beats the
//! lowering at four images (×2.4) and costs a lone image ×0.70 — about
//! +0.6 µs for a batch of one reaching 3C's last stage, the one stated
//! cost of the rule. **Struck: x8 for every `n`** — simpler by one clause,
//! but it would put that ×0.14–0.20 on every unloaded request's first two
//! convolutions (a batch of one is the common case on an idle server).
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
//! steps if LeNet-scale feature maps are outgrown: the heads on the
//! interleaved block (lanes across images for `gemm_nt`), an AVX-512 body,
//! and a packed/L2-blocked operand layout.

use crate::im2col::BatchGeometry;
use crate::rows::Rows;

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
    /// Explicit AVX2 intrinsics, 8 f32 lanes each owning one output
    /// element — a column, a feature, or an image's copy of a cell (see the
    /// [module docs](self)) — where the host has AVX2; the portable bodies
    /// of [`GemmKernel::Reference`] everywhere else.
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
/// `b` the batch patch matrix, `bias` one value per output channel. It has
/// one body, the portable 6×8 tiles — the lowering it multiplies for is the
/// portable arm's only (an AVX2 host convolves from the feature maps, see
/// the [module docs](self)), so there is no kernel to choose. 6×8 output
/// tiles accumulate in registers across the whole `k` loop — bias first,
/// then `p` ascending, per element; `m`/`n` tails fall back to narrower
/// blocks and scalar columns with the same per-element order. The row-block
/// height is dispatched to a const-generic microkernel so the compiler
/// fully unrolls the tile and keeps every accumulator in a register.
///
/// # Panics
///
/// Panics when a buffer length disagrees with `m`/`k`/`n` (callers
/// pre-validate shapes; this guards the indexing below).
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], bias: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nn: a must be [m={m}, k={k}]");
    assert_eq!(b.len(), k * n, "gemm_nn: b must be [k={k}, n={n}]");
    assert_eq!(bias.len(), m, "gemm_nn: bias must have m={m} entries");
    assert_eq!(out.len(), m * n, "gemm_nn: out must be [m={m}, n={n}]");
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
/// The rows are read where they lie ([`Rows`]): the caller's tensors, or a
/// contiguous block of an evaluator's arena.
///
/// # Panics
///
/// Panics when a buffer length disagrees with the shapes (callers
/// pre-validate; this guards the indexing below).
pub fn gemm_nt_rows(
    kernel: GemmKernel,
    k: usize,
    rows: Rows<'_>,
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
    assert!(
        rows.all_have_width(k),
        "gemm_nt: every row must have k={k} entries"
    );
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

/// [`gemm_nt_rows`] over one slice per row.
///
/// # Panics
///
/// As [`gemm_nt_rows`].
pub fn gemm_nt(
    kernel: GemmKernel,
    k: usize,
    rows: &[&[f32]],
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    gemm_nt_rows(kernel, k, Rows::Slices(rows), w, bias, out)
}

/// The portable body: up to 4 samples × 4 outputs of dot-product
/// accumulators advance through `k` together; ragged tails shrink the
/// tile, never the per-element order. Both tile dimensions are dispatched
/// to a const-generic microkernel so all 16 accumulators stay in
/// registers.
fn gemm_nt_portable(k: usize, rows: Rows<'_>, w: &[f32], bias: &[f32], out: &mut [f32]) {
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
    rows: Rows<'_>,
    w: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let m = bias.len();
    let xr: [&[f32]; MR] = std::array::from_fn(|mi| &rows.row(i0 + mi)[..k]);
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
        __m256, _mm256_add_ps, _mm256_blendv_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_permute2f128_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_shuffle_ps,
        _mm256_storeu_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps, _CMP_GT_OQ,
    };
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};

    use crate::im2col::BatchGeometry;
    use crate::rows::Rows;

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
        rows: Rows<'_>,
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
        rows: Rows<'_>,
        pack: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let m = bias.len();
        let xr: [&[f32]; MR] = std::array::from_fn(|mi| rows.row(i0 + mi));
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

    /// Transposes an 8×8 block of f32 held as eight row vectors: lane `c`
    /// of output `r` is lane `r` of input `c`. An involution, so the pack
    /// (rows → interleaved) and the unpack (interleaved → rows) are the
    /// same shuffle network.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }

    /// Column offsets of the 8×8 transposes that cover `f ≥ 8` columns:
    /// `0, 8, …` and, when `f` is not a multiple of 8, one last block placed
    /// at `f − 8` that overlaps its neighbour (its cells are moved twice,
    /// to the same places).
    fn transpose_blocks(f: usize) -> impl Iterator<Item = usize> {
        (0..f.div_ceil(LANES)).map(move |b| (b * LANES).min(f - LANES))
    }

    /// Packs up to eight rows of `f` values into the interleaved `[f, 8]`
    /// layout of the x8 kernel: `out[j·8 + lane] = rows[lane][j]`, lanes
    /// past `rows.len()` zero.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `rows.len() <= 8`, every row has exactly
    /// `f` values and `out.len() >= f·8`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack_x8(rows: &[&[f32]], f: usize, out: &mut [f32]) {
        if f < LANES {
            for j in 0..f {
                for lane in 0..LANES {
                    out[j * LANES + lane] = rows.get(lane).map_or(0.0, |row| row[j]);
                }
            }
            return;
        }
        let op = out.as_mut_ptr();
        for j0 in transpose_blocks(f) {
            // SAFETY: `j0 + 8 <= f` (`transpose_blocks`), so the load reads
            // `row[j0..j0 + 8]` of a row of `f` values.
            let v: [__m256; 8] = std::array::from_fn(|lane| match rows.get(lane) {
                Some(row) => _mm256_loadu_ps(row.as_ptr().add(j0)),
                None => _mm256_setzero_ps(),
            });
            for (t, col) in transpose8(v).into_iter().enumerate() {
                // SAFETY: the highest index stored is (f − 8 + 7)·8 + 7 =
                // f·8 − 1 < out.len().
                _mm256_storeu_ps(op.add((j0 + t) * LANES), col);
            }
        }
    }

    /// The inverse of [`pack_x8`] for the first `count` lanes: row `r` of
    /// the contiguous `[count, f]` block `dst` receives lane `r` of every
    /// cell of the interleaved `[f, 8]` buffer `src`. Lanes `count..8` (the
    /// padding of a short block) are dropped, so nothing is written past
    /// row `count − 1`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `count <= 8`, `src.len() >= f·8` and
    /// `dst.len() == count·f`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_x8(src: &[f32], f: usize, count: usize, dst: &mut [f32]) {
        if f < LANES {
            for r in 0..count {
                for j in 0..f {
                    dst[r * f + j] = src[j * LANES + r];
                }
            }
            return;
        }
        let (sp, dp) = (src.as_ptr(), dst.as_mut_ptr());
        for j0 in transpose_blocks(f) {
            // SAFETY: the highest index read is (f − 8 + 7)·8 + 7 = f·8 − 1
            // < src.len().
            let v: [__m256; 8] = std::array::from_fn(|t| _mm256_loadu_ps(sp.add((j0 + t) * LANES)));
            for (r, row) in transpose8(v).into_iter().take(count).enumerate() {
                // SAFETY: `r < count` and `j0 + 8 <= f`, so the highest
                // index stored is (count − 1)·f + f − 1 = dst.len() − 1.
                _mm256_storeu_ps(dp.add(r * f + j0), row);
            }
        }
    }

    /// The x8 convolution: eight images to a vector. `packed` is the
    /// interleaved `[c_in, h, w, 8]` input of one block of eight images,
    /// `pooled` receives the interleaved `[c_out, oh/window, ow/window, 8]`
    /// **max-pooled raw** maps (the caller activates and unpacks them), and
    /// `strip` holds the `window` conv rows under one pooled row for up to
    /// [`CONV_OC`] channels, `[CONV_OC, window·ow, 8]`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; `g` is a valid geometry (`oh = h − kh +
    /// 1`, `ow = w − kw + 1`, every extent `≥ 1`) that `window ≥ 1` tiles;
    /// `packed.len() >= c_in·h·w·8`, `weights.len() == c_out·c_in·kh·kw`,
    /// `bias.len() == c_out`, `strip.len() >= 3·window·ow·8` and
    /// `pooled.len() >= c_out·(oh/window)·(ow/window)·8`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn conv_pool_x8(
        g: &BatchGeometry,
        packed: &[f32],
        weights: &[f32],
        bias: &[f32],
        window: usize,
        strip: &mut [f32],
        pooled: &mut [f32],
    ) {
        let mut oc0 = 0;
        while oc0 < g.c_out {
            let ocr = CONV_OC.min(g.c_out - oc0);
            // SAFETY: this function's own contract, passed through
            // unchanged; `oc0 + ocr <= c_out`.
            match ocr {
                3 => x8_oc_block::<3>(oc0, g, packed, weights, bias, window, strip, pooled),
                2 => x8_oc_block::<2>(oc0, g, packed, weights, bias, window, strip, pooled),
                _ => x8_oc_block::<1>(oc0, g, packed, weights, bias, window, strip, pooled),
            }
            oc0 += ocr;
        }
    }

    /// Every pooled row of the `OC` channels starting at `oc0`: the
    /// `window·ow` conv cells under it are computed into `strip` two at a
    /// time in row-major order (a pair may straddle a row end; an odd count
    /// leaves one single-cell tile) — with `window = 1` straight into
    /// `pooled`, and that is all — then each window is scanned out of the
    /// strip the way [`crate::pool`] scans it — row-major from its first
    /// cell, a later cell replacing the running best only when **strictly
    /// greater** under an ordered compare, per lane — so ties and `-0.0` /
    /// `+0.0` keep the earlier cell, a NaN in first position wins and a
    /// later NaN is skipped, exactly as in the scalar scan.
    ///
    /// # Safety
    ///
    /// As [`conv_pool_x8`], plus `oc0 + OC <= c_out`.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn x8_oc_block<const OC: usize>(
        oc0: usize,
        g: &BatchGeometry,
        packed: &[f32],
        weights: &[f32],
        bias: &[f32],
        window: usize,
        strip: &mut [f32],
        pooled: &mut [f32],
    ) {
        let (ph, pw) = (g.oh / window, g.ow / window);
        let cells = window * g.ow;
        let (sp, pp) = (strip.as_mut_ptr(), pooled.as_mut_ptr());
        for py in 0..ph {
            // `(input cell, strip cell)` of the strip's next position
            let (mut oy, mut ox, mut q) = (py * window, 0, 0);
            let mut next = || {
                let at = (oy * g.w + ox, q);
                q += 1;
                ox += 1;
                if ox == g.ow {
                    (oy, ox) = (oy + 1, 0);
                }
                at
            };
            // where the tiles store: the strip — or, under the identity
            // pool, where a strip row *is* a pooled row, the maps themselves
            let (out, stride) = match window {
                // SAFETY: `oc0 + OC <= c_out` and `py < ph`, so the offset
                // is inside `pooled` (and so is every store: see `x8_tile`).
                1 => (pp.add((oc0 * ph * pw + py * pw) * LANES), ph * pw),
                _ => (sp, cells),
            };
            // SAFETY (both calls): every position handed over has
            // `oy < (py + 1)·window <= oh`, `ox < ow` and `q < cells`; `out`
            // is valid for `((OC − 1)·stride + cells)·8` values — the strip
            // holds `3·cells·8`, and with `window = 1` the highest index is
            // ((oc0 + OC − 1)·oh·ow + py·ow + ow − 1)·8 + 7 <=
            // c_out·oh·ow·8 − 1 of `pooled` — which with this function's
            // contract is the whole of `x8_tile`'s.
            for _ in 0..cells / 2 {
                let at = [next(), next()];
                x8_tile::<OC, 2>(oc0, at, g, packed, weights, bias, out, stride);
            }
            if cells % 2 == 1 {
                let at = [next()];
                x8_tile::<OC, 1>(oc0, at, g, packed, weights, bias, out, stride);
            }
            if window == 1 {
                continue;
            }
            for o in 0..OC {
                for px in 0..pw {
                    // SAFETY: the highest strip index read is
                    // ((OC − 1)·cells + (pw − 1)·window + (window − 1)·ow +
                    // window − 1)·8 + 7 = OC·cells·8 − 1 <= 3·window·ow·8 − 1
                    // (every cell of which the tiles above just stored); the
                    // highest pooled index stored is ((oc0 + OC − 1)·ph·pw +
                    // (ph − 1)·pw + pw − 1)·8 + 7 <= c_out·ph·pw·8 − 1.
                    let first = sp.add((o * cells + px * window) * LANES);
                    let mut best = _mm256_loadu_ps(first);
                    for wy in 0..window {
                        for wx in 0..window {
                            let x = _mm256_loadu_ps(first.add((wy * g.ow + wx) * LANES));
                            let greater = _mm256_cmp_ps::<_CMP_GT_OQ>(x, best);
                            best = _mm256_blendv_ps(best, x, greater);
                        }
                    }
                    let cell = ((oc0 + o) * ph + py) * pw + px;
                    _mm256_storeu_ps(pp.add(cell * LANES), best);
                }
            }
        }
    }

    /// One x8 tile: `NC` output cells × `OC` output channels, each
    /// accumulator vector holding **eight images' copies of one cell** —
    /// `NC·OC` chains (≤ 6) + `NC` input vectors + 1 broadcast inside the
    /// 16 ymm registers. A lane runs its image's chain alone: bias first,
    /// then the taps in `(c, ky, kx)` ascending order, a separate mul and
    /// add per tap — [`crate::conv::conv2d_valid`]'s order, so the bits are
    /// the oracle's whatever shares the vector (another image, or the zeros
    /// of a padded lane). Every tap is one load, whatever `ow`: the eight
    /// images' values of an input cell are adjacent.
    ///
    /// # Safety
    ///
    /// As [`conv_pool_x8`], plus `oc0 + OC <= c_out` and, for each `(input
    /// cell, output cell)` in `at`, `input cell = oy·w + ox` with `oy < oh`,
    /// `ox < ow`, and `out` valid for `((OC − 1)·stride + output cell + 1)·8`
    /// values (channel `o`'s cells start at `o·stride`).
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn x8_tile<const OC: usize, const NC: usize>(
        oc0: usize,
        at: [(usize, usize); NC],
        g: &BatchGeometry,
        packed: &[f32],
        weights: &[f32],
        bias: &[f32],
        out: *mut f32,
        stride: usize,
    ) {
        let (ip, wp) = (packed.as_ptr(), weights.as_ptr());
        let ktaps = g.c_in * g.kh * g.kw;
        // acc[o][p]: output channel `oc0 + o` at cell `at[p]`
        let mut acc: [[__m256; NC]; OC] =
            std::array::from_fn(|o| [_mm256_set1_ps(bias[oc0 + o]); NC]);
        for c in 0..g.c_in {
            for ky in 0..g.kh {
                let irow = (c * g.h + ky) * g.w;
                let wrow = oc0 * ktaps + (c * g.kh + ky) * g.kw;
                for kx in 0..g.kw {
                    // SAFETY: the highest index any load reads is
                    // ((c_in−1)·h·w + (oh−1 + kh−1)·w + (ow−1) + (kw−1))·8 + 7
                    // = c_in·h·w·8 − 1 (valid geometry: oh + kh − 1 = h,
                    // ow + kw − 1 = w), inside `packed`.
                    let iv: [__m256; NC] = std::array::from_fn(|p| {
                        _mm256_loadu_ps(ip.add((irow + at[p].0 + kx) * LANES))
                    });
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
            for (&chain, &(_, cell)) in chains.iter().zip(&at) {
                // SAFETY: ((OC−1)·stride + cell)·8 + 7 is inside `out` by
                // this function's contract.
                _mm256_storeu_ps(out.add((o * stride + cell) * LANES), chain);
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
/// (`im2col::BatchGeometry::x8_images` leaves it the images the x8 kernel
/// does not take); narrower maps are [`conv2d_x8`]'s.
///
/// Bit-exactness: each output lane accumulates `bias` first, then the
/// taps in channel-major `(c, ky, kx)` ascending order with separate
/// mul+add — exactly the im2col patch-row order that [`gemm_nn`] sums, so
/// direct and lowered results are identical to the last bit (pinned by the
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

/// Reusable buffers of [`conv2d_x8`], grown on first use and kept.
#[derive(Debug, Default, Clone)]
pub(crate) struct X8Scratch {
    /// One block's interleaved input, `[c_in, h, w, 8]`.
    packed: Vec<f32>,
    /// The conv rows under one pooled row, `[3, window·ow, 8]`.
    strip: Vec<f32>,
    /// One block's interleaved pooled output, `[c_out, oh/window,
    /// ow/window, 8]`.
    pooled: Vec<f32>,
}

impl X8Scratch {
    /// Values the three buffers can hold without growing.
    pub(crate) fn capacity(&self) -> usize {
        self.packed.capacity() + self.strip.capacity() + self.pooled.capacity()
    }
}

/// Grows `buf` to at least `len` values; never shrinks it, so a smaller
/// batch or geometry after a larger one touches no allocator.
pub(crate) fn grow(buf: &mut Vec<f32>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Crate-internal entry for the lanes-across-images convolution of the
/// [`GemmKernel::Simd`] arm: one block of `count <= 8` images (`src` rows
/// `first .. first + count`, each `[c_in, h, w]`) through `conv →
/// max-pool(window) → activation`, written to the `count` rows of `dst`
/// (`[count, c_out·(oh/window)·(ow/window)]`). The rows are transposed into
/// an interleaved `[c_in, h, w, 8]` scratch (a short block's missing lanes
/// are zeros), convolved and pooled with each lane owning one image's copy
/// of one cell, activated as one slice, and transposed back — only the
/// first `count` lanes, so a padded lane's values go nowhere. Whether it
/// applies is the caller's question (`im2col::BatchGeometry::x8_images`).
///
/// Bit-exactness: a lane accumulates `bias` first, then the taps in
/// `(c, ky, kx)` ascending order with separate mul + add — the oracle's
/// chain; the pool keeps the scalar scan's rule per lane; `activation` is
/// elementwise. Lanes never interact, so what a lane computes does not
/// depend on its neighbours — which is why zero padding is exact.
///
/// # Panics
///
/// Panics when `count` is not in `1..=8` or runs past `src`, when a row or
/// buffer length disagrees with the geometry, when the geometry is not the
/// valid one or `window` does not tile it, or when the CPU has no AVX2 —
/// the invariants the unchecked loads and stores rely on, checked in
/// release builds too, before the first of them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_x8(
    g: &BatchGeometry,
    src: Rows<'_>,
    first: usize,
    count: usize,
    weights: &[f32],
    bias: &[f32],
    window: usize,
    activation: &dyn Fn(&mut [f32]),
    scratch: &mut X8Scratch,
    dst: &mut [f32],
) {
    assert!((1..=8).contains(&count) && first + count <= src.len());
    assert!(g.c_in >= 1 && g.c_out >= 1 && g.kh >= 1 && g.kw >= 1 && g.oh >= 1 && g.ow >= 1);
    assert!(g.h + 1 == g.oh + g.kh && g.w + 1 == g.ow + g.kw);
    assert!(window >= 1 && g.oh.is_multiple_of(window) && g.ow.is_multiple_of(window));
    assert_eq!(weights.len(), g.c_out * g.c_in * g.kh * g.kw);
    assert_eq!(bias.len(), g.c_out);
    let f_in = g.c_in * g.h * g.w;
    let f_out = g.c_out * (g.oh / window) * (g.ow / window);
    let mut rows: [&[f32]; 8] = [&[]; 8];
    for (r, row) in rows.iter_mut().take(count).enumerate() {
        *row = src.row(first + r);
        assert_eq!(
            row.len(),
            f_in,
            "x8 conv: image {} is not [c_in, h, w]",
            first + r
        );
    }
    assert_eq!(dst.len(), count * f_out);
    grow(&mut scratch.packed, f_in * 8);
    grow(&mut scratch.strip, 3 * window * g.ow * 8);
    grow(&mut scratch.pooled, f_out * 8);
    #[cfg(target_arch = "x86_64")]
    {
        // the CPU itself, not `simd::available()`: the forced-fallback test
        // hook only steers callers away, it cannot make the kernel unsound
        assert!(is_x86_feature_detected!("avx2"), "x8 conv needs AVX2");
        // SAFETY: AVX2 confirmed on this CPU. `pack_x8`: `count <= 8` rows of
        // exactly `f_in` values into `packed` (>= f_in·8, highest index
        // stored f_in·8 − 1). `conv_pool_x8`: the asserts above are its
        // geometry, window and buffer contract (highest index read
        // c_in·h·w·8 − 1 of `packed`, highest stored f_out·8 − 1 of
        // `pooled`, 3·window·ow·8 − 1 of `strip`).
        unsafe {
            simd::pack_x8(&rows[..count], f_in, &mut scratch.packed);
            simd::conv_pool_x8(
                g,
                &scratch.packed,
                weights,
                bias,
                window,
                &mut scratch.strip,
                &mut scratch.pooled,
            );
        }
        activation(&mut scratch.pooled[..f_out * 8]);
        // SAFETY: AVX2 as above; `pooled` holds f_out·8 values (highest
        // index read f_out·8 − 1) and `dst` is exactly `count·f_out`
        // (highest index stored count·f_out − 1), `count <= 8`.
        unsafe { simd::unpack_x8(&scratch.pooled, f_out, count, dst) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = activation;
        unreachable!("the x8 conv kernel exists on x86_64 only; `GemmKernel::simd_available()` is false here");
    }
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
    fn nn_bit_identical_across_shapes() {
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
            let mut out = vec![f32::NAN; m * n];
            gemm_nn(m, k, n, &a, &b, &bias, &mut out);
            for (got, want) in out.iter().zip(&expected) {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "nn mismatch at ({m},{k},{n})"
                );
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
        let mut out = vec![9.0f32; 6];
        gemm_nn(2, 0, 3, &[], &[], &[1.5, -0.5], &mut out);
        assert_eq!(out, [1.5, 1.5, 1.5, -0.5, -0.5, -0.5]);
        for kernel in GemmKernel::ALL {
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
        }
        gemm_nn(0, 3, 4, &[], &[0.0; 12], &[], &mut Vec::new());
    }

    #[test]
    fn known_values_match_hand_computation() {
        // A = [[1,2],[3,4]], B = [[5,6,7],[8,9,10]], bias = [0.5, -0.5]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let mut out = [0.0f32; 6];
        gemm_nn(2, 2, 3, &a, &b, &[0.5, -0.5], &mut out);
        assert_eq!(out, [21.5, 24.5, 27.5, 46.5, 53.5, 60.5]);
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
            gemm_nn(2, 2, 2, &[0.0; 3], &[0.0; 4], &[0.0; 2], &mut out);
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
        let (m, k) = (7usize, 13usize);
        let bias = fill(&mut rng, m);

        force_simd_fallback(true);
        assert!(!GemmKernel::simd_available());
        assert_eq!(GemmKernel::detect(), GemmKernel::Reference);

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

        // the conv entry under the hook: nine images of 3C's C1 and C2
        // geometries (one x8 block and one direct image) and of its C3 (a
        // full and a padded x8 block) leave both kernels for the lowering
        // and keep their bits
        for (c_in, c_out, k, side) in [
            (1usize, 3usize, 3usize, 28usize),
            (3, 6, 4, 13),
            (6, 9, 3, 5),
        ] {
            let mut tensor = |dims: &[usize]| {
                Tensor::from_vec(fill(&mut rng, dims.iter().product()), dims).unwrap()
            };
            let xs: Vec<Tensor> = (0..9).map(|_| tensor(&[c_in, side, side])).collect();
            let kernels = tensor(&[c_out, c_in, k, k]);
            let cbias = tensor(&[c_out]).into_vec();
            let mut scratch = ConvScratch::default();
            for forced in [false, true] {
                force_simd_fallback(forced);
                let got = conv2d_valid_batch(&xs, &kernels, &cbias, &mut scratch, GemmKernel::Simd)
                    .unwrap();
                for (x, got) in xs.iter().zip(&got) {
                    let oracle = conv2d_valid(x, &kernels, &cbias).unwrap();
                    for (g, want) in got.data().iter().zip(oracle.data()) {
                        assert_eq!(
                            g.to_bits(),
                            want.to_bits(),
                            "conv, fallback forced: {forced}"
                        );
                    }
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
            let mut out = vec![f32::NAN; m * n];
            gemm_nn(m, k, n, &a, &b, &bias, &mut out);
            for (got, want) in out.iter().zip(&expected) {
                assert_eq!(got.to_bits(), want.to_bits(), "nn at ({m},{k},{n})");
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

    /// `conv → activation → max-pool(window)` of one image, layer by layer
    /// on tensors: what every fused kernel is held to.
    fn staged_oracle(
        x: &Tensor,
        kernels: &Tensor,
        bias: &[f32],
        sigmoid: bool,
        window: usize,
    ) -> Tensor {
        let mut maps = conv2d_valid(x, kernels, bias).unwrap();
        if sigmoid {
            maps = maps.map(crate::math::sigmoid);
        }
        crate::pool::maxpool2d_forward(&maps, window).unwrap()
    }

    /// All of `xs` through [`conv2d_x8`] in blocks of eight, the last one
    /// short, into a block that starts as `sentinel` and is followed by a
    /// guard row no call is handed.
    #[allow(clippy::too_many_arguments)]
    fn run_x8(
        g: &BatchGeometry,
        xs: &[Tensor],
        kernels: &[f32],
        bias: &[f32],
        window: usize,
        sigmoid: bool,
        scratch: &mut X8Scratch,
        sentinel: f32,
    ) -> Vec<f32> {
        let f_out = g.c_out * (g.oh / window) * (g.ow / window);
        let mut out = vec![sentinel; (xs.len() + 1) * f_out];
        let activation: &dyn Fn(&mut [f32]) = if sigmoid {
            &crate::math::sigmoid_slice
        } else {
            &|_| {}
        };
        for first in (0..xs.len()).step_by(8) {
            let count = (xs.len() - first).min(8);
            conv2d_x8(
                g,
                Rows::Tensors(xs),
                first,
                count,
                kernels,
                bias,
                window,
                activation,
                scratch,
                &mut out[first * f_out..(first + count) * f_out],
            );
        }
        out
    }

    /// The lanes-across-images kernel against the staged oracle, bit for
    /// bit (a NaN only has to be a NaN in the same cell): every output
    /// width from 1 to 40 crossed with heights, channel-block remainders,
    /// kernel sizes and input channels, each geometry at one batch size of
    /// 1..=17 (full blocks, a short last block, a lone padded block) and one
    /// of the windows {1, 2, 3} that tile it, alternately raw and through
    /// the sigmoid, on clean, sparse and dense edge values — so pool windows
    /// meet signed zeros, ties, NaN in first and in later position. The
    /// output starts as a sentinel no arithmetic produces, so an unwritten
    /// cell shows; the guard row behind it and each row's own oracle catch a
    /// padded lane leaking into a neighbour.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x8_conv_matches_oracle_for_every_shape() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let sentinel = f32::from_bits(0x7fc0_dead);
        let mut rng = StdRng::seed_from_u64(0x8C0DE);
        let mut scratch = X8Scratch::default();
        for ow in 1usize..=40 {
            for oh in [1usize, 2, 5] {
                for c_out in 1usize..=7 {
                    for k in 1usize..=5 {
                        for c_in in 1usize..=3 {
                            let mix = ow * 7 + oh * 3 + c_out * 5 + k * 11 + c_in * 13;
                            let n = 1 + mix % 17;
                            let windows: Vec<usize> = (1..=3)
                                .filter(|win| oh % win == 0 && ow % win == 0)
                                .collect();
                            let window = windows[(mix / 17) % windows.len()];
                            let sigmoid = (mix / 3) % 2 == 0;
                            let rate = [u32::MAX, 64, 6][mix % 3];
                            let (h, w) = (oh + k - 1, ow + k - 1);
                            let g = BatchGeometry {
                                c_in,
                                h,
                                w,
                                c_out,
                                kh: k,
                                kw: k,
                                oh,
                                ow,
                            };
                            let xs: Vec<Tensor> = (0..n)
                                .map(|_| {
                                    Tensor::from_vec(
                                        edge_fill(&mut rng, c_in * h * w, rate),
                                        &[c_in, h, w],
                                    )
                                    .unwrap()
                                })
                                .collect();
                            let kernels = Tensor::from_vec(
                                edge_fill(&mut rng, c_out * c_in * k * k, rate),
                                &[c_out, c_in, k, k],
                            )
                            .unwrap();
                            let bias = edge_fill(&mut rng, c_out, rate);
                            let out = run_x8(
                                &g,
                                &xs,
                                kernels.data(),
                                &bias,
                                window,
                                sigmoid,
                                &mut scratch,
                                sentinel,
                            );
                            let f_out = out.len() / (n + 1);
                            let what = format!(
                                "ow={ow} oh={oh} c_out={c_out} k={k} c_in={c_in} n={n} window={window} sigmoid={sigmoid}"
                            );
                            for (i, x) in xs.iter().enumerate() {
                                let oracle = staged_oracle(x, &kernels, &bias, sigmoid, window);
                                let row = &out[i * f_out..(i + 1) * f_out];
                                for (j, (got, want)) in row.iter().zip(oracle.data()).enumerate() {
                                    assert_ne!(
                                        got.to_bits(),
                                        sentinel.to_bits(),
                                        "unwritten cell {j} of image {i}, {what}"
                                    );
                                    assert!(
                                        got.to_bits() == want.to_bits()
                                            || (got.is_nan() && want.is_nan()),
                                        "cell {j} of image {i}, {what}: {got:e} ({:#x}) vs {want:e} ({:#x})",
                                        got.to_bits(),
                                        want.to_bits()
                                    );
                                }
                            }
                            assert!(
                                out[n * f_out..]
                                    .iter()
                                    .all(|v| v.to_bits() == sentinel.to_bits()),
                                "guard row written, {what}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The pool rule of the x8 kernel on windows built to tell it from its
    /// near misses, through an identity convolution (`k = 1`, weight 1, bias
    /// `-0.0`, which returns every `f32` unchanged): a NaN first wins, a NaN
    /// later is skipped, `-0.0` before `+0.0` stays `-0.0` and the other way
    /// round stays `+0.0` — a `>=` compare or an unordered one fails here.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x8_pool_keeps_the_first_of_ties_and_a_leading_nan() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let windows: [[f32; 4]; 6] = [
            [f32::NAN, 1.0, 2.0, 3.0],
            [1.0, f32::NAN, 0.5, f32::NAN],
            [-0.0, 0.0, -0.0, 0.0],
            [0.0, -0.0, 0.0, -0.0],
            [2.0, 2.0, 1.0, 2.0],
            [f32::NEG_INFINITY, -1.0, f32::INFINITY, f32::MAX],
        ];
        // image `i` holds window `(i + col) % 6` in its `col`-th 2×2 window
        // of a 2×12 map, so every lane sees every window
        let xs: Vec<Tensor> = (0..11)
            .map(|i| {
                let mut data = vec![0.0f32; 2 * 12];
                for col in 0..6 {
                    let win = windows[(i + col) % 6];
                    data[2 * col] = win[0];
                    data[2 * col + 1] = win[1];
                    data[12 + 2 * col] = win[2];
                    data[12 + 2 * col + 1] = win[3];
                }
                Tensor::from_vec(data, &[1, 2, 12]).unwrap()
            })
            .collect();
        let g = BatchGeometry {
            c_in: 1,
            h: 2,
            w: 12,
            c_out: 1,
            kh: 1,
            kw: 1,
            oh: 2,
            ow: 12,
        };
        let kernels = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap();
        let mut scratch = X8Scratch::default();
        let out = run_x8(
            &g,
            &xs,
            kernels.data(),
            &[-0.0],
            2,
            false,
            &mut scratch,
            7.0,
        );
        for (i, x) in xs.iter().enumerate() {
            let oracle = staged_oracle(x, &kernels, &[-0.0], false, 2);
            for (col, (got, want)) in out[i * 6..(i + 1) * 6]
                .iter()
                .zip(oracle.data())
                .enumerate()
            {
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "image {i} window {col}: {got:e} vs {want:e}"
                );
            }
        }
        // and the oracle itself says what the comment claims
        let first = staged_oracle(&xs[0], &kernels, &[-0.0], false, 2);
        assert!(first.data()[0].is_nan());
        assert_eq!(first.data()[1], 1.0);
        assert_eq!(first.data()[2].to_bits(), (-0.0f32).to_bits());
        assert_eq!(first.data()[3].to_bits(), 0.0f32.to_bits());
    }

    /// Pack and unpack are exact inverses on the lanes that exist, for every
    /// row length around the 8×8 transpose blocks (under one block, exact
    /// multiples, every overlap of the last block) and every block height:
    /// the packed layout is `[f, 8]` with zeroed padding lanes, and the
    /// unpack writes `count` rows and nothing behind them.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x8_pack_unpack_round_trip() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = StdRng::seed_from_u64(8);
        for f in 1usize..=70 {
            for count in 1usize..=8 {
                let data: Vec<Vec<f32>> = (0..count).map(|_| fill(&mut rng, f)).collect();
                let rows: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
                let mut packed = vec![f32::NAN; f * 8];
                // SAFETY: AVX2 checked above; `count <= 8` rows of `f`
                // values, `packed` holds `f·8`.
                unsafe { simd::pack_x8(&rows, f, &mut packed) };
                for j in 0..f {
                    for lane in 0..8 {
                        let want = data.get(lane).map_or(0.0, |row| row[j]);
                        assert_eq!(
                            packed[j * 8 + lane].to_bits(),
                            want.to_bits(),
                            "f={f} count={count} j={j} lane={lane}"
                        );
                    }
                }
                let mut back = vec![f32::NAN; (count + 1) * f];
                // SAFETY: AVX2 checked above; `packed` holds `f·8` values and
                // the destination is exactly `count·f`.
                unsafe { simd::unpack_x8(&packed, f, count, &mut back[..count * f]) };
                for (r, row) in data.iter().enumerate() {
                    assert_eq!(
                        &back[r * f..(r + 1) * f],
                        &row[..],
                        "f={f} count={count} row {r}"
                    );
                }
                assert!(
                    back[count * f..].iter().all(|v| v.is_nan()),
                    "wrote past row {count}"
                );
            }
        }
    }

    /// The checks in front of the x8 kernel's unchecked loads and stores: a
    /// block of zero or nine images, a block running past the batch, a row
    /// that is not `[c_in, h, w]`, a destination of the wrong size, a window
    /// that does not tile the maps, a geometry that is not the valid one.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x8_conv_rejects_what_its_unsafe_code_cannot_take() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let good = BatchGeometry {
            c_in: 1,
            h: 5,
            w: 5,
            c_out: 2,
            kh: 2,
            kw: 2,
            oh: 4,
            ow: 4,
        };
        let run = |g: BatchGeometry,
                   n: usize,
                   row: usize,
                   first: usize,
                   count: usize,
                   window: usize,
                   dst: usize| {
            std::panic::catch_unwind(move || {
                let xs: Vec<Vec<f32>> = (0..n).map(|_| vec![0.5; row]).collect();
                let rows: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
                let mut out = vec![0.0f32; dst];
                conv2d_x8(
                    &g,
                    Rows::Slices(&rows),
                    first,
                    count,
                    &[0.25; 8],
                    &[0.0; 2],
                    window,
                    &|_| {},
                    &mut X8Scratch::default(),
                    &mut out,
                );
            })
        };
        assert!(run(good, 9, 25, 0, 8, 2, 8 * 8).is_ok(), "the valid call");
        assert!(run(good, 9, 25, 8, 1, 1, 32).is_ok(), "a short block");
        assert!(run(good, 9, 25, 0, 0, 2, 0).is_err(), "empty block");
        assert!(run(good, 9, 25, 0, 9, 2, 9 * 8).is_err(), "nine images");
        assert!(
            run(good, 9, 25, 4, 8, 2, 8 * 8).is_err(),
            "block past the batch"
        );
        assert!(run(good, 9, 24, 0, 8, 2, 8 * 8).is_err(), "short row");
        assert!(
            run(good, 9, 25, 0, 8, 2, 8 * 8 - 1).is_err(),
            "short destination"
        );
        assert!(
            run(good, 9, 25, 0, 8, 3, 8 * 2).is_err(),
            "window does not tile"
        );
        assert!(run(good, 9, 25, 0, 8, 0, 8 * 8).is_err(), "zero window");
        let bad = BatchGeometry { ow: 5, ..good };
        assert!(
            run(bad, 9, 25, 0, 8, 1, 8 * 40).is_err(),
            "ow != w - kw + 1"
        );
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
