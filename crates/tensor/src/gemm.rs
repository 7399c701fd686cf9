//! The kernels of the batched hot paths
//! ([`crate::im2col::conv2d_pool_block`] and
//! [`crate::ops::affine_rows_into`]): each hot body is written **once**, in
//! plain Rust over `[f32; 8]` lane arrays, and compiled twice — for the
//! build's baseline target and under `#[target_feature(enable = "avx2")]` —
//! and the host picks the compilation.
//!
//! # Same kernels, two compilations — and why there is an enum at all
//!
//! Every batched evaluator in this workspace promises results that are
//! **bit-identical** to the per-image path, and which machine code runs is
//! a property of the host, not of a configuration: [`GemmKernel::Simd`] runs
//! the AVX2 compilation where the CPU has AVX2 and the baseline one
//! everywhere else. The enum exists so that an AVX2 host can still be made
//! to run the baseline compilation — [`GemmKernel::Reference`] is that arm,
//! and the parity suites iterate [`GemmKernel::ALL`] so both are driven on
//! every run. The specification both are held to is not in this module: it
//! is [`crate::ops::affine_row`] and [`crate::conv::conv2d_valid`].
//!
//! | shape | body | `Reference` (and `Simd` without AVX2) | `Simd` on an AVX2 host |
//! |---|---|---|---|
//! | convolution, lanes across images (`conv2d_x8`) | `x8_oc_block` over `tile::<_, _, 8>` | baseline compilation | AVX2 compilation |
//! | convolution, lanes across a row (`conv2d_direct`) | `direct_oc_block` over `tile::<_, _, 1>` | baseline compilation | AVX2 compilation |
//! | logistic ([`crate::math::sigmoid_slice`]) | one straight loop | baseline compilation | AVX2 compilation |
//! | batched affine ([`gemm_nt_rows`]) | two (exception 3 below) | 4×4 register tiles | packed `[k × 8]` lane body, AVX2 compilation |
//!
//! Which convolution runs is a function of the geometry and the batch size
//! (below) and never of the arm: nothing is lowered to a patch matrix on
//! any host. A future arm (AVX-512, aarch64) is one more thin instantiation
//! of the same bodies.
//!
//! # The lane-array form, and why one source gives equal bits
//!
//! A lane vector is a `[f32; 8]` and a k-step is the loop `acc[l] += w *
//! x[l]` over its eight elements. Compiled for AVX2 that loop is one
//! `vmulps` and one `vaddps` on a `ymm` register (the conv tile's inner loop
//! is 2 loads, 3 broadcasts, 6 multiplies, 6 adds — what the hand-written
//! intrinsics gave); compiled for baseline x86-64 it is two `xmm` halves;
//! anywhere else it is whatever the target has. The bits cannot differ,
//! because the source fixes every rounding:
//!
//! * **each lane owns exactly one output element** — a column, an image's
//!   copy of a cell, a feature — and accumulates *its own* chain
//!   sequentially, one addition per tap in program order. Lanes never
//!   cooperate on an element, so there is no horizontal reduction and no
//!   reassociated addition tree for a wider or narrower register to change;
//!   vectorising across independent elements is pure repartitioning.
//! * **a separate multiply and add, never an FMA.** A fused multiply-add
//!   rounds `a·b + c` once; the scalar chain rounds the product, then the
//!   sum. Rust never contracts `a * b + c` on its own, on any target and
//!   under any `target_feature`, so the source's `mul` then `add` is what
//!   every compilation executes.
//! * the accumulation order per output element is the specification's: the
//!   convolutions seed with the bias and add the taps in channel-major
//!   `(c, ky, kx)` ascending order ([`crate::conv::conv2d_valid`]);
//!   `gemm_nt` sums `p = 0..k` ascending from zero and adds the bias last
//!   ([`crate::ops::affine_row`]). Tiling only repartitions **which**
//!   elements are computed together; tails fall back to narrower tiles with
//!   the same per-element order, so parity holds for every shape, `k = 0`
//!   (pure bias) included.
//!
//! The arms are therefore equal because they are one source, not because a
//! sweep says so; the oracle sweeps (`direct_conv_matches_oracle_…`,
//! `x8_conv_matches_oracle_…`, the proptests, `tests/golden.rs`) now hold
//! that one source to the specification, on both compilations.
//!
//! # What is not one portable body, and the measurement behind each
//!
//! Measured in process against the parent's kernels and against each
//! alternative below (PR 22; 2-vCPU reference box, AVX2 compilation unless
//! said, alternating best-of windows, ratios of times):
//!
//! 1. **The 8×8 transposes keep their shuffles** (`shuffle::transpose8`
//!    under `pack_x8` / `unpack_x8`; scalar loops are the fallback). They
//!    are pure data movement — no arithmetic, so no bits to protect — and
//!    `pack_x8` / `unpack_x8` written over lane arrays with a portable
//!    transpose (`from_fn(|i| from_fn(|j| r[j][i]))`) ran every x8 stage
//!    ×1.16–1.34 slower at nine images and up. `x8_pack_unpack_round_trip`
//!    runs both paths on the same input and compares them cell for cell.
//! 2. **The tile reads and writes without bounds checks** (`load8`,
//!    `store8`, the weight read), under the contracts the safe entries
//!    assert before the first of them: slice-indexed loads ran the five conv
//!    stages ×1.3–2.2 slower. `nt_samples` reads its rows the same way
//!    (checked: ×1.17–1.4 slower at 256 rows).
//! 3. **`gemm_nt` keeps its 4×4 register tiles on the baseline arm.** It is
//!    the one old body that beats the lane body somewhere: at `n ≤ 4` rows
//!    ×1.6–1.9 against the lane body compiled for the baseline target
//!    (which is only 3–6 % ahead at 256 rows) and ×1.2–1.8 against the AVX2
//!    compilation, because the lane body re-packs each 8-feature block of
//!    the weights into `[k × 8]` on every call and that pack is most of a
//!    lone row's head (ROADMAP item 2(b) has the remedy for the AVX2 arm,
//!    where the packed body is ahead from about thirty-two rows up). 16
//!    independent dot-product chains give the 4×4 body its instruction-level
//!    parallelism; a single dot product cannot be vectorised without
//!    reassociating its sum.
//!
//! Two rules keep the compiled lane code at the intrinsics' speed, both
//! found the hard way: a lane vector is always loaded **whole and by
//! value** (`load8`, `for &wv in pack`) — read element by element through a
//! reference, the vectoriser has to rediscover the vector, and where it does
//! not the body runs scalar (`nt_samples`: ×4–6 slower) — and
//! `math::sigmoid_slice`'s loop must be the straight one (stated there).
//!
//! # The two convolutions
//!
//! * **Lanes across a row** (`conv2d_direct`): one image at a time,
//!   straight from its feature maps. Lanes are contiguous output-x
//!   positions, whose receptive fields are contiguous spans of the input
//!   rows, so every tap is one weight broadcast against contiguous input
//!   loads. The output plane is covered by **vector positions**: a row of
//!   `ow ≥ 8` columns takes `ceil(ow/8)` vectors at `ox = 0, 8, …` with the
//!   last one placed at `ow − 8`, so a width that is not a multiple of 8
//!   costs one more full vector (up to 7 columns computed twice) instead of
//!   a scalar column tail. The positions of the whole `[oh, ow]` plane are
//!   walked in order and taken two at a time, across a row end too, and
//!   three output channels share each input load: every tile is 2 vectors ×
//!   3 channels = 6 independent add chains (the odd last position runs
//!   1 × 3), which is what hides the latency of the dependent adds. A lane's
//!   bits depend only on which element it owns, so a cell stored by two
//!   overlapping vectors receives the same bits twice. Requires `ow ≥ 8`
//!   (checked, not assumed: `ow − 8` would underflow). Tried and dropped:
//!   4 vectors × 3 channels (12 accumulators spill — slower than 2 × 3
//!   throughout), a const-generic kernel size (no gain), and with them a
//!   packed weight layout: the per-tap broadcasts are L1 hits already.
//! * **Lanes across images** (`conv2d_x8`): the direct kernel wastes the
//!   lanes a row cannot fill — 6 of 16 on 3C's 10-wide C2 maps — and cannot
//!   run at all below 8 columns (3C's 3×3 C3). With the batch travelling as
//!   one block, eight images are adjacent, so the lanes can be **eight
//!   images' copies of one output cell**: every lane is always full,
//!   whatever the map's width. A block of eight rows is transposed into an
//!   interleaved `[c_in, h, w, 8]` scratch, where a tap of all eight images
//!   is one load; tiles of 2 cells × 3 channels (the same tile, `STEP = 8`)
//!   walk the `window` conv rows under one pooled row into an L1-resident
//!   strip; the strip is max-pooled per lane with `if x[l] > best[l] {
//!   best[l] = x[l] }` — the scalar scan's rule by construction: the first
//!   cell seeds, a later one replaces only when strictly greater, a NaN
//!   that is not first is skipped — the pooled vectors are activated as one
//!   slice and transposed back into the output rows. **Why padding is
//!   exact**: a short block's missing lanes are zeros that compute some
//!   finite-or-not value of their own; lanes never interact, so a real
//!   lane's chain is the chain it would run in any company, and the
//!   transpose back writes only the lanes that exist.
//!
//! # Which convolution kernel runs
//!
//! One pure function of the geometry and the batch size,
//! `im2col::BatchGeometry::x8_images` (tested as a table), no knob and no
//! arm: every **full** block of eight images takes the x8 kernel unless
//! `ow % 8 == 0`; the `n % 8` remainder takes the direct kernel per image
//! when `ow ≥ 8` and one zero-padded x8 block when `ow < 8`. The numbers
//! behind each clause (fused `conv → pool → sigmoid` per image including
//! the pack, n = 256, AVX2 compilation, this repository's 2-vCPU reference
//! box, PR 21): 3C's C3 (ow = 3) 285 ns, C2 (ow = 10) 2150 → 1350–1430 ns
//! (×1.5–1.8 over the direct kernel), C1 (ow = 26) 1800 → 1556 ns (×1.16);
//! 2C's C1 (ow = 24) ×1.07–1.13 and C2 (ow = 8) ×0.89–1.08 — the direct
//! kernel's lanes are already full there, hence the `ow % 8` clause. A
//! zero-padded block does eight images' work for fewer and loses to the
//! direct kernel below about six images (n = 4: ×0.58–0.71; n = 1:
//! ×0.14–0.20), hence the remainder rule. **Struck: x8 for every `n`** —
//! simpler by one clause, but it would put that ×0.14–0.20 on every
//! unloaded request's first two convolutions (a batch of one is the common
//! case on an idle server). The rule was tuned on the AVX2 compilation and
//! is kept for the baseline one, where the same two kernels replaced an
//! im2col lowering + 6×8 GEMM (PR 22) and beat it ×1.15–2.7 at every
//! `(shape, n)` measured but a lone image on 3C's C3, which pays a padded
//! block (×0.45, +1.6 µs, on hosts without AVX2 only).
//!
//! # The host picks
//!
//! Nothing above the evaluator chooses a kernel. `BatchScratch::new` /
//! `BatchEvaluator::new` take [`GemmKernel::detect`] — `Simd` where
//! `is_x86_feature_detected!("avx2")`, `Reference` otherwise — and the
//! serving stack has no option for it. Inside this crate the question is
//! asked at one place, `Target::pick`, whose answer is the only proof of
//! AVX2 an instantiation is ever called on. `Simd` on a host without AVX2
//! runs the baseline compilation itself, so naming it explicitly is always
//! safe and the difference is observable only in throughput; tests reach
//! that path on an AVX2 host through the [`force_simd_fallback`] hook. The
//! only caller that passes anything but `detect()` is a parity suite walking
//! [`GemmKernel::ALL`] (`BatchEvaluator::with_kernel`), and the `benchmark/`
//! package's `tensor.*` rows time the detected arm. The next steps if
//! LeNet-scale feature maps are outgrown: the heads on the interleaved
//! block (lanes across images for `gemm_nt`), an AVX-512 instantiation, and
//! a packed/L2-blocked operand layout.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::im2col::BatchGeometry;
use crate::rows::Rows;

/// Which compilation of the kernels the batched paths run. Both arms are
/// bit-identical; they differ only in speed.
///
/// Callers do not choose: every evaluator takes [`GemmKernel::detect`].
/// The value is still an argument of the kernels so that a parity suite
/// can drive the baseline compilation on an AVX2 host
/// (`BatchEvaluator::with_kernel` over [`GemmKernel::ALL`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmKernel {
    /// The bodies as compiled for the build's baseline target, always (and
    /// `gemm_nt`'s 4×4 register tiles; see the [module docs](self)).
    Reference,
    /// The same bodies compiled under `target_feature(enable = "avx2")` —
    /// 8 f32 lanes each owning one output element: a column, a feature, or
    /// an image's copy of a cell (see the [module docs](self)) — where the
    /// host has AVX2; what [`GemmKernel::Reference`] runs everywhere else.
    Simd,
}

impl GemmKernel {
    /// Both arms, for the parity suites: on an AVX2 host iterating this
    /// drives both compilations of every kernel.
    pub const ALL: [GemmKernel; 2] = [GemmKernel::Reference, GemmKernel::Simd];

    /// The arm that names what this host runs: [`GemmKernel::Simd`] when
    /// the CPU reports AVX2 (`is_x86_feature_detected!`),
    /// [`GemmKernel::Reference`] otherwise. This is what
    /// `GemmKernel::default()` returns and what every evaluator is
    /// constructed with — asked once per construction, never in a hot loop.
    pub fn detect() -> GemmKernel {
        if GemmKernel::simd_available() {
            GemmKernel::Simd
        } else {
            GemmKernel::Reference
        }
    }

    /// Whether the [`GemmKernel::Simd`] arm runs the AVX2 compilation on
    /// this host (rather than the baseline one).
    pub fn simd_available() -> bool {
        Target::pick(GemmKernel::Simd).avx2
    }
}

impl Default for GemmKernel {
    /// [`GemmKernel::detect`].
    fn default() -> Self {
        GemmKernel::detect()
    }
}

static FORCE_FALLBACK: AtomicBool = AtomicBool::new(false);

/// Test hook: make the host look as if it had no AVX2, so
/// [`GemmKernel::Simd`] — and [`crate::math::sigmoid_slice`], which asks
/// the same question — runs the baseline compilation. Process-global;
/// results are unchanged by construction (both compilations are
/// bit-identical), so flipping it concurrently with other work is safe —
/// only throughput and [`GemmKernel::detect`] are affected.
#[doc(hidden)]
pub fn force_simd_fallback(on: bool) {
    // `Relaxed` on both sides: the flag publishes no other data, and a
    // reader that sees a flip late runs the other compilation of the same
    // source — the same bits.
    FORCE_FALLBACK.store(on, Ordering::Relaxed);
}

/// Which compilation of the lane bodies a call runs. Only [`Target::pick`]
/// makes one with `avx2` set, and only after asking the CPU, so holding
/// such a value is the proof of AVX2 that calling a
/// `#[target_feature(enable = "avx2")]` instantiation needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Target {
    avx2: bool,
}

impl Target {
    /// **The one dispatch point**: the AVX2 compilation for
    /// [`GemmKernel::Simd`] on a CPU that reports AVX2 (unless the
    /// forced-fallback hook is on), the baseline compilation otherwise —
    /// always, on builds for anything but x86-64.
    pub(crate) fn pick(kernel: GemmKernel) -> Target {
        #[cfg(target_arch = "x86_64")]
        let cpu = is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let cpu = false;
        Target {
            avx2: cpu && kernel == GemmKernel::Simd && !FORCE_FALLBACK.load(Ordering::Relaxed),
        }
    }
}

/// Lanes of one vector: eight `f32`, one `ymm` register under AVX2.
const LANES: usize = 8;
/// One lane vector. Every body below is written over these.
type Lanes = [f32; LANES];

/// Sample rows per 4×4 [`gemm_nt`] register tile.
const NT_MR: usize = 4;
/// Output features per 4×4 [`gemm_nt`] register tile.
const NT_NR: usize = 4;
/// Samples advanced together per packed weight block in the lane body of
/// [`gemm_nt`] — each reuses the same packed load of 8 weights.
const NT_PACKED_MR: usize = 4;

thread_local! {
    /// Interleaved `[k × 8]` weight pack reused across `gemm_nt_packed`
    /// calls, so steady-state batched inference stays allocation-free.
    static NT_PACK: RefCell<Vec<Lanes>> = const { RefCell::new(Vec::new()) };
}

/// Batched affine map `out[i][r] = (Σ_p rows[i][p]·w[r,p]) + bias[r]` —
/// one dot product per (sample, output) pair, bias added **after** the
/// sum, exactly [`crate::ops::affine_row`]'s order.
///
/// `w` is the row-major `[m, k]` weight buffer with `m = bias.len()`;
/// `out` is `[rows.len(), m]` row-major. This is the dense-layer / head
/// shape. The rows are read where they lie ([`Rows`]): the caller's
/// tensors, or a contiguous block of an evaluator's arena. The AVX2 arm
/// runs the packed lane body, the baseline arm the 4×4 register tiles (the
/// [module docs](self) say why there are two).
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
    if Target::pick(kernel).avx2 {
        // SAFETY: `Target::pick` found AVX2 on this CPU, and every row has
        // `k` entries (asserted above).
        #[cfg(target_arch = "x86_64")]
        unsafe {
            gemm_nt_packed(k, rows, w, bias, out)
        };
    } else {
        gemm_nt_tiles(k, rows, w, bias, out)
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

/// The baseline arm's body: up to 4 samples × 4 outputs of dot-product
/// accumulators advance through `k` together; ragged tails shrink the
/// tile, never the per-element order. Both tile dimensions are dispatched
/// to a const-generic microkernel so all 16 accumulators stay in
/// registers.
fn gemm_nt_tiles(k: usize, rows: Rows<'_>, w: &[f32], bias: &[f32], out: &mut [f32]) {
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

/// The lane body of `gemm_nt`, compiled for AVX2: the 8 lanes are 8
/// *output features*, whose weight rows are `k`-strided in the row-major
/// `[m, k]` buffer — a gather per step if read in place. Instead each
/// 8-feature block is packed once per call into the interleaved `[k × 8]`
/// scratch (`pack[p][lane] = w[r0 + lane, p]`, lanes past `m` zero — they
/// compute dot products that are never stored), turning every k-step into
/// one contiguous load and one broadcast of `x[p]`, amortized over all
/// samples in the batch; up to [`NT_PACKED_MR`] samples advance together to
/// reuse each packed load. Per element the sum is a single sequential chain
/// from zero with the bias added last — `affine_row`'s exact order.
///
/// # Safety
///
/// Every row of `rows` has at least `k` entries (the one unchecked read,
/// in `nt_samples`); the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nt_packed(k: usize, rows: Rows<'_>, w: &[f32], bias: &[f32], out: &mut [f32]) {
    let m = bias.len();
    NT_PACK.with(|cell| {
        let mut pack = cell.borrow_mut();
        // every lane of every step is overwritten below, per block
        pack.resize(k, [0.0; LANES]);
        let mut r0 = 0;
        while r0 < m {
            let nr = LANES.min(m - r0);
            for lane in 0..LANES {
                if lane < nr {
                    let wrow = &w[(r0 + lane) * k..(r0 + lane) * k + k];
                    for (step, &wv) in pack.iter_mut().zip(wrow) {
                        step[lane] = wv;
                    }
                } else {
                    for step in pack.iter_mut() {
                        step[lane] = 0.0;
                    }
                }
            }
            let mut i0 = 0;
            while i0 < rows.len() {
                let mr = NT_PACKED_MR.min(rows.len() - i0);
                // SAFETY: `i0 + mr <= rows.len()`, `pack` was just sized to
                // `k`, and every row has `k` entries by this function's
                // own contract.
                match mr {
                    4 => nt_samples::<4>(i0, r0, nr, rows, &pack, bias, out),
                    3 => nt_samples::<3>(i0, r0, nr, rows, &pack, bias, out),
                    2 => nt_samples::<2>(i0, r0, nr, rows, &pack, bias, out),
                    _ => nt_samples::<1>(i0, r0, nr, rows, &pack, bias, out),
                }
                i0 += mr;
            }
            r0 += nr;
        }
    });
}

/// `MR` samples × one packed 8-feature block: `MR` accumulator vectors
/// advance through `k = pack.len()` together, every step one packed load
/// shared by all samples plus one broadcast per sample. The packed vector
/// is taken **by value** — read element by element through the reference
/// the vectoriser has to rediscover it, and where it does not the body runs
/// scalar (measured ×4–6 slower at 32 rows and up) — and the rows are read
/// without a bounds check, as the tile's loads are (checked: ×1.17–1.4
/// slower at 256 rows).
///
/// # Safety
///
/// Rows `i0 .. i0 + MR` of `rows` exist and have at least `pack.len()`
/// entries each.
#[inline(always)]
unsafe fn nt_samples<const MR: usize>(
    i0: usize,
    r0: usize,
    nr: usize,
    rows: Rows<'_>,
    pack: &[Lanes],
    bias: &[f32],
    out: &mut [f32],
) {
    let m = bias.len();
    let xr: [&[f32]; MR] = std::array::from_fn(|mi| rows.row(i0 + mi));
    let mut acc = [[0.0f32; LANES]; MR];
    for (p, &wv) in pack.iter().enumerate() {
        for (lanes, xrow) in acc.iter_mut().zip(&xr) {
            // SAFETY: every row has `k = pack.len()` entries, so `p`
            // indexes it.
            mul_add(lanes, *xrow.get_unchecked(p), &wv);
        }
    }
    for (mi, lanes) in acc.iter().enumerate() {
        let obase = (i0 + mi) * m + r0;
        for (ni, &v) in lanes.iter().take(nr).enumerate() {
            out[obase + ni] = v + bias[r0 + ni];
        }
    }
}

/// `acc[l] += w * x[l]` on every lane: the k-step of every lane body, a
/// separate multiply and add (module docs).
#[inline(always)]
fn mul_add(acc: &mut Lanes, w: f32, x: &Lanes) {
    for (a, &x) in acc.iter_mut().zip(x) {
        *a += w * x;
    }
}

/// Reads eight consecutive values as one lane vector, unaligned and
/// without a bounds check (exception 2 of the module docs).
///
/// # Safety
///
/// `p` must be valid for reading 8 `f32`.
#[inline(always)]
unsafe fn load8(p: *const f32) -> Lanes {
    p.cast::<Lanes>().read_unaligned()
}

/// Writes one lane vector to eight consecutive values, unaligned and
/// without a bounds check.
///
/// # Safety
///
/// `p` must be valid for writing 8 `f32`.
#[inline(always)]
unsafe fn store8(p: *mut f32, v: Lanes) {
    p.cast::<Lanes>().write_unaligned(v)
}

/// Output channels advanced together per conv tile — each input load is
/// reused by this many weight broadcasts.
const CONV_OC: usize = 3;

/// Narrowest output map [`conv2d_direct`] takes: one full 8-lane vector of
/// output columns (the overlapped last vector sits at `ow − 8`).
pub(crate) const DIRECT_MIN_OW: usize = LANES;

/// **The one conv tile**: `N` positions × `OC` output channels, `N·OC`
/// accumulator vectors (≤ 6) + `N` input vectors + 1 broadcast — the 16
/// `ymm` registers of the AVX2 compilation. `STEP` is the distance in
/// values between neighbouring cells of `input` and `out`, and with it what
/// a lane is: `STEP = 1` reads plain `[c_in, h, w]` maps, so the 8 lanes of
/// a position are 8 adjacent output columns (the direct kernel); `STEP = 8`
/// reads the interleaved `[c_in, h, w, 8]` block, so they are eight images'
/// copies of one cell (the x8 kernel). Either way a lane owns one output
/// element and runs its chain alone — bias first, then the taps in
/// `(c, ky, kx)` ascending order, a separate mul and add per tap —
/// [`crate::conv::conv2d_valid`]'s order, so its bits are the oracle's
/// whatever shares the vector.
///
/// Larger tiles and a const-generic kernel size were tried and dropped
/// (module docs).
///
/// # Safety
///
/// `g` is a valid geometry (`oh = h − kh + 1`, `ow = w − kw + 1`),
/// `weights.len() == c_out·c_in·kh·kw`, `oc0 + OC <= c_out <= bias.len()`;
/// for each `(input cell, output cell)` of `at`, `input cell = oy·w + ox`
/// with `oy < oh`, and `input` is valid for reading the 8 values at
/// `(c·h·w + (oy + ky)·w + ox + kx)·STEP` for every tap `(c, ky, kx)`;
/// `out` is valid for writing the 8 values at `(o·stride + output
/// cell)·STEP` for every `o < OC`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile<const OC: usize, const N: usize, const STEP: usize>(
    oc0: usize,
    at: [(usize, usize); N],
    g: &BatchGeometry,
    input: *const f32,
    weights: &[f32],
    bias: &[f32],
    out: *mut f32,
    stride: usize,
) {
    let ktaps = g.c_in * g.kh * g.kw;
    // acc[o][p]: output channel `oc0 + o` at position `at[p]`
    let mut acc: [[Lanes; N]; OC] = std::array::from_fn(|o| [[bias[oc0 + o]; LANES]; N]);
    // One read pointer per position and per channel, advanced a row at a
    // time (taps are consecutive in `weights`); recomputing each address
    // from `(c, ky, kx)` instead measured 3–7 % slower on 3C's three stages.
    // `wrapping_add`: past the last tap of the last channel the input
    // pointers step outside `input`, where they are never read.
    let mut xp: [*const f32; N] = std::array::from_fn(|p| input.wrapping_add(at[p].0 * STEP));
    // SAFETY: `oc0 + o < c_out`, so channel `o`'s taps start inside
    // `weights = [c_out, ktaps]` and the pointer ends at most one past it.
    let mut wp: [*const f32; OC] = std::array::from_fn(|o| weights.as_ptr().add((oc0 + o) * ktaps));
    for _c in 0..g.c_in {
        for _ky in 0..g.kh {
            for kx in 0..g.kw {
                // SAFETY: this function's contract: `xp[p]` is at row
                // `oy + ky` of channel `c`, column `ox`, and `wp[o]` at tap
                // `(c, ky, 0)` of channel `oc0 + o`.
                let x: [Lanes; N] = std::array::from_fn(|p| load8(xp[p].add(kx * STEP)));
                for (chains, wp) in acc.iter_mut().zip(&wp) {
                    let w = *wp.add(kx);
                    for (chain, x) in chains.iter_mut().zip(&x) {
                        mul_add(chain, w, x);
                    }
                }
            }
            for xp in &mut xp {
                *xp = xp.wrapping_add(g.w * STEP);
            }
            for wp in &mut wp {
                *wp = wp.add(g.kw);
            }
        }
        for xp in &mut xp {
            *xp = xp.wrapping_add((g.h - g.kh) * g.w * STEP);
        }
    }
    for (o, chains) in acc.iter().enumerate() {
        for (&chain, &(_, cell)) in chains.iter().zip(&at) {
            // SAFETY: this function's contract, channel `o`.
            store8(out.add((o * stride + cell) * STEP), chain);
        }
    }
}

/// The whole `[oh, ow]` output plane of the `OC` channels starting at
/// `oc0`, as a walk over **vector positions**: a row of `ow >= 8` columns
/// is covered by `ceil(ow / 8)` 8-lane vectors at `ox = 0, 8, …` with the
/// last one placed at `ow − 8`, where it overlaps its neighbour and
/// recomputes up to 7 columns. The positions of the plane are taken in
/// row-major order two at a time — a pair may straddle a row end — so every
/// [`tile`] call but possibly the last runs `2 × OC` independent add
/// chains.
///
/// The overlap is bit-safe: a lane's value depends only on which output
/// element it owns (see [`tile`]), so a cell stored twice receives the same
/// bits twice — which is what lets a full vector stand in for a scalar loop
/// over the `ow % 8` ragged columns.
/// Always inlined: into [`direct_block`] (the baseline compilation) and into
/// [`direct_oc_block_avx2`].
///
/// # Safety
///
/// `g` is a valid geometry with `ow >= 8`, `input.len() == c_in·h·w`,
/// `weights.len() == c_out·c_in·kh·kw`, `bias.len() == c_out`,
/// `out.len() == c_out·oh·ow` and `oc0 + OC <= c_out`.
#[inline(always)]
unsafe fn direct_oc_block<const OC: usize>(
    oc0: usize,
    g: &BatchGeometry,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    let per_row = g.ow.div_ceil(LANES);
    // `(input offset, output offset)` within a plane of the `q`-th
    // position; `ox + 8 <= ow` because `ow >= 8`
    let (mut oy, mut v) = (0, 0);
    let mut next = || {
        let ox = (v * LANES).min(g.ow - LANES);
        let at = (oy * g.w + ox, oy * g.ow + ox);
        v += 1;
        if v == per_row {
            (oy, v) = (oy + 1, 0);
        }
        at
    };
    let positions = g.oh * per_row;
    let plane = g.oh * g.ow;
    // SAFETY: `oc0 < c_out`, so the planes of this block start inside `out`.
    let planes = out.as_mut_ptr().add(oc0 * plane);
    // SAFETY (both calls): every position handed over has `oy < oh` and
    // `ox + 8 <= ow`, so the highest index any load reads is
    // (c_in−1)·h·w + (oh−1 + kh−1)·w + (ow−8) + (kw−1) + 7 = c_in·h·w − 1
    // (valid geometry: oh + kh − 1 = h, ow + kw − 1 = w), the last element
    // of `input`, and the highest index stored is (oc0+OC−1)·oh·ow +
    // (oh−1)·ow + (ow−8) + 7 <= c_out·oh·ow − 1, the last element of `out`
    // — which with this function's contract is the whole of `tile`'s.
    for _ in 0..positions / 2 {
        let at = [next(), next()];
        tile::<OC, 2, 1>(oc0, at, g, input.as_ptr(), weights, bias, planes, plane);
    }
    if positions % 2 == 1 {
        let at = [next()];
        tile::<OC, 1, 1>(oc0, at, g, input.as_ptr(), weights, bias, planes, plane);
    }
}

/// [`direct_oc_block`] compiled for AVX2.
///
/// # Safety
///
/// As [`direct_oc_block`]; the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn direct_oc_block_avx2<const OC: usize>(
    oc0: usize,
    g: &BatchGeometry,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    direct_oc_block::<OC>(oc0, g, input, weights, bias, out)
}

/// [`direct_oc_block`] on the compilation `target` names. The compilations
/// are instantiated per channel block, not per call: one function holding
/// all three `OC` variants of the walker, each with both tile widths
/// inlined, measured 1–3 % slower on 3C's stages in process and
/// `offline_hard` `items_per_s_3c` ×0.977 of the parent (10 pairs) where
/// this reads ×0.998.
///
/// # Safety
///
/// As [`direct_oc_block`]; `target` carries the proof of AVX2.
#[inline(always)]
unsafe fn direct_block<const OC: usize>(
    target: Target,
    oc0: usize,
    g: &BatchGeometry,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    match target.avx2 {
        #[cfg(target_arch = "x86_64")]
        true => direct_oc_block_avx2::<OC>(oc0, g, input, weights, bias, out),
        _ => direct_oc_block::<OC>(oc0, g, input, weights, bias, out),
    }
}

/// Crate-internal entry for the lanes-across-a-row convolution: convolves
/// one `[c_in, h, w]` image straight from its feature maps, writing every
/// cell of the `[c_out, oh, ow]` output, on the compilation `target` names.
/// Whether it applies — `ow >=` [`DIRECT_MIN_OW`] — is the caller's question
/// to ask *before* calling (`im2col::BatchGeometry::x8_images` leaves it the
/// images the x8 kernel does not take); narrower maps are [`conv2d_x8`]'s.
///
/// Bit-exactness: each output lane accumulates `bias` first, then the taps
/// in channel-major `(c, ky, kx)` ascending order with separate mul + add —
/// [`crate::conv::conv2d_valid`]'s chain.
///
/// # Panics
///
/// Panics when a buffer length disagrees with the geometry, when the
/// geometry is not the valid one (`oh = h − kh + 1`, `ow = w − kw + 1`), or
/// when `ow <` [`DIRECT_MIN_OW`] — these are the invariants the unchecked
/// loads and stores of the tile rely on, so they are checked in release
/// builds too.
pub(crate) fn conv2d_direct(
    target: Target,
    g: &BatchGeometry,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
) {
    assert_eq!(input.len(), g.c_in * g.h * g.w);
    assert_eq!(weights.len(), g.c_out * g.c_in * g.kh * g.kw);
    assert_eq!(bias.len(), g.c_out);
    assert_eq!(out.len(), g.c_out * g.oh * g.ow);
    assert!(g.h + 1 == g.oh + g.kh && g.w + 1 == g.ow + g.kw);
    assert!(
        g.ow >= DIRECT_MIN_OW,
        "direct conv needs ow >= 8, got {}",
        g.ow
    );
    let mut oc0 = 0;
    while oc0 < g.c_out {
        let ocr = CONV_OC.min(g.c_out - oc0);
        // SAFETY: the asserts above are exactly the shape invariants
        // `direct_oc_block` documents: every buffer has its geometry's
        // length, the geometry is the valid one, and `ow >= 8` keeps the
        // overlapped position `ow − 8` in range; `oc0 + ocr <= c_out`.
        unsafe {
            match ocr {
                3 => direct_block::<3>(target, oc0, g, input, weights, bias, out),
                2 => direct_block::<2>(target, oc0, g, input, weights, bias, out),
                _ => direct_block::<1>(target, oc0, g, input, weights, bias, out),
            }
        }
        oc0 += ocr;
    }
}

/// The 8×8 transposes under [`pack_x8`] / [`unpack_x8`] as AVX shuffles —
/// the one place this module keeps intrinsics (exception 1 of the module
/// docs): data movement only, no arithmetic.
#[cfg(target_arch = "x86_64")]
mod shuffle {
    use std::arch::x86_64::*;

    use super::LANES;

    /// Transposes an 8×8 block of f32 held as eight row vectors: lane `c`
    /// of output `r` is lane `r` of input `c`. An involution, so the pack
    /// (rows → interleaved) and the unpack (interleaved → rows) are the
    /// same shuffle network.
    #[target_feature(enable = "avx2")]
    fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
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

    /// [`super::pack_x8`] for `f >= 8`.
    ///
    /// # Safety
    ///
    /// As [`super::pack_x8`], plus `f >= 8`; the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pack(rows: &[&[f32]], f: usize, out: &mut [f32]) {
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

    /// [`super::unpack_x8`] for `f >= 8`.
    ///
    /// # Safety
    ///
    /// As [`super::unpack_x8`], plus `f >= 8`; the CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack(src: &[f32], f: usize, count: usize, dst: &mut [f32]) {
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
}

/// Packs up to eight rows of `f` values into the interleaved `[f, 8]`
/// layout of the x8 kernel: `out[j·8 + lane] = rows[lane][j]`, lanes past
/// `rows.len()` zero. The AVX2 target transposes 8×8 blocks with shuffles
/// where a row holds one (`f >= 8`); the loops below are every other case.
///
/// # Safety
///
/// `rows.len() <= 8`, every row has exactly `f` values and `out.len() >=
/// f·8` (the shuffles read and write unchecked).
unsafe fn pack_x8(target: Target, rows: &[&[f32]], f: usize, out: &mut [f32]) {
    match target.avx2 && f >= LANES {
        // SAFETY: AVX2 by `target`, `f >= 8` just checked, the rest is this
        // function's own contract.
        #[cfg(target_arch = "x86_64")]
        true => shuffle::pack(rows, f, out),
        _ => {
            for (j, cell) in out[..f * LANES].chunks_exact_mut(LANES).enumerate() {
                for (lane, v) in cell.iter_mut().enumerate() {
                    *v = rows.get(lane).map_or(0.0, |row| row[j]);
                }
            }
        }
    }
}

/// The inverse of [`pack_x8`] for the first `count` lanes: row `r` of the
/// contiguous `[count, f]` block `dst` receives lane `r` of every cell of
/// the interleaved `[f, 8]` buffer `src`. Lanes `count..8` (the padding of
/// a short block) are dropped, so nothing is written past row `count − 1`.
///
/// # Safety
///
/// `count <= 8`, `src.len() >= f·8` and `dst.len() == count·f` (the
/// shuffles read and write unchecked).
unsafe fn unpack_x8(target: Target, src: &[f32], f: usize, count: usize, dst: &mut [f32]) {
    match target.avx2 && f >= LANES {
        // SAFETY: as in `pack_x8`.
        #[cfg(target_arch = "x86_64")]
        true => shuffle::unpack(src, f, count, dst),
        _ => {
            for (r, row) in dst.chunks_exact_mut(f.max(1)).enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = src[j * LANES + r];
                }
            }
        }
    }
}

/// Every pooled row of the `OC` channels starting at `oc0`: the
/// `window·ow` conv cells under it are computed into `strip` two at a time
/// in row-major order (a pair may straddle a row end; an odd count leaves
/// one single-cell tile) — with `window = 1` straight into `pooled`, and
/// that is all — then each window is scanned out of the strip the way
/// [`crate::pool`] scans it — row-major from its first cell, a later cell
/// replacing the running best only when **strictly greater**, per lane — so
/// ties and `-0.0` / `+0.0` keep the earlier cell, a NaN in first position
/// wins and a later NaN is skipped: the rule is the scalar scan's own `>`.
///
/// `packed` is the interleaved `[c_in, h, w, 8]` input of one block of eight
/// images, `pooled` receives the interleaved `[c_out, oh/window, ow/window,
/// 8]` **max-pooled raw** maps (the caller activates and unpacks them), and
/// `strip` holds the `window` conv rows under one pooled row for up to
/// [`CONV_OC`] channels, `[CONV_OC, window·ow, 8]`. Always inlined: into
/// [`x8_block`] (the baseline compilation) and into [`x8_oc_block_avx2`].
///
/// # Safety
///
/// `g` is a valid geometry (`oh = h − kh + 1`, `ow = w − kw + 1`, every
/// extent `≥ 1`) that `window ≥ 1` tiles; `packed.len() >= c_in·h·w·8`,
/// `weights.len() == c_out·c_in·kh·kw`, `bias.len() == c_out`,
/// `strip.len() >= 3·window·ow·8`, `pooled.len() >=
/// c_out·(oh/window)·(ow/window)·8` and `oc0 + OC <= c_out`.
#[inline(always)]
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
        // where the tiles store: the strip — or, under the identity pool,
        // where a strip row *is* a pooled row, the maps themselves
        let (out, stride) = match window {
            // SAFETY: `oc0 + OC <= c_out` and `py < ph`, so the offset is
            // inside `pooled` (and so is every store: below).
            1 => (pp.add((oc0 * ph * pw + py * pw) * LANES), ph * pw),
            _ => (sp, cells),
        };
        // SAFETY (both calls): every position handed over has
        // `oy < (py + 1)·window <= oh`, `ox < ow` and `q < cells`, so the
        // highest index any load reads is ((c_in−1)·h·w + (oh−1 + kh−1)·w +
        // (ow−1) + (kw−1))·8 + 7 = c_in·h·w·8 − 1 (valid geometry), inside
        // `packed`; `out` is valid for `((OC − 1)·stride + cells)·8` values
        // — the strip holds `3·cells·8`, and with `window = 1` the highest
        // index is ((oc0 + OC − 1)·oh·ow + py·ow + ow − 1)·8 + 7 <=
        // c_out·oh·ow·8 − 1 of `pooled` — which with this function's
        // contract is the whole of `tile`'s.
        for _ in 0..cells / 2 {
            let at = [next(), next()];
            tile::<OC, 2, LANES>(oc0, at, g, packed.as_ptr(), weights, bias, out, stride);
        }
        if cells % 2 == 1 {
            let at = [next()];
            tile::<OC, 1, LANES>(oc0, at, g, packed.as_ptr(), weights, bias, out, stride);
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
                let mut best = load8(first);
                for wy in 0..window {
                    for wx in 0..window {
                        let x = load8(first.add((wy * g.ow + wx) * LANES));
                        for (best, &x) in best.iter_mut().zip(&x) {
                            if x > *best {
                                *best = x;
                            }
                        }
                    }
                }
                let cell = ((oc0 + o) * ph + py) * pw + px;
                store8(pp.add(cell * LANES), best);
            }
        }
    }
}

/// [`x8_oc_block`] compiled for AVX2.
///
/// # Safety
///
/// As [`x8_oc_block`]; the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn x8_oc_block_avx2<const OC: usize>(
    oc0: usize,
    g: &BatchGeometry,
    packed: &[f32],
    weights: &[f32],
    bias: &[f32],
    window: usize,
    strip: &mut [f32],
    pooled: &mut [f32],
) {
    x8_oc_block::<OC>(oc0, g, packed, weights, bias, window, strip, pooled)
}

/// [`x8_oc_block`] on the compilation `target` names (per channel block,
/// for [`direct_block`]'s reason).
///
/// # Safety
///
/// As [`x8_oc_block`]; `target` carries the proof of AVX2.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn x8_block<const OC: usize>(
    target: Target,
    oc0: usize,
    g: &BatchGeometry,
    packed: &[f32],
    weights: &[f32],
    bias: &[f32],
    window: usize,
    strip: &mut [f32],
    pooled: &mut [f32],
) {
    match target.avx2 {
        #[cfg(target_arch = "x86_64")]
        true => x8_oc_block_avx2::<OC>(oc0, g, packed, weights, bias, window, strip, pooled),
        _ => x8_oc_block::<OC>(oc0, g, packed, weights, bias, window, strip, pooled),
    }
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

/// Crate-internal entry for the lanes-across-images convolution: one block
/// of `count <= 8` images (`src` rows `first .. first + count`, each
/// `[c_in, h, w]`) through `conv → max-pool(window) → activation`, written
/// to the `count` rows of `dst` (`[count, c_out·(oh/window)·(ow/window)]`),
/// on the compilation `target` names. The rows are transposed into an
/// interleaved `[c_in, h, w, 8]` scratch (a short block's missing lanes are
/// zeros), convolved and pooled with each lane owning one image's copy of
/// one cell, activated as one slice, and transposed back — only the first
/// `count` lanes, so a padded lane's values go nowhere. Whether it applies
/// is the caller's question (`im2col::BatchGeometry::x8_images`).
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
/// valid one or `window` does not tile it — the invariants the unchecked
/// loads and stores rely on, checked in release builds too, before the
/// first of them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_x8(
    target: Target,
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
    grow(&mut scratch.packed, f_in * LANES);
    grow(&mut scratch.strip, CONV_OC * window * g.ow * LANES);
    grow(&mut scratch.pooled, f_out * LANES);
    // SAFETY: `count <= 8` rows of exactly `f_in` values into `packed`
    // (>= f_in·8, highest index stored f_in·8 − 1).
    unsafe { pack_x8(target, &rows[..count], f_in, &mut scratch.packed) };
    let (packed, strip, pooled) = (&scratch.packed, &mut scratch.strip, &mut scratch.pooled);
    let mut oc0 = 0;
    while oc0 < g.c_out {
        let ocr = CONV_OC.min(g.c_out - oc0);
        // SAFETY: the asserts above are `x8_oc_block`'s geometry, window and
        // buffer contract (highest index read c_in·h·w·8 − 1 of `packed`,
        // highest stored f_out·8 − 1 of `pooled`, 3·window·ow·8 − 1 of
        // `strip`); `oc0 + ocr <= c_out`.
        unsafe {
            match ocr {
                3 => x8_block::<3>(target, oc0, g, packed, weights, bias, window, strip, pooled),
                2 => x8_block::<2>(target, oc0, g, packed, weights, bias, window, strip, pooled),
                _ => x8_block::<1>(target, oc0, g, packed, weights, bias, window, strip, pooled),
            }
        }
        oc0 += ocr;
    }
    activation(&mut scratch.pooled[..f_out * LANES]);
    // SAFETY: `pooled` holds f_out·8 values (highest index read f_out·8 − 1)
    // and `dst` is exactly `count·f_out` (highest index stored
    // count·f_out − 1), `count <= 8`.
    unsafe { unpack_x8(target, &scratch.pooled, f_out, count, dst) };
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
    }

    #[test]
    fn known_values_match_hand_computation() {
        // rows·Wᵀ + bias with W = [[1,2],[3,4]], bias = [0.5, -0.5]:
        // row [1,1] → [1+2+0.5, 3+4-0.5]
        let a = [1.0, 2.0, 3.0, 4.0];
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
    /// what `Reference` runs, with identical results — exercised here
    /// through the forced-fallback hook, on shapes with ragged tails in
    /// every dimension. The guard restores the real dispatch even on panic.
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
        // full and a padded x8 block) run the same two kernels on the
        // baseline compilation and keep their bits
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

    /// Lane-specific shape torture for the packed nt body: m exactly one
    /// 8-feature block, a head (m = 10 → one block + a 2-lane tail), m just
    /// past two blocks, and fewer samples than the 4-row tile — both arms
    /// bit-identical to the naive loop.
    #[test]
    fn simd_tail_shapes_match_reference() {
        let mut rng = StdRng::seed_from_u64(99);
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

    /// Every compilation this host can be asked for — each arm of
    /// [`GemmKernel::ALL`] with the hook off and with the fallback forced —
    /// once each: the baseline one, and the AVX2 one where the CPU has it.
    fn targets() -> Vec<Target> {
        let _guard = DetectionGuard::lock();
        let mut targets = Vec::new();
        for forced in [false, true] {
            force_simd_fallback(forced);
            for kernel in GemmKernel::ALL {
                let target = Target::pick(kernel);
                assert!(!target.avx2 || (kernel == GemmKernel::Simd && !forced));
                if !targets.contains(&target) {
                    targets.push(target);
                }
            }
        }
        targets
    }

    /// The square-kernel valid geometry with `oh × ow` output maps.
    fn geometry(c_in: usize, c_out: usize, k: usize, oh: usize, ow: usize) -> BatchGeometry {
        BatchGeometry {
            c_in,
            h: oh + k - 1,
            w: ow + k - 1,
            c_out,
            kh: k,
            kw: k,
            oh,
            ow,
        }
    }

    /// The direct kernel, on both compilations, against the oracle
    /// [`conv2d_valid`], bit for bit (a NaN only has to be a NaN in the same
    /// cell), for every output width from one vector to five — every
    /// overlap `ow % 8` of the last vector — crossed with output heights
    /// that make the position count odd or even and let a pair of positions
    /// straddle a row end, every channel-block remainder, and kernels from
    /// 1×1 to 5×5. The output buffer starts as a sentinel no arithmetic on
    /// these inputs produces, so a cell the tiles skipped shows.
    #[test]
    fn direct_conv_matches_oracle_for_every_width() {
        let targets = targets();
        let sentinel = f32::from_bits(0x7fc0_dead);
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for ow in 8usize..=40 {
            for oh in [1usize, 2, 5, 8] {
                for c_out in 1usize..=7 {
                    for k in 1usize..=5 {
                        for c_in in 1usize..=3 {
                            let g = geometry(c_in, c_out, k, oh, ow);
                            // clean, sparse and dense edge values in turn
                            let rate = [u32::MAX, 64, 6][(ow + oh + c_out + k + c_in) % 3];
                            let x = edge_fill(&mut rng, c_in * g.h * g.w, rate);
                            let kernels = edge_fill(&mut rng, c_out * c_in * k * k, rate);
                            let bias = edge_fill(&mut rng, c_out, rate);
                            let oracle = conv2d_valid(
                                &Tensor::from_vec(x.clone(), &[c_in, g.h, g.w]).unwrap(),
                                &Tensor::from_vec(kernels.clone(), &[c_out, c_in, k, k]).unwrap(),
                                &bias,
                            )
                            .unwrap();
                            for &target in &targets {
                                let mut out = vec![sentinel; c_out * oh * ow];
                                conv2d_direct(target, &g, &x, &kernels, &bias, &mut out);
                                for (i, (got, want)) in out.iter().zip(oracle.data()).enumerate() {
                                    let at = format!(
                                        "cell {i} of ow={ow} oh={oh} c_out={c_out} k={k} c_in={c_in}, {target:?}"
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
        target: Target,
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
                target,
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

    /// The lanes-across-images kernel, on both compilations, against the
    /// staged oracle, bit for bit (a NaN only has to be a NaN in the same
    /// cell): every output
    /// width from 1 to 40 crossed with heights, channel-block remainders,
    /// kernel sizes and input channels, each geometry at one batch size of
    /// 1..=17 (full blocks, a short last block, a lone padded block) and one
    /// of the windows {1, 2, 3} that tile it, alternately raw and through
    /// the sigmoid, on clean, sparse and dense edge values — so pool windows
    /// meet signed zeros, ties, NaN in first and in later position. The
    /// output starts as a sentinel no arithmetic produces, so an unwritten
    /// cell shows; the guard row behind it and each row's own oracle catch a
    /// padded lane leaking into a neighbour.
    #[test]
    fn x8_conv_matches_oracle_for_every_shape() {
        let targets = targets();
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
                            let g = geometry(c_in, c_out, k, oh, ow);
                            let xs: Vec<Tensor> = (0..n)
                                .map(|_| {
                                    Tensor::from_vec(
                                        edge_fill(&mut rng, c_in * g.h * g.w, rate),
                                        &[c_in, g.h, g.w],
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
                            let oracles: Vec<Tensor> = xs
                                .iter()
                                .map(|x| staged_oracle(x, &kernels, &bias, sigmoid, window))
                                .collect();
                            for &target in &targets {
                                let out = run_x8(
                                    target,
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
                                    "ow={ow} oh={oh} c_out={c_out} k={k} c_in={c_in} n={n} window={window} sigmoid={sigmoid}, {target:?}"
                                );
                                for (i, oracle) in oracles.iter().enumerate() {
                                    let row = &out[i * f_out..(i + 1) * f_out];
                                    for (j, (got, want)) in
                                        row.iter().zip(oracle.data()).enumerate()
                                    {
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
    }

    /// The pool rule of the x8 kernel on windows built to tell it from its
    /// near misses, through an identity convolution (`k = 1`, weight 1, bias
    /// `-0.0`, which returns every `f32` unchanged): a NaN first wins, a NaN
    /// later is skipped, `-0.0` before `+0.0` stays `-0.0` and the other way
    /// round stays `+0.0` — a `>=` compare or an unordered one fails here.
    #[test]
    fn x8_pool_keeps_the_first_of_ties_and_a_leading_nan() {
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
        let g = geometry(1, 1, 1, 2, 12);
        let kernels = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]).unwrap();
        let mut scratch = X8Scratch::default();
        for target in targets() {
            let out = run_x8(
                target,
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
                        "image {i} window {col}, {target:?}: {got:e} vs {want:e}"
                    );
                }
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
    /// unpack writes `count` rows and nothing behind them. The transposes
    /// are the one place two implementations remain, so the shuffle path
    /// (where the host has it) and the scalar loops run on the same input
    /// and must leave the same interleaved buffer and the same rows.
    #[test]
    fn x8_pack_unpack_round_trip() {
        let targets = targets();
        let mut rng = StdRng::seed_from_u64(8);
        for f in 1usize..=70 {
            for count in 1usize..=8 {
                let data: Vec<Vec<f32>> = (0..count).map(|_| fill(&mut rng, f)).collect();
                let rows: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
                let mut firsts: Option<(Vec<f32>, Vec<f32>)> = None;
                for &target in &targets {
                    let at = format!("f={f} count={count} {target:?}");
                    let mut packed = vec![f32::NAN; f * 8];
                    // SAFETY: `count <= 8` rows of `f` values, `packed`
                    // holds `f·8`.
                    unsafe { pack_x8(target, &rows, f, &mut packed) };
                    for j in 0..f {
                        for lane in 0..8 {
                            let want = data.get(lane).map_or(0.0, |row| row[j]);
                            assert_eq!(
                                packed[j * 8 + lane].to_bits(),
                                want.to_bits(),
                                "{at} j={j} lane={lane}"
                            );
                        }
                    }
                    let mut back = vec![f32::NAN; (count + 1) * f];
                    // SAFETY: `packed` holds `f·8` values and the
                    // destination is exactly `count·f`.
                    unsafe { unpack_x8(target, &packed, f, count, &mut back[..count * f]) };
                    for (r, row) in data.iter().enumerate() {
                        assert_eq!(&back[r * f..(r + 1) * f], &row[..], "{at} row {r}");
                    }
                    assert!(
                        back[count * f..].iter().all(|v| v.is_nan()),
                        "{at}: wrote past row {count}"
                    );
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                    match &firsts {
                        None => firsts = Some((packed, back)),
                        Some((p, b)) => {
                            assert_eq!(bits(&packed), bits(p), "{at}: interleaved buffer");
                            assert_eq!(bits(&back), bits(b), "{at}: unpacked rows");
                        }
                    }
                }
            }
        }
    }

    /// The checks in front of the x8 kernel's unchecked loads and stores: a
    /// block of zero or nine images, a block running past the batch, a row
    /// that is not `[c_in, h, w]`, a destination of the wrong size, a window
    /// that does not tile the maps, a geometry that is not the valid one.
    #[test]
    fn x8_conv_rejects_what_its_unsafe_code_cannot_take() {
        for target in targets() {
            let good = geometry(1, 2, 2, 4, 4);
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
                        target,
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
    }

    /// The shape checks in front of the unchecked loads and stores: a map
    /// narrower than a vector (the overlapped position `ow − 8` would
    /// underflow), a geometry that is not the valid one, a short buffer.
    #[test]
    fn direct_conv_rejects_what_its_unsafe_code_cannot_take() {
        for target in targets() {
            let run = |input: usize, g: BatchGeometry, out: usize| {
                std::panic::catch_unwind(move || {
                    let mut o = vec![0.0f32; out];
                    conv2d_direct(target, &g, &vec![0.0; input], &[0.0; 4], &[0.0], &mut o);
                })
            };
            let good = geometry(1, 1, 2, 8, 8);
            assert!(run(9 * 9, good, 8 * 8).is_ok(), "the valid call");
            assert!(
                run(8 * 8, geometry(1, 1, 2, 7, 7), 7 * 7).is_err(),
                "ow = 7"
            );
            let bad = BatchGeometry { ow: 9, ..good };
            assert!(run(9 * 9, bad, 8 * 9).is_err(), "ow != w - kw + 1");
            assert!(run(9 * 9 - 1, good, 8 * 8).is_err(), "short input");
            assert!(run(9 * 9, good, 8 * 8 - 1).is_err(), "short output");
        }
    }
}
