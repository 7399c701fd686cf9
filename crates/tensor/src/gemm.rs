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
//! every run. The specification both are held to is not in this module's
//! code: it is [`crate::ops::matvec`] with the bias added last (the unit
//! tests' `affine_row` is that loop over slices) and
//! [`crate::conv::conv2d_valid`]. Both are plain safe scalar loops that call
//! nothing here. They run in the row form: the convolution covers an output
//! row in spans of adjacent outputs, `matvec` takes rows in blocks, and each
//! span or block advances its elements' chains side by side, one tap (one
//! `p`) at a time. Every element's chain is still the literal one — the
//! same seed, the same `x * k` (`w * x`) per step, the same order — and
//! `spec_conv_…` / `spec_matvec_…` hold the row form to the
//! element-at-a-time loops, kept verbatim in their unit tests.
//!
//! | shape | body | `Reference` (and `Simd` without AVX2) | `Simd` on an AVX2 host |
//! |---|---|---|---|
//! | convolution, lanes across images (`conv2d_x8`) | `x8_oc_block` over `tile::<_, _, 8>` | baseline compilation | AVX2 compilation |
//! | convolution, lanes across a row, pooled by 1 or 2 in the tile (`conv2d_direct`) | `direct_oc_block` over `tile::<_, _, 1>` and `pool_row_pair` | baseline compilation | AVX2 compilation |
//! | logistic ([`crate::math::sigmoid_slice`], which takes the arm like every body above) | one straight loop | baseline compilation | AVX2 compilation |
//! | batched affine, lanes across images (`gemm_nt_rows`) | `nt_rows` | baseline compilation | AVX2 compilation |
//!
//! Which convolution runs is a function of the geometry and the batch size
//! (below) and never of the arm: nothing is lowered to a patch matrix on
//! any host. The batched affine is the heads' and the dense layer's shape,
//! `m` outputs (a head's ten classes) over `k` features, and it runs lanes
//! across images as `conv2d_x8` does: each block of up to eight rows is
//! transposed into `[k, 8]` by `pack_x8` (a short block zero-padded), and
//! a tile of ten accumulator vectors — one per output, the weights read in
//! place — walks `p = 0..k` under it. A future arm (AVX-512, aarch64) is
//! one more thin instantiation of the same bodies.
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
//!   copy of a cell or of an output — and accumulates *its own* chain
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
//!   (`affine_row` in the unit tests). Tiling only repartitions **which**
//!   elements are computed together; tails fall back to narrower tiles, or
//!   are padded with lanes and outputs whose values are dropped, with the
//!   same per-element order, so parity holds for every shape, `k = 0`
//!   (pure bias) included.
//!
//! The arms are therefore equal because they are one source, not because a
//! sweep says so; the oracle sweeps (`direct_conv_…matches_oracle_…`,
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
//! 2. **The tiles read and write without bounds checks** (`load8`,
//!    `store8`, the weight reads), under the contracts the safe entries
//!    assert before the first of them: slice-indexed loads ran the five conv
//!    stages ×1.3–2.2 slower, and the head body ×1.1–1.9 (the models' five
//!    head shapes, 1 to 256 rows).
//!
//! Two rules keep the compiled lane code at the intrinsics' speed, both
//! found the hard way: a lane vector is always loaded **whole and by
//! value** (`load8`) — read element by element through a reference, the
//! vectoriser has to rediscover the vector, and where it does not the body
//! runs scalar (measured ×4–6 slower) — and
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
//!   a scalar column tail. Three output channels share each input load and
//!   every tile is 2 vectors × 3 channels = 6 independent add chains, which
//!   is what hides the latency of the dependent adds. A lane's bits depend
//!   only on which element it owns, so a cell stored by two overlapping
//!   vectors receives the same bits twice. Requires `ow ≥ 8` (checked, not
//!   assumed: `ow − 8` would underflow). Under the identity window the
//!   positions of the whole `[oh, ow]` plane are taken two at a time in
//!   order, across a row end too (the odd last one runs 1 × 3). **Under a
//!   2×2 window the pool is in the tile**: a tile is the vertical pair
//!   `(2py, ox)`, `(2py + 1, ox)`, max-pooled in registers by
//!   `pool_row_pair` before anything is stored, so no conv map is written.
//!   The rule is [`crate::pool`]'s scan `a = (2py, 2px)`, `b = (2py,
//!   2px+1)`, `c = (2py+1, 2px)`, `d = (2py+1, 2px+1)` with a strict `>`,
//!   never a max tree (with `c` NaN and `d` largest the tree keeps
//!   `max(a, b)`, the scan `d`). Against the raw plane and scalar pool pass
//!   it replaced (fused stage with its sigmoid, in process, AVX2): 2C's C1
//!   ×1.16–1.26, C2 ×1.07–1.14 at n = 1, 18, 256; pooling each row pair
//!   from an L1 strip instead (the x8 kernel's way) lost to the registers
//!   in 17 of those 18 cells. Tried and dropped: 4 vectors × 3 channels
//!   (12 accumulators spill — slower than 2 × 3 throughout), a
//!   const-generic kernel size (no gain), and with them a packed weight
//!   layout: the per-tap broadcasts are L1 hits already.
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
//! One pure function of the geometry, the pooling window and the batch
//! size, `im2col::BatchGeometry::x8_images` (tested as a table), no knob
//! and no arm:
//!
//! * a window other than 1 or 2, or `ow < 8`: every image takes the x8
//!   kernel, which pools any window per lane and takes any width (no
//!   network this workspace builds pools by more than 2); the `n % 8`
//!   remainder is one zero-padded block;
//! * no image takes it where the direct kernel leaves few lanes idle on
//!   few taps: always when `ow % 8 == 0` (its lanes are full), and when the
//!   overlapped last vector idles at most a quarter of the lanes,
//!   `4·(ceil8(ow) − ow) ≤ ceil8(ow)`, on at most 27 taps per cell
//!   (`c_in·kh·kw`);
//! * otherwise every **full** block of eight takes it and the `n % 8`
//!   remainder runs direct, image by image.
//!
//! The table behind it is what the ignored test
//! `im2col::tests::kernel_choice_timings` prints — rerun it after any
//! change to either kernel and re-derive the rule from it. Fused `conv →
//! pool → sigmoid` per image (the x8 kernel with its pack and unpack), best
//! of 24 alternating windows, on a 2-vCPU x86-64 host with AVX2, two runs:
//! ns per image at n = 256 (AVX2, the better run), and x8's time over the
//! direct kernel's at n = 8 and 256 over both runs (above 1: direct is
//! faster). The five model stages, then the geometries at the rule's edges
//! (c_out 6):
//!
//! | stage | taps | ow | direct ns | x8 ns | x8 ÷ direct, AVX2 | x8 ÷ direct, baseline | runs |
//! |---|---|---|---|---|---|---|---|
//! | 2C C1 | 25 | 24 | 3948 | 4987 | 1.13–1.38 | 1.07–1.32 | direct |
//! | 2C C2 | 150 | 8 | 3893 | 4060 | 1.04–1.13 | 0.96–1.01 | direct |
//! | 3C C1 | 9 | 26 | 1417 | 1728 | 1.20–1.22 | 0.97–1.45 | direct |
//! | 3C C2 | 48 | 10 | 1746 | 1280 | 0.72–0.74 | 0.69–0.70 | x8 |
//! | 3C C3 | 54 | 3 | — | 264 | — | — | x8 |
//! | ow 26, 27 taps | 27 | 26 | 5614 | 5839 | 0.96–1.04 | 0.83–0.93 | direct |
//! | ow 26, 150 taps | 150 | 26 | 24423 | 21523 | 0.88–0.89 | 0.81–0.83 | x8 |
//! | ow 26, 48 taps | 48 | 26 | 8761 | 8556 | 0.95–1.02 | 0.86–0.90 | x8 |
//! | ow 10, 9 taps | 9 | 10 | 542 | 463 | 0.80–0.85 | 0.85–0.87 | x8 |
//! | ow 12, 9 taps | 9 | 12 | 659 | 685 | 0.99–1.04 | 0.96–0.99 | direct |
//! | ow 18, 27 taps | 27 | 18 | 2950 | 2803 | 0.94–0.96 | 0.87–0.89 | direct |
//!
//! Why taps: the x8 kernel's pack, pool strip and unpack cost about the
//! same per cell whatever the taps, while the direct kernel's idle lanes
//! cost in proportion to them. So at ow 26 (6 of 32 lanes idle) the direct
//! kernel wins on 9 taps (3C's C1, ×1.20–1.22), is even on 27 and 48 and
//! loses on 150; on 9 taps it is even at ow 12 (4 of 16 idle) and loses at
//! ow 10 (6 of 16, as on 3C's C2). The rule is within a few percent of the
//! faster kernel on every AVX2 row; its worst is the corner where both
//! edges meet, ow 18 on 27 taps, where x8 is ×1.04–1.06 faster. It was
//! tuned on the AVX2 compilation and is kept for the baseline one, whose
//! x8 kernel does relatively better: there x8 also wins the 27-tap and
//! ow-12 rows, 2C's C2 is even, and 3C's C1 reads ×0.97–1.45 (median ×1.09
//! over six readings). A zero-padded block
//! does eight images' work for fewer and loses to the direct kernel below
//! about six images (n = 4: ×0.58–0.71; n = 1: ×0.14–0.20), hence the
//! remainder rule. **Struck: x8 for every `n`** — simpler by one clause,
//! but it would put that ×0.14–0.20 on every unloaded request's first two
//! convolutions (a batch of one is the common case on an idle server). On
//! the baseline compilation the same two kernels replaced an im2col
//! lowering + 6×8 GEMM and beat it ×1.15–2.7 at every `(shape, n)`
//! measured but a lone image on 3C's C3, which pays a padded block (×0.45,
//! +1.6 µs, on hosts without AVX2 only).
//!
//! # The host picks
//!
//! Nothing above the evaluator chooses a kernel. `BatchScratch::new` /
//! `BatchEvaluator::new` take [`GemmKernel::detect`] — `Simd` where
//! `is_x86_feature_detected!("avx2")`, `Reference` otherwise — and the
//! serving stack has no option for it. The arm is the only switch: every
//! batched body, the sigmoid included, takes it as an argument, and the
//! per-image paths pass `detect()`. Inside this crate the CPU is asked at
//! one place, `Target::pick`, whose answer is the only proof of AVX2 an
//! instantiation is ever called on; the rule it applies to that answer is
//! the pure table `Target::resolve`, tested cell by cell. `Simd` on a host
//! without AVX2 runs the baseline compilation itself, so naming it
//! explicitly is always safe and the difference is observable only in
//! throughput. The only caller that passes anything but `detect()` is a
//! parity suite walking [`GemmKernel::ALL`] (`BatchEvaluator::with_kernel`),
//! and the `benchmark/` package's `tensor.*` rows time the detected arm.
//! The next steps: handing `conv2d_x8`'s interleaved block straight to the
//! next head instead of unpacking and repacking it (ROADMAP 2(b)), and, if
//! LeNet-scale feature maps are outgrown, an AVX-512 instantiation and a
//! packed/L2-blocked operand layout.

use std::cell::RefCell;

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
    /// The bodies as compiled for the build's baseline target, always.
    Reference,
    /// The same bodies compiled under `target_feature(enable = "avx2")` —
    /// 8 f32 lanes each owning one output element: a column, or an image's
    /// copy of a cell or of an output (see the [module docs](self)) — where
    /// the host has AVX2; what [`GemmKernel::Reference`] runs everywhere
    /// else.
    Simd,
}

impl GemmKernel {
    /// Both arms, for the parity suites: on an AVX2 host iterating this
    /// drives both compilations of every kernel.
    pub const ALL: [GemmKernel; 2] = [GemmKernel::Reference, GemmKernel::Simd];

    /// The arm that names what this host runs: [`GemmKernel::Simd`] when
    /// the CPU reports AVX2 (`is_x86_feature_detected!`),
    /// [`GemmKernel::Reference`] otherwise. This is what
    /// `GemmKernel::default()` returns, what every evaluator is constructed
    /// with and what the per-image paths pass to their sigmoid (the CPU's
    /// answer is cached by the standard library, so a call is one load).
    pub fn detect() -> GemmKernel {
        if Target::pick(GemmKernel::Simd).avx2 {
            GemmKernel::Simd
        } else {
            GemmKernel::Reference
        }
    }
}

impl Default for GemmKernel {
    /// [`GemmKernel::detect`].
    fn default() -> Self {
        GemmKernel::detect()
    }
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
    /// **The one dispatch point**, and the one place the CPU is asked:
    /// [`Target::resolve`] on whether it reports AVX2 — never, on builds
    /// for anything but x86-64.
    pub(crate) fn pick(kernel: GemmKernel) -> Target {
        #[cfg(target_arch = "x86_64")]
        let cpu_has_avx2 = is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let cpu_has_avx2 = false;
        Target::resolve(cpu_has_avx2, kernel)
    }

    /// The dispatch rule: the AVX2 compilation for [`GemmKernel::Simd`] on
    /// a CPU with AVX2, the baseline compilation otherwise. Only
    /// [`Target::pick`] may call it with anything but the CPU's answer —
    /// the unit tests, which never run what it returns.
    fn resolve(cpu_has_avx2: bool, kernel: GemmKernel) -> Target {
        Target {
            avx2: cpu_has_avx2 && kernel == GemmKernel::Simd,
        }
    }

    /// Whether this is the AVX2 compilation.
    pub(crate) fn avx2(self) -> bool {
        self.avx2
    }
}

/// Lanes of one vector: eight `f32`, one `ymm` register under AVX2.
const LANES: usize = 8;
/// One lane vector. Every body below is written over these.
type Lanes = [f32; LANES];

/// Outputs per `gemm_nt` tile: a head's ten classes in one pass over the
/// block — ten accumulator vectors, the step's load and a broadcast fit the
/// 16 `ymm` registers of the AVX2 compilation.
const NT_OUT: usize = 10;

thread_local! {
    /// The interleaved `[k, 8]` block of `gemm_nt`'s current eight rows,
    /// grown once and reused across calls, so steady-state batched
    /// inference stays allocation-free.
    static NT_BLOCK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Batched affine map `out[i][r] = (Σ_p rows[i][p]·w[r,p]) + bias[r]` —
/// one dot product per (sample, output) pair, bias added **after** the
/// sum, exactly the unit tests' `affine_row` order.
///
/// `w` is the row-major `[m, k]` weight buffer with `m = bias.len()`;
/// `out` is `[rows.len(), m]` row-major. This is the dense-layer / head
/// shape. The rows are read where they lie ([`Rows`]): the caller's
/// tensors, or a contiguous block of an evaluator's arena. One body,
/// `nt_rows` (lanes across images), on the compilation `kernel` picks.
///
/// # Panics
///
/// Panics when a buffer length disagrees with the shapes — the invariants
/// the unchecked reads rely on, checked in release builds too.
pub(crate) fn gemm_nt_rows(
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
    let target = Target::pick(kernel);
    NT_BLOCK.with(|cell| {
        let mut packed = cell.borrow_mut();
        grow(&mut packed, k * LANES);
        // SAFETY: the asserts above and the `grow` are `nt_rows`' contract;
        // `target` carries the proof of AVX2.
        unsafe {
            match target.avx2 {
                #[cfg(target_arch = "x86_64")]
                true => nt_rows_avx2(target, k, rows, w, bias, &mut packed, out),
                _ => nt_rows(target, k, rows, w, bias, &mut packed, out),
            }
        }
    });
}

/// `gemm_nt_rows` over one slice per row.
///
/// # Panics
///
/// As `gemm_nt_rows`.
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

/// **The one body of `gemm_nt`**, lanes across images as in [`conv2d_x8`]:
/// each block of up to eight rows is transposed by [`pack_x8`] into the
/// interleaved `[k, 8]` `packed` (a short block's missing lanes are zeros),
/// so step `p` is the eight rows' `x[p]` in one vector. A tile of
/// [`NT_OUT`] accumulator vectors, one per output, runs `p = 0..k` from
/// zero — one load of the step, and per output one broadcast of `w[r, p]`
/// read where it lies, a separate mul and add — and the bias is added per
/// lane last: `affine_row`'s order, so a lane's bits are its row's whatever
/// shares the vector. A tile reaching past the last output repeats the last
/// weight row in its spare accumulators and stores only the outputs that
/// exist, as a padded lane is computed and dropped. Always inlined: into
/// `gemm_nt_rows` (the baseline compilation) and into [`nt_rows_avx2`].
///
/// # Safety
///
/// Every row of `rows` has exactly `k` values, `w.len() == m·k` with
/// `m = bias.len()`, `out.len() == rows.len()·m` and `packed.len() >= k·8`.
#[inline(always)]
unsafe fn nt_rows(
    target: Target,
    k: usize,
    rows: Rows<'_>,
    w: &[f32],
    bias: &[f32],
    packed: &mut [f32],
    out: &mut [f32],
) {
    let m = bias.len();
    for i0 in (0..rows.len()).step_by(LANES) {
        let count = LANES.min(rows.len() - i0);
        let block: [&[f32]; LANES] =
            std::array::from_fn(|l| if l < count { rows.row(i0 + l) } else { &[] });
        // SAFETY: `count <= 8` rows of exactly `k` values, `packed` holds
        // `k·8`.
        pack_x8(target, &block[..count], k, packed);
        for r0 in (0..m).step_by(NT_OUT) {
            // SAFETY: row `min(r0 + o, m − 1) < m` of `w = [m, k]` starts
            // inside it.
            let wp: [*const f32; NT_OUT] =
                std::array::from_fn(|o| w.as_ptr().add((r0 + o).min(m - 1) * k));
            let mut acc = [[0.0f32; LANES]; NT_OUT];
            for p in 0..k {
                // SAFETY: `p < k`, so the load reads step `p` of `packed`
                // (`k·8` values) and `wp[o] + p` a value of a weight row.
                let x = load8(packed.as_ptr().add(p * LANES));
                for (chain, wp) in acc.iter_mut().zip(&wp) {
                    mul_add(chain, *wp.add(p), &x);
                }
            }
            for (o, chain) in acc.iter().enumerate().take(m - r0) {
                for (l, &v) in chain.iter().enumerate().take(count) {
                    out[(i0 + l) * m + r0 + o] = v + bias[r0 + o];
                }
            }
        }
    }
}

/// [`nt_rows`] compiled for AVX2.
///
/// # Safety
///
/// As [`nt_rows`]; the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nt_rows_avx2(
    target: Target,
    k: usize,
    rows: Rows<'_>,
    w: &[f32],
    bias: &[f32],
    packed: &mut [f32],
    out: &mut [f32],
) {
    nt_rows(target, k, rows, w, bias, packed, out)
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
/// whatever shares the vector. It returns the accumulators, `acc[o][p]` for
/// channel `oc0 + o` at position `at[p]`: stored as they are by
/// [`tile_into`], pooled first by [`direct_oc_block`] under window 2.
///
/// Larger tiles and a const-generic kernel size were tried and dropped
/// (module docs).
///
/// # Safety
///
/// `g` is a valid geometry (`oh = h − kh + 1`, `ow = w − kw + 1`),
/// `weights.len() == c_out·c_in·kh·kw`, `oc0 + OC <= c_out <= bias.len()`;
/// for each input cell `oy·w + ox` of `at`, `oy < oh` and `input` is valid
/// for reading the 8 values at `(c·h·w + (oy + ky)·w + ox + kx)·STEP` for
/// every tap `(c, ky, kx)`.
#[inline(always)]
unsafe fn tile<const OC: usize, const N: usize, const STEP: usize>(
    oc0: usize,
    at: [usize; N],
    g: &BatchGeometry,
    input: *const f32,
    weights: &[f32],
    bias: &[f32],
) -> [[Lanes; N]; OC] {
    let ktaps = g.c_in * g.kh * g.kw;
    let mut acc: [[Lanes; N]; OC] = std::array::from_fn(|o| [[bias[oc0 + o]; LANES]; N]);
    // One read pointer per position and per channel, advanced a row at a
    // time (taps are consecutive in `weights`); recomputing each address
    // from `(c, ky, kx)` instead measured 3–7 % slower on 3C's three stages.
    // `wrapping_add`: past the last tap of the last channel the input
    // pointers step outside `input`, where they are never read.
    let mut xp: [*const f32; N] = std::array::from_fn(|p| input.wrapping_add(at[p] * STEP));
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
    acc
}

/// A [`tile`] stored unpooled: for each `(input cell, output cell)` of
/// `at`, channel `o`'s vector goes to that output cell of plane `o`,
/// `stride` cells apart.
///
/// # Safety
///
/// [`tile`]'s contract for the input cells of `at`, and `out` is valid for
/// writing the 8 values at `(o·stride + output cell)·STEP` for every
/// `o < OC`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_into<const OC: usize, const N: usize, const STEP: usize>(
    oc0: usize,
    at: [(usize, usize); N],
    g: &BatchGeometry,
    input: *const f32,
    weights: &[f32],
    bias: &[f32],
    out: *mut f32,
    stride: usize,
) {
    let acc = tile::<OC, N, STEP>(oc0, at.map(|(cell, _)| cell), g, input, weights, bias);
    for (o, chains) in acc.iter().enumerate() {
        for (&chain, &(_, cell)) in chains.iter().zip(&at) {
            // SAFETY: this function's contract, channel `o`.
            store8(out.add((o * stride + cell) * STEP), chain);
        }
    }
}

/// The `OC` channels starting at `oc0`, as a walk over **vector
/// positions**: a row of `ow >= 8` columns is covered by `ceil(ow / 8)`
/// 8-lane vectors at `ox = 0, 8, …` with the last one placed at `ow − 8`,
/// where it overlaps its neighbour and recomputes up to 7 columns. The
/// overlap is bit-safe: a lane's value depends only on which output element
/// it owns (see [`tile`]), so a cell stored twice receives the same bits
/// twice — which is what lets a full vector stand in for a scalar loop over
/// the `ow % 8` ragged columns.
///
/// * `window = 1`: `out` is the `[c_out, oh, ow]` conv maps. The positions
///   of the plane are taken in row-major order two at a time — a pair may
///   straddle a row end — so every [`tile`] call but possibly the last runs
///   `2 × OC` independent add chains.
/// * `window = 2`: `out` is the `[c_out, oh/2, ow/2]` **max-pooled** maps,
///   and no conv cell is stored. Each tile is the vertical pair `(2py, ox)`,
///   `(2py + 1, ox)` — the same `2 × OC` chains — and [`pool_row_pair`]
///   reduces its two rows to the four pooled cells `ox/2 .. ox/2 + 4` of
///   pooled row `py` in registers (`ox` is even: `ow` is). The overlapped
///   last vector pools whole windows too, so its repeated cells are the
///   same bits again.
///
/// Always inlined: into [`direct_block`] (the baseline compilation) and
/// into [`direct_oc_block_avx2`].
///
/// # Safety
///
/// `g` is a valid geometry with `ow >= 8`, `window` is 1 or 2 and tiles
/// `oh × ow`, `input.len() == c_in·h·w`, `weights.len() ==
/// c_out·c_in·kh·kw`, `bias.len() == c_out`, `out.len() ==
/// c_out·(oh/window)·(ow/window)` and `oc0 + OC <= c_out`.
#[inline(always)]
unsafe fn direct_oc_block<const OC: usize>(
    oc0: usize,
    g: &BatchGeometry,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    window: usize,
    out: &mut [f32],
) {
    let per_row = g.ow.div_ceil(LANES);
    let x = input.as_ptr();
    if window == 2 {
        let (ph, pw) = (g.oh / 2, g.ow / 2);
        // SAFETY: `oc0 < c_out`, so the pooled planes of this block start
        // inside `out`.
        let planes = out.as_mut_ptr().add(oc0 * ph * pw);
        for py in 0..ph {
            for v in 0..per_row {
                let ox = (v * LANES).min(g.ow - LANES);
                let top = 2 * py * g.w + ox;
                // SAFETY: both rows `2py + 1 <= oh − 1` and `ox + 8 <= ow`,
                // so the loads are those of the `window = 1` walk below; the
                // highest index stored is (OC − 1)·ph·pw + (ph − 1)·pw +
                // (ow − 8)/2 + 3 = OC·ph·pw − 1 past `planes`, and
                // (oc0 + OC)·ph·pw <= c_out·ph·pw = out.len().
                let acc = tile::<OC, 2, 1>(oc0, [top, top + g.w], g, x, weights, bias);
                for (o, &[upper, lower]) in acc.iter().enumerate() {
                    let cell = planes.add((o * ph + py) * pw + ox / 2);
                    cell.cast::<[f32; 4]>()
                        .write_unaligned(pool_row_pair(upper, lower));
                }
            }
        }
        return;
    }
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
    // — which with this function's contract is the whole of `tile_into`'s.
    for _ in 0..positions / 2 {
        let at = [next(), next()];
        tile_into::<OC, 2, 1>(oc0, at, g, x, weights, bias, planes, plane);
    }
    if positions % 2 == 1 {
        let at = [next()];
        tile_into::<OC, 1, 1>(oc0, at, g, x, weights, bias, planes, plane);
    }
}

/// The 2×2 max pool of the four windows under eight adjacent columns of two
/// conv rows, `upper` (row `2py`) and `lower` (row `2py + 1`): pooled cell
/// `j` scans `a = upper[2j]`, `b = upper[2j + 1]`, `c = lower[2j]`,
/// `d = lower[2j + 1]` in that order, a later cell replacing the running
/// best only when **strictly greater** — [`crate::pool`]'s scan, so ties and
/// `-0.0` / `+0.0` keep the earlier cell, a leading NaN wins and a later
/// NaN is skipped. Never a max tree: with `c` NaN and `d` the largest,
/// `max(max(a, b), max(c, d))` is `max(a, b)`, the scan `d`.
///
/// The AVX2 compilation is four in-register shuffles and three `vmaxps`
/// per call (whose operand order is exactly `if x > best`). The form
/// matters: building the halves as `[upper, lower][l / 4][…]` instead
/// compiled to lane inserts through the stack.
#[inline(always)]
fn pool_row_pair(upper: Lanes, lower: Lanes) -> [f32; 4] {
    // the even columns of both rows, `[a; c]`, and the odd ones, `[b; d]`
    let even: Lanes = std::array::from_fn(|l| {
        if l < 4 {
            upper[2 * l]
        } else {
            lower[2 * l - 8]
        }
    });
    let odd: Lanes = std::array::from_fn(|l| {
        if l < 4 {
            upper[2 * l + 1]
        } else {
            lower[2 * l - 7]
        }
    });
    // `b` over `a` on every lane (the high half's `d` over `c` is unused),
    // then `c` and `d` over that
    let mut ab = even;
    for (best, x) in ab.iter_mut().zip(odd) {
        if x > *best {
            *best = x;
        }
    }
    let mut best: [f32; 4] = std::array::from_fn(|j| ab[j]);
    for later in [&even, &odd] {
        for (best, &x) in best.iter_mut().zip(&later[4..]) {
            if x > *best {
                *best = x;
            }
        }
    }
    best
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
    window: usize,
    out: &mut [f32],
) {
    direct_oc_block::<OC>(oc0, g, input, weights, bias, window, out)
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
#[allow(clippy::too_many_arguments)]
unsafe fn direct_block<const OC: usize>(
    target: Target,
    oc0: usize,
    g: &BatchGeometry,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    window: usize,
    out: &mut [f32],
) {
    match target.avx2 {
        #[cfg(target_arch = "x86_64")]
        true => direct_oc_block_avx2::<OC>(oc0, g, input, weights, bias, window, out),
        _ => direct_oc_block::<OC>(oc0, g, input, weights, bias, window, out),
    }
}

/// Crate-internal entry for the lanes-across-a-row convolution: convolves
/// one `[c_in, h, w]` image straight from its feature maps and max-pools it
/// by `window` (1, the identity, or 2) in the same pass, writing every cell
/// of the `[c_out, oh/window, ow/window]` output — no conv cell is stored
/// under window 2 — on the compilation `target` names. Whether it applies
/// — `ow >=` [`DIRECT_MIN_OW`] and a window of 1 or 2 — is the caller's
/// question to ask *before* calling (`im2col::BatchGeometry::x8_images`
/// leaves it the images the x8 kernel does not take); every other case is
/// [`conv2d_x8`]'s.
///
/// Bit-exactness: each output lane accumulates `bias` first, then the taps
/// in channel-major `(c, ky, kx)` ascending order with separate mul + add —
/// [`crate::conv::conv2d_valid`]'s chain — and the pool is
/// [`crate::pool`]'s scan ([`pool_row_pair`]).
///
/// # Panics
///
/// Panics when a buffer length disagrees with the geometry, when the
/// geometry is not the valid one (`oh = h − kh + 1`, `ow = w − kw + 1`),
/// when `ow <` [`DIRECT_MIN_OW`], or when `window` is not 1 or 2 or does
/// not tile the maps — these are the invariants the unchecked loads and
/// stores of the tile rely on, so they are checked in release builds too.
pub(crate) fn conv2d_direct(
    target: Target,
    g: &BatchGeometry,
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    window: usize,
    out: &mut [f32],
) {
    assert!(
        (window == 1 || window == 2) && g.oh.is_multiple_of(window) && g.ow.is_multiple_of(window),
        "direct conv pools by 1 or 2 where the window tiles the maps, got {window}"
    );
    assert_eq!(input.len(), g.c_in * g.h * g.w);
    assert_eq!(weights.len(), g.c_out * g.c_in * g.kh * g.kw);
    assert_eq!(bias.len(), g.c_out);
    assert_eq!(out.len(), g.c_out * (g.oh / window) * (g.ow / window));
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
        // length, the geometry is the valid one, the window is 1 or 2 and
        // tiles the maps, and `ow >= 8` keeps the overlapped position
        // `ow − 8` in range; `oc0 + ocr <= c_out`.
        unsafe {
            match ocr {
                3 => direct_block::<3>(target, oc0, g, input, weights, bias, window, out),
                2 => direct_block::<2>(target, oc0, g, input, weights, bias, window, out),
                _ => direct_block::<1>(target, oc0, g, input, weights, bias, window, out),
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
            tile_into::<OC, 2, LANES>(oc0, at, g, packed.as_ptr(), weights, bias, out, stride);
        }
        if cells % 2 == 1 {
            let at = [next()];
            tile_into::<OC, 1, LANES>(oc0, at, g, packed.as_ptr(), weights, bias, out, stride);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::conv2d_valid;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn fill(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.random_range(-2.0..2.0)).collect()
    }

    /// One affine row `out = W·row + b` (`wd` is the row-major
    /// `[out.len(), k]` weight buffer) — the per-sample **specification** of
    /// the batched affine: both compilations of [`gemm_nt`] must match this
    /// loop bit for bit. Accumulates `k` ascending, bias after:
    /// bit-identical to [`crate::ops::matvec`]-then-bias.
    fn affine_row(row: &[f32], wd: &[f32], k: usize, bias: &[f32], out: &mut [f32]) {
        for (r, o) in out.iter_mut().enumerate() {
            let wrow = &wd[r * k..(r + 1) * k];
            let mut acc = 0.0f32;
            for (a, b) in wrow.iter().zip(row) {
                acc += a * b;
            }
            *o = acc + bias[r];
        }
    }

    /// The specification of the nt (bias-last) shape: [`affine_row`] per
    /// sample.
    fn naive_nt(k: usize, rows: &[&[f32]], w: &[f32], bias: &[f32]) -> Vec<f32> {
        let m = bias.len();
        let mut out = vec![0.0f32; rows.len() * m];
        for (i, row) in rows.iter().enumerate() {
            affine_row(row, w, k, bias, &mut out[i * m..(i + 1) * m]);
        }
        out
    }

    /// Both compilations of the head body against [`naive_nt`], bit for bit
    /// (a NaN only has to be a NaN in the same cell): the benchmark models'
    /// head shapes, row counts on both sides of the eight-row block edge and
    /// across two of them, output counts under, at and past one tile, and
    /// one case on dense edge values (signed zeros, ±inf, NaN, subnormals).
    #[test]
    fn x8_nt_kernels_bit_identical_across_shapes() {
        let mut rng = StdRng::seed_from_u64(43);
        for (rows_n, m, k, rate) in [
            (1usize, 1usize, 1usize, u32::MAX),
            (4, 4, 9, u32::MAX),
            (5, 10, 864, u32::MAX),
            (9, 3, 17, u32::MAX),
            (2, 6, 0, u32::MAX),
            (1, 13, 5, u32::MAX),
            (16, 1, 12, u32::MAX),
            (7, 10, 150, u32::MAX),
            (8, 10, 81, u32::MAX),
            (9, 10, 192, u32::MAX),
            (17, 10, 507, u32::MAX),
            (17, 12, 6, 4),
        ] {
            let samples: Vec<Vec<f32>> =
                (0..rows_n).map(|_| edge_fill(&mut rng, k, rate)).collect();
            let rows: Vec<&[f32]> = samples.iter().map(Vec::as_slice).collect();
            let w = edge_fill(&mut rng, m * k, rate);
            let bias = edge_fill(&mut rng, m, rate);
            let expected = naive_nt(k, &rows, &w, &bias);
            for kernel in GemmKernel::ALL {
                let mut out = vec![f32::NAN; rows_n * m];
                gemm_nt(kernel, k, &rows, &w, &bias, &mut out);
                for (got, want) in out.iter().zip(&expected) {
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{kernel:?} nt mismatch at ({rows_n},{m},{k}): {got:e} vs {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn x8_nt_zero_k_is_pure_bias() {
        for kernel in GemmKernel::ALL {
            let mut out = vec![9.0f32; 4];
            let rows: Vec<&[f32]> = vec![&[], &[]];
            gemm_nt(kernel, 0, &rows, &[], &[0.25, -1.0], &mut out);
            assert_eq!(out, [0.25, -1.0, 0.25, -1.0]);
        }
    }

    #[test]
    fn x8_nt_empty_row_set_writes_nothing() {
        for kernel in GemmKernel::ALL {
            let mut out = Vec::new();
            gemm_nt(kernel, 3, &[], &[0.0; 6], &[0.0, 0.0], &mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn x8_nt_known_values_match_hand_computation() {
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
    fn x8_nt_validates_buffer_shapes() {
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
        let avx2 = Target::pick(GemmKernel::Simd).avx2;
        assert_eq!(GemmKernel::detect() == GemmKernel::Simd, avx2);
        assert_eq!(GemmKernel::default(), GemmKernel::detect());
        assert!(!Target::pick(GemmKernel::Reference).avx2);
    }

    /// The dispatch rule, cell by cell: only `Simd` on a CPU with AVX2
    /// runs the AVX2 compilation, so `Simd` on a host without AVX2 runs
    /// exactly what `Reference` runs.
    #[test]
    fn resolve_is_the_dispatch_table() {
        for (cpu_has_avx2, kernel, avx2) in [
            (false, GemmKernel::Reference, false),
            (false, GemmKernel::Simd, false),
            (true, GemmKernel::Reference, false),
            (true, GemmKernel::Simd, true),
        ] {
            assert_eq!(
                Target::resolve(cpu_has_avx2, kernel),
                Target { avx2 },
                "cpu has avx2: {cpu_has_avx2}, {kernel:?}"
            );
        }
    }

    /// Output-tile torture for the head body: m short of one tile, exactly
    /// one (a head's ten classes), just past one and two (the last tile
    /// repeats the last weight row in its spare accumulators), with short and
    /// full eight-row blocks — both arms bit-identical to the naive loop.
    #[test]
    fn x8_nt_output_tails_match_reference() {
        let mut rng = StdRng::seed_from_u64(99);
        for (rows_n, m, k) in [
            (6usize, 10usize, 84usize),
            (3, 8, 5),
            (8, 11, 12),
            (5, 17, 12),
            (10, 23, 7),
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
                            for kernel in GemmKernel::ALL {
                                let mut out = vec![sentinel; c_out * oh * ow];
                                conv2d_direct(
                                    Target::pick(kernel),
                                    &g,
                                    &x,
                                    &kernels,
                                    &bias,
                                    1,
                                    &mut out,
                                );
                                for (i, (got, want)) in out.iter().zip(oracle.data()).enumerate() {
                                    let at = format!(
                                        "cell {i} of ow={ow} oh={oh} c_out={c_out} k={k} c_in={c_in}, {kernel:?}"
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

    /// The direct kernel pooling in its tile, on both compilations, against
    /// the staged oracle's conv → scan pool, bit for bit (a NaN only has to
    /// be a NaN in the same cell): every even output width from one vector
    /// to five — every overlap of the last vector, which pools whole windows
    /// too — crossed with heights of one, two and four row pairs, every
    /// channel-block remainder, kernels from 1×1 to 5×5 and one to three
    /// input channels, under windows 1 and 2 and on clean, sparse and dense
    /// edge values each. The output starts as a sentinel no arithmetic on
    /// these inputs produces, so a pooled cell the walk skipped shows.
    #[test]
    fn direct_conv_pooled_matches_oracle_for_every_even_width() {
        let sentinel = f32::from_bits(0x7fc0_dead);
        let mut rng = StdRng::seed_from_u64(0xD1EC7);
        for ow in (8usize..=40).step_by(2) {
            for oh in [2usize, 4, 8] {
                for c_out in 1usize..=7 {
                    for k in 1usize..=5 {
                        for c_in in 1usize..=3 {
                            let g = geometry(c_in, c_out, k, oh, ow);
                            for (rate, window) in [u32::MAX, 64, 6]
                                .into_iter()
                                .flat_map(|rate| [(rate, 1), (rate, 2)])
                            {
                                let x = Tensor::from_vec(
                                    edge_fill(&mut rng, c_in * g.h * g.w, rate),
                                    &[c_in, g.h, g.w],
                                )
                                .unwrap();
                                let kernels = Tensor::from_vec(
                                    edge_fill(&mut rng, c_out * c_in * k * k, rate),
                                    &[c_out, c_in, k, k],
                                )
                                .unwrap();
                                let bias = edge_fill(&mut rng, c_out, rate);
                                let oracle = staged_oracle(&x, &kernels, &bias, false, window);
                                for kernel in GemmKernel::ALL {
                                    let mut out = vec![sentinel; oracle.len()];
                                    conv2d_direct(
                                        Target::pick(kernel),
                                        &g,
                                        x.data(),
                                        kernels.data(),
                                        &bias,
                                        window,
                                        &mut out,
                                    );
                                    for (i, (got, want)) in
                                        out.iter().zip(oracle.data()).enumerate()
                                    {
                                        let at = format!(
                                            "cell {i} of ow={ow} oh={oh} c_out={c_out} k={k} c_in={c_in} window={window} rate={rate}, {kernel:?}"
                                        );
                                        assert_ne!(
                                            got.to_bits(),
                                            sentinel.to_bits(),
                                            "unwritten {at}"
                                        );
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
    }

    /// The direct kernel's window-2 rule on windows `[a, b; c, d]` built to
    /// tell the scan `a, b, c, d` under a strict `>` from its near misses,
    /// through an identity convolution (`k = 1`, weight 1, bias `-0.0`,
    /// which returns every `f32` unchanged) on four channels (blocks of 3
    /// and 1): `b` and `c` tying as `-0.0` / `+0.0` above `a` keep `b` (a
    /// column-first scan keeps `c`); `c` NaN with `d` the largest returns
    /// `d` (the max tree `max(max(a, b), max(c, d))` returns `max(a, b)`); a
    /// leading NaN wins its window. Each window visits every pooled column
    /// of a 2×12 map, so it meets both vectors and the overlap between them.
    #[test]
    fn direct_conv_pool_scans_in_order_not_as_a_tree() {
        // ([a, b, c, d], what the scan keeps)
        let windows: [([f32; 4], f32); 6] = [
            ([-1.0, -0.0, 0.0, -2.0], -0.0),
            ([-1.0, 0.0, -0.0, -2.0], 0.0),
            ([1.0, 2.0, f32::NAN, 3.0], 3.0),
            ([f32::NAN, 1.0, 2.0, 3.0], f32::NAN),
            ([2.0, 2.0, 1.0, 2.0], 2.0),
            (
                [f32::NEG_INFINITY, -1.0, f32::INFINITY, f32::MAX],
                f32::INFINITY,
            ),
        ];
        let g = geometry(1, 4, 1, 2, 12);
        let kernels = Tensor::from_vec(vec![1.0; 4], &[4, 1, 1, 1]).unwrap();
        let bias = [-0.0; 4];
        for shift in 0..6 {
            // pooled column `col` holds window `(shift + col) % 6`
            let mut data = vec![0.0f32; 2 * 12];
            for col in 0..6 {
                let ([a, b, c, d], _) = windows[(shift + col) % 6];
                data[2 * col..2 * col + 2].copy_from_slice(&[a, b]);
                data[12 + 2 * col..12 + 2 * col + 2].copy_from_slice(&[c, d]);
            }
            let x = Tensor::from_vec(data, &[1, 2, 12]).unwrap();
            let oracle = staged_oracle(&x, &kernels, &bias, false, 2);
            for kernel in GemmKernel::ALL {
                let mut out = vec![7.0f32; 4 * 6];
                conv2d_direct(
                    Target::pick(kernel),
                    &g,
                    x.data(),
                    kernels.data(),
                    &bias,
                    2,
                    &mut out,
                );
                for (i, (got, want)) in out.iter().zip(oracle.data()).enumerate() {
                    let (win, keep) = windows[(shift + i % 6) % 6];
                    let at = format!("channel {} window {win:?}, {kernel:?}", i / 6);
                    assert!(
                        got.to_bits() == keep.to_bits() || (got.is_nan() && keep.is_nan()),
                        "{at}: {got:e} ({:#x}), the scan keeps {keep:e}",
                        got.to_bits()
                    );
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{at}: {got:e} vs the oracle's {want:e}"
                    );
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
        kernel: GemmKernel,
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
        let activation = |xs: &mut [f32]| {
            if sigmoid {
                crate::math::sigmoid_slice(kernel, xs)
            }
        };
        for first in (0..xs.len()).step_by(8) {
            let count = (xs.len() - first).min(8);
            conv2d_x8(
                Target::pick(kernel),
                g,
                Rows::Tensors(xs),
                first,
                count,
                kernels,
                bias,
                window,
                &activation,
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
                            for kernel in GemmKernel::ALL {
                                let out = run_x8(
                                    kernel,
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
                                    "ow={ow} oh={oh} c_out={c_out} k={k} c_in={c_in} n={n} window={window} sigmoid={sigmoid}, {kernel:?}"
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
        for kernel in GemmKernel::ALL {
            let out = run_x8(
                kernel,
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
                        "image {i} window {col}, {kernel:?}: {got:e} vs {want:e}"
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
        let mut rng = StdRng::seed_from_u64(8);
        for f in 1usize..=70 {
            for count in 1usize..=8 {
                let data: Vec<Vec<f32>> = (0..count).map(|_| fill(&mut rng, f)).collect();
                let rows: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
                let mut firsts: Option<(Vec<f32>, Vec<f32>)> = None;
                for kernel in GemmKernel::ALL {
                    let at = format!("f={f} count={count} {kernel:?}");
                    let mut packed = vec![f32::NAN; f * 8];
                    // SAFETY: `count <= 8` rows of `f` values, `packed`
                    // holds `f·8`.
                    unsafe { pack_x8(Target::pick(kernel), &rows, f, &mut packed) };
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
                    unsafe {
                        unpack_x8(
                            Target::pick(kernel),
                            &packed,
                            f,
                            count,
                            &mut back[..count * f],
                        )
                    };
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
        for kernel in GemmKernel::ALL {
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
                        Target::pick(kernel),
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
    /// underflow), a geometry that is not the valid one, a short buffer, a
    /// window other than 1 or 2 or one that does not tile the maps, an
    /// output sized for the wrong window.
    #[test]
    fn direct_conv_rejects_what_its_unsafe_code_cannot_take() {
        for kernel in GemmKernel::ALL {
            let run_pooled = |input: usize, g: BatchGeometry, window: usize, out: usize| {
                std::panic::catch_unwind(move || {
                    let mut o = vec![0.0f32; out];
                    conv2d_direct(
                        Target::pick(kernel),
                        &g,
                        &vec![0.0; input],
                        &[0.0; 4],
                        &[0.0],
                        window,
                        &mut o,
                    );
                })
            };
            let run = |input: usize, g: BatchGeometry, out: usize| run_pooled(input, g, 1, out);
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
            assert!(run_pooled(9 * 9, good, 2, 4 * 4).is_ok(), "the pooled call");
            assert!(
                run_pooled(9 * 9, good, 2, 8 * 8).is_err(),
                "unpooled output under window 2"
            );
            assert!(run_pooled(9 * 9, good, 0, 0).is_err(), "zero window");
            let wide = geometry(1, 1, 2, 9, 9);
            assert!(run_pooled(10 * 10, wide, 3, 3 * 3).is_err(), "window 3");
            assert!(
                run_pooled(10 * 10, wide, 2, 4 * 4).is_err(),
                "window 2 over 9 columns"
            );
        }
    }
}
