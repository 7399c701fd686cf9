//! The workspace's exponential and logistic function: one operation
//! sequence, written once — scalar Rust, the definition — and compiled
//! twice: [`sigmoid_slice`] is a plain loop over it, instantiated for the
//! build's baseline target and under `target_feature(enable = "avx2")`,
//! where the vectoriser runs eight elements to a register.
//!
//! Every sigmoid of the cascade goes through here: `Activation::Sigmoid`
//! (the per-image oracle, training, the batched layers and the fused stage
//! groups of `cdl_nn`), `LinearClassifier::outputs` and the
//! `ConfidencePolicy::SigmoidProb` exit gate of `cdl_core`. There is no
//! libm `expf` behind any of them, so a model, an oracle or a bit-identity
//! claim no longer depends on which libm the host ships, and no switch
//! selects another implementation. `ops::softmax` (one per final-exit image)
//! still calls libm `exp`; it is not on a measured hot path, so it was left
//! alone.
//!
//! # Algorithm
//!
//! `exp` is the classic Cephes `expf` (S. Moshier, `cephes/single/expf.c`;
//! the constants below are that file's), made branch-free:
//!
//! 1. **Clamp** `x` to `[−87, 87]`. A NaN passes through (`if x > hi { hi } else { x }`, not `f32::min`, which
//!    would drop it).
//! 2. **`k = round(x · log2 e)`** by adding and subtracting `1.5 · 2²³`: at
//!    that magnitude an `f32` has no fraction bits left, so the addition
//!    rounds to the nearest integer (ties to even) and the subtraction is
//!    exact. Needs `|x · log2 e| < 2²²`.
//! 3. **Cody–Waite reduction** `r = (x − k·C1) − k·C2` with `C1 + C2 = ln 2`
//!    and `C1 = 0.693359375` carrying only 9 significant bits, so `k·C1` is
//!    exact for `|k| < 2¹⁵` and `|r| ≲ ln 2 / 2`.
//! 4. **`e^r ≈ 1 + r + r²·P(r)`**, `P` the degree-5 Cephes polynomial in
//!    Horner form.
//! 5. **`2^k`** assembled from its exponent bits, `(k + 127) << 23`, and one
//!    final multiply. Needs `k + 127 ∈ 1..=254`. `k` is read as an integer
//!    straight from the low mantissa bits of step 2's sum, so there is no
//!    float-to-int conversion.
//!
//! [`sigmoid`] is `1 / (1 + exp(−x))`.
//!
//! # Why no FMA
//!
//! Every `a·b + c` above is a separate multiply and a separate add, two
//! roundings — the rule `crate::gemm` follows. A fused multiply-add rounds
//! once, so a build or a host that fused *some* of them would change
//! results; Rust never contracts `a * b + c` on its own, under any
//! `target_feature`, and a vectoriser may only repartition independent
//! elements, so every compilation of [`sigmoid_slice`]'s loop performs
//! [`sigmoid`]'s operations in [`sigmoid`]'s order on each element: equal
//! bits on every host by construction, confirmed over all 2³² patterns by
//! `slice_is_bit_identical_to_scalar_exhaustive`.
//!
//! # Monotonicity is tested, not assumed
//!
//! The fused stage groups of `cdl_nn` max-pool *before* they activate, which
//! is exact only if the computed sigmoid is non-decreasing over the ordered
//! `f32`s, maps NaN to NaN, and gives equal outputs identical bits (what
//! `cdl_nn::Activation`'s docs require of every variant). A polynomial
//! `exp` has no such property by construction — at every point where `k`
//! steps, two different reduction/polynomial roundings meet — so it is a
//! property of *this exact operation sequence with these constants*,
//! established by `cdl-nn`'s
//! exhaustive sweep over all 4 278 190 082 non-NaN `f32` (`cargo test
//! --release -p cdl-nn --lib -- --ignored pool_first`). Change an operation,
//! its order or a constant and that sweep has to be rerun.
//!
//! # Clamp choices and edge values
//!
//! The upper bound 87 (not Cephes' 88.72) keeps the smallest sigmoid,
//! `1/(1 + e⁸⁷) ≈ 1.6e-38`, a *normal* number: with 88 a quarter of all
//! `f32` inputs would produce a subnormal quotient (and the exhaustive sweep
//! takes half again as long on hosts that handle subnormals in microcode).
//! The lower bound −87 keeps `2^k` a normal number (`k ≥ −126`). Both are
//! tied to what the bit tricks need by `const` assertions below. Edge values,
//! all pinned by tests:
//!
//! * `sigmoid(0) = 0.5` exactly, for both zeros;
//! * `sigmoid(x) = 1` for `x ≥ 17.4` and `sigmoid(+∞) = 1`;
//! * `sigmoid(−∞) = sigmoid(−100) = sigmoid(−87) ≈ 1.6e-38` — **not 0**, as
//!   the libm formulation gave: the output is positive everywhere;
//! * NaN in ⇒ NaN out;
//! * `exp` saturates likewise: `exp(x) = exp(87)` above, `exp(−87)` below.
//!
//! # Measured
//!
//! Against `1/(1 + exp(−x))` evaluated in `f64` and rounded once, `sigmoid`
//! is within 2 ulp on a sweep of `[−90, 90]` (the test allows 4). On the
//! reference box the AVX2 compilation of the loop takes ~0.5 µs per 864
//! values (MNIST_2C's pooled C1 maps) — instruction for instruction the
//! vector loop of the hand-written intrinsics it replaced (PR 22: ×0.97–1.04
//! in process) — against ~2.2 µs for the libm formulation and ~1.0 µs for
//! the baseline compilation. The `len % 8` elements behind the last whole
//! vector run one at a time (~5 ns each; 150 values: ×0.92 of the parent,
//! whose tail was a 4-wide baseline loop); every slice the x8 convolution
//! hands over is a multiple of eight. **The loop must stay the straight
//! one**: written over chunks of eight the vectoriser picks the outer loop
//! and interleaves the chunks with shuffles, ×1.6 slower at 864 values.

use crate::gemm::{GemmKernel, Target};

/// Upper clamp of [`exp`]'s argument: `exp(x) = exp(87) ≈ 6.08e37` for
/// every `x ≥ 87`.
const EXP_HI: f32 = 87.0;
/// Lower clamp of [`exp`]'s argument: `exp(x) = exp(−87) ≈ 1.65e-38` for
/// every `x ≤ −87`.
const EXP_LO: f32 = -87.0;

const LOG2_E: f32 = std::f32::consts::LOG2_E;
/// `1.5 · 2²³`: adding it rounds to an integer, subtracting it is exact.
const ROUND_MAGIC: f32 = 12_582_912.0;
/// High part of `ln 2` (9 significant bits, so `k · LN2_HI` is exact).
// this and `P` are quoted digit for digit as Cephes prints them, which is
// more digits than an `f32` needs
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
/// `ln 2 − LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;
/// Cephes `expf` polynomial, highest degree first:
/// `e^r ≈ 1 + r + r²·(((((P[0]·r + P[1])·r + P[2])·r + P[3])·r + P[4])·r + P[5])`.
#[allow(clippy::excessive_precision)]
const P: [f32; 6] = [
    1.987_569_15e-4,
    1.398_199_950_7e-3,
    8.333_451_907_3e-3,
    4.166_579_589_4e-2,
    1.666_666_545_9e-1,
    5.000_000_120_1e-1,
];
/// Exponent bias of `f32`.
const BIAS: u32 = 127;
/// Width of the `f32` mantissa field.
const MANTISSA_BITS: u32 = 23;

// What the bit tricks need of the clamp bounds.
const _: () = {
    // the magic-number add rounds to an integer only below 2²²
    assert!(EXP_HI * LOG2_E < 4_194_304.0 && EXP_LO * LOG2_E > -4_194_304.0);
    // k = round(x · log2 e) lies within half of x · log2 e, so these bound
    // k + 127 to 1..=254: a normal number's exponent field at both ends
    assert!(EXP_HI * LOG2_E + 0.5 < 128.0);
    assert!(EXP_LO * LOG2_E - 0.5 > -127.0);
    // the smallest and the largest outputs are normal numbers
    assert!(exp(EXP_LO) >= f32::MIN_POSITIVE && exp(EXP_HI) <= f32::MAX);
    assert!(sigmoid(f32::NEG_INFINITY) >= f32::MIN_POSITIVE);
};

/// `e^x` in `f32`, saturating: the argument is clamped to `[−87, 87]`
/// first, so the result is always a positive
/// normal number (never 0, subnormal or infinite); NaN gives NaN. Within
/// 1 ulp of the exact value inside the clamp.
///
/// This function **is the definition**: every compilation of
/// [`sigmoid_slice`] performs exactly this sequence per element (see the
/// [module docs](self) for the algorithm and why it must not be
/// "simplified" into fused operations).
#[inline]
pub(crate) const fn exp(x: f32) -> f32 {
    // NaN fails both comparisons and passes through
    let x = if x > EXP_HI { EXP_HI } else { x };
    let x = if x < EXP_LO { EXP_LO } else { x };
    let shifted = x * LOG2_E + ROUND_MAGIC;
    let k = shifted - ROUND_MAGIC;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let mut p = P[0];
    p = p * r + P[1];
    p = p * r + P[2];
    p = p * r + P[3];
    p = p * r + P[4];
    p = p * r + P[5];
    let e = (p * (r * r) + r) + 1.0;
    // `shifted` holds k in its low mantissa bits, in two's complement (the
    // magic number's own low 9 bits are zero): adding the bias and shifting
    // the sum's low 9 bits into sign + exponent drops everything else. No
    // float-to-int conversion, so nothing to saturate. (For a NaN the scale
    // is arbitrary and the NaN in `e` carries through the multiply.)
    let scale = f32::from_bits(shifted.to_bits().wrapping_add(BIAS) << MANTISSA_BITS);
    e * scale
}

/// The logistic function `1 / (1 + e^{−x})` over `exp`: positive
/// everywhere (`≈ 1.6e-38` from `x = −87` down to `−∞`), exactly `0.5` at
/// both zeros, exactly `1` from `x ≈ 17.4` up to `+∞`, NaN for NaN.
#[inline]
pub const fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// Replaces every element of `xs` with its [`sigmoid`], **bit for bit**
/// what `for v in xs { *v = sigmoid(*v) }` stores — it is that loop, in
/// the compilation `kernel` picks, like every batched body of
/// [`crate::gemm`]: the AVX2 one for [`GemmKernel::Simd`] on a host with
/// AVX2, the baseline one otherwise. Batched callers pass their batch's
/// arm, per-image callers [`GemmKernel::detect`].
pub fn sigmoid_slice(kernel: GemmKernel, xs: &mut [f32]) {
    if Target::pick(kernel).avx2() {
        // SAFETY: `Target::pick` found AVX2 on this CPU.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            sigmoid_loop_avx2(xs)
        };
    } else {
        sigmoid_loop(xs)
    }
}

/// The one loop (module docs: it must stay this straight).
#[inline(always)]
fn sigmoid_loop(xs: &mut [f32]) {
    for v in xs {
        *v = sigmoid(*v);
    }
}

/// [`sigmoid_loop`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sigmoid_loop_avx2(xs: &mut [f32]) {
    sigmoid_loop(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Patterns per block; a block's slice is `BLOCK + t` long, `t` cycling
    /// through every tail length `0..8`.
    const BLOCK: u64 = 4096;

    /// Feeds the bit patterns `nth(0..count)` through [`sigmoid_slice`] on
    /// `kernel`'s compilation in slices of `BLOCK + t` values that start
    /// `BLOCK` apart — so every pattern sits in the vectorised part of a
    /// slice once and the patterns behind it in its remainder — and compares
    /// each cell with [`sigmoid`]: the same bits, or NaN for NaN.
    fn assert_slice_matches_scalar(kernel: GemmKernel, count: u64, nth: impl Fn(u64) -> u32) {
        let mut input: Vec<f32> = Vec::new();
        let mut got: Vec<f32> = Vec::new();
        for (block, start) in (0..count).step_by(BLOCK as usize).enumerate() {
            let end = (start + BLOCK + block as u64 % 8).min(count);
            input.clear();
            input.extend((start..end).map(|i| f32::from_bits(nth(i))));
            got.clone_from(&input);
            sigmoid_slice(kernel, &mut got);
            for (&x, &y) in input.iter().zip(&got) {
                let want = sigmoid(x);
                assert!(
                    y.to_bits() == want.to_bits() || (x.is_nan() && y.is_nan() && want.is_nan()),
                    "sigmoid_slice({x:e} = {:#x}) stored {:#x}, sigmoid gives {:#x} (slice of {})",
                    x.to_bits(),
                    y.to_bits(),
                    want.to_bits(),
                    input.len()
                );
            }
        }
    }

    /// Tier-1 version, on both arms: every 4099th bit pattern (NaNs of both
    /// signs included), every short slice length, and every pattern around
    /// the values where a branch of the scalar code or a plateau begins.
    #[test]
    fn slice_is_bit_identical_to_scalar_strided() {
        for kernel in GemmKernel::ALL {
            assert_slice_matches_scalar(kernel, (1 << 32) / 4099 + 1, |i| (i * 4099) as u32);
            for centre in [0.0f32, 1.0e-40, 1.0, 17.0, 87.0, 88.0, 104.0, f32::INFINITY] {
                for c in [centre.to_bits(), (-centre).to_bits()] {
                    assert_slice_matches_scalar(kernel, 5000, |i| {
                        c.wrapping_add(i as u32).wrapping_sub(2500)
                    });
                }
            }
            for len in 0..40u64 {
                assert_slice_matches_scalar(kernel, len, |i| (-3.0 + 0.17 * i as f32).to_bits());
            }
        }
    }

    /// All 2³² bit patterns, once per arm (~3.5 min in release): `cargo test
    /// --release -p cdl-tensor --lib -- --ignored slice_is_bit_identical_to_scalar`.
    #[test]
    #[ignore = "exhaustive sweep over every f32 bit pattern; run in release"]
    fn slice_is_bit_identical_to_scalar_exhaustive() {
        for kernel in GemmKernel::ALL {
            assert_slice_matches_scalar(kernel, 1 << 32, |i| i as u32);
        }
    }

    /// Distance in units in the last place between two positive floats.
    fn ulps(a: f32, b: f32) -> u32 {
        assert!(a > 0.0 && b > 0.0);
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn sigmoid_is_within_4_ulp_of_f64_on_minus_90_to_90() {
        let top = 90.0f32.to_bits();
        for magnitude in (0..=top).step_by(1021) {
            for x in [f32::from_bits(magnitude), -f32::from_bits(magnitude)] {
                // the reference saturates where `exp` does
                let arg = f64::from(x.max(EXP_LO));
                let want = (1.0 / (1.0 + (-arg).exp())) as f32;
                let d = ulps(sigmoid(x), want);
                assert!(
                    d <= 4,
                    "sigmoid({x:e}) = {:e}, f64 gives {want:e}: {d} ulp",
                    sigmoid(x)
                );
            }
        }
    }

    #[test]
    fn exp_is_within_1_ulp_of_f64_inside_the_clamp() {
        let top = EXP_HI.to_bits();
        for magnitude in (0..=top).step_by(1021) {
            for x in [f32::from_bits(magnitude), -f32::from_bits(magnitude)] {
                let want = f64::from(x).exp() as f32;
                let d = ulps(exp(x), want);
                assert!(
                    d <= 1,
                    "exp({x:e}) = {:e}, f64 gives {want:e}: {d} ulp",
                    exp(x)
                );
            }
        }
    }

    #[test]
    fn edge_values() {
        assert_eq!(sigmoid(0.0).to_bits(), 0.5f32.to_bits());
        assert_eq!(sigmoid(-0.0).to_bits(), 0.5f32.to_bits());
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(100.0), 1.0);
        assert_eq!(sigmoid(17.4), 1.0);
        assert!(sigmoid(16.0) < 1.0);
        // positive everywhere: the floor is 1/(1 + e^87), a normal number
        let floor = sigmoid(f32::NEG_INFINITY);
        assert!((f32::MIN_POSITIVE..2.0e-38).contains(&floor), "{floor:e}");
        assert_eq!(sigmoid(-100.0).to_bits(), floor.to_bits());
        assert_eq!(sigmoid(EXP_LO).to_bits(), floor.to_bits());
        assert!(sigmoid(-86.0) > floor);
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7F80_0001)] {
            assert!(sigmoid(nan).is_nan() && exp(nan).is_nan());
        }
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f32::INFINITY).to_bits(), exp(EXP_HI).to_bits());
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), exp(EXP_LO).to_bits());
    }
}
