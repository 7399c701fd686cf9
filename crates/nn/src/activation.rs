//! Scalar activation functions and their derivatives.

use cdl_tensor::{math, GemmKernel};
use serde::{Deserialize, Serialize};

/// An elementwise nonlinearity.
///
/// The paper's baselines follow R. Palm's convolutional backprop setup, which
/// uses logistic sigmoid units throughout. `Identity` turns an activation
/// slot off (used by linear classifier heads that operate on raw scores).
///
/// Every variant **commutes with max pooling bit for bit**: pooling the raw
/// pre-activations with `cdl_tensor::pool`'s scan (first element wins ties,
/// a later one must be strictly greater) and activating the pooled map gives
/// exactly the bits of activating every cell and pooling afterwards. The
/// fused `conv → activation → max-pool` stage groups of
/// [`crate::network::Network`] rely on it and pool first, and
/// `tests::pool_first_*` checks every variant over every `f32`.
///
/// For `Sigmoid` this is a property of one particular operation sequence —
/// the polynomial `exp` of [`cdl_tensor::math`], whose range reduction
/// switches branch of the polynomial every `ln 2` — and not of the logistic
/// function, so it is measured, not derived: change a constant or an
/// operation there and the exhaustive sweep (`cargo test --release -p cdl-nn
/// --lib -- --ignored pool_first`, ~2 min) has to pass again.
/// [`Activation::apply_slice`] computes the same bits as `apply` per cell,
/// so the property carries over to it.
///
/// What the tests establish, walking the non-NaN `f32`s in ascending order:
/// `apply` is non-decreasing and never NaN; two *distinct* inputs with
/// numerically equal outputs have bit-identical outputs (no `-0.0`/`+0.0`
/// split inside a plateau); `-0.0` and `+0.0` map to equal values; and NaN
/// maps to NaN. Then the raw scan and the activated scan select the same
/// window element, or elements whose activations are the same bits, and a
/// NaN lands in the same cells.
///
/// **Adding a variant** means passing that sweep. The tests walk the
/// variants through an exhaustive `match`, so a new one does not compile
/// until the sweep covers it. One that fails it cannot simply be added: a
/// rectifier written with `f32::max`, for instance, maps NaN to 0, so a
/// window whose first raw element is NaN pools to NaN → 0 when pooled first
/// but to the maximum of the other cells when activated first. Such a
/// variant needs the stage plan to activate before pooling for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
    /// No-op.
    Identity,
}

impl Activation {
    /// Applies the function to a scalar. `Sigmoid` is
    /// [`cdl_tensor::math::sigmoid`] — the workspace's one logistic
    /// function, a polynomial `exp` rather than libm's, positive even at
    /// `-inf`.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Sigmoid => math::sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// Applies the function to every element of `xs` in place: exactly
    /// `for v in xs { *v = self.apply(*v) }`, bit for bit, with `Sigmoid`
    /// taking [`cdl_tensor::math::sigmoid_slice`] — the same loop, in the
    /// compilation `kernel` picks. The batched layers and the fused stage
    /// groups pass their batch's arm, `ActivationLayer::forward`
    /// [`GemmKernel::detect`].
    pub fn apply_slice(self, kernel: GemmKernel, xs: &mut [f32]) {
        match self {
            Activation::Sigmoid => math::sigmoid_slice(kernel, xs),
            Activation::Identity => {}
        }
    }

    /// Derivative expressed in terms of the *output* `y = apply(x)`
    /// (sigmoid: `y(1-y)`), which lets layers cache only their outputs.
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Identity => 1.0,
        }
    }

    /// Short display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Activation::Sigmoid => "sigmoid",
            Activation::Identity => "identity",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant, in declaration order. The `match` is exhaustive, so a
    /// new variant does not compile until it has a place in this walk — and
    /// with it in every sweep below.
    fn every_activation() -> impl Iterator<Item = Activation> {
        std::iter::successors(Some(Activation::Sigmoid), |a| match a {
            Activation::Sigmoid => Some(Activation::Identity),
            Activation::Identity => None,
        })
    }

    #[test]
    fn known_values() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert_eq!(Activation::Identity.apply(1.25), 1.25);
        assert_eq!(every_activation().count(), 2);
    }

    #[test]
    fn sigmoid_saturates() {
        assert!(Activation::Sigmoid.apply(100.0) > 0.999);
        assert!(Activation::Sigmoid.apply(-100.0) < 0.001);
    }

    /// Finite-difference check of derivative_from_output for all activations.
    #[test]
    fn derivative_matches_finite_difference() {
        let eps = 1e-3f32;
        for act in every_activation() {
            for &x in &[-2.0f32, -0.5, 0.1, 0.9, 2.5] {
                let y = act.apply(x);
                let fd = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative_from_output(y);
                assert!(
                    (fd - analytic).abs() < 1e-2,
                    "{act}: x={x} fd={fd} analytic={analytic}"
                );
            }
        }
    }

    /// How many non-NaN `f32`s there are: `-inf ..= -0.0` and `+0.0 ..= +inf`.
    const ORDERED_F32S: u64 = 2 * (f32::INFINITY.to_bits() as u64 + 1);

    /// The `i`-th non-NaN `f32` in ascending order (0 is `-inf`; `-0.0`
    /// comes just before `+0.0`).
    fn nth_f32(i: u64) -> f32 {
        let half = ORDERED_F32S / 2;
        if i < half {
            f32::from_bits((half - 1 - i) as u32 | 0x8000_0000)
        } else {
            f32::from_bits((i - half) as u32)
        }
    }

    /// Inverse of [`nth_f32`].
    fn ordinal(x: f32) -> u64 {
        let half = ORDERED_F32S / 2;
        let magnitude = u64::from(x.to_bits() & 0x7FFF_FFFF);
        if x.is_sign_negative() {
            half - 1 - magnitude
        } else {
            half + magnitude
        }
    }

    /// Walks `inputs` (ascending) and panics unless `act` satisfies the
    /// conditions documented on [`Activation`].
    fn assert_pool_first(act: Activation, inputs: impl Iterator<Item = f32>) {
        let mut prev: Option<(f32, f32)> = None;
        for x in inputs {
            let y = act.apply(x);
            assert!(!y.is_nan(), "{act}({x:e}) is NaN");
            if let Some((px, py)) = prev {
                assert!(y >= py, "{act} decreases: {px:e} -> {py:e}, {x:e} -> {y:e}");
                assert!(
                    y != py || x == px || y.to_bits() == py.to_bits(),
                    "{act}: {px:e} and {x:e} give equal outputs with different bits"
                );
            }
            prev = Some((x, y));
        }
        assert_eq!(act.apply(-0.0), act.apply(0.0), "{act} splits the zeros");
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7F80_0001)] {
            assert!(act.apply(nan).is_nan(), "{act} drops a NaN");
        }
    }

    /// Tier-1 version of the sweep: every 4099th value, plus every value
    /// of the neighbourhoods where a plateau begins or ends.
    #[test]
    fn pool_first_activations_commute_with_max_pool_strided() {
        assert_eq!(nth_f32(0), f32::NEG_INFINITY);
        assert_eq!(nth_f32(ORDERED_F32S - 1), f32::INFINITY);
        assert_eq!(ordinal(0.0), ordinal(-0.0) + 1);
        for act in every_activation() {
            assert_pool_first(act, (0..ORDERED_F32S).step_by(4099).map(nth_f32));
            for centre in [0.0f32, 1.0, 9.0, 17.0, 88.0, 104.0] {
                for c in [ordinal(-centre), ordinal(centre)] {
                    assert_pool_first(act, (c - 2000..c + 2000).map(nth_f32));
                }
            }
        }
    }

    /// All 4 278 190 082 non-NaN values per activation (~2 min in release,
    /// most of it the sigmoid's subnormal `r²` below `|x| = 2⁻⁶³`):
    /// `cargo test --release -p cdl-nn --lib -- --ignored pool_first`.
    #[test]
    #[ignore = "exhaustive f32 sweep; run in release"]
    fn pool_first_activations_commute_with_max_pool_exhaustive() {
        for act in every_activation() {
            assert_pool_first(act, (0..ORDERED_F32S).map(nth_f32));
        }
    }

    #[test]
    fn names_unique() {
        let names: std::collections::HashSet<&str> = every_activation().map(|a| a.name()).collect();
        assert_eq!(names.len(), every_activation().count());
    }

    #[test]
    fn serde_round_trip() {
        for a in every_activation() {
            let s = serde_json::to_string(&a).unwrap();
            assert_eq!(serde_json::from_str::<Activation>(&s).unwrap(), a);
        }
    }
}
