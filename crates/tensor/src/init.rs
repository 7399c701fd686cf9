//! Weight initialisers.
//!
//! All initialisers take an explicit RNG so that every experiment in the
//! reproduction is seedable and deterministic.

use rand::{Rng, RngExt};

use crate::tensor::Tensor;

/// How to initialise a weight tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// All zeros (used for biases).
    Zeros,
    /// Uniform in `[-a, a]`.
    Uniform(f32),
    /// Xavier/Glorot uniform: `a = sqrt(6 / (fan_in + fan_out))`.
    ///
    /// The classic choice for the sigmoid/tanh nets the paper trains.
    XavierUniform,
    /// LeCun uniform: `a = sqrt(3 / fan_in)`.
    LecunUniform,
}

impl Init {
    /// Materialises a tensor of the given shape.
    ///
    /// `fan_in`/`fan_out` are the effective fan counts of the layer the
    /// weights belong to (for a conv layer, `fan_in = C_in·kH·kW`).
    ///
    /// # Panics
    ///
    /// Panics if a fan-dependent scheme is used with `fan_in + fan_out == 0`.
    pub fn build<R: Rng + ?Sized>(
        self,
        dims: &[usize],
        fan_in: usize,
        fan_out: usize,
        rng: &mut R,
    ) -> Tensor {
        match self {
            Init::Zeros => Tensor::zeros(dims),
            Init::Uniform(a) => random_uniform(dims, a, rng),
            Init::XavierUniform => {
                assert!(fan_in + fan_out > 0, "Xavier init requires non-zero fans");
                let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
                random_uniform(dims, a, rng)
            }
            Init::LecunUniform => {
                assert!(fan_in > 0, "LeCun init requires non-zero fan_in");
                let a = (3.0 / fan_in as f32).sqrt();
                random_uniform(dims, a, rng)
            }
        }
    }
}

/// Tensor with elements drawn i.i.d. from `U(-a, a)`.
pub(crate) fn random_uniform<R: Rng + ?Sized>(dims: &[usize], a: f32, rng: &mut R) -> Tensor {
    let shape = crate::Shape::new(dims);
    let n = shape.volume();
    let data = (0..n)
        .map(|_| {
            if a == 0.0 {
                0.0
            } else {
                rng.random_range(-a..a)
            }
        })
        .collect();
    Tensor::from_vec(data, dims).expect("length equals shape volume by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_init() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Init::Zeros.build(&[3, 3], 9, 9, &mut rng);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn uniform_respects_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Init::Uniform(0.25).build(&[1000], 1, 1, &mut rng);
        assert!(t.data().iter().all(|&x| x.abs() <= 0.25));
        // not degenerate
        assert!(t.data().iter().any(|&x| x.abs() > 0.01));
    }

    #[test]
    fn xavier_scale_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(3);
        let small_fan = Init::XavierUniform.build(&[2000], 10, 10, &mut rng);
        let big_fan = Init::XavierUniform.build(&[2000], 1000, 1000, &mut rng);
        let spread = |t: &Tensor| t.data().iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(spread(&small_fan) > spread(&big_fan));
    }

    #[test]
    fn lecun_bound() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = Init::LecunUniform.build(&[500], 3, 0, &mut rng);
        let bound = (3.0f32 / 3.0).sqrt();
        assert!(t.data().iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = Init::XavierUniform.build(&[64], 8, 8, &mut StdRng::seed_from_u64(7));
        let b = Init::XavierUniform.build(&[64], 8, 8, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_zero_bound_is_zeros() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = random_uniform(&[16], 0.0, &mut rng);
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "Xavier")]
    fn xavier_panics_on_zero_fans() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = Init::XavierUniform.build(&[4], 0, 0, &mut rng);
    }
}
