//! The synthetic MNIST generator.

use cdl_nn::trainer::LabelledSet;
use cdl_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::distort::{
    add_clutter, add_pixel_noise, occlude, sample_difficulty, sample_distortion, warp_skeleton,
    DistortConfig,
};
use crate::raster::{rasterize, RasterConfig};
use crate::strokes::digit_skeleton;

/// Configuration for [`SyntheticMnist`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Rasterisation parameters (size, base thickness, anti-aliasing).
    pub raster: RasterConfig,
    /// Distortion magnitudes at full difficulty.
    pub distort: DistortConfig,
    /// Difficulty distribution exponent (`u^exp`); larger = easier dataset.
    pub difficulty_exponent: f32,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            raster: RasterConfig::default(),
            distort: DistortConfig::default(),
            difficulty_exponent: 1.35,
        }
    }
}

impl SyntheticConfig {
    /// An *easy-majority* profile approximating real MNIST's separability:
    /// most samples are clean enough that a linear classifier on early
    /// convolutional features already matches the full network — the regime
    /// in which the paper's accuracy-enhancement result (Table III) lives.
    ///
    /// The default profile has a heavier hard tail (clutter, occlusion,
    /// strong noise), which exercises the multi-stage cascade more but
    /// makes early features genuinely insufficient for some inputs.
    pub fn easy() -> Self {
        SyntheticConfig {
            raster: RasterConfig::default(),
            distort: crate::distort::DistortConfig {
                max_rotation: 0.40,
                max_scale: 0.22,
                max_translate: 0.10,
                max_shear: 0.32,
                max_wobble: 0.04,
                max_noise: 0.22,
                base_jitter: 0.15,
                max_clutter: 1,
                occlusion_prob: 0.25,
                occlusion_size: 6,
            },
            difficulty_exponent: 2.4,
        }
    }
}

/// A seeded procedural generator of MNIST-like digit images.
///
/// Images are `[1, size, size]` tensors in `[0, 1]`; labels are the digits
/// 0–9 drawn uniformly (like MNIST's near-uniform class balance). Sample `i`
/// of seed `s` is always the same image, independent of how many samples are
/// requested — experiments can regenerate subsets reproducibly.
#[derive(Debug, Clone)]
pub struct SyntheticMnist {
    config: SyntheticConfig,
}

/// A generated sample with its provenance, used by difficulty analyses.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The rendered image, `[1, size, size]`.
    pub image: Tensor,
    /// Digit label 0–9.
    pub label: usize,
    /// The difficulty that parameterised the distortions.
    pub difficulty: f32,
}

impl SyntheticMnist {
    /// Creates a generator.
    pub fn new(config: SyntheticConfig) -> Self {
        SyntheticMnist { config }
    }

    /// Generates sample `index` of stream `seed`.
    pub(crate) fn sample(&self, seed: u64, index: u64) -> Sample {
        // independent per-sample stream: splitmix the (seed, index) pair
        let mut rng = StdRng::seed_from_u64(mix(seed, index));
        let label = rng.random_range(0..10usize);
        self.sample_digit(label, &mut rng)
    }

    /// Generates a sample of a specific digit using the supplied RNG.
    pub(crate) fn sample_digit(&self, label: usize, rng: &mut StdRng) -> Sample {
        let difficulty = sample_difficulty(self.config.difficulty_exponent, rng);
        self.sample_with_difficulty(label, difficulty, rng)
    }

    /// Generates a sample of a specific digit at a fixed difficulty.
    pub fn sample_with_difficulty(
        &self,
        label: usize,
        difficulty: f32,
        rng: &mut StdRng,
    ) -> Sample {
        let skeleton = digit_skeleton(label as u8);
        let distortion = sample_distortion(&self.config.distort, difficulty, rng);
        let mut warped = warp_skeleton(&skeleton, &distortion, rng);
        add_clutter(&mut warped, distortion.clutter, rng);
        let raster_cfg = RasterConfig {
            thickness: (self.config.raster.thickness * distortion.thickness_scale).max(0.4),
            ..self.config.raster
        };
        let mut image = rasterize(&warped, &raster_cfg);
        if distortion.occlude {
            occlude(&mut image, self.config.distort.occlusion_size, rng);
        }
        add_pixel_noise(&mut image, distortion.noise_sigma, rng);
        Sample {
            image,
            label,
            difficulty,
        }
    }

    /// Generates `n` labelled samples.
    pub fn generate(&self, n: usize, seed: u64) -> LabelledSet {
        to_labelled_set(self.generate_samples(n, seed))
    }

    /// Generates `n` samples with difficulty provenance.
    ///
    /// Sample `i` draws from its own seeded stream, so generation is
    /// embarrassingly parallel: indices fan out across worker threads and
    /// the result is identical to the sequential order regardless of the
    /// worker count.
    pub(crate) fn generate_samples(&self, n: usize, seed: u64) -> Vec<Sample> {
        use rayon::prelude::*;
        (0..n as u64)
            .into_par_iter()
            .map(|i| self.sample(seed, i))
            .collect()
    }

    /// Generates a train/test split in the spirit of MNIST's 60k/10k.
    ///
    /// The two sets use disjoint sample streams.
    pub fn generate_split(
        &self,
        train_n: usize,
        test_n: usize,
        seed: u64,
    ) -> (LabelledSet, LabelledSet) {
        (
            self.generate(train_n, seed),
            self.generate(test_n, seed.wrapping_add(0x9E3779B97F4A7C15)),
        )
    }
}

impl Default for SyntheticMnist {
    fn default() -> Self {
        SyntheticMnist::new(SyntheticConfig::default())
    }
}

/// Converts generated samples into the training exchange format, dropping
/// the difficulty metadata.
pub(crate) fn to_labelled_set(samples: Vec<Sample>) -> LabelledSet {
    let mut images = Vec::with_capacity(samples.len());
    let mut labels = Vec::with_capacity(samples.len());
    for s in samples {
        images.push(s.image);
        labels.push(s.label);
    }
    LabelledSet { images, labels }
}

/// SplitMix64-style mixing of a (seed, index) pair into one RNG seed.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_valid_images() {
        let gen = SyntheticMnist::default();
        let set = gen.generate(50, 1);
        assert_eq!(set.len(), 50);
        for (img, &label) in set.images.iter().zip(&set.labels) {
            assert_eq!(img.dims(), &[1, 28, 28]);
            assert!(label < 10);
            assert!(img.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(img.sum() > 3.0, "image nearly blank");
        }
    }

    #[test]
    fn deterministic_per_seed_and_index() {
        let gen = SyntheticMnist::default();
        let a = gen.sample(7, 3);
        let b = gen.sample(7, 3);
        assert_eq!(a.image, b.image);
        assert_eq!(a.label, b.label);
        // different index or seed → different image
        assert_ne!(gen.sample(7, 4).image, a.image);
        assert_ne!(gen.sample(8, 3).image, a.image);
    }

    #[test]
    fn prefix_stability() {
        // requesting more samples must not change earlier ones
        let gen = SyntheticMnist::default();
        let short = gen.generate(5, 99);
        let long = gen.generate(20, 99);
        for i in 0..5 {
            assert_eq!(short.images[i], long.images[i]);
            assert_eq!(short.labels[i], long.labels[i]);
        }
    }

    #[test]
    fn classes_roughly_balanced() {
        let gen = SyntheticMnist::default();
        let set = gen.generate(2000, 5);
        let mut counts = [0usize; 10];
        for &l in &set.labels {
            counts[l] += 1;
        }
        for (d, &c) in counts.iter().enumerate() {
            assert!(c > 120 && c < 280, "digit {d}: {c} samples");
        }
    }

    #[test]
    fn difficulty_increases_image_deviation() {
        // images at high difficulty deviate more from the canonical rendering
        let gen = SyntheticMnist::default();
        let canonical = rasterize(&digit_skeleton(3), &gen.config.raster);
        let dev = |difficulty: f32| -> f32 {
            let mut total = 0.0;
            for i in 0..30u64 {
                let mut rng = StdRng::seed_from_u64(1000 + i);
                let s = gen.sample_with_difficulty(3, difficulty, &mut rng);
                total += s
                    .image
                    .data()
                    .iter()
                    .zip(canonical.data())
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f32>();
            }
            total
        };
        assert!(dev(0.9) > dev(0.05) * 1.3);
    }

    #[test]
    fn split_streams_are_disjoint() {
        let gen = SyntheticMnist::default();
        let (train, test) = gen.generate_split(20, 20, 3);
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 20);
        for tr in &train.images {
            for te in &test.images {
                assert_ne!(tr, te);
            }
        }
    }

    #[test]
    fn samples_keep_difficulty_metadata() {
        let gen = SyntheticMnist::default();
        let samples = gen.generate_samples(100, 11);
        assert!(samples.iter().all(|s| (0.0..=1.0).contains(&s.difficulty)));
        // difficulties vary
        let min = samples.iter().map(|s| s.difficulty).fold(1.0f32, f32::min);
        let max = samples.iter().map(|s| s.difficulty).fold(0.0f32, f32::max);
        assert!(max - min > 0.3);
    }

    #[test]
    fn mix_avoids_trivial_collisions() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..10u64 {
            for idx in 0..100u64 {
                assert!(seen.insert(mix(seed, idx)), "collision at {seed},{idx}");
            }
        }
    }
}
