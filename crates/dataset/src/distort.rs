//! Difficulty-parameterised distortions.
//!
//! Every synthetic sample carries a *difficulty* `d ∈ [0, 1]` that scales all
//! distortion magnitudes. The generator draws `d` from a distribution whose
//! mass sits near 0 (most handwriting is legible), giving the dataset exactly
//! the easy-majority / hard-minority structure that conditional deep learning
//! exploits.

use cdl_tensor::Tensor;
use rand::{Rng, RngExt};

use crate::strokes::{Point, Skeleton};

/// Distortion magnitudes at full difficulty (`d = 1`).
///
/// Each sample's actual magnitudes are these values scaled by its difficulty
/// (plus a small difficulty-independent base jitter, so even "easy" samples
/// are not pixel-identical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistortConfig {
    /// Maximum rotation, radians.
    pub max_rotation: f32,
    /// Maximum relative scale deviation (e.g. 0.25 → ±25%).
    pub max_scale: f32,
    /// Maximum translation as a fraction of the unit box.
    pub max_translate: f32,
    /// Maximum shear coefficient.
    pub max_shear: f32,
    /// Maximum control-point jitter (fraction of the unit box) — a cheap
    /// stand-in for elastic distortion.
    pub max_wobble: f32,
    /// Maximum additive pixel-noise standard deviation.
    pub max_noise: f32,
    /// Base (difficulty-independent) jitter floor applied to all knobs.
    pub base_jitter: f32,
    /// Maximum number of clutter strokes (distractor pen marks) at full
    /// difficulty.
    pub max_clutter: usize,
    /// Probability of an occlusion patch at full difficulty.
    pub occlusion_prob: f32,
    /// Maximum occlusion patch side, pixels.
    pub occlusion_size: usize,
}

impl Default for DistortConfig {
    fn default() -> Self {
        DistortConfig {
            max_rotation: 0.62, // ~36 degrees
            max_scale: 0.30,
            max_translate: 0.14,
            max_shear: 0.50,
            max_wobble: 0.065,
            max_noise: 0.40,
            base_jitter: 0.15,
            max_clutter: 3,
            occlusion_prob: 0.65,
            occlusion_size: 8,
        }
    }
}

impl DistortConfig {
    /// Effective knob scale at difficulty `d`: `base_jitter + (1-base)·d`.
    fn level(&self, d: f32) -> f32 {
        self.base_jitter + (1.0 - self.base_jitter) * d.clamp(0.0, 1.0)
    }
}

/// A sampled affine + wobble distortion (the geometric part).
#[derive(Debug, Clone, PartialEq)]
pub struct Distortion {
    /// 2×2 linear part (rotation·shear·scale), row-major.
    pub linear: [f32; 4],
    /// Translation (unit-box units).
    pub translate: (f32, f32),
    /// Per-point jitter displacements are drawn with this sigma.
    pub wobble_sigma: f32,
    /// Additive pixel noise sigma.
    pub noise_sigma: f32,
    /// Stroke thickness multiplier.
    pub thickness_scale: f32,
    /// Number of clutter strokes to add.
    pub clutter: usize,
    /// Whether to apply an occlusion patch.
    pub occlude: bool,
}

/// Samples a distortion for difficulty `d` using `rng`.
pub(crate) fn sample_distortion<R: Rng + ?Sized>(
    cfg: &DistortConfig,
    d: f32,
    rng: &mut R,
) -> Distortion {
    let lv = cfg.level(d);
    let angle = rng.random_range(-1.0f32..1.0) * cfg.max_rotation * lv;
    let scale = 1.0 + rng.random_range(-1.0f32..1.0) * cfg.max_scale * lv;
    let shear = rng.random_range(-1.0f32..1.0) * cfg.max_shear * lv;
    let (sin, cos) = angle.sin_cos();
    // linear = R(angle) · Shear(x) · s
    let linear = [
        scale * (cos + shear * -sin),
        scale * -sin,
        scale * (sin + shear * cos),
        scale * cos,
    ];
    let d = d.clamp(0.0, 1.0);
    let clutter = if cfg.max_clutter == 0 {
        0
    } else {
        let expected = cfg.max_clutter as f32 * d;
        expected.floor() as usize + (rng.random_range(0.0f32..1.0) < expected.fract()) as usize
    };
    let occlude = rng.random_range(0.0f32..1.0) < cfg.occlusion_prob * d;
    Distortion {
        linear,
        translate: (
            rng.random_range(-1.0f32..1.0) * cfg.max_translate * lv,
            rng.random_range(-1.0f32..1.0) * cfg.max_translate * lv,
        ),
        wobble_sigma: cfg.max_wobble * lv,
        noise_sigma: cfg.max_noise * d,
        thickness_scale: 1.0 + rng.random_range(-0.35f32..0.55) * lv,
        clutter,
        occlude,
    }
}

/// Applies the geometric part of a distortion to a skeleton (about the box
/// centre), including per-point wobble.
pub(crate) fn warp_skeleton<R: Rng + ?Sized>(
    skeleton: &Skeleton,
    distortion: &Distortion,
    rng: &mut R,
) -> Skeleton {
    let c = 0.5f32;
    let l = &distortion.linear;
    let strokes = skeleton
        .strokes
        .iter()
        .map(|stroke| {
            stroke
                .iter()
                .map(|p| {
                    let x = p.x - c;
                    let y = p.y - c;
                    let wx = gaussian(rng) * distortion.wobble_sigma;
                    let wy = gaussian(rng) * distortion.wobble_sigma;
                    Point::new(
                        c + l[0] * x + l[1] * y + distortion.translate.0 + wx,
                        c + l[2] * x + l[3] * y + distortion.translate.1 + wy,
                    )
                })
                .collect()
        })
        .collect();
    Skeleton { strokes }
}

/// Adds clipped Gaussian pixel noise in place.
pub(crate) fn add_pixel_noise<R: Rng + ?Sized>(img: &mut Tensor, sigma: f32, rng: &mut R) {
    if sigma <= 0.0 {
        return;
    }
    for v in img.data_mut() {
        *v = (*v + gaussian(rng) * sigma).clamp(0.0, 1.0);
    }
}

/// Adds `count` random short "clutter" strokes (distractor pen marks) to a
/// skeleton — the synthetic analogue of the messy backgrounds and stray
/// marks that make real handwriting samples hard.
pub(crate) fn add_clutter<R: Rng + ?Sized>(skeleton: &mut Skeleton, count: usize, rng: &mut R) {
    for _ in 0..count {
        let cx = rng.random_range(0.08f32..0.92);
        let cy = rng.random_range(0.08f32..0.92);
        let angle = rng.random_range(0.0f32..std::f32::consts::TAU);
        let len = rng.random_range(0.08f32..0.22);
        let (dx, dy) = (angle.cos() * len, angle.sin() * len);
        skeleton.strokes.push(vec![
            Point::new(cx - dx / 2.0, cy - dy / 2.0),
            Point::new(cx + dx / 2.0, cy + dy / 2.0),
        ]);
    }
}

/// Blanks a random square patch of the image (simulating over-/under-inking
/// or damage). `max_side` bounds the patch size; patches are clamped to the
/// image.
pub(crate) fn occlude<R: Rng + ?Sized>(img: &mut Tensor, max_side: usize, rng: &mut R) {
    let dims = img.dims().to_vec();
    let (h, w) = match dims.as_slice() {
        [1, h, w] => (*h, *w),
        [h, w] => (*h, *w),
        _ => return,
    };
    if max_side == 0 || h == 0 || w == 0 {
        return;
    }
    let side = rng.random_range(2..=max_side.max(2)).min(h).min(w);
    let y0 = rng.random_range(0..=h - side);
    let x0 = rng.random_range(0..=w - side);
    let data = img.data_mut();
    for y in y0..y0 + side {
        for x in x0..x0 + side {
            data[y * w + x] = 0.0;
        }
    }
}

/// Standard normal sample via Box–Muller (keeps us off external distributions).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    loop {
        let u1: f32 = rng.random_range(f32::EPSILON..1.0);
        let u2: f32 = rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// Draws a difficulty in `[0, 1]` whose density concentrates near zero.
///
/// Implemented as `u^exponent` for `u ~ U(0,1)`; the default exponent (2.2)
/// puts ~73% of samples below difficulty 0.5 and ~10% above 0.8 — a mostly
/// easy distribution with a meaningful hard tail, mirroring the paper's
/// observation that "only a small fraction of inputs require the full
/// computational effort".
pub(crate) fn sample_difficulty<R: Rng + ?Sized>(exponent: f32, rng: &mut R) -> f32 {
    let u: f32 = rng.random_range(0.0f32..1.0);
    u.powf(exponent.max(0.01))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strokes::digit_skeleton;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn zero_difficulty_keeps_small_jitter() {
        let cfg = DistortConfig::default();
        let d = sample_distortion(&cfg, 0.0, &mut rng());
        // at difficulty 0 the base jitter keeps knobs small but non-degenerate
        assert!(d.noise_sigma == 0.0);
        assert!(d.wobble_sigma <= cfg.max_wobble * cfg.base_jitter + 1e-6);
        let rot_bound = cfg.max_rotation * cfg.base_jitter;
        // linear part is near identity
        assert!((d.linear[0] - 1.0).abs() < 0.5 + rot_bound);
        assert!(d.linear[1].abs() < 0.5);
    }

    #[test]
    fn difficulty_scales_distortion() {
        let cfg = DistortConfig::default();
        let mut r = rng();
        let mut easy_mag = 0.0f32;
        let mut hard_mag = 0.0f32;
        for _ in 0..200 {
            let e = sample_distortion(&cfg, 0.05, &mut r);
            let h = sample_distortion(&cfg, 0.95, &mut r);
            easy_mag += e.translate.0.abs() + e.translate.1.abs() + e.wobble_sigma;
            hard_mag += h.translate.0.abs() + h.translate.1.abs() + h.wobble_sigma;
        }
        assert!(
            hard_mag > easy_mag * 2.0,
            "easy {easy_mag} vs hard {hard_mag}"
        );
    }

    #[test]
    fn warp_preserves_topology() {
        let sk = digit_skeleton(5);
        let cfg = DistortConfig::default();
        let mut r = rng();
        let dist = sample_distortion(&cfg, 0.5, &mut r);
        let warped = warp_skeleton(&sk, &dist, &mut r);
        assert_eq!(warped.strokes.len(), sk.strokes.len());
        for (a, b) in warped.strokes.iter().zip(&sk.strokes) {
            assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn warp_with_identity_is_near_noop() {
        let sk = digit_skeleton(3);
        let dist = Distortion {
            linear: [1.0, 0.0, 0.0, 1.0],
            translate: (0.0, 0.0),
            wobble_sigma: 0.0,
            noise_sigma: 0.0,
            thickness_scale: 1.0,
            clutter: 0,
            occlude: false,
        };
        let warped = warp_skeleton(&sk, &dist, &mut rng());
        for (a, b) in warped
            .strokes
            .iter()
            .flatten()
            .zip(sk.strokes.iter().flatten())
        {
            assert!((a.x - b.x).abs() < 1e-6);
            assert!((a.y - b.y).abs() < 1e-6);
        }
    }

    #[test]
    fn pixel_noise_changes_image_but_stays_clamped() {
        let mut img = Tensor::full(&[1, 8, 8], 0.5);
        let before = img.clone();
        add_pixel_noise(&mut img, 0.2, &mut rng());
        assert_ne!(img, before);
        assert!(img.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // zero sigma is a no-op
        let mut img2 = before.clone();
        add_pixel_noise(&mut img2, 0.0, &mut rng());
        assert_eq!(img2, before);
    }

    #[test]
    fn difficulty_distribution_is_mostly_easy() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| sample_difficulty(2.2, &mut r)).collect();
        let below_half = samples.iter().filter(|&&d| d < 0.5).count() as f64 / n as f64;
        let above_08 = samples.iter().filter(|&&d| d > 0.8).count() as f64 / n as f64;
        assert!(below_half > 0.65, "below 0.5: {below_half}");
        assert!(above_08 > 0.05 && above_08 < 0.20, "above 0.8: {above_08}");
        assert!(samples.iter().all(|&d| (0.0..=1.0).contains(&d)));
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let mut r = rng();
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut r)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
