//! Anti-aliased polyline rasterisation.
//!
//! A skeleton is "inked" by computing, for every pixel, the distance to the
//! nearest stroke segment and mapping it through a soft threshold — a cheap
//! signed-distance-field renderer that produces smooth, MNIST-like strokes
//! at 28×28.

use cdl_tensor::Tensor;

use crate::strokes::{Point, Skeleton};

/// Rasterisation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RasterConfig {
    /// Output image side length in pixels (MNIST: 28).
    pub size: usize,
    /// Stroke half-width in pixels.
    pub thickness: f32,
    /// Anti-aliasing falloff width in pixels.
    pub antialias: f32,
}

impl Default for RasterConfig {
    fn default() -> Self {
        RasterConfig {
            size: 28,
            thickness: 1.1,
            antialias: 0.9,
        }
    }
}

/// Squared distance from point `p` to the segment `a`–`b`.
fn dist_sq_to_segment(p: (f32, f32), a: Point, b: Point) -> f32 {
    let (px, py) = p;
    let (ax, ay, bx, by) = (a.x, a.y, b.x, b.y);
    let abx = bx - ax;
    let aby = by - ay;
    let len_sq = abx * abx + aby * aby;
    let t = if len_sq <= f32::EPSILON {
        0.0
    } else {
        (((px - ax) * abx + (py - ay) * aby) / len_sq).clamp(0.0, 1.0)
    };
    let cx = ax + t * abx;
    let cy = ay + t * aby;
    let dx = px - cx;
    let dy = py - cy;
    dx * dx + dy * dy
}

/// Renders a skeleton (unit-box coordinates) into a `[1, size, size]`
/// grayscale tensor with intensities in `[0, 1]` (1 = ink).
pub(crate) fn rasterize(skeleton: &Skeleton, cfg: &RasterConfig) -> Tensor {
    let size = cfg.size.max(1);
    let scale = size as f32;
    let mut img = vec![0.0f32; size * size];

    // collect segments once, in pixel coordinates
    let mut segments: Vec<(Point, Point)> = Vec::new();
    for stroke in &skeleton.strokes {
        for pair in stroke.windows(2) {
            segments.push((
                Point::new(pair[0].x * scale, pair[0].y * scale),
                Point::new(pair[1].x * scale, pair[1].y * scale),
            ));
        }
    }
    if segments.is_empty() {
        return Tensor::from_vec(img, &[1, size, size]).expect("sized buffer");
    }

    let reach = cfg.thickness + cfg.antialias + 1.0;
    for (seg_a, seg_b) in &segments {
        // only sweep pixels near the segment's bounding box
        let min_x = (seg_a.x.min(seg_b.x) - reach).floor().max(0.0) as usize;
        let max_x = (seg_a.x.max(seg_b.x) + reach).ceil().min(scale - 1.0) as usize;
        let min_y = (seg_a.y.min(seg_b.y) - reach).floor().max(0.0) as usize;
        let max_y = (seg_a.y.max(seg_b.y) + reach).ceil().min(scale - 1.0) as usize;
        for py in min_y..=max_y {
            for px in min_x..=max_x {
                let centre = (px as f32 + 0.5, py as f32 + 0.5);
                let d = dist_sq_to_segment(centre, *seg_a, *seg_b).sqrt();
                let v = if d <= cfg.thickness {
                    1.0
                } else if d < cfg.thickness + cfg.antialias {
                    1.0 - (d - cfg.thickness) / cfg.antialias
                } else {
                    0.0
                };
                let cell = &mut img[py * size + px];
                if v > *cell {
                    *cell = v;
                }
            }
        }
    }
    Tensor::from_vec(img, &[1, size, size]).expect("sized buffer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strokes::digit_skeleton;

    #[test]
    fn renders_within_range() {
        let cfg = RasterConfig::default();
        for d in 0u8..10 {
            let img = rasterize(&digit_skeleton(d), &cfg);
            assert_eq!(img.dims(), &[1, 28, 28]);
            assert!(img.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
            let cover = img.sum() / img.len() as f32; // ink coverage
            assert!(cover > 0.02, "digit {d} almost empty: {cover}");
            assert!(cover < 0.5, "digit {d} floods the image: {cover}");
        }
    }

    #[test]
    fn empty_skeleton_renders_blank() {
        let img = rasterize(&Skeleton { strokes: vec![] }, &RasterConfig::default());
        assert!(img.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_point_stroke_is_ignored() {
        // one point => zero segments => blank
        let sk = Skeleton {
            strokes: vec![vec![Point::new(0.5, 0.5)]],
        };
        let img = rasterize(&sk, &RasterConfig::default());
        assert_eq!(img.sum(), 0.0);
    }

    #[test]
    fn horizontal_line_inks_expected_row() {
        let sk = Skeleton {
            strokes: vec![vec![Point::new(0.1, 0.5), Point::new(0.9, 0.5)]],
        };
        let img = rasterize(
            &sk,
            &RasterConfig {
                size: 20,
                thickness: 0.8,
                antialias: 0.4,
            },
        );
        // centre row (y=10) should have substantial ink, far rows none
        let row = |y: usize| -> f32 { img.data()[y * 20..][..20].iter().sum() };
        assert!(row(10) > 5.0);
        assert!(row(0) == 0.0);
        assert!(row(19) == 0.0);
    }

    #[test]
    fn thicker_strokes_ink_more() {
        let sk = digit_skeleton(0);
        let thin = rasterize(
            &sk,
            &RasterConfig {
                thickness: 0.7,
                ..Default::default()
            },
        );
        let thick = rasterize(
            &sk,
            &RasterConfig {
                thickness: 1.8,
                ..Default::default()
            },
        );
        assert!(thick.sum() > thin.sum() * 1.3);
    }

    #[test]
    fn distance_function_basics() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        // on the segment
        assert!(dist_sq_to_segment((5.0, 0.0), a, b) < 1e-9);
        // perpendicular
        assert!((dist_sq_to_segment((5.0, 3.0), a, b) - 9.0).abs() < 1e-5);
        // beyond the end clamps to endpoint
        assert!((dist_sq_to_segment((13.0, 4.0), a, b) - 25.0).abs() < 1e-4);
        // degenerate zero-length segment
        assert!((dist_sq_to_segment((3.0, 4.0), a, a) - 25.0).abs() < 1e-4);
    }

    #[test]
    fn different_digits_render_differently() {
        let cfg = RasterConfig::default();
        let one = rasterize(&digit_skeleton(1), &cfg);
        let eight = rasterize(&digit_skeleton(8), &cfg);
        assert_ne!(one, eight);
        // 8 uses much more ink than 1
        assert!(eight.sum() > one.sum() * 1.5);
    }
}
