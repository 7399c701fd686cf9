//! Stroke skeletons for the ten digits.
//!
//! Each digit is a set of polylines in a unit box (`x` right, `y` down,
//! both in `[0, 1]`). Curved digits are described with quadratic
//! Bézier segments sampled into polylines. These skeletons are the "pen
//! trajectories" that the rasteriser inks and the distortion model warps.

/// A 2-D point in the unit box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Horizontal coordinate, 0 = left.
    pub x: f32,
    /// Vertical coordinate, 0 = top.
    pub y: f32,
}

impl Point {
    /// Creates a point.
    pub(crate) const fn new(x: f32, y: f32) -> Self {
        Point { x, y }
    }
}

/// A digit skeleton: one or more polylines.
#[derive(Debug, Clone, PartialEq)]
pub struct Skeleton {
    /// The polylines; each is a sequence of at least two points.
    pub strokes: Vec<Vec<Point>>,
}

/// Samples a quadratic Bézier `p0 → p1 → p2` into `n + 1` points.
pub(crate) fn quad_bezier(p0: Point, p1: Point, p2: Point, n: usize) -> Vec<Point> {
    let n = n.max(1);
    (0..=n)
        .map(|i| {
            let t = i as f32 / n as f32;
            let u = 1.0 - t;
            Point::new(
                u * u * p0.x + 2.0 * u * t * p1.x + t * t * p2.x,
                u * u * p0.y + 2.0 * u * t * p1.y + t * t * p2.y,
            )
        })
        .collect()
}

/// Samples a full ellipse centred at `(cx, cy)` into a closed polyline.
pub(crate) fn ellipse(cx: f32, cy: f32, rx: f32, ry: f32, n: usize) -> Vec<Point> {
    let n = n.max(3);
    (0..=n)
        .map(|i| {
            let a = i as f32 / n as f32 * std::f32::consts::TAU;
            Point::new(cx + rx * a.cos(), cy + ry * a.sin())
        })
        .collect()
}

/// Samples an elliptical arc from angle `a0` to `a1` (radians).
pub(crate) fn arc(cx: f32, cy: f32, rx: f32, ry: f32, a0: f32, a1: f32, n: usize) -> Vec<Point> {
    let n = n.max(2);
    (0..=n)
        .map(|i| {
            let a = a0 + (a1 - a0) * i as f32 / n as f32;
            Point::new(cx + rx * a.cos(), cy + ry * a.sin())
        })
        .collect()
}

const CURVE_SAMPLES: usize = 16;

/// The canonical skeleton of `digit` (0–9).
///
/// # Panics
///
/// Panics when `digit > 9`.
pub(crate) fn digit_skeleton(digit: u8) -> Skeleton {
    let p = Point::new;
    let strokes: Vec<Vec<Point>> = match digit {
        0 => vec![ellipse(0.5, 0.5, 0.24, 0.36, 28)],
        1 => vec![
            // flag, main stroke
            vec![p(0.36, 0.26), p(0.52, 0.12)],
            vec![p(0.52, 0.12), p(0.52, 0.88)],
        ],
        2 => {
            // top hook, diagonal, base
            let mut top = arc(
                0.5,
                0.32,
                0.24,
                0.20,
                1.05 * std::f32::consts::PI,
                2.0 * std::f32::consts::PI,
                CURVE_SAMPLES,
            );
            top.extend(quad_bezier(
                p(0.74, 0.32),
                p(0.70, 0.55),
                p(0.26, 0.86),
                CURVE_SAMPLES,
            ));
            top.push(p(0.78, 0.86));
            vec![top]
        }
        3 => {
            let mut s = quad_bezier(p(0.28, 0.18), p(0.62, 0.02), p(0.68, 0.28), CURVE_SAMPLES);
            s.extend(quad_bezier(
                p(0.68, 0.28),
                p(0.66, 0.46),
                p(0.44, 0.50),
                CURVE_SAMPLES,
            ));
            s.extend(quad_bezier(
                p(0.44, 0.50),
                p(0.76, 0.52),
                p(0.70, 0.76),
                CURVE_SAMPLES,
            ));
            s.extend(quad_bezier(
                p(0.70, 0.76),
                p(0.58, 0.96),
                p(0.26, 0.80),
                CURVE_SAMPLES,
            ));
            vec![s]
        }
        4 => vec![
            vec![p(0.58, 0.12), p(0.24, 0.60), p(0.80, 0.60)],
            vec![p(0.62, 0.36), p(0.62, 0.90)],
        ],
        5 => {
            let mut s = vec![p(0.72, 0.14), p(0.32, 0.14), p(0.29, 0.46)];
            s.extend(quad_bezier(
                p(0.29, 0.46),
                p(0.62, 0.36),
                p(0.71, 0.62),
                CURVE_SAMPLES,
            ));
            s.extend(quad_bezier(
                p(0.71, 0.62),
                p(0.70, 0.88),
                p(0.40, 0.88),
                CURVE_SAMPLES,
            ));
            s.extend(quad_bezier(
                p(0.40, 0.88),
                p(0.28, 0.88),
                p(0.25, 0.78),
                CURVE_SAMPLES / 2,
            ));
            vec![s]
        }
        6 => {
            let mut s = quad_bezier(p(0.66, 0.10), p(0.38, 0.24), p(0.30, 0.58), CURVE_SAMPLES);
            s.extend(ellipse(0.49, 0.67, 0.19, 0.21, 22).into_iter().skip(9));
            vec![s]
        }
        7 => vec![vec![p(0.22, 0.14), p(0.78, 0.14), p(0.42, 0.88)]],
        8 => vec![
            ellipse(0.5, 0.31, 0.17, 0.18, 22),
            ellipse(0.5, 0.68, 0.21, 0.20, 24),
        ],
        9 => {
            let mut s = ellipse(0.5, 0.34, 0.19, 0.21, 22);
            s.extend(quad_bezier(
                p(0.69, 0.34),
                p(0.70, 0.66),
                p(0.56, 0.90),
                CURVE_SAMPLES,
            ));
            vec![s]
        }
        _ => panic!("digit_skeleton: digit {digit} out of range 0-9"),
    };
    Skeleton { strokes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_digits_have_strokes_in_unit_box() {
        for d in 0u8..10 {
            let sk = digit_skeleton(d);
            assert!(!sk.strokes.is_empty(), "digit {d}");
            for stroke in &sk.strokes {
                assert!(stroke.len() >= 2, "digit {d} has a degenerate stroke");
                for p in stroke {
                    assert!(
                        (-0.05..=1.05).contains(&p.x) && (-0.05..=1.05).contains(&p.y),
                        "digit {d} point out of box: ({}, {})",
                        p.x,
                        p.y
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_digit_10() {
        let _ = digit_skeleton(10);
    }

    #[test]
    fn bezier_endpoints_exact() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 2.0);
        let c = Point::new(2.0, 0.0);
        let q = quad_bezier(a, b, c, 8);
        assert_eq!(q.first().unwrap(), &a);
        assert_eq!(q.last().unwrap(), &c);
        assert_eq!(q.len(), 9);
    }

    #[test]
    fn ellipse_is_closed() {
        let e = ellipse(0.5, 0.5, 0.2, 0.3, 16);
        let first = e.first().unwrap();
        let last = e.last().unwrap();
        assert!((first.x - last.x).abs() < 1e-5);
        assert!((first.y - last.y).abs() < 1e-5);
    }

    #[test]
    fn arc_spans_requested_angles() {
        let a = arc(0.0, 0.0, 1.0, 1.0, 0.0, std::f32::consts::PI, 10);
        assert!((a.first().unwrap().x - 1.0).abs() < 1e-5);
        assert!((a.last().unwrap().x + 1.0).abs() < 1e-5);
    }
}
