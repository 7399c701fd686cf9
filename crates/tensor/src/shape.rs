//! Dynamic tensor shapes.

use serde::{Deserialize, Serialize};

/// A dynamic, row-major tensor shape: its dimension list. The rightmost
/// dimension is contiguous.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension slice.
    pub(crate) fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// The dimension list.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of axes.
    pub(crate) fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of all dimensions).
    ///
    /// A rank-0 shape has volume 1 (a scalar).
    pub(crate) fn volume(&self) -> usize {
        self.dims.iter().product()
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape { dims }
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volume_and_rank() {
        let s = Shape::new(&[6, 12, 12]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.volume(), 864);
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(&[]);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.volume(), 1);
    }

    #[test]
    fn zero_axis_has_no_volume() {
        assert_eq!(Shape::new(&[3, 0, 2]).volume(), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Shape::new(&[6, 12, 12]).to_string(), "(6x12x12)");
        assert_eq!(Shape::new(&[10]).to_string(), "(10)");
    }

    #[test]
    fn from_conversions() {
        let a: Shape = vec![1, 2].into();
        let b: Shape = (&[1usize, 2][..]).into();
        assert_eq!(a, b);
    }
}
