//! Dynamic tensor shapes with row-major strides.

use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::Result;

/// A dynamic, row-major tensor shape.
///
/// `Shape` owns its dimension list and lazily exposes the row-major strides
/// used to linearise multi-dimensional indices. The rightmost dimension is
/// contiguous (stride 1).
///
/// ```
/// use cdl_tensor::Shape;
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.volume(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// assert_eq!(s.linear_index(&[1, 2, 3]).unwrap(), 23);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension slice.
    pub fn new(dims: &[usize]) -> Self {
        Shape {
            dims: dims.to_vec(),
        }
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of axes.
    pub(crate) fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (product of all dimensions).
    ///
    /// A rank-0 shape has volume 1 (a scalar).
    pub fn volume(&self) -> usize {
        self.dims.iter().product()
    }

    /// Row-major strides for this shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Linearises a multi-dimensional index into a flat offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank differs
    /// from the shape rank or any coordinate exceeds its axis length.
    pub fn linear_index(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.dims.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        let mut offset = 0usize;
        let mut stride = 1usize;
        for i in (0..self.dims.len()).rev() {
            if index[i] >= self.dims[i] {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.dims.clone(),
                });
            }
            offset += index[i] * stride;
            stride *= self.dims[i];
        }
        Ok(offset)
    }

    /// Inverse of [`linear_index`](Self::linear_index): converts a flat
    /// offset back into a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if `offset >= volume()`.
    pub fn multi_index(&self, offset: usize) -> Result<Vec<usize>> {
        if offset >= self.volume() {
            return Err(TensorError::IndexOutOfBounds {
                index: vec![offset],
                shape: self.dims.clone(),
            });
        }
        let mut rem = offset;
        let mut idx = vec![0usize; self.dims.len()];
        for (i, stride) in self.strides().into_iter().enumerate() {
            idx[i] = rem / stride;
            rem %= stride;
        }
        Ok(idx)
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
        assert_eq!(s.strides(), Vec::<usize>::new());
    }

    #[test]
    fn zero_axis_has_no_volume() {
        assert_eq!(Shape::new(&[3, 0, 2]).volume(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[7, 2]).strides(), vec![2, 1]);
    }

    #[test]
    fn linear_index_round_trip() {
        let s = Shape::new(&[3, 4, 5]);
        for off in 0..s.volume() {
            let idx = s.multi_index(off).unwrap();
            assert_eq!(s.linear_index(&idx).unwrap(), off);
        }
    }

    #[test]
    fn linear_index_rejects_bad_rank() {
        let s = Shape::new(&[2, 2]);
        assert!(matches!(
            s.linear_index(&[1]),
            Err(TensorError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn linear_index_rejects_out_of_range() {
        let s = Shape::new(&[2, 2]);
        assert!(s.linear_index(&[0, 2]).is_err());
        assert!(s.linear_index(&[2, 0]).is_err());
        assert!(s.linear_index(&[1, 1]).is_ok());
    }

    #[test]
    fn multi_index_rejects_past_end() {
        let s = Shape::new(&[2, 2]);
        assert!(s.multi_index(4).is_err());
        assert_eq!(s.multi_index(3).unwrap(), vec![1, 1]);
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
