//! The core row-major `f32` tensor type.

use serde::{Deserialize, Serialize};

use crate::error::TensorError;
use crate::shape::Shape;
use crate::Result;

/// A dense, row-major, heap-allocated `f32` tensor with dynamic rank.
///
/// `Tensor` is the single value type flowing through every layer of the CDL
/// networks. It is intentionally simple: owned contiguous storage, no views
/// with independent strides, no lazy evaluation. The networks in this
/// reproduction are LeNet-scale, where clarity beats cleverness.
///
/// ```
/// use cdl_tensor::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// assert_eq!(t.data()[2], 3.0); // element [1, 0], row-major
/// assert_eq!(t.sum(), 10.0);
/// # Ok::<(), cdl_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] when `data.len()` differs from
    /// the volume of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension list (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns a copy with a new shape sharing the same element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] when volumes differ.
    pub fn reshape(&self, dims: &[usize]) -> Result<Tensor> {
        let new_shape = Shape::new(dims);
        if new_shape.volume() != self.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.len(),
                to: new_shape.volume(),
            });
        }
        Ok(Tensor {
            shape: new_shape,
            data: self.data.clone(),
        })
    }

    /// Flattens to rank 1 without copying element data.
    pub fn flatten(&self) -> Tensor {
        Tensor {
            shape: Shape::new(&[self.len()]),
            data: self.data.clone(),
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Index of the maximum element (first occurrence); `None` when empty.
    pub fn argmax(&self) -> Option<usize> {
        crate::ops::argmax(&self.data)
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor {
            shape: Shape::new(&[0]),
            data: Vec::new(),
        }
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        const MAX_SHOWN: usize = 8;
        for (i, v) in self.data.iter().take(MAX_SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > MAX_SHOWN {
            write!(f, ", … {} more", self.data.len() - MAX_SHOWN)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.len(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let o = Tensor::ones(&[4]);
        assert_eq!(o.sum(), 4.0);
        let f = Tensor::full(&[2, 2], 0.5);
        assert_eq!(f.sum(), 2.0);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert_eq!(r.dims(), &[3, 2]);
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![3.0, -1.0, 4.0, 1.0], &[4]).unwrap();
        assert_eq!(t.sum(), 7.0);
        assert_eq!(t.argmax(), Some(2));
    }

    #[test]
    fn argmax_first_occurrence() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 5.0], &[3]).unwrap();
        assert_eq!(t.argmax(), Some(1));
    }

    #[test]
    fn empty_reductions() {
        let t = Tensor::default();
        assert!(t.is_empty());
        assert_eq!(t.argmax(), None);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn map_and_map_in_place() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let m = t.map(|x| x * 2.0);
        assert_eq!(m.data(), &[2.0, 4.0]);
        let mut u = t.clone();
        u.map_in_place(|x| -x);
        assert_eq!(u.data(), &[-1.0, -2.0]);
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros(&[100]);
        let s = t.to_string();
        assert!(s.contains("more"));
        assert!(s.contains("(100)"));
    }

    #[test]
    fn serde_round_trip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
