//! A borrowed batch of equal-length `f32` rows, wherever they happen to lie.
//!
//! The batched kernels (`crate::gemm::gemm_nt_rows`,
//! [`crate::im2col::conv2d_pool_block`], [`crate::ops::affine_rows_into`])
//! read "image `i`'s values" and nothing else, so they take a [`Rows`]: the
//! caller's tensors read in place (a cascade's first stage), or a contiguous
//! block of an evaluator's arena (every later stage), without a
//! `Vec<&[f32]>` built per call.

use crate::tensor::Tensor;

/// `len()` rows of `f32`s; row `i` is [`Rows::row`]`(i)`. The kernels check
/// that every row has the length they expect before they read one.
#[derive(Debug, Clone, Copy)]
pub enum Rows<'a> {
    /// One slice per row.
    Slices(&'a [&'a [f32]]),
    /// One tensor per row: a tensor's row-major buffer is its flattened row.
    Tensors(&'a [Tensor]),
    /// A contiguous row-major `[n, width]` block: row `i` is
    /// `data[i·width .. (i+1)·width]`, `n = data.len() / width`.
    Block {
        /// The block's values, a whole number of rows.
        data: &'a [f32],
        /// Values per row.
        width: usize,
    },
}

impl<'a> Rows<'a> {
    /// Number of rows (a zero-width block has none).
    pub fn len(&self) -> usize {
        match *self {
            Rows::Slices(rows) => rows.len(),
            Rows::Tensors(tensors) => tensors.len(),
            Rows::Block { data, width } => data.len().checked_div(width).unwrap_or(0),
        }
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn row(&self, i: usize) -> &'a [f32] {
        match *self {
            Rows::Slices(rows) => rows[i],
            Rows::Tensors(tensors) => tensors[i].data(),
            Rows::Block { data, width } => &data[i * width..(i + 1) * width],
        }
    }

    /// Whether every row has exactly `width` values.
    pub fn all_have_width(&self, width: usize) -> bool {
        match *self {
            Rows::Block { data, width: w } => w == width && data.len() % width.max(1) == 0,
            _ => (0..self.len()).all(|i| self.row(i).len() == width),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_sources_agree() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[1, 3]).unwrap();
        let tensors = [a.clone(), b.clone()];
        let slices = [a.data(), b.data()];
        let block = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        for rows in [
            Rows::Tensors(&tensors),
            Rows::Slices(&slices),
            Rows::Block {
                data: &block,
                width: 3,
            },
        ] {
            assert_eq!(rows.len(), 2);
            assert!(!rows.is_empty());
            assert_eq!(rows.row(1), &[4.0, 5.0, 6.0]);
            assert!(rows.all_have_width(3));
            assert!(!rows.all_have_width(2));
        }
        let empty = Rows::Block {
            data: &[],
            width: 0,
        };
        assert!(empty.is_empty());
    }
}
