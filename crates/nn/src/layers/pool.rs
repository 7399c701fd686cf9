//! Non-overlapping max-pooling layer.

use cdl_hw::OpCount;
use cdl_tensor::{pool, Tensor};

use crate::batch::Block;
use crate::error::NnError;
use crate::layer::Layer;
use crate::Result;

/// Non-overlapping max pooling (`window` == stride).
///
/// A window of 1 is the identity and models the paper's size-preserving `P3`
/// stage (Table II).
#[derive(Debug)]
pub struct MaxPool2d {
    window: usize,
    cache: Option<(Vec<usize>, Vec<usize>)>, // (input shape, argmax)
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for a zero window.
    pub(crate) fn new(window: usize) -> Result<Self> {
        if window == 0 {
            return Err(NnError::BadConfig("pooling window must be >= 1".into()));
        }
        Ok(MaxPool2d {
            window,
            cache: None,
        })
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!("maxpool {w}x{w}", w = self.window)
    }

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        Ok(pool::maxpool2d_forward(x, self.window)?)
    }

    fn forward_block(&self, block: &mut Block<'_>) -> Result<()> {
        // alone — a segment that starts at the pool of a stage group — each
        // image's planes are pooled where they lie, by the scan `forward` runs
        let out = self.output_shape(block.dims())?;
        let width = out.iter().product::<usize>();
        block.write(&out, |src, dims, dst, _, _| {
            let (c, h, w) = (dims[0], dims[1], dims[2]);
            for (i, row) in dst.chunks_exact_mut(width.max(1)).enumerate() {
                pool::maxpool2d_into(src.row(i), (c, h, w), h * w, self.window, row);
            }
            Ok(())
        })
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let out = pool::maxpool2d(x, self.window)?;
        self.cache = Some((x.dims().to_vec(), out.argmax));
        Ok(out.output)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (shape, argmax) = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        Ok(pool::maxpool2d_backward(shape, argmax, grad_out)?)
    }

    fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>> {
        let window = self.window;
        let &[c, h, w] = input else {
            return Err(NnError::BadConfig(format!(
                "pooling expects [C,H,W] input, got rank {}",
                input.len()
            )));
        };
        if h % window != 0 || w % window != 0 {
            return Err(NnError::BadConfig(format!(
                "pooling window {window} does not tile {h}x{w}"
            )));
        }
        Ok(vec![c, h / window, w / window])
    }

    fn op_count(&self, input: &[usize]) -> Result<OpCount> {
        let out = self.output_shape(input)?;
        let out_volume: u64 = out.iter().product::<usize>() as u64;
        let in_volume: u64 = input.iter().product::<usize>() as u64;
        Ok(OpCount {
            macs: 0,
            adds: 0,
            compares: out_volume * (self.window * self.window - 1).max(1) as u64,
            activations: 0,
            mem_reads: in_volume,
            mem_writes: out_volume,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(MaxPool2d::new(0).is_err());
        assert!(MaxPool2d::new(2).is_ok());
    }

    #[test]
    fn shapes_match_paper() {
        // Table I: P1 pools 24x24x6 -> 12x12x6
        let p = MaxPool2d::new(2).unwrap();
        assert_eq!(p.output_shape(&[6, 24, 24]).unwrap(), vec![6, 12, 12]);
        // Table II: P3 identity pool keeps 3x3x9
        let p3 = MaxPool2d::new(1).unwrap();
        assert_eq!(p3.output_shape(&[9, 3, 3]).unwrap(), vec![9, 3, 3]);
    }

    #[test]
    fn forward_backward_round_trip_max() {
        let mut p = MaxPool2d::new(2).unwrap();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[2, 2, 2]).unwrap();
        let y = p.forward_train(&x).unwrap();
        assert_eq!(y.data(), &[4.0, 8.0]);
        let gx = p.backward(&Tensor::ones(&[2, 1, 1])).unwrap();
        assert_eq!(gx.data(), &[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut p = MaxPool2d::new(2).unwrap();
        assert!(p.backward(&Tensor::ones(&[1, 1, 1])).is_err());
    }

    #[test]
    fn op_counts() {
        let p = MaxPool2d::new(2).unwrap();
        let ops = p.op_count(&[6, 24, 24]).unwrap();
        assert_eq!(ops.compares, 6 * 144 * 3);
        assert_eq!(ops.mem_reads, 6 * 576);
        assert_eq!(ops.mem_writes, 6 * 144);
        assert_eq!(ops.macs, 0);
    }

    #[test]
    fn geometry_validation() {
        let p = MaxPool2d::new(2).unwrap();
        assert!(p.output_shape(&[1, 3, 3]).is_err());
        assert!(p.output_shape(&[3, 3]).is_err());
    }

    #[test]
    fn names() {
        assert_eq!(MaxPool2d::new(2).unwrap().name(), "maxpool 2x2");
    }
}
