//! Non-overlapping pooling layers.

use cdl_hw::OpCount;
use cdl_tensor::{pool, Tensor};

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
    pub fn new(window: usize) -> Result<Self> {
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

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let out = pool::maxpool2d(x, self.window)?;
        self.cache = Some((
            x.dims().to_vec(),
            out.argmax.expect("maxpool2d always returns argmax"),
        ));
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
        pool_output_shape(input, self.window)
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

/// Non-overlapping mean pooling (`window` == stride).
#[derive(Debug)]
pub struct MeanPool2d {
    window: usize,
    cache_shape: Option<Vec<usize>>,
}

impl MeanPool2d {
    /// Creates a mean-pool layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for a zero window.
    pub fn new(window: usize) -> Result<Self> {
        if window == 0 {
            return Err(NnError::BadConfig("pooling window must be >= 1".into()));
        }
        Ok(MeanPool2d {
            window,
            cache_shape: None,
        })
    }
}

impl Layer for MeanPool2d {
    fn name(&self) -> String {
        format!("meanpool {w}x{w}", w = self.window)
    }

    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        Ok(pool::meanpool2d(x, self.window)?.output)
    }

    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let out = pool::meanpool2d(x, self.window)?;
        self.cache_shape = Some(x.dims().to_vec());
        Ok(out.output)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let shape = self
            .cache_shape
            .as_ref()
            .ok_or_else(|| NnError::NoForwardCache { layer: self.name() })?;
        Ok(pool::meanpool2d_backward(shape, self.window, grad_out)?)
    }

    fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>> {
        pool_output_shape(input, self.window)
    }

    fn op_count(&self, input: &[usize]) -> Result<OpCount> {
        let out = self.output_shape(input)?;
        let out_volume: u64 = out.iter().product::<usize>() as u64;
        let in_volume: u64 = input.iter().product::<usize>() as u64;
        Ok(OpCount {
            macs: 0,
            // window²-1 adds plus one scale per output cell
            adds: out_volume * (self.window * self.window) as u64,
            compares: 0,
            activations: 0,
            mem_reads: in_volume,
            mem_writes: out_volume,
        })
    }
}

fn pool_output_shape(input: &[usize], window: usize) -> Result<Vec<usize>> {
    if input.len() != 3 {
        return Err(NnError::BadConfig(format!(
            "pooling expects [C,H,W] input, got rank {}",
            input.len()
        )));
    }
    let (c, h, w) = (input[0], input[1], input[2]);
    if h % window != 0 || w % window != 0 {
        return Err(NnError::BadConfig(format!(
            "pooling window {window} does not tile {h}x{w}"
        )));
    }
    Ok(vec![c, h / window, w / window])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(MaxPool2d::new(0).is_err());
        assert!(MeanPool2d::new(0).is_err());
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
    fn forward_backward_round_trip_mean() {
        let mut p = MeanPool2d::new(2).unwrap();
        let x = Tensor::ones(&[1, 2, 2]);
        let y = p.forward_train(&x).unwrap();
        assert_eq!(y.data(), &[1.0]);
        let gx = p.backward(&Tensor::ones(&[1, 1, 1])).unwrap();
        assert!(gx.data().iter().all(|&g| (g - 0.25).abs() < 1e-6));
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut p = MaxPool2d::new(2).unwrap();
        assert!(p.backward(&Tensor::ones(&[1, 1, 1])).is_err());
        let mut m = MeanPool2d::new(2).unwrap();
        assert!(m.backward(&Tensor::ones(&[1, 1, 1])).is_err());
    }

    #[test]
    fn op_counts() {
        let p = MaxPool2d::new(2).unwrap();
        let ops = p.op_count(&[6, 24, 24]).unwrap();
        assert_eq!(ops.compares, 6 * 144 * 3);
        assert_eq!(ops.mem_reads, 6 * 576);
        assert_eq!(ops.mem_writes, 6 * 144);
        assert_eq!(ops.macs, 0);

        let m = MeanPool2d::new(2).unwrap();
        let ops = m.op_count(&[6, 24, 24]).unwrap();
        assert_eq!(ops.adds, 6 * 144 * 4);
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
        assert_eq!(MeanPool2d::new(3).unwrap().name(), "meanpool 3x3");
    }
}
