//! Declarative network specifications.
//!
//! A [`NetworkSpec`] is a serialisable description of a sequential network —
//! the analogue of the architecture rows in the paper's Tables I & II. It is
//! the unit of model persistence: a spec plus an exported parameter list
//! reconstructs a trained network exactly.

use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::error::NnError;
use crate::Result;

/// One layer in a [`NetworkSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Valid convolution (`in_channels`, `out_channels`, square `kernel`)
    /// followed by `activation`.
    Conv {
        /// Input channel count.
        in_channels: usize,
        /// Output map count.
        out_channels: usize,
        /// Square kernel side.
        kernel: usize,
        /// Nonlinearity applied after the convolution.
        activation: Activation,
    },
    /// Non-overlapping max pooling with the given window.
    MaxPool {
        /// Window side length (= stride).
        window: usize,
    },
    /// Flatten to rank 1.
    Flatten,
    /// Fully connected layer followed by `activation`.
    Dense {
        /// Input feature count.
        in_features: usize,
        /// Output feature count.
        out_features: usize,
        /// Nonlinearity applied after the affine map.
        activation: Activation,
    },
}

impl LayerSpec {
    /// Convolution + activation shorthand.
    pub fn conv(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        activation: Activation,
    ) -> Self {
        LayerSpec::Conv {
            in_channels,
            out_channels,
            kernel,
            activation,
        }
    }

    /// Max-pool shorthand.
    pub fn maxpool(window: usize) -> Self {
        LayerSpec::MaxPool { window }
    }

    /// Flatten shorthand.
    pub fn flatten() -> Self {
        LayerSpec::Flatten
    }

    /// Dense + activation shorthand.
    pub fn dense(in_features: usize, out_features: usize, activation: Activation) -> Self {
        LayerSpec::Dense {
            in_features,
            out_features,
            activation,
        }
    }
}

/// A sequential network description: layers plus the expected input shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Layer list, input to output.
    pub layers: Vec<LayerSpec>,
    /// Shape of a single input sample, e.g. `[1, 28, 28]`.
    pub input_shape: Vec<usize>,
}

impl NetworkSpec {
    /// Creates a spec.
    pub fn new(layers: Vec<LayerSpec>, input_shape: &[usize]) -> Self {
        NetworkSpec {
            layers,
            input_shape: input_shape.to_vec(),
        }
    }

    /// Walks the spec and returns each layer's *output* shape, validating
    /// the whole chain (this catches mis-sized dense fan-ins at build time,
    /// not at first forward pass).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] describing the first inconsistent
    /// layer.
    pub fn shape_chain(&self) -> Result<Vec<Vec<usize>>> {
        let mut shapes = Vec::with_capacity(self.layers.len());
        let mut cur = self.input_shape.clone();
        for (i, spec) in self.layers.iter().enumerate() {
            cur = match spec {
                LayerSpec::Conv {
                    in_channels,
                    out_channels,
                    kernel,
                    ..
                } => {
                    if cur.len() != 3 || cur[0] != *in_channels {
                        return Err(NnError::BadConfig(format!(
                            "layer {i}: conv expects [{in_channels},H,W], got {cur:?}"
                        )));
                    }
                    if cur[1] < *kernel || cur[2] < *kernel || *kernel == 0 {
                        return Err(NnError::BadConfig(format!(
                            "layer {i}: kernel {kernel} does not fit input {cur:?}"
                        )));
                    }
                    vec![*out_channels, cur[1] - kernel + 1, cur[2] - kernel + 1]
                }
                LayerSpec::MaxPool { window } => {
                    if cur.len() != 3 {
                        return Err(NnError::BadConfig(format!(
                            "layer {i}: pooling expects [C,H,W], got {cur:?}"
                        )));
                    }
                    if *window == 0
                        || !cur[1].is_multiple_of(*window)
                        || !cur[2].is_multiple_of(*window)
                    {
                        return Err(NnError::BadConfig(format!(
                            "layer {i}: window {window} does not tile {cur:?}"
                        )));
                    }
                    vec![cur[0], cur[1] / window, cur[2] / window]
                }
                LayerSpec::Flatten => vec![cur.iter().product()],
                LayerSpec::Dense {
                    in_features,
                    out_features,
                    ..
                } => {
                    let n: usize = cur.iter().product();
                    if n != *in_features {
                        return Err(NnError::BadConfig(format!(
                            "layer {i}: dense fan-in {in_features} vs incoming {n} features"
                        )));
                    }
                    vec![*out_features]
                }
            };
            shapes.push(cur.clone());
        }
        Ok(shapes)
    }

    /// Output shape of the whole network.
    ///
    /// # Errors
    ///
    /// Same as [`NetworkSpec::shape_chain`].
    pub fn output_shape(&self) -> Result<Vec<usize>> {
        Ok(self
            .shape_chain()?
            .last()
            .cloned()
            .unwrap_or_else(|| self.input_shape.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table I baseline as a spec.
    fn table1() -> NetworkSpec {
        NetworkSpec::new(
            vec![
                LayerSpec::conv(1, 6, 5, Activation::Sigmoid),
                LayerSpec::maxpool(2),
                LayerSpec::conv(6, 12, 5, Activation::Sigmoid),
                LayerSpec::maxpool(2),
                LayerSpec::flatten(),
                LayerSpec::dense(192, 10, Activation::Sigmoid),
            ],
            &[1, 28, 28],
        )
    }

    #[test]
    fn table1_shape_chain() {
        let chain = table1().shape_chain().unwrap();
        assert_eq!(
            chain,
            vec![
                vec![6, 24, 24],
                vec![6, 12, 12],
                vec![12, 8, 8],
                vec![12, 4, 4],
                vec![192],
                vec![10],
            ]
        );
        assert_eq!(table1().output_shape().unwrap(), vec![10]);
    }

    #[test]
    fn detects_bad_dense_fan_in() {
        let mut spec = table1();
        if let LayerSpec::Dense { in_features, .. } = &mut spec.layers[5] {
            *in_features = 100;
        }
        let err = spec.shape_chain().unwrap_err();
        assert!(err.to_string().contains("fan-in"));
    }

    #[test]
    fn detects_bad_conv_channels() {
        let spec = NetworkSpec::new(
            vec![LayerSpec::conv(3, 6, 5, Activation::Sigmoid)],
            &[1, 28, 28],
        );
        assert!(spec.shape_chain().is_err());
    }

    #[test]
    fn detects_non_tiling_pool() {
        let spec = NetworkSpec::new(vec![LayerSpec::maxpool(5)], &[1, 28, 28]);
        assert!(spec.shape_chain().is_err());
    }

    #[test]
    fn detects_oversized_kernel() {
        let spec = NetworkSpec::new(
            vec![LayerSpec::conv(1, 2, 30, Activation::Sigmoid)],
            &[1, 28, 28],
        );
        assert!(spec.shape_chain().is_err());
    }

    #[test]
    fn empty_spec_output_is_input() {
        let spec = NetworkSpec::new(vec![], &[1, 8, 8]);
        assert_eq!(spec.output_shape().unwrap(), vec![1, 8, 8]);
    }

    #[test]
    fn serde_round_trip() {
        let spec = table1();
        let json = serde_json::to_string(&spec).unwrap();
        let back: NetworkSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }
}
