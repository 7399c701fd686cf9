//! Architecture presets — the paper's Tables I & II.
//!
//! A [`CdlArchitecture`] couples a baseline network spec with the *candidate
//! tap points* where linear classifiers may be attached. Per the paper, "the
//! learnt feature vectors from the pooling layers are used as training inputs
//! to the linear classifiers", so taps sit after pooling stages.

use cdl_nn::activation::Activation;
use cdl_nn::spec::{LayerSpec, NetworkSpec};
use serde::{Deserialize, Serialize};

use crate::error::CdlError;
use crate::Result;

/// A candidate location for a linear-classifier head.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TapPoint {
    /// Index into the spec's layer list whose *output* feeds the head.
    pub spec_layer: usize,
    /// Paper-style name, e.g. `"O1"`.
    pub name: String,
}

/// A baseline DLN plus the candidate head locations of its CDL variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CdlArchitecture {
    /// Architecture name, e.g. `"MNIST_3C"`.
    pub name: String,
    /// The baseline network ("DLN") spec.
    pub spec: NetworkSpec,
    /// Candidate tap points in network order.
    pub taps: Vec<TapPoint>,
}

impl CdlArchitecture {
    /// Validates that taps are in-range, strictly increasing, and not after
    /// the final layer.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadStage`] describing the offending tap.
    pub fn validate(&self) -> Result<()> {
        self.spec.shape_chain().map_err(CdlError::Nn)?;
        let mut prev: Option<usize> = None;
        for tap in &self.taps {
            if tap.spec_layer + 1 >= self.spec.layers.len() {
                return Err(CdlError::BadStage(format!(
                    "tap {} at spec layer {} leaves no deeper layers to gate",
                    tap.name, tap.spec_layer
                )));
            }
            if let Some(p) = prev {
                if tap.spec_layer <= p {
                    return Err(CdlError::BadStage(format!(
                        "tap {} at spec layer {} is not after the previous tap ({p})",
                        tap.name, tap.spec_layer
                    )));
                }
            }
            prev = Some(tap.spec_layer);
        }
        Ok(())
    }

    /// Feature count at each tap (flattened output volume of the tapped
    /// layer).
    ///
    /// # Errors
    ///
    /// Propagates spec shape errors.
    pub fn tap_features(&self) -> Result<Vec<usize>> {
        let chain = self.spec.shape_chain().map_err(CdlError::Nn)?;
        self.taps
            .iter()
            .map(|t| {
                chain
                    .get(t.spec_layer)
                    .map(|s| s.iter().product())
                    .ok_or_else(|| {
                        CdlError::BadStage(format!(
                            "tap {} at out-of-range spec layer {}",
                            t.name, t.spec_layer
                        ))
                    })
            })
            .collect()
    }

    /// Restricted copy keeping only the first `n` taps (used by the
    /// stage-count sweep of Fig. 9).
    pub(crate) fn with_first_taps(&self, n: usize) -> CdlArchitecture {
        CdlArchitecture {
            name: format!("{}[{}taps]", self.name, n.min(self.taps.len())),
            spec: self.spec.clone(),
            taps: self.taps.iter().take(n).cloned().collect(),
        }
    }

    /// Number of output classes of the baseline.
    ///
    /// # Errors
    ///
    /// Propagates spec shape errors.
    pub(crate) fn classes(&self) -> Result<usize> {
        let out = self.spec.output_shape().map_err(CdlError::Nn)?;
        Ok(out[0])
    }
}

/// Table I baseline: `I → C1(5×5,6) → P1 → C2(5×5,12) → P2 → FC(10)`, with
/// the MNIST_2C head `O1` after `P1` (6×12×12 = 864 features).
pub fn mnist_2c() -> CdlArchitecture {
    CdlArchitecture {
        name: "MNIST_2C".into(),
        spec: NetworkSpec::new(
            vec![
                LayerSpec::conv(1, 6, 5, Activation::Sigmoid), // C1 -> 24x24x6
                LayerSpec::maxpool(2),                         // P1 -> 12x12x6
                LayerSpec::conv(6, 12, 5, Activation::Sigmoid), // C2 -> 8x8x12
                LayerSpec::maxpool(2),                         // P2 -> 4x4x12
                LayerSpec::flatten(),
                LayerSpec::dense(192, 10, Activation::Sigmoid), // FC
            ],
            &[1, 28, 28],
        ),
        taps: vec![TapPoint {
            spec_layer: 1,
            name: "O1".into(),
        }],
    }
}

/// Table II baseline: `I → C1(3×3,3) → P1 → C2(4×4,6) → P2 → C3(3×3,9) → P3
/// → FC(10)`, with MNIST_3C heads `O1` after `P1` (507 features) and `O2`
/// after `P2` (150 features).
///
/// The paper lists `P3` as "3×3, 9 maps" following a 3×3 `C3` output — a
/// size-preserving stage, modelled here as a 1×1 (identity) pool (the
/// `table1_2_arch` report of `cdl-bench` prints the resulting shapes).
pub fn mnist_3c() -> CdlArchitecture {
    CdlArchitecture {
        name: "MNIST_3C".into(),
        spec: NetworkSpec::new(
            vec![
                LayerSpec::conv(1, 3, 3, Activation::Sigmoid), // C1 -> 26x26x3
                LayerSpec::maxpool(2),                         // P1 -> 13x13x3
                LayerSpec::conv(3, 6, 4, Activation::Sigmoid), // C2 -> 10x10x6
                LayerSpec::maxpool(2),                         // P2 -> 5x5x6
                LayerSpec::conv(6, 9, 3, Activation::Sigmoid), // C3 -> 3x3x9
                LayerSpec::maxpool(1),                         // P3 -> 3x3x9 (identity)
                LayerSpec::flatten(),
                LayerSpec::dense(81, 10, Activation::Sigmoid), // FC
            ],
            &[1, 28, 28],
        ),
        taps: vec![
            TapPoint {
                spec_layer: 1,
                name: "O1".into(),
            },
            TapPoint {
                spec_layer: 3,
                name: "O2".into(),
            },
        ],
    }
}

/// Table II architecture with the third candidate head `O3` after `P3`,
/// as used in the paper's Figs. 7 & 9 (`O1-O2-O3-FC`).
pub fn mnist_3c_full() -> CdlArchitecture {
    let mut arch = mnist_3c();
    arch.name = "MNIST_3C+O3".into();
    arch.taps.push(TapPoint {
        spec_layer: 5,
        name: "O3".into(),
    });
    arch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for arch in [mnist_2c(), mnist_3c(), mnist_3c_full()] {
            arch.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", arch.name));
            assert_eq!(arch.classes().unwrap(), 10);
        }
    }

    #[test]
    fn table1_geometry_matches_paper() {
        let arch = mnist_2c();
        let chain = arch.spec.shape_chain().unwrap();
        assert_eq!(chain[0], vec![6, 24, 24]); // C1
        assert_eq!(chain[1], vec![6, 12, 12]); // P1
        assert_eq!(chain[2], vec![12, 8, 8]); // C2
        assert_eq!(chain[3], vec![12, 4, 4]); // P2
        assert_eq!(chain[5], vec![10]); // FC
        assert_eq!(arch.tap_features().unwrap(), vec![864]); // O1 on 6*12*12
    }

    #[test]
    fn table2_geometry_matches_paper() {
        let arch = mnist_3c_full();
        let chain = arch.spec.shape_chain().unwrap();
        assert_eq!(chain[0], vec![3, 26, 26]); // C1
        assert_eq!(chain[1], vec![3, 13, 13]); // P1
        assert_eq!(chain[2], vec![6, 10, 10]); // C2
        assert_eq!(chain[3], vec![6, 5, 5]); // P2
        assert_eq!(chain[4], vec![9, 3, 3]); // C3
        assert_eq!(chain[5], vec![9, 3, 3]); // P3 (identity)
        assert_eq!(chain[7], vec![10]); // FC
        assert_eq!(arch.tap_features().unwrap(), vec![507, 150, 81]);
    }

    #[test]
    fn with_first_taps_restricts() {
        let arch = mnist_3c_full();
        assert_eq!(arch.with_first_taps(0).taps.len(), 0);
        assert_eq!(arch.with_first_taps(1).taps.len(), 1);
        assert_eq!(arch.with_first_taps(99).taps.len(), 3);
        assert_eq!(arch.with_first_taps(1).taps[0].name, "O1");
    }

    #[test]
    fn validation_rejects_tap_at_end() {
        let mut arch = mnist_2c();
        arch.taps[0].spec_layer = 5; // FC output — nothing left to gate
        assert!(arch.validate().is_err());
    }

    #[test]
    fn validation_rejects_unordered_taps() {
        let mut arch = mnist_3c();
        arch.taps[1].spec_layer = 1; // same as first tap
        assert!(arch.validate().is_err());
        arch.taps[1].spec_layer = 0; // before first tap
        assert!(arch.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let arch = mnist_3c();
        let json = serde_json::to_string(&arch).unwrap();
        let back: CdlArchitecture = serde_json::from_str(&json).unwrap();
        assert_eq!(back, arch);
    }
}
