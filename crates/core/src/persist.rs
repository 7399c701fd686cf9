//! Model persistence: save/load a trained CDLN as a single JSON document.
//!
//! The serialised form captures everything needed to reconstruct the network
//! bit-exactly: the baseline spec, its trained parameters, each admitted
//! stage's tap point and head weights, and the active policy.

use std::path::Path;

use cdl_nn::network::Network;
use cdl_nn::spec::NetworkSpec;
use cdl_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::confidence::ConfidencePolicy;
use crate::error::CdlError;
use crate::head::LinearClassifier;
use crate::network::CdlNetwork;
use crate::Result;

/// Self-contained serialised form of a trained CDLN.
#[derive(Debug, Serialize, Deserialize)]
pub struct SavedCdl {
    /// Baseline network spec.
    pub spec: NetworkSpec,
    /// Trained baseline parameters in export order.
    pub params: Vec<Tensor>,
    /// Admitted stages: (spec-layer index, name, head).
    pub heads: Vec<(usize, String, LinearClassifier)>,
    /// Active termination policy.
    pub policy: ConfidencePolicy,
}

impl SavedCdl {
    /// Captures a CDLN into its serialisable form.
    pub(crate) fn capture(cdl: &CdlNetwork) -> SavedCdl {
        let spec = cdl.base().spec().clone();
        // recover each stage's spec-layer index from its runtime tap index
        let mut runtime_to_spec = std::collections::HashMap::new();
        for spec_idx in 0..spec.layers.len() {
            if let Ok(rt) = cdl.base().runtime_index_of(spec_idx) {
                runtime_to_spec.insert(rt, spec_idx);
            }
        }
        let heads = cdl
            .stages()
            .iter()
            .map(|s| {
                let spec_idx = *runtime_to_spec
                    .get(&s.tap_runtime)
                    .expect("stage tap always sits on a spec-layer boundary");
                (spec_idx, s.name.clone(), s.head.clone())
            })
            .collect();
        SavedCdl {
            spec,
            params: cdl.base().snapshot_params(),
            heads,
            policy: cdl.policy(),
        }
    }

    /// Reconstructs the CDLN.
    ///
    /// # Errors
    ///
    /// Propagates spec/parameter/stage validation errors.
    pub fn restore(self) -> Result<CdlNetwork> {
        let mut base = Network::from_spec(&self.spec, 0).map_err(CdlError::Nn)?;
        base.import_params(&self.params).map_err(CdlError::Nn)?;
        CdlNetwork::assemble(base, self.heads, self.policy)
    }
}

/// Saves a CDLN to a JSON file.
///
/// # Errors
///
/// Returns [`CdlError::BadStage`] wrapping I/O or serialisation failures.
pub fn save(cdl: &CdlNetwork, path: &Path) -> Result<()> {
    let saved = SavedCdl::capture(cdl);
    let json =
        serde_json::to_vec(&saved).map_err(|e| CdlError::BadStage(format!("serialise: {e}")))?;
    std::fs::write(path, json).map_err(|e| CdlError::BadStage(format!("write: {e}")))?;
    Ok(())
}

/// Loads a CDLN from a JSON file produced by [`save`].
///
/// # Errors
///
/// Returns [`CdlError::BadStage`] wrapping I/O or parse failures, and
/// propagates reconstruction errors.
pub fn load(path: &Path) -> Result<CdlNetwork> {
    let bytes = std::fs::read(path).map_err(|e| CdlError::BadStage(format!("read: {e}")))?;
    let saved: SavedCdl =
        serde_json::from_slice(&bytes).map_err(|e| CdlError::BadStage(format!("parse: {e}")))?;
    saved.restore()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::mnist_3c;

    fn demo_cdl() -> CdlNetwork {
        let arch = mnist_3c();
        let base = Network::from_spec(&arch.spec, 3).unwrap();
        let feats = arch.tap_features().unwrap();
        let stages = arch
            .taps
            .iter()
            .zip(&feats)
            .map(|(t, &f)| {
                (
                    t.spec_layer,
                    t.name.clone(),
                    LinearClassifier::new(f, 10, 1).unwrap(),
                )
            })
            .collect();
        CdlNetwork::assemble(base, stages, ConfidencePolicy::sigmoid_prob(0.6)).unwrap()
    }

    #[test]
    fn capture_restore_round_trip_in_memory() {
        let cdl = demo_cdl();
        let restored = SavedCdl::capture(&cdl).restore().unwrap();
        let x = Tensor::full(&[1, 28, 28], 0.4);
        let a = cdl.classify(&x).unwrap();
        let b = restored.classify(&x).unwrap();
        assert_eq!(a, b);
        assert_eq!(restored.stage_count(), cdl.stage_count());
        assert_eq!(restored.policy(), cdl.policy());
        assert_eq!(restored.baseline_ops(), cdl.baseline_ops());
    }

    #[test]
    fn save_load_round_trip_on_disk() {
        let cdl = demo_cdl();
        let path = std::env::temp_dir().join(format!("cdl_persist_{}.json", std::process::id()));
        save(&cdl, &path).unwrap();
        let restored = load(&path).unwrap();
        let x = Tensor::full(&[1, 28, 28], 0.7);
        assert_eq!(cdl.classify(&x).unwrap(), restored.classify(&x).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load(Path::new("/definitely/not/here.json")).is_err());
    }

    #[test]
    fn load_garbage_errors() {
        let path = std::env::temp_dir().join(format!("cdl_garbage_{}.json", std::process::id()));
        std::fs::write(&path, b"not json").unwrap();
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// A model file that names a layer or an activation the network crate
    /// does not build is refused at load, and the error names it. The
    /// committed benchmark model is read, never written.
    #[test]
    fn a_model_naming_an_unbuilt_variant_is_refused() {
        let committed = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../benchmark/models/mnist_3c.json"
        );
        let json = std::fs::read_to_string(committed).unwrap();
        assert!(load(Path::new(committed)).is_ok());
        for (from, to) in [("\"Sigmoid\"", "Tanh"), ("\"MaxPool\"", "MeanPool")] {
            assert!(json.contains(from));
            let path =
                std::env::temp_dir().join(format!("cdl_persist_{to}_{}.json", std::process::id()));
            std::fs::write(&path, json.replacen(from, &format!("\"{to}\""), 1)).unwrap();
            let loaded = load(&path);
            std::fs::remove_file(&path).unwrap();
            let err = loaded.expect_err("the file must not load").to_string();
            assert!(err.contains(&format!("unknown variant `{to}`")), "{err}");
        }
    }

    #[test]
    fn snapshot_matches_export() {
        let arch = mnist_3c();
        let mut net = Network::from_spec(&arch.spec, 9).unwrap();
        assert_eq!(net.snapshot_params(), net.export_params());
    }
}
