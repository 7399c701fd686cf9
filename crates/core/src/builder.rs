//! Algorithm 1 — training the CDLN and choosing the optimum number of
//! stages.
//!
//! Given a *trained* baseline DLN and the training set:
//!
//! 1. extract the CNN feature vector at every candidate tap for every
//!    training instance (one forward pass per instance);
//! 2. walk the taps in network order, training each linear classifier with
//!    the LMS rule on the instances that *reach* its stage (instances that
//!    exited at an earlier admitted stage are excluded — the paper notes the
//!    training set shrinks as we go deeper);
//! 3. measure, on the training set, how many of the reaching instances the
//!    stage would classify (`Cl_i`) under the termination policy, and
//!    compute the **gain**
//!    `G_i = (γ_base − γ_i)·Cl_i − γ_head·(I_i − Cl_i)`
//!    where `γ_base` is the full-baseline op count, `γ_i` the cumulative op
//!    count of reaching + evaluating stage i, and `γ_head` the head's own
//!    cost (the Eq. 1 penalty inflicted on instances that pass through);
//! 4. admit the stage into the CDLN iff `G_i > ε`.

use cdl_nn::batch::BatchScratch;
use cdl_nn::network::Network;
use cdl_nn::trainer::LabelledSet;
use cdl_tensor::Tensor;
use serde::{Deserialize, Serialize};

use crate::arch::CdlArchitecture;
use crate::batch::BatchEvaluator;
use crate::confidence::ConfidencePolicy;
use crate::error::CdlError;
use crate::head::{LinearClassifier, LmsConfig};
use crate::network::{head_op_count, CdlNetwork};
use crate::Result;

/// Configuration of the Algorithm 1 builder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BuilderConfig {
    /// LMS hyper-parameters for head training.
    pub lms: LmsConfig,
    /// Gain threshold ε, in operations per instance. A stage is admitted
    /// only when its measured per-instance gain exceeds this.
    pub epsilon: f64,
    /// Train each head only on instances that reach its stage (the paper's
    /// cascade). Disable to train every head on the full set (used by the
    /// Fig. 7 accuracy study).
    pub cascade_training: bool,
    /// Admit every candidate stage regardless of gain (used by sweeps that
    /// control the stage count explicitly).
    pub force_admit_all: bool,
    /// Seed for head initialisation.
    pub head_seed: u64,
}

impl Default for BuilderConfig {
    fn default() -> Self {
        BuilderConfig {
            lms: LmsConfig::default(),
            epsilon: 0.0,
            cascade_training: true,
            force_admit_all: false,
            head_seed: 0xCD1,
        }
    }
}

/// Per-stage outcome of Algorithm 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage name (`"O1"`, …).
    pub name: String,
    /// Feature count at the tap.
    pub features: usize,
    /// Final-epoch LMS mean-squared error.
    pub lms_mse: f32,
    /// Head accuracy on the instances it was trained on.
    pub head_accuracy: f64,
    /// Instances reaching this stage (`I_i`).
    pub reached: usize,
    /// Instances the stage classifies under the policy (`Cl_i`).
    pub classified: usize,
    /// Measured gain `G_i` in ops/instance (averaged over the full set).
    pub gain_ops_per_instance: f64,
    /// Whether the stage was admitted into the CDLN.
    pub admitted: bool,
}

/// The product of Algorithm 1: an assembled CDLN plus the per-stage log.
#[derive(Debug)]
pub struct TrainedCdl {
    network: CdlNetwork,
    reports: Vec<StageReport>,
}

impl TrainedCdl {
    /// The assembled conditional network.
    pub fn network(&self) -> &CdlNetwork {
        &self.network
    }

    /// Consumes the wrapper, returning the network.
    pub fn into_network(self) -> CdlNetwork {
        self.network
    }

    /// Per-stage training/admission log.
    pub fn reports(&self) -> &[StageReport] {
        &self.reports
    }
}

/// Algorithm 1 driver.
#[derive(Debug)]
pub struct CdlBuilder {
    arch: CdlArchitecture,
    policy: ConfidencePolicy,
}

impl CdlBuilder {
    /// Creates a builder for an architecture and termination policy.
    pub fn new(arch: CdlArchitecture, policy: ConfidencePolicy) -> Self {
        CdlBuilder { arch, policy }
    }

    /// Runs Algorithm 1 on a trained baseline.
    ///
    /// `base` must have been built from `arch.spec` and already trained on
    /// `train` (step 1 of the paper's algorithm happens outside, via
    /// [`cdl_nn::trainer::train`]).
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadDataset`] for an empty training set,
    /// [`CdlError::BadStage`] for architecture inconsistencies, and
    /// propagates evaluation errors.
    pub fn build(
        &self,
        base: Network,
        train: &LabelledSet,
        cfg: &BuilderConfig,
    ) -> Result<TrainedCdl> {
        self.arch.validate()?;
        self.policy.validate()?;
        if train.is_empty() {
            return Err(CdlError::BadDataset("empty training set".into()));
        }
        if base.spec() != &self.arch.spec {
            return Err(CdlError::BadStage(
                "baseline network spec differs from the architecture spec".into(),
            ));
        }
        let classes = self.arch.classes()?;
        let features = extract_tap_features(&base, &self.arch, train)?;

        // cumulative baseline ops up to (and including) each tap
        let per_layer = base.op_counts().map_err(CdlError::Nn)?;
        let gamma_base: f64 = per_layer.iter().map(|o| o.compute_ops() as f64).sum();
        let mut tap_cum_ops = Vec::with_capacity(self.arch.taps.len());
        for tap in &self.arch.taps {
            let rt = base
                .runtime_index_of(tap.spec_layer)
                .map_err(CdlError::Nn)?;
            let cum: f64 = per_layer[..=rt]
                .iter()
                .map(|o| o.compute_ops() as f64)
                .sum();
            tap_cum_ops.push(cum);
        }

        let mut active: Vec<usize> = (0..train.len()).collect();
        let mut admitted: Vec<(usize, String, LinearClassifier)> = Vec::new();
        let mut reports = Vec::new();

        for (ti, tap) in self.arch.taps.iter().enumerate() {
            let feats = &features[ti];
            // cascade: train on instances reaching this stage; otherwise on
            // everything. Gains are always measured on the cascade flow.
            let all_idx: Vec<usize> = (0..train.len()).collect();
            let train_on: &[usize] = if cfg.cascade_training {
                &active
            } else {
                &all_idx
            };
            let eval_idx: &[usize] = &active;

            let mut head = LinearClassifier::new(
                feats.first().map_or(0, |f| f.len()),
                classes,
                cfg.head_seed.wrapping_add(ti as u64),
            )?;
            let (train_feats, train_labels) = gather(feats, &train.labels, train_on);
            let lms_mse = head.train_lms(&train_feats, &train_labels, &cfg.lms)?;
            let head_accuracy = head.accuracy(&train_feats, &train_labels)?;

            // simulate the activation module on the instances reaching here
            let mut classified = 0usize;
            let mut exits = Vec::new();
            for &i in eval_idx {
                let decision = self.policy.decide(&head.scores(&feats[i])?)?;
                if decision.exit {
                    classified += 1;
                    exits.push(i);
                }
            }
            let reached = eval_idx.len();
            // Eq. 1 accounting. For the Cl_i instances classified here, the
            // counterfactual (no LC_i) is to continue through the remaining
            // baseline layers — previously-admitted heads are paid on BOTH
            // paths and cancel out, so the saving per classified instance is
            //   γ_base − (ops up to tap i) − (this head's own cost).
            // Instances that pass through pay this head's cost as pure
            // penalty.
            let gamma_head = head_op_count(&head).compute_ops() as f64;
            let gamma_i = tap_cum_ops[ti] + gamma_head;
            let gain = ((gamma_base - gamma_i) * classified as f64
                - gamma_head * (reached - classified) as f64)
                / train.len() as f64;

            let admit = cfg.force_admit_all || gain > cfg.epsilon;
            reports.push(StageReport {
                name: tap.name.clone(),
                features: head.features(),
                lms_mse,
                head_accuracy,
                reached,
                classified,
                gain_ops_per_instance: gain,
                admitted: admit,
            });
            if admit {
                let exit_set: std::collections::HashSet<usize> = exits.into_iter().collect();
                active.retain(|i| !exit_set.contains(i));
                admitted.push((tap.spec_layer, tap.name.clone(), head));
            }
        }

        let network = CdlNetwork::assemble(base, admitted, self.policy)?;
        Ok(TrainedCdl { network, reports })
    }
}

/// Extracts the flattened feature vector at every candidate tap for every
/// training instance: [`BatchEvaluator::STREAM_CHUNK`] images at a time
/// travel from tap to tap as one block (bit-identical to a per-image
/// forward pass, by the batch contract of [`cdl_nn::batch`]) and each tap's
/// rows are copied out.
fn extract_tap_features(
    base: &Network,
    arch: &CdlArchitecture,
    train: &LabelledSet,
) -> Result<Vec<Vec<Tensor>>> {
    let tap_runtimes: Vec<usize> = arch
        .taps
        .iter()
        .map(|t| base.runtime_index_of(t.spec_layer).map_err(CdlError::Nn))
        .collect::<Result<_>>()?;
    let mut features: Vec<Vec<Tensor>> = vec![Vec::with_capacity(train.len()); tap_runtimes.len()];
    let mut scratch = BatchScratch::new();
    for chunk in train.images.chunks(BatchEvaluator::STREAM_CHUNK) {
        let mut prev: Option<usize> = None;
        for (ti, &rt) in tap_runtimes.iter().enumerate() {
            let input = prev.is_none().then_some(chunk);
            base.forward_block_segment(input, prev, rt, &mut scratch)
                .map_err(CdlError::Nn)?;
            features[ti].extend((0..scratch.rows()).map(|k| Tensor::from_slice(scratch.row(k))));
            prev = Some(rt);
        }
    }
    Ok(features)
}

fn gather(feats: &[Tensor], labels: &[usize], idx: &[usize]) -> (Vec<Tensor>, Vec<usize>) {
    let mut f = Vec::with_capacity(idx.len());
    let mut l = Vec::with_capacity(idx.len());
    for &i in idx {
        f.push(feats[i].clone());
        l.push(labels[i]);
    }
    (f, l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{mnist_3c, mnist_3c_full};
    use cdl_dataset::SyntheticMnist;
    use cdl_nn::trainer::{train as train_dln, TrainConfig};

    /// Small trained baseline + data, shared across tests (built once).
    fn trained_fixture() -> (Network, LabelledSet, LabelledSet) {
        let gen = SyntheticMnist::default();
        let (train_set, test_set) = gen.generate_split(900, 250, 11);
        let arch = mnist_3c();
        let mut base = Network::from_spec(&arch.spec, 7).unwrap();
        let cfg = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        train_dln(&mut base, &train_set, &cfg).unwrap();
        (base, train_set, test_set)
    }

    #[test]
    fn algorithm1_builds_and_early_exits() {
        let (base, train_set, test_set) = trained_fixture();
        let builder = CdlBuilder::new(mnist_3c(), ConfidencePolicy::max_prob(0.55));
        let trained = builder
            .build(base, &train_set, &BuilderConfig::default())
            .unwrap();

        // both candidate stages should report
        assert_eq!(trained.reports().len(), 2);
        // stage 1 sees everything
        assert_eq!(trained.reports()[0].reached, train_set.len());
        // heads learn something meaningful on their subset
        assert!(trained.reports()[0].head_accuracy > 0.5);

        // at least one stage must be admitted on a learnable dataset, and
        // admitted stages actually produce early exits at test time
        let cdl = trained.network();
        assert!(cdl.stage_count() >= 1);
        let mut exits = 0usize;
        let mut correct = 0usize;
        for (img, &label) in test_set.images.iter().zip(&test_set.labels) {
            let out = cdl.classify(img).unwrap();
            if out.exit_stage < cdl.stage_count() {
                exits += 1;
            }
            if out.label == label {
                correct += 1;
            }
        }
        assert!(exits > test_set.len() / 4, "only {exits} early exits");
        assert!(
            correct as f64 / test_set.len() as f64 > 0.6,
            "accuracy too low: {}",
            correct as f64 / test_set.len() as f64
        );
    }

    #[test]
    fn cascade_shrinks_training_sets() {
        let (base, train_set, _) = trained_fixture();
        let builder = CdlBuilder::new(mnist_3c(), ConfidencePolicy::max_prob(0.55));
        let trained = builder
            .build(base, &train_set, &BuilderConfig::default())
            .unwrap();
        let r = trained.reports();
        if r[0].admitted {
            // stage 2 reaches only what stage 1 did not classify
            assert_eq!(r[1].reached, r[0].reached - r[0].classified);
        }
    }

    #[test]
    fn force_admit_includes_all_taps() {
        let (base, train_set, _) = trained_fixture();
        let builder = CdlBuilder::new(mnist_3c_full(), ConfidencePolicy::max_prob(0.55));
        let cfg = BuilderConfig {
            force_admit_all: true,
            ..BuilderConfig::default()
        };
        let trained = builder.build(base, &train_set, &cfg).unwrap();
        assert_eq!(trained.network().stage_count(), 3);
        assert!(trained.reports().iter().all(|r| r.admitted));
    }

    #[test]
    fn huge_epsilon_rejects_all_stages() {
        let (base, train_set, _) = trained_fixture();
        let builder = CdlBuilder::new(mnist_3c(), ConfidencePolicy::max_prob(0.55));
        let cfg = BuilderConfig {
            epsilon: f64::MAX,
            ..BuilderConfig::default()
        };
        let trained = builder.build(base, &train_set, &cfg).unwrap();
        assert_eq!(trained.network().stage_count(), 0);
        assert!(trained.reports().iter().all(|r| !r.admitted));
    }

    #[test]
    fn rejects_mismatched_baseline() {
        let (_, train_set, _) = trained_fixture();
        let wrong = Network::from_spec(&crate::arch::mnist_2c().spec, 1).unwrap();
        let builder = CdlBuilder::new(mnist_3c(), ConfidencePolicy::max_prob(0.5));
        assert!(matches!(
            builder.build(wrong, &train_set, &BuilderConfig::default()),
            Err(CdlError::BadStage(_))
        ));
    }

    #[test]
    fn rejects_empty_training_set() {
        let arch = mnist_3c();
        let base = Network::from_spec(&arch.spec, 1).unwrap();
        let builder = CdlBuilder::new(arch, ConfidencePolicy::max_prob(0.5));
        assert!(matches!(
            builder.build(base, &LabelledSet::default(), &BuilderConfig::default()),
            Err(CdlError::BadDataset(_))
        ));
    }

    #[test]
    fn gain_is_positive_for_a_useful_first_stage() {
        let (base, train_set, _) = trained_fixture();
        let builder = CdlBuilder::new(mnist_3c(), ConfidencePolicy::max_prob(0.55));
        let trained = builder
            .build(base, &train_set, &BuilderConfig::default())
            .unwrap();
        let r0 = &trained.reports()[0];
        // a first stage classifying a meaningful share of a learnable set
        // must show positive gain (it skips most of the network's ops)
        if r0.classified * 3 > r0.reached {
            assert!(
                r0.gain_ops_per_instance > 0.0,
                "gain {}",
                r0.gain_ops_per_instance
            );
            assert!(r0.admitted);
        }
    }
}
