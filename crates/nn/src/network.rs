//! Sequential network container.

use cdl_hw::OpCount;
use cdl_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::activation::Activation;
use crate::batch::{BatchScratch, Block};
use crate::error::NnError;
use crate::layer::Layer;
use crate::layers::{ActivationLayer, Conv2d, Dense, Flatten, MaxPool2d};
use crate::loss;
use crate::spec::{LayerSpec, NetworkSpec};
use crate::Result;

/// A sequential feed-forward network (the paper's "DLN").
///
/// Built from a [`NetworkSpec`]; owns boxed [`Layer`]s. Besides the ordinary
/// forward pass it runs any segment `(from, upto]` of its layers, per image
/// ([`Network::forward_segment`]) or as one block
/// ([`Network::forward_block_segment`]) — the hook `cdl-core` uses to tap
/// convolutional features for its cascaded linear classifiers.
#[derive(Debug)]
pub struct Network {
    spec: NetworkSpec,
    layers: Vec<Box<dyn Layer>>,
    /// For each spec layer, the index of its *last* runtime layer (a conv or
    /// dense spec with a non-identity activation expands into two runtime
    /// layers; the mapping points at the activation output).
    spec_to_runtime: Vec<usize>,
    /// Per-image shape at every point of the network: `shapes[i]` goes into
    /// runtime layer `i`, `shapes[layer_count()]` comes out of the last.
    shapes: Vec<Vec<usize>>,
    /// The fusable `Conv2d → [ActivationLayer] → MaxPool2d` runs of
    /// `layers`, in order. Indices and scalars only — never parameters — so
    /// training, [`Network::import_params`] and model hot-swaps cannot
    /// leave it stale.
    stage_groups: Vec<StageGroup>,
}

/// One fused stage group of the batched path: the runtime layers
/// `conv ..= pool` are a convolution, its activation (absent for
/// `Identity`) and a max-pool.
#[derive(Debug, Clone, Copy)]
struct StageGroup {
    conv: usize,
    pool: usize,
    activation: Activation,
    window: usize,
}

impl Network {
    /// Builds a network from a spec with seeded parameter initialisation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when the spec's shape chain is
    /// inconsistent.
    pub fn from_spec(spec: &NetworkSpec, seed: u64) -> Result<Self> {
        spec.shape_chain()?; // validate before building anything
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut spec_to_runtime = Vec::with_capacity(spec.layers.len());
        let mut stage_groups = Vec::new();
        for (i, layer) in spec.layers.iter().enumerate() {
            // a conv followed by a max-pool runs as one fused pass: every
            // activation commutes with max pooling (see `Activation`)
            if let (LayerSpec::Conv { activation, .. }, Some(LayerSpec::MaxPool { window })) =
                (layer, spec.layers.get(i + 1))
            {
                let conv = layers.len();
                stage_groups.push(StageGroup {
                    conv,
                    pool: conv + 1 + usize::from(*activation != Activation::Identity),
                    activation: *activation,
                    window: *window,
                });
            }
            match layer {
                LayerSpec::Conv {
                    in_channels,
                    out_channels,
                    kernel,
                    activation,
                } => {
                    layers.push(Box::new(Conv2d::new(
                        *in_channels,
                        *out_channels,
                        *kernel,
                        &mut rng,
                    )?));
                    if *activation != Activation::Identity {
                        layers.push(Box::new(ActivationLayer::new(*activation)));
                    }
                }
                LayerSpec::MaxPool { window } => {
                    layers.push(Box::new(MaxPool2d::new(*window)?));
                }
                LayerSpec::Flatten => layers.push(Box::new(Flatten::new())),
                LayerSpec::Dense {
                    in_features,
                    out_features,
                    activation,
                } => {
                    layers.push(Box::new(Dense::new(*in_features, *out_features, &mut rng)?));
                    if *activation != Activation::Identity {
                        layers.push(Box::new(ActivationLayer::new(*activation)));
                    }
                }
            }
            spec_to_runtime.push(layers.len() - 1);
        }
        let mut shapes = vec![spec.input_shape.clone()];
        for layer in &layers {
            shapes.push(layer.output_shape(&shapes[shapes.len() - 1])?);
        }
        Ok(Network {
            spec: spec.clone(),
            layers,
            spec_to_runtime,
            shapes,
            stage_groups,
        })
    }

    /// The runtime-layer index holding the *output* of spec layer
    /// `spec_idx` (after its activation, if any).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an out-of-range spec index.
    pub fn runtime_index_of(&self, spec_idx: usize) -> Result<usize> {
        self.spec_to_runtime.get(spec_idx).copied().ok_or_else(|| {
            NnError::BadConfig(format!(
                "spec layer {spec_idx} out of range for {} spec layers",
                self.spec_to_runtime.len()
            ))
        })
    }

    /// The spec this network was built from.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Number of runtime layers (note: conv/dense specs with a non-identity
    /// activation expand into two runtime layers).
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Layer names in execution order.
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Inference-mode forward pass.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let mut cur = x.clone();
        for layer in &self.layers {
            cur = layer.forward(&cur)?;
        }
        Ok(cur)
    }

    /// Forward pass of one image over runtime layers `(from, upto]` —
    /// `from` is *exclusive* (`None` starts at the input, `Some(f)`
    /// continues from the output of layer `f`), `upto` is *inclusive* —
    /// returning layer `upto`'s output. Running a segment is the
    /// "conditional activation" primitive: later layers are simply never
    /// executed. An empty segment (`from == Some(upto)`) is the identity.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for out-of-range or inverted indices.
    pub fn forward_segment(&self, x: &Tensor, from: Option<usize>, upto: usize) -> Result<Tensor> {
        if upto >= self.layers.len() || from.is_some_and(|f| f > upto) {
            return Err(NnError::BadConfig(format!(
                "invalid segment ({from:?}, {upto}] for {} layers",
                self.layers.len()
            )));
        }
        let mut cur = x.clone();
        for layer in &self.layers[from.map_or(0, |f| f + 1)..=upto] {
            cur = layer.forward(&cur)?;
        }
        Ok(cur)
    }

    /// Batched forward pass over runtime layers `(from, upto]` — `from` is
    /// *exclusive* (`None` starts at the input), `upto` is *inclusive* — as
    /// one block through `scratch`'s two arenas (see [`crate::batch`]).
    ///
    /// The batch is `xs`, read in place by the segment's first layer, or —
    /// `None` — the block the previous segment left in `scratch`; either
    /// way every image must be at point `from` of the network, and the
    /// output is `scratch`'s current block afterwards
    /// ([`BatchScratch::block`], [`BatchScratch::rows`]). Results are
    /// bit-identical to running [`Network::forward_segment`] per image. A
    /// `conv → activation → max-pool` stage group that lies wholly inside
    /// the segment runs as one fused pass — pooled before it is activated —
    /// and every other layer through its [`Layer::forward_block`]. An empty
    /// segment (`from == upto`) is the identity.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for out-of-range or inverted indices
    /// and for a batch whose images do not all have the shape this network
    /// has at `from` — before anything is computed — and propagates layer
    /// errors.
    pub fn forward_block_segment(
        &self,
        xs: Option<&[Tensor]>,
        from: Option<usize>,
        upto: usize,
        scratch: &mut BatchScratch,
    ) -> Result<()> {
        if upto >= self.layers.len() || from.is_some_and(|f| f > upto) {
            return Err(NnError::BadConfig(format!(
                "invalid batch segment ({from:?}, {upto}] for {} layers",
                self.layers.len()
            )));
        }
        let mut next = from.map_or(0, |f| f + 1);
        let mut block = Block::begin(xs, &self.shapes[next], scratch)?;
        while next <= upto && block.rows() > 0 {
            let group = self
                .stage_groups
                .iter()
                .find(|g| g.conv == next && g.pool <= upto);
            let epilogue = group.map(|g| (g.activation, g.window));
            next = match (block.run(self.layers[next].as_ref(), epilogue)?, group) {
                (true, Some(g)) => g.pool + 1,
                _ => next + 1,
            };
        }
        block.finish();
        Ok(())
    }

    /// [`Network::forward_block_segment`] for callers that hold tensors on
    /// both sides: `xs` in, one output tensor per image out.
    ///
    /// # Errors
    ///
    /// As [`Network::forward_block_segment`].
    pub fn forward_batch_segment(
        &self,
        xs: &[Tensor],
        from: Option<usize>,
        upto: usize,
        scratch: &mut BatchScratch,
    ) -> Result<Vec<Tensor>> {
        self.forward_block_segment(Some(xs), from, upto, scratch)?;
        Ok(scratch.to_tensors())
    }

    /// Training forward pass (caches per-layer state).
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    fn forward_train(&mut self, x: &Tensor) -> Result<Tensor> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward_train(&cur)?;
        }
        Ok(cur)
    }

    /// Backpropagates a loss gradient, accumulating parameter gradients.
    /// Nothing reads the gradient w.r.t. the network's input, so the first
    /// layer only accumulates its parameter gradients
    /// ([`Layer::backward_params`]).
    ///
    /// # Errors
    ///
    /// Propagates layer errors (e.g. backward before forward).
    fn backward(&mut self, grad_out: &Tensor) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut grad = grad_out.clone();
        for layer in rest.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        first.backward_params(&grad)
    }

    /// Clears all accumulated gradients.
    pub(crate) fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// One training step on a single sample: forward, MSE loss, backward
    /// of the loss gradient times `grad_scale` (a minibatch passes
    /// `1 / batch`). Gradients accumulate until [`Network::zero_grads`].
    /// Returns the loss value and the network's output.
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub(crate) fn train_sample(
        &mut self,
        x: &Tensor,
        target: &Tensor,
        grad_scale: f32,
    ) -> Result<(f32, Tensor)> {
        let out = self.forward_train(x)?;
        let value = loss::mse(&out, target)?;
        let mut grad = loss::mse_gradient(&out, target)?;
        grad.map_in_place(|g| g * grad_scale);
        self.backward(&grad)?;
        Ok((value, out))
    }

    /// Predicted class (argmax of the output) for an input.
    ///
    /// # Errors
    ///
    /// Propagates layer errors; errors on empty network output.
    pub fn predict(&self, x: &Tensor) -> Result<usize> {
        let out = self.forward(x)?;
        out.argmax()
            .ok_or_else(|| NnError::BadConfig("network produced empty output".into()))
    }

    /// Mutable access to the boxed layers (used by the optimizer).
    pub(crate) fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Per-runtime-layer operation counts for one forward pass, paired with
    /// each layer's input shape. Entry `i` is the cost of layer `i`.
    ///
    /// # Errors
    ///
    /// Propagates geometry errors.
    pub fn op_counts(&self) -> Result<Vec<OpCount>> {
        self.layers
            .iter()
            .zip(&self.shapes)
            .map(|(layer, shape)| layer.op_count(shape))
            .collect()
    }

    /// Exports all parameters in layer order (for persistence).
    pub fn export_params(&self) -> Vec<Tensor> {
        self.layers
            .iter()
            .flat_map(|l| l.param_snapshot())
            .collect()
    }

    /// Imports parameters previously produced by
    /// [`Network::export_params`] on a structurally identical network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamMismatch`] on count or shape disagreement.
    pub fn import_params(&mut self, params: &[Tensor]) -> Result<()> {
        let mut idx = 0usize;
        for layer in &mut self.layers {
            for pg in layer.params() {
                let incoming = params.get(idx).ok_or_else(|| {
                    NnError::ParamMismatch(format!("expected more than {idx} parameter tensors"))
                })?;
                if incoming.shape() != pg.param.shape() {
                    return Err(NnError::ParamMismatch(format!(
                        "parameter {idx}: shape {:?} vs expected {:?}",
                        incoming.dims(),
                        pg.param.dims()
                    )));
                }
                *pg.param = incoming.clone();
                idx += 1;
            }
        }
        if idx != params.len() {
            return Err(NnError::ParamMismatch(format!(
                "{} parameter tensors provided, {} consumed",
                params.len(),
                idx
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> NetworkSpec {
        NetworkSpec::new(
            vec![
                LayerSpec::conv(1, 2, 3, Activation::Sigmoid),
                LayerSpec::maxpool(2),
                LayerSpec::flatten(),
                LayerSpec::dense(2 * 3 * 3, 4, Activation::Sigmoid),
            ],
            &[1, 8, 8],
        )
    }

    #[test]
    fn builds_and_runs() {
        let net = Network::from_spec(&tiny_spec(), 1).unwrap();
        // conv+sigmoid, maxpool, flatten, dense+sigmoid = 6 runtime layers
        assert_eq!(net.layer_count(), 6);
        let y = net.forward(&Tensor::zeros(&[1, 8, 8])).unwrap();
        assert_eq!(y.dims(), &[4]);
        assert!(y.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// The trainer's backward leaves out only what nobody reads: after one
    /// `train_sample`, every accumulated parameter gradient has the bits a
    /// full backward through every layer accumulates — with a convolution
    /// in front (its own `backward_params`) and with a dense layer (the
    /// default one).
    #[test]
    fn train_sample_accumulates_the_full_backwards_parameter_gradients() {
        let dense_first = NetworkSpec::new(
            vec![
                LayerSpec::dense(64, 5, Activation::Sigmoid),
                LayerSpec::dense(5, 4, Activation::Sigmoid),
            ],
            &[1, 8, 8],
        );
        let x = Tensor::from_vec(
            (0..64).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[1, 8, 8],
        )
        .unwrap();
        let target = Tensor::from_vec(vec![0.0, 1.0, 0.0, 0.0], &[4]).unwrap();
        let grad_bits = |net: &mut Network| -> Vec<Vec<u32>> {
            let mut bits = Vec::new();
            for layer in &mut net.layers {
                for pg in layer.params() {
                    bits.push(pg.grad.data().iter().map(|g| g.to_bits()).collect());
                }
            }
            bits
        };
        for spec in [tiny_spec(), dense_first] {
            let mut trained = Network::from_spec(&spec, 3).unwrap();
            trained.train_sample(&x, &target, 0.25).unwrap();

            let mut full = Network::from_spec(&spec, 3).unwrap();
            let out = full.forward_train(&x).unwrap();
            let mut grad = loss::mse_gradient(&out, &target).unwrap();
            grad.map_in_place(|g| g * 0.25);
            for layer in full.layers.iter_mut().rev() {
                grad = layer.backward(&grad).unwrap();
            }
            let want = grad_bits(&mut full);
            assert!(want.iter().flatten().any(|&g| g != 0));
            assert_eq!(grad_bits(&mut trained), want);
        }
    }

    #[test]
    fn rejects_invalid_spec() {
        let bad = NetworkSpec::new(
            vec![LayerSpec::dense(100, 10, Activation::Identity)],
            &[1, 8, 8],
        );
        assert!(Network::from_spec(&bad, 0).is_err());
    }

    /// Each runtime layer's output for `x` (index `i` = output of layer
    /// `i`), one single-layer segment at a time.
    fn layer_outputs(net: &Network, x: &Tensor) -> Vec<Tensor> {
        let mut cur = x.clone();
        (0..net.layer_count())
            .map(|i| {
                cur = net.forward_segment(&cur, i.checked_sub(1), i).unwrap();
                cur.clone()
            })
            .collect()
    }

    #[test]
    fn every_layer_output_has_its_planned_shape() {
        let net = Network::from_spec(&tiny_spec(), 1).unwrap();
        let outs = layer_outputs(&net, &Tensor::zeros(&[1, 8, 8]));
        assert_eq!(outs.len(), 6);
        assert_eq!(outs[0].dims(), &[2, 6, 6]); // conv
        assert_eq!(outs[1].dims(), &[2, 6, 6]); // sigmoid
        assert_eq!(outs[2].dims(), &[2, 3, 3]); // pool
        assert_eq!(outs[3].dims(), &[18]); // flatten
        assert_eq!(outs[5].dims(), &[4]); // final sigmoid
        for (out, shape) in outs.iter().zip(&net.shapes[1..]) {
            assert_eq!(out.dims(), shape);
        }
        // the last entry equals the plain forward pass
        assert_eq!(outs[5], net.forward(&Tensor::zeros(&[1, 8, 8])).unwrap());
    }

    #[test]
    fn forward_segment_from_the_input_matches_every_layer() {
        let net = Network::from_spec(&tiny_spec(), 7).unwrap();
        let x = Tensor::full(&[1, 8, 8], 0.5);
        let outs = layer_outputs(&net, &x);
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(&net.forward_segment(&x, None, i).unwrap(), out, "layer {i}");
        }
        assert!(net.forward_segment(&x, None, 6).is_err());
    }

    #[test]
    fn forward_segment_continues_correctly() {
        let net = Network::from_spec(&tiny_spec(), 7).unwrap();
        let x = Tensor::full(&[1, 8, 8], 0.25);
        let outs = layer_outputs(&net, &x);
        // continue from pool output (layer 2) to the end (layer 5)
        let cont = net.forward_segment(&outs[2], Some(2), 5).unwrap();
        assert_eq!(cont, outs[5]);
        // an empty segment is the identity
        assert_eq!(net.forward_segment(&outs[2], Some(2), 2).unwrap(), outs[2]);
        assert!(net.forward_segment(&outs[2], Some(3), 2).is_err());
        assert!(net.forward_segment(&outs[2], Some(2), 6).is_err());
    }

    #[test]
    fn forward_batch_segment_matches_per_image_paths() {
        let net = Network::from_spec(&tiny_spec(), 7).unwrap();
        let xs: Vec<Tensor> = (0..5)
            .map(|i| Tensor::full(&[1, 8, 8], 0.1 * i as f32))
            .collect();
        let mut scratch = crate::batch::BatchScratch::new();
        let last = net.layer_count() - 1;
        // full prefix
        let batched = net
            .forward_batch_segment(&xs, None, last, &mut scratch)
            .unwrap();
        for (x, b) in xs.iter().zip(&batched) {
            assert_eq!(&net.forward(x).unwrap(), b);
        }
        // mid-network continuation
        let taps: Vec<Tensor> = xs
            .iter()
            .map(|x| net.forward_segment(x, None, 2).unwrap())
            .collect();
        let cont = net
            .forward_batch_segment(&taps, Some(2), last, &mut scratch)
            .unwrap();
        for (t, c) in taps.iter().zip(&cont) {
            assert_eq!(&net.forward_segment(t, Some(2), last).unwrap(), c);
        }
        // empty segment (from == upto) is identity, like forward_segment
        let idem = net
            .forward_batch_segment(&taps, Some(2), 2, &mut scratch)
            .unwrap();
        assert_eq!(idem, taps);
        let idem_last = net
            .forward_batch_segment(&batched, Some(last), last, &mut scratch)
            .unwrap();
        assert_eq!(idem_last, batched);
        // invalid ranges rejected
        assert!(net
            .forward_batch_segment(&xs, Some(3), 2, &mut scratch)
            .is_err());
        assert!(net
            .forward_batch_segment(&xs, None, last + 1, &mut scratch)
            .is_err());
    }

    #[test]
    fn stage_plan_groups_every_conv_followed_by_a_maxpool() {
        let plan = |layers: Vec<LayerSpec>, input: &[usize]| -> Vec<(usize, usize)> {
            let net = Network::from_spec(&NetworkSpec::new(layers, input), 1).unwrap();
            net.stage_groups.iter().map(|g| (g.conv, g.pool)).collect()
        };
        // conv+sigmoid, maxpool | conv (identity), maxpool: two groups
        assert_eq!(
            plan(
                vec![
                    LayerSpec::conv(1, 2, 3, Activation::Sigmoid),
                    LayerSpec::maxpool(2),
                    LayerSpec::conv(2, 2, 2, Activation::Identity),
                    LayerSpec::maxpool(1),
                ],
                &[1, 8, 8],
            ),
            vec![(0, 2), (3, 4)]
        );
        let group = Network::from_spec(&tiny_spec(), 1).unwrap().stage_groups[0];
        assert_eq!((group.activation, group.window), (Activation::Sigmoid, 2));
        // not grouped: a conv with no pool after it, a pool with no conv
        // before it
        for layers in [
            vec![
                LayerSpec::conv(1, 2, 3, Activation::Sigmoid),
                LayerSpec::flatten(),
            ],
            vec![LayerSpec::maxpool(2), LayerSpec::flatten()],
        ] {
            assert!(plan(layers, &[1, 8, 8]).is_empty());
        }
    }

    #[test]
    fn deterministic_init() {
        let a = Network::from_spec(&tiny_spec(), 5).unwrap();
        let b = Network::from_spec(&tiny_spec(), 5).unwrap();
        let x = Tensor::full(&[1, 8, 8], 0.1);
        assert_eq!(a.forward(&x).unwrap(), b.forward(&x).unwrap());
        let c = Network::from_spec(&tiny_spec(), 6).unwrap();
        assert_ne!(a.forward(&x).unwrap(), c.forward(&x).unwrap());
    }

    #[test]
    fn training_reduces_loss_on_single_sample() {
        let mut net = Network::from_spec(&tiny_spec(), 3).unwrap();
        let x = Tensor::full(&[1, 8, 8], 0.7);
        let target = loss::one_hot(2, 4).unwrap();
        let mut opt = crate::optim::Sgd::new(0.5, 0.0);
        let initial = loss::mse(&net.forward(&x).unwrap(), &target).unwrap();
        for _ in 0..50 {
            net.zero_grads();
            let (value, out) = net.train_sample(&x, &target, 1.0).unwrap();
            assert_eq!(value, loss::mse(&out, &target).unwrap());
            opt.step(&mut net).unwrap();
        }
        let trained = loss::mse(&net.forward(&x).unwrap(), &target).unwrap();
        assert!(
            trained < initial * 0.5,
            "loss should halve: {initial} -> {trained}"
        );
        assert_eq!(net.predict(&x).unwrap(), 2);
    }

    #[test]
    fn op_counts_count_each_layer() {
        let net = Network::from_spec(&tiny_spec(), 1).unwrap();
        let per_layer = net.op_counts().unwrap();
        // conv MACs: 2 maps * 6*6 out * 1*3*3 taps = 648
        assert_eq!(per_layer[0].macs, 648);
        // dense MACs: 18 * 4 = 72
        assert_eq!(per_layer[4].macs, 72);
    }

    #[test]
    fn param_export_import_round_trip() {
        let a = Network::from_spec(&tiny_spec(), 1).unwrap();
        let mut b = Network::from_spec(&tiny_spec(), 2).unwrap();
        let x = Tensor::full(&[1, 8, 8], 0.3);
        assert_ne!(a.forward(&x).unwrap(), b.forward(&x).unwrap());
        let params = a.export_params();
        b.import_params(&params).unwrap();
        assert_eq!(a.forward(&x).unwrap(), b.forward(&x).unwrap());
    }

    #[test]
    fn import_params_validates() {
        let mut a = Network::from_spec(&tiny_spec(), 1).unwrap();
        let params = a.export_params();
        assert!(a.import_params(&params[..1]).is_err());
        let mut too_many = params.clone();
        too_many.push(Tensor::zeros(&[1]));
        assert!(a.import_params(&too_many).is_err());
        let mut wrong_shape = params;
        wrong_shape[0] = Tensor::zeros(&[1, 1, 1, 1]);
        assert!(a.import_params(&wrong_shape).is_err());
    }

    #[test]
    fn spec_to_runtime_mapping() {
        let net = Network::from_spec(&tiny_spec(), 1).unwrap();
        // spec: conv(+act), maxpool, flatten, dense(+act)
        assert_eq!(net.runtime_index_of(0).unwrap(), 1); // conv's sigmoid
        assert_eq!(net.runtime_index_of(1).unwrap(), 2); // pool
        assert_eq!(net.runtime_index_of(2).unwrap(), 3); // flatten
        assert_eq!(net.runtime_index_of(3).unwrap(), 5); // dense's sigmoid
        assert!(net.runtime_index_of(4).is_err());
    }

    #[test]
    fn param_count_is_sum_of_layers() {
        let net = Network::from_spec(&tiny_spec(), 1).unwrap();
        // conv: 2*1*3*3 + 2 = 20; dense: 18*4 + 4 = 76
        assert_eq!(net.param_count(), 96);
    }
}
