//! Batched early-exit inference — Algorithm 2 over whole batches.
//!
//! [`BatchEvaluator`] is a persistent evaluator in the style of batched
//! GPU serving systems: it owns the two activation arenas and the kernel
//! scratch ([`cdl_nn::batch::BatchScratch`]) and pushes an entire batch
//! through the conditional network stage by stage **as one block** — a
//! contiguous `[n, f]` array, image `i` in row `i`. The first segment reads
//! the caller's tensors in place; from then on the batch lives in the
//! arenas: each head is one GEMM over the block's rows as they lie, and
//! after each confidence gate the still-active subset is **compacted in
//! place** (surviving rows move up, the block shrinks) — images that exited
//! stop consuming any further operations, exactly as in the per-image
//! cascade, while the survivors run each `conv → activation → max-pool`
//! stage group as one fused pass, eight images to a vector where that is
//! the faster kernel (see [`cdl_nn::batch`]). No `Tensor` is built between
//! the caller's inputs and the returned outputs, and once warm a batch
//! allocates only its output vectors and index lists, whatever its size.
//!
//! Every per-image quantity (`label`, `exit_stage`, `confidence`, `ops`,
//! `stages_activated`, `exited_early`) is **bit-identical** to
//! [`CdlNetwork::classify`] on the same input: the batched kernels
//! accumulate in the same order as the per-image ones (pinned down by the
//! `batch_equivalence` integration test and the `cdl-tensor` property
//! tests).
//!
//! # The trace: δ is a runtime knob
//!
//! The activation module is the only thing δ touches — the heads' outputs do
//! not depend on it — so analysis that asks "what would the cascade do
//! under *this* policy" never has to run the network again.
//! [`BatchEvaluator::trace`] sends the batch through every stage of the same
//! loop with a gate that lets nothing exit and keeps, per input, every
//! head's raw score row and the final layer's output row — one float per
//! input, stage (plus the final layer) and class, 1.2 MB for the paper's
//! 10 k test images — beside the network's cumulative-ops table.
//! [`CascadeTrace::outputs`] then replays any policy kind, δ, per-stage
//! schedule or depth cap as a pure function of those rows — the same gate
//! over the same bits, so each [`CdlOutput`] equals the per-image cascade's
//! — and the final row's arg-max *is* the baseline's label. Every δ sweep,
//! calibration, ablation and oracle bound in [`crate::stats`],
//! [`crate::sweep`] and [`crate::calibrate`] is one trace plus replays; the
//! per-image [`CdlNetwork::classify`] family does no work outside tests,
//! where it is the reference every batched answer is compared with.
//!
//! ```no_run
//! use cdl_core::batch::BatchEvaluator;
//! # fn demo(cdln: cdl_core::network::CdlNetwork, images: Vec<cdl_tensor::Tensor>)
//! #     -> cdl_core::Result<()> {
//! let mut eval = BatchEvaluator::new(&cdln);
//! let outputs = eval.classify_batch(&images)?;       // one entry per image
//! let again = eval.classify_batch(&images)?;          // reuses all scratch
//! # let _ = (outputs, again); Ok(())
//! # }
//! ```

use cdl_hw::OpCount;
use cdl_nn::batch::BatchScratch;
use cdl_tensor::gemm::GemmKernel;
use cdl_tensor::{ops, Tensor};

use crate::confidence::{ConfidencePolicy, Decision, ExitOverride};
use crate::error::CdlError;
use crate::network::{CdlNetwork, CdlOutput};
use crate::Result;

/// The work a request had already consumed when it was shed mid-batch.
///
/// Produced by the sheddable entry point
/// ([`BatchEvaluator::classify_stream_with_override_sheddable`]) for inputs
/// the caller's shed hook evicted at a stage boundary: `stages_activated`
/// cascade stages had run (and been paid for) by then, costing `ops`
/// operations — the exact cumulative cost every image reaching that
/// boundary incurs, so energy accounting built on these numbers is honest
/// rather than zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialEval {
    /// Cascade stages evaluated before the shed (0 is impossible: the
    /// first shed opportunity is the boundary *after* stage 0).
    pub stages_activated: u64,
    /// Operations consumed by those stages, including their heads.
    pub ops: OpCount,
}

/// Per-input result of a sheddable batch pass: either a finished
/// classification or the partial work consumed before a mid-batch shed.
#[derive(Debug, Clone, PartialEq)]
pub enum SheddableOutcome {
    /// The input ran to an exit (early or baseline) — bit-identical to the
    /// non-sheddable pass.
    Done(CdlOutput),
    /// The shed hook evicted the input at a stage boundary; the work done
    /// up to that boundary is recorded.
    Shed(PartialEval),
}

/// Shed hook that never sheds — the non-sheddable entry points route
/// through the sheddable core with this.
fn never_shed(_next_stage: usize, _input_idx: usize) -> bool {
    false
}

/// A persistent batched evaluator over one conditional network.
///
/// Create once, feed batches forever: all intermediate buffers (the two
/// activation arenas, the conv kernels' scratch, head score rows, the
/// softmax work row) grow on the first batches and are reused afterwards —
/// a later batch no larger than an earlier one allocates none of them.
#[derive(Debug)]
pub struct BatchEvaluator<'a> {
    net: &'a CdlNetwork,
    scratch: BatchScratch,
    /// `[active, classes]` scores of the stage being gated.
    head_scores: Vec<f32>,
    /// One image's probabilities: the softmax policies' and the baseline
    /// exit's work row.
    probs: Vec<f32>,
}

impl<'a> BatchEvaluator<'a> {
    /// Images per [`BatchEvaluator::classify_stream`] chunk (see there for
    /// the memory/throughput trade-off).
    pub const STREAM_CHUNK: usize = 256;

    /// Creates an evaluator over `net` with empty (lazily grown) scratch.
    /// Which GEMM bodies it runs is found from the host here, once
    /// ([`GemmKernel::detect`]: AVX2 where the CPU has it, the portable
    /// tiles otherwise) — it is not something a caller configures.
    pub fn new(net: &'a CdlNetwork) -> Self {
        Self::with_kernel(net, GemmKernel::detect())
    }

    /// [`BatchEvaluator::new`] pinned to one [`GemmKernel`] arm — the seam
    /// the evaluator-level parity suites use to drive both bodies on one
    /// host (`for kernel in GemmKernel::ALL`). Both arms are bit-identical,
    /// so nothing else has a reason to call this.
    pub fn with_kernel(net: &'a CdlNetwork, kernel: GemmKernel) -> Self {
        BatchEvaluator {
            net,
            scratch: BatchScratch::with_kernel(kernel),
            head_scores: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// Values the evaluator's buffers can hold without growing — what "a
    /// later, smaller batch allocates no buffer" is checked against.
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.capacity() + self.head_scores.capacity() + self.probs.capacity()
    }

    /// Classifies a batch with the network's configured policy.
    ///
    /// Returns one [`CdlOutput`] per input, in input order.
    ///
    /// # Errors
    ///
    /// Propagates layer/head evaluation errors.
    pub fn classify_batch(&mut self, inputs: &[Tensor]) -> Result<Vec<CdlOutput>> {
        self.classify_batch_with_override(inputs, ExitOverride::NONE)
    }

    /// Classifies a batch with per-request [`ExitOverride`]s (δ replacement
    /// and/or cascade-depth cap) applied **uniformly to the whole batch** —
    /// the serving layer groups requests by effective override before
    /// evaluating, so scratch reuse and bit-exactness are preserved.
    ///
    /// Every output is bit-identical to
    /// [`CdlNetwork::classify_with_override`] on the same input.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadPolicy`] when the overridden δ is out of
    /// range; propagates layer/head evaluation errors.
    pub fn classify_batch_with_override(
        &mut self,
        inputs: &[Tensor],
        ovr: ExitOverride,
    ) -> Result<Vec<CdlOutput>> {
        let mut gate = policy_gate(self.effective_policy(ovr)?, ovr.max_stage);
        self.classify_chunk(inputs, &mut gate, &mut |_, _| {}, &mut never_shed)
            .map(into_done)
    }

    /// The network's policy with `ovr` applied, validated.
    fn effective_policy(&self, ovr: ExitOverride) -> Result<ConfidencePolicy> {
        let policy = ovr.effective_policy(self.net.policy());
        policy.validate()?;
        Ok(policy)
    }

    /// One pass of the whole of `inputs` through the cascade — the one
    /// segment → head → gate loop, which every entry point ends in. The
    /// exit test is the parameter: `gate(stage, scores, probs)` is shown
    /// each still-active input's score row at `stage`, in input order
    /// (`probs` is the evaluator's softmax work row), and settles the input
    /// there with the decision it returns or, with `None`, sends it on.
    /// Classification passes [`policy_gate`]; [`BatchEvaluator::trace`]
    /// passes one that copies the row out and exits nothing. `observer` and
    /// `shed` are the hooks documented on
    /// [`BatchEvaluator::classify_stream_with_override_sheddable`], here
    /// with indices into `inputs`.
    fn classify_chunk(
        &mut self,
        inputs: &[Tensor],
        gate: &mut impl FnMut(usize, &[f32], &mut Vec<f32>) -> Result<Option<Decision>>,
        observer: &mut dyn FnMut(usize, &[usize]),
        shed: &mut dyn FnMut(usize, usize) -> bool,
    ) -> Result<Vec<SheddableOutcome>> {
        let n = inputs.len();
        let mut outputs: Vec<Option<SheddableOutcome>> = (0..n).map(|_| None).collect();
        if n == 0 {
            return Ok(Vec::new());
        }

        // the still-active subset: row `k` of the scratch's block belongs to
        // input `active_idx[k]`. Until the first segment has run the block
        // *is* the caller's tensors, read in place.
        let mut source = Some(inputs);
        let mut active_idx: Vec<usize> = (0..n).collect();
        let mut prev_tap: Option<usize> = None;
        // cumulative cost of reaching (and gating at) each stage — identical
        // for every image that reaches it, mirroring `CdlNetwork::classify_with`
        let mut cum_ops = OpCount::ZERO;

        for (stage_idx, stage) in self.net.stages().iter().enumerate() {
            // stage boundary: before paying for stage `stage_idx`, offer
            // every still-active input to the shed hook (never before
            // stage 0 — dispatch-time checks own that boundary)
            if source.is_none() {
                shed_boundary(
                    stage_idx,
                    cum_ops,
                    &mut self.scratch,
                    &mut active_idx,
                    &mut outputs,
                    shed,
                );
                if active_idx.is_empty() {
                    return collect(outputs);
                }
            }
            self.net.base().forward_block_segment(
                source.take(),
                prev_tap,
                stage.tap_runtime,
                &mut self.scratch,
            )?;
            cum_ops += stage.ops_from_prev + stage.head_ops;

            stage.head.scores_rows_into(
                self.scratch.block(),
                &mut self.head_scores,
                self.scratch.kernel,
            )?;
            observer(stage_idx, &active_idx);
            let classes = stage.head.classes();
            let (head_scores, probs) = (&self.head_scores, &mut self.probs);
            compact(&mut self.scratch, &mut active_idx, |k, idx| {
                let row = &head_scores[k * classes..(k + 1) * classes];
                let exit = gate(stage_idx, row, probs)?;
                if let Some(decision) = exit {
                    let out = early_output(stage_idx, decision, cum_ops);
                    outputs[idx] = Some(SheddableOutcome::Done(out));
                }
                Ok(exit.is_none())
            })?;
            if active_idx.is_empty() {
                return collect(outputs);
            }
            prev_tap = Some(stage.tap_runtime);
        }

        // survivors run the remaining baseline layers to the final output
        let stage_count = self.net.stage_count();
        if source.is_none() {
            // last boundary: shed before committing to the baseline tail
            shed_boundary(
                stage_count,
                cum_ops,
                &mut self.scratch,
                &mut active_idx,
                &mut outputs,
                shed,
            );
            if active_idx.is_empty() {
                return collect(outputs);
            }
        }
        let last = self.net.base().layer_count() - 1;
        self.net
            .base()
            .forward_block_segment(source.take(), prev_tap, last, &mut self.scratch)?;
        cum_ops += self.net.final_ops();
        observer(stage_count, &active_idx);
        for (k, &idx) in active_idx.iter().enumerate() {
            let out = final_output(stage_count, self.scratch.row(k), &mut self.probs, cum_ops)?;
            outputs[idx] = Some(SheddableOutcome::Done(out));
        }
        collect(outputs)
    }

    /// Classifies an arbitrarily long stream by pushing
    /// [`BatchEvaluator::STREAM_CHUNK`]-image chunks through
    /// [`BatchEvaluator::classify_batch`] — large enough to amortise each
    /// layer's set-up over many blocks of eight, small enough to bound the
    /// arenas (`chunk ×` the widest layer's per-image volume, twice; the
    /// portable arm's patch matrix is `k²·c` times that). Outputs stay
    /// bit-identical to per-image
    /// [`CdlNetwork::classify`], in input order.
    ///
    /// # Errors
    ///
    /// Propagates layer/head evaluation errors.
    pub fn classify_stream(&mut self, inputs: &[Tensor]) -> Result<Vec<CdlOutput>> {
        self.classify_stream_with_override(inputs, ExitOverride::NONE)
    }

    /// [`BatchEvaluator::classify_stream`] with one [`ExitOverride`]
    /// applied to every image of the stream (see
    /// [`BatchEvaluator::classify_batch_with_override`]).
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadPolicy`] when the overridden δ is out of
    /// range; propagates layer/head evaluation errors.
    pub fn classify_stream_with_override(
        &mut self,
        inputs: &[Tensor],
        ovr: ExitOverride,
    ) -> Result<Vec<CdlOutput>> {
        self.classify_stream_with_override_observed(inputs, ovr, &mut |_, _| {})
    }

    /// [`BatchEvaluator::classify_stream_with_override`] with the
    /// per-stage observer of
    /// [`BatchEvaluator::classify_stream_with_override_sheddable`] — the
    /// hook request-lifecycle tracing builds per-stage spans on.
    ///
    /// # Errors
    ///
    /// Same contract as [`BatchEvaluator::classify_stream_with_override`].
    pub fn classify_stream_with_override_observed(
        &mut self,
        inputs: &[Tensor],
        ovr: ExitOverride,
        observer: &mut dyn FnMut(usize, &[usize]),
    ) -> Result<Vec<CdlOutput>> {
        self.classify_stream_with_override_sheddable(inputs, ovr, observer, &mut never_shed)
            .map(into_done)
    }

    /// The full-form entry every other `classify_*` name is sugar for:
    /// pushes [`BatchEvaluator::STREAM_CHUNK`]-image chunks through the
    /// cascade under `ovr`, with a per-stage **observer** and a per-input
    /// **shed hook**.
    ///
    /// After each cascade segment (before the exit gate compacts the
    /// batch) `observer(stage, active)` sees the inputs still active at
    /// that stage; the final baseline segment reports as stage
    /// [`CdlNetwork::stage_count`]. The observer only watches: every output
    /// is the same whatever it does.
    ///
    /// At every stage boundary — before cascade stage `s ≥ 1` runs, and
    /// before the final baseline segment — `shed(next_stage, input)` may
    /// evict a still-active input instead of paying for `next_stage`: it
    /// settles as [`SheddableOutcome::Shed`] with the exact work already
    /// consumed, and the survivors stay **bit-identical** to a pass that
    /// sheds nothing (shedding only removes rows from the batched GEMMs,
    /// which never changes per-row arithmetic). The hook is *not*
    /// consulted before stage 0: admission-time expiry is the
    /// dispatcher's job, and an input that was live at dispatch has
    /// already been committed to its first segment. This is what the
    /// serving layer's mid-batch deadline shedding builds on: a request
    /// whose deadline passes while its batch is in flight stops consuming
    /// cascade stages at the next boundary.
    ///
    /// Both hooks see indices into the full `inputs` stream (chunk-local
    /// indices are shifted by the chunk base), so one pair serves the
    /// whole stream.
    ///
    /// # Errors
    ///
    /// Same contract as [`BatchEvaluator::classify_stream_with_override`].
    pub fn classify_stream_with_override_sheddable(
        &mut self,
        inputs: &[Tensor],
        ovr: ExitOverride,
        observer: &mut dyn FnMut(usize, &[usize]),
        shed: &mut dyn FnMut(usize, usize) -> bool,
    ) -> Result<Vec<SheddableOutcome>> {
        let mut gate = policy_gate(self.effective_policy(ovr)?, ovr.max_stage);
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut shifted: Vec<usize> = Vec::new();
        for (chunk_no, chunk) in inputs.chunks(Self::STREAM_CHUNK).enumerate() {
            let base = chunk_no * Self::STREAM_CHUNK;
            outputs.extend(self.classify_chunk(
                chunk,
                &mut gate,
                &mut |stage, active| {
                    shifted.clear();
                    shifted.extend(active.iter().map(|&k| base + k));
                    observer(stage, &shifted);
                },
                &mut |next_stage, idx| shed(next_stage, base + idx),
            )?);
        }
        Ok(outputs)
    }

    /// Runs `inputs` through **every** stage once — in
    /// [`BatchEvaluator::STREAM_CHUNK`] chunks, through the same loop as
    /// classification with a gate that exits nothing — and returns what the
    /// activation module would have been shown: each input's raw score row
    /// at every head and its final-layer output row. The trace does not
    /// depend on any policy; [`CascadeTrace::outputs`] replays one.
    ///
    /// # Errors
    ///
    /// Propagates layer/head evaluation errors.
    pub fn trace(&mut self, inputs: &[Tensor]) -> Result<CascadeTrace> {
        let stages = self.net.stage_count();
        let mut rows = vec![Vec::new(); stages + 1];
        for chunk in inputs.chunks(Self::STREAM_CHUNK) {
            self.classify_chunk(
                chunk,
                &mut |stage, scores: &[f32], _: &mut Vec<f32>| {
                    rows[stage].extend_from_slice(scores);
                    Ok(None)
                },
                &mut |_, _| {},
                &mut never_shed,
            )?;
            // nothing exited and nothing was shed, so the block the pass
            // left in the arena is every input's final output, in input order
            for k in 0..chunk.len() {
                rows[stages].extend_from_slice(self.scratch.row(k));
            }
        }
        let mut exit_ops = Vec::with_capacity(stages + 1);
        let mut cum_ops = OpCount::ZERO;
        for stage in self.net.stages() {
            cum_ops += stage.ops_from_prev + stage.head_ops;
            exit_ops.push(cum_ops);
        }
        exit_ops.push(cum_ops + self.net.final_ops());
        Ok(CascadeTrace {
            rows,
            exit_ops,
            baseline_ops: self.net.baseline_ops(),
            len: inputs.len(),
        })
    }
}

/// What the activation module is shown for a set of inputs, whatever its
/// policy: produced once by [`BatchEvaluator::trace`], answered from as
/// often as there are questions (see the [module docs](self)).
#[derive(Debug)]
pub struct CascadeTrace {
    /// `rows[s]` is a row-major `[len, width]` block: head `s`'s raw scores
    /// for `s < stage_count`, the final layer's outputs for the last.
    rows: Vec<Vec<f32>>,
    /// `exit_ops[s]`: what an input that terminates at `s` has cost — the
    /// table `classify_chunk` accumulates as it goes (`stage_count()`: the
    /// whole cascade, every head included).
    pub(crate) exit_ops: Vec<OpCount>,
    /// One full baseline pass, no heads: what the statistics normalise by.
    pub(crate) baseline_ops: OpCount,
    len: usize,
}

impl CascadeTrace {
    /// Conditional stages of the traced network.
    pub fn stage_count(&self) -> usize {
        self.rows.len() - 1
    }

    /// Replays the cascade over the stored rows: stage `s` is gated by
    /// `policy_for(s)` and `max_stage` caps the depth, as
    /// [`ExitOverride::max_stage`] does. A uniform policy is `|_| policy`,
    /// a schedule `|s| schedule[s.min(schedule.len() - 1)]`. Every output
    /// is bit-identical to [`CdlNetwork::classify_with`] on the same input
    /// and the same pair: the same gate reads the same score bits and the
    /// same ops table.
    ///
    /// # Errors
    ///
    /// Returns [`CdlError::BadPolicy`] when a stage's policy is out of
    /// range, before anything is replayed.
    pub fn outputs(
        &self,
        policy_for: impl Fn(usize) -> ConfidencePolicy,
        max_stage: Option<usize>,
    ) -> Result<Vec<CdlOutput>> {
        let stages = self.stage_count();
        let mut gates = Vec::with_capacity(stages);
        for stage in 0..stages {
            let policy = policy_for(stage);
            policy.validate()?;
            gates.push(policy_gate(policy, max_stage));
        }
        let mut probs = Vec::new();
        (0..self.len)
            .map(|i| {
                for (stage, gate) in gates.iter_mut().enumerate() {
                    if let Some(decision) = gate(stage, self.row(stage, i), &mut probs)? {
                        return Ok(early_output(stage, decision, self.exit_ops[stage]));
                    }
                }
                final_output(
                    stages,
                    self.row(stages, i),
                    &mut probs,
                    self.exit_ops[stages],
                )
            })
            .collect()
    }

    /// The baseline network's label for input `i` — the arg-max of its
    /// final-layer row, as [`CdlNetwork::classify_baseline`] computes it.
    ///
    /// # Panics
    ///
    /// Panics when `i` is not one of the traced inputs.
    pub fn baseline_label(&self, i: usize) -> usize {
        self.stage_label(self.stage_count(), i)
    }

    /// The label head `stage` alone would give input `i` (the arg-max of
    /// its score row); `stage == stage_count()` is the final layer.
    ///
    /// # Panics
    ///
    /// Panics when `stage > stage_count()` or `i` is not one of the traced
    /// inputs.
    pub(crate) fn stage_label(&self, stage: usize, i: usize) -> usize {
        ops::argmax(self.row(stage, i)).expect("a head or output layer has at least one class")
    }

    fn row(&self, stage: usize, i: usize) -> &[f32] {
        assert!(i < self.len, "input {i} of a {}-input trace", self.len);
        let width = self.rows[stage].len() / self.len;
        &self.rows[stage][i * width..(i + 1) * width]
    }
}

/// The cascade's own exit test: `policy`'s decision on the score row, which
/// settles the input when it says exit — or, at and past the depth cap
/// `force_exit_at`, whatever it says.
fn policy_gate(
    policy: ConfidencePolicy,
    force_exit_at: Option<usize>,
) -> impl FnMut(usize, &[f32], &mut Vec<f32>) -> Result<Option<Decision>> {
    move |stage, scores, probs| {
        let decision = policy.decide_row(scores, probs)?;
        let exits = decision.exit || force_exit_at.is_some_and(|cap| stage >= cap);
        Ok(exits.then_some(decision))
    }
}

/// The output of an input settled by head `stage`'s `decision`.
fn early_output(stage: usize, decision: Decision, ops: OpCount) -> CdlOutput {
    CdlOutput {
        label: decision.label,
        exit_stage: stage,
        confidence: decision.confidence,
        ops,
        stages_activated: stage as u64 + 1,
        exited_early: true,
    }
}

/// The output of an input that passed every gate, from its final-layer row.
fn final_output(
    stage_count: usize,
    out: &[f32],
    probs: &mut Vec<f32>,
    ops: OpCount,
) -> Result<CdlOutput> {
    let label = ops::argmax(out)
        .ok_or_else(|| CdlError::BadStage("baseline produced empty output".into()))?;
    probs.resize(out.len(), 0.0);
    ops::softmax_into(out, probs);
    Ok(CdlOutput {
        label,
        exit_stage: stage_count,
        confidence: probs[label],
        ops,
        stages_activated: stage_count as u64 + 1,
        exited_early: false,
    })
}

/// The one in-place row gather the exit gate and the shed boundary share:
/// asks `keep(k, input)` about every row `k` of the scratch's block (the
/// row of input `active_idx[k]`), in order, and moves the rows it keeps up
/// over the ones it does not — block and index list shrink together, the
/// survivors' order and values untouched.
fn compact(
    scratch: &mut BatchScratch,
    active_idx: &mut Vec<usize>,
    mut keep: impl FnMut(usize, usize) -> Result<bool>,
) -> Result<()> {
    let mut kept = 0;
    for k in 0..active_idx.len() {
        let idx = active_idx[k];
        if keep(k, idx)? {
            scratch.move_row(k, kept);
            active_idx[kept] = idx;
            kept += 1;
        }
    }
    scratch.truncate_rows(kept);
    active_idx.truncate(kept);
    Ok(())
}

/// Offers every still-active input to the shed hook at the boundary
/// before `next_stage`; evicted inputs settle as `Shed` carrying the
/// cumulative cost `cum_ops` (the cost of the `next_stage` stages they
/// already ran).
fn shed_boundary(
    next_stage: usize,
    cum_ops: OpCount,
    scratch: &mut BatchScratch,
    active_idx: &mut Vec<usize>,
    outputs: &mut [Option<SheddableOutcome>],
    shed: &mut dyn FnMut(usize, usize) -> bool,
) {
    compact(scratch, active_idx, |_, idx| {
        let evicted = shed(next_stage, idx);
        if evicted {
            outputs[idx] = Some(SheddableOutcome::Shed(PartialEval {
                stages_activated: next_stage as u64,
                ops: cum_ops,
            }));
        }
        Ok(!evicted)
    })
    .expect("the shed hook cannot fail");
}

fn collect(outputs: Vec<Option<SheddableOutcome>>) -> Result<Vec<SheddableOutcome>> {
    outputs
        .into_iter()
        .map(|o| {
            o.ok_or_else(|| CdlError::BadStage("image left unclassified by batch pass".into()))
        })
        .collect()
}

/// Unwraps a never-shed pass back to plain outputs (the non-sheddable
/// entry points route through the sheddable core with [`never_shed`], so
/// a `Shed` arm here is impossible).
fn into_done(outcomes: Vec<SheddableOutcome>) -> Vec<CdlOutput> {
    outcomes
        .into_iter()
        .map(|o| match o {
            SheddableOutcome::Done(out) => out,
            SheddableOutcome::Shed(_) => unreachable!("never_shed hook cannot shed"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::mnist_3c;
    use crate::head::LinearClassifier;
    use cdl_nn::network::Network;

    fn build_untrained() -> CdlNetwork {
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
        CdlNetwork::assemble(base, stages, ConfidencePolicy::max_prob(0.6)).unwrap()
    }

    fn batch(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::full(&[1, 28, 28], 0.1 + 0.07 * (i as f32 % 11.0)))
            .collect()
    }

    #[test]
    fn matches_per_image_classify_exactly() {
        let cdl = build_untrained();
        let inputs = batch(24);
        let mut eval = BatchEvaluator::new(&cdl);
        for policy in [
            ConfidencePolicy::max_prob(0.6),
            ConfidencePolicy::margin(1e-6),
            ConfidencePolicy::max_prob(0.999),
            ConfidencePolicy::sigmoid_prob(0.5),
        ] {
            // the gated loop itself, under each policy kind
            let batched = eval
                .classify_chunk(
                    &inputs,
                    &mut policy_gate(policy, None),
                    &mut |_, _| {},
                    &mut never_shed,
                )
                .map(into_done)
                .unwrap();
            for (img, out) in inputs.iter().zip(&batched) {
                let single = cdl.classify_with(img, |_| policy, None).unwrap();
                assert_eq!(*out, single, "policy {policy}");
            }
        }
    }

    #[test]
    fn every_gemm_kernel_matches_per_image_classify() {
        let cdl = build_untrained();
        let inputs = batch(19);
        for kernel in GemmKernel::ALL {
            let mut eval = BatchEvaluator::with_kernel(&cdl, kernel);
            assert_eq!(eval.scratch.kernel, kernel);
            let batched = eval.classify_batch(&inputs).unwrap();
            for (img, out) in inputs.iter().zip(&batched) {
                assert_eq!(*out, cdl.classify(img).unwrap(), "kernel {kernel:?}");
            }
        }
        // the default evaluator runs the host-detected kernel
        assert_eq!(
            BatchEvaluator::new(&cdl).scratch.kernel,
            GemmKernel::detect()
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let cdl = build_untrained();
        let mut eval = BatchEvaluator::new(&cdl);
        assert!(eval.classify_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn single_image_batch_matches() {
        let cdl = build_untrained();
        let x = Tensor::full(&[1, 28, 28], 0.4);
        let mut eval = BatchEvaluator::new(&cdl);
        let out = eval.classify_batch(std::slice::from_ref(&x)).unwrap();
        assert_eq!(out[0], cdl.classify(&x).unwrap());
    }

    #[test]
    fn scratch_reuse_is_stable() {
        let cdl = build_untrained();
        let inputs = batch(9);
        let mut eval = BatchEvaluator::new(&cdl);
        let first = eval.classify_batch(&inputs).unwrap();
        let second = eval.classify_batch(&inputs).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn stream_matches_one_big_batch() {
        let cdl = build_untrained();
        // spans multiple STREAM_CHUNK chunks without being slow
        let inputs = batch(BatchEvaluator::STREAM_CHUNK + 17);
        let mut eval = BatchEvaluator::new(&cdl);
        let streamed = eval.classify_stream(&inputs).unwrap();
        let whole = eval.classify_batch(&inputs).unwrap();
        assert_eq!(streamed, whole);
        assert!(eval.classify_stream(&[]).unwrap().is_empty());
    }

    #[test]
    fn trace_replays_to_the_per_image_cascade_and_baseline() {
        let cdl = build_untrained();
        // spans two stream chunks
        let inputs = batch(BatchEvaluator::STREAM_CHUNK + 13);
        let mut eval = BatchEvaluator::new(&cdl);
        let trace = eval.trace(&inputs).unwrap();
        assert_eq!(trace.stage_count(), 2);
        // the network's policy kind at δ ≈ 1 (nothing exits on its own), and
        // a margin any non-tied row clears
        let strict = ConfidencePolicy::max_prob(0.999);
        let lax = ConfidencePolicy::margin(1e-6);
        let capped = ExitOverride {
            delta: Some(0.999),
            max_stage: Some(1),
        };
        let uniform_strict = trace.outputs(|_| strict, None).unwrap();
        let uniform_lax = trace.outputs(|_| lax, None).unwrap();
        let schedule = |s: usize| [strict, lax][s];
        // a per-stage schedule under every depth cap, and uncapped
        let scheduled: Vec<_> = (0..trace.stage_count())
            .map(Some)
            .chain([None])
            .map(|cap| (cap, trace.outputs(schedule, cap).unwrap()))
            .collect();
        let with_cap = trace.outputs(|_| strict, capped.max_stage).unwrap();
        for (i, img) in inputs.iter().enumerate() {
            let oracle = |policy| cdl.classify_with(img, |_| policy, None).unwrap();
            assert_eq!(uniform_strict[i], oracle(strict));
            assert_eq!(uniform_lax[i], oracle(lax));
            for (cap, outputs) in &scheduled {
                let single = cdl.classify_with(img, schedule, *cap).unwrap();
                assert_eq!(outputs[i], single, "cap {cap:?}");
            }
            assert_eq!(
                with_cap[i],
                cdl.classify_with_override(img, capped).unwrap()
            );
            let baseline = (trace.baseline_label(i), trace.baseline_ops);
            assert_eq!(baseline, cdl.classify_baseline(img).unwrap());
        }
        assert_eq!(uniform_strict.len(), inputs.len());
        assert_eq!(trace.exit_ops[2], cdl.worst_case_ops());
        // an out-of-range stage policy is rejected by both before anything
        // is evaluated, even behind a stage every input exits at
        let bad = |s: usize| [lax, ConfidencePolicy::max_prob(0.0)][s];
        assert!(trace.outputs(bad, None).is_err());
        assert!(cdl.classify_with(&inputs[0], bad, None).is_err());
        let nothing = eval.trace(&[]).unwrap();
        assert!(nothing.outputs(|_| strict, None).unwrap().is_empty());
    }

    #[test]
    fn override_batch_matches_per_image_override() {
        let cdl = build_untrained();
        let inputs = batch(17);
        let mut eval = BatchEvaluator::new(&cdl);
        for ovr in [
            ExitOverride::NONE,
            ExitOverride::with_delta(0.45),
            ExitOverride::with_delta(0.999),
            ExitOverride {
                max_stage: Some(0),
                ..ExitOverride::NONE
            },
            ExitOverride {
                max_stage: Some(1),
                ..ExitOverride::NONE
            },
            ExitOverride {
                delta: Some(0.999),
                max_stage: Some(1),
            },
        ] {
            let batched = eval.classify_batch_with_override(&inputs, ovr).unwrap();
            for (img, out) in inputs.iter().zip(&batched) {
                let single = cdl.classify_with_override(img, ovr).unwrap();
                assert_eq!(*out, single, "override {ovr}");
            }
            let streamed = eval.classify_stream_with_override(&inputs, ovr).unwrap();
            assert_eq!(streamed, batched, "override {ovr}");
        }
        // invalid δ is rejected before any evaluation
        assert!(eval
            .classify_batch_with_override(&inputs, ExitOverride::with_delta(-1.0))
            .is_err());
    }

    #[test]
    fn observed_classification_is_bit_identical_and_reports_every_stage() {
        let cdl = build_untrained();
        // spans two stream chunks so the index-shifting path is exercised
        let inputs = batch(BatchEvaluator::STREAM_CHUNK + 31);
        let mut eval = BatchEvaluator::new(&cdl);
        let plain = eval
            .classify_stream_with_override(&inputs, ExitOverride::NONE)
            .unwrap();
        // per input: the set of stages the observer saw it active at
        let mut seen: Vec<Vec<usize>> = vec![Vec::new(); inputs.len()];
        let observed = eval
            .classify_stream_with_override_observed(
                &inputs,
                ExitOverride::NONE,
                &mut |stage, active| {
                    for &i in active {
                        seen[i].push(stage);
                    }
                },
            )
            .unwrap();
        assert_eq!(observed, plain, "observer must not perturb results");
        let stage_count = cdl.stage_count();
        for (i, out) in observed.iter().enumerate() {
            // an image that exited at stage s was active at exactly
            // stages 0..=s (the final baseline segment reports as
            // stage_count)
            let expect: Vec<usize> = if out.exited_early {
                (0..=out.exit_stage).collect()
            } else {
                (0..=stage_count).collect()
            };
            assert_eq!(seen[i], expect, "input {i}: {out:?}");
        }
    }

    #[test]
    fn never_shedding_hook_is_bit_identical() {
        let cdl = build_untrained();
        let inputs = batch(BatchEvaluator::STREAM_CHUNK + 9);
        let mut eval = BatchEvaluator::new(&cdl);
        let ovr = ExitOverride::with_delta(0.999); // keep most images deep
        let plain = eval.classify_stream_with_override(&inputs, ovr).unwrap();
        let sheddable = eval
            .classify_stream_with_override_sheddable(&inputs, ovr, &mut |_, _| {}, &mut |_, _| {
                false
            })
            .unwrap();
        assert_eq!(sheddable.len(), plain.len());
        for (got, want) in sheddable.iter().zip(&plain) {
            assert_eq!(*got, SheddableOutcome::Done(want.clone()));
        }
    }

    #[test]
    fn shed_hook_evicts_with_honest_partial_accounting_and_exact_survivors() {
        let cdl = build_untrained();
        let inputs = batch(12);
        let mut eval = BatchEvaluator::new(&cdl);
        // δ high enough that images survive past stage 0, so boundaries
        // after stage 0 actually see active inputs
        let ovr = ExitOverride::with_delta(0.999);
        let plain = eval.classify_batch_with_override(&inputs, ovr).unwrap();

        // shed inputs 3 and 7 at the first boundary they are offered
        let mut offered: Vec<Vec<usize>> = vec![Vec::new(); inputs.len()];
        let outcomes = eval
            .classify_stream_with_override_sheddable(
                &inputs,
                ovr,
                &mut |_, _| {},
                &mut |next_stage, idx| {
                    offered[idx].push(next_stage);
                    idx == 3 || idx == 7
                },
            )
            .unwrap();

        // the first offer is at the boundary *after* stage 0, never before
        for offers in offered.iter().filter(|o| !o.is_empty()) {
            assert!(offers[0] >= 1, "offers: {offers:?}");
        }
        for (i, outcome) in outcomes.iter().enumerate() {
            if (i == 3 || i == 7) && plain[i].stages_activated > 1 {
                // evicted at the boundary after stage 0: exactly one stage
                // of work done, at the cost every stage-0 image pays
                let SheddableOutcome::Shed(partial) = outcome else {
                    panic!("input {i} should have been shed: {outcome:?}");
                };
                assert_eq!(partial.stages_activated, 1);
                assert!(partial.ops.compute_ops() > 0, "shed work must be non-zero");
                assert!(
                    partial.ops.compute_ops() < plain[i].ops.compute_ops(),
                    "partial cost must undercut the full run"
                );
            } else {
                // survivors (and images that exited at stage 0 before any
                // boundary) are bit-identical to the unshredded pass
                assert_eq!(
                    *outcome,
                    SheddableOutcome::Done(plain[i].clone()),
                    "input {i}"
                );
            }
        }
    }

    #[test]
    fn no_stage_network_runs_to_final() {
        let arch = mnist_3c();
        let base = Network::from_spec(&arch.spec, 3).unwrap();
        let cdl = CdlNetwork::assemble(base, vec![], ConfidencePolicy::max_prob(0.5)).unwrap();
        let inputs = batch(5);
        let mut eval = BatchEvaluator::new(&cdl);
        let outs = eval.classify_batch(&inputs).unwrap();
        for (img, out) in inputs.iter().zip(&outs) {
            assert_eq!(*out, cdl.classify(img).unwrap());
            assert_eq!(out.exit_stage, 0);
            assert!(!out.exited_early);
        }
        // with no head to store, the trace is the final rows alone
        let trace = eval.trace(&inputs).unwrap();
        assert_eq!(trace.outputs(|_| cdl.policy(), None).unwrap(), outs);
    }
}
