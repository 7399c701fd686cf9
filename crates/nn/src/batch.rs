//! Batched inference support: a batch travels a (slice of a)
//! [`crate::network::Network`] as **one block**, ping-ponging between two
//! arenas, under the host's GEMM kernel.
//!
//! The pattern follows batched GPU evaluators (one persistent evaluator,
//! preallocated buffers, the plan — algorithm included — made once at
//! construction from the device, never handed in): a [`BatchScratch`] is
//! allocated once and threaded through every batched call, and the
//! [`GemmKernel`] it found at construction is the body every convolution,
//! batched affine and head runs.
//!
//! # The block and the two arenas
//!
//! Between layers a batch of `n` images is a contiguous row-major `[n, f]`
//! block — image `i` is row `i`, `f` the per-image volume, with the
//! per-image shape (`[c, h, w]`, `[f]`, …) kept beside it — living in one of
//! two grow-only arenas owned by the [`BatchScratch`]. A layer that computes
//! something new reads the rows of the current arena and writes its output
//! block into the other, which then becomes current (`Block::write`):
//! `Conv2d` (alone or as a fused stage group, below), `MaxPool2d` alone
//! (each image's planes scanned where they lie) and `Dense` (one
//! `cdl_tensor::gemm::gemm_nt_rows` over the rows as they lie). The rest
//! never move the data:
//! `ActivationLayer` runs [`Activation::apply_slice`] over the whole block
//! **in place** (`Block::data_mut`) and `Flatten` only relabels the
//! per-image shape (`Block::reshape`). No `Tensor` is built per image per
//! layer, and after the first batch nothing is allocated: the arenas and the
//! conv scratch only grow, so a later, smaller batch fits what is there.
//!
//! A segment's first layer may read the **caller's tensors in place**
//! (`Network::forward_block_segment(Some(xs), ..)` — the cascade's first
//! stage): they are the rows until some layer writes a block, so the batch
//! is never copied just to be adjacent. Every input's shape is checked
//! against the shape the network expects at that layer before anything is
//! read, so a wrong-shaped or mixed-shape batch is an `Err`, not a per-image
//! detour and never an out-of-bounds read.
//!
//! Whoever owns the scratch sees the segment's output through
//! [`BatchScratch::block`] / [`BatchScratch::row`], hands the same block to
//! a head, and — the cascade's exit gate, a mid-batch shed — compacts the
//! survivors in place with [`BatchScratch::move_row`] +
//! [`BatchScratch::truncate_rows`] before the next segment continues from
//! it (`forward_block_segment(None, ..)`).
//!
//! # Fused stage groups
//!
//! `Network::from_spec` finds, once, every run of runtime layers
//! `Conv2d → ActivationLayer → MaxPool2d` (the activation layer is absent
//! for `Identity`): every [`Activation`] commutes with max pooling, so every
//! convolution a max-pool follows opens one. The plan is a list of layer
//! indices with the activation and the window — never a copy of weights —
//! so training, `import_params` and a model hot-swap cannot leave it stale.
//! A segment runs such a group as **one pass** whenever it lies wholly
//! inside the requested `(from, upto]`, which every cascade segment does
//! since taps sit after pools: the network
//! offers the conv layer the group's epilogue (`Block::take_epilogue`),
//! and `cdl_tensor::im2col::conv2d_pool_block` convolves and **max-pools
//! the pre-activations inside the conv kernel** — each tile's accumulators
//! are pooled before anything is stored, so no raw conv map is written and
//! no second pass reads one — applies the activation to the pooled values
//! only and writes them straight into the next block — eight images to a
//! vector where the direct kernel would leave more lanes idle than its
//! taps repay (see `cdl_tensor::gemm` for which kernel runs when).
//!
//! Pooling first is exact, not approximate. For a non-decreasing `f`,
//! `max(f(a), f(b)) = f(max(a, b))`; for the *bits* to agree under the
//! pool's scan (first element wins ties, NaN-aware) `f` must also map NaN
//! to NaN, give numerically equal outputs of distinct inputs identical
//! bits, and treat `-0.0` and `+0.0` alike. `activation`'s tests establish
//! this for every variant over every `f32`. A 2×2 pool therefore evaluates
//! a quarter of the activations (864 instead of 3456 sigmoids for MNIST_2C's
//! C1), and those as whole slices:
//! [`Activation::apply_slice`](crate::activation::Activation::apply_slice)
//! for the sigmoid is `cdl_tensor::math::sigmoid_slice` — a plain loop over
//! the same FMA-free polynomial `exp` the per-image `Activation::apply`
//! evaluates one cell at a time, compiled a second time for AVX2 where the
//! vectoriser runs eight cells to a register — the batch's arm picks which,
//! as it does for every other body — equal bit for bit because it
//! is one source (`cdl_tensor::math`'s sweep over all 2³² patterns confirms
//! it). There is no second sigmoid.
//!
//! Everything else runs layer by layer through [`Layer::forward_block`], in
//! the layers' own order: flatten, dense and the dense layer's activation,
//! and a segment that starts or ends inside a group. Which route a layer
//! takes is decided by the layer sequence and the segment alone — there is
//! no switch. Both routes reproduce the per-image `forward` path **bit for
//! bit** on both [`GemmKernel`] arms and for every batch size, one included
//! (see `cdl_tensor::gemm` for why neither tiling nor sharing a vector with
//! other images changes an element's addition sequence);
//! `tests/batch_equivalence.rs`, this crate's proptests and the golden
//! vectors of `tests/golden.rs` pin that per arm.
//!
//! Fusion is a host-execution matter only: [`cdl_hw::OpCount`] remains the
//! paper's per-layer analytic model — a fused group still costs its conv
//! MACs, one activation per *unpooled* cell and the pool's compares — so
//! ops-reduction and energy figures do not move.

use cdl_tensor::gemm::GemmKernel;
use cdl_tensor::im2col::ConvScratch;
use cdl_tensor::{Rows, Tensor};

use crate::activation::Activation;
use crate::error::NnError;
use crate::layer::Layer;
use crate::Result;

/// The two arenas, the conv scratch and the GEMM kernel of batched forward
/// passes, plus the block the last segment left behind (see the [module
/// docs](self)).
///
/// One instance serves a whole network, batch after batch: the buffers grow
/// on first use and are never shrunk. The kernel is fixed at construction —
/// [`BatchScratch::new`] asks the host ([`GemmKernel::detect`]: the AVX2
/// bodies where the CPU has them, the portable ones otherwise);
/// [`BatchScratch::with_kernel`] is the parity suites' way to run the other
/// arm — so every layer of every batch runs the same body.
#[derive(Debug, Default, Clone)]
pub struct BatchScratch {
    /// The GEMM arm every batched conv/dense/head evaluation runs.
    pub kernel: GemmKernel,
    /// Conv kernel scratch shared by all conv layers and fused groups.
    conv: ConvScratch,
    /// The current block is the first `rows · width` values of
    /// `arenas[current]`; the next writing layer fills the other.
    arenas: [Vec<f32>; 2],
    current: usize,
    rows: usize,
    /// Per-image shape of the current block.
    dims: Vec<usize>,
}

impl BatchScratch {
    /// A fresh, empty scratch running the host's kernel
    /// ([`GemmKernel::detect`]); buffers grow on first use.
    pub fn new() -> Self {
        BatchScratch::default()
    }

    /// A fresh, empty scratch pinned to `kernel` — for parity suites that
    /// walk [`GemmKernel::ALL`]; nothing else has a reason to differ from
    /// [`BatchScratch::new`].
    pub fn with_kernel(kernel: GemmKernel) -> Self {
        BatchScratch {
            kernel,
            ..BatchScratch::default()
        }
    }

    /// Images in the current block.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Values per image of the current block.
    pub(crate) fn width(&self) -> usize {
        self.dims.iter().product()
    }

    /// The current block as rows, for a kernel to read where they lie.
    pub fn block(&self) -> Rows<'_> {
        let width = self.width();
        Rows::Block {
            data: &self.arenas[self.current][..self.rows * width],
            width,
        }
    }

    /// Row `i` of the current block.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} of a {}-row block", self.rows);
        let width = self.width();
        &self.arenas[self.current][i * width..(i + 1) * width]
    }

    /// Copies row `from` of the current block over row `to` — one step of
    /// an in-place, order-preserving gather (`to <= from`, ascending).
    ///
    /// # Panics
    ///
    /// Panics when either index is not a row of the block.
    pub fn move_row(&mut self, from: usize, to: usize) {
        assert!(from < self.rows && to < self.rows);
        if from != to {
            let width = self.width();
            self.arenas[self.current].copy_within(from * width..(from + 1) * width, to * width);
        }
    }

    /// Keeps the first `rows` rows of the current block.
    ///
    /// # Panics
    ///
    /// Panics when the block has fewer.
    pub fn truncate_rows(&mut self, rows: usize) {
        assert!(rows <= self.rows);
        self.rows = rows;
    }

    /// The current block as one tensor per image — for callers that hold
    /// tensors on both sides of a segment.
    pub(crate) fn to_tensors(&self) -> Vec<Tensor> {
        (0..self.rows)
            .map(|i| {
                Tensor::from_vec(self.row(i).to_vec(), &self.dims)
                    .expect("a row holds exactly its shape's volume")
            })
            .collect()
    }

    /// Values all buffers together can hold without growing — what "a
    /// later, smaller batch allocates nothing" is checked against.
    pub fn capacity(&self) -> usize {
        self.conv.capacity() + self.arenas[0].capacity() + self.arenas[1].capacity()
    }

    fn set_dims(&mut self, dims: &[usize]) {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }
}

/// Grows `arena` to at least `len` values; never shrinks it.
fn grow(arena: &mut Vec<f32>, len: usize) {
    if arena.len() < len {
        arena.resize(len, 0.0);
    }
}

/// A batch on its way through a segment: what a
/// [`Layer::forward_block`] is handed. It is either still the caller's
/// tensors (until the first layer writes) or the scratch's current block;
/// a layer reads `Block::dims` and then either `Block::write`s a new
/// block, edits the values in place (`Block::data_mut`) or relabels
/// their shape (`Block::reshape`).
#[derive(Debug)]
pub struct Block<'a> {
    input: Option<&'a [Tensor]>,
    epilogue: Option<(Activation, usize)>,
    scratch: &'a mut BatchScratch,
}

impl<'a> Block<'a> {
    /// Starts a segment whose images must have per-image shape `expected`:
    /// on the caller's tensors `xs`, read in place, or — `None` — on the
    /// block the previous segment left in `scratch`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when an input tensor, or the
    /// scratch's block, does not have shape `expected` — before anything is
    /// read.
    pub(crate) fn begin(
        xs: Option<&'a [Tensor]>,
        expected: &[usize],
        scratch: &'a mut BatchScratch,
    ) -> Result<Self> {
        match xs {
            Some(xs) => {
                if let Some((i, x)) = xs.iter().enumerate().find(|(_, x)| x.dims() != expected) {
                    return Err(NnError::BadConfig(format!(
                        "batch input {i} has shape {:?}, the segment expects {expected:?}",
                        x.dims()
                    )));
                }
                scratch.rows = xs.len();
                scratch.set_dims(expected);
                // a fresh batch always starts from the same arena, so which
                // arena a layer writes — and how large each has to be — is
                // the same batch after batch
                scratch.current = 0;
            }
            None if scratch.dims != expected => {
                return Err(NnError::BadConfig(format!(
                    "the scratch holds a block of shape {:?}, the segment expects {expected:?}",
                    scratch.dims
                )));
            }
            None => {}
        }
        Ok(Block {
            input: xs,
            epilogue: None,
            scratch,
        })
    }

    /// Images in the batch.
    pub(crate) fn rows(&self) -> usize {
        self.scratch.rows
    }

    /// Per-image shape at this point of the segment.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.scratch.dims
    }

    /// Values per image at this point of the segment.
    pub(crate) fn width(&self) -> usize {
        self.scratch.width()
    }

    /// The arm every body of this batch runs.
    pub(crate) fn kernel(&self) -> GemmKernel {
        self.scratch.kernel
    }

    /// Runs `layer` on the block, offering it `epilogue` — the `(activation,
    /// max-pool window)` of the stage group it opens, if any. Returns
    /// whether the layer took the offer, i.e. ran the whole group.
    ///
    /// # Errors
    ///
    /// Whatever the layer returns.
    pub(crate) fn run(
        &mut self,
        layer: &dyn Layer,
        epilogue: Option<(Activation, usize)>,
    ) -> Result<bool> {
        self.epilogue = epilogue;
        layer.forward_block(self)?;
        Ok(epilogue.is_some() && self.epilogue.take().is_none())
    }

    /// The `(activation, max-pool window)` that follows this layer in a
    /// fusable stage group, if the network offered one. Taking it is the
    /// layer's promise to produce the group's output instead of its own.
    pub(crate) fn take_epilogue(&mut self) -> Option<(Activation, usize)> {
        self.epilogue.take()
    }

    /// Runs an out-of-place step: `step(source rows, their per-image shape,
    /// destination, conv scratch, kernel)` must fill the destination, a
    /// `[rows, product(out_dims)]` block in the arena the source is not in,
    /// which then becomes the current block of shape `out_dims`.
    ///
    /// # Errors
    ///
    /// Whatever `step` returns; the block is unchanged then.
    pub(crate) fn write(
        &mut self,
        out_dims: &[usize],
        step: impl FnOnce(Rows<'_>, &[usize], &mut [f32], &mut ConvScratch, GemmKernel) -> Result<()>,
    ) -> Result<()> {
        let s = &mut *self.scratch;
        let (width, out_width) = (s.width(), out_dims.iter().product::<usize>());
        let (head, tail) = s.arenas.split_at_mut(1);
        let (src, dst) = match s.current {
            0 => (&head[0], &mut tail[0]),
            _ => (&tail[0], &mut head[0]),
        };
        grow(dst, s.rows * out_width);
        let rows = match self.input {
            Some(xs) => Rows::Tensors(xs),
            None => Rows::Block {
                data: &src[..s.rows * width],
                width,
            },
        };
        step(
            rows,
            &s.dims,
            &mut dst[..s.rows * out_width],
            &mut s.conv,
            s.kernel,
        )?;
        self.input = None;
        s.current ^= 1;
        s.set_dims(out_dims);
        Ok(())
    }

    /// The block's values, `[rows, width]`, to edit in place. If the block
    /// is still the caller's tensors they are copied into an arena first.
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        let s = &mut *self.scratch;
        let width = s.width();
        let arena = &mut s.arenas[s.current];
        if let Some(xs) = self.input.take() {
            grow(arena, xs.len() * width);
            for (row, x) in arena.chunks_exact_mut(width.max(1)).zip(xs) {
                row.copy_from_slice(x.data());
            }
        }
        &mut arena[..s.rows * width]
    }

    /// Relabels the per-image shape; the values stay where they are.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when `dims` has a different volume.
    pub(crate) fn reshape(&mut self, dims: &[usize]) -> Result<()> {
        if dims.iter().product::<usize>() != self.width() {
            return Err(NnError::BadConfig(format!(
                "cannot relabel a block of shape {:?} as {dims:?}",
                self.dims()
            )));
        }
        self.scratch.set_dims(dims);
        Ok(())
    }

    /// Ends the segment: a batch no layer wrote (an empty segment, or one
    /// of relabelling layers only) is copied into an arena, so the scratch
    /// holds the segment's output whatever ran.
    pub(crate) fn finish(mut self) {
        self.data_mut();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kernel_is_the_detected_one() {
        assert_eq!(BatchScratch::new().kernel, GemmKernel::detect());
        assert_eq!(BatchScratch::default().kernel, GemmKernel::detect());
    }

    #[test]
    fn with_kernel_pins_the_choice() {
        for kernel in GemmKernel::ALL {
            let scratch = BatchScratch::with_kernel(kernel);
            assert_eq!(scratch.kernel, kernel);
            assert_eq!((scratch.rows(), scratch.capacity()), (0, 0));
        }
    }

    fn images(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                Tensor::from_vec((0..6).map(|j| (10 * i + j) as f32).collect(), &[1, 2, 3]).unwrap()
            })
            .collect()
    }

    #[test]
    fn a_block_starts_on_the_callers_tensors_and_lands_in_an_arena() {
        let xs = images(4);
        let mut scratch = BatchScratch::new();
        let mut block = Block::begin(Some(&xs), &[1, 2, 3], &mut scratch).unwrap();
        assert_eq!((block.rows(), block.width()), (4, 6));
        block.reshape(&[6]).unwrap();
        assert!(block.reshape(&[5]).is_err());
        // out of place: doubled into the other arena, read from the tensors
        block
            .write(&[2, 3], |rows, dims, dst, _, _| {
                assert_eq!(dims, &[6]);
                for (i, out) in dst.chunks_exact_mut(6).enumerate() {
                    for (o, v) in out.iter_mut().zip(rows.row(i)) {
                        *o = 2.0 * v;
                    }
                }
                Ok(())
            })
            .unwrap();
        // in place
        for v in block.data_mut() {
            *v += 1.0;
        }
        block.finish();
        assert_eq!((scratch.rows(), &scratch.dims[..]), (4, &[2usize, 3][..]));
        assert_eq!(scratch.row(3), &[61.0, 63.0, 65.0, 67.0, 69.0, 71.0]);
        assert_eq!(scratch.to_tensors()[1].dims(), &[2, 3]);

        // the exit gate's gather: keep rows 1 and 3
        scratch.move_row(1, 0);
        scratch.move_row(3, 1);
        scratch.truncate_rows(2);
        assert_eq!(scratch.block().len(), 2);
        assert_eq!(scratch.row(0)[0], 21.0);
        assert_eq!(scratch.row(1)[0], 61.0);
        // the next segment continues from the block, and checks its shape
        assert!(Block::begin(None, &[6], &mut scratch).is_err());
        let mut next = Block::begin(None, &[2, 3], &mut scratch).unwrap();
        next.reshape(&[6]).unwrap();
        next.finish();
        assert_eq!((scratch.rows(), &scratch.dims[..]), (2, &[6usize][..]));
        assert_eq!(scratch.row(1)[5], 71.0);
    }

    #[test]
    fn a_segment_that_writes_nothing_still_leaves_its_block() {
        let xs = images(3);
        let mut scratch = BatchScratch::new();
        Block::begin(Some(&xs), &[1, 2, 3], &mut scratch)
            .unwrap()
            .finish();
        assert_eq!(scratch.to_tensors(), xs);
    }

    #[test]
    fn wrong_shaped_inputs_are_an_error_before_anything_is_read() {
        let mut xs = images(3);
        xs[1] = Tensor::zeros(&[2, 3]);
        let mut scratch = BatchScratch::new();
        assert!(matches!(
            Block::begin(Some(&xs), &[1, 2, 3], &mut scratch),
            Err(NnError::BadConfig(_))
        ));
        assert!(Block::begin(Some(&images(2)), &[6], &mut scratch).is_err());
    }

    #[test]
    fn a_smaller_batch_grows_nothing() {
        let mut scratch = BatchScratch::new();
        let run = |scratch: &mut BatchScratch, n: usize| {
            let xs = images(n);
            let mut block = Block::begin(Some(&xs), &[1, 2, 3], scratch).unwrap();
            block
                .write(&[6], |rows, _, dst, _, _| {
                    for (i, out) in dst.chunks_exact_mut(6).enumerate() {
                        out.copy_from_slice(rows.row(i));
                    }
                    Ok(())
                })
                .unwrap();
            block.data_mut();
            block.finish();
        };
        run(&mut scratch, 9);
        let grown = scratch.capacity();
        assert!(grown >= 9 * 6);
        run(&mut scratch, 4);
        run(&mut scratch, 9);
        assert_eq!(scratch.capacity(), grown);
    }
}
