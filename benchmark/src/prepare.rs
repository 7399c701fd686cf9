//! Shared set-up: the seeded image pool, the two committed models, the
//! per-image oracle and the exit-stage pools. Everything here is a pure
//! function of the seed (and of `models/*.json`).

use std::sync::Arc;
use std::time::Instant;

use cdl_core::confidence::ExitOverride;
use cdl_core::network::{CdlNetwork, CdlOutput};
use cdl_core::persist::SavedCdl;
use cdl_dataset::SyntheticMnist;
use cdl_nn::trainer::LabelledSet;

/// Wire names of the two models, in the order every per-model array uses.
pub const MODEL_NAMES: [&str; 2] = ["MNIST_2C", "MNIST_3C"];
/// Short suffixes used in metric names, same order.
pub const MODEL_TAGS: [&str; 2] = ["2c", "3c"];

/// The committed models, trained once by `train-models` (see README: a
/// 15 s training per set-up does not fit the driver's time budget, and a
/// fixed network keeps the exit mix comparable between commits).
const MODEL_JSON: [&str; 2] = [
    include_str!("../models/mnist_2c.json"),
    include_str!("../models/mnist_3c.json"),
];

/// Images in the `natural` pool.
pub const POOL: usize = 8192;
/// Length of each `hard` stream: the pool's final-stage images, cycled to a
/// fixed length so the work per pass does not depend on the seed.
pub const HARD_LEN: usize = 2048;
/// The δ the low-priority tenant of `wire_overload` may ask for.
pub const LOW_DELTA: f32 = 0.3;

/// Training recipe of the committed models (`train-models` only).
pub const TRAIN_IMAGES: usize = 3000;
pub const TRAIN_DATA_SEED: u64 = 23;
pub const TRAIN_EPOCHS: usize = 8;
pub const MODEL_SEEDS: [u64; 2] = [7, 11];

/// Scale of one preparation; `smoke` is the small configuration the tests
/// and `ci.sh` run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub pool: usize,
    pub hard_len: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        pool: POOL,
        hard_len: HARD_LEN,
    };
    pub const SMOKE: Scale = Scale {
        pool: 256,
        hard_len: 256,
    };
}

/// Everything a workload needs, derived from the seed.
pub struct Prepared {
    pub pool: LabelledSet,
    pub nets: [Arc<CdlNetwork>; 2],
    /// `oracle[m][i]`: `classify_with_override(pool[i], NONE)` on model `m`.
    pub oracle: [Vec<CdlOutput>; 2],
    /// The same under δ = [`LOW_DELTA`] (only `wire_overload` asks for it).
    pub oracle_low: Option<[Vec<CdlOutput>; 2]>,
    /// `hard[m]`: pool indices reaching model `m`'s final stage, cycled to
    /// `hard_len`.
    pub hard: [Vec<usize>; 2],
    /// Seconds spent generating the pool, loading the models and computing
    /// the oracle (per-layer set-up breakdown).
    pub gen_s: f64,
    pub load_s: f64,
    pub oracle_s: f64,
}

pub fn load_models() -> [Arc<CdlNetwork>; 2] {
    MODEL_JSON.map(|json| {
        let saved: SavedCdl =
            serde_json::from_str(json).expect("models/*.json is written by train-models");
        Arc::new(saved.restore().expect("committed model restores"))
    })
}

/// The seeded pool: the test half of the generator's split, so it never
/// overlaps the training stream of the committed models.
pub fn generate_pool(n: usize, seed: u64) -> LabelledSet {
    SyntheticMnist::default().generate_split(0, n, seed).1
}

pub fn oracle_for(net: &CdlNetwork, pool: &LabelledSet, ovr: ExitOverride) -> Vec<CdlOutput> {
    pool.images
        .iter()
        .map(|x| {
            net.classify_with_override(x, ovr)
                .expect("oracle classifies every pool image")
        })
        .collect()
}

/// Pool indices whose oracle output reached the final stage, cycled to `len`.
pub fn hard_stream(oracle: &[CdlOutput], final_stage: usize, len: usize) -> Vec<usize> {
    let hard: Vec<usize> = (0..oracle.len())
        .filter(|&i| oracle[i].exit_stage == final_stage)
        .collect();
    assert!(!hard.is_empty(), "no pool image reaches the final stage");
    hard.iter().copied().cycle().take(len).collect()
}

pub fn prepare(seed: u64, scale: Scale, with_low_delta: bool) -> Prepared {
    let t = Instant::now();
    let pool = generate_pool(scale.pool, seed);
    let gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let nets = load_models();
    let load_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    // the two models' oracles are independent: one thread each
    let both = |ovr: ExitOverride| -> [Vec<CdlOutput>; 2] {
        std::thread::scope(|s| {
            let a = s.spawn(|| oracle_for(&nets[0], &pool, ovr));
            let b = oracle_for(&nets[1], &pool, ovr);
            [a.join().expect("oracle thread"), b]
        })
    };
    let oracle = both(ExitOverride::NONE);
    let oracle_low = with_low_delta.then(|| both(ExitOverride::with_delta(LOW_DELTA)));
    let oracle_s = t.elapsed().as_secs_f64();

    let hard = [0, 1].map(|m| hard_stream(&oracle[m], nets[m].stage_count(), scale.hard_len));
    Prepared {
        pool,
        nets,
        oracle,
        oracle_low,
        hard,
        gen_s,
        load_s,
        oracle_s,
    }
}

impl Prepared {
    /// The oracle output for request `(model, image, low-δ?)`.
    pub fn expected(&self, model: usize, image: usize, low_delta: bool) -> &CdlOutput {
        if low_delta {
            &self.oracle_low.as_ref().expect("prepared with low δ")[model][image]
        } else {
            &self.oracle[model][image]
        }
    }
}

/// `train-models`: retrains the committed models with the recorded recipe
/// and writes them to `dir`, checking that they reload bit-exactly.
pub fn train_models(dir: &std::path::Path) -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    use cdl_core::arch;
    let (train, _) = SyntheticMnist::default().generate_split(TRAIN_IMAGES, 0, TRAIN_DATA_SEED);
    let probe = generate_pool(1024, 1);
    std::fs::create_dir_all(dir)?;
    for (m, arch) in [arch::mnist_2c(), arch::mnist_3c()].into_iter().enumerate() {
        let t = Instant::now();
        let net =
            cdl_bench::pipeline::train_demo_model(arch, &train, TRAIN_EPOCHS, MODEL_SEEDS[m])?;
        let path = dir.join(format!("mnist_{}.json", MODEL_TAGS[m]));
        cdl_core::persist::save(&net, &path)?;
        let back = cdl_core::persist::load(&path)?;
        let (a, b) = (
            oracle_for(&net, &probe, ExitOverride::NONE),
            oracle_for(&back, &probe, ExitOverride::NONE),
        );
        if a != b {
            return Err(format!("{} does not reload bit-exactly", path.display()).into());
        }
        let exits_first = a.iter().filter(|o| o.exit_stage == 0).count();
        println!(
            "{}: trained in {:.1}s, {} bytes, {:.1}% of the probe exits at O1",
            path.display(),
            t.elapsed().as_secs_f64(),
            std::fs::metadata(&path)?.len(),
            100.0 * exits_first as f64 / a.len() as f64
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_and_oracle_are_pure_functions_of_the_seed() {
        let (a, b, c) = (
            generate_pool(48, 5),
            generate_pool(48, 5),
            generate_pool(48, 6),
        );
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.images, b.images);
        assert_ne!(a.images, c.images, "another seed gives another pool");
        let nets = load_models();
        assert_eq!(
            oracle_for(&nets[0], &a, ExitOverride::NONE),
            oracle_for(&nets[0], &b, ExitOverride::NONE)
        );
    }

    #[test]
    fn pool_never_overlaps_the_training_stream() {
        // same seed as the training data: the split keeps the streams apart
        let (train, _) = SyntheticMnist::default().generate_split(16, 0, TRAIN_DATA_SEED);
        let pool = generate_pool(16, TRAIN_DATA_SEED);
        assert!(pool.images.iter().all(|p| !train.images.contains(p)));
    }

    #[test]
    fn hard_stream_holds_exactly_the_final_stage_images_cycled() {
        let prep = prepare(9, Scale::SMOKE, false);
        for m in 0..2 {
            let last = prep.nets[m].stage_count();
            let members: Vec<usize> = (0..prep.pool.len())
                .filter(|&i| prep.oracle[m][i].exit_stage == last)
                .collect();
            assert!(!members.is_empty() && members.len() < prep.pool.len());
            assert_eq!(prep.hard[m].len(), Scale::SMOKE.hard_len);
            for (k, &i) in prep.hard[m].iter().enumerate() {
                assert_eq!(i, members[k % members.len()]);
            }
        }
        let again = prepare(9, Scale::SMOKE, false);
        assert_eq!(prep.hard, again.hard);
        assert!(again.oracle_low.is_none());
    }

    #[test]
    fn low_delta_requests_have_their_own_oracle() {
        let prep = prepare(9, Scale::SMOKE, true);
        let low = prep.oracle_low.as_ref().unwrap();
        for (default, low) in prep.oracle.iter().zip(low) {
            assert_ne!(default, low, "δ changes where some image exits");
        }
        assert!(std::ptr::eq(prep.expected(1, 3, true), &low[1][3]));
        assert!(std::ptr::eq(prep.expected(1, 3, false), &prep.oracle[1][3]));
    }
}
