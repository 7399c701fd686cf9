//! Shared experiment pipeline: data generation, baseline training,
//! Algorithm 1, and on-disk model caching.

use std::path::PathBuf;

use cdl_core::arch::{self, CdlArchitecture};
use cdl_core::builder::{BuilderConfig, CdlBuilder, StageReport};
use cdl_core::confidence::ConfidencePolicy;
use cdl_core::head::LinearClassifier;
use cdl_core::network::CdlNetwork;
use cdl_dataset::idx;
use cdl_dataset::SyntheticMnist;
use cdl_nn::network::Network;
use cdl_nn::trainer::{train, LabelledSet, TrainConfig};
use cdl_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Names the arithmetic a cached model was trained under, as part of its
/// cache key: training is bit-reproducible only for one definition of the
/// sigmoid, so a `target/cdl-cache/*.json` written under another one (libm
/// `expf`, before `cdl_tensor::math`) must miss rather than load as if
/// "retrained == cached" still held. Bump it with any change to the
/// numerics of training.
const NUMERICS: &str = "polyexp1";

/// Error type used by the pipeline (send-able so preparation can run on
/// worker threads).
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

/// Scale and hyper-parameters of one experiment run, normally read from the
/// environment (see the crate docs for the variable table).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Training-set size.
    pub train_n: usize,
    /// Test-set size.
    pub test_n: usize,
    /// Baseline training epochs.
    pub epochs: usize,
    /// Confidence threshold δ.
    pub delta: f32,
    /// Master seed.
    pub seed: u64,
    /// Optional directory holding the four real MNIST IDX files.
    pub mnist_dir: Option<PathBuf>,
    /// Dataset profile: `"default"` (heavy hard tail, exercises the full
    /// cascade) or `"easy"` (MNIST-like separability, the regime of the
    /// paper's Table III accuracy gain).
    pub profile: String,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            train_n: 20_000,
            test_n: 4_000,
            epochs: 10,
            delta: 0.5,
            seed: 42,
            mnist_dir: None,
            profile: "default".to_string(),
        }
    }
}

impl ExperimentConfig {
    /// Reads the configuration from `CDL_*` environment variables; an unset
    /// variable takes its default.
    ///
    /// # Errors
    ///
    /// A value that does not parse as its field's type, or a `CDL_PROFILE`
    /// other than `default` or `easy`: the message names the variable and
    /// its value.
    pub fn from_env() -> Result<Self, BenchError> {
        let var = |name: &str| match std::env::var(name) {
            Ok(value) => Some(value),
            Err(std::env::VarError::NotPresent) => None,
            // not UTF-8: reported, lossily, as a value that does not parse
            Err(std::env::VarError::NotUnicode(raw)) => Some(raw.to_string_lossy().into_owned()),
        };
        Ok(ExperimentConfig::from_vars(var)?)
    }

    /// [`ExperimentConfig::from_env`] over any lookup of the variables.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        fn get<T: std::str::FromStr>(
            var: &dyn Fn(&str) -> Option<String>,
            name: &str,
            default: T,
        ) -> Result<T, String> {
            var(name).map_or(Ok(default), |v| {
                v.parse()
                    .map_err(|_| format!("{name}={v:?} does not parse"))
            })
        }
        let d = ExperimentConfig::default();
        let profile = var("CDL_PROFILE").unwrap_or(d.profile);
        if profile != "default" && profile != "easy" {
            return Err(format!(
                "CDL_PROFILE={profile:?} is not a profile (default, easy)"
            ));
        }
        Ok(ExperimentConfig {
            train_n: get(&var, "CDL_TRAIN_N", d.train_n)?,
            test_n: get(&var, "CDL_TEST_N", d.test_n)?,
            epochs: get(&var, "CDL_EPOCHS", d.epochs)?,
            delta: get(&var, "CDL_DELTA", d.delta)?,
            seed: get(&var, "CDL_SEED", d.seed)?,
            mnist_dir: var("CDL_MNIST_DIR").map(PathBuf::from),
            profile,
        })
    }

    /// The termination policy used across the experiments (the paper's
    /// sigmoid output-neuron confidence).
    pub(crate) fn policy(&self) -> ConfidencePolicy {
        ConfidencePolicy::sigmoid_prob(self.delta)
    }

    /// Baseline trainer configuration.
    pub(crate) fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            lr: 1.5,
            lr_decay: 0.9,
            seed: self.seed ^ 0x7EA1,
            ..TrainConfig::default()
        }
    }

    /// Loads (real MNIST) or generates (synthetic) the train/test split.
    pub(crate) fn datasets(&self) -> (LabelledSet, LabelledSet) {
        if let Some(dir) = &self.mnist_dir {
            match idx::load_mnist_dir(dir) {
                Ok((train_set, test_set)) => {
                    eprintln!("using real MNIST from {}", dir.display());
                    return (train_set.take(self.train_n), test_set.take(self.test_n));
                }
                Err(e) => eprintln!(
                    "warning: CDL_MNIST_DIR set but unusable ({e}); falling back to synthetic"
                ),
            }
        }
        let config = if self.profile == "easy" {
            cdl_dataset::generator::SyntheticConfig::easy()
        } else {
            cdl_dataset::generator::SyntheticConfig::default()
        };
        SyntheticMnist::new(config).generate_split(self.train_n, self.test_n, self.seed)
    }

    fn cache_key(&self, arch_name: &str) -> String {
        format!(
            "{}_{NUMERICS}_n{}_e{}_d{}_s{}_{}{}",
            arch_name,
            self.train_n,
            self.epochs,
            self.delta,
            self.seed,
            self.profile,
            if self.mnist_dir.is_some() {
                "_mnist"
            } else {
                ""
            }
        )
    }
}

/// A trained, assembled CDLN ready for evaluation.
#[derive(Debug)]
pub struct Prepared {
    /// The architecture it was built from.
    pub arch: CdlArchitecture,
    /// The conditional network (baseline + admitted heads).
    pub cdl: CdlNetwork,
    /// Algorithm 1 per-stage log.
    pub stage_reports: Vec<StageReport>,
    /// Trained baseline parameters (for experiments that rebuild the
    /// baseline, e.g. the stage-count sweeps).
    pub params: Vec<Tensor>,
    /// Wall-clock spent training (0 on cache hits).
    pub train_seconds: f64,
}

impl Prepared {
    /// Rebuilds a fresh copy of the trained baseline network.
    ///
    /// # Errors
    ///
    /// Propagates spec/parameter errors (impossible for an intact
    /// `Prepared`).
    pub(crate) fn fresh_base(&self) -> Result<Network, BenchError> {
        let mut base = Network::from_spec(&self.arch.spec, 0)?;
        base.import_params(&self.params)?;
        Ok(base)
    }
}

/// Both paper architectures prepared on the same data.
#[derive(Debug)]
pub struct PreparedPair {
    /// Table I network (MNIST_2C).
    pub net_2c: Prepared,
    /// Table II network (MNIST_3C).
    pub net_3c: Prepared,
    /// Shared training set.
    pub train_set: LabelledSet,
    /// Shared test set.
    pub test_set: LabelledSet,
}

#[derive(Serialize, Deserialize)]
struct CachedModel {
    params: Vec<Tensor>,
    heads: Vec<(usize, String, LinearClassifier)>,
    stage_reports: Vec<StageReport>,
}

fn cache_dir() -> PathBuf {
    std::env::var("CDL_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/cdl-cache"))
}

/// Prepares one architecture: trains the baseline (or loads it from cache),
/// runs Algorithm 1, and assembles the CDLN.
///
/// # Errors
///
/// Propagates training/builder failures as boxed errors.
pub(crate) fn prepare(
    arch: CdlArchitecture,
    cfg: &ExperimentConfig,
    train_set: &LabelledSet,
    builder_cfg: &BuilderConfig,
) -> Result<Prepared, BenchError> {
    let key = cfg.cache_key(&arch.name);
    let cache_path = cache_dir().join(format!("{key}.json"));

    if let Ok(bytes) = std::fs::read(&cache_path) {
        if let Ok(cached) = serde_json::from_slice::<CachedModel>(&bytes) {
            let mut base = Network::from_spec(&arch.spec, cfg.seed)?;
            if base.import_params(&cached.params).is_ok() {
                let cdl = CdlNetwork::assemble(base, cached.heads, cfg.policy())?;
                eprintln!("[{}] loaded from cache {}", arch.name, cache_path.display());
                return Ok(Prepared {
                    arch,
                    cdl,
                    stage_reports: cached.stage_reports,
                    params: cached.params,
                    train_seconds: 0.0,
                });
            }
        }
    }

    let started = std::time::Instant::now();
    let mut base = Network::from_spec(&arch.spec, cfg.seed)?;
    let report = train(&mut base, train_set, &cfg.train_config())?;
    eprintln!(
        "[{}] baseline trained: {} epochs, final train acc {:.3} ({:.1}s)",
        arch.name,
        cfg.epochs,
        report
            .epochs
            .last()
            .map(|e| e.train_accuracy)
            .unwrap_or(0.0),
        started.elapsed().as_secs_f64()
    );
    let params = base.export_params();
    let trained =
        CdlBuilder::new(arch.clone(), cfg.policy()).build(base, train_set, builder_cfg)?;
    let stage_reports = trained.reports().to_vec();
    for r in &stage_reports {
        eprintln!(
            "[{}] stage {}: head-acc {:.3}, reached {}, classified {}, gain {:.0}, admitted {}",
            arch.name,
            r.name,
            r.head_accuracy,
            r.reached,
            r.classified,
            r.gain_ops_per_instance,
            r.admitted
        );
    }
    let train_seconds = started.elapsed().as_secs_f64();

    // persist
    let heads: Vec<(usize, String, LinearClassifier)> = trained
        .network()
        .stages()
        .iter()
        .map(|s| {
            let spec_layer = arch
                .taps
                .iter()
                .find(|t| t.name == s.name)
                .map(|t| t.spec_layer)
                .expect("admitted stage must come from a tap");
            (spec_layer, s.name.clone(), s.head.clone())
        })
        .collect();
    let cached = CachedModel {
        params: params.clone(),
        heads,
        stage_reports: stage_reports.clone(),
    };
    if std::fs::create_dir_all(cache_dir()).is_ok() {
        if let Ok(json) = serde_json::to_vec(&cached) {
            let _ = std::fs::write(&cache_path, json);
        }
    }

    Ok(Prepared {
        arch,
        cdl: trained.into_network(),
        stage_reports,
        params,
        train_seconds,
    })
}

/// Trains a fresh baseline on `train_set` and assembles the CDLN with the
/// standard demo recipe — lr 1.5, decay 0.95, sigmoid-prob δ = 0.5
/// policy, force-admitted heads — parameterized only by architecture,
/// epoch count and seed.
///
/// This is the **single** model setup shared by the `serve_stream`
/// example and the `benchmark/` package (whose committed models were
/// trained with it): they must all measure the same network, so the
/// recipe lives here instead of being repeated (and drifting) per
/// call site. Unlike `prepare`, there is no cache and no env-driven
/// configuration — deterministic in, deterministic out.
///
/// # Errors
///
/// Propagates training/builder failures as boxed errors.
pub fn train_demo_model(
    arch: CdlArchitecture,
    train_set: &LabelledSet,
    epochs: usize,
    seed: u64,
) -> Result<CdlNetwork, BenchError> {
    let mut base = Network::from_spec(&arch.spec, seed)?;
    train(
        &mut base,
        train_set,
        &TrainConfig {
            epochs,
            lr: 1.5,
            lr_decay: 0.95,
            ..TrainConfig::default()
        },
    )?;
    Ok(CdlBuilder::new(arch, ConfidencePolicy::sigmoid_prob(0.5))
        .build(
            base,
            train_set,
            &BuilderConfig {
                force_admit_all: true,
                ..BuilderConfig::default()
            },
        )?
        .into_network())
}

/// Prepares both paper architectures on one shared dataset (training them in
/// parallel on first run).
///
/// # Errors
///
/// Propagates training/builder failures.
pub fn prepare_pair(cfg: &ExperimentConfig) -> Result<PreparedPair, BenchError> {
    let (train_set, test_set) = cfg.datasets();
    let builder_cfg = BuilderConfig::default();
    let (r2, r3) = rayon::join(
        || prepare(arch::mnist_2c(), cfg, &train_set, &builder_cfg),
        || prepare(arch::mnist_3c(), cfg, &train_set, &builder_cfg),
    );
    let net_2c = r2?;
    let net_3c = r3?;
    Ok(PreparedPair {
        net_2c,
        net_3c,
        train_set,
        test_set,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            train_n: 300,
            test_n: 100,
            epochs: 2,
            delta: 0.5,
            seed: 9,
            mnist_dir: None,
            profile: "default".to_string(),
        }
    }

    /// `ExperimentConfig::from_vars` over a fixed table of variables.
    fn from_table(vars: &[(&str, &str)]) -> Result<ExperimentConfig, String> {
        ExperimentConfig::from_vars(|name| {
            vars.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn config_from_env_defaults() {
        // no variable set: every field is its default
        let cfg = from_table(&[]).unwrap();
        let d = ExperimentConfig::default();
        assert_eq!(
            (cfg.train_n, cfg.test_n, cfg.epochs, cfg.delta, cfg.seed),
            (d.train_n, d.test_n, d.epochs, d.delta, d.seed)
        );
        assert_eq!((cfg.mnist_dir, cfg.profile), (None, d.profile));
        let cfg = from_table(&[
            ("CDL_TRAIN_N", "2500"),
            ("CDL_TEST_N", "500"),
            ("CDL_EPOCHS", "6"),
            ("CDL_DELTA", "0.35"),
            ("CDL_SEED", "7"),
            ("CDL_MNIST_DIR", "/data/mnist"),
            ("CDL_PROFILE", "easy"),
        ])
        .unwrap();
        assert_eq!(
            (cfg.train_n, cfg.test_n, cfg.epochs, cfg.delta, cfg.seed),
            (2500, 500, 6, 0.35, 7)
        );
        assert_eq!(cfg.mnist_dir, Some(PathBuf::from("/data/mnist")));
        assert_eq!(cfg.profile, "easy");
    }

    #[test]
    fn a_value_that_does_not_parse_is_an_error_naming_it() {
        for (name, value) in [
            ("CDL_SEED", "1,2,3"),
            ("CDL_TRAIN_N", "-5"),
            ("CDL_TEST_N", "1e3"),
            ("CDL_EPOCHS", ""),
            ("CDL_DELTA", "half"),
        ] {
            let error = from_table(&[(name, value)]).unwrap_err();
            assert_eq!(error, format!("{name}={value:?} does not parse"));
        }
        let error = from_table(&[("CDL_PROFILE", "hard")]).unwrap_err();
        assert_eq!(
            error,
            "CDL_PROFILE=\"hard\" is not a profile (default, easy)"
        );
        assert!(from_table(&[("CDL_PROFILE", "default")]).is_ok());
    }

    #[test]
    fn datasets_generate_requested_sizes() {
        let cfg = tiny_cfg();
        let (train_set, test_set) = cfg.datasets();
        assert_eq!(train_set.len(), 300);
        assert_eq!(test_set.len(), 100);
    }

    #[test]
    fn prepare_trains_and_caches() {
        let dir = std::env::temp_dir().join(format!("cdl_cache_test_{}", std::process::id()));
        std::env::set_var("CDL_CACHE_DIR", &dir);
        let cfg = tiny_cfg();
        let (train_set, _) = cfg.datasets();
        let p1 = prepare(
            arch::mnist_3c(),
            &cfg,
            &train_set,
            &BuilderConfig::default(),
        )
        .unwrap();
        assert!(p1.train_seconds > 0.0);
        // the file is keyed by the numerics tag: one written under another
        // definition of the sigmoid has another name and is never loaded
        let written: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(written.len(), 1);
        assert!(written[0].contains(&format!("_{NUMERICS}_")), "{written:?}");
        // second call must hit the cache
        let p2 = prepare(
            arch::mnist_3c(),
            &cfg,
            &train_set,
            &BuilderConfig::default(),
        )
        .unwrap();
        assert_eq!(p2.train_seconds, 0.0);
        // identical behaviour from cache
        let x = &train_set.images[0];
        assert_eq!(
            p1.cdl.classify(x).unwrap().label,
            p2.cdl.classify(x).unwrap().label
        );
        std::env::remove_var("CDL_CACHE_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
