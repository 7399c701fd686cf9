//! Shape-level assertions mirroring the paper's result figures, at reduced
//! scale: these are the properties `cdl-bench`'s `run_all` reports at full
//! scale.

use cdl::core::arch;
use cdl::core::builder::{BuilderConfig, CdlBuilder};
use cdl::core::confidence::ConfidencePolicy;
use cdl::core::sweep::{delta_sweep, stage_count_sweep};
use cdl::dataset::SyntheticMnist;
use cdl::hw::EnergyModel;
use cdl::nn::network::Network;
use cdl::nn::trainer::{train, LabelledSet, TrainConfig};
use std::sync::OnceLock;

struct Fixture {
    params: Vec<cdl::tensor::Tensor>,
    train_set: LabelledSet,
    test_set: LabelledSet,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let (train_set, test_set) = SyntheticMnist::default().generate_split(2200, 450, 31);
        let mut base = Network::from_spec(&arch::mnist_3c_full().spec, 3).unwrap();
        train(
            &mut base,
            &train_set,
            &TrainConfig {
                epochs: 25,
                lr: 1.5,
                lr_decay: 0.95,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        Fixture {
            params: base.export_params(),
            train_set,
            test_set,
        }
    })
}

fn trained_base() -> Network {
    let f = fixture();
    let mut base = Network::from_spec(&arch::mnist_3c_full().spec, 3).unwrap();
    base.import_params(&f.params).unwrap();
    base
}

/// Fig. 10 shape: under the paper's two-criteria activation module,
/// ops-vs-δ is U-shaped — at low δ the *uniqueness* criterion blocks exits
/// (several sigmoid confidences clear a low bar), at high δ the
/// *confidence* criterion does. The paper's Fig. 10 reports the left
/// branch (ops falling as δ rises towards ~0.5, accuracy peaking there).
#[test]
fn fig10_shape_delta_tradeoff() {
    let f = fixture();
    let cdl = CdlBuilder::new(arch::mnist_3c(), ConfidencePolicy::sigmoid_prob(0.5))
        .build(
            trained_base(),
            &f.train_set,
            &BuilderConfig {
                force_admit_all: true,
                ..BuilderConfig::default()
            },
        )
        .unwrap()
        .into_network();
    let deltas = [0.15f32, 0.3, 0.5, 0.7, 0.9];
    let points = delta_sweep(&cdl, &f.test_set, &deltas, &EnergyModel::cmos_45nm()).unwrap();
    let min_idx = points
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.normalized_ops.total_cmp(&b.1.normalized_ops))
        .map(|(i, _)| i)
        .unwrap();
    // right branch is monotone non-decreasing in cost (strictness
    // dominates; the per-stage exit mix may still shuffle, so only the
    // aggregate ops are asserted)
    for pair in points[min_idx..].windows(2) {
        assert!(
            pair[1].normalized_ops >= pair[0].normalized_ops - 1e-9,
            "right branch must rise: {points:?}"
        );
    }
    // the strictest setting is more expensive than the optimum
    assert!(
        points.last().unwrap().normalized_ops > points[min_idx].normalized_ops,
        "{points:?}"
    );
    // the cheapest point must be meaningfully below baseline cost, and
    // every point cheaper than the plain baseline
    assert!(points[min_idx].normalized_ops < 0.75, "{points:?}");
    for p in &points {
        assert!(p.normalized_ops < 1.0, "{points:?}");
    }
}

/// Fig. 9 shape: normalized ops fall sharply with the first stage and the
/// FC-reaching fraction decreases monotonically with stage count.
#[test]
fn fig9_shape_stage_sweep() {
    let f = fixture();
    let points = stage_count_sweep(
        &arch::mnist_3c_full(),
        &mut trained_base(),
        &f.train_set,
        &f.test_set,
        ConfidencePolicy::sigmoid_prob(0.5),
        &BuilderConfig::default(),
        &EnergyModel::cmos_45nm(),
    )
    .unwrap();
    assert_eq!(points.len(), 4);
    assert!((points[0].normalized_ops - 1.0).abs() < 1e-9);
    // one stage already cuts ops substantially
    assert!(
        points[1].normalized_ops < 0.8,
        "stage 1 should cut ops: {points:?}"
    );
    for pair in points.windows(2) {
        assert!(pair[1].fc_fraction <= pair[0].fc_fraction + 1e-9);
    }
    // marginal benefit shrinks: the drop from 0→1 stages exceeds 2→3
    let d01 = points[0].normalized_ops - points[1].normalized_ops;
    let d23 = points[2].normalized_ops - points[3].normalized_ops;
    assert!(d01 > d23, "diminishing returns expected: {points:?}");
}

/// Fig. 8 shape: per-digit energy varies, and digits that reach FC more
/// often cost more energy.
#[test]
fn fig8_shape_difficulty_ordering() {
    let f = fixture();
    let cdl = CdlBuilder::new(arch::mnist_3c(), ConfidencePolicy::sigmoid_prob(0.5))
        .build(
            trained_base(),
            &f.train_set,
            &BuilderConfig {
                force_admit_all: true,
                ..BuilderConfig::default()
            },
        )
        .unwrap()
        .into_network();
    let report = cdl::core::stats::evaluate(&cdl, &f.test_set, &EnergyModel::cmos_45nm()).unwrap();
    let order = report.digits_by_energy_benefit();
    assert_eq!(order.len(), 10);

    // correlation between fc_fraction and normalized energy must be
    // positive: digits that cascade deeper cost more
    let digits = &report.digits;
    let mean_fc: f64 = digits.iter().map(|d| d.fc_fraction).sum::<f64>() / digits.len() as f64;
    let mean_e: f64 = digits.iter().map(|d| d.normalized_energy).sum::<f64>() / digits.len() as f64;
    let cov: f64 = digits
        .iter()
        .map(|d| (d.fc_fraction - mean_fc) * (d.normalized_energy - mean_e))
        .sum();
    assert!(
        cov >= 0.0,
        "deeper-cascading digits should cost more energy (cov {cov})"
    );
}

/// Algorithm 1 shape: the first stage carries the bulk of the gain, and the
/// gain ordering justifies the admission decisions.
#[test]
fn algorithm1_gain_ordering() {
    let f = fixture();
    let trained = CdlBuilder::new(arch::mnist_3c_full(), ConfidencePolicy::sigmoid_prob(0.5))
        .build(trained_base(), &f.train_set, &BuilderConfig::default())
        .unwrap();
    let reports = trained.reports();
    assert_eq!(reports.len(), 3);
    // stage 1 gain dominates later gains (it diverts the most traffic away
    // from the most remaining work)
    assert!(reports[0].gain_ops_per_instance > reports[1].gain_ops_per_instance);
    assert!(reports[0].gain_ops_per_instance > reports[2].gain_ops_per_instance);
    assert!(reports[0].admitted);
    // every admitted stage has gain above the default ε = 0
    for r in reports.iter().filter(|r| r.admitted) {
        assert!(r.gain_ops_per_instance > 0.0, "{r:?}");
    }
}
