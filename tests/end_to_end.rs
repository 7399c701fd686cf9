//! Cross-crate integration: dataset → nn training → CDL Algorithm 1/2 →
//! stats/energy, at small scale.

use cdl::core::arch;
use cdl::core::builder::{BuilderConfig, CdlBuilder};
use cdl::core::confidence::ConfidencePolicy;
use cdl::core::network::CdlNetwork;
use cdl::core::stats::evaluate;
use cdl::dataset::SyntheticMnist;
use cdl::hw::EnergyModel;
use cdl::nn::network::Network;
use cdl::nn::trainer::{evaluate as nn_evaluate, train, LabelledSet, TrainConfig};
use std::sync::OnceLock;

struct Fixture {
    params: Vec<cdl::tensor::Tensor>,
    train_set: LabelledSet,
    test_set: LabelledSet,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let (train_set, test_set) = SyntheticMnist::default().generate_split(2200, 450, 77);
        let arch = arch::mnist_3c();
        let mut base = Network::from_spec(&arch.spec, 5).unwrap();
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
    let mut base = Network::from_spec(&arch::mnist_3c().spec, 5).unwrap();
    base.import_params(&f.params).unwrap();
    base
}

/// One run of Algorithm 1 over the trained baseline (the slow step of this
/// file: every call retrains the stage classifiers).
fn build_cdl() -> CdlNetwork {
    CdlBuilder::new(arch::mnist_3c(), ConfidencePolicy::sigmoid_prob(0.5))
        .build(
            trained_base(),
            &fixture().train_set,
            &BuilderConfig::default(),
        )
        .unwrap()
        .into_network()
}

/// The CDLN every test but the determinism one reads, built once.
fn shared_cdl() -> &'static CdlNetwork {
    static CDL: OnceLock<CdlNetwork> = OnceLock::new();
    CDL.get_or_init(build_cdl)
}

#[test]
fn baseline_learns_synthetic_digits() {
    let f = fixture();
    let acc = nn_evaluate(&trained_base(), &f.test_set).unwrap();
    assert!(acc > 0.70, "baseline accuracy too low: {acc}");
}

#[test]
fn cdl_cuts_ops_without_losing_accuracy() {
    let f = fixture();
    let report = evaluate(shared_cdl(), &f.test_set, &EnergyModel::cmos_45nm()).unwrap();
    assert!(
        report.normalized_ops < 0.8,
        "expected a clear ops cut, got {}",
        report.normalized_ops
    );
    // the paper's central accuracy claim: the CDLN does not trade accuracy
    // for the saved energy (and typically gains)
    assert!(
        report.accuracy >= report.baseline_accuracy - 0.02,
        "CDLN {} fell too far below baseline {}",
        report.accuracy,
        report.baseline_accuracy
    );
    // energy benefit exists but cannot exceed the ops benefit
    assert!(report.energy_improvement() > 1.0);
    assert!(report.energy_improvement() <= report.ops_improvement() + 1e-9);
}

#[test]
fn exit_histogram_partitions_test_set() {
    let f = fixture();
    let report = evaluate(shared_cdl(), &f.test_set, &EnergyModel::cmos_45nm()).unwrap();
    assert_eq!(
        report.exit_histogram.iter().sum::<usize>(),
        f.test_set.len()
    );
    // per-digit histograms also partition each class
    for d in &report.digits {
        assert_eq!(d.exit_histogram.iter().sum::<usize>(), d.count);
    }
}

#[test]
fn pipeline_is_deterministic() {
    let f = fixture();
    // a fresh build against the shared one: identical arguments, so
    // identical networks, bit for bit
    let report = |cdl: &CdlNetwork| evaluate(cdl, &f.test_set, &EnergyModel::cmos_45nm()).unwrap();
    let a = report(shared_cdl());
    let b = report(&build_cdl());
    assert_eq!(a.accuracy, b.accuracy);
    assert_eq!(a.normalized_ops, b.normalized_ops);
    assert_eq!(a.exit_histogram, b.exit_histogram);
}

#[test]
fn per_input_ops_are_bounded_by_worst_case() {
    let f = fixture();
    let cdl = shared_cdl();
    let worst = cdl.worst_case_ops().compute_ops();
    for img in f.test_set.images.iter().take(100) {
        let out = cdl.classify(img).unwrap();
        assert!(out.ops.compute_ops() <= worst);
        assert!(out.ops.compute_ops() > 0);
        assert!(out.label < 10);
        assert!(out.exit_stage <= cdl.stage_count());
    }
}

#[test]
fn early_exits_are_cheaper_than_full_passes() {
    let f = fixture();
    let cdl = shared_cdl();
    let mut early_max = 0u64;
    let mut full_min = u64::MAX;
    for img in &f.test_set.images {
        let out = cdl.classify(img).unwrap();
        if out.exit_stage == 0 {
            early_max = early_max.max(out.ops.compute_ops());
        }
        if out.exit_stage == cdl.stage_count() {
            full_min = full_min.min(out.ops.compute_ops());
        }
    }
    if early_max > 0 && full_min < u64::MAX {
        assert!(
            early_max < full_min,
            "stage-1 exits ({early_max} ops) must cost less than full passes ({full_min} ops)"
        );
    }
}
