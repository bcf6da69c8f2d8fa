//! Property tests: persistence is lossless where it matters.
//!
//! A surrogate saved with `save_json` and loaded back (in what stands in for a fresh
//! process) must produce **bit-identical** predictions — the serving subsystem's core
//! guarantee. The suites below hammer that across random datasets, hyper-parameters and
//! probe points for the full model chain (`RegressionTree`, `Gbrt`, `ModelArtifact`) and
//! check exact structural round-trips for `Region` and `SurfConfig`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_core::objective::{Objective, Threshold};
use surf_core::{Surf, SurfConfig, Surrogate};
use surf_data::index::IndexKind;
use surf_data::region::Region;
use surf_data::statistic::{Statistic, Target};
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_ml::gbrt::{Gbrt, GbrtParams};
use surf_ml::tree::{RegressionTree, TreeParams};
use surf_serve::ModelArtifact;

/// Random regression data: `n` rows over `d` features with a noisy nonlinear target.
fn random_xy(n: usize, d: usize, rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<f64>) {
    let features: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(-2.0..2.0)).collect())
        .collect();
    let targets: Vec<f64> = features
        .iter()
        .map(|x| {
            let base: f64 = x
                .iter()
                .enumerate()
                .map(|(i, v)| (i as f64 + 1.0) * v)
                .sum();
            (3.0 * x[0]).sin() + base * base * 0.1 + rng.random_range(-0.1..0.1)
        })
        .collect();
    (features, targets)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `RegressionTree` → JSON → `RegressionTree` reproduces bit-identical predictions.
    #[test]
    fn regression_tree_predictions_survive_json(
        n in 20usize..120,
        d in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (x, y) = random_xy(n, d, &mut rng);
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();

        let json = serde_json::to_string(&tree).unwrap();
        let restored: RegressionTree = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&restored, &tree);

        for _ in 0..20 {
            let probe: Vec<f64> = (0..d).map(|_| rng.random_range(-3.0..3.0)).collect();
            let a = tree.predict_one(&probe).unwrap();
            let b = restored.predict_one(&probe).unwrap();
            prop_assert_eq!(a.to_bits(), b.to_bits(), "probe {:?}: {} vs {}", probe, a, b);
        }
    }

    /// `Gbrt` → JSON → `Gbrt` reproduces bit-identical predictions, across ensemble
    /// configurations (depth, shrinkage, subsampling).
    #[test]
    fn gbrt_predictions_survive_json(
        n in 30usize..150,
        d in 1usize..4,
        n_estimators in 1usize..20,
        max_depth in 1usize..5,
        subsample in prop::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb007);
        let (x, y) = random_xy(n, d, &mut rng);
        let params = GbrtParams::quick()
            .with_n_estimators(n_estimators)
            .with_max_depth(max_depth)
            .with_subsample(if subsample { 0.7 } else { 1.0 })
            .with_seed(seed);
        let model = Gbrt::fit(&x, &y, &params).unwrap();

        let json = serde_json::to_string(&model).unwrap();
        let restored: Gbrt = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&restored, &model);

        for _ in 0..20 {
            let probe: Vec<f64> = (0..d).map(|_| rng.random_range(-3.0..3.0)).collect();
            let a = model.predict_one(&probe).unwrap();
            let b = restored.predict_one(&probe).unwrap();
            prop_assert_eq!(a.to_bits(), b.to_bits(), "probe {:?}: {} vs {}", probe, a, b);
        }
    }

    /// `Region` round-trips exactly (bit-identical center and half lengths).
    #[test]
    fn region_round_trips_exactly(
        d in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let center: Vec<f64> = (0..d).map(|_| rng.random_range(-1e6..1e6)).collect();
        let half: Vec<f64> = (0..d)
            .map(|_| rng.random_range(1e-9_f64..1e3).max(f64::MIN_POSITIVE))
            .collect();
        let region = Region::new(center, half).unwrap();
        let restored: Region = serde_json::from_str(&serde_json::to_string(&region).unwrap()).unwrap();
        prop_assert_eq!(&restored, &region);
    }

    /// `SurfConfig` round-trips exactly across statistic variants, objective shapes,
    /// directions and index kinds.
    #[test]
    fn surf_config_round_trips_exactly(
        statistic_pick in 0usize..6,
        above in prop::bool::ANY,
        log_objective in prop::bool::ANY,
        kind_pick in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let statistic = match statistic_pick {
            0 => Statistic::Count,
            1 => Statistic::CountPerVolume,
            2 => Statistic::Average(Target::Measure),
            3 => Statistic::Sum(Target::Dimension(1)),
            4 => Statistic::Median(Target::Dimension(0)),
            _ => Statistic::Ratio { label: 3 },
        };
        let value = rng.random_range(-1e4..1e4);
        let config = SurfConfig::builder()
            .statistic(statistic)
            .threshold(if above { Threshold::above(value) } else { Threshold::below(value) })
            .objective(if log_objective { Objective::log(2.5) } else { Objective::ratio(1.5) })
            .training_queries(rng.random_range(1..5_000))
            .workload_coverage(0.02, rng.random_range(0.05..0.5))
            .index_kind(match kind_pick { 0 => IndexKind::Grid, _ => IndexKind::Scan })
            .threads(rng.random_range(0..9))
            .seed(seed)
            .build();
        let restored: SurfConfig = serde_json::from_str(&serde_json::to_string(&config).unwrap()).unwrap();
        prop_assert_eq!(&restored, &config);
    }
}

proptest! {
    // Each case trains a full (small) pipeline; keep the sweep short.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: an engine trained "in one process", saved with `save_json`
    /// and loaded via `load_json` from the file answers every probe region with the exact
    /// same bits.
    #[test]
    fn saved_artifact_serves_identical_predictions(
        d in 2usize..4,
        seed in 0u64..100,
    ) {
        let synthetic = SyntheticDataset::generate(
            &SyntheticSpec::density(d, 1).with_points(1_200).with_seed(seed),
        );
        let config = SurfConfig::builder()
            .statistic(Statistic::Count)
            .threshold(Threshold::above(100.0))
            .training_queries(200)
            .gbrt(GbrtParams::quick().with_n_estimators(8))
            .kde_sample(64)
            .seed(seed)
            .build();
        let engine = Surf::fit(&synthetic.dataset, &config).unwrap();

        let path = std::env::temp_dir().join(format!("surf_roundtrip_{d}_{seed}.json"));
        ModelArtifact::from_engine("prop", &engine).save_json(&path).unwrap();
        let restored = ModelArtifact::load_json(&path).unwrap().into_engine().unwrap();
        std::fs::remove_file(&path).ok();

        let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
        for _ in 0..25 {
            let center: Vec<f64> = (0..d).map(|_| rng.random_range(0.0..1.0)).collect();
            let half: Vec<f64> = (0..d).map(|_| rng.random_range(0.01..0.3)).collect();
            let region = Region::new(center, half).unwrap();
            let a = engine.surrogate().predict(&region);
            let b = restored.surrogate().predict(&region);
            prop_assert_eq!(a.to_bits(), b.to_bits(), "region {:?}: {} vs {}", region, a, b);
        }
    }
}
