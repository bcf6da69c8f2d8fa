//! Integration tests of the four-method comparison harness (the machinery behind the paper's
//! Fig. 3 and Table I).

use std::time::Duration;

use surf::prelude::*;

#[test]
fn all_methods_run_on_a_density_dataset() {
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(2, 1)
            .with_points(4_000)
            .with_points_per_region(1_200)
            .with_seed(301),
    );
    let config = ComparisonConfig {
        gso: GsoParams::paper_default().with_seed(301),
        ..ComparisonConfig::quick().with_seed(301)
    };
    let harness = MethodComparison::new(config);
    // Use a threshold the quick surrogate settings can comfortably satisfy (the full paper
    // settings in the bench harness use y_R = 1000 with a much larger training workload).
    let threshold = Threshold::above(600.0);
    let runs: Vec<MethodRun> = Method::ALL
        .iter()
        .map(|&m| {
            harness
                .run(m, &synthetic.dataset, Statistic::Count, threshold)
                .unwrap()
        })
        .collect();
    assert_eq!(runs.len(), 4);
    for run in &runs {
        assert!(!run.timed_out, "{} timed out", run.method.name());
    }
    // SuRF and f+GlowWorm find the dense region with comparable accuracy.
    let iou_of = |method: Method| {
        runs.iter()
            .find(|r| r.method == method)
            .unwrap()
            .mean_iou(&synthetic.ground_truth)
    };
    let surf_iou = iou_of(Method::Surf);
    let f_iou = iou_of(Method::FGlowworm);
    assert!(surf_iou > 0.1, "SuRF IoU {surf_iou}");
    assert!(f_iou > 0.1, "f+GlowWorm IoU {f_iou}");
    // PRIM has no usable response on the density statistic, so it should not be the best
    // method here (the paper's observation).
    let prim_iou = iou_of(Method::Prim);
    assert!(
        prim_iou <= surf_iou.max(f_iou) + 0.05,
        "PRIM unexpectedly dominates on density: {prim_iou}"
    );
}

#[test]
fn surf_mining_is_faster_than_f_glowworm_on_larger_data() {
    // The headline performance claim: mining with the surrogate does not touch the data, so
    // its cost is independent of N, while f+GlowWorm pays a full scan per objective
    // evaluation. Pinned to the unindexed scan path — the regime the paper's Table I
    // measures; the spatial index narrows exactly this gap (see
    // indexed_f_glowworm_is_much_faster_than_the_scan below).
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(2, 1)
            .with_points(150_000)
            .with_points_per_region(20_000)
            .with_seed(303),
    );
    let dataset = synthetic.dataset.with_index_kind(IndexKind::Scan);
    let harness = MethodComparison::new(ComparisonConfig::quick().with_seed(303));
    let surf_run = harness
        .run(
            Method::Surf,
            &dataset,
            Statistic::Count,
            Threshold::above(5_000.0),
        )
        .unwrap();
    let f_run = harness
        .run(
            Method::FGlowworm,
            &dataset,
            Statistic::Count,
            Threshold::above(5_000.0),
        )
        .unwrap();
    assert!(
        surf_run.mining_time < f_run.mining_time,
        "SuRF mining ({:?}) should be faster than f+GlowWorm ({:?}) at N = 150k",
        surf_run.mining_time,
        f_run.mining_time
    );
}

#[test]
fn indexed_f_glowworm_is_much_faster_than_the_scan() {
    // The new regime: with the grid index serving the true-function evaluations, the
    // data-touching baseline no longer pays a full O(N·d) scan per candidate.
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(2, 1)
            .with_points(150_000)
            .with_points_per_region(20_000)
            .with_seed(303),
    );
    let run_with = |kind: IndexKind| {
        MethodComparison::new(ComparisonConfig::quick().with_seed(303))
            .run(
                Method::FGlowworm,
                &synthetic.dataset.clone().with_index_kind(kind),
                Statistic::Count,
                Threshold::above(5_000.0),
            )
            .unwrap()
    };
    // Build the grid index outside the timed mining run (the scan path has no index).
    synthetic.dataset.region_index(IndexKind::Grid);
    let indexed = run_with(IndexKind::Grid);
    let scanned = run_with(IndexKind::Scan);
    assert!(
        indexed.mining_time < scanned.mining_time,
        "indexed f+GlowWorm ({:?}) should beat the scan ({:?}) at N = 150k",
        indexed.mining_time,
        scanned.mining_time
    );
}

#[test]
fn naive_times_out_gracefully_under_a_tight_budget() {
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(3, 1)
            .with_points(20_000)
            .with_points_per_region(3_000)
            .with_seed(305),
    );
    // Pinned to the scan path: the timeout/coverage accounting is under test, and it needs
    // the original per-candidate full-scan cost (the index finishes this sweep in time).
    let dataset = synthetic.dataset.with_index_kind(IndexKind::Scan);
    let config = ComparisonConfig::quick()
        .with_seed(305)
        .with_naive_time_limit(Duration::from_millis(50));
    let harness = MethodComparison::new(config);
    let run = harness
        .run(
            Method::Naive,
            &dataset,
            Statistic::Count,
            Threshold::above(1_000.0),
        )
        .unwrap();
    assert!(run.timed_out);
    assert!(run.coverage < 1.0);
    assert!(run.coverage > 0.0);
}

#[test]
fn prim_shines_on_the_aggregate_statistic_with_one_region() {
    // The paper's Fig. 3 (top-left): PRIM is the strongest method for aggregate, k = 1.
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::aggregate(2, 1)
            .with_points(5_000)
            .with_seed(307),
    );
    let harness = MethodComparison::new(ComparisonConfig::quick().with_seed(307));
    let run = harness.run_on_synthetic(Method::Prim, &synthetic).unwrap();
    let iou = run.mean_iou(&synthetic.ground_truth);
    assert!(iou > 0.3, "PRIM aggregate IoU {iou}");
}
