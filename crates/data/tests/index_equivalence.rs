//! Property tests: for random datasets, regions and every `Statistic` variant, the
//! grid-indexed evaluation agrees with the streaming scan path.
//!
//! Count-like statistics (Count, CountPerVolume, Ratio) and Min/Max/Median must be *exactly*
//! equal — the grid answers them from integer counts, data-derived extrema and identical
//! value multisets. Sum/Average/Variance combine per-cell partial sums, which re-associates
//! floating-point additions; those are checked against a tight absolute+relative tolerance.
//!
//! Coordinates and region bounds are quantized to a 0.05 lattice so that region boundaries
//! frequently coincide with data values, hammering the inclusive-bounds edge cases the grid
//! must get bit-right.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surf_data::dataset::Dataset;
use surf_data::index::IndexKind;
use surf_data::region::Region;
use surf_data::statistic::{Statistic, Target};

/// Quantizes to the 0.05 lattice, forcing exact boundary collisions between data and regions.
fn quantize(v: f64) -> f64 {
    (v * 20.0).round() / 20.0
}

/// A random dataset with labels and a measure column, `n` rows in `d` dimensions.
fn random_dataset(d: usize, n: usize, rng: &mut StdRng) -> Dataset {
    let columns: Vec<Vec<f64>> = (0..d)
        .map(|_| {
            (0..n)
                .map(|_| quantize(rng.random_range(-1.0..1.0)))
                .collect()
        })
        .collect();
    let labels: Vec<u32> = (0..n).map(|_| rng.random_range(0..4u32)).collect();
    let measure: Vec<f64> = (0..n)
        .map(|_| quantize(rng.random_range(-10.0..10.0)))
        .collect();
    Dataset::from_columns(columns)
        .unwrap()
        .with_labels(labels)
        .unwrap()
        .with_measure("m", measure)
        .unwrap()
}

/// Query regions spanning the interesting cases: interior boxes on the lattice, a box
/// covering everything, and a far-away empty box.
fn random_regions(d: usize, rng: &mut StdRng) -> Vec<Region> {
    let mut regions = Vec::new();
    for _ in 0..4 {
        let center: Vec<f64> = (0..d)
            .map(|_| quantize(rng.random_range(-1.2..1.2)))
            .collect();
        let half: Vec<f64> = (0..d)
            .map(|_| quantize(rng.random_range(0.05..0.8)).max(0.05))
            .collect();
        regions.push(Region::new(center, half).unwrap());
    }
    regions.push(Region::new(vec![0.0; d], vec![2.0; d]).unwrap()); // covers all rows
    regions.push(Region::new(vec![5.0; d], vec![0.1; d]).unwrap()); // empty
    regions
}

/// Every statistic variant exercised against dimensionality `d`.
fn all_statistics(d: usize) -> Vec<Statistic> {
    let mut statistics = vec![
        Statistic::Count,
        Statistic::CountPerVolume,
        Statistic::Ratio { label: 0 },
        Statistic::Ratio { label: 3 },
        Statistic::Ratio { label: 99 }, // label absent from the dataset
    ];
    for target in [Target::Measure, Target::Dimension(d - 1)] {
        statistics.extend([
            Statistic::Average(target),
            Statistic::Sum(target),
            Statistic::Min(target),
            Statistic::Max(target),
            Statistic::Variance(target),
            Statistic::Median(target),
        ]);
    }
    statistics
}

/// Whether the indexed path must be bit-identical to the scan (true for everything except
/// the re-associated Sum/Average/Variance family).
fn must_be_exact(statistic: &Statistic) -> bool {
    !matches!(
        statistic,
        Statistic::Sum(_) | Statistic::Average(_) | Statistic::Variance(_)
    )
}

fn check_agreement(dataset: &Dataset, region: &Region, statistic: Statistic) {
    let scan = statistic.evaluate_scan(dataset, region).unwrap();
    let indexed = statistic
        .evaluate_with(dataset, region, IndexKind::Grid)
        .unwrap();
    match (scan, indexed) {
        (None, None) => {}
        (Some(a), Some(b)) if must_be_exact(&statistic) => {
            assert!(
                a == b || (a.is_nan() && b.is_nan()),
                "{statistic:?}: scan {a} != indexed {b}"
            );
        }
        (Some(a), Some(b)) => {
            assert!(
                (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                "{statistic:?}: scan {a} vs indexed {b}"
            );
        }
        other => panic!("{statistic:?}: definedness mismatch {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Indexed evaluation equals the scan for every statistic variant, dimensionality,
    /// dataset size (including a few empty datasets) and region — including empty regions
    /// and the ignored-dimension (`Target::Dimension`) cases.
    #[test]
    fn indexed_evaluation_equals_scan(
        d in 1usize..=4,
        n in 0usize..=200,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset = random_dataset(d, n, &mut rng);
        for region in random_regions(d, &mut rng) {
            for statistic in all_statistics(d) {
                check_agreement(&dataset, &region, statistic);
            }
        }
    }

    /// `Dataset::count_in` agrees across both index configurations, and with the
    /// materializing `indices_in` reference.
    #[test]
    fn count_in_is_index_invariant(
        d in 1usize..=3,
        n in 1usize..=300,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset = random_dataset(d, n, &mut rng);
        for region in random_regions(d, &mut rng) {
            let reference = dataset.indices_in(&region).unwrap().len();
            for kind in [IndexKind::Scan, IndexKind::Grid] {
                let dataset = dataset.clone().with_index_kind(kind);
                prop_assert_eq!(dataset.count_in(&region).unwrap(), reference);
            }
        }
    }

    /// Offset data: values with a huge mean and tiny spread. The indexed Variance path must
    /// use the centered (Welford/Chan) second moment — a raw `Σv²/n − mean²` formula
    /// catastrophically cancels here and silently reports 0.
    #[test]
    fn indexed_variance_is_stable_on_offset_data(
        d in 1usize..=3,
        seed in 0u64..10_000,
        offset in 1.0e6f64..1.0e9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 200;
        let columns: Vec<Vec<f64>> = (0..d)
            .map(|_| (0..n).map(|_| quantize(rng.random_range(-1.0..1.0))).collect())
            .collect();
        let measure: Vec<f64> = (0..n).map(|i| offset + i as f64 / 1_000.0).collect();
        let dataset = Dataset::from_columns(columns)
            .unwrap()
            .with_measure("m", measure)
            .unwrap();
        for region in random_regions(d, &mut rng) {
            let statistic = Statistic::Variance(Target::Measure);
            let scan = statistic.evaluate_scan(&dataset, &region).unwrap();
            let indexed = statistic.evaluate_with(&dataset, &region, IndexKind::Grid).unwrap();
            match (scan, indexed) {
                (None, None) => {}
                (Some(a), Some(b)) => prop_assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + a.abs()),
                    "variance: scan {} vs indexed {} (offset {})",
                    a, b, offset
                ),
                other => panic!("variance: definedness mismatch {other:?}"),
            }
        }
    }

    /// Clustered (skewed) data, where a uniform grid degenerates: points concentrate in a few
    /// tight blobs, so most grid cells are empty while the blob cells overflow.
    #[test]
    fn indexed_evaluation_equals_scan_on_skewed_data(
        d in 1usize..=3,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let blobs: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..d).map(|_| quantize(rng.random_range(-1.0..1.0))).collect())
            .collect();
        let mut columns = vec![Vec::new(); d];
        for _ in 0..150 {
            let blob = &blobs[rng.random_range(0..blobs.len())];
            for (k, column) in columns.iter_mut().enumerate() {
                column.push(quantize(blob[k] + rng.random_range(-0.05..0.05)));
            }
        }
        let n = columns[0].len();
        let labels: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
        let measure: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let dataset = Dataset::from_columns(columns)
            .unwrap()
            .with_labels(labels)
            .unwrap()
            .with_measure("m", measure)
            .unwrap();
        for region in random_regions(d, &mut rng) {
            for statistic in all_statistics(d) {
                check_agreement(&dataset, &region, statistic);
            }
        }
    }
}
