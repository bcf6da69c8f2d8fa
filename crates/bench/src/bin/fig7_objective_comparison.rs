//! Figure 7: the region solution space under the logarithmic objective (Eq. 4) versus the
//! ratio objective (Eq. 2) as the regularization parameter c increases.
//!
//! The key property: the log objective is *undefined* on regions violating the constraint
//! (the white areas of the paper's figure), so GSO never forms neighbourhoods there, whereas
//! the ratio objective assigns them finite (negative) values that can mislead the swarm.

use serde::Serialize;
use surf_bench::report::{print_table, write_artifact};
use surf_bench::Scale;
use surf_core::objective::{Objective, Threshold};
use surf_core::surrogate::{Surrogate, TrueFunctionSurrogate};
use surf_data::region::Region;
use surf_data::statistic::Statistic;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};

#[derive(Serialize)]
struct GridCell {
    c: f64,
    objective: String,
    x1: f64,
    l1: f64,
    value: f64,
    defined: bool,
}

fn main() {
    let scale = Scale::from_args();
    println!("# Figure 7 — solution space under objective (4) [log] vs objective (2) [ratio]");

    // d = 1, k = 3 synthetic density dataset, as in the paper's figure.
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(1, 3)
            .with_points(scale.pick(4_000, 10_000, 12_000))
            .with_points_per_region(scale.pick(900, 1_300, 1_500))
            .with_seed(70),
    );
    let threshold = Threshold::above(scale.pick(600.0, 1_000.0, 1_080.0));
    // Pinned to the scan path: this figure reproduces the paper's cost regime, where
    // every true-f evaluation is a full data scan (the spatial index would change the
    // measured surrogate-vs-true-f gap; see the `bench_region_eval` binary for that story).
    let surrogate = TrueFunctionSurrogate::new(&synthetic.dataset, Statistic::Count, 0.0)
        .with_index_kind(surf_data::index::IndexKind::Scan);

    let resolution = scale.pick(20usize, 40, 60);
    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for &c in &[1.0, 2.0, 3.0, 4.0] {
        for (name, objective) in [
            ("log (Eq. 4)", Objective::log(c)),
            ("ratio (Eq. 2)", Objective::ratio(c)),
        ] {
            let mut defined = 0usize;
            let mut total = 0usize;
            let mut best = f64::NEG_INFINITY;
            let mut best_at = (0.0, 0.0);
            for i in 0..resolution {
                for j in 1..resolution {
                    let x1 = (i as f64 + 0.5) / resolution as f64;
                    let l1 = 0.5 * j as f64 / resolution as f64;
                    let region = Region::new(vec![x1], vec![l1]).unwrap();
                    let value = objective.evaluate(surrogate.predict(&region), &region, &threshold);
                    total += 1;
                    if value.is_finite() {
                        defined += 1;
                        if value > best {
                            best = value;
                            best_at = (x1, l1);
                        }
                    }
                    cells.push(GridCell {
                        c,
                        objective: name.to_string(),
                        x1,
                        l1,
                        value: if value.is_finite() { value } else { f64::NAN },
                        defined: value.is_finite(),
                    });
                }
            }
            rows.push(vec![
                format!("{c}"),
                name.to_string(),
                format!("{:.1}%", 100.0 * defined as f64 / total as f64),
                format!("({:.2}, {:.2})", best_at.0, best_at.1),
            ]);
        }
    }

    print_table(
        "Fraction of the (x1, l1) solution space where the objective is defined, and its peak",
        &["c", "objective", "defined cells", "peak (x1, l1)"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): the log objective is undefined exactly on the \
         constraint-violating part of the space (white area growing with c), while the ratio \
         objective is defined everywhere; both peak near the ground-truth centres at {:?}.",
        synthetic
            .ground_truth
            .iter()
            .map(|g| (g.center()[0] * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    write_artifact("fig7_objective_comparison", &cells);
}
