//! Figure 8: sensitivity of the objective's regularization parameter c — the fraction of
//! uniformly spread candidate solutions that remain viable (i.e. lie within a small radius of
//! the objective's peak) as c increases.

use serde::Serialize;
use surf_bench::report::{print_table, write_artifact};
use surf_bench::Scale;
use surf_core::objective::{Objective, Threshold};
use surf_core::surrogate::{Surrogate, TrueFunctionSurrogate};
use surf_data::region::Region;
use surf_data::statistic::Statistic;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};

#[derive(Serialize)]
struct Row {
    c: f64,
    viable_fraction: f64,
}

fn main() {
    let scale = Scale::from_args();
    println!("# Figure 8 — viable solutions (%) vs regularization parameter c");

    // d = 1, k = 1 dataset as in the paper.
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(1, 1)
            .with_points(scale.pick(4_000, 10_000, 12_000))
            .with_points_per_region(scale.pick(900, 1_300, 1_500))
            .with_seed(80),
    );
    let threshold = Threshold::above(scale.pick(600.0, 1_000.0, 1_080.0));
    let surrogate = TrueFunctionSurrogate::new(&synthetic.dataset, Statistic::Count, 0.0);

    // A fixed set of candidate solutions spread uniformly over the (x1, l1) space.
    let resolution = scale.pick(30usize, 50, 80);
    let mut candidates = Vec::new();
    for i in 0..resolution {
        for j in 1..resolution {
            let x1 = (i as f64 + 0.5) / resolution as f64;
            let l1 = 0.5 * j as f64 / resolution as f64;
            candidates.push(Region::new(vec![x1], vec![l1]).unwrap());
        }
    }
    let radius = 0.2;

    let mut rows = Vec::new();
    let mut table = Vec::new();
    let mut c: f64 = 0.0;
    while c <= 2.0 + 1e-9 {
        let objective = Objective::log(c.max(1e-9));
        // Locate the peak over the candidate set.
        let mut best = f64::NEG_INFINITY;
        let mut peak = vec![0.0, 0.0];
        let mut values = Vec::with_capacity(candidates.len());
        for region in &candidates {
            let value = objective.evaluate(surrogate.predict(region), region, &threshold);
            if value.is_finite() && value > best {
                best = value;
                peak = region.to_solution_vector();
            }
            values.push(value);
        }
        // Viable solutions: finite objective AND within `radius` of the peak in (x1, l1).
        let viable = candidates
            .iter()
            .zip(&values)
            .filter(|(region, value)| {
                value.is_finite() && {
                    let s = region.to_solution_vector();
                    ((s[0] - peak[0]).powi(2) + (s[1] - peak[1]).powi(2)).sqrt() <= radius
                }
            })
            .count();
        let fraction = viable as f64 / candidates.len() as f64;
        table.push(vec![format!("{c:.2}"), format!("{:.3}", fraction)]);
        rows.push(Row {
            c,
            viable_fraction: fraction,
        });
        c += 0.25;
    }

    print_table(
        "Viable solutions within radius 0.2 of the peak",
        &["c", "viable fraction"],
        &table,
    );
    println!(
        "\nExpected shape (paper): the fraction of viable solutions decreases as c grows — c \
         acts as a regularizer on the admissible region sizes."
    );
    write_artifact("fig8_c_sensitivity", &rows);
}
