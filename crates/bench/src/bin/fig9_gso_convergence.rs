//! Figure 9: GSO convergence — the expected objective value E\[𝒥\] versus iterations for
//! solution-space dimensionalities 2..10 (data d = 1..5) and k ∈ {1, 3} ground-truth regions,
//! using the dimension-adaptive L = 50·d glowworms and r0 from Friedman et al. Eq. 2.24.
//! The paper reports an average of ≈63 iterations to convergence.

use serde::Serialize;
use surf_bench::report::{print_table, write_artifact};
use surf_bench::Scale;
use surf_core::finder::RegionFitness;
use surf_core::objective::{Objective, Threshold};
use surf_core::surrogate::SurrogateTrainer;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_data::workload::{Workload, WorkloadSpec};
use surf_optim::gso::{GlowwormSwarm, GsoParams};

#[derive(Serialize)]
struct Trace {
    data_dimensions: usize,
    solution_dimensions: usize,
    regions: usize,
    iterations_run: usize,
    converged: bool,
    mean_fitness: Vec<f64>,
}

fn main() {
    let scale = Scale::from_args();
    println!("# Figure 9 — GSO convergence (E[J] vs iterations) per dimensionality and k");

    let dims: Vec<usize> = scale.pick(vec![1, 2], vec![1, 2, 3, 4, 5], vec![1, 2, 3, 4, 5]);
    let mut traces = Vec::new();
    let mut rows = Vec::new();
    for &k in &[1usize, 3] {
        for &d in &dims {
            let spec = SyntheticSpec::density(d, k)
                .with_points(scale.pick(3_000, 9_000, 12_000))
                .with_seed(90 + d as u64 + 10 * k as u64);
            let synthetic = SyntheticDataset::generate(&spec);
            let planted = spec.points_per_region as f64;
            let threshold = Threshold::above(1000.0_f64.min(0.6 * planted));

            let workload = Workload::generate(
                &synthetic.dataset,
                synthetic.statistic,
                &WorkloadSpec::default()
                    .with_queries(scale.pick(600, 2_000, 5_000))
                    .with_seed(9),
            )
            .expect("workload generation succeeds");
            let (surrogate, _) = SurrogateTrainer::quick()
                .train(&workload)
                .expect("training succeeds");
            let fitness = RegionFitness::new(
                &surrogate,
                Objective::log(4.0),
                threshold,
                synthetic.dataset.domain().unwrap(),
                None,
                0.02,
                0.4,
            );

            let params = GsoParams::dimension_adaptive(2 * d)
                .with_iterations(scale.pick(100, 250, 250))
                .with_seed(9);
            let result = GlowwormSwarm::new(params).run(&fitness);
            rows.push(vec![
                k.to_string(),
                (2 * d).to_string(),
                result.iterations_run.to_string(),
                result.converged.to_string(),
                format!(
                    "{:.2} -> {:.2}",
                    result
                        .mean_fitness_history
                        .first()
                        .copied()
                        .unwrap_or(f64::NAN),
                    result
                        .mean_fitness_history
                        .last()
                        .copied()
                        .unwrap_or(f64::NAN)
                ),
            ]);
            traces.push(Trace {
                data_dimensions: d,
                solution_dimensions: 2 * d,
                regions: k,
                iterations_run: result.iterations_run,
                converged: result.converged,
                mean_fitness: result.mean_fitness_history.clone(),
            });
        }
    }

    print_table(
        "Convergence per setting",
        &[
            "k",
            "solution dims",
            "iterations to convergence",
            "converged",
            "E[J] first -> last",
        ],
        &rows,
    );
    let mean_iterations: f64 =
        traces.iter().map(|t| t.iterations_run as f64).sum::<f64>() / traces.len() as f64;
    println!(
        "\naverage iterations to convergence across settings: {mean_iterations:.0} (paper: ≈63, never more than 250)"
    );
    write_artifact("fig9_gso_convergence", &traces);
}
