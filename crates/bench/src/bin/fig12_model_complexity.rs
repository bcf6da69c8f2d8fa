//! Figure 12: impact of surrogate model complexity (maximum tree depth) on (left) training
//! and cross-validated RMSE and (right) mining IoU.

use serde::Serialize;
use surf_bench::report::{print_table, write_artifact};
use surf_bench::Scale;
use surf_core::finder::mine_regions;
use surf_core::objective::{Objective, Threshold};
use surf_core::surrogate::GbrtSurrogate;
use surf_data::iou::average_best_iou;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_data::workload::{Workload, WorkloadSpec};
use surf_ml::cv::{cross_validate_gbrt, KFold};
use surf_ml::gbrt::{Gbrt, GbrtParams};
use surf_ml::metrics::rmse;
use surf_optim::gso::GsoParams;

#[derive(Serialize)]
struct Row {
    max_depth: usize,
    train_rmse: f64,
    cv_rmse: f64,
    iou: f64,
}

fn main() {
    let scale = Scale::from_args();
    println!("# Figure 12 — RMSE and IoU vs surrogate model complexity (max tree depth)");

    // Density, d = 3, k = 1 as in the paper.
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(3, 1)
            .with_points(scale.pick(4_000, 9_000, 12_000))
            .with_seed(120),
    );
    let threshold = Threshold::above(0.5 * synthetic.spec.points_per_region as f64);
    let domain = synthetic.dataset.domain().unwrap();
    let workload = Workload::generate(
        &synthetic.dataset,
        synthetic.statistic,
        &WorkloadSpec::default()
            .with_queries(scale.pick(1_000, 3_000, 8_000))
            .with_seed(12),
    )
    .expect("workload generation succeeds");
    let (features, targets) = workload.to_xy();

    let depths: Vec<usize> = scale.pick(
        vec![2, 5, 9],
        vec![2, 3, 5, 7, 9, 12, 15],
        vec![2, 3, 5, 7, 9, 12, 15],
    );
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for &depth in &depths {
        let params = GbrtParams::quick().with_max_depth(depth);
        // Training RMSE on the full workload.
        let model = Gbrt::fit(&features, &targets, &params).expect("fit succeeds");
        let train_rmse = rmse(&targets, &model.predict(&features).expect("predict"));
        // Cross-validated RMSE, folds fanned out over the available cores.
        let cv = cross_validate_gbrt(&features, &targets, &params, KFold::new(3, 12), 0)
            .expect("cross-validation succeeds");
        // Mining IoU with this surrogate.
        let surrogate =
            GbrtSurrogate::from_model(model, synthetic.dataset.dimensions()).expect("wrap model");
        let outcome = mine_regions(
            &surrogate,
            &domain,
            Objective::log(4.0),
            threshold,
            &GsoParams::quick().with_seed(12),
            None,
            0.02,
            0.4,
            0.15,
        );
        let iou = average_best_iou(
            &outcome
                .regions
                .iter()
                .map(|m| m.region.clone())
                .collect::<Vec<_>>(),
            &synthetic.ground_truth,
        );
        table.push(vec![
            depth.to_string(),
            format!("{train_rmse:.1}"),
            format!("{:.1}", cv.mean_rmse()),
            format!("{iou:.3}"),
        ]);
        rows.push(Row {
            max_depth: depth,
            train_rmse,
            cv_rmse: cv.mean_rmse(),
            iou,
        });
    }

    print_table(
        "Surrogate complexity sweep (density, d=3, k=1)",
        &["max depth", "train RMSE", "CV RMSE", "IoU"],
        &table,
    );
    println!(
        "\nExpected shape (paper): RMSE drops as depth grows (training RMSE faster than CV \
         RMSE); IoU tends to improve with complexity but plateaus — moderately complex models \
         are already good enough."
    );
    write_artifact("fig12_model_complexity", &rows);
}
