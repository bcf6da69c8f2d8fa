//! Mining without a KDE computes no density weight. This file holds a single test: the
//! density-weight counters live in the process-wide `surf_obs` registry, so a swarm running
//! concurrently in another test would move them under it.

use surf_core::finder::mine_regions;
use surf_core::{MiningOutcome, Objective, Threshold, TrueFunctionSurrogate};
use surf_data::statistic::Statistic;
use surf_data::synthetic::{SyntheticDataset, SyntheticSpec};
use surf_optim::gso::GsoParams;

fn slots() -> [u64; 3] {
    let obs = surf_obs::global();
    [
        obs.optim_density_weights_computed.get(),
        obs.optim_density_weights_reused.get(),
        obs.optim_density_weights_unread.get(),
    ]
}

/// Every float of an outcome as bits, with its counts; the wall time is left out.
fn fingerprint(outcome: &MiningOutcome) -> (Vec<u64>, [usize; 3], bool) {
    let mut bits = Vec::new();
    for mined in &outcome.regions {
        let region = &mined.region;
        bits.extend(
            region
                .center()
                .iter()
                .chain(region.half_lengths())
                .map(|v| v.to_bits()),
        );
        bits.extend([mined.predicted_value, mined.objective_value].map(f64::to_bits));
    }
    bits.push(outcome.swarm_valid_fraction.to_bits());
    bits.extend(outcome.convergence_trace.iter().map(|v| v.to_bits()));
    let counts = [
        outcome.regions.len(),
        outcome.iterations_run,
        outcome.surrogate_evaluations,
    ];
    (bits, counts, outcome.converged)
}

#[test]
fn mining_without_a_kde_computes_no_density_weight() {
    let synthetic = SyntheticDataset::generate(
        &SyntheticSpec::density(2, 1)
            .with_points(2_000)
            .with_points_per_region(800)
            .with_seed(5),
    );
    let domain = synthetic.dataset.domain().unwrap();
    // The f+GlowWorm setting: GSO over the true statistic, with no KDE to guide it.
    let surrogate = TrueFunctionSurrogate::new(&synthetic.dataset, Statistic::Count, 0.0);
    let mine = |gso: &GsoParams| {
        mine_regions(
            &surrogate,
            &domain,
            Objective::paper_default(),
            Threshold::above(300.0),
            gso,
            None,
            0.005,
            0.5,
            0.15,
        )
    };
    let guided = GsoParams::quick().with_seed(9).with_threads(2);
    assert!(guided.use_density_guide);

    let before = slots();
    let asked_for_the_guide = mine(&guided);
    assert_eq!(slots(), before, "no KDE, yet density weights were counted");
    assert!(
        !asked_for_the_guide.regions.is_empty(),
        "mining found nothing"
    );

    let unguided = mine(&guided.clone().with_density_guide(false));
    assert_eq!(fingerprint(&asked_for_the_guide), fingerprint(&unguided));
}
