//! The GSO density-weight instruments of the process-wide `surf_obs` registry. This file
//! holds a single test: the registry is shared by the whole test binary, so a swarm running
//! concurrently in another test would move the counters under it.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use surf_optim::fitness::{FitnessFunction, MultiPeak, SolutionBounds};
use surf_optim::gso::{GlowwormSwarm, GsoParams};

/// Two peaks with a density weight that counts its calls and the iterations they fall in.
/// Run single-threaded, GSO calls `fitness_batch` once per swarm evaluation, one per
/// iteration plus the final one, which marks iteration boundaries.
#[derive(Default)]
struct CountingPeaks {
    batches: AtomicU64,
    calls: AtomicU64,
    last_batch_with_call: AtomicU64,
    iterations_with_calls: AtomicU64,
}

impl FitnessFunction for CountingPeaks {
    fn bounds(&self) -> SolutionBounds {
        MultiPeak::two_peaks().bounds()
    }

    fn fitness(&self, solution: &[f64]) -> f64 {
        MultiPeak::two_peaks().fitness(solution)
    }

    fn fitness_batch(&self, solutions: &[f64], dim: usize, out: &mut [f64]) {
        self.batches.fetch_add(1, Relaxed);
        for (candidate, slot) in solutions.chunks(dim).zip(out.iter_mut()) {
            *slot = self.fitness(candidate);
        }
    }

    fn density_weight(&self, solution: &[f64]) -> f64 {
        self.calls.fetch_add(1, Relaxed);
        let batch = self.batches.load(Relaxed);
        if self.last_batch_with_call.swap(batch, Relaxed) != batch {
            self.iterations_with_calls.fetch_add(1, Relaxed);
        }
        0.5 + solution[0]
    }
}

fn slots() -> [u64; 3] {
    let obs = surf_obs::global();
    [
        obs.optim_density_weights_computed.get(),
        obs.optim_density_weights_reused.get(),
        obs.optim_density_weights_unread.get(),
    ]
}

#[test]
fn density_weight_slots_add_up_and_match_the_landscape() {
    let obs = surf_obs::global();
    let outcomes: Vec<String> = obs
        .registry
        .snapshot()
        .families
        .into_iter()
        .filter(|f| f.name == "surf_optim_density_weights_total")
        .flat_map(|f| f.series)
        .flat_map(|s| s.labels.into_iter().map(|(_, value)| value))
        .collect();
    assert_eq!(outcomes, ["computed", "reused", "unread"], "pre-registered");

    let landscape = CountingPeaks::default();
    let params = GsoParams::quick().with_seed(3).with_threads(1);
    let before = slots();
    let observed_before = obs.optim_density_weights.snapshot().count;
    let result = GlowwormSwarm::new(params.clone()).run(&landscape);
    let after = slots();
    let [computed, reused, unread] = [0, 1, 2].map(|k| after[k] - before[k]);

    assert_eq!(
        computed + reused + unread,
        (params.glowworms * result.iterations_run) as u64,
        "one slot per glowworm per iteration"
    );
    assert_eq!(computed, landscape.calls.load(Relaxed));
    assert!(
        computed > 0 && reused > 0 && unread > 0,
        "computed {computed}, reused {reused}, unread {unread}"
    );
    assert_eq!(
        obs.optim_density_weights.snapshot().count - observed_before,
        landscape.iterations_with_calls.load(Relaxed),
        "one observation per iteration that computes a weight"
    );

    // Without the density guide there are no weight slots to count.
    let unguided = CountingPeaks::default();
    GlowwormSwarm::new(params.with_density_guide(false)).run(&unguided);
    assert_eq!(slots(), after);
    assert_eq!(unguided.calls.load(Relaxed), 0);
}
