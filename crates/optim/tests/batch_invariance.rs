//! Batch- and thread-invariance of the glowworm swarm.
//!
//! GSO evaluates a whole iteration's candidates through `FitnessFunction::fitness_batch`.
//! These tests pin down the contract that makes that a pure optimization: a landscape that
//! overrides `fitness_batch` (as SuRF's compiled surrogate fitness does) must produce an
//! **identical** `GsoResult` to the same landscape going through the default per-candidate
//! path, and both must be identical for every thread count.

use surf_optim::fitness::{FitnessFunction, MultiPeak, SolutionBounds};
use surf_optim::gso::{GlowwormSwarm, GsoParams};

/// A landscape with a hand-written batched evaluation path (the "batching on" side).
struct BatchedPeaks(MultiPeak);

impl FitnessFunction for BatchedPeaks {
    fn bounds(&self) -> SolutionBounds {
        self.0.bounds()
    }

    fn fitness(&self, solution: &[f64]) -> f64 {
        self.0.fitness(solution)
    }

    // Deliberately processes candidates in odd-sized sub-chunks to prove chunking cannot
    // leak into results.
    fn fitness_batch(&self, solutions: &[f64], dim: usize, out: &mut [f64]) {
        for (candidates, slots) in solutions.chunks(7 * dim).zip(out.chunks_mut(7)) {
            for (candidate, slot) in candidates.chunks(dim).zip(slots.iter_mut()) {
                *slot = self.0.fitness(candidate);
            }
        }
    }
}

/// The same landscape forced through the default (scalar) `fitness_batch` path
/// (the "batching off" side).
struct ScalarPeaks(MultiPeak);

impl FitnessFunction for ScalarPeaks {
    fn bounds(&self) -> SolutionBounds {
        self.0.bounds()
    }

    fn fitness(&self, solution: &[f64]) -> f64 {
        self.0.fitness(solution)
    }
}

#[test]
fn gso_result_is_identical_with_batching_on_and_off() {
    let params = GsoParams::quick().with_seed(11).with_threads(1);
    let batched = GlowwormSwarm::new(params.clone()).run(&BatchedPeaks(MultiPeak::two_peaks()));
    let scalar = GlowwormSwarm::new(params).run(&ScalarPeaks(MultiPeak::two_peaks()));
    assert_eq!(batched.glowworms, scalar.glowworms);
    assert_eq!(batched.mean_fitness_history, scalar.mean_fitness_history);
    assert_eq!(batched.iterations_run, scalar.iterations_run);
    assert_eq!(batched.converged, scalar.converged);
    assert_eq!(batched.fitness_evaluations, scalar.fitness_evaluations);
}

#[test]
fn gso_result_is_identical_for_every_thread_count_with_batched_fitness() {
    let landscape = BatchedPeaks(MultiPeak::diagonal_peaks(3, 3));
    let runs: Vec<_> = [1usize, 2, 4, 0]
        .into_iter()
        .map(|threads| {
            GlowwormSwarm::new(GsoParams::quick().with_seed(5).with_threads(threads))
                .run(&landscape)
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(runs[0].glowworms, run.glowworms);
        assert_eq!(runs[0].mean_fitness_history, run.mean_fitness_history);
    }
}

#[test]
fn evaluate_swarm_matches_scalar_evaluation() {
    let landscape = BatchedPeaks(MultiPeak::two_peaks());
    let positions: Vec<Vec<f64>> = (0..53)
        .map(|i| vec![(i as f64) / 53.0, 1.0 - (i as f64) / 53.0])
        .collect();
    let expected: Vec<f64> = positions.iter().map(|p| landscape.fitness(p)).collect();
    for threads in [1usize, 2, 5, 16] {
        let got = surf_optim::evaluate_swarm(&landscape, &positions, threads);
        assert_eq!(got, expected, "threads={threads}");
    }
    assert!(surf_optim::evaluate_swarm(&landscape, &[], 4).is_empty());
}
