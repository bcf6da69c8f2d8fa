//! Glowworm Swarm Optimization (GSO) — Krishnanand & Ghose, *Swarm Intelligence* 2009.
//!
//! GSO is the multimodal optimizer at the heart of SuRF (Section III-A of the paper). Each
//! glowworm `i` carries a luciferin level `ℓ_i` updated from its fitness,
//!
//! ```text
//! ℓ_i(t) = (1 − ρ) ℓ_i(t−1) + γ 𝒥(p_i(t))          (Eq. 6)
//! ```
//!
//! and moves toward a probabilistically chosen neighbour with higher luciferin inside an
//! adaptive local-decision radius. Because interactions are purely local, the swarm splits
//! into sub-swarms that converge to *different* local optima — exactly what is needed to
//! return every region satisfying the analyst's constraint. SuRF additionally weighs the
//! neighbour-selection probability by the KDE mass of the candidate region (Eq. 8), supplied
//! here through [`FitnessFunction::density_weight`].
//!
//! Density weights are demand-driven. Each iteration first lists every glowworm's brighter
//! neighbours, then computes weights only for glowworms that appear in some list, and keeps
//! each weight until its glowworm moves. Eq. 7 therefore reads the same weights an
//! every-glowworm pass would compute. A swarm with no brighter neighbour anywhere, such as
//! one that is entirely infeasible, computes none.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use surf_ml::parallel::{parallel_map, resolve_threads};

use crate::fitness::{evaluate_swarm, FitnessFunction};

/// Hyper-parameters of the glowworm swarm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GsoParams {
    /// Number of glowworms `L` (the paper uses 100, or `50·d` in the sensitivity study).
    pub glowworms: usize,
    /// Maximum number of iterations `T` (the paper uses 100; convergence averages ≈63).
    pub iterations: usize,
    /// Luciferin decay `ρ` (paper: 0.4).
    pub rho: f64,
    /// Luciferin enhancement `γ` (paper: 0.6).
    pub gamma: f64,
    /// Initial luciferin `ℓ_0`.
    pub initial_luciferin: f64,
    /// Initial and maximum neighbourhood radius `r_0` = `r_s`, expressed as a fraction of the
    /// solution-space diagonal (the paper sets the absolute value 3 for its normalized space).
    pub initial_radius_fraction: f64,
    /// Rate `β` at which the decision radius adapts to the neighbour count.
    pub beta: f64,
    /// Desired number of neighbours `n_t`.
    pub desired_neighbors: usize,
    /// Step size `s`, expressed as a fraction of the solution-space diagonal.
    pub step_fraction: f64,
    /// Enable the KDE-guided neighbour selection of Eq. 8.
    pub use_density_guide: bool,
    /// Stop early when the mean absolute luciferin change over a full iteration falls below
    /// this tolerance (0 disables early convergence detection).
    pub convergence_tolerance: f64,
    /// OS threads used each iteration to evaluate glowworm fitness and the density weights
    /// that iteration's movement reads (only glowworms that are some neighbour's candidate
    /// and have moved since their last weight): `0` = automatic (or inherited from the
    /// pipeline's thread knob), `1` = sequential, `n` = exactly `n`. Evaluations are
    /// independent, so the trajectory is identical for every thread count.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GsoParams {
    fn default() -> Self {
        Self {
            glowworms: 100,
            iterations: 100,
            rho: 0.4,
            gamma: 0.6,
            initial_luciferin: 5.0,
            initial_radius_fraction: 0.6,
            beta: 0.08,
            desired_neighbors: 5,
            step_fraction: 0.03,
            use_density_guide: true,
            convergence_tolerance: 1e-4,
            threads: 0,
            seed: 0,
        }
    }
}

impl GsoParams {
    /// The paper's Table-I configuration: `L = 100`, `T = 100`, `γ = 0.6`, `ρ = 0.4`.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// A small, fast configuration for tests and examples.
    pub fn quick() -> Self {
        Self {
            glowworms: 40,
            iterations: 40,
            ..Self::default()
        }
    }

    /// The dimension-adaptive configuration of Section V-G: `L = 50·d` glowworms and an
    /// initial radius `r_0 = (1 − (1/2)^{1/L})^{1/d}` (fraction of the domain) adopted from
    /// Friedman et al. Eq. 2.24.
    pub fn dimension_adaptive(solution_dimensions: usize) -> Self {
        let d = solution_dimensions.max(1);
        let glowworms = 50 * d;
        let radius = (1.0 - 0.5_f64.powf(1.0 / glowworms as f64)).powf(1.0 / d as f64);
        Self {
            glowworms,
            initial_radius_fraction: radius.clamp(0.05, 1.0),
            ..Self::default()
        }
    }

    /// Builder-style override of the number of glowworms.
    pub fn with_glowworms(mut self, glowworms: usize) -> Self {
        self.glowworms = glowworms;
        self
    }

    /// Builder-style override of the iteration budget.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style toggle of the KDE guidance (Eq. 8 vs plain Eq. 7).
    pub fn with_density_guide(mut self, enabled: bool) -> Self {
        self.use_density_guide = enabled;
        self
    }

    /// Builder-style override of the fitness-evaluation thread count (`0` = automatic).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// The converged state of one glowworm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Glowworm {
    /// Final position in the solution space.
    pub position: Vec<f64>,
    /// Final fitness at that position.
    pub fitness: f64,
    /// Final luciferin level.
    pub luciferin: f64,
}

/// The outcome of a GSO run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GsoResult {
    /// Final state of every glowworm.
    pub glowworms: Vec<Glowworm>,
    /// Mean finite fitness of the swarm after each iteration (the `E[𝒥]` convergence traces
    /// of Fig. 9).
    pub mean_fitness_history: Vec<f64>,
    /// Number of iterations actually executed.
    pub iterations_run: usize,
    /// Whether the luciferin change dropped below the convergence tolerance before the
    /// iteration budget was exhausted.
    pub converged: bool,
    /// Number of fitness evaluations performed.
    pub fitness_evaluations: usize,
}

impl GsoResult {
    /// Glowworms whose final fitness is finite (i.e. they ended on a valid candidate), sorted
    /// by descending fitness.
    pub fn valid_glowworms(&self) -> Vec<&Glowworm> {
        let mut valid: Vec<&Glowworm> = self
            .glowworms
            .iter()
            .filter(|g| g.fitness.is_finite())
            .collect();
        valid.sort_by(|a, b| {
            b.fitness
                .partial_cmp(&a.fitness)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        valid
    }

    /// Fraction of the swarm that ended on a valid (finite-fitness) candidate — the "84 % of
    /// the particles have converged to regions satisfying the constraint" measure of Fig. 1.
    pub fn valid_fraction(&self) -> f64 {
        if self.glowworms.is_empty() {
            return 0.0;
        }
        self.glowworms
            .iter()
            .filter(|g| g.fitness.is_finite())
            .count() as f64
            / self.glowworms.len() as f64
    }

    /// Greedily clusters the valid glowworms by distance and returns one representative (the
    /// fittest member) per cluster — the distinct local optima the swarm found.
    pub fn cluster_representatives(&self, radius: f64) -> Vec<Glowworm> {
        let mut representatives: Vec<Glowworm> = Vec::new();
        for glowworm in self.valid_glowworms() {
            let close_to_existing = representatives
                .iter()
                .any(|r| euclidean(&r.position, &glowworm.position) <= radius);
            if !close_to_existing {
                representatives.push(glowworm.clone());
            }
        }
        representatives
    }
}

/// The glowworm swarm optimizer.
pub struct GlowwormSwarm {
    params: GsoParams,
}

impl GlowwormSwarm {
    /// Creates an optimizer with the given parameters.
    pub fn new(params: GsoParams) -> Self {
        Self { params }
    }

    /// Runs GSO on the fitness landscape and returns the converged swarm.
    pub fn run<F: FitnessFunction + ?Sized>(&self, fitness: &F) -> GsoResult {
        let params = &self.params;
        let bounds = fitness.bounds();
        let dims = bounds.dimensions();
        let mut rng = StdRng::seed_from_u64(params.seed);

        let diagonal = bounds.diagonal().max(f64::MIN_POSITIVE);
        let max_radius = (params.initial_radius_fraction * diagonal).max(1e-9);
        let step = (params.step_fraction * diagonal).max(1e-9);
        let threads = resolve_threads(params.threads);

        // Random initial positions inside the bounds.
        let mut positions: Vec<Vec<f64>> = (0..params.glowworms)
            .map(|_| {
                (0..dims)
                    .map(|d| rng.random_range(bounds.lower[d]..=bounds.upper[d]))
                    .collect()
            })
            .collect();
        let mut luciferin = vec![params.initial_luciferin; params.glowworms];
        let mut radius = vec![max_radius; params.glowworms];
        let mut current_fitness: Vec<f64> = vec![f64::NEG_INFINITY; params.glowworms];
        // Each glowworm's density weight at its current position, once a movement decision
        // has read it; dropped whenever the glowworm moves.
        let mut density: Vec<Option<f64>> = vec![None; params.glowworms];
        let obs = surf_obs::global();

        let mut mean_fitness_history = Vec::with_capacity(params.iterations);
        let mut fitness_evaluations = 0usize;
        let mut iterations_run = 0usize;
        let mut converged = false;

        for _iteration in 0..params.iterations {
            iterations_run += 1;

            // Phase 1: luciferin update (Eq. 6). The whole swarm is evaluated in one batch
            // through `FitnessFunction::fitness_batch` (contiguous candidate blocks fan out
            // over the thread pool); results come back in glowworm order and candidates are
            // independent, so the run is deterministic for any thread count and for batched
            // and unbatched fitness implementations alike. Invalid candidates (non-finite
            // fitness) receive no enhancement, so their luciferin decays and they stop
            // attracting neighbours.
            let evaluated = evaluate_swarm(fitness, &positions, threads);
            fitness_evaluations += params.glowworms;
            let mut total_change = 0.0;
            for (i, value) in evaluated.into_iter().enumerate() {
                current_fitness[i] = value;
                let enhanced = if value.is_finite() {
                    (1.0 - params.rho) * luciferin[i] + params.gamma * value
                } else {
                    (1.0 - params.rho) * luciferin[i]
                };
                total_change += (enhanced - luciferin[i]).abs();
                luciferin[i] = enhanced;
            }

            let finite: Vec<f64> = current_fitness
                .iter()
                .copied()
                .filter(|f| f.is_finite())
                .collect();
            mean_fitness_history.push(if finite.is_empty() {
                f64::NAN
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            });

            // Phase 2: movement. Each glowworm picks a brighter neighbour within its decision
            // radius with probability proportional to the luciferin difference (Eq. 7),
            // optionally weighted by the KDE mass of the neighbour's region (Eq. 8).
            let snapshot = positions.clone();
            // Candidates first. Neither luciferin nor the snapshot changes while the swarm
            // moves, and a glowworm's radius changes only after its own move, so these are
            // the lists a glowworm-by-glowworm scan would find.
            let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(params.glowworms);
            for i in 0..params.glowworms {
                let mut brighter = Vec::new();
                for j in 0..params.glowworms {
                    if j == i || luciferin[j] <= luciferin[i] {
                        continue;
                    }
                    if euclidean(&snapshot[i], &snapshot[j]) <= radius[i] {
                        brighter.push(j);
                    }
                }
                candidates.push(brighter);
            }
            // Then the weights those lists read and the cache lacks. Every glowworm's slot
            // this iteration is counted as computed, reused or unread.
            if params.use_density_guide {
                let mut read = vec![false; params.glowworms];
                for &j in candidates.iter().flatten() {
                    read[j] = true;
                }
                let missing: Vec<usize> = (0..params.glowworms)
                    .filter(|&j| read[j] && density[j].is_none())
                    .collect();
                let read_count = read.iter().filter(|&&r| r).count();
                obs.optim_density_weights_computed.add(missing.len() as u64);
                obs.optim_density_weights_reused
                    .add((read_count - missing.len()) as u64);
                obs.optim_density_weights_unread
                    .add((params.glowworms - read_count) as u64);
                if !missing.is_empty() {
                    let span = obs.timer();
                    let computed = parallel_map(missing, threads, |&j| {
                        (j, fitness.density_weight(&snapshot[j]).max(0.0))
                    });
                    obs.record(&obs.optim_density_weights, span);
                    for (j, weight) in computed {
                        density[j] = Some(weight);
                    }
                }
            }
            let mut moved = Vec::new();
            for i in 0..params.glowworms {
                let mut neighbor_ids: Vec<usize> = Vec::new();
                let mut weights: Vec<f64> = Vec::new();
                for &j in &candidates[i] {
                    // Without the density guide no weight is ever stored: every one is 1.
                    let weight = (luciferin[j] - luciferin[i]) * density[j].unwrap_or(1.0);
                    if weight > 0.0 {
                        neighbor_ids.push(j);
                        weights.push(weight);
                    }
                }

                if !neighbor_ids.is_empty() {
                    let total: f64 = weights.iter().sum();
                    let mut target = rng.random::<f64>() * total;
                    let mut chosen = neighbor_ids[neighbor_ids.len() - 1];
                    for (j, w) in neighbor_ids.iter().zip(&weights) {
                        if target < *w {
                            chosen = *j;
                            break;
                        }
                        target -= *w;
                    }
                    let distance = euclidean(&snapshot[i], &snapshot[chosen]).max(1e-12);
                    for d in 0..dims {
                        positions[i][d] += step * (snapshot[chosen][d] - snapshot[i][d]) / distance;
                    }
                    bounds.clamp(&mut positions[i]);
                    moved.push(i);
                } else if !current_fitness[i].is_finite() {
                    // A glowworm stuck on an invalid candidate with nobody to follow would
                    // otherwise freeze for the rest of the run. Let it take a small random
                    // exploration step so it can wander back into the feasible part of the
                    // landscape (a standard restart/perturbation device for constrained
                    // swarm optimizers; see the "below"-direction mining workloads where
                    // most of the solution space is infeasible at initialization).
                    for value in positions[i].iter_mut() {
                        *value += step * (rng.random::<f64>() * 2.0 - 1.0);
                    }
                    bounds.clamp(&mut positions[i]);
                    moved.push(i);
                }

                // Decision-radius adaptation toward the desired neighbour count.
                let n_i = neighbor_ids.len() as f64;
                radius[i] = (radius[i] + params.beta * (params.desired_neighbors as f64 - n_i))
                    .clamp(1e-9, max_radius);
            }
            // Every decision above read weights at the snapshot; a glowworm that moved needs
            // a fresh weight the next time one is read.
            for i in moved {
                density[i] = None;
            }

            let mean_change = total_change / params.glowworms as f64;
            // A swarm with no valid member has not converged — its luciferin uniformly
            // decays toward zero (small change) while the random exploration steps are
            // still searching for the feasible set.
            let any_valid = current_fitness.iter().any(|f| f.is_finite());
            if params.convergence_tolerance > 0.0
                && mean_change < params.convergence_tolerance
                && any_valid
            {
                converged = true;
                break;
            }
        }

        // The luciferin phase evaluates fitness *before* the movement phase, so after the
        // last iteration every stored fitness belongs to the previous position. Re-evaluate
        // at the final positions so `Glowworm::fitness` matches `Glowworm::position` — the
        // fittest glowworms ride the constraint boundary, where a stale value routinely
        // flips validity.
        current_fitness = evaluate_swarm(fitness, &positions, threads);
        fitness_evaluations += params.glowworms;
        let glowworms = positions
            .into_iter()
            .zip(current_fitness)
            .zip(luciferin)
            .map(|((position, fitness), luciferin)| Glowworm {
                position,
                fitness,
                luciferin,
            })
            .collect();
        GsoResult {
            glowworms,
            mean_fitness_history,
            iterations_run,
            converged,
            fitness_evaluations,
        }
    }
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::fitness::{MultiPeak, SolutionBounds};

    /// A landscape built from `+ − × /` alone, with no libm call, so its bits and the
    /// trajectory over it are the same on every platform. Two rational bumps, an infeasible
    /// block that strands some glowworms into exploration steps, and a density weight that
    /// favours the top of the square.
    struct Rational;

    impl FitnessFunction for Rational {
        fn bounds(&self) -> SolutionBounds {
            SolutionBounds::unit(2)
        }
        fn fitness(&self, s: &[f64]) -> f64 {
            if s[0] > 0.55 && s[1] < 0.6 {
                return f64::NEG_INFINITY;
            }
            let bump = |cx: f64, cy: f64| {
                let (dx, dy) = (s[0] - cx, s[1] - cy);
                1.0 / (1.0 + 40.0 * (dx * dx + dy * dy))
            };
            bump(0.25, 0.3).max(bump(0.7, 0.75))
        }
        fn density_weight(&self, s: &[f64]) -> f64 {
            0.2 + s[1] * s[1] + 0.5 * s[0] * (1.0 - s[0])
        }
    }

    /// An FNV-1a fold, one 64-bit word at a time, over the bits of every value in a result.
    fn digest(result: &GsoResult) -> u64 {
        let mut words: Vec<u64> = Vec::new();
        for g in &result.glowworms {
            words.extend(g.position.iter().map(|v| v.to_bits()));
            words.extend([g.fitness.to_bits(), g.luciferin.to_bits()]);
        }
        words.extend(result.mean_fitness_history.iter().map(|v| v.to_bits()));
        words.extend([
            result.iterations_run as u64,
            u64::from(result.converged),
            result.fitness_evaluations as u64,
        ]);
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, word| {
            (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn trajectory_bits_match_the_every_glowworm_weight_pass() {
        // Recorded from a GSO that computed every glowworm's density weight on every
        // iteration: demand-driven weights must leave every bit of the result unchanged.
        let pinned = [
            (GsoParams::quick().with_seed(13), 0x0c79_bca6_441e_5408_u64),
            (GsoParams::default().with_seed(13), 0xd300_626c_5ebe_87f5),
        ];
        for (params, expected) in pinned {
            for threads in [1, 2] {
                let result =
                    GlowwormSwarm::new(params.clone().with_threads(threads)).run(&Rational);
                assert_eq!(
                    digest(&result),
                    expected,
                    "{} glowworms, {threads} threads",
                    params.glowworms
                );
            }
        }
    }

    #[test]
    fn an_infeasible_swarm_computes_no_density_weight() {
        /// Never valid, so every luciferin level decays in lockstep and no glowworm ever
        /// has a brighter neighbour whose weight a movement decision could read.
        struct Infeasible(AtomicUsize);
        impl FitnessFunction for Infeasible {
            fn bounds(&self) -> SolutionBounds {
                SolutionBounds::unit(2)
            }
            fn fitness(&self, _: &[f64]) -> f64 {
                f64::NEG_INFINITY
            }
            fn density_weight(&self, _: &[f64]) -> f64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                1.0
            }
        }
        let landscape = Infeasible(AtomicUsize::new(0));
        let result = GlowwormSwarm::new(GsoParams::quick().with_seed(4)).run(&landscape);
        assert_eq!(result.iterations_run, 40);
        assert_eq!(landscape.0.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn swarm_finds_both_peaks_of_a_bimodal_landscape() {
        let landscape = MultiPeak::two_peaks();
        let params = GsoParams::default().with_seed(3).with_iterations(120);
        let result = GlowwormSwarm::new(params).run(&landscape);
        let representatives = result.cluster_representatives(0.2);
        // At least two distinct clusters, one near each peak.
        assert!(
            representatives.len() >= 2,
            "found {} clusters",
            representatives.len()
        );
        let near = |target: &[f64]| {
            representatives
                .iter()
                .any(|r| euclidean(&r.position, target) < 0.15)
        };
        assert!(near(&[0.25, 0.25]), "missing peak at (0.25, 0.25)");
        assert!(near(&[0.75, 0.75]), "missing peak at (0.75, 0.75)");
    }

    #[test]
    fn mean_fitness_improves_over_iterations() {
        let landscape = MultiPeak::two_peaks();
        let result = GlowwormSwarm::new(GsoParams::quick().with_seed(1)).run(&landscape);
        let history = &result.mean_fitness_history;
        assert!(!history.is_empty());
        let first = history[0];
        let last = history[history.len() - 1];
        assert!(last >= first, "mean fitness decreased: {first} -> {last}");
        assert!(result.fitness_evaluations >= result.iterations_run * 40);
    }

    #[test]
    fn result_is_deterministic_given_seed() {
        let landscape = MultiPeak::two_peaks();
        let a = GlowwormSwarm::new(GsoParams::quick().with_seed(7)).run(&landscape);
        let b = GlowwormSwarm::new(GsoParams::quick().with_seed(7)).run(&landscape);
        assert_eq!(a.glowworms, b.glowworms);
        let c = GlowwormSwarm::new(GsoParams::quick().with_seed(8)).run(&landscape);
        assert_ne!(a.glowworms, c.glowworms);
    }

    #[test]
    fn trajectory_is_identical_for_every_thread_count() {
        let landscapes: [&dyn FitnessFunction; 2] = [&MultiPeak::two_peaks(), &Rational];
        for landscape in landscapes {
            let run = |threads| {
                GlowwormSwarm::new(GsoParams::quick().with_seed(7).with_threads(threads))
                    .run(landscape)
            };
            let (serial, parallel, auto) = (run(1), run(4), run(0));
            assert_eq!(serial.glowworms, parallel.glowworms);
            assert_eq!(serial.glowworms, auto.glowworms);
            // Bitwise: the history holds NaN while no glowworm is valid.
            let bits = |r: &GsoResult| -> Vec<u64> {
                r.mean_fitness_history.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&serial), bits(&parallel));
        }
    }

    #[test]
    fn invalid_regions_yield_partial_valid_fraction() {
        /// Fitness valid only in the left half of the square.
        struct HalfValid;
        impl FitnessFunction for HalfValid {
            fn bounds(&self) -> SolutionBounds {
                SolutionBounds::unit(2)
            }
            fn fitness(&self, s: &[f64]) -> f64 {
                if s[0] < 0.5 {
                    1.0 - (s[0] - 0.25).abs()
                } else {
                    f64::NEG_INFINITY
                }
            }
        }
        let result = GlowwormSwarm::new(GsoParams::quick().with_seed(2)).run(&HalfValid);
        // Some glowworms start in the invalid half; lonely invalid ones take random
        // exploration steps, so a healthy share of the swarm ends valid and valid_glowworms
        // only returns the valid ones.
        let fraction = result.valid_fraction();
        assert!(fraction > 0.2 && fraction <= 1.0, "fraction {fraction}");
        assert!(result
            .valid_glowworms()
            .iter()
            .all(|g| g.fitness.is_finite()));
    }

    #[test]
    fn dimension_adaptive_parameters_scale_with_dimensionality() {
        let low = GsoParams::dimension_adaptive(2);
        let high = GsoParams::dimension_adaptive(10);
        assert_eq!(low.glowworms, 100);
        assert_eq!(high.glowworms, 500);
        assert!(high.initial_radius_fraction >= low.initial_radius_fraction);
    }

    #[test]
    fn convergence_flag_and_iteration_budget() {
        let landscape = MultiPeak::two_peaks();
        let params = GsoParams::quick().with_iterations(300).with_seed(5);
        let result = GlowwormSwarm::new(params).run(&landscape);
        assert!(result.iterations_run <= 300);
        // With a tolerance set, long runs should converge before the budget.
        if result.converged {
            assert!(result.iterations_run < 300);
        }
    }

    #[test]
    fn density_guide_toggle_changes_the_trajectory() {
        /// A landscape with a density weight that strongly prefers the second peak.
        struct Weighted(MultiPeak);
        impl FitnessFunction for Weighted {
            fn bounds(&self) -> SolutionBounds {
                self.0.bounds()
            }
            fn fitness(&self, s: &[f64]) -> f64 {
                self.0.fitness(s)
            }
            fn density_weight(&self, s: &[f64]) -> f64 {
                if s[0] > 0.5 {
                    10.0
                } else {
                    0.1
                }
            }
        }
        let landscape = Weighted(MultiPeak::two_peaks());
        let with_guide = GlowwormSwarm::new(GsoParams::quick().with_seed(11)).run(&landscape);
        let without_guide =
            GlowwormSwarm::new(GsoParams::quick().with_seed(11).with_density_guide(false))
                .run(&landscape);
        assert_ne!(with_guide.glowworms, without_guide.glowworms);
    }

    #[test]
    fn cluster_representatives_deduplicate_nearby_solutions() {
        let glowworms = vec![
            Glowworm {
                position: vec![0.2, 0.2],
                fitness: 1.0,
                luciferin: 1.0,
            },
            Glowworm {
                position: vec![0.21, 0.2],
                fitness: 0.9,
                luciferin: 1.0,
            },
            Glowworm {
                position: vec![0.8, 0.8],
                fitness: 0.8,
                luciferin: 1.0,
            },
        ];
        let result = GsoResult {
            glowworms,
            mean_fitness_history: vec![],
            iterations_run: 0,
            converged: false,
            fitness_evaluations: 0,
        };
        let reps = result.cluster_representatives(0.1);
        assert_eq!(reps.len(), 2);
        assert!((reps[0].fitness - 1.0).abs() < 1e-12);
    }
}
