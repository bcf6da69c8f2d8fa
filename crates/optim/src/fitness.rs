//! The fitness abstraction shared by the swarm optimizers.
//!
//! A candidate solution is a point of a box-bounded real vector space (for SuRF: the
//! `2d`-dimensional region representation `[x, l]`). The optimizers only need to evaluate a
//! fitness value — and, optionally, a non-negative *density weight* used by the KDE-guided
//! movement rule of Eq. 8 — so any objective can be plugged in.

/// Axis-aligned bounds of the solution space.
#[derive(Debug, Clone, PartialEq)]
pub struct SolutionBounds {
    /// Per-variable lower bounds.
    pub lower: Vec<f64>,
    /// Per-variable upper bounds.
    pub upper: Vec<f64>,
}

impl SolutionBounds {
    /// Creates bounds, panicking (debug assert) if the two vectors disagree in length.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        debug_assert_eq!(lower.len(), upper.len());
        Self { lower, upper }
    }

    /// The unit hyper-cube `[0, 1]^n`.
    pub fn unit(dimensions: usize) -> Self {
        Self {
            lower: vec![0.0; dimensions],
            upper: vec![1.0; dimensions],
        }
    }

    /// Dimensionality of the solution space.
    pub fn dimensions(&self) -> usize {
        self.lower.len()
    }

    /// Clamps a candidate in place to the bounds.
    pub fn clamp(&self, solution: &mut [f64]) {
        for ((value, lo), hi) in solution.iter_mut().zip(&self.lower).zip(&self.upper) {
            if !value.is_finite() {
                *value = *lo;
            } else {
                *value = value.clamp(*lo, *hi);
            }
        }
    }

    /// Side length of each variable's interval.
    pub fn extents(&self) -> Vec<f64> {
        self.lower
            .iter()
            .zip(&self.upper)
            .map(|(lo, hi)| hi - lo)
            .collect()
    }

    /// Length of the main diagonal of the bounded box (used to size neighbourhood radii).
    pub fn diagonal(&self) -> f64 {
        self.extents().iter().map(|e| e * e).sum::<f64>().sqrt()
    }
}

/// A fitness landscape over a box-bounded solution space. Implementations must be `Sync` so
/// optimizers may evaluate candidates from multiple threads.
pub trait FitnessFunction: Sync {
    /// Bounds of the solution space.
    fn bounds(&self) -> SolutionBounds;

    /// Fitness of a candidate. Higher is better. `NaN` or `-inf` mark invalid candidates
    /// (e.g. regions violating the threshold constraint under the log objective of Eq. 4).
    fn fitness(&self, solution: &[f64]) -> f64;

    /// Fitness of a whole batch of candidates, stored row-major in `solutions` (`dim > 0`
    /// values per candidate), written one value per candidate into `out` (callers guarantee
    /// `solutions.len() == dim * out.len()`).
    ///
    /// The default delegates to [`FitnessFunction::fitness`] candidate by candidate.
    /// Landscapes backed by a batch predictor — SuRF's surrogate fitness evaluates the whole
    /// swarm through a compiled GBRT ensemble — override it for throughput. Overrides
    /// **must** produce exactly the value `fitness` would for every candidate (the swarm
    /// optimizers' batch- and thread-invariance guarantees rely on it).
    fn fitness_batch(&self, solutions: &[f64], dim: usize, out: &mut [f64]) {
        for (candidate, slot) in solutions.chunks(dim).zip(out.iter_mut()) {
            *slot = self.fitness(candidate);
        }
    }

    /// Non-negative weight proportional to the data density around the candidate, used by the
    /// KDE-guided movement rule (Eq. 8). The default of 1 disables the guidance.
    ///
    /// Implementations **must** be a pure function of `solution`: GSO calls it only for
    /// candidates a movement decision reads, and reuses a result until the candidate moves,
    /// so it may skip a call or read an earlier result in place of a new one.
    fn density_weight(&self, _solution: &[f64]) -> f64 {
        1.0
    }

    /// Dimensionality of the solution space (defaults to the bounds' dimensionality).
    fn dimensions(&self) -> usize {
        self.bounds().dimensions()
    }
}

/// Evaluates every position through [`FitnessFunction::fitness_batch`], fanning contiguous
/// candidate blocks out over up to `threads` OS threads. This is GSO's per-iteration swarm
/// evaluation primitive: positions are flattened once into a row-major buffer, so a
/// batch-capable fitness sees the whole swarm (or a thread's share of it) in a single call.
/// Candidates are independent, so the result is identical for every thread count and
/// identical to calling [`FitnessFunction::fitness`] per candidate.
pub fn evaluate_swarm<F: FitnessFunction + ?Sized>(
    fitness: &F,
    positions: &[Vec<f64>],
    threads: usize,
) -> Vec<f64> {
    let n = positions.len();
    if n == 0 {
        return Vec::new();
    }
    // One coarse span per whole-swarm evaluation (the mining hot loop's unit of work);
    // a disabled global recorder costs one relaxed load here.
    let obs = surf_obs::global();
    let span = obs.timer();
    let dim = positions[0].len();
    if dim == 0 {
        return positions.iter().map(|p| fitness.fitness(p)).collect();
    }
    debug_assert!(positions.iter().all(|p| p.len() == dim));
    let mut flat = Vec::with_capacity(n * dim);
    for position in positions {
        flat.extend_from_slice(position);
    }
    let mut out = vec![0.0; n];
    let threads = threads.max(1);
    if threads == 1 || n == 1 {
        fitness.fitness_batch(&flat, dim, &mut out);
        obs.record(&obs.optim_swarm_fitness, span);
        return out;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (candidates, slots) in flat.chunks(chunk * dim).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || fitness.fitness_batch(candidates, dim, slots));
        }
    });
    obs.record(&obs.optim_swarm_fitness, span);
    out
}

/// A fitness landscape with `k` Gaussian peaks on the unit square — a small multimodal
/// benchmark used by the optimizer unit tests and the convergence experiments.
#[derive(Debug, Clone)]
pub struct MultiPeak {
    /// Peak centres.
    pub centers: Vec<Vec<f64>>,
    /// Peak width (standard deviation of each Gaussian bump).
    pub width: f64,
    /// Dimensionality of the space.
    pub dimensions: usize,
}

impl MultiPeak {
    /// Standard two-peak landscape on `[0, 1]^2`.
    pub fn two_peaks() -> Self {
        Self {
            centers: vec![vec![0.25, 0.25], vec![0.75, 0.75]],
            width: 0.1,
            dimensions: 2,
        }
    }

    /// `k` peaks spread along the main diagonal of `[0, 1]^dims`.
    pub fn diagonal_peaks(k: usize, dims: usize) -> Self {
        let centers = (0..k)
            .map(|i| vec![(i as f64 + 1.0) / (k as f64 + 1.0); dims])
            .collect();
        Self {
            centers,
            width: 0.08,
            dimensions: dims,
        }
    }
}

impl FitnessFunction for MultiPeak {
    fn bounds(&self) -> SolutionBounds {
        SolutionBounds::unit(self.dimensions)
    }

    fn fitness(&self, solution: &[f64]) -> f64 {
        self.centers
            .iter()
            .map(|c| {
                let d2: f64 = c
                    .iter()
                    .zip(solution)
                    .map(|(ci, si)| (ci - si).powi(2))
                    .sum();
                (-d2 / (2.0 * self.width * self.width)).exp()
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_clamp_and_extents() {
        let bounds = SolutionBounds::new(vec![0.0, -1.0], vec![1.0, 1.0]);
        let mut candidate = vec![1.5, f64::NAN];
        bounds.clamp(&mut candidate);
        assert_eq!(candidate, vec![1.0, -1.0]);
        assert_eq!(bounds.extents(), vec![1.0, 2.0]);
        assert!((bounds.diagonal() - (5.0_f64).sqrt()).abs() < 1e-12);
        assert_eq!(bounds.dimensions(), 2);
    }

    #[test]
    fn unit_bounds() {
        let bounds = SolutionBounds::unit(3);
        assert_eq!(bounds.lower, vec![0.0; 3]);
        assert_eq!(bounds.upper, vec![1.0; 3]);
    }

    #[test]
    fn multi_peak_is_highest_at_its_centres() {
        let peaks = MultiPeak::two_peaks();
        let at_center = peaks.fitness(&[0.25, 0.25]);
        let off_center = peaks.fitness(&[0.5, 0.1]);
        assert!((at_center - 1.0).abs() < 1e-9);
        assert!(off_center < at_center);
        assert_eq!(peaks.dimensions(), 2);
        assert_eq!(peaks.density_weight(&[0.5, 0.5]), 1.0);
    }

    #[test]
    fn diagonal_peaks_builds_k_centres() {
        let peaks = MultiPeak::diagonal_peaks(3, 4);
        assert_eq!(peaks.centers.len(), 3);
        assert!(peaks.centers.iter().all(|c| c.len() == 4));
        // Peaks are inside the unit cube.
        assert!(peaks.centers.iter().flatten().all(|&v| v > 0.0 && v < 1.0));
    }
}
