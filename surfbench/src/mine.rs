//! The offline mining phase: closed loop, one caller. Refits the workload's density engine
//! and mines a seeded schedule of thresholds on it, in rounds.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use surf_core::finder::MiningOutcome;
use surf_core::objective::Threshold;
use surf_core::{Surf, SurfState, Surrogate};

use crate::inputs;
use crate::replay::{self, Counters, Engine};
use crate::trace::Tracer;

/// Rounds every run completes, however long they take: their mining calls are the ones
/// quality is scored on, so quality repeats exactly for a seed.
pub const QUALITY_ROUNDS: usize = 3;
/// Thresholds of the schedule this phase cycles through, one per round.
pub const SCHEDULE: usize = 8;
/// Fits per round, each on a freshly generated dataset.
const FITS_PER_ROUND: usize = 2;

/// Checks one outcome: every region must satisfy its threshold under the surrogate that
/// scored it, at exactly the value reported. Describes the first violation.
pub fn check_regions(surf: &Surf, threshold: Threshold, outcome: &MiningOutcome) -> Option<String> {
    outcome.regions.iter().find_map(|mined| {
        let value = surf.surrogate().predict(&mined.region);
        (value.to_bits() != mined.predicted_value.to_bits() || !threshold.satisfied(value)).then(
            || {
                format!(
                    "a region mined at threshold {} scores {value} under the surrogate (reported {})",
                    threshold.value, mined.predicted_value
                )
            },
        )
    })
}

/// What the phase measured.
#[derive(Default)]
pub struct MinePhase {
    pub fit_s: Vec<f64>,
    pub mine_s: Vec<f64>,
    /// The first outcome and wall time per threshold (by its bits).
    pub first: HashMap<u64, (MiningOutcome, f64)>,
    /// The calls of the quality rounds: (threshold, outcome).
    pub quality: Vec<(f64, MiningOutcome)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub replay_mismatches: u64,
    pub rounds: usize,
    pub seconds: f64,
}

/// Runs rounds until `window` has passed and the quality rounds are done. With a tracer,
/// fits and mining calls are the traced replays instead of the real calls.
pub fn run(
    seed: u64,
    d: usize,
    engine: &Engine,
    expected: &SurfState,
    window: Duration,
    traced: Option<(&Tracer, &Counters)>,
) -> MinePhase {
    let config = inputs::config(seed);
    let schedule = inputs::thresholds(seed, SCHEDULE);
    let mut phase = MinePhase::default();
    let start = Instant::now();
    while phase.rounds < QUALITY_ROUNDS || start.elapsed() < window {
        // Every fit gets a freshly generated dataset, so each pays its own index build.
        for _ in 0..FITS_PER_ROUND {
            let fresh = inputs::dataset(seed, d);
            let began = Instant::now();
            let state = match traced {
                Some((tracer, counters)) => replay::fit(&fresh.dataset, &config, tracer, counters),
                None => Surf::fit(&fresh.dataset, &config)
                    .map(|surf| surf.export_state())
                    .map_err(|e| e.to_string()),
            };
            phase.fit_s.push(began.elapsed().as_secs_f64());
            phase.attempted += 1;
            match state {
                Ok(state) if replay::same_state(&state, expected) => {}
                Ok(_) if traced.is_some() => phase.replay_mismatches += 1,
                Ok(_) => phase
                    .failures
                    .push("a refit differs from the first fit".to_string()),
                Err(e) => phase.failures.push(format!("fit failed: {e}")),
            }
        }

        let value = schedule[phase.rounds % SCHEDULE];
        let threshold = Threshold::above(value);
        let began = Instant::now();
        let outcome = match traced {
            Some((tracer, counters)) => replay::mine(engine, threshold, tracer, counters),
            None => engine.surf.mine_with(threshold),
        };
        let wall = began.elapsed().as_secs_f64();
        phase.attempted += 1;
        phase.mine_s.push(wall);
        if let Some(problem) = check_regions(&engine.surf, threshold, &outcome) {
            phase.failures.push(problem);
        }
        match phase.first.get(&value.to_bits()) {
            Some((earlier, _)) if !replay::same_outcome(earlier, &outcome) => phase.failures.push(
                format!("a repeated call at threshold {value} mined differently"),
            ),
            Some(_) => {}
            None => {
                phase.first.insert(value.to_bits(), (outcome.clone(), wall));
            }
        }
        if phase.rounds < QUALITY_ROUNDS {
            phase.quality.push((value, outcome));
        }
        phase.rounds += 1;
    }
    phase.seconds = start.elapsed().as_secs_f64();
    phase
}
