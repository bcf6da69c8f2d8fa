//! # surf-bench
//!
//! Experiment harness regenerating every table and figure of the SuRF paper's evaluation
//! (Section V). Each `src/bin/*` binary reproduces one figure/table: it prints the rows or
//! series the paper reports and writes a JSON artifact under `target/experiments/`. The
//! `bench_*` binaries time the layers underneath (region evaluation, GBRT training and
//! inference, serving) and write `BENCH_*.json` trajectory artifacts in the working
//! directory.
//!
//! Every binary accepts `--quick` for a reduced sweep and `--full` for the paper-scale sweep;
//! the default sits in between so the whole suite finishes in minutes on a laptop.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod report;

/// Which sweep size an experiment binary should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sweep used by CI smoke runs (`--quick`).
    Quick,
    /// The default sweep: same structure as the paper, reduced sizes.
    Default,
    /// Paper-scale sweep (`--full`); can take a long time.
    Full,
}

impl Scale {
    /// Parses the scale from the process arguments.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Default
        }
    }

    /// Picks one of three values according to the scale.
    pub fn pick<T>(&self, quick: T, default: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick_selects_by_variant() {
        assert_eq!(Scale::Quick.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn scale_from_args_defaults_to_default() {
        // The test binary is not passed --quick/--full.
        assert_eq!(Scale::from_args(), Scale::Default);
    }
}
