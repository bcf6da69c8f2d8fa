//! # surf-bench
//!
//! Experiment harness regenerating every table and figure of the SuRF paper's evaluation
//! (Section V). Each `src/bin/*` binary reproduces one figure/table: it prints the rows or
//! series the paper reports and writes a JSON artifact under `target/experiments/`. The
//! `bench_*` binaries time the layers underneath (region evaluation, GBRT training and
//! inference, serving) and write `BENCH_*.json` trajectory artifacts in the working
//! directory.
//!
//! Every binary accepts `--quick` for a reduced sweep or `--full` for the paper-scale sweep
//! and refuses any other argument; the default sits in between so the whole suite finishes
//! in minutes on a laptop.
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
    /// Parses the scale from the process arguments ([`Scale::parse`]); on an error, prints
    /// it with the usage line and exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|message| {
            eprintln!("error: {message}\nusage: [--quick | --full]");
            std::process::exit(2)
        })
    }

    /// Parses an experiment binary's arguments (program name excluded): none for the
    /// default sweep, or exactly one of `--quick` / `--full`. Any other argument, a repeated
    /// flag or both flags together is an error.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        match args {
            [] => Ok(Scale::Default),
            [flag] if flag == "--quick" => Ok(Scale::Quick),
            [flag] if flag == "--full" => Ok(Scale::Full),
            [flag] => Err(format!("unknown argument `{flag}`")),
            _ => Err(format!(
                "expected one of --quick / --full, got `{}`",
                args.join(" ")
            )),
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

    fn parse(line: &str) -> Result<Scale, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Scale::parse(&args)
    }

    #[test]
    fn scale_from_args_defaults_to_default() {
        assert_eq!(parse(""), Ok(Scale::Default));
        assert_eq!(parse("--quick"), Ok(Scale::Quick));
        assert_eq!(parse("--full"), Ok(Scale::Full));
    }

    #[test]
    fn scale_parse_rejects_anything_but_one_scale_flag() {
        for line in "quick,--threads,--quick --full,--full --full,--quick x".split(',') {
            assert!(parse(line).is_err(), "{line}");
        }
        assert_eq!(parse("--fast"), Err("unknown argument `--fast`".into()));
    }
}
