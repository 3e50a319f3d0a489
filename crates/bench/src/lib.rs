//! Experiment harness for the MixQ-GNN reproduction: shared runners, a
//! table printer, and one binary per paper table/figure (see `src/bin/`).

pub mod graph_runner;
pub mod runner;
pub mod sweep;
pub mod table;
pub mod timing;

pub use graph_runner::{run_graph_cv, CvOutcome, GraphArch, GraphExp, GraphMethod};
pub use runner::{
    run_a2q, run_fp32, run_mixq, run_quantized, run_random, CellResult, NodeArch, NodeExp,
};
pub use sweep::{gcn_bit_sweep, pareto_front, SweepPoint};
pub use table::{bits, frac, gbops, pct, Table};
pub use timing::{
    bench, median_and_range, median_ns_per_iter, merge_passes, write_json, BenchRecord, Spread,
};

/// Parses `--runs N` and `--quick` style flags shared by all binaries.
pub struct Args {
    pub runs: Option<usize>,
    pub quick: bool,
}

impl Args {
    /// Parses the process arguments (`--runs` must be at least 1). A bad
    /// argument prints a one-line usage error and exits with code 2.
    pub fn parse() -> Self {
        Self::parse_min_runs(1)
    }

    /// As [`Args::parse`], for the k-fold binaries whose `--runs` is the
    /// fold count (at least 2).
    pub fn parse_folds() -> Self {
        Self::parse_min_runs(2)
    }

    fn parse_min_runs(min_runs: usize) -> Self {
        let mut argv = std::env::args();
        let prog = argv.next().unwrap_or_default();
        let rest: Vec<String> = argv.collect();
        Self::from_args(&rest, min_runs).unwrap_or_else(|e| {
            eprintln!("{prog}: {e} (usage: {prog} [--quick] [--runs N])");
            std::process::exit(2)
        })
    }

    fn from_args(argv: &[String], min_runs: usize) -> Result<Self, String> {
        let mut runs = None;
        let mut quick = false;
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--runs" => {
                    let n: usize = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--runs needs an integer")?;
                    if n < min_runs {
                        return Err(format!("--runs must be at least {min_runs}, got {n}"));
                    }
                    runs = Some(n);
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Self { runs, quick })
    }

    pub fn runs_or(&self, default: usize) -> usize {
        self.runs.unwrap_or(if self.quick { 2 } else { default })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_or_prefers_explicit_then_quick_then_default() {
        let explicit = Args {
            runs: Some(7),
            quick: true,
        };
        assert_eq!(explicit.runs_or(5), 7, "--runs wins over --quick");
        let quick = Args {
            runs: None,
            quick: true,
        };
        assert_eq!(quick.runs_or(5), 2);
        let default = Args {
            runs: None,
            quick: false,
        };
        assert_eq!(default.runs_or(5), 5);
    }

    #[test]
    fn runs_below_the_minimum_are_usage_errors() {
        let parse = |args: &[&str], min| {
            let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            Args::from_args(&argv, min).map(|a| (a.runs, a.quick))
        };
        assert_eq!(parse(&["--quick", "--runs", "1"], 1), Ok((Some(1), true)));
        assert_eq!(parse(&["--runs", "2"], 2), Ok((Some(2), false)));
        assert!(parse(&["--runs", "0"], 1)
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["--runs", "1"], 2)
            .unwrap_err()
            .contains("at least 2"));
        assert!(parse(&["--runs"], 1).is_err());
        assert!(parse(&["--runs", "x"], 1).is_err());
        assert!(parse(&["--fast"], 1).is_err());
    }
}
