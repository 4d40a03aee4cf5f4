//! Shared harness utilities for the per-figure/per-table benchmark
//! binaries (see `src/bin/`).
//!
//! Every binary accepts the same flags:
//!
//! * `--scale <f>`   — workload scale factor (default varies per harness;
//!   `1.0` = the paper's full size where feasible),
//! * `--paper`       — shorthand for the paper's full-size sweep,
//! * `--threads <t>` — worker threads (default: all available),
//! * `--iters <k>`   — iterations per fit (default 3 for timing harnesses),
//! * `--seed <s>`    — RNG seed (default 0),
//! * `--budget-gb <g>` — intermediate-data budget in GiB (default 4).
//!
//! Output is a plain-text table with the same rows/series as the paper's
//! figure, plus `O.O.M.` markers where a method exceeds the budget —
//! exactly how the paper reports them.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

use ptucker::{FitOptions, FitResult, MemoryBudget, PTucker, PtuckerError, Schedule, Variant};
use ptucker_baselines::{s_hot, tucker_csf, tucker_wopt, BaselineOptions};
use ptucker_tensor::SparseTensor;

/// Common command-line options for the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Workload scale in `(0, 1]`.
    pub scale: f64,
    /// Worker threads.
    pub threads: usize,
    /// Iterations per fit.
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
    /// Intermediate-data budget.
    pub budget: MemoryBudget,
    /// True when `--paper` was passed (full-size sweeps).
    pub paper: bool,
}

impl HarnessArgs {
    /// Parses `std::env::args`, with `default_scale` as the harness's
    /// laptop-scale default. Unknown flags abort with a usage message.
    pub fn parse(default_scale: f64) -> Self {
        let mut out = HarnessArgs {
            scale: default_scale,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            iters: 3,
            seed: 0,
            budget: MemoryBudget::new(4 << 30),
            paper: false,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        let usage = || -> ! {
            eprintln!(
                "usage: [--scale f] [--paper] [--threads t] [--iters k] [--seed s] [--budget-gb g]"
            );
            std::process::exit(2);
        };
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    i += 1;
                    out.scale = argv
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage());
                }
                "--paper" => {
                    out.paper = true;
                    out.scale = 1.0;
                }
                "--threads" => {
                    i += 1;
                    out.threads = argv
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage());
                }
                "--iters" => {
                    i += 1;
                    out.iters = argv
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage());
                }
                "--seed" => {
                    i += 1;
                    out.seed = argv
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage());
                }
                "--budget-gb" => {
                    i += 1;
                    let gb: f64 = argv
                        .get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage());
                    out.budget = MemoryBudget::new((gb * (1u64 << 30) as f64) as usize);
                }
                _ => usage(),
            }
            i += 1;
        }
        out
    }
}

/// The algorithms a harness can run, in the paper's naming.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Method {
    /// P-Tucker (memory-optimized default).
    PTucker,
    /// P-Tucker-Cache.
    PTuckerCache,
    /// P-Tucker-Approx with the given truncation rate.
    PTuckerApprox(f64),
    /// Tucker-wOpt (accuracy-focused dense NCG).
    TuckerWopt,
    /// Tucker-CSF (compressed sparse fiber TTMc).
    TuckerCsf,
    /// S-HOT (on-the-fly TTMc).
    SHot,
}

impl Method {
    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::PTucker => "P-Tucker",
            Method::PTuckerCache => "P-Tucker-Cache",
            Method::PTuckerApprox(_) => "P-Tucker-Approx",
            Method::TuckerWopt => "Tucker-wOpt",
            Method::TuckerCsf => "Tucker-CSF",
            Method::SHot => "S-HOT",
        }
    }

    /// The four-method lineup of the scalability figures.
    pub fn figure6_lineup() -> [Method; 4] {
        [
            Method::PTucker,
            Method::TuckerWopt,
            Method::TuckerCsf,
            Method::SHot,
        ]
    }
}

/// Outcome of running one method on one workload.
#[derive(Debug)]
pub enum Outcome {
    /// Completed: the full fit result.
    Ok(Box<FitResult>),
    /// The method exceeded the intermediate-data budget.
    Oom,
    /// Any other failure (reported verbatim).
    Failed(String),
}

impl Outcome {
    /// Average seconds per iteration, if the run completed.
    pub fn time_per_iter(&self) -> Option<f64> {
        match self {
            Outcome::Ok(r) => Some(r.stats.avg_seconds_per_iter()),
            _ => None,
        }
    }

    /// Formats time/iter the way the figures report it (`O.O.M.` marker).
    pub fn time_cell(&self) -> String {
        match self {
            Outcome::Ok(r) => format!("{:>12.4}", r.stats.avg_seconds_per_iter()),
            Outcome::Oom => format!("{:>12}", "O.O.M."),
            Outcome::Failed(_) => format!("{:>12}", "FAIL"),
        }
    }

    /// Formats an arbitrary fit-derived quantity or the failure marker.
    pub fn cell(&self, f: impl Fn(&FitResult) -> String) -> String {
        match self {
            Outcome::Ok(r) => f(r),
            Outcome::Oom => format!("{:>12}", "O.O.M."),
            Outcome::Failed(_) => format!("{:>12}", "FAIL"),
        }
    }
}

/// Runs one method on one tensor with uniform settings; OOM and other
/// errors are folded into the [`Outcome`] rather than propagating, because
/// the figures *report* OOM as a data point.
pub fn run_method(
    method: Method,
    x: &SparseTensor,
    ranks: &[usize],
    args: &HarnessArgs,
) -> Outcome {
    let r: ptucker::Result<FitResult> = match method {
        Method::PTucker | Method::PTuckerCache | Method::PTuckerApprox(_) => {
            let variant = match method {
                Method::PTuckerCache => Variant::Cache,
                Method::PTuckerApprox(p) => Variant::Approx { truncation_rate: p },
                _ => Variant::Default,
            };
            PTucker::new(
                FitOptions::new(ranks.to_vec())
                    .max_iters(args.iters)
                    .tol(0.0)
                    .threads(args.threads)
                    .seed(args.seed)
                    .budget(args.budget.clone())
                    .schedule(Schedule::dynamic())
                    .variant(variant),
            )
            .and_then(|s| s.fit(x))
        }
        Method::TuckerWopt | Method::TuckerCsf | Method::SHot => {
            let opts = BaselineOptions::new(ranks.to_vec())
                .max_iters(args.iters)
                .tol(0.0)
                .threads(args.threads)
                .seed(args.seed)
                .budget(args.budget.clone());
            match method {
                Method::TuckerWopt => tucker_wopt(x, &opts),
                Method::TuckerCsf => tucker_csf(x, &opts),
                _ => s_hot(x, &opts),
            }
        }
    };
    match r {
        Ok(fit) => Outcome::Ok(Box::new(fit)),
        Err(PtuckerError::OutOfMemory(_)) => Outcome::Oom,
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Prints a header line followed by a separator, for the plain-text tables.
pub fn print_header(title: &str, columns: &str) {
    println!("\n=== {title} ===");
    println!("{columns}");
    println!("{}", "-".repeat(columns.len().max(20)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn run_method_all_variants_smoke() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = ptucker_datagen::uniform_sparse(&[12, 10, 8], 80, &mut rng);
        let args = HarnessArgs {
            scale: 1.0,
            threads: 2,
            iters: 2,
            seed: 0,
            budget: MemoryBudget::unlimited(),
            paper: false,
        };
        for m in [
            Method::PTucker,
            Method::PTuckerCache,
            Method::PTuckerApprox(0.2),
            Method::TuckerWopt,
            Method::TuckerCsf,
            Method::SHot,
        ] {
            let out = run_method(m, &x, &[2, 2, 2], &args);
            assert!(
                matches!(out, Outcome::Ok(_)),
                "{} failed: {out:?}",
                m.name()
            );
            assert!(out.time_per_iter().unwrap() >= 0.0);
        }
    }

    #[test]
    fn oom_becomes_outcome_not_error() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = ptucker_datagen::uniform_sparse(&[12, 10, 8], 80, &mut rng);
        let args = HarnessArgs {
            scale: 1.0,
            threads: 1,
            iters: 1,
            seed: 0,
            budget: MemoryBudget::new(256),
            paper: false,
        };
        let out = run_method(Method::TuckerWopt, &x, &[2, 2, 2], &args);
        assert!(matches!(out, Outcome::Oom));
        assert_eq!(out.time_cell().trim(), "O.O.M.");
        // P-Tucker-Cache is resident-only: on the harness's default Spill
        // policy its |Ω|·|G| table is Table III's O.O.M. too, while the
        // Direct fit spills its plan and completes.
        assert_eq!(args.budget.policy(), ptucker::BudgetPolicy::Spill);
        let out = run_method(Method::PTuckerCache, &x, &[2, 2, 2], &args);
        assert!(matches!(out, Outcome::Oom), "{out:?}");
        let out = run_method(Method::PTucker, &x, &[2, 2, 2], &args);
        assert!(matches!(out, Outcome::Ok(_)), "{out:?}");
    }
}
