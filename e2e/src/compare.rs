//! `e2e compare A.json B.json`: applies each end-to-end metric's bound to
//! two sets of runs and prints one row per workload × metric.

use crate::json::Json;
use crate::report::{self, format_value, Better, MetricDef};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The runs of one side disagree by more than the bound: the pair can
    /// neither clear nor convict the change.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against baseline `a` for one metric. The ratio's base is
/// `a`'s median. A spread (interquartile distance over the median, the
/// wider side's) beyond the bound makes the row unresolved — unless every
/// run of `b` reads better than every run of `a`.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let bound = def.bound.unwrap_or(0.0);
    let (med_a, med_b) = (median(a), median(b));
    let better_by = match def.better {
        Better::Lower => (med_a - med_b) / med_a.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (med_b - med_a) / med_a.abs().max(f64::MIN_POSITIVE),
    };
    let noise = spread(a).max(spread(b));
    let b_always_better = match def.better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    let verdict = if noise > bound {
        if b_always_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if -better_by > bound {
        Verdict::Regressed
    } else if better_by > noise && b_always_better {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, better_by, noise)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The runs of a report file — a single run's report or an `all` report
/// with a `runs` array — as `(workload, metrics)` pairs. Traced runs count:
/// their end-to-end numbers come from the untraced pass they make first.
fn runs_of(file: &Json) -> Vec<(&str, &Json)> {
    let runs: Vec<&Json> = match file.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![file],
    };
    runs.into_iter()
        .filter_map(|r| Some((r.get("workload")?.as_str()?, r.get("metrics")?)))
        .collect()
}

fn values_of(runs: &[(&str, &Json)], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|(w, _)| *w == workload)
        .filter_map(|(_, m)| m.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Prints the comparison; returns how many rows regressed.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<usize, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (file_a, file_b) = (load(path_a)?, load(path_b)?);
    let (runs_a, runs_b) = (runs_of(&file_a), runs_of(&file_b));
    let mut workloads: Vec<&str> = Vec::new();
    for (w, _) in &runs_a {
        if !workloads.contains(w) && runs_b.iter().any(|(o, _)| o == w) {
            workloads.push(w);
        }
    }
    if workloads.is_empty() {
        return Err("the two files share no workload".into());
    }
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict   (A = {path_a} is the ratio's base)",
        "workload", "metric", "median A", "median B", "B vs A", "spread", "bound"
    );
    let mut counts = [0usize; 4];
    for workload in &workloads {
        for def in report::end_to_end() {
            let a = values_of(&runs_a, workload, &def.name);
            let b = values_of(&runs_b, workload, &def.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (verdict, better_by, noise) = judge(&def, &a, &b);
            counts[verdict as usize] += 1;
            println!(
                "{:<16} {:<16} {:>12} {:>12} {:>+8.2}% {:>7.2}% {:>6.1}%  {}  (n={}/{}, {} is better)",
                workload,
                def.name,
                format_value(median(&a)),
                format_value(median(&b)),
                match def.better {
                    Better::Lower => -better_by * 100.0,
                    Better::Higher => better_by * 100.0,
                },
                noise * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.as_str(),
                a.len(),
                b.len(),
                def.better.as_str(),
            );
        }
    }
    println!(
        "{} improved, {} unchanged, {} regressed, {} unresolved",
        counts[Verdict::Improved as usize],
        counts[Verdict::Unchanged as usize],
        counts[Verdict::Regressed as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Regressed as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s",
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn a_worsening_beyond_the_bound_regresses() {
        let d = def(Better::Lower, 0.10);
        let (v, by, _) = judge(&d, &[1.00, 1.01, 0.99], &[1.15, 1.16, 1.14]);
        assert_eq!(v, Verdict::Regressed);
        assert!((by + 0.15).abs() < 1e-12, "ratio is against A's median");
        // Within the bound: unchanged, in either direction.
        assert_eq!(
            judge(&d, &[1.00, 1.01, 0.99], &[1.05, 1.06, 1.04]).0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&d, &[1.00, 1.02, 0.98], &[0.99, 1.01, 0.97]).0,
            Verdict::Unchanged
        );
    }

    #[test]
    fn direction_follows_the_metric() {
        let d = def(Better::Higher, 0.10);
        assert_eq!(
            judge(&d, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&d, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]).0,
            Verdict::Improved
        );
        let d = def(Better::Lower, 0.10);
        assert_eq!(
            judge(&d, &[1.0, 1.01, 0.99], &[0.8, 0.81, 0.79]).0,
            Verdict::Improved
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let d = def(Better::Lower, 0.05);
        // A's runs span ±20 %: a 10 % worse median proves nothing.
        assert_eq!(
            judge(&d, &[0.8, 1.0, 1.2], &[1.1, 1.1, 1.1]).0,
            Verdict::Unresolved
        );
        // Same noise, but every B run beats every A run.
        assert_eq!(
            judge(&d, &[0.8, 1.0, 1.2], &[0.5, 0.6, 0.7]).0,
            Verdict::Improved
        );
    }

    #[test]
    fn reads_single_and_combined_reports() {
        let run = |workload: &str, trace: bool, v: f64| {
            Json::obj([
                ("workload", Json::str(workload)),
                ("trace", Json::Bool(trace)),
                (
                    "metrics",
                    Json::obj([("iter_s", Json::obj([("value", Json::Num(v))]))]),
                ),
            ])
        };
        let combined = Json::obj([(
            "runs",
            Json::Arr(vec![
                run("w", false, 1.0),
                run("w", true, 9.0),
                run("w", false, 2.0),
            ]),
        )]);
        assert_eq!(
            values_of(&runs_of(&combined), "w", "iter_s"),
            [1.0, 9.0, 2.0]
        );
        let single = run("w", false, 3.0);
        assert_eq!(values_of(&runs_of(&single), "w", "iter_s"), [3.0]);
    }
}
