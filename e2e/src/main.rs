//! `e2e` — the repository's benchmark.
//!
//! ```text
//! e2e --workload <name|all> [--seed S] [--seconds N] [--trace [0|1]]
//!     [--smoke] [--runs R] [--out FILE]
//! e2e compare A.json B.json
//! e2e manifest
//! ```
//!
//! One workload per process (so peak RSS is the workload's own); `all`
//! re-executes this binary once per workload. The last line of a
//! single-workload run is the result object the benchmark driver reads.
//! See `README.md` beside this crate's manifest.

mod api;
mod compare;
mod json;
mod loadgen;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use run::{Run, RunArgs};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Scale, Workload, DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage:
  e2e --workload <name|all> [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--runs R] [--out FILE]
  e2e compare A.json B.json
  e2e manifest
workloads: resident_direct resident_cache resident_approx disk_direct sharded_direct serve_queries";

struct Cli {
    workload: String,
    seed: u64,
    scale: Scale,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    /// `gen` only: where the input files go.
    dir: Option<PathBuf>,
}

fn parse_flags(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: DEFAULT_SEED,
        scale: Scale {
            seconds: DEFAULT_SECONDS,
            smoke: false,
        },
        trace: false,
        runs: 1,
        out: None,
        dir: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => cli.workload = value(&mut i, flag)?,
            "--seed" => {
                cli.seed = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seed takes an integer")?;
            }
            "--seconds" => {
                let s: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.scale.seconds = s;
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; the driver passes 0 or 1.
                cli.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.scale.smoke = true,
            "--runs" => {
                cli.runs = value(&mut i, flag)?
                    .parse()
                    .map_err(|_| "--runs takes an integer")?;
            }
            "--out" => cli.out = Some(value(&mut i, flag)?.into()),
            "--dir" => cli.dir = Some(value(&mut i, flag)?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(cli)
}

fn workload_named(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))
}

/// The object the driver reads from the last line of standard output.
fn result_line(run: &Run, trace: bool) -> String {
    let defs = if trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    Json::obj([
        ("correct", Json::Bool(run.correct())),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", run.metrics.json_for(&defs)),
    ])
    .render()
}

fn run_one(cli: &Cli) -> Result<bool, String> {
    let args = RunArgs {
        workload: workload_named(&cli.workload)?,
        seed: cli.seed,
        scale: cli.scale,
        trace: cli.trace,
    };
    println!(
        "workload {}  seed {}  seconds {}  trace {}{}",
        args.workload.name,
        args.seed,
        args.scale.seconds,
        u8::from(args.trace),
        if args.scale.smoke { "  (smoke)" } else { "" }
    );
    let run = match run::run_workload(&args) {
        Ok(run) => run,
        Err(e) => {
            // A pipeline that errors is one operation attempted and failed.
            eprintln!("e2e: {}: {e}", args.workload.name);
            println!(
                "{}",
                Json::obj([
                    ("correct", Json::Bool(false)),
                    ("attempted", Json::Num(1.0)),
                    ("failed", Json::Num(1.0)),
                    ("metrics", Json::Obj(Vec::new())),
                ])
                .render()
            );
            return Ok(false);
        }
    };
    println!("-- end to end (untraced run)");
    run.metrics.print(&report::end_to_end());
    println!(
        "{:<32} {:>16} ratio",
        "failed_share",
        report::format_value(run.failed_share())
    );
    if args.trace {
        println!("-- per layer (traced run)");
        run.metrics.print(&report::per_layer());
    }
    println!("-- checks");
    for c in &run.checks {
        println!(
            "{} {} {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    let samples: Vec<String> = run
        .samples
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    println!("-- samples: {}", samples.join(" "));
    println!(
        "-- wall {:.2} s, {} attempted, {} failed",
        run.wall_s, run.attempted, run.failed
    );
    if let Some(out) = &cli.out {
        std::fs::write(out, run::report_json(&args, &run).render() + "\n")
            .map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    println!("{}", result_line(&run, args.trace));
    Ok(run.correct())
}

/// Every workload, each in its own process (a traced run makes its
/// untraced pass first, so its report carries both sets of numbers).
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = run::WorkDir::create()?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    let t_all = std::time::Instant::now();
    for round in 0..cli.runs.max(1) {
        for w in &WORKLOADS {
            let out = scratch.path().join(format!("{}-{round}.json", w.name));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.scale.seconds.to_string()])
                .args(["--trace", if cli.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&out);
            if cli.scale.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
            all_ok &= status.success();
            match std::fs::read_to_string(&out) {
                Ok(text) => runs.push(Json::parse(&text)?),
                Err(_) => eprintln!("e2e: {} wrote no report", w.name),
            }
        }
    }
    println!(
        "== all: {} runs in {:.1} s",
        runs.len(),
        t_all.elapsed().as_secs_f64()
    );
    for r in &runs {
        let num = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "{:<16} wall {:>6.2} s  tracing overhead {:>+6.2}%  {}",
            r.get("workload").and_then(Json::as_str).unwrap_or("?"),
            num("wall_s"),
            r.get("metrics")
                .and_then(|m| m.get("trace.overhead_share")?.get("value")?.as_f64())
                .unwrap_or(0.0)
                * 100.0,
            if r.get("correct") == Some(&Json::Bool(true)) {
                "ok"
            } else {
                "FAILED"
            },
        );
    }
    if let Some(out) = &cli.out {
        let report = Json::obj([
            ("provenance", report::provenance(cli.seed)),
            ("runs", Json::Arr(runs)),
        ]);
        std::fs::write(out, report.render() + "\n")
            .map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    Ok(all_ok)
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        Some("compare") => match argv {
            [_, a, b] => Ok(compare::compare_files(a, b)? == 0),
            _ => Err("compare takes exactly two report files".into()),
        },
        Some("manifest") => {
            print!("{}", report::benchmark_manifest());
            Ok(true)
        }
        // The input generator a run re-executes itself as.
        Some("gen") => {
            let cli = parse_flags(&argv[1..])?;
            let dir = cli.dir.as_deref().ok_or("gen needs --dir")?;
            run::generate_inputs(workload_named(&cli.workload)?, cli.seed, cli.scale, dir)?;
            Ok(true)
        }
        _ => {
            let cli = parse_flags(argv)?;
            match cli.workload.as_str() {
                "" => Err("--workload is required".into()),
                "all" => run_all(&cli),
                _ => run_one(&cli),
            }
        }
    }
}

fn main() -> ExitCode {
    // Must come first: a sharded fit re-executes this binary as its workers.
    api::worker_guard();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
