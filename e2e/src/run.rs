//! One workload run: set-up, the untraced pipeline the end-to-end numbers
//! come from, output verification, and — with `--trace` — a second, traced
//! pass plus direct timed calls into single layers.

use crate::api::{self, FitConfig, FitResult, Kernel, MemoryBudget, Res, SparseTensor};
use crate::json::Json;
use crate::loadgen::{self, PhaseResult, Session};
use crate::report::{self, Metrics};
use crate::stats::median;
use crate::trace::{self, FitBreakdown, Phase, Span, TraceSync};
use crate::workloads::{
    Input, PhaseKind, Placement, Scale, Workload, DEFAULT_SECONDS, DEFAULT_SEED, OPEN_RATES,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stretches each closed-loop phase is split into.
const CLOSED_LOOP_STRETCHES: usize = 8;
/// Share of `--seconds` spent on unmeasured warm-up queries.
const WARM_UP_SHARE: f64 = 0.02;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// `test_rmse` on another seed's held-out sample may exceed the stored
/// reference value by at most this factor.
const OUTPUT_CEILING: f64 = 1.1;
/// Stored outputs must match to this relative tolerance at the reference
/// seed (fits repeat bitwise at fixed threads; the slack only forgives
/// decimal round-trips).
const EXPECTED_REL_TOL: f64 = 1e-9;
/// The traced fit's spans must sum to the fit's own wall within this.
const SPAN_GAP_LIMIT: f64 = 0.02;

const EXPECTED: &str = include_str!("../expected.json");

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub scale: Scale,
    pub trace: bool,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run produced.
#[derive(Default)]
pub struct Run {
    pub metrics: Metrics,
    pub checks: Vec<Check>,
    /// Operations attempted / failed: the fit, every query request, and
    /// every output check.
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts behind the medians and percentiles.
    pub samples: Vec<(String, usize)>,
    /// The raw samples behind the reduced timing metrics.
    pub series: Vec<(String, Vec<f64>)>,
    pub spans: Vec<Span>,
    pub wall_s: f64,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }
}

/// The run's scratch directory, beside the executable (inside the build
/// directory, so inside the checkout) and removed on drop — including
/// when a check fails or the run unwinds.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create() -> Res<Self> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let beside = exe.parent().unwrap_or(Path::new("."));
        let dir = beside.join(format!("ptucker-e2e-{}", std::process::id()));
        // Relative to the working directory when possible: a Unix socket
        // path holds ~100 bytes and checkouts can sit deep.
        let dir = std::env::current_dir()
            .ok()
            .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
            .unwrap_or(dir);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the workload's train/test TSV files into `dir`: the body of the
/// `gen` child process.
pub fn generate_inputs(w: &Workload, seed: u64, scale: Scale, dir: &Path) -> Res<()> {
    let (train, test) = (dir.join("train.tsv"), dir.join("test.tsv"));
    match w.input_at(scale) {
        Input::MovieLens { scale } => api::write_movielens_split(scale, seed, &train, &test),
        Input::Zipf { dims, nnz, skew } => {
            api::write_zipf_split(&dims, nnz, skew, seed, &train, &test)
        }
    }
}

/// Generates the inputs in a child process, so the generator's memory
/// never counts toward the pipeline's peak RSS and the program under
/// test receives only files. Returns the child's wall-clock seconds.
fn setup_in_child(args: &RunArgs, dir: &Path) -> Res<f64> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("gen")
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .arg("--dir")
        .arg(dir);
    if args.scale.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator exited with {status}"));
    }
    Ok(t.elapsed().as_secs_f64())
}

/// The fit's input once ingested from TSV.
enum Ingested {
    Resident(SparseTensor),
    Scratch(api::CooScratch, MemoryBudget),
}

impl Ingested {
    fn dims(&self) -> Vec<usize> {
        match self {
            Ingested::Resident(x) => x.dims().to_vec(),
            Ingested::Scratch(src, _) => src.dims().to_vec(),
        }
    }

    fn nnz(&self) -> usize {
        match self {
            Ingested::Resident(x) => x.nnz(),
            Ingested::Scratch(src, _) => src.nnz(),
        }
    }
}

/// One pass TSV file → model file.
struct Fitted {
    input: Ingested,
    result: FitResult,
    /// TSV on disk → model file on disk.
    wall_s: f64,
    ingest_s: f64,
    fit_s: f64,
    store_s: f64,
    spans: Vec<Span>,
    workers: Vec<api::WorkerStatsMsg>,
    recovered: Vec<String>,
}

fn fit_pipeline(
    w: &Workload,
    cfg: &FitConfig,
    train: &Path,
    model: &Path,
    traced: bool,
) -> Res<Fitted> {
    let t0 = Instant::now();
    let input = match w.placement {
        Placement::Disk { .. } => {
            let budget = cfg.budget();
            Ingested::Scratch(api::tsv_to_scratch(train, &budget)?, budget)
        }
        _ => Ingested::Resident(api::read_tsv(train)?),
    };
    let ingest_s = t0.elapsed().as_secs_f64();

    let t_fit = Instant::now();
    let (mut spans, mut workers, mut recovered) = (Vec::new(), Vec::new(), Vec::new());
    let order = input.dims().len();
    let result = match (&input, w.placement) {
        (Ingested::Resident(x), Placement::Sharded { workers: k }) => {
            // The coordinator installs its own FitSync, so a sharded fit
            // is traced from its stats, not from hooks.
            let out = api::fit_sharded(x, cfg, k)?;
            workers = out.worker_stats;
            recovered = out.recovered;
            out.fit
        }
        (Ingested::Resident(x), _) if traced => {
            let mut sync = TraceSync::start(cfg.iters, order);
            let result = api::fit_with_sync(x, cfg, &mut sync)?;
            spans = sync.spans(Instant::now());
            result
        }
        (Ingested::Resident(x), _) => api::fit(x, cfg)?,
        (Ingested::Scratch(src, budget), _) if traced => {
            let mut sync = TraceSync::start(cfg.iters, order);
            let result = api::fit_scratch_with_sync(src, cfg, budget, &mut sync)?;
            spans = sync.spans(Instant::now());
            result
        }
        (Ingested::Scratch(src, budget), _) => api::fit_scratch(src, cfg, budget)?,
    };
    let fit_s = t_fit.elapsed().as_secs_f64();

    let t_store = Instant::now();
    api::store_model(&result.decomposition, model)?;
    Ok(Fitted {
        input,
        result,
        wall_s: t0.elapsed().as_secs_f64(),
        ingest_s,
        fit_s,
        store_s: t_store.elapsed().as_secs_f64(),
        spans,
        workers,
        recovered,
    })
}

/// What serving the stored model produced.
struct Served {
    phases: Vec<(PhaseKind, PhaseResult)>,
    stats: api::ServeStats,
    load_s: f64,
    start_s: f64,
    model_bytes: u64,
}

fn serve_stage(args: &RunArgs, work: &Path, fitted: &FitResult) -> Res<Served> {
    let model_path = work.join("model.ptm");
    let model_bytes = std::fs::metadata(&model_path)
        .map_err(|e| e.to_string())?
        .len();
    let t = Instant::now();
    let loaded = api::load_model(&model_path)?;
    let load_s = t.elapsed().as_secs_f64();
    // The server answers from the file; replies are checked against the
    // model the fit returned in memory, so a store/load defect shows as a
    // mismatch. The second snapshot is what the publisher alternates in.
    let local_a = api::predictor(fitted.decomposition.clone())?;
    let local_b = api::predictor(api::perturbed_model(&fitted.decomposition, args.seed))?;

    let t = Instant::now();
    let handle = api::serve(&work.join("q.sock"), api::predictor(loaded)?)?;
    let client = api::connect(&handle)?;
    let start_s = t.elapsed().as_secs_f64();

    let mut session = Session::open(&handle, client, [&local_a, &local_b], args.seed ^ 0x5eed);
    session.warm_up(WARM_UP_SHARE * args.scale.seconds.min(DEFAULT_SECONDS));
    // Closed-loop phases run as interleaved stretches (point, top-K,
    // mixed, point, …) pooled per kind: on a shared host a core's speed
    // shifts on a scale of seconds, and a metric measured in one
    // contiguous second inherits whichever state that second had.
    let specs = args.workload.phases;
    let mut phases: Vec<(PhaseKind, PhaseResult)> = specs
        .iter()
        .map(|spec| (spec.kind, PhaseResult::default()))
        .collect();
    let interleaved = |kind| matches!(kind, PhaseKind::Point | PhaseKind::TopK | PhaseKind::Mixed);
    for _ in 0..CLOSED_LOOP_STRETCHES {
        for (spec, (_, pooled)) in specs.iter().zip(&mut phases) {
            if interleaved(spec.kind) {
                let secs = args.workload.phase_seconds(*spec, args.scale);
                session.reconnect()?;
                pooled.absorb(session.run(spec.kind, secs / CLOSED_LOOP_STRETCHES as f64));
            }
        }
    }
    for (spec, (_, result)) in specs.iter().zip(&mut phases) {
        if !interleaved(spec.kind) {
            *result = session.run(spec.kind, args.workload.phase_seconds(*spec, args.scale));
        }
    }
    session.close()?;
    let stats = handle.shutdown().map_err(|e| e.to_string())?;
    Ok(Served {
        phases,
        stats,
        load_s,
        start_s,
        model_bytes,
    })
}

/// The process's peak resident set (VmHWM) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The fastest iteration, not the median one: interference on a shared
/// host only ever adds time, and it comes in bursts of about a second.
fn fastest_iteration(stats: &api::FitStats) -> f64 {
    stats
        .iterations
        .iter()
        .map(|s| s.seconds)
        .fold(f64::INFINITY, f64::min)
}

fn expected_outputs(workload: &str) -> Res<(f64, f64)> {
    let all = Json::parse(EXPECTED).map_err(|e| format!("expected.json: {e}"))?;
    let field = |name: &str| {
        all.get(workload)
            .and_then(|w| w.get(name))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("expected.json has no {workload}.{name}"))
    };
    Ok((field("final_error")?, field("test_rmse")?))
}

fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

pub fn run_workload(args: &RunArgs) -> Res<Run> {
    let t_run = Instant::now();
    let w = args.workload;
    let cfg = w.fit_config(args.scale);
    let work = WorkDir::create()?;
    // Scratch files (spilled plans, COO sources) follow `temp_dir()`:
    // keep them inside the run's directory, for shard workers too.
    std::env::set_var("TMPDIR", work.path());
    let inputs = work.path().join("inputs");
    std::fs::create_dir_all(&inputs).map_err(|e| e.to_string())?;

    let mut run = Run::default();

    // Set-up: the same inputs each repetition (same seed), timed whole.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        setup.push(setup_in_child(args, &inputs)?);
    }
    run.metrics.set("setup_s", median(&setup));
    run.samples.push(("setup_s".into(), setup.len()));
    let train = inputs.join("train.tsv");
    let train_bytes = std::fs::metadata(&train).map_err(|e| e.to_string())?.len();

    // The untraced pipeline: every end-to-end number comes from here.
    let model_path = work.path().join("model.ptm");
    let fitted = fit_pipeline(w, &cfg, &train, &model_path, false)?;
    run.attempted += 1;
    let stats = &fitted.result.stats;
    let iter_secs: Vec<f64> = stats.iterations.iter().map(|s| s.seconds).collect();
    let iter_s = fastest_iteration(stats);
    let dims = fitted.input.dims();
    let test = api::read_tsv(&inputs.join("test.tsv"))?;
    let (test, test_dropped) = api::test_entries_in_grid(&test, &dims)?;
    let test_rmse = api::test_rmse(&fitted.result.decomposition, &test, 2);
    let m = &mut run.metrics;
    m.set("fit_wall_s", fitted.wall_s);
    m.set("iter_s", iter_s);
    m.set("final_error", stats.final_error);
    m.set("test_rmse", test_rmse);
    m.set(
        "peak_tracked_mb",
        stats.peak_intermediate_bytes as f64 / 1e6,
    );
    run.samples.push(("iter_s".into(), iter_secs.len()));
    run.series.push(("iter_seconds".into(), iter_secs.clone()));
    run.samples.push(("test_rmse_entries".into(), test.nnz()));
    run.samples
        .push(("test_entries_outside_grid".into(), test_dropped));

    let served = serve_stage(args, work.path(), &fitted.result)?;
    run.metrics.set("peak_rss_mb", peak_rss_mb());
    serving_metrics(&mut run, &served);
    verify_fit(&mut run, args, &fitted, test_rmse)?;
    verify_serving(&mut run, &served);

    // Per-layer numbers a single untraced pass already yields.
    let m = &mut run.metrics;
    m.set("datagen.ingest_s", fitted.ingest_s);
    m.set(
        "datagen.ingest_mb_per_s",
        train_bytes as f64 / 1e6 / fitted.ingest_s,
    );
    m.set("memtrack.io_read_bytes", stats.io_read_bytes as f64);
    m.set("memtrack.io_write_bytes", stats.io_write_bytes as f64);
    m.set(
        "memtrack.peak_spilled_bytes",
        stats.peak_spilled_bytes as f64,
    );
    m.set(
        "memtrack.prefetch_engaged",
        f64::from(u8::from(stats.prefetch_engaged)),
    );
    m.set(
        "core.core_nnz_final",
        stats.iterations.last().map_or(0, |s| s.core_nnz) as f64,
    );
    m.set("core.model_store_s", fitted.store_s);
    m.set("core.model_load_s", served.load_s);
    m.set("core.model_bytes", served.model_bytes as f64);
    m.set("serve.start_s", served.start_s);
    shard_metrics(m, &fitted);

    if args.trace {
        traced_pass(&mut run, args, &cfg, &train, work.path(), &fitted, iter_s)?;
    }
    run.wall_s = t_run.elapsed().as_secs_f64();
    Ok(run)
}

fn phase_of(served: &Served, want: impl Fn(PhaseKind) -> bool) -> Option<&PhaseResult> {
    served.phases.iter().find(|(k, _)| want(*k)).map(|(_, r)| r)
}

fn serving_metrics(run: &mut Run, served: &Served) {
    let m = &mut run.metrics;
    if let Some(p) = phase_of(served, |k| k == PhaseKind::Point) {
        m.set("point_qps", p.best_entries_per_s());
        m.set("serve.point_p50_us", p.p50_us());
        m.set("serve.point_p90_us", p.tail_us());
        run.samples
            .push(("point_requests".into(), p.latencies_us.len()));
        run.series
            .push(("point_stretch_qps".into(), p.stretch_entries_per_s.clone()));
    }
    if let Some(p) = phase_of(served, |k| k == PhaseKind::TopK) {
        m.set("topk_qps", p.best_contexts_per_s());
        m.set("serve.topk_p50_us", p.p50_us());
        m.set("serve.topk_p90_us", p.tail_us());
        run.samples
            .push(("topk_requests".into(), p.latencies_us.len()));
        run.series
            .push(("topk_stretch_qps".into(), p.stretch_contexts_per_s.clone()));
    }
    if let Some(p) = phase_of(served, |k| k == PhaseKind::Mixed) {
        m.set("mixed_p50_us", p.best_p50_us());
        m.set("serve.mixed_p90_us", p.tail_us());
        run.samples
            .push(("mixed_requests".into(), p.latencies_us.len()));
        run.series
            .push(("mixed_stretch_p50_us".into(), p.stretch_p50_us.clone()));
    }
    if let Some(p) = phase_of(served, |k| k == PhaseKind::PublishMixed) {
        m.set("serve.publish_mixed_qps", p.requests_per_s());
        m.set("serve.publish_us", p.publish_us);
    }
    let mut rate_ok = 0.0;
    let mut late_max = 0.0f64;
    for rate in OPEN_RATES {
        let Some(p) = phase_of(served, |k| {
            k == PhaseKind::Open {
                rate: f64::from(rate),
            }
        }) else {
            continue;
        };
        m.set(format!("serve.open_r{rate}_p50_us"), p.p50_us());
        m.set(format!("serve.open_r{rate}_p90_us"), p.tail_us());
        late_max = late_max.max(p.late_max_us);
        if p.rate_ok() {
            rate_ok = f64::from(rate);
        }
    }
    m.set("serve.open_rate_ok_rps", rate_ok);
    m.set("serve.open_late_max_us", late_max);
    let total = |f: fn(&PhaseResult) -> u64| served.phases.iter().map(|(_, p)| f(p)).sum::<u64>();
    let (ok, failed) = (total(|p| p.requests_ok), total(|p| p.requests_failed));
    m.set("serve.requests_ok", ok as f64);
    m.set("serve.requests_failed", failed as f64);
    m.set("serve.error_replies", served.stats.error_replies as f64);
    m.set("serve.worker_panics", served.stats.worker_panics as f64);
    m.set(
        "serve.bytes_per_request",
        total(|p| p.bytes) as f64 / ok.max(1) as f64,
    );
    run.attempted += ok + failed;
    run.failed += failed;
}

fn shard_metrics(m: &mut Metrics, fitted: &Fitted) {
    if fitted.workers.is_empty() {
        return;
    }
    let stats = &fitted.result.stats;
    m.set("shard.bytes_sent", stats.bytes_sent as f64);
    m.set("shard.bytes_received", stats.bytes_received as f64);
    // Spawn, handshake, plan shipping and the workers' own plan builds:
    // what the coordinator's wall holds beyond the fit it then runs.
    m.set(
        "shard.startup_s",
        (fitted.fit_s - stats.total_seconds).max(0.0),
    );
    let walls = fitted.workers.iter().map(|s| s.wall_seconds);
    m.set("shard.worker_wall_max_s", walls.fold(0.0, f64::max));
    let nnz: Vec<f64> = fitted
        .workers
        .iter()
        .map(|s| s.nnz_processed as f64)
        .collect();
    let mean = nnz.iter().sum::<f64>() / nnz.len() as f64;
    m.set(
        "shard.worker_nnz_imbalance",
        nnz.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
    );
}

fn verify_fit(run: &mut Run, args: &RunArgs, fitted: &Fitted, test_rmse: f64) -> Res<()> {
    let stats = &fitted.result.stats;
    let errors_finite = stats
        .iterations
        .iter()
        .all(|s| s.reconstruction_error.is_finite());
    run.check(
        "fit.errors_finite",
        errors_finite && stats.final_error.is_finite() && test_rmse.is_finite(),
        format!("{} iterations", stats.iterations.len()),
    );
    run.check(
        "fit.ran_every_iteration",
        stats.iterations.len() == args.workload.iters(args.scale),
        format!(
            "{} of {}",
            stats.iterations.len(),
            args.workload.iters(args.scale)
        ),
    );
    if args.scale.is_reference() {
        // Every seed fits the same training tensor, and fits repeat bit for
        // bit at fixed threads: the training error is pinned at any seed,
        // the held-out error at the seed whose sample was recorded.
        let (want_error, want_rmse) = expected_outputs(args.workload.name)?;
        run.check(
            "fit.final_error_matches_expected",
            rel_diff(stats.final_error, want_error) <= EXPECTED_REL_TOL,
            format!("got {}, expected.json has {want_error}", stats.final_error),
        );
        if args.seed == DEFAULT_SEED {
            run.check(
                "fit.test_rmse_matches_expected",
                rel_diff(test_rmse, want_rmse) <= EXPECTED_REL_TOL,
                format!("got {test_rmse}, expected.json has {want_rmse}"),
            );
        } else {
            run.check(
                "fit.test_rmse_under_ceiling",
                test_rmse <= OUTPUT_CEILING * want_rmse,
                format!("got {test_rmse}, ceiling {OUTPUT_CEILING} x {want_rmse}"),
            );
        }
    }
    match args.workload.placement {
        Placement::Disk { .. } => {
            run.check(
                "disk.plan_spilled",
                stats.peak_spilled_bytes > 0 && stats.io_read_bytes > 0,
                format!("{} bytes spilled", stats.peak_spilled_bytes),
            );
            run.check("disk.prefetch_engaged", stats.prefetch_engaged, "");
        }
        Placement::Sharded { workers } => {
            run.check(
                "shard.all_workers_reported",
                fitted.workers.len() == workers
                    && fitted.workers.iter().all(|s| s.rows_updated > 0),
                format!("{} of {workers} worker stats", fitted.workers.len()),
            );
            run.check(
                "shard.nothing_recovered",
                fitted.recovered.is_empty(),
                fitted.recovered.join("; "),
            );
        }
        Placement::Resident => {
            run.check(
                "resident.nothing_spilled",
                stats.peak_spilled_bytes == 0,
                "",
            );
        }
    }
    Ok(())
}

fn verify_serving(run: &mut Run, served: &Served) {
    let (verified, mismatched) = served
        .phases
        .iter()
        .fold((0, 0), |(v, x), (_, p)| (v + p.verified, x + p.mismatched));
    run.check(
        "serve.sampled_replies_match_local_bitwise",
        verified > 0 && mismatched == 0,
        format!("{mismatched} of {verified} sampled replies differ"),
    );
    run.check(
        "serve.every_phase_answered",
        served.phases.iter().all(|(_, p)| p.requests_ok > 0),
        "",
    );
    if let Some(p) = phase_of(served, |k| k == PhaseKind::PublishMixed) {
        run.check(
            "serve.epoch_advances_under_publisher",
            p.epoch_advanced && p.publishes > 0,
            format!("{} publishes", p.publishes),
        );
    }
    run.check(
        "serve.no_worker_panics_or_error_replies",
        served.stats.worker_panics == 0 && served.stats.error_replies == 0,
        format!(
            "{} panics, {} error replies",
            served.stats.worker_panics, served.stats.error_replies
        ),
    );
}

/// Operation count of one iteration's row sweeps — computed from the
/// shapes, not measured (see the README for the formula).
fn sweep_flops(kernel: Kernel, dims: &[usize], nnz: usize, rank: usize, core_nnz: usize) -> f64 {
    let (n, j, g) = (dims.len() as f64, rank as f64, core_nnz as f64);
    // Direct/Approx rebuild each run's prefix product; Cache reads it.
    let prefix = match kernel {
        Kernel::Cache => 0.0,
        _ => (n - 2.0).max(0.0) * g / j,
    };
    let per_entry = 2.0 * g + prefix + j * (j + 1.0) + 2.0 * j;
    let per_row = j * j * j / 3.0 + 2.0 * j * j;
    let rows: f64 = dims.iter().map(|&d| d as f64).sum();
    n * nnz as f64 * per_entry + rows * per_row
}

/// The traced pass: the same pipeline with `TraceSync` installed, then
/// direct timed calls into single layers on the workload's own inputs.
fn traced_pass(
    run: &mut Run,
    args: &RunArgs,
    cfg: &FitConfig,
    train: &Path,
    work: &Path,
    untraced: &Fitted,
    iter_s: f64,
) -> Res<()> {
    let w = args.workload;
    let traced = fit_pipeline(w, cfg, train, &work.join("model-traced.ptm"), true)?;
    run.attempted += 1;
    let stats = &traced.result.stats;
    run.check(
        "trace.traced_fit_is_the_untraced_fit",
        stats.final_error.to_bits() == untraced.result.stats.final_error.to_bits(),
        format!(
            "{} vs {}",
            stats.final_error, untraced.result.stats.final_error
        ),
    );
    // Overhead on the fastest iteration — the hooks sit in the iteration
    // loop, and whole-pipeline walls differ run to run by more than any
    // plausible cost of forty timestamps.
    let m = &mut run.metrics;
    m.set("trace.fit_wall_s", traced.wall_s);
    m.set("trace.iter_s", fastest_iteration(stats));
    m.set(
        "trace.overhead_share",
        (fastest_iteration(stats) - iter_s) / iter_s,
    );

    let (dims, nnz) = (traced.input.dims(), traced.input.nnz());
    if !traced.spans.is_empty() {
        let b = FitBreakdown::of(&traced.spans);
        m.set("core.fit_setup_s", b.total_of(Phase::FitSetup));
        m.set("core.mode_prepare_s", b.per_iter_of(Phase::ModePrepare));
        m.set("core.sweep_s", b.per_iter_of(Phase::Sweep));
        m.set("core.mode_post_s", b.per_iter_of(Phase::ModePost));
        m.set("core.iter_tail_s", b.per_iter_of(Phase::IterTail));
        m.set("core.finish_s", b.total_of(Phase::Finish));
        let sweep_total = b.total_of(Phase::Sweep);
        let sweeps = (stats.iterations.len() * dims.len() * nnz) as f64;
        m.set("core.sweep_entries_per_s", sweeps / sweep_total);
        m.set("core.sweep_share", sweep_total / b.span_sum);
        let dense_core = cfg.rank.pow(dims.len() as u32);
        let flops: f64 = (0..stats.iterations.len())
            .map(|i| {
                let core = if i == 0 {
                    dense_core
                } else {
                    stats.iterations[i - 1].core_nnz
                };
                sweep_flops(cfg.kernel, &dims, nnz, cfg.rank, core)
            })
            .sum();
        m.set("core.sweep_gflops_computed", flops / sweep_total / 1e9);
        // The program's own timer starts inside `run_fit` and stops before
        // the `finish` hook; the spans start before the call and end after
        // it. Agreement means no phase escaped a span.
        let gap = b.reconciliation_gap(stats.total_seconds);
        m.set("core.span_gap_share", gap);
        run.check(
            "trace.spans_reconcile_with_fit_wall",
            gap <= SPAN_GAP_LIMIT,
            format!(
                "spans sum to {} s, the fit reports {} s",
                b.span_sum, stats.total_seconds
            ),
        );
    }
    run.spans = traced.spans.clone();
    layer_probes(run, args, cfg, train, &traced, iter_s)
}

/// Direct timed calls into public functions of single layers.
fn layer_probes(
    run: &mut Run,
    args: &RunArgs,
    cfg: &FitConfig,
    train: &Path,
    traced: &Fitted,
    iter_s: f64,
) -> Res<()> {
    let w = args.workload;
    let model = &traced.result.decomposition;

    // tensor: the plan build on its own, and a compute-free window sweep.
    // A scratch input also loads its resident twin: the disk-to-disk fit
    // must be the resident fit of the same entries, bit for bit.
    let twin;
    let x: &SparseTensor = match &traced.input {
        Ingested::Resident(x) => {
            probe_resident_plan(run, x)?;
            x
        }
        Ingested::Scratch(src, _) => {
            probe_spilled_plan(run, cfg, src)?;
            twin = api::read_tsv(train)?;
            check_disk_equals_resident(run, cfg, &twin, &traced.result)?;
            &twin
        }
    };

    // core: the residual pass on the final model, to split the tail.
    let predictor = api::predictor(model.clone())?;
    let t = Instant::now();
    std::hint::black_box(api::residual_pass(&predictor, x, cfg.threads));
    run.metrics
        .set("core.error_pass_s", t.elapsed().as_secs_f64());

    // sched: the plain single-threaded twin of the resident fits.
    if w.placement == Placement::Resident && matches!(w.input, Input::MovieLens { .. }) {
        let twin = api::fit(
            x,
            &FitConfig {
                threads: 1,
                iters: 2,
                ..cfg.clone()
            },
        )?;
        run.attempted += 1;
        let iter_s_1t = fastest_iteration(&twin.stats);
        run.metrics.set("sched.iter_s_1t", iter_s_1t);
        run.metrics.set(
            "sched.parallel_eff",
            iter_s_1t / (cfg.threads as f64 * iter_s),
        );
    }

    // linalg: QR of the largest factor; top-K selection over the ranked mode.
    let largest = model
        .factors
        .iter()
        .max_by_key(|f| f.rows())
        .ok_or("model has no factors")?;
    let t = Instant::now();
    api::qr(largest)?;
    run.metrics.set("linalg.qr_s", t.elapsed().as_secs_f64());

    // serve: the in-process kernel floors under the served latencies.
    let (point_ns, topk_us, select_us) = loadgen::local_kernel_floors(&predictor, args.seed);
    run.metrics.set("serve.local_point_ns", point_ns);
    run.metrics.set("serve.local_topk_us", topk_us);
    run.metrics.set("linalg.topk_select_us", select_us);

    // transport: a framed echo at the size of the mode-0 factor.
    let payload = model.factors[0].as_slice().len() * 8;
    let rounds = if args.scale.smoke { 20 } else { 200 };
    let round_trip_s = median(&api::frame_roundtrips(payload, rounds)?);
    run.metrics
        .set("transport.frame_roundtrip_us", round_trip_s * 1e6);
    run.metrics.set(
        "transport.frame_mb_per_s",
        2.0 * payload as f64 / 1e6 / round_trip_s,
    );
    Ok(())
}

fn probe_resident_plan(run: &mut Run, x: &SparseTensor) -> Res<()> {
    let t = Instant::now();
    let plan = api::plan_build_resident(x)?;
    let m = &mut run.metrics;
    m.set("tensor.plan_build_s", t.elapsed().as_secs_f64());
    m.set("tensor.plan_bytes", api::plan_bytes_resident(x) as f64);
    let (windows, _) = api::dry_sweep(&plan, usize::MAX, 1)?;
    m.set(
        "tensor.windows_per_sweep",
        windows as f64 / x.order() as f64,
    );
    Ok(())
}

fn probe_spilled_plan(run: &mut Run, cfg: &FitConfig, src: &api::CooScratch) -> Res<()> {
    let order = src.dims().len();
    let budget = cfg.budget();
    let t = Instant::now();
    let plan = api::plan_build_external(src, &budget)?;
    let m = &mut run.metrics;
    m.set("tensor.plan_build_s", t.elapsed().as_secs_f64());
    m.set(
        "tensor.plan_bytes",
        api::plan_bytes_spilled(src.dims(), src.nnz()) as f64,
    );
    // The driver's window size: what the budget has left, split over the
    // two buffers of the prefetch ring.
    let position = api::spilled_position_bytes(order);
    let cap = (budget.available() / (2 * position)).max(1);
    let t = Instant::now();
    let (windows, positions) = api::dry_sweep(&plan, cap, 2)?;
    let refill_s = t.elapsed().as_secs_f64();
    m.set("tensor.refill_s", refill_s);
    m.set(
        "tensor.refill_mb_per_s",
        (positions * position) as f64 / 1e6 / refill_s,
    );
    m.set("tensor.windows_per_sweep", windows as f64 / order as f64);
    Ok(())
}

fn check_disk_equals_resident(
    run: &mut Run,
    cfg: &FitConfig,
    x: &SparseTensor,
    disk: &FitResult,
) -> Res<()> {
    let resident = api::fit(
        x,
        &FitConfig {
            budget_bytes: None,
            ..cfg.clone()
        },
    )?;
    run.attempted += 1;
    let same_bits = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    let same_factors = resident
        .decomposition
        .factors
        .iter()
        .zip(&disk.decomposition.factors)
        .all(|(a, b)| same_bits(a.as_slice(), b.as_slice()));
    run.check(
        "disk.bitwise_equal_to_resident_fit",
        same_factors && resident.stats.final_error.to_bits() == disk.stats.final_error.to_bits(),
        format!(
            "final_error {} (disk) vs {} (resident)",
            disk.stats.final_error, resident.stats.final_error
        ),
    );
    Ok(())
}

/// The full report of one run, for `--out` and `compare`.
pub fn report_json(args: &RunArgs, run: &Run) -> Json {
    let mut defs = report::end_to_end();
    defs.extend(report::per_layer());
    Json::obj([
        ("workload", Json::str(args.workload.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.scale.seconds)),
        ("smoke", Json::Bool(args.scale.smoke)),
        ("trace", Json::Bool(args.trace)),
        ("wall_s", Json::Num(run.wall_s)),
        ("correct", Json::Bool(run.correct())),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("failed_share", Json::Num(run.failed_share())),
        ("metrics", run.metrics.json_for(&defs)),
        (
            "samples",
            Json::Obj(
                run.samples
                    .iter()
                    .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                    .collect(),
            ),
        ),
        (
            "checks",
            Json::Arr(
                run.checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name.clone())),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "series",
            Json::Obj(
                run.series
                    .iter()
                    .map(|(k, v)| {
                        (
                            k.clone(),
                            Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
        ("spans", trace::spans_json(&run.spans)),
        ("provenance", report::provenance(args.seed)),
    ])
}
