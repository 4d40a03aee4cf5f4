//! The one adapter between the benchmark and the workspace's public API.
//!
//! Every call into a workspace crate — generators, TSV ingest, the fit
//! entry points, plan builders, the sharded coordinator, the query server
//! and its client — goes through this file, and every workspace type the
//! other modules name is re-exported from here. When the entry points are
//! collapsed (ROADMAP item 2) the follow-up is mechanical and confined to
//! this file.

use ptucker::{FitOptions, PTucker, Schedule, StoragePrecision, Variant};
use ptucker_datagen as datagen;
use ptucker_serve::ServeOptions;
use ptucker_shard::{ShardedFit, WorkerSpawn};
use ptucker_tensor::TrainTestSplit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufWriter, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

pub use ptucker::{FitResult, FitStats, FitSync, Predictor, TuckerDecomposition};
pub use ptucker_linalg::kernels::top_k_select;
pub use ptucker_memtrack::MemoryBudget;
pub use ptucker_serve::{Client, ServeHandle, ServeStats};
pub use ptucker_shard::protocol::WorkerStatsMsg;
pub use ptucker_tensor::{CooScratch, ModeStreams, SparseTensor};

/// The hook-side result type [`FitSync`] implementations return.
pub type SyncResult<T> = ptucker::Result<T>;
/// The callback type `FitSync::sync_factor` receives.
pub type Resweep<'a> = ptucker::sync::Resweep<'a>;

pub type Res<T> = Result<T, String>;

fn s<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Storage precision of every benchmark fit and plan.
const PRECISION: StoragePrecision = StoragePrecision::F64;
/// Seed of the fit's own factor/core initialization — fixed, so `--seed`
/// varies the inputs and nothing inside the program.
const FIT_SEED: u64 = 3;

/// First call in `main`: turns this process into a shard worker when the
/// coordinator re-executed it as one.
pub fn worker_guard() {
    ptucker_shard::worker_guard();
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    Direct,
    Cache,
    Approx(f64),
}

/// What a workload fixes about its fit; everything else is the engine's
/// default.
#[derive(Debug, Clone)]
pub struct FitConfig {
    pub kernel: Kernel,
    /// Tucker rank `J`, the same on every mode.
    pub rank: usize,
    pub iters: usize,
    pub threads: usize,
    /// Intermediate-data budget in bytes; `None` is unlimited.
    pub budget_bytes: Option<usize>,
}

impl FitConfig {
    pub fn budget(&self) -> MemoryBudget {
        self.budget_bytes
            .map_or_else(MemoryBudget::unlimited, MemoryBudget::new)
    }

    fn options(&self, order: usize, budget: MemoryBudget) -> FitOptions {
        FitOptions::new(vec![self.rank; order])
            .max_iters(self.iters)
            .tol(0.0)
            .seed(FIT_SEED)
            .threads(self.threads)
            .schedule(Schedule::dynamic())
            .precision(PRECISION)
            .budget(budget)
            .variant(match self.kernel {
                Kernel::Direct => Variant::Default,
                Kernel::Cache => Variant::Cache,
                Kernel::Approx(rate) => Variant::Approx {
                    truncation_rate: rate,
                },
            })
    }

    fn solver(&self, order: usize, budget: MemoryBudget) -> Res<PTucker> {
        PTucker::new(self.options(order, budget)).map_err(s)
    }
}

// ---------------------------------------------------------------- inputs

fn tsv_line(out: &mut impl Write, index: &[usize], value: f64) -> std::io::Result<()> {
    for i in index {
        write!(out, "{}\t", i + 1)?;
    }
    writeln!(out, "{value}")
}

/// Seed of the generated populations and of their train / held-out
/// partition — fixed. `--seed` draws only the evaluation sample: which half
/// of the held-out tenth is scored, and the query stream. Measured when the
/// benchmark was defined: a new population per seed moved `final_error` by
/// ±10 % (±50 % under Approx), and even re-drawing the 90/10 split of one
/// population moved Approx's by ±25 % — truncation decisions flip on small
/// input changes. An accuracy metric that moves that much with the seed
/// cannot gate anything, so every seed fits the same training tensor.
const POPULATION_SEED: u64 = 2018;

/// Simulated MovieLens at `scale`: a fixed 90 % written as the training
/// TSV, a `seed`-drawn half of the other 10 % as the test TSV.
pub fn write_movielens_split(scale: f64, seed: u64, train: &Path, test: &Path) -> Res<()> {
    let mut fixed = StdRng::seed_from_u64(POPULATION_SEED);
    let sim = datagen::realworld::movielens(scale, &mut fixed);
    let split = TrainTestSplit::new(&sim.tensor, 0.1, &mut fixed).map_err(s)?;
    let sample =
        TrainTestSplit::new(&split.test, 0.5, &mut StdRng::seed_from_u64(seed)).map_err(s)?;
    datagen::write_dataset(train, &split.train, PRECISION).map_err(s)?;
    datagen::write_dataset(test, &sample.test, PRECISION).map_err(s)
}

/// A Zipf-skewed stream written as TSV in bounded memory: the generator
/// streams into a scratch file and the scratch file streams into the two
/// text files — a fixed tenth of the entries is held out of the training
/// file, and a `seed`-drawn half of those goes to the test file.
pub fn write_zipf_split(
    dims: &[usize],
    nnz: usize,
    skew: f64,
    seed: u64,
    train: &Path,
    test: &Path,
) -> Res<()> {
    let budget = MemoryBudget::unlimited();
    let mut fixed = StdRng::seed_from_u64(POPULATION_SEED);
    let src = datagen::stream_zipf_to_scratch(dims, nnz, skew, &mut fixed, &budget).map_err(s)?;
    let mut sampled = StdRng::seed_from_u64(seed);
    let mut train_out = BufWriter::new(std::fs::File::create(train).map_err(s)?);
    let mut test_out = BufWriter::new(std::fs::File::create(test).map_err(s)?);
    let mut index = vec![0usize; dims.len()];
    let mut segments = src.segments(8 << 10);
    while let Some(seg) = segments.next_segment().map_err(s)? {
        for e in 0..seg.len() {
            for (slot, &i) in index.iter_mut().zip(seg.index(e)) {
                *slot = i as usize;
            }
            if fixed.gen_range(0..10u32) != 0 {
                tsv_line(&mut train_out, &index, seg.value(e)).map_err(s)?;
            } else if sampled.gen_range(0..2u32) == 0 {
                tsv_line(&mut test_out, &index, seg.value(e)).map_err(s)?;
            }
        }
    }
    train_out.flush().map_err(s)?;
    test_out.flush().map_err(s)
}

pub fn read_tsv(path: &Path) -> Res<SparseTensor> {
    datagen::read_dataset(path, PRECISION).map_err(s)
}

pub fn tsv_to_scratch(path: &Path, budget: &MemoryBudget) -> Res<CooScratch> {
    datagen::tsv_to_scratch(path, PRECISION, budget).map_err(s)
}

/// The held-out entries that fall inside the model's grid (TSV dims are
/// per-file maxima, so a row seen only in the test file has no factor
/// row), re-shaped to the model's dims. Returns the tensor and how many
/// entries were dropped.
pub fn test_entries_in_grid(test: &SparseTensor, dims: &[usize]) -> Res<(SparseTensor, usize)> {
    let mut indices = Vec::with_capacity(test.nnz() * dims.len());
    let mut values = Vec::with_capacity(test.nnz());
    for (index, value) in test.iter() {
        if index.iter().zip(dims).all(|(i, d)| i < d) {
            indices.extend_from_slice(index);
            values.push(value);
        }
    }
    let dropped = test.nnz() - values.len();
    let inside = SparseTensor::from_flat(dims.to_vec(), indices, values).map_err(s)?;
    Ok((inside, dropped))
}

// ------------------------------------------------------------------ fits

pub fn fit(x: &SparseTensor, cfg: &FitConfig) -> Res<FitResult> {
    cfg.solver(x.order(), cfg.budget())?.fit(x).map_err(s)
}

pub fn fit_with_sync<S: FitSync>(
    x: &SparseTensor,
    cfg: &FitConfig,
    sync: &mut S,
) -> Res<FitResult> {
    cfg.solver(x.order(), cfg.budget())?
        .fit_with_sync(x, sync)
        .map_err(s)
}

/// The disk-to-disk fit. `budget` must be the budget `src` was ingested
/// under, so scratch I/O and the plan are metered on one meter.
pub fn fit_scratch(src: &CooScratch, cfg: &FitConfig, budget: &MemoryBudget) -> Res<FitResult> {
    cfg.solver(src.order(), budget.clone())?
        .fit_scratch(src)
        .map_err(s)
}

pub fn fit_scratch_with_sync<S: FitSync>(
    src: &CooScratch,
    cfg: &FitConfig,
    budget: &MemoryBudget,
    sync: &mut S,
) -> Res<FitResult> {
    cfg.solver(src.order(), budget.clone())?
        .fit_scratch_with_sync(src, sync)
        .map_err(s)
}

pub struct ShardedOutcome {
    pub fit: FitResult,
    pub worker_stats: Vec<WorkerStatsMsg>,
    pub recovered: Vec<String>,
}

/// A sharded fit over `workers` re-executions of this binary.
pub fn fit_sharded(x: &SparseTensor, cfg: &FitConfig, workers: usize) -> Res<ShardedOutcome> {
    let out = ShardedFit::new(workers, WorkerSpawn::CurrentExe)
        .fit(x, cfg.options(x.order(), cfg.budget()))
        .map_err(s)?;
    Ok(ShardedOutcome {
        fit: out.fit,
        worker_stats: out.worker_stats,
        recovered: out.recovered,
    })
}

pub fn test_rmse(model: &TuckerDecomposition, test: &SparseTensor, threads: usize) -> f64 {
    model.test_rmse(test, threads, Schedule::Static)
}

/// The fit's residual pass on its own: `Σ (x − x̂)²` over `x`'s entries in
/// `threads` static blocks, each reconstruction through the run-blocked
/// kernel the driver's in-loop error pass uses (`Predictor::predict` is
/// that kernel; the public `sum_squared_error` is a slower per-entry walk).
pub fn residual_pass(predictor: &Predictor, x: &SparseTensor, threads: usize) -> f64 {
    let threads = threads.max(1);
    let block = x.nnz().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let blocks: Vec<_> = (0..threads)
            .map(|b| {
                scope.spawn(move || {
                    let entries = (b * block).min(x.nnz())..((b + 1) * block).min(x.nnz());
                    entries
                        .map(|e| (x.value(e) - predictor.predict(x.index(e))).powi(2))
                        .sum::<f64>()
                })
            })
            .collect();
        blocks
            .into_iter()
            .map(|h| h.join().expect("residual block panicked"))
            .sum()
    })
}

pub fn store_model(model: &TuckerDecomposition, path: &Path) -> Res<()> {
    model.store(path).map_err(s)
}

pub fn load_model(path: &Path) -> Res<TuckerDecomposition> {
    TuckerDecomposition::load(path).map_err(s)
}

pub fn predictor(model: TuckerDecomposition) -> Res<Predictor> {
    Predictor::new(model).map_err(s)
}

/// `model` with every factor entry nudged by up to ±5e-4 — a second
/// snapshot of the same shape for the publisher to alternate with, whose
/// answers differ from the first's in their low bits.
pub fn perturbed_model(model: &TuckerDecomposition, seed: u64) -> TuckerDecomposition {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = model.clone();
    for factor in &mut out.factors {
        for v in factor.as_mut_slice() {
            *v += 1e-3 * (rng.gen::<f64>() - 0.5);
        }
    }
    out
}

// ----------------------------------------------------------- layer probes

pub fn plan_build_resident(x: &SparseTensor) -> Res<ModeStreams> {
    ModeStreams::build_at(x, PRECISION).map_err(s)
}

pub fn plan_build_external(src: &CooScratch, budget: &MemoryBudget) -> Res<ModeStreams> {
    ModeStreams::build_external_at(src, budget, PRECISION).map_err(s)
}

pub fn plan_bytes_resident(x: &SparseTensor) -> usize {
    ModeStreams::bytes_for_at(x, PRECISION)
}

pub fn plan_bytes_spilled(dims: &[usize], nnz: usize) -> usize {
    ModeStreams::spilled_bytes_for_dims(dims, nnz, PRECISION)
}

/// Bytes one stream position of a spilled plan occupies in a window
/// buffer: the value, the packed other-mode indices and the entry id —
/// the per-position cost the fit driver sizes its windows by.
pub fn spilled_position_bytes(order: usize) -> usize {
    PRECISION.value_bytes() + 4 * (order - 1) + 4
}

/// Sweeps every mode of `plan` window by window without computing
/// anything — the refill cost of a spilled sweep on its own. Returns
/// `(windows, positions)` over all modes.
pub fn dry_sweep(plan: &ModeStreams, cap_positions: usize, depth: usize) -> Res<(usize, usize)> {
    let mut source = plan.sweep_source_deep(0, cap_positions, depth);
    let (mut windows, mut positions) = (0, 0);
    for mode in 0..plan.order() {
        source.rewind(mode);
        while let Some(w) = source.next_window().map_err(s)? {
            windows += 1;
            positions += std::hint::black_box(w.stream.len());
        }
    }
    Ok((windows, positions))
}

/// Householder QR of `factor`, result discarded.
pub fn qr(factor: &ptucker_linalg::Matrix) -> Res<()> {
    std::hint::black_box(factor.qr().map_err(s)?);
    Ok(())
}

/// A framed echo over a Unix socket pair: `rounds` round trips of a
/// `payload_bytes` frame through `Channel::send_frame` /
/// `recv_frame_into` on both ends. Returns the per-round-trip seconds.
pub fn frame_roundtrips(payload_bytes: usize, rounds: usize) -> Res<Vec<f64>> {
    use ptucker_transport::Channel;
    let (a, b) = UnixStream::pair().map_err(s)?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let mut chan = Channel::new(b.try_clone()?, b);
        let mut buf = Vec::new();
        for _ in 0..rounds {
            let tag = chan.recv_frame_into(&mut buf)?;
            chan.send_frame(tag, &buf)?;
        }
        Ok(())
    });
    let mut chan = Channel::new(a.try_clone().map_err(s)?, a);
    let payload = vec![0x5au8; payload_bytes];
    let mut back = Vec::new();
    let mut secs = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = std::time::Instant::now();
        chan.send_frame(1, &payload).map_err(s)?;
        chan.recv_frame_into(&mut back).map_err(s)?;
        secs.push(t.elapsed().as_secs_f64());
    }
    echo.join()
        .map_err(|_| "echo thread panicked".to_string())?
        .map_err(s)?;
    Ok(secs)
}

// --------------------------------------------------------------- serving

pub fn serve(socket: &Path, predictor: Predictor) -> Res<ServeHandle> {
    ptucker_serve::serve(socket, predictor, ServeOptions::default()).map_err(s)
}

pub fn connect(handle: &ServeHandle) -> Res<Client> {
    handle.connect().map_err(s)
}
