use crate::{PtuckerError, Result};
use ptucker_memtrack::MemoryBudget;
use ptucker_sched::Schedule;

/// Which P-Tucker variant to run (Section III-C of the paper).
///
/// The paper is explicit that "users ought to select a method from P-TUCKER
/// and its variations in advance" — the choice is a configuration, not an
/// automatic policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    /// Memory-optimized default: `O(T·J²)` intermediate data (Theorem 4).
    Default,
    /// P-Tucker-Cache: memoizes the per-(entry, core-entry) products in a
    /// `|Ω|×|G|` table, trading `O(|Ω|·J^N)` memory (Theorem 6) for an
    /// `N`→`1` reduction in the δ inner loop (Theorem 5).
    Cache,
    /// P-Tucker-Approx: truncates the top `p·|G|` "noisiest" core entries
    /// (highest partial reconstruction error `R(β)`, Eq. 13) every
    /// iteration.
    Approx {
        /// Truncation rate `p ∈ [0, 1)` per iteration (paper default 0.2;
        /// `0` truncates nothing and degenerates to [`Variant::Default`]
        /// exactly — useful for kernel-equivalence testing).
        truncation_rate: f64,
    },
}

/// Storage precision for the *streamed* data of a fit: the execution
/// plan's entry values, resident and spilled, and (for
/// [`Variant::Cache`]) the resident Pres table. Re-exported from
/// `ptucker-tensor`, which owns the stored representations;
/// [`StoragePrecision::F32`] halves the bytes-per-entry of the
/// bandwidth-bound sweeps and doubles how far a [`MemoryBudget`] reaches
/// before a plan spills or a Cache table is O.O.M., at the cost of
/// rounding each observed value once to `f32` on ingest. Arithmetic always
/// stays `f64`, and the fit's placement guarantee (resident ≡ spilled
/// bitwise) holds *within* each precision.
pub use ptucker_tensor::StoragePrecision;

/// Configuration for a P-Tucker fit. Construct with
/// [`FitOptions::new`] and chain the builder methods.
///
/// ```
/// use ptucker::{FitOptions, Variant};
///
/// let opts = FitOptions::new(vec![3, 3, 3])
///     .lambda(0.01)
///     .max_iters(10)
///     .threads(4)
///     .variant(Variant::Approx { truncation_rate: 0.2 })
///     .seed(42);
/// assert!(opts.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FitOptions {
    /// Core dimensionalities `J₁ … J_N` (the Tucker ranks).
    pub ranks: Vec<usize>,
    /// L2 regularization `λ` for the factor matrices (paper default 0.01).
    pub lambda: f64,
    /// Maximum number of ALS iterations (paper default 20).
    pub max_iters: usize,
    /// Relative-change convergence tolerance on the reconstruction error.
    pub tol: f64,
    /// Number of worker threads `T` (paper default 20; ours defaults to the
    /// machine's available parallelism).
    pub threads: usize,
    /// Scheduling policy for the row updates (paper: dynamic).
    pub schedule: Schedule,
    /// Which algorithm variant to run.
    pub variant: Variant,
    /// RNG seed for factor/core initialization.
    pub seed: u64,
    /// Budget for intermediate data (see `ptucker-memtrack`).
    pub budget: MemoryBudget,
    /// Extension (paper future work / author code): refit the core as
    /// `G = X ×₁ Q⁽¹⁾ᵀ ⋯ ×_N Q⁽ᴺ⁾ᵀ` over observed entries after
    /// orthogonalization. Off by default to stay paper-faithful.
    pub refit_core: bool,
    /// Extension (paper future work): during factor updates, use every
    /// `sample_stride`-th observed entry of each slice (1 = use all).
    pub sample_stride: usize,
    /// Out-of-core fits only: overlap each window's scratch-file read with
    /// the previous window's row updates (a second pinned buffer + a
    /// background refill thread — both buffers are counted against the
    /// budget). On by default; the driver still reads synchronously when
    /// windows are too small to amortize the hand-off. Never changes
    /// results — spilled sweeps are bitwise identical either way.
    pub prefetch: bool,
    /// Out-of-core fits only: number of pinned window buffers in the
    /// prefetch ring (default 2 — the classic double buffer: one buffer
    /// being consumed, one being refilled in the background). Depth `d`
    /// keeps up to `d − 1` refills banked ahead of the consumer, smoothing
    /// bursty window costs at the price of `d` budget-metered buffers.
    /// The driver self-gates per fit: it only engages the deepest depth
    /// `≤ prefetch_depth` whose buffers still fit the [`MemoryBudget`]
    /// with amortizable windows, falling back toward the synchronous
    /// single buffer — so requesting a deeper ring never loses to a
    /// shallower one. Ignored when [`FitOptions::prefetch`] is off.
    /// Never changes results at any depth.
    pub prefetch_depth: usize,
    /// Storage precision for streamed data (plan values, Pres table).
    /// Default [`StoragePrecision::F64`]; see [`StoragePrecision`] for the
    /// f32-storage/f64-arithmetic trade-off.
    pub precision: StoragePrecision,
    /// When set, the fit atomically snapshots its full state (factors,
    /// core, iteration counter, per-iteration stats, kernel auxiliary
    /// state) to this path every [`FitOptions::checkpoint_every`]
    /// iterations, so an interrupted fit can continue **bitwise** via
    /// [`FitOptions::resume_from`]. `None` (the default) checkpoints
    /// nothing.
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Checkpoint cadence in iterations (1 = after every iteration).
    /// Ignored unless [`FitOptions::checkpoint_path`] is set.
    pub checkpoint_every: usize,
    /// When set, the fit loads this checkpoint after initialization and
    /// continues from its recorded iteration instead of iteration 0. The
    /// resumed trajectory — including the already-recorded iteration
    /// stats — is bitwise identical to the uninterrupted fit's. The
    /// checkpoint must match the fit's configuration and tensor (a
    /// fingerprint is verified).
    pub resume_from: Option<std::path::PathBuf>,
}

impl FitOptions {
    /// Creates options with the paper's defaults for the given ranks.
    pub fn new(ranks: Vec<usize>) -> Self {
        FitOptions {
            ranks,
            lambda: 0.01,
            max_iters: 20,
            tol: 1e-4,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            schedule: Schedule::dynamic(),
            variant: Variant::Default,
            seed: 0,
            budget: MemoryBudget::default(),
            refit_core: false,
            sample_stride: 1,
            prefetch: true,
            prefetch_depth: 2,
            precision: StoragePrecision::F64,
            checkpoint_path: None,
            checkpoint_every: 1,
            resume_from: None,
        }
    }

    /// Sets the regularization parameter `λ`.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the maximum iteration count.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Sets the convergence tolerance (relative error change).
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the number of worker threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the scheduling policy for row updates.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Selects the algorithm variant.
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the RNG seed for initialization.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the intermediate-data budget.
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables/disables the observed-entry core refit extension.
    pub fn refit_core(mut self, on: bool) -> Self {
        self.refit_core = on;
        self
    }

    /// Sets the observed-entry sampling stride (1 = no sampling).
    pub fn sample_stride(mut self, stride: usize) -> Self {
        self.sample_stride = stride;
        self
    }

    /// Enables/disables the double-buffered window prefetch of out-of-core
    /// fits (on by default; irrelevant to fits that stay resident).
    pub fn prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self
    }

    /// Sets the prefetch ring depth for out-of-core fits (default 2; 1
    /// degenerates to synchronous refills). The driver clamps the
    /// *effective* depth down per fit so a deeper request never loses.
    pub fn prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }

    /// Sets the storage precision for streamed data (f64 default).
    pub fn precision(mut self, precision: StoragePrecision) -> Self {
        self.precision = precision;
        self
    }

    /// Enables periodic checkpointing to `path` (atomic write-temp +
    /// fsync + rename; see [`crate::checkpoint::FitCheckpoint`]).
    pub fn checkpoint_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Sets the checkpoint cadence in iterations (default 1).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Resumes the fit from a checkpoint written by a previous run with
    /// [`FitOptions::checkpoint_path`]; the continued trajectory is
    /// bitwise identical to the uninterrupted fit's.
    pub fn resume_from(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Checks internal consistency (rank positivity, rate ranges, …).
    ///
    /// # Errors
    /// [`PtuckerError::InvalidConfig`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        if self.ranks.is_empty() {
            return Err(PtuckerError::InvalidConfig(
                "ranks must be non-empty".into(),
            ));
        }
        if self.ranks.contains(&0) {
            return Err(PtuckerError::InvalidConfig("all ranks must be >= 1".into()));
        }
        if !(self.lambda >= 0.0 && self.lambda.is_finite()) {
            return Err(PtuckerError::InvalidConfig(
                "lambda must be finite and >= 0".into(),
            ));
        }
        if !(self.tol >= 0.0 && self.tol.is_finite()) {
            return Err(PtuckerError::InvalidConfig(
                "tol must be finite and >= 0".into(),
            ));
        }
        if self.max_iters == 0 {
            return Err(PtuckerError::InvalidConfig("max_iters must be >= 1".into()));
        }
        if self.sample_stride == 0 {
            return Err(PtuckerError::InvalidConfig(
                "sample_stride must be >= 1".into(),
            ));
        }
        if let Variant::Approx { truncation_rate } = self.variant {
            if !(0.0..1.0).contains(&truncation_rate) {
                return Err(PtuckerError::InvalidConfig(
                    "truncation_rate must be in [0, 1)".into(),
                ));
            }
        }
        if self.prefetch_depth == 0 {
            return Err(PtuckerError::InvalidConfig(
                "prefetch_depth must be >= 1".into(),
            ));
        }
        if self.checkpoint_every == 0 {
            return Err(PtuckerError::InvalidConfig(
                "checkpoint_every must be >= 1".into(),
            ));
        }
        Ok(())
    }

    /// Validates the options against a concrete tensor shape.
    ///
    /// # Errors
    /// [`PtuckerError::InvalidConfig`] if the rank arity does not match the
    /// tensor order or some `Jₙ > Iₙ`.
    pub fn validate_for(&self, dims: &[usize]) -> Result<()> {
        self.validate()?;
        if self.ranks.len() != dims.len() {
            return Err(PtuckerError::InvalidConfig(format!(
                "ranks have order {} but the tensor has order {}",
                self.ranks.len(),
                dims.len()
            )));
        }
        for (n, (&j, &i)) in self.ranks.iter().zip(dims).enumerate() {
            if j > i {
                return Err(PtuckerError::InvalidConfig(format!(
                    "rank J_{n} = {j} exceeds dimensionality I_{n} = {i}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = FitOptions::new(vec![10, 10, 10]);
        assert_eq!(o.lambda, 0.01);
        assert_eq!(o.max_iters, 20);
        assert_eq!(o.sample_stride, 1);
        assert!(!o.refit_core);
        assert!(o.prefetch);
        assert_eq!(o.prefetch_depth, 2);
        assert_eq!(o.precision, StoragePrecision::F64);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn precision_semantics() {
        assert_eq!(StoragePrecision::F64.value_bytes(), 8);
        assert_eq!(StoragePrecision::F32.value_bytes(), 4);
        // Quantize: identity for f64, one rounding for f32.
        let v = 0.1f64;
        assert_eq!(StoragePrecision::F64.quantize(v).to_bits(), v.to_bits());
        assert_eq!(
            StoragePrecision::F32.quantize(v).to_bits(),
            (0.1f32 as f64).to_bits()
        );
        // Already-representable values survive the f32 round-trip exactly.
        assert_eq!(StoragePrecision::F32.quantize(0.5), 0.5);
        let o = FitOptions::new(vec![2]).precision(StoragePrecision::F32);
        assert_eq!(o.precision, StoragePrecision::F32);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn builder_chains() {
        let o = FitOptions::new(vec![2, 2])
            .lambda(0.5)
            .max_iters(3)
            .tol(1e-6)
            .threads(2)
            .seed(7)
            .sample_stride(2)
            .refit_core(true)
            .variant(Variant::Cache);
        assert_eq!(o.lambda, 0.5);
        assert_eq!(o.max_iters, 3);
        assert_eq!(o.threads, 2);
        assert_eq!(o.seed, 7);
        assert_eq!(o.sample_stride, 2);
        assert!(o.refit_core);
        assert_eq!(o.variant, Variant::Cache);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(FitOptions::new(vec![]).validate().is_err());
        assert!(FitOptions::new(vec![0, 2]).validate().is_err());
        assert!(FitOptions::new(vec![2])
            .lambda(f64::NAN)
            .validate()
            .is_err());
        assert!(FitOptions::new(vec![2]).lambda(-1.0).validate().is_err());
        assert!(FitOptions::new(vec![2]).max_iters(0).validate().is_err());
        assert!(FitOptions::new(vec![2]).tol(-0.1).validate().is_err());
        assert!(FitOptions::new(vec![2])
            .sample_stride(0)
            .validate()
            .is_err());
        assert!(FitOptions::new(vec![2])
            .prefetch_depth(0)
            .validate()
            .is_err());
        assert!(FitOptions::new(vec![2])
            .prefetch_depth(4)
            .validate()
            .is_ok());
        // Rate 0 is the valid "truncate nothing" degenerate case; 1.0 and
        // negatives/NaN are rejected.
        assert!(FitOptions::new(vec![2])
            .variant(Variant::Approx {
                truncation_rate: 0.0
            })
            .validate()
            .is_ok());
        assert!(FitOptions::new(vec![2])
            .variant(Variant::Approx {
                truncation_rate: 1.0
            })
            .validate()
            .is_err());
        assert!(FitOptions::new(vec![2])
            .variant(Variant::Approx {
                truncation_rate: -0.1
            })
            .validate()
            .is_err());
        assert!(FitOptions::new(vec![2])
            .variant(Variant::Approx {
                truncation_rate: f64::NAN
            })
            .validate()
            .is_err());
    }

    #[test]
    fn validate_for_checks_shape() {
        let o = FitOptions::new(vec![3, 3]);
        assert!(o.validate_for(&[10, 10]).is_ok());
        assert!(o.validate_for(&[10, 10, 10]).is_err());
        assert!(o.validate_for(&[10, 2]).is_err());
    }
}
