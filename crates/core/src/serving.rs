//! The read-path seam between a fitted model and a query server.
//!
//! A [`Predictor`] wraps a [`TuckerDecomposition`] together with the one
//! piece of derived state the run-blocked kernels need — the core's
//! [`RunPlan`] (the entry-independent run metadata, built once: the model
//! is immutable) — and exposes the two serving primitives:
//!
//! * **point reconstruction** ([`Predictor::predict`]): one entry
//!   `x̂_α = Σ_β G_β Πₙ a⁽ⁿ⁾(iₙ, βₙ)` through the same
//!   [`RunPlan::reconstruct`] micro-kernel the fit's residual pass runs
//!   on, so a served prediction is **bitwise identical** to the value the
//!   trainer would compute;
//! * **mode sweep scoring** ([`Predictor::scores_into`]): given the
//!   query's other-mode indices, one δ accumulation
//!   (`delta_for_entry` — the δ is *independent of the target
//!   row*) followed by a row-per-candidate `dot` against the target
//!   mode's factor — `O(|G| + Iₙ·Jₙ)` for all `Iₙ` candidates instead of
//!   `O(Iₙ·|G|·N)` naive reconstructions. This is the top-K
//!   recommendation kernel: the caller ranks the scores.
//!
//! Both paths write into caller-owned buffers and allocate nothing, so a
//! server can pin one scratch arena per worker thread and keep its query
//! hot path allocation-free.
//!
//! The plan carries **no tail-dot table** here: a query pays the
//! per-entry tail `dot` that the fit's table memoizes — the same function,
//! so the bits agree either way. (Memoizing it per model makes a point
//! query about three times cheaper; CHANGES.md, PR 13, records why that
//! was measured and then withdrawn.)
//!
//! The storage-precision hook mirrors the fit engine's: a predictor built
//! with [`StoragePrecision::F32`] keeps an f32 copy of each factor and
//! scores candidates through the widening
//! [`ptucker_linalg::kernels::dot_f32_f64`] kernel (f32
//! model memory, f64 accumulation — half the factor traffic on the
//! scoring sweep). Point queries always read the f64 factors: a served
//! prediction stays bitwise exact in either mode.
//!
//! # Model files
//!
//! [`TuckerDecomposition::store`]/[`load`](TuckerDecomposition::load)
//! persist a fitted model as a sealed file, the envelope fit checkpoints
//! use too ([`ptucker_transport::wire::seal`]): magic `"PTKMODL1"`, a
//! `u32` format version, the factor and core sections checkpoints also
//! carry (same codec), and a trailing FNV-1a checksum, written by
//! [`ptucker_transport::wire::write_atomically`] (temp file → fsync →
//! rename). Corrupt or truncated files fail with a named
//! [`PtuckerError::Model`], never a panic or an allocation larger than
//! the file.

use crate::checkpoint::{decode_sections, encode_sections};
#[cfg(test)]
use crate::delta::{core_runs, reconstruct_entry_blocked};
use crate::delta::{delta_for_entry, RunPlan};
use crate::{PtuckerError, Result, StoragePrecision, TuckerDecomposition};
use ptucker_linalg::kernels::{dot, dot_f32_f64};
use ptucker_transport::wire;
use std::path::Path;

/// Leading magic of every serialized model file.
const MAGIC: [u8; 8] = *b"PTKMODL1";

/// Current model file format version.
const FORMAT_VERSION: u32 = 1;

fn md(msg: String) -> PtuckerError {
    PtuckerError::Model(msg)
}

impl TuckerDecomposition {
    /// Serializes the model to its on-disk byte format (including the
    /// trailing checksum). See the [module docs](self) for the layout.
    pub fn encode(&self) -> Vec<u8> {
        wire::seal(&MAGIC, FORMAT_VERSION, |e| {
            encode_sections(e, &self.factors, &self.core);
        })
    }

    /// Parses and validates a model blob: magic, format version and
    /// trailing checksum are all checked before any field is trusted.
    /// The round trip is bitwise (`f64` values travel as raw bits).
    ///
    /// # Errors
    /// [`PtuckerError::Model`] naming the specific defect — bad magic,
    /// unsupported version, checksum mismatch, truncation, or an
    /// inconsistent field.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let decode = || -> wire::Result<Self> {
            let mut d = wire::open(&MAGIC, FORMAT_VERSION, "model", bytes)?;
            let (factors, core) = decode_sections(&mut d)?;
            d.finish()?;
            Ok(TuckerDecomposition { factors, core })
        };
        decode().map_err(|e| md(e.0))
    }

    /// Atomically writes the model to `path` (see
    /// [`wire::write_atomically`]): a crash at any point leaves either the
    /// old model or the new one, never a torn file.
    ///
    /// # Errors
    /// [`PtuckerError::Model`] wrapping the failed I/O step.
    pub fn store(&self, path: &Path) -> Result<()> {
        wire::write_atomically(path, &self.encode()).map_err(|e| md(e.to_string()))
    }

    /// Reads and validates a model from `path`.
    ///
    /// # Errors
    /// [`PtuckerError::Model`] on I/O failure or any decode defect (see
    /// [`TuckerDecomposition::decode`]).
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| md(format!("read {}: {e}", path.display())))?;
        TuckerDecomposition::decode(&bytes)
    }
}

/// A [`TuckerDecomposition`] prepared for serving: the core's run plan
/// precomputed once, optional f32 factor copies for the scoring sweep.
/// See the [module docs](self) for the two query primitives and their
/// cost model.
#[derive(Debug, Clone)]
pub struct Predictor {
    decomposition: TuckerDecomposition,
    /// The [`RunPlan`] of the decomposition's core — the blocking
    /// structure every query rides (metadata only, no tail-dot table).
    runs: RunPlan,
    /// Row-major f32 copy of each factor under
    /// [`StoragePrecision::F32`]; empty in f64 mode.
    factors_f32: Vec<Vec<f32>>,
    precision: StoragePrecision,
}

impl Predictor {
    /// Prepares a decomposition for serving at full f64 precision.
    ///
    /// # Errors
    /// [`PtuckerError::Model`] if the factors and core disagree on order
    /// or ranks (a model that cannot answer any query).
    pub fn new(decomposition: TuckerDecomposition) -> Result<Self> {
        Self::with_precision(decomposition, StoragePrecision::F64)
    }

    /// Prepares a decomposition for serving with an explicit
    /// storage-precision mode for the scoring sweep. Point queries are
    /// f64 (bitwise) in either mode; see the [module docs](self).
    ///
    /// # Errors
    /// [`PtuckerError::Model`] if the factors and core disagree on order
    /// or ranks.
    pub fn with_precision(
        decomposition: TuckerDecomposition,
        precision: StoragePrecision,
    ) -> Result<Self> {
        let order = decomposition.factors.len();
        if order == 0 {
            return Err(md("model has no factor matrices".into()));
        }
        if decomposition.core.order() != order {
            return Err(md(format!(
                "core order {} does not match factor count {order}",
                decomposition.core.order()
            )));
        }
        for (n, a) in decomposition.factors.iter().enumerate() {
            if a.cols() != decomposition.core.dims()[n] {
                return Err(md(format!(
                    "factor {n} has {} columns but the core's rank is {}",
                    a.cols(),
                    decomposition.core.dims()[n]
                )));
            }
        }
        let runs = RunPlan::new(&decomposition.core);
        let factors_f32 = match precision {
            StoragePrecision::F64 => Vec::new(),
            StoragePrecision::F32 => decomposition
                .factors
                .iter()
                .map(|a| a.as_slice().iter().map(|&v| v as f32).collect())
                .collect(),
        };
        Ok(Predictor {
            decomposition,
            runs,
            factors_f32,
            precision,
        })
    }

    /// The wrapped model.
    pub fn decomposition(&self) -> &TuckerDecomposition {
        &self.decomposition
    }

    /// Storage precision of the scoring sweep.
    pub fn precision(&self) -> StoragePrecision {
        self.precision
    }

    /// Tensor dimensionalities `I₁ … I_N` implied by the factors.
    pub fn dims(&self) -> Vec<usize> {
        self.decomposition.dims()
    }

    /// Tucker ranks `J₁ … J_N`.
    pub fn ranks(&self) -> Vec<usize> {
        self.decomposition.ranks()
    }

    /// Tensor order `N`.
    pub fn order(&self) -> usize {
        self.decomposition.factors.len()
    }

    /// Reconstructs one cell through the run-blocked kernel — bitwise
    /// identical to the trainer's residual-pass reconstruction of the
    /// same cell, and allocation-free.
    ///
    /// # Panics
    /// Panics (in debug builds) on wrong arity; out-of-range indices
    /// panic on factor row access — validate against [`Predictor::dims`]
    /// first when the index is untrusted.
    pub fn predict(&self, index: &[usize]) -> f64 {
        debug_assert_eq!(index.len(), self.order());
        self.runs
            .reconstruct(index, &self.decomposition.core, &self.decomposition.factors)
    }

    /// Accumulates the query's δ vector into `delta` (cleared first):
    /// `δ(j) = Σ_{β, βₙ=j} G_β Π_{k≠n} a⁽ᵏ⁾(iₖ, βₖ)`. `others` holds the
    /// other-mode indices in ascending mode order with `mode` skipped;
    /// `delta.len()` must be the mode's rank `Jₙ`. Allocation-free.
    ///
    /// # Panics
    /// Panics (in debug builds) on wrong arity or δ length; out-of-range
    /// indices panic on factor row access.
    pub fn delta_into(&self, others: &[u32], mode: usize, delta: &mut [f64]) {
        debug_assert_eq!(others.len(), self.order() - 1);
        debug_assert_eq!(delta.len(), self.decomposition.core.dims()[mode]);
        delta_for_entry(
            delta,
            others,
            mode,
            self.decomposition.core.flat_indices(),
            self.decomposition.core.values(),
            &self.runs,
            &self.decomposition.factors,
        );
    }

    /// Scores **every** candidate row of `mode` for the context `others`
    /// (other-mode indices, ascending mode order, `mode` skipped):
    /// `scores[i] = x̂(…, i, …) = a⁽ⁿ⁾(i, ·) · δ`. One δ accumulation
    /// into `delta` (length `Jₙ`), then a `dot` per row into `scores`
    /// (length `Iₙ`). Under [`StoragePrecision::F32`] the row side of
    /// each dot reads the f32 factor copy through the widening kernel.
    /// Allocation-free; the caller ranks the scores (see
    /// `ptucker_linalg::kernels::top_k_select`).
    ///
    /// # Panics
    /// Panics (in debug builds) on wrong arity or buffer lengths;
    /// out-of-range indices panic on factor row access.
    pub fn scores_into(&self, others: &[u32], mode: usize, delta: &mut [f64], scores: &mut [f64]) {
        let a = &self.decomposition.factors[mode];
        debug_assert_eq!(scores.len(), a.rows());
        self.delta_into(others, mode, delta);
        match self.precision {
            StoragePrecision::F64 => {
                for (i, s) in scores.iter_mut().enumerate() {
                    *s = dot(a.row(i), delta);
                }
            }
            StoragePrecision::F32 => {
                let q = &self.factors_f32[mode];
                let j = a.cols();
                for (i, s) in scores.iter_mut().enumerate() {
                    *s = dot_f32_f64(&q[i * j..(i + 1) * j], delta);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptucker_linalg::Matrix;
    use ptucker_tensor::CoreTensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_model(seed: u64, dims: &[usize], ranks: &[usize]) -> TuckerDecomposition {
        let mut rng = StdRng::seed_from_u64(seed);
        let factors = dims
            .iter()
            .zip(ranks)
            .map(|(&i_n, &j_n)| {
                Matrix::from_vec(
                    i_n,
                    j_n,
                    (0..i_n * j_n)
                        .map(|_| rng.gen::<f64>() * 2.0 - 1.0)
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let core = CoreTensor::dense_from_fn(ranks.to_vec(), |idx| {
            let mut h = 0.7;
            for &b in idx {
                h = h * 1.37 + b as f64 * 0.11;
            }
            h.sin()
        })
        .unwrap();
        TuckerDecomposition { factors, core }
    }

    #[test]
    fn predict_is_bitwise_the_blocked_kernel() {
        let model = random_model(3, &[5, 4, 6], &[2, 3, 2]);
        let runs = core_runs(model.core.flat_indices(), 3);
        let p = Predictor::new(model.clone()).unwrap();
        for index in [[0usize, 0, 0], [4, 3, 5], [2, 1, 3]] {
            let direct = reconstruct_entry_blocked(
                &index,
                model.core.flat_indices(),
                model.core.values(),
                &runs,
                &model.factors,
            );
            assert_eq!(p.predict(&index).to_bits(), direct.to_bits());
        }
        // And an f32-mode predictor serves the identical f64 point value.
        let p32 = Predictor::with_precision(model.clone(), StoragePrecision::F32).unwrap();
        for index in [[0usize, 0, 0], [4, 3, 5]] {
            assert_eq!(p32.predict(&index).to_bits(), p.predict(&index).to_bits());
        }
    }

    #[test]
    fn scores_match_per_cell_predictions() {
        let model = random_model(11, &[6, 5, 4], &[2, 2, 3]);
        let p = Predictor::new(model).unwrap();
        for mode in 0..3 {
            let dims = p.dims();
            let mut delta = vec![0.0; p.ranks()[mode]];
            let mut scores = vec![0.0; dims[mode]];
            // Context: a fixed index in every other mode.
            let others: Vec<u32> = (0..3)
                .filter(|&k| k != mode)
                .map(|k| (dims[k] - 1) as u32)
                .collect();
            p.scores_into(&others, mode, &mut delta, &mut scores);
            for (i, &s) in scores.iter().enumerate() {
                let mut index = vec![0usize; 3];
                let mut slot = 0;
                for k in 0..3 {
                    if k == mode {
                        index[k] = i;
                    } else {
                        index[k] = others[slot] as usize;
                        slot += 1;
                    }
                }
                let want = p.predict(&index);
                assert!(
                    (s - want).abs() <= 1e-12 * (1.0 + want.abs()),
                    "mode {mode} row {i}: {s} vs {want}"
                );
            }
        }
    }

    #[test]
    fn f32_mode_scores_through_the_quantized_rows() {
        let model = random_model(29, &[7, 3], &[2, 2]);
        let p64 = Predictor::new(model.clone()).unwrap();
        let p32 = Predictor::with_precision(model.clone(), StoragePrecision::F32).unwrap();
        let mut delta = vec![0.0; 2];
        let mut s64 = vec![0.0; 7];
        let mut s32 = vec![0.0; 7];
        p64.scores_into(&[1], 0, &mut delta, &mut s64);
        p32.scores_into(&[1], 0, &mut delta, &mut s32);
        for (i, (&a, &b)) in s64.iter().zip(&s32).enumerate() {
            // The f32 path must equal a dot of the quantized row exactly
            // (same widening kernel), and approximate the f64 score.
            let q: Vec<f32> = model.factors[0].row(i).iter().map(|&v| v as f32).collect();
            let exact = dot_f32_f64(&q, &delta);
            assert_eq!(b.to_bits(), exact.to_bits(), "row {i}");
            assert!(
                (a - b).abs() <= 1e-5 * (1.0 + a.abs()),
                "row {i}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn model_file_round_trips_bitwise() {
        let model = random_model(5, &[4, 3, 2], &[2, 2, 2]);
        let back = TuckerDecomposition::decode(&model.encode()).unwrap();
        assert_eq!(model.factors.len(), back.factors.len());
        for (a, b) in model.factors.iter().zip(&back.factors) {
            assert_eq!(a.rows(), b.rows());
            assert_eq!(a.cols(), b.cols());
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(model.core.dims(), back.core.dims());
        assert_eq!(model.core.flat_indices(), back.core.flat_indices());
        for (x, y) in model.core.values().iter().zip(back.core.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// **Frozen file bytes.** A hand-built format-1 model file, byte for
    /// byte. Stored models must keep loading, so a change here must bump
    /// `FORMAT_VERSION` on purpose.
    #[test]
    fn model_file_format_v1_is_frozen() {
        let model = TuckerDecomposition {
            factors: vec![
                Matrix::from_vec(2, 2, vec![1.0, -0.5, 0.25, 2.0]).unwrap(),
                Matrix::from_vec(3, 1, vec![0.125, -4.0, 8.0]).unwrap(),
            ],
            core: CoreTensor::from_entries(vec![2, 1], vec![(vec![0, 0], 1.5), (vec![1, 0], -3.0)])
                .unwrap(),
        };
        let bytes = model.encode();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "50544b4d4f444c31010000000200000000000000020000000000000002000000",
                "00000000000000000000f03f000000000000e0bf000000000000d03f00000000",
                "0000004003000000000000000100000000000000000000000000c03f00000000",
                "000010c000000000000020400200000000000000020000000000000001000000",
                "0000000002000000000000000000000000000000000000000000000001000000",
                "000000000000000000000000000000000000f83f00000000000008c087b64c46",
                "641284f4",
            )
        );
        assert_eq!(TuckerDecomposition::decode(&bytes).unwrap().encode(), bytes);
    }

    #[test]
    fn model_store_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("ptk-model-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ptm");
        let model = random_model(6, &[3, 3], &[2, 2]);
        model.store(&path).unwrap();
        let back = TuckerDecomposition::load(&path).unwrap();
        assert_eq!(model.encode(), back.encode());
        assert!(!path.with_file_name("model.ptm.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn model_corruption_is_named_not_panicked() {
        let good = random_model(7, &[3, 2], &[2, 2]).encode();

        let err = TuckerDecomposition::decode(&good[..good.len() - 5]).unwrap_err();
        assert!(matches!(err, PtuckerError::Model(_)), "{err}");

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let err = TuckerDecomposition::decode(&flipped).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        let mut bad_magic = good.clone();
        bad_magic[0] = b'Z';
        let err = TuckerDecomposition::decode(&bad_magic).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // A fit checkpoint is not a model file.
        let err = TuckerDecomposition::decode(b"PTKCKPT1everything else").unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        let err = TuckerDecomposition::decode(&[]).unwrap_err();
        assert!(matches!(err, PtuckerError::Model(_)), "{err}");

        // A zero-order core claiming a huge nnz: no factors, order 0,
        // nnz = 2⁶¹, under a valid checksum. Nothing indexes such a core,
        // so only the count rule stands between nnz and an allocation.
        let mut huge = b"PTKMODL1".to_vec();
        huge.extend_from_slice(&1u32.to_le_bytes());
        for field in [0u64, 0, 1 << 61] {
            huge.extend_from_slice(&field.to_le_bytes());
        }
        let sum = ptucker_transport::fnv1a(&huge);
        huge.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(huge.len(), 44);
        let err = TuckerDecomposition::decode(&huge).unwrap_err();
        assert!(matches!(err, PtuckerError::Model(_)), "{err}");
    }

    #[test]
    fn predictor_rejects_inconsistent_shapes() {
        let model = random_model(8, &[3, 3], &[2, 2]);
        // Factor 1 with the wrong column count.
        let mut broken = model.clone();
        broken.factors[1] = Matrix::from_vec(3, 3, vec![0.0; 9]).unwrap();
        assert!(matches!(
            Predictor::new(broken).unwrap_err(),
            PtuckerError::Model(_)
        ));
        // No factors at all.
        let empty = TuckerDecomposition {
            factors: vec![],
            core: model.core.clone(),
        };
        assert!(Predictor::new(empty).is_err());
    }
}
