//! Bitwise checkpoint–resume for ALS fits.
//!
//! A [`FitCheckpoint`] snapshots everything the fit driver needs to
//! continue an interrupted fit **bitwise identically**: the factor
//! matrices, the core tensor, the convergence bookkeeping (`prev_err`,
//! the per-iteration stats so far, the next iteration index) and the
//! kernel's auxiliary state (`kernel_aux` — the Cache variant's `Pres`
//! table, whose incrementally rescaled values are *not* reproducible by
//! recomputation; see [`crate::engine::RowUpdateKernel::save_aux`]).
//!
//! # On-disk format
//!
//! A single little-endian binary blob:
//!
//! | field          | encoding                                         |
//! |----------------|--------------------------------------------------|
//! | magic          | 8 bytes `"PTKCKPT1"`                             |
//! | format version | `u32` (currently 1)                              |
//! | fingerprint    | `u64` FNV-1a over tensor + fit configuration     |
//! | next_iter      | `u64` — first iteration the resumed fit runs     |
//! | prev_err       | `f64` — convergence reference of `next_iter`     |
//! | iterations     | `u64` count, then per entry `iter: u64`, `reconstruction_error: f64`, `seconds: f64`, `core_nnz: u64` |
//! | factors        | `u64` count, then per factor `rows: u64`, `cols: u64`, row-major `f64` data |
//! | core           | `u64` order, dims as `u64`s, `u64` nnz, flat indices as `u64`s, values as `f64`s |
//! | kernel_aux     | `u64` byte length, then the kernel's opaque bytes |
//! | checksum       | `u64` FNV-1a over every preceding byte           |
//!
//! Magic, version and checksum are the sealed-file envelope of
//! [`ptucker_transport::wire`]; the factor and core sections are the
//! ones model files carry too (one codec for both). The trailing
//! checksum catches torn or bit-flipped files; the fingerprint catches
//! resuming against the wrong tensor or options (different dims, ranks,
//! seed, variant, precision, λ or data). Both fail with a named
//! [`crate::PtuckerError::Checkpoint`], never a panic; every count is
//! held to the bytes actually present before anything is allocated.
//!
//! # Atomicity
//!
//! [`FitCheckpoint::store`] writes through
//! [`ptucker_transport::wire::write_atomically`]: a sibling temp file,
//! `fsync`, `rename` over the destination, then a best-effort fsync of
//! the directory — a crash mid-write leaves the previous checkpoint
//! intact, never a truncated one.

use crate::{FitInput, FitOptions, IterStats, PtuckerError, Result, StoragePrecision, Variant};
use ptucker_linalg::Matrix;
use ptucker_tensor::CoreTensor;
use ptucker_transport::wire::{self, Dec, Enc, Fnv};
use std::path::Path;

/// Leading magic of every checkpoint file.
const MAGIC: [u8; 8] = *b"PTKCKPT1";

/// Current serialization format version.
const FORMAT_VERSION: u32 = 1;

/// A complete, self-validating snapshot of an ALS fit between two
/// iterations. See the [module docs](self) for the file format and
/// `FitOptions::{checkpoint_path, resume_from}` for the driver-level
/// cadence and resume switches.
#[derive(Debug, Clone)]
pub struct FitCheckpoint {
    /// FNV-1a over the tensor and fit configuration (see
    /// [`FitCheckpoint::fingerprint`]); a resume against a different
    /// tensor or options is rejected by this value.
    pub fingerprint: u64,
    /// The first iteration the resumed fit will run.
    pub next_iter: usize,
    /// The reconstruction error of iteration `next_iter - 1` — the
    /// convergence reference the resumed fit compares against.
    pub prev_err: f64,
    /// Stats of every completed iteration, so a resumed fit's final
    /// [`crate::FitStats::iterations`] equals the uninterrupted fit's.
    pub iterations: Vec<IterStats>,
    /// The factor matrices as of the end of iteration `next_iter - 1`.
    pub factors: Vec<Matrix>,
    /// The core tensor as of the end of iteration `next_iter - 1`.
    pub core: CoreTensor,
    /// The kernel's opaque auxiliary state (empty for kernels without
    /// any): the Cache variant's incrementally rescaled `Pres` table,
    /// which a rebuild cannot reproduce bitwise.
    pub kernel_aux: Vec<u8>,
}

impl FitCheckpoint {
    /// The configuration fingerprint stored in (and checked against)
    /// every checkpoint: FNV-1a over the tensor's dims, nnz, entries and
    /// values (in entry order), plus the fit's ranks, seed, variant,
    /// precision and λ — everything that must match for a resumed
    /// trajectory to be the same fit. A resident tensor and a scratch file
    /// holding the same entries hash the identical byte sequence, so a
    /// checkpoint written on one side of the resident/disk boundary
    /// resumes on the other.
    ///
    /// # Errors
    /// [`PtuckerError::Tensor`] if a disk-resident input cannot be read.
    pub fn fingerprint(input: &FitInput<'_>, opts: &FitOptions) -> Result<u64> {
        let mut h = Fnv::new();
        Self::fingerprint_config(&mut h, input.dims(), opts);
        h.u64(input.nnz() as u64);
        input.for_each_entry(0..input.nnz(), |idx, v| {
            for &i in idx {
                h.u64(i as u64);
            }
            h.f64(v);
        })?;
        Ok(h.finish())
    }

    /// The configuration prefix of the fingerprint: dims,
    /// ranks, seed, variant, precision, λ and the sampling stride, in a
    /// fixed order.
    fn fingerprint_config(h: &mut Fnv, dims: &[usize], opts: &FitOptions) {
        h.u64(dims.len() as u64);
        for &d in dims {
            h.u64(d as u64);
        }
        for &r in &opts.ranks {
            h.u64(r as u64);
        }
        h.u64(opts.seed);
        match opts.variant {
            Variant::Default => h.u64(0),
            Variant::Cache => h.u64(1),
            Variant::Approx { truncation_rate } => {
                h.u64(2);
                h.f64(truncation_rate);
            }
        }
        match opts.precision {
            StoragePrecision::F64 => h.u64(0),
            StoragePrecision::F32 => h.u64(1),
        }
        h.f64(opts.lambda);
        h.u64(opts.sample_stride.max(1) as u64);
    }

    /// Serializes the checkpoint to its on-disk byte format (including
    /// the trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        wire::seal(&MAGIC, FORMAT_VERSION, |e| {
            e.u64(self.fingerprint);
            e.usize(self.next_iter);
            e.f64(self.prev_err);
            e.usize(self.iterations.len());
            for s in &self.iterations {
                e.usize(s.iter);
                e.f64(s.reconstruction_error);
                e.f64(s.seconds);
                e.usize(s.core_nnz);
            }
            encode_sections(e, &self.factors, &self.core);
            e.bytes(&self.kernel_aux);
        })
    }

    /// Parses and validates a checkpoint blob: magic, format version and
    /// trailing checksum are all checked before any field is trusted.
    ///
    /// # Errors
    /// [`crate::PtuckerError::Checkpoint`] naming the specific defect —
    /// bad magic, unsupported version, checksum mismatch, truncation, or
    /// an inconsistent field.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let decode = || -> wire::Result<Self> {
            let mut d = wire::open(&MAGIC, FORMAT_VERSION, "checkpoint", bytes)?;
            let fingerprint = d.u64()?;
            let next_iter = d.usize()?;
            let prev_err = d.f64()?;
            let n_iters = d.count(32)?;
            let iterations = (0..n_iters)
                .map(|_| {
                    Ok(IterStats {
                        iter: d.usize()?,
                        reconstruction_error: d.f64()?,
                        seconds: d.f64()?,
                        core_nnz: d.usize()?,
                    })
                })
                .collect::<wire::Result<_>>()?;
            let (factors, core) = decode_sections(&mut d)?;
            let kernel_aux = d.bytes()?.to_vec();
            d.finish()?;
            Ok(FitCheckpoint {
                fingerprint,
                next_iter,
                prev_err,
                iterations,
                factors,
                core,
                kernel_aux,
            })
        };
        decode().map_err(|e| PtuckerError::Checkpoint(e.0))
    }

    /// Atomically writes the checkpoint to `path` (see
    /// [`wire::write_atomically`]): a crash at any point leaves either the
    /// old checkpoint or the new one, never a torn file.
    ///
    /// # Errors
    /// [`crate::PtuckerError::Checkpoint`] wrapping the failed I/O step.
    pub fn store(&self, path: &Path) -> Result<()> {
        wire::write_atomically(path, &self.encode())
            .map_err(|e| PtuckerError::Checkpoint(e.to_string()))
    }

    /// Reads and validates a checkpoint from `path`.
    ///
    /// # Errors
    /// [`crate::PtuckerError::Checkpoint`] on I/O failure or any decode
    /// defect (see [`FitCheckpoint::decode`]).
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path)
            .map_err(|e| PtuckerError::Checkpoint(format!("read {}: {e}", path.display())))?;
        FitCheckpoint::decode(&bytes)
    }
}

/// The factor and core sections checkpoints and model files share: a
/// `u64` factor count, then per factor `rows: u64`, `cols: u64` and its
/// row-major `f64`s; then the core's `u64` order, dims as `u64`s, `u64`
/// nnz, the `nnz × order` flat indices as `u64`s and the `nnz` values.
pub(crate) fn encode_sections(e: &mut Enc<'_>, factors: &[Matrix], core: &CoreTensor) {
    e.usize(factors.len());
    for m in factors {
        e.usize(m.rows());
        e.usize(m.cols());
        for &v in m.as_slice() {
            e.f64(v);
        }
    }
    e.usizes(core.dims());
    e.usize(core.nnz());
    for &i in core.flat_indices() {
        e.usize(i);
    }
    for &v in core.values() {
        e.f64(v);
    }
}

/// Reads what [`encode_sections`] wrote.
pub(crate) fn decode_sections(d: &mut Dec<'_>) -> wire::Result<(Vec<Matrix>, CoreTensor)> {
    let n_factors = d.count(16)?;
    let factors = (0..n_factors)
        .map(|_| {
            let (rows, cols) = (d.usize()?, d.usize()?);
            let cells = rows
                .checked_mul(cols)
                .ok_or_else(|| wire::Error::new("factor shape overflows"))?;
            d.check_count(cells, 8)?;
            let data = (0..cells).map(|_| d.f64()).collect::<wire::Result<_>>()?;
            Matrix::from_vec(rows, cols, data)
                .map_err(|e| wire::Error::new(format!("factor matrix malformed: {e}")))
        })
        .collect::<wire::Result<_>>()?;
    let dims = d.usizes()?;
    let order = dims.len();
    // Each core entry is `order` indices and one value.
    let nnz = d.count(8 * (order + 1))?;
    let flat = (0..nnz * order)
        .map(|_| d.usize())
        .collect::<wire::Result<Vec<_>>>()?;
    let entries = (0..nnz)
        .map(|e| Ok((flat[e * order..(e + 1) * order].to_vec(), d.f64()?)))
        .collect::<wire::Result<_>>()?;
    let core = CoreTensor::from_entries(dims, entries)
        .map_err(|e| wire::Error::new(format!("core tensor malformed: {e}")))?;
    Ok((factors, core))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptucker_transport::fnv1a;

    fn sample() -> FitCheckpoint {
        FitCheckpoint {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            next_iter: 3,
            prev_err: 0.125,
            iterations: vec![
                IterStats {
                    iter: 0,
                    reconstruction_error: 1.5,
                    seconds: 0.01,
                    core_nnz: 8,
                },
                IterStats {
                    iter: 1,
                    reconstruction_error: 0.5,
                    seconds: 0.02,
                    core_nnz: 8,
                },
            ],
            factors: vec![
                Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.5, 0.0]).unwrap(),
                Matrix::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]).unwrap(),
            ],
            core: CoreTensor::from_entries(
                vec![2, 2],
                vec![(vec![0, 0], 1.0), (vec![0, 1], -0.5), (vec![1, 1], 2.0)],
            )
            .unwrap(),
            kernel_aux: vec![7, 7, 7, 1, 2, 3],
        }
    }

    fn assert_same(a: &FitCheckpoint, b: &FitCheckpoint) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.next_iter, b.next_iter);
        assert_eq!(a.prev_err.to_bits(), b.prev_err.to_bits());
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.factors.len(), b.factors.len());
        for (x, y) in a.factors.iter().zip(&b.factors) {
            assert_eq!(x.rows(), y.rows());
            assert_eq!(x.cols(), y.cols());
            for (p, q) in x.as_slice().iter().zip(y.as_slice()) {
                assert_eq!(p.to_bits(), q.to_bits());
            }
        }
        assert_eq!(a.core.dims(), b.core.dims());
        assert_eq!(a.core.flat_indices(), b.core.flat_indices());
        for (p, q) in a.core.values().iter().zip(b.core.values()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        assert_eq!(a.kernel_aux, b.kernel_aux);
    }

    #[test]
    fn encode_decode_round_trips_bitwise() {
        let c = sample();
        let bytes = c.encode();
        let back = FitCheckpoint::decode(&bytes).unwrap();
        assert_same(&c, &back);
    }

    #[test]
    fn store_load_round_trips_and_is_atomic_on_rewrite() {
        let dir = std::env::temp_dir().join(format!("ptk-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fit.ckpt");
        let c = sample();
        c.store(&path).unwrap();
        let back = FitCheckpoint::load(&path).unwrap();
        assert_same(&c, &back);
        // Overwrite with a new snapshot: temp file is cleaned up, load
        // sees the new contents.
        let mut c2 = c.clone();
        c2.next_iter = 9;
        c2.store(&path).unwrap();
        assert_eq!(FitCheckpoint::load(&path).unwrap().next_iter, 9);
        assert!(!path.with_file_name("fit.ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_named_not_panicked() {
        let c = sample();
        let good = c.encode();

        // Truncation.
        let err = FitCheckpoint::decode(&good[..good.len() - 3]).unwrap_err();
        assert!(matches!(err, PtuckerError::Checkpoint(_)), "{err}");

        // Bit flip in the middle (checksum catches it).
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let err = FitCheckpoint::decode(&flipped).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // Bad magic.
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let err = FitCheckpoint::decode(&bad_magic).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // Unsupported version (checksum re-stamped so the version check
        // itself is what fires).
        let mut v2 = good.clone();
        v2[8..12].copy_from_slice(&2u32.to_le_bytes());
        let body_len = v2.len() - 8;
        let sum = fnv1a(&v2[..body_len]);
        let tail = v2.len() - 8;
        v2[tail..].copy_from_slice(&sum.to_le_bytes());
        let err = FitCheckpoint::decode(&v2).unwrap_err();
        assert!(err.to_string().contains("version 2"), "{err}");

        // Empty file.
        let err = FitCheckpoint::decode(&[]).unwrap_err();
        assert!(matches!(err, PtuckerError::Checkpoint(_)), "{err}");

        // A zero-order core claiming a huge nnz (fingerprint, next_iter,
        // prev_err, no iterations, no factors, order 0, nnz = 2⁶¹) under a
        // valid checksum: the count rule must reject it before allocating.
        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for field in [7u64, 1, 0, 0, 0, 0, 1 << 61, 0] {
            huge.extend_from_slice(&field.to_le_bytes());
        }
        let sum = fnv1a(&huge);
        huge.extend_from_slice(&sum.to_le_bytes());
        let err = FitCheckpoint::decode(&huge).unwrap_err();
        assert!(matches!(err, PtuckerError::Checkpoint(_)), "{err}");
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// A small hand-built checkpoint; `kernel_aux` as given.
    fn golden(kernel_aux: Vec<u8>) -> FitCheckpoint {
        FitCheckpoint {
            fingerprint: 0x0123_4567_89ab_cdef,
            next_iter: 2,
            prev_err: 0.5,
            iterations: vec![
                IterStats {
                    iter: 0,
                    reconstruction_error: 1.25,
                    seconds: 0.0625,
                    core_nnz: 2,
                },
                IterStats {
                    iter: 1,
                    reconstruction_error: 0.5,
                    seconds: 0.125,
                    core_nnz: 2,
                },
            ],
            factors: vec![
                Matrix::from_vec(2, 1, vec![1.0, -2.0]).unwrap(),
                Matrix::from_vec(3, 2, vec![0.5, 0.25, -1.0, 0.0, 2.0, 4.0]).unwrap(),
            ],
            core: CoreTensor::from_entries(
                vec![1, 2],
                vec![(vec![0, 0], 1.5), (vec![0, 1], -0.75)],
            )
            .unwrap(),
            kernel_aux,
        }
    }

    /// **Frozen file bytes.** Format-1 checkpoints — Direct (empty
    /// `kernel_aux`) and Cache (a non-empty one) — byte for byte. Files
    /// an older build wrote must keep decoding, so a change here must bump
    /// `FORMAT_VERSION` on purpose.
    #[test]
    fn checkpoint_format_v1_is_frozen() {
        let frozen = [
            (
                golden(Vec::new()),
                concat!(
                    "50544b434b50543101000000efcdab8967452301020000000000000000000000",
                    "0000e03f02000000000000000000000000000000000000000000f43f00000000",
                    "0000b03f02000000000000000100000000000000000000000000e03f00000000",
                    "0000c03f02000000000000000200000000000000020000000000000001000000",
                    "00000000000000000000f03f00000000000000c0030000000000000002000000",
                    "00000000000000000000e03f000000000000d03f000000000000f0bf00000000",
                    "0000000000000000000000400000000000001040020000000000000001000000",
                    "0000000002000000000000000200000000000000000000000000000000000000",
                    "0000000000000000000000000100000000000000000000000000f83f00000000",
                    "0000e8bf0000000000000000207d1b7dd6c21140",
                ),
            ),
            (
                golden(vec![0xa5, 0, 1, 2, 3, 4, 5, 6, 7, 0xff]),
                concat!(
                    "50544b434b50543101000000efcdab8967452301020000000000000000000000",
                    "0000e03f02000000000000000000000000000000000000000000f43f00000000",
                    "0000b03f02000000000000000100000000000000000000000000e03f00000000",
                    "0000c03f02000000000000000200000000000000020000000000000001000000",
                    "00000000000000000000f03f00000000000000c0030000000000000002000000",
                    "00000000000000000000e03f000000000000d03f000000000000f0bf00000000",
                    "0000000000000000000000400000000000001040020000000000000001000000",
                    "0000000002000000000000000200000000000000000000000000000000000000",
                    "0000000000000000000000000100000000000000000000000000f83f00000000",
                    "0000e8bf0a00000000000000a50001020304050607ff9eb014626da44592",
                ),
            ),
        ];
        for (c, want) in &frozen {
            let bytes = c.encode();
            assert_eq!(hex(&bytes), *want);
            assert_same(c, &FitCheckpoint::decode(&bytes).unwrap());
        }
    }

    /// **Frozen fingerprint.** A checkpoint stores this value and a
    /// resume compares it, so it must not move for the same tensor and
    /// options, or every existing checkpoint stops resuming.
    #[test]
    fn fingerprint_is_frozen() {
        use ptucker_tensor::SparseTensor;
        let x = SparseTensor::new(
            vec![3, 2, 2],
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![2, 1, 0], -0.5),
                (vec![1, 0, 1], 2.25),
                (vec![2, 1, 1], 0.125),
            ],
        )
        .unwrap();
        let opts = FitOptions::new(vec![2, 2, 1]).seed(7).lambda(0.01);
        let fp = |o: &FitOptions| FitCheckpoint::fingerprint(&FitInput::from(&x), o).unwrap();
        assert_eq!(fp(&opts), 5154021232213197550);
        let approx = opts
            .clone()
            .variant(Variant::Approx {
                truncation_rate: 0.25,
            })
            .precision(StoragePrecision::F32)
            .sample_stride(3);
        assert_eq!(fp(&approx), 16944017260971379538);
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        use ptucker_tensor::SparseTensor;
        let x = SparseTensor::new(vec![2, 2], vec![(vec![0, 0], 1.0), (vec![1, 1], 2.0)]).unwrap();
        let opts = FitOptions::new(vec![2, 2]).seed(7);
        let fp = |x: &SparseTensor, o: &FitOptions| {
            FitCheckpoint::fingerprint(&FitInput::from(x), o).unwrap()
        };
        let base = fp(&x, &opts);
        assert_eq!(base, fp(&x, &opts.clone()));
        assert_ne!(base, fp(&x, &opts.clone().seed(8)));
        assert_ne!(base, fp(&x, &opts.clone().lambda(0.5)));
        let y = SparseTensor::new(vec![2, 2], vec![(vec![0, 0], 1.0), (vec![1, 1], 2.5)]).unwrap();
        assert_ne!(base, fp(&y, &opts));
    }

    #[test]
    fn scratch_fingerprint_matches_resident() {
        use ptucker_memtrack::MemoryBudget;
        use ptucker_tensor::{CooScratch, SparseTensor};
        let x = SparseTensor::new(
            vec![4, 3, 2],
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![1, 2, 1], -0.5),
                (vec![3, 1, 0], 2.25),
            ],
        )
        .unwrap();
        let opts = FitOptions::new(vec![2, 2, 2]).seed(9);
        let budget = MemoryBudget::new(usize::MAX);
        let src = CooScratch::from_tensor(&x, &budget).unwrap();
        let resident = FitCheckpoint::fingerprint(&FitInput::from(&x), &opts).unwrap();
        let disk = |o: &FitOptions| FitCheckpoint::fingerprint(&FitInput::from(&src), o).unwrap();
        assert_eq!(resident, disk(&opts));
        assert_ne!(resident, disk(&opts.clone().seed(10)));
    }
}
