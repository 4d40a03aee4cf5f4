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
//! The trailing checksum catches torn or bit-flipped files; the
//! fingerprint catches resuming against the wrong tensor or options
//! (different dims, ranks, seed, variant, precision, λ or data). Both
//! fail with a named [`crate::PtuckerError::Checkpoint`], never a panic.
//!
//! # Atomicity
//!
//! [`FitCheckpoint::store`] writes to a sibling temp file, `fsync`s it,
//! and `rename`s it over the destination — a crash mid-write leaves the
//! previous checkpoint intact, never a truncated one. The containing
//! directory is fsynced best-effort after the rename.

use crate::{FitInput, FitOptions, IterStats, PtuckerError, Result, StoragePrecision, Variant};
use ptucker_linalg::Matrix;
use ptucker_tensor::CoreTensor;
use std::io::Write;
use std::path::Path;

/// Leading magic of every checkpoint file.
const MAGIC: [u8; 8] = *b"PTKCKPT1";

/// Current serialization format version.
const FORMAT_VERSION: u32 = 1;

/// 64-bit FNV-1a — local copy (the shard crate has its own for frame
/// checksums; the core crate cannot depend on it).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a, for fingerprinting without materializing the
/// hashed bytes.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.update(&v.to_bits().to_le_bytes());
    }
}

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
        Ok(h.0)
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
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        put_u64(&mut out, self.fingerprint);
        put_u64(&mut out, self.next_iter as u64);
        put_f64(&mut out, self.prev_err);
        put_u64(&mut out, self.iterations.len() as u64);
        for s in &self.iterations {
            put_u64(&mut out, s.iter as u64);
            put_f64(&mut out, s.reconstruction_error);
            put_f64(&mut out, s.seconds);
            put_u64(&mut out, s.core_nnz as u64);
        }
        put_u64(&mut out, self.factors.len() as u64);
        for m in &self.factors {
            put_u64(&mut out, m.rows() as u64);
            put_u64(&mut out, m.cols() as u64);
            for &v in m.as_slice() {
                put_f64(&mut out, v);
            }
        }
        put_u64(&mut out, self.core.order() as u64);
        for &d in self.core.dims() {
            put_u64(&mut out, d as u64);
        }
        put_u64(&mut out, self.core.nnz() as u64);
        for &i in self.core.flat_indices() {
            put_u64(&mut out, i as u64);
        }
        for &v in self.core.values() {
            put_f64(&mut out, v);
        }
        put_u64(&mut out, self.kernel_aux.len() as u64);
        out.extend_from_slice(&self.kernel_aux);
        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Parses and validates a checkpoint blob: magic, format version and
    /// trailing checksum are all checked before any field is trusted.
    ///
    /// # Errors
    /// [`crate::PtuckerError::Checkpoint`] naming the specific defect —
    /// bad magic, unsupported version, checksum mismatch, truncation, or
    /// an inconsistent field.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(ck(format!(
                "file too short to be a checkpoint ({} bytes)",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(ck("bad magic — not a P-Tucker checkpoint file".into()));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(ck(format!(
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — file corrupt or truncated"
            )));
        }
        let mut d = Cur {
            bytes: body,
            pos: 8,
        };
        let version = d.u32()?;
        if version != FORMAT_VERSION {
            return Err(ck(format!(
                "unsupported checkpoint format version {version} (this build reads {FORMAT_VERSION})"
            )));
        }
        let fingerprint = d.u64()?;
        let next_iter = d.usize()?;
        let prev_err = d.f64()?;
        let n_iters = d.len("iteration stats")?;
        let mut iterations = Vec::with_capacity(n_iters);
        for _ in 0..n_iters {
            iterations.push(IterStats {
                iter: d.usize()?,
                reconstruction_error: d.f64()?,
                seconds: d.f64()?,
                core_nnz: d.usize()?,
            });
        }
        let n_factors = d.len("factors")?;
        let mut factors = Vec::with_capacity(n_factors);
        for _ in 0..n_factors {
            let rows = d.usize()?;
            let cols = d.usize()?;
            let cells = rows
                .checked_mul(cols)
                .ok_or_else(|| ck("factor shape overflows".into()))?;
            let mut data = Vec::with_capacity(cells.min(d.remaining() / 8));
            for _ in 0..cells {
                data.push(d.f64()?);
            }
            factors.push(
                Matrix::from_vec(rows, cols, data)
                    .map_err(|e| ck(format!("factor matrix malformed: {e}")))?,
            );
        }
        let order = d.usize()?;
        let mut dims = Vec::with_capacity(order.min(d.remaining() / 8));
        for _ in 0..order {
            dims.push(d.usize()?);
        }
        let nnz = d.usize()?;
        let idx_count = nnz
            .checked_mul(order)
            .ok_or_else(|| ck("core shape overflows".into()))?;
        let mut flat = Vec::with_capacity(idx_count.min(d.remaining() / 8));
        for _ in 0..idx_count {
            flat.push(d.usize()?);
        }
        let mut entries = Vec::with_capacity(nnz);
        for e in 0..nnz {
            entries.push((flat[e * order..(e + 1) * order].to_vec(), 0.0));
        }
        for entry in entries.iter_mut() {
            entry.1 = d.f64()?;
        }
        let core = CoreTensor::from_entries(dims, entries)
            .map_err(|e| ck(format!("core tensor malformed: {e}")))?;
        let aux_len = d.len("kernel aux")?;
        let kernel_aux = d.take(aux_len)?.to_vec();
        if d.pos != body.len() {
            return Err(ck(format!(
                "{} trailing bytes after the kernel aux section",
                body.len() - d.pos
            )));
        }
        Ok(FitCheckpoint {
            fingerprint,
            next_iter,
            prev_err,
            iterations,
            factors,
            core,
            kernel_aux,
        })
    }

    /// Atomically writes the checkpoint to `path`: encode → sibling temp
    /// file → `fsync` → `rename` → best-effort directory fsync. A crash
    /// at any point leaves either the old checkpoint or the new one,
    /// never a torn file.
    ///
    /// # Errors
    /// [`crate::PtuckerError::Checkpoint`] wrapping the failed I/O step.
    pub fn store(&self, path: &Path) -> Result<()> {
        let bytes = self.encode();
        let tmp = {
            let mut name = path.file_name().unwrap_or_default().to_os_string();
            name.push(".tmp");
            path.with_file_name(name)
        };
        let io = |step: &'static str| {
            let p = tmp.display().to_string();
            move |e: std::io::Error| ck(format!("{step} {p}: {e}"))
        };
        let mut f = std::fs::File::create(&tmp).map_err(io("create"))?;
        f.write_all(&bytes).map_err(io("write"))?;
        f.sync_all().map_err(io("fsync"))?;
        drop(f);
        std::fs::rename(&tmp, path)
            .map_err(|e| ck(format!("rename into {}: {e}", path.display())))?;
        // Make the rename itself durable where the platform allows
        // fsyncing a directory handle; failure here cannot tear the file.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads and validates a checkpoint from `path`.
    ///
    /// # Errors
    /// [`crate::PtuckerError::Checkpoint`] on I/O failure or any decode
    /// defect (see [`FitCheckpoint::decode`]).
    pub fn load(path: &Path) -> Result<Self> {
        let bytes = std::fs::read(path).map_err(|e| ck(format!("read {}: {e}", path.display())))?;
        FitCheckpoint::decode(&bytes)
    }
}

fn ck(msg: String) -> PtuckerError {
    PtuckerError::Checkpoint(msg)
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A bounds-checked little-endian cursor; every read past the end is a
/// named [`crate::PtuckerError::Checkpoint`], never a panic.
pub(crate) struct Cur<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| ck("checkpoint truncated mid-field".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| ck(format!("value {v} overflows usize")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A count field, sanity-bounded by the bytes actually left (every
    /// counted element is at least one byte), so a corrupt length cannot
    /// drive a huge allocation.
    pub(crate) fn len(&mut self, what: &str) -> Result<usize> {
        let n = self.usize()?;
        if n > self.remaining().max(8) * 8 {
            return Err(ck(format!(
                "{what} count {n} exceeds what the file could hold"
            )));
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
