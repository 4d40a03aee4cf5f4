//! Anonymous scratch files for spilled intermediate data.
//!
//! A [`ScratchFile`] is the disk half of a file-backed reservation: when a
//! data plane exceeds the [`crate::MemoryBudget`] under
//! [`crate::BudgetPolicy::Spill`], its bulk arrays move here and only
//! windows of them stay resident. The file is created in the system temp
//! directory and unlinked immediately (where the platform allows), so it
//! never outlives the process even on a crash; the remaining handle is the
//! only way to reach the bytes.
//!
//! All offsets are in bytes from the start of the file. The file moves
//! raw bytes only: callers own their record layout and read windows
//! straight into their own buffers.
//!
//! ```
//! use ptucker_memtrack::ScratchFile;
//!
//! let f = ScratchFile::create().unwrap();
//! let off = f.reserve_region(24).unwrap();
//! f.write_bytes(off, &[1, 2, 3, 4, 5, 6]).unwrap();
//! let mut back = [0u8; 2];
//! f.read_bytes(off + 2, &mut back).unwrap(); // skip the first two bytes
//! assert_eq!(back, [3, 4]);
//! assert_eq!(f.len(), 24);
//! ```

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A spilled window asked for bytes its reservation does not hold: the
/// offset/length pair disagrees with the file's reserved extent, meaning
/// the scratch file was truncated or the caller's bookkeeping is corrupt.
/// Surfaced as the payload of an [`io::ErrorKind::InvalidData`] error so
/// existing `io::Result` plumbing carries it, but typed so harnesses can
/// downcast and name the corruption instead of reading silent garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScratchCorruption {
    /// Byte offset the read started at.
    pub offset: u64,
    /// Bytes the window asked for.
    pub requested: u64,
    /// Bytes actually reserved in the file.
    pub reserved: u64,
}

impl fmt::Display for ScratchCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spilled window at offset {} wants {} bytes but only {} are reserved \
             — scratch file corrupt or truncated",
            self.offset, self.requested, self.reserved
        )
    }
}

impl std::error::Error for ScratchCorruption {}

/// Reads exactly `buf.len()` bytes, retrying interrupted (`EINTR`) and
/// short reads explicitly — the scratch path must never propagate a
/// partial window as if it were full.
///
/// # Errors
/// [`io::ErrorKind::UnexpectedEof`] on end-of-stream, or any non-`EINTR`
/// I/O error from the reader.
pub(crate) fn read_full(r: &mut impl Read, mut buf: &mut [u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "scratch read hit end of file before filling the window",
                ))
            }
            Ok(n) => buf = &mut buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes all of `buf`, retrying interrupted (`EINTR`) and short writes.
///
/// # Errors
/// [`io::ErrorKind::WriteZero`] if the writer stops accepting bytes, or
/// any non-`EINTR` I/O error from the writer.
pub(crate) fn write_full(w: &mut impl Write, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "scratch write accepted zero bytes",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Validates a `(offset, len)` window against the file's reserved extent,
/// producing the typed [`ScratchCorruption`] error on overrun.
fn check_window(offset: u64, len: u64, reserved: u64) -> io::Result<()> {
    if offset.checked_add(len).is_none_or(|end| end > reserved) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            ScratchCorruption {
                offset,
                requested: len,
                reserved,
            },
        ));
    }
    Ok(())
}

/// Process-unique counter so concurrent scratch files never collide.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
struct Inner {
    file: File,
    /// Current logical length in bytes (appends go here).
    len: u64,
}

/// An unlinked temporary file for spilled tensor data.
///
/// Interior-mutable and `Sync`: reads and writes lock the underlying file
/// (seek + I/O must be atomic per operation), so it can be shared across
/// the worker threads of a fit. The windowed execution path only touches
/// it between parallel sections, so the lock is uncontended in practice.
#[derive(Debug)]
pub struct ScratchFile {
    inner: Mutex<Inner>,
    /// Set only when the eager unlink failed (non-Unix platforms): the
    /// path to remove on drop.
    cleanup: Option<PathBuf>,
    /// Budget whose I/O counters this file reports its traffic to (see
    /// [`ScratchFile::create_tracked`]); `None` leaves the file silent.
    tracker: Option<crate::MemoryBudget>,
}

impl ScratchFile {
    /// Creates an empty scratch file in [`std::env::temp_dir`].
    ///
    /// # Errors
    /// Any I/O error from creating or opening the file.
    pub fn create() -> io::Result<Self> {
        Self::create_inner(None)
    }

    /// Like [`ScratchFile::create`], but every byte read from or written to
    /// the file is added to `budget`'s I/O counters
    /// ([`crate::MemoryBudget::io_read_bytes`] /
    /// [`crate::MemoryBudget::io_write_bytes`]) — how disk-bound fits
    /// surface their traffic the way sharded fits surface wire bytes.
    ///
    /// # Errors
    /// Any I/O error from creating or opening the file.
    pub fn create_tracked(budget: &crate::MemoryBudget) -> io::Result<Self> {
        Self::create_inner(Some(budget.clone()))
    }

    fn create_inner(tracker: Option<crate::MemoryBudget>) -> io::Result<Self> {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("ptucker-spill-{}-{seq}.bin", std::process::id()));
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)?;
        // Unlink eagerly: on Unix the open handle keeps the data alive and
        // the name disappears at once, so a crashed process leaks nothing.
        let cleanup = match std::fs::remove_file(&path) {
            Ok(()) => None,
            Err(_) => Some(path),
        };
        Ok(ScratchFile {
            inner: Mutex::new(Inner { file, len: 0 }),
            cleanup,
            tracker,
        })
    }

    #[inline]
    fn count_read(&self, bytes: usize) {
        if let Some(b) = &self.tracker {
            b.add_io_read(bytes as u64);
        }
    }

    #[inline]
    fn count_write(&self, bytes: usize) {
        if let Some(b) = &self.tracker {
            b.add_io_write(bytes as u64);
        }
    }

    /// Current logical length in bytes.
    pub fn len(&self) -> u64 {
        self.inner.lock().expect("scratch lock").len
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extends the file by `bytes` zero bytes and returns the starting
    /// offset of the new region — used to lay out a section whose records
    /// are then written at known offsets with [`ScratchFile::write_bytes`].
    ///
    /// # Errors
    /// Any I/O error from resizing the file.
    pub fn reserve_region(&self, bytes: u64) -> io::Result<u64> {
        let mut inner = self.inner.lock().expect("scratch lock");
        let start = inner.len;
        let new_len = start + bytes;
        inner.file.set_len(new_len)?;
        inner.len = new_len;
        Ok(start)
    }

    /// Writes raw bytes at byte `offset` — for interleaved record
    /// sections whose typed layout the caller owns. One lock + seek +
    /// write per call, no conversion buffer.
    ///
    /// # Errors
    /// Any I/O error from the write.
    pub fn write_bytes(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("scratch lock");
        inner.file.seek(SeekFrom::Start(offset))?;
        write_full(&mut inner.file, data)?;
        inner.len = inner.len.max(offset + data.len() as u64);
        drop(inner);
        self.count_write(data.len());
        Ok(())
    }

    /// Fills `out` with raw bytes from byte `offset` — the read half of
    /// [`ScratchFile::write_bytes`]: one lock + seek + read straight into
    /// the caller's buffer, which is what makes an interleaved window
    /// refill a single syscall instead of one per section.
    ///
    /// # Errors
    /// A typed [`ScratchCorruption`] (as [`io::ErrorKind::InvalidData`])
    /// when the window overruns the file's reserved extent, or any I/O
    /// error from the read itself.
    pub fn read_bytes(&self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("scratch lock");
        check_window(offset, out.len() as u64, inner.len)?;
        inner.file.seek(SeekFrom::Start(offset))?;
        read_full(&mut inner.file, out)?;
        drop(inner);
        self.count_read(out.len());
        Ok(())
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        if let Some(path) = self.cleanup.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64_bytes(vals: &[f64]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn f64s_from(bytes: &[u8]) -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    #[test]
    fn roundtrip_f64_and_u32_sections() {
        let f = ScratchFile::create().unwrap();
        let vals: Vec<f64> = (0..1500).map(|i| i as f64 * 0.5 - 3.0).collect();
        let ids: Vec<u32> = (0..3000).map(|i| i * 7 + 1).collect();
        let ids_raw: Vec<u8> = ids.iter().flat_map(|v| v.to_le_bytes()).collect();
        let off_v = f.reserve_region(1500 * 8).unwrap();
        let off_i = f.reserve_region(3000 * 4).unwrap();
        f.write_bytes(off_v, &f64_bytes(&vals)).unwrap();
        f.write_bytes(off_i, &ids_raw).unwrap();
        assert_eq!(off_v, 0);
        assert_eq!(off_i, 1500 * 8);
        assert_eq!(f.len(), 1500 * 8 + 3000 * 4);

        let mut vback = vec![0u8; 1500 * 8];
        f.read_bytes(off_v, &mut vback).unwrap();
        assert_eq!(f64s_from(&vback), vals);
        // Windowed read: positions 100..228.
        let mut raw = vec![0u8; 128 * 4];
        f.read_bytes(off_i + 100 * 4, &mut raw).unwrap();
        let iback: Vec<u32> = raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(iback, &ids[100..228]);
    }

    #[test]
    fn scatter_writes_into_reserved_region() {
        let f = ScratchFile::create().unwrap();
        let region = f.reserve_region(4 * 8).unwrap();
        // Write rows out of order.
        f.write_bytes(region + 3 * 8, &f64_bytes(&[33.0])).unwrap();
        f.write_bytes(region, &f64_bytes(&[11.0])).unwrap();
        f.write_bytes(region + 8, &f64_bytes(&[22.0, 23.0]))
            .unwrap();
        let mut back = [0u8; 4 * 8];
        f.read_bytes(region, &mut back).unwrap();
        assert_eq!(f64s_from(&back), [11.0, 22.0, 23.0, 33.0]);
    }

    #[test]
    fn raw_byte_sections_roundtrip() {
        let f = ScratchFile::create().unwrap();
        let region = f.reserve_region(64).unwrap();
        let rec: Vec<u8> = (0..40u8).collect();
        f.write_bytes(region + 8, &rec).unwrap();
        let mut back = vec![0u8; 40];
        f.read_bytes(region + 8, &mut back).unwrap();
        assert_eq!(back, rec);
        assert!(f.len() >= 48);
        // Reading past the end errors.
        let mut over = vec![0u8; 128];
        assert!(f.read_bytes(region, &mut over).is_err());
    }

    #[test]
    fn roundtrip_f32_sections_bit_preserving() {
        let f = ScratchFile::create().unwrap();
        // Awkward bit patterns survive the disk round trip.
        let n = 2048 + 33;
        let mut vals: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
        vals[0] = -0.0;
        vals[1] = f32::MIN_POSITIVE / 2.0; // subnormal
        vals[2] = f32::NAN;
        let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        f.write_bytes(0, &raw).unwrap();
        assert_eq!(f.len(), n as u64 * 4);
        let mut back = vec![0u8; n * 4];
        f.read_bytes(0, &mut back).unwrap();
        for (a, b) in vals.iter().zip(back.chunks_exact(4)) {
            assert_eq!(a.to_bits(), u32::from_le_bytes(b.try_into().unwrap()));
        }
    }

    #[test]
    fn read_past_end_errors() {
        let f = ScratchFile::create().unwrap();
        f.write_bytes(0, &f64_bytes(&[1.0])).unwrap();
        let mut out = [0u8; 16];
        assert!(f.read_bytes(0, &mut out).is_err());
    }

    #[test]
    fn window_overrun_is_typed_corruption() {
        // Satellite: a spilled window whose byte count disagrees with its
        // reservation must surface as a named corruption error, not
        // silent garbage or a bare EOF.
        let f = ScratchFile::create().unwrap();
        let region = f.reserve_region(32).unwrap();
        let mut out = vec![0u8; 40];
        let err = f.read_bytes(region, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<ScratchCorruption>())
            .expect("typed ScratchCorruption payload");
        assert_eq!(
            *inner,
            ScratchCorruption {
                offset: region,
                requested: 40,
                reserved: 32,
            }
        );
        assert!(format!("{inner}").contains("corrupt or truncated"));
    }

    /// A reader that serves one `EINTR` before every successful short
    /// read — the signal-heavy worst case `read_full` must absorb.
    struct InterruptingReader<'a> {
        data: &'a [u8],
        pos: usize,
        interrupt_next: bool,
    }

    impl Read for InterruptingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
            }
            self.interrupt_next = true;
            let n = buf.len().min(3).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A writer accepting at most 2 bytes per call, with an `EINTR`
    /// before each — exercises `write_full`'s short-write retry loop.
    struct InterruptingWriter {
        data: Vec<u8>,
        interrupt_next: bool,
    }

    impl Write for InterruptingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
            }
            self.interrupt_next = true;
            let n = buf.len().min(2);
            self.data.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn read_full_retries_eintr_and_short_reads() {
        let data: Vec<u8> = (0..64u8).collect();
        let mut r = InterruptingReader {
            data: &data,
            pos: 0,
            interrupt_next: true,
        };
        let mut out = vec![0u8; 64];
        read_full(&mut r, &mut out).unwrap();
        assert_eq!(out, data);
        // Exhausted stream: UnexpectedEof, not a partial fill.
        let mut more = [0u8; 1];
        let err = read_full(&mut r, &mut more).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn write_full_retries_eintr_and_short_writes() {
        let mut w = InterruptingWriter {
            data: Vec::new(),
            interrupt_next: true,
        };
        let payload: Vec<u8> = (0..33u8).collect();
        write_full(&mut w, &payload).unwrap();
        assert_eq!(w.data, payload);
    }

    #[test]
    fn values_crossing_chunk_boundaries_survive() {
        // Several MiB in one call: `write_full`/`read_full` loop over
        // however many syscalls the kernel splits the transfer into.
        let f = ScratchFile::create().unwrap();
        let n = (3 << 20) / 8 + 17;
        let vals: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        f.write_bytes(0, &f64_bytes(&vals)).unwrap();
        let mut back = vec![0u8; n * 8];
        f.read_bytes(0, &mut back).unwrap();
        for (a, b) in vals.iter().zip(f64s_from(&back)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
