//! The one bounds-checked little-endian codec behind every byte format
//! the workspace speaks: shard messages, query messages, fit checkpoints
//! and model files.
//!
//! * [`Enc`] appends fields to a caller-owned buffer (reused across
//!   messages on hot paths).
//! * [`Dec`] is a cursor over received bytes. Every read is bounds
//!   checked, and every count obeys one rule, checked before anything is
//!   allocated: `count × element_bytes ≤ bytes left`. A corrupt length
//!   therefore decodes to an [`Error`], never to a panic or a huge
//!   allocation.
//! * [`seal`]/[`open`] frame a file: 8-byte magic, `u32` version, body,
//!   then a trailing FNV-1a 64 checksum over everything before it.
//! * [`write_atomically`] stores such a file so a crash leaves the old
//!   contents or the new, never a torn mix.
//!
//! Integers are little-endian, `usize` travels as `u64`, `f64` as its
//! raw bits, and a `bool` is one byte (any non-zero byte reads as true).
//! Every primitive is `#[inline]`: callers live in other crates and the
//! workspace builds without LTO.

use std::fmt;
use std::io::{self, Write};
use std::path::Path;

/// A malformed encoding, in words. Each format wraps it in its own typed
/// error (`ShardError::Protocol`, `ServeError::Protocol`,
/// `PtuckerError::Checkpoint`, `PtuckerError::Model`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// An error carrying `msg`.
    pub fn new(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Decode result.
pub type Result<T> = std::result::Result<T, Error>;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit over `bytes` — cheap, allocation-free, and plenty for
/// catching framing bugs, torn pipes and torn files (this is an
/// integrity check, not an authenticity one).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a 64, for hashing a byte sequence without
/// materializing it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// The empty hash.
    #[inline]
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Folds `bytes` in.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds in `v` as 8 little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Folds in `v`'s raw bits as 8 little-endian bytes.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash of everything folded in so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Little-endian writer appending to a borrowed buffer.
pub struct Enc<'a>(pub &'a mut Vec<u8>);

impl Enc<'_> {
    /// One byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Four little-endian bytes.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize`, widened to `u64`.
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An `f64`'s raw bits.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// One byte, `1` or `0`.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// `bytes` verbatim, no length prefix.
    #[inline]
    pub fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// A `u64` length, then `bytes`.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.raw(bytes);
    }

    /// A `u64` count, then each element.
    #[inline]
    pub fn u64s(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x);
        }
    }

    /// A `u64` count, then each element widened to `u64`.
    #[inline]
    pub fn usizes(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }

    /// A `u64` count, then each element's raw bits.
    #[inline]
    pub fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// A presence byte, then (if present) [`Enc::bytes`].
    #[inline]
    pub fn opt_bytes(&mut self, v: Option<&[u8]>) {
        self.bool(v.is_some());
        if let Some(b) = v {
            self.bytes(b);
        }
    }

    /// A presence byte, then (if present) [`Enc::f64s`].
    #[inline]
    pub fn opt_f64s(&mut self, v: Option<&[f64]>) {
        self.bool(v.is_some());
        if let Some(s) = v {
            self.f64s(s);
        }
    }
}

/// Bounds-checked little-endian cursor over received bytes. Every read
/// fails with an [`Error`] (consuming nothing) when too few bytes are
/// left, and every count is held to [`Dec::check_count`].
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(truncated(n, self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// Four little-endian bytes.
    #[inline]
    pub fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// Eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u64` narrowed to `usize`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| Error::new(format!("value {v} overflows usize")))
    }

    /// An `f64` from its raw bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// One byte; any non-zero value is `true`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool> {
        Ok(self.u8()? != 0)
    }

    /// The count rule, for a count `n` of `elem_bytes`-wide elements
    /// still to be read: `n × elem_bytes ≤ bytes left`. Callers check it
    /// before allocating for `n` elements, so no count can ask for more
    /// memory than the input itself occupies.
    #[inline]
    pub fn check_count(&self, n: usize, elem_bytes: usize) -> Result<usize> {
        match n.checked_mul(elem_bytes.max(1)) {
            Some(b) if b <= self.remaining() => Ok(n),
            _ => Err(overrun(n, elem_bytes, self.remaining())),
        }
    }

    /// A `u64` count of `elem_bytes`-wide elements, held to
    /// [`Dec::check_count`].
    #[inline]
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize> {
        let n = self.usize()?;
        self.check_count(n, elem_bytes)
    }

    /// A count-prefixed byte string ([`Enc::bytes`]).
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// A count-prefixed `u64` list ([`Enc::u64s`]) into `out`, cleared
    /// and reused.
    #[inline]
    pub fn u64s_into(&mut self, out: &mut Vec<u64>) -> Result<()> {
        let n = self.count(8)?;
        out.clear();
        out.reserve(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(())
    }

    /// A count-prefixed `usize` list ([`Enc::usizes`]).
    #[inline]
    pub fn usizes(&mut self) -> Result<Vec<usize>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    /// A count-prefixed `f64` list ([`Enc::f64s`]).
    #[inline]
    pub fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// [`Enc::opt_bytes`]'s field.
    #[inline]
    pub fn opt_bytes(&mut self) -> Result<Option<&'a [u8]>> {
        if self.bool()? {
            self.bytes().map(Some)
        } else {
            Ok(None)
        }
    }

    /// [`Enc::opt_f64s`]'s field.
    #[inline]
    pub fn opt_f64s(&mut self) -> Result<Option<Vec<f64>>> {
        if self.bool()? {
            self.f64s().map(Some)
        } else {
            Ok(None)
        }
    }

    /// Succeeds only if every byte was read.
    #[inline]
    pub fn finish(&self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(Error::new(format!("{n} trailing bytes"))),
        }
    }
}

// The error constructors stay out of line so the inlined `Ok` path of
// every read is a compare and a load.
#[cold]
#[inline(never)]
fn truncated(n: usize, left: usize) -> Error {
    Error::new(format!(
        "truncated: a {n}-byte field with {left} bytes left"
    ))
}

#[cold]
#[inline(never)]
fn overrun(n: usize, elem_bytes: usize, left: usize) -> Error {
    Error::new(format!(
        "count {n} of {elem_bytes}-byte elements overruns the {left} bytes left"
    ))
}

/// A sealed file: `magic`, `version` as `u32`, the body `body` writes,
/// then FNV-1a 64 over all of it as `u64`.
pub fn seal(magic: &[u8; 8], version: u32, body: impl FnOnce(&mut Enc<'_>)) -> Vec<u8> {
    let mut out = Vec::new();
    let mut e = Enc(&mut out);
    e.raw(magic);
    e.u32(version);
    body(&mut e);
    let sum = fnv1a(&out);
    Enc(&mut out).u64(sum);
    out
}

/// Checks a sealed file's magic, checksum and version, in that order,
/// and returns a cursor over its body. `what` names the format in the
/// errors ("checkpoint", "model").
///
/// # Errors
/// A file too short to be sealed, wrong magic, a checksum mismatch, or
/// another version.
pub fn open<'a>(magic: &[u8; 8], version: u32, what: &str, bytes: &'a [u8]) -> Result<Dec<'a>> {
    if bytes.len() < magic.len() + 4 + 8 {
        return Err(Error::new(format!(
            "file too short to be a {what} ({} bytes)",
            bytes.len()
        )));
    }
    if bytes[..8] != magic[..] {
        return Err(Error::new(format!(
            "bad magic — not a P-Tucker {what} file"
        )));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = Dec::new(tail).u64()?;
    let computed = fnv1a(body);
    if stored != computed {
        return Err(Error::new(format!(
            "checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — file corrupt or truncated"
        )));
    }
    let mut d = Dec::new(&body[8..]);
    let found = d.u32()?;
    if found != version {
        return Err(Error::new(format!(
            "unsupported {what} format version {found} (this build reads {version})"
        )));
    }
    Ok(d)
}

/// Writes `bytes` to `path` atomically: a sibling `<name>.tmp` file,
/// `fsync`, `rename` over `path`, then a best-effort `fsync` of the
/// directory. A crash at any point leaves the old file or the new one.
///
/// # Errors
/// The failed step, naming it and its path.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        path.with_file_name(name)
    };
    let step = |what: &str, p: &Path| {
        let p = p.display().to_string();
        let what = what.to_owned();
        move |e: io::Error| io::Error::new(e.kind(), format!("{what} {p}: {e}"))
    };
    let mut f = std::fs::File::create(&tmp).map_err(step("create", &tmp))?;
    f.write_all(bytes).map_err(step("write", &tmp))?;
    f.sync_all().map_err(step("fsync", &tmp))?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(step("rename into", path))?;
    // Make the rename itself durable where the platform allows fsyncing a
    // directory handle; failure here cannot tear the file.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip() {
        let mut buf = vec![0xee]; // appends after what is already there
        let mut e = Enc(&mut buf);
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 1);
        e.usize(12);
        e.f64(-0.0);
        e.bool(true);
        e.bytes(b"abc");
        e.u64s(&[1, 2]);
        e.usizes(&[3]);
        e.f64s(&[0.5]);
        e.opt_bytes(None);
        e.opt_f64s(Some(&[1.5, 2.5]));
        let mut d = Dec::new(&buf[1..]);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.usize().unwrap(), 12);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.bool().unwrap());
        assert_eq!(d.bytes().unwrap(), b"abc");
        let mut v = vec![9; 5];
        d.u64s_into(&mut v).unwrap();
        assert_eq!(v, [1, 2]);
        assert_eq!(d.usizes().unwrap(), [3]);
        assert_eq!(d.f64s().unwrap(), [0.5]);
        assert_eq!(d.opt_bytes().unwrap(), None);
        assert_eq!(d.opt_f64s().unwrap(), Some(vec![1.5, 2.5]));
        d.finish().unwrap();
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut buf = Vec::new();
        let mut e = Enc(&mut buf);
        e.u64(3);
        e.raw(&[0; 24]);
        assert_eq!(Dec::new(&buf).count(8).unwrap(), 3);
        assert!(Dec::new(&buf).count(9).is_err());
        for huge in [1u64 << 28, 1 << 61, u64::MAX] {
            buf[..8].copy_from_slice(&huge.to_le_bytes());
            assert!(Dec::new(&buf).count(1).is_err(), "{huge}");
            assert!(Dec::new(&buf).f64s().is_err(), "{huge}");
        }
        // n × elem overflowing usize is an overrun, not a wrap.
        assert!(Dec::new(&[]).check_count(usize::MAX, 16).is_err());
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut d = Dec::new(&[1, 2, 3]);
        assert!(d.u32().is_err());
        assert_eq!(d.remaining(), 3, "a failed read consumes nothing");
        assert_eq!(d.u8().unwrap(), 1);
        assert!(d.finish().unwrap_err().0.contains("2 trailing bytes"));
    }

    #[test]
    fn seal_open_checks_magic_checksum_and_version() {
        let file = seal(b"TESTMAG1", 3, |e| e.u64(42));
        assert_eq!(file.len(), 8 + 4 + 8 + 8);
        let mut d = open(b"TESTMAG1", 3, "test", &file).unwrap();
        assert_eq!(d.u64().unwrap(), 42);
        d.finish().unwrap();

        let err = |bytes: &[u8]| open(b"TESTMAG1", 3, "test", bytes).unwrap_err().0;
        assert!(err(&file[..10]).contains("too short"));
        assert!(err(&file[..file.len() - 1]).contains("checksum mismatch"));
        assert!(open(b"OTHERMAG", 3, "test", &file)
            .unwrap_err()
            .0
            .contains("magic"));
        let v4 = seal(b"TESTMAG1", 4, |e| e.u64(42));
        assert!(err(&v4).contains("version 4"));
    }

    #[test]
    fn write_atomically_replaces_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("ptk-wire-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        write_atomically(&path, b"one").unwrap();
        write_atomically(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        assert!(!dir.join("f.bin.tmp").exists());
        let err = write_atomically(&dir.join("no/such/dir/f.bin"), b"x").unwrap_err();
        assert!(err.to_string().starts_with("create "), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_matches_published_vectors_and_the_incremental_hash() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.u64(5);
        h.f64(1.5);
        let mut flat = 5u64.to_le_bytes().to_vec();
        flat.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(h.finish(), fnv1a(&flat));
    }
}
