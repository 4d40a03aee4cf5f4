//! Intermediate-data memory metering.
//!
//! Definition 7 of the P-Tucker paper singles out *intermediate data* — the
//! memory required to update factor matrices, excluding the tensor, the core
//! and the factor matrices themselves — as the quantity that decides whether
//! a Tucker algorithm scales. Figures 6, 7 and 11 report **O.O.M.** whenever
//! a competitor's intermediate data exceed the machine's 512 GB.
//!
//! Rather than physically exhausting RAM to reproduce those boundaries, every
//! algorithm in this workspace *meters* its intermediate allocations against
//! a [`MemoryBudget`]. The arithmetic is the same as a real machine's
//! (`bytes needed > bytes available ⇒ failure`); only the failure mode is
//! polite. A budget also tracks the high-water mark, which is what Fig. 8(b)
//! and Fig. 10(b) plot.
//!
//! ```
//! use ptucker_memtrack::MemoryBudget;
//!
//! let budget = MemoryBudget::new(1 << 20); // 1 MiB
//! let g = budget.reserve_f64(1000).unwrap(); // 8 kB of intermediates
//! assert_eq!(budget.in_use(), 8000);
//! drop(g);
//! assert_eq!(budget.in_use(), 0);
//! assert_eq!(budget.peak(), 8000);
//! assert!(budget.reserve_f64(1 << 20).is_err()); // 8 MiB > 1 MiB budget
//! ```
//!
//! # Spilling: file-backed reservations
//!
//! Since the out-of-core execution path landed, exceeding the budget is no
//! longer necessarily fatal: a consumer can *spill* its data plane to a
//! [`ScratchFile`] and keep only slice-aligned windows resident. Two pieces
//! of this crate support that path:
//!
//! * [`BudgetPolicy`] records, per budget, whether overflow should spill
//!   (the default) or hard-fail like the paper's O.O.M. boundaries
//!   ([`BudgetPolicy::Strict`]). The policy does **not** change how
//!   [`MemoryBudget::reserve`] behaves — it is a contract consulted by the
//!   solver's *placement gate*, which spills the execution plan when the
//!   resident working set overflows (a variant whose auxiliary table is
//!   resident-only still fails its checked reservation, as under
//!   `Strict`).
//! * File-backed bytes are accounted separately from resident bytes:
//!   [`MemoryBudget::record_spill`] tracks them without counting against
//!   the RAM budget (disk is not the scarce resource Definition 7 is
//!   about), and [`MemoryBudget::peak_spilled`] reports their high-water
//!   mark so a fit can state exactly how much of its data plane lived on
//!   disk.
//!
//! ```
//! use ptucker_memtrack::{BudgetPolicy, MemoryBudget};
//!
//! let spill = MemoryBudget::new(1 << 10);
//! assert_eq!(spill.policy(), BudgetPolicy::Spill);
//! let s = spill.record_spill(1 << 20); // 1 MiB on disk: fine
//! assert_eq!(spill.in_use(), 0);       // …and invisible to the RAM meter
//! assert_eq!(spill.peak_spilled(), 1 << 20);
//! drop(s);
//!
//! let strict = MemoryBudget::with_policy(1 << 10, BudgetPolicy::Strict);
//! assert_eq!(strict.policy(), BudgetPolicy::Strict);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod scratch;

pub use scratch::{ScratchCorruption, ScratchFile};

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Error returned when a reservation would exceed the budget.
///
/// Mirrors the "O.O.M." entries in the paper's figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested by the failing reservation.
    pub requested: usize,
    /// Bytes already reserved at the time of the request.
    pub in_use: usize,
    /// The configured budget in bytes.
    pub budget: usize,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory: requested {} B with {} B in use against a {} B budget",
            self.requested, self.in_use, self.budget
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// What a consumer should do when its data plane does not fit the budget.
///
/// The policy is carried by the [`MemoryBudget`] because it is a property
/// of the *reservation regime* the user configured, not of any single
/// algorithm: the same budget is threaded through the solver, its kernels
/// and the execution plan, and they must all agree on whether overflow
/// spills or fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetPolicy {
    /// Overflow spills: consumers that support an out-of-core path (the
    /// P-Tucker execution plan and the Cached variant's `Pres` table) move
    /// their data plane to a [`ScratchFile`] and keep only windows
    /// resident. This is the default since the windowed sweeps landed.
    #[default]
    Spill,
    /// Overflow is fatal: every reservation failure surfaces as the
    /// paper's O.O.M. outcome, exactly as before spilling existed. This is
    /// what the cross-method memory-boundary experiments (Figs. 6, 7, 11)
    /// use, since the competitors have no spilled mode.
    Strict,
}

#[derive(Debug)]
struct Inner {
    budget: usize,
    policy: BudgetPolicy,
    in_use: AtomicUsize,
    peak: AtomicUsize,
    spill_in_use: AtomicUsize,
    spill_peak: AtomicUsize,
    /// Cumulative bytes read back from [`ScratchFile`]s attached to this
    /// budget (see [`ScratchFile::create_tracked`]).
    io_read: AtomicU64,
    /// Cumulative bytes written to attached [`ScratchFile`]s.
    io_write: AtomicU64,
}

/// A shareable intermediate-data budget with peak tracking.
///
/// Cloning is cheap (`Arc` internally); clones share the same accounting, so
/// worker threads can reserve against the common budget.
#[derive(Debug, Clone)]
pub struct MemoryBudget {
    inner: Arc<Inner>,
}

/// Equality is configuration equality (limit and policy); the transient
/// accounting state (in-use/peak counters) is deliberately ignored, so a
/// budget round-tripped through a wire format or rebuilt from its
/// parameters compares equal to the original.
impl PartialEq for MemoryBudget {
    fn eq(&self, other: &Self) -> bool {
        self.inner.budget == other.inner.budget && self.inner.policy == other.inner.policy
    }
}

impl Eq for MemoryBudget {}

impl MemoryBudget {
    /// Creates a budget of `bytes` bytes with the default
    /// [`BudgetPolicy::Spill`] policy.
    pub fn new(bytes: usize) -> Self {
        MemoryBudget::with_policy(bytes, BudgetPolicy::default())
    }

    /// Creates a budget of `bytes` bytes with an explicit overflow policy.
    pub fn with_policy(bytes: usize, policy: BudgetPolicy) -> Self {
        MemoryBudget {
            inner: Arc::new(Inner {
                budget: bytes,
                policy,
                in_use: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                spill_in_use: AtomicUsize::new(0),
                spill_peak: AtomicUsize::new(0),
                io_read: AtomicU64::new(0),
                io_write: AtomicU64::new(0),
            }),
        }
    }

    /// An effectively unlimited budget (for tests and small runs).
    pub fn unlimited() -> Self {
        MemoryBudget::new(usize::MAX)
    }

    /// The configured limit in bytes.
    pub fn budget(&self) -> usize {
        self.inner.budget
    }

    /// What consumers should do when their data plane exceeds the budget.
    pub fn policy(&self) -> BudgetPolicy {
        self.inner.policy
    }

    /// Bytes currently reserved.
    pub fn in_use(&self) -> usize {
        self.inner.in_use.load(Ordering::Relaxed)
    }

    /// Bytes still reservable before the limit (0 when over budget, which
    /// [`MemoryBudget::reserve_unchecked`] can cause).
    pub fn available(&self) -> usize {
        self.inner.budget.saturating_sub(self.in_use())
    }

    /// High-water mark of reserved bytes since creation (or the last
    /// [`MemoryBudget::reset_peak`]).
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Bytes currently recorded as spilled to disk.
    pub fn spilled_in_use(&self) -> usize {
        self.inner.spill_in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of spilled bytes since creation (or the last
    /// [`MemoryBudget::reset_peak`]).
    pub fn peak_spilled(&self) -> usize {
        self.inner.spill_peak.load(Ordering::Relaxed)
    }

    /// Resets both peak trackers to the current usage (not to zero, so
    /// live reservations stay visible).
    pub fn reset_peak(&self) {
        self.inner.peak.store(self.in_use(), Ordering::Relaxed);
        self.inner
            .spill_peak
            .store(self.spilled_in_use(), Ordering::Relaxed);
    }

    /// Reserves `bytes` bytes, failing if the budget would be exceeded.
    ///
    /// The reservation is released when the returned guard is dropped.
    ///
    /// # Errors
    /// [`OutOfMemory`] if `in_use + bytes > budget`.
    pub fn reserve(&self, bytes: usize) -> Result<Reservation, OutOfMemory> {
        let mut cur = self.inner.in_use.load(Ordering::Relaxed);
        loop {
            let new = cur.checked_add(bytes).ok_or(OutOfMemory {
                requested: bytes,
                in_use: cur,
                budget: self.inner.budget,
            })?;
            if new > self.inner.budget {
                return Err(OutOfMemory {
                    requested: bytes,
                    in_use: cur,
                    budget: self.inner.budget,
                });
            }
            match self.inner.in_use.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(new, Ordering::Relaxed);
                    return Ok(Reservation {
                        budget: self.clone(),
                        bytes,
                    });
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Convenience: reserves space for `n` `f64` values.
    ///
    /// # Errors
    /// [`OutOfMemory`] if the implied byte count exceeds the budget.
    pub fn reserve_f64(&self, n: usize) -> Result<Reservation, OutOfMemory> {
        self.reserve(n.saturating_mul(std::mem::size_of::<f64>()))
    }

    /// Reserves `bytes` bytes **without** checking the limit. The bytes
    /// still count toward [`MemoryBudget::in_use`] and
    /// [`MemoryBudget::peak`], so the reported high-water mark stays
    /// honest even when it exceeds the configured budget.
    ///
    /// This exists for the spilled execution path's *irreducible floor*:
    /// a windowed sweep cannot hold less than one slice-aligned window
    /// (plus per-mode offsets and scratch arenas) resident, and under
    /// [`BudgetPolicy::Spill`] that floor proceeds rather than fails.
    /// Strict consumers must keep using [`MemoryBudget::reserve`].
    pub fn reserve_unchecked(&self, bytes: usize) -> Reservation {
        let new = self
            .inner
            .in_use
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        self.inner.peak.fetch_max(new, Ordering::Relaxed);
        Reservation {
            budget: self.clone(),
            bytes,
        }
    }

    /// Records `bytes` bytes written to a [`ScratchFile`] (or any other
    /// disk-backed store). Spilled bytes are tracked separately from the
    /// RAM meter — disk is not the resource Definition 7 bounds — and
    /// released when the returned guard drops.
    pub fn record_spill(&self, bytes: usize) -> SpillReservation {
        let new = self
            .inner
            .spill_in_use
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        self.inner.spill_peak.fetch_max(new, Ordering::Relaxed);
        SpillReservation {
            budget: self.clone(),
            bytes,
        }
    }

    /// Cumulative bytes read from [`ScratchFile`]s attached to this budget
    /// with [`ScratchFile::create_tracked`] — the disk-traffic half of the
    /// accounting, monotone for the budget's lifetime. Consumers that want
    /// a per-phase figure snapshot the counter before and after.
    pub fn io_read_bytes(&self) -> u64 {
        self.inner.io_read.load(Ordering::Relaxed)
    }

    /// Cumulative bytes written to attached [`ScratchFile`]s (see
    /// [`MemoryBudget::io_read_bytes`]).
    pub fn io_write_bytes(&self) -> u64 {
        self.inner.io_write.load(Ordering::Relaxed)
    }

    /// Adds `bytes` to the scratch-read counter. Called by tracked
    /// [`ScratchFile`]s; public so other disk-backed stores can account
    /// their traffic through the same meter.
    pub fn add_io_read(&self, bytes: u64) {
        self.inner.io_read.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Adds `bytes` to the scratch-write counter (see
    /// [`MemoryBudget::add_io_read`]).
    pub fn add_io_write(&self, bytes: u64) {
        self.inner.io_write.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Checks whether `bytes` *could* be reserved right now without actually
    /// reserving (used by algorithms that report their requirement upfront).
    pub fn would_fit(&self, bytes: usize) -> bool {
        self.in_use()
            .checked_add(bytes)
            .map(|total| total <= self.inner.budget)
            .unwrap_or(false)
    }

    fn release(&self, bytes: usize) {
        let prev = self.inner.in_use.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "released more than reserved");
    }
}

impl Default for MemoryBudget {
    /// Defaults to 4 GiB — the workspace-wide stand-in for the paper's
    /// 512 GB machine, scaled alongside the default workload sizes.
    fn default() -> Self {
        MemoryBudget::new(4 << 30)
    }
}

/// RAII guard for a byte reservation; releases on drop.
#[derive(Debug)]
pub struct Reservation {
    budget: MemoryBudget,
    bytes: usize,
}

impl Reservation {
    /// Size of this reservation in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Grows this reservation by `extra` bytes (e.g. a resizing buffer).
    ///
    /// # Errors
    /// [`OutOfMemory`] if the growth does not fit; the original reservation
    /// is untouched in that case.
    pub fn grow(&mut self, extra: usize) -> Result<(), OutOfMemory> {
        let g = self.budget.reserve(extra)?;
        // Absorb the new guard into self.
        self.bytes += g.bytes;
        std::mem::forget(g);
        Ok(())
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// RAII guard for bytes recorded as spilled to disk; releases on drop.
///
/// Created by [`MemoryBudget::record_spill`]. Unlike [`Reservation`], the
/// tracked bytes never count against the RAM budget.
#[derive(Debug)]
pub struct SpillReservation {
    budget: MemoryBudget,
    bytes: usize,
}

impl SpillReservation {
    /// Size of this spill record in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Grows this spill record by `extra` bytes (e.g. an appended region).
    pub fn grow(&mut self, extra: usize) {
        let g = self.budget.record_spill(extra);
        self.bytes += g.bytes;
        std::mem::forget(g);
    }
}

impl Drop for SpillReservation {
    fn drop(&mut self) {
        let prev = self
            .budget
            .inner
            .spill_in_use
            .fetch_sub(self.bytes, Ordering::Relaxed);
        debug_assert!(prev >= self.bytes, "released more spill than recorded");
    }
}

/// Bytes needed for `n` `f64` values — shared helper for upfront estimates.
pub fn f64_bytes(n: usize) -> usize {
    n.saturating_mul(std::mem::size_of::<f64>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let b = MemoryBudget::new(100);
        let r = b.reserve(60).unwrap();
        assert_eq!(b.in_use(), 60);
        assert_eq!(b.peak(), 60);
        drop(r);
        assert_eq!(b.in_use(), 0);
        assert_eq!(b.peak(), 60);
    }

    #[test]
    fn over_budget_fails_with_details() {
        let b = MemoryBudget::new(100);
        let _r = b.reserve(80).unwrap();
        let err = b.reserve(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert_eq!(err.budget, 100);
        // Failing reservation must not change accounting.
        assert_eq!(b.in_use(), 80);
    }

    #[test]
    fn peak_tracks_high_water() {
        let b = MemoryBudget::new(1000);
        {
            let _a = b.reserve(400).unwrap();
            let _c = b.reserve(500).unwrap();
        }
        let _d = b.reserve(100).unwrap();
        assert_eq!(b.peak(), 900);
        b.reset_peak();
        assert_eq!(b.peak(), 100);
    }

    #[test]
    fn clones_share_accounting() {
        let b = MemoryBudget::new(100);
        let b2 = b.clone();
        let _r = b.reserve(70).unwrap();
        assert_eq!(b2.in_use(), 70);
        assert!(b2.reserve(40).is_err());
    }

    #[test]
    fn reserve_f64_uses_eight_bytes() {
        let b = MemoryBudget::new(80);
        assert!(b.reserve_f64(10).is_ok());
        assert!(b.reserve_f64(11).is_err());
    }

    #[test]
    fn grow_extends_or_fails_atomically() {
        let b = MemoryBudget::new(100);
        let mut r = b.reserve(50).unwrap();
        r.grow(30).unwrap();
        assert_eq!(b.in_use(), 80);
        assert!(r.grow(30).is_err());
        assert_eq!(b.in_use(), 80);
        drop(r);
        assert_eq!(b.in_use(), 0);
    }

    #[test]
    fn would_fit_is_side_effect_free() {
        let b = MemoryBudget::new(100);
        assert!(b.would_fit(100));
        assert!(!b.would_fit(101));
        assert_eq!(b.in_use(), 0);
    }

    #[test]
    fn unlimited_accepts_large_requests() {
        let b = MemoryBudget::unlimited();
        assert!(b.reserve(usize::MAX / 2).is_ok());
    }

    #[test]
    fn concurrent_reservations_are_consistent() {
        let b = MemoryBudget::new(8_000_000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        let r = b.reserve(1000).unwrap();
                        drop(r);
                    }
                });
            }
        });
        assert_eq!(b.in_use(), 0);
        assert!(b.peak() <= 8_000_000);
    }

    #[test]
    fn overflow_requests_rejected() {
        let b = MemoryBudget::new(usize::MAX);
        let _r = b.reserve(usize::MAX - 10).unwrap();
        assert!(b.reserve(usize::MAX).is_err());
    }

    #[test]
    fn default_policy_is_spill_and_strict_is_explicit() {
        assert_eq!(MemoryBudget::new(10).policy(), BudgetPolicy::Spill);
        let strict = MemoryBudget::with_policy(10, BudgetPolicy::Strict);
        assert_eq!(strict.policy(), BudgetPolicy::Strict);
        // Policy never changes the reserve primitive itself.
        assert!(strict.reserve(11).is_err());
        assert!(MemoryBudget::new(10).reserve(11).is_err());
    }

    #[test]
    fn reserve_unchecked_tracks_but_never_fails() {
        let b = MemoryBudget::new(100);
        let r = b.reserve_unchecked(250);
        assert_eq!(b.in_use(), 250);
        assert_eq!(b.peak(), 250);
        assert_eq!(b.available(), 0);
        drop(r);
        assert_eq!(b.in_use(), 0);
        assert_eq!(b.peak(), 250, "over-budget floor stays in the peak");
    }

    #[test]
    fn spill_accounting_is_separate_from_ram() {
        let b = MemoryBudget::new(100);
        let mut s = b.record_spill(1_000_000);
        assert_eq!(b.in_use(), 0, "spilled bytes never hit the RAM meter");
        assert_eq!(b.spilled_in_use(), 1_000_000);
        s.grow(500_000);
        assert_eq!(s.bytes(), 1_500_000);
        assert_eq!(b.peak_spilled(), 1_500_000);
        drop(s);
        assert_eq!(b.spilled_in_use(), 0);
        assert_eq!(b.peak_spilled(), 1_500_000);
        b.reset_peak();
        assert_eq!(b.peak_spilled(), 0);
    }

    #[test]
    fn io_counters_accumulate_from_tracked_scratch_files() {
        let b = MemoryBudget::new(1 << 20);
        assert_eq!(b.io_read_bytes(), 0);
        assert_eq!(b.io_write_bytes(), 0);
        let f = ScratchFile::create_tracked(&b).unwrap();
        f.write_bytes(0, &[7u8; 24]).unwrap();
        assert_eq!(b.io_write_bytes(), 24);
        let mut back = [0u8; 24];
        f.read_bytes(0, &mut back).unwrap();
        assert_eq!(b.io_read_bytes(), 24);
        // Every write counts, and an untracked file counts nothing.
        f.write_bytes(0, &[0u8; 8]).unwrap();
        assert_eq!(b.io_write_bytes(), 32);
        let quiet = ScratchFile::create().unwrap();
        quiet.write_bytes(0, &[1u8; 8]).unwrap();
        assert_eq!(b.io_write_bytes(), 32);
    }

    #[test]
    fn available_reflects_reservations() {
        let b = MemoryBudget::new(100);
        assert_eq!(b.available(), 100);
        let _r = b.reserve(70).unwrap();
        assert_eq!(b.available(), 30);
    }
}
