//! Spans recorded from outside the program.
//!
//! [`TraceSync`] is a benchmark-owned `FitSync`: the fit driver calls its
//! hooks in the fixed order `begin_mode → row_range → sync_factor` per
//! mode, `end_iter` per iteration and `finish` once, and those call sites
//! already bracket the driver's phases — kernel `prepare_mode`, the row
//! sweep, `post_mode`, the error pass with truncation, the final QR. Each
//! hook only pushes a timestamp into a preallocated vector; spans are cut
//! from consecutive timestamps afterwards, so they tile the fit's wall
//! with no gaps and their sum must reconcile with it.

use crate::api::{FitStats, FitSync, Resweep, SyncResult};
use crate::json::Json;
use crate::stats::median;
use std::ops::Range;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    BeginMode,
    RowRange,
    SyncFactor,
    EndIter,
    Finish,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Entry → first `begin_mode`: init, plan build, kernel `prepare_fit`.
    FitSetup,
    /// `begin_mode` → `row_range`: kernel `prepare_mode`.
    ModePrepare,
    /// `row_range` → `sync_factor`: the row sweep (window refills included).
    Sweep,
    /// `sync_factor` → next mode's `begin_mode`: kernel `post_mode`.
    ModePost,
    /// Last `sync_factor` of an iteration → next iteration's first
    /// `begin_mode` (or the last `end_iter`): last `post_mode`, error
    /// pass, truncation, convergence bookkeeping.
    IterTail,
    /// Last `end_iter` → return: QR, core update, final error, stats.
    Finish,
}

impl Phase {
    pub const ALL: [Phase; 6] = [
        Phase::FitSetup,
        Phase::ModePrepare,
        Phase::Sweep,
        Phase::ModePost,
        Phase::IterTail,
        Phase::Finish,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::FitSetup => "fit_setup",
            Phase::ModePrepare => "mode_prepare",
            Phase::Sweep => "sweep",
            Phase::ModePost => "mode_post",
            Phase::IterTail => "iter_tail",
            Phase::Finish => "finish",
        }
    }
}

/// One span: a phase of one `(iteration, mode)` with its start offset and
/// length in seconds from the fit's entry. The fit is the parent of every
/// span; spans of one iteration share `iter`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub phase: Phase,
    pub iter: usize,
    pub mode: usize,
    pub start_s: f64,
    pub secs: f64,
}

/// The timestamp-recording `FitSync`. Owns every row (the default row
/// range) and syncs nothing, so the traced fit is the untraced fit.
pub struct TraceSync {
    entry: Instant,
    marks: Vec<(Hook, usize, usize, Instant)>,
    iter: usize,
    mode: usize,
}

impl TraceSync {
    /// Starts the clock: construct immediately before the fit call.
    pub fn start(iters: usize, order: usize) -> Self {
        TraceSync {
            entry: Instant::now(),
            marks: Vec::with_capacity(iters * (3 * order + 1) + 1),
            iter: 0,
            mode: 0,
        }
    }

    fn mark(&mut self, hook: Hook) {
        self.marks
            .push((hook, self.iter, self.mode, Instant::now()));
    }

    /// Cuts the recorded timestamps into spans. `returned` is when the
    /// fit call came back, closing the last span.
    pub fn spans(&self, returned: Instant) -> Vec<Span> {
        let offsets: Vec<(Hook, usize, usize, f64)> = self
            .marks
            .iter()
            .map(|&(h, i, m, t)| (h, i, m, t.duration_since(self.entry).as_secs_f64()))
            .collect();
        cut_spans(&offsets, returned.duration_since(self.entry).as_secs_f64())
    }
}

impl FitSync for TraceSync {
    fn begin_mode(&mut self, iter: usize, mode: usize) -> SyncResult<()> {
        self.iter = iter;
        self.mode = mode;
        self.mark(Hook::BeginMode);
        Ok(())
    }

    fn row_range(&mut self, _mode: usize, rows: usize) -> Range<usize> {
        self.mark(Hook::RowRange);
        0..rows
    }

    fn sync_factor(
        &mut self,
        _mode: usize,
        _j_n: usize,
        _data: &mut [f64],
        _local_ok: bool,
        _resweep: &mut Resweep<'_>,
    ) -> SyncResult<()> {
        self.mark(Hook::SyncFactor);
        Ok(())
    }

    fn end_iter(
        &mut self,
        _iter: usize,
        _make_checkpoint: &mut dyn FnMut() -> SyncResult<Vec<u8>>,
    ) -> SyncResult<()> {
        self.mark(Hook::EndIter);
        Ok(())
    }

    fn finish(&mut self, _stats: &mut FitStats) -> SyncResult<()> {
        self.mark(Hook::Finish);
        Ok(())
    }
}

/// Turns hook timestamps (seconds from entry) into contiguous spans: each
/// interval is attributed by the hook that opened it and, after a
/// `sync_factor`, by whether the same iteration's next mode follows.
fn cut_spans(marks: &[(Hook, usize, usize, f64)], returned_s: f64) -> Vec<Span> {
    let mut spans = Vec::with_capacity(marks.len() + 1);
    let mut open: Option<(Hook, usize, usize)> = None;
    let mut start = 0.0;
    let ends = marks
        .iter()
        .map(|&(hook, iter, _, at)| (Some((hook, iter)), at))
        .chain([(None, returned_s)]);
    for (k, (next, at)) in ends.enumerate() {
        let (phase, iter, mode) = match open {
            None => (Phase::FitSetup, 0, 0),
            Some((Hook::BeginMode, i, m)) => (Phase::ModePrepare, i, m),
            Some((Hook::RowRange, i, m)) => (Phase::Sweep, i, m),
            Some((Hook::SyncFactor, i, m)) if next == Some((Hook::BeginMode, i)) => {
                (Phase::ModePost, i, m)
            }
            Some((Hook::SyncFactor, i, m)) => (Phase::IterTail, i, m),
            // Between `end_iter` and the next iteration's first hook is
            // loop bookkeeping: part of the tail.
            Some((Hook::EndIter, i, m)) if matches!(next, Some((Hook::BeginMode, _))) => {
                (Phase::IterTail, i, m)
            }
            Some((Hook::EndIter | Hook::Finish, i, m)) => (Phase::Finish, i, m),
        };
        spans.push(Span {
            phase,
            iter,
            mode,
            start_s: start,
            secs: at - start,
        });
        if let Some(&(hook, iter, mode, _)) = marks.get(k) {
            open = Some((hook, iter, mode));
        }
        start = at;
    }
    spans
}

/// Per-layer numbers derived from one traced fit.
#[derive(Debug, Clone, Default)]
pub struct FitBreakdown {
    /// Total seconds per phase over the whole fit.
    pub total: [f64; 6],
    /// Median over iterations of the per-iteration phase total (zero for
    /// the two once-per-fit phases).
    pub per_iter_median: [f64; 6],
    /// Sum of every span: must reconcile with the fit's wall.
    pub span_sum: f64,
}

impl FitBreakdown {
    pub fn of(spans: &[Span]) -> Self {
        let mut out = FitBreakdown::default();
        let iters = spans.iter().map(|s| s.iter + 1).max().unwrap_or(0);
        for (k, phase) in Phase::ALL.iter().enumerate() {
            let of_phase = || spans.iter().filter(|s| s.phase == *phase);
            out.total[k] = of_phase().map(|s| s.secs).sum();
            if !matches!(phase, Phase::FitSetup | Phase::Finish) {
                let per_iter: Vec<f64> = (0..iters)
                    .map(|i| of_phase().filter(|s| s.iter == i).map(|s| s.secs).sum())
                    .collect();
                out.per_iter_median[k] = median(&per_iter);
            }
        }
        out.span_sum = spans.iter().map(|s| s.secs).sum();
        out
    }

    pub fn total_of(&self, phase: Phase) -> f64 {
        self.total[Phase::ALL.iter().position(|p| *p == phase).expect("listed")]
    }

    pub fn per_iter_of(&self, phase: Phase) -> f64 {
        self.per_iter_median[Phase::ALL.iter().position(|p| *p == phase).expect("listed")]
    }

    /// `|Σ spans − wall| / wall`: how far the spans are from tiling the
    /// fit's wall-clock.
    pub fn reconciliation_gap(&self, wall_s: f64) -> f64 {
        if wall_s > 0.0 {
            (self.span_sum - wall_s).abs() / wall_s
        } else {
            f64::INFINITY
        }
    }
}

pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(format!("core.{}", s.phase.name()))),
                    ("parent", Json::str("fit")),
                    ("iter", Json::Num(s.iter as f64)),
                    ("mode", Json::Num(s.mode as f64)),
                    ("start_s", Json::Num(s.start_s)),
                    ("secs", Json::Num(s.secs)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hook timestamps of a 2-iteration, 2-mode fit, one hook every 1 s
    /// except the sweeps, which take 10 s.
    fn two_by_two() -> (Vec<(Hook, usize, usize, f64)>, f64) {
        let mut t = 2.0; // fit_setup
        let mut marks = Vec::new();
        for iter in 0..2 {
            for mode in 0..2 {
                marks.push((Hook::BeginMode, iter, mode, t));
                t += 1.0; // prepare
                marks.push((Hook::RowRange, iter, mode, t));
                t += 10.0; // sweep
                marks.push((Hook::SyncFactor, iter, mode, t));
                t += if mode == 0 { 3.0 } else { 5.0 }; // post / tail
            }
            marks.push((Hook::EndIter, iter, 1, t));
            t += 0.5; // loop gap / QR
        }
        marks.push((Hook::Finish, 1, 1, t));
        (marks, t + 0.25)
    }

    #[test]
    fn spans_tile_the_wall_and_attribute_phases() {
        let (marks, wall) = two_by_two();
        let spans = cut_spans(&marks, wall);
        let b = FitBreakdown::of(&spans);
        assert!(
            b.reconciliation_gap(wall) < 1e-12,
            "spans must sum to the wall"
        );
        assert_eq!(b.total_of(Phase::FitSetup), 2.0);
        assert_eq!(b.total_of(Phase::ModePrepare), 4.0);
        assert_eq!(b.total_of(Phase::Sweep), 40.0);
        // Only mode 0 has a successor mode: its 3 s are post_mode.
        assert_eq!(b.total_of(Phase::ModePost), 6.0);
        // Mode 1's 5 s, plus the 0.5 s gap after the first end_iter.
        assert_eq!(b.total_of(Phase::IterTail), 10.5);
        // Last end_iter → finish hook → return.
        assert_eq!(b.total_of(Phase::Finish), 0.75);
        assert_eq!(b.per_iter_of(Phase::Sweep), 20.0);
        assert_eq!(b.per_iter_of(Phase::FitSetup), 0.0);
        // Contiguity: every span starts where the previous one ended.
        for w in spans.windows(2) {
            assert!((w[0].start_s + w[0].secs - w[1].start_s).abs() < 1e-12);
        }
    }

    #[test]
    fn a_missing_end_iter_still_reconciles() {
        // A converged fit breaks before `end_iter`: the tail runs into
        // the finish hook and the spans still tile the wall.
        let (mut marks, wall) = two_by_two();
        marks.retain(|&(h, i, _, _)| !(h == Hook::EndIter && i == 1));
        let b = FitBreakdown::of(&cut_spans(&marks, wall));
        assert!(b.reconciliation_gap(wall) < 1e-12);
        assert_eq!(b.total_of(Phase::IterTail), 5.0 + 0.5 + 5.5);
    }

    #[test]
    fn a_gap_shows_as_a_reconciliation_failure() {
        let (marks, wall) = two_by_two();
        let b = FitBreakdown::of(&cut_spans(&marks, wall));
        assert!(b.reconciliation_gap(wall * 1.05) > 0.02);
    }
}
