use crate::TuckerDecomposition;

/// Per-iteration measurements recorded during a fit.
#[derive(Debug, Clone, PartialEq)]
pub struct IterStats {
    /// Zero-based iteration index.
    pub iter: usize,
    /// Reconstruction error (Eq. 5) after this iteration's factor updates
    /// (measured *before* any Approx truncation, matching Algorithm 2's
    /// ordering).
    pub reconstruction_error: f64,
    /// Wall-clock seconds spent in this iteration (factor updates + error
    /// computation + truncation).
    pub seconds: f64,
    /// Number of core entries `|G|` at the *end* of the iteration (shrinks
    /// under P-Tucker-Approx).
    pub core_nnz: usize,
}

/// Aggregate statistics for a completed fit.
#[derive(Debug, Clone)]
pub struct FitStats {
    /// One record per ALS iteration, in order.
    pub iterations: Vec<IterStats>,
    /// Whether the error converged before `max_iters` was reached.
    pub converged: bool,
    /// Total wall-clock seconds including initialization and the final QR.
    pub total_seconds: f64,
    /// High-water mark of metered intermediate data in bytes (Definition 7
    /// of the paper; what Table III's memory column and Figs. 8b/10b
    /// measure).
    pub peak_intermediate_bytes: usize,
    /// High-water mark of intermediate data **spilled to disk** in bytes:
    /// 0 for an in-memory fit; for an out-of-core fit, the scratch-file
    /// footprint of the execution plan (and, for the Cache variant, its
    /// double-buffered `Pres` table).
    pub peak_spilled_bytes: usize,
    /// Reconstruction error of the returned (orthogonalized) model.
    pub final_error: f64,
    /// Bytes this process sent to fit-sync peers (factor rows, stats,
    /// control frames). Zero on single-process fits; populated by the
    /// `ptucker-shard` coordinator/worker drivers.
    pub bytes_sent: u64,
    /// Bytes this process received from fit-sync peers. Zero on
    /// single-process fits.
    pub bytes_received: u64,
    /// Bytes read back from budget-tracked scratch files during the fit
    /// (window refills, and the COO source scans of the external plan
    /// build and the whole-tensor passes).
    /// Zero for a fully resident fit. The disk-traffic twin of
    /// [`FitStats::bytes_sent`]/[`FitStats::bytes_received`].
    pub io_read_bytes: u64,
    /// Bytes written to budget-tracked scratch files during the fit
    /// (plan spills, checkpoint-free scratch state). Zero for a fully
    /// resident fit.
    pub io_write_bytes: u64,
    /// Whether the background prefetch pipeline actually ran. `false`
    /// when nothing spilled, when [`crate::FitOptions::prefetch`] was
    /// off, or when the driver's self-gate declined it (windows below
    /// the amortization threshold, or no spare hardware thread for the
    /// refill to ride). Lets harnesses distinguish "prefetch measured"
    /// from "prefetch requested but identical to the single buffer".
    pub prefetch_engaged: bool,
}

impl FitStats {
    /// Average wall-clock seconds per iteration — the paper reports this
    /// rather than total time "in order to confirm the theoretical
    /// complexities, which are analyzed per iteration" (Section IV-A3).
    pub fn avg_seconds_per_iter(&self) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        self.iterations.iter().map(|s| s.seconds).sum::<f64>() / self.iterations.len() as f64
    }

    /// Error trajectory as `(cumulative seconds, error)` pairs — the series
    /// Figure 9(b) plots.
    pub fn error_trajectory(&self) -> Vec<(f64, f64)> {
        let mut t = 0.0;
        self.iterations
            .iter()
            .map(|s| {
                t += s.seconds;
                (t, s.reconstruction_error)
            })
            .collect()
    }
}

/// A completed fit: the model plus its measurements.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// The fitted (orthogonalized) Tucker model.
    pub decomposition: TuckerDecomposition,
    /// Timing/error/memory statistics.
    pub stats: FitStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(secs: &[f64], errs: &[f64]) -> FitStats {
        FitStats {
            iterations: secs
                .iter()
                .zip(errs)
                .enumerate()
                .map(|(i, (&s, &e))| IterStats {
                    iter: i,
                    reconstruction_error: e,
                    seconds: s,
                    core_nnz: 8,
                })
                .collect(),
            converged: true,
            total_seconds: secs.iter().sum(),
            peak_intermediate_bytes: 0,
            peak_spilled_bytes: 0,
            final_error: *errs.last().unwrap_or(&0.0),
            bytes_sent: 0,
            bytes_received: 0,
            io_read_bytes: 0,
            io_write_bytes: 0,
            prefetch_engaged: false,
        }
    }

    #[test]
    fn avg_seconds() {
        let s = stats(&[1.0, 2.0, 3.0], &[9.0, 8.0, 7.0]);
        assert!((s.avg_seconds_per_iter() - 2.0).abs() < 1e-12);
        let empty = FitStats {
            iterations: vec![],
            converged: false,
            total_seconds: 0.0,
            peak_intermediate_bytes: 0,
            peak_spilled_bytes: 0,
            final_error: 0.0,
            bytes_sent: 0,
            bytes_received: 0,
            io_read_bytes: 0,
            io_write_bytes: 0,
            prefetch_engaged: false,
        };
        assert_eq!(empty.avg_seconds_per_iter(), 0.0);
    }

    #[test]
    fn trajectory_accumulates_time() {
        let s = stats(&[1.0, 2.0], &[5.0, 4.0]);
        assert_eq!(s.error_trajectory(), vec![(1.0, 5.0), (3.0, 4.0)]);
    }
}
