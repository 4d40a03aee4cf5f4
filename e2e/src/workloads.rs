//! The six workloads: what each one fixes, and how `--seconds` and
//! `--smoke` scale it. Every workload is the whole pipeline — TSV on disk
//! → ingest → plan → fit → model file → load → serve → queries — and they
//! differ in which stage carries the time. See the README for why each
//! exists and which layer it is expected to show.

use crate::api::{FitConfig, Kernel};

/// `BENCHMARK.json`'s `run_seconds`: the `--seconds` the iteration counts
/// and phase lengths below are calibrated for, and the only value the
/// stored expected outputs apply to.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// The seed the stored expected outputs were recorded with.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Input {
    /// `datagen::movielens(scale)`: 4-way ratings with planted structure,
    /// 90/10 train/test split.
    MovieLens { scale: f64 },
    /// `stream_zipf_to_scratch`: 3-way Zipf-skewed coordinates, uniform
    /// values, every tenth entry held out.
    Zipf {
        dims: [usize; 3],
        nnz: usize,
        skew: f64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// `read_dataset` → `PTucker::fit`.
    Resident,
    /// `tsv_to_scratch` → `PTucker::fit_scratch` under this budget.
    Disk { budget_bytes: usize },
    /// `read_dataset` → `ShardedFit` over this many worker processes.
    Sharded { workers: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseKind {
    /// Closed loop, point batches.
    Point,
    /// Closed loop, top-K batches.
    TopK,
    /// Closed loop, point : top-K requests 4 : 1.
    Mixed,
    /// `Mixed` while a publisher swaps snapshots every 50 ms.
    PublishMixed,
    /// Open loop at a fixed arrival rate (requests/s), same 4 : 1 mix.
    Open { rate: f64 },
}

/// One serving phase and the share of `--seconds` it measures for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    pub kind: PhaseKind,
    pub share: f64,
}

const fn phase(kind: PhaseKind, share: f64) -> PhaseSpec {
    PhaseSpec { kind, share }
}

/// After a fit-heavy workload: enough serving to price the model it
/// produced and to prove the stored file answers queries.
const BRIEF_SERVING: &[PhaseSpec] = &[
    phase(PhaseKind::Point, 0.1),
    phase(PhaseKind::TopK, 0.1),
    phase(PhaseKind::Mixed, 0.1),
];

/// The serving-heavy workload's phases.
const FULL_SERVING: &[PhaseSpec] = &[
    phase(PhaseKind::Point, 0.14),
    phase(PhaseKind::TopK, 0.14),
    phase(PhaseKind::Mixed, 0.14),
    phase(PhaseKind::PublishMixed, 0.1),
    phase(PhaseKind::Open { rate: 200.0 }, 0.08),
    phase(PhaseKind::Open { rate: 400.0 }, 0.08),
    phase(PhaseKind::Open { rate: 600.0 }, 0.08),
];

/// The fixed open-loop arrival rates, as metric-name suffixes.
pub const OPEN_RATES: [u32; 3] = [200, 400, 600];

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub input: Input,
    pub placement: Placement,
    pub kernel: Kernel,
    pub rank: usize,
    /// Threads per fitting process (fixed, not `nproc`, so numbers compare
    /// across machines).
    pub threads: usize,
    /// ALS iterations per second of `--seconds`.
    pub iters_per_second: f64,
    pub phases: &'static [PhaseSpec],
}

const MOVIELENS: Input = Input::MovieLens { scale: 0.01 };
const WIDE: [usize; 3] = [20_000, 4_000, 200];

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "resident_direct",
        why: "Paper's headline setup: Direct kernel, J=6, resident; the row sweep is ~80% of an iteration, nothing masks kernel or scheduling work",
        input: MOVIELENS,
        placement: Placement::Resident,
        kernel: Kernel::Direct,
        rank: 6,
        threads: 2,
        iters_per_second: 0.5,
        phases: BRIEF_SERVING,
    },
    Workload {
        name: "resident_cache",
        why: "Cache kernel, J=4: sweeps read the 370 MB Pres table and post-mode rescale/reorder dominates; the memory-heavy workload",
        input: MOVIELENS,
        placement: Placement::Resident,
        kernel: Kernel::Cache,
        rank: 4,
        threads: 2,
        iters_per_second: 0.6,
        phases: BRIEF_SERVING,
    },
    Workload {
        name: "resident_approx",
        why: "Approx(0.2) kernel, J=6: the R(beta) ranking pass and truncation load the iteration tail while the core shrinks",
        input: MOVIELENS,
        placement: Placement::Resident,
        kernel: Kernel::Approx(0.2),
        rank: 6,
        threads: 2,
        iters_per_second: 0.5,
        phases: BRIEF_SERVING,
    },
    Workload {
        name: "disk_direct",
        why: "Disk-to-disk: 2M-entry TSV, tsv_to_scratch, external-sort plan, windowed sweeps with prefetch under a 64 MiB budget; only here does I/O work",
        input: Input::Zipf {
            dims: WIDE,
            nnz: 2_000_000,
            skew: 1.05,
        },
        placement: Placement::Disk {
            budget_bytes: 64 << 20,
        },
        kernel: Kernel::Direct,
        rank: 5,
        threads: 2,
        iters_per_second: 0.4,
        phases: BRIEF_SERVING,
    },
    Workload {
        name: "sharded_direct",
        why: "Two worker processes, 1 thread each: the only fit crossing shard + transport (plan shipping, per-mode row/factor frames, replicated error pass)",
        input: MOVIELENS,
        placement: Placement::Sharded { workers: 2 },
        kernel: Kernel::Direct,
        rank: 6,
        threads: 1,
        iters_per_second: 0.4,
        phases: BRIEF_SERVING,
    },
    Workload {
        name: "serve_queries",
        why: "Read path: a quick wide sparse fit (20000x4000x200, J=10), then closed-loop point/top-K/mixed, mixed under a publisher, open loop at 3 fixed rates",
        input: Input::Zipf {
            dims: WIDE,
            nnz: 200_000,
            skew: 1.05,
        },
        placement: Placement::Resident,
        kernel: Kernel::Direct,
        rank: 10,
        threads: 2,
        iters_per_second: 0.6,
        phases: FULL_SERVING,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a run scales a workload: `--seconds` stretches iteration counts
/// and phase lengths, `--smoke` shrinks inputs to ~1/50 for a seconds-long
/// check of every code path.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub seconds: f64,
    pub smoke: bool,
}

impl Scale {
    /// Full size at the default `--seconds`: the configuration
    /// `expected.json` was recorded at.
    pub fn is_reference(&self) -> bool {
        !self.smoke && self.seconds == DEFAULT_SECONDS
    }
}

impl Workload {
    pub fn input_at(&self, scale: Scale) -> Input {
        if !scale.smoke {
            return self.input;
        }
        match self.input {
            Input::MovieLens { scale: s } => Input::MovieLens { scale: s / 50.0 },
            Input::Zipf { dims, nnz, skew } => Input::Zipf {
                dims: [dims[0] / 10, dims[1] / 10, dims[2] / 4],
                nnz: nnz / 50,
                skew,
            },
        }
    }

    pub fn iters(&self, scale: Scale) -> usize {
        if scale.smoke {
            return 2;
        }
        ((self.iters_per_second * scale.seconds).round() as usize).max(2)
    }

    pub fn fit_config(&self, scale: Scale) -> FitConfig {
        FitConfig {
            kernel: self.kernel,
            rank: self.rank,
            iters: self.iters(scale),
            threads: self.threads,
            budget_bytes: match self.placement {
                // The smoke input is 1/50 the size; so is its budget, so
                // the plan still spills and the prefetch ring still turns.
                Placement::Disk { budget_bytes } if scale.smoke => Some(budget_bytes / 50),
                Placement::Disk { budget_bytes } => Some(budget_bytes),
                _ => None,
            },
        }
    }

    pub fn phase_seconds(&self, spec: PhaseSpec, scale: Scale) -> f64 {
        if scale.smoke {
            // Long enough for the publisher's 50 ms swaps to be seen.
            0.15
        } else {
            spec.share * scale.seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_contract_sized() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(find(w.name).is_some());
        }
    }

    #[test]
    fn seconds_scale_iterations_and_phases() {
        let w = find("resident_direct").unwrap();
        let at = |seconds| Scale {
            seconds,
            smoke: false,
        };
        assert_eq!(w.iters(at(10.0)), 5);
        assert_eq!(w.iters(at(20.0)), 10);
        assert_eq!(w.iters(at(1.0)), 2, "never fewer than two iterations");
        assert_eq!(w.phase_seconds(w.phases[0], at(20.0)), 2.0);
        assert!(at(10.0).is_reference());
        assert!(!at(9.0).is_reference());
    }

    #[test]
    fn serving_heavy_workload_spends_most_of_its_time_serving() {
        let total = |w: &Workload| w.phases.iter().map(|p| p.share).sum::<f64>();
        assert!(total(find("serve_queries").unwrap()) > 0.7);
        assert!(total(find("resident_direct").unwrap()) < 0.35);
    }
}
