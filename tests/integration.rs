//! Cross-crate integration tests: generated data → fits → metrics →
//! discovery, exercising the same pipelines the paper's experiments use.

use ptucker::{BudgetPolicy, FitOptions, MemoryBudget, PTucker, PtuckerError, Schedule, Variant};
use ptucker_baselines::{s_hot, tucker_csf, tucker_wopt, BaselineOptions};
use ptucker_datagen::{planted_lowrank, realworld, uniform_sparse};
use ptucker_discovery::{cluster_purity, discover_concepts, discover_relations};
use ptucker_tensor::{read_tsv, write_tsv, SparseTensor, TrainTestSplit};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn planted_3way(seed: u64) -> SparseTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    planted_lowrank(&[20, 16, 12], &[3, 3, 3], 1_500, 0.02, &mut rng).tensor
}

#[test]
fn end_to_end_all_methods_rank_correctly_on_held_out_data() {
    // The Fig. 11 ordering: observed-only methods (P-Tucker, wOpt) beat
    // zero-imputing methods (CSF, S-HOT) on held-out RMSE.
    let x = planted_3way(1);
    let mut rng = StdRng::seed_from_u64(2);
    let split = TrainTestSplit::new(&x, 0.1, &mut rng).unwrap();

    let pt = PTucker::new(
        FitOptions::new(vec![3, 3, 3])
            .max_iters(12)
            .seed(3)
            .threads(2),
    )
    .unwrap()
    .fit(&split.train)
    .unwrap();
    let base = BaselineOptions::new(vec![3, 3, 3])
        .max_iters(12)
        .seed(3)
        .threads(2);
    let wopt = tucker_wopt(&split.train, &base).unwrap();
    let csf = tucker_csf(&split.train, &base).unwrap();
    let shot = s_hot(&split.train, &base).unwrap();

    let rmse = |r: &ptucker::FitResult| r.decomposition.test_rmse(&split.test, 2, Schedule::Static);
    let (r_pt, r_wopt, r_csf, r_shot) = (rmse(&pt), rmse(&wopt), rmse(&csf), rmse(&shot));
    assert!(
        r_pt < r_csf && r_pt < r_shot,
        "P-Tucker ({r_pt}) must beat zero-imputing CSF ({r_csf}) / S-HOT ({r_shot})"
    );
    assert!(
        r_wopt < r_csf && r_wopt < r_shot,
        "wOpt ({r_wopt}) must beat zero-imputing CSF ({r_csf}) / S-HOT ({r_shot})"
    );
}

#[test]
fn io_roundtrip_preserves_fit_results() {
    let x = planted_3way(4);
    let dir = std::env::temp_dir().join("ptucker-suite-it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.tsv");
    write_tsv(&path, &x).unwrap();
    let x2 = read_tsv(&path).unwrap();
    assert_eq!(x2.nnz(), x.nnz());

    let opts = FitOptions::new(vec![3, 3, 3]).max_iters(3).tol(0.0).seed(9);
    let a = PTucker::new(opts.clone()).unwrap().fit(&x).unwrap();
    let b = PTucker::new(opts).unwrap().fit(&x2).unwrap();
    // Entry order may differ (values written in entry order then re-read in
    // the same order), but the tensors are identical here — errors match.
    assert!(
        (a.stats.final_error - b.stats.final_error).abs() < 1e-9 * a.stats.final_error.max(1.0)
    );
}

#[test]
fn variants_all_converge_on_the_same_data() {
    let x = planted_3way(5);
    for variant in [
        Variant::Default,
        Variant::Cache,
        Variant::Approx {
            truncation_rate: 0.2,
        },
    ] {
        let r = PTucker::new(
            FitOptions::new(vec![3, 3, 3])
                .max_iters(10)
                .seed(6)
                .threads(2)
                .variant(variant),
        )
        .unwrap()
        .fit(&x)
        .unwrap();
        let rel = r.stats.final_error / x.frobenius_norm();
        assert!(rel < 0.35, "{variant:?} rel error {rel}");
    }
}

#[test]
fn discovery_pipeline_recovers_planted_genres() {
    let mut rng = StdRng::seed_from_u64(7);
    let sim = realworld::movielens(0.002, &mut rng);
    let fit = PTucker::new(
        FitOptions::new(vec![8, 8, 4, 4])
            .max_iters(6)
            .seed(1)
            .threads(2),
    )
    .unwrap()
    .fit(&sim.tensor)
    .unwrap();
    let concepts = discover_concepts(&fit.decomposition.factors[1], realworld::NUM_GENRES, 0);
    let purity = cluster_purity(&concepts.clustering.assignments, &sim.movie_genre);
    assert!(purity > 0.8, "genre purity {purity}");
    // Relations must be well-formed and sorted by magnitude.
    let rels = discover_relations(&fit.decomposition.core, 10);
    assert!(!rels.is_empty());
    for w in rels.windows(2) {
        assert!(w[0].strength.abs() >= w[1].strength.abs());
    }
}

#[test]
fn oom_boundaries_by_method() {
    // One workload, three budgets: the ordering of memory appetites is
    // wOpt (dense) > Cache (|Ω|·|G|) > CSF (I·J^{N-1}) > P-Tucker (T·J²).
    // The cross-method boundary matrix runs under BudgetPolicy::Strict —
    // the paper's regime, where overflow is O.O.M. for everyone. (Under
    // the default Spill policy P-Tucker's Direct fit never O.O.M.s; see
    // `spill_semantics_replace_oom_for_ptucker` below.)
    let mut rng = StdRng::seed_from_u64(8);
    let x = uniform_sparse(&[40, 40, 40], 2_000, &mut rng);
    let ranks = vec![4, 4, 4];

    let fit_with = |budget: MemoryBudget| -> [bool; 4] {
        let popts = FitOptions::new(ranks.clone())
            .max_iters(1)
            .seed(1)
            .threads(2)
            .budget(budget.clone());
        let bopts = BaselineOptions::new(ranks.clone())
            .max_iters(1)
            .seed(1)
            .threads(2)
            .budget(budget.clone());
        [
            PTucker::new(popts.clone()).unwrap().fit(&x).is_ok(),
            PTucker::new(popts.variant(Variant::Cache))
                .unwrap()
                .fit(&x)
                .is_ok(),
            tucker_csf(&x, &bopts).is_ok(),
            tucker_wopt(&x, &bopts).is_ok(),
        ]
    };
    let strict = |bytes: usize| MemoryBudget::with_policy(bytes, BudgetPolicy::Strict);

    // Plenty for everyone.
    assert_eq!(fit_with(strict(64 << 20)), [true; 4]);
    // 300 KB: kills wOpt (needs ~1 MB dense) and Cache (2000*64*8 = 1 MB),
    // CSF needs 40*16*8 = 5 KB → lives; P-Tucker needs ~KBs → lives.
    assert_eq!(fit_with(strict(300 << 10)), [true, false, true, false]);
    // P-Tucker's metered footprint is its mode-major plan (O(N·|Ω|)
    // words, ~120 KB here) plus Theorem 4's T·(2J²+(E+1)·J) doubles of
    // scratch (well under 1 KB): it must fit with the plan plus a little
    // headroom…
    let plan_bytes = ptucker_suite::tensor::ModeStreams::bytes_for(&x);
    let fits = fit_with(strict(plan_bytes + (4 << 10)));
    assert!(
        fits[0],
        "P-Tucker should fit in plan ({plan_bytes} B) + 4 KiB of scratch"
    );
    // …and report the paper's O.O.M. below the plan size, like everyone
    // whose data plane exceeds the machine.
    let tiny = fit_with(strict(1 << 10));
    assert_eq!(tiny, [false, false, false, false]);
}

#[test]
fn spill_semantics_replace_oom_for_ptucker() {
    // Under the default BudgetPolicy::Spill, budgets that used to O.O.M.
    // P-Tucker now complete out of core: the plan moves to a scratch
    // file, sweeps run over slice-aligned windows, and the fit reports its
    // disk footprint. The baselines have no spilled mode, so the same
    // budget still kills them — the paper's headline separation, now
    // *survived* instead of merely reproduced. P-Tucker-Cache trades
    // memory for speed and stays resident-only: its |Ω|·|G| table is
    // O.O.M. here under either policy, as in the paper's Table III.
    let mut rng = StdRng::seed_from_u64(8);
    let x = uniform_sparse(&[40, 40, 40], 2_000, &mut rng);
    let ranks = vec![4, 4, 4];
    let tiny = MemoryBudget::new(1 << 10);
    assert_eq!(tiny.policy(), BudgetPolicy::Spill);

    let popts = FitOptions::new(ranks.clone())
        .max_iters(2)
        .seed(1)
        .threads(2)
        .budget(tiny.clone());
    let direct = PTucker::new(popts.clone()).unwrap().fit(&x).unwrap();
    assert!(direct.stats.peak_spilled_bytes > 0);
    let cached = PTucker::new(popts.clone().variant(Variant::Cache))
        .unwrap()
        .fit(&x);
    assert!(matches!(cached, Err(PtuckerError::OutOfMemory(_))));
    // Same seed, same trajectory as an unconstrained in-memory fit.
    let roomy = PTucker::new(popts.budget(MemoryBudget::unlimited()))
        .unwrap()
        .fit(&x)
        .unwrap();
    for (a, b) in roomy.stats.iterations.iter().zip(&direct.stats.iterations) {
        let rel = (a.reconstruction_error - b.reconstruction_error).abs()
            / a.reconstruction_error.max(1e-12);
        assert!(rel < 1e-9, "iter {}: rel {rel}", a.iter);
    }
    // Zero-imputing baselines still die at this budget.
    let bopts = BaselineOptions::new(ranks)
        .max_iters(1)
        .seed(1)
        .threads(2)
        .budget(tiny);
    assert!(tucker_csf(&x, &bopts).is_err());
    assert!(tucker_wopt(&x, &bopts).is_err());
}

#[test]
fn error_metrics_consistent_across_crates() {
    // ptucker's internal error equals the decomposition's public metric.
    let x = planted_3way(10);
    let r = PTucker::new(FitOptions::new(vec![3, 3, 3]).max_iters(4).seed(2))
        .unwrap()
        .fit(&x)
        .unwrap();
    let public = r
        .decomposition
        .reconstruction_error(&x, 2, Schedule::dynamic());
    assert!(
        (public - r.stats.final_error).abs() < 1e-9 * public.max(1.0),
        "public {public} vs stats {}",
        r.stats.final_error
    );
}

#[test]
fn sampling_extension_trades_accuracy_for_speed() {
    let x = planted_3way(11);
    let base = FitOptions::new(vec![3, 3, 3]).max_iters(6).tol(0.0).seed(3);
    let full = PTucker::new(base.clone()).unwrap().fit(&x).unwrap();
    let sampled = PTucker::new(base.sample_stride(4))
        .unwrap()
        .fit(&x)
        .unwrap();
    // Sampled fit sees 1/4 of the entries per row update: it must still
    // produce a usable model (bounded error inflation).
    assert!(sampled.stats.final_error < 4.0 * full.stats.final_error + 1.0);
}

#[test]
fn four_way_pipeline_smoke() {
    let mut rng = StdRng::seed_from_u64(12);
    let x = planted_lowrank(&[10, 9, 8, 7], &[2, 2, 2, 2], 900, 0.01, &mut rng).tensor;
    let r = PTucker::new(
        FitOptions::new(vec![2, 2, 2, 2])
            .max_iters(8)
            .seed(5)
            .threads(2),
    )
    .unwrap()
    .fit(&x)
    .unwrap();
    let rel = r.stats.final_error / x.frobenius_norm();
    assert!(rel < 0.3, "4-way fit rel error {rel}");
    // Baselines handle 4-way too.
    let b = BaselineOptions::new(vec![2, 2, 2, 2]).max_iters(3).seed(5);
    assert!(tucker_csf(&x, &b).is_ok());
    assert!(s_hot(&x, &b).is_ok());
}

#[test]
fn invalid_configs_rejected_uniformly() {
    let x = planted_3way(13);
    // Wrong order.
    assert!(matches!(
        PTucker::new(FitOptions::new(vec![3, 3])).unwrap().fit(&x),
        Err(PtuckerError::InvalidConfig(_))
    ));
    let b = BaselineOptions::new(vec![3, 3]);
    assert!(tucker_csf(&x, &b).is_err());
    assert!(s_hot(&x, &b).is_err());
    assert!(tucker_wopt(&x, &b).is_err());
    // Rank exceeding dimensionality.
    let b2 = BaselineOptions::new(vec![100, 3, 3]);
    assert!(tucker_csf(&x, &b2).is_err());
}
