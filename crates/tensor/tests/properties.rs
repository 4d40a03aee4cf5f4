//! Property-based tests of the tensor substrate: index algebra, I/O
//! round-trips, core truncation invariants, and the mode-product identity
//! that underpins the QR core update.

use proptest::prelude::*;
use ptucker_linalg::Matrix;
use ptucker_tensor::{
    read_tsv, write_tsv, CoreTensor, DenseTensor, ModeStreams, SparseTensor, TrainTestSplit,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_sparse() -> impl Strategy<Value = SparseTensor> {
    (2..=4usize).prop_flat_map(|order| {
        proptest::collection::vec(2..7usize, order).prop_flat_map(move |dims| {
            let max_nnz = dims.iter().product::<usize>().min(30);
            proptest::collection::vec(
                (
                    proptest::collection::vec(0..100usize, dims.len()),
                    -9.0..9.0f64,
                ),
                1..=max_nnz,
            )
            .prop_map(move |raw| {
                let mut map = std::collections::HashMap::new();
                for (idx, v) in raw {
                    let idx: Vec<usize> = idx.iter().zip(&dims).map(|(i, d)| i % d).collect();
                    map.insert(idx, v);
                }
                SparseTensor::new(dims.clone(), map.into_iter().collect()).unwrap()
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn tsv_roundtrip_preserves_everything(x in arb_sparse(), tag in 0u64..1_000_000) {
        let dir = std::env::temp_dir().join("ptucker-tensor-proptests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t{tag}.tsv"));
        write_tsv(&path, &x).unwrap();
        let y = read_tsv(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(y.nnz(), x.nnz());
        prop_assert_eq!(y.order(), x.order());
        // Dims may shrink if trailing indices are unobserved; every read
        // dim is bounded by the original.
        for (dy, dx) in y.dims().iter().zip(x.dims()) {
            prop_assert!(dy <= dx);
        }
        for e in 0..x.nnz() {
            prop_assert_eq!(y.index(e), x.index(e));
            prop_assert!((y.value(e) - x.value(e)).abs() < 1e-12);
        }
    }

    #[test]
    fn split_partitions_and_preserves_norm(x in arb_sparse(), frac in 0.0..0.9f64, seed in 0u64..100) {
        prop_assume!(x.nnz() >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = TrainTestSplit::new(&x, frac, &mut rng).unwrap();
        prop_assert_eq!(s.train.nnz() + s.test.nnz(), x.nnz());
        let total2 = s.train.frobenius_norm().powi(2) + s.test.frobenius_norm().powi(2);
        prop_assert!((total2 - x.frobenius_norm().powi(2)).abs() < 1e-9 * (1.0 + total2));
    }

    #[test]
    fn core_dense_roundtrip_and_retain(dims in proptest::collection::vec(2..5usize, 2..4), seed in 0u64..100, keep_mod in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = CoreTensor::random_dense(dims.clone(), &mut rng).unwrap();
        let before = g.to_dense().unwrap();
        let nnz0 = g.nnz();
        g.retain_by_id(|e| e % keep_mod == 0);
        prop_assert_eq!(g.nnz(), nnz0.div_ceil(keep_mod));
        // Every retained entry keeps its original value.
        let after = g.to_dense().unwrap();
        for (a, b) in after.as_slice().iter().zip(before.as_slice()) {
            prop_assert!(*a == 0.0 || (a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn core_mode_product_matches_dense_tensor_product(
        dims in proptest::collection::vec(2..4usize, 2..4),
        seed in 0u64..100,
        mode_pick in 0usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = CoreTensor::random_dense(dims.clone(), &mut rng).unwrap();
        let mode = mode_pick % dims.len();
        let j = dims[mode];
        let m = Matrix::from_vec(
            j,
            j,
            (0..j * j).map(|k| ((k * 7 + 3) % 11) as f64 - 5.0).collect(),
        )
        .unwrap();
        let expect = g.to_dense().unwrap().mode_product(mode, &m).unwrap();
        g.mode_product_in_place(mode, &m, 0.0).unwrap();
        let got = g.to_dense().unwrap();
        for (a, b) in got.as_slice().iter().zip(expect.as_slice()) {
            prop_assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn dense_mode_product_preserves_contraction_identity(
        dims in proptest::collection::vec(2..4usize, 2..3),
    ) {
        // Contracting with a row of ones sums the mode: the result's total
        // sum equals the original total sum.
        let t = DenseTensor::from_fn(dims.clone(), |i| {
            i.iter().map(|&v| v as f64 + 0.5).product()
        })
        .unwrap();
        for (n, &dim_n) in dims.iter().enumerate() {
            let ones = Matrix::from_vec(1, dim_n, vec![1.0; dim_n]).unwrap();
            let contracted = t.mode_product(n, &ones).unwrap();
            let s1: f64 = t.as_slice().iter().sum();
            let s2: f64 = contracted.as_slice().iter().sum();
            prop_assert!((s1 - s2).abs() < 1e-9 * (1.0 + s1.abs()));
        }
    }

    #[test]
    fn subset_of_all_ids_is_identity(x in arb_sparse()) {
        let ids: Vec<usize> = (0..x.nnz()).collect();
        let y = x.subset(&ids).unwrap();
        prop_assert_eq!(y.nnz(), x.nnz());
        for e in 0..x.nnz() {
            prop_assert_eq!(y.index(e), x.index(e));
            prop_assert_eq!(y.value(e), x.value(e));
        }
    }

    #[test]
    fn core_constructors_and_mutations_preserve_lex_order(
        dims in proptest::collection::vec(1..5usize, 1..5),
        raw in proptest::collection::vec(
            (proptest::collection::vec(0..100usize, 8), -5.0..5.0f64),
            1..25,
        ),
        keep_mod in 2usize..4,
        seed in 0u64..100,
    ) {
        // The CoreTensor type contract: every constructor establishes
        // strictly ascending lexicographic entry order (from_entries even
        // from shuffled input) and every mutation preserves it — the
        // invariant the run-blocked δ kernel's fast path rides on.
        let order = dims.len();
        let mut cells = std::collections::BTreeMap::new();
        for (idx, v) in &raw {
            let idx: Vec<usize> = idx[..order]
                .iter()
                .zip(&dims)
                .map(|(i, d)| i % d)
                .collect();
            cells.insert(idx, *v);
        }
        // Deliberately feed the entries in reverse-sorted (non-lex) order.
        let entries: Vec<(Vec<usize>, f64)> = cells.into_iter().rev().collect();
        let mut g = CoreTensor::from_entries(dims.clone(), entries).unwrap();
        prop_assert!(g.is_lexicographic());
        g.retain_by_id(|e| e % keep_mod == 0);
        prop_assert!(g.is_lexicographic());
        let mut rng = StdRng::seed_from_u64(seed);
        let d = CoreTensor::random_dense(dims.clone(), &mut rng).unwrap();
        prop_assert!(d.is_lexicographic());
        prop_assert!(CoreTensor::from_dense(&d.to_dense().unwrap(), 0.0)
            .unwrap()
            .is_lexicographic());
    }

    #[test]
    fn mode_stream_is_a_permutation_of_coo(x in arb_sparse()) {
        // Every mode's stream must hold, per slice, exactly the multiset of
        // (full multi-index, value) pairs the COO slice holds — no entry
        // lost, duplicated or mis-sliced by the physical reordering.
        let plan = ModeStreams::build(&x).unwrap();
        for n in 0..x.order() {
            let s = plan.mode(n);
            prop_assert_eq!(s.num_slices(), x.dims()[n]);
            let mut streamed_total = 0usize;
            for i in 0..x.dims()[n] {
                let mut coo: Vec<(Vec<usize>, u64)> = x
                    .slice(n, i)
                    .iter()
                    .map(|&e| (x.index(e).to_vec(), x.value(e).to_bits()))
                    .collect();
                let mut streamed: Vec<(Vec<usize>, u64)> = s
                    .slice_range(i)
                    .map(|p| {
                        // Reassemble the full multi-index from the packed
                        // other-mode indices plus the slice coordinate.
                        let mut full = Vec::with_capacity(x.order());
                        let mut slot = 0;
                        for k in 0..x.order() {
                            if k == n {
                                full.push(i);
                            } else {
                                full.push(s.others(p)[slot] as usize);
                                slot += 1;
                            }
                        }
                        (full, s.value(p).to_bits())
                    })
                    .collect();
                streamed_total += streamed.len();
                coo.sort();
                streamed.sort();
                prop_assert_eq!(streamed, coo, "mode {} slice {}", n, i);
            }
            prop_assert_eq!(streamed_total, x.nnz());
        }
    }

    // Out-of-core satellite: a windowed sweep over a spilled plan covers
    // the stream *exactly* — every slice appears in exactly one window,
    // in order, window boundaries are slice-aligned, every stream
    // position is visited once with the same (value, packed indices)
    // pair the resident stream holds, and no window exceeds
    // the capacity unless it is a single oversized slice. Holds with the
    // background prefetch (double-buffered) pipeline on and off —
    // prefetching changes when bytes are read, never what they are.
    #[test]
    fn slice_windows_cover_the_stream_exactly(
        x in arb_sparse(),
        cap in 1..12usize,
        prefetch in any::<bool>(),
    ) {
        let budget = ptucker_memtrack::MemoryBudget::unlimited();
        let resident = ModeStreams::build(&x).unwrap();
        let spilled = ModeStreams::build_spilled(&x, &budget).unwrap();
        for n in 0..x.order() {
            let full = resident.mode(n);
            let mut windows = spilled.windows(n, cap, prefetch);
            let mut expected_windows = windows.window_count();
            let mut next_slice = 0usize;
            let mut next_pos = 0usize;
            while let Some(w) = windows.next_window().unwrap() {
                prop_assert!(expected_windows > 0, "more windows than planned");
                expected_windows -= 1;
                // Slice-aligned, in-order, gapless.
                prop_assert_eq!(w.slices.start, next_slice);
                prop_assert!(w.slices.end > w.slices.start);
                prop_assert_eq!(w.base, next_pos);
                let len = w.stream.values().len();
                prop_assert!(
                    len <= cap || w.slices.len() == 1,
                    "over-capacity window with {} slices",
                    w.slices.len()
                );
                // Window-local view matches the resident stream.
                prop_assert_eq!(w.stream.num_slices(), w.slices.len());
                for (local_i, i) in w.slices.clone().enumerate() {
                    let local = w.stream.slice_range(local_i);
                    prop_assert_eq!(local.len(), full.slice_len(i));
                    for p in local {
                        let g = w.base + p;
                        prop_assert_eq!(w.stream.value(p).to_bits(), full.value(g).to_bits());
                        prop_assert_eq!(w.stream.others(p), full.others(g));
                    }
                }
                next_slice = w.slices.end;
                next_pos += len;
            }
            prop_assert_eq!(next_slice, x.dims()[n], "every slice covered");
            prop_assert_eq!(next_pos, x.nnz(), "every position covered once");
            prop_assert_eq!(expected_windows, 0, "window_count matches the sweep");
        }
    }
}
