//! Ablation benchmarks for the engine's design choices:
//!
//! * **Row solve**: Cholesky solve vs. the paper's literal "find the
//!   inverse matrix" (LU inverse then multiply) for `(B + λI) x = c`.
//! * **Dynamic-schedule chunk size**: steal-granularity sweep for the
//!   row-update scheduler.
//! * **Observed-entry sampling** (`sample_stride`, the paper's future-work
//!   item): fit time as the per-row entry sample thins.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ptucker::{FitOptions, MemoryBudget, PTucker, Schedule};
use ptucker_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_row_solve(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("row_solve");
    for &j in &[3usize, 10] {
        // A representative SPD normal-equation matrix B + λI.
        let a = Matrix::from_vec(j, j, (0..j * j).map(|_| rng.gen::<f64>()).collect()).unwrap();
        let mut b = a.gram();
        b.add_diagonal_mut(0.01);
        let cvec: Vec<f64> = (0..j).map(|_| rng.gen()).collect();
        group.bench_with_input(BenchmarkId::new("cholesky_solve", j), &j, |bch, _| {
            bch.iter(|| black_box(b.cholesky().unwrap().solve(&cvec)))
        });
        group.bench_with_input(
            BenchmarkId::new("explicit_inverse_paper", j),
            &j,
            |bch, _| {
                bch.iter(|| {
                    // The paper's Algorithm 3 line 14-15: invert, then
                    // multiply c by the inverse.
                    let inv = b.lu().unwrap().inverse();
                    black_box(inv.vecmat(&cvec))
                })
            },
        );
    }
    group.finish();
}

fn bench_schedule_chunks(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    // Skewed slices (Zipf users) make the chunk size matter.
    let sim = ptucker_datagen::realworld::movielens(0.001, &mut rng);
    let x = sim.tensor;
    let mut group = c.benchmark_group("schedule_chunk");
    group.sample_size(10);
    for &chunk in &[1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(chunk), &chunk, |b, _| {
            b.iter(|| {
                let fit = PTucker::new(
                    FitOptions::new(vec![4, 4, 4, 4])
                        .max_iters(1)
                        .tol(0.0)
                        .threads(2)
                        .seed(1)
                        .budget(MemoryBudget::unlimited())
                        .schedule(Schedule::Dynamic { chunk }),
                )
                .unwrap()
                .fit(&x)
                .unwrap();
                black_box(fit.stats.final_error)
            })
        });
    }
    group.finish();
}

fn bench_sample_stride(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let x = ptucker_datagen::uniform_sparse(&[80, 70, 60], 8_000, &mut rng);
    let mut group = c.benchmark_group("sample_stride");
    group.sample_size(10);
    for &stride in &[1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(stride), &stride, |b, _| {
            b.iter(|| {
                let fit = PTucker::new(
                    FitOptions::new(vec![4, 4, 4])
                        .max_iters(2)
                        .tol(0.0)
                        .threads(1)
                        .seed(1)
                        .budget(MemoryBudget::unlimited())
                        .sample_stride(stride),
                )
                .unwrap()
                .fit(&x)
                .unwrap();
                black_box(fit.stats.final_error)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_row_solve,
    bench_schedule_chunks,
    bench_sample_stride
);
criterion_main!(benches);
