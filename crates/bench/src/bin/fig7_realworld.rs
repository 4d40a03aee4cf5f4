//! Figure 7: time per iteration on the four real-world tensors
//! (simulated stand-ins; `ptucker_datagen::realworld` gives the
//! substitution rationale).
//!
//! Paper shape: P-Tucker and P-Tucker-Approx are the fastest on every
//! dataset (1.7–275× vs. competitors); Tucker-wOpt is O.O.M. on the two
//! large ones (Yahoo-music, MovieLens).
//!
//! Defaults use small simulation scales and J = 5 on the 4-way tensors
//! (J = 10 with `--paper`) so the harness completes in minutes on one core.

use ptucker_bench::{print_header, HarnessArgs, Method};
use ptucker_tensor::SparseTensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut args = HarnessArgs::parse(1.0);
    // The paper's machine held 512 GB against tensors whose dense grids are
    // ~2e15 cells; our simulated grids are ~1e7-1e8 cells, so the budget is
    // scaled down proportionally (256 MiB) to keep the paper's qualitative
    // boundary: Tucker-wOpt O.O.M. on the two large datasets, alive on the
    // two small ones.
    args.budget = ptucker::MemoryBudget::new(256 << 20);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let j4 = if args.paper { 10 } else { 5 };

    // (name, tensor, ranks) — shapes/ranks follow Table IV of the paper.
    let datasets: Vec<(&str, SparseTensor, Vec<usize>)> = vec![
        (
            "Yahoo-music(sim)",
            ptucker_datagen::realworld::yahoo_music(0.0002 * args.scale, &mut rng),
            vec![j4, j4, j4, j4],
        ),
        (
            "MovieLens(sim)",
            ptucker_datagen::realworld::movielens(0.002 * args.scale, &mut rng).tensor,
            vec![j4, j4, j4, j4],
        ),
        (
            "Wave video(sim)",
            ptucker_datagen::realworld::wave_video((0.3 * args.scale).min(1.0), &mut rng),
            vec![3, 3, 3, 3],
        ),
        (
            "Lena image(sim)",
            ptucker_datagen::realworld::lena_image((0.3 * args.scale).min(1.0), &mut rng),
            vec![3, 3, 3],
        ),
    ];

    let methods = [
        Method::PTucker,
        Method::PTuckerApprox(0.2),
        Method::TuckerWopt,
        Method::TuckerCsf,
        Method::SHot,
    ];
    let header = format!(
        "{:<18}{}",
        "dataset",
        methods
            .iter()
            .map(|m| format!("{:>17}", m.name()))
            .collect::<String>()
    );
    print_header(
        "Fig 7: time per iteration (secs) on real-world tensors",
        &header,
    );

    for (name, x, ranks) in &datasets {
        let mut row = format!("{name:<18}");
        for m in methods {
            let mut a = args.clone();
            if m == Method::TuckerWopt {
                a.iters = 1; // dense gradients; one step suffices for timing
            }
            let out = ptucker_bench::run_method(m, x, ranks, &a);
            row.push_str(&format!("{:>17}", out.time_cell().trim()));
        }
        println!("{row}  (dims {:?}, |Ω|={})", x.dims(), x.nnz());
    }
    println!("\n(paper: P-Tucker/-Approx fastest on all datasets; wOpt O.O.M. on the large two)");
}
