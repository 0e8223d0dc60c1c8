//! Scalar vs. widest-lane kernels: measures what the shared lane
//! microkernels (`spmv_formats::kernels`) buy over the W=1 scalar
//! instantiation of the *same* loop, format by format.
//!
//! Every lane-blocked format (ELL, HYB, SELL-C-σ) is built twice from
//! the same CSR operand — once at `LaneProfile::scalar()` and once at
//! the widest lane profile — and each runs sequential SpMV over the
//! same input, so the only difference is the number of independent
//! accumulators the inner loop keeps in flight. Expected shape: the
//! slab/chunk formats gain the most on regular matrices because W rows
//! share one column-index load per slot. The CSR variants are not
//! listed: they run one scalar row kernel at every profile.
//!
//! Exit status: on hosts with ≥ 8 hardware threads the widest-lane
//! SELL-C-σ kernel must clear ≥ 1.3× its scalar twin on the regular
//! matrix class, else exit 1. Smaller hosts (CI containers) report
//! without enforcing — their narrow cores make ILP headroom erratic.
//!
//! Flags: `--rows N` (default 60000), `--avg-nnz F` (default 24),
//! `--seed N`, `--reps N` (default 5).

use spmv_bench::args::parse_flag_pairs;
use spmv_formats::{build_format_with, FormatKind, LaneProfile, LaneWidth};
use spmv_gen::{GeneratorParams, RowDist};
use std::time::Instant;

struct Config {
    rows: usize,
    avg_nnz: f64,
    seed: u64,
    reps: usize,
}

impl Config {
    fn from_env() -> Self {
        let mut cfg = Self { rows: 60_000, avg_nnz: 24.0, seed: 0x1A4E5, reps: 5 };
        parse_flag_pairs(
            "kernel_throughput [--rows N] [--avg-nnz F] [--seed N] [--reps N]",
            |flag, value| {
                match flag {
                    "--rows" => cfg.rows = value.parse().expect("--rows N"),
                    "--avg-nnz" => cfg.avg_nnz = value.parse().expect("--avg-nnz F"),
                    "--seed" => cfg.seed = value.parse().expect("--seed N"),
                    "--reps" => cfg.reps = value.parse::<usize>().expect("--reps N").max(1),
                    _ => return false,
                }
                true
            },
        );
        cfg
    }
}

/// The formats whose inner loops are instantiated per lane width.
const MIGRATED: [FormatKind; 5] = [
    FormatKind::Ell,
    FormatKind::Hyb,
    FormatKind::SellC4,
    FormatKind::SellCSigma,
    FormatKind::SellC16,
];

fn matrix(class: &str, cfg: &Config) -> spmv_core::CsrMatrix {
    let base = GeneratorParams {
        nr_rows: cfg.rows,
        nr_cols: cfg.rows,
        avg_nz_row: cfg.avg_nnz,
        std_nz_row: cfg.avg_nnz * 0.1,
        distribution: RowDist::Normal,
        skew_coeff: 0.0,
        bw_scaled: 0.3,
        cross_row_sim: 0.5,
        avg_num_neigh: 0.95,
        seed: cfg.seed,
    };
    let p = match class {
        // Near-uniform rows: the lane blocks stay full, the best case
        // for W-row slabs.
        "regular" => GeneratorParams { std_nz_row: 0.0, ..base },
        "banded" => {
            GeneratorParams { bw_scaled: 0.05, cross_row_sim: 0.9, avg_num_neigh: 1.8, ..base }
        }
        _ => base,
    };
    p.generate().expect("bench matrix generates")
}

/// Median wall time of `reps` runs of `f`, in seconds.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let cfg = Config::from_env();
    let widest = *LaneWidth::ALL.last().expect("widths are non-empty");
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let enforce = threads >= 8;
    println!(
        "Lane-kernel throughput: scalar vs {:?} ({} rows, avg {} nnz/row, {} reps, \
         {} hw threads, gate {})",
        widest,
        cfg.rows,
        cfg.avg_nnz,
        cfg.reps,
        threads,
        if enforce { "enforced" } else { "report-only" },
    );
    println!(
        "{:<10} {:<15} {:>12} {:>12} {:>9}",
        "class", "format", "W1 GF/s", "wide GF/s", "speedup"
    );

    let mut sell_regular_speedup: Option<f64> = None;
    for class in ["regular", "banded"] {
        let csr = matrix(class, &cfg);
        let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
        let x: Vec<f64> = (0..cols).map(|i| 1.0 + (i % 5) as f64 * 0.25).collect();
        let flops = (2 * nnz) as f64;
        for kind in MIGRATED {
            let Ok(scalar) = build_format_with(kind, &csr, LaneProfile::scalar()) else { continue };
            let wide = build_format_with(kind, &csr, LaneProfile::with_width(widest))
                .expect("scalar build succeeded");
            let mut y = vec![0.0; rows];
            let t_scalar = time_median(cfg.reps, || scalar.spmv(&x, &mut y));
            let t_wide = time_median(cfg.reps, || wide.spmv(&x, &mut y));
            std::hint::black_box(&y);
            let speedup = t_scalar / t_wide;
            println!(
                "{:<10} {:<15} {:>12.2} {:>12.2} {:>8.2}x",
                class,
                scalar.name(),
                flops / t_scalar / 1e9,
                flops / t_wide / 1e9,
                speedup
            );
            if class == "regular" && kind == FormatKind::SellCSigma {
                sell_regular_speedup = Some(speedup);
            }
        }
    }

    let sell = sell_regular_speedup.expect("SELL-C-s always builds");
    if enforce && sell < 1.3 {
        eprintln!("FAIL: widest-lane SELL-C-s at {sell:.2}x scalar on regular rows (need 1.3x)");
        std::process::exit(1);
    }
    println!("SELL-C-s widest-lane speedup on regular rows: {sell:.2}x");
}
