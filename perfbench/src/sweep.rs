//! `sweep`: the paper's experiment on the host it runs on. One caller runs
//! `Engine::spmv_parallel` and `Engine::spmv` over Medium-lattice
//! matrices that span all five features and all three Table I
//! footprint classes, each converted before timing. Kernels and the
//! executor do nearly all the work; the engine front door costs one
//! lookup per multi-ms call.

use crate::common::{self, Ctx, OpLog, Outcome, Reference};
use crate::probes::{self, ProbeMatrix, Probes};
use crate::trace::Recorder;
use spmv_core::CsrMatrix;
use spmv_engine::{Admission, Engine, EngineConfig, TrainingPlan};
use spmv_gen::dataset::{Dataset, DatasetSize, FeatureSpacePoint, FOOTPRINT_CLASSES_MB};
use std::time::{Duration, Instant};

/// Set-ups per untraced run (`setup_s` is their median); each one
/// generates the 338 MB matrix.
const SETUP_REPS: usize = 3;

/// Footprint divisor of the sweep. At 4 the largest matrix (Medium
/// class 2, sample 3: 1351 MB / 4 = 338 MB) exceeds a 300 MiB
/// last-level cache; class 0 matrices sit near a 2 MiB L2.
const SCALE: f64 = 4.0;

/// Lattice points: (footprint class, footprint sample, avg nnz/row,
/// skew, cross-row similarity, neighbours, scaled bandwidth). Every
/// feature takes a low and a high value somewhere in the set.
const POINTS: [(usize, usize, f64, f64, f64, f64, f64); 7] = [
    (0, 2, 5.0, 0.0, 0.05, 0.05, 0.6),
    (0, 2, 50.0, 0.0, 0.95, 1.9, 0.05),
    (0, 2, 20.0, 10000.0, 0.5, 0.95, 0.3),
    (1, 1, 10.0, 100.0, 0.05, 1.4, 0.3),
    (1, 1, 100.0, 1000.0, 0.95, 0.5, 0.05),
    (1, 1, 500.0, 0.0, 0.5, 1.9, 0.3),
    (2, 3, 10.0, 100.0, 0.5, 0.95, 0.3),
];

/// Calls of each entry point per matrix per round, by footprint class:
/// small matrices are not drowned out, the largest one runs every
/// round, and its two calls are about 2% of a round's 110, so `p99_us`
/// falls inside its latency distribution rather than on the boundary
/// between two classes.
const REPS_BY_CLASS: [usize; 3] = [16, 2, 1];

/// The engine under test. Its configuration, training campaign
/// included, does not follow the seed: the seed makes the inputs.
fn config() -> EngineConfig {
    EngineConfig {
        scale: SCALE,
        // Every matrix stays resident: one shard with a budget far
        // above the set, so no call ever converts after setup.
        cache_capacity_bytes: 1 << 40,
        shards: 1,
        admission: Admission::Sync,
        training: TrainingPlan {
            size: DatasetSize::Medium,
            stride: 270,
            ..TrainingPlan::default()
        },
        ..EngineConfig::default()
    }
}

fn points() -> Vec<FeatureSpacePoint> {
    let samples = DatasetSize::Medium.footprint_samples();
    POINTS
        .iter()
        .map(|&(class, s, avg, skew, crs, neigh, bw)| {
            let (lo, hi) = FOOTPRINT_CLASSES_MB[class];
            let t = (s as f64 + 0.5) / samples as f64;
            FeatureSpacePoint {
                mem_footprint_mb: lo * (hi / lo).powf(t) / SCALE,
                avg_nnz_per_row: avg,
                skew_coeff: skew,
                cross_row_sim: crs,
                avg_num_neigh: neigh,
                bw_scaled: bw,
                footprint_class: class,
            }
        })
        .collect()
}

struct State {
    engine: Engine,
    mats: Vec<(String, usize, CsrMatrix)>,
}

fn setup(seed: u64, rec: &mut Recorder) -> State {
    let dataset = Dataset { size: DatasetSize::Medium, scale: SCALE, base_seed: seed };
    let mats: Vec<(String, usize, CsrMatrix)> = points()
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let spec = dataset.spec_for_point(p, i as u64);
            let m = rec
                .span("gen.materialize", 0, |_| spec.materialize())
                .expect("lattice points materialize");
            rec.count("gen.nnz", m.nnz() as u64);
            (spec.id, p.footprint_class, m)
        })
        .collect();
    let engine = common::build_engine(rec, config());
    for (id, _, m) in &mats {
        let x = vec![1.0; m.cols()];
        let mut y = vec![0.0; m.rows()];
        rec.span("engine.warmup", 0, |_| engine.spmv_parallel(id, m, &x, &mut y));
    }
    State { engine, mats }
}

fn timed(
    st: &State,
    refs: &[Reference],
    length: Duration,
    rec: &mut Recorder,
    seed: u64,
    out: &mut Outcome,
) -> OpLog {
    let mut log = OpLog::new(2 * st.mats.len(), seed);
    let rows = st.mats.iter().map(|(_, _, m)| m.rows()).max().unwrap_or(0);
    let mut y = vec![0.0; rows];
    let deadline = Instant::now() + length;
    let mut req = 0u64;
    while Instant::now() < deadline {
        for (i, ((id, class, m), r)) in st.mats.iter().zip(refs).enumerate() {
            let y = &mut y[..m.rows()];
            let flops = 2.0 * m.nnz() as f64;
            for _ in 0..REPS_BY_CLASS[*class] {
                for parallel in [true, false] {
                    req += 1;
                    let t = Instant::now();
                    if parallel {
                        rec.span("engine.spmv_parallel", req, |_| {
                            st.engine.spmv_parallel(id, m, &r.x, y)
                        });
                    } else {
                        rec.span("engine.spmv", req, |_| st.engine.spmv(id, m, &r.x, y));
                    }
                    log.record(2 * i + usize::from(!parallel), t.elapsed(), flops);
                    out.checked(r.matches(y));
                }
            }
        }
    }
    log
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let mut rec = ctx.recorder();
    let (st, setup_s) = common::repeat_setup(ctx, SETUP_REPS, || setup(ctx.seed, &mut rec));
    out.setup(setup_s, &st.engine);
    for (id, class, m) in &st.mats {
        println!(
            "matrix: {id}, class {class}, {} x {}, {} nnz, {:.1} MB CSR",
            m.rows(),
            m.cols(),
            m.nnz(),
            m.mem_footprint_mb()
        );
    }
    let refs: Vec<Reference> = st.mats.iter().map(|(_, _, m)| Reference::new(m, 0)).collect();
    let before = st.engine.counters();
    common::check_counters(&before, "after setup", out);
    let summary = common::measure(ctx, out, |length, traced, out| {
        let mut local = ctx.recorder();
        local.set_enabled(traced && ctx.trace);
        let log = timed(&st, &refs, length, &mut local, ctx.seed, out);
        rec.absorb(local);
        vec![log]
    });
    let after = st.engine.counters();
    common::check_counters(&after, "after the measured phase", out);
    if after.conversions != after.cached_entries as u64 {
        out.problem(format!(
            "{} conversions for {} resident matrices: a resident matrix was converted again",
            after.conversions, after.cached_entries
        ));
    }
    let kinds = |parallel: bool| -> Vec<f64> {
        (0..st.mats.len())
            .filter_map(|i| summary.key_gflops[2 * i + usize::from(!parallel)])
            .collect()
    };
    let geo = |v: Vec<f64>| spmv_analysis::stats::geomean(&v).unwrap_or(f64::NAN);
    out.report("sweep.gflops_parallel", geo(kinds(true)), "GF/s");
    out.report("sweep.gflops_seq", geo(kinds(false)), "GF/s");
    if ctx.trace {
        common::counter_layers(&before, &after, 0, out);
        let systems = crate::solve::probe_systems(ctx.seed, &mut rec);
        let probes = Probes {
            engine: &st.engine,
            config: config(),
            mats: st.mats.iter().map(|(id, _, m)| ProbeMatrix { id, m }).collect(),
            working_set: st.mats.iter().map(|(_, _, m)| m.mem_footprint_bytes()).sum(),
            systems: &systems,
            cold_us: Vec::new(),
            seed: ctx.seed,
        };
        probes::run(probes, &mut rec, out);
    }
}
