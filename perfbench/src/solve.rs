//! `solve`: plan-once/run-many iterative solves. One caller runs CG to
//! a relative residual of 1e-8 on SPD systems (2-D Poisson and skewed
//! power-law SPD) and BiCGStab on diagonally dominant nonsymmetric
//! systems from the generator, each through an `Engine::solver`
//! handle made during setup. Fused SpMV+dot and BLAS-1 reductions
//! dominate; the front door and conversion are paid once per handle.

use crate::common::{self, Ctx, OpLog, Outcome};
use crate::probes::{ProbeMatrix, Probes};
use crate::trace::Recorder;
use spmv_core::CsrMatrix;
use spmv_engine::{Engine, EngineConfig, SolveHandle, TrainingPlan};
use spmv_gen::dataset::DatasetSize;
use std::time::{Duration, Instant};

/// Set-ups per untraced run (`setup_s` is their median); one takes
/// tens of ms.
const SETUP_REPS: usize = 15;

/// Convergence target of every solve.
const TOL: f64 = 1e-8;
/// A solve whose recomputed true residual exceeds this fails.
const TRUE_TOL: f64 = 1e-7;
const MAX_ITERS: usize = 10_000;
/// Right-hand sides rotated through per system.
const RHS: u64 = 4;

/// Which solver a system takes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Conjugate gradients (SPD systems).
    Cg,
    /// BiCGStab (nonsymmetric systems).
    BiCgStab,
}

/// One linear system and the solver it takes.
pub struct System {
    id: String,
    a: CsrMatrix,
    method: Method,
    /// Solves per round of the measured phase.
    reps: usize,
}

/// The engine under test. Its configuration, training campaign
/// included, does not follow the seed: the seed makes the inputs.
fn config() -> EngineConfig {
    EngineConfig {
        scale: 16384.0,
        training: TrainingPlan { size: DatasetSize::Small, stride: 40, ..TrainingPlan::default() },
        ..EngineConfig::default()
    }
}

/// 5-point Laplacian on an `n × n` grid: SPD, 5 nnz per row.
fn poisson_2d(n: usize) -> CsrMatrix {
    let mut t = Vec::with_capacity(5 * n * n);
    for i in 0..n {
        for j in 0..n {
            let r = i * n + j;
            t.push((r, r, 4.0));
            if i > 0 {
                t.push((r, r - n, -1.0));
            }
            if i + 1 < n {
                t.push((r, r + n, -1.0));
            }
            if j > 0 {
                t.push((r, r - 1, -1.0));
            }
            if j + 1 < n {
                t.push((r, r + 1, -1.0));
            }
        }
    }
    CsrMatrix::from_triplets(n * n, n * n, &t).expect("stencil is valid")
}

/// Symmetric power-law-degree matrix made SPD by strict diagonal
/// dominance: a few hub rows touch many columns, every off-diagonal is
/// mirrored, and the diagonal is the row's absolute sum plus one.
fn skewed_spd(n: usize, seed: u64) -> CsrMatrix {
    let mut cells: std::collections::BTreeMap<(usize, usize), f64> = Default::default();
    let mut stream = common::Stream::new(seed);
    for r in 0..n {
        let degree = if stream.below(100) < 4 { n / 8 + 4 } else { 1 + stream.below(4) as usize };
        for _ in 0..degree {
            let c = stream.below(n as u64) as usize;
            if c != r {
                let v = -1.0 / (1.0 + stream.below(7) as f64);
                cells.insert((r, c), v);
                cells.insert((c, r), v);
            }
        }
    }
    with_dominant_diagonal(n, cells.into_iter().map(|((r, c), v)| (r, c, v)).collect())
}

/// Sets each diagonal entry to the row's off-diagonal absolute sum
/// plus one (any existing diagonal is replaced).
fn with_dominant_diagonal(n: usize, mut t: Vec<(usize, usize, f64)>) -> CsrMatrix {
    t.retain(|&(r, c, _)| r != c);
    let mut abs = vec![0.0f64; n];
    for &(r, _, v) in &t {
        abs[r] += v.abs();
    }
    t.extend(abs.into_iter().enumerate().map(|(r, a)| (r, r, a + 1.0)));
    CsrMatrix::from_triplets(n, n, &t).expect("square triplets are in bounds")
}

/// A nonsymmetric generated matrix made diagonally dominant.
fn dominant_generated(n: usize, seed: u64, rec: &mut Recorder) -> CsrMatrix {
    let params = common::square_params(n, seed);
    let m = rec.span("gen.generate", 0, |_| params.generate()).expect("fixed parameters are valid");
    rec.count("gen.nnz", m.nnz() as u64);
    with_dominant_diagonal(n, m.triplets().collect())
}

/// The solved mix. One large Poisson system takes one solve per round
/// against ten of each small system, about 2% of solves, so `p99_us`
/// falls inside the large system's own latency distribution instead of
/// on the boundary between two systems.
fn systems(seed: u64, rec: &mut Recorder) -> Vec<System> {
    let sys = |id: &str, a, method, reps| System { id: id.into(), a, method, reps };
    vec![
        sys("poisson-32", poisson_2d(32), Method::Cg, 10),
        sys("poisson-64", poisson_2d(64), Method::Cg, 1),
        sys("skewed-1024", skewed_spd(1024, seed), Method::Cg, 10),
        sys("skewed-1600", skewed_spd(1600, seed ^ 1), Method::Cg, 10),
        sys("nonsym-1200", dominant_generated(1200, seed ^ 2, rec), Method::BiCgStab, 10),
        sys("nonsym-2000", dominant_generated(2000, seed ^ 3, rec), Method::BiCgStab, 10),
    ]
}

/// The small system set other workloads' traced runs probe the solver
/// layer with: one CG and one BiCGStab system.
pub fn probe_systems(seed: u64, rec: &mut Recorder) -> Vec<System> {
    vec![
        System { id: "probe.poisson".into(), a: poisson_2d(32), method: Method::Cg, reps: 1 },
        System {
            id: "probe.nonsym".into(),
            a: dominant_generated(1200, seed ^ 2, rec),
            method: Method::BiCgStab,
            reps: 1,
        },
    ]
}

fn rhs(n: usize, salt: u64) -> Vec<f64> {
    (0..n as u64).map(|i| 1.0 + ((i * 7 + salt * 13) % 11) as f64 * 0.25).collect()
}

/// `‖b − A·x‖ / ‖b‖`, recomputed with the CSR reference kernel.
fn true_residual(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.rows()];
    a.spmv_into(x, &mut ax);
    let r: f64 = ax.iter().zip(b).map(|(p, q)| (q - p) * (q - p)).sum();
    let bb: f64 = b.iter().map(|q| q * q).sum();
    (r / bb).sqrt()
}

/// One solve through a handle; returns the SpMVs it ran, or `None` if
/// it failed or its true residual misses [`TRUE_TOL`].
fn solve_once(
    h: &mut SolveHandle<'_>,
    s: &System,
    b: &[f64],
    rec: &mut Recorder,
    req: u64,
) -> Option<f64> {
    let outcome = match s.method {
        Method::Cg => rec.span("engine.cg", req, |_| h.cg(b, TOL, MAX_ITERS)),
        Method::BiCgStab => rec.span("engine.bicgstab", req, |_| h.bicgstab(b, TOL, MAX_ITERS)),
    };
    let o = outcome.ok().filter(|o| o.converged)?;
    let spmvs = match s.method {
        Method::Cg => o.iterations,
        Method::BiCgStab => 2 * o.iterations,
    };
    (true_residual(&s.a, h.solution(), b) <= TRUE_TOL).then_some(spmvs as f64)
}

/// Solver-layer metrics: each system gets a fresh handle and is solved
/// once with its first right-hand side.
pub fn solver_layers(engine: &Engine, systems: &[System], rec: &mut Recorder, out: &mut Outcome) {
    let (mut new_s, mut solve_s, mut iters) = (0.0, 0.0, 0.0);
    for s in systems {
        let t = Instant::now();
        let mut h = rec.span("engine.solver", 0, |_| engine.solver(&s.id, &s.a));
        new_s += t.elapsed().as_secs_f64();
        let b = rhs(s.a.rows(), 0);
        let before = engine.counters().solver_iterations;
        let t = Instant::now();
        let ok = solve_once(&mut h, s, &b, rec, 0).is_some();
        solve_s += t.elapsed().as_secs_f64();
        iters += (engine.counters().solver_iterations - before) as f64;
        if !ok {
            out.problem(format!("solver probe: {} did not converge to the true residual", s.id));
        }
    }
    out.layer("engine.solver_new_ms", new_s * 1e3 / systems.len() as f64, "ms");
    out.layer("engine.solver_iters", iters, "count");
    out.layer("engine.solver_us_per_iter", solve_s * 1e6 / iters.max(1.0), "us");
}

struct State {
    engine: Engine,
    systems: Vec<System>,
}

fn setup(seed: u64, rec: &mut Recorder) -> State {
    let systems = systems(seed, rec);
    let engine = common::build_engine(rec, config());
    for s in &systems {
        // Handle creation pays the front door and the conversion.
        rec.span("engine.solver", 0, |_| drop(engine.solver(&s.id, &s.a)));
    }
    State { engine, systems }
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let mut rec = ctx.recorder();
    let (st, setup_s) = common::repeat_setup(ctx, SETUP_REPS, || setup(ctx.seed, &mut rec));
    out.setup(setup_s, &st.engine);
    let mut handles: Vec<SolveHandle<'_>> =
        st.systems.iter().map(|s| st.engine.solver(&s.id, &s.a)).collect();
    let rhs: Vec<Vec<Vec<f64>>> =
        st.systems.iter().map(|s| (0..RHS).map(|k| rhs(s.a.rows(), k)).collect()).collect();
    let before = st.engine.counters();
    let mut req = 0u64;
    let summary = common::measure(ctx, out, |length: Duration, traced, out| {
        let mut local = ctx.recorder();
        local.set_enabled(traced && ctx.trace);
        let mut log = OpLog::new(st.systems.len(), ctx.seed);
        let deadline = Instant::now() + length;
        while Instant::now() < deadline {
            for (i, (s, h)) in st.systems.iter().zip(handles.iter_mut()).enumerate() {
                for _ in 0..s.reps {
                    req += 1;
                    let b = &rhs[i][(req % RHS) as usize];
                    let t = Instant::now();
                    let spmvs = solve_once(h, s, b, &mut local, req);
                    let lat = t.elapsed();
                    out.checked(spmvs.is_some());
                    log.record(i, lat, 2.0 * s.a.nnz() as f64 * spmvs.unwrap_or(0.0));
                }
            }
        }
        rec.absorb(local);
        vec![log]
    });
    drop(handles);
    let after = st.engine.counters();
    common::check_counters(&after, "after the measured phase", out);
    if after.requests != before.requests {
        out.problem("solves went back through the serve path".into());
    }
    let systems = &st.systems;
    let method = |m: Method| move |i: usize| systems[i].method == m;
    out.report("solve.cg_s", summary.median_latency_s(method(Method::Cg)), "s");
    out.report("solve.bicgstab_s", summary.median_latency_s(method(Method::BiCgStab)), "s");
    if ctx.trace {
        common::counter_layers(&before, &after, 0, out);
        let probes = Probes {
            engine: &st.engine,
            config: config(),
            mats: st.systems.iter().map(|s| ProbeMatrix { id: &s.id, m: &s.a }).collect(),
            working_set: st.systems.iter().map(|s| s.a.mem_footprint_bytes()).sum(),
            systems: &st.systems,
            cold_us: Vec::new(),
            seed: ctx.seed,
        };
        crate::probes::run(probes, &mut rec, out);
    }
}
