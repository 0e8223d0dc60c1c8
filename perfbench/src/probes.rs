//! Layer probes every traced run makes on its own workload's inputs:
//! direct calls into one crate at a time, timed from outside, so each
//! layer's cost is measured apart from the layers above it.

use crate::common::{Outcome, Reference, Stream};
use crate::host;
use crate::stats::median;
use crate::trace::Recorder;
use spmv_analysis::stats::geomean;
use spmv_core::{CsrMatrix, FeatureSet};
use spmv_engine::{selector_from_snapshot, Engine, EngineConfig};
use spmv_formats::{build_format_with, FormatKind, SparseFormat};
use spmv_parallel::blas1;
use std::collections::BTreeMap;
use std::time::Instant;

/// Formats probed directly on every workload: the ones that accept
/// any matrix, so every workload reports every one of them.
pub const PROBE_FORMATS: [FormatKind; 8] = [
    FormatKind::NaiveCsr,
    FormatKind::VectorizedCsr,
    FormatKind::BalancedCsr,
    FormatKind::Coo,
    FormatKind::Hyb,
    FormatKind::SellCSigma,
    FormatKind::Csr5,
    FormatKind::MergeCsr,
];

/// First-touch requests the cold probe issues: enough for a p99 under
/// the sample-count rule.
const COLD_PROBES: usize = 1200;

/// Median seconds per call of `f`: one warm-up call, then samples
/// until at least `min_reps` samples and 20 ms have passed, stopping
/// early after 0.3 s once three samples are in.
pub fn time_median(min_reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
        let spent = start.elapsed().as_secs_f64();
        let enough = samples.len() >= min_reps.max(1) && spent >= 0.02;
        if enough || (spent >= 0.3 && samples.len() >= 3) {
            break;
        }
    }
    median(&samples).expect("at least one sample")
}

/// A matrix the probes run on: resident in the engine under `id`.
pub struct ProbeMatrix<'a> {
    /// The engine id it is served under.
    pub id: &'a str,
    /// The matrix.
    pub m: &'a CsrMatrix,
}

/// The format the engine's conversion path lands on for `planned`:
/// the planned kind, else the device default, else Naive-CSR — the
/// same chain the engine falls back along.
fn build_selected(engine: &Engine, m: &CsrMatrix, planned: FormatKind) -> Box<dyn SparseFormat> {
    [planned, engine.default_format(), FormatKind::NaiveCsr]
        .into_iter()
        .find_map(|k| build_format_with(k, m, engine.lane_profile()).ok())
        .expect("Naive-CSR accepts any matrix")
}

fn per_nnz_ns(total_s: f64, nnz: usize) -> f64 {
    total_s * 1e9 / nnz.max(1) as f64
}

/// Feature extraction, selection, conversion, direct kernels, parallel
/// efficiency, fused SpMV+dot, BLAS-1 and the STREAM-triad ceiling.
fn kernel_layers(
    engine: &Engine,
    mats: &[ProbeMatrix<'_>],
    working_set: usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let threads = engine.pool().threads();
    let triad = rec.span("host.triad", 0, |_| host::triad_gbs(working_set, threads, 7));
    out.layer("host.triad_gbs", triad, "GB/s");

    let (mut extract_s, mut build_s, mut nnz, mut bytes) = (0.0, 0.0, 0usize, 0usize);
    let mut select_ns = Vec::new();
    let mut gflops: BTreeMap<FormatKind, Vec<f64>> = BTreeMap::new();
    let mut gbs: BTreeMap<FormatKind, Vec<f64>> = BTreeMap::new();
    let (mut over_csr, mut efficiency, mut dot_gflops) = (Vec::new(), Vec::new(), Vec::new());
    println!("probe: matrix, nnz, selected, format GF/s (direct spmv)");
    for p in mats {
        let m = p.m;
        let x = Reference::new(m, 1).x;
        let mut y = vec![0.0; m.rows()];
        let flops = 2.0 * m.nnz() as f64;
        let t = rec.span("core.extract", 0, |_| {
            time_median(3, || {
                std::hint::black_box(FeatureSet::extract(m));
            })
        });
        extract_s += t;
        let features = FeatureSet::extract(m);
        let t = rec.span("analysis.select", 0, |_| {
            time_median(5, || {
                for _ in 0..256 {
                    std::hint::black_box(engine.select(std::hint::black_box(&features)));
                }
            })
        });
        select_ns.push(t / 256.0 * 1e9);
        let planned = engine.select(&features);
        let t = Instant::now();
        let selected = rec.span("formats.build", 0, |_| build_selected(engine, m, planned));
        build_s += t.elapsed().as_secs_f64();
        nnz += m.nnz();
        bytes += selected.bytes();

        let kind = FormatKind::from_name(selected.name()).expect("built formats name their kind");
        let mut times: BTreeMap<FormatKind, f64> = BTreeMap::new();
        for k in PROBE_FORMATS.into_iter().chain([kind]) {
            if times.contains_key(&k) {
                continue;
            }
            let own;
            let fmt: &dyn SparseFormat = if k == kind {
                &*selected
            } else {
                own = build_format_with(k, m, engine.lane_profile())
                    .expect("probe formats accept any matrix");
                &*own
            };
            let t = rec.span("formats.spmv", 0, |_| time_median(3, || fmt.spmv(&x, &mut y)));
            times.insert(k, t);
            if PROBE_FORMATS.contains(&k) {
                let moved = (fmt.bytes() + 8 * (m.rows() + m.cols())) as f64;
                gflops.entry(k).or_default().push(flops / t * 1e-9);
                gbs.entry(k).or_default().push(moved / t * 1e-9);
            }
        }
        over_csr.push(times[&kind] / times[&FormatKind::NaiveCsr]);
        let par = rec.span("formats.spmv_parallel", 0, |_| {
            time_median(3, || selected.spmv_parallel(engine.pool(), &x, &mut y))
        });
        efficiency.push(times[&kind] / (par * threads as f64));
        if m.rows() == m.cols() {
            let t = rec.span("formats.spmv_dot", 0, |_| {
                time_median(3, || {
                    std::hint::black_box(selected.spmv_dot(&x, &mut y));
                })
            });
            dot_gflops.push((flops + 2.0 * m.rows() as f64) / t * 1e-9);
        }
        let row: Vec<String> =
            times.iter().map(|(k, t)| format!("{} {:.3}", k.name(), flops / t * 1e-9)).collect();
        println!("probe: {}, {}, {}, {}", p.id, m.nnz(), kind.name(), row.join(", "));
    }
    out.layer("core.extract_ns_per_nnz", per_nnz_ns(extract_s, nnz), "ns");
    out.layer("analysis.select_ns", median(&select_ns).unwrap_or(f64::NAN), "ns");
    out.layer("formats.build_ns_per_nnz", per_nnz_ns(build_s, nnz), "ns");
    out.layer("formats.bytes_per_nnz", bytes as f64 / nnz.max(1) as f64, "B/nnz");
    for k in PROBE_FORMATS {
        let g = geomean(&gflops[&k]).unwrap_or(f64::NAN);
        let b = geomean(&gbs[&k]).unwrap_or(f64::NAN);
        out.layer(format!("formats.spmv_gflops.{}", k.name()), g, "GF/s");
        out.layer(format!("formats.spmv_gbs.{}", k.name()), b, "GB/s");
        out.layer(format!("formats.triad_frac.{}", k.name()), b / triad, "ratio");
    }
    out.layer("analysis.selected_over_csr", geomean(&over_csr).unwrap_or(f64::NAN), "ratio");
    out.layer("parallel.efficiency", geomean(&efficiency).unwrap_or(f64::NAN), "ratio");
    out.layer("formats.spmv_dot_gflops", geomean(&dot_gflops).unwrap_or(f64::NAN), "GF/s");

    let n = mats.iter().map(|p| p.m.rows()).max().unwrap_or(0).max(1 << 16);
    let a: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.1).collect();
    let mut b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.2).collect();
    let pool = engine.pool();
    let moved = 16.0 + 24.0 + 24.0;
    let t = rec.span("parallel.blas1", 0, |_| {
        time_median(5, || {
            std::hint::black_box(blas1::dot(pool, &a, &b));
            blas1::axpy(pool, 1e-3, &a, &mut b);
            blas1::xpby(pool, &a, 0.5, &mut b);
        })
    });
    out.layer("parallel.blas1_gbs", moved * n as f64 / t * 1e-9, "GB/s");
}

/// A tiny generated matrix for the front-door probes.
fn tiny(seed: u64) -> CsrMatrix {
    crate::common::square_params(256, seed).generate().expect("fixed parameters are valid")
}

/// Front-door cost: a resident `Engine::spmv` hit against a direct
/// `spmv` of the same kind at the engine's lane profile, then the
/// latency of first-touch requests under never-seen ids. `cold_us`
/// holds first-touch latencies the workload's own traffic observed.
fn front_door_layers(
    engine: &Engine,
    seed: u64,
    mut cold_us: Vec<f64>,
    rec: &mut Recorder,
    out: &mut Outcome,
) {
    let m = tiny(seed);
    let r = Reference::new(&m, 0);
    let mut y = vec![0.0; m.rows()];
    engine.spmv("probe.hit", &m, &r.x, &mut y);
    engine.drain_admissions();
    let kind = engine.spmv("probe.hit", &m, &r.x, &mut y);
    let direct = build_format_with(kind, &m, engine.lane_profile()).expect("served kinds build");
    const BATCH: usize = 16;
    let (mut via_engine, mut via_direct) = (Vec::new(), Vec::new());
    rec.span("engine.hit_probe", 0, |_| {
        for _ in 0..512 {
            let t = Instant::now();
            for _ in 0..BATCH {
                engine.spmv("probe.hit", &m, &r.x, &mut y);
            }
            via_engine.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for _ in 0..BATCH {
                direct.spmv(&r.x, &mut y);
            }
            via_direct.push(t.elapsed().as_secs_f64());
        }
    });
    let hit_ns = (median(&via_engine).expect("samples") - median(&via_direct).expect("samples"))
        / BATCH as f64
        * 1e9;
    out.layer("engine.hit_ns", hit_ns, "ns");
    engine.forget("probe.hit");

    let pool: Vec<CsrMatrix> = (0..16).map(|i| tiny(spmv_gen::rng::child_seed(seed, i))).collect();
    let xs: Vec<Vec<f64>> = pool.iter().map(|m| Reference::new(m, 0).x).collect();
    let mut stream = Stream::new(seed ^ 0xC01D);
    let ids: Vec<String> = (0..COLD_PROBES).map(|i| format!("probe.cold.{i}")).collect();
    rec.span("engine.cold_probe", 0, |_| {
        for id in &ids {
            let k = stream.below(pool.len() as u64) as usize;
            let t = Instant::now();
            engine.spmv(id, &pool[k], &xs[k], &mut y);
            cold_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    engine.drain_admissions();
    for id in &ids {
        engine.forget(id);
    }
    cold_us.sort_by(f64::total_cmp);
    let p99 = crate::stats::percentile(&cold_us, 0.99).expect("the probe issues enough requests");
    out.layer("engine.cold_p99_us", p99, "us");
}

/// Snapshot of the engine's warm state and its restore into a fresh
/// engine built from the snapshot's selector.
fn snapshot_layers(engine: &Engine, config: EngineConfig, rec: &mut Recorder, out: &mut Outcome) {
    let mut buf = Vec::new();
    let t = Instant::now();
    rec.span("engine.snapshot", 0, |_| engine.snapshot(&mut buf)).expect("in-memory snapshot");
    out.layer("engine.snapshot_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    let fresh = rec.span("engine.restore", 0, |_| {
        let selector = selector_from_snapshot(&mut buf.as_slice()).expect("own snapshot parses");
        let fresh = Engine::with_selector(config, selector).expect("known device");
        fresh.restore(&mut buf.as_slice()).expect("own snapshot restores");
        fresh
    });
    out.layer("engine.restore_s", t.elapsed().as_secs_f64(), "s");
    drop(fresh);
}

/// What the probes of a traced run use: the workload's engine after
/// its measured phase and the workload's own inputs.
pub struct Probes<'a> {
    /// The engine under test.
    pub engine: &'a Engine,
    /// Its configuration, for the engine the snapshot restores into.
    pub config: EngineConfig,
    /// Matrices resident in the engine.
    pub mats: Vec<ProbeMatrix<'a>>,
    /// Bytes of every matrix the workload serves (the triad's size).
    pub working_set: usize,
    /// Systems for the solver probe.
    pub systems: &'a [crate::solve::System],
    /// First-touch latencies the workload's own traffic observed.
    pub cold_us: Vec<f64>,
    /// The run's seed.
    pub seed: u64,
}

/// Runs every probe, then reads the spans and counts of the run.
pub fn run(p: Probes<'_>, rec: &mut Recorder, out: &mut Outcome) {
    snapshot_layers(p.engine, p.config, rec, out);
    kernel_layers(p.engine, &p.mats, p.working_set, rec, out);
    crate::solve::solver_layers(p.engine, p.systems, rec, out);
    front_door_layers(p.engine, p.seed, p.cold_us, rec, out);
    span_layers(rec, out);
}

/// Per-layer metrics read off the spans and counts of the run.
fn span_layers(rec: &Recorder, out: &mut Outcome) {
    let totals = crate::trace::totals(rec.spans());
    let mean = |name: &str| totals.get(name).map_or(f64::NAN, |t| t.total_s / t.count as f64);
    let gen_s: f64 =
        totals.iter().filter(|(k, _)| k.starts_with("gen.")).map(|(_, t)| t.self_s).sum();
    out.layer("gen.mnnz_per_s", rec.counted("gen.nnz") as f64 / gen_s * 1e-6, "Mnnz/s");
    out.layer("devices.campaign_s", mean("devices.campaign"), "s");
    out.layer("analysis.fit_s", mean("analysis.fit"), "s");
    out.layer("engine.assemble_s", mean("engine.assemble"), "s");
    println!("spans: name, count, total s, self s");
    for (name, t) in &totals {
        println!("spans: {name}, {}, {:.6}, {:.6}", t.count, t.total_s, t.self_s);
    }
}
