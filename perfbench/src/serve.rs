//! `serve_hot` and `serve_churn`: two closed-loop clients, each
//! blocking on its result, send Zipf(1.1) requests for tiny lattice
//! matrices through `Engine::spmv`.
//!
//! `serve_hot` boots its engine via `Engine::snapshot` →
//! `Engine::restore`, so every matrix is resident and no conversion
//! runs: plan lookup, shard lock, counters and the `Arc` clone are a
//! large share of each request. `serve_churn` exercises the write
//! side under `Admission::Async`: the id population far exceeds the
//! cache budget and the plan capacity, and a fixed share of each
//! client's ids were never seen before, so feature extraction,
//! selection, conversion flights, single-flight landing and LRU
//! eviction run all the time.

use crate::common::{self, Ctx, OpLog, Outcome, Reference, Stream, Zipf};
use crate::probes::{self, ProbeMatrix, Probes};
use crate::trace::Recorder;
use spmv_core::CsrMatrix;
use spmv_engine::{selector_from_snapshot, Admission, Engine, EngineConfig, TrainingPlan};
use spmv_gen::dataset::{Dataset, DatasetSize};
use std::time::{Duration, Instant};

/// Set-ups per untraced run (`setup_s` is their median); one takes
/// about 0.3 s.
const SETUP_REPS: usize = 9;

/// Footprint divisor: Small-lattice matrices of a few KB to ~0.5 MB.
const SCALE: f64 = 4096.0;
/// Zipf exponent of the request mix.
const ZIPF_S: f64 = 1.1;
/// Closed-loop clients (at most the 2 hardware threads the benchmark
/// is sized for).
const CLIENTS: u64 = 2;
/// `serve_churn`: known ids, many more than the plan capacity.
const CHURN_IDS: usize = 4096;
/// `serve_churn`: one request in this many uses a never-seen id.
const CHURN_FRESH_EVERY: u64 = 8;

/// Which serving workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every matrix resident, restored from a snapshot.
    Hot,
    /// Asynchronous admission under eviction pressure and fresh ids.
    Churn,
}

/// The engine under test. Its configuration, training campaign
/// included, does not follow the seed: the seed makes the inputs.
fn config(mode: Mode) -> EngineConfig {
    let base = EngineConfig {
        scale: SCALE,
        training: TrainingPlan { size: DatasetSize::Small, stride: 40, ..TrainingPlan::default() },
        ..EngineConfig::default()
    };
    match mode {
        Mode::Hot => base,
        Mode::Churn => EngineConfig {
            admission: Admission::Async { max_in_flight: 4 },
            cache_capacity_bytes: 4 << 20,
            shards: 4,
            plan_capacity: 512,
            ..base
        },
    }
}

struct State {
    engine: Engine,
    /// The distinct matrices.
    mats: Vec<CsrMatrix>,
    /// Known ids and the matrix each names, hottest first.
    ids: Vec<(String, usize)>,
    /// Resident conversions that came from the snapshot.
    restored: u64,
}

fn setup(mode: Mode, seed: u64, rec: &mut Recorder) -> State {
    let stride = match mode {
        Mode::Hot => 12,
        Mode::Churn => 6,
    };
    let specs = Dataset { size: DatasetSize::Small, scale: SCALE, base_seed: seed }
        .specs_subsampled(stride);
    let mats: Vec<CsrMatrix> = specs
        .iter()
        .map(|s| {
            let m =
                rec.span("gen.materialize", 0, |_| s.materialize()).expect("lattice materializes");
            rec.count("gen.nnz", m.nnz() as u64);
            m
        })
        .collect();
    // Hotness is a fixed shuffle of lattice order. It does not follow
    // the seed: which lattice point is hottest decides much of the
    // latency mix, and runs with different seeds must serve the same
    // mix of matrix shapes.
    let mut order: Vec<usize> = (0..mats.len()).collect();
    let mut stream = Stream::new(0x0DE5);
    for i in (1..order.len()).rev() {
        order.swap(i, stream.below(i as u64 + 1) as usize);
    }
    let ids: Vec<(String, usize)> = match mode {
        Mode::Hot => order.iter().map(|&k| (specs[k].id.clone(), k)).collect(),
        Mode::Churn => (0..CHURN_IDS).map(|j| (format!("k{j}"), order[j % order.len()])).collect(),
    };
    let engine = common::build_engine(rec, config(mode));
    let mut y = vec![0.0; mats.iter().map(CsrMatrix::rows).max().unwrap_or(0)];
    let warm = match mode {
        Mode::Hot => ids.len(),
        Mode::Churn => 64,
    };
    rec.span("engine.warmup", 0, |_| {
        for (id, k) in &ids[..warm] {
            let m = &mats[*k];
            engine.spmv(id, m, &vec![1.0; m.cols()], &mut y[..m.rows()]);
        }
        engine.drain_admissions();
    });
    if mode == Mode::Churn {
        return State { engine, mats, ids, restored: 0 };
    }
    let mut snapshot = Vec::new();
    rec.span("engine.snapshot", 0, |_| engine.snapshot(&mut snapshot)).expect("in-memory snapshot");
    drop(engine);
    let (engine, stats) = rec.span("engine.restore", 0, |_| {
        let selector =
            selector_from_snapshot(&mut snapshot.as_slice()).expect("own snapshot parses");
        let engine = Engine::with_selector(config(mode), selector).expect("known device");
        let stats = engine.restore(&mut snapshot.as_slice()).expect("own snapshot restores");
        (engine, stats)
    });
    State { engine, mats, ids, restored: stats.conversions_restored as u64 }
}

/// What the clients of one window share.
struct Window<'a> {
    st: &'a State,
    refs: &'a [Reference],
    zipf: &'a Zipf,
    mode: Mode,
    seed: u64,
    index: u64,
    length: Duration,
}

/// Client `c`'s share of a window: its log and the latencies of its
/// first-touch requests.
fn client(w: &Window<'_>, c: u64, rec: &mut Recorder, out: &mut Outcome) -> (OpLog, Vec<f64>) {
    let (st, refs, mode, window) = (w.st, w.refs, w.mode, w.index);
    let seed = spmv_gen::rng::child_seed(w.seed ^ c, window);
    let mut stream = Stream::new(seed ^ 0xC11E);
    let mut log = OpLog::new(st.mats.len(), seed);
    let mut cold = Vec::new();
    let rows = st.mats.iter().map(CsrMatrix::rows).max().unwrap_or(0);
    let mut y = vec![0.0; rows];
    let deadline = Instant::now() + w.length;
    let (mut n, mut fresh_seq) = (0u64, 0u64);
    let mut now = Instant::now();
    while now < deadline {
        let fresh = mode == Mode::Churn && stream.below(CHURN_FRESH_EVERY) == 0;
        let fresh_id;
        let (id, k): (&str, usize) = if fresh {
            fresh_seq += 1;
            fresh_id = format!("f{c}.{window}.{fresh_seq}");
            (&fresh_id, stream.below(st.mats.len() as u64) as usize)
        } else {
            let (id, k) = &st.ids[w.zipf.sample(stream.next_f64())];
            (id, *k)
        };
        let (m, r) = (&st.mats[k], &refs[k]);
        let y = &mut y[..m.rows()];
        n += 1;
        let t = Instant::now();
        rec.span("engine.spmv", (c << 48) | n, |_| st.engine.spmv(id, m, &r.x, y));
        now = Instant::now();
        let lat = now - t;
        log.record(k, lat, 2.0 * m.nnz() as f64);
        if fresh {
            let us = lat.as_secs_f64() * 1e6;
            common::reservoir_push(&mut cold, 1 << 16, fresh_seq, us, &mut stream);
        }
        out.checked(r.matches(y));
    }
    (log, cold)
}

/// Runs the workload.
pub fn run(mode: Mode, ctx: &Ctx, out: &mut Outcome) {
    let mut rec = ctx.recorder();
    let (st, setup_s) = common::repeat_setup(ctx, SETUP_REPS, || setup(mode, ctx.seed, &mut rec));
    out.setup(setup_s, &st.engine);
    let nnz: Vec<usize> = st.mats.iter().map(CsrMatrix::nnz).collect();
    println!(
        "matrices: {}, ids: {}, nnz min {} median {} max {}",
        st.mats.len(),
        st.ids.len(),
        nnz.iter().min().unwrap_or(&0),
        crate::stats::median(&nnz.iter().map(|&n| n as f64).collect::<Vec<_>>()).unwrap_or(0.0),
        nnz.iter().max().unwrap_or(&0)
    );
    let refs: Vec<Reference> = st.mats.iter().map(|m| Reference::new(m, 0)).collect();
    let zipf = Zipf::new(st.ids.len(), ZIPF_S);
    let before = st.engine.counters();
    common::check_counters(&before, "after setup", out);
    let mut cold_us = Vec::new();
    let mut window = 0u64;
    common::measure(ctx, out, |length, traced, out| {
        window += 1;
        let w = Window {
            st: &st,
            refs: &refs,
            zipf: &zipf,
            mode,
            seed: ctx.seed,
            index: window,
            length,
        };
        let results: Vec<(OpLog, Vec<f64>, Recorder, Outcome)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let w = &w;
                    let mut local = ctx.recorder();
                    local.set_enabled(traced && ctx.trace);
                    s.spawn(move || {
                        let mut part = Outcome::default();
                        let (log, cold) = client(w, c, &mut local, &mut part);
                        (log, cold, local, part)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        st.engine.drain_admissions();
        let mut logs = Vec::new();
        for (log, cold, local, part) in results {
            logs.push(log);
            cold_us.extend(cold);
            rec.absorb(local);
            out.attempted += part.attempted;
            out.failed += part.failed;
        }
        logs
    });
    let after = st.engine.counters();
    common::check_counters(&after, "after the measured phase", out);
    if mode == Mode::Hot && (after.conversions != 0 || after.cached_entries as u64 != st.restored) {
        out.problem(format!(
            "serve_hot converted {} times with {} of {} entries restored",
            after.conversions, st.restored, after.cached_entries
        ));
    }
    if ctx.trace {
        common::counter_layers(&before, &after, st.restored, out);
        // A spread of sizes, hottest first.
        let step = (st.ids.len() / 12).max(1);
        let systems = crate::solve::probe_systems(ctx.seed, &mut rec);
        let probes = Probes {
            engine: &st.engine,
            config: config(mode),
            mats: st
                .ids
                .iter()
                .step_by(step)
                .take(12)
                .map(|(id, k)| ProbeMatrix { id, m: &st.mats[*k] })
                .collect(),
            working_set: st.mats.iter().map(CsrMatrix::mem_footprint_bytes).sum(),
            systems: &systems,
            cold_us,
            seed: ctx.seed,
        };
        probes::run(probes, &mut rec, out);
    }
}
