//! What every workload shares: the run context and outcome, seeded
//! streams, the per-operation log, engine construction with spans,
//! output checks and the engine's counter invariants.

use crate::stats::{median, percentile};
use crate::trace::Recorder;
use spmv_analysis::stats::geomean;
use spmv_core::CsrMatrix;
use spmv_engine::{selector_from_records, Engine, EngineConfig, EngineCounters};
use spmv_parallel::ThreadPool;
use std::time::{Duration, Instant};

/// Command-line settings of one run.
pub struct Ctx {
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Time origin of every span.
    pub origin: Instant,
}

impl Ctx {
    /// A recorder for one thread, tracing when the run traces.
    pub fn recorder(&self) -> Recorder {
        Recorder::new(self.trace, self.origin)
    }
}

/// One named value with its unit.
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything a run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Broken invariants and other reasons the run is not correct.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics.
    pub layers: Vec<Metric>,
    /// Workload-specific figures printed ahead of the result.
    pub report: Vec<Metric>,
    /// Lane profile of the workload's engine.
    pub lanes: Option<spmv_formats::LaneProfile>,
    /// Worker threads of the workload's engine pool.
    pub pool_threads: usize,
}

impl Outcome {
    fn push(list: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
        list.push(Metric { name: name.into(), value, unit });
    }

    /// Records the set-up time and the engine facts the fingerprint
    /// reports.
    pub fn setup(&mut self, setup_s: f64, engine: &Engine) {
        self.e2e("setup_s", setup_s, "s");
        self.lanes = Some(engine.lane_profile());
        self.pool_threads = engine.pool().threads();
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        Self::push(&mut self.e2e, name, value, unit);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        Self::push(&mut self.layers, name, value, unit);
    }

    /// Records a workload-specific report figure.
    pub fn report(&mut self, name: &str, value: f64, unit: &'static str) {
        Self::push(&mut self.report, name, value, unit);
    }

    /// Marks the run incorrect.
    pub fn problem(&mut self, what: String) {
        eprintln!("perfbench: {what}");
        self.problems.push(what);
    }

    /// Counts one checked operation.
    pub fn checked(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// A seeded stream of uniform draws: a counter driven through the
/// generator's SplitMix64 child-seed mixer.
pub struct Stream {
    seed: u64,
    n: u64,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Stream { seed, n: 0 }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.n += 1;
        spmv_gen::rng::child_seed(self.seed, self.n)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf(s) over `n` ranks by inverse CDF; rank 0 is the hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf }
    }

    /// The rank a uniform draw `u` in `[0, 1)` maps to.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Samples kept per client for latency percentiles. A fixed-size
/// uniform reservoir keeps the benchmark's own memory independent of
/// how many operations the system completes.
const RESERVOIR: usize = 1 << 17;
/// Samples kept per key for per-key medians.
const KEY_RESERVOIR: usize = 255;

/// The slot a uniform reservoir of capacity `cap` stores the `seen`-th
/// offered value in, if any.
fn reservoir_slot(len: usize, cap: usize, seen: u64, stream: &mut Stream) -> Option<usize> {
    if len < cap {
        return Some(len);
    }
    let j = stream.below(seen) as usize;
    (j < cap).then_some(j)
}

/// Keeps `v` a uniform sample of at most `cap` of the `seen` values
/// offered so far (`x` being the latest).
pub fn reservoir_push(v: &mut Vec<f64>, cap: usize, seen: u64, x: f64, stream: &mut Stream) {
    match reservoir_slot(v.len(), cap, seen, stream) {
        Some(j) if j == v.len() => v.push(x),
        Some(j) => v[j] = x,
        None => {}
    }
}

/// Sampled `(latency s, GF/s)` pairs of one key.
#[derive(Clone, Default)]
struct KeyLog {
    seen: u64,
    lat_s: Vec<f64>,
    gflops: Vec<f64>,
}

/// One client's log of timed operations.
pub struct OpLog {
    stream: Stream,
    ops: u64,
    busy_s: f64,
    lat_us: Vec<f64>,
    keys: Vec<KeyLog>,
}

impl OpLog {
    /// A log over `keys` distinct (matrix, entry point) keys.
    pub fn new(keys: usize, seed: u64) -> Self {
        OpLog {
            stream: Stream::new(seed),
            ops: 0,
            busy_s: 0.0,
            lat_us: Vec::new(),
            keys: vec![KeyLog::default(); keys],
        }
    }

    /// Records one operation on `key` that took `lat` and performed
    /// `flops` useful floating-point operations.
    pub fn record(&mut self, key: usize, lat: Duration, flops: f64) {
        let s = lat.as_secs_f64().max(1e-9);
        self.ops += 1;
        self.busy_s += s;
        reservoir_push(&mut self.lat_us, RESERVOIR, self.ops, s * 1e6, &mut self.stream);
        let k = &mut self.keys[key];
        k.seen += 1;
        match reservoir_slot(k.lat_s.len(), KEY_RESERVOIR, k.seen, &mut self.stream) {
            Some(j) if j == k.lat_s.len() => {
                k.lat_s.push(s);
                k.gflops.push(flops / s * 1e-9);
            }
            Some(j) => {
                k.lat_s[j] = s;
                k.gflops[j] = flops / s * 1e-9;
            }
            None => {}
        }
    }

    /// Folds a later log of the same client into this one.
    pub fn absorb(&mut self, other: OpLog) {
        self.ops += other.ops;
        self.busy_s += other.busy_s;
        self.lat_us.extend(other.lat_us);
        for (mine, theirs) in self.keys.iter_mut().zip(other.keys) {
            mine.seen += theirs.seen;
            mine.lat_s.extend(theirs.lat_s);
            mine.gflops.extend(theirs.gflops);
        }
    }
}

/// Latency and throughput over the logs of all clients.
pub struct Summary {
    /// Operations completed.
    pub ops: u64,
    /// Sum over clients of operations per second of waiting on the
    /// system (bookkeeping and checks between calls excluded).
    pub rps: f64,
    /// Latency samples the percentiles use.
    pub samples: usize,
    /// Median latency.
    pub p50_us: Option<f64>,
    /// 99th-percentile latency (`None` below the sample-count rule).
    pub p99_us: Option<f64>,
    /// Median GF/s per key (`None` for keys never run).
    pub key_gflops: Vec<Option<f64>>,
    /// Median latency in seconds per key (`None` for keys never run).
    pub key_lat_s: Vec<Option<f64>>,
    /// Geomean of `key_gflops` over the keys that ran.
    pub gflops: Option<f64>,
}

impl Summary {
    /// Combines client logs (client reservoirs are concatenated, so
    /// clients should run comparable operation counts).
    pub fn of(logs: &[OpLog]) -> Summary {
        let ops = logs.iter().map(|l| l.ops).sum();
        let rps = logs.iter().filter(|l| l.ops > 0).map(|l| l.ops as f64 / l.busy_s).sum();
        let mut lat: Vec<f64> = logs.iter().flat_map(|l| l.lat_us.iter().copied()).collect();
        lat.sort_by(f64::total_cmp);
        let n_keys = logs.first().map_or(0, |l| l.keys.len());
        let per_key = |pick: fn(&KeyLog) -> &Vec<f64>| -> Vec<Option<f64>> {
            (0..n_keys)
                .map(|k| {
                    let v: Vec<f64> =
                        logs.iter().flat_map(|l| pick(&l.keys[k]).iter().copied()).collect();
                    median(&v)
                })
                .collect()
        };
        let key_gflops = per_key(|k| &k.gflops);
        let ran: Vec<f64> = key_gflops.iter().flatten().copied().collect();
        Summary {
            ops,
            rps,
            samples: lat.len(),
            p50_us: percentile(&lat, 0.5),
            p99_us: percentile(&lat, 0.99),
            gflops: geomean(&ran),
            key_lat_s: per_key(|k| &k.lat_s),
            key_gflops,
        }
    }

    /// Geomean over the keys `keep` selects of their median latency.
    pub fn median_latency_s(&self, keep: impl Fn(usize) -> bool) -> f64 {
        let v: Vec<f64> = (0..self.key_lat_s.len())
            .filter(|&k| keep(k))
            .filter_map(|k| self.key_lat_s[k])
            .collect();
        geomean(&v).unwrap_or(f64::NAN)
    }

    /// Writes `rps`, `p50_us`, `p99_us` and `gflops` as end-to-end
    /// metrics, flagging any the samples cannot support.
    pub fn emit(&self, out: &mut Outcome) {
        out.e2e("rps", self.rps, "1/s");
        for (name, v) in [("p50_us", self.p50_us), ("p99_us", self.p99_us)] {
            match v {
                Some(v) => out.e2e(name, v, "us"),
                None => out.problem(format!("{name}: {} samples cannot support it", self.samples)),
            }
        }
        match self.gflops {
            Some(g) => out.e2e("gflops", g, "GF/s"),
            None => out.problem("gflops: no operation completed".into()),
        }
        println!("latency: {} operations, {} samples", self.ops, self.samples);
    }
}

/// Windows the untraced measured phase is split into.
const WINDOWS: usize = 8;

/// Runs the measured phase; `timed(length, traced, out)` runs one
/// window and returns one log per client.
///
/// Untraced, the phase runs as [`WINDOWS`] consecutive windows and the
/// end-to-end figures come from the better half of them: other tenants
/// of the host can only slow a window down, so the better half
/// estimates the system's own speed while the worse half absorbs
/// bursts of outside load. `rps`, `p50_us` and `gflops` are each the
/// median over the half of the windows where that figure was best;
/// `p99_us` pools the samples of the faster half by `rps`, since a
/// single window may have too few for it. Traced, it alternates
/// untraced and traced windows of a quarter each, reports the tracing
/// overhead as traced minus untraced figures, and returns the summary
/// over all windows.
pub fn measure(
    ctx: &Ctx,
    out: &mut Outcome,
    mut timed: impl FnMut(Duration, bool, &mut Outcome) -> Vec<OpLog>,
) -> Summary {
    let fold = |acc: &mut Option<Vec<OpLog>>, logs: Vec<OpLog>| match acc {
        None => *acc = Some(logs),
        Some(acc) => acc.iter_mut().zip(logs).for_each(|(a, l)| a.absorb(l)),
    };
    let total = Duration::from_secs_f64(ctx.seconds);
    if !ctx.trace {
        let mut windows: Vec<(Summary, Vec<OpLog>)> = (0..WINDOWS)
            .map(|_| {
                let logs = timed(total / WINDOWS as u32, false, out);
                (Summary::of(&logs), logs)
            })
            .collect();
        for (name, f) in [
            ("rps", (|s| Some(s.rps)) as fn(&Summary) -> Option<f64>),
            ("p50_us", |s| s.p50_us),
            ("gflops", |s| s.gflops),
        ] {
            let v: Vec<String> = windows
                .iter()
                .map(|(s, _)| f(s).map_or("-".into(), |v| format!("{v:.6}")))
                .collect();
            println!("windows: {name} {}", v.join(" "));
        }
        let best_half = |f: fn(&Summary) -> Option<f64>, higher: bool| {
            let mut v: Vec<f64> = windows.iter().filter_map(|(s, _)| f(s)).collect();
            v.sort_by(|a, b| if higher { b.total_cmp(a) } else { a.total_cmp(b) });
            v.truncate(WINDOWS / 2);
            median(&v)
        };
        let rps = best_half(|s| Some(s.rps), true);
        let p50_us = best_half(|s| s.p50_us, false);
        let gflops = best_half(|s| s.gflops, true);
        windows.sort_by(|a, b| b.0.rps.total_cmp(&a.0.rps));
        windows.truncate(WINDOWS / 2);
        let mut kept = None;
        for (_, logs) in windows {
            fold(&mut kept, logs);
        }
        let mut summary = Summary::of(&kept.expect("at least one window"));
        summary.rps = rps.expect("at least one window");
        summary.p50_us = p50_us;
        summary.gflops = gflops;
        summary.emit(out);
        return summary;
    }
    let (mut plain, mut traced) = (None, None);
    for window in 0..4 {
        let on = window % 2 == 1;
        let logs = timed(total / 4, on, out);
        fold(if on { &mut traced } else { &mut plain }, logs);
    }
    let (plain, traced) = (plain.expect("two windows"), traced.expect("two windows"));
    let (p, t) = (Summary::of(&plain), Summary::of(&traced));
    let delta = |a: Option<f64>, b: Option<f64>| a.zip(b).map_or(f64::NAN, |(a, b)| a - b);
    out.layer("trace.p50_us_delta", delta(t.p50_us, p.p50_us), "us");
    out.layer("trace.rps_delta", t.rps - p.rps, "1/s");
    let mut all = plain;
    all.iter_mut().zip(traced).for_each(|(a, l)| a.absorb(l));
    Summary::of(&all)
}

/// Builds an engine the way `Engine::new` does — training campaign,
/// selector fit, assembly — with a span around each step.
pub fn build_engine(rec: &mut Recorder, config: EngineConfig) -> Engine {
    let records = rec.span("devices.campaign", 0, |_| {
        let pool = ThreadPool::with_all_cores();
        config.training.records(&config.device, config.scale, &pool)
    });
    let selector = rec.span("analysis.fit", 0, |_| selector_from_records(&records, config.k));
    rec.span("engine.assemble", 0, |_| Engine::with_selector(config, selector))
        .expect("the benchmark configures a known device")
}

/// Runs `setup` `reps` times, each earlier state dropped before the
/// next set-up starts, and returns the last state with the median wall
/// time. The count is fixed per workload, never derived from how fast
/// set-up ran, so it cannot couple set-up speed into `peak_rss_mb`. A
/// traced run sets up once: its set-up time is not reported.
pub fn repeat_setup<S>(ctx: &Ctx, reps: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let reps = if ctx.trace { 1 } else { reps.max(1) };
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    println!("setup: {reps} runs, {times:?} s");
    (state.expect("at least one setup"), median(&times).expect("at least one setup"))
}

/// A fixed input vector and the reference product `A·x` computed with
/// `CsrMatrix::spmv_into`, plus per-row magnitudes for the tolerance.
pub struct Reference {
    /// The input vector.
    pub x: Vec<f64>,
    y: Vec<f64>,
    abs: Vec<f64>,
}

impl Reference {
    /// The reference for `m` with input vector variant `salt`.
    pub fn new(m: &CsrMatrix, salt: u64) -> Self {
        let x: Vec<f64> = (0..m.cols() as u64)
            .map(|i| ((i * 29 + salt * 7 + 3) % 19) as f64 / 9.0 - 1.0 + 0.05)
            .collect();
        let mut y = vec![0.0; m.rows()];
        m.spmv_into(&x, &mut y);
        let abs = (0..m.rows())
            .map(|r| {
                let (cols, vals) = m.row(r);
                cols.iter().zip(vals).map(|(&c, v)| (v * x[c as usize]).abs()).sum()
            })
            .collect();
        Reference { x, y, abs }
    }

    /// Whether `y` equals the reference up to summation order.
    pub fn matches(&self, y: &[f64]) -> bool {
        y.len() == self.y.len()
            && y.iter().zip(&self.y).zip(&self.abs).all(|((a, b), s)| (a - b).abs() <= 1e-9 * s)
    }
}

/// Generator parameters of the small square matrices the solver and
/// front-door probes use: `n` rows of about 8 nonzeros.
pub fn square_params(n: usize, seed: u64) -> spmv_gen::GeneratorParams {
    spmv_gen::GeneratorParams {
        nr_rows: n,
        nr_cols: n,
        avg_nz_row: 8.0,
        std_nz_row: 1.6,
        distribution: spmv_gen::RowDist::Normal,
        skew_coeff: 0.0,
        bw_scaled: 0.3,
        cross_row_sim: 0.5,
        avg_num_neigh: 0.95,
        seed,
    }
}

/// Checks the counter invariants that hold at a quiescent point.
pub fn check_counters(c: &EngineCounters, when: &str, out: &mut Outcome) {
    if c.total_selections() != c.requests {
        out.problem(format!(
            "{when}: selections {} != requests {}",
            c.total_selections(),
            c.requests
        ));
    }
    if c.cache_hits + c.cache_misses + c.coalesced != c.cache_lookups {
        out.problem(format!(
            "{when}: hits {} + misses {} + coalesced {} != lookups {}",
            c.cache_hits, c.cache_misses, c.coalesced, c.cache_lookups
        ));
    }
    if c.served_selected + c.served_fallback != c.requests {
        out.problem(format!(
            "{when}: served_selected {} + served_fallback {} != requests {}",
            c.served_selected, c.served_fallback, c.requests
        ));
    }
}

/// Per-layer metrics read off the engine's counters between two
/// quiescent points of the measured phase; `restored` is how many
/// resident conversions came from a snapshot rather than a build.
pub fn counter_layers(
    before: &EngineCounters,
    after: &EngineCounters,
    restored: u64,
    out: &mut Outcome,
) {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let d = |f: fn(&EngineCounters) -> u64| f(after) - f(before);
    let requests = d(|c| c.requests);
    out.layer("engine.hit_ratio", ratio(d(|c| c.cache_hits), d(|c| c.cache_lookups)), "ratio");
    out.layer("engine.fallback_frac", ratio(d(|c| c.served_fallback), requests), "ratio");
    out.layer(
        "engine.conversions_per_kreq",
        1000.0 * ratio(d(|c| c.conversions), requests),
        "1/kreq",
    );
    out.layer(
        "engine.flight_land_frac",
        ratio(d(|c| c.swaps), d(|c| c.flights_scheduled)),
        "ratio",
    );
    let built_resident = (after.cached_entries as u64).saturating_sub(restored);
    out.layer(
        "engine.duplicate_conversions",
        after.conversions as f64 - built_resident as f64,
        "count",
    );
    out.layer("parallel.steals", (after.pool.steals - before.pool.steals) as f64, "count");
    out.layer("parallel.parks", (after.pool.parks - before.pool.parks) as f64, "count");
    out.layer("parallel.low_tasks", (after.pool.low_tasks - before.pool.low_tasks) as f64, "count");
}
