//! `plan-dse`: one long-lived planning engine answering a seeded stream
//! of whole-network plan requests, the way a design-space exploration
//! loop drives it.
//!
//! About 95% of ops are zoo networks on five array geometries, which
//! the plan cache answers after the first sight; about 5% are fresh
//! synthetic 3–7-layer networks whose shapes the engine has never seen,
//! so each runs cold Algorithm-1 searches. Ops are network-sized: a
//! single cached layer plan takes under a microsecond, which is timer
//! noise.

use crate::harness::{self, Latencies, Metrics, Registry, Rng, Settings, Tail, Tally, Tracer};
use crate::Outcome;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use vw_sdk::pim_arch::PimArray;
use vw_sdk::pim_mapping::MappingAlgorithm;
use vw_sdk::pim_nets::{zoo, ConvLayer, Network};
use vw_sdk::{EngineStats, NetworkReport, Planner, PlanningEngine};

/// Array geometries the stream draws from (rows × cols).
pub const ARRAYS: [(usize, usize); 5] =
    [(128, 128), (256, 128), (256, 256), (512, 256), (512, 512)];
/// Share of ops that plan a never-seen synthetic network.
const SYNTHETIC_SHARE: f64 = 0.05;
/// Untimed ops before measuring.
const WARMUP_OPS: usize = 2_000;
/// Set-up repetitions (engine construction + the opening sweep).
const SETUPS: usize = 15;
/// Cache bound the loop enforces after every op with
/// `PlanningEngine::shed_caches_over`, as any long-running caller must:
/// without it a time-bounded run's memory grows with its op count, by
/// several KiB per cached synthetic layer. A quarter of the daemon's
/// bound keeps the process near 100 MiB.
const CACHE_BOUND: usize = 16_384;
/// Synthetic ops of the timed window re-planned by the sequential
/// `Planner` (the reference oracle) after the window closes.
const ORACLE_SAMPLE: usize = 200;
/// Tail percentile: the timed window completes far more than 1000 ops.
pub const TAIL: Tail = Tail::P99;
/// Traced-pass length, in ops per second of `--seconds`.
const TRACED_OPS_PER_SECOND: f64 = 4_000.0;

/// One planning op: which network on which array.
pub enum Op<'z> {
    Zoo(&'z Network, PimArray),
    Synthetic(Network, PimArray),
}

impl Op<'_> {
    pub fn network(&self) -> &Network {
        match self {
            Op::Zoo(network, _) => network,
            Op::Synthetic(network, _) => network,
        }
    }

    pub fn array(&self) -> PimArray {
        match self {
            Op::Zoo(_, array) | Op::Synthetic(_, array) => *array,
        }
    }
}

pub fn array(index: usize) -> PimArray {
    let (rows, cols) = ARRAYS[index];
    PimArray::new(rows, cols).expect("positive array geometry")
}

/// A seeded synthetic network of 3–7 unpadded, unit-stride layers with
/// shapes drawn from a space far larger than any run samples, so each
/// one is new to the engine's caches.
pub fn synthetic_network(rng: &mut Rng, name: String) -> Network {
    let layers = (0..rng.range(3, 7))
        .map(|i| {
            let h = rng.range(7, 64);
            let w = rng.range(7, 64);
            let k = *rng.pick(&[1, 3, 3, 3, 5, 7]);
            let k = k.min(h).min(w);
            ConvLayer::builder(format!("s{i}"))
                .input(h, w)
                .kernel(k, k)
                .channels(8 * rng.range(1, 64), 8 * rng.range(1, 64))
                .build()
                .expect("synthetic layer geometry is valid by construction")
        })
        .collect();
    Network::from_layers(name, layers)
}

/// Op `index` of the stream (index ≥ 1; op 0 is the opening sweep).
pub fn op_at<'z>(zoo: &'z [Network], seed: u64, index: usize) -> Op<'z> {
    let mut rng = Rng::for_op(seed, index as u64);
    let array = array(rng.below(ARRAYS.len()));
    if rng.unit() < SYNTHETIC_SHARE {
        Op::Synthetic(
            synthetic_network(&mut rng, format!("synth-{seed}-{index}")),
            array,
        )
    } else {
        Op::Zoo(rng.pick(zoo), array)
    }
}

fn trio() -> [MappingAlgorithm; 3] {
    MappingAlgorithm::paper_trio()
}

fn totals(report: &NetworkReport) -> [Option<u64>; 3] {
    trio().map(|alg| report.total_cycles(alg))
}

/// Reference totals (im2col, SDK, VW-SDK) of every zoo network on
/// every array, keyed by `Network::name()`.
pub type References = BTreeMap<(String, PimArray), [Option<u64>; 3]>;

/// The reference table, from the sequential `Planner`. Every workload
/// that plans zoo networks checks its answers against it.
pub fn zoo_references() -> References {
    let mut refs = References::new();
    for a in 0..ARRAYS.len() {
        let planner = Planner::with_algorithms(array(a), &trio());
        for network in zoo::all() {
            let report = planner
                .plan_network(&network)
                .expect("every zoo network plans on every array");
            refs.insert((network.name().to_string(), array(a)), totals(&report));
        }
    }
    refs
}

/// Checks one op's report: zoo ops must equal the sequential planner's
/// totals; synthetic ops must cover every layer under every algorithm
/// with positive cycles (and are re-planned by the oracle in a sample).
fn check(tally: &mut Tally, refs: &References, op: &Op, report: &vw_sdk::Result<NetworkReport>) {
    let ok = match (op, report) {
        (_, Err(_)) => false,
        (Op::Zoo(network, array), Ok(report)) => {
            refs.get(&(network.name().to_string(), *array)) == Some(&totals(report))
        }
        (Op::Synthetic(network, _), Ok(report)) => {
            report.layers().len() == network.len()
                && totals(report).iter().all(|t| t.is_some_and(|c| c > 0))
        }
    };
    tally.check(ok, || {
        format!(
            "plan {} on {}: {:?}",
            op.network().name(),
            op.array(),
            report.as_ref().map(totals)
        )
    });
}

/// Op 0 of every stream: a cold sweep of the whole zoo over the five
/// arrays, the way a design-space exploration session opens. It makes
/// set-up a multi-millisecond, seed-independent measurement.
fn opening_sweep(zoo: &[Network]) -> Vec<Op<'_>> {
    (0..ARRAYS.len())
        .flat_map(|a| zoo.iter().map(move |network| Op::Zoo(network, array(a))))
        .collect()
}

/// Plans one op and bounds the engine's caches afterwards.
fn plan_op(engine: &PlanningEngine, op: &Op) -> vw_sdk::Result<NetworkReport> {
    let report = engine.plan_network_with(op.network(), op.array(), &trio());
    engine.shed_caches_over(CACHE_BOUND);
    report
}

pub fn run(settings: &Settings) -> Outcome {
    let zoo = zoo::all();
    let refs = zoo_references();
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let seed = settings.seed;

    // Set-up: a new engine answering its first op, the opening sweep.
    let sweep = opening_sweep(&zoo);
    let (setup_s, (engine, reports)) = harness::median_setup(settings.reps(SETUPS), || {
        let engine = PlanningEngine::new();
        let reports: Vec<_> = sweep.iter().map(|op| plan_op(&engine, op)).collect();
        (engine, reports)
    });
    metrics.set("setup_s", setup_s, "s");

    // `mapped_cycles` sums VW-SDK cycles over the distinct zoo
    // (network, array) pairs, all of which the opening sweep plans.
    // Synthetic networks stay out of it: their shapes, and so their
    // cycles, are drawn by the seed.
    let mut mapped = 0;
    for (op, report) in sweep.iter().zip(&reports) {
        check(&mut tally, &refs, op, report);
        if let Ok(report) = report {
            mapped += report.total_cycles(MappingAlgorithm::VwSdk).unwrap_or(0);
        }
    }
    metrics.set("mapped_cycles", mapped as f64, "cycles");
    let warmup = settings.reps(WARMUP_OPS);
    for index in 1..warmup {
        let op = op_at(&zoo, seed, index);
        let report = plan_op(&engine, &op);
        check(&mut tally, &refs, &op, &report);
    }

    // Timed window: the stream continues where the warm-up stopped.
    let window = settings.measure_for();
    let mut latencies = Latencies::default();
    let mut sampled: Vec<(Network, PimArray, [Option<u64>; 3])> = Vec::new();
    let started = Instant::now();
    let mut index = warmup;
    while started.elapsed() < window {
        let op = op_at(&zoo, seed, index);
        let t = Instant::now();
        let report = plan_op(&engine, &op);
        let elapsed = t.elapsed();
        latencies.push(elapsed);
        check(&mut tally, &refs, &op, &report);
        if let (Op::Synthetic(network, array), Ok(report)) = (op, &report) {
            if sampled.len() < ORACLE_SAMPLE {
                sampled.push((network, array, totals(report)));
            }
        }
        index += 1;
    }
    for (network, array, got) in &sampled {
        let want = Planner::with_algorithms(*array, &trio())
            .plan_network(network)
            .map(|r| totals(&r));
        if want.as_ref().ok() != Some(got) {
            tally.fail(format!(
                "synthetic {} on {array}: engine {got:?}, planner {want:?}",
                network.name()
            ));
        }
    }
    let ops_per_s = latencies.median_rate(1);
    let (p50, tail) = latencies.summary_ms(TAIL);
    metrics.set("ops_per_s", ops_per_s, "1/s");
    metrics.set("latency_p50_ms", p50, "ms");
    metrics.set("latency_tail_ms", tail, "ms");

    if settings.trace {
        traced_pass(settings, &zoo, &refs, &mut tally, &mut metrics);
    }
    Outcome {
        tally,
        metrics,
        threads: vec![("load_threads", 1), ("engine_jobs", engine.jobs())],
        pooled_ms: Vec::new(),
    }
}

/// Replays the stream on a fresh engine: the opening sweep and the
/// warm-up untimed, then `traced` ops with every `plan_network_with`
/// call inside a span of `tracer`. Returns the replayed ops' wall time
/// and the telemetry and `engine.stats()` readings around them.
fn replay(
    settings: &Settings,
    zoo: &[Network],
    refs: &References,
    tally: &mut Tally,
    tracer: &mut Tracer,
    traced: usize,
) -> (Duration, [Registry; 2], [EngineStats; 2]) {
    let seed = settings.seed;
    let engine = PlanningEngine::new();
    let warmup = settings.reps(WARMUP_OPS);
    for op in &opening_sweep(zoo) {
        plan_op(&engine, op).expect("the opening sweep planned before");
    }
    for index in 1..warmup {
        let op = op_at(zoo, seed, index);
        let report = plan_op(&engine, &op);
        check(tally, refs, &op, &report);
    }
    let before = Registry::snapshot();
    let stats_before = engine.stats();
    let mut wall = Duration::ZERO;
    for index in warmup..warmup + traced {
        let op = op_at(zoo, seed, index);
        let t = Instant::now();
        let report = tracer.span("core.plan_network_with", index as u64, || {
            engine.plan_network_with(op.network(), op.array(), &trio())
        });
        engine.shed_caches_over(CACHE_BOUND);
        wall += t.elapsed();
        check(tally, refs, &op, &report);
    }
    (
        wall,
        [before, Registry::snapshot()],
        [stats_before, engine.stats()],
    )
}

/// Replays the measured stream three times, each on a fresh engine:
/// once to warm the process's heap (the first fresh engine in a process
/// takes page faults the later ones do not), once without spans (the
/// overhead baseline), and once with them. The `cost` and `core`
/// breakdown comes from the traced replay's spans, telemetry deltas and
/// `engine.stats()`.
fn traced_pass(
    settings: &Settings,
    zoo: &[Network],
    refs: &References,
    tally: &mut Tally,
    metrics: &mut Metrics,
) {
    let traced = settings.traced_ops(TRACED_OPS_PER_SECOND);
    replay(settings, zoo, refs, tally, &mut Tracer::disabled(), traced);
    let (untraced_wall, ..) = replay(settings, zoo, refs, tally, &mut Tracer::disabled(), traced);
    let mut tracer = Tracer::new();
    let (wall, [before, after], [stats_before, stats]) =
        replay(settings, zoo, refs, tally, &mut tracer, traced);
    harness::set_search_breakdown(metrics, &before, &after);
    harness::set_cache_breakdown(metrics, &stats_before, &stats);
    let search_s = metrics.get("cost.search_busy_ms").unwrap_or(0.0) / 1e3;
    let span_s = tracer
        .totals()
        .get("core.plan_network_with")
        .map_or(0.0, |t| t.2);
    metrics.set(
        "core.self_ms_per_op",
        (span_s - search_s).max(0.0) * 1e3 / traced as f64,
        "ms",
    );
    harness::set_trace_overhead(
        metrics,
        traced as f64 / untraced_wall.as_secs_f64(),
        traced as f64 / wall.as_secs_f64(),
    );
    if let Err(e) = tracer.write(settings, "plan-dse") {
        eprintln!("vwbench: could not write the trace: {e}");
    }
}
