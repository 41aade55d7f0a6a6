//! `sim-batch`: `NetworkExecutor::execute_batch` streaming 16 seeded
//! inputs through VGG-13-sim's VW-SDK plans at 512×512 on all cores.
//! Streaming dominates it; crossbar programming, once per batch, is the
//! rest. Every output is compared with `pim_tensor::forward` outside the
//! timed call.
//!
//! The traced pass replays each op through the simulator's public
//! pieces (`gen`, `ProgrammedStage::program`, `stream_batch`,
//! `forward::apply_ops` + `ops::requant8`, `forward::forward`) with a
//! span around each, and requires the replay to reproduce the untraced
//! call exactly.

use crate::harness::{self, Latencies, Metrics, Rng, Settings, Tail, Tally, Tracer};
use crate::Outcome;
use std::time::{Duration, Instant};
use vw_sdk::pim_arch::PimArray;
use vw_sdk::pim_mapping::{MappingAlgorithm, MappingPlan};
use vw_sdk::pim_nets::{zoo, Network};
use vw_sdk::pim_sim::{Engine, ExecMode, NetworkExecutor, ProgrammedStage, RunStats};
use vw_sdk::pim_tensor::{forward, gen, ops, Tensor3, Tensor4};
use vw_sdk::PlanningEngine;

/// Inputs per `sim-batch` op.
const BATCH: usize = 16;
/// Set-ups and untimed warm-up batches before measuring. Each batch
/// call programs every crossbar once, allocating and freeing tens of
/// megabytes; five of them run before the timed window.
const BATCH_SETUPS: usize = 2;
const BATCH_WARMUPS: usize = 3;
/// Tail percentile, taken over the batches of all the processes of a
/// run together: a 15 s run times about 150–250 of them, so p90 keeps at
/// least ten beyond it.
pub const BATCH_TAIL: Tail = Tail::P90;
/// Traced-pass length, in ops per second of `--seconds`.
const BATCH_TRACED_PER_SECOND: f64 = 0.6;

fn array() -> PimArray {
    PimArray::new(512, 512).expect("positive array")
}

/// The simulation seed of op `index`.
fn op_seed(seed: u64, index: usize) -> u64 {
    Rng::for_op(seed, index as u64).next_u64()
}

/// Layer `index`'s weight seed, as `pim_sim` derives it from a
/// simulation seed.
fn weight_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1)
}

/// Batch element `element`'s input seed, as `pim_sim` derives it.
fn ifm_seed(seed: u64, element: usize) -> u64 {
    seed.wrapping_add((element as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn weights(network: &Network, seed: u64) -> Vec<Tensor4<i64>> {
    network
        .layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            gen::random4::<i64>(
                layer.out_channels(),
                layer.in_channels_per_group(),
                layer.kernel_h(),
                layer.kernel_w(),
                weight_seed(seed, i),
            )
        })
        .collect()
}

fn inputs(network: &Network, seed: u64, batch: usize) -> Vec<Tensor3<i64>> {
    let first = &network.layers()[0];
    (0..batch)
        .map(|b| {
            gen::random3::<i64>(
                first.in_channels(),
                first.input_h(),
                first.input_w(),
                ifm_seed(seed, b),
            )
        })
        .collect()
}

fn vw_plans(engine: &PlanningEngine, network: &Network) -> Vec<MappingPlan> {
    network
        .layers()
        .iter()
        .map(|layer| {
            engine
                .plan(layer, array(), MappingAlgorithm::VwSdk)
                .expect("VW-SDK plans every executable zoo layer")
        })
        .collect()
}

/// What one replayed op produced, for comparison with the untraced call.
struct Replay {
    ofms: Vec<Tensor3<i64>>,
    references: Vec<Tensor3<i64>>,
    executed_cycles_per_ifm: u64,
    macs_per_ifm: u64,
    programmings: u64,
}

/// Replays one op through the simulator's public pieces, a span around
/// each call: input/weight generation, programming every stage,
/// streaming the batch stage by stage with the inter-stage digital ops
/// (plus quantized requantization) after each, and the reference
/// forward pass of every input.
fn replay(
    tracer: &mut Tracer,
    op: u64,
    network: &Network,
    plans: &[MappingPlan],
    ifms: Vec<Tensor3<i64>>,
    weights: &[Tensor4<i64>],
) -> Replay {
    let energy = Engine::default();
    let mut programmed = Vec::with_capacity(plans.len());
    let mut stats = RunStats::new();
    tracer.span_faults("sim.program", op, || {
        for (plan, bank) in plans.iter().zip(weights) {
            programmed.push(
                ProgrammedStage::program(plan, bank, &mut stats)
                    .expect("VW-SDK plans program their own weights"),
            );
        }
    });
    let programmings = stats.array_programmings;
    let mut per_ifm = RunStats::new();
    for stage in &programmed {
        stage.stream_stats(energy.energy_model(), &mut per_ifm);
    }
    let mut current = ifms.clone();
    for (i, stage) in programmed.iter().enumerate() {
        let streamed = tracer.span_faults("sim.stream", op, || {
            stage
                .stream_batch(&current)
                .expect("inputs chain stage to stage")
        });
        current = tracer.span("tensor.interop", op, || {
            streamed
                .into_iter()
                .map(|ofm| {
                    let after = forward::apply_ops(network.ops_after(i), ofm)
                        .expect("zoo inter-stage ops apply");
                    ops::requant8(&after)
                })
                .collect()
        });
    }
    let references = tracer.span("tensor.reference", op, || {
        ifms.iter()
            .map(|ifm| {
                forward::forward(network, ifm, weights, ExecMode::Quantized)
                    .expect("the reference forward pass runs")
            })
            .collect()
    });
    Replay {
        ofms: current,
        references,
        executed_cycles_per_ifm: per_ifm.computing_cycles,
        macs_per_ifm: per_ifm.macs,
        programmings,
    }
}

/// The per-layer numbers of the traced pass: time and faults per op (program), per input (stream, interop,
/// reference), and the exact per-op counts.
fn set_sim_breakdown(
    metrics: &mut Metrics,
    tracer: &Tracer,
    ops: usize,
    ifms: usize,
    programmings: u64,
    macs_per_ifm: u64,
) {
    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (ops, ifms) = (ops as f64, ifms as f64);
    let program = get("sim.program");
    let stream = get("sim.stream");
    metrics.set("sim.program_ms_per_op", program.2 * 1e3 / ops, "ms");
    metrics.set("sim.program_faults_per_op", program.3 as f64 / ops, "count");
    metrics.set("sim.stream_ms_per_ifm", stream.2 * 1e3 / ifms, "ms");
    metrics.set("sim.stream_faults_per_op", stream.3 as f64 / ops, "count");
    metrics.set(
        "sim.programmings_per_op",
        programmings as f64 / ops,
        "count",
    );
    metrics.set("sim.macs_per_ifm", macs_per_ifm as f64, "count");
    metrics.set(
        "tensor.reference_ms_per_ifm",
        get("tensor.reference").2 * 1e3 / ifms,
        "ms",
    );
    metrics.set(
        "tensor.interop_ms_per_ifm",
        get("tensor.interop").2 * 1e3 / ifms,
        "ms",
    );
    metrics.set(
        "tensor.gen_ms_per_op",
        get("tensor.gen").2 * 1e3 / ops,
        "ms",
    );
}

/// Compares every output of one batch with its reference forward pass
/// (one checked op per input) and the batch's cycle counters with the
/// plans' prediction.
fn check_batch(
    tally: &mut Tally,
    index: usize,
    network: &Network,
    ifms: &[Tensor3<i64>],
    weights: &[Tensor4<i64>],
    run: &Result<vw_sdk::pim_sim::BatchRun<i64>, vw_sdk::pim_sim::SimError>,
) -> usize {
    let Ok(run) = run else {
        for _ in ifms {
            tally.check(false, || format!("sim-batch op {index} failed"));
        }
        return 0;
    };
    let cycles_ok = run.cycles_match() && run.ofms().len() == ifms.len();
    let mut verified = 0;
    for (b, ifm) in ifms.iter().enumerate() {
        let reference = forward::forward(network, ifm, weights, ExecMode::Quantized).ok();
        let ok = cycles_ok && reference.as_ref() == run.ofms().get(b);
        tally.check(ok, || {
            format!("sim-batch op {index} element {b} differs from forward()")
        });
        verified += usize::from(ok);
    }
    verified
}

pub fn run_batch(settings: &Settings) -> Outcome {
    let network = zoo::vgg13_sim();
    let jobs = settings.nproc();
    let seed = settings.seed;
    let executor = NetworkExecutor::new().with_mode(ExecMode::Quantized);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let batch_inputs = |index: usize| inputs(&network, op_seed(seed, index), BATCH);

    let (setup_s, (plans, banks, first_ifms, first)) =
        harness::median_setup(settings.reps(BATCH_SETUPS), || {
            let engine = PlanningEngine::new();
            let plans = vw_plans(&engine, &network);
            let banks = weights(&network, seed);
            let ifms = batch_inputs(0);
            let run = executor.execute_batch(&network, &plans, &ifms, &banks, jobs);
            (plans, banks, ifms, run)
        });
    metrics.set("setup_s", setup_s, "s");
    check_batch(&mut tally, 0, &network, &first_ifms, &banks, &first);
    if let Ok(run) = &first {
        metrics.set(
            "mapped_cycles",
            run.executed_cycles() as f64 / run.batch() as f64,
            "cycles",
        );
    }
    let warmup = settings.reps(BATCH_WARMUPS);
    for index in 1..warmup {
        let ifms = batch_inputs(index);
        let run = executor.execute_batch(&network, &plans, &ifms, &banks, jobs);
        check_batch(&mut tally, index, &network, &ifms, &banks, &run);
    }

    let window = settings.measure_for();
    let mut latencies = Latencies::default();
    let mut verified = 0;
    let started = Instant::now();
    let mut index = warmup;
    while started.elapsed() < window {
        let ifms = batch_inputs(index);
        let t = Instant::now();
        let run = executor.execute_batch(&network, &plans, &ifms, &banks, jobs);
        let elapsed = t.elapsed();
        latencies.push(elapsed);
        verified += check_batch(&mut tally, index, &network, &ifms, &banks, &run);
        index += 1;
    }
    // A failed input is no completed op.
    let ops_per_s =
        latencies.median_rate(BATCH) * verified as f64 / (latencies.len() * BATCH).max(1) as f64;
    let (p50, tail) = latencies.summary_ms(BATCH_TAIL);
    metrics.set("ops_per_s", ops_per_s, "1/s");
    metrics.set("latency_p50_ms", p50, "ms");
    metrics.set("latency_tail_ms", tail, "ms");

    if settings.trace {
        let traced = settings.traced_ops(BATCH_TRACED_PER_SECOND);
        let ops = warmup..warmup + traced;
        let replay_op = |tracer: &mut Tracer, index: usize| {
            let op = index as u64;
            let t = Instant::now();
            tracer.begin("sim.op", op, false);
            let ifms = tracer.span("tensor.gen", op, || batch_inputs(index));
            let replayed = replay(tracer, op, &network, &plans, ifms, &banks);
            tracer.end();
            (t.elapsed(), replayed)
        };
        // The same replay three times: once to warm the heap (the first
        // replay in a process takes page faults the later ones do not),
        // once without spans (the overhead baseline: the same ops on the
        // same single thread), and once with them.
        let mut off = Tracer::disabled();
        for index in ops.clone() {
            replay_op(&mut off, index);
        }
        let mut untraced_wall = Duration::ZERO;
        for index in ops.clone() {
            untraced_wall += replay_op(&mut off, index).0;
        }
        let mut tracer = Tracer::new();
        let mut wall = Duration::ZERO;
        let mut programmings = 0;
        let mut macs_per_ifm = 0;
        for index in ops {
            let untraced =
                executor.execute_batch(&network, &plans, &batch_inputs(index), &banks, jobs);
            let (elapsed, replayed) = replay_op(&mut tracer, index);
            wall += elapsed;
            let ok = untraced.as_ref().is_ok_and(|run| {
                run.ofms() == replayed.ofms.as_slice()
                    && replayed.ofms == replayed.references
                    && run.executed_cycles() == replayed.executed_cycles_per_ifm * BATCH as u64
            });
            tally.check(ok, || format!("sim-batch replay of op {index} diverged"));
            programmings += replayed.programmings;
            macs_per_ifm = replayed.macs_per_ifm;
        }
        set_sim_breakdown(
            &mut metrics,
            &tracer,
            traced,
            traced * BATCH,
            programmings,
            macs_per_ifm,
        );
        let ifms = (traced * BATCH) as f64;
        harness::set_trace_overhead(
            &mut metrics,
            ifms / untraced_wall.as_secs_f64(),
            ifms / wall.as_secs_f64(),
        );
        if let Err(e) = tracer.write(settings, "sim-batch") {
            eprintln!("vwbench: could not write the trace: {e}");
        }
    }
    Outcome {
        tally,
        metrics,
        threads: vec![("load_threads", 1), ("sim_jobs", jobs)],
        pooled_ms: latencies.ms(),
    }
}
