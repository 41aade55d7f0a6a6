//! `vwbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! vwbench --workload <plan-dse|sim-batch|serve-mixed>
//!         --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Each invocation runs one workload, checks every op's output, and
//! prints two JSON lines on stdout: a stamp with the seed, host and
//! resolved thread counts, then the result `{"correct", "attempted",
//! "failed", "metrics"}`. `--trace 0` reports the end-to-end metrics,
//! measured in several fresh processes run one after another (see
//! [`sampled_processes`]); `--trace 1` reports the per-layer breakdown
//! of one process. See `README.md` beside this crate for the design and
//! the metric definitions.

#![forbid(unsafe_code)]

mod harness;
mod plan;
mod serve;
mod sim;

use harness::{Metrics, Settings, Tail, Tally, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use vw_sdk::pim_arch::PimArray;
use vw_sdk::pim_mapping::MappingAlgorithm;
use vw_sdk::pim_nets::zoo;
use vw_sdk::pim_report::json::JsonValue;

/// The workloads, by the names `BENCHMARK.json` lists.
const WORKLOADS: [&str; 3] = ["plan-dse", "sim-batch", "serve-mixed"];

/// What a workload hands back: its checked-op tally, its metrics, and
/// the thread and connection counts it resolved (for the stamp).
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    pub threads: Vec<(&'static str, usize)>,
    /// Timed latencies (ms) an untraced run pools over its processes to
    /// take the tail from; empty where each process has enough samples
    /// for its own tail.
    pub pooled_ms: Vec<f64>,
}

/// Fresh processes an untraced run measures, one after another, each
/// for an equal share of `--seconds`.
///
/// Whether glibc keeps a freed large buffer for reuse or returns it to
/// the OS is decided early in a process and then holds for its whole
/// life; the two regimes differ by up to 2× in call time (see
/// `README.md`). A single process therefore measures one coin flip.
/// Averaging over many fresh processes measures the program as it
/// ships, churn included, with a spread that shrinks as the count
/// grows. The simulator workload, where the regime decides the most,
/// gets the most processes.
fn processes(workload: &str) -> usize {
    match workload {
        "sim-batch" => 12,
        _ => 8,
    }
}

/// A sampled process counts as disturbed when the hypervisor stole more
/// than this share of the machine's CPU time while it ran. On the 2-vCPU
/// host the benchmark was built on, processes of a quiet host saw
/// 0–0.7%; at 1.5% `serve-mixed`'s p99 was already 20% higher, and at
/// 5–20% two to five times higher.
const STEAL_LIMIT: f64 = 0.01;

/// How long an untraced run may spend, beyond `--seconds`, waiting for
/// the host to go quiet and replacing disturbed processes.
const QUIET_BUDGET: Duration = Duration::from_secs(20);

/// Share of the machine's CPU time the hypervisor stole during a
/// one-second probe that keeps every CPU busy (stolen time accrues only
/// while a virtual CPU has work).
fn probe_steal(nproc: usize) -> f64 {
    let before = harness::cpu_ticks();
    let until = Instant::now() + Duration::from_secs(1);
    std::thread::scope(|scope| {
        for _ in 0..nproc {
            scope.spawn(|| {
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
    harness::steal_frac(before, harness::cpu_ticks())
}

/// Probes until the hypervisor steals at most [`STEAL_LIMIT`] or
/// `deadline` passes. Returns the probes made.
fn await_quiet(nproc: usize, deadline: Instant) -> usize {
    let mut probes = 1;
    while probe_steal(nproc) > STEAL_LIMIT && Instant::now() < deadline {
        probes += 1;
    }
    probes
}

/// The tail percentile an untraced run takes over the pooled latencies
/// of all its processes, for workloads whose single process times too
/// few ops for a tail of its own.
fn pooled_tail(workload: &str) -> Option<Tail> {
    (workload == "sim-batch").then_some(sim::BATCH_TAIL)
}

fn usage() -> String {
    format!(
        "usage: vwbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
        WORKLOADS.join("|")
    )
}

/// Parsed command line. `--process <i>` is internal: it makes this
/// invocation measure one sampled process of an untraced run.
struct Args {
    workload: String,
    settings: Settings,
    process: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut process = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => tiny = true,
            "--process" => process = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        settings: Settings {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            tiny,
        },
        process,
    })
}

/// The paper's Table I totals at 512×512 (im2col, SDK, VW-SDK): the
/// cycle model must reproduce them exactly before anything is timed.
fn check_table1(tally: &mut Tally) {
    let array = PimArray::new(512, 512).expect("positive array");
    let planner = vw_sdk::Planner::new(array);
    for (network, expected) in [
        (zoo::resnet18_table1(), [20_041, 7_240, 4_294]),
        (zoo::vgg13(), [243_736, 114_697, 77_102]),
    ] {
        let got: Vec<Option<u64>> = match planner.plan_network(&network) {
            Ok(report) => MappingAlgorithm::paper_trio()
                .iter()
                .map(|&alg| report.total_cycles(alg))
                .collect(),
            Err(_) => vec![None; 3],
        };
        let want: Vec<Option<u64>> = expected.iter().map(|&c| Some(c)).collect();
        tally.check(got == want, || {
            format!(
                "Table I anchor {}: got {got:?}, want {want:?}",
                network.name()
            )
        });
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or("unknown".to_string(), |out| {
            String::from_utf8_lossy(&out.stdout).trim().to_string()
        })
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one ("unknown" in an exported tree).
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?.lines().find_map(|line| {
                    let (rev, name) = line.split_once(' ')?;
                    (name == reference).then(|| rev.to_string())
                })
            })
            .unwrap_or_else(|| "unknown".to_string()),
        None => head.to_string(),
    }
}

/// Runs the workload in this process, Table I anchors first.
fn run_here(workload: &str, settings: &Settings) -> Outcome {
    let mut anchors = Tally::default();
    check_table1(&mut anchors);
    let mut outcome = match workload {
        "plan-dse" => plan::run(settings),
        "sim-batch" => sim::run_batch(settings),
        "serve-mixed" => serve::run(settings),
        _ => unreachable!("validated by parse_args"),
    };
    outcome.tally.attempted += anchors.attempted;
    outcome.tally.failed += anchors.failed;
    if !settings.trace {
        outcome
            .metrics
            .set("peak_rss_mb", harness::peak_rss_mb(), "MiB");
    }
    outcome
}

/// One sampled process's report, as its parent reads it back.
struct Sample {
    /// The thread and connection counts the process resolved.
    threads: Vec<(String, JsonValue)>,
    /// Share of the machine's CPU time stolen while the process ran.
    steal_frac: f64,
    pooled_ms: Vec<f64>,
    result: JsonValue,
}

impl Sample {
    fn count(&self, key: &str) -> u64 {
        self.result
            .get(key)
            .and_then(JsonValue::as_u64)
            .unwrap_or(0)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
    }
}

/// Runs sampled process `index` (this program with `--process`, on the
/// run's own seed, so every process measures the op stream a traced run
/// with that seed replays) and reads back its stamp and its result.
fn run_process(
    workload: &str,
    settings: &Settings,
    index: u64,
    seconds: f64,
) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &settings.seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--process", &index.to_string()]);
    if settings.tiny {
        command.arg("--tiny");
    }
    let out = command.output().map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!(
            "sampled process {index} exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    let mut lines = stdout.lines().filter(|l| !l.is_empty());
    let mut next_json = |what: &str| {
        lines
            .next()
            .and_then(|line| JsonValue::parse(line).ok())
            .ok_or(format!("sampled process {index} printed no {what}"))
    };
    let stamp = next_json("stamp")?;
    let result = next_json("result")?;
    let stamp = stamp.get("stamp");
    let mut threads = stamp
        .and_then(|s| s.get("host"))
        .and_then(JsonValue::as_object)
        .map(<[_]>::to_vec)
        .unwrap_or_default();
    let steal_frac = threads
        .iter()
        .find(|(name, _)| name == "steal_frac")
        .and_then(|(_, v)| v.as_f64())
        .unwrap_or(0.0);
    threads.retain(|(name, _)| name != "steal_frac");
    let pooled_ms = stamp
        .and_then(|s| s.get("pooled_ms"))
        .and_then(JsonValue::as_array)
        .map(|v| v.iter().filter_map(JsonValue::as_f64).collect())
        .unwrap_or_default();
    Ok(Sample {
        threads,
        steal_frac,
        pooled_ms,
        result,
    })
}

/// The untraced measurement: `n` fresh processes one after another,
/// aggregated. The run first waits for a quiet host ([`await_quiet`]).
/// A process during which the hypervisor stole more than
/// [`STEAL_LIMIT`] of the machine's CPU time measured the host rather
/// than the program: while [`QUIET_BUDGET`] lasts, the run waits for
/// the host to go quiet again and replaces it by a new process (its
/// checks still count). Set-up time and peak memory are medians over
/// the kept processes. Rates and latencies are trimmed means over them:
/// a mean is smooth in the share of processes that landed in each
/// allocator regime, where a median jumps between the regimes, and
/// dropping the highest and lowest quarter keeps a few processes caught
/// by a host stall from moving the result. A workload with a
/// [`pooled_tail`] takes its tail from every kept process's latencies
/// together instead.
fn sampled_processes(
    workload: &str,
    settings: &Settings,
) -> (Tally, Metrics, Vec<(String, JsonValue)>) {
    let processes = if settings.tiny {
        2
    } else {
        processes(workload)
    };
    let seconds = settings.seconds / processes as f64;
    let deadline = Instant::now() + QUIET_BUDGET + Duration::from_secs_f64(settings.seconds);
    let mut probes = if settings.tiny {
        0
    } else {
        await_quiet(settings.nproc(), deadline)
    };
    let mut tally = Tally::default();
    let mut threads = Vec::new();
    let mut kept: Vec<Sample> = Vec::new();
    let mut steal = Vec::new();
    let mut replaced = 0usize;
    let mut index = 0;
    while kept.len() < processes {
        let sample = run_process(workload, settings, index, seconds);
        index += 1;
        let sample = match sample {
            Ok(sample) => sample,
            Err(message) => {
                tally.check(false, || message);
                if index as usize >= 2 * processes {
                    break;
                }
                continue;
            }
        };
        tally.attempted += sample.count("attempted");
        tally.failed += sample.count("failed");
        steal.push(JsonValue::from(sample.steal_frac));
        eprintln!(
            "vwbench: process {}: p50 {:?} ms, tail {:?} ms, steal {:.4}",
            index - 1,
            sample.metric("latency_p50_ms"),
            sample.metric("latency_tail_ms"),
            sample.steal_frac
        );
        if sample.steal_frac > STEAL_LIMIT && Instant::now() < deadline {
            replaced += 1;
            probes += await_quiet(settings.nproc(), deadline);
            continue;
        }
        threads = sample.threads.clone();
        kept.push(sample);
    }
    let trimmed_mean = |v: &[f64]| {
        let mut sorted = v.to_vec();
        sorted.sort_by(f64::total_cmp);
        let cut = sorted.len() / 4;
        let kept = &sorted[cut..sorted.len() - cut];
        kept.iter().sum::<f64>() / kept.len().max(1) as f64
    };
    let mut pooled: Vec<f64> = kept.iter().flat_map(|s| s.pooled_ms.clone()).collect();
    pooled.sort_by(f64::total_cmp);
    let mut metrics = Metrics::default();
    for (name, unit) in END_TO_END {
        let v: Vec<f64> = kept.iter().filter_map(|s| s.metric(name)).collect();
        let value = match (*name, pooled_tail(workload)) {
            ("setup_s" | "peak_rss_mb", _) => harness::median(&v),
            ("latency_tail_ms", Some(tail)) => harness::quantile(&pooled, tail.q()),
            ("mapped_cycles", _) => {
                // Modelled cycles are a pure function of the plans: every
                // process must report the same number.
                let same = v.windows(2).all(|w| w[0] == w[1]);
                tally.check(same && v.len() == processes, || {
                    format!("mapped_cycles differ across processes: {v:?}")
                });
                v.first().copied().unwrap_or(0.0)
            }
            _ => trimmed_mean(&v),
        };
        metrics.set(*name, value, unit);
    }
    threads.push(("processes".to_string(), JsonValue::from(kept.len())));
    threads.push(("processes_replaced".to_string(), JsonValue::from(replaced)));
    threads.push(("steal_probes".to_string(), JsonValue::from(probes)));
    threads.push(("steal_frac".to_string(), JsonValue::Array(steal)));
    (tally, metrics, threads)
}

fn main() -> ExitCode {
    let Args {
        workload,
        settings,
        process,
    } = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("vwbench: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut pooled_ms = Vec::new();
    let (tally, metrics, mut resolved) = if settings.trace || process.is_some() {
        let ticks = harness::cpu_ticks();
        let outcome = run_here(&workload, &settings);
        let steal_frac = harness::steal_frac(ticks, harness::cpu_ticks());
        let mut threads: Vec<(String, JsonValue)> = outcome
            .threads
            .iter()
            .map(|&(name, count)| (name.to_string(), JsonValue::from(count)))
            .collect();
        threads.push(("steal_frac".to_string(), JsonValue::from(steal_frac)));
        if process.is_some() {
            pooled_ms = outcome.pooled_ms;
        }
        (outcome.tally, outcome.metrics, threads)
    } else {
        sampled_processes(&workload, &settings)
    };
    // A sampled process reports only what it resolved; the run that
    // started it stamps the host.
    let mut host = Vec::new();
    if process.is_none() {
        host.push(("nproc".to_string(), JsonValue::from(settings.nproc())));
        host.push(("rustc".to_string(), JsonValue::from(rustc_version())));
        host.push(("git_rev".to_string(), JsonValue::from(git_rev())));
    }
    host.append(&mut resolved);
    let mut stamp = vec![
        ("workload", JsonValue::from(workload.as_str())),
        ("seed", JsonValue::from(settings.seed)),
        ("seconds", JsonValue::from(settings.seconds)),
        ("trace", JsonValue::from(settings.trace)),
        ("host", JsonValue::Object(host)),
    ];
    if !pooled_ms.is_empty() {
        stamp.push((
            "pooled_ms",
            JsonValue::array(pooled_ms.into_iter().map(JsonValue::from)),
        ));
    }
    let stamp = JsonValue::object(stamp);
    println!("{}", JsonValue::object([("stamp", stamp)]).render());
    let names = if settings.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    let result = JsonValue::object([
        ("correct", JsonValue::from(tally.failed == 0)),
        ("attempted", JsonValue::from(tally.attempted)),
        ("failed", JsonValue::from(tally.failed)),
        ("metrics", metrics.to_json(names)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
