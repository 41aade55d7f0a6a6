//! Workload-independent machinery: the seeded generator, timing
//! statistics, `/proc` readers, the in-memory span recorder, telemetry
//! registry deltas and the metric table every run prints.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use vw_sdk::pim_report::json::JsonValue;
use vw_sdk::EngineStats;

/// Command-line settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke-test size: one set-up, one warm-up op, a fraction of a
    /// second of measurement. Used by the benchmark's own tests only.
    pub tiny: bool,
}

impl Settings {
    /// Load threads and client connections: one per core, so the load
    /// never oversubscribes the host it measures.
    pub fn nproc(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// How long the untraced measurement runs. In a traced run half of
    /// `--seconds` goes to the untraced pass (the overhead baseline) and
    /// the traced pass replays a fixed number of ops.
    pub fn measure_for(&self) -> Duration {
        let s = if self.tiny {
            0.3
        } else if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }

    /// Set-up repetitions or untimed warm-up ops: `normal`, or one at
    /// tiny size.
    pub fn reps(&self, normal: usize) -> usize {
        if self.tiny {
            1
        } else {
            normal
        }
    }

    /// Ops the traced pass replays: `per_second` for every second of
    /// `--seconds`, so the traced pass takes about as long as the
    /// untraced one while its counts stay a pure function of the seed.
    pub fn traced_ops(&self, per_second: f64) -> usize {
        if self.tiny {
            2
        } else {
            ((per_second * self.seconds).round() as usize).max(2)
        }
    }
}

/// SplitMix64: tiny, seedable, and identical on every platform, so a
/// seed names exactly one op stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for op `index` of the stream seeded by `seed`:
    /// every op is a pure function of `(seed, index)`, so any op can be
    /// regenerated (for the traced replay, or a correctness check)
    /// without replaying its predecessors.
    pub fn for_op(seed: u64, index: u64) -> Self {
        let mut mix = Self(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
        mix.next_u64();
        mix
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Linear-interpolation quantile of an ascending sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The tail percentile a workload reports, fixed per workload (and
/// named in `BENCHMARK.json`) so the metric means the same thing on
/// every run.
#[derive(Debug, Clone, Copy)]
pub enum Tail {
    P90,
    P99,
}

impl Tail {
    pub fn q(self) -> f64 {
        match self {
            Tail::P90 => 0.90,
            Tail::P99 => 0.99,
        }
    }
}

/// Consecutive chunks a window's rate is the median over.
const RATE_CHUNKS: usize = 10;

/// Client-side latencies of one measured window.
#[derive(Debug, Default)]
pub struct Latencies {
    seconds: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, elapsed: Duration) {
        self.seconds.push(elapsed.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.seconds.len()
    }

    /// Ops per busy second: the median over [`RATE_CHUNKS`] consecutive
    /// equal runs of calls of each run's rate, so a burst of host
    /// contention during part of the window does not move it.
    pub fn median_rate(&self, per_call: usize) -> f64 {
        let chunk = (self.seconds.len() / RATE_CHUNKS).max(1);
        let rates: Vec<f64> = self
            .seconds
            .chunks(chunk)
            .filter(|c| c.len() == chunk)
            .map(|c| (chunk * per_call) as f64 / c.iter().sum::<f64>())
            .collect();
        median(&rates)
    }

    /// Every latency of the window, in milliseconds.
    pub fn ms(&self) -> Vec<f64> {
        self.seconds.iter().map(|s| s * 1e3).collect()
    }

    /// `(p50_ms, tail_ms)`.
    pub fn summary_ms(&self, tail: Tail) -> (f64, f64) {
        let mut sorted = self.seconds.clone();
        sorted.sort_by(f64::total_cmp);
        (
            quantile(&sorted, 0.5) * 1e3,
            quantile(&sorted, tail.q()) * 1e3,
        )
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let kb = line.strip_prefix("VmHWM:")?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time, all CPUs together, in clock ticks since boot:
/// `(stolen, total)`, from the first line of `/proc/stat`. Stolen time
/// is time the hypervisor ran something else while a virtual CPU of
/// this machine had work.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .map(|rest| {
            rest.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of the machine's CPU time stolen between two [`cpu_ticks`]
/// readings.
pub fn steal_frac((stolen, total): (u64, u64), (stolen_after, total_after): (u64, u64)) -> f64 {
    stolen_after.saturating_sub(stolen) as f64 / total_after.saturating_sub(total).max(1) as f64
}

/// Minor page faults of this process so far (all threads), from
/// `/proc/self/stat` field 10.
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|field| field.parse().ok())
        .unwrap_or(0)
}

/// Spans a traced run writes out; the totals cover every span.
const TRACE_FILE_SPANS: usize = 50_000;

/// One recorded span: a named interval inside one op, with its parent
/// span (if any) so self time can be derived.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    faults: u64,
}

/// In-memory span recorder for the traced pass. Spans are opened and
/// closed from the benchmark's own code around calls into one layer's
/// public functions; nothing inside the program is instrumented. The
/// replayed ops of the sim and serve workloads open a root span
/// (`sim.op`, `serve.request`) that the layer spans nest in, so a root's
/// self time is the replay's own bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Option<u64>)>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing: the same replay code run through
    /// it gives the untraced rate the trace overhead is measured
    /// against.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Opens a span nested in the innermost open one. With `faults`
    /// the span also counts the minor page faults taken inside it (a
    /// `/proc` read at each end, so only for spans of a millisecond or
    /// more).
    pub fn begin(&mut self, name: &'static str, op: u64, faults: bool) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map(|&(index, _)| index);
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start: now,
            end: now,
            faults: 0,
        });
        self.open
            .push((self.spans.len() - 1, faults.then(minor_faults)));
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let (index, faults_before) = self.open.pop().expect("end() without begin()");
        let span = &mut self.spans[index];
        span.end = self.origin.elapsed();
        if let Some(before) = faults_before {
            span.faults = minor_faults().saturating_sub(before);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op, false);
        let result = f();
        self.end();
        result
    }

    /// Runs `f` inside a span that also counts minor page faults.
    pub fn span_faults<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op, true);
        let result = f();
        self.end();
        result
    }

    /// Per span name: `(count, total duration s, total self time s,
    /// total minor faults)`. Self time is a span's duration minus the
    /// time its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64, f64, u64)> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += (span.end - span.start).as_secs_f64();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64, u64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let duration = (span.end - span.start).as_secs_f64();
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += duration;
            entry.2 += duration - children;
            entry.3 += span.faults;
        }
        out
    }

    /// Writes the first [`TRACE_FILE_SPANS`] spans as JSON lines to
    /// `traces/<workload>-seed<n>.jsonl` beside this crate (a directory
    /// the repository ignores), so a run's trace can be inspected
    /// after it ends.
    pub fn write(&self, settings: &Settings, workload: &str) -> std::io::Result<()> {
        use std::io::Write;
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}-seed{}.jsonl", settings.seed));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().take(TRACE_FILE_SPANS).enumerate() {
            writeln!(
                out,
                "{{\"id\":{index},\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{},\"minflt\":{}}}",
                span.op,
                span.name,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.start.as_nanos(),
                (span.end - span.start).as_nanos(),
                span.faults
            )?;
        }
        out.flush()
    }
}

/// A snapshot of the process-wide telemetry registry, for deltas across
/// a measured window.
pub struct Registry(pim_telemetry::Snapshot);

impl Registry {
    pub fn snapshot() -> Self {
        Self(pim_telemetry::global().snapshot())
    }

    fn labels_match(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
        want.iter()
            .all(|(k, v)| have.iter().any(|(hk, hv)| hk == k && hv == v))
    }

    /// Sum of a counter family's series whose labels include `labels`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.0
            .counters
            .iter()
            .filter(|c| c.name == name && Self::labels_match(&c.labels, labels))
            .map(|c| c.value)
            .sum()
    }

    /// Counter delta `self - earlier`.
    pub fn counter_delta(&self, earlier: &Registry, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counter(name, labels)
            .saturating_sub(earlier.counter(name, labels))
    }

    /// Histogram delta `self - earlier`, merged over every series whose
    /// labels include `labels`.
    pub fn histogram_delta(
        &self,
        earlier: &Registry,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<pim_telemetry::HistogramSample> {
        let merged = |snap: &pim_telemetry::Snapshot| {
            let mut out: Option<pim_telemetry::HistogramSample> = None;
            for h in snap
                .histograms
                .iter()
                .filter(|h| h.name == name && Self::labels_match(&h.labels, labels))
            {
                match &mut out {
                    None => out = Some(h.clone()),
                    Some(acc) => {
                        for (a, b) in acc.counts.iter_mut().zip(&h.counts) {
                            *a += b;
                        }
                        acc.count += h.count;
                        acc.sum += h.sum;
                    }
                }
            }
            out
        };
        let mut now = merged(&self.0)?;
        if let Some(before) = merged(&earlier.0) {
            for (a, b) in now.counts.iter_mut().zip(&before.counts) {
                *a = a.saturating_sub(*b);
            }
            now.count = now.count.saturating_sub(before.count);
            now.sum -= before.sum;
        }
        Some(now)
    }
}

/// The `cost` breakdown of a measured window, from deltas of the
/// search telemetry between two registry snapshots.
pub fn set_search_breakdown(metrics: &mut Metrics, before: &Registry, after: &Registry) {
    let candidates = |outcome| {
        after.counter_delta(
            before,
            "pim_search_candidates_total",
            &[("outcome", outcome)],
        )
    };
    let (evaluated, pruned) = (candidates("evaluated"), candidates("pruned"));
    metrics.set(
        "cost.search_misses",
        after.counter_delta(before, "pim_search_cache_misses_total", &[]) as f64,
        "count",
    );
    metrics.set(
        "cost.search_busy_ms",
        after
            .histogram_delta(before, "pim_search_seconds", &[])
            .map_or(0.0, |h| h.sum * 1e3),
        "ms",
    );
    metrics.set("cost.candidates_evaluated", evaluated as f64, "count");
    metrics.set(
        "cost.pruned_frac",
        pruned as f64 / (evaluated + pruned).max(1) as f64,
        "ratio",
    );
    metrics.set(
        "cost.coalesced",
        after.counter_delta(before, "pim_plan_coalesced_total", &[]) as f64,
        "count",
    );
}

/// The `core` plan-cache numbers of a measured window, from two
/// `stats()` readings of the engine (or server state) that answered it.
pub fn set_cache_breakdown(metrics: &mut Metrics, before: &EngineStats, after: &EngineStats) {
    let hits = after.plan_hits - before.plan_hits;
    let misses = after.plan_misses - before.plan_misses;
    metrics.set(
        "core.plan_hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    metrics.set("core.plan_entries", after.plan_entries as f64, "count");
}

/// Pass/fail tally of checked ops. Every check that fails counts as one
/// failed op; the counts are reported against ops attempted.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
}

impl Tally {
    /// Records one checked op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Marks an already-counted op as failed (a check made after the
    /// timed window). Failures are reported on stderr as they happen,
    /// the first in full.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            eprintln!("vwbench: check failed: {what}");
            self.first_failure = Some(what);
        }
    }
}

/// Unit and value of every reported metric, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn to_json(&self, names: &[(&str, &'static str)]) -> JsonValue {
        JsonValue::object(names.iter().map(|&(name, unit)| {
            let value = self.get(name).unwrap_or(0.0);
            (
                name,
                JsonValue::object([
                    ("value", JsonValue::from(value)),
                    ("unit", JsonValue::from(unit)),
                ]),
            )
        }))
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("mapped_cycles", "cycles"),
    ("peak_rss_mb", "MiB"),
];

/// Endpoints the serve breakdown reports per metric.
pub const ENDPOINTS: [&str; 4] = ["plan", "sweep", "deploy", "simulate"];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cost.search_misses", "count"),
    ("cost.search_busy_ms", "ms"),
    ("cost.candidates_evaluated", "count"),
    ("cost.pruned_frac", "ratio"),
    ("cost.coalesced", "count"),
    ("core.plan_hit_frac", "ratio"),
    ("core.plan_entries", "count"),
    ("core.self_ms_per_op", "ms"),
    ("sim.program_ms_per_op", "ms"),
    ("sim.program_faults_per_op", "count"),
    ("sim.stream_ms_per_ifm", "ms"),
    ("sim.stream_faults_per_op", "count"),
    ("sim.programmings_per_op", "count"),
    ("sim.macs_per_ifm", "count"),
    ("tensor.reference_ms_per_ifm", "ms"),
    ("tensor.interop_ms_per_ifm", "ms"),
    ("tensor.gen_ms_per_op", "ms"),
    ("serve.server_p50_ms.plan", "ms"),
    ("serve.server_p50_ms.sweep", "ms"),
    ("serve.server_p50_ms.deploy", "ms"),
    ("serve.server_p50_ms.simulate", "ms"),
    ("serve.server_p99_ms.plan", "ms"),
    ("serve.server_p99_ms.sweep", "ms"),
    ("serve.server_p99_ms.deploy", "ms"),
    ("serve.server_p99_ms.simulate", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.parse_us_per_req", "us"),
    ("serve.handler_ms_per_req.plan", "ms"),
    ("serve.handler_ms_per_req.sweep", "ms"),
    ("serve.handler_ms_per_req.deploy", "ms"),
    ("serve.handler_ms_per_req.simulate", "ms"),
    ("serve.render_us_per_req", "us"),
    ("serve.non2xx", "count"),
    ("serve.sheds", "count"),
    ("serve.conn_timeouts", "count"),
    ("trace.ops_per_s_untraced", "1/s"),
    ("trace.ops_per_s_traced", "1/s"),
    ("trace.overhead_frac", "ratio"),
];

/// Records the trace-overhead triple: untraced vs traced `ops_per_s`
/// over the same ops of the stream.
pub fn set_trace_overhead(metrics: &mut Metrics, untraced: f64, traced: f64) {
    metrics.set("trace.ops_per_s_untraced", untraced, "1/s");
    metrics.set("trace.ops_per_s_traced", traced, "1/s");
    let overhead = if traced > 0.0 {
        untraced / traced - 1.0
    } else {
        0.0
    };
    metrics.set("trace.overhead_frac", overhead, "ratio");
}

/// Runs `setup` `n` times and returns the median wall time in seconds
/// together with the last set-up's product.
pub fn median_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        // Drop the previous product first, so every repetition starts
        // from the same heap state as far as this process can arrange.
        drop(last.take());
        let started = Instant::now();
        let product = setup();
        times.push(started.elapsed().as_secs_f64());
        last = Some(product);
    }
    (median(&times), last.expect("at least one set-up ran"))
}
