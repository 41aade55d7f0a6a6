//! `serve-mixed`: an in-process `PlanServer` with the default
//! `ServeConfig`, driven by one keep-alive connection per core. Each
//! connection sends its next request only after reading the previous
//! reply (a closed loop). The request mix by count:
//!
//! * ~70% `POST /v1/plan` with zoo names on mixed arrays (cache hits);
//! * ~15% `POST /v1/plan` with inline seeded specs from a pool of 256
//!   (cold shapes on first sight, whose searches go through the search
//!   cache shared by every shard);
//! * ~8% `POST /v1/sweep` (two networks × two arrays);
//! * ~5% `POST /v1/deploy`;
//! * ~2% `POST /v1/simulate` on `tiny`, so simulation holds a worker for
//!   well under a third of the server's busy time. (LeNet-5, about 20×
//!   the cost, put the p99 on the edge between a few slow simulations
//!   and everything else, where it jumped 2.4–10 ms between runs.)
//!
//! It is the only workload that exercises `serve` and `netpoll`:
//! request parsing, the event loop, the handlers, JSON rendering and
//! socket writes. The traced pass replays the same request bytes
//! in-process through `http::RequestParser`, `handlers::*`, JSON
//! serialisation and `http::render_json_response`.

use crate::harness::{self, Latencies, Metrics, Registry, Rng, Settings, Tail, Tally, Tracer};
use crate::plan::{self, References, ARRAYS};
use crate::Outcome;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use vw_sdk::pim_arch::PimArray;
use vw_sdk::pim_nets::{zoo, NetworkSpec};
use vw_sdk::pim_report::json::JsonValue;
use vw_sdk_serve::http::{self, ParseStatus, RequestParser};
use vw_sdk_serve::{handlers, PlanServer, ServeConfig, ServerHandle, ServerState};

/// Zoo names the plan requests draw from.
const ZOO_NAMES: [&str; 11] = [
    "vgg13",
    "vgg16",
    "resnet18",
    "resnet18-full",
    "alexnet",
    "lenet5",
    "mobilenet",
    "dilated",
    "tiny",
    "vgg13-sim",
    "resnet18-sim",
];
/// Networks sweeps and deploys draw from.
const SWEEP_NAMES: [&str; 6] = [
    "vgg13",
    "resnet18",
    "alexnet",
    "lenet5",
    "tiny",
    "mobilenet",
];
/// Distinct inline specs a process's `/v1/plan` spec requests draw from.
const SPEC_POOL: usize = 256;
/// Untimed requests before measuring (all connections together).
const WARMUP_REQUESTS: usize = 600;
const SETUPS: usize = 7;
/// Every this-many-th request of the timed window is replayed through
/// the handlers in-process afterwards and must answer the same bytes.
const SAMPLE_EVERY: usize = 64;
pub const TAIL: Tail = Tail::P99;
/// Traced-pass length, in requests per second of `--seconds`.
const TRACED_PER_SECOND: f64 = 500.0;

/// What a request asks, so its response can be checked.
#[derive(Debug, Clone)]
enum Kind {
    ZooPlan { name: &'static str, array: PimArray },
    SpecPlan { name: String, layers: usize },
    Sweep { reports: usize },
    Deploy { network: &'static str },
    Simulate,
}

#[derive(Debug, Clone)]
struct Request {
    endpoint: &'static str,
    body: String,
    kind: Kind,
}

impl Request {
    fn path(&self) -> String {
        format!("/v1/{}", self.endpoint)
    }

    fn bytes(&self) -> Vec<u8> {
        format!(
            "POST {} HTTP/1.1\r\nhost: vwbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{}",
            self.path(),
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

fn array_text(array: PimArray) -> String {
    format!("{}x{}", array.rows(), array.cols())
}

/// Request `index` of the stream. Request 0 is always a sweep of the
/// whole zoo over the five arrays — a client's opening question, cold
/// on a new server — so set-up time measures the same multi-millisecond
/// request for every seed.
fn request_at(seed: u64, index: usize) -> Request {
    let sweep = |networks: JsonValue, arrays: Vec<PimArray>, reports: usize| Request {
        endpoint: "sweep",
        body: JsonValue::object([
            ("networks", networks),
            (
                "arrays",
                JsonValue::array(arrays.into_iter().map(|a| JsonValue::from(array_text(a)))),
            ),
        ])
        .render(),
        kind: Kind::Sweep { reports },
    };
    let zoo_plan = |name: &'static str, array: PimArray| Request {
        endpoint: "plan",
        body: JsonValue::object([
            ("network", JsonValue::from(name)),
            ("array", JsonValue::from(array_text(array))),
        ])
        .render(),
        kind: Kind::ZooPlan { name, array },
    };
    if index == 0 {
        let arrays: Vec<PimArray> = (0..ARRAYS.len()).map(plan::array).collect();
        return sweep(
            JsonValue::from("all"),
            arrays,
            zoo::all().len() * ARRAYS.len(),
        );
    }
    let mut rng = Rng::for_op(seed, index as u64);
    let array = plan::array(rng.below(ARRAYS.len()));
    let u = rng.unit();
    if u < 0.70 {
        zoo_plan(ZOO_NAMES[rng.below(ZOO_NAMES.len())], array)
    } else if u < 0.85 {
        // One of a fixed pool of seeded specs: each is cold on first
        // sight, and a repeat on the other shard is answered by the
        // shared search cache. A bounded pool keeps the servers' caches,
        // and so peak memory, independent of how many requests a run
        // completes.
        let member = rng.below(SPEC_POOL) as u64;
        let mut spec_rng = Rng::for_op(seed ^ 0x5bec_5bec_5bec_5bec, member);
        let network = plan::synthetic_network(&mut spec_rng, format!("spec-{seed}-{member}"));
        let array = plan::array(spec_rng.below(ARRAYS.len()));
        Request {
            endpoint: "plan",
            body: JsonValue::object([
                ("spec", NetworkSpec::from_network(&network).to_json()),
                ("array", JsonValue::from(array_text(array))),
            ])
            .render(),
            kind: Kind::SpecPlan {
                name: network.name().to_string(),
                layers: network.len(),
            },
        }
    } else if u < 0.93 {
        let first = rng.below(SWEEP_NAMES.len());
        let second = (first + 1 + rng.below(SWEEP_NAMES.len() - 1)) % SWEEP_NAMES.len();
        let other = plan::array(rng.below(ARRAYS.len()));
        let names = [SWEEP_NAMES[first], SWEEP_NAMES[second]];
        sweep(
            JsonValue::array(names.map(JsonValue::from)),
            vec![array, other],
            4,
        )
    } else if u < 0.98 {
        let network = *rng.pick(&SWEEP_NAMES);
        Request {
            endpoint: "deploy",
            body: JsonValue::object([
                ("network", JsonValue::from(network)),
                ("array", JsonValue::from(array_text(array))),
                ("arrays", JsonValue::from(*rng.pick(&[32usize, 64, 128]))),
            ])
            .render(),
            kind: Kind::Deploy { network },
        }
    } else {
        Request {
            endpoint: "simulate",
            body: JsonValue::object([
                ("network", JsonValue::from("tiny")),
                ("seed", JsonValue::from(rng.next_u64() >> 12)),
            ])
            .render(),
            kind: Kind::Simulate,
        }
    }
}

fn vw_total(body: &JsonValue) -> Option<u64> {
    body.get("totals")?.get("VW-SDK")?.as_u64()
}

/// VW-SDK cycles summed over the distinct (network, array) reports of a
/// sweep response.
fn sweep_cycles(body: &[u8]) -> Option<u64> {
    let body = JsonValue::parse(std::str::from_utf8(body).ok()?).ok()?;
    let mut pairs = BTreeMap::new();
    for report in body.get("reports")?.as_array()? {
        let network = report.get("network")?.as_str()?;
        let array = report.get("array")?.as_str()?;
        pairs.insert(format!("{network}@{array}"), vw_total(report)?);
    }
    Some(pairs.values().sum())
}

/// Checks one 2xx response body against what its request asked.
fn check_body(refs: &References, request: &Request, body: &JsonValue) -> bool {
    match &request.kind {
        Kind::ZooPlan { name, array } => {
            let totals = body.get("totals");
            let got = ["im2col", "SDK", "VW-SDK"].map(|label| totals?.get(label)?.as_u64());
            zoo::by_name(name).is_some_and(|network| {
                refs.get(&(network.name().to_string(), *array)) == Some(&got)
            })
        }
        Kind::SpecPlan { name, layers } => {
            body.get("network").and_then(JsonValue::as_str) == Some(name.as_str())
                && body
                    .get("layers")
                    .and_then(JsonValue::as_array)
                    .map(<[_]>::len)
                    == Some(*layers)
                && vw_total(body).is_some_and(|c| c > 0)
        }
        Kind::Sweep { reports } => body
            .get("reports")
            .and_then(JsonValue::as_array)
            .is_some_and(|r| r.len() == *reports && r.iter().all(|r| vw_total(r).is_some())),
        Kind::Deploy { network } => {
            let want = zoo::by_name(network).map(|n| n.name().to_string());
            body.get("network").and_then(JsonValue::as_str) == want.as_deref()
        }
        Kind::Simulate => {
            body.get("bit_exact").and_then(JsonValue::as_bool) == Some(true)
                && body.get("cycles_match").and_then(JsonValue::as_bool) == Some(true)
        }
    }
}

/// A keep-alive client connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request and reads its response: `(status, body)`.
    fn exchange(&mut self, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let broken =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.stream.write_all(raw)?;
        let mut chunk = [0u8; 64 * 1024];
        let header_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(broken("connection closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..header_end]).map_err(|_| broken("head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| broken("status line"))?;
        let length: usize = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| broken("content-length"))?;
        while self.buf.len() < header_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(broken("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[header_end..header_end + length].to_vec();
        self.buf.drain(..header_end + length);
        Ok((status, body))
    }
}

/// One request's outcome as a connection saw it.
struct Seen {
    index: usize,
    latency: Duration,
    /// Completion time, from the start of the run's load phase.
    done: Duration,
    ok: bool,
    /// The response body, kept for the sampled byte-identity check.
    body: Option<Vec<u8>>,
    detail: String,
}

impl Seen {
    fn failed(index: usize, detail: String, origin: Instant) -> Self {
        Self {
            index,
            latency: Duration::ZERO,
            done: origin.elapsed(),
            ok: false,
            body: None,
            detail,
        }
    }
}

fn send(
    conn: &mut Conn,
    refs: &References,
    request: &Request,
    index: usize,
    keep: bool,
    origin: Instant,
) -> Seen {
    let t = Instant::now();
    let result = conn.exchange(&request.bytes());
    let latency = t.elapsed();
    let done = origin.elapsed();
    let (ok, body, detail) = match result {
        Ok((status, body)) => {
            let parsed = std::str::from_utf8(&body)
                .ok()
                .and_then(|text| JsonValue::parse(text).ok());
            let ok = (200..300).contains(&status)
                && parsed
                    .as_ref()
                    .is_some_and(|json| check_body(refs, request, json));
            let detail = format!("{} {} -> {status}", request.path(), request.body);
            (ok, keep.then_some(body), detail)
        }
        Err(e) => (
            false,
            None,
            format!("{} {}: {e}", request.path(), request.body),
        ),
    };
    Seen {
        index,
        latency,
        done,
        ok,
        body,
        detail,
    }
}

fn start_server() -> std::io::Result<ServerHandle> {
    Ok(PlanServer::bind_with("127.0.0.1:0", ServeConfig::default())?.spawn())
}

fn addr(handle: &ServerHandle) -> SocketAddr {
    handle.addr().expect("a bound server has an address")
}

/// Strips the engine-state `cache` member, which depends on what the
/// answering engine has seen before, from a plan or sweep response.
fn without_cache(text: &str) -> Option<String> {
    let mut value = JsonValue::parse(text).ok()?;
    if let JsonValue::Object(members) = &mut value {
        members.retain(|(key, _)| key != "cache");
    }
    Some(value.render())
}

fn call_handler(
    state: &ServerState,
    request: &Request,
    body: &[u8],
) -> Result<JsonValue, (u16, String)> {
    match request.endpoint {
        "plan" => handlers::plan(state, 0, body),
        "sweep" => handlers::sweep(state, 0, body),
        "deploy" => handlers::deploy(state, 0, body),
        _ => handlers::simulate(state, 0, body),
    }
}

pub fn run(settings: &Settings) -> Outcome {
    let seed = settings.seed;
    let conns = settings.nproc();
    let refs = plan::zoo_references();
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    // Set-up: bind + spawn, connect, first response. All but the last
    // server are shut down again.
    let first = request_at(seed, 0);
    let mut setup_times = Vec::new();
    let mut mapped_cycles = None;
    let mut server = None;
    for _ in 0..settings.reps(SETUPS) {
        if let Some(previous) = server.take() {
            ServerHandle::shutdown(previous);
        }
        let t = Instant::now();
        let handle = start_server().expect("binding a loopback port");
        let seen =
            Conn::connect(addr(&handle)).map(|mut conn| send(&mut conn, &refs, &first, 0, true, t));
        setup_times.push(t.elapsed().as_secs_f64());
        match seen {
            Ok(seen) => {
                tally.check(seen.ok, || seen.detail.clone());
                mapped_cycles = seen.body.as_deref().and_then(sweep_cycles);
            }
            Err(e) => tally.check(false, || format!("connect: {e}")),
        }
        server = Some(handle);
    }
    let server = server.expect("at least one set-up ran");
    metrics.set("setup_s", harness::median(&setup_times), "s");
    let state = server.state();
    let address = addr(&server);

    // Warm-up then the timed window, on `conns` closed-loop connections.
    // Connection `c` sends requests c, c + conns, c + 2·conns, ...
    let warmup = settings.reps(WARMUP_REQUESTS).max(conns);
    let window = settings.measure_for();
    let barrier = Barrier::new(conns + 1);
    let mut registry_window = None;
    let origin = Instant::now();
    let (warm_seen, timed_seen, span) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let (barrier, refs) = (&barrier, &refs);
                scope.spawn(move || {
                    // A connection that cannot be made fails every
                    // request it would have sent, but still meets the
                    // barriers, so the run ends instead of hanging.
                    let mut conn = Conn::connect(address).map_err(|e| e.to_string());
                    let mut exchange = |index: usize, keep: bool| {
                        let request = request_at(seed, index);
                        match &mut conn {
                            Ok(conn) => send(conn, refs, &request, index, keep, origin),
                            Err(e) => Seen::failed(index, format!("connect: {e}"), origin),
                        }
                    };
                    let mut warm = Vec::new();
                    // Request 0 was the set-up's.
                    let mut index = if c == 0 { conns } else { c };
                    while index < warmup {
                        warm.push(exchange(index, false));
                        index += conns;
                    }
                    barrier.wait();
                    barrier.wait();
                    let started = Instant::now();
                    let mut timed = Vec::new();
                    while started.elapsed() < window {
                        timed.push(exchange(index, index % SAMPLE_EVERY == 0));
                        index += conns;
                    }
                    barrier.wait();
                    (warm, timed)
                })
            })
            .collect();
        // Warm-up done everywhere → snapshot → start → all finished.
        barrier.wait();
        let before = Registry::snapshot();
        let stats_before = state.stats();
        barrier.wait();
        let start = origin.elapsed();
        barrier.wait();
        let end = origin.elapsed();
        registry_window = Some((before, Registry::snapshot(), stats_before, state.stats()));
        let mut warm_seen = Vec::new();
        let mut timed_seen = Vec::new();
        for worker in workers {
            let (warm, timed) = worker.join().expect("client thread panicked");
            warm_seen.extend(warm);
            timed_seen.extend(timed);
        }
        (warm_seen, timed_seen, (start, end))
    });
    ServerHandle::shutdown(server);

    let mut latencies = Latencies::default();
    for seen in warm_seen.iter().chain(&timed_seen) {
        tally.check(seen.ok, || seen.detail.clone());
    }
    // `mapped_cycles` sums VW-SDK cycles over the distinct zoo
    // (network, array) pairs, all of which the opening sweep plans.
    metrics.set("mapped_cycles", mapped_cycles.unwrap_or(0) as f64, "cycles");
    for seen in &timed_seen {
        latencies.push(seen.latency);
    }
    let ops_per_s = median_rate(&timed_seen, span);
    let (p50, tail) = latencies.summary_ms(TAIL);
    metrics.set("ops_per_s", ops_per_s, "1/s");
    metrics.set("latency_p50_ms", p50, "ms");
    metrics.set("latency_tail_ms", tail, "ms");

    // Sampled byte identity: the same bodies through the handlers
    // in-process, on a fresh single-shard state.
    let fresh = ServerState::new(1);
    for seen in timed_seen.iter().filter(|s| s.body.is_some()) {
        let request = request_at(seed, seen.index);
        let live = seen
            .body
            .as_deref()
            .and_then(|b| std::str::from_utf8(b).ok());
        let local = call_handler(&fresh, &request, request.body.as_bytes())
            .ok()
            .map(|value| value.render());
        let same = match (live, local.as_deref()) {
            (Some(live), Some(local)) => without_cache(live) == without_cache(local),
            _ => false,
        };
        if !same {
            tally.fail(format!(
                "{} {}: live and in-process bytes differ",
                request.path(),
                request.body
            ));
        }
    }

    if settings.trace {
        let (before, after, stats_before, stats_after) =
            registry_window.expect("the timed window ran");
        set_live_breakdown(&mut metrics, &before, &after, p50);
        harness::set_cache_breakdown(&mut metrics, &stats_before, &stats_after);
        traced_pass(settings, &refs, &mut tally, &mut metrics);
    }
    let workers = state.pool_size();
    Outcome {
        tally,
        metrics,
        threads: vec![
            ("load_threads", conns),
            ("client_connections", conns),
            ("serve_workers", workers),
            ("serve_shards", state.shards()),
        ],
        pooled_ms: Vec::new(),
    }
}

/// Responses per second: the median over ten equal slices of the timed
/// window of each slice's completions, so a burst of host contention
/// during part of the window does not move it.
fn median_rate(seen: &[Seen], (start, end): (Duration, Duration)) -> f64 {
    const SLICES: u32 = 10;
    let slice = (end - start) / SLICES;
    let mut counts = vec![0u64; SLICES as usize];
    for s in seen {
        if s.done >= start {
            let i = ((s.done - start).as_secs_f64() / slice.as_secs_f64()) as usize;
            counts[i.min(SLICES as usize - 1)] += 1;
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 / slice.as_secs_f64())
        .collect();
    harness::median(&rates)
}

/// The `serve` and `cost` numbers of the live timed window, from
/// deltas of the server's own telemetry.
fn set_live_breakdown(
    metrics: &mut Metrics,
    before: &Registry,
    after: &Registry,
    client_p50_ms: f64,
) {
    for endpoint in harness::ENDPOINTS {
        let label = format!("/v1/{endpoint}");
        let delta = after.histogram_delta(before, "pim_request_seconds", &[("endpoint", &label)]);
        let (p50, p99) = delta.map_or((0.0, 0.0), |h| (h.quantile(0.5), h.quantile(0.99)));
        metrics.set(format!("serve.server_p50_ms.{endpoint}"), p50 * 1e3, "ms");
        metrics.set(format!("serve.server_p99_ms.{endpoint}"), p99 * 1e3, "ms");
    }
    let server_p50 = after
        .histogram_delta(before, "pim_request_seconds", &[])
        .map_or(0.0, |h| h.quantile(0.5));
    metrics.set("serve.wire_ms_p50", client_p50_ms - server_p50 * 1e3, "ms");
    let responses = after.counter_delta(before, "pim_responses_total", &[]);
    let ok = after.counter_delta(before, "pim_responses_total", &[("class", "2xx")]);
    metrics.set("serve.non2xx", responses.saturating_sub(ok) as f64, "count");
    metrics.set(
        "serve.sheds",
        after.counter_delta(before, "pim_sheds_total", &[]) as f64,
        "count",
    );
    metrics.set(
        "serve.conn_timeouts",
        after.counter_delta(before, "pim_conn_timeout_total", &[]) as f64,
        "count",
    );
    harness::set_search_breakdown(metrics, before, after);
}

/// A fresh single-shard state that has answered the untimed warm-up
/// prefix of the stream in-process.
fn warmed_state(seed: u64, warmup: usize, refs: &References, tally: &mut Tally) -> ServerState {
    let state = ServerState::new(1);
    for index in 0..warmup {
        let request = request_at(seed, index);
        let ok = call_handler(&state, &request, request.body.as_bytes())
            .is_ok_and(|value| check_body(refs, &request, &value));
        tally.check(ok, || {
            format!("in-process {} {}", request.path(), request.body)
        });
    }
    state
}

/// Replays requests `warmup..warmup + count` of the stream in-process
/// on a fresh state that has answered the warm-up prefix: through
/// `http::RequestParser`, the handler, JSON serialisation and
/// `http::render_json_response`, each inside a span of `tracer`.
/// Returns the replayed requests' wall time and how many went to each
/// endpoint.
fn replay(
    seed: u64,
    warmup: usize,
    count: usize,
    refs: &References,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> (Duration, BTreeMap<&'static str, usize>) {
    let state = warmed_state(seed, warmup, refs, tally);
    let mut wall = Duration::ZERO;
    let mut per_endpoint: BTreeMap<&'static str, usize> = BTreeMap::new();
    for index in warmup..warmup + count {
        let request = request_at(seed, index);
        let op = index as u64;
        let t = Instant::now();
        tracer.begin("serve.request", op, false);
        let raw = request.bytes();
        let parsed = tracer.span("serve.parse", op, || {
            let mut parser = RequestParser::new();
            parser.feed(&raw);
            match parser.poll() {
                Ok(ParseStatus::Ready(parsed)) => Some(parsed),
                _ => None,
            }
        });
        let Some(parsed) = parsed else {
            tracer.end();
            tally.check(false, || format!("parse of request {index} failed"));
            continue;
        };
        let name = match request.endpoint {
            "plan" => "serve.handler.plan",
            "sweep" => "serve.handler.sweep",
            "deploy" => "serve.handler.deploy",
            _ => "serve.handler.simulate",
        };
        let answer = tracer.span(name, op, || call_handler(&state, &request, &parsed.body));
        let rendered = answer.as_ref().ok().map(|value| {
            tracer.span("serve.render", op, || {
                let body = value.render();
                http::render_json_response(200, &body, false)
            })
        });
        tracer.end();
        wall += t.elapsed();
        let ok = answer
            .as_ref()
            .is_ok_and(|value| check_body(refs, &request, value))
            && rendered.is_some_and(|bytes| !bytes.is_empty());
        tally.check(ok, || {
            format!("in-process {} {}", request.path(), request.body)
        });
        *per_endpoint.entry(request.endpoint).or_default() += 1;
    }
    (wall, per_endpoint)
}

/// Replays the measured requests three times, each on a fresh state:
/// once to warm the process's heap (the first fresh state in a process
/// takes page faults the later ones do not), once without spans (the
/// overhead baseline: the live server's rate includes sockets and two
/// connections, so it is no baseline for the spans' cost), and once
/// with them, which gives the `serve` breakdown.
fn traced_pass(settings: &Settings, refs: &References, tally: &mut Tally, metrics: &mut Metrics) {
    let seed = settings.seed;
    let warmup = settings.reps(WARMUP_REQUESTS);
    let traced = settings.traced_ops(TRACED_PER_SECOND);
    replay(seed, warmup, traced, refs, tally, &mut Tracer::disabled());
    let (untraced_wall, _) = replay(seed, warmup, traced, refs, tally, &mut Tracer::disabled());
    let mut tracer = Tracer::new();
    let (wall, per_endpoint) = replay(seed, warmup, traced, refs, tally, &mut tracer);
    let totals = tracer.totals();
    let total_s = |name: &str| totals.get(name).map_or(0.0, |t| t.2);
    metrics.set(
        "serve.parse_us_per_req",
        total_s("serve.parse") * 1e6 / traced as f64,
        "us",
    );
    metrics.set(
        "serve.render_us_per_req",
        total_s("serve.render") * 1e6 / traced as f64,
        "us",
    );
    for endpoint in harness::ENDPOINTS {
        let count = per_endpoint.get(endpoint).copied().unwrap_or(0);
        let span = format!("serve.handler.{endpoint}");
        let ms = if count == 0 {
            0.0
        } else {
            total_s(&span) * 1e3 / count as f64
        };
        metrics.set(format!("serve.handler_ms_per_req.{endpoint}"), ms, "ms");
    }
    harness::set_trace_overhead(
        metrics,
        traced as f64 / untraced_wall.as_secs_f64(),
        traced as f64 / wall.as_secs_f64(),
    );
    if let Err(e) = tracer.write(settings, "serve-mixed") {
        eprintln!("vwbench: could not write the trace: {e}");
    }
}
