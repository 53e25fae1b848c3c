//! The `serve_mixed` workload: an `stc serve --listen` process with the
//! default cache and two closed-loop client connections.
//!
//! Set-up primes 39 keys (13 embedded machines × 3 override variants).  Each
//! client then sends blocks of 10 requests: 9 hits drawn from the primed
//! keys and 1 miss, a fresh seeded inline-KISS2 machine.  Every hit must be
//! byte-identical to its primed response and every miss must equal the
//! library report for the same machine.

use crate::metrics::{Metrics, Outcome, Qor};
use crate::rng::SplitMix;
use crate::speed;
use crate::stats::{geomean, median, percentile};
use stc::pipeline::{embedded_corpus, CorpusEntry, Json, StcConfig, Synthesis};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The override variants of the primed keys.
const VARIANTS: [&str; 3] = [
    "",
    r#","overrides":{"encoding":"gray"}"#,
    r#","overrides":{"coverage.enabled":true,"coverage.optimize.enabled":true,"emit.enabled":true}"#,
];

const CLIENTS: usize = 2;
/// Requests per block; one of them is a miss.
const BLOCK: usize = 10;
/// Hit requests per connection in the untimed warm-up.
const WARM_UP: usize = 20;
/// The longest wait for a reply or for the server to stop.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `stc serve --listen` process.
struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    fn start(stc: &str) -> Result<Self, String> {
        let mut child = Command::new(stc)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {stc}: {e}"))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let banner = lines
            .next()
            .and_then(Result::ok)
            .ok_or("stc serve exited before listening")?;
        let addr = banner
            .strip_prefix("stc serve: listening on ")
            .and_then(|rest| rest.split(',').next())
            .ok_or_else(|| format!("unexpected banner: {banner}"))?
            .to_string();
        // Drain the rest of stderr so the server never blocks on it.
        let stderr = std::thread::spawn(move || lines.map_while(Result::ok).for_each(drop));
        Ok(Self {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    fn connect(&self) -> Result<Client, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A server that stops answering fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            stream,
            reader,
            next_id: 0,
        })
    }

    fn stop(mut self) -> Result<(), String> {
        let shutdown = self
            .connect()
            .and_then(|mut c| c.call(r#""shutdown":true"#));
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                // Dropping `self` kills the server.
                None if Instant::now() >= deadline => return Err("stc serve did not stop".into()),
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        if let Some(stderr) = self.stderr.take() {
            stderr.join().map_err(|_| "stderr reader panicked")?;
        }
        shutdown?;
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("stc serve exited with {status}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A server not stopped cleanly (an error path) must not outlive us.
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(stderr) = self.stderr.take() {
            let _ = stderr.join();
        }
    }
}

/// One connection speaking the JSON-lines protocol.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Sends `{"id":N,<body>}` and returns the response line with its
    /// `{"id":N` prefix removed, so equal responses compare equal.
    fn call(&mut self, body: &str) -> Result<String, String> {
        self.next_id += 1;
        let id = format!(r#"{{"id":{}"#, self.next_id);
        let line = format!("{id},{body}}}\n");
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        response
            .strip_prefix(&id)
            .map(|rest| rest.trim_end().to_string())
            .ok_or_else(|| format!("unexpected response: {response}"))
    }

    fn stats(&mut self) -> Result<Json, String> {
        let response = self.call(r#""stats":true"#)?;
        field(&response, "stats").ok_or_else(|| format!("bad stats reply: {response}"))
    }
}

/// A field of a response whose `{"id":N` prefix `Client::call` removed.
fn field(response: &str, key: &str) -> Option<Json> {
    let rest = response.strip_prefix(',')?;
    Json::parse(&format!("{{{rest}")).ok()?.get(key).cloned()
}

/// The primed keys: request bodies and their responses.
struct Keys {
    bodies: Vec<String>,
    responses: Vec<String>,
}

fn key_bodies() -> Vec<String> {
    let names: Vec<String> = embedded_corpus()
        .iter()
        .map(|e| e.name().to_string())
        .collect();
    VARIANTS
        .iter()
        .flat_map(|variant| {
            names
                .iter()
                .map(move |name| format!(r#""machine":"{name}"{variant}"#))
        })
        .collect()
}

/// Set-up: start the server, prime every key on the first connection and
/// send an untimed warm-up of hits on every connection.  Priming is serial
/// so the server's peak memory does not depend on how two concurrent
/// syntheses interleave.
fn set_up(stc: &str, bodies: &[String]) -> Result<(Server, Vec<Client>, Keys), String> {
    let server = Server::start(stc)?;
    let mut clients = (0..CLIENTS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let responses = bodies
        .iter()
        .map(|body| clients[0].call(body))
        .collect::<Result<Vec<_>, _>>()?;
    for client in &mut clients {
        for body in bodies.iter().cycle().take(WARM_UP) {
            client.call(body)?;
        }
    }
    if let Some(bad) = responses.iter().find(|r| !r.starts_with(r#","ok":true"#)) {
        return Err(format!("priming failed: {bad}"));
    }
    let keys = Keys {
        bodies: bodies.to_vec(),
        responses,
    };
    Ok((server, clients, keys))
}

/// The shapes of fresh machines, (states, inputs), taken in rotation so
/// every run sends the same mix of sizes; the seed picks the transitions.
const SHAPES: [(usize, usize); 15] = [
    (4, 2),
    (5, 4),
    (6, 8),
    (7, 2),
    (8, 4),
    (4, 8),
    (5, 2),
    (6, 4),
    (7, 8),
    (8, 2),
    (4, 4),
    (5, 8),
    (6, 2),
    (7, 4),
    (8, 8),
];

/// The `index`-th fresh machine of a client: 4–8 states, 2, 4 or 8 inputs
/// (powers of two, see README) and 4 outputs.
fn fresh_machine(rng: &mut SplitMix, name: &str, index: usize) -> stc::fsm::Mealy {
    let (states, inputs) = SHAPES[index % SHAPES.len()];
    stc::fsm::random_machine(name, states, inputs, 4, rng.next_u64())
}

/// One planned request: a hit on a primed key, or a miss with its fresh
/// machine.
enum Planned {
    Hit(usize),
    Miss {
        name: String,
        kiss2: String,
        body: String,
    },
}

/// Planned blocks per client per second of window: about five times what a
/// client completes on a 2-core host.  A client that runs out before the
/// deadline fails the run.
const BLOCKS_PER_SECOND: f64 = 200.0;

/// The seeded request sequence of each client for the window, generated
/// before the window so no client builds machines while others are timed.
fn plan(keys: usize, seed: u64, seconds: f64) -> Vec<Vec<Planned>> {
    let blocks = (seconds * BLOCKS_PER_SECOND).ceil() as usize;
    (0..CLIENTS)
        .map(|c| {
            let mut rng = SplitMix::new(seed ^ ((c as u64) << 32));
            let mut requests = Vec::with_capacity(blocks * BLOCK);
            for block in 0..blocks {
                let miss_at = rng.below(BLOCK as u64);
                for slot in 0..BLOCK as u64 {
                    if slot == miss_at {
                        let name = format!("fresh_{c}_{block}");
                        let kiss2 = stc::fsm::kiss2::write(&fresh_machine(&mut rng, &name, block));
                        let text = Json::String(kiss2.clone()).to_compact();
                        let body = format!(r#""kiss2":{text},"name":"{name}""#);
                        requests.push(Planned::Miss { name, kiss2, body });
                    } else {
                        requests.push(Planned::Hit(rng.below(keys as u64) as usize));
                    }
                }
            }
            requests
        })
        .collect()
}

/// The outcome of one request of the timed window.
struct Sample {
    /// The primed key of a hit, `None` for a miss.
    key: Option<usize>,
    /// Wall seconds.
    seconds: f64,
    /// The speed factor of the request's slice (see `speed`).
    factor: f64,
}

/// A miss to check after the window: its inline KISS2 text and response.
struct Miss<'a> {
    name: &'a str,
    kiss2: &'a str,
    response: String,
}

/// One slice of the window: requests completed, wall seconds and the speed
/// factor of the probes around it.
struct Slice {
    requests: usize,
    wall: f64,
    factor: f64,
}

struct Window<'a> {
    samples: Vec<Sample>,
    misses: Vec<Miss<'a>>,
    /// Hits whose response differed from the primed one.
    bad_hits: usize,
    /// Requests that got no response (a send or receive error); each stops
    /// its client.
    errors: Vec<String>,
    slices: Vec<Slice>,
}

/// The window is timed in slices of this length.  The reference kernel is
/// probed between slices, while the clients wait.
const SLICE: Duration = Duration::from_secs(1);
/// Probes between two slices.
const PROBES: usize = 3;

/// What one client saw in one slice.
#[derive(Default)]
struct ClientSlice<'a> {
    samples: Vec<(Option<usize>, f64)>,
    misses: Vec<Miss<'a>>,
    bad_hits: usize,
    /// Planned requests sent (or attempted).
    sent: usize,
    error: Option<String>,
    ran_out: bool,
}

/// Sends a client's next planned requests in whole blocks until the
/// deadline or its first request that gets no response.
fn client_slice<'a>(
    client: &mut Client,
    keys: &Keys,
    requests: &'a [Planned],
    deadline: Instant,
) -> ClientSlice<'a> {
    let mut out = ClientSlice::default();
    for block in requests.chunks(BLOCK) {
        if Instant::now() >= deadline {
            return out;
        }
        for request in block {
            out.sent += 1;
            let t = Instant::now();
            let (key, body) = match request {
                Planned::Hit(key) => (Some(*key), keys.bodies[*key].as_str()),
                Planned::Miss { body, .. } => (None, body.as_str()),
            };
            let response = match client.call(body) {
                Ok(response) => response,
                Err(e) => {
                    out.error = Some(e);
                    return out;
                }
            };
            out.samples.push((key, t.elapsed().as_secs_f64()));
            match request {
                Planned::Hit(key) => out.bad_hits += usize::from(response != keys.responses[*key]),
                Planned::Miss { name, kiss2, .. } => out.misses.push(Miss {
                    name,
                    kiss2,
                    response,
                }),
            }
        }
    }
    out.ran_out = Instant::now() < deadline;
    out
}

/// The timed closed loop: each client sends whole blocks of its planned
/// sequence, slice by slice, until `seconds` have passed or a request gets
/// no response.
fn window<'a>(
    clients: &mut [Client],
    keys: &Keys,
    plan: &'a [Vec<Planned>],
    seconds: f64,
) -> Result<Window<'a>, String> {
    let mut out = Window {
        samples: Vec::new(),
        misses: Vec::new(),
        bad_hits: 0,
        errors: Vec::new(),
        slices: Vec::new(),
    };
    let mut sent = vec![0; clients.len()];
    let mut before: Vec<f64> = (0..PROBES).map(|_| speed::probe()).collect();
    let slices = (seconds / SLICE.as_secs_f64()).round().max(1.0) as usize;
    for _ in 0..slices {
        let start = Instant::now();
        let deadline = start + SLICE;
        let results = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter_mut()
                .zip(plan)
                .zip(&sent)
                .map(|((client, requests), &from)| {
                    scope.spawn(move || client_slice(client, keys, &requests[from..], deadline))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().map_err(|_| "client panicked".to_string()))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let wall = start.elapsed().as_secs_f64();
        let after: Vec<f64> = (0..PROBES).map(|_| speed::probe()).collect();
        let factor = speed::factor(&[before, after.clone()].concat());
        before = after;
        if results.iter().any(|r| r.ran_out) {
            return Err("a client ran out of planned requests; raise BLOCKS_PER_SECOND".into());
        }
        let mut requests = 0;
        for (client, from) in results.into_iter().zip(&mut sent) {
            *from += client.sent;
            requests += client.samples.len();
            out.samples
                .extend(client.samples.into_iter().map(|(key, seconds)| Sample {
                    key,
                    seconds,
                    factor,
                }));
            out.misses.extend(client.misses);
            out.bad_hits += client.bad_hits;
            out.errors.extend(client.error);
        }
        out.slices.push(Slice {
            requests,
            wall,
            factor,
        });
        if !out.errors.is_empty() {
            break;
        }
    }
    Ok(out)
}

/// Requests per second: the median over the window's slices, at the
/// reference speed (`scaled`) or in wall time.  The median keeps a few
/// slow slices on a shared host from moving it.
fn throughput(w: &Window, scaled: bool) -> f64 {
    let per_slice: Vec<f64> = w
        .slices
        .iter()
        .map(|s| s.requests as f64 / (s.wall * if scaled { s.factor } else { 1.0 }))
        .collect();
    median(&per_slice)
}

/// Checks every miss against the library report for the same machine,
/// on `CLIENTS` threads; returns the number that disagree.
fn check_misses(misses: &[Miss]) -> usize {
    let session = Synthesis::builder()
        .config(StcConfig::default())
        .jobs(1)
        .build();
    let chunk = misses.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = misses
            .chunks(chunk)
            .map(|part| {
                let session = &session;
                scope.spawn(move || part.iter().filter(|m| !miss_matches(session, m)).count())
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a miss check panicked"))
            .sum()
    })
}

fn miss_matches(session: &Synthesis, miss: &Miss) -> bool {
    let Ok(machine) = stc::fsm::kiss2::parse(miss.kiss2, miss.name) else {
        return false;
    };
    let expected = session.run(&CorpusEntry::external(machine)).to_json();
    field(&miss.response, "report") == Some(expected)
}

/// The median latency in ms of the hit class and of the miss class, at the
/// reference speed (`scaled`) or in wall time.
fn class_medians(samples: &[Sample], scaled: bool) -> [f64; 2] {
    let class = |hit: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.key.is_some() == hit)
            .map(|s| s.seconds * 1e3 * if scaled { s.factor } else { 1.0 })
            .collect()
    };
    [median(&class(true)), median(&class(false))]
}

fn server_rss(server: &Server) -> Result<f64, String> {
    crate::host::peak_rss_mb(&server.child.id().to_string())
        .ok_or_else(|| "no VmHWM for the server".into())
}

pub fn run(
    stc: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
) -> Result<Outcome, String> {
    let bodies = key_bodies();
    // The request plan is sized by `seconds`, so its generation stays out
    // of `setup_s`, which times the server set-up, repeated `setups` times
    // in the untraced run (every server but the last is stopped).
    let plan = plan(bodies.len(), seed, seconds);
    let (mut setup_s, mut setup_wall) = (Vec::new(), Vec::new());
    let mut ready = None;
    for _ in 0..if traced { 1 } else { setups } {
        if let Some((server, clients, _)) = ready.take() {
            drop(clients);
            Server::stop(server)?;
        }
        let (server, wall, scaled) = speed::timed(|| set_up(stc, &bodies));
        ready = Some(server?);
        setup_s.push(scaled);
        setup_wall.push(wall);
    }
    let (server, mut clients, keys) = ready.expect("at least one set-up");

    let mut metrics = Metrics::default();
    let before = if traced { Some(clients[0].stats()?) } else { None };
    let w = window(&mut clients, &keys, &plan, seconds)?;
    let mut percentiles = Json::Null;
    if w.errors.is_empty() {
        if let Some(before) = before {
            let after = clients[0].stats()?;
            percentiles = record_layers(&mut metrics, &w, &before, &after);
        }
    }
    if !traced {
        metrics.set("setup_s", median(&setup_s));
        metrics.set("req_per_s", throughput(&w, true));
        metrics.set("req_ms_geomean", geomean(&class_medians(&w.samples, true)));
        // A server that stopped answering may have no memory reading left.
        let rss = server_rss(&server);
        metrics.set("peak_rss_mb", if w.errors.is_empty() { rss? } else { rss.unwrap_or(0.0) });
    }
    drop(clients);
    if w.errors.is_empty() {
        server.stop()?;
    } else {
        // Dropping the server kills it.
        drop(server);
    }

    let mut qor = Qor::default();
    for report in keys.responses.iter().filter_map(|r| field(r, "report")) {
        qor.add(&report);
    }
    let attempted = w.samples.len() + w.errors.len();
    let failed = w.errors.len() + w.bad_hits + check_misses(&w.misses);
    if traced {
        qor.record_layers(&mut metrics);
    } else {
        metrics.set("register_bits", qor.register_bits as f64);
        metrics.set("success_ratio", 1.0 - failed as f64 / attempted as f64);
    }
    let misses = w.misses.len();
    let slowdown = 1.0 / geomean(&w.slices.iter().map(|s| s.factor).collect::<Vec<_>>());
    let wall = Json::Object(vec![
        ("req_per_s".into(), Json::Number(throughput(&w, false))),
        (
            "req_ms_geomean".into(),
            Json::Number(geomean(&class_medians(&w.samples, false))),
        ),
        ("slowdown".into(), Json::Number(slowdown)),
        ("setup_s".into(), Json::Number(median(&setup_wall))),
    ]);
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        details: vec![
            ("wall".into(), wall),
            ("keys".into(), Json::from_usize(keys.bodies.len())),
            ("hits".into(), Json::from_usize(w.samples.len() - misses)),
            ("misses".into(), Json::from_usize(misses)),
            ("percentiles".into(), percentiles),
            (
                "problems".into(),
                Json::Array(w.errors.into_iter().map(Json::String).collect()),
            ),
        ],
    })
}

/// Per-layer metrics of the traced window: client-side latency by request
/// class, the server's cache and stage counters over the window, and the
/// KISS2 parse time of the window's fresh machines.
fn record_layers(metrics: &mut Metrics, traced: &Window, before: &Json, after: &Json) -> Json {
    let [hit_ms, miss_ms] = class_medians(&traced.samples, false);
    metrics.set("serve.hit_p50_ms", hit_ms);
    metrics.set("serve.miss_p50_ms", miss_ms);
    let mut all: Vec<(f64, bool)> = traced
        .samples
        .iter()
        .map(|s| (s.seconds * 1e3, s.key.is_some()))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    let sorted: Vec<f64> = all.iter().map(|s| s.0).collect();
    // Each percentile with the class of its sample and the share of the
    // samples within 5 percentage points of its rank in that class.
    let mut percentiles = Vec::new();
    for (label, metric, q) in [
        ("p50", "serve.req_p50_ms", 0.5),
        ("p99", "serve.req_p99_ms", 0.99),
    ] {
        let (value, beyond) = percentile(&sorted, q);
        let rank = sorted.len() - beyond - 1;
        let hit = all[rank].1;
        let margin = sorted.len() / 20;
        let window = &all[rank.saturating_sub(margin)..(rank + margin + 1).min(all.len())];
        let same = window.iter().filter(|s| s.1 == hit).count();
        metrics.set(metric, value);
        if label == "p99" {
            metrics.set("serve.req_p99_beyond", beyond as f64);
        }
        percentiles.push((
            label.to_string(),
            Json::Object(vec![
                ("value_ms".into(), Json::Number(value)),
                ("samples".into(), Json::from_usize(sorted.len())),
                ("beyond".into(), Json::from_usize(beyond)),
                (
                    "class".into(),
                    Json::String(if hit { "hit" } else { "miss" }.into()),
                ),
                (
                    "class_share_within_5pp".into(),
                    Json::Number(same as f64 / window.len() as f64),
                ),
            ]),
        ));
    }

    let delta = |path: &[&str]| {
        let value = |json: &Json| {
            path.iter()
                .try_fold(json, |j, key| j.get(key))
                .and_then(Json::as_f64)
        };
        value(after).unwrap_or(0.0) - value(before).unwrap_or(0.0)
    };
    let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
    metrics.set("cache.hit_ratio", hits / (hits + misses));
    metrics.set("cache.evictions", delta(&["cache", "evictions"]));
    let stage_s = |stage: &str| {
        let total = |json: &Json| {
            let s = json.get("stages").and_then(|s| s.get(stage));
            let field = |key| {
                s.and_then(|s| s.get(key))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            field("count") * field("mean_ms") / 1e3
        };
        total(after) - total(before)
    };
    let request_s: f64 = traced.samples.iter().map(|s| s.seconds).sum();
    let mut spans = 0.0;
    for (stage, busy, share) in [
        ("solve", "solve.busy_s", Some("solve.share")),
        ("encode", "encode.busy_s", None),
        ("logic", "logic.busy_s", Some("logic.share")),
        ("bist", "bist.busy_s", Some("bist.share")),
        ("coverage", "coverage.busy_s", None),
    ] {
        let seconds = stage_s(stage);
        spans += seconds;
        metrics.set(busy, seconds);
        if let Some(share) = share {
            metrics.set(share, seconds / request_s);
        }
    }
    metrics.set("trace.span_cover", spans / request_s);
    // The server's stage counters are always on and the client adds no
    // spans, so tracing costs nothing here: `trace.overhead` stays 0.

    let mut parse_s = Vec::new();
    for miss in &traced.misses {
        let start = Instant::now();
        std::hint::black_box(stc::fsm::kiss2::parse(miss.kiss2, miss.name).ok());
        parse_s.push(start.elapsed().as_secs_f64());
    }
    metrics.set("kiss2.parse_s", median(&parse_s));
    Json::Object(percentiles)
}
