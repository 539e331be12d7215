//! The served path: a pipelined closed-loop driver over one `Client`, the
//! registry readings the served layers report, and the served probe that
//! prices the client, wire and server layers on an in-process workload.

use crate::trace::Spans;
use crate::{Layers, Tally};
use pts_obs::{registry, MetricValue};
use pts_samplers::Sample;
use pts_server::{Client, ClientConfig, ClientError, Pending, Server};
use pts_stream::Update;
use pts_util::protocol::ServiceStats;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

/// A client whose every request fails instead of hanging when the server
/// stops answering.
pub fn connect(server: &Server, window: usize) -> Result<Client, String> {
    let config = ClientConfig::new()
        .max_in_flight(window)
        .connect_timeout(Duration::from_secs(10))
        .read_timeout(Duration::from_secs(60))
        .write_timeout(Duration::from_secs(60));
    Client::connect_with(server.local_addr(), &config).map_err(|e| format!("connect: {e}"))
}

/// One request the served workloads send.
#[derive(Debug, Clone, Copy)]
pub enum Op<'a> {
    Ingest(u64, &'a [Update]),
    Sample(u64),
    Stats(u64),
    Create(u64),
    Drop(u64),
}

/// A typed reply.
#[derive(Debug, Clone)]
pub enum Reply {
    Ingested(u64),
    Sampled(Vec<Option<Sample>>),
    Stats(ServiceStats),
    Done,
}

enum Wait {
    Ingest(Pending<u64>),
    Sample(Pending<Vec<Option<Sample>>>),
    Stats(Pending<ServiceStats>),
    Unit(Pending<()>),
}

impl Wait {
    fn send(client: &mut Client, op: Op) -> Result<Wait, ClientError> {
        Ok(match op {
            Op::Ingest(ns, batch) => Wait::Ingest(client.submit_ingest_batch_ns(ns, batch)?),
            Op::Sample(ns) => Wait::Sample(client.submit_sample_many_ns(ns, 1)?),
            Op::Stats(ns) => Wait::Stats(client.submit_stats_ns(ns)?),
            Op::Create(ns) => Wait::Unit(client.submit_create_namespace(ns)?),
            Op::Drop(ns) => Wait::Unit(client.submit_drop_namespace(ns)?),
        })
    }

    fn wait(self) -> Result<Reply, ClientError> {
        Ok(match self {
            Wait::Ingest(p) => Reply::Ingested(p.wait()?),
            Wait::Sample(p) => Reply::Sampled(p.wait()?),
            Wait::Stats(p) => Reply::Stats(p.wait()?),
            Wait::Unit(p) => {
                p.wait()?;
                Reply::Done
            }
        })
    }
}

struct InFlight<X> {
    op: u64,
    start: Instant,
    submitted: Instant,
    wait: Wait,
    expect: X,
}

/// Keeps up to `depth` requests in flight. Each request carries the
/// caller's expectation `X`, recorded at submission; when the request
/// resolves, `on_reply` receives the expectation with the reply. Failed
/// requests are counted in the tally and never reach `on_reply`.
pub struct Pipeline<X> {
    depth: usize,
    inflight: VecDeque<InFlight<X>>,
}

impl<X> Pipeline<X> {
    pub fn new(depth: usize) -> Self {
        Self {
            depth,
            inflight: VecDeque::with_capacity(depth),
        }
    }

    /// Submits `op` once the window has room.
    pub fn submit(
        &mut self,
        client: &mut Client,
        op: Op,
        expect: X,
        tally: &mut Tally,
        spans: &mut Spans,
        on_reply: &mut impl FnMut(X, Reply),
    ) {
        while self.inflight.len() >= self.depth {
            self.resolve_oldest(tally, spans, on_reply);
        }
        tally.attempted += 1;
        let start = Instant::now();
        match Wait::send(client, op) {
            Ok(wait) => self.inflight.push_back(InFlight {
                op: spans.op(),
                start,
                submitted: Instant::now(),
                wait,
                expect,
            }),
            Err(e) => {
                tally.failed += 1;
                eprintln!("request failed at submit: {e}");
            }
        }
    }

    fn resolve_oldest(
        &mut self,
        tally: &mut Tally,
        spans: &mut Spans,
        on_reply: &mut impl FnMut(X, Reply),
    ) {
        let Some(f) = self.inflight.pop_front() else {
            return;
        };
        let waiting = Instant::now();
        let reply = f.wait.wait();
        let done = Instant::now();
        if spans.on() {
            let root = spans.record("op", None, f.op, f.start, done);
            spans.record("client.submit", Some(root), f.op, f.start, f.submitted);
            spans.record("client.wait", Some(root), f.op, waiting, done);
        }
        match reply {
            Ok(reply) => {
                tally
                    .lat_ns
                    .push(done.duration_since(f.start).as_nanos() as u64);
                match &reply {
                    Reply::Ingested(n) => tally.updates += n,
                    Reply::Sampled(draws) => draws.iter().for_each(|d| tally.draw(d)),
                    Reply::Stats(_) | Reply::Done => {}
                }
                on_reply(f.expect, reply);
            }
            Err(e) => {
                tally.failed += 1;
                eprintln!("request failed: {e}");
            }
        }
    }

    /// Resolves every request still in flight.
    pub fn drain(
        &mut self,
        tally: &mut Tally,
        spans: &mut Spans,
        on_reply: &mut impl FnMut(X, Reply),
    ) {
        while !self.inflight.is_empty() {
            self.resolve_oldest(tally, spans, on_reply);
        }
    }
}

/// Stops a server and waits until every one of its threads has ended.
pub fn stop(server: Server, client: Client) {
    drop(client);
    server.join();
}

/// A reading of the program's own metrics registry, keyed by
/// `name` or `name{label}`.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    /// Counter values and histogram observation counts.
    count: BTreeMap<String, f64>,
    /// Histogram sums.
    sum: BTreeMap<String, f64>,
    gauge: BTreeMap<String, f64>,
}

impl Registry {
    pub fn read() -> Self {
        let mut r = Registry::default();
        for p in registry().snapshot().points {
            let key = match p.label {
                Some((_, v)) => format!("{}{{{v}}}", p.name),
                None => p.name.to_string(),
            };
            match p.value {
                MetricValue::Counter(c) => {
                    r.count.insert(key, c as f64);
                }
                MetricValue::Gauge(g) => {
                    r.gauge.insert(key, g as f64);
                }
                MetricValue::Histogram(h) => {
                    r.count.insert(key.clone(), h.count as f64);
                    r.sum.insert(key, h.sum as f64);
                }
            }
        }
        r
    }

    /// The change since `earlier`; gauges keep their current value.
    pub fn since(&self, earlier: &Registry) -> Registry {
        let delta = |now: &BTreeMap<String, f64>, then: &BTreeMap<String, f64>| {
            now.iter()
                .map(|(k, v)| (k.clone(), v - then.get(k).copied().unwrap_or(0.0)))
                .collect()
        };
        Registry {
            count: delta(&self.count, &earlier.count),
            sum: delta(&self.sum, &earlier.sum),
            gauge: self.gauge.clone(),
        }
    }

    /// A counter's value or a histogram's count.
    pub fn count(&self, key: &str) -> f64 {
        self.count.get(key).copied().unwrap_or(0.0)
    }

    pub fn gauge(&self, key: &str) -> f64 {
        self.gauge.get(key).copied().unwrap_or(0.0)
    }

    /// Sum of a histogram's observations.
    pub fn sum(&self, key: &str) -> f64 {
        self.sum.get(key).copied().unwrap_or(0.0)
    }

    /// Mean observation of a histogram (0 when it saw none).
    pub fn mean(&self, key: &str) -> f64 {
        self.sum(key) / self.count(key).max(1.0)
    }

    /// Sum of a counter family over its labels (`name{…}`).
    pub fn count_family(&self, name: &str) -> f64 {
        let prefix = format!("{name}{{");
        self.count
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// The client, wire-byte and server metrics of a served phase: `reg`
/// spans it, `spans` hold its `client.*` spans, `lat_ns` its operation
/// latencies.
pub fn served_layers(reg: &Registry, spans: &Spans, lat_ns: &[u64]) -> Layers {
    let times = spans.layer_times();
    let mean_us = |name: &str| times.get(name).map_or(0.0, |t| t.mean_us());
    let requests = reg.count_family("server.requests").max(1.0);
    // Stage time per request (not per observation), so the stages and the
    // transport remainder add up to the mean operation latency.
    let stage = |s: &str| reg.sum(&format!("server.stage.ns{{{s}}}")) / requests / 1e3;
    let stages = stage("queue_wait") + stage("lock_wait") + stage("engine") + stage("write");
    let op_us = lat_ns.iter().sum::<u64>() as f64 / lat_ns.len().max(1) as f64 / 1e3;
    vec![
        ("client.submit_us", mean_us("client.submit")),
        ("client.wait_us", mean_us("client.wait")),
        (
            "wire.request_bytes",
            reg.count("server.bytes.in") / requests,
        ),
        (
            "wire.response_bytes",
            reg.count("server.bytes.out") / requests,
        ),
        ("server.queue_wait_us", stage("queue_wait")),
        ("server.lock_wait_us", stage("lock_wait")),
        ("server.engine_us", stage("engine")),
        ("server.write_us", stage("write")),
        ("server.transport_us", op_us - stages),
        ("server.requests", reg.count_family("server.requests")),
        ("server.tenants_active", reg.gauge("server.tenants.active")),
    ]
}

/// The engine metrics the registry reports for a phase.
/// `ingest_ns_per_update` is measured by the caller.
pub fn engine_layers(reg: &Registry, ingest_ns_per_update: f64) -> Layers {
    let draws = reg.count("engine.draw.ns");
    let respawns = reg.count("engine.pool.respawns");
    vec![
        ("engine.ingest_ns_per_update", ingest_ns_per_update),
        ("engine.draw_us", reg.mean("engine.draw.ns") / 1e3),
        ("engine.draws", draws),
        ("engine.draw_bottom", reg.count("engine.draw.fail")),
        ("engine.respawns", respawns),
        ("engine.respawns_per_draw", respawns / draws.max(1.0)),
        (
            "engine.replayed_per_respawn",
            reg.mean("engine.pool.replayed_updates"),
        ),
    ]
}

/// Dispatch time of ingest requests per acknowledged update.
pub fn served_ingest_ns_per_update(reg: &Registry) -> f64 {
    let updates = reg.count("engine.ingest.updates").max(1.0);
    reg.sum("server.request.ns{ingest}") / updates
}

/// Replays `ops` lockstep through a loopback server and reports the
/// served layers: how the client, wire and server would price an
/// in-process workload's own operations. `setup` ops run first, untimed.
/// Also returns the registry's change over `ops`.
pub fn probe<E, S>(
    engine: E,
    spawner: S,
    setup: &[Op],
    ops: &[Op],
) -> Result<(Layers, Registry), String>
where
    E: pts_engine::SamplingService + Send + 'static,
    S: Fn(u64) -> E + Send + Sync + 'static,
{
    let server = pts_server::serve_with_spawner("127.0.0.1:0", engine, spawner)
        .map_err(|e| format!("bind: {e}"))?;
    let mut client = connect(&server, 1)?;
    let mut pipe = Pipeline::new(1);
    let ignore = &mut |_: (), _: Reply| {};
    let mut tally = Tally::default();
    let mut spans = Spans::new(false);
    for op in setup {
        pipe.submit(&mut client, *op, (), &mut tally, &mut spans, ignore);
    }
    pipe.drain(&mut tally, &mut spans, ignore);
    let mut spans = Spans::new(true);
    let mut tally = Tally::default();
    let before = Registry::read();
    for op in ops {
        pipe.submit(&mut client, *op, (), &mut tally, &mut spans, ignore);
    }
    pipe.drain(&mut tally, &mut spans, ignore);
    let reg = Registry::read().since(&before);
    stop(server, client);
    if tally.failed > 0 {
        return Err(format!("served probe: {} requests failed", tally.failed));
    }
    Ok((served_layers(&reg, &spans, &tally.lat_ns), reg))
}
