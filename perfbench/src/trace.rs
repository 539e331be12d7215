//! Benchmark-side spans and the per-layer metric inventory.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer. They are kept in memory and written out when the run ends, one
//! tab-separated row per span: `id parent op name start_ns end_ns`
//! (`parent` is `-` for a root span, times are from the start of the run).

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("client.submit_us", "us"),
    ("client.wait_us", "us"),
    ("wire.request_bytes", "B"),
    ("wire.response_bytes", "B"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.lock_wait_us", "us"),
    ("server.engine_us", "us"),
    ("server.write_us", "us"),
    ("server.transport_us", "us"),
    ("server.requests", "count"),
    ("server.tenants_active", "count"),
    ("engine.ingest_ns_per_update", "ns"),
    ("engine.draw_us", "us"),
    ("engine.draws", "count"),
    ("engine.draw_bottom", "count"),
    ("engine.respawns", "count"),
    ("engine.respawns_per_draw", "ratio"),
    ("engine.replayed_per_respawn", "count"),
    ("router.plan_ns_per_update", "ns"),
    ("sampler.build_us", "us"),
    ("sampler.replay_ns_per_entry", "ns"),
    ("sampler.sample_us", "us"),
    ("sampler.update_ns", "ns"),
    ("core.build_us", "us"),
    ("core.update_ns", "ns"),
    ("core.sample_us", "us"),
    ("core.bottom", "count"),
    ("core.space_kb", "KB"),
    // host.steal_pct and host.cpu_util are appended by the driver.
];

/// Every layer, named as the prefix of its per-layer metrics.
pub const LAYERS: [&str; 7] = [
    "client", "wire", "server", "engine", "router", "sampler", "core",
];

/// The layer a per-layer metric belongs to.
pub fn layer_of(metric: &str) -> &str {
    metric.split_once('.').map_or(metric, |(layer, _)| layer)
}

/// Host metrics every traced run measures itself.
pub const HOST: [(&str, &str); 2] = [("host.steal_pct", "%"), ("host.cpu_util", "%")];

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<u32>,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; a disabled recorder records nothing.
pub struct Spans {
    on: bool,
    origin: Instant,
    rows: Vec<Span>,
    next_op: u64,
}

/// Self time, count and duration of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl LayerTime {
    /// Mean span duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 / 1e3
    }
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            rows: Vec::new(),
            next_op: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh operation id.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span; returns its id for children to name as parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.rows.len() as u32;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.rows.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
        });
        id
    }

    /// Per span name: count, duration and self time (duration minus the
    /// part covered by child spans).
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.rows.len()];
        for s in &self.rows {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &c) in self.rows.iter().zip(&child_ns) {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += d;
            e.self_ns += d.saturating_sub(c);
        }
        out
    }

    /// Prints the per-span-name table to stderr.
    pub fn print_table(&self, workload: &str) {
        eprintln!("layer self times, workload {workload}:");
        eprintln!(
            "  {:<18} {:>10} {:>14} {:>14}",
            "span", "count", "self ms", "self us/span"
        );
        for (name, t) in self.layer_times() {
            eprintln!(
                "  {:<18} {:>10} {:>14.3} {:>14.3}",
                name,
                t.count,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / t.count.max(1) as f64 / 1e3
            );
        }
    }

    /// Writes every span to `perfbench/out/spans-<workload>-<seed>.tsv`.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<String> {
        let dir = std::path::Path::new("perfbench").join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.rows.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(path.display().to_string())
    }
}
