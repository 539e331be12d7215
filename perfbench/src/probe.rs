//! Probes: a workload's own inputs rerun through one layer's public
//! function, timed from outside. They run after the timed phase of a
//! traced run, so they never touch the end-to-end figures.

use crate::check::entries;
use crate::Layers;
use pts_core::{PerfectLpParams, PerfectLpSampler};
use pts_engine::{SamplerFactory, ShardRouter};
use pts_samplers::TurnstileSampler;
use pts_stream::Update;
use pts_util::protocol::{read_request, write_request, Request};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A timing probe repeats its inputs until it has run at least this long.
const MIN_PROBE: Duration = Duration::from_millis(30);

/// Instances built by the sampler and core probes; their medians are
/// reported.
const INSTANCES: usize = 3;

/// Universe and moment of the paper's p > 2 sampler in the `sketch`
/// workload and in the core probe on `draw`.
pub const CORE_N: usize = 64;
pub const CORE_P: f64 = 3.0;

/// Shards the router probe plans over: the served engine's shape.
const ROUTER_SHARDS: usize = 4;

/// Updates a core probe streams into each instance (the `sketch` trial size).
const CORE_PROBE_UPDATES: usize = 512;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Mean time per item of `pass` (which handles `items` items), repeated
/// until [`MIN_PROBE`] has elapsed.
fn per_item_ns(items: usize, mut pass: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t.elapsed() < MIN_PROBE {
        pass();
        passes += 1;
    }
    t.elapsed().as_nanos() as f64 / (passes as f64 * items.max(1) as f64)
}

/// `write_request` and `read_request` on each batch as an `IngestBatch`
/// request, on a one-draw `Sample` and on `extra`.
pub fn wire(batches: &[Vec<Update>], extra: &[Request]) -> Layers {
    let mut requests: Vec<Request> = batches
        .iter()
        .map(|b| Request::IngestBatch(b.iter().map(|u| (u.index, u.delta)).collect()))
        .collect();
    requests.push(Request::Sample { count: 1 });
    requests.extend_from_slice(extra);
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(id, r)| {
            let mut buf = Vec::new();
            write_request(id as u64 + 1, 1, r, &mut buf).expect("writing to a Vec cannot fail");
            buf
        })
        .collect();
    let mut buf = Vec::with_capacity(1 << 16);
    let encode = per_item_ns(requests.len(), || {
        for (id, r) in requests.iter().enumerate() {
            buf.clear();
            write_request(id as u64 + 1, 1, r, &mut buf).expect("writing to a Vec cannot fail");
            black_box(&buf);
        }
    });
    let decode = per_item_ns(frames.len(), || {
        for f in &frames {
            black_box(read_request(&mut &f[..]).expect("own frame decodes"));
        }
    });
    vec![
        ("wire.encode_us", encode / 1e3),
        ("wire.decode_us", decode / 1e3),
    ]
}

/// `plan_batch` on each batch over [`ROUTER_SHARDS`] shards, per update.
pub fn router(batches: &[Vec<Update>], seed: u64) -> Layers {
    let router = ShardRouter::new(ROUTER_SHARDS, seed);
    let mut plan: Vec<Vec<Update>> = vec![Vec::new(); ROUTER_SHARDS];
    let updates: usize = batches.iter().map(Vec::len).sum();
    let ns = per_item_ns(updates, || {
        for b in batches {
            router.plan_batch(b, &mut plan);
            black_box(&plan);
        }
    });
    vec![("router.plan_ns_per_update", ns)]
}

/// Fresh instances of `factory` over `[0, x.len())`: build, replay of the
/// net vector `x`, the updates, then one draw (medians over the instances).
pub fn sampler<F: SamplerFactory>(factory: &F, x: &[i64], updates: &[Update], seed: u64) -> Layers {
    let net = entries(x);
    let (mut build, mut replay, mut update, mut sample) = (vec![], vec![], vec![], vec![]);
    for k in 0..INSTANCES {
        let t = Instant::now();
        let mut s = factory.build(x.len(), seed.wrapping_add(k as u64));
        build.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        for &(i, v) in &net {
            s.process(Update::new(i, v));
        }
        replay.push(t.elapsed().as_nanos() as f64 / net.len().max(1) as f64);
        let t = Instant::now();
        for u in updates {
            s.process(*u);
        }
        update.push(t.elapsed().as_nanos() as f64 / updates.len().max(1) as f64);
        let t = Instant::now();
        black_box(s.sample());
        sample.push(t.elapsed().as_nanos() as f64);
    }
    vec![
        ("sampler.build_us", median(build) / 1e3),
        ("sampler.replay_ns_per_entry", median(replay)),
        ("sampler.sample_us", median(sample) / 1e3),
        ("sampler.update_ns", median(update)),
    ]
}

/// Core metrics of one-shot `PerfectLpSampler` trials.
#[derive(Debug, Default)]
pub struct CoreTimes {
    pub build_ns: Vec<f64>,
    pub update_ns: Vec<f64>,
    pub sample_ns: Vec<f64>,
    pub bottom: u64,
    pub space_bits: usize,
}

impl CoreTimes {
    /// One trial: build with `seed`, stream `updates`, draw once. Returns
    /// the draw and the instants that bound build, stream and draw.
    pub fn trial(
        &mut self,
        seed: u64,
        updates: &[Update],
    ) -> (Option<pts_samplers::Sample>, [Instant; 4]) {
        let t = Instant::now();
        let mut s =
            PerfectLpSampler::new(CORE_N, PerfectLpParams::for_universe(CORE_N, CORE_P), seed);
        let built = Instant::now();
        for u in updates {
            s.process(*u);
        }
        let streamed = Instant::now();
        let out = s.sample();
        let done = Instant::now();
        self.build_ns
            .push(built.duration_since(t).as_nanos() as f64);
        self.update_ns
            .push(streamed.duration_since(built).as_nanos() as f64 / updates.len().max(1) as f64);
        self.sample_ns
            .push(done.duration_since(streamed).as_nanos() as f64);
        self.space_bits = s.space_bits();
        if out.is_none() {
            self.bottom += 1;
        }
        (out, [t, built, streamed, done])
    }

    pub fn layers(self) -> Layers {
        vec![
            ("core.build_us", median(self.build_ns) / 1e3),
            ("core.update_ns", median(self.update_ns)),
            ("core.sample_us", median(self.sample_ns) / 1e3),
            ("core.bottom", self.bottom as f64),
            ("core.space_kb", self.space_bits as f64 / 8.0 / 1024.0),
        ]
    }
}

/// The paper's p > 2 sampler on a workload's updates folded into its
/// universe of [`CORE_N`] (the full universes are far too slow for it).
pub fn core(updates: &[Update], seed: u64) -> Layers {
    let folded: Vec<Update> = updates
        .iter()
        .take(CORE_PROBE_UPDATES)
        .map(|u| Update::new(u.index % CORE_N as u64, u.delta))
        .collect();
    let mut times = CoreTimes::default();
    for k in 0..INSTANCES {
        times.trial(seed.wrapping_add(k as u64), &folded);
    }
    times.layers()
}
