//! `sketch`: one-shot trials of the paper's perfect L_p sampler for p = 3
//! (Algorithm 1): build with a fresh seed, stream a small turnstile
//! stream, draw once. No engine and no server.

use crate::check::{in_support, CheckFailure, Law};
use crate::probe::{self, CoreTimes, CORE_N, CORE_P};
use crate::served::{self, engine_layers, Op, Registry};
use crate::trace::Spans;
use crate::{Layers, Tally, Workload};
use pts_engine::{EngineConfig, PerfectLpFactory, ShardedEngine};
use pts_stream::gen::zipf_vector;
use pts_stream::{Stream, StreamStyle, Update};
use pts_util::{derive_seed, Xoshiro256pp};

/// Distinct shufflings of the target's stream; trial `t` streams number
/// `t % STREAMS`.
const STREAMS: usize = 8;
/// Draws the served probe makes on one namespace holding a trial's
/// stream; every draw after the first respawns a fresh-seeded sampler from
/// the net vector, the engine's form of a one-shot trial.
const PROBE_DRAWS: usize = 4;

fn engine(seed: u64, ns: u64) -> ShardedEngine<PerfectLpFactory> {
    ShardedEngine::new(
        EngineConfig::new(CORE_N)
            .shards(1)
            .pool_size(1)
            .seed(derive_seed(seed, ns)),
        PerfectLpFactory::for_universe(CORE_N, CORE_P),
    )
}

pub struct Sketch {
    seed: u64,
    /// The target vector every stream nets to.
    x: Vec<i64>,
    streams: Vec<Vec<Update>>,
    /// Each trial's draw.
    log: Vec<Option<u64>>,
    core: CoreTimes,
}

impl Sketch {
    /// Generates the streams and runs one untimed trial.
    pub fn setup(seed: u64) -> Self {
        let target = zipf_vector(CORE_N, 0.7, 12, derive_seed(seed, 1));
        let mut rng = Xoshiro256pp::new(derive_seed(seed, 2));
        let streams = (0..STREAMS)
            .map(|_| {
                Stream::from_target(&target, StreamStyle::Turnstile { churn: 0.5 }, &mut rng)
                    .updates()
                    .to_vec()
            })
            .collect();
        let mut w = Sketch {
            seed,
            x: target.values().to_vec(),
            streams,
            log: Vec::new(),
            core: CoreTimes::default(),
        };
        w.round(&mut Tally::default(), &mut Spans::new(false));
        w.core = CoreTimes::default();
        w
    }
}

impl Workload for Sketch {
    fn round(&mut self, tally: &mut Tally, spans: &mut Spans) {
        let t = self.log.len();
        let stream = &self.streams[t % STREAMS];
        let (out, [start, built, streamed, done]) = self
            .core
            .trial(derive_seed(self.seed, 0x5EED_0000 + t as u64), stream);
        tally.attempted += 1;
        tally.updates += stream.len() as u64;
        tally
            .lat_ns
            .push(done.duration_since(start).as_nanos() as u64);
        tally.draw(&out);
        self.log.push(out.map(|s| s.index));
        if spans.on() {
            let op = spans.op();
            let root = spans.record("op", None, op, start, done);
            spans.record("core.build", Some(root), op, start, built);
            spans.record("core.update", Some(root), op, built, streamed);
            spans.record("core.sample", Some(root), op, streamed, done);
        }
    }

    fn check(&mut self) -> Result<(), CheckFailure> {
        let mut law = Law::new(CORE_N);
        for i in self.log.iter().flatten() {
            in_support("sketch sample support", *i, &self.x)?;
            law.add(&self.x, 3, *i);
        }
        law.test("sketch law (L3)")
    }

    fn layers(&mut self, _timed: &Registry, _tally: &Tally, _spans: &mut Spans) -> Layers {
        let mut out = std::mem::take(&mut self.core).layers();
        let seed = self.seed;
        let mut ops = vec![Op::Create(1), Op::Ingest(1, &self.streams[0])];
        ops.extend([Op::Sample(1); PROBE_DRAWS]);
        ops.push(Op::Drop(1));
        match served::probe(engine(seed, 0), move |ns| engine(seed, ns), &[], &ops) {
            Ok((l, reg)) => {
                out.extend(l);
                out.extend(engine_layers(
                    &reg,
                    served::served_ingest_ns_per_update(&reg),
                ));
            }
            Err(e) => eprintln!("perfbench sketch: {e}"),
        }
        out.extend(probe::wire(&self.streams, &[]));
        out.extend(probe::router(&self.streams, seed));
        out.extend(probe::sampler(
            &PerfectLpFactory::for_universe(CORE_N, CORE_P),
            &self.x,
            &self.streams.concat(),
            seed,
        ));
        out
    }
}
