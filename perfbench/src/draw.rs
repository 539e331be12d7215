//! `draw`: the served engine's type in process, preloaded with a vector
//! of full support, then four `sample()` calls per small write.

use crate::check::{in_support, snapshot_matches, CheckFailure, Law, Verdict};
use crate::served::{self, engine_layers, Op, Registry};
use crate::trace::Spans;
use crate::{probe, Layers, Tally, Workload};
use pts_engine::{EngineConfig, LpLe2Factory, ShardedEngine};
use pts_stream::gen::zipf_vector;
use pts_stream::Update;
use pts_util::{derive_seed, Xoshiro256pp};
use std::time::Instant;

const N: usize = 4096;
const SHARDS: usize = 4;
const POOL: usize = 2;
/// Updates per write.
const WRITE: usize = 32;
/// `sample()` calls after each write.
const DRAWS_PER_WRITE: usize = 4;
/// Distinct writes; the next as many undo them, so the vector returns to
/// the preload every `2 * WRITES` rounds.
const WRITES: usize = 128;
/// Untimed rounds in setup, past the primed pool instances.
const WARMUP_ROUNDS: usize = 4;
/// Rounds the served probe replays.
const PROBE_ROUNDS: usize = 16;

fn engine(seed: u64) -> ShardedEngine<LpLe2Factory> {
    ShardedEngine::new(
        EngineConfig::new(N)
            .shards(SHARDS)
            .pool_size(POOL)
            .seed(derive_seed(seed, 0xD7)),
        LpLe2Factory::for_universe(N, 2.0),
    )
}

pub struct Draw {
    seed: u64,
    engine: ShardedEngine<LpLe2Factory>,
    preload: Vec<Update>,
    writes: Vec<Vec<Update>>,
    next_write: usize,
    /// The exact vector.
    x: Vec<i64>,
    law: Law,
    verdict: Verdict,
    ingest_ns: u64,
    ingest_updates: u64,
    draw_ns: u64,
    draws: u64,
}

impl Draw {
    pub fn setup(seed: u64) -> Self {
        let x = zipf_vector(N, 1.0, 500, derive_seed(seed, 1));
        let preload: Vec<Update> = x.iter_nonzero().map(|(i, v)| Update::new(i, v)).collect();
        let mut rng = Xoshiro256pp::new(derive_seed(seed, 2));
        let mut writes: Vec<Vec<Update>> = (0..WRITES)
            .map(|_| {
                (0..WRITE)
                    .map(|_| {
                        let delta = rng.next_sign() * (1 + rng.next_below(2) as i64);
                        Update::new(rng.next_index(N) as u64, delta)
                    })
                    .collect()
            })
            .collect();
        let undo: Vec<Vec<Update>> = writes
            .iter()
            .map(|w| w.iter().map(|u| Update::new(u.index, -u.delta)).collect())
            .collect();
        writes.extend(undo);
        let mut engine = engine(seed);
        engine.ingest_batch(&preload);
        let x = x.values().to_vec();
        let mut w = Draw {
            seed,
            engine,
            preload,
            writes,
            next_write: 0,
            x,
            law: Law::new(N),
            verdict: Verdict::default(),
            ingest_ns: 0,
            ingest_updates: 0,
            draw_ns: 0,
            draws: 0,
        };
        let (mut tally, mut spans) = (Tally::default(), Spans::new(false));
        for _ in 0..WARMUP_ROUNDS {
            w.round(&mut tally, &mut spans);
        }
        (w.ingest_ns, w.ingest_updates, w.draw_ns, w.draws) = (0, 0, 0, 0);
        w
    }

    /// Applies a write to the exact vector.
    fn apply(&mut self, w: usize) {
        for u in &self.writes[w] {
            self.x[u.index as usize] += u.delta;
        }
    }
}

impl Workload for Draw {
    fn round(&mut self, tally: &mut Tally, spans: &mut Spans) {
        let w = self.next_write;
        self.next_write = (w + 1) % self.writes.len();
        let op = spans.op();
        let t = Instant::now();
        self.engine.ingest_batch(&self.writes[w]);
        let done = Instant::now();
        let ns = done.duration_since(t).as_nanos() as u64;
        self.ingest_ns += ns;
        self.ingest_updates += WRITE as u64;
        tally.attempted += 1;
        tally.updates += WRITE as u64;
        tally.lat_ns.push(ns);
        self.apply(w);
        if spans.on() {
            let root = spans.record("op", None, op, t, done);
            spans.record("engine.ingest", Some(root), op, t, done);
        }
        for _ in 0..DRAWS_PER_WRITE {
            let op = spans.op();
            let t = Instant::now();
            let out = self.engine.sample();
            let done = Instant::now();
            let ns = done.duration_since(t).as_nanos() as u64;
            self.draw_ns += ns;
            self.draws += 1;
            tally.attempted += 1;
            tally.lat_ns.push(ns);
            tally.draw(&out);
            if let Some(s) = out {
                let drawn = in_support("draw support", s.index, &self.x);
                if drawn.is_ok() {
                    self.law.add(&self.x, 2, s.index);
                }
                self.verdict.note(drawn);
            }
            if spans.on() {
                let root = spans.record("op", None, op, t, done);
                spans.record("engine.sample", Some(root), op, t, done);
            }
        }
    }

    fn check(&mut self) -> Result<(), CheckFailure> {
        self.verdict.take()?;
        snapshot_matches(self.engine.snapshot().entries(), &self.x)?;
        self.law.test("draw law (L2)")
    }

    fn layers(&mut self, timed: &Registry, _tally: &Tally, _spans: &mut Spans) -> Layers {
        let ingest_ns = self.ingest_ns as f64 / self.ingest_updates.max(1) as f64;
        let mut out = engine_layers(timed, ingest_ns);
        // Reconciliation: how much of a draw, timed around the call, the
        // engine's own draw histogram does not account for.
        let op_us = self.draw_ns as f64 / self.draws.max(1) as f64 / 1e3;
        let engine_us = timed.mean("engine.draw.ns") / 1e3;
        eprintln!(
            "reconciliation (draw): op {op_us:.2} us, engine.draw {engine_us:.2} us, unaccounted {:.2} us ({:.2}%)",
            op_us - engine_us,
            100.0 * (op_us - engine_us) / op_us.max(f64::MIN_POSITIVE)
        );

        let seed = self.seed;
        let mut ops = Vec::new();
        for w in self.writes.iter().take(PROBE_ROUNDS) {
            ops.push(Op::Ingest(0, w));
            ops.extend([Op::Sample(0); DRAWS_PER_WRITE]);
        }
        match served::probe(
            engine(seed),
            move |_| engine(seed),
            &[Op::Ingest(0, &self.preload)],
            &ops,
        ) {
            Ok((l, _)) => out.extend(l),
            Err(e) => eprintln!("perfbench draw: {e}"),
        }
        let updates = self.writes.concat();
        out.extend(probe::wire(&self.writes, &[]));
        out.extend(probe::router(&self.writes, seed));
        out.extend(probe::sampler(
            &LpLe2Factory::for_universe(N, 2.0),
            &self.x,
            &updates,
            seed,
        ));
        out.extend(probe::core(&updates, seed));
        out
    }
}
