//! `ingest`: one served namespace, one connection pipelining batches of a
//! churny zipf turnstile stream, with one draw per `DRAW_EVERY` batches.

use crate::check::{fail, in_support, mass_matches, snapshot_matches, CheckFailure, Verdict};
use crate::served::{self, Op, Pipeline, Registry, Reply};
use crate::trace::Spans;
use crate::{probe, Layers, Tally, Workload};
use pts_engine::{EngineConfig, LpLe2Factory, ShardedEngine};
use pts_server::{serve, Client, Server};
use pts_stream::gen::zipf_vector;
use pts_stream::{Stream, StreamStyle, Update};
use pts_util::{derive_seed, Xoshiro256pp};

const N: usize = 4096;
const SHARDS: usize = 4;
const POOL: usize = 2;
/// Updates per ingest request.
const BATCH: usize = 1024;
/// One draw per this many ingest requests.
const DRAW_EVERY: usize = 32;
/// Requests the client keeps in flight.
const WINDOW: usize = 4;
/// Draws sent in setup after the preload. A draw consumes a pool instance
/// and a consumed slot is respawned only by a later draw that consumes it
/// at once, so ingest feeds fewer live instances as draws accumulate and
/// none once every slot has been drawn. This burst reaches that steady
/// state before timing starts; with the mild zipf skew below every shard
/// holds roughly a quarter of the mass and sees about 32 of these draws.
const WARMUP_DRAWS: usize = 128;
/// Zipf exponent and top magnitude of the stream's target vector. A steep
/// skew (exponent 1) can leave a shard with ~1% of the mass, whose primed
/// instances then outlive the warm-up and double the ingest cost on some
/// seeds only.
const ZIPF_S: f64 = 0.5;
const ZIPF_TOP: i64 = 64;

/// The served engine (the s1/n1/c1 shape).
fn engine(seed: u64) -> ShardedEngine<LpLe2Factory> {
    ShardedEngine::new(
        EngineConfig::new(N)
            .shards(SHARDS)
            .pool_size(POOL)
            .seed(derive_seed(seed, 0x1E)),
        LpLe2Factory::for_universe(N, 2.0),
    )
}

/// What a request's reply must show, fixed when it is submitted.
enum Expect {
    /// An acknowledgement of this many updates.
    Batch(u64),
    /// Draws from the support of the vector as it was at submission.
    Draw(Box<[i64]>),
}

/// Checks each reply against its expectation.
fn verify(verdict: &mut Verdict, acked: &mut u64, expect: Expect, reply: Reply) {
    verdict.note(match (expect, reply) {
        (Expect::Batch(len), Reply::Ingested(n)) => {
            *acked += n;
            if n == len {
                Ok(())
            } else {
                fail("ingest ack", format!("{n} acknowledged of {len}"))
            }
        }
        (Expect::Draw(x), Reply::Sampled(draws)) => draws
            .iter()
            .flatten()
            .try_for_each(|s| in_support("ingest draw support", s.index, &x)),
        _ => fail("reply kind", "a reply of the wrong kind".into()),
    });
}

pub struct Ingest {
    seed: u64,
    server: Option<Server>,
    client: Option<Client>,
    pipe: Pipeline<Expect>,
    /// One pass of the stream, sent over and over.
    batches: Vec<Vec<Update>>,
    next_batch: usize,
    /// The exact net vector of every batch submitted.
    x: Vec<i64>,
    /// Updates acknowledged.
    acked: u64,
    verdict: Verdict,
}

impl Ingest {
    /// Binds the server, connects, ingests one pass as the preload, then
    /// sends the warm-up draws.
    pub fn setup(seed: u64) -> Result<Self, String> {
        let x = zipf_vector(N, ZIPF_S, ZIPF_TOP, derive_seed(seed, 1));
        let mut rng = Xoshiro256pp::new(derive_seed(seed, 2));
        let stream = Stream::from_target(&x, StreamStyle::Turnstile { churn: 1.0 }, &mut rng);
        let batches = stream.batches(BATCH).map(<[Update]>::to_vec).collect();
        let server = serve("127.0.0.1:0", engine(seed)).map_err(|e| format!("bind: {e}"))?;
        let client = served::connect(&server, WINDOW)?;
        let mut w = Ingest {
            seed,
            server: Some(server),
            client: Some(client),
            pipe: Pipeline::new(WINDOW),
            batches,
            next_batch: 0,
            x: vec![0; N],
            acked: 0,
            verdict: Verdict::default(),
        };
        let (mut tally, mut spans) = (Tally::default(), Spans::new(false));
        for b in 0..w.batches.len() {
            w.submit(Some(b), &mut tally, &mut spans);
        }
        for _ in 0..WARMUP_DRAWS {
            w.submit(None, &mut tally, &mut spans);
        }
        w.drain(&mut tally, &mut spans);
        if tally.failed > 0 {
            return Err(format!("preload: {} requests failed", tally.failed));
        }
        Ok(w)
    }

    /// Submits batch `b`, or a draw for `None`.
    fn submit(&mut self, batch: Option<usize>, tally: &mut Tally, spans: &mut Spans) {
        let Ingest {
            client,
            pipe,
            batches,
            x,
            acked,
            verdict,
            ..
        } = self;
        let client = client.as_mut().expect("client lives until drop");
        let (op, expect) = match batch {
            Some(b) => {
                for u in &batches[b] {
                    x[u.index as usize] += u.delta;
                }
                let len = batches[b].len() as u64;
                (Op::Ingest(0, &batches[b]), Expect::Batch(len))
            }
            None => (Op::Sample(0), Expect::Draw(x.clone().into_boxed_slice())),
        };
        pipe.submit(client, op, expect, tally, spans, &mut |e, r| {
            verify(verdict, acked, e, r)
        });
    }
}

impl Workload for Ingest {
    fn round(&mut self, tally: &mut Tally, spans: &mut Spans) {
        for _ in 0..DRAW_EVERY {
            let b = self.next_batch;
            self.next_batch = (b + 1) % self.batches.len();
            self.submit(Some(b), tally, spans);
        }
        self.submit(None, tally, spans);
    }

    fn drain(&mut self, tally: &mut Tally, spans: &mut Spans) {
        let Ingest {
            pipe,
            acked,
            verdict,
            ..
        } = self;
        pipe.drain(tally, spans, &mut |e, r| verify(verdict, acked, e, r));
    }

    fn check(&mut self) -> Result<(), CheckFailure> {
        self.verdict.take()?;
        let client = self.client.as_mut().expect("client lives until drop");
        let snap = client.snapshot().map_err(|e| CheckFailure {
            check: "snapshot",
            detail: e.to_string(),
        })?;
        snapshot_matches(snap.entries(), &self.x)?;
        let stats = client.stats().map_err(|e| CheckFailure {
            check: "stats",
            detail: e.to_string(),
        })?;
        if stats.updates != self.acked {
            return fail(
                "stats updates",
                format!("{} reported, {} sent", stats.updates, self.acked),
            );
        }
        let f2: f64 = self.x.iter().map(|v| (*v as f64) * (*v as f64)).sum();
        mass_matches("stats mass", stats.mass, f2)
    }

    fn layers_reported(&self) -> &'static [&'static str] {
        &["client", "wire", "server", "engine", "router", "sampler"]
    }

    fn layers(&mut self, timed: &Registry, tally: &Tally, spans: &mut Spans) -> Layers {
        let mut out = served::served_layers(timed, spans, &tally.lat_ns);
        out.extend(served::engine_layers(
            timed,
            served::served_ingest_ns_per_update(timed),
        ));
        out.extend(probe::wire(&self.batches, &[]));
        out.extend(probe::router(&self.batches, self.seed));
        out.extend(probe::sampler(
            &LpLe2Factory::for_universe(N, 2.0),
            &self.x,
            &self.batches.concat(),
            self.seed,
        ));
        out
    }
}

impl Drop for Ingest {
    fn drop(&mut self) {
        if let (Some(server), Some(client)) = (self.server.take(), self.client.take()) {
            served::stop(server, client);
        }
    }
}
