//! `tenants`: about a thousand tiny L0 namespaces behind one connection
//! with a 16-deep window; writes beside reads, and a trickle of namespace
//! drop and re-create.

use crate::check::{fail, mass_matches, tenant_sample, CheckFailure, Verdict};
use crate::served::{self, Op, Pipeline, Registry, Reply};
use crate::trace::Spans;
use crate::{probe, Layers, Tally, Workload};
use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
use pts_server::{serve_with_spawner, Client, Server};
use pts_stream::Update;
use pts_util::protocol::Request;
use pts_util::{derive_seed, Xoshiro256pp};

const N: usize = 64;
/// Namespaces `1..=TENANTS` are created in setup.
const TENANTS: u64 = 1000;
const WINDOW: usize = 16;
/// Updates per write.
const BATCH: usize = 16;
/// Distinct pre-generated writes.
const BATCHES: usize = 256;

/// Requests per round: one tenant is dropped, re-created and written,
/// then the rest alternate write, `sample_many(1)`, write, `Stats` on
/// random tenants (half writes, a quarter each of the two reads).
const ROUND: usize = 256;

fn engine(seed: u64, ns: u64) -> ShardedEngine<L0Factory> {
    ShardedEngine::new(
        EngineConfig::new(N)
            .shards(1)
            .pool_size(1)
            .seed(derive_seed(seed, ns)),
        L0Factory::default(),
    )
}

#[derive(Clone, Copy)]
enum Kind {
    Ingest(usize),
    Sample,
    Stats,
    Create,
    Drop,
}

/// The benchmark's own tally of one tenant.
#[derive(Clone, Copy)]
struct Tenant {
    x: [i64; N],
    updates: u64,
}

const EMPTY: Tenant = Tenant {
    x: [0; N],
    updates: 0,
};

/// What a request's reply must show, fixed when it is submitted.
enum Expect {
    Ack(u64),
    /// A draw from this tenant's state at submission.
    Sample(u64, Tenant),
    /// This tenant's state at submission.
    Stats(u64, Tenant),
    Done,
}

/// Checks each reply against its expectation.
fn verify(verdict: &mut Verdict, expect: Expect, reply: Reply) {
    verdict.note(match (expect, reply) {
        (Expect::Ack(len), Reply::Ingested(n)) if n == len => Ok(()),
        (Expect::Ack(len), Reply::Ingested(n)) => {
            fail("ingest ack", format!("{n} acknowledged of {len}"))
        }
        (Expect::Sample(ns, t), Reply::Sampled(draws)) => draws
            .iter()
            .flatten()
            .try_for_each(|s| tenant_sample(ns, s.index, s.estimate, &t.x)),
        (Expect::Stats(ns, t), Reply::Stats(st)) => {
            let support = t.x.iter().filter(|v| **v != 0).count() as u64;
            if st.updates != t.updates || st.support != support {
                fail(
                    "tenant stats",
                    format!(
                        "namespace {ns}: updates {} support {}, expected {} and {support}",
                        st.updates, st.support, t.updates
                    ),
                )
            } else {
                mass_matches("tenant stats mass", st.mass, support as f64)
            }
        }
        (Expect::Done, Reply::Done) => Ok(()),
        _ => fail("reply kind", "a reply of the wrong kind".into()),
    });
}

pub struct Tenants {
    server: Option<Server>,
    client: Option<Client>,
    pipe: Pipeline<Expect>,
    rng: Xoshiro256pp,
    batches: Vec<Vec<Update>>,
    /// Per namespace, its exact state after every request submitted;
    /// `None` while dropped.
    shadow: Vec<Option<Tenant>>,
    verdict: Verdict,
}

impl Tenants {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Xoshiro256pp::new(derive_seed(seed, 1));
        let batches = (0..BATCHES)
            .map(|_| {
                (0..BATCH)
                    .map(|_| {
                        let delta = rng.next_sign() * (1 + rng.next_below(4) as i64);
                        Update::new(rng.next_index(N) as u64, delta)
                    })
                    .collect()
            })
            .collect();
        let server = serve_with_spawner("127.0.0.1:0", engine(seed, 0), move |ns| engine(seed, ns))
            .map_err(|e| format!("bind: {e}"))?;
        let client = served::connect(&server, WINDOW)?;
        let mut w = Tenants {
            server: Some(server),
            client: Some(client),
            pipe: Pipeline::new(WINDOW),
            rng: Xoshiro256pp::new(derive_seed(seed, 3)),
            batches,
            shadow: vec![None; TENANTS as usize + 1],
            verdict: Verdict::default(),
        };
        let (mut tally, mut spans) = (Tally::default(), Spans::new(false));
        for ns in 1..=TENANTS {
            w.send(ns, Kind::Create, &mut tally, &mut spans);
            let b = w.rng.next_index(BATCHES);
            w.send(ns, Kind::Ingest(b), &mut tally, &mut spans);
        }
        w.round(&mut tally, &mut spans);
        w.drain(&mut tally, &mut spans);
        if tally.failed > 0 {
            return Err(format!("preload: {} requests failed", tally.failed));
        }
        Ok(w)
    }

    fn send(&mut self, ns: u64, kind: Kind, tally: &mut Tally, spans: &mut Spans) {
        let Tenants {
            client,
            pipe,
            batches,
            shadow,
            verdict,
            ..
        } = self;
        let client = client.as_mut().expect("client lives until drop");
        let slot = &mut shadow[ns as usize];
        let (op, expect) = match kind {
            Kind::Ingest(b) => {
                let t = slot.get_or_insert(EMPTY);
                for u in &batches[b] {
                    t.x[u.index as usize] += u.delta;
                }
                t.updates += batches[b].len() as u64;
                (
                    Op::Ingest(ns, &batches[b]),
                    Expect::Ack(batches[b].len() as u64),
                )
            }
            Kind::Sample => (Op::Sample(ns), Expect::Sample(ns, slot.unwrap_or(EMPTY))),
            Kind::Stats => (Op::Stats(ns), Expect::Stats(ns, slot.unwrap_or(EMPTY))),
            Kind::Create => {
                *slot = Some(EMPTY);
                (Op::Create(ns), Expect::Done)
            }
            Kind::Drop => {
                *slot = None;
                (Op::Drop(ns), Expect::Done)
            }
        };
        pipe.submit(client, op, expect, tally, spans, &mut |e, r| {
            verify(verdict, e, r)
        });
    }

    fn tenant(&mut self) -> u64 {
        1 + self.rng.next_below(TENANTS)
    }
}

impl Workload for Tenants {
    fn round(&mut self, tally: &mut Tally, spans: &mut Spans) {
        let ns = self.tenant();
        self.send(ns, Kind::Drop, tally, spans);
        self.send(ns, Kind::Create, tally, spans);
        let b = self.rng.next_index(BATCHES);
        self.send(ns, Kind::Ingest(b), tally, spans);
        for k in 3..ROUND {
            let ns = self.tenant();
            let kind = match k % 4 {
                1 => Kind::Sample,
                3 => Kind::Stats,
                _ => Kind::Ingest(self.rng.next_index(BATCHES)),
            };
            self.send(ns, kind, tally, spans);
        }
    }

    fn drain(&mut self, tally: &mut Tally, spans: &mut Spans) {
        let Tenants { pipe, verdict, .. } = self;
        pipe.drain(tally, spans, &mut |e, r| verify(verdict, e, r));
    }

    fn check(&mut self) -> Result<(), CheckFailure> {
        self.verdict.take()
    }

    fn layers_reported(&self) -> &'static [&'static str] {
        &["client", "wire", "server"]
    }

    fn layers(&mut self, timed: &Registry, tally: &Tally, spans: &mut Spans) -> Layers {
        let mut out = served::served_layers(timed, spans, &tally.lat_ns);
        let extra = [
            Request::Stats,
            Request::CreateNamespace,
            Request::DropNamespace,
        ];
        out.extend(probe::wire(&self.batches, &extra));
        out
    }
}

impl Drop for Tenants {
    fn drop(&mut self) {
        if let (Some(server), Some(client)) = (self.server.take(), self.client.take()) {
            served::stop(server, client);
        }
    }
}
