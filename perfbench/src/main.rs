//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <ingest|draw|tenants|sketch> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: set up (several times, the median is
//! reported), time whole rounds of operations for `--seconds`, check every
//! output against the benchmark's own exact computation, then print one
//! JSON line. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! records benchmark-side spans, runs the per-layer probes, prints the
//! layer table to stderr, writes the spans to `perfbench/out/`, and prints
//! the per-layer metrics. A failed check or a hung run exits non-zero
//! without a result line. See `README.md` for the workloads and metrics.

mod check;
mod draw;
mod host;
mod ingest;
mod probe;
mod served;
mod sketch;
mod tenants;
mod trace;

use check::CheckFailure;
use host::{HostSample, ProcSample};
use served::Registry;
use std::time::{Duration, Instant};
use trace::Spans;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// A run that has not finished by now is reported as hung and killed.
const WATCHDOG: Duration = Duration::from_secs(170);

/// The timed phase is cut into this many windows at round boundaries;
/// rates are the median over the windows, so a short host stall moves
/// them less than it moves a whole-run mean.
const WINDOWS: usize = 10;

/// Counts at a window boundary.
struct Mark {
    t: f64,
    ops: usize,
    updates: u64,
    samples: u64,
    cpu_s: f64,
}

impl Mark {
    fn take(t0: Instant, tally: &Tally) -> Self {
        Self {
            t: t0.elapsed().as_secs_f64(),
            ops: tally.lat_ns.len(),
            updates: tally.updates,
            samples: tally.samples,
            cpu_s: ProcSample::read().cpu_s,
        }
    }
}

/// The median over windows of `per(window start, window end)`.
fn window_median(marks: &[Mark], per: impl Fn(&Mark, &Mark) -> f64) -> f64 {
    let mut v: Vec<f64> = marks
        .windows(2)
        .filter(|w| w[1].t > w[0].t && w[1].ops > w[0].ops)
        .map(|w| per(&w[0], &w[1]))
        .collect();
    median(&mut v)
}

/// What one timed phase did, counted by the benchmark.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations submitted.
    pub attempted: u64,
    /// Operations that ended in a transport or server error.
    pub failed: u64,
    /// Draws that returned ⊥.
    pub bottom: u64,
    /// Turnstile updates acknowledged (before coalescing).
    pub updates: u64,
    /// Draws that returned an index.
    pub samples: u64,
    /// Latency of every completed operation, submit to resolved answer.
    pub lat_ns: Vec<u64>,
}

impl Tally {
    /// Counts one draw outcome.
    pub fn draw<T>(&mut self, outcome: &Option<T>) {
        match outcome {
            Some(_) => self.samples += 1,
            None => self.bottom += 1,
        }
    }
}

/// Per-layer metrics by name; the driver prints them in `BENCHMARK.json` order.
pub type Layers = Vec<(&'static str, f64)>;

/// One workload, ready to time.
pub trait Workload {
    /// Runs one whole round of the workload's operations.
    fn round(&mut self, tally: &mut Tally, spans: &mut Spans);

    /// Resolves every operation still in flight.
    fn drain(&mut self, _tally: &mut Tally, _spans: &mut Spans) {}

    /// Checks every output against the benchmark's own computation.
    fn check(&mut self) -> Result<(), CheckFailure>;

    /// The layers whose per-layer metrics a traced run reports. By
    /// default every layer: a traced result of a workload that
    /// `BENCHMARK.json` names carries every per-layer metric, so on `draw`
    /// and `sketch` probes price the layers their own path does not cross.
    /// `ingest` and `tenants` report the layers they cross.
    fn layers_reported(&self) -> &'static [&'static str] {
        &trace::LAYERS
    }

    /// The per-layer metrics of a traced run: `timed` spans the timed
    /// phase; probes may run more work through single layers.
    fn layers(&mut self, timed: &Registry, tally: &Tally, spans: &mut Spans) -> Layers;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "ingest" => Box::new(ingest::Ingest::setup(seed)?),
        "draw" => Box::new(draw::Draw::setup(seed)),
        "tenants" => Box::new(tenants::Tenants::setup(seed)?),
        "sketch" => Box::new(sketch::Sketch::setup(seed)),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// The `q`-quantile of sorted latencies (nearest rank).
fn percentile(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(64);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run hung past {WATCHDOG:?}; reported as failed");
        std::process::exit(3);
    });

    let timed_setup = || -> (Box<dyn Workload>, f64) {
        let t = Instant::now();
        match setup(&args.workload, args.seed) {
            Ok(w) => (w, t.elapsed().as_secs_f64()),
            Err(e) => {
                eprintln!("perfbench: setup failed: {e}");
                std::process::exit(2);
            }
        }
    };
    let (mut workload, first_setup_s) = timed_setup();

    let mut spans = Spans::new(args.trace);
    // Reserved up front (and touched only as used) so that the latency
    // record grows the resident set smoothly, not in doubling steps.
    let mut tally = Tally {
        lat_ns: Vec::with_capacity(1 << 22),
        ..Tally::default()
    };
    let reg0 = Registry::read();
    let host0 = HostSample::read();
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut marks = vec![Mark::take(t0, &tally)];
    while t0.elapsed() < budget {
        workload.round(&mut tally, &mut spans);
        if t0.elapsed() >= budget.mul_f64(marks.len() as f64 / WINDOWS as f64)
            && marks.len() < WINDOWS
        {
            marks.push(Mark::take(t0, &tally));
        }
    }
    workload.drain(&mut tally, &mut spans);
    marks.push(Mark::take(t0, &tally));
    let elapsed = t0.elapsed().as_secs_f64();
    let host = HostSample::read().since(&host0);
    let timed = Registry::read().since(&reg0);

    eprintln!(
        "perfbench {}: seed {} attempted {} failed {} bottom {} in {:.3} s",
        args.workload, args.seed, tally.attempted, tally.failed, tally.bottom, elapsed
    );
    if let Err(f) = workload.check() {
        eprintln!("perfbench {}: check failed: {f}", args.workload);
        std::process::exit(1);
    }
    if tally.lat_ns.is_empty() {
        eprintln!("perfbench {}: no operation completed", args.workload);
        std::process::exit(1);
    }

    let window_rates: Vec<String> = marks
        .windows(2)
        .map(|w| format!("{:.1}", (w[1].ops - w[0].ops) as f64 / (w[1].t - w[0].t)))
        .collect();
    eprintln!("ops_per_s by window: {}", window_rates.join(" "));
    let rate =
        |count: fn(&Mark) -> f64| window_median(&marks, |a, b| (count(b) - count(a)) / (b.t - a.t));

    let metrics = if args.trace {
        let traced_ops_per_s = rate(|m| m.ops as f64);
        let mut layers = workload.layers(&timed, &tally, &mut spans);
        layers.push(("host.steal_pct", host.steal_pct));
        layers.push(("host.cpu_util", host.cpu_util));
        spans.print_table(&args.workload);
        eprintln!("traced ops_per_s {traced_ops_per_s:.1} (compare with an untraced run for the tracing overhead)");
        match spans.write(&args.workload, args.seed) {
            Ok(path) => eprintln!("spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: writing spans failed: {e}");
                std::process::exit(2);
            }
        }
        let reported = workload.layers_reported();
        let mut ordered = Vec::with_capacity(layers.len());
        let wanted = trace::PER_LAYER
            .iter()
            .filter(|(name, _)| reported.contains(&trace::layer_of(name)))
            .chain(trace::HOST.iter());
        for (name, unit) in wanted {
            match layers.iter().find(|(n, _)| n == name) {
                Some((_, value)) => ordered.push((*name, *value, *unit)),
                None => {
                    eprintln!(
                        "perfbench {}: per-layer metric {name} was not measured",
                        args.workload
                    );
                    std::process::exit(2);
                }
            }
        }
        ordered
    } else {
        let peak_rss_mb = host::peak_rss_mb();
        drop(workload);
        // The other set-ups run only now, each torn down before the next,
        // so `peak_rss_mb` covers the life of one instance.
        let mut setup_times = vec![first_setup_s];
        while setup_times.len() < SETUPS {
            setup_times.push(timed_setup().1);
        }
        eprintln!("set-up times (s): {setup_times:?}");
        let mut lat = std::mem::take(&mut tally.lat_ns);
        lat.sort_unstable();
        vec![
            ("setup_s", median(&mut setup_times), "s"),
            ("ops_per_s", rate(|m| m.ops as f64), "1/s"),
            ("updates_per_s", rate(|m| m.updates as f64), "1/s"),
            ("samples_per_s", rate(|m| m.samples as f64), "1/s"),
            ("op_p50_us", percentile(&lat, 0.5) / 1e3, "us"),
            ("op_p90_us", percentile(&lat, 0.9) / 1e3, "us"),
            (
                "cpu_us_per_op",
                window_median(&marks, |a, b| {
                    (b.cpu_s - a.cpu_s) * 1e6 / (b.ops - a.ops) as f64
                }),
                "us",
            ),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        json_metrics(&metrics)
    );
}
