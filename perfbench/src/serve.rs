//! The serve phase: the near-real-time path. The built model is deployed
//! behind `NetServer` on loopback (default `NetConfig`) with an obs
//! `Monitor` pumping on its own thread for the whole run, and in each
//! round an open-loop Poisson generator sends slices of a seeded mix of
//! single queries, small batches and rare bulk requests at the nominal
//! rate; at the end a traced run climbs a fixed ladder of rates to find
//! the capacity.

use crate::build::Built;
use crate::host::Timed;
use crate::load::{poisson_schedule, run_open_loop, Check, Outcome, Planned, Status};
use crate::report::{median, quantile};
use crate::Ctx;
use overton::model::Server;
use overton::nlp::{KnowledgeBase, TrafficConfig, TrafficStream};
use overton::obs::Monitor;
use overton::serving::net::wire::{
    decode_predict_request, encode_predict_request, encode_predict_response,
};
use overton::serving::net::{bind, NetConfig, NetServer};
use overton::serving::{ServingConfig, SpanName, TraceReport};
use overton::store::Record;
use overton::Deployment;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per second at which `p50_ms` and `serving.p99_ms` are
/// measured. A fixed rate, so that every build of the program is
/// measured under the same offered load: with the mix below it offers
/// about 1,300 records/s, some 15% of the capacity the traced ladder
/// measures (`serving.max_records_per_s`, 7,000 to 9,400 records/s on a
/// 2-vCPU x86-64 virtual machine), so the deployment is loaded but not
/// saturated.
pub const NOMINAL_RPS: f64 = 500.0;
/// The ladder of offered request rates for `serving.max_records_per_s`,
/// about a quarter apart.
pub const LADDER_RPS: [f64; 11] =
    [1000.0, 1250.0, 1600.0, 2000.0, 2500.0, 3200.0, 4000.0, 5000.0, 6300.0, 8000.0, 10000.0];
/// Single queries each ladder rung sends, so every rung's p99 rests on
/// the same number of samples whatever its rate.
const RUNG_SINGLES: f64 = 1000.0;
/// Times the ladder is climbed; the best climb counts.
const LADDER_PASSES: usize = 2;
/// The single-query p99 latency limit a ladder rung must meet.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Lateness growth (ms, last quarter of a rung over its first quarter)
/// that marks a backlog building up.
const LATE_GROWTH_MS: f64 = 10.0;
/// The request mix, in blocks of [`MIX_BLOCK`] consecutive requests in a
/// seeded order: [`MIX_SINGLES`] single queries, [`MIX_SMALLS`] small
/// batches (2–8 records) and the rest bulk requests of [`BULK`] records.
/// Fixing the mix per block (rather than drawing each request's kind)
/// keeps the bulk share of a short phase from varying with the seed.
///
/// The shares (90% single, 8% small, 2% bulk; about 2.6 records per
/// request) are an assumption, not a measurement: neither the paper nor
/// the repository gives a query mix. Single queries dominate because
/// the paper's near-real-time products answer one query at a time; the
/// bulk size (twice the pool's default micro-batch of 32) makes each
/// bulk request fill micro-batches, about ten times a second at the
/// nominal rate, so that batches contend with single queries.
const MIX_BLOCK: usize = 50;
const MIX_SINGLES: usize = 45;
const MIX_SMALLS: usize = 4;
const BULK: usize = 64;

/// A deployment serving on loopback with its monitor attached.
pub struct Live {
    pub deployment: Deployment,
    pub monitor: Monitor,
    pub server: NetServer,
}

impl Live {
    pub fn start(ctx: &Ctx, built: &Built) -> Live {
        let config = ServingConfig { workers: ctx.nproc, ..Default::default() };
        let deployment =
            built.project.deploy_with(&built.run, config).expect("deploy the built run");
        let monitor = deployment.watch().expect("attach the monitor");
        let listener = bind("127.0.0.1:0").expect("bind a loopback port");
        let server =
            NetServer::start(listener, Arc::clone(deployment.pool()), NetConfig::default())
                .expect("start the socket tier");
        Live { deployment, monitor, server }
    }

    pub fn stop(self) {
        self.server.drain();
        drop(self.deployment);
    }
}

/// The pre-encoded request bodies and the expected response body of each
/// (`Server::predict_batch` on the records the server will decode).
struct Templates {
    bodies: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
    records: Vec<usize>,
    singles: usize,
    smalls: usize,
}

impl Templates {
    fn new(ctx: &Ctx, built: &Built) -> Templates {
        let artifact = built.run.artifact().expect("the built run has an artifact");
        let server = Server::load(artifact);
        let kb = KnowledgeBase::standard();
        let mut stream = TrafficStream::new(
            &kb,
            TrafficConfig { seed: ctx.seed ^ 0x5e7e, ..Default::default() },
        );
        let (singles, smalls, bulks) = (512, 64, 16);
        let mut t = Templates {
            bodies: Vec::new(),
            expected: Vec::new(),
            records: Vec::new(),
            singles,
            smalls,
        };
        let sizes = (0..singles)
            .map(|_| 1)
            .chain((0..smalls).map(|i| 2 + i % 7))
            .chain((0..bulks).map(|_| BULK));
        for n in sizes {
            let records: Vec<Record> = stream.records(n);
            let body = encode_predict_request(&records);
            let mut decoded = decode_predict_request(body.as_bytes(), usize::MAX)
                .expect("an encoded request decodes");
            for r in &mut decoded {
                r.normalize_labels(server.schema());
            }
            t.expected.push(encode_predict_response(&server.predict_batch(&decoded)).into_bytes());
            t.bodies.push(body.into_bytes());
            t.records.push(n);
        }
        t
    }

    /// Assigns a template to each of `n` requests: every block of
    /// [`MIX_BLOCK`] holds the fixed mix in a seeded order, and each kind
    /// draws its template uniformly.
    fn assign(&self, n: usize, rng: &mut impl Rng) -> Vec<usize> {
        let bulks = self.bodies.len() - self.singles - self.smalls;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut block: Vec<usize> = (0..MIX_BLOCK)
                .map(|i| {
                    if i < MIX_SINGLES {
                        rng.gen_range(0..self.singles)
                    } else if i < MIX_SINGLES + MIX_SMALLS {
                        self.singles + rng.gen_range(0..self.smalls)
                    } else {
                        self.singles + self.smalls + rng.gen_range(0..bulks)
                    }
                })
                .collect();
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
            out.extend(block);
        }
        out.truncate(n);
        out
    }

    fn is_single(&self, template: usize) -> bool {
        template < self.singles
    }
}

/// What one open-loop phase measured.
struct PhaseStats {
    outcomes: Vec<Outcome>,
    secs: f64,
    /// When the phase ran.
    start: Instant,
    end: Instant,
}

impl PhaseStats {
    fn singles_ms(&self, t: &Templates) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| t.is_single(o.template))
            .map(|o| if o.failed() { f64::INFINITY } else { o.latency.as_secs_f64() * 1e3 })
            .collect()
    }

    fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.failed()).count()
    }

    fn records_per_s(&self, t: &Templates) -> f64 {
        self.outcomes.iter().map(|o| t.records[o.template]).sum::<usize>() as f64 / self.secs
    }

    /// Median lateness (ms) over the last quarter of the phase minus the
    /// first quarter.
    fn late_growth_ms(&self) -> f64 {
        let q = self.outcomes.len() / 4;
        let late = |o: &[Outcome]| {
            median(&o.iter().map(|o| o.late.as_secs_f64() * 1e3).collect::<Vec<_>>())
        };
        if q == 0 {
            return 0.0;
        }
        late(&self.outcomes[self.outcomes.len() - q..]) - late(&self.outcomes[..q])
    }
}

fn open_loop_phase(
    ctx: &mut Ctx,
    server: &NetServer,
    t: &Templates,
    rate: f64,
    secs: f64,
    traced: bool,
) -> PhaseStats {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(ctx.seed.wrapping_mul(31) ^ rate as u64);
    let due = poisson_schedule(rate, Duration::from_secs_f64(secs), &mut rng);
    let templates = t.assign(due.len(), &mut rng);
    let plan: Vec<Planned> =
        due.into_iter().zip(templates).map(|(due, template)| Planned { due, template }).collect();
    let check: &Check = &|template, body| {
        if body == t.expected[template].as_slice() {
            Ok(())
        } else {
            Err(format!("template {template}: served answer differs from Server::predict_batch"))
        }
    };
    let store = if traced { server.trace_store() } else { None };
    let start = Instant::now();
    let outcomes =
        run_open_loop(server.local_addr(), &t.bodies, &plan, ctx.nproc, check, store.as_ref());
    let stats = PhaseStats { outcomes, secs, start, end: Instant::now() };
    ctx.attempted += stats.outcomes.len() as u64;
    ctx.failed += stats.failed() as u64;
    for o in &stats.outcomes {
        if let Status::Error(e) = &o.status {
            ctx.check(false, || format!("request failed at {rate} req/s: {e}"));
            break;
        }
    }
    stats
}

/// Seconds one more deployment of the built run takes to come up behind
/// the socket tier with its monitor (it is stopped again): the deploy
/// part of `setup_s`.
pub fn time_deploy(ctx: &Ctx, built: &Built) -> f64 {
    let start = Instant::now();
    let live = Live::start(ctx, built);
    let secs = start.elapsed().as_secs_f64();
    live.stop();
    secs
}

/// What the monitor's pump thread hands back: the monitor, the time it
/// spent pumping and the samples it absorbed.
type Pumped = (Monitor, Duration, usize);

/// The deployment one run serves from, with its monitor pumping on a
/// thread of its own, and the nominal-rate slices it has served. A
/// traced run alternates untraced and traced slices; the difference is
/// the tracing overhead.
pub struct Serving {
    deployment: Deployment,
    server: NetServer,
    templates: Templates,
    stop: Arc<AtomicBool>,
    pump: JoinHandle<Pumped>,
    plain: Vec<PhaseStats>,
    traced: Vec<PhaseStats>,
}

impl Serving {
    pub fn start(ctx: &mut Ctx, built: &Built) -> Serving {
        let Live { deployment, mut monitor, server } = Live::start(ctx, built);
        if ctx.tracer.enabled() {
            layer_probes(ctx, built, &deployment);
        }
        let templates = Templates::new(ctx, built);
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let pump = std::thread::spawn(move || {
            let (mut busy, mut absorbed) = (Duration::ZERO, 0);
            while !stopped.load(Ordering::SeqCst) {
                let start = Instant::now();
                absorbed += monitor.pump();
                busy += start.elapsed();
                std::thread::sleep(Duration::from_millis(2));
            }
            absorbed += monitor.pump();
            (monitor, busy, absorbed)
        });
        Serving { deployment, server, templates, stop, pump, plain: vec![], traced: vec![] }
    }

    /// Serves one of a round's slices at the nominal rate.
    pub fn slice(&mut self, ctx: &mut Ctx) {
        let secs = ctx.seconds * ctx.plan.serve_share / (1 + ctx.plan.episodes) as f64;
        let traced = ctx.tracer.enabled() && self.plain.len() > self.traced.len();
        let stats = open_loop_phase(ctx, &self.server, &self.templates, NOMINAL_RPS, secs, traced);
        if traced { &mut self.traced } else { &mut self.plain }.push(stats);
    }

    /// Reports `p50_ms` (the median of the untraced slices' single-query
    /// p50s) and, in a traced run, climbs the ladder and reports the
    /// serving and obs layers; then stops the deployment.
    pub fn finish(self, ctx: &mut Ctx) {
        let t = &self.templates;
        let slice_q = |slices: &[PhaseStats], q: f64| {
            slices.iter().map(|s| quantile(&s.singles_ms(t), q)).collect::<Vec<f64>>()
        };
        let p50 = median(&slice_q(&self.plain, 0.5));
        let p99 = median(&slice_q(&self.plain, 0.99));
        let p50s: Vec<Timed> = self
            .plain
            .iter()
            .map(|s| Timed { value: quantile(&s.singles_ms(t), 0.5), start: s.start, end: s.end })
            .collect();
        ctx.end_to_end.put("p50_ms", ctx.host.median_at_reference(&p50s), "ms");
        let singles: usize = self.plain.iter().map(|s| s.singles_ms(t).len()).sum();
        println!(
            "serve: nominal {NOMINAL_RPS} req/s, {} slices, {singles} untraced singles, \
             p50 {:?} ms, p99 {p99:.3} ms",
            self.plain.len(),
            slice_q(&self.plain, 0.5).iter().map(|v| (v * 1e3).round() / 1e3).collect::<Vec<_>>()
        );
        if ctx.tracer.enabled() {
            let traced_p50 = median(&slice_q(&self.traced, 0.5));
            ctx.per_layer.put("trace.serve_overhead_p50_ms", traced_p50 - p50, "ms");
            request_layers(ctx, &self.traced, t);
            // The tail and the capacity are per-layer figures: on a shared
            // two-core virtual machine both swing with the host's load by
            // more than any bound the end-to-end gate allows, while p50
            // holds.
            ctx.per_layer.put("serving.p99_ms", p99, "ms");
            let nominal: Vec<&PhaseStats> = self.plain.iter().chain(&self.traced).collect();
            capacity(ctx, &self.server, t, &nominal, p99);
            nominal_layers(ctx, &nominal);
        }
        self.stop.store(true, Ordering::SeqCst);
        let (monitor, pump_busy, absorbed) = self.pump.join().expect("pump thread panicked");
        if ctx.tracer.enabled() {
            let telemetry = self.deployment.pool().telemetry();
            let served = telemetry.latency().count() as f64;
            let dropped = telemetry.observer_dropped() as f64;
            let windows = monitor.stats().closed() as f64;
            let m = &mut ctx.per_layer;
            m.put("obs.samples_dropped_frac", dropped / served.max(1.0), "fraction");
            m.put(
                "obs.serve.pump_ms_per_window",
                pump_busy.as_secs_f64() * 1e3 / windows.max(1.0),
                "ms",
            );
            println!("obs: serve monitor absorbed {absorbed} samples, {windows} windows");
        }
        Live::stop(Live { deployment: self.deployment, monitor, server: self.server });
    }
}

/// The rate ladder, climbed twice above the nominal slices (whose p99,
/// `nominal_p99`, counts as its bottom rung when it met the limit):
/// every rung sends the same number of single queries, so lower rungs
/// run longer. `serving.max_records_per_s` is the better pass's capacity,
/// so a host slowdown during one pass does not set it.
fn capacity(
    ctx: &mut Ctx,
    server: &NetServer,
    t: &Templates,
    nominal: &[&PhaseStats],
    nominal_p99: f64,
) {
    let secs: f64 = nominal.iter().map(|s| s.secs).sum();
    let records: f64 = nominal.iter().map(|s| s.records_per_s(t) * s.secs).sum();
    let failed: usize = nominal.iter().map(|s| s.failed()).sum();
    let base = (nominal_p99 <= P99_LIMIT_MS && failed == 0).then(|| (records / secs, nominal_p99));
    let mut rungs = Vec::new();
    let capacities: Vec<f64> =
        (0..LADDER_PASSES).filter_map(|_| ladder(ctx, server, t, base, &mut rungs)).collect();
    ctx.check(!capacities.is_empty(), || format!("even {NOMINAL_RPS} req/s missed the limit"));
    let best = capacities.iter().copied().fold(f64::NAN, f64::max);
    ctx.per_layer.put("serving.max_records_per_s", best, "records/s");
    println!("serve: ladder {}", rungs.join(" "));
}

/// The generator's lateness and the request outcomes of the nominal
/// slices.
fn nominal_layers(ctx: &mut Ctx, nominal: &[&PhaseStats]) {
    let outcomes: Vec<&Outcome> = nominal.iter().flat_map(|s| &s.outcomes).collect();
    let late: Vec<f64> = outcomes.iter().map(|o| o.late.as_secs_f64() * 1e3).collect();
    let count = |f: &dyn Fn(&Status) -> bool| outcomes.iter().filter(|o| f(&o.status)).count();
    let failed = outcomes.iter().filter(|o| o.failed()).count();
    let m = &mut ctx.per_layer;
    m.put("serving.generator_late_ms", quantile(&late, 0.99), "ms");
    m.put("serving.answered", count(&|s| *s == Status::Ok) as f64, "count");
    m.put("serving.shed", count(&|s| *s == Status::Shed) as f64, "count");
    m.put("serving.errors", count(&|s| matches!(s, Status::Error(_))) as f64, "count");
    m.put("serving.failed_frac", failed as f64 / outcomes.len().max(1) as f64, "fraction");
}

/// One climb of the ladder above `base` (the nominal slices' records/s
/// and p99, when they met the limit): the highest rung that meets the
/// limit, interpolated toward the rung above it (see
/// [`interpolate_capacity`]); `None` when nothing met it. Appends each
/// rung's outcome to `log`.
fn ladder(
    ctx: &mut Ctx,
    server: &NetServer,
    t: &Templates,
    base: Option<(f64, f64)>,
    log: &mut Vec<String>,
) -> Option<f64> {
    let single_share = MIX_SINGLES as f64 / MIX_BLOCK as f64;
    // Every rung run, as (met the limit, (records/s, p99)).
    let mut points: Vec<(bool, (f64, f64))> = base.map(|b| (true, b)).into_iter().collect();
    let mut misses_in_row = 0;
    for rate in LADDER_RPS {
        let rung_s = RUNG_SINGLES / (single_share * rate);
        let stats = open_loop_phase(ctx, server, t, rate, rung_s, false);
        let p99 = quantile(&stats.singles_ms(t), 0.99);
        let growth = stats.late_growth_ms();
        let pass = p99 <= P99_LIMIT_MS && stats.failed() == 0 && growth <= LATE_GROWTH_MS;
        log.push(format!("{rate:.0}:{p99:.2}ms/{growth:.2}ms{}", if pass { "" } else { "!" }));
        // A rung that misses for any reason but its p99 (a failure or a
        // growing backlog) gives no p99 to interpolate toward.
        let p99_miss = p99 > P99_LIMIT_MS;
        points.push((
            pass,
            (stats.records_per_s(t), if pass || p99_miss { p99 } else { f64::INFINITY }),
        ));
        // One miss may be a passing stall of the host; two in a row end
        // the climb.
        misses_in_row = if pass { 0 } else { misses_in_row + 1 };
        if misses_in_row == 2 {
            break;
        }
    }
    let highest = points.iter().rposition(|(pass, _)| *pass)?;
    Some(interpolate_capacity(points[highest].1, points.get(highest + 1).map(|(_, p)| *p)))
}

/// The records rate at which single-query p99 reaches the limit: the
/// highest passing rung's rate, moved toward the first missing rung's by
/// where the limit falls between their p99s (log-linear). Without a
/// missing rung, or when the miss was not a p99 miss (its p99 reads
/// infinite), it is the passing rung's rate. This keeps the metric continuous where the bare rung
/// would jump a whole step.
fn interpolate_capacity(passed: (f64, f64), missed: Option<(f64, f64)>) -> f64 {
    let (r0, p0) = passed;
    let Some((r1, p1)) = missed else { return r0 };
    if p1 <= p0 || r1 <= r0 {
        return r0;
    }
    let w = ((P99_LIMIT_MS.ln() - p0.ln()) / (p1.ln() - p0.ln())).clamp(0.0, 1.0);
    r0 * (r1 / r0).powf(w)
}

/// Per-request span breakdown of the traced nominal slices.
fn request_layers(ctx: &mut Ctx, slices: &[PhaseStats], t: &Templates) {
    let reports: Vec<(&Outcome, &TraceReport)> = slices
        .iter()
        .flat_map(|s| &s.outcomes)
        .filter(|o| t.is_single(o.template))
        .filter_map(|o| o.trace.as_ref().map(|r| (o, r)))
        .collect();
    let m = &mut ctx.per_layer;
    for span in SpanName::ALL.into_iter().filter(|s| *s != SpanName::Accept) {
        let v: Vec<f64> = reports
            .iter()
            .filter_map(|(_, r)| r.spans.iter().find(|s| s.name == span.name()))
            .map(|s| s.wall_micros() as f64 / 1e3)
            .collect();
        let name = span.name().replace('-', "_");
        m.put(&format!("serving.stage.{name}.p50_ms"), quantile(&v, 0.5), "ms");
        m.put(&format!("serving.stage.{name}.p99_ms"), quantile(&v, 0.99), "ms");
    }
    // The spans file gets each traced request: the client's span from
    // send to response read, with the server's parse..write spans under
    // it (the server's timeline starts its parse span at the send).
    for (o, r) in &reports {
        let request = ctx.tracer.record("serving.request", (o.sent, o.done), None, Some(&r.id));
        let Some(parse) = r.spans.iter().find(|s| s.name == SpanName::Parse.name()) else {
            continue;
        };
        let at =
            |micros: u64| o.sent + Duration::from_micros(micros.saturating_sub(parse.start_micros));
        for s in r.spans.iter().filter(|s| s.name != SpanName::Accept.name()) {
            let name = format!("serving.{}", s.name);
            ctx.tracer.record(&name, (at(s.start_micros), at(s.end_micros)), request, Some(&r.id));
        }
    }
    // What the request spans leave of the client's latency: the client,
    // the wire and the kernel.
    let residual = ctx.tracer.self_ms("serving.request");
    let m = &mut ctx.per_layer;
    m.put("serving.unattributed.p50_ms", quantile(&residual, 0.5), "ms");
    let decode: Vec<f64> = reports.iter().map(|(o, _)| o.decode.as_secs_f64() * 1e6).collect();
    m.put("serving.wire.decode_us", median(&decode), "us");
    m.put("trace.request_spans", reports.len() as f64, "count");
}

/// Direct timings of the layers under the socket: the model's batched
/// forward at batch 1 and 32, the pool around it, the request encoder,
/// and the tensor kernel at the model's shapes.
fn layer_probes(ctx: &mut Ctx, built: &Built, deployment: &Deployment) {
    let artifact = built.run.artifact().expect("the built run has an artifact");
    let server = Server::load(artifact);
    let kb = KnowledgeBase::standard();
    let mut stream =
        TrafficStream::new(&kb, TrafficConfig { seed: ctx.seed ^ 0xf0f0, ..Default::default() });
    let batch: Vec<Record> = stream.records(32);
    let per_record_us = |reps: usize, n: usize, f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e6 / n as f64
            })
            .collect();
        median(&samples)
    };
    let b1 = per_record_us(400, 1, &mut || {
        std::hint::black_box(server.predict_batch(&batch[..1]));
    });
    let b32 = per_record_us(60, 32, &mut || {
        std::hint::black_box(server.predict_batch(&batch));
    });
    let pool = per_record_us(60, 32, &mut || {
        std::hint::black_box(deployment.pool().process(batch.clone()));
    });
    let encode = per_record_us(400, 1, &mut || {
        std::hint::black_box(encode_predict_request(&batch[..1]));
    });
    let m = &mut ctx.per_layer;
    m.put("model.forward_us_per_record.b1", b1, "us");
    m.put("model.forward_us_per_record.b32", b32, "us");
    m.put("serving.pool.us_per_record", pool - b32, "us");
    m.put("serving.wire.encode_us", encode, "us");
    gemm_probe(ctx);
}

/// GEMM throughput at the CNN encoder's shapes: a serving micro-batch
/// (32 queries) and a training batch (16), each about 12 tokens, with a
/// width-3 window over 32-wide embeddings into 48 hidden units. Bytes
/// are computed from the shapes (inputs read once, output written once),
/// not measured.
fn gemm_probe(ctx: &mut Ctx) {
    use overton::tensor::Matrix;
    for (name, rows) in [("forward", 32 * 12), ("train", 16 * 12)] {
        let (k, n) = (3 * 32, 48);
        let a = Matrix::full(rows, k, 0.5);
        let b = Matrix::full(k, n, 0.25);
        let reps = 200;
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(std::hint::black_box(&a).matmul(std::hint::black_box(&b)));
        }
        let secs = start.elapsed().as_secs_f64();
        let flops = 2.0 * (rows * k * n) as f64 * reps as f64;
        let bytes = 4.0 * (rows * k + k * n + rows * n) as f64;
        ctx.per_layer.put(&format!("tensor.gemm_gflops.{name}"), flops / secs / 1e9, "GFLOP/s");
        ctx.per_layer.put(&format!("tensor.gemm_bytes.{name}"), bytes, "bytes");
    }
    println!("tensor: gemm_bytes are computed from the GEMM shapes, not measured");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_interpolates_where_the_limit_falls() {
        // Limit 50 ms halfway (in log space) between 25 and 100 ms.
        let r = interpolate_capacity((1000.0, 25.0), Some((4000.0, 100.0)));
        assert!((r - 2000.0).abs() < 1e-6, "{r}");
        // No missing rung, or a miss that was not a p99 miss: the rung.
        assert_eq!(interpolate_capacity((1000.0, 25.0), None), 1000.0);
        assert_eq!(interpolate_capacity((1000.0, 25.0), Some((1250.0, f64::INFINITY))), 1000.0);
    }
}
