//! The seeded end-to-end benchmark of the Overton loop.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload build|serve|loop --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload drives the paper's Figure-1 loop through the public
//! API of the product crates: the two files are generated from the seed
//! and built into a model (`Project::from_files(..).start()` and
//! `Run::advance` through all six stages), the model is deployed behind
//! the socket tier with an obs `Monitor` attached and driven by an
//! open-loop load generator, and drifted traffic is served until the
//! monitor alerts, when the captured rows go through a live store into a
//! warm-started incremental retrain and its significance gate. The
//! workloads differ in where the measured time goes (see `Plan`).
//!
//! The phases run interleaved, in rounds, for the whole of `--seconds`,
//! so that each metric's samples are spread over the run: a slow spell
//! of the host then moves a few samples of every metric instead of all
//! samples of one.
//!
//! Between the phases the run times a fixed reference computation of its
//! own, and the end-to-end timings are reported at a reference host
//! speed (see `host`): on a shared virtual machine the host's speed
//! drifts by more than any bound the end-to-end gate allows.
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! with the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics, measured from spans the benchmark records around each call
//! into a layer (the spans are written to `.perfbench/`). A failed
//! correctness check prints the failure, reports `"correct": false`
//! without metrics and exits with status 1.

mod build;
mod host;
mod layers;
mod load;
mod repair;
mod report;
mod serve;
mod spans;

use host::{HostSpeed, Timed};
use report::Metrics;
use spans::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Where one workload spends its measured time. Every workload runs
/// every phase in every round (so every metric is measured on every
/// workload); the input size and what a round holds differ.
#[derive(Debug)]
pub struct Plan {
    pub name: &'static str,
    /// Training rows of the generated two-file workload (dev and test
    /// add a tenth and a fifth of this).
    pub train_rows: usize,
    /// Seconds of nominal serving load per round, as a share of
    /// `--seconds`, served in equal slices after the build and after each
    /// episode.
    pub serve_share: f64,
    /// Repair episodes per round.
    pub episodes: usize,
    /// Whether `test_accuracy` is the retrained run's (the loop's) rather
    /// than the built run's.
    pub retrained_accuracy: bool,
}

const PLANS: [Plan; 3] = [
    Plan {
        name: "build",
        train_rows: 3000,
        serve_share: 0.08,
        episodes: 2,
        retrained_accuracy: false,
    },
    Plan {
        name: "serve",
        train_rows: 1200,
        serve_share: 0.10,
        episodes: 2,
        retrained_accuracy: false,
    },
    Plan {
        name: "loop",
        train_rows: 2000,
        serve_share: 0.08,
        episodes: 2,
        retrained_accuracy: true,
    },
];

/// Fewest rounds a run makes (a traced run makes at least four, so that
/// traced and untraced builds and serving slices both repeat).
const MIN_ROUNDS: usize = 3;
/// Input generations and deployments timed per round (`setup_s` is the
/// median of their sums).
const SETUPS_PER_ROUND: usize = 3;

/// Longest a run may take before it is failed.
const RUN_DEADLINE: std::time::Duration = std::time::Duration::from_secs(170);

/// Everything one run shares between its phases.
pub struct Ctx {
    pub plan: &'static Plan,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub work: PathBuf,
    /// Records spans when the run is traced; times without keeping
    /// anything otherwise.
    pub tracer: Tracer,
    /// The reference timings between phases that put the run's timings
    /// at the reference host speed.
    pub host: HostSpeed,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Operations attempted and failed (requests sent, builds, repairs).
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
}

impl Ctx {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload build|serve|loop --seed N --seconds S --trace 0|1\n{e}");
            std::process::exit(2);
        }
    };
    let Some(plan) = PLANS.iter().find(|p| p.name == args.workload) else {
        eprintln!("unknown workload {:?} (build, serve or loop)", args.workload);
        std::process::exit(2);
    };
    // Everything the run writes — generated inputs, run directories,
    // registries, live stores and the trace — stays under `.perfbench/`
    // in the working directory, including what the product crates put in
    // the temp directory.
    let root = std::env::current_dir().expect("working directory").join(".perfbench");
    let work = root.join(format!("work-{}-{}", plan.name, std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(work.join("tmp")).expect("create the work directory");
    std::env::set_var("TMPDIR", work.join("tmp"));

    // A run that hangs must still end: fail it well inside the three
    // minutes a run may take.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_DEADLINE);
        eprintln!("the run exceeded {} s", RUN_DEADLINE.as_secs());
        std::process::exit(1);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ctx = Ctx {
        plan,
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        work: work.clone(),
        tracer: Tracer::new(args.trace),
        host: HostSpeed::new(),
        end_to_end: Metrics::default(),
        per_layer: Metrics::default(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let started = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut ctx)));
    if result.is_err() {
        ctx.failures.push("the run panicked".into());
    }
    let peak_rss_mb = report::peak_rss_mb();
    ctx.end_to_end.put("peak_rss_mb", peak_rss_mb, "MB");
    println!(
        "host: nproc={nproc} pool_workers={nproc} search_threads={nproc} seed={} workload={} \
         seconds={} trace={} peak_rss_mb={peak_rss_mb:.1} wall_s={:.2}",
        args.seed,
        plan.name,
        args.seconds,
        args.trace as u8,
        started.elapsed().as_secs_f64()
    );
    if args.trace {
        let out = root.join(format!("trace-{}-seed{}.jsonl", plan.name, args.seed));
        match ctx.tracer.write_jsonl(&out) {
            Ok(()) => println!("spans: {}", out.display()),
            Err(e) => ctx.failures.push(format!("writing {}: {e}", out.display())),
        }
    }
    std::fs::remove_dir_all(&work).ok();
    if args.trace && ctx.failures.is_empty() {
        check_layers(&mut ctx);
    }
    let metrics = if args.trace { &ctx.per_layer } else { &ctx.end_to_end };
    for (name, value) in metrics.iter() {
        if !value.is_finite() {
            ctx.failures.push(format!("metric {name} is not a finite number ({value})"));
        }
    }
    println!("{}", report::result_line(&ctx.failures, ctx.attempted, ctx.failed, metrics));
    if !ctx.failures.is_empty() {
        std::process::exit(1);
    }
}

/// Checks that the traced run emitted exactly the per-layer metrics of
/// [`layers::LAYERS`], and prints what each should move.
fn check_layers(ctx: &mut Ctx) {
    let emitted: Vec<&str> = ctx.per_layer.iter().map(|(name, _)| name).collect();
    for (name, _, moves) in layers::LAYERS {
        println!("layer: {name} -> {moves}");
    }
    let mut expected: Vec<&str> = layers::LAYERS.iter().map(|(name, _, _)| *name).collect();
    expected.sort_unstable();
    if emitted != expected {
        let msg = format!("per-layer metrics differ from the table: emitted {emitted:?}");
        ctx.failures.push(msg);
    }
}

/// Runs every phase of the loop on the plan's inputs, in rounds until
/// `--seconds` have passed: each round times the set-up, builds, serves
/// slices of nominal load and repairs. A failure ends the rounds.
fn run(ctx: &mut Ctx) {
    let inputs = build::setup_inputs(ctx);
    let start = Instant::now();
    let mut builds = build::Builds::new(ctx, &inputs);
    ctx.host.probe();
    let Some(built) = builds.first(ctx, &inputs) else { return };
    let mut serving = serve::Serving::start(ctx, &built);
    let mut episodes = Vec::new();
    let mut setups = Vec::new();
    let min_rounds = if ctx.tracer.enabled() { MIN_ROUNDS + 1 } else { MIN_ROUNDS };
    for round in 0.. {
        if round >= min_rounds && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        for _ in 0..SETUPS_PER_ROUND {
            ctx.host.probe();
            let start = Instant::now();
            let value = build::time_inputs(ctx, &inputs) + serve::time_deploy(ctx, &built);
            setups.push(Timed { value, start, end: Instant::now() });
        }
        if round > 0 {
            ctx.host.probe();
            builds.once(ctx);
        }
        ctx.host.probe();
        serving.slice(ctx);
        for _ in 0..ctx.plan.episodes {
            ctx.host.probe();
            if !repair::run_episode(ctx, &inputs, &built, &mut episodes) {
                break;
            }
            ctx.host.probe();
            serving.slice(ctx);
        }
        if !ctx.failures.is_empty() {
            break;
        }
    }
    // The last phase's timings get a probe after them too.
    ctx.host.probe();
    ctx.end_to_end.put("setup_s", ctx.host.median_at_reference(&setups), "s");
    let ms = setups.iter().map(|s| (s.value * 1e4).round() / 10.0).collect::<Vec<f64>>();
    println!("setup: {} rounds, {ms:?} ms", setups.len() / SETUPS_PER_ROUND);
    builds.report(ctx, &built);
    serving.finish(ctx);
    repair::report(ctx, &episodes);
    println!(
        "host speed: reference computation {:.4} ms (median of {} probes; {} ms at the \
         reference speed); the end-to-end timings are scaled to the reference speed, the \
         figures printed above are as measured",
        ctx.host.reference_ms(),
        ctx.host.probes(),
        host::REFERENCE_MS
    );
    if ctx.tracer.enabled() {
        ctx.per_layer.put("host.reference_ms", ctx.host.reference_ms(), "ms");
    }
}
