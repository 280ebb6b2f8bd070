//! Input generation and the build phase: the back-of-house path from the
//! two files through all six stages of a `Run`.

use crate::host::Timed;
use crate::report::median;
use crate::spans::Tracer;
use crate::Ctx;
use overton::model::{
    AggregationKind, EmbeddingKind, EncoderKind, SearchConfig, TrainConfig, TuningSpec,
};
use overton::nlp::{write_two_file_workload, WorkloadConfig};
use overton::{OvertonOptions, Project, Run, Stage};
use std::path::PathBuf;
use std::time::Instant;

/// Final training epochs (search trials train for one).
const EPOCHS: usize = 3;

/// The generated two-file workload.
pub struct Inputs {
    pub schema: PathBuf,
    pub data: PathBuf,
    config: WorkloadConfig,
}

/// The first build's output: the completed run and the project that
/// built it, whose options every later run of the benchmark uses.
pub struct Built {
    pub run: Run,
    pub project: Project,
}

/// Pipeline options: a short search over two equal-cost architectures
/// (so the seed changes which one wins but not what a build costs), with
/// search threads capped at the host's cores, and a fixed final budget.
pub fn options(ctx: &Ctx) -> OvertonOptions {
    OvertonOptions {
        tuning: Some(TuningSpec {
            sizes: vec![(32, 48)],
            encoders: vec![EncoderKind::Cnn],
            embeddings: vec![EmbeddingKind::Learned],
            aggregations: vec![AggregationKind::Mean, AggregationKind::Max],
        }),
        search: SearchConfig {
            trials: 2,
            threads: ctx.nproc,
            seed: ctx.seed,
            train: TrainConfig { epochs: 1, early_stop_patience: 0, ..Default::default() },
        },
        train: TrainConfig {
            epochs: EPOCHS,
            early_stop_patience: 0,
            seed: ctx.seed,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Writes the seeded two-file workload the run builds from.
pub fn setup_inputs(ctx: &Ctx) -> Inputs {
    let rows = ctx.plan.train_rows;
    let config = WorkloadConfig {
        n_train: rows,
        n_dev: rows / 10,
        n_test: rows / 5,
        seed: ctx.seed,
        ..Default::default()
    };
    let (schema, data) = write_two_file_workload(&config, ctx.work.join("inputs"))
        .expect("write the two-file workload");
    Inputs { schema, data, config }
}

/// Seconds one more generation of the same inputs takes (into a scratch
/// directory that is removed afterwards): the input part of `setup_s`.
pub fn time_inputs(ctx: &Ctx, inputs: &Inputs) -> f64 {
    let dir = ctx.work.join("inputs-again");
    let start = Instant::now();
    write_two_file_workload(&inputs.config, &dir).expect("write the two-file workload");
    let secs = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).ok();
    secs
}

/// One full build: `Project::start` (ingest) then `Run::advance` through
/// every later stage, each inside a span.
fn build_once(tracer: &Tracer, project: &Project) -> Result<Run, String> {
    tracer
        .span("core.build", || {
            let (run, _) = tracer.span("core.ingest", || project.start());
            let mut run = run.map_err(|e| e.to_string())?;
            while let Some(stage) = run.next_stage() {
                let (advanced, _) =
                    tracer.span(&format!("core.{}", stage.name()), || run.advance());
                advanced.map_err(|e| e.to_string())?;
            }
            Ok(run)
        })
        .0
}

/// The builds of one run: one per round (a traced run alternates traced
/// and untraced builds). Reports `build_s` and `test_accuracy`, and
/// checks that every repeat reached the same accuracy bit for bit.
pub struct Builds {
    project: Project,
    plain: Tracer,
    traced_s: Vec<Timed>,
    plain_s: Vec<Timed>,
    accuracies: Vec<f64>,
}

impl Builds {
    pub fn new(ctx: &Ctx, inputs: &Inputs) -> Builds {
        Builds {
            project: Project::from_files(&inputs.schema, &inputs.data).with_options(options(ctx)),
            plain: Tracer::new(false),
            traced_s: Vec::new(),
            plain_s: Vec::new(),
            accuracies: Vec::new(),
        }
    }

    /// Builds once; `None` (with the failure recorded) when it failed.
    pub fn once(&mut self, ctx: &mut Ctx) -> Option<Run> {
        let traced = ctx.tracer.enabled() && self.traced_s.len() <= self.plain_s.len();
        let t0 = Instant::now();
        let run = build_once(if traced { &ctx.tracer } else { &self.plain }, &self.project);
        let secs = Timed::since(t0);
        ctx.attempted += 1;
        match run {
            Ok(run) => {
                if traced { &mut self.traced_s } else { &mut self.plain_s }.push(secs);
                self.accuracies.push(run.mean_test_accuracy());
                Some(run)
            }
            Err(e) => {
                ctx.failed += 1;
                ctx.check(false, || format!("build failed: {e}"));
                None
            }
        }
    }

    /// The first build, which every later phase serves and repairs.
    pub fn first(&mut self, ctx: &mut Ctx, inputs: &Inputs) -> Option<Built> {
        let run = self.once(ctx)?;
        let project = Project::from_files(&inputs.schema, &inputs.data).with_options(options(ctx));
        Some(Built { run, project })
    }

    pub fn report(self, ctx: &mut Ctx, built: &Built) {
        let accuracies = &self.accuracies;
        ctx.check(accuracies.iter().all(|a| a.to_bits() == accuracies[0].to_bits()), || {
            format!("test accuracy differs across identical builds: {accuracies:?}")
        });
        let all: Vec<Timed> = self.traced_s.iter().chain(&self.plain_s).copied().collect();
        ctx.end_to_end.put("build_s", ctx.host.median_at_reference(&all), "s");
        if !ctx.plan.retrained_accuracy {
            ctx.end_to_end.put("test_accuracy", accuracies[0], "fraction");
        }
        let run = &built.run;
        println!(
            "build: {} rows, {} builds, {:?} s, chosen {:?}/{:?}, test accuracy {:.6}",
            run.store().len(),
            all.len(),
            all.iter().map(|s| (s.value * 1e3).round() / 1e3).collect::<Vec<_>>(),
            run.chosen_config().map(|c| c.encoder),
            run.chosen_config().map(|c| c.aggregation),
            accuracies[0]
        );
        if ctx.tracer.enabled() {
            per_layer(ctx, run, &self.traced_s, &self.plain_s);
        }
    }
}

fn per_layer(ctx: &mut Ctx, run: &Run, traced_s: &[Timed], plain_s: &[Timed]) {
    let t = &ctx.tracer;
    let stage_ms = |stage: Stage| median(&t.durations_ms(&format!("core.{}", stage.name())));
    let records = |stage: Stage| run.report().stage(stage).map_or(0, |s| s.records) as f64;
    let m = &mut ctx.per_layer;
    for stage in Stage::ALL {
        m.put(&format!("core.{}_ms", stage.name()), stage_ms(stage), "ms");
    }
    m.put("core.unattributed_ms", median(&t.self_ms("core.build")), "ms");
    m.put(
        "store.ingest_rows_per_s",
        records(Stage::Ingest) / stage_ms(Stage::Ingest) * 1e3,
        "rows/s",
    );
    m.put(
        "supervision.combine_rows_per_s",
        records(Stage::Combine) / stage_ms(Stage::Combine) * 1e3,
        "rows/s",
    );
    let trials = run.trials().len() as f64;
    m.put("model.search_trials", trials, "count");
    m.put("model.search_ms_per_trial", stage_ms(Stage::Search) / trials.max(1.0), "ms");
    let epochs = run.train_report().map_or(0, |r| r.epochs_run) as f64;
    m.put("model.train_epochs_run", epochs, "count");
    m.put(
        "model.train_examples_per_s",
        records(Stage::Train) * epochs / stage_ms(Stage::Train) * 1e3,
        "examples/s",
    );
    m.put(
        "model.evaluate_rows_per_s",
        records(Stage::Evaluate) / stage_ms(Stage::Evaluate) * 1e3,
        "rows/s",
    );
    let values = |timings: &[Timed]| timings.iter().map(|t| t.value).collect::<Vec<f64>>();
    let (traced, plain) = (median(&values(traced_s)), median(&values(plain_s)));
    m.put("trace.build_overhead_frac", (traced - plain) / plain, "fraction");
}
