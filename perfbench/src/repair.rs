//! The loop phase: Figure 1's repair path, repeated as episodes.
//!
//! In each episode the built run's training rows sit sealed in a fresh
//! `LiveStore` with the background compactor running, and the built run
//! is deployed with a `Monitor` attached. Gold-labelled drifting traffic
//! is served in window-sized bursts. On the first alert on the drifted
//! slice the watchdog captures that slice's traffic into the live store,
//! `flush` seals it as a delta, a snapshot is pinned, the compactor is
//! kicked, and `retrain_for_slice_incremental` warm-starts from the built
//! run and runs the significance gate while the compactor merges the
//! delta into a new base underneath the pinned snapshot. Warm runs never
//! search, so this path bypasses architecture search and JSONL ingest.
//!
//! Every episode of a run replays the same seeded traffic, so the
//! retrained run's accuracy must come out bit-identical each time,
//! however the compaction interleaved with the retrain.

use crate::build::{Built, Inputs};
use crate::host::Timed;
use crate::report::{mean, median};
use crate::Ctx;
use overton::nlp::{
    DriftConfig, DriftingTrafficStream, KnowledgeBase, TrafficConfig,
    SLICE_COMPLEX_DISAMBIGUATION as DRIFTED,
};
use overton::obs::{default_rules, ObsConfig, Severity, Watchdog, WatchdogConfig};
use overton::serving::ServingConfig;
use overton::stats::{evaluate_promotion, DEFAULT_ALPHA};
use overton::store::{LiveStore, Record};
use overton::{Project, RunReport, Stage};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per monitor window (and per served burst).
const WINDOW: u64 = 256;
/// Stationary windows before the drift begins.
const PRE_DRIFT_WINDOWS: u64 = 6;
/// Drifted windows served before an episode without an alert fails.
const MAX_DRIFT_WINDOWS: u64 = 8;
/// Longest the background compactor may take to commit the captured
/// delta before the episode fails.
const COMPACT_DEADLINE: Duration = Duration::from_secs(20);

/// One episode's measurements.
pub struct Episode {
    repair_s: Timed,
    /// Mean test accuracy of the retrained run.
    accuracy: f64,
    detect_windows: f64,
    false_alerts: f64,
    alerts: f64,
    windows: f64,
    pump_ms: f64,
    captured: f64,
    capture_ms: f64,
    flush_ms: f64,
    snapshot_ms: f64,
    retrain_ms: f64,
    compact_ms: f64,
    compactions: f64,
    stages_ms: Vec<(Stage, f64)>,
    promotion_ms: f64,
    meter_remaining: f64,
}

/// Runs one more episode and appends it to `episodes`; `false` (with
/// the failure recorded) when it failed.
pub fn run_episode(
    ctx: &mut Ctx,
    inputs: &Inputs,
    built: &Built,
    episodes: &mut Vec<Episode>,
) -> bool {
    let k = episodes.len();
    ctx.attempted += 1;
    match episode(ctx, inputs, built, k) {
        Ok(e) => {
            episodes.push(e);
            true
        }
        Err(e) => {
            ctx.failed += 1;
            ctx.check(false, || format!("loop episode {k}: {e}"));
            false
        }
    }
}

/// Reports the end-to-end and per-layer metrics of the episodes.
pub fn report(ctx: &mut Ctx, episodes: &[Episode]) {
    if episodes.is_empty() {
        return;
    }
    let col = |f: &dyn Fn(&Episode) -> f64| episodes.iter().map(f).collect::<Vec<f64>>();
    let repairs: Vec<Timed> = episodes.iter().map(|e| e.repair_s).collect();
    let repair_s = ctx.host.median_at_reference(&repairs);
    let detect = mean(&col(&|e| e.detect_windows));
    let accuracies = col(&|e| e.accuracy);
    ctx.check(accuracies.iter().all(|a| a.to_bits() == accuracies[0].to_bits()), || {
        format!("retrained test accuracy differs across identical episodes: {accuracies:?}")
    });
    ctx.end_to_end.put("repair_s", repair_s, "s");
    ctx.end_to_end.put("detect_windows", detect, "windows");
    if ctx.plan.retrained_accuracy {
        ctx.end_to_end.put("test_accuracy", accuracies[0], "fraction");
    }
    println!(
        "loop: {} episodes, repair {:?} s, detect {detect:.2} windows, \
         false alerts {:?}, captured {:?}, retrained test accuracy {:.6}",
        episodes.len(),
        col(&|e| (e.repair_s.value * 1e3).round() / 1e3),
        col(&|e| e.false_alerts),
        col(&|e| e.captured),
        accuracies[0]
    );
    if !ctx.tracer.enabled() {
        return;
    }
    let m = &mut ctx.per_layer;
    for stage in Stage::ALL {
        let v = col(&|e| e.stages_ms.iter().find(|(s, _)| *s == stage).map_or(0.0, |(_, ms)| *ms));
        m.put(&format!("core.incremental.{}_ms", stage.name()), median(&v), "ms");
    }
    let unattributed = col(&|e| e.retrain_ms - e.stages_ms.iter().map(|(_, ms)| ms).sum::<f64>());
    m.put("core.incremental.unattributed_ms", median(&unattributed), "ms");
    let repair_rest =
        col(&|e| e.repair_s.value * 1e3 - e.capture_ms - e.flush_ms - e.snapshot_ms - e.retrain_ms);
    m.put("loop.repair_unattributed_ms", median(&repair_rest), "ms");
    m.put(
        "store.live.append_rows_per_s",
        median(&col(&|e| e.captured / e.capture_ms * 1e3)),
        "rows/s",
    );
    m.put("store.live.flush_ms", median(&col(&|e| e.flush_ms)), "ms");
    m.put("store.live.snapshot_ms", median(&col(&|e| e.snapshot_ms)), "ms");
    m.put("store.live.compact_ms", median(&col(&|e| e.compact_ms)), "ms");
    m.put("store.live.compactions", col(&|e| e.compactions).iter().sum(), "count");
    m.put("obs.pump_ms_per_window", median(&col(&|e| e.pump_ms / e.windows)), "ms");
    m.put("obs.windows_closed", mean(&col(&|e| e.windows)), "windows/episode");
    m.put("obs.alerts", mean(&col(&|e| e.alerts)), "alerts/episode");
    m.put("obs.false_alerts", mean(&col(&|e| e.false_alerts)), "alerts/episode");
    m.put("monitor.promotion_ms", median(&col(&|e| e.promotion_ms)), "ms");
    m.put("monitor.meter_remaining", median(&col(&|e| e.meter_remaining)), "count");
}

fn episode(ctx: &mut Ctx, inputs: &Inputs, built: &Built, k: usize) -> Result<Episode, String> {
    let root = ctx.work.join(format!("episode-{k}"));
    let project = Project::from_files(&inputs.schema, &inputs.data)
        .with_options(built.project.options().clone())
        .at(&root);
    let deployment = project
        .deploy_with(&built.run, ServingConfig { workers: ctx.nproc, ..Default::default() })
        .map_err(|e| format!("deploy: {e}"))?;
    let mut monitor = deployment
        .watch_with(ObsConfig {
            window_len: WINDOW,
            rules: default_rules(deployment.pool().telemetry().slice_names()),
            ..Default::default()
        })
        .map_err(|e| format!("watch: {e}"))?;
    let live = Arc::new(
        LiveStore::create_from(root.join("live"), built.run.store().clone())
            .map_err(|e| format!("live store: {e}"))?,
    );
    let compactor = live.start_compactor(Duration::from_millis(20));
    let kb = KnowledgeBase::standard();
    let mut stream = DriftingTrafficStream::new(
        &kb,
        DriftConfig {
            base: TrafficConfig { seed: ctx.seed.wrapping_mul(1009), ..Default::default() },
            drift_start: (PRE_DRIFT_WINDOWS * WINDOW) as usize,
            drift_ramp: WINDOW as usize,
            ..Default::default()
        },
    );
    let tracer = &ctx.tracer;
    let mut served: Vec<Record> = Vec::new();
    let mut pump_ms = 0.0;
    let mut alert = None;
    for _ in 0..PRE_DRIFT_WINDOWS + MAX_DRIFT_WINDOWS {
        let burst = stream.records(WINDOW as usize);
        served.extend(burst.iter().cloned());
        let (replies, _) = tracer.span("serving.pool.process", || deployment.pool().process(burst));
        if let Some(r) = replies.iter().find(|r| r.result.is_err()) {
            return Err(format!("a drifted request failed: {:?}", r.result));
        }
        let (_, d) = tracer.span("obs.pump", || monitor.pump());
        pump_ms += d.as_secs_f64() * 1e3;
        alert = monitor
            .alerts()
            .iter()
            .find(|a| a.slice.as_deref() == Some(DRIFTED) && a.window >= PRE_DRIFT_WINDOWS)
            .map(|a| a.window);
        if alert.is_some() {
            break;
        }
    }
    let Some(alert_window) = alert else {
        return Err(format!("no alert on {DRIFTED} within {MAX_DRIFT_WINDOWS} drifted windows"));
    };
    // The repair: capture, seal, pin, kick the compactor, warm retrain
    // and gate.
    let watchdog = Watchdog::new(WatchdogConfig {
        min_severity: Severity::Warning,
        sustain_windows: 1,
        min_count: 10,
    });
    let repair_start = Instant::now();
    let (repaired, _) = tracer.span("loop.repair", || {
        let (captured, capture) =
            tracer.span("store.live.append", || watchdog.capture_into(&monitor, &served, &live));
        let captured = captured.map_err(|e| format!("capture: {e}"))?;
        let (flushed, flush) = tracer.span("store.live.flush", || live.flush());
        flushed.map_err(|e| format!("flush: {e}"))?;
        let (snapshot, snap) = tracer.span("store.live.snapshot", || live.snapshot());
        let commit = watch_commit(&live, snapshot.generation());
        compactor.kick();
        let (report, retrain) = tracer.span("core.incremental", || {
            project.retrain_for_slice_incremental(&built.run, &snapshot, DRIFTED)
        });
        let report = report.map_err(|e| format!("incremental retrain: {e}"))?;
        Ok::<_, String>((captured, capture, flush, snap, retrain, report, snapshot, commit))
    });
    let repair_s = Timed::since(repair_start);
    let (captured, capture, flush, snap, retrain, report, snapshot, commit) = repaired?;
    // The background compaction kicked before the retrain: when it
    // committed, and how many generations it committed.
    let compact = commit.join().map_err(|_| "the compaction watcher panicked")?;
    let compactions = live.generation() - snapshot.generation();

    // Checks: the retrain warm-started from the pinned snapshot, never
    // searched, and its gate decision replays bit for bit.
    let metadata = &report.build.artifact.metadata;
    let generation = snapshot.generation().to_string();
    let mut problems = Vec::new();
    if captured == 0 {
        problems.push("the watchdog captured no rows".to_string());
    }
    if metadata.get("warm_started").map(String::as_str) != Some("true") {
        problems.push("the incremental run did not record warm_started".into());
    }
    if metadata.get("snapshot_generation") != Some(&generation) {
        problems.push(format!("the run did not record snapshot generation {generation}"));
    }
    if !report.build.trials.is_empty() {
        problems.push("the warm run searched".into());
    }
    let ev = &report.evidence;
    let (replayed, promotion) = tracer.span("monitor.promotion", || {
        evaluate_promotion(
            &ev.task,
            &ev.slice,
            (ev.before.successes, ev.before.trials),
            (ev.after.successes, ev.after.trials),
            DEFAULT_ALPHA,
        )
    });
    if replayed.p_value.to_bits() != ev.p_value.to_bits() || replayed.significant != ev.significant
    {
        problems.push("the promotion decision does not replay".into());
    }
    let persisted = read_report(&project).map_err(|e| format!("report.json: {e}"))?;
    if !persisted.warm_started || persisted.snapshot_generation != Some(snapshot.generation()) {
        problems.push("report.json lacks the warm start or the snapshot generation".into());
    }
    drop(snapshot);

    // Compaction: the background compactor merged the captured delta into
    // a new base; stop it and verify the store.
    compactor.stop();
    if let Some(e) = live.take_compact_error() {
        problems.push(format!("background compaction failed: {e}"));
    }
    let Some(compact) = compact else {
        return Err(format!("the background compactor did not commit within {COMPACT_DEADLINE:?}"));
    };
    tracer.record("store.live.compact", compact, None, None);
    if compactions != 1 || live.num_deltas() != 0 {
        problems.push(format!(
            "the kicked compaction committed {compactions} generations and left {} deltas",
            live.num_deltas()
        ));
    }
    if let Err(e) = live.verify() {
        problems.push(format!("LiveStore::verify after compaction: {e}"));
    }
    if !problems.is_empty() {
        return Err(problems.join("; "));
    }

    let false_alerts =
        monitor.alerts().iter().filter(|a| a.window < PRE_DRIFT_WINDOWS).count() as f64;
    let episode = Episode {
        repair_s,
        accuracy: report.build.mean_test_accuracy(),
        detect_windows: (alert_window - PRE_DRIFT_WINDOWS + 1) as f64,
        false_alerts,
        alerts: monitor.alerts().len() as f64,
        windows: monitor.stats().closed() as f64,
        pump_ms,
        captured: captured as f64,
        capture_ms: ms(capture),
        flush_ms: ms(flush),
        snapshot_ms: ms(snap),
        retrain_ms: ms(retrain),
        compact_ms: ms(compact.1 - compact.0),
        compactions: compactions as f64,
        stages_ms: persisted.stages.iter().map(|s| (s.stage, s.wall_ms as f64)).collect(),
        promotion_ms: ms(promotion),
        meter_remaining: ev.meter_remaining.map_or(f64::NAN, |m| m as f64),
    };
    drop(deployment);
    drop(live);
    std::fs::remove_dir_all(&root).ok();
    Ok(episode)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Watches `live` from now until its generation passes `from` (the
/// background compactor's commit), polling every millisecond; yields the
/// watch's start and the commit, or `None` after [`COMPACT_DEADLINE`].
fn watch_commit(live: &Arc<LiveStore>, from: u64) -> JoinHandle<Option<(Instant, Instant)>> {
    let live = Arc::clone(live);
    let start = Instant::now();
    std::thread::spawn(move || loop {
        if live.generation() > from {
            return Some((start, Instant::now()));
        }
        if start.elapsed() > COMPACT_DEADLINE {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    })
}

/// The incremental run's persisted `report.json` (its per-stage
/// `wall_ms` is the breakdown the program exports).
fn read_report(project: &Project) -> Result<RunReport, String> {
    let id = project.latest_run_id().map_err(|e| e.to_string())?.ok_or("no persisted run")?;
    let path = project.runs_dir().ok_or("no runs directory")?.join(id).join("report.json");
    let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}
