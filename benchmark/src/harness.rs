//! One workload, one process: what the driver's
//! `--workload W --seed N --seconds S --trace 0|1` runs, and what `run`
//! spawns once per workload and mode so that `peak_rss_mib` is each
//! workload's own.

use std::path::{Path, PathBuf};
use std::time::Instant;

use impatience_json::Json;

use crate::catalog::{unit_of, END_TO_END, PER_LAYER, WORKLOADS};
use crate::gen::Size;
use crate::host;
use crate::stats::{median, timed};
use crate::trace::Tracer;
use crate::workloads::campaign_service::CampaignService;
use crate::workloads::net_qcr::NetQcr;
use crate::workloads::sharded_scale::ShardedScale;
use crate::workloads::solve_batch::SolveBatch;
use crate::workloads::solve_service::SolveService;
use crate::workloads::spec_run::{PaperSweep, TraceReplay};
use crate::workloads::{Env, Layers, Rep, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Most a traced repetition may take, as a multiple of an untraced one:
/// spans that cost more distort the per-layer numbers they produce.
const TRACE_OVERHEAD_LIMIT: f64 = 1.05;

/// The checkout this binary was built in. `BENCHMARK.json` is read from
/// it, so the program works from any directory.
pub const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Where every process of the benchmark keeps its files: in that checkout,
/// never outside.
pub const SCRATCH_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_tmp");

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// A directory of this process's own, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> Result<Scratch, String> {
        let dir = Path::new(SCRATCH_ROOT).join(format!("w{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One named value with its sample count.
struct Measured {
    name: &'static str,
    value: f64,
    n: usize,
}

struct Outcome {
    attempted: u64,
    failed: u64,
    repetitions: usize,
    metrics: Vec<Measured>,
}

/// Run the workload named in `args` and print its result; the last line
/// of stdout is the driver's JSON object.
pub fn run_child(args: &ChildArgs) -> Result<(), String> {
    let started = Instant::now();
    let stolen_before = host::stolen_s();
    let scratch = Scratch::create()?;
    let env = Env {
        seed: args.seed,
        size: args.size,
        workers: host::workers(),
        scratch: &scratch.0,
    };
    let outcome = match args.workload.as_str() {
        "paper_sweep" => measure::<PaperSweep>(&env, args),
        "trace_replay" => measure::<TraceReplay>(&env, args),
        "sharded_scale" => measure::<ShardedScale>(&env, args),
        "solve_batch" => measure::<SolveBatch>(&env, args),
        "solve_service" => measure::<SolveService>(&env, args),
        "campaign_service" => measure::<CampaignService>(&env, args),
        "net_qcr" => measure::<NetQcr>(&env, args),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {:?})",
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        )),
    }?;
    drop(scratch);

    for m in &outcome.metrics {
        println!(
            "{:<34} {:>16.6} {:<12} n={}",
            m.name,
            m.value,
            unit_of(m.name).expect("metrics come from the catalog"),
            m.n
        );
    }
    // For `run`: what the driver's line has no room for.
    let mut detail = String::new();
    Json::obj([
        ("repetitions", Json::from(outcome.repetitions)),
        ("wall_s", Json::from(started.elapsed().as_secs_f64())),
        ("stolen_s", Json::from(host::stolen_s() - stolen_before)),
        (
            "n",
            Json::Object(
                outcome
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), Json::from(m.n)))
                    .collect(),
            ),
        ),
    ])
    .write(&mut detail);
    println!("#detail {detail}");

    // Every metric of the mode, by name; a layer not on this workload's
    // path reads 0.
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let metrics = names.into_iter().map(|name| {
        let value = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        let unit = unit_of(name).expect("metrics come from the catalog");
        (
            name.to_string(),
            Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
        )
    });
    let mut line = String::new();
    Json::obj([
        ("correct", Json::from(true)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::Object(metrics.collect())),
    ])
    .write(&mut line);
    println!("{line}");
    Ok(())
}

fn measure<W: Workload>(env: &Env<'_>, args: &ChildArgs) -> Result<Outcome, String> {
    if args.trace {
        measure_layers::<W>(env, args)
    } else {
        measure_end_to_end::<W>(env, args)
    }
}

/// Set up (generate, build, warm-up repetition) and time it.
fn set_up<W: Workload>(env: &Env<'_>, off: &Tracer) -> Result<(W, f64), String> {
    let (workload, wall_s) = timed(|| -> Result<W, String> {
        let mut workload = W::setup(env)?;
        workload.repetition(off)?;
        Ok(workload)
    });
    Ok((workload?, wall_s))
}

/// Run repetitions while `more(done, elapsed seconds)` says so, taking the
/// tracers in turn.
fn repeat<W: Workload>(
    workload: &mut W,
    tracers: &[&Tracer],
    more: impl Fn(usize, f64) -> bool,
) -> Result<Vec<Rep>, String> {
    let mut reps: Vec<Rep> = Vec::new();
    let t0 = Instant::now();
    while more(reps.len(), t0.elapsed().as_secs_f64()) {
        let tracer = tracers[reps.len() % tracers.len()];
        tracer.next_run();
        let rep = tracer.span("bench.repetition", || workload.repetition(tracer))?;
        eprintln!(
            "  repetition {}: {} ops in {:.3} s, latency p50 {:.4} ms",
            reps.len() + 1,
            rep.ops,
            rep.wall_s,
            median(&rep.latencies_ms)
        );
        reps.push(rep);
    }
    Ok(reps)
}

/// `--trace 0`: the end-to-end metrics, tracing off. The repetitions are
/// here for their checks and their failures; the traced run times them.
fn measure_end_to_end<W: Workload>(env: &Env<'_>, args: &ChildArgs) -> Result<Outcome, String> {
    let off = Tracer::new(false);

    // What the process has held by the end of the first pass is what one
    // pass of the workload needs. Later passes only reuse and fragment
    // that memory, and how many there are depends on the host's speed.
    let (mut workload, first_s) = set_up::<W>(env, &off)?;
    let peak_rss_mib = host::peak_rss_mib();
    if let Some(limit) = W::RSS_LIMIT_MIB.filter(|&limit| peak_rss_mib > limit) {
        return Err(format!(
            "peak RSS {peak_rss_mib:.1} MiB is over {limit} MiB"
        ));
    }
    let mut setup_s = vec![first_s];
    for _ in 1..SETUPS {
        // The previous instance goes first, so two never coexist.
        drop(workload);
        let (next, wall_s) = set_up::<W>(env, &off)?;
        setup_s.push(wall_s);
        workload = next;
    }
    eprintln!("  set-ups: {setup_s:.3?} s");

    let reps = repeat(&mut workload, &[&off], |done, s| {
        done == 0 || s < args.seconds
    })?;
    drop(workload);

    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let metrics = vec![
        Measured {
            name: "setup_s",
            value: median(&setup_s),
            n: setup_s.len(),
        },
        Measured {
            name: "peak_rss_mib",
            value: peak_rss_mib,
            n: 1,
        },
        Measured {
            name: "ok_share",
            value: 1.0 - failed as f64 / attempted as f64,
            n: attempted as usize,
        },
    ];
    Ok(Outcome {
        attempted,
        failed,
        repetitions: reps.len(),
        metrics,
    })
}

/// `--trace 1`: repetitions without and with spans, then the probes.
fn measure_layers<W: Workload>(env: &Env<'_>, args: &ChildArgs) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let on = Tracer::new(true);
    let (mut workload, _) = set_up::<W>(env, &off)?;

    // Untraced and traced repetitions alternate. The untraced ones give
    // throughput and latency as measured, medians over repetitions and
    // over latency-ops.
    let reps = repeat(&mut workload, &[&off, &on], |done, s| {
        done % 2 == 1 || done == 0 || s < args.seconds
    })?;
    let untraced: Vec<&Rep> = reps.iter().step_by(2).collect();
    let rates: Vec<f64> = untraced.iter().map(|r| r.ops as f64 / r.wall_s).collect();
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.latencies_ms.iter().copied())
        .collect();
    if latencies.is_empty() {
        return Err("no latency-op completed".into());
    }
    // What a traced repetition takes as a multiple of an untraced one:
    // an untraced one plus the time the tracer spent recording. (The ratio
    // of two repetitions' wall times says less: on a shared host
    // neighbours differ by ±15% on their own.)
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let recording_s = on.busy_s() / (reps.len() / 2) as f64;
    let overhead = 1.0 + recording_s / median(&walls);
    if overhead > TRACE_OVERHEAD_LIMIT {
        return Err(format!(
            "recording spans takes {recording_s:.4} s of a repetition: the traced run is \
             {overhead:.3} times the untraced one, over {TRACE_OVERHEAD_LIMIT}"
        ));
    }
    let mut metrics = vec![
        Measured {
            name: "ops_per_s",
            value: median(&rates),
            n: rates.len(),
        },
        Measured {
            name: "latency_p50_ms",
            value: median(&latencies),
            n: latencies.len(),
        },
        Measured {
            name: "bench.trace_overhead_ratio",
            value: overhead,
            n: reps.len() / 2,
        },
    ];

    let mut layers = Layers::default();
    on.next_run();
    on.span("bench.probes", || workload.probes(&on, &mut layers))?;
    drop(workload);
    metrics.extend(
        layers
            .iter()
            .map(|(name, value)| Measured { name, value, n: 1 }),
    );

    let path = args.trace_out.clone().unwrap_or_else(|| {
        Path::new(SCRATCH_ROOT).join(format!("{}-seed{}.trace.json", args.workload, args.seed))
    });
    let mut text = String::new();
    on.to_json().write(&mut text);
    text.push('\n');
    impatience_obs::write_atomic(&path, text.as_bytes())
        .map_err(|e| format!("{}: {e}", path.display()))?;

    Ok(Outcome {
        attempted: reps.iter().map(|r| r.ops).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        repetitions: reps.len(),
        metrics,
    })
}
