//! The repo's performance ledger. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run --seed N -o OUT.json [--smoke]
//! benchmark compare A.json B.json
//! benchmark --workload W --seed N --seconds S --trace 0|1     (one workload; the driver's form)
//! ```

mod catalog;
mod gen;
mod harness;
mod host;
mod http;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use impatience_json::Json;
use impatience_obs::write_atomic;

use catalog::{unit_of, WORKLOADS};
use gen::Size;
use harness::{run_child, ChildArgs, REPO_ROOT, SCRATCH_ROOT};

/// Seconds each child measures for in a full `run`; `BENCHMARK.json`'s
/// `run_seconds` tells the driver the same.
const RUN_SECONDS: f64 = 10.0;
/// A smoke run stops each measurement after its first repetition.
const SMOKE_SECONDS: f64 = 0.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some(flag) if flag.starts_with("--") => child(&args).map(|()| ExitCode::SUCCESS),
        _ => Err(
            "usage: benchmark run --seed N -o OUT.json [--smoke]\n       \
                  benchmark compare A.json B.json\n       \
                  benchmark --workload W --seed N --seconds S --trace 0|1"
                .to_string(),
        ),
    };
    result.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}

/// `--flag value` pairs, plus the bare `--smoke`.
struct Flags {
    pairs: Vec<(String, String)>,
    smoke: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--smoke" {
                flags.smoke = true;
            } else {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.pairs.push((arg.clone(), value.clone()));
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self
            .get(name)
            .ok_or_else(|| format!("{name} is required"))?;
        raw.parse()
            .map_err(|_| format!("cannot parse {name} `{raw}`"))
    }

    /// Reject flags outside `known`, so a typo is not silently ignored.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option `{k}`")),
            None => Ok(()),
        }
    }

    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }
}

fn child(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.only(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--trace-out",
    ])?;
    let seconds: f64 = flags.required("--seconds")?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    run_child(&ChildArgs {
        workload: flags.required("--workload")?,
        seed: flags.required("--seed")?,
        seconds,
        trace: match flags.required::<u8>("--trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
        size: flags.size(),
        trace_out: flags.get("--trace-out").map(PathBuf::from),
    })
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(text.trim()).map_err(|e| format!("{path}: {e}"))
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("compare takes two ledgers: A.json B.json".into());
    };
    let breaches = report::compare(&read_json(base)?, &read_json(new)?)?;
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// What one child process reported.
struct ChildReport {
    /// The driver's line: correct, attempted, failed, metrics.
    result: Json,
    /// Repetitions, wall time, sample counts.
    detail: Json,
}

/// Run one workload in a process of its own and read back its report.
fn spawn_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: Option<&Path>,
    smoke: bool,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace.is_some() { "1" } else { "0" }]);
    if let Some(path) = trace {
        command.arg("--trace-out").arg(path);
    }
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} failed ({}):\n{stdout}", output.status));
    }
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let detail = lines
        .find_map(|l| l.strip_prefix("#detail "))
        .ok_or_else(|| format!("{workload}: no detail line"))?;
    Ok(ChildReport {
        result: Json::parse(result).map_err(|e| format!("{workload}: result line: {e}"))?,
        detail: Json::parse(detail).map_err(|e| format!("{workload}: detail line: {e}"))?,
    })
}

/// The metrics of `report` that the child measured itself (it pads the
/// driver's line with zeros for layers off its path), each with its unit
/// and sample count.
fn measured_metrics(report: &ChildReport) -> Json {
    let counts = report
        .detail
        .get("n")
        .and_then(Json::as_object)
        .unwrap_or_default();
    let metrics = report.result.get("metrics");
    Json::Object(
        counts
            .iter()
            .filter_map(|(name, n)| {
                let value = metrics?.get(name)?.get("value")?.clone();
                Some((
                    name.clone(),
                    Json::obj([
                        ("value", value),
                        ("unit", Json::from(unit_of(name)?)),
                        ("n", n.clone()),
                    ]),
                ))
            })
            .collect(),
    )
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args)?;
    flags.only(&["--seed", "-o"])?;
    let seed: u64 = flags.required("--seed")?;
    let out_path: PathBuf = flags.required("-o")?;
    let smoke = flags.smoke;
    let seconds = if smoke { SMOKE_SECONDS } else { RUN_SECONDS };
    // Read before minutes of measuring, checked against the ledger after.
    let benchmark = read_json(&format!("{REPO_ROOT}/BENCHMARK.json"))?;
    let trace_path = out_path.with_extension("trace.json");
    let started = Instant::now();
    std::fs::create_dir_all(SCRATCH_ROOT).map_err(|e| format!("{SCRATCH_ROOT}: {e}"))?;

    let mut entries = Vec::new();
    let mut traces = Vec::new();
    for w in WORKLOADS {
        eprintln!("── {} ({})", w.name, if smoke { "smoke" } else { "full" });
        let plain = spawn_child(w.name, seed, seconds, None, smoke)?;
        let spans = Path::new(SCRATCH_ROOT).join(format!("run{}.trace.json", std::process::id()));
        let traced = spawn_child(w.name, seed, seconds, Some(&spans), smoke)?;
        let spans_text =
            std::fs::read_to_string(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
        let _ = std::fs::remove_file(&spans);
        traces.push((
            w.name.to_string(),
            Json::parse(spans_text.trim()).map_err(|e| format!("{} spans: {e}", w.name))?,
        ));

        let end_to_end = measured_metrics(&plain);
        let per_layer = measured_metrics(&traced);
        for (group, metrics) in [("end-to-end", &end_to_end), ("per-layer", &per_layer)] {
            for (name, m) in metrics.as_object().unwrap_or_default() {
                println!(
                    "{:<17} {:<10} {:<34} {:>16.6} {:<12} n={}",
                    w.name,
                    group,
                    name,
                    m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    m.get("unit").and_then(Json::as_str).unwrap_or(""),
                    m.get("n").and_then(Json::as_u64).unwrap_or(0)
                );
            }
        }
        let field = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
        entries.push((
            w.name.to_string(),
            Json::obj([
                ("why", Json::from(w.why)),
                ("op", Json::from(w.op)),
                ("latency_op", Json::from(w.latency_op)),
                ("repetitions", field(&plain.detail, "repetitions")),
                ("wall_s", field(&plain.detail, "wall_s")),
                ("stolen_s", field(&plain.detail, "stolen_s")),
                ("traced_wall_s", field(&traced.detail, "wall_s")),
                ("traced_stolen_s", field(&traced.detail, "stolen_s")),
                ("correct", field(&plain.result, "correct")),
                ("attempted", field(&plain.result, "attempted")),
                ("failed", field(&plain.result, "failed")),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
            ]),
        ));
    }

    let out = Json::obj([
        ("schema", Json::from(report::SCHEMA)),
        ("host", host::fingerprint()),
        ("seed", Json::from(seed)),
        ("size", Json::from(if smoke { "smoke" } else { "full" })),
        ("seconds", Json::from(seconds)),
        ("wall_s", Json::from(started.elapsed().as_secs_f64())),
        ("workloads", Json::Object(entries)),
    ]);

    // The ledger must carry every name BENCHMARK.json promises.
    let problems = report::schema_problems(&benchmark, Some(&out));
    if !problems.is_empty() {
        return Err(format!("schema check failed:\n  {}", problems.join("\n  ")));
    }

    let write = |path: &Path, doc: &Json| -> Result<(), String> {
        let mut text = String::new();
        doc.write_pretty(&mut text, 2);
        text.push('\n');
        write_atomic(path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(&out_path, &out)?;
    write(&trace_path, &Json::Object(traces))?;
    eprintln!(
        "ledger → {} (spans → {}), {:.1} s",
        out_path.display(),
        trace_path.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}
