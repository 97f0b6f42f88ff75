//! `impatience` — command-line front end to the workspace.
//!
//! ```text
//! impatience generate poisson    --nodes 50 --mu 0.05 --duration 5000 -o trace.txt
//! impatience generate conference --nodes 50 --days 3               -o conf.txt
//! impatience generate vehicular  --cabs 50 --duration 1440         -o taxi.txt
//! impatience stats    trace.txt
//! impatience solve    --items 50 --servers 50 --rho 5 --mu 0.05 --utility step:10
//! impatience simulate trace.txt --utility step:10 --policy qcr --trials 15
//! impatience simulate trace.txt --trace-out events.jsonl --verbose
//! impatience simulate trace.txt --drop-p 0.2 --churn-up 300 --churn-down 30
//! impatience simulate trace.txt --trials 200 --checkpoint run.ckpt
//! impatience resume   run.ckpt
//! impatience verify   -o conformance.jsonl
//! impatience reproduce --all
//! impatience reproduce --fig 4 --check
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency): every option is
//! `--name value` (except boolean flags such as `--verbose`), subcommand
//! first, then positionals (the trace file). An option the subcommand
//! does not read is a usage error ([`accepted`]).
//!
//! Errors are typed ([`CliError`]) and mapped to distinct exit codes so
//! scripts can tell a usage mistake from a torn checkpoint from a
//! degraded (skipped-trials) campaign.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use age_of_impatience::prelude::*;
use impatience_core::demand::DemandProfile;
use impatience_core::rng::Xoshiro256;
use impatience_core::solver::greedy::try_greedy_homogeneous_observed;
use impatience_core::solver::incremental::{Delta, DeltaSolver};
use impatience_core::solver::relaxed::try_relaxed_optimum;
use impatience_core::solver::SolverError;
use impatience_core::utility::{parse_utility, DelayUtility};
use impatience_core::welfare::HeterogeneousSystem;
use impatience_exp::{run_spec, CheckOutcome, ExecContext, ExpError, Registry, Spec};
use impatience_json::Json;
use impatience_net::{
    run_net_trials_observed, ChaosEvent, ChaosKind, NetAggregate, NetConfig, NetError,
};
use impatience_obs::{
    parse_prometheus, render_diff, AtomicFile, Event, FailureKind, JsonlSink, Manifest, MemorySink,
    MetricsRegistry, Progress, Recorder, Sink, TallySink, TraceSummary,
};
use impatience_oracle::{
    audit_exact_step, audit_stale_step, delta_vs_scratch, net_panel, run_matrix, summary_table,
    write_report, CheckStatus, DeltaSweepReport, MatrixTotals,
};
use impatience_serve::{ServeConfig, Server};
use impatience_sim::config::SimConfig;
use impatience_sim::faults::{CacheFaults, Churn, ContactDrop, FaultConfig, MsgFaults};
use impatience_sim::policy::PolicyKind;
use impatience_sim::runner::{
    run_trials_observed_with_workers, run_trials_sharded, CampaignOutcome,
};
use impatience_sim::sharded::LOGICAL_SHARDS;
use impatience_traces::gen::{ConferenceConfig, VehicularConfig};
use impatience_traces::{read_trace_file, write_trace, TraceError};

fn main() -> ExitCode {
    // Dying mid-pipe (`impatience stats t | head`) closes our stdout;
    // Rust's println! panics on the resulting EPIPE. Exit quietly instead,
    // like every well-behaved Unix filter.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("Broken pipe"));
        if broken_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error[{}]: {}", e.kind.tag(), e.message);
            if e.kind == FailureKind::Usage {
                eprintln!("run `impatience help` for usage");
            }
            ExitCode::from(e.kind.exit_code())
        }
    }
}

/// A failure at the CLI boundary: its class, whose tag and exit code
/// (listed in `USAGE`) come from [`FailureKind`]'s one map, and the
/// message printed after the tag.
#[derive(Debug)]
struct CliError {
    kind: FailureKind,
    message: String,
}

impl CliError {
    fn new(kind: FailureKind, message: impl ToString) -> CliError {
        CliError {
            kind,
            message: message.to_string(),
        }
    }

    /// The campaign finished but had to skip trials (degraded result).
    fn trials_skipped(skipped: usize, trials: usize) -> CliError {
        let message = format!(
            "campaign degraded: skipped {skipped} of {trials} trial(s); \
             aggregate covers the rest (details above)"
        );
        CliError::new(FailureKind::Degraded, message)
    }

    /// A conformance check ran and found at least one violation.
    fn verify_failed(failed: u32, scenarios: usize) -> CliError {
        let message = format!(
            "conformance matrix failed: {failed} invariant violation(s) \
             across {scenarios} scenario(s); details above and in the report"
        );
        CliError::new(FailureKind::Verify, message)
    }

    /// An I/O failure on `path`: "cannot {verb} {path}: {e}".
    fn cannot(verb: &str, path: impl std::fmt::Display, e: impl std::fmt::Display) -> CliError {
        CliError::new(FailureKind::Io, format!("cannot {verb} {path}: {e}"))
    }
}

/// A library error becomes a [`CliError`] of its class.
macro_rules! failure_from {
    ($($error:ty => $kind:ident),* $(,)?) => {$(
        impl From<$error> for CliError {
            fn from(e: $error) -> CliError {
                CliError::new(FailureKind::$kind, e)
            }
        }
    )*};
}

failure_from!(
    String => Usage,
    &str => Usage,
    ConfigError => Config,
    SolverError => Solver,
    TraceError => Trace,
    CheckpointError => Checkpoint,
    NetError => Net,
);

impl From<ExpError> for CliError {
    fn from(e: ExpError) -> CliError {
        let kind = match e {
            ExpError::Io { .. } => FailureKind::Io,
            ExpError::Campaign { .. } => FailureKind::Campaign,
            _ => FailureKind::Config,
        };
        CliError::new(kind, e)
    }
}

impl From<CampaignError> for CliError {
    fn from(e: CampaignError) -> CliError {
        // Unwrap the typed causes so the exit code reflects the root.
        match e {
            CampaignError::Config(c) => c.into(),
            CampaignError::Checkpoint(c) => c.into(),
            other => CliError::new(FailureKind::Campaign, other),
        }
    }
}

const USAGE: &str = "\
impatience — optimal replication for opportunistic networks

USAGE:
  impatience generate <poisson|conference|vehicular> [opts] -o FILE
  impatience stats    TRACE
  impatience solve    [--items N --servers N --rho N --mu F --omega F --utility SPEC]
                      [--incremental [--deltas N] [--stale-eps F] [--seed N]]
  impatience simulate TRACE [--items N --rho N --utility SPEC --policy P --trials N --seed N]
                            [--trace-out FILE] [--verbose] [--workers N] [--profile]
                            [fault injection] [--checkpoint FILE]
  impatience simulate --shards W --nodes N --mu F --duration T
                            [--items N --rho N --utility SPEC --policy P --trials N
                             --seed N --verbose --profile] [fault injection]
  impatience resume   CKPT
  impatience netrun   [TRACE | --nodes N --mu F --duration T] [--items N --rho N
                       --utility SPEC --trials N --seed N --workers N]
                      [--loss-p F --dup-p F --reorder N] [fault injection]
                      [--window MIN --msg-delay MIN --deadline MIN]
                      [--kill T:NODE:DOWN] [--stall T:NODE]
                      [--trace-out FILE] [--verbose]
  impatience netrun   --verify [--quick] [--seed N] [--z F]
  impatience verify   [--seed N] [-o FILE] [--trace-out FILE] [--limit N] [--profile]
  impatience verify   --solver-deltas [--seed N]
  impatience reproduce [SPEC..] [--fig N | --all] [--list] [--check] [--resume]
                       [--specs DIR] [-o DIR] [--workers N] [--trace-out FILE] [--verbose]
                       [--profile]
  impatience trace    summarize FILE [--top K]
  impatience trace    diff FILE_A FILE_B
  impatience trace    export FILE [-o FILE]
  impatience trace    lint-prom FILE
  impatience serve    [--addr HOST:PORT] [--data-dir DIR] [--queue N]
                      [--http-threads N] [--solver-pool N]
  impatience help

UTILITY SPECS:  step:<tau> | exp:<nu> | power:<alpha> | neglog
POLICIES:       qcr | qcr-no-routing | opt | uni | sqrt | prop | dom | passive

OBSERVABILITY (simulate, reproduce; netrun without --profile, verify without
               --verbose: one reading of three flags):
  --trace-out FILE   write a JSONL event trace; a run manifest (config,
                     seeds, git revision, wall time, percentiles) lands at
                     FILE with extension .manifest.json (verify and
                     reproduce keep theirs beside their own artifacts).
                     Trials still run on all workers; events are flushed
                     in trial order, so the stream is complete, ordered,
                     and deterministic. Both files commit atomically
                     (write-temp-then-rename); a run that fails still
                     commits the events it got to, without a manifest.
  --verbose          print counters, percentiles, and solver/worker
                     telemetry after the run
  --profile          time the run with hierarchical spans (trial, contact,
                     exchange, solve.*, checkpoint, write_csv, ...) and
                     print the phase tree — wall, self, calls, p50/p95 —
                     after the run. reproduce writes the tree as
                     NAME.profile.json next to each spec's first artifact
                     plus a Prometheus NAME.prom; verify writes them as
                     siblings of the conformance report; simulate writes
                     them next to --trace-out when given. Off by default:
                     a disarmed span costs about 1 ns (one load plus the
                     inlined drop's branch), and results are
                     bit-identical either way.

TRACE ANALYSIS (trace; operates on --trace-out JSONL files):
  summarize FILE     event counts by kind, time range, the span phase
                     tree reconstructed from solver/trial events, and the
                     top --top K slowest cells and trials (default 5)
  diff A B           per-phase wall-time deltas and event-kind counts
                     between two traces (new/missing kinds flagged)
  export FILE        re-render a trace's tallies as Prometheus text
                     exposition; -o FILE writes atomically, else stdout
  lint-prom FILE     parse FILE as Prometheus text exposition and report
                     the sample count; any malformed line exits 5 with
                     its line number (CI gate for /metrics scrapes)

SERVICE MODE (serve; the allocation-as-a-service HTTP server):
  Runs the dependency-free HTTP/1.1 server from impatience-serve until
  killed: POST /v1/solve (warm incremental solver pool, per-request
  --stale-eps), POST /v1/campaigns (bounded FIFO queue, 429 shedding,
  checkpointed jobs that resume bit-identically after a crash),
  GET /v1/campaigns/{id}/events (live SSE with Last-Event-ID replay),
  GET /v1/artifacts/{hash} (content-addressed results), /healthz, and
  /metrics. The bound address lands in DIR/serve.addr for scripts.
  See API.md for the endpoint reference and DESIGN.md §17 for the
  architecture.
  --addr HOST:PORT   bind address (default 127.0.0.1:7199; port 0 picks
                     an ephemeral port)
  --data-dir DIR     state directory for jobs, checkpoints, and
                     artifacts (default serve-data)
  --queue N          campaign queue capacity before 429s (default 32)
  --http-threads N   connection worker threads (default 8)
  --solver-pool N    idle warm solvers kept per system shape (default 8)

SCALE RUNS (simulate --shards; the intra-trial sharded engine):
  --shards W         run each trial on the sharded engine with W worker
                     threads. Nodes split into 16 logical shards; contacts
                     are sampled streaming per shard lane from a synthetic
                     homogeneous Poisson source (--nodes/--mu/--duration
                     replace the TRACE argument), so million-node trials
                     with ~1e9 contacts fit in memory. Output — welfare
                     series, fault log, event digest — is bit-identical
                     for every W. Supports qcr/passive/static policies and
                     drop/cache/truncation faults; churn, traces, and
                     demand shifts stay on the serial engine.

FAULT INJECTION (simulate; seeded, deterministic, off by default):
  --drop-p F             drop each contact with probability F; with
  --drop-burst MEAN      drops arriving in bursts of mean length MEAN
                         (default 1 = independent Bernoulli)
  --churn-up MIN         exponential server on/off churn: mean up-time and
  --churn-down MIN       mean down-time in minutes (give both)
  --cache-fault-rate F   cache-slot failures per node-minute
  --truncate F           end each trial at fraction F of the horizon (0<F<=1)
  --fault-seed N         dedicated RNG stream for the fault processes

DISTRIBUTED RUNTIME (netrun; the message-passing QCR kernel):
  Runs QCR as independent node tasks exchanging a typed 5-message
  protocol (advert/request/fulfill/handoff/ack) over an unreliable
  in-process transport driven by the same contact stream as the engine.
  Every mandate movement is a two-phase acked transfer with capped
  exponential backoff; a quiesce-time audit proves exact mandate
  conservation (minted = executed + discarded + pooled + escrowed) or
  the run exits 12. Churn (--churn-up/--churn-down) crashes and
  restarts node tasks from their last checkpoint; a heartbeat
  supervisor condemns wedged nodes and degrades the run (exit 9)
  instead of hanging it.
  --loss-p F         drop each wire message with probability F
  --dup-p F          deliver each message twice with probability F
  --reorder N        extra per-message jitter of U(0,N) delay slots
                     (messages up to N slots apart can swap order)
  --window MIN       contact link-up window (default 0.05)
  --msg-delay MIN    one-way message delay (default 0.002)
  --deadline MIN     abandon requests older than this (default: horizon)
  --kill T:NODE:DOWN crash NODE at minute T, restart DOWN minutes later
  --stall T:NODE     wedge NODE at minute T (supervisor must condemn it)
  --trace-out FILE   JSONL events + manifest + a Prometheus .prom
                     sibling carrying the transport/protocol counters
  --verify           differential mode: run clean-transport scenarios
                     through both this runtime and the engine on paired
                     seeds and require agreement within the CLT budget
                     (exit 10 on disagreement), then a lossy sweep that
                     must terminate conserving at 5/10/20% loss.
                     --quick shrinks horizons for CI; --z sets the gate.

VERIFICATION (verify; deterministic given --seed):
  Runs the oracle conformance matrix — 5 utility families x 3 population
  shapes x {hom,het} contacts x {clean,faults} — and checks each cell
  against the paper's invariants: submodularity, the Property 1
  equilibrium residual, welfare monotonicity, greedy vs brute-force
  optima (Theorems 1-2), bit-level determinism, slot-refinement
  convergence, the solver-variant cell (incremental delta solves
  bit-identical to scratch, staleness certificates sound), and the
  Monte-Carlo differential checks (analytic vs simulated welfare,
  continuous vs discrete engines). The JSONL report lands at -o FILE
  (default conformance.jsonl) with a manifest sibling; --trace-out
  streams per-scenario events; --limit N truncates the matrix (test
  hook).
  --solver-deltas    run only the delta_vs_scratch differential sweep:
                     random delta sequences through the incremental
                     solver, checked for bit-identity against scratch
                     solves, brute-force optimality on tiny instances,
                     and soundness of every bounded-staleness
                     certificate (exit 10 on any violation).

INCREMENTAL SOLVES (solve --incremental):
  Replays --deltas N (default 16) seeded single-item demand changes
  through the incremental DeltaSolver and a from-scratch greedy solve
  side by side, timing both and requiring bit-identical allocations
  (exit 10 on divergence). --stale-eps F switches the solver to
  bounded-staleness mode: stale allocations are reused when a
  weak-duality certificate proves their welfare is within F of fresh,
  and every accepted certificate is audited against the actual fresh
  solve.

REPRODUCTION (reproduce; deterministic, seeds live in the specs):
  Compiles the declarative TOML scenario specs in experiments/ (one per
  paper figure / table / ablation / extension) into simulation campaigns
  and writes each results/NAME.csv atomically with a provenance manifest
  sibling (spec hash, seeds, trials, git revision) at
  NAME.manifest.json. Select specs by name (`reproduce fig4 table1`), by
  figure (`--fig 4`), or all of them (`--all`). Every selected spec is
  held to the simulator's config rules before the first one runs; a
  setting it refuses exits 3 with no artifact written.
  --list             show every spec with its outputs instead of running
  --check            regenerate into a scratch directory and byte-compare
                     against the committed CSVs; any drift exits 11
  --resume           checkpoint each campaign under OUT/.checkpoints and
                     resume finished trials from a previous killed run
  --specs DIR        spec directory (default experiments)
  -o DIR             results directory (default results)

CHECKPOINTING (simulate):
  --checkpoint FILE      save campaign state to FILE after every chunk of
                         trials (atomic rename); panicking trials are
                         skipped and reported instead of killing the run
  --checkpoint-every N   trials per chunk (default 16; 0 = end only)
  resume CKPT            re-run the invocation stored in CKPT, restoring
                         finished trials bit-identically and running the rest

EXIT CODES:
  0 ok | 2 usage | 3 config | 4 solver | 5 trace | 6 checkpoint
  7 campaign | 8 io | 9 degraded (some trials skipped)
  10 verify (conformance invariant violated, or netrun --verify disagreed)
  11 drift (reproduce --check differs from committed results)
  12 net (distributed runtime: conservation violation or transport fault)

COMMON OPTIONS (defaults):
  --items 50  --rho 5  --omega 1.0  --utility step:10  --trials 15  --seed 42
  generate poisson:    --nodes 50 --mu 0.05 --duration 5000
  generate conference: --nodes 50 --days 3
  generate vehicular:  --cabs 50 --duration 1440
";

/// The options `command` reads, hidden test hooks included
/// (`--abort-after-chunks`, `--rto-base`, ...), as space-separated
/// groups of names; `-o` is `out`. `None` for an unknown command. Of
/// these, [`FLAGS`] take no value.
fn accepted(command: &str) -> Option<&'static [&'static str]> {
    const SCENARIO: &str = "items omega rho trials seed utility nodes mu duration workers";
    const FAULTS: &str =
        "fault-seed drop-p drop-burst churn-up churn-down cache-fault-rate truncate";
    Some(match command {
        "generate" => &["seed nodes mu duration days cabs out"],
        "stats" | "resume" | "help" | "--help" | "-h" => &[],
        "solve" => &[
            "items omega servers rho mu clients utility verbose",
            "incremental deltas seed stale-eps",
        ],
        "simulate" => &[
            SCENARIO,
            FAULTS,
            "policy shards trace-out verbose profile",
            "checkpoint checkpoint-every abort-after-chunks",
        ],
        "netrun" => &[
            SCENARIO,
            FAULTS,
            "loss-p dup-p reorder window msg-delay deadline kill stall",
            "rto-base rto-cap max-attempts max-events trace-out verbose verify quick z",
        ],
        "verify" => &["seed limit out trace-out profile solver-deltas"],
        "reproduce" => &["specs fig all list check resume out workers trace-out verbose profile"],
        "trace" => &["top out"],
        "serve" => &["addr data-dir queue http-threads solver-pool"],
        _ => return None,
    })
}

/// The options that take no value.
const FLAGS: &str = "verbose quick all list check resume profile verify incremental solver-deltas";

struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
}

impl Args {
    /// `command`'s arguments. An unknown command, or an option `command`
    /// does not read ([`accepted`]), is a usage error.
    fn parse(command: &str, raw: &[String]) -> Result<Self, String> {
        let groups = accepted(command).ok_or_else(|| format!("unknown command `{command}`"))?;
        let mut positional = Vec::new();
        let mut options = HashMap::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            let name = match arg.strip_prefix("--") {
                Some(name) => name,
                None if arg == "-o" => "out",
                None => {
                    positional.push(arg.clone());
                    continue;
                }
            };
            let names =
                |groups: &[&str]| groups.iter().flat_map(|g| g.split(' ')).any(|n| n == name);
            if !names(groups) {
                return Err(format!("unknown option `{arg}` for `{command}`"));
            }
            let value = if names(&[FLAGS]) {
                "true".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("option {arg} requires a value"))?
                    .clone()
            };
            options.insert(name.to_string(), value);
        }
        Ok(Args {
            positional,
            options,
        })
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get_opt(name)?.unwrap_or(default))
    }

    /// `Some(parsed)` if the option was given, `None` otherwise.
    fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.options.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("cannot parse --{name} {v}")),
        }
    }

    fn verbose(&self) -> bool {
        self.options.contains_key("verbose")
    }

    fn utility(&self) -> Result<Arc<dyn DelayUtility>, String> {
        let spec = self
            .options
            .get("utility")
            .map(String::as_str)
            .unwrap_or("step:10");
        parse_utility(spec).map_err(|e| e.to_string())
    }
}

fn run() -> Result<(), CliError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = raw.first() else {
        println!("{USAGE}");
        return Ok(());
    };
    let args = Args::parse(command, &raw[1..])?;
    match command.as_str() {
        "generate" => generate(&args),
        "stats" => stats(&args),
        "solve" => solve(&args),
        "simulate" => simulate(&args, &raw),
        "resume" => resume(args.positional.first()),
        "netrun" => netrun(&args),
        "verify" => verify(&args),
        "reproduce" => reproduce(&args, &raw),
        "trace" => trace_cmd(&args),
        "serve" => serve_cmd(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => unreachable!("Args::parse refuses command `{other}`"),
    }
}

/// `impatience resume CKPT`: load the checkpoint and replay the CLI
/// invocation stored inside it. `run_campaign` re-verifies the
/// fingerprint and skips every trial already recorded, so finished work
/// is restored bit-identically and only the remainder executes.
fn resume(path: Option<&String>) -> Result<(), CliError> {
    let path = path.ok_or("resume needs a checkpoint file argument")?;
    let ckpt = CampaignCheckpoint::load(Path::new(path))?;
    if ckpt.cli_args.is_empty() {
        return Err(CliError::from(format!(
            "checkpoint {path} stores no CLI invocation; \
             re-run the original command with --checkpoint {path}"
        )));
    }
    let stored = ckpt.cli_args.clone();
    let (command, rest) = stored
        .split_first()
        .unwrap_or_else(|| unreachable!("non-empty cli_args"));
    if command != "simulate" {
        return Err(CliError::from(format!(
            "checkpoint {path} stores unsupported command `{command}`"
        )));
    }
    eprintln!(
        "resuming ({}/{} trials done): impatience {}",
        ckpt.completed.len(),
        ckpt.trials,
        stored.join(" ")
    );
    let args = Args::parse(command, rest)?;
    simulate(&args, &stored)
}

fn generate(args: &Args) -> Result<(), CliError> {
    let kind = args
        .positional
        .first()
        .ok_or("generate needs a kind: poisson | conference | vehicular")?;
    let seed: u64 = args.get("seed", 42)?;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let trace = match kind.as_str() {
        "poisson" => {
            let s = synthetic_source(args, (50, 0.05, 5_000.0))?;
            poisson_homogeneous(s.nodes(), s.mean_rate(), s.duration(), &mut rng)
        }
        "conference" => {
            let cfg = ConferenceConfig {
                nodes: args.get("nodes", 50)?,
                duration: args.get::<f64>("days", 3.0)? * 1_440.0,
                ..ConferenceConfig::default()
            };
            cfg.generate(&mut rng)
        }
        "vehicular" => {
            let cfg = VehicularConfig {
                cabs: args.get("cabs", 50)?,
                duration: args.get("duration", 1_440.0)?,
                ..VehicularConfig::default()
            };
            cfg.generate(&mut rng)
        }
        other => return Err(CliError::from(format!("unknown trace kind `{other}`"))),
    };
    let out = args
        .options
        .get("out")
        .ok_or("generate needs an output file (-o FILE)")?;
    // Traces commit atomically like every other artifact: a crash here
    // never leaves a half-written trace that `stats` would half-parse.
    let mut buf = Vec::new();
    write_trace(&trace, &mut buf)
        .map_err(|e| CliError::new(FailureKind::Io, format!("serializing trace: {e}")))?;
    impatience_obs::write_atomic(Path::new(out), &buf)
        .map_err(|e| CliError::cannot("write", out, e))?;
    println!(
        "wrote {} contacts / {} nodes / {:.0} min to {out}",
        trace.len(),
        trace.nodes(),
        trace.duration()
    );
    Ok(())
}

fn load_trace(args: &Args) -> Result<ContactTrace, CliError> {
    let path = args
        .positional
        .first()
        .ok_or("expected a trace file argument")?;
    Ok(read_trace_file(Path::new(path))?)
}

fn stats(args: &Args) -> Result<(), CliError> {
    let trace = load_trace(args)?;
    let s = TraceStats::from_trace(&trace);
    println!("nodes               : {}", trace.nodes());
    println!("duration            : {:.1} min", trace.duration());
    println!("contacts            : {}", trace.len());
    println!("mean pairwise rate  : {:.6} /min", s.rates().mean_rate());
    println!("rate heterogeneity  : CV {:.3}", s.rate_cv());
    println!("mean inter-contact  : {:.2} min", s.mean_intercontact());
    println!(
        "burstiness          : normalized ICT CV {:.3} (≈1 = memoryless)",
        s.normalized_intercontact_cv()
    );
    let counts = trace.contact_counts();
    let (min, max) = (
        counts.iter().min().copied().unwrap_or(0),
        counts.iter().max().copied().unwrap_or(0),
    );
    println!("contacts per node   : min {min}, max {max}");
    Ok(())
}

/// `--items` (default `items`) and `--omega`: the catalogue of the
/// Pareto(ω) demand of §6.2. An empty catalogue, and an ω whose weights
/// `rank^−ω` or their sum are not finite, are usage errors.
fn catalogue(args: &Args, items: usize) -> Result<(usize, f64), CliError> {
    let items: usize = args.get("items", items)?;
    let omega: f64 = args.get("omega", 1.0)?;
    if items == 0 {
        return Err("--items must be at least 1".into());
    }
    // The largest weight times the count bounds their sum.
    let bound = (items as f64).powf(-omega).max(1.0) * items as f64;
    if !(omega.is_finite() && bound.is_finite()) {
        return Err(format!(
            "--omega must give finite Pareto weights over {items} items (got {omega})"
        )
        .into());
    }
    Ok((items, omega))
}

fn solve(args: &Args) -> Result<(), CliError> {
    let (items, omega) = catalogue(args, 50)?;
    let demand = Popularity::pareto(items, omega).demand_rates(1.0);
    let servers: usize = args.get("servers", 50)?;
    let rho: usize = args.get("rho", 5)?;
    if servers == 0 || rho == 0 {
        return Err("--servers and --rho must both be at least 1".into());
    }
    let mu: f64 = args.get("mu", 0.05)?;
    if !(mu.is_finite() && mu > 0.0) {
        let message = format!("contact rate μ must be finite and > 0 (got {mu})");
        return Err(ConfigError::InvalidRate { message }.into());
    }
    let clients: usize = args.get("clients", 0)?;
    let utility = args.utility()?;

    let system = if clients > 0 {
        SystemModel::dedicated(clients, servers, rho, mu)
    } else {
        SystemModel::pure_p2p(servers, rho, mu)
    };
    if utility.requires_dedicated() && clients == 0 {
        return Err(CliError::from(format!(
            "{} requires a dedicated population; pass --clients N",
            utility.kind()
        )));
    }

    if args.options.contains_key("incremental") {
        return solve_incremental(args, system, demand, utility);
    }

    let opt = if args.verbose() {
        let mut rec = Recorder::new(MemorySink::new());
        let opt = try_greedy_homogeneous_observed(&system, &demand, utility.as_ref(), &mut rec)?;
        if let Some(Event::SolverDone {
            iterations,
            evaluations,
            wall_s,
            ..
        }) = rec
            .sink()
            .events
            .iter()
            .rfind(|e| matches!(e, Event::SolverDone { .. }))
        {
            println!(
                "greedy: {iterations} placements, {evaluations} marginal evaluations, {:.2} ms",
                wall_s * 1e3
            );
        }
        opt
    } else {
        try_greedy_homogeneous(&system, &demand, utility.as_ref())?
    };
    let relaxed = try_relaxed_optimum(&system, &demand, utility.as_ref())?;
    println!(
        "system: |I|={items} |S|={servers} ρ={rho} μ={mu} ω={omega} utility={}",
        utility.kind()
    );
    println!(
        "\n{:>5} {:>10} {:>8} {:>8}",
        "item", "demand", "OPT", "relaxed"
    );
    for i in 0..items.min(15) {
        println!(
            "{i:>5} {:>10.5} {:>8} {:>8.2}",
            demand.rate(i),
            opt.count(i),
            relaxed.x[i]
        );
    }
    if items > 15 {
        println!("  ... ({} more items)", items - 15);
    }
    for (label, counts) in [
        ("OPT", opt),
        ("UNI", uniform(items, servers, rho)),
        ("SQRT", sqrt_proportional(&demand, servers, rho)),
        ("PROP", proportional(&demand, servers, rho)),
        ("DOM", dominant(&demand, servers, rho)),
    ] {
        let w = social_welfare_homogeneous(&system, &demand, utility.as_ref(), &counts.as_f64());
        println!("welfare {label:<5} {w:>12.5} utility/min");
    }
    Ok(())
}

/// `solve --incremental`: replay seeded demand deltas through the
/// incremental solver and a from-scratch greedy side by side, timing
/// both and checking the incremental path at every step — bit-identity
/// in exact mode, certificate soundness in `--stale-eps` mode.
fn solve_incremental(
    args: &Args,
    system: SystemModel,
    demand: DemandRates,
    utility: Arc<dyn DelayUtility>,
) -> Result<(), CliError> {
    let steps: usize = args.get("deltas", 16)?;
    let seed: u64 = args.get("seed", 42)?;
    let stale_eps: Option<f64> = args.get_opt("stale-eps")?;
    if steps == 0 {
        return Err("--deltas must be at least 1".into());
    }
    if let Some(eps) = stale_eps {
        if !eps.is_finite() || eps < 0.0 {
            return Err("--stale-eps must be finite and non-negative".into());
        }
    }
    let items = demand.items();
    let mut solver = DeltaSolver::try_new(system, &demand, Arc::clone(&utility))?;
    if let Some(eps) = stale_eps {
        solver = solver.with_staleness(eps);
    }

    // Each step is audited as `verify --solver-deltas` audits its
    // sampled instances, the audit's scratch solve timed as the baseline.
    let mut audit = DeltaSweepReport::default();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let (mut inc_wall, mut scratch_wall) = (0.0f64, 0.0f64);
    for step in 0..steps {
        let delta = [Delta::Demand {
            item: rng.index(items),
            rate: rng.range(0.01, 2.0),
        }];
        let t = std::time::Instant::now();
        let outcome = solver.apply(&delta)?;
        inc_wall += t.elapsed().as_secs_f64();

        let t = std::time::Instant::now();
        let u = utility.as_ref();
        if audit_stale_step(&mut audit, "solve", step, &solver, u, &outcome).is_none() {
            audit_exact_step(&mut audit, "solve", step, &solver, u, false);
        }
        scratch_wall += t.elapsed().as_secs_f64();
    }
    for violation in &audit.violations {
        eprintln!("{violation}");
    }

    let stats = solver.stats();
    println!(
        "incremental: {steps} deltas over |I|={items} |S|={} ρ={} utility={}{}",
        system.servers(),
        system.cache_capacity,
        utility.kind(),
        match stale_eps {
            Some(eps) => format!(" (bounded staleness ε={eps})"),
            None => String::new(),
        }
    );
    println!(
        "  delta solves {:>4}   replicas moved {:>6}   rebuilds {}",
        stats.delta_solves, stats.replicas_moved, stats.rebuilds
    );
    if stale_eps.is_some() {
        println!(
            "  certificates {:>4}   reused stale  {:>6}   fell back {}",
            stats.certificates, stats.certified_reuses, stats.certificate_fallbacks
        );
    }
    println!(
        "  wall: incremental {:.3} ms vs scratch {:.3} ms ({:.1}x)",
        inc_wall * 1e3,
        scratch_wall * 1e3,
        scratch_wall / inc_wall.max(1e-12)
    );
    if audit.failures() > 0 {
        return Err(CliError::verify_failed(audit.failures(), steps));
    }
    println!("  every step checked against a from-scratch solve: ok");
    Ok(())
}

/// Build a [`FaultConfig`] from the `--drop-p`/`--churn-*`/… flags and,
/// with `msg` (for `netrun`), the message-layer family
/// (`--loss-p/--dup-p/--reorder`) that only the net transport consumes.
/// `None` when no fault flag was given (the clean network).
fn fault_config(args: &Args, msg: bool) -> Result<Option<FaultConfig>, CliError> {
    let mut fc = FaultConfig {
        seed: args.get("fault-seed", 0)?,
        ..FaultConfig::default()
    };
    let p: f64 = args.get("drop-p", 0.0)?;
    if p > 0.0 {
        fc.drop = Some(ContactDrop {
            p,
            mean_burst: args.get("drop-burst", 1.0)?,
        });
    } else if args.options.contains_key("drop-burst") {
        return Err("--drop-burst needs --drop-p > 0".into());
    }
    let up: f64 = args.get("churn-up", 0.0)?;
    let down: f64 = args.get("churn-down", 0.0)?;
    match (up > 0.0, down > 0.0) {
        (true, true) => {
            fc.churn = Some(Churn {
                mean_up: up,
                mean_down: down,
            })
        }
        (false, false) => {}
        _ => {
            return Err("--churn-up and --churn-down must be given together (both > 0)".into());
        }
    }
    let rate: f64 = args.get("cache-fault-rate", 0.0)?;
    if rate > 0.0 {
        fc.cache = Some(CacheFaults { rate });
    }
    fc.truncate_fraction = args.get_opt("truncate")?;
    if msg {
        let msg = MsgFaults {
            loss_p: args.get("loss-p", 0.0)?,
            dup_p: args.get("dup-p", 0.0)?,
            reorder_window: args.get("reorder", 0)?,
        };
        if msg.is_active() {
            fc.msg = Some(msg);
        }
    }
    if fc.is_active() {
        fc.validate()?;
        Ok(Some(fc))
    } else {
        Ok(None)
    }
}

/// The scenario flags `simulate`, `simulate --shards` and `netrun` share,
/// parsed once into the campaign config ([`SimConfig::campaign`]):
/// catalogue, cache size, demand skew, impatience and the fault model,
/// plus the batch size and seed.
struct Scenario {
    config: SimConfig,
    omega: f64,
    trials: usize,
    seed: u64,
}

impl Scenario {
    /// `defaults` are the command's `(--items, --rho, --trials)`; `msg`
    /// admits the message-layer fault flags. With `nodes`, requests
    /// originate uniformly over that many nodes; without, the engine
    /// spreads them over the source's nodes.
    fn parse(
        args: &Args,
        defaults: (usize, usize, usize),
        msg: bool,
        nodes: Option<usize>,
    ) -> Result<Self, CliError> {
        let (items, omega) = catalogue(args, defaults.0)?;
        let rho = args.get("rho", defaults.1)?;
        let trials = args.get("trials", defaults.2)?;
        let seed = args.get("seed", 42)?;
        let mut builder = SimConfig::campaign(items, rho, omega, args.utility()?);
        if let Some(nodes) = nodes {
            builder = builder.profile(DemandProfile::uniform(items, nodes));
        }
        if let Some(fc) = fault_config(args, msg)? {
            builder = builder.faults(fc);
        }
        Ok(Scenario {
            config: builder.build(),
            omega,
            trials,
            seed,
        })
    }

    /// `--policy` (default `qcr`) over `nodes` nodes. `opt` solves for
    /// the optimal static allocation — the one arm that depends on the
    /// contact source.
    fn policy(
        &self,
        args: &Args,
        nodes: usize,
        opt: impl FnOnce() -> Result<ReplicaCounts, CliError>,
    ) -> Result<PolicyKind, CliError> {
        let name = args.options.get("policy").map_or("qcr", String::as_str);
        let c = &self.config;
        Ok(match name {
            "qcr" => PolicyKind::qcr_default(),
            "qcr-no-routing" => PolicyKind::Qcr(impatience_sim::policy::QcrConfig {
                mandate_routing: false,
                ..Default::default()
            }),
            "passive" => PolicyKind::Passive { replicas: 1.0 },
            "opt" => PolicyKind::Static {
                label: "OPT",
                counts: opt()?,
            },
            other => PolicyKind::fixed(other, &c.demand, nodes, c.rho).ok_or_else(|| {
                CliError::from(format!(
                    "unknown policy `{other}` \
                     (qcr | qcr-no-routing | opt | uni | sqrt | prop | dom | passive)"
                ))
            })?,
        })
    }
}

/// How a run is observed: the one reading of `--trace-out`, `--verbose`
/// and `--profile` behind every recording command.
///
/// * `--trace-out FILE` streams every event to FILE as JSONL. The file
///   commits atomically once the body has returned — also when it
///   failed, so a killed campaign leaves the events it got to (`trace
///   summarize` is lenient about truncated traces for this reader).
/// * Without a file, `tally` keeps counters and histograms in memory:
///   what `--verbose` panels, `.prom` files and manifest `stats` read.
/// * Otherwise the recorder is disabled and its hooks compile to nothing.
///
/// `observe!` binds the recorder; [`Scope::seen`] reads it back.
struct Scope<'a> {
    events: Option<&'a str>,
    tally: bool,
    profiling: bool,
    /// The file whose `.profile.json` / `.prom` siblings receive the
    /// profile; `None` prints the phase tree only.
    beside: Option<PathBuf>,
}

/// What the recorder saw, read once the body has run.
struct Seen {
    /// Counters, peaks and percentiles; `None` from a disabled recorder.
    stats: Option<Json>,
    /// Summed wall time of the root spans; `None` without `--profile`.
    span_wall: Option<f64>,
}

impl<'a> Scope<'a> {
    /// The scope the flags ask for: events to `--trace-out`, tallies for
    /// `--verbose` or `--profile`, the profile beside the event file.
    /// `--profile` arms the span probes here, so build the scope before
    /// anything worth timing runs (`--policy opt`'s solve, spec loading).
    fn new(args: &'a Args) -> Self {
        let profiling = args.options.contains_key("profile");
        if profiling {
            impatience_obs::span::enable();
        }
        let events = args.options.get("trace-out").map(String::as_str);
        Scope {
            events,
            tally: args.verbose() || profiling,
            profiling,
            beside: events.map(PathBuf::from),
        }
    }

    /// Under `--profile`, drain the span tree and print the phase report;
    /// with `beside`, also write it as the `.profile.json` sibling and —
    /// span series plus the recorder's counters and delay histograms —
    /// as the Prometheus `.prom` sibling. Returns the summed root wall
    /// time for the manifest's `span_wall_s` cross-reference, or `None`
    /// when nothing was recorded.
    fn profile<S: Sink>(
        &self,
        rec: &Recorder<S>,
        beside: Option<&Path>,
    ) -> Result<Option<f64>, CliError> {
        if !self.profiling {
            return Ok(None);
        }
        let report = impatience_obs::span::take_aggregate().report();
        if report.is_empty() {
            println!("profile: no spans recorded");
            return Ok(None);
        }
        print!("{}", report.render());
        if let Some(beside) = beside {
            let path = beside.with_extension("profile.json");
            let mut text = report.to_json().to_string();
            text.push('\n');
            impatience_obs::write_atomic(&path, text.as_bytes())
                .map_err(|e| CliError::cannot("write", path.display(), e))?;
            println!("profile → {}", path.display());
            let path = beside.with_extension("prom");
            let mut registry = MetricsRegistry::new();
            registry.absorb_recorder(rec);
            registry.absorb_phase_report(&report);
            registry
                .write_prom(&path)
                .map_err(|e| CliError::cannot("write", path.display(), e))?;
            println!("metrics → {}", path.display());
        }
        Ok(Some(report.total_wall_s))
    }

    /// Read the recorder back at the end of a body: its statistics, and
    /// the profile drained to [`Scope::beside`].
    fn seen<S: Sink>(&self, rec: &Recorder<S>) -> Result<Seen, CliError> {
        Ok(Seen {
            stats: (self.events.is_some() || self.tally).then(|| rec.summary_json()),
            span_wall: self.profile(rec, self.beside.as_deref())?,
        })
    }
}

/// A `try` block: a `?` inside `body` ends the body, not the caller.
fn attempt<T>(body: impl FnOnce() -> Result<T, CliError>) -> Result<T, CliError> {
    body()
}

/// Evaluate `$body` — a block ending in a `Result<_, CliError>`, free to
/// use `?` — with `$rec` bound to a `&mut Recorder<S>`, `S` being the
/// sink `$scope` calls for, and yield its `Ok` value.
///
/// The body is expanded once per sink type rather than handed a `dyn
/// Sink`: `runner::run_jobs` gives each trial the sink type's per-trial
/// half (`Sink::Trial`: nothing for a disabled or tally-only recorder,
/// JSONL text for an event file), so a dynamic sink would make a plain
/// `simulate` render every event.
macro_rules! observe {
    ($scope:expr, |$rec:ident| $body:block) => {
        match $scope.events {
            Some(out) => {
                let file = AtomicFile::create(Path::new(out))
                    .map_err(|e| CliError::cannot("create", out, e))?;
                let mut recorder = Recorder::new(JsonlSink::new(file));
                let $rec = &mut recorder;
                let result = attempt(|| $body);
                // Commit, then propagate: a failed body keeps its events.
                recorder
                    .into_sink()
                    .into_inner()
                    .and_then(AtomicFile::commit)
                    .map_err(|e| CliError::new(FailureKind::Io, format!("writing {out}: {e}")))?;
                println!("events  → {out}");
                result?
            }
            None if $scope.tally => {
                let $rec = &mut Recorder::new(TallySink);
                attempt(|| $body)?
            }
            None => {
                let $rec = &mut Recorder::disabled();
                attempt(|| $body)?
            }
        }
    };
}

/// The one manifest writer: `fill` sets the command's own keys, the
/// runtime stamp (`rustc`, `peak_rss_bytes`, `span_wall_s` when profiled)
/// and the recorder's `stats` follow, and the file commits atomically as
/// the `.manifest.json` sibling of `beside`.
fn write_manifest(
    kind: &str,
    beside: &Path,
    seen: &Seen,
    fill: impl FnOnce(&mut Manifest),
) -> Result<(), CliError> {
    let mut manifest = Manifest::new(kind);
    fill(&mut manifest);
    manifest.stamp_runtime(seen.span_wall);
    if let Some(stats) = &seen.stats {
        manifest.set("stats", stats.clone());
    }
    let path = Manifest::sibling_path(beside);
    manifest
        .write_to(&path)
        .map_err(|e| CliError::cannot("write", path.display(), e))?;
    println!("manifest→ {}", path.display());
    Ok(())
}

/// `impatience simulate TRACE`: a batch of trials of one policy on a
/// contact trace. With `--checkpoint` the batch is a campaign: trials run
/// behind a panic barrier (skip-and-report), progress commits to the
/// checkpoint file after every chunk, and `resume` picks up exactly where
/// a killed process stopped.
fn simulate(args: &Args, invocation: &[String]) -> Result<(), CliError> {
    if args.options.contains_key("shards") {
        return simulate_sharded(args);
    }
    let scope = Scope::new(args);
    let trace_file = args.positional.first().cloned().unwrap_or_default();
    let trace = load_trace(args)?;
    let nodes = trace.nodes();
    let s = Scenario::parse(args, (50, 5, 15), false, Some(nodes))?;
    let config = &s.config;
    // A config the engine would refuse is a config error before any work.
    config.try_validate(nodes)?;
    // OPT on a trace: heterogeneous greedy on the measured pair rates.
    let policy = s.policy(args, nodes, || {
        let rates = TraceStats::from_trace(&trace).rates().clone();
        let system = HeterogeneousSystem::pure_p2p(rates, config.rho);
        let (demand, utility) = (&config.demand, config.utility.as_ref());
        Ok(greedy_heterogeneous(&system, demand, &config.profile, utility).to_counts())
    })?;
    let source = ContactSource::trace(trace);
    let workers: Option<usize> = args.get_opt("workers")?;
    let checkpoint = args.options.get("checkpoint").map(PathBuf::from);
    let campaign = match &checkpoint {
        Some(path) => Some(CampaignOptions {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: args.get("checkpoint-every", 16)?,
            workers,
            // Undocumented test hook: die after N chunks as if killed.
            abort_after_chunks: args.get_opt("abort-after-chunks")?,
            cli_args: invocation.to_vec(),
        }),
        None => None,
    };

    let (outcome, seen) = observe!(scope, |rec| {
        let (trials, seed) = (s.trials, s.seed);
        let outcome = match &campaign {
            Some(options) => run_campaign(config, &source, &policy, trials, seed, options, rec)?,
            // A plain batch: a panicking trial takes the process down.
            None => CampaignOutcome {
                aggregate: run_trials_observed_with_workers(
                    config, &source, &policy, trials, seed, workers, rec,
                ),
                skipped: Vec::new(),
                resumed: 0,
                executed: trials,
            },
        };
        Ok((outcome, scope.seen(rec)?))
    });

    let agg = &outcome.aggregate;
    if let Some(out) = scope.events {
        let kind = if checkpoint.is_some() {
            "campaign"
        } else {
            "simulate"
        };
        write_manifest(kind, Path::new(out), &seen, |m| {
            m.set("trace", trace_file.as_str());
            m.set("events_file", out);
            m.set("policy", agg.label.as_str());
            m.set("utility", config.utility.kind().to_string());
            m.set("items", config.items as u64);
            m.set("rho", config.rho as u64);
            m.set("omega", s.omega);
            m.set("trials", s.trials as u64);
            m.set("base_seed", s.seed);
            m.set("warmup_fraction", config.warmup_fraction);
            let faults = config.faults.as_ref();
            m.set(
                "faults",
                faults.map_or_else(|| "none".to_string(), FaultConfig::summary),
            );
            m.set("workers", agg.workers as u64);
            m.set("wall_s", agg.wall_s);
            m.set("mean_trial_wall_s", agg.mean_trial_wall_s);
            m.set("worker_utilization", agg.worker_utilization);
            if let Some(path) = &checkpoint {
                m.set("checkpoint", path.display().to_string());
                m.set("trials_resumed", outcome.resumed as u64);
                m.set("trials_executed", outcome.executed as u64);
                m.set("trials_skipped", outcome.skipped.len() as u64);
            }
        })?;
    }
    if outcome.resumed > 0 {
        println!(
            "resumed {} trial(s) from checkpoint, executed {} this run",
            outcome.resumed, outcome.executed
        );
    }
    if let Some(path) = &checkpoint {
        println!("checkpoint → {}", path.display());
    }
    for (k, msg) in &outcome.skipped {
        eprintln!("warning: trial {k} skipped: {msg}");
    }
    report(
        agg,
        seen.stats.as_ref(),
        s.trials,
        &config.utility,
        args.verbose(),
    );
    if !outcome.skipped.is_empty() {
        return Err(CliError::trials_skipped(outcome.skipped.len(), s.trials));
    }
    Ok(())
}

/// `impatience simulate --shards W --nodes N --mu F --duration T`: one
/// trial at a time on the intra-trial sharded engine, its 16 logical
/// shards spread over W worker threads. The contact source is synthetic
/// homogeneous Poisson (sampled streaming per shard lane — no trace file
/// is ever materialized), which is what makes million-node populations
/// with ~10⁹ contacts fit in memory. Results are bit-identical for every
/// W; only the wall clock changes.
fn simulate_sharded(args: &Args) -> Result<(), CliError> {
    if let Some(path) = args.positional.first() {
        return Err(CliError::from(format!(
            "--shards runs on a synthetic homogeneous source; drop the trace \
             argument `{path}` and pass --nodes/--mu/--duration instead"
        )));
    }
    for unsupported in ["checkpoint", "trace-out", "workers"] {
        if args.options.contains_key(unsupported) {
            return Err(CliError::from(format!(
                "--{unsupported} is not supported with --shards \
                 (parallelism is inside each trial)"
            )));
        }
    }
    let shards: usize = args.get("shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    let scope = Scope::new(args);
    let source = synthetic_source(args, (10_000, 0.005, 3_000.0))?;
    let (nodes, mu) = (source.nodes(), source.mean_rate());
    let s = Scenario::parse(args, (50, 5, 3), false, None)?;
    let config = &s.config;
    // OPT on the synthetic source: the homogeneous greedy optimum —
    // analytic, so it costs the same at 10⁶ nodes as at 50.
    let policy = s.policy(args, nodes, || {
        let system = SystemModel::pure_p2p(nodes, config.rho, mu);
        let (demand, utility) = (&config.demand, config.utility.as_ref());
        Ok(try_greedy_homogeneous(&system, demand, utility)?)
    })?;

    let agg = run_trials_sharded(config, &source, &policy, s.trials, s.seed, Some(shards))?;

    report(
        &agg.aggregate,
        None,
        s.trials,
        &config.utility,
        args.verbose(),
    );
    println!(
        "  shard workers         : {:>10} ({LOGICAL_SHARDS} logical shards)",
        shards
    );
    println!("  contacts processed    : {:>10}", agg.contacts_processed);
    let batch_digest = agg
        .event_digests
        .iter()
        .fold(0u64, |h, &d| h.rotate_left(7) ^ d);
    println!("  event digest          : {batch_digest:#018x}");
    if agg.fault_events > 0 {
        println!("  fault events          : {:>10}", agg.fault_events);
    }
    if let Some(bytes) = impatience_obs::manifest::peak_rss_bytes() {
        let mib = bytes as f64 / (1024.0 * 1024.0);
        println!("  peak RSS              : {mib:>10.1} MiB");
    }
    scope.profile(&Recorder::disabled(), None)?;
    Ok(())
}

/// The synthetic homogeneous Poisson source of `--nodes/--mu/--duration`
/// (the command's `defaults` where a flag is absent). One no engine can
/// run is a config error before any trial.
fn synthetic_source(args: &Args, defaults: (usize, f64, f64)) -> Result<ContactSource, CliError> {
    let source = ContactSource::homogeneous(
        args.get("nodes", defaults.0)?,
        args.get("mu", defaults.1)?,
        args.get("duration", defaults.2)?,
    );
    source.try_validate()?;
    Ok(source)
}

/// Contact source for `netrun` and its label: a trace positional, or the
/// synthetic source.
fn net_source(args: &Args) -> Result<(ContactSource, String), CliError> {
    match args.positional.first() {
        Some(path) => {
            let trace = read_trace_file(Path::new(path))?;
            Ok((ContactSource::trace(trace), path.clone()))
        }
        None => {
            let source = synthetic_source(args, (16, 0.05, 2_000.0))?;
            let (n, mu, t) = (source.nodes(), source.mean_rate(), source.duration());
            Ok((source, format!("poisson n={n} mu={mu} T={t}")))
        }
    }
}

/// The [`NetConfig`] for `netrun`, from defaults plus the CLI overrides
/// and the `--kill/--stall` chaos injections.
fn net_run_config(args: &Args) -> Result<NetConfig, CliError> {
    let d = NetConfig::default();
    let mut net = NetConfig {
        window: args.get("window", d.window)?,
        msg_delay: args.get("msg-delay", d.msg_delay)?,
        rto_base: args.get("rto-base", d.rto_base)?,
        rto_cap: args.get("rto-cap", d.rto_cap)?,
        max_attempts: args.get("max-attempts", d.max_attempts)?,
        deadline: args.get_opt("deadline")?,
        max_events: args.get("max-events", 0)?,
        ..d
    };
    for (flag, form) in [("kill", "T:NODE:DOWN_FOR"), ("stall", "T:NODE")] {
        let Some(spec) = args.options.get(flag) else {
            continue;
        };
        let bad = || CliError::from(format!("--{flag} wants {form}, got `{spec}`"));
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != form.split(':').count() {
            return Err(bad());
        }
        net.chaos.push(ChaosEvent {
            t: parts[0].parse().map_err(|_| bad())?,
            node: parts[1].parse().map_err(|_| bad())?,
            kind: match parts.get(2) {
                Some(down) => ChaosKind::Kill {
                    down_for: down.parse().map_err(|_| bad())?,
                },
                None => ChaosKind::Stall,
            },
        });
    }
    net.validate()?;
    Ok(net)
}

/// Result panel for a distributed batch.
fn net_report(agg: &NetAggregate, utility: &Arc<dyn DelayUtility>, source: &str, verbose: bool) {
    let (s, c, a) = (&agg.stats, &agg.conservation, &agg.aggregate);
    println!(
        "distributed QCR over {} trials (utility {}, source {source}):",
        a.trials,
        utility.kind()
    );
    println!("  mean observed utility : {:>10.5} /min", a.mean_rate);
    println!(
        "  5–95% band            : {:>10.5} … {:.5}",
        a.p5_rate, a.p95_rate
    );
    println!("  unfulfilled/trial     : {:>10.1}", a.mean_unfulfilled);
    println!(
        "  messages              : {:>10} sent · {} delivered · {} lost · {} dup",
        s.msgs_sent, s.msgs_delivered, s.msgs_lost, s.msgs_duplicated
    );
    println!(
        "  retries/timeouts      : {:>10} retries · {} ack · {} handshake",
        s.retries, s.ack_timeouts, s.handshake_timeouts
    );
    println!(
        "  mandate two-phase     : {:>10} handoffs · {} acks · {} executes",
        s.handoffs_started, s.acks_received, s.execs_applied
    );
    println!(
        "  conservation          : {} minted = {} executed + {} discarded + {} pooled + {} escrowed",
        c.minted, c.executed, c.discarded, c.pooled, c.escrowed
    );
    if verbose || s.crashes + s.stalls + s.requests_expired > 0 {
        println!(
            "  churn/deadline        : {:>10} crashes · {} restarts · {} condemned · {} expired",
            s.crashes, s.restarts, s.stalls, s.requests_expired
        );
    }
    if agg.degraded_trials > 0 {
        println!("  degraded trials       : {:>10}", agg.degraded_trials);
    }
    if verbose {
        println!("  workers               : {:>10}", a.workers);
        println!("  wall time             : {:>10.3} s", a.wall_s);
    }
}

/// `impatience netrun`: run QCR on the distributed message-passing
/// kernel (`impatience-net`) — independent node tasks, a typed
/// five-message protocol, an unreliable transport, two-phase acked
/// mandate transfers, and an exact conservation audit at quiesce.
/// `--verify` switches to the differential mode instead.
fn netrun(args: &Args) -> Result<(), CliError> {
    if args.options.contains_key("verify") {
        return netrun_verify(args);
    }
    let (source, source_label) = net_source(args)?;
    let nodes = source.nodes();
    let s = Scenario::parse(args, (20, 4, 10), true, Some(nodes))?;
    let workers: Option<usize> = args.get_opt("workers")?;
    let config = &s.config;
    // A config the engine would refuse is a config error before any trial.
    config.try_validate(nodes)?;
    let net = net_run_config(args)?;
    // No --profile here, and --verbose prints the aggregate, not the
    // recorder: without --trace-out nothing is tallied.
    let scope = Scope {
        events: args.options.get("trace-out").map(String::as_str),
        tally: false,
        profiling: false,
        beside: None,
    };

    let (agg, registry, seen) = observe!(scope, |rec| {
        let agg = run_net_trials_observed(config, &source, &net, s.trials, s.seed, workers, rec)?;
        let registry = scope.events.map(|_| agg.registry(rec));
        Ok((agg, registry, scope.seen(rec)?))
    });
    if let (Some(out), Some(registry)) = (scope.events, registry) {
        let prom = Path::new(out).with_extension("prom");
        registry
            .write_prom(&prom)
            .map_err(|e| CliError::cannot("write", prom.display(), e))?;
        println!("metrics → {}", prom.display());
        write_manifest("netrun", Path::new(out), &seen, |m| {
            m.set("source", source_label.as_str());
            m.set("trials", s.trials as u64);
            m.set("base_seed", s.seed);
            m.set("mean_rate", agg.aggregate.mean_rate);
            m.set("degraded_trials", agg.degraded_trials as u64);
            m.set("msgs_sent", agg.stats.msgs_sent);
            m.set("msgs_lost", agg.stats.msgs_lost);
            m.set("retries", agg.stats.retries);
            m.set("mandates_minted", agg.conservation.minted);
        })?;
    }

    net_report(&agg, &config.utility, &source_label, args.verbose());
    if agg.degraded_trials > 0 {
        let message = format!(
            "distributed batch degraded: {} of {} trial(s) \
             finished under a supervisor kill or the event cap; \
             conservation held in all of them (details above)",
            agg.degraded_trials, s.trials
        );
        return Err(CliError::new(FailureKind::Degraded, message));
    }
    Ok(())
}

/// `impatience netrun --verify [--quick]`: the oracle's net panel
/// ([`net_panel`]) — clean-transport scenarios through both the
/// distributed kernel and the engine on paired seeds, then a lossy sweep
/// that must terminate with conservation intact; a disagreement exits 10.
fn netrun_verify(args: &Args) -> Result<(), CliError> {
    let seed: u64 = args.get("seed", 42)?;
    let z: f64 = args.get("z", 3.5)?;
    if !(z.is_finite() && z > 0.0) {
        return Err(format!("--z must be finite and > 0 (got {z})").into());
    }
    let report = net_panel(seed, args.options.contains_key("quick"), z)?;
    print!("netrun --verify: {}", report.describe());
    if report.failures() > 0 {
        let message = format!(
            "distributed runtime disagreed with the engine on {} of \
             {} scenario(s); details above",
            report.failures(),
            report.clean.len()
        );
        return Err(CliError::new(FailureKind::Verify, message));
    }
    Ok(())
}

/// `verify --solver-deltas`: only the `delta_vs_scratch` differential
/// sweep, reported to stdout; any violation exits 10.
fn verify_solver_deltas(args: &Args) -> Result<(), CliError> {
    let seed: u64 = args.get("seed", 42)?;
    let report = delta_vs_scratch(seed);
    print!("{}", report.describe());
    if !report.ok() {
        let cases = report.cases as usize;
        return Err(CliError::verify_failed(report.failures(), cases));
    }
    Ok(())
}

/// `impatience verify`: run the seeded scenario conformance matrix from
/// the oracle crate — the solver-side invariants, short determinism
/// trials and the Monte-Carlo differential checks (analytic vs simulated
/// welfare, continuous vs discrete engine duality) — and fail (exit 10)
/// on any invariant violation.
fn verify(args: &Args) -> Result<(), CliError> {
    if args.options.contains_key("solver-deltas") {
        return verify_solver_deltas(args);
    }
    let seed: u64 = args.get("seed", 42)?;
    let limit: Option<usize> = args.get_opt("limit")?;
    let out = args
        .options
        .get("out")
        .cloned()
        .unwrap_or_else(|| "conformance.jsonl".to_string());
    let report_path = PathBuf::from(&out);
    // Scenario progress always streams through a recorder — into the
    // event file when asked for, else into tallies — because its summary
    // lands in the manifest; the profile goes beside the report.
    let scope = Scope {
        tally: true,
        beside: Some(report_path.clone()),
        ..Scope::new(args)
    };

    let (records, seen) = observe!(scope, |rec| {
        let records = run_matrix(seed, limit, rec);
        Ok((records, scope.seen(rec)?))
    });

    write_report(&report_path, &records).map_err(|e| CliError::cannot("write", &out, e))?;

    let t = MatrixTotals::of(&records);
    print!("{}", summary_table(&records));
    println!("report  → {out}");
    write_manifest("verify", &report_path, &seen, |m| {
        m.set("base_seed", seed);
        m.set("report", out.as_str());
        m.set("scenarios", t.scenarios as u64);
        m.set("runnable", t.runnable as u64);
        m.set("checks_passed", u64::from(t.passed));
        m.set("checks_failed", u64::from(t.failed));
        m.set("checks_skipped", u64::from(t.skipped));
        m.set("wall_s", t.wall_s);
    })?;
    for r in &records {
        for check in r.results.iter().filter(|c| c.status == CheckStatus::Fail) {
            eprintln!(
                "violation: {} / {}: {} (value {:.3e})",
                r.name, check.name, check.detail, check.value
            );
        }
    }
    if t.failed > 0 {
        return Err(CliError::verify_failed(t.failed, t.scenarios));
    }
    Ok(())
}

/// `impatience trace <summarize|diff|export|lint-prom>`: offline analysis
/// of the JSONL event traces that `simulate`, `netrun`, `verify`, and
/// `reproduce` write with `--trace-out`. Parsing is lenient — unreadable
/// lines are counted, not fatal — so a truncated trace from a killed run
/// still summarizes.
fn trace_cmd(args: &Args) -> Result<(), CliError> {
    const SUBCOMMANDS: &str = "summarize | diff | export | lint-prom";
    let sub = args
        .positional
        .first()
        .ok_or_else(|| format!("trace needs a subcommand: {SUBCOMMANDS}"))?;
    let load = |path: &str| -> Result<TraceSummary, CliError> {
        TraceSummary::from_file(Path::new(path)).map_err(|e| CliError::cannot("read", path, e))
    };
    // The file operand at `index`, or a usage error naming what `sub` needs.
    let operand = |index: usize, needs: &str| -> Result<&String, CliError> {
        let needs = format!("trace {sub} needs {needs}");
        args.positional.get(index).ok_or_else(|| needs.into())
    };
    match sub.as_str() {
        "summarize" => {
            let path = operand(1, "a JSONL trace file")?;
            let top: usize = args.get("top", 5)?;
            print!("{}", load(path)?.render(top));
            Ok(())
        }
        "diff" => {
            let a = operand(1, "two JSONL trace files")?;
            let b = operand(2, "two JSONL trace files")?;
            print!("{}", render_diff(&load(a)?, &load(b)?, a, b));
            Ok(())
        }
        "export" => {
            let path = operand(1, "a JSONL trace file")?;
            let registry = load(path)?.to_registry();
            match args.options.get("out") {
                Some(out) => {
                    registry
                        .write_prom(Path::new(out))
                        .map_err(|e| CliError::cannot("write", out, e))?;
                    println!("metrics → {out}");
                }
                None => print!("{}", registry.render()),
            }
            Ok(())
        }
        "lint-prom" => {
            let path = operand(1, "a Prometheus text file")?;
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError::cannot("read", path, e))?;
            let samples = parse_prometheus(&text).map_err(|(line, msg)| {
                CliError::from(TraceError::Format {
                    line,
                    message: format!("{path}: not valid Prometheus exposition: {msg}"),
                })
            })?;
            let families: std::collections::BTreeSet<&str> = samples
                .iter()
                .map(|s| {
                    s.name
                        .strip_suffix("_bucket")
                        .or_else(|| s.name.strip_suffix("_sum"))
                        .or_else(|| s.name.strip_suffix("_count"))
                        .unwrap_or(&s.name)
                })
                .collect();
            println!(
                "{path}: ok — {} sample(s) across {} metric famil{}",
                samples.len(),
                families.len(),
                if families.len() == 1 { "y" } else { "ies" }
            );
            Ok(())
        }
        other => Err(CliError::from(format!(
            "unknown trace subcommand `{other}` ({SUBCOMMANDS})"
        ))),
    }
}

/// `impatience serve`: run the allocation-as-a-service HTTP server until
/// the process is killed. The bound address is printed on stdout and
/// written to `<data-dir>/serve.addr`, so scripts can poll for
/// readiness; campaign jobs checkpoint continuously, so a killed server
/// resumes its queue bit-identically on the next start.
fn serve_cmd(args: &Args) -> Result<(), CliError> {
    if !args.positional.is_empty() {
        return Err(CliError::from(format!(
            "serve takes no positional arguments (got `{}`)",
            args.positional[0]
        )));
    }
    let config = ServeConfig {
        addr: args
            .options
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:7199".to_string()),
        data_dir: PathBuf::from(
            args.options
                .get("data-dir")
                .map(String::as_str)
                .unwrap_or("serve-data"),
        ),
        queue_cap: args.get("queue", 32)?,
        http_threads: args.get("http-threads", 8)?,
        solver_pool_per_key: args.get("solver-pool", 8)?,
    };
    if config.queue_cap == 0 || config.http_threads == 0 {
        return Err("serve needs --queue >= 1 and --http-threads >= 1".into());
    }
    let data_dir = config.data_dir.clone();
    let server = Server::start(config).map_err(|e| CliError::new(FailureKind::Io, e.message()))?;
    println!("impatience serve listening on {}", server.url());
    println!(
        "  data dir  {}  (address file: {})",
        data_dir.display(),
        data_dir.join("serve.addr").display()
    );
    println!("  endpoints /healthz /metrics /v1/solve /v1/campaigns /v1/artifacts");
    // Serve until killed. Recovery on the next start replays the job
    // queue from the persisted specs and checkpoints.
    loop {
        std::thread::park();
    }
}

/// What one `reproduce` invocation did, across every selected spec.
#[derive(Default)]
struct ReproOutcome {
    specs: usize,
    artifacts: usize,
    trials_total: usize,
    skipped: Vec<(String, String)>,
    drifted: usize,
    checked: usize,
}

/// `impatience reproduce`: compile the declarative TOML specs in
/// `experiments/` into simulation campaigns and write every figure's
/// CSV — with a provenance manifest sibling — under `results/`.
/// `--check` regenerates into a scratch directory, byte-compares
/// against the committed CSVs, and exits 11 on any drift; `--resume`
/// checkpoints each campaign so a killed run restarts where it stopped.
fn reproduce(args: &Args, invocation: &[String]) -> Result<(), CliError> {
    let specs_dir = args
        .options
        .get("specs")
        .map(String::as_str)
        .unwrap_or("experiments");
    let scope = Scope::new(args);
    let compile_span = impatience_obs::span!("spec.compile");
    let registry = Registry::load_dir(Path::new(specs_dir))?;
    compile_span.close();

    let list = args.options.contains_key("list");
    let selected: Vec<&Spec> = if let Some(fig) = args.get_opt::<u32>("fig")? {
        registry.by_figure(fig)?
    } else if !args.positional.is_empty() {
        registry.by_names(&args.positional)?
    } else if args.options.contains_key("all") || list {
        registry.all().iter().collect()
    } else {
        return Err(
            "reproduce needs spec names, --fig N, or --all (--list shows what is available)".into(),
        );
    };

    if list {
        println!(
            "{:<18} {:>3}  {:<15} {:>5} {:>6}  outputs",
            "spec", "fig", "kind", "cells", "trials"
        );
        for spec in &selected {
            let plan = spec.plan()?;
            let fig = spec
                .figure
                .map_or_else(|| "-".to_string(), |f| f.to_string());
            let outputs: Vec<String> = plan.outputs.iter().map(|o| format!("{o}.csv")).collect();
            println!(
                "{:<18} {:>3}  {:<15} {:>5} {:>6}  {}",
                spec.name,
                fig,
                spec.kind.name(),
                plan.cells.len(),
                plan.trials,
                outputs.join(" ")
            );
        }
        return Ok(());
    }
    // A setting the simulator would refuse fails here, before the first
    // trial of the first spec, not at the cell that reaches it.
    for spec in &selected {
        spec.validate()?;
    }

    let check = args.options.contains_key("check");
    let baseline_dir = PathBuf::from(
        args.options
            .get("out")
            .map(String::as_str)
            .unwrap_or("results"),
    );
    // --check runs into a scratch directory so a drifted regeneration
    // can never clobber the committed baselines it is judging.
    let run_dir = if check {
        baseline_dir.join(".check")
    } else {
        baseline_dir.clone()
    };
    let run = ReproRun {
        scope: &scope,
        selected: &selected,
        run_dir: &run_dir,
        baseline_dir: &baseline_dir,
        check,
        checkpoint_dir: args
            .options
            .contains_key("resume")
            .then(|| run_dir.join(".checkpoints")),
        workers: args.get_opt("workers")?,
        invocation,
    };
    let outcome = observe!(scope, |rec| { run.execute(rec) });

    if check {
        let _ = std::fs::remove_dir_all(&run_dir);
        if outcome.drifted > 0 {
            let message = format!(
                "reproduction drift: {} of {} artifact(s) \
                 differ from the committed results (details above)",
                outcome.drifted, outcome.checked
            );
            return Err(CliError::new(FailureKind::Drift, message));
        }
        println!(
            "check ok: {} artifact(s) byte-identical to {}/",
            outcome.checked,
            baseline_dir.display()
        );
    } else {
        println!(
            "reproduced {} spec(s), {} artifact(s) → {}/",
            outcome.specs,
            outcome.artifacts,
            run_dir.display()
        );
    }
    if !outcome.skipped.is_empty() {
        for (cell, msg) in &outcome.skipped {
            eprintln!("warning: {cell} skipped: {msg}");
        }
        return Err(CliError::trials_skipped(
            outcome.skipped.len(),
            outcome.trials_total,
        ));
    }
    Ok(())
}

/// One `reproduce` invocation, ready to run under whichever recorder its
/// scope binds.
struct ReproRun<'a> {
    scope: &'a Scope<'a>,
    selected: &'a [&'a Spec],
    run_dir: &'a Path,
    baseline_dir: &'a Path,
    check: bool,
    checkpoint_dir: Option<PathBuf>,
    workers: Option<usize>,
    invocation: &'a [String],
}

impl ReproRun<'_> {
    /// Run every selected spec, collect artifacts and skipped trials, and
    /// (in check mode) compare each regenerated CSV against its committed
    /// baseline.
    fn execute<S: Sink>(&self, rec: &mut Recorder<S>) -> Result<ReproOutcome, CliError> {
        let mut outcome = ReproOutcome::default();
        for spec in self.selected {
            println!("── {} — {}", spec.name, spec.title);
            let plan = spec.plan()?;
            let mut ctx = ExecContext {
                out_dir: self.run_dir.to_path_buf(),
                checkpoint_dir: self.checkpoint_dir.clone(),
                workers: self.workers,
                cli_args: self.invocation.to_vec(),
                quiet: self.check,
                rec: &mut *rec,
                progress: Progress::new(&spec.name, plan.cells.len() as u64),
            };
            let report = run_spec(spec, &mut ctx)?;
            ctx.progress.finish();
            // One profile per spec, drained right after it ran so the next
            // spec starts from an empty span tree. Named after the spec's
            // first artifact: results/fig2_alloc_exponent.{profile.json,prom}.
            self.scope
                .profile(ctx.rec, report.artifacts.first().map(PathBuf::as_path))?;
            outcome.specs += 1;
            outcome.artifacts += report.artifacts.len();
            outcome.trials_total += plan.trials * report.cells;
            for (cell, msg) in report.skipped {
                outcome.skipped.push((format!("{}:{cell}", spec.name), msg));
            }
            if self.check {
                for artifact in &report.artifacts {
                    let name = artifact
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    let baseline = self.baseline_dir.join(&name);
                    outcome.checked += 1;
                    match impatience_exp::check::compare(&baseline, artifact)? {
                        CheckOutcome::Match => println!("  check {name} … ok"),
                        CheckOutcome::MissingBaseline => {
                            outcome.drifted += 1;
                            println!("  check {name} … MISSING baseline {}", baseline.display());
                        }
                        CheckOutcome::Drift {
                            first_line,
                            expected,
                            actual,
                        } => {
                            outcome.drifted += 1;
                            println!("  check {name} … DRIFT at line {first_line}");
                            if let Some(e) = expected {
                                println!("    committed  : {e}");
                            }
                            if let Some(a) = actual {
                                println!("    regenerated: {a}");
                            }
                        }
                    }
                }
            }
        }
        // An empty checkpoint directory means every campaign finished and
        // cleaned up after itself.
        if let Some(dir) = &self.checkpoint_dir {
            let _ = std::fs::remove_dir(dir);
        }
        Ok(outcome)
    }
}

fn report(
    agg: &TrialAggregate,
    stats: Option<&Json>,
    trials: usize,
    utility: &Arc<dyn DelayUtility>,
    verbose: bool,
) {
    println!(
        "policy {} over {trials} trials (utility {}):",
        agg.label,
        utility.kind()
    );
    println!("  mean observed utility : {:>10.5} /min", agg.mean_rate);
    println!(
        "  5–95% band            : {:>10.5} … {:.5}",
        agg.p5_rate, agg.p95_rate
    );
    println!("  transmissions/trial   : {:>10.1}", agg.mean_transmissions);
    if verbose {
        println!(
            "  immediate hits/trial  : {:>10.1}",
            agg.mean_immediate_hits
        );
        println!("  unfulfilled/trial     : {:>10.1}", agg.mean_unfulfilled);
        println!(
            "  mandates/trial        : {:>10.1}",
            agg.mean_mandates_created
        );
        println!(
            "  workers               : {:>10} ({:.0}% utilized)",
            agg.workers,
            agg.worker_utilization * 100.0
        );
        println!(
            "  wall time             : {:>10.3} s ({:.4} s/trial)",
            agg.wall_s, agg.mean_trial_wall_s
        );
        if let Some(stats) = stats {
            let get = |h: &str, q: &str| {
                stats
                    .get(h)
                    .and_then(|o| o.get(q))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            };
            println!(
                "  fulfillment delay     : p50 {:.1}  p95 {:.1}  p99 {:.1} min",
                get("fulfillment_delay", "p50"),
                get("fulfillment_delay", "p95"),
                get("fulfillment_delay", "p99")
            );
            println!(
                "  inter-contact         : mean {:.2} min (p95 {:.1})",
                get("inter_contact", "mean"),
                get("inter_contact", "p95")
            );
            if let Some(peak) = stats
                .get("peaks")
                .and_then(|o| o.get("open_requests"))
                .and_then(Json::as_u64)
            {
                println!("  peak open requests    : {peak:>10}");
            }
            if let Some(faults) = stats
                .get("counters")
                .and_then(|o| o.get("faults"))
                .and_then(Json::as_u64)
            {
                if faults > 0 {
                    println!("  fault events          : {faults:>10}");
                }
            }
        }
    }
}
