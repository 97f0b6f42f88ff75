//! The `impatience` CLI contract, held to goldens under
//! `tests/fixtures/cli/`: for every observability shape of `simulate`,
//! `netrun`, `verify` and `reproduce` — plain, `--verbose`, `--trace-out`,
//! `--profile`, checkpointed, sharded, degraded — the exit code, stdout
//! and stderr (wall-clock fields masked), the exact set of files left
//! behind, and each manifest's key order.
//!
//! Every case runs the real binary in its own temp directory with
//! relative paths, so the goldens hold no host paths. After a deliberate
//! change to what the CLI prints or writes, regenerate with
//! `CLI_CONTRACT_BLESS=1 cargo test --test cli_contract` and review the
//! diff of `tests/fixtures/cli/`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use impatience_json::Json;

const REPO: &str = env!("CARGO_MANIFEST_DIR");

/// One case: a scratch directory, the transcript of every command run
/// in it, and the golden that transcript must equal.
struct Case {
    name: &'static str,
    dir: PathBuf,
    transcript: String,
}

/// What one invocation printed and how it exited.
struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

impl Case {
    fn new(name: &'static str) -> Case {
        let dir =
            std::env::temp_dir().join(format!("impatience-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Case {
            name,
            dir,
            transcript: String::new(),
        }
    }

    /// A case whose directory holds `trace.txt`, the 20-node Poisson
    /// trace CI's crash-recovery step uses (generation is not part of
    /// the transcript).
    fn with_trace(name: &'static str) -> Case {
        let case = Case::new(name);
        let args = "generate poisson --nodes 20 --mu 0.05 --duration 1500 -o trace.txt";
        let run = case.exec(&args.split(' ').collect::<Vec<_>>());
        assert_eq!(run.code, 0, "{}", run.stderr);
        case
    }

    fn exec(&self, args: &[&str]) -> Run {
        let out = Command::new(env!("CARGO_BIN_EXE_impatience"))
            .args(args)
            .current_dir(&self.dir)
            .output()
            .unwrap();
        Run {
            code: out.status.code().unwrap_or(-1),
            stdout: String::from_utf8(out.stdout).unwrap(),
            stderr: String::from_utf8(out.stderr).unwrap(),
        }
    }

    /// Run `impatience <line>` in the case directory and append it to
    /// the transcript. `SPECS` and `FIXTURE_SPECS` stand for the repo's
    /// `experiments/` and this suite's tiny spec directory.
    fn run(&mut self, line: &str) -> Run {
        let specs = format!("{REPO}/experiments");
        let fixture_specs = format!("{REPO}/tests/fixtures/cli/specs");
        let args: Vec<&str> = line
            .split(' ')
            .map(|a| match a {
                "SPECS" => specs.as_str(),
                "FIXTURE_SPECS" => fixture_specs.as_str(),
                other => other,
            })
            .collect();
        let run = self.exec(&args);
        let t = &mut self.transcript;
        writeln!(t, "$ impatience {line}").unwrap();
        writeln!(t, "exit {}", run.code).unwrap();
        for (stream, text) in [("stdout", &run.stdout), ("stderr", &run.stderr)] {
            if !text.is_empty() {
                writeln!(t, "--- {stream}").unwrap();
                t.push_str(&mask(text));
            }
        }
        t.push('\n');
        run
    }

    /// Append the files left behind (JSONL files with their line count,
    /// manifests with their top-level key order, CSVs with their content) and compare the whole
    /// transcript with the golden — or rewrite the golden when blessing.
    fn finish(mut self) {
        let mut files = Vec::new();
        list_files(&self.dir, &self.dir, &mut files);
        files.sort();
        self.transcript.push_str("--- files\n");
        for rel in &files {
            let path = self.dir.join(rel);
            if rel.ends_with(".manifest.json") {
                let keys = manifest_keys(&path).join(" ");
                writeln!(self.transcript, "{rel}: {keys}").unwrap();
            } else if rel.ends_with(".jsonl") {
                let lines = std::fs::read_to_string(&path).unwrap().lines().count();
                writeln!(self.transcript, "{rel}: {lines} lines").unwrap();
            } else if rel.ends_with(".csv") {
                writeln!(self.transcript, "{rel}:").unwrap();
                self.transcript
                    .push_str(&std::fs::read_to_string(&path).unwrap());
            } else {
                writeln!(self.transcript, "{rel}").unwrap();
            }
        }
        std::fs::remove_dir_all(&self.dir).ok();

        let golden = Path::new(REPO).join(format!("tests/fixtures/cli/{}.txt", self.name));
        if std::env::var_os("CLI_CONTRACT_BLESS").is_some() {
            std::fs::write(&golden, &self.transcript).unwrap();
            return;
        }
        let want = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", golden.display()));
        assert!(
            want == self.transcript,
            "{} drifted from its golden.\n--- want\n{want}\n--- got\n{}",
            self.name,
            self.transcript
        );
    }
}

/// Top-level keys of a manifest, in file order.
fn manifest_keys(path: &Path) -> Vec<String> {
    let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let pairs = json.as_object().unwrap();
    pairs.iter().map(|(k, _)| k.clone()).collect()
}

fn list_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            list_files(root, &path, out);
        } else {
            let rel = path.strip_prefix(root).unwrap();
            out.push(rel.to_string_lossy().into_owned());
        }
    }
}

/// Replace every wall-clock-dependent field: a number with an
/// auto-scaled time unit (`0.098 s`, `4.5 µs`) becomes `# t`, a number
/// before `s/trial` or `MiB` becomes `#`, and so do the two timing
/// percentages (`69% utilized`, `92.6% attributed`). A line that had a
/// field masked also has its column padding collapsed, since the profile
/// table pads to the widths of the numbers it prints; every other line is
/// kept byte for byte.
fn mask(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let mut tokens: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut masked = false;
        for i in 0..tokens.len().saturating_sub(1) {
            let next = tokens[i + 1].trim_end_matches([',', ')']);
            let tail = tokens[i + 1][next.len()..].to_string();
            let open = if tokens[i].starts_with('(') { "(" } else { "" };
            let body = &tokens[i][open.len()..];
            let is_number = |s: &str| s.parse::<f64>().is_ok();
            let timing_share = body.strip_suffix('%').is_some_and(is_number)
                && matches!(next, "utilized" | "attributed");
            if timing_share {
                tokens[i] = format!("{open}#%");
            } else if is_number(body) && matches!(next, "s" | "ms" | "µs" | "ns") {
                tokens[i] = format!("{open}#");
                tokens[i + 1] = format!("t{tail}");
            } else if is_number(body) && matches!(next, "s/trial" | "MiB") {
                tokens[i] = format!("{open}#");
            } else {
                continue;
            }
            masked = true;
        }
        if masked {
            let indent = line.len() - line.trim_start().len();
            out.push_str(&line[..indent]);
            out.push_str(&tokens.join(" "));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn mask_hides_wall_clock_fields_only() {
    let text = "  workers               :          2 (69% utilized)\n\
                \x20 wall time             :      0.098 s (0.0224 s/trial)\n\
                phase tree  (root wall 0.233 s, 92.6% attributed to named spans)\n\
                \x20   contact      84858 104.769 ms    1.2 µs\n\
                \x20 peak RSS              :        8.7 MiB\n\
                \x20 mean observed utility :    0.95629 /min\n";
    let want = "  workers : 2 (#% utilized)\n\
                \x20 wall time : # t (# s/trial)\n\
                phase tree (root wall # t, #% attributed to named spans)\n\
                \x20   contact 84858 # t # t\n\
                \x20 peak RSS : # MiB\n\
                \x20 mean observed utility :    0.95629 /min\n";
    assert_eq!(mask(text), want);
}

const SIMULATE: &str = "simulate trace.txt --items 20 --trials 6";

#[test]
fn simulate_plain() {
    let mut case = Case::with_trace("simulate_plain");
    case.run(SIMULATE);
    case.finish();
}

#[test]
fn simulate_verbose() {
    let mut case = Case::with_trace("simulate_verbose");
    case.run(&format!("{SIMULATE} --verbose --workers 2"));
    case.finish();
}

#[test]
fn simulate_trace_out() {
    let mut case = Case::with_trace("simulate_trace_out");
    case.run(&format!("{SIMULATE} --trace-out ev.jsonl"));
    case.finish();
}

#[test]
fn simulate_profile() {
    let mut case = Case::with_trace("simulate_profile");
    case.run(&format!("{SIMULATE} --profile --workers 2"));
    case.finish();
}

#[test]
fn simulate_profile_trace_out() {
    let mut case = Case::with_trace("simulate_profile_trace_out");
    case.run(&format!(
        "{SIMULATE} --profile --trace-out ev.jsonl --verbose --workers 2"
    ));
    case.finish();
}

#[test]
fn simulate_policy_opt() {
    let mut case = Case::with_trace("simulate_policy_opt");
    case.run(&format!("{SIMULATE} --policy opt"));
    case.finish();
}

/// On a sparse trace some pairs never meet. Under a waiting cost
/// (`power:0`, h(∞) = −∞) the raw rates make every placement look equally
/// worthless and OPT collapses to DOM; `simulate --policy opt` floors
/// those pairs as the figure suites do, so its OPT beats DOM.
#[test]
fn opt_on_a_trace_floors_pairs_that_never_met() {
    let case = Case::new("opt_on_a_sparse_trace");
    let generate = "generate poisson --nodes 20 --mu 0.001 --duration 1500 -o sparse.txt";
    assert_eq!(case.exec(&generate.split(' ').collect::<Vec<_>>()).code, 0);
    let mean = |policy: &str| -> f64 {
        let line = format!(
            "simulate sparse.txt --items 20 --trials 6 --utility power:0 --policy {policy}"
        );
        let run = case.exec(&line.split(' ').collect::<Vec<_>>());
        assert_eq!(run.code, 0, "{}", run.stderr);
        let mean = run
            .stdout
            .lines()
            .find_map(|l| l.split_once("mean observed utility :"));
        mean.and_then(|(_, v)| v.trim().strip_suffix("/min")?.trim().parse().ok())
            .unwrap_or_else(|| panic!("no mean in {}", run.stdout))
    };
    let (opt, dom) = (mean("opt"), mean("dom"));
    std::fs::remove_dir_all(&case.dir).ok();
    assert!(opt > dom, "OPT {opt} /min does not beat DOM {dom} /min");
}

#[test]
fn simulate_faults() {
    let mut case = Case::with_trace("simulate_faults");
    case.run(&format!(
        "{SIMULATE} --drop-p 0.2 --drop-burst 3 --churn-up 300 --churn-down 30 \
         --cache-fault-rate 0.001 --truncate 0.9 --verbose --workers 2"
    ));
    case.finish();
}

/// Kill a checkpointed campaign after its first chunk (exit 7), resume it
/// twice (the second resume restores everything and runs nothing), and
/// require the resumed result panel to equal an uninterrupted run's.
#[test]
fn checkpoint_abort_then_resume() {
    let panel = |run: &Run| -> Vec<String> {
        run.stdout
            .lines()
            .filter(|l| {
                ["mean observed", "band", "transmissions"]
                    .iter()
                    .any(|k| l.contains(k))
            })
            .map(String::from)
            .collect()
    };
    let mut case = Case::with_trace("checkpoint_abort_then_resume");
    let aborted = case.run(&format!(
        "{SIMULATE} --drop-p 0.2 --checkpoint run.ckpt --checkpoint-every 3 --abort-after-chunks 1"
    ));
    assert_eq!(aborted.code, 7);
    case.run("resume run.ckpt");
    let resumed = case.run("resume run.ckpt");
    let clean = case.run(&format!("{SIMULATE} --drop-p 0.2"));
    assert_eq!(panel(&resumed).len(), 3);
    assert_eq!(panel(&resumed), panel(&clean));
    case.finish();
}

#[test]
fn checkpoint_trace_out() {
    let mut case = Case::with_trace("checkpoint_trace_out");
    case.run(&format!(
        "{SIMULATE} --checkpoint run.ckpt --checkpoint-every 3 --trace-out ev.jsonl"
    ));
    case.finish();
}

/// A body that fails still commits the events it streamed before the
/// error propagates (`trace summarize` reads truncated traces); the
/// manifest, which describes a finished run, is not written.
#[test]
fn failed_body_still_commits_its_event_file() {
    let mut case = Case::with_trace("failed_body_still_commits_its_event_file");
    let aborted = case.run(&format!(
        "{SIMULATE} --checkpoint run.ckpt --checkpoint-every 3 --abort-after-chunks 1 \
         --trace-out ev.jsonl"
    ));
    // Not in the transcript: which trial was slowest is the clock's call.
    let summary = case.exec(&["trace", "summarize", "ev.jsonl"]);
    let (events, manifest) = (
        case.dir.join("ev.jsonl").is_file(),
        case.dir.join("ev.manifest.json").exists(),
    );
    case.finish();
    assert_eq!((aborted.code, summary.code), (7, 0));
    assert!(events && !manifest);
}

const SHARDED: &str = "--nodes 400 --mu 0.001 --duration 300 --trials 2 --seed 5 \
                       --drop-p 0.2 --cache-fault-rate 0.001";

#[test]
fn sharded_faults() {
    let mut case = Case::new("sharded_faults");
    case.run(&format!("simulate --shards 2 {SHARDED} --verbose"));
    case.finish();
}

/// One shard worker: with more, which thread ran a task — and so the
/// shape of the phase tree — is the scheduler's choice.
#[test]
fn sharded_profile() {
    let mut case = Case::new("sharded_profile");
    case.run(&format!("simulate --shards 1 {SHARDED} --profile"));
    case.finish();
}

const NETRUN: &str = "netrun --nodes 10 --mu 0.1 --duration 600";

#[test]
fn netrun_plain() {
    let mut case = Case::new("netrun_plain");
    case.run(&format!("{NETRUN} --trials 2"));
    case.finish();
}

/// The `netrun` manifest goes through the shared writer, so it ends with
/// the runtime stamp and the recorder's tallies like every other one.
#[test]
fn netrun_lossy_trace_out() {
    let mut case = Case::new("netrun_lossy_trace_out");
    case.run(&format!(
        "{NETRUN} --items 12 --rho 3 --trials 3 --loss-p 0.1 --dup-p 0.02 --reorder 3 \
         --trace-out net.jsonl --verbose --workers 2"
    ));
    let keys = manifest_keys(&case.dir.join("net.manifest.json"));
    case.finish();
    assert_eq!(
        keys[keys.len() - 4..],
        ["mandates_minted", "rustc", "peak_rss_bytes", "stats"]
    );
}

#[test]
fn netrun_stall_degrades() {
    let mut case = Case::new("netrun_stall_degrades");
    let run = case.run(&format!("{NETRUN} --trials 2 --stall 100:3"));
    assert_eq!(run.code, 9);
    case.finish();
}

const VERIFY: &str = "verify --limit 2 -o conformance.jsonl";

#[test]
fn verify_plain() {
    let mut case = Case::new("verify_plain");
    case.run(VERIFY);
    case.finish();
}

#[test]
fn verify_trace_out_profile() {
    let mut case = Case::new("verify_trace_out_profile");
    case.run(&format!("{VERIFY} --trace-out scenarios.jsonl --profile"));
    case.finish();
}

#[test]
fn reproduce_check() {
    let mut case = Case::new("reproduce_check");
    std::fs::create_dir(case.dir.join("base")).unwrap();
    std::fs::copy(
        format!("{REPO}/results/fig2_alloc_exponent.csv"),
        case.dir.join("base/fig2_alloc_exponent.csv"),
    )
    .unwrap();
    case.run("reproduce --fig 2 --check --specs SPECS -o base");
    case.finish();
}

#[test]
fn reproduce_profile_trace_out() {
    let mut case = Case::new("reproduce_profile_trace_out");
    case.run("reproduce --fig 2 --profile --trace-out events.jsonl --specs SPECS -o out");
    case.finish();
}

/// A simulated spec small enough for a debug build, through the
/// tallies-without-a-file scope.
#[test]
fn reproduce_verbose() {
    let mut case = Case::new("reproduce_verbose");
    case.run("reproduce tiny --verbose --workers 2 --specs FIXTURE_SPECS -o out");
    case.finish();
}

/// What `--list` says is what runs: one row per fixture spec, its cell
/// count the kind's own enumeration (`crates/exp/tests/cells.rs` holds
/// the runs to it). Listing validates nothing, so `bad_degraded` is a row.
#[test]
fn reproduce_list() {
    let mut case = Case::new("reproduce_list");
    case.run("reproduce --list --specs FIXTURE_SPECS");
    case.finish();
}

/// A setting the simulator refuses fails before the first trial, as a
/// config error: no CSV, no event file, nothing under `out/`.
#[test]
fn reproduce_refuses_a_bad_fault_sweep() {
    let mut case = Case::new("reproduce_refuses_a_bad_fault_sweep");
    let run = case
        .run("reproduce tiny bad_degraded --trace-out events.jsonl --specs FIXTURE_SPECS -o out");
    let mut left = Vec::new();
    list_files(&case.dir, &case.dir, &mut left);
    case.finish();
    assert_eq!(run.code, 3, "{}", run.stderr);
    assert!(run.stderr.contains("drop probability 0.995 exceeds"));
    assert!(left.is_empty(), "{left:?}");
}

/// An analytic setting a core constructor would assert on fails the same
/// way: exit 3 before anything runs, nothing written beside the spec.
#[test]
fn reproduce_refuses_a_bad_analytic_setting() {
    let mut case = Case::new("reproduce_refuses_a_bad_analytic_setting");
    let committed = std::fs::read_to_string(format!("{REPO}/experiments/ext_mixed_catalog.toml"));
    let spec = committed.unwrap().replace("mu = 0.05", "mu = 0.0");
    std::fs::create_dir_all(case.dir.join("specs")).unwrap();
    std::fs::write(case.dir.join("specs/ext_mixed_catalog.toml"), spec).unwrap();
    let run = case.run("reproduce ext_mixed_catalog --specs specs -o out");
    let mut left = Vec::new();
    list_files(&case.dir, &case.dir, &mut left);
    case.finish();
    assert_eq!(run.code, 3, "{}", run.stderr);
    assert!(run.stderr.contains("mu must be positive and finite"));
    assert_eq!(left, ["specs/ext_mixed_catalog.toml"]);
}

/// ρ = 0 leaves nothing to place: `simulate`, with and without
/// `--shards`, and `netrun` refuse it as a config error before any trial.
#[test]
fn zero_capacity_is_a_config_error() {
    let mut case = Case::with_trace("zero_capacity_is_a_config_error");
    let runs = [
        case.run("simulate trace.txt --rho 0"),
        case.run("simulate --shards 1 --nodes 400 --mu 0.001 --duration 300 --rho 0"),
        case.run(&format!("{NETRUN} --rho 0")),
    ];
    case.finish();
    for run in runs {
        assert!(
            run.code == 3 && run.stderr.contains("ρ must be at least 1"),
            "{}",
            run.stderr
        );
    }
}

/// Each usage error names every valid choice, and says it once; an
/// option the command does not read is refused, not ignored.
#[test]
fn usage_messages() {
    let mut case = Case::with_trace("usage_messages");
    let serial = case.run("simulate trace.txt --policy nope");
    let sharded = case.run("simulate --shards 2 --policy nope");
    let trace = case.run("trace");
    // Each mode refuses what only another mode reads.
    let unread = [
        ("solve", case.run("solve --itmes 7"), "--itmes"),
        ("verify", case.run("verify --quick"), "--quick"),
        (
            "trace export",
            case.run("trace export trace.txt --prom"),
            "--prom",
        ),
        (
            "simulate",
            case.run("simulate trace.txt --nodes 5"),
            "--nodes",
        ),
        // `verify` is the one oracle run, `solve` one solve.
        (
            "verify",
            case.run("verify --solver-deltas --limit 3"),
            "--solver-deltas",
        ),
        (
            "verify",
            case.run("verify --solver-deltas nothing.txt"),
            "--solver-deltas",
        ),
        ("solve", case.run("solve --deltas 8"), "--deltas"),
        ("solve", case.run("solve --incremental"), "--incremental"),
        (
            "netrun",
            case.run("netrun --verify --quick --trials 3"),
            "--verify",
        ),
        ("netrun", case.run("netrun --verify T"), "--verify"),
        ("netrun", case.run(&format!("{NETRUN} --quick")), "--quick"),
        (
            "netrun TRACE",
            case.run("netrun trace.txt --nodes 5 --mu 9 --duration 3 --trials 1"),
            "--nodes",
        ),
        (
            "reproduce --list",
            case.run("reproduce --list --check --specs FIXTURE_SPECS"),
            "--check",
        ),
        (
            "generate conference",
            case.run("generate conference --mu 0.9 -o conf.txt"),
            "--mu",
        ),
        (
            "generate vehicular",
            case.run("generate vehicular --nodes 40 --days 9 -o taxi.txt"),
            "--nodes",
        ),
        (
            "trace summarize",
            case.run("trace summarize events.jsonl -o x.prom"),
            "-o",
        ),
        (
            "trace diff",
            case.run("trace diff a.jsonl b.jsonl --top 3 -o x.prom"),
            "--top",
        ),
        // Chunking and the abort hook shape a checkpointed campaign only.
        (
            "simulate",
            case.run("simulate trace.txt --checkpoint-every 3 --abort-after-chunks 1"),
            "--checkpoint-every",
        ),
        (
            "simulate",
            case.run("simulate trace.txt --abort-after-chunks 1"),
            "--abort-after-chunks",
        ),
    ];
    // A count of zero, and a net config the runtime cannot honor.
    let zero = [
        case.run("simulate trace.txt --trials 0"),
        case.run("verify --limit 0"),
    ];
    let no_workers = [
        case.run("simulate trace.txt --workers 0 --trials 2"),
        case.run(&format!("{NETRUN} --trials 1 --workers 0")),
        case.run("reproduce --all --workers 0 --specs FIXTURE_SPECS -o out"),
    ];
    let net = [
        case.run(&format!("{NETRUN} --trials 1 --deadline -5")),
        case.run("netrun --nodes 6 --duration 200 --trials 1 --stall 5:99"),
    ];
    // A catalogue and a skew `Popularity::pareto` could not build.
    let demand = [
        case.run("simulate trace.txt --items 0"),
        case.run("simulate --shards 2 --omega inf"),
        case.run(&format!("{NETRUN} --omega nan")),
        case.run("solve --omega -1000"),
    ];
    // Each mode refuses a positional it does not read.
    let words = [
        (
            "solve",
            case.run("solve bogus.txt --items 5 --servers 5 --rho 1"),
            "bogus.txt",
        ),
        (
            "trace diff",
            case.run("trace diff a.jsonl b.jsonl c.jsonl"),
            "c.jsonl",
        ),
        (
            "simulate --shards",
            case.run("simulate trace.txt --shards 2"),
            "trace.txt",
        ),
    ];
    case.finish();
    for run in demand.iter().chain(&zero) {
        assert_eq!(run.code, 2, "{}", run.stderr);
    }
    for run in &no_workers {
        assert!(
            run.code == 2 && run.stderr.contains("--workers must be at least 1"),
            "{}",
            run.stderr
        );
    }
    for run in net {
        assert!(
            run.code == 3 && run.stderr.contains("error[config]: net config"),
            "{}",
            run.stderr
        );
    }
    let policies = "unknown policy `nope` \
                    (qcr | qcr-no-routing | opt | uni | sqrt | prop | dom | passive)";
    for run in [&serial, &sharded] {
        assert!(
            run.code == 2 && run.stderr.contains(policies),
            "{}",
            run.stderr
        );
    }
    let subcommands = "summarize | diff | export | lint-prom";
    assert!(
        trace.code == 2 && trace.stderr.contains(subcommands),
        "{}",
        trace.stderr
    );
    for (command, run, option) in unread {
        let message = format!("unknown option `{option}` for `{command}`");
        assert!(
            run.code == 2 && run.stderr.contains(&message),
            "{}",
            run.stderr
        );
    }
    for (command, run, word) in &words {
        let message = format!("unexpected argument `{word}` for `{command}`");
        assert!(
            run.code == 2 && run.stderr.contains(&message),
            "{}",
            run.stderr
        );
    }
    // Only a mode with a synthetic source names what replaces the trace.
    for (command, run, _) in &words {
        let hint = run.stderr.contains("pass --nodes/--mu/--duration instead");
        assert_eq!(hint, *command == "simulate --shards", "{}", run.stderr);
    }
}

const SOLVE: &str = "solve --items 20 --servers 20 --rho 3 --utility exp:0.2";

#[test]
fn solve_plain() {
    let mut case = Case::new("solve_plain");
    case.run(SOLVE);
    case.run(&format!("{SOLVE} --verbose"));
    case.finish();
}

#[test]
fn generate_and_stats() {
    let mut case = Case::new("generate_and_stats");
    case.run("generate poisson --nodes 20 --mu 0.05 --duration 1500 -o trace.txt");
    case.run("stats trace.txt");
    case.finish();
}

/// A trace whose `# duration` header is not a positive, finite time is
/// a `trace` error naming the header's line, in `stats` and `simulate`.
#[test]
fn degenerate_trace_duration_is_a_trace_error() {
    let mut case = Case::new("degenerate_trace_duration_is_a_trace_error");
    std::fs::write(case.dir.join("zero.trace"), "# nodes 3\n# duration 0\n").unwrap();
    for line in ["stats zero.trace", "simulate zero.trace --items 2 --rho 1"] {
        let run = case.run(line);
        assert_eq!(run.code, 5, "{}", run.stderr);
    }
    case.finish();
}

/// Every `trace` subcommand on the two committed fixture traces.
#[test]
fn trace_subcommands() {
    let mut case = Case::new("trace_subcommands");
    for name in ["trace_a.jsonl", "trace_b.jsonl"] {
        let fixture = format!("{REPO}/tests/fixtures/{name}");
        std::fs::copy(fixture, case.dir.join(name)).unwrap();
    }
    case.run("trace summarize trace_a.jsonl --top 3");
    case.run("trace diff trace_a.jsonl trace_b.jsonl");
    case.run("trace export trace_b.jsonl");
    case.run("trace export trace_a.jsonl -o a.prom");
    case.run("trace lint-prom a.prom");
    case.finish();
}

/// A synthetic source no engine can run is a config error before any
/// trial, with the same message from `netrun` as from `simulate --shards`.
#[test]
fn bad_synthetic_source_is_a_config_error() {
    let mut case = Case::new("bad_synthetic_source_is_a_config_error");
    for source in ["--nodes 0", "--nodes 1", "--mu -0.1"] {
        let net = case.run(&format!("netrun {source}"));
        let sharded = case.run(&format!("simulate --shards 1 {source}"));
        assert_eq!((net.code, sharded.code), (3, 3), "{}", net.stderr);
        assert_eq!(net.stderr, sharded.stderr);
    }
    case.finish();
}

/// A contact rate the analytic model cannot hold is a config error.
#[test]
fn solve_refuses_bad_parameters() {
    let mut case = Case::new("solve_refuses_bad_parameters");
    for mu in ["0", "-1", "nan"] {
        let run = case.run(&format!("{SOLVE} --mu {mu}"));
        assert_eq!(run.code, 3, "{}", run.stderr);
    }
    case.finish();
}
