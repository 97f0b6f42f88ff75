//! `POST /v1/campaigns`: the bounded job queue, the campaign runner
//! thread, and crash recovery.
//!
//! ## Lifecycle
//!
//! `queued → running → done | failed`, one [`JobState`] per job.
//! Submission validates the spec (the campaign gate included, so what is
//! accepted is what the runner will run), persists it to
//! `jobs/<id>.json` (atomic write) *before* acknowledging, then enqueues;
//! a single runner thread drains the queue in submission order, so
//! concurrently accepted campaigns complete FIFO. A full queue sheds with
//! 429 ([`ApiError::QueueFull`]) — the job is not persisted, the client
//! retries.
//!
//! ## Crash recovery
//!
//! Each job runs under [`run_campaign`] with a checkpoint at
//! `jobs/<id>.ckpt`. On startup the manager rescans the directory: any
//! spec without a matching `<id>.result.json` is re-enqueued and
//! resumes from its checkpoint (the fingerprint is re-verified) — unless
//! it no longer validates, which lists it as failed — so a
//! `kill -9` mid-campaign costs at most one checkpoint interval of
//! work. The result document excludes wall-clock telemetry — the one
//! non-bit-stable part of a [`TrialAggregate`] — so a resumed job
//! produces a **byte-identical artifact** (same content hash) as an
//! uninterrupted run.
//!
//! ## Progress streaming
//!
//! The runner records through an [`obs` stream sink](StreamSink), so
//! every recorder event a campaign emits is live-tailable over
//! `GET /v1/campaigns/{id}/events` while the job runs; the stream
//! closes when the job reaches a terminal state.

use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use impatience_core::demand::DemandProfile;
use impatience_core::utility::parse_utility;
use impatience_json::Json;
use impatience_obs::stream::{EventStream, StreamSink};
use impatience_obs::{write_atomic, Recorder, Sink as _};
use impatience_sim::runner::{campaign_gate, run_campaign, CampaignOptions};
use impatience_sim::{CampaignError, ContactSource, PolicyKind, SimConfig, TrialAggregate};

use crate::artifacts::ArtifactStore;
use crate::error::ApiError;
use crate::http::{at_most, expect_object, field, MAX_ITEMS, MAX_NODES, MAX_SLOTS};
use crate::lock;
use crate::metrics::ServeMetrics;

/// A validated campaign job specification.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Total nodes in the homogeneous contact process.
    pub nodes: usize,
    /// Pairwise contact rate μ.
    pub mu: f64,
    /// Simulated horizon (minutes).
    pub duration: f64,
    /// Catalog size.
    pub items: usize,
    /// Per-node cache slots ρ.
    pub rho: usize,
    /// Pareto popularity exponent ω.
    pub omega: f64,
    /// Delay-utility spec (`step:10`, `exp:0.5`, …).
    pub utility: String,
    /// Policy name (`qcr`, `uni`, `sqrt`, `prop`, `dom`, `passive`).
    pub policy: String,
    /// Number of trials.
    pub trials: usize,
    /// Base seed (trial `k` uses `seed + k`).
    pub seed: u64,
    /// Trials per checkpoint interval.
    pub checkpoint_every: usize,
}

impl JobSpec {
    /// Parse and validate a submission body.
    pub fn from_json(body: &Json) -> Result<JobSpec, ApiError> {
        let spec = JobSpec::parse(body)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Read a submission body's fields, defaults filled in.
    fn parse(body: &Json) -> Result<JobSpec, ApiError> {
        expect_object(body)?;
        Ok(JobSpec {
            nodes: field(body, "nodes")?.unwrap_or(40),
            mu: field(body, "mu")?.unwrap_or(0.05),
            duration: field(body, "duration")?.unwrap_or(2000.0),
            items: field(body, "items")?.unwrap_or(20),
            rho: field(body, "rho")?.unwrap_or(2),
            omega: field(body, "omega")?.unwrap_or(1.0),
            utility: field(body, "utility")?.unwrap_or("step:10").to_string(),
            policy: field(body, "policy")?.unwrap_or("qcr").to_string(),
            trials: field(body, "trials")?.unwrap_or(8),
            seed: field(body, "seed")?.unwrap_or(42),
            checkpoint_every: field(body, "checkpoint_every")?.unwrap_or(4),
        })
    }

    fn validate(&self) -> Result<(), ApiError> {
        if self.nodes < 2 {
            return Err(ApiError::Config("`nodes` must be ≥ 2".into()));
        }
        at_most("`nodes`", self.nodes, MAX_NODES)?;
        if !(self.mu.is_finite() && self.mu > 0.0) {
            return Err(ApiError::Config(format!(
                "`mu` must be finite and > 0, got {}",
                self.mu
            )));
        }
        if !(self.duration.is_finite() && self.duration > 0.0) {
            return Err(ApiError::Config("`duration` must be finite and > 0".into()));
        }
        if self.items == 0 {
            return Err(ApiError::Config("`items` must be ≥ 1".into()));
        }
        at_most("`items`", self.items, MAX_ITEMS)?;
        at_most(
            "`rho`·`nodes`",
            self.rho.saturating_mul(self.nodes),
            MAX_SLOTS,
        )?;
        at_most(
            "`items`·`nodes`",
            self.items.saturating_mul(self.nodes),
            MAX_SLOTS,
        )?;
        if !(self.omega.is_finite() && self.omega > 0.0) {
            return Err(ApiError::Config("`omega` must be finite and > 0".into()));
        }
        if self.trials == 0 {
            return Err(ApiError::Config("`trials` must be ≥ 1".into()));
        }
        // The utility grammar and the policy names are `build`'s to know,
        // the rest is the campaign gate's: what both accept is what the
        // runner will run.
        let (config, source, _) = self.build()?;
        campaign_gate(&config, &source).map_err(|e| ApiError::Config(e.to_string()))
    }

    /// Serialize for persistence and status reports.
    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("nodes", Json::from(self.nodes)),
            ("mu", Json::from(self.mu)),
            ("duration", Json::from(self.duration)),
            ("items", Json::from(self.items)),
            ("rho", Json::from(self.rho)),
            ("omega", Json::from(self.omega)),
            ("utility", Json::from(self.utility.as_str())),
            ("policy", Json::from(self.policy.as_str())),
            ("trials", Json::from(self.trials)),
            ("seed", Json::from(self.seed)),
            ("checkpoint_every", Json::from(self.checkpoint_every)),
        ])
    }

    /// Compile to the simulator inputs.
    pub fn build(&self) -> Result<(SimConfig, ContactSource, PolicyKind), ApiError> {
        let utility = parse_utility(&self.utility).map_err(|e| ApiError::Config(e.to_string()))?;
        let config = SimConfig::campaign(self.items, self.rho, self.omega, utility)
            .profile(DemandProfile::uniform(self.items, self.nodes))
            .build();
        let policy = match self.policy.as_str() {
            "qcr" => PolicyKind::qcr_default(),
            "passive" => PolicyKind::Passive { replicas: 1.0 },
            name => {
                PolicyKind::fixed(name, &config.demand, self.nodes, self.rho).ok_or_else(|| {
                    ApiError::Config(format!(
                        "unknown policy `{name}` (expected qcr, passive, uni, sqrt, prop, dom)"
                    ))
                })?
            }
        };
        let source = ContactSource::homogeneous(self.nodes, self.mu, self.duration);
        Ok((config, source, policy))
    }
}

/// Where a job is in its lifecycle (DESIGN §17), with what it knows
/// there.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum JobState {
    /// Accepted and persisted, waiting for the runner.
    Queued,
    /// The runner thread is executing it.
    Running,
    /// Completed: the result artifact's hash (`None` when a recovered
    /// marker names none), the trials restored from a checkpoint and the
    /// trials this process executed.
    Done {
        artifact: Option<String>,
        resumed: usize,
        executed: usize,
    },
    /// The run failed (config, checkpoint or campaign error), or the
    /// persisted spec no longer validates.
    Failed { error: String },
}

impl JobState {
    /// Lower-case tag used in the API.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
        }
    }
}

/// Everything the server keeps about one job.
struct Job {
    spec: JobSpec,
    state: JobState,
    /// What its runs record, for SSE subscribers.
    stream: EventStream,
}

impl Job {
    /// A job in `state`. A restored `done` or `failed` job's stream is
    /// closed: there is no replay across restarts, so its subscribers get
    /// the terminal frame at once.
    fn new(spec: JobSpec, state: JobState) -> Job {
        let stream = EventStream::new();
        if state != JobState::Queued {
            stream.close();
        }
        Job {
            spec,
            state,
            stream,
        }
    }

    /// Serialize for `GET /v1/campaigns[/{id}]`.
    fn to_json(&self, id: &str) -> Json {
        let mut fields = vec![
            ("job", Json::from(id)),
            ("state", Json::from(self.state.as_str())),
            ("spec", self.spec.to_json()),
            ("events", Json::from(events_url(id))),
        ];
        let (resumed, executed) = match &self.state {
            JobState::Queued | JobState::Running => (0, 0),
            JobState::Done {
                artifact,
                resumed,
                executed,
            } => {
                if let Some(hash) = artifact {
                    fields.push(("artifact", Json::from(hash.as_str())));
                    fields.push(("artifact_url", Json::from(format!("/v1/artifacts/{hash}"))));
                }
                (*resumed, *executed)
            }
            JobState::Failed { error } => {
                fields.push(("error", Json::from(error.as_str())));
                (0, 0)
            }
        };
        fields.push(("resumed", Json::from(resumed)));
        fields.push(("executed", Json::from(executed)));
        Json::obj(fields)
    }
}

fn events_url(id: &str) -> String {
    format!("/v1/campaigns/{id}/events")
}

/// The `202` body of an accepted submission.
pub(crate) fn receipt(id: &str) -> Json {
    Json::obj([
        ("job", Json::from(id)),
        ("state", Json::from(JobState::Queued.as_str())),
        ("events", Json::from(events_url(id))),
        ("status_url", Json::from(format!("/v1/campaigns/{id}"))),
    ])
}

#[derive(Default)]
struct ManagerState {
    jobs: BTreeMap<String, Job>,
    queue: VecDeque<String>,
    /// Terminal completion order — what the FIFO e2e test asserts on.
    completed: Vec<String>,
    /// The highest job number issued or recovered.
    last_id: u64,
    draining: bool,
}

struct Shared {
    state: Mutex<ManagerState>,
    cond: Condvar,
    dir: PathBuf,
    store: ArtifactStore,
    metrics: ServeMetrics,
    queue_cap: usize,
}

/// The campaign job manager: bounded queue + single runner thread.
pub struct JobManager {
    shared: Arc<Shared>,
    runner: Mutex<Option<JoinHandle<()>>>,
}

impl JobManager {
    /// Open the manager over `dir` (`<data_dir>/jobs`), recovering any
    /// interrupted jobs, and start the runner thread.
    pub fn start(
        dir: &Path,
        store: ArtifactStore,
        metrics: ServeMetrics,
        queue_cap: usize,
    ) -> Result<JobManager, ApiError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ApiError::Io(format!("cannot create job dir {dir:?}: {e}")))?;
        let mut state = ManagerState::default();
        recover(dir, &mut state)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            cond: Condvar::new(),
            dir: dir.to_path_buf(),
            store,
            metrics,
            queue_cap: queue_cap.max(1),
        });
        let runner = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("campaign-runner".into())
                .spawn(move || runner_loop(&shared))
                .map_err(|e| ApiError::Io(format!("cannot spawn runner: {e}")))?
        };
        Ok(JobManager {
            shared,
            runner: Mutex::new(Some(runner)),
        })
    }

    /// Accept a job: persist its spec, enqueue, return the id.
    /// Sheds with [`ApiError::QueueFull`] when the queue is at capacity.
    pub fn submit(&self, spec: JobSpec) -> Result<String, ApiError> {
        let id = {
            let mut st = lock(&self.shared.state);
            if st.draining {
                return Err(ApiError::ShuttingDown);
            }
            if st.queue.len() >= self.shared.queue_cap {
                self.shared.metrics.campaign("shed");
                return Err(ApiError::QueueFull {
                    capacity: self.shared.queue_cap,
                });
            }
            st.last_id += 1;
            let id = format!("j{:04}", st.last_id);
            // Persist before acknowledging: an accepted job survives a
            // crash even if it never started.
            let doc = format!("{}\n", spec.to_json());
            write_atomic(&self.shared.dir.join(format!("{id}.json")), doc.as_bytes())
                .map_err(|e| ApiError::Io(format!("cannot persist job spec: {e}")))?;
            st.jobs.insert(id.clone(), Job::new(spec, JobState::Queued));
            st.queue.push_back(id.clone());
            self.shared.metrics.queue_depth(st.queue.len());
            id
        };
        self.shared.cond.notify_all();
        Ok(id)
    }

    /// Read job `id` under the jobs lock.
    fn with<R>(&self, id: &str, read: impl FnOnce(&Job) -> R) -> Option<R> {
        lock(&self.shared.state).jobs.get(id).map(read)
    }

    /// One job's state.
    pub fn state(&self, id: &str) -> Option<JobState> {
        self.with(id, |job| job.state.clone())
    }

    /// `GET /v1/campaigns/{id}`'s body.
    pub fn status(&self, id: &str) -> Option<Json> {
        self.with(id, |job| job.to_json(id))
    }

    /// The live event stream for a job (for SSE subscribers).
    pub fn stream(&self, id: &str) -> Option<EventStream> {
        self.with(id, |job| job.stream.clone())
    }

    /// What the event streams of all listed jobs hold for replay:
    /// `(bytes, lines)`.
    pub fn events_retained(&self) -> (usize, usize) {
        let st = lock(&self.shared.state);
        st.jobs.values().fold((0, 0), |(bytes, lines), job| {
            (
                bytes + job.stream.retained_bytes(),
                lines + job.stream.len(),
            )
        })
    }

    /// `GET /v1/campaigns`' body: all jobs (by id) plus the terminal
    /// completion order.
    pub fn list(&self) -> Json {
        let st = lock(&self.shared.state);
        let jobs = st.jobs.iter().map(|(id, job)| job.to_json(id)).collect();
        let completed = st.completed.iter().map(|id| Json::from(id.as_str()));
        Json::obj([
            ("jobs", Json::Array(jobs)),
            ("completed_order", Json::Array(completed.collect())),
        ])
    }

    /// The queue depth (jobs accepted but not yet running), and whether a
    /// job is executing.
    pub fn load(&self) -> (usize, bool) {
        let st = lock(&self.shared.state);
        let running = st.jobs.values().any(|job| job.state == JobState::Running);
        (st.queue.len(), running)
    }

    /// Stop accepting work and join the runner once the current job (if
    /// any) finishes. Queued jobs stay persisted and recover on the
    /// next start.
    pub fn shutdown(&self) {
        lock(&self.shared.state).draining = true;
        self.shared.cond.notify_all();
        let handle = lock(&self.runner).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Startup scan: load every persisted spec; jobs with a result file are
/// restored as done, specs that no longer validate as failed, and the
/// rest re-enqueue in id order (their checkpoints, if any, make the
/// re-run resume instead of restart).
fn recover(dir: &Path, st: &mut ManagerState) -> Result<(), ApiError> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // fresh directory
    };
    let mut pending: Vec<String> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(id) = name.strip_suffix(".json") else {
            continue;
        };
        if id.ends_with(".result") || !id.starts_with('j') {
            continue;
        }
        let text = std::fs::read_to_string(entry.path())
            .map_err(|e| ApiError::Io(format!("cannot read job spec {name}: {e}")))?;
        let json = Json::parse(&text)
            .map_err(|e| ApiError::Checkpoint(format!("corrupt job spec {name}: {e}")))?;
        let spec = JobSpec::parse(&json)?;
        if let Ok(n) = id[1..].parse::<u64>() {
            st.last_id = st.last_id.max(n);
        }
        let result_path = dir.join(format!("{id}.result.json"));
        let state = if result_path.exists() {
            let text = std::fs::read_to_string(&result_path)
                .map_err(|e| ApiError::Io(format!("cannot read job result: {e}")))?;
            let artifact = Json::parse(&text)
                .ok()
                .and_then(|j| j.get("artifact")?.as_str().map(str::to_string));
            JobState::Done {
                artifact,
                resumed: 0,
                executed: 0,
            }
        } else if let Err(e) = spec.validate() {
            JobState::Failed { error: e.message() }
        } else {
            pending.push(id.to_string());
            JobState::Queued
        };
        st.jobs.insert(id.to_string(), Job::new(spec, state));
    }
    pending.sort();
    st.queue.extend(pending);
    Ok(())
}

fn runner_loop(shared: &Shared) {
    loop {
        let (id, spec, stream) = {
            let mut st = lock(&shared.state);
            loop {
                // Draining wins over queued work: queued specs are
                // already persisted and recover on the next start.
                if st.draining {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    shared.metrics.queue_depth(st.queue.len());
                    let Some(job) = st.jobs.get_mut(&id) else {
                        continue;
                    };
                    job.state = JobState::Running;
                    break (id, job.spec.clone(), job.stream.clone());
                }
                st = shared
                    .cond
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };

        let state = execute(shared, &id, &spec, &stream)
            .unwrap_or_else(|e| JobState::Failed { error: e.message() });
        let disposition = state.as_str();
        let mut st = lock(&shared.state);
        if let Some(job) = st.jobs.get_mut(&id) {
            job.state = state;
        }
        st.completed.push(id);
        drop(st);
        shared.metrics.campaign(disposition);
        stream.close();
    }
}

/// Run one job to `done`: campaign → deterministic result document →
/// artifact store → `<id>.result.json` marker → checkpoint cleanup.
fn execute(
    shared: &Shared,
    id: &str,
    spec: &JobSpec,
    stream: &EventStream,
) -> Result<JobState, ApiError> {
    let (config, source, policy) = spec.build()?;
    let ckpt_path = shared.dir.join(format!("{id}.ckpt"));
    let options = CampaignOptions {
        checkpoint_path: Some(ckpt_path.clone()),
        checkpoint_every: spec.checkpoint_every,
        workers: None,
        abort_after_chunks: None,
        cli_args: vec!["serve-job".to_string(), id.to_string()],
    };
    let mut rec = Recorder::new(StreamSink::new(stream.clone()));
    let outcome = run_campaign(
        &config,
        &source,
        &policy,
        spec.trials,
        spec.seed,
        &options,
        &mut rec,
    )
    .map_err(|e| match e {
        CampaignError::Config(e) => ApiError::Config(e.to_string()),
        CampaignError::Checkpoint(e) => ApiError::Checkpoint(e.to_string()),
        e => ApiError::Campaign(e.to_string()),
    })?;
    rec.sink_mut().flush();

    let doc = result_document(id, spec, &outcome.aggregate, &outcome.skipped);
    let hash = shared.store.put(format!("{doc}\n").as_bytes())?;

    let marker = Json::obj([
        ("job", Json::from(id)),
        ("artifact", Json::from(hash.as_str())),
    ]);
    write_atomic(
        &shared.dir.join(format!("{id}.result.json")),
        format!("{marker}\n").as_bytes(),
    )
    .map_err(|e| ApiError::Io(format!("cannot write result marker: {e}")))?;
    // The checkpoint has served its purpose; a stale one would block
    // nothing (the result marker wins) but tidy up anyway.
    let _ = std::fs::remove_file(&ckpt_path);
    Ok(JobState::Done {
        artifact: Some(hash),
        resumed: outcome.resumed,
        executed: outcome.executed,
    })
}

fn f64_array(xs: &[f64]) -> Json {
    Json::Array(xs.iter().map(|&x| Json::from(x)).collect())
}

/// The deterministic result document.
///
/// Everything here is bit-stable across kill/resume cycles: the
/// aggregate's wall-clock telemetry (`workers`, `wall_s`,
/// `mean_trial_wall_s`, `worker_utilization`) is deliberately excluded,
/// which is what makes the artifact hash a recovery invariant.
fn result_document(
    id: &str,
    spec: &JobSpec,
    agg: &TrialAggregate,
    skipped: &[(usize, String)],
) -> Json {
    Json::obj([
        ("schema", Json::from("impatience-serve-result/1")),
        ("job", Json::from(id)),
        ("spec", spec.to_json()),
        ("label", Json::from(agg.label.as_str())),
        ("trials", Json::from(agg.trials)),
        ("mean_rate", Json::from(agg.mean_rate)),
        ("p5_rate", Json::from(agg.p5_rate)),
        ("p95_rate", Json::from(agg.p95_rate)),
        ("rates", f64_array(&agg.rates)),
        ("observed_series", f64_array(&agg.observed_series)),
        ("expected_series", f64_array(&agg.expected_series)),
        ("mean_final_replicas", f64_array(&agg.mean_final_replicas)),
        ("mean_transmissions", Json::from(agg.mean_transmissions)),
        ("mean_immediate_hits", Json::from(agg.mean_immediate_hits)),
        ("mean_unfulfilled", Json::from(agg.mean_unfulfilled)),
        (
            "mean_mandates_created",
            Json::from(agg.mean_mandates_created),
        ),
        (
            "mean_mandate_cap_hits",
            Json::from(agg.mean_mandate_cap_hits),
        ),
        (
            "skipped",
            Json::Array(
                skipped
                    .iter()
                    .map(|(k, msg)| {
                        Json::obj([
                            ("trial", Json::from(*k)),
                            ("panic", Json::from(msg.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> JobSpec {
        JobSpec {
            nodes: 10,
            mu: 0.05,
            duration: 200.0,
            items: 5,
            rho: 1,
            omega: 1.0,
            utility: "step:10".into(),
            policy: "uni".into(),
            trials: 2,
            seed: 7,
            checkpoint_every: 1,
        }
    }

    /// The job's artifact hash once it is done.
    fn artifact(mgr: &JobManager, id: &str) -> String {
        match mgr.state(id) {
            Some(JobState::Done {
                artifact: Some(hash),
                ..
            }) => hash,
            other => panic!("job {id} is not done with an artifact: {other:?}"),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("impatience-jobs-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spec_json_roundtrip() {
        let spec = tiny_spec();
        let json = spec.to_json();
        let back = JobSpec::from_json(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn spec_validation() {
        let bad = [
            r#"{"nodes":1}"#,
            r#"{"mu":-1}"#,
            r#"{"trials":0}"#,
            r#"{"policy":"warp"}"#,
            r#"{"utility":"warp:9"}"#,
            r#"{"duration":0}"#,
            // Utilities with h(0⁺) = ∞ need dedicated servers, which a
            // job's pure-P2P population does not have: the campaign gate.
            r#"{"utility":"neglog"}"#,
            r#"{"utility":"power:1.5"}"#,
            // Over the size limits: refused before anything is allocated.
            r#"{"items":100000000000}"#,
            r#"{"nodes":100000000000}"#,
            r#"{"nodes":5000,"items":1000}"#,
            r#"{"nodes":1000000,"rho":5}"#,
            r#"{"nodes":40,"rho":9223372036854775807}"#,
        ];
        for body in bad {
            let err = JobSpec::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert_eq!(err.http_status(), 422, "{body}");
            assert_eq!(err.kind(), "config", "{body}");
        }
    }

    #[test]
    fn manager_runs_a_job_to_done_and_result_is_content_addressed() {
        let dir = temp_dir("run");
        let store = ArtifactStore::open(&dir.join("artifacts")).unwrap();
        let mgr =
            JobManager::start(&dir.join("jobs"), store.clone(), ServeMetrics::new(), 4).unwrap();
        let id = mgr.submit(tiny_spec()).unwrap();
        let stream = mgr.stream(&id).unwrap();
        // Wait for the terminal close (runner thread drives the job).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !stream.is_closed() {
            assert!(std::time::Instant::now() < deadline, "job did not finish");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let hash = artifact(&mgr, &id);
        let doc = store.get(&hash).unwrap();
        let json = Json::parse(std::str::from_utf8(&doc).unwrap()).unwrap();
        assert_eq!(
            json.get("schema").unwrap().as_str(),
            Some("impatience-serve-result/1")
        );
        assert_eq!(json.get("trials").unwrap().as_u64(), Some(2));
        // The campaign streamed events (trial_done at minimum).
        assert!(!stream.is_empty(), "campaign must stream recorder events");
        mgr.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queue_sheds_at_capacity() {
        let dir = temp_dir("shed");
        let store = ArtifactStore::open(&dir.join("artifacts")).unwrap();
        // Capacity 1 with a slow-ish first job: the runner may grab the
        // first job immediately, so fill the queue until shed.
        let mgr = JobManager::start(&dir.join("jobs"), store, ServeMetrics::new(), 1).unwrap();
        let mut shed = false;
        for _ in 0..8 {
            match mgr.submit(tiny_spec()) {
                Ok(_) => {}
                Err(ApiError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    shed = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(shed, "a capacity-1 queue must shed under a burst");
        mgr.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_restores_done_jobs_and_requeues_pending() {
        let dir = temp_dir("recover");
        let jobs_dir = dir.join("jobs");
        let store = ArtifactStore::open(&dir.join("artifacts")).unwrap();
        // First manager: run one job to completion.
        let mgr = JobManager::start(&jobs_dir, store.clone(), ServeMetrics::new(), 4).unwrap();
        let id = mgr.submit(tiny_spec()).unwrap();
        let stream = mgr.stream(&id).unwrap();
        while !stream.is_closed() {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let first_hash = artifact(&mgr, &id);
        mgr.shutdown();
        drop(mgr);

        // Second manager over the same directory: the job is restored
        // done with the same artifact, and new ids don't collide.
        let mgr2 = JobManager::start(&jobs_dir, store, ServeMetrics::new(), 4).unwrap();
        assert_eq!(artifact(&mgr2, &id), first_hash);
        let id2 = mgr2.submit(tiny_spec()).unwrap();
        assert_ne!(id, id2);
        mgr2.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
