//! `POST /v1/campaigns`: the bounded job queue, the campaign runner
//! thread, and crash recovery.
//!
//! ## Lifecycle
//!
//! `queued → running → done | failed`. Submission persists the job spec
//! to `jobs/<id>.json` (atomic write) *before* acknowledging, then
//! enqueues; a single runner thread drains the queue in submission
//! order, so concurrently accepted campaigns complete FIFO. A full
//! queue sheds with 429 ([`ApiError::QueueFull`]) — the job is not
//! persisted, the client retries.
//!
//! ## Crash recovery
//!
//! Each job runs under [`run_campaign`] with a checkpoint at
//! `jobs/<id>.ckpt`. On startup the manager rescans the directory: any
//! spec without a matching `<id>.result.json` is re-enqueued and
//! resumes from its checkpoint (the fingerprint is re-verified), so a
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

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use impatience_core::demand::{DemandProfile, Popularity};
use impatience_core::utility::parse_utility;
use impatience_json::Json;
use impatience_obs::stream::{EventStream, StreamSink};
use impatience_obs::{write_atomic, Recorder, Sink as _};
use impatience_sim::runner::{run_campaign, CampaignOptions, CampaignOutcome};
use impatience_sim::{CampaignError, ContactSource, PolicyKind, SimConfig, TrialAggregate};

use crate::artifacts::ArtifactStore;
use crate::error::ApiError;
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
        if body.as_object().is_none() {
            return Err(ApiError::BadRequest(
                "request body must be an object".into(),
            ));
        }
        let usize_or = |key: &str, default: usize| -> Result<usize, ApiError> {
            match body.get(key) {
                None => Ok(default),
                Some(v) => v.as_u64().map(|n| n as usize).ok_or_else(|| {
                    ApiError::BadRequest(format!("`{key}` must be a non-negative integer"))
                }),
            }
        };
        let f64_or = |key: &str, default: f64| -> Result<f64, ApiError> {
            match body.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_f64()
                    .ok_or_else(|| ApiError::BadRequest(format!("`{key}` must be a number"))),
            }
        };
        let str_or = |key: &str, default: &str| -> Result<String, ApiError> {
            match body.get(key) {
                None => Ok(default.to_string()),
                Some(v) => v
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ApiError::BadRequest(format!("`{key}` must be a string"))),
            }
        };

        let spec = JobSpec {
            nodes: usize_or("nodes", 40)?,
            mu: f64_or("mu", 0.05)?,
            duration: f64_or("duration", 2000.0)?,
            items: usize_or("items", 20)?,
            rho: usize_or("rho", 2)?,
            omega: f64_or("omega", 1.0)?,
            utility: str_or("utility", "step:10")?,
            policy: str_or("policy", "qcr")?,
            trials: usize_or("trials", 8)?,
            seed: match body.get("seed") {
                None => 42,
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| ApiError::BadRequest("`seed` must be an integer".into()))?,
            },
            checkpoint_every: usize_or("checkpoint_every", 4)?,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), ApiError> {
        if self.nodes < 2 {
            return Err(ApiError::Config("`nodes` must be ≥ 2".into()));
        }
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
        if !(self.omega.is_finite() && self.omega > 0.0) {
            return Err(ApiError::Config("`omega` must be finite and > 0".into()));
        }
        if self.trials == 0 {
            return Err(ApiError::Config("`trials` must be ≥ 1".into()));
        }
        // The utility grammar and the policy names are `build`'s to know:
        // what it accepts is what a job can run.
        self.build().map(drop)
    }

    /// Serialize for persistence and status reports.
    pub fn to_json(&self) -> Json {
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
        let demand = Popularity::pareto(self.items, self.omega).demand_rates(1.0);
        let profile = DemandProfile::uniform(self.items, self.nodes);
        let utility = parse_utility(&self.utility).map_err(|e| ApiError::Config(e.to_string()))?;
        let policy = match self.policy.as_str() {
            "qcr" => PolicyKind::qcr_default(),
            "passive" => PolicyKind::Passive { replicas: 1.0 },
            name => PolicyKind::fixed(name, &demand, self.nodes, self.rho).ok_or_else(|| {
                ApiError::Config(format!(
                    "unknown policy `{name}` (expected qcr, passive, uni, sqrt, prop, dom)"
                ))
            })?,
        };
        let config = SimConfig::builder(self.items, self.rho)
            .demand(demand)
            .profile(profile)
            .utility(utility)
            .bin(60.0)
            .warmup_fraction(0.25)
            .build();
        let source = ContactSource::homogeneous(self.nodes, self.mu, self.duration);
        Ok((config, source, policy))
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and persisted, waiting for the runner.
    Queued,
    /// The runner thread is executing it.
    Running,
    /// Completed; the result artifact is stored.
    Done,
    /// Terminal failure (config, checkpoint, or campaign error).
    Failed,
}

impl JobState {
    /// Lower-case tag used in the API.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// Everything the server tracks about one job.
#[derive(Clone)]
pub struct JobStatus {
    /// Job id (`j0001`, …).
    pub id: String,
    /// Lifecycle state.
    pub state: JobState,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Result artifact hash once done.
    pub artifact: Option<String>,
    /// Failure message once failed.
    pub error: Option<String>,
    /// Trials restored from a checkpoint rather than re-run.
    pub resumed: usize,
    /// Trials executed by this process.
    pub executed: usize,
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    stream: EventStream,
    artifact: Option<String>,
    error: Option<String>,
    resumed: usize,
    executed: usize,
}

struct ManagerState {
    jobs: HashMap<String, JobEntry>,
    queue: VecDeque<String>,
    /// Terminal completion order — what the FIFO e2e test asserts on.
    completed: Vec<String>,
    next_id: u64,
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

fn lock(shared: &Shared) -> MutexGuard<'_, ManagerState> {
    shared
        .state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
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
        let mut state = ManagerState {
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            completed: Vec::new(),
            next_id: 1,
            draining: false,
        };
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
            let mut st = lock(&self.shared);
            if st.draining {
                return Err(ApiError::ShuttingDown);
            }
            if st.queue.len() >= self.shared.queue_cap {
                self.shared.metrics.campaign("shed");
                return Err(ApiError::QueueFull {
                    capacity: self.shared.queue_cap,
                });
            }
            let id = format!("j{:04}", st.next_id);
            st.next_id += 1;
            // Persist before acknowledging: an accepted job survives a
            // crash even if it never started.
            let mut doc = String::new();
            spec.to_json().write(&mut doc);
            doc.push('\n');
            write_atomic(&self.shared.dir.join(format!("{id}.json")), doc.as_bytes())
                .map_err(|e| ApiError::Io(format!("cannot persist job spec: {e}")))?;
            st.jobs.insert(
                id.clone(),
                JobEntry {
                    spec,
                    state: JobState::Queued,
                    stream: EventStream::new(),
                    artifact: None,
                    error: None,
                    resumed: 0,
                    executed: 0,
                },
            );
            st.queue.push_back(id.clone());
            self.shared.metrics.queue_depth(st.queue.len());
            id
        };
        self.shared.cond.notify_all();
        Ok(id)
    }

    /// Status of one job.
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        let st = lock(&self.shared);
        st.jobs.get(id).map(|e| JobStatus {
            id: id.to_string(),
            state: e.state,
            spec: e.spec.clone(),
            artifact: e.artifact.clone(),
            error: e.error.clone(),
            resumed: e.resumed,
            executed: e.executed,
        })
    }

    /// The live event stream for a job (for SSE subscribers).
    pub fn stream(&self, id: &str) -> Option<EventStream> {
        lock(&self.shared).jobs.get(id).map(|e| e.stream.clone())
    }

    /// What the event streams of all listed jobs hold for replay:
    /// `(bytes, lines)`.
    pub fn events_retained(&self) -> (usize, usize) {
        let st = lock(&self.shared);
        st.jobs.values().fold((0, 0), |(bytes, lines), e| {
            (bytes + e.stream.retained_bytes(), lines + e.stream.len())
        })
    }

    /// All jobs (sorted by id) plus the terminal completion order.
    pub fn list(&self) -> (Vec<JobStatus>, Vec<String>) {
        let st = lock(&self.shared);
        let mut jobs: Vec<JobStatus> = st
            .jobs
            .iter()
            .map(|(id, e)| JobStatus {
                id: id.clone(),
                state: e.state,
                spec: e.spec.clone(),
                artifact: e.artifact.clone(),
                error: e.error.clone(),
                resumed: e.resumed,
                executed: e.executed,
            })
            .collect();
        jobs.sort_by(|a, b| a.id.cmp(&b.id));
        (jobs, st.completed.clone())
    }

    /// Queue depth (jobs accepted but not yet running).
    pub fn queued(&self) -> usize {
        lock(&self.shared).queue.len()
    }

    /// Whether a job is currently executing.
    pub fn running(&self) -> bool {
        lock(&self.shared)
            .jobs
            .values()
            .any(|e| e.state == JobState::Running)
    }

    /// Stop accepting work and join the runner once the current job (if
    /// any) finishes. Queued jobs stay persisted and recover on the
    /// next start.
    pub fn shutdown(&self) {
        lock(&self.shared).draining = true;
        self.shared.cond.notify_all();
        let handle = self
            .runner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
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
/// restored as done, the rest re-enqueue in id order (their checkpoints,
/// if any, make the re-run resume instead of restart).
fn recover(dir: &Path, state: &mut ManagerState) -> Result<(), ApiError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(()), // fresh directory
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
        let spec = JobSpec::from_json(&json)?;
        if let Ok(n) = id[1..].parse::<u64>() {
            state.next_id = state.next_id.max(n + 1);
        }
        let result_path = dir.join(format!("{id}.result.json"));
        let (jstate, artifact) = if result_path.exists() {
            let text = std::fs::read_to_string(&result_path)
                .map_err(|e| ApiError::Io(format!("cannot read job result: {e}")))?;
            let artifact = Json::parse(&text).ok().and_then(|j| {
                j.get("artifact")
                    .and_then(|a| a.as_str().map(str::to_string))
            });
            (JobState::Done, artifact)
        } else {
            pending.push(id.to_string());
            (JobState::Queued, None)
        };
        let stream = EventStream::new();
        if jstate == JobState::Done {
            // No replay across restarts: subscribers of a finished job
            // get an immediate terminal frame.
            stream.close();
        }
        state.jobs.insert(
            id.to_string(),
            JobEntry {
                spec,
                state: jstate,
                stream,
                artifact,
                error: None,
                resumed: 0,
                executed: 0,
            },
        );
    }
    pending.sort();
    state.queue.extend(pending);
    Ok(())
}

fn runner_loop(shared: &Shared) {
    loop {
        let (id, spec, stream) = {
            let mut st = lock(shared);
            loop {
                // Draining wins over queued work: queued specs are
                // already persisted and recover on the next start.
                if st.draining {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    shared.metrics.queue_depth(st.queue.len());
                    let Some(entry) = st.jobs.get_mut(&id) else {
                        continue;
                    };
                    entry.state = JobState::Running;
                    break (id, entry.spec.clone(), entry.stream.clone());
                }
                st = shared
                    .cond
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };

        let result = execute(shared, &id, &spec, &stream);
        let mut st = lock(shared);
        let disposition = match &result {
            Ok(_) => "done",
            Err(_) => "failed",
        };
        if let Some(entry) = st.jobs.get_mut(&id) {
            match result {
                Ok((hash, outcome)) => {
                    entry.state = JobState::Done;
                    entry.artifact = Some(hash);
                    entry.resumed = outcome.resumed;
                    entry.executed = outcome.executed;
                }
                Err(e) => {
                    entry.state = JobState::Failed;
                    entry.error = Some(e.message());
                }
            }
        }
        st.completed.push(id);
        drop(st);
        shared.metrics.campaign(disposition);
        stream.close();
    }
}

/// Run one job to a terminal state: campaign → deterministic result
/// document → artifact store → `<id>.result.json` marker → checkpoint
/// cleanup.
fn execute(
    shared: &Shared,
    id: &str,
    spec: &JobSpec,
    stream: &EventStream,
) -> Result<(String, CampaignOutcome), ApiError> {
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
    let mut bytes = String::new();
    doc.write(&mut bytes);
    bytes.push('\n');
    let hash = shared.store.put(bytes.as_bytes())?;

    let mut marker = String::new();
    Json::obj([
        ("job", Json::from(id)),
        ("artifact", Json::from(hash.as_str())),
    ])
    .write(&mut marker);
    marker.push('\n');
    write_atomic(
        &shared.dir.join(format!("{id}.result.json")),
        marker.as_bytes(),
    )
    .map_err(|e| ApiError::Io(format!("cannot write result marker: {e}")))?;
    // The checkpoint has served its purpose; a stale one would block
    // nothing (the result marker wins) but tidy up anyway.
    let _ = std::fs::remove_file(&ckpt_path);
    Ok((hash, outcome))
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

impl JobStatus {
    /// Serialize for `GET /v1/campaigns[/{id}]`.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("job", Json::from(self.id.as_str())),
            ("state", Json::from(self.state.as_str())),
            ("spec", self.spec.to_json()),
            (
                "events",
                Json::from(format!("/v1/campaigns/{}/events", self.id)),
            ),
        ];
        if let Some(hash) = &self.artifact {
            fields.push(("artifact", Json::from(hash.as_str())));
            fields.push(("artifact_url", Json::from(format!("/v1/artifacts/{hash}"))));
        }
        if let Some(err) = &self.error {
            fields.push(("error", Json::from(err.as_str())));
        }
        fields.push(("resumed", Json::from(self.resumed)));
        fields.push(("executed", Json::from(self.executed)));
        Json::obj(fields)
    }
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
        ];
        for body in bad {
            let err = JobSpec::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert_eq!(err.http_status(), 422, "{body}");
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
        let status = mgr.status(&id).unwrap();
        assert_eq!(status.state, JobState::Done);
        let hash = status.artifact.unwrap();
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
        let first_hash = mgr.status(&id).unwrap().artifact.unwrap();
        mgr.shutdown();
        drop(mgr);

        // Second manager over the same directory: the job is restored
        // done with the same artifact, and new ids don't collide.
        let mgr2 = JobManager::start(&jobs_dir, store, ServeMetrics::new(), 4).unwrap();
        let status = mgr2.status(&id).unwrap();
        assert_eq!(status.state, JobState::Done);
        assert_eq!(status.artifact.as_deref(), Some(first_hash.as_str()));
        let id2 = mgr2.submit(tiny_spec()).unwrap();
        assert_ne!(id, id2);
        mgr2.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
