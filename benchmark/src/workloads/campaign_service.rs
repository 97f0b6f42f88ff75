//! `campaign_service`: the other use of `serve`. Campaigns submitted one
//! after another, each followed live over SSE from offset 0 and then
//! fetched as an artifact. The job runner, checkpoints and the obs event
//! stream do the work; the solver pool does none.
//!
//! Each repetition starts its own server: a server keeps every job's
//! event stream for replay, so a shared one would grow with the number of
//! repetitions and peak memory would measure the run's length.

use std::path::PathBuf;
use std::time::Instant;

use impatience_json::Json;
use impatience_obs::Recorder;
use impatience_serve::{fnv1a_hash, JobSpec};
use impatience_sim::runner::{run_campaign, CampaignOptions};
use impatience_sim::{CampaignCheckpoint, TrialAggregate};

use super::solve_service::json_throughput;
use super::{Env, Layers, Rep, TempServer, Workload};
use crate::gen::{self, CampaignInputs};
use crate::http::{read_sse, request, request_json};
use crate::stats::{median, median_time, timed};
use crate::trace::Tracer;

/// Phase times of one campaign, in seconds.
#[derive(Default, Clone, Copy)]
struct Phases {
    accept_s: f64,
    run_s: f64,
    artifact_s: f64,
    frames: u64,
}

pub struct CampaignService {
    inputs: CampaignInputs,
    specs: Vec<JobSpec>,
    /// What a direct `run_campaign` of each spec yields.
    direct: Vec<TrialAggregate>,
    data_root: PathBuf,
    /// Phases of the latest repetition, one entry per campaign.
    last: Vec<Phases>,
}

fn run_direct(
    spec: &JobSpec,
    checkpoint: Option<PathBuf>,
) -> Result<(TrialAggregate, f64), String> {
    let (config, source, policy) = spec.build().map_err(|e| e.message())?;
    // The job runner's own options, minus the event stream.
    let options = CampaignOptions {
        checkpoint_path: checkpoint,
        checkpoint_every: spec.checkpoint_every,
        ..CampaignOptions::default()
    };
    let (outcome, wall_s) = timed(|| {
        run_campaign(
            &config,
            &source,
            &policy,
            spec.trials,
            spec.seed,
            &options,
            &mut Recorder::disabled(),
        )
    });
    Ok((outcome.map_err(|e| e.to_string())?.aggregate, wall_s))
}

/// The artifact must carry exactly what a direct `run_campaign` computes.
/// Floats are compared as written: the JSON writer round-trips them.
fn check_artifact(artifact: &Json, direct: &TrialAggregate) -> Result<(), String> {
    let floats = |key: &str| -> Option<Vec<f64>> {
        artifact
            .get(key)?
            .as_array()?
            .iter()
            .map(Json::as_f64)
            .collect()
    };
    let scalar = |key: &str| artifact.get(key).and_then(Json::as_f64);
    let same = floats("rates").as_deref() == Some(&direct.rates[..])
        && floats("observed_series").as_deref() == Some(&direct.observed_series[..])
        && floats("mean_final_replicas").as_deref() == Some(&direct.mean_final_replicas[..])
        && scalar("mean_rate") == Some(direct.mean_rate)
        && scalar("mean_transmissions") == Some(direct.mean_transmissions)
        && scalar("mean_mandates_created") == Some(direct.mean_mandates_created)
        && artifact.get("trials").and_then(Json::as_u64) == Some(direct.trials as u64)
        && artifact
            .get("skipped")
            .and_then(Json::as_array)
            .map(<[Json]>::len)
            == Some(0);
    if same {
        Ok(())
    } else {
        Err("artifact differs from a direct run_campaign on the same spec".into())
    }
}

impl CampaignService {
    /// One campaign from POST to verified artifact.
    fn campaign(&self, server: &TempServer, k: usize, tr: &Tracer) -> Result<Phases, String> {
        let addr = server.addr();
        let t0 = Instant::now();
        let accepted = tr.span("serve.jobs.accept", || {
            request_json(
                addr,
                "POST",
                "/v1/campaigns",
                Some(&self.inputs.bodies[k]),
                202,
            )
        })?;
        let accept_s = t0.elapsed().as_secs_f64();
        let job = accepted
            .get("job")
            .and_then(Json::as_str)
            .ok_or("submit reply lacks a job id")?;

        let sse = tr.span("serve.sse", || read_sse(addr, job))?;
        let run_s = t0.elapsed().as_secs_f64() - accept_s;
        if sse.end_state != "done" {
            return Err(format!("job {job} ended in state `{}`", sse.end_state));
        }
        if !sse.contiguous || sse.frames != sse.published {
            return Err(format!(
                "SSE: {} frames delivered of {} published, contiguous: {}",
                sse.frames, sse.published, sse.contiguous
            ));
        }

        let t1 = Instant::now();
        let bytes = tr.span("serve.artifacts", || -> Result<String, String> {
            let status = request_json(addr, "GET", &format!("/v1/campaigns/{job}"), None, 200)?;
            let hash = status
                .get("artifact")
                .and_then(Json::as_str)
                .ok_or("done job lacks an artifact hash")?;
            let (code, bytes) = request(addr, "GET", &format!("/v1/artifacts/{hash}"), None)
                .map_err(|e| format!("artifact fetch: {e}"))?;
            if code != 200 || fnv1a_hash(bytes.as_bytes()) != hash {
                return Err(format!(
                    "artifact {hash}: status {code} or bytes off their address"
                ));
            }
            Ok(bytes)
        })?;
        let artifact_s = t1.elapsed().as_secs_f64();
        let artifact = Json::parse(bytes.trim()).map_err(|e| format!("artifact: {e}"))?;
        check_artifact(&artifact, &self.direct[k])?;
        Ok(Phases {
            accept_s,
            run_s,
            artifact_s,
            frames: sse.frames,
        })
    }
}

impl Workload for CampaignService {
    fn setup(env: &Env<'_>) -> Result<Self, String> {
        let inputs = gen::campaign_service(env.seed, env.size);
        let mut specs = Vec::new();
        let mut direct = Vec::new();
        for body in &inputs.bodies {
            let doc = Json::parse(body).map_err(|e| e.to_string())?;
            let spec = JobSpec::from_json(&doc).map_err(|e| e.message())?;
            direct.push(run_direct(&spec, None)?.0);
            specs.push(spec);
        }
        Ok(CampaignService {
            inputs,
            specs,
            direct,
            data_root: env.scratch.to_path_buf(),
            last: Vec::new(),
        })
    }

    fn repetition(&mut self, tr: &Tracer) -> Result<Rep, String> {
        let server = TempServer::start(&self.data_root)?;
        let (phases, wall_s) = timed(|| {
            (0..self.inputs.bodies.len())
                .map(|k| self.campaign(&server, k, tr))
                .collect::<Result<Vec<Phases>, String>>()
        });
        drop(server);
        self.last = phases?;
        Ok(Rep {
            ops: (self.inputs.bodies.len() * self.inputs.trials) as u64,
            failed: 0,
            wall_s,
            latencies_ms: self
                .last
                .iter()
                .map(|p| (p.accept_s + p.run_s + p.artifact_s) * 1e3)
                .collect(),
        })
    }

    fn probes(&mut self, _tr: &Tracer, out: &mut Layers) -> Result<(), String> {
        let col = |f: &dyn Fn(&Phases) -> f64| -> Vec<f64> { self.last.iter().map(f).collect() };
        let run_s = median(&col(&|p| p.run_s));
        let frames: u64 = self.last.iter().map(|p| p.frames).sum();
        out.set("serve.jobs.accept_ms", median(&col(&|p| p.accept_s * 1e3)));
        out.set("serve.jobs.run_s", run_s);
        out.set(
            "serve.artifacts.get_ms",
            median(&col(&|p| p.artifact_s * 1e3)),
        );
        out.set("serve.sse.frames", frames as f64);
        out.set(
            "serve.sse.frames_per_s",
            frames as f64 / col(&|p| p.run_s).iter().sum::<f64>(),
        );
        // Every repetition already failed unless delivered == published.
        out.set("serve.sse.dropped", 0.0);

        // The same campaign without the server: run_campaign with the job
        // runner's checkpoint cadence and a no-op sink.
        let checkpoint = self.data_root.join("direct.ckpt");
        let mut direct_walls = Vec::new();
        for spec in &self.specs {
            let _ = std::fs::remove_file(&checkpoint);
            direct_walls.push(run_direct(spec, Some(checkpoint.clone()))?.1);
        }
        let direct_s = median(&direct_walls);
        out.set("sim.runner.campaign_s", direct_s);
        out.set("serve.jobs.vs_direct_ratio", run_s / direct_s);

        // sim.checkpoint: the last campaign's final checkpoint, re-saved.
        let saved = CampaignCheckpoint::load(&checkpoint).map_err(|e| e.to_string())?;
        let copy = self.data_root.join("copy.ckpt");
        let mut failure = None;
        let save_s = median_time(5, || {
            if let Err(e) = saved.save(&copy) {
                failure = Some(e.to_string());
            }
        });
        if let Some(e) = failure {
            return Err(format!("checkpoint save: {e}"));
        }
        let text = std::fs::read_to_string(&copy).map_err(|e| e.to_string())?;
        out.set("sim.checkpoint.save_ms", save_s * 1e3);
        out.set("sim.checkpoint.bytes", text.len() as f64);
        let (parse_mb_s, write_mb_s) = json_throughput(&[text.trim()]);
        out.set("json.parse_mb_s", parse_mb_s);
        out.set("json.write_mb_s", write_mb_s);

        // serve.metrics: a scrape of a server that has run a campaign.
        let server = TempServer::start(&self.data_root)?;
        self.campaign(&server, 0, &Tracer::new(false))?;
        let addr = server.addr();
        let scrapes: Vec<f64> = (0..20)
            .map(|_| timed(|| request(addr, "GET", "/metrics", None)).1 * 1e3)
            .collect();
        drop(server);
        out.set("serve.metrics.scrape_ms", median(&scrapes));
        Ok(())
    }
}
