//! `solve_service`: the service plane. An in-process `serve::Server` with
//! its default configuration on loopback, driven in a closed loop (callers
//! are controllers waiting for an allocation) over one connection per
//! request, as the server requires.
//!
//! Each repetition starts its own server on a fresh port, so its pool is
//! warmed the same way every time and no repetition inherits another's
//! TIME_WAIT sockets or parked cold solvers.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

use impatience_core::demand::{DemandRates, Popularity};
use impatience_core::solver::greedy::greedy_homogeneous;
use impatience_core::solver::incremental::{Delta, DeltaOutcome, DeltaSolver};
use impatience_core::types::SystemModel;
use impatience_core::utility::{parse_utility, DelayUtility};
use impatience_json::Json;
use impatience_serve::{ServeConfig, SolveRequest as PoolRequest, SolverPool};

use super::{Env, Layers, Rep, TempServer, Workload};
use crate::gen::{
    self, ServiceInputs, SolveClass, SolveRequest, SERVICE_MU, SERVICE_RHO, SERVICE_UTILITY,
    STALE_EPS,
};
use crate::http::request;
use crate::stats::{median, median_time, timed};
use crate::trace::Tracer;

/// The traced run reports the share of round trips slower than this
/// (`serve.http.over_limit_share`). They do not count as failed: the
/// reference host's hypervisor stalls it for tenths of a second at a time,
/// and any limit a caller would set turns those stalls into failed ops.
const LATENCY_LIMIT_MS: f64 = 25.0;

/// What the client kept of one round trip.
struct Sample {
    class: SolveClass,
    latency_ms: f64,
    pool_hit: bool,
    certified: bool,
}

pub struct SolveService {
    inputs: ServiceInputs,
    /// Per request, the reply fragment `"counts":[…]` of a scratch greedy
    /// solve on the request's final demand.
    expected: Vec<String>,
    clients: usize,
    data_root: PathBuf,
    /// Samples of the latest repetition, for the probes.
    last: Vec<Sample>,
}

fn pareto(items: usize) -> Vec<f64> {
    Popularity::pareto(items, 1.0)
        .demand_rates(1.0)
        .rates()
        .to_vec()
}

/// The allocation a correct server must return for `req`, as it appears
/// in the reply body.
fn expected_fragment(req: &SolveRequest, utility: &dyn DelayUtility) -> String {
    let mut demand = pareto(req.items);
    for &(item, rate) in &req.deltas {
        demand[item] = rate;
    }
    let system = SystemModel::pure_p2p(req.nodes, SERVICE_RHO, SERVICE_MU);
    let counts = greedy_homogeneous(&system, &DemandRates::new(demand), utility);
    let mut fragment = String::from(r#""counts":"#);
    Json::Array(counts.counts().iter().map(|&c| Json::from(c)).collect()).write(&mut fragment);
    fragment
}

/// Check one 200 reply; returns (pool hit, certified stale).
fn check_reply(req: &SolveRequest, expected: &str, reply: &str) -> Result<(bool, bool), String> {
    let pool_hit = reply.contains(r#""pool":"hit""#);
    if reply.contains(r#""outcome":"certified_stale""#) {
        let doc = Json::parse(reply.trim()).map_err(|e| format!("reply is not JSON: {e}"))?;
        let cert = doc
            .get("certificate")
            .ok_or("stale reply lacks a certificate")?;
        let field = |k: &str| cert.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let accepted = cert.get("accepted").and_then(Json::as_bool) == Some(true);
        let within = field("gap") <= field("eps") * field("scale");
        if req.stale_eps != Some(field("eps")) || !accepted || !within {
            return Err(format!("certificate does not hold: {cert:?}"));
        }
        return Ok((pool_hit, true));
    }
    if !reply.contains(expected) {
        return Err(format!(
            "{:?} request: allocation differs from a scratch greedy solve on its final demand",
            req.class
        ));
    }
    Ok((pool_hit, false))
}

impl SolveService {
    /// Park one warm solver per client for the shared shape.
    fn warm_pool(&self, addr: SocketAddr) -> Result<(), String> {
        for _ in 0..2 {
            std::thread::scope(|s| {
                let calls: Vec<_> = (0..self.clients)
                    .map(|_| {
                        s.spawn(|| request(addr, "POST", "/v1/solve", Some(&self.inputs.warm_body)))
                    })
                    .collect();
                for call in calls {
                    match call.join().expect("warm-up client panicked") {
                        Ok((200, _)) => {}
                        other => return Err(format!("pool warm-up: {other:?}")),
                    }
                }
                Ok(())
            })?;
        }
        Ok(())
    }
}

impl Workload for SolveService {
    fn setup(env: &Env<'_>) -> Result<Self, String> {
        let inputs = gen::solve_service(env.seed, env.size);
        let utility = parse_utility(SERVICE_UTILITY).map_err(|e| e.to_string())?;
        let expected = inputs
            .requests
            .iter()
            .map(|req| expected_fragment(req, utility.as_ref()))
            .collect();
        Ok(SolveService {
            inputs,
            expected,
            clients: env.workers,
            data_root: env.scratch.to_path_buf(),
            last: Vec::new(),
        })
    }

    fn repetition(&mut self, tr: &Tracer) -> Result<Rep, String> {
        let server = TempServer::start(&self.data_root)?;
        let addr = server.addr();
        self.warm_pool(addr)?;

        let parent = tr.current();
        let (results, wall_s) = timed(|| {
            std::thread::scope(|s| {
                let clients: Vec<_> = (0..self.clients)
                    .map(|c| {
                        let this = &*self;
                        s.spawn(move || {
                            tr.under(parent, || {
                                let mut mine = Vec::new();
                                for k in (c..this.inputs.requests.len()).step_by(this.clients) {
                                    let body = &this.inputs.requests[k].body;
                                    let (reply, wall) = timed(|| {
                                        tr.span("serve.http", || {
                                            request(addr, "POST", "/v1/solve", Some(body))
                                        })
                                    });
                                    mine.push((k, wall * 1e3, reply));
                                }
                                mine
                            })
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .flat_map(|c| c.join().expect("client thread panicked"))
                    .collect::<Vec<_>>()
            })
        });
        drop(server);

        let mut failed = 0;
        self.last.clear();
        for (k, latency_ms, reply) in results {
            let req = &self.inputs.requests[k];
            let (pool_hit, certified) = match reply {
                Ok((200, body)) => check_reply(req, &self.expected[k], &body)?,
                // Refused or broken: a failed op, not a wrong answer.
                _ => {
                    failed += 1;
                    continue;
                }
            };
            self.last.push(Sample {
                class: req.class,
                latency_ms,
                pool_hit,
                certified,
            });
        }
        Ok(Rep {
            ops: self.inputs.requests.len() as u64,
            failed,
            wall_s,
            latencies_ms: self.last.iter().map(|s| s.latency_ms).collect(),
        })
    }

    fn probes(&mut self, _tr: &Tracer, out: &mut Layers) -> Result<(), String> {
        // serve.http / serve.solve over HTTP: the latest repetition's
        // round trips, by request class.
        let of = |class| -> Vec<f64> {
            self.last
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.latency_ms)
                .collect()
        };
        let all: Vec<f64> = self.last.iter().map(|s| s.latency_ms).collect();
        let share = |pred: &dyn Fn(&Sample) -> bool, among: &dyn Fn(&Sample) -> bool| {
            let total = self.last.iter().filter(|s| among(s)).count().max(1);
            self.last.iter().filter(|s| among(s) && pred(s)).count() as f64 / total as f64
        };
        out.set(
            "serve.http.roundtrip_p99_ms",
            impatience_obs::percentile(&all, 0.99),
        );
        out.set(
            "serve.http.over_limit_share",
            share(&|s| s.latency_ms > LATENCY_LIMIT_MS, &|_| true),
        );
        out.set("serve.solve.hit_p50_ms", median(&of(SolveClass::Delta)));
        out.set("serve.solve.miss_p50_ms", median(&of(SolveClass::Cold)));
        out.set("serve.solve.cert_p50_ms", median(&of(SolveClass::Stale)));
        out.set(
            "serve.solve.pool_hit_rate",
            share(&|s| s.pool_hit, &|_| true),
        );
        out.set(
            "serve.solve.cert_reuse_rate",
            share(&|s| s.certified, &|s| s.class == SolveClass::Stale),
        );

        // The floor under every round trip: connect, accept, parse, respond.
        let server = TempServer::start(&self.data_root)?;
        let addr = server.addr();
        let healthz: Vec<f64> = (0..200)
            .map(|_| timed(|| request(addr, "GET", "/healthz", None)).1 * 1e3)
            .collect();
        drop(server);
        out.set("serve.http.healthz_p50_ms", median(&healthz));

        // serve.solve in-process: the same bodies through SolverPool::solve
        // on one thread. Class latency minus this minus the healthz floor
        // is pool and lock wait.
        let pool = SolverPool::new(ServeConfig::default().solver_pool_per_key);
        let parsed = |body: &str| -> Result<PoolRequest, String> {
            let doc = Json::parse(body).map_err(|e| e.to_string())?;
            PoolRequest::from_json(&doc).map_err(|e| e.message())
        };
        pool.solve(&parsed(&self.inputs.warm_body)?)
            .map_err(|e| e.message())?;
        let (mut hit_us, mut cert_ms, mut moved) = (Vec::new(), Vec::new(), 0u64);
        for req in &self.inputs.requests {
            let pool_req = parsed(&req.body)?;
            let (reply, wall) = timed(|| pool.solve(&pool_req));
            let reply = reply.map_err(|e| e.message())?;
            moved += reply.moved;
            match req.class {
                SolveClass::Delta => hit_us.push(wall * 1e6),
                SolveClass::Stale => cert_ms.push(wall * 1e3),
                SolveClass::Cold => {}
            }
        }
        out.set("serve.solve.direct_hit_us", median(&hit_us));
        out.set("serve.solve.direct_cert_ms", median(&cert_ms));
        out.set("core.solver.replicas_moved", moved as f64);

        // core.solver.incremental alone, on the warm shape.
        let system = SystemModel::pure_p2p(self.inputs.warm_nodes, SERVICE_RHO, SERVICE_MU);
        let base = pareto(self.inputs.warm_items);
        let demand = DemandRates::new(base.clone());
        let utility: Arc<dyn DelayUtility> =
            parse_utility(SERVICE_UTILITY).map_err(|e| e.to_string())?;
        let fresh = || DeltaSolver::new(system, &demand, Arc::clone(&utility));
        out.set(
            "core.solver.rebuild_us",
            median_time(5, || {
                std::hint::black_box(fresh());
            }) * 1e6,
        );
        let mut solver = fresh();
        let mut apply_us = Vec::new();
        for req in self
            .inputs
            .requests
            .iter()
            .filter(|r| r.class == SolveClass::Delta)
        {
            let deltas: Vec<Delta> = req
                .deltas
                .iter()
                .map(|&(item, rate)| Delta::Demand { item, rate })
                .collect();
            solver.rebase_demand(&base).map_err(|e| e.to_string())?;
            let (outcome, wall) = timed(|| solver.apply(&deltas));
            outcome.map_err(|e| e.to_string())?;
            apply_us.push(wall * 1e6);
        }
        out.set("core.solver.delta_apply_us", median(&apply_us));
        // One certificate: a 0.1% nudge of a mid-rank item under ε.
        let nudge = [Delta::Demand {
            item: self.inputs.warm_items / 2,
            rate: base[self.inputs.warm_items / 2] * 1.001,
        }];
        let mut cert_walls = Vec::new();
        for _ in 0..5 {
            solver.set_staleness(None);
            solver.rebase_demand(&base).map_err(|e| e.to_string())?;
            solver.set_staleness(Some(STALE_EPS));
            let (outcome, wall) = timed(|| solver.apply(&nudge));
            if !matches!(outcome, Ok(DeltaOutcome::CertifiedStale(_))) {
                return Err(format!("certificate probe took another path: {outcome:?}"));
            }
            cert_walls.push(wall * 1e3);
        }
        out.set("core.solver.certificate_ms", median(&cert_walls));

        // json on this workload's own bodies: every request, and one reply.
        let mut bodies: Vec<&str> = self
            .inputs
            .requests
            .iter()
            .map(|r| r.body.as_str())
            .collect();
        let mut reply = String::new();
        pool.solve(&parsed(&self.inputs.warm_body)?)
            .map_err(|e| e.message())?
            .to_json()
            .write(&mut reply);
        bodies.push(&reply);
        let (parse_mb_s, write_mb_s) = json_throughput(&bodies);
        out.set("json.parse_mb_s", parse_mb_s);
        out.set("json.write_mb_s", write_mb_s);
        Ok(())
    }
}

/// (parse, write) throughput of `impatience_json` on `bodies`, in MB/s.
pub fn json_throughput(bodies: &[&str]) -> (f64, f64) {
    let bytes: usize = bodies.iter().map(|b| b.len()).sum();
    let (docs, parse_s) = timed(|| {
        bodies
            .iter()
            .map(|b| Json::parse(b).expect("the body parsed before"))
            .collect::<Vec<Json>>()
    });
    let ((), write_s) = timed(|| {
        let mut out = String::new();
        for doc in &docs {
            out.clear();
            doc.write(&mut out);
            std::hint::black_box(&out);
        }
    });
    (bytes as f64 / parse_s * 1e-6, bytes as f64 / write_s * 1e-6)
}
