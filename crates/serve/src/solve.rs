//! `POST /v1/solve`: synchronous analytic solves on a warm
//! [`DeltaSolver`] pool.
//!
//! A request names a homogeneous system (population, cache budget ρ,
//! contact rate μ, delay utility) plus a demand vector — either
//! explicit `demand` rates or a synthetic Pareto catalog
//! (`items` + `omega`), which the pool builds once per shape and keeps in
//! a bounded memo. The handler checks a warm solver out of a pool
//! keyed by everything *except* demand, rebases its demand onto the
//! request ([`DeltaSolver::rebase_demand`] — only the coordinates that
//! moved pay), applies any explicit deltas, and answers with the
//! allocation and welfare. `stale_eps` switches the checkout into
//! bounded-staleness mode per request ([`DeltaSolver::set_staleness`]).
//!
//! Pool hits skip the dominant cost — the gain-table quadrature — which
//! is what makes p99 solve latency servable; the hit/miss ratio is
//! exported as `impatience_solver_pool_total`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use impatience_core::demand::{DemandRates, Popularity};
use impatience_core::solver::incremental::{Delta, DeltaOutcome, DeltaSolver};
use impatience_core::types::SystemModel;
use impatience_core::utility::{parse_utility, DelayUtility};
use impatience_json::Json;

use crate::error::ApiError;
use crate::http::{at_most, expect_object, field, typed, MAX_ITEMS, MAX_NODES, MAX_SLOTS};
use crate::lock;

/// A validated solve request.
#[derive(Debug)]
pub struct SolveRequest {
    system: SystemModel,
    utility_spec: String,
    utility: Arc<dyn DelayUtility>,
    demand: Demand,
    stale_eps: Option<f64>,
    deltas: Vec<Delta>,
}

/// A request's demand as it names it: the rates themselves, or the shape
/// of a synthetic catalog the pool builds or finds in its memo.
#[derive(Debug)]
enum Demand {
    /// Explicit `demand` rates.
    Rates(Arc<[f64]>),
    /// A Pareto(`omega`) catalog of `items`, total rate 1.
    Pareto { items: usize, omega: f64 },
}

impl Demand {
    /// Catalog size.
    fn items(&self) -> usize {
        match self {
            Demand::Rates(rates) => rates.len(),
            Demand::Pareto { items, .. } => *items,
        }
    }
}

impl SolveRequest {
    /// Parse and validate the request body.
    ///
    /// Validation is strict up front because the underlying
    /// [`DeltaSolver::apply`] contract is panic-on-malformed: nothing
    /// invalid may reach the solver thread.
    pub fn from_json(body: &Json) -> Result<SolveRequest, ApiError> {
        expect_object(body)?;
        let required = |key: &str| ApiError::BadRequest(format!("`{key}` is required"));
        let nodes: usize = field(body, "nodes")?.ok_or_else(|| required("nodes"))?;
        at_most("`nodes`", nodes, MAX_NODES)?;
        let rho: usize = field(body, "rho")?.ok_or_else(|| required("rho"))?;
        let mu: f64 = field(body, "mu")?.ok_or_else(|| required("mu"))?;
        if !(mu.is_finite() && mu > 0.0) {
            return Err(ApiError::Config(format!(
                "`mu` must be finite and > 0, got {mu}"
            )));
        }
        let system = match field(body, "servers")? {
            None | Some(0) => {
                if nodes == 0 {
                    return Err(ApiError::Config("`nodes` must be ≥ 1".into()));
                }
                SystemModel::pure_p2p(nodes, rho, mu)
            }
            Some(s) => {
                if !(s >= 1 && s < nodes) {
                    return Err(ApiError::Config(format!(
                        "`servers` must satisfy 1 ≤ servers < nodes, got {s} of {nodes}"
                    )));
                }
                SystemModel::dedicated(nodes - s, s, rho, mu)
            }
        };
        let servers = system.servers();
        at_most("`rho`·servers", rho.saturating_mul(servers), MAX_SLOTS)?;

        let utility_spec = field(body, "utility")?.unwrap_or("step:10").to_string();
        let utility = parse_utility(&utility_spec).map_err(|e| ApiError::Config(e.to_string()))?;

        let demand = match field::<&[Json]>(body, "demand")? {
            Some(arr) => {
                at_most("`demand`", arr.len(), MAX_ITEMS)?;
                let mut rates = Vec::with_capacity(arr.len());
                for (i, r) in arr.iter().enumerate() {
                    let r: f64 = typed(r, format_args!("demand[{i}]"))?;
                    if !(r.is_finite() && r >= 0.0) {
                        return Err(ApiError::Config(format!(
                            "`demand[{i}]` must be finite and ≥ 0, got {r}"
                        )));
                    }
                    rates.push(r);
                }
                Demand::Rates(rates.into())
            }
            None => {
                let items: usize = field(body, "items")?.ok_or_else(|| {
                    ApiError::BadRequest("either `demand` or `items` is required".into())
                })?;
                if items == 0 {
                    return Err(ApiError::Config("`items` must be ≥ 1".into()));
                }
                at_most("`items`", items, MAX_ITEMS)?;
                let omega = field(body, "omega")?.unwrap_or(1.0);
                if !(omega.is_finite() && omega > 0.0) {
                    return Err(ApiError::Config(format!(
                        "`omega` must be finite and > 0, got {omega}"
                    )));
                }
                Demand::Pareto { items, omega }
            }
        };
        if demand.items() == 0 {
            return Err(ApiError::Config("demand catalog must be non-empty".into()));
        }

        let stale_eps: Option<f64> = field(body, "stale_eps")?;
        if let Some(eps) = stale_eps {
            if !(eps.is_finite() && eps >= 0.0) {
                return Err(ApiError::Config(format!(
                    "`stale_eps` must be finite and ≥ 0, got {eps}"
                )));
            }
        }

        let deltas = field::<&[Json]>(body, "deltas")?
            .unwrap_or_default()
            .iter()
            .enumerate()
            .map(|(i, d)| delta(i, d, demand.items(), servers))
            .collect::<Result<_, _>>()?;

        Ok(SolveRequest {
            system,
            utility_spec,
            utility,
            demand,
            stale_eps,
            deltas,
        })
    }
}

/// `deltas[i]`, one of `{item,rate}`, `{mu}` or `{rho}`, on a catalog of
/// `items` cached by `servers`.
fn delta(i: usize, d: &Json, items: usize, servers: usize) -> Result<Delta, ApiError> {
    if let Some(item) = d.get("item") {
        // An item index keeps its own wording ("an integer"), so it is
        // read here rather than by `typed`.
        let item = item
            .as_u64()
            .ok_or_else(|| ApiError::BadRequest(format!("`deltas[{i}].item` must be an integer")))?
            as usize;
        if item >= items {
            return Err(ApiError::Config(format!(
                "`deltas[{i}].item` {item} out of range (catalog size {items})"
            )));
        }
        let rate: f64 = field(d, "rate")?
            .ok_or_else(|| ApiError::BadRequest(format!("`deltas[{i}]` needs a `rate`")))?;
        if !(rate.is_finite() && rate >= 0.0) {
            return Err(ApiError::Config(format!(
                "`deltas[{i}].rate` must be finite and ≥ 0, got {rate}"
            )));
        }
        Ok(Delta::Demand { item, rate })
    } else if let Some(mu) = field::<f64>(d, "mu")? {
        if !(mu.is_finite() && mu > 0.0) {
            return Err(ApiError::Config(format!(
                "`deltas[{i}].mu` must be finite and > 0, got {mu}"
            )));
        }
        Ok(Delta::ContactRate(mu))
    } else if let Some(rho) = field::<usize>(d, "rho")? {
        let slots = rho.saturating_mul(servers);
        at_most(format_args!("`deltas[{i}].rho`·servers"), slots, MAX_SLOTS)?;
        Ok(Delta::CacheBudget(rho))
    } else {
        Err(ApiError::BadRequest(format!(
            "`deltas[{i}]` must be {{item,rate}}, {{mu}}, or {{rho}}"
        )))
    }
}

/// Pool key: everything about a solver that demand deltas cannot change.
fn key_of(system: &SystemModel, utility_spec: &str, items: usize) -> String {
    format!(
        "{:?}|rho={}|mu={}|u={}|n={}",
        system.population,
        system.cache_capacity,
        system.contact_rate.to_bits(),
        utility_spec,
        items
    )
}

/// A pool of warm [`DeltaSolver`]s keyed by system shape.
///
/// Checkout pops a warm solver (pool **hit**: the memoized gain table
/// survives) or builds a fresh one (**miss**: pays the quadrature).
/// Check-in re-keys from the solver's *current* system, so a request
/// whose deltas moved μ or ρ parks the solver under its new shape.
pub struct SolverPool {
    pools: Mutex<HashMap<String, Vec<DeltaSolver>>>,
    /// Cap on idle solvers kept per key (memory bound under fan-in).
    per_key: usize,
    catalogs: Mutex<CatalogMemo>,
}

/// Rates the [`CatalogMemo`] holds at most, over all its catalogs
/// (256 KiB). A larger catalog is built per request and not kept.
const CATALOG_MEMO_RATES: usize = 1 << 15;

/// The synthetic catalogs a [`SolverPool`] has built, keyed by
/// `(items, ω bits)`, so a warm request's `items` + `omega` costs a
/// lookup instead of a Pareto pass. Holds at most [`CATALOG_MEMO_RATES`]
/// rates, evicting the oldest catalog first.
#[derive(Default)]
struct CatalogMemo {
    catalogs: HashMap<(usize, u64), Arc<[f64]>>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<(usize, u64)>,
    /// Rates held, summed over `catalogs`.
    rates: usize,
}

impl CatalogMemo {
    fn get(&self, items: usize, omega: f64) -> Option<Arc<[f64]>> {
        self.catalogs.get(&(items, omega.to_bits())).map(Arc::clone)
    }

    /// Keep `rates` as the catalog of `(items, omega)`, evicting the
    /// oldest catalogs until it fits.
    fn insert(&mut self, items: usize, omega: f64, rates: &Arc<[f64]>) {
        let key = (items, omega.to_bits());
        if items > CATALOG_MEMO_RATES || self.catalogs.contains_key(&key) {
            return;
        }
        while self.rates + items > CATALOG_MEMO_RATES {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            if let Some(evicted) = self.catalogs.remove(&oldest) {
                self.rates -= evicted.len();
            }
        }
        self.catalogs.insert(key, Arc::clone(rates));
        self.order.push_back(key);
        self.rates += items;
    }
}

/// Outcome of one pooled solve, ready to serialize.
#[derive(Debug)]
pub struct SolveReply {
    /// Final allocation, one replica count per item.
    pub counts: Vec<u32>,
    /// Social welfare of the returned allocation.
    pub welfare: f64,
    /// Which path the solver took (`resolved`, `rebuilt`,
    /// `certified_stale`).
    pub outcome: &'static str,
    /// Replicas moved by the exchange (0 for certified-stale reuse).
    pub moved: u64,
    /// Certificate details when the outcome is `certified_stale`.
    pub certificate: Option<Json>,
    /// Whether the pool had a warm solver for this shape.
    pub pool_hit: bool,
}

impl SolverPool {
    /// An empty pool keeping at most `per_key` idle solvers per shape.
    pub fn new(per_key: usize) -> SolverPool {
        SolverPool {
            pools: Mutex::new(HashMap::new()),
            per_key: per_key.max(1),
            catalogs: Mutex::new(CatalogMemo::default()),
        }
    }

    /// The rates `demand` names: its own, or the Pareto catalog of its
    /// shape from the memo, built and kept on a miss.
    fn rates(&self, demand: &Demand) -> Arc<[f64]> {
        match *demand {
            Demand::Rates(ref rates) => Arc::clone(rates),
            Demand::Pareto { items, omega } => {
                if let Some(rates) = lock(&self.catalogs).get(items, omega) {
                    return rates;
                }
                let rates: Arc<[f64]> = Popularity::pareto(items, omega)
                    .demand_rates(1.0)
                    .rates()
                    .into();
                lock(&self.catalogs).insert(items, omega, &rates);
                rates
            }
        }
    }

    /// Serve one request end to end.
    pub fn solve(&self, req: &SolveRequest) -> Result<SolveReply, ApiError> {
        let key = key_of(&req.system, &req.utility_spec, req.demand.items());
        let demand = self.rates(&req.demand);
        let warm = lock(&self.pools).get_mut(&key).and_then(Vec::pop);
        let pool_hit = warm.is_some();
        let mut solver = match warm {
            Some(s) => s,
            None => {
                let demand = DemandRates::new(demand.to_vec());
                DeltaSolver::try_new(req.system, &demand, Arc::clone(&req.utility))
                    .map_err(|e| ApiError::Solver(e.to_string()))?
            }
        };

        solver.set_staleness(req.stale_eps);
        let mut outcome = if pool_hit {
            solver
                .rebase_demand(&demand)
                .map_err(|e| ApiError::Solver(e.to_string()))?
        } else {
            DeltaOutcome::Resolved { moved: 0 }
        };
        if !req.deltas.is_empty() {
            outcome = solver
                .apply(&req.deltas)
                .map_err(|e| ApiError::Solver(e.to_string()))?;
        }

        let (kind, moved, certificate) = match &outcome {
            DeltaOutcome::Resolved { moved } => ("resolved", *moved, None),
            DeltaOutcome::Rebuilt => ("rebuilt", 0, None),
            DeltaOutcome::CertifiedStale(cert) => (
                "certified_stale",
                0,
                Some(Json::obj([
                    ("accepted", Json::from(cert.accepted)),
                    ("eps", Json::from(cert.eps)),
                    ("gap", Json::from(cert.gap)),
                    ("scale", Json::from(cert.scale)),
                ])),
            ),
        };
        let reply = SolveReply {
            counts: solver.counts().counts().to_vec(),
            welfare: solver.welfare(),
            outcome: kind,
            moved,
            certificate,
            pool_hit,
        };

        // Park the solver for reuse under its (possibly delta-moved)
        // current shape; exact mode so a stale certificate can't leak
        // into the next request's baseline.
        solver.set_staleness(None);
        let park_key = key_of(solver.system(), &req.utility_spec, solver.rates().len());
        let mut pools = lock(&self.pools);
        let slot = pools.entry(park_key).or_default();
        if slot.len() < self.per_key {
            slot.push(solver);
        }
        Ok(reply)
    }

    /// Total idle solvers currently parked (for health reporting).
    pub fn idle(&self) -> usize {
        lock(&self.pools).values().map(Vec::len).sum()
    }
}

impl SolveReply {
    /// Serialize as the response body.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("welfare", Json::from(self.welfare)),
            (
                "counts",
                Json::Array(self.counts.iter().map(|&c| Json::from(c)).collect()),
            ),
            (
                "total_replicas",
                Json::from(self.counts.iter().map(|&c| u64::from(c)).sum::<u64>()),
            ),
            ("outcome", Json::from(self.outcome)),
            ("moved", Json::from(self.moved)),
            (
                "pool",
                Json::from(if self.pool_hit { "hit" } else { "miss" }),
            ),
        ];
        if let Some(cert) = &self.certificate {
            fields.push(("certificate", cert.clone()));
        }
        Json::obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_core::solver::greedy::try_greedy_homogeneous;

    fn req(body: &str) -> SolveRequest {
        SolveRequest::from_json(&Json::parse(body).unwrap()).unwrap()
    }

    #[test]
    fn solve_matches_scratch_greedy() {
        let pool = SolverPool::new(4);
        let r = req(r#"{"nodes":40,"rho":3,"mu":0.05,"items":12,"utility":"step:5"}"#);
        let reply = pool.solve(&r).unwrap();
        assert!(!reply.pool_hit);
        let demand = Popularity::pareto(12, 1.0).demand_rates(1.0);
        let fresh = try_greedy_homogeneous(
            &SystemModel::pure_p2p(40, 3, 0.05),
            &demand,
            parse_utility("step:5").unwrap().as_ref(),
        )
        .unwrap();
        assert_eq!(reply.counts, fresh.counts());

        // Second request with the same shape: pool hit, same answer.
        let reply2 = pool.solve(&r).unwrap();
        assert!(reply2.pool_hit);
        assert_eq!(reply2.counts, reply.counts);
        assert_eq!(reply2.welfare.to_bits(), reply.welfare.to_bits());
    }

    #[test]
    fn explicit_demand_and_deltas() {
        let pool = SolverPool::new(4);
        let r = req(r#"{"nodes":20,"rho":2,"mu":0.05,"demand":[1.0,0.5,0.2],
                "deltas":[{"item":2,"rate":3.0}],"utility":"step:5"}"#);
        let reply = pool.solve(&r).unwrap();
        let demand = DemandRates::new(vec![1.0, 0.5, 3.0]);
        let fresh = try_greedy_homogeneous(
            &SystemModel::pure_p2p(20, 2, 0.05),
            &demand,
            parse_utility("step:5").unwrap().as_ref(),
        )
        .unwrap();
        assert_eq!(reply.counts, fresh.counts());
    }

    #[test]
    fn stale_eps_certifies_small_nudges_on_warm_solver() {
        let pool = SolverPool::new(4);
        let base = r#"{"nodes":40,"rho":4,"mu":0.05,"items":16,"utility":"exp:0.5"}"#;
        pool.solve(&req(base)).unwrap();
        // Nudge one mid-rank item by 0.1 % — certifiably negligible at
        // ε = 0.05 — keeping the rest of the catalog identical so the
        // warm checkout's rebase is a no-op.
        let nudge = Popularity::pareto(16, 1.0).demand_rates(1.0).rate(8) * 1.001;
        let nudged = req(&format!(
            r#"{{"nodes":40,"rho":4,"mu":0.05,"items":16,"utility":"exp:0.5",
                "stale_eps":0.05,"deltas":[{{"item":8,"rate":{nudge}}}]}}"#
        ));
        let reply = pool.solve(&nudged).unwrap();
        assert!(reply.pool_hit);
        // The nudge is within ε of the Pareto baseline rate for item 8,
        // so the warm solver certifies instead of re-solving.
        assert_eq!(reply.outcome, "certified_stale");
        assert!(reply.certificate.is_some());
    }

    #[test]
    fn rekeys_on_structural_delta() {
        let pool = SolverPool::new(4);
        let r = req(
            r#"{"nodes":20,"rho":2,"mu":0.05,"items":6,"utility":"step:5",
                "deltas":[{"mu":0.1}]}"#,
        );
        let reply = pool.solve(&r).unwrap();
        assert_eq!(reply.outcome, "rebuilt");
        // The parked solver now has μ = 0.1: a fresh μ = 0.1 request hits.
        let r2 = req(r#"{"nodes":20,"rho":2,"mu":0.1,"items":6,"utility":"step:5"}"#);
        let reply2 = pool.solve(&r2).unwrap();
        assert!(reply2.pool_hit);
        // And a μ = 0.05 request misses (the old key has no solver).
        let r3 = req(r#"{"nodes":20,"rho":2,"mu":0.05,"items":6,"utility":"step:5"}"#);
        assert!(!pool.solve(&r3).unwrap().pool_hit);
    }

    #[test]
    fn validation_rejects_malformed_requests() {
        for (body, want_status) in [
            (r#"[1,2]"#, 400),
            (r#"{"rho":2,"mu":0.05,"items":6}"#, 400), // no nodes
            (r#"{"nodes":20,"rho":2,"items":6}"#, 400), // no mu
            (r#"{"nodes":20,"rho":2,"mu":0.0,"items":6}"#, 422), // bad mu
            (r#"{"nodes":20,"rho":2,"mu":0.05}"#, 400), // no demand
            (r#"{"nodes":20,"rho":2,"mu":0.05,"items":0}"#, 422), // empty catalog
            (
                r#"{"nodes":20,"servers":20,"rho":2,"mu":0.05,"items":6}"#,
                422,
            ),
            (r#"{"nodes":20,"rho":2,"mu":0.05,"demand":[1.0,-2.0]}"#, 422),
            (
                r#"{"nodes":20,"rho":2,"mu":0.05,"items":6,"stale_eps":-1}"#,
                422,
            ),
            (
                r#"{"nodes":20,"rho":2,"mu":0.05,"items":6,"deltas":[{"item":9,"rate":1}]}"#,
                422,
            ),
            (
                r#"{"nodes":20,"rho":2,"mu":0.05,"items":6,"deltas":[{"x":1}]}"#,
                400,
            ),
            (
                r#"{"nodes":20,"rho":2,"mu":0.05,"items":6,"utility":"warp:9"}"#,
                422,
            ),
            // Over the size limits: refused before anything is allocated.
            (
                r#"{"nodes":10,"rho":2,"mu":0.05,"items":100000000000}"#,
                422,
            ),
            (r#"{"nodes":100000000000,"rho":2,"mu":0.05,"items":6}"#, 422),
            (r#"{"nodes":1000000,"rho":5,"mu":0.05,"items":6}"#, 422),
            (
                r#"{"nodes":20,"rho":9223372036854775807,"mu":0.05,"items":6}"#,
                422,
            ),
            (
                r#"{"nodes":20,"rho":2,"mu":0.05,"items":6,"deltas":[{"rho":1000000}]}"#,
                422,
            ),
        ] {
            let err = SolveRequest::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert_eq!(err.http_status(), want_status, "body: {body}");
            if want_status == 422 {
                assert_eq!(err.kind(), "config", "body: {body}");
            }
        }
    }

    /// The reply's bytes, as the server sends them.
    fn reply_text(pool: &SolverPool, body: &str) -> String {
        pool.solve(&req(body)).unwrap().to_json().to_string()
    }

    #[test]
    fn catalog_memo_hit_replies_equal_miss_replies() {
        for body in [
            r#"{"nodes":40,"rho":3,"mu":0.05,"items":300,"omega":0.8}"#,
            r#"{"nodes":40,"rho":3,"mu":0.05,"items":300,"omega":0.8,
                "deltas":[{"item":7,"rate":0.5},{"rho":4}]}"#,
            r#"{"nodes":40,"rho":3,"mu":0.05,"items":300,"omega":0.8,"stale_eps":0.05,
                "utility":"exp:0.5"}"#,
        ] {
            // A fresh pool builds the catalog: a memo miss.
            let miss = reply_text(&SolverPool::new(4), body);
            // Another shape of the same catalog fills the memo first, so
            // `body` finds its catalog there but still misses the solver
            // pool, as the first did.
            let pool = SolverPool::new(4);
            pool.solve(&req(
                r#"{"nodes":60,"rho":2,"mu":0.05,"items":300,"omega":0.8}"#,
            ))
            .unwrap();
            assert!(lock(&pool.catalogs).get(300, 0.8).is_some());
            assert_eq!(reply_text(&pool, body), miss, "body: {body}");
        }
    }

    #[test]
    fn catalog_memo_never_serves_another_shape() {
        let pool = SolverPool::new(4);
        let next_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let shapes = [
            (12, 1.0),
            (13, 1.0),
            (12, next_up(1.0)),
            (12, 0.5),
            (1, 1.0),
        ];
        for round in 0..2 {
            for &(items, omega) in &shapes {
                let got = pool.rates(&Demand::Pareto { items, omega });
                let want = Popularity::pareto(items, omega).demand_rates(1.0);
                let bits = |rates: &[f64]| rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&got),
                    bits(want.rates()),
                    "{items} items, ω {omega}, round {round}"
                );
            }
        }
        // The second round was served from the memo.
        let again = pool.rates(&Demand::Pareto {
            items: 13,
            omega: 1.0,
        });
        assert!(Arc::ptr_eq(
            &again,
            &lock(&pool.catalogs).get(13, 1.0).unwrap()
        ));
    }

    #[test]
    fn catalog_memo_stays_within_its_bound() {
        let pool = SolverPool::new(1);
        for items in 1..=1_000 {
            pool.rates(&Demand::Pareto { items, omega: 1.0 });
            let memo = lock(&pool.catalogs);
            assert!(memo.rates <= CATALOG_MEMO_RATES, "after {items} items");
            assert_eq!(
                memo.rates,
                memo.catalogs.values().map(|c| c.len()).sum::<usize>()
            );
            assert_eq!(memo.order.len(), memo.catalogs.len());
            assert!(memo.get(items, 1.0).is_some(), "the newest catalog is kept");
        }
        // The oldest went first: what is left is the newest run of shapes.
        let memo = lock(&pool.catalogs);
        let oldest = memo.order.front().unwrap().0;
        assert!((oldest..=1_000).all(|items| memo.get(items, 1.0).is_some()));
        assert!(memo.get(oldest - 1, 1.0).is_none());
        drop(memo);
        // A catalog over the bound is built for its request, not kept.
        let big = CATALOG_MEMO_RATES + 1;
        assert_eq!(
            pool.rates(&Demand::Pareto {
                items: big,
                omega: 1.0
            })
            .len(),
            big
        );
        assert!(lock(&pool.catalogs).get(big, 1.0).is_none());
    }

    #[test]
    fn solver_error_maps_to_422() {
        // NegLog requires a dedicated population: pure P2P must be a
        // typed solver error, not a panic.
        let r = req(r#"{"nodes":20,"rho":2,"mu":0.05,"items":6,"utility":"neglog"}"#);
        let err = SolverPool::new(1).solve(&r).unwrap_err();
        assert!(matches!(err, ApiError::Solver(_)));
        assert_eq!(err.http_status(), 422);
    }
}
