//! Every input of every workload, generated from the seed.
//!
//! The same seed yields byte-identical specs, request bodies and net/fault
//! configurations (unit test below). The generator has its own RNG so that
//! a change to the crates under test cannot change the inputs they are
//! measured on, and nothing it emits carries the seed's or the workload's
//! name: the programs see inputs only.
//!
//! Full sizes are the issue's starting sizes cut to fit the driver's time
//! cap (each repetition about a second, see `benchmark/README.md`); smoke
//! sizes are about a twentieth of that.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// How much work a workload generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// SplitMix64: small, fixed, and owned by the benchmark.
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of `seed`: each workload draws from its own.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is immaterial at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// A seed for the programs: 31 bits, so `seed + k` never overflows
    /// and TOML integers hold it.
    pub fn seed(&mut self) -> u64 {
        self.below(1 << 31)
    }
}

// ------------------------------------------------------------ spec runs

/// A generated experiment spec and what running it should produce.
#[derive(Debug)]
pub struct SpecInputs {
    /// The TOML document handed to `exp::Spec::parse`.
    pub toml: String,
    /// Trials per (point, competitor) cell.
    pub trials: usize,
    /// Sweep points across all axes.
    pub points: usize,
    /// CSV files the run must write.
    pub artifacts: usize,
}

/// Competitors per sweep point: QCR, OPT, UNI, SQRT, PROP, DOM.
pub const COMPETITORS: usize = 6;

/// The `reproduce --fig 4` shape on the paper's §6.2 setting.
pub fn paper_sweep(seed: u64, size: Size) -> SpecInputs {
    let mut rng = Rng::new(seed, 1);
    let trials = size.pick(4, 2);
    let duration = size.pick(5000.0, 1000.0);
    let (power_seed, step_seed) = (rng.seed(), rng.seed());
    let toml = format!(
        r#"name = "spec"
kind = "loss_sweep"
title = "generated loss sweep"

[setting]
nodes = 50
items = 50
rho = 5
mu = 0.05
bin = 60.0
warmup_fraction = 0.3
duration = {duration:?}
trials = {trials}

[[sweep]]
file = "power_loss"
param = "alpha"
family = "power"
values = [0.5]
seed = {power_seed}

[[sweep]]
file = "step_loss"
param = "tau"
family = "step"
values = [10.0]
seed = {step_seed}
"#
    );
    SpecInputs {
        toml,
        trials,
        points: 2,
        artifacts: 2,
    }
}

/// Trace seed of `experiments/fig5.toml`. Every benchmark seed uses this
/// one trace: conference traces of different seeds differ in length by a
/// fifth, which would show up as run-to-run spread of a trial's cost and of
/// the memory a process holds while it has the trace.
const TRACE_SEED: u64 = 20_060_424;

/// The `reproduce --fig 5` shape: the conference trace, step utility swept
/// over τ; the seed draws the trials' demand and placement.
pub fn trace_replay(seed: u64, size: Size) -> SpecInputs {
    let mut rng = Rng::new(seed, 2);
    let trials = size.pick(4, 1);
    let taus: &[f64] = size.pick(&[3.0, 30.0, 300.0], &[30.0]);
    let (trace_seed, sweep_seed) = (TRACE_SEED, rng.seed());
    let toml = format!(
        r#"name = "spec"
kind = "trace_suite"
title = "generated trace suite"

[setting]
trace = "conference"
trace_seed = {trace_seed}
items = 50
rho = 5
bin = 60.0
warmup_fraction = 0.25
trials = {trials}

[[sweep]]
file = "loss_actual"
param = "tau"
family = "step"
values = {taus:?}
seed = {sweep_seed}
"#
    );
    SpecInputs {
        toml,
        trials,
        points: taus.len(),
        artifacts: 1,
    }
}

// -------------------------------------------------------- sharded_scale

/// One homogeneous system for the sharded engine.
#[derive(Debug)]
pub struct ShardedInputs {
    pub nodes: usize,
    pub items: usize,
    pub rho: usize,
    /// Pairwise contact rate; `0.67 / nodes` keeps contacts per node fixed.
    pub mu: f64,
    pub duration: f64,
    /// Requests per minute per node, so demand grows with the system.
    pub demand_per_node: f64,
    pub trial_seed: u64,
}

pub fn sharded_scale(seed: u64, size: Size) -> ShardedInputs {
    let mut rng = Rng::new(seed, 3);
    let nodes = size.pick(100_000, 10_000);
    ShardedInputs {
        nodes,
        items: 200,
        rho: 5,
        mu: 0.67 / nodes as f64,
        duration: size.pick(60.0, 30.0),
        demand_per_node: 0.02,
        trial_seed: rng.seed(),
    }
}

// ---------------------------------------------------------- solve_batch

/// One homogeneous allocation instance.
#[derive(Debug)]
pub struct SolveInstance {
    /// Utility spec string, as `impatience solve --utility` takes it.
    pub utility: &'static str,
    /// Dedicated population (as many clients as servers) or pure P2P.
    pub dedicated: bool,
    pub nodes: usize,
    pub rho: usize,
    pub mu: f64,
    /// Demand rate per item.
    pub demand: Vec<f64>,
}

#[derive(Debug)]
pub struct SolveBatchInputs {
    pub instances: Vec<SolveInstance>,
    /// Seed of the conference trace whose rate matrix the heterogeneous
    /// solves run on.
    pub trace_seed: u64,
    /// Utilities of the heterogeneous solves (bounded waiting cost, so no
    /// rate smoothing is needed for never-observed pairs).
    pub het_utilities: &'static [&'static str],
    /// Catalog size of the heterogeneous solves.
    pub het_items: usize,
}

/// The six utility families: (spec, needs a dedicated population).
const FAMILIES: &[(&str, bool)] = &[
    ("step:10", false),
    ("exp:0.2", false),
    ("power:-1", false),
    ("power:0.5", false),
    ("neglog", true),
    ("power:1.5", true),
];

/// Pareto(ω = 1) popularity with each rate jittered ±10% from the seed,
/// normalized to one request per minute system-wide.
fn jittered_pareto(rng: &mut Rng, items: usize) -> Vec<f64> {
    let raw: Vec<f64> = (0..items)
        .map(|i| rng.range(0.9, 1.1) / (i + 1) as f64)
        .collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|r| r / total).collect()
}

pub fn solve_batch(seed: u64, size: Size) -> SolveBatchInputs {
    let mut rng = Rng::new(seed, 4);
    let shapes: &[(usize, usize)] = size.pick(&[(1000, 50), (2000, 100)], &[(100, 20)]);
    let mut instances = Vec::new();
    for &(items, nodes) in shapes {
        for &(utility, dedicated) in FAMILIES {
            instances.push(SolveInstance {
                utility,
                dedicated,
                nodes,
                rho: 5,
                mu: 0.05,
                demand: jittered_pareto(&mut rng, items),
            });
        }
    }
    SolveBatchInputs {
        instances,
        trace_seed: TRACE_SEED,
        het_utilities: size.pick(&["step:10", "exp:0.2", "step:300"], &["step:10"]),
        het_items: size.pick(50, 10),
    }
}

// -------------------------------------------------------- solve_service

/// Which path a `/v1/solve` request takes through the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveClass {
    /// Warm shape plus 1–8 demand deltas: pool hit, incremental re-solve.
    Delta,
    /// A shape the server has not seen: pool miss, gain table built.
    Cold,
    /// Warm shape with `stale_eps`: a certificate, which runs a relaxed
    /// solve.
    Stale,
}

#[derive(Debug)]
pub struct SolveRequest {
    pub class: SolveClass,
    pub nodes: usize,
    pub items: usize,
    /// (item, new rate) pairs applied on top of the Pareto catalog.
    pub deltas: Vec<(usize, f64)>,
    pub stale_eps: Option<f64>,
    /// The request body, byte for byte.
    pub body: String,
}

#[derive(Debug)]
pub struct ServiceInputs {
    /// Shape every `Delta` and `Stale` request shares.
    pub warm_nodes: usize,
    pub warm_items: usize,
    /// Body that warms the pool for that shape.
    pub warm_body: String,
    pub requests: Vec<SolveRequest>,
}

pub const SERVICE_RHO: usize = 5;
pub const SERVICE_MU: f64 = 0.05;
pub const SERVICE_UTILITY: &str = "step:10";
pub const STALE_EPS: f64 = 0.05;

fn solve_body(
    nodes: usize,
    items: usize,
    deltas: &[(usize, f64)],
    stale_eps: Option<f64>,
) -> String {
    let mut body = format!(
        r#"{{"nodes":{nodes},"rho":{SERVICE_RHO},"mu":{SERVICE_MU},"items":{items},"omega":1.0,"utility":"{SERVICE_UTILITY}""#
    );
    if let Some(eps) = stale_eps {
        write!(body, r#","stale_eps":{eps}"#).expect("write to a String");
    }
    if !deltas.is_empty() {
        body.push_str(r#","deltas":["#);
        for (k, (item, rate)) in deltas.iter().enumerate() {
            let comma = if k == 0 { "" } else { "," };
            write!(body, r#"{comma}{{"item":{item},"rate":{rate:?}}}"#).expect("write to a String");
        }
        body.push(']');
    }
    body.push('}');
    body
}

pub fn solve_service(seed: u64, size: Size) -> ServiceInputs {
    let mut rng = Rng::new(seed, 5);
    let count = size.pick(2500, 200);
    let (warm_nodes, warm_items) = (50, 1000);
    let mut cold_seen = BTreeSet::new();
    // Exactly 85% delta, 10% cold, 5% stale, in an order drawn from the
    // seed: a stale request costs thirty delta requests, so a mix drawn
    // request by request would make the work differ by several percent
    // from seed to seed.
    let mut classes: Vec<SolveClass> = (0..count)
        .map(|k| match k * 100 / count {
            0..=84 => SolveClass::Delta,
            85..=94 => SolveClass::Cold,
            _ => SolveClass::Stale,
        })
        .collect();
    for k in (1..count).rev() {
        classes.swap(k, rng.below(k as u64 + 1) as usize);
    }
    let mut requests = Vec::with_capacity(count);
    for class in classes {
        let (nodes, items, deltas, stale_eps) = match class {
            SolveClass::Delta => {
                let deltas = (0..1 + rng.below(8))
                    .map(|_| {
                        (
                            rng.below(warm_items as u64) as usize,
                            rng.range(0.0002, 0.02),
                        )
                    })
                    .collect();
                (warm_nodes, warm_items, deltas, None)
            }
            SolveClass::Cold => loop {
                let shape = (30 + rng.below(51) as usize, 200 + rng.below(1001) as usize);
                if shape != (warm_nodes, warm_items) && cold_seen.insert(shape) {
                    break (shape.0, shape.1, Vec::new(), None);
                }
            },
            SolveClass::Stale => (warm_nodes, warm_items, Vec::new(), Some(STALE_EPS)),
        };
        let body = solve_body(nodes, items, &deltas, stale_eps);
        requests.push(SolveRequest {
            class,
            nodes,
            items,
            deltas,
            stale_eps,
            body,
        });
    }
    ServiceInputs {
        warm_nodes,
        warm_items,
        warm_body: solve_body(warm_nodes, warm_items, &[], None),
        requests,
    }
}

// ----------------------------------------------------- campaign_service

#[derive(Debug)]
pub struct CampaignInputs {
    /// `POST /v1/campaigns` bodies, submitted one after another.
    pub bodies: Vec<String>,
    /// Trials per campaign.
    pub trials: usize,
}

pub fn campaign_service(seed: u64, size: Size) -> CampaignInputs {
    let mut rng = Rng::new(seed, 6);
    let campaigns = size.pick(2, 1);
    let trials = size.pick(4, 2);
    let duration = size.pick(1000.0, 300.0);
    let bodies = (0..campaigns)
        .map(|_| {
            format!(
                r#"{{"nodes":50,"mu":0.05,"duration":{duration:?},"items":50,"rho":5,"policy":"qcr","trials":{trials},"seed":{},"checkpoint_every":2}}"#,
                rng.seed()
            )
        })
        .collect();
    CampaignInputs { bodies, trials }
}

// -------------------------------------------------------------- net_qcr

/// The system and the two transports of the distributed runtime.
#[derive(Debug)]
pub struct NetInputs {
    pub nodes: usize,
    pub items: usize,
    pub rho: usize,
    pub mu: f64,
    pub duration: f64,
    pub utility: &'static str,
    /// Trials on each transport.
    pub trials_per_half: usize,
    pub clean_seed: u64,
    pub lossy_seed: u64,
    /// Seed of the message-fault schedule of the lossy half.
    pub fault_seed: u64,
    pub loss_p: f64,
    pub dup_p: f64,
    pub reorder_window: u32,
}

pub fn net_qcr(seed: u64, size: Size) -> NetInputs {
    let mut rng = Rng::new(seed, 7);
    NetInputs {
        nodes: 50,
        items: 50,
        rho: 5,
        mu: 0.05,
        duration: size.pick(1000.0, 200.0),
        utility: "step:10",
        trials_per_half: size.pick(4, 2),
        clean_seed: rng.seed(),
        lossy_seed: rng.seed(),
        fault_seed: rng.seed(),
        loss_p: 0.1,
        dup_p: 0.05,
        reorder_window: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything generated for one seed, as the bytes the programs get.
    fn everything(seed: u64, size: Size) -> String {
        format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
            paper_sweep(seed, size),
            trace_replay(seed, size),
            sharded_scale(seed, size),
            solve_batch(seed, size),
            solve_service(seed, size),
            campaign_service(seed, size),
            net_qcr(seed, size),
        )
    }

    #[test]
    fn same_seed_same_bytes() {
        for size in [Size::Full, Size::Smoke] {
            assert_eq!(everything(7, size), everything(7, size));
            assert_ne!(everything(7, size), everything(8, size));
        }
    }

    #[test]
    fn inputs_name_neither_seed_nor_workload() {
        let text = everything(123_456_789, Size::Full);
        assert!(!text.contains("123456789"));
        for w in crate::catalog::WORKLOADS {
            assert!(!text.contains(w.name), "inputs mention {}", w.name);
        }
    }

    #[test]
    fn request_mix_and_cold_shapes() {
        let inputs = solve_service(3, Size::Full);
        let share = |class| {
            inputs.requests.iter().filter(|r| r.class == class).count() as f64
                / inputs.requests.len() as f64
        };
        assert!((share(SolveClass::Delta) - 0.85).abs() < 0.03);
        assert!((share(SolveClass::Cold) - 0.10).abs() < 0.03);
        assert!((share(SolveClass::Stale) - 0.05).abs() < 0.02);
        let cold: BTreeSet<(usize, usize)> = inputs
            .requests
            .iter()
            .filter(|r| r.class == SolveClass::Cold)
            .map(|r| (r.nodes, r.items))
            .collect();
        let cold_count = inputs
            .requests
            .iter()
            .filter(|r| r.class == SolveClass::Cold)
            .count();
        assert_eq!(cold.len(), cold_count, "a cold shape repeats");
    }
}
