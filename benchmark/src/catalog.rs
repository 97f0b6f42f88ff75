//! The names this benchmark is made of: seven workloads, the end-to-end
//! metrics with their regression bounds, and the metrics without one.
//! `BENCHMARK.json` at the repo root lists the same names; the unit test
//! below and `run --smoke` keep the two from drifting apart.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base value by which the metric may worsen.
    pub bound: f64,
    /// Absolute worsening always tolerated (`compare` takes the larger of
    /// the two allowances), in the metric's unit.
    pub floor: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        floor: 8.0,
    },
    // 1 − failed ÷ attempted. The bound is smaller than one failed op in a
    // run of any workload, so any increase of the failed share breaches.
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 1e-9,
        floor: 0.0,
    },
];

/// A workload: one set of generated inputs and the path they take.
pub struct WorkloadInfo {
    pub name: &'static str,
    /// One line, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// What `ops_per_s` counts.
    pub op: &'static str,
    /// What `latency_p50_ms` times.
    pub latency_op: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "paper_sweep",
        why: "reproduce --fig 4 shape: loss_sweep TOML through exp::run_spec; serial sim.engine on Poisson contacts, 5 static competitors + QCR",
        op: "trial",
        latency_op: "run_spec call",
    },
    WorkloadInfo {
        name: "trace_replay",
        why: "reproduce --fig 5 shape: trace_suite on a generated conference trace; cursor replay, het_greedy OPT; a sampler speed-up must not show here",
        op: "trial",
        latency_op: "run_spec call",
    },
    WorkloadInfo {
        name: "sharded_scale",
        why: "run_trial_sharded, QCR, 100k nodes with demand proportional to n: working set past L2, where SoA and cache changes show",
        op: "processed contact",
        latency_op: "trial",
    },
    WorkloadInfo {
        name: "solve_batch",
        why: "greedy + relaxed + residual + welfare over six utility families, plus het_greedy: core.solver/utility/numeric only, sim does nothing",
        op: "solver call",
        latency_op: "one instance through greedy, relaxed, residual and welfare",
    },
    WorkloadInfo {
        name: "solve_service",
        why: "closed loop on POST /v1/solve: 85% warm-pool deltas, 10% cold shapes, 5% stale_eps certificates; serve.http, json and TCP set-up dominate",
        op: "round trip",
        latency_op: "round trip",
    },
    WorkloadInfo {
        name: "campaign_service",
        why: "sequential POST /v1/campaigns with a live SSE subscriber, to artifact: serve.jobs, run_campaign, checkpoints and the obs stream; no solver pool",
        op: "trial",
        latency_op: "202 to artifact fetched",
    },
    WorkloadInfo {
        name: "net_qcr",
        why: "net::run_net_trials, clean then lossy transport: the actor-plane QCR; hot message path and retry/escrow path side by side",
        op: "trial",
        latency_op: "one clean plus one lossy wave of concurrent trials",
    },
];

/// A per-layer metric. Each is measured by the workloads whose path
/// crosses the layer (see `benchmark/README.md`); on the others it reads 0,
/// "not on this path".
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Unit of a metric that must repeat exactly for a fixed seed; `compare`
/// reports these as equal or different, never as a ratio.
pub const COUNT: &str = "count";

pub const PER_LAYER: &[Layer] = &[
    // Every workload. The first two are what a user waits for, not one
    // layer's; they carry no bound because identical runs on the reference
    // host differ in them by more than the 10% they would be held to
    // (`benchmark/README.md`, "Steadiness").
    higher("ops_per_s", "op/s"),
    lower("latency_p50_ms", "ms"),
    lower("bench.trace_overhead_ratio", "ratio"),
    // traces
    lower("traces.stream.drain_s", "s"),
    lower("traces.stream.contacts", COUNT),
    higher("traces.stream.mcontacts_per_s", "Mcontacts/s"),
    lower("traces.cursor.drain_s", "s"),
    lower("traces.gen.conference_s", "s"),
    lower("traces.gen.resynth_s", "s"),
    // sim.engine, sim.policy, sim.runner
    lower("sim.engine.static_trial_ms", "ms"),
    lower("sim.engine.qcr_trial_ms", "ms"),
    higher("sim.engine.contacts_per_s", "1/s"),
    lower("sim.engine.trace_trial_ms", "ms"),
    lower("sim.engine.requests", COUNT),
    lower("sim.engine.fulfillments", COUNT),
    lower("sim.engine.transmissions", COUNT),
    lower("sim.policy.qcr_extra_ms", "ms"),
    lower("sim.policy.mandates_created", COUNT),
    lower("sim.runner.batch_s", "s"),
    lower("sim.runner.batch_w1_s", "s"),
    higher("sim.runner.speedup_w2", "ratio"),
    higher("sim.runner.utilization", "ratio"),
    lower("sim.runner.campaign_s", "s"),
    // sim.sharded, sim.checkpoint
    lower("sim.sharded.trial_s", "s"),
    lower("sim.sharded.trial_w1_s", "s"),
    higher("sim.sharded.speedup_w2", "ratio"),
    lower("sim.sharded.static_trial_s", "s"),
    lower("sim.sharded.qcr_extra_s", "s"),
    lower("sim.sharded.idle_demand_trial_s", "s"),
    lower("sim.sharded.contacts", COUNT),
    lower("sim.sharded.transmissions", COUNT),
    higher("sim.sharded.vs_serial_ratio", "ratio"),
    lower("sim.checkpoint.save_ms", "ms"),
    lower("sim.checkpoint.bytes", COUNT),
    // core
    lower("core.solver.greedy_ms", "ms"),
    lower("core.solver.relaxed_ms", "ms"),
    lower("core.solver.het_greedy_ms", "ms"),
    lower("core.solver.relaxed_iterations", COUNT),
    lower("core.solver.relaxed_evaluations", COUNT),
    lower("core.solver.greedy_gain_evals", COUNT),
    lower("core.solver.delta_apply_us", "us"),
    lower("core.solver.rebuild_us", "us"),
    lower("core.solver.certificate_ms", "ms"),
    lower("core.solver.replicas_moved", COUNT),
    lower("core.utility.phi_ns", "ns"),
    lower("core.utility.psi_ns", "ns"),
    lower("core.welfare.eval_us", "us"),
    // exp, json, obs
    lower("exp.toml.parse_us", "us"),
    lower("exp.run_spec.overhead_share", "ratio"),
    lower("exp.artifact.bytes", COUNT),
    higher("json.parse_mb_s", "MB/s"),
    higher("json.write_mb_s", "MB/s"),
    lower("obs.sink.tally_ratio", "ratio"),
    lower("obs.sink.jsonl_ratio", "ratio"),
    lower("obs.span.armed_ratio", "ratio"),
    // net
    lower("net.kernel.clean_trial_ms", "ms"),
    lower("net.kernel.lossy_trial_ms", "ms"),
    lower("net.kernel.msgs_sent", COUNT),
    higher("net.kernel.msgs_per_s", "1/s"),
    lower("net.kernel.retry_share", "ratio"),
    lower("net.kernel.handoffs", COUNT),
    lower("net.kernel.execs", COUNT),
    lower("net.kernel.vs_engine_ratio", "ratio"),
    lower("net.wire.encode_ns", "ns"),
    lower("net.wire.decode_ns", "ns"),
    higher("net.runner.speedup_w2", "ratio"),
    // serve
    lower("serve.http.healthz_p50_ms", "ms"),
    lower("serve.http.roundtrip_p99_ms", "ms"),
    lower("serve.http.over_limit_share", "ratio"),
    lower("serve.solve.hit_p50_ms", "ms"),
    lower("serve.solve.miss_p50_ms", "ms"),
    lower("serve.solve.cert_p50_ms", "ms"),
    lower("serve.solve.direct_hit_us", "us"),
    lower("serve.solve.direct_cert_ms", "ms"),
    higher("serve.solve.pool_hit_rate", "ratio"),
    higher("serve.solve.cert_reuse_rate", "ratio"),
    lower("serve.jobs.accept_ms", "ms"),
    lower("serve.jobs.run_s", "s"),
    lower("serve.jobs.vs_direct_ratio", "ratio"),
    lower("serve.sse.frames", COUNT),
    higher("serve.sse.frames_per_s", "1/s"),
    lower("serve.sse.dropped", COUNT),
    lower("serve.artifacts.get_ms", "ms"),
    lower("serve.metrics.scrape_ms", "ms"),
];

/// Unit of a metric of either kind, by name.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_json::Json;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let problems = crate::report::schema_problems(&doc, None);
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
