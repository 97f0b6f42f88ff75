//! The structured event vocabulary.

use impatience_json::Json;

/// One instrumented occurrence, emitted to a [`crate::Sink`].
///
/// Times are simulation minutes (the workspace convention); wall-clock
/// quantities carry a `_s` suffix and are seconds. The JSONL encoding
/// tags each record with an `"ev"` discriminant — see
/// [`Event::to_json`].
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Two nodes met.
    Contact {
        /// Simulation time.
        t: f64,
        /// First node (lower id).
        a: u32,
        /// Second node.
        b: u32,
    },
    /// A node started wanting an item.
    Request {
        /// Simulation time.
        t: f64,
        /// The requesting node.
        node: u32,
        /// The requested item.
        item: u32,
    },
    /// A request was satisfied from the node's own cache at creation.
    ImmediateHit {
        /// Simulation time.
        t: f64,
        /// The requesting node.
        node: u32,
        /// The requested item.
        item: u32,
    },
    /// An outstanding request was satisfied during a contact.
    Fulfillment {
        /// Simulation time.
        t: f64,
        /// The requesting node.
        node: u32,
        /// The item delivered.
        item: u32,
        /// Delay since the request was created.
        wait: f64,
        /// Contacts the requester had while waiting.
        queries: u32,
    },
    /// A request still open when the trial ended.
    Unfulfilled {
        /// Simulation time (end of trial).
        t: f64,
        /// The requesting node.
        node: u32,
        /// The item that never arrived.
        item: u32,
        /// How long the request had been open.
        wait: f64,
    },
    /// A contact triggered cache replications (copies transmitted).
    Replication {
        /// Simulation time.
        t: f64,
        /// Copies transmitted during this contact.
        count: u64,
    },
    /// One placement step of a solver (greedy iteration, water-level
    /// probe, ...).
    SolverStep {
        /// Which solver.
        solver: &'static str,
        /// 0-based step index.
        iteration: u64,
        /// The item acted on (or probed).
        item: u32,
        /// The step's marginal gain or convergence residual.
        value: f64,
    },
    /// A solver finished.
    SolverDone {
        /// Which solver.
        solver: &'static str,
        /// Steps taken.
        iterations: u64,
        /// Objective/marginal evaluations performed.
        evaluations: u64,
        /// Wall-clock seconds.
        wall_s: f64,
    },
    /// One simulation trial completed.
    TrialDone {
        /// The trial's RNG seed.
        seed: u64,
        /// Wall-clock seconds.
        wall_s: f64,
    },
    /// One conformance scenario of the verification oracle finished
    /// (see `impatience-oracle`).
    ScenarioDone {
        /// 0-based scenario index within the matrix.
        index: u64,
        /// Invariant checks that passed.
        passed: u32,
        /// Invariant checks that failed.
        failed: u32,
        /// Invariant checks skipped as not applicable.
        skipped: u32,
        /// Wall-clock seconds.
        wall_s: f64,
    },
    /// One cell of a declarative experiment finished (see
    /// `impatience-exp`): a sweep point, panel, or table block of a
    /// `reproduce` run.
    ExperimentDone {
        /// The experiment spec name (e.g. `"fig4"`).
        spec: String,
        /// The cell label within the spec (e.g. `"power alpha=-2"`).
        cell: String,
        /// CSV rows the cell contributed.
        rows: u64,
        /// Wall-clock seconds.
        wall_s: f64,
    },
    /// An injected fault fired (see `impatience-sim`'s fault model).
    Fault {
        /// Simulation time.
        t: f64,
        /// Fault kind: `"contact_drop"`, `"node_down"`, `"node_up"`,
        /// `"cache_fault"`, or `"trace_truncated"`.
        kind: &'static str,
        /// The primary node affected.
        node: u32,
        /// Kind-specific detail: the peer for contact faults, the item
        /// lost for cache faults, 0 otherwise.
        aux: u32,
    },
}

impl Event {
    /// The `"ev"` discriminant used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Contact { .. } => "contact",
            Event::Request { .. } => "request",
            Event::ImmediateHit { .. } => "immediate_hit",
            Event::Fulfillment { .. } => "fulfillment",
            Event::Unfulfilled { .. } => "unfulfilled",
            Event::Replication { .. } => "replication",
            Event::SolverStep { .. } => "solver_step",
            Event::SolverDone { .. } => "solver_done",
            Event::TrialDone { .. } => "trial_done",
            Event::ScenarioDone { .. } => "scenario",
            Event::ExperimentDone { .. } => "experiment",
            Event::Fault { .. } => "fault",
        }
    }

    /// Encode as a flat JSON object, `"ev"` first.
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("ev".into(), Json::from(self.kind()))];
        let mut push = |key: &str, value: Json| pairs.push((key.into(), value));
        match *self {
            Event::Contact { t, a, b } => {
                push("t", t.into());
                push("a", a.into());
                push("b", b.into());
            }
            Event::Request { t, node, item } | Event::ImmediateHit { t, node, item } => {
                push("t", t.into());
                push("node", node.into());
                push("item", item.into());
            }
            Event::Fulfillment {
                t,
                node,
                item,
                wait,
                queries,
            } => {
                push("t", t.into());
                push("node", node.into());
                push("item", item.into());
                push("wait", wait.into());
                push("queries", queries.into());
            }
            Event::Unfulfilled {
                t,
                node,
                item,
                wait,
            } => {
                push("t", t.into());
                push("node", node.into());
                push("item", item.into());
                push("wait", wait.into());
            }
            Event::Replication { t, count } => {
                push("t", t.into());
                push("count", count.into());
            }
            Event::SolverStep {
                solver,
                iteration,
                item,
                value,
            } => {
                push("solver", solver.into());
                push("iteration", iteration.into());
                push("item", item.into());
                push("value", value.into());
            }
            Event::SolverDone {
                solver,
                iterations,
                evaluations,
                wall_s,
            } => {
                push("solver", solver.into());
                push("iterations", iterations.into());
                push("evaluations", evaluations.into());
                push("wall_s", wall_s.into());
            }
            Event::TrialDone { seed, wall_s } => {
                push("seed", seed.into());
                push("wall_s", wall_s.into());
            }
            Event::ScenarioDone {
                index,
                passed,
                failed,
                skipped,
                wall_s,
            } => {
                push("index", index.into());
                push("passed", passed.into());
                push("failed", failed.into());
                push("skipped", skipped.into());
                push("wall_s", wall_s.into());
            }
            Event::ExperimentDone {
                ref spec,
                ref cell,
                rows,
                wall_s,
            } => {
                push("spec", spec.as_str().into());
                push("cell", cell.as_str().into());
                push("rows", rows.into());
                push("wall_s", wall_s.into());
            }
            Event::Fault { t, kind, node, aux } => {
                push("t", t.into());
                push("kind", kind.into());
                push("node", node.into());
                push("aux", aux.into());
            }
        }
        Json::Object(pairs)
    }

    /// Append the JSONL encoding of this event (one compact JSON object,
    /// no trailing newline) directly to `out`.
    ///
    /// Byte-identical to `self.to_json().write(out)` — checked by a test
    /// over every variant — but without building the intermediate
    /// [`Json`] tree, which is what made the JSONL sink ~5× slower than
    /// tally-only recording in the PR 1 bench.
    pub fn write_jsonl(&self, out: &mut String) {
        use impatience_json::{write_f64, write_str, write_u64};

        out.push_str("{\"ev\":\"");
        out.push_str(self.kind());
        out.push('"');
        let int = |out: &mut String, key: &str, n: i64| {
            out.push(',');
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            Json::Int(n).write(out);
        };
        let float = |out: &mut String, key: &str, x: f64| {
            out.push(',');
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            write_f64(x, out);
        };
        let uint = |out: &mut String, key: &str, n: u64| {
            out.push(',');
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            write_u64(n, out);
        };
        let string = |out: &mut String, key: &str, s: &str| {
            out.push(',');
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            write_str(s, out);
        };
        match *self {
            Event::Contact { t, a, b } => {
                float(out, "t", t);
                int(out, "a", a as i64);
                int(out, "b", b as i64);
            }
            Event::Request { t, node, item } | Event::ImmediateHit { t, node, item } => {
                float(out, "t", t);
                int(out, "node", node as i64);
                int(out, "item", item as i64);
            }
            Event::Fulfillment {
                t,
                node,
                item,
                wait,
                queries,
            } => {
                float(out, "t", t);
                int(out, "node", node as i64);
                int(out, "item", item as i64);
                float(out, "wait", wait);
                int(out, "queries", queries as i64);
            }
            Event::Unfulfilled {
                t,
                node,
                item,
                wait,
            } => {
                float(out, "t", t);
                int(out, "node", node as i64);
                int(out, "item", item as i64);
                float(out, "wait", wait);
            }
            Event::Replication { t, count } => {
                float(out, "t", t);
                uint(out, "count", count);
            }
            Event::SolverStep {
                solver,
                iteration,
                item,
                value,
            } => {
                string(out, "solver", solver);
                uint(out, "iteration", iteration);
                int(out, "item", item as i64);
                float(out, "value", value);
            }
            Event::SolverDone {
                solver,
                iterations,
                evaluations,
                wall_s,
            } => {
                string(out, "solver", solver);
                uint(out, "iterations", iterations);
                uint(out, "evaluations", evaluations);
                float(out, "wall_s", wall_s);
            }
            Event::TrialDone { seed, wall_s } => {
                uint(out, "seed", seed);
                float(out, "wall_s", wall_s);
            }
            Event::ScenarioDone {
                index,
                passed,
                failed,
                skipped,
                wall_s,
            } => {
                uint(out, "index", index);
                int(out, "passed", passed as i64);
                int(out, "failed", failed as i64);
                int(out, "skipped", skipped as i64);
                float(out, "wall_s", wall_s);
            }
            Event::ExperimentDone {
                ref spec,
                ref cell,
                rows,
                wall_s,
            } => {
                string(out, "spec", spec);
                string(out, "cell", cell);
                uint(out, "rows", rows);
                float(out, "wall_s", wall_s);
            }
            Event::Fault { t, kind, node, aux } => {
                float(out, "t", t);
                string(out, "kind", kind);
                int(out, "node", node as i64);
                int(out, "aux", aux as i64);
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_records_are_tagged_and_flat() {
        let e = Event::Fulfillment {
            t: 12.5,
            node: 3,
            item: 7,
            wait: 2.25,
            queries: 4,
        };
        let v = e.to_json();
        assert_eq!(v.get("ev").and_then(Json::as_str), Some("fulfillment"));
        assert_eq!(v.get("wait").and_then(Json::as_f64), Some(2.25));
        assert_eq!(v.get("queries").and_then(Json::as_u64), Some(4));
        let text = v.to_string();
        assert!(text.starts_with("{\"ev\":\"fulfillment\""), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn every_variant_serializes() {
        let events = [
            Event::Contact { t: 1.0, a: 0, b: 1 },
            Event::Request {
                t: 1.0,
                node: 0,
                item: 2,
            },
            Event::ImmediateHit {
                t: 1.0,
                node: 0,
                item: 2,
            },
            Event::Fulfillment {
                t: 2.0,
                node: 0,
                item: 2,
                wait: 1.0,
                queries: 1,
            },
            Event::Unfulfilled {
                t: 9.0,
                node: 1,
                item: 3,
                wait: 8.0,
            },
            Event::Replication { t: 2.0, count: 2 },
            Event::SolverStep {
                solver: "greedy",
                iteration: 0,
                item: 1,
                value: 0.5,
            },
            Event::SolverDone {
                solver: "greedy",
                iterations: 10,
                evaluations: 40,
                wall_s: 0.01,
            },
            Event::TrialDone {
                seed: 7,
                wall_s: 0.5,
            },
            Event::ScenarioDone {
                index: 3,
                passed: 4,
                failed: 0,
                skipped: 1,
                wall_s: 0.1,
            },
            Event::ExperimentDone {
                spec: "fig4".into(),
                cell: "power alpha=-2".into(),
                rows: 1,
                wall_s: 3.5,
            },
            Event::Fault {
                t: 3.0,
                kind: "contact_drop",
                node: 4,
                aux: 9,
            },
            // Edge cases for the serialization fast path: huge integers,
            // tiny floats, strings needing escapes.
            Event::TrialDone {
                seed: u64::MAX,
                wall_s: 1e-9,
            },
            Event::TrialDone {
                seed: i64::MAX as u64,
                wall_s: 0.5,
            },
            Event::ExperimentDone {
                spec: "fig\"4\"\n".into(),
                cell: "α=-2\ttab".into(),
                rows: 0,
                wall_s: -0.0,
            },
            Event::Contact {
                t: 1234567.890123,
                a: u32::MAX,
                b: 0,
            },
        ];
        for e in events {
            let v = e.to_json();
            assert_eq!(v.get("ev").and_then(Json::as_str), Some(e.kind()));
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
            // The direct JSONL fast path must be byte-identical to tree
            // serialization.
            let mut fast = String::new();
            e.write_jsonl(&mut fast);
            assert_eq!(fast, v.to_string(), "fast path diverges for {e:?}");
        }
    }
}
