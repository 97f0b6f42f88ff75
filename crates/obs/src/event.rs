//! The structured event vocabulary.

use impatience_json::Json;

/// One instrumented occurrence, emitted to a [`crate::Sink`].
///
/// Times are simulation minutes (the workspace convention); wall-clock
/// quantities carry a `_s` suffix and are seconds. The JSONL encoding
/// tags each record with an `"ev"` discriminant — see
/// [`Event::write_jsonl`].
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
        /// `"cache_fault"`, `"trace_truncated"`, `"trial_panic"`, or one
        /// of the net runtime's `"net_*"` kinds (see `impatience-net`).
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

    /// Append the JSONL encoding of this event to `out`: one compact
    /// JSON object, `"ev"` first and then the variant's fields in
    /// declaration order, no trailing newline.
    ///
    /// This is the one encoding of an event. It writes the text
    /// directly, without building a [`Json`] tree, which is what made
    /// the JSONL sink ~5× slower than tally-only recording when it did.
    /// A test parses the line of every variant back and holds its keys
    /// to the schema.
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

    /// Each kind's keys after `"ev"`, in the order a line carries them.
    #[rustfmt::skip]
    const SCHEMA: [(&str, &[&str]); 12] = [
        ("contact", &["t", "a", "b"]),
        ("request", &["t", "node", "item"]),
        ("immediate_hit", &["t", "node", "item"]),
        ("fulfillment", &["t", "node", "item", "wait", "queries"]),
        ("unfulfilled", &["t", "node", "item", "wait"]),
        ("replication", &["t", "count"]),
        ("solver_step", &["solver", "iteration", "item", "value"]),
        ("solver_done", &["solver", "iterations", "evaluations", "wall_s"]),
        ("trial_done", &["seed", "wall_s"]),
        ("scenario", &["index", "passed", "failed", "skipped", "wall_s"]),
        ("experiment", &["spec", "cell", "rows", "wall_s"]),
        ("fault", &["t", "kind", "node", "aux"]),
    ];

    fn line(e: &Event) -> String {
        let mut out = String::new();
        e.write_jsonl(&mut out);
        out
    }

    /// The event a parsed line describes, read key by key.
    fn decode(v: &Json) -> Event {
        let get = |key: &str| v.get(key).unwrap_or_else(|| panic!("no `{key}` in {v}"));
        let float = |key: &str| get(key).as_f64().unwrap();
        // Past `i64::MAX` a `u64` is written as a float.
        let uint = |key: &str| {
            let x = get(key);
            x.as_u64().unwrap_or_else(|| {
                let x = x.as_f64().unwrap();
                assert!(x >= i64::MAX as f64, "`{key}` is not an integer");
                x as u64
            })
        };
        let int = |key: &str| u32::try_from(uint(key)).unwrap();
        let text = |key: &str| get(key).as_str().unwrap().to_string();
        let name = |key: &str| &*Box::leak(text(key).into_boxed_str());
        match get("ev").as_str().unwrap() {
            "contact" => Event::Contact {
                t: float("t"),
                a: int("a"),
                b: int("b"),
            },
            "request" => Event::Request {
                t: float("t"),
                node: int("node"),
                item: int("item"),
            },
            "immediate_hit" => Event::ImmediateHit {
                t: float("t"),
                node: int("node"),
                item: int("item"),
            },
            "fulfillment" => Event::Fulfillment {
                t: float("t"),
                node: int("node"),
                item: int("item"),
                wait: float("wait"),
                queries: int("queries"),
            },
            "unfulfilled" => Event::Unfulfilled {
                t: float("t"),
                node: int("node"),
                item: int("item"),
                wait: float("wait"),
            },
            "replication" => Event::Replication {
                t: float("t"),
                count: uint("count"),
            },
            "solver_step" => Event::SolverStep {
                solver: name("solver"),
                iteration: uint("iteration"),
                item: int("item"),
                value: float("value"),
            },
            "solver_done" => Event::SolverDone {
                solver: name("solver"),
                iterations: uint("iterations"),
                evaluations: uint("evaluations"),
                wall_s: float("wall_s"),
            },
            "trial_done" => Event::TrialDone {
                seed: uint("seed"),
                wall_s: float("wall_s"),
            },
            "scenario" => Event::ScenarioDone {
                index: uint("index"),
                passed: int("passed"),
                failed: int("failed"),
                skipped: int("skipped"),
                wall_s: float("wall_s"),
            },
            "experiment" => Event::ExperimentDone {
                spec: text("spec"),
                cell: text("cell"),
                rows: uint("rows"),
                wall_s: float("wall_s"),
            },
            "fault" => Event::Fault {
                t: float("t"),
                kind: name("kind"),
                node: int("node"),
                aux: int("aux"),
            },
            other => panic!("unknown kind `{other}`"),
        }
    }

    #[test]
    fn json_records_are_tagged_and_flat() {
        let e = Event::Fulfillment {
            t: 12.5,
            node: 3,
            item: 7,
            wait: 2.25,
            queries: 4,
        };
        let text = line(&e);
        assert!(text.starts_with("{\"ev\":\"fulfillment\""), "{text}");
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.get("wait").and_then(Json::as_f64), Some(2.25));
        assert_eq!(v.get("queries").and_then(Json::as_u64), Some(4));
    }

    /// Every variant's line parses to an object whose keys are its
    /// kind's schema, in order, and whose values are the event's fields.
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
            // Edge cases of the encoding: huge integers, tiny floats,
            // a negative zero, strings needing escapes.
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
        let mut seen = Vec::new();
        for e in &events {
            let text = line(e);
            let v = Json::parse(&text).unwrap_or_else(|err| panic!("{text}: {err}"));
            let keys: Vec<&str> = v.as_object().unwrap().iter().map(|(k, _)| &**k).collect();
            let (kind, schema) = SCHEMA
                .iter()
                .find(|(kind, _)| *kind == e.kind())
                .unwrap_or_else(|| panic!("no schema for `{}`", e.kind()));
            assert_eq!(keys[0], "ev", "{text}");
            assert_eq!(&keys[1..], *schema, "{text}");
            // Debug text, so that a float's sign counts too.
            assert_eq!(format!("{:?}", decode(&v)), format!("{e:?}"), "{text}");
            seen.push(*kind);
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), SCHEMA.len(), "a kind without a case");
    }
}
