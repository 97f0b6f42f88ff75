//! `OUT.json`: its schema check against `BENCHMARK.json`, and `compare`.

use impatience_json::Json;

use crate::catalog::{Better, COUNT, END_TO_END, PER_LAYER, WORKLOADS};
use crate::host::SAME_HOST;

/// Schema tag of `OUT.json`.
pub const SCHEMA: &str = "impatience-benchmark/1";

fn names_of(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// Everything in which `BENCHMARK.json` (and, if given, an `OUT.json`)
/// disagrees with the catalog this program was built from. Empty = valid.
pub fn schema_problems(benchmark: &Json, out: Option<&Json>) -> Vec<String> {
    let mut problems = Vec::new();
    let mut expect = |what: &str, found: Vec<String>, want: Vec<&str>| {
        if found != want {
            problems.push(format!(
                "BENCHMARK.json {what}: found {found:?}, the program has {want:?}"
            ));
        }
    };
    expect(
        "workloads",
        names_of(benchmark, "workloads"),
        WORKLOADS.iter().map(|w| w.name).collect(),
    );
    expect(
        "end_to_end",
        names_of(benchmark, "end_to_end"),
        END_TO_END.iter().map(|m| m.name).collect(),
    );
    expect(
        "per_layer",
        names_of(benchmark, "per_layer"),
        PER_LAYER.iter().map(|m| m.name).collect(),
    );

    // Units, directions and bounds, metric by metric.
    let listed = |key: &str| {
        benchmark
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
    };
    let text = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    for (m, want) in listed("end_to_end").zip(END_TO_END) {
        let bound = m.get("bound").and_then(Json::as_f64);
        if text(m, "unit") != want.unit
            || text(m, "better") != want.better.as_str()
            || bound != Some(want.bound)
        {
            problems.push(format!("BENCHMARK.json end_to_end `{}` differs", want.name));
        }
    }
    for (m, want) in listed("per_layer").zip(PER_LAYER) {
        if text(m, "unit") != want.unit || text(m, "better") != want.better.as_str() {
            problems.push(format!("BENCHMARK.json per_layer `{}` differs", want.name));
        }
    }
    for (w, want) in listed("workloads").zip(WORKLOADS) {
        if text(w, "why") != want.why {
            problems.push(format!(
                "BENCHMARK.json workload `{}`: why differs",
                want.name
            ));
        }
    }

    let Some(out) = out else { return problems };
    if out.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        problems.push(format!("OUT.json schema is not {SCHEMA}"));
    }
    for w in WORKLOADS {
        let Some(entry) = out.get("workloads").and_then(|ws| ws.get(w.name)) else {
            problems.push(format!("OUT.json lacks workload {}", w.name));
            continue;
        };
        for m in END_TO_END {
            if metric_value(entry, "end_to_end", m.name).is_none() {
                problems.push(format!("OUT.json {}: no {}", w.name, m.name));
            }
        }
        let layers = entry
            .get("per_layer")
            .and_then(Json::as_object)
            .unwrap_or_default();
        if layers.is_empty() {
            problems.push(format!("OUT.json {}: no per-layer metrics", w.name));
        }
        for (name, _) in layers {
            if !PER_LAYER.iter().any(|m| m.name == name) {
                problems.push(format!("OUT.json {}: unknown layer metric {name}", w.name));
            }
        }
    }
    problems
}

fn metric_value(entry: &Json, group: &str, name: &str) -> Option<f64> {
    entry.get(group)?.get(name)?.get("value")?.as_f64()
}

/// Why two ledgers cannot be compared, if so: another host or toolchain,
/// another size (smoke against full) or another run length.
fn incomparable(base: &Json, new: &Json) -> Option<String> {
    let host = |doc: &Json, key: &str| doc.get("host").and_then(|h| h.get(key)).cloned();
    let differing = SAME_HOST
        .iter()
        .map(|&key| (key, host(base, key), host(new, key)))
        .chain(["size", "seconds"].map(|key| (key, base.get(key).cloned(), new.get(key).cloned())))
        .find(|(_, a, b)| a.is_none() || a != b);
    let show = |value: Option<Json>| {
        let mut text = String::new();
        value.unwrap_or(Json::Null).write(&mut text);
        text
    };
    differing
        .map(|(key, a, b)| format!("ledgers differ in `{key}`: {} against {}", show(a), show(b)))
}

/// Apply the bounds to every (end-to-end metric, workload) pair of two
/// ledgers and print one row each, with throughput and latency beside them;
/// list the exact-count layer metrics as equal or different. Returns how
/// many pairs breach their bound, or why the ledgers cannot be compared.
pub fn compare(base: &Json, new: &Json) -> Result<usize, String> {
    if let Some(why) = incomparable(base, new) {
        return Err(why);
    }
    let rev = |doc: &Json| {
        let rev = doc.get("host").and_then(|h| h.get("git_rev"));
        rev.and_then(Json::as_str).unwrap_or("unknown").to_string()
    };
    println!("git_rev: base {}, new {}", rev(base), rev(new));
    println!(
        "{:<17} {:<15} {:>14} {:>14} {:>7} {:>12}  verdict",
        "workload", "metric", "base", "new", "ratio", "allowed"
    );
    let mut breaches = 0;
    for w in WORKLOADS {
        let entries = (
            base.get("workloads").and_then(|ws| ws.get(w.name)),
            new.get("workloads").and_then(|ws| ws.get(w.name)),
        );
        let (Some(b), Some(n)) = entries else {
            println!("{:<17} missing from one ledger: BREACH", w.name);
            breaches += 1;
            continue;
        };
        for m in END_TO_END {
            let values = (
                metric_value(b, "end_to_end", m.name),
                metric_value(n, "end_to_end", m.name),
            );
            let (Some(old), Some(now)) = values else {
                println!(
                    "{:<17} {:<15} missing from one ledger: BREACH",
                    w.name, m.name
                );
                breaches += 1;
                continue;
            };
            let worse_by = match m.better {
                Better::Lower => now - old,
                Better::Higher => old - now,
            };
            // The larger of the relative bound and the absolute floor.
            let allowed = (m.bound * old.abs()).max(m.floor);
            let breach = worse_by > allowed;
            breaches += usize::from(breach);
            println!(
                "{:<17} {:<15} {:>14.6} {:>14.6} {:>7.3} {:>9.4} {:<3} {}",
                w.name,
                m.name,
                old,
                now,
                now / old,
                allowed,
                m.unit,
                if breach { "BREACH" } else { "ok" }
            );
        }
        // What a user waits for, for the reader: one run against one run
        // decides nothing about these on a shared host.
        for name in ["ops_per_s", "latency_p50_ms"] {
            let values = (
                metric_value(b, "per_layer", name),
                metric_value(n, "per_layer", name),
            );
            if let (Some(old), Some(now)) = values {
                println!(
                    "{:<17} {:<15} {:>14.6} {:>14.6} {:>7.3} {:>13}  no bound",
                    w.name,
                    name,
                    old,
                    now,
                    now / old,
                    "-"
                );
            }
        }
    }

    println!("\nexact-count layer metrics:");
    for w in WORKLOADS {
        for m in PER_LAYER.iter().filter(|m| m.unit == COUNT) {
            let value =
                |doc: &Json| metric_value(doc.get("workloads")?.get(w.name)?, "per_layer", m.name);
            match (value(base), value(new)) {
                (None, None) => {}
                (old, now) if old == now => {
                    println!("{:<17} {:<32} equal", w.name, m.name);
                }
                (old, now) => println!(
                    "{:<17} {:<32} DIFFERENT ({old:?} vs {now:?})",
                    w.name, m.name
                ),
            }
        }
    }
    println!("\n{breaches} breach(es)");
    Ok(breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(setup_s: f64, rss_mib: f64, ok_share: f64, contacts: u64) -> Json {
        let metric =
            |v: f64, unit: &str| Json::obj([("value", Json::from(v)), ("unit", Json::from(unit))]);
        let entry = Json::obj([
            (
                "end_to_end",
                Json::obj([
                    ("setup_s", metric(setup_s, "s")),
                    ("peak_rss_mib", metric(rss_mib, "MiB")),
                    ("ok_share", metric(ok_share, "ratio")),
                ]),
            ),
            (
                "per_layer",
                Json::obj([("sim.sharded.contacts", metric(contacts as f64, "count"))]),
            ),
        ]);
        let host = Json::obj([
            ("nproc", Json::from(2usize)),
            ("cpu_model", Json::from("a cpu")),
            ("rustc", Json::from("rustc 1")),
            ("git_rev", Json::from(format!("rev-{contacts}"))),
        ]);
        Json::obj([
            ("schema", Json::from(SCHEMA)),
            ("host", host),
            ("size", Json::from("full")),
            ("seconds", Json::from(10.0)),
            (
                "workloads",
                Json::Object(
                    WORKLOADS
                        .iter()
                        .map(|w| (w.name.to_string(), entry.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn bounds_and_floors() {
        let base = ledger(0.1, 100.0, 1.0, 7);
        // +0.15 s of set-up is +150% but inside the 0.2 s floor; +9 MiB is
        // inside 10%; another commit and other counts are no breach.
        assert_eq!(compare(&base, &ledger(0.25, 109.0, 1.0, 8)), Ok(0));
        // +0.3 s of set-up is over both allowances, on every workload.
        assert_eq!(
            compare(&base, &ledger(0.4, 100.0, 1.0, 7)),
            Ok(WORKLOADS.len())
        );
        // +11 MiB is over both 10% and the 8 MiB floor.
        assert_eq!(
            compare(&base, &ledger(0.1, 111.0, 1.0, 7)),
            Ok(WORKLOADS.len())
        );
        // One failed op in ten million is an increase.
        assert_eq!(
            compare(&base, &ledger(0.1, 100.0, 1.0 - 1e-7, 7)),
            Ok(WORKLOADS.len())
        );
        // Improvements never breach.
        assert_eq!(compare(&base, &ledger(0.01, 50.0, 1.0, 7)), Ok(0));
    }

    #[test]
    fn ledgers_of_another_size_are_refused() {
        let base = ledger(0.1, 100.0, 1.0, 7);
        let mut smoke = base.clone();
        if let Json::Object(fields) = &mut smoke {
            for (key, value) in fields.iter_mut() {
                if key == "size" {
                    *value = Json::from("smoke");
                }
            }
        }
        assert!(compare(&base, &smoke).unwrap_err().contains("`size`"));
    }
}
