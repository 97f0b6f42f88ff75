//! The contact-trace container.

use impatience_json::Json;

use crate::ContactEvent;

/// A time-ordered sequence of pairwise contacts over `nodes` nodes,
/// covering the observation window `[0, duration]`.
#[derive(Clone, Debug, PartialEq)]
pub struct ContactTrace {
    nodes: usize,
    duration: f64,
    events: Vec<ContactEvent>,
}

impl ContactTrace {
    /// Build a trace from events (sorted by time internally).
    ///
    /// # Panics
    /// Panics if any event references a node `≥ nodes`, exceeds
    /// `duration`, or if `duration` is not positive.
    pub fn new(nodes: usize, duration: f64, mut events: Vec<ContactEvent>) -> Self {
        assert!(
            duration > 0.0 && duration.is_finite(),
            "duration must be positive"
        );
        for e in &events {
            assert!(
                (e.b as usize) < nodes,
                "event references node {} but the trace has {nodes} nodes",
                e.b
            );
            assert!(
                e.time <= duration,
                "event at t={} exceeds trace duration {duration}",
                e.time
            );
        }
        events.sort_by(|x, y| x.time.total_cmp(&y.time));
        ContactTrace {
            nodes,
            duration,
            events,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Observation-window length.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// All events, in time order.
    pub fn events(&self) -> &[ContactEvent] {
        &self.events
    }

    /// Number of contacts.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no contacts.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of contacts each node participates in.
    pub fn contact_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes];
        for e in &self.events {
            counts[e.a as usize] += 1;
            counts[e.b as usize] += 1;
        }
        counts
    }

    /// Restrict the trace to the `k` best-covered nodes (most contacts,
    /// ties by lower id) and renumber them `0..k` preserving id order —
    /// the paper's §6.3 preprocessing ("we selected the contacts for the
    /// 50 participants with the longest measurement periods").
    ///
    /// # Panics
    /// Panics if `k` exceeds the node count or is zero.
    pub fn select_most_active(&self, k: usize) -> ContactTrace {
        assert!(k > 0 && k <= self.nodes, "k must be in 1..=nodes");
        let counts = self.contact_counts();
        let mut order: Vec<usize> = (0..self.nodes).collect();
        order.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
        let mut keep: Vec<usize> = order.into_iter().take(k).collect();
        keep.sort_unstable();
        let mut remap = vec![u32::MAX; self.nodes];
        for (new_id, &old_id) in keep.iter().enumerate() {
            remap[old_id] = new_id as u32;
        }
        let events: Vec<ContactEvent> = self
            .events
            .iter()
            .filter(|e| remap[e.a as usize] != u32::MAX && remap[e.b as usize] != u32::MAX)
            .map(|e| ContactEvent::new(e.time, remap[e.a as usize], remap[e.b as usize]))
            .collect();
        ContactTrace::new(k, self.duration, events)
    }

    /// Contacts per unit time, binned into intervals of width `bin` —
    /// the activity series plotted over the Infocom trace (Fig. 5a shows
    /// its day/night alternation).
    pub fn activity_series(&self, bin: f64) -> Vec<f64> {
        assert!(bin > 0.0);
        let bins = (self.duration / bin).ceil() as usize;
        let mut series = vec![0.0; bins.max(1)];
        for e in &self.events {
            let idx = ((e.time / bin) as usize).min(series.len() - 1);
            series[idx] += 1.0;
        }
        for v in &mut series {
            *v /= bin;
        }
        series
    }

    /// JSON form: `{"nodes": n, "duration": d, "events": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nodes", Json::from(self.nodes)),
            ("duration", Json::from(self.duration)),
            (
                "events",
                Json::Array(self.events.iter().map(ContactEvent::to_json).collect()),
            ),
        ])
    }

    /// Rebuild from [`ContactTrace::to_json`] output, validating the
    /// same invariants `new` asserts (instead of panicking).
    pub fn from_json(v: &Json) -> Result<ContactTrace, String> {
        let nodes = v
            .get("nodes")
            .and_then(Json::as_u64)
            .ok_or("trace missing integer `nodes`")? as usize;
        let duration = v
            .get("duration")
            .and_then(Json::as_f64)
            .ok_or("trace missing numeric `duration`")?;
        if !(duration > 0.0 && duration.is_finite()) {
            return Err(format!("invalid trace duration {duration}"));
        }
        let raw = v
            .get("events")
            .and_then(Json::as_array)
            .ok_or("trace missing `events` array")?;
        let mut events = Vec::with_capacity(raw.len());
        for item in raw {
            let e = ContactEvent::from_json(item)?;
            if e.b as usize >= nodes {
                return Err(format!(
                    "event references node {} but the trace has {nodes} nodes",
                    e.b
                ));
            }
            if e.time > duration {
                return Err(format!(
                    "event at t={} exceeds trace duration {duration}",
                    e.time
                ));
            }
            events.push(e);
        }
        Ok(ContactTrace::new(nodes, duration, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ContactTrace {
        ContactTrace::new(
            4,
            100.0,
            vec![
                ContactEvent::new(50.0, 0, 1),
                ContactEvent::new(10.0, 2, 3),
                ContactEvent::new(30.0, 0, 2),
                ContactEvent::new(70.0, 0, 1),
            ],
        )
    }

    #[test]
    fn sorts_events() {
        let t = sample();
        let times: Vec<f64> = t.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![10.0, 30.0, 50.0, 70.0]);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn contact_counts_per_node() {
        let t = sample();
        assert_eq!(t.contact_counts(), vec![3, 2, 2, 1]);
    }

    #[test]
    fn select_most_active_renumbers() {
        let t = sample();
        let s = t.select_most_active(2);
        // Keep nodes 0 and 1 (3 and 2 contacts) → renumbered 0, 1.
        assert_eq!(s.nodes(), 2);
        assert_eq!(s.len(), 2); // the two (0,1) contacts survive
        for e in s.events() {
            assert!(e.b < 2);
        }
    }

    #[test]
    fn select_all_is_identity_modulo_order() {
        let t = sample();
        let s = t.select_most_active(4);
        assert_eq!(s.len(), t.len());
        assert_eq!(s.nodes(), 4);
    }

    #[test]
    fn activity_series_counts_rates() {
        let t = sample();
        let series = t.activity_series(50.0);
        assert_eq!(series.len(), 2);
        // Bin [0,50): events at 10, 30 → 2 contacts / 50 min.
        assert!((series[0] - 0.04).abs() < 1e-12);
        // Bin [50,100): events at 50, 70.
        assert!((series[1] - 0.04).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = ContactTrace::new(3, 10.0, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.contact_counts(), vec![0, 0, 0]);
        assert_eq!(t.activity_series(5.0), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds trace duration")]
    fn rejects_event_beyond_duration() {
        let _ = ContactTrace::new(2, 5.0, vec![ContactEvent::new(6.0, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "references node")]
    fn rejects_out_of_range_node() {
        let _ = ContactTrace::new(2, 5.0, vec![ContactEvent::new(1.0, 0, 5)]);
    }

    #[test]
    fn json_roundtrip() {
        let t = sample();
        let text = t.to_json().to_string();
        let back = ContactTrace::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn json_rejects_inconsistent_traces() {
        let bad = r#"{"nodes":2,"duration":5.0,"events":[{"time":1.0,"a":0,"b":4}]}"#;
        let err = ContactTrace::from_json(&Json::parse(bad).unwrap()).unwrap_err();
        assert!(err.contains("references node"), "{err}");
        let bad = r#"{"nodes":2,"duration":5.0,"events":[{"time":9.0,"a":0,"b":1}]}"#;
        let err = ContactTrace::from_json(&Json::parse(bad).unwrap()).unwrap_err();
        assert!(err.contains("exceeds trace duration"), "{err}");
    }
}
