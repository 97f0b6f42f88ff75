//! A single pairwise contact.

use impatience_json::Json;

/// One contact (meeting) between two nodes.
///
/// Contacts are point events: the paper's model assumes meetings are long
/// enough to complete the protocol exchange (§6.1), so durations are not
/// tracked.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContactEvent {
    /// Event time (minutes by convention).
    pub time: f64,
    /// First node (always `< b` after normalization).
    pub a: u32,
    /// Second node.
    pub b: u32,
}

impl ContactEvent {
    /// Create a contact, normalizing the pair so `a < b`.
    ///
    /// # Panics
    /// Panics on self-contacts or non-finite/negative times.
    pub fn new(time: f64, a: u32, b: u32) -> Self {
        assert!(a != b, "self-contact ({a}, {a}) is meaningless");
        assert!(
            time >= 0.0 && time.is_finite(),
            "contact time must be finite and ≥ 0"
        );
        if a < b {
            ContactEvent { time, a, b }
        } else {
            ContactEvent { time, a: b, b: a }
        }
    }

    /// JSON form: `{"time": t, "a": a, "b": b}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("time", Json::from(self.time)),
            ("a", Json::from(self.a)),
            ("b", Json::from(self.b)),
        ])
    }

    /// Rebuild from [`ContactEvent::to_json`] output, validating the
    /// same invariants `new` asserts.
    pub fn from_json(v: &Json) -> Result<ContactEvent, String> {
        let time = v
            .get("time")
            .and_then(Json::as_f64)
            .ok_or("contact event missing numeric `time`")?;
        let a = node_field(v, "a")?;
        let b = node_field(v, "b")?;
        if a == b {
            return Err(format!("self-contact ({a}, {b})"));
        }
        if !(time.is_finite() && time >= 0.0) {
            return Err(format!("invalid contact time {time}"));
        }
        Ok(ContactEvent::new(time, a, b))
    }
}

fn node_field(v: &Json, key: &str) -> Result<u32, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("contact event missing node id `{key}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_pair_order() {
        let e = ContactEvent::new(5.0, 9, 2);
        assert_eq!((e.a, e.b), (2, 9));
        assert_eq!(e.time, 5.0);
    }

    #[test]
    #[should_panic(expected = "self-contact")]
    fn rejects_self_contact() {
        let _ = ContactEvent::new(1.0, 4, 4);
    }

    #[test]
    #[should_panic(expected = "finite and ≥ 0")]
    fn rejects_negative_time() {
        let _ = ContactEvent::new(-1.0, 1, 2);
    }

    #[test]
    fn json_roundtrip() {
        let e = ContactEvent::new(2.5, 1, 8);
        let text = e.to_json().to_string();
        let back = ContactEvent::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn json_rejects_malformed_events() {
        for bad in [
            r#"{"time":1.0,"a":2}"#,
            r#"{"time":1.0,"a":2,"b":2}"#,
            r#"{"time":-1.0,"a":0,"b":1}"#,
            r#"{"time":"x","a":0,"b":1}"#,
        ] {
            let v = Json::parse(bad).unwrap();
            assert!(ContactEvent::from_json(&v).is_err(), "{bad}");
        }
    }
}
