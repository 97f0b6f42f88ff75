//! Monotonic counters and high-water marks.
//!
//! Both are one sorted name table, [`NameTable`], that differs only in how a
//! value folds in: [`Counters`] add, [`Peaks`] keep the maximum. Entries
//! stay sorted by name, so two tables that have seen the same data
//! compare equal regardless of insertion order, and `merge` is
//! associative and commutative — the property the parallel runner relies
//! on when it combines per-worker recorders (verified by a proptest in
//! `tests/observability.rs`).

use impatience_json::Json;

/// A set of named `u64`s, sorted by name. `PEAK` picks the fold: a sum
/// ([`Counters`]) or a maximum ([`Peaks`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NameTable<const PEAK: bool> {
    entries: Vec<(&'static str, u64)>,
}

/// A set of named monotonic `u64` counters.
pub type Counters = NameTable<false>;

/// A set of named high-water marks (e.g. peak queue depth).
pub type Peaks = NameTable<true>;

impl<const PEAK: bool> NameTable<PEAK> {
    /// An empty set.
    pub fn new() -> Self {
        NameTable::default()
    }

    /// Fold `value` into `name` (which starts at zero).
    #[inline]
    fn fold(&mut self, name: &'static str, value: u64) {
        match self.entries.binary_search_by_key(&name, |(k, _)| k) {
            Ok(i) => {
                let old = self.entries[i].1;
                self.entries[i].1 = if PEAK { old.max(value) } else { old + value };
            }
            Err(i) => self.entries.insert(i, (name, value)),
        }
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .binary_search_by_key(&name, |(k, _)| k)
            .map(|i| self.entries[i].1)
            .unwrap_or(0)
    }

    /// Fold another set into this one, name by name.
    pub fn merge(&mut self, other: &Self) {
        for &(name, v) in &other.entries {
            self.fold(name, v);
        }
    }

    /// All `(name, value)` pairs, sorted by name.
    pub fn entries(&self) -> &[(&'static str, u64)] {
        &self.entries
    }

    /// Whether nothing has been folded in.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encode as a JSON object, names sorted.
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.entries
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::from(v)))
                .collect(),
        )
    }
}

impl Counters {
    /// Add `n` to `name`.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.fold(name, n);
    }

    /// Increment `name` by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }
}

impl Peaks {
    /// Raise `name` to `value` if larger.
    #[inline]
    pub fn update(&mut self, name: &'static str, value: u64) {
        self.fold(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let mut c = Counters::new();
        c.incr("b");
        c.add("a", 5);
        c.incr("b");
        assert_eq!(c.get("a"), 5);
        assert_eq!(c.get("b"), 2);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.entries(), &[("a", 5), ("b", 2)]);
    }

    #[test]
    fn counter_merge_is_order_independent() {
        let mut left = Counters::new();
        left.add("x", 1);
        left.add("y", 2);
        let mut right = Counters::new();
        right.add("y", 3);
        right.add("z", 4);

        let mut ab = left.clone();
        ab.merge(&right);
        let mut ba = right.clone();
        ba.merge(&left);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("y"), 5);
    }

    #[test]
    fn peaks_keep_maxima() {
        let mut p = Peaks::new();
        p.update("depth", 3);
        p.update("depth", 1);
        assert_eq!(p.get("depth"), 3);
        let mut q = Peaks::new();
        q.update("depth", 7);
        p.merge(&q);
        assert_eq!(p.get("depth"), 7);
    }

    #[test]
    fn json_encoding_is_sorted_object() {
        let mut c = Counters::new();
        c.add("z", 1);
        c.add("a", 2);
        assert_eq!(c.to_json().to_string(), "{\"a\":2,\"z\":1}");
    }
}
