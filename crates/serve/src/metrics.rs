//! The server's shared [`MetricsRegistry`] and the metric names it owns.
//!
//! One registry per [`Server`](crate::Server) instance, so parallel
//! tests don't cross-contaminate, rendered on demand by `GET /metrics`
//! in Prometheus text exposition format — the same format
//! `impatience trace lint-prom` and `obs::parse_prometheus` consume.

use std::sync::{Arc, Mutex};

use impatience_obs::{Histogram, MetricsRegistry};

use crate::lock;

/// Solve-latency histogram range (milliseconds). With 4096 buckets the
/// exported power-of-two edge grid is 1 ms, 2 ms, …, 4096 ms.
const LATENCY_RANGE_MS: f64 = 4096.0;
const LATENCY_BUCKETS: usize = 4096;

/// Shared handle on the server's metrics state.
#[derive(Clone)]
pub struct ServeMetrics {
    inner: Arc<Mutex<Inner>>,
}

struct Inner {
    registry: MetricsRegistry,
    solve_latency: Histogram,
}

impl ServeMetrics {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        ServeMetrics {
            inner: Arc::new(Mutex::new(Inner {
                registry: MetricsRegistry::new(),
                solve_latency: Histogram::new(LATENCY_RANGE_MS, LATENCY_BUCKETS),
            })),
        }
    }

    /// Count one handled HTTP request by route template and status.
    pub fn http_request(&self, route: &str, status: u16) {
        let status = status.to_string();
        lock(&self.inner).registry.counter_add(
            "impatience_http_requests_total",
            "HTTP requests handled, by route template and status code.",
            &[("route", route), ("status", &status)],
            1.0,
        );
    }

    /// Record one synchronous solve: wall latency plus pool reuse.
    pub fn solve(&self, latency_ms: f64, pool_hit: bool) {
        let mut inner = lock(&self.inner);
        inner.solve_latency.record(latency_ms);
        let outcome = if pool_hit { "hit" } else { "miss" };
        inner.registry.counter_add(
            "impatience_solver_pool_total",
            "Warm DeltaSolver pool checkouts, by hit/miss.",
            &[("outcome", outcome)],
            1.0,
        );
    }

    /// Track the campaign queue depth gauge.
    pub fn queue_depth(&self, depth: usize) {
        lock(&self.inner).registry.gauge_set(
            "impatience_campaign_queue_depth",
            "Campaign jobs currently queued (accepted, not yet running).",
            &[],
            depth as f64,
        );
    }

    /// Track what the jobs' event streams hold for replay.
    pub fn events_retained(&self, bytes: usize, lines: usize) {
        let mut inner = lock(&self.inner);
        inner.registry.gauge_set(
            "impatience_events_retained_bytes",
            "Memory held by the event streams of all listed jobs (line text plus index).",
            &[],
            bytes as f64,
        );
        inner.registry.gauge_set(
            "impatience_events_retained_lines",
            "Event lines held for replay by the streams of all listed jobs.",
            &[],
            lines as f64,
        );
    }

    /// Count one campaign reaching a terminal disposition
    /// (`done` / `failed` / `shed`).
    pub fn campaign(&self, disposition: &str) {
        lock(&self.inner).registry.counter_add(
            "impatience_campaigns_total",
            "Campaign jobs by terminal disposition.",
            &[("disposition", disposition)],
            1.0,
        );
    }

    /// Count one socket write to an SSE subscriber and the data frames
    /// it carried (none for the lone `end` frame).
    pub fn sse_write(&self, frames: u64) {
        let mut inner = lock(&self.inner);
        inner.registry.counter_add(
            "impatience_sse_events_streamed_total",
            "Server-sent event frames delivered to subscribers.",
            &[],
            frames as f64,
        );
        inner.registry.counter_add(
            "impatience_sse_writes_total",
            "Socket writes that carried those frames (one per stream chunk, plus the end frame).",
            &[],
            1.0,
        );
    }

    /// Render the Prometheus exposition, folding in the latency
    /// histogram snapshot.
    pub fn render(&self) -> String {
        let mut inner = lock(&self.inner);
        if inner.solve_latency.count() > 0 {
            let hist = inner.solve_latency.clone();
            inner.registry.histogram_observe(
                "impatience_solve_latency_ms",
                "POST /v1/solve wall latency (milliseconds).",
                &[],
                &hist,
            );
        }
        inner.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impatience_obs::parse_prometheus;

    #[test]
    fn exposition_parses_and_carries_all_families() {
        let m = ServeMetrics::new();
        m.http_request("/v1/solve", 200);
        m.http_request("/v1/campaigns", 429);
        m.solve(3.5, true);
        m.solve(7.0, false);
        m.queue_depth(2);
        m.campaign("done");
        m.sse_write(17);
        m.events_retained(4096, 64);
        let text = m.render();
        let samples = parse_prometheus(&text).unwrap();
        let has = |name: &str| samples.iter().any(|s| s.name.starts_with(name));
        assert!(has("impatience_http_requests_total"));
        assert!(has("impatience_solver_pool_total"));
        assert!(has("impatience_campaign_queue_depth"));
        assert!(has("impatience_campaigns_total"));
        assert!(has("impatience_sse_events_streamed_total"));
        assert!(has("impatience_sse_writes_total"));
        assert!(has("impatience_events_retained_bytes"));
        assert!(has("impatience_events_retained_lines"));
        assert!(has("impatience_solve_latency_ms"));
    }
}
