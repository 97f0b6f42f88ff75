//! The error envelope: one JSON shape for every non-2xx response.
//!
//! Each [`ApiError`] kind maps to both an HTTP status and the CLI exit
//! code the same failure would produce under `impatience <cmd>` — the
//! taxonomy table lives in `API.md` and is round-tripped by
//! `tests/serve_api.rs`.

use impatience_json::Json;

/// A typed service error: everything a handler can fail with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiError {
    /// Malformed request: bad JSON, missing field, unknown route
    /// parameter. HTTP 400 · exit 2 (usage).
    BadRequest(String),
    /// Syntactically fine but semantically invalid model configuration
    /// (bad rates, impossible population). HTTP 422 · exit 3 (config).
    Config(String),
    /// The solver rejected the instance. HTTP 422 · exit 4 (solver).
    Solver(String),
    /// No such job, artifact, or route. HTTP 404 · exit 2 (usage).
    NotFound(String),
    /// Wrong HTTP method for an existing route. HTTP 405 · exit 2.
    MethodNotAllowed(String),
    /// The campaign queue is full: load shed, retry later.
    /// HTTP 429 · exit 9 (degraded).
    QueueFull {
        /// Configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// Request larger than the configured body limit.
    /// HTTP 413 · exit 2 (usage).
    TooLarge {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// Checkpoint machinery failed while running or recovering a job.
    /// HTTP 500 · exit 6 (checkpoint).
    Checkpoint(String),
    /// The campaign itself failed (all trials panicked, …).
    /// HTTP 500 · exit 7 (campaign).
    Campaign(String),
    /// Filesystem or socket trouble. HTTP 500 · exit 8 (io).
    Io(String),
    /// The server is draining and not accepting work.
    /// HTTP 503 · exit 9 (degraded).
    ShuttingDown,
}

impl ApiError {
    /// API.md's taxonomy row: HTTP status, the exit code the equivalent
    /// CLI failure reports (2 usage, 3 config, 4 solver, 6 checkpoint,
    /// 7 campaign, 8 io, 9 degraded) and the envelope's kind tag.
    fn class(&self) -> (u16, i32, &'static str) {
        match self {
            ApiError::BadRequest(_) => (400, 2, "bad_request"),
            ApiError::Config(_) => (422, 3, "config"),
            ApiError::Solver(_) => (422, 4, "solver"),
            ApiError::NotFound(_) => (404, 2, "not_found"),
            ApiError::MethodNotAllowed(_) => (405, 2, "method_not_allowed"),
            ApiError::QueueFull { .. } => (429, 9, "queue_full"),
            ApiError::TooLarge { .. } => (413, 2, "too_large"),
            ApiError::Checkpoint(_) => (500, 6, "checkpoint"),
            ApiError::Campaign(_) => (500, 7, "campaign"),
            ApiError::Io(_) => (500, 8, "io"),
            ApiError::ShuttingDown => (503, 9, "shutting_down"),
        }
    }

    /// The HTTP status code this error renders as.
    pub fn http_status(&self) -> u16 {
        self.class().0
    }

    /// The exit code the equivalent CLI failure reports.
    pub fn exit_code(&self) -> i32 {
        self.class().1
    }

    /// Stable machine-readable kind tag used in the envelope.
    pub fn kind(&self) -> &'static str {
        self.class().2
    }

    /// Human-readable message for the envelope.
    pub fn message(&self) -> String {
        match self {
            ApiError::BadRequest(m)
            | ApiError::Config(m)
            | ApiError::Solver(m)
            | ApiError::NotFound(m)
            | ApiError::MethodNotAllowed(m)
            | ApiError::Checkpoint(m)
            | ApiError::Campaign(m)
            | ApiError::Io(m) => m.clone(),
            ApiError::QueueFull { capacity } => {
                format!("campaign queue is full ({capacity} jobs); retry later")
            }
            ApiError::TooLarge { limit } => {
                format!("request body exceeds the {limit}-byte limit")
            }
            ApiError::ShuttingDown => "server is shutting down".to_string(),
        }
    }

    /// The JSON error envelope:
    /// `{"error":{"kind","message","status","exit_code"}}`.
    pub fn envelope(&self) -> Json {
        Json::obj([(
            "error",
            Json::obj([
                ("kind", Json::from(self.kind())),
                ("message", Json::from(self.message())),
                ("status", Json::from(u64::from(self.http_status()))),
                ("exit_code", Json::from(i64::from(self.exit_code()))),
            ]),
        )])
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.message())
    }
}

impl std::error::Error for ApiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_and_exit_code_mapping() {
        let table: Vec<(ApiError, u16, i32)> = vec![
            (ApiError::BadRequest("x".into()), 400, 2),
            (ApiError::Config("x".into()), 422, 3),
            (ApiError::Solver("x".into()), 422, 4),
            (ApiError::NotFound("x".into()), 404, 2),
            (ApiError::MethodNotAllowed("x".into()), 405, 2),
            (ApiError::QueueFull { capacity: 4 }, 429, 9),
            (ApiError::TooLarge { limit: 8 }, 413, 2),
            (ApiError::Checkpoint("x".into()), 500, 6),
            (ApiError::Campaign("x".into()), 500, 7),
            (ApiError::Io("x".into()), 500, 8),
            (ApiError::ShuttingDown, 503, 9),
        ];
        for (err, status, exit) in table {
            assert_eq!(err.http_status(), status, "{err:?}");
            assert_eq!(err.exit_code(), exit, "{err:?}");
        }
    }

    #[test]
    fn envelope_is_parseable_and_complete() {
        let err = ApiError::QueueFull { capacity: 2 };
        let mut out = String::new();
        err.envelope().write(&mut out);
        let json = impatience_json::Json::parse(&out).unwrap();
        let e = json.get("error").unwrap();
        assert_eq!(e.get("kind").unwrap().as_str(), Some("queue_full"));
        assert_eq!(e.get("status").unwrap().as_u64(), Some(429));
        assert_eq!(e.get("exit_code").unwrap().as_i64(), Some(9));
        assert!(e.get("message").unwrap().as_str().unwrap().contains("2"));
    }
}
