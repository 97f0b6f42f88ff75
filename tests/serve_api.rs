//! End-to-end contracts of the `impatience serve` HTTP API, exercised
//! over real sockets: solve answers match a from-scratch greedy solve,
//! campaigns drain in FIFO order, a full queue sheds with 429 while the
//! server stays healthy, SSE reconnects replay gaplessly from any
//! offset, a followed stream costs one socket write per chunk, a
//! subscriber that stops reading is dropped after the write timeout,
//! artifacts round-trip through their content address, a server
//! killed mid-campaign resumes after restart with a bit-identical
//! result artifact, a spec the campaign gate refuses never becomes a
//! job, and the bytes of job states, router refusals, field errors and
//! the request counter stay as pinned.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use impatience_core::demand::Popularity;
use impatience_core::solver::greedy::try_greedy_homogeneous;
use impatience_core::types::SystemModel;
use impatience_core::utility::parse_utility;
use impatience_json::Json;
use impatience_serve::{fnv1a_hash, ServeConfig, Server};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(dir: &Path, queue_cap: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: dir.to_path_buf(),
        queue_cap,
        http_threads: 4,
        solver_pool_per_key: 4,
    })
    .unwrap()
}

/// One `Connection: close` HTTP exchange; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    let status: u16 = reply
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let payload = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Json) {
    let (status, body) = request(addr, "GET", path, None);
    let json = Json::parse(body.trim()).unwrap_or(Json::Null);
    (status, json)
}

fn submit(addr: SocketAddr, spec: &str) -> (u16, Json) {
    let (status, body) = request(addr, "POST", "/v1/campaigns", Some(spec));
    let json = Json::parse(body.trim()).unwrap_or(Json::Null);
    (status, json)
}

/// Poll a job's status until it reaches `want` (or panic on timeout /
/// a terminal mismatch).
fn wait_for_state(addr: SocketAddr, job: &str, want: &str, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, json) = get_json(addr, &format!("/v1/campaigns/{job}"));
        assert_eq!(status, 200, "status poll for {job}");
        let state = json.get("state").and_then(Json::as_str).unwrap_or("?");
        if state == want {
            return json;
        }
        assert_ne!(state, "failed", "job {job} failed: {json}");
        assert!(
            Instant::now() < deadline,
            "job {job} stuck in `{state}` waiting for `{want}`"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sum over the samples of `name` on `/metrics` that carry every label
/// in `labels`; 0 when there is none yet.
fn metric(addr: SocketAddr, name: &str, labels: &[(&str, &str)]) -> f64 {
    let (status, text) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    impatience_obs::parse_prometheus(&text)
        .unwrap()
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| {
            labels
                .iter()
                .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
        .map(|s| s.value)
        .sum()
}

/// Read a job's SSE feed from `offset` in snapshot mode (`follow=0`):
/// returns the frames as (id, data) pairs plus the `end` frame payload.
fn sse_snapshot(addr: SocketAddr, job: &str, offset: usize) -> (Vec<(usize, String)>, Json) {
    sse_read(addr, job, &format!("offset={offset}&follow=0"))
}

/// Read a job's SSE feed, opened with `query`, up to its `end` frame.
fn sse_read(addr: SocketAddr, job: &str, query: &str) -> (Vec<(usize, String)>, Json) {
    sse_read_with(addr, job, query, "")
}

/// [`sse_read`] with extra request header lines (each ending in `\r\n`).
fn sse_read_with(
    addr: SocketAddr,
    job: &str,
    query: &str,
    headers: &str,
) -> (Vec<(usize, String)>, Json) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream);
    let head = format!(
        "GET /v1/campaigns/{job}/events?{query} HTTP/1.1\r\n\
         Host: e2e\r\nAccept: text/event-stream\r\n{headers}\r\n"
    );
    reader.get_mut().write_all(head.as_bytes()).unwrap();

    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("HTTP/1.1 200"), "sse got {line}");
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" || line == "\n" || line.is_empty() {
            break;
        }
    }

    let mut frames = Vec::new();
    let (mut id, mut event, mut data): (Option<usize>, Option<String>, String) =
        (None, None, String::new());
    loop {
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "sse stream for {job} ended without `event: end`");
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            if event.as_deref() == Some("end") {
                return (frames, Json::parse(&data).unwrap());
            }
            if !data.is_empty() {
                frames.push((id.expect("data frame without id"), data.clone()));
            }
            id = None;
            event = None;
            data.clear();
        } else if let Some(v) = trimmed.strip_prefix("id:") {
            id = v.trim().parse().ok();
        } else if let Some(v) = trimmed.strip_prefix("event:") {
            event = Some(v.trim().to_string());
        } else if let Some(v) = trimmed.strip_prefix("data:") {
            data.push_str(v.trim_start());
        }
    }
}

// ---------------------------------------------------------------- solve

#[test]
fn solve_over_http_matches_scratch_greedy() {
    let dir = temp_dir("solve");
    let server = start(&dir, 4);
    let addr = server.addr();

    let (status, body) = request(
        addr,
        "POST",
        "/v1/solve",
        Some(r#"{"nodes":40,"rho":3,"mu":0.05,"items":12,"utility":"step:5"}"#),
    );
    assert_eq!(status, 200, "{body}");
    let reply = Json::parse(body.trim()).unwrap();
    let counts: Vec<u64> = reply
        .get("counts")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|c| c.as_u64().unwrap())
        .collect();

    let demand = Popularity::pareto(12, 1.0).demand_rates(1.0);
    let fresh = try_greedy_homogeneous(
        &SystemModel::pure_p2p(40, 3, 0.05),
        &demand,
        parse_utility("step:5").unwrap().as_ref(),
    )
    .unwrap();
    let scratch: Vec<u64> = fresh.counts().iter().map(|&c| c as u64).collect();
    assert_eq!(counts, scratch, "HTTP solve diverged from scratch greedy");
    assert!(reply.get("welfare").unwrap().as_f64().unwrap() > 0.0);

    // Same shape again: warm pool, identical allocation.
    let (_, body2) = request(
        addr,
        "POST",
        "/v1/solve",
        Some(r#"{"nodes":40,"rho":3,"mu":0.05,"items":12,"utility":"step:5"}"#),
    );
    let reply2 = Json::parse(body2.trim()).unwrap();
    assert_eq!(reply2.get("pool").unwrap().as_str(), Some("hit"));
    assert_eq!(reply2.get("counts").unwrap(), reply.get("counts").unwrap());

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------- campaigns

const TINY_SPEC: &str =
    r#"{"nodes":14,"mu":0.05,"duration":200.0,"items":6,"rho":2,"trials":2,"seed":11}"#;

#[test]
fn campaigns_drain_in_fifo_order() {
    let dir = temp_dir("fifo");
    let server = start(&dir, 8);
    let addr = server.addr();

    let mut submitted = Vec::new();
    for seed in [1u64, 2, 3] {
        let spec = format!(
            r#"{{"nodes":14,"mu":0.05,"duration":200.0,"items":6,"rho":2,"trials":2,"seed":{seed}}}"#
        );
        let (status, reply) = submit(addr, &spec);
        assert_eq!(status, 202, "{reply}");
        submitted.push(reply.get("job").and_then(Json::as_str).unwrap().to_string());
    }
    for id in &submitted {
        wait_for_state(addr, id, "done", Duration::from_secs(120));
    }

    let (status, list) = get_json(addr, "/v1/campaigns");
    assert_eq!(status, 200);
    let completed: Vec<String> = list
        .get("completed_order")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|j| j.as_str().unwrap().to_string())
        .collect();
    assert_eq!(
        completed, submitted,
        "jobs must complete in submission (FIFO) order"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_sheds_with_429_and_stays_healthy() {
    let dir = temp_dir("shed");
    let server = start(&dir, 1);
    let addr = server.addr();

    let (mut accepted, mut shed) = (0, 0);
    for _ in 0..10 {
        let (status, reply) = submit(addr, TINY_SPEC);
        match status {
            202 => accepted += 1,
            429 => {
                shed += 1;
                // The 429 carries the machine-readable error envelope
                // with the CLI's `degraded` exit code.
                let err = reply.get("error").unwrap();
                assert_eq!(err.get("kind").unwrap().as_str(), Some("queue_full"));
                assert_eq!(err.get("exit_code").unwrap().as_i64(), Some(9));
            }
            other => panic!("burst submit got {other}: {reply}"),
        }
    }
    assert!(accepted >= 1, "at least one submission must land");
    assert!(shed >= 1, "queue_cap=1 must shed under a burst of 10");

    let (status, health) = get_json(addr, "/healthz");
    assert_eq!(status, 200, "server must stay healthy while shedding");
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// What the campaign gate refuses never becomes a job: a submission is a
/// 422 `config` with nothing persisted, and a spec persisted before the
/// gate applied at submit is listed as failed instead of stopping the
/// server from starting.
#[test]
fn campaign_gate_refuses_at_submit_and_lists_a_persisted_refusal_as_failed() {
    let dir = temp_dir("gate");
    let jobs = dir.join("jobs");
    std::fs::create_dir_all(&jobs).unwrap();
    std::fs::write(
        jobs.join("j0001.json"),
        r#"{"nodes":14,"mu":0.05,"duration":200.0,"items":6,"rho":2,"utility":"neglog","trials":2,"seed":1}"#,
    )
    .unwrap();
    let server = start(&dir, 4);
    let addr = server.addr();

    let (status, job) = get_json(addr, "/v1/campaigns/j0001");
    assert_eq!(status, 200);
    assert_eq!(job.get("state").and_then(Json::as_str), Some("failed"));
    let error = job.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("use a dedicated population"), "{error}");
    assert_eq!(
        job.get("spec").and_then(|s| s.get("utility")),
        Some(&Json::from("neglog"))
    );
    let (frames, end) = sse_snapshot(addr, "j0001", 0);
    assert!(frames.is_empty());
    assert_eq!(end.get("state").and_then(Json::as_str), Some("failed"));

    for utility in ["neglog", "power:1.5"] {
        let (status, reply) = submit(addr, &format!(r#"{{"utility":"{utility}"}}"#));
        assert_eq!(status, 422, "{reply}");
        let err = reply.get("error").unwrap();
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("config"));
        assert_eq!(err.get("exit_code").and_then(Json::as_i64), Some(3));
        let message = err.get("message").and_then(Json::as_str).unwrap();
        assert!(message.contains("use a dedicated population"), "{message}");
    }
    let persisted: Vec<String> = std::fs::read_dir(&jobs)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(persisted, ["j0001.json"]);
    let (_, health) = get_json(addr, "/healthz");
    assert_eq!(health.get("queued").and_then(Json::as_u64), Some(0));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------------ SSE

#[test]
fn sse_replay_from_offset_is_gapless_after_reconnect() {
    let dir = temp_dir("sse");
    let server = start(&dir, 4);
    let addr = server.addr();

    let (status, reply) = submit(addr, TINY_SPEC);
    assert_eq!(status, 202, "{reply}");
    let job = reply.get("job").and_then(Json::as_str).unwrap().to_string();
    wait_for_state(addr, &job, "done", Duration::from_secs(120));

    // First connection: the full feed from offset 0.
    let (full, end) = sse_snapshot(addr, &job, 0);
    assert!(
        full.len() > 10,
        "expected a real event stream, got {} frames",
        full.len()
    );
    for (expect, (id, _)) in full.iter().enumerate() {
        assert_eq!(*id, expect, "frame ids must be contiguous from 0");
    }
    assert_eq!(
        end.get("events").and_then(Json::as_u64),
        Some(full.len() as u64),
        "terminal frame must account for every event"
    );

    // Simulate a dropped connection after frame k: reconnect with
    // `?offset=k+1` (what a client derives from `Last-Event-ID: k`).
    let k = full.len() / 2;
    let (tail, _) = sse_snapshot(addr, &job, k + 1);
    assert_eq!(tail.len(), full.len() - (k + 1));
    assert_eq!(
        tail,
        full[k + 1..],
        "replay after reconnect must be gapless and byte-identical"
    );
    let (resumed, _) = sse_read_with(addr, &job, "follow=0", &format!("Last-Event-ID: {k}\r\n"));
    assert_eq!(resumed, tail, "Last-Event-ID: k is ?offset=k+1");

    // An `offset` that is no number is refused, not read as 0 (a silent
    // replay of the whole stream); a `Last-Event-ID` that is none is
    // ignored, as the SSE specification asks.
    let (status, body) = get_json(addr, &format!("/v1/campaigns/{job}/events?offset=abc"));
    assert_eq!(status, 400, "{body}");
    let err = body.get("error").expect("error envelope");
    assert_eq!(err.get("kind").unwrap().as_str(), Some("bad_request"));
    let (ignored, _) = sse_read_with(addr, &job, "follow=0", "Last-Event-ID: abc\r\n");
    assert_eq!(ignored, full);

    // What the stream holds for replay is on /metrics: every line, at
    // its own bytes plus four of index.
    let text_bytes: usize = full.iter().map(|(_, line)| line.len()).sum();
    assert_eq!(
        metric(addr, "impatience_events_retained_lines", &[]),
        full.len() as f64
    );
    assert_eq!(
        metric(addr, "impatience_events_retained_bytes", &[]),
        (text_bytes + 4 * full.len()) as f64
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn followed_stream_costs_one_write_per_chunk_not_per_frame() {
    let dir = temp_dir("writes");
    let server = start(&dir, 4);
    let addr = server.addr();

    let (status, reply) = submit(
        addr,
        r#"{"nodes":20,"mu":0.05,"duration":400.0,"items":6,"rho":2,"trials":4,"seed":5}"#,
    );
    assert_eq!(status, 202, "{reply}");
    let job = reply.get("job").and_then(Json::as_str).unwrap().to_string();

    // Follow live from the start to the terminal frame.
    let (frames, end) = sse_read(addr, &job, "offset=0");
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));
    assert!(
        frames.len() >= 10_000,
        "want a long stream, got {} frames",
        frames.len()
    );
    for (expect, (id, _)) in frames.iter().enumerate() {
        assert_eq!(*id, expect, "frame ids must be contiguous from 0");
    }

    let streamed = metric(addr, "impatience_sse_events_streamed_total", &[]);
    let writes = metric(addr, "impatience_sse_writes_total", &[]);
    assert_eq!(streamed, frames.len() as f64);
    assert!(writes >= 1.0);
    assert!(
        writes * 100.0 <= streamed,
        "{writes} socket writes for {streamed} frames: the stream must go out chunk by chunk"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stalled_subscriber_is_dropped_after_the_write_timeout() {
    let dir = temp_dir("stall");
    let server = start(&dir, 4);
    let addr = server.addr();

    // Some 20 MB of frames: more than the socket buffers of a loopback
    // connection can absorb for a reader that never reads.
    let (status, reply) = submit(
        addr,
        r#"{"nodes":20,"mu":0.05,"duration":2000.0,"items":6,"rho":2,"trials":12,"seed":5}"#,
    );
    assert_eq!(status, 202, "{reply}");
    let job = reply.get("job").and_then(Json::as_str).unwrap().to_string();
    wait_for_state(addr, &job, "done", Duration::from_secs(300));
    let events_route = [("route", "/v1/campaigns/{id}/events")];
    let handled_before = metric(addr, "impatience_http_requests_total", &events_route);
    let streamed_before = metric(addr, "impatience_sse_events_streamed_total", &[]);

    // Subscribe, then never read.
    let mut stalled = TcpStream::connect(addr).unwrap();
    let head = format!("GET /v1/campaigns/{job}/events?offset=0 HTTP/1.1\r\nHost: e2e\r\n\r\n");
    stalled.write_all(head.as_bytes()).unwrap();

    // The frame counter moves while the stream is still being served...
    let deadline = Instant::now() + Duration::from_secs(5);
    while metric(addr, "impatience_sse_events_streamed_total", &[]) == streamed_before {
        assert!(
            Instant::now() < deadline,
            "no frames counted for a subscription in progress"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        metric(addr, "impatience_http_requests_total", &events_route),
        handled_before,
        "the handler cannot be done: nobody is reading"
    );

    // ...and the handler gives the connection up once a write has
    // stalled for the socket timeout (10 s), not never.
    let deadline = Instant::now() + Duration::from_secs(60);
    while metric(addr, "impatience_http_requests_total", &events_route) == handled_before {
        assert!(
            Instant::now() < deadline,
            "handler still parked on a subscriber that never reads"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
    // It gave up part-way: the rest of the stream is still there to
    // resume from.
    let streamed = metric(addr, "impatience_sse_events_streamed_total", &[]) - streamed_before;
    let (rest, _) = sse_snapshot(addr, &job, streamed as usize);
    assert!(
        !rest.is_empty(),
        "all {streamed} frames fit the socket buffers: the job is too small to stall"
    );
    assert_eq!(rest[0].0, streamed as usize);

    let (status, health) = get_json(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    drop(stalled);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------------------------- artifacts

#[test]
fn artifact_roundtrip_and_unknown_hash_404s() {
    let dir = temp_dir("artifact");
    let server = start(&dir, 4);
    let addr = server.addr();

    let (status, reply) = submit(addr, TINY_SPEC);
    assert_eq!(status, 202, "{reply}");
    let job = reply.get("job").and_then(Json::as_str).unwrap().to_string();
    let done = wait_for_state(addr, &job, "done", Duration::from_secs(120));

    let hash = done.get("artifact").and_then(Json::as_str).unwrap();
    let url = done.get("artifact_url").and_then(Json::as_str).unwrap();
    assert_eq!(url, format!("/v1/artifacts/{hash}"));
    let (status, bytes) = request(addr, "GET", url, None);
    assert_eq!(status, 200);
    assert_eq!(
        fnv1a_hash(bytes.as_bytes()),
        hash,
        "served artifact must match its content address"
    );
    let doc = Json::parse(bytes.trim()).unwrap();
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("impatience-serve-result/1")
    );

    let (status, body) = request(addr, "GET", "/v1/artifacts/fnv1a:0000000000000000", None);
    assert_eq!(status, 404, "{body}");

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// -------------------------------------------------------------- the wire

/// One exchange appended to `wire` as `METHOD path`, then `status body`.
fn exchange(wire: &mut String, addr: SocketAddr, method: &str, path: &str, body: Option<&str>) {
    let (status, reply) = request(addr, method, path, body);
    wire.push_str(&format!("{method} {path}\n{status} {reply}"));
}

/// The bytes the server writes for job states, router refusals, typed
/// body fields and its request counter, pinned over a data dir with one
/// job restored as done from its marker, one re-run onto a checkpoint
/// that no longer reads (it fails), and one submitted over HTTP (it runs
/// to done). The data dir's path reads `<data>`, `uptime_s` reads 0.
#[test]
fn wire_bytes_of_job_states_routes_fields_and_request_counts() {
    let dir = temp_dir("wire");
    let jobs = dir.join("jobs");
    std::fs::create_dir_all(&jobs).unwrap();
    let spec = |seed: u64| {
        format!(
            r#"{{"nodes":14,"mu":0.05,"duration":200.0,"items":6,"rho":2,"trials":2,"seed":{seed}}}"#
        )
    };
    let put = |name: &str, text: &str| std::fs::write(jobs.join(name), text).unwrap();
    put("j0001.json", &spec(1));
    put(
        "j0001.result.json",
        r#"{"job":"j0001","artifact":"fnv1a:00000000000000aa"}"#,
    );
    put("j0002.json", &spec(2));
    put("j0002.ckpt", "not a checkpoint\n");
    let server = start(&dir, 4);
    let addr = server.addr();

    let mut wire = String::new();
    exchange(&mut wire, addr, "POST", "/v1/campaigns", Some(TINY_SPEC));
    // One followed subscription waits for the job (the queue runs j0002
    // first), so the request counts do not depend on polling.
    let (_, end) = sse_read(addr, "j0003", "offset=0");
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));

    exchange(&mut wire, addr, "GET", "/v1/campaigns", None);
    for job in ["j0001", "j0002", "j0003"] {
        exchange(
            &mut wire,
            addr,
            "GET",
            &format!("/v1/campaigns/{job}"),
            None,
        );
        let path = format!("/v1/campaigns/{job}/events?follow=0");
        let (status, body) = request(addr, "GET", &path, None);
        let end = body.find("event: end").map_or(&body[..], |at| &body[at..]);
        wire.push_str(&format!("GET {path}\n{status} …{end}"));
    }
    let solve = |body: &str| format!(r#"{{"nodes":20,"rho":2,"mu":0.05,"items":6{body}}}"#);
    exchange(&mut wire, addr, "POST", "/v1/solve", Some(&solve("")));
    let (status, health) = request(addr, "GET", "/healthz", None);
    let uptime = health.find(r#""uptime_s":"#).unwrap();
    wire.push_str(&format!(
        "GET /healthz\n{status} {}\"uptime_s\":0}}\n",
        &health[..uptime]
    ));

    for (method, path) in [
        ("POST", "/healthz"),
        ("POST", "/metrics"),
        ("DELETE", "/v1/solve"),
        ("DELETE", "/v1/campaigns"),
        ("POST", "/v1/campaigns/j0001"),
        ("PUT", "/v1/campaigns/j0001/events"),
        ("POST", "/v1/artifacts/fnv1a:00000000000000aa"),
        ("GET", "/v1/nope"),
        ("POST", "/v1/nope"),
        ("GET", "/v1/campaigns/"),
        ("GET", "/v1/campaigns/a/b"),
        ("GET", "/v1/campaigns//events"),
        ("GET", "/v1/campaigns/nope"),
        ("GET", "/v1/artifacts/"),
        ("GET", "/v1/artifacts/a/b"),
        ("GET", "/v1/artifacts/fnv1a:00000000000000aa"),
        ("GET", "/v1/campaigns/j0003/events?offset=abc"),
    ] {
        exchange(&mut wire, addr, method, path, None);
    }

    for body in [
        "[1]".to_string(),
        r#"{"nodes":"20","rho":2,"mu":0.05,"items":6}"#.to_string(),
        r#"{"nodes":20,"rho":2,"mu":"x","items":6}"#.to_string(),
        solve(r#","utility":5"#),
        solve(r#","omega":"x""#),
        solve(r#","stale_eps":[]"#),
        solve(r#","servers":-1"#),
        r#"{"nodes":20,"rho":2,"mu":0.05,"demand":{}}"#.to_string(),
        r#"{"nodes":20,"rho":2,"mu":0.05,"demand":[1,"x"]}"#.to_string(),
        solve(r#","deltas":5"#),
        solve(r#","deltas":[{"item":-1,"rate":1}]"#),
        solve(r#","deltas":[{"item":0}]"#),
        solve(r#","deltas":[{"item":0,"rate":"x"}]"#),
        solve(r#","deltas":[{"mu":"x"}]"#),
        solve(r#","deltas":[{"rho":-1}]"#),
        solve(r#","deltas":[{"x":1}]"#),
    ] {
        exchange(&mut wire, addr, "POST", "/v1/solve", Some(&body));
    }
    for body in [
        "[1]",
        r#"{"nodes":-1}"#,
        r#"{"mu":"x"}"#,
        r#"{"utility":5}"#,
        r#"{"policy":null}"#,
        r#"{"trials":1.5}"#,
    ] {
        exchange(&mut wire, addr, "POST", "/v1/campaigns", Some(body));
    }

    let (_, text) = request(addr, "GET", "/metrics", None);
    for line in text.lines() {
        if line.contains("impatience_http_requests_total") {
            wire.push_str(line);
            wire.push('\n');
        }
    }
    server.shutdown();
    let wire = wire.replace(dir.to_str().unwrap(), "<data>");
    std::fs::remove_dir_all(&dir).ok();
    assert!(wire == WIRE, "the wire moved; it reads\n{wire}");
}

const WIRE: &str = r##"POST /v1/campaigns
202 {"job":"j0003","state":"queued","events":"/v1/campaigns/j0003/events","status_url":"/v1/campaigns/j0003"}
GET /v1/campaigns
200 {"jobs":[{"job":"j0001","state":"done","spec":{"nodes":14,"mu":0.05,"duration":200.0,"items":6,"rho":2,"omega":1.0,"utility":"step:10","policy":"qcr","trials":2,"seed":1,"checkpoint_every":4},"events":"/v1/campaigns/j0001/events","artifact":"fnv1a:00000000000000aa","artifact_url":"/v1/artifacts/fnv1a:00000000000000aa","resumed":0,"executed":0},{"job":"j0002","state":"failed","spec":{"nodes":14,"mu":0.05,"duration":200.0,"items":6,"rho":2,"omega":1.0,"utility":"step:10","policy":"qcr","trials":2,"seed":2,"checkpoint_every":4},"events":"/v1/campaigns/j0002/events","error":"checkpoint <data>/jobs/j0002.ckpt: not valid JSON: expected 'null' at offset 0","resumed":0,"executed":0},{"job":"j0003","state":"done","spec":{"nodes":14,"mu":0.05,"duration":200.0,"items":6,"rho":2,"omega":1.0,"utility":"step:10","policy":"qcr","trials":2,"seed":11,"checkpoint_every":4},"events":"/v1/campaigns/j0003/events","artifact":"fnv1a:24647c2c9d954b54","artifact_url":"/v1/artifacts/fnv1a:24647c2c9d954b54","resumed":0,"executed":2}],"completed_order":["j0002","j0003"]}
GET /v1/campaigns/j0001
200 {"job":"j0001","state":"done","spec":{"nodes":14,"mu":0.05,"duration":200.0,"items":6,"rho":2,"omega":1.0,"utility":"step:10","policy":"qcr","trials":2,"seed":1,"checkpoint_every":4},"events":"/v1/campaigns/j0001/events","artifact":"fnv1a:00000000000000aa","artifact_url":"/v1/artifacts/fnv1a:00000000000000aa","resumed":0,"executed":0}
GET /v1/campaigns/j0001/events?follow=0
200 …event: end
data: {"job":"j0001","state":"done","events":0}

GET /v1/campaigns/j0002
200 {"job":"j0002","state":"failed","spec":{"nodes":14,"mu":0.05,"duration":200.0,"items":6,"rho":2,"omega":1.0,"utility":"step:10","policy":"qcr","trials":2,"seed":2,"checkpoint_every":4},"events":"/v1/campaigns/j0002/events","error":"checkpoint <data>/jobs/j0002.ckpt: not valid JSON: expected 'null' at offset 0","resumed":0,"executed":0}
GET /v1/campaigns/j0002/events?follow=0
200 …event: end
data: {"job":"j0002","state":"failed","events":0}

GET /v1/campaigns/j0003
200 {"job":"j0003","state":"done","spec":{"nodes":14,"mu":0.05,"duration":200.0,"items":6,"rho":2,"omega":1.0,"utility":"step:10","policy":"qcr","trials":2,"seed":11,"checkpoint_every":4},"events":"/v1/campaigns/j0003/events","artifact":"fnv1a:24647c2c9d954b54","artifact_url":"/v1/artifacts/fnv1a:24647c2c9d954b54","resumed":0,"executed":2}
GET /v1/campaigns/j0003/events?follow=0
200 …event: end
data: {"job":"j0003","state":"done","events":2726}

POST /v1/solve
200 {"welfare":0.9802406467427265,"counts":[9,7,7,6,6,5],"total_replicas":40,"outcome":"resolved","moved":0,"pool":"miss"}
GET /healthz
200 {"status":"ok","queued":0,"running":false,"solver_pool_idle":1,"uptime_s":0}
POST /healthz
405 {"error":{"kind":"method_not_allowed","message":"POST /healthz","status":405,"exit_code":2}}
POST /metrics
405 {"error":{"kind":"method_not_allowed","message":"POST /metrics","status":405,"exit_code":2}}
DELETE /v1/solve
405 {"error":{"kind":"method_not_allowed","message":"DELETE /v1/solve","status":405,"exit_code":2}}
DELETE /v1/campaigns
405 {"error":{"kind":"method_not_allowed","message":"DELETE /v1/campaigns","status":405,"exit_code":2}}
POST /v1/campaigns/j0001
405 {"error":{"kind":"method_not_allowed","message":"POST /v1/campaigns/j0001","status":405,"exit_code":2}}
PUT /v1/campaigns/j0001/events
405 {"error":{"kind":"method_not_allowed","message":"PUT /v1/campaigns/j0001/events","status":405,"exit_code":2}}
POST /v1/artifacts/fnv1a:00000000000000aa
405 {"error":{"kind":"method_not_allowed","message":"POST /v1/artifacts/fnv1a:00000000000000aa","status":405,"exit_code":2}}
GET /v1/nope
404 {"error":{"kind":"not_found","message":"no route /v1/nope","status":404,"exit_code":2}}
POST /v1/nope
404 {"error":{"kind":"not_found","message":"no route /v1/nope","status":404,"exit_code":2}}
GET /v1/campaigns/
404 {"error":{"kind":"not_found","message":"no route /v1/campaigns/","status":404,"exit_code":2}}
GET /v1/campaigns/a/b
404 {"error":{"kind":"not_found","message":"no route /v1/campaigns/a/b","status":404,"exit_code":2}}
GET /v1/campaigns//events
404 {"error":{"kind":"not_found","message":"no route /v1/campaigns//events","status":404,"exit_code":2}}
GET /v1/campaigns/nope
404 {"error":{"kind":"not_found","message":"no job nope","status":404,"exit_code":2}}
GET /v1/artifacts/
400 {"error":{"kind":"bad_request","message":"malformed artifact hash ``","status":400,"exit_code":2}}
GET /v1/artifacts/a/b
400 {"error":{"kind":"bad_request","message":"malformed artifact hash `a/b`","status":400,"exit_code":2}}
GET /v1/artifacts/fnv1a:00000000000000aa
404 {"error":{"kind":"not_found","message":"no artifact fnv1a:00000000000000aa","status":404,"exit_code":2}}
GET /v1/campaigns/j0003/events?offset=abc
400 {"error":{"kind":"bad_request","message":"offset `abc` is not a line index","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"request body must be an object","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`nodes` must be a non-negative integer","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`mu` must be a number","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`utility` must be a string","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`omega` must be a number","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`stale_eps` must be a number","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`servers` must be a non-negative integer","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`demand` must be an array","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`demand[1]` must be a number","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`deltas` must be an array","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`deltas[0].item` must be an integer","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`deltas[0]` needs a `rate`","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`rate` must be a number","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`mu` must be a number","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`rho` must be a non-negative integer","status":400,"exit_code":2}}
POST /v1/solve
400 {"error":{"kind":"bad_request","message":"`deltas[0]` must be {item,rate}, {mu}, or {rho}","status":400,"exit_code":2}}
POST /v1/campaigns
400 {"error":{"kind":"bad_request","message":"request body must be an object","status":400,"exit_code":2}}
POST /v1/campaigns
400 {"error":{"kind":"bad_request","message":"`nodes` must be a non-negative integer","status":400,"exit_code":2}}
POST /v1/campaigns
400 {"error":{"kind":"bad_request","message":"`mu` must be a number","status":400,"exit_code":2}}
POST /v1/campaigns
400 {"error":{"kind":"bad_request","message":"`utility` must be a string","status":400,"exit_code":2}}
POST /v1/campaigns
400 {"error":{"kind":"bad_request","message":"`policy` must be a string","status":400,"exit_code":2}}
POST /v1/campaigns
400 {"error":{"kind":"bad_request","message":"`trials` must be a non-negative integer","status":400,"exit_code":2}}
# HELP impatience_http_requests_total HTTP requests handled, by route template and status code.
# TYPE impatience_http_requests_total counter
impatience_http_requests_total{route="*",status="404"} 5
impatience_http_requests_total{route="*",status="405"} 7
impatience_http_requests_total{route="/healthz",status="200"} 1
impatience_http_requests_total{route="/v1/artifacts/{hash}",status="400"} 2
impatience_http_requests_total{route="/v1/artifacts/{hash}",status="404"} 1
impatience_http_requests_total{route="/v1/campaigns",status="200"} 2
impatience_http_requests_total{route="/v1/campaigns",status="400"} 6
impatience_http_requests_total{route="/v1/campaigns/{id}",status="200"} 3
impatience_http_requests_total{route="/v1/campaigns/{id}",status="404"} 1
impatience_http_requests_total{route="/v1/campaigns/{id}/events",status="200"} 4
impatience_http_requests_total{route="/v1/campaigns/{id}/events",status="400"} 1
impatience_http_requests_total{route="/v1/solve",status="200"} 1
impatience_http_requests_total{route="/v1/solve",status="400"} 16
"##;

// ------------------------------------------------- crash-recovery (e2e)

/// Start `impatience serve` as a real subprocess on an ephemeral port,
/// returning the child and its discovered address.
fn spawn_serve(dir: &Path) -> (std::process::Child, SocketAddr) {
    let addr_file = dir.join("serve.addr");
    std::fs::remove_file(&addr_file).ok();
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_impatience"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            dir.to_str().unwrap(),
            "--queue",
            "4",
            "--http-threads",
            "2",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(Instant::now() < deadline, "serve.addr never appeared");
        std::thread::sleep(Duration::from_millis(10));
    };
    (child, addr)
}

#[test]
fn kill_mid_campaign_then_restart_resumes_bit_identically() {
    // A spec long enough that SIGKILL reliably lands mid-run, with
    // frequent checkpoints so the restart has work to restore.
    let spec = r#"{"nodes":16,"mu":0.05,"duration":250.0,"items":6,"rho":2,"trials":24,"seed":9,"checkpoint_every":2}"#;

    // Reference: the same spec through an uninterrupted in-process run.
    let clean_dir = temp_dir("clean");
    let clean = start(&clean_dir, 4);
    let (status, reply) = submit(clean.addr(), spec);
    assert_eq!(status, 202, "{reply}");
    let job = reply.get("job").and_then(Json::as_str).unwrap().to_string();
    let done = wait_for_state(clean.addr(), &job, "done", Duration::from_secs(300));
    let clean_hash = done
        .get("artifact")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let (_, clean_bytes) = request(
        clean.addr(),
        "GET",
        &format!("/v1/artifacts/{clean_hash}"),
        None,
    );
    clean.shutdown();
    std::fs::remove_dir_all(&clean_dir).ok();

    // Victim: a real `impatience serve` subprocess, killed once the
    // job's checkpoint file shows up (some chunks done, more to go).
    let dir = temp_dir("kill");
    let (mut child, addr) = spawn_serve(&dir);
    let (status, reply) = submit(addr, spec);
    assert_eq!(status, 202, "{reply}");
    let job = reply.get("job").and_then(Json::as_str).unwrap().to_string();
    let ckpt = dir.join("jobs").join(format!("{job}.ckpt"));
    let deadline = Instant::now() + Duration::from_secs(120);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "checkpoint never appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().unwrap();
    child.wait().unwrap();
    assert!(
        !dir.join("jobs").join(format!("{job}.result.json")).exists(),
        "job must not have finished before the kill"
    );

    // Restart over the same state directory: recovery re-enqueues the
    // job and its checkpoint turns the re-run into a resume.
    let (mut child, addr) = spawn_serve(&dir);
    let done = wait_for_state(addr, &job, "done", Duration::from_secs(300));
    assert!(
        done.get("resumed").and_then(Json::as_u64).unwrap() > 0,
        "restart must restore checkpointed trials, not redo them"
    );
    let hash = done.get("artifact").and_then(Json::as_str).unwrap();
    assert_eq!(hash, clean_hash, "content address must match a clean run");
    let (status, bytes) = request(addr, "GET", &format!("/v1/artifacts/{hash}"), None);
    assert_eq!(status, 200);
    assert_eq!(
        bytes, clean_bytes,
        "resumed artifact must be byte-identical to the uninterrupted run"
    );

    child.kill().unwrap();
    child.wait().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
