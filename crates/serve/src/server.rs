//! The HTTP server: socket lifecycle, routing, and handlers.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use impatience_json::Json;
use impatience_obs::write_atomic;

use crate::artifacts::ArtifactStore;
use crate::error::ApiError;
use crate::http::{push_sse_frame, respond, start_sse, Reply, Request};
use crate::jobs::{receipt, JobManager, JobSpec};
use crate::lock;
use crate::metrics::ServeMetrics;
use crate::pool::ThreadPool;
use crate::solve::{SolveRequest, SolverPool};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// State directory: `jobs/`, `artifacts/`, and `serve.addr` live here.
    pub data_dir: PathBuf,
    /// Campaign queue capacity (submissions beyond it shed with 429).
    pub queue_cap: usize,
    /// Connection-handling worker threads.
    pub http_threads: usize,
    /// Idle warm solvers kept per system shape.
    pub solver_pool_per_key: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: PathBuf::from("serve-data"),
            queue_cap: 32,
            http_threads: 8,
            solver_pool_per_key: 8,
        }
    }
}

/// How long a socket read or write may stall before the peer counts
/// as gone.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

struct Ctx {
    jobs: JobManager,
    store: ArtifactStore,
    solvers: SolverPool,
    metrics: ServeMetrics,
    started: Instant,
    shutting_down: AtomicBool,
}

/// A running `impatience serve` instance.
///
/// Binds in [`Server::start`]; [`Server::shutdown`] (or drop) stops the
/// accept loop, drains in-flight connections, and joins the campaign
/// runner after its current job.
pub struct Server {
    addr: std::net::SocketAddr,
    ctx: Arc<Ctx>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Bind, recover persisted jobs, and start serving.
    ///
    /// Writes the bound address to `<data_dir>/serve.addr` (atomic) so
    /// scripts and tests can discover an ephemeral port.
    pub fn start(config: ServeConfig) -> Result<Server, ApiError> {
        std::fs::create_dir_all(&config.data_dir)
            .map_err(|e| ApiError::Io(format!("cannot create data dir: {e}")))?;
        let metrics = ServeMetrics::new();
        let store = ArtifactStore::open(&config.data_dir.join("artifacts"))?;
        let jobs = JobManager::start(
            &config.data_dir.join("jobs"),
            store.clone(),
            metrics.clone(),
            config.queue_cap,
        )?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ApiError::Io(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ApiError::Io(format!("cannot resolve bound address: {e}")))?;
        write_atomic(
            &config.data_dir.join("serve.addr"),
            format!("{addr}\n").as_bytes(),
        )
        .map_err(|e| ApiError::Io(format!("cannot write serve.addr: {e}")))?;

        let ctx = Arc::new(Ctx {
            jobs,
            store,
            solvers: SolverPool::new(config.solver_pool_per_key),
            metrics,
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
        });
        let accept = {
            let ctx = Arc::clone(&ctx);
            let threads = config.http_threads;
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &ctx, threads))
                .map_err(|e| ApiError::Io(format!("cannot spawn accept loop: {e}")))?
        };
        Ok(Server {
            addr,
            ctx,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound socket address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Base URL, e.g. `http://127.0.0.1:41234`.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stop accepting connections and wait for in-flight work
    /// (including the currently running campaign, if any) to finish.
    pub fn shutdown(&self) {
        self.ctx.shutting_down.store(true, Ordering::SeqCst);
        // Poke the accept loop out of `accept()`.
        let _ = TcpStream::connect(self.addr);
        let handle = lock(&self.accept).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
        self.ctx.jobs.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>, threads: usize) {
    let pool = ThreadPool::new(threads, "serve-http");
    for conn in listener.incoming() {
        if ctx.shutting_down.load(Ordering::SeqCst) {
            break; // drop the pool: drains queued connections, joins
        }
        let Ok(stream) = conn else { continue };
        let ctx = Arc::clone(ctx);
        pool.execute(move || route(stream, &ctx));
    }
}

/// The routes of API.md.
#[derive(Clone, Copy, PartialEq)]
enum Route {
    Healthz,
    Metrics,
    Solve,
    Campaigns,
    Campaign,
    Events,
    Artifact,
}

/// Each route's template: what a path is matched against, and the route's
/// `route` label on `impatience_http_requests_total`.
const ROUTES: [(Route, &str); 7] = [
    (Route::Healthz, "/healthz"),
    (Route::Metrics, "/metrics"),
    (Route::Solve, "/v1/solve"),
    (Route::Campaigns, "/v1/campaigns"),
    (Route::Campaign, "/v1/campaigns/{id}"),
    (Route::Events, "/v1/campaigns/{id}/events"),
    (Route::Artifact, "/v1/artifacts/{hash}"),
];

/// The route `path` names, its template and its `{…}` parameter (`""`
/// for none). An `{id}` is one non-empty path segment; a `{hash}` is the
/// rest of the path, for the artifact store to judge.
fn parse_route(path: &str) -> Option<(Route, &'static str, &str)> {
    ROUTES.into_iter().find_map(|(route, template)| {
        let Some((prefix, rest)) = template.split_once('{') else {
            return (path == template).then_some((route, template, ""));
        };
        let (_, suffix) = rest.split_once('}')?;
        let param = path.strip_prefix(prefix)?.strip_suffix(suffix)?;
        let segment = !param.is_empty() && !param.contains('/');
        (route == Route::Artifact || segment).then_some((route, template, param))
    })
}

/// What a request is answered with.
enum Answer {
    /// A fixed-length reply.
    Reply(Reply),
    /// A job's event stream from line `offset`, as SSE.
    Events {
        id: String,
        offset: usize,
        follow: bool,
    },
}

/// Read one request, answer it, and count it: the one place a reply is
/// written and `impatience_http_requests_total` recorded. A request that
/// does not parse, names no route or uses a method its route does not
/// take counts under `*`. A handled request counts as 200 (a 202
/// included), or as 500 when its reply cannot be written.
fn route(mut stream: TcpStream, ctx: &Arc<Ctx>) {
    // A stalled peer must not wedge a pool worker forever.
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let (template, answer) = match Request::read_from(&mut stream) {
        Ok(req) => dispatch(&req, ctx),
        Err(err) => ("*", Err(err)),
    };
    let status = match answer {
        Ok(Answer::Reply(reply)) => match respond(&mut stream, &reply) {
            Ok(()) => 200,
            Err(_) => 500,
        },
        Ok(Answer::Events { id, offset, follow }) => {
            // SSE long-polls: it gets a thread of its own so pool workers
            // stay available for short requests. Counted before the
            // connection closes, like every other request.
            let ctx = Arc::clone(ctx);
            let _ = std::thread::Builder::new()
                .name("serve-sse".into())
                .spawn(move || {
                    let status = match handle_events(&mut stream, &id, offset, follow, &ctx) {
                        Ok(()) => 200,
                        Err(e) => e.http_status(),
                    };
                    ctx.metrics.http_request(template, status);
                });
            return;
        }
        Err(err) => {
            let _ = respond(&mut stream, &Reply::error(&err));
            err.http_status()
        }
    };
    ctx.metrics.http_request(template, status);
}

/// The answer to `req`, and the template it counts under.
fn dispatch(req: &Request, ctx: &Ctx) -> (&'static str, Result<Answer, ApiError>) {
    let path = &req.path;
    let Some((route, template, param)) = parse_route(path) else {
        return ("*", Err(ApiError::NotFound(format!("no route {path}"))));
    };
    let reply = match (req.method.as_str(), route) {
        ("GET", Route::Healthz) => Ok(healthz(ctx)),
        ("GET", Route::Metrics) => Ok(metrics(ctx)),
        ("POST", Route::Solve) => solve(req, ctx),
        ("POST", Route::Campaigns) => submit(req, ctx),
        ("GET", Route::Campaigns) => Ok(Reply::json(200, &ctx.jobs.list())),
        ("GET", Route::Campaign) => ctx
            .jobs
            .status(param)
            .map(|status| Reply::json(200, &status))
            .ok_or_else(|| ApiError::NotFound(format!("no job {param}"))),
        ("GET", Route::Events) => {
            let answer = sse_offset(req).map(|offset| Answer::Events {
                id: param.to_string(),
                offset,
                follow: req.query.get("follow").map(String::as_str) != Some("0"),
            });
            return (template, answer);
        }
        ("GET", Route::Artifact) => ctx.store.get(param).map(|body| Reply {
            status: 200,
            content_type: "application/json",
            body,
        }),
        (method, _) => {
            let err = ApiError::MethodNotAllowed(format!("{method} {path}"));
            return ("*", Err(err));
        }
    };
    (template, reply.map(Answer::Reply))
}

fn healthz(ctx: &Ctx) -> Reply {
    let (queued, running) = ctx.jobs.load();
    let body = Json::obj([
        ("status", Json::from("ok")),
        ("queued", Json::from(queued)),
        ("running", Json::from(running)),
        ("solver_pool_idle", Json::from(ctx.solvers.idle())),
        ("uptime_s", Json::from(ctx.started.elapsed().as_secs_f64())),
    ]);
    Reply::json(200, &body)
}

fn metrics(ctx: &Ctx) -> Reply {
    let (bytes, lines) = ctx.jobs.events_retained();
    ctx.metrics.events_retained(bytes, lines);
    Reply {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: ctx.metrics.render().into_bytes(),
    }
}

fn solve(req: &Request, ctx: &Ctx) -> Result<Reply, ApiError> {
    let t0 = Instant::now();
    let body = req.json()?;
    let solve_req = SolveRequest::from_json(&body)?;
    let reply = ctx.solvers.solve(&solve_req)?;
    ctx.metrics
        .solve(t0.elapsed().as_secs_f64() * 1e3, reply.pool_hit);
    Ok(Reply::json(200, &reply.to_json()))
}

fn submit(req: &Request, ctx: &Ctx) -> Result<Reply, ApiError> {
    if ctx.shutting_down.load(Ordering::SeqCst) {
        return Err(ApiError::ShuttingDown);
    }
    let body = req.json()?;
    let spec = JobSpec::from_json(&body)?;
    let id = ctx.jobs.submit(spec)?;
    Ok(Reply::json(202, &receipt(&id)))
}

/// Starting index for an SSE subscription: `?offset=N` wins, else
/// `Last-Event-ID + 1` (the header names the last frame the client
/// *received*), else 0. An `offset` that is not a number is the
/// client's mistake and is refused; a `Last-Event-ID` that is not one is
/// ignored, as the SSE specification has it.
fn sse_offset(req: &Request) -> Result<usize, ApiError> {
    if let Some(off) = req.query.get("offset") {
        return off
            .parse()
            .map_err(|_| ApiError::BadRequest(format!("offset `{off}` is not a line index")));
    }
    if let Some(last) = req.headers.get("last-event-id") {
        if let Ok(n) = last.parse::<usize>() {
            return Ok(n.saturating_add(1));
        }
    }
    Ok(0)
}

/// Stream a job's recorder events as SSE frames.
///
/// Subscribing flushes the producing sink's batch (the attach-epoch
/// bump in `obs::stream`), so a fresh client never waits behind a
/// 64 KiB-stale window. Frames carry the published line index as the
/// SSE `id`, making `Last-Event-ID` reconnects gapless; a terminal
/// `event: end` frame reports the job's final state.
///
/// The unit of work is the stream's chunk: one lock acquisition to
/// fetch it, one pass to frame it into a reused buffer, one socket
/// write to send it.
fn handle_events(
    stream: &mut TcpStream,
    id: &str,
    offset: usize,
    follow: bool,
    ctx: &Ctx,
) -> Result<(), ApiError> {
    let events = ctx
        .jobs
        .stream(id)
        .ok_or_else(|| ApiError::NotFound(format!("no job {id}")))?;
    // SSE connections outlive the read timeout set for parsing. Writes
    // get the same limit instead: a subscriber that stops reading is
    // dropped like a closed peer and resumes with `Last-Event-ID`.
    let _ = stream.set_read_timeout(None);
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    start_sse(stream).map_err(|e| ApiError::Io(e.to_string()))?;
    let mut cursor = events.subscribe(offset);
    let mut frames: Vec<u8> = Vec::new();
    // One socket write per buffer of frames; a failed or timed-out
    // write means the client went away.
    let mut send = |frames: &[u8], data_frames: u64| -> bool {
        let sent = stream.write_all(frames).is_ok();
        if sent {
            ctx.metrics.sse_write(data_frames);
        }
        sent
    };
    let end_state = loop {
        match cursor.next_chunk(Duration::from_millis(250)) {
            Some(chunk) => {
                frames.clear();
                let mut count = 0;
                for (idx, line) in chunk.iter() {
                    push_sse_frame(&mut frames, Some(idx), None, line);
                    count += 1;
                }
                if !send(&frames, count) {
                    return Ok(());
                }
            }
            None if cursor.finished() => {
                break ctx.jobs.state(id).map_or("unknown", |state| state.as_str());
            }
            // Snapshot mode: caught up, don't wait for more.
            None if !follow => break "snapshot",
            None => {}
        }
    };
    let data = Json::obj([
        ("job", Json::from(id)),
        ("state", Json::from(end_state)),
        ("events", Json::from(cursor.position())),
    ])
    .to_string();
    frames.clear();
    push_sse_frame(&mut frames, None, Some("end"), &data);
    send(&frames, 0);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn temp_data_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("impatience-serve-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn start_small(dir: &std::path::Path) -> Server {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: dir.to_path_buf(),
            queue_cap: 2,
            http_threads: 2,
            solver_pool_per_key: 2,
        })
        .unwrap()
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
        request(addr, "GET", path, None)
    }

    fn request(
        addr: std::net::SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(body.as_bytes()).unwrap();
        let mut reply = String::new();
        s.read_to_string(&mut reply).unwrap();
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

    #[test]
    fn healthz_solve_metrics_and_404_over_real_socket() {
        let dir = temp_data_dir("unit");
        let server = start_small(&dir);
        let addr = server.addr();

        // serve.addr is discoverable.
        let advertised = std::fs::read_to_string(dir.join("serve.addr")).unwrap();
        assert_eq!(advertised.trim(), addr.to_string());

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let json = Json::parse(body.trim()).unwrap();
        assert_eq!(json.get("status").unwrap().as_str(), Some("ok"));

        let (status, body) = request(
            addr,
            "POST",
            "/v1/solve",
            Some(r#"{"nodes":20,"rho":2,"mu":0.05,"items":8,"utility":"step:5"}"#),
        );
        assert_eq!(status, 200, "{body}");
        let json = Json::parse(body.trim()).unwrap();
        assert_eq!(json.get("outcome").unwrap().as_str(), Some("resolved"));
        assert!(json.get("welfare").unwrap().as_f64().unwrap() > 0.0);

        // Error envelope on a malformed solve.
        let (status, body) = request(addr, "POST", "/v1/solve", Some(r#"{"rho":2}"#));
        assert_eq!(status, 400);
        let json = Json::parse(body.trim()).unwrap();
        assert_eq!(
            json.get("error")
                .unwrap()
                .get("exit_code")
                .unwrap()
                .as_i64(),
            Some(2)
        );

        let (status, _) = get(addr, "/v1/nope");
        assert_eq!(status, 404);
        let (status, _) = request(addr, "POST", "/healthz", None);
        assert_eq!(status, 405);
        // A route under a method it does not take is a 405, never a 404.
        let (status, _) = get(addr, "/v1/solve");
        assert_eq!(status, 405);

        let (status, text) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let samples = impatience_obs::parse_prometheus(&text).unwrap();
        assert!(samples
            .iter()
            .any(|s| s.name == "impatience_http_requests_total"));

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// API.md promises a reconnecting client frames "byte-identical to
    /// a client that never disconnected": compare the body bytes, from
    /// offsets at a chunk's start, inside a chunk, at the last line, at
    /// the end and past it.
    #[test]
    fn sse_body_is_the_frame_by_frame_rendering_from_any_offset() {
        let dir = temp_data_dir("wire");
        let server = start_small(&dir);
        let addr = server.addr();

        // Enough events to cross the 64 KiB batch threshold, with
        // checkpoint flushes in between: several chunks of uneven size.
        let (status, body) = request(
            addr,
            "POST",
            "/v1/campaigns",
            Some(
                r#"{"nodes":20,"mu":0.05,"duration":400.0,"items":6,"rho":2,"trials":4,"seed":5,"checkpoint_every":1}"#,
            ),
        );
        assert_eq!(status, 202, "{body}");
        let job = Json::parse(body.trim()).unwrap();
        let job = job.get("job").unwrap().as_str().unwrap();
        let events = server.ctx.jobs.stream(job).unwrap();
        let deadline = Instant::now() + Duration::from_secs(120);
        while !events.is_closed() {
            assert!(Instant::now() < deadline, "job did not finish");
            std::thread::sleep(Duration::from_millis(10));
        }

        // The reference: every line on its own, and where chunks start.
        let mut lines: Vec<String> = Vec::new();
        let mut chunk_starts = Vec::new();
        let mut cursor = events.subscribe(0);
        while let Some(chunk) = cursor.next_chunk(Duration::ZERO) {
            chunk_starts.push(lines.len());
            lines.extend(chunk.iter().map(|(_, line)| line.to_string()));
        }
        let len = lines.len();
        assert!(
            chunk_starts.len() >= 3,
            "want several chunks: {chunk_starts:?}"
        );
        // Well inside the longest chunk.
        let mid_chunk = chunk_starts
            .windows(2)
            .max_by_key(|w| w[1] - w[0])
            .map(|w| (w[0] + w[1]) / 2)
            .unwrap();
        assert!(!chunk_starts.contains(&mid_chunk));

        for offset in [0, chunk_starts[1], mid_chunk, len - 1, len, len + 5] {
            let mut expected = String::new();
            for (idx, line) in lines.iter().enumerate().skip(offset) {
                expected.push_str(&format!("id: {idx}\ndata: {line}\n\n"));
            }
            expected.push_str(&format!(
                "event: end\ndata: {{\"job\":\"{job}\",\"state\":\"done\",\"events\":{}}}\n\n",
                offset.max(len)
            ));
            let (status, body) = get(
                addr,
                &format!("/v1/campaigns/{job}/events?follow=0&offset={offset}"),
            );
            assert_eq!(status, 200);
            assert!(
                body == expected,
                "offset {offset} of {len}: body differs from the per-frame rendering"
            );
        }

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
