//! The benchmark's HTTP client: one connection per request, as the
//! server requires (`Connection: close`), and an SSE reader that checks
//! frame ids while it reads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use impatience_json::Json;

/// One HTTP exchange; returns (status, body).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let body = body.unwrap_or("");
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    let status = reply
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let payload = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, payload))
}

/// `request` that must answer `want` with a JSON body.
pub fn request_json(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    want: u16,
) -> Result<Json, String> {
    let (status, reply) =
        request(addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"))?;
    if status != want {
        return Err(format!("{method} {path}: status {status}, body {reply}"));
    }
    Json::parse(reply.trim()).map_err(|e| format!("{method} {path}: bad JSON reply: {e}"))
}

/// What an SSE subscription saw.
pub struct SseOutcome {
    /// Data frames delivered.
    pub frames: u64,
    /// Whether frame ids ran 0, 1, 2, … without a gap.
    pub contiguous: bool,
    /// Frames the server says it published (from the `end` frame).
    pub published: u64,
    /// Job state in the `end` frame.
    pub end_state: String,
}

/// A subscriber that drains its socket a hundred times a second, as a
/// dashboard that redraws at a fixed rate would: after a read that came
/// back short it waits 10 ms before the next, so frames gather in the
/// socket buffer.
///
/// The server writes every frame with a `write` of its own, on a socket
/// with Nagle's algorithm on. How many of those the kernel coalesces into
/// one segment depends on when the reader's ACKs and window updates arrive.
/// With a reader that blocks on every frame, or polls every millisecond,
/// identical campaigns spend anything from 0.25 s to 0.5 s in the kernel;
/// with a reader that stays out of the way they repeat.
struct Polled {
    stream: TcpStream,
    short: bool,
}

impl Read for Polled {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.short {
            std::thread::sleep(Duration::from_millis(10));
        }
        let n = self.stream.read(buf)?;
        self.short = n < buf.len() / 4;
        Ok(n)
    }
}

/// Subscribe to a job's events from offset 0 and read to `event: end`.
pub fn read_sse(addr: SocketAddr, job: &str) -> Result<SseOutcome, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("sse connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::with_capacity(
        1 << 18,
        Polled {
            stream,
            short: false,
        },
    );
    let head = format!(
        "GET /v1/campaigns/{job}/events?offset=0 HTTP/1.1\r\nHost: bench\r\nAccept: text/event-stream\r\n\r\n"
    );
    reader
        .get_mut()
        .stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("sse write: {e}"))?;

    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("sse status: {e}"))?;
    if !line.starts_with("HTTP/1.1 200") {
        return Err(format!("sse got: {}", line.trim()));
    }
    while line != "\r\n" && line != "\n" && !line.is_empty() {
        line.clear();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
    }

    let mut outcome = SseOutcome {
        frames: 0,
        contiguous: true,
        published: 0,
        end_state: String::new(),
    };
    let (mut id, mut is_end, mut data): (Option<u64>, bool, String) = (None, false, String::new());
    loop {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("sse stream ended without `event: end`".into());
        }
        let field = line.trim_end_matches(['\r', '\n']);
        if let Some(v) = field.strip_prefix("id:") {
            id = v.trim().parse().ok();
        } else if let Some(v) = field.strip_prefix("event:") {
            is_end = v.trim() == "end";
        } else if let Some(v) = field.strip_prefix("data:") {
            data.push_str(v.trim_start());
        } else if field.is_empty() {
            if is_end {
                let end = Json::parse(&data).map_err(|e| format!("end frame: {e}"))?;
                outcome.published = end.get("events").and_then(Json::as_u64).unwrap_or(0);
                outcome.end_state = end
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                return Ok(outcome);
            }
            if !data.is_empty() {
                outcome.contiguous &= id == Some(outcome.frames);
                outcome.frames += 1;
            }
            id = None;
            data.clear();
        }
    }
}
