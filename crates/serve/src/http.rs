//! A deliberately small HTTP/1.1 subset over `std::net::TcpStream`.
//!
//! Enough for the service surface and nothing more: request line +
//! headers + `Content-Length` bodies in, status + headers + body (or a
//! streamed SSE body) out, every connection `Connection: close`. No
//! chunked encoding, no keep-alive, no TLS — the repo's no-async,
//! no-dependency discipline applied to the wire.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use impatience_json::Json;

use crate::error::ApiError;

/// Maximum accepted header block size (request line included).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body size.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Largest catalog a request may name: the items of the longest `demand`
/// array a body of `MAX_BODY_BYTES` can carry (`[0,0,…]`, two bytes an
/// item). A synthetic `items` count is held to the same size.
pub(crate) const MAX_ITEMS: usize = MAX_BODY_BYTES / 2;
/// Largest population (`nodes`, so `servers` too) a request may name.
pub(crate) const MAX_NODES: usize = 1 << 20;
/// Largest cache budget ρ·|S| a request may name; a campaign's
/// `items`·`nodes` demand profile is held to the same size.
pub(crate) const MAX_SLOTS: usize = 1 << 22;

/// A 422 naming `what` unless `value` is at most `limit`.
pub(crate) fn at_most(what: impl Display, value: usize, limit: usize) -> Result<(), ApiError> {
    if value <= limit {
        Ok(())
    } else {
        Err(ApiError::Config(format!(
            "{what} must be ≤ {limit}, got {value}"
        )))
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component, percent-decoding not applied (the API uses none).
    pub path: String,
    /// `?key=value&…` parameters, last occurrence wins.
    pub query: BTreeMap<String, String>,
    /// Lower-cased header name → value.
    pub headers: BTreeMap<String, String>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Read one request from `stream`.
    pub fn read_from(stream: &mut TcpStream) -> Result<Request, ApiError> {
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ApiError::Io(format!("cannot clone stream: {e}")))?,
        );

        let mut line = String::new();
        let mut head_bytes = 0usize;
        reader
            .read_line(&mut line)
            .map_err(|e| ApiError::Io(format!("reading request line: {e}")))?;
        head_bytes += line.len();
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| ApiError::BadRequest("empty request line".into()))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or_else(|| ApiError::BadRequest("request line lacks a path".into()))?
            .to_string();

        let mut headers = BTreeMap::new();
        loop {
            let mut h = String::new();
            let n = reader
                .read_line(&mut h)
                .map_err(|e| ApiError::Io(format!("reading headers: {e}")))?;
            head_bytes += n;
            if head_bytes > MAX_HEAD_BYTES {
                return Err(ApiError::TooLarge {
                    limit: MAX_HEAD_BYTES,
                });
            }
            let h = h.trim_end();
            if n == 0 || h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
            }
        }

        let mut body = Vec::new();
        if let Some(len) = headers.get("content-length") {
            let len: usize = len
                .parse()
                .map_err(|_| ApiError::BadRequest(format!("bad content-length `{len}`")))?;
            if len > MAX_BODY_BYTES {
                return Err(ApiError::TooLarge {
                    limit: MAX_BODY_BYTES,
                });
            }
            body.resize(len, 0);
            reader
                .read_exact(&mut body)
                .map_err(|e| ApiError::Io(format!("reading body: {e}")))?;
        }

        let (path, query) = parse_target(&target);
        Ok(Request {
            method,
            path,
            query,
            headers,
            body,
        })
    }

    /// The request body as UTF-8 JSON.
    pub fn json(&self) -> Result<Json, ApiError> {
        let text = std::str::from_utf8(&self.body)
            .map_err(|_| ApiError::BadRequest("body is not UTF-8".into()))?;
        Json::parse(text).map_err(|e| ApiError::BadRequest(format!("body is not valid JSON: {e}")))
    }
}

/// A JSON type a request field is read as, and how a 400 names it.
pub trait Typed<'a>: Sized {
    /// The type as the message names it: "a number", ….
    const WHAT: &'static str;
    /// `json` as this type, if it is one.
    fn from_json(json: &'a Json) -> Option<Self>;
}

/// `impl Typed` for each `type => "what", reader;`.
macro_rules! typed {
    ($($t:ty => $what:literal, $read:expr;)*) => {$(
        impl<'a> Typed<'a> for $t {
            const WHAT: &'static str = $what;
            fn from_json(json: &'a Json) -> Option<Self> {
                $read(json)
            }
        }
    )*};
}

typed! {
    u64 => "a non-negative integer", Json::as_u64;
    usize => "a non-negative integer", |json: &Json| json.as_u64().map(|n| n as usize);
    f64 => "a number", Json::as_f64;
    &'a str => "a string", Json::as_str;
    &'a [Json] => "an array", Json::as_array;
}

/// A request body is a JSON object.
pub fn expect_object(body: &Json) -> Result<(), ApiError> {
    let message = "request body must be an object";
    body.as_object()
        .map(drop)
        .ok_or_else(|| ApiError::BadRequest(message.into()))
}

/// `json[key]` as a `T`: `None` when absent, a 400 when of another type.
pub fn field<'a, T: Typed<'a>>(json: &'a Json, key: &str) -> Result<Option<T>, ApiError> {
    json.get(key).map(|value| typed(value, key)).transpose()
}

/// `value` as a `T`, or a 400 that calls it `name`. The message is built
/// only on failure: `/v1/solve` reads every field through here.
pub fn typed<'a, T: Typed<'a>>(value: &'a Json, name: impl Display) -> Result<T, ApiError> {
    T::from_json(value).ok_or_else(|| ApiError::BadRequest(format!("`{name}` must be {}", T::WHAT)))
}

fn parse_target(target: &str) -> (String, BTreeMap<String, String>) {
    let mut query = BTreeMap::new();
    let (path, qs) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    for pair in qs.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some((k, v)) => query.insert(k.to_string(), v.to_string()),
            None => query.insert(pair.to_string(), String::new()),
        };
    }
    (path.to_string(), query)
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// A fixed-length response: what a handler answers with.
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The `content-type` header.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// `json` and a newline, as `application/json`.
    pub fn json(status: u16, json: &Json) -> Reply {
        let mut body = String::new();
        json.write(&mut body);
        body.push('\n');
        Reply {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// The error envelope for `err`.
    pub fn error(err: &ApiError) -> Reply {
        Reply::json(err.http_status(), &err.envelope())
    }
}

/// Write `reply` with its head (`Connection: close`).
pub fn respond(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        reply.status,
        status_text(reply.status),
        reply.content_type,
        reply.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&reply.body)?;
    stream.flush()
}

/// Start a streamed (SSE) response: head only, the body follows as
/// frames built with [`push_sse_frame`]. The connection stays open
/// until the handler returns and the stream drops.
pub fn start_sse(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\ncontent-type: text/event-stream\r\ncache-control: no-cache\r\nconnection: close\r\n\r\n",
    )
}

/// Append one SSE frame to `out`: optional `id: N`, optional `event:`,
/// one `data:` line, a blank line. The caller sends `out` when it holds
/// as many frames as should share a socket write.
pub fn push_sse_frame(out: &mut Vec<u8>, id: Option<usize>, event: Option<&str>, data: &str) {
    if let Some(id) = id {
        // Writing into a `Vec` cannot fail.
        let _ = writeln!(out, "id: {id}");
    }
    if let Some(event) = event {
        out.extend_from_slice(b"event: ");
        out.extend_from_slice(event.as_bytes());
        out.push(b'\n');
    }
    // The JSONL payloads are single-line by construction, but split
    // defensively: a bare newline inside `data:` would desynchronize
    // the SSE framing.
    for line in data.lines() {
        out.extend_from_slice(b"data: ");
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
    }
    out.push(b'\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_parsing_splits_path_and_query() {
        let (path, query) = parse_target("/v1/campaigns/j0001/events?offset=12&follow=0");
        assert_eq!(path, "/v1/campaigns/j0001/events");
        assert_eq!(query.get("offset").map(String::as_str), Some("12"));
        assert_eq!(query.get("follow").map(String::as_str), Some("0"));
        let (path, query) = parse_target("/healthz");
        assert_eq!(path, "/healthz");
        assert!(query.is_empty());
    }

    #[test]
    fn sse_frames_append_in_wire_format() {
        let mut out = Vec::new();
        push_sse_frame(&mut out, Some(41), None, "{\"ev\":\"contact\"}");
        push_sse_frame(&mut out, None, Some("end"), "{\"state\":\"done\"}");
        // A stray newline in the payload becomes a second `data:` line.
        push_sse_frame(&mut out, Some(42), None, "a\nb");
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "id: 41\ndata: {\"ev\":\"contact\"}\n\n\
             event: end\ndata: {\"state\":\"done\"}\n\n\
             id: 42\ndata: a\ndata: b\n\n"
        );
    }

    #[test]
    fn request_roundtrip_over_socket() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /v1/solve?x=1 HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}")
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = Request::read_from(&mut conn).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/solve");
        assert_eq!(req.query.get("x").map(String::as_str), Some("1"));
        assert_eq!(req.body, b"{}");
        assert!(req.json().unwrap().as_object().unwrap().is_empty());
        respond(
            &mut conn,
            &Reply::json(200, &Json::obj([("ok", true.into())])),
        )
        .unwrap();
        drop(conn);
        let reply = client.join().unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(reply.contains("{\"ok\":true}"));
    }

    #[test]
    fn oversized_body_is_rejected() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let head = format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            );
            let _ = s.write_all(head.as_bytes());
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out
        });
        let (mut conn, _) = listener.accept().unwrap();
        let err = Request::read_from(&mut conn).unwrap_err();
        assert_eq!(err.http_status(), 413);
        respond(&mut conn, &Reply::error(&err)).unwrap();
        drop(conn);
        let reply = client.join().unwrap();
        assert!(reply.starts_with("HTTP/1.1 413"));
    }
}
