//! Minimal thread-per-connection HTTP/1.1 server and client over
//! `std::net` — the transport shim behind `mcmcmi-serve`.
//!
//! The build environment has no crates.io, so instead of axum/tokio (or
//! `tiny_http`, whose surface this loosely follows) the serving daemon
//! runs on this deliberately small implementation: blocking sockets, one
//! thread per connection, `Connection: close` semantics. The subset
//! implemented is exactly what a JSON RPC-over-POST service needs:
//!
//! - request line + headers + `Content-Length` body parsing (no chunked
//!   encoding, no keep-alive, no TLS);
//! - a blocking accept loop: a connection is picked up when it arrives,
//!   and nothing in the server sleeps or polls;
//! - graceful shutdown: [`ServerHandle::stop`] sets a flag and wakes the
//!   accept loop with a loopback connection to itself (the only way to
//!   interrupt `accept` with `std` alone), and [`ServerHandle::join`]
//!   waits for in-flight connection threads to finish so no response is
//!   cut off mid-write;
//! - a matching blocking [`client`] for tests and smoke drivers.
//!
//! The handler is a plain `Fn(Request) -> Response`, so the application
//! layer (routing, JSON envelopes, admission control) is completely
//! separable from this transport: swapping in a real async stack is a
//! drop-in replacement of this crate only.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Cap on header block + body sizes the parser will accept; a malformed or
/// hostile client cannot make the server buffer unboundedly.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Default body cap (callers can raise it via [`HttpServer::max_body`]).
pub const DEFAULT_MAX_BODY_BYTES: usize = 256 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method verb, uppercased (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query string included, if any).
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length`-delimited).
    pub body: Vec<u8>,
}

impl Request {
    /// Header lookup by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// An HTTP response the handler returns.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (the reason phrase is derived from it).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json".to_string(),
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain".to_string(),
            body: body.into().into_bytes(),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A bound-but-not-yet-serving listener.
pub struct HttpServer {
    listener: TcpListener,
    addr: SocketAddr,
    max_body: usize,
}

impl HttpServer {
    /// Bind to `addr` (use port 0 for an ephemeral port; see
    /// [`HttpServer::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            addr,
            max_body: DEFAULT_MAX_BODY_BYTES,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Override the request-body size cap.
    pub fn max_body(mut self, bytes: usize) -> Self {
        self.max_body = bytes;
        self
    }

    /// Start serving on a background accept thread; one spawned thread per
    /// connection. The handler runs on the connection thread and must
    /// answer every request (blocking is fine — that is the model).
    pub fn serve<H>(self, handler: H) -> io::Result<ServerHandle>
    where
        H: Fn(Request) -> Response + Send + Sync + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(Active::default());
        let handler = Arc::new(handler);
        let max_body = self.max_body;
        let accept_stop = Arc::clone(&stop);
        let accept_active = Arc::clone(&active);
        let listener = self.listener;
        let thread = std::thread::Builder::new()
            .name("httpd-accept".to_string())
            .spawn(move || loop {
                let accepted = listener.accept();
                // Checked after every wake-up: the connection that ends a
                // blocked `accept` once `stop` is set (the handle's own, or
                // a client's that raced it) is dropped unanswered, and the
                // listener closes with this thread.
                if accept_stop.load(Ordering::SeqCst) {
                    return;
                }
                match accepted {
                    Ok((stream, _)) => {
                        let h = Arc::clone(&handler);
                        let guard = ConnGuard::enter(&accept_active);
                        // Detached: the handle tracks the count, not the
                        // JoinHandle — join() waits on the counter.
                        let _ = std::thread::Builder::new()
                            .name("httpd-conn".to_string())
                            .spawn(move || {
                                let _guard = guard;
                                let _ = handle_connection(stream, &*h, max_body);
                            });
                    }
                    // Out of descriptors, or the peer reset before we got
                    // to it: back off instead of spinning on the error.
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            })?;
        let wake = match self.addr {
            SocketAddr::V4(a) if a.ip().is_unspecified() => (Ipv4Addr::LOCALHOST, a.port()).into(),
            SocketAddr::V6(a) if a.ip().is_unspecified() => (Ipv6Addr::LOCALHOST, a.port()).into(),
            addr => addr,
        };
        Ok(ServerHandle {
            stop,
            active,
            addr: self.addr,
            wake,
            thread: Mutex::new(Some(thread)),
        })
    }
}

/// In-flight connection count, with a condition [`ServerHandle::join`]
/// sleeps on until it reaches zero.
#[derive(Default)]
struct Active {
    count: Mutex<usize>,
    idle: Condvar,
}

/// RAII connection counter used by [`ServerHandle::join`].
struct ConnGuard(Arc<Active>);

impl ConnGuard {
    fn enter(active: &Arc<Active>) -> Self {
        // The count is valid whenever the lock is free, poisoned or not.
        *active.count.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        Self(Arc::clone(active))
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        let mut count = self.0.count.lock().unwrap_or_else(PoisonError::into_inner);
        *count -= 1;
        if *count == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// Handle to a running server: stop it, wait for it to wind down.
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    active: Arc<Active>,
    addr: SocketAddr,
    /// Where [`ServerHandle::stop`] connects to wake the accept loop: the
    /// listener's address, through loopback when it is bound to a wildcard.
    wake: SocketAddr,
    /// Taken by the first `stop`, which is the one that wakes the thread.
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop taking new connections: the accept loop is woken, exits and
    /// closes the listener. In-flight connection threads keep running; use
    /// [`ServerHandle::join`] to wait for them. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let thread = self
            .thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let Some(thread) = thread else {
            return;
        };
        // The accept loop is blocked in `accept`; any connection ends that.
        let woken = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1)).is_ok();
        if woken || thread.is_finished() {
            let _ = thread.join();
        }
        // Otherwise the loop could not be reached (the connect was refused
        // or filtered): leave the thread detached rather than block here.
        // It exits on the next connection it is handed, without serving it.
    }

    /// Stop accepting and wait (bounded by `drain`) for in-flight
    /// connections to finish. Returns `true` if everything drained inside
    /// the deadline.
    pub fn join(self, drain: Duration) -> bool {
        self.stop();
        let count = self
            .active
            .count
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (count, _) = self
            .active
            .idle
            .wait_timeout_while(count, drain, |n| *n > 0)
            .unwrap_or_else(PoisonError::into_inner);
        *count == 0
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Read one request, run the handler, write the response, close.
fn handle_connection(
    mut stream: TcpStream,
    handler: &dyn Fn(Request) -> Response,
    max_body: usize,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let req = match read_request(&mut stream, max_body) {
        Ok(r) => r,
        Err(e) => {
            let status = match e.kind() {
                io::ErrorKind::InvalidData => 400,
                io::ErrorKind::OutOfMemory => 413,
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => 408,
                _ => return Err(e),
            };
            let resp = Response::text(status, format!("{e}"));
            return write_response(&mut stream, &resp);
        }
    };
    let resp = handler(req);
    write_response(&mut stream, &resp)
}

/// Parse request line + headers + `Content-Length` body.
fn read_request(stream: &mut TcpStream, max_body: usize) -> io::Result<Request> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    // Accumulate until the blank line; anything past it is body prefix.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_crlfcrlf(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(bad("header block too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed before headers completed"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| bad("non-UTF-8 headers"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_ascii_uppercase();
    let path = parts.next().ok_or_else(|| bad("missing path"))?.to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().map_err(|_| bad("bad Content-Length")))
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        // Drain (a bounded amount of) the declared body before erroring so
        // the client finishes its write and can read the 413 instead of
        // hitting a connection reset mid-send.
        let mut remaining = content_length
            .saturating_sub(buf.len() - header_end - 4)
            .min(4 * 1024 * 1024);
        while remaining > 0 {
            let want = remaining.min(chunk.len());
            match stream.read(&mut chunk[..want]) {
                Ok(0) | Err(_) => break,
                Ok(n) => remaining -= n,
            }
        }
        return Err(io::Error::new(
            io::ErrorKind::OutOfMemory,
            "body exceeds size cap",
        ));
    }
    // One buffer of the declared size (within the cap checked above): the
    // bytes that came with the headers, then the socket read straight into
    // the rest of it.
    let prefix = &buf[header_end + 4..];
    let mut body = Vec::with_capacity(content_length);
    body.extend_from_slice(&prefix[..prefix.len().min(content_length)]);
    let missing = (content_length - body.len()) as u64;
    if stream.take(missing).read_to_end(&mut body)? as u64 != missing {
        return Err(bad("connection closed before body completed"));
    }
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

fn find_crlfcrlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn write_response(stream: &mut TcpStream, resp: &Response) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    // One write: a reply that fits the socket buffer leaves in one segment
    // train instead of a small head followed by the body.
    let mut out = Vec::with_capacity(head.len() + resp.body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(&resp.body);
    stream.write_all(&out)?;
    stream.flush()
}

/// Blocking HTTP/1.1 client for tests and smoke drivers: one request per
/// connection, mirroring the server's `Connection: close` model.
pub mod client {
    use super::*;

    /// Issue one request; returns `(status, body)`.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        parse_response(&raw)
    }

    /// `POST path` with a JSON body.
    pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<(u16, String)> {
        request(addr, "POST", path, body)
    }

    /// `GET path`.
    pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
        request(addr, "GET", path, "")
    }

    fn parse_response(raw: &[u8]) -> io::Result<(u16, String)> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let header_end = find_crlfcrlf(raw).ok_or_else(|| bad("no header terminator"))?;
        let head = std::str::from_utf8(&raw[..header_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status_line = head.split("\r\n").next().ok_or_else(|| bad("empty head"))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let body = String::from_utf8_lossy(&raw[header_end + 4..]).into_owned();
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn echo_server() -> ServerHandle {
        HttpServer::bind("127.0.0.1:0")
            .unwrap()
            .serve(|req| {
                Response::json(
                    200,
                    format!(
                        "{{\"method\":\"{}\",\"path\":\"{}\",\"len\":{}}}",
                        req.method,
                        req.path,
                        req.body.len()
                    ),
                )
            })
            .unwrap()
    }

    #[test]
    fn round_trip_post_and_get() {
        let server = echo_server();
        let addr = server.addr();
        let (status, body) = client::post(addr, "/solve", "{\"x\":1}").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"method\":\"POST\""));
        assert!(body.contains("\"len\":7"));
        let (status, body) = client::get(addr, "/stats").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"path\":\"/stats\""));
        assert!(server.join(Duration::from_secs(2)));
    }

    #[test]
    fn concurrent_clients_all_answered() {
        let server = echo_server();
        let addr = server.addr();
        let threads: Vec<_> = (0..16)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = format!("{{\"i\":{i}}}");
                    client::post(addr, "/solve", &body).unwrap().0
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 200);
        }
        assert!(server.join(Duration::from_secs(2)));
    }

    #[test]
    fn large_body_round_trips() {
        let server = echo_server();
        let addr = server.addr();
        let body = "x".repeat(1 << 20);
        let (status, resp) = client::post(addr, "/big", &body).unwrap();
        assert_eq!(status, 200);
        assert!(resp.contains(&format!("\"len\":{}", 1 << 20)));
        assert!(server.join(Duration::from_secs(2)));
    }

    #[test]
    fn oversized_body_is_rejected_not_buffered() {
        let server = HttpServer::bind("127.0.0.1:0")
            .unwrap()
            .max_body(1024)
            .serve(|_| Response::text(200, "ok"))
            .unwrap();
        let addr = server.addr();
        let (status, _) = client::post(addr, "/x", &"y".repeat(4096)).unwrap();
        assert_eq!(status, 413);
        assert!(server.join(Duration::from_secs(2)));
    }

    #[test]
    fn nobody_polls_between_connections() {
        // Structural, not a benchmark: an accept loop that sleeps 2 ms
        // between polls cannot finish this under 400 ms; a blocking one
        // takes about 25 ms.
        let server = echo_server();
        let addr = server.addr();
        let t0 = Instant::now();
        for _ in 0..200 {
            assert_eq!(client::get(addr, "/healthz").unwrap().0, 200);
        }
        let elapsed = t0.elapsed();
        assert!(elapsed < Duration::from_millis(200), "{elapsed:?}");
        assert!(server.join(Duration::from_secs(2)));
    }

    #[test]
    fn idle_shutdown_is_prompt_and_stop_is_idempotent() {
        let t0 = Instant::now();
        // Dropped without ever seeing a connection.
        drop(echo_server());
        // Joined idle.
        assert!(echo_server().join(Duration::from_secs(2)));
        // Stopped twice, then joined: the later calls find nothing to do.
        let server = echo_server();
        let addr = server.addr();
        server.stop();
        server.stop();
        assert!(client::get(addr, "/").is_err(), "listener closed by stop");
        assert!(server.join(Duration::from_secs(2)));
        let elapsed = t0.elapsed();
        assert!(elapsed < Duration::from_millis(100), "{elapsed:?}");
    }

    #[test]
    fn join_waits_for_a_connection_in_flight_only_up_to_the_deadline() {
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let server = HttpServer::bind("127.0.0.1:0")
            .unwrap()
            .serve(move |_| {
                let _ = gate.lock().unwrap().recv();
                Response::text(200, "late")
            })
            .unwrap();
        let addr = server.addr();
        let client = std::thread::spawn(move || client::get(addr, "/").unwrap());
        while *server.active.count.lock().unwrap() == 0 {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        assert!(
            !server.join(Duration::from_millis(50)),
            "handler still held"
        );
        assert!(t0.elapsed() >= Duration::from_millis(50));
        release.send(()).unwrap();
        assert_eq!(client.join().unwrap(), (200, "late".to_string()));
    }

    #[test]
    fn refused_wake_up_detaches_instead_of_blocking() {
        let mut server = echo_server();
        let addr = server.addr();
        // tcpmux: nothing listens there, so the connect is refused.
        server.wake = (Ipv4Addr::LOCALHOST, 1).into();
        let t0 = Instant::now();
        assert!(
            server.join(Duration::from_secs(2)),
            "no connection in flight"
        );
        assert!(t0.elapsed() < Duration::from_secs(1));
        // The detached loop is still in `accept`; the next connection ends
        // it unanswered.
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
        let mut buf = Vec::new();
        assert_eq!(s.read_to_end(&mut buf).unwrap_or(0), 0);
    }

    #[test]
    fn stopped_server_refuses_new_connections() {
        let server = echo_server();
        let addr = server.addr();
        assert!(server.join(Duration::from_secs(2)));
        // The listener is closed once the handle is consumed; a fresh
        // connection now fails or is never answered.
        match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            Err(_) => {}
            Ok(mut s) => {
                let _ = s.write_all(b"GET / HTTP/1.1\r\n\r\n");
                let mut buf = Vec::new();
                s.set_read_timeout(Some(Duration::from_millis(300)))
                    .unwrap();
                let n = s.read_to_end(&mut buf).unwrap_or(0);
                assert_eq!(n, 0, "no handler should answer after join()");
            }
        }
    }
}
