//! Live introspection: a tiny, dependency-free loopback HTTP endpoint.
//!
//! Hand-rolled on `std::net`: just enough HTTP/1.1 to serve four
//! read-only routes from a shared [`Registry`]:
//!
//! * `GET /metrics` — the existing Prometheus text render.
//! * `GET /spans` — the recent calls' spans, and the merged distributed
//!   traces of those that carried one.
//! * `GET /flight` — the flight-recorder dump.
//! * `GET /gauges?window=<ms>` — sampled gauge time series.
//!
//! One accept thread handles connections serially (requests are cheap,
//! local and read-only); a [`GaugeSampler`] thread feeds the `/gauges`
//! series. Both threads exist only while the server is alive — an ORB
//! configured without introspection never creates either.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::blocking;
use crate::lockorder::Locked;
use crate::sampler::{GaugeSampler, GaugeSeries};
use crate::Registry;

/// How long [`IntrospectServer::stop`] waits for the connection that wakes
/// its acceptor.
const POKE_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a client has, from accept, to send its request head; and how
/// long a response write may take. The one acceptor serves connections
/// one at a time, so this bounds what one slow client costs every other.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(2);

/// The most a request head may take: nothing past it is read, and a head
/// that does not end inside it is refused.
const MAX_HEAD: usize = 8 * 1024;

/// A running introspection endpoint. Stops (and joins both threads) on
/// [`IntrospectServer::stop`] or drop.
pub struct IntrospectServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    sampler: Option<GaugeSampler>,
}

impl IntrospectServer {
    /// Binds `bind_addr` (e.g. `"127.0.0.1:0"`), spawns the accept and
    /// sampler threads, and returns the running server.
    pub fn start(registry: Arc<Registry>, bind_addr: &str) -> io::Result<IntrospectServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let sampler = GaugeSampler::start(Arc::clone(&registry))?;
        let series = sampler.series();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        // Built outside the spawn, so that the spawn's expect covers the
        // spawn alone and the accept's reason is its own.
        let accept_loop = move || {
            #[expect(
                clippy::disallowed_methods,
                reason = "woken at shutdown by `stop`'s connection, after it sets the flag checked below"
            )]
            for conn in listener.incoming() {
                if thread_stop.load(Ordering::Acquire) {
                    return;
                }
                if let Ok(stream) = conn {
                    serve_connection(stream, &registry, &series);
                }
            }
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "joined by `IntrospectServer::stop`, which drop calls"
        )]
        let accept = std::thread::Builder::new()
            .name("cool-introspect".to_string())
            .spawn(accept_loop);
        let accept = accept?;
        Ok(IntrospectServer {
            addr,
            stop,
            accept: Some(accept),
            sampler: Some(sampler),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops both threads and waits for them. Idempotent.
    pub fn stop(&mut self) {
        let held = Locked::root();
        if !self.stop.swap(true, Ordering::AcqRel) {
            // Unblock the accept loop with a throwaway connection; a
            // loopback connect that takes longer than this means the
            // acceptor is gone already.
            let _ = blocking::connect_timeout(held, &self.addr, POKE_TIMEOUT);
        }
        if let Some(handle) = self.accept.take() {
            let _ = blocking::join(held, handle);
        }
        if let Some(mut sampler) = self.sampler.take() {
            sampler.stop();
        }
    }
}

impl Drop for IntrospectServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for IntrospectServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IntrospectServer")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Reads one request, writes one response, closes. Any I/O error just
/// drops the connection — the endpoint is best-effort by design.
fn serve_connection(mut stream: TcpStream, registry: &Registry, series: &Arc<GaugeSeries>) {
    let _ = stream.set_write_timeout(Some(CLIENT_TIMEOUT));
    let Some(head) = read_head(&mut stream, Instant::now() + CLIENT_TIMEOUT) else {
        return;
    };
    let Some(target) = parse_request_target(&head) else {
        return;
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target.as_str(), None),
    };
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            registry.render_prometheus(),
        ),
        "/spans" => ("200 OK", "application/json", registry.spans_json()),
        "/flight" => ("200 OK", "application/json", registry.flight().to_json()),
        "/gauges" => (
            "200 OK",
            "application/json",
            series.to_json(parse_window(query)),
        ),
        _ => (
            "404 Not Found",
            "text/plain; version=0.0.4",
            "not found\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Reads up to the end of the request head, or to the peer's end, and at
/// most [`MAX_HEAD`] bytes. `None` when the head does not end inside that,
/// and when it is not in by `deadline`, however the bytes trickle in.
fn read_head(stream: &mut TcpStream, deadline: Instant) -> Option<Vec<u8>> {
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        let room = MAX_HEAD - head.len();
        if room == 0 {
            return None;
        }
        let left = deadline.checked_duration_since(Instant::now())?;
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return None;
        }
        let want = room.min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
        }
    }
    Some(head)
}

/// The request target of a head whose request line is `GET <target> ..`;
/// `None` for any other method and for a malformed line. Looks at no more
/// than the first [`MAX_HEAD`] bytes.
fn parse_request_target(head: &[u8]) -> Option<String> {
    let head = &head[..head.len().min(MAX_HEAD)];
    let line_end = head.iter().position(|&b| b == b'\n').unwrap_or(head.len());
    let request_line = String::from_utf8_lossy(&head[..line_end]);
    let mut parts = request_line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    parts.next().map(str::to_owned)
}

/// Parses `window=<ms>` from a query string.
fn parse_window(query: Option<&str>) -> Option<Duration> {
    let query = query?;
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        if k != "window" {
            return None;
        }
        v.parse::<u64>().ok().map(Duration::from_millis)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A head that starts as a request line might, then arbitrary bytes:
    /// past [`MAX_HEAD`] at times.
    fn arb_head() -> impl Strategy<Value = Vec<u8>> {
        const STARTS: &[&[u8]] = &[
            b"",
            b"GET ",
            b"GET /metrics HTTP/1.1\r\n",
            b"POST /metrics HTTP/1.1\r\n",
            b" GET\t/gauges?window=5",
        ];
        (
            0..STARTS.len(),
            proptest::collection::vec(any::<u8>(), 0..64),
            0usize..MAX_HEAD + 64,
        )
            .prop_map(|(start, noise, filler)| {
                let mut head = STARTS[start].to_vec();
                head.extend_from_slice(&noise);
                head.resize(head.len() + filler, b'a');
                head
            })
    }

    proptest! {
        /// Whatever a client sends, the parse does not panic, reads
        /// nothing past `MAX_HEAD`, and answers only a `GET` line.
        #[test]
        fn a_request_head_of_any_bytes_parses_safely(head in arb_head()) {
            let target = parse_request_target(&head);
            prop_assert_eq!(&target, &parse_request_target(&head[..head.len().min(MAX_HEAD)]));
            if target.is_some() {
                let line = String::from_utf8_lossy(&head);
                let line = line.trim_start();
                prop_assert!(line.starts_with("GET"), "{line:?}");
                prop_assert!(line[3..].starts_with(char::is_whitespace), "{line:?}");
            }
        }

        /// A query of any bytes parses without a panic, and a window comes
        /// only from a `window=<ms>` pair.
        #[test]
        fn a_query_of_any_bytes_parses_safely(
            query in proptest::collection::vec(any::<u8>(), 0..64),
            window in proptest::option::of(0u64..100_000),
        ) {
            let mut query = String::from_utf8_lossy(&query).into_owned();
            if let Some(ms) = window {
                query.push_str(&format!("&window={ms}"));
            }
            if let Some(parsed) = parse_window(Some(&query)) {
                let pair = format!("window={}", parsed.as_millis());
                prop_assert!(query.split('&').any(|kv| kv == pair), "{query:?}");
            }
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a head");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn all_four_routes_respond() {
        let registry = Arc::new(Registry::new());
        registry.counter("orb_invocations_total").add(3);
        registry.gauge("orb_dispatch_queue_depth").set(1.0);
        registry.flight_event("reconnect", None, "tcp");
        let mut server =
            IntrospectServer::start(Arc::clone(&registry), "127.0.0.1:0").expect("start server");
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("orb_invocations_total 3"));

        let (head, body) = get(addr, "/spans");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.starts_with("{\"spans\":["));
        assert!(body.contains(",\"traces\":["));

        let (head, body) = get(addr, "/flight");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("\"kind\":\"reconnect\""));

        // Let the sampler take at least one pass, then ask for a window.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let (head, body) = get(addr, "/gauges?window=60000");
            assert!(head.starts_with("HTTP/1.1 200"));
            if body.contains("\"orb_dispatch_queue_depth\":[{")
                || std::time::Instant::now() > deadline
            {
                assert!(body.contains("\"orb_dispatch_queue_depth\":[{"), "{body}");
                break;
            }
            std::thread::yield_now();
        }

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.stop();
        // After stop the port no longer accepts (or at least never
        // answers); a second stop is a no-op.
        server.stop();
    }

    #[test]
    fn a_client_trickling_its_request_does_not_hold_the_acceptor() {
        let registry = Arc::new(Registry::new());
        let mut server =
            IntrospectServer::start(Arc::clone(&registry), "127.0.0.1:0").expect("start server");
        let addr = server.local_addr();
        // One byte every half second, each well inside a per-read
        // timeout, for six seconds: never a whole request head.
        let stop = Arc::new(AtomicBool::new(false));
        let trickle = {
            let stop = Arc::clone(&stop);
            let mut slow = TcpStream::connect(addr).expect("connect");
            std::thread::spawn(move || {
                for _ in 0..12 {
                    if stop.load(Ordering::Acquire) || slow.write_all(b"G").is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(500));
                }
            })
        };
        std::thread::sleep(Duration::from_millis(200));
        let asked = Instant::now();
        let (head, _) = get(addr, "/metrics");
        let waited = asked.elapsed();
        stop.store(true, Ordering::Release);
        trickle.join().expect("trickling client");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(
            waited < CLIENT_TIMEOUT + Duration::from_secs(1),
            "a second client waited {waited:?} behind a trickling one"
        );
        server.stop();
    }
}
