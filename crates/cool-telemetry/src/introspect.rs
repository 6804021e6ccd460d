//! Live introspection: a tiny, dependency-free loopback HTTP endpoint.
//!
//! Hand-rolled on `std::net` in the same spirit as cool-analyze's lexer —
//! just enough HTTP/1.1 to serve four read-only routes from a shared
//! [`Registry`](crate::Registry):
//!
//! * `GET /metrics` — the existing Prometheus text render.
//! * `GET /spans` — recent merged distributed traces (plus raw spans).
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
use std::time::Duration;

use crate::sampler::{GaugeSampler, GaugeSeries};
use crate::span::render_spans_json;
use crate::trace::render_traces_json;
use crate::Registry;

/// Default gauge sampling period.
pub const DEFAULT_SAMPLE_PERIOD: Duration = Duration::from_millis(20);

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
    pub fn start(
        registry: Arc<Registry>,
        bind_addr: &str,
        sample_period: Duration,
    ) -> io::Result<IntrospectServer> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let sampler = GaugeSampler::start(Arc::clone(&registry), sample_period)?;
        let series = sampler.series();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("cool-introspect".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if thread_stop.load(Ordering::Acquire) {
                        return;
                    }
                    if let Ok(stream) = conn {
                        serve_connection(stream, &registry, &series);
                    }
                }
            })?;
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
        if !self.stop.swap(true, Ordering::AcqRel) {
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
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
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let Some(target) = read_request_target(&mut stream) else {
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
        "/spans" => {
            let mut body = String::with_capacity(1024);
            body.push_str("{\"spans\":");
            body.push_str(&render_spans_json(&registry.recent_spans()));
            body.push_str(",\"traces\":");
            body.push_str(&render_traces_json(&registry.recent_traces()));
            body.push('}');
            ("200 OK", "application/json", body)
        }
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

/// Reads up to the end of the request head and returns the request
/// target (`GET <target> HTTP/1.1`). `None` on malformed input.
fn read_request_target(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > 8 * 1024 {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let request_line = head.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    if method != "GET" {
        return None;
    }
    Some(target.to_string())
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
        let mut server = IntrospectServer::start(
            Arc::clone(&registry),
            "127.0.0.1:0",
            Duration::from_millis(5),
        )
        .expect("start server");
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
}
