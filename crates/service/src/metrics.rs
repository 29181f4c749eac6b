//! Plaintext metrics/health endpoint.
//!
//! Production-shaped services are scrapable: CI (and any operator with
//! `curl` or `nc`) needs to ask a worker or the broker how it is doing
//! without speaking the binary campaign protocol. This is a minimal
//! HTTP/1.0 responder — enough for `GET /metrics` (one
//! `name value` pair per line, Prometheus-style exposition) and
//! `GET /healthz` (`ok`) — listening on its own port so the metrics
//! plane never contends with, or confuses, the framed campaign plane.
//!
//! The render callback is taken at spawn time and invoked per scrape,
//! so counters are always read fresh; anything
//! `Fn() -> String + Send + Sync` works (the serve and broker binaries
//! pass closures over their live stat structs).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use avf_inject::TrialEnds;

use crate::cache::{CacheStats, EvalCache, StoreCache};

/// Session/stream counters a `serve` worker exposes alongside its
/// cache stats. All relaxed atomics: these are monotone operational
/// counters, not synchronization.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections whose session handler completed cleanly.
    pub sessions_ok: AtomicU64,
    /// Connections whose session handler failed (any [`BackendError`]).
    ///
    /// [`BackendError`]: avf_inject::BackendError
    pub sessions_failed: AtomicU64,
    /// Trial batches executed to completion.
    pub batches_served: AtomicU64,
    /// Trial events streamed back to drivers.
    pub events_streamed: AtomicU64,
    /// Frames rejected by keyed-hash authentication.
    pub auth_rejects: AtomicU64,
    /// How the worker's trials ended, and the tail cycles they
    /// simulated (every session's backend counts into it).
    pub trials: Arc<TrialEnds>,
}

/// Appends one cache's `avf_<name>_*` counter lines.
fn render_cache(out: &mut String, name: &str, c: CacheStats) {
    for (field, value) in [
        ("hits", c.hits),
        ("misses", c.misses),
        ("evictions", c.evictions),
        ("entries", c.entries as u64),
        ("bytes", c.bytes as u64),
    ] {
        let _ = writeln!(out, "avf_{name}_{field} {value}");
    }
}

impl ServeStats {
    /// A fresh zeroed counter set behind an [`Arc`].
    #[must_use]
    pub fn shared() -> Arc<ServeStats> {
        Arc::new(ServeStats::default())
    }

    /// Renders the worker's `/metrics` lines (both caches, session
    /// counters and trial ends).
    #[must_use]
    pub fn render(&self, cache: &StoreCache, eval_cache: &EvalCache) -> String {
        let mut out = String::new();
        render_cache(&mut out, "store_cache", cache.stats());
        render_cache(&mut out, "eval_cache", eval_cache.stats());
        for (name, counter) in [
            ("sessions_ok", &self.sessions_ok),
            ("sessions_failed", &self.sessions_failed),
            ("batches_served", &self.batches_served),
            ("events_streamed", &self.events_streamed),
            ("auth_rejects", &self.auth_rejects),
        ] {
            let _ = writeln!(out, "avf_serve_{name} {}", counter.load(Ordering::Relaxed));
        }
        for (name, value) in self.trials.values() {
            let _ = writeln!(out, "avf_serve_{name} {value}");
        }
        out
    }
}

/// Serves `GET /metrics` and `GET /healthz` on `listener` until the
/// process exits. One short-lived thread per scrape; scrapes are rare
/// (CI, a watch loop) and must never block the campaign plane.
fn metrics_loop(listener: &TcpListener, render: &(dyn Fn() -> String + Send + Sync)) {
    for conn in listener.incoming() {
        let Ok(stream) = conn else { continue };
        let _ = respond(&stream, render);
    }
}

/// Answers one HTTP request on `stream`.
fn respond(stream: &TcpStream, render: &(dyn Fn() -> String + Send + Sync)) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request = String::new();
    reader.read_line(&mut request)?;
    let path = request.split_whitespace().nth(1).unwrap_or("");
    let (status, body) = match path {
        "/metrics" => ("200 OK", render()),
        "/healthz" => ("200 OK", "ok\n".to_owned()),
        _ => (
            "404 Not Found",
            "unknown path (try /metrics or /healthz)\n".to_owned(),
        ),
    };
    let mut w = stream;
    write!(
        w,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    w.flush()
}

/// Binds `addr` and serves the metrics endpoint on a background
/// thread, returning the bound address (useful with port 0).
///
/// # Errors
///
/// Returns the I/O error if the address cannot be bound.
pub fn spawn_metrics(
    addr: &str,
    render: impl Fn() -> String + Send + Sync + 'static,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::spawn(move || metrics_loop(&listener, &render));
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        body
    }

    #[test]
    fn metrics_and_health_respond_over_plain_http() {
        let hits = Arc::new(AtomicU64::new(41));
        let render_hits = Arc::clone(&hits);
        let addr = spawn_metrics("127.0.0.1:0", move || {
            format!("test_counter {}\n", render_hits.load(Ordering::Relaxed))
        })
        .unwrap();
        let body = get(addr, "/metrics");
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("test_counter 41"), "{body}");
        // Counters are read per scrape, not snapshotted at spawn.
        hits.fetch_add(1, Ordering::Relaxed);
        assert!(get(addr, "/metrics").contains("test_counter 42"));
        assert!(get(addr, "/healthz").contains("ok"));
        assert!(get(addr, "/nope").starts_with("HTTP/1.0 404"));
    }

    #[test]
    fn render_reports_both_caches_and_the_session_counters() {
        let cache = StoreCache::new(4, usize::MAX);
        let eval_cache = EvalCache::with_capacity(2);
        assert!(cache.get(1, 0).is_none());
        eval_cache.insert((7, vec![1, 2]), 0.5);
        assert_eq!(eval_cache.lookup(7, &[1, 2]), Some(0.5));
        assert_eq!(eval_cache.lookup(8, &[1, 2]), None);
        let stats = ServeStats::default();
        stats.batches_served.fetch_add(3, Ordering::Relaxed);
        let page = stats.render(&cache, &eval_cache);
        for line in [
            "avf_store_cache_hits 0",
            "avf_store_cache_misses 1",
            "avf_store_cache_evictions 0",
            "avf_store_cache_entries 0",
            "avf_store_cache_bytes 0",
            "avf_eval_cache_hits 1",
            "avf_eval_cache_misses 1",
            "avf_eval_cache_evictions 0",
            "avf_eval_cache_entries 1",
            "avf_eval_cache_bytes 32",
            "avf_serve_batches_served 3",
            "avf_serve_sessions_ok 0",
            "avf_serve_trials_probe 0",
            "avf_serve_trials_rejoined 0",
            "avf_serve_trials_decided_masked 0",
            "avf_serve_trials_decided_sdc 0",
            "avf_serve_trials_decided_due 0",
            "avf_serve_trials_full_tail 0",
            "avf_serve_tail_cycles 0",
        ] {
            assert!(
                page.lines().any(|l| l == line),
                "missing `{line}` in:\n{page}"
            );
        }
    }
}
