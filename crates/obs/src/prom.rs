//! Prometheus text-exposition export of the telemetry registry.
//!
//! Two pieces, both std-only (the workspace is offline — no hyper, no
//! prometheus crate):
//!
//! * [`render`] — serialize a [`Telemetry`] registry (plus optional
//!   [`FaultLog`] counters) in Prometheus text exposition format 0.0.4.
//!   Counters map to `gsight_<name>_total`, gauges to `gsight_<name>`,
//!   histograms to summaries (`quantile` labels + `_sum`/`_count`), fault
//!   counts to `gsight_fault_events_total{kind="..."}`.
//! * [`PromHub`] + [`serve`] — a shared snapshot the engine publishes into
//!   at every collect tick, and a minimal HTTP/1.x responder that serves it
//!   at `/metrics` so `curl` and Prometheus can scrape a live run.
//!
//! Publishing reads simulation state but never mutates it, so a run with a
//! hub attached stays bit-identical to one without (the same determinism
//! contract the other obs facilities honor).

use crate::faultlog::FaultLog;
use crate::json::fmt_num;
use crate::telemetry::{Metric, Telemetry};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Metric-name prefix for everything this exporter emits.
const PREFIX: &str = "gsight_";

/// Map a telemetry name onto the Prometheus name charset
/// (`[a-zA-Z0-9_:]`); everything else becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Render one sample value. Prometheus accepts `NaN`/`+Inf`/`-Inf`
/// literally, unlike JSON.
fn sample(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x.is_infinite() {
        (if x > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        fmt_num(x)
    }
}

/// Serialize the registry in Prometheus text exposition format 0.0.4.
pub fn render(telemetry: &Telemetry, faults: Option<&FaultLog>) -> String {
    let mut out = String::new();
    out.push_str("# HELP gsight_up 1 while the simulation exporter is live.\n");
    out.push_str("# TYPE gsight_up gauge\ngsight_up 1\n");
    for (name, metric) in telemetry.metrics() {
        let base = format!("{PREFIX}{}", sanitize(name));
        match metric {
            Metric::Counter(c) => {
                let _ = writeln!(out, "# TYPE {base}_total counter");
                let _ = writeln!(out, "{base}_total {c}");
            }
            Metric::Gauge { last, .. } => {
                let _ = writeln!(out, "# TYPE {base} gauge");
                let _ = writeln!(out, "{base} {}", sample(*last));
            }
            Metric::Histogram(h) => {
                // Exposed as a summary: the registry's histogram is
                // log-bucketed for quantile queries, not cumulative-bucket
                // shaped.
                let _ = writeln!(out, "# TYPE {base} summary");
                for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                    let _ = writeln!(
                        out,
                        "{base}{{quantile=\"{label}\"}} {}",
                        sample(h.quantile(q))
                    );
                }
                let stats = h.stats();
                let sum = stats.mean() * stats.count() as f64;
                let _ = writeln!(out, "{base}_sum {}", sample(sum));
                let _ = writeln!(out, "{base}_count {}", h.count());
            }
        }
    }
    if let Some(log) = faults {
        let counts = log.counts();
        if !counts.is_empty() {
            let _ = writeln!(out, "# TYPE {PREFIX}fault_events_total counter");
            for (kind, n) in counts {
                let _ = writeln!(out, "{PREFIX}fault_events_total{{kind=\"{kind}\"}} {n}");
            }
        }
    }
    out
}

/// Shared scrape target: the engine publishes rendered snapshots, HTTP
/// worker threads (and tests) read the latest one.
pub struct PromHub {
    body: Mutex<String>,
    generation: AtomicU64,
}

impl PromHub {
    /// Empty hub (scrapes return just the `gsight_up` marker until the
    /// first publish).
    pub fn new() -> Self {
        Self {
            body: Mutex::new(render(&Telemetry::new(), None)),
            generation: AtomicU64::new(0),
        }
    }

    /// Render and store a fresh snapshot.
    pub fn publish(&self, telemetry: &Telemetry, faults: Option<&FaultLog>) {
        let body = render(telemetry, faults);
        *self.body.lock().expect("prom hub poisoned") = body;
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Latest snapshot.
    pub fn scrape(&self) -> String {
        self.body.lock().expect("prom hub poisoned").clone()
    }

    /// Number of publishes so far (tests use this to see the engine tick).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }
}

impl Default for PromHub {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PromHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PromHub")
            .field("generation", &self.generation())
            .finish()
    }
}

/// Bind `addr` and serve the hub's snapshot at `/metrics` from a detached
/// thread. Returns the bound address (pass port 0 to let the OS pick one).
pub fn serve(addr: &str, hub: Arc<PromHub>) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new()
        .name("prom-exporter".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                match stream {
                    Ok(s) => {
                        let hub = Arc::clone(&hub);
                        // One thread per connection: scrape traffic is one
                        // client every few seconds, not a web service.
                        std::thread::spawn(move || handle(s, &hub));
                    }
                    Err(_) => break,
                }
            }
        })?;
    Ok(local)
}

fn handle(stream: TcpStream, hub: &PromHub) {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so the client sees a clean close.
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line == "\r\n" || line == "\n" => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, body) = if path == "/metrics" || path == "/" {
        ("200 OK", hub.scrape())
    } else {
        ("404 Not Found", "not found; scrape /metrics\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    let mut stream = reader.into_inner();
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultlog::FaultRecord;
    use std::io::Read;

    fn registry() -> Telemetry {
        let mut t = Telemetry::new();
        t.incr("scale.outs", 3);
        t.gauge("queue.depth", 7.0);
        t.observe("instance.queue_wait_ms", 1.5);
        t.observe("instance.queue_wait_ms", 3.0);
        t
    }

    #[test]
    fn render_exposition_format() {
        let mut log = FaultLog::new();
        log.push(FaultRecord {
            at_ms: 10.0,
            kind: "server_crash",
            target: 1,
            value: 0.0,
        });
        let text = render(&registry(), Some(&log));
        assert!(text.contains("gsight_up 1\n"));
        assert!(text.contains("# TYPE gsight_scale_outs_total counter"));
        assert!(text.contains("gsight_scale_outs_total 3\n"));
        assert!(text.contains("gsight_queue_depth 7\n"), "no trailing .0");
        assert!(text.contains("gsight_instance_queue_wait_ms{quantile=\"0.5\"}"));
        assert!(text.contains("gsight_instance_queue_wait_ms_count 2\n"));
        assert!(text.contains("gsight_fault_events_total{kind=\"server_crash\"} 1\n"));
        // Every line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("a.b-c/d"), "a_b_c_d");
        assert_eq!(sanitize("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn non_finite_samples() {
        assert_eq!(sample(f64::NAN), "NaN");
        assert_eq!(sample(f64::INFINITY), "+Inf");
        assert_eq!(sample(f64::NEG_INFINITY), "-Inf");
        assert_eq!(sample(2.0), "2");
    }

    #[test]
    fn hub_publishes_and_scrapes() {
        let hub = PromHub::new();
        assert_eq!(hub.generation(), 0);
        assert!(hub.scrape().contains("gsight_up 1"));
        hub.publish(&registry(), None);
        assert_eq!(hub.generation(), 1);
        assert!(hub.scrape().contains("gsight_scale_outs_total 3"));
    }

    #[test]
    fn http_serves_metrics() {
        let hub = Arc::new(PromHub::new());
        hub.publish(&registry(), None);
        let addr = serve("127.0.0.1:0", Arc::clone(&hub)).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.contains("text/plain; version=0.0.4"));
        assert!(response.contains("gsight_scale_outs_total 3"));
        // Unknown paths get a 404 and the connection still closes cleanly.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"));
    }
}
