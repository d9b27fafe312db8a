//! Closed-loop load: two clients, each on its own keep-alive connection,
//! each sending its next request only after the previous answer arrived.
//! The callers this service has (capacity planners, schedulers,
//! notebooks) wait for each forecast before asking for the next one.

use crate::client::{self, Conn, Reply};
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// With tracing on, client spans are recorded on every other block of
/// this many requests, so the untraced blocks give the tracing cost.
const TRACE_BLOCK: usize = 64;

/// A rolling model reload sent before stream position `at`.
pub struct Reload {
    pub at: usize,
    pub version: &'static str,
}

pub struct Plan<'a> {
    pub addr: SocketAddr,
    /// Distinct raw requests.
    pub raw: &'a [Vec<u8>],
    /// Stream of indices into `raw`, sent once each, in order.
    pub stream: &'a [u32],
    pub reloads: &'a [Reload],
    /// Requests answered within this many positions after a reload count
    /// towards the post-reload latency.
    pub post_reload_window: usize,
    /// `X-Model-Version` serving when the pass starts.
    pub version: String,
    /// Per stream position: whether to keep the response body.
    pub keep_body: &'a [bool],
    pub trace: bool,
    pub origin: Instant,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Latencies of passed requests, ms.
    pub latencies_ms: Vec<f64>,
    /// When each of those requests completed, seconds into the pass.
    pub done_s: Vec<f64>,
    /// Stream position of each of those requests.
    pub positions: Vec<usize>,
    pub window_s: f64,
    /// `(stream position, body)` of kept responses.
    pub bodies: Vec<(usize, Vec<u8>)>,
    pub reload_ms: Vec<f64>,
    pub post_reload_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
    pub errors: Vec<String>,
}

impl Outcome {
    fn error(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.done_s.extend(other.done_s);
        self.positions.extend(other.positions);
        self.bodies.extend(other.bodies);
        self.reload_ms.extend(other.reload_ms);
        self.post_reload_ms.extend(other.post_reload_ms);
        self.traced_ms.extend(other.traced_ms);
        self.untraced_ms.extend(other.untraced_ms);
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Which `X-Model-Version` values a response may carry.
struct Versions {
    current: String,
    previous: Option<String>,
    /// When the last reload finished; requests sent before it may still
    /// see the previous version.
    done_at: Instant,
    /// Target of a reload in progress (replicas flip one at a time).
    pending: Option<String>,
}

impl Versions {
    fn accepts(&self, version: &str, sent: Instant) -> bool {
        version == self.current
            || self.pending.as_deref() == Some(version)
            || (sent < self.done_at && self.previous.as_deref() == Some(version))
    }
}

/// Runs the plan and returns what happened, plus the client spans.
pub fn run(plan: &Plan<'_>) -> (Outcome, Tracer) {
    let next = AtomicUsize::new(0);
    let versions = Mutex::new(Versions {
        current: plan.version.clone(),
        previous: None,
        done_at: Instant::now(),
        pending: None,
    });
    let start = Instant::now();
    let parts: Vec<(Outcome, Tracer)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client_loop(plan, &next, &versions, start)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load client panicked"))
            .collect()
    });
    let mut outcome = Outcome {
        window_s: start.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    let mut tracer = Tracer::new(plan.origin);
    for (part, spans) in parts {
        outcome.absorb(part);
        tracer.absorb(spans);
    }
    (outcome, tracer)
}

fn client_loop(
    plan: &Plan<'_>,
    next: &AtomicUsize,
    versions: &Mutex<Versions>,
    start: Instant,
) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(plan.origin);
    let mut conn = Conn::connect(plan.addr).ok();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= plan.stream.len() {
            break;
        }
        let Some(c) = conn.as_mut() else {
            out.attempted += 1;
            out.error("cannot connect".to_owned());
            conn = Conn::connect(plan.addr).ok();
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if let Some(reload) = plan.reloads.iter().find(|r| r.at == i) {
            reload_fleet(c, reload, versions, &mut out);
        }
        let request = &plan.raw[plan.stream[i] as usize];
        out.attempted += 1;
        let sent = Instant::now();
        let reply = c.send(request);
        let done = Instant::now();
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                out.error(format!("request {i}: {e}"));
                if c.reconnect().is_err() {
                    conn = None;
                }
                continue;
            }
        };
        if let Err(e) = check_reply(&reply, sent, versions) {
            out.error(format!("request {i}: {e}"));
            continue;
        }
        let ms = (done - sent).as_secs_f64() * 1e3;
        out.latencies_ms.push(ms);
        out.done_s.push((done - start).as_secs_f64());
        out.positions.push(i);
        if plan
            .reloads
            .iter()
            .any(|r| (r.at..r.at + plan.post_reload_window).contains(&i))
        {
            out.post_reload_ms.push(ms);
        }
        if plan.trace {
            if (i / TRACE_BLOCK) % 2 == 1 {
                tracer.record("client.request", i as u64, sent, done);
                out.traced_ms.push(ms);
            } else {
                out.untraced_ms.push(ms);
            }
        }
        if i < plan.keep_body.len() && plan.keep_body[i] {
            out.bodies.push((i, reply.body));
        }
    }
    (out, tracer)
}

fn check_reply(reply: &Reply, sent: Instant, versions: &Mutex<Versions>) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!(
            "status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    let version = reply.model_version.as_deref().unwrap_or("");
    let versions = versions.lock().expect("version state poisoned");
    if versions.accepts(version, sent) {
        Ok(())
    } else {
        Err(format!(
            "X-Model-Version `{version}` but `{}` is serving",
            versions.current
        ))
    }
}

/// `POST /v1/admin/reload` on this client's connection. A router rolls
/// it across its replicas one at a time before answering.
fn reload_fleet(conn: &mut Conn, reload: &Reload, versions: &Mutex<Versions>, out: &mut Outcome) {
    versions.lock().expect("version state poisoned").pending = Some(reload.version.to_owned());
    let body = format!(r#"{{"version":"{}"}}"#, reload.version);
    out.attempted += 1;
    let start = Instant::now();
    let reply = conn.send(&client::post("/v1/admin/reload", &body));
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let mut v = versions.lock().expect("version state poisoned");
    v.pending = None;
    match reply {
        Ok(reply) if reply.status == 200 => {
            out.reload_ms.push(ms);
            v.previous = Some(std::mem::replace(&mut v.current, reload.version.to_owned()));
            v.done_at = Instant::now();
        }
        Ok(reply) => out.error(format!(
            "reload to {} answered {}: {}",
            reload.version,
            reply.status,
            String::from_utf8_lossy(&reply.body)
        )),
        Err(e) => {
            out.error(format!("reload to {}: {e}", reload.version));
            let _ = conn.reconnect();
        }
    }
}
