//! The connection engine both front doors run on: `neusight serve` and
//! `neusight router` each implement [`App`], and [`run`] drives it on the
//! epoll reactor.
//!
//! The engine owns accept, the connection cap, parsing, pipelining, idle
//! reaping (and the 408), writes, drain, and panic isolation. The app
//! supplies its limits and metric handles ([`Engine`]), its routing
//! ([`App::route`]), and — serve only — its predict-queue hooks. Slow
//! work is offloaded to a short-lived thread (`spawn_offload`) that
//! replies through the reactor's completion mailbox, so a reload gate or
//! a blocking upstream exchange never stalls other connections.

use crate::dispatch::{Reply, ReplyResult};
use crate::http::Response;
use crate::service::PredictRequest;
use neusight_guard as guard;
use neusight_obs as obs;
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Connection limits and metric handles one app supplies to the engine.
pub struct Engine {
    /// Metric prefix and log label (`serve`, `router`).
    pub(crate) name: &'static str,
    /// Most concurrent connections; beyond it, new ones get a 503.
    pub(crate) max_connections: usize,
    /// Keep-alive connections idle past this are reaped.
    pub(crate) idle_timeout: Duration,
    /// Finish each response's trace into the flight recorder and the
    /// `serve.stage.*` histograms.
    pub(crate) record_traces: bool,
    pub(crate) connections: Arc<obs::Gauge>,
    pub(crate) latency_ns: Arc<obs::Histogram>,
    pub(crate) panics: Arc<obs::Counter>,
    pub(crate) epoll_wait_ns: Arc<obs::Histogram>,
    pub(crate) loop_lag_ns: Arc<obs::Histogram>,
    pub(crate) wheel_occupancy: Arc<obs::Gauge>,
}

impl Engine {
    /// Engine settings whose metrics are named `<name>.…`.
    #[must_use]
    pub fn new(
        name: &'static str,
        max_connections: usize,
        idle_timeout: Duration,
        record_traces: bool,
    ) -> Engine {
        let metric = |suffix: &str| format!("{name}.{suffix}");
        Engine {
            name,
            max_connections,
            idle_timeout,
            record_traces,
            connections: obs::metrics::gauge(&metric("connections.active")),
            latency_ns: obs::metrics::histogram(&metric("request_latency_ns")),
            panics: obs::metrics::counter(&metric("connection.panics")),
            epoll_wait_ns: obs::metrics::histogram(&metric("reactor.epoll_wait_ns")),
            loop_lag_ns: obs::metrics::histogram(&metric("reactor.loop_lag_ns")),
            wheel_occupancy: obs::metrics::gauge(&metric("reactor.timer_wheel.occupancy")),
        }
    }
}

/// One parsed request, borrowed from the connection's read buffer.
pub struct Request<'a> {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: &'a str,
    /// Request path without the query string.
    pub path: &'a str,
    /// Body bytes (empty when no `Content-Length`).
    pub body: &'a [u8],
    /// The client's remaining `X-Deadline-Ms` budget, if sent.
    pub deadline_ms: Option<u64>,
    /// The request's trace (its id is echoed as `X-Request-Id`).
    pub trace: &'a obs::TraceContext,
}

/// Work that runs off the event loop and produces the response.
pub type Offload<A> = Box<dyn FnOnce(&A) -> Response + Send>;

/// What the app wants done with a request.
pub enum RouteOutcome<A> {
    /// Answer immediately, on the loop.
    Respond(Response),
    /// Admit to the app's predict queue ([`App::admit`]) and reply when
    /// the job completes or its deadline fires.
    Predict(PredictRequest),
    /// Run on a short-lived thread of its own and reply with its
    /// response.
    Offload(Offload<A>),
}

/// An application the engine serves.
pub trait App: Send + Sync + Sized + 'static {
    /// Connection limits and metric handles.
    fn engine(&self) -> &Engine;

    /// Whether a graceful drain has been requested.
    fn stop_requested(&self) -> bool;

    /// Maps one request to its outcome.
    fn route(&self, request: &Request<'_>) -> RouteOutcome<Self>;

    /// Runs once per loop turn (signal polling).
    fn on_turn(_app: &Arc<Self>) {}

    /// Queues a [`RouteOutcome::Predict`] job: its deadline, or the
    /// response to send instead (429, or 504 for an expired budget).
    fn admit(
        &self,
        _request: PredictRequest,
        _deadline_ms: Option<u64>,
        _reply: Reply,
        _trace: obs::TraceContext,
    ) -> Result<Instant, Response> {
        Err(Response::error(500, "no predict queue"))
    }

    /// A queued predict completed: the response to send.
    fn predict_done(&self, result: ReplyResult) -> Response {
        match result {
            Ok(body) => Response::json(200, body.to_string()),
            Err(e) => Response::error(e.status, &e.message),
        }
    }

    /// A queued predict left flight unanswered: its deadline fired
    /// (`timed_out`) or its connection closed.
    fn predict_dropped(&self, _timed_out: bool) {}
}

/// Serves `listener` until a requested drain has closed every
/// connection.
///
/// # Errors
///
/// Propagates listener setup failures; on a non-Linux platform reports
/// [`io::ErrorKind::Unsupported`] (the reactor is built on epoll).
pub fn run<A: App>(app: &Arc<A>, listener: &TcpListener) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        listener.set_nonblocking(true)?;
        crate::reactor::run(app, listener)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (app, listener);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the connection engine requires Linux epoll",
        ))
    }
}

/// Runs `job` on a short-lived thread and hands its response to `done`;
/// a panic becomes a JSON 500 and counts in `<name>.connection.panics`.
pub(crate) fn spawn_offload<A: App>(
    app: &Arc<A>,
    job: Offload<A>,
    done: impl FnOnce(Response) + Send + 'static,
) {
    let app = Arc::clone(app);
    thread::spawn(move || {
        let engine = app.engine();
        let label = format!("{}.offload", engine.name);
        let response = guard::catch(&label, || job(&app)).unwrap_or_else(|_| {
            engine.panics.inc();
            Response::error(500, "handler panicked")
        });
        done(response);
    });
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::Client;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// An app whose `/panic` route panics off the loop.
    struct Panicky {
        engine: Engine,
        stop: AtomicBool,
    }

    impl App for Panicky {
        fn engine(&self) -> &Engine {
            &self.engine
        }

        fn stop_requested(&self) -> bool {
            self.stop.load(Ordering::SeqCst)
        }

        fn route(&self, request: &Request<'_>) -> RouteOutcome<Panicky> {
            let panics = request.path == "/panic";
            RouteOutcome::Offload(Box::new(move |_: &Panicky| {
                assert!(!panics, "injected handler panic");
                Response::json(200, "{}".to_owned())
            }))
        }
    }

    #[test]
    fn a_panicking_offload_answers_one_json_500_and_the_connection_lives_on() {
        obs::set_enabled(true);
        let app = Arc::new(Panicky {
            engine: Engine::new("engine_test", 8, Duration::from_secs(5), false),
            stop: AtomicBool::new(false),
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = Client::connect(listener.local_addr().expect("addr")).expect("connect");
        let engine = Arc::clone(&app);
        let server = thread::spawn(move || run(&engine, &listener));
        let panicked = client.get("/panic").expect("a reply, not a dropped socket");
        assert_eq!(panicked.status, 500);
        assert!(
            panicked.text().starts_with("{\"error\":"),
            "{}",
            panicked.text()
        );
        assert_eq!(app.engine.panics.get(), 1);
        assert_eq!(client.get("/ok").expect("same connection").status, 200);
        app.stop.store(true, Ordering::SeqCst);
        server.join().expect("engine thread").expect("clean drain");
    }
}
