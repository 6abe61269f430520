//! The worker's front end: the [`crate::conn`] listener serving the API
//! over the [`Engine`], and graceful shutdown.
//!
//! Requests arrive through the shared connection layer (blocking accept,
//! bounded hand-off, keep-alive workers that give back idle threads —
//! admission-control layer 1, a full hand-off queue sheds with `429`).
//! Each request is routed and computational calls resolve through the
//! [`Engine`] (layer 2: response cache → coalesce → bounded queue → shed).
//!
//! Shutdown: `SIGTERM`/`SIGINT` set a flag (see [`install_signal_handlers`])
//! that [`ServerHandle::run_until_signalled`] polls; tests and the bench
//! harness call [`ServerHandle::shutdown`] directly. Either way the
//! listener stops accepting, workers finish their current request and
//! close idle connections, the engine drains its queue, and every thread
//! is joined before the handle returns — no request is abandoned
//! mid-computation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bdc_core::Process;

use crate::api::{self, Route};
use crate::conn::{ListenConfig, Listener, Service};
use crate::engine::{Engine, EngineConfig, Submission};
use crate::http::{self, Response};
use crate::metrics::{Endpoint, Registry};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8731`; port 0 picks an ephemeral
    /// port (reported by [`ServerHandle::port`]).
    pub addr: String,
    /// Connection-worker threads.
    pub conn_threads: usize,
    /// Accepted sockets that may wait for a worker before the acceptor
    /// sheds new connections with 429.
    pub conn_backlog: usize,
    /// Engine knobs (queue bound, batch size, response-cache bound).
    pub engine: EngineConfig,
    /// Processes whose libraries are characterized before the listener
    /// starts accepting (cold-start avoidance).
    pub warm: Vec<Process>,
    /// Longest a keep-alive connection may sit idle, and the read
    /// deadline for the rest of a request once its first byte arrived.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout — a stalled client that stops
    /// draining its receive window can otherwise pin a worker forever.
    pub write_timeout: Duration,
    /// Shard identity in a `bdc-cluster` fleet: when set, every response
    /// carries an `x-bdc-shard: N` header so clients and the byte-identity
    /// tests can see which worker answered. `None` for a standalone
    /// server (no header — single-process bodies stay byte-identical to
    /// pre-cluster builds).
    pub shard: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8731".into(),
            conn_threads: 8,
            conn_backlog: 64,
            engine: EngineConfig::default(),
            warm: Vec::new(),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            shard: None,
        }
    }
}

/// Signal-driven shutdown flag, shared with the handlers below.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Installs `SIGINT`/`SIGTERM` handlers that request a graceful shutdown
/// (idempotent; unix only — elsewhere it is a no-op and ctrl-c falls back
/// to process default).
#[cfg(unix)]
pub fn install_signal_handlers() {
    // The one unsafe block in the workspace: registering a libc signal
    // handler has no safe std equivalent, and the handler body is
    // async-signal-safe (a single atomic store).
    #[allow(unsafe_code)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(2, on_signal); // SIGINT
            signal(15, on_signal); // SIGTERM
        }
    }
}

/// No-op fallback for non-unix targets.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Whether a shutdown signal has been observed.
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// A running server: the listener plus the shared engine and its thread.
pub struct ServerHandle {
    listener: Listener,
    engine: Arc<Engine<api::ApiCall>>,
    engine_thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.listener.port()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Arc<Registry> {
        self.engine.metrics()
    }

    /// Blocks until a shutdown signal arrives, then shuts down gracefully.
    pub fn run_until_signalled(self) {
        while !signalled() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }

    /// Graceful shutdown: stop accepting, drain the engine, join every
    /// thread.
    pub fn shutdown(self) {
        self.listener.stop();
        self.engine.shutdown();
        self.listener.join();
        let _ = self.engine_thread.join();
    }
}

/// The API as a [`Service`]: routing, engine resolution, the shard
/// header, and per-endpoint latency metrics.
struct Api {
    engine: Arc<Engine<api::ApiCall>>,
    shard: Option<usize>,
}

impl Service for Api {
    fn respond(&self, request: &http::Request, arrived: Instant) -> Response {
        let (endpoint, mut response) = handle(request, &self.engine);
        if let Some(shard) = self.shard {
            // Identity rides in a header so the *body* stays byte-identical
            // across shards — the cluster acceptance gate.
            response
                .extra_headers
                .push(("x-bdc-shard".into(), shard.to_string()));
        }
        self.engine
            .metrics()
            .endpoint(endpoint)
            .record(response.status, arrived.elapsed().as_micros() as u64);
        response
    }

    fn rejected(&self, status: u16, arrived: Instant) {
        self.engine
            .metrics()
            .endpoint(Endpoint::Other)
            .record(status, arrived.elapsed().as_micros() as u64);
    }

    fn accepted(&self) {
        self.engine
            .metrics()
            .connections
            .fetch_add(1, Ordering::Relaxed);
    }

    fn shed(&self) {
        self.engine
            .metrics()
            .connections_shed
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Spawns the engine, binds the listener, and returns the handle. The
/// library warm-up (if requested) happens before binding so the first
/// accepted request never pays characterization latency.
///
/// # Errors
/// Propagates bind failures.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    for p in &cfg.warm {
        let _ = bdc_core::process::shared_kit(*p);
    }
    let metrics = Arc::new(Registry::default());
    let engine: Arc<Engine<api::ApiCall>> = Engine::new(cfg.engine.clone(), metrics);
    let listener = Listener::start(
        ListenConfig {
            addr: cfg.addr,
            name: "bdc-serve",
            threads: cfg.conn_threads,
            backlog: cfg.conn_backlog,
            read_timeout: cfg.read_timeout,
            write_timeout: cfg.write_timeout,
        },
        Arc::new(Api {
            engine: Arc::clone(&engine),
            shard: cfg.shard,
        }),
    )?;
    let engine_thread = {
        let engine = Arc::clone(&engine);
        std::thread::Builder::new()
            .name("bdc-serve-engine".into())
            .spawn(move || engine.run(api::execute))
    };
    let engine_thread = match engine_thread {
        Ok(t) => t,
        Err(e) => {
            listener.join();
            return Err(e);
        }
    };
    Ok(ServerHandle {
        listener,
        engine,
        engine_thread,
    })
}

/// Observations an endpoint's latency histogram needs before its p95 is
/// trusted for deadline admission — refusing on one slow cold-start sample
/// would starve the endpoint of the warm traffic that brings p95 down.
const DEADLINE_MIN_SAMPLES: u64 = 20;

/// Routes and resolves one request. Exposed for the in-process bench
/// harness and tests.
pub fn handle(request: &http::Request, engine: &Engine<api::ApiCall>) -> (Endpoint, Response) {
    match api::route(request) {
        Route::Healthz => (Endpoint::Healthz, api::healthz(engine.health())),
        // The catalogue is static metadata — answered inline, no engine
        // round-trip.
        Route::Experiments => (Endpoint::Experiments, api::experiments_response()),
        Route::Metrics => {
            let snap = engine.metrics().snapshot(
                engine.queue_depth(),
                engine.queue_cap(),
                engine.health(),
            );
            (
                Endpoint::Metrics,
                Response::json(200, snap.encode().into_bytes()),
            )
        }
        // Peer cache transfers touch only the artifact directory — no
        // engine round-trip, no computation, so a peer fetch can never
        // cascade into another peer fetch.
        Route::PeerFetch { name, key } => (Endpoint::Peer, api::peer_fetch_response(&name, key)),
        Route::PeerStore { name, key } => (
            Endpoint::Peer,
            api::peer_store_response(&name, key, &request.body),
        ),
        Route::Error(endpoint, response) => (endpoint, response),
        Route::Call(call) => {
            let endpoint = call.endpoint();
            // Deadline admission: a request whose propagated budget cannot
            // cover this endpoint's observed p95 is refused before it
            // queues — a fast 503 beats a slow one that still misses the
            // deadline and wasted a flight. Requests without the header
            // take the unmodified path (the byte-determinism gate).
            if let Some(ms) = request.deadline_ms {
                let stats = engine.metrics().endpoint(endpoint);
                let hopeless = ms == 0
                    || (stats.latency.count() >= DEADLINE_MIN_SAMPLES
                        && stats.latency.quantile_ms(0.95) > ms as f64);
                if hopeless {
                    engine
                        .metrics()
                        .deadline_refused
                        .fetch_add(1, Ordering::Relaxed);
                    let mut r = Response::error(503, "deadline budget cannot cover this endpoint");
                    r.extra_headers
                        .push(("x-bdc-deadline-refused".into(), "1".into()));
                    return (endpoint, r);
                }
            }
            // Brownout: under sustained queue pressure, endpoints with an
            // analytic estimate answer from it instead of joining the
            // queue — explicitly flagged, never cached.
            if engine.sample_pressure() {
                if let Some(mut r) = api::degraded_response(&call) {
                    engine
                        .metrics()
                        .brownout_served
                        .fetch_add(1, Ordering::Relaxed);
                    r.extra_headers
                        .push(("x-bdc-degraded".into(), "brownout".into()));
                    return (endpoint, r);
                }
            }
            let key = call.cache_key();
            let budget = request.deadline_ms.map(Duration::from_millis);
            let response = match engine.submit_with_budget(key, call, budget) {
                Submission::CacheHit(r) | Submission::Done(r) => (*r).clone(),
                Submission::Shed => {
                    let mut r = Response::error(429, "queue full; retry");
                    r.extra_headers.push(("retry-after".into(), "1".into()));
                    r
                }
                Submission::TimedOut => {
                    // The compute deadline expired. 503 + Retry-After
                    // tells a well-behaved client the result may well be
                    // cached by the time it retries.
                    let mut r = Response::error(503, "compute deadline exceeded; retry");
                    r.extra_headers.push(("retry-after".into(), "2".into()));
                    r
                }
                Submission::ShuttingDown => Response::error(503, "shutting down"),
            };
            (endpoint, response)
        }
    }
}
