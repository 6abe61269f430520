//! The shard router: one front door for an N-shard `bdc_serve` fleet.
//!
//! Every request is routed by the same seeded consistent-hash ring the
//! shards build their peer-fetch topology from ([`bdc_exec::cluster`]):
//! a computational call's slot is derived from its canonical cache key, so
//! the same query always lands on the same shard (maximizing that shard's
//! response-cache and coalescing hit rates), and a peer artifact transfer
//! lands on the artifact's ring owner. Static and invalid requests are
//! answered locally — the bodies are deterministic, so a router-rendered
//! 404 is byte-identical to a shard-rendered one.
//!
//! **Failover:** a proxied request that dies in transport or comes back
//! retryable (429/500/503/504) is re-sent to the next distinct shard in
//! ring order ([`Ring::replicas`]) after a seeded backoff, up to a bounded
//! number of attempts; only when every attempt is spent does the client
//! see a `502`. Because any shard serves byte-identical bodies, failover
//! is invisible except for the `x-bdc-shard` header.
//!
//! **Circuit breakers:** each shard carries a [`Breaker`] over a rolling
//! window of attempt outcomes and latencies. An open breaker takes its
//! shard out of the replica walk entirely (no connect timeout paid), then
//! half-opens after a bounded number of bypasses to admit a live probe
//! request; the probe's outcome closes or reopens it. Closed breakers are
//! byte-inert — the zero-fault determinism gate routes exactly as before.
//!
//! **Deadline propagation:** a request carrying `x-bdc-deadline-ms` has
//! the router's own elapsed time subtracted before each attempt, the
//! remainder forwarded downstream (the shard refuses work the remainder
//! cannot cover), and its failover loop stops the moment the budget runs
//! out — a fast 503 instead of a doomed slow retry chain.
//!
//! **Fleet observability:** the router answers `/healthz` with per-shard
//! `ok|degraded|draining|down` states, `/v1/metrics` with its own proxy
//! counters plus every shard's snapshot and a fleet-wide sum, and
//! `/v1/cluster` with the ring topology.

use std::io::ErrorKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bdc_exec::cluster::{artifact_slot, key_slot, Ring};
use bdc_exec::faults;
use bdc_serve::api::{self, Route};
use bdc_serve::client::{self, ClientResponse, Connection};
use bdc_serve::conn::{ListenConfig, Listener, Service};
use bdc_serve::json::{self, Json};
use bdc_serve::{http, Response};

use crate::breaker::{Breaker, BreakerConfig, BreakerDecision};

/// Per-attempt connect/read deadline for proxied requests. Generous
/// enough for a cold characterization on the shard (seconds), small
/// enough that a dead shard fails over quickly on connect.
const PROXY_TIMEOUT: Duration = Duration::from_secs(60);

/// Short deadline for the fan-out aggregation calls (`/healthz`,
/// `/v1/metrics`): a down shard must not stall the fleet view.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// Idle and per-request read/write deadline on client connections.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (port 0 picks an ephemeral port).
    pub addr: String,
    /// One backend address per shard, in shard-id order.
    pub shard_addrs: Vec<String>,
    /// Ring seed — must match the fleet's `BDC_RING_SEED`.
    pub ring_seed: u64,
    /// Virtual nodes per shard.
    pub vnodes: usize,
    /// Extra proxy attempts after the first (failover budget).
    pub proxy_retries: u32,
    /// Connection-worker threads.
    pub conn_threads: usize,
    /// Accepted sockets that may wait for a worker before shedding.
    pub conn_backlog: usize,
    /// Per-shard circuit-breaker knobs.
    pub breaker: BreakerConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shard_addrs: Vec::new(),
            ring_seed: 0,
            vnodes: bdc_exec::cluster::DEFAULT_VNODES,
            proxy_retries: 3,
            conn_threads: 8,
            conn_backlog: 64,
            breaker: BreakerConfig::default(),
        }
    }
}

/// The router's own counters (shard counters live on the shards).
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Requests proxied to a shard (excludes locally answered ones).
    pub proxied: AtomicU64,
    /// Attempts that failed over to another replica.
    pub failovers: AtomicU64,
    /// Requests whose whole failover budget was spent (answered 502).
    pub exhausted: AtomicU64,
    /// Requests answered by the router itself (health, metrics,
    /// topology, validation errors).
    pub local: AtomicU64,
    /// Connections shed at accept time.
    pub shed: AtomicU64,
    /// Attempts skipped because the candidate shard's breaker was open.
    pub breaker_skips: AtomicU64,
    /// Probe requests admitted by a half-open breaker.
    pub breaker_probes: AtomicU64,
    /// Times any shard's breaker opened (including reopens).
    pub breaker_opened: AtomicU64,
    /// Requests whose propagated deadline budget ran out inside the
    /// router (answered 503 without further failover).
    pub deadline_exhausted: AtomicU64,
}

struct Shared {
    cfg: RouterConfig,
    ring: Ring,
    metrics: RouterMetrics,
    /// One breaker per shard, indexed like `cfg.shard_addrs`.
    breakers: Vec<Breaker>,
    /// Idle keep-alive connections per shard, indexed like
    /// `cfg.shard_addrs`, most recently used last. Each connection worker
    /// holds at most one upstream connection at a time, so a shard's pool
    /// never needs more than `cfg.conn_threads` of them.
    pools: Vec<Mutex<Vec<Connection>>>,
}

/// Whether a request failure on a reused connection means the shard
/// closed it while idle (restart, drain, idle give-back): the request
/// never ran, so it is resent on a fresh connection. A timeout is not
/// stale — the shard may be computing.
fn stale(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
    )
}

impl Shared {
    /// Sends one request to `shard` over a pooled keep-alive connection,
    /// or a fresh one when the pool is empty. A reused connection that
    /// fails before any response byte is retried once on a fresh
    /// connection to the same shard — not a failover, and invisible to
    /// the breaker, which sees only the final outcome.
    fn call(
        &self,
        shard: usize,
        timeout: Duration,
        send: impl Fn(&mut Connection) -> std::io::Result<ClientResponse>,
    ) -> std::io::Result<ClientResponse> {
        let pool = &self.pools[shard];
        let pooled = pool.lock().unwrap_or_else(|p| p.into_inner()).pop();
        if let Some(mut conn) = pooled {
            let result = conn.set_timeout(timeout).and_then(|()| send(&mut conn));
            match result {
                Ok(r) => return Ok(self.recycle(shard, conn, r)),
                Err(e) if conn.response_started() || !stale(&e) => return Err(e),
                // One idle connection went stale, so the shard probably
                // restarted: its other idle connections are stale too.
                Err(_) => pool.lock().unwrap_or_else(|p| p.into_inner()).clear(),
            }
        }
        let mut conn = Connection::open_with_timeout(&self.cfg.shard_addrs[shard], timeout)?;
        let r = send(&mut conn)?;
        Ok(self.recycle(shard, conn, r))
    }

    /// Returns a connection to its shard's pool unless the shard asked to
    /// close it or the pool is full.
    fn recycle(&self, shard: usize, conn: Connection, r: ClientResponse) -> ClientResponse {
        if r.header("connection") != Some("close") {
            let mut pool = self.pools[shard].lock().unwrap_or_else(|p| p.into_inner());
            if pool.len() < self.cfg.conn_threads.max(1) {
                pool.push(conn);
            }
        }
        r
    }
}

/// The router as a connection-layer [`Service`].
struct Proxy(Arc<Shared>);

impl Service for Proxy {
    fn respond(&self, request: &http::Request, _arrived: Instant) -> Response {
        handle(request, &self.0)
    }

    fn shed(&self) {
        self.0.metrics.shed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running router.
pub struct RouterHandle {
    listener: Listener,
    shared: Arc<Shared>,
}

impl RouterHandle {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.listener.port()
    }

    /// The router's proxy counters.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.shared.metrics
    }

    /// Idle keep-alive connections the router holds to `shard`.
    pub fn idle_upstream(&self, shard: usize) -> usize {
        self.shared.pools[shard]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .len()
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests, join
    /// every thread, then close the idle upstream connections so the
    /// shards drain without waiting on them.
    pub fn shutdown(self) {
        self.listener.join();
        for pool in &self.shared.pools {
            pool.lock().unwrap_or_else(|p| p.into_inner()).clear();
        }
    }
}

/// Binds the router and spawns its acceptor + connection workers.
///
/// # Errors
/// Propagates bind failures; rejects an empty shard list.
pub fn start_router(cfg: RouterConfig) -> std::io::Result<RouterHandle> {
    if cfg.shard_addrs.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "router needs at least one shard address",
        ));
    }
    let listen = ListenConfig {
        addr: cfg.addr.clone(),
        name: "bdc-router",
        threads: cfg.conn_threads,
        backlog: cfg.conn_backlog,
        read_timeout: CLIENT_TIMEOUT,
        write_timeout: CLIENT_TIMEOUT,
    };
    let shards = cfg.shard_addrs.len();
    let shared = Arc::new(Shared {
        ring: Ring::new(shards, cfg.vnodes, cfg.ring_seed),
        metrics: RouterMetrics::default(),
        breakers: (0..shards)
            .map(|_| Breaker::new(cfg.breaker.clone()))
            .collect(),
        pools: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        cfg,
    });
    let listener = Listener::start(listen, Arc::new(Proxy(Arc::clone(&shared))))?;
    Ok(RouterHandle { listener, shared })
}

/// Routes one request: answered locally (health, metrics, topology,
/// validation errors) or proxied to a shard chosen by the ring with
/// bounded failover.
fn handle(request: &http::Request, shared: &Shared) -> Response {
    // `/v1/cluster` exists only on the router (shards know their own id,
    // not the fleet), so it is matched before the shared route table.
    if request.path == "/v1/cluster" {
        shared.metrics.local.fetch_add(1, Ordering::Relaxed);
        return topology(shared);
    }
    match api::route(request) {
        Route::Healthz => {
            shared.metrics.local.fetch_add(1, Ordering::Relaxed);
            healthz(shared)
        }
        Route::Metrics => {
            shared.metrics.local.fetch_add(1, Ordering::Relaxed);
            metrics(shared)
        }
        // The catalogue is static and identical on every shard; answering
        // locally keeps it off the proxy path entirely.
        Route::Experiments => {
            shared.metrics.local.fetch_add(1, Ordering::Relaxed);
            api::experiments_response()
        }
        // Validation failures render deterministically — a router-rendered
        // 400/404 is byte-identical to a shard-rendered one.
        Route::Error(_, response) => {
            shared.metrics.local.fetch_add(1, Ordering::Relaxed);
            response
        }
        Route::Call(call) => proxy(request, shared, key_slot(call.cache_key())),
        Route::PeerFetch { name, key } | Route::PeerStore { name, key } => {
            proxy(request, shared, artifact_slot(&name, key))
        }
    }
}

/// Proxies a request to the slot's owner, failing over along the replica
/// order with seeded backoff until the per-request attempt budget — or
/// the request's propagated deadline budget — is spent. Candidate shards
/// whose circuit breaker is open are skipped (the breaker's half-open
/// probe admits one live request through); when every candidate's breaker
/// is open the nominal owner is tried anyway — fail-static beats failing
/// closed on a fully-tripped fleet.
fn proxy(request: &http::Request, shared: &Shared, slot: u64) -> Response {
    let body = match std::str::from_utf8(&request.body) {
        Ok(b) => b,
        Err(_) => return Response::error(400, "body is not utf-8"),
    };
    let path_query = if request.query.is_empty() {
        request.path.clone()
    } else {
        format!("{}?{}", request.path, request.query)
    };
    shared.metrics.proxied.fetch_add(1, Ordering::Relaxed);
    // bdc-lint: allow(D002, deadline-budget tracking, not artifact bytes)
    let t0 = Instant::now();
    let replicas = shared.ring.replicas(slot);
    let attempts = shared.cfg.proxy_retries as usize + 1;
    let mut last_status = None;
    for attempt in 0..attempts {
        if attempt > 0 {
            shared.metrics.failovers.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(faults::backoff_delay(&path_query, attempt as u64));
        }
        // Deadline subtraction: each attempt sees what is left of the
        // client's budget after the router's own elapsed time. An empty
        // remainder ends the failover loop — a fast 503 beats burning
        // replicas on a request nobody is waiting for anymore.
        let remaining_ms = request
            .deadline_ms
            .map(|ms| ms.saturating_sub(t0.elapsed().as_millis() as u64));
        if remaining_ms == Some(0) {
            shared
                .metrics
                .deadline_exhausted
                .fetch_add(1, Ordering::Relaxed);
            let mut r = Response::error(503, "deadline budget exhausted in router");
            r.extra_headers
                .push(("x-bdc-deadline-refused".into(), "1".into()));
            return r;
        }
        // Breaker walk: the first candidate (in ring order from this
        // attempt) whose breaker admits the request.
        let mut shard = replicas[attempt % replicas.len()];
        let mut decision = shared.breakers[shard].decide();
        if decision == BreakerDecision::Skip {
            shared.metrics.breaker_skips.fetch_add(1, Ordering::Relaxed);
            for step in 1..replicas.len() {
                let candidate = replicas[(attempt + step) % replicas.len()];
                match shared.breakers[candidate].decide() {
                    BreakerDecision::Skip => {
                        shared.metrics.breaker_skips.fetch_add(1, Ordering::Relaxed);
                    }
                    admitted => {
                        shard = candidate;
                        decision = admitted;
                        break;
                    }
                }
            }
            // Every breaker open: fall through with the nominal candidate.
        }
        if decision == BreakerDecision::Probe {
            shared
                .metrics
                .breaker_probes
                .fetch_add(1, Ordering::Relaxed);
        }
        // An injected partition severs this attempt before any bytes move
        // — the seeded roll heals across attempts, so failover recovers.
        let partitioned = faults::inject_partition(&path_query, attempt as u64);
        // bdc-lint: allow(D002, breaker latency telemetry, not artifact bytes)
        let attempt_start = Instant::now();
        let result = if partitioned {
            Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected partition",
            ))
        } else {
            let timeout = match remaining_ms {
                Some(ms) => PROXY_TIMEOUT.min(Duration::from_millis(ms)),
                None => PROXY_TIMEOUT,
            };
            shared.call(shard, timeout, |c| {
                c.request(request.method, &path_query, body, remaining_ms)
            })
        };
        let failed = match &result {
            Ok(r) => client::is_retryable(r.status),
            Err(_) => true,
        };
        let elapsed_ms = attempt_start.elapsed().as_millis() as u64;
        let transitioned =
            shared.breakers[shard].record(decision == BreakerDecision::Probe, failed, elapsed_ms);
        if transitioned && shared.breakers[shard].is_open() {
            shared
                .metrics
                .breaker_opened
                .fetch_add(1, Ordering::Relaxed);
        }
        match result {
            Ok(r) if !failed => {
                // The shard's own `x-bdc-*` annotations (e.g. a brownout's
                // `x-bdc-degraded`) pass through; the shard id is the
                // router's to set.
                let mut resp = Response::json(r.status, r.body);
                resp.extra_headers = r
                    .headers
                    .into_iter()
                    .filter(|(name, _)| name.starts_with("x-bdc-") && name != "x-bdc-shard")
                    .collect();
                resp.extra_headers
                    .push(("x-bdc-shard".into(), shard.to_string()));
                return resp;
            }
            Ok(r) => last_status = Some(r.status),
            Err(_) => {}
        }
    }
    shared.metrics.exhausted.fetch_add(1, Ordering::Relaxed);
    let detail = match last_status {
        Some(s) => format!("all replicas failed (last status {s})"),
        None => "all replicas unreachable".to_string(),
    };
    Response::error(502, &detail)
}

/// One aggregation probe: `GET path` on a shard with a short deadline.
fn probe(shared: &Shared, shard: usize, path: &str) -> Option<client::ClientResponse> {
    shared.call(shard, PROBE_TIMEOUT, |c| c.get(path)).ok()
}

/// The fleet `/healthz`: per-shard `ok|degraded|draining|down` plus an
/// overall state — `ok` when every shard is ok, `down` (503) when no
/// shard answers, `degraded` otherwise.
fn healthz(shared: &Shared) -> Response {
    let mut states = Vec::with_capacity(shared.cfg.shard_addrs.len());
    for shard in 0..shared.cfg.shard_addrs.len() {
        let state = match probe(shared, shard, "/healthz") {
            Some(r) => json::parse(&String::from_utf8_lossy(&r.body))
                .ok()
                .and_then(|j| j.get("status").and_then(|s| s.as_str().map(String::from)))
                .unwrap_or_else(|| "down".to_string()),
            None => "down".to_string(),
        };
        states.push(state);
    }
    let up = states.iter().filter(|s| s.as_str() != "down").count();
    let overall = if up == 0 {
        "down"
    } else if states.iter().all(|s| s == "ok") {
        "ok"
    } else {
        "degraded"
    };
    let body = Json::Obj(vec![
        ("status".into(), Json::str(overall)),
        (
            "shards".into(),
            Json::Arr(
                states
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        Json::Obj(vec![
                            ("shard".into(), Json::Int(i as i64)),
                            ("status".into(), Json::str(s.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let code = if up == 0 { 503 } else { 200 };
    Response::json(code, body.encode().into_bytes())
}

/// Fields summed across shards into the fleet view: per-endpoint request
/// outcomes from `endpoints.*`, cache effectiveness from `engine.*`, and
/// the survival counters from `faults.*`.
const FLEET_ENGINE_FIELDS: [&str; 3] = ["cache_hits", "coalesced", "queue_shed"];
const FLEET_FAULT_FIELDS: [&str; 5] = [
    "quarantined",
    "rebuilt",
    "peer_hits",
    "peer_misses",
    "peer_pushes",
];
const FLEET_ENDPOINT_FIELDS: [&str; 4] = ["requests", "ok", "shed", "server_error"];

/// The fleet `/v1/metrics`: the router's own proxy counters, every
/// shard's full snapshot (or `null` for a down shard), and a fleet-wide
/// sum of the cross-shard counters.
fn metrics(shared: &Shared) -> Response {
    let m = &shared.metrics;
    let load = |a: &AtomicU64| Json::Int(a.load(Ordering::Relaxed) as i64);
    let mut shard_snaps = Vec::with_capacity(shared.cfg.shard_addrs.len());
    for shard in 0..shared.cfg.shard_addrs.len() {
        let snap = probe(shared, shard, "/v1/metrics")
            .and_then(|r| json::parse(&String::from_utf8_lossy(&r.body)).ok());
        shard_snaps.push(snap);
    }

    let mut fleet: Vec<(String, i64)> = Vec::new();
    let mut add = |key: &str, v: u64| match fleet.iter_mut().find(|(k, _)| k == key) {
        Some((_, total)) => *total += v as i64,
        None => fleet.push((key.to_string(), v as i64)),
    };
    for snap in shard_snaps.iter().flatten() {
        for field in FLEET_ENDPOINT_FIELDS {
            let mut total = 0;
            if let Some(Json::Obj(endpoints)) = snap.get("endpoints") {
                for (_, stats) in endpoints {
                    total += stats.get(field).and_then(Json::as_u64).unwrap_or(0);
                }
            }
            add(field, total);
        }
        for field in FLEET_ENGINE_FIELDS {
            let v = snap
                .get("engine")
                .and_then(|e| e.get(field))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            add(field, v);
        }
        for field in FLEET_FAULT_FIELDS {
            let v = snap
                .get("faults")
                .and_then(|f| f.get(field))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            add(field, v);
        }
    }

    let body = Json::Obj(vec![
        (
            "router".into(),
            Json::Obj(vec![
                ("proxied".into(), load(&m.proxied)),
                ("failovers".into(), load(&m.failovers)),
                ("exhausted".into(), load(&m.exhausted)),
                ("local".into(), load(&m.local)),
                ("shed".into(), load(&m.shed)),
                ("breaker_skips".into(), load(&m.breaker_skips)),
                ("breaker_probes".into(), load(&m.breaker_probes)),
                ("breaker_opened".into(), load(&m.breaker_opened)),
                ("deadline_exhausted".into(), load(&m.deadline_exhausted)),
                (
                    "shards".into(),
                    Json::Int(shared.cfg.shard_addrs.len() as i64),
                ),
                (
                    "breakers".into(),
                    Json::Arr(
                        shared
                            .breakers
                            .iter()
                            .enumerate()
                            .map(|(i, b)| {
                                let snap = b.snapshot();
                                Json::Obj(vec![
                                    ("shard".into(), Json::Int(i as i64)),
                                    ("state".into(), Json::str(snap.state)),
                                    ("failure_rate".into(), Json::Num(snap.failure_rate)),
                                    ("mean_ms".into(), Json::Num(snap.mean_ms)),
                                    ("opened_total".into(), Json::Int(snap.opened_total as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "shards".into(),
            Json::Arr(
                shard_snaps
                    .into_iter()
                    .enumerate()
                    .map(|(i, snap)| {
                        Json::Obj(vec![
                            ("shard".into(), Json::Int(i as i64)),
                            ("up".into(), Json::Bool(snap.is_some())),
                            ("metrics".into(), snap.unwrap_or(Json::Null)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fleet".into(),
            Json::Obj(fleet.into_iter().map(|(k, v)| (k, Json::Int(v))).collect()),
        ),
    ]);
    Response::json(200, body.encode().into_bytes())
}

/// The `/v1/cluster` topology body: fleet shape plus each member's
/// address, so tools can discover shards through the router.
fn topology(shared: &Shared) -> Response {
    let body = Json::Obj(vec![
        (
            "shards".into(),
            Json::Int(shared.cfg.shard_addrs.len() as i64),
        ),
        ("ring_seed".into(), Json::Int(shared.cfg.ring_seed as i64)),
        ("vnodes".into(), Json::Int(shared.cfg.vnodes as i64)),
        (
            "members".into(),
            Json::Arr(
                shared
                    .cfg
                    .shard_addrs
                    .iter()
                    .enumerate()
                    .map(|(i, addr)| {
                        Json::Obj(vec![
                            ("shard".into(), Json::Int(i as i64)),
                            ("addr".into(), Json::str(addr.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Response::json(200, body.encode().into_bytes())
}
