//! Cluster integration tests: a real 3-shard in-process fleet behind the
//! real router, driven over TCP.
//!
//! The load-bearing claims: any shard (or the router) serves bodies
//! byte-identical to a standalone single-process server; a dead shard is
//! hidden by failover (no client-visible 5xx); the router's fleet views
//! aggregate per-shard state; the peer artifact protocol round-trips
//! through the router to the ring owner; a shard's `x-bdc-*` headers
//! survive the router; the keep-alive upstream pool survives a shard
//! restart without failing over and cannot starve a shard; and router and
//! shards drain within a second with idle clients open.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use bdc_cluster::cluster::{artifact_slot, key_slot, Ring};
use bdc_cluster::router::{start_router, RouterConfig};
use bdc_serve::api::{self, Route};
use bdc_serve::client::Connection;
use bdc_serve::http::{Method, Request};
use bdc_serve::json::{self, Json};
use bdc_serve::{EngineConfig, ServeConfig};

const RING_SEED: u64 = 42;
const VNODES: usize = 64;
/// Connection workers per shard.
const SHARD_THREADS: usize = 4;

/// Boots `n` in-process shard servers and a router over them. Returns
/// (shard handles, shard addrs, router handle, router addr).
fn boot_fleet(
    n: usize,
) -> (
    Vec<bdc_serve::ServerHandle>,
    Vec<String>,
    bdc_cluster::RouterHandle,
    String,
) {
    boot_fleet_with(n, shard_engine(), RouterConfig::default().conn_threads)
}

fn shard_engine() -> EngineConfig {
    EngineConfig {
        queue_cap: 16,
        max_batch: 8,
        ..EngineConfig::default()
    }
}

/// Boots shard `shard` on `addr` (port 0 picks one).
fn boot_shard(shard: usize, addr: &str, engine: EngineConfig) -> bdc_serve::ServerHandle {
    let cfg = ServeConfig {
        addr: addr.into(),
        conn_threads: SHARD_THREADS,
        engine,
        shard: Some(shard),
        ..ServeConfig::default()
    };
    bdc_serve::start(cfg).expect("bind shard")
}

/// [`boot_fleet`] with explicit shard engine knobs and router worker
/// count.
fn boot_fleet_with(
    n: usize,
    engine: EngineConfig,
    router_threads: usize,
) -> (
    Vec<bdc_serve::ServerHandle>,
    Vec<String>,
    bdc_cluster::RouterHandle,
    String,
) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..n {
        let handle = boot_shard(shard, "127.0.0.1:0", engine.clone());
        addrs.push(format!("127.0.0.1:{}", handle.port()));
        handles.push(handle);
    }
    let router = start_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: addrs.clone(),
        ring_seed: RING_SEED,
        vnodes: VNODES,
        proxy_retries: 3,
        conn_threads: router_threads,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let router_addr = format!("127.0.0.1:{}", router.port());
    (handles, addrs, router, router_addr)
}

fn boot_standalone() -> (bdc_serve::ServerHandle, String) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        conn_threads: 4,
        engine: EngineConfig {
            queue_cap: 16,
            max_batch: 8,
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = bdc_serve::start(cfg).expect("bind standalone");
    let addr = format!("127.0.0.1:{}", handle.port());
    (handle, addr)
}

fn body_json(body: &[u8]) -> Json {
    json::parse(std::str::from_utf8(body).expect("utf-8 body")).expect("json body")
}

/// The request mix: compute endpoints, the static catalogue, a validation
/// error, and a 404 — every body must be identical no matter who renders
/// it.
const PATHS: [&str; 5] = [
    "/v1/experiments",
    "/v1/library?process=silicon",
    "/v1/ipc?workload=gzip&outer=5&instructions=4000",
    "/v1/width?fe=99",
    "/v2/nope",
];

#[test]
fn any_shard_and_the_router_serve_byte_identical_bodies() {
    let (handles, addrs, router, router_addr) = boot_fleet(3);
    let (standalone, standalone_addr) = boot_standalone();

    for path in PATHS {
        let reference = Connection::open(&standalone_addr)
            .expect("connect standalone")
            .get(path)
            .expect("standalone get");
        assert!(
            reference.header("x-bdc-shard").is_none(),
            "standalone must not claim a shard id"
        );

        let via_router = Connection::open(&router_addr)
            .expect("connect router")
            .get(path)
            .expect("router get");
        assert_eq!(via_router.status, reference.status, "{path}");
        assert_eq!(via_router.body, reference.body, "router body for {path}");

        for (shard, addr) in addrs.iter().enumerate() {
            let direct = Connection::open(addr)
                .expect("connect shard")
                .get(path)
                .expect("direct get");
            assert_eq!(direct.status, reference.status, "{path} via shard {shard}");
            assert_eq!(direct.body, reference.body, "{path} via shard {shard}");
            assert_eq!(
                direct.header("x-bdc-shard"),
                Some(shard.to_string().as_str()),
                "direct response must carry its shard id"
            );
        }
    }

    // Proxied routes carry the answering shard's id, and a healthy fleet
    // never fails over — so the claimed shard is the slot owner.
    let mut conn = Connection::open(&router_addr).expect("connect router");
    let r = conn
        .get("/v1/ipc?workload=gzip&outer=5&instructions=4000")
        .expect("proxied get");
    let claimed: usize = r
        .header("x-bdc-shard")
        .expect("proxied response carries x-bdc-shard")
        .parse()
        .expect("numeric shard id");
    assert!(claimed < 3);
    let metrics = body_json(&conn.get("/v1/metrics").expect("metrics").body);
    assert_eq!(
        metrics
            .get("router")
            .and_then(|r| r.get("failovers"))
            .and_then(Json::as_u64),
        Some(0),
        "healthy fleet must not fail over"
    );

    router.shutdown();
    standalone.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn failover_hides_a_dead_shard_and_the_fleet_views_report_it() {
    let (mut handles, _addrs, router, router_addr) = boot_fleet(3);

    // Healthy fleet: overall ok, 3 shards ok, topology visible.
    let mut conn = Connection::open(&router_addr).expect("connect router");
    let health = body_json(&conn.get("/healthz").expect("healthz").body);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    let topo = body_json(&conn.get("/v1/cluster").expect("topology").body);
    assert_eq!(topo.get("shards").and_then(Json::as_u64), Some(3));
    assert_eq!(
        topo.get("members")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(3)
    );

    // Kill the shard that owns a proxied compute route, so at least one
    // of the requests below must fail over. The owner is discovered from
    // the healthy fleet's shard header rather than hard-coded — the key
    // layout (and therefore slot ownership) may legitimately change when
    // the response-cache salt does.
    let owner: usize = conn
        .get("/v1/ipc?workload=gzip&outer=5&instructions=4000")
        .expect("proxied get")
        .header("x-bdc-shard")
        .expect("proxied response carries x-bdc-shard")
        .parse()
        .expect("numeric shard id");
    handles.remove(owner).shutdown();

    // Every request must still succeed — the router fails over to a
    // surviving replica and the client never sees a 5xx.
    for round in 0..3 {
        for path in PATHS {
            let r = Connection::open(&router_addr)
                .expect("connect router")
                .get(path)
                .expect("get after kill");
            assert!(
                r.status < 500,
                "round {round}: {path} surfaced {} after shard kill",
                r.status
            );
        }
    }

    // The kill is visible in the fleet views even though clients are
    // insulated from it.
    let mut conn = Connection::open(&router_addr).expect("reconnect router");
    let health = body_json(&conn.get("/healthz").expect("healthz").body);
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("degraded")
    );
    let down = match health.get("shards") {
        Some(Json::Arr(rows)) => rows
            .iter()
            .filter(|r| r.get("status").and_then(Json::as_str) == Some("down"))
            .count(),
        _ => 0,
    };
    assert_eq!(down, 1, "exactly one shard is down: {health:?}");

    let metrics = body_json(&conn.get("/v1/metrics").expect("metrics").body);
    let router_section = metrics.get("router").expect("router section");
    assert_eq!(router_section.get("shards").and_then(Json::as_u64), Some(3));
    assert!(
        router_section
            .get("failovers")
            .and_then(Json::as_u64)
            .expect("failovers counter")
            > 0,
        "requests owned by the dead shard must have failed over"
    );
    assert_eq!(
        router_section.get("exhausted").and_then(Json::as_u64),
        Some(0),
        "no request may exhaust its failover budget with 2 shards alive"
    );
    let ups = match metrics.get("shards") {
        Some(Json::Arr(rows)) => rows
            .iter()
            .filter(|r| r.get("up") == Some(&Json::Bool(true)))
            .count(),
        _ => 0,
    };
    assert_eq!(ups, 2, "metrics must report exactly two shards up");
    assert!(
        metrics
            .get("fleet")
            .and_then(|f| f.get("requests"))
            .and_then(Json::as_u64)
            .expect("fleet request sum")
            > 0,
        "fleet sum must aggregate the surviving shards' counters"
    );

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn peer_artifact_protocol_round_trips_through_the_router() {
    let (handles, _addrs, router, router_addr) = boot_fleet(3);

    let name = "clustertest";
    let key = 0x00ab_u64;
    let payload = "peer payload, framed and checksummed\n";
    let framed = bdc_exec::frame_artifact(payload);

    // Store via the router: routed to the artifact's ring owner.
    let mut conn = Connection::open(&router_addr).expect("connect router");
    let store = conn
        .post(
            &format!("/v1/peer/artifact?name={name}&key={key:016x}"),
            &framed,
        )
        .expect("peer store");
    assert_eq!(
        store.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&store.body)
    );
    let owner = store
        .header("x-bdc-shard")
        .expect("store carries owner id")
        .to_string();
    assert_eq!(
        owner,
        Ring::new(3, VNODES, RING_SEED)
            .owner(artifact_slot(name, key))
            .to_string(),
        "peer routes must land on the ring owner"
    );

    // Fetch it back via the router: same owner, identical framed bytes.
    let fetch = conn
        .get(&format!("/v1/peer/artifact?name={name}&key={key:016x}"))
        .expect("peer fetch");
    assert_eq!(fetch.status, 200);
    assert_eq!(fetch.body, framed.as_bytes(), "framed round trip");
    assert_eq!(fetch.header("x-bdc-shard"), Some(owner.as_str()));

    // A missing artifact is a clean 404 through the same path.
    let miss = conn
        .get("/v1/peer/artifact?name=definitely-absent&key=00000000000000ff")
        .expect("peer miss");
    assert_eq!(miss.status, 404);

    // Bad addresses are rejected before touching any shard: the error is
    // rendered locally by the router, so it carries no shard id.
    let bad = conn
        .get("/v1/peer/artifact?name=../evil&key=zz")
        .expect("peer bad");
    assert_eq!(bad.status, 400);
    assert!(bad.header("x-bdc-shard").is_none());

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// The ring owner of a computational call, as the router computes it.
fn owner_of(path_query: &str) -> usize {
    let (path, query) = path_query.split_once('?').unwrap_or((path_query, ""));
    let request = Request {
        method: Method::Get,
        path: path.into(),
        query: query.into(),
        body: Vec::new(),
        keep_alive: true,
        deadline_ms: None,
    };
    match api::route(&request) {
        Route::Call(call) => Ring::new(3, VNODES, RING_SEED).owner(key_slot(call.cache_key())),
        _ => panic!("{path_query} is not a computational call"),
    }
}

/// A never-seen IPC query that simulates for a few hundred milliseconds.
/// Its instruction cap is unique per call and per run, so neither the
/// response cache nor the artifact cache can answer it.
fn slow_fresh_ipc() -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let cap =
        4_000_000 + (nanos / 1_000 + NEXT.fetch_add(1, Ordering::Relaxed) * 7_919) % 1_000_000;
    format!("/v1/ipc?workload=gap&outer=2000&instructions={cap}")
}

/// The router's own `/v1/metrics` section.
fn router_metrics(router_addr: &str) -> Json {
    let r = Connection::open(router_addr)
        .expect("connect router")
        .get("/v1/metrics")
        .expect("metrics");
    body_json(&r.body)
        .get("router")
        .cloned()
        .expect("router section")
}

/// Asserts the router neither failed over nor recorded a breaker failure.
fn assert_no_failover_and_no_breaker_failure(router_addr: &str) {
    let m = router_metrics(router_addr);
    assert_eq!(m.get("failovers").and_then(Json::as_u64), Some(0), "{m:?}");
    for b in m.get("breakers").and_then(Json::as_arr).expect("breakers") {
        assert_eq!(
            b.get("failure_rate").and_then(Json::as_f64),
            Some(0.0),
            "{m:?}"
        );
        assert_eq!(
            b.get("opened_total").and_then(Json::as_u64),
            Some(0),
            "{m:?}"
        );
    }
}

/// GETs `path` on a fresh connection and returns the answer and how long
/// it took.
fn timed_get(addr: &str, path: &str) -> (bdc_serve::client::ClientResponse, Duration) {
    let t0 = Instant::now();
    let r = Connection::open(addr)
        .expect("connect")
        .get(path)
        .expect("get");
    (r, t0.elapsed())
}

#[test]
fn a_shards_brownout_header_survives_the_router() {
    // One queue slot and one job per batch: a computing job plus one
    // queued job hold the shard's queue at capacity, which is pressure.
    let engine = EngineConfig {
        queue_cap: 1,
        max_batch: 1,
        ..shard_engine()
    };
    let (handles, addrs, router, router_addr) =
        boot_fleet_with(3, engine, RouterConfig::default().conn_threads);
    let depth = "/v1/depth?process=silicon&stages=11";
    let shard = owner_of(depth);
    let engine_gauge = |field: &str| {
        let (r, _) = timed_get(&addrs[shard], "/v1/metrics");
        body_json(&r.body)
            .get("engine")
            .and_then(|e| e.get(field))
            .and_then(Json::as_u64)
            .expect("engine gauge")
    };
    let wait_until = |done: &dyn Fn() -> bool| {
        let t0 = Instant::now();
        while !done() && t0.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let block = || {
        let (addr, path) = (addrs[shard].clone(), slow_fresh_ipc());
        std::thread::spawn(move || Connection::open(&addr).and_then(|mut c| c.get(&path)))
    };

    // The queue is held for one simulation, so a slow machine may miss
    // the window; each try uses fresh blockers.
    let mut routed = None;
    for _ in 0..5 {
        // One simulation computing, then one waiting in the queue.
        let taken = engine_gauge("batched_jobs");
        let mut blockers = vec![block()];
        wait_until(&|| engine_gauge("batched_jobs") > taken);
        blockers.push(block());
        wait_until(&|| engine_gauge("queue_depth") == 1);
        // Direct samples build the pressure streak until brownout trips...
        let mut direct = None;
        for _ in 0..5 {
            let (r, _) = timed_get(&addrs[shard], depth);
            if r.header("x-bdc-degraded").is_some() {
                direct = Some(r);
                break;
            }
        }
        // ...and the next routed request is answered in brownout too.
        if let Some(direct) = direct {
            let (r, _) = timed_get(&router_addr, depth);
            if r.header("x-bdc-degraded").is_some() {
                assert_eq!(r.body, direct.body, "routed brownout body");
                routed = Some(r);
            }
        }
        for b in blockers {
            let _ = b.join();
        }
        if routed.is_some() {
            break;
        }
    }
    let r = routed.expect("the shard never browned out under a held queue");
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-bdc-degraded"), Some("brownout"));
    assert_eq!(
        r.header("x-bdc-shard"),
        Some(shard.to_string().as_str()),
        "the router sets the shard id, once"
    );
    assert_eq!(
        r.headers.iter().filter(|(n, _)| n == "x-bdc-shard").count(),
        1
    );

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn a_stale_pooled_connection_reaches_the_restarted_shard_without_failover() {
    let (mut handles, addrs, router, router_addr) = boot_fleet(3);
    let path = "/v1/ipc?workload=gzip&outer=5&instructions=4000";
    let owner = owner_of(path);
    let mut conn = Connection::open(&router_addr).expect("connect router");
    let before = conn.get(path).expect("warm the pool");
    assert_eq!(before.status, 200);
    assert_eq!(
        router.idle_upstream(owner),
        1,
        "the upstream connection is pooled"
    );

    // Restart the owner on the same port: the pooled connection is now
    // closed at the far end.
    let port = handles[owner].port();
    handles.remove(owner).shutdown();
    let restarted = boot_shard(owner, &format!("127.0.0.1:{port}"), shard_engine());
    handles.insert(owner, restarted);
    assert_eq!(addrs[owner], format!("127.0.0.1:{port}"));

    let after = conn.get(path).expect("request after restart");
    assert_eq!(after.status, 200);
    assert_eq!(after.body, before.body);
    assert_eq!(
        after.header("x-bdc-shard"),
        Some(owner.to_string().as_str())
    );
    assert_no_failover_and_no_breaker_failure(&router_addr);

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn a_full_upstream_pool_does_not_starve_the_shard() {
    // As many router workers as shard workers: a full pool to one shard
    // holds a connection on every one of its workers.
    let (handles, addrs, router, router_addr) = boot_fleet_with(3, shard_engine(), SHARD_THREADS);
    let name = "starvation";
    let key = 0x5eed_u64;
    let peer_path = format!("/v1/peer/artifact?name={name}&key={key:016x}");
    let framed = bdc_exec::frame_artifact("pooled connections must yield\n");
    let shard = Ring::new(3, VNODES, RING_SEED).owner(artifact_slot(name, key));
    let stored = Connection::open(&addrs[shard])
        .expect("connect shard")
        .post(&peer_path, &framed)
        .expect("peer store");
    assert_eq!(stored.status, 200);

    // Fill the pool: identical slow requests from every router worker at
    // once coalesce onto one simulation, so all of them hold an upstream
    // connection at the same time and all are pooled afterwards.
    for _ in 0..5 {
        let path = loop {
            let p = slow_fresh_ipc();
            if owner_of(&p) == shard {
                break p;
            }
        };
        let barrier = std::sync::Barrier::new(SHARD_THREADS);
        std::thread::scope(|s| {
            for _ in 0..SHARD_THREADS {
                s.spawn(|| {
                    let mut c = Connection::open(&router_addr).expect("connect router");
                    barrier.wait();
                    assert_eq!(c.get(&path).expect("slow request").status, 200);
                });
            }
        });
        if router.idle_upstream(shard) == SHARD_THREADS {
            break;
        }
    }
    assert_eq!(
        router.idle_upstream(shard),
        SHARD_THREADS,
        "pool at its maximum"
    );

    let (health, took) = timed_get(&addrs[shard], "/healthz");
    assert_eq!(health.status, 200);
    assert!(took <= Duration::from_secs(1), "/healthz took {took:?}");
    let (fetch, took) = timed_get(&addrs[shard], &peer_path);
    assert_eq!(fetch.status, 200);
    assert_eq!(fetch.body, framed.as_bytes());
    assert!(took <= Duration::from_secs(1), "peer fetch took {took:?}");

    // The connections the shard gave back are stale in the pool; routed
    // requests still reach the shard without failing over.
    let (r, _) = timed_get(&router_addr, &peer_path);
    assert_eq!(r.status, 200);
    assert_eq!(r.header("x-bdc-shard"), Some(shard.to_string().as_str()));
    assert_no_failover_and_no_breaker_failure(&router_addr);

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn router_and_shards_drain_promptly_with_idle_keep_alive_clients() {
    let (handles, addrs, router, router_addr) = boot_fleet(3);
    let path = "/v1/ipc?workload=gzip&outer=5&instructions=4000";
    // Idle keep-alive clients on the router and on a shard; the routed
    // request also leaves a pooled connection idle on its owner.
    let mut routed = Connection::open(&router_addr).expect("connect router");
    assert_eq!(routed.get(path).expect("routed").status, 200);
    let mut direct = Connection::open(&addrs[owner_of(path)]).expect("connect shard");
    assert_eq!(direct.get("/healthz").expect("direct").status, 200);

    let t0 = Instant::now();
    router.shutdown();
    let took = t0.elapsed();
    assert!(took <= Duration::from_secs(1), "router drain took {took:?}");
    for h in handles {
        let t0 = Instant::now();
        h.shutdown();
        let took = t0.elapsed();
        assert!(took <= Duration::from_secs(1), "shard drain took {took:?}");
    }
    // Both idle clients were closed, not abandoned.
    assert!(routed.get(path).is_err());
    assert!(direct.get("/healthz").is_err());
}
