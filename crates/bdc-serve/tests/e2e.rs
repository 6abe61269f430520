//! End-to-end tests: boot the real daemon stack on an ephemeral port,
//! drive it over TCP with the real client, and check routing, validation,
//! metrics accounting, and graceful shutdown.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bdc_serve::client::{get_once, Connection};
use bdc_serve::json::{self, Json};
use bdc_serve::{EngineConfig, ServeConfig};

fn boot() -> (bdc_serve::ServerHandle, String) {
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
    let handle = bdc_serve::start(cfg).expect("bind ephemeral port");
    let addr = format!("127.0.0.1:{}", handle.port());
    (handle, addr)
}

fn body_json(body: &[u8]) -> Json {
    json::parse(std::str::from_utf8(body).expect("utf-8 body")).expect("json body")
}

#[test]
fn serves_a_mixed_session_end_to_end() {
    let (handle, addr) = boot();
    let mut conn = Connection::open(&addr).expect("connect");

    // Liveness.
    let r = conn.get("/healthz").expect("healthz");
    assert_eq!(r.status, 200);
    assert_eq!(
        body_json(&r.body).get("status").and_then(Json::as_str),
        Some("ok")
    );

    // A real computation over GET...
    let r = conn
        .get("/v1/ipc?workload=gzip&outer=5&instructions=4000&process=silicon")
        .expect("ipc");
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    let v = body_json(&r.body);
    assert!(v.get("ipc").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(v.get("cycles").and_then(Json::as_u64).unwrap() > 0);

    // ...and the same query as a POST body normalizes to the same bytes.
    let r2 = conn
        .post(
            "/v1/ipc",
            r#"{"workload":"gzip","outer":5,"instructions":4000,"process":"silicon"}"#,
        )
        .expect("ipc post");
    assert_eq!(r2.status, 200);
    assert_eq!(r.body, r2.body, "GET and POST bodies must coincide");

    // Validation failures are 400 with a JSON error, not a closed socket.
    let r = conn.get("/v1/width?fe=99").expect("bad width");
    assert_eq!(r.status, 400);
    assert!(body_json(&r.body).get("error").is_some());

    // Unknown routes 404; the connection stays usable afterwards.
    let r = conn.get("/v2/nope").expect("404");
    assert_eq!(r.status, 404);
    let r = conn.get("/healthz").expect("healthz after 404");
    assert_eq!(r.status, 200);

    // Metrics reflect the traffic above.
    let r = conn.get("/v1/metrics").expect("metrics");
    assert_eq!(r.status, 200);
    let m = body_json(&r.body);
    let accepted = m
        .get("connections")
        .and_then(|c| c.get("accepted"))
        .and_then(Json::as_u64)
        .expect("connections.accepted");
    assert!(accepted >= 1);
    assert_eq!(
        m.get("engine")
            .and_then(|e| e.get("queue_cap"))
            .and_then(Json::as_u64),
        Some(16),
        "{}",
        String::from_utf8_lossy(&r.body)
    );
    let ipc = m
        .get("endpoints")
        .and_then(|e| e.get("ipc"))
        .expect("ipc endpoint entry");
    assert_eq!(ipc.get("ok").and_then(Json::as_u64), Some(2));
    assert!(ipc.get("p99_ms").and_then(Json::as_f64).unwrap() >= 0.0);

    handle.shutdown();
}

#[test]
fn malformed_http_gets_a_4xx_not_a_hang() {
    let (handle, addr) = boot();
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(&addr).expect("connect");
    s.write_all(b"NONSENSE\r\n\r\n").expect("write");
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    let head = String::from_utf8_lossy(&buf);
    assert!(
        head.starts_with("HTTP/1.1 4"),
        "expected a 4xx status line, got: {head:.60}"
    );
    handle.shutdown();
}

#[test]
fn identical_concurrent_queries_coalesce_over_tcp() {
    let (handle, addr) = boot();
    let q = "/v1/ipc?workload=mcf&outer=4&instructions=3000";
    std::thread::scope(|s| {
        for _ in 0..6 {
            let addr = &addr;
            s.spawn(move || {
                let r = get_once(addr, q).expect("request");
                assert_eq!(r.status, 200);
            });
        }
    });
    let m = handle.metrics();
    let coalesced = m.coalesced.load(Ordering::Relaxed);
    let hits = m.cache_hits.load(Ordering::Relaxed);
    // Six identical queries cost one computation; the other five either
    // joined the in-flight computation or hit the response cache.
    assert_eq!(coalesced + hits, 5, "coalesced={coalesced} hits={hits}");
    handle.shutdown();
}

#[test]
fn shutdown_is_clean_and_idempotent_under_load() {
    let (handle, addr) = boot();
    // Leave a response in the cache, then shut down mid-session.
    let mut conn = Connection::open(&addr).expect("connect");
    let r = conn.get("/v1/library?process=silicon").expect("library");
    assert_eq!(r.status, 200);
    handle.shutdown();
    // The listener is gone: new connections are refused (or reset).
    assert!(
        get_once(&addr, "/healthz").is_err(),
        "listener survived shutdown"
    );
}

#[test]
fn shutdown_with_an_idle_keep_alive_client_drains_within_a_second() {
    let (handle, addr) = boot();
    let mut idle = Connection::open(&addr).expect("connect");
    assert_eq!(idle.get("/healthz").expect("healthz").status, 200);
    // The client keeps its connection open and sends nothing more.
    let t0 = Instant::now();
    handle.shutdown();
    let took = t0.elapsed();
    assert!(took <= Duration::from_secs(1), "drain took {took:?}");
    // The server closed the idle connection rather than abandoning it.
    assert!(idle.get("/healthz").is_err(), "idle connection survived");
}
