//! Load generator for the `bdc_serve` daemon.
//!
//! ```text
//! serve_load --addr HOST:PORT [--addr HOST:PORT ...] [--cluster]
//!            [--mode closed|open] [--conns N] [--rate R]
//!            [--duration SECS] [--seed S] [--mix warm|cold|mixed]
//!            [--prime] [--check-metrics] [--max-p99-ms MS] [--retries N]
//!            [--json]
//! ```
//!
//! `--addr` is repeatable: with several targets the generator spreads its
//! workers/requests across them round-robin, reports a per-target latency
//! table, and gates on the merged tally — the shape used to compare a
//! `bdc cluster` router against its shards, or shards against each other.
//! `--cluster` switches `--check-metrics` to the router's aggregated
//! `/v1/metrics` shape (`router`/`shards`/`fleet` sections).
//!
//! Two drive modes:
//!
//! * **closed-loop** (default): `--conns` workers each hold one keep-alive
//!   connection and issue the next request as soon as the previous reply
//!   lands. Throughput is whatever the server sustains.
//! * **open-loop**: requests are fired on a fixed schedule of `--rate`
//!   requests/second regardless of completions (each request on a fresh
//!   connection), so server slowdown cannot throttle the generator — the
//!   honest way to observe shedding.
//!
//! The request mix is drawn from a seeded [`SplitMix64`] stream, so two
//! runs with the same `--seed` issue the identical request sequence.
//! `429`/`503` responses count as *shed*, not errors; any `5xx` fails the
//! run (nonzero exit). `--retries N` re-attempts retryable outcomes
//! (shed, deadline-expired 503, 500, transport errors) up to N times per
//! request with seeded jittered backoff before tallying — the chaos CI
//! job uses it to assert zero *client-visible* 5xx under fault injection.
//! The summary reports **retry amplification** (mean attempts per
//! successful request, plus the p99 of attempts) so the cost of those
//! recoveries stays observable and the retry budgets stay honest.
//! `--max-p99-ms` gates the p99 of successful requests — the CI smoke job
//! uses `--prime --mix warm --max-p99-ms 50` to pin the warm-cache
//! latency bound from the acceptance criteria.

use std::time::{Duration, Instant};

use bdc_exec::SplitMix64;
use bdc_serve::client::{get_once, is_retryable, ClientResponse, Connection};

/// A latency sample set with exact quantiles (small runs; sorting is fine).
#[derive(Default)]
struct Samples {
    us: Vec<u64>,
}

impl Samples {
    fn record(&mut self, us: u64) {
        self.us.push(us);
    }

    fn quantile_ms(&mut self, q: f64) -> f64 {
        if self.us.is_empty() {
            return 0.0;
        }
        self.us.sort_unstable();
        let idx = ((self.us.len() - 1) as f64 * q).round() as usize;
        self.us[idx] as f64 / 1000.0
    }
}

#[derive(Default)]
struct Tally {
    ok: u64,
    client_err: u64,
    shed: u64,
    server_err: u64,
    transport_err: u64,
    retried: u64,
    samples: Samples,
    /// Attempts each *successful* request took (1 = first try landed).
    /// The mean is the retry amplification the retry budgets are meant to
    /// bound; the p99 shows the unluckiest client's experience.
    attempts: Vec<u64>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.ok += other.ok;
        self.client_err += other.client_err;
        self.shed += other.shed;
        self.server_err += other.server_err;
        self.transport_err += other.transport_err;
        self.retried += other.retried;
        self.samples.us.extend(other.samples.us);
        self.attempts.extend(other.attempts);
    }

    /// `(mean attempts per successful request, p99 of attempts)` —
    /// `(1.0, 1)` when nothing succeeded, so the gates below stay simple.
    fn retry_amplification(&mut self) -> (f64, u64) {
        if self.attempts.is_empty() {
            return (1.0, 1);
        }
        self.attempts.sort_unstable();
        let mean = self.attempts.iter().sum::<u64>() as f64 / self.attempts.len() as f64;
        let idx = ((self.attempts.len() - 1) as f64 * 0.99).round() as usize;
        (mean, self.attempts[idx])
    }

    fn record(&mut self, status: u16, us: u64) {
        match status {
            200..=299 => {
                self.ok += 1;
                self.samples.record(us);
            }
            429 | 503 => self.shed += 1,
            400..=499 => self.client_err += 1,
            _ => self.server_err += 1,
        }
    }
}

struct Args {
    addrs: Vec<String>,
    cluster: bool,
    mode: String,
    conns: usize,
    rate: f64,
    duration: Duration,
    seed: u64,
    mix: String,
    prime: bool,
    check_metrics: bool,
    max_p99_ms: Option<f64>,
    retries: u32,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: serve_load --addr HOST:PORT [--addr HOST:PORT ...] [--cluster] \
         [--mode closed|open] [--conns N] [--rate R] \
         [--duration SECS] [--seed S] [--mix warm|cold|mixed] [--prime] [--check-metrics] \
         [--max-p99-ms MS] [--retries N] [--json]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        addrs: Vec::new(),
        cluster: false,
        mode: "closed".into(),
        conns: 4,
        rate: 50.0,
        duration: Duration::from_secs(5),
        seed: 1,
        mix: "mixed".into(),
        prime: false,
        check_metrics: false,
        max_p99_ms: None,
        retries: 0,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        let num = |raw: String| -> f64 { raw.parse().unwrap_or_else(|_| usage()) };
        match flag.as_str() {
            "--addr" => a.addrs.push(value()),
            "--cluster" => a.cluster = true,
            "--mode" => a.mode = value(),
            "--conns" => a.conns = num(value()) as usize,
            "--rate" => a.rate = num(value()),
            "--duration" => a.duration = Duration::from_secs_f64(num(value())),
            "--seed" => a.seed = num(value()) as u64,
            "--mix" => a.mix = value(),
            "--prime" => a.prime = true,
            "--check-metrics" => a.check_metrics = true,
            "--max-p99-ms" => a.max_p99_ms = Some(num(value())),
            "--retries" => a.retries = num(value()) as u32,
            "--json" => a.json = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if a.addrs.is_empty() || !["closed", "open"].contains(&a.mode.as_str()) {
        usage();
    }
    if !["warm", "cold", "mixed"].contains(&a.mix.as_str()) {
        usage();
    }
    a
}

/// The warm working set: a handful of cheap queries the `--prime` pass
/// computes once, after which every repeat is a response-cache hit.
const WARM_SET: [&str; 6] = [
    "/v1/library?process=organic",
    "/v1/library?process=silicon",
    "/v1/synth?process=silicon",
    "/v1/width?process=silicon&fe=2&be=4",
    "/v1/ipc?workload=dhrystone&outer=5&instructions=4000",
    "/healthz",
];

/// Draws the next request path from the seeded mix. `cold` requests vary a
/// parameter with the draw index so repeats rarely collide with the cache;
/// `warm` requests cycle the primed working set; `mixed` interleaves both.
fn draw(rng: &mut SplitMix64, mix: &str) -> String {
    let warm = match mix {
        "warm" => true,
        "cold" => false,
        _ => rng.next_u64().is_multiple_of(2),
    };
    if warm {
        WARM_SET[(rng.next_u64() % WARM_SET.len() as u64) as usize].to_string()
    } else {
        // Distinct-but-valid points: sweep the simulation budget knob, the
        // cheapest axis that still exercises the full execute path.
        let outer = 2 + rng.next_u64() % 12;
        let workloads = ["dhrystone", "gzip", "mcf", "parser"];
        let w = workloads[(rng.next_u64() % workloads.len() as u64) as usize];
        format!("/v1/ipc?workload={w}&outer={outer}&instructions=4000")
    }
}

/// Issues one request per attempt via `attempt_once`, re-attempting
/// retryable outcomes up to `retries` times with seeded jittered backoff,
/// and tallies the final outcome. Latency samples cover the successful
/// attempt only — the retry chain is a recovery path, not a latency
/// observation.
#[expect(
    clippy::disallowed_methods,
    reason = "load generator: latency and pacing are its report, not artifact bytes"
)]
fn fetch_with_retry(
    retries: u32,
    path: &str,
    local: &mut Tally,
    mut attempt_once: impl FnMut() -> std::io::Result<ClientResponse>,
) {
    let mut attempt: u32 = 0;
    loop {
        let t0 = Instant::now();
        match attempt_once() {
            Ok(r) if attempt < retries && is_retryable(r.status) => local.retried += 1,
            Ok(r) => {
                if (200..=299).contains(&r.status) {
                    local.attempts.push(u64::from(attempt) + 1);
                }
                local.record(r.status, t0.elapsed().as_micros() as u64);
                return;
            }
            Err(_) if attempt < retries => local.retried += 1,
            Err(_) => {
                local.transport_err += 1;
                return;
            }
        }
        attempt += 1;
        std::thread::sleep(bdc_exec::faults::backoff_delay(path, u64::from(attempt)));
    }
}

/// One tally per `--addr` target, in argv order.
fn per_target(n: usize) -> Vec<std::sync::Mutex<Tally>> {
    (0..n)
        .map(|_| std::sync::Mutex::new(Tally::default()))
        .collect()
}

#[expect(
    clippy::disallowed_methods,
    reason = "load generator: latency and pacing are its report, not artifact bytes"
)]
fn closed_loop(a: &Args) -> Vec<Tally> {
    let deadline = Instant::now() + a.duration;
    let tallies = per_target(a.addrs.len());
    std::thread::scope(|s| {
        for worker in 0..a.conns.max(1) {
            let tallies = &tallies;
            // Workers spread round-robin over the targets.
            let target = worker % a.addrs.len();
            let addr = &a.addrs[target];
            s.spawn(move || {
                let mut local = Tally::default();
                let mut rng = SplitMix64::new(bdc_exec::task_seed(a.seed, worker as u64));
                let mut conn: Option<Connection> = Connection::open(addr).ok();
                while Instant::now() < deadline {
                    let path = draw(&mut rng, &a.mix);
                    fetch_with_retry(a.retries, &path, &mut local, || {
                        if conn.is_none() {
                            conn = Connection::open(addr).ok();
                        }
                        let result = match conn.as_mut() {
                            Some(c) => c.get(&path),
                            None => Err(std::io::Error::new(
                                std::io::ErrorKind::NotConnected,
                                "connect failed",
                            )),
                        };
                        if result.is_err() {
                            // Keep-alive connections shed at the door are
                            // closed by the server; reconnect next attempt.
                            conn = None;
                        }
                        result
                    });
                }
                tallies[target].lock().unwrap().absorb(local);
            });
        }
    });
    tallies
        .into_iter()
        .map(|t| t.into_inner().unwrap())
        .collect()
}

#[expect(
    clippy::disallowed_methods,
    reason = "load generator: latency and pacing are its report, not artifact bytes"
)]
fn open_loop(a: &Args) -> Vec<Tally> {
    let interval = Duration::from_secs_f64(1.0 / a.rate.max(0.1));
    let start = Instant::now();
    let total = (a.duration.as_secs_f64() * a.rate).floor() as u64;
    let tallies = per_target(a.addrs.len());
    let mut rng = SplitMix64::new(a.seed);
    std::thread::scope(|s| {
        for i in 0..total {
            let path = draw(&mut rng, &a.mix);
            // Fire on schedule, never waiting for completions: arrivals
            // stay at the configured rate even when the server stalls.
            let due = start + interval * (i as u32);
            if let Some(sleep) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(sleep);
            }
            let target = (i as usize) % a.addrs.len();
            let addr = a.addrs[target].clone();
            let tallies = &tallies;
            s.spawn(move || {
                let mut local = Tally::default();
                fetch_with_retry(a.retries, &path, &mut local, || get_once(&addr, &path));
                tallies[target].lock().unwrap().absorb(local);
            });
        }
    });
    tallies
        .into_iter()
        .map(|t| t.into_inner().unwrap())
        .collect()
}

fn check_metrics(addr: &str, cluster: bool) -> Result<(), String> {
    let r = get_once(addr, "/v1/metrics").map_err(|e| format!("metrics fetch: {e}"))?;
    if r.status != 200 {
        return Err(format!("metrics returned {}", r.status));
    }
    let text = String::from_utf8(r.body).map_err(|_| "metrics not utf-8".to_string())?;
    // A router aggregates the fleet; a single daemon reports itself.
    let keys: &[&str] = if cluster {
        &["\"router\"", "\"shards\"", "\"fleet\""]
    } else {
        &["\"connections\"", "\"endpoints\"", "\"queue_depth\""]
    };
    for key in keys {
        if !text.contains(key) {
            return Err(format!("metrics body missing {key}"));
        }
    }
    Ok(())
}

#[expect(
    clippy::disallowed_methods,
    reason = "load generator: latency and pacing are its report, not artifact bytes"
)]
fn main() {
    if let Err(e) = bdc_exec::env_config() {
        eprintln!("serve_load: {e}");
        std::process::exit(2);
    }
    let a = parse_args();
    if a.prime {
        // Prime every target: each daemon (or each shard behind a router)
        // warms its own response cache.
        for addr in &a.addrs {
            for path in WARM_SET {
                match get_once(addr, path) {
                    Ok(r) if r.status == 200 => {}
                    Ok(r) => {
                        eprintln!("serve_load: priming {addr} {path} returned {}", r.status);
                        std::process::exit(1);
                    }
                    Err(e) => {
                        eprintln!("serve_load: priming {addr} {path} failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
    }

    let wall = Instant::now();
    let mut targets = match a.mode.as_str() {
        "closed" => closed_loop(&a),
        _ => open_loop(&a),
    };
    let elapsed = wall.elapsed().as_secs_f64();

    // Per-target tables (only interesting with several targets), then the
    // merged tally every gate below runs against.
    let mut target_rows = Vec::new();
    let mut target_lines = Vec::new();
    if a.addrs.len() > 1 {
        for (addr, t) in a.addrs.iter().zip(targets.iter_mut()) {
            let n = t.ok + t.client_err + t.shed + t.server_err;
            let (tp50, tp95, tp99) = (
                t.samples.quantile_ms(0.50),
                t.samples.quantile_ms(0.95),
                t.samples.quantile_ms(0.99),
            );
            target_rows.push(format!(
                "{{\"addr\": \"{addr}\", \"requests\": {n}, \"ok\": {}, \"shed\": {}, \
                 \"server_errors\": {}, \"transport_errors\": {}, \
                 \"p50_ms\": {tp50:.3}, \"p95_ms\": {tp95:.3}, \"p99_ms\": {tp99:.3}}}",
                t.ok, t.shed, t.server_err, t.transport_err
            ));
            target_lines.push(format!(
                "  target {addr}: {n} requests, ok={} shed={} 5xx={} transport={} \
                 p50={tp50:.3}ms p95={tp95:.3}ms p99={tp99:.3}ms",
                t.ok, t.shed, t.server_err, t.transport_err
            ));
        }
    }
    let mut tally = Tally::default();
    for t in targets {
        tally.absorb(t);
    }

    let total = tally.ok + tally.client_err + tally.shed + tally.server_err;
    let rps = if elapsed > 0.0 {
        total as f64 / elapsed
    } else {
        0.0
    };
    let (p50, p95, p99) = (
        tally.samples.quantile_ms(0.50),
        tally.samples.quantile_ms(0.95),
        tally.samples.quantile_ms(0.99),
    );
    let (amplification, p99_attempts) = tally.retry_amplification();

    if a.json {
        let targets_json = if target_rows.is_empty() {
            String::new()
        } else {
            format!(", \"targets\": [{}]", target_rows.join(", "))
        };
        println!(
            "{{\"mode\": \"{}\", \"mix\": \"{}\", \"seed\": {}, \"requests\": {total}, \
             \"rps\": {rps:.2}, \"ok\": {}, \"shed\": {}, \"client_errors\": {}, \
             \"server_errors\": {}, \"transport_errors\": {}, \"retried\": {}, \
             \"retry_amplification\": {amplification:.4}, \"p99_attempts\": {p99_attempts}, \
             \"p50_ms\": {p50:.3}, \"p95_ms\": {p95:.3}, \"p99_ms\": {p99:.3}{targets_json}}}",
            a.mode,
            a.mix,
            a.seed,
            tally.ok,
            tally.shed,
            tally.client_err,
            tally.server_err,
            tally.transport_err,
            tally.retried,
        );
    } else {
        println!(
            "serve_load: {} mode, mix={}, seed={}: {total} requests in {elapsed:.2}s ({rps:.1} req/s)",
            a.mode, a.mix, a.seed
        );
        println!(
            "  ok={} shed(429/503)={} 4xx={} 5xx={} transport={} retried={}",
            tally.ok,
            tally.shed,
            tally.client_err,
            tally.server_err,
            tally.transport_err,
            tally.retried
        );
        println!("  latency (ok only): p50={p50:.3}ms p95={p95:.3}ms p99={p99:.3}ms");
        println!(
            "  retry amplification: {amplification:.4} attempts/ok (p99 attempts {p99_attempts})"
        );
        for line in &target_lines {
            println!("{line}");
        }
    }

    if a.check_metrics {
        if let Err(e) = check_metrics(&a.addrs[0], a.cluster) {
            eprintln!("serve_load: metrics check failed: {e}");
            std::process::exit(1);
        }
    }
    if tally.server_err > 0 {
        eprintln!("serve_load: {} server errors (5xx)", tally.server_err);
        std::process::exit(1);
    }
    if tally.ok == 0 {
        eprintln!("serve_load: no successful requests");
        std::process::exit(1);
    }
    if let Some(max) = a.max_p99_ms {
        if p99 > max {
            eprintln!("serve_load: p99 {p99:.3}ms exceeds the {max:.3}ms gate");
            std::process::exit(1);
        }
    }
}
