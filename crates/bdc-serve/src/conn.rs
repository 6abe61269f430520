//! The one listener/connection layer under both the `bdc_serve` worker
//! ([`crate::server`]) and the `bdc-cluster` shard router.
//!
//! Topology: one acceptor thread blocks in `accept` and hands each socket
//! to a fixed pool of connection workers over a bounded channel. When
//! every worker is busy and the hand-off queue is full, the acceptor
//! answers `429` itself and closes (admission control at the door). A
//! worker blocks in `recv` until a socket arrives, then speaks keep-alive
//! HTTP/1.1 on it, asking a [`Service`] to answer each parsed request.
//!
//! **Idle connections give back their thread.** A worker waits for each
//! request's first byte in [`IDLE_POLL`] slices, then reads the rest of
//! the request under the full read timeout. After every empty slice it
//! closes the connection if the listener is stopping or another accepted
//! socket is waiting for a worker. So pooled keep-alive clients (the
//! router's upstream pool) cannot starve a thread-per-connection worker,
//! and a connection left idle past the read timeout is still closed.
//!
//! **Stop.** [`Listener::stop`] sets the stop flag and wakes the blocking
//! accept with a self-connect. The acceptor returns and drops the hand-off
//! sender; each worker finishes its current request (answered with
//! `connection: close`), closes idle connections within one slice, and
//! exits when its `recv` sees the disconnected channel.

use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{self, Request, Response};

/// How long a worker waits for a request's first byte before it checks
/// whether to give its thread back (stop, or a socket waiting for a
/// worker). Bounds both the graceful drain and the extra wait a new
/// connection sees when pooled idle connections hold every worker.
pub const IDLE_POLL: Duration = Duration::from_millis(50);

/// Answers the requests a [`Listener`] reads.
pub trait Service: Send + Sync + 'static {
    /// Answers one parsed request; `arrived` is when its first byte was
    /// read (so latency excludes keep-alive idle time).
    fn respond(&self, request: &Request, arrived: Instant) -> Response;

    /// Notes a request that failed to parse and was answered with
    /// `status`.
    fn rejected(&self, _status: u16, _arrived: Instant) {}

    /// Notes an accepted connection, before it is handed off or shed.
    fn accepted(&self) {}

    /// Notes a connection shed at the door with `429`.
    fn shed(&self) {}
}

/// Listener knobs: the transport half of a server's configuration.
#[derive(Debug, Clone)]
pub struct ListenConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Thread-name prefix (`{name}-accept`, `{name}-conn-N`).
    pub name: &'static str,
    /// Connection-worker threads.
    pub threads: usize,
    /// Accepted sockets that may wait for a worker before the acceptor
    /// sheds new connections with 429.
    pub backlog: usize,
    /// Longest a connection may sit idle between requests, and the read
    /// deadline for the rest of a request once its first byte arrived.
    pub read_timeout: Duration,
    /// Per-connection write timeout — a client that stops draining its
    /// receive window cannot pin a worker forever.
    pub write_timeout: Duration,
}

/// State the acceptor and every worker share.
struct Shared<S> {
    cfg: ListenConfig,
    service: Arc<S>,
    stop: Arc<AtomicBool>,
    /// Accepted sockets handed off but not yet taken by a worker.
    queued: AtomicUsize,
    /// Workers blocked in `recv`, free to take a queued socket.
    free: AtomicUsize,
}

/// A running listener: its port, stop flag and threads.
pub struct Listener {
    port: u16,
    wake: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Listener {
    /// Binds `cfg.addr` and spawns the acceptor and connection workers.
    ///
    /// # Errors
    /// Propagates bind and thread-spawn failures.
    pub fn start<S: Service>(cfg: ListenConfig, service: Arc<S>) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local = listener.local_addr()?;
        // A wildcard bind is woken over loopback.
        let wake = match local.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => {
                SocketAddr::new(Ipv4Addr::LOCALHOST.into(), local.port())
            }
            IpAddr::V6(ip) if ip.is_unspecified() => {
                SocketAddr::new(Ipv6Addr::LOCALHOST.into(), local.port())
            }
            _ => local,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            cfg,
            service,
            stop: Arc::clone(&stop),
            queued: AtomicUsize::new(0),
            free: AtomicUsize::new(0),
        });

        let mut threads = Vec::new();
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(shared.cfg.backlog);
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..shared.cfg.threads.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{}-conn-{i}", shared.cfg.name))
                    .spawn(move || conn_worker(&rx, &shared))?,
            );
        }
        let accept_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("{}-accept", shared.cfg.name))
                .spawn(move || acceptor(&listener, &tx, &accept_shared))?,
        );
        Ok(Listener {
            port: local.port(),
            wake,
            stop,
            threads,
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Stops accepting and asks every connection to close after its
    /// current request. Idempotent; returns without waiting.
    pub fn stop(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            // Wake the blocking accept; it sees the flag and returns.
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        }
    }

    /// Stops (if not yet stopped) and joins every thread.
    pub fn join(mut self) {
        self.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn acceptor<S: Service>(listener: &TcpListener, tx: &SyncSender<TcpStream>, shared: &Shared<S>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // Resource exhaustion (EMFILE and kin): back off briefly
            // rather than spin on the failing accept.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        shared.service.accepted();
        shared.queued.fetch_add(1, Ordering::SeqCst);
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                // Every worker busy and the backlog full: shed at the
                // door rather than queue unboundedly. A short write
                // timeout keeps a stalled client from pinning the
                // acceptor itself.
                shared.queued.fetch_sub(1, Ordering::SeqCst);
                shared.service.shed();
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                let mut resp = Response::error(429, "connection backlog full; retry");
                resp.extra_headers.push(("retry-after".into(), "1".into()));
                let _ = resp.write_to(&mut stream, false);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `tx` disconnects the channel; workers drain and exit.
}

fn conn_worker<S: Service>(rx: &Mutex<Receiver<TcpStream>>, shared: &Shared<S>) {
    loop {
        shared.free.fetch_add(1, Ordering::SeqCst);
        let stream = rx.lock().unwrap_or_else(|p| p.into_inner()).recv();
        // `queued` drops before `free`, so a socket on its way to this
        // worker never reads as one waiting for a worker.
        if stream.is_ok() {
            shared.queued.fetch_sub(1, Ordering::SeqCst);
        }
        shared.free.fetch_sub(1, Ordering::SeqCst);
        let Ok(stream) = stream else { return };
        serve_connection(stream, shared);
    }
}

/// Whether an idle connection should give its thread back: stopping, or
/// more sockets are queued than free workers can take.
fn yield_thread<S>(shared: &Shared<S>) -> bool {
    shared.stop.load(Ordering::SeqCst)
        || shared.queued.load(Ordering::SeqCst) > shared.free.load(Ordering::SeqCst)
}

/// Serves one keep-alive connection until close, error, idle give-back or
/// stop.
fn serve_connection<S: Service>(stream: TcpStream, shared: &Shared<S>) {
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    while let Some(arrived) = await_request(&mut reader, shared) {
        let request = match http::read_request(&mut reader) {
            Ok(r) => r,
            Err(e) => {
                let status = e.status();
                if status != 0 {
                    shared.service.rejected(status, arrived);
                    let _ = Response::error(status, &format!("{e:?}")).write_to(&mut writer, false);
                }
                return;
            }
        };
        let response = shared.service.respond(&request, arrived);
        let keep_alive = request.keep_alive && !shared.stop.load(Ordering::SeqCst);
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Waits for the next request's first byte in [`IDLE_POLL`] slices and
/// returns when it arrived, or `None` when the connection should close:
/// the peer closed or failed, it sat idle past the read timeout, or
/// [`yield_thread`] says so.
fn await_request<S>(reader: &mut BufReader<TcpStream>, shared: &Shared<S>) -> Option<Instant> {
    if reader.buffer().is_empty() {
        let _ = reader.get_ref().set_read_timeout(Some(IDLE_POLL));
        let mut idle = Duration::ZERO;
        loop {
            match reader.fill_buf() {
                Ok([]) => return None,
                Ok(_) => break,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    idle += IDLE_POLL;
                    if yield_thread(shared) || idle >= shared.cfg.read_timeout {
                        return None;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return None,
            }
        }
        let _ = reader
            .get_ref()
            .set_read_timeout(Some(shared.cfg.read_timeout));
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "latency telemetry; responses carry no Date header"
    )]
    let arrived = Instant::now();
    Some(arrived)
}
