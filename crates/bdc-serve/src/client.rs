//! A tiny blocking HTTP/1.1 client for the load generator, the bench
//! harness, and the end-to-end tests. Speaks just enough of the protocol
//! to talk to [`crate::server`]: keep-alive connections, `GET`/`POST`,
//! `Content-Length` bodies.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::http::Method;

/// A response as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Response headers, names lowercased, in wire order.
    pub headers: Vec<(String, String)>,
}

impl ClientResponse {
    /// The first header named `name` (lowercase), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A persistent keep-alive connection to the daemon.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The socket's current read/write deadline.
    timeout: Duration,
    /// Whether the last request saw any byte of its response.
    response_started: bool,
}

impl Connection {
    /// Connects to `addr` (e.g. `127.0.0.1:8731`).
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn open(addr: &str) -> std::io::Result<Connection> {
        Self::open_with_timeout(addr, Duration::from_secs(120))
    }

    /// Connects with an explicit connect/read deadline. Peer cache fetches
    /// and the cluster router use short timeouts — a slow peer must cost
    /// less than recomputing locally, and a proxied request must fail over
    /// to the next replica quickly.
    ///
    /// # Errors
    /// Propagates connect failures (including the connect timeout).
    pub fn open_with_timeout(addr: &str, timeout: Duration) -> std::io::Result<Connection> {
        // `connect_timeout` needs a resolved SocketAddr; a hostname form
        // (e.g. `localhost:8731`) falls back to plain connect, keeping
        // only the read/write deadlines.
        let stream = match addr.parse::<std::net::SocketAddr>() {
            Ok(parsed) => TcpStream::connect_timeout(&parsed, timeout)?,
            Err(_) => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let writer = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(stream),
            writer,
            timeout,
            response_started: false,
        })
    }

    /// Sets the read/write deadline for the next requests, so a pooled
    /// connection can serve callers with different budgets.
    ///
    /// # Errors
    /// Propagates socket-option failures.
    pub fn set_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        if timeout != self.timeout {
            self.writer.set_read_timeout(Some(timeout))?;
            self.writer.set_write_timeout(Some(timeout))?;
            self.timeout = timeout;
        }
        Ok(())
    }

    /// Whether the last request received any byte of its response. A
    /// reused keep-alive connection that hit EOF or a reset before its
    /// first response byte was closed by the server while idle, so the
    /// request never ran and is safe to resend on a fresh connection.
    pub fn response_started(&self) -> bool {
        self.response_started
    }

    /// Issues `method path_query`, with `body` for a `POST`. An
    /// `x-bdc-deadline-ms` budget is the entry point of deadline
    /// propagation: the server (or router) subtracts its own elapsed time
    /// before passing the remainder downstream, and refuses outright (fast
    /// 503) when the remainder cannot cover the work.
    ///
    /// # Errors
    /// Propagates socket errors (including the server closing mid-reply).
    pub fn request(
        &mut self,
        method: Method,
        path_query: &str,
        body: &str,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<ClientResponse> {
        let mut req = match method {
            Method::Get => format!("GET {path_query} HTTP/1.1\r\nhost: bdc\r\n"),
            Method::Post => format!("POST {path_query} HTTP/1.1\r\nhost: bdc\r\n"),
        };
        if let Some(ms) = deadline_ms {
            req.push_str(&format!("x-bdc-deadline-ms: {ms}\r\n"));
        }
        if method == Method::Post {
            req.push_str(&format!("content-length: {}\r\n\r\n{body}", body.len()));
        } else {
            req.push_str("\r\n");
        }
        self.response_started = false;
        self.writer.write_all(req.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Issues a `GET`.
    ///
    /// # Errors
    /// Propagates socket errors (including the server closing mid-reply).
    pub fn get(&mut self, path_query: &str) -> std::io::Result<ClientResponse> {
        self.request(Method::Get, path_query, "", None)
    }

    /// Issues a `POST` with a JSON body.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request(Method::Post, path, body, None)
    }

    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        if self.reader.fill_buf()?.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed connection",
            ));
        }
        self.response_started = true;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(bad("truncated header block"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse {
            status,
            body,
            headers,
        })
    }
}

/// One-shot convenience: open, `GET`, close.
///
/// # Errors
/// Propagates socket errors.
pub fn get_once(addr: &str, path_query: &str) -> std::io::Result<ClientResponse> {
    Connection::open(addr)?.get(path_query)
}

/// Whether a response status is worth retrying: transient server-side
/// states (shed, deadline-expired, contained-fault 500) that a later
/// attempt may well get a cached answer for.
pub fn is_retryable(status: u16) -> bool {
    matches!(status, 429 | 500 | 503 | 504)
}

/// `GET` with up to `retries` re-attempts on socket errors and retryable
/// statuses ([`is_retryable`]), sleeping a seeded, jittered exponential
/// backoff ([`bdc_exec::faults::backoff_delay`]) between attempts so a
/// burst of rejected clients does not retry in lockstep. Each attempt
/// opens a fresh connection — the previous one may be half-dead.
///
/// # Errors
/// The final attempt's socket error, if every attempt errored.
pub fn get_with_retry(
    addr: &str,
    path_query: &str,
    retries: u32,
) -> std::io::Result<ClientResponse> {
    let mut attempt: u32 = 0;
    loop {
        let result = get_once(addr, path_query);
        let retry = match &result {
            Ok(r) => is_retryable(r.status),
            Err(_) => true,
        };
        if !retry || attempt >= retries {
            return result;
        }
        attempt += 1;
        std::thread::sleep(bdc_exec::faults::backoff_delay(
            path_query,
            u64::from(attempt),
        ));
    }
}
