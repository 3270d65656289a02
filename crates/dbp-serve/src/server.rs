//! The TCP front end: line-delimited JSON plus a tiny HTTP shim.
//!
//! [`run`] drives an accept loop over a caller-provided
//! [`TcpListener`] and a fixed pool of connection workers — plain
//! `std::net` blocking I/O, no async runtime, matching the workspace's
//! hermetic no-external-deps rule. Each connection speaks the
//! [`crate::protocol`] line protocol; as a convenience, a connection
//! whose first line starts with `GET ` or `HEAD ` is served as a
//! one-shot HTTP exchange so `curl`/Prometheus can scrape
//! `/metrics` without a custom client.
//!
//! Read batches: a `submit` line plus every further complete `submit`
//! line already in the connection's read buffer is decided by one
//! [`Service::handle_batch`] call — one lock, one WAL commit — and its
//! acks leave in one write. The worker never waits for more bytes to
//! fill a batch, so a lone request is answered at once. Each connection
//! reuses one line buffer, one batch `Vec` and one ack `String` for its
//! lifetime, so a submit allocates little beyond its owned tenant.
//!
//! Under `--fsync interval:<ms>` one more thread, the interval timer,
//! wakes every `ms` and syncs what the last commits of a burst left
//! unsynced ([`Service::sync_wal_if_due`]), so the policy's window holds
//! when traffic stops.
//!
//! Shutdown: when any connection receives the `shutdown` ack, it pokes
//! the listener with a throwaway connection so the accept loop (blocked
//! in `accept`) observes the flag, stops accepting, and joins the
//! workers and the timer. In-flight connections finish their current
//! request first.

use crate::protocol::{
    parse_request, render_response, render_response_into, Request, Response, Submit,
};
use crate::service::Service;
use crate::wal::FsyncPolicy;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a connection worker waits on a quiet socket before checking
/// the shutdown flag again.
const READ_POLL: Duration = Duration::from_millis(200);

/// Longest request line a connection may send. A line protocol with an
/// unbounded `read_line` lets one client grow a `String` until the
/// allocator gives out; past this cap the connection gets a typed
/// error and is closed.
pub const MAX_LINE: usize = 64 * 1024;

/// Most header bytes the HTTP shim will drain before answering; beyond
/// this the request is answered from the request line alone (the shim
/// never reads header values anyway) and the connection closes.
const MAX_HTTP_HEADER: usize = 256 * 1024;

/// Serves `service` on `listener` with `conn_workers` connection
/// threads, returning once a `shutdown` request has been acknowledged
/// and all workers have drained.
pub fn run(
    service: Arc<Service>,
    listener: TcpListener,
    conn_workers: usize,
) -> std::io::Result<()> {
    let workers = conn_workers.max(1);
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let rx = Arc::clone(&rx);
        let service = Arc::clone(&service);
        handles.push(
            std::thread::Builder::new()
                .name(format!("dbp-serve-conn-{w}"))
                .spawn(move || loop {
                    let conn = match rx.lock().unwrap().recv() {
                        Ok(c) => c,
                        Err(_) => return,
                    };
                    if let Err(e) = handle_conn(&service, conn) {
                        // Client went away mid-exchange; their loss.
                        if e.kind() != ErrorKind::BrokenPipe {
                            eprintln!("dbp-serve: connection error: {e}");
                        }
                    }
                })?,
        );
    }
    let (stop_timer, stopped) = mpsc::channel::<()>();
    let timer = match service.config().fsync {
        FsyncPolicy::Interval(ms) if service.config().wal_dir.is_some() => {
            let service = Arc::clone(&service);
            let period = Duration::from_millis(ms.max(1));
            Some(
                std::thread::Builder::new()
                    .name("dbp-serve-wal-sync".into())
                    .spawn(move || {
                        while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(period) {
                            service.sync_wal_if_due();
                        }
                    })?,
            )
        }
        _ => None,
    };
    loop {
        match listener.accept() {
            Ok((conn, _)) => {
                if service.is_shutting_down() {
                    break;
                }
                // Workers exited ⇒ send fails ⇒ nothing left to do.
                if tx.send(conn).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                if service.is_shutting_down() {
                    break;
                }
                return Err(e);
            }
        }
    }
    drop(tx);
    drop(stop_timer);
    for h in handles.into_iter().chain(timer) {
        let _ = h.join();
    }
    Ok(())
}

/// What one capped line read produced.
enum LineRead {
    /// The peer closed the socket (possibly mid-line; nothing more will
    /// complete it).
    Eof,
    /// `buf` holds a whole line, terminator included.
    Complete,
    /// The line outgrew the cap before its terminator arrived.
    Overflow,
}

/// Reads one `\n`-terminated line into `buf`, never holding more than
/// `max` bytes. Unlike `read_line`, a single call cannot allocate
/// unboundedly: bytes are taken from the `BufReader`'s fixed internal
/// buffer chunk by chunk, and the accumulated line is checked against
/// the cap per chunk. A timeout surfaces as `WouldBlock`/`TimedOut`
/// with the partial line left in `buf`, so slow writers still work.
fn read_capped_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    loop {
        let (taken, complete) = {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                return Ok(LineRead::Eof);
            }
            let (chunk, complete) = match available.iter().position(|&b| b == b'\n') {
                Some(i) => (&available[..=i], true),
                None => (available, false),
            };
            if buf.len() + chunk.len() > max {
                let n = chunk.len();
                reader.consume(n);
                return Ok(LineRead::Overflow);
            }
            buf.extend_from_slice(chunk);
            (chunk.len(), complete)
        };
        reader.consume(taken);
        if complete {
            return Ok(LineRead::Complete);
        }
    }
}

/// Takes the next buffered line when it is a complete, valid `submit`,
/// without reading from the socket: the `BufReader`'s fixed buffer
/// bounds a read batch. Any other line stays buffered for the ordinary
/// one-request path, so responses keep request order.
fn take_buffered_submit(reader: &mut BufReader<TcpStream>) -> Option<Submit> {
    let buffered = reader.buffer();
    let end = buffered.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&buffered[..end]).ok()?;
    let Ok(Request::Submit(s)) = parse_request(line.trim_end()) else {
        return None;
    };
    reader.consume(end + 1);
    Some(s)
}

/// Writes one protocol response line with a single `write_all`, so the
/// ack and its terminator leave in one segment (the socket is
/// `TCP_NODELAY` and unbuffered). `out` is the connection's reused ack
/// buffer.
fn write_response(
    writer: &mut TcpStream,
    out: &mut String,
    resp: &Response,
) -> std::io::Result<()> {
    out.clear();
    render_response_into(out, resp);
    out.push('\n');
    writer.write_all(out.as_bytes())
}

/// Serves one connection until EOF or shutdown.
fn handle_conn(service: &Arc<Service>, conn: TcpStream) -> std::io::Result<()> {
    conn.set_read_timeout(Some(READ_POLL))?;
    // One response line per request line: never let Nagle hold an ack
    // hostage to the next request.
    conn.set_nodelay(true)?;
    let mut writer = conn.try_clone()?;
    let mut reader = BufReader::new(conn);
    // Reused for the connection's lifetime: the request line, the read
    // batch and the rendered acks.
    let mut buf: Vec<u8> = Vec::new();
    let mut batch: Vec<Submit> = Vec::new();
    let mut acks = String::new();
    loop {
        // A timeout mid-line leaves the partial line in `buf`; the next
        // read appends the rest, so lines survive slow writers.
        match read_capped_line(&mut reader, &mut buf, MAX_LINE) {
            Ok(LineRead::Eof) => return Ok(()),
            Ok(LineRead::Overflow) => {
                // A typed reject, then hang up: the rest of the
                // oversized line is undelimited garbage.
                let what = format!("request line exceeds {MAX_LINE} bytes");
                write_response(&mut writer, &mut acks, &Response::Error { what })?;
                return Ok(());
            }
            Ok(LineRead::Complete) => {
                let Ok(line) = std::str::from_utf8(&buf) else {
                    let what = "request line is not valid UTF-8".into();
                    write_response(&mut writer, &mut acks, &Response::Error { what })?;
                    return Ok(());
                };
                let line = line.trim_end();
                if line.is_empty() {
                    buf.clear();
                    continue;
                }
                if line.starts_with("GET ") || line.starts_with("HEAD ") {
                    return serve_http(service, &mut reader, &mut writer, line);
                }
                let req = parse_request(line);
                buf.clear();
                let resp = match req {
                    Ok(Request::Submit(first)) => {
                        // A read batch: this submit plus every complete
                        // submit line already buffered, decided under one
                        // lock and one WAL commit, acked in one write.
                        batch.push(first);
                        while let Some(s) = take_buffered_submit(&mut reader) {
                            batch.push(s);
                        }
                        acks.clear();
                        for resp in service.handle_batch(&batch) {
                            render_response_into(&mut acks, &resp);
                            acks.push('\n');
                        }
                        batch.clear();
                        writer.write_all(acks.as_bytes())?;
                        continue;
                    }
                    Ok(req) => service.handle(&req),
                    Err(what) => Response::Error { what },
                };
                write_response(&mut writer, &mut acks, &resp)?;
                if matches!(resp, Response::ShuttingDown) {
                    poke_acceptor(&writer);
                    return Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if service.is_shutting_down() {
                    return Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// One-shot HTTP: `GET /metrics` returns the Prometheus exposition.
fn serve_http(
    service: &Arc<Service>,
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request_line: &str,
) -> std::io::Result<()> {
    // Drain the header block; we only key off the request line, so the
    // drain is bounded — past the cap we just answer and close.
    let mut line: Vec<u8> = Vec::new();
    let mut drained = 0usize;
    while drained < MAX_HTTP_HEADER {
        line.clear();
        match read_capped_line(reader, &mut line, MAX_LINE) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Overflow) => {
                drained += MAX_LINE;
                continue;
            }
            Ok(LineRead::Complete) => {
                if line.iter().all(|b| b.is_ascii_whitespace()) {
                    break;
                }
                drained += line.len();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                break;
            }
            Err(e) => return Err(e),
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let (status, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        match service.handle(&Request::Metrics) {
            Response::Metrics { text } => ("200 OK", text),
            other => ("500 Internal Server Error", render_response(&other)),
        }
    } else {
        ("404 Not Found", "not found\n".to_string())
    };
    write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    if method != "HEAD" {
        writer.write_all(body.as_bytes())?;
    }
    writer.flush()
}

/// Unblocks the accept loop after shutdown by dialing the listener.
fn poke_acceptor(conn: &TcpStream) {
    if let Ok(local) = conn.local_addr() {
        let _ = TcpStream::connect_timeout(&local, Duration::from_millis(500));
    }
}
