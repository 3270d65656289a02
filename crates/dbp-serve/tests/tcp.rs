//! End-to-end over a real socket: line protocol, the HTTP metrics
//! shim, malformed-input handling, and graceful shutdown.

use dbp_serve::protocol::{
    parse_request, parse_response, render_request, render_response, RejectReason, Request,
    Response, Submit,
};
use dbp_serve::torture::torture_stream;
use dbp_serve::{server, FsyncPolicy, ServeConfig, Service};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn submit_line(job: u32, arrival: i64) -> String {
    render_request(&Request::Submit(Submit {
        tenant: "t".into(),
        job,
        size: Some(0.5),
        size_raw: None,
        arrival,
        departure: arrival + 10,
    }))
}

#[test]
fn tcp_round_trip_metrics_scrape_and_graceful_shutdown() {
    let service = Arc::new(Service::start(ServeConfig::new(2, "first-fit")).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || server::run(service, listener, 2))
    };

    // Line protocol: two placements, a blank line (ignored), a
    // malformed line (typed protocol error), then status.
    {
        let conn = TcpStream::connect(addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        let mut exchange = |req: &str| {
            writer.write_all(format!("{req}\n").as_bytes()).unwrap();
            writer.flush().unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        };
        let resp = parse_response(&exchange(&submit_line(0, 0))).unwrap();
        assert!(matches!(resp, Response::Placed { .. }), "{resp:?}");
        // A blank line is skipped, so the next real request still gets
        // exactly one response.
        let resp = parse_response(&exchange(&format!("\n{}", submit_line(1, 1)))).unwrap();
        assert!(matches!(resp, Response::Placed { .. }), "{resp:?}");
        let resp = parse_response(&exchange("this is not json")).unwrap();
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        match parse_response(&exchange("{\"op\":\"status\"}")).unwrap() {
            Response::Status(s) => {
                assert_eq!(s.placed, 2);
                assert_eq!(s.watermark, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    // HTTP shim: a plain GET scrapes the Prometheus exposition.
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200 OK\r\n"), "{body}");
        assert!(body.contains("dbp_serve_jobs_total{tenant=\"t\",outcome=\"placed\"} 2"));
        assert!(body.contains("# TYPE dbp_serve_place_ns histogram"));
    }
    {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
        let mut body = String::new();
        conn.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 404"), "{body}");
    }

    // Graceful shutdown: ack, then the accept loop drains and joins.
    {
        let conn = TcpStream::connect(addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(matches!(
            parse_response(line.trim_end()).unwrap(),
            Response::ShuttingDown
        ));
    }
    server_thread.join().unwrap().unwrap();
    assert!(service.is_shutting_down());
}

#[test]
fn oversized_request_lines_get_a_typed_error_not_unbounded_memory() {
    let service = Arc::new(Service::start(ServeConfig::new(1, "first-fit")).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || server::run(service, listener, 1))
    };

    // A line past the cap — sent without its terminator, the way an
    // attacker (or a runaway client) would grow the server's buffer.
    {
        let conn = TcpStream::connect(addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        let huge = vec![b'x'; server::MAX_LINE + 1024];
        writer.write_all(&huge).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match parse_response(line.trim_end()).unwrap() {
            Response::Error { what } => {
                assert!(what.contains("exceeds"), "got: {what}")
            }
            other => panic!("{other:?}"),
        }
        // The server hung up after the reject.
        let mut rest = String::new();
        assert_eq!(reader.read_to_string(&mut rest).unwrap(), 0);
    }

    // A non-UTF-8 line is also a typed error, then close.
    {
        let conn = TcpStream::connect(addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        writer.write_all(&[0xff, 0xfe, b'{', b'\n']).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match parse_response(line.trim_end()).unwrap() {
            Response::Error { what } => assert!(what.contains("UTF-8"), "got: {what}"),
            other => panic!("{other:?}"),
        }
    }

    // The service survived both abuses and still serves new clients.
    {
        let conn = TcpStream::connect(addr).unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        writer
            .write_all(format!("{}\n", submit_line(0, 0)).as_bytes())
            .unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = parse_response(line.trim_end()).unwrap();
        assert!(matches!(resp, Response::Placed { .. }), "{resp:?}");
        writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
    }
    server_thread.join().unwrap().unwrap();
}

/// Sends one raw request line on a fresh connection and returns the
/// response, failing the test if none arrives within `budget`.
fn exchange_within(addr: SocketAddr, line: &[u8], budget: Duration) -> Response {
    let conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(budget)).unwrap();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = BufReader::new(conn);
    writer.write_all(line).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut resp = String::new();
    reader
        .read_line(&mut resp)
        .unwrap_or_else(|e| panic!("no response within {budget:?}: {e}"));
    parse_response(resp.trim_end()).unwrap()
}

/// Checks that `status` still answers promptly, then shuts the server
/// down and joins it.
fn still_serving_then_shutdown(
    addr: SocketAddr,
    server_thread: std::thread::JoinHandle<std::io::Result<()>>,
) {
    let budget = Duration::from_secs(5);
    let status = exchange_within(addr, b"{\"op\":\"status\"}", budget);
    assert!(matches!(status, Response::Status(_)), "{status:?}");
    let bye = exchange_within(addr, b"{\"op\":\"shutdown\"}", budget);
    assert!(matches!(bye, Response::ShuttingDown), "{bye:?}");
    server_thread.join().unwrap().unwrap();
}

/// Regression: a line of 60,000 `[` (under the line cap) used to recurse
/// the JSON parser off the connection worker's stack and abort the whole
/// service. It now gets a typed protocol error.
#[test]
fn deeply_nested_request_line_gets_an_error_not_an_abort() {
    let service = Arc::new(Service::start(ServeConfig::new(1, "first-fit")).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server::run(service, listener, 2));

    let line = vec![b'['; 60_000];
    assert!(line.len() < server::MAX_LINE);
    match exchange_within(addr, &line, Duration::from_secs(5)) {
        Response::Error { what } => assert!(what.contains("nesting"), "got: {what}"),
        other => panic!("{other:?}"),
    }
    still_serving_then_shutdown(addr, server_thread);
}

/// Regression: under `cbd`, a submit spanning `[i64::MIN, i64::MAX)`
/// wrapped the interval length to -1, and the duration classifier looped
/// forever while holding the core lock, hanging every connection. The
/// span is now refused as an invalid job.
#[test]
fn overflowing_span_is_rejected_not_a_livelock() {
    let service = Arc::new(Service::start(ServeConfig::new(1, "cbd")).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server::run(service, listener, 2));

    let line = br#"{"op":"submit","tenant":"a","job":0,"size_raw":1000,"arrival":-9223372036854775808,"departure":9223372036854775807}"#;
    match exchange_within(addr, line, Duration::from_secs(5)) {
        Response::Rejected { reason, .. } => assert_eq!(reason, RejectReason::InvalidJob),
        other => panic!("{other:?}"),
    }
    still_serving_then_shutdown(addr, server_thread);
}

/// Pipelining: 40 submits with a `status` after the 20th and a malformed
/// line after the 30th, sent in one write to a `--fsync always` service.
/// The server decides them in read batches, yet every line gets exactly
/// one response, in order, equal to what an in-process service fed the
/// same lines one at a time answers.
#[test]
fn pipelined_submits_are_answered_in_order_like_one_at_a_time() {
    let wal_dir = std::env::temp_dir().join(format!("dbp-serve-pipelined-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut cfg = ServeConfig::new(2, "first-fit");
    cfg.fleet_cap = Some(5);
    cfg.wal_dir = Some(wal_dir.clone());
    cfg.fsync = FsyncPolicy::Always;
    let service = Arc::new(Service::start(cfg.clone()).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_thread = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || server::run(service, listener, 2))
    };

    let mut lines = Vec::new();
    for (i, s) in torture_stream(40).into_iter().enumerate() {
        lines.push(render_request(&Request::Submit(s)));
        match i {
            19 => lines.push("{\"op\":\"status\"}".to_string()),
            29 => lines.push("{\"op\":\"submit\",\"tenant\":".to_string()),
            _ => {}
        }
    }
    let conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = BufReader::new(conn);
    writer
        .write_all(format!("{}\n", lines.join("\n")).as_bytes())
        .unwrap();
    let got: Vec<String> = lines
        .iter()
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        })
        .collect();

    match parse_response(&got[20]).unwrap() {
        Response::Status(s) => {
            assert_eq!(s.watermark, 20);
            assert_eq!(s.decision_seq, 20);
        }
        other => panic!("line 20 should be the status: {other:?}"),
    }
    assert!(
        matches!(parse_response(&got[31]).unwrap(), Response::Error { .. }),
        "{}",
        got[31]
    );
    let decided = got
        .iter()
        .filter(|r| {
            matches!(
                parse_response(r),
                Ok(Response::Placed { .. } | Response::Rejected { .. })
            )
        })
        .count();
    assert_eq!(decided, 40, "every submit, after the malformed line too");
    let metrics = match service.handle(&Request::Metrics) {
        Response::Metrics { text } => text,
        other => panic!("{other:?}"),
    };
    let series = |name: &str| -> u64 {
        let prefix = format!("{name}{{algo=\"first-fit\"}} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&prefix))
            .unwrap_or_else(|| panic!("no {name} in the exposition"))
            .parse()
            .unwrap()
    };
    assert_eq!(series("dbp_serve_submit_batch_size_sum"), 40);
    assert!(
        series("dbp_serve_submit_batch_size_count") < 40,
        "pipelined submits were not batched"
    );
    assert_eq!(
        series("dbp_serve_wal_commit_ns_count"),
        series("dbp_serve_submit_batch_size_count"),
        "one WAL commit per read batch"
    );

    let mut reference_cfg = cfg;
    reference_cfg.wal_dir = None;
    let reference = Service::start(reference_cfg).unwrap();
    for (i, (line, resp)) in lines.iter().zip(&got).enumerate() {
        let want = match parse_request(line) {
            Ok(req) => reference.handle(&req),
            Err(what) => Response::Error { what },
        };
        assert_eq!(resp, &render_response(&want), "line {i} diverged");
    }

    // Nothing beyond one response per line: the next one is the
    // shutdown ack.
    writer.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        parse_response(line.trim_end()).unwrap(),
        Response::ShuttingDown
    ));
    server_thread.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&wal_dir);
}
