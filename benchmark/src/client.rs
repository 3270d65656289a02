//! The load generator: one process, at most two threads (a writer and a
//! reader) and at most two connections (the request stream and, for
//! `serve-uptime`, a scraper).
//!
//! Request lines are rendered before the clock starts, so the generator's
//! own formatting cost never enters a measurement. Responses arrive one
//! line per request, in order; the reader checks each echoes the job it
//! answers and maps it to an [`Outcome`].

use crate::check::{Job, Outcome};
use crate::spec::tenant_of;
use dbp_serve::protocol::{parse_response, render_request, Request, Response, Submit};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The `submit` request for a job.
pub fn submit(job: &Job) -> Request {
    Request::Submit(Submit {
        tenant: tenant_of(job.id).to_string(),
        job: job.id,
        size: None,
        size_raw: Some(job.size_raw),
        arrival: job.arrival,
        departure: job.departure,
    })
}

/// Wire lines for a stream, newline included.
pub fn request_lines(jobs: &[Job]) -> Vec<String> {
    jobs.iter()
        .map(|j| format!("{}\n", render_request(&submit(j))))
        .collect()
}

/// Maps a submit response to its outcome, checking it answers `job`.
pub fn outcome_of(resp: &Response, job: u32) -> Result<Outcome, String> {
    match resp {
        Response::Placed {
            job: j, shard, bin, ..
        } if *j == job => Ok(Outcome::Placed {
            shard: u32::try_from(*shard).map_err(|_| "shard overflows u32")?,
            bin: *bin,
        }),
        Response::Rejected { job: j, reason, .. }
            if *j == job && *reason == dbp_serve::RejectReason::FleetCapacity =>
        {
            Ok(Outcome::Shed)
        }
        other => Err(format!("job {job}: unexpected response {other:?}")),
    }
}

/// What one phase of load produced.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// One entry per request sent; `None` where no valid answer came.
    pub outcomes: Vec<Option<Outcome>>,
    /// Per answered request: response time minus due time (open loop)
    /// or send time (closed loop), in ns, in job order.
    pub latency_ns: Vec<u64>,
    /// Open loop only: how late each request left the generator, ns.
    pub late_ns: Vec<u64>,
    /// First request sent to last response read.
    pub elapsed: Duration,
    /// `(answers so far, offset from the first send)` at the end of
    /// each tenth of the requests.
    pub tenths: Vec<(usize, Duration)>,
    /// Error responses, wrong answers and missing answers.
    pub errors: Vec<String>,
    /// Scraper round trips completed (`metrics` + `status` each).
    pub scrapes: usize,
}

impl LoopResult {
    /// Median throughput over the ten tenths of the phase, req/s: a
    /// stall or a burst of host noise moves one tenth, not the result.
    pub fn median_throughput(&self) -> f64 {
        let mut prev = (0, Duration::ZERO);
        let mut rates = Vec::new();
        for &(done, t) in &self.tenths {
            if t > prev.1 {
                rates.push((done - prev.0) as f64 / (t - prev.1).as_secs_f64());
            }
            prev = (done, t);
        }
        crate::stats::median(&rates)
    }

    /// Decisions, or the first error if any request went unanswered.
    pub fn decisions(&self) -> Result<Vec<Outcome>, String> {
        if let Some(e) = self.errors.first() {
            return Err(format!(
                "{} failed request(s), first: {e}",
                self.errors.len()
            ));
        }
        Ok(self
            .outcomes
            .iter()
            .map(|o| o.expect("no errors"))
            .collect())
    }
}

/// How requests are paced.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Open loop: request `i` is due `i / rate` seconds after the start.
    Open {
        /// Requests per second.
        rate: f64,
    },
    /// Closed loop: at most `window` requests outstanding.
    Closed {
        /// Pipelining window.
        window: usize,
    },
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(conn)
}

/// Drives `lines` (rendered from `jobs`) at `addr`. With `scrape`, the
/// writer also reads `metrics` and `status` over a second connection
/// every 250 ms, so reads contend with writes for the service lock.
pub fn drive(
    addr: &str,
    jobs: &[Job],
    lines: &[String],
    pace: Pace,
    scrape: bool,
) -> Result<LoopResult, String> {
    let conn = connect(addr)?;
    let mut writer = BufWriter::new(conn.try_clone().map_err(|e| format!("socket: {e}"))?);
    let mut reader = BufReader::new(conn);
    let mut scraper = match scrape {
        true => {
            let c = connect(addr)?;
            Some((
                c.try_clone().map_err(|e| format!("socket: {e}"))?,
                BufReader::new(c),
            ))
        }
        false => None,
    };
    let window = match pace {
        Pace::Closed { window } => window.max(1),
        // The open loop never blocks on responses; the channel only
        // carries send times to the reader.
        Pace::Open { .. } => lines.len().max(1),
    };
    let ids: Vec<u32> = jobs.iter().map(|j| j.id).collect();
    let (tx, rx) = mpsc::sync_channel::<Instant>(window);
    let start = Instant::now();
    let interval = match pace {
        Pace::Open { rate } => Some(Duration::from_secs_f64(1.0 / rate)),
        Pace::Closed { .. } => None,
    };
    std::thread::scope(|s| {
        let reader_thread = s.spawn(move || {
            let mut res = LoopResult::default();
            let mut line = String::new();
            for (i, &id) in ids.iter().enumerate() {
                let Ok(reference) = rx.recv() else { break };
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => {
                        res.errors
                            .push(format!("connection closed before job {id}"));
                        break;
                    }
                    Err(e) => {
                        res.errors.push(format!("recv job {id}: {e}"));
                        break;
                    }
                    Ok(_) => {}
                }
                let now = Instant::now();
                if (i + 1) * 10 / ids.len() > i * 10 / ids.len() {
                    res.tenths.push((i + 1, now - start));
                }
                let from = match interval {
                    Some(iv) => start + iv * i as u32,
                    None => reference,
                };
                res.latency_ns
                    .push(now.saturating_duration_since(from).as_nanos() as u64);
                match parse_response(line.trim_end()).and_then(|r| outcome_of(&r, id)) {
                    Ok(o) => res.outcomes.push(Some(o)),
                    Err(e) => {
                        res.outcomes.push(None);
                        res.errors.push(e);
                    }
                }
            }
            res.elapsed = start.elapsed();
            res
        });

        let mut late_ns = Vec::new();
        let mut scrapes = 0usize;
        let mut next_scrape = start + Duration::from_millis(250);
        let mut send_error = None;
        for (i, line) in lines.iter().enumerate() {
            if let Some(iv) = interval {
                let due = start + iv * i as u32;
                if Instant::now() < due {
                    // Everything sent so far goes out before we wait.
                    if let Err(e) = writer.flush() {
                        send_error = Some(format!("send: {e}"));
                        break;
                    }
                    wait_until(due);
                }
                late_ns.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            }
            if tx.send(Instant::now()).is_err() {
                break; // the reader gave up; its errors tell why
            }
            let sent = writer
                .write_all(line.as_bytes())
                .and_then(|()| match interval {
                    Some(_) => Ok(()),
                    None => writer.flush(),
                });
            if let Err(e) = sent {
                send_error = Some(format!("send: {e}"));
                break;
            }
            if let Some((w, r)) = scraper.as_mut() {
                if Instant::now() >= next_scrape {
                    match scrape_once(w, r) {
                        Ok(()) => scrapes += 1,
                        Err(e) => {
                            send_error = Some(format!("scrape: {e}"));
                            break;
                        }
                    }
                    next_scrape += Duration::from_millis(250);
                }
            }
        }
        if let Err(e) = writer.flush() {
            send_error.get_or_insert(format!("send: {e}"));
        }
        drop(tx);
        let mut res = reader_thread.join().expect("reader thread does not panic");
        res.late_ns = late_ns;
        res.scrapes = scrapes;
        res.errors.extend(send_error);
        let missing = lines.len() - res.outcomes.len();
        if missing > 0 {
            res.errors
                .push(format!("{missing} request(s) never answered"));
            res.outcomes.resize(lines.len(), None);
        }
        Ok(res)
    })
}

/// Sleeps until shortly before `due`, then yields until it passes. A
/// plain sleep overshoots by the kernel's timer slack (about 50 µs),
/// which would land in every open-loop latency; yielding instead of
/// spinning leaves the CPU to the reader thread pinned beside us.
fn wait_until(due: Instant) {
    const SLACK: Duration = Duration::from_micros(120);
    let now = Instant::now();
    if due > now + SLACK {
        std::thread::sleep(due - now - SLACK);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn scrape_once(w: &mut TcpStream, r: &mut BufReader<TcpStream>) -> Result<(), String> {
    for req in [Request::Metrics, Request::Status] {
        w.write_all(format!("{}\n", render_request(&req)).as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        r.read_line(&mut line).map_err(|e| e.to_string())?;
        match parse_response(line.trim_end())? {
            Response::Metrics { .. } | Response::Status(_) => {}
            other => return Err(format!("unexpected {other:?}")),
        }
    }
    Ok(())
}
