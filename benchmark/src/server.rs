//! One `dbp serve` process: boot it, talk to it, kill it.

use crate::host::{cpu_seconds, peak_rss_mb, Host};
use crate::spec::ServeSpec;
use dbp_serve::protocol::{parse_response, render_request, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a server may take to write its port file once it listens.
const PORT_FILE_TIMEOUT: Duration = Duration::from_secs(5);

/// A running `dbp serve`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// Process id (of `dbp` itself: `taskset` execs it in place).
    pub pid: u32,
    /// `host:port` it listens on.
    pub addr: String,
    log: PathBuf,
    /// Held open for the process's lifetime: a closed pipe would make
    /// the server's next print fail.
    stdout: BufReader<ChildStdout>,
}

/// The `dbp serve` flags of a workload, with its durable state (if any)
/// under `dir`.
pub fn serve_args(spec: &ServeSpec, dir: &Path) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "serve".into(),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--shards".into(),
        spec.shards.to_string(),
        "--algo".into(),
        spec.algo.into(),
        "--conn-workers".into(),
        "2".into(),
    ];
    if let Some(cap) = spec.fleet_cap {
        args.extend(["--fleet-cap".into(), cap.to_string()]);
    }
    if let Some(policy) = spec.fsync {
        args.extend([
            "--wal-dir".into(),
            dir.join("wal").display().to_string(),
            "--fsync".into(),
            policy.into(),
        ]);
    }
    if let Some(every) = spec.checkpoint_every {
        args.extend([
            "--checkpoint-dir".into(),
            dir.join("ckpt").display().to_string(),
            "--checkpoint-every".into(),
            every.to_string(),
        ]);
    }
    args
}

impl Server {
    /// Spawns `dbp` with `args` (pinned when the host pins) and waits
    /// until it is ready: it has printed its listening line and written
    /// its port file. Returns the server and the seconds from spawn to
    /// ready — the boot time, recovery included.
    pub fn boot(
        host: &Host,
        dbp: &Path,
        args: &[String],
        dir: &Path,
    ) -> Result<(Server, f64), String> {
        let port_file = dir.join("port.txt");
        let _ = std::fs::remove_file(&port_file);
        let log = dir.join("serve.log");
        let stderr = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = match &host.server_cpu {
            Some(cpus) => {
                let mut c = Command::new("taskset");
                c.args(["-c", cpus]).arg(dbp);
                c
            }
            None => Command::new(dbp),
        };
        cmd.args(args)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        let started = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("cannot spawn dbp: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            pid: child.id(),
            child,
            addr: String::new(),
            log,
            stdout,
        };
        // Blocking on the listening line wakes us the moment the server
        // is up; polling the port file would add its own sleep to every
        // boot time. The port file follows the line immediately.
        let mut line = String::new();
        loop {
            line.clear();
            match server.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = server.child.wait();
                    return Err(format!(
                        "dbp serve exited during boot: {}",
                        server.log_tail()
                    ));
                }
                Ok(_) if line.starts_with("dbp-serve listening on") => break,
                Ok(_) => {}
            }
        }
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    server.addr = text.trim().to_string();
                    return Ok((server, started.elapsed().as_secs_f64()));
                }
            }
            if started.elapsed() > PORT_FILE_TIMEOUT {
                return Err("dbp serve did not write its port file in time".into());
            }
            std::thread::yield_now();
        }
    }

    /// One request on a fresh connection.
    pub fn request(&self, req: &Request) -> Result<Response, String> {
        let stream = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        let mut writer = stream.try_clone().map_err(|e| format!("socket: {e}"))?;
        writer
            .write_all(format!("{}\n", render_request(req)).as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        parse_response(line.trim_end())
    }

    /// The id watermark from `status`.
    pub fn watermark(&self) -> Result<u32, String> {
        match self.request(&Request::Status)? {
            Response::Status(s) => Ok(s.watermark),
            other => Err(format!("status answered {other:?}")),
        }
    }

    /// The Prometheus exposition.
    pub fn metrics(&self) -> Result<String, String> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(format!("metrics answered {other:?}")),
        }
    }

    /// CPU seconds used so far.
    pub fn cpu_seconds(&self, host: &Host) -> Result<f64, String> {
        cpu_seconds(self.pid, host.clk_tck)
    }

    /// Peak RSS so far, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(self.pid)
    }

    /// `kill -9`, then reap.
    pub fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks for a clean shutdown and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("dbp serve exited {status}: {}", self.log_tail()))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return Err("dbp serve did not exit after shutdown".into()),
            }
        }
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Mean of a Prometheus histogram (`_sum / _count`) in `text`.
pub fn prom_mean(text: &str, name: &str) -> Option<f64> {
    let value = |suffix: &str| -> Option<f64> {
        let prefix = format!("{name}{suffix}");
        text.lines()
            .find(|l| {
                l.strip_prefix(&prefix)
                    .is_some_and(|r| r.starts_with('{') || r.starts_with(' '))
            })
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
    };
    let count = value("_count")?;
    (count > 0.0).then(|| value("_sum").map(|s| s / count))?
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_means_parse_from_the_exposition() {
        let text = "# TYPE dbp_serve_place_ns histogram\n\
                    dbp_serve_place_ns_bucket{algo=\"first-fit\",le=\"+Inf\"} 4\n\
                    dbp_serve_place_ns_sum{algo=\"first-fit\"} 1000\n\
                    dbp_serve_place_ns_count{algo=\"first-fit\"} 4\n\
                    dbp_serve_place_ns_sum_other 9\n";
        assert_eq!(prom_mean(text, "dbp_serve_place_ns"), Some(250.0));
        assert_eq!(prom_mean(text, "dbp_serve_wal_append_ns"), None);
    }
}
