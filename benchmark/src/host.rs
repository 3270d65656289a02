//! The host: where the repository is, how to build `dbp`, CPU pinning,
//! and the `/proc` readings the metrics rest on.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Facts about the host that decide how far its numbers can be trusted.
#[derive(Debug)]
pub struct Host {
    /// The repository root (the parent of this crate).
    pub root: PathBuf,
    /// CPUs available to this process before pinning.
    pub nproc: usize,
    /// CPU list the generator runs on, when pinned.
    pub client_cpu: Option<String>,
    /// CPU list `dbp serve` runs on, when pinned.
    pub server_cpu: Option<String>,
    /// `uname -r`.
    pub kernel: String,
    /// Clock ticks per second of `/proc/<pid>/stat` CPU times.
    pub clk_tck: f64,
}

impl Host {
    /// Probes the host and, when it has at least two CPUs and `taskset`,
    /// pins this process (and the threads it spawns later) to CPU 0 so
    /// `dbp serve` can have CPU 1 to itself.
    pub fn probe_and_pin() -> Host {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark crate sits inside the repository")
            .to_path_buf();
        let nproc = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let clk_tck = Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|&t| t > 0.0)
            .unwrap_or(100.0);
        let mut host = Host {
            root,
            nproc,
            client_cpu: None,
            server_cpu: None,
            kernel,
            clk_tck,
        };
        if nproc >= 2 {
            let pinned = Command::new("taskset")
                .args(["-cp", "0", &std::process::id().to_string()])
                .output()
                .is_ok_and(|o| o.status.success());
            if pinned {
                host.client_cpu = Some("0".into());
                host.server_cpu = Some(format!("1-{}", nproc - 1));
            }
        }
        host
    }

    /// One line describing the host, printed with every result.
    pub fn describe(&self, scratch: &Path) -> String {
        let pinning = match (&self.client_cpu, &self.server_cpu) {
            (Some(c), Some(s)) => format!("generator on cpu {c}, dbp serve on cpu {s}"),
            _ => "none".into(),
        };
        format!(
            "host: nproc {}, pinning: {pinning}, kernel {}, scratch fs {}",
            self.nproc,
            self.kernel,
            fs_type(scratch)
        )
    }
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/mounts` — fsync costs mean nothing on `tmpfs`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _dev = f.next()?;
            let mount = f.next()?;
            let fstype = f.next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".into())
}

/// Builds `dbp` from the repository's own sources (release profile,
/// offline) and returns the binary's path. Honors `CARGO_TARGET_DIR`.
pub fn build_dbp(root: &Path) -> Result<PathBuf, String> {
    // A relative CARGO_TARGET_DIR is taken from the repository root,
    // where the benchmark is meant to be started.
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => root.join(t),
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    // `cargo run` describes this package in the environment; passed on,
    // those variables would make the nested build's fingerprints depend
    // on how the benchmark was started.
    for (key, _) in std::env::vars_os() {
        let key = key.to_string_lossy().into_owned();
        if key.starts_with("CARGO_PKG_")
            || key.starts_with("CARGO_MANIFEST_")
            || [
                "CARGO_CRATE_NAME",
                "CARGO_BIN_NAME",
                "CARGO_PRIMARY_PACKAGE",
            ]
            .contains(&key.as_str())
        {
            cmd.env_remove(key);
        }
    }
    let out = cmd
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "dbp"])
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "building dbp failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let bin = target.join("release").join("dbp");
    if !bin.is_file() {
        return Err(format!("no dbp binary at {}", bin.display()));
    }
    Ok(bin)
}

/// User + system CPU seconds `pid` has used so far.
pub fn cpu_seconds(pid: u32, clk_tck: f64) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime 14 and stime 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc stat")?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) / clk_tck)
}

/// Peak resident set (`VmHWM`) of `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".into())
}

/// Removes a scratch directory on drop, so no path out of a run leaves
/// state behind.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    /// Creates (or empties) `path`.
    pub fn new(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(p)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
