//! Building and running the real `questpro serve` process.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{fetch, request};

/// Builds the release `questpro` binary from the checkout the benchmark
/// runs in and returns its path. Cargo makes this a no-op when nothing
/// changed.
pub fn build_server() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/cli").is_dir() {
        return Err("run from the repository root (no Cargo.toml / crates/cli here)".into());
    }
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "questpro-cli",
            "--bin",
            "questpro",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the questpro server failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("questpro");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// Worker threads for the server: the host's CPU count.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A running server process; dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    /// Bound address.
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Server {
    /// Spawns `questpro serve` in its shipped default configuration,
    /// with `--workers` set to the host CPU count and an optional
    /// snapshot preload, and waits for the listening line.
    pub fn spawn(bin: &Path, store: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(host_cpus().to_string());
        if let Some(path) = store {
            cmd.arg("--store").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before listening: {line}"));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line
                .trim()
                .strip_prefix("questpro-server listening on http://")
            {
                match rest.parse() {
                    Ok(a) => break a,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("unparseable listen line: {line}"));
                    }
                }
            }
        };
        // Keep draining stderr so a chatty server never blocks on a full
        // pipe; the text is only shown when the run fails.
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            rest
        });
        Ok(Server {
            child: Some(child),
            addr,
            stderr: Some(stderr),
        })
    }

    /// The process's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// CPU time the process has used so far (user plus system), in
    /// seconds, from `/proc/<pid>/stat` clock ticks (100 per second).
    pub fn cpu_s(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = &stat[stat.rfind(')')? + 2..];
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 = f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?;
        Some(ticks as f64 / 100.0)
    }

    /// Graceful shutdown via `POST /shutdown`, falling back to a kill;
    /// always reaps the process. Returns the server's stderr.
    pub fn shutdown(mut self) -> String {
        let _ = fetch(self.addr, &request("POST", "/shutdown", ""));
        self.reap(Duration::from_secs(10))
    }

    fn reap(&mut self, grace: Duration) -> String {
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + grace;
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap(Duration::ZERO);
    }
}

/// `/proc/loadavg`'s 1-minute figure.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// The checkout's git revision, or `unknown` outside a git work tree.
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
