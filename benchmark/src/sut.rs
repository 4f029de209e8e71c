//! The system under test as a separate program: building the `firehose`
//! binary from the checkout's sources, `firehose build-graph`, and a
//! `firehose serve` child on an ephemeral loopback port. This file pins the
//! CLI surface (flags and the `serving ... on http://ADDR` line); the wire
//! protocol is pinned in `wire.rs`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use firehose_net::HttpClient;

/// Build `firehose` in release mode from the checkout at `root` and return
/// the binary's path. Cargo decides whether anything needs rebuilding, so a
/// second run in the same checkout costs a freshness check.
pub fn build_firehose(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "firehose",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build --release --bin firehose` failed: {status}"
        ));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let binary = target.join("release").join("firehose");
    if !binary.is_file() {
        return Err(format!(
            "cargo succeeded but {} is missing",
            binary.display()
        ));
    }
    Ok(binary)
}

/// Run a command to completion; its stderr is shown only on failure.
fn run_quiet(command: &mut Command) -> Result<(), String> {
    let output = command
        .stdout(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {command:?}: {e}"))?;
    if output.status.success() {
        Ok(())
    } else {
        Err(format!(
            "{command:?} failed: {}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ))
    }
}

/// `firehose build-graph`: follower file in, similarity graph file out.
/// Returns the wall time of the child.
pub fn build_graph(
    firehose: &Path,
    follower: &Path,
    lambda_a: f64,
    out: &Path,
) -> Result<Duration, String> {
    let started = Instant::now();
    run_quiet(
        Command::new(firehose)
            .arg("build-graph")
            .arg("--follower")
            .arg(follower)
            .arg("--lambda-a")
            .arg(lambda_a.to_string())
            .arg("--out")
            .arg(out),
    )?;
    Ok(started.elapsed())
}

/// A running `firehose serve` child.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    /// Drains the child's stderr so it never blocks on a full pipe.
    stderr: Option<std::thread::JoinHandle<Vec<String>>>,
}

impl Server {
    /// Spawn `firehose serve` on `127.0.0.1:0` and wait until `/healthz`
    /// answers 200. `strategy` is the `--strategy` value. Returns the server
    /// and the time from spawn to healthy.
    pub fn spawn(
        firehose: &Path,
        graph: &Path,
        subscriptions: &Path,
        strategy: &str,
    ) -> Result<(Self, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(firehose)
            .arg("serve")
            .arg("--graph")
            .arg(graph)
            .arg("--subscriptions")
            .arg(subscriptions)
            .args(["--listen", "127.0.0.1:0", "--strategy", strategy])
            .args(["--allow-shutdown", "true"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", firehose.display()))?;
        let pipe = child.stderr.take().expect("stderr was piped");
        let (addr_tx, addr_rx) = mpsc::channel();
        let stderr = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(addr) = line
                    .split("on http://")
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|addr| addr.parse::<SocketAddr>().ok())
                {
                    let _ = addr_tx.send(addr);
                }
                lines.push(line);
            }
            lines
        });
        let mut server = Self {
            child,
            // Replaced below; a server that never announces is dropped.
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(stderr),
        };
        server.addr = addr_rx.recv_timeout(Duration::from_secs(60)).map_err(|_| {
            format!(
                "firehose serve never announced its address: {}",
                server.kill()
            )
        })?;
        let mut client =
            HttpClient::connect(server.addr).map_err(|e| format!("cannot connect: {e}"))?;
        match client.request("GET", "/healthz", b"") {
            Ok(resp) if resp.status == 200 => Ok((server, started.elapsed())),
            Ok(resp) => Err(format!(
                "/healthz answered {}: {}",
                resp.status,
                resp.text()
            )),
            Err(e) => Err(format!("/healthz failed: {e}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown`, then wait for the child to exit. Returns the
    /// server's closing report line.
    pub fn shutdown(mut self) -> Result<String, String> {
        let asked = HttpClient::connect(self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| {
                c.request("POST", "/shutdown", b"")
                    .map_err(|e| e.to_string())
            });
        if let Err(e) = asked {
            return Err(format!("/shutdown failed: {e}; {}", self.kill()));
        }
        let status = self.child.wait().map_err(|e| format!("wait failed: {e}"))?;
        let lines = self.take_stderr();
        if status.success() {
            Ok(lines.last().cloned().unwrap_or_default())
        } else {
            Err(format!(
                "firehose serve exited with {status}: {}",
                lines.join(" | ")
            ))
        }
    }

    fn take_stderr(&mut self) -> Vec<String> {
        self.stderr
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or_default()
    }

    /// Kill the child, wait for it, and return what it wrote to stderr.
    fn kill(&mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.take_stderr().join(" | ")
    }
}

impl Drop for Server {
    /// Every process the benchmark starts is stopped and waited for, also
    /// on an error path that never reached `shutdown`.
    fn drop(&mut self) {
        if self.stderr.is_some() {
            self.kill();
        }
    }
}

/// Touch and free `mb` MB, so that the memory the run is about to use is
/// backed by the host before anything is timed. The sandbox VM backs guest
/// pages lazily: the first touch of a GB cost 2.9 s here against 0.4 s for
/// pages touched before, which read as a 30% slower `wire_fanout` (650 MB
/// server) on the first run after the VM had been idle. Freed pages go back
/// to the kernel's free lists and are the first to be handed out again.
pub fn prefault(mb: usize) {
    let mut block = vec![0u8; mb << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_a_peak_rss() {
        let mb = peak_rss_mb(None).unwrap();
        assert!(mb > 0.5 && mb < 1e6, "{mb} MB");
        assert!(peak_rss_mb(Some(u32::MAX)).is_err());
    }
}
