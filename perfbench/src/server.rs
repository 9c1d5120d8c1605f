//! `ibcf serve` as a child process: launch, set-up timing, stats,
//! resident memory and a clean shutdown.

use crate::sys;
use ibcf_service::{Dtype, Outcome, Payload, StatsSnapshot, TcpConn};
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server (one `serve` process, or a router with its shard
/// children).
pub struct ServerProc {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Shard child pids (fleet only).
    pub shard_pids: Vec<u32>,
    /// Launch → banner (process up, listening; fleet children spawned
    /// and handshaken).
    pub spawn_s: f64,
    /// Launch → first request answered.
    pub setup_s: f64,
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl ServerProc {
    /// Launches `ibcf serve` with `args` (pinned with `taskset -c` when
    /// `cpus` is given) and waits until it answered one probe request.
    pub fn launch(ibcf: &Path, args: &[&str], cpus: Option<&str>) -> io::Result<ServerProc> {
        let mut cmd = match cpus {
            Some(list) => {
                let mut c = Command::new("taskset");
                c.arg("-c").arg(list).arg(ibcf);
                c
            }
            None => Command::new(ibcf),
        };
        cmd.arg("serve")
            .args(["--host", "127.0.0.1", "--port", "0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let start = Instant::now();
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut server = ServerProc {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: String::new(),
            shard_pids: Vec::new(),
            spawn_s: 0.0,
            setup_s: 0.0,
        };
        let fleet = args.contains(&"--procs");
        let mut line = String::new();
        loop {
            line.clear();
            if server.stdout.read_line(&mut line)? == 0 {
                return Err(invalid("serve exited before its banner"));
            }
            if let Some(rest) = line.strip_prefix("serving on ") {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                if !fleet {
                    break;
                }
            } else if let Some(rest) = line.strip_prefix("fleet pids: ") {
                server.shard_pids = rest
                    .trim()
                    .trim_matches(|c| c == '[' || c == ']')
                    .split(',')
                    .filter_map(|p| p.trim().parse().ok())
                    .collect();
                break;
            }
        }
        server.spawn_s = start.elapsed().as_secs_f64();
        let mut conn = TcpConn::connect_with_timeout(&server.addr, Duration::from_secs(30))?;
        let probe = Payload::F32(vec![4.0, 1.0, 1.0, 3.0]);
        conn.send_factor_req(u64::MAX, 2, 0, &probe)?;
        let reply = conn.read_factor_reply()?;
        server.setup_s = start.elapsed().as_secs_f64();
        match reply.outcome {
            Outcome::Factor(p) if p.dtype() == Dtype::F32 => Ok(server),
            other => Err(invalid(format!("probe request answered {other:?}"))),
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident memory of the server and its shard children, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        std::iter::once(self.pid())
            .chain(self.shard_pids.iter().copied())
            .map(sys::peak_rss_mb)
            .sum()
    }

    pub fn stats(&self) -> io::Result<StatsSnapshot> {
        TcpConn::connect_with_timeout(&self.addr, Duration::from_secs(30))?.fetch_stats()
    }

    /// Graceful shutdown: drain, wait for the process to exit, and
    /// return what it printed after its banner.
    pub fn shutdown(mut self) -> io::Result<String> {
        TcpConn::connect_with_timeout(&self.addr, Duration::from_secs(30))?.shutdown_server()?;
        let mut rest = String::new();
        let mut line = String::new();
        while self.stdout.read_line(&mut line)? > 0 {
            rest.push_str(&line);
            line.clear();
        }
        let mut child = self.child.take().expect("running server");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(rest)
                } else {
                    Err(invalid(format!("serve exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                child.kill().ok();
                child.wait().ok();
                return Err(invalid("serve did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    /// A server that was not shut down (an error path) is killed with its
    /// shard children, so no process outlives the benchmark.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            for pid in &self.shard_pids {
                Command::new("kill")
                    .args(["-9", &pid.to_string()])
                    .stderr(Stdio::null())
                    .status()
                    .ok();
            }
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// Parses `fleet: N respawn(s)` from a fleet server's shutdown output.
pub fn respawns(shutdown_output: &str) -> Option<u64> {
    shutdown_output
        .lines()
        .find_map(|l| l.strip_prefix("fleet: "))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

#[cfg(test)]
mod tests {
    #[test]
    fn respawn_count_is_read_from_the_shutdown_report() {
        let out = "served 10 requests\nfleet: 0 respawn(s); all shard processes reaped\n";
        assert_eq!(super::respawns(out), Some(0));
        assert_eq!(super::respawns("served 10 requests\n"), None);
    }
}
