//! The shipped `neusight` binary as the benchmark drives it: train,
//! publish, boot a server or a routed fleet, scrape it, stop it.
//!
//! Servers get default flags; only the address, `--predictor` and
//! `--models-dir` are set, so later changes to defaults are measured as
//! users get them.

use crate::client;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Identical-weight registry versions; reloads alternate between them so
/// every reload visibly flips `X-Model-Version`.
pub const VERSIONS: [&str; 2] = ["v0001", "v0002"];

pub type BenchResult<T> = Result<T, String>;

/// Paths of one run's scratch state.
pub struct Env {
    pub neusight: PathBuf,
    pub dir: PathBuf,
}

impl Env {
    pub fn predictor(&self) -> PathBuf {
        self.dir.join("predictor.json")
    }

    pub fn models(&self) -> PathBuf {
        self.dir.join("models")
    }

    /// Runs a `neusight` subcommand to completion; its output goes to a log.
    pub fn run(&self, args: &[&str]) -> BenchResult<()> {
        let log = self.log("cli")?;
        let status = Command::new(&self.neusight)
            .args(args)
            .current_dir(&self.dir)
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .status()
            .map_err(|e| format!("cannot run {}: {e}", self.neusight.display()))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("`neusight {}` failed: {status}", args.join(" ")))
        }
    }

    fn log(&self, name: &str) -> BenchResult<std::fs::File> {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(format!("{name}.log")))
            .map_err(|e| e.to_string())
    }

    /// `neusight publish` of every [`VERSIONS`] entry from the predictor file.
    pub fn publish(&self) -> BenchResult<()> {
        let predictor = self.predictor();
        let models = self.models();
        for version in VERSIONS {
            self.run(&[
                "publish",
                "--version",
                version,
                "--predictor",
                path_str(&predictor)?,
                "--models-dir",
                path_str(&models)?,
            ])?;
        }
        Ok(())
    }

    /// Boots `neusight serve` (or `neusight router --replicas N`) and waits
    /// until `/healthz` answers 200. With `registry` the server loads the
    /// published versions and can be reloaded.
    pub fn boot(&self, replicas: usize, registry: bool) -> BenchResult<Server> {
        let out = self.dir.join(format!("server-{replicas}.out"));
        let stdout = std::fs::File::create(&out).map_err(|e| e.to_string())?;
        let replicas_arg = replicas.to_string();
        let mut args: Vec<&str> = if replicas == 0 {
            vec!["serve"]
        } else {
            vec!["router", "--replicas", &replicas_arg]
        };
        let predictor = self.predictor();
        let models = self.models();
        args.extend([
            "--addr",
            "127.0.0.1:0",
            "--predictor",
            path_str(&predictor)?,
        ]);
        if registry {
            args.extend(["--models-dir", path_str(&models)?]);
        }
        let child = Command::new(&self.neusight)
            .args(&args)
            .current_dir(&self.dir)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(self.log("server")?)
            .spawn()
            .map_err(|e| format!("cannot spawn server: {e}"))?;
        let mut server = Server {
            child,
            addr: None,
            replicas: Vec::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let front = if replicas == 0 {
            "serving on http://"
        } else {
            "routing on http://"
        };
        while server.addr.is_none() || server.replicas.len() < replicas {
            if Instant::now() > deadline {
                server.stop();
                return Err("server did not announce its address within 60 s".to_owned());
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited during boot: {status}"));
            }
            std::thread::sleep(Duration::from_millis(5));
            let text = std::fs::read_to_string(&out).unwrap_or_default();
            server.replicas.clear();
            for line in text.lines() {
                if let Some(rest) = line.strip_prefix(front) {
                    server.addr = parse_addr(rest);
                } else if line.starts_with("replica-") {
                    // `replica-0 on http://127.0.0.1:PORT (pid N)`
                    let addr = line.split("http://").nth(1).and_then(parse_addr);
                    let pid = line
                        .rsplit("(pid ")
                        .next()
                        .and_then(|p| p.trim_end_matches(')').parse::<u32>().ok());
                    if let (Some(addr), Some(pid)) = (addr, pid) {
                        server.replicas.push((pid, addr));
                    }
                }
            }
        }
        let addr = server.addr();
        loop {
            if matches!(client::once(addr, &client::get("/healthz")), Ok(r) if r.status == 200) {
                return Ok(server);
            }
            if Instant::now() > deadline {
                server.stop();
                return Err("server never reported healthy".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn path_str(path: &Path) -> BenchResult<&str> {
    path.to_str()
        .ok_or_else(|| format!("non-UTF-8 path {}", path.display()))
}

fn parse_addr(text: &str) -> Option<SocketAddr> {
    text.split(|c: char| c.is_whitespace() || c == '/')
        .next()?
        .parse()
        .ok()
}

/// A running server process (and, for a router, its replicas).
pub struct Server {
    child: Child,
    addr: Option<SocketAddr>,
    /// `(pid, address)` of each replica a router spawned.
    replicas: Vec<(u32, SocketAddr)>,
}

impl Server {
    pub fn addr(&self) -> SocketAddr {
        self.addr.expect("address parsed during boot")
    }

    /// Addresses whose `/metrics` hold the serving counters: the replicas
    /// behind a router, or the single server.
    pub fn serving_addrs(&self) -> Vec<SocketAddr> {
        if self.replicas.is_empty() {
            vec![self.addr()]
        } else {
            self.replicas.iter().map(|&(_, addr)| addr).collect()
        }
    }

    /// Peak resident memory (`VmHWM`) summed over every server process, MB.
    pub fn rss_peak_mb(&self) -> BenchResult<f64> {
        let mut pids = vec![self.child.id()];
        pids.extend(self.replicas.iter().map(|&(pid, _)| pid));
        let mut total_kb = 0.0;
        for pid in pids {
            let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
                .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
            let kb: f64 = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
                .ok_or_else(|| format!("no VmHWM for pid {pid}"))?;
            total_kb += kb;
        }
        Ok(total_kb / 1024.0)
    }

    /// SIGTERM (a router drains and reaps its replicas), then SIGKILL for
    /// anything still alive after 15 s. Waits for every process to end.
    pub fn stop(&mut self) {
        let pid = self.child.id();
        signal(pid, SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let wait_gone = |pid: u32| {
            let deadline = Instant::now() + Duration::from_secs(5);
            while alive(pid) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        for &(pid, _) in &self.replicas {
            // The router reaps its replicas on SIGTERM; one still alive
            // after that gets SIGKILL, so nothing outlives the run.
            wait_gone(pid);
            if alive(pid) {
                signal(pid, SIGKILL);
                wait_gone(pid);
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            self.stop();
        }
    }
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

fn signal(pid: u32, sig: i32) {
    let Ok(pid) = i32::try_from(pid) else {
        return;
    };
    // SAFETY: `kill(2)` takes plain integers and has no memory-safety
    // preconditions; `pid` is a positive id of a process this run spawned.
    unsafe {
        kill(pid, sig);
    }
}

/// Whether `pid` still exists and is not a zombie.
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map(|stat| {
            let state = stat.rsplit(") ").next().and_then(|s| s.chars().next());
            !matches!(state, Some('Z' | 'X') | None)
        })
        .unwrap_or(false)
}

/// Prometheus text exposition flattened to `name -> value`, summing over
/// label sets.
pub fn scrape(addr: SocketAddr) -> BenchResult<HashMap<String, f64>> {
    let reply = client::once(addr, &client::get("/metrics")).map_err(|e| e.to_string())?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    let text = String::from_utf8_lossy(&reply.body);
    let mut out = HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let name = name.split('{').next().unwrap_or(name);
        if let Ok(value) = value.parse::<f64>() {
            *out.entry(name.to_owned()).or_insert(0.0) += value;
        }
    }
    Ok(out)
}
