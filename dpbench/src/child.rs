//! The program under test runs in child processes of `dpbench` itself,
//! re-executed in a hidden mode:
//!
//! * `serve-child --model-dir DIR` — the daemon, through the public
//!   `dpcopula_serve::Server::bind(..).run()` with fixed flags;
//! * `fit-child --csv FILE` — the sharded-fit library caller, driven
//!   over its stdin.
//!
//! Both exit when their stdin closes, so a child never outlives the
//! benchmark, and [`ChildProc`] kills and reaps its child when dropped.

use crate::inputs;
use dpcopula_serve::{ServeConfig, Server};
use obskit::Stopwatch;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Daemon flags every workload runs with (the host has two cores).
pub const POOL_WORKERS: usize = 2;
pub const SAMPLE_WORKERS: usize = 2;
pub const DEFAULT_EPSILON: f64 = 1e9;
pub const CACHE_CAP: usize = 8;

pub fn daemon_flags() -> String {
    format!(
        "pool={POOL_WORKERS} sample_workers={SAMPLE_WORKERS} default_epsilon={DEFAULT_EPSILON:e} \
         cache_cap={CACHE_CAP}"
    )
}

pub struct ChildProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    /// Re-executes this binary with `args`; `tmp` becomes its `TMPDIR`
    /// so nothing it writes leaves the work directory.
    pub fn spawn(args: &[&str], tmp: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating dpbench: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .env("TMPDIR", tmp)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", args[0]))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Self {
            child,
            stdin,
            stdout,
        })
    }

    pub fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("child exited early".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading from child: {e}")),
        }
    }

    pub fn send_line(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("child stdin closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to child: {e}"))
    }

    /// Peak resident set (`VmHWM`) of the child, in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        vm_hwm_kib(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn vm_hwm_kib(status_path: &str) -> Option<u64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A running daemon child.
pub struct Daemon {
    pub proc: ChildProc,
    pub addr: SocketAddr,
    pub model_dir: PathBuf,
}

impl Daemon {
    /// Starts the daemon over `model_dir` and waits until it listens.
    pub fn spawn(model_dir: &Path, tmp: &Path) -> Result<Self, String> {
        let dir = model_dir.to_str().ok_or("model dir is not utf-8")?;
        let mut proc = ChildProc::spawn(&["serve-child", "--model-dir", dir], tmp)?;
        let line = proc.read_line()?;
        let addr = line
            .strip_prefix("listening on http://")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not report its address: `{line}`"))?;
        Ok(Self {
            proc,
            addr,
            model_dir: model_dir.to_path_buf(),
        })
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

/// Exits the process once stdin reaches end of file.
fn exit_when_stdin_closes() {
    std::thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
        std::process::exit(0);
    });
}

/// `serve-child`: prints `listening on http://ADDR`, then serves.
pub fn serve_child_main(args: &[String]) -> Result<(), String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        model_dir: flag(args, "--model-dir")?.into(),
        pool_workers: POOL_WORKERS,
        sample_workers: SAMPLE_WORKERS,
        default_epsilon: DEFAULT_EPSILON,
        cache_capacity: CACHE_CAP,
        ..ServeConfig::default()
    };
    let server = Server::bind(config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening on http://{addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    exit_when_stdin_closes();
    server.run().map_err(|e| e.to_string())
}

/// `fit-child`: loads the CSV, prints `ready`, then answers commands:
///
/// * `run SECONDS SEED` — fits back to back with seeds `SEED`,
///   `SEED+1`, … for SECONDS, printing `fit SEED NS CHECKSUM` per fit,
///   then `end VMHWM_KIB`;
/// * `save PATH` — writes the last fitted model, prints `saved`.
pub fn fit_child_main(args: &[String]) -> Result<(), String> {
    let dataset = datagen::io::load_csv(flag(args, "--csv")?).map_err(|e| e.to_string())?;
    let mut out = std::io::stdout().lock();
    let say = |out: &mut std::io::StdoutLock, line: String| -> Result<(), String> {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())
    };
    say(&mut out, "ready".into())?;
    let mut last = None;
    for command in std::io::stdin().lock().lines() {
        let command = command.map_err(|e| e.to_string())?;
        let words: Vec<&str> = command.split_whitespace().collect();
        match words.as_slice() {
            ["run", seconds, seed] => {
                let seconds: f64 = seconds.parse().map_err(|_| "bad seconds")?;
                let mut seed: u64 = seed.parse().map_err(|_| "bad seed")?;
                let phase = Stopwatch::start();
                while phase.elapsed().as_secs_f64() < seconds {
                    let watch = Stopwatch::start();
                    let model = inputs::sharded_fit(&dataset, seed).map_err(|e| e.to_string())?;
                    let ns = watch.elapsed_ns();
                    let checksum = model.artifact().checksum();
                    say(&mut out, format!("fit {seed} {ns} {checksum:016x}"))?;
                    last = Some(model);
                    seed += 1;
                }
                let hwm = vm_hwm_kib("/proc/self/status").unwrap_or(0);
                say(&mut out, format!("end {hwm}"))?;
            }
            ["save", path] => {
                let model = last.as_ref().ok_or("nothing fitted yet")?;
                model.save(path).map_err(|e| e.to_string())?;
                say(&mut out, "saved".into())?;
            }
            _ => return Err(format!("unknown command `{command}`")),
        }
    }
    Ok(())
}
