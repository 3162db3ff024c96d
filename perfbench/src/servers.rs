//! Building and running the real `dram-serve` and `dram-route`
//! binaries as child processes.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::affinity::{self, CpuList};
use crate::procfs;

/// The service binaries, built from the checkout's sources.
#[derive(Debug, Clone)]
pub struct Binaries {
    /// `dram-serve`.
    pub serve: PathBuf,
    /// `dram-route`.
    pub route: PathBuf,
}

/// Builds both binaries in release mode into the cargo target directory
/// (`CARGO_TARGET_DIR`, else `target`) of the checkout at `root`.
///
/// # Errors
///
/// A message when cargo cannot be run or the build fails.
pub fn build(root: &Path) -> Result<Binaries, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "dram-server",
            "--bin",
            "dram-serve",
            "--bin",
            "dram-route",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!(
            "building dram-serve and dram-route failed: {status}"
        ));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    let bins = Binaries {
        serve: target.join("release/dram-serve"),
        route: target.join("release/dram-route"),
    };
    for b in [&bins.serve, &bins.route] {
        if !b.is_file() {
            return Err(format!("{} missing after build", b.display()));
        }
    }
    Ok(bins)
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// Longest wait for a started process to install its SIGTERM handler.
const HANDLER_WAIT: Duration = Duration::from_secs(5);
/// Grace period for a drain after SIGTERM before the child is killed.
const STOP_GRACE: Duration = Duration::from_secs(10);

/// One running service process.
#[derive(Debug)]
pub struct Proc {
    name: &'static str,
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Known once the banner is read.
    addr: Option<SocketAddr>,
    args: Vec<String>,
}

impl Proc {
    /// Spawns `bin args` restricted to `cpus` and waits for its
    /// `listening on http://ADDR` banner.
    ///
    /// # Errors
    ///
    /// A message when the process cannot start or prints no banner.
    pub fn spawn(
        name: &'static str,
        bin: &Path,
        args: Vec<String>,
        cpus: &CpuList,
    ) -> Result<Proc, String> {
        let mut p = Proc::start(name, bin, args, cpus)?;
        p.await_listening()?;
        Ok(p)
    }

    /// Spawns `bin args` restricted to `cpus` without waiting for its
    /// banner, so several processes can start at once.
    ///
    /// The child inherits the mask of the spawning thread, so the
    /// thread takes `cpus` for the spawn and then returns to its own
    /// mask. (A `pre_exec` hook would force a full `fork`, whose cost
    /// grows with this process's memory.)
    ///
    /// # Errors
    ///
    /// A message when the process cannot start.
    pub fn start(
        name: &'static str,
        bin: &Path,
        args: Vec<String>,
        cpus: &CpuList,
    ) -> Result<Proc, String> {
        let own = affinity::current_thread().map_err(|e| format!("sched_getaffinity: {e}"))?;
        affinity::pin_current_thread(cpus)
            .map_err(|e| format!("cannot use CPUs {}: {e}", cpus.render()))?;
        let spawned = Command::new(bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn();
        affinity::pin_current_thread(&own).map_err(|e| format!("sched_setaffinity: {e}"))?;
        let mut child = spawned.map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Proc {
            name,
            child,
            stdout,
            addr: None,
            args,
        })
    }

    /// Reads the process's output up to its `listening on http://ADDR`
    /// banner. On error the process is killed when dropped.
    ///
    /// # Errors
    ///
    /// A message when the process exits first or prints a bad address.
    pub fn await_listening(&mut self) -> Result<(), String> {
        let name = self.name;
        let mut line = String::new();
        loop {
            line.clear();
            match self.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    return Err(format!("{name} exited before printing its listen address"))
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("");
                let addr = addr
                    .parse()
                    .map_err(|_| format!("{name} printed a bad address `{addr}`"))?;
                self.addr = Some(addr);
                return Ok(());
            }
        }
    }

    /// The address the process listens on.
    ///
    /// # Panics
    ///
    /// Before [`Proc::await_listening`] succeeded.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr.expect("the listen banner was read")
    }

    /// The process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGTERM, then waits for the drain; a process that does not exit
    /// within the grace period is killed.
    ///
    /// The services print their listen address before they install
    /// their SIGTERM handler, so the signal waits until `/proc` shows
    /// the handler; sent earlier it would kill the process outright.
    ///
    /// # Errors
    ///
    /// A message when the process never handled SIGTERM, had to be
    /// killed, or exited non-zero.
    pub fn stop(mut self) -> Result<(), String> {
        let deadline = Instant::now() + HANDLER_WAIT;
        loop {
            match procfs::process_signals_caught(self.child.id()) {
                Ok(mask) if mask & (1 << (SIGTERM - 1)) != 0 => break,
                _ if Instant::now() > deadline => {
                    return Err(format!("{} installed no SIGTERM handler", self.name));
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        let pid = i32::try_from(self.child.id()).expect("pids fit in i32");
        // SAFETY: plain signal delivery to our own, not yet reaped child.
        unsafe {
            kill(pid, SIGTERM);
        }
        let deadline = Instant::now() + STOP_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = Vec::new();
                    let _ = self.stdout.read_to_end(&mut rest);
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("{} exited with {status} after SIGTERM", self.name))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    // The drain messages are two short lines; the pipe
                    // cannot fill before the process exits.
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("{} did not drain within {STOP_GRACE:?}", self.name));
                }
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // Reached with the child still running on an error path and for
        // the extra set-ups, which are killed at once.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The serving processes of one round.
#[derive(Debug)]
pub struct Fleet {
    procs: Vec<Proc>,
    front: SocketAddr,
    nodes: Vec<SocketAddr>,
}

/// Flags every `dram-serve` gets besides `--addr`.
pub const SERVE_FLAGS: [&str; 2] = ["--log", "off"];
/// Flags `dram-route` gets besides `--addr` and `--node`.
pub const ROUTE_FLAGS: [&str; 2] = ["--log", "off"];

fn serve_args() -> Vec<String> {
    let mut a = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
    a.extend(SERVE_FLAGS.iter().map(ToString::to_string));
    a
}

impl Fleet {
    /// One `dram-serve` answering clients directly.
    ///
    /// # Errors
    ///
    /// A message when the node cannot start.
    pub fn single(bins: &Binaries, cpus: &CpuList) -> Result<Fleet, String> {
        let node = Proc::spawn("dram-serve", &bins.serve, serve_args(), cpus)?;
        let addr = node.addr();
        Ok(Fleet {
            procs: vec![node],
            front: addr,
            nodes: vec![addr],
        })
    }

    /// `nodes` `dram-serve` processes behind one `dram-route`.
    ///
    /// # Errors
    ///
    /// A message when a process cannot start.
    pub fn routed(bins: &Binaries, cpus: &CpuList, nodes: usize) -> Result<Fleet, String> {
        // The nodes start at once; the router needs their addresses.
        let mut procs = (0..nodes)
            .map(|_| Proc::start("dram-serve", &bins.serve, serve_args(), cpus))
            .collect::<Result<Vec<Proc>, String>>()?;
        for p in &mut procs {
            p.await_listening()?;
        }
        let node_addrs: Vec<SocketAddr> = procs.iter().map(Proc::addr).collect();
        let mut args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        for a in &node_addrs {
            args.push("--node".to_string());
            args.push(a.to_string());
        }
        args.extend(ROUTE_FLAGS.iter().map(ToString::to_string));
        let router = Proc::spawn("dram-route", &bins.route, args, cpus)?;
        let front = router.addr();
        procs.push(router);
        Ok(Fleet {
            procs,
            front,
            nodes: node_addrs,
        })
    }

    /// Where clients connect: the router if any, else the node.
    #[must_use]
    pub fn front(&self) -> SocketAddr {
        self.front
    }

    /// The `dram-serve` addresses.
    #[must_use]
    pub fn nodes(&self) -> &[SocketAddr] {
        &self.nodes
    }

    /// User plus system CPU time of every serving process, in ms.
    ///
    /// # Errors
    ///
    /// A message when a `/proc` file cannot be read.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        self.procs.iter().try_fold(0.0, |acc, p| {
            procfs::process_cpu_ms(p.pid())
                .map(|ms| acc + ms)
                .map_err(|e| format!("{}: {e}", p.name))
        })
    }

    /// Sum of the serving processes' peak resident sets, in kB.
    ///
    /// # Errors
    ///
    /// A message when a `/proc` file cannot be read.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        self.procs.iter().try_fold(0, |acc, p| {
            procfs::process_vmhwm_kb(p.pid())
                .map(|kb| acc + kb)
                .map_err(|e| format!("{}: {e}", p.name))
        })
    }

    /// Each process's name, exact arguments and allowed CPUs, for the
    /// run record.
    #[must_use]
    pub fn describe(&self) -> Vec<(String, String, String)> {
        self.procs
            .iter()
            .map(|p| {
                (
                    p.name.to_string(),
                    p.args.join(" "),
                    procfs::process_cpus_allowed(p.pid()).unwrap_or_else(|e| e.to_string()),
                )
            })
            .collect()
    }

    /// Stops every process (router first) and waits for each.
    ///
    /// # Errors
    ///
    /// The first process that failed to drain cleanly.
    pub fn stop(mut self) -> Result<(), String> {
        let mut first_err = Ok(());
        while let Some(p) = self.procs.pop() {
            let r = p.stop();
            if first_err.is_ok() {
                first_err = r;
            }
        }
        first_err
    }
}
