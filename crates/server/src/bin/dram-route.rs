//! `dram-route` — consistent-hash shard router for a pool of
//! `dram-serve` nodes.
//!
//! ```text
//! dram-route --node HOST:PORT [--node HOST:PORT ...]
//!            [--addr HOST:PORT] [--replicas N] [--probe-ms MS]
//!            [--down-after N] [--retries N] [--retry-seed N]
//!            [--hedge-ms MS] [--scrape-ms MS] [--random] [--journal N]
//!            [--log off|error|info|debug]
//! ```
//!
//! Each request's model description is hashed with the same content key
//! the backend `ModelCache` buckets by and placed on a consistent-hash
//! ring over the `--node` list, so every device description always hits
//! the node whose cache already holds its model. Nodes failing
//! `--down-after` consecutive health probes (interval `--probe-ms`)
//! are routed around — their ring slice falls through to the next node
//! — and re-absorbed on recovery. Retryable upstream failures back off
//! and fail over under the shared retry policy (`--retries` attempts);
//! `--hedge-ms` arms latency hedging to the next ring successor.
//!
//! The router serves its own `/healthz` and a federated `/metrics`
//! (per-node health, ring ownership, retry/hedge/failover counters and
//! every backend's scraped cache stats, each scrape bounded by
//! `--scrape-ms`). `--random` replaces ring placement with seeded
//! uniform routing — the cache-affinity baseline `shard-bench`
//! measures against.
//!
//! Binds (port `0` picks an ephemeral port, printed on startup), routes
//! until SIGINT/SIGTERM, then drains in-flight client connections.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use dram_server::{route_serve, LogLevel, RouterConfig};

struct Args {
    addr: String,
    config: RouterConfig,
    journal: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7979".to_string(),
        config: RouterConfig {
            log: LogLevel::Info,
            ..RouterConfig::default()
        },
        journal: 16_384,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--addr" => args.addr = value_of("--addr")?,
            "--node" => args.config.nodes.push(value_of("--node")?),
            "--replicas" => {
                let v = value_of("--replicas")?;
                args.config.replicas = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad replica count `{v}`"))?;
            }
            "--probe-ms" => {
                let v = value_of("--probe-ms")?;
                args.config.probe_interval = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&ms| ms >= 1)
                    .map(Duration::from_millis)
                    .ok_or_else(|| format!("bad probe interval `{v}`"))?;
            }
            "--down-after" => {
                let v = value_of("--down-after")?;
                args.config.down_after = v
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad down-after threshold `{v}`"))?;
            }
            "--retries" => {
                let v = value_of("--retries")?;
                args.config.retry.max_attempts = v
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("bad attempt budget `{v}`"))?;
            }
            "--retry-seed" => {
                let v = value_of("--retry-seed")?;
                args.config.retry_seed = v.parse().map_err(|_| format!("bad retry seed `{v}`"))?;
            }
            "--hedge-ms" => {
                let v = value_of("--hedge-ms")?;
                args.config.hedge_after = Some(
                    v.parse::<u64>()
                        .ok()
                        .filter(|&ms| ms >= 1)
                        .map(Duration::from_millis)
                        .ok_or_else(|| format!("bad hedge threshold `{v}`"))?,
                );
            }
            "--scrape-ms" => {
                let v = value_of("--scrape-ms")?;
                args.config.scrape_timeout = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&ms| ms >= 1)
                    .map(Duration::from_millis)
                    .ok_or_else(|| format!("bad scrape timeout `{v}`"))?;
            }
            "--random" => args.config.random_routing = true,
            "--journal" => {
                let v = value_of("--journal")?;
                args.journal = v.parse().map_err(|_| format!("bad journal size `{v}`"))?;
            }
            "--log" => {
                let v = value_of("--log")?;
                args.config.log = LogLevel::parse(&v)
                    .ok_or_else(|| format!("bad log level `{v}` (off|error|info|debug)"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.config.nodes.is_empty() {
        return Err("at least one --node HOST:PORT is required".to_string());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "dram-route — consistent-hash shard router for dram-serve pools\n\n\
         usage:\n  dram-route --node HOST:PORT [--node HOST:PORT ...]\n\
             [--addr HOST:PORT] [--replicas N] [--probe-ms MS] [--down-after N]\n\
             [--retries N] [--retry-seed N] [--hedge-ms MS] [--scrape-ms MS]\n\
             [--random] [--journal N] [--log off|error|info|debug]\n\n\
         defaults: --addr 127.0.0.1:7979 --replicas 64 --probe-ms 500 --down-after 2\n\
         \x20         --retries 5 --retry-seed 0 --scrape-ms 250 --journal 16384 --log info\n\
         \x20         (hedging off, ring routing)\n\
         routing:  requests are keyed by their model description (the backend cache's\n\
         \x20         content key) and placed on a consistent-hash ring; down nodes\n\
         \x20         fail over to ring successors and re-absorb their slice on return\n\
         metrics:  GET /metrics federates the pool (per-node health, ring ownership,\n\
         \x20         retries/hedges/failovers, backend cache stats; ?format=prometheus)\n\
         docs:     docs/SHARDING.md"
    );
}

/// SIGINT/SIGTERM → a flag the main loop polls (same inline-libc shape
/// as `dram-serve`: no external crates, async-signal-safe store).
#[cfg(unix)]
mod signals {
    use super::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::Relaxed);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::Relaxed)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            usage();
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };

    dram_obs::journal::configure(args.journal);

    let nodes = args.config.nodes.clone();
    let hedge = args.config.hedge_after;
    let random = args.config.random_routing;
    let retries = args.config.retry.max_attempts;
    let log = args.config.log;
    let handle = match route_serve(&args.addr, args.config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot start router on {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "dram-route listening on http://{} ({} nodes: {}; {} attempts, hedge {}, {} routing, log {})",
        handle.local_addr(),
        nodes.len(),
        nodes.join(", "),
        retries,
        hedge.map_or("off".to_string(), |d| format!("{} ms", d.as_millis())),
        if random { "random" } else { "ring" },
        log.label(),
    );

    signals::install();
    while !signals::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    println!("dram-route: shutdown requested, draining client connections");
    let proxied = handle.shutdown();
    println!("dram-route: drained; {proxied} requests proxied");
    ExitCode::SUCCESS
}
