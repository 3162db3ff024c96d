//! One benchmark run: rounds of set-up plus a timed closed-loop
//! section, each against freshly started serving processes, followed in
//! the traced mode by the per-layer replay.

use std::time::{Duration, Instant};

use dram_core::Dram;
use dram_units::json::{obj, Value};

use crate::affinity::{self, CpuList};
use crate::check;
use crate::client::Conn;
use crate::gen;
use crate::layers::{LayerInputs, Replay};
use crate::procfs::{self, HostTicks};
use crate::servers::{Binaries, Fleet};
use crate::spans::Recorder;
use crate::stats;
use crate::workload::{self, Workload};

/// What to run and where.
#[derive(Debug, Clone)]
pub struct Options {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Timed seconds per run (split between the untraced and the traced
    /// passes in the traced mode).
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// CPUs of the load-generating thread.
    pub client_cpus: CpuList,
    /// CPUs of every serving process.
    pub server_cpus: CpuList,
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Every response matched its reference and no process misbehaved.
    pub correct: bool,
    /// Requests sent and checked.
    pub attempted: u64,
    /// Requests answered wrongly, not 200, or not at all.
    pub failed: u64,
    /// The metrics of the mode.
    pub metrics: Vec<Metric>,
    /// The run record (placement, flags, steal, rounds).
    pub record: Value,
    /// Recorded spans (traced mode only).
    pub spans: Option<Value>,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
}

/// Fewest rounds per run (per pass in the traced mode), so every
/// figure is a median over several set-ups.
const MIN_ROUNDS: usize = 6;
/// Fewest rounds the replay's per-layer figures are computed over.
const QUIET_MIN: usize = 3;
/// Length of a window, the part of a timed section the quiet selection
/// keeps or sets aside: 20 ticks of `/proc/stat` on two CPUs.
const WINDOW: Duration = Duration::from_millis(100);
/// A request counts toward elapsed time with at most this many times
/// the median gap: a longer gap is taken as a host stall, which the
/// quiet windows miss while steal stays high for minutes.
const STALL_CAP: f64 = 3.0;
/// Most rounds per run, whatever the speed.
const MAX_ROUNDS: usize = 64;
/// Wall-clock budget after which no new round starts.
const WALL_BUDGET: Duration = Duration::from_secs(120);
/// Quiet requests a traced run needs before it may report p99 (10
/// beyond it).
const P99_MIN_REQUESTS: usize = 1000;
/// Set-ups (start, warm, kill) per round besides the one that serves
/// the round, in groups with the host steal read around each group, so
/// `setup_s` is a median of many taken while the host was quiet.
const SETUP_GROUPS: usize = 4;
const SETUP_GROUP: usize = 4;
/// Failure descriptions kept for the report.
const MAX_ERRORS: usize = 8;

/// Pass/fail bookkeeping.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what);
        }
    }

    /// Records a failure that is not a request (a process misbehaving).
    fn incident(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what);
        }
    }
}

/// About [`WINDOW`] of a timed section, with the host steal during it.
#[derive(Debug, Default)]
struct Window {
    steal_pct: f64,
    /// Per request, the wall-clock seconds since the previous reply (or
    /// since the window opened): client work, stalls and reconnects
    /// included, the `/proc` reads between windows not.
    gaps_s: Vec<f64>,
    items: u64,
    cpu_ms: f64,
    latencies_ms: Vec<f64>,
}

/// One timed section: a closed-loop pass over a round's requests.
#[derive(Debug, Default)]
struct Section {
    seconds: f64,
    items: u64,
    windows: Vec<Window>,
}

impl Section {
    fn latencies_ms(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.latencies_ms.iter().copied())
            .collect()
    }
}

/// Set-ups made back to back, and the host steal during them.
#[derive(Debug)]
struct SetupGroup {
    steal_pct: f64,
    setups_s: Vec<f64>,
}

/// What one round measured.
#[derive(Debug)]
struct Round {
    index: usize,
    traced: bool,
    /// Host steal over the whole round, set-up included.
    steal_pct: f64,
    /// The round's extra set-ups, by group.
    setups: Vec<SetupGroup>,
    rss_kb: f64,
    section: Section,
    /// The same traffic straight to one node (routed, traced mode).
    direct: Option<Section>,
}

/// The quietest third of `rounds` by host steal (at least
/// [`QUIET_MIN`] of them), for the replay's per-layer figures.
fn quiet<'a>(rounds: &[&'a Round]) -> Vec<&'a Round> {
    let mut by_steal = rounds.to_vec();
    by_steal.sort_by(|a, b| a.steal_pct.total_cmp(&b.steal_pct));
    by_steal.truncate(rounds.len().div_ceil(3).max(QUIET_MIN));
    by_steal
}

/// The highest host steal among the quietest third of `steal`, or
/// `None` for no values. Measurements taken at or below it are kept, so
/// those that overlapped another tenant's burst are set aside instead of
/// moving every figure; with a quiet host all read 0% and all are kept.
fn quiet_limit(mut steal: Vec<f64>) -> Option<f64> {
    steal.sort_by(f64::total_cmp);
    steal
        .get(steal.len().div_ceil(3).saturating_sub(1))
        .copied()
}

/// The windows of `sections` within the [`quiet_limit`].
fn quiet_windows<'a>(sections: impl IntoIterator<Item = &'a Section>) -> Vec<&'a Window> {
    let windows: Vec<&Window> = sections.into_iter().flat_map(|s| &s.windows).collect();
    match quiet_limit(windows.iter().map(|w| w.steal_pct).collect()) {
        Some(limit) => windows
            .into_iter()
            .filter(|w| w.steal_pct <= limit)
            .collect(),
        None => Vec::new(),
    }
}

/// Figures over a set of windows.
#[derive(Debug, Default)]
struct Pass {
    latencies_ms: Vec<f64>,
    gaps_s: Vec<f64>,
    cpu_ms: f64,
    items: u64,
    windows: usize,
    steal_limit_pct: f64,
}

impl Pass {
    fn over(windows: &[&Window]) -> Pass {
        let mut p = Pass {
            windows: windows.len(),
            ..Pass::default()
        };
        for w in windows {
            p.latencies_ms.extend_from_slice(&w.latencies_ms);
            p.gaps_s.extend_from_slice(&w.gaps_s);
            p.cpu_ms += w.cpu_ms;
            p.items += w.items;
            p.steal_limit_pct = p.steal_limit_pct.max(w.steal_pct);
        }
        p
    }

    fn items_per_s(&self) -> f64 {
        stats::capped_rate(self.items, &self.gaps_s, STALL_CAP)
    }

    fn p50_ms(&self) -> f64 {
        stats::median(&self.latencies_ms)
    }
}

/// Requests of one round: distinct request bytes plus the order in
/// which they are sent.
struct Pool {
    bytes: Vec<Vec<u8>>,
    items: Vec<u64>,
    /// Reference body per request; `None` until computed after the
    /// timed section.
    expected: Vec<Option<Vec<u8>>>,
}

/// Everything generated from the seed before any timing.
struct Prepared {
    preset_docs: Vec<Value>,
    /// `preset_docs` rendered: the reference `/v1/evaluate` bodies.
    preset_texts: Vec<String>,
    preset_bodies: Vec<String>,
    /// The working set's `/v1/evaluate` requests, concatenated for one
    /// pipelined write, and the presets they name.
    warm_up: Vec<u8>,
    warm_set: Vec<usize>,
    order: Vec<usize>,
    traces: Vec<gen::TraceStream>,
    trace_dram: Option<Dram>,
}

fn prepare(opts: &Options) -> Prepared {
    let preset_docs = workload::preset_documents();
    let preset_texts = preset_docs.iter().map(ToString::to_string).collect();
    let preset_bodies: Vec<String> = (0..preset_docs.len()).map(gen::preset_body).collect();
    let warm_set = opts.workload.working_set();
    let warm_up = warm_set
        .iter()
        .flat_map(|&p| gen::post("/v1/evaluate", preset_bodies[p].as_bytes()))
        .collect();
    let (traces, trace_dram) = if opts.workload == Workload::TraceIngest {
        let traces = (0..workload::TRACE_STREAMS)
            .map(|i| gen::trace_stream(opts.seed, i, workload::TRACE_COMMANDS))
            .collect();
        let desc = dram_server::presets::by_name(gen::TRACE_PRESET).expect("trace preset");
        (traces, Some(Dram::new(desc).expect("trace preset builds")))
    } else {
        (Vec::new(), None)
    };
    Prepared {
        preset_docs,
        preset_texts,
        preset_bodies,
        warm_up,
        warm_set,
        order: gen::preset_order(opts.seed),
        traces,
        trace_dram,
    }
}

/// The pool and send order of round `round`.
fn round_pool(
    opts: &Options,
    prep: &Prepared,
    round: usize,
) -> (Pool, Vec<usize>, Vec<gen::BatchRequest>) {
    let n = opts.workload.requests_per_round();
    match opts.workload {
        Workload::EvaluateWarm | Workload::RoutedWarm => {
            let pool = Pool {
                bytes: prep
                    .preset_bodies
                    .iter()
                    .map(|b| gen::post("/v1/evaluate", b.as_bytes()))
                    .collect(),
                items: vec![1; prep.preset_bodies.len()],
                expected: prep
                    .preset_texts
                    .iter()
                    .map(|t| Some(t.clone().into_bytes()))
                    .collect(),
            };
            let start = round * n;
            let seq = (start..start + n)
                .map(|i| prep.order[i % prep.order.len()])
                .collect();
            (pool, seq, Vec::new())
        }
        Workload::DesignBatch => {
            let first = (round * n) as u64;
            let reqs: Vec<gen::BatchRequest> = (first..first + n as u64)
                .map(|i| gen::batch_request(opts.seed, i))
                .collect();
            let pool = Pool {
                bytes: reqs
                    .iter()
                    .map(|r| gen::post("/v1/batch", r.body.as_bytes()))
                    .collect(),
                items: vec![gen::BATCH_ITEMS as u64; n],
                expected: vec![None; n],
            };
            (pool, (0..n).collect(), reqs)
        }
        Workload::TraceIngest => {
            let head = gen::trace_head();
            let pool = Pool {
                bytes: prep
                    .traces
                    .iter()
                    .map(|t| {
                        let mut b = head.clone().into_bytes();
                        b.extend_from_slice(&gen::chunked(t.text.as_bytes(), gen::TRACE_CHUNK));
                        b
                    })
                    .collect(),
                items: prep.traces.iter().map(|t| t.commands).collect(),
                expected: vec![None; prep.traces.len()],
            };
            let start = round * n;
            let seq = (start..start + n).map(|i| i % prep.traces.len()).collect();
            (pool, seq, Vec::new())
        }
    }
}

/// Sends `seq` closed-loop, one request in flight. Bodies with a known
/// reference are checked inline; the rest are kept for a check after
/// the timed section.
fn timed_section(
    conn: &mut Conn,
    pool: &Pool,
    seq: &[usize],
    fleet_cpu: &dyn Fn() -> Result<f64, String>,
    rec: &mut Recorder,
    tally: &mut Tally,
    deferred: &mut Vec<(usize, Vec<u8>)>,
) -> Result<Section, String> {
    let host_ticks = || procfs::host_ticks().map_err(|e| e.to_string());
    let mut windows = Vec::new();
    let mut window = Window::default();
    let mut opened = (Instant::now(), host_ticks()?, fleet_cpu()?);
    let mut close = |window: &mut Window, opened: &mut (Instant, HostTicks, f64)| {
        let (ticks, cpu) = (host_ticks()?, fleet_cpu()?);
        let mut done = std::mem::take(window);
        done.steal_pct = ticks.steal_pct_since(opened.1);
        done.cpu_ms = cpu - opened.2;
        windows.push(done);
        *opened = (Instant::now(), ticks, cpu);
        Ok::<(), String>(())
    };
    let mut items = 0;
    let started = Instant::now();
    let mut previous = started;
    for &i in seq {
        rec.enter("client.request");
        let t = Instant::now();
        let reply = conn.send(&pool.bytes[i]);
        let replied = Instant::now();
        let gap = replied - previous;
        previous = replied;
        match reply {
            Ok(r) if r.status == 200 => {
                window.latencies_ms.push((replied - t).as_secs_f64() * 1e3);
                window.gaps_s.push(gap.as_secs_f64());
                window.items += pool.items[i];
                items += pool.items[i];
                match &pool.expected[i] {
                    Some(exp) => {
                        rec.enter("client.check");
                        let same = check::identical(exp, r.body);
                        rec.exit();
                        match same {
                            Ok(()) => tally.ok(),
                            Err(m) => tally.fail(format!("request {i}: {m}")),
                        }
                    }
                    None => {
                        deferred.push((i, r.body.to_vec()));
                        tally.attempted += 1;
                    }
                }
            }
            Ok(r) => tally.fail(format!(
                "request {i}: status {}: {}",
                r.status,
                String::from_utf8_lossy(&r.body[..r.body.len().min(200)])
            )),
            Err(e) => tally.fail(format!("request {i}: {e}")),
        }
        rec.exit();
        if opened.0.elapsed() >= WINDOW {
            close(&mut window, &mut opened)?;
            previous = opened.0;
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    if !window.latencies_ms.is_empty() {
        close(&mut window, &mut opened)?;
    }
    Ok(Section {
        seconds,
        items,
        windows,
    })
}

/// Sends one request outside any timed section and checks the body.
fn checked_request(
    conn: &mut Conn,
    request: &[u8],
    expected: &[u8],
    what: &str,
    tally: &mut Tally,
) {
    match conn.send(request) {
        Ok(r) if r.status == 200 => match check::identical(expected, r.body) {
            Ok(()) => tally.ok(),
            Err(m) => tally.fail(format!("{what}: {m}")),
        },
        Ok(r) => tally.fail(format!("{what}: status {}", r.status)),
        Err(e) => tally.fail(format!("{what}: {e}")),
    }
}

/// `GET path` on a fresh connection; the parsed JSON body.
fn get_json(addr: std::net::SocketAddr, path: &str) -> Result<Value, String> {
    let mut conn = Conn::new(addr);
    let req = format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\n\r\n");
    let reply = conn
        .send(req.as_bytes())
        .map_err(|e| format!("GET {path}: {e}"))?;
    if reply.status != 200 {
        return Err(format!("GET {path}: status {}", reply.status));
    }
    let text = std::str::from_utf8(reply.body).map_err(|_| format!("GET {path}: not UTF-8"))?;
    Value::parse(text).map_err(|e| format!("GET {path}: {e}"))
}

/// For the routed workload: every preset queried on each node directly;
/// the bodies must equal the reference, and routed replies must then
/// equal what the nodes return.
fn check_nodes_directly(fleet: &Fleet, prep: &Prepared, tally: &mut Tally) {
    for &node in fleet.nodes() {
        let mut conn = Conn::new(node);
        for (p, body) in prep.preset_bodies.iter().enumerate() {
            let req = gen::post("/v1/evaluate", body.as_bytes());
            checked_request(
                &mut conn,
                &req,
                prep.preset_texts[p].as_bytes(),
                "direct node query",
                tally,
            );
        }
    }
}

/// Server-side engine cache hit rate summed over the nodes.
fn engine_hit_rate(fleet: &Fleet) -> Result<f64, String> {
    let (mut hits, mut misses) = (0.0, 0.0);
    for &node in fleet.nodes() {
        let m = get_json(node, "/metrics?format=json")?;
        let engine = m.get("engine").ok_or("metrics without engine stats")?;
        hits += engine
            .get("cache_hits")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        misses += engine
            .get("cache_misses")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
    }
    Ok(hits / (hits + misses).max(1.0))
}

/// The checkout's commit, looking for `.git` only in the working
/// directory itself (never in a directory above the checkout).
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The state of one run while its rounds execute.
struct Runner<'a> {
    opts: &'a Options,
    bins: &'a Binaries,
    prep: Prepared,
    tally: Tally,
    /// Recorder of the untraced passes (off).
    untraced_rec: Recorder,
    /// Recorder of the traced passes (on in the traced mode).
    traced_rec: Recorder,
    /// Name, arguments and allowed CPUs of each serving process.
    processes: Vec<(String, String, String)>,
    /// Node addresses of the last round (the ring's node names).
    node_names: Vec<String>,
    server_closes: u64,
    connects: u64,
    hit_rate: f64,
}

impl Runner<'_> {
    /// Starts the serving processes and warms the working set; returns
    /// the fleet, a connection to its front and the set-up seconds.
    fn set_up(&mut self) -> Result<(Fleet, Conn, f64), String> {
        let started = Instant::now();
        let fleet = if self.opts.workload == Workload::RoutedWarm {
            Fleet::routed(self.bins, &self.opts.server_cpus, 2)?
        } else {
            Fleet::single(self.bins, &self.opts.server_cpus)?
        };
        let mut conn = Conn::new(fleet.front());
        let prep = &self.prep;
        match conn.send_pipelined(&prep.warm_up, prep.warm_set.len()) {
            Ok(replies) => {
                for ((status, body), &p) in replies.iter().zip(&prep.warm_set) {
                    let checked = match status {
                        200 => check::identical(prep.preset_texts[p].as_bytes(), body)
                            .map_err(|m| m.to_string()),
                        _ => Err(format!("status {status}")),
                    };
                    match checked {
                        Ok(()) => self.tally.ok(),
                        Err(m) => self.tally.fail(format!("warm-up: {m}")),
                    }
                }
            }
            Err(e) => {
                for _ in &prep.warm_set {
                    self.tally.fail(format!("warm-up: {e}"));
                }
            }
        }
        Ok((fleet, conn, started.elapsed().as_secs_f64()))
    }

    /// A set-up that is killed again at once (dropping a `Proc` kills
    /// and reaps it): the clean drain after SIGTERM is checked on the
    /// fleet that serves the round.
    fn set_up_only(&mut self) -> Result<f64, String> {
        let (fleet, conn, setup_s) = self.set_up()?;
        drop(conn);
        drop(fleet);
        Ok(setup_s)
    }

    /// Runs one round: set-up, the timed section(s), shutdown, and the
    /// deferred checks.
    fn round(&mut self, index: usize, tracing: bool) -> Result<Round, String> {
        let opts = self.opts;
        let host_ticks = || procfs::host_ticks().map_err(|e| e.to_string());
        let ticks0 = host_ticks()?;
        let mut setups = Vec::with_capacity(SETUP_GROUPS);
        for _ in 0..SETUP_GROUPS {
            let before = host_ticks()?;
            let setups_s = (0..SETUP_GROUP)
                .map(|_| self.set_up_only())
                .collect::<Result<Vec<f64>, String>>()?;
            setups.push(SetupGroup {
                steal_pct: host_ticks()?.steal_pct_since(before),
                setups_s,
            });
        }
        let (mut pool, seq, reqs) = round_pool(opts, &self.prep, index);
        let (fleet, mut conn, _) = self.set_up()?;
        if self.processes.is_empty() {
            self.processes = fleet.describe();
        }
        self.node_names = fleet.nodes().iter().map(ToString::to_string).collect();
        if opts.workload == Workload::RoutedWarm {
            check_nodes_directly(&fleet, &self.prep, &mut self.tally);
        }
        let mut deferred = Vec::new();
        let cpu = || fleet.cpu_ms();
        let rec = if tracing {
            &mut self.traced_rec
        } else {
            &mut self.untraced_rec
        };
        let section = timed_section(
            &mut conn,
            &pool,
            &seq,
            &cpu,
            rec,
            &mut self.tally,
            &mut deferred,
        )?;
        let rss_kb = fleet.peak_rss_kb()? as f64;
        self.server_closes += conn.server_closes();
        self.connects += conn.connects();
        let direct = if opts.trace && opts.workload == Workload::RoutedWarm && !tracing {
            // The same traffic straight to one node: the routed p50
            // minus this one is the router hop.
            let mut node = Conn::new(fleet.nodes()[0]);
            let rec = &mut self.untraced_rec;
            let section = timed_section(
                &mut node,
                &pool,
                &seq,
                &cpu,
                rec,
                &mut self.tally,
                &mut deferred,
            )?;
            self.connects += node.connects();
            Some(section)
        } else {
            None
        };
        if opts.trace {
            self.hit_rate = engine_hit_rate(&fleet)?;
        }
        // Close the client side first: a drain waits for parked
        // keep-alive connections.
        drop(conn);
        if let Err(e) = fleet.stop() {
            self.tally.incident(e);
        }
        let steal_pct = procfs::host_ticks()
            .map_err(|e| e.to_string())?
            .steal_pct_since(ticks0);
        self.check_deferred(&mut pool, &reqs, deferred);
        Ok(Round {
            index,
            traced: tracing,
            steal_pct,
            setups,
            rss_kb,
            section,
            direct,
        })
    }

    /// Checks bodies kept by [`timed_section`] against references
    /// computed now, after the timing.
    fn check_deferred(
        &mut self,
        pool: &mut Pool,
        reqs: &[gen::BatchRequest],
        deferred: Vec<(usize, Vec<u8>)>,
    ) {
        let prep = &self.prep;
        let tally = &mut self.tally;
        for (i, body) in deferred {
            if pool.expected[i].is_none() {
                let reference = match self.opts.workload {
                    Workload::DesignBatch => workload::batch_reference(&reqs[i], &prep.preset_docs),
                    Workload::TraceIngest => workload::trace_reference(
                        &prep.traces[i],
                        prep.trace_dram.as_ref().expect("prepared for traces"),
                    ),
                    Workload::EvaluateWarm | Workload::RoutedWarm => {
                        unreachable!("warm references are known before timing")
                    }
                };
                match reference {
                    Ok(r) => pool.expected[i] = Some(r.into_bytes()),
                    Err(e) => {
                        tally.incident(format!("request {i}: no reference: {e}"));
                        continue;
                    }
                }
            }
            let exp = pool.expected[i].as_ref().expect("filled above");
            if let Err(m) = check::identical(exp, &body) {
                // The request was counted as attempted when it was sent.
                tally.incident(format!("request {i}: {m}"));
            }
        }
    }
}

/// Runs the benchmark once.
///
/// # Errors
///
/// A message when the run cannot be carried out at all (a process does
/// not start, `/proc` is unreadable). Wrong answers are not errors: they
/// are counted in the outcome.
#[allow(clippy::too_many_lines)]
pub fn run(opts: &Options, bins: &Binaries) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let own_mask = affinity::current_thread().map_err(|e| format!("sched_getaffinity: {e}"))?;
    let mut runner = Runner {
        opts,
        bins,
        prep: prepare(opts),
        tally: Tally::default(),
        untraced_rec: Recorder::new(false),
        traced_rec: Recorder::new(opts.trace),
        processes: Vec::new(),
        node_names: Vec::new(),
        server_closes: 0,
        connects: 0,
        hit_rate: f64::NAN,
    };
    let mut rounds: Vec<Round> = Vec::new();
    // Built before the client is pinned: engines size themselves from
    // the CPU mask of the thread that creates them.
    let mut replay = opts.trace.then(|| Replay::new(opts.workload));
    let mut layer_rec = Recorder::new(true);
    let half = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };

    affinity::pin_current_thread(&opts.client_cpus)
        .map_err(|e| format!("pinning the client: {e}"))?;
    let client_mask = affinity::current_thread().map_err(|e| format!("sched_getaffinity: {e}"))?;
    let wall = Instant::now();
    let ticks0 = procfs::host_ticks().map_err(|e| e.to_string())?;

    loop {
        let pass = |traced: bool| -> (f64, usize, usize) {
            let all: Vec<&Round> = rounds.iter().filter(|r| r.traced == traced).collect();
            let secs = all.iter().map(|r| r.section.seconds).sum();
            let requests = quiet_windows(all.iter().map(|r| &r.section))
                .iter()
                .map(|w| w.latencies_ms.len())
                .sum();
            (secs, all.len(), requests)
        };
        let (untraced_s, untraced_n, quiet_requests) = pass(false);
        let (traced_s, traced_n, _) = pass(true);
        let done = untraced_s >= half
            && untraced_n >= MIN_ROUNDS
            && (!opts.trace
                || (quiet_requests >= P99_MIN_REQUESTS
                    && traced_s >= half
                    && traced_n >= MIN_ROUNDS));
        if done || rounds.len() >= MAX_ROUNDS || wall.elapsed() > WALL_BUDGET {
            break;
        }
        let index = rounds.len();
        let tracing = opts.trace && index % 2 == 1;
        rounds.push(runner.round(index, tracing)?);
        if let (Some(replay), false) = (&mut replay, tracing) {
            affinity::pin_current_thread(&own_mask).map_err(|e| format!("unpinning: {e}"))?;
            let prep = &runner.prep;
            let inputs = LayerInputs {
                seed: opts.seed,
                order: &prep.order,
                preset_bodies: &prep.preset_bodies,
                traces: &prep.traces,
            };
            replay.slice(&inputs, index, &runner.node_names, &mut layer_rec);
            affinity::pin_current_thread(&opts.client_cpus)
                .map_err(|e| format!("pinning the client: {e}"))?;
        }
    }
    let steal_pct = procfs::host_ticks()
        .map_err(|e| e.to_string())?
        .steal_pct_since(ticks0);
    affinity::pin_current_thread(&own_mask).map_err(|e| format!("unpinning: {e}"))?;

    let Runner {
        mut tally,
        traced_rec,
        processes,
        server_closes,
        connects,
        hit_rate,
        ..
    } = runner;
    let untraced_all: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced_all: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let untraced = Pass::over(&quiet_windows(untraced_all.iter().map(|r| &r.section)));
    let p50_ms = untraced.p50_ms();
    let round_rate = |r: &Round| r.section.items as f64 / r.section.seconds;
    let mut metrics: Vec<Metric> = Vec::new();
    let mut spans = None;
    if let Some(replay) = &replay {
        let traced = Pass::over(&quiet_windows(traced_all.iter().map(|r| &r.section)));
        let direct = Pass::over(&quiet_windows(
            untraced_all.iter().filter_map(|r| r.direct.as_ref()),
        ));
        let direct_p50 = (!direct.latencies_ms.is_empty()).then(|| direct.p50_ms());
        let quiet_rounds = quiet(&untraced_all);
        let indices: Vec<usize> = quiet_rounds.iter().map(|r| r.index).collect();
        let report = replay.report(&indices, p50_ms, direct_p50);
        if let Err(e) = &report.consistent {
            tally.incident(e.clone());
        }
        metrics.extend(report.metrics);
        let untraced_ips = untraced.items_per_s();
        metrics.push((
            "obs.tracing_overhead_pct".into(),
            100.0 * (untraced_ips - traced.items_per_s()) / untraced_ips,
            "%",
        ));
        metrics.push(("engine.hit_rate".into(), hit_rate, "ratio"));
        metrics.push(("host.steal_pct".into(), steal_pct, "%"));
        match stats::windowed_p99(&untraced.latencies_ms) {
            Some(v) => metrics.push(("tail.latency_p99_ms".into(), v, "ms")),
            None => tally.incident(format!(
                "only {} requests: too few for p99 (need {P99_MIN_REQUESTS})",
                untraced.latencies_ms.len()
            )),
        }
        spans = Some(obj(vec![
            ("load", traced_rec.to_json()),
            ("layers", layer_rec.to_json()),
        ]));
    } else {
        metrics.push(("items_per_s".into(), untraced.items_per_s(), "1/s"));
        metrics.push(("latency_p50_ms".into(), p50_ms, "ms"));
        metrics.push((
            "cpu_ms_per_item".into(),
            untraced.cpu_ms / untraced.items as f64,
            "ms",
        ));
        metrics.push((
            "success_rate".into(),
            (tally.attempted - tally.failed.min(tally.attempted)) as f64
                / tally.attempted.max(1) as f64,
            "ratio",
        ));
        let groups: Vec<&SetupGroup> = untraced_all.iter().flat_map(|r| &r.setups).collect();
        let limit = quiet_limit(groups.iter().map(|g| g.steal_pct).collect());
        let setups_s: Vec<f64> = groups
            .iter()
            .filter(|g| limit.is_some_and(|l| g.steal_pct <= l))
            .flat_map(|g| g.setups_s.iter().copied())
            .collect();
        metrics.push(("setup_s".into(), stats::median(&setups_s), "s"));
        let rss_kb: Vec<f64> = untraced_all.iter().map(|r| r.rss_kb).collect();
        metrics.push(("peak_rss_mb".into(), stats::median(&rss_kb) / 1024.0, "MB"));
    }

    let floats = |v: Vec<f64>| v.into_iter().map(Value::from).collect::<Vec<_>>().into();
    let record = obj(vec![
        ("workload", opts.workload.name().into()),
        ("seed", opts.seed.into()),
        ("seconds", opts.seconds.into()),
        ("trace", opts.trace.into()),
        ("git_rev", git_rev().into()),
        ("nproc", nproc.into()),
        ("benchmark_cpus", own_mask.render().into()),
        ("client_cpus", client_mask.render().into()),
        ("server_cpus", opts.server_cpus.render().into()),
        (
            "processes",
            processes
                .into_iter()
                .map(|(name, args, cpus)| {
                    obj(vec![
                        ("name", name.into()),
                        ("args", args.into()),
                        ("cpus_allowed", cpus.into()),
                    ])
                })
                .collect::<Vec<_>>()
                .into(),
        ),
        ("host.steal_pct", steal_pct.into()),
        (
            "round_steal_pct",
            floats(rounds.iter().map(|r| r.steal_pct).collect()),
        ),
        (
            "round_setups_s",
            rounds
                .iter()
                .map(|r| {
                    r.setups
                        .iter()
                        .map(|g| {
                            obj(vec![
                                ("steal_pct", g.steal_pct.into()),
                                ("setups_s", floats(g.setups_s.clone())),
                            ])
                        })
                        .collect::<Vec<_>>()
                        .into()
                })
                .collect::<Vec<_>>()
                .into(),
        ),
        (
            "round_p50_ms",
            floats(
                rounds
                    .iter()
                    .map(|r| stats::median(&r.section.latencies_ms()))
                    .collect(),
            ),
        ),
        (
            "round_items_per_s",
            floats(rounds.iter().map(round_rate).collect()),
        ),
        (
            "windows",
            untraced_all
                .iter()
                .map(|r| r.section.windows.len())
                .sum::<usize>()
                .into(),
        ),
        ("quiet_windows", untraced.windows.into()),
        ("quiet_steal_limit_pct", untraced.steal_limit_pct.into()),
        (
            "latency_p99_ms",
            stats::windowed_p99(&untraced.latencies_ms).map_or(Value::Null, Value::from),
        ),
        ("rounds", rounds.len().into()),
        (
            "requests_per_round",
            opts.workload.requests_per_round().into(),
        ),
        ("quiet_requests", untraced.latencies_ms.len().into()),
        ("connects", connects.into()),
        ("server_closes", server_closes.into()),
        ("wall_s", wall.elapsed().as_secs_f64().into()),
    ]);
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        record,
        spans,
        errors: tally.errors,
    })
}
