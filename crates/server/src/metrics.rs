//! Request counters, a latency histogram and slow-request samples for
//! the `/metrics` endpoint.
//!
//! Counters are relaxed atomics: `/metrics` is an observability
//! endpoint, not an accounting ledger, and the handlers must never
//! contend on a lock just to count themselves. The slow-request table is
//! the one mutex-guarded structure — but it is preceded by a per-route
//! atomic floor, so the common case (a request faster than everything
//! already sampled) never takes the lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dram_core::EngineSnapshot;
use dram_units::json::{obj, Value};

pub use dram_obs::{bucket_index, bucket_upper_us, BUCKETS};
use dram_obs::{Counter, Format, Gauge, Histogram, Kind, Registry};

/// The routes the service exposes, used to label per-route counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`.
    Healthz,
    /// `GET /v1/presets`.
    Presets,
    /// `POST /v1/evaluate`.
    Evaluate,
    /// `POST /v1/batch`.
    Batch,
    /// `POST /v1/pattern`.
    Pattern,
    /// `POST /v1/sweep`.
    Sweep,
    /// `POST /v1/trace` (buffered or chunked streaming).
    Trace,
    /// `GET /metrics`.
    Metrics,
    /// `GET /debug/*` — the loopback-only introspection family
    /// (journal, per-request timelines, reactor table, on-demand
    /// profiling). Excluded from slow-request sampling.
    Debug,
    /// Anything else (404/405/parse failures).
    Other,
}

impl Route {
    /// All routes, in display order.
    pub const ALL: [Route; 10] = [
        Route::Healthz,
        Route::Presets,
        Route::Evaluate,
        Route::Batch,
        Route::Pattern,
        Route::Sweep,
        Route::Trace,
        Route::Metrics,
        Route::Debug,
        Route::Other,
    ];

    /// Stable label used as the JSON key.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Presets => "presets",
            Route::Evaluate => "evaluate",
            Route::Batch => "batch",
            Route::Pattern => "pattern",
            Route::Sweep => "sweep",
            Route::Trace => "trace",
            Route::Metrics => "metrics",
            Route::Debug => "debug",
            Route::Other => "other",
        }
    }

    fn index(self) -> usize {
        Route::ALL
            .iter()
            .position(|r| *r == self)
            .expect("route in ALL")
    }

    /// The route a (method, path) pair dispatches to; [`Route::Other`]
    /// for anything without a handler. Single source of truth shared by
    /// the API dispatcher and the load-shedding check, so the two can
    /// never classify a request differently.
    #[must_use]
    pub fn classify(method: &str, path: &str) -> Route {
        match (method, path) {
            ("GET", "/healthz") => Route::Healthz,
            ("GET", "/v1/presets") => Route::Presets,
            ("POST", "/v1/evaluate") => Route::Evaluate,
            ("POST", "/v1/batch") => Route::Batch,
            ("POST", "/v1/pattern") => Route::Pattern,
            ("POST", "/v1/sweep") => Route::Sweep,
            ("POST", "/v1/trace") => Route::Trace,
            ("GET", "/metrics") => Route::Metrics,
            ("GET", p) if p == "/debug" || p.starts_with("/debug/") => Route::Debug,
            _ => Route::Other,
        }
    }

    /// Whether the route does unbounded-ish work per request (a full
    /// parameter sweep, a many-item batch, a streamed trace that holds
    /// its worker for the whole upload). Under load these are shed
    /// first, so cheap traffic keeps flowing while the queue recovers.
    #[must_use]
    pub fn expensive(self) -> bool {
        matches!(self, Route::Sweep | Route::Batch | Route::Trace)
    }
}

/// Slowest-request samples retained per route.
pub const SLOW_SAMPLES_PER_ROUTE: usize = 8;

/// Everything known about one served request, for
/// [`Metrics::observe`] and the structured log line.
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord<'a> {
    /// The request's id, already rendered.
    pub id: &'a str,
    /// Which route answered.
    pub route: Route,
    /// Response status code.
    pub status: u16,
    /// Time the connection spent in the accept queue before a worker
    /// picked it up.
    pub queue_wait: Duration,
    /// Time from worker pick-up to the response being ready (read +
    /// parse + handle, excluding the response write).
    pub handle: Duration,
    /// Engine model-cache hits attributed to this request.
    pub cache_hits: u32,
    /// Engine model-cache misses (model builds) attributed to this
    /// request.
    pub cache_misses: u32,
}

/// One retained slow-request sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowSample {
    /// Rendered request id (correlates with the `x-request-id` header).
    pub id: String,
    /// Response status.
    pub status: u16,
    /// Queue wait, microseconds.
    pub queue_us: u64,
    /// Handling time, microseconds.
    pub handle_us: u64,
    /// Engine cache hits attributed to the request.
    pub cache_hits: u32,
    /// Engine cache misses attributed to the request.
    pub cache_misses: u32,
}

/// Per-route slowest-request table: a bounded sample set that keeps the
/// [`SLOW_SAMPLES_PER_ROUTE`] largest handling times seen so far.
#[derive(Debug, Default)]
struct RouteSlow {
    /// Once the table is full: the smallest retained `handle_us`.
    /// Requests at or below it skip the lock entirely.
    floor_us: AtomicU64,
    samples: Mutex<Vec<SlowSample>>,
}

impl RouteSlow {
    fn offer(&self, sample: SlowSample) {
        if sample.handle_us <= self.floor_us.load(Ordering::Relaxed)
            && self.floor_us.load(Ordering::Relaxed) > 0
        {
            return;
        }
        let mut samples = self.samples.lock().expect("slow-sample lock");
        if samples.len() < SLOW_SAMPLES_PER_ROUTE {
            samples.push(sample);
        } else {
            let (min_idx, min) = samples
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.handle_us)
                .expect("table is non-empty");
            if sample.handle_us <= min.handle_us {
                return;
            }
            samples[min_idx] = sample;
        }
        if samples.len() == SLOW_SAMPLES_PER_ROUTE {
            let floor = samples.iter().map(|s| s.handle_us).min().unwrap_or(0);
            self.floor_us.store(floor, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> Vec<SlowSample> {
        let mut out = self.samples.lock().expect("slow-sample lock").clone();
        out.sort_by_key(|s| std::cmp::Reverse(s.handle_us));
        out
    }
}

/// Thread-safe service counters: this server's own [`Registry`], one
/// family per `/metrics` entry in JSON document order, and the handles
/// it records through.
#[derive(Debug)]
pub struct Metrics {
    registry: Registry,
    uptime: Arc<Gauge>,
    /// Fed at scrape time: the sum of the per-route counters.
    requests_total: Arc<Gauge>,
    requests: Vec<Arc<Counter>>,
    errors_4xx: Arc<Counter>,
    errors_5xx: Arc<Counter>,
    /// Connections rejected with 503 because the queue was full.
    pub rejected_busy: Arc<Counter>,
    /// Expensive requests shed with 503 at the `--shed-at` watermark.
    pub shed_load: Arc<Counter>,
    /// Request-handler panics caught and answered with 500.
    pub worker_panics: Arc<Counter>,
    /// Dead worker threads replaced by the supervisor.
    pub worker_respawns: Arc<Counter>,
    /// Requests after the first on one kept-alive connection.
    pub keepalive_reuses: Arc<Counter>,
    /// Requests parsed from bytes an earlier request had over-read.
    pub pipelined_requests: Arc<Counter>,
    /// Parked keep-alive connections closed by the idle sweep.
    pub idle_closed: Arc<Counter>,
    retry_after: Arc<Gauge>,
    latency: Arc<Histogram>,
    engine: [Arc<Gauge>; 7],
    /// EWMA of queue wait in µs, α = 1/8, updated at worker pick-up.
    /// Drives the adaptive `Retry-After` on 503 responses.
    queue_ewma_us: AtomicU64,
    slow: [RouteSlow; Route::ALL.len()],
    started: Instant,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates zeroed counters; uptime starts counting now.
    #[must_use]
    pub fn new() -> Self {
        let r = Registry::new();
        let uptime = r.add(
            "uptime_seconds",
            "dram_serve_uptime_seconds",
            "Seconds since the service started.",
        );
        r.info(
            "version",
            "dram_serve_build_info",
            "Constant 1, labeled with the crate version.",
            "version",
            env!("CARGO_PKG_VERSION"),
        );
        Self {
            uptime,
            requests_total: r.add_kind(
                Kind::Counter,
                "requests_total",
                "dram_serve_requests_total",
                "Requests served, all routes.",
            ),
            requests: r.add_labelled(
                Kind::Counter,
                "requests_by_route",
                "dram_serve_route_requests_total",
                "Requests served, per route.",
                Some("route"),
                &Route::ALL.map(Route::label),
            ),
            errors_4xx: r.add(
                "responses_4xx",
                "dram_serve_responses_4xx_total",
                "Responses with a 4xx status.",
            ),
            errors_5xx: r.add(
                "responses_5xx",
                "dram_serve_responses_5xx_total",
                "Responses with a 5xx status.",
            ),
            rejected_busy: r.add(
                "rejected_busy",
                "dram_serve_rejected_busy_total",
                "Connections rejected with 503 because the accept queue was full.",
            ),
            shed_load: r.add(
                "shed_load",
                "dram_serve_shed_load_total",
                "Expensive requests shed with 503 at the shed-at watermark.",
            ),
            worker_panics: r.add(
                "worker_panics",
                "dram_serve_worker_panics_total",
                "Request-handler panics caught and answered with 500.",
            ),
            worker_respawns: r.add(
                "worker_respawns",
                "dram_serve_worker_respawns_total",
                "Dead worker threads replaced by the supervisor.",
            ),
            keepalive_reuses: r.add(
                "keepalive_reuses",
                "dram_serve_keepalive_reuses_total",
                "Requests served on reused keep-alive connections.",
            ),
            pipelined_requests: r.add(
                "pipelined_requests",
                "dram_serve_pipelined_requests_total",
                "Pipelined requests served from a connection's carry buffer.",
            ),
            idle_closed: r.add(
                "idle_closed",
                "dram_serve_idle_closed_total",
                "Parked keep-alive connections closed by the idle-timeout sweep.",
            ),
            retry_after: r.add(
                "retry_after_s",
                "dram_serve_retry_after_seconds",
                "Current adaptive Retry-After advertised on 503 responses.",
            ),
            latency: r.add(
                "latency_histogram",
                "dram_serve_handle_seconds",
                "Request handling latency (queue wait excluded).",
            ),
            engine: [
                r.add_kind(
                    Kind::Counter,
                    "engine.cache_hits",
                    "dram_engine_cache_hits_total",
                    "Model-cache hits in the shared evaluation engine.",
                ),
                r.add_kind(
                    Kind::Counter,
                    "engine.cache_misses",
                    "dram_engine_cache_misses_total",
                    "Model-cache misses (models built) in the shared engine.",
                ),
                r.add(
                    "engine.cache_entries",
                    "dram_engine_cache_entries",
                    "Models currently cached by the shared engine.",
                ),
                r.add(
                    "engine.hit_rate",
                    "dram_engine_cache_hit_rate",
                    "Fraction of engine lookups served from the cache.",
                ),
                r.add(
                    "engine.threads",
                    "dram_engine_threads",
                    "Worker threads the shared engine evaluates with.",
                ),
                r.add_kind(
                    Kind::Counter,
                    "engine.error_cache_hits",
                    "dram_engine_error_cache_hits_total",
                    "Lookups answered from the engine's negative (known-bad) cache.",
                ),
                r.add(
                    "engine.error_cache_entries",
                    "dram_engine_error_cache_entries",
                    "Known-bad descriptions currently memoized by the engine.",
                ),
            ],
            registry: r,
            queue_ewma_us: AtomicU64::new(0),
            slow: Default::default(),
            started: Instant::now(),
        }
    }

    /// Records one served request: route, response status and handling
    /// latency (queue wait excluded).
    pub fn record(&self, route: Route, status: u16, latency: Duration) {
        self.requests[route.index()].inc();
        if (400..500).contains(&status) {
            self.errors_4xx.inc();
        } else if status >= 500 {
            self.errors_5xx.inc();
        }
        self.latency.observe(latency);
    }

    /// Records a fully-traced request: the counters of
    /// [`Metrics::record`] plus a slow-request sample offer.
    pub fn observe(&self, rec: &RequestRecord<'_>) {
        self.record(rec.route, rec.status, rec.handle);
        if rec.route == Route::Debug {
            // Introspection traffic observes the server; it must not
            // perturb what operators see. Debug requests are counted
            // (above) but never sampled into slow_requests.
            return;
        }
        self.slow[rec.route.index()].offer(SlowSample {
            id: rec.id.to_string(),
            status: rec.status,
            queue_us: u64::try_from(rec.queue_wait.as_micros()).unwrap_or(u64::MAX),
            handle_us: u64::try_from(rec.handle.as_micros()).unwrap_or(u64::MAX),
            cache_hits: rec.cache_hits,
            cache_misses: rec.cache_misses,
        });
    }

    /// Folds one observed queue wait into the EWMA behind
    /// [`Metrics::retry_after_secs`]. Racy read-modify-write by design:
    /// a lost update skews a smoothed estimate, never an invariant.
    pub fn note_queue_wait(&self, wait: Duration) {
        let sample = u64::try_from(wait.as_micros()).unwrap_or(u64::MAX / 8);
        let prev = self.queue_ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 {
            sample
        } else {
            (prev.min(u64::MAX / 8) * 7 + sample) / 8
        };
        self.queue_ewma_us.store(next, Ordering::Relaxed);
    }

    /// The adaptive `Retry-After` for 503 responses: twice the observed
    /// queue-wait EWMA, rounded up to whole seconds, clamped to
    /// `[1, 30]`. An idle server advertises 1 s; a deeply backed-up one
    /// pushes clients out up to half a minute.
    #[must_use]
    pub fn retry_after_secs(&self) -> u64 {
        let ewma_us = self.queue_ewma_us.load(Ordering::Relaxed);
        (2 * ewma_us).div_ceil(1_000_000).clamp(1, 30)
    }

    /// Total requests served (all routes).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.requests.iter().map(|c| c.get()).sum()
    }

    /// The retained slowest samples for one route, slowest first.
    #[must_use]
    pub fn slow_samples(&self, route: Route) -> Vec<SlowSample> {
        self.slow[route.index()].snapshot()
    }

    /// The `/metrics` document in `format`: every family of the table,
    /// with the scrape-time values (uptime, request total, `Retry-After`,
    /// the engine snapshot) fed first, then the process-wide
    /// [`Registry`]. The JSON document also carries the `slow_requests`
    /// table, before the engine families.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn render(&self, format: Format, engine: &EngineSnapshot) -> String {
        self.uptime.set(self.started.elapsed().as_secs_f64());
        self.requests_total.set(self.total() as f64);
        self.retry_after.set(self.retry_after_secs() as f64);
        let e = engine;
        let readings = [
            e.hits as f64,
            e.misses as f64,
            e.entries as f64,
            e.hit_rate(),
            e.threads as f64,
            e.error_hits as f64,
            e.error_entries as f64,
        ];
        for (gauge, value) in self.engine.iter().zip(readings) {
            gauge.set(value);
        }
        let process = Some(Registry::global());
        match format {
            Format::Prometheus => self.registry.to_prometheus(process),
            Format::Json => {
                let mut doc = self.registry.to_json(process);
                let at = doc
                    .iter()
                    .position(|(k, _)| k == "engine")
                    .unwrap_or(doc.len());
                doc.insert(at, ("slow_requests".to_string(), self.slow_json()));
                Value::Obj(doc).to_string()
            }
        }
    }

    /// The `slow_requests` table: per route, its retained samples,
    /// slowest first.
    fn slow_json(&self) -> Value {
        let routes = Route::ALL.iter().map(|r| {
            let samples: Vec<Value> = self
                .slow_samples(*r)
                .into_iter()
                .map(|s| {
                    obj(vec![
                        ("id", s.id.as_str().into()),
                        ("status", u64::from(s.status).into()),
                        ("queue_us", s.queue_us.into()),
                        ("handle_us", s.handle_us.into()),
                        ("cache_hits", u64::from(s.cache_hits).into()),
                        ("cache_misses", u64::from(s.cache_misses).into()),
                    ])
                })
                .collect();
            (r.label().to_string(), samples.into())
        });
        Value::Obj(routes.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(m: &Metrics) -> Value {
        Value::parse(&m.render(Format::Json, &EngineSnapshot::default())).expect("metrics JSON")
    }

    #[test]
    fn records_land_in_route_and_status_counters() {
        let m = Metrics::new();
        m.record(Route::Evaluate, 200, Duration::from_micros(3));
        m.record(Route::Evaluate, 400, Duration::from_micros(3));
        m.record(Route::Other, 404, Duration::from_micros(1));
        m.rejected_busy.inc();
        assert_eq!(m.total(), 3);
        assert_eq!(m.rejected_busy.get(), 1);
        assert_eq!(m.errors_4xx.get(), 2);
        let doc = json(&m);
        let by_route = doc.get("requests_by_route").unwrap();
        assert_eq!(by_route.get("evaluate").and_then(Value::as_f64), Some(2.0));
        assert_eq!(by_route.get("other").and_then(Value::as_f64), Some(1.0));
        assert_eq!(by_route.get("batch").and_then(Value::as_f64), Some(0.0));
        assert_eq!(doc.get("responses_4xx").and_then(Value::as_f64), Some(2.0));
        assert_eq!(doc.get("rejected_busy").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn latency_buckets_cover_the_range() {
        let m = Metrics::new();
        m.record(Route::Healthz, 200, Duration::from_nanos(100));
        m.record(Route::Healthz, 200, Duration::from_micros(1));
        m.record(Route::Healthz, 200, Duration::from_millis(3));
        m.record(Route::Healthz, 200, Duration::from_secs(3600));
        let doc = json(&m);
        let hist = doc.get("latency_histogram").unwrap();
        let counts = hist.get("counts").and_then(Value::as_array).unwrap();
        let total: f64 = counts.iter().filter_map(Value::as_f64).sum();
        assert_eq!(total, 4.0);
        // The giant latency lands in the unbounded overflow bucket.
        assert_eq!(counts.last().and_then(Value::as_f64), Some(1.0));
        let uppers = hist
            .get("bucket_upper_us")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(uppers.last(), Some(&Value::Null));
        assert_eq!(uppers.len(), counts.len());
    }

    /// Boundary semantics of the log₂-µs bucketing: bucket `i` is
    /// `[2^(i-1), 2^i)` µs, so every sample is strictly below its
    /// bucket's `bucket_upper_us` and at or above the previous one's.
    #[test]
    fn bucket_boundaries_are_exclusive_uppers() {
        // 0 µs: the dedicated sub-microsecond bucket.
        assert_eq!(bucket_index(0), 0);
        // Exact powers of two start the *next* bucket (exclusive upper).
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        for k in 0..20 {
            let v = 1u64 << k;
            let b = bucket_index(v);
            assert_eq!(b, k as usize + 1, "2^{k}");
            // Strictly below the bucket's upper bound 2^b, at or above
            // the lower bound 2^(b-1).
            assert!(v < 1u64 << b);
            assert!(v >= 1u64 << (b - 1));
        }
    }

    #[test]
    fn bucket_saturates_at_the_overflow_bucket() {
        // The last finite bucket is [2^(BUCKETS-3), 2^(BUCKETS-2)).
        let top_finite = BUCKETS - 2;
        assert_eq!(bucket_index((1u64 << top_finite) - 1), top_finite);
        // From 2^(BUCKETS-2) up, everything saturates into the overflow
        // bucket — including the u64::MAX sentinel for huge durations.
        assert_eq!(bucket_index(1u64 << top_finite), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn slow_table_keeps_the_n_slowest_per_route() {
        let m = Metrics::new();
        let rec = |id: &str, handle_us: u64| {
            m.observe(&RequestRecord {
                id: &format!("req-{id}"),
                route: Route::Evaluate,
                status: 200,
                queue_wait: Duration::from_micros(7),
                handle: Duration::from_micros(handle_us),
                cache_hits: 1,
                cache_misses: 0,
            });
        };
        // Overfill the table with ascending handle times.
        for i in 0..(SLOW_SAMPLES_PER_ROUTE as u64 + 5) {
            rec(&i.to_string(), 100 + i);
        }
        // A fast request after the table is full must not displace.
        rec("fast", 1);
        let samples = m.slow_samples(Route::Evaluate);
        assert_eq!(samples.len(), SLOW_SAMPLES_PER_ROUTE);
        // Slowest first, and only the largest handle times survive.
        assert!(samples.windows(2).all(|w| w[0].handle_us >= w[1].handle_us));
        assert_eq!(
            samples[0].handle_us,
            100 + SLOW_SAMPLES_PER_ROUTE as u64 + 4
        );
        assert!(samples.iter().all(|s| s.handle_us > 100));
        assert_eq!(samples[0].queue_us, 7);
        assert_eq!(samples[0].cache_hits, 1);
        // Other routes are untouched.
        assert!(m.slow_samples(Route::Pattern).is_empty());
    }

    #[test]
    fn slow_samples_serialize_into_metrics_json() {
        let m = Metrics::new();
        m.observe(&RequestRecord {
            id: "abc-00000001",
            route: Route::Sweep,
            status: 200,
            queue_wait: Duration::from_micros(12),
            handle: Duration::from_micros(34_000),
            cache_hits: 0,
            cache_misses: 2,
        });
        let doc = json(&m);
        let slow = doc.get("slow_requests").expect("slow_requests");
        let sweep = slow.get("sweep").and_then(Value::as_array).unwrap();
        assert_eq!(sweep.len(), 1);
        assert_eq!(
            sweep[0].get("id").and_then(Value::as_str),
            Some("abc-00000001")
        );
        assert_eq!(sweep[0].get("queue_us").and_then(Value::as_f64), Some(12.0));
        assert_eq!(
            sweep[0].get("handle_us").and_then(Value::as_f64),
            Some(34000.0)
        );
        assert_eq!(
            sweep[0].get("cache_misses").and_then(Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            slow.get("healthz")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(0)
        );
    }
}
