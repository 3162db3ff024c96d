//! Metric primitives — counters, gauges, the log₂-µs latency histogram —
//! and the registry that declares them as families.
//!
//! Every primitive is relaxed atomics — observability must never make
//! the code it watches contend. Any crate records latencies into the
//! one bucket scheme, and any exporter reads them back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Number of latency buckets: powers of two of microseconds, 1 µs up to
/// ~2 s, plus an overflow bucket.
pub const BUCKETS: usize = 23;

/// Histogram bucket for a latency in microseconds. Bucket `i` counts
/// latencies in `[2^(i-1), 2^i)` µs; bucket 0 is sub-microsecond and the
/// last bucket catches everything at or above `2^(BUCKETS-2)` µs.
#[must_use]
pub fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        (usize::try_from(u64::BITS - us.leading_zeros()).expect("≤ 64")).min(BUCKETS - 1)
    }
}

/// The exclusive upper bound of bucket `i` in microseconds, or `None`
/// for the unbounded overflow bucket.
#[must_use]
pub fn bucket_upper_us(i: usize) -> Option<u64> {
    if i + 1 < BUCKETS {
        Some(1u64 << i)
    } else {
        None
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// The workspace's latency histogram: log₂ buckets of microseconds (see
/// [`bucket_index`]) plus a running sum, so exporters can derive both
/// the JSON bucket table and a Prometheus `_sum`/`_count` pair.
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency.
    pub fn observe(&self, latency: Duration) {
        self.observe_us(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one latency given in microseconds.
    pub fn observe_us(&self, us: u64) {
        self.counts[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Per-bucket counts, index `i` per [`bucket_index`].
    #[must_use]
    pub fn counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of all observed latencies, microseconds.
    #[must_use]
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }
}

/// One registered series' primitive.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Arc<Counter>),
    /// A [`Gauge`].
    Gauge(Arc<Gauge>),
    /// A [`Histogram`].
    Histogram(Arc<Histogram>),
}

/// A primitive a [`Registry`] hands out.
pub trait Handle: Default {
    /// The kind a family of these handles renders as, unless declared
    /// otherwise with [`Registry::add_kind`].
    const KIND: Kind;
    /// Wraps a shared handle as a [`Metric`].
    fn metric(this: Arc<Self>) -> Metric;
    /// The handle inside `metric`, if it is this kind of primitive.
    fn from_metric(metric: &Metric) -> Option<Arc<Self>>;
}

macro_rules! handle {
    ($t:ident) => {
        impl Handle for $t {
            const KIND: Kind = Kind::$t;
            fn metric(this: Arc<Self>) -> Metric {
                Metric::$t(this)
            }
            fn from_metric(metric: &Metric) -> Option<Arc<Self>> {
                match metric {
                    Metric::$t(h) => Some(Arc::clone(h)),
                    _ => None,
                }
            }
        }
    };
}
handle!(Counter);
handle!(Gauge);
handle!(Histogram);

/// How a family renders: its Prometheus `# TYPE` and its JSON shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotonically increasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// The log₂-µs [`Histogram`]: Prometheus buckets in seconds, JSON
    /// `{"bucket_upper_us": [...], "counts": [...]}`.
    Histogram,
    /// A constant-1 gauge whose one label carries the information
    /// (`x_build_info{version="…"} 1`); JSON shows the label value.
    Info,
}

/// One metric family: its declaration plus its series, each a label
/// value (empty when unlabelled) and a handle.
#[derive(Debug, Clone)]
pub(crate) struct Family {
    /// JSON key; `a.b` nests `b` inside object `a`, empty leaves the
    /// family out of the JSON document.
    pub(crate) json: String,
    pub(crate) prom: String,
    pub(crate) help: String,
    pub(crate) kind: Kind,
    pub(crate) label: Option<String>,
    pub(crate) series: Vec<(String, Metric)>,
}

/// A collection of metric families, rendered by [`Registry::to_json`]
/// and [`Registry::to_prometheus`]. Each server owns one, declaring
/// every family once; [`Registry::global`] is the process-wide one.
///
/// Declaring a family (JSON key, Prometheus name, help, [`Kind`], label
/// values) hands back the relaxed-atomic handles its owner records
/// through, so recording never looks anything up or takes a lock.
/// Registration is idempotent by Prometheus name, so call sites can
/// cheaply `registry.counter(...)` through a `OnceLock`. Values known
/// only at scrape time are gauges set just before rendering; a gauge
/// holding NaN has no reading yet and renders nothing.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry. It holds library counters that count
    /// work no server instance owns — `dram_model_*`,
    /// `dram_dsl_parses_total`, `dram_trace_*` and
    /// `dram_faults_injected_total_<site>` — so two servers in one
    /// process share them on purpose. Each server's own families live
    /// in its own registry.
    #[must_use]
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Registers (or fetches) an unlabelled family of kind `H::KIND` and
    /// returns its handle. `json` is its JSON key (`a.b` nests, empty for
    /// Prometheus only).
    ///
    /// # Panics
    ///
    /// Panics if `prom` is already registered with another handle type.
    pub fn add<H: Handle>(&self, json: &str, prom: &str, help: &str) -> Arc<H> {
        self.add_kind(H::KIND, json, prom, help)
    }

    /// As [`Registry::add`], rendered as `kind`: a gauge declared as a
    /// [`Kind::Counter`] carries a count read at scrape time.
    ///
    /// # Panics
    ///
    /// As [`Registry::add`]; also if `kind` does not fit `H` (only
    /// [`Kind::Histogram`] takes a [`Histogram`]).
    pub fn add_kind<H: Handle>(&self, kind: Kind, json: &str, prom: &str, help: &str) -> Arc<H> {
        self.add_labelled(kind, json, prom, help, None, &[""])
            .remove(0)
    }

    /// Registers (or fetches) a family with one series per label value,
    /// in the given order, and returns their handles in that order.
    /// `label` is the label key, `None` for one unlabelled series.
    ///
    /// # Panics
    ///
    /// As [`Registry::add_kind`]; also for a labelled histogram.
    pub fn add_labelled<H: Handle>(
        &self,
        kind: Kind,
        json: &str,
        prom: &str,
        help: &str,
        label: Option<&str>,
        values: &[&str],
    ) -> Vec<Arc<H>> {
        let mut families = self.families.lock().expect("registry lock");
        if let Some(family) = families.iter().find(|f| f.prom == prom) {
            let handles = family.series.iter().map(|(_, m)| H::from_metric(m));
            return handles
                .map(|h| {
                    h.unwrap_or_else(|| panic!("metric `{prom}` is registered as another kind"))
                })
                .collect();
        }
        let handles: Vec<Arc<H>> = values.iter().map(|_| Arc::default()).collect();
        let series: Vec<(String, Metric)> = values
            .iter()
            .zip(&handles)
            .map(|(v, h)| ((*v).to_string(), H::metric(Arc::clone(h))))
            .collect();
        let histogram = kind == Kind::Histogram;
        assert!(
            series
                .iter()
                .all(|(_, m)| matches!(m, Metric::Histogram(_)) == histogram)
                && !(histogram && label.is_some()),
            "family `{prom}`: kind {kind:?} does not fit its handle type or label"
        );
        families.push(Family {
            json: json.to_string(),
            prom: prom.to_string(),
            help: help.to_string(),
            kind,
            label: label.map(str::to_string),
            series,
        });
        handles
    }

    /// Registers a [`Kind::Info`] family: `prom{label="value"} 1`, and
    /// `"json": "value"` in the JSON document.
    pub fn info(&self, json: &str, prom: &str, help: &str, label: &str, value: &str) {
        let one: Vec<Arc<Gauge>> =
            self.add_labelled(Kind::Info, json, prom, help, Some(label), &[value]);
        one[0].set(1.0);
    }

    /// Registers (or fetches) a counter under `name` (also its JSON
    /// key); panics as [`Registry::add`].
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.add(name, name, help)
    }

    /// Registers (or fetches) a gauge under `name`; panics as
    /// [`Registry::add`].
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.add(name, name, help)
    }

    /// Registers (or fetches) a histogram under `name`; panics as
    /// [`Registry::add`].
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.add(name, name, help)
    }

    /// Every family, in declaration order.
    pub(crate) fn families(&self) -> Vec<Family> {
        self.families.lock().expect("registry lock").clone()
    }

    /// Every family, in name order.
    pub(crate) fn families_by_name(&self) -> Vec<Family> {
        let mut families = self.families();
        families.sort_by(|a, b| a.prom.cmp(&b.prom));
        families
    }
}
