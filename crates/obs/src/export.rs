//! Exporters: Chrome trace-event JSON for span profiles, and Prometheus
//! text exposition (version 0.0.4) for metrics.
//!
//! The trace exporter writes the subset of the [Trace Event Format] that
//! `chrome://tracing` and Perfetto load: one `M` (metadata) event naming
//! each thread, then one `X` (complete) event per span with microsecond
//! `ts`/`dur`. Everything goes through [`dram_units::json`], so a trace
//! file round-trips through the workspace's own parser.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;

use dram_units::json::{obj, Value};

use crate::metrics::{bucket_upper_us, Family, Histogram, Kind, Metric, Registry, BUCKETS};
use crate::span::Profile;

/// Serializes a span profile as a Chrome trace-event document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
///
/// Span args are carried into each event's `args` object, plus the
/// span's `id`/`parent` pair so tools (and tests) can rebuild the tree
/// without relying on timestamp containment.
#[must_use]
pub fn chrome_trace(profile: &Profile) -> Value {
    let mut events: Vec<Value> =
        Vec::with_capacity(profile.spans.len() + profile.threads.len() + 1);
    events.push(obj(vec![
        ("ph", "M".into()),
        ("name", "process_name".into()),
        ("pid", 1u64.into()),
        ("args", obj(vec![("name", "dram-energy".into())])),
    ]));
    for t in &profile.threads {
        events.push(obj(vec![
            ("ph", "M".into()),
            ("name", "thread_name".into()),
            ("pid", 1u64.into()),
            ("tid", t.id.into()),
            ("args", obj(vec![("name", t.name.as_str().into())])),
        ]));
    }
    for s in &profile.spans {
        let mut args: Vec<(String, Value)> = vec![
            ("id".to_string(), s.id.into()),
            ("parent".to_string(), s.parent.into()),
        ];
        for (k, v) in &s.args {
            args.push((k.to_string(), v.as_str().into()));
        }
        events.push(obj(vec![
            ("ph", "X".into()),
            ("name", s.name.as_ref().into()),
            ("cat", "dram".into()),
            ("pid", 1u64.into()),
            ("tid", s.thread.into()),
            ("ts", s.start_us.into()),
            ("dur", s.dur_us.into()),
            ("args", Value::Obj(args)),
        ]));
    }
    obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", "ms".into()),
    ])
}

/// Escapes a Prometheus label value: backslash, double quote and
/// newline, per the text exposition format.
#[must_use]
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a `# HELP` text: backslash and newline only (quotes are
/// legal in help text).
#[must_use]
pub fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Incrementally builds a Prometheus text exposition (version 0.0.4)
/// document.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty document.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The `Content-Type` a scrape response carrying this document must
    /// declare.
    pub const CONTENT_TYPE: &'static str = "text/plain; version=0.0.4";

    /// Writes the `# HELP` / `# TYPE` header for a metric family.
    /// `kind` is `counter`, `gauge` or `histogram`.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Writes one sample line with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
        if value.is_finite() {
            let _ = writeln!(self.out, " {value}");
        } else if value.is_nan() {
            let _ = writeln!(self.out, " NaN");
        } else if value > 0.0 {
            let _ = writeln!(self.out, " +Inf");
        } else {
            let _ = writeln!(self.out, " -Inf");
        }
    }

    /// Writes a [`Histogram`] as a Prometheus histogram family in
    /// **seconds**: cumulative `_bucket{le="..."}` lines derived from
    /// the log₂-µs buckets, then `_sum` and `_count`.
    #[allow(clippy::cast_precision_loss)]
    pub fn histogram_seconds(&mut self, name: &str, help: &str, hist: &Histogram) {
        self.header(name, help, "histogram");
        let counts = hist.counts();
        let bucket = format!("{name}_bucket");
        let mut cumulative: u64 = 0;
        for (i, c) in counts.iter().enumerate() {
            cumulative += c;
            match bucket_upper_us(i) {
                Some(upper_us) => {
                    let le = upper_us as f64 * 1e-6;
                    self.sample(&bucket, &[("le", &le.to_string())], cumulative as f64);
                }
                None => self.sample(&bucket, &[("le", "+Inf")], cumulative as f64),
            }
        }
        debug_assert_eq!(counts.len(), BUCKETS);
        self.sample(&format!("{name}_sum"), &[], hist.sum_us() as f64 * 1e-6);
        self.sample(&format!("{name}_count"), &[], cumulative as f64);
    }

    /// Appends every metric of a [`Registry`], in name order.
    pub fn registry(&mut self, registry: &Registry) {
        for family in registry.families_by_name() {
            self.family(&family);
        }
    }

    /// Writes one family: its header, then one sample per series. A
    /// gauge holding NaN has no reading and writes no sample.
    #[allow(clippy::cast_precision_loss)]
    pub(crate) fn family(&mut self, family: &Family) {
        let (name, help) = (family.prom.as_str(), family.help.as_str());
        if let [(_, Metric::Histogram(h))] = family.series.as_slice() {
            self.histogram_seconds(name, help, h);
            return;
        }
        let kind = if family.kind == Kind::Counter {
            "counter"
        } else {
            "gauge"
        };
        self.header(name, help, kind);
        for (value, metric) in &family.series {
            let label = family.label.as_deref().map(|key| (key, value.as_str()));
            let reading = match metric {
                Metric::Counter(c) => c.get() as f64,
                Metric::Gauge(g) => g.get(),
                Metric::Histogram(_) => unreachable!("a histogram family has one series"),
            };
            if !reading.is_nan() {
                self.sample(name, label.as_slice(), reading);
            }
        }
    }

    /// The finished document.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// The two `/metrics` formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// One JSON document.
    Json,
    /// Prometheus text exposition, version 0.0.4.
    Prometheus,
}

impl Format {
    /// The `Content-Type` a response carrying this format declares.
    #[must_use]
    pub fn content_type(self) -> &'static str {
        match self {
            Format::Json => "application/json",
            Format::Prometheus => PromWriter::CONTENT_TYPE,
        }
    }
}

impl Registry {
    /// The JSON document's members: every family with a JSON key, in
    /// declaration order, then `"registry"` holding `process`'s
    /// families by name. A family renders as `key: value`, a labelled
    /// one as `key: {label_value: value}`.
    #[must_use]
    pub fn to_json(&self, process: Option<&Registry>) -> Vec<(String, Value)> {
        let mut doc = json_members(&self.families());
        if let Some(process) = process {
            let members = json_members(&process.families_by_name());
            doc.push(("registry".to_string(), Value::Obj(members)));
        }
        doc
    }

    /// The Prometheus exposition: every family in declaration order,
    /// then `process`'s families in name order.
    #[must_use]
    pub fn to_prometheus(&self, process: Option<&Registry>) -> String {
        let mut w = PromWriter::new();
        for family in self.families() {
            w.family(&family);
        }
        if let Some(process) = process {
            w.registry(process);
        }
        w.finish()
    }
}

fn json_members(families: &[Family]) -> Vec<(String, Value)> {
    let mut doc = Vec::new();
    for f in families.iter().filter(|f| !f.json.is_empty()) {
        let value = match (f.kind, &f.label) {
            (Kind::Info, _) => f.series.first().map(|(v, _)| v.as_str().into()),
            (_, None) => f.series.first().and_then(|(_, m)| json_reading(m)),
            (_, Some(_)) => Some(Value::Obj(
                f.series
                    .iter()
                    .filter_map(|(v, m)| Some((v.clone(), json_reading(m)?)))
                    .collect(),
            )),
        };
        if let Some(value) = value {
            insert(&mut doc, &f.json, value);
        }
    }
    doc
}

/// One series' JSON value; `None` for a gauge with no reading (NaN).
fn json_reading(metric: &Metric) -> Option<Value> {
    match metric {
        Metric::Counter(c) => Some(c.get().into()),
        Metric::Gauge(g) => Some(g.get()).filter(|v| !v.is_nan()).map(Value::from),
        Metric::Histogram(h) => {
            let counts: Vec<Value> = h.counts().iter().map(|c| (*c).into()).collect();
            let uppers: Vec<Value> = (0..counts.len())
                .map(|i| bucket_upper_us(i).map_or(Value::Null, Value::from))
                .collect();
            Some(obj(vec![
                ("bucket_upper_us", uppers.into()),
                ("counts", counts.into()),
            ]))
        }
    }
}

/// Inserts `value` at the dotted `path`, creating (or reusing) the
/// objects on the way.
fn insert(doc: &mut Vec<(String, Value)>, path: &str, value: Value) {
    let Some((head, rest)) = path.split_once('.') else {
        doc.push((path.to_string(), value));
        return;
    };
    let at = doc.iter().position(|(k, _)| k == head).unwrap_or_else(|| {
        doc.push((head.to_string(), Value::Obj(Vec::new())));
        doc.len() - 1
    });
    match &mut doc[at].1 {
        Value::Obj(members) => insert(members, rest, value),
        _ => panic!("JSON key `{head}` is declared both as a value and as an object"),
    }
}
