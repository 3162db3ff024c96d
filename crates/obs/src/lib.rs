//! # dram-obs
//!
//! Cross-crate observability for the dram-energy workspace: hierarchical
//! span profiling, metrics registries, and exporters for Chrome
//! trace-event JSON, the JSON `/metrics` document and Prometheus text
//! exposition.
//!
//! The model is a deep pipeline — description parse, geometry, device
//! capacitances, charge partitioning, power summation — and this crate
//! makes that pipeline visible from the inside without making it slower
//! from the outside:
//!
//! * [`span`] opens a named span that closes when its guard drops (even
//!   under panic). Profiling is **off by default**; disabled call sites
//!   cost one relaxed atomic load, allocate nothing and record nothing.
//! * A [`Registry`] declares each metric family once (JSON key,
//!   Prometheus name, help, [`Kind`], label) and hands out [`Counter`]s,
//!   [`Gauge`]s and log₂-µs [`Histogram`]s; [`Registry::to_json`] and
//!   [`Registry::to_prometheus`] render both `/metrics` formats from
//!   those declarations. Each server owns one; [`Registry::global`] is
//!   the process-wide one.
//! * [`chrome_trace`] serializes a drained [`Profile`] into a file
//!   `chrome://tracing` / Perfetto loads.
//! * [`journal`] is the always-on flight recorder: a fixed-size,
//!   lock-light ring buffer of typed lifecycle events (accepts,
//!   dispatches, cache hits, fault fires, responses, …) written through
//!   per-thread shards with zero allocation, read back by the server's
//!   `/debug/*` endpoints. Sized 0 (the default) it costs one relaxed
//!   load per call site.
//!
//! ```
//! dram_obs::set_enabled(true);
//! {
//!     let _outer = dram_obs::span("demo.outer");
//!     let _inner = dram_obs::span("demo.inner").arg("k", 42);
//! }
//! dram_obs::set_enabled(false);
//! let profile = dram_obs::drain();
//! let trace = dram_obs::chrome_trace(&profile).to_string();
//! assert!(trace.contains("\"demo.inner\""));
//! ```
//!
//! See `docs/OBSERVABILITY.md` for the workspace's span taxonomy and
//! metric naming scheme.
#![warn(missing_docs)]

mod export;
pub mod journal;
pub mod metrics;
pub mod span;

pub use export::{chrome_trace, escape_help, escape_label, Format, PromWriter};
pub use metrics::{
    bucket_index, bucket_upper_us, Counter, Gauge, Handle, Histogram, Kind, Metric, Registry,
    BUCKETS,
};
pub use span::{
    clear, drain, enabled, profile_window, register_thread, rollup, set_enabled, snapshot, span,
    ManualSpan, Profile, ProfileWindow, Rollup, SpanGuard, SpanRecord, ThreadInfo,
};

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
    use std::time::{Duration, Instant};

    use dram_units::json::Value;

    use super::*;

    /// Span recording is process-global state; tests that enable it must
    /// not interleave. (Metrics tests don't need this.)
    fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let lock = LOCK.get_or_init(|| Mutex::new(()));
        let guard = lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_enabled(false);
        clear();
        guard
    }

    #[test]
    fn spans_nest_and_record_parents() {
        let _x = exclusive();
        set_enabled(true);
        {
            let _outer = span("t.outer");
            {
                let _inner = span("t.inner");
            }
            let _sibling = span("t.sibling");
        }
        set_enabled(false);
        let profile = drain();
        assert_eq!(profile.spans.len(), 3);
        // Close order: inner, sibling, outer.
        let inner = &profile.spans[0];
        let sibling = &profile.spans[1];
        let outer = &profile.spans[2];
        assert_eq!(inner.name, "t.inner");
        assert_eq!(outer.name, "t.outer");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sibling.parent, outer.id);
        assert_eq!(outer.parent, 0, "outer is a root");
        assert!(inner.start_us >= outer.start_us);
        // The recording thread is registered exactly once.
        assert!(profile.threads.iter().any(|t| t.id == outer.thread));
    }

    #[test]
    fn span_guard_closes_during_panic_unwind() {
        let _x = exclusive();
        set_enabled(true);
        let result = std::panic::catch_unwind(|| {
            let _span = span("t.panicking");
            panic!("boom");
        });
        assert!(result.is_err());
        // A span opened after the unwind must not inherit the panicked
        // span as parent: the guard restored the TLS state on drop.
        {
            let _after = span("t.after");
        }
        set_enabled(false);
        let profile = drain();
        let panicking = profile.spans.iter().find(|s| s.name == "t.panicking");
        assert!(panicking.is_some(), "unwound span was still recorded");
        let after = profile.spans.iter().find(|s| s.name == "t.after").unwrap();
        assert_eq!(after.parent, 0);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _x = exclusive();
        assert!(!enabled());
        {
            let mut g = span("t.off");
            g.add_arg("k", "v");
            let _manual =
                ManualSpan::new("t.off.manual", Instant::now(), Instant::now()).arg("k", 1);
        }
        ManualSpan::new("t.off.committed", Instant::now(), Instant::now()).commit();
        assert!(drain().spans.is_empty());
    }

    #[test]
    fn manual_spans_measure_caller_intervals() {
        let _x = exclusive();
        set_enabled(true);
        let start = Instant::now();
        let end = start + Duration::from_micros(1500);
        ManualSpan::new("t.manual", start, end)
            .arg("id", "abc")
            .commit();
        set_enabled(false);
        let profile = drain();
        assert_eq!(profile.spans.len(), 1);
        let s = &profile.spans[0];
        assert_eq!(s.name, "t.manual");
        assert_eq!(s.dur_us, 1500);
        assert_eq!(s.args, vec![("id".into(), "abc".to_string())]);
    }

    #[test]
    fn rollup_aggregates_by_name() {
        let mk = |name: &'static str, dur_us: u64| SpanRecord {
            id: 1,
            parent: 0,
            name: name.into(),
            thread: 1,
            start_us: 0,
            dur_us,
            args: Vec::new(),
        };
        let profile = Profile {
            spans: vec![mk("a", 10), mk("b", 100), mk("a", 30)],
            threads: Vec::new(),
        };
        let rolled = rollup(&profile);
        assert_eq!(rolled.len(), 2);
        assert_eq!(rolled[0].name, "b");
        assert_eq!(rolled[1].name, "a");
        assert_eq!(rolled[1].count, 2);
        assert_eq!(rolled[1].total_us, 40);
        assert!((rolled[1].mean_us - 20.0).abs() < 1e-12);
        assert_eq!(rolled[1].max_us, 30);
    }

    #[test]
    fn overlapping_windows_each_see_their_own_interval() {
        let _x = exclusive();
        let names = |p: &Profile| {
            p.spans
                .iter()
                .map(|s| s.name.to_string())
                .collect::<Vec<_>>()
        };
        let first = profile_window();
        let second = profile_window();
        assert!(!enabled(), "windows leave the process switch alone");
        drop(span("t.window.both"));
        let first = first.close();
        std::thread::sleep(Duration::from_millis(2));
        drop(span("t.window.second"));
        let second = second.close();
        assert_eq!(names(&first), ["t.window.both"]);
        assert_eq!(names(&second), ["t.window.both", "t.window.second"]);
        // The last holder gone, recording stops and the sink is empty.
        drop(span("t.window.after"));
        assert!(drain().spans.is_empty());

        // A pre-armed switch is one more holder: closing a window neither
        // stops recording nor steals the switch's spans.
        set_enabled(true);
        drop(span("t.window.before"));
        drop(profile_window());
        drop(span("t.window.still"));
        set_enabled(false);
        assert_eq!(names(&drain()), ["t.window.before", "t.window.still"]);
    }

    #[test]
    fn chrome_trace_round_trips_through_the_workspace_parser() {
        let _x = exclusive();
        set_enabled(true);
        {
            let _outer = span("t.trace.outer").arg("quote", "a\"b\\c");
            let _inner = span("t.trace.inner");
        }
        set_enabled(false);
        let profile = drain();
        let doc = chrome_trace(&profile);
        let text = doc.to_string();
        let parsed = Value::parse(&text).expect("trace JSON parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // Process metadata + ≥1 thread metadata + the two spans.
        assert!(events.len() >= 4, "{text}");
        let inner = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("t.trace.inner"))
            .expect("inner event present");
        assert_eq!(inner.get("ph").and_then(Value::as_str), Some("X"));
        assert!(inner.get("ts").and_then(Value::as_f64).is_some());
        assert!(inner.get("dur").and_then(Value::as_f64).is_some());
        let outer = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("t.trace.outer"))
            .expect("outer event present");
        // Parent linkage survives the round trip.
        assert_eq!(
            inner.get("args").unwrap().get("parent"),
            outer.get("args").unwrap().get("id")
        );
        // Awkward arg values survive the escaper and the parser.
        assert_eq!(
            outer
                .get("args")
                .unwrap()
                .get("quote")
                .and_then(Value::as_str),
            Some("a\"b\\c")
        );
        // Thread metadata names the recording thread.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some("thread_name")
                && e.get("ph").and_then(Value::as_str) == Some("M")
        }));
    }

    #[test]
    fn histogram_buckets_match_the_server_scheme() {
        // Boundary semantics of the log₂-µs bucketing: bucket `i` is
        // `[2^(i-1), 2^i)` µs, exclusive upper bounds.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        for k in 0..20 {
            let v = 1u64 << k;
            let b = bucket_index(v);
            assert_eq!(b, k + 1, "2^{k}");
            assert!(v < 1u64 << b);
            assert!(v >= 1u64 << (b - 1));
        }
        // Saturation into the overflow bucket.
        let top_finite = BUCKETS - 2;
        assert_eq!(bucket_index((1u64 << top_finite) - 1), top_finite);
        assert_eq!(bucket_index(1u64 << top_finite), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_us(0), Some(1));
        assert_eq!(bucket_upper_us(BUCKETS - 2), Some(1 << (BUCKETS - 2)));
        assert_eq!(bucket_upper_us(BUCKETS - 1), None);
    }

    #[test]
    fn histogram_tracks_counts_and_sum() {
        let h = Histogram::new();
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_micros(5));
        h.observe_us(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 8);
        let counts = h.counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[bucket_index(3)], 1); // [2, 4) µs
        assert_eq!(counts[bucket_index(5)], 1); // [4, 8) µs
    }

    #[test]
    fn registry_is_idempotent_and_kind_checked() {
        let r = Registry::new();
        let a = r.counter("x_total", "help");
        let b = r.counter("x_total", "other help ignored");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same underlying counter");
        let g = r.gauge("y", "gauge help");
        g.set(1.5);
        assert!((r.gauge("y", "").get() - 1.5).abs() < 1e-12);
        let h = r.histogram("z_seconds", "hist help");
        h.observe_us(10);
        let families = r.families_by_name();
        assert_eq!(families.len(), 3);
        assert_eq!(families[0].prom, "x_total");
        assert_eq!(families[1].prom, "y");
        assert_eq!(families[2].prom, "z_seconds");
        assert!(std::panic::catch_unwind(|| r.gauge("x_total", "")).is_err());
    }

    #[test]
    fn prometheus_escaping_is_exact() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(escape_help("multi\nline \\ help"), "multi\\nline \\\\ help");
    }

    #[test]
    fn prom_writer_renders_families_and_labels() {
        let t = Registry::new();
        t.add::<Counter>("test", "dram_test_total", "A counter.")
            .add(42);
        let routes: Vec<Arc<Counter>> = t.add_labelled(
            Kind::Counter,
            "routes",
            "dram_routes_total",
            "Per-route.",
            Some("route"),
            &["eval\"x", "plain"],
        );
        routes[0].add(7);
        t.add::<Gauge>("ratio", "dram_ratio", "A gauge.").set(0.5);
        let text = t.to_prometheus(None);
        assert!(text.contains("# HELP dram_test_total A counter.\n"));
        assert!(text.contains("# TYPE dram_test_total counter\n"));
        assert!(text.contains("dram_test_total 42\n"));
        assert!(text.contains("dram_routes_total{route=\"eval\\\"x\"} 7\n"));
        assert!(text.contains("dram_routes_total{route=\"plain\"} 0\n"));
        assert!(text.contains("# TYPE dram_ratio gauge\n"));
        assert!(text.contains("dram_ratio 0.5\n"));
        // A labelled family writes its header once, for all its series.
        assert_eq!(
            text.matches("# HELP dram_routes_total ").count(),
            1,
            "{text}"
        );
        assert_eq!(
            text.matches("# TYPE dram_routes_total ").count(),
            1,
            "{text}"
        );
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad sample line: {line}");
        }
    }

    #[test]
    fn family_without_series_still_writes_its_header() {
        let t = Registry::new();
        let none: Vec<Arc<Counter>> = t.add_labelled(
            Kind::Counter,
            "",
            "dram_empty_total",
            "No series yet.",
            Some("node"),
            &[],
        );
        assert!(none.is_empty());
        // A gauge without a reading (NaN) is a series with no sample.
        let unread: Vec<Arc<Gauge>> = t.add_labelled(
            Kind::Gauge,
            "unread",
            "dram_unread",
            "Not read yet.",
            Some("node"),
            &["a", "b"],
        );
        unread[0].set(f64::NAN);
        unread[1].set(3.0);
        let text = t.to_prometheus(None);
        assert!(
            text.contains("# HELP dram_empty_total No series yet.\n"),
            "{text}"
        );
        assert!(text.contains("# TYPE dram_empty_total counter\n"), "{text}");
        assert!(!text.contains("dram_empty_total{"), "{text}");
        assert!(!text.contains("dram_unread{node=\"a\"}"), "{text}");
        assert!(text.contains("dram_unread{node=\"b\"} 3\n"), "{text}");
        // JSON leaves out the Prometheus-only family and the unread series.
        let doc = Value::Obj(t.to_json(None)).to_string();
        assert_eq!(doc, r#"{"unread":{"b":3}}"#);
    }

    #[test]
    fn json_follows_declaration_order_and_nests_dotted_keys() {
        let t = Registry::new();
        t.add::<Gauge>("z_first", "dram_z", "Z.").set(1.5);
        t.info("version", "dram_build_info", "Build.", "version", "1.2.3");
        let by_route: Vec<Arc<Counter>> = t.add_labelled(
            Kind::Counter,
            "by_route",
            "dram_by_route_total",
            "R.",
            Some("route"),
            &["b", "a"],
        );
        by_route[1].add(2);
        t.add::<Counter>("engine.hits", "dram_engine_hits_total", "H.")
            .add(4);
        t.add::<Gauge>("engine.rate", "dram_engine_rate", "Rate.")
            .set(0.25);
        let r = Registry::new();
        r.counter("reg_b_total", "B.").add(1);
        r.counter("reg_a_total", "A.").add(9);
        let doc = Value::Obj(t.to_json(Some(&r))).to_string();
        assert_eq!(
            doc,
            concat!(
                r#"{"z_first":1.5,"version":"1.2.3","by_route":{"b":0,"a":2},"#,
                r#""engine":{"hits":4,"rate":0.25},"registry":{"reg_a_total":9,"reg_b_total":1}}"#
            )
        );
        let text = t.to_prometheus(Some(&r));
        assert!(text.contains("# TYPE dram_build_info gauge\n"), "{text}");
        assert!(
            text.contains("dram_build_info{version=\"1.2.3\"} 1\n"),
            "{text}"
        );
        let z = text.find("dram_z").unwrap();
        let hits = text.find("dram_engine_hits_total").unwrap();
        let reg = text.find("reg_a_total").unwrap();
        assert!(
            z < hits && hits < reg,
            "declaration order, then the registry"
        );
    }

    #[test]
    fn histograms_have_one_json_shape() {
        let t = Registry::new();
        let own: Arc<Histogram> = t.add("latency", "dram_lat_seconds", "L.");
        own.observe_us(3);
        let r = Registry::new();
        r.histogram("reg_seconds", "R.").observe_us(3);
        let doc = Value::Obj(t.to_json(Some(&r)));
        let registered = doc.get("registry").and_then(|r| r.get("reg_seconds"));
        assert_eq!(doc.get("latency"), registered, "table and registry agree");
        let latency = doc.get("latency").expect("latency");
        let counts = latency.get("counts").and_then(Value::as_array).unwrap();
        let uppers = latency
            .get("bucket_upper_us")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(counts.len(), BUCKETS);
        assert_eq!(uppers.len(), BUCKETS);
        assert_eq!(counts[bucket_index(3)].as_f64(), Some(1.0));
        assert_eq!(uppers[BUCKETS - 1], Value::Null);
        assert!(t
            .to_prometheus(None)
            .contains("# TYPE dram_lat_seconds histogram\n"));
    }

    #[test]
    fn a_kind_that_does_not_fit_its_handle_is_refused() {
        let counter_as_histogram = std::panic::catch_unwind(|| {
            Registry::new().add_kind::<Counter>(Kind::Histogram, "h", "dram_h", "H.");
        });
        assert!(counter_as_histogram.is_err());
        let histogram_as_gauge = std::panic::catch_unwind(|| {
            Registry::new().add_kind::<Histogram>(Kind::Gauge, "g", "dram_g", "G.");
        });
        assert!(histogram_as_gauge.is_err());
    }

    #[test]
    fn prom_histogram_is_cumulative_in_seconds() {
        let h = Histogram::new();
        h.observe_us(1); // bucket 1: [1, 2) µs
        h.observe_us(3); // bucket 2: [2, 4) µs
        h.observe_us(u64::MAX); // overflow bucket (and a saturated sum)
        let mut w = PromWriter::new();
        w.histogram_seconds("dram_lat_seconds", "Latency.", &h);
        let text = w.finish();
        assert!(text.contains("# TYPE dram_lat_seconds histogram\n"));
        // le="0.000001" (1 µs upper bound) has seen nothing; 2 µs has 1;
        // 4 µs has 2; +Inf has all 3.
        assert!(
            text.contains("dram_lat_seconds_bucket{le=\"0.000001\"} 0\n"),
            "{text}"
        );
        assert!(
            text.contains("dram_lat_seconds_bucket{le=\"0.000002\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("dram_lat_seconds_bucket{le=\"0.000004\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("dram_lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("dram_lat_seconds_count 3\n"), "{text}");
        // Cumulative counts never decrease.
        let mut last = 0.0;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn prom_writer_handles_empty_label_values() {
        let mut w = PromWriter::new();
        w.header("dram_edge_total", "Edge cases.", "counter");
        w.sample("dram_edge_total", &[("route", "")], 1.0);
        w.sample("dram_edge_total", &[("route", "\\\n\"")], 2.0);
        let text = w.finish();
        // An empty label value renders as route="" — present, not
        // dropped, so series identity survives.
        assert!(text.contains("dram_edge_total{route=\"\"} 1\n"), "{text}");
        assert!(
            text.contains("dram_edge_total{route=\"\\\\\\n\\\"\"} 2\n"),
            "{text}"
        );
        // Every sample line still splits into exactly name-and-value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad sample line: {line}");
        }
    }

    #[test]
    fn prom_histogram_bucket_boundary_counts_land_one_bucket_up() {
        // A sample exactly on a bucket's upper bound belongs to the NEXT
        // bucket: uppers are exclusive in the log₂-µs scheme, while
        // Prometheus `le` is inclusive — so the cumulative count at
        // le="0.000004" must NOT include a 4 µs observation.
        let h = Histogram::new();
        h.observe_us(4); // == bucket_upper_us(2); lands in bucket 3
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_upper_us(2), Some(4));
        let mut w = PromWriter::new();
        w.histogram_seconds("dram_edge_seconds", "Boundary.", &h);
        let text = w.finish();
        assert!(
            text.contains("dram_edge_seconds_bucket{le=\"0.000004\"} 0\n"),
            "{text}"
        );
        assert!(
            text.contains("dram_edge_seconds_bucket{le=\"0.000008\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("dram_edge_seconds_bucket{le=\"+Inf\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn prom_histogram_inf_bucket_equals_count_and_sum_is_consistent() {
        let h = Histogram::new();
        for us in [0u64, 1, 2, 1024, 1_000_000] {
            h.observe_us(us);
        }
        let mut w = PromWriter::new();
        w.histogram_seconds("dram_sum_seconds", "Sum check.", &h);
        let text = w.finish();
        let value_of = |needle: &str| -> f64 {
            text.lines()
                .find(|l| l.starts_with(needle))
                .unwrap_or_else(|| panic!("{needle} missing in {text}"))
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        // +Inf cumulative count == _count == total observations.
        let inf = value_of("dram_sum_seconds_bucket{le=\"+Inf\"}");
        let count = value_of("dram_sum_seconds_count");
        assert_eq!(inf, 5.0);
        assert_eq!(count, 5.0);
        // _sum is the µs sum scaled to seconds.
        let sum = value_of("dram_sum_seconds_sum");
        assert!((sum - 1_001_027e-6).abs() < 1e-12, "sum {sum}");
        // And the cumulative bucket sequence never decreases, ending at
        // exactly the +Inf value.
        let mut last = 0.0;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
        assert_eq!(last, inf);
    }

    #[test]
    fn prom_writer_renders_a_registry() {
        let r = Registry::new();
        r.counter("reg_a_total", "A.").add(5);
        r.gauge("reg_b", "B.").set(2.5);
        r.histogram("reg_c_seconds", "C.").observe_us(7);
        let mut w = PromWriter::new();
        w.registry(&r);
        let text = w.finish();
        assert!(text.contains("reg_a_total 5\n"));
        assert!(text.contains("reg_b 2.5\n"));
        assert!(text.contains("reg_c_seconds_count 1\n"));
        let a = text.find("reg_a_total").unwrap();
        let b = text.find("reg_b").unwrap();
        let c = text.find("reg_c_seconds").unwrap();
        assert!(a < b && b < c, "registry renders in name order");
    }
}
