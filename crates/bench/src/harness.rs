//! Minimal in-tree benchmark harness.
//!
//! The workspace must build with an empty registry, so the Criterion
//! dependency is gone; the `benches/` targets and the `repro --timing`
//! flag share this harness instead. It auto-calibrates the iteration
//! count to a target measurement window, reports mean/min/max, and can
//! serialize a run to a small JSON file so successive PRs can compare
//! wall-clock trajectories.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dram_units::json;

/// Timing statistics of one benchmarked routine.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (`group/function` style).
    pub name: String,
    /// Number of timed iterations.
    pub iters: u32,
    /// Mean wall-clock time per iteration.
    pub mean: Duration,
    /// Fastest iteration.
    pub min: Duration,
    /// Slowest iteration.
    pub max: Duration,
}

impl Measurement {
    /// Formats a duration with an adaptive unit.
    #[must_use]
    pub fn human(d: Duration) -> String {
        let ns = d.as_nanos();
        if ns < 10_000 {
            format!("{ns} ns")
        } else if ns < 10_000_000 {
            format!("{:.2} µs", ns as f64 / 1e3)
        } else if ns < 10_000_000_000 {
            format!("{:.2} ms", ns as f64 / 1e6)
        } else {
            format!("{:.2} s", ns as f64 / 1e9)
        }
    }
}

/// Runs `f` repeatedly and reports per-iteration statistics.
///
/// One untimed warm-up call precedes measurement. The iteration count is
/// calibrated from the warm-up duration so the whole measurement stays
/// near `budget`, clamped to `[1, max_iters]`: long routines (full
/// report regenerations) run a handful of times, short ones thousands.
pub fn bench<T>(
    name: &str,
    budget: Duration,
    max_iters: u32,
    mut f: impl FnMut() -> T,
) -> Measurement {
    let warm_start = Instant::now();
    std::hint::black_box(f());
    let warm = warm_start.elapsed();

    let iters = if warm.is_zero() {
        max_iters
    } else {
        u32::try_from(budget.as_nanos() / warm.as_nanos().max(1))
            .unwrap_or(max_iters)
            .clamp(1, max_iters)
    };

    let mut total = Duration::ZERO;
    let mut min = Duration::MAX;
    let mut max = Duration::ZERO;
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        let dt = start.elapsed();
        total += dt;
        min = min.min(dt);
        max = max.max(dt);
    }
    Measurement {
        name: name.to_string(),
        iters,
        mean: total / iters,
        min,
        max,
    }
}

/// Convenience wrapper with the default 200 ms budget and 10k iteration
/// cap used by the `benches/` targets.
pub fn bench_default<T>(name: &str, f: impl FnMut() -> T) -> Measurement {
    bench(name, Duration::from_millis(200), 10_000, f)
}

/// Renders measurements as an aligned text table.
#[must_use]
pub fn render(measurements: &[Measurement]) -> String {
    let name_w = measurements
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:name_w$}  {:>12}  {:>12}  {:>12}  {:>7}",
        "name", "mean", "min", "max", "iters"
    );
    for m in measurements {
        let _ = writeln!(
            out,
            "{:name_w$}  {:>12}  {:>12}  {:>12}  {:>7}",
            m.name,
            Measurement::human(m.mean),
            Measurement::human(m.min),
            Measurement::human(m.max),
            m.iters
        );
    }
    out
}

/// Serializes measurements to a small JSON document (mean/min/max in
/// seconds). String escaping goes through the workspace-shared
/// [`dram_units::json`] module; the layout stays hand-formatted so the
/// file remains diff-friendly across runs.
#[must_use]
pub fn to_json(measurements: &[Measurement]) -> String {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"iters\": {}, \"mean_s\": {:.9}, \"min_s\": {:.9}, \"max_s\": {:.9}}}",
            json::escape(&m.name),
            m.iters,
            m.mean.as_secs_f64(),
            m.min.as_secs_f64(),
            m.max.as_secs_f64()
        );
        out.push_str(if i + 1 < measurements.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_statistics() {
        let m = bench("spin", Duration::from_millis(5), 100, || {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        assert!(m.iters >= 1 && m.iters <= 100);
        assert!(m.min <= m.mean && m.mean <= m.max);
    }

    #[test]
    fn render_aligns_and_lists_every_row() {
        let ms = vec![
            bench("a", Duration::from_micros(100), 3, || 1 + 1),
            bench("bb", Duration::from_micros(100), 3, || 2 + 2),
        ];
        let table = render(&ms);
        assert!(table.contains("a "));
        assert!(table.contains("bb"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn json_escapes_and_parses_shape() {
        let ms = vec![bench("x/\"y\"", Duration::from_micros(50), 2, || ())];
        let j = to_json(&ms);
        assert!(j.contains("\"benchmarks\""));
        assert!(j.contains(r#""x/\"y\"""#));
        assert!(j.contains("mean_s"));
        // The shared decoder accepts what the harness writes.
        let doc = json::Value::parse(&j).expect("harness output is valid JSON");
        let runs = doc
            .get("benchmarks")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0].get("name").and_then(json::Value::as_str),
            Some("x/\"y\"")
        );
    }
}
