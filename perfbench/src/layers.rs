//! The traced run's per-layer replay: each layer's public function is
//! called from outside on the workload's own generated inputs, inside a
//! recorded span, and the medians are composed into an attribution of
//! the untraced client p50.
//!
//! The replay runs in slices, one after each untraced round, and the
//! attribution uses the slices of the same quiet rounds as the p50: the
//! replay then sees the host as the load did.
//!
//! The layers are timed one call at a time, so the attribution tree is
//! logical: a layer's self time is its median per request minus the
//! medians of the layers it calls, and whatever no layer covers is the
//! front end's residual (reactor, queue, hand-off, socket).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use std::sync::Arc;

use dram_core::{content_key, Dram, DramDescription, EvalEngine};
use dram_server::api::{self, evaluate_document, resolve_description, trace_document};
use dram_server::http::ChunkedDecoder;
use dram_server::ring::{Ring, DEFAULT_REPLICAS};
use dram_server::{Limits, Metrics, Request};
use dram_units::json::{obj, Value};
use dram_workload::{PowerDownPolicy, StreamFold, TraceCommand, TraceDecoder, TraceEvent};

use crate::gen::{self, BatchItem, TraceStream};
use crate::run::Metric;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::Workload;

/// The workload's generated inputs the replay calls the layers on.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    /// The workload's seed.
    pub seed: u64,
    /// Preset send order of the warm workloads.
    pub order: &'a [usize],
    /// `/v1/evaluate` body per preset.
    pub preset_bodies: &'a [String],
    /// Trace streams of the trace workload.
    pub traces: &'a [TraceStream],
}

/// Per-layer metrics and the attribution check.
#[derive(Debug)]
pub struct LayerReport {
    /// Every per-layer metric; layers the workload bypasses read 0.
    pub metrics: Vec<Metric>,
    /// `Err` when a replayed request failed, or when the residual or a
    /// self time is negative beyond [`NEGATIVE_TOLERANCE`]: the replayed
    /// layers then do not fit in the served request.
    pub consistent: Result<(), String>,
}

/// How far below 0 the residual or a self time may read, as a share of
/// the p50, before the attribution fails. The replay runs between the
/// rounds, not during them, so host contention differs a little.
pub const NEGATIVE_TOLERANCE: f64 = 0.10;

/// Warm-workload requests replayed per slice.
const WARM_SLICE: usize = 128;
/// Batch requests replayed per slice (each once: its designs must miss).
const BATCH_SLICE: usize = 8;
/// Trace streams replayed per slice.
const TRACE_SLICE: usize = 4;
/// Ring lookups per timed block, and blocks per slice.
const ROUTE_BLOCK: usize = 10_000;
const ROUTE_BLOCKS: usize = 5;

/// Per-layer duration samples in µs, and replayed requests the handler
/// did not answer with 200.
#[derive(Debug, Default)]
struct Samples {
    by_layer: BTreeMap<&'static str, Vec<f64>>,
    errors: Vec<String>,
}

impl Samples {
    fn push(&mut self, name: &'static str, us: f64) {
        self.by_layer.entry(name).or_default().push(us);
    }

    fn median(&self, name: &str) -> f64 {
        self.by_layer.get(name).map_or(0.0, |v| median(v))
    }

    fn absorb(&mut self, other: &Samples) {
        for (name, v) in &other.by_layer {
            self.by_layer.entry(name).or_default().extend_from_slice(v);
        }
    }
}

/// Runs `f` in a span and returns its result and duration in µs.
fn timed<R>(rec: &mut Recorder, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    rec.enter(name);
    let t = Instant::now();
    let out = black_box(f());
    let us = t.elapsed().as_secs_f64() * 1e6;
    rec.exit();
    (out, us)
}

fn request(path: &str, query: &str, body: Vec<u8>) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        query: query.into(),
        headers: std::collections::HashMap::new(),
        body,
        http11: true,
    }
}

/// `api::handle` then `Response::to_bytes` as the server sends it.
fn handle_and_encode(rec: &mut Recorder, s: &mut Samples, req: &Request, metrics: &Metrics) {
    let ((_, resp, _), us) = timed(rec, "api.handle", || api::handle(req, metrics));
    s.push("api.handle", us);
    let resp = resp
        .with_keep_alive(true)
        .with_header("x-request-id", "0000000000000000-0000000000000000");
    let (_, us) = timed(rec, "http.encode", || resp.to_bytes());
    s.push("http.encode", us);
    if resp.status != 200 {
        s.errors
            .push(format!("replayed {} answered {}", req.path, resp.status));
    }
}

/// One node of the logical attribution tree: a layer's total per
/// request and the layers it calls.
struct Node {
    name: &'static str,
    total_us: f64,
    children: Vec<Node>,
}

fn node(name: &'static str, total_us: f64, children: Vec<Node>) -> Node {
    Node {
        name,
        total_us,
        children,
    }
}

fn self_times(n: &Node, out: &mut BTreeMap<&'static str, f64>) {
    let covered: f64 = n.children.iter().map(|c| c.total_us).sum();
    *out.entry(n.name).or_default() += n.total_us - covered;
    for c in &n.children {
        self_times(c, out);
    }
}

/// Layers whose self time is reported, root (the residual) excluded.
const SELF_LAYERS: [&str; 13] = [
    "http.encode",
    "api.handle",
    "json.decode",
    "dsl.parse",
    "engine",
    "model.build",
    "engine.hit",
    "json.encode",
    "trace.chunked",
    "trace.decode",
    "trace.fold",
    "router.hop",
    "router.route",
];

/// `Err` naming the most negative self time (the residual included)
/// when it lies below `-NEGATIVE_TOLERANCE × p50_us`.
///
/// # Errors
///
/// The message describing the misfit.
pub fn check_attribution(selfs: &BTreeMap<&'static str, f64>, p50_us: f64) -> Result<(), String> {
    let floor = -NEGATIVE_TOLERANCE * p50_us;
    match selfs.iter().min_by(|a, b| a.1.total_cmp(b.1)) {
        Some((name, &us)) if us < floor => Err(format!(
            "attribution: {name} self time is {us:.1} µs, below the tolerated {floor:.1} µs \
             (p50 {p50_us:.1} µs): the replayed layers do not fit in the served request"
        )),
        _ => Ok(()),
    }
}

/// Times `Ring::route` over the workload's keys, in blocks of lookups.
fn route_slice(
    inputs: &LayerInputs<'_>,
    node_names: &[String],
    rec: &mut Recorder,
    s: &mut Samples,
) {
    let ring = Ring::new(node_names, DEFAULT_REPLICAS);
    let keys: Vec<u64> = inputs
        .order
        .iter()
        .map(|&p| content_key(&gen::preset_desc(p)))
        .collect();
    let up = vec![true; node_names.len()];
    for _ in 0..ROUTE_BLOCKS {
        let (_, us) = timed(rec, "router.route", || {
            let mut acc = 0;
            for i in 0..ROUTE_BLOCK {
                acc += black_box(&ring)
                    .route(keys[i % keys.len()], &up)
                    .map_or(0, |r| r.0);
            }
            acc
        });
        s.push("router.route", us / ROUTE_BLOCK as f64);
    }
}

/// Every command of a trace body and its declared length.
fn decode_all(body: &[u8]) -> (Vec<TraceCommand>, Option<u64>) {
    let mut commands = Vec::new();
    let mut length = None;
    let mut decoder = TraceDecoder::new();
    let mut sink = |e: TraceEvent| {
        match e {
            TraceEvent::Command(c) => commands.push(c),
            TraceEvent::Length(n) => length = Some(n),
            TraceEvent::Policy(_) | TraceEvent::Preset(_) => {}
        }
        Ok(())
    };
    for chunk in body.chunks(gen::TRACE_CHUNK) {
        decoder.feed(chunk, &mut sink).expect("legal trace");
    }
    decoder.finish(&mut sink).expect("legal trace");
    (commands, length)
}

/// The replay of one run: the engines it calls, the next input to use,
/// and the samples of each slice by round.
pub struct Replay {
    workload: Workload,
    /// The process-wide engine `api::handle` uses, plus two sized like a
    /// one-CPU and a both-CPU server for the batch workload's split.
    global: &'static EvalEngine,
    serial: EvalEngine,
    parallel: EvalEngine,
    metrics: Metrics,
    trace_dram: Option<Arc<Dram>>,
    next: usize,
    rounds: BTreeMap<usize, Samples>,
}

impl Replay {
    /// Builds the engines and warms them with every preset. Call it with
    /// the thread on every CPU the servers use: engines size themselves
    /// from the caller's CPU mask.
    #[must_use]
    pub fn new(workload: Workload) -> Self {
        let r = Replay {
            workload,
            global: EvalEngine::global(),
            serial: EvalEngine::new().threads(1),
            parallel: EvalEngine::new(),
            metrics: Metrics::new(),
            trace_dram: None,
            next: 0,
            rounds: BTreeMap::new(),
        };
        for p in 0..dram_server::presets::NAMES.len() {
            let desc = gen::preset_desc(p);
            for e in [r.global, &r.serial, &r.parallel] {
                e.model(&desc).expect("preset builds");
            }
        }
        let trace_dram = (workload == Workload::TraceIngest).then(|| {
            let desc = dram_server::presets::by_name(gen::TRACE_PRESET).expect("trace preset");
            r.global.model(&desc).expect("trace preset builds")
        });
        Replay { trace_dram, ..r }
    }

    /// Replays one slice of `inputs` after round `round`; `node_names`
    /// are that round's ring nodes (routed workload).
    pub fn slice(
        &mut self,
        inputs: &LayerInputs<'_>,
        round: usize,
        node_names: &[String],
        rec: &mut Recorder,
    ) {
        let mut s = Samples::default();
        match self.workload {
            Workload::EvaluateWarm => self.warm_slice(inputs, rec, &mut s),
            Workload::RoutedWarm => {
                self.warm_slice(inputs, rec, &mut s);
                route_slice(inputs, node_names, rec, &mut s);
            }
            Workload::DesignBatch => self.batch_slice(inputs, rec, &mut s),
            Workload::TraceIngest => self.trace_slice(inputs, rec, &mut s),
        }
        self.rounds.insert(round, s);
    }

    fn warm_slice(&mut self, inputs: &LayerInputs<'_>, rec: &mut Recorder, s: &mut Samples) {
        let engine = self.global;
        let order = inputs.order;
        for i in self.next..self.next + WARM_SLICE {
            let body = &inputs.preset_bodies[order[i % order.len()]];
            rec.enter("sample");
            let (v, us) = timed(rec, "json.decode", || {
                Value::parse(body).expect("generated JSON")
            });
            s.push("json.decode", us);
            s.push("json.decode_mb_per_s", body.len() as f64 / us);
            let desc = resolve_description(&v).expect("preset");
            let (hit, us) = timed(rec, "engine.hit", || {
                engine.model_traced(&desc).expect("builds")
            });
            s.push("engine.hit", us);
            assert!(hit.1, "warm lookup missed");
            let (_, many_us) = timed(rec, "engine.evaluate_many", || {
                engine.evaluate_many_traced(std::slice::from_ref(&desc))
            });
            s.push("engine.map_overhead", many_us - us);
            let doc = evaluate_document(&hit.0);
            let (_, us) = timed(rec, "json.encode", || doc.to_string());
            s.push("json.encode", us);
            let req = request("/v1/evaluate", "", body.clone().into_bytes());
            handle_and_encode(rec, s, &req, &self.metrics);
            rec.exit();
        }
        self.next += WARM_SLICE;
    }

    fn batch_slice(&mut self, inputs: &LayerInputs<'_>, rec: &mut Recorder, s: &mut Samples) {
        for i in self.next..self.next + BATCH_SLICE {
            let req = gen::batch_request(inputs.seed, i as u64);
            rec.enter("sample");
            let (v, us) = timed(rec, "json.decode", || {
                Value::parse(&req.body).expect("generated JSON")
            });
            s.push("json.decode", us);
            s.push("json.decode_mb_per_s", req.body.len() as f64 / us);
            let items = v
                .get("requests")
                .and_then(Value::as_array)
                .expect("batch envelope");
            let mut descs: Vec<DramDescription> = Vec::with_capacity(items.len());
            let (mut parse_us, mut build_us) = (0.0, 0.0);
            for (item, gen_item) in items.iter().zip(&req.items) {
                match gen_item {
                    BatchItem::Design(_) => {
                        let text = item
                            .get("description")
                            .and_then(Value::as_str)
                            .expect("text");
                        let (desc, us) = timed(rec, "dsl.parse", || {
                            dram_dsl::parse_description(text).expect("design parses")
                        });
                        s.push("dsl.parse", us);
                        parse_us += us;
                        let copy = desc.clone();
                        let (_, us) = timed(rec, "model.build", || {
                            Dram::new(copy).expect("design builds")
                        });
                        s.push("model.build", us);
                        build_us += us;
                        descs.push(desc);
                    }
                    BatchItem::Preset(_) => {
                        descs.push(resolve_description(item).expect("preset"));
                    }
                }
            }
            s.push("dsl.parse.request", parse_us);
            s.push("model.build.request", build_us);
            let mut items_us = 0.0;
            let mut hits_us = 0.0;
            for d in &descs {
                let ((_, hit), us) = timed(rec, "engine.item", || {
                    self.serial.model_traced(d).expect("builds")
                });
                items_us += us;
                if hit {
                    s.push("engine.hit", us);
                    hits_us += us;
                }
            }
            s.push("engine.hit.request", hits_us);
            let (models, many_us) = timed(rec, "engine.evaluate_many", || {
                self.parallel.evaluate_many_traced(&descs)
            });
            s.push("engine", many_us);
            s.push("engine.map_overhead", many_us - items_us);
            let results: Vec<Value> = models
                .into_iter()
                .map(|m| evaluate_document(&m.expect("builds").0))
                .collect();
            let doc = obj(vec![
                ("count", results.len().into()),
                ("results", results.into()),
            ]);
            let (_, us) = timed(rec, "json.encode", || doc.to_string());
            s.push("json.encode", us);
            let http_req = request("/v1/batch", "", req.body.clone().into_bytes());
            handle_and_encode(rec, s, &http_req, &self.metrics);
            rec.exit();
        }
        self.next += BATCH_SLICE;
    }

    fn trace_slice(&mut self, inputs: &LayerInputs<'_>, rec: &mut Recorder, s: &mut Samples) {
        let engine = self.global;
        let desc = dram_server::presets::by_name(gen::TRACE_PRESET).expect("trace preset");
        let dram = self
            .trace_dram
            .as_ref()
            .expect("built for the trace workload");
        let limits = Limits::default();
        let traces = inputs.traces;
        for i in self.next..self.next + TRACE_SLICE {
            let t = &traces[i % traces.len()];
            let framed = gen::chunked(t.text.as_bytes(), gen::TRACE_CHUNK);
            rec.enter("sample");
            let mut body = Vec::with_capacity(t.text.len());
            let (_, us) = timed(rec, "trace.chunked", || {
                ChunkedDecoder::new(limits.max_stream)
                    .advance(&framed, &mut body)
                    .expect("well-framed")
            });
            s.push("trace.chunked", us);
            s.push("trace.chunked_mb_per_s", framed.len() as f64 / us);
            // The server folds each command as it is decoded. Timed apart,
            // decoding only counts commands (no buffer to fill) and the
            // fold runs over commands decoded beforehand, untimed.
            let (commands, length) = decode_all(&body);
            let mut decoder = TraceDecoder::new();
            let (_, us) = timed(rec, "trace.decode", || {
                let mut seen = 0_u64;
                let mut sink = |e: TraceEvent| {
                    seen += u64::from(matches!(e, TraceEvent::Command(_)));
                    Ok(())
                };
                for chunk in body.chunks(gen::TRACE_CHUNK) {
                    decoder.feed(chunk, &mut sink).expect("legal trace");
                }
                decoder.finish(&mut sink).expect("legal trace");
                seen
            });
            s.push("trace.decode", us);
            s.push("trace.decode_mb_per_s", body.len() as f64 / us);
            let (report, us) = timed(rec, "trace.fold", || {
                let mut fold = StreamFold::new(dram, PowerDownPolicy::AGGRESSIVE);
                for c in &commands {
                    fold.push(*c).expect("legal trace");
                }
                fold.finish(length).expect("bills")
            });
            s.push("trace.fold", us);
            s.push("trace.fold_ns_per_cmd", us * 1e3 / commands.len() as f64);
            let (_, us) = timed(rec, "engine.hit", || {
                engine.model_traced(&desc).expect("builds")
            });
            s.push("engine.hit", us);
            let doc = trace_document(
                gen::TRACE_PRESET,
                &report,
                commands.len() as u64,
                body.len() as u64,
            );
            let (_, us) = timed(rec, "json.encode", || doc.to_string());
            s.push("json.encode", us);
            let req = request("/v1/trace", &format!("preset={}", gen::TRACE_PRESET), body);
            handle_and_encode(rec, s, &req, &self.metrics);
            rec.exit();
        }
        self.next += TRACE_SLICE;
    }

    /// Attributes `p50_ms`, the untraced client median over `rounds`,
    /// from the slices replayed after those rounds. `direct_p50_ms` is
    /// the same traffic's median straight to a node (routed workload
    /// only). A replayed request that failed in any slice fails the
    /// attribution.
    #[must_use]
    pub fn report(&self, rounds: &[usize], p50_ms: f64, direct_p50_ms: Option<f64>) -> LayerReport {
        let mut s = Samples::default();
        for r in rounds {
            if let Some(slice) = self.rounds.get(r) {
                s.absorb(slice);
            }
        }
        s.errors = self
            .rounds
            .values()
            .flat_map(|r| r.errors.clone())
            .collect();
        attribute(self.workload, &s, p50_ms, direct_p50_ms)
    }
}

fn attribute(
    workload: Workload,
    s: &Samples,
    p50_ms: f64,
    direct_p50_ms: Option<f64>,
) -> LayerReport {
    let m = |name: &str| s.median(name);
    let p50_us = p50_ms * 1e3;
    let handle = m("api.handle");
    let handle_children = match workload {
        Workload::EvaluateWarm | Workload::RoutedWarm => vec![
            node("json.decode", m("json.decode"), vec![]),
            node("engine.hit", m("engine.hit"), vec![]),
            node("json.encode", m("json.encode"), vec![]),
        ],
        Workload::DesignBatch => vec![
            node("json.decode", m("json.decode"), vec![]),
            node("dsl.parse", m("dsl.parse.request"), vec![]),
            node(
                "engine",
                m("engine"),
                vec![
                    node("model.build", m("model.build.request"), vec![]),
                    node("engine.hit", m("engine.hit.request"), vec![]),
                ],
            ),
            node("json.encode", m("json.encode"), vec![]),
        ],
        Workload::TraceIngest => vec![
            node("trace.decode", m("trace.decode"), vec![]),
            node("trace.fold", m("trace.fold"), vec![]),
            node("engine.hit", m("engine.hit"), vec![]),
            node("json.encode", m("json.encode"), vec![]),
        ],
    };
    let mut children = vec![
        node("http.encode", m("http.encode"), vec![]),
        node("api.handle", handle, handle_children),
    ];
    if workload == Workload::TraceIngest {
        children.push(node("trace.chunked", m("trace.chunked"), vec![]));
    }
    let mut hop_us = 0.0;
    if let Some(direct) = direct_p50_ms {
        hop_us = p50_us - direct * 1e3;
        children.push(node(
            "router.hop",
            hop_us,
            vec![node("router.route", m("router.route"), vec![])],
        ));
    }
    let root = node("front.residual", p50_us, children);
    let mut selfs = BTreeMap::new();
    self_times(&root, &mut selfs);
    let residual = selfs["front.residual"];
    let consistent = match s.errors.first() {
        Some(e) => Err(e.clone()),
        None => check_attribution(&selfs, p50_us),
    };

    let mut metrics: Vec<Metric> = vec![
        ("json.decode_us".into(), m("json.decode"), "us"),
        (
            "json.decode_mb_per_s".into(),
            m("json.decode_mb_per_s"),
            "MB/s",
        ),
        ("json.encode_us".into(), m("json.encode"), "us"),
        ("dsl.parse_us".into(), m("dsl.parse"), "us"),
        ("model.build_us".into(), m("model.build"), "us"),
        ("engine.hit_us".into(), m("engine.hit"), "us"),
        (
            "engine.map_overhead_us".into(),
            m("engine.map_overhead"),
            "us",
        ),
        ("api.handle_us".into(), handle, "us"),
        ("http.encode_us".into(), m("http.encode"), "us"),
        ("front.residual_us".into(), residual, "us"),
        (
            "trace.chunked_mb_per_s".into(),
            m("trace.chunked_mb_per_s"),
            "MB/s",
        ),
        (
            "trace.decode_mb_per_s".into(),
            m("trace.decode_mb_per_s"),
            "MB/s",
        ),
        (
            "trace.fold_ns_per_cmd".into(),
            m("trace.fold_ns_per_cmd"),
            "ns",
        ),
        ("router.route_ns".into(), m("router.route") * 1e3, "ns"),
        ("router.hop_us".into(), hop_us, "us"),
        ("attr.p50_ms".into(), p50_ms, "ms"),
    ];
    for layer in SELF_LAYERS {
        metrics.push((
            format!("self.{layer}_us"),
            selfs.get(layer).copied().unwrap_or(0.0),
            "us",
        ));
    }
    LayerReport {
        metrics,
        consistent,
    }
}
