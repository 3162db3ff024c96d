//! The four workloads: their request pools, items, working sets and
//! reference responses.

use dram_core::Dram;
use dram_server::api::{evaluate_document, trace_document};
use dram_units::json::{obj, Value};
use dram_workload::{PowerDownPolicy, StreamFold, TraceDecoder, TraceEvent};

use crate::gen::{self, BatchItem, BatchRequest, TraceStream};

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Keep-alive `/v1/evaluate` by preset name, every lookup a hit.
    EvaluateWarm,
    /// Keep-alive `/v1/batch`: presets plus never-repeated custom
    /// descriptions.
    DesignBatch,
    /// Chunked `/v1/trace` streams on one connection.
    TraceIngest,
    /// `EvaluateWarm` traffic through `dram-route` to two nodes.
    RoutedWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::EvaluateWarm,
        Workload::DesignBatch,
        Workload::TraceIngest,
        Workload::RoutedWarm,
    ];

    /// The name given to `--workload`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EvaluateWarm => "evaluate_warm",
            Workload::DesignBatch => "design_batch",
            Workload::TraceIngest => "trace_ingest",
            Workload::RoutedWarm => "routed_warm",
        }
    }

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per round: a fixed amount of work, so memory that grows
    /// with work (the model cache never evicts) is compared at equal
    /// work. An `evaluate_warm` round exceeds the server's default
    /// 10 000 requests per connection, so every round reconnects once.
    #[must_use]
    pub fn requests_per_round(self) -> usize {
        match self {
            Workload::EvaluateWarm => 12_000,
            Workload::RoutedWarm => 4_000,
            Workload::DesignBatch => 250,
            Workload::TraceIngest => 200,
        }
    }

    /// Preset indexes the servers must have built before a round is
    /// timed (the working set).
    #[must_use]
    pub fn working_set(self) -> Vec<usize> {
        match self {
            Workload::TraceIngest => vec![dram_server::presets::NAMES
                .iter()
                .position(|n| *n == gen::TRACE_PRESET)
                .expect("trace preset is listed")],
            _ => (0..dram_server::presets::NAMES.len()).collect(),
        }
    }
}

/// Commands per trace stream.
pub const TRACE_COMMANDS: u64 = 20_000;
/// Distinct trace streams a trace round cycles through.
pub const TRACE_STREAMS: u64 = 8;

/// The reference `/v1/evaluate` body of every preset.
#[must_use]
pub fn preset_documents() -> Vec<Value> {
    (0..dram_server::presets::NAMES.len())
        .map(|p| {
            let dram = Dram::new(gen::preset_desc(p)).expect("presets build");
            evaluate_document(&dram)
        })
        .collect()
}

/// The reference `/v1/batch` body for `req`, computed directly from the
/// library: each item is parsed, built and rendered on its own.
///
/// # Errors
///
/// A message when a design does not parse or build.
pub fn batch_reference(req: &BatchRequest, presets: &[Value]) -> Result<String, String> {
    let results = req
        .items
        .iter()
        .map(|item| match item {
            BatchItem::Preset(p) => Ok(presets[*p].clone()),
            BatchItem::Design(d) => {
                let desc = dram_dsl::parse_description(d).map_err(|e| e.to_string())?;
                let dram = Dram::new(desc).map_err(|e| e.to_string())?;
                Ok(evaluate_document(&dram))
            }
        })
        .collect::<Result<Vec<Value>, String>>()?;
    Ok(obj(vec![
        ("count", results.len().into()),
        ("results", results.into()),
    ])
    .to_string())
}

/// The reference `/v1/trace` body for `stream`: the same bytes decoded
/// and folded locally by a [`StreamFold`].
///
/// # Errors
///
/// A message when the trace does not decode or bill.
pub fn trace_reference(stream: &TraceStream, dram: &Dram) -> Result<String, String> {
    let mut fold = StreamFold::new(dram, PowerDownPolicy::NEVER);
    let mut length = None;
    let mut decoder = TraceDecoder::new();
    let mut sink = |e: TraceEvent| {
        match e {
            TraceEvent::Command(c) => fold.push(c)?,
            TraceEvent::Policy(p) => fold.set_policy(p)?,
            TraceEvent::Length(n) => length = Some(n),
            TraceEvent::Preset(_) => {}
        }
        Ok(())
    };
    for chunk in stream.text.as_bytes().chunks(gen::TRACE_CHUNK) {
        decoder.feed(chunk, &mut sink).map_err(|e| e.to_string())?;
    }
    decoder.finish(&mut sink).map_err(|e| e.to_string())?;
    let bytes = decoder.bytes_fed();
    let commands = fold.commands();
    let report = fold.finish(length).map_err(|e| e.to_string())?;
    Ok(trace_document(gen::TRACE_PRESET, &report, commands, bytes).to_string())
}
