//! Seeded input generators. The same `--seed` always yields the same
//! requests, byte for byte; nothing here reads a clock.

use std::fmt::Write as _;

use dram_core::{Dram, DramDescription, ParamId};
use dram_server::presets;
use dram_units::json::escape;
use dram_units::rng::SplitMix64;

/// The preset every trace stream addresses.
pub const TRACE_PRESET: &str = "ddr3_1g_x16_55nm";
/// Items per `/v1/batch` request.
pub const BATCH_ITEMS: usize = 8;
/// Custom descriptions per `/v1/batch` request; the rest are presets.
pub const BATCH_DESIGNS: usize = 2;
/// Largest chunk of a framed trace stream.
pub const TRACE_CHUNK: usize = 16 * 1024;

/// A generator for sub-stream `stream` of `seed`, so independent inputs
/// drawn from one seed never share random numbers.
fn rng(seed: u64, stream: u64, index: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ stream.rotate_left(32));
    SplitMix64::new(mix.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The description of preset `index` of [`presets::NAMES`].
#[must_use]
pub fn preset_desc(index: usize) -> DramDescription {
    presets::by_name(presets::NAMES[index]).expect("every listed preset resolves")
}

/// A seeded permutation of the preset indexes; warm workloads cycle
/// through it so every preset is requested equally often.
#[must_use]
pub fn preset_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..presets::NAMES.len()).collect();
    let mut r = rng(seed, 1, 0);
    for i in (1..order.len()).rev() {
        order.swap(i, r.range_usize(i + 1));
    }
    order
}

/// The JSON body addressing a preset by name.
#[must_use]
pub fn preset_body(index: usize) -> String {
    format!("{{\"preset\":{}}}", escape(presets::NAMES[index]))
}

/// A complete `POST` request with a `content-length` body.
#[must_use]
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// Custom design `index` of `seed`: a preset with one seeded parameter
/// edit, as description-language text. Its device name carries the
/// seed and index, so every design of a seed is a distinct cache key.
/// Edits the model rejects are redrawn, so every design evaluates.
#[must_use]
pub fn design(seed: u64, index: u64) -> String {
    let mut r = rng(seed, 2, index);
    loop {
        let mut desc = preset_desc(r.range_usize(presets::NAMES.len()));
        desc.name = format!("custom-{seed}-{index}");
        let param = ParamId::ALL[r.range_usize(ParamId::ALL.len())];
        param.apply(&mut desc, r.range_f64(0.9, 1.1));
        let text = dram_dsl::write(&desc, None);
        if Dram::new(desc).is_ok() {
            return text;
        }
    }
}

/// One item of a `/v1/batch` request.
#[derive(Debug, Clone)]
pub enum BatchItem {
    /// A preset by name (a cache hit once warm).
    Preset(usize),
    /// A custom description text (always a cache miss).
    Design(String),
}

/// A `/v1/batch` request and its JSON body.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// The items, in request order.
    pub items: Vec<BatchItem>,
    /// `{"requests":[...]}`.
    pub body: String,
}

/// Batch request `index` of `seed`: [`BATCH_DESIGNS`] custom designs
/// (numbers `index * BATCH_DESIGNS ..`) at seeded positions among
/// preset names.
#[must_use]
pub fn batch_request(seed: u64, index: u64) -> BatchRequest {
    let mut r = rng(seed, 3, index);
    let mut design_at = [false; BATCH_ITEMS];
    let mut placed = 0;
    while placed < BATCH_DESIGNS {
        let slot = r.range_usize(BATCH_ITEMS);
        if !design_at[slot] {
            design_at[slot] = true;
            placed += 1;
        }
    }
    let mut next_design = index * BATCH_DESIGNS as u64;
    let mut items = Vec::with_capacity(BATCH_ITEMS);
    let mut body = String::from("{\"requests\":[");
    for (slot, &is_design) in design_at.iter().enumerate() {
        if slot > 0 {
            body.push(',');
        }
        if is_design {
            let d = design(seed, next_design);
            next_design += 1;
            let _ = write!(body, "{{\"description\":{}}}", escape(&d));
            items.push(BatchItem::Design(d));
        } else {
            let p = r.range_usize(presets::NAMES.len());
            body.push_str(&preset_body(p));
            items.push(BatchItem::Preset(p));
        }
    }
    body.push_str("]}");
    BatchRequest { items, body }
}

/// Seeded generator of legal trace episodes (the `trace-bench`
/// generator): banks close between episodes, and exits respect the
/// aggressive policy's exit latencies (power-down 6, self-refresh 512).
struct TraceGen {
    rng: SplitMix64,
    cycle: u64,
    emitted: u64,
}

impl TraceGen {
    fn episode(&mut self, buf: &mut String) {
        let t = &mut self.cycle;
        match self.rng.next_u64() % 16 {
            0 => {
                let _ = writeln!(buf, "{t} pde");
                *t += 100 + self.rng.next_u64() % 4000;
                let _ = writeln!(buf, "{t} pdx");
                *t += 1 + 6;
                self.emitted += 2;
            }
            1 => {
                let _ = writeln!(buf, "{t} sre");
                *t += 10_000 + self.rng.next_u64() % 50_000;
                let _ = writeln!(buf, "{t} srx");
                *t += 1 + 512;
                self.emitted += 2;
            }
            2 => {
                let _ = writeln!(buf, "{t} ref");
                *t += 50 + self.rng.next_u64() % 100;
                self.emitted += 1;
            }
            _ => {
                let bank = self.rng.next_u64() % 8;
                let _ = writeln!(buf, "{t} act {bank}");
                *t += 6;
                let columns = 1 + self.rng.next_u64() % 4;
                for i in 0..columns {
                    let op = if (self.rng.next_u64() + i) % 2 == 1 {
                        "wr"
                    } else {
                        "rd"
                    };
                    let _ = writeln!(buf, "{t} {op} {bank}");
                    *t += 4;
                }
                let _ = writeln!(buf, "{t} pre {bank}");
                *t += 10 + self.rng.next_u64() % 200;
                self.emitted += 2 + columns;
            }
        }
    }
}

/// A seeded trace stream of at least `commands` commands, with the
/// aggressive power-down policy and a declared length.
#[derive(Debug, Clone)]
pub struct TraceStream {
    /// The trace text (the decoded request body).
    pub text: String,
    /// Commands in the trace.
    pub commands: u64,
}

/// Trace stream `index` of `seed`.
#[must_use]
pub fn trace_stream(seed: u64, index: u64, commands: u64) -> TraceStream {
    let mut gen = TraceGen {
        rng: rng(seed, 4, index),
        cycle: 0,
        emitted: 0,
    };
    let mut text = String::from("!policy aggressive\n");
    while gen.emitted < commands {
        gen.episode(&mut text);
    }
    let _ = writeln!(text, "!length {}", gen.cycle + 100);
    TraceStream {
        text,
        commands: gen.emitted,
    }
}

/// The chunked transfer-encoding framing of `payload` in chunks of at
/// most `chunk` bytes, terminator included.
#[must_use]
pub fn chunked(payload: &[u8], chunk: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + payload.len() / chunk * 8 + 16);
    for part in payload.chunks(chunk.max(1)) {
        out.extend_from_slice(format!("{:x}\r\n", part.len()).as_bytes());
        out.extend_from_slice(part);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

/// The head of a streamed `POST /v1/trace` for [`TRACE_PRESET`].
#[must_use]
pub fn trace_head() -> String {
    format!(
        "POST /v1/trace?preset={TRACE_PRESET} HTTP/1.1\r\nhost: perfbench\r\n\
         transfer-encoding: chunked\r\n\r\n"
    )
}
