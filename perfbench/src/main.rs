//! `perfbench` — runs one workload against the real `dram-serve` and
//! `dram-route` binaries and prints one JSON result line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --client-cpu LIST --server-cpus LIST
//! ```
//!
//! Run from the root of a checkout; the service binaries are built
//! from its sources first. See `perfbench/README.md`.

use std::process::ExitCode;

use dram_units::json::{obj, Value};
use perfbench::affinity::CpuList;
use perfbench::run::{self, Options};
use perfbench::servers;
use perfbench::workload::Workload;

/// Where run records and span files go, relative to the checkout.
const OUT_DIR: &str = ".perfbench";

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut client_cpus = None;
    let mut server_cpus = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{value}`"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 60.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                });
            }
            "--client-cpu" => client_cpus = Some(CpuList::parse(&value)?),
            "--server-cpus" => server_cpus = Some(CpuList::parse(&value)?),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        client_cpus: client_cpus.ok_or("--client-cpu is required")?,
        server_cpus: server_cpus.ok_or("--server-cpus is required")?,
    })
}

fn write_out(name: &str, doc: &Value) {
    let dir = std::path::Path::new(OUT_DIR);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(name), format!("{doc}\n")));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {OUT_DIR}/{name}: {e}");
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 --client-cpu LIST --server-cpus LIST"
            );
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let bins = match servers::build(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run::run(&opts, &bins) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: run aborted: {e}");
            return ExitCode::from(2);
        }
    };

    let tag = format!(
        "{}-seed{}-trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    eprintln!("perfbench: run record {}", outcome.record);
    write_out(&format!("run-{tag}.json"), &outcome.record);
    if let Some(spans) = &outcome.spans {
        write_out(&format!("spans-{tag}.json"), spans);
    }
    for e in &outcome.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let metrics: Vec<(String, Value)> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                obj(vec![("value", (*value).into()), ("unit", (*unit).into())]),
            )
        })
        .collect();
    let result = obj(vec![
        ("correct", outcome.correct.into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{result}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
