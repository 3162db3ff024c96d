//! # dram-energy
//!
//! A description-driven DRAM energy model: a complete reproduction of
//! Thomas Vogelsang, *"Understanding the Energy Consumption of Dynamic
//! Random Access Memories"*, MICRO-43, 2010.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] ([`dram_core`]) — the power model: floorplan geometry,
//!   device and wire capacitances, per-operation charge accounting,
//!   datasheet currents, pattern power, die area.
//! * [`dsl`] ([`dram_dsl`]) — the description language (§III.B input
//!   files) parser and pretty-printer.
//! * [`scaling`] ([`dram_scaling`]) — the 170 nm → 16 nm technology
//!   roadmap, scaling curves and generation presets.
//! * [`datasheet`] ([`dram_datasheet`]) — the vendor IDD corpus and the
//!   datasheet-calculator baseline.
//! * [`sensitivity`] ([`dram_sensitivity`]) — ±20 % parameter sweeps and
//!   Pareto ranking.
//! * [`schemes`] ([`dram_schemes`]) — §V power-reduction scheme
//!   evaluation.
//! * [`workload`] ([`dram_workload`]) — trace generation and
//!   trace-driven energy accounting with power-down policies.
//! * [`server`] ([`dram_server`]) — `dram-serve`, the std-only HTTP/JSON
//!   evaluation service on top of the shared [`EvalEngine`].
//! * [`faults`] ([`dram_faults`]) — deterministic, seeded fault
//!   injection at named sites of the engine and the server (see
//!   `docs/RESILIENCE.md`).
//! * [`units`] ([`dram_units`]) — typed physical quantities (including
//!   the shared [`units::json`] encoder/decoder).
//!
//! ## Quickstart
//!
//! ```
//! use dram_energy::{Dram, Pattern};
//! use dram_energy::scaling::presets::ddr3_1g_55nm;
//!
//! # fn main() -> Result<(), dram_energy::ModelError> {
//! let dram = Dram::new(ddr3_1g_55nm())?;
//! let idd = dram.idd();
//! println!("IDD0 = {}, IDD4R = {}", idd.idd0, idd.idd4r);
//!
//! let pattern = Pattern::parse("act nop wrt nop rd nop pre nop")?;
//! let power = dram.pattern_power(&pattern);
//! println!("pattern power = {}", power.power);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]

pub use dram_core::{
    BuildPhase, CacheStats, Command, DirtySet, Dram, DramDescription, EngineSnapshot, EvalEngine,
    IddKind, IddReport, ModelCache, ModelError, Operation, OperationEnergy, ParamCategory, ParamId,
    Pattern, Perturbation, PowerState, PowerSummary, TemperatureRange, VoltageDomain,
};

pub use dram_core as model;
pub use dram_datasheet as datasheet;
pub use dram_dsl as dsl;
pub use dram_faults as faults;
pub use dram_scaling as scaling;
pub use dram_schemes as schemes;
pub use dram_sensitivity as sensitivity;
pub use dram_server as server;
pub use dram_units as units;
pub use dram_workload as workload;
