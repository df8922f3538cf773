//! Cycle-level simulator of the multi-core WBSN platform.
//!
//! This crate is the substrate the DATE 2014 paper evaluated on: a set of
//! 16-bit RISC cores connected to multi-banked instruction and data
//! memories through broadcasting crossbars (or simple decoders in the
//! single-core baseline), an Address Translation Unit dividing the data
//! memory into interleaved-shared and per-core private sections, a
//! three-channel ADC with data-ready interrupts, and the
//! [synchronizer unit](wbsn_core::Synchronizer) orchestrating clock
//! gating and wake-up.
//!
//! The simulator executes real binaries produced by the
//! [`wbsn_isa`] tool-chain and records every architectural event the
//! power model integrates: per-core active/stall/gated cycles, per-bank
//! memory accesses, broadcast merges, crossbar traversals, and
//! synchronizer traffic.
//!
//! # Example
//!
//! ```
//! use wbsn_isa::{assemble_text, Linker, Section};
//! use wbsn_sim::{Platform, PlatformConfig, RunExit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble_text(
//!     "li r1, 21\n\
//!      add r1, r1, r1\n\
//!      sw r1, 0x40(r0)\n\
//!      halt\n",
//! )?;
//! let mut linker = Linker::new();
//! linker.add_section(Section::new("main", program));
//! linker.set_entry(0, "main");
//! let image = linker.link()?;
//!
//! let config = PlatformConfig::single_core();
//! let mut platform = Platform::new(config, &image)?;
//! let exit = platform.run(10_000)?;
//! assert_eq!(exit, RunExit::AllHalted);
//! assert_eq!(platform.peek_dm(0x40)?, 42);
//! # Ok(())
//! # }
//! ```

pub mod adc;
pub mod atu;
pub mod config;
pub mod cpu;
pub mod error;
pub mod exec;
pub mod memory;
pub mod mmio;
pub mod platform;
pub mod stats;
pub mod trace;
pub mod watchdog;
pub mod xbar;

pub use adc::AdcConfig;
pub use config::{InterconnectKind, PlatformConfig};
pub use error::{ConfigError, Fault, FaultKind, SimError};
pub use platform::{Platform, RunExit};
pub use stats::{stats_json, BankStats, CoreStats, SimStats};
pub use trace::{StallRecord, TraceEntry, TraceEvent, Tracer};
pub use watchdog::{CoreDump, PhaseAttribution, PointDump, PostMortem, WatchdogTrip};
pub use wbsn_obs::{Obs, ObsConfig, ObsSummary, StallCause};
