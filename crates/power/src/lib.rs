//! Energy and power modelling for the WBSN platform.
//!
//! The paper's methodology annotates a SystemC architectural model with
//! per-component energies measured in post-layout RTL simulation (90 nm
//! low-leakage process), then integrates those energies over a long
//! simulated run to obtain average power. This crate plays the same
//! role for [`wbsn_sim`]:
//!
//! * [`characterization`] — the per-event energy and per-instance
//!   leakage table standing in for the RTL characterization.
//! * [`vfs`] — voltage-frequency scaling: the discrete operating points
//!   and the maximum clock attainable with crossbar vs decoder
//!   interconnect at each voltage.
//! * [`model`] + [`breakdown`] — integrating a run's
//!   [`wbsn_sim::SimStats`] into the Fig. 6 power decomposition.
//!
//! # Example
//!
//! ```
//! use wbsn_power::{Interconnect, VfsTable};
//!
//! let vfs = VfsTable::ninety_nm_low_leakage();
//! let op = vfs.min_point_for(2_300_000.0, Interconnect::Decoder).unwrap();
//! assert!((op.voltage - 0.6).abs() < 1e-9);
//! ```

pub mod breakdown;
pub mod characterization;
pub mod model;
pub mod vfs;

pub use breakdown::PowerBreakdown;
pub use characterization::EnergyTable;
pub use model::{Activity, PowerModel};
pub use vfs::{Interconnect, OperatingPoint, VfsTable};
