//! Simulator error types: configuration errors, memory faults and
//! synchronization protocol violations.

use std::error::Error;
use std::fmt;

use wbsn_core::{SyncError, MAX_CORES};

use crate::watchdog::PostMortem;

/// Why a memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Data address outside the 32 KWord space.
    DmOutOfRange,
    /// Private-section access beyond the core's private allocation.
    PrivateOutOfRange,
    /// Store into the synchronizer-owned point region (points are only
    /// modified through the ISE).
    WriteToSyncRegion,
    /// Access to an unmapped MMIO window address.
    MmioUnmapped,
    /// Store to a read-only MMIO register.
    MmioReadOnly,
    /// Program counter left the instruction memory.
    ImOutOfRange,
    /// Fetched word does not decode to a valid instruction.
    BadInstruction,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::DmOutOfRange => "data address out of range",
            FaultKind::PrivateOutOfRange => "private section overflow",
            FaultKind::WriteToSyncRegion => "store into synchronization-point region",
            FaultKind::MmioUnmapped => "unmapped MMIO address",
            FaultKind::MmioReadOnly => "store to read-only MMIO register",
            FaultKind::ImOutOfRange => "program counter out of range",
            FaultKind::BadInstruction => "invalid instruction word",
        };
        f.write_str(s)
    }
}

/// A memory or fetch fault raised by one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Index of the faulting core.
    pub core: usize,
    /// Program counter of the faulting instruction.
    pub pc: u32,
    /// The offending address (for fetch faults, equals `pc`).
    pub addr: u32,
    /// Classification of the fault.
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {} at pc {:#06x}: {} (addr {:#06x})",
            self.core, self.pc, self.kind, self.addr
        )
    }
}

impl Error for Fault {}

/// Invalid platform configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Core count outside `1..=8`.
    BadCoreCount(usize),
    /// Decoder interconnect requires exactly one core.
    DecoderNeedsSingleCore(usize),
    /// Shared section does not fit the data memory (with the MMIO window
    /// and at least one private word per core).
    SharedTooLarge(u32),
    /// The synchronization-point region extends beyond the shared
    /// section.
    SyncRegionOutsideShared {
        /// Configured region base.
        base: u32,
        /// Number of points.
        points: usize,
        /// Shared-section limit.
        shared: u32,
    },
    /// More ADC channels than the MMIO window supports.
    TooManyAdcChannels(usize),
    /// ADC period must be non-zero.
    ZeroAdcPeriod,
    /// More ADC sample streams than the ADC has channels.
    TooManyAdcStreams {
        /// Streams supplied.
        streams: usize,
        /// Channels configured.
        channels: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::BadCoreCount(n) => write!(f, "core count {n} outside 1..={MAX_CORES}"),
            ConfigError::DecoderNeedsSingleCore(n) => {
                write!(f, "decoder interconnect requires one core, got {n}")
            }
            ConfigError::SharedTooLarge(n) => {
                write!(f, "shared section of {n} words does not fit data memory")
            }
            ConfigError::SyncRegionOutsideShared {
                base,
                points,
                shared,
            } => write!(
                f,
                "sync points at {base:#06x}..+{points} exceed shared limit {shared:#06x}"
            ),
            ConfigError::TooManyAdcChannels(n) => {
                write!(f, "{n} ADC channels exceed the MMIO window")
            }
            ConfigError::ZeroAdcPeriod => f.write_str("ADC period must be non-zero"),
            ConfigError::TooManyAdcStreams { streams, channels } => {
                write!(f, "{streams} ADC sample streams for {channels} channels")
            }
        }
    }
}

impl Error for ConfigError {}

/// Umbrella simulator error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A core faulted.
    Fault(Fault),
    /// The synchronizer detected a protocol violation.
    Sync(SyncError),
    /// The platform configuration is invalid.
    Config(ConfigError),
    /// The runtime watchdog tripped (deadlock or stalled progress); the
    /// post-mortem captures the platform state at trip time.
    Watchdog(Box<PostMortem>),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Fault(e) => write!(f, "fault: {e}"),
            SimError::Sync(e) => write!(f, "synchronization violation: {e}"),
            SimError::Config(e) => write!(f, "configuration error: {e}"),
            SimError::Watchdog(pm) => write!(f, "watchdog: {pm}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Fault(e) => Some(e),
            SimError::Sync(e) => Some(e),
            SimError::Config(e) => Some(e),
            SimError::Watchdog(_) => None,
        }
    }
}

impl From<Fault> for SimError {
    fn from(e: Fault) -> Self {
        SimError::Fault(e)
    }
}

impl From<SyncError> for SimError {
    fn from(e: SyncError) -> Self {
        SimError::Sync(e)
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_core_and_address() {
        let f = Fault {
            core: 3,
            pc: 0x123,
            addr: 0x456,
            kind: FaultKind::DmOutOfRange,
        };
        let text = f.to_string();
        assert!(text.contains("core 3"));
        assert!(text.contains("0x0456"));
    }

    #[test]
    fn umbrella_wraps_sources() {
        let e: SimError = SyncError::CounterUnderflow.into();
        assert!(e.source().is_some());
        let e: SimError = ConfigError::ZeroAdcPeriod.into();
        assert!(!e.to_string().is_empty());
    }
}
