//! Platform configuration: geometry, interconnect and directives.

use wbsn_core::MAX_CORES;
use wbsn_isa::DM_WORDS;

use crate::adc::AdcConfig;
use crate::error::ConfigError;
use crate::mmio::{MAX_ADC_CHANNELS, MMIO_BASE};

/// Interconnect between the cores and the memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterconnectKind {
    /// Fully connected logarithmic-interconnect crossbars with request
    /// merging (multi-core target architecture).
    Crossbar,
    /// Simple address decoders (single-core baseline); no arbitration is
    /// needed and a higher clock frequency is attainable at equal
    /// voltage.
    Decoder,
}

/// Complete platform configuration.
///
/// The defaults mirror the paper's experimental set-up: 8 cores, 8 IM
/// banks, 16 DM banks, a 3-channel ADC, crossbar interconnect with
/// broadcast, and a shared data-memory section in the low addresses.
///
/// # Example
///
/// ```
/// use wbsn_sim::{InterconnectKind, PlatformConfig};
///
/// let mc = PlatformConfig::multi_core();
/// assert_eq!(mc.cores, 8);
/// assert_eq!(mc.interconnect, InterconnectKind::Crossbar);
///
/// let sc = PlatformConfig::single_core();
/// assert_eq!(sc.cores, 1);
/// assert_eq!(sc.interconnect, InterconnectKind::Decoder);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformConfig {
    /// Number of computing cores (1..=[`MAX_CORES`]).
    pub cores: usize,
    /// Interconnect flavour.
    pub interconnect: InterconnectKind,
    /// Whether simultaneous same-address reads merge into one access
    /// (the paper's broadcasting; disable for ablation).
    pub broadcast: bool,
    /// Size of the shared data-memory section in words; addresses below
    /// this limit are shared and interleaved across all banks.
    pub shared_words: u32,
    /// Whether the pipeline forwards load results from the memory stage
    /// to the execute stage. When enabled, a back-to-back load-use pair
    /// costs no hazard stall; when disabled (the paper's baseline), the
    /// consumer of a just-loaded register stalls one cycle.
    pub forwarding: bool,
    /// Number of synchronization points managed by the synchronizer.
    pub sync_points: usize,
    /// First shared address of the synchronization-point region.
    pub sync_base: u32,
    /// ADC peripheral configuration.
    pub adc: AdcConfig,
}

impl PlatformConfig {
    /// The paper's 8-core target architecture.
    pub fn multi_core() -> PlatformConfig {
        PlatformConfig {
            cores: 8,
            interconnect: InterconnectKind::Crossbar,
            broadcast: true,
            forwarding: false,
            shared_words: 0x1000,
            sync_points: 16,
            sync_base: 0x0010,
            adc: AdcConfig::default(),
        }
    }

    /// The paper's single-core baseline: same memories, decoders instead
    /// of crossbars.
    pub fn single_core() -> PlatformConfig {
        PlatformConfig {
            cores: 1,
            interconnect: InterconnectKind::Decoder,
            broadcast: false,
            forwarding: false,
            // The baseline has no shared/private division (no ATU): the
            // whole memory is one flat space.
            shared_words: 0,
            sync_points: 16,
            sync_base: 0x0010,
            adc: AdcConfig::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 || self.cores > MAX_CORES {
            return Err(ConfigError::BadCoreCount(self.cores));
        }
        if self.interconnect == InterconnectKind::Decoder && self.cores != 1 {
            return Err(ConfigError::DecoderNeedsSingleCore(self.cores));
        }
        if self.shared_words > MMIO_BASE {
            return Err(ConfigError::SharedTooLarge(self.shared_words));
        }
        // A region whose end overflows lies past any memory.
        let end = (self.sync_base as usize).checked_add(self.sync_points);
        // With an ATU present, the sync region must live in shared memory
        // so every core can observe the points.
        if self.cores > 1 && end.is_none_or(|end| end > self.shared_words as usize) {
            return Err(ConfigError::SyncRegionOutsideShared {
                base: self.sync_base,
                points: self.sync_points,
                shared: self.shared_words,
            });
        }
        if end.is_none_or(|end| end > DM_WORDS) {
            return Err(ConfigError::SharedTooLarge(self.sync_base));
        }
        if self.adc.channels > MAX_ADC_CHANNELS {
            return Err(ConfigError::TooManyAdcChannels(self.adc.channels));
        }
        if self.adc.period_cycles == 0 {
            return Err(ConfigError::ZeroAdcPeriod);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        PlatformConfig::multi_core().validate().unwrap();
        PlatformConfig::single_core().validate().unwrap();
    }

    #[test]
    fn decoder_rejects_multiple_cores() {
        let mut c = PlatformConfig::multi_core();
        c.interconnect = InterconnectKind::Decoder;
        assert_eq!(c.validate(), Err(ConfigError::DecoderNeedsSingleCore(8)));
    }

    #[test]
    fn bad_core_counts_rejected() {
        let mut c = PlatformConfig::multi_core();
        c.cores = 0;
        assert!(c.validate().is_err());
        c.cores = 9;
        assert!(c.validate().is_err());
    }

    #[test]
    fn sync_region_must_be_shared_on_multi_core() {
        let mut c = PlatformConfig::multi_core();
        c.sync_base = c.shared_words; // just past the shared limit
        assert!(matches!(
            c.validate(),
            Err(ConfigError::SyncRegionOutsideShared { .. })
        ));
    }

    #[test]
    fn sync_regions_whose_end_overflows_are_rejected() {
        let mut mc = PlatformConfig::multi_core();
        (mc.sync_base, mc.sync_points) = (1, usize::MAX);
        assert!(matches!(
            mc.validate(),
            Err(ConfigError::SyncRegionOutsideShared { .. })
        ));
        let mut sc = PlatformConfig::single_core();
        (sc.sync_base, sc.sync_points) = (1, usize::MAX);
        assert_eq!(sc.validate(), Err(ConfigError::SharedTooLarge(1)));
    }

    #[test]
    fn shared_section_cannot_cover_mmio() {
        let mut c = PlatformConfig::multi_core();
        c.shared_words = MMIO_BASE + 1;
        assert!(matches!(c.validate(), Err(ConfigError::SharedTooLarge(_))));
    }

    #[test]
    fn adc_validation() {
        let mut c = PlatformConfig::multi_core();
        c.adc.channels = MAX_ADC_CHANNELS + 1;
        assert!(c.validate().is_err());
        let mut c = PlatformConfig::multi_core();
        c.adc.period_cycles = 0;
        assert!(c.validate().is_err());
    }
}
