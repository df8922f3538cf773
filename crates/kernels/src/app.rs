//! Built benchmark applications: linked images plus platform wiring.

use std::error::Error;
use std::fmt;

use wbsn_core::{MappingError, MappingPlan};
use wbsn_isa::{IsaError, LinkError, LinkedImage};
use wbsn_sim::{Platform, PlatformConfig, SimError};

use crate::layout::{SHARED_WORDS, SYNC_BASE, SYNC_POINTS};

/// Which architecture a build targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// The single-core baseline (decoders, flat memory).
    SingleCore,
    /// The 8-core target platform (crossbars, ATU, synchronizer).
    MultiCore,
}

/// How the multi-core build synchronizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncApproach {
    /// The paper's HW/SW approach: sync points + clock gating.
    Hardware,
    /// Active waiting on shared memory (Fig. 6's "no synch" bars).
    BusyWait,
}

/// How lock-step barriers are realized (extension, DESIGN.md §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarrierStyle {
    /// The paper's protocol: `SINC` on entry, `SDEC` + `SLEEP` on exit.
    SincSdec,
    /// A building-directive preloaded barrier: the point is configured
    /// with the group size and participants at load time and
    /// auto-reloads; cores only `SDEC` + `SLEEP` at the barrier.
    Preloaded,
}

/// Build-time options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BuildOptions {
    /// Synchronization style of multi-core builds.
    pub approach: SyncApproach,
    /// Whether the crossbars merge same-address reads.
    pub broadcast: bool,
    /// Whether lock-step groups insert the branch-recovery barrier
    /// (`SINC`/`SDEC` + `SLEEP`); disabling it is the ablation that
    /// quantifies how much broadcast survives without re-alignment.
    pub lockstep: bool,
    /// How lock-step barriers are realized.
    pub barrier: BarrierStyle,
    /// Whether the load-latency-aware scheduler
    /// ([`wbsn_isa::schedule_program`]) runs over every emitted section,
    /// filling load-use slots with later independent instructions.
    pub schedule: bool,
    /// ADC sampling period in cycles (at the simulated clock).
    pub adc_period_cycles: u64,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            approach: SyncApproach::Hardware,
            broadcast: true,
            lockstep: true,
            barrier: BarrierStyle::SincSdec,
            schedule: false,
            adc_period_cycles: 4000, // 250 Hz at 1 MHz
        }
    }
}

/// A fully built benchmark: image, configuration and mapping metadata.
#[derive(Debug, Clone)]
pub struct BuiltApp {
    /// Benchmark name (`3L-MF`, `3L-MMD`, `RP-CLASS`).
    pub name: &'static str,
    /// Target architecture.
    pub arch: Arch,
    /// Synchronization approach (multi-core only).
    pub approach: SyncApproach,
    /// The linked instruction/data image.
    pub image: LinkedImage,
    /// The platform configuration to instantiate.
    pub config: PlatformConfig,
    /// Cores participating in the workload.
    pub active_cores: usize,
    /// The mapping plan (multi-core builds).
    pub plan: Option<MappingPlan>,
    /// Preloaded-barrier directives to apply at load time:
    /// `(point, count, participants)`.
    pub preloads: Vec<(u16, u8, wbsn_core::CoreSet)>,
}

impl BuiltApp {
    /// Instantiates a fresh platform loaded with this application and the
    /// given per-channel ADC sample streams.
    ///
    /// # Errors
    ///
    /// Propagates platform construction errors, including more streams
    /// than the image has ADC channels.
    pub fn platform(&self, streams: Vec<Vec<i16>>) -> Result<Platform, SimError> {
        let mut platform = Platform::new(self.config.clone(), &self.image)?;
        for &(point, count, participants) in &self.preloads {
            platform.preload_barrier(point, count, participants)?;
        }
        platform.set_adc_streams(streams)?;
        Ok(platform)
    }

    /// Static code overhead of the synchronization ISE in percent
    /// (Table I's "Code Overhead").
    pub fn code_overhead_percent(&self) -> f64 {
        self.image.code_overhead_percent()
    }

    /// Instruction banks containing code (Table I's "Active IM banks").
    pub fn active_im_banks(&self) -> usize {
        self.image.active_im_banks()
    }

    /// A human-readable disassembly of every placed section, annotated
    /// with the cores that enter it.
    pub fn disassembly(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for section in self.image.sections() {
            let entries: Vec<String> = self
                .image
                .entries()
                .filter(|(_, addr)| *addr == section.base)
                .map(|(core, _)| format!("core {core}"))
                .collect();
            let _ = writeln!(
                out,
                "section {} @ {:#06x} ({}):",
                section.name,
                section.base,
                if entries.is_empty() {
                    "no entry".to_string()
                } else {
                    entries.join(", ")
                }
            );
            let words: Vec<u32> = (0..section.len)
                .map(|offset| self.image.instr_word(section.base + offset as u32))
                .collect();
            for line in wbsn_isa::disasm::disassemble(&words, section.base) {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }
}

/// The platform configuration used by every benchmark build.
pub fn benchmark_config(arch: Arch, options: &BuildOptions) -> PlatformConfig {
    let mut config = match arch {
        Arch::SingleCore => PlatformConfig::single_core(),
        Arch::MultiCore => PlatformConfig::multi_core(),
    };
    config.shared_words = match arch {
        Arch::SingleCore => 0, // flat space, no ATU
        Arch::MultiCore => SHARED_WORDS,
    };
    config.sync_base = SYNC_BASE;
    config.sync_points = SYNC_POINTS;
    config.broadcast = arch == Arch::MultiCore && options.broadcast;
    config.adc.channels = 3;
    config.adc.period_cycles = options.adc_period_cycles;
    config.adc.start_cycle = options.adc_period_cycles / 2;
    config
}

/// Errors surfaced while building a benchmark application.
#[derive(Debug)]
pub enum BuildError {
    /// Code generation failed.
    Isa(IsaError),
    /// Linking failed.
    Link(LinkError),
    /// Mapping failed.
    Mapping(MappingError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Isa(e) => write!(f, "code generation failed: {e}"),
            BuildError::Link(e) => write!(f, "linking failed: {e}"),
            BuildError::Mapping(e) => write!(f, "mapping failed: {e}"),
        }
    }
}

impl Error for BuildError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BuildError::Isa(e) => Some(e),
            BuildError::Link(e) => Some(e),
            BuildError::Mapping(e) => Some(e),
        }
    }
}

impl From<IsaError> for BuildError {
    fn from(e: IsaError) -> Self {
        BuildError::Isa(e)
    }
}

impl From<LinkError> for BuildError {
    fn from(e: LinkError) -> Self {
        BuildError::Link(e)
    }
}

impl From<MappingError> for BuildError {
    fn from(e: MappingError) -> Self {
        BuildError::Mapping(e)
    }
}

impl From<wbsn_core::TaskGraphError> for BuildError {
    fn from(e: wbsn_core::TaskGraphError) -> Self {
        BuildError::Mapping(MappingError::Graph(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_match_architectures() {
        let options = BuildOptions::default();
        let sc = benchmark_config(Arch::SingleCore, &options);
        assert_eq!(sc.cores, 1);
        assert!(!sc.broadcast);
        sc.validate().unwrap();
        let mc = benchmark_config(Arch::MultiCore, &options);
        assert_eq!(mc.cores, 8);
        assert!(mc.broadcast);
        mc.validate().unwrap();
    }

    #[test]
    fn broadcast_ablation_flag() {
        let options = BuildOptions {
            broadcast: false,
            ..BuildOptions::default()
        };
        let mc = benchmark_config(Arch::MultiCore, &options);
        assert!(!mc.broadcast);
    }

    #[test]
    fn disassembly_lists_sections_and_entries() {
        let app = crate::build_mf(Arch::MultiCore, &BuildOptions::default()).expect("builds");
        let text = app.disassembly();
        assert!(text.contains("section cond"));
        assert!(text.contains("core 0, core 1, core 2"));
        assert!(text.contains("sinc"));
        assert!(text.contains("sleep"));
    }

    #[test]
    fn build_error_displays() {
        let e = BuildError::Link(LinkError::DuplicateSection("x".into()));
        assert!(e.to_string().contains("linking"));
        assert!(e.source().is_some());
    }
}
