//! Shared cache of built benchmark images.
//!
//! Every measurement builds (generates, maps, links) its application
//! several times: once for calibration (hardware-sync cells) and once
//! per feasibility / measurement attempt, each with a different ADC
//! period. Cells of a
//! sweep grid repeat many of those builds — every pathological-fraction
//! point of Fig. 7 starts from the identical calibration build, and the
//! ablation grid shares its single-core baseline build with every other
//! sweep. The cache deduplicates them: one build per distinct
//! `(benchmark, architecture, BuildOptions)` key, shared behind an
//! [`Arc`] so worker threads can hold the image concurrently.
//!
//! Builds are deterministic, so a cached image is byte-identical to a
//! fresh one — hitting the cache can never change a measurement.
//!
//! **Scope**: RP-CLASS builds also depend on the [`ClassifierParams`],
//! which the key captures as a fingerprint of the trained constants. A
//! cache may therefore be shared across sweeps with different parameter
//! sets, but the common pattern is one cache per sweep with the sweep's
//! single parameter set.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use wbsn_kernels::{Arch, BuildError, BuildOptions, BuiltApp, ClassifierParams};

use crate::experiment::BenchmarkId;

/// One cache key: everything a build depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BuildKey {
    benchmark: BenchmarkId,
    arch: Arch,
    options: BuildOptions,
    /// Fingerprint of the classifier parameters (RP-CLASS builds embed
    /// them as constants; MF/MMD ignore them, but keying uniformly keeps
    /// the map simple and costs one u64 per entry).
    params: u64,
}

/// A concurrency-safe build cache (see the module docs).
#[derive(Debug, Default)]
pub struct BuildCache {
    map: Mutex<HashMap<BuildKey, Arc<BuiltApp>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Fingerprints the trained constants via FNV-1a over their debug
/// rendering — deterministic across runs (f64 formatting is shortest
/// roundtrip, FNV is keyless), which keeps cache behaviour and the sweep
/// records reproducible.
fn fingerprint(params: &ClassifierParams) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{params:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

impl BuildCache {
    /// Creates an empty cache.
    pub fn new() -> BuildCache {
        BuildCache::default()
    }

    /// Returns the cached build for the key, or builds (and caches) it.
    ///
    /// # Errors
    ///
    /// Propagates the builder's [`BuildError`]; failed builds are not
    /// cached.
    pub fn get_or_build(
        &self,
        benchmark: BenchmarkId,
        arch: Arch,
        options: &BuildOptions,
        params: &ClassifierParams,
    ) -> Result<Arc<BuiltApp>, BuildError> {
        let key = BuildKey {
            benchmark,
            arch,
            options: *options,
            params: fingerprint(params),
        };
        if let Some(app) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(app));
        }
        // Build outside the lock: builds are pure, so two threads racing
        // on the same key at worst build twice and insert the same image.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let app = Arc::new(crate::experiment::build_app(
            benchmark, arch, options, params,
        )?);
        let mut map = self.map.lock().unwrap();
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&app));
        Ok(Arc::clone(entry))
    }

    /// Distinct images currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wbsn_kernels::SyncApproach;

    #[test]
    fn identical_keys_share_one_build() {
        let cache = BuildCache::new();
        let params = ClassifierParams::default_trained();
        let options = BuildOptions::default();
        let a = cache
            .get_or_build(BenchmarkId::Mf, Arch::MultiCore, &options, &params)
            .expect("builds");
        let b = cache
            .get_or_build(BenchmarkId::Mf, Arch::MultiCore, &options, &params)
            .expect("builds");
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the image");
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_options_build_distinct_images() {
        let cache = BuildCache::new();
        let params = ClassifierParams::default_trained();
        let base = BuildOptions::default();
        let busy = BuildOptions {
            approach: SyncApproach::BusyWait,
            ..base
        };
        let other_period = BuildOptions {
            adc_period_cycles: base.adc_period_cycles + 1,
            ..base
        };
        for options in [&base, &busy, &other_period] {
            cache
                .get_or_build(BenchmarkId::Mmd, Arch::MultiCore, options, &params)
                .expect("builds");
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn classifier_params_are_part_of_the_key() {
        let cache = BuildCache::new();
        let trained = ClassifierParams::default_trained();
        let options = BuildOptions::default();
        cache
            .get_or_build(BenchmarkId::RpClass, Arch::MultiCore, &options, &trained)
            .expect("builds");
        // A second, differently-trained parameter set must not hit the
        // first entry.
        let retrained = ClassifierParams::default_trained();
        cache
            .get_or_build(BenchmarkId::RpClass, Arch::MultiCore, &options, &retrained)
            .expect("builds");
        // Identical training data gives identical params: same key.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
    }
}
