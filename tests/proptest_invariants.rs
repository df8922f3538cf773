//! Cross-crate property tests on the core invariants of the
//! synchronization mechanism, the address translation unit, the
//! crossbar arbitration and platform construction.

use proptest::prelude::*;
use wbsn::core::{CoreId, CoreSet, SyncPointValue};
use wbsn::isa::{assemble_text, Linker, Section, SyncKind};
use wbsn::sim::atu::{Atu, DmTarget};
use wbsn::sim::xbar::{arbitrate, Grant, Request};
use wbsn::sim::{AdcConfig, InterconnectKind, Platform, PlatformConfig};

fn any_core() -> impl Strategy<Value = CoreId> {
    (0usize..8).prop_map(|i| CoreId::new(i).expect("index in range"))
}

fn any_kind() -> impl Strategy<Value = SyncKind> {
    prop_oneof![
        Just(SyncKind::Inc),
        Just(SyncKind::Dec),
        Just(SyncKind::Nop)
    ]
}

/// Whole-domain values, with small ones and the maximum drawn often
/// enough that validation reaches every check.
fn edge_u32() -> impl Strategy<Value = u32> {
    prop_oneof![any::<u32>(), 0u32..0x8100, Just(u32::MAX)]
}

fn edge_usize() -> impl Strategy<Value = usize> {
    prop_oneof![any::<usize>(), 0usize..64, Just(usize::MAX)]
}

fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), 0u64..10_000, Just(u64::MAX)]
}

proptest! {
    /// Merged application equals sequential application whenever the
    /// sequential order never underflows (the merge is "a single and
    /// consistent memory modification").
    #[test]
    fn merged_update_equals_any_consistent_serialization(
        ops in prop::collection::vec((any_core(), any_kind()), 0..12),
        start in 0u8..200,
    ) {
        let initial = SyncPointValue::with(CoreSet::empty(), start);
        // Sequential, Incs first (an order that cannot underflow if the
        // merged net is consistent).
        let mut incs_first = ops.clone();
        incs_first.sort_by_key(|(_, kind)| matches!(kind, SyncKind::Dec));
        let mut sequential = initial;
        let mut ok = true;
        for (core, kind) in &incs_first {
            match sequential.apply(*core, *kind) {
                Ok(next) => sequential = next,
                Err(_) => { ok = false; break; }
            }
        }
        // Merged.
        let mut flags = CoreSet::empty();
        let mut delta = 0i32;
        for (core, kind) in &ops {
            match kind {
                SyncKind::Inc => { flags.insert(*core); delta += 1; }
                SyncKind::Dec => delta -= 1,
                SyncKind::Nop => flags.insert(*core),
            }
        }
        match initial.apply_merged(flags, delta) {
            Ok(merged) => {
                prop_assert!(ok, "merged succeeded, incs-first order must too");
                prop_assert_eq!(merged, sequential);
            }
            Err(_) => prop_assert!(!ok, "merged failed, so must the serialization"),
        }
    }

    /// Synchronization-point words round-trip through their memory
    /// representation.
    #[test]
    fn sync_point_word_round_trip(word in any::<u16>()) {
        prop_assert_eq!(SyncPointValue::from_word(word).to_word(), word);
    }

    /// The ATU is injective: no two (core, address) pairs may reach the
    /// same physical banked location unless they are the same shared
    /// address.
    #[test]
    fn atu_translation_is_injective(
        addr_a in 0u32..0x7F00,
        addr_b in 0u32..0x7F00,
        core_a in 0usize..8,
        core_b in 0usize..8,
    ) {
        let atu = Atu::new(8, 0x1800, 0x10, 16, false);
        let (ta, tb) = (atu.translate(core_a, addr_a), atu.translate(core_b, addr_b));
        if let (Ok(DmTarget::Memory { location: la, .. }), Ok(DmTarget::Memory { location: lb, .. })) = (ta, tb) {
            if la == lb {
                // Same physical word: either the same shared address or
                // the same private word of the same core.
                prop_assert_eq!(addr_a, addr_b);
                if addr_a >= 0x1800 {
                    prop_assert_eq!(core_a, core_b);
                }
            }
        }
    }

    /// Crossbar arbitration: per bank, exactly one request gets the
    /// physical access; broadcasts only ever join a read of the same
    /// address; nothing is both granted and stalled.
    #[test]
    fn arbitration_grants_one_access_per_bank(
        reqs in prop::collection::vec(
            (0usize..8, 0usize..16, 0u32..64, any::<bool>()),
            1..8,
        ),
        rotation in 0usize..8,
        broadcast in any::<bool>(),
    ) {
        // One request per core, as the pipeline guarantees.
        let mut seen = [false; 8];
        let requests: Vec<Request> = reqs
            .into_iter()
            .filter(|(core, ..)| !std::mem::replace(&mut seen[*core], true))
            .map(|(core, bank, addr, write)| Request { core, bank, addr, write })
            .collect();
        let grants = arbitrate(&requests, rotation, broadcast);
        prop_assert_eq!(grants.len(), requests.len());
        for bank in 0..16 {
            let in_bank: Vec<usize> = (0..requests.len())
                .filter(|&i| requests[i].bank == bank)
                .collect();
            if in_bank.is_empty() {
                continue;
            }
            let accesses = in_bank.iter().filter(|&&i| grants[i] == Grant::Access).count();
            prop_assert_eq!(accesses, 1, "bank {} must grant exactly once", bank);
            let winner = *in_bank
                .iter()
                .find(|&&i| grants[i] == Grant::Access)
                .expect("counted above");
            for &i in &in_bank {
                if grants[i] == Grant::Broadcast {
                    prop_assert!(broadcast, "broadcast only when enabled");
                    prop_assert!(!requests[i].write, "writes never merge");
                    prop_assert!(!requests[winner].write, "cannot ride a write");
                    prop_assert_eq!(requests[i].addr, requests[winner].addr);
                }
            }
        }
    }

    /// Fairness: under persistent contention, every core eventually wins
    /// arbitration within one full rotation.
    #[test]
    fn arbitration_rotation_is_fair(cores in prop::collection::btree_set(0usize..8, 2..8)) {
        let requests: Vec<Request> = cores
            .iter()
            .map(|&core| Request { core, bank: 0, addr: core as u32, write: false })
            .collect();
        let mut winners = std::collections::BTreeSet::new();
        for rotation in 0..8 {
            let grants = arbitrate(&requests, rotation, true);
            for (i, grant) in grants.iter().enumerate() {
                if *grant == Grant::Access {
                    winners.insert(requests[i].core);
                }
            }
        }
        prop_assert_eq!(winners, cores);
    }

    /// Any configuration yields a platform or an error from
    /// `Platform::new`, never a panic.
    #[test]
    fn platform_new_never_panics_on_any_config(
        cores in 0usize..=16,
        crossbar in any::<bool>(),
        broadcast in any::<bool>(),
        forwarding in any::<bool>(),
        shared_words in edge_u32(),
        sync_points in edge_usize(),
        sync_base in edge_u32(),
        channels in edge_usize(),
        period_cycles in edge_u64(),
        start_cycle in edge_u64(),
    ) {
        let mut linker = Linker::new();
        linker.add_section(Section::new("main", assemble_text("sleep\nhalt\n").expect("assembles")));
        linker.set_entry(0, "main");
        let image = linker.link().expect("links");
        let config = PlatformConfig {
            cores,
            interconnect: if crossbar {
                InterconnectKind::Crossbar
            } else {
                InterconnectKind::Decoder
            },
            broadcast,
            shared_words,
            forwarding,
            sync_points,
            sync_base,
            adc: AdcConfig {
                channels,
                period_cycles,
                start_cycle,
            },
        };
        let _ = Platform::new(config, &image);
    }
}
