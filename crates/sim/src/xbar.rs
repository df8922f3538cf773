//! Crossbar arbitration with request broadcasting.
//!
//! The crossbars follow the logarithmic-interconnect scheme of the
//! paper's reference \[19\]: accesses are combinational (single-cycle) and
//! fully connect cores to banks. The paper's modification is
//! *broadcasting*: "multiple read requests from the same location in
//! memory and in the same clock cycle have to be merged into a single
//! memory access".
//!
//! Arbitration happens per bank and per cycle. All read requests for one
//! address form a *group*; the highest-priority group wins the bank, its
//! first member performs the physical access ([`Grant::Access`]) and the
//! other members receive the broadcast data for free
//! ([`Grant::Broadcast`]). Requests to the same bank but other addresses
//! lose and retry next cycle ([`Grant::Stall`]). A rotating priority
//! pointer keeps the arbitration fair.

use wbsn_core::MAX_CORES;

/// One memory request submitted to a crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Issuing core.
    pub core: usize,
    /// Target bank.
    pub bank: usize,
    /// Full word address (used for merge detection).
    pub addr: u32,
    /// Whether this is a store (stores never merge).
    pub write: bool,
}

/// Arbitration result for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// The request performs the physical bank access.
    Access,
    /// The request is served by another core's simultaneous access to
    /// the same address (broadcast).
    Broadcast,
    /// The request lost arbitration and must retry next cycle.
    Stall,
}

/// Arbitrates one cycle's requests.
///
/// `rotation` is the cycle's round-robin priority offset; the caller
/// advances it every cycle. With `broadcast` disabled, same-address reads
/// no longer merge and serialize like ordinary conflicts (the ablation
/// the paper's Fig. 6 discussion implies).
///
/// Returns one [`Grant`] per request, in input order.
///
/// # Example
///
/// ```
/// use wbsn_sim::xbar::{arbitrate, Grant, Request};
///
/// // Two cores fetch the same word: one access, one broadcast.
/// let reqs = [
///     Request { core: 0, bank: 1, addr: 4096, write: false },
///     Request { core: 1, bank: 1, addr: 4096, write: false },
/// ];
/// let grants = arbitrate(&reqs, 0, true);
/// assert_eq!(grants, vec![Grant::Access, Grant::Broadcast]);
/// ```
pub fn arbitrate(requests: &[Request], rotation: usize, broadcast: bool) -> Vec<Grant> {
    let mut grants = vec![Grant::Stall; requests.len()];
    arbitrate_into(requests, rotation, broadcast, &mut grants);
    grants
}

/// Allocation-free form of [`arbitrate`]: writes the [`Grant`] of
/// `requests[i]` to `grants[i]`. The simulator's cycle loop calls this
/// twice per cycle with buffers on its stack.
///
/// # Panics
///
/// Panics if `grants` is shorter than `requests`.
#[inline]
pub fn arbitrate_into(
    requests: &[Request],
    rotation: usize,
    broadcast: bool,
    grants: &mut [Grant],
) {
    let grants = &mut grants[..requests.len()];
    // Requests on pairwise-distinct banks never conflict (a lone request
    // included): grant them all without a per-bank scan.
    let mut banks: u64 = 0;
    let distinct = requests.iter().all(|r| {
        debug_assert!(r.bank < 64, "bank index fits the arbitration mask");
        let bit = 1 << r.bank;
        let fresh = banks & bit == 0;
        banks |= bit;
        fresh
    });
    if distinct {
        grants.fill(Grant::Access);
        return;
    }
    let rot = rotation % MAX_CORES;
    let priority = |r: &Request| (r.core + MAX_CORES - rot) % MAX_CORES;
    // Lockstep fast path: every request reads the same word (cores
    // loading the same address in phase). One access, the rest broadcast.
    let first = requests[0];
    if broadcast
        && !first.write
        && requests[1..]
            .iter()
            .all(|r| r.bank == first.bank && r.addr == first.addr && !r.write)
    {
        let winner = requests
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| priority(r))
            .map_or(0, |(i, _)| i);
        grants.fill(Grant::Broadcast);
        grants[winner] = Grant::Access;
        return;
    }
    grants.fill(Grant::Stall);
    // Few requests per cycle (at most one per core): quadratic scans are
    // cheaper than hashing.
    let mut banks_done: u64 = 0;
    for i in 0..requests.len() {
        let bank = requests[i].bank;
        if banks_done & (1 << bank) != 0 {
            continue;
        }
        banks_done |= 1 << bank;
        // Pick the winning request for this bank: the member with the
        // highest rotating priority.
        let mut winner = i;
        let mut winner_priority = usize::MAX;
        for (j, r) in requests.iter().enumerate() {
            if r.bank != bank {
                continue;
            }
            let p = priority(r);
            if p < winner_priority {
                winner_priority = p;
                winner = j;
            }
        }
        let w = requests[winner];
        grants[winner] = Grant::Access;
        if broadcast && !w.write {
            // Merge every same-address read into the winner's access.
            for (j, r) in requests.iter().enumerate() {
                if j != winner && r.bank == bank && r.addr == w.addr && !r.write {
                    grants[j] = Grant::Broadcast;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(core: usize, bank: usize, addr: u32, write: bool) -> Request {
        Request {
            core,
            bank,
            addr,
            write,
        }
    }

    #[test]
    fn disjoint_banks_all_proceed() {
        let reqs = [
            req(0, 0, 0, false),
            req(1, 1, 5000, false),
            req(2, 2, 9000, true),
        ];
        let g = arbitrate(&reqs, 0, true);
        assert_eq!(g, vec![Grant::Access; 3]);
    }

    #[test]
    fn same_bank_different_address_conflicts() {
        let reqs = [req(0, 3, 100, false), req(1, 3, 116, false)];
        let g = arbitrate(&reqs, 0, true);
        assert_eq!(g, vec![Grant::Access, Grant::Stall]);
    }

    #[test]
    fn rotation_changes_the_winner() {
        let reqs = [req(0, 3, 100, false), req(1, 3, 116, false)];
        let g = arbitrate(&reqs, 1, true);
        assert_eq!(g, vec![Grant::Stall, Grant::Access]);
    }

    #[test]
    fn broadcast_merges_all_same_address_reads() {
        let reqs = [
            req(0, 2, 64, false),
            req(1, 2, 64, false),
            req(2, 2, 64, false),
            req(3, 2, 80, false),
        ];
        let g = arbitrate(&reqs, 0, true);
        assert_eq!(
            g,
            vec![
                Grant::Access,
                Grant::Broadcast,
                Grant::Broadcast,
                Grant::Stall
            ]
        );
    }

    #[test]
    fn broadcast_disabled_serializes_same_address() {
        let reqs = [req(0, 2, 64, false), req(1, 2, 64, false)];
        let g = arbitrate(&reqs, 0, false);
        assert_eq!(g, vec![Grant::Access, Grant::Stall]);
    }

    #[test]
    fn writes_never_merge() {
        let reqs = [req(0, 2, 64, true), req(1, 2, 64, true)];
        let g = arbitrate(&reqs, 0, true);
        assert_eq!(g, vec![Grant::Access, Grant::Stall]);
        // A read cannot ride on a write either.
        let reqs = [req(0, 2, 64, true), req(1, 2, 64, false)];
        let g = arbitrate(&reqs, 0, true);
        assert_eq!(g, vec![Grant::Access, Grant::Stall]);
    }

    #[test]
    fn write_winner_blocks_readers_of_other_addresses() {
        let reqs = [req(2, 5, 32, true), req(3, 5, 33, false)];
        // rotation 2 gives core 2 top priority.
        let g = arbitrate(&reqs, 2, true);
        assert_eq!(g, vec![Grant::Access, Grant::Stall]);
    }

    #[test]
    fn empty_request_list() {
        assert!(arbitrate(&[], 0, true).is_empty());
    }

    /// The arbitration rule stated per request: the request with the
    /// highest rotating priority on its bank accesses it; a read of the
    /// same address as a reading winner takes the broadcast when
    /// broadcast is on; every other request stalls.
    fn reference(requests: &[Request], rotation: usize, broadcast: bool) -> Vec<Grant> {
        let priority = |r: &Request| (r.core + 8 - rotation % 8) % 8;
        let mut grants = Vec::new();
        for r in requests {
            let mut w = r;
            for other in requests {
                if other.bank == r.bank && priority(other) < priority(w) {
                    w = other;
                }
            }
            grants.push(if w == r {
                Grant::Access
            } else if broadcast && !w.write && !r.write && r.addr == w.addr {
                Grant::Broadcast
            } else {
                Grant::Stall
            });
        }
        grants
    }

    /// Every request set of up to three requests from distinct cores in
    /// any order, on two banks and two addresses, reads and writes, at
    /// every rotation, with broadcast on and off: the fast paths
    /// included, [`arbitrate`] grants what the reference rule grants.
    #[test]
    fn arbitration_matches_the_reference_on_every_small_request_set() {
        // A request's bank, address and direction as three bits.
        let shape = |core, bits: usize| req(core, bits & 1, (bits >> 1 & 1) as u32, bits & 4 != 0);
        // The sets of one more request than the last round's.
        let mut sets: Vec<Vec<Request>> = vec![Vec::new()];
        let mut checked = 0;
        for _ in 0..3 {
            let mut longer = Vec::new();
            for set in &sets {
                for core in (0..8).filter(|c| set.iter().all(|r| r.core != *c)) {
                    for bits in 0..8 {
                        let mut next = set.clone();
                        next.push(shape(core, bits));
                        longer.push(next);
                    }
                }
            }
            sets = longer;
            for set in &sets {
                for rotation in 0..8 {
                    for broadcast in [false, true] {
                        assert_eq!(
                            arbitrate(set, rotation, broadcast),
                            reference(set, rotation, broadcast),
                            "{set:?} rotation {rotation} broadcast {broadcast}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(arbitrate(&[], 3, true).is_empty());
        // 8·8 + 56·64 + 336·512 request sets, 16 settings each.
        assert_eq!(checked, (64 + 56 * 64 + 336 * 512) * 16);
    }
}
