//! The synchronizer unit: request merging, clock gating and wake-up.
//!
//! The synchronizer is the hardware half of the approach. Every cycle it
//! receives the synchronization instructions issued by the cores, merges
//! the requests directed at the same synchronization point into a single
//! consistent memory modification, decides which cores to clock-gate
//! (those that executed `SLEEP`) and which to resume (all cores flagged
//! in a point whose counter reached zero, plus cores subscribed to a
//! peripheral interrupt that just fired).
//!
//! # Wake semantics
//!
//! A point *fires* when, after the cycle's merged update, it is **armed**
//! (a `SINC` touched it since the last fire, or it was preloaded), its
//! counter is zero and at least one core is flagged. Firing wakes every
//! flagged core, clears the flags and disarms the point.
//!
//! A wake event delivered to a core that is *not* clock-gated sets a
//! pending-wake latch instead; the core's next `SLEEP` consumes the latch
//! and completes without gating (the WFE-style semantics that close the
//! race between a producer finishing early and a consumer going to
//! sleep).
//!
//! Points may also be *preloaded* with a count at configuration time and
//! given an auto-reload value, which models the building-directive option
//! of initialising synchronization points at application load.

use std::fmt;

use wbsn_isa::SyncKind;

use crate::error::SyncError;
use crate::sync_point::{CoreId, CoreSet, SyncPointValue, MAX_CORES};

/// Maximum number of distinct peripheral interrupt sources.
pub const MAX_IRQ_SOURCES: usize = 16;

#[derive(Debug, Clone, Copy, Default)]
struct PointState {
    value: SyncPointValue,
    armed: bool,
    reload: Option<(u8, CoreSet)>,
}

/// One synchronization point touched by a committed cycle — the
/// per-point detail behind the cycle's merged memory write, kept so
/// observers (the event stream, the verifier) can reconstruct exactly
/// what the hardware did without re-deriving the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointTouch {
    /// The touched point.
    pub point: u16,
    /// Cores newly flagged into the point this cycle (`SINC`/`SNOP`).
    pub flagged: CoreSet,
    /// Requests merged into this point's single write.
    pub requests: u8,
    /// The update armed the point (a `SINC` was present).
    pub armed: bool,
}

/// What happened during one committed synchronizer cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SyncOutcome {
    /// Cores resumed from the clock-gated state this cycle.
    pub woken: CoreSet,
    /// Cores that entered the clock-gated state this cycle.
    pub slept: CoreSet,
    /// Cores whose `SLEEP` consumed a pending wake and fell through.
    pub fell_through: CoreSet,
    /// Points that fired (counter reached zero with flags set).
    pub fired_points: Vec<u16>,
    /// For each fired point (aligned with
    /// [`SyncOutcome::fired_points`]), the cores that were flagged when
    /// it released — the wake set before pending-latch resolution.
    pub fired_wakes: Vec<CoreSet>,
    /// Per-point detail of every merged update applied this cycle.
    pub touched: Vec<PointTouch>,
    /// Number of physical shared-memory writes performed (one per touched
    /// point, regardless of how many requests were merged into it).
    pub memory_writes: usize,
}

/// Aggregate counters over the synchronizer's lifetime, used by the power
/// model and by Table I's run-time overhead accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncStats {
    /// Total synchronization-point instructions processed.
    pub ops: u64,
    /// Physical memory writes after merging.
    pub writes: u64,
    /// Requests saved by merging (`ops - writes` for touched points).
    pub merged: u64,
    /// Point-fire events.
    pub fires: u64,
    /// `SLEEP` requests that actually gated a core.
    pub sleeps: u64,
    /// `SLEEP` requests that fell through on a pending wake.
    pub fallthroughs: u64,
    /// Interrupt wake-ups forwarded to cores.
    pub irq_wakes: u64,
    /// Lost wake-ups: an armed point's counter reached zero with no core
    /// flagged, so the release event woke nobody (a producer completed
    /// before any consumer registered).
    pub lost_wakes: u64,
    /// Counter-invariant violations detected while applying a merged
    /// update (underflow/overflow); each also surfaces as a
    /// [`SyncError`] from [`Synchronizer::commit`].
    pub invariant_faults: u64,
}

impl fmt::Display for SyncStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops ({} writes, {} merged), {} fires, {} sleeps (+{} fall-throughs), {} irq wakes, \
             {} lost wakes, {} invariant faults",
            self.ops, self.writes, self.merged, self.fires, self.sleeps,
            self.fallthroughs, self.irq_wakes, self.lost_wakes, self.invariant_faults
        )
    }
}

/// The synchronizer unit.
///
/// Drive it by staging the cycle's events ([`Synchronizer::submit_op`],
/// [`Synchronizer::request_sleep`], [`Synchronizer::raise_irq`]) and then
/// calling [`Synchronizer::commit`], which applies the merged updates and
/// returns the cycle's [`SyncOutcome`]. See the [crate-level
/// example](crate).
#[derive(Debug, Clone)]
pub struct Synchronizer {
    num_cores: usize,
    points: Vec<PointState>,
    gated: CoreSet,
    pending: CoreSet,
    subscriptions: [u16; MAX_CORES],
    staged_ops: Vec<(CoreId, SyncKind, u16)>,
    staged_sleeps: CoreSet,
    staged_irqs: u16,
    stats: SyncStats,
}

impl Synchronizer {
    /// Creates a synchronizer for `num_cores` cores and `num_points`
    /// synchronization points.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::BadCoreCount`] unless `1 <= num_cores <= 8`.
    pub fn new(num_cores: usize, num_points: usize) -> Result<Synchronizer, SyncError> {
        if num_cores == 0 || num_cores > MAX_CORES {
            return Err(SyncError::BadCoreCount { cores: num_cores });
        }
        Ok(Synchronizer {
            num_cores,
            points: vec![PointState::default(); num_points],
            gated: CoreSet::empty(),
            pending: CoreSet::empty(),
            subscriptions: [0; MAX_CORES],
            staged_ops: Vec::new(),
            staged_sleeps: CoreSet::empty(),
            staged_irqs: 0,
            stats: SyncStats::default(),
        })
    }

    /// Number of cores managed by this synchronizer.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Number of configured synchronization points.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Preloads a point's counter and optionally makes it auto-reload to
    /// the same count after every fire (building-directive barriers).
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::PointOutOfRange`] for an unknown point.
    pub fn preload(&mut self, point: u16, count: u8, auto_reload: bool) -> Result<(), SyncError> {
        let state = self.point_mut(point)?;
        state.value = SyncPointValue::with(state.value.flags(), count);
        state.armed = true;
        state.reload = auto_reload.then_some((count, CoreSet::empty()));
        Ok(())
    }

    /// Configures a *preloaded barrier* (a building-directive extension):
    /// the counter starts at `count`, the given participants are
    /// permanently registered, and both auto-reload after every fire.
    /// Participants then only `SDEC` when they reach the barrier and
    /// `SLEEP` — halving the per-crossing instruction overhead of the
    /// SINC/SDEC protocol.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::PointOutOfRange`] for an unknown point.
    pub fn preload_barrier(
        &mut self,
        point: u16,
        count: u8,
        participants: CoreSet,
    ) -> Result<(), SyncError> {
        let state = self.point_mut(point)?;
        state.value = SyncPointValue::with(participants, count);
        state.armed = true;
        state.reload = Some((count, participants));
        Ok(())
    }

    /// Current value of a synchronization point as stored in shared
    /// memory (what a core's `LW` of the point's address observes).
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::PointOutOfRange`] for an unknown point.
    pub fn point_value(&self, point: u16) -> Result<SyncPointValue, SyncError> {
        self.points
            .get(point as usize)
            .map(|s| s.value)
            .ok_or(SyncError::PointOutOfRange {
                point,
                points: self.points.len(),
            })
    }

    /// Whether a point is armed (a `SINC` touched it since the last
    /// fire, or it was preloaded). Used by runtime deadlock diagnosis.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::PointOutOfRange`] for an unknown point.
    pub fn point_armed(&self, point: u16) -> Result<bool, SyncError> {
        self.points
            .get(point as usize)
            .map(|s| s.armed)
            .ok_or(SyncError::PointOutOfRange {
                point,
                points: self.points.len(),
            })
    }

    /// Whether `core` is currently clock-gated.
    pub fn is_gated(&self, core: CoreId) -> bool {
        self.gated.contains(core)
    }

    /// The set of clock-gated cores.
    pub fn gated(&self) -> CoreSet {
        self.gated
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> SyncStats {
        self.stats
    }

    /// Subscribes `core` to the interrupt sources in `mask` (one bit per
    /// source). Writing the platform's memory-mapped subscription
    /// register lands here.
    ///
    /// # Errors
    ///
    /// Returns [`SyncError::CoreOutOfRange`] when the core is not managed
    /// by this synchronizer.
    pub fn subscribe(&mut self, core: CoreId, mask: u16) -> Result<(), SyncError> {
        self.check_core(core)?;
        self.subscriptions[core.index()] = mask;
        Ok(())
    }

    /// Current subscription mask of `core`.
    pub fn subscription(&self, core: CoreId) -> u16 {
        self.subscriptions[core.index()]
    }

    /// Stages a synchronization instruction issued by `core` this cycle.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown cores or points; nothing is staged in
    /// that case.
    pub fn submit_op(&mut self, core: CoreId, kind: SyncKind, point: u16) -> Result<(), SyncError> {
        self.check_core(core)?;
        if point as usize >= self.points.len() {
            return Err(SyncError::PointOutOfRange {
                point,
                points: self.points.len(),
            });
        }
        self.staged_ops.push((core, kind, point));
        Ok(())
    }

    /// Stages a `SLEEP` request from `core` this cycle.
    pub fn request_sleep(&mut self, core: CoreId) {
        self.staged_sleeps.insert(core);
    }

    /// Stages a peripheral interrupt from `source` this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `source >= MAX_IRQ_SOURCES`.
    pub fn raise_irq(&mut self, source: usize) {
        assert!(source < MAX_IRQ_SOURCES, "interrupt source out of range");
        self.staged_irqs |= 1 << source;
    }

    /// Applies the staged events of the current cycle.
    ///
    /// The order models the hardware: merged point updates first, then
    /// fire evaluation, then interrupt forwarding, then `SLEEP`
    /// processing (so a wake produced this cycle defeats a simultaneous
    /// `SLEEP` via the pending-wake latch).
    ///
    /// # Errors
    ///
    /// Returns a counter range error when the merged update of some point
    /// is inconsistent; staged state is cleared regardless so the caller
    /// can treat the error as a detected protocol violation and stop.
    #[inline]
    pub fn commit(&mut self) -> Result<SyncOutcome, SyncError> {
        // Nothing staged: skip the merge scratch, whose initialization
        // would dominate. The empty outcome is still built and returned;
        // a cycle loop that wants to skip that as well asks
        // `has_staged` first.
        if !self.has_staged() {
            return Ok(SyncOutcome::default());
        }
        self.commit_staged()
    }

    /// Whether any sync op, `SLEEP` request or interrupt was staged since
    /// the last [`Synchronizer::commit`]. When it is false, a commit
    /// changes nothing and returns an empty [`SyncOutcome`].
    #[inline]
    pub fn has_staged(&self) -> bool {
        !self.staged_ops.is_empty() || !self.staged_sleeps.is_empty() || self.staged_irqs != 0
    }

    fn commit_staged(&mut self) -> Result<SyncOutcome, SyncError> {
        let ops = std::mem::take(&mut self.staged_ops);
        let sleeps = std::mem::take(&mut self.staged_sleeps);
        let irqs = std::mem::take(&mut self.staged_irqs);

        let mut outcome = SyncOutcome::default();
        let result = self.apply(ops, sleeps, irqs, &mut outcome);
        result.map(|()| outcome)
    }

    fn apply(
        &mut self,
        ops: Vec<(CoreId, SyncKind, u16)>,
        sleeps: CoreSet,
        irqs: u16,
        outcome: &mut SyncOutcome,
    ) -> Result<(), SyncError> {
        // 1. Merge and apply point updates: one write per touched point.
        let mut touched: Vec<u16> = Vec::new();
        let mut flag_sets = [CoreSet::empty(); 64];
        let mut deltas = [0i32; 64];
        let mut counts = [0u32; 64];
        let mut incs = [false; 64];
        // Points are few (tens); a linear scratch keyed by first-touch
        // order keeps this allocation-free for the common sizes.
        for (core, kind, point) in &ops {
            let slot = match touched.iter().position(|p| p == point) {
                Some(i) => i,
                None => {
                    touched.push(*point);
                    touched.len() - 1
                }
            };
            assert!(
                slot < 64,
                "more than 64 distinct points touched in one cycle"
            );
            match kind {
                SyncKind::Inc => {
                    flag_sets[slot].insert(*core);
                    deltas[slot] += 1;
                    incs[slot] = true;
                }
                SyncKind::Dec => deltas[slot] -= 1,
                SyncKind::Nop => flag_sets[slot].insert(*core),
            }
            counts[slot] += 1;
            self.stats.ops += 1;
        }

        let mut woken = CoreSet::empty();
        for (slot, &point) in touched.iter().enumerate() {
            let state = &mut self.points[point as usize];
            state.value = match state.value.apply_merged(flag_sets[slot], deltas[slot]) {
                Ok(value) => value,
                Err(e) => {
                    self.stats.invariant_faults += 1;
                    return Err(e);
                }
            };
            // Arm on SINC *presence*, not on positive net delta: a
            // same-cycle SINC/SDEC pair netting zero still means "a
            // SINC touched the point since the last fire", and the
            // merged release must fire exactly like the serial one.
            if incs[slot] {
                state.armed = true;
            }
            self.stats.writes += 1;
            self.stats.merged += (counts[slot] - 1) as u64;
            outcome.memory_writes += 1;
            outcome.touched.push(PointTouch {
                point,
                flagged: flag_sets[slot],
                requests: counts[slot].min(u8::MAX as u32) as u8,
                armed: incs[slot],
            });

            // Lost-wake detection: the counter hit zero on a decrement
            // while the point is armed but nobody is flagged — the
            // release happened with no registered consumer to wake.
            if state.armed
                && deltas[slot] < 0
                && state.value.counter() == 0
                && state.value.flags().is_empty()
            {
                self.stats.lost_wakes += 1;
            }

            // 2. Fire evaluation for this point.
            if state.armed && state.value.is_release_ready() {
                woken = woken.union(state.value.flags());
                outcome.fired_points.push(point);
                outcome.fired_wakes.push(state.value.flags());
                self.stats.fires += 1;
                let (reload, flags) = state.reload.unwrap_or((0, CoreSet::empty()));
                state.value = SyncPointValue::with(flags, reload);
                state.armed = state.reload.is_some();
            }
        }

        // 3. Interrupt forwarding.
        if irqs != 0 {
            for core in CoreId::first(self.num_cores) {
                if self.subscriptions[core.index()] & irqs != 0 {
                    woken.insert(core);
                    self.stats.irq_wakes += 1;
                }
            }
        }

        // Deliver wakes: gated cores resume, awake cores latch a pending
        // wake.
        for core in woken.iter() {
            if self.gated.contains(core) {
                self.gated.remove(core);
                outcome.woken.insert(core);
            } else {
                self.pending.insert(core);
            }
        }

        // 4. SLEEP processing (after wake delivery).
        for core in sleeps.iter() {
            if self.pending.contains(core) {
                self.pending.remove(core);
                outcome.fell_through.insert(core);
                self.stats.fallthroughs += 1;
            } else {
                self.gated.insert(core);
                outcome.slept.insert(core);
                self.stats.sleeps += 1;
            }
        }
        Ok(())
    }

    fn check_core(&self, core: CoreId) -> Result<(), SyncError> {
        if core.index() >= self.num_cores {
            return Err(SyncError::CoreOutOfRange {
                index: core.index(),
            });
        }
        Ok(())
    }

    fn point_mut(&mut self, point: u16) -> Result<&mut PointState, SyncError> {
        let points = self.points.len();
        self.points
            .get_mut(point as usize)
            .ok_or(SyncError::PointOutOfRange { point, points })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(i: usize) -> CoreId {
        CoreId::new(i).expect("test core in range")
    }

    fn sync(cores: usize, points: usize) -> Synchronizer {
        Synchronizer::new(cores, points).expect("valid configuration")
    }

    #[test]
    fn producer_consumer_wakeup() {
        let mut s = sync(8, 2);
        // Consumer registers and sleeps.
        s.submit_op(core(4), SyncKind::Nop, 0).unwrap();
        s.commit().unwrap();
        s.request_sleep(core(4));
        let o = s.commit().unwrap();
        assert!(o.slept.contains(core(4)));
        assert!(s.is_gated(core(4)));

        // Producers register, then complete.
        for i in 0..3 {
            s.submit_op(core(i), SyncKind::Inc, 0).unwrap();
        }
        let o = s.commit().unwrap();
        assert!(o.fired_points.is_empty());
        for i in 0..3 {
            s.submit_op(core(i), SyncKind::Dec, 0).unwrap();
        }
        let o = s.commit().unwrap();
        assert_eq!(o.fired_points, vec![0]);
        assert!(o.woken.contains(core(4)));
        assert!(!s.is_gated(core(4)));
        // Point cleared and disarmed after fire.
        assert_eq!(s.point_value(0).unwrap(), SyncPointValue::cleared());
    }

    #[test]
    fn same_cycle_requests_are_merged_into_one_write() {
        let mut s = sync(8, 1);
        for i in 0..3 {
            s.submit_op(core(i), SyncKind::Inc, 0).unwrap();
        }
        s.submit_op(core(4), SyncKind::Nop, 0).unwrap();
        let o = s.commit().unwrap();
        assert_eq!(o.memory_writes, 1);
        assert_eq!(s.stats().ops, 4);
        assert_eq!(s.stats().merged, 3);
        let v = s.point_value(0).unwrap();
        assert_eq!(v.counter(), 3);
        assert_eq!(v.flags().bits(), 0b0001_0111);
    }

    #[test]
    fn lockstep_branch_recovery() {
        // Fig. 3-b: three cores SINC before a data-dependent branch and
        // SDEC + SLEEP as they finish; the last one releases everyone.
        let mut s = sync(4, 1);
        for i in 0..3 {
            s.submit_op(core(i), SyncKind::Inc, 0).unwrap();
        }
        s.commit().unwrap();

        // Core 0 finishes first, then core 2, then core 1.
        for &i in &[0usize, 2] {
            s.submit_op(core(i), SyncKind::Dec, 0).unwrap();
            s.commit().unwrap();
            s.request_sleep(core(i));
            s.commit().unwrap();
            assert!(s.is_gated(core(i)));
        }
        s.submit_op(core(1), SyncKind::Dec, 0).unwrap();
        let o = s.commit().unwrap();
        // Cores 0 and 2 resume; core 1 (awake) gets a pending wake.
        assert!(o.woken.contains(core(0)));
        assert!(o.woken.contains(core(2)));
        assert!(!o.woken.contains(core(1)));
        // Core 1's subsequent SLEEP falls through, keeping lock-step.
        s.request_sleep(core(1));
        let o = s.commit().unwrap();
        assert!(o.fell_through.contains(core(1)));
        assert!(!s.is_gated(core(1)));
    }

    #[test]
    fn late_consumer_snop_fires_immediately() {
        // Producers already produced (armed point back at zero) before
        // the consumer registers: the SNOP must fire at once.
        let mut s = sync(8, 1);
        s.submit_op(core(0), SyncKind::Inc, 0).unwrap();
        s.commit().unwrap();
        s.submit_op(core(0), SyncKind::Dec, 0).unwrap();
        let o = s.commit().unwrap();
        // Nobody flagged except the producer itself — fires and wakes it
        // as a pending latch; that is the paper's "resume all registered
        // cores" with only the producer registered.
        assert_eq!(o.fired_points, vec![0]);

        // Now a fresh epoch where the producer finishes before the
        // consumer even registers.
        s.submit_op(core(0), SyncKind::Inc, 0).unwrap();
        s.commit().unwrap();
        s.submit_op(core(0), SyncKind::Dec, 0).unwrap();
        s.commit().unwrap();
        s.submit_op(core(4), SyncKind::Nop, 0).unwrap();
        let o = s.commit().unwrap();
        // Point disarmed by the earlier fire, so the SNOP alone must not
        // fire — the consumer will sleep and wait for the next SINC.
        assert!(o.fired_points.is_empty());
    }

    #[test]
    fn unarmed_point_never_fires_on_snop() {
        let mut s = sync(8, 1);
        s.submit_op(core(2), SyncKind::Nop, 0).unwrap();
        let o = s.commit().unwrap();
        assert!(o.fired_points.is_empty());
        s.request_sleep(core(2));
        s.commit().unwrap();
        assert!(s.is_gated(core(2)));
    }

    #[test]
    fn preloaded_auto_reload_barrier() {
        let mut s = sync(4, 1);
        s.preload(0, 2, true).unwrap();
        for round in 0..3 {
            s.submit_op(core(0), SyncKind::Nop, 0).unwrap();
            s.submit_op(core(1), SyncKind::Nop, 0).unwrap();
            s.commit().unwrap();
            s.submit_op(core(0), SyncKind::Dec, 0).unwrap();
            s.commit().unwrap();
            s.submit_op(core(1), SyncKind::Dec, 0).unwrap();
            let o = s.commit().unwrap();
            assert_eq!(o.fired_points, vec![0], "round {round}");
            assert_eq!(s.point_value(0).unwrap().counter(), 2, "auto reloaded");
        }
    }

    #[test]
    fn preloaded_barrier_needs_only_sdec() {
        let mut s = sync(4, 1);
        let participants: CoreSet = [core(0), core(1), core(2)].into_iter().collect();
        s.preload_barrier(0, 3, participants).unwrap();
        for round in 0..3 {
            // Cores 0 and 1 arrive and sleep.
            for i in 0..2 {
                s.submit_op(core(i), SyncKind::Dec, 0).unwrap();
                s.commit().unwrap();
                s.request_sleep(core(i));
                s.commit().unwrap();
            }
            // The last arrival releases everyone.
            s.submit_op(core(2), SyncKind::Dec, 0).unwrap();
            let o = s.commit().unwrap();
            assert_eq!(o.fired_points, vec![0], "round {round}");
            assert!(o.woken.contains(core(0)));
            assert!(o.woken.contains(core(1)));
            // Counter and participants reloaded.
            let v = s.point_value(0).unwrap();
            assert_eq!(v.counter(), 3);
            assert_eq!(v.flags(), participants);
            // Core 2's own sleep falls through on the pending wake.
            s.request_sleep(core(2));
            let o = s.commit().unwrap();
            assert!(o.fell_through.contains(core(2)));
        }
    }

    #[test]
    fn interrupt_subscription_and_forwarding() {
        let mut s = sync(2, 1);
        s.subscribe(core(1), 0b01).unwrap();
        s.request_sleep(core(1));
        s.commit().unwrap();
        assert!(s.is_gated(core(1)));

        // Unrelated source does not wake it.
        s.raise_irq(1);
        let o = s.commit().unwrap();
        assert!(o.woken.is_empty());
        assert!(s.is_gated(core(1)));

        // Subscribed source does.
        s.raise_irq(0);
        let o = s.commit().unwrap();
        assert!(o.woken.contains(core(1)));
        assert_eq!(s.stats().irq_wakes, 1);
    }

    #[test]
    fn irq_while_awake_sets_pending() {
        let mut s = sync(1, 1);
        s.subscribe(core(0), 1).unwrap();
        s.raise_irq(0);
        s.commit().unwrap();
        s.request_sleep(core(0));
        let o = s.commit().unwrap();
        assert!(o.fell_through.contains(core(0)));
        assert!(!s.is_gated(core(0)));
    }

    #[test]
    fn merged_net_zero_delta_is_consistent() {
        let mut s = sync(8, 1);
        s.preload(0, 0, false).unwrap();
        // Simultaneous SINC and SDEC net to zero — legal as one merged
        // modification even though serial SDEC-first would underflow.
        s.submit_op(core(0), SyncKind::Inc, 0).unwrap();
        s.submit_op(core(1), SyncKind::Dec, 0).unwrap();
        let o = s.commit().unwrap();
        assert_eq!(o.memory_writes, 1);
        assert_eq!(o.fired_points, vec![0]);
    }

    #[test]
    fn merged_update_is_atomic_at_the_synchronizer() {
        // The synchronizer-level counterpart of
        // `sync_point::tests::merged_update_is_atomic`: submission order
        // must not matter, because `apply` accumulates the cycle's net
        // delta before touching the point. Submit every SDEC *before*
        // the SINCs on a zero counter — a serial SDEC-first ordering
        // would underflow, the merged modification must not.
        let mut s = sync(8, 1);
        s.submit_op(core(3), SyncKind::Dec, 0).unwrap();
        s.submit_op(core(4), SyncKind::Dec, 0).unwrap();
        s.submit_op(core(0), SyncKind::Inc, 0).unwrap();
        s.submit_op(core(1), SyncKind::Inc, 0).unwrap();
        let o = s.commit().unwrap();
        assert_eq!(o.memory_writes, 1, "one consistent modification");
        assert_eq!(s.stats().invariant_faults, 0, "no transient underflow");
        // The merged net-zero release fires exactly like the serial
        // SINC-first ordering would: the SINC arms the point, the zero
        // counter releases, and the fire clears the word.
        assert_eq!(o.fired_points, vec![0], "net zero fires the point");
        assert_eq!(s.point_value(0).unwrap(), SyncPointValue::cleared());
    }

    #[test]
    fn underflow_is_a_protocol_violation() {
        let mut s = sync(2, 1);
        s.submit_op(core(0), SyncKind::Dec, 0).unwrap();
        assert_eq!(s.commit(), Err(SyncError::CounterUnderflow));
    }

    #[test]
    fn bad_configuration_rejected() {
        assert!(Synchronizer::new(0, 1).is_err());
        assert!(Synchronizer::new(9, 1).is_err());
        let mut s = sync(2, 2);
        assert!(s.submit_op(core(3), SyncKind::Inc, 0).is_err());
        assert!(s.submit_op(core(0), SyncKind::Inc, 2).is_err());
        assert!(s.preload(5, 1, false).is_err());
        assert!(s.point_value(9).is_err());
        assert!(s.subscribe(core(3), 1).is_err());
    }

    #[test]
    fn stats_display_mentions_every_counter() {
        let stats = SyncStats {
            ops: 1,
            writes: 2,
            merged: 3,
            fires: 4,
            sleeps: 5,
            fallthroughs: 6,
            irq_wakes: 7,
            lost_wakes: 8,
            invariant_faults: 9,
        };
        let text = stats.to_string();
        let needles = [
            "1 ops",
            "2 writes",
            "3 merged",
            "4 fires",
            "5 sleeps",
            "6 fall",
            "7 irq",
            "8 lost",
            "9 invariant",
        ];
        for needle in needles {
            assert!(text.contains(needle), "missing {needle} in `{text}`");
        }
    }

    #[test]
    fn release_with_no_registered_core_counts_a_lost_wake() {
        // Preloaded point decremented to zero before anyone registers:
        // the release event wakes nobody.
        let mut s = sync(2, 1);
        s.preload(0, 1, false).unwrap();
        s.submit_op(core(0), SyncKind::Dec, 0).unwrap();
        let o = s.commit().unwrap();
        assert!(o.fired_points.is_empty(), "no flags, nothing to fire");
        assert_eq!(s.stats().lost_wakes, 1);

        // The ordinary producer/consumer flow never loses wakes.
        let mut s = sync(2, 1);
        s.submit_op(core(1), SyncKind::Nop, 0).unwrap();
        s.submit_op(core(0), SyncKind::Inc, 0).unwrap();
        s.commit().unwrap();
        s.submit_op(core(0), SyncKind::Dec, 0).unwrap();
        let o = s.commit().unwrap();
        assert_eq!(o.fired_points, vec![0]);
        assert_eq!(s.stats().lost_wakes, 0);
    }

    #[test]
    fn invariant_faults_are_counted() {
        let mut s = sync(2, 1);
        assert_eq!(s.stats().invariant_faults, 0);
        s.submit_op(core(0), SyncKind::Dec, 0).unwrap();
        assert_eq!(s.commit(), Err(SyncError::CounterUnderflow));
        assert_eq!(s.stats().invariant_faults, 1);
    }

    #[test]
    fn point_armed_tracks_arming_and_fires() {
        let mut s = sync(2, 1);
        assert!(!s.point_armed(0).unwrap());
        s.submit_op(core(0), SyncKind::Inc, 0).unwrap();
        s.commit().unwrap();
        assert!(s.point_armed(0).unwrap());
        s.submit_op(core(0), SyncKind::Dec, 0).unwrap();
        s.commit().unwrap();
        assert!(!s.point_armed(0).unwrap(), "disarmed by the fire");
        assert!(s.point_armed(5).is_err());
    }

    #[test]
    fn distinct_points_in_one_cycle_write_separately() {
        let mut s = sync(4, 3);
        s.submit_op(core(0), SyncKind::Inc, 0).unwrap();
        s.submit_op(core(1), SyncKind::Inc, 2).unwrap();
        let o = s.commit().unwrap();
        assert_eq!(o.memory_writes, 2);
        assert_eq!(s.stats().merged, 0);
    }
}
