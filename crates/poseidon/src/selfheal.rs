//! Online self-healing: live media-fault quarantine and allocation
//! failover.
//!
//! PR 2's fault model degrades gracefully at *load* time; this module is
//! the serving-time half. When an operation trips
//! [`PmemError::Uncorrectable`](pmem::PmemError) mid-flight, the undo
//! scope that was open rolls the operation back (its `Drop` already
//! guarantees that), and the error surfaces here, where the damaged unit
//! is quarantined **live** at the right granularity:
//!
//! * **metadata poison** → the whole sub-heap is condemned: its volatile
//!   flag flips first (routing skips it immediately), its transient cache
//!   state is invalidated in DRAM (magazines, transfer pools, residency
//!   bytes — nothing touches the damaged media), and the verdict is made
//!   persistent by flipping the sub-heap's directory entry to
//!   [`superblock::DIR_QUARANTINED`] under the superblock undo log's
//!   two-fence commit. Every future load honours the entry without
//!   touching the region.
//! * **user-data poison** → only the free blocks overlapping the poison
//!   are moved to the persistent `QUARANTINED` record state (the same
//!   block-granularity machinery recovery uses).
//! * **huge region** → extent-granularity for data poison, wholesale
//!   (volatile flag; the poison itself is the persistent record) for
//!   extent-table poison.
//!
//! Allocations then **fail over**: the alloc paths retry on the next
//! healthy sub-heap, bounded by the sub-heap count, and return the typed
//! [`PoseidonError::AllFailed`] only when every sub-heap is condemned.
//! Frees and pinned transactions cannot fail over (the caller holds a
//! pointer into the damaged unit) and return the attributed error.
//!
//! Latent poison in cold structures is found by the scrub half of the
//! background engine ([`crate::maintenance`]): each unit visit checks the
//! unit's free lists and extent table against the device's poison list
//! and promotes what it finds through the quarantine paths here,
//! *before* a user thread trips on it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use pmem::PoisonRange;

use crate::error::{OpKind, PoseidonError, Result};
use crate::heap::PoseidonHeap;
use crate::hugeregion;
use crate::layout::HeapLayout;
use crate::quarantine;
use crate::superblock;

/// Which layout unit a device offset falls in — the quarantine
/// granularity decision for a live media fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultUnit {
    /// The superblock region (header, directory, superblock undo log).
    Superblock,
    /// Sub-heap `sub`'s metadata region (header, lists, logs, table).
    SubMeta(u16),
    /// Sub-heap `sub`'s user-data region.
    SubUser(u16),
    /// The huge region's metadata (header, undo log, extent table).
    HugeMeta,
    /// The huge region's data pages.
    HugeData,
    /// Outside every region (never expected from a live operation).
    Unknown,
}

/// Maps a device offset to the layout unit containing it (epoch-aware:
/// delegates to the layout's region classifier).
pub(crate) fn fault_unit(layout: &HeapLayout, offset: u64) -> FaultUnit {
    match layout.locate(offset) {
        crate::layout::Region::Superblock => FaultUnit::Superblock,
        crate::layout::Region::SubMeta(sub) => FaultUnit::SubMeta(sub),
        crate::layout::Region::SubUser(sub) => FaultUnit::SubUser(sub),
        crate::layout::Region::HugeMeta => FaultUnit::HugeMeta,
        crate::layout::Region::HugeData { .. } => FaultUnit::HugeData,
        crate::layout::Region::Unused => FaultUnit::Unknown,
    }
}

/// Volatile self-healing counters of one heap (reset on open).
#[derive(Debug, Default)]
pub(crate) struct HealthCounters {
    pub(crate) media_errors_alloc: AtomicU64,
    pub(crate) media_errors_free: AtomicU64,
    pub(crate) media_errors_tx: AtomicU64,
    pub(crate) media_errors_scrub: AtomicU64,
    pub(crate) failovers: AtomicU64,
    pub(crate) subheaps_condemned: AtomicU64,
    pub(crate) blocks_quarantined: AtomicU64,
    pub(crate) extents_quarantined: AtomicU64,
    pub(crate) cache_blocks_invalidated: AtomicU64,
    // The background engine (see [`crate::maintenance`]): its cursor
    // over the unit partition, plus the cached trigger inputs the
    // fragmentation walk refreshes.
    pub(crate) maint_steps: AtomicU64,
    pub(crate) maint_passes: AtomicU64,
    pub(crate) maint_cursor: AtomicU64,
    pub(crate) maint_merges: AtomicU64,
    pub(crate) maint_levels_shrunk: AtomicU64,
    pub(crate) maint_blocks_trimmed: AtomicU64,
    /// NoSpace/TooLarge pressure feedback — the alloc paths set it, a
    /// fully-defragged maintenance pass clears it.
    pub(crate) maint_pressure: AtomicBool,
    /// Largest free huge extent from the last huge scan; meaningless
    /// until `maint_huge_sampled` is set.
    pub(crate) huge_largest_free: AtomicU64,
    pub(crate) maint_huge_sampled: AtomicBool,
    /// Fragmented / total free bytes from the last fragmentation walk
    /// (the watermark inputs for [`PoseidonHeap::maint_needed`]).
    pub(crate) maint_frag_bytes: AtomicU64,
    pub(crate) maint_free_bytes: AtomicU64,
}

impl HealthCounters {
    fn media_counter(&self, during: OpKind) -> &AtomicU64 {
        match during {
            OpKind::Free => &self.media_errors_free,
            OpKind::Tx => &self.media_errors_tx,
            OpKind::Scrub => &self.media_errors_scrub,
            _ => &self.media_errors_alloc,
        }
    }
}

/// A heap's health report: what the self-healing layer has quarantined,
/// how far the background engine has come, and the media-error counters — the
/// serving-time counterpart of [`RecoveryReport`](crate::RecoveryReport).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapHealth {
    /// Sub-heaps currently quarantined (load-time plus live).
    pub quarantined_subheaps: u32,
    /// Whether the huge region is currently quarantined wholesale.
    pub huge_region_quarantined: bool,
    /// Cache lines the device currently reports as poisoned.
    pub poisoned_lines: u64,
    /// Mid-operation media errors hit on allocation paths this session.
    pub media_errors_during_alloc: u64,
    /// Mid-operation media errors hit on free paths this session.
    pub media_errors_during_free: u64,
    /// Mid-operation media errors hit on transaction paths this session.
    pub media_errors_during_tx: u64,
    /// Media errors the engine's scrub half hit (or damage it promoted)
    /// proactively.
    pub media_errors_during_scrub: u64,
    /// Allocations that transparently retried on another sub-heap after a
    /// live media fault.
    pub failovers: u64,
    /// Sub-heaps condemned live (persistently, via their directory entry).
    pub subheaps_condemned_live: u64,
    /// Blocks moved to the `QUARANTINED` record state live.
    pub blocks_quarantined_live: u64,
    /// Huge extents moved to the `QUARANTINED` state live.
    pub extents_quarantined_live: u64,
    /// Cached blocks invalidated in DRAM when their sub-heap was
    /// condemned (magazine rounds, pool slots, residency bytes).
    pub cache_blocks_invalidated: u64,
    /// Completed engine steps ([`maint_step`](PoseidonHeap::maint_step)
    /// calls and [`maint_tick`](PoseidonHeap::maint_tick)s that ran).
    pub maint_steps: u64,
    /// Completed full engine passes over every unit (sub-heaps + huge
    /// region).
    pub maint_passes: u64,
    /// Buddy merges committed by the maintenance engine this session.
    pub maint_merges: u64,
    /// Hash-table levels retired by the maintenance engine this session.
    pub maint_table_levels_shrunk: u64,
    /// Cold cached blocks handed back to the free lists by maintenance
    /// trim units this session.
    pub maint_blocks_trimmed: u64,
}

impl HeapHealth {
    /// Total mid-operation media errors across every path.
    pub fn live_media_errors(&self) -> u64 {
        self.media_errors_during_alloc
            + self.media_errors_during_free
            + self.media_errors_during_tx
            + self.media_errors_during_scrub
    }

    /// Whether the self-healing layer has quarantined anything live.
    pub fn damage_contained(&self) -> bool {
        self.subheaps_condemned_live > 0
            || self.blocks_quarantined_live > 0
            || self.extents_quarantined_live > 0
    }
}

impl PoseidonHeap {
    /// Condemns sub-heap `sub` after a live media fault: volatile flag
    /// first (routing and the cache frontend skip it from this instant),
    /// then DRAM cache invalidation, then the persistent directory flip
    /// under the superblock undo log's two-fence commit. Idempotent;
    /// returns whether this call was the one that condemned it.
    pub(crate) fn condemn_subheap(&self, sub: u16) -> Result<bool> {
        if self.slots[sub as usize].quarantined.swap(true, Ordering::AcqRel) {
            return Ok(false);
        }
        // DRAM only: the damaged sub-heap's media is never touched. Any
        // block the cache held for it is dropped from circulation here;
        // the media records stay FREE+FLAG_CACHED and `pfsck --repair`
        // reconciles them with everything else.
        if let Some(cache) = self.cache() {
            let invalidated = cache.condemn(sub);
            self.health.cache_blocks_invalidated.fetch_add(invalidated as u64, Ordering::Relaxed);
        }
        self.health.subheaps_condemned.fetch_add(1, Ordering::Relaxed);
        // Persist the verdict. Best-effort by design: if the superblock
        // region is itself damaged this returns the error, but the
        // volatile flag above already isolates the sub-heap for this
        // session, and the metadata poison re-quarantines it on reload.
        superblock::quarantine_subheap(&self.begin_sb(self.sb_lock.lock())?, sub)?;
        Ok(true)
    }

    /// Quarantines every free block of `sub` whose user bytes overlap
    /// the `poison` snapshot (block granularity, persistent records).
    ///
    /// The sub-heap's transient cache is drained back to the free lists
    /// first, under the same transaction, so a poisoned block sitting in a
    /// magazine or transfer pool becomes a plain `FREE` record the
    /// isolation walk can withdraw — the lock held across both steps
    /// means no refill can re-withdraw it in between. Blocks checked out
    /// to the application stay out (the caller owns them; their poison
    /// surfaces as a typed read error, and a later scrub pass catches
    /// them once they come back).
    pub(crate) fn quarantine_poisoned_blocks_on(
        &self,
        sub: u16,
        poison: &[PoisonRange],
    ) -> Result<(u64, u64)> {
        if !self.sub_usable(sub) || poison.is_empty() {
            return Ok((0, 0));
        }
        let op = self.begin_op(sub)?;
        let mut drained_quarantined = 0u64;
        if let Some(cache) = self.cache() {
            let victims = cache.evict_resident(sub);
            if !victims.is_empty() {
                drained_quarantined = crate::subheap::drain_blocks(&op, &victims)?;
                cache.clear(sub, &victims);
            }
        }
        let (blocks, bytes) = quarantine::isolate_poisoned_free_blocks(&op, poison)?;
        drop(op);
        self.health.blocks_quarantined.fetch_add(blocks + drained_quarantined, Ordering::Relaxed);
        Ok((blocks + drained_quarantined, bytes))
    }

    /// Quarantines every free huge extent overlapping the `poison`
    /// snapshot's data pages.
    pub(crate) fn quarantine_poisoned_extents(&self, poison: &[PoisonRange]) -> Result<(u64, u64)> {
        let op = self.begin_huge()?;
        let (extents, bytes) = hugeregion::quarantine_poisoned(&op, poison)?;
        drop(op);
        self.health.extents_quarantined.fetch_add(extents, Ordering::Relaxed);
        Ok((extents, bytes))
    }

    /// The live self-healing dispatcher: given an error that just aborted
    /// an operation (the undo scope already rolled it back), quarantine
    /// the damaged unit at the right granularity and report whether the
    /// caller may retry on healthy capacity. Non-media errors pass
    /// through untouched (`retryable = false`).
    pub(crate) fn heal_media_error(&self, e: PoseidonError, during: OpKind) -> (PoseidonError, bool) {
        let PoseidonError::MediaError { offset, .. } = e else { return (e, false) };
        self.health.media_counter(during).fetch_add(1, Ordering::Relaxed);
        let attributed = e.attribute(during);
        match fault_unit(&self.layout, offset) {
            FaultUnit::SubMeta(sub) if sub < self.layout.num_subheaps() => {
                // Whole-sub-heap condemnation; a persist failure still
                // leaves the volatile flag set, so retrying is safe.
                let _ = self.condemn_subheap(sub);
                (attributed, true)
            }
            FaultUnit::SubUser(sub) if sub < self.layout.num_subheaps() => {
                if !self.sub_usable(sub) {
                    // A racing condemnation (or an uncreated sub-heap):
                    // nothing to withdraw, and routing already skips it —
                    // retrying on healthy capacity is safe.
                    return (attributed, true);
                }
                // Data poison: block-granularity quarantine. Retry only
                // if something was actually withdrawn — otherwise the
                // poison sits under a live allocation and retrying the
                // same operation would loop on the same line.
                match self.quarantine_poisoned_blocks_on(sub, &self.dev.scrub()) {
                    Ok((blocks, _)) => (attributed, blocks > 0),
                    Err(_) => {
                        let _ = self.condemn_subheap(sub);
                        (attributed, true)
                    }
                }
            }
            FaultUnit::HugeMeta => {
                // The poison in the extent table is itself the persistent
                // record: every future load re-quarantines from the scrub
                // list, exactly like load-time recovery does.
                self.huge_quarantined.store(true, Ordering::Release);
                (attributed, false)
            }
            FaultUnit::HugeData => match self.quarantine_poisoned_extents(&self.dev.scrub()) {
                Ok((extents, _)) => (attributed, extents > 0),
                Err(_) => {
                    self.huge_quarantined.store(true, Ordering::Release);
                    (attributed, false)
                }
            },
            _ => (attributed, false),
        }
    }

    /// The heap's current health: quarantine census, live media-error
    /// counters, and engine progress. Cheap (atomic loads plus the
    /// device's poison-line count); safe to poll from a serving loop.
    pub fn health(&self) -> HeapHealth {
        let c = &self.health;
        HeapHealth {
            quarantined_subheaps: self.quarantined_subheaps().len() as u32,
            huge_region_quarantined: self.huge_quarantined.load(Ordering::Acquire),
            poisoned_lines: self.dev.poisoned_lines(),
            media_errors_during_alloc: c.media_errors_alloc.load(Ordering::Relaxed),
            media_errors_during_free: c.media_errors_free.load(Ordering::Relaxed),
            media_errors_during_tx: c.media_errors_tx.load(Ordering::Relaxed),
            media_errors_during_scrub: c.media_errors_scrub.load(Ordering::Relaxed),
            failovers: c.failovers.load(Ordering::Relaxed),
            subheaps_condemned_live: c.subheaps_condemned.load(Ordering::Relaxed),
            blocks_quarantined_live: c.blocks_quarantined.load(Ordering::Relaxed),
            extents_quarantined_live: c.extents_quarantined.load(Ordering::Relaxed),
            cache_blocks_invalidated: c.cache_blocks_invalidated.load(Ordering::Relaxed),
            maint_steps: c.maint_steps.load(Ordering::Relaxed),
            maint_passes: c.maint_passes.load(Ordering::Relaxed),
            maint_merges: c.maint_merges.load(Ordering::Relaxed),
            maint_table_levels_shrunk: c.maint_levels_shrunk.load(Ordering::Relaxed),
            maint_blocks_trimmed: c.maint_blocks_trimmed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_units_partition_the_device() {
        let layout = HeapLayout::compute(256 << 20, 4).unwrap();
        assert_eq!(fault_unit(&layout, 0), FaultUnit::Superblock);
        assert_eq!(fault_unit(&layout, layout.meta_base(0)), FaultUnit::SubMeta(0));
        assert_eq!(fault_unit(&layout, layout.meta_base(3) + 0x100), FaultUnit::SubMeta(3));
        assert_eq!(fault_unit(&layout, layout.huge_meta_base()), FaultUnit::HugeMeta);
        assert_eq!(fault_unit(&layout, layout.user_base(0)), FaultUnit::SubUser(0));
        assert_eq!(fault_unit(&layout, layout.user_base(2) + 64), FaultUnit::SubUser(2));
        let huge_base = layout.huge_phys_of(0, 1).unwrap();
        assert_eq!(fault_unit(&layout, huge_base), FaultUnit::HugeData);
        assert_eq!(fault_unit(&layout, huge_base + layout.huge_data_size()), FaultUnit::Unknown);
    }

    #[test]
    fn fault_units_without_a_huge_region() {
        let layout = HeapLayout::compute(8 << 20, 1).unwrap();
        assert_eq!(layout.huge_data_size(), 0);
        assert_eq!(fault_unit(&layout, layout.meta_base(0)), FaultUnit::SubMeta(0));
        assert_eq!(fault_unit(&layout, layout.user_base(0)), FaultUnit::SubUser(0));
        assert_eq!(fault_unit(&layout, layout.capacity()), FaultUnit::Unknown);
    }
}
