//! Metadata transactions: one type, three areas.
//!
//! Every mutation of allocator metadata runs inside a [`MetaTx`], which
//! bundles everything one operation needs on one *area* —
//!
//! * the area context `C` (geometry: [`SubCtx`], [`HugeCtx`] or
//!   [`SbCtx`]) and the area's undo-log location,
//! * a [`MetaView`] over the area's metadata, validated **once** at
//!   construction ([`pmem::PmemDevice::map_meta`]: bounds, MPK, poison),
//! * the staged-write overlay of the open [`UndoScope`] (reads through
//!   the transaction observe the operation's own not-yet-issued stores —
//!   see `undo`'s module docs),
//! * and, when built by a lock holder, the area's lock guard and the
//!   PKRU write guard.
//!
//! The three areas, each with its own lock, log and view:
//!
//! | Area | Alias | View | Lock | Constructors |
//! |---|---|---|---|---|
//! | sub-heap | [`SubTx`] | the sub-heap's metadata | sub-heap lock | `guarded`, `unguarded`, `read_only` |
//! | huge region | [`HugeTx`] | the huge metadata (or a span from a sub-heap's) | huge lock | `guarded`, `spanning`, `unguarded`, `read_only` |
//! | superblock | [`SbTx`] | the superblock region | `sb_lock` | `guarded` only |
//!
//! All metadata word traffic flows through the view, whose accessors cost
//! a local bounds check (plus a relaxed poison probe on reads) instead of
//! the full per-call sequence. Crash semantics are unchanged: the view
//! still captures every pre-image into the crash model and counts every
//! mutation against armed crash/poison injection (see `pmem::view`).
//!
//! [`UndoScope`] is the one undo-log writer. It writes the on-device
//! format defined in `undo`, so an operation interrupted by a crash is
//! recovered by the ordinary device-backed [`undo::replay`] on the next
//! load. Dropping a scope without committing rolls back immediately, so
//! an early `?` return leaves the metadata untouched.
//!
//! **Who may re-drive a stale rollback.** A rollback that died mid-flight
//! (e.g. interrupted by a transient media fault) leaves its area's log
//! live. A transaction holding the area's lock can rule out a concurrent
//! scope, so [`MetaTx::undo`] re-drives the rollback before opening; a
//! transaction built without a lock guard cannot, and rejects the live
//! log as [`PoseidonError::Corrupted`]. The decision rests on whether a
//! guard was moved or lent into the transaction — no caller-supplied
//! flag — and the superblock area, whose log has no quarantine fallback,
//! can only be built from the `sb_lock` guard.

use std::cell::RefCell;

use mpk::PkruGuard;
use pmem::contention::TrackedGuard;
use pmem::{AccessKind, FlushBatch, MetaView, Pod};

use crate::error::{PoseidonError, Result};
use crate::layout::{HUGE_EXTENT_SLOTS, SB_REGION_SIZE};
use crate::persist::{ExtentRecord, HashEntry, HugeCtx, SbCtx, SubCtx};
use crate::superblock;
use crate::undo::{self, UndoArea, ENTRY_HEADER};

/// A transaction on one sub-heap.
pub(crate) type SubTx<'a> = MetaTx<'a, SubCtx<'a>>;
/// A transaction on the huge-object region.
pub(crate) type HugeTx<'a> = MetaTx<'a, HugeCtx<'a>>;
/// A transaction on the superblock.
pub(crate) type SbTx<'a> = MetaTx<'a, SbCtx<'a>>;

/// Target mutations staged in DRAM until commit: `(target, new bytes)`
/// in issue order.
type StagedWrites = Vec<(u64, Vec<u8>)>;

/// The area lock a guarded transaction holds.
#[derive(Debug)]
pub(crate) enum AreaLock<'a> {
    /// Moved in: released when the transaction drops.
    Owned { _guard: TrackedGuard<'a, ()> },
    /// Lent by a caller that keeps holding it past the transaction.
    Borrowed { _guard: &'a TrackedGuard<'a, ()> },
}

impl<'a> From<TrackedGuard<'a, ()>> for AreaLock<'a> {
    fn from(guard: TrackedGuard<'a, ()>) -> AreaLock<'a> {
        AreaLock::Owned { _guard: guard }
    }
}

impl<'a> From<&'a TrackedGuard<'a, ()>> for AreaLock<'a> {
    fn from(guard: &'a TrackedGuard<'a, ()>) -> AreaLock<'a> {
        AreaLock::Borrowed { _guard: guard }
    }
}

/// One operation's transaction on one metadata area. See the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct MetaTx<'a, C> {
    /// The area context (device, geometry, index). Rare non-word device
    /// operations (hole punching, NUMA placement, poison queries) go
    /// through `ctx.dev` directly and re-validate per call.
    pub(crate) ctx: C,
    area: UndoArea,
    view: MetaView<'a>,
    /// Target writes staged by the open [`UndoScope`] (empty outside a
    /// scope). Held here, not in the scope, so the read accessors can
    /// patch them over view reads.
    staged: RefCell<StagedWrites>,
    // Field order is drop order: the view flushes its stats deltas while
    // the area lock is still held, then the lock is released, then write
    // access to metadata is revoked.
    lock: Option<AreaLock<'a>>,
    _pkru: Option<PkruGuard<'a>>,
}

impl<'a, C> MetaTx<'a, C> {
    fn open(
        ctx: C,
        area: UndoArea,
        view: MetaView<'a>,
        lock: Option<AreaLock<'a>>,
        pkru: Option<PkruGuard<'a>>,
    ) -> MetaTx<'a, C> {
        MetaTx { ctx, area, view, staged: RefCell::new(Vec::new()), lock, _pkru: pkru }
    }

    /// The metadata view (accessors take absolute device offsets).
    ///
    /// Direct `view().read…` calls bypass the staged-write overlay; use
    /// the transaction's own read accessors for anything an open
    /// [`UndoScope`] may have written.
    pub fn view(&self) -> &MetaView<'a> {
        &self.view
    }

    /// Reads `buf.len()` bytes at `offset` through the view, patched
    /// with the open scope's staged writes.
    pub fn read(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.view.read(offset, buf)?;
        overlay_patch(&self.staged.borrow(), offset, buf);
        Ok(())
    }

    /// Reads a [`pmem::Pod`] value through the view (overlay-patched).
    pub fn read_pod<T: pmem::Pod>(&self, offset: u64) -> Result<T> {
        let mut value = T::zeroed();
        self.read(offset, value.as_bytes_mut())?;
        Ok(value)
    }

    /// Opens an undo scope on this area's log. A live log is re-driven
    /// first when the transaction holds the area lock, and rejected
    /// otherwise (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// [`PoseidonError::Corrupted`] if live entries are present and
    /// cannot be re-driven (recovery must run first), or a device error.
    pub fn undo(&self) -> Result<UndoScope<'_, 'a>> {
        UndoScope::begin(self)
    }
}

impl<'a> SubTx<'a> {
    fn map(
        ctx: SubCtx<'a>,
        kind: AccessKind,
        lock: Option<TrackedGuard<'a, ()>>,
        pkru: Option<PkruGuard<'a>>,
    ) -> Result<SubTx<'a>> {
        let view = ctx.dev.map_meta(ctx.meta_base(), ctx.layout.meta_size, kind)?;
        Ok(MetaTx::open(ctx, ctx.undo_area(), view, lock.map(AreaLock::from), pkru))
    }

    /// A write transaction owning the sub-heap lock guard and (when
    /// metadata protection is on) the PKRU write guard — the heap entry
    /// points' constructor.
    pub fn guarded(
        ctx: SubCtx<'a>,
        lock: TrackedGuard<'a, ()>,
        pkru: Option<PkruGuard<'a>>,
    ) -> Result<SubTx<'a>> {
        Self::map(ctx, AccessKind::Write, Some(lock), pkru)
    }

    /// A write transaction without guards, for callers that already hold
    /// them (sub-heap creation, recovery, repair) and for module tests.
    pub fn unguarded(ctx: SubCtx<'a>) -> Result<SubTx<'a>> {
        Self::map(ctx, AccessKind::Write, None, None)
    }

    /// A read-only transaction holding the sub-heap lock but no PKRU
    /// grant — metadata pages are readable under their resting
    /// `ReadOnly` rights, so lookups and audits never pay a `wrpkru` pair.
    pub fn read_only(ctx: SubCtx<'a>, lock: TrackedGuard<'a, ()>) -> Result<SubTx<'a>> {
        Self::map(ctx, AccessKind::Read, Some(lock), None)
    }

    /// Reads the block record at device offset `entry_off`.
    pub fn entry(&self, entry_off: u64) -> Result<HashEntry> {
        self.read_pod(entry_off)
    }

    /// Reads the number of active hash-table levels.
    pub fn active_levels(&self) -> Result<u64> {
        self.read_pod(self.ctx.active_levels_off())
    }
}

impl<'a> HugeTx<'a> {
    fn map(
        ctx: HugeCtx<'a>,
        view_base: u64,
        kind: AccessKind,
        lock: Option<TrackedGuard<'a, ()>>,
        pkru: Option<PkruGuard<'a>>,
    ) -> Result<HugeTx<'a>> {
        debug_assert!(ctx.layout.huge_data_size() > 0, "no huge region on this layout");
        let view = ctx.dev.map_meta(view_base, ctx.layout.meta_end() - view_base, kind)?;
        Ok(MetaTx::open(ctx, ctx.undo_area(), view, lock.map(AreaLock::from), pkru))
    }

    /// A write transaction owning the huge-region lock guard and (when
    /// metadata protection is on) the PKRU write guard.
    pub fn guarded(
        ctx: HugeCtx<'a>,
        lock: TrackedGuard<'a, ()>,
        pkru: Option<PkruGuard<'a>>,
    ) -> Result<HugeTx<'a>> {
        Self::map(ctx, ctx.meta_base(), AccessKind::Write, Some(lock), pkru)
    }

    /// A write transaction whose view *spans* from sub-heap `sub`'s
    /// metadata up to the end of the huge metadata — used by
    /// transactional huge allocation, which must log the extent writes
    /// and the sub-heap's micro-log append in **one** undo scope (the
    /// undo log stores absolute targets, so device-backed replay
    /// restores both regions).
    ///
    /// # Errors
    ///
    /// [`PoseidonError::MediaError`] if any metadata page in the span is
    /// poisoned — including an unrelated sub-heap's between `sub` and the
    /// huge metadata. Transactional huge allocation degrades in that
    /// (already-quarantined) situation; plain huge allocation does not.
    pub fn spanning(
        ctx: HugeCtx<'a>,
        sub: u16,
        lock: TrackedGuard<'a, ()>,
        pkru: Option<PkruGuard<'a>>,
    ) -> Result<HugeTx<'a>> {
        Self::map(ctx, ctx.layout.meta_base(sub), AccessKind::Write, Some(lock), pkru)
    }

    /// A write transaction without guards, for callers that already hold
    /// them (formatting, recovery) and for module tests.
    pub fn unguarded(ctx: HugeCtx<'a>) -> Result<HugeTx<'a>> {
        Self::map(ctx, ctx.meta_base(), AccessKind::Write, None, None)
    }

    /// A read-only transaction holding the huge-region lock but no PKRU
    /// grant (metadata pages rest readable).
    pub fn read_only(ctx: HugeCtx<'a>, lock: TrackedGuard<'a, ()>) -> Result<HugeTx<'a>> {
        Self::map(ctx, ctx.meta_base(), AccessKind::Read, Some(lock), None)
    }

    /// Reads the whole extent table in one overlay-patched view read.
    /// Scans iterate this snapshot instead of reading slot by slot; a
    /// scan that stores must take it before its first store.
    pub fn slots(&self) -> Result<Box<[ExtentRecord; HUGE_EXTENT_SLOTS]>> {
        let mut table = Box::new([ExtentRecord::zeroed(); HUGE_EXTENT_SLOTS]);
        self.read(self.ctx.slot_off(0), table.as_bytes_mut())?;
        Ok(table)
    }
}

impl<'a> SbTx<'a> {
    /// The superblock transaction's only constructor: it takes the
    /// `sb_lock` guard (moved in, or lent by a caller that holds it
    /// longer) plus the PKRU write guard, and maps the whole superblock
    /// region for writing.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::MediaError`] if any line of the superblock region
    /// is poisoned — reported before any store is issued, like the
    /// sub-heap and huge areas (see DESIGN.md §7).
    pub fn guarded(
        ctx: SbCtx<'a>,
        lock: impl Into<AreaLock<'a>>,
        pkru: Option<PkruGuard<'a>>,
    ) -> Result<SbTx<'a>> {
        let view = ctx.dev.map_meta(0, SB_REGION_SIZE, AccessKind::Write)?;
        Ok(MetaTx::open(ctx, superblock::undo_area(), view, Some(lock.into()), pkru))
    }
}

/// Patches `buf` (covering `[offset, offset + buf.len())`) with every
/// staged write that intersects it, in staging order — so readers see
/// the operation's own not-yet-issued stores.
fn overlay_patch(staged: &[(u64, Vec<u8>)], offset: u64, buf: &mut [u8]) {
    let len = buf.len() as u64;
    for (target, bytes) in staged {
        let start = (*target).max(offset);
        let end = (target + bytes.len() as u64).min(offset + len);
        if start < end {
            buf[(start - offset) as usize..(end - offset) as usize]
                .copy_from_slice(&bytes[(start - target) as usize..(end - target) as usize]);
        }
    }
}

/// An open undo scope writing through its transaction's view: entry
/// construction, staging, the two-fence commit (see `undo`'s module
/// docs), and rollback. Finish with [`commit`](Self::commit); dropping
/// without committing rolls back.
#[derive(Debug)]
pub(crate) struct UndoScope<'s, 'a> {
    view: &'s MetaView<'a>,
    staged: &'s RefCell<StagedWrites>,
    area: UndoArea,
    gen: u64,
    /// Bytes of the log area used so far this operation.
    tail: u64,
    /// Lines of the entries written so far, pending fence #1.
    entry_batch: FlushBatch,
    finished: bool,
    /// Reusable entry buffer (header + old bytes).
    buffer: Vec<u8>,
}

impl<'s, 'a> UndoScope<'s, 'a> {
    /// Opens a scope on `tx`'s undo area. Live entries at open are a
    /// rollback that died mid-flight only if `tx` holds the area lock,
    /// which rules out a concurrent scope; then they are re-driven (an
    /// early load-time replay). Without the lock they may belong to a
    /// concurrently open scope — a locking bug — and rolling them back
    /// underneath it would corrupt that operation, so they are rejected.
    fn begin<C>(tx: &'s MetaTx<'a, C>) -> Result<UndoScope<'s, 'a>> {
        debug_assert!(tx.staged.borrow().is_empty(), "one undo scope per transaction at a time");
        let (view, area) = (&tx.view, tx.area);
        let mut gen: u64 = view.read_pod(area.gen_field)?;
        if undo::read_entry(view, area, gen, 0)?.is_some() {
            if tx.lock.is_none() {
                return Err(PoseidonError::Corrupted("undo log non-empty at operation start"));
            }
            undo::apply_undo(view, area, gen)?;
            gen = view.read_pod(area.gen_field)?;
            if undo::read_entry(view, area, gen, 0)?.is_some() {
                return Err(PoseidonError::Corrupted("undo log non-empty at operation start"));
            }
        }
        Ok(UndoScope {
            view,
            staged: &tx.staged,
            area,
            gen,
            tail: 0,
            entry_batch: FlushBatch::new(),
            finished: false,
            buffer: Vec::new(),
        })
    }

    /// Whether one more [`log_and_write`](Self::log_and_write) of `len`
    /// bytes fits in the log area. Batch operations (cache refill/drain)
    /// size their batches with this so they commit what fits instead of
    /// dying on `"undo log overflow"`.
    pub fn has_room_for(&self, len: u64) -> bool {
        self.tail + ENTRY_HEADER + len.next_multiple_of(8) <= self.area.size
    }

    /// Appends an entry logging the current (overlay-visible) content of
    /// `[target, target + new.len())` and stages `new` there. The entry
    /// write lands in cache now; the store is issued and becomes durable
    /// at [`commit`](Self::commit), and until then the transaction's read
    /// accessors observe it through the overlay.
    ///
    /// # Errors
    ///
    /// [`PoseidonError::Corrupted`] on log overflow, or a device error.
    pub fn log_and_write(&mut self, target: u64, new: &[u8]) -> Result<()> {
        let len = new.len() as u64;
        let entry_len = ENTRY_HEADER + len.next_multiple_of(8);
        if self.tail + entry_len > self.area.size {
            return Err(PoseidonError::Corrupted("undo log overflow"));
        }
        let header = ENTRY_HEADER as usize;
        self.buffer.clear();
        self.buffer.resize(entry_len as usize, 0);
        // The old image is read through the staged-write overlay: entry
        // i's pre-image reflects staged writes 0..i, so reverse replay
        // still lands every byte on the value of the *first* entry that
        // covers it — the true pre-op state.
        let mut staged = self.staged.borrow_mut();
        self.view.read(target, &mut self.buffer[header..header + new.len()])?;
        overlay_patch(&staged, target, &mut self.buffer[header..header + new.len()]);
        let sum = undo::checksum(self.gen, target, len, &self.buffer[header..]);
        self.buffer[0..8].copy_from_slice(&self.gen.to_le_bytes());
        self.buffer[8..16].copy_from_slice(&target.to_le_bytes());
        self.buffer[16..24].copy_from_slice(&len.to_le_bytes());
        self.buffer[24..32].copy_from_slice(&sum.to_le_bytes());
        let entry_off = self.area.base + self.tail;
        self.view.write(entry_off, &self.buffer)?;
        self.entry_batch.note(entry_off, entry_len);
        self.view.device().record_undo_append(len.div_ceil(8));
        self.tail += entry_len;
        staged.push((target, new.to_vec()));
        Ok(())
    }

    /// [`log_and_write`](Self::log_and_write) of a [`pmem::Pod`] value.
    ///
    /// # Errors
    ///
    /// As for [`log_and_write`](Self::log_and_write).
    pub fn log_and_write_pod<T: pmem::Pod>(&mut self, target: u64, value: &T) -> Result<()> {
        self.log_and_write(target, value.as_bytes())
    }

    /// The two-fence commit described in `undo`'s module docs: fence the
    /// log entries, issue + fence the staged stores (lines deduped), bump
    /// the generation. A scope that staged nothing returns without
    /// touching the device — zero flushes, zero fences.
    ///
    /// # Errors
    ///
    /// Device errors only.
    pub fn commit(mut self) -> Result<()> {
        let mut staged = self.staged.borrow_mut();
        if self.tail == 0 && staged.is_empty() {
            self.finished = true;
            return Ok(());
        }
        // Fence #1: every log entry durable before any target store is
        // *issued* (required under adversarial eviction, see `undo`).
        self.view.flush_batch(&self.entry_batch)?;
        self.view.sfence()?;
        // Apply the staged mutations in order, deduplicating their lines.
        let mut targets = FlushBatch::new();
        for (target, bytes) in staged.iter() {
            self.view.write(*target, bytes)?;
            targets.note(*target, bytes.len() as u64);
        }
        staged.clear();
        // Fence #2: targets durable.
        self.view.flush_batch(&targets)?;
        self.view.sfence()?;
        // Fence #3: invalidate the log — the commit point.
        if self.tail > 0 {
            undo::bump_generation(self.view, self.area, self.gen)?;
        }
        self.entry_batch.clear();
        self.finished = true;
        Ok(())
    }

    /// Rolls the scope back: discards staged stores, restores every
    /// logged range (newest first) and invalidates the log.
    ///
    /// # Errors
    ///
    /// Device errors only.
    pub fn abort(mut self) -> Result<()> {
        self.rollback()
    }

    /// Staged stores are simply discarded; [`undo::apply_undo`]
    /// additionally restores any target the device did receive (a harmless
    /// no-op for targets never issued), which covers a commit that failed
    /// part-way.
    fn rollback(&mut self) -> Result<()> {
        self.finished = true;
        self.staged.borrow_mut().clear();
        if self.tail == 0 {
            return Ok(());
        }
        undo::apply_undo(self.view, self.area, self.gen)
    }
}

impl Drop for UndoScope<'_, '_> {
    fn drop(&mut self) {
        // A dropped-without-commit scope (e.g. an early `?` return) must
        // not leave half-applied metadata behind: roll back best-effort.
        // If the device has crashed, rollback fails harmlessly here and
        // recovery replays the log instead.
        if !self.finished {
            let _ = self.rollback();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::HeapLayout;
    use pmem::{CrashMode, DeviceConfig, PmemDevice};

    fn setup() -> (PmemDevice, HeapLayout) {
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20));
        (dev, layout)
    }

    fn target_off(layout: &HeapLayout) -> u64 {
        // An arbitrary metadata word inside sub-heap 0's table area.
        layout.level_base(0, 0) + 256
    }

    #[test]
    fn one_validation_per_transaction_many_accesses() {
        let (dev, layout) = setup();
        let before = dev.stats();
        {
            let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
            let tx = SubTx::unguarded(ctx).unwrap();
            let mut scope = tx.undo().unwrap();
            for i in 0..16u64 {
                scope.log_and_write_pod(target_off(&layout) + i * 8, &i).unwrap();
            }
            scope.commit().unwrap();
        }
        let after = dev.stats();
        // One map_meta validation; every logged word went through the view.
        assert_eq!(after.validations - before.validations, 1);
        assert_eq!(after.meta_maps - before.meta_maps, 1);
        assert!(after.write_ops - before.write_ops >= 32, "16 entries + 16 targets at least");
    }

    #[test]
    fn reads_observe_the_open_scope() {
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        let tx = SubTx::unguarded(ctx).unwrap();
        let mut scope = tx.undo().unwrap();
        scope.log_and_write_pod(target, &0x5Au64).unwrap();
        // Staged: raw view misses it, the transaction accessor sees it.
        assert_eq!(tx.view().read_pod::<u64>(target).unwrap(), 0);
        assert_eq!(tx.read_pod::<u64>(target).unwrap(), 0x5A);
        scope.commit().unwrap();
        assert_eq!(tx.view().read_pod::<u64>(target).unwrap(), 0x5A);
        assert_eq!(tx.read_pod::<u64>(target).unwrap(), 0x5A);
    }

    #[test]
    fn huge_slots_observe_the_open_scope() {
        let (dev, layout) = setup();
        let ctx = HugeCtx { dev: &dev, layout: &layout };
        crate::hugeregion::format(&dev, &layout).unwrap();
        let tx = HugeTx::unguarded(ctx).unwrap();
        let staged = ExtentRecord { offset: 4096, len: 8192, state: 7, _pad: 0, _reserved: 0 };
        let mut scope = tx.undo().unwrap();
        scope.log_and_write_pod(ctx.slot_off(5), &staged).unwrap();
        assert_eq!(tx.view().read_pod::<ExtentRecord>(ctx.slot_off(5)).unwrap().len, 0);
        let table = tx.slots().unwrap();
        assert_eq!((table[5].offset, table[5].len, table[5].state), (4096, 8192, 7));
        scope.abort().unwrap();
        assert_eq!(tx.slots().unwrap()[5].len, 0);
    }

    #[test]
    fn crashed_scope_is_replayed_by_device_backed_recovery() {
        // The interoperability contract: entries written through the view
        // must be read back by the *device-backed* replay after a crash.
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        dev.write_pod(target, &1u64).unwrap();
        dev.persist(target, 8).unwrap();
        {
            let tx = SubTx::unguarded(ctx).unwrap();
            let mut scope = tx.undo().unwrap();
            scope.log_and_write_pod(target, &2u64).unwrap();
            // Crash mid-commit, right after fence #1 (entry write +
            // entry-line clwb + fence): the entry is durable through the
            // view, the target store was never issued.
            dev.arm_crash_after(3);
            assert!(scope.commit().is_err());
        }
        dev.simulate_crash(CrashMode::Strict, 3);
        assert!(undo::replay(&dev, ctx.undo_area()).unwrap());
        assert_eq!(dev.read_pod::<u64>(target).unwrap(), 1);
    }

    #[test]
    fn drop_without_commit_rolls_back_through_the_view() {
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        dev.write_pod(target, &7u64).unwrap();
        let tx = SubTx::unguarded(ctx).unwrap();
        {
            let mut scope = tx.undo().unwrap();
            scope.log_and_write_pod(target, &8u64).unwrap();
            // dropped here without commit
        }
        assert_eq!(tx.read_pod::<u64>(target).unwrap(), 7);
        tx.undo().unwrap().commit().unwrap();
    }

    #[test]
    fn abort_restores_in_reverse_order() {
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let target = target_off(&layout);
        dev.write_pod(target, &1u64).unwrap();
        let tx = SubTx::unguarded(ctx).unwrap();
        let mut scope = tx.undo().unwrap();
        scope.log_and_write_pod(target, &2u64).unwrap();
        scope.log_and_write_pod(target, &3u64).unwrap();
        scope.abort().unwrap();
        assert_eq!(tx.read_pod::<u64>(target).unwrap(), 1);
    }

    #[test]
    fn scope_overflow_is_detected() {
        let (dev, layout) = setup();
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        let tx = SubTx::unguarded(ctx).unwrap();
        let mut scope = tx.undo().unwrap();
        let big = vec![0u8; 4096];
        let mut wrote = 0u64;
        let r = loop {
            match scope.log_and_write(target_off(&layout), &big) {
                Ok(()) => wrote += 1,
                Err(e) => break e,
            }
        };
        assert!(wrote > 0);
        assert!(!scope.has_room_for(4096));
        assert!(matches!(r, PoseidonError::Corrupted("undo log overflow")));
        scope.abort().unwrap();
    }
}
