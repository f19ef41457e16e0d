//! Undo logging (§4.5, §5.2) with batched persistence: the on-device
//! log format, the commit protocol it supports, and recovery replay.
//!
//! Every allocator operation mutates metadata inside an undo scope
//! ([`UndoScope`], opened by a [`MetaTx`]): before a range is
//! overwritten, its original bytes are appended to the area's undo log;
//! the new bytes are **staged in DRAM** and only reach the device at
//! commit, after a single fence has made every log entry of the
//! operation durable. A crash at any point leaves either a committed
//! operation or a log whose replay restores the exact pre-op state.
//! Replay is idempotent — replaying twice (e.g. after a crash *during*
//! recovery, §5.8) writes the same old bytes again.
//!
//! # The two-fence commit protocol
//!
//! Persisting each log entry eagerly would cost one `clwb`+`sfence`
//! pair per [`log_and_write`](crate::session::UndoScope::log_and_write)
//! plus two more at commit, i.e. *N* + 2 serialising fences for an
//! *N*-entry operation. The batched protocol pays a constant number:
//!
//! 1. While the operation runs, entries are written (they land in the
//!    modelled CPU cache) and their lines collected in a deduplicating
//!    [`FlushBatch`]; the target mutations are staged in DRAM and **not
//!    issued** to the device at all. Reads made by the operation are
//!    patched through the staged-write overlay so it observes its own
//!    stores.
//! 2. At commit, the entry batch is flushed and **fence #1** issued:
//!    every entry is durable before the first target store is issued.
//! 3. The staged mutations are applied in order, their lines collected
//!    in a second deduplicating batch, flushed, and **fence #2** issued.
//! 4. The generation bump (one 8-byte persisted store, fence #3) is the
//!    commit point.
//!
//! Deferring the target stores — rather than merely deferring their
//! flushes — is what makes the protocol sound under
//! [`CrashMode::Adversarial`](pmem::CrashMode): the cache model may
//! spontaneously evict (persist) *any* dirty line, so a target store
//! issued before its entry was fenced could become durable while the
//! entry tears. With staging, a missing or torn log entry implies the
//! crash preceded fence #1, hence **no** target of the operation was
//! ever issued, let alone persisted. Conversely, an operation that
//! stages nothing commits with **zero** fences — read-only operations
//! are barrier-free.
//!
//! The log is invalidated in O(1) by bumping a persistent **generation
//! counter** rather than rewinding a tail: each entry is stamped with the
//! generation it belongs to and carries a checksum, so recovery scans
//! entries from the start of the area and stops at the first entry that
//! fails validation (stale generation, bad checksum, or torn write).
//!
//! Entry layout (all fields little-endian, entries 8-byte aligned):
//!
//! ```text
//! ┌──────────┬─────────────┬──────────┬───────────────┬───────────────┐
//! │ gen: u64 │ target: u64 │ len: u64 │ checksum: u64 │ old bytes…pad │
//! └──────────┴─────────────┴──────────┴───────────────┴───────────────┘
//! ```
//!
//! [`UndoScope`] is the only log writer, and it writes through its
//! transaction's [`MetaView`]. Reading the log — [`read_entry`],
//! [`apply_undo`] and [`replay`] — is generic over the small
//! [`LogAccess`] word-access trait so it also runs on the raw
//! [`PmemDevice`]. Replay stays **device-backed** on purpose: it runs
//! before any transaction exists, must see exactly the persisted bytes,
//! and `pfsck --repair` replays the superblock log *before* it scrubs the
//! directory page — a view cannot be mapped over a range that still
//! holds a poisoned line, while device reads fail only on the lines they
//! touch. The crash-fuzz chain decoder (`fuzz::undo_chains`) reads the
//! logs the same way.
//!
//! [`MetaTx`]: crate::session::MetaTx
//! [`UndoScope`]: crate::session::UndoScope

use pmem::{FlushBatch, MetaView, PmemDevice, PmemError};

use crate::error::Result;

/// Location of one undo-log area and its persistent generation field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndoArea {
    /// Device offset of the log area.
    pub base: u64,
    /// Size of the log area in bytes.
    pub size: u64,
    /// Device offset of the `u64` generation field. Entries stamped with
    /// the current generation are live; a bump invalidates them all.
    pub gen_field: u64,
}

/// Size of the fixed entry header (gen, target, len, checksum).
pub(crate) const ENTRY_HEADER: u64 = 32;

/// Entry checksum over the *padded* old-bytes image (see the layout
/// diagram above).
pub(crate) fn checksum(gen: u64, target: u64, len: u64, old: &[u8]) -> u64 {
    let mut hash = 0x9E37_79B9_7F4A_7C15u64 ^ gen;
    hash = hash.wrapping_mul(0x100_0000_01B3).rotate_left(17) ^ target;
    hash = hash.wrapping_mul(0x100_0000_01B3).rotate_left(17) ^ len;
    for chunk in old.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash = hash.wrapping_mul(0x100_0000_01B3).rotate_left(17) ^ u64::from_le_bytes(word);
    }
    // Never 0, so an all-zero (never-written) slot always fails.
    hash | 1
}

/// The word-access surface log reading and rollback need from their
/// backing store — implemented by the raw [`PmemDevice`] (recovery,
/// repair, crash fuzzing) and by [`MetaView`] (an open scope's begin,
/// commit and rollback, routed through its single up-front validation).
pub(crate) trait LogAccess {
    fn read(&self, offset: u64, buf: &mut [u8]) -> std::result::Result<(), PmemError>;
    fn write(&self, offset: u64, buf: &[u8]) -> std::result::Result<(), PmemError>;
    fn flush_batch(&self, batch: &FlushBatch) -> std::result::Result<(), PmemError>;
    fn clwb(&self, offset: u64, len: u64) -> std::result::Result<(), PmemError>;
    fn sfence(&self) -> std::result::Result<(), PmemError>;

    fn read_pod<T: pmem::Pod>(&self, offset: u64) -> std::result::Result<T, PmemError> {
        let mut value = T::zeroed();
        self.read(offset, value.as_bytes_mut())?;
        Ok(value)
    }

    fn write_pod<T: pmem::Pod>(&self, offset: u64, value: &T) -> std::result::Result<(), PmemError> {
        self.write(offset, value.as_bytes())
    }
}

impl LogAccess for PmemDevice {
    fn read(&self, offset: u64, buf: &mut [u8]) -> std::result::Result<(), PmemError> {
        PmemDevice::read(self, offset, buf)
    }
    fn write(&self, offset: u64, buf: &[u8]) -> std::result::Result<(), PmemError> {
        PmemDevice::write(self, offset, buf)
    }
    fn flush_batch(&self, batch: &FlushBatch) -> std::result::Result<(), PmemError> {
        PmemDevice::flush_batch(self, batch)
    }
    fn clwb(&self, offset: u64, len: u64) -> std::result::Result<(), PmemError> {
        PmemDevice::clwb(self, offset, len)
    }
    fn sfence(&self) -> std::result::Result<(), PmemError> {
        PmemDevice::sfence(self)
    }
}

impl LogAccess for MetaView<'_> {
    fn read(&self, offset: u64, buf: &mut [u8]) -> std::result::Result<(), PmemError> {
        MetaView::read(self, offset, buf)
    }
    fn write(&self, offset: u64, buf: &[u8]) -> std::result::Result<(), PmemError> {
        MetaView::write(self, offset, buf)
    }
    fn flush_batch(&self, batch: &FlushBatch) -> std::result::Result<(), PmemError> {
        MetaView::flush_batch(self, batch)
    }
    fn clwb(&self, offset: u64, len: u64) -> std::result::Result<(), PmemError> {
        MetaView::clwb(self, offset, len)
    }
    fn sfence(&self) -> std::result::Result<(), PmemError> {
        MetaView::sfence(self)
    }
}

/// A decoded log entry: `(target, len, old_bytes, entry_len)`.
pub(crate) type DecodedEntry = (u64, u64, Vec<u8>, u64);

/// Reads and validates the entry at byte position `pos` for generation
/// `gen`. Returns the decoded entry or `None` when the slot does not
/// hold a live entry (end of log).
pub(crate) fn read_entry<A: LogAccess>(
    acc: &A,
    area: UndoArea,
    gen: u64,
    pos: u64,
) -> Result<Option<DecodedEntry>> {
    if pos + ENTRY_HEADER > area.size {
        return Ok(None);
    }
    let entry_gen: u64 = acc.read_pod(area.base + pos)?;
    if entry_gen != gen {
        return Ok(None);
    }
    let target: u64 = acc.read_pod(area.base + pos + 8)?;
    let len: u64 = acc.read_pod(area.base + pos + 16)?;
    let stored_sum: u64 = acc.read_pod(area.base + pos + 24)?;
    if len > area.size || pos + ENTRY_HEADER + len.next_multiple_of(8) > area.size {
        return Ok(None); // torn header
    }
    let mut old = vec![0u8; len.next_multiple_of(8) as usize];
    acc.read(area.base + pos + ENTRY_HEADER, &mut old)?;
    if checksum(gen, target, len, &old) != stored_sum {
        return Ok(None); // torn entry
    }
    old.truncate(len as usize);
    Ok(Some((target, len, old, ENTRY_HEADER + len.next_multiple_of(8))))
}

/// Restores all live entries of generation `gen` (newest first), persists
/// the restorations with one deduplicated flush batch + fence, and
/// invalidates the log.
///
/// The log is fenced durable *before* the first restoration store is
/// issued — the same discipline as the commit's fence #1, for
/// the same reason: restores rewind through overlay-patched intermediate
/// pre-images that never existed on media, so a crash that interrupts
/// them is only recoverable if the complete chain survives for recovery
/// to replay. (On an abort racing a crash the entries may exist only in
/// cache; a rollback begun without this fence could persist a bogus
/// intermediate value while the chain tears.)
pub(crate) fn apply_undo<A: LogAccess>(acc: &A, area: UndoArea, gen: u64) -> Result<()> {
    let mut entries = Vec::new();
    let mut pos = 0u64;
    while let Some((target, len, old, entry_len)) = read_entry(acc, area, gen, pos)? {
        entries.push((target, len, old));
        pos += entry_len;
    }
    if pos > 0 {
        let mut log_batch = FlushBatch::new();
        log_batch.note(area.base, pos);
        acc.flush_batch(&log_batch)?;
        acc.sfence()?;
    }
    let mut batch = FlushBatch::new();
    for (target, len, old) in entries.iter().rev() {
        acc.write(*target, old)?;
        batch.note(*target, *len);
    }
    acc.flush_batch(&batch)?;
    acc.sfence()?;
    bump_generation(acc, area, gen)?;
    Ok(())
}

pub(crate) fn bump_generation<A: LogAccess>(acc: &A, area: UndoArea, gen: u64) -> Result<()> {
    acc.write_pod(area.gen_field, &(gen + 1))?;
    acc.clwb(area.gen_field, 8)?;
    acc.sfence()?;
    Ok(())
}

/// Recovery entry point: if the area holds live entries, rolls the
/// interrupted operation back. Returns whether anything was replayed.
///
/// Idempotent: crashing during replay and replaying again is safe (§5.8).
///
/// # Errors
///
/// Device errors.
pub fn replay(dev: &PmemDevice, area: UndoArea) -> Result<bool> {
    let gen: u64 = dev.read_pod(area.gen_field)?;
    if read_entry(dev, area, gen, 0)?.is_none() {
        return Ok(false);
    }
    apply_undo(dev, area, gen)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PoseidonError;
    use crate::layout::{HeapLayout, HUGE_TABLE_OFF};
    use crate::persist::{HugeCtx, SbCtx, SubCtx};
    use crate::session::{HugeTx, SbTx, SubTx, UndoScope};
    use crate::superblock;
    use pmem::contention::TrackedMutex;
    use pmem::{CrashMode, DeviceConfig};

    fn setup() -> (PmemDevice, HeapLayout) {
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        (PmemDevice::new(DeviceConfig::new(64 << 20)), layout)
    }

    fn ctx<'a>(dev: &'a PmemDevice, layout: &'a HeapLayout) -> SubCtx<'a> {
        SubCtx { dev, layout, sub: 0 }
    }

    /// A line-aligned metadata word of sub-heap 0 (its table area).
    fn target(layout: &HeapLayout) -> u64 {
        layout.level_base(0, 0)
    }

    /// Persists `value` at `offset` outside any transaction.
    fn preset(dev: &PmemDevice, offset: u64, value: u64) {
        dev.write_pod(offset, &value).unwrap();
        dev.persist(offset, 8).unwrap();
    }

    #[test]
    fn commit_makes_writes_durable() {
        let (dev, layout) = setup();
        let t = target(&layout);
        let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
        let mut s = tx.undo().unwrap();
        s.log_and_write_pod(t, &0xAAu64).unwrap();
        s.log_and_write_pod(t + 8, &0xBBu64).unwrap();
        s.commit().unwrap();
        drop(tx);
        dev.simulate_crash(CrashMode::Strict, 0);
        assert_eq!(dev.read_pod::<u64>(t).unwrap(), 0xAA);
        assert_eq!(dev.read_pod::<u64>(t + 8).unwrap(), 0xBB);
        // Log is invalid after commit.
        assert!(!replay(&dev, ctx(&dev, &layout).undo_area()).unwrap());
    }

    #[test]
    fn crash_before_commit_leaves_media_untouched() {
        // Without commit, neither the entries nor the targets were ever
        // fenced (targets were never even issued): a strict crash is a
        // complete no-op for the operation.
        let (dev, layout) = setup();
        let t = target(&layout);
        preset(&dev, t, 1);
        let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
        let mut s = tx.undo().unwrap();
        s.log_and_write_pod(t, &2u64).unwrap();
        std::mem::forget(s); // simulate losing the scope in a crash
        drop(tx);
        dev.simulate_crash(CrashMode::Strict, 7);

        assert!(!replay(&dev, ctx(&dev, &layout).undo_area()).unwrap());
        assert_eq!(dev.read_pod::<u64>(t).unwrap(), 1);
    }

    #[test]
    fn crash_during_commit_replays_to_old_state() {
        let (dev, layout) = setup();
        let (t, area) = (target(&layout), ctx(&dev, &layout).undo_area());
        preset(&dev, t, 1);
        {
            let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
            let mut s = tx.undo().unwrap();
            s.log_and_write_pod(t, &2u64).unwrap();
            // Commit events: entry write, entry-line clwb, fence #1, target
            // write, … Crash on the target flush: the entry is durable, the
            // target store issued but not persisted.
            dev.arm_crash_after(4);
            assert!(s.commit().is_err());
        }
        dev.simulate_crash(CrashMode::Strict, 7);

        assert!(replay(&dev, area).unwrap());
        assert_eq!(dev.read_pod::<u64>(t).unwrap(), 1);
        // Idempotent: nothing left to replay.
        assert!(!replay(&dev, area).unwrap());
    }

    #[test]
    fn replay_restores_in_reverse_order() {
        let (dev, layout) = setup();
        let (t, area) = (target(&layout), ctx(&dev, &layout).undo_area());
        preset(&dev, t, 1);
        {
            let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
            let mut s = tx.undo().unwrap();
            s.log_and_write_pod(t, &2u64).unwrap();
            s.log_and_write_pod(t, &3u64).unwrap(); // same target twice
            s.commit().unwrap();
        }
        dev.simulate_crash(CrashMode::Strict, 0);
        assert_eq!(dev.read_pod::<u64>(t).unwrap(), 3);
        // Now interrupt a fresh double-update during target application.
        {
            let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
            let mut s = tx.undo().unwrap();
            s.log_and_write_pod(t, &4u64).unwrap();
            s.log_and_write_pod(t, &5u64).unwrap();
            dev.arm_crash_after(6); // entry writes ×2, clwb ×2, fence, write
            assert!(s.commit().is_err());
        }
        dev.simulate_crash(CrashMode::Strict, 0);
        replay(&dev, area).unwrap();
        // Reverse application ends on the *first* entry's old value.
        assert_eq!(dev.read_pod::<u64>(t).unwrap(), 3);
    }

    #[test]
    fn second_log_of_same_target_records_first_staged_value() {
        // The overlay feeds entry pre-images: logging target→2 then
        // target→3 must record old values 1 and 2 (not 1 and 1), or
        // reverse replay would be wrong if only the *second* entry's
        // target application crashed. Verified through abort, which
        // replays both entries.
        let (dev, layout) = setup();
        let t = target(&layout);
        preset(&dev, t, 1);
        let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
        let mut s = tx.undo().unwrap();
        s.log_and_write_pod(t, &2u64).unwrap();
        assert_eq!(tx.read_pod::<u64>(t).unwrap(), 2);
        s.log_and_write_pod(t, &3u64).unwrap();
        assert_eq!(tx.read_pod::<u64>(t).unwrap(), 3);
        let (_, _, old, _) = read_entry(tx.view(), ctx(&dev, &layout).undo_area(), 0, 40).unwrap().unwrap();
        assert_eq!(old, 2u64.to_le_bytes());
        s.abort().unwrap();
        assert_eq!(dev.read_pod::<u64>(t).unwrap(), 1);
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        let (dev, layout) = setup();
        let t = target(&layout);
        dev.write_pod(t, &7u64).unwrap();
        let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
        {
            let mut s = tx.undo().unwrap();
            s.log_and_write_pod(t, &8u64).unwrap();
            assert_eq!(tx.read_pod::<u64>(t).unwrap(), 8);
            // dropped here without commit
        }
        assert_eq!(dev.read_pod::<u64>(t).unwrap(), 7);
        assert!(!replay(&dev, ctx(&dev, &layout).undo_area()).unwrap());
        // A fresh scope can begin.
        tx.undo().unwrap().commit().unwrap();
    }

    #[test]
    fn begin_rejects_unrecovered_log() {
        let (dev, layout) = setup();
        let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
        let mut s = tx.undo().unwrap();
        s.log_and_write_pod(target(&layout), &1u64).unwrap();
        std::mem::forget(s);
        drop(tx);
        let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
        assert!(matches!(tx.undo(), Err(PoseidonError::Corrupted(_))));
        replay(&dev, ctx(&dev, &layout).undo_area()).unwrap();
        tx.undo().unwrap().commit().unwrap();
    }

    #[test]
    fn empty_commit_is_barrier_free() {
        // Satellite regression: a scope that logs nothing must not pay a
        // single flush or fence, and must not bump the generation.
        let (dev, layout) = setup();
        let area = ctx(&dev, &layout).undo_area();
        let gen_before: u64 = dev.read_pod(area.gen_field).unwrap();
        let before = dev.stats();
        SubTx::unguarded(ctx(&dev, &layout)).unwrap().undo().unwrap().commit().unwrap();
        let after = dev.stats();
        assert_eq!(after.sfence_count, before.sfence_count, "empty commit fenced");
        assert_eq!(after.clwb_count, before.clwb_count, "empty commit flushed");
        assert_eq!(dev.read_pod::<u64>(area.gen_field).unwrap(), gen_before);
    }

    #[test]
    fn commit_dedupes_same_line_flushes() {
        // Satellite regression: two staged writes to one cache line must
        // cost one target clwb, not two (and the two 40-byte entries
        // share a line boundary: lines 0 and 1 of the log area).
        let (dev, layout) = setup();
        let t = target(&layout);
        assert_eq!(t % 64, 0, "target must be line-aligned");
        let before = dev.stats();
        {
            let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
            let mut s = tx.undo().unwrap();
            s.log_and_write_pod(t, &2u64).unwrap();
            s.log_and_write_pod(t + 8, &3u64).unwrap(); // same line
            s.commit().unwrap();
        }
        let after = dev.stats();
        // entries: 2 lines (80 bytes from a line-aligned base);
        // targets: 1 line (deduped); generation bump: 1 line.
        assert_eq!(after.clwb_count - before.clwb_count, 4, "same-line clwbs not deduped");
        assert_eq!(after.sfence_count - before.sfence_count, 3);
    }

    #[test]
    fn replay_survives_crash_during_replay() {
        let (dev, layout) = setup();
        let (t, area) = (target(&layout), ctx(&dev, &layout).undo_area());
        preset(&dev, t, 1);
        {
            let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
            let mut s = tx.undo().unwrap();
            s.log_and_write_pod(t, &2u64).unwrap();
            s.log_and_write_pod(t + 8, &9u64).unwrap();
            // Crash right after fence #1 (2 entry writes + 2 entry-line
            // clwbs + the fence): entries durable, no target issued.
            dev.arm_crash_after(5);
            assert!(s.commit().is_err());
        }
        dev.simulate_crash(CrashMode::Strict, 0);

        // Crash partway through the replay itself.
        dev.arm_crash_after(1);
        assert!(replay(&dev, area).is_err());
        dev.simulate_crash(CrashMode::Strict, 1);

        // Second replay completes.
        assert!(replay(&dev, area).unwrap());
        assert_eq!(dev.read_pod::<u64>(t).unwrap(), 1);
        assert_eq!(dev.read_pod::<u64>(t + 8).unwrap(), 0);
    }

    /// Runs a closure on an open undo scope.
    type ScopeFn<'f> = &'f mut dyn FnMut(UndoScope<'_, '_>) -> Result<()>;

    /// One area of the transaction type, as a row of the lock-holder
    /// table below.
    struct AreaRow {
        name: &'static str,
        /// Two metadata words of the area, on distinct lines.
        targets: fn(&HeapLayout) -> [u64; 2],
        undo_area: fn(&PmemDevice, &HeapLayout) -> UndoArea,
        /// Opens a transaction holding a (test-local) area lock and runs
        /// the closure on its undo scope.
        guarded: fn(&PmemDevice, &HeapLayout, ScopeFn<'_>) -> Result<()>,
        /// Opens a transaction without a lock and tries to open its undo
        /// scope; `None` when the area has no unguarded constructor.
        unguarded: Option<fn(&PmemDevice, &HeapLayout) -> Result<()>>,
    }

    fn area_rows() -> [AreaRow; 3] {
        [
            AreaRow {
                name: "sub-heap",
                targets: |layout| [layout.level_base(0, 0), layout.level_base(0, 0) + 128],
                undo_area: |dev, layout| SubCtx { dev, layout, sub: 0 }.undo_area(),
                guarded: |dev, layout, f| {
                    let lock = TrackedMutex::new(());
                    let tx = SubTx::guarded(SubCtx { dev, layout, sub: 0 }, lock.lock(), None)?;
                    let scope = tx.undo()?;
                    f(scope)
                },
                unguarded: Some(|dev, layout| {
                    SubTx::unguarded(SubCtx { dev, layout, sub: 0 })?.undo().map(drop)
                }),
            },
            AreaRow {
                name: "huge region",
                targets: |layout| {
                    let table = layout.huge_meta_base() + HUGE_TABLE_OFF;
                    [table + 320, table + 640]
                },
                undo_area: |dev, layout| HugeCtx { dev, layout }.undo_area(),
                guarded: |dev, layout, f| {
                    let lock = TrackedMutex::new(());
                    let tx = HugeTx::guarded(HugeCtx { dev, layout }, lock.lock(), None)?;
                    let scope = tx.undo()?;
                    f(scope)
                },
                unguarded: Some(|dev, layout| HugeTx::unguarded(HugeCtx { dev, layout })?.undo().map(drop)),
            },
            AreaRow {
                name: "superblock",
                targets: |_| [superblock::dir_entry_off(10), superblock::dir_entry_off(30)],
                undo_area: |_, _| superblock::undo_area(),
                guarded: |dev, _, f| {
                    let lock = TrackedMutex::new(());
                    let sb = lock.lock();
                    let tx = SbTx::guarded(SbCtx { dev }, &sb, None)?;
                    let scope = tx.undo()?;
                    f(scope)
                },
                // The superblock transaction can only be built from the
                // lock guard, so there is no strict case to check.
                unguarded: None,
            },
        ]
    }

    #[test]
    fn begin_redrives_a_rollback_interrupted_mid_flight() {
        // A rollback that dies partway (here: device failure during the
        // drop-time rollback of a failed commit) leaves the log live. In
        // every area a transaction holding the area lock finishes the
        // rollback instead of wedging until a power cycle, leaving the
        // pre-op bytes on media; one built without the lock cannot rule
        // out a concurrent scope and still rejects the log.
        for row in area_rows() {
            let (dev, layout) = setup();
            let [t0, t1] = (row.targets)(&layout);
            preset(&dev, t0, 1);
            preset(&dev, t1, 1);
            let commit = (row.guarded)(&dev, &layout, &mut |mut s| {
                s.log_and_write_pod(t0, &2u64)?;
                s.log_and_write_pod(t1, &9u64)?;
                // Entry-line clwbs ×2, fence #1, target write, target
                // write: the crash lands mid-application, and the drop
                // rollback that follows fails too.
                dev.arm_crash_after(5);
                s.commit()
            });
            assert!(commit.is_err(), "{}: commit survived the crash", row.name);
            dev.clear_crash();

            if let Some(unguarded) = row.unguarded {
                let r = unguarded(&dev, &layout);
                assert!(
                    matches!(r, Err(PoseidonError::Corrupted(_))),
                    "{}: unguarded tx got {r:?}",
                    row.name
                );
            }
            (row.guarded)(&dev, &layout, &mut |s| {
                drop(s);
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{}: guarded tx did not re-drive: {e:?}", row.name));
            dev.simulate_crash(CrashMode::Strict, 0);
            assert_eq!(dev.read_pod::<u64>(t0).unwrap(), 1, "{}: pre-op bytes lost", row.name);
            assert_eq!(dev.read_pod::<u64>(t1).unwrap(), 1, "{}: pre-op bytes lost", row.name);
            assert!(!replay(&dev, (row.undo_area)(&dev, &layout)).unwrap(), "{}: log still live", row.name);
        }
    }

    #[test]
    fn adversarial_crash_still_recovers() {
        // Sweep a crash point over the entire operation (logging and
        // every commit event), then let the adversarial cache model
        // persist an arbitrary subset of dirty lines. Invariants:
        //
        // 1. A missing/torn log entry with an unbumped generation
        //    implies the crash preceded fence #1, so *no* target (that
        //    entry's or any later one's) was ever mutated.
        // 2. After replay the heap is atomic: all targets old or all
        //    targets new.
        for arm in 1..=18u64 {
            for seed in 0..8u64 {
                let (dev, layout) = setup();
                let targets = |i: u64| target(&layout) + i * 128; // distinct lines
                let area = ctx(&dev, &layout).undo_area();
                for i in 0..3 {
                    preset(&dev, targets(i), 1);
                }
                let start_gen: u64 = dev.read_pod(area.gen_field).unwrap();
                dev.arm_crash_after(arm);
                let committed = (|| -> Result<()> {
                    let tx = SubTx::unguarded(ctx(&dev, &layout))?;
                    let mut s = tx.undo()?;
                    for i in 0..3 {
                        s.log_and_write_pod(targets(i), &2u64)?;
                    }
                    s.commit()
                })()
                .is_ok();
                dev.simulate_crash(CrashMode::Adversarial, seed);

                let media_gen: u64 = dev.read_pod(area.gen_field).unwrap();
                let mut live = 0u64;
                let mut pos = 0u64;
                while let Some((_, _, _, entry_len)) = read_entry(&dev, area, media_gen, pos).unwrap() {
                    live += 1;
                    pos += entry_len;
                }
                if committed {
                    for i in 0..3 {
                        assert_eq!(dev.read_pod::<u64>(targets(i)).unwrap(), 2);
                    }
                }
                if media_gen == start_gen && live < 3 {
                    // Invariant 1: fence #1 cannot have run (it makes all
                    // three entries durable), so no target was issued.
                    for i in 0..3 {
                        assert_eq!(
                            dev.read_pod::<u64>(targets(i)).unwrap(),
                            1,
                            "arm {arm} seed {seed}: torn log but target {i} mutated"
                        );
                    }
                }
                replay(&dev, area).unwrap();
                let after: Vec<u64> = (0..3).map(|i| dev.read_pod::<u64>(targets(i)).unwrap()).collect();
                assert!(
                    after == [1, 1, 1] || after == [2, 2, 2],
                    "arm {arm} seed {seed}: non-atomic outcome {after:?}"
                );
            }
        }
    }

    #[test]
    fn generation_bump_invalidates_stale_entries() {
        let (dev, layout) = setup();
        let t = target(&layout);
        let tx = SubTx::unguarded(ctx(&dev, &layout)).unwrap();
        let mut s = tx.undo().unwrap();
        s.log_and_write_pod(t, &5u64).unwrap();
        s.commit().unwrap();
        // The old entry bytes still sit in the log area but belong to a
        // dead generation: a new scope starts clean and replay is a
        // no-op.
        assert!(!replay(&dev, ctx(&dev, &layout).undo_area()).unwrap());
        let mut s = tx.undo().unwrap();
        s.log_and_write_pod(t, &6u64).unwrap();
        s.commit().unwrap();
        assert_eq!(dev.read_pod::<u64>(t).unwrap(), 6);
    }
}
