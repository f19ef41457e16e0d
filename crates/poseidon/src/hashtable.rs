//! The multi-level hash table of memory-block records (§4.4, §5.2).
//!
//! Each sub-heap indexes every block (allocated *and* free) by its user
//! region offset, in a chain of open-addressed levels whose capacities
//! double (`c0 << level`), after F2FS's multi-level design. Lookups and
//! updates are O(1): each level is probed linearly within a fixed window.
//! When every active level's window is full, the caller first
//! defragments (merging free blocks turns records into reusable
//! tombstones) and only then activates the next level; levels whose live
//! count drops to zero are deactivated and hole-punched back to the
//! device (§5.6).
//!
//! **Probe order: newest level first.** [`lookup`] and [`insert`] walk
//! the active levels from the largest (most recently activated) down to
//! level 0. A level is activated only once every active window is full,
//! so the older levels are the saturated ones: probing them first costs
//! a whole [`PROBE_WINDOW`] of reads per level before reaching the one
//! level with free slots. Newest-first, an insert stops at the top
//! level's first EMPTY slot, and a lookup of a recently inserted record
//! ends there too. A key absent from the table still scans every level,
//! so invalid and double frees are still detected. The order is a search
//! policy only and is not part of the on-media format: every key lives
//! in exactly one level, so the walk order cannot change which record a
//! lookup finds, and a pool whose records were placed oldest-first opens
//! and serves as it is.

use crate::error::{PoseidonError, Result};
use crate::layout::{ENTRY_SIZE, MAX_LEVELS, PROBE_WINDOW, SH_TABLE_OFF};
use crate::persist::{state, HashEntry};
use crate::session::{SubTx, UndoScope};

/// SplitMix64 mixing for slot hashing.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Digest of a record key as folded into its level's identity checksum.
///
/// Each level persists the XOR of the digests of its live record keys
/// (at [`SubCtx::level_sum_off`](crate::persist::SubCtx::level_sum_off)).
/// A key never changes in place — state flips and size rewrites keep the
/// record's offset — so insert and delete are the only maintenance
/// points, and XOR makes them the same operation. The checksum lets an
/// offline audit or `pfsck --repair` tell a genuinely empty level from
/// one whose records (or live count) were destroyed: both look the same
/// through the zeroed count alone.
pub(crate) fn key_digest(key: u64) -> u64 {
    mix(key)
}

/// Home slot of `key` in `level` (level capacities are powers of two).
#[inline]
fn home_slot(key: u64, level: usize, capacity: u64) -> u64 {
    mix(key ^ (level as u64).wrapping_mul(0xA24B_AED4_963E_E407)) & (capacity - 1)
}

/// Device offset of slot `index` in `level` of `op`'s table.
#[inline]
fn slot_off(op: &SubTx<'_>, level: usize, index: u64) -> u64 {
    op.ctx.layout.level_base(op.ctx.sub, level) + index * ENTRY_SIZE
}

/// Looks up the record whose key (block offset) is `key`, probing the
/// active levels newest first (see the [module docs](self)).
/// Returns the record's device offset and value, or `None` once every
/// level's window has been scanned.
pub(crate) fn lookup(op: &SubTx<'_>, key: u64) -> Result<Option<(u64, HashEntry)>> {
    let active = (op.active_levels()? as usize).min(MAX_LEVELS);
    for level in (0..active).rev() {
        let capacity = op.ctx.layout.level_capacity(level);
        let start = home_slot(key, level, capacity);
        for i in 0..PROBE_WINDOW.min(capacity) {
            let off = slot_off(op, level, (start + i) & (capacity - 1));
            let entry = op.entry(off)?;
            match entry.state {
                state::EMPTY => break, // key cannot be further in this level
                state::TOMBSTONE => continue,
                _ if entry.offset == key => return Ok(Some((off, entry))),
                _ => continue,
            }
        }
    }
    Ok(None)
}

/// Inserts `entry` (keyed by `entry.offset`), reusing tombstones.
///
/// Levels are tried newest first (see the [module docs](self)); the
/// record goes into the first level whose window holds an EMPTY slot or
/// a tombstone. If every active level's probe window is full and
/// `allow_activate` is set, the next level is activated *inside the
/// scope* (its area is hole-punched clean first, then `active_levels`
/// and the level count are undo-logged). Returns the record's device
/// offset.
///
/// # Errors
///
/// [`PoseidonError::TableFull`] when no slot is available (callers
/// defragment and retry, per §5.2); [`PoseidonError::Corrupted`] if the
/// key is already live in a window this insert scanned — the levels
/// from the newest down to the insertion level. That is an in-window
/// check only: a duplicate sitting in an older level is not seen here.
/// The full duplicate check is the audit's (`subheap::audit_with`),
/// which the tests and crashfuzz run.
pub(crate) fn insert(
    op: &SubTx<'_>,
    scope: &mut UndoScope<'_, '_>,
    entry: HashEntry,
    allow_activate: bool,
) -> Result<u64> {
    let key = entry.offset;
    let active = (op.active_levels()? as usize).min(MAX_LEVELS);
    for level in (0..active).rev() {
        let capacity = op.ctx.layout.level_capacity(level);
        let start = home_slot(key, level, capacity);
        let mut reusable = None;
        let mut target = None;
        for i in 0..PROBE_WINDOW.min(capacity) {
            let off = slot_off(op, level, (start + i) & (capacity - 1));
            let existing = op.entry(off)?;
            match existing.state {
                state::EMPTY => {
                    target = Some(reusable.unwrap_or(off));
                    break;
                }
                // A tombstone is dead no matter what stale key it still
                // carries — it must never reach the duplicate check below
                // (a merged-away record's offset legitimately comes back
                // when the merged block is re-split). Keep this arm
                // unguarded: a `reusable.is_none()` match guard would let
                // later tombstones fall through to the duplicate arm.
                state::TOMBSTONE => reusable = reusable.or(Some(off)),
                _ if existing.offset == key => {
                    return Err(PoseidonError::Corrupted("duplicate block record insert"));
                }
                _ => {}
            }
        }
        // The whole window was scanned (no EMPTY): a tombstone is still a
        // valid target because no duplicate was found in the window.
        if let Some(off) = target.or(reusable) {
            write_entry(scope, off, &entry)?;
            bump_level_count(op, scope, level, 1)?;
            bump_level_sum(op, scope, level, key)?;
            return Ok(off);
        }
    }
    if allow_activate && active < MAX_LEVELS {
        let level = active;
        // Scrub any residue from a previous activation of this level (a
        // deactivation whose punch was lost in a crash). Punching is
        // durable and harmless even if this scope later aborts: the
        // level is inactive and its live count is zero either way.
        let level_base = op.ctx.layout.level_base(op.ctx.sub, level);
        op.ctx.dev.punch_hole(level_base, op.ctx.layout.level_capacity(level) * ENTRY_SIZE)?;
        scope.log_and_write_pod(op.ctx.active_levels_off(), &((active + 1) as u64))?;
        scope.log_and_write_pod(op.ctx.level_count_off(level), &0u64)?;
        scope.log_and_write_pod(op.ctx.level_sum_off(level), &0u64)?;
        let capacity = op.ctx.layout.level_capacity(level);
        let off = slot_off(op, level, home_slot(key, level, capacity));
        write_entry(scope, off, &entry)?;
        bump_level_count(op, scope, level, 1)?;
        bump_level_sum(op, scope, level, key)?;
        return Ok(off);
    }
    Err(PoseidonError::TableFull)
}

/// Overwrites the record at `entry_off` through the scope.
pub(crate) fn write_entry(scope: &mut UndoScope<'_, '_>, entry_off: u64, entry: &HashEntry) -> Result<()> {
    scope.log_and_write_pod(entry_off, entry)
}

/// Tombstones the record at `entry_off` and decrements its level's live
/// count.
pub(crate) fn delete(op: &SubTx<'_>, scope: &mut UndoScope<'_, '_>, entry_off: u64) -> Result<()> {
    let level = level_of(op, entry_off);
    let mut entry = op.entry(entry_off)?;
    let key = entry.offset;
    entry.state = state::TOMBSTONE;
    entry.next_free = 0;
    entry.prev_free = 0;
    write_entry(scope, entry_off, &entry)?;
    bump_level_count(op, scope, level, -1)?;
    bump_level_sum(op, scope, level, key)
}

/// The level containing the record at device offset `entry_off`.
pub(crate) fn level_of(op: &SubTx<'_>, entry_off: u64) -> usize {
    let table_base = op.ctx.meta_base() + SH_TABLE_OFF;
    debug_assert!(entry_off >= table_base);
    let index = (entry_off - table_base) / ENTRY_SIZE;
    // Levels 0..l hold c0 * (2^l - 1) entries; find l with
    // c0 * (2^l - 1) <= index < c0 * (2^(l+1) - 1).
    let c0 = op.ctx.layout.c0;
    let mut level = 0;
    while c0 * ((1 << (level + 1)) - 1) <= index {
        level += 1;
        debug_assert!(level < MAX_LEVELS);
    }
    level
}

/// Toggles `key` into/out of `level`'s identity checksum (XOR is its own
/// inverse, so insert and delete share this).
fn bump_level_sum(op: &SubTx<'_>, scope: &mut UndoScope<'_, '_>, level: usize, key: u64) -> Result<()> {
    let off = op.ctx.level_sum_off(level);
    let sum: u64 = op.read_pod(off)?;
    scope.log_and_write_pod(off, &(sum ^ key_digest(key)))
}

fn bump_level_count(op: &SubTx<'_>, scope: &mut UndoScope<'_, '_>, level: usize, delta: i64) -> Result<()> {
    let off = op.ctx.level_count_off(level);
    let count: u64 = op.read_pod(off)?;
    let updated =
        count.checked_add_signed(delta).ok_or(PoseidonError::Corrupted("hash-level live count underflow"))?;
    scope.log_and_write_pod(off, &updated)
}

/// Collects the FREE records sitting in `key`'s probe window of every
/// active level — the candidate set for probe-window defragmentation
/// (§5.4, trigger 2). Cache-managed records are skipped: they are
/// withdrawn from the free lists and must not be merged.
pub(crate) fn free_in_windows(op: &SubTx<'_>, key: u64) -> Result<Vec<(u64, HashEntry)>> {
    let active = (op.active_levels()? as usize).min(MAX_LEVELS);
    let mut found = Vec::new();
    for level in 0..active {
        let capacity = op.ctx.layout.level_capacity(level);
        let start = home_slot(key, level, capacity);
        for i in 0..PROBE_WINDOW.min(capacity) {
            let off = slot_off(op, level, (start + i) & (capacity - 1));
            let entry = op.entry(off)?;
            match entry.state {
                state::EMPTY => break,
                state::FREE if entry.flags & crate::persist::FLAG_CACHED == 0 => found.push((off, entry)),
                _ => {}
            }
        }
    }
    Ok(found)
}

/// Whether the top active level is empty, i.e. whether [`shrink`] would
/// deactivate anything. Two view reads — cheap enough to probe on every
/// free.
pub(crate) fn shrink_would_release(op: &SubTx<'_>) -> Result<bool> {
    let active = op.active_levels()? as usize;
    if active <= 1 {
        return Ok(false);
    }
    let count: u64 = op.read_pod(op.ctx.level_count_off(active - 1))?;
    Ok(count == 0)
}

/// Deactivates trailing levels whose live count is zero, hole-punching
/// their slots back to the device (§5.6). Runs its own scopes; safe to
/// call whenever no scope is open on this sub-heap.
pub(crate) fn shrink(op: &SubTx<'_>) -> Result<u64> {
    let mut released = 0;
    while let Some(bytes) = shrink_one(op)? {
        released += bytes;
    }
    Ok(released)
}

/// Deactivates the top active level if (and only if) its live count is
/// zero — one bounded unit of table shrinking: one two-fence commit plus
/// one hole punch. Returns the bytes released, or `None` when the top
/// level is still populated. [`shrink`] is this in a loop; the
/// maintenance engine calls it directly so each level retired counts
/// one unit against its budget.
pub(crate) fn shrink_one(op: &SubTx<'_>) -> Result<Option<u64>> {
    let active = op.active_levels()? as usize;
    if active <= 1 {
        return Ok(None);
    }
    let top = active - 1;
    let count: u64 = op.read_pod(op.ctx.level_count_off(top))?;
    if count != 0 {
        return Ok(None);
    }
    // Commit the deactivation first; only then punch. A crash in
    // between wastes space but loses nothing.
    let mut scope = op.undo()?;
    scope.log_and_write_pod(op.ctx.active_levels_off(), &(top as u64))?;
    scope.commit()?;
    Ok(Some(op.ctx.dev.punch_hole(
        op.ctx.layout.level_base(op.ctx.sub, top),
        op.ctx.layout.level_capacity(top) * ENTRY_SIZE,
    )?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::HeapLayout;
    use crate::persist::SubCtx;
    use crate::session::UndoScope;
    use pmem::{DeviceConfig, PmemDevice};

    /// Builds a device + layout with an initialised (zeroed) sub-heap 0
    /// whose header has `active_levels = 1`.
    fn setup() -> (PmemDevice, HeapLayout) {
        let layout = HeapLayout::compute(64 << 20, 2).unwrap();
        let dev = PmemDevice::new(DeviceConfig::new(64 << 20));
        let ctx = SubCtx { dev: &dev, layout: &layout, sub: 0 };
        dev.write_pod(ctx.active_levels_off(), &1u64).unwrap();
        (dev, layout)
    }

    fn entry(key: u64) -> HashEntry {
        HashEntry { offset: key, size: 64, state: state::ALLOC, ..Default::default() }
    }

    fn with_scope<R>(op: &SubTx<'_>, f: impl FnOnce(&mut UndoScope<'_, '_>) -> Result<R>) -> Result<R> {
        let mut s = op.undo()?;
        let r = f(&mut s)?;
        s.commit()?;
        Ok(r)
    }

    #[test]
    fn insert_then_lookup() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let off = with_scope(&op, |s| insert(&op, s, entry(4096), false)).unwrap();
        let (found_off, found) = lookup(&op, 4096).unwrap().unwrap();
        assert_eq!(found_off, off);
        assert_eq!(found.offset, 4096);
        assert_eq!(found.state, state::ALLOC);
        assert!(lookup(&op, 8192).unwrap().is_none());
    }

    #[test]
    fn delete_tombstones_and_lookup_probes_past() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        // Insert several keys, delete one, others must stay findable even
        // if they shared a probe chain with the deleted one.
        let keys: Vec<u64> = (0..20).map(|i| i * 32).collect();
        let offs: Vec<u64> =
            keys.iter().map(|&k| with_scope(&op, |s| insert(&op, s, entry(k), false)).unwrap()).collect();
        with_scope(&op, |s| delete(&op, s, offs[7])).unwrap();
        assert!(lookup(&op, keys[7]).unwrap().is_none());
        for (i, &k) in keys.iter().enumerate() {
            if i != 7 {
                assert!(lookup(&op, k).unwrap().is_some(), "key {k} lost");
            }
        }
    }

    #[test]
    fn tombstones_are_reused() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let off = with_scope(&op, |s| insert(&op, s, entry(64), false)).unwrap();
        with_scope(&op, |s| delete(&op, s, off)).unwrap();
        let off2 = with_scope(&op, |s| insert(&op, s, entry(64), false)).unwrap();
        assert_eq!(off, off2, "tombstoned home slot should be reused");
    }

    #[test]
    fn duplicate_insert_is_corruption() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        with_scope(&op, |s| insert(&op, s, entry(96), false)).unwrap();
        let r = with_scope(&op, |s| insert(&op, s, entry(96), false));
        assert!(matches!(r, Err(PoseidonError::Corrupted(_))));
    }

    #[test]
    fn second_tombstone_with_matching_stale_key_is_not_a_duplicate() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        // Two keys whose home slots collide in level 0 (away from the
        // wrap point so the probe order below is the slot order).
        let c0 = layout.c0;
        let (a, b) = (1..100_000u64)
            .map(|i| i * 32)
            .filter(|&k| home_slot(k, 0, c0) < c0 - PROBE_WINDOW)
            .scan(std::collections::HashMap::new(), |seen, k| {
                Some(seen.insert(home_slot(k, 0, c0), k).map(|first| (first, k)))
            })
            .flatten()
            .next()
            .expect("no colliding key pair found");
        let off_a = with_scope(&op, |s| insert(&op, s, entry(a), false)).unwrap();
        let off_b = with_scope(&op, |s| insert(&op, s, entry(b), false)).unwrap();
        assert_eq!(off_b, off_a + ENTRY_SIZE, "b probes to the next slot");
        with_scope(&op, |s| delete(&op, s, off_a)).unwrap();
        with_scope(&op, |s| delete(&op, s, off_b)).unwrap();
        // Re-inserting b walks past a's tombstone (captured for reuse)
        // and then meets its own stale tombstone — a dead record that
        // must not read as a duplicate insert.
        let off_b2 = with_scope(&op, |s| insert(&op, s, entry(b), false)).unwrap();
        assert_eq!(off_b2, off_a, "first tombstone in the window is reused");
        assert!(lookup(&op, b).unwrap().is_some());
        assert!(lookup(&op, a).unwrap().is_none());
    }

    #[test]
    fn level_count_tracks_live_entries() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let off = with_scope(&op, |s| insert(&op, s, entry(128), false)).unwrap();
        assert_eq!(dev.read_pod::<u64>(op.ctx.level_count_off(0)).unwrap(), 1);
        with_scope(&op, |s| delete(&op, s, off)).unwrap();
        assert_eq!(dev.read_pod::<u64>(op.ctx.level_count_off(0)).unwrap(), 0);
    }

    #[test]
    fn window_exhaustion_without_activation_is_table_full() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        // Fill level 0 completely (c0 entries), then one more insert with
        // allow_activate = false must fail.
        let mut inserted = 0u64;
        let mut key = 0u64;
        while inserted < layout.c0 {
            match with_scope(&op, |s| insert(&op, s, entry(key), false)) {
                Ok(_) => inserted += 1,
                Err(PoseidonError::TableFull) => break,
                Err(e) => panic!("unexpected {e}"),
            }
            key += 32;
        }
        // Keep probing keys until one fails.
        let r = loop {
            let r = with_scope(&op, |s| insert(&op, s, entry(key), false));
            key += 32;
            if r.is_err() || key > layout.c0 * 64 {
                break r;
            }
        };
        assert!(matches!(r, Err(PoseidonError::TableFull)));
    }

    #[test]
    fn activation_extends_and_lookup_spans_levels() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        // Fill until activation is needed, with activation allowed.
        let total = layout.c0 + 8;
        for i in 0..total {
            with_scope(&op, |s| insert(&op, s, entry(i * 32), true)).unwrap();
        }
        assert!(op.active_levels().unwrap() >= 2);
        for i in 0..total {
            assert!(lookup(&op, i * 32).unwrap().is_some(), "key {} lost after activation", i * 32);
        }
    }

    /// Runs `f` in a fresh transaction on sub-heap 0 and returns its
    /// result with the number of view reads it made (a view reports its
    /// reads to the device stats when it drops).
    fn counting_reads<R>(dev: &PmemDevice, layout: &HeapLayout, f: impl FnOnce(&SubTx<'_>) -> R) -> (R, u64) {
        let before = dev.stats().read_ops;
        let r = f(&SubTx::unguarded(SubCtx { dev, layout, sub: 0 }).unwrap());
        (r, dev.stats().read_ops - before)
    }

    #[test]
    fn newest_level_first_bounds_probes_per_operation() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let mut keys = Vec::new();
        let mut next_key = 0u64;
        let mut fresh_key = || {
            next_key += 32;
            next_key
        };
        // Grow to five active levels, saturating the table before each
        // activation: inserts that may not activate fill the windows until
        // TableFull repeats, then one insert that may activate opens the
        // next level. Levels 0..=3 end up saturated, as they are on a
        // long-running heap, and level 4 holds one record.
        while op.active_levels().unwrap() < 5 {
            let mut misses = 0;
            while misses < 16 {
                let key = fresh_key();
                match with_scope(&op, |s| insert(&op, s, entry(key), false)) {
                    Ok(_) => {
                        keys.push(key);
                        misses = 0;
                    }
                    Err(PoseidonError::TableFull) => misses += 1,
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            let levels = op.active_levels().unwrap();
            let key = fresh_key();
            with_scope(&op, |s| insert(&op, s, entry(key), true)).unwrap();
            assert_eq!(op.active_levels().unwrap(), levels + 1, "insert with activation opens a level");
            for &old in &keys {
                assert!(
                    lookup(&op, old).unwrap().is_some(),
                    "key {old} lost after activating level {levels}"
                );
            }
            keys.push(key);
        }
        drop(op);

        // Oldest-first probing reads a whole window of every saturated
        // level before reaching the newest: at least 4 * PROBE_WINDOW
        // reads per insert, and per lookup of a record in the newest
        // level. Newest-first stops in the newest level.
        let budget = PROBE_WINDOW;
        for _ in 0..8 {
            let key = fresh_key();
            let (inserted, reads) = counting_reads(&dev, &layout, |op| {
                let mut scope = op.undo()?;
                let off = insert(op, &mut scope, entry(key), true)?;
                scope.commit()?;
                Ok::<_, PoseidonError>(off)
            });
            let off = inserted.unwrap();
            assert!(reads < budget, "insert of a new key made {reads} reads (budget {budget})");
            let (found, reads) = counting_reads(&dev, &layout, |op| lookup(op, key).unwrap());
            assert_eq!(found.map(|(o, e)| (o, e.offset)), Some((off, key)));
            assert!(reads < budget, "lookup of the newest key made {reads} reads (budget {budget})");
            keys.push(key);
        }
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        assert_eq!(op.active_levels().unwrap(), 5, "a free newest level needs no activation");
        for &key in &keys {
            assert!(lookup(&op, key).unwrap().is_some(), "key {key} lost");
        }
        for _ in 0..8 {
            let absent = fresh_key();
            assert!(lookup(&op, absent).unwrap().is_none(), "absent key {absent} found");
        }
    }

    #[test]
    fn shrink_deactivates_empty_top_level() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let total = layout.c0 + 8;
        let mut offs = Vec::new();
        for i in 0..total {
            offs.push(with_scope(&op, |s| insert(&op, s, entry(i * 32), true)).unwrap());
        }
        let grown = op.active_levels().unwrap();
        assert!(grown >= 2);
        assert!(!shrink_would_release(&op).unwrap());
        // Delete everything in the upper levels.
        for &off in &offs {
            if level_of(&op, off) > 0 {
                with_scope(&op, |s| delete(&op, s, off)).unwrap();
            }
        }
        assert!(shrink_would_release(&op).unwrap());
        let released = shrink(&op).unwrap();
        assert_eq!(op.active_levels().unwrap(), 1);
        assert!(!shrink_would_release(&op).unwrap());
        // Level 1 spans at least one 2 MiB chunk only for big tables; just
        // check shrink reported monotonically.
        let _ = released;
        // Level-0 entries are still there.
        for &off in &offs {
            if level_of(&op, off) == 0 {
                let e = op.entry(off).unwrap();
                assert_eq!(e.state, state::ALLOC);
            }
        }
    }

    #[test]
    fn level_of_maps_bases_correctly() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        for level in 0..MAX_LEVELS {
            let base = layout.level_base(0, level);
            assert_eq!(level_of(&op, base), level);
            let last = base + (layout.level_capacity(level) - 1) * ENTRY_SIZE;
            assert_eq!(level_of(&op, last), level);
        }
    }

    #[test]
    fn free_in_windows_reports_free_records() {
        let (dev, layout) = setup();
        let op = SubTx::unguarded(SubCtx { dev: &dev, layout: &layout, sub: 0 }).unwrap();
        let mut e = entry(256);
        e.state = state::FREE;
        with_scope(&op, |s| insert(&op, s, e, false)).unwrap();
        let found = free_in_windows(&op, 256).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1.offset, 256);
    }
}
