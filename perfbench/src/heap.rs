//! The heap as every workload reaches it, and the counters read around it.
//!
//! [`Heap`] puts `PoseidonHeap` behind the `PersistentAllocator`
//! interface (so `FastFair` can allocate its nodes through it) and adds
//! the observation a round asks for: a span per call when traced, or the
//! device and MPK counter delta of each call when counting exactly.
//! [`Snapshot`] reads the heap's public getters so a phase can report
//! their deltas.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use pmem::{PmemDevice, StatsSnapshot};
use poseidon::PoseidonHeap;
use workloads::{AllocError, PersistentAllocator};

use crate::trace::{self, Name};

/// How a round observes its calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Mode {
    /// Nothing per call: the end-to-end throughput.
    #[default]
    Clean,
    /// Every heap call and operation timed: the end-to-end latencies.
    Timed,
    /// Spans around every call into a layer: the per-layer times.
    Traced,
    /// Single-threaded, timer-free; device and MPK counters attributed to
    /// each heap call: the counts that repeat exactly.
    Exact,
}

const MODES: [Mode; 4] = [Mode::Clean, Mode::Timed, Mode::Traced, Mode::Exact];

/// `PoseidonHeap` as the workloads call it.
#[derive(Debug)]
pub struct Heap {
    inner: PoseidonHeap,
    mode: AtomicU8,
}

impl Heap {
    /// Wraps `inner`, observing calls per `mode`.
    pub fn new(inner: PoseidonHeap, mode: Mode) -> Heap {
        Heap { inner, mode: AtomicU8::new(mode as u8) }
    }

    /// Switches how calls are observed (set-up runs clean, then the timed
    /// phase switches to the round's mode).
    pub fn set_mode(&self, mode: Mode) {
        self.mode.store(mode as u8, Ordering::Relaxed);
    }

    /// How calls are currently observed.
    pub fn mode(&self) -> Mode {
        MODES[self.mode.load(Ordering::Relaxed) as usize]
    }

    /// The wrapped heap (for getters, maintenance and audits).
    pub fn inner(&self) -> &PoseidonHeap {
        &self.inner
    }

    /// Frees the `size`-byte block at `offset` (the size only labels the
    /// span, so the trace can tell huge frees from buddy frees).
    pub fn free_sized(&self, offset: u64, size: u64) -> Result<(), AllocError> {
        self.observe(Name::Free, size, || PersistentAllocator::free(&self.inner, offset))
    }

    fn observe<R>(&self, name: Name, size: u64, call: impl FnOnce() -> R) -> R {
        match self.mode() {
            Mode::Traced => trace::span(true, name, size, call),
            Mode::Exact => exact_call(&self.inner, call),
            Mode::Clean | Mode::Timed => call(),
        }
    }
}

impl PersistentAllocator for Heap {
    fn alloc(&self, size: u64) -> Result<u64, AllocError> {
        self.observe(Name::Alloc, size, || PersistentAllocator::alloc(&self.inner, size))
    }

    fn free(&self, offset: u64) -> Result<(), AllocError> {
        self.free_sized(offset, 0)
    }

    fn device(&self) -> &Arc<PmemDevice> {
        self.inner.device()
    }

    fn name(&self) -> &'static str {
        "poseidon"
    }
}

/// Counts of the exact pass, attributed to heap alloc/free calls only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactCounts {
    /// Heap calls observed.
    pub calls: u64,
    /// `sfence`s issued inside them.
    pub sfences: u64,
    /// `clwb` line flushes issued inside them.
    pub clwbs: u64,
    /// Undo-log entries appended inside them.
    pub undo_entries: u64,
    /// Undo-log words appended inside them.
    pub undo_words: u64,
    /// Device access validations inside them.
    pub validations: u64,
    /// Metadata sessions (`map_meta`) opened inside them.
    pub meta_maps: u64,
    /// `wrpkru` executions inside them.
    pub wrpkru: u64,
}

thread_local! {
    static EXACT: RefCell<ExactCounts> = RefCell::new(ExactCounts::default());
}

fn exact_call<R>(heap: &PoseidonHeap, call: impl FnOnce() -> R) -> R {
    let dev = heap.device();
    let (d0, k0) = (dev.stats(), dev.mpk().stats().wrpkru_count);
    let out = call();
    let (d1, k1) = (dev.stats(), dev.mpk().stats().wrpkru_count);
    EXACT.with(|c| {
        let mut c = c.borrow_mut();
        c.calls += 1;
        c.sfences += d1.sfence_count - d0.sfence_count;
        c.clwbs += d1.clwb_count - d0.clwb_count;
        c.undo_entries += d1.undo_entries - d0.undo_entries;
        c.undo_words += d1.undo_words - d0.undo_words;
        c.validations += d1.validations - d0.validations;
        c.meta_maps += d1.meta_maps - d0.meta_maps;
        c.wrpkru += k1 - k0;
    });
    out
}

/// Takes (and zeroes) the calling thread's exact counts.
pub fn take_exact() -> ExactCounts {
    EXACT.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// The heap's public getters at one instant (or, after [`delta`], their
/// change over a phase).
///
/// [`delta`]: Snapshot::delta
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Device traffic counters.
    pub dev: StatsSnapshot,
    /// `wrpkru` executions in the device's MPK domain.
    pub wrpkru: u64,
    /// Sub-heap locks: nanoseconds held (thread CPU time), summed.
    pub subheap_held_ns: u64,
    /// Sub-heap locks: acquisitions, summed.
    pub subheap_acq: u64,
    /// Superblock lock acquisitions.
    pub superblock_acq: u64,
    /// Huge-region lock: nanoseconds held.
    pub huge_held_ns: u64,
    /// Huge-region lock acquisitions.
    pub huge_acq: u64,
    /// Cache hits, misses, refills and drains, summed over sub-heaps.
    pub cache: pmem::CacheStats,
    /// Buddy merges done by the maintenance engine.
    pub maint_merges: u64,
}

impl Snapshot {
    /// Reads every getter of `heap`.
    pub fn take(heap: &PoseidonHeap) -> Snapshot {
        let mut s = Snapshot {
            dev: heap.device().stats(),
            wrpkru: heap.device().mpk().stats().wrpkru_count,
            maint_merges: heap.health().maint_merges,
            ..Snapshot::default()
        };
        for lock in heap.contention_profile() {
            match lock.name.as_str() {
                "superblock" => s.superblock_acq = lock.acquisitions,
                "hugeregion" => (s.huge_held_ns, s.huge_acq) = (lock.held_ns, lock.acquisitions),
                _ => {
                    s.subheap_held_ns += lock.held_ns;
                    s.subheap_acq += lock.acquisitions;
                    if let Some(c) = lock.cache {
                        s.cache.hits += c.hits;
                        s.cache.misses += c.misses;
                        s.cache.refills += c.refills;
                        s.cache.drains += c.drains;
                    }
                }
            }
        }
        s
    }

    /// What changed from `earlier` to `self`.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let (a, b) = (&self.dev, &earlier.dev);
        Snapshot {
            dev: StatsSnapshot {
                read_ops: a.read_ops - b.read_ops,
                write_ops: a.write_ops - b.write_ops,
                bytes_read: a.bytes_read - b.bytes_read,
                bytes_written: a.bytes_written - b.bytes_written,
                read_lines_local: a.read_lines_local - b.read_lines_local,
                read_lines_remote: a.read_lines_remote - b.read_lines_remote,
                write_lines_local: a.write_lines_local - b.write_lines_local,
                write_lines_remote: a.write_lines_remote - b.write_lines_remote,
                clwb_count: a.clwb_count - b.clwb_count,
                sfence_count: a.sfence_count - b.sfence_count,
                protection_faults: a.protection_faults - b.protection_faults,
                uncorrectable_errors: a.uncorrectable_errors - b.uncorrectable_errors,
                lines_poisoned: a.lines_poisoned - b.lines_poisoned,
                validations: a.validations - b.validations,
                meta_maps: a.meta_maps - b.meta_maps,
                undo_entries: a.undo_entries - b.undo_entries,
                undo_words: a.undo_words - b.undo_words,
            },
            wrpkru: self.wrpkru - earlier.wrpkru,
            subheap_held_ns: self.subheap_held_ns - earlier.subheap_held_ns,
            subheap_acq: self.subheap_acq - earlier.subheap_acq,
            superblock_acq: self.superblock_acq - earlier.superblock_acq,
            huge_held_ns: self.huge_held_ns - earlier.huge_held_ns,
            huge_acq: self.huge_acq - earlier.huge_acq,
            cache: pmem::CacheStats {
                hits: self.cache.hits - earlier.cache.hits,
                misses: self.cache.misses - earlier.cache.misses,
                refills: self.cache.refills - earlier.cache.refills,
                drains: self.cache.drains - earlier.cache.drains,
            },
            maint_merges: self.maint_merges - earlier.maint_merges,
        }
    }
}
