//! `large`: the Larson server pattern on the persistent slow path.
//!
//! Clients share a slot array. Each operation frees the block a random
//! slot holds (often one the other client allocated, so the free contends
//! on the owner's sub-heap lock, §5.7) and allocates a new one into it.
//! Sizes are log-uniform from above 4 KiB (the largest cached class) up to
//! the layout's `max_alloc`, so the magazines never serve a call; a fixed
//! small share lands just above `max_alloc` and goes to the huge region.
//! Every block carries a 16-byte tag written after allocation and checked
//! before its free, so overlapping allocations show as tag mismatches.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pmem::{CrashMode, PmemDevice};
use poseidon::{HeapConfig, PoseidonHeap};
use workloads::PersistentAllocator;

use crate::gen::{self, LargeOp, LARGE_SLOTS};
use crate::heap::{self, Heap, Mode, Snapshot};
use crate::trace::{self, Classifier, Name};
use crate::{clock, Exact, Round, ThreadOut, Workload};

/// Client threads, each pinned to its own CPU.
pub const CLIENTS: usize = 2;
/// Operations per client per round.
pub const OPS: usize = 10_000;
/// Operations per client run in set-up, before the timed phase, so the
/// device's lazily materialised memory and the sub-heaps reach steady
/// state first (first touches inside the timed phase made `ops_per_s`
/// spread 0.15 across seeds; after this warm-up it spread 0.06).
pub const WARMUP: usize = 5_000;
/// Operations of client 0's stream the exact pass runs.
pub const EXACT_OPS: usize = 2_000;
/// Virtual device size (GiB). Sets `max_alloc` (16 MiB) and the huge
/// region (1 GiB); only touched pages become resident.
const DEVICE_GIB: u64 = 4;

/// What a slot holds: the block, its size and its tag.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    offset: u64,
    size: u64,
    tag: u64,
}

/// The `large` workload.
pub struct Large {
    seed: u64,
    max_alloc: u64,
    prefill: Vec<u64>,
    streams: Vec<Vec<LargeOp>>,
}

impl Large {
    /// Generates the inputs for `seed` against the device's layout.
    pub fn new(seed: u64) -> Large {
        let (_dev, heap) = create();
        let layout = heap.inner().layout();
        let max_alloc = layout.max_alloc();
        // Every slot holding the largest huge request must still leave
        // the huge region room, so a huge allocation can never fail.
        assert!(
            LARGE_SLOTS as u64 * gen::large_max_request(max_alloc) * 2 <= layout.huge_data_size(),
            "huge region too small for the slot array"
        );
        Large {
            seed,
            max_alloc,
            prefill: gen::large_prefill(seed, max_alloc),
            streams: gen::per_thread(CLIENTS, |t| gen::large_stream(seed, t, WARMUP + OPS, max_alloc)),
        }
    }

    /// Fills every slot, spreading the blocks over both clients' CPUs.
    fn prefill(&self, heap: &Heap) -> Result<Vec<Mutex<Slot>>, String> {
        let dev = heap.device();
        let mut slots = Vec::with_capacity(LARGE_SLOTS);
        for (i, &size) in self.prefill.iter().enumerate() {
            pmem::numa::set_current_cpu(i % CLIENTS);
            let offset = heap.alloc(size).map_err(|e| format!("prefill alloc({size}) failed: {e}"))?;
            let tag = gen::key_of(i as u64);
            write_tag(dev, offset, tag, size).map_err(|e| format!("prefill tag write failed: {e}"))?;
            slots.push(Mutex::new(Slot { offset, size, tag }));
        }
        pmem::numa::set_current_cpu(0);
        Ok(slots)
    }

    /// Runs ops `range` of `thread`'s stream.
    fn client(
        &self,
        heap: &Heap,
        slots: &[Mutex<Slot>],
        thread: usize,
        range: Range<usize>,
        mode: Mode,
    ) -> ThreadOut {
        let (timed, traced) = (mode == Mode::Timed, mode == Mode::Traced);
        let dev = heap.device();
        let mut out = ThreadOut::default();
        let mut blocks = std::collections::BTreeMap::new();
        for (i, op) in
            self.streams[thread][range.clone()].iter().enumerate().map(|(i, op)| (range.start + i, op))
        {
            let start = clock::now();
            trace::span(traced, Name::Op, 0, || {
                let mut slot = slots[op.slot as usize].lock().expect("slot lock poisoned");
                if slot.offset != 0 {
                    let ok = trace::span(traced, Name::PmemRead, 0, || read_tag(dev, slot.offset));
                    if ok.as_ref().ok() != Some(&(slot.tag, slot.size)) {
                        out.violations
                            .push(format!("tag of block {:#x} changed while it was live", slot.offset));
                    }
                    blocks.remove(&slot.offset);
                    let r =
                        clock::timed(timed, &mut out.free_ticks, || heap.free_sized(slot.offset, slot.size));
                    out.failed += u64::from(r.is_err());
                    *slot = Slot::default();
                }
                match clock::timed(timed, &mut out.alloc_ticks, || heap.alloc(op.size)) {
                    Ok(offset) => {
                        let tag = gen::key_of(((thread as u64) << 40) | i as u64);
                        let w =
                            trace::span(traced, Name::PmemWrite, 0, || write_tag(dev, offset, tag, op.size));
                        if w.is_err() {
                            out.violations.push(format!("tag write to fresh block {offset:#x} failed"));
                        }
                        if mode == Mode::Exact {
                            crate::check_disjoint(&mut blocks, offset, op.size, &mut out.violations);
                        }
                        *slot = Slot { offset, size: op.size, tag };
                    }
                    Err(_) => out.failed += 1,
                }
            });
            if timed {
                out.op_ticks.push(clock::now().wrapping_sub(start));
            }
            out.ops += 1;
        }
        out
    }

    /// Frees every slot, checking its tag.
    fn drain(heap: &Heap, slots: &[Mutex<Slot>], violations: &mut Vec<String>) {
        for slot in slots {
            let slot = *slot.lock().expect("slot lock poisoned");
            if slot.offset == 0 {
                continue;
            }
            if read_tag(heap.device(), slot.offset).ok() != Some((slot.tag, slot.size)) {
                violations.push(format!("tag of block {:#x} changed while it was live", slot.offset));
            }
            if let Err(e) = heap.free_sized(slot.offset, slot.size) {
                violations.push(format!("drain free of {:#x} failed: {e}", slot.offset));
            }
        }
    }
}

fn create() -> (Arc<PmemDevice>, Heap) {
    let dev = bench::bench_device(DEVICE_GIB);
    let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new()).expect("create large heap");
    (dev, Heap::new(heap, Mode::Clean))
}

fn write_tag(dev: &PmemDevice, offset: u64, tag: u64, size: u64) -> Result<(), pmem::PmemError> {
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&tag.to_le_bytes());
    bytes[8..].copy_from_slice(&size.to_le_bytes());
    dev.write(offset, &bytes)
}

fn read_tag(dev: &PmemDevice, offset: u64) -> Result<(u64, u64), pmem::PmemError> {
    let mut bytes = [0u8; 16];
    dev.read(offset, &mut bytes)?;
    let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    Ok((word(0), word(8)))
}

impl Workload for Large {
    fn describe(&self) -> String {
        format!(
            "clients: {CLIENTS}, {OPS} slot replacements each over {LARGE_SLOTS} shared slots, sizes log-uniform \
             4 KiB..{} MiB, {}% just above it (huge region)",
            self.max_alloc >> 20,
            gen::HUGE_PERMILLE as f64 / 10.0
        )
    }

    fn digest(&self) -> u64 {
        let mut streams = vec![self.prefill.iter().map(|&size| LargeOp { slot: u32::MAX, size }).collect()];
        streams.extend(self.streams.iter().cloned());
        gen::digest(&streams, |op| [u64::from(op.slot), op.size])
    }

    fn classes(&self) -> &'static [&'static str] {
        &["replace"]
    }

    fn round(&self, mode: Mode) -> Round {
        let mut round = Round { mode, ..Round::default() };
        let start = Instant::now();
        let (dev, heap) = create();
        let slots = match self.prefill(&heap) {
            Ok(slots) => slots,
            Err(e) => {
                round.violations.push(e);
                return round;
            }
        };
        let (warm, _) =
            crate::run_clients(CLIENTS, |t| self.client(&heap, &slots, t, 0..WARMUP, Mode::Clean));
        round.setup_s = start.elapsed().as_secs_f64();
        crate::absorb_warmup(&mut round, warm);

        heap.set_mode(mode);
        let before = Snapshot::take(heap.inner());
        let (outs, elapsed) =
            crate::run_clients(CLIENTS, |t| self.client(&heap, &slots, t, WARMUP..WARMUP + OPS, mode));
        round.elapsed_s = elapsed;
        round.delta = Snapshot::take(heap.inner()).delta(&before);
        round.resident_bytes = dev.resident_bytes();
        heap.set_mode(Mode::Clean);
        crate::absorb(&mut round, outs);

        Large::drain(&heap, &slots, &mut round.violations);
        crate::check_empty(heap.inner(), "after draining the slots", &mut round.violations);

        drop(heap);
        dev.simulate_crash(CrashMode::Strict, self.seed);
        let traced = mode == Mode::Traced;
        let (loaded, secs) = crate::timed_load(dev, HeapConfig::new(), traced);
        round.recover_s = secs;
        match loaded {
            Ok(heap) => trace::span(traced, Name::Verify, 0, || {
                crate::check_empty(&heap, "after recovery", &mut round.violations)
            }),
            Err(e) => round.violations.push(format!("recovery load failed: {e}")),
        }
        if traced {
            round.spans.push(trace::take());
        }
        round
    }

    fn classifier(&self, _round: &Round) -> Classifier {
        Classifier { max_alloc: self.max_alloc, ..Classifier::default() }
    }

    fn exact(&self) -> Exact {
        let (_dev, heap) = create();
        let mut violations = Vec::new();
        let slots = self.prefill(&heap).unwrap_or_else(|e| {
            violations.push(e);
            Vec::new()
        });
        if !violations.is_empty() {
            return Exact { violations, ..Exact::default() };
        }
        heap::take_exact();
        heap.set_mode(Mode::Exact);
        let before = Snapshot::take(heap.inner());
        let out = self.client(&heap, &slots, 0, 0..EXACT_OPS, Mode::Exact);
        let cache = Snapshot::take(heap.inner()).delta(&before).cache;
        let counts = heap::take_exact();
        heap.set_mode(Mode::Clean);
        violations.extend(out.violations);
        Large::drain(&heap, &slots, &mut violations);
        Exact { ops: out.ops, failed: out.failed, violations, counts, cache }
    }
}
