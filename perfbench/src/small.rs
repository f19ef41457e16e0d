//! `small`: the Fig. 6 micro protocol on the cached path.
//!
//! Each client runs thread-local batches of 100 allocations and 100 frees,
//! randomly interleaved, with sizes spread log-uniformly over 32 B–4 KiB
//! (every cached class), on the default `HeapConfig` over the benchmark
//! device. The per-CPU magazines serve almost every call; the backend, the
//! undo log and the device are touched only on refill and drain.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use pmem::{CrashMode, PmemDevice};
use poseidon::{HeapConfig, PoseidonHeap};
use workloads::PersistentAllocator;

use crate::gen::{self, BATCH, FREE_BIT, SMALL_MAX};
use crate::heap::{self, Heap, Mode, Snapshot};
use crate::trace::{self, Classifier, Name};
use crate::{clock, Exact, Round, ThreadOut, Workload};

/// Client threads. One, not two: with two, the cached path's shared
/// counters bounce a cache line between the CPUs on every call, and what
/// that costs depends on where the host places the two virtual CPUs, so
/// throughput changed by a third from run to run (see `README.md`).
pub const CLIENTS: usize = 1;
/// Batches per client per round.
pub const BATCHES: usize = 10_000;
/// Batches per client run in set-up, before the timed phase: the first
/// call creates the client's sub-heap and the first refills fill the
/// magazines, one-off work that is set-up rather than steady state.
pub const WARMUP_BATCHES: usize = 500;
/// Batches per client in a traced round (spans are kept in memory).
pub const TRACED_BATCHES: usize = 500;
/// Batches of client 0's stream the exact pass runs.
pub const EXACT_BATCHES: usize = 100;
/// Virtual device size (GiB); only touched pages become resident.
const DEVICE_GIB: u64 = 1;

/// The `small` workload.
pub struct Small {
    seed: u64,
    streams: Vec<Vec<u32>>,
}

impl Small {
    /// Generates the inputs for `seed`.
    pub fn new(seed: u64) -> Small {
        Small {
            seed,
            streams: gen::per_thread(CLIENTS, |t| gen::small_stream(seed, t, WARMUP_BATCHES + BATCHES)),
        }
    }

    fn create(&self) -> (Arc<PmemDevice>, Heap) {
        let dev = bench::bench_device(DEVICE_GIB);
        let heap = PoseidonHeap::create(dev.clone(), HeapConfig::new()).expect("create small heap");
        (dev, Heap::new(heap, Mode::Clean))
    }

    /// Runs `stream` against `heap`; `check` (exact pass
    /// only) tracks every live block and flags overlaps.
    fn client(&self, heap: &Heap, stream: &[u32], mode: Mode, check: bool) -> ThreadOut {
        let (timed, traced) = (mode == Mode::Timed, mode == Mode::Traced);
        let mut out = ThreadOut::default();
        if timed {
            out.alloc_ticks.reserve(stream.len() / 2);
            out.free_ticks.reserve(stream.len() / 2);
            out.op_ticks.reserve(stream.len());
        }
        let mut live: Vec<(u64, u64)> = Vec::with_capacity(BATCH);
        let mut blocks: BTreeMap<u64, u64> = BTreeMap::new();
        for &entry in stream {
            if entry & FREE_BIT == 0 {
                let size = u64::from(entry);
                let r = trace::span(traced, Name::Op, 0, || {
                    clock::timed(timed, &mut out.alloc_ticks, || heap.alloc(size))
                });
                match r {
                    Ok(offset) => {
                        if check {
                            crate::check_disjoint(&mut blocks, offset, size, &mut out.violations);
                        }
                        live.push((offset, size));
                    }
                    Err(_) => {
                        out.failed += 1;
                        live.push((0, size));
                    }
                }
                if timed {
                    out.op_ticks.push(*out.alloc_ticks.last().expect("just timed"));
                }
            } else {
                let (offset, size) = live.swap_remove((entry & !FREE_BIT) as usize);
                if offset != 0 {
                    blocks.remove(&offset);
                    let r = trace::span(traced, Name::Op, 1, || {
                        clock::timed(timed, &mut out.free_ticks, || heap.free_sized(offset, size))
                    });
                    out.failed += u64::from(r.is_err());
                    if timed {
                        out.op_ticks.push(*out.free_ticks.last().expect("just timed"));
                    }
                }
            }
            out.ops += 1;
        }
        out
    }
}

impl Workload for Small {
    fn describe(&self) -> String {
        format!(
            "clients: {}, {BATCHES} batches each of {BATCH} allocs + {BATCH} frees, sizes log-uniform 32 B..4 KiB",
            self.streams.len()
        )
    }

    fn digest(&self) -> u64 {
        gen::digest(&self.streams, |&e| [u64::from(e), 0])
    }

    fn classes(&self) -> &'static [&'static str] {
        &["alloc", "free"]
    }

    fn round(&self, mode: Mode) -> Round {
        let mut round = Round { mode, ..Round::default() };
        let start = Instant::now();
        let (dev, heap) = self.create();
        let warm = 2 * BATCH * WARMUP_BATCHES;
        let (outs, _) =
            crate::run_clients(CLIENTS, |t| self.client(&heap, &self.streams[t][..warm], Mode::Clean, false));
        round.setup_s = start.elapsed().as_secs_f64();
        crate::absorb_warmup(&mut round, outs);

        let timed = warm..warm + 2 * BATCH * if mode == Mode::Traced { TRACED_BATCHES } else { BATCHES };
        heap.set_mode(mode);
        let (before, ops0) = (Snapshot::take(heap.inner()), heap.inner().op_stats());
        let (outs, elapsed) =
            crate::run_clients(CLIENTS, |t| self.client(&heap, &self.streams[t][timed.clone()], mode, false));
        round.elapsed_s = elapsed;
        round.delta = Snapshot::take(heap.inner()).delta(&before);
        round.resident_bytes = dev.resident_bytes();
        heap.set_mode(Mode::Clean);
        let ops1 = heap.inner().op_stats();
        crate::absorb(&mut round, outs);

        let calls = round.ops - round.failed;
        let served = (ops1.allocs - ops0.allocs) + (ops1.frees - ops0.frees);
        if served != calls {
            round.violations.push(format!("heap counted {served} allocs+frees for {calls} successful calls"));
        }
        crate::check_empty(heap.inner(), "after the timed phase", &mut round.violations);

        // Crash with blocks still parked in the magazines (withdrawn on
        // media), then recover: load must hand them back to the buddy.
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

    fn classifier(&self, round: &Round) -> Classifier {
        Classifier {
            cached: true,
            cache_max: SMALL_MAX,
            max_alloc: u64::MAX,
            alloc_misses: round.delta.cache.misses,
            free_drains: round.delta.cache.drains,
        }
    }

    fn exact(&self) -> Exact {
        let (_dev, heap) = self.create();
        pmem::numa::set_current_cpu(0);
        heap::take_exact();
        heap.set_mode(Mode::Exact);
        let before = Snapshot::take(heap.inner());
        let out = self.client(&heap, &self.streams[0][..2 * BATCH * EXACT_BATCHES], Mode::Exact, true);
        let cache = Snapshot::take(heap.inner()).delta(&before).cache;
        Exact {
            ops: out.ops,
            failed: out.failed,
            violations: out.violations,
            counts: heap::take_exact(),
            cache,
        }
    }
}
