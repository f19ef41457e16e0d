//! The repository benchmark: three closed-loop workloads (`small`,
//! `large`, `kv`) driven through the public API of the Poseidon heap, the
//! FAST-FAIR tree and the simulated device, with a separate traced run
//! that attributes each operation's time to the layers it crosses.
//!
//! Nothing here reaches inside the allocator: counts are deltas of public
//! getters taken around a phase, and call times are spans this crate
//! records around its own calls into each layer (see `README.md`).

pub mod clock;
pub mod gen;
pub mod heap;
pub mod kv;
pub mod large;
pub mod report;
pub mod small;
pub mod trace;

use heap::{Mode, Snapshot};
use trace::Span;

/// What one round of a workload measured. A round is a fresh heap, its
/// set-up, one fixed-size timed phase over the pre-generated inputs, the
/// correctness checks and a crash/recovery cycle.
#[derive(Debug, Default)]
pub struct Round {
    /// How the timed phase observed its calls.
    pub mode: Mode,
    /// Set-up time: device and heap creation, prefill or key load, warm-up.
    pub setup_s: f64,
    /// Workload operations completed in the timed phase.
    pub ops: u64,
    /// Calls that returned an error (or exhausted their retries).
    pub failed: u64,
    /// Wall time of the timed phase.
    pub elapsed_s: f64,
    /// Per-call clock ticks of heap allocations (timed rounds only).
    pub alloc_ticks: Vec<u64>,
    /// Per-call clock ticks of heap frees (timed rounds only).
    pub free_ticks: Vec<u64>,
    /// Per-operation clock ticks (timed rounds only).
    pub op_ticks: Vec<u64>,
    /// Public-getter deltas across the timed phase.
    pub delta: Snapshot,
    /// Device resident bytes at the end of the timed phase.
    pub resident_bytes: u64,
    /// Mergeable-but-unmerged free bytes at the end of the timed phase.
    pub frag_bytes_end: u64,
    /// Crash to usable heap: load plus (for `kv`) shard reopen.
    pub recover_s: f64,
    /// Spans per thread, the recovery thread last (traced rounds only).
    pub spans: Vec<Vec<Span>>,
    /// Correctness violations found by the round's checks.
    pub violations: Vec<String>,
}

impl Round {
    /// Operations per second of the timed phase.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }
}

/// What one client thread of a timed phase hands back.
#[derive(Debug, Default)]
pub struct ThreadOut {
    /// Operations completed.
    pub ops: u64,
    /// Calls that failed.
    pub failed: u64,
    /// Per-call allocation ticks (timed rounds).
    pub alloc_ticks: Vec<u64>,
    /// Per-call free ticks (timed rounds).
    pub free_ticks: Vec<u64>,
    /// Per-operation ticks (timed rounds).
    pub op_ticks: Vec<u64>,
    /// Recorded spans (traced rounds).
    pub spans: Vec<Span>,
    /// Correctness violations.
    pub violations: Vec<String>,
}

/// Runs `work(thread)` on `clients` threads, each pinned to its own CPU
/// (both the host CPU and the device's logical CPU), released together by
/// a barrier. Returns the threads' outputs and the wall time from the
/// release to the last thread finishing.
pub fn run_clients<F>(clients: usize, work: F) -> (Vec<ThreadOut>, f64)
where
    F: Fn(usize) -> ThreadOut + Sync,
{
    let barrier = std::sync::Barrier::new(clients + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|thread| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    clock::pin_to_cpu(thread);
                    pmem::numa::set_current_cpu(thread);
                    barrier.wait();
                    let mut out = work(thread);
                    out.spans = trace::take();
                    out
                })
            })
            .collect();
        barrier.wait();
        let start = std::time::Instant::now();
        let outs: Vec<ThreadOut> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (outs, start.elapsed().as_secs_f64())
    })
}

/// Folds the client outputs of a timed phase into `round`.
pub fn absorb(round: &mut Round, outs: Vec<ThreadOut>) {
    for out in outs {
        round.ops += out.ops;
        round.failed += out.failed;
        round.alloc_ticks.extend(out.alloc_ticks);
        round.free_ticks.extend(out.free_ticks);
        round.op_ticks.extend(out.op_ticks);
        round.violations.extend(out.violations);
        if round.mode == Mode::Traced {
            round.spans.push(out.spans);
        }
    }
}

/// Folds the client outputs of a set-up warm-up into `round`: its
/// failures and violations count, its operations are not measured.
pub fn absorb_warmup(round: &mut Round, outs: Vec<ThreadOut>) {
    for out in outs {
        if out.failed > 0 {
            round.violations.push(format!("{} warm-up calls failed", out.failed));
        }
        round.violations.extend(out.violations);
    }
}

/// Sum of allocated bytes the heap's audits report (sub-heaps plus the
/// huge region), or a violation describing why the audit failed.
fn live_bytes(heap: &poseidon::PoseidonHeap) -> Result<u64, String> {
    let subs = heap.audit().map_err(|e| format!("audit failed: {e}"))?;
    let huge = heap.huge_audit().map_err(|e| format!("huge audit failed: {e}"))?;
    Ok(subs.iter().map(|(_, a)| a.alloc_bytes).sum::<u64>() + huge.map_or(0, |h| h.alloc_bytes))
}

/// The single-threaded, timer-free pass: counts that repeat exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exact {
    /// Workload operations in the pass.
    pub ops: u64,
    /// Calls that failed.
    pub failed: u64,
    /// Correctness violations (the pass also checks every live block is
    /// disjoint from every other).
    pub violations: Vec<String>,
    /// Device and MPK counts inside the pass's heap calls.
    pub counts: heap::ExactCounts,
    /// Cache counter deltas across the pass.
    pub cache: pmem::CacheStats,
}

/// One benchmark workload.
pub trait Workload {
    /// One line on what the generated inputs are.
    fn describe(&self) -> String;
    /// Digest of the generated op streams.
    fn digest(&self) -> u64;
    /// Names of the op classes its operation spans carry.
    fn classes(&self) -> &'static [&'static str];
    /// Runs one round.
    fn round(&self, mode: Mode) -> Round;
    /// How the trace tells allocator layers apart in `round`.
    fn classifier(&self, round: &Round) -> trace::Classifier;
    /// Runs the exact-count pass.
    fn exact(&self) -> Exact;
}

/// Recovers from a crash with `load`, timing it (and spanning it when
/// traced): returns the heap and the seconds taken.
pub fn timed_load(
    dev: std::sync::Arc<pmem::PmemDevice>,
    config: poseidon::HeapConfig,
    traced: bool,
) -> (Result<poseidon::PoseidonHeap, poseidon::PoseidonError>, f64) {
    let start = std::time::Instant::now();
    let heap = trace::span(traced, trace::Name::Load, 0, || poseidon::PoseidonHeap::load(dev, config));
    (heap, start.elapsed().as_secs_f64())
}

/// Records `[offset, offset + size)` as live, flagging any overlap with
/// a block already live.
pub fn check_disjoint(
    blocks: &mut std::collections::BTreeMap<u64, u64>,
    offset: u64,
    size: u64,
    violations: &mut Vec<String>,
) {
    let end = offset + size;
    let before = blocks.range(..=offset).next_back().filter(|(_, &e)| e > offset);
    let after = blocks.range(offset..).next().filter(|(&s, _)| s < end);
    if let Some((s, e)) = before.or(after) {
        violations.push(format!("block [{offset:#x}, {end:#x}) overlaps live block [{s:#x}, {e:#x})"));
    }
    blocks.insert(offset, end);
}

/// Flags any live bytes the heap's audits report.
pub fn check_empty(heap: &poseidon::PoseidonHeap, when: &str, violations: &mut Vec<String>) {
    match live_bytes(heap) {
        Ok(0) => {}
        Ok(bytes) => violations.push(format!("{bytes} bytes still allocated {when}")),
        Err(e) => violations.push(format!("{e} ({when})")),
    }
}
