//! `kv`: a kvserve-shaped service built from public parts.
//!
//! Clients ([`CLIENTS`]) issue a zipfian (θ 0.99) 60/25/10/5
//! read/update/insert/scan mix against four FAST-FAIR shards that share one uncached heap on a
//! crash-tracking device. Values are 100-byte blocks whose first 16 bytes
//! carry a payload derived from the key; reads check it, updates and
//! inserts allocate a fresh block (and updates free the old one), so an
//! allocator change moves updates and inserts and leaves reads flat.
//! Client 0 also runs the maintenance engine and the scrubber inline with
//! kvserve's budgets. After the timed phase the device crashes, the heap
//! is loaded back, the shards reopened and every acknowledged key re-read.
//!
//! The heap runs without its cache because the service acknowledges an
//! operation as durable the moment its tree call returns; cached blocks
//! only become durable at the next publish (see `README.md`).

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use pmem::{CrashMode, DeviceConfig, PmemDevice, PmemError};
use poseidon::{HeapConfig, PoseidonHeap};
use workloads::fastfair::FastFair;
use workloads::PersistentAllocator;

use crate::gen::{self, key_of, KvClass, KvOp, KV_LOAD_KEYS, KV_VALUE};
use crate::heap::{self, Heap, Mode, Snapshot};
use crate::trace::{self, Classifier, Name};
use crate::{clock, Exact, Round, ThreadOut, Workload};

/// Client threads. One, not two: with two, the clients contend on the
/// crash-tracking device's global flush queue and protection memo and on
/// the tree lock, and what that contention costs depends on where the host
/// places the two virtual CPUs, so latencies moved by a fifth from run to
/// run (see `README.md`). `large` keeps the two-client contention.
pub const CLIENTS: usize = 1;
/// Requests per client per round.
pub const OPS: usize = 30_000;
/// Requests per client run in set-up after the key load, before the timed
/// phase, so the heap and the device reach steady state first.
pub const WARMUP: usize = 5_000;
/// Requests of client 0's stream the exact pass runs.
pub const EXACT_OPS: usize = 2_000;
/// Independent trees (keys route by hash).
pub const SHARDS: usize = 4;
/// Client 0 runs one maintenance tick and one scrub step every this
/// many requests.
pub const MAINT_EVERY: usize = 256;
/// kvserve's per-tick maintenance budget (work units).
pub const MAINT_BUDGET: usize = 4;
/// kvserve's per-tick scrub budget (units examined).
pub const SCRUB_BUDGET: usize = 4;
/// Device capacity.
const CAPACITY: u64 = 128 << 20;
/// Sub-heaps of the service heap (as kvserve).
const SUBHEAPS: u16 = 8;
/// Marks the shard directory block.
const DIR_MAGIC: u64 = 0x5045_5246_4B56_4452;
/// Folded into the second payload word.
const SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Re-reads of a value recycled by a concurrent update before a read
/// counts as failed.
const READ_RETRIES: usize = 1_000;

/// Op-span class of a maintenance tick (after the request classes).
const MAINT_CLASS: u64 = 4;

fn heap_config() -> HeapConfig {
    HeapConfig::new().with_subheaps(SUBHEAPS).without_cache()
}

/// The running service: the heap, its shard trees and the directory
/// block anchoring their roots.
struct Service {
    heap: Arc<Heap>,
    shards: Vec<FastFair<Heap>>,
}

impl Service {
    fn dev(&self) -> &Arc<PmemDevice> {
        self.heap.device()
    }

    fn shard(&self, key: u64) -> &FastFair<Heap> {
        &self.shards[(key % SHARDS as u64) as usize]
    }

    /// A fresh service on a new device: directory block anchored as the
    /// heap root, one empty tree per shard.
    fn create() -> Result<Service, String> {
        let dev = Arc::new(PmemDevice::new(DeviceConfig::new(CAPACITY).with_media_faults(false)));
        let heap = PoseidonHeap::create(dev.clone(), heap_config()).map_err(|e| format!("create: {e}"))?;
        let heap = Arc::new(Heap::new(heap, Mode::Clean));
        let dir_bytes = (2 + SHARDS as u64) * 8;
        let dir = heap.alloc(dir_bytes).map_err(|e| format!("directory alloc: {e}"))?;
        dev.write_pod(dir, &DIR_MAGIC).map_err(|e| e.to_string())?;
        dev.write_pod(dir + 8, &(SHARDS as u64)).map_err(|e| e.to_string())?;
        let mut shards = Vec::with_capacity(SHARDS);
        for s in 0..SHARDS {
            let mut tree = FastFair::new(heap.clone()).map_err(|e| format!("shard root: {e}"))?;
            let slot = dir + 16 + s as u64 * 8;
            dev.write_pod(slot, &tree.root_offset()).map_err(|e| e.to_string())?;
            anchor_roots(&mut tree, dev.clone(), slot);
            shards.push(tree);
        }
        dev.persist(dir, dir_bytes).map_err(|e| e.to_string())?;
        let root = heap.inner().nvmptr_of(dir).map_err(|e| e.to_string())?;
        heap.inner().set_root(root).map_err(|e| format!("anchor directory: {e}"))?;
        Ok(Service { heap, shards })
    }

    /// Reopens the shard trees of a recovered heap from its directory.
    fn reopen(heap: PoseidonHeap) -> Result<Service, String> {
        let heap = Arc::new(Heap::new(heap, Mode::Clean));
        let dev = heap.device().clone();
        let root = heap.inner().root().map_err(|e| e.to_string())?;
        let dir = heap.inner().raw_offset(root).map_err(|e| format!("directory pointer: {e}"))?;
        let magic: u64 = dev.read_pod(dir).map_err(|e| e.to_string())?;
        let count: u64 = dev.read_pod(dir + 8).map_err(|e| e.to_string())?;
        if magic != DIR_MAGIC || count != SHARDS as u64 {
            return Err(format!("directory corrupt after recovery: magic {magic:#x}, {count} shards"));
        }
        let mut shards = Vec::with_capacity(SHARDS);
        for s in 0..SHARDS {
            let slot = dir + 16 + s as u64 * 8;
            let anchored: u64 = dev.read_pod(slot).map_err(|e| e.to_string())?;
            let mut tree = FastFair::open(heap.clone(), anchored);
            anchor_roots(&mut tree, dev.clone(), slot);
            shards.push(tree);
        }
        Ok(Service { heap, shards })
    }

    /// Allocates a value block for `key` and persists its payload.
    fn new_value(&self, key: u64, traced: bool, out: &mut ThreadOut, timed: bool) -> Option<u64> {
        let r = clock::timed(timed, &mut out.alloc_ticks, || self.heap.alloc(KV_VALUE));
        let Ok(offset) = r else {
            out.failed += 1;
            return None;
        };
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&key.to_le_bytes());
        bytes[8..].copy_from_slice(&(key ^ SALT).to_le_bytes());
        let w = trace::span(traced, Name::PmemWrite, 0, || self.dev().write(offset, &bytes));
        let p = trace::span(traced, Name::PmemPersist, 0, || self.dev().persist(offset, 16));
        if w.is_err() || p.is_err() {
            out.violations.push(format!("payload write to fresh block {offset:#x} failed"));
        }
        Some(offset)
    }

    fn payload_matches(&self, offset: u64, key: u64, traced: bool) -> Result<bool, PmemError> {
        trace::span(traced, Name::PmemRead, 0, || {
            let mut bytes = [0u8; 16];
            self.dev().read(offset, &mut bytes)?;
            Ok(bytes[..8] == key.to_le_bytes() && bytes[8..] == (key ^ SALT).to_le_bytes())
        })
    }

    /// Inserts key id `id` with a fresh value (set-up and client inserts).
    fn insert(&self, id: u64, traced: bool, out: &mut ThreadOut, timed: bool) {
        let key = key_of(id);
        let Some(value) = self.new_value(key, traced, out, timed) else { return };
        match trace::span(traced, Name::TreeInsert, 0, || self.shard(key).insert(key, value)) {
            Ok(None) => {}
            Ok(Some(_)) => out.violations.push(format!("insert of fresh key id {id} found it present")),
            Err(_) => out.failed += 1,
        }
    }

    fn read(&self, id: u64, traced: bool, out: &mut ThreadOut) {
        let key = key_of(id);
        for _ in 0..READ_RETRIES {
            let Some(offset) = trace::span(traced, Name::TreeGet, 0, || self.shard(key).get(key)) else {
                out.violations.push(format!("acknowledged key id {id} missing"));
                return;
            };
            match self.payload_matches(offset, key, traced) {
                Ok(true) => return,
                // A concurrent update freed (and maybe recycled) the block
                // after the lookup: look the key up again.
                Ok(false) => continue,
                Err(e) => {
                    out.violations.push(format!("value read of key id {id} failed: {e}"));
                    return;
                }
            }
        }
        out.failed += 1;
    }

    fn update(&self, id: u64, traced: bool, out: &mut ThreadOut, timed: bool) {
        let key = key_of(id);
        let Some(value) = self.new_value(key, traced, out, timed) else { return };
        match trace::span(traced, Name::TreeUpdate, 0, || self.shard(key).update(key, value)) {
            Some(old) => {
                let r = clock::timed(timed, &mut out.free_ticks, || self.heap.free_sized(old, KV_VALUE));
                out.failed += u64::from(r.is_err());
            }
            None => out.violations.push(format!("acknowledged key id {id} missing on update")),
        }
    }

    fn scan(&self, id: u64, len: u8, traced: bool, out: &mut ThreadOut) {
        let key = key_of(id);
        let pairs = trace::span(traced, Name::TreeScan, 0, || self.shard(key).scan(key, usize::from(len)));
        if pairs.first().is_none_or(|&(first, _)| first != key) {
            out.violations.push(format!("scan from present key id {id} did not start at it"));
        }
        if pairs.windows(2).any(|w| w[0].0 >= w[1].0) {
            out.violations.push(format!("scan from key id {id} returned keys out of order"));
        }
    }

    /// One inline maintenance tick and scrub step.
    fn maintain(&self, traced: bool, out: &mut ThreadOut) {
        trace::span(traced, Name::Op, MAINT_CLASS, || {
            let m = trace::span(traced, Name::Maint, 0, || self.heap.inner().maint_tick(MAINT_BUDGET));
            let s = trace::span(traced, Name::Scrub, 0, || self.heap.inner().scrub_step(SCRUB_BUDGET));
            out.failed += u64::from(m.is_err()) + u64::from(s.is_err());
        });
    }
}

/// Persists a shard's new root into its directory slot before the root
/// becomes visible, so a crash leaves at most a stale anchor.
fn anchor_roots(tree: &mut FastFair<Heap>, dev: Arc<PmemDevice>, slot: u64) {
    tree.on_root_change(Box::new(move |root| {
        dev.write_pod(slot, &root).expect("anchor shard root");
        dev.persist(slot, 8).expect("persist shard root");
    }));
}

/// The `kv` workload.
pub struct Kv {
    seed: u64,
    streams: Vec<Vec<KvOp>>,
}

impl Kv {
    /// Generates the inputs for `seed`.
    pub fn new(seed: u64) -> Kv {
        Kv { seed, streams: gen::per_thread(CLIENTS, |t| gen::kv_stream(seed, t, WARMUP + OPS)) }
    }

    /// Creates the service and loads every key (clients split the keys).
    fn setup(&self) -> Result<Service, String> {
        let svc = Service::create()?;
        let (outs, _) = crate::run_clients(CLIENTS, |t| {
            let mut out = ThreadOut::default();
            let per = KV_LOAD_KEYS / CLIENTS as u64;
            let end = if t == CLIENTS - 1 { KV_LOAD_KEYS } else { (t as u64 + 1) * per };
            for id in t as u64 * per..end {
                svc.insert(id, false, &mut out, false);
            }
            out
        });
        let problems: Vec<String> = outs
            .into_iter()
            .flat_map(|o| {
                let failed = (o.failed > 0).then(|| format!("{} key-load calls failed", o.failed));
                o.violations.into_iter().chain(failed)
            })
            .collect();
        if problems.is_empty() {
            Ok(svc)
        } else {
            Err(problems.join("; "))
        }
    }

    /// Runs requests `range` of `thread`'s stream.
    fn client(&self, svc: &Service, thread: usize, range: Range<usize>, mode: Mode) -> ThreadOut {
        let (timed, traced) = (mode == Mode::Timed, mode == Mode::Traced);
        let mut out = ThreadOut::default();
        for (i, op) in
            self.streams[thread][range.clone()].iter().enumerate().map(|(i, op)| (range.start + i, op))
        {
            if thread == 0 && i % MAINT_EVERY == MAINT_EVERY - 1 {
                svc.maintain(traced, &mut out);
            }
            let start = clock::now();
            trace::span(traced, Name::Op, op.class as u64, || match op.class {
                KvClass::Read => svc.read(op.id, traced, &mut out),
                KvClass::Update => svc.update(op.id, traced, &mut out, timed),
                KvClass::Insert => svc.insert(op.id, traced, &mut out, timed),
                KvClass::Scan => svc.scan(op.id, op.len, traced, &mut out),
            });
            if timed {
                out.op_ticks.push(clock::now().wrapping_sub(start));
            }
            out.ops += 1;
        }
        out
    }

    /// Key ids acknowledged once every client's requests are done.
    fn acknowledged(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = (0..KV_LOAD_KEYS).collect();
        for stream in &self.streams {
            ids.extend(stream.iter().filter(|op| op.class == KvClass::Insert).map(|op| op.id));
        }
        ids
    }

    /// Crashes `svc`'s device, loads and reopens the service, and re-reads
    /// every acknowledged key. Returns the seconds from crash to a usable
    /// service.
    fn crash_and_recover(&self, svc: Service, traced: bool, violations: &mut Vec<String>) -> f64 {
        let dev = svc.dev().clone();
        drop(svc); // No close: this is the crash.
        dev.simulate_crash(CrashMode::Strict, self.seed);
        let (loaded, load_s) = crate::timed_load(dev, heap_config(), traced);
        let heap = match loaded {
            Ok(heap) => heap,
            Err(e) => {
                violations.push(format!("recovery load failed: {e}"));
                return load_s;
            }
        };
        let start = Instant::now();
        let svc = match trace::span(traced, Name::Reopen, 0, || Service::reopen(heap)) {
            Ok(svc) => svc,
            Err(e) => {
                violations.push(e);
                return load_s;
            }
        };
        let recover_s = load_s + start.elapsed().as_secs_f64();
        let ids = self.acknowledged();
        trace::span(traced, Name::Verify, 0, || {
            let mut out = ThreadOut::default();
            for &id in &ids {
                svc.read(id, false, &mut out);
            }
            let population: u64 = svc.shards.iter().map(|s| s.len()).sum();
            if population != ids.len() as u64 {
                out.violations.push(format!("{population} keys after recovery, {} acknowledged", ids.len()));
            }
            if out.failed > 0 {
                out.violations.push(format!("{} payloads wrong after recovery", out.failed));
            }
            violations.extend(out.violations);
        });
        recover_s
    }
}

impl Workload for Kv {
    fn describe(&self) -> String {
        format!(
            "clients: {CLIENTS}, {OPS} requests each, 60/25/10/5 read/update/insert/scan, zipfian theta {} over \
             {KV_LOAD_KEYS} loaded keys, {KV_VALUE} B values, {SHARDS} shards, uncached heap",
            gen::KV_THETA
        )
    }

    fn digest(&self) -> u64 {
        gen::digest(&self.streams, |op| [op.class as u64, op.id ^ (u64::from(op.len) << 56)])
    }

    fn classes(&self) -> &'static [&'static str] {
        &["read", "update", "insert", "scan", "maint"]
    }

    fn round(&self, mode: Mode) -> Round {
        let mut round = Round { mode, ..Round::default() };
        let start = Instant::now();
        let svc = match self.setup() {
            Ok(svc) => svc,
            Err(e) => {
                round.violations.push(e);
                return round;
            }
        };
        let (warm, _) = crate::run_clients(CLIENTS, |t| self.client(&svc, t, 0..WARMUP, Mode::Clean));
        round.setup_s = start.elapsed().as_secs_f64();
        crate::absorb_warmup(&mut round, warm);

        svc.heap.set_mode(mode);
        let before = Snapshot::take(svc.heap.inner());
        let (outs, elapsed) =
            crate::run_clients(CLIENTS, |t| self.client(&svc, t, WARMUP..WARMUP + OPS, mode));
        round.elapsed_s = elapsed;
        round.delta = Snapshot::take(svc.heap.inner()).delta(&before);
        round.resident_bytes = svc.dev().resident_bytes();
        svc.heap.set_mode(Mode::Clean);
        round.frag_bytes_end = svc.heap.inner().fragmentation().map_or(0, |f| f.frag_bytes());
        crate::absorb(&mut round, outs);

        let traced = mode == Mode::Traced;
        round.recover_s = self.crash_and_recover(svc, traced, &mut round.violations);
        if traced {
            round.spans.push(trace::take());
        }
        round
    }

    fn classifier(&self, _round: &Round) -> Classifier {
        Classifier { max_alloc: u64::MAX, ..Classifier::default() }
    }

    fn exact(&self) -> Exact {
        pmem::numa::set_current_cpu(0);
        let svc = match Service::create() {
            Ok(svc) => svc,
            Err(e) => return Exact { violations: vec![e], ..Exact::default() },
        };
        let mut load = ThreadOut::default();
        for id in 0..KV_LOAD_KEYS {
            svc.insert(id, false, &mut load, false);
        }
        heap::take_exact();
        svc.heap.set_mode(Mode::Exact);
        let before = Snapshot::take(svc.heap.inner());
        let out = self.client(&svc, 0, 0..EXACT_OPS, Mode::Exact);
        let cache = Snapshot::take(svc.heap.inner()).delta(&before).cache;
        let counts = heap::take_exact();
        let violations = load.violations.into_iter().chain(out.violations).collect();
        Exact { ops: out.ops, failed: load.failed + out.failed, violations, counts, cache }
    }
}
