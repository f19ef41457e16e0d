//! Input generation. Every workload's op stream is a pure function of the
//! seed (and the heap geometry it targets), generated before any round
//! runs; the program only ever sees the generated inputs. [`Fnv`] folds a
//! stream into the digest the run prints, so two commits can be shown to
//! have run identical inputs.

use workloads::Xorshift;

/// FNV-1a 64 over little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `word` into the digest.
    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01B3);
        }
    }
}

/// The key of key id `id` (ids are dense; keys are spread by hashing).
pub fn key_of(id: u64) -> u64 {
    let mut h = Fnv::default();
    h.add(id);
    h.0
}

fn thread_rng(seed: u64, stream: u64, thread: usize) -> Xorshift {
    Xorshift::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream ^ (thread as u64 + 1) << 32)
}

/// `lo * (hi / lo)^u` for uniform `u`: every octave of `[lo, hi]` equally
/// likely.
fn log_uniform(rng: &mut Xorshift, lo: u64, hi: u64) -> u64 {
    let v = lo as f64 * (hi as f64 / lo as f64).powf(rng.unit_f64());
    (v as u64).clamp(lo, hi)
}

// ------------------------------------------------------------------ small

/// Allocations (and frees) per batch of the Fig. 6 protocol.
pub const BATCH: usize = 100;
/// Smallest and largest `small` request: exactly the cached classes.
pub const SMALL_MIN: u64 = 32;
/// See [`SMALL_MIN`].
pub const SMALL_MAX: u64 = 4096;
/// Marks a `small` stream entry as a free; the low bits index the
/// thread's live list (swap-remove order).
pub const FREE_BIT: u32 = 1 << 31;

/// One thread's `small` stream: batches of [`BATCH`] allocations and
/// [`BATCH`] frees, randomly interleaved (never freeing with nothing
/// live), so every batch ends with nothing live. An entry is a request
/// size, or [`FREE_BIT`] plus the live-list index to free.
pub fn small_stream(seed: u64, thread: usize, batches: usize) -> Vec<u32> {
    let mut rng = thread_rng(seed, 0x5A11, thread);
    let mut out = Vec::with_capacity(batches * 2 * BATCH);
    for _ in 0..batches {
        let (mut allocs, mut frees, mut live) = (BATCH, BATCH, 0u64);
        while allocs > 0 || frees > 0 {
            if allocs > 0 && (live == 0 || frees == 0 || rng.below(2) == 0) {
                out.push(log_uniform(&mut rng, SMALL_MIN, SMALL_MAX) as u32);
                allocs -= 1;
                live += 1;
            } else {
                out.push(FREE_BIT | rng.below(live) as u32);
                frees -= 1;
                live -= 1;
            }
        }
    }
    out
}

// ------------------------------------------------------------------ large

/// Slots of the shared `large` array (the live working set).
pub const LARGE_SLOTS: usize = 16;
/// Smallest `large` request is just above this (the largest cached
/// class), so every call takes the persistent slow path.
pub const LARGE_MIN: u64 = 4096;
/// Per-mille of `large` requests sized just above `max_alloc`, served by
/// the huge-object region.
pub const HUGE_PERMILLE: u64 = 5;

/// One `large` operation: free whatever `slot` holds, then allocate
/// `size` bytes into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LargeOp {
    /// Slot index in the shared array.
    pub slot: u32,
    /// Request size in bytes.
    pub size: u64,
}

/// A `large` request size: log-uniform over `(4 KiB, max_alloc]`, or, for
/// [`HUGE_PERMILLE`] of requests, up to a quarter above `max_alloc`.
fn large_size(rng: &mut Xorshift, max_alloc: u64) -> u64 {
    if rng.below(1000) < HUGE_PERMILLE {
        max_alloc + 1 + rng.below(max_alloc / 4)
    } else {
        log_uniform(rng, LARGE_MIN + 1, max_alloc)
    }
}

/// Largest request [`large_stream`] can emit for `max_alloc`. With every
/// slot holding one, the live set must still fit the huge region.
pub fn large_max_request(max_alloc: u64) -> u64 {
    max_alloc + max_alloc / 4
}

/// Prefill sizes, one per slot.
pub fn large_prefill(seed: u64, max_alloc: u64) -> Vec<u64> {
    let mut rng = thread_rng(seed, 0x1A25_0F11, 0);
    (0..LARGE_SLOTS).map(|_| large_size(&mut rng, max_alloc)).collect()
}

/// One thread's `large` stream: random slots, so a freed block was often
/// allocated by the other thread.
pub fn large_stream(seed: u64, thread: usize, ops: usize, max_alloc: u64) -> Vec<LargeOp> {
    let mut rng = thread_rng(seed, 0x0001_A250, thread);
    (0..ops)
        .map(|_| LargeOp {
            slot: rng.below(LARGE_SLOTS as u64) as u32,
            size: large_size(&mut rng, max_alloc),
        })
        .collect()
}

// --------------------------------------------------------------------- kv

/// Keys loaded during set-up.
pub const KV_LOAD_KEYS: u64 = 10_000;
/// Zipfian skew of key popularity.
pub const KV_THETA: f64 = 0.99;
/// Value size in bytes (the first 16 carry the verified payload).
pub const KV_VALUE: u64 = 100;
/// Ops between refreshes of a client's zipfian rank space.
const ZIPF_REFRESH: usize = 64;

/// A `kv` request class (its discriminant is its op-span class index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvClass {
    /// Point lookup plus payload check.
    Read,
    /// New value block swapped in, old one freed.
    Update,
    /// A never-seen key with a fresh value block.
    Insert,
    /// Short ascending range scan.
    Scan,
}

/// One `kv` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOp {
    /// Request class.
    pub class: KvClass,
    /// Key id ([`key_of`] gives the key); for inserts a fresh id.
    pub id: u64,
    /// Scan length (scans only).
    pub len: u8,
}

/// First key id of `thread`'s insert stripe.
pub fn kv_stripe(thread: usize, ops: usize) -> u64 {
    KV_LOAD_KEYS + (thread * ops) as u64
}

/// One client's `kv` stream: 60/25/10/5 read/update/insert/scan with
/// zipfian keys. Ranks past the loaded keys address this client's own
/// earlier inserts, so every non-insert request names a key that is
/// already acknowledged when the request is issued.
pub fn kv_stream(seed: u64, thread: usize, ops: usize) -> Vec<KvOp> {
    let mut rng = thread_rng(seed, 0x4B56, thread);
    let mut zipf = workloads::ycsb::Zipfian::new(KV_LOAD_KEYS, KV_THETA);
    let stripe = kv_stripe(thread, ops);
    let mut inserted = 0u64;
    let mut out = Vec::with_capacity(ops);
    for op in 0..ops {
        if op % ZIPF_REFRESH == 0 {
            zipf.extend(KV_LOAD_KEYS + inserted);
        }
        let dice = rng.below(1000);
        let rank = zipf.sample(&mut rng).min(KV_LOAD_KEYS + inserted - 1);
        let len = 1 + rng.below(16) as u8;
        let id = if rank < KV_LOAD_KEYS { rank } else { stripe + (rank - KV_LOAD_KEYS) };
        let class = match dice {
            0..=249 => KvClass::Update,
            250..=349 => KvClass::Insert,
            350..=399 => KvClass::Scan,
            _ => KvClass::Read,
        };
        if class == KvClass::Insert {
            out.push(KvOp { class, id: stripe + inserted, len: 0 });
            inserted += 1;
        } else {
            out.push(KvOp { class, id, len });
        }
    }
    out
}

/// Digest of per-thread streams, each entry folded by `words`.
pub fn digest<T>(streams: &[Vec<T>], words: impl Fn(&T) -> [u64; 2]) -> u64 {
    let mut h = Fnv::default();
    for (thread, stream) in streams.iter().enumerate() {
        h.add(thread as u64);
        h.add(stream.len() as u64);
        for entry in stream {
            for w in words(entry) {
                h.add(w);
            }
        }
    }
    h.0
}

/// Per-thread streams for `clients` clients.
pub fn per_thread<T>(clients: usize, f: impl Fn(usize) -> Vec<T>) -> Vec<Vec<T>> {
    (0..clients).map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        assert_eq!(small_stream(7, 1, 3), small_stream(7, 1, 3));
        assert_ne!(small_stream(7, 1, 3), small_stream(8, 1, 3));
        assert_eq!(kv_stream(7, 0, 500), kv_stream(7, 0, 500));
        assert_eq!(large_stream(7, 0, 50, 1 << 24), large_stream(7, 0, 50, 1 << 24));
    }

    #[test]
    fn small_batches_end_empty_and_stay_in_range() {
        let stream = small_stream(3, 0, 20);
        assert_eq!(stream.len(), 20 * 2 * BATCH);
        let mut live = 0i64;
        for &e in &stream {
            if e & FREE_BIT != 0 {
                assert!(i64::from(e & !FREE_BIT) < live);
                live -= 1;
            } else {
                assert!((SMALL_MIN..=SMALL_MAX).contains(&u64::from(e)));
                live += 1;
            }
        }
        assert_eq!(live, 0);
    }

    #[test]
    fn kv_requests_name_acknowledged_keys() {
        let ops = 3000;
        let stream = kv_stream(11, 1, ops);
        let stripe = kv_stripe(1, ops);
        let mut inserted = 0;
        for op in &stream {
            match op.class {
                KvClass::Insert => {
                    assert_eq!(op.id, stripe + inserted);
                    inserted += 1;
                }
                _ => assert!(op.id < KV_LOAD_KEYS || (op.id >= stripe && op.id < stripe + inserted)),
            }
        }
        assert!(inserted > 0);
    }
}
