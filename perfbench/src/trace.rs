//! Spans recorded around the benchmark's own calls into each layer, and
//! the self-time attribution built from them.
//!
//! A span has a name, start and end ticks, the index of the span that
//! caused it (its parent, in the same thread) and the id of the workload
//! operation it belongs to. Spans stay in a per-thread buffer until the
//! round ends. A layer's self time is its span's duration minus the time
//! its child spans cover; an operation span's own self time is the
//! benchmark's bookkeeping, reported as `unattributed`.

use std::cell::RefCell;
use std::io::Write;

use crate::clock;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One workload operation (`arg` = op class index).
    Op,
    /// `alloc` through the allocator interface (`arg` = request size).
    Alloc,
    /// `free` through the allocator interface (`arg` = block size, 0 if
    /// the caller does not know it).
    Free,
    /// `FastFair::get`.
    TreeGet,
    /// `FastFair::update`.
    TreeUpdate,
    /// `FastFair::insert`.
    TreeInsert,
    /// `FastFair::scan`.
    TreeScan,
    /// The benchmark's own payload store (`PmemDevice::write`).
    PmemWrite,
    /// The benchmark's own payload flush (`PmemDevice::persist`).
    PmemPersist,
    /// The benchmark's own payload load (`PmemDevice::read`).
    PmemRead,
    /// `PoseidonHeap::maint_tick`.
    Maint,
    /// `PoseidonHeap::scrub_step`.
    Scrub,
    /// `PoseidonHeap::load` of a crashed image.
    Load,
    /// Reopening the shard trees after a load.
    Reopen,
    /// Re-reading every acknowledged key after recovery.
    Verify,
}

/// Number of [`Name`]s.
const NAMES: usize = 15;

impl Name {
    fn label(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::Alloc => "alloc",
            Name::Free => "free",
            Name::TreeGet => "fastfair.get",
            Name::TreeUpdate => "fastfair.update",
            Name::TreeInsert => "fastfair.insert",
            Name::TreeScan => "fastfair.scan",
            Name::PmemWrite => "pmem.write",
            Name::PmemPersist => "pmem.persist",
            Name::PmemRead => "pmem.read",
            Name::Maint => "maint.tick",
            Name::Scrub => "scrub.step",
            Name::Load => "recovery.load",
            Name::Reopen => "recovery.reopen",
            Name::Verify => "recovery.verify",
        }
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start tick.
    pub start: u64,
    /// End tick.
    pub end: u64,
    /// Op class (operation spans) or byte size (alloc/free spans).
    pub arg: u64,
    /// Id of the enclosing workload operation (per thread).
    pub op: u32,
    /// Index of the parent span in the same thread, or [`NO_PARENT`].
    pub parent: u32,
    /// What the span covers.
    pub name: Name,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn begin(name: Name, arg: u64) -> u32 {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let index = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        if name == Name::Op {
            r.op += 1;
        }
        let op = r.op;
        r.open.push(index);
        r.spans.push(Span { start: 0, end: 0, arg, op, parent, name });
        r.spans[index as usize].start = clock::now();
        index
    })
}

fn end(index: u32) {
    let t = clock::now();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[index as usize].end = t;
        r.open.pop();
    })
}

/// Runs `f`, inside a span when `on`.
#[inline]
pub fn span<R>(on: bool, name: Name, arg: u64, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let index = begin(name, arg);
    let out = f();
    end(index);
    out
}

/// Takes the calling thread's recorded spans.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut *r.borrow_mut()).spans)
}

/// The layers self time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Allocator calls served by the per-CPU magazines.
    Frontend,
    /// Allocator calls that took the persistent buddy path.
    Backend,
    /// Allocator calls served by the huge-object region.
    Huge,
    /// FAST-FAIR tree self time (node allocations excluded).
    FastFair,
    /// The benchmark's own device payload calls.
    Pmem,
    /// Maintenance-engine ticks.
    Maint,
    /// Scrubber steps.
    Scrub,
    /// Recovery steps.
    Recovery,
    /// Operation time outside every child span (benchmark bookkeeping).
    Unattributed,
}

/// Every layer, in table order.
pub const LAYERS: [Layer; 9] = [
    Layer::Frontend,
    Layer::Backend,
    Layer::Huge,
    Layer::FastFair,
    Layer::Pmem,
    Layer::Maint,
    Layer::Scrub,
    Layer::Recovery,
    Layer::Unattributed,
];

impl Layer {
    /// Table column name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Frontend => "frontend",
            Layer::Backend => "backend",
            Layer::Huge => "huge",
            Layer::FastFair => "fastfair",
            Layer::Pmem => "pmem",
            Layer::Maint => "maint",
            Layer::Scrub => "scrub",
            Layer::Recovery => "recovery",
            Layer::Unattributed => "unattributed",
        }
    }
}

/// How to tell allocator layers apart from outside: by request size, and
/// for cached sizes by rank. The cache's own counters say exactly how
/// many allocations missed (each miss is one refill inside one `alloc`)
/// and how many frees drained; those calls are the slowest ones, since a
/// miss runs a two-fence persistent commit while a hit pops a magazine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Classifier {
    /// Whether the heap runs its per-CPU cache.
    pub cached: bool,
    /// Largest size the cache serves.
    pub cache_max: u64,
    /// Largest size a sub-heap serves; above it is the huge region.
    pub max_alloc: u64,
    /// Allocations that missed the cache in the traced phase.
    pub alloc_misses: u64,
    /// Frees that drained the cache in the traced phase.
    pub free_drains: u64,
}

/// Per op class: operations, their span time, and self time per layer.
#[derive(Debug, Clone, Default)]
pub struct ClassRow {
    /// Operations.
    pub count: u64,
    /// Sum of operation span ticks.
    pub op_ticks: u64,
    /// Sum of self ticks per layer ([`LAYERS`] order).
    pub self_ticks: [i64; LAYERS.len()],
}

/// Count, total duration and total self time of one kind of call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStat {
    /// Calls.
    pub count: u64,
    /// Sum of durations (ticks).
    pub dur: u64,
    /// Sum of self times (ticks).
    pub self_ticks: i64,
}

impl CallStat {
    /// Mean duration in ticks (0 without calls).
    pub fn mean_dur(&self) -> f64 {
        self.dur as f64 / self.count.max(1) as f64
    }

    /// Mean self time in ticks (0 without calls).
    pub fn mean_self(&self) -> f64 {
        self.self_ticks as f64 / self.count.max(1) as f64
    }
}

/// Op-span durations kept per class for percentiles (the first ones).
const MAX_OP_DURATIONS: usize = 1 << 20;

/// Self-time attribution accumulated over traced rounds.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Rows per op class index.
    pub classes: Vec<ClassRow>,
    /// Per span name and layer (`[name][layer]`); operation spans and
    /// spans under a recovery step are not counted here.
    calls: [[CallStat; LAYERS.len()]; NAMES],
    /// Op-span durations per class (ticks), for class percentiles.
    pub op_durations: Vec<Vec<u64>>,
    /// Allocations made inside tree inserts (node splits).
    pub node_allocs_in_inserts: u64,
    /// Spans that were not nested inside their parent or overlapped an
    /// earlier sibling (must stay 0).
    pub nesting_errors: u64,
}

impl Default for TraceStats {
    fn default() -> Self {
        TraceStats {
            classes: Vec::new(),
            calls: [[CallStat::default(); LAYERS.len()]; NAMES],
            op_durations: Vec::new(),
            node_allocs_in_inserts: 0,
            nesting_errors: 0,
        }
    }
}

impl TraceStats {
    /// Folds one traced round's spans (one vector per thread) in.
    pub fn add_round(&mut self, threads: &[Vec<Span>], classes: usize, classifier: &Classifier) {
        if self.classes.len() < classes {
            self.classes.resize(classes, ClassRow::default());
            self.op_durations.resize(classes, Vec::new());
        }
        let layers = alloc_layers(threads, classifier);
        for (spans, layers) in threads.iter().zip(&layers) {
            self.add_thread(spans, layers);
        }
    }

    fn add_thread(&mut self, spans: &[Span], alloc_layer: &[Option<Layer>]) {
        let n = spans.len();
        let mut child_ticks = vec![0u64; n];
        let mut last_child_end = vec![0u64; n];
        let mut root = vec![0usize; n];
        for (i, s) in spans.iter().enumerate() {
            if s.end < s.start {
                self.nesting_errors += 1;
                continue;
            }
            if s.parent == NO_PARENT {
                root[i] = i;
                continue;
            }
            let p = s.parent as usize;
            root[i] = root[p];
            let parent = &spans[p];
            if s.start < parent.start || s.end > parent.end || s.start < last_child_end[p] {
                self.nesting_errors += 1;
            }
            last_child_end[p] = s.end;
            child_ticks[p] += s.end - s.start;
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end.saturating_sub(s.start);
            let self_ticks = dur as i64 - child_ticks[i] as i64;
            let layer = match s.name {
                Name::Op => Layer::Unattributed,
                Name::Alloc | Name::Free => alloc_layer[i].unwrap_or(Layer::Backend),
                Name::TreeGet | Name::TreeUpdate | Name::TreeInsert | Name::TreeScan => Layer::FastFair,
                Name::PmemWrite | Name::PmemPersist | Name::PmemRead => Layer::Pmem,
                Name::Maint => Layer::Maint,
                Name::Scrub => Layer::Scrub,
                Name::Load | Name::Reopen | Name::Verify => Layer::Recovery,
            };
            let column = LAYERS.iter().position(|&l| l == layer).expect("layer listed");
            let top = &spans[root[i]];
            if top.name != Name::Op && root[i] != i {
                // Calls made while verifying recovery are not workload
                // calls; only the recovery step itself is reported.
                continue;
            }
            if s.name != Name::Op {
                let stat = &mut self.calls[s.name as usize][column];
                stat.count += 1;
                stat.dur += dur;
                stat.self_ticks += self_ticks;
            }
            if s.name == Name::Alloc
                && s.parent != NO_PARENT
                && spans[s.parent as usize].name == Name::TreeInsert
            {
                self.node_allocs_in_inserts += 1;
            }
            if top.name != Name::Op {
                continue;
            }
            let row = &mut self.classes[top.arg as usize];
            row.self_ticks[column] += self_ticks;
            if root[i] == i {
                row.count += 1;
                row.op_ticks += dur;
                let durations = &mut self.op_durations[top.arg as usize];
                if durations.len() < MAX_OP_DURATIONS {
                    durations.push(dur);
                }
            }
        }
    }

    /// Whether every op class's layer self times plus its unattributed
    /// time sum exactly to its op span time, with every span nested.
    pub fn sums_check(&self) -> bool {
        self.nesting_errors == 0
            && self.classes.iter().all(|row| row.self_ticks.iter().sum::<i64>() == row.op_ticks as i64)
    }

    /// Count, total duration and total self time of `name` spans
    /// attributed to `layer`.
    pub fn call(&self, name: Name, layer: Layer) -> CallStat {
        let column = LAYERS.iter().position(|&l| l == layer).expect("layer listed");
        self.calls[name as usize][column]
    }
}

/// Decides the layer of every alloc/free span (None for other spans).
fn alloc_layers(threads: &[Vec<Span>], c: &Classifier) -> Vec<Vec<Option<Layer>>> {
    let mut out: Vec<Vec<Option<Layer>>> = threads.iter().map(|t| vec![None; t.len()]).collect();
    // (duration, thread, index) of cached-size calls, per call kind.
    let mut cached: [Vec<(u64, usize, usize)>; 2] = [Vec::new(), Vec::new()];
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let kind = match s.name {
                Name::Alloc => 0,
                Name::Free => 1,
                _ => continue,
            };
            out[t][i] = Some(if s.arg > c.max_alloc {
                Layer::Huge
            } else if c.cached && s.arg > 0 && s.arg <= c.cache_max {
                cached[kind].push((s.end - s.start, t, i));
                Layer::Frontend
            } else {
                Layer::Backend
            });
        }
    }
    for (calls, slow) in cached.iter_mut().zip([c.alloc_misses, c.free_drains]) {
        calls.sort_unstable();
        for &(_, t, i) in calls.iter().rev().take(slow as usize) {
            out[t][i] = Some(Layer::Backend);
        }
    }
    out
}

/// Writes one traced round's spans as CSV (`thread,op,name,parent,
/// start_ns,end_ns,arg`, times relative to the round's first span).
pub fn write_csv(path: &std::path::Path, threads: &[Vec<Span>], ticks_per_ns: f64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let t0 = threads.iter().flatten().map(|s| s.start).min().unwrap_or(0);
    let ns = |t: u64| (t - t0) as f64 / ticks_per_ns;
    writeln!(out, "thread,op,name,parent,start_ns,end_ns,arg")?;
    for (thread, spans) in threads.iter().enumerate() {
        for s in spans {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{thread},{},{},{parent},{:.1},{:.1},{}",
                s.op,
                s.name.label(),
                ns(s.start),
                ns(s.end),
                s.arg
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: Name, start: u64, end: u64, parent: u32, arg: u64) -> Span {
        Span { start, end, arg, op: 1, parent, name }
    }

    #[test]
    fn self_times_and_unattributed_sum_to_the_op() {
        let spans = vec![
            s(Name::Op, 0, 100, NO_PARENT, 0),
            s(Name::TreeInsert, 10, 60, 0, 0),
            s(Name::Alloc, 20, 40, 1, 248),
            s(Name::PmemWrite, 70, 80, 0, 0),
        ];
        let mut stats = TraceStats::default();
        stats.add_round(&[spans], 1, &Classifier { max_alloc: 1 << 20, ..Classifier::default() });
        assert!(stats.sums_check());
        let row = &stats.classes[0];
        assert_eq!(row.count, 1);
        assert_eq!(row.self_ticks[1], 20); // backend alloc
        assert_eq!(row.self_ticks[3], 30); // tree self
        assert_eq!(row.self_ticks[4], 10); // payload write
        assert_eq!(row.self_ticks[8], 40); // unattributed
        assert_eq!(stats.node_allocs_in_inserts, 1);
    }

    #[test]
    fn overlapping_children_fail_the_check() {
        let spans = vec![
            s(Name::Op, 0, 100, NO_PARENT, 0),
            s(Name::Alloc, 10, 60, 0, 64),
            s(Name::Free, 50, 70, 0, 64),
        ];
        let mut stats = TraceStats::default();
        stats.add_round(&[spans], 1, &Classifier { max_alloc: 1 << 20, ..Classifier::default() });
        assert!(!stats.sums_check());
    }

    #[test]
    fn slowest_cached_calls_are_the_misses() {
        let spans = vec![
            s(Name::Alloc, 0, 10, NO_PARENT, 64),
            s(Name::Alloc, 10, 500, NO_PARENT, 64),
            s(Name::Alloc, 500, 512, NO_PARENT, 64),
        ];
        let c =
            Classifier { cached: true, cache_max: 4096, max_alloc: 1 << 20, alloc_misses: 1, free_drains: 0 };
        let layers = alloc_layers(&[spans], &c);
        assert_eq!(layers[0], vec![Some(Layer::Frontend), Some(Layer::Backend), Some(Layer::Frontend)]);
    }
}
