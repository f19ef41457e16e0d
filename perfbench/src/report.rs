//! Turns rounds into metrics: medians over rounds for the end-to-end
//! figures, the traced rounds' self-time attribution and the exact pass
//! for the per-layer figures, and the result line the run ends with.

use crate::clock::{median, quantile};
use crate::heap::{Mode, Snapshot};
use crate::trace::{Layer, Name, TraceStats, LAYERS};
use crate::{Exact, Round};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What the value summarises (rounds, calls).
    pub samples: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: String) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit, samples }
}

/// Per-call and per-op quantiles of one timed round, in ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quantiles {
    /// Allocation p50 / p99 and call count.
    pub alloc: (u64, u64, usize),
    /// Free p50 / p99 and call count.
    pub free: (u64, u64, usize),
    /// Operation p50 / p99 and op count.
    pub op: (u64, u64, usize),
}

/// A round reduced to what the report needs.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// How the round observed its calls.
    pub mode: Mode,
    /// Set-up seconds.
    pub setup_s: f64,
    /// Operations of the timed phase.
    pub ops: u64,
    /// Failed calls.
    pub failed: u64,
    /// Throughput of the timed phase.
    pub ops_per_s: f64,
    /// Resident device bytes at the end of the timed phase.
    pub resident_bytes: u64,
    /// Unmerged free bytes at the end of the timed phase.
    pub frag_bytes: u64,
    /// Crash-to-usable seconds.
    pub recover_s: f64,
    /// Getter deltas across the timed phase.
    pub delta: Snapshot,
    /// Latency quantiles (timed rounds).
    pub quantiles: Quantiles,
}

impl Summary {
    /// Reduces `round` (its samples are consumed).
    pub fn of(round: &mut Round) -> Summary {
        let q = |v: &mut Vec<u64>| (quantile(v, 0.5), quantile(v, 0.99), v.len());
        Summary {
            mode: round.mode,
            setup_s: round.setup_s,
            ops: round.ops,
            failed: round.failed,
            ops_per_s: round.ops_per_s(),
            resident_bytes: round.resident_bytes,
            frag_bytes: round.frag_bytes_end,
            recover_s: round.recover_s,
            delta: round.delta.clone(),
            quantiles: Quantiles {
                alloc: q(&mut round.alloc_ticks),
                free: q(&mut round.free_ticks),
                op: q(&mut round.op_ticks),
            },
        }
    }
}

fn of_mode(rounds: &[Summary], mode: Mode) -> Vec<&Summary> {
    rounds.iter().filter(|r| r.mode == mode).collect()
}

/// Per-call and per-op latency quantiles of the timed rounds (median over
/// rounds of each round's quantile): the end-to-end one (`op_p50_us`),
/// then those that did not repeat within a tenth across seeds on some
/// workload and so are reported per layer (see `README.md`).
fn latencies(rounds: &[Summary], tpn: f64) -> (Vec<Metric>, Vec<Metric>) {
    let timed = of_mode(rounds, Mode::Timed);
    let one =
        |name: &'static str, unit: &'static str, scale: f64, pick: &dyn Fn(&Quantiles) -> (u64, usize)| {
            let value =
                median(&timed.iter().map(|r| pick(&r.quantiles).0 as f64 / tpn / scale).collect::<Vec<_>>());
            let calls = timed.first().map_or(0, |r| pick(&r.quantiles).1);
            metric(name, value, unit, format!("median of {} rounds x {calls} timed", timed.len()))
        };
    (
        vec![one("op_p50_us", "us", 1e3, &|q| (q.op.0, q.op.2))],
        vec![
            one("alloc_p50_ns", "ns", 1.0, &|q| (q.alloc.0, q.alloc.2)),
            one("free_p50_ns", "ns", 1.0, &|q| (q.free.0, q.free.2)),
            one("alloc_p99_ns", "ns", 1.0, &|q| (q.alloc.1, q.alloc.2)),
            one("free_p99_ns", "ns", 1.0, &|q| (q.free.1, q.free.2)),
            one("op_p99_us", "us", 1e3, &|q| (q.op.1, q.op.2)),
        ],
    )
}

/// The end-to-end metrics (from untraced and timed rounds).
pub fn end_to_end(rounds: &[Summary], tpn: f64) -> Vec<Metric> {
    let clean = of_mode(rounds, Mode::Clean);
    let all: Vec<&Summary> = rounds.iter().collect();
    let med =
        |rs: &[&Summary], f: &dyn Fn(&Summary) -> f64| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());
    let ops = clean.first().map_or(0, |r| r.ops);
    let mut out = vec![
        metric(
            "ops_per_s",
            med(&clean, &|r| r.ops_per_s),
            "1/s",
            format!("median of {} rounds x {ops} ops", clean.len()),
        ),
        metric("setup_s", med(&all, &|r| r.setup_s), "s", format!("median of {} set-ups", all.len())),
        metric(
            "resident_mib",
            med(&clean, &|r| r.resident_bytes as f64 / (1 << 20) as f64),
            "MiB",
            format!("median of {} rounds", clean.len()),
        ),
    ];
    out.extend(latencies(rounds, tpn).0);
    out
}

/// Crash to usable heap, median over every round's crash/recovery cycle.
/// A per-layer metric: it did not repeat within a tenth across seeds.
fn recover_ms(rounds: &[Summary]) -> Metric {
    let values: Vec<f64> = rounds.iter().map(|r| r.recover_s * 1e3).collect();
    metric("recover_ms", median(&values), "ms", format!("median of {} crash/recover cycles", values.len()))
}

/// The per-layer metrics (from a traced run: clean and traced rounds plus
/// the exact pass). Metrics of a layer the workload never reaches read 0.
pub fn per_layer(
    rounds: &[Summary],
    trace: &TraceStats,
    exact: &Exact,
    classes: &[&str],
    tpn: f64,
) -> Vec<Metric> {
    let clean = of_mode(rounds, Mode::Clean);
    let traced = of_mode(rounds, Mode::Traced);
    let per_clean_op = |f: &dyn Fn(&Snapshot) -> u64| {
        median(&clean.iter().map(|r| f(&r.delta) as f64 / r.ops.max(1) as f64).collect::<Vec<_>>())
    };
    let clean_n = format!("median of {} untraced rounds", clean.len());
    let span = |name: Name, layer: Layer| {
        let c = trace.call(name, layer);
        (c.mean_dur() / tpn, format!("mean of {} spans", c.count))
    };
    let self_span = |name: Name, layer: Layer| {
        let c = trace.call(name, layer);
        (c.mean_self() / tpn, format!("mean self time of {} spans", c.count))
    };
    let exact_ops = exact.ops.max(1) as f64;
    let exact_n = format!("exact, {} single-threaded ops", exact.ops);
    let per_exact_op = |n: u64| n as f64 / exact_ops;
    let class_q = |class: &str, q: f64| {
        let Some(i) = classes.iter().position(|&c| c == class) else { return (0.0, "absent".to_string()) };
        let mut d = trace.op_durations.get(i).cloned().unwrap_or_default();
        let n = d.len();
        (quantile(&mut d, q) as f64 / tpn / 1e3, format!("{n} traced ops"))
    };
    let cache = exact.cache;
    let lookups = cache.hits + cache.misses;
    let ops_ratio = median(&clean.iter().map(|r| r.ops_per_s).collect::<Vec<_>>())
        / median(&traced.iter().map(|r| r.ops_per_s).collect::<Vec<_>>());
    let unattributed: i64 = trace.classes.iter().map(|r| r.self_ticks[LAYERS.len() - 1]).sum();
    let op_ticks: u64 = trace.classes.iter().map(|r| r.op_ticks).sum();

    let mut out = Vec::new();
    let mut push = |name: &'static str, (value, samples): (f64, String), unit: &'static str| {
        out.push(metric(name, value, unit, samples));
    };
    push(
        "frontend.hit_ratio",
        (if lookups == 0 { 0.0 } else { cache.hits as f64 / lookups as f64 }, exact_n.clone()),
        "ratio",
    );
    push("frontend.refills_per_kop", (per_exact_op(cache.refills) * 1e3, exact_n.clone()), "count/kop");
    push("frontend.drains_per_kop", (per_exact_op(cache.drains) * 1e3, exact_n.clone()), "count/kop");
    push("frontend.alloc_ns", span(Name::Alloc, Layer::Frontend), "ns");
    push("frontend.free_ns", span(Name::Free, Layer::Frontend), "ns");
    push("backend.alloc_ns", span(Name::Alloc, Layer::Backend), "ns");
    push("backend.free_ns", span(Name::Free, Layer::Backend), "ns");
    let c = exact.counts;
    push("undo.sfences_per_op", (per_exact_op(c.sfences), exact_n.clone()), "count/op");
    push("undo.clwbs_per_op", (per_exact_op(c.clwbs), exact_n.clone()), "count/op");
    push("undo.entries_per_op", (per_exact_op(c.undo_entries), exact_n.clone()), "count/op");
    push("undo.words_per_op", (per_exact_op(c.undo_words), exact_n.clone()), "count/op");
    push("session.validations_per_op", (per_exact_op(c.validations), exact_n.clone()), "count/op");
    push("session.meta_maps_per_op", (per_exact_op(c.meta_maps), exact_n.clone()), "count/op");
    push("mpk.wrpkru_per_op", (per_exact_op(c.wrpkru), exact_n.clone()), "count/op");
    push("subheap_lock.hold_ns_per_op", (per_clean_op(&|d| d.subheap_held_ns), clean_n.clone()), "ns");
    push("subheap_lock.acq_per_op", (per_clean_op(&|d| d.subheap_acq), clean_n.clone()), "count/op");
    push("superblock_lock.acq_per_op", (per_clean_op(&|d| d.superblock_acq), clean_n.clone()), "count/op");
    push("huge.alloc_ns", span(Name::Alloc, Layer::Huge), "ns");
    push("huge.free_ns", span(Name::Free, Layer::Huge), "ns");
    push("huge_lock.hold_ns_per_op", (per_clean_op(&|d| d.huge_held_ns), clean_n.clone()), "ns");
    push("maint.tick_ns", span(Name::Maint, Layer::Maint), "ns");
    push("maint.merges_per_kop", (per_clean_op(&|d| d.maint_merges) * 1e3, clean_n.clone()), "count/kop");
    push("scrub.step_ns", span(Name::Scrub, Layer::Scrub), "ns");
    push(
        "maint.frag_kib_end",
        (median(&clean.iter().map(|r| r.frag_bytes as f64 / 1024.0).collect::<Vec<_>>()), clean_n.clone()),
        "KiB",
    );
    push("fastfair.get_ns", span(Name::TreeGet, Layer::FastFair), "ns");
    push("fastfair.update_self_ns", self_span(Name::TreeUpdate, Layer::FastFair), "ns");
    push("fastfair.insert_self_ns", self_span(Name::TreeInsert, Layer::FastFair), "ns");
    push("fastfair.scan_ns", span(Name::TreeScan, Layer::FastFair), "ns");
    let inserts = trace.call(Name::TreeInsert, Layer::FastFair).count;
    push(
        "fastfair.node_allocs_per_kinsert",
        (
            trace.node_allocs_in_inserts as f64 * 1e3 / inserts.max(1) as f64,
            format!("{inserts} traced inserts"),
        ),
        "count/kop",
    );
    push("pmem.write_ns", span(Name::PmemWrite, Layer::Pmem), "ns");
    push("pmem.persist_ns", span(Name::PmemPersist, Layer::Pmem), "ns");
    push("pmem.read_ns", span(Name::PmemRead, Layer::Pmem), "ns");
    push("pmem.bytes_written_per_op", (per_clean_op(&|d| d.dev.bytes_written), clean_n.clone()), "B/op");
    push(
        "pmem.remote_line_frac",
        (median(&clean.iter().map(|r| r.delta.dev.remote_fraction()).collect::<Vec<_>>()), clean_n.clone()),
        "ratio",
    );
    let ms = |(v, s): (f64, String)| (v / 1e6, s);
    let recover = recover_ms(rounds);
    push(recover.name, (recover.value, recover.samples), recover.unit);
    push("recovery.load_ms", ms(span(Name::Load, Layer::Recovery)), "ms");
    push("recovery.reopen_ms", ms(span(Name::Reopen, Layer::Recovery)), "ms");
    push("recovery.verify_ms", ms(span(Name::Verify, Layer::Recovery)), "ms");
    push("read_p50_us", class_q("read", 0.5), "us");
    push("read_p99_us", class_q("read", 0.99), "us");
    push("update_p50_us", class_q("update", 0.5), "us");
    push("update_p99_us", class_q("update", 0.99), "us");
    push("insert_p50_us", class_q("insert", 0.5), "us");
    for m in latencies(rounds, tpn).1 {
        push(m.name, (m.value, m.samples), m.unit);
    }
    push(
        "trace.overhead",
        (ops_ratio, format!("untraced/traced ops_per_s, {} + {} rounds", clean.len(), traced.len())),
        "x",
    );
    push(
        "trace.unattributed_frac",
        (
            unattributed as f64 / op_ticks.max(1) as f64,
            format!("{} traced ops", trace.classes.iter().map(|r| r.count).sum::<u64>()),
        ),
        "ratio",
    );
    out
}

/// Prints the traced rounds' self-time table: one row per op class, mean
/// self nanoseconds per op in each layer, and the sum check.
pub fn print_self_table(trace: &TraceStats, classes: &[&str], tpn: f64) {
    print!("#   {:<8} {:>9} {:>10}", "class", "ops", "op_ns");
    for layer in LAYERS {
        print!(" {:>12}", layer.name());
    }
    println!();
    for (row, name) in trace.classes.iter().zip(classes) {
        if row.count == 0 {
            continue;
        }
        let n = row.count as f64;
        print!("#   {name:<8} {:>9} {:>10.1}", row.count, row.op_ticks as f64 / n / tpn);
        for ticks in row.self_ticks {
            print!(" {:>12.1}", ticks as f64 / n / tpn);
        }
        println!();
    }
    let ok = trace.sums_check();
    println!(
        "# check: layer self times + unattributed = op span time, every span nested: {} ({} nesting errors)",
        if ok { "ok" } else { "FAILED" },
        trace.nesting_errors
    );
}

/// Prints `metrics` as a table.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("#   {:<34} {:>18.6} {:<9} {}", m.name, m.value, m.unit, m.samples);
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
