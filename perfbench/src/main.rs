//! `perfbench --workload <small|large|kv> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs rounds of one workload until `--seconds` have passed, cycling
//! untraced and timed rounds (`--trace 0`: end-to-end metrics), or
//! untraced, traced and timed rounds plus the exact-count pass
//! (`--trace 1`: per-layer metrics). Prints a readable report, then one
//! JSON result line. Exits 1 if any correctness check failed, 2 on bad
//! arguments.

use std::time::Instant;

use perfbench::heap::Mode;
use perfbench::report::{self, Summary};
use perfbench::trace::TraceStats;
use perfbench::{clock, kv, large, small, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    clock::start();
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <small|large|kv> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let workload: Box<dyn Workload> = match args.workload.as_str() {
        "small" => Box::new(small::Small::new(args.seed)),
        "large" => Box::new(large::Large::new(args.seed)),
        "kv" => Box::new(kv::Kv::new(args.seed)),
        other => {
            eprintln!("unknown workload {other:?} (small, large or kv)");
            std::process::exit(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# inputs: {}", workload.describe());
    println!("# input digest (fnv1a-64): {:#018x}", workload.digest());

    // Untraced rounds give throughput, timed rounds latency percentiles,
    // traced rounds the per-layer attribution.
    let modes: &[Mode] =
        if args.trace { &[Mode::Clean, Mode::Traced, Mode::Timed] } else { &[Mode::Clean, Mode::Timed] };
    let start = Instant::now();
    let mut summaries = Vec::new();
    let mut trace = TraceStats::default();
    let mut last_spans = Vec::new();
    let mut violations = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let spent = start.elapsed().as_secs_f64();
        let per_round = spent / summaries.len().max(1) as f64;
        if summaries.len() >= modes.len() && spent + per_round > args.seconds as f64 {
            break;
        }
        let mut round = workload.round(modes[summaries.len() % modes.len()]);
        attempted += round.ops;
        failed += round.failed;
        violations.append(&mut round.violations);
        if round.mode == Mode::Traced {
            trace.add_round(&round.spans, workload.classes().len(), &workload.classifier(&round));
            last_spans = std::mem::take(&mut round.spans);
        }
        summaries.push(Summary::of(&mut round));
    }
    let exact = args.trace.then(|| workload.exact());
    let tpn = clock::ticks_per_ns();

    let count = |mode: Mode| summaries.iter().filter(|s| s.mode == mode).count();
    println!(
        "# rounds: {} ({} untraced, {} timed, {} traced), {:.1} s; clock {tpn:.4} ticks/ns",
        summaries.len(),
        count(Mode::Clean),
        count(Mode::Timed),
        count(Mode::Traced),
        start.elapsed().as_secs_f64(),
    );
    let per_round: Vec<String> =
        summaries.iter().filter(|s| s.mode == Mode::Clean).map(|s| format!("{:.0}", s.ops_per_s)).collect();
    println!("# ops_per_s of each untraced round: {}", per_round.join(" "));
    let metrics = if let Some(exact) = &exact {
        attempted += exact.ops;
        failed += exact.failed;
        violations.extend(exact.violations.iter().cloned());
        let c = exact.counts;
        println!(
            "# exact counts ({} ops, {} heap calls): sfences {} clwbs {} undo_entries {} undo_words {} \
             validations {} meta_maps {} wrpkru {} cache hits {} misses {} refills {} drains {}",
            exact.ops,
            c.calls,
            c.sfences,
            c.clwbs,
            c.undo_entries,
            c.undo_words,
            c.validations,
            c.meta_maps,
            c.wrpkru,
            exact.cache.hits,
            exact.cache.misses,
            exact.cache.refills,
            exact.cache.drains
        );
        println!("# self time per op (ns) by layer, traced rounds:");
        report::print_self_table(&trace, workload.classes(), tpn);
        if !trace.sums_check() {
            violations.push("trace self times do not sum to the op span times".into());
        }
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        let path = std::path::Path::new(&dir).join(format!("perfbench-spans-{}.csv", args.workload));
        match perfbench::trace::write_csv(&path, &last_spans, tpn) {
            Ok(()) => println!("# spans of the last traced round: {}", path.display()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
        let m = report::per_layer(&summaries, &trace, exact, workload.classes(), tpn);
        report::print_metrics("per-layer metrics", &m);
        m
    } else {
        let m = report::end_to_end(&summaries, tpn);
        report::print_metrics("end-to-end metrics", &m);
        m
    };
    println!(
        "# fail_ratio: {} ({failed} of {attempted} calls failed)",
        failed as f64 / attempted.max(1) as f64
    );
    let correct = violations.is_empty();
    if correct {
        println!("# correctness: all checks passed");
    } else {
        for v in violations.iter().take(20) {
            println!("# VIOLATION: {v}");
        }
        println!("# correctness: {} violations", violations.len());
    }
    println!("{}", report::result_json(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
