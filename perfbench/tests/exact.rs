//! The exact-count pass is single-threaded and timer-free, so the counts
//! it reports must repeat exactly from one pass to the next.

use perfbench::{kv, large, small, Workload};

fn repeats(workload: &dyn Workload) {
    let first = workload.exact();
    let second = workload.exact();
    assert!(first.violations.is_empty(), "{:?}", first.violations);
    assert_eq!(first.failed, 0);
    assert!(first.ops > 0 && first.counts.calls > 0);
    assert_eq!(first, second, "exact counts differ between two passes");
}

#[test]
fn small_exact_counts_repeat() {
    repeats(&small::Small::new(3));
}

#[test]
fn large_exact_counts_repeat() {
    repeats(&large::Large::new(3));
}

#[test]
fn kv_exact_counts_repeat() {
    repeats(&kv::Kv::new(3));
}
