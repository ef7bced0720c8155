//! E2 — regenerates the paper's Table 2 (SecuriBench Micro per-group
//! TP/FP) and benchmarks the whole-suite run.

use criterion::{criterion_group, criterion_main, Criterion};
use flowdroid_bench::eval::{run_table2, securibench_group_score};
use flowdroid_core::InfoflowConfig;
use flowdroid_securibench::Group;

fn bench(c: &mut Criterion) {
    println!("\n{}", run_table2());

    let config = InfoflowConfig::default();
    c.bench_function("table2/securibench_full_suite", |b| {
        b.iter(|| {
            let leaks: usize = Group::all()
                .into_iter()
                .map(|group| {
                    let (tp, _, fp) = securibench_group_score(group, &config);
                    tp + fp
                })
                .sum();
            assert_eq!(leaks, 126); // 117 TP + 9 FP
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench
}
criterion_main!(benches);
