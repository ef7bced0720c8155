//! A3 — callback association (paper §3): associating callbacks with the
//! component that registers them both improves precision and "decreases
//! the runtime of the following taint analysis" compared to pooling
//! every callback into every component.

use criterion::{criterion_group, criterion_main, Criterion};
use flowdroid_android::CallbackAssociation;
use flowdroid_bench::eval::{flowdroid_on, run_ablation_callbacks};
use flowdroid_core::InfoflowConfig;
use flowdroid_droidbench::all_apps;

fn bench(c: &mut Criterion) {
    println!("\nAblation A3: callback association over DroidBench");
    println!("{:<24} {:>4} {:>4} {:>12}", "variant", "TP", "FP", "time");
    for (name, tp, fp, dur) in run_ablation_callbacks() {
        println!("{name:<24} {tp:>4} {fp:>4} {dur:>12?}");
    }

    let apps = all_apps();
    let bank = flowdroid_droidbench::insecurebank::insecure_bank();
    let _ = &apps;
    let per = InfoflowConfig::default();
    let global = InfoflowConfig::default().with_callback_association(CallbackAssociation::Global);
    c.bench_function("ablation_callbacks/per_component", |b| {
        b.iter(|| flowdroid_on(&bank, &per).0)
    });
    c.bench_function("ablation_callbacks/global", |b| b.iter(|| flowdroid_on(&bank, &global).0));
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
