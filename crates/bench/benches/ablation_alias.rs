//! A2 — alias-analysis variants (paper §4.2): disabling the on-demand
//! backward analysis loses recall; the naive handover (no context
//! injection) and disabling activation statements lose precision —
//! exactly the Listing 2 / Listing 3 false positives.

use criterion::{criterion_group, criterion_main, Criterion};
use flowdroid_bench::eval::{aliasing_group_score, flowdroid_on, run_ablation_alias};
use flowdroid_core::InfoflowConfig;
use flowdroid_droidbench::all_apps;

fn bench(c: &mut Criterion) {
    println!("\nAblation A2: alias machinery over DroidBench");
    println!("{:<22} {:>4} {:>4}", "variant", "TP", "FP");
    for (name, tp, fp) in run_ablation_alias() {
        println!("{name:<22} {tp:>4} {fp:>4}");
    }
    println!("\nAblation A2b: SecuriBench Aliasing group (11 real leaks)");
    println!("{:<22} {:>4} {:>4}", "variant", "TP", "FP");
    let variants = [
        ("full (paper)", InfoflowConfig::default()),
        ("no alias analysis", InfoflowConfig::default().with_alias_analysis(false)),
        ("naive handover", InfoflowConfig::default().with_context_injection(false)),
        ("no activation stmts", InfoflowConfig::default().with_activation_statements(false)),
    ];
    for (name, config) in variants {
        let (tp, fp) = aliasing_group_score(&config);
        println!("{name:<22} {tp:>4} {fp:>4}");
    }

    let apps = all_apps();
    let loc = apps.iter().find(|a| a.name == "LocationLeak1").unwrap();
    let full = InfoflowConfig::default();
    let no_alias = InfoflowConfig::default().with_alias_analysis(false);
    c.bench_function("ablation_alias/full", |b| b.iter(|| flowdroid_on(loc, &full).0));
    c.bench_function("ablation_alias/no_alias", |b| b.iter(|| flowdroid_on(loc, &no_alias).0));
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
