//! E4/E5 — RQ3: the synthetic Google-Play-like and VirusShare-like
//! corpora (see DESIGN.md §3 for the substitution). The paper's shape:
//! malware-like apps are smaller and analyze faster, averaging ~1.85
//! leaks per app; benign-like apps mostly leak identifiers into
//! logs/preferences.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowdroid_bench::corpus::AppProfile;
use flowdroid_bench::eval::run_rq3;

fn bench(c: &mut Criterion) {
    // Full paper-scale corpora: 500 Play-like apps, 1000 malware-like.
    let benign = run_rq3(AppProfile::BenignLike, 500, 2014);
    let malware = run_rq3(AppProfile::MalwareLike, 1000, 2014);
    println!("\nRQ3a (Google-Play-like, n={}):", benign.apps);
    println!(
        "  leaks/app {:.2}, mean {:?}, min {:?}, max {:?}",
        benign.leaks_per_app, benign.mean, benign.min, benign.max
    );
    println!("RQ3b (VirusShare-like, n={}):", malware.apps);
    println!(
        "  leaks/app {:.2}, mean {:?}, min {:?}, max {:?}",
        malware.leaks_per_app, malware.mean, malware.min, malware.max
    );
    assert!(malware.leaks_per_app > 1.0 && malware.leaks_per_app < 3.0);

    let mut group = c.benchmark_group("rq3");
    for (name, profile) in
        [("benign_like", AppProfile::BenignLike), ("malware_like", AppProfile::MalwareLike)]
    {
        group.bench_with_input(BenchmarkId::new("analyze_10_apps", name), &profile, |b, &p| {
            b.iter(|| run_rq3(p, 10, 7).leaks)
        });
    }
    group.finish();
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
