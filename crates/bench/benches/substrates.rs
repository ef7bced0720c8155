//! Substrate micro-benchmarks: front ends, call graph and IFDS solver
//! throughput (the components of paper Figure 4's pipeline).

use criterion::{criterion_group, criterion_main, Criterion};
use flowdroid_android::install_platform;
use flowdroid_bench::corpus::{generate_app, AppProfile};
use flowdroid_callgraph::CallGraph;
use flowdroid_frontend::{sdex, App};
use flowdroid_ir::Program;

fn bench(c: &mut Criterion) {
    let g = generate_app(AppProfile::BenignLike, 0, 99);
    let load = |p: &mut Program| App::from_parts(p, &g.manifest, &[], &g.code).unwrap();

    c.bench_function("substrates/jasm_parse_app", |b| {
        b.iter(|| {
            let mut p = Program::new();
            install_platform(&mut p);
            load(&mut p).classes.len()
        })
    });

    // SDEX encode/decode round trip on the same app.
    let mut p = Program::new();
    install_platform(&mut p);
    let app = load(&mut p);
    let bytes = sdex::encode(&p, &app.classes);
    println!("\nsubstrates: SDEX image of {} classes = {} bytes", app.classes.len(), bytes.len());
    c.bench_function("substrates/sdex_decode", |b| {
        b.iter(|| {
            let mut q = Program::new();
            sdex::decode(&mut q, &bytes).unwrap().len()
        })
    });

    // Call-graph construction over the dummy-main-reachable program.
    let mut q = Program::new();
    let pl = install_platform(&mut q);
    let loaded = load(&mut q);
    let model = flowdroid_android::EntryPointModel::build(
        &mut q,
        &pl,
        &loaded,
        flowdroid_android::CallbackAssociation::PerComponent,
    );
    let main = flowdroid_android::generate_dummy_main(&mut q, &pl, &model, "bench");
    c.bench_function("substrates/callgraph_cha", |b| {
        b.iter(|| CallGraph::build(&q, &[main]).reachable_methods().len())
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
