//! Criterion bench for the campaign engine itself: attacks per second
//! at 1 (inline) to 8 threads of the persistent worker pool, on one
//! representative workload. This is the microbenchmark behind the
//! `results/bench_campaign.json` numbers `exp_all` emits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ipds_sim::AttackModel;

fn bench_campaign_engine(c: &mut Criterion) {
    let w = ipds_workloads::all()
        .into_iter()
        .find(|w| w.name == "telnetd")
        .expect("telnetd workload");
    let protected = ipds_bench::protect(&w);
    let inputs = w.inputs(7);
    let (golden, limits) = protected.campaign_artifacts(&inputs);
    const ATTACKS: u32 = 50;

    let mut group = c.benchmark_group("campaign_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ATTACKS as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    protected
                        .campaign_spec()
                        .inputs(&inputs)
                        .golden(&golden, limits)
                        .attacks(ATTACKS)
                        .seed(7)
                        .model(AttackModel::FormatString)
                        .threads(threads)
                        .run()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_campaign_engine);
criterion_main!(benches);
