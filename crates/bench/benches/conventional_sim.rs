//! Throughput of the three-valued simulation substrate: good-machine
//! simulation, conventional per-fault simulation, and the 64-way two-valued
//! replay kernel (the baseline costs every experiment pays per fault).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use moa_circuits::iscas::s27;
use moa_circuits::synth::{generate, SynthSpec};
use moa_netlist::{full_fault_list, Fault};
use moa_sim::{simulate, BinaryReplay, PackedValues, TestSequence};
use moa_tpg::random_sequence;

fn bench_good_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("good_simulation");
    group.sample_size(20);

    let small = s27();
    let seq27 = random_sequence(&small, 64, 1);
    group.bench_function("s27_L64", |b| {
        b.iter(|| black_box(simulate(&small, &seq27, None)));
    });

    let mid = generate(&SynthSpec::new("mid", 10, 5, 12, 200, 5));
    let seq_mid = random_sequence(&mid, 64, 2);
    group.bench_function("synth200_L64", |b| {
        b.iter(|| black_box(simulate(&mid, &seq_mid, None)));
    });
    group.finish();
}

fn bench_conventional_fault_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("conventional_fault_sim");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));

    let circuit = generate(&SynthSpec::new("mid", 10, 5, 12, 200, 5));
    let seq = random_sequence(&circuit, 64, 3);
    let good = simulate(&circuit, &seq, None);
    let faults = full_fault_list(&circuit);
    group.bench_function("synth200_all_faults_L64", |b| {
        b.iter(|| {
            let detected = faults
                .iter()
                .filter(|f| {
                    moa_sim::run_conventional(&circuit, &seq, &good, f)
                        .0
                        .is_some()
                })
                .count();
            black_box(detected)
        });
    });
    group.finish();
}

fn bench_differential_fault_sim(c: &mut Criterion) {
    use moa_sim::{simulate_differential, GoodFrames};
    let mut group = c.benchmark_group("differential_fault_sim");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    let circuit = generate(&SynthSpec::new("mid", 10, 5, 12, 200, 5));
    let seq = random_sequence(&circuit, 64, 3);
    let good = GoodFrames::compute(&circuit, &seq);
    let faults = full_fault_list(&circuit);
    group.bench_function("synth200_all_faults_L64", |b| {
        b.iter(|| {
            let mut detected = 0usize;
            for f in &faults {
                let trace = simulate_differential(&circuit, &seq, &good, f);
                if moa_sim::conventional_detection(&good.to_trace(), &trace).is_some() {
                    detected += 1;
                }
            }
            black_box(detected)
        });
    });
    group.finish();
}

fn bench_event_driven(c: &mut Criterion) {
    use moa_logic::V3;
    use moa_sim::EventSim;
    let mut group = c.benchmark_group("event_driven");
    let circuit = generate(&SynthSpec::new("mid", 10, 5, 12, 200, 5));
    let pattern: Vec<V3> = (0..circuit.num_inputs())
        .map(|i| V3::from_bool(i % 2 == 0))
        .collect();
    let state: Vec<V3> = (0..circuit.num_flip_flops())
        .map(|i| V3::from_bool(i % 3 == 0))
        .collect();
    let q0 = circuit.flip_flops()[0].q();

    group.bench_function("full_frame_eval", |b| {
        b.iter(|| black_box(moa_sim::compute_frame(&circuit, &pattern, &state, None)));
    });
    group.bench_function("single_bit_update", |b| {
        let mut sim = EventSim::new(&circuit, None);
        sim.full_eval(&pattern, &state);
        let mut v = V3::Zero;
        b.iter(|| {
            v = !v;
            black_box(sim.update(&[(q0, v)]).num_specified())
        });
    });
    group.finish();
}

fn bench_packed_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_frame");
    let circuit = generate(&SynthSpec::new("mid", 10, 5, 12, 200, 5));
    let pattern: Vec<bool> = (0..circuit.num_inputs()).map(|i| i % 2 == 0).collect();
    let state: Vec<u64> = (0..circuit.num_flip_flops())
        .map(|i| 0xAAAA_5555_u64.rotate_left(i as u32))
        .collect();
    let fault = Fault::stem(circuit.inputs()[0], true);
    let replay = BinaryReplay::new(&circuit, Some(&fault));
    let mut values = PackedValues::new(&circuit);
    group.bench_function("synth200_64way", |b| {
        b.iter_batched(
            || state.clone(),
            |mut s| {
                replay.step(&circuit, &pattern, &mut s, &mut values);
                black_box(s)
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_sequence_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequence_generation");
    group.bench_function("random_L128_35in", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
            black_box(TestSequence::random(35, 128, &mut rng))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_good_simulation,
    bench_conventional_fault_sim,
    bench_differential_fault_sim,
    bench_event_driven,
    bench_packed_frame,
    bench_sequence_generation
);
criterion_main!(benches);
