//! Property-based tests over randomly generated circuits (proptest).

use proptest::prelude::*;

use moa_repro::circuits::synth::{generate, SynthSpec};
use moa_repro::core::imply::{FrameContext, ImplyOutcome};
use moa_repro::core::{
    audit_certificate, exact_moa_check, simulate_fault_certified, AuditOptions, AuditStatus,
    BudgetMeter, CertificateClaim, CertificateSource, ClaimKind, DetectionCertificate,
    ExactOutcome, MoaOptions,
};
use moa_repro::logic::V3;
use moa_repro::netlist::{
    collapse_faults, full_fault_list, observable_nets, parse_bench, structurally_equal,
    write_bench, Circuit, Fault,
};
use moa_repro::sim::{
    compute_frame, conventional_detection, frame_next_state, frame_outputs, simulate,
    simulate_differential, BinaryReplay, FaultBatch, GoodFrames, Packed3, PackedValues, SimTrace,
    TestSequence,
};
use moa_repro::tpg::random_sequence;

fn arb_spec() -> impl Strategy<Value = SynthSpec> {
    (1usize..5, 1usize..4, 1usize..7, 10usize..60, any::<u64>()).prop_map(
        |(inputs, outputs, ffs, extra_gates, seed)| {
            SynthSpec::new(
                "prop",
                inputs,
                outputs,
                ffs,
                ffs + outputs + extra_gates,
                seed,
            )
        },
    )
}

fn arb_pattern(circuit: &Circuit) -> Vec<V3> {
    // Deterministic pattern derived from the circuit size: properties below
    // draw randomness through the spec seed instead.
    (0..circuit.num_inputs())
        .map(|i| V3::from_bool(i % 2 == 0))
        .collect()
}

/// Circuits with up to 8 flip-flops: up to 256 initial states, so the
/// 64-slot replay runs several batches.
fn arb_audit_spec() -> impl Strategy<Value = SynthSpec> {
    (1usize..4, 1usize..4, 1usize..9, 10usize..40, any::<u64>()).prop_map(
        |(inputs, outputs, ffs, extra_gates, seed)| {
            SynthSpec::new(
                "audit",
                inputs,
                outputs,
                ffs,
                ffs + outputs + extra_gates,
                seed,
            )
        },
    )
}

/// One binary initial state's faulty behaviour over the whole sequence:
/// `states[u]` for every time unit `u` in `0..=L`, `outputs[u]` for `u` in
/// `0..L`.
struct Behaviour {
    states: Vec<Vec<bool>>,
    outputs: Vec<Vec<bool>>,
}

/// The reference the replay kernel answers to: each initial state replayed
/// on its own, over the full sequence, by the scalar three-valued
/// simulator (which stays binary from a binary state under binary inputs).
fn scalar_behaviours(c: &Circuit, seq: &TestSequence, fault: &Fault) -> Vec<Behaviour> {
    let k = c.num_flip_flops();
    let binary = |values: &[V3]| -> Vec<bool> {
        values
            .iter()
            .map(|v| v.to_bool().expect("binary replay"))
            .collect()
    };
    (0..1u64 << k)
        .map(|index| {
            let mut state: Vec<V3> = (0..k).map(|i| V3::from_bool(index >> i & 1 == 1)).collect();
            let mut behaviour = Behaviour {
                states: Vec::new(),
                outputs: Vec::new(),
            };
            for u in 0..seq.len() {
                behaviour.states.push(binary(&state));
                let frame = compute_frame(c, seq.pattern(u), &state, Some(fault));
                behaviour.outputs.push(binary(&frame_outputs(c, &frame)));
                state = frame_next_state(c, &frame, Some(fault));
            }
            behaviour.states.push(binary(&state));
            behaviour
        })
        .collect()
}

/// `audit_certificate`'s verdict recomputed from the scalar behaviours, for
/// certificates that pass its structural pre-checks.
fn reference_audit(behaviours: &[Behaviour], cert: &DetectionCertificate) -> AuditStatus {
    for (index, b) in behaviours.iter().enumerate() {
        let (mut infeasible_hit, mut violated, mut covered) = (false, false, false);
        for claim in &cert.claims {
            if !claim
                .assignments
                .iter()
                .all(|&(u, i, value)| b.states[u][i] == value)
            {
                continue;
            }
            match claim.kind {
                ClaimKind::Infeasible { .. } => infeasible_hit = true,
                ClaimKind::Observation {
                    time,
                    output,
                    value,
                } => {
                    if b.outputs[time][output] == value {
                        covered = true;
                    } else {
                        violated = true;
                    }
                }
            }
        }
        let reason = if infeasible_hit {
            format!("initial state {index} is a concrete witness for an infeasibility claim")
        } else if violated {
            format!("initial state {index} satisfies an observation claim whose claimed output value does not replay")
        } else if !covered {
            format!("initial state {index} is not covered by any observation claim")
        } else {
            continue;
        };
        return AuditStatus::Refuted { reason };
    }
    AuditStatus::Confirmed {
        states_checked: behaviours.len() as u64,
    }
}

/// `exact_moa_check`'s verdict recomputed from the scalar behaviours.
fn reference_exact(behaviours: &[Behaviour], good: &SimTrace) -> ExactOutcome {
    for b in behaviours {
        let mismatched = b.outputs.iter().zip(&good.outputs).any(|(faulty, good)| {
            faulty
                .iter()
                .zip(good)
                .any(|(&f, g)| g.to_bool() == Some(!f))
        });
        if !mismatched {
            return ExactOutcome::NotDetected {
                surviving_state: b.states[0].clone(),
            };
        }
    }
    ExactOutcome::Detected
}

/// Genuine and forged certificates for one fault, all passing the audit's
/// structural pre-checks: conventional claims at every specified output,
/// random cubes and observations, genuine certificates with a claim taken
/// away, and infeasibility claims built from a concrete trajectory (so
/// they always have a witness).
fn certificates(
    genuine: Option<DetectionCertificate>,
    behaviours: &[Behaviour],
    good: &SimTrace,
    seed: u64,
) -> Vec<DetectionCertificate> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let len = good.outputs.len();
    let k = behaviours[0].states[0].len();
    let specified: Vec<(usize, usize, bool)> = good
        .outputs
        .iter()
        .enumerate()
        .flat_map(|(t, outs)| {
            outs.iter()
                .enumerate()
                .filter_map(move |(o, v)| v.to_bool().map(|g| (t, o, !g)))
        })
        .collect();
    let make = |claims| DetectionCertificate {
        source: CertificateSource::Expansion,
        claims,
    };
    let observe = |(time, output, value): (usize, usize, bool), assignments| CertificateClaim {
        assignments,
        kind: ClaimKind::Observation {
            time,
            output,
            value,
        },
    };
    let mut certs = Vec::new();
    for &at in specified.iter().take(6) {
        certs.push(make(vec![observe(at, Vec::new())]));
    }
    for _ in 0..6 {
        let claims = (0..rng.random_range(1..5usize))
            .map(|_| {
                let assignments = (0..rng.random_range(0..3usize))
                    .map(|_| {
                        (
                            rng.random_range(0..len + 1),
                            rng.random_range(0..k),
                            rng.random(),
                        )
                    })
                    .collect();
                if specified.is_empty() || rng.random_bool(0.2) {
                    CertificateClaim {
                        assignments,
                        kind: ClaimKind::Infeasible {
                            time: rng.random_range(0..len + 1),
                        },
                    }
                } else {
                    observe(specified[rng.random_range(0..specified.len())], assignments)
                }
            })
            .collect();
        certs.push(make(claims));
    }
    if let Some(genuine) = &genuine {
        if genuine.claims.len() > 1 {
            let mut missing = genuine.clone();
            missing
                .claims
                .remove(rng.random_range(0..genuine.claims.len()));
            certs.push(missing);
        }
        // Confined to the states whose top flip-flop starts at 0: the lowest
        // uncovered state, if the rest holds, is 2^(k-1) — a later batch for
        // k > 7.
        let mut halved = genuine.clone();
        for claim in &mut halved.claims {
            claim.assignments.push((0, k - 1, false));
        }
        certs.push(halved);
    }
    // An infeasibility claim whose cube pins a whole initial state (plus a
    // few trajectory bits of it): that state is a witness, and no lower one
    // is.
    let base = genuine.clone().or_else(|| {
        (!specified.is_empty()).then(|| {
            make(vec![observe(
                specified[rng.random_range(0..specified.len())],
                Vec::new(),
            )])
        })
    });
    if let Some(base) = base {
        let index = rng.random_range(0..behaviours.len());
        let witness = &behaviours[index];
        let mut cube: Vec<(usize, usize, bool)> =
            (0..k).map(|i| (0, i, witness.states[0][i])).collect();
        for _ in 0..rng.random_range(0..3usize) {
            let (u, i) = (rng.random_range(0..len + 1), rng.random_range(0..k));
            cube.push((u, i, witness.states[u][i]));
        }
        let mut infeasible = base;
        infeasible.claims.push(CertificateClaim {
            assignments: cube,
            kind: ClaimKind::Infeasible {
                time: rng.random_range(0..len + 1),
            },
        });
        certs.push(infeasible);
    }
    certs.extend(genuine);
    // When every state mismatches somewhere, one claim per initial state
    // (its full state as the cube, its first mismatch as the observation)
    // is a valid certificate; dropping or retiming the claim of one state
    // from the upper half makes that state the lowest witness.
    let first_mismatch = |b: &Behaviour| {
        specified
            .iter()
            .copied()
            .find(|&(t, o, value)| b.outputs[t][o] == value)
    };
    let per_state: Option<Vec<CertificateClaim>> = behaviours
        .iter()
        .map(|b| {
            let cube = (0..k).map(|i| (0, i, b.states[0][i])).collect();
            first_mismatch(b).map(|at| observe(at, cube))
        })
        .collect();
    if let Some(claims) = per_state {
        let victim = rng.random_range(claims.len() / 2..claims.len());
        let mut dropped = claims.clone();
        dropped.remove(victim);
        certs.push(make(dropped));
        let b = &behaviours[victim];
        if let Some(&wrong) = specified
            .iter()
            .find(|&&(t, o, value)| b.outputs[t][o] != value)
        {
            let mut retimed = claims.clone();
            retimed[victim] = observe(wrong, retimed[victim].assignments.clone());
            certs.push(make(retimed));
        }
        certs.push(make(claims));
    }
    certs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The packed audit (replay horizon, claim index, 64-slot batches) and
    /// the exact check (early batch exit) give exactly the verdicts — and
    /// the refutation reasons, witness index included — of a full-length,
    /// one-state-at-a-time scalar replay, on genuine and forged
    /// certificates alike.
    #[test]
    fn audit_and_exact_agree_with_a_scalar_reference(
        spec in arb_audit_spec(),
        seq_len in 2usize..12,
        seq_seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let c = generate(&spec);
        let seq = random_sequence(&c, seq_len, seq_seed);
        let good = simulate(&c, &seq, None);
        let faults = full_fault_list(&c);
        // Half the picks come from the conventionally detected faults, whose
        // every initial state mismatches: the per-state certificates need
        // those.
        let detected: Vec<Fault> = faults
            .iter()
            .filter(|f| conventional_detection(&good, &simulate(&c, &seq, Some(f))).is_some())
            .copied()
            .collect();
        let options = AuditOptions::default();
        for pick in 0..8u64 {
            let pool = if pick % 2 == 1 && !detected.is_empty() { &detected } else { &faults };
            let fault = &pool[((fault_seed ^ pick.wrapping_mul(0x9E37_79B9)) % pool.len() as u64) as usize];
            let behaviours = scalar_behaviours(&c, &seq, fault);
            let exact = exact_moa_check(&c, &seq, &good, fault, 16).expect("enumerable");
            prop_assert_eq!(exact, reference_exact(&behaviours, &good), "{}", fault.describe(&c));
            let (_, genuine) = simulate_fault_certified(
                &c, &seq, &good, fault, &MoaOptions::default(), None,
                &mut BudgetMeter::unlimited(),
            );
            for cert in certificates(genuine, &behaviours, &good, fault_seed ^ pick) {
                let verdict = audit_certificate(&c, &seq, &good, fault, &cert, &options);
                prop_assert_eq!(
                    &verdict,
                    &reference_audit(&behaviours, &cert),
                    "{} {:?}", fault.describe(&c), cert
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The synthetic generator leaves almost no dangling logic: unused gate
    /// outputs and unread inputs are absorbed into the dedicated state and
    /// observation gates, so the only unobservable nets are isolated
    /// flip-flop islands (state bits feeding only each other), which mirror
    /// the never-initialized portions of real sequential benchmarks.
    #[test]
    fn generated_circuits_are_mostly_observable(spec in arb_spec()) {
        let c = generate(&spec);
        let observable = observable_nets(&c).len();
        // Worst case: every flip-flop is an island (q + its dedicated gate).
        let island_bound = 2 * c.num_flip_flops();
        prop_assert!(
            observable + island_bound >= c.num_nets(),
            "{observable}/{} observable with {} flip-flops",
            c.num_nets(),
            c.num_flip_flops()
        );
    }

    /// The `.bench` writer/parser round-trips every generated circuit.
    #[test]
    fn bench_format_round_trips(spec in arb_spec()) {
        let c = generate(&spec);
        let text = write_bench(&c);
        let c2 = parse_bench(&text).expect("writer output parses");
        prop_assert!(structurally_equal(&c, &c2));
    }

    /// Fault collapsing partitions the full fault list and representatives
    /// are members of their own classes.
    #[test]
    fn collapsing_partitions_faults(spec in arb_spec()) {
        let c = generate(&spec);
        let full = full_fault_list(&c);
        let collapsed = collapse_faults(&c, &full);
        prop_assert!(collapsed.len() <= full.len());
        prop_assert!(!collapsed.is_empty());
        for &f in &full {
            let rep = collapsed.representative_of(f).expect("fault in a class");
            prop_assert!(collapsed.class_of(f).unwrap().contains(&f));
            prop_assert_eq!(collapsed.representative_of(rep), Some(rep));
        }
    }

    /// Implication-engine soundness against exhaustive enumeration: if
    /// asserting `Y_i = α` conflicts, no binary completion of the present
    /// state produces `Y_i = α`; if it yields refined values, every
    /// completion that produces `Y_i = α` agrees with every refined net.
    #[test]
    fn imply_is_sound_against_enumeration(
        spec in arb_spec(),
        ff_choice in any::<u32>(),
        alpha in any::<bool>(),
        rounds in 1usize..3,
    ) {
        let c = generate(&spec);
        let k = c.num_flip_flops();
        prop_assume!(k <= 6);
        let pattern = arb_pattern(&c);
        let state = vec![V3::X; k];
        let ctx = FrameContext::new(&c, &pattern, &state, None);
        let i = (ff_choice as usize) % k;
        let d_net = c.flip_flops()[i].d();
        let outcome = ctx.imply(&[(d_net, V3::from_bool(alpha))], rounds);

        // Enumerate all binary completions of the present state with the
        // 64-way two-valued replay kernel.
        let packed_pattern: Vec<bool> =
            pattern.iter().map(|v| v.to_bool().expect("binary")).collect();
        let total = 1u64 << k;
        prop_assume!(total <= 64);
        let mut next = vec![0u64; k];
        BinaryReplay::load_initial_states(0, &mut next);
        let mut frame = PackedValues::new(&c);
        BinaryReplay::new(&c, None).step(&c, &packed_pattern, &mut next, &mut frame);
        let valid = if total == 64 { u64::MAX } else { (1u64 << total) - 1 };
        let matching = if alpha { next[i] & valid } else { !next[i] & valid };

        match outcome {
            ImplyOutcome::Conflict => {
                prop_assert_eq!(matching, 0, "conflict must mean no completion matches");
            }
            ImplyOutcome::Values(v) => {
                // For every completion slot where Y_i = alpha, each net value
                // refined by the engine must hold.
                for net in c.net_ids() {
                    let Some(expect) = v[net].to_bool() else { continue };
                    let word = frame[net];
                    let agree = if expect { word } else { !word };
                    prop_assert_eq!(
                        matching & !agree, 0,
                        "net {} refined to {} but some matching completion disagrees",
                        c.net_name(net), v[net]
                    );
                }
            }
        }
    }

    /// Single-observation-time detection implies restricted-MOA detection:
    /// if the three-valued faulty response conflicts with the good response,
    /// every binary initial state of the faulty machine must conflict too.
    #[test]
    fn conventional_detection_implies_exact_detection(
        spec in arb_spec(),
        fault_choice in any::<u32>(),
        stuck in any::<bool>(),
        seq_seed in any::<u64>(),
    ) {
        let c = generate(&spec);
        prop_assume!(c.num_flip_flops() <= 8);
        let seq = {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seq_seed);
            TestSequence::random(c.num_inputs(), 12, &mut rng)
        };
        let net = moa_repro::netlist::NetId::new((fault_choice as usize) % c.num_nets());
        let fault = Fault::stem(net, stuck);
        let good = simulate(&c, &seq, None);
        let faulty = simulate(&c, &seq, Some(&fault));
        prop_assume!(conventional_detection(&good, &faulty).is_some());
        let exact = exact_moa_check(&c, &seq, &good, &fault, 16).expect("enumerable");
        prop_assert_eq!(exact, ExactOutcome::Detected);
    }

    /// Differential (event-driven, delta-from-good) fault simulation equals
    /// full fault simulation for every stem fault of a random circuit.
    #[test]
    fn differential_simulation_equals_full(spec in arb_spec(), seq_seed in any::<u64>()) {
        let c = generate(&spec);
        let seq = {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seq_seed);
            TestSequence::random(c.num_inputs(), 10, &mut rng)
        };
        let good = GoodFrames::compute(&c, &seq);
        for net in c.net_ids().step_by(3) {
            for stuck in [false, true] {
                let fault = Fault::stem(net, stuck);
                let reference = simulate(&c, &seq, Some(&fault));
                let differential = simulate_differential(&c, &seq, &good, &fault);
                prop_assert_eq!(&reference, &differential, "{}", fault.describe(&c));
            }
        }
    }

    /// The dual-rail packed frame evaluator of the screening kernel agrees
    /// with the scalar three-valued simulator slot by slot, for random
    /// circuits, random mixed-ternary states and random faults (the same
    /// fault in every slot).
    #[test]
    fn packed3_agrees_with_scalar(
        spec in arb_spec(),
        state_trits in proptest::collection::vec(0u8..3, 64),
        fault_choice in any::<u32>(),
        stuck in any::<bool>(),
    ) {
        let c = generate(&spec);
        let k = c.num_flip_flops();
        let pattern = arb_pattern(&c);
        let vals = [V3::Zero, V3::One, V3::X];
        // Pack 16 scenarios, each state trit drawn from the pool.
        let slots = 16u32;
        let states: Vec<Vec<V3>> = (0..slots as usize)
            .map(|s| (0..k).map(|i| vals[state_trits[(s * 7 + i * 3) % 64] as usize]).collect())
            .collect();
        let packed_state: Vec<Packed3> = (0..k)
            .map(|i| {
                let mut p = Packed3::ALL_X;
                for (s, st) in states.iter().enumerate() {
                    p.set(s as u32, st[i]);
                }
                p
            })
            .collect();
        let net = moa_repro::netlist::NetId::new((fault_choice as usize) % c.num_nets());
        let fault = Fault::stem(net, stuck);
        let batch = FaultBatch::<u64>::new(&c, &vec![fault; slots as usize]);
        let frame = batch.run_frame(&c, &pattern, &packed_state);
        let mut next = vec![Packed3::ALL_X; k];
        batch.next_state_into(&c, &frame, &mut next);
        for (s, st) in states.iter().enumerate() {
            let scalar = compute_frame(&c, &pattern, st, Some(&fault));
            for net in c.net_ids() {
                prop_assert_eq!(frame.get(net).get(s as u32), scalar[net], "net {} slot {}", c.net_name(net), s);
            }
            let scalar_next = moa_repro::sim::frame_next_state(&c, &scalar, Some(&fault));
            for i in 0..k {
                prop_assert_eq!(next[i].get(s as u32), scalar_next[i]);
            }
        }
    }

    /// A detection certificate that lies about an observation is always
    /// refuted: flipping the claimed output value of any observation claim of
    /// a confirmed certificate must turn the audit verdict into `Refuted`.
    /// (The forged claim asserts the faulty machine matches the good value —
    /// no detection — so replay can never corroborate it.)
    #[test]
    fn perturbed_observation_value_always_fails_audit(spec in arb_spec(), seq_seed in any::<u64>()) {
        let c = generate(&spec);
        let seq = random_sequence(&c, 8, seq_seed);
        let good = simulate(&c, &seq, None);
        let faults = collapse_faults(&c, &full_fault_list(&c)).representatives().to_vec();
        for fault in faults.iter().take(8) {
            let (result, certificate) = simulate_fault_certified(
                &c, &seq, &good, fault, &MoaOptions::default(), None,
                &mut BudgetMeter::unlimited(),
            );
            prop_assert_eq!(result.status.is_detected(), certificate.is_some());
            let Some(certificate) = certificate else { continue };
            let options = AuditOptions::default();
            if !audit_certificate(&c, &seq, &good, fault, &certificate, &options).is_confirmed() {
                continue;
            }
            for (i, claim) in certificate.claims.iter().enumerate() {
                let ClaimKind::Observation { time, output, value } = claim.kind else {
                    continue;
                };
                let mut forged = certificate.clone();
                forged.claims[i].kind = ClaimKind::Observation { time, output, value: !value };
                let verdict = audit_certificate(&c, &seq, &good, fault, &forged, &options);
                prop_assert!(
                    verdict.is_refuted(),
                    "flipping claim {i} of {fault:?} must refute: {verdict:?}"
                );
            }
        }
    }

    /// Three-valued frame evaluation is sound: any binary completion of the
    /// present state agrees with every specified value of the X-state frame.
    #[test]
    fn three_valued_frame_is_sound(spec in arb_spec(), state_bits in any::<u64>()) {
        let c = generate(&spec);
        let k = c.num_flip_flops();
        let pattern = arb_pattern(&c);
        let x_frame = compute_frame(&c, &pattern, &vec![V3::X; k], None);
        let state: Vec<V3> = (0..k).map(|i| V3::from_bool(state_bits >> i & 1 == 1)).collect();
        let concrete = compute_frame(&c, &pattern, &state, None);
        for net in c.net_ids() {
            if x_frame[net].is_specified() {
                prop_assert_eq!(x_frame[net], concrete[net], "net {}", c.net_name(net));
            }
        }
    }
}
