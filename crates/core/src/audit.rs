//! Certificate audit — concrete two-valued replay of detection claims.
//!
//! [`audit_certificate`] validates a [`DetectionCertificate`] against the
//! ground truth: it enumerates *every* binary initial state of the faulty
//! machine (64 at a time, through the two-valued replay kernel
//! [`BinaryReplay`]) and checks, per behaviour, that
//!
//! 1. no behaviour satisfies an [`ClaimKind::Infeasible`] cube (a concrete
//!    witness refutes the infeasibility outright),
//! 2. every behaviour satisfying an [`ClaimKind::Observation`] cube actually
//!    shows the claimed output value at the claimed time, and
//! 3. every behaviour satisfies at least one `Observation` cube — the claims
//!    jointly *cover* the behaviour space.
//!
//! Because each claimed observation is pre-checked to conflict with the
//! specified fault-free response, a [`AuditStatus::Confirmed`] verdict
//! proves every binary behaviour of the faulty machine mismatches the
//! fault-free trace at a specified position — exactly restricted-MOA
//! detection, independently of all symbolic reasoning. The audit never
//! trusts the implication engine; it only trusts the two-valued replay
//! kernel and the fault-free trace.
//!
//! # Replay horizon
//!
//! Only frames `0..H` are replayed, where `H` is the largest time unit any
//! claim reads: `time + 1` for an observation at `time`, `u` for an
//! assignment at `u`. Replay is causal — frame `u` writes the outputs of
//! time `u` and the state of time `u + 1` — so frames from `H` on cannot
//! change any cube or observation, and every verdict (witness index
//! included) equals that of a full-length replay. A conventional
//! certificate with its one observation at time `t` costs `t + 1` frames.
//!
//! # Bounds and `Inconclusive`
//!
//! The enumeration is exponential in the flip-flop count `k`, so the audit
//! is bounded by [`AuditOptions::max_initial_states`] (default `2^14`).
//! Circuits beyond the cap — or test sequences containing `X` inputs, which
//! the two-valued replay cannot drive — yield
//! [`AuditStatus::Inconclusive`]: the detection stands un-audited, which is
//! explicitly *not* a confirmation. Only [`AuditStatus::Refuted`] indicates
//! unsoundness.

use moa_netlist::{Circuit, Fault, NetId};
use moa_sim::{BinaryReplay, PackedValues, SimTrace, TestSequence};

use crate::certificate::{ClaimKind, DetectionCertificate};

/// Bounds for [`audit_certificate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditOptions {
    /// Maximum number of initial states (`2^k`) the audit may enumerate;
    /// larger state spaces yield [`AuditStatus::Inconclusive`]. The default
    /// (`2^14 = 16384`) audits every circuit with up to 14 flip-flops.
    pub max_initial_states: u64,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            max_initial_states: 1 << 14,
        }
    }
}

/// The audit verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditStatus {
    /// Every enumerated behaviour is covered by a truthful observation claim
    /// and no infeasibility claim has a concrete witness: the detection is
    /// proven by replay.
    Confirmed {
        /// Number of initial states enumerated (`2^k`).
        states_checked: u64,
    },
    /// The certificate is wrong: some claim lies about the concrete
    /// behaviour of the faulty machine, or the claims fail to cover it.
    Refuted {
        /// What failed, including a witness initial-state index where one
        /// exists.
        reason: String,
    },
    /// The audit could not run to completion; the detection is neither
    /// confirmed nor refuted.
    Inconclusive {
        /// Why the audit could not run.
        reason: String,
    },
}

impl AuditStatus {
    /// `true` for [`AuditStatus::Confirmed`].
    pub fn is_confirmed(&self) -> bool {
        matches!(self, AuditStatus::Confirmed { .. })
    }

    /// `true` for [`AuditStatus::Refuted`].
    pub fn is_refuted(&self) -> bool {
        matches!(self, AuditStatus::Refuted { .. })
    }
}

/// Validates `certificate` for `fault` under `seq` by exhaustive two-valued
/// replay. `good` must be the fault-free trace of `seq`.
///
/// # Example
///
/// A hand-written certificate for the resettable-toggle reset fault: the
/// behaviours starting at `q = 0` and `q = 1` each mismatch the fault-free
/// response (`z = x, 0, 0`) at some time unit.
///
/// ```
/// use moa_core::{audit_certificate, AuditOptions, CertificateClaim, ClaimKind,
///     CertificateSource, DetectionCertificate};
/// use moa_netlist::{parse_bench, Fault};
/// use moa_sim::{simulate, TestSequence};
///
/// let c = parse_bench(
///     "INPUT(r)\nOUTPUT(z)\nq = DFF(d)\nnq = NOT(q)\nd = AND(r, nq)\nz = BUFF(q)\n",
/// )?;
/// let seq = TestSequence::from_words(&["0", "0", "0"])?;
/// let good = simulate(&c, &seq, None);
/// let fault = Fault::stem(c.find_net("r").unwrap(), true);
/// let certificate = DetectionCertificate {
///     source: CertificateSource::Expansion,
///     claims: vec![
///         // q = 0 initially → q toggles to 1 at time 1 → z = 1 ≠ good 0.
///         CertificateClaim {
///             assignments: vec![(0, 0, false)],
///             kind: ClaimKind::Observation { time: 1, output: 0, value: true },
///         },
///         // q = 1 initially → z = 1 ≠ good 0 at time 1 (q toggles 1,0,1).
///         CertificateClaim {
///             assignments: vec![(0, 0, true)],
///             kind: ClaimKind::Observation { time: 2, output: 0, value: true },
///         },
///     ],
/// };
/// let status = audit_certificate(&c, &seq, &good, &fault, &certificate,
///     &AuditOptions::default());
/// assert!(status.is_confirmed());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn audit_certificate(
    circuit: &Circuit,
    seq: &TestSequence,
    good: &SimTrace,
    fault: &Fault,
    certificate: &DetectionCertificate,
    options: &AuditOptions,
) -> AuditStatus {
    let k = circuit.num_flip_flops();
    let l = seq.len();

    if !seq.is_fully_specified() {
        return AuditStatus::Inconclusive {
            reason: "test sequence contains unspecified inputs; two-valued replay cannot drive it"
                .into(),
        };
    }
    if k >= 64 || (1u64 << k) > options.max_initial_states {
        return AuditStatus::Inconclusive {
            reason: format!(
                "2^{k} initial states exceed the audit cap of {}",
                options.max_initial_states
            ),
        };
    }

    // Structural pre-checks: claims must be well-formed, and every claimed
    // observation must conflict a *specified* fault-free value — otherwise
    // the observation would not constitute a detection even if replay
    // reproduces it.
    if certificate.claims.is_empty() {
        return AuditStatus::Refuted {
            reason: "certificate has no claims; the behaviour space is uncovered".into(),
        };
    }
    for (c, claim) in certificate.claims.iter().enumerate() {
        for &(u, i, _) in &claim.assignments {
            if u > l || i >= k {
                return AuditStatus::Refuted {
                    reason: format!("claim {c}: assignment (u={u}, i={i}) is out of range"),
                };
            }
        }
        match claim.kind {
            ClaimKind::Observation {
                time,
                output,
                value,
            } => {
                if time >= l || output >= circuit.num_outputs() {
                    return AuditStatus::Refuted {
                        reason: format!(
                            "claim {c}: observation (time={time}, output={output}) is out of range"
                        ),
                    };
                }
                if good.outputs[time][output].to_bool() != Some(!value) {
                    return AuditStatus::Refuted {
                        reason: format!(
                            "claim {c}: claimed observation {value} at (time={time}, \
                             output={output}) does not conflict the specified fault-free value"
                        ),
                    };
                }
            }
            ClaimKind::Infeasible { time } => {
                if time > l {
                    return AuditStatus::Refuted {
                        reason: format!("claim {c}: conflict frame {time} is out of range"),
                    };
                }
            }
        }
    }

    // Index the claims by time unit once. The assignments at `u` are checked
    // against the state frame `u` starts from, the observations at `u`
    // against its outputs. The horizon `H` is the latest time unit any
    // claim reads (`time + 1` for an observation), so only frames `0..H`
    // are replayed and the assignments at `H` apply to the state the last
    // replayed frame leaves behind.
    let horizon = certificate
        .claims
        .iter()
        .map(|claim| {
            let cube = claim.assignments.iter().map(|&(u, _, _)| u).max().unwrap_or(0);
            match claim.kind {
                ClaimKind::Observation { time, .. } => cube.max(time + 1),
                ClaimKind::Infeasible { .. } => cube,
            }
        })
        .max()
        .unwrap_or(0);
    let mut assigned_at: Vec<Vec<(usize, usize, bool)>> = vec![Vec::new(); horizon + 1];
    let mut observed_at: Vec<Vec<(usize, NetId, bool)>> = vec![Vec::new(); horizon];
    for (c, claim) in certificate.claims.iter().enumerate() {
        for &(u, i, value) in &claim.assignments {
            assigned_at[u].push((c, i, value));
        }
        if let ClaimKind::Observation {
            time,
            output,
            value,
        } = claim.kind
        {
            observed_at[time].push((c, circuit.outputs()[output], value));
        }
    }
    let patterns: Vec<Vec<bool>> = seq
        .iter()
        .take(horizon)
        .map(|p| p.iter().filter_map(|v| v.to_bool()).collect())
        .collect();

    let num_claims = certificate.claims.len();
    let replay = BinaryReplay::new(circuit, Some(fault));
    let mut values = PackedValues::new(circuit);
    let mut state = vec![0u64; k];
    // cube[c]: slots whose trajectory satisfies claim c's assignments so
    // far. holds[c]: slots where claim c's observation comes out as claimed
    // (meaningful for Observation claims only).
    let mut cube = vec![u64::MAX; num_claims];
    let mut holds = vec![0u64; num_claims];
    let literal = |word: u64, value: bool| if value { word } else { !word };

    let total: u64 = 1u64 << k;
    let mut base = 0u64;
    while base < total {
        let batch = (total - base).min(64) as u32;
        let valid: u64 = if batch == 64 { u64::MAX } else { (1u64 << batch) - 1 };
        // Slot s replays initial state index base + s.
        BinaryReplay::load_initial_states(base, &mut state);
        cube.fill(u64::MAX);
        holds.fill(0);

        for (u, pattern) in patterns.iter().enumerate() {
            for &(c, i, value) in &assigned_at[u] {
                cube[c] &= literal(state[i], value);
            }
            replay.step(circuit, pattern, &mut state, &mut values);
            for &(c, net, value) in &observed_at[u] {
                holds[c] = literal(values[net], value);
            }
        }
        for &(c, i, value) in &assigned_at[horizon] {
            cube[c] &= literal(state[i], value);
        }

        let mut infeasible_hit = 0u64;
        let mut violated = 0u64;
        let mut covered = 0u64;
        for (c, claim) in certificate.claims.iter().enumerate() {
            match claim.kind {
                ClaimKind::Infeasible { .. } => infeasible_hit |= cube[c],
                ClaimKind::Observation { .. } => {
                    covered |= cube[c] & holds[c];
                    violated |= cube[c] & !holds[c];
                }
            }
        }

        let bad = valid & (infeasible_hit | violated | !covered);
        if bad != 0 {
            let slot = u64::from(bad.trailing_zeros());
            let witness = base + slot;
            let bit = 1u64 << slot;
            let reason = if infeasible_hit & bit != 0 {
                format!("initial state {witness} is a concrete witness for an infeasibility claim")
            } else if violated & bit != 0 {
                format!("initial state {witness} satisfies an observation claim whose claimed output value does not replay")
            } else {
                format!("initial state {witness} is not covered by any observation claim")
            };
            return AuditStatus::Refuted { reason };
        }
        base += 64;
    }

    AuditStatus::Confirmed {
        states_checked: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::{CertificateClaim, CertificateSource};
    use moa_logic::GateKind;
    use moa_netlist::CircuitBuilder;
    use moa_sim::simulate;

    fn toggle() -> (Circuit, TestSequence, SimTrace, Fault) {
        let mut b = CircuitBuilder::new("toggle");
        b.add_input("r").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::Not, "nq", &["q"]).unwrap();
        b.add_gate(GateKind::And, "d", &["r", "nq"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["q"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["0", "0", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        let fault = Fault::stem(c.find_net("r").unwrap(), true);
        (c, seq, good, fault)
    }

    fn toggle_certificate() -> DetectionCertificate {
        DetectionCertificate {
            source: CertificateSource::Expansion,
            claims: vec![
                CertificateClaim {
                    assignments: vec![(0, 0, false)],
                    kind: ClaimKind::Observation {
                        time: 1,
                        output: 0,
                        value: true,
                    },
                },
                CertificateClaim {
                    assignments: vec![(0, 0, true)],
                    kind: ClaimKind::Observation {
                        time: 2,
                        output: 0,
                        value: true,
                    },
                },
            ],
        }
    }

    #[test]
    fn valid_certificate_is_confirmed() {
        let (c, seq, good, fault) = toggle();
        let status = audit_certificate(
            &c,
            &seq,
            &good,
            &fault,
            &toggle_certificate(),
            &AuditOptions::default(),
        );
        assert_eq!(status, AuditStatus::Confirmed { states_checked: 2 });
    }

    #[test]
    fn perturbed_observation_value_is_refuted() {
        // Flipping a claimed observation value makes it agree with the
        // fault-free response — the structural pre-check rejects it.
        let (c, seq, good, fault) = toggle();
        let mut cert = toggle_certificate();
        if let ClaimKind::Observation { value, .. } = &mut cert.claims[0].kind {
            *value = !*value;
        }
        let status =
            audit_certificate(&c, &seq, &good, &fault, &cert, &AuditOptions::default());
        assert!(status.is_refuted(), "{status:?}");
    }

    #[test]
    fn perturbed_observation_time_is_refuted_by_replay() {
        // Claim the q=1 behaviour mismatches at time 1 — it actually matches
        // there (faulty z = 0 = good); replay catches the lie.
        let (c, seq, good, fault) = toggle();
        let mut cert = toggle_certificate();
        cert.claims[1].kind = ClaimKind::Observation {
            time: 1,
            output: 0,
            value: true,
        };
        let status =
            audit_certificate(&c, &seq, &good, &fault, &cert, &AuditOptions::default());
        match status {
            AuditStatus::Refuted { reason } => {
                assert!(reason.contains("does not replay"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn perturbed_cube_breaks_cover() {
        // Pointing both cubes at the same initial state leaves the other
        // state uncovered.
        let (c, seq, good, fault) = toggle();
        let mut cert = toggle_certificate();
        cert.claims[1].assignments = vec![(0, 0, false)];
        let status =
            audit_certificate(&c, &seq, &good, &fault, &cert, &AuditOptions::default());
        assert!(status.is_refuted(), "{status:?}");
    }

    #[test]
    fn false_infeasibility_claim_is_refuted_by_witness() {
        let (c, seq, good, fault) = toggle();
        let mut cert = toggle_certificate();
        cert.claims.push(CertificateClaim {
            assignments: vec![(0, 0, true)],
            kind: ClaimKind::Infeasible { time: 0 },
        });
        let status =
            audit_certificate(&c, &seq, &good, &fault, &cert, &AuditOptions::default());
        match status {
            AuditStatus::Refuted { reason } => {
                assert!(reason.contains("concrete witness"), "{reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_certificate_is_refuted() {
        let (c, seq, good, fault) = toggle();
        let cert = DetectionCertificate {
            source: CertificateSource::Expansion,
            claims: Vec::new(),
        };
        let status =
            audit_certificate(&c, &seq, &good, &fault, &cert, &AuditOptions::default());
        assert!(status.is_refuted());
    }

    #[test]
    fn out_of_range_claims_are_refuted() {
        let (c, seq, good, fault) = toggle();
        let mut cert = toggle_certificate();
        cert.claims[0].assignments = vec![(99, 0, false)];
        assert!(
            audit_certificate(&c, &seq, &good, &fault, &cert, &AuditOptions::default())
                .is_refuted()
        );
        let mut cert = toggle_certificate();
        cert.claims[0].kind = ClaimKind::Observation {
            time: 99,
            output: 0,
            value: true,
        };
        assert!(
            audit_certificate(&c, &seq, &good, &fault, &cert, &AuditOptions::default())
                .is_refuted()
        );
    }

    #[test]
    fn state_space_over_cap_is_inconclusive() {
        let (c, seq, good, fault) = toggle();
        let status = audit_certificate(
            &c,
            &seq,
            &good,
            &fault,
            &toggle_certificate(),
            &AuditOptions {
                max_initial_states: 1,
            },
        );
        assert!(matches!(status, AuditStatus::Inconclusive { .. }));
    }

    fn refuted_reason(status: AuditStatus) -> String {
        match status {
            AuditStatus::Refuted { reason } => reason,
            other => panic!("expected a refutation, got {other:?}"),
        }
    }

    fn observation(assignments: Vec<(usize, usize, bool)>, time: usize) -> CertificateClaim {
        CertificateClaim {
            assignments,
            kind: ClaimKind::Observation {
                time,
                output: 0,
                value: true,
            },
        }
    }

    fn expansion(claims: Vec<CertificateClaim>) -> DetectionCertificate {
        DetectionCertificate {
            source: CertificateSource::Expansion,
            claims,
        }
    }

    #[test]
    fn assignments_at_the_final_state_are_applied_after_the_last_frame() {
        // Under the fault q toggles every frame: from q=0 the states are
        // 0,1,0,1 and z = 0,1,0; from q=1 they are 1,0,1,0 and z = 1,0,1.
        // Cubes on the final state (u = L = 3) pick the behaviours.
        let (c, seq, good, fault) = toggle();
        let cert = expansion(vec![
            observation(vec![(3, 0, true)], 1),
            observation(vec![(3, 0, false)], 2),
        ]);
        let options = AuditOptions::default();
        assert_eq!(
            audit_certificate(&c, &seq, &good, &fault, &cert, &options),
            AuditStatus::Confirmed { states_checked: 2 }
        );
        // Swapped final-state cubes lie about the behaviour from q=0.
        let cert = expansion(vec![
            observation(vec![(3, 0, false)], 1),
            observation(vec![(3, 0, true)], 2),
        ]);
        let reason = refuted_reason(audit_certificate(&c, &seq, &good, &fault, &cert, &options));
        assert!(reason.starts_with("initial state 0 satisfies"), "{reason}");
    }

    #[test]
    fn observation_at_the_last_frame_is_replayed() {
        // toggle_certificate's second claim observes time L - 1 = 2.
        let (c, seq, good, fault) = toggle();
        let options = AuditOptions::default();
        assert!(
            audit_certificate(&c, &seq, &good, &fault, &toggle_certificate(), &options)
                .is_confirmed()
        );
        let mut cert = toggle_certificate();
        cert.claims[1].assignments = vec![(0, 0, false)];
        // q=0 shows z = 0 at time 2: the lowest bad state violates the
        // time-2 claim.
        let reason = refuted_reason(audit_certificate(&c, &seq, &good, &fault, &cert, &options));
        assert!(reason.starts_with("initial state 0 satisfies"), "{reason}");
    }

    /// z = BUF(a) beside a held flip-flop: the fault-free z is 1 at every
    /// time unit under an all-ones sequence.
    fn through() -> (Circuit, TestSequence, SimTrace) {
        let mut b = CircuitBuilder::new("through");
        b.add_input("a").unwrap();
        b.add_flip_flop("q", "d").unwrap();
        b.add_gate(GateKind::And, "d", &["a", "q"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["a"]).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["1", "1", "1"]).unwrap();
        let good = simulate(&c, &seq, None);
        (c, seq, good)
    }

    #[test]
    fn conventional_claim_at_time_zero_replays_one_frame() {
        let (c, seq, good) = through();
        let cert = DetectionCertificate::conventional(
            &moa_sim::Detection { time: 0, output: 0 },
            &good,
        );
        let options = AuditOptions::default();
        let a_stuck = Fault::stem(c.find_net("a").unwrap(), false);
        assert_eq!(
            audit_certificate(&c, &seq, &good, &a_stuck, &cert, &options),
            AuditStatus::Confirmed { states_checked: 2 }
        );
        // A fault that leaves z alone: frame 0 must still be replayed and
        // read, and refutes the claim for every state.
        let d_stuck = Fault::stem(c.find_net("d").unwrap(), false);
        let reason =
            refuted_reason(audit_certificate(&c, &seq, &good, &d_stuck, &cert, &options));
        assert!(reason.starts_with("initial state 0 satisfies"), "{reason}");
    }

    #[test]
    fn claims_touching_only_time_zero() {
        let (c, seq, good) = through();
        let fault = Fault::stem(c.find_net("a").unwrap(), false);
        let options = AuditOptions::default();
        let zero = |assignments| CertificateClaim {
            assignments,
            kind: ClaimKind::Observation {
                time: 0,
                output: 0,
                value: false,
            },
        };
        let cert = expansion(vec![zero(vec![(0, 0, false)]), zero(vec![(0, 0, true)])]);
        assert!(audit_certificate(&c, &seq, &good, &fault, &cert, &options).is_confirmed());
        // No observation at all: horizon 0, no frame replayed. The cube on
        // the initial state still finds its witness.
        let infeasible = |assignments| CertificateClaim {
            assignments,
            kind: ClaimKind::Infeasible { time: 0 },
        };
        let cert = expansion(vec![infeasible(vec![(0, 0, true)])]);
        let reason = refuted_reason(audit_certificate(&c, &seq, &good, &fault, &cert, &options));
        assert_eq!(reason, "initial state 0 is not covered by any observation claim");
        let cert = expansion(vec![
            zero(vec![(0, 0, false)]),
            infeasible(vec![(0, 0, true)]),
        ]);
        let reason = refuted_reason(audit_certificate(&c, &seq, &good, &fault, &cert, &options));
        assert_eq!(
            reason,
            "initial state 1 is a concrete witness for an infeasibility claim"
        );
    }

    #[test]
    fn lowest_witness_in_a_later_batch_is_reported() {
        // 7 held flip-flops → 128 initial states, two 64-slot batches. z
        // stuck-at-1 mismatches the fault-free z = 0 at time 1 from every
        // state, so only the forged claims can fail, and only from state 64
        // on (q6 = 1).
        let mut b = CircuitBuilder::new("wide");
        b.add_input("r").unwrap();
        let mut terms = Vec::new();
        for i in 0..7 {
            let (q, d) = (format!("q{i}"), format!("d{i}"));
            b.add_flip_flop(&q, &d).unwrap();
            b.add_gate(GateKind::And, &d, &["r", &q]).unwrap();
            terms.push(q);
        }
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        b.add_gate(GateKind::Or, "z", &refs).unwrap();
        b.add_output("z");
        let c = b.finish().unwrap();
        let seq = TestSequence::from_words(&["0", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        let fault = Fault::stem(c.find_net("z").unwrap(), true);
        let options = AuditOptions::default();

        let cert = expansion(vec![observation(Vec::new(), 1)]);
        assert_eq!(
            audit_certificate(&c, &seq, &good, &fault, &cert, &options),
            AuditStatus::Confirmed { states_checked: 128 }
        );
        let cert = expansion(vec![observation(vec![(0, 6, false)], 1)]);
        let reason = refuted_reason(audit_certificate(&c, &seq, &good, &fault, &cert, &options));
        assert_eq!(reason, "initial state 64 is not covered by any observation claim");
        let cert = expansion(vec![
            observation(Vec::new(), 1),
            CertificateClaim {
                assignments: vec![(0, 6, true), (0, 0, true)],
                kind: ClaimKind::Infeasible { time: 1 },
            },
        ]);
        let reason = refuted_reason(audit_certificate(&c, &seq, &good, &fault, &cert, &options));
        assert_eq!(
            reason,
            "initial state 65 is a concrete witness for an infeasibility claim"
        );
    }

    #[test]
    fn unspecified_sequence_is_inconclusive() {
        let (c, _, _, fault) = toggle();
        let seq = TestSequence::from_words(&["x", "0"]).unwrap();
        let good = simulate(&c, &seq, None);
        let status = audit_certificate(
            &c,
            &seq,
            &good,
            &fault,
            &toggle_certificate(),
            &AuditOptions::default(),
        );
        assert!(matches!(status, AuditStatus::Inconclusive { .. }));
    }
}
