//! 64-way bit-parallel two-valued replay.
//!
//! The exact restricted-MOA checker and the certificate audit both enumerate
//! the binary initial states of the faulty machine; this module replays 64
//! of them per pass, one per bit position ("slot"). Inputs are shared across
//! slots (the same test sequence drives every initial state); present-state
//! bits differ per slot.
//!
//! [`BinaryReplay`] is the one kernel: it compiles the fault once (stem net,
//! gate pin or flip-flop input) and steps each frame into caller-owned
//! buffers — a [`PackedValues`] frame and the packed state, updated in
//! place — so a replay allocates nothing per frame.

use std::ops::{Index, IndexMut};

use moa_logic::GateKind;
use moa_netlist::{Circuit, Driver, Fault, FaultSite, Gate, GateId, NetId};

/// One 64-slot binary value per net: bit `k` of `values[net]` is the value of
/// `net` in scenario `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedValues {
    values: Vec<u64>,
}

impl PackedValues {
    /// An all-zero packed frame for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        PackedValues {
            values: vec![0; circuit.num_nets()],
        }
    }
}

impl Index<NetId> for PackedValues {
    type Output = u64;

    #[inline]
    fn index(&self, net: NetId) -> &u64 {
        &self.values[net.index()]
    }
}

impl IndexMut<NetId> for PackedValues {
    #[inline]
    fn index_mut(&mut self, net: NetId) -> &mut u64 {
        &mut self.values[net.index()]
    }
}

#[inline]
fn broadcast(b: bool) -> u64 {
    if b {
        u64::MAX
    } else {
        0
    }
}

/// Where the compiled fault acts on a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injection {
    /// Fault-free replay.
    None,
    /// Stem fault on a primary input or present-state net: pinned when the
    /// frame is loaded.
    Source(NetId),
    /// Stem fault on a gate's output net.
    GateOutput,
    /// Branch fault on one input pin of a gate.
    GatePin(usize),
    /// Branch fault on a flip-flop's data input: pins the next state only.
    FlipFlopInput(usize),
}

/// The two-valued 64-slot replay kernel with one fault compiled in.
///
/// # Example
///
/// ```
/// use moa_netlist::parse_bench;
/// use moa_sim::{BinaryReplay, PackedValues};
///
/// let c = parse_bench("INPUT(a)\nOUTPUT(z)\nq = DFF(d)\nd = NOT(q)\nz = AND(a, q)\n")?;
/// let replay = BinaryReplay::new(&c, None);
/// // Slot s starts from initial state s: slot 0 has q = 0, slot 1 has q = 1.
/// let mut state = vec![0u64];
/// BinaryReplay::load_initial_states(0, &mut state);
/// let mut values = PackedValues::new(&c);
/// replay.step(&c, &[true], &mut state, &mut values);
/// assert_eq!(values[c.outputs()[0]] & 0b11, 0b10, "z = q in each slot");
/// assert_eq!(state[0] & 0b11, 0b01, "q toggles");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryReplay {
    injection: Injection,
    /// The one gate evaluated on the faulty path (an output stem or a pin
    /// fault); every other gate takes the fault-free path.
    faulty_gate: Option<GateId>,
    /// The stuck value broadcast to all slots.
    stuck: u64,
}

impl BinaryReplay {
    /// Compiles `fault` (or the fault-free machine for `None`) for replay
    /// on `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if a branch fault names a pin the gate does not have.
    pub fn new(circuit: &Circuit, fault: Option<&Fault>) -> Self {
        let Some(fault) = fault else {
            return BinaryReplay {
                injection: Injection::None,
                faulty_gate: None,
                stuck: 0,
            };
        };
        let (injection, faulty_gate) = match fault.site {
            FaultSite::Net(net) => match circuit.driver(net) {
                Driver::Gate(gate) => (Injection::GateOutput, Some(gate)),
                Driver::PrimaryInput(_) | Driver::FlipFlop(_) => (Injection::Source(net), None),
            },
            FaultSite::GateInput { gate, pin } => {
                assert!(
                    pin < circuit.gate(gate).inputs().len(),
                    "branch fault pin out of range"
                );
                (Injection::GatePin(pin), Some(gate))
            }
            FaultSite::FlipFlopInput(ff) => (Injection::FlipFlopInput(ff.index()), None),
        };
        BinaryReplay {
            injection,
            faulty_gate,
            stuck: broadcast(fault.stuck),
        }
    }

    /// Fills `state` so that slot `s` holds binary initial state
    /// `base + s`: bit `i` of the state index is flip-flop `i`'s value.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a multiple of 64.
    pub fn load_initial_states(base: u64, state: &mut [u64]) {
        /// Bit `i < 6` of the slot index `s`, for every slot at once.
        const SLOT_BITS: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        assert!(
            base.is_multiple_of(64),
            "batch base {base} is not slot-aligned"
        );
        for (i, word) in state.iter_mut().enumerate() {
            *word = match SLOT_BITS.get(i) {
                Some(&bits) => bits,
                None => broadcast(i < 64 && base >> i & 1 == 1),
            };
        }
    }

    /// Replays one time frame for 64 scenarios at once.
    ///
    /// `pattern[i]` drives primary input `i` identically in all slots;
    /// `state[i]` holds flip-flop `i`'s per-slot present state on entry and
    /// its next state on return. Every net of the frame is written to
    /// `values`, where the caller reads outputs (or any other net).
    ///
    /// # Panics
    ///
    /// Panics if `pattern` or `state` have the wrong length.
    pub fn step(
        &self,
        circuit: &Circuit,
        pattern: &[bool],
        state: &mut [u64],
        values: &mut PackedValues,
    ) {
        assert_eq!(pattern.len(), circuit.num_inputs(), "pattern length");
        assert_eq!(state.len(), circuit.num_flip_flops(), "state length");

        for (&net, &bit) in circuit.inputs().iter().zip(pattern) {
            values[net] = broadcast(bit);
        }
        for (ff, &word) in circuit.flip_flops().iter().zip(state.iter()) {
            values[ff.q()] = word;
        }
        if let Injection::Source(net) = self.injection {
            values[net] = self.stuck;
        }

        for &gid in circuit.topo_order() {
            let gate = circuit.gate(gid);
            let out = if self.faulty_gate == Some(gid) {
                self.eval_faulty(gate, values)
            } else {
                let inputs = gate.inputs();
                eval_gate(gate.kind(), inputs.len(), |pin| values[inputs[pin]])
            };
            values[gate.output()] = out;
        }

        for (word, ff) in state.iter_mut().zip(circuit.flip_flops()) {
            *word = values[ff.d()];
        }
        if let Injection::FlipFlopInput(i) = self.injection {
            state[i] = self.stuck;
        }
    }

    /// Evaluates the faulty gate: a stuck output, or one stuck input pin.
    #[cold]
    fn eval_faulty(&self, gate: &Gate, values: &PackedValues) -> u64 {
        let inputs = gate.inputs();
        match self.injection {
            Injection::GatePin(faulty_pin) => eval_gate(gate.kind(), inputs.len(), |pin| {
                if pin == faulty_pin {
                    self.stuck
                } else {
                    values[inputs[pin]]
                }
            }),
            _ => self.stuck,
        }
    }
}

/// Evaluates a gate over 64 slots, reading pin `i` through `pin(i)`.
#[inline(always)]
fn eval_gate(kind: GateKind, arity: usize, pin: impl Fn(usize) -> u64) -> u64 {
    let mut out = pin(0);
    match kind {
        GateKind::And | GateKind::Nand => {
            for i in 1..arity {
                out &= pin(i);
            }
        }
        GateKind::Or | GateKind::Nor => {
            for i in 1..arity {
                out |= pin(i);
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            for i in 1..arity {
                out ^= pin(i);
            }
        }
        GateKind::Not | GateKind::Buf => {}
    }
    if kind.inverting() {
        !out
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_logic::V3;
    use moa_netlist::{CircuitBuilder, FlipFlopId};

    use crate::frame::{compute_frame, frame_next_state};

    fn c1() -> Circuit {
        let mut b = CircuitBuilder::new("c1");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_flip_flop("q0", "d0").unwrap();
        b.add_flip_flop("q1", "d1").unwrap();
        b.add_gate(GateKind::Nand, "w", &["a", "q0"]).unwrap();
        b.add_gate(GateKind::Xor, "d0", &["w", "q1"]).unwrap();
        b.add_gate(GateKind::Nor, "d1", &["b", "q0"]).unwrap();
        b.add_gate(GateKind::Not, "z", &["w"]).unwrap();
        b.add_output("z");
        b.finish().unwrap()
    }

    /// Steps the kernel once from `state` and asserts every net and every
    /// next-state bit of slots `0..4` against the scalar simulator.
    fn assert_step_matches_scalar(
        c: &Circuit,
        pattern: &[bool],
        state: &[u64],
        fault: Option<&Fault>,
    ) {
        let replay = BinaryReplay::new(c, fault);
        let mut values = PackedValues::new(c);
        let mut next = state.to_vec();
        replay.step(c, pattern, &mut next, &mut values);
        let scalar_pattern: Vec<V3> = pattern.iter().map(|&b| V3::from_bool(b)).collect();
        for slot in 0..4u32 {
            let s: Vec<V3> = state
                .iter()
                .map(|word| V3::from_bool(word >> slot & 1 == 1))
                .collect();
            let frame = compute_frame(c, &scalar_pattern, &s, fault);
            let s_next = frame_next_state(c, &frame, fault);
            for net in c.net_ids() {
                assert_eq!(
                    V3::from_bool(values[net] >> slot & 1 == 1),
                    frame[net],
                    "net {} slot {slot} pattern {pattern:?} fault {fault:?}",
                    c.net_name(net)
                );
            }
            for (i, &word) in next.iter().enumerate() {
                assert_eq!(
                    V3::from_bool(word >> slot & 1 == 1),
                    s_next[i],
                    "next-state {i} slot {slot} fault {fault:?}"
                );
            }
        }
    }

    /// The replay kernel must agree with the scalar simulator on every
    /// slot, for all 4 initial states packed into the low bits.
    #[test]
    fn packed_agrees_with_scalar() {
        let c = c1();
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            // Slot k encodes initial state (k & 1, k >> 1).
            assert_step_matches_scalar(&c, &[a, b], &[0b1010, 0b1100], None);
        }
    }

    /// Fault injection — stem faults on a gate output, a primary input and a
    /// present-state net, a gate-pin branch and a flip-flop input — must
    /// also agree slot by slot with the scalar path.
    #[test]
    fn packed_fault_injection_agrees_with_scalar() {
        let c = c1();
        let net = |name: &str| c.find_net(name).unwrap();
        let w_gate = match c.driver(net("w")) {
            Driver::Gate(g) => g,
            other => panic!("w is gate-driven, not {other:?}"),
        };
        let faults = [
            Fault::stem(net("w"), false),
            Fault::stem(net("a"), true),
            Fault::stem(net("q1"), false),
            Fault::gate_input(w_gate, 0, true),
            Fault::gate_input(w_gate, 1, true),
            Fault::flip_flop_input(FlipFlopId::new(0), true),
        ];
        for fault in &faults {
            for pattern in [[true, false], [false, true]] {
                assert_step_matches_scalar(&c, &pattern, &[0b0110, 0b0011], Some(fault));
            }
        }
    }

    #[test]
    fn initial_states_enumerate_slot_indices() {
        let mut state = vec![0u64; 8];
        for base in [0u64, 64, 128, 192] {
            BinaryReplay::load_initial_states(base, &mut state);
            for slot in 0..64u64 {
                let index = base + slot;
                for (i, word) in state.iter().enumerate() {
                    assert_eq!(
                        word >> slot & 1,
                        index >> i & 1,
                        "base {base} slot {slot} bit {i}"
                    );
                }
            }
        }
    }
}
