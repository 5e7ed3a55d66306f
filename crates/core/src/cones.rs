//! Lazily-built, shareable cone-of-influence caches.
//!
//! Backward chaining asserts values on flip-flop data nets and resimulation
//! re-evaluates frames after changing flip-flop outputs; both only ever
//! touch the structural cone of the nets involved. A [`ConeCache`] memoizes
//! those per-flip-flop regions once per circuit so every fault — and every
//! campaign worker thread — reuses them instead of re-walking the netlist.

use std::sync::OnceLock;

use moa_analyze::ImplicationDb;
use moa_netlist::{frame_fanout_cone, Circuit, Driver, Fault, GateId, NetId};

use crate::imply::ImplyRegion;

/// Per-circuit cache of the cone-restricted gate lists used by the
/// implication engine and the differential resimulators.
///
/// All entries are built on first use ([`OnceLock`]), so the cache is cheap
/// to create and safe to share across campaign worker threads by reference.
#[derive(Debug)]
pub struct ConeCache<'a> {
    circuit: &'a Circuit,
    /// Implication region for asserting on flip-flop `i`'s data net.
    imply_regions: Vec<OnceLock<ImplyRegion>>,
    /// Gates in the within-frame fan-out cone of flip-flop `i`'s output, in
    /// topological order — the gates whose value can change when present
    /// state variable `y_i` changes.
    state_fanout: Vec<OnceLock<Vec<GateId>>>,
    /// Maps a net to the flip-flop whose data input it drives, if any.
    d_net_to_ff: Vec<Option<usize>>,
    /// Statically learned implications (`MoaOptions::static_learning`).
    learned: OnceLock<ImplicationDb>,
}

impl<'a> ConeCache<'a> {
    /// An empty cache for `circuit`; regions are built on first use.
    pub fn new(circuit: &'a Circuit) -> Self {
        let n = circuit.num_flip_flops();
        let mut d_net_to_ff = vec![None; circuit.num_nets()];
        for (i, ff) in circuit.flip_flops().iter().enumerate() {
            d_net_to_ff[ff.d().index()] = Some(i);
        }
        ConeCache {
            circuit,
            imply_regions: (0..n).map(|_| OnceLock::new()).collect(),
            state_fanout: (0..n).map(|_| OnceLock::new()).collect(),
            d_net_to_ff,
            learned: OnceLock::new(),
        }
    }

    /// The circuit the cache was built for.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// The implication region for assertions on flip-flop `ff_index`'s data
    /// net (the backward-chaining step `Y_i = α`).
    pub fn imply_region(&self, ff_index: usize) -> &ImplyRegion {
        self.imply_regions[ff_index].get_or_init(|| {
            let d = self.circuit.flip_flops()[ff_index].d();
            ImplyRegion::for_nets(self.circuit, &[d])
        })
    }

    /// The cached region when every assignment targets the same single
    /// flip-flop data net; `None` when the assignments need a fresh
    /// multi-net region (build one with [`ImplyRegion::for_nets`]).
    pub fn region_for(&self, assignments: &[(NetId, moa_logic::V3)]) -> Option<&ImplyRegion> {
        match assignments {
            [(net, _)] => self.d_net_to_ff[net.index()].map(|ff| self.imply_region(ff)),
            _ => None,
        }
    }

    /// Topologically-ordered gates whose output lies in the within-frame
    /// fan-out cone of flip-flop `ff_index`'s output net — exactly the gates
    /// that can change value when `y_i` does.
    pub fn state_fanout(&self, ff_index: usize) -> &[GateId] {
        self.state_fanout[ff_index].get_or_init(|| {
            let q = self.circuit.flip_flops()[ff_index].q();
            let mut in_cone = vec![false; self.circuit.num_nets()];
            for n in frame_fanout_cone(self.circuit, &[q]) {
                in_cone[n.index()] = true;
            }
            self.circuit
                .topo_order()
                .iter()
                .copied()
                .filter(|&gid| in_cone[self.circuit.gate(gid).output().index()])
                .collect()
        })
    }

    /// The flip-flop whose data input `net` drives, if any.
    pub fn ff_of_d_net(&self, net: NetId) -> Option<usize> {
        self.d_net_to_ff[net.index()]
    }

    /// The statically learned implication database, built (once per circuit)
    /// on first use and shared across campaign worker threads. Only
    /// consulted when `MoaOptions::static_learning` is enabled.
    pub fn learned_db(&self) -> &ImplicationDb {
        self.learned
            .get_or_init(|| ImplicationDb::build(self.circuit))
    }
}

/// Cone-overlap structure over the state variables: which flip-flops'
/// within-frame fan-out cones share logic, and which cluster of mutually
/// overlapping cones each gate belongs to.
///
/// Two state variables whose cones overlap contend for the same gates during
/// backward implications and resimulation; faults inside one cluster touch a
/// common region of the circuit. The campaign's `cone-cluster` fault order
/// groups faults by cluster so that consecutive faults reuse warm regions,
/// and the ERASER-style prefix-sharing work consumes the same grouping.
#[derive(Debug, Clone)]
pub struct StateOverlap {
    /// Witness edges `(i, j)` with `i < j`, each from a gate lying in both
    /// flip-flops' fan-out cones. Sparse on purpose: per shared gate the
    /// lowest owner is linked to every other owner (not all pairs), which
    /// spans the same connected components without a quadratic edge list.
    /// Sorted lexicographically, deduplicated.
    pub edges: Vec<(usize, usize)>,
    /// Per-flip-flop cluster id: the smallest flip-flop index in the
    /// connected component of the overlap graph.
    pub cluster: Vec<usize>,
    /// Per-gate cluster id; `usize::MAX` for gates outside every state cone
    /// (pure primary-input logic).
    gate_cluster: Vec<usize>,
}

impl StateOverlap {
    /// Builds the overlap graph from `cache`'s per-flip-flop cones.
    /// Deterministic: depends only on the circuit structure.
    pub fn build(cache: &ConeCache<'_>) -> Self {
        let circuit = cache.circuit();
        let n_ffs = circuit.num_flip_flops();
        // For each gate, the flip-flops whose cone contains it (ascending,
        // since flip-flops are visited in index order).
        let mut owners: Vec<Vec<usize>> = vec![Vec::new(); circuit.num_gates()];
        for ff in 0..n_ffs {
            for &gid in cache.state_fanout(ff) {
                owners[gid.index()].push(ff);
            }
        }
        let mut parent: Vec<usize> = (0..n_ffs).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        let mut edges = Vec::new();
        for ffs in &owners {
            for pair in ffs.windows(2) {
                // Chaining consecutive owners unions the whole set; recording
                // the first owner against each later one keeps the edge list
                // small while still witnessing every overlap.
                edges.push((ffs[0], pair[1]));
                let (a, b) = (find(&mut parent, pair[0]), find(&mut parent, pair[1]));
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        // Normalize each component to its smallest member.
        let cluster: Vec<usize> = (0..n_ffs).map(|ff| find(&mut parent, ff)).collect();
        let gate_cluster: Vec<usize> = owners
            .iter()
            .map(|ffs| {
                ffs.iter()
                    .map(|&ff| cluster[ff])
                    .min()
                    .unwrap_or(usize::MAX)
            })
            .collect();
        StateOverlap {
            edges,
            cluster,
            gate_cluster,
        }
    }

    /// The cluster a fault belongs to: the cluster of the net its effect
    /// first appears on. Faults in pure primary-input logic (no state cone
    /// contains them) share the sentinel `usize::MAX`, sorting after every
    /// real cluster.
    pub fn fault_cluster(&self, circuit: &Circuit, fault: &Fault) -> usize {
        let effect_net = match fault.site {
            moa_netlist::FaultSite::Net(n) => n,
            moa_netlist::FaultSite::GateInput { gate, .. } => circuit.gate(gate).output(),
            moa_netlist::FaultSite::FlipFlopInput(ff) => circuit.flip_flop(ff).q(),
        };
        match circuit.driver(effect_net) {
            Driver::Gate(g) => self.gate_cluster[g.index()],
            Driver::FlipFlop(ff) => self.cluster[ff.index()],
            Driver::PrimaryInput(_) => usize::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_logic::GateKind;
    use moa_netlist::CircuitBuilder;

    fn c1() -> Circuit {
        let mut b = CircuitBuilder::new("cones");
        b.add_input("a").unwrap();
        b.add_flip_flop("q0", "d0").unwrap();
        b.add_flip_flop("q1", "d1").unwrap();
        b.add_gate(GateKind::And, "w", &["a", "q0"]).unwrap();
        b.add_gate(GateKind::Or, "d0", &["w", "q1"]).unwrap();
        b.add_gate(GateKind::Not, "d1", &["q1"]).unwrap();
        b.add_gate(GateKind::Buf, "z", &["w"]).unwrap();
        b.add_output("z");
        b.finish().unwrap()
    }

    #[test]
    fn state_fanout_is_topological_and_bounded() {
        let c = c1();
        let cache = ConeCache::new(&c);
        // q1 feeds d0 (via OR) and d1 (via NOT) but never w or z.
        let names: Vec<&str> = cache
            .state_fanout(1)
            .iter()
            .map(|&g| c.net_name(c.gate(g).output()))
            .collect();
        assert!(names.contains(&"d0"));
        assert!(names.contains(&"d1"));
        assert!(!names.contains(&"w"));
        assert!(!names.contains(&"z"));
        // q0 reaches w, z and d0 but not d1.
        let names0: Vec<&str> = cache
            .state_fanout(0)
            .iter()
            .map(|&g| c.net_name(c.gate(g).output()))
            .collect();
        assert!(names0.contains(&"w"));
        assert!(!names0.contains(&"d1"));
    }

    #[test]
    fn region_for_resolves_single_d_net_assignments() {
        let c = c1();
        let cache = ConeCache::new(&c);
        let d0 = c.find_net("d0").unwrap();
        let w = c.find_net("w").unwrap();
        assert!(cache.region_for(&[(d0, moa_logic::V3::One)]).is_some());
        assert!(cache.region_for(&[(w, moa_logic::V3::One)]).is_none());
        assert!(cache
            .region_for(&[(d0, moa_logic::V3::One), (d0, moa_logic::V3::One)])
            .is_none());
        assert_eq!(cache.ff_of_d_net(d0), Some(0));
        assert_eq!(cache.ff_of_d_net(w), None);
    }

    #[test]
    fn state_overlap_clusters_join_on_shared_gates() {
        // q0 and q1 both reach the OR gate driving d0: one cluster.
        let c = c1();
        let cache = ConeCache::new(&c);
        let overlap = StateOverlap::build(&cache);
        assert_eq!(overlap.cluster, vec![0, 0]);
        assert_eq!(overlap.edges, vec![(0, 1)]);
    }

    #[test]
    fn disjoint_cones_stay_in_separate_clusters() {
        // Two independent toggle registers observed at separate outputs:
        // their cones never meet.
        let mut b = CircuitBuilder::new("split");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_flip_flop("q0", "d0").unwrap();
        b.add_flip_flop("q1", "d1").unwrap();
        b.add_gate(GateKind::Xor, "d0", &["a", "q0"]).unwrap();
        b.add_gate(GateKind::Xor, "d1", &["b", "q1"]).unwrap();
        b.add_output("q0");
        b.add_output("q1");
        let c = b.finish().unwrap();
        let cache = ConeCache::new(&c);
        let overlap = StateOverlap::build(&cache);
        assert_eq!(overlap.cluster, vec![0, 1]);
        assert!(overlap.edges.is_empty());
        // Faults land in the cluster of the logic they touch.
        let d0 = c.find_net("d0").unwrap();
        let d1 = c.find_net("d1").unwrap();
        assert_eq!(overlap.fault_cluster(&c, &moa_netlist::Fault::stem(d0, true)), 0);
        assert_eq!(overlap.fault_cluster(&c, &moa_netlist::Fault::stem(d1, true)), 1);
        // A primary-input fault belongs to no state cluster... unless its
        // effect net is the input itself.
        let a = c.find_net("a").unwrap();
        assert_eq!(
            overlap.fault_cluster(&c, &moa_netlist::Fault::stem(a, true)),
            usize::MAX
        );
        // A q-net stem fault clusters with its flip-flop.
        let q1 = c.find_net("q1").unwrap();
        assert_eq!(overlap.fault_cluster(&c, &moa_netlist::Fault::stem(q1, true)), 1);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let c = c1();
        let cache = ConeCache::new(&c);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    assert!(cache.imply_region(0).num_gates() > 0);
                    assert!(!cache.state_fanout(1).is_empty());
                });
            }
        });
    }
}
