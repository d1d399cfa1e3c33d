//! Property suite for the dataflow fixed-point engine.
//!
//! On seeded random CFGs (cycles included), the gen/kill worklist
//! terminates, lands on an actual fixed point of the equations, is
//! deterministic, and is monotone — growing a node's gen set can only
//! grow the solution pointwise.
//!
//! No external crates: randomness is a hand-rolled LCG so every failure
//! reproduces from its printed seed.

use kvs_lint::dataflow::{forward_gen_kill, FactSet};

/// Deterministic LCG (Numerical Recipes constants): good enough to
/// sample edges and fact sets, trivially reproducible.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform-ish draw in `0..bound` (bound ≥ 1).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() >> 33) as usize % bound
    }
}

/// A random CFG in the engine's shape: nodes `0..exit`, plus the
/// synthetic exit. Mostly forward edges, with a sprinkling of back
/// edges so the worklist actually has cycles to converge over.
fn random_cfg(rng: &mut Lcg, nodes: usize) -> (Vec<Vec<usize>>, usize) {
    let exit = nodes;
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    for (u, out) in succ.iter_mut().enumerate() {
        let fanout = 1 + rng.below(3);
        for _ in 0..fanout {
            // ~1 in 4 edges jumps backwards (a loop), the rest move
            // forward; the last node always reaches the exit.
            let v = if rng.below(4) == 0 && u > 0 {
                rng.below(u + 1)
            } else {
                u + 1 + rng.below(exit - u)
            };
            if !out.contains(&v) {
                out.push(v);
            }
        }
        if u + 1 == nodes && !out.contains(&exit) {
            out.push(exit);
        }
    }
    (succ, exit)
}

const FACTS: u32 = 24;

fn random_sets(rng: &mut Lcg, nodes: usize, density: usize) -> Vec<FactSet> {
    (0..nodes)
        .map(|_| {
            let mut s = FactSet::new();
            for _ in 0..rng.below(density + 1) {
                s.insert(rng.below(FACTS as usize) as u32);
            }
            s
        })
        .collect()
}

/// `a` is pointwise ⊆ `b`.
fn pointwise_subset(a: &[FactSet], b: &[FactSet]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.is_subset(y))
}

#[test]
fn fixpoint_terminates_and_satisfies_the_equations() {
    for seed in 0..64u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let nodes = 2 + rng.below(40);
        let (succ, exit) = random_cfg(&mut rng, nodes);
        let gen = random_sets(&mut rng, nodes, 4);
        let kill = random_sets(&mut rng, nodes, 4);
        let flow = forward_gen_kill(&succ, exit, &gen, &kill);

        // Predecessor map for the in-equation.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); exit + 1];
        for (u, ss) in succ.iter().enumerate() {
            for &v in ss {
                preds[v].push(u);
            }
        }
        for u in 0..=exit {
            let want_in: FactSet = preds[u]
                .iter()
                .flat_map(|&p| flow.outs[p].iter().copied())
                .collect();
            assert_eq!(
                flow.ins[u], want_in,
                "seed {seed}: node {u} in-state is not the join of its preds"
            );
            let want_out: FactSet = if u == exit {
                want_in
            } else {
                let mut o: FactSet = flow.ins[u].difference(&kill[u]).copied().collect();
                o.extend(gen[u].iter().copied());
                o
            };
            assert_eq!(
                flow.outs[u], want_out,
                "seed {seed}: node {u} out-state violates the gen/kill equation"
            );
        }
    }
}

#[test]
fn fixpoint_is_deterministic_and_monotone_in_gen() {
    for seed in 0..64u64 {
        let mut rng = Lcg(seed.wrapping_mul(0xD1B54A32D192ED03) | 1);
        let nodes = 2 + rng.below(40);
        let (succ, exit) = random_cfg(&mut rng, nodes);
        let gen = random_sets(&mut rng, nodes, 4);
        let kill = random_sets(&mut rng, nodes, 4);

        let a = forward_gen_kill(&succ, exit, &gen, &kill);
        let b = forward_gen_kill(&succ, exit, &gen, &kill);
        assert_eq!(a, b, "seed {seed}: two runs disagreed");

        // Grow one node's gen set by one fresh fact: a may-analysis
        // solution can only grow with it.
        let mut bigger = gen.clone();
        let node = rng.below(nodes);
        bigger[node].insert(rng.below(FACTS as usize) as u32);
        let c = forward_gen_kill(&succ, exit, &bigger, &kill);
        assert!(
            pointwise_subset(&a.ins, &c.ins) && pointwise_subset(&a.outs, &c.outs),
            "seed {seed}: growing gen[{node}] shrank the solution somewhere"
        );
    }
}

#[test]
fn tainted_facts_never_resurrect_after_a_kill_dominator() {
    // A straight line `src → kill → sink` must not carry the fact to the
    // sink, regardless of how many diamond detours the middle has — a
    // targeted guard for the sanitizer semantics the rules rely on.
    for seed in 0..32u64 {
        let mut rng = Lcg(seed | 1);
        let detours = 1 + rng.below(4);
        // Node 0 generates fact 0; node 1 kills it; the diamond nodes
        // are pass-through; the last node is the observation point.
        let nodes = 3 + detours;
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nodes];
        succ[0] = vec![1];
        for d in 0..detours {
            succ[1].push(2 + d);
            succ[2 + d] = vec![nodes - 1];
        }
        succ[nodes - 1] = vec![nodes];
        let mut gen = vec![FactSet::new(); nodes];
        gen[0].insert(0);
        let mut kill = vec![FactSet::new(); nodes];
        kill[1].insert(0);
        let flow = forward_gen_kill(&succ, nodes, &gen, &kill);
        assert!(
            !flow.ins[nodes - 1].contains(&0) && !flow.ins[nodes].contains(&0),
            "seed {seed}: killed fact leaked past its dominator"
        );
    }
}
