//! The validator: compares the two symbolic final states and, on a
//! mismatch, extracts a concrete distinguishing input and confirms it by
//! running both VM engines.
//!
//! The soundness contract is asymmetric by design:
//!
//! * [`Verdict::Proved`] means every written cell of every original array
//!   and every compared live-out scalar computes the *identical* term on
//!   both sides, at the exit of every block or of the whole walk —
//!   equivalence over **all** inputs, under uninterpreted (bit-exact)
//!   operator semantics.
//! * [`Verdict::Refuted`] is only ever returned with a concrete input
//!   that was **replayed through both VM engines** and observed to
//!   diverge — a symbolic mismatch alone is not enough, because the term
//!   model is conservative (it refuses reassociation a transformation
//!   might legitimately never perform, but it cannot rule out that two
//!   different-looking terms agree on every input).
//! * Anything in between degrades to [`Verdict::Budget`] or
//!   [`Verdict::Unsupported`], and the caller falls back to the existing
//!   differential check.

use std::collections::HashMap;

use slp_core::{compile, CompiledKernel, MachineConfig, SlpConfig, Strategy};
use slp_ir::{loop_local_scalars, ArrayId, Program, TypeEnv, VarId};
use slp_vm::{
    execute_reference_with_state, execute_with_state, seed_scalar, seed_value, MachineState,
};

use crate::blockwise::prove_blockwise;
use crate::eval::{eval_compiled_kernel, eval_scalar_program, Budgets, EvalError, SymbolicState};
use crate::term::{Arena, Term, TermId};

/// Statistics of a successful proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProofStats {
    /// Distinct terms interned across both sides.
    pub terms: usize,
    /// Statements evaluated across both sides: each block's once (a main
    /// loop's scalar side `U` times), or, for a proof that walked the
    /// loops, every dynamic statement.
    pub steps: u64,
    /// Written cells whose final terms were compared, summed over the
    /// blocks proven (a cell is an array and a subscript form).
    pub cells_compared: usize,
    /// Live-out scalars compared, summed over the blocks proven.
    pub scalars_compared: usize,
}

/// A concrete input on which the two sides compute different results.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Array-cell inputs `(array, linear offset, value)`, already coerced
    /// to the array's element type.
    pub cells: Vec<(ArrayId, i64, f64)>,
    /// Scalar inputs `(var, value)`, already coerced.
    pub scalars: Vec<(VarId, f64)>,
    /// Human-readable observable location that diverges, e.g. `A[12]`.
    pub location: String,
    /// The value the scalar program computes there.
    pub scalar_value: f64,
    /// The value the vectorized kernel computes there.
    pub vector_value: f64,
}

/// The outcome of one validation run.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// Equivalence proved over all inputs.
    Proved(ProofStats),
    /// A resource budget was exhausted before a verdict.
    Budget {
        /// What ran out.
        reason: String,
    },
    /// The kernel leaves the fragment the symbolic semantics models, or a
    /// symbolic mismatch could not be confirmed concretely.
    Unsupported {
        /// What could not be modelled or confirmed.
        reason: String,
    },
    /// A VM-confirmed miscompile: both engines diverge on the input.
    Refuted(Box<Counterexample>),
}

impl Verdict {
    /// Short machine-readable name: `proved`, `budget`, `unsupported` or
    /// `refuted`.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Proved(_) => "proved",
            Verdict::Budget { .. } => "budget",
            Verdict::Unsupported { .. } => "unsupported",
            Verdict::Refuted(_) => "refuted",
        }
    }
}

/// One observable location in the comparator.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Location {
    Cell(ArrayId, i64),
    Scalar(VarId),
}

/// Proves or refutes `kernel` ≡ `original`: block by block where the
/// block-wise proof decides, otherwise by walking every loop iteration.
///
/// `original` must be the untransformed program `kernel` was compiled
/// from; `machine` is only used for counterexample replay.
pub fn validate(
    original: &Program,
    kernel: &CompiledKernel,
    machine: &MachineConfig,
    budgets: &Budgets,
) -> Verdict {
    let Some(stats) = prove_blockwise(original, kernel, budgets) else {
        return walk_concretely(original, kernel, machine, budgets);
    };
    // Debug builds confirm the proof by the concrete walk, when that fits
    // the budget.
    debug_assert!(
        matches!(
            walk_concretely(original, kernel, machine, budgets),
            Verdict::Proved(_) | Verdict::Budget { .. }
        ),
        "the concrete walk does not confirm the block-wise proof of {}",
        original.name()
    );
    Verdict::Proved(stats)
}

/// Proves or refutes `kernel` ≡ `original` by walking every loop
/// iteration concretely on both sides.
fn walk_concretely(
    original: &Program,
    kernel: &CompiledKernel,
    machine: &MachineConfig,
    budgets: &Budgets,
) -> Verdict {
    let mut arena = Arena::new(budgets.max_terms);
    let scalar_side = match eval_scalar_program(original, &mut arena, budgets) {
        Ok(s) => s,
        Err(e) => return degrade(e),
    };
    let kernel_side = match eval_compiled_kernel(kernel, &mut arena, budgets) {
        Ok(s) => s,
        Err(e) => return degrade(e),
    };

    let compared = compared_scalars(original);
    let sides = [&scalar_side, &kernel_side];
    let (divergences, cells_compared, scalars_compared) =
        match compare(original, &compared, sides, &mut arena) {
            Ok(c) => c,
            Err(e) => return degrade(e),
        };
    if divergences.is_empty() {
        return Verdict::Proved(ProofStats {
            terms: arena.len(),
            steps: scalar_side.steps + kernel_side.steps,
            cells_compared,
            scalars_compared,
        });
    }

    // A symbolic mismatch: hunt for a concrete input that separates the
    // two terms, and only claim a refutation once both VM engines agree
    // the kernels diverge on it.
    for (loc, ts, tk) in &divergences {
        if let Some(cex) = extract_counterexample(original, &arena, *loc, *ts, *tk) {
            if replay_counterexample(original, kernel, machine, &cex) {
                return Verdict::Refuted(Box::new(cex));
            }
        }
    }
    let loc = describe(original, divergences[0].0);
    Verdict::Unsupported {
        reason: format!(
            "symbolic mismatch at {loc} ({} total) not confirmed by execution",
            divergences.len()
        ),
    }
}

/// A location whose terms differ: the scalar side's, then the kernel's.
type Divergence = (Location, TermId, TermId);

/// Where two final states differ, and how many cells and scalars were
/// compared. The observables are every cell either side wrote in an
/// *original* array (replicated copies are internal), then every
/// `compared` scalar.
pub(crate) fn compare(
    original: &Program,
    compared: &[bool],
    [s, k]: [&SymbolicState; 2],
    arena: &mut Arena,
) -> Result<(Vec<Divergence>, usize, usize), EvalError> {
    let n_arrays = original.arrays().len();
    let mut divergences = Vec::new();
    let mut written = [s.dirty.as_slice(), &k.dirty].concat();
    written.sort_unstable();
    written.dedup();
    written.retain(|(a, _)| a.index() < n_arrays);
    for &(a, off) in &written {
        let (ts, tk) = (s.cell_term(arena, a, off)?, k.cell_term(arena, a, off)?);
        if ts != tk {
            divergences.push((Location::Cell(a, off), ts, tk));
        }
    }
    let mut scalars = 0;
    for v in original.scalar_ids().filter(|v| compared[v.index()]) {
        scalars += 1;
        let (ts, tk) = (s.scalars[v.index()], k.scalars[v.index()]);
        if ts != tk {
            divergences.push((Location::Scalar(v), ts, tk));
        }
    }
    Ok((divergences, written.len(), scalars))
}

fn degrade(e: EvalError) -> Verdict {
    match e {
        EvalError::Budget(reason) => Verdict::Budget { reason },
        EvalError::Unsupported(reason) => Verdict::Unsupported { reason },
    }
}

fn describe(original: &Program, loc: Location) -> String {
    match loc {
        Location::Cell(a, off) => format!("{}[{off}]", original.array(a).name),
        Location::Scalar(v) => format!("scalar {}", original.scalar(v).name),
    }
}

/// SplitMix64 finalizer — the same shape the VM's deterministic seeding
/// uses, re-derived locally so probe inputs stay reproducible.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

fn leaf_key(leaf: &Term) -> u64 {
    match leaf {
        Term::Cell(a, off) => ((a.index() as u64) << 40) ^ (*off as u64),
        Term::Scalar(v) => 0xDEAD_0000_0000_0000 ^ v.index() as u64,
        _ => unreachable!("leaves are cells or scalars"),
    }
}

/// Searches for a concrete input distinguishing `ts` from `tk`.
///
/// Probe 0 is the VM's deterministic seed image; subsequent probes
/// perturb every input leaf with independent deterministic values. Two
/// *semantically equal* terms (e.g. a commuted addition this validator
/// refuses to identify) agree on every probe and yield `None`, which the
/// caller degrades to [`Verdict::Unsupported`].
fn extract_counterexample(
    original: &Program,
    arena: &Arena,
    loc: Location,
    ts: TermId,
    tk: TermId,
) -> Option<Counterexample> {
    let leaves = arena.leaves(&[ts, tk]);
    // The input space is the original program's arrays and scalars; a
    // term depending on anything else (an unpopulated replicated cell,
    // a transformation-introduced temporary) is not expressible as an
    // input and the mismatch cannot be confirmed this way.
    let n_arrays = original.arrays().len();
    let n_scalars = original.scalars().len();
    for leaf in &leaves {
        match leaf {
            Term::Cell(a, off)
                if a.index() >= n_arrays || *off < 0 || *off >= original.array(*a).len() =>
            {
                return None;
            }
            Term::Scalar(v) if v.index() >= n_scalars => {
                return None;
            }
            _ => {}
        }
    }

    const PROBES: u64 = 17;
    for probe in 0..PROBES {
        let mut assign: HashMap<Term, f64> = HashMap::new();
        for leaf in &leaves {
            let (ty, seed) = match *leaf {
                Term::Cell(a, off) => (original.array(a).ty, seed_value(a, off as usize)),
                Term::Scalar(v) => (original.scalar_type(v), seed_scalar(v)),
                _ => continue,
            };
            let raw = if probe == 0 {
                seed
            } else {
                0.25 + 4.0 * unit(mix64(leaf_key(leaf) ^ (probe << 56)))
            };
            assign.insert(*leaf, ty.coerce(raw * 4.0));
        }
        let vs = arena.eval(ts, &assign);
        let vk = arena.eval(tk, &assign);
        if vs.to_bits() != vk.to_bits() {
            let mut cells = Vec::new();
            let mut scalars = Vec::new();
            for (leaf, &value) in leaves.iter().zip(leaves.iter().map(|l| &assign[l])) {
                match leaf {
                    Term::Cell(a, off) => cells.push((*a, *off, value)),
                    Term::Scalar(v) => scalars.push((*v, value)),
                    _ => {}
                }
            }
            cells.sort_by_key(|&(a, off, _)| (a, off));
            scalars.sort_by_key(|&(v, _)| v);
            return Some(Counterexample {
                cells,
                scalars,
                location: describe(original, loc),
                scalar_value: vs,
                vector_value: vk,
            });
        }
    }
    None
}

/// Replays `cex` through both kernels on **both** VM engines and reports
/// whether execution confirms the divergence.
///
/// Confirmation requires the scalar build of `original` and `kernel` to
/// produce observably different final states (an original array differs
/// bitwise, or a compared live-out scalar differs) on the bytecode engine
/// *and* on the reference interpreter. Any execution error on either side
/// counts as unconfirmed.
pub fn replay_counterexample(
    original: &Program,
    kernel: &CompiledKernel,
    machine: &MachineConfig,
    cex: &Counterexample,
) -> bool {
    let scalar_cfg = SlpConfig::for_machine(machine.clone(), Strategy::Scalar);
    let scalar_kernel = compile(original, &scalar_cfg);
    let n_arrays = original.arrays().len();
    let compared = compared_scalars(original);

    let seed = |program: &Program| {
        let mut st = MachineState::seeded(program);
        for &(a, off, v) in &cex.cells {
            st.store_array(a, off as usize, v);
        }
        for &(v, x) in &cex.scalars {
            st.set_scalar(v, x);
        }
        st
    };

    let diverges = |run: &dyn Fn(&CompiledKernel, MachineState) -> Option<MachineState>| -> bool {
        let Some(s) = run(&scalar_kernel, seed(&scalar_kernel.program)) else {
            return false;
        };
        let Some(k) = run(kernel, seed(&kernel.program)) else {
            return false;
        };
        if !s.arrays_bitwise_eq(&k, n_arrays) {
            return true;
        }
        original
            .scalar_ids()
            .any(|v| compared[v.index()] && s.scalar(v).to_bits() != k.scalar(v).to_bits())
    };

    let fast = |k: &CompiledKernel, st: MachineState| {
        execute_with_state(k, machine, st).ok().map(|o| o.state)
    };
    let reference = |k: &CompiledKernel, st: MachineState| {
        execute_reference_with_state(k, machine, st)
            .ok()
            .map(|o| o.state)
    };
    diverges(&fast) && diverges(&reference)
}

/// Which original scalars the comparator may inspect as live-outs.
///
/// Unrolling privatizes a scalar that is defined-before-use in an
/// innermost loop body, and only copies the value back to the original
/// name when the scalar is read *outside* that body. A privatized,
/// never-copied-back scalar is a dead temporary whose final value under
/// the transformed program legitimately differs, so it is excluded —
/// by [`slp_ir::loop_local_scalars`], unrolling's own criterion, applied
/// unconditionally: excluding a dead temp when no unrolling happened
/// only makes the comparison (harmlessly) more conservative.
pub(crate) fn compared_scalars(original: &Program) -> Vec<bool> {
    let mut compared = vec![true; original.scalars().len()];
    for v in loop_local_scalars(original) {
        compared[v.index()] = false;
    }
    compared
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_core::{BlockSchedule, ScheduledItem};

    fn machine() -> MachineConfig {
        MachineConfig::intel_dunnington()
    }

    fn program(src: &str) -> Program {
        slp_lang::compile(src).unwrap()
    }

    fn kernel(p: &Program, strategy: Strategy, layout: bool) -> CompiledKernel {
        let mut cfg = SlpConfig::for_machine(machine(), strategy);
        if layout {
            cfg = cfg.with_layout();
        }
        compile(p, &cfg)
    }

    const SAXPY: &str = "kernel saxpy {
        array X: f64[64]; array Y: f64[64]; scalar a: f64;
        for i in 0..64 { Y[i] = Y[i] + a * X[i]; } }";

    #[test]
    fn correct_kernels_are_proved() {
        let p = program(SAXPY);
        for strategy in [Strategy::Native, Strategy::Baseline, Strategy::Holistic] {
            let k = kernel(&p, strategy, false);
            match validate(&p, &k, &machine(), &Budgets::default()) {
                Verdict::Proved(stats) => {
                    assert!(stats.cells_compared > 0);
                    assert!(stats.terms > 0);
                }
                v => panic!("{strategy:?}: expected proof, got {v:?}"),
            }
        }
    }

    #[test]
    fn layout_replication_is_proved() {
        let p = program(
            "kernel strided {
                const N = 32;
                array A: f64[4*N+4]; array OUT: f64[2*N];
                scalar c, d: f64;
                for t in 0..4 {
                    for i in 0..N {
                        c = A[4*i] * 2.0;
                        d = A[4*i+3] * 2.0;
                        OUT[2*i] = c + 1.0;
                        OUT[2*i+1] = d + 1.0;
                    }
                }
            }",
        );
        let mut cfg = SlpConfig::for_machine(machine(), Strategy::Holistic).with_layout();
        cfg.unroll = 1;
        let k = compile(&p, &cfg);
        assert!(!k.replications.is_empty(), "expected a replication");
        match validate(&p, &k, &machine(), &Budgets::default()) {
            Verdict::Proved(_) => {}
            v => panic!("expected proof through replication, got {v:?}"),
        }
    }

    #[test]
    fn reordered_dependent_items_are_refuted() {
        // A[i] = A[i] * 2 ; A[i] = A[i] + 1  — the two superwords are
        // dependent, so swapping the scheduled items changes the result
        // for (almost) every input. The kernel must actually vectorize:
        // the cost gate executes a non-vectorized block in program order,
        // which would mask a schedule-only tamper from the VM replay.
        let p = program(
            "kernel dep { array A: f64[8];
             for i in 0..8 { A[i] = A[i] * 2.0; A[i] = A[i] + 1.0; } }",
        );
        let mut k = kernel(&p, Strategy::Holistic, false);
        let (bid, sched) = k.schedules[0].clone();
        assert!(sched.is_vectorized(), "tamper needs an executed schedule");
        let mut items: Vec<ScheduledItem> = sched.items().to_vec();
        assert!(items.len() >= 2);
        items.swap(0, 1);
        k.schedules[0] = (bid, BlockSchedule::new(items));
        match validate(&p, &k, &machine(), &Budgets::default()) {
            Verdict::Refuted(cex) => {
                assert!(cex.location.starts_with("A["), "{}", cex.location);
                assert_ne!(cex.scalar_value.to_bits(), cex.vector_value.to_bits());
                assert!(replay_counterexample(&p, &k, &machine(), &cex));
            }
            v => panic!("expected refutation, got {v:?}"),
        }
    }

    #[test]
    fn term_budget_degrades_to_budget_verdict() {
        let p = program(SAXPY);
        let k = kernel(&p, Strategy::Holistic, false);
        // Four terms are too few for the block-wise proof of the unrolled
        // body and for the concrete walk alike.
        let tiny = Budgets {
            max_terms: 4,
            max_steps: 1 << 20,
        };
        match validate(&p, &k, &machine(), &tiny) {
            Verdict::Budget { .. } => {}
            v => panic!("expected budget degrade, got {v:?}"),
        }
    }

    #[test]
    fn loop_local_temp_is_not_compared() {
        let p = program(
            "kernel t { array A: f64[8]; scalar t: f64;
             for i in 0..8 { t = A[i]; A[i] = t * 2.0; } }",
        );
        let compared = compared_scalars(&p);
        assert!(!compared.iter().any(|&c| c), "t is a dead temporary");
    }

    #[test]
    fn live_out_scalar_is_compared() {
        let p = program(
            "kernel t { array A: f64[8]; array B: f64[1]; scalar t: f64;
             for i in 0..8 { t = A[i]; A[i] = t * 2.0; }
             B[0] = t; }",
        );
        let compared = compared_scalars(&p);
        assert!(compared.iter().any(|&c| c), "t is read after the loop");
    }

    #[test]
    fn loop_bodies_are_proven_once_whatever_the_trip_count() {
        // `A[i+1]` and `A[2*i]` meet at `i = 1` alone: the main loop's
        // range splits around that iteration, at every trip count.
        let proof = |n: i64| {
            let p = program(&format!(
                "kernel meet {{ array A: f64[{}];
                 for i in 1..{n} {{ A[2*i] = A[i+1] * 2.0; }} }}",
                2 * n + 2
            ));
            let k = kernel(&p, Strategy::Holistic, false);
            let stats = prove_blockwise(&p, &k, &Budgets::default()).expect("a block-wise proof");
            match validate(&p, &k, &machine(), &Budgets::default()) {
                Verdict::Proved(s) => assert_eq!(s, stats),
                v => panic!("expected proof, got {v:?}"),
            }
            stats
        };
        assert_eq!(proof(16), proof(4096));
    }

    #[test]
    fn an_empty_loop_body_is_proven() {
        // The unrolled main loop of an empty loop has an empty body too.
        let p = program("kernel k { array A: f64[8]; A[0] = 1.0; for i in 0..8 { } }");
        let k = kernel(&p, Strategy::Holistic, false);
        assert!(prove_blockwise(&p, &k, &Budgets::default()).is_some());
        match validate(&p, &k, &machine(), &Budgets::default()) {
            Verdict::Proved(_) => {}
            v => panic!("expected proof, got {v:?}"),
        }
    }

    #[test]
    fn what_the_block_wise_proof_cannot_decide_is_left_to_the_walk() {
        let copy_back = "kernel t { array A: f64[8]; array B: f64[1]; scalar t: f64;
             for i in 0..8 { t = A[i]; A[i] = t * 2.0; }
             B[0] = t; }";
        // `A[i][j]` and `A[j][i]` meet wherever `i = j`.
        let transpose = "kernel t { array A: f64[4][4];
             for i in 0..4 { for j in 0..4 { A[i][j] = A[j][i] + 1.0; } } }";
        // `A[i+1]` leaves the array at `i = 7`.
        let overrun = "kernel t { array A: f64[8];
             for i in 0..8 { A[i+1] = A[i] * 2.0; } }";
        for src in [copy_back, transpose, overrun] {
            let p = program(src);
            let k = kernel(&p, Strategy::Holistic, false);
            assert!(prove_blockwise(&p, &k, &Budgets::default()).is_none());
            let walk = walk_concretely(&p, &k, &machine(), &Budgets::default());
            let verdict = validate(&p, &k, &machine(), &Budgets::default());
            assert_eq!(format!("{verdict:?}"), format!("{walk:?}"));
        }
    }
}
