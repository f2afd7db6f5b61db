//! Data-layout soundness: proving each committed [`Replication`] safe.
//!
//! The §5.2 array layout stage materializes an interleaved copy of a
//! read-only array and rewrites pack references to it, using the Eq. (4)
//! remapping. This checker enumerates the replication's loop nest and
//! proves, element by element,
//!
//! * **injectivity** — no two distinct (lane, iteration) pairs land on
//!   the same replica element ([`LintCode::NonInjectiveLayoutMap`]); an
//!   overlap would let one lane's copy clobber another's,
//! * **bounds** — every source read and replica write stays inside its
//!   array ([`LintCode::ReplicationOutOfBounds`]),
//! * **immutability** — neither the source nor the replica is written by
//!   the program, so the copied data stays valid for the kernel's whole
//!   run ([`LintCode::ReplicatedArrayWritten`]), and
//! * **coverage** — every program reference to the replica reads an
//!   element the population loop actually wrote
//!   ([`LintCode::UnpopulatedReplicaRead`]).
//!
//! Subscripts are linear forms over the nest's depths, the walk advances
//! its loop values in place, and a table indexed by replica slot holds
//! the pair that filled each slot: a pair costs a few ns, allocates
//! nothing, and memory is O(pairs). Out-of-bounds accesses, slots past
//! the table and rewrites take a cold path. A walk stops after `ENUM_CAP`
//! pairs with a V305 warning.

use std::collections::HashMap;

use slp_core::{CompiledKernel, Replication};
use slp_ir::{AffineExpr, BlockInfo, Dest, LoopHeader, LoopVarId, Operand, StmtId};

use crate::diag::{Diagnostic, LintCode, Span};

/// Upper bound on enumerated pairs per walk. Every suite kernel sits far
/// below this; a longer nest is checked over its first `ENUM_CAP` pairs.
const ENUM_CAP: usize = 1 << 22;

/// The table entry of a replica slot no pair has filled.
const EMPTY: u32 = u32::MAX;

/// Runs the layout-soundness checks over every committed replication;
/// `blocks` are the kernel's.
pub(crate) fn check_layout(kernel: &CompiledKernel, blocks: &[BlockInfo]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for r in &kernel.replications {
        check_replication(kernel, blocks, r, &mut out);
    }
    out
}

fn check_replication(
    kernel: &CompiledKernel,
    blocks: &[BlockInfo],
    r: &Replication,
    out: &mut Vec<Diagnostic>,
) {
    let program = &kernel.program;
    let (src, dst) = (program.array(r.source), program.array(r.dest));
    let (src_name, dst_name) = (&src.name, &dst.name);

    if r.lanes.len() != r.dest_exprs.len() {
        out.push(Diagnostic::new(
            LintCode::NonInjectiveLayoutMap,
            Span::program(),
            format!(
                "replication {src_name} -> {dst_name} has {} lane accesses \
                 but {} destination expressions",
                r.lanes.len(),
                r.dest_exprs.len()
            ),
        ));
        return;
    }

    // V303: the population runs once before the kernel's loops, so both
    // arrays must stay unwritten afterwards.
    for (a, name) in [(r.source, src_name), (r.dest, dst_name)] {
        if !program.array_is_read_only(a) {
            out.push(Diagnostic::new(
                LintCode::ReplicatedArrayWritten,
                Span::program(),
                format!(
                    "replicated array {name} is written by the program; the \
                     copy made before the loops would go stale"
                ),
            ));
        }
    }

    // Enumerate the population nest. `table[slot]` is the last pair to
    // fill a replica slot, over up to 16 slots a pair (a nest unrolled `s`
    // times spreads its pairs over `s` times the slots); the cold map holds
    // the other slots. `source` recomputes what a pair read.
    let form = |e: &AffineExpr| linear(e, &r.loops);
    let lanes: Vec<(Vec<Linear>, Linear)> = (r.lanes.iter().zip(&r.dest_exprs))
        .map(|(a, d)| (a.dims().iter().map(form).collect(), form(d)))
        .collect();
    let slots = dst.len().min(16 * r.copy_count().min(ENUM_CAP as i64));
    let mut table = vec![EMPTY; slots.max(0) as usize];
    let mut cold: HashMap<i64, u32> = HashMap::new();
    let (mut injective_errors, mut bounds_errors) = (0usize, 0usize);
    let source = |pair: u32| {
        let forms = &lanes[pair as usize % lanes.len()].0;
        let mut n = pair as usize / lanes.len();
        let mut env: Vec<(LoopVarId, i64)> = r.loops.iter().map(|h| (h.var, h.lower)).collect();
        for ((_, v), h) in env.iter_mut().zip(&r.loops).rev() {
            let trips = h.trip_count().max(1) as usize;
            *v = v.wrapping_add(h.step.wrapping_mul((n % trips) as i64));
            n /= trips;
        }
        forms.iter().map(|f| eval(f, &env)).collect::<Vec<i64>>()
    };
    let mut src_idx = Vec::new();
    let walked = walk(&r.loops, ENUM_CAP / lanes.len().max(1), |n, env| {
        for (lane, (src_forms, dst_form)) in lanes.iter().enumerate() {
            src_idx.clear();
            src_idx.extend(src_forms.iter().map(|f| eval(f, env)));
            let dst_idx = eval(dst_form, env);
            let pair = (n * lanes.len() + lane) as u32;
            let inside = src.in_bounds(&src_idx) && dst.dims.len() == 1;
            let prev = match usize::try_from(dst_idx).ok().filter(|&s| s < table.len()) {
                Some(s) if inside && table[s] == EMPTY => {
                    table[s] = pair;
                    continue;
                }
                Some(s) => std::mem::replace(&mut table[s], pair),
                None => cold.insert(dst_idx, pair).unwrap_or(EMPTY),
            };
            let oob = [
                (!src.in_bounds(&src_idx)).then(|| format!("reads {src_name}{src_idx:?}")),
                (!dst.in_bounds(&[dst_idx])).then(|| format!("writes {dst_name}[{dst_idx}]")),
            ];
            for access in oob.into_iter().flatten().take(4 - bounds_errors) {
                bounds_errors += 1;
                out.push(Diagnostic::new(
                    LintCode::ReplicationOutOfBounds,
                    Span::program(),
                    format!(
                        "lane {lane} of replication {src_name} -> {dst_name} \
                         {access}, outside the array, at iteration {env:?}"
                    ),
                ));
            }
            // Two writers of one replica slot: the Eq. (4) map is not
            // injective over (lane, iteration).
            let Some(prev) = (prev != EMPTY && injective_errors < 4).then(|| source(prev)) else {
                continue;
            };
            if prev != src_idx {
                injective_errors += 1;
                out.push(Diagnostic::new(
                    LintCode::NonInjectiveLayoutMap,
                    Span::program(),
                    format!(
                        "replica element {dst_name}[{dst_idx}] is written \
                         from both {src_name}{prev:?} and \
                         {src_name}{src_idx:?} (lane {lane}, iteration \
                         {env:?})"
                    ),
                ));
            }
        }
    });
    let what = format!("replication {src_name} -> {dst_name}");
    out.extend(truncation(Span::program(), &what, lanes.len(), walked));

    // V304: every program read of the replica must hit a populated slot.
    let populated = |idx: i64| match usize::try_from(idx).ok().and_then(|s| table.get(s)) {
        Some(&pair) => pair != EMPTY,
        None => cold.contains_key(&idx),
    };
    let mut unpopulated = 0usize;
    for info in blocks {
        let mut replica_reads: Vec<(StmtId, Linear)> = Vec::new();
        for s in info.block.iter() {
            for o in s.uses() {
                if let Operand::Array(ar) = o {
                    if ar.array == r.dest && ar.access.rank() == 1 {
                        replica_reads.push((s.id(), linear(ar.access.dim(0), &info.loops)));
                    }
                }
            }
            if let Dest::Array(ar) = s.dest() {
                if ar.array == r.dest {
                    out.push(Diagnostic::new(
                        LintCode::ReplicatedArrayWritten,
                        Span::stmts(info.id, vec![s.id()]),
                        format!("{} writes replica array {dst_name}", s.id()),
                    ));
                }
            }
        }
        if replica_reads.is_empty() {
            continue;
        }
        // A read repeats over the loops its subscript does not index: when
        // one pass of those finds every read populated, the nest does.
        let (per, mut pass) = (replica_reads.len(), info.loops.clone());
        for (d, h) in pass.iter_mut().enumerate() {
            let indexes = |(_, f): &(StmtId, Linear)| f.1.iter().any(|t| t.0 == d);
            if !replica_reads.iter().any(indexes) {
                h.upper = h.lower.saturating_add(1);
            }
        }
        let (cap, mut clean) = (ENUM_CAP / per, true);
        let [once, all] = walk(&pass, cap, |_, env| {
            clean &= replica_reads.iter().all(|(_, f)| populated(eval(f, env)))
        });
        if clean && once == all {
            continue;
        }
        let walked = walk(&info.loops, cap, |_, env| {
            for (sid, form) in &replica_reads {
                let idx = eval(form, env);
                if !populated(idx) && unpopulated < 4 {
                    unpopulated += 1;
                    out.push(Diagnostic::new(
                        LintCode::UnpopulatedReplicaRead,
                        Span::stmts(info.id, vec![*sid]),
                        format!(
                            "{sid} reads {dst_name}[{idx}] at iteration \
                             {env:?}, but the population loop never writes \
                             that element"
                        ),
                    ));
                }
            }
        });
        let what = format!("reads of {dst_name} in {}", info.id);
        out.extend(truncation(Span::block(info.id), &what, per, walked));
    }
}

/// An affine subscript over a loop nest: its constant and, in term order,
/// the depth and coefficient of each term on a loop of the nest (a term
/// on any other variable adds 0, as in [`AffineExpr::eval`]).
type Linear = (i64, Vec<(usize, i64)>);

fn linear(e: &AffineExpr, loops: &[LoopHeader]) -> Linear {
    let depth = |(v, c)| Some((loops.iter().position(|h| h.var == v)?, c));
    (e.constant(), e.terms().filter_map(depth).collect())
}

/// [`AffineExpr::eval`] of a linear form in the nest's `env`, bit for
/// bit: the same i128 sums in the same order, clamped back to i64.
fn eval((constant, terms): &Linear, env: &Env) -> i64 {
    let term = |acc: i128, &(d, c): &(usize, i64)| acc.saturating_add(c as i128 * env[d].1 as i128);
    let sum = terms.iter().fold(*constant as i128, term);
    sum.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// A nest's `(variable, value)` environment, outermost loop first.
type Env = [(LoopVarId, i64)];

/// Calls `f` on the first `cap` iterations `n` of a nest in row-major
/// order, advancing one `env` in place; returns how many it visited and
/// how many the nest has.
pub(crate) fn walk(loops: &[LoopHeader], cap: usize, mut f: impl FnMut(usize, &Env)) -> [u128; 2] {
    let trips = |h: &LoopHeader| h.trip_count().max(0) as u128;
    let total = loops.iter().map(trips).fold(1, u128::saturating_mul);
    let count = total.min(cap as u128);
    let mut env: Vec<(LoopVarId, i64)> = loops.iter().map(|h| (h.var, h.lower)).collect();
    for n in 0..count as usize {
        f(n, &env);
        for ((_, v), h) in env.iter_mut().zip(loops).rev() {
            *v = v.saturating_add(h.step);
            if *v < h.upper {
                break;
            }
            *v = h.lower;
        }
    }
    [count, total]
}

/// The V305 warning when the walk of `what` visited fewer iterations than
/// its nest has, `per` pairs each.
fn truncation(span: Span, what: &str, per: usize, [n, total]: [u128; 2]) -> Option<Diagnostic> {
    let [checked, all] = [n, total].map(|n| n.saturating_mul(per as u128));
    let message =
        format!("layout check of {what} stopped at its cap: checked {checked} of {all} pairs");
    (n < total).then(|| Diagnostic::new(LintCode::LayoutCheckTruncated, span, message))
}

#[cfg(test)]
#[path = "../tests/layout_cases/mod.rs"]
mod layout_cases;

/// The plain enumerator, a map entry and an environment per pair: the
/// reference the tests hold the walk above to, diagnostic for diagnostic.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use slp_core::{CompiledKernel, Replication};
    use slp_ir::{BlockInfo, Dest, LoopHeader, LoopVarId, Operand};

    use super::ENUM_CAP;
    use crate::diag::{Diagnostic, LintCode, Span};

    pub(super) fn check_layout(kernel: &CompiledKernel, blocks: &[BlockInfo]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for r in &kernel.replications {
            check_replication(kernel, blocks, r, &mut out);
        }
        out
    }

    fn check_replication(
        kernel: &CompiledKernel,
        blocks: &[BlockInfo],
        r: &Replication,
        out: &mut Vec<Diagnostic>,
    ) {
        let program = &kernel.program;
        let src_name = program.array(r.source).name.clone();
        let dst_name = program.array(r.dest).name.clone();

        if r.lanes.len() != r.dest_exprs.len() {
            out.push(Diagnostic::new(
                LintCode::NonInjectiveLayoutMap,
                Span::program(),
                format!(
                    "replication {src_name} -> {dst_name} has {} lane accesses \
                     but {} destination expressions",
                    r.lanes.len(),
                    r.dest_exprs.len()
                ),
            ));
            return;
        }

        // V303: the population runs once before the kernel's loops, so both
        // arrays must stay unwritten afterwards.
        for (a, name) in [(r.source, &src_name), (r.dest, &dst_name)] {
            if !program.array_is_read_only(a) {
                out.push(Diagnostic::new(
                    LintCode::ReplicatedArrayWritten,
                    Span::program(),
                    format!(
                        "replicated array {name} is written by the program; the \
                         copy made before the loops would go stale"
                    ),
                ));
            }
        }

        // Enumerate the population nest: populated replica index -> the
        // source index it was filled from.
        let mut populated: HashMap<i64, Vec<i64>> = HashMap::new();
        let mut injective_errors = 0usize;
        let mut bounds_errors = 0usize;
        for env in iteration_space(&r.loops).take(ENUM_CAP / r.lanes.len().max(1)) {
            for (lane, (access, dest_expr)) in r.lanes.iter().zip(&r.dest_exprs).enumerate() {
                let src_idx = access.eval(&env);
                if !program.array(r.source).in_bounds(&src_idx) && bounds_errors < 4 {
                    bounds_errors += 1;
                    out.push(Diagnostic::new(
                        LintCode::ReplicationOutOfBounds,
                        Span::program(),
                        format!(
                            "lane {lane} of replication {src_name} -> {dst_name} \
                             reads {src_name}{src_idx:?}, outside the array, at \
                             iteration {env:?}"
                        ),
                    ));
                }
                let dst_idx = dest_expr.eval(&env);
                if !program.array(r.dest).in_bounds(&[dst_idx]) && bounds_errors < 4 {
                    bounds_errors += 1;
                    out.push(Diagnostic::new(
                        LintCode::ReplicationOutOfBounds,
                        Span::program(),
                        format!(
                            "lane {lane} of replication {src_name} -> {dst_name} \
                             writes {dst_name}[{dst_idx}], outside the array, at \
                             iteration {env:?}"
                        ),
                    ));
                }
                if let Some(prev) = populated.insert(dst_idx, src_idx.clone()) {
                    // Two writers of one replica slot: the Eq. (4) map is not
                    // injective over (lane, iteration).
                    if prev != src_idx && injective_errors < 4 {
                        injective_errors += 1;
                        out.push(Diagnostic::new(
                            LintCode::NonInjectiveLayoutMap,
                            Span::program(),
                            format!(
                                "replica element {dst_name}[{dst_idx}] is written \
                                 from both {src_name}{prev:?} and \
                                 {src_name}{src_idx:?} (lane {lane}, iteration \
                                 {env:?})"
                            ),
                        ));
                    }
                }
            }
        }

        // V304: every program read of the replica must hit a populated slot.
        let mut unpopulated = 0usize;
        for info in blocks {
            let mut replica_reads: Vec<(slp_ir::StmtId, slp_ir::AffineExpr)> = Vec::new();
            for s in info.block.iter() {
                for o in s.uses() {
                    if let Operand::Array(ar) = o {
                        if ar.array == r.dest && ar.access.rank() == 1 {
                            replica_reads.push((s.id(), ar.access.dim(0).clone()));
                        }
                    }
                }
                if let Dest::Array(ar) = s.dest() {
                    if ar.array == r.dest {
                        out.push(Diagnostic::new(
                            LintCode::ReplicatedArrayWritten,
                            Span::stmts(info.id, vec![s.id()]),
                            format!("{} writes replica array {dst_name}", s.id()),
                        ));
                    }
                }
            }
            if replica_reads.is_empty() {
                continue;
            }
            for env in iteration_space(&info.loops).take(ENUM_CAP / replica_reads.len().max(1)) {
                for (sid, expr) in &replica_reads {
                    let idx = expr.eval(&env);
                    if !populated.contains_key(&idx) && unpopulated < 4 {
                        unpopulated += 1;
                        out.push(Diagnostic::new(
                            LintCode::UnpopulatedReplicaRead,
                            Span::stmts(info.id, vec![*sid]),
                            format!(
                                "{sid} reads {dst_name}[{idx}] at iteration \
                                 {env:?}, but the population loop never writes \
                                 that element"
                            ),
                        ));
                    }
                }
            }
        }
    }

    /// Enumerates the concrete iteration vectors of a loop nest, outermost
    /// first, as `(variable, value)` environments.
    fn iteration_space(loops: &[LoopHeader]) -> impl Iterator<Item = Vec<(LoopVarId, i64)>> + '_ {
        let trips: Vec<i64> = loops.iter().map(|h| h.trip_count().max(0)).collect();
        let total: i64 = trips.iter().product();
        (0..total.max(if loops.is_empty() { 1 } else { 0 })).map(move |mut flat| {
            let mut env = Vec::with_capacity(loops.len());
            for (h, &t) in loops.iter().zip(&trips).rev() {
                let k = if t > 0 { flat % t } else { 0 };
                flat /= t.max(1);
                env.push((h.var, h.lower + k * h.step));
            }
            env.reverse();
            env
        })
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use slp_core::{compile, MachineConfig, SlpConfig, Strategy};
    use slp_ir::AccessVector;

    use super::*;

    fn header(var: u32, lower: i64, upper: i64, step: i64) -> LoopHeader {
        LoopHeader {
            var: LoopVarId::new(var),
            lower,
            upper,
            step,
        }
    }

    fn visits(loops: &[LoopHeader]) -> Vec<Vec<i64>> {
        let mut seen = Vec::new();
        walk(loops, usize::MAX, |_, env| {
            seen.push(env.iter().map(|&(_, v)| v).collect())
        });
        seen
    }

    #[test]
    fn walk_enumerates_row_major() {
        let seen = visits(&[header(0, 0, 2, 1), header(1, 0, 3, 1)]);
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], vec![0, 0]);
        assert_eq!(seen[1], vec![0, 1]);
        assert_eq!(seen[5], vec![1, 2]);
    }

    #[test]
    fn walk_honors_step_and_lower() {
        assert_eq!(
            visits(&[header(0, 4, 10, 2)]),
            vec![vec![4], vec![6], vec![8]]
        );
    }

    #[test]
    fn empty_nest_has_one_iteration() {
        assert_eq!(visits(&[]), vec![Vec::<i64>::new()]);
        assert!(visits(&[header(0, 0, 4, 1), header(1, 3, 3, 1)]).is_empty());
    }

    #[test]
    fn linear_forms_evaluate_bit_for_bit() {
        const POOL: [i64; 9] = [0, 1, -1, 3, -7, 1 << 40, -(1 << 40), i64::MAX, i64::MIN];
        let mut rng = StdRng::seed_from_u64(0x51);
        let mut pick = move || POOL[rng.gen_range(0..POOL.len())];
        for _ in 0..20_000 {
            // Four depths over three variables (one bound twice), and terms
            // on four: a term on variable 3 lies outside the nest.
            let vars = [0, 1, 2, (pick() & 1) as u32];
            let loops: Vec<LoopHeader> = vars.iter().map(|&v| header(v, 0, 1, 1)).collect();
            let terms: Vec<(LoopVarId, i64)> =
                (0..4).map(|v| (LoopVarId::new(v), pick())).collect();
            let e = AffineExpr::from_terms(terms, pick());
            let values: Vec<i64> = (0..4).map(|_| pick()).collect();
            let env: Vec<(LoopVarId, i64)> = loops.iter().map(|h| h.var).zip(values).collect();
            assert_eq!(
                eval(&linear(&e, &loops), &env),
                e.eval(&env),
                "{e} at {env:?}"
            );
        }
    }

    /// The walk's diagnostics, asserted equal to the reference's but for
    /// the truncation warnings only the walk reports.
    fn same_as_reference(kernel: &CompiledKernel) -> Vec<Diagnostic> {
        let blocks = kernel.program.blocks();
        let walked = check_layout(kernel, &blocks);
        let checked: Vec<Diagnostic> = (walked.iter())
            .filter(|d| d.code != LintCode::LayoutCheckTruncated)
            .cloned()
            .collect();
        assert_eq!(
            checked,
            reference::check_layout(kernel, &blocks),
            "{}",
            kernel.program.name()
        );
        walked
    }

    fn global_layout_suite(scale: usize) -> Vec<CompiledKernel> {
        let mut programs: Vec<slp_ir::Program> = (slp_suite::catalog().iter())
            .map(|spec| slp_suite::kernel(spec.name, scale))
            .collect();
        programs.extend(
            slp_suite::branchy_catalog()
                .into_iter()
                .map(|b| slp_suite::branchy_kernel(b, scale)),
        );
        let machines = [
            MachineConfig::intel_dunnington(),
            MachineConfig::amd_phenom_ii(),
        ];
        (programs.iter())
            .flat_map(|p| machines.iter().map(move |m| (p, m)))
            .map(|(p, m)| {
                compile(
                    p,
                    &SlpConfig::for_machine(m.clone(), Strategy::Holistic).with_layout(),
                )
            })
            .collect()
    }

    #[test]
    fn matches_the_reference_on_the_suite() {
        for scale in [1, 4, 32] {
            let kernels = global_layout_suite(scale);
            assert_eq!(kernels.len(), 40);
            let replications: usize = kernels.iter().map(|k| k.replications.len()).sum();
            assert!(
                replications >= 30,
                "{replications} replications at scale {scale}"
            );
            for kernel in &kernels {
                assert_eq!(
                    same_as_reference(kernel),
                    Vec::new(),
                    "{}",
                    kernel.program.name()
                );
            }
        }
    }

    #[test]
    fn matches_the_reference_on_every_layout_fixture() {
        for (name, codes, kernel) in layout_cases::cases() {
            let walked = same_as_reference(&kernel);
            let truncated = walked
                .iter()
                .any(|d| d.code == LintCode::LayoutCheckTruncated);
            assert_eq!(truncated, codes.contains(&"V305"), "{name}");
        }
    }

    /// One random edit of replication `r`: a lane or destination constant
    /// or coefficient, a loop bound or step, or the arrays or lanes
    /// swapped.
    fn mutate(r: &mut Replication, arrays: &[slp_ir::ArrayId], rng: &mut StdRng) {
        let delta: i64 = [-3, -2, -1, 1, 2, 3][rng.gen_range(0..6usize)];
        let k = rng.gen_range(0..r.lanes.len());
        let var = |rng: &mut StdRng| {
            r.loops
                .get(rng.gen_range(0..r.loops.len().max(1)))
                .map(|h| h.var)
        };
        match rng.gen_range(0..7) {
            0 | 1 => {
                let mut dims = r.lanes[k].dims().to_vec();
                let d = rng.gen_range(0..dims.len());
                dims[d] = match (rng.gen_bool(0.5), var(rng)) {
                    (true, Some(v)) => dims[d].add(&AffineExpr::var(v).scaled(delta)),
                    _ => dims[d].offset(delta),
                };
                r.lanes[k] = AccessVector::new(dims);
            }
            2 | 3 => {
                r.dest_exprs[k] = match (rng.gen_bool(0.5), var(rng)) {
                    (true, Some(v)) => r.dest_exprs[k].add(&AffineExpr::var(v).scaled(delta)),
                    _ => r.dest_exprs[k].offset(delta),
                };
            }
            4 if !r.loops.is_empty() => {
                let d = rng.gen_range(0..r.loops.len());
                let h = &mut r.loops[d];
                match rng.gen_range(0..3) {
                    0 => h.lower += delta,
                    1 => h.upper += delta,
                    _ => h.step = delta.abs(),
                }
            }
            5 => match rng.gen_range(0..3) {
                0 => std::mem::swap(&mut r.source, &mut r.dest),
                1 => r.source = arrays[rng.gen_range(0..arrays.len())],
                _ => r.dest = arrays[rng.gen_range(0..arrays.len())],
            },
            _ => {
                let j = rng.gen_range(0..r.lanes.len());
                r.dest_exprs[j] = r.dest_exprs[k].clone();
            }
        }
    }

    #[test]
    fn matches_the_reference_on_seeded_mutations() {
        let bases: Vec<CompiledKernel> = (global_layout_suite(1).into_iter())
            .filter(|k| !k.replications.is_empty())
            .collect();
        let mut rng = StdRng::seed_from_u64(0x305);
        let mut reached = std::collections::BTreeMap::new();
        for _ in 0..600 {
            let mut kernel = bases[rng.gen_range(0..bases.len())].clone();
            let arrays: Vec<slp_ir::ArrayId> = kernel.program.array_ids().collect();
            let r = rng.gen_range(0..kernel.replications.len());
            for _ in 0..rng.gen_range(1..3) {
                mutate(&mut kernel.replications[r], &arrays, &mut rng);
            }
            for d in same_as_reference(&kernel) {
                *reached.entry(d.code.code()).or_insert(0) += 1;
            }
        }
        for code in ["V301", "V302", "V303", "V304"] {
            assert!(
                reached.contains_key(code),
                "no mutation reached {code}: {reached:?}"
            );
        }
    }
}
