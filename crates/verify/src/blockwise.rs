//! The block-wise prover: each basic block of the kernel is proven once,
//! from a symbolic entry state both sides share, whatever its trip count
//! (DESIGN.md, "Translation validation", owns the argument). Both sides
//! run through `eval`'s evaluator with the induction variables left
//! symbolic: [`Forms`] names each cell by its array and its linear offset
//! as an affine [`Form`] in them. Whatever this cannot decide exactly
//! returns `None`, and the concrete walk gives the verdict.

use slp_analyze::{eval_affine, loop_env, StridedInterval};
use slp_core::CompiledKernel;
use slp_ir::{ArrayId, ArrayRef, Item, Loop, LoopHeader, LoopVarId, Program, StmtId};

use crate::eval::{eval_block, plans, Budgets, Plan};
use crate::term::{Arena, WordMap};
use crate::validate::{compare, compared_scalars, ProofStats};

/// The deepest loop nest a form can name; deeper nests are walked.
const DEPTH: usize = 4;

/// How many times one proof may split a segment's range.
const MAX_SPLITS: u32 = 16;

/// A cell named symbolically: its array and its row-major linear offset,
/// `constant + Σ coeffs[d] · (induction variable at depth d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Form {
    array: ArrayId,
    coeffs: [i64; DEPTH],
    constant: i64,
}

impl Form {
    /// Where `self` and `other`, two distinct forms, name one cell over
    /// `env`: nowhere (`Some(None)`), or only where `env`'s innermost
    /// variable is `p` (`Some(Some(p))`). `None` when they differ in an
    /// outer variable too, which this does not decide.
    fn meet(&self, other: &Form, env: &[(LoopVarId, StridedInterval)]) -> Option<Option<i64>> {
        if self.array != other.array || self.coeffs == other.coeffs {
            return Some(None);
        }
        let (&(_, range), outer) = env.split_last()?;
        let d = outer.len();
        if (0..DEPTH).any(|e| e != d && self.coeffs[e] != other.coeffs[e]) {
            return None;
        }
        let a = other.coeffs[d].checked_sub(self.coeffs[d])?;
        let c = self.constant.checked_sub(other.constant)?;
        let p = c.checked_div(a)?;
        Some((p * a == c && range.contains(p)).then_some(p))
    }
}

/// The cells of one segment, each named by the index of its form. A cell
/// read before either side writes it holds its entry value, the `Cell`
/// leaf of that index.
#[derive(Debug, Default)]
pub(crate) struct Forms {
    forms: Vec<Form>,
    index: WordMap<Form, u32>,
    /// The kernel's induction variables, outermost first.
    vars: Vec<LoopVarId>,
    /// The value of each that takes one value in the segment.
    fixed: [Option<i64>; DEPTH],
    /// The value sets of the running side's induction variables, which
    /// its subscripts must stay in bounds over.
    bounds: Vec<(LoopVarId, StridedInterval)>,
    /// How many innermost iterations the running copy is shifted by.
    pub(crate) shift: i64,
}

impl Forms {
    /// The index of the form of `r`, a subscript of `program`, once `r`
    /// is in bounds over `bounds` (checked on the unshifted copy, whose
    /// range covers every copy's).
    pub(crate) fn name(&mut self, program: &Program, r: &ArrayRef) -> Option<i64> {
        let dims = &program.array(r.array).dims;
        let mut form = Form {
            array: r.array,
            coeffs: [0; DEPTH],
            constant: 0,
        };
        (r.access.rank() == dims.len()).then_some(())?;
        for (e, &d) in r.access.dims().iter().zip(dims) {
            if self.shift == 0 {
                let range = eval_affine(e, &self.bounds)?;
                if range.lo() < 0 || range.hi() >= i128::from(d) {
                    return None;
                }
            }
            for c in &mut form.coeffs {
                *c = c.checked_mul(d)?;
            }
            form.constant = form.constant.checked_mul(d)?.checked_add(e.constant())?;
            for (v, c) in e.terms() {
                let depth = self.vars.iter().position(|&x| x == v)?;
                form.coeffs[depth] = form.coeffs[depth].checked_add(c)?;
            }
        }
        if self.shift > 0 {
            let shift = form.coeffs[self.vars.len() - 1].checked_mul(self.shift)?;
            form.constant = form.constant.checked_add(shift)?;
        }
        for (c, fixed) in form.coeffs.iter_mut().zip(self.fixed) {
            if let Some(v) = fixed {
                form.constant = form.constant.checked_add(c.checked_mul(v)?)?;
                *c = 0;
            }
        }
        let next = self.forms.len() as u32;
        let index = *self.index.entry(form).or_insert(next);
        if index == next {
            self.forms.push(form);
        }
        Some(i64::from(index))
    }
}

/// The side a statement runs on, as an index into [`Prover::nests`].
const SCALAR: usize = 0;
const KERNEL: usize = 1;

/// Proves `kernel` ≡ `original` block by block, or returns `None` when
/// the concrete walk must decide.
pub(crate) fn prove_blockwise(
    original: &Program,
    kernel: &CompiledKernel,
    budgets: &Budgets,
) -> Option<ProofStats> {
    let program = &kernel.program;
    let comparable = kernel.replications.is_empty()
        && program.arrays() == original.arrays()
        && program.scalars().len() >= original.scalars().len();
    comparable.then_some(())?;
    let mut prover = Prover {
        programs: [original, program],
        plans: [&WordMap::default(), &plans(kernel)],
        compared: compared_scalars(original),
        arena: Arena::new(budgets.max_terms),
        budgets,
        forms: Forms::default(),
        nests: Default::default(),
        splits: MAX_SPLITS,
        stats: ProofStats::default(),
    };
    prover.walk(original.items(), program.items())?;
    prover.stats.terms = prover.arena.len();
    Some(prover.stats)
}

/// The end of the statement run that starts at `from`.
fn run_end(items: &[Item], from: usize) -> usize {
    let mut loops = (from..items.len()).filter(|&i| matches!(items[i], Item::Loop(_)));
    loops.next().unwrap_or(items.len())
}

struct Prover<'a> {
    /// The original program and the kernel's, by side.
    programs: [&'a Program; 2],
    /// Each side's block schedules (the scalar side has none).
    plans: [&'a WordMap<StmtId, Plan<'a>>; 2],
    /// Which original scalars the comparator inspects.
    compared: Vec<bool>,
    arena: Arena,
    budgets: &'a Budgets,
    forms: Forms,
    /// The enclosing loop headers of each side, outermost first.
    nests: [Vec<LoopHeader>; 2],
    /// How many more times a segment's range may be split.
    splits: u32,
    stats: ProofStats,
}

impl<'a> Prover<'a> {
    /// Proves `kernel`, the items that replace `original`: statement runs
    /// pairwise, loops pairwise, unrolled loops as main plus remainder.
    fn walk(&mut self, original: &'a [Item], kernel: &'a [Item]) -> Option<()> {
        let (mut o, mut k) = (0, 0);
        loop {
            let (o_end, k_end) = (run_end(original, o), run_end(kernel, k));
            match (o_end > o, k_end > k) {
                (true, true) => self.segment(&original[o..o_end], 1, &kernel[k..k_end])?,
                (false, false) => {}
                _ => return None,
            }
            (o, k) = (o_end + 1, k_end + 1);
            let (ol, kl) = match (original.get(o_end), kernel.get(k_end)) {
                (None, None) => return Some(()),
                (Some(Item::Loop(ol)), Some(Item::Loop(kl))) => (ol, kl),
                _ => return None,
            };
            if ol.header == kl.header {
                self.nested(ol.header, kl.header, |p| p.walk(&ol.body, &kl.body))?;
            } else if self.unrolled(ol, kl, kernel.get(k))? {
                k += 1;
            }
        }
    }

    /// Proves an unrolled innermost loop `original` against its main loop
    /// `main` and the remainder loop `next`, when one is due; returns
    /// whether `next` was the remainder.
    fn unrolled(
        &mut self,
        original: &'a Loop,
        main: &'a Loop,
        next: Option<&'a Item>,
    ) -> Option<bool> {
        let (h, m) = (original.header, main.header);
        let span = i128::from(m.upper) - i128::from(m.lower);
        let partitions = h.step == 1
            && m.step >= 2
            && (m.var, m.lower) == (h.var, h.lower)
            && span >= 0
            && m.upper <= h.upper
            && span % i128::from(m.step) == 0
            && main.body.len() as i128 == i128::from(m.step) * original.body.len() as i128;
        if !partitions || !original.is_innermost() || !main.is_innermost() {
            return None;
        }
        self.nested(h, m, |p| p.segment(&original.body, m.step, &main.body))?;
        if m.upper == h.upper {
            return Some(false);
        }
        let rest = LoopHeader {
            lower: m.upper,
            ..h
        };
        match next {
            Some(Item::Loop(r)) if r.header == rest && r.is_innermost() => {
                self.nested(h, rest, |p| p.segment(&original.body, 1, &r.body))?;
                Some(true)
            }
            _ => None,
        }
    }

    /// Runs `f` inside one more loop on each side.
    fn nested(
        &mut self,
        original: LoopHeader,
        kernel: LoopHeader,
        f: impl FnOnce(&mut Self) -> Option<()>,
    ) -> Option<()> {
        let nest = &self.nests[KERNEL];
        let fits = nest.len() < DEPTH && nest.iter().all(|h| h.var != kernel.var);
        let runs = |h: LoopHeader| h.step > 0 || h.lower >= h.upper;
        (fits && runs(original) && runs(kernel)).then_some(())?;
        self.nests[SCALAR].push(original);
        self.nests[KERNEL].push(kernel);
        f(self)?;
        self.nests[SCALAR].pop();
        self.nests[KERNEL].pop();
        Some(())
    }

    /// Proves the kernel block `run` against `copies` copies of the
    /// original statements `body`, copy `k` shifted by `k` iterations of
    /// the innermost loop. Where two of its cells meet at one iteration
    /// `p` of that loop, the range is split into the iterations before
    /// `p`, `p` alone and those after it, and each part is proven again.
    fn segment(&mut self, body: &'a [Item], copies: i64, run: &'a [Item]) -> Option<()> {
        let Some(p) = self.attempt(body, copies, run)? else {
            return Some(());
        };
        self.splits = self.splits.checked_sub(1)?;
        let whole = *self.nests[KERNEL].last()?;
        let after = p.checked_add(whole.step)?;
        for (lower, upper) in [(whole.lower, p), (p, p + 1), (after, whole.upper)] {
            *self.nests[KERNEL].last_mut()? = LoopHeader {
                lower,
                upper,
                ..whole
            };
            self.segment(body, copies, run)?;
        }
        *self.nests[KERNEL].last_mut()? = whole;
        Some(())
    }

    /// Runs both sides of a segment over the current nest and compares
    /// them; returns the iteration at which two of its cells meet, if
    /// they meet at exactly one.
    fn attempt(&mut self, body: &'a [Item], copies: i64, run: &'a [Item]) -> Option<Option<i64>> {
        let Some(kernel_env) = loop_env(&self.nests[KERNEL]) else {
            // Some enclosing loop never runs: neither does the block.
            return Some(None);
        };
        let forms = &mut self.forms;
        forms.forms.clear();
        forms.index.clear();
        forms.vars.clear();
        forms.vars.extend(kernel_env.iter().map(|&(v, _)| v));
        forms.fixed = std::array::from_fn(|d| {
            let (_, range) = kernel_env.get(d)?;
            (range.lo() == range.hi()).then(|| range.lo() as i64)
        });
        let mut side = |side: usize, items: &'a [Item], copies| {
            self.forms.bounds = loop_env(&self.nests[side])?;
            let (program, plans) = (self.programs[side], self.plans[side]);
            let (arena, budgets, forms) = (&mut self.arena, self.budgets, &mut self.forms);
            eval_block(program, plans, arena, budgets, forms, items, copies).ok()
        };
        let [s, k] = &[side(SCALAR, body, copies)?, side(KERNEL, run, 1)?];
        self.stats.steps += s.steps + k.steps;

        // A written cell must be distinct from every cell of another form.
        let forms = &self.forms.forms;
        let written = |i: usize| {
            let cell = (forms[i].array, i as i64);
            s.dirty.binary_search(&cell).is_ok() || k.dirty.binary_search(&cell).is_ok()
        };
        for (i, f) in forms.iter().enumerate() {
            for (j, g) in forms[..i].iter().enumerate() {
                if written(i) || written(j) {
                    if let Some(p) = f.meet(g, &kernel_env)? {
                        return Some(Some(p));
                    }
                }
            }
        }
        let compared = compare(
            self.programs[SCALAR],
            &self.compared,
            [s, k],
            &mut self.arena,
        );
        let (divergences, cells, scalars) = compared.ok()?;
        self.stats.cells_compared += cells;
        self.stats.scalars_compared += scalars;
        divergences.is_empty().then_some(None)
    }
}
