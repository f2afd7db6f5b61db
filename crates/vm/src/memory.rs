//! The simulated machine's memory: arrays plus the scalar frame.
//!
//! All values are computed in `f64` regardless of the declared element
//! type; the declared type only affects lane counts and addressing, which
//! is all the SLP algorithms care about. Arrays are seeded with a
//! deterministic pseudo-random pattern so that a scalar run and any
//! vectorized run of the same kernel can be compared bit for bit. A seed
//! is a function of the cell alone, so seeds are tabulated once per
//! process, one prefix per array index, bounded by `SEED_TABLE_CELLS`.

use std::sync::{Arc, PoisonError, RwLock};

use slp_core::ExecError;
use slp_ir::{ArrayId, Program, TypeEnv, VarId};

/// The VM's memory budget: total array elements a program may allocate.
///
/// 2^26 elements (512 MiB of f64 storage) is far beyond every suite and
/// bench kernel while keeping adversarial inputs — `array A: f64[1 <<
/// 60]` is a *legal* program — from aborting the process with an OOM
/// instead of a typed error.
pub(crate) const MEMORY_BUDGET_ELEMS: i64 = 1 << 26;

/// The most cells the seed table holds over all arrays: 2^20 (8 MiB).
const SEED_TABLE_CELLS: usize = 1 << 20;

static SEED_TABLE: SeedTable = SeedTable(RwLock::new(Vec::new()));

/// Seed prefixes per array index: entry `a` holds `seed_value(a, i) *
/// 4.0` for `i` below the longest length requested so far. A seed is
/// never NaN, so a float array copies it as it is. Entries are replaced
/// whole, so a poisoned lock still guards a correct table.
struct SeedTable(RwLock<Vec<Arc<[f64]>>>);

impl SeedTable {
    /// The first `len` or more seeds of array `a`, or `None` when holding
    /// them would pass [`SEED_TABLE_CELLS`]. A miss hashes only the tail.
    fn prefix(&self, a: ArrayId, len: usize) -> Option<Arc<[f64]>> {
        let table = self.0.read().unwrap_or_else(PoisonError::into_inner);
        let old: Arc<[f64]> = table.get(a.index()).cloned().unwrap_or_default();
        let others = cells(&table) - old.len();
        drop(table);
        if old.len() >= len {
            return Some(old);
        } else if others + len > SEED_TABLE_CELLS {
            return None;
        }
        let tail = seeds(a, old.len()..len);
        let new: Arc<[f64]> = old.iter().copied().chain(tail).collect();
        debug_assert!(!new.iter().any(|v| v.is_nan()));
        let mut table = self.0.write().unwrap_or_else(PoisonError::into_inner);
        let min_len = table.len().max(a.index() + 1);
        table.resize(min_len, Arc::default());
        // Another thread may have grown the table since the read.
        let held = table[a.index()].len();
        if held < len && cells(&table) - held + len <= SEED_TABLE_CELLS {
            table[a.index()] = Arc::clone(&new);
        }
        Some(new)
    }
}

fn cells(table: &[Arc<[f64]>]) -> usize {
    table.iter().map(|p| p.len()).sum()
}

/// The one hashing loop, behind the table's fill and the direct path.
fn seeds(a: ArrayId, range: std::ops::Range<usize>) -> impl Iterator<Item = f64> {
    range.map(move |i| seed_value(a, i) * 4.0)
}

/// Checks `program` against [`MEMORY_BUDGET_ELEMS`].
///
/// Called where a kernel becomes runnable, before memory is seeded: by
/// the bytecode translation behind every `BytecodeKernel` constructor,
/// and by `execute_reference`.
///
/// # Errors
///
/// Returns a [`ResourceLimit`](slp_core::ExecErrorKind::ResourceLimit)
/// error when the program's total declared array storage exceeds the
/// budget.
pub(crate) fn check_memory_budget(program: &Program) -> Result<(), ExecError> {
    let total = program
        .arrays()
        .iter()
        .fold(0i64, |acc, a| acc.saturating_add(a.len().max(0)));
    if total > MEMORY_BUDGET_ELEMS {
        return Err(ExecError::resource_limit(format!(
            "program allocates {total} array elements, over the VM budget of {MEMORY_BUDGET_ELEMS}"
        )));
    }
    Ok(())
}

/// The memory image of one program run: every array's elements back to
/// back in one allocation — the bytecode engine runs directly on it, so a
/// run moves the image in and out instead of copying it — plus the scalar
/// frame.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    /// All array elements, array after array in [`ArrayId`] order.
    pub(crate) cells: Vec<f64>,
    /// Array `a` is `cells[bounds[a]..bounds[a + 1]]`.
    bounds: Vec<usize>,
    pub(crate) scalars: Vec<f64>,
}

/// SplitMix64 — the seeding PRNG (tiny, deterministic, well distributed).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic seed value of element `index` of array `id`.
///
/// Values land in `[0.25, 4.25)`: never zero (no divide-by-zero), never
/// negative (no NaN from `sqrt`), spread enough to make value mismatches
/// obvious.
pub fn seed_value(id: ArrayId, index: usize) -> f64 {
    let bits = mix((id.index() as u64) << 32 | index as u64);
    0.25 + 4.0 * ((bits >> 11) as f64 / (1u64 << 53) as f64)
}

/// The deterministic initial value of scalar `v`.
pub fn seed_scalar(v: VarId) -> f64 {
    let bits = mix(0xABCD_0000 ^ v.index() as u64);
    0.25 + 4.0 * ((bits >> 11) as f64 / (1u64 << 53) as f64)
}

fn bits_eq(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
}

impl MachineState {
    /// Allocates and seeds memory for `program`. Integer-typed arrays
    /// and scalars are seeded with whole values (their storage semantics
    /// truncate, so fractional seeds would be unrepresentable). A seed is
    /// a function of its cell: arrays are copied out of a table tabulated
    /// once per process, or hashed directly past `SEED_TABLE_CELLS`.
    pub fn seeded(program: &Program) -> Self {
        Self::seeded_from(program, &SEED_TABLE)
    }

    fn seeded_from(program: &Program, table: &SeedTable) -> Self {
        let lens = program.arrays().iter().map(|a| a.len().max(0) as usize);
        let mut cells = Vec::with_capacity(lens.sum());
        let mut bounds = vec![0];
        for a in program.array_ids() {
            let (ty, len) = (program.array(a).ty, program.array(a).len().max(0) as usize);
            match table.prefix(a, len) {
                Some(p) if ty.is_float() => cells.extend_from_slice(&p[..len]),
                Some(p) => cells.extend(p[..len].iter().map(|&v| ty.coerce(v))),
                None => cells.extend(seeds(a, 0..len).map(|v| ty.coerce(v))),
            }
            bounds.push(cells.len());
        }
        let scalars = program
            .scalar_ids()
            .map(|v| program.scalar_type(v).coerce(seed_scalar(v) * 4.0))
            .collect();
        MachineState {
            cells,
            bounds,
            scalars,
        }
    }

    /// Checks that this image has the shape [`MachineState::seeded`]
    /// gives `program` — the same number of arrays and scalars, every
    /// array at the same length — which is what code translated for
    /// `program` addresses.
    ///
    /// # Errors
    ///
    /// Returns a [`MalformedCode`](slp_core::ExecErrorKind::MalformedCode)
    /// error naming the counts or the first mismatching array.
    pub(crate) fn check_shape(&self, program: &Program) -> Result<(), ExecError> {
        let (arrays, scalars) = (program.arrays().len(), program.scalars().len());
        let held = (self.bounds.len() - 1, self.scalars.len());
        if held != (arrays, scalars) {
            return Err(ExecError::malformed(format!(
                "memory image holds {} arrays and {} scalars, the kernel's program declares \
                 {arrays} and {scalars}",
                held.0, held.1
            )));
        }
        for (info, held) in program.arrays().iter().zip(self.bounds.windows(2)) {
            let (held, len) = (held[1] - held[0], info.len().max(0) as usize);
            if held != len {
                return Err(ExecError::malformed(format!(
                    "memory image holds {held} elements of array {}, the kernel's program \
                     declares {len}",
                    info.name
                )));
            }
        }
        Ok(())
    }

    /// The cell range of array `a`, if this state allocates it.
    fn span(&self, a: ArrayId) -> Option<std::ops::Range<usize>> {
        Some(*self.bounds.get(a.index())?..*self.bounds.get(a.index() + 1)?)
    }

    /// The contents of array `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not allocated in this state.
    pub fn array(&self, a: ArrayId) -> &[f64] {
        &self.cells[self.bounds[a.index()]..self.bounds[a.index() + 1]]
    }

    /// Reads element `offset` of array `a`.
    pub(crate) fn load_array(&self, a: ArrayId, offset: usize) -> Option<f64> {
        self.cells[self.span(a)?].get(offset).copied()
    }

    /// Writes element `offset` of array `a`. Returns `false` when out of
    /// bounds.
    pub fn store_array(&mut self, a: ArrayId, offset: usize, value: f64) -> bool {
        match self
            .span(a)
            .and_then(|span| self.cells[span].get_mut(offset))
        {
            Some(slot) => {
                *slot = value;
                true
            }
            None => false,
        }
    }

    /// Reads scalar `v`.
    pub fn scalar(&self, v: VarId) -> f64 {
        self.scalars[v.index()]
    }

    /// Writes scalar `v`.
    pub fn set_scalar(&mut self, v: VarId, value: f64) {
        self.scalars[v.index()] = value;
    }

    /// Bitwise equality of the first `n_arrays` arrays — the observable
    /// output of a kernel. (Scalar temporaries are renamed by unrolling
    /// and replicated arrays are appended by the layout stage, so only
    /// the original arrays are comparable across optimization levels.)
    pub fn arrays_bitwise_eq(&self, other: &MachineState, n_arrays: usize) -> bool {
        if self.bounds.len() <= n_arrays || other.bounds.len() <= n_arrays {
            return false;
        }
        // Equal bounds mean equal lengths array by array, so the prefix
        // compares as one run of cells.
        let end = self.bounds[n_arrays];
        self.bounds[..=n_arrays] == other.bounds[..=n_arrays]
            && bits_eq(&self.cells[..end], &other.cells[..end])
    }

    /// Bitwise equality of the *entire* state — every array and every
    /// scalar compared by `f64::to_bits`. Stricter than the derived
    /// `PartialEq` (NaN-exact) and than [`MachineState::arrays_bitwise_eq`]
    /// (which ignores scalars); used by the engine differential gate.
    pub fn bitwise_eq(&self, other: &MachineState) -> bool {
        self.bounds == other.bounds
            && bits_eq(&self.cells, &other.cells)
            && bits_eq(&self.scalars, &other.scalars)
    }

    /// A 64-bit digest of the full array contents, for cheap regression
    /// assertions.
    pub fn digest(&self) -> u64 {
        self.cells.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x1000_0000_01B3)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::ScalarType;

    fn program() -> Program {
        let mut p = Program::new("t");
        p.add_array("A", ScalarType::F64, vec![8], true);
        p.add_array("B", ScalarType::F64, vec![4], true);
        p.add_scalar("x", ScalarType::F64);
        p
    }

    #[test]
    fn memory_budget_rejects_huge_programs() {
        let mut p = Program::new("t");
        p.add_array("A", ScalarType::F64, vec![1 << 40], true);
        let e = check_memory_budget(&p).unwrap_err();
        assert_eq!(e.kind(), slp_core::ExecErrorKind::ResourceLimit);
        // Overflowing extents saturate rather than wrapping past the cap.
        let mut q = Program::new("t");
        q.add_array("B", ScalarType::F64, vec![i64::MAX, i64::MAX], true);
        assert!(check_memory_budget(&q).is_err());
        assert!(check_memory_budget(&program()).is_ok());
    }

    #[test]
    fn seeding_is_deterministic_and_nonzero() {
        let p = program();
        let s1 = MachineState::seeded(&p);
        let s2 = MachineState::seeded(&p);
        assert!(s1.arrays_bitwise_eq(&s2, 2));
        assert!(s1.array(ArrayId::new(0)).iter().all(|&v| v >= 0.25));
        assert_ne!(
            seed_value(ArrayId::new(0), 0),
            seed_value(ArrayId::new(0), 1)
        );
        assert_ne!(
            seed_value(ArrayId::new(0), 0),
            seed_value(ArrayId::new(1), 0)
        );
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let p = program();
        let mut s = MachineState::seeded(&p);
        assert!(s.store_array(ArrayId::new(0), 3, 7.5));
        assert_eq!(s.load_array(ArrayId::new(0), 3), Some(7.5));
        assert!(!s.store_array(ArrayId::new(0), 99, 1.0));
        assert_eq!(s.load_array(ArrayId::new(1), 99), None);
        s.set_scalar(VarId::new(0), 2.5);
        assert_eq!(s.scalar(VarId::new(0)), 2.5);
    }

    #[test]
    fn digest_tracks_changes() {
        let p = program();
        let mut s = MachineState::seeded(&p);
        let d0 = s.digest();
        s.store_array(ArrayId::new(0), 0, -1.0);
        assert_ne!(s.digest(), d0);
    }

    /// A program with one array of type `ty` per length in `lens`.
    fn arrays_of(ty: ScalarType, lens: &[i64]) -> Program {
        let mut p = Program::new("t");
        for (k, &len) in lens.iter().enumerate() {
            p.add_array(format!("A{k}"), ty, vec![len], true);
        }
        p
    }

    /// Every array of `state` holds `ty.coerce(seed_value(a, i) * 4.0)`,
    /// bit for bit.
    fn matches_the_formula(state: &MachineState, program: &Program) -> bool {
        program.array_ids().all(|a| {
            let ty = program.array(a).ty;
            let want: Vec<f64> = (0..program.array(a).len() as usize)
                .map(|i| ty.coerce(seed_value(a, i) * 4.0))
                .collect();
            bits_eq(state.array(a), &want)
        })
    }

    #[test]
    fn table_seeded_images_are_the_per_cell_formula_for_every_type() {
        let table = SeedTable(RwLock::default());
        for ty in ScalarType::all() {
            let p = arrays_of(ty, &[300, 0, 17, 1, 64]);
            assert!(
                matches_the_formula(&MachineState::seeded_from(&p, &table), &p),
                "{ty}"
            );
            assert!(matches_the_formula(&MachineState::seeded(&p), &p), "{ty}");
        }
        assert_eq!(cells(&table.0.read().unwrap()), 300 + 17 + 1 + 64);
    }

    #[test]
    fn a_longer_prefix_extends_the_table_and_a_shorter_one_reads_it() {
        let table = SeedTable(RwLock::default());
        for len in [5, 50, 5] {
            let p = arrays_of(ScalarType::I32, &[len, len + 1]);
            assert!(
                matches_the_formula(&MachineState::seeded_from(&p, &table), &p),
                "{len}"
            );
        }
        assert_eq!(cells(&table.0.read().unwrap()), 50 + 51);
    }

    #[test]
    fn an_array_past_the_bound_is_seeded_directly() {
        let table = SeedTable(RwLock::default());
        let small = arrays_of(ScalarType::F64, &[10]);
        MachineState::seeded_from(&small, &table);
        let p = arrays_of(ScalarType::F32, &[10, SEED_TABLE_CELLS as i64 + 1, 3]);
        assert!(matches_the_formula(
            &MachineState::seeded_from(&p, &table),
            &p
        ));
        let table = table.0.read().unwrap();
        assert_eq!(cells(&table), 10 + 3);
        assert_eq!(table[1].len(), 0);
    }

    #[test]
    fn concurrent_seeding_through_one_table_is_correct() {
        let table = SeedTable(RwLock::default());
        let lens = |t: i64, k: i64| [(t * 37 + k * 101) % 900, (k * 53 + t) % 700, 1 + k];
        // The four threads start together, so their requests overlap.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (table, start) = (&table, &start);
                scope.spawn(move || {
                    start.wait();
                    for k in 0..40 {
                        let p = arrays_of(ScalarType::all()[(t + k) as usize % 6], &lens(t, k));
                        let state = MachineState::seeded_from(&p, table);
                        assert!(matches_the_formula(&state, &p), "thread {t}, round {k}");
                    }
                });
            }
        });
        // Every entry is the longest prefix requested at its index.
        let mut longest = [0; 3];
        for (t, k) in (0..4).flat_map(|t| (0..40).map(move |k| (t, k))) {
            for (m, l) in longest.iter_mut().zip(lens(t, k)) {
                *m = (*m).max(l as usize);
            }
        }
        let held: Vec<usize> = table.0.read().unwrap().iter().map(|p| p.len()).collect();
        assert_eq!(held, longest);
    }

    #[test]
    fn equality_is_bitwise_per_array_prefix() {
        let p = program();
        let mut a = MachineState::seeded(&p);
        let b = MachineState::seeded(&p);
        assert!(a.arrays_bitwise_eq(&b, 2));
        a.store_array(ArrayId::new(1), 0, 0.0);
        assert!(!a.arrays_bitwise_eq(&b, 2));
        assert!(a.arrays_bitwise_eq(&b, 1)); // array 0 still matches
    }
}
