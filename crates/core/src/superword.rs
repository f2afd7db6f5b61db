//! Superword statements and block schedules — the output of the optimizer.

use std::fmt;

use slp_ir::{BasicBlock, BlockDeps, StmtId, TypeEnv};

/// A superword statement: isomorphic, mutually independent statements
/// executed as one SIMD operation. Unlike the grouping-phase SIMD group,
/// lane order **is** significant here — it was fixed by the scheduling
/// phase to minimize register permutations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SuperwordStmt {
    lanes: Vec<StmtId>,
}

impl SuperwordStmt {
    /// Creates a superword statement with the given lane order.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two lanes are supplied.
    pub fn new(lanes: Vec<StmtId>) -> Self {
        assert!(lanes.len() >= 2, "a superword statement needs ≥ 2 lanes");
        SuperwordStmt { lanes }
    }

    /// The member statements in lane order.
    pub fn lanes(&self) -> &[StmtId] {
        &self.lanes
    }

    /// Number of lanes.
    pub fn width(&self) -> usize {
        self.lanes.len()
    }
}

impl fmt::Display for SuperwordStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, s) in self.lanes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ">")
    }
}

/// One element of a block schedule: `Di` in the paper's
/// `D = <D1, ..., Dm>` notation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ScheduledItem {
    /// A statement left scalar.
    Single(StmtId),
    /// A vectorized superword statement.
    Superword(SuperwordStmt),
}

impl ScheduledItem {
    /// The member statements (one for singles).
    pub fn stmts(&self) -> &[StmtId] {
        match self {
            ScheduledItem::Single(s) => std::slice::from_ref(s),
            ScheduledItem::Superword(sw) => sw.lanes(),
        }
    }
}

impl fmt::Display for ScheduledItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduledItem::Single(s) => write!(f, "{s}"),
            ScheduledItem::Superword(sw) => write!(f, "{sw}"),
        }
    }
}

/// A complete schedule `D` for one basic block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BlockSchedule {
    items: Vec<ScheduledItem>,
}

impl BlockSchedule {
    /// Builds a schedule from items.
    pub fn new(items: Vec<ScheduledItem>) -> Self {
        BlockSchedule { items }
    }

    /// The schedule that leaves every statement scalar in program order.
    pub fn scalar(block: &BasicBlock) -> Self {
        BlockSchedule {
            items: block
                .iter()
                .map(|s| ScheduledItem::Single(s.id()))
                .collect(),
        }
    }

    /// The scheduled items in execution order.
    pub fn items(&self) -> &[ScheduledItem] {
        &self.items
    }

    /// Number of scheduled items (`m` in the paper's notation).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of superword statements.
    pub fn superword_count(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, ScheduledItem::Superword(_)))
            .count()
    }

    /// Whether any statement was vectorized.
    pub fn is_vectorized(&self) -> bool {
        self.superword_count() > 0
    }
}

impl fmt::Display for BlockSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in &self.items {
            writeln!(f, "{item}")?;
        }
        Ok(())
    }
}

/// A violation of the §4.1 validity constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ValidityError {
    /// Constraint 1: two lanes of a superword statement depend on each
    /// other.
    IntraGroupDependence(StmtId, StmtId),
    /// Constraint 2: the schedule reorders two dependent statements.
    DependenceViolated(StmtId, StmtId),
    /// Constraint 3: two lanes are not isomorphic.
    NotIsomorphic(StmtId, StmtId),
    /// Constraint 4: a superword statement exceeds the datapath width.
    TooWide(usize, usize),
    /// A statement is missing from or duplicated in the schedule.
    NotAPermutation,
}

impl fmt::Display for ValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidityError::IntraGroupDependence(a, b) => {
                write!(
                    f,
                    "lanes {a} and {b} of one superword statement are dependent"
                )
            }
            ValidityError::DependenceViolated(a, b) => {
                write!(f, "schedule reorders dependent statements {a} -> {b}")
            }
            ValidityError::NotIsomorphic(a, b) => {
                write!(f, "lanes {a} and {b} are not isomorphic")
            }
            ValidityError::TooWide(w, cap) => {
                write!(
                    f,
                    "superword statement of {w} lanes exceeds the {cap}-lane datapath"
                )
            }
            ValidityError::NotAPermutation => {
                write!(f, "schedule is not a permutation of the block's statements")
            }
        }
    }
}

impl std::error::Error for ValidityError {}

/// Checks a schedule against the four §4.1 validity constraints.
///
/// `lane_cap` maps a statement to the lane capacity of its element type on
/// the target datapath.
///
/// # Errors
///
/// Returns the first violated constraint.
pub(crate) fn validate_schedule<E: TypeEnv>(
    block: &BasicBlock,
    deps: &BlockDeps,
    schedule: &BlockSchedule,
    env: &E,
    mut lane_cap: impl FnMut(StmtId) -> usize,
) -> Result<(), ValidityError> {
    // Permutation check.
    let mut seen: Vec<StmtId> = schedule
        .items()
        .iter()
        .flat_map(|i| i.stmts().iter().copied())
        .collect();
    if seen.len() != block.len() {
        return Err(ValidityError::NotAPermutation);
    }
    seen.sort();
    seen.dedup();
    if seen.len() != block.len() || block.iter().any(|s| seen.binary_search(&s.id()).is_err()) {
        return Err(ValidityError::NotAPermutation);
    }

    // Constraints 1, 3, 4 per superword statement.
    for item in schedule.items() {
        if let ScheduledItem::Superword(sw) = item {
            let cap = lane_cap(sw.lanes()[0]);
            if sw.width() > cap {
                return Err(ValidityError::TooWide(sw.width(), cap));
            }
            for (i, &a) in sw.lanes().iter().enumerate() {
                for &b in &sw.lanes()[i + 1..] {
                    if !deps.independent(a, b) {
                        return Err(ValidityError::IntraGroupDependence(a, b));
                    }
                    let (sa, sb) = (
                        block.stmt(a).ok_or(ValidityError::NotAPermutation)?,
                        block.stmt(b).ok_or(ValidityError::NotAPermutation)?,
                    );
                    if !sa.isomorphic(sb, env) {
                        return Err(ValidityError::NotIsomorphic(a, b));
                    }
                }
            }
        }
    }

    // Constraint 2: every direct dependence src -> dst must have src's
    // item at or before dst's item — and in *different* items (lanes of
    // one superword statement execute concurrently, but constraint 1
    // already forbids intra-group dependences).
    let item_of = |s: StmtId| -> usize {
        schedule
            .items()
            .iter()
            .position(|i| i.stmts().contains(&s))
            .expect("checked by permutation test")
    };
    for d in deps.direct() {
        if item_of(d.src) >= item_of(d.dst) {
            return Err(ValidityError::DependenceViolated(d.src, d.dst));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp_ir::{BinOp, Expr, Program, ScalarType};

    fn block4() -> (Program, BasicBlock) {
        // S0: a = x + y; S1: b = x + y; S2: c = a + b; S3: d = a + b;
        let mut p = Program::new("t");
        let names = ["a", "b", "c", "d", "x", "y"];
        let v: Vec<_> = names
            .iter()
            .map(|n| p.add_scalar(*n, ScalarType::F64))
            .collect();
        let s0 = p.make_stmt(
            v[0].into(),
            Expr::Binary(BinOp::Add, v[4].into(), v[5].into()),
        );
        let s1 = p.make_stmt(
            v[1].into(),
            Expr::Binary(BinOp::Add, v[4].into(), v[5].into()),
        );
        let s2 = p.make_stmt(
            v[2].into(),
            Expr::Binary(BinOp::Add, v[0].into(), v[1].into()),
        );
        let s3 = p.make_stmt(
            v[3].into(),
            Expr::Binary(BinOp::Add, v[0].into(), v[1].into()),
        );
        let bb: BasicBlock = [s0, s1, s2, s3].into_iter().collect();
        (p, bb)
    }

    fn sw(ids: &[u32]) -> ScheduledItem {
        ScheduledItem::Superword(SuperwordStmt::new(
            ids.iter().map(|&i| StmtId::new(i)).collect(),
        ))
    }

    #[test]
    fn valid_schedule_passes() {
        let (p, bb) = block4();
        let deps = BlockDeps::analyze(&bb);
        let sched = BlockSchedule::new(vec![sw(&[0, 1]), sw(&[2, 3])]);
        assert_eq!(validate_schedule(&bb, &deps, &sched, &p, |_| 2), Ok(()));
    }

    #[test]
    fn scalar_schedule_is_always_valid() {
        let (p, bb) = block4();
        let deps = BlockDeps::analyze(&bb);
        let sched = BlockSchedule::scalar(&bb);
        assert!(!sched.is_vectorized());
        assert_eq!(validate_schedule(&bb, &deps, &sched, &p, |_| 2), Ok(()));
    }

    #[test]
    fn detects_intra_group_dependence() {
        let (p, bb) = block4();
        let deps = BlockDeps::analyze(&bb);
        // S0 and S2 are dependent (a flows into S2).
        let sched = BlockSchedule::new(vec![
            sw(&[0, 2]),
            ScheduledItem::Single(StmtId::new(1)),
            ScheduledItem::Single(StmtId::new(3)),
        ]);
        assert!(matches!(
            validate_schedule(&bb, &deps, &sched, &p, |_| 2),
            Err(ValidityError::IntraGroupDependence(_, _))
        ));
    }

    #[test]
    fn detects_reordered_dependences() {
        let (p, bb) = block4();
        let deps = BlockDeps::analyze(&bb);
        let sched = BlockSchedule::new(vec![sw(&[2, 3]), sw(&[0, 1])]);
        assert!(matches!(
            validate_schedule(&bb, &deps, &sched, &p, |_| 2),
            Err(ValidityError::DependenceViolated(_, _))
        ));
    }

    #[test]
    fn detects_width_overflow() {
        let (p, bb) = block4();
        let deps = BlockDeps::analyze(&bb);
        let sched = BlockSchedule::new(vec![sw(&[0, 1]), sw(&[2, 3])]);
        assert!(matches!(
            validate_schedule(&bb, &deps, &sched, &p, |_| 1),
            Err(ValidityError::TooWide(2, 1))
        ));
    }

    #[test]
    fn detects_missing_and_duplicated_statements() {
        let (p, bb) = block4();
        let deps = BlockDeps::analyze(&bb);
        let missing = BlockSchedule::new(vec![sw(&[0, 1])]);
        assert_eq!(
            validate_schedule(&bb, &deps, &missing, &p, |_| 2),
            Err(ValidityError::NotAPermutation)
        );
        let duplicated = BlockSchedule::new(vec![sw(&[0, 1]), sw(&[2, 3]), sw(&[0, 1])]);
        assert_eq!(
            validate_schedule(&bb, &deps, &duplicated, &p, |_| 2),
            Err(ValidityError::NotAPermutation)
        );
    }

    #[test]
    fn detects_non_isomorphic_lanes() {
        let mut p = Program::new("t");
        let a = p.add_scalar("a", ScalarType::F64);
        let b = p.add_scalar("b", ScalarType::F64);
        let x = p.add_scalar("x", ScalarType::F64);
        let s0 = p.make_stmt(a.into(), Expr::Binary(BinOp::Add, x.into(), x.into()));
        let s1 = p.make_stmt(b.into(), Expr::Binary(BinOp::Mul, x.into(), x.into()));
        let bb: BasicBlock = [s0, s1].into_iter().collect();
        let deps = BlockDeps::analyze(&bb);
        let sched = BlockSchedule::new(vec![sw(&[0, 1])]);
        assert!(matches!(
            validate_schedule(&bb, &deps, &sched, &p, |_| 2),
            Err(ValidityError::NotIsomorphic(_, _))
        ));
    }

    #[test]
    #[should_panic(expected = "needs ≥ 2 lanes")]
    fn superword_requires_two_lanes() {
        let _ = SuperwordStmt::new(vec![StmtId::new(0)]);
    }

    #[test]
    fn display_forms() {
        let sw = SuperwordStmt::new(vec![StmtId::new(3), StmtId::new(1)]);
        assert_eq!(sw.to_string(), "<S3,S1>");
        assert_eq!(ScheduledItem::Single(StmtId::new(2)).to_string(), "S2");
        let sched = BlockSchedule::new(vec![
            ScheduledItem::Superword(sw),
            ScheduledItem::Single(StmtId::new(2)),
        ]);
        assert_eq!(sched.to_string(), "<S3,S1>\nS2\n");
        assert_eq!(sched.len(), 2);
        assert!(sched.is_vectorized());
    }

    #[test]
    fn validity_error_messages_are_informative() {
        let e = ValidityError::TooWide(4, 2);
        assert!(e.to_string().contains("4 lanes"));
        let d = ValidityError::DependenceViolated(StmtId::new(1), StmtId::new(2));
        assert!(d.to_string().contains("S1"));
        assert!(d.to_string().contains("S2"));
    }
}
