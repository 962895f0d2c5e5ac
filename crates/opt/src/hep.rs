//! The HepPlanner — Calcite's exhaustive rewrite engine (§3.1): applies a
//! rule list to the plan tree repeatedly until no rule changes anything
//! (or a safety iteration cap fires).

use crate::rules::Rule;
use ic_common::IcResult;
use ic_plan::ops::LogicalPlan;
use std::sync::Arc;

/// Fixpoint rewriter over logical plan trees.
pub struct HepPlanner<'r> {
    rules: &'r [Rule],
    /// Safety cap on full-tree passes; a genuine fixpoint is reached far
    /// earlier in practice.
    max_passes: usize,
    /// Rules fired in the last `optimize` call (for tests/telemetry).
    pub fired: u64,
}

impl<'r> HepPlanner<'r> {
    pub fn new(rules: &'r [Rule]) -> HepPlanner<'r> {
        HepPlanner { rules, max_passes: 100, fired: 0 }
    }

    /// Run the rules to fixpoint, returning the rewritten tree.
    pub fn optimize(&mut self, plan: Arc<LogicalPlan>) -> IcResult<Arc<LogicalPlan>> {
        self.fired = 0;
        let mut current = plan;
        for _ in 0..self.max_passes {
            let (next, changed) = self.rewrite_node(&current)?;
            current = next;
            if !changed {
                break;
            }
        }
        Ok(current)
    }

    /// One top-down pass: rewrite this node with every rule to a local
    /// fixpoint, then recurse into (possibly new) children.
    fn rewrite_node(&mut self, node: &Arc<LogicalPlan>) -> IcResult<(Arc<LogicalPlan>, bool)> {
        let mut current = node.clone();
        let mut changed = false;
        // Local fixpoint at this node.
        let mut local_passes = 0;
        loop {
            let mut fired_here = false;
            for rule in self.rules {
                if let Some(next) = (rule.apply)(&current)? {
                    current = next;
                    self.fired += 1;
                    fired_here = true;
                    changed = true;
                }
            }
            local_passes += 1;
            if !fired_here || local_passes >= self.max_passes {
                break;
            }
        }
        // Recurse into children.
        let children = current.children();
        if children.is_empty() {
            return Ok((current, changed));
        }
        let mut new_children = Vec::with_capacity(children.len());
        let mut child_changed = false;
        for c in children {
            let (nc, ch) = self.rewrite_node(c)?;
            child_changed |= ch;
            new_children.push(nc);
        }
        if child_changed {
            current = current.with_children(new_children)?;
            changed = true;
        }
        Ok((current, changed))
    }
}

/// Ignite's first optimization stage: run the (up to) three HepPlanners of
/// §3.2.1 in sequence with the variant's rule lists.
pub fn hep_stage(
    plan: Arc<LogicalPlan>,
    flags: &ic_plan::PlannerFlags,
) -> IcResult<Arc<LogicalPlan>> {
    let mut current = plan;
    for rules in crate::rules::hep_stage_rules(flags) {
        let mut planner = HepPlanner::new(&rules);
        current = planner.optimize(current)?;
    }
    if cfg!(debug_assertions) {
        ic_plan::validate::debug_validate_logical(&current, "hep stage");
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::{DataType, Expr, Field, Schema};
    use ic_plan::ops::{JoinKind, RelOp};
    use ic_plan::PlannerFlags;
    use ic_storage::TableId;

    fn scan(name: &str, cols: usize) -> Arc<LogicalPlan> {
        let schema = Schema::new(
            (0..cols).map(|i| Field::new(format!("{name}{i}"), DataType::Int)).collect(),
        );
        LogicalPlan::new(RelOp::Scan { table: TableId(0), name: name.into(), schema }).unwrap()
    }

    /// The paper's Figure 2 → Figure 3 rewrite: a filter above a join gets
    /// pushed into the scan side it references.
    #[test]
    fn figure3_filter_pushdown() {
        let join = LogicalPlan::new(RelOp::Join {
            left: scan("employee", 2),
            right: scan("sales", 2),
            kind: JoinKind::Inner,
            on: Expr::eq(Expr::col(0), Expr::col(2)),
            from_correlate: false,
        })
        .unwrap();
        let filtered = LogicalPlan::new(RelOp::Filter {
            input: join,
            predicate: Expr::eq(Expr::col(0), Expr::lit(10i64)),
        })
        .unwrap();
        let out = hep_stage(filtered, &PlannerFlags::ic()).unwrap();
        // Top is now the join; the filter sits on the employee side.
        let RelOp::Join { left, .. } = &out.op else {
            panic!("expected join at root:\n{}", ic_plan::explain::explain_logical(&out));
        };
        assert!(matches!(left.op, RelOp::Filter { .. }));
    }

    #[test]
    fn reaches_fixpoint_on_stacked_filters() {
        let mut plan = scan("t", 2);
        for i in 0..5 {
            plan = LogicalPlan::new(RelOp::Filter {
                input: plan,
                predicate: Expr::eq(Expr::col(0), Expr::lit(i as i64)),
            })
            .unwrap();
        }
        let rules = crate::rules::hep_stage_rules(&PlannerFlags::ic()).remove(0);
        let mut hep = HepPlanner::new(&rules);
        let out = hep.optimize(plan).unwrap();
        // All five merged into one.
        let RelOp::Filter { predicate, input } = &out.op else { panic!() };
        assert_eq!(predicate.split_conjunction().len(), 5);
        assert!(matches!(input.op, RelOp::Scan { .. }));
        assert!(hep.fired >= 4);
    }

    /// Correlate joins block pushdown in IC but not IC+ (§4.1 / Q4, Q22).
    #[test]
    fn correlate_pushdown_only_in_improved() {
        let mk = || {
            let join = LogicalPlan::new(RelOp::Join {
                left: scan("orders", 2),
                right: scan("lineitem", 2),
                kind: JoinKind::Semi,
                on: Expr::eq(Expr::col(0), Expr::col(2)),
                from_correlate: true,
            })
            .unwrap();
            LogicalPlan::new(RelOp::Filter {
                input: join,
                predicate: Expr::eq(Expr::col(1), Expr::lit(3i64)),
            })
            .unwrap()
        };
        let base = hep_stage(mk(), &PlannerFlags::ic()).unwrap();
        assert!(matches!(base.op, RelOp::Filter { .. }), "IC leaves the filter above");
        let plus = hep_stage(mk(), &PlannerFlags::ic_plus()).unwrap();
        let RelOp::Join { left, .. } = &plus.op else { panic!() };
        assert!(matches!(left.op, RelOp::Filter { .. }), "IC+ pushes it into the left input");
    }
}
