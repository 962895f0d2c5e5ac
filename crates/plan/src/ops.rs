//! Logical and physical relational operators.
//!
//! Both operator enums are generic over the child-link type `C`: plan trees
//! instantiate `C = Arc<…>`, while the Volcano memo instantiates
//! `C = GroupId`, so rules and schema derivation are written once.

use crate::dist::Distribution;
use ic_common::agg::AggFunc;
use ic_common::{DataType, Expr, Field, IcError, IcResult, Row, Schema};
use ic_storage::{IndexId, TableId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Join types. `Semi`/`Anti` are produced by subquery decorrelation
/// (EXISTS / IN / NOT EXISTS) and emit left-side columns only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Left,
    Semi,
    Anti,
}

impl JoinKind {
    /// Does the join output include the right input's columns?
    pub fn emits_right(&self) -> bool {
        matches!(self, JoinKind::Inner | JoinKind::Left)
    }

    pub fn label(&self) -> &'static str {
        match self {
            JoinKind::Inner => "inner",
            JoinKind::Left => "left",
            JoinKind::Semi => "semi",
            JoinKind::Anti => "anti",
        }
    }
}

/// One aggregate call: `func(arg)` evaluated per group.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggCall {
    pub func: AggFunc,
    /// Argument expression over the aggregate's input row; `None` for
    /// COUNT(*).
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
}

impl AggCall {
    /// Output type of the finished aggregate given the input schema.
    pub fn output_type(&self, input: &Schema) -> DataType {
        match self.func {
            AggFunc::Count | AggFunc::CountStar | AggFunc::CountDistinct => DataType::Int,
            AggFunc::Avg => DataType::Double,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                self.arg.as_ref().map(|a| a.output_type(input)).unwrap_or(DataType::Double)
            }
        }
    }

    /// Types of the shipped accumulator state columns (partial phase).
    pub fn state_types(&self, input: &Schema) -> Vec<DataType> {
        match self.func {
            AggFunc::Count | AggFunc::CountStar | AggFunc::CountDistinct => vec![DataType::Int],
            AggFunc::Avg => vec![DataType::Double, DataType::Int],
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => vec![self.output_type(input)],
        }
    }
}

/// A sort key: output column index plus direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SortKey {
    pub col: usize,
    pub desc: bool,
}

impl SortKey {
    pub fn asc(col: usize) -> SortKey {
        SortKey { col, desc: false }
    }
    pub fn desc(col: usize) -> SortKey {
        SortKey { col, desc: true }
    }
}

/// Aggregation phase, mirroring Ignite's map-reduce aggregate split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggPhase {
    /// All input at one place; emits finished values.
    Complete,
    /// The map side: emits group keys + accumulator state columns.
    Partial,
    /// The reduce side: consumes partial state, emits finished values.
    Final,
}

/// Logical relational operators (Calcite's `LogicalXxx` nodes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RelOp<C> {
    Scan {
        table: TableId,
        name: String,
        schema: Schema,
    },
    Filter {
        input: C,
        predicate: Expr,
    },
    Project {
        input: C,
        exprs: Vec<Expr>,
        names: Vec<String>,
    },
    Join {
        left: C,
        right: C,
        kind: JoinKind,
        /// Condition over the concatenated (left ++ right) columns.
        on: Expr,
        /// True when this join was produced by decorrelating a subquery —
        /// a *correlate* in Calcite terms. The baseline's Hep stage misses
        /// the FILTER_CORRELATE rule and will not push filters past these
        /// (§4.1).
        from_correlate: bool,
    },
    Aggregate {
        input: C,
        /// Grouping columns (input positions).
        group: Vec<usize>,
        aggs: Vec<AggCall>,
    },
    Sort {
        input: C,
        keys: Vec<SortKey>,
    },
    Limit {
        input: C,
        fetch: Option<u64>,
        offset: u64,
    },
    Values {
        schema: Schema,
        rows: Vec<Row>,
    },
}

/// Physical operators (Ignite's `IgniteXxx` rels).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PhysOp<C> {
    TableScan {
        table: TableId,
        name: String,
        schema: Schema,
    },
    /// Full scan through a sorted secondary index: same rows as a table
    /// scan, but delivers a collation.
    IndexScan {
        table: TableId,
        index: IndexId,
        name: String,
        schema: Schema,
        sort: Vec<SortKey>,
    },
    Filter {
        input: C,
        predicate: Expr,
    },
    Project {
        input: C,
        exprs: Vec<Expr>,
        names: Vec<String>,
    },
    NestedLoopJoin {
        left: C,
        right: C,
        kind: JoinKind,
        on: Expr,
    },
    HashJoin {
        left: C,
        right: C,
        kind: JoinKind,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        /// Remaining non-equi condition over concatenated columns.
        residual: Expr,
    },
    MergeJoin {
        left: C,
        right: C,
        kind: JoinKind,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Expr,
    },
    HashAggregate {
        input: C,
        group: Vec<usize>,
        aggs: Vec<AggCall>,
        phase: AggPhase,
    },
    /// Stream aggregate over input sorted on the group keys.
    SortAggregate {
        input: C,
        group: Vec<usize>,
        aggs: Vec<AggCall>,
        phase: AggPhase,
    },
    Sort {
        input: C,
        keys: Vec<SortKey>,
    },
    Limit {
        input: C,
        fetch: Option<u64>,
        offset: u64,
    },
    /// Re-distribution boundary; becomes a sender/receiver pair at
    /// fragmentation time (§3.2.3).
    Exchange {
        input: C,
        to: Distribution,
    },
    Values {
        schema: Schema,
        rows: Vec<Row>,
    },
}

/// A logical plan tree node with its derived schema. `Eq + Hash` are
/// structural: a whole tree is the plan cache's key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogicalPlan {
    pub op: RelOp<Arc<LogicalPlan>>,
    pub schema: Schema,
}

impl LogicalPlan {
    /// Build a node, deriving its schema from the children embedded in
    /// `op`.
    pub fn new(op: RelOp<Arc<LogicalPlan>>) -> IcResult<Arc<LogicalPlan>> {
        let child_schemas: Vec<Schema> = match &op {
            RelOp::Scan { .. } | RelOp::Values { .. } => vec![],
            RelOp::Filter { input, .. }
            | RelOp::Project { input, .. }
            | RelOp::Aggregate { input, .. }
            | RelOp::Sort { input, .. }
            | RelOp::Limit { input, .. } => vec![input.schema.clone()],
            RelOp::Join { left, right, .. } => vec![left.schema.clone(), right.schema.clone()],
        };
        let refs: Vec<&Schema> = child_schemas.iter().collect();
        let schema = derive_logical_schema(&op, &refs)?;
        Ok(Arc::new(LogicalPlan { op, schema }))
    }

    /// Child nodes.
    pub fn children(&self) -> Vec<&Arc<LogicalPlan>> {
        match &self.op {
            RelOp::Scan { .. } | RelOp::Values { .. } => vec![],
            RelOp::Filter { input, .. }
            | RelOp::Project { input, .. }
            | RelOp::Aggregate { input, .. }
            | RelOp::Sort { input, .. }
            | RelOp::Limit { input, .. } => vec![input],
            RelOp::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Child links, for rewrites that keep every node's operator and schema.
    pub fn children_mut(&mut self) -> Vec<&mut Arc<LogicalPlan>> {
        match &mut self.op {
            RelOp::Scan { .. } | RelOp::Values { .. } => vec![],
            RelOp::Filter { input, .. }
            | RelOp::Project { input, .. }
            | RelOp::Aggregate { input, .. }
            | RelOp::Sort { input, .. }
            | RelOp::Limit { input, .. } => vec![input],
            RelOp::Join { left, right, .. } => vec![left, right],
        }
    }

    /// This node's own scalar expressions (not its inputs'), in operator
    /// order: predicate, projections, join condition, aggregate arguments.
    pub fn exprs_mut(&mut self) -> Vec<&mut Expr> {
        match &mut self.op {
            RelOp::Filter { predicate: e, .. } | RelOp::Join { on: e, .. } => vec![e],
            RelOp::Project { exprs, .. } => exprs.iter_mut().collect(),
            RelOp::Aggregate { aggs, .. } => agg_args_mut(aggs),
            RelOp::Scan { .. } | RelOp::Sort { .. } | RelOp::Limit { .. } | RelOp::Values { .. } => {
                vec![]
            }
        }
    }

    /// Rebuild this node with new children (same op).
    pub fn with_children(&self, mut children: Vec<Arc<LogicalPlan>>) -> IcResult<Arc<LogicalPlan>> {
        let op = match &self.op {
            RelOp::Scan { .. } | RelOp::Values { .. } => self.op.clone(),
            RelOp::Filter { predicate, .. } => RelOp::Filter {
                input: children.remove(0),
                predicate: predicate.clone(),
            },
            RelOp::Project { exprs, names, .. } => RelOp::Project {
                input: children.remove(0),
                exprs: exprs.clone(),
                names: names.clone(),
            },
            RelOp::Aggregate { group, aggs, .. } => RelOp::Aggregate {
                input: children.remove(0),
                group: group.clone(),
                aggs: aggs.clone(),
            },
            RelOp::Sort { keys, .. } => RelOp::Sort { input: children.remove(0), keys: keys.clone() },
            RelOp::Limit { fetch, offset, .. } => RelOp::Limit {
                input: children.remove(0),
                fetch: *fetch,
                offset: *offset,
            },
            RelOp::Join { kind, on, from_correlate, .. } => {
                let left = children.remove(0);
                let right = children.remove(0);
                RelOp::Join { left, right, kind: *kind, on: on.clone(), from_correlate: *from_correlate }
            }
        };
        LogicalPlan::new(op)
    }

    /// Total number of Join operators in the tree (the §4.3 conditional
    /// rule-disabling threshold counts these).
    pub fn count_joins(&self) -> usize {
        let own = usize::from(matches!(self.op, RelOp::Join { .. }));
        own + self.children().iter().map(|c| c.count_joins()).sum::<usize>()
    }

    /// Maximum depth of consecutively nested joins (a join whose input is a
    /// join) — the paper's "more than three nested joins" condition.
    pub fn max_join_nesting(&self) -> usize {
        fn walk(node: &LogicalPlan) -> (usize, usize) {
            // (max chain ending at this node, max chain anywhere below)
            let child_results: Vec<(usize, usize)> =
                node.children().iter().map(|c| walk(c)).collect();
            let best_below = child_results.iter().map(|r| r.1).max().unwrap_or(0);
            if matches!(node.op, RelOp::Join { .. }) {
                let ending = 1 + child_results.iter().map(|r| r.0).max().unwrap_or(0);
                (ending, best_below.max(ending))
            } else {
                (0, best_below)
            }
        }
        walk(self).1
    }
}

/// Derive the output schema of a logical operator from its children's
/// schemas.
pub fn derive_logical_schema<C>(op: &RelOp<C>, children: &[&Schema]) -> IcResult<Schema> {
    Ok(match op {
        RelOp::Scan { schema, .. } | RelOp::Values { schema, .. } => schema.clone(),
        RelOp::Filter { .. } | RelOp::Sort { .. } | RelOp::Limit { .. } => children[0].clone(),
        RelOp::Project { exprs, names, .. } => {
            let input = children[0];
            if exprs.len() != names.len() {
                return Err(IcError::Plan("project exprs/names length mismatch".into()));
            }
            Schema::new(
                exprs
                    .iter()
                    .zip(names)
                    .map(|(e, n)| Field::new(n.clone(), e.output_type(input)))
                    .collect(),
            )
        }
        RelOp::Join { kind, .. } => {
            if kind.emits_right() {
                children[0].join(children[1])
            } else {
                children[0].clone()
            }
        }
        RelOp::Aggregate { group, aggs, .. } => {
            let input = children[0];
            let mut fields: Vec<Field> = group
                .iter()
                .map(|&g| input.field(g).clone())
                .collect();
            fields.extend(aggs.iter().map(|a| Field::new(a.name.clone(), a.output_type(input))));
            Schema::new(fields)
        }
    })
}

/// A physical plan tree node with derived schema, traits and costs.
#[derive(Debug, Clone)]
pub struct PhysPlan {
    pub op: PhysOp<Arc<PhysPlan>>,
    pub schema: Schema,
    /// Delivered distribution trait.
    pub dist: Distribution,
    /// Delivered collation (sort order) trait.
    pub collation: Vec<SortKey>,
    /// Estimated output rows.
    pub rows: f64,
    /// This operator's own cost (Eq. 2 components).
    pub cost: crate::cost::Cost,
    /// Cumulative cost of the subtree (Eq. 1).
    pub total_cost: f64,
    /// Cached: does this subtree contain an Exchange? (Algorithm 2's
    /// `hasExchange`).
    pub has_exchange: bool,
}

impl PhysPlan {
    pub fn children(&self) -> Vec<&Arc<PhysPlan>> {
        match &self.op {
            PhysOp::TableScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => vec![],
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::HashAggregate { input, .. }
            | PhysOp::SortAggregate { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::Limit { input, .. }
            | PhysOp::Exchange { input, .. } => vec![input],
            PhysOp::NestedLoopJoin { left, right, .. }
            | PhysOp::HashJoin { left, right, .. }
            | PhysOp::MergeJoin { left, right, .. } => vec![left, right],
        }
    }

    /// Child links, for rewrites that keep every node's operator, schema,
    /// traits and costs.
    pub fn children_mut(&mut self) -> Vec<&mut Arc<PhysPlan>> {
        match &mut self.op {
            PhysOp::TableScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => vec![],
            PhysOp::Filter { input, .. }
            | PhysOp::Project { input, .. }
            | PhysOp::HashAggregate { input, .. }
            | PhysOp::SortAggregate { input, .. }
            | PhysOp::Sort { input, .. }
            | PhysOp::Limit { input, .. }
            | PhysOp::Exchange { input, .. } => vec![input],
            PhysOp::NestedLoopJoin { left, right, .. }
            | PhysOp::HashJoin { left, right, .. }
            | PhysOp::MergeJoin { left, right, .. } => vec![left, right],
        }
    }

    /// Does any expression in the tree still hold an [`Expr::Param`]? True
    /// of a plan-cache template, never of a plan handed to the executor.
    pub fn has_param(&self) -> bool {
        let own: Vec<&Expr> = match &self.op {
            PhysOp::Filter { predicate: e, .. }
            | PhysOp::NestedLoopJoin { on: e, .. }
            | PhysOp::HashJoin { residual: e, .. }
            | PhysOp::MergeJoin { residual: e, .. } => vec![e],
            PhysOp::Project { exprs, .. } => exprs.iter().collect(),
            PhysOp::HashAggregate { aggs, .. } | PhysOp::SortAggregate { aggs, .. } => {
                aggs.iter().filter_map(|a| a.arg.as_ref()).collect()
            }
            _ => vec![],
        };
        let mut found = false;
        for e in own {
            e.visit(&mut |x| found |= matches!(x, Expr::Param { .. }));
        }
        found || self.children().iter().any(|c| c.has_param())
    }

    /// This node's own scalar expressions (not its inputs'): predicate,
    /// projections, join condition or residual, aggregate arguments (a
    /// `Final` phase carries its partial phase's).
    pub fn exprs_mut(&mut self) -> Vec<&mut Expr> {
        match &mut self.op {
            PhysOp::Filter { predicate: e, .. }
            | PhysOp::NestedLoopJoin { on: e, .. }
            | PhysOp::HashJoin { residual: e, .. }
            | PhysOp::MergeJoin { residual: e, .. } => vec![e],
            PhysOp::Project { exprs, .. } => exprs.iter_mut().collect(),
            PhysOp::HashAggregate { aggs, .. } | PhysOp::SortAggregate { aggs, .. } => {
                agg_args_mut(aggs)
            }
            PhysOp::TableScan { .. }
            | PhysOp::IndexScan { .. }
            | PhysOp::Sort { .. }
            | PhysOp::Limit { .. }
            | PhysOp::Exchange { .. }
            | PhysOp::Values { .. } => vec![],
        }
    }

    /// This node's operator over `children`, with every reference to column
    /// `c` of input `i` rewritten to `col(i, c)`. The one per-variant rebuild:
    /// [`PhysPlan::with_children`] is this with the identity map, the field
    /// trimmer passes the positions its narrowed inputs kept.
    pub fn remap_op(
        &self,
        children: Vec<Arc<PhysPlan>>,
        col: &dyn Fn(usize, usize) -> usize,
    ) -> PhysOp<Arc<PhysPlan>> {
        let mut children = children.into_iter();
        #[expect(clippy::expect_used, reason = "callers pass exactly one new child per input of this operator")]
        let mut next = || children.next().expect("one new child per input");
        let in0 = |c: usize| col(0, c);
        let keys = |keys: &[usize], i: usize| keys.iter().map(|&k| col(i, k)).collect();
        // A join condition addresses the concatenated (left ++ right) row.
        let concat = |e: &Expr, old_left: &PhysPlan, new_left: &PhysPlan| {
            let (old, new) = (old_left.schema.arity(), new_left.schema.arity());
            e.map_cols(&|c| if c < old { col(0, c) } else { new + col(1, c - old) })
        };
        match &self.op {
            PhysOp::TableScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => {
                self.op.clone()
            }
            PhysOp::Filter { predicate, .. } => {
                PhysOp::Filter { input: next(), predicate: predicate.map_cols(&in0) }
            }
            PhysOp::Project { exprs, names, .. } => PhysOp::Project {
                input: next(),
                exprs: exprs.iter().map(|e| e.map_cols(&in0)).collect(),
                names: names.clone(),
            },
            PhysOp::NestedLoopJoin { left: old_left, kind, on, .. } => {
                let (left, right) = (next(), next());
                let on = concat(on, old_left, &left);
                PhysOp::NestedLoopJoin { left, right, kind: *kind, on }
            }
            PhysOp::HashJoin { left: old_left, kind, left_keys, right_keys, residual, .. } => {
                let (left, right) = (next(), next());
                let residual = concat(residual, old_left, &left);
                let (left_keys, right_keys) = (keys(left_keys, 0), keys(right_keys, 1));
                PhysOp::HashJoin { left, right, kind: *kind, left_keys, right_keys, residual }
            }
            PhysOp::MergeJoin { left: old_left, kind, left_keys, right_keys, residual, .. } => {
                let (left, right) = (next(), next());
                let residual = concat(residual, old_left, &left);
                let (left_keys, right_keys) = (keys(left_keys, 0), keys(right_keys, 1));
                PhysOp::MergeJoin { left, right, kind: *kind, left_keys, right_keys, residual }
            }
            PhysOp::HashAggregate { group, aggs, phase, .. } => {
                let (group, aggs) = remap_agg(group, aggs, *phase, &in0);
                PhysOp::HashAggregate { input: next(), group, aggs, phase: *phase }
            }
            PhysOp::SortAggregate { group, aggs, phase, .. } => {
                let (group, aggs) = remap_agg(group, aggs, *phase, &in0);
                PhysOp::SortAggregate { input: next(), group, aggs, phase: *phase }
            }
            PhysOp::Sort { keys, .. } => PhysOp::Sort {
                input: next(),
                keys: keys.iter().map(|k| SortKey { col: in0(k.col), desc: k.desc }).collect(),
            },
            PhysOp::Limit { fetch, offset, .. } => {
                PhysOp::Limit { input: next(), fetch: *fetch, offset: *offset }
            }
            PhysOp::Exchange { to, .. } => {
                PhysOp::Exchange { input: next(), to: to.remap(&|c| Some(in0(c))) }
            }
        }
    }

    /// A fresh node running the same operator over `children`, every other
    /// field carried over — new identity, nothing re-derived.
    pub fn with_children(&self, children: Vec<Arc<PhysPlan>>) -> Arc<PhysPlan> {
        Arc::new(PhysPlan {
            op: self.remap_op(children, &|_, c| c),
            schema: self.schema.clone(),
            dist: self.dist.clone(),
            collation: self.collation.clone(),
            ..*self
        })
    }

    /// The columns of each input this operator needs when `required` (sorted)
    /// of its own output columns are needed above it: what it reads itself
    /// plus what it passes through, sorted. An input edge never carries zero
    /// columns — there is no zero-width batch — so an empty set becomes the
    /// input's first fixed-width column.
    pub fn input_requirements(&self, required: &[usize]) -> Vec<Vec<usize>> {
        let above = || required.iter().copied();
        // Split columns of the concatenated join row between the inputs.
        let split = |left: &PhysPlan, cols: BTreeSet<usize>| {
            let l = left.schema.arity();
            let (lc, rc): (Vec<usize>, Vec<usize>) = cols.into_iter().partition(|&c| c < l);
            vec![lc, rc.into_iter().map(|c| c - l).collect()]
        };
        let mut sets: Vec<Vec<usize>> = match &self.op {
            PhysOp::TableScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => vec![],
            PhysOp::Filter { predicate, .. } => vec![sorted(above().chain(predicate.columns()))],
            PhysOp::Project { exprs, .. } => {
                vec![sorted(above().flat_map(|i| exprs[i].columns()))]
            }
            PhysOp::NestedLoopJoin { left, on, .. } => {
                split(left, above().chain(on.columns()).collect())
            }
            PhysOp::HashJoin { left, left_keys, right_keys, residual, .. }
            | PhysOp::MergeJoin { left, left_keys, right_keys, residual, .. } => {
                let l = left.schema.arity();
                let own = left_keys.iter().copied().chain(right_keys.iter().map(|k| k + l));
                split(left, above().chain(own).chain(residual.columns()).collect())
            }
            PhysOp::HashAggregate { input, group, aggs, phase }
            | PhysOp::SortAggregate { input, group, aggs, phase } => match phase {
                // The partial state layout is positional: all of it.
                AggPhase::Final => vec![(0..input.schema.arity()).collect()],
                AggPhase::Complete | AggPhase::Partial => {
                    let args = aggs.iter().filter_map(|a| a.arg.as_ref());
                    vec![sorted(group.iter().copied().chain(args.flat_map(Expr::columns)))]
                }
            },
            PhysOp::Sort { keys, .. } => vec![sorted(above().chain(keys.iter().map(|k| k.col)))],
            PhysOp::Limit { .. } => vec![required.to_vec()],
            PhysOp::Exchange { to, .. } => {
                let keys: &[usize] = if let Distribution::Hash(k) = to { k } else { &[] };
                vec![sorted(above().chain(keys.iter().copied()))]
            }
        };
        for (set, child) in sets.iter_mut().zip(self.children()) {
            if set.is_empty() && child.schema.arity() > 0 {
                let fields = child.schema.fields();
                set.push(fields.iter().position(|f| f.dtype != DataType::Str).unwrap_or(0));
            }
        }
        sets
    }

    /// Operator label for EXPLAIN output.
    pub fn label(&self) -> String {
        match &self.op {
            PhysOp::TableScan { name, .. } => format!("TableScan({name})"),
            PhysOp::IndexScan { name, .. } => format!("IndexScan({name})"),
            PhysOp::Filter { .. } => "Filter".into(),
            PhysOp::Project { .. } => "Project".into(),
            PhysOp::NestedLoopJoin { kind, .. } => format!("NestedLoopJoin[{}]", kind.label()),
            PhysOp::HashJoin { kind, .. } => format!("HashJoin[{}]", kind.label()),
            PhysOp::MergeJoin { kind, .. } => format!("MergeJoin[{}]", kind.label()),
            PhysOp::HashAggregate { phase, .. } => format!("HashAggregate[{phase:?}]"),
            PhysOp::SortAggregate { phase, .. } => format!("SortAggregate[{phase:?}]"),
            PhysOp::Sort { .. } => "Sort".into(),
            PhysOp::Limit { .. } => "Limit".into(),
            PhysOp::Exchange { to, .. } => format!("Exchange[{to}]"),
            PhysOp::Values { .. } => "Values".into(),
        }
    }

    /// Count operators matching a predicate anywhere in the tree.
    pub fn count_ops(&self, pred: &impl Fn(&PhysOp<Arc<PhysPlan>>) -> bool) -> usize {
        usize::from(pred(&self.op))
            + self.children().iter().map(|c| c.count_ops(pred)).sum::<usize>()
    }
}

fn agg_args_mut(aggs: &mut [AggCall]) -> Vec<&mut Expr> {
    aggs.iter_mut().filter_map(|a| a.arg.as_mut()).collect()
}

fn sorted(cols: impl Iterator<Item = usize>) -> Vec<usize> {
    cols.collect::<BTreeSet<usize>>().into_iter().collect()
}

/// An aggregate's input references through `col`. A `Final` phase reads
/// the partial state positionally and its call arguments still name the
/// partial phase's input, so neither moves.
fn remap_agg(
    group: &[usize],
    aggs: &[AggCall],
    phase: AggPhase,
    col: &impl Fn(usize) -> usize,
) -> (Vec<usize>, Vec<AggCall>) {
    if phase == AggPhase::Final {
        return (group.to_vec(), aggs.to_vec());
    }
    let aggs = aggs
        .iter()
        .map(|a| AggCall {
            func: a.func,
            arg: a.arg.as_ref().map(|e| e.map_cols(col)),
            name: a.name.clone(),
        })
        .collect();
    (group.iter().map(|&g| col(g)).collect(), aggs)
}

/// Derive the output schema of a physical operator.
pub fn derive_phys_schema<C>(op: &PhysOp<C>, children: &[&Schema]) -> IcResult<Schema> {
    Ok(match op {
        PhysOp::TableScan { schema, .. }
        | PhysOp::IndexScan { schema, .. }
        | PhysOp::Values { schema, .. } => schema.clone(),
        PhysOp::Filter { .. }
        | PhysOp::Sort { .. }
        | PhysOp::Limit { .. }
        | PhysOp::Exchange { .. } => children[0].clone(),
        PhysOp::Project { exprs, names, .. } => {
            let input = children[0];
            Schema::new(
                exprs
                    .iter()
                    .zip(names)
                    .map(|(e, n)| Field::new(n.clone(), e.output_type(input)))
                    .collect(),
            )
        }
        PhysOp::NestedLoopJoin { kind, .. }
        | PhysOp::HashJoin { kind, .. }
        | PhysOp::MergeJoin { kind, .. } => {
            if kind.emits_right() {
                children[0].join(children[1])
            } else {
                children[0].clone()
            }
        }
        PhysOp::HashAggregate { group, aggs, phase, .. }
        | PhysOp::SortAggregate { group, aggs, phase, .. } => {
            agg_schema(children[0], group, aggs, *phase)
        }
    })
}

/// Schema of an aggregate in a given phase.
///
/// * `Complete`: group fields + finished aggregate fields.
/// * `Partial`: group fields + flattened accumulator state fields.
/// * `Final`: input is a partial schema; output is group fields +
///   finished aggregate fields (group indices are `0..group.len()`).
pub fn agg_schema(input: &Schema, group: &[usize], aggs: &[AggCall], phase: AggPhase) -> Schema {
    match phase {
        AggPhase::Complete => {
            let mut fields: Vec<Field> = group.iter().map(|&g| input.field(g).clone()).collect();
            fields.extend(aggs.iter().map(|a| Field::new(a.name.clone(), a.output_type(input))));
            Schema::new(fields)
        }
        AggPhase::Partial => {
            let mut fields: Vec<Field> = group.iter().map(|&g| input.field(g).clone()).collect();
            for a in aggs {
                for (i, t) in a.state_types(input).into_iter().enumerate() {
                    fields.push(Field::new(format!("{}${i}", a.name), t));
                }
            }
            Schema::new(fields)
        }
        AggPhase::Final => {
            // Input is the partial schema; the group keys are its first
            // `group.len()` fields. The finished agg types cannot consult
            // the original input schema; recover them from the state types.
            let mut fields: Vec<Field> =
                (0..group.len()).map(|g| input.field(g).clone()).collect();
            for a in aggs {
                let t = match a.func {
                    AggFunc::Count | AggFunc::CountStar | AggFunc::CountDistinct => DataType::Int,
                    AggFunc::Avg => DataType::Double,
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                        // State layout: single column carrying the value.
                        // Find its position: group + preceding state widths.
                        let mut pos = group.len();
                        for prev in aggs.iter().take_while(|p| !std::ptr::eq(*p, a)) {
                            pos += prev.state_types(input).len();
                        }
                        if pos < input.arity() {
                            input.field(pos).dtype
                        } else {
                            DataType::Double
                        }
                    }
                };
                fields.push(Field::new(a.name.clone(), t));
            }
            Schema::new(fields)
        }
    }
}

/// Extract equi-join key pairs from a join condition over concatenated
/// columns. Returns `(left_keys, right_keys, residual)` where residual is
/// the conjunction of non-equi conjuncts (TRUE if none).
pub fn extract_equi_keys(on: &Expr, left_arity: usize) -> (Vec<usize>, Vec<usize>, Expr) {
    let mut lk = Vec::new();
    let mut rk = Vec::new();
    let mut residual = Vec::new();
    for conj in on.split_conjunction() {
        if let Expr::Binary { op: ic_common::BinOp::Eq, left, right } = conj {
            if let (Expr::Col(a), Expr::Col(b)) = (left.as_ref(), right.as_ref()) {
                let (a, b) = (*a, *b);
                if a < left_arity && b >= left_arity {
                    lk.push(a);
                    rk.push(b - left_arity);
                    continue;
                }
                if b < left_arity && a >= left_arity {
                    lk.push(b);
                    rk.push(a - left_arity);
                    continue;
                }
            }
        }
        residual.push(conj.clone());
    }
    (lk, rk, Expr::conjunction(residual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_common::BinOp;

    fn scan(name: &str, cols: usize) -> Arc<LogicalPlan> {
        let schema = Schema::new(
            (0..cols)
                .map(|i| Field::new(format!("{name}_c{i}"), DataType::Int))
                .collect(),
        );
        LogicalPlan::new(RelOp::Scan { table: TableId(0), name: name.into(), schema }).unwrap()
    }

    #[test]
    fn join_schema_concat() {
        let l = scan("a", 2);
        let r = scan("b", 3);
        let j = LogicalPlan::new(RelOp::Join {
            left: l.clone(),
            right: r.clone(),
            kind: JoinKind::Inner,
            on: Expr::lit(true),
            from_correlate: false,
        })
        .unwrap();
        assert_eq!(j.schema.arity(), 5);
        let s = LogicalPlan::new(RelOp::Join {
            left: l,
            right: r,
            kind: JoinKind::Semi,
            on: Expr::lit(true),
            from_correlate: false,
        })
        .unwrap();
        assert_eq!(s.schema.arity(), 2);
    }

    #[test]
    fn aggregate_schema() {
        let s = scan("t", 3);
        let a = LogicalPlan::new(RelOp::Aggregate {
            input: s,
            group: vec![1],
            aggs: vec![
                AggCall { func: AggFunc::Sum, arg: Some(Expr::col(2)), name: "s".into() },
                AggCall { func: AggFunc::CountStar, arg: None, name: "c".into() },
            ],
        })
        .unwrap();
        assert_eq!(a.schema.arity(), 3);
        assert_eq!(a.schema.field(0).name, "t_c1");
        assert_eq!(a.schema.field(1).dtype, DataType::Int); // SUM of int
        assert_eq!(a.schema.field(2).dtype, DataType::Int); // COUNT
    }

    #[test]
    fn partial_final_schemas_compose() {
        let input = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("v", DataType::Double),
        ]);
        let aggs = vec![
            AggCall { func: AggFunc::Avg, arg: Some(Expr::col(1)), name: "a".into() },
            AggCall { func: AggFunc::Min, arg: Some(Expr::col(1)), name: "m".into() },
        ];
        let partial = agg_schema(&input, &[0], &aggs, AggPhase::Partial);
        // group(1) + avg state(2) + min state(1)
        assert_eq!(partial.arity(), 4);
        let fin = agg_schema(&partial, &[0], &aggs, AggPhase::Final);
        assert_eq!(fin.arity(), 3);
        assert_eq!(fin.field(1).dtype, DataType::Double);
        assert_eq!(fin.field(2).dtype, DataType::Double);
    }

    #[test]
    fn equi_key_extraction() {
        // (l0 = r1) AND (r0 = l1) AND (l0 > 5)  — left arity 2
        let on = Expr::conjunction(vec![
            Expr::eq(Expr::col(0), Expr::col(3)),
            Expr::eq(Expr::col(2), Expr::col(1)),
            Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(5i64)),
        ]);
        let (lk, rk, residual) = extract_equi_keys(&on, 2);
        assert_eq!(lk, vec![0, 1]);
        assert_eq!(rk, vec![1, 0]);
        assert!(!residual.is_true_literal());
        assert_eq!(residual.split_conjunction().len(), 1);
    }

    #[test]
    fn join_counting() {
        let j1 = LogicalPlan::new(RelOp::Join {
            left: scan("a", 1),
            right: scan("b", 1),
            kind: JoinKind::Inner,
            on: Expr::lit(true),
            from_correlate: false,
        })
        .unwrap();
        let j2 = LogicalPlan::new(RelOp::Join {
            left: j1.clone(),
            right: scan("c", 1),
            kind: JoinKind::Inner,
            on: Expr::lit(true),
            from_correlate: false,
        })
        .unwrap();
        let f = LogicalPlan::new(RelOp::Filter { input: j2, predicate: Expr::lit(true) }).unwrap();
        let j3 = LogicalPlan::new(RelOp::Join {
            left: f,
            right: scan("d", 1),
            kind: JoinKind::Inner,
            on: Expr::lit(true),
            from_correlate: false,
        })
        .unwrap();
        assert_eq!(j3.count_joins(), 3);
        // Chain broken by the filter: nesting restarts.
        assert_eq!(j3.max_join_nesting(), 2);
    }
}
