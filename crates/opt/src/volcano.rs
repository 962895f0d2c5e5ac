//! The VolcanoPlanner (§3.2.1): a memo of semantically-equivalent
//! expression groups, explored by transformation rules and lowered to the
//! cheapest physical plan under distribution/collation trait requirements.
//!
//! * Transformation rules: `JoinCommute` and `JoinAssociate` — standing in
//!   for Calcite's `JoinCommuteRule` and `JoinPushThroughJoinRule`, the two
//!   rules §4.3 identifies as the root cause of the baseline's planning
//!   failures. Every registration counts against an exploration budget;
//!   the baseline's single-phase configuration multiplies the count by a
//!   cartesian factor modelling the physical alternatives Calcite
//!   regenerates for every logical alternative.
//! * Implementation: each logical operator lowers to its physical
//!   algorithms (nested-loop / hash / merge joins, hash / sort aggregates
//!   with Ignite's map-reduce split, scans over tables or sorted indexes).
//! * Enforcement: when a child's delivered distribution does not satisfy
//!   the required one (Table 1), an [`PhysOp::Exchange`] is inserted
//!   (§3.2.2); missing sort orders insert a [`PhysOp::Sort`], which — like
//!   Ignite — only runs on single-site or replicated data ("the sort
//!   operation cannot be distributed", §6.2.1).

use ic_common::{Expr, IcError, IcResult, Schema};
use ic_plan::cost::{compute_cost, CostContext};
use ic_plan::dist::{
    join_mappings, join_output_dist, join_sources_valid, satisfies, DistReq, Distribution,
};
use ic_plan::ops::{
    derive_logical_schema, derive_phys_schema, extract_equi_keys, AggPhase, JoinKind,
    LogicalPlan, PhysOp, PhysPlan, RelOp, SortKey,
};
use ic_plan::props::{agg_phase_props, derive_props, LogicalProps};
use ic_plan::PlannerFlags;
use ic_storage::{Catalog, TableDistribution};
use ic_common::hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// Index of a memo group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub usize);

type LExpr = RelOp<GroupId>;

/// A trait requirement: distribution plus collation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReqKey {
    pub dist: DistReq,
    pub collation: Vec<SortKey>,
}

impl ReqKey {
    pub fn any() -> ReqKey {
        ReqKey { dist: DistReq::Any, collation: vec![] }
    }
    pub fn single() -> ReqKey {
        ReqKey { dist: DistReq::Exact(Distribution::Single), collation: vec![] }
    }
    fn exact(d: Distribution) -> ReqKey {
        ReqKey { dist: DistReq::Exact(d), collation: vec![] }
    }
}

struct Group {
    exprs: Vec<LExpr>,
    expr_set: FxHashSet<LExpr>,
    schema: Schema,
    props: LogicalProps,
    best: FxHashMap<ReqKey, Option<Arc<PhysPlan>>>,
}

/// The cost-based planner engine.
pub struct VolcanoPlanner {
    catalog: Arc<Catalog>,
    ctx: CostContext,
    groups: Vec<Group>,
    expr_index: FxHashMap<LExpr, GroupId>,
    visiting: FxHashSet<(GroupId, ReqKey)>,
    /// Whether the join-reordering transformation rules are enabled
    /// (§4.3's conditional second physical phase disables them).
    reorder: bool,
    /// Budget multiplier: 1 for two-phase, >1 for the baseline's
    /// single-phase configuration where every logical alternative
    /// regenerates its physical alternatives.
    budget_factor: u64,
    /// Accumulated (weighted) rule firings.
    pub rule_firings: u64,
}

/// Is `required` a satisfied prefix of `delivered`?
fn collation_ok(delivered: &[SortKey], required: &[SortKey]) -> bool {
    required.len() <= delivered.len() && delivered[..required.len()] == *required
}

impl VolcanoPlanner {
    pub fn new(
        catalog: Arc<Catalog>,
        flags: PlannerFlags,
        reorder: bool,
        budget_factor: u64,
    ) -> VolcanoPlanner {
        // The cost model's fan-out: the partition count, which never changes
        // for the life of a cluster (only ownership moves) and, one
        // partition per site, is the boot site count.
        let sites = catalog.membership().snapshot().num_partitions();
        VolcanoPlanner {
            catalog,
            ctx: CostContext { flags, sites },
            groups: Vec::new(),
            expr_index: FxHashMap::default(),
            visiting: FxHashSet::default(),
            reorder,
            budget_factor,
            rule_firings: 0,
        }
    }

    /// Optimize a logical plan into the cheapest physical plan delivering
    /// all rows at the coordinator (the root fragment's requirement), then
    /// trim it to the columns the query reads ([`crate::trim`]).
    pub fn optimize(&mut self, plan: &Arc<LogicalPlan>) -> IcResult<Arc<PhysPlan>> {
        let root = self.insert_tree(plan)?;
        self.explore()?;
        let best = self
            .best(root, &ReqKey::single())
            .ok_or_else(|| IcError::Plan("no physical plan found for query".into()))?;
        Ok(self.trim_plan(&best))
    }

    // ---------------------------------------------------------------- memo

    fn insert_tree(&mut self, plan: &Arc<LogicalPlan>) -> IcResult<GroupId> {
        let children: Vec<GroupId> =
            plan.children().iter().map(|c| self.insert_tree(c)).collect::<IcResult<_>>()?;
        let expr: LExpr = match &plan.op {
            RelOp::Scan { table, name, schema } => {
                RelOp::Scan { table: *table, name: name.clone(), schema: schema.clone() }
            }
            RelOp::Values { schema, rows } => {
                RelOp::Values { schema: schema.clone(), rows: rows.clone() }
            }
            RelOp::Filter { predicate, .. } => {
                RelOp::Filter { input: children[0], predicate: predicate.clone() }
            }
            RelOp::Project { exprs, names, .. } => RelOp::Project {
                input: children[0],
                exprs: exprs.clone(),
                names: names.clone(),
            },
            RelOp::Join { kind, on, from_correlate, .. } => RelOp::Join {
                left: children[0],
                right: children[1],
                kind: *kind,
                on: on.clone(),
                from_correlate: *from_correlate,
            },
            RelOp::Aggregate { group, aggs, .. } => RelOp::Aggregate {
                input: children[0],
                group: group.clone(),
                aggs: aggs.clone(),
            },
            RelOp::Sort { keys, .. } => RelOp::Sort { input: children[0], keys: keys.clone() },
            RelOp::Limit { fetch, offset, .. } => {
                RelOp::Limit { input: children[0], fetch: *fetch, offset: *offset }
            }
        };
        Ok(self.intern(expr))
    }

    /// Get-or-create the group holding `expr`.
    fn intern(&mut self, expr: LExpr) -> GroupId {
        if let Some(&gid) = self.expr_index.get(&expr) {
            return gid;
        }
        let child_groups: Vec<GroupId> = expr_children(&expr);
        let child_schemas: Vec<Schema> =
            child_groups.iter().map(|g| self.groups[g.0].schema.clone()).collect();
        let schema_refs: Vec<&Schema> = child_schemas.iter().collect();
        #[expect(clippy::expect_used, reason = "memo expressions are bound plans or rule rewrites of them, whose schemas derived at bind time; a failure is a planner bug")]
        let schema = derive_logical_schema(&expr, &schema_refs)
            .expect("schema derivation for interned expression");
        let child_props: Vec<&LogicalProps> =
            child_groups.iter().map(|g| &self.groups[g.0].props).collect();
        let props = derive_props(
            &expr,
            &child_props,
            &self.catalog,
            self.ctx.flags.improved_join_estimation,
        );
        let gid = GroupId(self.groups.len());
        let mut expr_set = FxHashSet::default();
        expr_set.insert(expr.clone());
        self.groups.push(Group { exprs: vec![expr.clone()], expr_set, schema, props, best: FxHashMap::default() });
        self.expr_index.insert(expr, gid);
        gid
    }

    /// Register an additional (equivalent) expression in an existing group.
    fn add_to_group(&mut self, gid: GroupId, expr: LExpr) -> bool {
        if self.expr_index.contains_key(&expr) {
            return false; // already known (here or elsewhere); skip
        }
        if !self.groups[gid.0].expr_set.insert(expr.clone()) {
            return false;
        }
        self.groups[gid.0].exprs.push(expr.clone());
        self.expr_index.insert(expr, gid);
        true
    }

    // ---------------------------------------------------- transformation

    /// Explore the memo to a fixpoint with the reordering rules, counting
    /// (weighted) rule firings against the budget.
    fn explore(&mut self) -> IcResult<()> {
        if !self.reorder {
            return Ok(());
        }
        let mut processed: FxHashSet<(usize, usize)> = FxHashSet::default();
        loop {
            let mut any = false;
            let mut gid = 0;
            while gid < self.groups.len() {
                let mut ei = 0;
                while ei < self.groups[gid].exprs.len() {
                    if processed.insert((gid, ei)) {
                        let expr = self.groups[gid].exprs[ei].clone();
                        self.apply_join_commute(GroupId(gid), &expr)?;
                        self.apply_join_associate(GroupId(gid), &expr)?;
                        any = true;
                    }
                    ei += 1;
                }
                gid += 1;
            }
            if !any {
                return Ok(());
            }
        }
    }

    fn charge(&mut self) -> IcResult<()> {
        self.rule_firings += self.budget_factor;
        if self.rule_firings > self.ctx.flags.planner_budget {
            return Err(IcError::PlannerBudgetExceeded {
                rules_fired: self.rule_firings,
                budget: self.ctx.flags.planner_budget,
            });
        }
        Ok(())
    }

    /// JoinCommute (Calcite's `JoinCommuteRule`): swap the inputs of an
    /// inner join, wrapping the result in a projection that restores the
    /// original column order.
    fn apply_join_commute(&mut self, gid: GroupId, expr: &LExpr) -> IcResult<()> {
        let RelOp::Join { left, right, kind: JoinKind::Inner, on, from_correlate } = expr else {
            return Ok(());
        };
        let l_ar = self.groups[left.0].schema.arity();
        let r_ar = self.groups[right.0].schema.arity();
        let new_on = on.map_cols(&|c| if c < l_ar { c + r_ar } else { c - l_ar });
        let swapped = RelOp::Join {
            left: *right,
            right: *left,
            kind: JoinKind::Inner,
            on: new_on,
            from_correlate: *from_correlate,
        };
        let aux = self.intern(swapped);
        let schema = self.groups[gid.0].schema.clone();
        let exprs: Vec<Expr> = (0..l_ar)
            .map(|i| Expr::col(r_ar + i))
            .chain((0..r_ar).map(Expr::col))
            .collect();
        let names: Vec<String> = schema.fields().iter().map(|f| f.name.clone()).collect();
        if self.add_to_group(gid, RelOp::Project { input: aux, exprs, names }) {
            self.charge()?;
        }
        Ok(())
    }

    /// JoinAssociate (standing in for `JoinPushThroughJoinRule`):
    /// `(X ⋈ Y) ⋈ B → X ⋈ (Y ⋈ B)`, redistributing the combined condition
    /// and refusing to create cross products.
    fn apply_join_associate(&mut self, gid: GroupId, expr: &LExpr) -> IcResult<()> {
        let RelOp::Join { left, right, kind: JoinKind::Inner, on, .. } = expr else {
            return Ok(());
        };
        let inner_joins: Vec<(GroupId, GroupId, Expr)> = self.groups[left.0]
            .exprs
            .iter()
            .filter_map(|e| match e {
                RelOp::Join { left: x, right: y, kind: JoinKind::Inner, on: on1, .. } => {
                    Some((*x, *y, on1.clone()))
                }
                _ => None,
            })
            .collect();
        for (x, y, on1) in inner_joins {
            let x_ar = self.groups[x.0].schema.arity();
            // Combined condition over (X, Y, B) — on1 already uses (X, Y)
            // positions, `on` already uses (X+Y, B) = (X, Y, B) positions.
            let mut conjs: Vec<Expr> = on1.split_conjunction().into_iter().cloned().collect();
            conjs.extend(on.split_conjunction().into_iter().cloned());
            let conjs: Vec<Expr> = conjs.into_iter().filter(|c| !c.is_true_literal()).collect();
            let (inner, top): (Vec<Expr>, Vec<Expr>) = conjs
                .into_iter()
                .partition(|c| c.columns().iter().all(|&col| col >= x_ar));
            if inner.is_empty() {
                continue; // would create a cross product
            }
            let inner_on = Expr::conjunction(
                inner.into_iter().map(|c| c.shift(x_ar, -(x_ar as isize))).collect(),
            );
            let new_inner = RelOp::Join {
                left: y,
                right: *right,
                kind: JoinKind::Inner,
                on: inner_on,
                from_correlate: false,
            };
            let ng = self.intern(new_inner);
            let new_top = RelOp::Join {
                left: x,
                right: ng,
                kind: JoinKind::Inner,
                on: Expr::conjunction(top),
                from_correlate: false,
            };
            if self.add_to_group(gid, new_top) {
                self.charge()?;
            }
        }
        Ok(())
    }

    // --------------------------------------------------------- best plans

    /// Cheapest physical plan of `gid` delivering `req` (memoized).
    pub fn best(&mut self, gid: GroupId, req: &ReqKey) -> Option<Arc<PhysPlan>> {
        if let Some(cached) = self.groups[gid.0].best.get(req) {
            return cached.clone();
        }
        if !self.visiting.insert((gid, req.clone())) {
            return None; // cyclic path through commute projections
        }
        let exprs = self.groups[gid.0].exprs.clone();
        let mut best: Option<Arc<PhysPlan>> = None;
        for expr in &exprs {
            for plan in self.implement(gid, expr, req) {
                if best.as_ref().is_none_or(|b| plan.total_cost < b.total_cost) {
                    best = Some(plan);
                }
            }
        }
        self.visiting.remove(&(gid, req.clone()));
        self.groups[gid.0].best.insert(req.clone(), best.clone());
        best
    }

    /// Build a costed physical node from an op whose children are final.
    pub(crate) fn node(
        &self,
        op: PhysOp<Arc<PhysPlan>>,
        dist: Distribution,
        collation: Vec<SortKey>,
        rows: f64,
    ) -> Arc<PhysPlan> {
        let child_schemas: Vec<Schema> = phys_children(&op).iter().map(|c| c.schema.clone()).collect();
        let schema_refs: Vec<&Schema> = child_schemas.iter().collect();
        #[expect(clippy::expect_used, reason = "physical operators implement memo expressions whose schemas derived; a failure is a planner bug")]
        let schema = derive_phys_schema(&op, &schema_refs).expect("physical schema derivation");
        let cost = compute_cost(&op, rows, &schema, &dist, &self.ctx);
        let children = phys_children(&op);
        let total_cost = cost.sum() + children.iter().map(|c| c.total_cost).sum::<f64>();
        let has_exchange = matches!(op, PhysOp::Exchange { .. })
            || children.iter().any(|c| c.has_exchange);
        Arc::new(PhysPlan { op, schema, dist, collation, rows, cost, total_cost, has_exchange })
    }

    /// Add enforcers so `plan` satisfies `req`, or reject the candidate.
    fn finish(&self, plan: Arc<PhysPlan>, req: &ReqKey) -> Option<Arc<PhysPlan>> {
        let mut p = plan;
        if !satisfies(&p.dist, &req.dist) {
            let DistReq::Exact(target) = &req.dist else { return None };
            let rows = p.rows;
            p = self.node(
                PhysOp::Exchange { input: p, to: target.clone() },
                target.clone(),
                vec![], // receivers interleave senders: order is lost
                rows,
            );
        }
        if !collation_ok(&p.collation, &req.collation) {
            // Sorts only run where all (relevant) rows are local.
            if !matches!(p.dist, Distribution::Single | Distribution::Broadcast) {
                return None;
            }
            let rows = p.rows;
            let dist = p.dist.clone();
            p = self.node(
                PhysOp::Sort { input: p, keys: req.collation.clone() },
                dist,
                req.collation.clone(),
                rows,
            );
        }
        Some(p)
    }

    /// All finished candidates implementing `expr` under `req`.
    fn implement(&mut self, gid: GroupId, expr: &LExpr, req: &ReqKey) -> Vec<Arc<PhysPlan>> {
        let rows = self.groups[gid.0].props.rows;
        let mut out: Vec<Arc<PhysPlan>> = Vec::new();
        match expr {
            RelOp::Scan { table, name, schema } => {
                let Some(def) = self.catalog.table_def(*table) else { return out };
                let native = match &def.distribution {
                    TableDistribution::HashPartitioned { key_cols } => {
                        Distribution::Hash(key_cols.clone())
                    }
                    TableDistribution::Replicated => Distribution::Broadcast,
                };
                let scan = self.node(
                    PhysOp::TableScan { table: *table, name: name.clone(), schema: schema.clone() },
                    native.clone(),
                    vec![],
                    rows,
                );
                out.extend(self.finish(scan, req));
                for ix in self.catalog.indexes_of(*table) {
                    let sort: Vec<SortKey> = ix.columns.iter().map(|&c| SortKey::asc(c)).collect();
                    let plan = self.node(
                        PhysOp::IndexScan {
                            table: *table,
                            index: ix.id,
                            name: format!("{}.{}", name, ix.name),
                            schema: schema.clone(),
                            sort: sort.clone(),
                        },
                        native.clone(),
                        sort,
                        rows,
                    );
                    out.extend(self.finish(plan, req));
                }
            }
            RelOp::Values { schema, rows: data } => {
                let plan = self.node(
                    PhysOp::Values { schema: schema.clone(), rows: data.clone() },
                    Distribution::Single,
                    vec![],
                    rows,
                );
                out.extend(self.finish(plan, req));
            }
            RelOp::Filter { input, predicate } => {
                for creq in pass_through_reqs(req) {
                    let Some(child) = self.best(*input, &creq) else { continue };
                    let dist = child.dist.clone();
                    let coll = child.collation.clone();
                    let plan = self.node(
                        PhysOp::Filter { input: child, predicate: predicate.clone() },
                        dist,
                        coll,
                        rows,
                    );
                    out.extend(self.finish(plan, req));
                }
            }
            RelOp::Project { input, exprs, names } => {
                // Map an output column back to its input column, if simple.
                let to_input = |o: usize| match &exprs[o] {
                    Expr::Col(c) => Some(*c),
                    _ => None,
                };
                let to_output = |c: usize| exprs.iter().position(|e| matches!(e, Expr::Col(x) if *x == c));
                let mut creqs = vec![ReqKey::any()];
                if let DistReq::Exact(Distribution::Hash(keys)) = &req.dist {
                    if let Some(mapped) = keys.iter().map(|&k| to_input(k)).collect::<Option<Vec<_>>>() {
                        creqs.push(ReqKey::exact(Distribution::Hash(mapped)));
                    }
                }
                if !req.collation.is_empty() {
                    if let Some(mapped) = req
                        .collation
                        .iter()
                        .map(|k| to_input(k.col).map(|c| SortKey { col: c, desc: k.desc }))
                        .collect::<Option<Vec<_>>>()
                    {
                        creqs.push(ReqKey { dist: DistReq::Exact(Distribution::Single), collation: mapped });
                    }
                }
                for creq in creqs {
                    let Some(child) = self.best(*input, &creq) else { continue };
                    let dist = child.dist.remap(&to_output);
                    let coll: Vec<SortKey> = child
                        .collation
                        .iter()
                        .map_while(|k| to_output(k.col).map(|c| SortKey { col: c, desc: k.desc }))
                        .collect();
                    let plan = self.node(
                        PhysOp::Project { input: child, exprs: exprs.clone(), names: names.clone() },
                        dist,
                        coll,
                        rows,
                    );
                    out.extend(self.finish(plan, req));
                }
            }
            RelOp::Join { left, right, kind, on, .. } => {
                out.extend(self.implement_join(gid, *left, *right, *kind, on, req));
            }
            RelOp::Aggregate { input, group, aggs } => {
                out.extend(self.implement_aggregate(gid, *input, group, aggs, req));
            }
            RelOp::Sort { input, keys } => {
                // (a) the child can deliver the order itself;
                let sorted_req = ReqKey {
                    dist: DistReq::Exact(Distribution::Single),
                    collation: keys.clone(),
                };
                if let Some(child) = self.best(*input, &sorted_req) {
                    out.extend(self.finish(child, req));
                }
                // (b) collect to one site and sort.
                if let Some(child) = self.best(*input, &ReqKey::single()) {
                    let plan = self.node(
                        PhysOp::Sort { input: child, keys: keys.clone() },
                        Distribution::Single,
                        keys.clone(),
                        rows,
                    );
                    out.extend(self.finish(plan, req));
                }
            }
            RelOp::Limit { input, fetch, offset } => {
                let creq = ReqKey {
                    dist: DistReq::Exact(Distribution::Single),
                    collation: req.collation.clone(),
                };
                for creq in [creq, ReqKey::single()] {
                    let Some(child) = self.best(*input, &creq) else { continue };
                    let coll = child.collation.clone();
                    let plan = self.node(
                        PhysOp::Limit { input: child, fetch: *fetch, offset: *offset },
                        Distribution::Single,
                        coll,
                        rows,
                    );
                    out.extend(self.finish(plan, req));
                }
            }
        }
        out
    }

    fn implement_join(
        &mut self,
        gid: GroupId,
        left: GroupId,
        right: GroupId,
        kind: JoinKind,
        on: &Expr,
        req: &ReqKey,
    ) -> Vec<Arc<PhysPlan>> {
        let rows = self.groups[gid.0].props.rows;
        let l_ar = self.groups[left.0].schema.arity();
        let (lk, rk, residual) = extract_equi_keys(on, l_ar);
        let mut out = Vec::new();
        let mappings =
            join_mappings(kind, &lk, &rk, self.ctx.flags.broadcast_join_mapping);
        for mapping in &mappings {
            let lreq = ReqKey { dist: mapping.left.clone(), collation: vec![] };
            let rreq = ReqKey { dist: mapping.right.clone(), collation: vec![] };
            let Some(lp) = self.best(left, &lreq) else { continue };
            let Some(rp) = self.best(right, &rreq) else { continue };
            // Placement satisfaction is not join validity: a broadcast
            // left satisfies the hash mapping's requirement, but outer/
            // semi/anti semantics break against a partitioned right.
            if !join_sources_valid(kind, &lp.dist, &rp.dist) {
                continue;
            }
            let out_dist = join_output_dist(kind, &lp.dist, &rp.dist, l_ar);

            // Nested-loop join: handles any condition.
            let coll = if kind.emits_right() || kind == JoinKind::Semi || kind == JoinKind::Anti {
                lp.collation.clone()
            } else {
                vec![]
            };
            let nlj = self.node(
                PhysOp::NestedLoopJoin { left: lp.clone(), right: rp.clone(), kind, on: on.clone() },
                out_dist.clone(),
                coll.clone(),
                rows,
            );
            out.extend(self.finish(nlj, req));

            if lk.is_empty() {
                continue;
            }
            // Hash join (§5.1.2): build right, probe left; probe order is
            // preserved.
            if self.ctx.flags.hash_join {
                let hj = self.node(
                    PhysOp::HashJoin {
                        left: lp.clone(),
                        right: rp.clone(),
                        kind,
                        left_keys: lk.clone(),
                        right_keys: rk.clone(),
                        residual: residual.clone(),
                    },
                    out_dist.clone(),
                    coll.clone(),
                    rows,
                );
                out.extend(self.finish(hj, req));
            }
            // Merge join: children must deliver the key order.
            let lcoll: Vec<SortKey> = lk.iter().map(|&c| SortKey::asc(c)).collect();
            let rcoll: Vec<SortKey> = rk.iter().map(|&c| SortKey::asc(c)).collect();
            let lreq_sorted = ReqKey { dist: mapping.left.clone(), collation: lcoll.clone() };
            let rreq_sorted = ReqKey { dist: mapping.right.clone(), collation: rcoll };
            if let (Some(lps), Some(rps)) =
                (self.best(left, &lreq_sorted), self.best(right, &rreq_sorted))
            {
                if !join_sources_valid(kind, &lps.dist, &rps.dist) {
                    continue;
                }
                let out_dist_s = join_output_dist(kind, &lps.dist, &rps.dist, l_ar);
                let mj = self.node(
                    PhysOp::MergeJoin {
                        left: lps,
                        right: rps,
                        kind,
                        left_keys: lk.clone(),
                        right_keys: rk.clone(),
                        residual: residual.clone(),
                    },
                    out_dist_s,
                    lcoll,
                    rows,
                );
                out.extend(self.finish(mj, req));
            }
        }
        out
    }

    fn implement_aggregate(
        &mut self,
        gid: GroupId,
        input: GroupId,
        group: &[usize],
        aggs: &[ic_plan::AggCall],
        req: &ReqKey,
    ) -> Vec<Arc<PhysPlan>> {
        let rows = self.groups[gid.0].props.rows;
        let in_props = self.groups[input.0].props.clone();
        let mut out = Vec::new();
        let group_v = group.to_vec();
        let to_output = |c: usize| group.iter().position(|&g| g == c);

        // Complete aggregates: at a single site, or co-located on a hash
        // distribution over the grouping keys.
        let mut complete_reqs = vec![ReqKey::single()];
        if !group.is_empty() {
            complete_reqs.push(ReqKey::exact(Distribution::Hash(group_v.clone())));
        }
        for creq in complete_reqs {
            // Hash aggregate.
            if let Some(child) = self.best(input, &creq) {
                let dist = child.dist.remap(&to_output);
                let plan = self.node(
                    PhysOp::HashAggregate {
                        input: child,
                        group: group_v.clone(),
                        aggs: aggs.to_vec(),
                        phase: AggPhase::Complete,
                    },
                    dist,
                    vec![],
                    rows,
                );
                out.extend(self.finish(plan, req));
            }
            // Sort-based aggregate over input sorted on the group keys
            // (the Q14 improvement: an index collation makes this free).
            if !group.is_empty() {
                let sort_req = ReqKey {
                    dist: creq.dist.clone(),
                    collation: group.iter().map(|&c| SortKey::asc(c)).collect(),
                };
                if let Some(child) = self.best(input, &sort_req) {
                    let dist = child.dist.remap(&to_output);
                    let coll: Vec<SortKey> =
                        (0..group.len()).map(SortKey::asc).collect();
                    let plan = self.node(
                        PhysOp::SortAggregate {
                            input: child,
                            group: group_v.clone(),
                            aggs: aggs.to_vec(),
                            phase: AggPhase::Complete,
                        },
                        dist,
                        coll,
                        rows,
                    );
                    out.extend(self.finish(plan, req));
                }
            }
        }

        // Two-phase map-reduce aggregate (§3.2's distributed aggregation):
        // partial anywhere, exchange, final. COUNT(DISTINCT) is a reduction
        // that cannot be split.
        if aggs.iter().all(|a| a.func.splittable()) {
            if let Some(child) = self.best(input, &ReqKey { dist: DistReq::AnyPartitioned, collation: vec![] }) {
                let partial_props = agg_phase_props(&in_props, group, aggs, AggPhase::Partial);
                let partial_dist = child.dist.remap(&to_output);
                let partial = self.node(
                    PhysOp::HashAggregate {
                        input: child,
                        group: group_v.clone(),
                        aggs: aggs.to_vec(),
                        phase: AggPhase::Partial,
                    },
                    partial_dist,
                    vec![],
                    partial_props.rows,
                );
                let final_group: Vec<usize> = (0..group.len()).collect();
                // Reduce at the coordinator.
                let ex = self.node(
                    PhysOp::Exchange { input: partial.clone(), to: Distribution::Single },
                    Distribution::Single,
                    vec![],
                    partial_props.rows,
                );
                let fin = self.node(
                    PhysOp::HashAggregate {
                        input: ex,
                        group: final_group.clone(),
                        aggs: aggs.to_vec(),
                        phase: AggPhase::Final,
                    },
                    Distribution::Single,
                    vec![],
                    rows,
                );
                out.extend(self.finish(fin, req));
                // Distributed reduce over a hash exchange on the keys.
                if !group.is_empty() {
                    let hash_dist = Distribution::Hash(final_group.clone());
                    let ex = self.node(
                        PhysOp::Exchange { input: partial, to: hash_dist.clone() },
                        hash_dist.clone(),
                        vec![],
                        partial_props.rows,
                    );
                    let fin = self.node(
                        PhysOp::HashAggregate {
                            input: ex,
                            group: final_group,
                            aggs: aggs.to_vec(),
                            phase: AggPhase::Final,
                        },
                        hash_dist,
                        vec![],
                        rows,
                    );
                    out.extend(self.finish(fin, req));
                }
            }
        }
        out
    }
}

/// Children of a memo expression.
fn expr_children(expr: &LExpr) -> Vec<GroupId> {
    match expr {
        RelOp::Scan { .. } | RelOp::Values { .. } => vec![],
        RelOp::Filter { input, .. }
        | RelOp::Project { input, .. }
        | RelOp::Aggregate { input, .. }
        | RelOp::Sort { input, .. }
        | RelOp::Limit { input, .. } => vec![*input],
        RelOp::Join { left, right, .. } => vec![*left, *right],
    }
}

/// Children of a built physical op.
fn phys_children(op: &PhysOp<Arc<PhysPlan>>) -> Vec<Arc<PhysPlan>> {
    match op {
        PhysOp::TableScan { .. } | PhysOp::IndexScan { .. } | PhysOp::Values { .. } => vec![],
        PhysOp::Filter { input, .. }
        | PhysOp::Project { input, .. }
        | PhysOp::HashAggregate { input, .. }
        | PhysOp::SortAggregate { input, .. }
        | PhysOp::Sort { input, .. }
        | PhysOp::Limit { input, .. }
        | PhysOp::Exchange { input, .. } => vec![input.clone()],
        PhysOp::NestedLoopJoin { left, right, .. }
        | PhysOp::HashJoin { left, right, .. }
        | PhysOp::MergeJoin { left, right, .. } => vec![left.clone(), right.clone()],
    }
}

/// Child requirements tried for pass-through operators (filter): inherit
/// the parent requirement, or optimize freely and enforce above.
fn pass_through_reqs(req: &ReqKey) -> Vec<ReqKey> {
    let mut v = vec![req.clone()];
    if !req.collation.is_empty() {
        v.push(ReqKey { dist: req.dist.clone(), collation: vec![] });
    }
    if req.dist != DistReq::Any {
        v.push(ReqKey { dist: DistReq::Any, collation: vec![] });
    }
    v.dedup();
    v
}
