//! Placement: one pre-order walk of a physical plan that writes down
//! everything an execution needs to know about it — its fragments
//! (Algorithm 1, §3.2.3), its exchanges, and a per-node table.
//!
//! Every [`PhysOp::Exchange`] splits the tree: the exchange's subtree becomes
//! a new fragment whose *sender* ships rows into the consuming fragment's
//! *receiver* (the exchange node itself marks the receiver position in the
//! consumer). The same walk carries Algorithm 3's splitter/duplicator mode
//! down each fragment ([`crate::variant`]), so a fragment's variant count and
//! its sources' modes come out of it too.
//!
//! The partition is the unit of placement: a fragment whose subtree delivers
//! a partitioned distribution runs one instance per partition, at the site
//! serving it, and that instance reads that partition and nothing else. A
//! site serving two partitions (a failed-over backup) runs two instances; a
//! site serving none (a newcomer) runs none. Every other fragment has one
//! instance, at the coordinator.
//!
//! A node is identified by its **pre-order position** — the index a traced
//! run reports it under. The optimizer's memo can share a subtree between
//! two parents (a self-join); visited at two positions it is two nodes, two
//! exchanges and two fragments, with no copy of the plan made.

use crate::variant::{assign_modes, SourceMode};
use ic_common::obs::OpMeta;
use ic_net::{Assignment, SiteId};
use ic_plan::ops::{PhysOp, PhysPlan};
use ic_plan::Distribution;
use std::fmt;
use std::sync::Arc;

/// A plan node at its pre-order position.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'p> {
    pub plan: &'p Arc<PhysPlan>,
    pub id: u32,
}

impl<'p> NodeRef<'p> {
    /// This node's first (or only) input: the next node in pre-order.
    pub fn first(self, input: &'p Arc<PhysPlan>) -> NodeRef<'p> {
        NodeRef { plan: input, id: self.id + 1 }
    }
}

/// Where one instance of a fragment runs: a site, and the one partition the
/// instance reads — `None` for a fragment at the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    pub site: SiteId,
    pub partition: Option<usize>,
}

/// `site2 p2` — how trace lanes and driver threads name an instance.
impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.partition {
            Some(p) => write!(f, "{} p{p}", self.site),
            None => write!(f, "{}", self.site),
        }
    }
}

/// One fragment: a subtree of the plan executable entirely at one site,
/// instantiated at `slots` × `variants`. Fragment 0 is the root fragment.
#[derive(Debug)]
pub struct Fragment<'p> {
    /// The subtree root. [`PhysOp::Exchange`] nodes *inside* this subtree
    /// are the receivers of this fragment (their own subtrees belong to
    /// other fragments).
    pub root: NodeRef<'p>,
    /// The fragment's instances, in partition order for a partitioned one.
    pub slots: Vec<Slot>,
    /// Variant fragments per instance (§5.3); 1 = not multithreaded.
    pub variants: usize,
    /// The exchange this fragment's rows ship into; `None` for the root
    /// fragment, whose rows go to the client.
    pub sink: Option<usize>,
    /// The exchanges whose receivers live in this fragment, in pre-order.
    pub inputs: Vec<usize>,
}

/// One exchange: the link between a producing fragment's sender and the
/// consuming fragment's receiver.
#[derive(Debug)]
pub struct Exchange {
    /// The Exchange plan node (where a traced run credits shipped messages).
    pub node: u32,
    pub producer: usize,
    pub consumer: usize,
    /// Target distribution of the shipped rows.
    pub to: Distribution,
    /// How the receiver behaves across the consumer's variants: a splitter
    /// gets each row at one variant, a duplicator at all of them.
    pub mode: SourceMode,
}

/// Per-node facts, indexed by pre-order position.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    /// Nodes in this node's subtree, itself included: the subtree is
    /// positions `id .. id + size`.
    pub size: u32,
    /// Algorithm 3's mode for this node within its fragment (read at the
    /// fragment's sources, and only when the fragment has variants).
    pub mode: SourceMode,
}

/// Everything placement decides about one plan.
#[derive(Debug)]
pub struct Placement<'p> {
    pub fragments: Vec<Fragment<'p>>,
    pub exchanges: Vec<Exchange>,
    pub nodes: Vec<Node>,
    /// The static per-node table `EXPLAIN ANALYZE` renders (labels, tree
    /// shape, optimizer estimates); empty unless placed for a traced run.
    pub metas: Vec<OpMeta>,
}

impl Placement<'_> {
    /// The second input of binary node `at`: past its first input's subtree.
    pub fn second<'n>(&self, at: NodeRef<'n>, input: &'n Arc<PhysPlan>) -> NodeRef<'n> {
        let first = at.id + 1;
        NodeRef { plan: input, id: first + self.nodes[first as usize].size }
    }
}

/// Where a fragment's instances run, derived from its subtree's delivered
/// distribution: a partitioned subtree once per partition, at the live site
/// serving it; a single/broadcast subtree once, at the coordinator (the
/// paper's "site that received the original request", failed over if site 0
/// is down).
fn fragment_slots(root: &PhysPlan, assignment: &Assignment) -> Vec<Slot> {
    match root.dist {
        Distribution::Hash(_) | Distribution::Random => (0..assignment.num_partitions())
            .map(|p| Slot { site: assignment.owner_of_partition(p), partition: Some(p) })
            .collect(),
        Distribution::Single | Distribution::Broadcast => coordinator(assignment),
    }
}

fn coordinator(assignment: &Assignment) -> Vec<Slot> {
    vec![Slot { site: assignment.coordinator(), partition: None }]
}

/// Place `plan`: split it into fragments at its exchanges (Algorithm 1) and
/// give each eligible non-root fragment `variants` variant fragments
/// (Algorithm 3). Fragments are placed against an [`Assignment`] — the
/// surviving-site view of the topology — so dead sites' partitions are
/// served by their backup owners; the root fragment runs at the coordinator.
pub fn place<'p>(
    plan: &'p Arc<PhysPlan>,
    assignment: &Assignment,
    variants: usize,
    traced: bool,
) -> Placement<'p> {
    let root = Fragment {
        root: NodeRef { plan, id: 0 },
        slots: coordinator(assignment),
        variants: 1,
        sink: None,
        inputs: Vec::new(),
    };
    let placement = Placement {
        fragments: vec![root],
        exchanges: Vec::new(),
        nodes: Vec::new(),
        metas: Vec::new(),
    };
    let mut walk = Walk { placement, assignment, variants: variants.max(1), traced };
    walk.visit(plan, None, 0, 0, SourceMode::Splitter);
    walk.placement
}

struct Walk<'p, 'a> {
    placement: Placement<'p>,
    assignment: &'a Assignment,
    variants: usize,
    traced: bool,
}

impl<'p> Walk<'p, '_> {
    /// Visit `node` as part of fragment `fi`, reached in `mode`.
    fn visit(
        &mut self,
        node: &'p Arc<PhysPlan>,
        parent: Option<u32>,
        depth: u32,
        fi: usize,
        mode: SourceMode,
    ) {
        let p = &mut self.placement;
        let id = p.nodes.len() as u32;
        p.nodes.push(Node { size: 0, mode });
        if self.traced {
            p.metas.push(OpMeta {
                label: node.label(),
                detail: format!("dist={}, width={}", node.dist, node.schema.arity()),
                parent,
                depth,
                est_rows: node.rows,
            });
        }
        if let PhysOp::Exchange { input, to } = &node.op {
            // A receiver of `fi`; below it starts the producing fragment.
            let (ex, producer) = (p.exchanges.len(), p.fragments.len());
            p.exchanges.push(Exchange { node: id, producer, consumer: fi, to: to.clone(), mode });
            p.fragments[fi].inputs.push(ex);
            p.fragments.push(Fragment {
                root: NodeRef { plan: input, id: id + 1 },
                slots: fragment_slots(input, self.assignment),
                variants: self.variants,
                sink: Some(ex),
                inputs: Vec::new(),
            });
            self.visit(input, Some(id), depth + 1, producer, SourceMode::Splitter);
        } else {
            let modes = assign_modes(&node.op, mode).unwrap_or_else(|| {
                // A reduction operator: the fragment is not multithreaded.
                p.fragments[fi].variants = 1;
                [mode; 2]
            });
            for (child, mode) in node.children().into_iter().zip(modes) {
                self.visit(child, Some(id), depth + 1, fi, mode);
            }
        }
        let p = &mut self.placement;
        p.nodes[id as usize].size = p.nodes.len() as u32 - id;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ic_common::{DataType, Field, Schema};
    use ic_net::Membership;
    use ic_plan::cost::Cost;
    use ic_plan::ops::SortKey;
    use ic_storage::TableId;

    pub(crate) fn node(op: PhysOp<Arc<PhysPlan>>, dist: Distribution) -> Arc<PhysPlan> {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        Arc::new(PhysPlan {
            op,
            schema,
            dist,
            collation: vec![],
            rows: 1.0,
            cost: Cost::ZERO,
            total_cost: 0.0,
            has_exchange: false,
        })
    }

    pub(crate) fn scan(dist: Distribution) -> Arc<PhysPlan> {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        node(
            PhysOp::TableScan { table: TableId(0), name: "t".into(), schema },
            dist,
        )
    }

    pub(crate) fn exchange(input: Arc<PhysPlan>, to: Distribution) -> Arc<PhysPlan> {
        node(PhysOp::Exchange { input, to: to.clone() }, to)
    }

    /// The all-sites-up assignment of a `sites`-site cluster.
    pub(crate) fn healthy(sites: usize) -> Assignment {
        Membership::new(sites, 0).assignment(&Default::default()).unwrap()
    }

    /// The paper's Figure 5: scan → exchange → join at a single site
    /// yields three fragments (two scan fragments, one root).
    #[test]
    fn figure5_three_fragments() {
        let exl = exchange(scan(Distribution::Hash(vec![0])), Distribution::Single);
        let exr = exchange(scan(Distribution::Hash(vec![0])), Distribution::Single);
        let join = node(
            PhysOp::NestedLoopJoin {
                left: exl,
                right: exr,
                kind: ic_plan::JoinKind::Inner,
                on: ic_common::Expr::lit(true),
            },
            Distribution::Single,
        );
        let assignment = healthy(4);
        let p = place(&join, &assignment, 1, false);
        assert_eq!(p.fragments.len(), 3);
        assert_eq!(p.exchanges.len(), 2);
        // Root fragment at the coordinator; scan fragments once per partition.
        assert!(p.fragments[0].sink.is_none());
        assert_eq!(p.fragments[0].slots, vec![Slot { site: SiteId(0), partition: None }]);
        for (fi, f) in p.fragments.iter().enumerate().skip(1) {
            assert_eq!(f.slots.len(), 4);
            let x = &p.exchanges[f.sink.unwrap()];
            assert_eq!((x.producer, x.consumer, &x.to), (fi, 0, &Distribution::Single));
        }
        // The root fragment has two receivers, at the join's two inputs.
        assert_eq!(p.fragments[0].inputs, vec![0, 1]);
        assert_eq!((p.exchanges[0].node, p.exchanges[1].node), (1, 3));
        assert_eq!(p.nodes.iter().map(|n| n.size).collect::<Vec<_>>(), vec![5, 2, 1, 2, 1]);
    }

    /// What the deep copy of every plan used to be for: one subtree under two
    /// parents is two nodes — two exchanges, two fragments.
    #[test]
    fn shared_subtree_is_placed_at_each_position() {
        let shared = exchange(scan(Distribution::Hash(vec![0])), Distribution::Single);
        let join = node(
            PhysOp::NestedLoopJoin {
                left: shared.clone(),
                right: shared,
                kind: ic_plan::JoinKind::Inner,
                on: ic_common::Expr::lit(true),
            },
            Distribution::Single,
        );
        let assignment = healthy(2);
        let p = place(&join, &assignment, 1, true);
        assert_eq!((p.fragments.len(), p.exchanges.len(), p.nodes.len()), (3, 2, 5));
        assert_eq!((p.fragments[1].root.id, p.fragments[2].root.id), (2, 4));
        assert!(Arc::ptr_eq(p.fragments[1].root.plan, p.fragments[2].root.plan));
        let parents: Vec<_> = p.metas.iter().map(|m| m.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0), Some(3)]);
    }

    #[test]
    fn no_exchange_single_fragment() {
        let s = scan(Distribution::Single);
        let assignment = healthy(2);
        let p = place(&s, &assignment, 1, false);
        assert_eq!(p.fragments.len(), 1);
        assert!(p.exchanges.is_empty());
        assert!(p.metas.is_empty());
    }

    #[test]
    fn chained_exchanges() {
        // scan -> exchange(hash) -> filter -> exchange(single) -> sort
        let ex1 = exchange(scan(Distribution::Hash(vec![0])), Distribution::Hash(vec![0]));
        let f = node(
            PhysOp::Filter { input: ex1, predicate: ic_common::Expr::lit(true) },
            Distribution::Hash(vec![0]),
        );
        let ex2 = exchange(f, Distribution::Single);
        let sort = node(PhysOp::Sort { input: ex2, keys: vec![SortKey::asc(0)] }, Distribution::Single);
        let assignment = healthy(2);
        let p = place(&sort, &assignment, 1, false);
        assert_eq!(p.fragments.len(), 3);
        // middle fragment (filter) runs per partition, between the two exchanges
        let middle = &p.fragments[1];
        assert!(matches!(&middle.root.plan.op, PhysOp::Filter { .. }));
        assert_eq!(middle.slots.len(), 2);
        assert_eq!((middle.sink, &middle.inputs), (Some(0), &vec![1]));
    }

    #[test]
    fn dead_site_excluded_from_fragment_placement() {
        let ex = exchange(scan(Distribution::Hash(vec![0])), Distribution::Single);
        let sort = node(PhysOp::Sort { input: ex, keys: vec![SortKey::asc(0)] }, Distribution::Single);
        let down = [SiteId(2)].into_iter().collect();
        let assignment = Membership::new(4, 1).assignment(&down).unwrap();
        let p = place(&sort, &assignment, 1, false);
        assert!(matches!(&p.fragments[1].root.plan.op, PhysOp::TableScan { .. }));
        let sites: Vec<_> = p.fragments[1].slots.iter().map(|s| s.site).collect();
        assert_eq!(sites, [0, 1, 3, 3].map(SiteId));
    }

    /// The partitioned instances of a scan fragment, as (partition, site).
    fn scan_instances(assignment: &Assignment) -> Vec<(Option<usize>, SiteId)> {
        let ex = exchange(scan(Distribution::Hash(vec![0])), Distribution::Single);
        let root = node(PhysOp::Sort { input: ex, keys: vec![SortKey::asc(0)] }, Distribution::Single);
        let p = place(&root, assignment, 1, false);
        assert_eq!(p.fragments[0].slots, vec![Slot { site: assignment.coordinator(), partition: None }]);
        p.fragments[1].slots.iter().map(|s| (s.partition, s.site)).collect()
    }

    /// One instance per partition, at the site serving it: `(p, site p)`
    /// when healthy; a failed-over backup runs the dead primary's instance
    /// next to its own; a site that serves nothing runs none.
    #[test]
    fn partitioned_instances_follow_partition_owners() {
        let at = |pairs: &[(usize, usize)]| -> Vec<(Option<usize>, SiteId)> {
            pairs.iter().map(|&(p, s)| (Some(p), SiteId(s))).collect()
        };
        assert_eq!(scan_instances(&healthy(4)), at(&[(0, 0), (1, 1), (2, 2), (3, 3)]));
        let m = Membership::new(4, 1);
        let down = [SiteId(2)].into_iter().collect();
        assert_eq!(scan_instances(&m.assignment(&down).unwrap()), at(&[(0, 0), (1, 1), (2, 3), (3, 3)]));
        // A newcomer holding a backup copy and serving no partition.
        m.add_member(SiteId(4));
        m.set_owners(0, vec![SiteId(0), SiteId(1), SiteId(4)]);
        let joined = m.assignment(&Default::default()).unwrap();
        assert_eq!(joined.live_sites().len(), 5);
        assert_eq!(scan_instances(&joined), at(&[(0, 0), (1, 1), (2, 2), (3, 3)]));
        // A single subtree below an exchange: one instance, at the coordinator.
        let single = exchange(scan(Distribution::Single), Distribution::Single);
        let p = place(&single, &joined, 1, false);
        assert_eq!(p.fragments[1].slots, vec![Slot { site: SiteId(0), partition: None }]);
    }
}
