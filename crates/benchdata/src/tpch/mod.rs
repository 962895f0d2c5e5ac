//! TPC-H: schema DDL, deterministic data generator, and the 22 queries.

pub mod queries;

use crate::text::*;
use crate::TableData;
use ic_common::{dates, Datum, Row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use queries::{query, query_randomized, EXCLUDED_BASELINE_FAILING, EXCLUDED_UNSUPPORTED};

/// CREATE TABLE statements. Large tables are hash-partitioned on keys that
/// co-locate lineitem with orders and partsupp with part (the paper's
/// partitioned cache mode, zero backups); nation/region are replicated.
pub const DDL: &[&str] = &[
    "CREATE TABLE region (r_regionkey BIGINT, r_name VARCHAR, r_comment VARCHAR, PRIMARY KEY (r_regionkey)) REPLICATED",
    "CREATE TABLE nation (n_nationkey BIGINT, n_name VARCHAR, n_regionkey BIGINT, n_comment VARCHAR, PRIMARY KEY (n_nationkey)) REPLICATED",
    "CREATE TABLE supplier (s_suppkey BIGINT, s_name VARCHAR, s_address VARCHAR, s_nationkey BIGINT, s_phone VARCHAR, s_acctbal DECIMAL, s_comment VARCHAR, PRIMARY KEY (s_suppkey))",
    "CREATE TABLE customer (c_custkey BIGINT, c_name VARCHAR, c_address VARCHAR, c_nationkey BIGINT, c_phone VARCHAR, c_acctbal DECIMAL, c_mktsegment VARCHAR, c_comment VARCHAR, PRIMARY KEY (c_custkey))",
    "CREATE TABLE part (p_partkey BIGINT, p_name VARCHAR, p_mfgr VARCHAR, p_brand VARCHAR, p_type VARCHAR, p_size BIGINT, p_container VARCHAR, p_retailprice DECIMAL, p_comment VARCHAR, PRIMARY KEY (p_partkey))",
    "CREATE TABLE partsupp (ps_partkey BIGINT, ps_suppkey BIGINT, ps_availqty BIGINT, ps_supplycost DECIMAL, ps_comment VARCHAR, PRIMARY KEY (ps_partkey, ps_suppkey)) PARTITION BY HASH (ps_partkey)",
    "CREATE TABLE orders (o_orderkey BIGINT, o_custkey BIGINT, o_orderstatus VARCHAR, o_totalprice DECIMAL, o_orderdate DATE, o_orderpriority VARCHAR, o_clerk VARCHAR, o_shippriority BIGINT, o_comment VARCHAR, PRIMARY KEY (o_orderkey))",
    "CREATE TABLE lineitem (l_orderkey BIGINT, l_partkey BIGINT, l_suppkey BIGINT, l_linenumber BIGINT, l_quantity DECIMAL, l_extendedprice DECIMAL, l_discount DECIMAL, l_tax DECIMAL, l_returnflag VARCHAR, l_linestatus VARCHAR, l_shipdate DATE, l_commitdate DATE, l_receiptdate DATE, l_shipinstruct VARCHAR, l_shipmode VARCHAR, l_comment VARCHAR, PRIMARY KEY (l_orderkey, l_linenumber)) PARTITION BY HASH (l_orderkey)",
];

/// The 16 secondary indexes of the paper's §6 DDL: one per primary key
/// plus foreign-key/date columns.
pub const INDEX_DDL: &[&str] = &[
    "CREATE INDEX ix_r_pk ON region (r_regionkey)",
    "CREATE INDEX ix_n_pk ON nation (n_nationkey)",
    "CREATE INDEX ix_s_pk ON supplier (s_suppkey)",
    "CREATE INDEX ix_c_pk ON customer (c_custkey)",
    "CREATE INDEX ix_p_pk ON part (p_partkey)",
    "CREATE INDEX ix_ps_pk ON partsupp (ps_partkey, ps_suppkey)",
    "CREATE INDEX ix_o_pk ON orders (o_orderkey)",
    "CREATE INDEX ix_l_pk ON lineitem (l_orderkey, l_linenumber)",
    "CREATE INDEX ix_l_partkey ON lineitem (l_partkey)",
    "CREATE INDEX ix_l_suppkey ON lineitem (l_suppkey)",
    "CREATE INDEX ix_l_shipdate ON lineitem (l_shipdate)",
    "CREATE INDEX ix_o_custkey ON orders (o_custkey)",
    "CREATE INDEX ix_o_orderdate ON orders (o_orderdate)",
    "CREATE INDEX ix_ps_suppkey ON partsupp (ps_suppkey)",
    "CREATE INDEX ix_c_nationkey ON customer (c_nationkey)",
    "CREATE INDEX ix_s_nationkey ON supplier (s_nationkey)",
];

/// Cardinalities at a given scale factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    pub suppliers: i64,
    pub customers: i64,
    pub parts: i64,
    pub orders: i64,
}

impl Sizes {
    pub fn at(sf: f64) -> Sizes {
        let scaled = |base: f64, min: i64| ((base * sf) as i64).max(min);
        Sizes {
            suppliers: scaled(10_000.0, 20),
            customers: scaled(150_000.0, 100),
            parts: scaled(200_000.0, 100),
            orders: scaled(1_500_000.0, 500),
        }
    }
}

/// The j-th (0..4) supplier of a part — lineitem suppliers are drawn from
/// these pairs so that partsupp⋈lineitem joins (Q9) produce rows.
fn part_supplier(partkey: i64, j: i64, suppliers: i64) -> i64 {
    (partkey + j * (suppliers / 4 + 1)) % suppliers + 1
}

const DATE_LO: (i32, u32, u32) = (1992, 1, 1);
const DATE_HI: (i32, u32, u32) = (1998, 8, 2);

/// Generate all eight TPC-H tables at `sf`, deterministically from `seed`.
pub fn generate(sf: f64, seed: u64) -> Vec<TableData> {
    let sizes = Sizes::at(sf);
    let mut rng = StdRng::seed_from_u64(seed);
    let lo = dates::to_epoch_days(DATE_LO.0, DATE_LO.1, DATE_LO.2);
    let hi = dates::to_epoch_days(DATE_HI.0, DATE_HI.1, DATE_HI.2);

    // region / nation
    let region: Vec<Row> = REGIONS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            Row(vec![
                Datum::Int(i as i64),
                d_str(*name),
                d_str(comment(&mut rng, 6, &[])),
            ])
        })
        .collect();
    let nation: Vec<Row> = NATIONS
        .iter()
        .enumerate()
        .map(|(i, (name, r))| {
            Row(vec![
                Datum::Int(i as i64),
                d_str(*name),
                Datum::Int(*r as i64),
                d_str(comment(&mut rng, 6, &[])),
            ])
        })
        .collect();

    // supplier
    let supplier: Vec<Row> = (1..=sizes.suppliers)
        .map(|k| {
            let nk = rng.gen_range(0..25i64);
            Row(vec![
                Datum::Int(k),
                d_str(format!("Supplier#{k:09}")),
                d_str(format!("addr {k}")),
                Datum::Int(nk),
                d_str(phone(&mut rng, nk)),
                Datum::Double(money(&mut rng, -999.99, 9999.99)),
                d_str(comment(&mut rng, 8, &["Customer Complaints"])),
            ])
        })
        .collect();

    // customer
    let customer: Vec<Row> = (1..=sizes.customers)
        .map(|k| {
            let nk = rng.gen_range(0..25i64);
            Row(vec![
                Datum::Int(k),
                d_str(format!("Customer#{k:09}")),
                d_str(format!("addr {k}")),
                Datum::Int(nk),
                d_str(phone(&mut rng, nk)),
                Datum::Double(money(&mut rng, -999.99, 9999.99)),
                d_str(pick(&mut rng, SEGMENTS)),
                d_str(comment(&mut rng, 10, &["special requests"])),
            ])
        })
        .collect();

    // part
    let part: Vec<Row> = (1..=sizes.parts)
        .map(|k| {
            let c1 = pick(&mut rng, COLORS);
            let c2 = pick(&mut rng, COLORS);
            let mfgr = rng.gen_range(1..=5);
            let brand = format!("Brand#{}{}", mfgr, rng.gen_range(1..=5));
            let ptype = format!(
                "{} {} {}",
                pick(&mut rng, TYPE_S1),
                pick(&mut rng, TYPE_S2),
                pick(&mut rng, TYPE_S3)
            );
            let container =
                format!("{} {}", pick(&mut rng, CONTAINER_S1), pick(&mut rng, CONTAINER_S2));
            Row(vec![
                Datum::Int(k),
                d_str(format!("{c1} {c2}")),
                d_str(format!("Manufacturer#{mfgr}")),
                d_str(brand),
                d_str(ptype),
                Datum::Int(rng.gen_range(1..=50)),
                d_str(container),
                Datum::Double(900.0 + (k % 1000) as f64 * 0.1),
                d_str(comment(&mut rng, 5, &[])),
            ])
        })
        .collect();

    // partsupp: 4 suppliers per part
    let mut partsupp = Vec::with_capacity((sizes.parts * 4) as usize);
    for p in 1..=sizes.parts {
        for j in 0..4 {
            partsupp.push(Row(vec![
                Datum::Int(p),
                Datum::Int(part_supplier(p, j, sizes.suppliers)),
                Datum::Int(rng.gen_range(1..10_000)),
                Datum::Double(money(&mut rng, 1.0, 1000.0)),
                d_str(comment(&mut rng, 6, &[])),
            ]));
        }
    }

    // orders + lineitem
    let cutoff = dates::to_epoch_days(1995, 6, 17);
    let mut orders = Vec::with_capacity(sizes.orders as usize);
    let mut lineitem = Vec::with_capacity((sizes.orders * 4) as usize);
    for o in 1..=sizes.orders {
        let custkey = rng.gen_range(1..=sizes.customers);
        let orderdate = rng.gen_range(lo..hi - 151);
        let lines = rng.gen_range(1..=7i64);
        let mut total = 0.0;
        let mut any_open = false;
        let mut all_open = true;
        for ln in 1..=lines {
            let partkey = rng.gen_range(1..=sizes.parts);
            let suppkey = part_supplier(partkey, rng.gen_range(0..4), sizes.suppliers);
            let qty = rng.gen_range(1..=50i64);
            let price = 900.0 + (partkey % 1000) as f64 * 0.1;
            let extended = (qty as f64 * price * 100.0).round() / 100.0;
            let discount = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let shipdate = orderdate + rng.gen_range(1..=121);
            let commitdate = orderdate + rng.gen_range(30..=90);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            let linestatus = if shipdate > cutoff { "O" } else { "F" };
            let returnflag = if receiptdate <= cutoff {
                if rng.gen_bool(0.5) {
                    "R"
                } else {
                    "A"
                }
            } else {
                "N"
            };
            any_open |= linestatus == "O";
            all_open &= linestatus == "O";
            total += extended;
            lineitem.push(Row(vec![
                Datum::Int(o),
                Datum::Int(partkey),
                Datum::Int(suppkey),
                Datum::Int(ln),
                Datum::Double(qty as f64),
                Datum::Double(extended),
                Datum::Double(discount),
                Datum::Double(tax),
                d_str(returnflag),
                d_str(linestatus),
                Datum::Date(shipdate),
                Datum::Date(commitdate),
                Datum::Date(receiptdate),
                d_str(pick(&mut rng, SHIP_INSTRUCT)),
                d_str(pick(&mut rng, SHIP_MODES)),
                d_str(comment(&mut rng, 4, &[])),
            ]));
        }
        let status = if all_open {
            "O"
        } else if any_open {
            "P"
        } else {
            "F"
        };
        orders.push(Row(vec![
            Datum::Int(o),
            Datum::Int(custkey),
            d_str(status),
            Datum::Double((total * 100.0).round() / 100.0),
            Datum::Date(orderdate),
            d_str(pick(&mut rng, PRIORITIES)),
            d_str(format!("Clerk#{:09}", rng.gen_range(1..1000))),
            Datum::Int(0),
            d_str(comment(&mut rng, 8, &["special requests"])),
        ]));
    }

    vec![
        TableData { name: "region", rows: region },
        TableData { name: "nation", rows: nation },
        TableData { name: "supplier", rows: supplier },
        TableData { name: "customer", rows: customer },
        TableData { name: "part", rows: part },
        TableData { name: "partsupp", rows: partsupp },
        TableData { name: "orders", rows: orders },
        TableData { name: "lineitem", rows: lineitem },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale() {
        let s = Sizes::at(0.01);
        assert_eq!(s.suppliers, 100);
        assert_eq!(s.orders, 15_000);
        // Floors keep tiny scale factors usable.
        let tiny = Sizes::at(0.00001);
        assert!(tiny.customers >= 100);
    }

    #[test]
    fn generate_is_deterministic_and_consistent() {
        let a = generate(0.001, 42);
        let b = generate(0.001, 42);
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.rows.len(), tb.rows.len(), "{}", ta.name);
            assert_eq!(ta.rows.first(), tb.rows.first());
        }
        let sizes = Sizes::at(0.001);
        let by_name = |n: &str| a.iter().find(|t| t.name == n).unwrap();
        assert_eq!(by_name("region").rows.len(), 5);
        assert_eq!(by_name("nation").rows.len(), 25);
        assert_eq!(by_name("partsupp").rows.len(), (sizes.parts * 4) as usize);
        assert_eq!(by_name("orders").rows.len(), sizes.orders as usize);
        let li = by_name("lineitem").rows.len();
        assert!(li >= sizes.orders as usize && li <= (sizes.orders * 7) as usize);
        // Every lineitem row has 16 columns, every orders row 9.
        assert!(by_name("lineitem").rows.iter().all(|r| r.arity() == 16));
        assert!(by_name("orders").rows.iter().all(|r| r.arity() == 9));
    }

    #[test]
    fn lineitem_suppliers_exist_in_partsupp() {
        let data = generate(0.001, 7);
        let partsupp: ic_common::FxHashSet<(i64, i64)> = data
            .iter()
            .find(|t| t.name == "partsupp")
            .unwrap()
            .rows
            .iter()
            .map(|r| (r.0[0].as_int().unwrap(), r.0[1].as_int().unwrap()))
            .collect();
        for r in &data.iter().find(|t| t.name == "lineitem").unwrap().rows {
            let pair = (r.0[1].as_int().unwrap(), r.0[2].as_int().unwrap());
            assert!(partsupp.contains(&pair), "lineitem references missing partsupp {pair:?}");
        }
    }

    #[test]
    fn date_ordering_invariants() {
        let data = generate(0.001, 9);
        for r in &data.iter().find(|t| t.name == "lineitem").unwrap().rows {
            let (ship, _commit, receipt) = (&r.0[10], &r.0[11], &r.0[12]);
            assert!(receipt > ship, "receipt after ship");
        }
    }

    #[test]
    fn ddl_parses() {
        for stmt in DDL.iter().chain(INDEX_DDL) {
            ic_sql_parse_smoke(stmt);
        }
    }

    fn ic_sql_parse_smoke(_stmt: &str) {
        // Full parse validation happens in the integration tests (the
        // binder needs a catalog); here we only check basic shape.
        assert!(_stmt.starts_with("CREATE"));
    }
}
