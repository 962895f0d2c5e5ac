//! The 22 TPC-H queries in this system's SQL dialect.
//!
//! Differences from the official text (all semantics-preserving):
//! * Q13's derived-table column alias list is written with `AS` aliases.
//! * Q17's `(select 0.2 * avg(..))` is written `0.2 * (select avg(..))`.
//! * Q15 is the official `CREATE VIEW` text and therefore fails with
//!   `Unsupported` — exactly the failure mode the paper reports.
//! * Q19 uses this generator's ship-mode domain (`'AIR', 'REG AIR'`).
//!
//! [`query`] returns the validation-parameter text; [`query_randomized`]
//! substitutes randomized parameters from the correct domains, as the
//! paper's Benchbase terminals do for the AQL experiments (§6.3).

use crate::text::{NATIONS, REGIONS, SEGMENTS, TYPE_S2, TYPE_S3};
use rand::rngs::StdRng;
use rand::Rng;

/// Queries the paper excludes on every system: Q15 (VIEWs, unsupported
/// here too) and Q20 (a planner bug of the paper's stack; it runs here, and
/// the sweeps leave it out to follow the paper's protocol).
pub const EXCLUDED_UNSUPPORTED: &[usize] = &[15, 20];

/// Queries that fail on the baseline IC system (planning failures Q2/Q5/Q9,
/// four-hour timeouts Q17/Q19/Q21) — §6.2.1/§6.3.
pub const EXCLUDED_BASELINE_FAILING: &[usize] = &[2, 5, 9, 17, 19, 21];

/// The query text with TPC-H validation parameters.
pub fn query(n: usize) -> String {
    build(n, &Params::default_for(n))
}

/// The query text with randomized substitution parameters.
pub fn query_randomized(n: usize, rng: &mut StdRng) -> String {
    build(n, &Params::random_for(n, rng))
}

/// Substitution parameters (only the fields a query uses matter).
struct Params {
    date: String,
    date2: String,
    n1: String,
    n2: String,
    region: String,
    segment: String,
    brand: String,
    brand2: String,
    brand3: String,
    size: i64,
    qty: i64,
    type_suffix: String,
    type_prefix: String,
    discount: f64,
    delta_days: i64,
    fraction: f64,
}

impl Params {
    fn default_for(_n: usize) -> Params {
        Params {
            date: "1994-01-01".into(),
            date2: "1995-03-15".into(),
            n1: "FRANCE".into(),
            n2: "GERMANY".into(),
            region: "ASIA".into(),
            segment: "BUILDING".into(),
            brand: "Brand#12".into(),
            brand2: "Brand#23".into(),
            brand3: "Brand#34".into(),
            size: 15,
            qty: 24,
            type_suffix: "BRASS".into(),
            type_prefix: "PROMO".into(),
            discount: 0.06,
            delta_days: 90,
            fraction: 0.0001,
        }
    }

    fn random_for(n: usize, rng: &mut StdRng) -> Params {
        let mut p = Params::default_for(n);
        let year = rng.gen_range(1993..=1997);
        let month = rng.gen_range(1..=10);
        p.date = format!("{year}-{month:02}-01");
        p.date2 = format!("{}-{:02}-15", rng.gen_range(1993..=1996), rng.gen_range(1..=12));
        let i = rng.gen_range(0..NATIONS.len());
        let mut j = rng.gen_range(0..NATIONS.len());
        if j == i {
            j = (j + 1) % NATIONS.len();
        }
        p.n1 = NATIONS[i].0.into();
        p.n2 = NATIONS[j].0.into();
        p.region = REGIONS[rng.gen_range(0..REGIONS.len())].into();
        p.segment = SEGMENTS[rng.gen_range(0..SEGMENTS.len())].into();
        p.brand = format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
        p.brand2 = format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
        p.brand3 = format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
        p.size = rng.gen_range(1..=50);
        p.qty = rng.gen_range(10..=30);
        p.type_suffix = TYPE_S3[rng.gen_range(0..TYPE_S3.len())].into();
        p.type_prefix = TYPE_S2[rng.gen_range(0..TYPE_S2.len())].into();
        p.discount = rng.gen_range(2..=9) as f64 / 100.0;
        p.delta_days = rng.gen_range(60..=120);
        p
    }
}

#[expect(clippy::useless_format, reason = "every query text goes through format! alike, whether or not it takes parameters")]
fn build(n: usize, p: &Params) -> String {
    match n {
        1 => format!(
            "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, \
             sum(l_extendedprice) as sum_base_price, \
             sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
             sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
             avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, \
             avg(l_discount) as avg_disc, count(*) as count_order \
             from lineitem \
             where l_shipdate <= date '1998-12-01' - interval '{}' day \
             group by l_returnflag, l_linestatus \
             order by l_returnflag, l_linestatus",
            p.delta_days
        ),
        2 => format!(
            "select s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment \
             from part, supplier, partsupp, nation, region \
             where p_partkey = ps_partkey and s_suppkey = ps_suppkey and p_size = {} \
             and p_type like '%{}' and s_nationkey = n_nationkey \
             and n_regionkey = r_regionkey and r_name = '{}' \
             and ps_supplycost = (select min(ps_supplycost) \
                 from partsupp, supplier, nation, region \
                 where p_partkey = ps_partkey and s_suppkey = ps_suppkey \
                 and s_nationkey = n_nationkey and n_regionkey = r_regionkey \
                 and r_name = '{}') \
             order by s_acctbal desc, n_name, s_name, p_partkey limit 100",
            p.size, p.type_suffix, p.region, p.region
        ),
        3 => format!(
            "select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue, \
             o_orderdate, o_shippriority \
             from customer, orders, lineitem \
             where c_mktsegment = '{}' and c_custkey = o_custkey and l_orderkey = o_orderkey \
             and o_orderdate < date '{}' and l_shipdate > date '{}' \
             group by l_orderkey, o_orderdate, o_shippriority \
             order by revenue desc, o_orderdate limit 10",
            p.segment, p.date2, p.date2
        ),
        4 => format!(
            "select o_orderpriority, count(*) as order_count from orders \
             where o_orderdate >= date '{}' \
             and o_orderdate < date '{}' + interval '3' month \
             and exists (select * from lineitem \
                 where l_orderkey = o_orderkey and l_commitdate < l_receiptdate) \
             group by o_orderpriority order by o_orderpriority",
            p.date, p.date
        ),
        5 => format!(
            "select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue \
             from customer, orders, lineitem, supplier, nation, region \
             where c_custkey = o_custkey and l_orderkey = o_orderkey \
             and l_suppkey = s_suppkey and c_nationkey = s_nationkey \
             and s_nationkey = n_nationkey and n_regionkey = r_regionkey \
             and r_name = '{}' and o_orderdate >= date '{}' \
             and o_orderdate < date '{}' + interval '1' year \
             group by n_name order by revenue desc",
            p.region, p.date, p.date
        ),
        6 => format!(
            "select sum(l_extendedprice * l_discount) as revenue from lineitem \
             where l_shipdate >= date '{}' and l_shipdate < date '{}' + interval '1' year \
             and l_discount between {} - 0.01 and {} + 0.01 and l_quantity < {}",
            p.date, p.date, p.discount, p.discount, p.qty
        ),
        7 => format!(
            "select supp_nation, cust_nation, l_year, sum(volume) as revenue \
             from (select n1.n_name as supp_nation, n2.n_name as cust_nation, \
                 extract(year from l_shipdate) as l_year, \
                 l_extendedprice * (1 - l_discount) as volume \
                 from supplier, lineitem, orders, customer, nation n1, nation n2 \
                 where s_suppkey = l_suppkey and o_orderkey = l_orderkey \
                 and c_custkey = o_custkey and s_nationkey = n1.n_nationkey \
                 and c_nationkey = n2.n_nationkey \
                 and ((n1.n_name = '{}' and n2.n_name = '{}') \
                   or (n1.n_name = '{}' and n2.n_name = '{}')) \
                 and l_shipdate between date '1995-01-01' and date '1996-12-31') as shipping \
             group by supp_nation, cust_nation, l_year \
             order by supp_nation, cust_nation, l_year",
            p.n1, p.n2, p.n2, p.n1
        ),
        8 => format!(
            "select o_year, \
             sum(case when nation = '{}' then volume else 0 end) / sum(volume) as mkt_share \
             from (select extract(year from o_orderdate) as o_year, \
                 l_extendedprice * (1 - l_discount) as volume, n2.n_name as nation \
                 from part, supplier, lineitem, orders, customer, nation n1, nation n2, region \
                 where p_partkey = l_partkey and s_suppkey = l_suppkey \
                 and l_orderkey = o_orderkey and o_custkey = c_custkey \
                 and c_nationkey = n1.n_nationkey and n1.n_regionkey = r_regionkey \
                 and r_name = 'AMERICA' and s_nationkey = n2.n_nationkey \
                 and o_orderdate between date '1995-01-01' and date '1996-12-31' \
                 and p_type = 'ECONOMY ANODIZED STEEL') as all_nations \
             group by o_year order by o_year",
            if p.n1 == "FRANCE" { "BRAZIL" } else { p.n1.as_str() }
        ),
        9 => format!(
            "select nation, o_year, sum(amount) as sum_profit \
             from (select n_name as nation, extract(year from o_orderdate) as o_year, \
                 l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity as amount \
                 from part, supplier, lineitem, partsupp, orders, nation \
                 where s_suppkey = l_suppkey and ps_suppkey = l_suppkey \
                 and ps_partkey = l_partkey and p_partkey = l_partkey \
                 and o_orderkey = l_orderkey and s_nationkey = n_nationkey \
                 and p_name like '%green%') as profit \
             group by nation, o_year order by nation, o_year desc",
        ),
        10 => format!(
            "select c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) as revenue, \
             c_acctbal, n_name, c_address, c_phone, c_comment \
             from customer, orders, lineitem, nation \
             where c_custkey = o_custkey and l_orderkey = o_orderkey \
             and o_orderdate >= date '{}' and o_orderdate < date '{}' + interval '3' month \
             and l_returnflag = 'R' and c_nationkey = n_nationkey \
             group by c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment \
             order by revenue desc limit 20",
            p.date, p.date
        ),
        11 => format!(
            "select ps_partkey, sum(ps_supplycost * ps_availqty) as total_value \
             from partsupp, supplier, nation \
             where ps_suppkey = s_suppkey and s_nationkey = n_nationkey and n_name = '{}' \
             group by ps_partkey \
             having sum(ps_supplycost * ps_availqty) > \
                 (select sum(ps_supplycost * ps_availqty) * {} \
                  from partsupp, supplier, nation \
                  where ps_suppkey = s_suppkey and s_nationkey = n_nationkey \
                  and n_name = '{}') \
             order by total_value desc",
            p.n2, p.fraction, p.n2
        ),
        12 => format!(
            "select l_shipmode, \
             sum(case when o_orderpriority = '1-URGENT' or o_orderpriority = '2-HIGH' \
                 then 1 else 0 end) as high_line_count, \
             sum(case when o_orderpriority <> '1-URGENT' and o_orderpriority <> '2-HIGH' \
                 then 1 else 0 end) as low_line_count \
             from orders, lineitem \
             where o_orderkey = l_orderkey and l_shipmode in ('MAIL', 'SHIP') \
             and l_commitdate < l_receiptdate and l_shipdate < l_commitdate \
             and l_receiptdate >= date '{}' \
             and l_receiptdate < date '{}' + interval '1' year \
             group by l_shipmode order by l_shipmode",
            p.date, p.date
        ),
        13 => format!(
            "select c_count, count(*) as custdist \
             from (select c_custkey as ck, count(o_orderkey) as c_count \
                 from customer left outer join orders \
                 on c_custkey = o_custkey and o_comment not like '%special%requests%' \
                 group by c_custkey) as c_orders \
             group by c_count order by custdist desc, c_count desc",
        ),
        14 => format!(
            "select 100.00 * sum(case when p_type like '{}%' \
                 then l_extendedprice * (1 - l_discount) else 0 end) / \
             sum(l_extendedprice * (1 - l_discount)) as promo_revenue \
             from lineitem, part \
             where l_partkey = p_partkey and l_shipdate >= date '{}' \
             and l_shipdate < date '{}' + interval '1' month",
            "PROMO", p.date2, p.date2
        ),
        15 => format!(
            "create view revenue0 as select l_suppkey as supplier_no, \
             sum(l_extendedprice * (1 - l_discount)) as total_revenue \
             from lineitem where l_shipdate >= date '{}' \
             and l_shipdate < date '{}' + interval '3' month group by l_suppkey",
            p.date, p.date
        ),
        16 => format!(
            "select p_brand, p_type, p_size, count(distinct ps_suppkey) as supplier_cnt \
             from partsupp, part \
             where p_partkey = ps_partkey and p_brand <> '{}' \
             and p_type not like 'MEDIUM POLISHED%' \
             and p_size in (49, 14, 23, 45, 19, 3, 36, 9) \
             and ps_suppkey not in (select s_suppkey from supplier \
                 where s_comment like '%Customer%Complaints%') \
             group by p_brand, p_type, p_size \
             order by supplier_cnt desc, p_brand, p_type, p_size",
            p.brand
        ),
        17 => format!(
            "select sum(l_extendedprice) / 7.0 as avg_yearly from lineitem, part \
             where p_partkey = l_partkey and p_brand = '{}' and p_container = 'MED BOX' \
             and l_quantity < 0.2 * (select avg(l_quantity) from lineitem \
                 where l_partkey = p_partkey)",
            p.brand2
        ),
        18 => format!(
            "select c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, \
             sum(l_quantity) as total_qty \
             from customer, orders, lineitem \
             where o_orderkey in (select l_orderkey from lineitem \
                 group by l_orderkey having sum(l_quantity) > {}) \
             and c_custkey = o_custkey and o_orderkey = l_orderkey \
             group by c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice \
             order by o_totalprice desc, o_orderdate limit 100",
            250 + p.qty
        ),
        19 => format!(
            "select sum(l_extendedprice * (1 - l_discount)) as revenue \
             from lineitem, part \
             where (p_partkey = l_partkey and p_brand = '{b1}' \
                 and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG') \
                 and l_quantity >= 1 and l_quantity <= 11 \
                 and p_size between 1 and 5 \
                 and l_shipmode in ('AIR', 'REG AIR') \
                 and l_shipinstruct = 'DELIVER IN PERSON') \
             or (p_partkey = l_partkey and p_brand = '{b2}' \
                 and p_container in ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK') \
                 and l_quantity >= 10 and l_quantity <= 20 \
                 and p_size between 1 and 10 \
                 and l_shipmode in ('AIR', 'REG AIR') \
                 and l_shipinstruct = 'DELIVER IN PERSON') \
             or (p_partkey = l_partkey and p_brand = '{b3}' \
                 and p_container in ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG') \
                 and l_quantity >= 20 and l_quantity <= 30 \
                 and p_size between 1 and 15 \
                 and l_shipmode in ('AIR', 'REG AIR') \
                 and l_shipinstruct = 'DELIVER IN PERSON')",
            b1 = p.brand,
            b2 = p.brand2,
            b3 = p.brand3
        ),
        20 => format!(
            "select s_name, s_address from supplier, nation \
             where s_suppkey in (select ps_suppkey from partsupp \
                 where ps_partkey in (select p_partkey from part where p_name like 'forest%') \
                 and ps_availqty > 0.5 * (select sum(l_quantity) from lineitem \
                     where l_partkey = ps_partkey and l_suppkey = ps_suppkey \
                     and l_shipdate >= date '{}' \
                     and l_shipdate < date '{}' + interval '1' year)) \
             and s_nationkey = n_nationkey and n_name = 'CANADA' order by s_name",
            p.date, p.date
        ),
        21 => format!(
            "select s_name, count(*) as numwait \
             from supplier, lineitem l1, orders, nation \
             where s_suppkey = l1.l_suppkey and o_orderkey = l1.l_orderkey \
             and o_orderstatus = 'F' and l1.l_receiptdate > l1.l_commitdate \
             and exists (select * from lineitem l2 \
                 where l2.l_orderkey = l1.l_orderkey and l2.l_suppkey <> l1.l_suppkey) \
             and not exists (select * from lineitem l3 \
                 where l3.l_orderkey = l1.l_orderkey and l3.l_suppkey <> l1.l_suppkey \
                 and l3.l_receiptdate > l3.l_commitdate) \
             and s_nationkey = n_nationkey and n_name = '{}' \
             group by s_name order by numwait desc, s_name limit 100",
            if p.n1 == "FRANCE" { "SAUDI ARABIA" } else { p.n1.as_str() }
        ),
        22 => format!(
            "select cntrycode, count(*) as numcust, sum(c_acctbal) as totacctbal \
             from (select substring(c_phone from 1 for 2) as cntrycode, c_acctbal \
                 from customer \
                 where substring(c_phone from 1 for 2) in \
                     ('13', '31', '23', '29', '30', '18', '17') \
                 and c_acctbal > (select avg(c_acctbal) from customer \
                     where c_acctbal > 0.00 and substring(c_phone from 1 for 2) in \
                         ('13', '31', '23', '29', '30', '18', '17')) \
                 and not exists (select * from orders where o_custkey = c_custkey)) as custsale \
             group by cntrycode order by cntrycode",
        ),
        other => panic!("TPC-H has 22 queries; got {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn all_queries_render() {
        for n in 1..=22 {
            let q = query(n);
            assert!(q.len() > 50, "q{n}");
            let lower = q.to_ascii_lowercase();
            assert!(lower.contains("select"), "q{n}");
        }
    }

    #[test]
    fn randomized_queries_differ_but_keep_shape() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 3, 5, 6, 12, 19] {
            let a = query_randomized(n, &mut rng);
            let b = query_randomized(n, &mut rng);
            // Same structural skeleton.
            assert_eq!(
                a.to_ascii_lowercase().matches("select").count(),
                b.to_ascii_lowercase().matches("select").count(),
                "q{n}"
            );
        }
    }

    #[test]
    fn exclusion_lists() {
        assert_eq!(EXCLUDED_UNSUPPORTED, &[15, 20]);
        assert!(EXCLUDED_BASELINE_FAILING.contains(&19));
        assert!(!EXCLUDED_BASELINE_FAILING.contains(&1));
    }
}
