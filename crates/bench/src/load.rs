//! Load the TPC-H / SSB schemas, data and indexes into a cluster.

use ic_benchdata::{ssb, tpch, TableData};
use ic_core::{Cluster, IcResult};

/// Create the schema and indexes, load the generated tables, and analyze
/// (statistics enabled, like the paper's configuration).
fn load(cluster: &Cluster, ddl: &[&str], tables: Vec<TableData>) -> IcResult<()> {
    for stmt in ddl {
        cluster.run(stmt)?;
    }
    for table in tables {
        cluster.insert(table.name, table.rows)?;
    }
    cluster.analyze_all()
}

/// Load TPC-H at scale factor `sf`.
pub fn load_tpch(cluster: &Cluster, sf: f64, seed: u64) -> IcResult<()> {
    load(cluster, &[tpch::DDL, tpch::INDEX_DDL].concat(), tpch::generate(sf, seed))
}

/// Load SSB at scale factor `sf`.
pub fn load_ssb(cluster: &Cluster, sf: f64, seed: u64) -> IcResult<()> {
    load(cluster, &[ssb::DDL, ssb::INDEX_DDL].concat(), ssb::generate(sf, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_core::{ClusterConfig, SystemVariant};

    #[test]
    fn tpch_loads_and_counts() {
        let cluster = Cluster::new(ClusterConfig {
            sites: 2,
            variant: SystemVariant::ICPlus,
            ..ClusterConfig::test_default()
        });
        load_tpch(&cluster, 0.001, 42).unwrap();
        assert_eq!(cluster.table_rows("region").unwrap(), 5);
        assert_eq!(cluster.table_rows("nation").unwrap(), 25);
        assert!(cluster.table_rows("lineitem").unwrap() > 1000);
        let r = cluster.query("SELECT count(*) FROM lineitem").unwrap();
        assert_eq!(
            r.rows[0].0[0].as_int().unwrap() as usize,
            cluster.table_rows("lineitem").unwrap()
        );
    }

    #[test]
    fn ssb_loads_and_counts() {
        let cluster = Cluster::new(ClusterConfig {
            sites: 2,
            variant: SystemVariant::ICPlusM,
            ..ClusterConfig::test_default()
        });
        load_ssb(&cluster, 0.001, 42).unwrap();
        assert_eq!(cluster.table_rows("ddate").unwrap(), 2557);
        assert!(cluster.table_rows("lineorder").unwrap() > 500);
    }
}
