//! Minimal-reproducer fixtures (`tests/regressions/*.fix`).
//!
//! A fixture is a small `key=value` text file capturing everything needed
//! to replay one scenario byte-for-byte: the bench schema, data seed and
//! scale factor, cluster shape, fault-schedule spec, and the SQL text.
//! `#` lines are comments (provenance: the finding seed, the bug it
//! reproduced). Fixtures are replayed through the full differential
//! battery by `tests/regressions.rs` on every `cargo test`, so a fixed
//! bug stays fixed.

use crate::sim::{BenchSchema, Env, Outcome, Scenario, DATA_SEED, DATA_SF};
use ic_net::FaultPlan;
use ic_sql::ast::Statement;
use ic_sql::parse_sql;

#[derive(Debug, Clone)]
pub struct Fixture {
    /// Free-form provenance lines, emitted as `#` comments.
    pub notes: Vec<String>,
    pub seed: u64,
    pub schema: BenchSchema,
    pub sites: usize,
    pub backups: usize,
    pub lease_pressure: bool,
    pub run_icplusm: bool,
    pub faults: Option<FaultPlan>,
    pub sql: String,
}

impl Fixture {
    pub fn from_scenario(s: &Scenario, notes: &[String]) -> Fixture {
        Fixture {
            notes: notes.to_vec(),
            seed: s.seed,
            schema: s.schema,
            sites: s.sites,
            backups: s.backups,
            lease_pressure: s.lease_pressure,
            run_icplusm: s.run_icplusm,
            faults: s.faults.clone(),
            sql: s.sql(),
        }
    }

    /// Render in the `.fix` format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str("# ");
            out.push_str(n);
            out.push('\n');
        }
        out.push_str(&format!("seed={}\n", self.seed));
        out.push_str(&format!("schema={}\n", self.schema.as_str()));
        out.push_str(&format!("data_seed={DATA_SEED}\n"));
        out.push_str(&format!("sf={DATA_SF}\n"));
        out.push_str(&format!("sites={}\n", self.sites));
        out.push_str(&format!("backups={}\n", self.backups));
        out.push_str(&format!("pressure={}\n", self.lease_pressure));
        out.push_str(&format!("icplusm={}\n", self.run_icplusm));
        out.push_str(&format!(
            "faults={}\n",
            self.faults.as_ref().map(FaultPlan::to_spec).unwrap_or_else(|| "none".into())
        ));
        out.push_str(&format!("sql={}\n", self.sql));
        out.push_str("expect=agree\n");
        out
    }

    /// Parse the `.fix` format. Rejects fixtures recorded against a
    /// different data seed or scale factor — they would replay against
    /// the wrong rows and prove nothing.
    pub fn parse(text: &str) -> Result<Fixture, String> {
        let mut notes = Vec::new();
        let mut kv = ic_common::FxHashMap::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                notes.push(rest.trim().to_string());
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("fixture line is not key=value: '{line}'"))?;
            kv.insert(k.trim().to_string(), v.trim().to_string());
        }
        let get = |k: &str| {
            kv.get(k).cloned().ok_or_else(|| format!("fixture missing key '{k}'"))
        };
        let data_seed: u64 =
            get("data_seed")?.parse().map_err(|e| format!("bad data_seed: {e}"))?;
        if data_seed != DATA_SEED {
            return Err(format!(
                "fixture recorded against data_seed={data_seed}, runner uses {DATA_SEED}"
            ));
        }
        let sf: f64 = get("sf")?.parse().map_err(|e| format!("bad sf: {e}"))?;
        if sf != DATA_SF {
            return Err(format!("fixture recorded against sf={sf}, runner uses {DATA_SF}"));
        }
        let faults = match get("faults")?.as_str() {
            "none" => None,
            spec => Some(FaultPlan::parse_spec(spec)?),
        };
        match get("expect")?.as_str() {
            "agree" => {}
            other => return Err(format!("unsupported expect '{other}'")),
        }
        Ok(Fixture {
            notes,
            seed: get("seed")?.parse().map_err(|e| format!("bad seed: {e}"))?,
            schema: BenchSchema::parse(&get("schema")?)?,
            sites: get("sites")?.parse().map_err(|e| format!("bad sites: {e}"))?,
            backups: get("backups")?.parse().map_err(|e| format!("bad backups: {e}"))?,
            lease_pressure: get("pressure")?
                .parse()
                .map_err(|e| format!("bad pressure: {e}"))?,
            run_icplusm: get("icplusm")?
                .parse()
                .map_err(|e| format!("bad icplusm: {e}"))?,
            faults,
            sql: get("sql")?,
        })
    }

    /// Rebuild the scenario (parses the SQL text back into the AST).
    pub fn to_scenario(&self) -> Result<Scenario, String> {
        let stmt =
            parse_sql(&self.sql).map_err(|e| format!("fixture SQL failed to parse: {e}"))?;
        let Statement::Query(query) = stmt else {
            return Err("fixture SQL is not a SELECT".into());
        };
        Ok(Scenario {
            seed: self.seed,
            schema: self.schema,
            sites: self.sites,
            backups: self.backups,
            query,
            faults: self.faults.clone(),
            lease_pressure: self.lease_pressure,
            run_icplusm: self.run_icplusm,
        })
    }

    /// Replay through the full differential battery.
    pub fn replay(&self, env: &mut Env) -> Result<Outcome, String> {
        let scenario = self.to_scenario()?;
        Ok(crate::sim::run_scenario(env, &scenario))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let fx = Fixture {
            notes: vec!["found by seed 52".into()],
            seed: 52,
            schema: BenchSchema::Tpch,
            sites: 3,
            backups: 1,
            lease_pressure: true,
            run_icplusm: true,
            faults: Some(FaultPlan::new(7).crash(ic_net::SiteId(1), 2)),
            sql: "SELECT count(*) FROM region".into(),
        };
        let text = fx.render();
        let back = Fixture::parse(&text).expect("parse");
        assert_eq!(back.render(), text);
        assert_eq!(back.seed, 52);
        assert_eq!(back.sites, 3);
        assert!(back.faults.is_some());
    }

    #[test]
    fn rejects_wrong_data_generation() {
        let fx = Fixture {
            notes: vec![],
            seed: 0,
            schema: BenchSchema::Ssb,
            sites: 2,
            backups: 1,
            lease_pressure: false,
            run_icplusm: false,
            faults: None,
            sql: "SELECT 1 FROM part".into(),
        };
        let text = fx.render().replace("data_seed=42", "data_seed=43");
        assert!(Fixture::parse(&text).is_err());
    }
}
