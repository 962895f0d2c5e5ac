//! Seeded fixture (reachability): lives in `crates/plan/src/`, which no
//! path-based L008/L012 scope covers — every finding below exists
//! only because `reach_kernel.rs` makes this fn call-graph-reachable from
//! a kernel loop.

pub fn cold_file_helper(i: usize) -> u64 {
    let d = lookup(i).datum_at(i);
    let tag = format!("row{i}");
    d.as_int().unwrap_or(0) as u64 + tag.len() as u64
}
