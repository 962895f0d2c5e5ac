//! An operator keeps input batches only through `LeasedBatches::push`,
//! which takes the query's control block, so every kept batch is charged to
//! that query's lease. `// trips:` names the error a line must raise; the
//! charged push below it must raise nothing.

use ic_common::{ColumnBatch, IcResult};
use ic_exec::operators::{ControlBlock, LeasedBatches};

pub fn uncharged(kept: &mut LeasedBatches, b: ColumnBatch) {
    let _ = kept.push(b); // trips: E0061
}

/// A kept batch is charged to the lease of the control block it names.
pub fn charged(kept: &mut LeasedBatches, ctrl: &ControlBlock, b: ColumnBatch) -> IcResult<()> {
    kept.push(ctrl, b)
}
