//! Seeded fixture (L009): a retry loop re-enters on an error it did not
//! classify. The guarded loop is clean, and the pragma-covered loop shows
//! the suppressed form.

fn unguarded_retry_loop() -> Result<u32, IcError> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match step(attempts) {
            Ok(v) => return Ok(v),
            Err(e) => {
                record(e);
            }
        }
    }
}

fn guarded_retry_loop() -> Result<u32, IcError> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match step(attempts) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_failover_retryable() => continue,
            Err(e) => return Err(e),
        }
    }
}

// ic-lint: allow(L009) because the fixture demonstrates the suppressed form
fn suppressed_retry_loop() -> Result<u32, IcError> {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match step(attempts) {
            Ok(v) => return Ok(v),
            Err(e) => {
                record(e);
            }
        }
    }
}
