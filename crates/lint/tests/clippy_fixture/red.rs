//! Red half: each item the configuration bans, one per line, and the
//! suppressions it rejects. `// trips:` names the lints a line must raise.

pub fn red(o: Option<u8>, r: Result<u8, ()>) {
    let _ = o.unwrap(); // trips: clippy::unwrap_used
    let _ = r.expect("red"); // trips: clippy::expect_used
    let _: Option<std::collections::HashMap<u8, u8>> = None; // trips: clippy::disallowed_types
    let _: Option<std::collections::HashSet<u8>> = None; // trips: clippy::disallowed_types
    let _: Option<std::collections::hash_map::DefaultHasher> = None; // trips: clippy::disallowed_types
    let _: Option<std::hash::DefaultHasher> = None; // trips: clippy::disallowed_types
    let _: Option<std::collections::hash_map::RandomState> = None; // trips: clippy::disallowed_types
    let _: Option<std::hash::RandomState> = None; // trips: clippy::disallowed_types
    let _: Option<std::hash::BuildHasherDefault<u64>> = None; // trips: clippy::disallowed_types
    #[expect(deprecated, reason = "SipHasher is deprecated as well as banned")]
    let _: Option<std::hash::SipHasher> = None; // trips: clippy::disallowed_types
    let _: Option<ic_common::hash::FxHasher> = None; // trips: clippy::disallowed_types
    let _: Option<std::sync::Mutex<u8>> = None; // trips: clippy::disallowed_types
    let _: Option<std::sync::RwLock<u8>> = None; // trips: clippy::disallowed_types
    let _ = std::time::Instant::now(); // trips: clippy::disallowed_methods
    let _ = std::time::SystemTime::now(); // trips: clippy::disallowed_methods
    std::thread::sleep(std::time::Duration::ZERO); // trips: clippy::disallowed_methods
}

#[allow(dead_code)] // trips: clippy::allow_attributes clippy::allow_attributes_without_reason
fn allowed() {}

#[expect(dead_code)] // trips: clippy::allow_attributes_without_reason
fn expected() {}

#[expect(clippy::unwrap_used, reason = "nothing here unwraps")] // trips: unfulfilled_lint_expectations
pub fn stale() {}

pub enum Failure {
    Transient,
    Terminal,
    Fatal,
}

pub enum Class {
    Retry,
    Stop,
}

/// A classifier's shape, as `IcError::retry_class` is declared: a wildcard
/// arm would class a new variant without anyone deciding.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn classify(f: &Failure) -> Class {
    match f {
        Failure::Transient => Class::Retry,
        _ => Class::Stop, // trips: clippy::wildcard_enum_match_arm
    }
}
