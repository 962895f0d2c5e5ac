//! Green half of the clippy-configuration fixture: what the bans allow. The
//! lint levels are declared as at every engine crate root.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod red;

use ic_common::sync::Mutex;
use ic_common::FxHashMap;
use std::time::Instant;

#[derive(Hash, PartialEq, Eq)]
pub struct Key(u8);

pub struct Deadline(pub Option<Instant>);

pub fn green(o: Option<u8>) -> usize {
    let m: FxHashMap<Key, u8> = FxHashMap::default();
    #[expect(clippy::unwrap_used, reason = "a suppression that states its reason")]
    let v = o.unwrap();
    m.len() + v as usize
}

/// A leaf lock of the one lock module.
pub fn counted(n: &Mutex<usize>) -> usize {
    *n.lock() += 1;
    *n.lock()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests() {
        assert_eq!("1".parse::<u8>().unwrap(), 1);
    }
}
