//! The workspace's locks: the one module that constructs one
//! (`crates/clippy.toml` bans std's and `parking_lot`'s `Mutex` and
//! `RwLock` everywhere else).
//!
//! There are two kinds, and what may nest is fixed by the kind:
//!
//! - **Leaf locks**, [`Mutex`] and [`RwLock`], guard one short critical
//!   section. Nothing is taken while a leaf guard is alive — no other leaf,
//!   no second guard of the same lock, no write set.
//! - **Set locks**, [`SetLock`], have no `lock` of their own: they are taken
//!   only together, by [`write_set`], in the order its caller gives, and
//!   only by a thread that holds nothing. Leaf locks may be taken under a
//!   write set. `ic_storage`'s partition write guards are the one use; its
//!   `write_set` orders them by (table id, partition).
//!
//! So every nesting is a leaf under a write set, or a write set's own
//! guards in one order, and no two threads can wait on each other in a
//! cycle. Debug builds check both rules on every acquisition against one
//! thread-local record and panic at the first wrong one, naming both call
//! sites; release builds compile the record away.
//!
//! A lock whose holder panicked is recovered, not poisoned: every critical
//! section in the engine leaves its data consistent at each statement, and
//! a query thread's panic is recorded as that query's failure, not the
//! cluster's.

#![expect(
    clippy::disallowed_types,
    reason = "this module is the one place that wraps std's locks"
)]

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

#[cfg(debug_assertions)]
mod held {
    //! The thread's record of what it holds: the site of the live leaf
    //! guard and of the live write set, if any.

    use std::cell::Cell;
    use std::panic::Location;

    type Site = Option<&'static Location<'static>>;

    thread_local! {
        static LEAF: Cell<Site> = const { Cell::new(None) };
        static SET: Cell<Site> = const { Cell::new(None) };
    }

    /// Clears its slot of the record when the guard it rides in drops.
    pub(super) struct Held(&'static std::thread::LocalKey<Cell<Site>>);

    impl Drop for Held {
        fn drop(&mut self) {
            self.0.set(None);
        }
    }

    /// A leaf lock is being taken at `at`. While unwinding nothing is
    /// checked: a second panic would abort the process.
    pub(super) fn leaf(at: &'static Location<'static>) -> Held {
        if let Some(held) = LEAF.get().filter(|_| !std::thread::panicking()) {
            panic!("lock taken at {at} while the leaf lock taken at {held} is held: nothing is taken under a leaf lock");
        }
        LEAF.set(Some(at));
        Held(&LEAF)
    }

    /// A write set is being taken at `at`.
    pub(super) fn set(at: &'static Location<'static>) -> Held {
        if let Some(held) = LEAF
            .get()
            .or(SET.get())
            .filter(|_| !std::thread::panicking())
        {
            panic!("write set taken at {at} while the lock taken at {held} is held: a write set is taken with nothing held");
        }
        SET.set(Some(at));
        Held(&SET)
    }
}

/// A leaf mutex (see the module docs).
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// A leaf reader-writer lock (see the module docs).
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

/// The guard of a [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    guard: sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: held::Held,
}

/// A shared guard of a [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: held::Held,
}

/// The exclusive guard of a [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: held::Held,
}

/// Record a leaf acquisition at the caller of `lock` / `read` / `write`,
/// then take the lock.
macro_rules! leaf_guard {
    ($guard:ident, $take:expr) => {{
        #[cfg(debug_assertions)]
        let held = held::leaf(std::panic::Location::caller());
        $guard {
            guard: $take.unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _held: held,
        }
    }};
}

impl<T> Mutex<T> {
    /// A mutex guarding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is free, then hold it until the guard drops.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        leaf_guard!(MutexGuard, self.0.lock())
    }
}

impl<T> RwLock<T> {
    /// A reader-writer lock guarding `value`.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Hold the lock shared until the guard drops.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        leaf_guard!(RwLockReadGuard, self.0.read())
    }

    /// Hold the lock exclusively until the guard drops.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        leaf_guard!(RwLockWriteGuard, self.0.write())
    }
}

macro_rules! deref {
    ($($guard:ident),*) => {$(
        impl<T: ?Sized> Deref for $guard<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                &self.guard
            }
        }
    )*};
}

deref!(MutexGuard, RwLockReadGuard, RwLockWriteGuard);

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A condition variable over a [`Mutex`]'s guard.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A condition variable nobody waits on yet.
    pub const fn new() -> Condvar {
        Condvar(sync::Condvar::new())
    }

    /// Release `guard`'s lock until a notification or `timeout`, then take
    /// it again. The thread's record still holds the leaf meanwhile: a
    /// waiting thread takes nothing.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        let MutexGuard {
            guard,
            #[cfg(debug_assertions)]
            _held,
        } = guard;
        let (guard, _) = self
            .0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            guard,
            #[cfg(debug_assertions)]
            _held,
        }
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A lock taken only as part of a [`write_set`].
#[derive(Default)]
pub struct SetLock(sync::Mutex<()>);

/// The guards of one [`write_set`], released together on drop.
pub struct WriteSet<'a> {
    _guards: Vec<sync::MutexGuard<'a, ()>>,
    #[cfg(debug_assertions)]
    _held: held::Held,
}

/// Take every lock of `locks`, in the order given — the caller's order is
/// the one global order of its locks — and hold them until the returned
/// set drops. In debug builds, panics if this thread holds any lock.
#[cfg_attr(debug_assertions, track_caller)]
pub fn write_set<'a>(locks: impl IntoIterator<Item = &'a SetLock>) -> WriteSet<'a> {
    #[cfg(debug_assertions)]
    let held = held::set(std::panic::Location::caller());
    WriteSet {
        _guards: locks
            .into_iter()
            .map(|l| l.0.lock().unwrap_or_else(PoisonError::into_inner))
            .collect(),
        #[cfg(debug_assertions)]
        _held: held,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_lock_survives_its_holders_panic() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn leaves_under_a_write_set_are_allowed() {
        let (a, b) = (SetLock::default(), SetLock::default());
        let leaf = RwLock::new(vec![1]);
        let set = write_set([&a, &b]);
        leaf.write().push(2);
        assert_eq!(leaf.read().len(), 2);
        drop(set);
        let _again = write_set([&a]);
    }

    /// The message of the panic a thread running `f` ended with.
    #[cfg(debug_assertions)]
    fn panic_of(f: impl FnOnce() + Send + 'static) -> String {
        let err = std::thread::spawn(f)
            .join()
            .expect_err("the nested acquisition must panic");
        crate::panic_message(&*err)
    }

    /// ABBA: one function takes `registry` then `journal`, another the
    /// reverse. Running the first alone already panics, at its second
    /// acquisition, naming both lines: no second thread has to show the
    /// other order.
    #[cfg(debug_assertions)]
    #[test]
    fn abba_panics_at_the_first_nested_acquisition() {
        struct State {
            registry: Mutex<u32>,
            journal: Mutex<u32>,
        }
        impl State {
            fn register(&self) -> u32 {
                let reg = self.registry.lock();
                let jrn = self.journal.lock();
                *reg + *jrn
            }
        }
        let outer = line!() - 5;
        let state = State {
            registry: Mutex::new(1),
            journal: Mutex::new(2),
        };
        let msg = panic_of(move || {
            state.register();
        });
        assert!(msg.contains(&format!("sync.rs:{}:", outer + 1)), "{msg}");
        assert!(msg.contains(&format!("sync.rs:{}:", outer)), "{msg}");
    }

    /// A deferred closure: `alpha` is held when a runner calls the closure
    /// that takes `beta`. The check runs at the acquisition, where the
    /// thread really holds `alpha`, so it names the closure's line and the
    /// line that took `alpha`.
    #[cfg(debug_assertions)]
    #[test]
    fn a_deferred_closure_panics_where_it_runs() {
        fn pool_run(job: impl FnOnce() -> u64) -> u64 {
            job()
        }
        let alpha = Arc::new(Mutex::new(1u64));
        let beta = Arc::new(Mutex::new(2u64));
        let msg = panic_of(move || {
            let job = || *beta.lock();
            let a = alpha.lock();
            let _ = *a + pool_run(job);
        });
        let job = line!() - 4;
        assert!(msg.contains(&format!("sync.rs:{job}:")), "{msg}");
        assert!(msg.contains(&format!("sync.rs:{}:", job + 1)), "{msg}");
    }

    /// A write set is taken with nothing held — not even a leaf.
    #[cfg(debug_assertions)]
    #[test]
    fn a_write_set_under_a_leaf_panics() {
        let leaf = Mutex::new(());
        let lock = SetLock::default();
        let msg = panic_of(move || {
            let _g = leaf.lock();
            let _set = write_set([&lock]);
        });
        assert!(msg.contains("write set taken at"), "{msg}");
    }
}
