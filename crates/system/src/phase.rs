//! A wall-time attribution hook for shadow-checked runs.
//!
//! The `cdna-model` explorer and [`crate::SystemWorld::shadow_sync`]
//! mark the [`Phase`] they enter. Nothing listens unless a binary calls
//! [`set_hook`]: the hook is a per-thread setting that is off by
//! default, so a mark costs one thread-local read and no simulated
//! output can depend on it. The clock lives in the hook, in the binary
//! that installs it, because library code never reads the wall clock.

use std::cell::Cell;

/// A stretch of a shadow-checked run's host time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Outside any marked stretch.
    Idle,
    /// Building, priming and first-syncing a cell's world.
    Build,
    /// Copying a simulation for a snapshot.
    Clone,
    /// Search bookkeeping between schedules: picking the next branch,
    /// dropping spent snapshots and finished simulations.
    Resume,
    /// Simulating a schedule's events.
    Tail,
    /// A shadow sync's replay of newly stamped sequence numbers.
    SeqReplay,
    /// A shadow sync's fold of the pin journals into the page mirror.
    Fold,
    /// A shadow sync's check of the engines' pinned lists.
    AuditPinned,
    /// A shadow sync's check of the page mirror against the pool.
    AuditMem,
    /// The invariant suite run on each finished schedule.
    Invariants,
}

/// Every phase but [`Phase::Idle`], in the order a profile lists them.
pub const ALL: [Phase; 9] = [
    Phase::Build,
    Phase::Clone,
    Phase::Resume,
    Phase::Tail,
    Phase::SeqReplay,
    Phase::Fold,
    Phase::AuditPinned,
    Phase::AuditMem,
    Phase::Invariants,
];

impl Phase {
    /// Stable kebab-case name, as a profile prints it.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Idle => "idle",
            Phase::Build => "build",
            Phase::Clone => "clone",
            Phase::Resume => "resume",
            Phase::Tail => "tail",
            Phase::SeqReplay => "seq-replay",
            Phase::Fold => "fold",
            Phase::AuditPinned => "audit-pinned",
            Phase::AuditMem => "audit-mem",
            Phase::Invariants => "invariants",
        }
    }
}

/// A listener: told each phase its thread enters, it returns the phase
/// the thread left.
pub type Hook = fn(Phase) -> Phase;

thread_local! {
    static HOOK: Cell<Option<Hook>> = const { Cell::new(None) };
}

/// Installs `hook` (or removes it with `None`) for the current thread.
pub fn set_hook(hook: Option<Hook>) {
    HOOK.with(|h| h.set(hook));
}

/// The current thread's hook, if any.
pub fn hook() -> Option<Hook> {
    HOOK.with(Cell::get)
}

/// Marks the start of phase `p` on this thread and returns the phase
/// it ends, so a nested stretch can hand back to its caller's; without
/// a hook it does nothing and returns [`Phase::Idle`].
#[inline]
pub fn enter(p: Phase) -> Phase {
    hook().map_or(Phase::Idle, |f| f(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static SEEN: Cell<Phase> = const { Cell::new(Phase::Idle) };
    }

    fn remember(p: Phase) -> Phase {
        SEEN.with(|s| s.replace(p))
    }

    #[test]
    fn marks_reach_only_an_installed_hook_on_its_thread() {
        assert_eq!(enter(Phase::Tail), Phase::Idle);
        assert_eq!(SEEN.with(Cell::get), Phase::Idle);
        set_hook(Some(remember));
        assert_eq!(enter(Phase::Tail), Phase::Idle);
        assert_eq!(enter(Phase::Fold), Phase::Tail);
        set_hook(None);
        assert_eq!(enter(Phase::AuditMem), Phase::Idle);
        assert_eq!(SEEN.with(Cell::get), Phase::Fold);
        let names: Vec<&str> = ALL.iter().map(|p| p.name()).collect();
        assert!(names.iter().all(|n| !n.is_empty() && *n != "idle"));
        for (i, a) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(a), "{a} twice");
        }
    }
}
