//! Hardware contexts and their assignment to guests (paper §3.1).

use std::fmt;

use cdna_mem::DomainId;
use cdna_nic::RingId;

use crate::DmaPolicy;

/// Number of hardware contexts a CDNA NIC provides.
pub const CTX_COUNT: usize = 32;

/// Identifies one of the NIC's hardware contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ContextId(pub u8);

impl ContextId {
    /// The privileged context reserved for hypervisor management
    /// operations (context allocation, revocation, fault reporting).
    pub const PRIVILEGED: ContextId = ContextId(0);

    /// Whether this id is within the NIC's context range.
    #[inline]
    pub fn is_valid(self) -> bool {
        (self.0 as usize) < CTX_COUNT
    }
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// Errors from context management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextError {
    /// All non-privileged contexts are assigned.
    Exhausted,
    /// The context id is outside the hardware range.
    InvalidContext(ContextId),
    /// The context is not currently assigned.
    NotAssigned(ContextId),
    /// The domain does not own the context it tried to use.
    WrongOwner {
        /// Context being accessed.
        ctx: ContextId,
        /// Domain that attempted the access.
        domain: DomainId,
    },
}

impl fmt::Display for ContextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContextError::Exhausted => write!(f, "no free hardware contexts"),
            ContextError::InvalidContext(c) => write!(f, "invalid context {c}"),
            ContextError::NotAssigned(c) => write!(f, "context {c} is not assigned"),
            ContextError::WrongOwner { ctx, domain } => {
                write!(f, "domain {domain} does not own {ctx}")
            }
        }
    }
}

impl std::error::Error for ContextError {}

/// Assignment record for one context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextState {
    /// The domain the context's mailbox partition is mapped into.
    pub owner: DomainId,
    /// The context's transmit descriptor ring in host memory.
    pub tx_ring: RingId,
    /// The context's receive descriptor ring in host memory.
    pub rx_ring: RingId,
    /// The DMA protection policy governing the context.
    pub policy: DmaPolicy,
}

/// The hypervisor's table of context assignments for one CDNA NIC.
///
/// Assigning a context maps its 4 KB mailbox partition into exactly one
/// guest's address space, so the guest can only ever reach its own
/// context (the mapping *is* the access control). Revocation (paper
/// §3.1: "the hypervisor can also revoke a context at any time") clears
/// the assignment; the device model shuts down pending work for that
/// context when told.
///
/// # Example
///
/// ```
/// use cdna_core::{ContextTable, DmaPolicy};
/// use cdna_mem::DomainId;
/// use cdna_nic::RingId;
///
/// let mut table = ContextTable::new();
/// let ctx = table
///     .assign(DomainId::guest(0), RingId(0), RingId(1), DmaPolicy::Validated)
///     .unwrap();
/// assert_eq!(table.owner_of(ctx).unwrap(), DomainId::guest(0));
/// table.revoke(ctx).unwrap();
/// assert!(table.owner_of(ctx).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContextTable {
    slots: Vec<Option<ContextState>>,
}

impl ContextTable {
    /// An empty table with all [`CTX_COUNT`] contexts free (context 0 is
    /// reserved as the privileged management context and never handed to
    /// guests).
    pub fn new() -> Self {
        ContextTable {
            slots: vec![None; CTX_COUNT],
        }
    }

    /// Assigns the lowest free non-privileged context to `owner`.
    ///
    /// # Errors
    ///
    /// [`ContextError::Exhausted`] when all 31 assignable contexts are
    /// taken.
    pub fn assign(
        &mut self,
        owner: DomainId,
        tx_ring: RingId,
        rx_ring: RingId,
        policy: DmaPolicy,
    ) -> Result<ContextId, ContextError> {
        let free = self.slots[1..]
            .iter()
            .position(Option::is_none)
            .ok_or(ContextError::Exhausted)?;
        let ctx = ContextId((free + 1) as u8);
        self.slots[ctx.0 as usize] = Some(ContextState {
            owner,
            tx_ring,
            rx_ring,
            policy,
        });
        Ok(ctx)
    }

    /// Revokes a context, clearing its assignment.
    pub fn revoke(&mut self, ctx: ContextId) -> Result<ContextState, ContextError> {
        let slot = self
            .slots
            .get_mut(ctx.0 as usize)
            .ok_or(ContextError::InvalidContext(ctx))?;
        slot.take().ok_or(ContextError::NotAssigned(ctx))
    }

    /// The state of an assigned context.
    pub fn state(&self, ctx: ContextId) -> Result<ContextState, ContextError> {
        self.slots
            .get(ctx.0 as usize)
            .ok_or(ContextError::InvalidContext(ctx))?
            .ok_or(ContextError::NotAssigned(ctx))
    }

    /// The owner of `ctx`, or `None` if unassigned/invalid.
    #[inline]
    pub fn owner_of(&self, ctx: ContextId) -> Option<DomainId> {
        self.slots
            .get(ctx.0 as usize)
            .and_then(|s| s.map(|st| st.owner))
    }

    /// Verifies that `domain` owns `ctx` — the check behind every
    /// context-scoped hypercall.
    pub fn check_owner(
        &self,
        ctx: ContextId,
        domain: DomainId,
    ) -> Result<ContextState, ContextError> {
        let state = self.state(ctx)?;
        if state.owner != domain {
            return Err(ContextError::WrongOwner { ctx, domain });
        }
        Ok(state)
    }

    /// The context assigned to `domain`, if any (each guest gets at most
    /// one context per NIC in this reproduction, like the paper's
    /// experiments).
    pub fn context_of(&self, domain: DomainId) -> Option<ContextId> {
        self.slots.iter().enumerate().find_map(|(i, s)| {
            s.filter(|st| st.owner == domain)
                .map(|_| ContextId(i as u8))
        })
    }

    /// All currently assigned contexts.
    pub fn assigned(&self) -> impl Iterator<Item = (ContextId, ContextState)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|st| (ContextId(i as u8), st)))
    }

    /// Number of assigned contexts.
    pub fn assigned_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ContextTable {
        ContextTable::new()
    }

    fn assign(t: &mut ContextTable, guest: u16) -> ContextId {
        t.assign(
            DomainId::guest(guest),
            RingId(guest as u32 * 2),
            RingId(guest as u32 * 2 + 1),
            DmaPolicy::Validated,
        )
        .unwrap()
    }

    #[test]
    fn privileged_context_never_assigned() {
        let mut t = table();
        for g in 0..31 {
            let ctx = assign(&mut t, g);
            assert_ne!(ctx, ContextId::PRIVILEGED);
        }
        assert_eq!(
            t.assign(
                DomainId::guest(99),
                RingId(0),
                RingId(1),
                DmaPolicy::Validated
            ),
            Err(ContextError::Exhausted)
        );
    }

    #[test]
    fn owner_checks() {
        let mut t = table();
        let ctx = assign(&mut t, 0);
        assert!(t.check_owner(ctx, DomainId::guest(0)).is_ok());
        assert_eq!(
            t.check_owner(ctx, DomainId::guest(1)),
            Err(ContextError::WrongOwner {
                ctx,
                domain: DomainId::guest(1)
            })
        );
    }

    #[test]
    fn revocation_frees_the_slot() {
        let mut t = table();
        let ctx = assign(&mut t, 0);
        let state = t.revoke(ctx).unwrap();
        assert_eq!(state.owner, DomainId::guest(0));
        assert_eq!(t.revoke(ctx), Err(ContextError::NotAssigned(ctx)));
        // The slot is reusable.
        let again = assign(&mut t, 5);
        assert_eq!(again, ctx);
    }

    #[test]
    fn context_of_finds_assignment() {
        let mut t = table();
        let a = assign(&mut t, 0);
        let b = assign(&mut t, 1);
        assert_eq!(t.context_of(DomainId::guest(0)), Some(a));
        assert_eq!(t.context_of(DomainId::guest(1)), Some(b));
        assert_eq!(t.context_of(DomainId::guest(7)), None);
    }

    #[test]
    fn assigned_iterates_in_order() {
        let mut t = table();
        assign(&mut t, 3);
        assign(&mut t, 4);
        let owners: Vec<u16> = t.assigned().map(|(_, s)| s.owner.0).collect();
        assert_eq!(owners, vec![4, 5]); // guest(3)=dom4, guest(4)=dom5
        assert_eq!(t.assigned_count(), 2);
    }

    #[test]
    fn invalid_context_rejected() {
        let t = table();
        assert_eq!(
            t.state(ContextId(200)),
            Err(ContextError::InvalidContext(ContextId(200)))
        );
        assert!(!ContextId(32).is_valid());
        assert!(ContextId(31).is_valid());
    }
}
