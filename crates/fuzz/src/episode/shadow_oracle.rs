//! The journal-fed shadow sync against the reconcile it replaced.
//!
//! [`SystemWorld::shadow_sync`] folds the protection engines' pin
//! journals into the `DmaShadow` page mirror. Before the journals, each
//! sync gathered every engine-pinned page, sorted the pages into a
//! `(page, pins)` view and merge-walked that view against the previous
//! sync's. [`GatherOracle`] keeps that reconcile, with its own shadow,
//! sequence cursors and audits, and runs beside the world after every
//! sync: the two shadows must be equal (page mirror, sequence streams,
//! violations, event count) and every journal empty.
//!
//! The runs cover `cdna-model` cells at several schedule prefixes, fuzz
//! persona episodes (the stale replayer among them, and one that
//! revokes a victim's contexts mid-run) and each seeded mutation. The
//! module sits under the episode runner because this crate is the one
//! that reaches all three: the persona rig is private to it, and
//! `cdna-model` is a dev-dependency.

use std::collections::BTreeMap;

use cdna_check::shadow::{DmaShadow, ShadowDir};
use cdna_core::DmaPolicy;
use cdna_mem::mutation::{self, MutationKind};
use cdna_mem::PageId;
use cdna_model::{default_matrix, Controller, PermutationQueue};
use cdna_sim::{SimTime, Simulation};
use cdna_system::{IoModel, SystemWorld};
use cdna_trace::Tracer;

use super::{
    control_key, episode_rngs, inject_one, plan_times, rig, EpisodeSpec, Primed, RigState, VICTIMS,
};
use crate::persona::{Persona, ALL};

/// The gather/sort/merge reconcile, run on its own shadow.
#[derive(Default)]
struct GatherOracle {
    shadow: DmaShadow,
    /// Next unread descriptor-ring index per (nic, ctx, dir).
    cursors: BTreeMap<(usize, u8, ShadowDir), u64>,
    /// The engines' pinned-page multiset as of the last sync, ascending.
    view: Vec<(PageId, u32)>,
}

impl GatherOracle {
    /// One sync of `w`, as `shadow_sync` made it before the journals.
    fn sync(&mut self, w: &SystemWorld) {
        let modulus = (w.cfg.ring_size * 2).max(4);
        let mut gathered = Vec::new();
        for (nic, engine) in w.engines.iter().enumerate() {
            for (ctx, st) in engine.contexts().assigned() {
                gathered.extend(pages_of(engine.pinned_runs(ctx)));
                if st.policy != DmaPolicy::Validated {
                    continue;
                }
                let Some((txp, rxp)) = engine.producers(ctx) else {
                    continue;
                };
                for (dir, ring, prod) in [
                    (ShadowDir::Tx, st.tx_ring, txp),
                    (ShadowDir::Rx, st.rx_ring, rxp),
                ] {
                    let cur = self.cursors.entry((nic, ctx.0, dir)).or_insert(0);
                    let oldest = prod.saturating_sub(u64::from(w.cfg.ring_size));
                    if *cur < oldest {
                        self.shadow.reset_seq_on(nic as u16, ctx, dir);
                        *cur = oldest;
                    }
                    let seqs =
                        (*cur..prod).filter_map(|i| w.rings.read(ring, i).ok().map(|d| d.seq));
                    self.shadow
                        .observe_seqs_on(nic as u16, ctx, dir, seqs, modulus);
                    *cur = prod.max(*cur);
                }
            }
        }
        gathered.sort_unstable();
        let mut view: Vec<(PageId, u32)> = Vec::new();
        for page in gathered {
            match view.last_mut() {
                Some((last, pins)) if *last == page => *pins += 1,
                _ => view.push((page, 1)),
            }
        }
        let shadow = &mut self.shadow;
        let (before, after) = (&self.view, &view);
        let (mut i, mut j) = (0, 0);
        loop {
            let heads = before.get(i).into_iter().chain(after.get(j));
            let Some(page) = heads.map(|&(p, _)| p).min() else {
                break;
            };
            let take = |side: &[(PageId, u32)], k: &mut usize| match side.get(*k) {
                Some(&(p, n)) if p == page => {
                    *k += 1;
                    n
                }
                _ => 0,
            };
            let (have, want) = (take(before, &mut i), take(after, &mut j));
            if have == want {
                continue;
            }
            if want > have && shadow.owner(page).is_none() {
                if let Some(owner) = w.mem.info(page).ok().and_then(|info| info.owner) {
                    shadow.on_alloc(owner, page);
                }
            }
            for _ in have..want {
                shadow.on_pin(page);
            }
            for _ in want..have {
                shadow.on_unpin(page);
            }
            if want == 0 {
                if let Some(owner) = shadow.owner(page) {
                    shadow.on_free(owner, page);
                }
            }
        }
        self.view = view;
        // The audit as it was: one page at a time, in gather order.
        for engine in &w.engines {
            for (ctx, _) in engine.contexts().assigned() {
                let pages: Vec<PageId> = pages_of(engine.pinned_runs(ctx)).collect();
                self.shadow
                    .audit_pinned(ctx, pages.into_iter().map(|p| (p, 1)));
            }
        }
        if matches!(w.cfg.io_model, IoModel::Cdna { .. }) {
            self.shadow.audit_mem(&w.mem);
        }
    }

    /// Syncs the oracle with `w`, which has just synced itself, and
    /// requires the two shadows to agree.
    fn check(&mut self, w: &SystemWorld, what: &str) {
        self.sync(w);
        let Some(shadow) = w.shadow() else {
            unreachable!("{what}: shadow checker off")
        };
        assert_eq!(shadow.violations(), self.shadow.violations(), "{what}");
        assert_eq!(shadow.events(), self.shadow.events(), "{what}");
        assert_eq!(
            shadow.pages_tracked(),
            self.shadow.pages_tracked(),
            "{what}"
        );
        assert!(*shadow == self.shadow, "{what}: page mirrors differ");
        for (nic, engine) in w.engines.iter().enumerate() {
            assert_eq!(engine.pin_journal(), Some(&[][..]), "{what}: nic {nic}");
        }
    }
}

/// Every page of every run, in order.
fn pages_of(runs: impl Iterator<Item = (PageId, u32)>) -> impl Iterator<Item = PageId> {
    runs.flat_map(|(first, len)| (first.0..first.0 + len).map(PageId))
}

/// Steps `sim` through its `StopMeasure` event, checks `oracle` right
/// after that event's own shadow sync (the `shadow_audit` trace instant
/// it records last), then runs on to `end`. Stepping, not `run_until`:
/// the model's jitter window may deliver `StopMeasure` before `end`.
fn run_through_stop(
    sim: &mut Simulation<SystemWorld>,
    end: SimTime,
    oracle: &mut GatherOracle,
    what: &str,
) {
    sim.attach_tracer(Tracer::new(64));
    let synced = |sim: &Simulation<SystemWorld>| {
        sim.tracer()
            .and_then(|t| t.events().last())
            .is_some_and(|e| e.name == "shadow_audit")
    };
    while !synced(sim) {
        assert!(sim.step(), "{what}: no StopMeasure");
    }
    sim.take_tracer();
    oracle.check(sim.world(), &format!("{what}, StopMeasure sync"));
    sim.run_until(end);
}

/// The first `schedules` schedules of every `cdna-model` cell at a 1 ms
/// window, built with `mutation`, each with an extra sync halfway, the
/// `StopMeasure` sync and the post-run sync; returns the shadow
/// violations they found.
fn model_cells(schedules: usize, mutation: Option<MutationKind>, label: &str) -> usize {
    let mut found = 0;
    for job in default_matrix(1000, 1, 64, 2000) {
        let mut primed = SystemWorld::build(job.cfg.clone().with_mutation(mutation));
        let events = primed.prime();
        let end = job.cfg.warmup + job.cfg.measure;
        let mut prefix = Vec::new();
        for n in 0..schedules {
            let what = format!("{label} {} schedule {n}", job.label);
            let queue =
                PermutationQueue::new(Controller::new(prefix, job.max_depth), job.tie_window);
            let mut sim = Simulation::with_event_queue(primed.clone(), queue);
            for (at, e) in &events {
                sim.schedule(*at, e.clone());
            }
            let mut oracle = GatherOracle::default();
            sim.run_until(SimTime::from_ns(end.as_ns() / 2));
            sim.world_mut().shadow_sync();
            oracle.check(sim.world(), &format!("{what}, halfway"));
            run_through_stop(&mut sim, end, &mut oracle, &what);
            let next = sim
                .queue_mut::<PermutationQueue>()
                .and_then(|q| q.ctrl.next_prefix());
            let mut world = sim.into_world();
            world.shadow_sync();
            oracle.check(&world, &format!("{what}, post-run"));
            found += oracle.shadow.violations().len();
            let Some(next) = next else {
                break;
            };
            prefix = next;
        }
    }
    found
}

/// `spec`'s attack run with a sync every fourth injection, the
/// `StopMeasure` sync and a post-run sync; with `revoke_at`, victim
/// guest 1 loses its contexts before that injection. Returns the
/// shadow violations found.
fn persona_episode(spec: &EpisodeSpec, revoke_at: Option<usize>, label: &str) -> usize {
    let what = format!("{label} {} seed {}", spec.persona.name(), spec.seed);
    let mut act_rng = episode_rngs(spec.seed).1;
    let Primed {
        mut sim,
        pages,
        end,
    } = rig(control_key(spec));
    let mut oracle = GatherOracle::default();
    let (mut labels, mut interactions, mut breaches) = (BTreeMap::new(), 0, 0);
    let mut scratch = cdna_net::PciBus::new_64bit_66mhz();
    let mut st = RigState::default();
    for (i, at) in plan_times(spec, &mut act_rng).into_iter().enumerate() {
        sim.run_until(at);
        if i % 4 == 0 {
            sim.world_mut().shadow_sync();
            oracle.check(sim.world(), &format!("{what}, before injection {i}"));
        }
        if revoke_at == Some(i) {
            sim.world_mut().revoke_guest_contexts(VICTIMS - 1);
        }
        inject_one(
            &mut sim,
            spec.persona,
            at,
            &mut act_rng,
            &pages,
            &mut scratch,
            &mut st,
            &mut labels,
            &mut interactions,
            &mut breaches,
        );
    }
    run_through_stop(&mut sim, end, &mut oracle, &what);
    let mut world = sim.into_world();
    world.shadow_sync();
    oracle.check(&world, &format!("{what}, post-run"));
    oracle.shadow.violations().len()
}

/// Every shadow-checked persona (the IOMMU escape runs without the
/// shadow) at `seed`, built with `mutation`; returns the shadow
/// violations found.
fn personas(seed: u64, actions: u32, mutation: Option<MutationKind>, label: &str) -> usize {
    ALL.into_iter()
        .filter(|p| p.policy() == DmaPolicy::Validated)
        .map(|persona| {
            let spec = EpisodeSpec {
                persona,
                seed,
                actions,
                mutation,
            };
            persona_episode(&spec, None, label)
        })
        .sum()
}

#[test]
fn model_cells_match_the_gather_reconcile() {
    assert_eq!(model_cells(3, None, "clean"), 0);
}

#[test]
fn persona_episodes_match_the_gather_reconcile() {
    assert_eq!(personas(5, 16, None, "clean"), 0);
    let replay = EpisodeSpec {
        persona: Persona::StaleReplayer,
        seed: 9,
        actions: 12,
        mutation: None,
    };
    assert_eq!(persona_episode(&replay, None, "clean"), 0);
}

#[test]
fn a_revoked_context_matches_the_gather_reconcile() {
    for persona in [Persona::HypercallCorrupter, Persona::RxCreditCorrupter] {
        let spec = EpisodeSpec {
            persona,
            seed: 3,
            actions: 16,
            mutation: None,
        };
        assert_eq!(persona_episode(&spec, Some(6), "revoked"), 0);
    }
}

#[test]
fn every_mutation_matches_the_gather_reconcile() {
    for m in mutation::ALL {
        let revoked = EpisodeSpec {
            persona: Persona::RxCreditCorrupter,
            seed: 3,
            actions: 16,
            mutation: Some(m),
        };
        let found = model_cells(2, Some(m), m.name())
            + personas(5, 12, Some(m), m.name())
            + persona_episode(&revoked, Some(6), m.name());
        // Event-channel double counting is not the shadow's to see.
        assert_eq!(found > 0, m != MutationKind::IrqDoublePost, "{}", m.name());
    }
}
