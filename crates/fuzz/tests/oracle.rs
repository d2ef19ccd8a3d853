//! Oracles for the campaign's run sharing. A campaign runs one control
//! per [`ControlKey`] and one halving chain per discovering spec; these
//! tests rebuild what the per-episode runner did — a control of the
//! episode's own world, and a halving loop per label — and require the
//! same outcomes and the same corpus bytes.

use std::collections::BTreeMap;

use cdna_fuzz::{
    control_key, judge, run_attack, run_campaign, run_control, CampaignConfig, Control,
    CorpusEntry, EpisodeSpec, ALL,
};
use cdna_mem::mutation::MutationKind;

/// The control as the per-episode runner made it: the episode's own
/// world with no action injected, derived from the spec and not from a
/// key.
fn per_episode_control(spec: &EpisodeSpec) -> Control {
    let world = run_attack(&EpisodeSpec {
        actions: 0,
        ..*spec
    });
    Control {
        victim_digest: world.victim_digest,
        faults: world.attacker_faults + world.misattributed,
        evtchn_conserved: world.evtchn_conserved,
    }
}

#[test]
fn shared_controls_match_per_episode_controls() {
    for persona in ALL {
        for seed in [1, 7, 42] {
            let spec = EpisodeSpec {
                persona,
                seed,
                actions: 24,
                mutation: None,
            };
            let shared = run_control(control_key(&spec));
            let own = per_episode_control(&spec);
            assert_eq!(shared, own, "{} seed {seed}", persona.name());
            let attack = run_attack(&spec);
            assert_eq!(
                judge(&spec, attack.clone(), &shared),
                judge(&spec, attack, &own),
                "{} seed {seed}",
                persona.name()
            );
        }
    }
}

#[test]
fn personas_sharing_a_key_share_a_control() {
    let mut by_key: BTreeMap<_, Vec<EpisodeSpec>> = BTreeMap::new();
    for (i, persona) in ALL.into_iter().enumerate() {
        let spec = EpisodeSpec {
            persona,
            seed: 100 + i as u64,
            actions: 24,
            mutation: None,
        };
        by_key.entry(control_key(&spec)).or_default().push(spec);
    }
    assert!(
        by_key.values().any(|specs| specs.len() > 1),
        "no two personas share a key"
    );
    for specs in by_key.values() {
        let first = per_episode_control(&specs[0]);
        for spec in &specs[1..] {
            assert_eq!(
                per_episode_control(spec),
                first,
                "{} and {}",
                specs[0].persona.name(),
                spec.persona.name()
            );
        }
    }
}

/// The minimiser as it was before chains were shared: for each coverage
/// point, halve the discovering spec's actions until the label
/// disappears, at most four times.
fn per_label_corpus(cfg: &CampaignConfig, camp: &cdna_fuzz::Campaign) -> Vec<CorpusEntry> {
    let mut corpus = Vec::new();
    for point in &camp.coverage {
        let spec = EpisodeSpec {
            persona: point.persona,
            seed: point.first_seed,
            actions: cfg.actions,
            mutation: cfg.mutation,
        };
        let mut best = spec.actions;
        let mut cur = spec.actions;
        for _ in 0..4 {
            let half = cur / 2;
            if half == 0 {
                break;
            }
            let attack = run_attack(&EpisodeSpec {
                actions: half,
                ..spec
            });
            if attack.labels.contains_key(&point.label) {
                best = half;
                cur = half;
            } else {
                break;
            }
        }
        corpus.push(CorpusEntry {
            persona: point.persona,
            label: point.label.clone(),
            seed: spec.seed,
            actions: best,
        });
    }
    corpus
}

#[test]
fn shared_chains_match_the_per_label_minimiser() {
    for (seed, m) in [(3, None), (7, None), (7, Some(MutationKind::SeqSkip))] {
        let mut cfg = CampaignConfig::new(seed).quick();
        cfg.mutation = m;
        let camp = run_campaign(&cfg);
        let mut oracle = camp.clone();
        oracle.corpus = per_label_corpus(&cfg, &camp);
        assert_eq!(
            oracle.corpus_json(),
            camp.corpus_json(),
            "seed {seed} mutation {m:?}"
        );
    }
}
