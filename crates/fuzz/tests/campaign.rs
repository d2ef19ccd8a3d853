//! Tentpole acceptance: a clean campaign finds broad coverage and no
//! isolation anomaly, and every seeded protection-path mutation is
//! caught by at least one episode.

use cdna_fuzz::{run_campaign, CampaignConfig};
use cdna_mem::mutation;

#[test]
fn clean_campaign_is_isolated_with_broad_coverage() {
    let mut cfg = CampaignConfig::new(7).quick();
    cfg.jobs = 4;
    let camp = run_campaign(&cfg);
    assert!(
        !camp.caught,
        "clean build flagged an isolation anomaly: {}",
        camp.report_json()
    );
    assert!(camp.isolated());
    assert!(
        camp.coverage_points() >= 12,
        "coverage too narrow: {} points",
        camp.coverage_points()
    );
    assert!(camp.interactions >= 1000);
    // Every persona must have produced at least one coverage point.
    for p in cdna_fuzz::ALL {
        assert!(
            camp.coverage.iter().any(|c| c.persona == p),
            "persona {} produced no coverage",
            p.name()
        );
    }
    // Each coverage point has a minimized reproducer no larger than the
    // campaign's action budget.
    assert_eq!(camp.corpus.len(), camp.coverage_points());
    assert!(camp.corpus.iter().all(|e| e.actions <= cfg.actions));
}

#[test]
fn all_seeded_mutations_are_caught() {
    for &m in mutation::ALL.iter() {
        let mut cfg = CampaignConfig::new(7).quick();
        cfg.jobs = 4;
        cfg.mutation = Some(m);
        let camp = run_campaign(&cfg);
        assert!(
            camp.caught,
            "seeded mutation {} escaped the campaign: {}",
            m.name(),
            camp.report_json()
        );
    }
}

#[test]
fn minimized_corpus_entries_still_reproduce_their_label() {
    let mut cfg = CampaignConfig::new(3).quick();
    cfg.jobs = 2;
    let camp = run_campaign(&cfg);
    // Spot-check the three smallest entries (full replay is the
    // minimizer's own job; this guards the serialization contract).
    let mut entries = camp.corpus.clone();
    entries.sort_by_key(|e| e.actions);
    for e in entries.iter().take(3) {
        let o = cdna_fuzz::run_episode(&cdna_fuzz::EpisodeSpec {
            persona: e.persona,
            seed: e.seed,
            actions: e.actions,
            mutation: None,
        });
        assert!(
            o.labels.contains_key(&e.label),
            "corpus entry {}/{} lost its label at {} actions",
            e.persona.name(),
            e.label,
            e.actions
        );
    }
}
