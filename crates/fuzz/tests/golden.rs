//! Absolute goldens for the fuzz campaign: the quick campaign's
//! `cdna-fuzz/1` report and `cdna-fuzz-corpus/1` corpus, the same pair
//! for the default campaign, and the quick pair under each seeded
//! mutation, all at seed 7, compared byte for byte with the checked-in
//! files. The campaign drives device mailboxes outside the event loop,
//! so these pin how `SystemWorld::absorb_nic_activity` folds the
//! consequences back in; the corpora also pin the minimiser, whose
//! halvings stop early once their labels are back. Under a mutation
//! some labels surface only at the end-of-run shadow sync, so those
//! halvings must run to the end. Regenerate with
//!
//! ```sh
//! CDNA_BLESS=1 cargo test -p cdna-fuzz --test golden
//! ```

use std::path::PathBuf;

use cdna_fuzz::{run_campaign, CampaignConfig};
use cdna_mem::mutation;

/// Compares `got` (plus a trailing newline) with `tests/golden/<name>`,
/// or rewrites the file when `CDNA_BLESS=1`.
fn check_golden(name: &str, mut got: String) {
    got.push('\n');
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name);
    if std::env::var_os("CDNA_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read golden");
    assert!(
        want == got,
        "{name} out of date (rerun with CDNA_BLESS=1 if intended):\n  want {want}  got  {got}"
    );
}

#[test]
fn quick_report_matches_checked_in_golden() {
    let camp = run_campaign(&CampaignConfig::new(7).quick());
    check_golden("quick-report.json", camp.report_json());
    check_golden("quick-corpus.json", camp.corpus_json());
}

#[test]
fn default_campaign_matches_checked_in_golden() {
    let camp = run_campaign(&CampaignConfig::new(7));
    check_golden("default-report.json", camp.report_json());
    check_golden("default-corpus.json", camp.corpus_json());
}

#[test]
fn mutated_quick_campaigns_match_checked_in_goldens() {
    for m in mutation::ALL {
        let mut cfg = CampaignConfig::new(7).quick();
        cfg.mutation = Some(m);
        let camp = run_campaign(&cfg);
        check_golden(
            &format!("quick-{}-report.json", m.name()),
            camp.report_json(),
        );
        check_golden(
            &format!("quick-{}-corpus.json", m.name()),
            camp.corpus_json(),
        );
    }
}
