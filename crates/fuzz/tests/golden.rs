//! Absolute golden for the quick campaign: its `cdna-fuzz/1` report at
//! the default seed, compared byte for byte with the checked-in file.
//! The campaign drives device mailboxes outside the event loop, so this
//! pins how `SystemWorld::absorb_nic_activity` folds the consequences
//! back in. Regenerate with
//!
//! ```sh
//! CDNA_BLESS=1 cargo test -p cdna-fuzz --test golden
//! ```

use std::path::PathBuf;

use cdna_fuzz::{run_campaign, CampaignConfig};

#[test]
fn quick_report_matches_checked_in_golden() {
    let mut got = run_campaign(&CampaignConfig::new(7).quick()).report_json();
    got.push('\n');
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("quick-report.json");
    if std::env::var_os("CDNA_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read golden");
    assert!(
        want == got,
        "quick fuzz report out of date (rerun with CDNA_BLESS=1 if intended):\n  want {want}  got  {got}"
    );
}
