//! The workspace's build policy, checked on the manifests themselves:
//! every dependency is in this repository, every crate inherits the
//! workspace lint tables (`unsafe_code = "forbid"`, `missing_docs =
//! "deny"`, `wildcard_enum_match_arm = "deny"`), so a new crate cannot
//! opt out of any by omission, and `clippy.toml` keeps the hash-map,
//! wall-clock, lock, thread, channel, thread-identity and core-count
//! bans that `cdna-check` relies on instead of rules of its own. No
//! manifest declares or turns on a cargo feature, so every command line
//! builds the same program.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `key = value` lines of the TOML table headed `[name]`.
fn table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The `path = "…"` entries of the top-level TOML array `name = [ … ]`.
fn array_paths<'a>(config: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("{name} = [");
    config
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| *l != "]")
        .filter_map(|l| l.split("path = \"").nth(1)?.split('"').next())
        .collect()
}

/// Every `.rs` file under `dir`, recursively, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `line` without its `//` comment and its string literals' contents.
fn code(line: &str) -> String {
    let line = line.split("//").next().unwrap_or_default();
    line.split('"').step_by(2).collect()
}

fn member_manifests() -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .filter_map(|e| e.ok())
        .map(|e| e.path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    out.sort();
    out.push(root().join("Cargo.toml"));
    out
}

#[test]
fn cargo_lock_has_no_registry_sources() {
    // Path packages carry no `source` key; any registry or git package
    // does, however deep in the graph it sits.
    let lock = read(&root().join("Cargo.lock"));
    let external: Vec<&str> = lock
        .lines()
        .filter(|l| l.trim_start().starts_with("source ="))
        .collect();
    assert!(external.is_empty(), "external packages: {external:?}");
    assert!(
        lock.contains("name = \"cdna-sim\""),
        "lock file looks empty"
    );
}

#[test]
fn every_manifest_inherits_the_workspace_lints() {
    let manifests = member_manifests();
    assert!(manifests.len() >= 15, "missing crate manifests");
    for path in manifests {
        let text = read(&path);
        assert_eq!(
            table(&text, "lints"),
            ["workspace = true"],
            "{} must inherit `[lints] workspace = true`",
            path.display()
        );
    }
}

#[test]
fn no_manifest_declares_or_enables_a_feature() {
    // Cargo unifies features only over the packages one command builds,
    // so a feature would let `cargo run -p X` and a workspace build
    // compile different programs from the same source.
    for path in member_manifests() {
        let text = read(&path);
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or_default();
            let keys: String = line.split('"').step_by(2).collect();
            assert!(
                !keys.contains("features"),
                "{}: `{}` declares or enables a cargo feature",
                path.display(),
                line.trim()
            );
        }
    }
}

#[test]
fn workspace_lints_forbid_unsafe_and_deny_missing_docs() {
    let text = read(&root().join("Cargo.toml"));
    let rust = table(&text, "workspace.lints.rust");
    assert!(rust.contains(&"unsafe_code = \"forbid\""), "{rust:?}");
    assert!(rust.contains(&"missing_docs = \"deny\""), "{rust:?}");
}

#[test]
fn workspace_lints_deny_wildcard_enum_arms() {
    // This lint replaced CDNA010 `exhaustive-fault`: a `_` or
    // bare-binding arm on any enum, the fault enums included, fails
    // clippy, so a new variant forces every handler to decide.
    let text = read(&root().join("Cargo.toml"));
    let clippy = table(&text, "workspace.lints.clippy");
    assert!(
        clippy.contains(&"wildcard_enum_match_arm = \"deny\""),
        "{clippy:?}"
    );
}

#[test]
fn clippy_config_bans_hash_maps_and_the_wall_clock() {
    // `cdna-check` has no rule for these: the wall-clock ban, the
    // hash-map ban and with it hash-ordered merges and `f64`
    // reductions after a fan-out, and the lock ban that replaced
    // CDNA012 `lock-order`, are enforced by clippy through these
    // entries alone.
    let text = read(&root().join("clippy.toml"));
    let types = array_paths(&text, "disallowed-types");
    for ty in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant",
        "std::time::SystemTime",
        "std::sync::Mutex",
        "std::sync::RwLock",
    ] {
        assert!(
            types.contains(&ty),
            "disallowed-types lacks {ty}: {types:?}"
        );
    }
    // The thread and channel entries confine fan-out to
    // `cdna_sim::par`; with them and the lock ban, a worker closure
    // has nothing to merge into in arrival order, which replaced
    // CDNA014 `merge-order` and CDNA017 `float-accum`. The
    // thread-identity and core-count entries keep which worker ran,
    // and how many there are, inside `par` too; with the wall-clock
    // ban and CI's jobs diffs they replaced CDNA015 `clock-purity`
    // and CDNA016 `jobs-leak`.
    let methods = array_paths(&text, "disallowed-methods");
    for m in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::spawn",
        "std::thread::Builder::spawn_scoped",
        "std::sync::mpsc::channel",
        "std::sync::mpsc::sync_channel",
        "std::thread::current",
        "std::thread::available_parallelism",
    ] {
        assert!(
            methods.contains(&m),
            "disallowed-methods lacks {m}: {methods:?}"
        );
    }
}

#[test]
fn only_the_listed_files_expect_a_lock() {
    // `clippy.toml` bans `Mutex` and `RwLock`, so each lock is an
    // `#[expect(clippy::disallowed_types, reason = …)]` in its file.
    // The instant and system-time exceptions name no lock; a file whose
    // code names both the lint and a lock type is a lock exception, and
    // a new one needs an edit here as well as its own reason.
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    let mut locking: Vec<String> = files
        .iter()
        .filter(|path| {
            let lines: Vec<String> = read(path).lines().map(code).collect();
            let names = |words: &[&str]| lines.iter().any(|l| words.iter().any(|w| l.contains(w)));
            names(&["clippy::disallowed_types"]) && names(&["Mutex", "RwLock"])
        })
        .map(|path| {
            path.strip_prefix(root())
                .unwrap_or(path)
                .display()
                .to_string()
        })
        .collect();
    locking.sort();
    assert_eq!(
        locking,
        [
            "crates/fuzz/tests/rack_isolation.rs",
            "crates/sim/src/par.rs"
        ]
    );
}
