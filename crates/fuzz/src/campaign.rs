//! Coverage-guided campaign loop: generations of episodes, energy
//! steered by newly discovered coverage, and a minimized corpus.
//!
//! Coverage is the set of `(persona, outcome label)` pairs observed so
//! far — rejection reasons, device errors, and `fault:<kind>` labels —
//! so a campaign measures how much of the protection surface its
//! personas actually exercised.
//!
//! Each generation first primes the [`ControlKey`]s it has no snapshot
//! of, in key order — each key's rig run to its injection floor — and
//! runs each one's control; then it runs the attacks, each on its own
//! clone of its key's snapshot and judged against the key's one control;
//! then it minimises the specs that discovered points in it, with one
//! halving chain each on clones of the same snapshots (a point keeps its
//! first discoverer, so a chain's labels are final once its generation
//! is merged), every halving stopping once its live labels are back.
//! Each of the three passes is one call to the [`cdna_sim::par`] worker
//! pool, and each attack or halving clones its key's snapshot on its
//! own worker. A seeded bug travels in every spec and key
//! ([`EpisodeSpec::mutation`]), so each rig is built with it and acts on
//! it from time zero. A bootstrapping key's snapshot goes at the end of
//! its generation, and the others when the campaign ends. Every run is
//! a pure function of its spec or key and every merge is serial and
//! ordered, so the result is byte-identical for any `--jobs` value.

use std::collections::{BTreeMap, BTreeSet};

use cdna_mem::mutation::MutationKind;
use cdna_sim::par;
use cdna_trace::json::JsonWriter;

use crate::episode::{
    attack_on, control_key, control_on, judge, labels_unless_seen, Control, ControlKey,
    EpisodeSpec, Primed,
};
use crate::persona::{Persona, ALL};

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Master seed; every episode seed derives from it.
    pub seed: u64,
    /// Total episodes to run.
    pub episodes: u32,
    /// Adversarial actions per episode.
    pub actions: u32,
    /// Worker threads (resolved; 1 = inline).
    pub jobs: usize,
    /// Seeded protection-path bug built into every episode's testbed,
    /// if any.
    pub mutation: Option<MutationKind>,
}

impl CampaignConfig {
    /// The default campaign: 64 episodes × 160 actions ≈ 10k+ mutated
    /// interactions.
    pub fn new(seed: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            episodes: 64,
            actions: 160,
            jobs: 1,
            mutation: None,
        }
    }

    /// Shrinks the campaign for smoke tests and CI.
    pub fn quick(mut self) -> CampaignConfig {
        self.episodes = 16;
        self.actions = 40;
        self
    }
}

/// One observed coverage point.
#[derive(Debug, Clone)]
pub struct CoveragePoint {
    /// The persona that produced the label.
    pub persona: Persona,
    /// The outcome label.
    pub label: String,
    /// Total observations across the campaign.
    pub count: u64,
    /// Seed of the episode that first discovered the point.
    pub first_seed: u64,
}

/// A minimized reproducer for one coverage point.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The persona to run.
    pub persona: Persona,
    /// The label this entry reproduces.
    pub label: String,
    /// The discovering episode's seed.
    pub seed: u64,
    /// Minimized action count that still hits the label.
    pub actions: u32,
}

/// A finished campaign: aggregate counters, the coverage map, and the
/// minimized corpus.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The configuration that ran.
    pub config: CampaignConfig,
    /// Episodes actually executed (excluding minimization re-runs).
    pub episodes_run: u64,
    /// Total adversarial interactions injected.
    pub interactions: u64,
    /// Must-reject probes that were accepted.
    pub breaches: u64,
    /// Faults attributed to the attacker's contexts (expected).
    pub attacker_faults: u64,
    /// Faults attributed to victim contexts (must be 0).
    pub victim_faults: u64,
    /// Faults attributed to any non-attacker context (must be 0).
    pub misattributed: u64,
    /// Faults observed in control runs (must be 0).
    pub control_faults: u64,
    /// Episodes whose victim digest diverged from control (must be 0).
    pub digest_mismatches: u64,
    /// Episodes that broke event-channel conservation (must be 0).
    pub evtchn_breaks: u64,
    /// Whether any episode surfaced a protection anomaly.
    pub caught: bool,
    /// The coverage map, sorted by (persona, label).
    pub coverage: Vec<CoveragePoint>,
    /// Minimized reproducers, one per coverage point, same order.
    pub corpus: Vec<CorpusEntry>,
}

/// Splitmix-style episode seed: decorrelates personas and episode
/// counters without any shared RNG state across workers.
fn episode_seed(base: u64, persona_idx: usize, k: u64) -> u64 {
    let mut z = base
        ^ (persona_idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (k + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Largest-remainder apportionment of `budget` across `weights`
/// (deterministic: remainder ties break on the lower index).
fn apportion(budget: u32, weights: &[u64]) -> Vec<u32> {
    let total: u64 = weights.iter().sum::<u64>().max(1);
    let mut shares: Vec<u32> = weights
        .iter()
        .map(|w| ((budget as u64 * w) / total) as u32)
        .collect();
    let assigned: u32 = shares.iter().sum();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (u64::MAX - (budget as u64 * weights[i]) % total, i));
    for idx in 0..(budget - assigned) as usize {
        shares[order[idx % order.len()]] += 1;
    }
    shares
}

/// Minimises `spec` for each of `labels`: halves its action count up to
/// four times, running only the attack on a clone of `primed` (a
/// snapshot of the spec's key), and stops once none of the labels
/// survives. Each label's entry keeps the last halving before the label
/// first disappeared.
fn minimise(primed: &Primed, spec: EpisodeSpec, labels: Vec<String>) -> Vec<CorpusEntry> {
    let mut entries: Vec<CorpusEntry> = labels
        .into_iter()
        .map(|label| CorpusEntry {
            persona: spec.persona,
            label,
            seed: spec.seed,
            actions: spec.actions,
        })
        .collect();
    let mut live: Vec<usize> = (0..entries.len()).collect();
    let mut cur = spec.actions;
    for _ in 0..4 {
        let half = cur / 2;
        if half == 0 || live.is_empty() {
            break;
        }
        let wanted: Vec<&str> = live.iter().map(|&i| entries[i].label.as_str()).collect();
        let halved = EpisodeSpec {
            actions: half,
            ..spec
        };
        // `None`: the run stopped once every live label was back.
        if let Some(labels) = labels_unless_seen(primed.clone(), &halved, &wanted) {
            live.retain(|&i| labels.contains_key(&entries[i].label));
        }
        for &i in &live {
            entries[i].actions = half;
        }
        cur = half;
    }
    entries
}

/// Runs `f` over the pool for each task, on its own clone of the
/// snapshot of the task's key, made on the worker that runs it.
fn on_clones<T, R, F>(
    jobs: usize,
    snapshots: &BTreeMap<ControlKey, Primed>,
    tasks: Vec<(EpisodeSpec, T)>,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(EpisodeSpec, T, Primed) -> R + Sync,
{
    par::run_indexed(jobs, tasks, |_, (spec, t)| {
        f(spec, t, snapshots[&control_key(&spec)].clone())
    })
}

/// Runs a full campaign. Deterministic for a given config: the same
/// seed/episodes/actions/mutation produce byte-identical
/// [`Campaign::report_json`] and [`Campaign::corpus_json`] for every
/// `jobs` value.
pub fn run_campaign(cfg: &CampaignConfig) -> Campaign {
    // Generation plan: one warm-up episode per persona, then three
    // energy-weighted generations over the remaining budget.
    let warmup = cfg.episodes.min(ALL.len() as u32);
    let rest = cfg.episodes - warmup;
    let spill = rest % 3;
    let gen_budgets = [
        warmup,
        rest / 3 + u32::from(spill > 0),
        rest / 3 + u32::from(spill > 1),
        rest / 3,
    ];

    let mut counters = [0u64; 8];
    let mut energy = [1u64; 8];
    let mut coverage: BTreeMap<(Persona, String), CoveragePoint> = BTreeMap::new();
    let mut controls: BTreeMap<ControlKey, Control> = BTreeMap::new();
    let mut snapshots: BTreeMap<ControlKey, Primed> = BTreeMap::new();
    let mut camp = Campaign {
        config: *cfg,
        episodes_run: 0,
        interactions: 0,
        breaches: 0,
        attacker_faults: 0,
        victim_faults: 0,
        misattributed: 0,
        control_faults: 0,
        digest_mismatches: 0,
        evtchn_breaks: 0,
        caught: false,
        coverage: Vec::new(),
        corpus: Vec::new(),
    };

    for (gen, &budget) in gen_budgets.iter().enumerate() {
        if budget == 0 {
            continue;
        }
        let shares = if gen == 0 {
            // Warm-up: exactly one episode per persona (first `budget`).
            (0..ALL.len())
                .map(|i| u32::from((i as u32) < budget))
                .collect()
        } else {
            apportion(budget, &energy)
        };
        let mut specs = Vec::new();
        for (pidx, &n) in shares.iter().enumerate() {
            for _ in 0..n {
                let seed = episode_seed(cfg.seed, pidx, counters[pidx]);
                counters[pidx] += 1;
                specs.push(EpisodeSpec {
                    persona: ALL[pidx],
                    seed,
                    actions: cfg.actions,
                    mutation: cfg.mutation,
                });
            }
        }
        // Prime the keys without a snapshot, in key order, and run each
        // one's control; the snapshot kept is a clone, which holds no
        // spare capacity. Then the attacks, each on its own clone of its
        // key's snapshot and judged against its key's one control. A key
        // primed again (two bootstrap seeds colliding) reruns a control
        // equal to the one it replaces.
        let fresh: BTreeSet<ControlKey> = specs
            .iter()
            .map(control_key)
            .filter(|k| !snapshots.contains_key(k))
            .collect();
        let primed = par::run_indexed(cfg.jobs, fresh.into_iter().collect(), |_, k| {
            let primed = Primed::at_floor(k);
            let snapshot = primed.clone();
            let control = control_on(primed);
            (k, snapshot, control)
        });
        for (k, snapshot, control) in primed {
            snapshots.insert(k, snapshot);
            controls.insert(k, control);
        }
        let runs = specs.into_iter().map(|spec| (spec, ())).collect();
        let attacks = on_clones(cfg.jobs, &snapshots, runs, |spec, (), primed| {
            (spec, attack_on(primed, &spec))
        });
        // Serial, order-preserving merge: identical for any job count.
        let mut new_points = [0u64; 8];
        let mut chains: BTreeMap<EpisodeSpec, Vec<String>> = BTreeMap::new();
        for (spec, attack) in attacks {
            let o = judge(&spec, attack, &controls[&control_key(&spec)]);
            camp.episodes_run += 1;
            camp.interactions += o.interactions;
            camp.breaches += o.breaches;
            camp.attacker_faults += o.attacker_faults;
            camp.victim_faults += o.victim_faults;
            camp.misattributed += o.misattributed;
            camp.control_faults += o.control_faults;
            camp.digest_mismatches += u64::from(!o.digest_match);
            camp.evtchn_breaks += u64::from(!o.evtchn_conserved);
            camp.caught |= o.caught();
            let pidx = ALL.iter().position(|&p| p == o.spec.persona).unwrap_or(0);
            for (label, &count) in &o.labels {
                let key = (o.spec.persona, label.clone());
                if let Some(point) = coverage.get_mut(&key) {
                    point.count += count;
                } else {
                    new_points[pidx] += 1;
                    coverage.insert(
                        key.clone(),
                        CoveragePoint {
                            persona: o.spec.persona,
                            label: label.clone(),
                            count,
                            first_seed: o.spec.seed,
                        },
                    );
                    chains.entry(o.spec).or_default().push(label.clone());
                }
            }
        }
        // Energy for the next generation: base 1 plus fresh coverage —
        // personas still finding new surface get more episodes.
        for (pidx, e) in energy.iter_mut().enumerate() {
            *e = 1 + new_points[pidx];
        }
        // Minimise with one halving chain per spec that discovered a
        // point here, over the same pool, each chain on its own clone of
        // its key's snapshot. A point keeps its first discoverer, so the
        // chain's labels are final now.
        let chains = chains.into_iter().collect();
        camp.corpus.extend(
            on_clones(cfg.jobs, &snapshots, chains, |spec, labels, primed| {
                minimise(&primed, spec, labels)
            })
            .into_iter()
            .flatten(),
        );
        // Only keys without a bootstrap seed recur in later generations.
        snapshots.retain(|k, _| k.bootstrap_seed.is_none());
    }
    drop(snapshots);

    // Sorting by (persona, label) restores discoverer order.
    camp.corpus
        .sort_by(|a, b| (a.persona, &a.label).cmp(&(b.persona, &b.label)));

    camp.coverage = coverage.into_values().collect();
    camp
}

impl Campaign {
    /// Number of distinct `(persona, label)` coverage points.
    pub fn coverage_points(&self) -> usize {
        self.coverage.len()
    }

    /// Whether every isolation invariant held: no breach, no
    /// cross-guest or control-run fault, no victim divergence, and
    /// event-channel conservation everywhere.
    pub fn isolated(&self) -> bool {
        !self.caught
    }

    /// The campaign report as canonical JSON (`cdna-fuzz/1`). Contains
    /// no wall-clock or host-dependent fields: byte-identical reports
    /// are the determinism contract CI pins.
    pub fn report_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(8192);
        w.begin_object();
        w.key("schema");
        w.string("cdna-fuzz/1");
        w.key("seed");
        w.number_u64(self.config.seed);
        w.key("episodes");
        w.number_u64(self.config.episodes as u64);
        w.key("actions_per_episode");
        w.number_u64(self.config.actions as u64);
        w.key("mutation");
        match self.config.mutation {
            Some(m) => w.string(m.name()),
            None => w.null(),
        }
        w.key("episodes_run");
        w.number_u64(self.episodes_run);
        w.key("interactions");
        w.number_u64(self.interactions);
        w.key("coverage_points");
        w.number_u64(self.coverage.len() as u64);
        w.key("attacker_faults");
        w.number_u64(self.attacker_faults);
        w.key("isolation");
        w.begin_object();
        w.key("breaches");
        w.number_u64(self.breaches);
        w.key("victim_faults");
        w.number_u64(self.victim_faults);
        w.key("misattributed_faults");
        w.number_u64(self.misattributed);
        w.key("control_faults");
        w.number_u64(self.control_faults);
        w.key("digest_mismatches");
        w.number_u64(self.digest_mismatches);
        w.key("evtchn_breaks");
        w.number_u64(self.evtchn_breaks);
        w.end_object();
        w.key("caught");
        w.boolean(self.caught);
        w.key("coverage");
        w.begin_array();
        for p in &self.coverage {
            w.begin_object();
            w.key("persona");
            w.string(p.persona.name());
            w.key("label");
            w.string(&p.label);
            w.key("count");
            w.number_u64(p.count);
            w.key("first_seed");
            w.number_u64(p.first_seed);
            w.end_object();
        }
        w.end_array();
        w.key("corpus_entries");
        w.number_u64(self.corpus.len() as u64);
        w.end_object();
        w.finish()
    }

    /// The minimized corpus as canonical JSON (`cdna-fuzz-corpus/1`).
    pub fn corpus_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(4096);
        w.begin_object();
        w.key("schema");
        w.string("cdna-fuzz-corpus/1");
        w.key("seed");
        w.number_u64(self.config.seed);
        w.key("entries");
        w.begin_array();
        for e in &self.corpus {
            w.begin_object();
            w.key("persona");
            w.string(e.persona.name());
            w.key("label");
            w.string(&e.label);
            w.key("seed");
            w.number_u64(e.seed);
            w.key("actions");
            w.number_u64(e.actions as u64);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::episode::run_attack;

    #[test]
    fn apportion_is_exact_and_deterministic() {
        let shares = apportion(10, &[1, 1, 1, 1, 1, 1, 1, 1]);
        assert_eq!(shares.iter().sum::<u32>(), 10);
        assert_eq!(shares, apportion(10, &[1, 1, 1, 1, 1, 1, 1, 1]));
        let weighted = apportion(10, &[5, 1, 1, 1, 0, 0, 0, 0]);
        assert_eq!(weighted.iter().sum::<u32>(), 10);
        assert!(weighted[0] > weighted[1]);
    }

    #[test]
    fn episode_seeds_are_spread() {
        let a = episode_seed(42, 0, 0);
        let b = episode_seed(42, 0, 1);
        let c = episode_seed(42, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    /// The minimiser with every halving run to the end of its window:
    /// `(label, actions)` per label, in `labels` order.
    fn minimise_with_full_runs(spec: EpisodeSpec, labels: &[String]) -> Vec<(String, u32)> {
        let mut entries: Vec<(String, u32)> =
            labels.iter().map(|l| (l.clone(), spec.actions)).collect();
        let mut live: Vec<usize> = (0..entries.len()).collect();
        let mut cur = spec.actions;
        for _ in 0..4 {
            let half = cur / 2;
            if half == 0 || live.is_empty() {
                break;
            }
            let attack = run_attack(&EpisodeSpec {
                actions: half,
                ..spec
            });
            live.retain(|&i| attack.labels.contains_key(&entries[i].0));
            for &i in &live {
                entries[i].1 = half;
            }
            cur = half;
        }
        entries
    }

    #[test]
    fn stopped_halvings_match_full_runs() {
        let actions = CampaignConfig::new(0).quick().actions;
        let mutations: Vec<Option<MutationKind>> = std::iter::once(None)
            .chain(cdna_mem::mutation::ALL.map(Some))
            .collect();
        par::run_indexed(mutations.len(), mutations, |_, mutation| {
            for persona in ALL {
                for seed in [1, 7, 42] {
                    let spec = EpisodeSpec {
                        persona,
                        seed,
                        actions,
                        mutation,
                    };
                    let labels: Vec<String> = run_attack(&spec).labels.into_keys().collect();
                    let got: Vec<(String, u32)> =
                        minimise(&Primed::at_floor(control_key(&spec)), spec, labels.clone())
                            .into_iter()
                            .map(|e| (e.label, e.actions))
                            .collect();
                    assert_eq!(
                        got,
                        minimise_with_full_runs(spec, &labels),
                        "{} seed {seed} mutation {mutation:?}",
                        persona.name()
                    );
                }
            }
        });
    }
}
