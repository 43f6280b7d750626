//! The posting index: the four secondary indexes of the incident warehouse
//! and the selectivity planner that reads them.
//!
//! One [`PostingIndex`] exists per warehouse. The warehouse owns it behind
//! `Arc<RwLock<_>>` and is its only writer: every insert appends one
//! [`DossierKey`] to the machine, severity, category and time-bucket posting
//! lists, each kept in canonical (start time, job label, seq) order at
//! insert time. Every epoch snapshot of the resident query plane
//! (`crate::service`) shares the same `Arc` instead of building lists of its
//! own.
//!
//! # Visibility
//!
//! Shards are append-only: a dossier's in-shard position (`DossierKey::pos`)
//! never changes, and a shard's content at epoch `N` is a prefix of its
//! content at every later epoch. A reader that sees the first `lens[s]`
//! dossiers of each shard `s` therefore sees exactly the keys with
//! `pos < lens[s]`. Filtering a canonically ordered list keeps it canonical,
//! so the index, however far ahead of a snapshot the writer has moved it,
//! answers every earlier epoch exactly. When the reader's lengths equal the
//! index's own per-shard counts (always, once a run is sealed), the filter
//! is skipped.
//!
//! # Planner
//!
//! [`PostingIndex::plan`] picks one of the four lists by estimated
//! selectivity. Estimates count visible keys only, so they are exact at any
//! epoch and the plan an epoch gets does not depend on how far the writer
//! has moved on. The planner copies the candidate keys out and returns;
//! callers drop the read lock before they merge, resolve or render.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use byterobust_cluster::{FaultCategory, MachineId};
use byterobust_incident::{filter, IncidentDossier, IncidentQuery, Severity};
use byterobust_sim::{SimDuration, SimTime};

/// Which access path the planner chose for one incidents/dossiers query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanChoice {
    /// The machine posting list.
    Machine,
    /// The category posting list.
    Category,
    /// The merged severity-floor posting lists.
    SeverityFloor,
    /// The time-bucket range.
    TimeBucket,
    /// Full scan over every shard prefix.
    Scan,
}

impl PlanChoice {
    /// Stable label for stats and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            PlanChoice::Machine => "machine",
            PlanChoice::Category => "category",
            PlanChoice::SeverityFloor => "severity_floor",
            PlanChoice::TimeBucket => "time_bucket",
            PlanChoice::Scan => "scan",
        }
    }

    pub(crate) const ALL: [PlanChoice; 5] = [
        PlanChoice::Machine,
        PlanChoice::Category,
        PlanChoice::SeverityFloor,
        PlanChoice::TimeBucket,
        PlanChoice::Scan,
    ];
}

/// Reference to one dossier: its start time and seq (the canonical sort
/// fields, so posting lists stay ordered without chasing the shard), its
/// shard, and its position within the shard (how hits are resolved, and how
/// readers decide visibility). 24 bytes: the posting lists hold one key per
/// implicated machine per dossier, so the width shows in the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DossierKey {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) shard: u32,
    pub(crate) pos: u32,
}

impl DossierKey {
    /// The canonical comparison tuple: (start time, job label, seq).
    fn canonical<'a>(self, label: &impl Fn(usize) -> &'a str) -> (SimTime, &'a str, u64) {
        (self.at, label(self.shard as usize), self.seq)
    }
}

/// The four secondary indexes over every dossier inserted so far, plus how
/// many dossiers of each shard they hold. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct PostingIndex {
    bucket_width: SimDuration,
    /// Dossiers indexed so far, per shard (in shard creation order).
    lens: Vec<u32>,
    by_machine: BTreeMap<MachineId, Vec<DossierKey>>,
    by_severity: BTreeMap<Severity, Vec<DossierKey>>,
    by_category: BTreeMap<FaultCategory, Vec<DossierKey>>,
    by_bucket: BTreeMap<u64, Vec<DossierKey>>,
    /// Reused per-insert buffer for the implicated-machine set.
    machine_scratch: Vec<MachineId>,
}

/// Whether a reader that sees the first `lens[s]` dossiers of each shard
/// `s` sees `key`.
fn is_visible(lens: &[usize], key: &DossierKey) -> bool {
    (key.pos as usize) < lens.get(key.shard as usize).copied().unwrap_or(0)
}

/// The number of keys in `list` a reader restricted to `visible` sees
/// (`None`: the reader sees everything indexed).
fn visible_len(list: &[DossierKey], visible: Option<&[usize]>) -> usize {
    match visible {
        None => list.len(),
        Some(lens) => list.iter().filter(|key| is_visible(lens, key)).count(),
    }
}

/// Appends the keys of `list` a reader restricted to `visible` sees to `out`.
fn copy_visible(list: &[DossierKey], visible: Option<&[usize]>, out: &mut Vec<DossierKey>) {
    match visible {
        None => out.extend_from_slice(list),
        Some(lens) => out.extend(list.iter().filter(|key| is_visible(lens, key))),
    }
}

/// Per-key visible counts of one index, omitting keys nothing visible
/// posts under.
fn histogram<K: Copy + Ord>(
    lists: &BTreeMap<K, Vec<DossierKey>>,
    visible: Option<&[usize]>,
) -> BTreeMap<K, usize> {
    lists
        .iter()
        .map(|(&key, list)| (key, visible_len(list, visible)))
        .filter(|&(_, count)| count > 0)
        .collect()
}

impl PostingIndex {
    /// An empty index bucketing start times at `bucket_width`.
    pub(crate) fn new(bucket_width: SimDuration) -> PostingIndex {
        PostingIndex {
            bucket_width,
            lens: Vec::new(),
            by_machine: BTreeMap::new(),
            by_severity: BTreeMap::new(),
            by_category: BTreeMap::new(),
            by_bucket: BTreeMap::new(),
            machine_scratch: Vec::new(),
        }
    }

    fn bucket_of(&self, at: SimTime) -> u64 {
        (at.as_secs_f64() / self.bucket_width.as_secs_f64()).floor() as u64
    }

    /// Indexes `dossier` as the next position of `shard`. `label` names
    /// every shard, for the canonical order.
    pub(crate) fn insert<'a>(
        &mut self,
        shard: usize,
        dossier: &IncidentDossier,
        label: impl Fn(usize) -> &'a str,
    ) {
        if self.lens.len() <= shard {
            self.lens.resize(shard + 1, 0);
        }
        let key = DossierKey {
            at: dossier.at,
            seq: dossier.seq,
            shard: u32::try_from(shard).expect("shard count fits in u32"),
            pos: self.lens[shard],
        };
        self.lens[shard] = key.pos.checked_add(1).expect("shard length fits in u32");
        let target = key.canonical(&label);
        let post = |postings: &mut Vec<DossierKey>| {
            let at = postings.partition_point(|&k| k.canonical(&label) <= target);
            postings.insert(at, key);
        };
        // Machine index: same "involves" semantics as `IncidentQuery::machine`
        // — the shared filter core is the single source of that set.
        let mut machines = std::mem::take(&mut self.machine_scratch);
        filter::implicated_machines_into(dossier, &mut machines);
        for &machine in &machines {
            post(self.by_machine.entry(machine).or_default());
        }
        self.machine_scratch = machines;
        post(
            self.by_severity
                .entry(dossier.classification.severity)
                .or_default(),
        );
        post(self.by_category.entry(dossier.category).or_default());
        let bucket = self.bucket_of(dossier.at);
        post(self.by_bucket.entry(bucket).or_default());
    }

    /// The visibility filter for a reader that sees the first `lens[s]`
    /// dossiers of each shard: `None` when that is everything indexed.
    fn visibility<'a>(&self, lens: Option<&'a [usize]>) -> Option<&'a [usize]> {
        lens.filter(|lens| {
            lens.len() != self.lens.len()
                || lens.iter().zip(&self.lens).any(|(&a, &b)| a != b as usize)
        })
    }

    /// The posting lists `choice` reads for `query`, each canonically
    /// ordered.
    fn postings(&self, choice: PlanChoice, query: &IncidentQuery) -> Vec<&Vec<DossierKey>> {
        match choice {
            PlanChoice::Machine => query
                .machine
                .and_then(|machine| self.by_machine.get(&machine))
                .into_iter()
                .collect(),
            PlanChoice::Category => query
                .category
                .and_then(|category| self.by_category.get(&category))
                .into_iter()
                .collect(),
            PlanChoice::SeverityFloor => query.min_severity.map_or(Vec::new(), |floor| {
                self.by_severity
                    .iter()
                    .filter(|(severity, _)| severity.is_at_least(floor))
                    .map(|(_, keys)| keys)
                    .collect()
            }),
            // Over-inclusive at both edges; the residual filter enforces the
            // exact half-open window.
            PlanChoice::TimeBucket => query.window.map_or(Vec::new(), |(from, to)| {
                self.by_bucket
                    .range(self.bucket_of(from)..=self.bucket_of(to))
                    .map(|(_, keys)| keys)
                    .collect()
            }),
            PlanChoice::Scan => self.by_bucket.values().collect(),
        }
    }

    /// Chooses the access path for `query` by estimated selectivity and
    /// copies out its candidate keys, for a reader restricted to `lens`
    /// (`None`: everything indexed). Every applicable index's visible
    /// candidate count is exact; the smallest wins, ties break in machine >
    /// category > severity > bucket order for determinism, and a query no
    /// index applies to scans. Each returned list is canonically ordered;
    /// [`merge_sorted`] makes one list of them.
    pub(crate) fn plan(
        &self,
        query: &IncidentQuery,
        lens: Option<&[usize]>,
    ) -> (PlanChoice, Vec<Vec<DossierKey>>) {
        if query.window.is_some_and(|(from, to)| from >= to) {
            return (PlanChoice::TimeBucket, Vec::new());
        }
        let visible = self.visibility(lens);
        let applicable = [
            (query.machine.is_some(), PlanChoice::Machine),
            (query.category.is_some(), PlanChoice::Category),
            (query.min_severity.is_some(), PlanChoice::SeverityFloor),
            (query.window.is_some(), PlanChoice::TimeBucket),
        ];
        // `min_by_key` keeps the first of equal minima: the tie-break order.
        let choice = applicable
            .into_iter()
            .filter_map(|(applies, choice)| applies.then_some(choice))
            .min_by_key(|&choice| {
                self.postings(choice, query)
                    .iter()
                    .map(|keys| visible_len(keys, visible))
                    .sum::<usize>()
            })
            .unwrap_or(PlanChoice::Scan);
        let postings = self.postings(choice, query);
        let copy = |lists: &[&Vec<DossierKey>]| {
            let mut out = Vec::new();
            for keys in lists {
                copy_visible(keys, visible, &mut out);
            }
            out
        };
        let lists = if choice == PlanChoice::SeverityFloor {
            // Severity classes interleave in time: one run per class.
            postings.chunks(1).map(copy).collect()
        } else {
            // One list, or bucket lists whose concatenation in ascending
            // bucket order is canonical: bucket time ranges are disjoint
            // and increasing.
            vec![copy(&postings)]
        };
        (choice, lists)
    }

    /// Visible incident counts per severity class.
    pub(crate) fn severity_counts(&self, lens: Option<&[usize]>) -> BTreeMap<Severity, usize> {
        histogram(&self.by_severity, self.visibility(lens))
    }

    /// Visible incident counts per category.
    pub(crate) fn category_counts(&self, lens: Option<&[usize]>) -> BTreeMap<FaultCategory, usize> {
        histogram(&self.by_category, self.visibility(lens))
    }

    /// Incident counts per implicated machine, over everything indexed.
    pub(crate) fn machine_counts(&self) -> BTreeMap<MachineId, usize> {
        histogram(&self.by_machine, None)
    }
}

/// K-way merge of canonically sorted key lists into one canonically sorted
/// list. `label` names every shard a key refers to.
pub(crate) fn merge_sorted<'a>(
    lists: Vec<Vec<DossierKey>>,
    label: impl Fn(usize) -> &'a str,
) -> Vec<DossierKey> {
    let mut lists: Vec<Vec<DossierKey>> = lists.into_iter().filter(|l| !l.is_empty()).collect();
    if lists.len() <= 1 {
        return lists.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    // Heap entries: (canonical key, list index, position).
    type MergeEntry<'a> = ((SimTime, &'a str, u64), usize, usize);
    let mut heap: BinaryHeap<Reverse<MergeEntry<'a>>> = lists
        .iter()
        .enumerate()
        .map(|(li, list)| Reverse((list[0].canonical(&label), li, 0)))
        .collect();
    while let Some(Reverse((_, li, pos))) = heap.pop() {
        out.push(lists[li][pos]);
        if let Some(&next) = lists[li].get(pos + 1) {
            heap.push(Reverse((next.canonical(&label), li, pos + 1)));
        }
    }
    out
}
