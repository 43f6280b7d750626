//! The cross-job incident warehouse: per-job store shards under secondary
//! indexes, with optional disk-spill of cold shards.
//!
//! A fleet run produces one [`IncidentStore`] per job. The warehouse merges
//! them without flattening: each store stays intact as a *shard* (so per-job
//! queries and postmortems keep working), while four secondary indexes — by
//! machine, by severity, by category, and by time bucket — map straight to
//! dossier references so fleet-wide queries are index lookups instead of
//! scans over every shard. The indexes live in one `PostingIndex`
//! (`crate::index`) behind `Arc<RwLock<_>>`, shared with every epoch
//! snapshot of the resident query plane; the warehouse is its only writer.
//! [`IncidentWarehouse::linear_scan`] is the brute-force oracle the tests
//! compare the indexed paths against.
//!
//! Results are always returned in a canonical order — (start time, job
//! label, seq) — which makes warehouse output independent of shard insertion
//! order.
//!
//! # Posting-list sort invariant
//!
//! Every secondary-index posting list is kept in canonical (start time, job
//! label, seq) order *at insert time*, so queries merge already-sorted runs
//! instead of re-sorting every result set. Two facts make maintenance cheap:
//! per shard, dossiers arrive in ascending `seq` with non-decreasing start
//! times (a job's incidents close in time order — asserted on insert, in
//! release builds too, against the shard's cached last `(at, seq)`), and a
//! fleet run inserts across shards in non-decreasing start-time order, so
//! the canonical insertion point is almost always the tail.
//!
//! # Disk spill
//!
//! With a [`WarehouseStorage`] attached, the warehouse keeps at most
//! `budget` dossiers resident: when an insert pushes the resident total
//! over budget, the coldest shards (least recently inserted into or faulted
//! in) are written to self-describing JSON segment files under `spill_dir`
//! (`segment-NNNN.json`, via the in-repo codec in
//! `byterobust_incident::codec`) and dropped from memory. The four secondary
//! indexes stay hot — every `DossierKey` carries the start time, seq, shard
//! and in-shard position a query needs to plan and resolve — and a query
//! that resolves a key into a spilled shard *faults the whole shard back in*
//! transparently (`&self`, via a per-shard `OnceLock`, so reports stay
//! `Send + Sync`). Spill is invisible to results by construction: the codec
//! round-trip is exact, so queries and rendered reports are byte-identical
//! with spill on or off (pinned by the oracle tests and the
//! `persistence-roundtrip` CI job).
//!
//! # Copy-on-write shard heads
//!
//! Resident shards live behind `Arc<IncidentStore>`. That is what lets the
//! resident query plane (`crate::service::WarehouseService`) publish an
//! *epoch snapshot* after every insert batch as a handful of `Arc` clones:
//! the runner keeps mutating its shard through [`Arc::make_mut`] (which
//! copies the shard only while a snapshot still pins the old head), readers
//! keep the head they pinned, and neither side ever blocks the other.
//! Because per-shard insertion is strictly append-ordered (ascending `seq`,
//! non-decreasing time — asserted), the content of any shard at epoch `N`
//! is a *prefix* of its content at every later epoch, which is what the
//! snapshot plane's prefix-truncated reads, its segment cache, and its
//! reuse of the warehouse's own posting index rely on.
//! Segment files are written via a temp-file + atomic rename so a
//! concurrent snapshot reader faulting a segment in never observes a torn
//! write.
//!
//! The budget is enforced at insert time; the shard currently being
//! inserted into is spilled only as a last resort, so a budget at least as
//! large as the biggest shard keeps ingestion out of write-through (a
//! smaller budget still works, it just re-encodes that shard per insert).
//! Fault-ins on the read path may temporarily raise residency above budget
//! (reads never evict — they hold `&self`); the next insert re-spills down
//! to budget.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard};

use byterobust_cluster::{FaultCategory, FaultKind, MachineId};
use byterobust_incident::codec::{
    check_format, CodecError, Encode, ErrorPosition, JsonValue, FORMAT_VERSION,
};
use byterobust_incident::{IncidentDossier, IncidentQuery, IncidentStore, Postmortem, Severity};
use byterobust_obs::{HistogramSnapshot, LatencyHistogram};
use byterobust_sim::{SimDuration, SimTime};

use crate::index::{merge_sorted, DossierKey, PostingIndex};

/// Format header of one spilled shard segment file.
pub const SEGMENT_FORMAT: &str = "byterobust-warehouse-segment";

/// Format header of a whole-warehouse export
/// ([`IncidentWarehouse::export_json`]).
pub const WAREHOUSE_FORMAT: &str = "byterobust-warehouse";

/// Disk-spill policy for the warehouse: how many dossiers may stay resident,
/// and where cold shards are written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarehouseStorage {
    /// Maximum dossiers kept resident across all shards. Inserting past the
    /// budget spills the coldest shards to `spill_dir`.
    pub budget: usize,
    /// Directory for segment files (created on first spill).
    pub spill_dir: PathBuf,
}

impl WarehouseStorage {
    /// A storage policy.
    pub fn new(budget: usize, spill_dir: impl Into<PathBuf>) -> Self {
        WarehouseStorage {
            budget,
            spill_dir: spill_dir.into(),
        }
    }
}

/// Counters describing what the spill layer has done. Observability only —
/// never rendered into the deterministic report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillStats {
    /// Segment files written (rewrites of a dirty shard count again).
    pub segments_written: usize,
    /// Spilled shards loaded back into memory — by queries, or by an
    /// insert targeting a shard that was spilled in the meantime.
    pub fault_ins: usize,
    /// Dossiers currently resident.
    pub resident_dossiers: usize,
    /// Dossiers currently only on disk.
    pub spilled_dossiers: usize,
    /// Shards currently spilled.
    pub spilled_shards: usize,
    /// Bytes written to segment files over the warehouse's lifetime.
    pub spill_bytes_written: u64,
    /// Bytes read back from segment files by fault-ins.
    pub fault_in_bytes: u64,
}

/// One per-job shard. The label, cached length, and recency stamp always
/// stay in memory; the store itself is either resident (in the `OnceLock`,
/// behind an `Arc` so epoch snapshots can share the head copy-on-write)
/// or spilled to `segment` on disk — or both, when a spilled shard was
/// faulted back in and not modified since (`segment` then names a clean
/// on-disk copy that can be dropped again without rewriting).
#[derive(Debug, Clone)]
struct Shard {
    label: String,
    /// Dossier count, maintained on insert so `len()` and spill accounting
    /// never touch (or fault in) the store.
    len: usize,
    /// `(at, seq)` of the last dossier appended, so the append-order check
    /// never touches (or faults in) the store either.
    last: Option<(SimTime, u64)>,
    /// Monotone recency stamp, bumped on insert; the smallest stamp is the
    /// coldest shard and spills first. (Fault-ins hold `&self` and do not
    /// refresh it: recency means insert recency.)
    last_touch: u64,
    resident: OnceLock<Arc<IncidentStore>>,
    /// Path of the shard's segment file, when the on-disk copy is current.
    segment: Option<PathBuf>,
}

/// One shard's head as captured by an epoch publish: the label, the dossier
/// count at capture time, and either the resident store (`Arc`-shared,
/// copy-on-write) or the segment file it was spilled to. Consumed by the
/// resident query plane in `crate::service`.
#[derive(Debug, Clone)]
pub(crate) struct ShardHead {
    pub(crate) label: String,
    pub(crate) len: usize,
    pub(crate) content: ShardContent,
}

/// Where a captured shard head's dossiers live.
#[derive(Debug, Clone)]
pub(crate) enum ShardContent {
    /// The head pins the resident store at capture time.
    Resident(Arc<IncidentStore>),
    /// The shard was spilled when captured; the segment file holds exactly
    /// the head's `len` dossiers at capture time, and — because segments
    /// are only rewritten with strictly more appended dossiers — at least
    /// `len` at any later time.
    Spilled(PathBuf),
}

/// One query result: the job the incident belongs to, and its dossier.
#[derive(Debug, Clone, Copy)]
pub struct WarehouseHit<'a> {
    /// Label of the job whose store holds the dossier.
    pub job: &'a str,
    /// The dossier itself.
    pub dossier: &'a IncidentDossier,
}

impl WarehouseHit<'_> {
    /// The (job, seq) identity of the hit, the canonical comparison key for
    /// equivalence tests.
    pub fn id(&self) -> (&str, u64) {
        (self.job, self.dossier.seq)
    }
}

/// The indexed, sharded fleet incident warehouse.
#[derive(Debug)]
pub struct IncidentWarehouse {
    bucket_width: SimDuration,
    storage: Option<WarehouseStorage>,
    shards: Vec<Shard>,
    /// Label → shard index, so the per-insert shard lookup is a map probe
    /// instead of a linear scan over every job label.
    shard_by_label: BTreeMap<String, usize>,
    /// The secondary indexes, shared with every epoch snapshot published
    /// from this warehouse (see `crate::index`). Only inserts write it.
    index: Arc<RwLock<PostingIndex>>,
    /// Recency clock for the spill policy.
    touch_clock: u64,
    /// Segment files written so far.
    segments_written: usize,
    /// Bytes written to segment files so far.
    spill_bytes_written: u64,
    /// Fault-ins performed by the read path (atomic: reads hold `&self`,
    /// and reports are shared across harness threads).
    fault_ins: AtomicUsize,
    /// Bytes read back from segment files by fault-ins (atomic: read path).
    fault_in_bytes: AtomicU64,
    /// Wall-clock latency of queries answered entirely from resident shards.
    /// Self-profiling domain: never rendered into the deterministic report.
    query_hot_nanos: LatencyHistogram,
    /// Wall-clock latency of queries that faulted at least one spilled shard
    /// back in.
    query_faulted_nanos: LatencyHistogram,
}

impl Clone for IncidentWarehouse {
    /// A clone is a fully in-memory snapshot: every spilled shard is faulted
    /// resident first, and the clone carries neither segment paths nor a
    /// storage policy. Sharing either would be corruption waiting to happen —
    /// two warehouses tracking clean/dirty state over the same
    /// `segment-NNNN.json` files would overwrite each other's segments.
    fn clone(&self) -> Self {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let resident = OnceLock::new();
                resident
                    .set(self.store_arc_for(index))
                    .expect("fresh cell is empty");
                Shard {
                    label: shard.label.clone(),
                    len: shard.len,
                    last: shard.last,
                    last_touch: shard.last_touch,
                    resident,
                    segment: None,
                }
            })
            .collect();
        IncidentWarehouse {
            bucket_width: self.bucket_width,
            storage: None,
            shards,
            shard_by_label: self.shard_by_label.clone(),
            // A deep copy under a fresh lock: the clone's inserts must not
            // show through snapshots of the original, nor the reverse.
            index: Arc::new(RwLock::new(self.read_index().clone())),
            touch_clock: self.touch_clock,
            segments_written: self.segments_written,
            spill_bytes_written: self.spill_bytes_written,
            fault_ins: AtomicUsize::new(self.fault_ins.load(Ordering::Relaxed)),
            fault_in_bytes: AtomicU64::new(self.fault_in_bytes.load(Ordering::Relaxed)),
            query_hot_nanos: self.query_hot_nanos.clone(),
            query_faulted_nanos: self.query_faulted_nanos.clone(),
        }
    }
}

impl IncidentWarehouse {
    /// An empty warehouse whose time index buckets incident start times at
    /// `bucket_width` granularity. Fully in-memory: shards never spill.
    pub fn new(bucket_width: SimDuration) -> Self {
        Self::build(bucket_width, None)
    }

    /// An empty warehouse that spills cold shards to disk per `storage`.
    pub fn with_storage(bucket_width: SimDuration, storage: WarehouseStorage) -> Self {
        Self::build(bucket_width, Some(storage))
    }

    fn build(bucket_width: SimDuration, storage: Option<WarehouseStorage>) -> Self {
        assert!(
            !bucket_width.is_zero(),
            "time-bucket width must be positive"
        );
        IncidentWarehouse {
            bucket_width,
            storage,
            shards: Vec::new(),
            shard_by_label: BTreeMap::new(),
            index: Arc::new(RwLock::new(PostingIndex::new(bucket_width))),
            touch_clock: 0,
            segments_written: 0,
            spill_bytes_written: 0,
            fault_ins: AtomicUsize::new(0),
            fault_in_bytes: AtomicU64::new(0),
            query_hot_nanos: LatencyHistogram::new(),
            query_faulted_nanos: LatencyHistogram::new(),
        }
    }

    /// The time-bucket width in effect.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket_width
    }

    /// The disk-spill policy, if one is attached.
    pub fn storage(&self) -> Option<&WarehouseStorage> {
        self.storage.as_ref()
    }

    /// What the spill layer has done so far.
    pub fn spill_stats(&self) -> SpillStats {
        let mut stats = SpillStats {
            segments_written: self.segments_written,
            fault_ins: self.fault_ins.load(Ordering::Relaxed),
            spill_bytes_written: self.spill_bytes_written,
            fault_in_bytes: self.fault_in_bytes.load(Ordering::Relaxed),
            ..SpillStats::default()
        };
        for shard in &self.shards {
            if shard.resident.get().is_some() {
                stats.resident_dossiers += shard.len;
            } else {
                stats.spilled_dossiers += shard.len;
                stats.spilled_shards += 1;
            }
        }
        stats
    }

    fn read_index(&self) -> RwLockReadGuard<'_, PostingIndex> {
        self.index.read().expect("posting index lock")
    }

    /// The shared posting index, captured by an epoch publish beside the
    /// shard heads.
    pub(crate) fn posting_index(&self) -> Arc<RwLock<PostingIndex>> {
        Arc::clone(&self.index)
    }

    /// Captures every shard's head for an epoch publish: resident shards as
    /// `Arc` clones (copy-on-write — later inserts copy the shard, the
    /// capture keeps this head), spilled shards as their segment path. Never
    /// touches disk and never faults anything in.
    pub(crate) fn epoch_heads(&self) -> Vec<ShardHead> {
        self.shards
            .iter()
            .map(|shard| ShardHead {
                label: shard.label.clone(),
                len: shard.len,
                content: match shard.resident.get() {
                    Some(arc) => ShardContent::Resident(Arc::clone(arc)),
                    None => ShardContent::Spilled(
                        shard
                            .segment
                            .clone()
                            .expect("a non-resident shard has a segment file"),
                    ),
                },
            })
            .collect()
    }

    fn shard_index(&mut self, job: &str) -> usize {
        match self.shard_by_label.get(job) {
            Some(&index) => index,
            None => {
                let resident = OnceLock::new();
                resident
                    .set(Arc::new(IncidentStore::new()))
                    .expect("fresh cell is empty");
                self.shards.push(Shard {
                    label: job.to_string(),
                    len: 0,
                    last: None,
                    last_touch: self.touch_clock,
                    resident,
                    segment: None,
                });
                let index = self.shards.len() - 1;
                self.shard_by_label.insert(job.to_string(), index);
                index
            }
        }
    }

    /// The path a shard's segment file lives at.
    fn segment_path(dir: &Path, shard_index: usize) -> PathBuf {
        dir.join(format!("segment-{shard_index:04}.json"))
    }

    /// The store of one shard, faulting it in from its segment file if it is
    /// currently spilled. Read path: holds `&self`, never evicts.
    fn store_for(&self, index: usize) -> &IncidentStore {
        let shard = &self.shards[index];
        if shard.resident.get().is_none() {
            self.fault_ins.fetch_add(1, Ordering::Relaxed);
            if let Some(len) = shard
                .segment
                .as_ref()
                .and_then(|path| std::fs::metadata(path).ok())
                .map(|meta| meta.len())
            {
                self.fault_in_bytes.fetch_add(len, Ordering::Relaxed);
            }
        }
        shard.resident.get_or_init(|| {
            let path = shard
                .segment
                .as_ref()
                .expect("a non-resident shard has a segment file");
            let store = load_segment(path, &shard.label, shard.len).unwrap_or_else(|err| {
                panic!(
                    "warehouse segment {} for shard `{}` is unreadable: {err}",
                    path.display(),
                    shard.label
                )
            });
            Arc::new(store)
        })
    }

    /// The `Arc` head of one shard's store (faulting it in first if needed) —
    /// the copy-on-write handle epoch publishes and detached clones share.
    fn store_arc_for(&self, index: usize) -> Arc<IncidentStore> {
        self.store_for(index);
        Arc::clone(
            self.shards[index]
                .resident
                .get()
                .expect("store_for made the shard resident"),
        )
    }

    /// Mutable access to one shard's store (faulting it in first if needed).
    /// The on-disk copy, if any, is invalidated: the caller is about to
    /// change the store. While an epoch snapshot still pins the current head,
    /// `Arc::make_mut` copies the shard and the snapshot keeps the old head —
    /// that is the copy-on-write that makes snapshot reads torn-state-free.
    fn store_mut_for(&mut self, index: usize) -> &mut IncidentStore {
        self.store_for(index);
        let shard = &mut self.shards[index];
        shard.segment = None;
        Arc::make_mut(
            shard
                .resident
                .get_mut()
                .expect("store_for made the shard resident"),
        )
    }

    fn touch(&mut self, index: usize) {
        self.touch_clock += 1;
        self.shards[index].last_touch = self.touch_clock;
    }

    /// Spills the coldest resident shards until the resident dossier total
    /// fits the budget again. No-op without attached storage.
    fn enforce_budget(&mut self) {
        let Some(storage) = self.storage.clone() else {
            return;
        };
        let resident_total = |shards: &[Shard]| -> usize {
            shards
                .iter()
                .filter(|shard| shard.resident.get().is_some())
                .map(|shard| shard.len)
                .sum()
        };
        while resident_total(&self.shards) > storage.budget {
            // Coldest resident, non-empty shard first (empty shards carry no
            // dossiers, so spilling them would not reduce residency) — but
            // the shard that was just inserted into (the one carrying the
            // current clock stamp) only as a last resort. Evicting the
            // insert target eagerly would turn a hot shard bigger than the
            // budget into write-through: every insert re-decoding and
            // re-encoding the whole segment.
            let candidate = |exclude_current: bool| {
                self.shards
                    .iter()
                    .enumerate()
                    .filter(|(_, shard)| shard.resident.get().is_some() && shard.len > 0)
                    .filter(|(_, shard)| !exclude_current || shard.last_touch != self.touch_clock)
                    .min_by_key(|(_, shard)| shard.last_touch)
                    .map(|(index, _)| index)
            };
            let Some(victim) = candidate(true).or_else(|| candidate(false)) else {
                return;
            };
            self.spill_shard(victim, &storage.spill_dir);
        }
    }

    /// Writes one shard's segment file (unless a clean on-disk copy already
    /// exists) and drops the resident store.
    fn spill_shard(&mut self, index: usize, dir: &Path) {
        if self.shards[index].segment.is_none() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|err| panic!("cannot create spill dir {}: {err}", dir.display()));
            let path = Self::segment_path(dir, index);
            let shard = &self.shards[index];
            let store = shard
                .resident
                .get()
                .expect("only resident shards are spilled");
            let document = render_segment(&shard.label, store);
            self.spill_bytes_written += document.len() as u64;
            // Temp-file + atomic rename: a snapshot reader faulting this
            // segment in concurrently sees either the old complete file or
            // the new complete file, never a torn write.
            let tmp = path.with_extension("json.tmp");
            std::fs::write(&tmp, document)
                .unwrap_or_else(|err| panic!("cannot write segment {}: {err}", tmp.display()));
            std::fs::rename(&tmp, &path)
                .unwrap_or_else(|err| panic!("cannot publish segment {}: {err}", path.display()));
            self.segments_written += 1;
            self.shards[index].segment = Some(path);
        }
        self.shards[index].resident.take();
    }

    /// Spills every non-empty resident shard to its segment file regardless
    /// of budget, e.g. to persist a finished run's warehouse into its run
    /// directory, or to set up a deliberately cold warehouse for latency
    /// measurements. No-op without attached storage. Returns the number of
    /// shards dropped from memory.
    pub fn flush_to_disk(&mut self) -> usize {
        let Some(storage) = self.storage.clone() else {
            return 0;
        };
        let mut flushed = 0;
        for index in 0..self.shards.len() {
            if self.shards[index].resident.get().is_some() && self.shards[index].len > 0 {
                self.spill_shard(index, &storage.spill_dir);
                flushed += 1;
            }
        }
        flushed
    }

    /// Inserts one closed incident into the named job's shard and every
    /// secondary index. Posting lists stay canonically ordered (see the
    /// module docs); per shard, dossiers must arrive in ascending `seq` with
    /// non-decreasing start times.
    ///
    /// # Panics
    ///
    /// If `dossier` would not be appended in that order: a mid-shard insert
    /// would move the positions every published snapshot resolves by.
    pub fn insert(&mut self, job: &str, dossier: IncidentDossier) {
        self.insert_shared(job, Arc::new(dossier));
    }

    /// [`insert`](IncidentWarehouse::insert) for a dossier that already lives
    /// behind an `Arc` (typically the job's own incident store): the shard
    /// keeps a reference to the same allocation instead of a deep copy.
    pub fn insert_shared(&mut self, job: &str, dossier: Arc<IncidentDossier>) {
        if let Some(problem) = self.append_order_error(job, &dossier) {
            panic!("per-shard insertions must be in ascending seq / non-decreasing time order: {problem}");
        }
        let shard = self.shard_index(job);
        {
            let shards = &self.shards;
            let mut index = self.index.write().expect("posting index lock");
            index.insert(shard, &dossier, |s| shards[s].label.as_str());
        }
        self.shards[shard].last = Some((dossier.at, dossier.seq));
        self.store_mut_for(shard).insert_shared(dossier);
        self.shards[shard].len += 1;
        self.touch(shard);
        self.enforce_budget();
    }

    /// Why `dossier` cannot be appended to `job`'s shard, if it cannot: its
    /// seq must exceed, and its start time must not precede, the shard's
    /// last dossier.
    fn append_order_error(&self, job: &str, dossier: &IncidentDossier) -> Option<String> {
        let &index = self.shard_by_label.get(job)?;
        let (at, seq) = self.shards[index].last?;
        (seq >= dossier.seq || at > dossier.at).then(|| {
            format!(
                "shard `{job}` ends with #{seq} at {at}; #{} at {} cannot follow it",
                dossier.seq, dossier.at
            )
        })
    }

    /// Ingests a whole per-job store (e.g. from a finished
    /// `byterobust_core::JobReport`'s `incident_store`).
    pub fn ingest_store(&mut self, job: &str, store: &IncidentStore) {
        for dossier in store.all() {
            self.insert_shared(job, Arc::clone(dossier));
        }
    }

    /// The per-job shard for a label, if that job has any incidents. Faults
    /// the shard in if it is spilled.
    pub fn shard(&self, job: &str) -> Option<&IncidentStore> {
        self.shard_by_label
            .get(job)
            .map(|&index| self.store_for(index))
    }

    /// Job labels with at least one incident, sorted. Never faults anything
    /// in: labels live outside the stores.
    pub fn jobs(&self) -> Vec<&str> {
        let mut labels: Vec<&str> = self
            .shards
            .iter()
            .map(|shard| shard.label.as_str())
            .collect();
        labels.sort_unstable();
        labels
    }

    /// Total incidents across every shard (resident or spilled; cached
    /// lengths, no fault-in).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.len).sum()
    }

    /// Whether the warehouse holds no incidents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn resolve(&self, key: DossierKey) -> WarehouseHit<'_> {
        let shard = key.shard as usize;
        WarehouseHit {
            job: &self.shards[shard].label,
            dossier: &self.store_for(shard).all()[key.pos as usize],
        }
    }

    /// Resolves canonically pre-sorted keys and applies the residual filter.
    /// No sorting happens here: insertion maintains the posting-list order
    /// (debug-asserted), and multi-list candidates are merged before the
    /// call.
    fn hits<'a>(
        &'a self,
        keys: impl IntoIterator<Item = DossierKey>,
        query: &IncidentQuery,
    ) -> Vec<WarehouseHit<'a>> {
        let hits: Vec<WarehouseHit<'a>> = keys
            .into_iter()
            .map(|key| self.resolve(key))
            .filter(|hit| query.matches(hit.dossier))
            .collect();
        debug_assert!(
            hits.windows(2).all(|pair| {
                (pair[0].dossier.at, pair[0].job, pair[0].dossier.seq)
                    <= (pair[1].dossier.at, pair[1].job, pair[1].dossier.seq)
            }),
            "candidate keys must arrive canonically sorted"
        );
        hits
    }

    /// Fleet-wide query answered through the most selective applicable index
    /// (the planner shared with the resident query plane: the smallest
    /// machine, category, severity-floor or time-bucket candidate set, else
    /// a scan), with the remaining filters applied to the narrowed
    /// candidate set. Returns exactly what [`IncidentWarehouse::linear_scan`]
    /// would, in the same canonical order — posting lists are kept sorted,
    /// multi-list candidates are merged, nothing is re-sorted. Spilled
    /// shards holding matching dossiers are faulted back in transparently.
    pub fn query(&self, query: &IncidentQuery) -> Vec<WarehouseHit<'_>> {
        // Wall-clock self-profiling wrapper: time the indexed path and file
        // the latency under "hot" (answered entirely from resident shards) or
        // "faulted" (at least one spilled shard came back in). Results are
        // untouched; the timing never reaches the deterministic report.
        let faults_before = self.fault_ins.load(Ordering::Relaxed);
        let started = std::time::Instant::now();
        let (_, lists) = self.read_index().plan(query, None);
        let keys = merge_sorted(lists, |shard| self.shards[shard].label.as_str());
        let hits = self.hits(keys, query);
        let nanos = started.elapsed().as_nanos() as u64;
        if self.fault_ins.load(Ordering::Relaxed) > faults_before {
            self.query_faulted_nanos.record(nanos);
        } else {
            self.query_hot_nanos.record(nanos);
        }
        hits
    }

    /// Wall-clock query-latency histograms in nanoseconds: `(hot, faulted)`,
    /// where hot queries were answered entirely from resident shards and
    /// faulted queries brought at least one spilled shard back in.
    /// Self-profiling domain — never rendered into the deterministic report;
    /// surfaced through `BENCH_obs.json`.
    pub fn query_latency(&self) -> (HistogramSnapshot, HistogramSnapshot) {
        (
            self.query_hot_nanos.snapshot(),
            self.query_faulted_nanos.snapshot(),
        )
    }

    /// Incidents involving a machine, across every job (the cross-job history
    /// the repeat-offender ledger is built from).
    pub fn by_machine(&self, machine: MachineId) -> Vec<WarehouseHit<'_>> {
        self.query(&IncidentQuery::any().machine(machine))
    }

    /// Incidents at least as severe as `floor`, across every job.
    pub fn at_least(&self, floor: Severity) -> Vec<WarehouseHit<'_>> {
        self.query(&IncidentQuery::any().at_least(floor))
    }

    /// Incidents of one category, across every job.
    pub fn by_category(&self, category: FaultCategory) -> Vec<WarehouseHit<'_>> {
        self.query(&IncidentQuery::any().category(category))
    }

    /// Incidents starting in `[from, to)`, across every job, answered through
    /// the time-bucket index.
    pub fn window(&self, from: SimTime, to: SimTime) -> Vec<WarehouseHit<'_>> {
        self.query(&IncidentQuery::any().window(from, to))
    }

    /// The brute-force oracle: evaluates the query by scanning every dossier
    /// of every shard, no indexes involved, with its own full sort — fully
    /// independent of the posting-list sort invariant the indexed path relies
    /// on. Kept for the invariant tests that pin `query == linear_scan`.
    /// Faults in every spilled shard.
    pub fn linear_scan(&self, query: &IncidentQuery) -> Vec<WarehouseHit<'_>> {
        let mut hits: Vec<WarehouseHit<'_>> = (0..self.shards.len())
            .flat_map(|index| {
                let label = self.shards[index].label.as_str();
                self.store_for(index)
                    .all()
                    .iter()
                    .map(move |dossier| WarehouseHit {
                        job: label,
                        dossier,
                    })
            })
            .filter(|hit| query.matches(hit.dossier))
            .collect();
        hits.sort_by(|a, b| {
            (a.dossier.at, a.job, a.dossier.seq).cmp(&(b.dossier.at, b.job, b.dossier.seq))
        });
        hits
    }

    /// Incident counts per severity class across the fleet.
    pub fn severity_counts(&self) -> BTreeMap<Severity, usize> {
        self.read_index().severity_counts(None)
    }

    /// Incident counts per category across the fleet.
    pub fn category_counts(&self) -> BTreeMap<FaultCategory, usize> {
        self.read_index().category_counts(None)
    }

    /// Per-machine incident counts across the fleet (index-sized, no scan).
    pub fn machine_incident_counts(&self) -> BTreeMap<MachineId, usize> {
        self.read_index().machine_counts()
    }

    /// Mean and max resolution time per symptom in seconds, across every
    /// shard (the Table 6 "ours" columns, fleet-wide).
    pub fn resolution_time_by_symptom(&self) -> BTreeMap<FaultKind, (f64, f64)> {
        let mut acc: BTreeMap<FaultKind, Vec<f64>> = BTreeMap::new();
        for index in 0..self.shards.len() {
            for dossier in self.store_for(index).all() {
                acc.entry(dossier.kind)
                    .or_default()
                    .push(dossier.resolution_time().as_secs_f64());
            }
        }
        acc.into_iter()
            .map(|(kind, values)| {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                let max = values.iter().copied().fold(0.0, f64::max);
                (kind, (mean, max))
            })
            .collect()
    }

    /// Fleet-wide attribution scoring: `(matching, total)` incidents whose
    /// concluded cause equals ground truth, per category.
    pub fn attribution_stats(&self) -> BTreeMap<FaultCategory, (usize, usize)> {
        let mut stats: BTreeMap<FaultCategory, (usize, usize)> = BTreeMap::new();
        for index in 0..self.shards.len() {
            for (category, (matching, total)) in self.store_for(index).attribution_stats() {
                let entry = stats.entry(category).or_insert((0, 0));
                entry.0 += matching;
                entry.1 += total;
            }
        }
        stats
    }

    /// Fleet-wide attribution accuracy in `[0, 1]` (1.0 when empty).
    pub fn attribution_accuracy(&self) -> f64 {
        let (matching, total) = self
            .attribution_stats()
            .values()
            .fold((0usize, 0usize), |(m, t), &(dm, dt)| (m + dm, t + dt));
        if total == 0 {
            1.0
        } else {
            matching as f64 / total as f64
        }
    }

    /// Exports the whole warehouse — bucket width plus every shard's store —
    /// as one self-describing JSON document. Shards appear in insertion
    /// order; a re-import rebuilds identical indexes (shard order does not
    /// affect query results — pinned by the merge-determinism tests).
    pub fn export_json(&self) -> String {
        let shards = (0..self.shards.len())
            .map(|index| {
                JsonValue::object(vec![
                    ("job", JsonValue::Str(self.shards[index].label.clone())),
                    ("store", self.store_for(index).encode()),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("format", JsonValue::Str(WAREHOUSE_FORMAT.to_string())),
            ("version", JsonValue::U64(FORMAT_VERSION)),
            (
                "bucket_width_ms",
                JsonValue::U64(self.bucket_width.as_millis()),
            ),
            ("shards", JsonValue::Array(shards)),
        ])
        .render()
    }

    /// Imports a warehouse previously written by
    /// [`IncidentWarehouse::export_json`], rebuilding every secondary index.
    /// The imported warehouse is fully in-memory (attach storage by
    /// re-ingesting into [`IncidentWarehouse::with_storage`] if spill is
    /// wanted). Never panics on corrupt input: a shard whose dossiers go
    /// back in seq or start time is an error at that dossier's path.
    pub fn import_json(text: &str) -> Result<IncidentWarehouse, CodecError> {
        let document = JsonValue::parse(text)?;
        check_format(&document, WAREHOUSE_FORMAT)?;
        let bucket_ms: u64 = document.field("bucket_width_ms")?;
        if bucket_ms == 0 {
            return Err(CodecError::other(
                "bucket_width_ms must be positive".to_string(),
            ));
        }
        let mut warehouse = IncidentWarehouse::new(SimDuration::from_millis(bucket_ms));
        let shards: Vec<(String, IncidentStore)> = match document.get("shards") {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|item| {
                    let job: String = item.field("job")?;
                    let store: IncidentStore = item.field("store")?;
                    Ok((job, store))
                })
                .collect::<Result<_, CodecError>>()?,
            _ => {
                return Err(CodecError::other(
                    "missing or non-array `shards`".to_string(),
                ))
            }
        };
        for (i, (job, store)) in shards.iter().enumerate() {
            for (j, dossier) in store.all().iter().enumerate() {
                if let Some(message) = warehouse.append_order_error(job, dossier) {
                    return Err(CodecError {
                        at: ErrorPosition::Path(format!("shards[{i}].store.dossiers[{j}]")),
                        message,
                    });
                }
                warehouse.insert_shared(job, Arc::clone(dossier));
            }
        }
        Ok(warehouse)
    }

    /// A deterministic, human-diffable rendering of the warehouse's *entire*
    /// contents: fleet-wide aggregates, then every shard (sorted by label)
    /// with every dossier and its full capture. Two warehouses render the
    /// same digest iff their queryable content is identical, which makes the
    /// digest the byte-for-byte artifact the export→import→render CI
    /// round-trip diffs.
    pub fn render_digest(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "==== IncidentWarehouse digest: {} incidents across {} shards (bucket width {}) ====",
            self.len(),
            self.shards.len(),
            self.bucket_width,
        );
        for (severity, count) in self.severity_counts() {
            let _ = writeln!(out, "  {:>5}: {}", severity.label(), count);
        }
        for (category, count) in self.category_counts() {
            let _ = writeln!(out, "  {category:?}: {count}");
        }
        let _ = writeln!(
            out,
            "  attribution accuracy: {:.6}",
            self.attribution_accuracy()
        );
        for (machine, count) in self.machine_incident_counts() {
            let _ = writeln!(out, "  {machine}: {count} incident(s)");
        }
        for job in self.jobs() {
            let store = self.shard(job).expect("listed job has a shard");
            let _ = writeln!(out, "\n-- shard {job}: {} incident(s)", store.len());
            for dossier in store.all() {
                let evicted: Vec<String> = dossier.evicted.iter().map(|m| m.to_string()).collect();
                let _ = writeln!(
                    out,
                    "  #{} at {} {:?} {} {} {:?}->{:?} evicted=[{}] over={} resumed={}",
                    dossier.seq,
                    dossier.at,
                    dossier.kind,
                    dossier.classification.severity.label(),
                    dossier.classification.rec_code,
                    dossier.root_cause,
                    dossier.concluded_cause,
                    evicted.join(", "),
                    dossier.over_evicted,
                    dossier.resumed_step,
                );
                for entry in &dossier.capture.context {
                    let _ = writeln!(out, "    ctx {entry}");
                }
                for entry in &dossier.capture.window {
                    let _ = writeln!(out, "    win {entry}");
                }
            }
        }
        out
    }

    /// Postmortems for every incident at least as severe as `floor`, across
    /// every shard, in canonical order.
    pub fn postmortems_at_least(&self, floor: Severity) -> Vec<Postmortem> {
        self.at_least(floor)
            .into_iter()
            .map(|hit| Postmortem::for_dossier(hit.dossier))
            .collect()
    }
}

impl Default for IncidentWarehouse {
    /// One-hour time buckets.
    fn default() -> Self {
        IncidentWarehouse::new(SimDuration::from_hours(1))
    }
}

/// Renders one shard's segment document.
fn render_segment(job: &str, store: &IncidentStore) -> String {
    JsonValue::object(vec![
        ("format", JsonValue::Str(SEGMENT_FORMAT.to_string())),
        ("version", JsonValue::U64(FORMAT_VERSION)),
        ("job", JsonValue::Str(job.to_string())),
        ("store", store.encode()),
    ])
    .render()
}

/// Loads and validates one shard's segment document.
fn load_segment(path: &Path, job: &str, expected_len: usize) -> Result<IncidentStore, CodecError> {
    let store = load_segment_at_least(path, job, expected_len)?;
    if store.len() != expected_len {
        return Err(CodecError::other(format!(
            "segment holds {} dossiers, the index expects {expected_len}",
            store.len()
        )));
    }
    Ok(store)
}

/// Loads one shard's segment document, requiring *at least* `min_len`
/// dossiers instead of an exact count. The snapshot plane's segment cache
/// uses this: a segment may legitimately have been rewritten with more
/// appended dossiers since the epoch that referenced it was published
/// (per-shard content only ever grows), and the epoch's exact content is
/// the first `min_len` dossiers of whatever is on disk.
pub(crate) fn load_segment_at_least(
    path: &Path,
    job: &str,
    min_len: usize,
) -> Result<IncidentStore, CodecError> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| CodecError::other(format!("cannot read segment: {err}")))?;
    let document = JsonValue::parse(&text)?;
    check_format(&document, SEGMENT_FORMAT)?;
    let segment_job: String = document.field("job")?;
    if segment_job != job {
        return Err(CodecError::other(format!(
            "segment belongs to job `{segment_job}`, expected `{job}`"
        )));
    }
    let store: IncidentStore = document.field("store")?;
    if store.len() < min_len {
        return Err(CodecError::other(format!(
            "segment holds {} dossiers, the epoch expects at least {min_len}",
            store.len()
        )));
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_cluster::RootCause;
    use byterobust_incident::{
        ClassificationInput, ClassificationMatrix, IncidentCapture, ResolutionMechanism,
    };
    use byterobust_recovery::FailoverCost;

    fn dossier(
        seq: u64,
        at_hours: u64,
        kind: FaultKind,
        evicted: Vec<MachineId>,
    ) -> IncidentDossier {
        let cost = FailoverCost {
            detection: SimDuration::from_secs(30),
            localization: SimDuration::from_secs(120),
            scheduling: SimDuration::from_secs(60),
            pod_build: SimDuration::ZERO,
            checkpoint_load: SimDuration::from_secs(20),
            recompute: SimDuration::from_secs(15),
        };
        let mechanism = if evicted.is_empty() {
            ResolutionMechanism::Reattempt
        } else {
            ResolutionMechanism::StopTimeEviction
        };
        let classification =
            ClassificationMatrix::byterobust_default().classify(&ClassificationInput {
                category: kind.category(),
                root_cause: RootCause::Infrastructure,
                mechanism,
                blast_radius: evicted.len(),
                over_evicted: false,
                reproducible: true,
                downtime: cost.total(),
            });
        IncidentDossier {
            seq,
            at: SimTime::from_hours(at_hours),
            kind,
            category: kind.category(),
            root_cause: RootCause::Infrastructure,
            concluded_cause: RootCause::Infrastructure,
            mechanism,
            cost,
            evicted,
            over_evicted: false,
            resumed_step: 100 * seq,
            classification,
            capture: IncidentCapture::empty(seq, kind, SimTime::from_hours(at_hours)),
        }
    }

    fn warehouse() -> IncidentWarehouse {
        let mut w = IncidentWarehouse::default();
        fill(&mut w);
        w
    }

    fn fill(w: &mut IncidentWarehouse) {
        w.insert(
            "alpha",
            dossier(1, 1, FaultKind::CudaError, vec![MachineId(3)]),
        );
        w.insert(
            "alpha",
            dossier(2, 5, FaultKind::JobHang, vec![MachineId(4)]),
        );
        w.insert(
            "beta",
            dossier(1, 2, FaultKind::CudaError, vec![MachineId(3)]),
        );
        w.insert(
            "beta",
            dossier(2, 30, FaultKind::CodeDataAdjustment, vec![]),
        );
    }

    fn ids(hits: &[WarehouseHit<'_>]) -> Vec<(String, u64)> {
        hits.iter()
            .map(|h| (h.job.to_string(), h.dossier.seq))
            .collect()
    }

    /// A unique spill dir under the target-adjacent temp root; removed best
    /// effort by the caller.
    fn spill_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "byterobust-warehouse-test-{tag}-{}",
            std::process::id()
        ))
    }

    #[test]
    fn machine_index_spans_jobs() {
        let w = warehouse();
        assert_eq!(
            ids(&w.by_machine(MachineId(3))),
            vec![("alpha".to_string(), 1), ("beta".to_string(), 1)]
        );
        assert_eq!(w.machine_incident_counts()[&MachineId(3)], 2);
        assert!(w.by_machine(MachineId(99)).is_empty());
    }

    #[test]
    fn category_and_severity_indexes() {
        let w = warehouse();
        assert_eq!(w.by_category(FaultCategory::ManualRestart).len(), 1);
        assert_eq!(w.category_counts()[&FaultCategory::Explicit], 2);
        let severe = w.at_least(Severity::Sev3);
        assert_eq!(severe.len(), 3, "evicting incidents are at least Sev3");
    }

    #[test]
    fn window_uses_buckets_but_keeps_half_open_semantics() {
        let w = warehouse();
        let hits = w.window(SimTime::from_hours(1), SimTime::from_hours(5));
        assert_eq!(
            ids(&hits),
            vec![("alpha".to_string(), 1), ("beta".to_string(), 1)]
        );
        assert!(w
            .window(SimTime::from_hours(3), SimTime::from_hours(3))
            .is_empty());
    }

    #[test]
    fn every_indexed_query_matches_the_linear_scan() {
        let w = warehouse();
        let queries = [
            IncidentQuery::any(),
            IncidentQuery::any().machine(MachineId(3)),
            IncidentQuery::any().machine(MachineId(4)),
            IncidentQuery::any().category(FaultCategory::Explicit),
            IncidentQuery::any().at_least(Severity::Sev2),
            IncidentQuery::any().at_least(Severity::Sev4),
            IncidentQuery::any().window(SimTime::ZERO, SimTime::from_hours(6)),
            IncidentQuery::any()
                .machine(MachineId(3))
                .kind(FaultKind::CudaError),
        ];
        for query in queries {
            assert_eq!(
                ids(&w.query(&query)),
                ids(&w.linear_scan(&query)),
                "query {query:?}"
            );
        }
    }

    #[test]
    fn merge_order_does_not_change_results() {
        let mut a = IncidentWarehouse::default();
        let mut b = IncidentWarehouse::default();
        let alpha = [
            dossier(1, 1, FaultKind::CudaError, vec![MachineId(3)]),
            dossier(2, 5, FaultKind::JobHang, vec![MachineId(4)]),
        ];
        let beta = [dossier(1, 2, FaultKind::CudaError, vec![MachineId(3)])];
        for d in &alpha {
            a.insert("alpha", d.clone());
        }
        for d in &beta {
            a.insert("beta", d.clone());
        }
        for d in &beta {
            b.insert("beta", d.clone());
        }
        for d in &alpha {
            b.insert("alpha", d.clone());
        }
        assert_eq!(
            ids(&a.query(&IncidentQuery::any())),
            ids(&b.query(&IncidentQuery::any()))
        );
        assert_eq!(
            ids(&a.by_machine(MachineId(3))),
            ids(&b.by_machine(MachineId(3)))
        );
        assert_eq!(a.jobs(), b.jobs());
    }

    #[test]
    fn spilled_warehouse_answers_queries_identically() {
        let dir = spill_dir("queries");
        let memory = warehouse();
        let mut spilled = IncidentWarehouse::with_storage(
            SimDuration::from_hours(1),
            WarehouseStorage::new(1, &dir),
        );
        fill(&mut spilled);
        // A 1-dossier budget with two 2-dossier shards must have spilled.
        let stats = spilled.spill_stats();
        assert!(
            stats.segments_written >= 1,
            "budget forces a spill: {stats:?}"
        );
        assert!(stats.spilled_shards >= 1);
        assert_eq!(spilled.len(), memory.len(), "len uses cached counts");

        let queries = [
            IncidentQuery::any(),
            IncidentQuery::any().machine(MachineId(3)),
            IncidentQuery::any().category(FaultCategory::Explicit),
            IncidentQuery::any().at_least(Severity::Sev3),
            IncidentQuery::any().window(SimTime::ZERO, SimTime::from_hours(6)),
        ];
        for query in queries {
            assert_eq!(
                ids(&spilled.query(&query)),
                ids(&memory.query(&query)),
                "spill on/off must agree on {query:?}"
            );
            assert_eq!(
                ids(&spilled.query(&query)),
                ids(&spilled.linear_scan(&query)),
                "spilled indexed path must equal its own linear scan on {query:?}"
            );
        }
        assert!(
            spilled.spill_stats().fault_ins >= 1,
            "queries faulted spilled shards back in"
        );
        // Self-profiling side-band: bytes moved both ways, and every query
        // above landed in exactly one of the two latency histograms.
        let stats = spilled.spill_stats();
        assert!(stats.spill_bytes_written > 0);
        assert!(stats.fault_in_bytes > 0);
        let (hot, faulted) = spilled.query_latency();
        assert!(faulted.count() >= 1, "some query faulted a shard in");
        assert!(hot.count() + faulted.count() >= queries.len() as u64 * 2);
        let (memory_hot, memory_faulted) = memory.query_latency();
        assert_eq!(memory_faulted.count(), 0, "nothing spills in memory mode");
        assert!(memory_hot.count() >= queries.len() as u64);
        // Full-content identity, not just ids.
        assert_eq!(spilled.render_digest(), memory.render_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_keeps_aggregates_and_digest_stable() {
        let dir = spill_dir("aggregates");
        let memory = warehouse();
        let mut spilled = IncidentWarehouse::with_storage(
            SimDuration::from_hours(1),
            WarehouseStorage::new(0, &dir),
        );
        fill(&mut spilled);
        // Budget 0: everything non-resident after each insert.
        assert_eq!(spilled.spill_stats().resident_dossiers, 0);
        assert_eq!(spilled.severity_counts(), memory.severity_counts());
        assert_eq!(spilled.category_counts(), memory.category_counts());
        assert_eq!(
            spilled.machine_incident_counts(),
            memory.machine_incident_counts()
        );
        assert_eq!(
            spilled.resolution_time_by_symptom(),
            memory.resolution_time_by_symptom()
        );
        assert_eq!(spilled.attribution_stats(), memory.attribution_stats());
        assert_eq!(spilled.render_digest(), memory.render_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_clean_faulted_in_shard_respills_without_a_rewrite() {
        let dir = spill_dir("clean");
        let mut w = IncidentWarehouse::with_storage(
            SimDuration::from_hours(1),
            WarehouseStorage::new(0, &dir),
        );
        w.insert(
            "alpha",
            dossier(1, 1, FaultKind::CudaError, vec![MachineId(3)]),
        );
        let written_after_insert = w.spill_stats().segments_written;
        // Fault alpha back in with a read…
        assert_eq!(w.by_machine(MachineId(3)).len(), 1);
        assert_eq!(w.spill_stats().resident_dossiers, 1);
        // …then trigger budget enforcement through an insert into another
        // shard. Alpha is clean (unchanged since its spill), so it drops
        // without a second write; only beta's new segment is written.
        w.insert(
            "beta",
            dossier(1, 2, FaultKind::JobHang, vec![MachineId(4)]),
        );
        let stats = w.spill_stats();
        assert_eq!(stats.resident_dossiers, 0);
        assert_eq!(
            stats.segments_written,
            written_after_insert + 1,
            "clean shard must not be rewritten"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clones_of_a_spilled_warehouse_share_no_segment_files() {
        let dir = spill_dir("clone");
        let mut original = IncidentWarehouse::with_storage(
            SimDuration::from_hours(1),
            WarehouseStorage::new(0, &dir),
        );
        fill(&mut original);
        assert!(original.spill_stats().spilled_shards >= 1);
        let snapshot = original.clone();
        let baseline = snapshot.render_digest();
        // The clone is fully resident and detached from disk.
        assert_eq!(snapshot.storage(), None);
        assert_eq!(snapshot.spill_stats().spilled_dossiers, 0);
        // Mutating the original rewrites its segment files; the clone must
        // not notice — it reads nothing from disk.
        original.insert(
            "alpha",
            dossier(9, 40, FaultKind::JobHang, vec![MachineId(8)]),
        );
        std::fs::remove_dir_all(&dir).expect("segments are on disk");
        assert_eq!(snapshot.render_digest(), baseline);
        assert_eq!(snapshot.query(&IncidentQuery::any()).len(), 4);
    }

    #[test]
    fn export_import_round_trips_the_whole_warehouse() {
        let w = warehouse();
        let exported = w.export_json();
        let imported = IncidentWarehouse::import_json(&exported).expect("import succeeds");
        assert_eq!(imported.render_digest(), w.render_digest());
        assert_eq!(imported.export_json(), exported, "export is a fixed point");
        assert_eq!(imported.bucket_width(), w.bucket_width());
        assert_eq!(
            ids(&imported.query(&IncidentQuery::any())),
            ids(&w.query(&IncidentQuery::any()))
        );

        // Corrupt exports fail with an error, never a panic.
        assert!(IncidentWarehouse::import_json(&exported[..exported.len() / 3]).is_err());
        assert!(IncidentWarehouse::import_json("{}").is_err());
        let foreign = exported.replace(WAREHOUSE_FORMAT, "not-a-warehouse");
        assert!(IncidentWarehouse::import_json(&foreign).is_err());
    }

    #[test]
    fn import_rejects_a_shard_that_goes_back_in_time() {
        let mut w = IncidentWarehouse::default();
        w.insert("alpha", dossier(1, 1, FaultKind::CudaError, vec![]));
        w.insert("alpha", dossier(2, 5, FaultKind::JobHang, vec![]));
        let exported = w.export_json();
        // Move the first dossier's start time past the second's.
        let late = SimTime::from_hours(9).as_millis().to_string();
        let early = SimTime::from_hours(1).as_millis().to_string();
        let field = format!("\"at\":{early}");
        assert!(exported.contains(&field), "export names the start time");
        let corrupt = exported.replacen(&field, &format!("\"at\":{late}"), 1);
        let err = IncidentWarehouse::import_json(&corrupt).expect_err("out-of-order shard");
        assert_eq!(
            err.at,
            ErrorPosition::Path("shards[0].store.dossiers[1]".to_string())
        );
        assert!(err.message.contains("#2"), "{err}");
    }

    #[test]
    #[should_panic(expected = "ascending seq / non-decreasing time")]
    fn an_insert_that_goes_back_in_time_panics() {
        let mut w = warehouse();
        w.insert("beta", dossier(3, 29, FaultKind::JobHang, vec![]));
    }

    #[test]
    fn corrupted_segment_faults_are_detected() {
        let dir = spill_dir("corrupt");
        let mut w = IncidentWarehouse::with_storage(
            SimDuration::from_hours(1),
            WarehouseStorage::new(0, &dir),
        );
        w.insert(
            "alpha",
            dossier(1, 1, FaultKind::CudaError, vec![MachineId(3)]),
        );
        let segment = IncidentWarehouse::segment_path(&dir, 0);
        let text = std::fs::read_to_string(&segment).expect("segment exists");
        // Direct decode of a truncated segment is an error, not a panic.
        assert!(load_segment(&segment, "alpha", 1).is_ok());
        std::fs::write(&segment, &text[..text.len() / 2]).unwrap();
        assert!(load_segment(&segment, "alpha", 1).is_err());
        // Wrong-job and wrong-length segments are rejected too.
        std::fs::write(&segment, &text).unwrap();
        assert!(load_segment(&segment, "beta", 1).is_err());
        assert!(load_segment(&segment, "alpha", 2).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
