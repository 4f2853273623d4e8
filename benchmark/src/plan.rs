//! Schedules and the oracle.
//!
//! A round's schedule is a pure function of `(workload, seed, round)`
//! and is generated before the clock starts. The generator runs every
//! write through a sequential [`Model`] of the database, so each read
//! in the schedule carries the answer the engine must give: the model
//! *is* the oracle. Keys are partitioned between clients (a client only
//! ever touches accessions whose serial number is its own modulo the
//! client count), which makes those answers independent of how the
//! clients interleave.

use std::collections::BTreeMap;
use std::sync::Arc;

use cdb_core::ShardMap;
use cdb_model::Atom;

use crate::corpus::{self, Fields, EDITABLE, FIELDS};
use crate::rng::Rng;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// 256 entries behind a TCP server over two shards.
    WireSmall,
    /// The same requests at 2 048 entries.
    WireLarge,
    /// Derived reads on fresh snapshots of one in-process database.
    QueryMix,
    /// Release batches, publishes and checkpoints on a paged database.
    ReleaseCycle,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::WireSmall,
        Workload::WireLarge,
        Workload::QueryMix,
        Workload::ReleaseCycle,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSmall => "wire_small",
            Workload::WireLarge => "wire_large",
            Workload::QueryMix => "query_mix",
            Workload::ReleaseCycle => "release_cycle",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client threads (and, for the wire workloads, connections).
    pub fn clients(self) -> usize {
        match self {
            Workload::WireSmall | Workload::WireLarge => 2,
            Workload::QueryMix | Workload::ReleaseCycle => 1,
        }
    }

    /// Whether requests travel over TCP to a sharded server.
    pub fn is_wire(self) -> bool {
        self.clients() == 2
    }

    /// How the workload's database partitions its keys: two uniform
    /// shards behind the server, one database otherwise.
    pub fn shard_map(self) -> ShardMap {
        if self.is_wire() {
            ShardMap::uniform(2)
        } else {
            ShardMap::single()
        }
    }
}

/// How much of a workload one pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The full counts: end-to-end metrics come from this pass.
    Full,
    /// A quarter of the cycles: the traced pass and its untraced twin.
    Quarter,
    /// Tiny sizes and counts; a smoke test, numbers not comparable.
    Quick,
}

/// The `--seconds` value the full counts below were calibrated for on
/// the reference host; other values scale the cycles per round.
pub const RUN_SECONDS: u64 = 20;

/// Sizes and counts of one pass. Fixed numbers, never durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Entries loaded before the first cycle.
    pub entries: usize,
    /// Rounds (each on a fresh directory).
    pub rounds: usize,
    /// Timed cycles per round.
    pub cycles: usize,
}

impl Scale {
    /// The counts of `workload` for `pass`, with `seconds` scaling the
    /// cycles per round relative to [`RUN_SECONDS`].
    pub fn of(workload: Workload, pass: Pass, seconds: u64) -> Scale {
        let (entries, rounds, cycles) = match workload {
            Workload::WireSmall => (256, 8, 8),
            Workload::WireLarge => (2048, 2, 5),
            Workload::QueryMix => (1024, 2, 10),
            Workload::ReleaseCycle => (192, 2, 16),
        };
        let cycles = ((cycles as u64 * seconds.max(1)).div_ceil(RUN_SECONDS) as usize).max(1);
        match pass {
            Pass::Full => Scale {
                entries,
                rounds,
                cycles,
            },
            Pass::Quarter => Scale {
                entries,
                rounds: (rounds / 2).max(1),
                cycles: (cycles / 2).max(1),
            },
            Pass::Quick => Scale {
                entries: entries / 8,
                rounds: 1,
                cycles: 2,
            },
        }
    }
}

/// The shape of a relational read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Indexed point selection on `gn`.
    Point,
    /// Selective self-join on `os`.
    Join,
    /// Union of two projections.
    Union,
    /// The join, evaluated over provenance polynomials ℕ[X].
    KJoin,
    /// The join, evaluated with colour propagation.
    ColoredJoin,
}

/// One request of a client's list.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// Read one field.
    Get {
        /// Entry key.
        key: String,
        /// Field name.
        field: String,
        /// The value the engine must return.
        expect: Atom,
    },
    /// Edit one field.
    Edit {
        /// Entry key.
        key: String,
        /// Field name.
        field: String,
        /// New value.
        value: Atom,
    },
    /// Add a newly authored entry.
    Add {
        /// Entry key.
        key: String,
        /// Its fields.
        fields: Fields,
    },
    /// Attach a note to an entry or one of its fields.
    Annotate {
        /// Entry key.
        key: String,
        /// Field, or the whole entry.
        field: Option<String>,
        /// Note text.
        text: String,
    },
    /// Fuse `absorbed` into `kept`.
    Merge {
        /// Surviving entry.
        kept: String,
        /// Retired entry.
        absorbed: String,
    },
    /// Delete an entry.
    Delete {
        /// Entry key.
        key: String,
    },
    /// List entry keys.
    Entries {
        /// The client's own live keys, sorted.
        expect: Vec<String>,
    },
    /// A relational read over `(ac, gn, os)`.
    Query {
        /// Which query.
        shape: Shape,
        /// First `gn` constant.
        a: Atom,
        /// Second `gn` constant (unused by [`Shape::Point`]).
        b: Atom,
        /// The rows the engine must return, restricted to the client's
        /// own keys and sorted.
        expect: Vec<Vec<Atom>>,
    },
    /// `how_arrived` and `last_modified` of an entry.
    Prov {
        /// Entry key.
        key: String,
        /// Whether the chain must contain a copy from upstream.
        copied: bool,
        /// The transaction `last_modified` must name; `None` where
        /// clients interleave and only "some transaction" is checked.
        last_txn: Option<Option<u64>>,
    },
    /// Copy an entry from the upstream database and paste it.
    CopyPaste {
        /// Key in the upstream database.
        src: String,
        /// Key of the new entry.
        dst: String,
    },
    /// Annotate a cell of the view `σ[gn = gn](ac, gn, de)` by reverse
    /// placement.
    AnnotateView {
        /// The view's `gn` constant.
        gn: Atom,
        /// The target row's entry.
        key: String,
        /// The target row, `(ac, gn, de)`.
        row: Vec<Atom>,
        /// Note text.
        text: String,
    },
    /// Split an entry into two.
    Split {
        /// The entry that is retired.
        original: String,
        /// The new entries.
        parts: Vec<(String, Fields)>,
    },
}

impl Req {
    /// Whether the request is a curation write.
    pub fn is_write(&self) -> bool {
        !matches!(
            self,
            Req::Get { .. } | Req::Entries { .. } | Req::Query { .. } | Req::Prov { .. }
        )
    }
}

/// One read of a published version.
#[derive(Debug, Clone, PartialEq)]
pub enum VersionRead {
    /// Retrieve a whole version.
    Version {
        /// Version id.
        v: u32,
        /// Entries it must hold.
        len: usize,
        /// A key in it.
        key: String,
        /// A field of that key.
        field: String,
        /// The value there.
        expect: Atom,
    },
    /// Cite an entry as of a version.
    Cite {
        /// Version id.
        v: u32,
        /// Entry key.
        key: String,
        /// The version's label.
        label: String,
    },
    /// A field's values across all versions.
    Series {
        /// Entry key.
        key: String,
        /// Field name.
        field: String,
        /// `(version, value)` wherever the field existed.
        expect: Vec<(u32, Atom)>,
    },
}

/// One cycle: each client's request list, then one publish, one
/// checkpoint and a block of version reads.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclePlan {
    /// Request lists, one per client.
    pub clients: Vec<Vec<Req>>,
    /// Label of the cycle's publish.
    pub label: String,
    /// The version reads that follow the checkpoint.
    pub version_reads: Vec<VersionRead>,
}

/// Everything one round does, generated before the clock starts.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    /// The entries loaded during set-up.
    pub corpus: Vec<(String, Fields)>,
    /// The untimed warm-up cycle.
    pub warmup: CyclePlan,
    /// The timed cycles.
    pub cycles: Vec<CyclePlan>,
    /// Every entry the database must hold when the crash image is
    /// taken: after the last cycle's requests, before its publish.
    pub crash_state: BTreeMap<String, Arc<Fields>>,
    /// Notes attached by then to each of those entries (entries
    /// without notes are absent).
    pub crash_notes: BTreeMap<String, u64>,
    /// Bytes of keys, field names and values written in the round.
    pub user_bytes: u64,
}

impl RoundPlan {
    /// A byte string that differs whenever two schedules differ.
    pub fn fingerprint(&self) -> Vec<u8> {
        format!("{self:?}").into_bytes()
    }
}

// ---------------------------------------------------------------- model

/// One entry of the model.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryState {
    /// Field values.
    pub fields: Arc<Fields>,
    /// Whether it was pasted from upstream.
    pub copied: bool,
    /// The last transaction that touched it.
    pub last_txn: u64,
}

type VersionState = Arc<BTreeMap<String, Arc<Fields>>>;

/// A sequential model of the database: the oracle.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// Live entries.
    pub entries: BTreeMap<String, EntryState>,
    /// Notes attached so far, per entry.
    pub notes: BTreeMap<String, u64>,
    /// Published versions: label and content.
    pub versions: Vec<(String, VersionState)>,
    /// Curation transactions committed so far.
    pub txns: u64,
    /// The last transaction that deleted a node.
    pub last_delete: Option<u64>,
    /// Transactions below this id are no longer in the in-memory log
    /// (a reclaiming checkpoint followed by a reopen cut them).
    pub visible_from: u64,
    /// Bytes of keys, field names and values written so far.
    pub user_bytes: u64,
    /// Serial number of the next new accession.
    pub next_serial: usize,
    /// Logical curation time.
    pub clock: u64,
}

impl Model {
    fn commit(&mut self) -> u64 {
        let id = self.txns;
        self.txns += 1;
        id
    }

    /// A new entry created by transaction `last_txn`.
    fn put(&mut self, key: &str, fields: Fields, copied: bool, last_txn: u64) {
        self.user_bytes += key.len() as u64 + corpus::fields_bytes(&fields);
        self.entries.insert(
            key.to_owned(),
            EntryState {
                fields: Arc::new(fields),
                copied,
                last_txn,
            },
        );
    }

    fn insert(&mut self, key: &str, fields: Fields, copied: bool) {
        let id = self.commit();
        self.put(key, fields, copied, id);
    }

    fn remove(&mut self, key: &str) -> EntryState {
        self.entries
            .remove(key)
            .unwrap_or_else(|| panic!("schedule removes {key}, which is not live"))
    }

    /// Applies a write to the model.
    pub fn apply(&mut self, req: &Req, upstream: &BTreeMap<String, Fields>) {
        match req {
            Req::Add { key, fields } => self.insert(key, fields.clone(), false),
            Req::CopyPaste { src, dst } => {
                self.user_bytes += src.len() as u64;
                self.insert(dst, upstream[src].clone(), true);
            }
            Req::Edit { key, field, value } => {
                self.user_bytes += (key.len() + field.len()) as u64 + corpus::atom_bytes(value);
                let id = self.commit();
                let e = self.entries.get_mut(key).expect("edited entry is live");
                Arc::make_mut(&mut e.fields).insert(field.clone(), value.clone());
                e.last_txn = id;
            }
            Req::Annotate { key, field, text } => {
                let field_len = field.as_ref().map_or(0, String::len);
                self.user_bytes += (key.len() + field_len + text.len()) as u64;
                *self.notes.entry(key.clone()).or_default() += 1;
            }
            Req::AnnotateView { key, text, .. } => {
                self.user_bytes += (key.len() + "de".len() + text.len()) as u64;
                *self.notes.entry(key.clone()).or_default() += 1;
            }
            Req::Merge { kept, absorbed } => {
                self.user_bytes += (kept.len() + absorbed.len()) as u64;
                let id = self.commit();
                let gone = self.remove(absorbed);
                let k = self.entries.get_mut(kept).expect("kept entry is live");
                let mut carried = false;
                for (f, v) in gone.fields.iter() {
                    if !k.fields.contains_key(f) {
                        Arc::make_mut(&mut k.fields).insert(f.clone(), v.clone());
                        carried = true;
                    }
                }
                if carried {
                    k.last_txn = id;
                }
                self.last_delete = Some(id);
            }
            Req::Delete { key } => {
                self.user_bytes += key.len() as u64;
                let id = self.commit();
                self.remove(key);
                self.last_delete = Some(id);
            }
            Req::Split { original, parts } => {
                self.user_bytes += original.len() as u64;
                let id = self.commit();
                for (key, fields) in parts {
                    self.put(key, fields.clone(), false, id);
                }
                self.remove(original);
                self.last_delete = Some(id);
            }
            Req::Get { .. } | Req::Entries { .. } | Req::Query { .. } | Req::Prov { .. } => {}
        }
    }

    /// Publishes the current entries as the next version.
    pub fn publish(&mut self, label: &str) {
        let content = self
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.fields.clone()))
            .collect();
        self.versions.push((label.to_owned(), Arc::new(content)));
    }

    /// What `last_modified` must answer for a live entry.
    pub fn last_modified(&self, key: &str) -> Option<u64> {
        let own = self.entries[key].last_txn;
        [Some(own), self.last_delete]
            .into_iter()
            .flatten()
            .filter(|&t| t >= self.visible_from)
            .max()
    }

    /// `(ac, gn, os)` rows of the live entries `keep` accepts.
    fn rows(&self, keep: impl Fn(&str) -> bool) -> Vec<(String, Atom, Atom)> {
        self.entries
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, e)| (k.clone(), e.fields["gn"].clone(), e.fields["os"].clone()))
            .collect()
    }

    /// The answer to a relational read, over the entries `keep`
    /// accepts; `same_part` says whether two keys are evaluated in the
    /// same relation (the same shard).
    pub fn query(
        &self,
        shape: Shape,
        a: &Atom,
        b: &Atom,
        keep: impl Fn(&str) -> bool,
        same_part: impl Fn(&str, &str) -> bool,
    ) -> Vec<Vec<Atom>> {
        let rows = self.rows(keep);
        let key = |k: &String| Atom::Str(k.clone());
        let mut out: Vec<Vec<Atom>> = match shape {
            Shape::Point => rows
                .iter()
                .filter(|r| &r.1 == a)
                .map(|r| vec![key(&r.0), r.1.clone(), r.2.clone()])
                .collect(),
            Shape::Union => rows
                .iter()
                .filter(|r| &r.1 == a || &r.1 == b)
                .map(|r| vec![key(&r.0), r.2.clone()])
                .collect(),
            Shape::Join | Shape::KJoin | Shape::ColoredJoin => {
                let mut pairs = Vec::new();
                for l in rows.iter().filter(|r| &r.1 == a) {
                    for r in rows.iter().filter(|r| &r.1 == b) {
                        if l.2 == r.2 && same_part(&l.0, &r.0) {
                            pairs.push(vec![key(&l.0), key(&r.0)]);
                        }
                    }
                }
                pairs
            }
        };
        out.sort();
        out.dedup();
        out
    }
}

// ------------------------------------------------------------ generator

/// Requests of each kind in one client's list of one cycle.
#[derive(Debug, Clone, Copy, Default)]
struct Mix {
    gets: usize,
    edits: usize,
    adds: usize,
    annotates: usize,
    merges: usize,
    deletes: usize,
    entries: usize,
    queries: usize,
    provs: usize,
}

/// Version reads after each checkpoint.
fn version_reads_per_cycle(workload: Workload) -> usize {
    match workload {
        Workload::ReleaseCycle => 16,
        _ => 8,
    }
}

struct Gen {
    workload: Workload,
    model: Model,
    upstream: BTreeMap<String, Fields>,
    map: ShardMap,
    clients: usize,
    /// Running index of heavy read shapes, so shapes rotate evenly.
    shape_turn: usize,
    merge_turn: usize,
}

const ALL_SHAPES: [Shape; 5] = [
    Shape::Point,
    Shape::Join,
    Shape::Union,
    Shape::KJoin,
    Shape::ColoredJoin,
];

impl Gen {
    fn owner(&self, key: &str) -> usize {
        corpus::serial(key) % self.clients
    }

    fn live(&self, client: usize) -> Vec<&String> {
        self.model
            .entries
            .keys()
            .filter(|k| self.owner(k) == client)
            .collect()
    }

    fn pick(&self, rng: &mut Rng, client: usize) -> String {
        let live = self.live(client);
        live[rng.below(live.len())].clone()
    }

    /// A new accession owned by `client`.
    fn fresh_key(&mut self, client: usize) -> (String, usize) {
        while self.model.next_serial % self.clients != client {
            self.model.next_serial += 1;
        }
        let n = self.model.next_serial;
        self.model.next_serial += 1;
        (corpus::accession(n), n)
    }

    fn get(&self, rng: &mut Rng, client: usize) -> Req {
        let key = self.pick(rng, client);
        let field = FIELDS[rng.below(FIELDS.len())].to_owned();
        let expect = self.model.entries[&key].fields[&field].clone();
        Req::Get { key, field, expect }
    }

    fn edit(&self, rng: &mut Rng, client: usize) -> Req {
        let key = self.pick(rng, client);
        let field = EDITABLE[rng.below(EDITABLE.len())];
        Req::Edit {
            key,
            field: field.to_owned(),
            value: corpus::fresh_value(rng, field),
        }
    }

    fn add(&mut self, rng: &mut Rng, client: usize) -> Req {
        let (key, n) = self.fresh_key(client);
        Req::Add {
            key,
            fields: corpus::fresh_entry(rng, n),
        }
    }

    fn merge(&mut self, rng: &mut Rng, client: usize) -> Req {
        // Wire clients alternate cross-shard (two-phase) and same-shard
        // merges; the single-shard workloads have only the latter.
        let cross = self.workload.is_wire() && self.merge_turn.is_multiple_of(2);
        self.merge_turn += 1;
        let kept = self.pick(rng, client);
        let side = self.map.route(&kept);
        let candidates: Vec<&String> = self
            .live(client)
            .into_iter()
            .filter(|k| **k != kept && (self.map.route(k) == side) != cross)
            .collect();
        let absorbed = candidates[rng.below(candidates.len())].clone();
        Req::Merge { kept, absorbed }
    }

    fn query(&mut self, rng: &mut Rng, client: usize, shape: Shape) -> Req {
        // Constants come from two live entries of the same organism on
        // the same shard, so the join is selective but rarely empty.
        let x = self.pick(rng, client);
        let ex = &self.model.entries[&x];
        let y = self
            .live(client)
            .into_iter()
            .filter(|k| {
                **k != x
                    && self.map.route(k) == self.map.route(&x)
                    && self.model.entries[*k].fields["os"] == ex.fields["os"]
            })
            .nth(rng.below(4))
            .cloned()
            .unwrap_or_else(|| x.clone());
        let a = ex.fields["gn"].clone();
        let b = self.model.entries[&y].fields["gn"].clone();
        let expect = self.model.query(
            shape,
            &a,
            &b,
            |k| self.owner(k) == client,
            |l, r| self.map.route(l) == self.map.route(r),
        );
        Req::Query {
            shape,
            a,
            b,
            expect,
        }
    }

    fn prov(&self, rng: &mut Rng, client: usize) -> Req {
        let key = self.pick(rng, client);
        let e = &self.model.entries[&key];
        Req::Prov {
            copied: e.copied,
            last_txn: (self.clients == 1).then(|| self.model.last_modified(&key)),
            key,
        }
    }

    fn next_shape(&mut self, shapes: &[Shape]) -> Shape {
        let s = shapes[self.shape_turn % shapes.len()];
        self.shape_turn += 1;
        s
    }

    fn push(&mut self, list: &mut Vec<Req>, req: Req) {
        self.model.apply(&req, &self.upstream);
        list.push(req);
    }

    /// A shuffled list with exactly `mix` requests of each kind.
    fn mixed_list(&mut self, rng: &mut Rng, client: usize, mix: Mix, shapes: &[Shape]) -> Vec<Req> {
        let mut kinds: Vec<u8> = Vec::new();
        for (kind, n) in [
            mix.gets,
            mix.edits,
            mix.adds,
            mix.annotates,
            mix.merges,
            mix.deletes,
            mix.entries,
            mix.queries,
            mix.provs,
        ]
        .into_iter()
        .enumerate()
        {
            kinds.extend(std::iter::repeat_n(kind as u8, n));
        }
        rng.shuffle(&mut kinds);
        let mut list = Vec::with_capacity(kinds.len());
        for kind in kinds {
            let req = match kind {
                0 => self.get(rng, client),
                1 => self.edit(rng, client),
                2 => self.add(rng, client),
                3 => {
                    let key = self.pick(rng, client);
                    let field = (rng.below(2) == 0).then(|| "de".to_owned());
                    Req::Annotate {
                        key,
                        field,
                        text: format!("CHECKED AGAINST SOURCE {:08X}", rng.next_u64() as u32),
                    }
                }
                4 => self.merge(rng, client),
                5 => Req::Delete {
                    key: self.pick(rng, client),
                },
                6 => Req::Entries {
                    expect: self.live(client).into_iter().cloned().collect(),
                },
                7 => {
                    let shape = self.next_shape(shapes);
                    self.query(rng, client, shape)
                }
                _ => self.prov(rng, client),
            };
            self.push(&mut list, req);
        }
        list
    }

    /// The wire mix: 50 % get, 30 % edit, 8 % add, 6 % annotate, 3 %
    /// merge, 2 % delete, 1 % entries over TCP; queries and provenance
    /// reads go in-process to the shards' snapshots.
    fn wire_list(&mut self, rng: &mut Rng, client: usize) -> Vec<Req> {
        let (queries, provs) = match self.workload {
            Workload::WireSmall => (2, 13),
            _ => (2, 25),
        };
        let mix = Mix {
            gets: 50,
            edits: 30,
            adds: 8,
            annotates: 6,
            merges: 3,
            deletes: 2,
            entries: 1,
            queries,
            provs,
        };
        self.mixed_list(rng, client, mix, &ALL_SHAPES[..3])
    }

    /// `query_mix`: 16 writes, each followed by 16 reads on a fresh
    /// snapshot.
    fn query_mix_list(&mut self, rng: &mut Rng) -> Vec<Req> {
        let mut list = Vec::new();
        for w in 0..16 {
            let write = match w % 3 {
                0 => self.edit(rng, 0),
                1 => {
                    let src = corpus::accession(rng.below(self.upstream.len()));
                    let (dst, _) = self.fresh_key(0);
                    Req::CopyPaste { src, dst }
                }
                _ => {
                    let key = self.pick(rng, 0);
                    let f = &self.model.entries[&key].fields;
                    Req::AnnotateView {
                        gn: f["gn"].clone(),
                        row: vec![Atom::Str(key.clone()), f["gn"].clone(), f["de"].clone()],
                        key,
                        text: format!("VERIFY DESCRIPTION {:08X}", rng.next_u64() as u32),
                    }
                }
            };
            self.push(&mut list, write);
            let mix = Mix {
                gets: 10,
                provs: 5,
                queries: 1,
                ..Mix::default()
            };
            list.extend(self.mixed_list(rng, 0, mix, &ALL_SHAPES));
        }
        list
    }

    /// `release_cycle`: one release batch (adds dominate, 5 % of the
    /// entries edited, a few deletions, one fusion, one fission) and a
    /// reader's handful of look-ups.
    fn release_list(&mut self, rng: &mut Rng, entries: usize) -> Vec<Req> {
        let mix = Mix {
            gets: 48,
            edits: entries.div_ceil(20),
            adds: 8,
            merges: 1,
            deletes: 2,
            queries: 2,
            provs: 24,
            ..Mix::default()
        };
        let mut list = self.mixed_list(rng, 0, mix, &ALL_SHAPES[..3]);
        let original = self.pick(rng, 0);
        let parts = (0..2)
            .map(|_| {
                let (key, n) = self.fresh_key(0);
                (key, corpus::fresh_entry(rng, n))
            })
            .collect();
        self.push(&mut list, Req::Split { original, parts });
        list
    }

    fn version_reads(&self, rng: &mut Rng) -> Vec<VersionRead> {
        let n = self.model.versions.len() as u32;
        let latest = n - 1;
        (0..version_reads_per_cycle(self.workload))
            .map(|i| {
                // Versions old and new: the first, the latest, one between.
                let v = [0, latest, latest / 2][i % 3];
                let (label, content) = &self.model.versions[v as usize];
                let keys: Vec<&String> = content.keys().collect();
                let key = keys[rng.below(keys.len())].clone();
                let field = EDITABLE[rng.below(EDITABLE.len())].to_owned();
                match (i / 3) % 3 {
                    0 => VersionRead::Version {
                        v,
                        len: content.len(),
                        expect: content[&key][&field].clone(),
                        key,
                        field,
                    },
                    1 => VersionRead::Cite {
                        v,
                        key,
                        label: label.clone(),
                    },
                    _ => {
                        let expect = (0..n)
                            .filter_map(|w| {
                                let fields = self.model.versions[w as usize].1.get(&key)?;
                                Some((w, fields.get(&field)?.clone()))
                            })
                            .collect();
                        VersionRead::Series { key, field, expect }
                    }
                }
            })
            .collect()
    }

    fn cycle(&mut self, rngs: &mut [Rng], entries: usize, number: usize) -> (CyclePlan, Model) {
        let clients = (0..self.clients)
            .map(|c| match self.workload {
                Workload::WireSmall | Workload::WireLarge => self.wire_list(&mut rngs[c], c),
                Workload::QueryMix => self.query_mix_list(&mut rngs[c]),
                Workload::ReleaseCycle => self.release_list(&mut rngs[c], entries),
            })
            .collect();
        let before_publish = self.model.clone();
        let label = format!("release-{number:03}");
        self.model.publish(&label);
        let version_reads = self.version_reads(&mut rngs[0]);
        (
            CyclePlan {
                clients,
                label,
                version_reads,
            },
            before_publish,
        )
    }
}

/// The entries a round loads during set-up; they depend on the seed
/// and the round.
pub fn round_corpus(
    workload: Workload,
    seed: u64,
    round: u64,
    entries: usize,
) -> Vec<(String, Fields)> {
    let corpus_seed = Rng::stream(workload.name(), seed, round, u64::MAX).next_u64();
    corpus::corpus(corpus_seed, entries)
}

/// Generates the schedule of one round.
pub fn round_plan(workload: Workload, seed: u64, round: u64, scale: Scale) -> RoundPlan {
    // The upstream database copy-paste reads from holds the corpus too.
    let corpus = round_corpus(workload, seed, round, scale.entries);
    let mut model = Model {
        next_serial: scale.entries,
        ..Model::default()
    };
    for (key, fields) in &corpus {
        model.insert(key, fields.clone(), false);
    }
    if workload == Workload::ReleaseCycle {
        // Set-up checkpoints with `Retention::Reclaim` and reopens: the
        // load's transactions leave the in-memory log.
        model.visible_from = model.txns;
    }
    let clients = workload.clients();
    let mut gen = Gen {
        workload,
        model,
        upstream: corpus.iter().cloned().collect(),
        map: workload.shard_map(),
        clients,
        shape_turn: 0,
        merge_turn: 0,
    };
    let mut rngs: Vec<Rng> = (0..clients)
        .map(|c| Rng::stream(workload.name(), seed, round, c as u64))
        .collect();
    let (warmup, _) = gen.cycle(&mut rngs, scale.entries, 0);
    let mut cycles = Vec::with_capacity(scale.cycles);
    let mut at_crash = gen.model.clone();
    for i in 0..scale.cycles {
        let (cycle, before_publish) = gen.cycle(&mut rngs, scale.entries, i + 1);
        cycles.push(cycle);
        at_crash = before_publish;
    }
    RoundPlan {
        corpus,
        warmup,
        cycles,
        crash_state: at_crash
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.fields.clone()))
            .collect(),
        crash_notes: at_crash
            .notes
            .iter()
            .filter(|(k, _)| at_crash.entries.contains_key(*k))
            .map(|(k, n)| (k.clone(), *n))
            .collect(),
        user_bytes: gen.model.user_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for w in Workload::ALL {
            let scale = Scale::of(w, Pass::Quick, RUN_SECONDS);
            let a = round_plan(w, 3, 1, scale);
            assert_eq!(a.fingerprint(), round_plan(w, 3, 1, scale).fingerprint());
            assert_ne!(a.fingerprint(), round_plan(w, 4, 1, scale).fingerprint());
            assert_ne!(a.fingerprint(), round_plan(w, 3, 2, scale).fingerprint());
            assert_eq!(a.cycles.len(), scale.cycles);
            assert_eq!(a.warmup.clients.len(), w.clients());
        }
    }

    #[test]
    fn clients_only_touch_their_own_keys() {
        let scale = Scale::of(Workload::WireSmall, Pass::Quick, RUN_SECONDS);
        let plan = round_plan(Workload::WireSmall, 1, 0, scale);
        for cycle in &plan.cycles {
            for (c, list) in cycle.clients.iter().enumerate() {
                for req in list {
                    let keys: Vec<&String> = match req {
                        Req::Get { key, .. }
                        | Req::Edit { key, .. }
                        | Req::Add { key, .. }
                        | Req::Annotate { key, .. }
                        | Req::Delete { key }
                        | Req::Prov { key, .. } => vec![key],
                        Req::Merge { kept, absorbed } => vec![kept, absorbed],
                        _ => vec![],
                    };
                    for k in keys {
                        assert_eq!(corpus::serial(k) % 2, c, "{req:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn wire_mix_has_the_stated_shares_and_both_merge_kinds() {
        let scale = Scale::of(Workload::WireSmall, Pass::Quick, RUN_SECONDS);
        let plan = round_plan(Workload::WireSmall, 9, 0, scale);
        let map = ShardMap::uniform(2);
        let (mut cross, mut same) = (0, 0);
        for list in &plan.cycles[0].clients {
            let count = |f: fn(&Req) -> bool| list.iter().filter(|r| f(r)).count();
            assert_eq!(count(|r| matches!(r, Req::Get { .. })), 50);
            assert_eq!(count(|r| matches!(r, Req::Edit { .. })), 30);
            assert_eq!(count(|r| matches!(r, Req::Add { .. })), 8);
            assert_eq!(count(|r| matches!(r, Req::Annotate { .. })), 6);
            assert_eq!(count(|r| matches!(r, Req::Merge { .. })), 3);
            assert_eq!(count(|r| matches!(r, Req::Delete { .. })), 2);
            assert_eq!(count(|r| matches!(r, Req::Entries { .. })), 1);
            for r in list {
                if let Req::Merge { kept, absorbed } = r {
                    if map.route(kept) == map.route(absorbed) {
                        same += 1;
                    } else {
                        cross += 1;
                    }
                }
            }
        }
        assert_eq!((cross, same), (3, 3));
    }

    #[test]
    fn model_answers_match_hand_computed_rows() {
        let mut m = Model::default();
        let entry = |gn: &str, os: &str| {
            let mut f = Fields::new();
            f.insert("gn".into(), Atom::Str(gn.into()));
            f.insert("os".into(), Atom::Str(os.into()));
            f
        };
        m.insert("A00000", entry("G1", "X"), false);
        m.insert("B00001", entry("G2", "X"), false);
        m.insert("C00002", entry("G2", "Y"), false);
        let (a, b) = (Atom::Str("G1".into()), Atom::Str("G2".into()));
        let all = |_: &str| true;
        let s = |k: &str| Atom::Str(k.into());
        assert_eq!(
            m.query(Shape::Join, &a, &b, all, |_, _| true),
            vec![vec![s("A00000"), s("B00001")]]
        );
        assert_eq!(m.query(Shape::Union, &a, &b, all, |_, _| true).len(), 3);
        assert_eq!(m.query(Shape::Point, &b, &b, all, |_, _| true).len(), 2);
        m.apply(
            &Req::Delete {
                key: "C00002".into(),
            },
            &BTreeMap::new(),
        );
        assert_eq!(m.last_modified("A00000"), Some(3));
        m.visible_from = 4;
        assert_eq!(m.last_modified("A00000"), None);
    }
}
