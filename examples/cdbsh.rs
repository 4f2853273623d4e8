//! `cdbsh` — an interactive curation shell over the integrated engine.
//!
//! A line-oriented front end exercising the whole public API: curation,
//! annotation, publishing, citation, temporal queries, lifecycle, path
//! queries, SQL over relational views, and the observability layer
//! (`stats`, `trace`, `profile`). Works interactively or with piped
//! scripts:
//!
//! ```console
//! $ cargo run --example cdbsh <<'EOF'
//! new iuphar name
//! add alice GABA-A kind=receptor tm=4
//! add bob 5-HT3 kind=receptor tm=4
//! publish 2008-06
//! edit alice GABA-A tm 5
//! publish 2008-12
//! series GABA-A tm
//! cite 0 GABA-A
//! sql SELECT name FROM entries WHERE tm = 4
//! profile sql SELECT name FROM entries WHERE tm = 4
//! stats
//! path //tm
//! merge alice GABA-A 5-HT3
//! what 5-HT3
//! quit
//! EOF
//! ```
//!
//! Every database the shell holds is a [`ShardedDb`]: `new` and `open`
//! make the one-shard case (the single-node deployment), `shard new`
//! an n-shard one, and each command takes the same path for both. A
//! database opened with `open <name> <key> <dir>` is durable (WAL +
//! group commit) and keeps its `<name>.*` files; `profile add …` then
//! shows the full write path, including the `storage.group.sync` span.

use std::io::{self, BufRead, Write};

use curated_db::model::PathQuery;
use curated_db::obs;
use curated_db::relalg::sql;
use curated_db::server::{Client, Server, ServerConfig, TcpTransport};
use curated_db::{Atom, DbState, ShardMap, ShardedDb, SharedDb};

fn main() {
    let stdin = io::stdin();
    let mut shell = Shell {
        db: None,
        server: None,
        remote: None,
    };
    let mut clock: u64 = 0;
    let interactive = false; // piped-friendly: no prompt echo logic needed

    println!("cdbsh — curated-database shell (type `help`)");
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        clock += 1;
        match run_command(&mut shell, clock, line) {
            Ok(Output::Quit) => break,
            Ok(Output::Text(s)) => println!("{s}"),
            Err(e) => println!("error: {e}"),
        }
        if interactive {
            let _ = io::stdout().flush();
        }
    }
    // Orderly goodbye whether the script said `quit` or just ended:
    // close our own connection first so the drain below doesn't have
    // to force it, then drain the server.
    if let Some(mut client) = shell.remote.take() {
        let _ = client.close();
    }
    if let Some(server) = shell.server.take() {
        let report = server.drain(std::time::Duration::from_secs(5));
        println!(
            "server drained ({} sessions served, {} forced)",
            report.sessions_served, report.forced
        );
    }
}

enum Output {
    Text(String),
    Quit,
}

const NO_DB: &str = "no database: use `new <name> <key>`, `open <name> <key> <dir>` \
                     or `shard new <name> <key> <n>`";

/// Shell state: at most one database — a [`ShardedDb`] over one shard
/// (`new` in memory, `open` durable) or over n (`shard new`) — plus
/// optionally a running TCP server over it (`serve`) and a protocol
/// client (`connect`) that routes curation commands over the wire.
struct Shell {
    db: Option<ShardedDb>,
    server: Option<Server>,
    remote: Option<Client<TcpTransport>>,
}

impl Shell {
    fn db(&self) -> Result<&ShardedDb, String> {
        self.db.as_ref().ok_or_else(|| NO_DB.to_owned())
    }

    /// Every metric the current database can see: its own registry
    /// merged with the process-global one (global only when no
    /// database is open).
    fn metrics(&self) -> obs::MetricsSnapshot {
        match &self.db {
            Some(db) => db.metrics_snapshot(),
            None => obs::global().snapshot(),
        }
    }
}

fn run_command(shell: &mut Shell, time: u64, line: &str) -> Result<Output, String> {
    let mut parts = line.split_whitespace();
    let cmd = parts.next().unwrap_or_default();
    let rest: Vec<&str> = parts.collect();
    let text = |s: String| Ok(Output::Text(s));

    // While connected, curation and query commands travel over the
    // wire; session-control and observability commands stay local
    // (`trace` needs both halves — the local rings and the wire —
    // and `blackbox` reads local disk).
    if !matches!(
        cmd,
        "help" | "quit" | "exit" | "serve" | "connect" | "disconnect" | "trace" | "blackbox"
    ) {
        if let Some(client) = shell.remote.as_mut() {
            return remote_command(client, time, cmd, &rest);
        }
    }

    match cmd {
        "help" => text(HELP.trim().to_owned()),
        "quit" | "exit" => Ok(Output::Quit),
        "serve" => {
            let [addr] = take::<1>(&rest)?;
            if shell.server.is_some() {
                return Err("already serving (one server per shell)".into());
            }
            // The server routes each request by its key; a `new`
            // database keeps no WAL (`open` first for durability).
            let config = ServerConfig::default();
            let note = format!("{} workers, {} slots", config.workers, config.slots);
            let server =
                Server::bind(shell.db()?.clone(), addr, config).map_err(|e| e.to_string())?;
            let bound = server.local_addr();
            shell.server = Some(server);
            text(format!("serving on {bound} ({note})"))
        }
        "connect" => {
            if shell.remote.is_some() {
                return Err("already connected (disconnect first)".into());
            }
            let addr = match rest.as_slice() {
                [] => shell
                    .server
                    .as_ref()
                    .map(|s| s.local_addr().to_string())
                    .ok_or("connect <addr>, or `serve` first to connect locally")?,
                [addr] => (*addr).to_string(),
                _ => return Err("connect [addr]".into()),
            };
            let mut client = Client::dial(&addr).map_err(|e| e.to_string())?;
            let name = client.hello("cdbsh").map_err(|e| e.to_string())?;
            let epoch = client.epoch().map_err(|e| e.to_string())?;
            shell.remote = Some(client);
            text(format!(
                "connected to {name:?} at {addr} (session pinned at epoch {epoch})"
            ))
        }
        "disconnect" => {
            let mut client = shell.remote.take().ok_or("not connected")?;
            let _ = client.close();
            text("disconnected".into())
        }
        "new" => {
            let [name, key] = take::<2>(&rest)?;
            shell.db = Some(ShardedDb::new(*name, *key, ShardMap::single()));
            text(format!("created database {name:?} keyed by {key:?}"))
        }
        "open" => {
            let [name, key, dir] = take::<3>(&rest)?;
            let shared = SharedDb::open_dir(*name, *key, dir).map_err(fmt_err)?;
            let recovered = shared.snapshot().curated.log().len();
            shell.db = Some(ShardedDb::from(shared));
            // Arm the black box: from here on, a Corrupt recovery, a
            // failed 2PC decision sync, or a session panic snapshots
            // the rings + metrics into <dir>/flight.dump.
            obs::flight::install(dir);
            text(format!(
                "opened durable database {name:?} in {dir} \
                 ({recovered} transactions recovered; flight recorder armed)"
            ))
        }
        "shard" => shard_command(shell, &rest),
        "stats" => {
            let snap = shell.metrics();
            match rest.first() {
                None => text(obs::export::text_table(&snap)),
                Some(&"json") => text(obs::export::line_json(&snap)),
                Some(other) => Err(format!("stats takes no argument or `json`, got {other:?}")),
            }
        }
        "trace" => {
            let [arg] = take::<1>(&rest)?;
            match *arg {
                "on" => {
                    obs::set_tracing(true);
                    text(
                        "tracing on: spans are recorded to the ring buffer \
                         (and stamped onto wire requests while connected)"
                            .into(),
                    )
                }
                "off" => {
                    obs::set_tracing(false);
                    text("tracing off".into())
                }
                "show" => text(obs::export::span_tree(&obs::recent_events())),
                "last" => {
                    let client = shell.remote.as_ref().ok_or("trace last needs `connect`")?;
                    match client.last_trace().0 {
                        0 => Err("no traced exchange yet (`trace on`, then run a command)".into()),
                        id => text(format!("last wire trace id: {id}")),
                    }
                }
                "server" => {
                    let client = shell
                        .remote
                        .as_mut()
                        .ok_or("trace server needs `connect`")?;
                    let dump = client.trace_dump().map_err(|e| e.to_string())?;
                    let spans = obs::export::parse_span_lines(&dump)?;
                    text(format!(
                        "server rings — {} spans:\n{}",
                        spans.len(),
                        obs::export::wire_span_tree(&spans)
                    ))
                }
                "merged" => {
                    // The distributed view: this shell's rings plus the
                    // server's, filtered to the last traced exchange and
                    // merged into one tree — both halves of the wire.
                    let client = shell
                        .remote
                        .as_mut()
                        .ok_or("trace merged needs `connect`")?;
                    let trace = client.last_trace();
                    if trace.0 == 0 {
                        return Err(
                            "no traced exchange yet (`trace on`, then run a command)".into()
                        );
                    }
                    let server = obs::export::parse_span_lines(
                        &client.trace_dump().map_err(|e| e.to_string())?,
                    )?;
                    let local = obs::export::parse_span_lines(&obs::export::span_line_json(
                        &obs::recent_events(),
                    ))?;
                    let merged = obs::export::merge_span_dumps(&[local, server], trace);
                    text(format!(
                        "trace {} — {} spans across client and server:\n{}",
                        trace.0,
                        merged.len(),
                        obs::export::wire_span_tree(&merged)
                    ))
                }
                other => Err(format!(
                    "trace takes on|off|show|last|server|merged, got {other:?}"
                )),
            }
        }
        "blackbox" => {
            let [dir] = take::<1>(&rest)?;
            match obs::flight::load(std::path::Path::new(dir))? {
                None => text(format!("no flight dump in {dir}")),
                Some(dump) => {
                    let spans = dump.spans()?;
                    text(format!(
                        "flight dump #{} — reason {:?}:\n{}",
                        dump.seq,
                        dump.reason,
                        obs::export::wire_span_tree(&spans)
                    ))
                }
            }
        }
        "profile" => {
            if rest.is_empty() {
                return Err("profile <command …>".into());
            }
            let nested = line["profile".len()..].trim();
            let was = obs::tracing_enabled();
            obs::set_tracing(true);
            let root = obs::trace_root();
            let res = run_command(shell, time, nested);
            let events = obs::events_for_trace(root.id());
            drop(root);
            obs::set_tracing(was);
            match res {
                Ok(Output::Text(s)) => text(format!(
                    "{s}\n\nprofile — {} spans:\n{}",
                    events.len(),
                    obs::export::span_tree(&events)
                )),
                Ok(Output::Quit) => Ok(Output::Quit),
                Err(e) => Err(e),
            }
        }
        "add" => {
            if rest.len() < 2 {
                return Err("add <curator> <key> [field=value …]".into());
            }
            let (curator, key) = (rest[0], rest[1]);
            let fields: Vec<(&str, Atom)> = rest[2..]
                .iter()
                .map(|kv| parse_field(kv))
                .collect::<Result<_, _>>()?;
            let db = shell.db()?;
            db.add_entry(curator, time, key, &fields).map_err(fmt_err)?;
            text(format!("added entry {key:?}{}", shard_note(db, key)))
        }
        "edit" => {
            let [curator, key, field, value] = take::<4>(&rest)?;
            let value = parse_atom(value);
            shell
                .db()?
                .edit_field(curator, time, key, field, value)
                .map_err(fmt_err)?;
            text(format!("edited {key}.{field}"))
        }
        "note" => {
            if rest.len() < 4 {
                return Err("note <author> <key> <field|-> <text…>".into());
            }
            let (author, key, field) = (rest[0], rest[1], rest[2]);
            let body = rest[3..].join(" ");
            let field = if field == "-" { None } else { Some(field) };
            shell
                .db()?
                .annotate(key, field, author, &body, time)
                .map_err(fmt_err)?;
            text("noted".into())
        }
        "publish" => {
            let [label] = take::<1>(&rest)?;
            let ids = shell.db()?.publish(*label).map_err(fmt_err)?;
            match ids.as_slice() {
                [v] => text(format!("published version {v} ({label})")),
                ids => {
                    let ids: Vec<String> = ids.iter().map(|v| v.to_string()).collect();
                    text(format!(
                        "published per-shard versions [{}] ({label})",
                        ids.join(", ")
                    ))
                }
            }
        }
        "merge" => {
            let [curator, kept, absorbed] = take::<3>(&rest)?;
            let db = shell.db()?;
            db.merge_entries(curator, time, kept, absorbed)
                .map_err(fmt_err)?;
            let (k, a) = (db.map().route(kept), db.map().route(absorbed));
            if k == a {
                text(format!("{absorbed} merged into {kept}"))
            } else {
                text(format!(
                    "{absorbed} merged into {kept} (cross-shard: {k} ← {a})"
                ))
            }
        }
        "index" => {
            let [field] = take::<1>(&rest)?;
            let created = shell.db()?.create_index(field).map_err(fmt_err)?;
            text(if created {
                format!("index on {field:?} created (durable; maintained per commit)")
            } else {
                format!("index on {field:?} already exists")
            })
        }
        "drop-index" => {
            let [field] = take::<1>(&rest)?;
            let dropped = shell.db()?.drop_index(field).map_err(fmt_err)?;
            text(if dropped {
                format!("index on {field:?} dropped")
            } else {
                format!("no index on {field:?}")
            })
        }
        "checkpoint" => {
            let all = shell.db()?.checkpoint().map_err(fmt_err)?;
            let lines: Vec<String> = all
                .iter()
                .enumerate()
                .map(|(i, stats)| {
                    let shard = if all.len() > 1 {
                        format!("shard {i}: ")
                    } else {
                        String::new()
                    };
                    // A checkpoint that installs one covers at least the
                    // WAL header; under `KeepAll` of a whole log it syncs.
                    if stats.covered_bytes == 0 {
                        format!(
                            "{shard}checkpoint: nothing installed (KeepAll keeps the whole log), \
                             {} segments live",
                            stats.live_segments,
                        )
                    } else {
                        format!(
                            "{shard}checkpoint installed: {} bytes covered, {} segments live, \
                             {} retired ({} bytes reclaimed)",
                            stats.covered_bytes,
                            stats.live_segments,
                            stats.retired_segments,
                            stats.reclaimed_bytes,
                        )
                    }
                })
                .collect();
            text(lines.join("\n"))
        }
        "parallel" => {
            let [writers, readers, ops] = take::<3>(&rest)?;
            let writers: usize = writers.parse().map_err(|_| "writers must be a number")?;
            let readers: usize = readers.parse().map_err(|_| "readers must be a number")?;
            let ops: u64 = ops.parse().map_err(|_| "ops must be a number")?;
            text(parallel_session(shell.db()?, time, writers, readers, ops)?)
        }
        "entries" | "what" | "show" | "notes" => routed_read(shell.db()?, cmd, &rest),
        _ => {
            // Whole-database reads run on one shard's snapshot; they
            // are not routed across shards.
            let snap = shell.db()?.snapshot();
            if snap.shards().len() > 1 {
                return Err(format!(
                    "{cmd:?} is not routed on a sharded database \
                     (entries/show/notes/what work per shard; or `serve` + `connect`)"
                ));
            }
            let db: &DbState = snap.shard(0);
            match cmd {
                "versions" => text(
                    db.archive()
                        .versions()
                        .iter()
                        .map(|v| format!("{}: {}", v.id, v.label))
                        .collect::<Vec<_>>()
                        .join("\n"),
                ),
                "cite" => {
                    let [v, key] = take::<2>(&rest)?;
                    let v: u32 = v.parse().map_err(|_| "version must be a number")?;
                    let c = db.cite(v, key).map_err(fmt_err)?;
                    text(c.to_string())
                }
                "series" => {
                    let [key, field] = take::<2>(&rest)?;
                    let s = db.field_series(key, field).map_err(fmt_err)?;
                    text(
                        s.iter()
                            .map(|(v, a)| format!("v{v}: {a}"))
                            .collect::<Vec<_>>()
                            .join("\n"),
                    )
                }
                "history" => {
                    let [key] = take::<1>(&rest)?;
                    let node = db.entry_node(key).map_err(fmt_err)?;
                    let h = curated_db::curation::queries::history(&db.curated, node);
                    text(
                        h.iter()
                            .map(|(t, ops)| {
                                format!("{} by {} ({} ops)", t.id, t.curator, ops.len())
                            })
                            .collect::<Vec<_>>()
                            .join("\n"),
                    )
                }
                "sql" => {
                    let query = line[3..].trim();
                    let mut rdb = entries_view(db)?;
                    let out = sql::execute(&mut rdb, query).map_err(|e| e.to_string())?;
                    text(out.to_string())
                }
                "explain" => {
                    // Like `sql`, but runs the query through the
                    // cost-based planner: statistics and any registered
                    // durable indexes pick the access paths and join
                    // order, and the printed plan tree shows the
                    // planner's row estimates next to the measured
                    // actuals, followed by the cumulative eval metrics
                    // from the observability registry.
                    let query = line[7..].trim();
                    let stmt = sql::parse(query).map_err(|e| e.to_string())?;
                    let sql::Statement::Query(expr) = stmt else {
                        return Err("explain takes a SELECT query".into());
                    };
                    let fields = all_fields(db)?;
                    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
                    let (out, plan, runs) =
                        curated_db::core::views::query_entries_planned(db, &field_refs, &expr)
                            .map_err(fmt_err)?;
                    text(format!(
                        "{}{}\n{out}",
                        plan.render(Some(&runs)),
                        eval_registry_summary()
                    ))
                }
                "indexes" => {
                    let fields = db.index_fields();
                    if fields.is_empty() {
                        text("no indexes (create one with `index <field>`)".into())
                    } else {
                        text(
                            fields
                                .iter()
                                .map(|f| {
                                    let i = db.field_index(f).expect("listed field is indexed");
                                    format!(
                                        "{f}: {} distinct value(s) over {} entrie(s)",
                                        i.distinct(),
                                        i.len()
                                    )
                                })
                                .collect::<Vec<_>>()
                                .join("\n"),
                        )
                    }
                }
                "diff" => {
                    let [a, b] = take::<2>(&rest)?;
                    let a: u32 = a.parse().map_err(|_| "version must be a number")?;
                    let b: u32 = b.parse().map_err(|_| "version must be a number")?;
                    let changes = db.archive().diff(a, b).map_err(|e| e.to_string())?;
                    text(
                        changes
                            .iter()
                            .map(|(kp, c)| format!("{kp}: {c:?}"))
                            .collect::<Vec<_>>()
                            .join("\n"),
                    )
                }
                "prov" => {
                    let q = line[4..].trim();
                    let a = curated_db::curation::provql::query(&db.curated, q)?;
                    text(a.to_string())
                }
                "path" => {
                    let [expr] = take::<1>(&rest)?;
                    let q = PathQuery::parse(expr)?;
                    let snapshot = db.export().map_err(fmt_err)?;
                    let hits = q.values(&snapshot);
                    text(
                        hits.iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join("\n"),
                    )
                }
                other => Err(format!("unknown command {other:?} (try `help`)")),
            }
        }
    }
}

/// `shard …` — create and inspect a range-sharded database.
///
/// `shard new` partitions the key space into `n` contiguous ranges,
/// each served by its own shard; every write thereafter routes by key,
/// and a merge whose two keys land on different shards runs as a
/// cross-shard 2PC transaction. `shard` alone prints the layout;
/// `shard route <key>` answers where a key would go.
fn shard_command(shell: &mut Shell, rest: &[&str]) -> Result<Output, String> {
    let text = |s: String| Ok(Output::Text(s));
    match rest {
        ["new", name, key, n] => {
            // `ShardMap::uniform` spaces its bounds over the 95
            // printable ASCII characters: past that, shards repeat.
            let n: usize = n
                .parse()
                .ok()
                .filter(|n| (1..=95).contains(n))
                .ok_or("shard count must be a number from 1 to 95")?;
            shell.db = Some(ShardedDb::new(*name, *key, ShardMap::uniform(n)));
            text(format!(
                "created sharded database {name:?} keyed by {key:?} over {n} shard(s); \
                 writes route by key, cross-shard merges run 2PC"
            ))
        }
        ["route", key] => {
            let sh = shell.db()?;
            text(format!("{key:?} → shard {}", sh.map().route(key)))
        }
        [] => {
            let sh = shell.db()?;
            let snap = sh.snapshot();
            let bounds = sh.map().bounds();
            let mut lines = vec![format!(
                "{} shard(s), combined epoch {}",
                sh.shard_count(),
                snap.epoch()
            )];
            for (i, s) in snap.shards().iter().enumerate() {
                let lo = if i == 0 { "-inf" } else { &bounds[i - 1] };
                let hi = bounds.get(i).map_or("+inf", String::as_str);
                let keys = s.entry_keys().map_err(fmt_err)?;
                lines.push(format!(
                    "shard {i} [{lo:?}, {hi:?}): epoch {}, {} entries: {}",
                    s.epoch(),
                    keys.len(),
                    keys.join(", ")
                ));
            }
            let m = sh.metrics_snapshot();
            let get = |k: &str| m.counters.get(k).copied().unwrap_or(0);
            lines.push(format!(
                "cross-shard txns: {} committed, {} aborted",
                get("core.sharded.cross.commits"),
                get("core.sharded.cross.aborts")
            ));
            text(lines.join("\n"))
        }
        _ => Err("shard [new <name> <keyfield> <n> | route <key>]".into()),
    }
}

/// Key-routed reads, for any shard count: each command pins one
/// coherent [`ShardedSnapshot`](curated_db::ShardedSnapshot) and serves
/// single-key reads from the shard the key routes to; `entries` lists
/// every shard in key order and `what` resolves lineage across all
/// shards.
fn routed_read(db: &ShardedDb, cmd: &str, rest: &[&str]) -> Result<Output, String> {
    let text = |s: String| Ok(Output::Text(s));
    let snap = db.snapshot();
    match cmd {
        "entries" => text(snap.entry_keys().map_err(fmt_err)?.join(", ")),
        "what" => {
            let [id] = take::<1>(rest)?;
            let current = snap.resolve_id(id).map_err(fmt_err)?;
            text(format!("{id} → {current:?}"))
        }
        "show" => {
            let [key] = take::<1>(rest)?;
            let shard = snap.for_key(key);
            let node = shard.entry_node(key).map_err(fmt_err)?;
            let v = shard
                .curated
                .tree
                .subtree_value(node)
                .map_err(|e| e.to_string())?;
            text(format!("{v}{}", shard_note(db, key)))
        }
        "notes" => {
            let [key, field] = take::<2>(rest)?;
            let field = if *field == "-" { None } else { Some(*field) };
            let notes = snap.for_key(key).notes_on(key, field);
            text(
                notes
                    .iter()
                    .map(|n| format!("[{}] {}: {}", n.time, n.author, n.text))
                    .collect::<Vec<_>>()
                    .join("\n"),
            )
        }
        other => unreachable!("{other:?} is not a routed read"),
    }
}

/// ` (shard i)` for the shard `key` routes to, on a database of more
/// than one shard; nothing on a single one.
fn shard_note(db: &ShardedDb, key: &str) -> String {
    if db.shard_count() > 1 {
        format!(" (shard {})", db.map().route(key))
    } else {
        String::new()
    }
}

/// Command dispatch while `connect`ed: the same verbs, served by the
/// remote session over the wire. Reads come back stamped with the
/// session's pinned epoch; `refresh` re-pins it.
fn remote_command(
    client: &mut Client<TcpTransport>,
    time: u64,
    cmd: &str,
    rest: &[&str],
) -> Result<Output, String> {
    let text = |s: String| Ok(Output::Text(s));
    let net = |e: curated_db::server::ClientError| e.to_string();
    match cmd {
        "ping" => {
            client.ping().map_err(net)?;
            text("pong".into())
        }
        "add" => {
            if rest.len() < 2 {
                return Err("add <curator> <key> [field=value …]".into());
            }
            let (curator, key) = (rest[0], rest[1]);
            let fields: Vec<(String, Atom)> = rest[2..]
                .iter()
                .map(|kv| parse_field(kv).map(|(k, v)| (k.to_owned(), v)))
                .collect::<Result<_, _>>()?;
            let id = client.add(curator, time, key, fields).map_err(net)?;
            text(format!("added entry {key:?} (node {id})"))
        }
        "edit" => {
            let [curator, key, field, value] = take::<4>(rest)?;
            client
                .edit(curator, time, key, field, parse_atom(value))
                .map_err(net)?;
            text(format!("edited {key}.{field}"))
        }
        "note" => {
            if rest.len() < 4 {
                return Err("note <author> <key> <field|-> <text…>".into());
            }
            let (author, key, field) = (rest[0], rest[1], rest[2]);
            let body = rest[3..].join(" ");
            let field = if field == "-" { None } else { Some(field) };
            client
                .annotate(key, field, author, &body, time)
                .map_err(net)?;
            text("noted".into())
        }
        "publish" => {
            let [label] = take::<1>(rest)?;
            let v = client.publish(label).map_err(net)?;
            text(format!("published version {v} ({label})"))
        }
        "merge" => {
            let [curator, kept, absorbed] = take::<3>(rest)?;
            client.merge(curator, time, kept, absorbed).map_err(net)?;
            text(format!("{absorbed} merged into {kept}"))
        }
        "entries" => {
            let (epoch, keys) = client.entries().map_err(net)?;
            text(format!("epoch {epoch}: {}", keys.join(", ")))
        }
        "get" => {
            let [key, field] = take::<2>(rest)?;
            let (epoch, value) = client.get(key, field).map_err(net)?;
            text(format!("{key}.{field} = {value} (epoch {epoch})"))
        }
        "refresh" => {
            let epoch = client.refresh().map_err(net)?;
            text(format!("re-pinned at epoch {epoch}"))
        }
        "epoch" => {
            let epoch = client.epoch().map_err(net)?;
            text(format!("epoch {epoch}"))
        }
        "stats" => {
            // The server answers with its line-JSON metrics dump; the
            // optional `json` argument is accepted for symmetry with
            // the local command.
            match rest {
                [] | ["json"] => text(client.stats().map_err(net)?.trim_end().to_owned()),
                other => Err(format!("stats takes no argument or `json`, got {other:?}")),
            }
        }
        other => Err(format!(
            "{other:?} is not served over a connection (disconnect for the full shell)"
        )),
    }
}

/// Cumulative `relalg.eval.*` readings from the process-global
/// registry, appended to `explain` output so repeated queries show
/// their latency distribution.
fn eval_registry_summary() -> String {
    let snap = obs::global().snapshot();
    let count = snap.counters.get("relalg.eval.count").copied().unwrap_or(0);
    match snap.histograms.get("relalg.eval.ns") {
        Some(h) if h.count > 0 => format!(
            "\nregistry: {count} queries so far — eval latency p50 {} / p95 {} / p99 {}",
            obs::export::fmt_ns(h.p50()),
            obs::export::fmt_ns(h.p95()),
            obs::export::fmt_ns(h.p99()),
        ),
        _ => String::new(),
    }
}

/// `parallel <writers> <readers> <ops>` — serve the database
/// concurrently: writer threads add and edit entries through group
/// commit while reader threads take snapshots and verify, per shard,
/// epoch and log-prefix monotonicity.
fn parallel_session(
    db: &ShardedDb,
    time: u64,
    writers: usize,
    readers: usize,
    ops: u64,
) -> Result<String, String> {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let salt: usize = db
        .snapshot()
        .shards()
        .iter()
        .map(|s| s.curated.log().len())
        .sum();
    let done = Arc::new(AtomicBool::new(false));
    let samples = Arc::new(AtomicU64::new(0));

    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let db = db.clone();
            let done = done.clone();
            let samples = samples.clone();
            std::thread::spawn(move || {
                let mut last: Option<curated_db::ShardedSnapshot> = None;
                while !done.load(Ordering::Acquire) {
                    let snap = db.snapshot();
                    if let Some(prev) = &last {
                        for (prev, snap) in prev.shards().iter().zip(snap.shards()) {
                            assert!(snap.epoch() >= prev.epoch(), "epoch went backwards");
                            let (p, n) = (prev.curated.log(), snap.curated.log());
                            assert!(
                                p.len() <= n.len()
                                    && p.iter().zip(n.iter()).all(|(a, b)| a.id == b.id),
                                "snapshot log is not a prefix of its successor"
                            );
                        }
                    }
                    samples.fetch_add(1, Ordering::Relaxed);
                    last = Some(snap);
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                let curator = format!("worker{w}");
                for i in 0..ops {
                    let t = time * 1_000 + (w as u64) * ops + i;
                    let key = format!("p{salt}w{w}n{i}");
                    db.add_entry(&curator, t, &key, &[("v", Atom::Int(i as i64))])
                        .map_err(|e| e.to_string())?;
                    db.edit_field(&curator, t, &key, "v", Atom::Int(-(i as i64)))
                        .map_err(|e| e.to_string())?;
                }
                Ok::<(), String>(())
            })
        })
        .collect();

    let mut failures = Vec::new();
    for (w, h) in writer_handles.into_iter().enumerate() {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push(format!("writer {w}: {e}")),
            Err(_) => failures.push(format!("writer {w} panicked")),
        }
    }
    done.store(true, Ordering::Release);
    for h in reader_handles {
        if h.join().is_err() {
            failures.push("a reader observed inconsistent snapshots".into());
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }

    let epoch = db.epoch();
    let reads = samples.load(Ordering::Relaxed);
    let stats_line = if db.shard()[0].wal_len().is_some() {
        // Each shard's group-commit instruments (`shard.<i>.storage.
        // group.*` in `stats`).
        let (mut frames, mut batches, mut max_batch) = (0, 0, 0);
        for m in db.shard().iter().map(SharedDb::metrics) {
            frames += m.counter("storage.group.frames_synced").get();
            batches += m.counter("storage.group.batches").get();
            max_batch = max_batch.max(m.gauge("storage.group.max_batch").get());
        }
        format!(
            "durable database: {frames} commits in {batches} synced batches \
             (max batch {max_batch})"
        )
    } else {
        "in-memory database: no WAL, group commit idle".into()
    };
    Ok(format!(
        "parallel session done: {writers} writers × {ops} add+edit ops, \
         {readers} readers took {reads} consistent snapshots \
         (final epoch {epoch}); {stats_line}"
    ))
}

const HELP: &str = r#"
commands:
  new <name> <keyfield>              create an in-memory database (one
                                       shard)
  open <name> <keyfield> <dir>       open a durable database (one shard,
                                       WAL + group commit) in <dir>
  add <curator> <key> [f=v …]        add an entry
  edit <curator> <key> <field> <v>   edit a field
  note <author> <key> <field|-> <t…> annotate (- = whole entry)
  notes <key> <field|->              list annotations
  publish <label>                    archive the current state
  versions | diff <v1> <v2>          list versions / diff two versions
  cite <version> <key>               cite an entry as of a version
  series <key> <field>               value history across versions
  entries | show <key> | history <key>
                                     (entries/show/notes/what route by
                                       key on any shard count; the other
                                       reads need a one-shard database)
  merge <curator> <kept> <absorbed>  fuse entries (retires the absorbed id)
  what <id>                          what happened to an identifier
  checkpoint                         sync the WAL (cdbsh opens KeepAll
                                       databases: the WAL keeps the whole
                                       log, so nothing is installed)
  sql <SELECT …>                     query the relational view `entries`
  explain <SELECT …>                 run via the cost-based planner;
                                       print the plan tree (estimated vs
                                       actual rows, per-operator ms) and
                                       the registry's eval latency
  index <field> | drop-index <field> create/drop a durable secondary
                                       index (WAL-registered, rebuilt on
                                       recovery, used by explain/sql
                                       plans as hash index scans)
  indexes                            list registered indexes
  stats [json]                       metrics registry: text table, or
                                       one JSON object per line
  trace on|off|show                  toggle span recording / show the
                                       recent-span ring buffer; while
                                       connected, `on` also stamps the
                                       trace id onto wire requests
  trace last|server|merged           (connected) last wire trace id /
                                       the server's span rings / both
                                       halves merged into one tree
  blackbox <dir>                     read the flight-recorder dump a
                                       durable database left in <dir>
  profile <command …>                run any command with tracing forced
                                       on and print its span tree
  parallel <writers> <readers> <ops> serve the db concurrently: writers
                                       add+edit over group commit while
                                       readers verify snapshot isolation
  shard new <name> <keyfield> <n>    create an in-memory database range-
                                       sharded over <n> shards (1..=95);
                                       writes route by key, cross-shard
                                       merges run 2PC
  shard | shard route <key>          print the shard layout (ranges,
                                       entries, cross-shard txn counts)
                                       / where a key routes
  serve <addr>                       serve the db over TCP (use :0 for
                                       an ephemeral port; printed back);
                                       requests route by key, whatever
                                       the shard count
  connect [addr]                     connect a wire client (no addr =
                                       this shell's own server); then
                                       add/edit/note/publish/merge/
                                       entries/get/refresh/epoch/ping/
                                       stats travel over the wire
  disconnect                         close the wire session
  get <key> <field>                  (connected) read one field with
                                       its serving epoch
  path </a/b | //x>                  path query over the exported value
  prov <provql>                      provenance query language, e.g.
                                       prov VALUE /entry/name AT TXN 0
                                       prov WHEN CREATED /entry/name
                                       prov FROM WHERE /entry
                                       prov WHO TOUCHED /entry
                                       prov CHANGED BETWEEN TXN 0 AND TXN 2
  help | quit
"#;

fn take<'a, const N: usize>(rest: &'a [&'a str]) -> Result<&'a [&'a str; N], String> {
    rest.get(..N)
        .and_then(|s| <&[&str; N]>::try_from(s).ok())
        .filter(|_| rest.len() == N)
        .ok_or_else(|| format!("expected exactly {N} arguments"))
}

fn parse_field(kv: &str) -> Result<(&str, Atom), String> {
    let (k, v) = kv
        .split_once('=')
        .ok_or_else(|| format!("expected field=value, got {kv:?}"))?;
    Ok((k, parse_atom(v)))
}

fn parse_atom(s: &str) -> Atom {
    if let Ok(i) = s.parse::<i64>() {
        Atom::Int(i)
    } else if s == "true" || s == "false" {
        Atom::Bool(s == "true")
    } else {
        Atom::Str(s.to_owned())
    }
}

fn entries_view(db: &DbState) -> Result<curated_db::relalg::Database, String> {
    // Build a view over every field any entry has.
    let fields = all_fields(db)?;
    let field_refs: Vec<&str> = fields.iter().map(String::as_str).collect();
    let rel = curated_db::core::views::entry_relation(db, &field_refs).map_err(fmt_err)?;
    let mut rdb = curated_db::relalg::Database::new();
    rdb.insert("entries", rel);
    Ok(rdb)
}

fn all_fields(db: &DbState) -> Result<Vec<String>, String> {
    let mut out: Vec<String> = Vec::new();
    for key in db.entry_keys().map_err(fmt_err)? {
        let node = db.entry_node(&key).map_err(fmt_err)?;
        for &c in db.curated.tree.children(node).map_err(|e| e.to_string())? {
            let l = db.curated.tree.label(c).map_err(|e| e.to_string())?;
            if l != db.key_field() && !out.iter().any(|x| x == l) {
                out.push(l.to_owned());
            }
        }
    }
    Ok(out)
}

fn fmt_err(e: curated_db::DbError) -> String {
    e.to_string()
}
