//! The corpus: UniProt-shaped entries `ac, id, de, gn, os, cc, kw, sq`.
//!
//! Field values come from `cdb_workload::uniprot::UniprotSim`; the
//! accessions are the benchmark's own, because the simulator's all
//! start with `Q` and would land on one shard of a uniform map.

use std::collections::BTreeMap;

use cdb_model::{Atom, Value};
use cdb_workload::uniprot::{UniprotConfig, UniprotSim};

use crate::rng::Rng;

/// The entry key field.
pub const KEY_FIELD: &str = "ac";
/// The fields of an entry besides its key.
pub const FIELDS: [&str; 7] = ["id", "de", "gn", "os", "cc", "kw", "sq"];
/// The fields with a secondary index.
pub const INDEXED: [&str; 2] = ["gn", "os"];
/// The fields curators edit.
pub const EDITABLE: [&str; 4] = ["de", "gn", "os", "cc"];
/// The database name every engine under test is opened with.
pub const DB_NAME: &str = "uniprot";
/// The upstream database copy-paste copies from.
pub const UPSTREAM: &str = "upstream";

/// The field values of one entry, by field name (without the key).
pub type Fields = BTreeMap<String, Atom>;

const ORGANISMS: [&str; 4] = [
    "HOMO SAPIENS",
    "MUS MUSCULUS",
    "RATTUS NORVEGICUS",
    "DANIO RERIO",
];
// Half sort below 'O', the bound of `ShardMap::uniform(2)`, half at or
// above it. Serial numbers `2k` and `2k + 1` share a letter, so each of
// two clients (who own the even and the odd serials) has keys on both
// shards.
const LETTERS: [u8; 24] = *b"AOBPCQDRESFTGUHVIWJXKYLZ";
const GENES: u64 = 311;

/// The accession of the `n`-th entry ever created in a round.
pub fn accession(n: usize) -> String {
    format!("{}{n:05}", LETTERS[(n / 2) % LETTERS.len()] as char)
}

/// The serial number inside an accession.
pub fn serial(key: &str) -> usize {
    key[1..]
        .parse()
        .expect("benchmark accessions end in digits")
}

fn str_field(rec: &Value, label: &str) -> String {
    match rec.field(label) {
        Some(Value::Atom(Atom::Str(s))) => s.clone(),
        other => panic!("simulated entry lacks string field {label}: {other:?}"),
    }
}

/// The first `n` entries of the corpus for `seed`: `(accession,
/// fields)`, accession `i` for entry `i`.
pub fn corpus(seed: u64, n: usize) -> Vec<(String, Fields)> {
    let sim = UniprotSim::new(
        seed,
        UniprotConfig {
            initial_entries: n,
            ..UniprotConfig::default()
        },
    );
    let snapshot = sim.snapshot();
    let set = snapshot.as_set().expect("a release is a set of entries");
    assert_eq!(set.len(), n, "simulated accessions are distinct");
    set.iter()
        .enumerate()
        .map(|(i, rec)| {
            let cc = rec.field("cc").expect("entries carry comments");
            let kw: Vec<String> = rec
                .field("kw")
                .and_then(Value::as_set)
                .expect("entries carry keywords")
                .iter()
                .map(|k| match k {
                    Value::Atom(Atom::Str(s)) => s.clone(),
                    other => panic!("keyword is not a string: {other:?}"),
                })
                .collect();
            let mut f = Fields::new();
            f.insert("id".into(), Atom::Str(str_field(rec, "id")));
            f.insert("de".into(), Atom::Str(str_field(rec, "de")));
            f.insert("gn".into(), Atom::Str(str_field(rec, "gn")));
            f.insert("os".into(), Atom::Str(str_field(rec, "os")));
            f.insert("cc".into(), Atom::Str(str_field(cc, "function")));
            f.insert("kw".into(), Atom::Str(kw.join("; ")));
            f.insert("sq".into(), Atom::Str(str_field(rec, "sq")));
            (accession(i), f)
        })
        .collect()
}

/// A fresh value for an edit of `field`. Fixed width where the field
/// allows it, so the bytes a schedule writes hardly depend on the seed.
pub fn fresh_value(rng: &mut Rng, field: &str) -> Atom {
    let r = rng.next_u64();
    Atom::Str(match field {
        "gn" => format!("GN{}", r % GENES),
        "os" => ORGANISMS[(r % 4) as usize].to_owned(),
        "de" => format!("PROTEIN {:08X} (REVISED)", r as u32),
        "cc" => format!("ACTIVATES PATHWAY {:08X}", r as u32),
        other => panic!("field {other} is not edited"),
    })
}

/// The fields of a newly authored entry with serial number `n`.
pub fn fresh_entry(rng: &mut Rng, n: usize) -> Fields {
    const AMINO: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
    let sq: String = (0..120)
        .map(|_| AMINO[rng.below(AMINO.len())] as char)
        .collect();
    let mut f = Fields::new();
    f.insert("id".into(), Atom::Str(format!("N{n:05}_HUMAN")));
    f.insert("de".into(), fresh_value(rng, "de"));
    f.insert("gn".into(), fresh_value(rng, "gn"));
    f.insert("os".into(), fresh_value(rng, "os"));
    f.insert("cc".into(), fresh_value(rng, "cc"));
    f.insert("kw".into(), Atom::Str("KINASE; MEMBRANE".into()));
    f.insert("sq".into(), Atom::Str(sq));
    f
}

/// Bytes a client hands over when it writes `a`.
pub fn atom_bytes(a: &Atom) -> u64 {
    match a {
        Atom::Str(s) => s.len() as u64,
        Atom::Unit => 0,
        Atom::Bool(_) => 1,
        Atom::Int(_) | Atom::Decimal(_) => 8,
    }
}

/// Bytes of field names and values of `fields`.
pub fn fields_bytes(fields: &Fields) -> u64 {
    fields
        .iter()
        .map(|(k, v)| k.len() as u64 + atom_bytes(v))
        .sum()
}

/// `fields` in the borrowed shape `add_entry` takes.
pub fn borrowed(fields: &Fields) -> Vec<(&str, Atom)> {
    fields
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_core::ShardMap;

    #[test]
    fn corpus_repeats_and_spreads_over_two_shards() {
        let a = corpus(7, 48);
        assert_eq!(a, corpus(7, 48));
        assert_ne!(a, corpus(8, 48));
        let map = ShardMap::uniform(2);
        let on_zero = a.iter().filter(|(k, _)| map.route(k) == 0).count();
        assert_eq!(on_zero, 24);
        for (i, (key, fields)) in a.iter().enumerate() {
            assert_eq!(serial(key), i);
            assert_eq!(fields.len(), FIELDS.len());
        }
    }
}
