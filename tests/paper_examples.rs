//! Integration tests regenerating every worked example in the paper —
//! the executable versions of EXPERIMENTS.md entries E1–E5 and E11.
//! Every exact-output check with a relational plan runs through both
//! physical engines (nested-loop reference and hash joins, sequential
//! and partitioned — see [`engine_configs`]).

use std::collections::BTreeMap;

use curated_db::annotation::colored::{
    eval_colored, eval_colored_with, ColoredDatabase, ColoredRelation, ColoredTuple, Scheme,
};
use curated_db::annotation::nested::{check_copying, check_kind_preservation, ColoredTable};
use curated_db::curation::update_lang::{figure3_query, sql_delete, sql_insert, sql_update};
use curated_db::relalg::eval::paper_q;
use curated_db::relalg::{ExecConfig, Pred, ProjItem, Schema};
use curated_db::semiring::eval::{eval_k, eval_k_with, figure4_database, figure4_query};
use curated_db::semiring::hom::{poly_to_nat, poly_to_why, why_to_minwhy};
use curated_db::semiring::{Nat, Polynomial};
use curated_db::Atom;

fn int(i: i64) -> Atom {
    Atom::Int(i)
}

/// The physical-engine configurations every exact-output check also runs
/// under: sequential hash joins and a forced 4-way partitioned probe.
/// (E2 and E3 exercise the *nested* annotation model, which has no
/// relational plan, so they have no engine dimension.)
fn engine_configs() -> Vec<ExecConfig> {
    let mut partitioned = ExecConfig::with_partitions(4);
    partitioned.parallel_threshold = 1;
    vec![ExecConfig::sequential(), partitioned]
}

/// E1 — the §2.1 Q1/Q2 tables, exactly as printed.
#[test]
fn e1_q1_q2_annotated_tables() {
    let r = ColoredRelation::from_tuples(
        Schema::new(["A", "B"]).unwrap(),
        [
            ColoredTuple::with_colors(vec![int(10), int(49)], vec!["b1", "b2"]),
            ColoredTuple::with_colors(vec![int(12), int(50)], vec!["b3", "b4"]),
        ],
    )
    .unwrap();
    let s = ColoredRelation::from_tuples(
        Schema::new(["A", "B"]).unwrap(),
        [
            ColoredTuple::with_colors(vec![int(11), int(49)], vec!["b5", "b6"]),
            ColoredTuple::with_colors(vec![int(12), int(50)], vec!["b7", "b8"]),
        ],
    )
    .unwrap();
    let db = ColoredDatabase::new().with("R", r).with("S", s);
    let q1 = paper_q(vec![ProjItem::col("R.A", "A"), ProjItem::col("R.B", "B")]);
    let q2 = paper_q(vec![ProjItem::col("S.A", "A"), ProjItem::constant(50, "B")]);

    let o1 = eval_colored(&db, &q1, &Scheme::Default).unwrap();
    let o2 = eval_colored(&db, &q2, &Scheme::Default).unwrap();
    // The paper's printed outputs: Q1 → 12♭3 50♭4; Q2 → 12♭7 50⊥.
    assert_eq!(format!("{o1}"), "(A, B)\n  12b3 | 50b4\n");
    assert_eq!(format!("{o2}"), "(A, B)\n  12b7 | 50⊥\n");

    // The hash-join engine prints the same tables, sequentially and
    // partitioned.
    for cfg in engine_configs() {
        let h1 = eval_colored_with(&db, &q1, &Scheme::Default, &cfg).unwrap();
        let h2 = eval_colored_with(&db, &q2, &Scheme::Default, &cfg).unwrap();
        assert_eq!(format!("{h1}"), "(A, B)\n  12b3 | 50b4\n");
        assert_eq!(format!("{h2}"), "(A, B)\n  12b7 | 50⊥\n");
    }
}

/// E2 — Figure 2's provenance annotation under σ and π.
#[test]
fn e2_figure2_provenance_annotation() {
    let table = ColoredTable::figure2_style(
        Schema::new(["A", "B"]).unwrap(),
        &[vec![int(10), int(50)], vec![int(12), int(50)]],
    );
    // R: tuples colored t1/t2, cells b1..b4, table "tab".
    assert_eq!(
        table.table.to_string(),
        "{(A: 10^b1, B: 50^b2)^t1, (A: 12^b3, B: 50^b4)^t2}^tab"
    );
    let sel = table.select(&Pred::col_eq_const("A", 10)).unwrap();
    assert_eq!(sel.table.to_string(), "{(A: 10^b1, B: 50^b2)^t1}^⊥");
    let proj = table.project(&["B"]).unwrap();
    assert_eq!(proj.table.to_string(), "{(B: 50^b2)^⊥, (B: 50^b4)^⊥}^⊥");
    // Both queries satisfy the copying condition of §2.3.
    check_copying(&table.table, &sel.table).unwrap();
    check_copying(&table.table, &proj.table).unwrap();
}

/// E3 — Figure 3's three programs: same result, different provenance.
#[test]
fn e3_figure3_updates_and_provenance() {
    let r = ColoredTable::figure2_style(
        Schema::new(["A", "B"]).unwrap(),
        &[vec![int(10), int(49)], vec![int(12), int(50)]],
    );
    let p1 = figure3_query(&r).unwrap();
    let p2 = sql_insert(
        &sql_delete(&r, &Pred::col_eq_const("A", 10)).unwrap(),
        vec![int(10), int(55)],
    )
    .unwrap();
    let p3 = sql_update(&r, &[("B", int(55))], &Pred::col_eq_const("A", 10)).unwrap();

    // "Although they all have the same 'result'…"
    assert_eq!(p1.table.strip(), p2.table.strip());
    assert_eq!(p2.table.strip(), p3.table.strip());

    // "…the way they carry provenance is different."
    assert_eq!(p1.table.color, None, "query constructs a fresh table");
    assert_eq!(p2.table.color.as_deref(), Some("tab"));
    assert_eq!(p3.table.color.as_deref(), Some("tab"));

    // P1 is copying; P2 and P3 are only kind-preserving.
    check_copying(&r.table, &p1.table).unwrap();
    assert!(check_copying(&r.table, &p2.table).is_err());
    assert!(check_copying(&r.table, &p3.table).is_err());
    check_kind_preservation(&r.table, &p2.table).unwrap();
    check_kind_preservation(&r.table, &p3.table).unwrap();

    // P3 keeps the updated tuple's color; P2 invents its tuple.
    assert_eq!(
        p3.table.to_string(),
        "{(A: 10^b1, B: 55^⊥)^t1, (A: 12^b3, B: 50^b4)^t2}^tab"
    );
    assert_eq!(
        p2.table.to_string(),
        "{(A: 12^b3, B: 50^b4)^t2, (A: 10^⊥, B: 55^⊥)^⊥}^tab"
    );
}

/// E4 — Figure 4's semiring provenance polynomials, with the printed
/// forms, plus the specialization chain.
#[test]
fn e4_figure4_semiring_provenance() {
    let s = |x: &str| Atom::Str(x.into());
    let db = figure4_database(|v| Polynomial::var(v));
    let v = eval_k(&db, &figure4_query()).unwrap();
    assert_eq!(v.len(), 5);
    // Both physical engine configurations derive the same polynomials.
    for cfg in engine_configs() {
        assert_eq!(v, eval_k_with(&db, &figure4_query(), &cfg).unwrap());
    }
    let poly = |x: &str, z: &str| v.annotation(&vec![s(x), s(z)]);
    // Figure 4's polynomials (· is commutative, so r·p prints p·r).
    assert_eq!(poly("a", "c").to_string(), "p + p·p");
    assert_eq!(poly("a", "e").to_string(), "p·r");
    assert_eq!(poly("d", "c").to_string(), "p·r");
    assert_eq!(poly("d", "e").to_string(), "r + r·r + r·s");
    assert_eq!(poly("f", "e").to_string(), "s + r·s + s·s");

    // Specializations: why-provenance keeps alternative witnesses,
    // minimal-why drops non-minimal ones, bag counts derivations.
    let de = poly("d", "e");
    assert_eq!(poly_to_why(&de).to_string(), "{{r}, {r,s}}");
    assert_eq!(why_to_minwhy(&poly_to_why(&de)).to_string(), "r");
    assert_eq!(poly_to_nat(&de), Nat(3));
}

/// The SQL front end runs the paper's statements verbatim (Figure 3's
/// program texts) against a plain database.
#[test]
fn figure3_sql_texts_execute() {
    use curated_db::relalg::sql::execute;
    use curated_db::relalg::{Database, Relation};
    let base = Database::new().with(
        "R",
        Relation::table(["A", "B"], [vec![int(10), int(49)], vec![int(12), int(50)]]).unwrap(),
    );
    let expected: std::collections::BTreeSet<Vec<Atom>> =
        [vec![int(10), int(55)], vec![int(12), int(50)]]
            .into_iter()
            .collect();

    let mut db1 = base.clone();
    let out = execute(
        &mut db1,
        "SELECT R.A, 55 AS B FROM R WHERE A = 10 UNION SELECT * FROM R WHERE A <> 10",
    )
    .unwrap();
    assert_eq!(out.tuple_set(), expected);

    let mut db2 = base.clone();
    execute(&mut db2, "DELETE FROM R WHERE A = 10").unwrap();
    execute(&mut db2, "INSERT INTO R VALUES (10, 55)").unwrap();
    assert_eq!(db2.get("R").unwrap().tuple_set(), expected);

    let mut db3 = base.clone();
    execute(&mut db3, "UPDATE R WHERE A = 10; SET B = 55").unwrap();
    assert_eq!(db3.get("R").unwrap().tuple_set(), expected);
}

/// E5 — §2.2: reverse propagation. On a join+projection view the
/// general search finds the unique side-effect-free placement by
/// forward-probing every candidate source cell, the key-preserving
/// fast path finds the same placement in a single evaluation, and the
/// placement verifies forward identically on both physical engines.
#[test]
fn e5_reverse_propagation_placements() {
    use curated_db::annotation::reverse::{find_placement_key_preserving, find_placements, Target};
    use curated_db::relalg::eval::eval;
    use curated_db::relalg::{eval_hash, Database, RaExpr, Relation};

    let db = Database::new()
        .with(
            "R",
            Relation::table(["A", "B"], [vec![int(1), int(10)], vec![int(2), int(20)]]).unwrap(),
        )
        .with(
            "S",
            Relation::table(
                ["B", "C"],
                [vec![int(10), int(100)], vec![int(20), int(100)]],
            )
            .unwrap(),
        );
    // The key-preserving view π_{A,C}(R ⋈ S) — R's key A survives.
    let q = RaExpr::scan("R")
        .natural_join(RaExpr::scan("S"))
        .project(vec![ProjItem::col("A", "A"), ProjItem::col("C", "C")]);

    // The view itself, exactly, on every engine.
    let expected =
        Relation::table(["A", "C"], [vec![int(1), int(100)], vec![int(2), int(100)]]).unwrap();
    assert_eq!(eval(&db, &q).unwrap(), expected);
    for cfg in engine_configs() {
        assert_eq!(eval_hash(&db, &q, &cfg).unwrap(), expected);
    }

    let target = Target {
        tuple: vec![int(1), int(100)],
        attr: "A".into(),
    };
    let (slow, slow_stats) = find_placements(&db, &q, &target).unwrap();
    assert_eq!(slow.len(), 1, "the placement is unique");
    assert_eq!(slow[0].relation, "R");
    assert_eq!(slow[0].tuple, vec![int(1), int(10)]);
    assert_eq!(slow[0].attr, "A");

    let (fast, fast_stats) = find_placement_key_preserving(&db, &q, "R", &["A"], &target).unwrap();
    assert_eq!(fast.as_ref(), Some(&slow[0]));
    // E5's complexity split: one forward evaluation for the
    // key-preserving path vs one per candidate source cell (2 relations
    // × 2 tuples × 2 attrs = 8) for the general search.
    assert_eq!(fast_stats.evaluations, 1);
    assert_eq!(slow_stats.candidates_tested, 8);
    assert_eq!(slow_stats.evaluations, 8);

    // Forward verification on both engines: a probe color on R(1,10).A
    // lands exactly on the target cell and nowhere else.
    let mut probed = ColoredTuple::plain(vec![int(1), int(10)]);
    probed.colors[0].insert("probe".to_string());
    let cdb = ColoredDatabase::new()
        .with(
            "R",
            ColoredRelation::from_tuples(
                Schema::new(["A", "B"]).unwrap(),
                [probed, ColoredTuple::plain(vec![int(2), int(20)])],
            )
            .unwrap(),
        )
        .with(
            "S",
            ColoredRelation::from_tuples(
                Schema::new(["B", "C"]).unwrap(),
                [
                    ColoredTuple::plain(vec![int(10), int(100)]),
                    ColoredTuple::plain(vec![int(20), int(100)]),
                ],
            )
            .unwrap(),
        );
    let landing = vec![(vec![int(1), int(100)], "A".to_string())];
    assert_eq!(
        eval_colored(&cdb, &q, &Scheme::Default)
            .unwrap()
            .occurrences("probe"),
        landing
    );
    for cfg in engine_configs() {
        assert_eq!(
            eval_colored_with(&cdb, &q, &Scheme::Default, &cfg)
                .unwrap()
                .occurrences("probe"),
            landing
        );
    }
}

/// E11 — §2.1: block annotations (MONDRIAN). A color-algebra query
/// equals a positive-RA query over the explicit representation
/// (indicator columns + color column) — the form in which \[40, 41\]
/// state expressive completeness — and that RA query runs identically
/// on both physical engines.
#[test]
fn e11_block_annotations_equal_ra_over_explicit() {
    use curated_db::annotation::blocks::{Block, BlockRelation, BlockTuple};
    use curated_db::relalg::eval::eval;
    use curated_db::relalg::{eval_hash, Database, RaExpr};

    let s = |x: &str| Atom::Str(x.into());
    let genes = BlockRelation::from_tuples(
        Schema::new(["gene", "organism"]).unwrap(),
        [
            BlockTuple {
                values: vec![s("adh1"), s("yeast")],
                blocks: vec![
                    Block::new(["gene"], "verified"),
                    Block::new(["gene", "organism"], "curated"),
                ],
            },
            BlockTuple {
                values: vec![s("adh2"), s("yeast")],
                blocks: vec![Block::new(["organism"], "verified")],
            },
            BlockTuple {
                values: vec![s("gpd1"), s("fly")],
                blocks: vec![],
            },
        ],
    )
    .unwrap();

    // The explicit representation round-trips exactly.
    let explicit = genes.to_explicit().unwrap();
    assert_eq!(
        explicit.schema().attrs(),
        ["gene", "organism", "in_gene", "in_organism", "color"]
    );
    assert_eq!(explicit.len(), 4, "one row per (tuple, block)");
    assert_eq!(BlockRelation::from_explicit(&explicit, 2).unwrap(), genes);

    // σ_color("verified" on gene) ≡ π_values(σ_{color ∧ in_gene}(E)).
    let db = Database::new().with("E", explicit);
    let q = RaExpr::scan("E")
        .select(Pred::col_eq_const("color", "verified").and(Pred::col_eq_const("in_gene", true)))
        .project_cols(["gene", "organism"]);
    let direct: std::collections::BTreeSet<Vec<Atom>> = genes
        .select_color(Some("verified"), Some("gene"))
        .unwrap()
        .tuples()
        .iter()
        .map(|t| t.values.clone())
        .collect();
    assert_eq!(direct.len(), 1, "only adh1's block covers gene");
    assert_eq!(eval(&db, &q).unwrap().tuple_set(), direct);
    for cfg in engine_configs() {
        assert_eq!(eval_hash(&db, &q, &cfg).unwrap().tuple_set(), direct);
    }

    // σ_values(organism = yeast) ≡ σ_{organism = yeast}(E): the same
    // rows, blocks included, and they round-trip to the same relation.
    let yeast = Pred::col_eq_const("organism", "yeast");
    let selected = genes.select_values(&yeast).unwrap();
    assert_eq!(selected.tuples().len(), 2, "adh1 and adh2");
    let direct = selected.to_explicit().unwrap().tuple_set();
    let q = RaExpr::scan("E").select(yeast);
    let over_explicit = eval(&db, &q).unwrap();
    assert_eq!(over_explicit.tuple_set(), direct);
    assert_eq!(over_explicit.len(), 3, "adh1's two blocks and adh2's one");
    assert_eq!(
        BlockRelation::from_explicit(&over_explicit, 2).unwrap(),
        selected
    );
    for cfg in engine_configs() {
        assert_eq!(eval_hash(&db, &q, &cfg).unwrap().tuple_set(), direct);
    }
}

/// DEFAULT-ALL makes the equivalent queries Q1/Q2 agree — and custom
/// propagation can steer annotations anywhere.
#[test]
fn e1_schemes_cover_the_design_space() {
    let rel = |rows: [(i64, i64, [&str; 2]); 2]| {
        ColoredRelation::from_tuples(
            Schema::new(["A", "B"]).unwrap(),
            rows.map(|(a, b, cs)| ColoredTuple::with_colors(vec![int(a), int(b)], cs.to_vec())),
        )
        .unwrap()
    };
    let db = ColoredDatabase::new()
        .with("R", rel([(10, 49, ["b1", "b2"]), (12, 50, ["b3", "b4"])]))
        .with("S", rel([(11, 49, ["b5", "b6"]), (12, 50, ["b7", "b8"])]));
    let q1 = paper_q(vec![ProjItem::col("R.A", "A"), ProjItem::col("R.B", "B")]);
    let q2 = paper_q(vec![ProjItem::col("S.A", "A"), ProjItem::constant(50, "B")]);
    let a1 = eval_colored(&db, &q1, &Scheme::DefaultAll).unwrap();
    let a2 = eval_colored(&db, &q2, &Scheme::DefaultAll).unwrap();
    assert_eq!(a1, a2);
    let steer: BTreeMap<String, Vec<String>> = [("A".to_string(), vec!["S.B".to_string()])]
        .into_iter()
        .collect();
    let scheme = Scheme::Custom(steer);
    let c = eval_colored(&db, &q2, &scheme).unwrap();
    let colors = c.cell_colors(&vec![int(12), int(50)], "A").unwrap();
    assert_eq!(colors.iter().cloned().collect::<Vec<_>>(), vec!["b8"]);
    // Scheme behaviour is engine-independent.
    for cfg in engine_configs() {
        assert_eq!(
            a1,
            eval_colored_with(&db, &q1, &Scheme::DefaultAll, &cfg).unwrap()
        );
        assert_eq!(c, eval_colored_with(&db, &q2, &scheme, &cfg).unwrap());
    }
}
