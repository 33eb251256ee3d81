import itertools
import random
import shutil

import pytest

from tumbug import DATA_DIR
from tumbug.lexicon import (
    ATTITUDE_CATALOG,
    CORE_ATTITUDES,
    Cell,
    ConceptVector,
    EmptyLexicon,
    Lexicon,
    MODAL_CONCEPTS,
    MODAL_VERBS,
    ModalTable,
    SchemaMismatch,
    TableFormatError,
    UnknownModalRow,
    attitude_category,
    load_default_modal_table,
    load_table,
    load_table_text,
    match_count,
    modal_concepts,
    modal_icon,
    select_word,
    tables_dir,
)


def vec(*cells: str, names=None) -> ConceptVector:
    names = names or tuple(f"a{i}" for i in range(len(cells)))
    return ConceptVector(tuple(names), tuple(Cell(c) for c in cells))


def oracle_cell_match(a: Cell, b: Cell) -> bool:
    """The per-cell rule, written out longhand for cross-checking."""
    if a is Cell.DC and b is Cell.DC:
        return True  # don't-care on both sides still agrees
    if a is Cell.DC or b is Cell.DC:
        return True
    return (a is Cell.T and b is Cell.T) or (a is Cell.F and b is Cell.F)


class TestMatchCount:
    def test_worked_translation_counts(self):
        context = vec("T", "T")
        lancer = vec("T", "T")
        jeter = vec("F", "T")
        assert match_count(context, lancer) == 2
        assert match_count(context, jeter) == 1

    def test_identical_all_true(self):
        n = 9
        v = vec(*(["T"] * n))
        assert match_count(v, v) == n

    def test_exhaustive_cell_pairs_match_oracle(self):
        for a, b in itertools.product(Cell, repeat=2):
            got = match_count(vec(a.value), vec(b.value))
            assert got == (1 if oracle_cell_match(a, b) else 0), (a, b)

    def test_random_vectors_match_cellwise_sum(self):
        rng = random.Random(21)
        names = tuple(f"c{i}" for i in range(8))
        for _ in range(500):
            a = ConceptVector(names, tuple(rng.choice(list(Cell)) for _ in names))
            b = ConceptVector(names, tuple(rng.choice(list(Cell)) for _ in names))
            expected = sum(1 for x, y in zip(a.cells, b.cells) if oracle_cell_match(x, y))
            assert match_count(a, b) == expected

    def test_symmetric_and_bounded(self):
        rng = random.Random(22)
        names = tuple(f"c{i}" for i in range(6))
        for _ in range(200):
            a = ConceptVector(names, tuple(rng.choice(list(Cell)) for _ in names))
            b = ConceptVector(names, tuple(rng.choice(list(Cell)) for _ in names))
            assert match_count(a, b) == match_count(b, a)
            assert 0 <= match_count(a, b) <= len(names)

    def test_dc_monotonicity(self):
        rng = random.Random(23)
        names = tuple(f"c{i}" for i in range(8))
        for _ in range(2000):
            a = ConceptVector(names, tuple(rng.choice(list(Cell)) for _ in names))
            b = ConceptVector(names, tuple(rng.choice(list(Cell)) for _ in names))
            base = match_count(a, b)
            loosened = b.with_cell(rng.choice(names), Cell.DC)
            assert match_count(a, loosened) >= base

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            match_count(vec("T"), vec("T", "F"))
        with pytest.raises(SchemaMismatch):
            match_count(vec("T", names=("x",)), vec("T", names=("y",)))


class TestSelectWord:
    def make_lexicon(self, entries):
        lex = Lexicon("fr")
        for word, cells in entries.items():
            lex.entries[word] = vec(*cells)
        return lex

    def test_baseball_context_selects_lancer(self):
        lex = self.make_lexicon({"jeter": ("F", "T"), "lancer": ("T", "T")})
        ranked = select_word(vec("T", "T"), lex)
        assert [(r.word, r.count) for r in ranked] == [("lancer", 2), ("jeter", 1)]
        assert ranked[0].rank == 1 and not ranked[0].tied

    def test_single_entry(self):
        lex = self.make_lexicon({"solo": ("T",)})
        ranked = select_word(vec("T"), lex)
        assert [(r.word, r.count) for r in ranked] == [("solo", 1)]

    def test_ties_share_rank_and_flag(self):
        lex = self.make_lexicon({"beta": ("T", "F"), "alfa": ("F", "T"), "gamma": ("T", "T")})
        ranked = select_word(vec("T", "T"), lex)
        assert ranked[0].word == "gamma" and ranked[0].rank == 1 and not ranked[0].tied
        assert [(r.word, r.rank, r.tied) for r in ranked[1:]] == [
            ("alfa", 2, True),
            ("beta", 2, True),
        ]

    def test_insertion_order_irrelevant(self):
        a = self.make_lexicon({"x": ("T", "F"), "y": ("T", "T")})
        b = self.make_lexicon({"y": ("T", "T"), "x": ("T", "F")})
        ctx = vec("T", "T")
        assert select_word(ctx, a) == select_word(ctx, b)

    def test_top1_matches_bruteforce_argmax(self):
        rng = random.Random(31)
        names = tuple(f"c{i}" for i in range(5))
        for _ in range(200):
            lex = Lexicon("xx")
            for w in ("aa", "bb", "cc", "dd"):
                lex.entries[w] = ConceptVector(
                    names, tuple(rng.choice(list(Cell)) for _ in names)
                )
            ctx = ConceptVector(names, tuple(rng.choice(list(Cell)) for _ in names))
            ranked = select_word(ctx, lex)
            best = max(
                sorted(lex.entries), key=lambda w: (match_count(ctx, lex.entries[w]), )
            )
            assert ranked[0].count == match_count(ctx, lex.entries[best])

    def test_empty_lexicon(self):
        with pytest.raises(EmptyLexicon):
            select_word(vec("T"), Lexicon("fr"))

    def test_ranks_and_ties_follow_the_counts(self):
        # Rank is 1 + the number of words with a strictly higher count, and a
        # word is tied exactly when another word has its count.
        rng = random.Random(47)
        names = tuple(f"c{i}" for i in range(4))
        for _ in range(60):
            lex = Lexicon("xx")
            for i in range(rng.randrange(1, 40)):
                lex.entries[f"w{i}"] = ConceptVector(
                    names, tuple(rng.choice(list(Cell)) for _ in names)
                )
            ctx = ConceptVector(names, tuple(rng.choice(list(Cell)) for _ in names))
            counts = {w: match_count(ctx, v) for w, v in lex.entries.items()}
            ranked = select_word(ctx, lex)
            assert sorted(r.word for r in ranked) == sorted(counts)
            for r in ranked:
                assert r.count == counts[r.word]
                assert r.rank == 1 + sum(1 for c in counts.values() if c > r.count)
                assert r.tied == (list(counts.values()).count(r.count) > 1)


class TestShippedFixtures:
    def test_throw_example_end_to_end(self):
        context_table = load_table(tables_dir() / "throw_context.tbl")
        lexicon_table = load_table(tables_dir() / "throw_lexicon_fr.tbl")
        context = Lexicon.from_table(context_table).entries["baseball"]
        lex = Lexicon.from_table(lexicon_table, "fr")
        ranked = select_word(context, lex)
        assert [(r.word, r.count) for r in ranked] == [("lancer", 2), ("jeter", 1)]


class TestModalTable:
    def test_shipped_table_loads_with_all_16_verbs(self):
        table = load_default_modal_table()
        assert {verb for verb, _ in table.rows} == set(MODAL_VERBS)
        assert len(MODAL_VERBS) == 16
        assert len(MODAL_CONCEPTS) == 17

    def test_can_permission(self):
        table = load_default_modal_table()
        concepts = modal_concepts(table, "can", "permission")
        assert concepts.active == {"Permission", "Request"}
        assert concepts.implied == frozenset()

    def test_be_able_to_ability(self):
        table = load_default_modal_table()
        concepts = modal_concepts(table, "be able to", "ability")
        assert concepts.active == {"Ability"}
        assert concepts.implied == {"Request"}

    def test_unknown_row(self):
        table = load_default_modal_table()
        with pytest.raises(UnknownModalRow):
            modal_concepts(table, "can", "levitation")
        with pytest.raises(UnknownModalRow):
            modal_concepts(table, "zould", "ability")

    def test_unknown_concept_column_rejected(self):
        with pytest.raises(TableFormatError):
            ModalTable.from_table(load_table_text("Ability,Vibe\nx|y|T,F\n"))

    def test_missing_verbs_rejected(self):
        with pytest.raises(TableFormatError):
            ModalTable.from_table(load_table_text("Ability\ncan|ability|T\n"))

    def test_icon_active_cells(self):
        table = load_default_modal_table()
        icon = modal_icon(table, "can", "permission")
        assert icon.active == {"Permission", "Request"}
        # implied cells are included in the display
        able = modal_icon(table, "be able to", "ability")
        assert able.active == {"Ability", "Request"}

    def test_icon_skeleton_shared_across_rows(self):
        table = load_default_modal_table()
        icons = [modal_icon(table, verb, meaning) for verb, meaning in sorted(table.rows)]
        assert len({icon.cells for icon in icons}) == 1
        assert len(icons[0].cells) == len(MODAL_CONCEPTS)

    def test_distinct_rows_have_distinct_active_sets_unless_rows_identical(self):
        table = load_default_modal_table()
        keys = sorted(table.rows)
        for k1, k2 in itertools.combinations(keys, 2):
            r1, r2 = table.rows[k1], table.rows[k2]
            i1 = modal_icon(table, *k1)
            i2 = modal_icon(table, *k2)
            if (r1.active, r1.implied) == (r2.active, r2.implied):
                assert i1.active == i2.active
            else:
                assert i1.active != i2.active

    def test_default_table_is_read_once_per_tables_directory(self, tmp_path, monkeypatch):
        tables = shutil.copytree(DATA_DIR, tmp_path / "tables")
        monkeypatch.setenv("TUMBUG_TABLES", str(tables))
        first = load_default_modal_table()
        (tables / "modal_verbs.tbl").unlink()
        second = load_default_modal_table()
        assert second is not first and second.rows == first.rows
        assert second.rows is not first.rows

    def test_changing_one_default_tables_rows_leaves_the_next_calls_alone(self):
        # The rows are checked once, when the shared table is built; each
        # call copies them into a dict of its own.
        first = load_default_modal_table()
        rows = dict(first.rows)
        key = next(iter(first.rows))
        first.rows.pop(key)
        first.rows[("must", "whim")] = first.rows[next(iter(first.rows))]
        second = load_default_modal_table()
        assert second.rows == rows and second.rows is not first.rows
        assert second == ModalTable(rows)

    def test_a_table_built_from_rows_still_checks_them(self):
        rows = dict(load_default_modal_table().rows)
        verb = next(verb for verb, _ in rows)
        with pytest.raises(TableFormatError, match="missing verbs"):
            ModalTable({key: row for key, row in rows.items() if key[0] != verb})


class TestAttitudes:
    def test_each_core_attitude_in_exactly_one_category(self):
        for name in CORE_ATTITUDES:
            homes = [cat for cat, names in ATTITUDE_CATALOG.items() if name in names]
            assert len(homes) == 1, name
        assert len(CORE_ATTITUDES) == 16

    def test_category_lookup(self):
        assert attitude_category("believe") == "cognitive"
        assert attitude_category("fear") == "emotional motivation"
        assert attitude_category("command") == "grammatical"
        with pytest.raises(KeyError):
            attitude_category("boredom")


class TestTableFormat:
    def test_round_trippable_header_and_rows(self):
        table = load_table_text("a,b\nword|gloss|T,DC\n")
        assert table.attributes == ("a", "b")
        assert table.rows[0].word == "word"
        assert table.rows[0].cells == ("T", "DC")

    def test_bad_rows(self):
        with pytest.raises(TableFormatError):
            load_table_text("a,b\nword|gloss|T\n")  # wrong arity
        with pytest.raises(TableFormatError):
            load_table_text("a\nword|gloss|Q\n")  # bad token
        with pytest.raises(TableFormatError):
            load_table_text("a\nword only\n")  # missing separators
        with pytest.raises(TableFormatError):
            load_table_text("")  # no header

    def test_implied_cells_only_in_modal_tables(self):
        table = load_table_text("a\nword|gloss|(T)\n")
        with pytest.raises(TableFormatError):
            Lexicon.from_table(table)

    def test_tables_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TUMBUG_TABLES", str(tmp_path))
        assert tables_dir() == tmp_path
