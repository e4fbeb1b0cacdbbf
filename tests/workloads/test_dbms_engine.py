"""Tests for the engine: storage, queries, indexes, transactions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DbmsError, SqlExecutionError
from repro.workloads.dbms.btree import BPlusTree
from repro.workloads.dbms.engine import Database, KernelCostHooks
from repro.workloads.dbms.pager import Pager
from repro.workloads.dbms.speedtest import run_speedtest


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE people (id INTEGER PRIMARY KEY, "
                     "name TEXT, age INTEGER)")
    database.execute(
        "INSERT INTO people VALUES "
        "(1, 'alice', 34), (2, 'bob', 28), (3, 'carol', 41), "
        "(4, 'dave', 28), (5, 'erin', 55)"
    )
    return database


class TestBPlusTree:
    def test_insert_and_get(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert(i, i * 10)
        assert tree.get(42) == 420
        assert len(tree) == 100

    def test_split_keeps_order(self):
        tree = BPlusTree(order=4)
        for i in reversed(range(50)):
            tree.insert(i, i)
        assert [k for k, _ in tree.items()] == list(range(50))
        assert tree.depth() > 1

    def test_duplicate_rejected(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        with pytest.raises(DbmsError):
            tree.insert(1, "b")

    def test_replace(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        tree.insert(1, "b", replace=True)
        assert tree.get(1) == "b"
        assert len(tree) == 1

    def test_delete(self):
        tree = BPlusTree(order=4)
        for i in range(30):
            tree.insert(i, i)
        assert tree.delete(7)
        assert not tree.delete(7)
        assert tree.get(7) is None
        assert len(tree) == 29

    def test_contains(self):
        tree = BPlusTree()
        tree.insert(5, None)     # None value is still present
        assert 5 in tree
        assert 6 not in tree

    def test_range_scan(self):
        tree = BPlusTree(order=4)
        for i in range(0, 100, 2):
            tree.insert(i, i)
        keys = [k for k, _ in tree.range(10, 20)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_range_exclusive_bounds(self):
        tree = BPlusTree(order=4)
        for i in range(10):
            tree.insert(i, i)
        keys = [k for k, _ in tree.range(2, 6, include_low=False,
                                         include_high=False)]
        assert keys == [3, 4, 5]

    def test_open_ranges(self):
        tree = BPlusTree(order=4)
        for i in range(10):
            tree.insert(i, i)
        assert [k for k, _ in tree.range(None, 3)] == [0, 1, 2, 3]
        assert [k for k, _ in tree.range(7, None)] == [7, 8, 9]

    def test_order_too_small(self):
        with pytest.raises(DbmsError):
            BPlusTree(order=2)

    @settings(max_examples=30, deadline=None)
    @given(keys=st.lists(st.integers(-1000, 1000), unique=True, max_size=200))
    def test_items_always_sorted(self, keys):
        """Property: iteration yields keys in sorted order after any
        insert sequence."""
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert(key, key)
        assert [k for k, _ in tree.items()] == sorted(keys)

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 300), unique=True, min_size=1,
                      max_size=100),
        data=st.data(),
    )
    def test_delete_then_membership(self, keys, data):
        """Property: after deleting a subset, exactly the rest remain."""
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert(key, key)
        to_delete = data.draw(st.sets(st.sampled_from(keys)))
        for key in to_delete:
            assert tree.delete(key)
        remaining = sorted(set(keys) - to_delete)
        assert [k for k, _ in tree.items()] == remaining


class TestPager:
    def test_cold_read_counts(self):
        pager = Pager()
        assert pager.read(1) is False
        assert pager.stats.reads == 1

    def test_hot_read_is_cache_hit(self):
        pager = Pager()
        pager.read(1)
        assert pager.read(1) is True
        assert pager.stats.cache_hits == 1

    def test_eviction(self):
        pager = Pager(cache_pages=2)
        pager.read(1)
        pager.read(2)
        pager.read(3)            # evicts page 1
        assert pager.read(1) is False

    def test_commit_flushes_dirty(self):
        pager = Pager()
        pager.write(1)
        pager.write(2)
        assert pager.commit() == 2
        assert pager.commit() == 0
        assert pager.stats.writes == 2
        assert pager.stats.journal_writes == 2

    def test_rollback_discards(self):
        pager = Pager()
        pager.write(1)
        assert pager.rollback() == 1
        assert pager.stats.writes == 0


class TestQueries:
    def test_select_all(self, db):
        result = db.execute("SELECT * FROM people")
        assert result.rowcount == 5
        assert result.columns == ["id", "name", "age"]

    def test_where_filter(self, db):
        result = db.execute("SELECT name FROM people WHERE age = 28")
        assert sorted(r[0] for r in result.rows) == ["bob", "dave"]

    def test_primary_key_lookup_uses_index(self, db):
        table = db.table("people")
        assert "id" in table.indexes
        result = db.execute("SELECT name FROM people WHERE id = 3")
        assert result.rows == [("carol",)]

    def test_index_and_scan_agree(self, db):
        db.execute("CREATE INDEX iage ON people (age)")
        indexed = db.execute("SELECT id FROM people WHERE age = 28")
        by_scan = db.execute("SELECT id FROM people WHERE age + 0 = 28")
        assert sorted(indexed.rows) == sorted(by_scan.rows)

    def test_range_via_index(self, db):
        db.execute("CREATE INDEX iage ON people (age)")
        result = db.execute("SELECT name FROM people WHERE age >= 40")
        assert sorted(r[0] for r in result.rows) == ["carol", "erin"]

    def test_order_by_desc(self, db):
        result = db.execute("SELECT name FROM people ORDER BY age DESC, name")
        assert result.rows[0] == ("erin",)

    def test_order_by_multi_key(self, db):
        result = db.execute("SELECT name FROM people ORDER BY age, name")
        assert [r[0] for r in result.rows] == [
            "bob", "dave", "alice", "carol", "erin"
        ]

    def test_limit(self, db):
        assert db.execute("SELECT id FROM people ORDER BY id LIMIT 2").rows == [
            (1,), (2,)
        ]

    def test_aggregates(self, db):
        result = db.execute("SELECT COUNT(*), MIN(age), MAX(age), AVG(age) "
                            "FROM people")
        assert result.rows == [(5, 28, 55, 37.2)]

    def test_group_by(self, db):
        result = db.execute(
            "SELECT age, COUNT(*) FROM people GROUP BY age ORDER BY age"
        )
        assert result.rows == [(28, 2), (34, 1), (41, 1), (55, 1)]

    def test_count_ignores_null(self, db):
        db.execute("INSERT INTO people VALUES (6, 'frank', NULL)")
        result = db.execute("SELECT COUNT(age), COUNT(*) FROM people")
        assert result.rows == [(5, 6)]

    def test_distinct(self, db):
        result = db.execute("SELECT DISTINCT age FROM people WHERE age = 28")
        assert result.rows == [(28,)]

    def test_join(self, db):
        db.execute("CREATE TABLE pets (owner INTEGER, pet TEXT)")
        db.execute("INSERT INTO pets VALUES (1, 'cat'), (1, 'dog'), (3, 'fish')")
        result = db.execute(
            "SELECT people.name, pets.pet FROM people "
            "JOIN pets ON people.id = pets.owner ORDER BY pet"
        )
        assert result.rows == [("alice", "cat"), ("alice", "dog"),
                               ("carol", "fish")]

    def test_join_with_where(self, db):
        db.execute("CREATE TABLE pets (owner INTEGER, pet TEXT)")
        db.execute("INSERT INTO pets VALUES (1, 'cat'), (3, 'fish')")
        result = db.execute(
            "SELECT pets.pet FROM people JOIN pets ON people.id = pets.owner "
            "WHERE people.age > 40"
        )
        assert result.rows == [("fish",)]

    def test_expression_projection(self, db):
        result = db.execute("SELECT age * 2 FROM people WHERE id = 1")
        assert result.scalar() == 68

    def test_unknown_table(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("SELECT * FROM nope")

    def test_unknown_column(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("SELECT salary FROM people")

    def test_ambiguous_column(self, db):
        db.execute("CREATE TABLE twin (id INTEGER, name TEXT)")
        db.execute("INSERT INTO twin VALUES (1, 'x')")
        with pytest.raises(SqlExecutionError, match="ambiguous"):
            db.execute("SELECT name FROM people JOIN twin ON people.id = twin.id")


class TestMutations:
    def test_update_with_where(self, db):
        count = db.execute("UPDATE people SET age = 29 WHERE name = 'bob'")
        assert count.rowcount == 1
        assert db.execute("SELECT age FROM people WHERE name = 'bob'").scalar() == 29

    def test_update_expression(self, db):
        db.execute("UPDATE people SET age = age + 1")
        total = db.execute("SELECT SUM(age) FROM people").scalar()
        assert total == 34 + 28 + 41 + 28 + 55 + 5

    def test_update_maintains_index(self, db):
        db.execute("CREATE INDEX iage ON people (age)")
        db.execute("UPDATE people SET age = 99 WHERE name = 'alice'")
        result = db.execute("SELECT name FROM people WHERE age = 99")
        assert result.rows == [("alice",)]

    def test_delete(self, db):
        assert db.execute("DELETE FROM people WHERE age = 28").rowcount == 2
        assert db.execute("SELECT COUNT(*) FROM people").scalar() == 3

    def test_delete_all(self, db):
        db.execute("DELETE FROM people")
        assert db.execute("SELECT COUNT(*) FROM people").scalar() == 0

    def test_unique_violation(self, db):
        with pytest.raises(SqlExecutionError, match="UNIQUE"):
            db.execute("INSERT INTO people VALUES (1, 'dup', 1)")

    def test_insert_with_columns_fills_null(self, db):
        db.execute("INSERT INTO people (id, name) VALUES (10, 'zoe')")
        assert db.execute("SELECT age FROM people WHERE id = 10").scalar() is None

    def test_drop_table(self, db):
        db.execute("DROP TABLE people")
        with pytest.raises(SqlExecutionError):
            db.execute("SELECT * FROM people")

    def test_drop_missing_table(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("DROP TABLE ghost")
        db.execute("DROP TABLE IF EXISTS ghost")   # tolerated

    def test_create_if_not_exists(self, db):
        db.execute("CREATE TABLE IF NOT EXISTS people (id INTEGER)")
        assert db.execute("SELECT COUNT(*) FROM people").scalar() == 5


class TestTransactions:
    def test_commit_persists(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO people VALUES (6, 'fred', 20)")
        db.execute("COMMIT")
        assert db.execute("SELECT COUNT(*) FROM people").scalar() == 6

    def test_rollback_insert(self, db):
        db.execute("BEGIN")
        db.execute("INSERT INTO people VALUES (6, 'fred', 20)")
        db.execute("ROLLBACK")
        assert db.execute("SELECT COUNT(*) FROM people").scalar() == 5

    def test_rollback_delete_restores_rows_and_index(self, db):
        db.execute("BEGIN")
        db.execute("DELETE FROM people WHERE id = 1")
        db.execute("ROLLBACK")
        assert db.execute("SELECT name FROM people WHERE id = 1").scalar() == "alice"

    def test_rollback_update(self, db):
        db.execute("BEGIN")
        db.execute("UPDATE people SET age = 0")
        db.execute("ROLLBACK")
        assert db.execute("SELECT SUM(age) FROM people").scalar() == 186

    def test_nested_begin_rejected(self, db):
        db.execute("BEGIN")
        with pytest.raises(SqlExecutionError):
            db.execute("BEGIN")

    def test_commit_without_begin(self, db):
        with pytest.raises(SqlExecutionError):
            db.execute("COMMIT")

    def test_batched_inserts_flush_once(self, db):
        """Transactions batch page flushes — the speedtest-110 effect."""
        autocommit = Database()
        autocommit.execute("CREATE TABLE t (a INTEGER)")
        for i in range(20):
            autocommit.execute(f"INSERT INTO t VALUES ({i})")
        batched = Database()
        batched.execute("CREATE TABLE t (a INTEGER)")
        batched.execute("BEGIN")
        for i in range(20):
            batched.execute(f"INSERT INTO t VALUES ({i})")
        batched.execute("COMMIT")
        assert batched.pager.stats.writes < autocommit.pager.stats.writes


class TestSpeedtest:
    def test_runs_all_sixteen_tests(self):
        results = run_speedtest(Database(), size=5)
        assert len(results) == 16
        assert [r.test_id for r in results] == [
            100, 110, 120, 130, 140, 142, 145, 150, 160, 170, 180,
            230, 240, 250, 260, 190
        ]

    def test_size_scales_statements(self):
        small = run_speedtest(Database(), size=2)
        large = run_speedtest(Database(), size=8)
        assert large[0].statements > small[0].statements

    def test_rejects_zero_size(self):
        with pytest.raises(DbmsError):
            run_speedtest(Database(), size=0)

    def test_clock_measures_elapsed(self):
        ticks = iter(range(0, 10_000, 7))
        results = run_speedtest(Database(), size=2,
                                clock=lambda: float(next(ticks)))
        assert all(r.elapsed_ns > 0 for r in results)

    def test_kernel_hooks_charge_costs(self):
        from repro.guestos.context import CostProfile, ExecContext
        from repro.guestos.kernel import GuestKernel
        from repro.hw.machine import xeon_gold_5515
        from repro.sim.rng import SimRng

        kernel = GuestKernel(ExecContext(
            machine=xeon_gold_5515(),
            profile=CostProfile(noise_sigma=0.0),
            rng=SimRng(2),
        ))
        database = Database(hooks=KernelCostHooks(kernel))
        run_speedtest(database, size=3, clock=kernel.ctx.elapsed_ns)
        assert kernel.ctx.elapsed_ns() > 0
