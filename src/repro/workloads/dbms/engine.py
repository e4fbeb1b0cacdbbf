"""The database facade with transaction and cost-hook support.

:class:`Database` owns the catalog, the pager and the undo log.
``execute(sql)`` parses, plans, runs and charges costs through a
:class:`DbCostHooks` implementation — the default is a no-op (pure
functional engine); :class:`KernelCostHooks` maps parsing to CPU
work, row touches to per-row CPU work, and pager traffic to disk I/O
on a guest kernel, which is how the speedtest runs inside a VM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SqlExecutionError
from repro.guestos.kernel import GuestKernel
from repro.workloads.dbms import ast_nodes as ast
from repro.workloads.dbms.executor import ExecResult, Executor
from repro.workloads.dbms.pager import PAGE_SIZE, Pager
from repro.workloads.dbms.parser import parse
from repro.workloads.dbms.table import Table


class DbCostHooks:
    """Cost callbacks; the base class is a no-op for pure use."""

    def on_parse(self, sql_length: int) -> None:
        """Called once per statement with the SQL text length."""

    def on_rows(self, count: int) -> None:
        """Called with the number of rows touched by a statement."""

    def on_page_reads(self, count: int) -> None:
        """Called with pages read from storage (cache misses)."""

    def on_page_writes(self, count: int) -> None:
        """Called with pages flushed (journal + data) at commit."""


@dataclass
class KernelCostHooks(DbCostHooks):
    """Maps engine work onto a guest kernel's execution context.

    Cost constants approximate SQLite's profile: ~2k instructions per
    row visited (decode + compare + copy) and page-sized disk
    transfers for storage traffic.
    """

    kernel: GuestKernel
    instructions_per_row: int = 2_000
    instructions_per_sql_byte: int = 220

    def on_parse(self, sql_length: int) -> None:
        self.kernel.ctx.cpu_execute(sql_length * self.instructions_per_sql_byte)

    def on_rows(self, count: int) -> None:
        if count > 0:
            self.kernel.ctx.cpu_execute(
                count * self.instructions_per_row,
                memory_references=count * 40,
                working_set_bytes=count * 120,
            )

    def on_page_reads(self, count: int) -> None:
        if count > 0:
            self.kernel.ctx.disk_read(count * PAGE_SIZE)

    def on_page_writes(self, count: int) -> None:
        if count > 0:
            self.kernel.ctx.disk_write(count * PAGE_SIZE)


class Database:
    """An in-memory relational database with SQLite-flavoured SQL."""

    def __init__(self, hooks: DbCostHooks | None = None) -> None:
        self.hooks = hooks if hooks is not None else DbCostHooks()
        self.pager = Pager()
        self.tables: dict[str, Table] = {}
        self._next_table_id = 1
        self.in_transaction = False
        self._undo: list[tuple] = []
        self.statements_executed = 0

    # -- catalog -----------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SqlExecutionError(f"no such table: {name}") from None

    def log_undo(self, entry: tuple) -> None:
        """Record an undoable mutation while a transaction is open."""
        if self.in_transaction:
            self._undo.append(entry)

    # -- execution -------------------------------------------------------------

    def execute(self, sql: str) -> ExecResult:
        """Parse and run one statement, charging cost hooks."""
        self.statements_executed += 1
        self.hooks.on_parse(len(sql))
        statement = parse(sql)
        reads_before = self.pager.stats.reads

        executor = Executor(self)
        result = self._dispatch(statement, executor)

        self.hooks.on_rows(executor.rows_touched)
        self.hooks.on_page_reads(self.pager.stats.reads - reads_before)
        if not self.in_transaction:
            flushed = self.pager.commit()
            self.hooks.on_page_writes(flushed)
            self._undo.clear()
        return result

    def _dispatch(self, statement: ast.Statement,
                  executor: Executor) -> ExecResult:
        if isinstance(statement, ast.Select):
            return executor.select(statement)
        if isinstance(statement, ast.Insert):
            return executor.insert(statement)
        if isinstance(statement, ast.Update):
            return executor.update(statement)
        if isinstance(statement, ast.Delete):
            return executor.delete(statement)
        if isinstance(statement, ast.CreateTable):
            return self._create_table(statement)
        if isinstance(statement, ast.CreateIndex):
            return self._create_index(statement)
        if isinstance(statement, ast.DropTable):
            return self._drop_table(statement)
        if isinstance(statement, ast.Begin):
            return self._begin()
        if isinstance(statement, ast.Commit):
            return self._commit()
        if isinstance(statement, ast.Rollback):
            return self._rollback()
        raise SqlExecutionError(f"unhandled statement {statement!r}")

    # -- DDL ---------------------------------------------------------------------

    def _create_table(self, statement: ast.CreateTable) -> ExecResult:
        if statement.table in self.tables:
            if statement.if_not_exists:
                return ExecResult(columns=[], rows=[])
            raise SqlExecutionError(f"table {statement.table!r} already exists")
        self.tables[statement.table] = Table(
            name=statement.table,
            columns=statement.columns,
            pager=self.pager,
            table_id=self._next_table_id,
        )
        self._next_table_id += 1
        self.pager.write(self._next_table_id * 1_000_000)   # schema page
        return ExecResult(columns=[], rows=[])

    def _create_index(self, statement: ast.CreateIndex) -> ExecResult:
        table = self.table(statement.table)
        table.create_index(statement.index, statement.column,
                           unique=statement.unique)
        # building the index touches every row
        executor_rows = table.row_count()
        self.hooks.on_rows(executor_rows)
        return ExecResult(columns=[], rows=[])

    def _drop_table(self, statement: ast.DropTable) -> ExecResult:
        if statement.table not in self.tables:
            if statement.if_exists:
                return ExecResult(columns=[], rows=[])
            raise SqlExecutionError(f"no such table: {statement.table}")
        del self.tables[statement.table]
        return ExecResult(columns=[], rows=[])

    # -- transactions ---------------------------------------------------------------

    def _begin(self) -> ExecResult:
        if self.in_transaction:
            raise SqlExecutionError("already in a transaction")
        self.in_transaction = True
        self._undo.clear()
        return ExecResult(columns=[], rows=[])

    def _commit(self) -> ExecResult:
        if not self.in_transaction:
            raise SqlExecutionError("no transaction to commit")
        self.in_transaction = False
        self._undo.clear()
        flushed = self.pager.commit()
        self.hooks.on_page_writes(flushed)
        return ExecResult(columns=[], rows=[])

    def _rollback(self) -> ExecResult:
        if not self.in_transaction:
            raise SqlExecutionError("no transaction to roll back")
        self.in_transaction = False
        for entry in reversed(self._undo):
            kind, table_name = entry[0], entry[1]
            table = self.tables.get(table_name)
            if table is None:
                continue
            if kind == "insert":
                table.delete_row(entry[2])
            elif kind == "delete":
                table.insert_row(entry[3], rowid=entry[2])
            elif kind == "update":
                table.update_row(entry[2], entry[3])
        self._undo.clear()
        self.pager.rollback()
        return ExecResult(columns=[], rows=[])
