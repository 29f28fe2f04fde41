"""Interactive shell: ``python -m repro [--db DIR] [--file SCRIPT]``.

A minimal console over :class:`~repro.api.QueryEngine`:

* statements end with ``;`` (multi-line input is buffered),
* read queries print their result table; updating queries print the
  Neo4j-style counter summary (plus the RETURN table, if any),
* ``--db DIR`` opens a :class:`~repro.graph.persistence.DurableGraph`
  (recovering snapshot + WAL) instead of an in-memory store,
* meta commands start with ``:`` — ``:help`` lists them.

The shell is also scriptable: pipe statements via stdin or pass
``--file``; exit status is 1 if any statement failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from .api import QueryEngine
from .compiler.stats import GraphStatistics
from .errors import ReproError
from .graph.graph import PropertyGraph
from .graph.persistence import DurableGraph
from .obs.export import render_json, render_prometheus, render_table

PROMPT = "repro> "
CONTINUATION = "  ...> "

HELP = """\
Statements end with ';'.  Read queries print rows; updating queries print
what changed.  Meta commands:
  :help                 this message
  :quit                 leave the shell
  :views                list registered incremental views
  :register <query>     register an incremental view
  :detach <n>           drop view number n
  :catalog              view-answering catalog: entries and hit counters
  :metrics [json|table] metrics snapshot, Prometheus text (JSON, or a p50/p99 table)
  :trace [on|off]       toggle per-batch tracing; bare :trace prints the last tree
  :costs                maintenance cost attributed per view (row-work units)
  :explain <query>      show the compilation stages, the code generated for
                        each σ/π, and the view-answering plan
  :profile <n>          per-node counters of view n
  :index <Label> <key>  create a property index
  :indexes              list property indexes
  :stats                graph size and planner statistics
  :checkpoint           snapshot + truncate the WAL (--db mode only)
"""


class Shell:
    """One interactive session over a graph."""

    def __init__(self, engine: QueryEngine, out: IO[str], durable=None):
        self.engine = engine
        self.out = out
        self.durable = durable
        self.failed = False

    # -- output --------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        self.out.write(text + "\n")

    def _error(self, exc: Exception) -> None:
        self.failed = True
        self._print(f"error: {exc}")

    # -- statement handling ------------------------------------------------------

    def run_statement(self, statement: str) -> None:
        statement = statement.strip().rstrip(";").strip()
        if not statement:
            return
        try:
            result = self.engine.execute(statement)
        except ReproError as exc:
            self._error(exc)
            return
        if result.table is not None:
            self._print(result.table.to_text())
        if result.summary.contains_updates:
            self._print(str(result.summary))
        elif result.table is None:
            self._print("no changes")

    def run_meta(self, line: str) -> bool:
        """Handle a ``:command``; returns False when the shell should exit."""
        command, _, argument = line.partition(" ")
        argument = argument.strip()
        try:
            return self._dispatch_meta(command, argument)
        except ReproError as exc:
            self._error(exc)
            return True

    def _dispatch_meta(self, command: str, argument: str) -> bool:
        if command in (":quit", ":exit", ":q"):
            return False
        if command == ":help":
            self._print(HELP)
        elif command == ":views":
            views = self.engine.views
            if not views:
                self._print("no views registered")
            for index, view in enumerate(views):
                self._print(
                    f"[{index}] {view.compiled.text.strip()} "
                    f"({len(view.multiset())} distinct rows)"
                )
        elif command == ":register":
            view = self.engine.register(argument)
            self._print(
                f"registered view [{len(self.engine.views) - 1}] "
                f"({sum(view.multiset().values())} rows)"
            )
        elif command == ":detach":
            views = self.engine.views
            index = int(argument)
            if not 0 <= index < len(views):
                self._print(f"no view [{index}]")
            else:
                views[index].detach()
                self._print(f"detached view [{index}]")
        elif command == ":catalog":
            catalog = self.engine.catalog
            self._print(f"{catalog.root_count} view root(s) servable")
            stats = catalog.stats
            self._print(
                f"answered {stats.answered}/{stats.queries} one-shot "
                f"queries from views ({stats.exact} exact, "
                f"{stats.residual} residual, "
                f"{stats.fallbacks} full evaluations)"
            )
        elif command == ":metrics":
            snapshot = self.engine.metrics_snapshot()
            if snapshot is None:
                self._print("metrics collection is off (start with --metrics)")
            elif argument == "json":
                self._print(render_json(snapshot).rstrip("\n"))
            elif argument == "table":
                self._print(render_table(snapshot).rstrip("\n"))
            elif argument:
                self._print("usage: :metrics [json|table]")
            else:
                self._print(render_prometheus(snapshot).rstrip("\n"))
        elif command == ":trace":
            if argument == "on":
                self.engine.set_tracing(True)
                self._print("batch tracing on")
            elif argument == "off":
                self.engine.set_tracing(False)
                self._print("batch tracing off")
            elif argument:
                self._print("usage: :trace [on|off]")
            elif self.engine.last_trace is None:
                state = "on" if self.engine.tracing else "off"
                self._print(f"tracing is {state}; no trace recorded yet")
            else:
                self._print(self.engine.last_trace.render())
        elif command == ":costs":
            costs = self.engine.view_costs()
            if not costs["views"]:
                self._print("no views registered")
            else:
                self._print(f"maintenance cost per view ({costs['unit']})")
                total = costs["total"] or 1.0
                for entry in costs["views"]:
                    self._print(
                        f"  [{entry['view']}] {entry['cost']:.1f} "
                        f"({entry['cost'] / total * 100:.1f}%)  "
                        f"{entry['query'].strip()}"
                    )
                self._print(
                    f"  unattributed {costs['unattributed']:.1f}, "
                    f"total {costs['total']:.1f}"
                )
        elif command == ":explain":
            self._print(self.engine.explain(argument))
        elif command == ":profile":
            views = self.engine.views
            index = int(argument) if argument else 0
            if not 0 <= index < len(views):
                self._print(f"no view [{index}]")
            else:
                self._print(views[index].profile())
        elif command == ":index":
            label, _, key = argument.partition(" ")
            if not label or not key.strip():
                self._print("usage: :index <Label> <key>")
            else:
                self.engine.graph.create_index(label, key.strip())
                self._print(f"index on (:{label} {{{key.strip()}}})")
        elif command == ":indexes":
            indexes = self.engine.graph.indexes()
            if not indexes:
                self._print("no indexes")
            for label, key in indexes:
                self._print(f"(:{label} {{{key}}})")
        elif command == ":stats":
            stats = self.engine.graph.stats()
            self._print(
                f"{stats['vertices']} vertices, {stats['edges']} edges, "
                f"{stats['labels']} labels, {stats['edge_types']} edge types"
            )
            planning = GraphStatistics.from_graph(self.engine.graph)
            for label, count in sorted(planning.label_counts.items()):
                self._print(f"  :{label}  {count}")
            for edge_type, count in sorted(planning.type_counts.items()):
                self._print(f"  [:{edge_type}]  {count}")
        elif command == ":checkpoint":
            if self.durable is None:
                self._print("not a durable store (start with --db DIR)")
            else:
                self.durable.checkpoint()
                self._print("checkpointed")
        else:
            self._print(f"unknown command {command}; :help lists commands")
            self.failed = True
        return True

    # -- the loop -------------------------------------------------------------------

    def run(self, source: IO[str], interactive: bool) -> None:
        buffer: list[str] = []
        while True:
            if interactive:
                self.out.write(CONTINUATION if buffer else PROMPT)
                self.out.flush()
            line = source.readline()
            if not line:
                break
            stripped = line.strip()
            if not buffer and stripped.startswith(":"):
                if not self.run_meta(stripped):
                    break
                continue
            buffer.append(line)
            if stripped.endswith(";"):
                self.run_statement("\n".join(buffer))
                buffer.clear()
        if buffer:  # trailing statement without ';'
            self.run_statement("\n".join(buffer))


def main(argv: list[str] | None = None, stdin: IO[str] | None = None,
         stdout: IO[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Incremental openCypher shell (Szárnyas 2018 reproduction).",
    )
    parser.add_argument(
        "--db", metavar="DIR", help="open (or create) a durable store under DIR"
    )
    parser.add_argument(
        "--file", metavar="SCRIPT", help="run statements from SCRIPT and exit"
    )
    parser.add_argument(
        "--batch-transactions",
        action="store_true",
        help="propagate each write statement to incremental views as one "
        "consolidated delta at commit (instead of per elementary change)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect engine metrics (inspect with :metrics; small "
        "per-batch timing overhead)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="start with per-batch trace recording on (also :trace on|off)",
    )
    args = parser.parse_args(argv)
    out = stdout if stdout is not None else sys.stdout

    durable = None
    if args.db:
        durable = DurableGraph(args.db)
        graph = durable.graph
    else:
        graph = PropertyGraph()
    engine = QueryEngine(
        graph,
        batch_transactions=args.batch_transactions,
        collect_metrics=args.metrics,
        trace_batches=args.trace,
    )
    shell = Shell(engine, out, durable=durable)

    try:
        if args.file:
            with open(args.file, "r", encoding="utf-8") as handle:
                shell.run(handle, interactive=False)
        else:
            source = stdin if stdin is not None else sys.stdin
            interactive = source is sys.stdin and sys.stdin.isatty()
            if interactive:
                out.write("repro shell — :help for commands, :quit to leave\n")
            shell.run(source, interactive=interactive)
    finally:
        if durable is not None:
            durable.close()
    return 1 if shell.failed else 0
