"""The relational-algebra IR: immutable ``Relation`` expression trees.

Modeled on lsst's ``daf_relation``: a :class:`Relation` is *a table with a
well-defined set of columns*, but an instance does not necessarily
correspond to a concrete in-memory table — most subclasses represent an
**operation** on a target relation, forming an expression tree that
visitors traverse (:class:`RelationVisitor`).  The tree is the planning
currency of the query layer: the SQL front-end produces one
(:func:`repro.query.sql.parse_relation`), the
:class:`~repro.query.processor.Processor` annotates it with engines and
:class:`Transfer` boundaries, and execution walks it.

Four kinds of node exist:

* :class:`LeafRelation` — direct storage of rows (the row-store table);
* operations — :class:`Projection` (the column-group fetch),
  :class:`Selection`, :class:`Aggregate`, :class:`Join`;
* :class:`Transfer` — an explicit engine boundary: the same rows, now
  owned by a different :class:`~repro.query.engines.Engine`;
* :class:`Label` — a marker that adds context (query name, SQL text,
  pass count) without changing the relation, like daf_relation's
  ``MarkerRelation``.

Every concrete node is a **frozen dataclass**: immutable, equality
comparable, hashable, with a lossless ``repr`` and a concise ``str``.
Derived trees are built with the factory methods on :class:`Relation`
(``select``/``project``/``aggregate``/``join``/``transfer``/``label``)
rather than by instantiating operation classes directly.

>>> from repro.query.expr import Col
>>> leaf = LeafRelation("S", ("A1", "A2", "A3"))
>>> tree = leaf.project("A1", "A2").select(Col("A2") > 0)
>>> print(tree)
σ[(Col(A2) > Const(0))](π[A1,A2](S))
>>> tree.columns
('A1', 'A2')
>>> tree.engine.name
'cpu'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from ..errors import QueryError
from .engines import CPU, Engine
from .expr import Expr


class Relation:
    """Base class of every IR node: a table with known columns.

    Subclasses are frozen dataclasses; this base only provides the
    factory methods that build derived trees and the visitor hook.

    >>> from repro.query.expr import Col
    >>> LeafRelation("S", ("A1",)).aggregate("sum", Col("A1")).columns
    ('sum(A1)',)
    """

    # -- contract -----------------------------------------------------------------
    @property
    def columns(self) -> Tuple[str, ...]:
        """The relation's column names, in order."""
        raise NotImplementedError

    @property
    def engine(self) -> Engine:
        """The engine that owns this relation's rows."""
        raise NotImplementedError

    def accept(self, visitor: "RelationVisitor") -> Any:
        """Double-dispatch into ``visitor`` (the daf_relation pattern)."""
        raise NotImplementedError

    # -- factories ----------------------------------------------------------------
    def select(self, predicate: Expr) -> "Selection":
        """Keep only the rows satisfying ``predicate``."""
        return Selection(target=self, predicate=predicate)

    def project(self, *columns: str) -> "Projection":
        """Keep only ``columns`` — the paper's column-group fetch."""
        return Projection(target=self, projected=tuple(columns))

    def aggregate(
        self,
        func: str,
        expr: Expr,
        group_by: Optional[str] = None,
        passes: int = 1,
    ) -> "Aggregate":
        """Reduce the rows with ``func`` over ``expr`` (optionally grouped)."""
        return Aggregate(target=self, func=func, expr=expr,
                         group_by=group_by, passes=passes)

    def join(self, other: "Relation", on: str) -> "Join":
        """Equi-join with ``other`` on the shared column ``on``."""
        return Join(lhs=self, rhs=other, on=on)

    def transfer(self, destination: Engine) -> "Relation":
        """Move the rows onto ``destination`` (no-op if already there)."""
        if destination == self.engine:
            return self
        return Transfer(target=self, destination=destination)

    def label(self, name: str, sql: str = "") -> "Label":
        """Attach a query name and SQL text without changing the rows."""
        return Label(target=self, name=name, sql=sql)


class RelationVisitor:
    """Base visitor over relation trees.

    Subclass and override the ``visit_*`` hooks; each receives the node
    and returns whatever the traversal computes. The default hooks all
    raise, so unsupported shapes fail loudly.

    >>> class CountLeaves(RelationVisitor):
    ...     def visit_leaf(self, node): return 1
    ...     def visit_projection(self, node): return node.target.accept(self)
    >>> LeafRelation("S", ("A1",)).project("A1").accept(CountLeaves())
    1
    """

    def _unsupported(self, node: Relation) -> Any:
        raise QueryError(
            f"{type(self).__name__} does not handle {type(node).__name__}"
        )

    def visit_leaf(self, node: "LeafRelation") -> Any:
        """Handle a stored table."""
        return self._unsupported(node)

    def visit_selection(self, node: "Selection") -> Any:
        """Handle a predicate filter."""
        return self._unsupported(node)

    def visit_projection(self, node: "Projection") -> Any:
        """Handle a column projection."""
        return self._unsupported(node)

    def visit_aggregate(self, node: "Aggregate") -> Any:
        """Handle an aggregation."""
        return self._unsupported(node)

    def visit_join(self, node: "Join") -> Any:
        """Handle an equi-join."""
        return self._unsupported(node)

    def visit_transfer(self, node: "Transfer") -> Any:
        """Handle an engine boundary."""
        return self._unsupported(node)

    def visit_label(self, node: "Label") -> Any:
        """Handle a marker; most visitors recurse into ``node.target``."""
        return self._unsupported(node)


@dataclass(frozen=True)
class LeafRelation(Relation):
    """Direct storage of rows: the row-oriented base table in DRAM.

    ``schema_columns`` may be ``None`` when the tree is built before the
    table is known (e.g. straight from SQL); executing the tree resolves
    ``name`` through the system's catalog of loaded tables. The leaf
    always lives on an engine — by default the CPU's row-store memory.

    >>> LeafRelation("S", ("A1", "A2")).columns
    ('A1', 'A2')
    >>> str(LeafRelation("S"))
    'S'
    """

    name: str
    schema_columns: Optional[Tuple[str, ...]] = None
    on_engine: Engine = field(default=CPU)

    @property
    def columns(self) -> Tuple[str, ...]:
        """The stored columns (empty tuple when not yet bound)."""
        return self.schema_columns or ()

    @property
    def engine(self) -> Engine:
        """The engine holding the stored rows."""
        return self.on_engine

    def accept(self, visitor: RelationVisitor) -> Any:
        """Dispatch to :meth:`RelationVisitor.visit_leaf`."""
        return visitor.visit_leaf(self)

    def __str__(self) -> str:
        return self.name


def _check_columns(op: str, needed, target: Relation) -> None:
    """Raise when ``needed`` columns are provably absent from ``target``."""
    have = target.columns
    if not have:  # unbound leaf below: defer the check to plan time
        return
    missing = [c for c in needed if c not in have]
    if missing:
        raise QueryError(f"{op} references columns {missing} missing from "
                         f"{target} (has {list(have)})")


@dataclass(frozen=True)
class Selection(Relation):
    """σ — keep only the rows satisfying ``predicate``.

    >>> from repro.query.expr import Col
    >>> sel = LeafRelation("S", ("A1", "A2")).select(Col("A2") > 0)
    >>> sel.columns
    ('A1', 'A2')
    >>> print(sel)
    σ[(Col(A2) > Const(0))](S)
    """

    target: Relation
    predicate: Expr

    def __post_init__(self) -> None:
        _check_columns("Selection", sorted(self.predicate.columns()),
                       self.target)

    @property
    def columns(self) -> Tuple[str, ...]:
        """Selections do not change the column set."""
        return self.target.columns

    @property
    def engine(self) -> Engine:
        """Selections run where their input rows live."""
        return self.target.engine

    def accept(self, visitor: RelationVisitor) -> Any:
        """Dispatch to :meth:`RelationVisitor.visit_selection`."""
        return visitor.visit_selection(self)

    def __str__(self) -> str:
        return f"σ[{self.predicate!r}]({self.target})"


@dataclass(frozen=True)
class Projection(Relation):
    """π — keep only ``projected`` columns.

    Directly above a (possibly transferred) :class:`LeafRelation` this
    is the *column-group fetch*: the set of columns the access path must
    physically touch. Higher in the tree it is an ordinary output
    projection.

    >>> pi = LeafRelation("S", ("A1", "A2", "A3")).project("A1", "A3")
    >>> pi.columns
    ('A1', 'A3')
    >>> print(pi)
    π[A1,A3](S)
    """

    target: Relation
    projected: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.projected:
            raise QueryError("Projection keeps no columns")
        _check_columns("Projection", self.projected, self.target)

    @property
    def columns(self) -> Tuple[str, ...]:
        """Exactly the projected columns, in the requested order."""
        return self.projected

    @property
    def engine(self) -> Engine:
        """Projections run where their input rows live."""
        return self.target.engine

    def accept(self, visitor: RelationVisitor) -> Any:
        """Dispatch to :meth:`RelationVisitor.visit_projection`."""
        return visitor.visit_projection(self)

    def __str__(self) -> str:
        return f"π[{','.join(self.projected)}]({self.target})"


@dataclass(frozen=True)
class Aggregate(Relation):
    """γ — reduce the input with one aggregate, optionally grouped.

    ``func`` is one of :data:`repro.query.ops.AGGREGATES`; ``passes``
    records how many scans the access pattern needs (``std`` is the
    paper's two-pass case, Q7).

    >>> from repro.query.expr import Col
    >>> agg = LeafRelation("S", ("A1", "A2")).aggregate("sum", Col("A1"))
    >>> agg.columns
    ('sum(A1)',)
    >>> print(LeafRelation("S", ("A1",)).aggregate("avg", Col("A1"),
    ...                                            group_by="A1"))
    γ[avg(Col(A1)) by A1](S)
    """

    target: Relation
    func: str
    expr: Expr
    group_by: Optional[str] = None
    passes: int = 1

    def __post_init__(self) -> None:
        from .ops import AGGREGATES

        if self.func not in AGGREGATES:
            raise QueryError(f"unknown aggregate {self.func!r}")
        if self.passes < 1:
            raise QueryError("Aggregate needs at least one pass")
        needed = sorted(self.expr.columns())
        if self.group_by is not None:
            needed = needed + [self.group_by]
        _check_columns("Aggregate", needed, self.target)

    @property
    def columns(self) -> Tuple[str, ...]:
        """One synthesized column (plus the group key when grouped)."""
        out = f"{self.func}({','.join(sorted(self.expr.columns())) or '*'})"
        if self.group_by is not None:
            return (self.group_by, out)
        return (out,)

    @property
    def engine(self) -> Engine:
        """Aggregation runs where its input rows live."""
        return self.target.engine

    def accept(self, visitor: RelationVisitor) -> Any:
        """Dispatch to :meth:`RelationVisitor.visit_aggregate`."""
        return visitor.visit_aggregate(self)

    def __str__(self) -> str:
        by = f" by {self.group_by}" if self.group_by else ""
        return f"γ[{self.func}({self.expr!r}){by}]({self.target})"


@dataclass(frozen=True)
class Join(Relation):
    """⋈ — equi-join of two relations on a shared column name.

    Both sides must live on the same engine; insert a :class:`Transfer`
    first when they do not. The :class:`~repro.query.processor
    .Processor` runs it on that engine: a join on the PIM engine is an
    in-bank partitioned hash join, any other a CPU hash join over both
    scanned sides.

    >>> lhs = LeafRelation("R", ("k", "x"))
    >>> rhs = LeafRelation("T", ("k", "y"))
    >>> print(lhs.join(rhs, on="k"))
    (R ⋈[k] T)
    >>> lhs.join(rhs, on="k").columns
    ('k', 'x', 'y')
    """

    lhs: Relation
    rhs: Relation
    on: str

    def __post_init__(self) -> None:
        _check_columns("Join", [self.on], self.lhs)
        _check_columns("Join", [self.on], self.rhs)
        if self.lhs.engine != self.rhs.engine:
            raise QueryError(
                f"Join inputs live on different engines "
                f"({self.lhs.engine.name} vs {self.rhs.engine.name}); "
                "insert a Transfer first"
            )

    @property
    def columns(self) -> Tuple[str, ...]:
        """The key once, then both sides' remaining columns."""
        rest = [c for c in self.lhs.columns if c != self.on]
        rest += [c for c in self.rhs.columns
                 if c != self.on and c not in rest]
        return (self.on, *rest)

    @property
    def engine(self) -> Engine:
        """Both inputs share one engine; the join runs there."""
        return self.lhs.engine

    def accept(self, visitor: RelationVisitor) -> Any:
        """Dispatch to :meth:`RelationVisitor.visit_join`."""
        return visitor.visit_join(self)

    def __str__(self) -> str:
        return f"({self.lhs} ⋈[{self.on}] {self.rhs})"


@dataclass(frozen=True)
class Transfer(Relation):
    """An explicit engine boundary: the same rows on ``destination``.

    Everything below the transfer is produced by the source engine;
    everything above consumes it on ``destination``. The two transfers
    of the canonical RME plan are the paper's dataflow: descriptors move
    the row store into the PL (cpu → rme), and the trapper port streams
    the packed projection back (rme → cpu).

    >>> from repro.query.engines import RME
    >>> t = LeafRelation("S", ("A1",)).transfer(RME)
    >>> t.engine.name
    'rme'
    >>> print(t)
    [cpu→rme](S)
    """

    target: Relation
    destination: Engine

    def __post_init__(self) -> None:
        if self.destination == self.target.engine:
            raise QueryError(
                f"Transfer to {self.destination.name} is a no-op: the target "
                "already lives there"
            )

    @property
    def columns(self) -> Tuple[str, ...]:
        """Transfers move rows; they do not change the column set."""
        return self.target.columns

    @property
    def engine(self) -> Engine:
        """The destination engine owns the transferred rows."""
        return self.destination

    @property
    def source(self) -> Engine:
        """The engine the rows come from."""
        return self.target.engine

    def accept(self, visitor: RelationVisitor) -> Any:
        """Dispatch to :meth:`RelationVisitor.visit_transfer`."""
        return visitor.visit_transfer(self)

    def __str__(self) -> str:
        return f"[{self.source.name}→{self.destination.name}]({self.target})"


@dataclass(frozen=True)
class Label(Relation):
    """A marker relation: context attached to a tree, rows unchanged.

    daf_relation's ``MarkerRelation`` analogue. The query layer uses it
    to carry the benchmark name and SQL text to the root of a plan so
    results and printed trees stay identifiable.

    >>> tree = LeafRelation("S", ("A1",)).project("A1").label("Q1",
    ...                                                       "SELECT A1 FROM S")
    >>> tree.name, tree.columns
    ('Q1', ('A1',))
    """

    target: Relation
    name: str
    sql: str = ""

    @property
    def columns(self) -> Tuple[str, ...]:
        """Markers do not change the column set."""
        return self.target.columns

    @property
    def engine(self) -> Engine:
        """Markers do not change engine ownership."""
        return self.target.engine

    def accept(self, visitor: RelationVisitor) -> Any:
        """Dispatch to :meth:`RelationVisitor.visit_label`."""
        return visitor.visit_label(self)

    def __str__(self) -> str:
        return f"{self.name}:{self.target}"


class _TreePrinter(RelationVisitor):
    """Renders a relation tree as an engine-annotated text diagram."""

    def _line(self, node: Relation, text: str) -> str:
        return f"{text} @{node.engine.name}"

    def _nest(self, parent: str, child: str) -> str:
        first, *rest = child.splitlines()
        out = [parent, f"└─ {first}"]
        out.extend(f"   {line}" for line in rest)
        return "\n".join(out)

    def visit_leaf(self, node: LeafRelation) -> str:
        """One line: the stored table and its engine."""
        cols = f"({','.join(node.columns)})" if node.columns else ""
        return self._line(node, f"Leaf[{node.name}]{cols}")

    def visit_selection(self, node: Selection) -> str:
        """The predicate, then the subtree."""
        return self._nest(self._line(node, f"Selection[{node.predicate!r}]"),
                          node.target.accept(self))

    def visit_projection(self, node: Projection) -> str:
        """The kept columns, then the subtree."""
        return self._nest(
            self._line(node, f"Projection[{','.join(node.projected)}]"),
            node.target.accept(self),
        )

    def visit_aggregate(self, node: Aggregate) -> str:
        """The aggregate spec, then the subtree."""
        by = f" by {node.group_by}" if node.group_by else ""
        passes = f" x{node.passes}" if node.passes > 1 else ""
        return self._nest(
            self._line(node,
                       f"Aggregate[{node.func}({node.expr!r}){by}{passes}]"),
            node.target.accept(self),
        )

    def visit_join(self, node: Join) -> str:
        """The join key, then both subtrees."""
        parent = self._line(node, f"Join[{node.on}]")
        left = node.lhs.accept(self)
        right = node.rhs.accept(self)
        out = [parent]
        first, *rest = left.splitlines()
        out.append(f"├─ {first}")
        out.extend(f"│  {line}" for line in rest)
        first, *rest = right.splitlines()
        out.append(f"└─ {first}")
        out.extend(f"   {line}" for line in rest)
        return "\n".join(out)

    def visit_transfer(self, node: Transfer) -> str:
        """The boundary, then the subtree."""
        return self._nest(
            f"Transfer[{node.source.name} → {node.destination.name}]",
            node.target.accept(self),
        )

    def visit_label(self, node: Label) -> str:
        """The query name/SQL header, then the subtree."""
        sql = f": {node.sql}" if node.sql else ""
        return self._nest(f"Plan[{node.name}]{sql}", node.target.accept(self))


def print_tree(relation: Relation) -> str:
    """Render ``relation`` as a multi-line engine-annotated tree.

    Every operation line carries the engine that owns its rows
    (``@cpu``, ``@rme``, ...) and :class:`Transfer` boundaries are
    explicit — the format behind ``repro bench fig06 --explain``.

    >>> print(print_tree(LeafRelation("S", ("A1", "A2")).project("A1")))
    Projection[A1] @cpu
    └─ Leaf[S](A1,A2) @cpu
    """
    return relation.accept(_TreePrinter())
