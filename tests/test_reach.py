"""Reach audit: every function, class and method in ``src/repro`` must be
reached from a root, or be a test oracle named in :data:`ALLOWLIST`.

The roots are the program's users:

* all of ``src/repro/cli.py`` (every CLI verb);
* every module under ``benchmarks/`` (paper claims), ``perfbench/``
  (benchmark workloads) and ``examples/`` (walkthroughs);
* the module-level statements of every ``src/repro`` module (tables,
  registries, constants), but not its imports or ``__all__``, so an
  ``__init__`` re-export reaches nothing.

From the names the roots mention, the walk reaches every def with one of
those names and then walks through that def's body in turn.  A name is a
``Name`` id that is read (binding a variable or declaring a field reaches
nothing, and neither does reading a local: a name the enclosing function
or comprehension binds as an argument or a target), an ``Attribute`` name (a store may call a property setter), an
import alias, or a string constant shaped like a dotted identifier, so
perfbench's ``"SweepEngine.plan"`` and ``"_shard_worker"`` count.  A class brings its dunder methods along;
a dunder is never matched by name (``super().__init__`` reaches no other
class's ``__init__``).

The walk matches by name only, without type resolution: a member that
shares its name with a reached one (``run``, ``get``) passes.  That
gives false negatives, never a flag on a reached member.

Run ``PYTHONPATH=src python tests/test_reach.py`` for the report of
unreached and allowlisted members.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
ROOT_DIRS = ("benchmarks", "perfbench", "examples")

#: Test oracles: members no root reaches that a test compares a production
#: path against.  A key is ``<module under repro>.<qualname>`` and also
#: covers the members defined inside it.  A key that covers no unreached
#: member fails the audit, so the list cannot outlive its oracles.
ALLOWLIST: Dict[str, str] = {
    "circuit.spice.TransientSimulator.bandwidth":
        "test_circuit_netlist_spice.py::TestBandStructure checks every "
        "Table-1/CAM testbench orders to a band the pttrf path solves",
    "circuit.waveform.ramp":
        "input stimulus of test_crossvalidation.py, which checks NLDM "
        "delays against a ramp-driven transient",
    "circuit.waveform.Waveform.value_at":
        "test_circuit_netlist_spice.py::TestTransient samples the "
        "transient's output waveform with it",
    "faults.defects.FaultyBrick.is_perfect":
        "per-die walk of test_fast_paths_vs_reference.py's "
        "reference_chunk_worker, checked against the signoff chunk worker",
    "faults.defects.FaultyBrick.delay_derate":
        "per-die walk of test_fast_paths_vs_reference.py's "
        "reference_chunk_worker, checked against the signoff chunk worker",
    "faults.defects.FaultyBrick.perturbed_tech":
        "per-die technology of test_signoff.py::TestScalingLawAgreement, "
        "checked against signoff's scaling law (ROADMAP item 14)",
    "liberty.models.CellModel.input_pins":
        "test_liberty_parser.py::TestRoundTrip compares parsed pins with "
        "the LibertyWriter's cells",
    "liberty.models.CellModel.arc":
        "test_crossvalidation.py reads the NLDM arc it checks against "
        "the transient reference",
    "liberty.parser":
        ".lib reader of test_liberty_parser.py and test_property_system.py, "
        "which round-trip LibertyWriter output through it",
    "obs.trace.Tracer.open_depth":
        "test_obs.py::TestTracer checks the span stack unwinds to empty",
    "perf.parallel.live_worker_pools":
        "test_session_lifecycle.py::TestWorkerPool checks that Session "
        "close and its finalizer shut every pool",
    "rtl.ecc.DecodeResult":
        "result of secded_decode (see below)",
    "rtl.ecc.secded_encode":
        "test_faults.py::TestSecded checks the SEC-DED encoder and "
        "decoder RTL the yield study prices against it",
    "rtl.ecc.secded_decode":
        "test_faults.py::TestSecded checks the SEC-DED encoder and "
        "decoder RTL the yield study prices against it",
    "rtl.simulate.LogicSimulator.load_brick":
        "test_rtl_spgemm_datapath.py preloads brick contents with it to "
        "check the SpGEMM update datapath",
    "spgemm.reference.spgemm_dense_check":
        "test_spgemm_sparse.py::TestGoldenSpGEMM checks spgemm_gustavson "
        "against the dense product",
    "spgemm.sparse.CSCMatrix.to_dense":
        "dense side of spgemm_dense_check and of "
        "test_property_sparse.py's product check",
    "tech.transistor.Transistor.conductance":
        "scalar law; test_property_circuit.py checks conductances "
        "against it",
    "tech.transistor.conductances":
        "array law; test_fast_paths_vs_reference.py::"
        "TestDeviceLawMatchesConductances checks the transient's "
        "in-place device law against it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")


class Member(NamedTuple):
    """One function, class or method definition under ``src/repro``."""

    path: Path
    qualname: str
    node: ast.AST

    @property
    def name(self) -> str:
        return self.node.name


class Audit(NamedTuple):
    unreached: List[Member]
    allowlisted: List[Tuple[Member, str]]
    problems: List[str]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)


def _bound(scope: ast.AST) -> Set[str]:
    """Names a function or comprehension binds in its own scope:
    arguments, assignment, loop, ``with`` and comprehension targets and
    nested defs, less its ``global``/``nonlocal`` declarations."""
    if isinstance(scope, _COMPREHENSIONS):
        stack: List[ast.AST] = [g.target for g in scope.generators]
    else:
        a = scope.args
        body = scope.body if isinstance(scope.body, list) else [scope.body]
        stack = [*body, *a.posonlyargs, *a.args, *a.kwonlyargs,
                 *(x for x in (a.vararg, a.kwarg) if x)]
    bound: Set[str] = set()
    free: Set[str] = set()
    while stack:
        node = stack.pop()
        if isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                            ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            free.update(node.names)
        if isinstance(node, _DEFS):
            bound.add(node.name)
        if isinstance(node, (*_DEFS, *_COMPREHENSIONS, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return bound - free


def _scoped_children(node: ast.AST, hidden: Set[str]
                     ) -> Iterator[Tuple[ast.AST, Set[str]]]:
    """``node``'s children, each with the local names that read
    nothing there.  A function's own locals cover its body, not its
    decorators, defaults or annotations; a comprehension's cover all
    but its first iterable."""
    if isinstance(node, _FUNCTIONS):
        a = node.args
        args = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
        outer = [*getattr(node, "decorator_list", ()),
                 getattr(node, "returns", None), *a.defaults,
                 *a.kw_defaults, *(x.annotation for x in args if x)]
        yield from ((child, hidden) for child in outer if child)
        inner = hidden | _bound(node)
        body = node.body if isinstance(node.body, list) else [node.body]
        yield from ((child, inner) for child in body)
    elif isinstance(node, _COMPREHENSIONS):
        inner = hidden | _bound(node)
        first = node.generators[0].iter
        yield first, hidden
        for child in ast.iter_child_nodes(node):
            parts = (ast.iter_child_nodes(child)
                     if isinstance(child, ast.comprehension) else [child])
            for part in parts:
                if part is not first:
                    yield part, inner
    else:
        for child in ast.iter_child_nodes(node):
            yield child, hidden


def _names(nodes: Iterable[ast.AST], imports: bool = True) -> Set[str]:
    """Every name the nodes mention, nested defs included.  A read of a
    name the enclosing function or comprehension binds itself names a
    local, so it reaches nothing."""
    out: Set[str] = set()
    stack = [(node, set()) for node in nodes]
    while stack:
        node, hidden = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not imports:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in hidden:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
            if node.asname:
                out.add(node.asname)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.match(node.value)):
            out.update(node.value.split("."))
        stack.extend(_scoped_children(node, hidden))
    return out


def _own_nodes(node: ast.AST) -> List[ast.AST]:
    """What reaching a def runs or names: a function's whole node; a
    class's decorators, bases and non-def statements (its methods are
    members of their own)."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [*node.decorator_list, *node.bases, *node.keywords,
            *(s for s in node.body if not isinstance(s, _DEFS))]


def _members(body: List[ast.stmt], path: Path, prefix: str
             ) -> Iterator[Tuple[Member, List[Member]]]:
    """``(member, dunders)`` for every def and class member in ``body``;
    ``dunders`` are a class's dunder methods, which go with it."""
    for stmt in body:
        if not isinstance(stmt, _DEFS):
            continue
        qualname = f"{prefix}.{stmt.name}" if prefix else stmt.name
        member = Member(path, qualname, stmt)
        dunders: List[Member] = []
        if isinstance(stmt, ast.ClassDef):
            for child, sub in _members(stmt.body, path, member.qualname):
                if _is_dunder(child.name):
                    dunders.append(child)
                else:
                    yield child, sub
        yield member, dunders


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_all(stmt: ast.stmt) -> bool:
    targets = getattr(stmt, "targets", None) or [getattr(stmt, "target",
                                                         None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in targets)


def _covers(key: str, qualname: str) -> bool:
    return qualname == key or qualname.startswith(key + ".")


def audit(repo: Path = REPO, allowlist: Dict[str, str] = ALLOWLIST
          ) -> Audit:
    """Walk ``repo``'s roots and sort every ``src/repro`` def."""
    src = repo / "src" / "repro"
    by_name: Dict[str, List[Tuple[Member, List[Member]]]] = {}
    every: List[Member] = []
    aliases: Dict[str, Set[str]] = {}
    roots: Set[str] = set()
    reached: Set[str] = set()
    for path in sorted(src.rglob("*.py")):
        tree = _parse(path)
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__")
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.asname:
                aliases.setdefault(node.asname, set()).add(
                    node.name.rsplit(".", 1)[-1])
        is_cli = path == src / "cli.py"
        for member, dunders in _members(tree.body, path, module):
            every += [member, *dunders]
            if is_cli:
                reached.update(m.qualname for m in (member, *dunders))
            else:
                by_name.setdefault(member.name, []).append(
                    (member, dunders))
        if is_cli:
            roots |= _names([tree])
        else:
            roots |= _names([s for s in tree.body
                             if not isinstance(s, _DEFS) and not _is_all(s)],
                            imports=False)
    for top in ROOT_DIRS:
        for path in sorted((repo / top).rglob("*.py")):
            roots |= _names([_parse(path)])

    seen: Set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(aliases.get(name, ()))
        for member, dunders in by_name.get(name, ()):
            for m in (member, *dunders):
                reached.add(m.qualname)
                todo.extend(_names(_own_nodes(m.node)))

    every.sort(key=lambda m: (str(m.path), m.node.lineno))
    unreached = [m for m in every if m.qualname not in reached]
    problems = []
    for key in allowlist:
        if not any(_covers(key, m.qualname) for m in every):
            problems.append(f"allowlist names {key!r}, which is not defined")
        elif not any(_covers(key, m.qualname) for m in unreached):
            problems.append(f"allowlist names {key!r}, which a root "
                            f"now reaches")

    def reason(member: Member) -> str:
        return next((allowlist[key] for key in allowlist
                     if _covers(key, member.qualname)), "")

    return Audit([m for m in unreached if not reason(m)],
                 [(m, reason(m)) for m in unreached if reason(m)],
                 problems)


def where(member: Member, repo: Path = REPO) -> str:
    """``file:line qualname``, the form a failing audit prints."""
    path = member.path.relative_to(repo).as_posix()
    return f"{path}:{member.node.lineno} {member.qualname}"


def test_every_src_member_is_reached():
    result = audit()
    assert result.problems == []
    # Reached by no CLI verb, benchmark, perfbench workload or example:
    # delete it with its tests, or allowlist it as a test oracle.
    assert [where(m) for m in result.unreached] == []


class TestAuditOnSyntheticTrees:
    """The walk itself, on tiny repos built in ``tmp_path``."""

    CORE = ("def a():\n    return b()\n\n\n"
            "def b():\n    return 1\n\n\n"
            "def c():\n    return 2\n\n\n"
            "class K:\n    def __init__(self):\n        pass\n")

    def _repo(self, tmp_path, perfbench="", core=CORE, cli=None,
              extra=None):
        files = {
            "src/repro/__init__.py": "from .core import a, b, c\n"
                                     "__all__ = ['a', 'b', 'c']\n",
            "src/repro/cli.py": cli or "from .core import a\n\n\n"
                                      "def main():\n    return a()\n",
            "src/repro/core.py": core,
            "tests/test_core.py": "from repro.core import K, c\n\n\n"
                                  "def test_c():\n    assert c() == 2\n"
                                  "    K()\n",
            "perfbench/run.py": perfbench,
            **(extra or {}),
        }
        for name, text in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        return tmp_path

    def _unreached(self, repo, allowlist=None):
        result = audit(repo, allowlist or {})
        return [m.qualname for m in result.unreached], result

    def test_root_reaches_through_bodies(self, tmp_path):
        unreached, _ = self._unreached(self._repo(tmp_path))
        assert "core.a" not in unreached and "core.b" not in unreached

    def test_member_only_a_test_reads_is_flagged(self, tmp_path):
        repo = self._repo(tmp_path)
        unreached, result = self._unreached(repo)
        # The class's __init__ goes with it; an __init__ re-export and
        # __all__ reach nothing.
        assert unreached == ["core.c", "core.K", "core.K.__init__"]
        assert where(result.unreached[0], repo) == "src/repro/core.py:9 core.c"

    def test_perfbench_string_reaches(self, tmp_path):
        repo = self._repo(tmp_path,
                          perfbench='SPANS = [("repro.core", "K", "x"), '
                                    '("repro.core", "c", "y")]\n')
        unreached, _ = self._unreached(repo)
        assert unreached == []

    def test_assignment_target_reaches_nothing(self, tmp_path):
        repo = self._repo(tmp_path, perfbench="c = 1\nfor K in ():\n"
                                              "    pass\n")
        unreached, _ = self._unreached(repo)
        assert unreached == ["core.c", "core.K", "core.K.__init__"]

    def test_local_name_reaches_nothing(self, tmp_path):
        # Each read of ``c`` and ``K`` here names a local of its own
        # function, lambda or comprehension; the default ``K`` and the
        # first iterable ``c`` are read in the enclosing scope.
        local = ("def use(c, *K):\n    return c, K\n\n\n"
                 "def bind():\n    c = 1\n    for K in ():\n"
                 "        pass\n    with open('x') as (c, K):\n"
                 "        pass\n    return c, K\n\n\n"
                 "f = lambda c: c\n"
                 "squares = [K for K in range(3)]\n"
                 "def nested():\n    c = 2\n\n"
                 "    def inner():\n        return c\n    return inner\n")
        repo = self._repo(tmp_path, perfbench=local)
        assert self._unreached(repo)[0] == ["core.c", "core.K",
                                            "core.K.__init__"]
        outer = ("def use(x=K):\n    return x\n\n\n"
                 "pairs = [c for c in c()]\n")
        repo = self._repo(tmp_path, perfbench=outer)
        assert self._unreached(repo)[0] == []
        glob = "def use():\n    global c\n    c = 1\n    return c\n"
        repo = self._repo(tmp_path, perfbench=glob)
        assert self._unreached(repo)[0] == ["core.K", "core.K.__init__"]

    def test_dunder_is_not_matched_by_name(self, tmp_path):
        core = self.CORE + ("\n\nclass J:\n    def __init__(self):\n"
                            "        super().__init__()\n")
        repo = self._repo(tmp_path, perfbench="import J\n", core=core)
        unreached, _ = self._unreached(repo)
        assert "core.J.__init__" not in unreached
        assert "core.K.__init__" in unreached

    def test_attribute_name_reaches(self, tmp_path):
        repo = self._repo(tmp_path, perfbench="import repro.core as core\n"
                                              "core.c()\n")
        unreached, _ = self._unreached(repo)
        assert unreached == ["core.K", "core.K.__init__"]

    def test_import_alias_reaches_the_aliased_def(self, tmp_path):
        # util's own import is no root; using its alias reaches ``c``.
        extra = {"src/repro/util.py": "from .core import c as see\n"}
        repo = self._repo(tmp_path, extra=extra)
        assert "core.c" in self._unreached(repo)[0]
        repo = self._repo(tmp_path, perfbench="from repro.util import see\n"
                                              "see()\n", extra=extra)
        assert "core.c" not in self._unreached(repo)[0]

    def test_module_level_statement_is_a_root(self, tmp_path):
        repo = self._repo(tmp_path, core=self.CORE + "\n\nHANDLERS = (c,)\n"
                                                     "__all__ = ['K']\n")
        unreached, _ = self._unreached(repo)
        assert unreached == ["core.K", "core.K.__init__"]

    def test_every_root_directory_reaches(self, tmp_path):
        for top in ROOT_DIRS:
            extra = {f"{top}/sub/use.py": "from repro.core import c\nc()\n"}
            repo = self._repo(tmp_path / top, extra=extra)
            assert self._unreached(repo)[0] == ["core.K", "core.K.__init__"]

    def test_every_cli_def_is_reached(self, tmp_path):
        cli = ("from .core import a\n\n\n"
               "def main():\n    return a()\n\n\n"
               "def unused():\n    return c()\n")
        unreached, _ = self._unreached(self._repo(tmp_path, cli=cli))
        assert unreached == ["core.K", "core.K.__init__"]

    def test_reached_class_reaches_bases_and_decorators(self, tmp_path):
        core = self.CORE + ("\n\nclass Base:\n    pass\n\n\n"
                            "def deco(cls):\n    return cls\n\n\n"
                            "@deco\nclass L(Base):\n    pass\n")
        repo = self._repo(tmp_path, core=core,
                          perfbench="from repro.core import L\n")
        unreached, _ = self._unreached(repo)
        assert unreached == ["core.c", "core.K", "core.K.__init__"]

    def test_field_declaration_reaches_nothing(self, tmp_path):
        # A field named ``c`` is no read of ``c``; a default value is.
        core = self.CORE + ("\n\nclass D:\n    c: int = 0\n"
                            "    k: object = K\n")
        repo = self._repo(tmp_path, core=core, perfbench="D()\n")
        unreached, _ = self._unreached(repo)
        assert unreached == ["core.c"]

    def test_only_identifier_strings_reach(self, tmp_path):
        repo = self._repo(tmp_path,
                          perfbench='NAMES = ["repro.core.c", "K()", "a K"]\n')
        unreached, _ = self._unreached(repo)
        assert unreached == ["core.K", "core.K.__init__"]

    def test_allowlist_covers_oracles(self, tmp_path):
        repo = self._repo(tmp_path)
        result = audit(repo, {"core.c": "oracle", "core.K": "oracle"})
        assert not result.unreached and not result.problems
        assert [(m.qualname, why) for m, why in result.allowlisted] == [
            ("core.c", "oracle"), ("core.K", "oracle"),
            ("core.K.__init__", "oracle")]

    def test_stale_allowlist_entries_fail(self, tmp_path):
        repo = self._repo(tmp_path)
        result = audit(repo, {"core.c": "oracle", "core.K": "oracle",
                              "core.b": "reached now",
                              "core.gone": "deleted"})
        assert result.problems == [
            "allowlist names 'core.b', which a root now reaches",
            "allowlist names 'core.gone', which is not defined"]

    def test_report_lists_problems_unreached_and_oracles(self, tmp_path,
                                                         capsys):
        repo = self._repo(tmp_path)
        assert main(repo, {"core.K": "oracle", "core.gone": "deleted"}) == 1
        assert capsys.readouterr().out.splitlines() == [
            "problem: allowlist names 'core.gone', which is not defined",
            "unreached: src/repro/core.py:9 core.c",
            "oracle: src/repro/core.py:13 core.K: oracle",
            "oracle: src/repro/core.py:14 core.K.__init__: oracle"]
        assert main(repo, {"core.c": "oracle", "core.K": "oracle"}) == 0


def main(repo: Path = REPO, allowlist: Dict[str, str] = ALLOWLIST) -> int:
    """Print the audit report; the exit status is 1 if it fails."""
    result = audit(repo, allowlist)
    for line in result.problems:
        print(f"problem: {line}")
    for member in result.unreached:
        print(f"unreached: {where(member, repo)}")
    for member, why in result.allowlisted:
        print(f"oracle: {where(member, repo)}: {why}")
    return 1 if result.problems or result.unreached else 0


if __name__ == "__main__":
    sys.exit(main())
