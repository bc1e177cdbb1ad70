"""Per-rule unit tests on inline sources (engine-level, no fixtures)."""

import ast

from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, AnalysisEngine
from repro.analysis.rules.base import ImportMap

#: a module under the simulation globs (DET003 and DET004 are on)
HOT = "src/repro/net/a.py"


@pytest.fixture()
def engine(tmp_path):
    return AnalysisEngine(tmp_path)


def rules_of(engine, path, source):
    return [(d.rule, d.line) for d in engine.analyze_source(path, source)]


class TestImportMap:
    def resolve(self, source, call_src):
        tree = ast.parse(source + "\n" + call_src)
        call = next(
            n for n in ast.walk(tree) if isinstance(n, ast.Call)
        )
        return ImportMap.from_tree(tree).resolve_call(call.func)

    def test_plain_module_attribute(self):
        assert self.resolve("import time", "time.time()") == "time.time"

    def test_module_alias(self):
        assert self.resolve("import time as t", "t.monotonic()") == "time.monotonic"

    def test_from_import(self):
        assert self.resolve("from random import choice", "choice([1])") == "random.choice"

    def test_from_import_alias(self):
        assert (
            self.resolve("from datetime import datetime as dt", "dt.now()")
            == "datetime.datetime.now"
        )

    def test_instance_attribute_unresolvable(self):
        assert self.resolve("import random", "self.rng.random()") is None

    def test_bare_builtin(self):
        assert self.resolve("import io", "open('x')") == "open"


class TestDet001:
    def test_perf_counter_flagged(self, engine):
        source = "import time\nt = time.perf_counter()\n"
        assert rules_of(engine, "x.py", source) == [("DET001", 2)]


class TestDet002:
    def test_seeded_stream_methods_ok(self, engine):
        source = (
            "from random import Random\n"
            "rng = Random(7)\n"
            "x = rng.random()\n"
        )
        assert rules_of(engine, "x.py", source) == []

    def test_systemrandom_flagged(self, engine):
        source = "import random\nr = random.SystemRandom()\n"
        assert ("DET002", 2) in rules_of(engine, "x.py", source)


class TestDet003:
    def test_only_on_hot_path(self, engine):
        source = "for x in {1, 2}:\n    pass\n"
        assert rules_of(engine, "cold.py", source) == []
        assert rules_of(engine, HOT, source) == [("DET003", 1)]

    def test_sorted_wrapping_ok(self, engine):
        source = "s = {1, 2}\nfor x in sorted(s):\n    pass\n"
        assert rules_of(engine, HOT, source) == []

    def test_reassignment_clears_tracking(self, engine):
        source = "s = {1, 2}\ns = [1, 2]\nfor x in s:\n    pass\n"
        assert rules_of(engine, HOT, source) == []

    def test_augassign_union_tracks(self, engine):
        source = "s = set()\ns |= {1}\nfor x in s:\n    pass\n"
        assert rules_of(engine, HOT, source) == [("DET003", 3)]

    def test_list_materialization_flagged(self, engine):
        source = "order = list({1, 2})\n"
        assert rules_of(engine, HOT, source) == [("DET003", 1)]

    def test_set_typed_parameter_tracked(self, engine):
        source = "def f(s: set) -> None:\n    for x in s:\n        pass\n"
        assert rules_of(engine, HOT, source) == [("DET003", 2)]

    def test_set_method_chain_flagged(self, engine):
        source = "a = {1}\nfor x in a.union({2}):\n    pass\n"
        assert rules_of(engine, HOT, source) == [("DET003", 2)]

    def test_dict_iteration_ok(self, engine):
        source = "d = {1: 2}\nfor x in d:\n    pass\n"
        assert rules_of(engine, HOT, source) == []


class TestDet004:
    def test_socket_prefix(self, engine):
        source = "import socket\ns = socket.create_connection(('h', 1))\n"
        assert rules_of(engine, HOT, source) == [("DET004", 2)]

    def test_off_scope_untouched(self, engine):
        source = "import socket\ns = socket.create_connection(('h', 1))\n"
        assert rules_of(engine, "cold.py", source) == []


class TestExplain:
    def test_every_rule_has_explanation(self):
        # A rule's class docstring is its rationale; check names the fix.
        assert [rule.ID for rule in ALL_RULES] == [
            "DET001", "DET002", "DET003", "DET004", "CFG002", "MSG001", "ARCH001",
        ]
        for rule in ALL_RULES:
            assert rule.SUMMARY and len(rule.__doc__ or "") > 100, rule.ID


def test_fixture_directory_is_excluded_by_default():
    root = Path(__file__).resolve().parents[2]
    engine = AnalysisEngine(root)
    discovered = engine.discover([Path("tests/analysis")])
    assert all("fixtures" not in p.parts for p in discovered)
