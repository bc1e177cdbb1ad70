"""Engine mechanics: suppression, discovery, scopes."""

from pathlib import Path

from repro.analysis import AnalysisEngine
from repro.analysis import engine as engine_module

VIOLATION = (
    '"""tmp module."""\n'
    "import time\n"
    "\n"
    "def stamp() -> float:\n"
    "    return time.time()\n"
)


FIXTURES = Path("tests/analysis/fixtures")


def make_project(tmp_path: Path) -> Path:
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(VIOLATION, encoding="utf-8")
    return tmp_path


def make_fixtures(tmp_path: Path) -> Path:
    """A project whose only module sits in the excluded fixtures directory."""
    (tmp_path / FIXTURES).mkdir(parents=True)
    (tmp_path / FIXTURES / "mod.py").write_text(VIOLATION, encoding="utf-8")
    return tmp_path


class TestCache:
    """There is no result cache: every run analyzes every file afresh."""

    def test_edit_invalidates_entry(self, tmp_path):
        root = make_project(tmp_path)
        assert len(AnalysisEngine(root).check([Path("pkg")]).diagnostics) == 1
        (root / "pkg" / "mod.py").write_text("x = 1\n", encoding="utf-8")
        assert AnalysisEngine(root).check([Path("pkg")]).diagnostics == []

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        root = make_project(tmp_path)
        before = sorted(root.rglob("*"))
        AnalysisEngine(root).check([Path("pkg")])
        assert sorted(root.rglob("*")) == before

    def test_corrupt_cache_is_ignored(self, tmp_path):
        # a cache file an older analyzer left behind is never read
        root = make_project(tmp_path)
        (root / ".repro-analysis-cache.json").write_text("{not json", encoding="utf-8")
        report = AnalysisEngine(root).check([Path("pkg")])
        assert len(report.diagnostics) == 1


class TestSuppression:
    def test_inline_allow_hides_finding(self, tmp_path):
        root = make_project(tmp_path)
        engine = AnalysisEngine(root)
        source = VIOLATION.replace(
            "return time.time()",
            "return time.time()  # repro: allow[DET001]",
        )
        assert engine.analyze_source("pkg/mod.py", source) == []

    def test_allow_is_rule_specific(self, tmp_path):
        engine = AnalysisEngine(make_project(tmp_path))
        source = VIOLATION.replace(
            "return time.time()",
            "return time.time()  # repro: allow[DET002]",
        )
        assert len(engine.analyze_source("pkg/mod.py", source)) == 1

    def test_allow_inside_string_is_not_a_suppression(self, tmp_path):
        engine = AnalysisEngine(make_project(tmp_path))
        source = (
            "import time\n"
            'NOTE = "use # repro: allow[DET001] to suppress"\n'
            "t = time.time()\n"
        )
        diagnostics = engine.analyze_source("pkg/mod.py", source)
        assert [d.rule for d in diagnostics] == ["DET001"]

    def test_clean_file_is_not_tokenized(self, tmp_path, monkeypatch):
        def fail(source):
            raise AssertionError("tokenized a file without findings")

        monkeypatch.setattr(engine_module, "_inline_allows", fail)
        engine = AnalysisEngine(make_project(tmp_path))
        assert engine.analyze_source("pkg/mod.py", "x = 1  # repro: allow[DET001]\n") == []

    def test_multiple_rules_in_one_allow(self, tmp_path):
        engine = AnalysisEngine(make_project(tmp_path))
        source = (
            "# repro: scope[no-io]\n"
            "import time\n"
            "t = time.sleep(1) or time.time()  # repro: allow[DET001, DET004]\n"
        )
        assert engine.analyze_source("pkg/mod.py", source) == []


class TestDiscoveryAndScopes:
    def test_exclude_skips_directory_walk(self, tmp_path):
        root = make_fixtures(tmp_path)
        assert AnalysisEngine(root).discover([Path("tests")]) == []

    def test_explicit_file_beats_exclude(self, tmp_path):
        root = make_fixtures(tmp_path)
        found = AnalysisEngine(root).discover([FIXTURES / "mod.py"])
        assert [p.name for p in found] == ["mod.py"]

    def test_pycache_and_hidden_dirs_skipped(self, tmp_path):
        root = make_project(tmp_path)
        (root / "pkg" / "__pycache__").mkdir()
        (root / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
        (root / ".hidden").mkdir()
        (root / ".hidden" / "h.py").write_text("x = 1\n")
        found = AnalysisEngine(root).discover([Path(".")])
        assert [p.name for p in found] == ["mod.py"]

    def test_glob_scope_assignment(self, tmp_path):
        engine = AnalysisEngine(make_project(tmp_path))
        assert engine.scopes_for("src/repro/net/mod.py", "") == {"hot-path", "no-io"}
        assert engine.scopes_for("src/repro/obs/mod.py", "") == frozenset()
        assert engine.scopes_for("other/mod.py", "") == frozenset()

    def test_pragma_opts_file_into_scope(self, tmp_path):
        engine = AnalysisEngine(make_project(tmp_path))
        source = "# repro: scope[hot-path]\n"
        assert engine.scopes_for("anywhere.py", source) == {"hot-path"}

    def test_pragma_outside_header_ignored(self, tmp_path):
        engine = AnalysisEngine(make_project(tmp_path))
        source = "\n" * 20 + "# repro: scope[hot-path]\n"
        assert engine.scopes_for("anywhere.py", source) == frozenset()

    def test_syntax_error_reports_parse_diagnostic(self, tmp_path):
        engine = AnalysisEngine(make_project(tmp_path))
        diagnostics = engine.analyze_source("pkg/bad.py", "def broken(:\n")
        assert [d.rule for d in diagnostics] == ["PARSE"]
