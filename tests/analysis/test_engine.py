"""Engine mechanics: caching, suppression, discovery, scopes."""

from pathlib import Path

from repro.analysis import AnalysisConfig, AnalysisEngine

VIOLATION = (
    '"""tmp module."""\n'
    "import time\n"
    "\n"
    "def stamp() -> float:\n"
    "    return time.time()\n"
)


def make_project(tmp_path: Path) -> Path:
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(VIOLATION, encoding="utf-8")
    return tmp_path


def make_engine(root: Path, **config_kwargs) -> AnalysisEngine:
    config = AnalysisConfig(**config_kwargs)
    return AnalysisEngine(root, config)


class TestCache:
    def test_second_run_hits_cache(self, tmp_path):
        root = make_project(tmp_path)
        first = make_engine(root).check([Path("pkg")])
        assert first.cache_misses == 1 and first.cache_hits == 0
        second = make_engine(root).check([Path("pkg")])
        assert second.cache_hits == 1 and second.cache_misses == 0
        assert [d.format() for d in second.diagnostics] == [
            d.format() for d in first.diagnostics
        ]

    def test_edit_invalidates_entry(self, tmp_path):
        root = make_project(tmp_path)
        make_engine(root).check([Path("pkg")])
        (root / "pkg" / "mod.py").write_text(
            VIOLATION + "\n# touched\n", encoding="utf-8"
        )
        report = make_engine(root).check([Path("pkg")])
        assert report.cache_misses == 1
        assert len(report.diagnostics) == 1  # still the same finding

    def test_config_change_rotates_cache(self, tmp_path):
        root = make_project(tmp_path)
        make_engine(root).check([Path("pkg")])
        report = make_engine(root, disable=("DET002",)).check([Path("pkg")])
        assert report.cache_hits == 0  # different context key

    def test_no_cache_mode_writes_nothing(self, tmp_path):
        root = make_project(tmp_path)
        engine = make_engine(root)
        engine.check([Path("pkg")], use_cache=False)
        assert not (root / engine.config.cache).exists()

    def test_corrupt_cache_is_ignored(self, tmp_path):
        root = make_project(tmp_path)
        engine = make_engine(root)
        (root / engine.config.cache).write_text("{not json", encoding="utf-8")
        report = engine.check([Path("pkg")])
        assert len(report.diagnostics) == 1


class TestSuppression:
    def test_inline_allow_hides_finding(self, tmp_path):
        root = make_project(tmp_path)
        engine = make_engine(root)
        source = VIOLATION.replace(
            "return time.time()",
            "return time.time()  # repro: allow[DET001]",
        )
        assert engine.analyze_source("pkg/mod.py", source) == []

    def test_allow_is_rule_specific(self, tmp_path):
        engine = make_engine(make_project(tmp_path))
        source = VIOLATION.replace(
            "return time.time()",
            "return time.time()  # repro: allow[DET002]",
        )
        assert len(engine.analyze_source("pkg/mod.py", source)) == 1

    def test_allow_inside_string_is_not_a_suppression(self, tmp_path):
        engine = make_engine(make_project(tmp_path))
        source = (
            "import time\n"
            'NOTE = "use # repro: allow[DET001] to suppress"\n'
            "t = time.time()\n"
        )
        diagnostics = engine.analyze_source("pkg/mod.py", source)
        assert [d.rule for d in diagnostics] == ["DET001"]

    def test_multiple_rules_in_one_allow(self, tmp_path):
        engine = make_engine(make_project(tmp_path))
        source = (
            "# repro: scope[no-io]\n"
            "import time\n"
            "t = time.sleep(1) or time.time()  # repro: allow[DET001, DET004]\n"
        )
        assert engine.analyze_source("pkg/mod.py", source) == []


class TestDiscoveryAndScopes:
    def test_exclude_skips_directory_walk(self, tmp_path):
        root = make_project(tmp_path)
        engine = make_engine(root, exclude=("pkg",))
        assert engine.discover([Path("pkg")]) == []

    def test_explicit_file_beats_exclude(self, tmp_path):
        root = make_project(tmp_path)
        engine = make_engine(root, exclude=("pkg",))
        found = engine.discover([Path("pkg") / "mod.py"])
        assert [p.name for p in found] == ["mod.py"]

    def test_pycache_and_hidden_dirs_skipped(self, tmp_path):
        root = make_project(tmp_path)
        (root / "pkg" / "__pycache__").mkdir()
        (root / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
        (root / ".hidden").mkdir()
        (root / ".hidden" / "h.py").write_text("x = 1\n")
        found = make_engine(root).discover([Path(".")])
        assert [p.name for p in found] == ["mod.py"]

    def test_glob_scope_assignment(self, tmp_path):
        engine = make_engine(
            make_project(tmp_path), hot_paths=("pkg/*",), no_io=()
        )
        assert "hot-path" in engine.scopes_for("pkg/mod.py", "")
        assert "no-io" not in engine.scopes_for("pkg/mod.py", "")
        assert engine.scopes_for("other/mod.py", "") == frozenset()

    def test_pragma_opts_file_into_scope(self, tmp_path):
        engine = make_engine(make_project(tmp_path), hot_paths=())
        source = "# repro: scope[hot-path]\n"
        assert "hot-path" in engine.scopes_for("anywhere.py", source)

    def test_pragma_outside_header_ignored(self, tmp_path):
        engine = make_engine(make_project(tmp_path), hot_paths=())
        source = "\n" * 20 + "# repro: scope[hot-path]\n"
        assert engine.scopes_for("anywhere.py", source) == frozenset()

    def test_syntax_error_reports_parse_diagnostic(self, tmp_path):
        engine = make_engine(make_project(tmp_path))
        diagnostics = engine.analyze_source("pkg/bad.py", "def broken(:\n")
        assert [d.rule for d in diagnostics] == ["PARSE"]
