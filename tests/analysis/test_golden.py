"""Golden diagnostics: each fixture produces exactly these findings.

The comparisons are exact (full ``path:line:col: RULE message`` strings),
so any drift in rule behaviour, message wording, positions or ordering
fails loudly here first.
"""

from pathlib import Path

import pytest

from repro.analysis import AnalysisEngine

ROOT = Path(__file__).resolve().parents[2]
FIXTURES = "tests/analysis/fixtures"

GOLDEN = {
    "det001_wallclock.py": [
        f"{FIXTURES}/det001_wallclock.py:8:12: DET001 wall-clock read "
        "`time.time()`; simulated time must come from the kernel clock (`sim.now`)",
        f"{FIXTURES}/det001_wallclock.py:12:12: DET001 wall-clock read "
        "`datetime.datetime.now()`; simulated time must come from the kernel "
        "clock (`sim.now`)",
    ],
    "det002_global_rng.py": [
        f"{FIXTURES}/det002_global_rng.py:9:12: DET002 global-RNG call "
        "`random.uniform()`; thread a seeded `random.Random` stream "
        "(repro.sim.rng) instead",
        f"{FIXTURES}/det002_global_rng.py:13:12: DET002 global-RNG call "
        "`random.choice()`; thread a seeded `random.Random` stream "
        "(repro.sim.rng) instead",
        f"{FIXTURES}/det002_global_rng.py:17:16: DET002 non-reproducible "
        "entropy source `uuid.uuid4()`; derive randomness from a seeded "
        "stream (repro.sim.rng)",
    ],
    "det003_set_iteration.py": [
        f"{FIXTURES}/det003_set_iteration.py:8:51: DET003 iteration over set "
        "variable `pending` has hash-dependent order on a hot path; wrap it "
        "in `sorted(...)`",
        f"{FIXTURES}/det003_set_iteration.py:10:20: DET003 iteration over a "
        "set expression has hash-dependent order on a hot path; wrap it in "
        "`sorted(...)`",
    ],
    "det004_blocking_io.py": [
        f"{FIXTURES}/det004_blocking_io.py:9:10: DET004 blocking call "
        "`open()` inside the simulation core; real I/O belongs in repro.obs "
        "exporters or experiment harnesses",
        f"{FIXTURES}/det004_blocking_io.py:14:5: DET004 blocking call "
        "`time.sleep()` inside the simulation core; real I/O belongs in "
        "repro.obs exporters or experiment harnesses",
        f"{FIXTURES}/det004_blocking_io.py:18:5: DET004 blocking call "
        "`subprocess.run()` inside the simulation core; real I/O belongs in "
        "repro.obs exporters or experiment harnesses",
    ],
    "msg001_protocol.py": [
        f"{FIXTURES}/msg001_protocol.py:7:5: MSG001 actor `Dispatcher` has "
        "no dispatch branch for routed message `NoMoreSubscribers`",
        f"{FIXTURES}/msg001_protocol.py:10:1: MSG001 dead handler: "
        "`PublishCmd` is not routed to actor `Dispatcher` in the protocol "
        "table",
    ],
    "arch001_layering.py": [
        f"{FIXTURES}/arch001_layering.py:4:1: ARCH001 layer `broker` may "
        "not import `repro.core` at module level (allowed: net, obs, sim); "
        "use a function-level or TYPE_CHECKING import if the dependency is "
        "annotation-only",
    ],
    "cfg002_dead_config.py": [
        f"{FIXTURES}/cfg002_dead_config.py:9:5: CFG002 "
        "`DynamothConfig.unused_knob` is never read outside its own class "
        "body (dead config knob)",
    ],
    "clean.py": [],
    "suppressed.py": [],
}


@pytest.fixture(scope="module")
def engine():
    return AnalysisEngine(ROOT)


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_fixture_diagnostics_exact(engine, fixture):
    report = engine.check([Path(FIXTURES) / fixture])
    assert [d.format() for d in report.diagnostics] == GOLDEN[fixture]


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_fixture_rule_seeded(engine, fixture):
    """Each violation fixture trips (at least) the rule it is named for."""
    stem = fixture.split("_", 1)[0].upper()
    report = engine.check([Path(FIXTURES) / fixture])
    rules = {d.rule for d in report.diagnostics}
    if fixture in ("clean.py", "suppressed.py"):
        assert rules == set()
    else:
        assert stem in rules
