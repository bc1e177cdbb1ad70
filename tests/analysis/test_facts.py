"""collect_facts and the rule tables over the real repository tree."""

from pathlib import Path

import ast
import pytest

from repro.analysis import collect_facts
from repro.analysis.project import CONFIG_CLASSES
from repro.analysis.rules.arch001_layering import LAYERS, module_level_repro_imports
from repro.analysis.rules.msg001_protocol import PROTOCOL, actors, dispatch_map

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def facts():
    return collect_facts(ROOT)


@pytest.fixture(scope="module")
def handlers():
    """Actor class name -> (defining path, ``receive`` dispatch map)."""
    out = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        rel = path.relative_to(ROOT).as_posix()
        out.update(
            {node.name: (rel, dispatch_map(receive)) for node, receive in actors(tree)}
        )
    return out


class TestConfigClasses:
    def test_both_tracked_classes_found(self):
        defined = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defined |= {
                node.name for node in tree.body if isinstance(node, ast.ClassDef)
            }
        assert CONFIG_CLASSES == {"DynamothConfig", "ChaosScenarioConfig", "RunSpec"}
        assert CONFIG_CLASSES <= defined

    def test_config_reads_collected(self, facts):
        assert "max_servers" in facts.config_field_reads


class TestHandlerMap:
    def test_all_protocol_actors_have_handlers(self, handlers):
        # MSG001 checks the actors it finds; a renamed actor class would
        # silently drop out of its view, so the table must name real ones.
        for routed_to in PROTOCOL.values():
            for actor in routed_to:
                assert actor in handlers, actor

    def test_broker_dispatch_branches(self, handlers):
        path, dispatch = handlers["PubSubServer"]
        assert path == "src/repro/broker/server.py"
        assert {name for name, _ in dispatch} == {
            "PublishCmd",
            "SubscribeCmd",
            "UnsubscribeCmd",
            "ReplayRequest",
            "PingCmd",
        }

    def test_dispatch_records_branch_lines(self, handlers):
        dispatch = dict(handlers["Dispatcher"][1])
        assert set(dispatch) == {"PlanPush", "NoMoreSubscribers"}
        assert all(line > 0 for line in dispatch.values())


class TestImportGraph:
    @pytest.fixture(scope="class")
    def import_graph(self):
        """Top-level package -> packages it imports at module level."""
        graph = {}
        pkg_root = ROOT / "src" / "repro"
        for path in sorted(pkg_root.rglob("*.py")):
            parts = path.relative_to(pkg_root).parts
            if len(parts) < 2:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            edges = graph.setdefault(parts[0], set())
            edges.update(t for t, _ in module_level_repro_imports(tree) if t != parts[0])
        return graph

    def test_leaf_layers_import_nothing(self, import_graph):
        assert import_graph["sim"] == set()
        assert import_graph["obs"] == set()

    def test_net_depends_only_on_sim(self, import_graph):
        assert import_graph["net"] == {"sim"}

    def test_broker_never_imports_control_plane(self, import_graph):
        # The data plane must not reach up into repro.core at module
        # level; ARCH001 enforces this and the tree must agree.
        assert "core" not in import_graph["broker"]

    def test_graph_respects_declared_dag(self, import_graph):
        for pkg, imported in import_graph.items():
            if pkg not in LAYERS:
                continue
            allowed = set(LAYERS[pkg])
            assert imported <= allowed, (pkg, imported - allowed)


class TestLayerDag:
    def test_declared_layers_are_acyclic(self):
        layers = {k: set(v) for k, v in LAYERS.items()}
        order = []
        while layers:
            ready = [k for k, deps in layers.items() if not deps & set(layers)]
            assert ready, f"cycle among {sorted(layers)}"
            for k in sorted(ready):
                order.append(k)
                del layers[k]
        assert order[0] in {"analysis", "obs", "sim"}


class TestWireMessages:
    def test_commands_located(self, facts):
        path, line = facts.wire_messages["PublishCmd"]
        assert path == "src/repro/broker/commands.py"
        assert line > 0

    def test_every_routed_message_is_a_known_wire_type(self, facts):
        for message in PROTOCOL:
            assert message in facts.wire_messages, message
