"""collect_facts over the real repository tree."""

from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, collect_facts
from repro.analysis.project import _registered_event_names, _class_facts
import ast

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def facts():
    return collect_facts(ROOT, AnalysisConfig())


class TestTraceRegistry:
    def test_known_events_registered(self, facts):
        assert facts.trace_events is not None
        for name in ("PublishEvent", "DeliveryEvent", "MetricsEvent"):
            assert name in facts.trace_events

    def test_base_class_not_registered(self, facts):
        # TraceEvent is the abstract base; emitting it is the bug TRC001
        # exists to catch, so it must not appear in the registry facts.
        assert "TraceEvent" not in facts.trace_events

    def test_registry_is_large(self, facts):
        assert len(facts.trace_events) >= 25


class TestConfigClasses:
    def test_both_tracked_classes_found(self, facts):
        assert set(facts.config_classes) == {
            "DynamothConfig",
            "ChaosScenarioConfig",
            "RunSpec",
        }
        assert "population" in facts.config_classes["RunSpec"].fields

    def test_dynamoth_fields_present(self, facts):
        fields = facts.config_classes["DynamothConfig"].fields
        assert "max_servers" in fields
        assert "lr_celing" not in fields  # the golden-fixture typo

    def test_methods_are_members_not_fields(self, facts):
        cf = facts.config_classes["DynamothConfig"]
        assert cf.methods.isdisjoint(cf.fields)
        assert cf.members == cf.fields | cf.methods


class TestCacheKey:
    def test_stable_across_collections(self, facts):
        again = collect_facts(ROOT, AnalysisConfig())
        assert facts.cache_key() == again.cache_key()

    def test_key_reflects_registry(self, facts):
        assert "PublishEvent" in facts.cache_key()


class TestHandlerMap:
    def test_all_protocol_actors_have_handlers(self, facts):
        for actors in AnalysisConfig().protocol.values():
            for actor in actors:
                assert actor in facts.handlers, actor

    def test_broker_dispatch_branches(self, facts):
        server = facts.handlers["PubSubServer"]
        assert server.path == "src/repro/broker/server.py"
        assert server.handled == {
            "PublishCmd",
            "SubscribeCmd",
            "UnsubscribeCmd",
            "ReplayRequest",
            "PingCmd",
        }

    def test_dispatch_records_branch_lines(self, facts):
        dispatch = dict(facts.handlers["Dispatcher"].dispatch)
        assert set(dispatch) == {"PlanPush", "NoMoreSubscribers"}
        assert all(line > 0 for line in dispatch.values())


class TestImportGraph:
    def test_leaf_layers_import_nothing(self, facts):
        assert facts.import_graph["sim"] == frozenset()
        assert facts.import_graph["obs"] == frozenset()

    def test_net_depends_only_on_sim(self, facts):
        assert facts.import_graph["net"] == frozenset({"sim"})

    def test_broker_never_imports_control_plane(self, facts):
        # The data plane must not reach up into repro.core at module
        # level; ARCH001 enforces this and the facts must agree.
        assert "core" not in facts.import_graph["broker"]

    def test_graph_respects_declared_dag(self, facts):
        layers = AnalysisConfig().layers
        for pkg, imported in facts.import_graph.items():
            if pkg not in layers:
                continue
            allowed = set(layers[pkg])
            assert imported <= allowed, (pkg, imported - allowed)


class TestLayerDag:
    def test_declared_layers_are_acyclic(self):
        layers = {k: set(v) for k, v in AnalysisConfig().layers.items()}
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
        for message in AnalysisConfig().protocol:
            assert message in facts.wire_messages, message


class TestEventFields:
    def test_publish_event_schema(self, facts):
        ev = facts.event_fields["PublishEvent"]
        assert ev.names == (
            "t",
            "msg_id",
            "channel",
            "sender",
            "plan_version",
            "targets",
            "payload_size",
        )
        assert "t" in ev.required

    def test_config_reads_collected(self, facts):
        assert "max_servers" in facts.config_field_reads


class TestParsers:
    def test_dict_comp_registry_form(self):
        tree = ast.parse(
            "EVENT_TYPES = {cls.TYPE: cls for cls in (A, B)}\n"
        )
        assert _registered_event_names(tree) == frozenset({"A", "B"})

    def test_plain_dict_registry_form(self):
        tree = ast.parse('EVENT_TYPES = {"a": A, "b": B}\n')
        assert _registered_event_names(tree) == frozenset({"A", "B"})

    def test_missing_registry_is_none(self):
        assert _registered_event_names(ast.parse("x = 1\n")) is None

    def test_class_facts_split(self):
        tree = ast.parse(
            "class C:\n"
            "    a: int\n"
            "    B = 3\n"
            "    def m(self):\n"
            "        pass\n"
        )
        cf = _class_facts(tree, "C")
        assert cf.fields == frozenset({"a", "B"})
        assert cf.methods == frozenset({"m"})

    def test_class_facts_missing_class(self):
        assert _class_facts(ast.parse("x = 1\n"), "C") is None
