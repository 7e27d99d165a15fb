"""Tests for JSON round-trips and DOT export."""

import json
from pathlib import Path

import pytest

from repro.io.dot import cip_to_dot, net_to_dot, stg_to_dot
from repro.io.json_io import dumps, load, loads, save
from repro.models.library import four_phase_master, mutex_arbiter
from repro.models.protocol_translator import translator
from repro.verify.language import languages_equal

SENDER = Path(__file__).parent.parent / "corpus" / "fig5_sender.json"


def sender_with(*keys, value):
    """The Fig 5 sender's JSON document with one field replaced."""
    data = json.loads(SENDER.read_text())
    target = data
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return data


#: Well-formed JSON whose content has the wrong types: each must be a
#: ``ValueError`` (a one-line ``cip`` parse error), never a crash.
WRONGLY_TYPED = [
    pytest.param([1, 2], id="top-level-array"),
    pytest.param("x", id="top-level-string"),
    pytest.param({"net": 5}, id="net-integer"),
    pytest.param(sender_with("net", "places", value=5), id="places-integer"),
    pytest.param(
        sender_with("net", "transitions", value=7), id="transitions-integer"
    ),
    pytest.param(
        sender_with("net", "transitions", value=["x"]),
        id="transition-string",
    ),
    pytest.param(
        sender_with("net", "initial", value={"idle": "one"}),
        id="token-count-string",
    ),
    pytest.param(sender_with("net", "initial", value=[1]), id="initial-array"),
    pytest.param(
        sender_with("initial_values", value=[1]), id="initial-values-array"
    ),
    pytest.param(sender_with("inputs", value=3), id="inputs-integer"),
    pytest.param(
        sender_with(
            "net", "guards", value=[{"place": "idle", "tid": 0, "guard": 5}]
        ),
        id="guard-integer",
    ),
]


class TestJson:
    def test_round_trip_simple(self):
        original = four_phase_master()
        restored = loads(dumps(original))
        assert restored.inputs == original.inputs
        assert restored.outputs == original.outputs
        assert restored.net.initial == original.net.initial
        assert languages_equal(original.net, restored.net)

    def test_round_trip_with_guards_and_x_values(self):
        original = translator()
        restored = loads(dumps(original))
        assert restored.initial_values["DATA"] is None
        assert len(restored.net.input_guards) == len(
            original.net.input_guards
        )
        assert restored.net.stats() == original.net.stats()

    def test_guard_survives_semantically(self):
        from repro.stg.state_graph import build_state_graph

        original = translator()
        restored = loads(dumps(original))
        assert (
            build_state_graph(original).num_states()
            == build_state_graph(restored).num_states()
        )

    def test_output_is_valid_json(self):
        data = json.loads(dumps(four_phase_master()))
        assert data["net"]["name"] == "master"

    def test_version_check(self):
        data = json.loads(dumps(four_phase_master()))
        data["net"]["version"] = 99
        with pytest.raises(ValueError):
            loads(json.dumps(data))

    @pytest.mark.parametrize("document", WRONGLY_TYPED)
    def test_wrongly_typed_content_is_a_value_error(self, document):
        with pytest.raises(ValueError):
            loads(json.dumps(document))

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        save(four_phase_master(), str(path))
        assert load(str(path)).name == "master"


class TestDot:
    def test_net_dot_mentions_places_and_transitions(self):
        text = net_to_dot(four_phase_master().net)
        assert "digraph" in text
        assert '"p_m0"' in text
        assert "r+" in text

    def test_stg_dot_marks_inputs_dashed(self):
        text = stg_to_dot(four_phase_master())
        assert "style=dashed" in text  # a+ / a- are inputs

    def test_guards_appear_as_edge_labels(self):
        text = stg_to_dot(translator())
        assert "STROBE" in text and "DATA" in text

    def test_tokens_rendered(self):
        text = net_to_dot(mutex_arbiter().net)
        assert "●" in text

    def test_cip_block_diagram(self):
        from repro.models.protocol_translator import build_cip

        text = cip_to_dot(build_cip())
        assert '"sender" -> "translator"' in text
        assert '"translator" -> "receiver"' in text
