"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io.astg import save_astg
from repro.models.library import four_phase_master, four_phase_slave
from repro.models.protocol_translator import inconsistent_sender

from tests.io.test_json_dot import WRONGLY_TYPED


@pytest.fixture()
def master_file(tmp_path):
    path = tmp_path / "master.g"
    save_astg(four_phase_master(), str(path))
    return str(path)


@pytest.fixture()
def slave_file(tmp_path):
    path = tmp_path / "slave.g"
    save_astg(four_phase_slave(), str(path))
    return str(path)


def save_module(tmp_path, name, arcs, initial, inputs=(), outputs=()) -> str:
    """Write the STG with transitions ``arcs`` (``(preset, label,
    postset)`` triples, tids in order) as ``name.json``."""
    from repro.io.json_io import save
    from repro.petri.marking import Marking
    from repro.petri.net import PetriNet
    from repro.stg.stg import Stg

    net = PetriNet(name)
    for preset, label, postset in arcs:
        net.add_transition(preset, label, postset)
    net.set_initial(Marking(initial))
    path = tmp_path / f"{name}.json"
    save(Stg(net, inputs=set(inputs), outputs=set(outputs)), str(path))
    return str(path)


@pytest.fixture()
def case_study_files(tmp_path):
    """The Fig 5/7 sender and translator as .json inputs (their nets
    round-trip through the JSON format, not the astg one)."""
    from repro.io.json_io import save
    from repro.models.protocol_translator import sender, translator

    sender_path = tmp_path / "sender.json"
    translator_path = tmp_path / "translator.json"
    save(sender(), str(sender_path))
    save(translator(), str(translator_path))
    return str(sender_path), str(translator_path)


@pytest.fixture()
def case_study_modules(tmp_path):
    """The Fig 5 sender S, Fig 7 translator T, Fig 6 receiver R and
    Fig 8 inconsistent sender I as .json inputs, by letter."""
    from repro.io.json_io import save
    from repro.models.protocol_translator import receiver, sender, translator

    paths = {}
    for letter, module in (
        ("S", sender),
        ("T", translator),
        ("R", receiver),
        ("I", inconsistent_sender),
    ):
        paths[letter] = str(tmp_path / f"{letter}.json")
        save(module(), paths[letter])
    return paths


class TestInfo:
    def test_info_output(self, master_file, capsys):
        assert main(["info", master_file]) == 0
        out = capsys.readouterr().out
        assert "master" in out
        assert "4 places" in out
        assert "live" in out

    def test_info_json_input(self, tmp_path, capsys):
        from repro.io.json_io import save

        path = tmp_path / "m.json"
        save(four_phase_master(), str(path))
        assert main(["info", str(path)]) == 0
        assert "master" in capsys.readouterr().out


class TestCompose:
    def test_compose_writes_output(self, master_file, slave_file, tmp_path, capsys):
        out_path = tmp_path / "system.g"
        assert main(["compose", master_file, slave_file, "-o", str(out_path)]) == 0
        assert out_path.exists()
        from repro.io.astg import load_astg

        system = load_astg(str(out_path))
        assert len(system.net.transitions) == 4

    def test_compose_trim(self, master_file, slave_file, tmp_path):
        out_path = tmp_path / "system.g"
        assert (
            main(
                ["compose", master_file, slave_file, "-o", str(out_path), "--trim"]
            )
            == 0
        )


class TestHide:
    def test_hide_signal(self, master_file, slave_file, tmp_path, capsys):
        composed = tmp_path / "system.g"
        main(["compose", master_file, slave_file, "-o", str(composed)])
        hidden = tmp_path / "hidden.g"
        assert main(["hide", str(composed), "-s", "a", "-o", str(hidden)]) == 0
        from repro.io.astg import load_astg

        result = load_astg(str(hidden))
        assert "a" not in result.signals()


class TestVerify:
    def test_receptive_pair_returns_zero(self, master_file, slave_file, capsys):
        assert main(["verify", master_file, slave_file]) == 0
        assert "receptive" in capsys.readouterr().out

    def test_failure_returns_nonzero(self, slave_file, tmp_path, capsys):
        bad_path = tmp_path / "bad.g"
        from repro.petri.marking import Marking
        from repro.petri.net import PetriNet
        from repro.stg.stg import Stg

        net = PetriNet("impatient")
        net.add_transition({"m0"}, "r+", {"m1"})
        net.add_transition({"m1"}, "r-", {"m2"})
        net.add_transition({"m2"}, "a+", {"m3"})
        net.add_transition({"m3"}, "a-", {"m0"})
        net.set_initial(Marking({"m0": 1}))
        save_astg(Stg(net, inputs={"a"}, outputs={"r"}), str(bad_path))
        assert main(["verify", str(bad_path), slave_file]) == 1
        assert "NOT receptive" in capsys.readouterr().out


class TestFailurePaths:
    """Input errors are one-line messages on stderr with exit code 2."""

    def test_missing_file(self, capsys):
        assert main(["info", "does_not_exist.g"]) == 2
        err = capsys.readouterr().err
        assert err == "cip: error: no such file: does_not_exist.g\n"

    def test_malformed_astg(self, tmp_path, capsys):
        path = tmp_path / "broken.g"
        path.write_text("this is not an astg file\n.end\n")
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cip: error: cannot parse")
        assert "\n" not in err.rstrip("\n")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["info", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    @pytest.mark.parametrize("document", WRONGLY_TYPED)
    def test_wrongly_typed_json(self, tmp_path, capsys, document):
        """``info`` on the file, and ``bench`` on a directory holding
        it, both exit 2 with one parse-error line."""
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(document))
        for argv in (["info", str(path)], ["bench", str(tmp_path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"cip: error: cannot parse {path}: ")
            assert err.count("\n") == 1

    def test_verify_rejects_the_eager_engine(
        self, master_file, slave_file, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", master_file, slave_file, "--engine", "eager"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --engine: invalid choice: 'eager'" in err

    def test_bench_rejects_the_eager_engine(self, corpus_dir, capsys):
        assert main(["bench", str(corpus_dir), "--engines", "eager"]) == 2
        assert capsys.readouterr().err == (
            "cip: error: unknown engine 'eager'; expected a comma-separated"
            " subset of onthefly, por, symbolic\n"
        )

    def test_unknown_input_extension(self, tmp_path, capsys):
        path = tmp_path / "net.xyz"
        path.write_text("")
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert "unrecognized extension" in err
        assert ".g, .json, .net or .pnml" in err

    def test_unknown_output_extension(self, master_file, tmp_path, capsys):
        target = tmp_path / "out.xyz"
        assert main(["hide", master_file, "-s", "r", "-o", str(target)]) == 2
        assert "unrecognized extension for output" in capsys.readouterr().err
        assert not target.exists()

    def test_malformed_pnml(self, tmp_path, capsys):
        path = tmp_path / "broken.pnml"
        path.write_text('<pnml><net id="n"><place id=')
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cip: error: cannot parse")
        assert "\n" not in err.rstrip("\n")

    def test_malformed_tina(self, tmp_path, capsys):
        path = tmp_path / "broken.net"
        path.write_text("net n\ntr t0 p*2 -> q\n")
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cip: error: cannot parse")
        assert "weight 2" in err
        assert "\n" not in err.rstrip("\n")

    def test_truncated_tina(self, tmp_path, capsys):
        path = tmp_path / "broken.net"
        path.write_text("net n\ntr t0 {unterminated")
        assert main(["info", str(path)]) == 2
        assert "unterminated" in capsys.readouterr().err

    def test_undeclared_signal(self, tmp_path, capsys):
        # ``b+`` is a signal event, but only ``a`` is declared.
        path = tmp_path / "demo.net"
        path.write_text(
            "net demo\n"
            "# cip:outputs a\n"
            "tr t0 : {a+} p0 -> p1\n"
            "tr t1 : {b+} p1 -> p0\n"
            "pl p0 (1)\n"
        )
        assert main(["info", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "cip: error: undeclared signal 'b' on t1:{p1}-b+->{p0}\n"
        )

    def test_unwritable_output_format_is_clean(self, tmp_path, capsys):
        # A plain-labeled net cannot be written as .g: one line, exit 2,
        # no partial file.
        from repro.io.json_io import save
        from repro.models.paper_figures import fig1_left
        from repro.stg.stg import Stg

        source = tmp_path / "fig1.json"
        save(Stg(fig1_left()), str(source))
        target = tmp_path / "out.g"
        assert main(["convert", str(source), str(target)]) == 2
        err = capsys.readouterr().err
        assert "cip: error: cannot write" in err
        assert "\n" not in err.rstrip("\n")

    def test_verify_bound_exceeded_is_a_clean_error(
        self, case_study_files, capsys
    ):
        sender_path, translator_path = case_study_files
        status = main(
            ["verify", sender_path, translator_path, "--max-states", "10"]
        )
        assert status == 2
        assert "exceeds --max-states=10" in capsys.readouterr().err

    def test_stategraph_bound_exceeded_is_a_clean_error(
        self, corpus_dir, capsys
    ):
        path = str(corpus_dir / "fig5_sender.net")
        assert main(["stategraph", path, "--max-states", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cip: error: state graph exceeds --max-states=1:")
        assert err.count("\n") == 1

    def test_synth_bound_exceeded_is_a_clean_error(
        self, corpus_dir, capsys, monkeypatch
    ):
        # ``cip synth`` takes no --max-states; a 10-state default makes
        # the bounded Fig 5 sender exceed it.
        from repro.synth import implementation

        monkeypatch.setattr(implementation.synthesize, "__defaults__", (10,))
        path = str(corpus_dir / "fig5_sender.net")
        assert main(["synth", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cip: error: cannot synthesize: more than 10 ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["synth", "stategraph"])
    def test_unbounded_state_graph_is_proven(self, corpus_dir, capsys, command):
        """A source transition pumps tokens into ``buf``: the state graph
        build proves unboundedness by strict covering at the second
        state, long before any budget."""
        path = str(corpus_dir / "mcc_unbounded_source.net")
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cip: error: ")
        assert err.count("\n") == 1
        assert (
            "is unbounded: Marking({buf:1, src:1}) strictly covers ancestor"
            " Marking({src:1})" in err
        )

    @pytest.mark.parametrize(
        "arcs, message",
        [
            # x+ reads r: a partial self-loop, which hiding would turn
            # into divergence.
            (
                [({"p", "r"}, "x+", {"q", "r"}), ({"q"}, "x-", {"p"})],
                "cannot hide self-looping transition t0:{p,r}-x+->{q,r}"
                " (divergence)\n",
            ),
            # x+ is a source transition: no input places to collapse.
            (
                [(set(), "x+", {"q"}), ({"q"}, "x-", {"p"})],
                "cannot contract t0:{-}-x+->{q}: source/sink transitions"
                " have no input or output places to collapse\n",
            ),
        ],
        ids=["read-arc", "source"],
    )
    def test_uncontractible_hide_is_a_clean_error(
        self, tmp_path, capsys, arcs, message
    ):
        path = save_module(tmp_path, "hidden", arcs, {"p": 1, "r": 1}, outputs={"x"})
        target = tmp_path / "out.json"
        assert main(["hide", path, "-s", "x", "-o", str(target)]) == 2
        assert capsys.readouterr().err == f"cip: error: {message}"
        assert not target.exists()

    def test_simplify_with_private_source_is_a_clean_error(
        self, tmp_path, capsys
    ):
        """The environment's private signal z starts with a source
        transition, which the projection would have to contract."""
        environment = save_module(
            tmp_path,
            "env",
            [
                (set(), "z+", {"e"}),
                ({"e"}, "y+", {"f"}),
                ({"f"}, "y-", {"g"}),
                ({"g"}, "z-", set()),
            ],
            {},
            outputs={"y", "z"},
        )
        target = save_module(
            tmp_path,
            "target",
            [({"u"}, "y+", {"v"}), ({"v"}, "y-", {"u"})],
            {"u": 1},
            inputs={"y"},
        )
        output = tmp_path / "out.json"
        assert main(["simplify", target, environment, "-o", str(output)]) == 2
        assert capsys.readouterr().err == (
            "cip: error: cannot contract t0:{-}-z+->{e}: source/sink"
            " transitions have no input or output places to collapse\n"
        )
        assert not output.exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("command", ["info", "verify", "bench", "stategraph"])
    def test_invalid_max_states_value(self, corpus_dir, capsys, command, value):
        sender = str(corpus_dir / "fig5_sender.net")
        operands = {
            "info": [sender],
            "verify": [sender, str(corpus_dir / "fig7_translator.net")],
            "bench": [str(corpus_dir)],
            "stategraph": [sender],
        }[command]
        assert main([command, *operands, "--max-states", value]) == 2
        assert capsys.readouterr().err == (
            f"cip: error: invalid --max-states value {value}: expected a"
            " positive integer\n"
        )


class TestConvert:
    def test_g_to_all_formats_and_back(self, master_file, tmp_path, capsys):
        from repro.io.astg import load_astg
        from repro.verify.language import languages_equal

        original = load_astg(master_file)
        previous = master_file
        for suffix in (".json", ".pnml", ".net", ".g"):
            target = tmp_path / f"step{suffix}"
            assert main(["convert", previous, str(target)]) == 0
            assert f"wrote {target}" in capsys.readouterr().out
            previous = str(target)
        final = load_astg(previous)
        assert languages_equal(original.net, final.net)
        assert final.inputs == original.inputs
        assert final.outputs == original.outputs

    def test_every_format_feeds_every_subcommand(self, master_file, tmp_path, capsys):
        for suffix in (".pnml", ".net"):
            target = tmp_path / f"master{suffix}"
            assert main(["convert", master_file, str(target)]) == 0
            capsys.readouterr()
            assert main(["info", str(target)]) == 0
            assert "4 places" in capsys.readouterr().out


class TestVerifyPor:
    def test_por_reports_reduction_and_baseline(
        self, case_study_files, capsys
    ):
        sender_path, translator_path = case_study_files
        assert (
            main(["verify", sender_path, translator_path, "--engine", "por"])
            == 0
        )
        out = capsys.readouterr().out
        assert "# states explored: 228 (por)" in out
        assert (
            "# states reduced : 59/228 markings expanded"
            " with a proper stubborn subset" in out
        )
        assert (
            "# por proviso    : fresh — breadth-first, full expansion"
            " on cycle re-entry" in out
        )
        assert "# eager baseline : 1444 states (228/1444 explored)" in out

    def test_por_baseline_unavailable_when_bound_exceeded(
        self, case_study_files, capsys
    ):
        # 300 admits the 228-state reduced space but not the 1444-state
        # full one: the verdict must still be printed, with the baseline
        # marked unavailable rather than silently omitted.
        sender_path, translator_path = case_study_files
        status = main(
            [
                "verify",
                sender_path,
                translator_path,
                "--engine",
                "por",
                "--max-states",
                "300",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "receptive" in out
        assert "# eager baseline : unavailable (bound exceeded)" in out


@pytest.fixture()
def bank_files(tmp_path):
    """A six-channel handshake bank whose explicit product space (4^6
    interleavings) exceeds a 2000-state budget, while every symbolic
    obligation system stays at the one-channel closed-form size."""
    from repro.core.circuit import compose_many
    from repro.io.json_io import save

    channels = 6
    masters = compose_many(
        [
            four_phase_master(req=f"r{i}", ack=f"a{i}", name=f"m{i}")
            for i in range(channels)
        ]
    )
    slaves = compose_many(
        [
            four_phase_slave(req=f"r{i}", ack=f"a{i}", name=f"s{i}")
            for i in range(channels)
        ]
    )
    master_path = tmp_path / "masters.json"
    slave_path = tmp_path / "slaves.json"
    save(masters, str(master_path))
    save(slaves, str(slave_path))
    return str(master_path), str(slave_path)


class TestVerifySymbolic:
    def test_decides_beyond_the_state_budget(self, bank_files, capsys):
        """The acceptance instance: symbolic proves all 24 obligations
        safe under a budget the explicit engines cannot fit."""
        masters, slaves = bank_files
        status = main(
            [
                "verify",
                masters,
                slaves,
                "--engine",
                "symbolic",
                "--method",
                "reachability",
                "--max-states",
                "2000",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "receptive" in out
        assert "# symbolic       : 24/24 obligations proven safe" in out
        assert "# verdict        : conclusive — no state enumerated" in out

    def test_explicit_engine_exceeds_the_same_budget(
        self, bank_files, capsys
    ):
        masters, slaves = bank_files
        status = main(
            [
                "verify",
                masters,
                slaves,
                "--engine",
                "onthefly",
                "--method",
                "reachability",
                "--max-states",
                "2000",
            ]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert "state space exceeds --max-states=2000" in err

    def test_inconclusive_remainder_falls_back(
        self, case_study_files, capsys
    ):
        """sender||translator leaves some obligations undecided; the
        verdict line must say the fallback search settled them."""
        sender_path, translator_path = case_study_files
        status = main(
            [
                "verify",
                sender_path,
                translator_path,
                "--engine",
                "symbolic",
                "--method",
                "reachability",
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "receptive" in out
        assert "# symbolic       : " in out
        assert "undecided" in out
        assert (
            "# verdict        : inconclusive remainder fell back to the"
            " on-the-fly search" in out
        )

    @pytest.mark.parametrize(
        "left, right, status, partition, systems",
        [
            ("S", "T", 0, "16/24 obligations proven safe, 0 proven"
             " failing, 8 undecided", "25 systems, 3573 constraints"),
            ("T", "R", 0, "16/40 obligations proven safe, 0 proven"
             " failing, 24 undecided", "41 systems, 5577 constraints"),
            ("I", "T", 1, "0/16 obligations proven safe, 0 proven"
             " failing, 16 undecided", "16 systems, 2136 constraints"),
        ],
        ids=["S||T", "T||R", "I||T"],
    )
    def test_case_study_systems_are_pinned(
        self, case_study_modules, capsys, left, right, status, partition,
        systems,
    ):
        """Which systems the engine solves on the paper's case study:
        a change to them (more choices decided, a shortcut that skips
        the exact run) has to update these lines on purpose."""
        code = main(
            [
                "verify",
                case_study_modules[left],
                case_study_modules[right],
                "--engine",
                "symbolic",
            ]
        )
        assert code == status
        lines = capsys.readouterr().out.splitlines()
        assert f"# symbolic       : {partition}" in lines
        assert (
            f"# state equation : {systems}, 0 trap refinement round(s)"
            in lines
        )

    def test_symbolic_rejects_parallel(self, master_file, slave_file, capsys):
        status = main(
            [
                "verify",
                master_file,
                slave_file,
                "--engine",
                "symbolic",
                "--parallel",
                "2",
            ]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert "--engine symbolic does not compose with" in err


class TestObservability:
    def test_profile_prints_summary(self, master_file, slave_file, capsys):
        assert (
            main(["verify", master_file, slave_file, "--profile"]) == 0
        )
        out = capsys.readouterr().out
        assert "# profile:" in out
        assert "verify.receptiveness" in out

    def test_profile_does_not_change_the_answer(
        self, master_file, slave_file, capsys
    ):
        assert main(["verify", master_file, slave_file]) == 0
        plain = capsys.readouterr().out
        assert (
            main(["verify", master_file, slave_file, "--profile"]) == 0
        )
        profiled = capsys.readouterr().out
        unprefixed = [
            line
            for line in profiled.splitlines()
            if not line.startswith("#   ") and not line.startswith("# profile")
        ]
        assert plain.splitlines() == unprefixed

    def test_metrics_out_round_trips_schema(
        self, master_file, slave_file, tmp_path, capsys
    ):
        from repro.obs.emit import validate_metrics

        target = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "verify",
                    master_file,
                    slave_file,
                    "--metrics-out",
                    str(target),
                ]
            )
            == 0
        )
        payload = json.loads(target.read_text())
        validate_metrics(payload)
        names = {span["name"] for span in payload["spans"]}
        assert {"verify.receptiveness", "algebra.compose"} <= names
        assert payload["clock"] == "monotonic"

    def test_info_profile_and_metrics(self, master_file, tmp_path, capsys):
        from repro.obs.emit import validate_metrics

        target = tmp_path / "info.json"
        assert (
            main(
                ["info", master_file, "--profile", "--metrics-out", str(target)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "# profile:" in out
        payload = json.loads(target.read_text())
        validate_metrics(payload)
        names = {span["name"] for span in payload["spans"]}
        assert {"cli.info.classify", "cli.info.behaviour"} <= names


class TestHideTrim:
    def test_hide_trim_cleans_result(self, master_file, slave_file, tmp_path):
        composed = tmp_path / "system.g"
        main(["compose", master_file, slave_file, "-o", str(composed)])
        plain = tmp_path / "plain.g"
        trimmed = tmp_path / "trimmed.g"
        assert main(["hide", str(composed), "-s", "a", "-o", str(plain)]) == 0
        assert (
            main(
                ["hide", str(composed), "-s", "a", "-o", str(trimmed), "--trim"]
            )
            == 0
        )
        from repro.io.astg import load_astg

        assert len(load_astg(str(trimmed)).net.places) <= len(
            load_astg(str(plain)).net.places
        )


class TestSimplify:
    def test_simplify_roundtrip(self, master_file, slave_file, tmp_path, capsys):
        out_path = tmp_path / "reduced.g"
        assert (
            main(["simplify", slave_file, master_file, "-o", str(out_path)]) == 0
        )
        assert "states" in capsys.readouterr().out


class TestSynth:
    def test_synth_prints_netlist(self, slave_file, capsys):
        assert main(["synth", slave_file]) == 0
        out = capsys.readouterr().out
        assert "a = r" in out
        assert "PASS" in out

    def test_synth_rejects_inconsistent(self, tmp_path, capsys):
        path = tmp_path / "bad.g"
        from repro.petri.marking import Marking
        from repro.petri.net import PetriNet
        from repro.stg.stg import Stg

        net = PetriNet("double_rise")
        net.add_transition({"p0"}, "z+", {"p1"})
        net.add_transition({"p1"}, "z+", {"p0"})
        net.set_initial(Marking({"p0": 1}))
        save_astg(Stg(net, outputs={"z"}), str(path))
        assert main(["synth", str(path)]) == 1


class TestDot:
    def test_dot_output(self, master_file, capsys):
        assert main(["dot", master_file]) == 0
        assert "digraph" in capsys.readouterr().out


class TestStategraph:
    def test_consistent_stg_reports_ok(self, master_file, capsys):
        assert main(["stategraph", master_file]) == 0
        out = capsys.readouterr().out
        assert "consistent   : True" in out
        assert "CSC          : True" in out

    def test_inconsistent_stg_returns_nonzero(self, tmp_path, capsys):
        from repro.petri.marking import Marking
        from repro.petri.net import PetriNet
        from repro.stg.stg import Stg

        net = PetriNet("double_rise")
        net.add_transition({"p0"}, "z+", {"p1"})
        net.add_transition({"p1"}, "z+", {"p0"})
        net.set_initial(Marking({"p0": 1}))
        path = tmp_path / "bad.g"
        save_astg(Stg(net, outputs={"z"}), str(path))
        assert main(["stategraph", str(path)]) == 1


class TestReduce:
    def test_reduce_removes_epsilons(self, tmp_path, capsys):
        from repro.petri.marking import Marking
        from repro.petri.net import EPSILON, PetriNet
        from repro.io.astg import load_astg
        from repro.stg.stg import Stg

        net = PetriNet("padded")
        net.add_transition({"p0"}, "z+", {"p1"})
        net.add_transition({"p1"}, EPSILON, {"p2"})
        net.add_transition({"p2"}, "z-", {"p0"})
        net.set_initial(Marking({"p0": 1}))
        source = tmp_path / "in.g"
        target = tmp_path / "out.g"
        save_astg(Stg(net, outputs={"z"}), str(source))
        assert main(["reduce", str(source), "-o", str(target)]) == 0
        reduced = load_astg(str(target))
        assert not reduced.net.transitions_with_action(EPSILON)


class TestParallelFlags:
    """verify --parallel: loud one-line rejection of invalid values
    (exit 2), identical verdicts to serial on the happy path."""

    @pytest.mark.parametrize("value", ["0", "-3", "65", "1.5", "lots"])
    def test_invalid_parallel_value(
        self, master_file, slave_file, capsys, value
    ):
        assert (
            main(["verify", master_file, slave_file, "--parallel", value])
            == 2
        )
        err = capsys.readouterr().err
        assert err.startswith("cip: error: invalid --parallel value")
        assert err.count("\n") == 1

    def test_por_engine_conflicts_with_parallel(
        self, master_file, slave_file, capsys
    ):
        assert (
            main(
                [
                    "verify",
                    master_file,
                    slave_file,
                    "--engine",
                    "por",
                    "--parallel",
                    "2",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        # The rejection must name the reason and point at the serial
        # por path, not just refuse the combination.
        assert "does not compose with --parallel" in err
        assert "inherently order-sensitive" in err
        assert "run por serially" in err
        assert "keep it with --engine onthefly" in err
        assert err.count("\n") == 1

    def test_parallel_verify_matches_serial(
        self, master_file, slave_file, capsys
    ):
        assert main(["verify", master_file, slave_file]) == 0
        serial = capsys.readouterr().out
        assert (
            main(["verify", master_file, slave_file, "--parallel", "2"]) == 0
        )
        parallel = capsys.readouterr().out
        assert "# parallel       : 2 worker(s)\n" in parallel
        # Everything except the parallel banner is byte-identical.
        stripped = "".join(
            line
            for line in parallel.splitlines(keepends=True)
            if not line.startswith("# parallel")
        )
        assert stripped == serial
