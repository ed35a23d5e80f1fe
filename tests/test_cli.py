"""CLI: file formats, subcommands, exit codes, determinism."""

from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from effkit.cli import run
from effkit.model_io import (
    dumps_canonical,
    ef_model,
    load_model,
    model_from_dict,
    model_to_dict,
    nlmp_model,
)
from helpers import dumps_oracle, rand_ef, rand_json_doc, rand_kernel, rand_space

from effkit import Nlmp


K_A_DOC = {
    "kind": "nlmp",
    "states": ["s0", "s1", "s2"],
    "labels": ["a"],
    "kernels": {"a": {"s0": [{"s2": "1"}], "s1": [{"s2": "1"}], "s2": [{}]}},
}

EF_A_DOC = {
    "kind": "ef",
    "states": ["s0", "s1", "s2"],
    "effectivity": {
        "s0": [[{"s2": "1"}]],
        "s1": [[{"s2": "1"}]],
        "s2": [[{}]],
    },
}


def invoke(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path: Path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def kA(tmp_path):
    return write(tmp_path, "kA.json", K_A_DOC)


@pytest.fixture
def efA(tmp_path):
    return write(tmp_path, "efA.json", EF_A_DOC)


class TestValidate:
    def test_ok(self, kA):
        code, out, _ = invoke("validate", kA)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_mass_exceeds_one(self, tmp_path):
        doc = {
            "kind": "nlmp",
            "states": ["s0"],
            "labels": ["a"],
            "kernels": {"a": {"s0": [{"s0": "3/2"}]}},
        }
        path = write(tmp_path, "broken.json", doc)
        code, out, err = invoke("validate", path)
        assert code == 2
        assert out == ""
        diagnostic = json.loads(err)["error"]
        assert "mass exceeds 1" in diagnostic["message"]
        assert diagnostic["file"] == path
        assert diagnostic["location"] == "kernels.a.s0[0]"

    def test_bad_rational_format(self, tmp_path):
        doc = dict(K_A_DOC, kernels={"a": {"s0": [{"s2": "0.5"}]}})
        path = write(tmp_path, "float.json", doc)
        code, _, err = invoke("validate", path)
        assert code == 2
        assert "p/q" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "mass",
        ["0\n", "1/2\n", "\u0661", "1/\u0662", "\u00b2", "1/" + "1" * 5000],
        ids=[
            "zero-newline", "half-newline", "arabic-indic", "arabic-indic-den", "superscript",
            "5000-digits",
        ],
    )
    def test_rational_needs_ascii_digits_only(self, tmp_path, mass):
        doc = dict(K_A_DOC, kernels={"a": {"s0": [{"s2": mass}], "s1": [], "s2": []}})
        path = write(tmp_path, "digits.json", doc)
        code, out, err = invoke("validate", path)
        assert code == 2 and out == ""
        diagnostic = json.loads(err)["error"]
        assert diagnostic["file"] == path
        assert diagnostic["location"] == "kernels.a.s0[0].s2"
        assert "p/q" in diagnostic["message"]

    def test_unreduced_rationals_read_exactly(self, tmp_path):
        kernel = {"s0": [{"s1": "2/4", "s2": "003/12"}], "s1": [], "s2": []}
        doc = dict(K_A_DOC, kernels={"a": kernel})
        model = load_model(write(tmp_path, "unreduced.json", doc))
        (mu,) = model.nlmp.kernel("a")("s0")
        assert (mu.den, mu.num) == (4, (0, 2, 1))
        emitted = model_to_dict(model)["kernels"]["a"]["s0"]
        assert emitted == [{"s1": "1/2", "s2": "1/4"}]

    def test_missing_file(self, tmp_path):
        code, _, err = invoke("validate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_repeated_measures_load_as_one_subprob(self, tmp_path):
        half = {"s2": "1/2", "s0": "1/4"}
        kernels = {
            "a": {"s0": [half], "s1": [dict(half), {"s1": "1"}], "s2": []},
            "b": {"s0": [], "s1": [], "s2": [dict(half)]},
        }
        doc = dict(K_A_DOC, labels=["a", "b"], kernels=kernels)
        path = write(tmp_path, "k.json", doc)
        nlmp = load_model(path).nlmp
        (mu,) = nlmp.kernel("a")("s0").members
        assert [nu for nu in nlmp.kernel("a")("s1").members if nu == mu][0] is mu
        assert nlmp.kernel("b")("s2").members[0] is mu
        # no measure outlives its load
        assert load_model(path).nlmp.kernel("a")("s0").members[0] is not mu
        effectivity = {"s0": [[half], [half, {}]], "s1": [[{}, half]], "s2": [[{}]]}
        ef = load_model(write(tmp_path, "ef.json", dict(EF_A_DOC, effectivity=effectivity))).ef
        shared = [mu for s in ef.space.carrier for g in ef(s).generators for mu in g.members]
        assert len({id(mu) for mu in shared}) == 2

    @pytest.mark.parametrize(
        "measure, field, message",
        [
            ({"s2": "3/2"}, "", "total mass exceeds 1: 3/2"),
            ({"s2": "1/0"}, ".s2", "got '1/0'"),
            ({"s2": ["1"]}, ".s2", "got ['1']"),
            ({"zz": "1"}, "", "state 'zz' not in carrier"),
        ],
        ids=["mass", "rational", "unhashable", "state"],
    )
    def test_repeated_malformed_measure_reports_its_first_location(
        self, tmp_path, measure, field, message
    ):
        kernel = {"s0": [{"s1": "1"}], "s1": [{"s1": "1"}, measure], "s2": [measure]}
        path = write(tmp_path, "k.json", dict(K_A_DOC, kernels={"a": kernel}))
        code, _, err = invoke("validate", path)
        assert code == 2
        diagnostic = json.loads(err)["error"]
        assert diagnostic["location"] == "kernels.a.s1[1]" + field
        assert message in diagnostic["message"]

    @pytest.mark.parametrize(
        "measure, field, message",
        [
            ({"s0": "1/4", "s1": "1/4", "zz": "1", "s2": "x"}, ".s2", "got 'x'"),
            ({"s0": "1/4", "s1": "1/4", "zz": "1"}, "", "states 's0' and 's1' lie in one atom"),
            ({"zz": "1", "s0": "1/4", "s1": "1/4"}, "", "state 'zz' not in carrier"),
            ({"s0": "1/4", "s1": "1/2"}, "", "states 's0' and 's1' lie in one atom"),
            ({"s1": "3/4", "s2": "1/2"}, "", "total mass exceeds 1: 5/4"),
        ],
        ids=[
            "rationals-first", "atom-before-later-state", "state-before-later-atom", "atom",
            "mass-last",
        ],
    )
    def test_first_fault_of_a_measure_wins(self, tmp_path, measure, field, message):
        doc = {
            "kind": "ef",
            "states": ["s0", "s1", "s2"],
            "sigma": [["s0", "s1"], ["s2"]],
            "effectivity": {"s0": [[{}]], "s1": [[{}]], "s2": [[{"s2": "1"}, measure]]},
        }
        code, _, err = invoke("validate", write(tmp_path, "ef.json", doc))
        assert code == 2
        diagnostic = json.loads(err)["error"]
        assert diagnostic["location"] == "effectivity.s2[0][1]" + field
        assert message in diagnostic["message"]


class TestUnreadableFiles:
    """Every file that cannot be decoded as JSON ends with a located
    diagnostic and exit 2."""

    @pytest.mark.parametrize("role", ["model", "partition"])
    @pytest.mark.parametrize(
        "content, location, message",
        [
            (b'{"kind": "nlmp",\n "states": ["\xff"]}', "line 2", "invalid UTF-8"),
            (b"[" * 100_000, "$", "nested too deeply"),
            (b'{"kind": ' + b"1" * 5000 + b"}", "$", "integer too long"),
        ],
        ids=["invalid-utf8", "deep-nesting", "5000-digit-int"],
    )
    def test_decode_failure_is_located(self, tmp_path, kA, role, content, location, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = ["validate", str(bad)] if role == "model" else ["event-bisim", kA, "--partition", str(bad)]
        code, out, err = invoke(*argv)
        assert code == 2 and out == ""
        diagnostic = json.loads(err)["error"]
        assert (diagnostic["file"], diagnostic["location"]) == (str(bad), location)
        assert message in diagnostic["message"]

    def test_utf8_model_reads_under_the_c_locale(self, tmp_path):
        doc = dict(K_A_DOC, states=["s0", "s1", "\u00e9"])
        doc["kernels"] = {"a": {"s0": [{"\u00e9": "1"}], "s1": [], "\u00e9": []}}
        path = tmp_path / "accent.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "effkit.cli", "bisim", str(path)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["partition"] == [["s0"], ["s1", "\u00e9"]]


class TestBisim:
    def test_partition_and_exit_zero(self, kA):
        code, out, _ = invoke("bisim", kA)
        assert code == 0
        assert json.loads(out)["partition"] == [["s0", "s1"], ["s2"]]

    def test_pair_positive(self, kA):
        code, out, _ = invoke("bisim", kA, "--pairs", "s0,s1")
        assert code == 0
        assert json.loads(out)["query"]["bisimilar"] is True

    def test_pair_negative(self, kA):
        code, out, _ = invoke("bisim", kA, "--pairs", "s0,s2")
        assert code == 1
        assert json.loads(out)["query"]["bisimilar"] is False

    def test_ef_model(self, efA):
        code, out, _ = invoke("bisim", efA)
        assert code == 0
        assert json.loads(out)["partition"] == [["s0", "s1"], ["s2"]]


class TestPartitionCommands:
    def test_event_bisim(self, kA, tmp_path):
        part = write(tmp_path, "p.json", [["s0", "s1"], ["s2"]])
        code, out, _ = invoke("event-bisim", kA, "--partition", part)
        assert code == 0 and json.loads(out)["holds"] is True
        bad = write(tmp_path, "bad.json", [["s0", "s2"], ["s1"]])
        code, out, _ = invoke("event-bisim", kA, "--partition", bad)
        assert code == 1 and json.loads(out)["holds"] is False

    def test_subsystem(self, efA, tmp_path):
        part = write(tmp_path, "p.json", [["s0", "s1"], ["s2"]])
        code, out, _ = invoke("subsystem", efA, "--partition", part)
        assert code == 0 and json.loads(out)["holds"] is True

    def test_malformed_partition(self, kA, tmp_path):
        part = write(tmp_path, "p.json", [["s0"], ["s1"]])
        code, _, err = invoke("event-bisim", kA, "--partition", part)
        assert code == 2

    def test_partition_blocks_list_state_names(self, kA, tmp_path):
        part = write(tmp_path, "p.json", [[["s0"]], ["s1", "s2"]])
        code, _, err = invoke("event-bisim", kA, "--partition", part)
        assert code == 2
        assert json.loads(err)["error"] == {
            "file": part,
            "location": "$",
            "message": "partition file must hold a list of blocks of state names",
        }


class TestEvalDistinguish:
    def test_eval_state_negative(self, efA):
        code, out, _ = invoke("eval", efA, "--formula", "<>[T > 1/2]", "--state", "s2")
        assert code == 1
        payload = json.loads(out)
        assert payload["query"]["satisfied"] is False
        assert payload["states"] == ["s0", "s1"]

    def test_eval_extension_only(self, efA):
        code, out, _ = invoke("eval", efA, "--formula", "<>[T > 1/2]")
        assert code == 0
        assert json.loads(out)["states"] == ["s0", "s1"]

    def test_eval_on_nlmp_via_label(self, kA):
        code, out, _ = invoke("eval", kA, "--formula", "<>[T > 1/2]", "--state", "s0")
        assert code == 0

    def test_eval_syntax_error(self, efA):
        code, _, err = invoke("eval", efA, "--formula", "<>[T >")
        assert code == 2

    @pytest.mark.parametrize(
        "formula", ["<>[" * 400 + "T" + " > 0]" * 400, "(" * 3000], ids=["modal", "parens"]
    )
    def test_eval_too_deep_is_a_syntax_error(self, efA, formula):
        code, out, err = invoke("eval", efA, "--formula", formula, "--state", "s0")
        assert code == 2 and out == ""
        assert "nested deeper" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "formula",
        ["<>[T > \u00b2]", "<>[T > \u0661/\u0662]", "<>[T > 1/0]", "<>[T > 1/" + "1" * 5000 + "]"],
        ids=["superscript", "arabic-indic", "zero-denominator", "5000-digits"],
    )
    def test_eval_rational_is_ascii_and_readable(self, efA, formula):
        code, out, err = invoke("eval", efA, "--formula", formula)
        assert code == 2 and out == ""
        assert set(json.loads(err)["error"]) == {"file", "location", "message"}
        assert "(at position 7)" in json.loads(err)["error"]["message"]

    def test_lequiv(self, efA):
        code, out, _ = invoke("lequiv", efA)
        assert code == 0
        assert json.loads(out)["partition"] == [["s0", "s1"], ["s2"]]

    def test_distinguish_splits(self, efA):
        code, out, _ = invoke("distinguish", efA, "s0", "s2")
        assert code == 1
        payload = json.loads(out)
        assert payload["equivalent"] is False
        assert payload["satisfied_by"] in ("s0", "s2")
        confirm_code, confirm_out, _ = invoke(
            "eval", efA, "--formula", payload["formula"], "--state", payload["satisfied_by"]
        )
        assert confirm_code == 0

    def test_distinguish_equivalent(self, efA):
        code, out, _ = invoke("distinguish", efA, "s0", "s1")
        assert code == 0
        assert json.loads(out)["equivalent"] is True


class TestMorphism:
    def test_nlmp_identity(self, kA, tmp_path):
        mapfile = write(
            tmp_path,
            "id.json",
            {"domain": "kA.json", "codomain": "kA.json", "map": {s: s for s in ["s0", "s1", "s2"]}},
        )
        code, out, _ = invoke("morphism", kA, kA, "--map", mapfile)
        assert code == 0 and json.loads(out)["holds"] is True

    def test_ef_strong_identity(self, efA, tmp_path):
        mapfile = write(
            tmp_path, "id.json", {"map": {s: s for s in ["s0", "s1", "s2"]}}
        )
        code, out, _ = invoke("morphism", efA, efA, "--map", mapfile, "--strong")
        assert code == 0 and json.loads(out)["holds"] is True

    def test_strong_not_surjective_reported(self, efA, tmp_path):
        mapfile = write(tmp_path, "const.json", {"map": {s: "s0" for s in ["s0", "s1", "s2"]}})
        code, out, _ = invoke("morphism", efA, efA, "--map", mapfile, "--strong")
        assert code == 1
        assert json.loads(out)["reason"] == "not_surjective"

    def test_non_morphism(self, kA, tmp_path):
        mapfile = write(
            tmp_path,
            "swap.json",
            {"map": {"s0": "s2", "s1": "s1", "s2": "s0"}},
        )
        code, out, _ = invoke("morphism", kA, kA, "--map", mapfile)
        assert code == 1 and json.loads(out)["holds"] is False


class TestEmittingCommands:
    def test_demonize_emits_ef(self, kA, efA):
        code, out, _ = invoke("demonize", kA)
        assert code == 0
        assert json.loads(out)["effectivity"] == EF_A_DOC["effectivity"]

    def test_quotient_by_greatest_bisim(self, efA, tmp_path):
        part = write(tmp_path, "p.json", [["s0", "s1"], ["s2"]])
        code, out, _ = invoke("quotient", efA, "--partition", part)
        assert code == 0
        doc = json.loads(out)
        assert doc["states"] == ["s0", "s2"]

    def test_quotient_not_a_congruence(self, efA, tmp_path):
        part = write(tmp_path, "p.json", [["s0", "s2"], ["s1"]])
        code, out, _ = invoke("quotient", efA, "--partition", part)
        assert code == 1
        payload = json.loads(out)
        assert payload["reason"] == "not_a_congruence"
        assert set(payload["witness"]) == {"s0", "s2"}

    def test_emitted_models_reparse_to_library_values(self, tmp_path, kA, efA):
        from effkit import Relation, angelize, dual_ef, filter_generate, quotient, sum_ef
        from effkit.model_io import load_model

        ef = load_model(efA).ef
        nlmp = load_model(kA).nlmp
        kernel = nlmp.kernel("a")
        part = write(tmp_path, "part.json", [["s0", "s1"], ["s2"]])
        alpha = Relation.from_partition(ef.space, [["s0", "s1"], ["s2"]])
        cases = [
            (("dual", efA), ef_model(dual_ef(ef))),
            (("demonize", kA), ef_model(filter_generate(kernel))),
            (("angelize", kA), ef_model(angelize(kernel))),
            (("sum", efA, efA), ef_model(sum_ef(ef, ef)[0])),
            (("quotient", efA, "--partition", part), ef_model(quotient(ef, alpha)[0])),
        ]
        for argv, expected in cases:
            code, out, _ = invoke(*argv)
            assert code == 0
            reparsed = model_from_dict(json.loads(out))
            assert (reparsed.nlmp or reparsed.ef) == (expected.nlmp or expected.ef)
            code2, out2, _ = invoke(*argv)
            assert out2 == out  # byte-identical determinism

    def test_random_dual_emissions_reparse_equal(self, tmp_path):
        rng = Random(227)
        for i in range(10):
            space = rand_space(rng, 2, 4)
            ef = rand_ef(rng, space)
            path = write(tmp_path, f"m{i}.json", model_to_dict(ef_model(ef)))
            code, out, _ = invoke("dual", path)
            assert code == 0
            from effkit import dual_ef

            assert model_from_dict(json.loads(out)).ef == dual_ef(ef)

    def test_sum_round_trip(self, kA, tmp_path):
        code, out, _ = invoke("sum", kA, kA)
        assert code == 0
        doc = json.loads(out)
        assert doc["states"][:3] == ["L:s0", "L:s1", "L:s2"]
        model = model_from_dict(doc)
        assert model.kind == "nlmp"

    def test_dual_twice_is_identity(self, efA, tmp_path):
        code, once, _ = invoke("dual", efA)
        again_path = write(tmp_path, "dual.json", json.loads(once))
        code, twice, _ = invoke("dual", again_path)
        original = model_from_dict(json.loads(dumps_canonical(EF_A_DOC)))
        assert model_from_dict(json.loads(twice)) == original


class TestSpanCommand:
    def test_canonical_span(self, efA, tmp_path):
        code, qdoc, _ = invoke(
            "quotient", efA, "--partition",
            write(tmp_path, "p.json", [["s0", "s1"], ["s2"]]),
        )
        assert code == 0
        mpath = write(tmp_path, "m.json", json.loads(qdoc))
        mapfile = write(
            tmp_path, "eta.json", {"map": {"s0": "s0", "s1": "s0", "s2": "s2"}}
        )
        code, out, _ = invoke("span", efA, efA, mpath, "--f", mapfile, "--g", mapfile)
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["squares"] == "commute"
        assert len(payload["w"]["states"]) == 5

    def test_invalid_cospan_reported(self, efA, tmp_path):
        mpath = write(tmp_path, "m.json", EF_A_DOC)
        mapfile = write(
            tmp_path, "bad.json", {"map": {"s0": "s0", "s1": "s0", "s2": "s2"}}
        )
        code, out, _ = invoke("span", efA, efA, mpath, "--f", mapfile, "--g", mapfile)
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False
        assert payload["failures"]


class TestFormatAndDeterminism:
    def test_text_format(self, kA):
        code, out, _ = invoke("--format", "text", "bisim", kA)
        assert code == 0
        assert out == 'partition: [["s0", "s1"], ["s2"]]\n'

    def test_json_outputs_end_with_newline(self, kA):
        _, out, _ = invoke("bisim", kA)
        assert out.endswith("\n")

    def test_module_entrypoint(self, kA):
        proc = subprocess.run(
            [sys.executable, "-m", "effkit.cli", "bisim", kA],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["partition"] == [["s0", "s1"], ["s2"]]


    def test_stdout_does_not_depend_on_hash_seed(self, tmp_path):
        third, half, one = {"s1": "1/3"}, {"s0": "1/2"}, {"s2": "1"}
        ef = write(tmp_path, "ef.json", {
            "kind": "ef",
            "states": ["s0", "s1", "s2", "s3"],
            "effectivity": {
                "s0": [[half, third, one], [{"s3": "1/4"}, third]],
                "s1": [[half, third], [{"s2": "1/5"}, {"s3": "1"}, one]],
                "s2": [[third, one, {"s3": "1/4"}], [half, {"s0": "1/5"}]],
                "s3": [[{}]],
            },
        })
        nlmp = write(tmp_path, "k.json", {
            "kind": "nlmp",
            "states": ["s0", "s1", "s2"],
            "labels": ["a"],
            "kernels": {"a": {
                "s0": [half, third, one, {"s0": "1/7", "s2": "2/7"}],
                "s1": [third, {"s2": "1/2"}, {}],
                "s2": [half, one],
            }},
        })
        commands = [["dual", ef], ["angelize", nlmp], ["distinguish", ef, "s0", "s1"]]
        for argv in commands:
            outputs = [
                subprocess.run(
                    [sys.executable, "-m", "effkit.cli", *argv],
                    capture_output=True,
                    env={**os.environ, "PYTHONHASHSEED": seed},
                )
                for seed in ("0", "1")
            ]
            assert outputs[0].returncode in (0, 1) and outputs[0].stdout, argv
            assert outputs[0].stdout == outputs[1].stdout, argv


class TestCanonicalEmitter:
    def test_matches_json_dumps_on_random_documents(self):
        rng = Random(8259)
        for _ in range(2000):
            doc = rand_json_doc(rng)
            assert dumps_canonical(doc) == dumps_oracle(doc)

    def test_unsupported_values_raise_type_error(self):
        for doc in ({"a": {1, 2}}, [Fraction(1, 2)], {1: "a"}):
            with pytest.raises(TypeError):
                dumps_canonical(doc)

    def test_leaves_no_garbage_cycle(self):
        doc = {"kernels": {"a": [{"s0": "1/2"}, []], "b": {}}, "n": 3, "ok": True, "x": None}
        gc.disable()
        try:
            gc.collect()
            dumps_canonical(doc)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestModelRoundTrips:
    def test_random_models_survive_emit_parse_emit(self):
        rng = Random(229)
        for _ in range(30):
            space = rand_space(rng, 2, 4, allow_coarse=True)
            if rng.random() < 0.5:
                labels = [f"l{j}" for j in range(rng.randint(1, 2))]
                model = nlmp_model(
                    Nlmp(space, {a: rand_kernel(rng, space) for a in labels})
                )
            else:
                model = ef_model(rand_ef(rng, space))
            first = dumps_canonical(model_to_dict(model))
            reparsed = model_from_dict(json.loads(first))
            assert reparsed.kind == model.kind
            assert (reparsed.nlmp or reparsed.ef) == (model.nlmp or model.ef)
            second = dumps_canonical(model_to_dict(reparsed))
            assert second == first
