"""CLI: file formats, subcommands, exit codes, determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
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
from helpers import rand_ef, rand_kernel, rand_space

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

    def test_missing_file(self, tmp_path):
        code, _, err = invoke("validate", str(tmp_path / "nope.json"))
        assert code == 2


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
