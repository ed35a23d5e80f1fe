"""CLI: file formats, subcommands, exit codes, determinism."""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effkit import effectivity, logic, nlmp
from effkit.cli import build_parser, run
from effkit.model_io import dumps_canonical, load_model, model_from_dict, model_to_dict
from helpers import (
    certified_partition,
    dense,
    dumps_oracle,
    formula_texts,
    model_doc_oracle,
    per_atom,
    rand_ef,
    rand_json_doc,
    rand_kernel,
    rand_partition_blocks,
    rand_space,
    rand_subprob,
    read_measure_oracle,
)

from effkit import (
    EffFn,
    Kernel,
    MeasureSet,
    ModelFormatError,
    Nlmp,
    Space,
    SubProb,
    UpperSet,
    dual_ef,
    model_io,
)


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


# a moves to b with mass 1, b to a with mass 1/2: below ``<>[T > 3/4]``,
# which holds at a only, each ``<>[. > 1/4]`` or ``[][. > 1/4]`` swaps the
# extension between {a} and {b}.
SWAP_DOC = {
    "kind": "ef",
    "states": ["a", "b"],
    "effectivity": {"a": [[{"b": "1"}]], "b": [[{"a": "1/2"}]]},
}


def planted_clones(rng: Random, k: int) -> EffFn:
    """A random portfolio on k classes of two clones each, ``c{i}a`` and
    ``c{i}b``: both clones move as their class, each measure's class mass
    split at random between the class's clones, so clones are bisimilar."""
    classes = Space.discrete([f"c{i}" for i in range(k)])
    base = rand_ef(rng, classes)
    space = Space.discrete([f"c{i}{x}" for i in range(k) for x in "ab"])

    def lift(nu: SubProb) -> SubProb:
        masses = {}
        for i, m in enumerate(dense(nu)):
            cut = m * Fraction(rng.randint(0, 2), 2)
            masses[f"c{i}a"], masses[f"c{i}b"] = cut, m - cut
        return SubProb.of(space, masses)

    return EffFn(
        space,
        {
            s: UpperSet(space, [MeasureSet(space, map(lift, g)) for g in base(s[:-1])])
            for s in space.carrier
        },
    )


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


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-inputs")


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    return write(tmp_path_factory.mktemp("fuzz"), "efA.json", EF_A_DOC)


class TestValidate:
    def test_ok(self, kA):
        code, out, _ = invoke("validate", kA)
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_duplicate_labels_are_refused(self, tmp_path):
        doc = dict(K_A_DOC, labels=["a", "a"])
        path = write(tmp_path, "twice.json", doc)
        expected = {"file": path, "location": "labels", "message": "duplicate label names"}
        for argv in (["validate", path], ["sum", path, path]):
            code, out, err = invoke(*argv)
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == expected

    def test_a_state_repeated_in_a_sigma_block_is_refused(self, tmp_path):
        doc = dict(EF_A_DOC, sigma=[["s0", "s1", "s0"], ["s2"]])
        path = write(tmp_path, "twice.json", doc)
        code, out, err = invoke("validate", path)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "file": path,
            "location": "sigma",
            "message": "state 's0' appears twice in one atom",
        }

    @pytest.mark.parametrize(
        "text, location, key",
        [
            (
                '{"kind": "ef", "states": ["s0"], "effectivity": {"s0": [[{"s0": "1/2", "s0": "1/3"}]]}}',
                "effectivity.s0[0][0]",
                "s0",
            ),
            (
                '{"kind": "ef", "states": ["s0"], "effectivity": {"s0": [[{}]], "s0": [[]]}}',
                "effectivity",
                "s0",
            ),
            (
                '{"kind": "nlmp", "states": ["s0"], "labels": ["a"],'
                ' "kernels": {"a": {"s0": [{}], "s0": []}}}',
                "kernels.a",
                "s0",
            ),
            (
                '{"kind": "nlmp", "states": ["s0"], "labels": ["a"],'
                ' "kernels": {"a": {"s0": [{}]}, "a": {"s0": []}}}',
                "kernels",
                "a",
            ),
            ('{"kind": "ef", "states": ["s0"], "effectivity": {"s0": []}, "kind": "nlmp"}', "$", "kind"),
        ],
        ids=["measure", "effectivity", "kernel", "kernels", "document"],
    )
    def test_a_repeated_key_is_refused(self, tmp_path, text, location, key):
        path = tmp_path / "twice.json"
        path.write_text(text)
        code, out, err = invoke("validate", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "file": str(path),
            "location": location,
            "message": f"duplicate key {key!r}",
        }

    def test_a_state_repeated_in_a_map_is_refused(self, efA, tmp_path):
        path = tmp_path / "twice.map.json"
        for text, location in (
            ('{"map": {"s0": "s0", "s1": "s1", "s2": "s2", "s0": "s1"}}', "map"),
            ('{"map": {"s0": "s0", "s1": "s1", "s2": "s2"}, "map": {}}', "$"),
        ):
            path.write_text(text)
            code, out, err = invoke("morphism", efA, efA, "--map", str(path))
            assert (code, out) == (2, "")
            key = "s0" if location == "map" else "map"
            assert json.loads(err)["error"] == {
                "file": str(path),
                "location": location,
                "message": f"duplicate key {key!r}",
            }

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

    @pytest.mark.parametrize(
        "doc, location",
        [
            (dict(K_A_DOC, kernels={"a": {"s0": [], "s": [{"s2": "2/1"}]}}), "kernels.a.s"),
            (dict(EF_A_DOC, effectivity={"s0": [], "s01": "bad"}), "effectivity.s01"),
        ],
        ids=["kernel", "effectivity"],
    )
    def test_unknown_state_is_located_before_its_entry(self, tmp_path, doc, location):
        path = write(tmp_path, "unknown.json", doc)
        code, out, err = invoke("validate", path)
        assert code == 2 and out == ""
        diagnostic = json.loads(err)["error"]
        assert diagnostic == {
            "file": path,
            "location": location,
            "message": f"unknown state {location.rsplit('.', 1)[1]!r}",
        }

    def test_a_portfolio_missing_a_state_is_located_at_effectivity(self, tmp_path):
        doc = {"kind": "ef", "states": ["a", "b"], "effectivity": {"a": [[{"b": "1"}]]}}
        path = write(tmp_path, "missing.json", doc)
        code, out, err = invoke("validate", path)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "file": path,
            "location": "effectivity",
            "message": "portfolio missing states ['b']",
        }

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {
                    "kind": "nlmp",
                    "states": ["a", "b", "c"],
                    "sigma": [["a", "b"], ["c"]],
                    "labels": ["x", "y"],
                    "kernels": {
                        "x": {"a": [{"c": "1"}], "b": [{"c": "1"}], "c": []},
                        "y": {"a": [{"c": "1"}], "b": [], "c": []},
                    },
                },
                "states 'a' and 'b' of atom ['a', 'b'] have different measures under label 'y'",
            ),
            (
                {
                    "kind": "ef",
                    "states": ["s0", "s1", "s2"],
                    "sigma": [["s0"], ["s2", "s1"]],
                    "effectivity": {"s0": [], "s1": [[{}]], "s2": [[{"s0": "1"}]]},
                },
                "states 's1' and 's2' of atom ['s1', 's2'] have different portfolios",
            ),
        ],
        ids=["nlmp", "ef"],
    )
    def test_an_atom_with_split_dynamics_is_refused_at_sigma(self, tmp_path, doc, message):
        """A model is measurable for its sigma only if the states of each
        atom have equal dynamics (docs/derivations.md, sections 3 and 4)."""
        path = write(tmp_path, "split.json", doc)
        for argv in (["validate", path], ["bisim", path]):
            code, out, err = invoke(*argv)
            assert (code, out) == (2, "")
            diagnostic = json.loads(err)["error"]
            assert (diagnostic["file"], diagnostic["location"]) == (path, "sigma")
            assert diagnostic["message"] == (
                message + "; a model must be constant on each atom of its sigma"
            )
        same = json.loads(json.dumps(doc))
        if doc["kind"] == "nlmp":
            same["kernels"]["y"]["b"] = [{"c": "1"}]
        else:
            same["effectivity"]["s2"] = [[{}]]
        code, out, _ = invoke("validate", write(tmp_path, "same.json", same))
        assert (code, json.loads(out)["valid"]) == (0, True)

    @pytest.mark.parametrize(
        "labels, location",
        [(["x", "y"], "sigma"), (["y", "x"], "kernels.y.a[0].c")],
        ids=["split-label-first", "bad-rational-first"],
    )
    def test_each_label_is_checked_as_it_is_read(self, tmp_path, labels, location):
        """Labels are read in the order the file lists them, and each
        label's kernel is refused as soon as it is built: the first fault
        in that order is reported, a split atom or a malformed rational."""
        doc = {
            "kind": "nlmp",
            "states": ["a", "b", "c"],
            "sigma": [["a", "b"], ["c"]],
            "labels": labels,
            "kernels": {
                "x": {"a": [{"c": "1"}], "b": [], "c": []},
                "y": {"a": [{"c": "0.5"}], "b": [], "c": []},
            },
        }
        code, _, err = invoke("validate", write(tmp_path, "two-faults.json", doc))
        assert (code, json.loads(err)["error"]["location"]) == (2, location)

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
        (mu,) = model.kernel("a")("s0")
        assert (mu.den, mu.atoms, mu.nums) == (4, (1, 2), (2, 1))
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
        nlmp = load_model(path)
        (mu,) = nlmp.kernel("a")("s0").members
        assert [nu for nu in nlmp.kernel("a")("s1").members if nu == mu][0] is mu
        assert nlmp.kernel("b")("s2").members[0] is mu
        # a second load finds the live measure, and no load keeps one alive
        assert load_model(path).kernel("a")("s0").members[0] is mu
        gone = weakref.ref(mu)
        del nlmp, mu
        gc.collect()
        assert gone() is None
        effectivity = {"s0": [[half], [half, {}]], "s1": [[{}, half]], "s2": [[{}]]}
        ef = load_model(write(tmp_path, "ef.json", dict(EF_A_DOC, effectivity=effectivity)))
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


class TestNumbersTooLongToPrint:
    """A rational with a part of more digits than ``int`` converts to text
    ends with exit 2 and a diagnostic naming what could not be printed, at
    every place a rational is printed: a message, an emitted model and a
    formula."""

    NINES, SEVENS = "9" * 4000, "7" * 3999 + "1"

    def test_a_total_mass_over_one_in_a_message(self, tmp_path):
        measure = {"s0": self.NINES, "s1": "1/" + "7" * 400}
        doc = {
            "kind": "nlmp",
            "states": ["s0", "s1"],
            "labels": ["a"],
            "kernels": {"a": {"s0": [measure], "s1": []}},
        }
        path = write(tmp_path, "heavy.json", doc)
        code, out, err = invoke("validate", path)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {
            "file": path,
            "location": "kernels.a.s0[0]",
            "message": "the total mass, which exceeds 1, is too long to print: "
            f"its numerator or denominator has more than {sys.get_int_max_str_digits()} digits",
        }

    def test_a_mass_of_an_emitted_quotient(self, tmp_path):
        measure = {"s0": "1/" + self.NINES, "s1": "1/" + self.SEVENS}
        doc = {
            "kind": "ef",
            "states": ["s0", "s1", "s2"],
            "effectivity": {"s0": [[measure]], "s1": [[measure]], "s2": []},
        }
        partition = write(tmp_path, "blocks.json", [["s0", "s1"], ["s2"]])
        code, out, err = invoke("quotient", write(tmp_path, "ef.json", doc), "--partition", partition)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"].startswith("a mass is too long to print: ")

    def test_a_mass_too_long_to_print_after_long_output(self, tmp_path):
        """The quotient's last measure in the output cannot be printed, and
        more than 128 Ki characters of output, written in many pieces, come
        before it: the writer renders every measure before its first write,
        so stdout stays empty."""
        ahead = 1 << 17
        fillers = [f"a{i:03}" for i in range(ahead // 2000 + 1)]
        portfolio = {f: [[{f: f"1/{j}"}] for j in range(1, 41)] for f in fillers}
        heavy = {"s0": "1/" + self.NINES, "s1": "1/" + self.SEVENS}
        blocks = write(tmp_path, "blocks.json", [["s0", "s1"], ["s2"]] + [[f] for f in fillers])
        for measure, answer in ((heavy, 2), ({"s0": "1/4", "s1": "1/4"}, 0)):
            doc = {
                "kind": "ef",
                "states": ["s0", "s1", "s2"] + fillers,
                "effectivity": dict(portfolio, s0=[[measure]], s1=[[measure]], s2=[]),
            }
            model = write(tmp_path, "ef.json", doc)
            writes, err = [], io.StringIO()
            sink = io.StringIO()
            sink.write = writes.append
            assert run(["quotient", model, "--partition", blocks], sink, err) == answer
            if answer == 2:
                assert writes == []
                assert json.loads(err.getvalue())["error"]["message"].startswith(
                    "a mass is too long to print: "
                )
            else:
                text = "".join(writes)
                assert err.getvalue() == "" and len(writes) > 2
                assert text.index('"s0": "1/2"') > ahead

    def test_a_threshold_of_a_distinguishing_formula(self, tmp_path):
        doc = {
            "kind": "ef",
            "states": ["s0", "s1"],
            "effectivity": {
                "s0": [[{"s0": "1/" + self.NINES}]],
                "s1": [[{"s0": "1/" + self.SEVENS}]],
            },
        }
        code, out, err = invoke("distinguish", write(tmp_path, "ef.json", doc), "s0", "s1")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"].startswith("a threshold is too long to print: ")


class TestUsageErrors:
    """A command line the parser refuses ends with exit 2 and a diagnostic
    on the given error stream, located at argv; nothing reaches the
    process's own streams."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bisim"], "the following arguments are required: model"),
            ([], "the following arguments are required: command"),
            (["bisim", "m.json", "--pairs"], "argument --pairs: expected one argument"),
            (["validate", "m.json", "--bogus"], "unrecognized arguments: --bogus"),
            (["nosuch", "m.json"], "argument command: invalid choice: 'nosuch' (choose from"),
            (["--format", "xml", "validate", "m.json"], "argument --format: invalid choice: 'xml'"),
        ],
        ids=["missing-argument", "no-subcommand", "missing-value", "unknown-argument",
             "unknown-subcommand", "unknown-format"],
    )
    def test_refused_argv_is_a_diagnostic(self, capsys, argv, message):
        code, out, err = invoke(*argv)
        assert code == 2 and out == ""
        diagnostic = json.loads(err)["error"]
        assert set(diagnostic) == {"file", "location", "message"}
        assert (diagnostic["file"], diagnostic["location"]) == (None, "argv")
        assert diagnostic["message"].startswith(message)
        assert capsys.readouterr() == ("", "")

    def test_help_still_prints_usage_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke("--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: effkit")


# Per subcommand, in the order ``effkit --help`` lists them: its positionals
# and, per option, whether it is required, optional or a flag.
SURFACE = {
    "validate": (["model"], {}),
    "bisim": (["model"], {"--pairs": "optional"}),
    "event-bisim": (["model"], {"--partition": "required"}),
    "subsystem": (["model"], {"--partition": "required", "--label": "optional"}),
    "eval": (["model"], {"--formula": "required", "--state": "optional", "--label": "optional"}),
    "lequiv": (["model"], {"--label": "optional"}),
    "distinguish": (["model", "s", "t"], {"--label": "optional"}),
    "morphism": (["a", "b"], {"--map": "required", "--strong": "flag"}),
    "dual": (["model"], {"--label": "optional"}),
    "demonize": (["model"], {"--label": "optional"}),
    "angelize": (["model"], {"--label": "optional"}),
    "sum": (["a", "b"], {}),
    "quotient": (["model"], {"--partition": "required", "--label": "optional"}),
    "span": (["p", "q", "m"], {"--f": "required", "--g": "required"}),
}


class TestSurface:
    """The command line's arguments, pinned in ``SURFACE``: the parser
    declares exactly these, and README's ``effkit ...`` lines show them."""

    @staticmethod
    def declared(parser: argparse.ArgumentParser):
        positionals, options = [], {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if not action.option_strings:
                positionals.append(action.dest)
            elif action.nargs == 0:
                options[action.option_strings[0]] = "flag"
            else:
                options[action.option_strings[0]] = "required" if action.required else "optional"
        return positionals, options

    def test_the_parser_declares_the_surface(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        positionals, options = self.declared(parser)
        assert positionals == ["command"] and options == {"--format": "optional"}
        assert [a for a in parser._actions if a.dest == "format"][0].choices == ("json", "text")
        assert list(commands.choices) == list(SURFACE)
        for name, sub in commands.choices.items():
            positionals, options = self.declared(sub)
            assert (positionals, options) == SURFACE[name], name
            assert list(options) == list(SURFACE[name][1]), name

    def test_the_readme_shows_the_surface(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        shown = {}
        for line in readme.splitlines():
            if not line.startswith("effkit "):
                continue
            _, name, *words = shlex.split(line)
            positionals, options = [], {}
            words.reverse()
            while words:
                word = words.pop()
                option = word.lstrip("[").rstrip("]")
                if not option.startswith("--"):
                    positionals.append(word)
                elif SURFACE.get(name, ([], {}))[1].get(option) == "flag":
                    options[option] = "flag"
                else:
                    words.pop()
                    options[option] = "optional" if word.startswith("[") else "required"
            shown[name] = (len(positionals), options)
        expected = {name: (len(pos), options) for name, (pos, options) in SURFACE.items()}
        assert shown == expected


class TestArgumentsAreCheckedFirst:
    """Every argument is read and checked before the library computes: with
    the computation replaced by a failure, a bad argument is still refused
    with its diagnostic."""

    @pytest.fixture(autouse=True)
    def no_computation(self, monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("the library ran before the arguments were checked")

        for module, name in (
            (nlmp, "greatest_bisim"),
            (effectivity, "greatest_ef_bisim"),
            (logic, "eval_state"),
            (logic, "distinguish"),
        ):
            monkeypatch.setattr(module, name, computed)

    @pytest.mark.parametrize(
        "argv, location, message",
        [
            (["bisim", "--pairs", "nosuch"], "--pairs", "--pairs wants 's,t'"),
            (["bisim", "--pairs", "s0,s1,s2"], "--pairs", "--pairs wants 's,t'"),
            (["bisim", "--pairs", "s0,zz"], "--pairs", "state 'zz' not in carrier"),
            (["bisim", "--pairs", "zz,s0"], "--pairs", "state 'zz' not in carrier"),
            (["eval", "--formula", "T", "--state", "zz"], "--state", "state 'zz' not in carrier"),
            (
                ["eval", "--formula", "<>[T >"],
                "--formula",
                "expected a rational, found end of input (at position 6)",
            ),
            (["eval", "--formula", "<>[T > 1]"], "--formula", "threshold 1 outside [0, 1)"),
            (["distinguish", "zz", "s0"], "s", "state 'zz' not in carrier"),
            (["distinguish", "s0", "zz"], "t", "state 'zz' not in carrier"),
        ],
        ids=[
            "pairs-malformed",
            "pairs-three",
            "pairs-unknown-t",
            "pairs-unknown-s",
            "eval-state",
            "eval-syntax",
            "eval-threshold",
            "distinguish-s",
            "distinguish-t",
        ],
    )
    @pytest.mark.parametrize("model", ["kA", "efA"])
    def test_bad_argument_is_refused_before_computing(self, request, model, argv, location, message):
        path = request.getfixturevalue(model)
        code, out, err = invoke(argv[0], path, *argv[1:])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"file": None, "location": location, "message": message}

    def test_a_bad_formula_is_still_reported_before_a_bad_state(self, efA):
        code, _, err = invoke("eval", efA, "--formula", "<>[T >", "--state", "zz")
        assert code == 2
        message = "expected a rational, found end of input (at position 6)"
        assert json.loads(err)["error"] == {"file": None, "location": "--formula", "message": message}


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

    @staticmethod
    def named(tmp_path, states) -> str:
        """An NLMP whose states each put 1/2 on themselves: all bisimilar."""
        kernel = {s: [{s: "1/2"}] for s in states}
        doc = {"kind": "nlmp", "states": states, "labels": ["a"], "kernels": {"a": kernel}}
        return write(tmp_path, "named.json", doc)

    def test_pair_splits_at_the_comma_that_leaves_two_states(self, tmp_path):
        model = self.named(tmp_path, ["a", "b,c"])
        code, out, err = invoke("bisim", model, "--pairs", "a,b,c")
        assert (code, err) == (0, "")
        assert json.loads(out)["query"] == {"s": "a", "t": "b,c", "bisimilar": True}
        code, out, _ = invoke("bisim", model, "--pairs", "b,c,a")
        assert json.loads(out)["query"] == {"s": "b,c", "t": "a", "bisimilar": True}

    @pytest.mark.parametrize(
        "pair, message",
        [
            ("a,b,d", "--pairs wants 's,t'"),
            ("a,b", "state 'b' not in carrier"),
            ("," * 10**5, "--pairs wants 's,t'"),
        ],
        ids=["three-parts", "unknown-state", "many-commas"],
    )
    def test_pair_that_no_comma_splits_into_two_states_is_refused(self, tmp_path, pair, message):
        model = self.named(tmp_path, ["a", "b,c"])
        code, out, err = invoke("bisim", model, "--pairs", pair)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"file": None, "location": "--pairs", "message": message}

    def test_pair_that_two_commas_split_into_two_states_is_ambiguous(self, tmp_path):
        model = self.named(tmp_path, ["a", "a,b", "b,c", "c"])
        code, out, err = invoke("bisim", model, "--pairs", "a,b,c")
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["file"], error["location"]) == (None, "--pairs")
        assert "ambiguous" in error["message"]


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

    def test_a_state_repeated_in_a_partition_block_is_refused(self, kA, efA, tmp_path):
        part = write(tmp_path, "p.json", [["s0", "s1", "s1"], ["s2"]])
        for command, model in (("event-bisim", kA), ("subsystem", efA)):
            code, out, err = invoke(command, model, "--partition", part)
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == {
                "file": part,
                "location": "$",
                "message": "state 's1' appears twice in one atom",
            }

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
        "doc, formula, state, code, states",
        [
            (EF_A_DOC, "<>[" * 3000 + "T" + " > 0]" * 3000, "s0", 1, []),
            (EF_A_DOC, " & ".join(["T"] * 20_000), "s2", 0, ["s0", "s1", "s2"]),
            (SWAP_DOC, "<>[" * 3000 + "<>[T > 3/4]" + " > 1/4]" * 3000, "a", 0, ["a"]),
            (SWAP_DOC, "[][" * 3001 + "<>[T > 3/4]" + " > 1/4]" * 3001, "a", 1, ["b"]),
        ],
        ids=["modal", "conjunction", "swap-even", "swap-odd"],
    )
    def test_eval_at_any_depth(self, tmp_path, doc, formula, state, code, states):
        model = write(tmp_path, "model.json", doc)
        got, out, err = invoke("eval", model, "--formula", formula, "--state", state)
        assert (got, err) == (code, "")
        assert json.loads(out)["states"] == states

    def test_eval_of_deep_unclosed_parentheses_is_located(self, efA):
        code, out, err = invoke("eval", efA, "--formula", "(" * 3000, "--state", "s0")
        assert code == 2 and out == ""
        message = "expected a state formula, found end of input (at position 3000)"
        assert json.loads(err)["error"]["message"] == message

    @given(formula_texts())
    @settings(max_examples=150)
    def test_eval_answers_or_refuses_any_text(self, fuzz_model, text):
        code, out, err = invoke("eval", fuzz_model, "--formula", text)
        if code == 2:
            assert out == "" and set(json.loads(err)["error"]) == {"file", "location", "message"}
        else:
            assert code in (0, 1) and err == ""
            assert set(json.loads(out)["states"]) <= set(EF_A_DOC["states"])

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

    def test_lequiv_builds_no_formula(self, tmp_path, kA, monkeypatch):
        """``lequiv`` answers with the engine's partition: it still does when
        the formula refiner and the evaluator refuse to be built."""
        p = planted_clones(Random(5), 4)
        model = write(tmp_path, "clones.json", model_to_dict(p))
        expected = [list(c) for c in effectivity.greatest_ef_bisim(p).classes()]
        assert set(map(frozenset, expected)) == certified_partition(p) and len(expected) > 1
        # efA holds the principal filters of kA's measures
        on_kA = certified_partition(load_model(write(tmp_path, "efA.json", EF_A_DOC)))

        def refuse(*args):
            raise AssertionError("lequiv built a formula refiner or an evaluator")

        monkeypatch.setattr(logic, "_Refiner", refuse)
        monkeypatch.setattr(logic, "_Evaluator", refuse)
        assert [list(c) for c in logic.logical_equivalence(p).classes()] == expected
        code, out, err = invoke("lequiv", model)
        assert (code, json.loads(out)["partition"], err) == (0, expected, "")
        code, out, err = invoke("lequiv", kA, "--label", "a")
        assert (code, err) == (0, "")
        assert set(map(frozenset, json.loads(out)["partition"])) == on_kA

    def test_distinguish_builds_no_formula_for_clones_together_at_the_fixed_point(
        self, tmp_path, kA, monkeypatch
    ):
        """A pair still together when the engine reaches its fixed point at
        round 2 is equivalent with no formula built: round 1's formulas wait
        for a round that splits a block, and none comes."""
        p = planted_clones(Random(5), 4)
        model = write(tmp_path, "clones.json", model_to_dict(p))
        on_kA = nlmp.filter_generate(load_model(kA).kernel("a"))
        for system in (p, on_kA):
            space = system.space
            assert len(list(effectivity._refine(space, (system,), [0] * len(space.atoms)))) == 2

        def refuse(*args):
            raise AssertionError("distinguish built a formula for an equivalent pair")

        monkeypatch.setattr(logic._Refiner, "_round", refuse)
        monkeypatch.setattr(logic._Refiner, "_confirmed", refuse)
        equivalent = (0, '{\n  "equivalent": true\n}\n', "")
        for i in range(4):
            assert logic.distinguish(p, f"c{i}a", f"c{i}b").equivalent
            assert invoke("distinguish", model, f"c{i}a", f"c{i}b") == equivalent
        assert logic.distinguish(on_kA, "s0", "s1").equivalent
        assert invoke("distinguish", kA, "s0", "s1", "--label", "a") == equivalent

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

    def test_distinguish_on_a_deep_chain_prints_its_witness(self, tmp_path):
        """On the n-state 1/2-chain the witness nests n modalities, too deep
        for a printer, parser or evaluator that recurses per level; ``eval``
        reads it back and confirms it."""
        for n in (120, 400):
            states = [f"q{i}" for i in range(n)]
            doc = {
                "kind": "ef",
                "states": states,
                "effectivity": {
                    s: [[{states[i + 1]: "1/2"} if i + 1 < n else {}]] for i, s in enumerate(states)
                },
            }
            chain = write(tmp_path, f"chain{n}.json", doc)
            code, out, err = invoke("distinguish", chain, "q0", "q1")
            assert (code, err) == (1, "")
            payload = json.loads(out)
            assert payload["equivalent"] is False and payload["satisfied_by"] in ("q0", "q1")
            witness = payload["formula"]
            assert witness.count("[]") + witness.count("<>") >= n - 1
            for state in ("q0", "q1"):
                code, _, err = invoke("eval", chain, "--formula", witness, "--state", state)
                assert (code, err) == ((0 if state == payload["satisfied_by"] else 1), "")

    def test_distinguish_witnesses_on_planted_portfolios_read_back(self, tmp_path):
        """Clones of one planted class are equivalent; for every other pair
        the printed witness, fed to ``eval``, holds at the state named and
        fails at the other."""
        rng = Random(2027)
        split = 0
        for i in range(20):
            p = planted_clones(rng, rng.randint(2, 4))
            model = write(tmp_path, f"p{i}.json", model_to_dict(p))
            pairs = list(itertools.combinations(p.space.carrier, 2))
            for s, t in rng.sample(pairs, 4):
                code, out, err = invoke("distinguish", model, s, t)
                assert err == ""
                if s[:-1] == t[:-1]:
                    assert code == 0
                if code == 0:
                    continue
                witness, satisfier = json.loads(out)["formula"], json.loads(out)["satisfied_by"]
                for state in (s, t):
                    code, _, err = invoke("eval", model, "--formula", witness, "--state", state)
                    assert (code, err) == ((0 if state == satisfier else 1), "")
                split += 1
        assert split >= 40, split

    def test_distinguish_equivalent(self, efA):
        code, out, _ = invoke("distinguish", efA, "s0", "s1")
        assert code == 0
        assert json.loads(out)["equivalent"] is True


    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--formula", "T"],
            ["lequiv"],
            ["distinguish", "s0", "s2"],
            ["dual"],
            ["subsystem", "--partition"],
            ["quotient", "--partition"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_label_on_an_ef_model_is_refused(self, efA, tmp_path, argv):
        if argv[-1] == "--partition":
            argv = [*argv, write(tmp_path, "p.json", [["s0", "s1"], ["s2"]])]
        code, out, err = invoke(argv[0], efA, *argv[1:], "--label", "zzz")
        assert (code, out) == (2, "")
        diagnostic = json.loads(err)["error"]
        assert diagnostic == {
            "file": efA,
            "location": "--label",
            "message": "--label applies to 'nlmp' models",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["lequiv"],
            ["dual"],
            ["demonize"],
            ["angelize"],
            ["distinguish", "x", "y"],
            ["eval", "--formula", "T"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_label_free_nlmp_is_said_to_have_no_labels(self, tmp_path, argv):
        doc = {"kind": "nlmp", "states": ["x", "y"], "labels": [], "kernels": {}}
        model = write(tmp_path, "m.json", doc)
        code, out, err = invoke(argv[0], model, *argv[1:])
        assert code == 2 and out == ""
        diagnostic = json.loads(err)["error"]
        assert diagnostic == {"file": model, "location": "labels", "message": "model has no labels"}


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

    def test_labels_compare_as_sets(self, tmp_path):
        kernels = {"x": {"s0": [{"s1": "1"}]}, "y": {"s1": [{"s0": "1/2"}]}}
        doc = {"kind": "nlmp", "states": ["s0", "s1"], "kernels": kernels}
        a = write(tmp_path, "xy.json", {**doc, "labels": ["x", "y"]})
        b = write(tmp_path, "yx.json", {**doc, "labels": ["y", "x"]})
        mapfile = write(tmp_path, "id.json", {"map": {"s0": "s0", "s1": "s1"}})
        code, out, _ = invoke("morphism", a, b, "--map", mapfile)
        assert code == 0 and json.loads(out)["holds"] is True
        for first, second, labels in ((a, b, ["x", "y"]), (b, a, ["y", "x"])):
            code, out, _ = invoke("sum", first, second)
            assert code == 0 and json.loads(out)["labels"] == labels
        renamed = {"x": kernels["x"], "z": kernels["y"]}
        other = write(tmp_path, "xz.json", {**doc, "labels": ["x", "z"], "kernels": renamed})
        for argv in (["morphism", a, other, "--map", mapfile], ["sum", a, other]):
            code, _, err = invoke(*argv)
            assert code == 2 and json.loads(err)["error"]["message"] == "label sets differ"

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

        ef = load_model(efA)
        nlmp = load_model(kA)
        kernel = nlmp.kernel("a")
        part = write(tmp_path, "part.json", [["s0", "s1"], ["s2"]])
        alpha = Relation.from_partition(ef.space, [["s0", "s1"], ["s2"]])
        cases = [
            (("dual", efA), dual_ef(ef)),
            (("demonize", kA), filter_generate(kernel)),
            (("angelize", kA), angelize(kernel)),
            (("sum", efA, efA), sum_ef(ef, ef)[0]),
            (("quotient", efA, "--partition", part), quotient(ef, alpha)[0]),
        ]
        for argv, expected in cases:
            code, out, _ = invoke(*argv)
            assert code == 0
            reparsed = model_from_dict(json.loads(out))
            assert reparsed == expected
            code2, out2, _ = invoke(*argv)
            assert out2 == out  # byte-identical determinism

    def test_random_dual_emissions_reparse_equal(self, tmp_path):
        rng = Random(227)
        for i in range(10):
            space = rand_space(rng, 2, 4)
            ef = rand_ef(rng, space)
            path = write(tmp_path, f"m{i}.json", model_to_dict(ef))
            code, out, _ = invoke("dual", path)
            assert code == 0
            from effkit import dual_ef

            assert model_from_dict(json.loads(out)) == dual_ef(ef)

    def test_sum_round_trip(self, kA, tmp_path):
        code, out, _ = invoke("sum", kA, kA)
        assert code == 0
        doc = json.loads(out)
        assert doc["states"][:3] == ["L:s0", "L:s1", "L:s2"]
        model = model_from_dict(doc)
        assert type(model) is Nlmp

    def test_sum_of_label_free_nlmps(self, tmp_path):
        bare = {"kind": "nlmp", "labels": [], "kernels": {}}
        a = write(tmp_path, "a.json", {**bare, "states": ["x", "y"]})
        b = write(tmp_path, "b.json", {**bare, "states": ["y"]})
        code, out, err = invoke("sum", a, b)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["labels"] == [] and doc["kernels"] == {}
        assert doc["states"] == ["L:x", "L:y", "R:y"]

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

    def test_pair_names_stay_distinct(self, tmp_path):
        def halves(states):
            return {"kind": "ef", "states": states,
                    "effectivity": {s: [[{states[0]: "1/2"}]] for s in states}}

        p = write(tmp_path, "p.json", halves(["x", "x|y"]))
        q = write(tmp_path, "q.json", halves(["y|z", "z"]))
        m = write(tmp_path, "m.json", halves(["u"]))
        f = write(tmp_path, "f.json", {"map": {"x": "u", "x|y": "u"}})
        g = write(tmp_path, "g.json", {"map": {"y|z": "u", "z": "u"}})
        code, out, err = invoke("span", p, q, m, "--f", f, "--g", g)
        assert code == 0, err
        names = json.loads(out)["w"]["states"]
        assert names == ["x|y\\|z", "x|z", "x\\|y|y\\|z", "x\\|y|z"]
        assert len(set(names)) == 4

    def test_each_named_file_is_read_once(self, efA, tmp_path, monkeypatch):
        """A file named twice is read once; a map named for both legs is read
        once when the legs share their endpoint spaces, and per leg when not."""
        from effkit import cli

        read = []

        def counted(load):
            def reading(path, *spaces):
                read.append(path)
                return load(path, *spaces)

            return reading

        part = write(tmp_path, "p.json", [["s0", "s1"], ["s2"]])
        mpath = write(tmp_path, "m.json", json.loads(invoke("quotient", efA, "--partition", part)[1]))
        eta = write(tmp_path, "eta.json", {"map": {"s0": "s0", "s1": "s0", "s2": "s2"}})
        twin = write(tmp_path, "twin.json", EF_A_DOC)  # another file, the same space
        other = write(tmp_path, "other.json", SWAP_DOC)
        argvs = (
            (efA, efA, mpath, eta, eta),
            (efA, twin, mpath, eta, eta),
            (efA, other, mpath, eta, eta),
        )
        expected = [invoke("span", p, q, m, "--f", f, "--g", g) for p, q, m, f, g in argvs]
        monkeypatch.setattr(cli, "load_model", counted(cli.load_model))
        monkeypatch.setattr(cli, "load_map", counted(cli.load_map))
        reads = (
            [efA, mpath, eta],
            [efA, twin, mpath, eta],
            [efA, other, mpath, eta, eta],
        )
        for (p, q, m, f, g), answer, files in zip(argvs, expected, reads):
            read.clear()
            assert invoke("span", p, q, m, "--f", f, "--g", g) == answer
            assert read == files
        assert [code for code, _, _ in expected] == [0, 0, 2]

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

    def test_text_format_prints_booleans_as_json(self, kA, efA, tmp_path):
        """A top-level boolean reads as in JSON; strings and integers print
        as they are."""
        text = ("--format", "text")
        validated = "atoms: 3\nkind: nlmp\nstates: 3\nvalid: true\n"
        assert invoke(*text, "validate", kA) == (0, validated, "")
        assert invoke(*text, "distinguish", efA, "s0", "s1") == (0, "equivalent: true\n", "")
        split = json.loads(invoke("distinguish", efA, "s0", "s2")[1])
        lines = f"formula: {split['formula']}\nsatisfied_by: {split['satisfied_by']}\n"
        assert invoke(*text, "distinguish", efA, "s0", "s2") == (1, "equivalent: false\n" + lines, "")
        for blocks, answer in (([["s0", "s1"], ["s2"]], (0, "holds: true\n", "")),
                               ([["s0", "s2"], ["s1"]], (1, "holds: false\n", ""))):
            part = write(tmp_path, "p.json", blocks)
            assert invoke(*text, "subsystem", efA, "--partition", part) == answer

    @pytest.mark.parametrize(
        "name, printed",
        [
            ("b\nvalid: true", '"b\\nvalid: true"'),
            ("b\rc", '"b\\rc"'),
            ("b\x85c", '"b\\u0085c"'),
            ("b", "b"),
            ("b c: d", "b c: d"),
            ("b\u2028valid: true", '"b\\u2028valid: true"'),
            ("\u00e9\u2029\"", '"\\u00e9\\u2029\\""'),
            ("\u00e9\"", "\u00e9\""),
        ],
    )
    def test_text_format_quotes_a_string_that_could_break_a_line(self, tmp_path, name, printed):
        """A top-level string holding a control character or a line or
        paragraph separator prints as JSON, so a state name cannot forge a
        line for any reader that splits lines as ``str.splitlines`` does;
        any other string prints as it is."""
        doc = {"kind": "ef", "states": ["a", name], "effectivity": {"a": [[{"a": "1"}]], name: []}}
        model = write(tmp_path, "named.json", doc)
        code, out, err = invoke("--format", "text", "distinguish", model, "a", name)
        lines = ["equivalent: false", "formula: [][T < 0]", f"satisfied_by: {printed}"]
        assert (code, out.split("\n"), err) == (1, lines + [""], "")
        assert out.splitlines() == lines

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


    def test_each_distinct_measure_is_emitted_once(self, monkeypatch):
        """The writer renders each distinct measure once: the dual of 5
        disjoint triples has 3**5 generators over 15 measures, and the
        streamed text is written in pieces, never as one string."""
        k = 5
        space = Space.discrete([f"x{i}" for i in range(3 * k)])
        triples = [
            MeasureSet(space, [SubProb.of(space, {f"x{3 * i + j}": "1/2"}) for j in range(3)])
            for i in range(k)
        ]
        ef = dual_ef(EffFn(space, {s: UpperSet(space, triples) for s in space.carrier}))
        expected = dumps_oracle(model_doc_oracle(ef))
        calls = []

        def counted(mu, *tables, _render=model_io._measure_text):
            calls.append(mu)
            return _render(mu, *tables)

        monkeypatch.setattr(model_io, "_measure_text", counted)
        assert dumps_canonical(ef) == expected
        assert len(ef(space.carrier[0])) == 3**k
        assert len(calls) == len(set(calls)) == 3 * k
        writes = []
        sink = io.StringIO()
        sink.write = writes.append
        assert dumps_canonical(ef, sink) is None
        assert "".join(writes) == expected and len(writes) > 1
        assert len(calls) == 6 * k

    def test_models_match_the_dict_builder(self):
        """The model writer against the nested-dict builder it replaced:
        coarse sigmas, empty images, the empty and the full family, measures
        shared across states and generators, several labels, and state and
        label names whose raw and quoted orders differ."""
        rng = Random(4627)
        seen: Counter = Counter()
        for _ in range(400):
            model = rand_named_model(rng)
            doc = model_doc_oracle(model)
            text = dumps_canonical(model)
            assert text == dumps_oracle(doc)
            sink = io.StringIO()
            assert dumps_canonical(model, sink) is None and sink.getvalue() == text
            assert model_to_dict(model) == doc
            space = model.space
            seen["coarse"] += len(space.atoms) < len(space.carrier)
            seen["reordered"] += sorted(space.carrier) != sorted(space.carrier, key=json.dumps)
            if isinstance(model, Nlmp):
                sets = [ms for _, k in model.kernels for ms in k.image]
                seen["labels"] += len(model.labels) > 1
                seen["empty image"] += any(not ms.members for ms in sets)
            else:
                sets = [g for u in model.portfolio for g in u]
                seen["empty family"] += any(u.is_empty for u in model.portfolio)
                seen["full family"] += any(u.is_full for u in model.portfolio)
            members = [mu for ms in sets for mu in ms.members]
            seen["shared"] += len(set(members)) < len(members)
        assert min(seen.values()) >= 30 and len(seen) == 7, seen


# State and label names whose raw order (``sort_keys``) and quoted order
# differ: a quote, a backslash, control characters and non-ASCII quote as
# escapes that start with a backslash.
_AWKWARD_NAMES = [
    '"', "#", "\\", "]", "\x01", " ", "\n", "a", "b\"c", "~", "\u00e9", "\u4e2d", "\U0001f600",
]


def rand_named_model(rng: Random) -> Nlmp | EffFn:
    """A random model over awkward names whose measures come from a small
    pool, so that states and generators share them."""
    states = rng.sample(_AWKWARD_NAMES, rng.randint(1, 6))
    coarse = len(states) > 1 and rng.random() < 0.4
    space = Space(states, rand_partition_blocks(rng, states)) if coarse else Space.discrete(states)
    pool = [rand_subprob(rng, space) for _ in range(rng.randint(1, 4))]

    def measures(least: int) -> MeasureSet:
        return MeasureSet(space, rng.sample(pool, rng.randint(least, len(pool))))

    if rng.random() < 0.5:
        labels = rng.sample(_AWKWARD_NAMES, rng.randint(0, 3))
        return Nlmp(space, {a: Kernel(space, per_atom(space, lambda: measures(0))) for a in labels})

    def family() -> UpperSet:
        roll = rng.random()
        if roll < 0.15:
            return UpperSet.empty(space)
        if roll < 0.3:
            return UpperSet.full(space)
        return UpperSet(space, [measures(1) for _ in range(rng.randint(1, 4))])

    return EffFn(space, per_atom(space, family))


class TestModelRoundTrips:
    def test_random_models_survive_emit_parse_emit(self):
        """A model, constant on its atoms as drawn, comes back equal and
        emits the same bytes."""
        rng = Random(229)
        for _ in range(30):
            space = rand_space(rng, 2, 4, allow_coarse=True)
            if rng.random() < 0.5:
                labels = [f"l{j}" for j in range(rng.randint(1, 2))]
                model = Nlmp(space, {a: rand_kernel(rng, space) for a in labels})
            else:
                model = rand_ef(rng, space)
            first = dumps_canonical(model_to_dict(model))
            reparsed = model_from_dict(json.loads(first))
            assert type(reparsed) is type(model)
            assert reparsed == model
            second = dumps_canonical(model_to_dict(reparsed))
            assert second == first


# Rational strings for the reader cross-check: valid ones in any terms, and
# faults the format refuses (signs, decimals, padding, zero or zero-led
# denominators, digits other than ASCII that int() or str.isdigit accepts,
# more digits than int() converts, values that are not strings).
_GOOD_RATIONALS = [
    "0", "1", "1/2", "2/4", "1/3", "3/8", "01/2", "0/5", "7/7", "5/4", "10/20", "003/12",
    "1/" + "3" * 40, "12345678901234567890/98765432109876543211",
]
_BAD_RATIONALS = [
    "0.5", "-1/2", "1/0", "1/02", " 1", "+1", "1_0", "1/", "/2", "", "\uff11", "\u0663",
    "\u00b2", "1" * 5000, "1/" + "7" * 5000, 1, 0.5, None, True, ["1"], {"s0": "1"},
]


class TestMeasureReader:
    """The one-pass reader of measure objects against the reader it
    replaced, ``helpers.read_measure_oracle``: the same measure object for
    a valid measure, the same message, file and location for a faulty one."""

    @staticmethod
    def outcome(read, *args):
        try:
            return read(*args)
        except ModelFormatError as exc:
            return str(exc), exc.file, exc.location

    def draw(self, rng: Random, keys: list, seen: list):
        if seen and rng.random() < 0.2:
            old = rng.choice(seen)
            return old if rng.random() < 0.5 else dict(old)
        if rng.random() < 0.03:
            return rng.choice(["1/2", 1, ["s0"], None])
        raw = {}
        for state in rng.sample(keys, rng.randint(0, min(4, len(keys)))):
            pool = _BAD_RATIONALS if rng.random() < 0.08 else _GOOD_RATIONALS
            raw[state] = rng.choice(pool)
        return raw

    def test_seeded_objects_read_alike(self):
        rng = Random(1717)
        kinds = {"measure": 0, "rationals": 0, "states": 0, "mass": 0, "object": 0}
        for load in range(300):
            space = rand_space(rng, 1, 5, allow_coarse=True)
            keys = list(space.carrier) * 3 + ["zz", 7]
            file = None if load % 2 else "m.json"
            read, rationals, read_old = {}, {}, {}
            seen: list = []
            # each load opens with one faulty rational, so every one is read
            bad = {space.carrier[0]: _BAD_RATIONALS[load % len(_BAD_RATIONALS)]}
            for i in range(rng.randint(1, 16)):
                raw = self.draw(rng, keys, seen) if i else bad
                old = self.outcome(read_measure_oracle, space, file, read_old, raw, "w", i)
                new = self.outcome(model_io._read_measure, space, file, read, rationals, raw, "w", i)
                if isinstance(old, SubProb):
                    assert new is old, raw
                    seen.append(raw)
                    kinds["measure"] += 1
                    continue
                assert new == old, raw
                message, _, location = old
                if not location.endswith("]"):
                    kind = "rationals"
                elif message.startswith("a measure"):
                    kind = "object"
                else:
                    kind = "mass" if message.startswith("total") else "states"
                kinds[kind] += 1
        assert min(kinds.values()) >= 50, kinds


# Documents the fuzz below starts from: every model, map and partition is
# valid, and each command gets inputs that fit each other.
_CLONES = model_to_dict(planted_clones(Random(5), 2))
_TWO_LABELS = {
    "kind": "nlmp",
    "states": ["s0", "s1", "s2"],
    "sigma": [["s0"], ["s1", "s2"]],
    "labels": ["a", "b"],
    "kernels": {
        "a": {"s0": [{"s0": "1/3", "s1": "2/3"}], "s1": [{}], "s2": [{}]},
        "b": {"s0": [], "s1": [{"s0": "1"}, {}], "s2": [{"s0": "1"}, {}]},
    },
}
# Two groups of inputs on the same states each.
_FUZZ_INPUTS = [
    {
        "model": [K_A_DOC, EF_A_DOC, _TWO_LABELS],
        "map": [
            {"map": {"s0": "s0", "s1": "s1", "s2": "s2"}},
            {"map": {"s0": "s1", "s1": "s1", "s2": "s2"}},
        ],
        "partition": [[["s0", "s1"], ["s2"]], [["s0"], ["s1", "s2"]]],
        "state": ["s0", "s1", "s2"],
    },
    {
        "model": [_CLONES],
        "map": [{"map": {s: s for s in _CLONES["states"]}}],
        "partition": [[["c0a", "c0b"], ["c1a", "c1b"]]],
        "state": _CLONES["states"],
    },
]
# Each command's argv, with the roles of its inputs; "--label" takes one
# of the labels above or none.
_FUZZ_COMMANDS = [
    ["validate", "model"],
    ["bisim", "model", "--pairs", "pair"],
    ["lequiv", "model", "--label"],
    ["distinguish", "model", "state", "state", "--label"],
    ["dual", "model", "--label"],
    ["demonize", "model", "--label"],
    ["angelize", "model", "--label"],
    ["sum", "model", "model"],
    ["event-bisim", "model", "--partition", "partition"],
    ["subsystem", "model", "--partition", "partition", "--label"],
    ["quotient", "model", "--partition", "partition", "--label"],
    ["morphism", "model", "model", "--map", "map"],
    ["span", "model", "model", "model", "--f", "map", "--g", "map"],
]
_NAMES = st.sampled_from(["s0", "s1", "s2", "c0a", "a", "b", "kind", "map", "sigma", "labels"])
_JUNK = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        _NAMES,
        st.sampled_from(["ef", "nlmp", "1/2", "1", "0", "2/1", "1/0", "-1/2", ""]),
        st.text(max_size=4),
    ),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(_NAMES | st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)


def _slots(holder, key):
    """Every (container, key) of the JSON tree at ``holder[key]``, its
    root's included."""
    yield holder, key
    child = holder[key]
    for k in (child if isinstance(child, dict) else range(len(child)) if isinstance(child, list) else ()):
        yield from _slots(child, k)


@st.composite
def _mutated(draw, doc):
    """``doc`` with up to two nodes replaced by junk JSON, deleted or
    duplicated."""
    holder = [json.loads(json.dumps(doc))]
    for _ in range(draw(st.integers(0, 2))):
        parent, key = draw(st.sampled_from(list(_slots(holder, 0))))
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace" or parent is holder:
            parent[key] = draw(_JUNK)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, json.loads(json.dumps(parent[key])))
        else:
            parent[draw(st.sampled_from(sorted(parent)) | _NAMES)] = json.loads(json.dumps(parent[key]))
    return holder[0]


@st.composite
def _requests(draw):
    """A command line over mutated inputs: (argv, {file name: document})."""
    command = draw(st.sampled_from(_FUZZ_COMMANDS))
    inputs = draw(st.sampled_from(_FUZZ_INPUTS))
    argv, files = [], {}
    for word in command:
        if word in ("model", "map", "partition"):
            name = f"{word}{len(files)}.json"
            files[name] = draw(_mutated(draw(st.sampled_from(inputs[word]))))
            argv.append(name)
        elif word in ("state", "pair"):
            states = [draw(st.sampled_from(inputs["state"])) for _ in range(1 + (word == "pair"))]
            argv.append(",".join(states))
        elif word == "--label":
            argv += draw(st.sampled_from([[], ["--label", "a"], ["--label", "b"]]))
        else:
            argv.append(word)
    return argv, files


class TestFuzzFrontEnd:
    @given(_requests())
    @settings(max_examples=400)
    def test_mutated_inputs_answer_or_refuse(self, fuzz_dir, case):
        """Any model, map or partition file, however mangled, ends in an
        answer (exit 0 or 1, JSON on stdout) or a located refusal (exit 2,
        a JSON diagnostic on stderr), never a traceback."""
        argv, files = case
        for name, doc in files.items():
            (fuzz_dir / name).write_text(json.dumps(doc))
        argv = [str(fuzz_dir / a) if a in files else a for a in argv]
        code, out, err = invoke(*argv)
        if code == 2:
            assert out == "" and set(json.loads(err)["error"]) == {"file", "location", "message"}
        else:
            assert code in (0, 1) and err == ""
            assert isinstance(json.loads(out), dict)
