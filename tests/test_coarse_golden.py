"""Recorded answers of the commands that build models, test morphisms and
build spans, on seeded coarse models.

Each seed draws a class-level dynamics and lifts it to spaces whose atoms
hold two or three states on a shuffled carrier, two clone atoms per class,
each measure's class mass split at random between the clones and named by a
random state of each atom.  The commands run through ``effkit.cli.run`` on
files written from those documents; every answer is its exit code and the
first 16 hex digits of the SHA-256 of its stdout.  The answers were
recorded from the implementation that stored a value per state, so a
change to how models hold their dynamics must keep every byte, among them
the not-a-congruence and cospan failure witnesses.
"""

from __future__ import annotations

import hashlib
import io
import json
from fractions import Fraction
from random import Random

import pytest

from effkit.cli import run

SEEDS = (1, 2, 3, 4)
LABELS = ("x", "y")


def _class_measure(rng: Random, k: int) -> dict[int, Fraction]:
    """A random subprobability over ``k`` classes, as class -> mass."""
    den = rng.randint(1, 6)
    remaining, out = den, {}
    for i in rng.sample(range(k), k):
        if remaining and rng.random() < 0.7:
            take = rng.randint(1, remaining)
            out[i], remaining = Fraction(take, den), remaining - take
    return out


def _class_set(rng: Random, k: int, low: int, high: int) -> list[dict[int, Fraction]]:
    return [_class_measure(rng, k) for _ in range(rng.randint(low, high))]


class _Layout:
    """A coarse space over ``k`` classes: per class, ``copies`` atoms of
    ``sizes`` states each, named ``{prefix}{class}{copy}{j}``, the carrier
    shuffled."""

    def __init__(self, rng: Random, k: int, prefix: str, copies: int, sizes: tuple[int, int]):
        self.rng = rng
        self.atoms = [
            [[f"{prefix}{i}{c}{j}" for j in range(rng.randint(*sizes))] for c in "ab"[:copies]]
            for i in range(k)
        ]
        self.states = [s for atoms in self.atoms for atom in atoms for s in atom]
        rng.shuffle(self.states)

    def header(self, kind: str) -> dict:
        sigma = [atom for atoms in self.atoms for atom in atoms]
        return {"kind": kind, "states": self.states, "sigma": sigma}

    def lift(self, mu: dict[int, Fraction]) -> list[tuple[int, int, Fraction]]:
        """``mu``'s class masses split at random between each class's
        atoms, as (class, copy, mass) with positive mass."""
        out = []
        for i, m in mu.items():
            copies = len(self.atoms[i])
            cuts = sorted(self.rng.randint(0, 2) * m / 2 for _ in range(copies - 1))
            for c, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, m])):
                if hi > lo:
                    out.append((i, c, hi - lo))
        return out

    def text(self, lifted: list[tuple[int, int, Fraction]]) -> dict[str, str]:
        """A lifted measure as a file holds it, each atom named by a random
        one of its states."""
        return {self.rng.choice(self.atoms[i][c]): str(m) for i, c, m in lifted}

    def map_to(self, target: "_Layout", shift: int = 0, const: bool = False) -> dict:
        """Each state of class ``i`` to a random state of class ``i +
        shift``'s first atom in ``target``, or every state to one state."""
        k = len(self.atoms)
        out = {}
        for i, atoms in enumerate(self.atoms):
            into = target.atoms[0 if const else (i + shift) % k][0]
            for atom in atoms:
                for s in atom:
                    out[s] = self.rng.choice(into)
        return out

    def permutation(self) -> dict:
        """Each atom onto itself, its states shuffled."""
        out = {}
        for atoms in self.atoms:
            for atom in atoms:
                out.update(zip(atom, self.rng.sample(atom, len(atom))))
        return out


def _ef_doc(layout: _Layout, dynamics: list[list[list[dict]]]) -> dict:
    """An 'ef' model: per class, generators of class measures, lifted once
    per atom and written afresh for each of its states."""
    effectivity = {}
    for i, atoms in enumerate(layout.atoms):
        for atom in atoms:
            gens = [[layout.lift(mu) for mu in g] for g in dynamics[i]]
            effectivity.update((s, [[layout.text(mu) for mu in g] for g in gens]) for s in atom)
    return {**layout.header("ef"), "effectivity": effectivity}


def _nlmp_doc(layout: _Layout, dynamics: dict[str, list[list[dict]]]) -> dict:
    """An 'nlmp' model: per label and class, a list of class measures."""
    kernels = {}
    for label in LABELS:
        kernel = kernels[label] = {}
        for i, atoms in enumerate(layout.atoms):
            for atom in atoms:
                lifted = [layout.lift(mu) for mu in dynamics[label][i]]
                kernel.update((s, [layout.text(mu) for mu in lifted]) for s in atom)
    return {**layout.header("nlmp"), "labels": list(LABELS), "kernels": kernels}


def _documents(seed: int) -> dict[str, object]:
    rng = Random(seed)
    k = rng.randint(2, 3)
    ef_dyn = [[_class_set(rng, k, 1, 2) for _ in range(rng.randint(0, 3))] for _ in range(k)]
    fs_dyn = [[_class_set(rng, k, 1, 2)] for _ in range(k)]
    nlmp_dyn = {a: [_class_set(rng, k, 0, 2) for _ in range(k)] for a in LABELS}
    big = _Layout(rng, k, "p", 2, (2, 3))
    other = _Layout(rng, k, "q", 2, (2, 3))
    small = _Layout(rng, k, "c", 1, (1, 2))
    one_block = [big.states]
    planted = [[s for atom in atoms for s in atom] for atoms in big.atoms]
    shuffled = list(big.states)
    rng.shuffle(shuffled)
    cut = rng.randint(1, len(shuffled) - 1)
    return {
        "P": _ef_doc(big, ef_dyn),
        "Q": _ef_doc(other, ef_dyn),
        "Pc": _ef_doc(small, ef_dyn),
        "K": _nlmp_doc(big, nlmp_dyn),
        "Kc": _nlmp_doc(small, nlmp_dyn),
        "Pfs": _ef_doc(big, fs_dyn),
        "Qfs": _ef_doc(other, fs_dyn),
        "Mfs": _ef_doc(small, fs_dyn),
        "planted": planted,
        "discrete": [[s] for s in big.states],
        "one": one_block,
        "random": [shuffled[:cut], shuffled[cut:]],
        "lift": {"map": big.map_to(small)},
        "wrong": {"map": big.map_to(small, shift=1)},
        "permute": {"map": big.permutation()},
        "qlift": {"map": other.map_to(small)},
        "qconst": {"map": other.map_to(small, const=True)},
    }


REQUESTS = {
    "dual": ("dual", "P"),
    "dual-label": ("dual", "K", "--label", "x"),
    "sum-ef": ("sum", "P", "Q"),
    "sum-nlmp": ("sum", "K", "Kc"),
    "demonize": ("demonize", "K", "--label", "x"),
    "angelize": ("angelize", "K", "--label", "y"),
    "quotient-planted": ("quotient", "P", "--partition", "planted"),
    "quotient-discrete": ("quotient", "P", "--partition", "discrete"),
    "quotient-one": ("quotient", "P", "--partition", "one"),
    "quotient-random": ("quotient", "P", "--partition", "random"),
    "quotient-label": ("quotient", "K", "--label", "y", "--partition", "planted"),
    "morphism": ("morphism", "P", "Pc", "--map", "lift"),
    "morphism-strong": ("morphism", "P", "Pc", "--map", "lift", "--strong"),
    "morphism-wrong": ("morphism", "P", "Pc", "--map", "wrong"),
    "morphism-wrong-strong": ("morphism", "P", "Pc", "--map", "wrong", "--strong"),
    "morphism-permute": ("morphism", "P", "P", "--map", "permute", "--strong"),
    "morphism-nlmp": ("morphism", "K", "Kc", "--map", "lift"),
    "morphism-nlmp-wrong": ("morphism", "K", "Kc", "--map", "wrong"),
    "morphism-nlmp-permute": ("morphism", "K", "K", "--map", "permute"),
    "span": ("span", "Pfs", "Qfs", "Mfs", "--f", "lift", "--g", "qlift"),
    "span-same": ("span", "Pfs", "Pfs", "Mfs", "--f", "lift", "--g", "lift"),
    "span-wrong-f": ("span", "Pfs", "Qfs", "Mfs", "--f", "wrong", "--g", "qlift"),
    "span-const-g": ("span", "Pfs", "Qfs", "Mfs", "--f", "lift", "--g", "qconst"),
    "span-both": ("span", "Pfs", "Qfs", "Mfs", "--f", "wrong", "--g", "qconst"),
}


def answers(tmp_path, seed: int) -> dict[str, str]:
    """Per request, its exit code and the digest of its stdout."""
    paths = {}
    for name, doc in _documents(seed).items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    out = {}
    for name, argv in REQUESTS.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        code = run([paths.get(a, a) for a in argv], out=stdout, err=stderr)
        assert not stderr.getvalue(), (name, stderr.getvalue())
        out[name] = f"{code} {hashlib.sha256(stdout.getvalue().encode()).hexdigest()[:16]}"
    return out


GOLDEN: dict[int, dict[str, str]] = {
    1: {
        "dual": "0 6cfbb26fa8fe2c4c",
        "dual-label": "0 66d329afe8c3fa66",
        "sum-ef": "0 f21b20aef8e75557",
        "sum-nlmp": "0 ce9c441f1b99d98a",
        "demonize": "0 d1eccb717350ba11",
        "angelize": "0 6a52c411839332f3",
        "quotient-planted": "0 26a6f5aea72ea803",
        "quotient-discrete": "0 3be71e75ec331531",
        "quotient-one": "1 44bf55a968546abe",
        "quotient-random": "1 44bf55a968546abe",
        "quotient-label": "0 3940ba61c1319e90",
        "morphism": "0 3fda915d2467baca",
        "morphism-strong": "1 60ce12cd0fb00e80",
        "morphism-wrong": "1 3e930ddf92382212",
        "morphism-wrong-strong": "1 60ce12cd0fb00e80",
        "morphism-permute": "0 2ef2da14e84d212f",
        "morphism-nlmp": "1 3e930ddf92382212",
        "morphism-nlmp-wrong": "1 3e930ddf92382212",
        "morphism-nlmp-permute": "0 3fda915d2467baca",
        "span": "0 31fdee3134d8e195",
        "span-same": "0 7242b1d03702b6fc",
        "span-wrong-f": "1 23296d7bab254f96",
        "span-const-g": "1 b70f3a866c7572c3",
        "span-both": "1 4b78043b6dd19ceb",
    },
    2: {
        "dual": "0 e905dc4b1aefb763",
        "dual-label": "0 09882927c559f755",
        "sum-ef": "0 6f045a7685d372e8",
        "sum-nlmp": "0 32f0a32241b4705c",
        "demonize": "0 09882927c559f755",
        "angelize": "0 c9ec3ba005524b5d",
        "quotient-planted": "0 4b7ac80c19ce91da",
        "quotient-discrete": "0 e16104c1b26dc7ea",
        "quotient-one": "0 a1148b2f6883fa10",
        "quotient-random": "0 e6235cd75fa694d0",
        "quotient-label": "0 4794ebd256f59792",
        "morphism": "0 3fda915d2467baca",
        "morphism-strong": "0 2ef2da14e84d212f",
        "morphism-wrong": "0 3fda915d2467baca",
        "morphism-wrong-strong": "0 2ef2da14e84d212f",
        "morphism-permute": "0 2ef2da14e84d212f",
        "morphism-nlmp": "1 3e930ddf92382212",
        "morphism-nlmp-wrong": "1 3e930ddf92382212",
        "morphism-nlmp-permute": "0 3fda915d2467baca",
        "span": "0 46263d1694d63b3f",
        "span-same": "0 d2baf8b67e0a5dc8",
        "span-wrong-f": "1 708c3c19b929817f",
        "span-const-g": "1 7284365e93b97620",
        "span-both": "1 5e5218a97098a824",
    },
    3: {
        "dual": "0 5b6b71d3517c29ee",
        "dual-label": "0 ea212ea85acbaa3f",
        "sum-ef": "0 8e803b5401fad5c6",
        "sum-nlmp": "0 e8891562fd6237ff",
        "demonize": "0 568485a1a13d641f",
        "angelize": "0 48edc154a40d71d5",
        "quotient-planted": "0 1c59609f270134ae",
        "quotient-discrete": "0 b0e9a68df42a6b04",
        "quotient-one": "1 4450577b6c0543ad",
        "quotient-random": "1 cd50db5ae7ee4c1f",
        "quotient-label": "0 34adbe60afc7e359",
        "morphism": "0 3fda915d2467baca",
        "morphism-strong": "1 60ce12cd0fb00e80",
        "morphism-wrong": "1 3e930ddf92382212",
        "morphism-wrong-strong": "1 60ce12cd0fb00e80",
        "morphism-permute": "0 2ef2da14e84d212f",
        "morphism-nlmp": "1 3e930ddf92382212",
        "morphism-nlmp-wrong": "1 3e930ddf92382212",
        "morphism-nlmp-permute": "0 3fda915d2467baca",
        "span": "0 590d622c6c61d9eb",
        "span-same": "0 51e15de8bcde9d0f",
        "span-wrong-f": "1 23296d7bab254f96",
        "span-const-g": "1 aaaf76f78513cd9a",
        "span-both": "1 90af296b04bf2be8",
    },
    4: {
        "dual": "0 5a3afbaa7ede0cdd",
        "dual-label": "0 f3e1f0b7fa520b96",
        "sum-ef": "0 99cbd6d5f882431c",
        "sum-nlmp": "0 b1330e3d22a4156e",
        "demonize": "0 b78893b2905d0607",
        "angelize": "0 afeaabd939c298f8",
        "quotient-planted": "0 9fa75a14b5e310ee",
        "quotient-discrete": "0 83b46ca7cecfb046",
        "quotient-one": "1 cf4b18c298ac8879",
        "quotient-random": "1 6512bbccb370bb58",
        "quotient-label": "0 ad8c186720e3bc19",
        "morphism": "0 3fda915d2467baca",
        "morphism-strong": "1 60ce12cd0fb00e80",
        "morphism-wrong": "1 3e930ddf92382212",
        "morphism-wrong-strong": "1 60ce12cd0fb00e80",
        "morphism-permute": "0 2ef2da14e84d212f",
        "morphism-nlmp": "1 3e930ddf92382212",
        "morphism-nlmp-wrong": "1 3e930ddf92382212",
        "morphism-nlmp-permute": "0 3fda915d2467baca",
        "span": "0 bf6c0d3c1cb3186b",
        "span-same": "0 45a0c1baed27d18d",
        "span-wrong-f": "1 609e76df96a2ae84",
        "span-const-g": "1 5d547462df3d3dbb",
        "span-both": "1 a5ca9319f4bf6edb",
    },
}


@pytest.mark.parametrize("seed", SEEDS)
def test_answers_match_the_recording(tmp_path, seed):
    assert answers(tmp_path, seed) == GOLDEN[seed]
