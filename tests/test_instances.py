import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rectpart as rp
from rectpart import instances

#: Seeds at the edges of the 32- and 64-bit words, plus 20 drawn ones.
PCG_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [
    random.Random(2014).getrandbits(64) for _ in range(20)
]


@pytest.mark.parametrize("seed", PCG_SEEDS)
def test_draws_are_numpys_pcg64(seed):
    want = np.random.Generator(np.random.PCG64(seed)).random(1000)
    assert instances._random(seed, 1000) == want.tolist()


@pytest.mark.parametrize("family, q", [("uniform", 0.5), ("geometric", 1), ("geometric", 0.97)])
@pytest.mark.parametrize("seed", PCG_SEEDS)
def test_generate_matches_a_numpy_reference(family, q, seed):
    # The same instance from numpy's draws and sum: uniform is what numpy
    # drew, and geometric jitters a running product with numpy's uniform(),
    # so at q=1 its raw terms are uniform()'s draws themselves.
    n, container = 500, rp.Rect(0, 0, 3, 2)
    rng = np.random.Generator(np.random.PCG64(seed))
    if family == "uniform":
        raw = 1.0 - rng.random(n)
    else:
        raw = np.multiply.accumulate(np.full(n, float(q))) * rng.uniform(0.9, 1.1, n)
    want = tuple(float(v) / float(raw.sum()) * container.area for v in raw)
    spec = rp.GenSpec(n=n, family=family, seed=seed, container=container, q=q)
    assert rp.generate(spec).areas == want


def test_sum_is_numpys_pairwise_sum():
    for n in [*range(1, 301), 8191, 8192, 8193, 65536, 100000]:
        raw = 1.0 - np.random.Generator(np.random.PCG64(n)).random(n)
        assert instances._pairwise_sum(raw.tolist(), 0, n) == float(raw.sum()), n


def test_geometric_bits_are_pinned():
    # sha256 over float.hex of every area: fails on any machine where the
    # draws, the running product or the sum drift.
    h = hashlib.sha256()
    for q, n in ((0.3, 618), (0.6, 1400), (0.99, 3000)):
        for seed in (1, 2, 3):
            spec = rp.GenSpec(n=n, family="geometric", seed=seed, container=rp.Rect(0, 0, 1, 1), q=q)
            for a in rp.generate(spec).areas:
                h.update(a.hex().encode() + b"\n")
    assert h.hexdigest() == "bd84fbee2871be5bcc8cd4110bad01ccea9032f133794bf85f341f12d8718367"


def test_import_and_every_command_load_no_numpy(tmp_path):
    # No part of the library needs numpy: importing it and its CLI, then
    # generating an instance, partitioning it with a report and an SVG,
    # evaluating the layout and running the oracle leave numpy out of a
    # fresh interpreter.
    src = str(Path(rp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, rectpart, rectpart.cli\n"
        "d = sys.argv[1]\n"
        "for argv in (\n"
        "    ['gen', '--n', '50', '--family', 'geo', '--seed', '1', '--width', '1', '--height', '1',\n"
        "     '--output', d + '/inst.json'],\n"
        "    ['partition', '--algo', 'dc', '--input', d + '/inst.json', '--output', d + '/layout.json',\n"
        "     '--report', d + '/report.json', '--svg', d + '/layout.svg'],\n"
        "    ['eval', '--instance', d + '/inst.json', '--layout', d + '/layout.json', '--output', d + '/eval.json'],\n"
        "    ['gen', '--n', '6', '--family', 'uniform', '--seed', '1', '--width', '1', '--height', '1',\n"
        "     '--output', d + '/small.json'],\n"
        "    ['oracle', '--input', d + '/small.json', '--output', d + '/witness.json'],\n"
        "):\n"
        "    assert rectpart.cli.cli_main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, (argv[0], sorted(m for m in sys.modules if 'numpy' in m))\n"
    )
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert rp.parse_instance((tmp_path / "inst.json").read_bytes()).n == 50
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "eval.json").read_bytes()
    assert (tmp_path / "layout.svg").stat().st_size > 0
    assert rp.parse_layout((tmp_path / "witness.json").read_bytes()).tree is not None


def test_single_area_equals_container_area():
    for family in ("uniform", "geometric"):
        spec = rp.GenSpec(n=1, family=family, seed=3, container=rp.Rect(0, 0, 2.5, 2))
        inst = rp.generate(spec)
        assert inst.areas == (5.0,)


def test_same_spec_same_bytes():
    spec = rp.GenSpec(n=25, family="uniform", seed=42, container=rp.Rect(0, 0, 1, 1))
    a = rp.generate(spec)
    b = rp.generate(spec)
    assert a == b
    assert rp.serialize_instance(a) == rp.serialize_instance(b)


def test_different_seeds_differ():
    base = dict(n=10, family="uniform", container=rp.Rect(0, 0, 1, 1))
    assert rp.generate(rp.GenSpec(seed=1, **base)) != rp.generate(rp.GenSpec(seed=2, **base))


def test_rescaling_is_exact():
    spec = rp.GenSpec(n=60, family="geometric", seed=11, container=rp.Rect(0, 0, 3, 2), q=0.8)
    inst = rp.generate(spec)
    assert math.fsum(inst.areas) == pytest.approx(6.0, rel=1e-12)


def test_slow_decay_bounds_consecutive_ratio():
    for seed in range(5):
        spec = rp.GenSpec(n=50, family="geometric", seed=seed, container=rp.Rect(0, 0, 1, 1), q=0.9)
        inst = rp.generate(spec)
        dec = sorted(inst.areas, reverse=True)
        worst = max(dec[i] / dec[i + 1] for i in range(len(dec) - 1))
        assert worst <= (1 / 0.9) * (1.1 / 0.9) + 1e-9


def test_genspec_validation():
    container = rp.Rect(0, 0, 1, 1)
    with pytest.raises(ValueError):
        rp.GenSpec(n=0, family="uniform", seed=1, container=container)
    with pytest.raises(ValueError):
        rp.GenSpec(n=3, family="zipf", seed=1, container=container)
    with pytest.raises(ValueError):
        rp.GenSpec(n=3, family="geometric", seed=1, container=container, q=0.0)
    with pytest.raises(ValueError):
        rp.GenSpec(n=3, family="uniform", seed=-1, container=container)


@pytest.mark.parametrize("field, value", [
    ("n", 3.0), ("n", True), ("seed", 2.0), ("seed", True), ("seed", "1"),
])
def test_genspec_refuses_counts_that_are_not_ints(field, value):
    spec = dict(n=3, family="uniform", seed=1, container=rp.Rect(0, 0, 1, 1)) | {field: value}
    with pytest.raises(ValueError, match=rf"^{field} must be an int"):
        rp.GenSpec(**spec)


@pytest.mark.parametrize("family", rp.FAMILIES)
@pytest.mark.parametrize("q", ["0.5", None, True, [0.5]], ids=["str", "None", "bool", "list"])
def test_genspec_refuses_a_q_that_is_not_a_number(family, q):
    with pytest.raises(ValueError, match=r"^q must be an int or a float, got "):
        rp.GenSpec(n=3, family=family, seed=1, container=rp.Rect(0, 0, 1, 1), q=q)
    # Only the geometric family reads q, so only it judges the range.
    rp.GenSpec(n=3, family="geometric", seed=1, container=rp.Rect(0, 0, 1, 1), q=1)
    rp.GenSpec(n=3, family="uniform", seed=1, container=rp.Rect(0, 0, 1, 1), q=2.0)


def test_areas_are_positive_and_fill_container():
    spec = rp.GenSpec(n=100, family="uniform", seed=9, container=rp.Rect(0, 0, 1, 1))
    inst = rp.generate(spec)
    assert all(a > 0 for a in inst.areas)
    assert len(inst.areas) == 100


@pytest.mark.parametrize("q, n, first", [(0.3, 800, 618), (0.5, 2000, 1074)])
def test_generator_names_its_underflow(q, n, first):
    # q**(first + 1) is already 0.0, so the raw draw underflows; one area
    # fewer still generates.
    spec = dict(family="geometric", seed=1, container=rp.Rect(0, 0, 1, 1), q=q)
    want = rf"^area #{first} underflows to 0\.0 \(geometric family, q={q}, n={n}\)$"
    with pytest.raises(ValueError, match=want):
        rp.generate(rp.GenSpec(n=n, **spec))
    assert all(a > 0 for a in rp.generate(rp.GenSpec(n=first, **spec)).areas)


def test_generator_names_an_underflow_from_scaling():
    # Every raw draw is a normal double; scaled into a container of area
    # 1e-308 the later ones underflow.
    container = rp.Rect(0, 0, 1e-154, 1e-154)
    spec = rp.GenSpec(n=60, family="geometric", seed=1, container=container, q=0.5)
    with pytest.raises(ValueError, match=r"^area #51 underflows to 0\.0 \(geometric family"):
        rp.generate(spec)
