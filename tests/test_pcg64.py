import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twoscalepop
from twoscalepop import _pcg64, scenarios

# the shipped default, perfbench's run seeds (input sets 1-15), the edges of
# one and two 32-bit seed words, and seeds of three and five words
SEEDS = (0, 1, scenarios.DEFAULT_SEED, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3,
         *range(1001, 1016))


def _highs():
    """0.1 and twice the largest initial coordinate of every built-in config,
    the two values a run's sample bound takes."""
    highs = {0.1}
    for name, _ in scenarios.describe():
        if name != "custom":
            highs.update(2.0 * float(np.max(c.initial_state))
                         for c in scenarios.builtin(name).configs)
    return sorted(highs)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_stream_draws_numpys_uniform_bytes(seed):
    for high in _highs():
        ours = np.asarray(_pcg64.uniform(seed, high, 16, 6), dtype=float)
        theirs = np.random.default_rng(seed).uniform(0.0, high, (16, 6))
        assert ours.tobytes() == theirs.tobytes(), (seed, high)


def test_the_stream_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        _pcg64.uniform(-1, 0.1, 1, 1)


def test_a_run_leaves_numpy_random_out(tmp_path):
    # a run's convergence samples come from _pcg64; numpy.random serves
    # check's property battery, the harnesses and the tests only
    src = str(Path(twoscalepop.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import runpy, sys\n"
            f"sys.argv = ['twoscalepop', 'run', 'fig2', '--fast', '--out', {str(tmp_path)!r}]\n"
            "try:\n"
            "    runpy.run_module('twoscalepop.cli', run_name='__main__', alter_sys=True)\n"
            "finally:\n"
            "    print('modules:', sorted(m for m in sys.modules"
            " if m == 'numpy.random' or m.startswith('numpy.random.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fig2" / "summary.txt").is_file()
    assert proc.stdout.splitlines()[-1] == "modules: []"
