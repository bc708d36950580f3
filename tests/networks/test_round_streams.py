"""Per-round random streams (``repro.networks.generators.streams``).

Every seeded family draws its rounds from :func:`round_rng`; these
tests pin what it returns, keep its threads apart, and keep a second
seeding idiom from creeping back into the families.
"""

from __future__ import annotations

import re
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.networks.generators import round_rng
from repro.networks.generators.streams import KEY_LIMIT

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _fresh(seed: int, round_no: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[0, round_no, stream, 0])
    )


def _draws(rng: np.random.Generator) -> list:
    """A mix of the calls the families make, in one list."""
    return [
        rng.permutation(13).tolist(),
        rng.random(7).tolist(),
        rng.integers(5, size=9).tolist(),
        float(rng.random()),
    ]


@pytest.mark.parametrize(
    "seed, round_no, stream",
    [(0, 0, 0), (7, 3, 0), (7, 3, 1), (2**64 + 5, 12, 0), (KEY_LIMIT - 1, 2**40, 3)],
)
def test_draws_equal_a_freshly_built_generator(seed, round_no, stream):
    assert _draws(round_rng(seed, round_no, stream)) == _draws(
        _fresh(seed, round_no, stream)
    )


def test_reset_discards_the_previous_rounds_draws():
    # A half-used buffer from the last caller must not leak into the next.
    rng = round_rng(3, 1)
    rng.random(3)
    rng.integers(2**32, dtype=np.uint32)
    assert _draws(round_rng(3, 2)) == _draws(_fresh(3, 2))


def test_streams_and_rounds_differ():
    tree = round_rng(11, 4, 0).random(8).tolist()
    extras = round_rng(11, 4, 1).random(8).tolist()
    next_round = round_rng(11, 5, 0).random(8).tolist()
    assert len({tuple(tree), tuple(extras), tuple(next_round)}) == 3


def test_threads_interleaved_draw_as_if_serial():
    calls = [(seed, round_no) for seed in (1, 2) for round_no in range(40)]
    serial = {call: _draws(round_rng(*call)) for call in calls}
    barrier = threading.Barrier(2)
    seen: dict = {}

    def run(seed: int) -> None:
        for round_no in range(40):
            barrier.wait(10)
            rng = round_rng(seed, round_no)
            barrier.wait(10)  # both threads reset before either draws
            seen[(seed, round_no)] = _draws(rng)

    threads = [threading.Thread(target=run, args=(seed,)) for seed in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert seen == serial


def test_negative_seed_rejected_like_default_rng():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError, match="seed"):
        round_rng(-1, 0)


def test_seed_past_the_key_width_names_the_limit():
    assert round_rng(KEY_LIMIT - 1, 0) is not None
    with pytest.raises(ValueError, match=re.escape("2**128")):
        round_rng(KEY_LIMIT, 0)


@pytest.mark.parametrize("round_no, stream", [(-1, 0), (0, -1), (2**64, 0)])
def test_round_and_stream_must_fit_a_counter_word(round_no, stream):
    with pytest.raises(ValueError, match=re.escape("2**64")):
        round_rng(0, round_no, stream)


def test_numpy_integer_seed_accepted():
    assert _draws(round_rng(np.int64(9), np.int64(2))) == _draws(_fresh(9, 2))


#: Where every per-round draw must go through ``round_rng``.
GUARDED = [
    SRC / "networks" / "generators",
    SRC / "adversaries",
    SRC / "verify" / "strategies.py",
]


def test_no_per_round_default_rng_in_the_families():
    paths = [
        path
        for root in GUARDED
        for path in (sorted(root.rglob("*.py")) if root.is_dir() else [root])
    ]
    assert len(paths) > 10
    offenders = [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in paths
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "default_rng([" in line
    ]
    assert not offenders, (
        "seed per-round draws with repro.networks.generators.round_rng, "
        "not default_rng([...]):\n" + "\n".join(offenders)
    )
