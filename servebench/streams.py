"""Seeded inputs of the serving benchmark: the dataset and request streams.

Everything a run feeds the server is generated here from ``--seed`` and
nothing else, so two runs with the same seed send byte-identical streams
and two commits are measured on the same inputs.  The generators draw
from the whole category vocabulary (``repro.datagen.vocab.CATEGORIES``,
94 words) instead of the paper's fixed keyword prefixes, and they do not
use ``repro.serve.workload``: a later change to the program cannot
change what the benchmark sends.

Streams are plain lists of :class:`~repro.serve.server.SOIRequest` /
:class:`~repro.serve.server.DescribeRequest`.  Their first
:func:`warmup_count` entries are the untimed warm-up prefix of a run; the
timed part starts right after it and never replays it.
"""

from __future__ import annotations

import bisect
import hashlib
import random

from repro.core.soi import DEFAULT_EPS
from repro.datagen.presets import build_preset
from repro.datagen.vocab import CATEGORIES
from repro.serve.server import DescribeRequest, SOIRequest

CITY = "london"
SCALE = 1.0

VOCAB: tuple[str, ...] = tuple(sorted(
    {word for pool in CATEGORIES.values() for word in pool}))
"""The 94 category keywords; k-SOI keyword sets are drawn from all of them."""

SOI_WORDS = (1, 4)
SOI_K = (5, 100)
DESCRIBE_K = (3, 30)
STREETS_PER_CATEGORY = 20
"""Describe streets: the top 20 streets of each category's head keyword
(about 128 distinct streets on london, four times the worker's 32-entry
describer LRU)."""

ZIPF_S = 1.1
ZIPF_UNIVERSE = 4000
ZIPF_SOI_SHARE = 0.75

STREAM_LENGTH = 40000
"""Requests generated per stream: more than any phase of a run consumes."""

WORKLOADS = ("soi-cold", "describe-cold", "zipf-repeat")


def warmup_count(workers: int) -> int:
    """Length of the untimed warm-up prefix: eight requests per worker."""
    return 8 * workers


def load_city():
    """The generated london dataset at scale 1.0 (deterministic)."""
    return build_preset(CITY, SCALE)


def candidate_streets(engine, eps: float = DEFAULT_EPS) -> list[int]:
    """Describe targets: each category's top streets, first-seen order.

    Every street has positive interest for its category, so it lies near
    photos and POIs and a describe query on it does real work.
    """
    streets: list[int] = []
    seen: set[int] = set()
    for category, pool in CATEGORIES.items():
        for result in engine.top_k([pool[0]], k=STREETS_PER_CATEGORY,
                                   eps=eps):
            if result.street_id not in seen:
                seen.add(result.street_id)
                streets.append(result.street_id)
    return streets


class Deck:
    """Endless seeded draws from ``items``: each pass is a fresh shuffle.

    Every item comes up once per pass, so a run of a few hundred
    requests holds almost the same mix of words, ``k`` values and
    streets whatever the seed (sampling without replacement), while each
    draw is still uniform over ``items``.  This keeps the inputs' cost
    from moving the figures between seeds.
    """

    def __init__(self, rng: random.Random, items) -> None:
        self._rng = rng
        self._items = list(items)
        self._left: list = []

    def draw(self):
        if not self._left:
            self._left = self._items[:]
            self._rng.shuffle(self._left)
        return self._left.pop()


class Generators:
    """The two cold request generators over one seeded random source."""

    def __init__(self, rng: random.Random, streets: list[int]) -> None:
        self.rng = rng
        self.words = Deck(rng, VOCAB)
        self.sizes = Deck(rng, range(SOI_WORDS[0], SOI_WORDS[1] + 1))
        self.soi_k = Deck(rng, range(SOI_K[0], SOI_K[1] + 1))
        self.streets = Deck(rng, streets)
        self.describe_k = Deck(rng, range(DESCRIBE_K[0], DESCRIBE_K[1] + 1))

    def soi(self) -> SOIRequest:
        """1-4 distinct vocabulary words and ``k`` in [5, 100]."""
        size = self.sizes.draw()
        words: list[str] = []
        while len(words) < size:
            word = self.words.draw()
            if word not in words:
                words.append(word)
        return SOIRequest(tuple(words), self.soi_k.draw())

    def describe(self) -> DescribeRequest:
        """A candidate street, ``k`` in [3, 30], lambda and w uniform on a
        0.01 grid."""
        return DescribeRequest(self.streets.draw(), self.describe_k.draw(),
                               lam=self.rng.randint(0, 100) / 100,
                               w=self.rng.randint(0, 100) / 100)


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    # String seeds hash through SHA-512, so streams do not depend on the
    # interpreter's hash randomisation.
    return random.Random(f"{workload}:{seed}:{purpose}")


def make_stream(workload: str, seed: int, streets: list[int],
                length: int = STREAM_LENGTH) -> list:
    """The request stream of ``workload`` for ``seed``."""
    rng = _rng(workload, seed, "requests")
    make = Generators(rng, streets)
    if workload == "soi-cold":
        return [make.soi() for _ in range(length)]
    if workload == "describe-cold":
        return [make.describe() for _ in range(length)]
    if workload == "zipf-repeat":
        universe = [make.soi() if rng.random() < ZIPF_SOI_SHARE
                    else make.describe()
                    for _ in range(ZIPF_UNIVERSE)]
        cumulative: list[float] = []
        total = 0.0
        for rank in range(1, ZIPF_UNIVERSE + 1):
            total += rank ** -ZIPF_S
            cumulative.append(total)
        return [universe[bisect.bisect_left(cumulative, u * total)]
                for u in _stratified_uniforms(rng, length)]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")


def _stratified_uniforms(rng: random.Random, length: int,
                         stratum: int = 256) -> list[float]:
    """Uniform draws in [0, 1), one per ``1/stratum`` bin in each run of
    ``stratum`` draws (shuffled), so every few hundred requests repeat
    the Zipf head almost exactly as often as its probability says."""
    draws: list[float] = []
    while len(draws) < length:
        block = [(slot + rng.random()) / stratum for slot in range(stratum)]
        rng.shuffle(block)
        draws += block
    return draws[:length]


def arrival_offsets(workload: str, seed: int, rate_qps: float,
                    horizon_s: float) -> list[float]:
    """Poisson arrival times (seconds from the phase start) up to
    ``horizon_s`` at ``rate_qps``."""
    rng = _rng(workload, seed, "arrivals")
    offsets: list[float] = []
    clock = 0.0
    while True:
        clock += rng.expovariate(rate_qps)
        if clock >= horizon_s:
            return offsets
        offsets.append(clock)


def dataset_fingerprint(city) -> str:
    """SHA-256 over every vertex, segment, POI and photo of ``city``."""
    digest = hashlib.sha256()
    network = city.network
    for vid in sorted(network.vertices):
        vertex = network.vertices[vid]
        digest.update(f"v{vid},{vertex.x!r},{vertex.y!r};".encode())
    for seg in network.iter_segments():
        digest.update(f"s{seg.id},{seg.street_id},{seg.u},{seg.v};".encode())
    for poi in city.pois:
        digest.update(f"p{poi.id},{poi.x!r},{poi.y!r},{poi.weight!r},"
                      f"{','.join(sorted(poi.keywords))};".encode())
    for photo in city.photos:
        digest.update(f"f{photo.id},{photo.x!r},{photo.y!r},"
                      f"{','.join(sorted(photo.keywords))};".encode())
    return digest.hexdigest()


def stream_fingerprint(requests) -> str:
    """SHA-256 over the ``repr`` of every request, in order."""
    digest = hashlib.sha256()
    for request in requests:
        digest.update(repr(request).encode())
        digest.update(b"\n")
    return digest.hexdigest()
