"""The benchmark's workloads: what each one feeds repro, and why.

Inputs depend only on the workload seed ``S`` (``run.py --seed``); the
program under test sees nothing but the generated arguments and specs.
"""

from __future__ import annotations

import random

#: Each workload's reason to exist, as recorded in BENCHMARK.json.
WHY = {
    "grid_cold": "canonical 378-job grid via the CLI in a fresh process per pass: "
                 "app compute dominates, analytic engine idle",
    "tpl_sweep": "2910 small primitive jobs, 1-64 KiB on five platforms: analytic "
                 "engine, event kernel and per-job overhead dominate, apps idle",
    "service_mixed": "repro serve under one closed-loop user: disk-cache reads, run "
                     "and history stores, HTTP/SSE and admission dominate",
}

#: Platforms of the canonical grid (ROADMAP) and of the TPL sweep.
GRID_PLATFORMS = ("sun-ethernet", "alpha-fddi", "sp1-switch")
SWEEP_PLATFORMS = ("sun-ethernet", "sun-atm-lan", "sun-atm-wan", "alpha-fddi", "sp1-switch")


def grid_argv(seed: int, export: str, history_db: str) -> list:
    """``repro evaluate`` arguments of one grid_cold pass (378 jobs)."""
    return (["evaluate", "--platforms"] + list(GRID_PLATFORMS)
            + ["--seeds", str(seed), str(seed + 1), str(seed + 2),
               "--json", export, "--history-db", history_db])


def sweep_spec(seed: int):
    """The figure-style sweep: 64 message sizes x 5 platforms x 3 tools.

    ``processors`` stays 4 because ``sun-atm-wan`` allows at most 4 ranks.
    """
    from repro.core.spec import EvaluationSpec

    return EvaluationSpec(
        platforms=SWEEP_PLATFORMS,
        tpl_sizes=tuple(kib * 1024 for kib in range(1, 65)),
        processors=4,
        apps=("montecarlo",),
        app_params={"montecarlo": {"samples": 5000}},
        seeds=(seed,),
    )


class ServiceSpecs(object):
    """The specs one service user submits, in order.

    Each run evaluates one platform under one shared seed (0 or 1: the
    disk cache serves it once warm) and one fresh seed no earlier run
    used (always simulated): 54 jobs, about half of them cache hits after
    warm-up.  The (platform, shared seed) pairs are dealt from a deck
    reshuffled with the workload seed whenever it runs out, so every
    seed orders the pairs differently but mixes them in equal shares.
    """

    def __init__(self, seed: int, user_index: int) -> None:
        from repro.hardware.catalog import PLATFORM_NAMES

        self._pairs = [(platform, shared) for platform in PLATFORM_NAMES for shared in (0, 1)]
        self._deck = []
        self._rng = random.Random("service_mixed:%d:%d" % (seed, user_index))
        self._fresh = 2 + (seed % 1000) * 1_000_000 + user_index * 100_000
        self.submitted = 0

    @property
    def deck_size(self) -> int:
        """How many runs it takes to deal every (platform, shared seed) pair."""
        return len(self._pairs)

    def next(self):
        from repro.core.spec import EvaluationSpec

        if not self._deck:
            self._deck = list(self._pairs)
            self._rng.shuffle(self._deck)
        platform, shared = self._deck.pop()
        fresh = self._fresh + self.submitted
        self.submitted += 1
        return EvaluationSpec(
            platforms=(platform,),
            seeds=(shared, fresh),
            tpl_sizes=(1024, 16384),
            global_sum_ints=2000,
            apps=("montecarlo", "psrs"),
            app_params={"montecarlo": {"samples": 20_000}, "psrs": {"keys": 10_000}},
        )
