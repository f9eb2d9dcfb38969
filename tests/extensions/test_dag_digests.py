"""Pinned outputs of ``simulate_dag`` for the three factorization DAGs.

Each digest is the sha256 of a canonical JSON of one run: total blocks,
per-worker blocks and tasks, ``repr`` of the makespan and idle time, and
the whole schedule.  They pin the engine and both schedulers before any
optimisation of ext01, which must leave every one unchanged.  Everything a
run computes is integers or plain float division and addition (no SIMD
transcendental), so the digests do not depend on the host CPU.
"""

import hashlib
import json

import pytest

from repro.extensions.cholesky.dag import CholeskyDag
from repro.extensions.dagsched import LocalityScheduler, RandomScheduler, simulate_dag
from repro.extensions.lu.dag import LuDag
from repro.extensions.qr.dag import QrDag
from repro.platform import Platform, uniform_speeds

DAGS = {"cholesky": CholeskyDag, "qr": QrDag, "lu": LuDag}
SCHEDULERS = {"random": RandomScheduler, "locality": LocalityScheduler}

DIGESTS = {
    ("cholesky", "random", 4): "8e979a0970a3e4052398f81ed23c4444b6d52423641ae6315d82995e0991377e",
    ("cholesky", "random", 6): "ac0827c0a11b61fda1329b46608f70a9061f5cefc3f3e0e1bc1dfc02a1f218e4",
    ("cholesky", "random", 9): "080ac93602fd551fa59ede3ebfe220374841c113d9ad4e84bd9da85998c1754d",
    ("cholesky", "locality", 4): "797baa671608886cf414ec638382f4777ac35961eb321bb942c482692203fa05",
    ("cholesky", "locality", 6): "823829ef86559442383eb600c284f92cfa5edd81b25aace12cc9cd6f3ba0f1bf",
    ("cholesky", "locality", 9): "0d211d6916c3c366607e29d08c3716bdbf97a2f193ef8b49ab23a9a97db3a531",
    ("qr", "random", 4): "6e6ed22c4cc90226eb1c5b5d457c7322616bac16f4b4e550ba72ffa5d4eb39bc",
    ("qr", "random", 6): "cc9f37d81c3257e2f06e85e8a1efffcaa56b9601992c9834a0904914552d378e",
    ("qr", "random", 9): "3946a198126b8ddb793ee37680444a159667a3de38893f18989f950f89669e6e",
    ("qr", "locality", 4): "f9efc41ff7b6fc6bf6061ee141ab8125652949b7aa82778125f3f61f2f289584",
    ("qr", "locality", 6): "c19799a04f3e015559fb465664fb832c272cf0fba3d66ab874b53a06ebd86842",
    ("qr", "locality", 9): "58541bcc9fe0315770cdf3a226827105109b1e01fc19c1cc614c8d3cd9aff56d",
    ("lu", "random", 4): "30d3e1084cebe8faeebcf6d4aa77f799e36ef363878074ddea217f926247c0c5",
    ("lu", "random", 6): "bc4102f68c97cc7dc793e1e5d6df5d7730594020fbe79763c317794fdfd38377",
    ("lu", "random", 9): "6d88d77fcd66e53750f15615d052d8a5b73adb0a805619810123ea99f6809fb7",
    ("lu", "locality", 4): "23262d467d919705681cc894e8d0d692ffea451a74ab2b3ffb669f4ba2b0e286",
    ("lu", "locality", 6): "838dc3fef84d5f5fabaafa3b3cbfb16f7cde94401f838a18f1b374d0bd5e4864",
    ("lu", "locality", 9): "282647d4d14ec35601faf31f784dfbb468545fe7afe1068a3a67b8b59fd630e9",
}


def _digest(result):
    payload = {
        "total_blocks": result.total_blocks,
        "per_worker_blocks": result.per_worker_blocks.tolist(),
        "per_worker_tasks": result.per_worker_tasks.tolist(),
        "makespan": repr(result.makespan),
        "idle_time": repr(result.idle_time),
        "schedule": [[repr(start), worker, task] for start, worker, task in result.schedule],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("kind,scheduler,tiles", sorted(DIGESTS))
def test_simulate_dag_digest(kind, scheduler, tiles):
    platform = Platform(uniform_speeds(5, 10, 100, rng=3))
    result = simulate_dag(DAGS[kind](tiles), platform, SCHEDULERS[scheduler](), rng=11)
    assert _digest(result) == DIGESTS[(kind, scheduler, tiles)]
