"""Golden synthesis trajectories: the search must make the same decisions.

For every Table 1 workload and every ``rename-search`` job of the end-to-end
benchmark (the column-0 rename variant of Ambler-3/5/6/7/8 and gallery), the
default-config ``migrate`` run is pinned to recorded values of::

    (status, value_correspondences_tried, iterations,
     sha256(format_program(program)))

Compiled and interpreter synthesis share one SAT solver, one encoder and one
completion loop, so ``test_synthesis_trajectory_matches_interpreter`` cannot
see a change that alters which model the solver returns or which candidate a
completion iteration builds.  These constants can: they guard the search's
decisions, and a performance change to the search (SAT internals,
instantiation, sketch generation) must leave all 26 trajectories unchanged.

The pins moved once, when the enumerator began skipping value
correspondences that agree with a learned nogood (ROADMAP item 2's pin
policy; CHANGES.md lists each old -> new).  Runs that solve at their first
correspondence cannot change that way, and their 20 pins (the 19 such
Table 1 workloads and Ambler-7/r0) stayed byte-identical.  Ambler-5 and
four rename jobs try fewer correspondences, and Ambler-8/r0 and gallery/r0
now solve.

A tier-1 run checks a slice (two multi-VC Table 1 workloads, one searching
and one exhausted rename job); ``REPRO_FULL_EQUIV=1`` checks all 26.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.core import SynthesisConfig, migrate
from repro.lang.pretty import format_program
from repro.workloads import get_benchmark, rename_variants

FULL_EQUIV = os.environ.get("REPRO_FULL_EQUIV") == "1"

#: job id -> (status, VCs tried, iterations, sha256 of the formatted program).
#: A ``/r0`` suffix names the column-0 rename variant of the registry target.
GOLDEN = {
    "Oracle-1": ("OK", 1, 1,
        "32ec5af0d51c988d2a82694b4664f60184b9eeb0f404af61023a8df73f6f8444"),
    "Oracle-2": ("OK", 1, 7,
        "a1531fae1a7a01597164a629e272bdd1b3dc082c48718609651e0f3c9efd7ab1"),
    "Ambler-1": ("OK", 1, 4,
        "a36c1f116a6399d6da849ac3f1d31ae0310e0ef683a0b86829063a811b606e92"),
    "Ambler-2": ("OK", 1, 1,
        "3e54dcb796344ad50f14dc6776a26c97e7b0a3521ca0cb357eb25c56e06cca9c"),
    "Ambler-3": ("OK", 1, 4,
        "e9bc6b076515fc94faa56e673e62080d674a71eb0d2fa575aa575ceeaad7a34b"),
    "Ambler-4": ("OK", 1, 1,
        "48e66485b3549f3a437a806e609369b4403aec9f37f3dda43e68ed968914f7ce"),
    "Ambler-5": ("OK", 4, 27,
        "6814b5cd1129e0f1f6fd7bf74c68ad86a21f3cc3464d1b57e9bc9a635fae60a1"),
    "Ambler-6": ("OK", 1, 1,
        "5660b3ea3e792eb6e879e4be1f7c3b86b5630001bfee047b7ea78d0219604b14"),
    "Ambler-7": ("OK", 1, 1,
        "9e94b9c3975b4b709f98bbc1e08fe15eaeae4196906e0ff869e3bbe795f80735"),
    "Ambler-8": ("OK", 1, 1,
        "7931dbb8fab633d7d34cdf0e116cf2c7f69559cc2e43dbc213fcc4614faf1fa9"),
    "cdx": ("OK", 1, 1,
        "e5f49dc6fef62da88304ee2e0878f530889d9be1952b473e38f6c5def5ae6e41"),
    "coachup": ("OK", 1, 2,
        "bb60b0f953e4f0e86cfa141f026a5e6df0d0c1d9f1bedb6717931a23814e58d6"),
    "2030Club": ("OK", 1, 17,
        "f291070c8689831859a154974531ad0eef00efb3d8cbbbfaff52761dd16165a1"),
    "rails-ecomm": ("OK", 1, 3,
        "94dc2a7ea141b1006a54d0631a73a06cbbf01bc21a1d756d904b3aec42ac0bee"),
    "royk": ("OK", 1, 1,
        "ca6f6a6381f742d8d804fcd21f910ea3b872ca00fd0922f3597a214e8fba1480"),
    "MathHotSpot": ("OK", 1, 2,
        "292a211411dd892a8c3402fa09a1976b274a3d30901730150fb4e3cffb5724a7"),
    "gallery": ("OK", 1, 2,
        "d1b5906f24e03faa343b229c32eddbf5bd4156c192547cc94cb1dd203fc28d13"),
    "DeeJBase": ("OK", 1, 1,
        "2b71f6638afb6fedabb81875762e2de5a87bf9cc8a054bf8e3f43ab38e236a38"),
    "visible-closet": ("OK", 1, 1,
        "1ab24b07493c80e2f789dff26d13b35c1dcdfbd285446c38fb023585fd81ca46"),
    "probable-engine": ("OK", 1, 1,
        "549e92e6402215801e2f59448049d4f71427ce9c569670e8694758fa502d16a8"),
    "Ambler-3/r0": ("OK", 2, 9,
        "2475a4c9b82c33a2a0353aa083d4d84f56e3470f470242f48a86df658ebf1b12"),
    "Ambler-5/r0": ("OK", 10, 121,
        "c6da49aded44a1680e127e98269d8ba88ac4b7b517cf0f4a4850194b8035f034"),
    "Ambler-6/r0": ("FAILED", 64, 46, None),
    "Ambler-7/r0": ("OK", 4, 7,
        "e5e248099f586555dcf2edf83aca02ee89a01cdd5aef2c295e4a518c8c6f0cb1"),
    "Ambler-8/r0": ("OK", 8, 105,
        "85828960f1e226671548acdc940a2e9780c338b27f7979f2fa5e88d404900fb1"),
    "gallery/r0": ("OK", 4, 114,
        "8821f51622853e363d3aac737e7afecfcc1a71042a8bc032a7f1bfc2f54e179f"),
}

SLICE = ["2030Club", "Ambler-5", "Ambler-5/r0", "Ambler-6/r0"]


def trajectory(job: str) -> tuple:
    """The pinned tuple of one default-config ``migrate`` run of *job*."""
    name, _, variant = job.partition("/")
    benchmark = get_benchmark(name)
    target = benchmark.target_schema
    if variant:
        target = rename_variants(target, 1)[0]
    result = migrate(benchmark.source_program, target, SynthesisConfig())
    digest = (
        hashlib.sha256(format_program(result.program).encode()).hexdigest()
        if result.program is not None
        else None
    )
    return (result.status, result.value_correspondences_tried, result.iterations, digest)


def test_golden_covers_every_benchmark_job():
    from repro.eval.table1 import TABLE1_ORDER

    renames = [f"{name}/r0" for name in
               ("Ambler-3", "Ambler-5", "Ambler-6", "Ambler-7", "Ambler-8", "gallery")]
    assert sorted(GOLDEN) == sorted([*TABLE1_ORDER, *renames])
    assert set(SLICE) <= set(GOLDEN)


@pytest.mark.parametrize("job", sorted(GOLDEN) if FULL_EQUIV else SLICE)
def test_trajectory_matches_golden(job):
    assert trajectory(job) == GOLDEN[job]
