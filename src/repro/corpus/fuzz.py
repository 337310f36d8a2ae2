"""Backend-agreement fuzzing over generated workloads.

:func:`fuzz_workload` replays a generated workload's bounded + randomized
invocation sequences through both execution backends (the interpreter
reference and the compiled engine) on *both* the source program and its
composed oracle, and flags:

* **canonical-output divergence** — two backends return different
  canonicalized outputs for the same (program, sequence);
* **error-semantics divergence** — backends disagree on whether a sequence
  raises, or raise different exception classes;
* **verdict divergence** — a backend's source-vs-oracle equivalence verdict
  differs from another backend's, or the source disagrees with its
  known-good oracle at all (the generated-oracle soundness property).

No synthesis runs here: fuzzing pins the execution/equivalence stack on
unbounded generated input, cheaply enough for CI.  Everything derives from
the master seed, so a red run replays with ``python -m repro.corpus fuzz
--seed <S> --count <N>``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.engine.compiler import ProgramCompiler, make_loader
from repro.equivalence.invocation import SequenceGenerator, format_sequence
from repro.equivalence.result_compare import canonicalize_outputs
from repro.corpus.generator import CorpusConfig, GeneratedWorkload, generate_workload

#: The execution backends every workload must agree across.
ALL_BACKENDS = ("interpreter", "compiled")


@dataclass
class FuzzDivergence:
    """One disagreement, with everything needed to replay it."""

    workload: str
    seed: int
    kind: str  # "outputs" | "error" | "verdict"
    program: str  # "source" | "oracle" | "source-vs-oracle"
    sequence: str
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.kind}] workload {self.workload} (seed {self.seed}) "
            f"on {self.program}: {self.detail}\n  sequence: {self.sequence}"
        )


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzzing run, serializable for CI artifacts."""

    master_seed: int
    count: int
    backends: tuple[str, ...]
    workload_seeds: list[int] = field(default_factory=list)
    workloads: list[str] = field(default_factory=list)
    sequences_checked: int = 0
    divergences: list[FuzzDivergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "count": self.count,
            "backends": list(self.backends),
            "workload_seeds": self.workload_seeds,
            "workloads": self.workloads,
            "sequences_checked": self.sequences_checked,
            "ok": self.ok,
            "divergences": [vars(d) for d in self.divergences],
        }


def _outcome(load, program, sequence):
    """(canonical_outputs, error_class) — exactly one side is not ``None``."""
    try:
        return canonicalize_outputs(load(program).run_sequence(sequence)), None
    except Exception as error:  # noqa: BLE001 - error *class* is the datum
        return None, type(error).__name__


def fuzz_workload(
    workload: GeneratedWorkload,
    *,
    backends: Sequence[str] = ALL_BACKENDS,
    max_sequences: int = 40,
    random_sequences: int = 10,
) -> tuple[int, list[FuzzDivergence]]:
    """Replay one workload through all backends; returns (checked, divergences)."""
    source = workload.source_program
    oracle = workload.oracle_program
    compiler = ProgramCompiler()
    loaders = {name: make_loader(name, compiler) for name in backends}
    reference = backends[0]

    generator = SequenceGenerator(programs=[source, oracle])
    sequences = itertools.chain(
        itertools.islice(generator.sequences(), max_sequences),
        generator.random_sequences(
            random_sequences, max_length=4, rng=random.Random(workload.seed)
        ),
    )

    divergences: list[FuzzDivergence] = []

    def report(kind: str, program: str, sequence, detail: str) -> None:
        divergences.append(
            FuzzDivergence(
                workload.name, workload.seed, kind, program,
                format_sequence(sequence), detail,
            )
        )

    checked = 0
    for sequence in sequences:
        checked += 1
        verdicts: dict[str, Optional[bool]] = {}
        outcomes: dict[str, dict[str, tuple]] = {"source": {}, "oracle": {}}
        for name, load in loaders.items():
            outcomes["source"][name] = _outcome(load, source, sequence)
            outcomes["oracle"][name] = _outcome(load, oracle, sequence)

        # 1. Every backend must agree with the reference backend, per program.
        for label in ("source", "oracle"):
            expected_out, expected_err = outcomes[label][reference]
            for name in backends[1:]:
                actual_out, actual_err = outcomes[label][name]
                if expected_err != actual_err:
                    report(
                        "error", label, sequence,
                        f"{reference} -> {expected_err or 'no error'}, "
                        f"{name} -> {actual_err or 'no error'}",
                    )
                elif actual_out != expected_out:
                    report(
                        "outputs", label, sequence,
                        f"canonical outputs differ between {reference} and {name}",
                    )

        # 2. Source must agree with its known-good oracle, identically on
        #    every backend (the verdict, not just the reference's opinion).
        for name in backends:
            source_out, source_err = outcomes["source"][name]
            oracle_out, oracle_err = outcomes["oracle"][name]
            if source_err is not None or oracle_err is not None:
                verdicts[name] = source_err == oracle_err
            else:
                verdicts[name] = source_out == oracle_out
            if not verdicts[name]:
                report(
                    "verdict", "source-vs-oracle", sequence,
                    f"backend {name}: source and oracle diverge "
                    f"(source error {source_err}, oracle error {oracle_err})",
                )
        if len(set(verdicts.values())) > 1:
            report(
                "verdict", "source-vs-oracle", sequence,
                f"backends disagree on the equivalence verdict: {verdicts}",
            )
    return checked, divergences


def fuzz_corpus(
    seed: int,
    count: int,
    config: CorpusConfig = CorpusConfig(),
    *,
    backends: Sequence[str] = ALL_BACKENDS,
    max_sequences: int = 40,
    random_sequences: int = 10,
) -> FuzzReport:
    """Fuzz *count* workloads derived from master *seed*; fully deterministic."""
    report = FuzzReport(seed, count, tuple(backends))
    master = random.Random(seed)
    for _ in range(count):
        workload_seed = master.randrange(2**32)
        workload = generate_workload(workload_seed, config)
        report.workload_seeds.append(workload_seed)
        report.workloads.append(workload.name)
        checked, divergences = fuzz_workload(
            workload,
            backends=backends,
            max_sequences=max_sequences,
            random_sequences=random_sequences,
        )
        report.sequences_checked += checked
        report.divergences.extend(divergences)
    return report
