"""Command-line front of the corpus subsystem.

* ``python -m repro.corpus ingest schema.sql`` — parse a DDL dump, print the
  ingest report and the recovered schema (optionally re-emit canonical DDL).
* ``python -m repro.corpus generate --seed 7 --count 3`` — print generated
  workloads: schema shape, refactoring steps, oracle sizes.
* ``python -m repro.corpus fuzz --seed 7 --count 25`` — replay seeded
  workloads through both execution backends; exits non-zero and names
  the seed + sequence on any divergence.  ``--seed-list`` writes a JSON
  replay artifact (the CI ``corpus-smoke`` job archives it).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.corpus.ddl import DdlError, emit_ddl, ingest_ddl
from repro.corpus.fuzz import ALL_BACKENDS, fuzz_corpus
from repro.corpus.generator import CorpusConfig, generate_corpus


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tables", type=int, help="pin the schema width (tables)")
    parser.add_argument("--columns", type=int, help="pin the table depth (columns)")
    parser.add_argument("--steps", type=int, help="refactoring steps per workload")
    parser.add_argument("--functions", type=int, help="CRUD program size")
    parser.add_argument(
        "--fk-density", type=float, help="probability of a foreign-key link"
    )


def _config_from(args: argparse.Namespace) -> CorpusConfig:
    config = CorpusConfig()
    if args.fk_density is not None:
        config = CorpusConfig(fk_density=args.fk_density)
    return config.scaled(
        tables=args.tables,
        columns=args.columns,
        steps=args.steps,
        functions=args.functions,
    )


def _cmd_ingest(args: argparse.Namespace) -> int:
    text = Path(args.file).read_text()
    try:
        schema, report = ingest_ddl(
            text, name=args.name, infer_foreign_keys=not args.no_infer_fk
        )
    except DdlError as error:
        print(f"ingest failed: {error}", file=sys.stderr)
        return 1
    print(f"ingested {args.file}: {report.summary()}")
    print(schema.describe())
    for fk in schema.foreign_keys:
        print(f"  fk: {fk}")
    if report.skipped_statements:
        print(f"skipped: {', '.join(report.skipped_statements)}")
    if args.emit:
        print()
        print(emit_ddl(schema), end="")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    config = _config_from(args)
    for workload in generate_corpus(args.seed, args.count, config):
        source = workload.source_program
        print(
            f"{workload.name}: {source.schema.num_tables()} tables, "
            f"{source.schema.num_attributes()} attrs, "
            f"{source.num_functions()} functions"
        )
        for index, described in enumerate(workload.describe_steps(), 1):
            print(f"  step {index}: {described}")
        target = workload.target_schema
        print(
            f"  target: {target.num_tables()} tables, {target.num_attributes()} attrs"
        )
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    config = _config_from(args)
    report = fuzz_corpus(
        args.seed,
        args.count,
        config,
        backends=tuple(args.backends),
        max_sequences=args.max_sequences,
        random_sequences=args.random_sequences,
    )
    if args.seed_list:
        Path(args.seed_list).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"seed list written to {args.seed_list}")
    print(
        f"fuzzed {report.count} workloads (master seed {report.master_seed}) "
        f"across {', '.join(report.backends)}: "
        f"{report.sequences_checked} sequences checked"
    )
    if report.ok:
        print("all backends agree; every source matches its oracle")
        return 0
    print(f"{len(report.divergences)} DIVERGENCES:", file=sys.stderr)
    for divergence in report.divergences:
        print(str(divergence), file=sys.stderr)
    print(
        f"replay with: python -m repro.corpus fuzz --seed {report.master_seed} "
        f"--count {report.count}",
        file=sys.stderr,
    )
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.corpus",
        description="DDL ingest, workload generation, and backend fuzzing.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="parse a SQL-DDL dump into a schema")
    ingest.add_argument("file", help="path to the DDL dump")
    ingest.add_argument("--name", default="ingested", help="schema name")
    ingest.add_argument(
        "--no-infer-fk", action="store_true", help="disable foreign-key inference"
    )
    ingest.add_argument(
        "--emit", action="store_true", help="re-emit the schema as canonical DDL"
    )
    ingest.set_defaults(func=_cmd_ingest)

    generate = commands.add_parser("generate", help="print seeded generated workloads")
    generate.add_argument("--seed", type=int, default=0, help="master seed")
    generate.add_argument("--count", type=int, default=3, help="workloads to generate")
    _add_config_arguments(generate)
    generate.set_defaults(func=_cmd_generate)

    fuzz = commands.add_parser(
        "fuzz", help="replay seeded workloads through all execution backends"
    )
    fuzz.add_argument("--seed", type=int, default=0, help="master seed")
    fuzz.add_argument("--count", type=int, default=25, help="workloads to fuzz")
    fuzz.add_argument(
        "--backends",
        nargs="+",
        default=list(ALL_BACKENDS),
        choices=list(ALL_BACKENDS),
        help="execution backends to compare",
    )
    fuzz.add_argument(
        "--max-sequences", type=int, default=40, help="bounded sequences per workload"
    )
    fuzz.add_argument(
        "--random-sequences", type=int, default=10,
        help="randomized sequences per workload",
    )
    fuzz.add_argument(
        "--seed-list", help="write the JSON replay artifact to this path"
    )
    _add_config_arguments(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
