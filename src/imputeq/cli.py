"""Command-line interface.

Subcommands cover the full workflow: assess feature quality, derive a
dependency dictionary, fit and apply an imputation pipeline, audit how
detectable the imputations are, size a multiple-imputation run, and render
the quality chart.  Outputs are JSON/CSV/SVG files written atomically;
errors land on stderr as one JSON object with a matching exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .audit import (
    audit_all,
    audit_matrix_csv,
    pipeline_strategy,
    single_imputer_strategy,
)
from .config import (
    apply_overrides,
    document_paths,
    graph_limits,
    load_json_file,
    parse_config_dict,
)
from .depgraph import (
    build_dependency_graph,
    transitive_dependencies,
    validate_dependency_dict,
)
from .engine import (
    AssessConfig,
    QualityRecord,
    apply_pipeline,
    assess,
    deserialize_pipeline,
    document_body,
    fit_pipeline,
    recommend_imputations,
    records_to_jsonable,
    serialize_pipeline,
)
from .errors import (
    CorruptModel,
    DataIoError,
    DegenerateInput,
    InvalidArgument,
    InvalidFoldCount,
    ParseError,
    RaggedRows,
    SchemaError,
    SchemaMismatch,
    UntrainableImputer,
    VersionMismatch,
)
from .report import (
    DOC_SCHEMA_VERSION,
    QUALITY_FORMAT,
    audit_document,
    column_summary,
    dumps_canonical,
    emit_quality_svg,
    from_jsonable,
    quality_document,
    quality_summary_text,
    write_bytes_atomic,
)
from .table import (
    DEFAULT_MISSING_SENTINELS,
    Table,
    infer_column_kinds,
    label_encode,
    load_csv,
    write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_CONFIG_ERRORS = (InvalidArgument, InvalidFoldCount)  # SchemaError is one
_DATA_ERRORS = (
    DataIoError,
    ParseError,
    RaggedRows,
    SchemaMismatch,
    CorruptModel,
    VersionMismatch,
    DegenerateInput,
    UntrainableImputer,
)


def _config_from_args(args) -> tuple[dict, AssessConfig]:
    """The validated config document, and its engine config under the
    --seed and --threshold flags."""
    doc = load_json_file(args.config, "config",
                         lambda msg: SchemaError("$", msg))
    config = apply_overrides(
        parse_config_dict(doc),
        seed=args.seed,
        threshold=getattr(args, "threshold", None),
    )
    return doc, config


def _sentinels(doc: dict) -> tuple[str, ...]:
    return tuple(doc.get("data", {}).get("missing_sentinels",
                                         DEFAULT_MISSING_SENTINELS))


def _load_table(doc: dict, args) -> Table:
    """The table at --data, or else at the document's data.path."""
    path = doc.get("data", {}).get("path") if args.data is None else args.data
    if not path:
        raise SchemaError("data.path", "no data file given (config or --data)")
    t = load_csv(path, missing_sentinels=_sentinels(doc))
    t = label_encode(t)
    return infer_column_kinds(t)


def _graph_spec(doc: dict, config: AssessConfig) -> tuple[object, dict]:
    """The document's dependency_graph as None, "auto", a file path or an
    inline predecessor dict, and the build_dependency_graph keyword
    arguments, which {"type": "auto", ...} may set."""
    spec, kwargs = doc.get("dependency_graph"), {"seed": config.seed}
    if isinstance(spec, dict) and spec.get("type") == "auto":
        kwargs.update(graph_limits(spec))
        spec = "auto"
    return spec, kwargs


def _with_dependencies(doc: dict, config: AssessConfig,
                       t: Table) -> AssessConfig:
    """`config` with the document's dependency_graph resolved against t."""
    deps, kwargs = _graph_spec(doc, config)
    if deps == "auto":
        deps = transitive_dependencies(build_dependency_graph(t, **kwargs))
    elif isinstance(deps, str):
        deps = load_json_file(deps, "dependency file",
                              lambda msg: SchemaError("dependency_graph", msg))
    with document_paths():
        config = replace(config, dependencies=deps)
    if deps is not None:
        validate_dependency_dict(deps, t.column_names)
    return config


def cmd_assess(args) -> int:
    doc, config = _config_from_args(args)
    t = _load_table(doc, args)
    records = assess(t, _with_dependencies(doc, config, t))
    quality = quality_document(
        records_to_jsonable(records),
        threshold=config.threshold,
        columns=column_summary(t),
    )
    write_bytes_atomic(args.out, dumps_canonical(quality))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_graph(args) -> int:
    doc, config = _config_from_args(args)
    t = _load_table(doc, args)
    graph = build_dependency_graph(t, **_graph_spec(doc, config)[1])
    deps = transitive_dependencies(graph)
    write_bytes_atomic(args.out, dumps_canonical(deps))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    doc, config = _config_from_args(args)
    t = _load_table(doc, args)
    config = _with_dependencies(doc, config, t)
    records = assess(t, config)
    plan = replace(fit_pipeline(t, records, config),
                   missing_sentinels=_sentinels(doc))
    write_bytes_atomic(args.out, serialize_pipeline(plan))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_apply(args) -> int:
    try:
        with open(args.pipeline, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataIoError(f"cannot read pipeline {args.pipeline!r}: {exc}")
    plan = deserialize_pipeline(blob)
    t = load_csv(args.data, missing_sentinels=plan.missing_sentinels)
    out = apply_pipeline(plan, t)
    write_csv(out, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_audit(args) -> int:
    doc, config = _config_from_args(args)
    ids = [spec.id for spec in config.imputers]
    if "iqa" in ids:
        raise SchemaError(f"imputers[{ids.index('iqa')}].id",
                          "'iqa' names the pipeline strategy in an audit")
    t = _load_table(doc, args)
    acfg = _with_dependencies(doc, config, t)
    try:
        levels = [float(s) for s in args.levels.split(",") if s.strip()]
    except ValueError:
        raise InvalidArgument(f"cannot parse levels {args.levels!r}")
    if not levels:
        raise InvalidArgument("at least one missingness level is required")

    # the full pipeline (assess, fit, apply per train fold) runs as "iqa"
    strategies = {
        spec.id: single_imputer_strategy(spec.family, spec.params)
        for spec in acfg.imputers
    }
    strategies["iqa"] = pipeline_strategy(acfg)
    reports = audit_all(t, strategies, levels, seed=acfg.seed)

    if args.format == "csv":
        write_bytes_atomic(args.out, audit_matrix_csv(reports).encode())
    else:
        doc = audit_document([r.to_jsonable() for r in reports])
        write_bytes_atomic(args.out, dumps_canonical(doc))
    if args.tables:
        write_bytes_atomic(args.tables, audit_matrix_csv(reports).encode())
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_recommend_m(args) -> int:
    print(recommend_imputations(args.gamma, args.efficiency))
    return EXIT_OK


# the fields of a records document; `columns` is written only when given
_RECORDS_FIELDS = {"threshold": float | None,
                   "records": list[QualityRecord], "columns": list[dict]}


def cmd_report(args) -> int:
    body = document_body(load_json_file(args.records, "records", CorruptModel),
                         QUALITY_FORMAT, DOC_SCHEMA_VERSION, {"columns": []})
    if args.threshold is not None and not 0.0 <= args.threshold <= 1.0:
        raise SchemaError("threshold", "expected a number in [0, 1]")
    try:
        values = from_jsonable(_RECORDS_FIELDS, body, "")
    except SchemaError as exc:  # each record judges its own values
        raise CorruptModel(str(exc)) from exc
    records, threshold = values["records"], values["threshold"]
    if threshold is not None and not 0.0 <= threshold <= 1.0:
        raise CorruptModel("threshold: expected a number in [0, 1]")
    if not records:
        raise DegenerateInput("no records to draw")
    write_bytes_atomic(args.out, emit_quality_svg(
        records, threshold if args.threshold is None else args.threshold))
    print(quality_summary_text(records))
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imputeq",
        description=(
            "Assess per-feature imputation quality, fit reusable imputation "
            "pipelines, and audit how detectable the imputed values are."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="score features and pick imputers")
    p.add_argument("--config", required=True)
    p.add_argument("--data", help="overrides the config's data path")
    p.add_argument("--out", default="quality_records.json")
    p.add_argument("--seed", type=int)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("graph", help="derive the dependency dictionary")
    p.add_argument("--config", required=True)
    p.add_argument("--data")
    p.add_argument("--out", default="dependency_dict.json")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("fit", help="assess and fit an imputation pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--data")
    p.add_argument("--out", default="pipeline.json")
    p.add_argument("--seed", type=int)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("apply", help="impute a dataset with a fitted pipeline")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="imputed.csv")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("audit", help="measure imputation detectability")
    p.add_argument("--config", required=True)
    p.add_argument("--data")
    p.add_argument("--out", default="audit_report.json")
    p.add_argument("--levels", default="0",
                   help="comma-separated missingness fractions")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--tables", help="also write the per-level CSV matrix here")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "recommend-m", aliases=["recommend_m"],
        help="smallest imputation count reaching a target efficiency",
    )
    p.add_argument("--gamma", type=float, required=True,
                   help="fraction of missing information in [0, 1]")
    p.add_argument("--efficiency", type=float, required=True,
                   help="target relative efficiency in (0, 1)")
    p.set_defaults(func=cmd_recommend_m)

    p = sub.add_parser("report", help="render the SVG quality chart")
    p.add_argument("--records", default="quality_records.json")
    p.add_argument("--out", default="quality_chart.svg")
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_report)

    return parser


def _emit_error(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SchemaError):
        payload["path"] = exc.path
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        return _emit_error(exc, EXIT_CONFIG)
    except _DATA_ERRORS as exc:
        return _emit_error(exc, EXIT_DATA)
    except Exception as exc:  # other ImputeQErrors and defects alike
        return _emit_error(exc, EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
