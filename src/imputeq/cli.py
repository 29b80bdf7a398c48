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
from .config import Config, apply_overrides, load_json_file, parse_config
from .depgraph import (
    build_dependency_graph,
    transitive_dependencies,
    validate_dependency_dict,
)
from .engine import (
    AssessConfig,
    apply_pipeline,
    assess,
    deserialize_pipeline,
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
    quality_document,
    quality_summary_text,
    write_bytes_atomic,
)
from .table import Table, infer_column_kinds, label_encode, load_csv, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_CONFIG_ERRORS = (SchemaError, InvalidArgument, InvalidFoldCount)
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


def _load_table(config: Config) -> Table:
    if not config.data_path:
        raise SchemaError("data.path", "no data file given (config or --data)")
    t = load_csv(config.data_path, missing_sentinels=config.missing_sentinels)
    t = label_encode(t)
    return infer_column_kinds(t)


def _graph_kwargs(config: Config) -> dict:
    """build_dependency_graph keyword arguments from the config."""
    kwargs = {"seed": config.assess.seed}
    if config.graph_top_n is not None:
        kwargs["top_n"] = config.graph_top_n
    if config.graph_min_importance is not None:
        kwargs["min_importance"] = config.graph_min_importance
    return kwargs


def _resolve_dependencies(config: Config, t: Table):
    """Turn the config's dependency_graph field into a predecessor dict."""
    spec = config.dependency_graph
    if spec is None:
        return None
    if isinstance(spec, dict):
        validate_dependency_dict(spec, t.column_names)
        return spec
    if spec == "auto":
        graph = build_dependency_graph(t, **_graph_kwargs(config))
        return transitive_dependencies(graph)
    doc = load_json_file(spec, "dependency file",
                         lambda msg: SchemaError("dependency_graph", msg))
    if not isinstance(doc, dict) or not all(
        isinstance(v, list) for v in doc.values()
    ):
        raise SchemaError("dependency_graph",
                          "expected a feature -> predecessors object")
    deps = {k: [str(p) for p in v] for k, v in doc.items()}
    validate_dependency_dict(deps, t.column_names)
    return deps


def _assess_config(config: Config, t: Table) -> AssessConfig:
    """The engine config with the dependency spec resolved against t."""
    return replace(config.assess, dependencies=_resolve_dependencies(config, t))


def _config_from_args(args) -> Config:
    config = parse_config(args.config)
    return apply_overrides(
        config,
        data=getattr(args, "data", None),
        seed=getattr(args, "seed", None),
        threshold=getattr(args, "threshold", None),
    )


def cmd_assess(args) -> int:
    config = _config_from_args(args)
    t = _load_table(config)
    records = assess(t, _assess_config(config, t))
    doc = quality_document(
        records_to_jsonable(records),
        threshold=config.assess.threshold,
        columns=column_summary(t),
    )
    write_bytes_atomic(args.out, dumps_canonical(doc))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_graph(args) -> int:
    config = _config_from_args(args)
    t = _load_table(config)
    graph = build_dependency_graph(t, **_graph_kwargs(config))
    deps = transitive_dependencies(graph)
    write_bytes_atomic(args.out, dumps_canonical(deps))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    config = _config_from_args(args)
    t = _load_table(config)
    acfg = _assess_config(config, t)
    records = assess(t, acfg)
    plan = replace(fit_pipeline(t, records, acfg),
                   missing_sentinels=config.missing_sentinels)
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
    config = _config_from_args(args)
    ids = [spec.id for spec in config.assess.imputers]
    if "iqa" in ids:
        raise SchemaError(f"imputers[{ids.index('iqa')}].id",
                          "'iqa' names the pipeline strategy in an audit")
    t = _load_table(config)
    acfg = _assess_config(config, t)
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


def _number_in(v, lo: float, hi: float) -> bool:
    """Whether `v` is a JSON number (not true or false) in [lo, hi]."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and lo <= v <= hi)


def _check_records(records) -> None:
    """Raise CorruptModel unless `records` is a list of quality records,
    each with the fields that the chart and the summary read."""
    if not isinstance(records, list):
        raise CorruptModel("records is not a list")
    for i, r in enumerate(records):
        if not (isinstance(r, dict)
                and all(_number_in(r.get(k), 0.0, 1.0)
                        for k in ("completeness", "delta", "omega"))
                and all(isinstance(r.get(k), str)
                        for k in ("feature", "chosen_imputer"))
                and isinstance(r.get("imputers", []), list)
                and all(isinstance(e, dict) and "id" in e and (
                    e.get("delta_std") is None
                    or _number_in(e["delta_std"], 0.0, sys.float_info.max))
                    for e in r.get("imputers", []))):
            raise CorruptModel(f"record {i} is malformed")


def cmd_report(args) -> int:
    doc = load_json_file(args.records, "records", CorruptModel)
    if not isinstance(doc, dict):
        raise CorruptModel("records file is not a JSON object")
    if doc.get("format") != QUALITY_FORMAT:
        raise VersionMismatch(
            f"not a quality-records file (format={doc.get('format')!r})"
        )
    if doc.get("schema_version") != DOC_SCHEMA_VERSION:
        raise VersionMismatch(
            f"unsupported schema_version {doc.get('schema_version')!r}"
        )
    if args.threshold is not None and not 0.0 <= args.threshold <= 1.0:
        raise SchemaError("threshold", "expected a number in [0, 1]")
    records = doc.get("records", [])
    _check_records(records)
    if not records:
        raise DegenerateInput("no records to draw")
    threshold = args.threshold if args.threshold is not None else (
        doc.get("threshold")
    )
    if not (threshold is None or _number_in(threshold, 0.0, 1.0)):
        raise CorruptModel("records threshold is not a number in [0, 1]")
    write_bytes_atomic(args.out, emit_quality_svg(records, threshold))
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
