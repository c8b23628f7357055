"""Command-line interface.

    qflatlab analyze --spec FILE [--out FILE] [--seed N]
    qflatlab verify [--filter STR] [--json]
    qflatlab sweep --param NAME --values CSV --spec FILE [--out FILE]
    qflatlab gallery list

Exit codes: 0 success, 1 input error, 2 numeric failure, 3 verification
failures present.  Inconclusive verdicts are not failures: analyze exits 0
whenever the report was produced.
"""

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from .constants import sphere_constants
from .errors import InputError, QflatError
from .fields import Dimension, RadialProfile, ScalarField, field_from_expression
from .gallery import gallery, gallery_entries
from .geometry import MetricContext, distance_growth_exponent
from .normality import AnalysisConfig, analyze_normality, canonical_json
from .verification import run_verification_suite

SPEC_SCHEMA = {
    "type": "object",
    "required": ["n", "kind"],
    "properties": {
        "n": {"type": "integer"},
        "kind": {"enum": ["builtin", "expression", "radial-table"]},
        "name": {"type": "string"},
        "params": {"type": "object"},
        "u": {"type": "string"},
        "nodes": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"},
                      "minItems": 2, "maxItems": 2},
            "minItems": 4,
        },
    },
    "additionalProperties": False,
}

_KIND_REQUIRES = {"builtin": "name", "expression": "u", "radial-table": "nodes"}


def validate_spec_document(doc):
    from jsonschema import Draft202012Validator  # kept out of `import qflatlab`

    validator = Draft202012Validator(SPEC_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        msgs = "; ".join(f"{e.json_path}: {e.message}" for e in errors)
        raise InputError(f"spec document invalid: {msgs}")
    needed = _KIND_REQUIRES[doc["kind"]]
    if needed not in doc:
        raise InputError(f"spec document invalid: $.{needed}: required for "
                         f"kind {doc['kind']!r}")
    if doc["n"] < 2 or doc["n"] % 2 != 0:
        raise InputError(f"spec document invalid: $.n: must be an even "
                         f"integer >= 2, got {doc['n']}")
    return doc


def context_from_document(doc) -> MetricContext:
    """The metric of a document.  params.completeness_hint, when given, is
    a boolean recorded on the context of every kind; the other params are
    builtin parameters."""
    validate_spec_document(doc)
    n = int(doc["n"])
    dim = Dimension(n)
    sphere_constants(n)   # DimensionError when n is too large for doubles
    params = dict(doc.get("params") or {})
    hint = params.pop("completeness_hint", None)
    if hint is not None and not isinstance(hint, bool):
        raise InputError(f"spec document invalid: $.params.completeness_hint: must be "
                         f"true or false, got {hint!r}")
    kind = doc["kind"]
    if kind == "builtin":
        ctx = gallery(doc["name"], params, dim)
        return ctx if hint is None else dataclasses.replace(ctx, completeness_hint=hint)
    if params:
        raise InputError(f"spec document invalid: $.params: kind {kind!r} takes only "
                         f"completeness_hint, got {sorted(params)}")
    if kind == "expression":
        return MetricContext(u=field_from_expression(doc["u"], dim),
                             completeness_hint=hint,
                             label=f"expression[{doc['u']}]")
    nodes = np.asarray(doc["nodes"], dtype=float)
    prof = RadialProfile.from_table(nodes[:, 0], nodes[:, 1])
    return MetricContext(u=prof.to_field(dim), completeness_hint=hint,
                         label="radial-table", tail_model=prof.tail_model)


def field_from_document(doc) -> ScalarField:
    """The conformal factor u of a metric specification document."""
    return context_from_document(doc).u


def _load_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as e:
        raise InputError(f"spec file not found: {path}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"spec file is not valid JSON: {e}") from e


def run_analysis(doc, seed=20250):
    """Validate a metric specification document and produce its report.

    Deterministic for a fixed (document, seed); inconclusive verdicts are a
    normal outcome, not an error."""
    ctx = context_from_document(doc)
    cfg = AnalysisConfig(seed=seed)
    return analyze_normality(ctx, cfg, provenance_spec=doc)


def cmd_analyze(args):
    doc = _load_spec(args.spec)
    report = run_analysis(doc, seed=args.seed)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_verify(args):
    summary = run_verification_suite(filter_str=args.filter)
    if args.json:
        print(canonical_json(summary.to_json_dict()))
    else:
        for case in summary.cases:
            mark = {"passed": "PASS", "failed": "FAIL"}.get(case.status, "INCONCLUSIVE")
            print(f"[{mark}] {case.id}: {case.description} ({case.elapsed:.1f}s)")
            for check in case.checks:
                if not check.passed:
                    print(f"      failed: {check.quantity} expected "
                          f"{check.expected} got {check.got} tol {check.tolerance}")
            if case.error:
                print(f"      error: {case.error}")
        print(f"{summary.passed} passed, {summary.failed} failed, "
              f"{summary.inconclusive} inconclusive ({summary.elapsed:.1f}s)")
    return 3 if summary.failed else 0


SWEEP_HEADER = ["value", "alpha0", "tau", "identity_residual",
                "distance_exponent", "diameter_class", "volume_class", "error"]


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def sweep_csv(doc, param, values, seed=20250) -> str:
    """One CSV row per parameter value; per-row errors land in the error
    column instead of aborting the sweep."""
    validate_spec_document(doc)
    if doc["kind"] != "builtin":
        raise InputError("sweep requires a builtin metric template")
    entry = gallery_entries().get(doc["name"])
    if entry is None:
        raise InputError(f"unknown builtin metric {doc['name']!r}")
    if param not in entry.params_doc:
        raise InputError(
            f"template does not reference parameter {param!r}; "
            f"{doc['name']} takes {sorted(entry.params_doc)}")
    parsed = []
    for raw in values:
        try:
            parsed.append(float(raw))
        except (TypeError, ValueError):
            raise InputError(f"sweep value {raw!r} is not a number") from None
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    cfg = AnalysisConfig(seed=seed)
    for raw, value in zip(values, parsed):
        row = {"value": raw, "error": ""}
        try:
            params = dict(doc.get("params", {}) or {})
            params[param] = value
            ctx = context_from_document({**doc, "params": params})
            report = analyze_normality(ctx, cfg, provenance_spec=doc)
            try:
                dist = distance_growth_exponent(
                    ctx, np.zeros(int(doc["n"])), np.geomspace(10.0, 1e4, 12))
                row["distance_exponent"] = dist.exponent
            except QflatError as e:
                row["distance_exponent"] = None
                row["error"] = f"distance_exponent: {e}"
            row["alpha0"] = report.alpha0
            row["tau"] = report.tau.exponent if report.tau else None
            row["identity_residual"] = report.identity_residual
            row["diameter_class"] = report.diameter.classification if report.diameter else ""
            row["volume_class"] = report.volume.classification if report.volume else ""
        except QflatError as e:
            row["error"] = str(e)
        writer.writerow([_fmt(row.get(col, "")) for col in SWEEP_HEADER])
    return buf.getvalue()


def cmd_sweep(args):
    doc = _load_spec(args.spec)
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    text = sweep_csv(doc, args.param, values, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gallery(args):
    if args.action != "list":
        raise InputError(f"unknown gallery action {args.action!r}; try 'list'")
    for name, entry in sorted(gallery_entries().items()):
        params = ", ".join(f"{k}: {v}" for k, v in entry.params_doc.items()) or "-"
        print(f"{name:18s} n in {entry.dims}  params: {params}")
        print(f"{'':18s} {entry.description}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qflatlab",
        description="Numerics for conformally flat metrics: potentials, "
                    "curvature, volume entropy, distances, normality verdicts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one metric specification")
    p.add_argument("--spec", required=True, help="JSON metric specification file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--seed", type=int, default=20250)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--filter", default=None, help="only cases whose id or "
                                                  "description contains this string")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="parameter sweep to CSV")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=20250)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("gallery", help="gallery information")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=cmd_gallery)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except QflatError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
