"""Command-line surface for the capacity-bound toolkit.

Subcommands:

    graph alpha|theta|power|report   exact and numeric bounds on graphs
    nc build                         assemble an operator span (JSON)
    nc haemers                       two-sided bound with a certificate on disk
    nc verify-cert                   re-check a serialized certificate
    nc transform                     tensor/dsum/conjugate/cohom/lift/project/tpmap
    selftest paper                   run the acceptance suite

Every command takes ``--json`` for machine-readable output, ``--seed``
(a non-negative integer, default 0) so searches are reproducible on one
numpy/BLAS build and CPU (not across them), and ``--config FILE`` pointing
at a key=value file for the caps (graph-n-cap, sdp-tol).
graph-n-cap is the vertex cap of the exact independence number in
``graph alpha`` and ``graph report``; the latter takes alpha of the strong
square only when n^2 fits under it.  ``selftest paper`` also takes
``--jobs``, the one place the CLI fans work out.  Usage problems exit 2; a failed verification exits 1 with a
JSON diagnostic on standard error; success exits 0.  Each distinct warning
of a command follows as one ``warning: <message>`` line on standard error.

Numbers printed with provenance ``certificate:<path>`` are re-derived
from the serialized file alone — the in-memory object that produced the
file is never trusted for the printed value.

``nc haemers`` prints what ``certificates.haemers_bound`` returns, with
the upper bound re-derived from the certificate it writes to disk.
The pentagon, for example:

    zerocap nc build --from-graph c5.dimacs -o sc5.json
    zerocap nc haemers sc5.json --m-schedule 1,2      # H in [2, 3], fitting-lift
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .certificates import (
    DEFAULT_SEARCH_BUDGET,
    HaemersCertificate,
    TpMapCertificate,
    VerificationError,
    cohomomorphism_apply,
    conjugate_certificate,
    direct_sum_certificate,
    from_tp_map,
    haemers_bound,
    lift_graph_certificate,
    project_to_graph_certificate,
    tensor_certificate,
    to_tp_map,
    verify_certificate,
    verify_tp_map,
    verify_xi_certificate,
)
from .classical import (
    ClassicalBounds,
    FittingMatrix,
    bounds_report,
    orthogonal_rank_verify,
    verify_fitting,
)
from .exactlinalg import ExactMatrix, parse_scalar
from .graphs import DEFAULT_VERTEX_CAP, Graph, independence_number, strong_power
from .ncgraph import (
    ClassicalChannel,
    NcGraph,
    QuantumChannel,
    conjugate_by_unitary,
    direct_sum_nc,
    from_classical_channel,
    from_kraus,
    tensor,
)
from .theta import DEFAULT_TOL, lovasz_theta


@dataclass
class CliConfig:
    """Caps read from the optional key=value config file."""

    graph_n_cap: int = DEFAULT_VERTEX_CAP
    sdp_tol: float = DEFAULT_TOL


def _load_config(path: Optional[str]) -> CliConfig:
    cfg = CliConfig()
    if path is None:
        return cfg
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key = key.strip()
        kind = {"graph-n-cap": int, "sdp-tol": float}.get(key)
        if kind is None:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            number = kind(value.strip())
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} must be a number, got {value.strip()!r}"
            ) from None
        if not number > 0:  # nan too
            raise ValueError(f"{path}:{lineno}: {key} must be positive")
        if not math.isfinite(number):
            raise ValueError(f"{path}:{lineno}: {key} must be finite")
        setattr(cfg, key.replace("-", "_"), number)  # the CliConfig field
    return cfg


# -- input loading -------------------------------------------------------


def _load_graph(path: str) -> Graph:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return Graph.from_json_dict(json.loads(text))
    return Graph.from_text(text)


def _load_json(path: str, kind: type = dict) -> dict | list:
    """Parse a JSON file whose top level must be an object (or a list)."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, kind):
        expected = "an object" if kind is dict else "an array"
        raise ValueError(f"{path}: expected {expected} at the top level")
    return data


def _load_ncgraph(path: str) -> NcGraph:
    return NcGraph.from_json_dict(_load_json(path))


def _load_cert(path: str) -> HaemersCertificate:
    return HaemersCertificate.from_json_dict(_load_json(path))


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    print(json.dumps(payload, indent=2) if args.json else text)


# -- graph subcommands ---------------------------------------------------


def _cmd_graph_alpha(args: argparse.Namespace, cfg: CliConfig) -> int:
    g = _load_graph(args.file)
    size, witness = independence_number(g, vertex_cap=cfg.graph_n_cap)
    _emit(
        args,
        {"n": g.n, "alpha": size, "witness": witness},
        f"alpha = {size} (witness {witness})",
    )
    return 0


def _cmd_graph_theta(args: argparse.Namespace, cfg: CliConfig) -> int:
    g = _load_graph(args.file)
    tol = args.tol if args.tol is not None else cfg.sdp_tol
    sol = lovasz_theta(g, tol=tol)
    _emit(
        args,
        {
            "theta": float(sol.value),
            "tol": tol,
            "converged": bool(sol.converged),
            "bracket": [float(sol.lower_bound), float(sol.upper_bound)],
        },
        f"theta = {sol.value:.7f} (tol {tol:g}, converged={bool(sol.converged)})",
    )
    return 0


def _cmd_graph_power(args: argparse.Namespace, cfg: CliConfig) -> int:
    g = _load_graph(args.file)
    h = strong_power(g, args.k)
    if args.json:
        print(json.dumps(h.to_json_dict(), indent=2))
    else:
        sys.stdout.write(h.to_text())
    return 0


def _theta_provenance(value: float, report: ClassicalBounds) -> str:
    """'numeric±e' for the printed value: e is one digit times a power of ten,
    rounded up so that the whole proved bracket lies within value ± e."""
    lower, upper = (Fraction(t) for t in report.theta_bracket)
    err = max(abs(Fraction(value) - lower), abs(upper - Fraction(value)))
    exp = math.floor(math.log10(err)) if err else 0
    bound = math.ceil(err / Fraction(10) ** exp) * 10.0**exp
    return f"numeric±{bound:g}" + ("" if report.theta_converged else " (not converged)")


def _cmd_graph_report(args: argparse.Namespace, cfg: CliConfig) -> int:
    g = _load_graph(args.file)
    report = bounds_report(g, theta_tol=cfg.sdp_tol, power_cap=cfg.graph_n_cap)
    cert_dir = Path(args.cert_dir)
    cert_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.file).stem

    # serialize the witnesses, then recompute both upper bounds from disk
    fitting_path = cert_dir / f"{stem}-fitting.json"
    _write_json(str(fitting_path), report.fitting.to_json_dict())
    fitting_rank = verify_fitting(FittingMatrix.from_json_dict(_load_json(str(fitting_path))))

    representation_path = cert_dir / f"{stem}-representation.json"
    _write_json(
        str(representation_path),
        {
            "graph": g.to_json_dict(),
            "vectors": [
                [str(v[i, 0]) for i in range(v.rows)] for v in report.representation
            ],
        },
    )
    loaded = _load_json(str(representation_path))
    vectors = [
        ExactMatrix(len(col), 1, [parse_scalar(x) for x in col])
        for col in loaded["vectors"]
    ]
    xi_rank = orthogonal_rank_verify(g, vectors)

    theta = round(report.theta, 7)
    rows = [
        ("alpha", report.alpha, "exact"),
        ("theta", theta, _theta_provenance(theta, report)),
        ("haemers-lower", report.haemers_lower, "lower-bound"),
        ("haemers-upper", fitting_rank, f"certificate:{fitting_path}"),
        ("xi-upper", xi_rank, f"certificate:{representation_path}"),
    ]
    consistent = (
        report.alpha <= report.haemers_lower <= fitting_rank <= xi_rank
        and report.alpha <= report.theta + 1e-4
    )
    verdict = "pass" if consistent else "fail"
    payload = {
        "target": g.to_json_dict(),
        "rows": [list(r) for r in rows],
        "consistency": verdict,
    }
    lines = [f"target          n={g.n}, {len(g.edges)} edges"]
    for name, value, provenance in rows:
        note = f" ({report.haemers_lower_reason})" if name == "haemers-lower" else ""
        lines.append(f"{name:<15} {value!s:<10} {provenance}{note}")
    lines.append(f"{'consistency':<15} {verdict}")
    _emit(args, payload, "\n".join(lines))
    if not consistent:
        print(
            json.dumps({"error": "consistency", "rows": [list(r) for r in rows]}),
            file=sys.stderr,
        )
        return 1
    return 0


# -- nc subcommands ------------------------------------------------------


def _cmd_nc_build(args: argparse.Namespace, cfg: CliConfig) -> int:
    if args.from_graph:
        s = NcGraph.from_graph(_load_graph(args.from_graph))
    elif args.from_kraus:
        s = from_kraus(QuantumChannel.from_json_dict(_load_json(args.from_kraus)))
    elif args.from_classical:
        s = from_classical_channel(
            ClassicalChannel.from_json_dict(_load_json(args.from_classical))
        )
    else:
        s = _load_ncgraph(args.from_basis)
    payload = s.to_json_dict()
    if args.output:
        _write_json(args.output, payload)
        _emit(args, {"output": args.output, "n": s.n, "dim": s.dim},
              f"span of dimension {s.dim} in M_{s.n} -> {args.output}")
    else:
        print(json.dumps(payload, indent=2))
    return 0


def _parse_schedule(text: Optional[str]) -> Optional[list[int]]:
    if text is None:
        return None
    schedule = []
    for part in filter(str.strip, text.split(",")):
        try:
            schedule.append(int(part))
        except ValueError:
            raise ValueError(
                f"--m-schedule entries must be integers, got {part.strip()!r}"
            ) from None
    return schedule


def _cmd_nc_haemers(args: argparse.Namespace, cfg: CliConfig) -> int:
    if args.budget < 1:
        raise ValueError(f"--budget must be positive, got {args.budget}")
    if args.k_max is not None and args.k_max < 1:
        raise ValueError(f"--k-max must be positive, got {args.k_max}")
    s = _load_ncgraph(args.file)
    lower, cert, method = haemers_bound(
        s,
        k_max=args.k_max,
        m_schedule=_parse_schedule(args.m_schedule),
        budget=args.budget,
        seed=args.seed,
    )

    cert_path = (
        Path(args.cert_out)
        if args.cert_out
        else Path(args.file).with_name(Path(args.file).stem + "-cert.json")
    )
    _write_json(str(cert_path), cert.to_json_dict())
    reloaded_rank = verify_certificate(s, _load_cert(str(cert_path)))

    payload = {
        "lower": lower.to_json_dict(),
        "upper": {
            "rank": reloaded_rank,
            "k": cert.k,
            "m": cert.m,
            "method": method,
            "provenance": f"certificate:{cert_path}",
        },
        "operator_system": s.is_operator_system(),
    }
    lines = [
        f"H >= {lower.value} ({lower.justification})",
        f"H <= {reloaded_rank} ({method}, certificate rank {reloaded_rank},"
        f" m={cert.m}) -> {cert_path}",
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_nc_verify_cert(args: argparse.Namespace, cfg: CliConfig) -> int:
    s = _load_ncgraph(args.system)
    data = _load_json(args.certificate)
    kind = args.kind
    if kind == "auto":
        kind = "tpmap" if "E" in data else "haemers"
    if kind == "tpmap":
        rank = verify_tp_map(s, TpMapCertificate.from_json_dict(data))
    elif kind == "psd":
        rank = verify_xi_certificate(s, HaemersCertificate.from_json_dict(data))
    else:
        rank = verify_certificate(s, HaemersCertificate.from_json_dict(data))
    _emit(args, {"rank": rank, "ok": True, "kind": kind}, f"rank {rank}, OK")
    return 0


def _emit_cert(args: argparse.Namespace, cert: HaemersCertificate) -> None:
    payload = {"output": args.output, "n": cert.n, "m": cert.m, "k": cert.k}
    _emit(args, payload, f"n={cert.n}, m={cert.m}, rank bound k={cert.k} -> {args.output}")


def _cmd_transform_pair(args: argparse.Namespace, cfg: CliConfig) -> int:
    """tensor and dsum: combine two certificates, and with --system-out the spans."""
    if args.transform == "tensor":
        cert_op, span_op = tensor_certificate, tensor
    else:
        cert_op, span_op = direct_sum_certificate, direct_sum_nc
    s, t = _load_ncgraph(args.system1), _load_ncgraph(args.system2)
    c1, c2 = _load_cert(args.cert1), _load_cert(args.cert2)
    out = cert_op(s, c1, t, c2)
    _write_json(args.output, out.to_json_dict())
    if args.system_out:
        _write_json(args.system_out, span_op(s, t).to_json_dict())
    _emit_cert(args, out)
    return 0


def _cmd_transform_conjugate(args: argparse.Namespace, cfg: CliConfig) -> int:
    s = _load_ncgraph(args.system)
    cert = _load_cert(args.certificate)
    u = ExactMatrix.from_strings(_load_json(args.unitary, list))
    out = conjugate_certificate(s, cert, u)
    _write_json(args.output, out.to_json_dict())
    if args.system_out:
        _write_json(args.system_out, conjugate_by_unitary(s, u).to_json_dict())
    _emit_cert(args, out)
    return 0


def _cmd_transform_cohom(args: argparse.Namespace, cfg: CliConfig) -> int:
    source = _load_ncgraph(args.source)
    target = _load_ncgraph(args.target)
    kraus = QuantumChannel.kraus_from_json_dict(_load_json(args.kraus))
    cert = _load_cert(args.certificate)
    out = cohomomorphism_apply(kraus, cert, source=source, target=target)
    _write_json(args.output, out.to_json_dict())
    _emit_cert(args, out)
    return 0


def _cmd_transform_lift(args: argparse.Namespace, cfg: CliConfig) -> int:
    fm = FittingMatrix.from_json_dict(_load_json(args.fitting))
    out = lift_graph_certificate(fm)
    _write_json(args.output, out.to_json_dict())
    _emit_cert(args, out)
    return 0


def _cmd_transform_project(args: argparse.Namespace, cfg: CliConfig) -> int:
    s = _load_ncgraph(args.system)
    cert = _load_cert(args.certificate)
    fm = project_to_graph_certificate(s, cert)
    _write_json(args.output, fm.to_json_dict())
    rank = verify_fitting(fm)
    _emit(args, {"output": args.output, "vertices": fm.graph.n, "rank": rank},
          f"fitting matrix on {fm.graph.n} vertices, rank {rank} -> {args.output}")
    return 0


def _cmd_transform_tpmap(args: argparse.Namespace, cfg: CliConfig) -> int:
    s = _load_ncgraph(args.system)
    if args.reverse:
        cert = from_tp_map(TpMapCertificate.from_json_dict(_load_json(args.certificate)))
        verify_certificate(s, cert)
        _write_json(args.output, cert.to_json_dict())
        _emit_cert(args, cert)
        return 0
    cert = _load_cert(args.certificate)
    tp = to_tp_map(s, cert)
    rank = verify_tp_map(s, tp)
    _write_json(args.output, tp.to_json_dict())
    _emit(args, {"output": args.output, "pairs": len(tp.E), "k": tp.k, "rank": rank},
          f"trace-preserving map form, {len(tp.E)} operator pairs, rank {rank}"
          f" -> {args.output}")
    return 0


# -- selftest ------------------------------------------------------------


def _cmd_selftest(args: argparse.Namespace, cfg: CliConfig) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be positive, got {args.jobs}")
    from .selftest import run_all, run_check  # loaded only for this command
    if args.only:
        results = [run_check(args.only, seed=args.seed)]
    else:
        results = run_all(seed=args.seed, jobs=args.jobs)
    if args.json:
        print(
            json.dumps(
                {
                    "results": [
                        {"name": r.name, "ok": r.ok, "detail": r.detail}
                        for r in results
                    ],
                    "ok": all(r.ok for r in results),
                },
                indent=2,
            )
        )
    else:
        for r in results:
            print(r.line())
        passed = sum(r.ok for r in results)
        print(f"{passed}/{len(results)} checks passed")
    return 0 if all(r.ok for r in results) else 1


# -- parser --------------------------------------------------------------


def _seed(text: str) -> int:
    """--seed value: a non-negative integer, as numpy's generators require."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and then reused.

    Every caller in the process shares it, so none may change it.  Handlers
    are module functions that look up library functions when they run, so
    the cached parser holds no library function.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--seed", type=_seed, default=0, help="seed for all searches")
    common.add_argument(
        "--config",
        metavar="FILE",
        help="key=value file: graph-n-cap, sdp-tol",
    )

    parser = argparse.ArgumentParser(
        prog="zerocap",
        description="bounds on zero-error capacity with exact rank certificates",
    )
    top = parser.add_subparsers(dest="command", required=True)

    graph = top.add_parser("graph", help="classical graph bounds")
    gsub = graph.add_subparsers(dest="subcommand", required=True)
    p = gsub.add_parser("alpha", parents=[common], help="exact independence number")
    p.add_argument("file", help="graph file (p/e text lines or JSON)")
    p.set_defaults(handler=_cmd_graph_alpha)
    p = gsub.add_parser("theta", parents=[common], help="Lovasz theta")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(handler=_cmd_graph_theta)
    p = gsub.add_parser("power", parents=[common], help="strong graph power")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(handler=_cmd_graph_power)
    p = gsub.add_parser("report", parents=[common], help="full bounds report")
    p.add_argument("file")
    p.add_argument("--cert-dir", default="certs", help="where witnesses are written")
    p.set_defaults(handler=_cmd_graph_report)

    nc = top.add_parser("nc", help="operator-span (noncommutative graph) bounds")
    nsub = nc.add_subparsers(dest="subcommand", required=True)
    p = nsub.add_parser("build", parents=[common], help="assemble a span as JSON")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--from-graph", metavar="FILE")
    src.add_argument("--from-kraus", metavar="FILE")
    src.add_argument("--from-classical", metavar="FILE")
    src.add_argument("--from-basis", metavar="FILE")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_nc_build)

    p = nsub.add_parser("haemers", parents=[common], help="two-sided rank bound")
    p.add_argument("file", help="operator span JSON")
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--m-schedule",
                   help="comma-separated block counts (default 1,2,n,n^2); each k"
                        " searches them within [ceil(n/k), kn], above kn at kn")
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                   help="search restarts per (k, m)")
    p.add_argument("--cert-out", help="certificate path (default <input>-cert.json)")
    p.set_defaults(handler=_cmd_nc_haemers)

    p = nsub.add_parser("verify-cert", parents=[common], help="re-check a certificate")
    p.add_argument("system", help="operator span JSON")
    p.add_argument("certificate", help="certificate JSON")
    p.add_argument("--kind", choices=["auto", "haemers", "psd", "tpmap"],
                   default="auto")
    p.set_defaults(handler=_cmd_nc_verify_cert)

    tr = nsub.add_parser("transform", help="derive new certificates from old")
    tsub = tr.add_subparsers(dest="transform", required=True)

    for name, what in (("tensor", "product"), ("dsum", "direct-sum")):
        p = tsub.add_parser(name, parents=[common])
        p.add_argument("system1")
        p.add_argument("cert1")
        p.add_argument("system2")
        p.add_argument("cert2")
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--system-out", help=f"also write the {what} span")
        p.set_defaults(handler=_cmd_transform_pair)

    p = tsub.add_parser("conjugate", parents=[common])
    p.add_argument("system")
    p.add_argument("certificate")
    p.add_argument("unitary", help="JSON 2-D array of exact scalars")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--system-out", help="also write the conjugated span")
    p.set_defaults(handler=_cmd_transform_conjugate)

    p = tsub.add_parser("cohom", parents=[common])
    p.add_argument("certificate", help="certificate for the target span")
    p.add_argument("--source", required=True, help="span the new certificate is for")
    p.add_argument("--target", required=True, help="span the input certificate is for")
    p.add_argument("--kraus", required=True, help="channel JSON (n_in, n_out, kraus)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_transform_cohom)

    p = tsub.add_parser("lift", parents=[common])
    p.add_argument("fitting", help="fitting-matrix JSON (graph inline)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_transform_lift)

    p = tsub.add_parser("project", parents=[common])
    p.add_argument("system", help="graph-form span JSON")
    p.add_argument("certificate")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_transform_project)

    p = tsub.add_parser("tpmap", parents=[common])
    p.add_argument("system")
    p.add_argument("certificate", help="certificate (or map form with --reverse)")
    p.add_argument("--reverse", action="store_true",
                   help="map form back to factor form")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_transform_tpmap)

    st = top.add_parser("selftest", help="acceptance checks")
    ssub = st.add_subparsers(dest="suite", required=True)
    p = ssub.add_parser("paper", parents=[common], help="the full example suite")
    p.add_argument("--only", help="run a single named check")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; return its exit code (argparse exits 2 on a usage error).

    The argparse tree is built once per process, on the first call, and
    every later call in the process parses with the same parser.
    """
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cfg = _load_config(args.config)
            return args.handler(args, cfg)
        except VerificationError as exc:
            print(
                json.dumps({"error": "verification", "kind": exc.kind,
                            "where": exc.where, "message": str(exc)}),
                file=sys.stderr,
            )
            return 1
        except KeyError as exc:
            print(f"error: missing field {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:  # after the diagnostic, so stderr still starts with it
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
