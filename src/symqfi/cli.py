"""Batch scans and self-verification from the command line.

Subcommands: scan-time (QFI over a time grid), scan-rotation (QFI over a
rotation-angle grid at fixed times), steady-map (best steady-state QFI per
total excitation number) and verify (cross-check suites).  Options come
from an optional flat key=value config file, overridable by flags of the
same name.  Units throughout: times in seconds, angles in radians,
frequencies in rad/s.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .collective_basis import GeneratorLabel, generator, wigner_d_matrix
from .dephasing import (NoiseParams, ou_variance_quadrature, phase_variance_c,
                        spin_echo_weights_variance, steady_state)
from .qfi import qfi_phase
from .schemes import ProbeFamily, ProbeSpec, ScanResult, SchemeKind, SchemeSpec, build_probe, scan, scheme_qfi
from .steady_forms import SplitChoice, bsd_steady_qfi, ghz_qfi_analytic, optimize_bsd_split

DEFAULT_GAMMA_DELTA_B = 2.0 * math.pi * 50.0
DEFAULT_TAU_C = 1.0

UNITS_COMMENT = "# units: T in s, alpha in rad, gamma_delta_b in rad/s, tau_c in s"
SCAN_COLUMNS = ("scheme", "family", "n", "n1", "k1", "k2", "alpha", "T",
                "F_phase", "F_freq", "alpha_opt_flag")
MAP_COLUMNS = ("k", "max_qfi", "n1", "k1")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    scheme: str = "standard"
    family: str = "ghz"
    n: int = 8
    n1: int | None = None
    k1: int | None = None
    k2: int | None = None
    alpha: float = 0.0
    optimize_alpha: bool = False
    gamma_delta_b: float = DEFAULT_GAMMA_DELTA_B
    tau_c: float = DEFAULT_TAU_C
    t_min: float = 1e-5
    t_max: float = 10.0
    t_count: int = 40
    t_scale: str = "log"
    t_list: str | None = None
    alpha_min: float = 0.0
    alpha_max: float = math.pi
    alpha_count: int = 181
    out: str | None = None
    format: str = "csv"


_PARSERS = {
    "scheme": str, "family": str, "t_scale": str, "t_list": str, "out": str, "format": str,
    "n": int, "n1": int, "k1": int, "k2": int, "t_count": int, "alpha_count": int,
    "alpha": float, "gamma_delta_b": float, "tau_c": float,
    "t_min": float, "t_max": float, "alpha_min": float, "alpha_max": float,
    "optimize_alpha": bool,
}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _read_config_file(path: str) -> dict[str, str]:
    pairs = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.rstrip()!r}")
                key, value = stripped.split("=", 1)
                pairs[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return pairs


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    raw = _read_config_file(args.config) if args.config else {}
    for key, value in raw.items():
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        parser = _parse_bool if _PARSERS[key] is bool else _PARSERS[key]
        try:
            setattr(cfg, key, parser(value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    for field in fields(RunConfig):
        override = getattr(args, field.name, None)
        if override is not None:
            setattr(cfg, field.name, override)
    if cfg.format not in ("csv", "jsonl"):
        raise ConfigError(f"format must be 'csv' or 'jsonl', got {cfg.format!r}")
    return cfg


def _noise(cfg: RunConfig) -> NoiseParams:
    try:
        return NoiseParams(cfg.gamma_delta_b, cfg.tau_c)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _times(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.t_list is not None:
        try:
            times = tuple(float(tok) for tok in cfg.t_list.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"bad t_list: {cfg.t_list!r}") from exc
        if not times:
            raise ConfigError("t_list is empty")
        return times
    if cfg.t_count < 1:
        raise ConfigError(f"time grid is empty: t_count={cfg.t_count}")
    if cfg.t_scale == "log":
        if cfg.t_min <= 0:
            raise ConfigError("log time grid requires t_min > 0")
        grid = np.logspace(math.log10(cfg.t_min), math.log10(cfg.t_max), cfg.t_count)
    elif cfg.t_scale == "lin":
        grid = np.linspace(cfg.t_min, cfg.t_max, cfg.t_count)
    else:
        raise ConfigError(f"t_scale must be 'lin' or 'log', got {cfg.t_scale!r}")
    return tuple(float(t) for t in grid)


def _alphas(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.alpha_count < 1:
        raise ConfigError(f"alpha grid is empty: alpha_count={cfg.alpha_count}")
    return tuple(float(a) for a in np.linspace(cfg.alpha_min, cfg.alpha_max, cfg.alpha_count))


def _probe_specs(cfg: RunConfig, alpha: float) -> list[ProbeSpec]:
    specs = []
    for name in (tok.strip() for tok in cfg.family.split(",")):
        if not name:
            continue
        try:
            family = ProbeFamily(name)
        except ValueError as exc:
            valid = ", ".join(f.value for f in ProbeFamily)
            raise ConfigError(f"unknown family {name!r} (valid: {valid})") from exc
        needs_split = family in (ProbeFamily.BSD, ProbeFamily.GHZ_BIPARTITE,
                                 ProbeFamily.DFS_OPTIMAL)
        scheme_is_di = cfg.scheme != SchemeKind.STANDARD.value
        n1 = cfg.n1 if (needs_split or (family is ProbeFamily.PRODUCT_PLUS and scheme_is_di)) else None
        if family is ProbeFamily.PRODUCT_PLUS and scheme_is_di and n1 is None:
            raise ConfigError("product_plus under a differential scheme needs n1")
        kwargs = dict(n1=n1)
        if family is ProbeFamily.BSD:
            kwargs.update(k1=cfg.k1, k2=cfg.k2)
        try:
            specs.append(ProbeSpec(family, cfg.n, alpha=alpha, **kwargs))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if not specs:
        raise ConfigError("no probe family selected")
    return specs


def _scheme(cfg: RunConfig, times: tuple[float, ...]) -> SchemeSpec:
    try:
        kind = SchemeKind(cfg.scheme)
    except ValueError as exc:
        valid = ", ".join(k.value for k in SchemeKind)
        raise ConfigError(f"unknown scheme {cfg.scheme!r} (valid: {valid})") from exc
    noise = _noise(cfg)
    try:
        spec = SchemeSpec(kind, noise, times)
        # C(T) grows with T, so the largest time decides whether it overflows;
        # negative times are left to scan, which flags them per row
        phase_variance_c(max(0.0, *spec.times), noise)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _fmt_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "NaN" if math.isnan(value) else f"{value:.17g}"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return str(value)


def _scan_row_values(row: ScanResult) -> list:
    return [row.scheme, row.family, row.n, row.n1, row.k1, row.k2, row.alpha,
            row.T, row.f_phase, row.f_freq, row.alpha_optimized]


def _emit_table(cfg: RunConfig, columns: tuple[str, ...], rows: list[list]) -> int:
    lines = [UNITS_COMMENT]
    if cfg.format == "csv":
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    else:
        lines.extend(
            "{" + ", ".join(f'"{c}": {_fmt_json(v)}' for c, v in zip(columns, row)) + "}"
            for row in rows
        )
    text = "\n".join(lines) + "\n"
    if cfg.out is None:
        sys.stdout.write(text)
        return 0
    # write a sibling file and rename it over the target, so a failed write
    # never leaves the target half-written or destroys a file already there
    tmp = f"{cfg.out}.{os.getpid()}.tmp"
    try:
        handle = open(tmp, "x", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
            os.replace(tmp, cfg.out)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc
    return 0


def run_scan(cfg: RunConfig, probes, optimize_alpha: bool) -> int:
    """Evaluate a probe/time grid and emit the table; shared by both scans."""
    scheme = _scheme(cfg, _times(cfg))
    rows = scan(scheme, probes, optimize_alpha=optimize_alpha)
    return _emit_table(cfg, SCAN_COLUMNS, [_scan_row_values(r) for r in rows])


def cmd_scan_time(cfg: RunConfig) -> int:
    return run_scan(cfg, _probe_specs(cfg, cfg.alpha), cfg.optimize_alpha)


def cmd_scan_rotation(cfg: RunConfig) -> int:
    probes = [spec for alpha_probes in
              (_probe_specs(cfg, alpha) for alpha in _alphas(cfg))
              for spec in alpha_probes]
    # rows ordered family-major, angle next, time last
    probes.sort(key=lambda s: (s.family.value, s.alpha))
    return run_scan(cfg, probes, optimize_alpha=False)


def cmd_steady_map(cfg: RunConfig) -> int:
    if cfg.n < 2:
        raise ConfigError(f"steady-map needs n >= 2, got {cfg.n}")
    rows = []
    for record in optimize_bsd_split(cfg.n):
        for n1, k1 in record.argmax:
            rows.append([record.k, record.max_qfi, n1, k1])
    return _emit_table(cfg, MAP_COLUMNS, rows)


def _norm_dev(value: float, reference: float, rtol: float, atol: float = 0.0) -> float:
    """Deviation scaled so that <= 1 means |value - ref| <= atol + rtol |ref|."""
    scale = atol + rtol * abs(reference)
    diff = abs(value - reference)
    return diff / scale if scale > 0 else (0.0 if diff == 0 else math.inf)


def _check_wigner_orthogonality() -> tuple[float, str]:
    worst = 0.0
    for n in (2, 8, 20, 35, 50):
        eye = np.eye(n + 1)
        for theta in (0.0, math.pi / 4, math.pi / 2, math.pi):
            d = wigner_d_matrix(n, theta)
            worst = max(worst, float(np.max(np.abs(d.T @ d - eye))))
    return worst / 1e-12, "max |D^T D - I| over n<=50, tol 1e-12"


def _check_noiseless_anchors() -> tuple[float, str]:
    noise = NoiseParams(DEFAULT_GAMMA_DELTA_B, DEFAULT_TAU_C)
    standard = SchemeSpec(SchemeKind.STANDARD, noise)
    di = SchemeSpec(SchemeKind.DI_IDEAL, noise)
    cases = [
        (standard, ProbeSpec(ProbeFamily.GHZ, 8), 64.0),
        (standard, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8), 40.0),
        (standard, ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8), 8.0),
        (di, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4), 16.0),
        (di, ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=2, k2=2), 12.0),
        (di, ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8, n1=4), 4.0),
    ]
    worst = max(_norm_dev(scheme_qfi(build_probe(spec), sch, 0.0)[0], ref, 1e-9)
                for sch, spec, ref in cases)
    return worst, "noiseless QFI anchors at N=8, rel tol 1e-9"


def _check_ghz_decay() -> tuple[float, str]:
    noise = NoiseParams(DEFAULT_GAMMA_DELTA_B, DEFAULT_TAU_C)
    standard = SchemeSpec(SchemeKind.STANDARD, noise)
    times = np.logspace(-5, 1, 20)
    worst = 0.0
    for n in (2, 4, 8):
        probe = build_probe(ProbeSpec(ProbeFamily.GHZ, n))
        for T in times:
            numeric = scheme_qfi(probe, standard, float(T))[0]
            exact = ghz_qfi_analytic(n, float(T), noise)
            worst = max(worst, _norm_dev(numeric, exact, 1e-8, atol=1e-12))
    return worst, "GHZ decay, pipeline vs closed form, |dF| <= 1e-12 + 1e-8 |F|"


def _check_steady_forms() -> tuple[float, str]:
    noise = NoiseParams(DEFAULT_GAMMA_DELTA_B, DEFAULT_TAU_C)
    di = SchemeSpec(SchemeKind.DI_IDEAL, noise)
    late = 50.0 * noise.tau_c
    cases = [
        (ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8, n1=4), 2.0),
        (ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4), 8.0),
        (ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=2, k2=2), 6.0),
        (ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8), 16.0),
    ]
    worst = max(_norm_dev(scheme_qfi(build_probe(spec), di, late)[0], ref, 1e-9)
                for spec, ref in cases)
    dfs = build_probe(ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8))
    for T in (0.0, 0.01, 1.0, 10.0):
        worst = max(worst, _norm_dev(scheme_qfi(dfs, di, T)[0], 16.0, 0.0, atol=1e-10))
    return worst, "steady-state closed forms at N=8, rel tol 1e-9 (DFS const, 1e-10)"


def _check_bsd_oracle() -> tuple[float, str]:
    worst = 0.0
    for n in (2, 4, 6, 8):
        for n1 in range(1, n):
            for k1 in range(n1 + 1):
                for k2 in range(n - n1 + 1):
                    rho = build_probe(ProbeSpec(ProbeFamily.BSD, n, n1=n1,
                                                k1=k1, k2=k2)).density_matrix()
                    g = generator(rho.basis, GeneratorLabel.SZ_PARTITION2)
                    numeric = qfi_phase(steady_state(rho), g)
                    closed = bsd_steady_qfi(SplitChoice(n, n1, k1, k1 + k2))
                    worst = max(worst, _norm_dev(numeric, closed, 1e-9, atol=1e-12))
    return worst, "steady-state formula vs numeric pipeline, all splits n<=8"


def _check_spin_echo_variance() -> tuple[float, str]:
    noise = NoiseParams(DEFAULT_GAMMA_DELTA_B, DEFAULT_TAU_C)
    worst = 0.0
    for a, b in ((0.0, 1.0), (1.0, 1.0), (1.0, 2.0), (2.0, -1.0), (1.5, 0.5)):
        for T in (0.01, 0.5, 2.0):
            closed = spin_echo_weights_variance(a, b, T, noise)
            numeric = ou_variance_quadrature(a, b, T, noise)
            worst = max(worst, _norm_dev(closed, numeric, 1e-6))
    return worst, "spin-echo variance vs trapezoid double integral, rel tol 1e-6"


_VERIFY_CHECKS = (
    ("wigner-orthogonality", _check_wigner_orthogonality),
    ("noiseless-anchors", _check_noiseless_anchors),
    ("ghz-decay-law", _check_ghz_decay),
    ("steady-closed-forms", _check_steady_forms),
    ("bsd-oracle-equivalence", _check_bsd_oracle),
    ("spin-echo-variance", _check_spin_echo_variance),
)


def cmd_verify(cfg: RunConfig) -> int:
    failures = 0
    for name, check in _VERIFY_CHECKS:
        dev, detail = check()
        status = "PASS" if dev <= 1.0 else "FAIL"
        failures += status == "FAIL"
        print(f"{status} {name}: normalized deviation {dev:.3e} (<= 1 required; {detail})")
    if failures:
        print(f"{failures} verification check(s) failed")
        return 2
    print("all verification checks passed")
    return 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "jsonl"))
    parser.add_argument("--scheme", help="standard | di_ideal | di_spin_echo | di_repeat")
    parser.add_argument("--family", help="comma-separated probe families")
    parser.add_argument("--n", type=int)
    parser.add_argument("--n1", type=int)
    parser.add_argument("--k1", type=int)
    parser.add_argument("--k2", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--optimize-alpha", dest="optimize_alpha",
                        action="store_const", const=True, default=None)
    parser.add_argument("--gamma-delta-b", dest="gamma_delta_b", type=float)
    parser.add_argument("--tau-c", dest="tau_c", type=float)
    parser.add_argument("--t-min", dest="t_min", type=float)
    parser.add_argument("--t-max", dest="t_max", type=float)
    parser.add_argument("--t-count", dest="t_count", type=int)
    parser.add_argument("--t-scale", dest="t_scale", choices=("lin", "log"))
    parser.add_argument("--t-list", dest="t_list", help="comma-separated times in s")
    parser.add_argument("--alpha-min", dest="alpha_min", type=float)
    parser.add_argument("--alpha-max", dest="alpha_max", type=float)
    parser.add_argument("--alpha-count", dest="alpha_count", type=int)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="symqfi", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in ("scan-time", "scan-rotation", "steady-map", "verify"):
        _add_common_flags(subparsers.add_parser(command))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    handler = {
        "scan-time": cmd_scan_time,
        "scan-rotation": cmd_scan_rotation,
        "steady-map": cmd_steady_map,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(_build_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
