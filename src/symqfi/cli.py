"""Batch scans and self-verification from the command line.

Subcommands: scan-time (QFI over a time grid), scan-rotation (QFI over a
rotation-angle grid at fixed times), steady-map (best steady-state QFI per
total excitation number) and verify (cross-check suites).  Options come
from an optional flat key=value config file, overridable by flags: each
field x_y of RunConfig is the config key x_y and the flag --x-y, and every
subcommand accepts every key.  Units throughout: times in seconds, angles
in radians, frequencies in rad/s.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .collective_basis import wigner_d_matrix
from .dephasing import NoiseParams, phase_variance_c, spin_echo_weights_variance
from .schemes import (_BIPARTITE_ONLY, ProbeFamily, ProbeSpec, ScanResult, SchemeKind, SchemeSpec,
                      scan)
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
    """Every option: the flags and config keys are generated from these fields."""

    out: str | None = field(default=None, metadata={"help": "output path (default: stdout)"})
    format: str = field(default="csv", metadata={"help": "csv | jsonl"})
    scheme: str = field(default="standard",
                        metadata={"help": "standard | di_ideal | di_spin_echo | di_repeat"})
    family: str = field(default="ghz", metadata={"help": "comma-separated probe families"})
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
    t_scale: str = field(default="log", metadata={"help": "lin | log"})
    t_list: str | None = field(default=None, metadata={"help": "comma-separated times in s"})
    alpha_min: float = 0.0
    alpha_max: float = math.pi
    alpha_count: int = 181


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# each key's value parser, from its field's annotation (a string under
# postponed evaluation): "int | None" parses as int
_TYPE_PARSERS = {"str": str, "int": int, "float": float, "bool": _parse_bool}
_PARSERS = {f.name: _TYPE_PARSERS[f.type.split(" | ")[0]] for f in fields(RunConfig)}


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
    # the file's values, then the flags' (as given, so one parser judges both)
    flags = [(f.name, getattr(args, f.name)) for f in fields(RunConfig)]
    for key, value in [*raw.items(), *((k, v) for k, v in flags if v is not None)]:
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            setattr(cfg, key, _PARSERS[key](value))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    if cfg.format not in ("csv", "jsonl"):
        raise ConfigError(f"format must be 'csv' or 'jsonl', got {cfg.format!r}")
    if cfg.t_scale not in ("lin", "log"):
        raise ConfigError(f"t_scale must be 'lin' or 'log', got {cfg.t_scale!r}")
    return cfg


def _require_finite_bounds(grid: str, low: float, high: float) -> None:
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ConfigError(f"{grid} grid bounds must be finite, got {low!r} and {high!r}")


def _times(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.t_list is not None:
        try:
            times = tuple(float(tok) for tok in cfg.t_list.split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"bad t_list: {cfg.t_list!r}") from exc
        if not times:
            raise ConfigError("t_list is empty")
    else:
        if cfg.t_count < 1:
            raise ConfigError(f"time grid is empty: t_count={cfg.t_count}")
        _require_finite_bounds("time", cfg.t_min, cfg.t_max)
        if cfg.t_scale == "log" and (cfg.t_min <= 0 or cfg.t_max <= 0):
            raise ConfigError(f"log time grid requires t_min > 0 and t_max > 0, "
                              f"got t_min={cfg.t_min!r}, t_max={cfg.t_max!r}")
        # finite bounds can still give a non-finite grid point (-1e308 to
        # 1e308 on a lin grid, up to 1.8e308 on a log one): refused below
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.t_scale == "lin":
                grid = np.linspace(cfg.t_min, cfg.t_max, cfg.t_count)
            else:
                grid = np.logspace(math.log10(cfg.t_min), math.log10(cfg.t_max), cfg.t_count)
        times = tuple(float(t) for t in grid)
    bad = [t for t in times if not math.isfinite(t)]
    if bad:
        raise ConfigError(f"times must be finite, got {bad[0]!r}")
    return times


def _alphas(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.alpha_count < 1:
        raise ConfigError(f"alpha grid is empty: alpha_count={cfg.alpha_count}")
    _require_finite_bounds("alpha", cfg.alpha_min, cfg.alpha_max)
    # a span that overflows gives nan angles, which ProbeSpec refuses
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(cfg.alpha_min, cfg.alpha_max, cfg.alpha_count)
    return tuple(float(a) for a in grid)


def _scheme_kind(cfg: RunConfig) -> SchemeKind:
    try:
        return SchemeKind(cfg.scheme)
    except ValueError as exc:
        valid = ", ".join(k.value for k in SchemeKind)
        raise ConfigError(f"unknown scheme {cfg.scheme!r} (valid: {valid})") from exc


def _probe_specs(cfg: RunConfig, kind: SchemeKind, alpha: float) -> list[ProbeSpec]:
    scheme_is_di = kind is not SchemeKind.STANDARD
    specs = []
    for name in (tok.strip() for tok in cfg.family.split(",")):
        if not name:
            continue
        try:
            family = ProbeFamily(name)
        except ValueError as exc:
            valid = ", ".join(f.value for f in ProbeFamily)
            raise ConfigError(f"unknown family {name!r} (valid: {valid})") from exc
        needs_split = family in _BIPARTITE_ONLY
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
        noise = NoiseParams(cfg.gamma_delta_b, cfg.tau_c)
        # C(T) grows with T, so the largest time decides whether it overflows;
        # negative times are left to scan, which flags them per row
        phase_variance_c(max(0.0, *times), noise)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return SchemeSpec(_scheme_kind(cfg), noise)


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
        text = f"{value:.17g}"  # non-finite values as Python's json module writes them
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
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
    # never leaves the target half-written or destroys a file already there;
    # a symlink keeps its link (its file is replaced), and a FIFO or device
    # is written in place, as renaming over it would replace the node
    target = os.path.realpath(cfg.out)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(text)
            return 0
        handle = open(tmp, "x", encoding="utf-8")
        try:
            with handle:
                handle.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc
    return 0


def run_scan(cfg: RunConfig, probes, optimize_alpha: bool) -> int:
    """Evaluate a probe/time grid and emit the table, with each nan row's reason on stderr."""
    times = _times(cfg)
    rows = scan(_scheme(cfg, times), probes, times, optimize_alpha=optimize_alpha)
    for r in rows:
        if r.error is not None:
            print(f"nan row: scheme={r.scheme} family={r.family} n={r.n} alpha={_fmt(r.alpha)} "
                  f"T={_fmt(r.T)}: {r.error}", file=sys.stderr)
    return _emit_table(cfg, SCAN_COLUMNS, [_scan_row_values(r) for r in rows])


def cmd_scan_time(cfg: RunConfig) -> int:
    kind = _scheme_kind(cfg)
    return run_scan(cfg, _probe_specs(cfg, kind, cfg.alpha), cfg.optimize_alpha)


def cmd_scan_rotation(cfg: RunConfig) -> int:
    kind = _scheme_kind(cfg)
    probes = [spec for alpha_probes in
              (_probe_specs(cfg, kind, alpha) for alpha in _alphas(cfg))
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
    for n in (1, 2, 5, 8, 13, 20, 28, 35, 41, 50):
        eye = np.eye(n + 1)
        for theta in (0.0, math.pi / 4, math.pi / 2, math.pi):
            d = wigner_d_matrix(n, theta)
            worst = max(worst, float(np.max(np.abs(d.T @ d - eye))))
    return worst / 1e-12, "max |D^T D - I| over n<=50, tol 1e-12"


def _anchor_deviation(cases, detail: str) -> tuple[float, str]:
    """Worst normalized deviation of the phase QFI scan prints over anchor cases, and detail.

    Each case is (scheme kind, probe spec, T, reference, rtol, atol), at the
    default noise parameters.  An error row fails the check: deviation inf,
    with the row's reason after detail.
    """
    noise = NoiseParams(DEFAULT_GAMMA_DELTA_B, DEFAULT_TAU_C)
    worst = 0.0
    for kind, spec, T, ref, rtol, atol in cases:
        row = scan(SchemeSpec(kind, noise), [spec], [T])[0]
        if row.error is not None:
            return math.inf, f"{detail}; {row.scheme} {row.family} n={row.n} T={T!r}: {row.error}"
        worst = max(worst, _norm_dev(row.f_phase, ref, rtol, atol))
    return worst, detail


def _check_noiseless_anchors() -> tuple[float, str]:
    std, di = SchemeKind.STANDARD, SchemeKind.DI_IDEAL
    cases = [
        (std, ProbeSpec(ProbeFamily.GHZ, 8), 0.0, 64.0, 1e-9, 0.0),
        (std, ProbeSpec(ProbeFamily.DICKE_SYMMETRIC, 8), 0.0, 40.0, 1e-9, 0.0),
        (std, ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8), 0.0, 8.0, 1e-9, 0.0),
        (di, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4), 0.0, 16.0, 1e-9, 0.0),
        (di, ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=2, k2=2), 0.0, 12.0, 1e-9, 0.0),
        (di, ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8, n1=4), 0.0, 4.0, 1e-9, 0.0),
    ]
    return _anchor_deviation(cases, "noiseless QFI anchors at N=8, rel tol 1e-9")


def _check_ghz_decay() -> tuple[float, str]:
    noise = NoiseParams(DEFAULT_GAMMA_DELTA_B, DEFAULT_TAU_C)
    cases = [(SchemeKind.STANDARD, ProbeSpec(ProbeFamily.GHZ, n), T,
              ghz_qfi_analytic(n, T, noise), 1e-8, 1e-12)
             for n in (2, 4, 8) for T in np.logspace(-5, 1, 20).tolist()]
    return _anchor_deviation(cases, "GHZ decay, pipeline vs closed form, |dF| <= 1e-12 + 1e-8 |F|")


def _check_steady_forms() -> tuple[float, str]:
    di, late = SchemeKind.DI_IDEAL, 50.0 * DEFAULT_TAU_C
    dfs = ProbeSpec(ProbeFamily.DFS_OPTIMAL, 8)
    cases = [
        (di, ProbeSpec(ProbeFamily.PRODUCT_PLUS, 8, n1=4), late, 2.0, 1e-9, 0.0),
        (di, ProbeSpec(ProbeFamily.GHZ_BIPARTITE, 8, n1=4), late, 8.0, 1e-9, 0.0),
        (di, ProbeSpec(ProbeFamily.BSD, 8, n1=4, k1=2, k2=2), late, 6.0, 1e-9, 0.0),
        (di, dfs, late, 16.0, 1e-9, 0.0),
    ] + [(di, dfs, T, 16.0, 0.0, 1e-10) for T in (0.0, 1e-3, 0.01, 0.1, 1.0, 10.0)]
    return _anchor_deviation(cases,
                             "steady-state closed forms at N=8, rel tol 1e-9 (DFS const, 1e-10)")


def _check_bsd_oracle() -> tuple[float, str]:
    # at 50 tau_c every kernel entry off the excitation blocks is exactly 0,
    # so the DI_IDEAL pipeline evaluates the exact steady state
    di, late = SchemeKind.DI_IDEAL, 50.0 * DEFAULT_TAU_C
    cases = [(di, ProbeSpec(ProbeFamily.BSD, n, n1=n1, k1=k1, k2=k2), late,
              bsd_steady_qfi(SplitChoice(n, n1, k1, k1 + k2)), 1e-9, 1e-12)
             for n in range(2, 9) for n1 in range(1, n)
             for k1 in range(n1 + 1) for k2 in range(n - n1 + 1)]
    return _anchor_deviation(cases, "steady-state formula vs numeric pipeline, all splits n<=8")


def _check_spin_echo_variance() -> tuple[float, str]:
    noise = NoiseParams(DEFAULT_GAMMA_DELTA_B, DEFAULT_TAU_C)
    worst = 0.0
    for T in (1e-5, 1e-3, 0.01, 0.5, 2.0, 10.0):
        c_full, c_half = phase_variance_c(T, noise), phase_variance_c(T / 2, noise)
        for a, b, ref in ((0.0, 1.0, c_full), (1.0, 1.0, 4.0 * c_half),
                          (-1.5, -1.5, 9.0 * c_half)):
            worst = max(worst, _norm_dev(spin_echo_weights_variance(a, b, T, noise),
                                         ref, 1e-12))
    return worst, ("spin-echo variance, (0, 1) gives C(T) and (b, b) gives "
                   "4 b^2 C(T/2), rel tol 1e-12")


# The package's analytic judges.  `symqfi verify` runs every entry, and the
# acceptance tests run them by name; each returns (normalized deviation,
# detail), with deviation <= 1 meaning pass.
VERIFY_CHECKS = {
    "wigner-orthogonality": _check_wigner_orthogonality,
    "noiseless-anchors": _check_noiseless_anchors,
    "ghz-decay-law": _check_ghz_decay,
    "steady-closed-forms": _check_steady_forms,
    "bsd-oracle-equivalence": _check_bsd_oracle,
    "spin-echo-variance": _check_spin_echo_variance,
}


def cmd_verify(cfg: RunConfig) -> int:
    failures = 0
    for name, check in VERIFY_CHECKS.items():
        dev, detail = check()
        status = "PASS" if dev <= 1.0 else "FAIL"
        failures += status == "FAIL"
        print(f"{status} {name}: normalized deviation {dev:.3e} (<= 1 required; {detail})")
    if failures:
        print(f"{failures} verification check(s) failed")
        return 2
    print("all verification checks passed")
    return 0


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


# every flag but a boolean one takes exactly one token as its value
_VALUED_FLAGS = frozenset(["--config"] + [_flag(f.name) for f in fields(RunConfig)
                                          if _PARSERS[f.name] is not _parse_bool])


def _bind_values(argv: list[str]) -> list[str]:
    """argv with each valued flag joined to the token after it: --x v as --x=v.

    Left apart, argparse takes a value such as -1e-3 or -inf for a flag.
    """
    bound, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUED_FLAGS else None
        bound.append(token if value is None else f"{token}={value}")
    return bound


def _add_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for f in fields(RunConfig):
        flag, help_text = _flag(f.name), f.metadata.get("help")
        if _PARSERS[f.name] is _parse_bool:
            parser.add_argument(flag, dest=f.name, action="store_const", const="true",
                                help=help_text)
        else:
            parser.add_argument(flag, dest=f.name, help=help_text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls, and
    # building the subparsers costs about as much as a steady-map job at n=16
    # no abbreviated flags: _bind_values binds the full names only
    parser = argparse.ArgumentParser(prog="symqfi", description=__doc__, allow_abbrev=False)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in ("scan-time", "scan-rotation", "steady-map", "verify"):
        _add_flags(subparsers.add_parser(command, allow_abbrev=False))
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_bind_values(sys.argv[1:] if argv is None else argv))
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
