"""Operator front end: run scenarios, sweep the threshold grid, audit.

Scenario files are flat text: `key = value` lines for parameters,
`input = 1 2 ; 3 4` rows for source matrices, `adversary = 3 Silent`
corruption entries, and one program op per line in prefix form
(`MUL ra rb -> rc`). Results go to stdout and optionally to files as
line-delimited records with a stable key order, so identical configs
and seeds produce identical bytes; the sweep's wall-time column is the
one deliberate exception.

Exit codes: 0 success, 1 a run finished with a wrong output,
2 configuration error, 3 protocol abort (any failure inside a run that
is not a ParameterViolation), 4 leakage flagged by an audit. A run's
`correct` field is judged against a plain Python-integer evaluation of
the same program, kept free of any protocol code.
"""

import argparse
import hashlib
import os
import sys
import time

import numpy as np

from .audit import (LEAK_PRODUCT, LEAK_SOURCE, AuditTemplate, enumerate_views,
                    monte_carlo_audit, product_round_audit, tv_distance)
from .errors import CompcError, ParameterViolation, ProtocolAbort, TooFewSurvivors
from .gf import DEFAULT_PRIME, FMatrix
from .mpc import ProgramOp, multiply_semi_honest, recovery_threshold
from .net import STRATEGY_NAMES, Scenario, encode, run_scenario
from .sharing import reconstruct

OK, CONFIG_ERROR, ABORT, LEAKY = 0, 2, 3, 4

_OPS = {
    "SHARE": ("share", 2, True),
    "MUL": ("mul", 2, True),
    "ADD": ("add", 2, True),
    "TRANSPOSE": ("transpose", 1, True),
    "D2R": ("d2r", 1, True),
    "R2D": ("r2d", 1, True),
    "REVEAL": ("reveal", 1, False),
}


class ConfigError(Exception):
    pass


def parse_program_line(line):
    head, _, tail = line.partition("->")
    tokens = head.split()
    mnemonic = tokens[0].upper()
    if mnemonic not in _OPS:
        raise ConfigError(f"unknown op {tokens[0]!r}")
    kind, arity, has_dest = _OPS[mnemonic]
    args = tokens[1:]
    dest = tail.strip()
    if len(args) != arity or bool(dest) != has_dest:
        raise ConfigError(f"malformed op line {line!r}")
    if kind == "share":
        try:
            src = int(args[0])
        except ValueError as exc:
            raise ConfigError(f"bad source index in {line!r}") from exc
        if args[1] not in ("direct", "reverse"):
            raise ConfigError(f"bad direction in {line!r}")
        return ProgramOp("share", (src, args[1]), dest)
    if kind == "reveal":
        return ProgramOp("reveal", (args[0],))
    return ProgramOp(kind, tuple(args), dest)


def parse_scenario_text(text):
    """Parse the flat scenario format into plain settings + program."""
    settings = {"prime": DEFAULT_PRIME, "seed": 0}
    adversaries, inputs, program = [], [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and not line.partition("=")[0].strip().isupper():
            key, _, value = (x.strip() for x in line.partition("="))
            if key in ("n", "t", "m", "z", "prime", "seed"):
                try:
                    settings[key] = int(value)
                except ValueError as exc:
                    raise ConfigError(f"bad integer for {key}: {value!r}") from exc
            elif key == "adversary":
                parts = value.split()
                if len(parts) != 2:
                    raise ConfigError(f"adversary needs party and strategy: {raw!r}")
                try:
                    adversaries.append((int(parts[0]), parts[1]))
                except ValueError as exc:
                    raise ConfigError(f"bad adversary party: {raw!r}") from exc
            elif key == "input":
                try:
                    rows = [[int(v) for v in row.split()]
                            for row in value.split(";")]
                except ValueError as exc:
                    raise ConfigError(f"bad input row: {raw!r}") from exc
                inputs.append(rows)
            else:
                raise ConfigError(f"unknown setting {key!r}")
        else:
            program.append(parse_program_line(line))
    return settings, tuple(adversaries), inputs, tuple(program)


def load_scenario(args):
    """The Scenario that `compc run` with these parsed options runs."""
    try:
        with open(args.scenario, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}") from exc
    settings, adversaries, raw_inputs, program = parse_scenario_text(text)
    for field in ("n", "t", "m", "prime", "seed"):
        override = getattr(args, field)
        if override is not None:
            settings[field] = override
    for field in ("n", "t", "m", "z"):
        if field not in settings:
            raise ConfigError(f"scenario is missing {field}")
    if args.strategy:
        if args.strategy not in STRATEGY_NAMES:
            raise ConfigError(f"unknown strategy {args.strategy!r}")
        if adversaries:
            adversaries = tuple((party, args.strategy)
                                for party, _ in adversaries)
        else:
            last = settings["n"]
            adversaries = tuple((last - i, args.strategy)
                                for i in range(settings["t"]))
    p = settings["prime"]
    inputs = tuple(FMatrix(rows, p) for rows in raw_inputs)
    if not program:
        raise ConfigError("scenario has no program")
    return Scenario(n=settings["n"], t=settings["t"], m=settings["m"], p=p,
                    seed=settings["seed"], z=settings["z"], program=program,
                    adversaries=tuple(adversaries), inputs=inputs)


def _py_matmul_t(x, y, p):
    """x @ y^T over plain Python ints, immune to any numpy conventions."""
    rows, inner = len(x), len(x[0])
    cols = len(y)
    return [[sum(x[i][k] * y[j][k] for k in range(inner)) % p
             for j in range(cols)] for i in range(rows)]


def direct_eval(program, inputs, p):
    """Reference evaluation of a program on the raw secret matrices."""
    regs = {}
    out = None
    for op in program:
        if op.kind == "share":
            regs[op.dest] = [[int(v) % p for v in row]
                             for row in inputs[op.args[0]].a.tolist()]
        elif op.kind == "mul":
            regs[op.dest] = _py_matmul_t(regs[op.args[0]], regs[op.args[1]], p)
        elif op.kind == "add":
            a, b = regs[op.args[0]], regs[op.args[1]]
            regs[op.dest] = [[(u + v) % p for u, v in zip(ra, rb)]
                             for ra, rb in zip(a, b)]
        elif op.kind == "transpose":
            src = regs[op.args[0]]
            regs[op.dest] = [list(col) for col in zip(*src)]
        elif op.kind in ("d2r", "r2d"):
            regs[op.dest] = regs[op.args[0]]
        elif op.kind == "reveal":
            out = regs[op.args[0]]
        else:
            raise ConfigError(f"unknown program op {op.kind!r}")
    return out


def _digest(matrix):
    return hashlib.sha256(encode(matrix.a)).hexdigest()


def _eliminations(transcript):
    found = {}
    for event in transcript.events:
        if event and event[0] == "eliminate":
            _, _, party, reason = event
            found.setdefault(int(party), str(reason))
    return found


def _emit(lines, out_path):
    text = "\n".join(lines) + ("\n" if lines else "")
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_run(args):
    scenario = load_scenario(args)
    name = os.path.splitext(os.path.basename(args.scenario))[0]
    try:
        transcript = run_scenario(scenario)
    except ParameterViolation:
        raise
    except CompcError as exc:
        # a decoder that gives up mid-run is an abort, not a bad config
        line = (f"record=run scenario={name} n={scenario.n} t={scenario.t} "
                f"m={scenario.m} p={scenario.p} seed={scenario.seed} "
                f"correct=false abort={exc.__class__.__name__} "
                f"eliminations=- master=-")
        _emit([line], args.out)
        return ABORT
    expected = direct_eval(scenario.program, scenario.inputs, scenario.p)
    master = transcript.master_output
    correct = (expected is None and master is None) or (
        master is not None and expected is not None
        and master.a.tolist() == expected)
    elimin = _eliminations(transcript)
    elim_txt = ",".join(f"{party}:{reason}"
                        for party, reason in sorted(elimin.items())) or "-"
    digest = _digest(master) if master is not None else "-"
    line = (f"record=run scenario={name} n={scenario.n} t={scenario.t} "
            f"m={scenario.m} p={scenario.p} seed={scenario.seed} "
            f"correct={'true' if correct else 'false'} abort=- "
            f"eliminations={elim_txt} master={digest}")
    _emit([line], args.out)
    if args.out:
        with open(args.out + ".transcript", "w", encoding="utf-8") as fh:
            fh.write(transcript.serialize())
    return OK if correct else 1


def _parse_sweep_grid(grid):
    """Grid syntax: `m=1,2;t=0,1;strategy=Silent,-` (strategy optional)."""
    dims = {"m": [1, 2], "t": [0, 1], "strategy": ["-"]}
    if grid:
        for part in grid.split(";"):
            key, _, values = part.partition("=")
            key = key.strip()
            if key not in dims or not values:
                raise ConfigError(f"bad grid dimension {part!r}")
            if key == "strategy":
                names = [v.strip() for v in values.split(",")]
                for name in names:
                    if name != "-" and name not in STRATEGY_NAMES:
                        raise ConfigError(f"unknown strategy {name!r}")
                dims[key] = names
            else:
                try:
                    dims[key] = [int(v) for v in values.split(",")]
                except ValueError as exc:
                    raise ConfigError(f"bad grid values {part!r}") from exc
    cells = []
    for m in dims["m"]:
        for t in dims["t"]:
            for strat in dims["strategy"]:
                cells.append((m, t, "-" if t == 0 else strat))
    return sorted(set(cells))


def _cell_seed(base, m, t, strategy):
    digest = hashlib.sha256(f"sweep|{base}|{m}|{t}|{strategy}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _sweep_cell(cell, base_seed):
    m, t, strategy = cell
    n = recovery_threshold(m, t)
    p = DEFAULT_PRIME
    z = m
    seed = _cell_seed(base_seed, m, t, strategy)
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = FMatrix.random(z, z, p, rng)
    b = FMatrix.random(z, z, p, rng)
    expected = _py_matmul_t(a.a.tolist(), b.a.tolist(), p)
    start = time.perf_counter()
    if strategy == "-":
        shares = multiply_semi_honest(a, b, m, t, n, rng)
        opened = reconstruct(list(shares.values()))
        correct = opened.a.tolist() == expected
        elim = 0
    else:
        program = (ProgramOp("share", (0, "direct"), "ra"),
                   ProgramOp("share", (1, "reverse"), "rb"),
                   ProgramOp("mul", ("ra", "rb"), "rc"),
                   ProgramOp("reveal", ("rc",)))
        adversaries = tuple((n - i, strategy) for i in range(t))
        scenario = Scenario(n=n, t=t, m=m, p=p, seed=seed, z=z,
                            program=program, adversaries=adversaries,
                            inputs=(a, b))
        transcript = run_scenario(scenario)
        correct = transcript.master_output.a.tolist() == expected
        elim = len(_eliminations(transcript))
    wall_ms = (time.perf_counter() - start) * 1000
    return (f"record=sweep m={m} t={t} n={n} strategy={strategy} "
            f"correct={'true' if correct else 'false'} eliminations={elim} "
            f"wall_ms={wall_ms:.1f}")


def cmd_sweep(args):
    cells = _parse_sweep_grid(args.grid)
    _emit([_sweep_cell(cell, args.seed) for cell in cells], args.out)
    return OK


_AUDIT_X = [[1, 2]]
_AUDIT_Y = [[4, 0]]
_NARROW = (([[2]], [[3]]), ([[4]], [[1]]))
_WIDE = (([[1, 2]], [[3, 0]]), ([[0, 4]], [[2, 2]]))


def _pair(values, p):
    return (FMatrix(values[0], p), FMatrix(values[1], p))


def _audit_case(token, samples, seed):
    """Yield (record-line, leaky) for one audit grid token."""
    p = 5
    if token in ("sharing-m1", "sharing-m2", "sharing-leak"):
        m = 2 if token == "sharing-m2" else 1
        leak = LEAK_SOURCE if token == "sharing-leak" else ""
        tpl = AuditTemplate("sharing", 4, 1, m, p, 1, 2, leak)
        x, y = FMatrix(_AUDIT_X, p), FMatrix(_AUDIT_Y, p)
        for obs in range(1, tpl.n + 1):
            tv = tv_distance(enumerate_views(tpl, x, (obs,)),
                             enumerate_views(tpl, y, (obs,)))
            leaky = tv != 0
            yield (f"record=audit case={token} observer={obs} mode=exact "
                   f"tv={tv} kernels=- flags=- "
                   f"verdict={'leaky' if leaky else 'private'}"), leaky
    elif token == "product-narrow":
        tpl = AuditTemplate("product-round", 3, 1, 1, p, 1, 1)
        pa, pb = _pair(_NARROW[0], p), _pair(_NARROW[1], p)
        tv = tv_distance(enumerate_views(tpl, pa, (1,)),
                         enumerate_views(tpl, pb, (1,)))
        leaky = tv != 0
        yield (f"record=audit case={token} observer=1 mode=exact "
               f"tv={tv} kernels=- flags=- "
               f"verdict={'leaky' if leaky else 'private'}"), leaky
    elif token in ("product-wide", "product-leak"):
        leak = LEAK_PRODUCT if token == "product-leak" else ""
        tpl = AuditTemplate("product-round", 3, 1, 1, p, 1, 2, leak)
        pa, pb = _pair(_WIDE[0], p), _pair(_WIDE[1], p)
        for obs in range(1, tpl.n + 1):
            rep = product_round_audit(tpl, pa, pb, obs)
            leaky = rep.tv != 0 or not rep.kernels_match
            yield (f"record=audit case={token} observer={obs} mode=factored "
                   f"tv={rep.tv} kernels={'ok' if rep.kernels_match else 'broken'} "
                   f"flags=- verdict={'leaky' if leaky else 'private'}"), leaky
    elif token == "mc-sharing":
        share = ProgramOp("share", (0, "direct"), "r0")
        scenario = Scenario(n=4, t=1, m=1, p=p, seed=0, z=1, program=(share,))
        secrets = ((FMatrix([[2]], p),), (FMatrix([[4]], p),))
        report = monte_carlo_audit(scenario, secrets, (2,), samples, seed=seed)
        leaky = bool(report.flags)
        yield (f"record=audit case={token} observer=2 mode=sampled tv=- "
               f"kernels=- flags={len(report.flags)} "
               f"verdict={'leaky' if leaky else 'private'}"), leaky
    else:
        raise ConfigError(f"unknown audit case {token!r}")


DEFAULT_AUDIT_GRID = "sharing-m1,sharing-m2,product-wide"


def cmd_audit(args):
    tokens = [tok.strip() for tok in args.grid.split(",") if tok.strip()]
    lines, leaky_any = [], False
    for token in tokens:
        for line, leaky in _audit_case(token, args.samples, args.seed):
            lines.append(line)
            leaky_any = leaky_any or leaky
    _emit(lines, args.out)
    return LEAKY if leaky_any else OK


def build_parser():
    """One subparser per command, each with only the options it reads.
    No parser takes a prefix of an option for the option."""
    parser = argparse.ArgumentParser(
        prog="compc", allow_abbrev=False,
        description="Coded MPC scenario runner, threshold sweep, and audits")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", allow_abbrev=False,
                         help="execute one scenario file and judge the output")
    run.add_argument("--scenario", required=True)
    for name in ("seed", "n", "t", "m", "prime"):
        run.add_argument(f"--{name}", type=int, default=None)
    run.add_argument("--strategy", default="")
    sweep = sub.add_parser("sweep", allow_abbrev=False,
                           help="grid of (m, t, strategy) cells at N = 3t+2m-1")
    sweep.add_argument("--grid", default="")
    sweep.add_argument("--seed", type=int, default=0)
    audit = sub.add_parser("audit", allow_abbrev=False,
                           help="exact and sampled leakage audits")
    audit.add_argument("--grid", default=DEFAULT_AUDIT_GRID)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--samples", type=int, default=2000)
    for cmd in (run, sweep, audit):
        cmd.add_argument("--out", default="")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "sweep": cmd_sweep,
               "audit": cmd_audit}[args.subcommand]
    try:
        return handler(args)
    except (ConfigError, ParameterViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (ProtocolAbort, TooFewSurvivors) as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return ABORT
    except CompcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
