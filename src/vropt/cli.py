"""Command-line front end.

Subcommands: solve-ref (certified reference solution), run (single trace),
compare (method grid from a spec file), trace2d (iterate dump plus level-set
grid for 2-feature problems), validate (oracle suite).

Exit codes are a stable contract: 0 success, 1 usage, 2 I/O, 3 divergence.
Identical invocations produce byte-identical output files; wall-clock times
are only written under --times.

$VROPT_CACHE (default ~/.cache/vropt) holds the reference solutions and the
parsed CSR arrays of each LIBSVM file read through --data, so a file is
parsed once per cache; deleting the directory clears both.
"""

import argparse
import hashlib
import os
import sys

import numpy as np

from .bench_data import load_dataset
from .data import ParseError, read_csr, write_csr
from .diag import StopRule, cache_dir, fit_linear_rate, solve_reference, write_trace
from .objectives import GlmObjective, smoothness
from .optimizers import METHODS, ConfigError, DivergenceError, RunConfig, _resolve_gamma, run
from .schedules import StepsizePolicy, lipschitz_scheme, uniform_scheme
from .validate import run_checks
from . import sparse_jit, vecio

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DIVERGED = 3

LOSSES = ("half_squared", "logistic", "hinge")

# leads the data-cache key: change it whenever parse_libsvm would read a file
# differently or the entry layout (data.write_csr) changes
DATA_CACHE_TAG = b"libsvm-csr-1"


class UsageError(Exception):
    pass


class IoError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract reserves 2 for I/O."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        sys.exit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# shared helpers


def _data_entry(path, dim):
    """Data-cache path of a LIBSVM file: a sha256 over the tag, the dim
    override and the file's bytes, read 1 MiB at a time."""
    h = hashlib.sha256(DATA_CACHE_TAG + b"|%s|" % str(dim).encode())
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return os.path.join(cache_dir(), h.hexdigest()[:24] + ".csr")


def _load_data(path, dim=None):
    """The Dataset behind --data. A LIBSVM file that parses is kept in the
    data cache, and a later load of the same bytes and dim reads it back
    instead of parsing; an absent, short or unreadable entry is parsed and
    written again. Synthetic data, and what is not a regular file (a pipe,
    say, which hashing would drain), is never cached."""
    try:
        if path.startswith("synth:") or not os.path.isfile(path):
            return load_dataset(path, dim=dim)
        entry = _data_entry(path, dim)
        try:
            return read_csr(entry)
        except (OSError, ValueError):
            pass
        data = load_dataset(path, dim=dim)
    except FileNotFoundError as e:
        raise IoError("dataset not found: %s" % (e.filename or path))
    except OSError as e:
        raise IoError("cannot read dataset %s: %s" % (path, e))
    except ParseError as e:
        raise IoError("%s: %s" % (path, e))
    except ValueError as e:
        raise UsageError(str(e))
    try:
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        write_csr(entry, data)
    except OSError:
        pass  # an unwritable cache costs the next load a parse, nothing more
    return data


def _policy_from_text(text):
    kind, sep, rest = text.partition(":")
    if kind == "fixed":
        if not sep:
            raise UsageError("fixed policy needs a value, e.g. fixed:0.1")
        return StepsizePolicy("fixed", gamma=_number(rest, "gamma"))
    if kind == "armijo":
        gmax = _number(rest, "gamma_max") if sep else 1.0
        return StepsizePolicy("armijo", gamma_max=gmax)
    if kind in ("theory", "minibatch") and not sep:
        return StepsizePolicy(kind)
    raise UsageError("unknown stepsize policy %r (fixed:G, theory, minibatch, armijo[:GMAX])" % text)


def _number(text, what):
    try:
        return float(text)
    except ValueError:
        raise UsageError("bad %s value %r" % (what, text))


def _read_xstar(path, dim):
    try:
        x = vecio.read_vector(path)
    except FileNotFoundError:
        raise IoError("xstar file not found: %s" % path)
    except (OSError, ValueError) as e:
        raise IoError(str(e))
    if x.shape[0] != dim:
        raise UsageError("xstar has %d coordinates, dataset has %d" % (x.shape[0], dim))
    return x


def _read_fstar(text):
    """--fstar takes a literal number or a path to a scalar file."""
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return vecio.read_scalar_text(text)
    except FileNotFoundError:
        raise IoError("fstar file not found: %s" % text)
    except (OSError, ValueError) as e:
        raise IoError("bad fstar file %s: %s" % (text, e))


def _scheme(ns, obj):
    if ns.sampling == "lipschitz":
        return lipschitz_scheme(smoothness(obj).per_example, batch=ns.batch)
    return uniform_scheme(batch=ns.batch)


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _resolve(config, obj):
    """Set config.gamma to the stepsize run() would resolve (the header
    prints it and run() takes it as given); returns the header's engine
    lines, the engine run() will pick and why."""
    if config.method != "sdca":
        try:
            config.gamma = _resolve_gamma(config, obj, config.scheme)[0]
        except ValueError:
            pass  # run() raises it again, after its own validation
    return dict(zip(("engine", "engine_reason"), sparse_jit.choose_engine(config, obj, config.gamma)))


def _run_meta(ns, config, obj):
    """Fixed-order resolved settings, printed into every output header."""
    keys = ("data", "dim", "loss", "l2", "l1", "method", "gamma", "gamma_policy",
            "beta", "batch", "sampling", "inner_t", "epochs", "seed",
            "checkpoint_every", "engine", "engine_reason", "jit", "warm_start_sgd_epochs", "stop")
    resolved = _resolve(config, obj)
    resolved["gamma"] = config.gamma
    return {k: _fmt(resolved[k] if k in resolved else getattr(ns, k, None)) for k in keys}


def _atomic_text(path, text):
    try:
        vecio.atomic_write_text(path, text)
    except OSError as e:
        raise IoError("cannot write %s: %s" % (path, e))


def _write_run_trace(records, out, meta, times):
    if not times:
        for rec in records:
            rec.time_s = None
    if out is None:
        write_trace(records, sys.stdout, meta=meta)
        return
    try:
        write_trace(records, out, meta=meta)
    except OSError as e:
        raise IoError("cannot write %s: %s" % (out, e))


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve_ref(ns):
    data = _load_data(ns.data, ns.dim)
    obj = GlmObjective(data, ns.loss, l2=ns.l2, l1=ns.l1)
    try:
        x_star, f_star = solve_reference(obj, tol=ns.tol)
    except (ValueError, RuntimeError) as e:
        raise IoError("reference solve failed: %s" % e)
    xpath = ns.out + ".xstar.vec"
    fpath = ns.out + ".fstar.txt"
    try:
        vecio.write_vectors(xpath, x_star)
        vecio.write_scalar_text(fpath, f_star)
    except OSError as e:
        raise IoError("cannot write reference files: %s" % e)
    print("wrote %s and %s (f* = %.17g)" % (xpath, fpath, f_star))
    return EXIT_OK


def _build_config(ns, obj):
    policy = _policy_from_text(ns.gamma_policy) if ns.gamma_policy else None
    x_star = _read_xstar(ns.xstar, obj.d) if ns.xstar else None
    f_star = _read_fstar(ns.fstar) if ns.fstar is not None else None
    try:
        StopRule.parse(ns.stop)
    except ValueError as e:
        raise UsageError(str(e))
    config = RunConfig(
        method=ns.method,
        epochs=ns.epochs,
        seed=ns.seed,
        gamma=ns.gamma,
        policy=policy,
        scheme=_scheme(ns, obj),
        beta=ns.beta,
        inner_t=ns.inner_t,
        jit=ns.jit,
        x_star=x_star,
        warm_start_sgd_epochs=ns.warm_start_sgd_epochs,
        checkpoint_every=ns.checkpoint_every,
        stop=ns.stop,
        f_star=f_star,
        record_iterates=getattr(ns, "record_iterates", False),
    )
    return config


def cmd_run(ns):
    data = _load_data(ns.data, ns.dim)
    obj = GlmObjective(data, ns.loss, l2=ns.l2, l1=ns.l1)
    config = _build_config(ns, obj)
    meta = _run_meta(ns, config, obj)
    try:
        res = run(config, obj)
    except DivergenceError as e:
        meta["diverged"] = "gamma=%s" % _fmt(e.gamma)
        if ns.out:
            _write_run_trace(e.records or [], ns.out, meta, ns.times)
        sys.stderr.write("diverged: %s\n" % e)
        return EXIT_DIVERGED
    _write_run_trace(res.records, ns.out, meta, ns.times)
    if ns.out:
        print("wrote %s (%d checkpoints, %d gradient evals)"
              % (ns.out, len(res.records), res.grad_evals))
    return EXIT_OK


# compare spec files: line-oriented "key = value" with [method] blocks.

_TOP_KEYS = {"data", "dim", "loss", "l2", "l1", "epochs", "seeds",
             "checkpoint_every", "out"}
_ENTRY_KEYS = {"name", "label", "gamma", "gamma_policy", "sampling", "batch",
               "inner_t", "beta", "table", "jit", "warm_start_sgd_epochs", "stop"}


def parse_compare_spec(text):
    """Parse and fully validate a compare spec; no partial grids on errors."""
    top = {}
    entries = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[method]":
            current = {}
            entries.append(current)
            continue
        if line.startswith("["):
            raise UsageError("line %d: unknown section %s" % (lineno, line))
        key, sep, val = line.partition("=")
        if not sep:
            raise UsageError("line %d: expected key = value" % lineno)
        key, val = key.strip(), val.strip()
        scope = top if current is None else current
        allowed = _TOP_KEYS if current is None else _ENTRY_KEYS
        if key not in allowed:
            raise UsageError("line %d: unknown key %r (valid: %s)"
                             % (lineno, key, ", ".join(sorted(allowed))))
        if key in scope:
            raise UsageError("line %d: duplicate key %r" % (lineno, key))
        scope[key] = val
    if "data" not in top:
        raise UsageError("spec needs a data = line")
    if "out" not in top:
        raise UsageError("spec needs an out = line")
    if not entries:
        raise UsageError("spec lists no [method] blocks")
    loss = top.get("loss", "logistic")
    if loss not in LOSSES:
        raise UsageError("unknown loss %r (valid: %s)" % (loss, ", ".join(LOSSES)))
    labels = set()
    for entry in entries:
        name = entry.get("name")
        if name is None:
            raise UsageError("every [method] block needs a name = line")
        if name not in METHODS:
            raise UsageError("unknown method %r (valid: %s)" % (name, ", ".join(METHODS)))
        if loss == "hinge" and name != "sdca":
            raise UsageError("hinge loss supports sdca only; got %r" % name)
        if name == "sgd_momentum" and "beta" not in entry:
            raise UsageError("method sgd_momentum needs beta =")
        label = entry.get("label", name)
        if label in labels:
            raise UsageError("duplicate method label %r; set label = to disambiguate" % label)
        labels.add(label)
        entry["label"] = label
        if "gamma" in entry and "gamma_policy" in entry:
            raise UsageError("method %s sets both gamma and gamma_policy" % label)
        if "gamma_policy" in entry:
            _policy_from_text(entry["gamma_policy"])
        for k in ("gamma", "beta", "warm_start_sgd_epochs"):
            if k in entry:
                _number(entry[k], k)
        if not 0 <= float(entry.get("warm_start_sgd_epochs", "0")) < np.inf:
            raise UsageError("method %s: warm_start_sgd_epochs must be nonnegative and finite" % label)
        for k in ("batch", "inner_t"):
            if k in entry and not (entry[k].isdigit() and int(entry[k]) >= 1):
                raise UsageError("method %s: %s must be a positive integer" % (label, k))
        if entry.get("sampling", "uniform") not in ("uniform", "lipschitz"):
            raise UsageError("method %s: bad sampling %r" % (label, entry["sampling"]))
        if entry.get("table", "scalar") != "scalar":
            raise UsageError("method %s: bad table %r (only scalar)" % (label, entry["table"]))
        if entry.get("jit", "auto") not in sparse_jit.JIT_MODES:
            raise UsageError("method %s: bad jit %r" % (label, entry["jit"]))
        if "stop" in entry:
            try:
                StopRule.parse(entry["stop"])
            except ValueError as e:
                raise UsageError("method %s: %s" % (label, e))
    for k in ("l1", "epochs", "checkpoint_every"):
        if k in top:
            _number(top[k], k)
    if "checkpoint_every" in top and not 0 < float(top["checkpoint_every"]) < np.inf:
        raise UsageError("checkpoint_every must be positive and finite")
    if "epochs" in top and not 0 <= float(top["epochs"]) < np.inf:
        raise UsageError("epochs must be nonnegative and finite")
    if "l2" in top and top["l2"] != "1/n":
        _number(top["l2"], "l2")
    if "dim" in top and not top["dim"].isdigit():
        raise UsageError("dim must be a positive integer")
    seeds = top.get("seeds", "0").split()
    if not seeds or not all(s.isdigit() for s in seeds):
        raise UsageError("seeds must be a space-separated list of nonnegative integers")
    top["seeds"] = [int(s) for s in seeds]
    return top, entries


def cmd_compare(ns):
    try:
        with open(ns.spec) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise IoError("spec file not found: %s" % ns.spec)
    except OSError as e:
        raise IoError("cannot read spec %s: %s" % (ns.spec, e))
    top, entries = parse_compare_spec(text)

    data = _load_data(top["data"], int(top["dim"]) if "dim" in top else None)
    loss = top.get("loss", "logistic")
    l2_text = top.get("l2", "1/n")
    l2 = 1.0 / data.n if l2_text == "1/n" else float(l2_text)
    obj = GlmObjective(data, loss, l2=l2, l1=float(top.get("l1", "0")))
    epochs = float(top.get("epochs", "30"))
    cp = float(top.get("checkpoint_every", "1"))
    outdir = top["out"]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        raise IoError("cannot create output directory %s: %s" % (outdir, e))

    # certified reference for suboptimality (and for sgd_star anchors)
    x_star = f_star = None
    if obj.loss.smooth:
        try:
            x_star, f_star = solve_reference(obj)
        except (ValueError, RuntimeError) as e:
            raise IoError("reference solve failed: %s" % e)
    info = smoothness(obj) if obj.loss.smooth else None

    summary = ["label,method,seed,final_f,final_subopt,rho_hat,r2"]
    for entry in entries:
        name = entry["name"]
        for seed in top["seeds"]:
            batch = int(entry.get("batch", "1"))
            scheme = (lipschitz_scheme(info.per_example, batch=batch)
                      if entry.get("sampling") == "lipschitz"
                      else uniform_scheme(batch=batch))
            gamma = float(entry["gamma"]) if "gamma" in entry else None
            policy = (_policy_from_text(entry["gamma_policy"])
                      if "gamma_policy" in entry else None)
            if gamma is None and policy is None and name in ("sgd", "sgd_momentum"):
                gamma = 1.0 / info.l_max  # shared constant step for the baselines
            config = RunConfig(
                method=name, epochs=epochs, seed=seed, gamma=gamma, policy=policy,
                scheme=scheme, beta=float(entry.get("beta", "0")),
                inner_t=int(entry["inner_t"]) if "inner_t" in entry else None,
                jit=entry.get("jit", "auto"),
                x_star=x_star if name == "sgd_star" else None,
                warm_start_sgd_epochs=float(entry.get("warm_start_sgd_epochs", "0")),
                checkpoint_every=cp, stop=entry.get("stop"), f_star=f_star,
            )
            meta = {
                "data": top["data"], "loss": loss, "l2": _fmt(l2),
                "l1": top.get("l1", "0"), "method": name, "label": entry["label"],
                "gamma": _fmt(gamma), "gamma_policy": entry.get("gamma_policy", ""),
                "batch": str(batch), "sampling": entry.get("sampling", "uniform"),
                "inner_t": entry.get("inner_t", ""), "epochs": _fmt(epochs),
                "seed": str(seed), "checkpoint_every": _fmt(cp),
                **_resolve(config, obj), "jit": entry.get("jit", "auto"),
                "stop": entry.get("stop", "epochs"),
            }
            out = os.path.join(outdir, "%s_seed%d.csv" % (entry["label"], seed))
            try:
                res = run(config, obj)
            except DivergenceError as e:
                meta["diverged"] = "gamma=%s" % _fmt(e.gamma)
                recs = e.records or []
                for rec in recs:
                    rec.time_s = None
                write_trace(recs, out, meta=meta)
                sys.stderr.write("diverged: %s (%s seed %d)\n" % (e, entry["label"], seed))
                return EXIT_DIVERGED
            if not ns.times:
                for rec in res.records:
                    rec.time_s = None
            try:
                write_trace(res.records, out, meta=meta)
            except OSError as e:
                raise IoError("cannot write %s: %s" % (out, e))
            final = res.records[-1]
            try:
                fit = fit_linear_rate(res.records)
                rho, r2 = "%.17g" % fit.rho_hat, "%.17g" % fit.r2
            except ValueError:
                rho = r2 = ""
            summary.append("%s,%s,%d,%s,%s,%s,%s" % (
                entry["label"], name, seed, _fmt(final.f), _fmt(final.subopt), rho, r2))
    spath = os.path.join(outdir, "summary.csv")
    _atomic_text(spath, "\n".join(summary) + "\n")
    print("wrote %d trace files and %s" % (len(entries) * len(top["seeds"]), spath))
    return EXIT_OK


def cmd_trace2d(ns):
    data = _load_data(ns.data, ns.dim)
    if data.d != 2:
        raise UsageError("trace2d needs a 2-feature dataset; %s has %d" % (ns.data, data.d))
    obj = GlmObjective(data, ns.loss, l2=ns.l2, l1=ns.l1)
    ns.record_iterates = True
    config = _build_config(ns, obj)
    meta = _run_meta(ns, config, obj)
    diverged = False
    try:
        res = run(config, obj)
        iterates = res.iterates
    except DivergenceError as e:
        diverged = True
        iterates = []
        meta["diverged"] = "gamma=%s" % _fmt(e.gamma)
        sys.stderr.write("diverged: %s\n" % e)

    ipath = ns.out + ".iterates.csv"
    lines = ["# %s = %s" % (k, v) for k, v in meta.items()]
    lines.append("k,x1,x2")
    for k, x in iterates:
        lines.append("%d,%s,%s" % (k, _fmt(float(x[0])), _fmt(float(x[1]))))
    _atomic_text(ipath, "\n".join(lines) + "\n")
    if diverged:
        return EXIT_DIVERGED

    pts = np.array([x for _, x in iterates])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-6)
    lo = lo - 0.25 * span
    hi = hi + 0.25 * span
    xs = np.linspace(lo[0], hi[0], ns.grid)
    ys = np.linspace(lo[1], hi[1], ns.grid)
    glines = ["# grid = %d" % ns.grid, "x1,x2,f"]
    for a in xs:
        for b in ys:
            f = obj.objective_value(np.array([a, b]))
            glines.append("%s,%s,%s" % (_fmt(float(a)), _fmt(float(b)), _fmt(f)))
    gpath = ns.out + ".grid.csv"
    _atomic_text(gpath, "\n".join(glines) + "\n")
    print("wrote %s (%d iterates) and %s (%dx%d grid)"
          % (ipath, len(iterates), gpath, ns.grid, ns.grid))
    return EXIT_OK


def cmd_validate(ns):
    try:
        results = run_checks(only=ns.only)
    except KeyError as e:
        raise UsageError(str(e.args[0]))
    for r in results:
        print(r.line())
    passed = sum(1 for r in results if r.passed)
    print("passed %d/%d" % (passed, len(results)))
    return EXIT_OK if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parser


def _add_objective_flags(p):
    p.add_argument("--data", required=True, help="libsvm path or synth:NAME[:SEED]")
    p.add_argument("--dim", type=int, default=None, help="feature count of a LIBSVM file (not for synth:)")
    p.add_argument("--loss", choices=LOSSES, default="logistic")
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--l1", type=float, default=0.0)


def _add_run_flags(p):
    p.add_argument("--method", required=True, choices=sorted(METHODS))
    g = p.add_mutually_exclusive_group()
    g.add_argument("--gamma", type=float, default=None)
    g.add_argument("--gamma-policy", default=None,
                   help="fixed:G | theory | minibatch | armijo[:GMAX]")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--sampling", choices=("uniform", "lipschitz"), default="uniform")
    p.add_argument("--inner-t", type=int, default=None, help="stage length (default n)")
    p.add_argument("--epochs", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-every", type=float, default=1.0)
    p.add_argument("--xstar", default=None, help="vector file with the reference point")
    p.add_argument("--fstar", default=None, help="reference value or scalar file")
    p.add_argument("--jit", choices=sparse_jit.JIT_MODES, default="auto")
    # one table layout; the flag stays so command lines that name it still run
    p.add_argument("--table", choices=("scalar",), default="scalar")
    p.add_argument("--warm-start-sgd-epochs", type=float, default=0.0)
    p.add_argument("--stop", default="epochs", help="grad:EPS | gbar:EPS | gap:EPS | epochs")
    p.add_argument("--times", action="store_true", help="record wall-clock times")


def build_parser():
    parser = _Parser(prog="vropt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("solve-ref", help="solve and cache a certified reference")
    _add_objective_flags(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_solve_ref)

    p = sub.add_parser("run", help="run one method and write its trace")
    _add_objective_flags(p)
    _add_run_flags(p)
    p.add_argument("--out", default=None, help="trace path (default stdout)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run a method grid from a spec file")
    p.add_argument("spec", help="line-oriented key = value spec with [method] blocks")
    p.add_argument("--times", action="store_true", help="record wall-clock times")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("trace2d", help="dump iterates and a level-set grid (d=2)")
    _add_objective_flags(p)
    _add_run_flags(p)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--grid", type=int, default=61, help="grid points per axis")
    p.set_defaults(func=cmd_trace2d)

    p = sub.add_parser("validate", help="run the oracle and invariant suite")
    p.add_argument("--only", default=None, help="run a single named check")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except UsageError as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_USAGE
    except (ConfigError, ValueError) as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_USAGE
    except IoError as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_IO
    except DivergenceError as e:
        sys.stderr.write("diverged: %s\n" % e)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
