"""Command-line front end.

Subcommands: solve-ref (certified reference solution), run (single trace),
compare (method grid from a spec file), trace2d (iterate dump plus level-set
grid for 2-feature problems), validate (oracle suite).

Exit codes are a stable contract: 0 success, 1 usage, 2 I/O (or a compare
worker that died), 3 divergence.
Identical invocations produce byte-identical output files; wall-clock times
are only written under --times.

$VROPT_CACHE (default ~/.cache/vropt) holds the reference solutions and the
parsed CSR arrays of each LIBSVM file read through --data, so a file is
parsed once per cache; deleting the directory clears both.
"""

import argparse
import contextlib
import functools
import hashlib
import os
import sys

import numpy as np

from .bench_data import load_dataset
from .data import ParseError, read_csr, write_csr
from .diag import cache_dir, fit_linear_rate, solve_reference, write_trace
from .objectives import GlmObjective, smoothness
from .optimizers import METHODS, DivergenceError, RunConfig, check_domain, resolve, run
from .schedules import lipschitz_scheme, uniform_scheme
from .validate import run_checks
from . import optimizers, sparse_jit, vecio

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DIVERGED = 3

ITERATE_BLOCK = 4096  # iterate rows formatted per write (_write_iterates)

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
    """RunConfig's (gamma, armijo) of a --gamma-policy value: fixed:G is
    gamma = G, theory and minibatch both name the default stepsize, and
    armijo[:GMAX] is armijo = GMAX (default 1.0)."""
    kind, sep, rest = text.partition(":")
    if kind == "fixed":  # a bare "fixed" reads G = ''
        return _arg("gamma")(rest), None
    if kind == "armijo":
        return None, _arg("gamma_max")(rest) if sep else 1.0
    if kind in ("theory", "minibatch") and not sep:
        return None, None
    raise UsageError("unknown stepsize policy %r (fixed:G, theory, minibatch, armijo[:GMAX])" % text)


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
    """--fstar takes a literal number or a path to a scalar file; either way
    a non-finite f* is a usage error."""
    try:
        f_star = float(text)
    except ValueError:
        try:
            f_star = vecio.read_scalar_text(text)
        except FileNotFoundError:
            raise IoError("fstar file not found: %s" % text)
        except (OSError, ValueError) as e:
            raise IoError("bad fstar file %s: %s" % (text, e))
    if not np.isfinite(f_star):
        raise UsageError("--fstar must be finite, got %r from %s" % (f_star, text))
    return f_star


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


def _run_meta(ns, plan):
    """Fixed-order settings printed into every output header: the flags as
    parsed (label only for compare blocks), with the stepsize and engine
    that resolve() settled."""
    keys = ("data", "dim", "loss", "l2", "l1", "method", "label", "gamma", "gamma_policy",
            "beta", "batch", "sampling", "inner_t", "epochs", "seed",
            "checkpoint_every", "engine", "engine_reason", "jit", "warm_start_sgd_epochs", "stop")
    resolved = {"gamma": plan.gamma, "engine": plan.engine, "engine_reason": plan.engine_reason}
    return {k: _fmt(resolved[k] if k in resolved else getattr(ns, k))
            for k in keys if k in resolved or hasattr(ns, k)}


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


def _iterate_chunks(iterates, meta):
    """The iterates CSV as text blocks: the header, then ITERATE_BLOCK rows
    of the (steps + 1, 2) array at a time, row k as "k,x1,x2"."""
    yield "".join("# %s = %s\n" % (k, v) for k, v in meta.items()) + "k,x1,x2\n"
    for lo in range(0, len(iterates), ITERATE_BLOCK):
        rows = iterates[lo:lo + ITERATE_BLOCK].tolist()
        yield "".join("%d,%s,%s\n" % (k, _fmt(x[0]), _fmt(x[1])) for k, x in enumerate(rows, lo))


def _write_iterates(iterates, path, meta):
    """Stream the iterates CSV to path, a block at a time: no list of lines."""
    try:
        vecio.atomic_write_bytes(path, (text.encode() for text in _iterate_chunks(iterates, meta)))
    except OSError as e:
        raise IoError("cannot write %s: %s" % (path, e))


def _run_and_write(ns, result, meta, out, where=""):
    """Take result(), a run's RunResult, and write what it recorded to out
    (stdout when None): its trace, or its iterates under ns.record_iterates.
    If result() raises DivergenceError, the header gains diverged = gamma=G,
    a file out still gets the partial record, stderr names the error (where
    says which run), and the return is None."""
    try:
        res = result()
        records, iterates = res.records, res.iterates
    except DivergenceError as e:
        meta["diverged"] = "gamma=%s" % _fmt(e.gamma)
        sys.stderr.write("diverged: %s%s\n" % (e, where))
        if out is None:
            return None
        res, records, iterates = None, e.records, np.empty((0, 2))
    if getattr(ns, "record_iterates", False):
        _write_iterates(iterates, out, meta)
    else:
        _write_run_trace(records, out, meta, ns.times)
    return res


def _objective(ns):
    """The objective of --data, --dim, --loss, --l2 and --l1; an l2 of None
    (a spec's l2 = 1/n) becomes 1/n once the data are loaded."""
    data = _load_data(ns.data, ns.dim)
    if ns.l2 is None:
        ns.l2 = 1.0 / data.n
    return GlmObjective(data, ns.loss, l2=ns.l2, l1=ns.l1)


def _build_config(ns, obj, x_star=None, f_star=None):
    """The RunConfig of a parsed run namespace. compare passes its reference
    in memory; --xstar and --fstar read one from files. --gamma and
    --gamma-policy exclude each other."""
    gamma, armijo = _policy_from_text(ns.gamma_policy) if ns.gamma_policy else (ns.gamma, None)
    return RunConfig(
        method=ns.method,
        epochs=ns.epochs,
        seed=ns.seed,
        gamma=gamma,
        armijo=armijo,
        scheme=_scheme(ns, obj),
        beta=ns.beta,
        inner_t=ns.inner_t,
        jit=ns.jit,
        x_star=_read_xstar(ns.xstar, obj.d) if ns.xstar else x_star,
        warm_start_sgd_epochs=ns.warm_start_sgd_epochs,
        checkpoint_every=ns.checkpoint_every,
        stop=ns.stop,
        f_star=_read_fstar(ns.fstar) if ns.fstar is not None else f_star,
        record_iterates=getattr(ns, "record_iterates", False),
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve_ref(ns):
    obj = _objective(ns)
    try:
        x_star, f_star = solve_reference(obj, tol=ns.tol)
    except RuntimeError as e:  # its ValueErrors are bad inputs: usage errors
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


def cmd_run(ns):
    obj = _objective(ns)
    config = _build_config(ns, obj)
    res = _run_and_write(ns, functools.partial(run, config, obj), _run_meta(ns, resolve(config, obj)), ns.out)
    if res is None:
        return EXIT_DIVERGED
    if ns.out:
        print("wrote %s (%d checkpoints, %d gradient evals)"
              % (ns.out, len(res.records), res.grad_evals))
    return EXIT_OK


# compare spec files: line-oriented "key = value" with [method] blocks.

_TOP_KEYS = {"data", "dim", "loss", "l2", "l1", "epochs", "seeds",
             "checkpoint_every", "out"}
_ENTRY_KEYS = {"name", "label", "gamma", "gamma_policy", "sampling", "batch",
               "inner_t", "beta", "table", "jit", "warm_start_sgd_epochs", "stop"}


class _BlockParser(_Parser):
    """Reads a compare block as `vropt run` flags; a bad one is a usage error."""

    def error(self, message):
        raise UsageError(message)


def _flags(keys):
    """Spec keys as run flags: key k is --k with _ written -."""
    return ["--%s=%s" % (k.replace("_", "-"), v) for k, v in keys.items()]


def parse_compare_spec(text):
    """Parse a compare spec: its syntax, and every [method] block as the
    flags `vropt run` would parse from the top keys (out and seeds aside)
    and the block's keys. Returns (top, blocks): top as written, with seeds
    a list of ints and epochs defaulting to 30; each block a run namespace
    plus its label, whose l2 is None under l2 = 1/n until the data are
    loaded. cmd_compare then puts every block and seed through run()'s own
    checks, so a spec is validated in full before any run starts."""
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
    top["seeds"] = [_arg("seed")(s) for s in top.get("seeds", "0").split()]
    if not top["seeds"]:
        raise UsageError("seeds lists no seed")
    top.setdefault("epochs", "30")
    l2_per_n = top.get("l2", "1/n") == "1/n"
    shared = _flags({k: v for k, v in top.items()
                     if k not in ("out", "seeds") and not (k == "l2" and l2_per_n)})
    parser = _BlockParser(prog="vropt run", add_help=False)
    _add_objective_flags(parser)
    _add_run_flags(parser)
    parser.parse_args(shared + ["--method=gd"])  # a bad top key is no block's error
    blocks = []
    for entry in entries:
        name = entry.pop("name", None)
        if name is None:
            raise UsageError("every [method] block needs a name = line")
        if name not in METHODS:
            raise UsageError("unknown method %r (valid: %s)" % (name, ", ".join(METHODS)))
        label = entry.pop("label", name)
        if label in (b.label for b in blocks):
            raise UsageError("duplicate method label %r; set label = to disambiguate" % label)
        try:
            ns = parser.parse_args(shared + _flags(dict(entry, method=name)))
        except UsageError as e:
            raise UsageError("method %s: %s" % (label, e))
        ns.label = label
        if l2_per_n:
            ns.l2 = None
        blocks.append(ns)
    return top, blocks


def cmd_compare(ns):
    try:
        with open(ns.spec) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise IoError("spec file not found: %s" % ns.spec)
    except OSError as e:
        raise IoError("cannot read spec %s: %s" % (ns.spec, e))
    top, blocks = parse_compare_spec(text)
    obj = _objective(blocks[0])

    # every block and seed passes run()'s checks before the reference solve
    # and the output exist; they only test x* against None, so a stand-in
    # serves. Each config is built again by the process that runs it, so a
    # process holds one scheme at a time
    stand_in = np.zeros(obj.d) if obj.loss.smooth else None
    runs = []
    for block in blocks:
        block.l2, block.times = obj.l2, ns.times
        baseline = block.method in ("sgd", "sgd_momentum") and obj.loss.smooth
        if baseline and block.gamma is None and block.gamma_policy is None:
            block.gamma = 1.0 / smoothness(obj).l_max  # shared constant step for the baselines
        for seed in top["seeds"]:
            seeded = argparse.Namespace(**dict(vars(block), seed=seed))
            config = _build_config(seeded, obj, stand_in)
            runs.append((seeded, _run_meta(seeded, resolve(config, obj))))

    # certified reference for suboptimality (and for sgd_star anchors)
    x_star = f_star = None
    if obj.loss.smooth:
        try:
            x_star, f_star = solve_reference(obj)
        except RuntimeError as e:  # l2 <= 0, a ValueError, is a usage error
            raise IoError("reference solve failed: %s" % e)
    outdir = top["out"]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        raise IoError("cannot create output directory %s: %s" % (outdir, e))

    # the runs fan out to forked workers; this process writes every file, in
    # spec order, and stops at the first divergence. fanout is imported here
    # so that no other command compiles it. A run replaced on this module (a
    # tracer's wrapper, say) may record what it sees in this process, where a
    # worker's records would be lost, so that one runs the grid here
    from .fanout import WorkerDied, in_order

    def one_run(i):
        return run(_build_config(runs[i][0], obj, x_star, f_star), obj)

    if run is optimizers.run:
        results = in_order(one_run, len(runs))
    else:
        results = (one_run(i) for i in range(len(runs)))
    summary = ["label,method,seed,final_f,final_subopt,rho_hat,r2"]
    with contextlib.closing(results):
        for seeded, meta in runs:
            label, seed = seeded.label, seeded.seed
            out = os.path.join(outdir, "%s_seed%d.csv" % (label, seed))
            try:
                res = _run_and_write(seeded, functools.partial(next, results), meta, out,
                                     " (%s seed %d)" % (label, seed))
            except WorkerDied as e:  # the worker of this run or of a later one
                dead = runs[e.args[0]][0]
                raise IoError("the worker process running %s seed %d died" % (dead.label, dead.seed)) from None
            if res is None:
                return EXIT_DIVERGED
            final = res.records[-1]
            try:
                fit = fit_linear_rate(res.records)
                rho, r2 = "%.17g" % fit.rho_hat, "%.17g" % fit.r2
            except ValueError:
                rho = r2 = ""
            summary.append("%s,%s,%d,%s,%s,%s,%s" % (
                label, seeded.method, seed, _fmt(final.f), _fmt(final.subopt), rho, r2))
    spath = os.path.join(outdir, "summary.csv")
    _atomic_text(spath, "\n".join(summary) + "\n")
    print("wrote %d trace files and %s" % (len(runs), spath))
    return EXIT_OK


def cmd_trace2d(ns):
    obj = _objective(ns)
    if obj.d != 2:
        raise UsageError("trace2d needs a 2-feature dataset; %s has %d" % (ns.data, obj.d))
    ns.record_iterates = True
    config = _build_config(ns, obj)
    ipath = ns.out + ".iterates.csv"
    res = _run_and_write(ns, functools.partial(run, config, obj), _run_meta(ns, resolve(config, obj)), ipath)
    if res is None:
        return EXIT_DIVERGED
    lo = res.iterates.min(axis=0)
    hi = res.iterates.max(axis=0)
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
          % (ipath, len(res.iterates), gpath, ns.grid, ns.grid))
    return EXIT_OK


def cmd_validate(ns):
    try:
        results = run_checks(only=ns.only)
    except KeyError as e:
        raise UsageError(str(e.args[0]))
    for r in results:
        print("%s seconds=%.3f" % (r.line().rstrip(), r.seconds))
    passed = sum(1 for r in results if r.passed)
    print("passed %d/%d" % (passed, len(results)))
    return EXIT_OK if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parser


def _arg(name):  # a flag's type=; UsageError is no ValueError, so argparse lets it through to main
    return functools.partial(check_domain, name, error=UsageError)


def _add_objective_flags(p):
    p.add_argument("--data", required=True, help="libsvm path or synth:NAME[:SEED]")
    p.add_argument("--dim", type=_arg("dim"), default=None, help="feature count of a LIBSVM file (not for synth:)")
    p.add_argument("--loss", choices=LOSSES, default="logistic")
    p.add_argument("--l2", type=float, default=0.0)
    p.add_argument("--l1", type=float, default=0.0)


def _add_run_flags(p):
    p.add_argument("--method", required=True, choices=sorted(METHODS))
    g = p.add_mutually_exclusive_group()
    g.add_argument("--gamma", type=_arg("gamma"), default=None)
    g.add_argument("--gamma-policy", default=None,
                   help="fixed:G | theory | minibatch | armijo[:GMAX]")
    p.add_argument("--beta", type=_arg("beta"), default=0.0)
    p.add_argument("--batch", type=_arg("batch"), default=1)
    p.add_argument("--sampling", choices=("uniform", "lipschitz"), default="uniform")
    p.add_argument("--inner-t", type=_arg("inner_t"), default=None, help="stage length (default n)")
    p.add_argument("--epochs", type=_arg("epochs"), default=10.0)
    p.add_argument("--seed", type=_arg("seed"), default=0)
    p.add_argument("--checkpoint-every", type=_arg("checkpoint_every"), default=1.0)
    p.add_argument("--xstar", default=None, help="vector file with the reference point")
    p.add_argument("--fstar", default=None, help="reference value or scalar file")
    p.add_argument("--jit", choices=sparse_jit.JIT_MODES, default="auto")
    # one table layout; the flag stays so command lines that name it still run
    p.add_argument("--table", choices=("scalar",), default="scalar")
    p.add_argument("--warm-start-sgd-epochs", type=_arg("warm_start_sgd_epochs"), default=0.0)
    p.add_argument("--stop", default="epochs", help="grad:EPS | gbar:EPS | gap:EPS | epochs")
    p.add_argument("--times", action="store_true", help="record wall-clock times")


def build_parser():
    parser = _Parser(prog="vropt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    p = sub.add_parser("solve-ref", help="solve and cache a certified reference")
    _add_objective_flags(p)
    p.add_argument("--tol", type=_arg("tol"), default=1e-12)
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
    p.add_argument("--grid", type=_arg("grid"), default=61, help="grid points per axis")
    p.set_defaults(func=cmd_trace2d)

    p = sub.add_parser("validate", help="run the oracle and invariant suite")
    p.add_argument("--only", default=None, help="run a single named check")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
        return ns.func(ns)
    except (UsageError, ValueError) as e:  # optimizers.ConfigError is a ValueError
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
