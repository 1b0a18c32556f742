"""The three benchmark workloads, and a pass over the README's CLI examples.

Each workload makes its inputs and expected answers from the seed with the
code in ``reference`` (never with ``wpengine.checks``), hands the engine
only texts and states, and exposes

* ``prepare(tr)``: engine-side set-up (parsing fixed loops, compiling them);
* ``once``: queries made once per run before the rounds (term construction,
  whose memory the engine keeps for the life of the process);
* ``side`` (optional): queries made and checked once, after ``once`` and
  before the rounds, but kept out of the end-to-end figures;
* ``rounds``: round variants; a run makes them in order, cycling, until it
  ends, and always makes at least one full pass over them.  Variants of one
  workload make the same kinds of query on different seeded inputs, so that
  a run's figures average over many inputs.

``probe=True`` skips inputs past the first round, for the set-up timing.

A query is ``run(tr) -> answer`` (timed) plus ``check(answer) -> bool``
(untimed).  ``tr`` is the tracer: every call into an engine layer goes
through a span named after the module and function it calls.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import reference as ref
from wpengine import ORACLE, QDomain, State, eval_exp, parse_exp, parse_program
from wpengine.goedel import decode_seq, decode_state, encode_seq, encode_state
from wpengine.loops import encode_loop
from wpengine.normalform import dnf_recover, to_dnf, to_prenex, to_snf
from wpengine.series import dedekind_product, make_product, make_sum, odot
from wpengine.syntax import Var, exp_tree_size, free_vars
from wpengine.wp import VarSet, char_iterates, forward_dist, kleene_iterate, path_sum, wp_loop_free
from wpengine.xreal import XReal, ZERO


class Query:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def engine_state(env: dict) -> State:
    return State({Var(k): v for k, v in env.items()})


def parse_p(tr, text):
    return tr.call("parser.parse_program", parse_program, text, chars=len(text))


def parse_e(tr, text):
    return tr.call("parser.parse_exp", parse_exp, text, chars=len(text))


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# loop-oracles
# ---------------------------------------------------------------------------

class LoopOracles:
    """k-sweeps of every loop oracle over the geometric loop and the walk.

    One round sweeps all six starts, alternating the loops, so that every
    run makes whole sweeps of every start and its mix of cheap and dear
    queries does not depend on where the run stops.

    Walk starts are an integer base plus a seeded fraction in [0, 1): the
    walk moves by whole steps, so the fraction changes every value but not
    the tree of paths, and the cost of a query does not depend on the seed.
    From x < 40 - 2(k-1) no path stops within k steps, so the 20-based
    start enumerates all 2^(k-1) sequences.
    """

    MAX_K = {"geo": 12, "walk": 11}
    CHAR_K = {"geo": 6, "walk": 5}     # the unrolled term grows ~4x per k
    WALK_BASES = (20, 24, 30)

    def __init__(self, seed: int, root: Path, probe: bool = False):
        rng = random.Random(seed)
        geo = [(Fraction(1), Fraction(0)), (Fraction(1), ref.rand_rat(rng, 6, 5)),
               (Fraction(1), ref.rand_rat(rng, 6, 5) + Fraction(1, 2))]
        walk = [base + ref.rand_frac_part(rng) for base in self.WALK_BASES]
        self.starts = [start for pair in zip(geo, walk)
                       for start in (("geo", pair[0]), ("walk", pair[1]))]
        self.expected = [ref.loop_values(loop, s, self.MAX_K[loop]) for loop, s in self.starts]
        self.answers: dict = {}
        self.once: list[Query] = []

    @staticmethod
    def _env(loop, s):
        return {"c": s[0], "x": s[1]} if loop == "geo" else {"x": s}

    def prepare(self, tr):
        post = parse_e(tr, "x")
        self.post = post
        self.loops = {}
        for name, text, names in (("geo", ref.GEO_TEXT, ("c", "x")), ("walk", ref.WALK_TEXT, ("x",))):
            loop = parse_p(tr, text)
            varset = VarSet.of(*names)
            enc = tr.call("loops.encode_loop", encode_loop, loop, post, varset)
            self.loops[name] = (loop, varset, enc)
        self.rounds = [[q for case in range(len(self.starts)) for q in self._sweep(case)]]

    def _sweep(self, case) -> list[Query]:
        loop_name, start = self.starts[case]
        loop, varset, enc = self.loops[loop_name]
        sigma = engine_state(self._env(loop_name, start))
        series = f"{loop_name}@{case}"
        out = []
        for k in range(1, self.MAX_K[loop_name] + 1):
            oracles = ["kleene", "path", "plan", "fwd"]
            if k <= self.CHAR_K[loop_name]:
                oracles.append("char")
            for oracle in oracles:
                run = self._runner(oracle, loop, varset, enc, sigma, k, series)
                check = self._checker(case, loop_name, start, oracle, k)
                out.append(Query(f"{oracle}:{series}:k={k}", run, check))
        return out

    def _runner(self, oracle, loop, varset, enc, sigma, k, series):
        post = self.post
        tag = {"series": series, "k": k}
        if oracle == "kleene":
            return lambda tr: tr.call("wp.kleene_iterate", kleene_iterate, loop, post, sigma, k, **tag)
        if oracle == "path":
            return lambda tr: tr.call("wp.path_sum", path_sum, loop, post, sigma, varset, k, **tag)
        if oracle == "plan":
            return lambda tr: tr.call("loops.plan_eval", enc.plan_eval, sigma, k, **tag)
        if oracle == "fwd":
            def run(tr):
                dist = tr.call("wp.forward_dist", forward_dist, loop, sigma, varset, k - 1, **tag)
                return tr.call("wp.Dist.expectation", dist.expectation, post)
            return run

        def run(tr):
            term = tr.call("wp.char_iterates", char_iterates, loop, post, k, **tag)
            return tr.call("semantics.eval_exp.unrolled", eval_exp, term, sigma, **tag)
        return run

    def _checker(self, case, loop_name, start, oracle, k):
        expected = self.expected[case]

        def check(answer) -> bool:
            ok = answer == XReal.of(expected[k])
            # all oracles agree with the first one asked at this depth
            if oracle == "kleene":
                self.answers[(case, k)] = answer
            else:
                ok = ok and self.answers.get((case, k)) == answer
            # values never decrease in k, per oracle
            previous = self.answers.get((case, oracle, k - 1))
            ok = ok and (previous is None or previous <= answer)
            self.answers[(case, oracle, k)] = answer
            if loop_name == "geo" and start == (1, 0):
                ok = ok and answer == XReal.of(ref.geo_closed_form(k))
            return ok
        return check


# ---------------------------------------------------------------------------
# loop-free-duality
# ---------------------------------------------------------------------------

class LoopFreeDuality:
    """Backward (wp, then evaluate) against forward (distribution, then
    expectation) on seeded straight-line programs with a fixed count of
    assignments, coin flips and conditionals.

    Each round is one program; a run cycles through ``POOL`` of them, so
    its figures average over hundreds of programs.

    A traced run also makes one pass over the README's CLI examples, as
    side queries (see ``ReadmeCli``), which yields the ``cli.*`` layer
    metrics.
    """

    POOL = 256
    STATES = 4
    NAMES = ("x", "y", "z")

    def __init__(self, seed: int, root: Path, probe: bool = False):
        self.cli = ReadmeCli(seed, root)
        rng = random.Random(seed)
        self.cases = []
        for _ in range(1 if probe else self.POOL):
            prog = ref.rand_loop_free(rng, self.NAMES)
            post = ref.rand_qf_exp(rng, self.NAMES)
            envs = [ref.rand_state(rng, self.NAMES) for _ in range(self.STATES)]
            want = [ref.expected_value(prog, post, env) for env in envs]
            self.cases.append((ref.print_prog(prog), ref.print_expectation(post),
                               [engine_state(env) for env in envs], want))
        self.once: list[Query] = []
        self.side: list[Query] = []

    def prepare(self, tr):
        if tr.enabled:
            self.cli.prepare(tr)
            self.side = self.cli.rounds[0]
        self.varset = VarSet.of(*self.NAMES)
        self.rounds = [[Query(f"duality:{i}", self._runner(*case[:3]), self._checker(case[3]))]
                       for i, case in enumerate(self.cases)]

    def _runner(self, prog_text, post_text, sigmas):
        varset = self.varset

        def run(tr):
            prog = parse_p(tr, prog_text)
            post = parse_e(tr, post_text)
            with tr.span("wp.wp_loop_free") as span:
                pre = wp_loop_free(prog, post)
            if tr.enabled:
                span["out_nodes"] = exp_tree_size(pre)
            backward = [tr.call("semantics.eval_exp.qf", eval_exp, pre, s) for s in sigmas]
            forward = []
            for s in sigmas:
                dist = tr.call("wp.forward_dist", forward_dist, prog, s, varset, 1)
                forward.append(tr.call("wp.Dist.expectation", dist.expectation, post))
            return backward, forward
        return run

    @staticmethod
    def _checker(want):
        def check(answer) -> bool:
            backward, forward = answer
            return backward == forward == [XReal.of(w) for w in want]
        return check

    def cleanup(self):
        self.cli.cleanup()


# ---------------------------------------------------------------------------
# symbolic-terms
# ---------------------------------------------------------------------------

class SymbolicTerms:
    """Term construction, normal forms and oracle-assisted evaluation.

    Every construction (aggregates, products, one compiled loop) is made
    once per run: the engine keeps each built term's nodes for the life of
    the process, so the memory a run ends with is the construction cost
    and does not depend on how many rounds fit in the run.

    The compiled loop is a side query: its one call takes ~7.5 s, a fifth
    of a run's query time, and that share moved ``queries_per_s`` with the
    number of rounds a run fitted, and so with the host's speed.  Its
    memory stays in ``peak_rss_mb``, its time in the ``loops.pure`` layer
    metrics.

    A round makes three light queries (Goedel round trips), four medium
    ones (reading every built term back at a state) and two heavy ones
    (the normal-form pipeline on three expressions each), so the median
    falls among the medium queries and the 90th percentile among the heavy
    ones.  One expression's cost varies sevenfold with the guards that
    hold at its state; three per query narrow that spread.
    """

    LOOP_TEXT = ref.WALK_TEXT
    DOMAIN = ref.calkin_wilf_prefix(3)
    NAMES = ("x", "y")
    POOL = 48
    BOUND = 6
    PAIRS = 4

    def __init__(self, seed: int, root: Path, probe: bool = False):
        rng = random.Random(seed)
        self.built: dict = {}
        s, p, x = ref.var("$s"), ref.var("$p"), ref.var("x")
        sum_body = ("plus", ("scale", ref.lit(ref.rand_rat(rng, 2, 3)), ("ar", s)),
                    ("guard", ("lt", s, x), ("ar", ref.lit(rng.randint(1, 3)))))
        cut = rng.randint(1, 3)
        prod_body = ("plus", ("guard", ("lt", p, ref.lit(cut)), ("ar", ref.lit(rng.randint(1, 3)))),
                     ("guard", ("le", ref.lit(cut), p), ("ar", ("add", x, ref.lit(1)))))
        # (kind, name, body text, reference value at a state and bound n)
        self.aggregates = [
            ("sum", "harmonic", "1/$s", lambda env, n: ref.harmonic(n)),
            ("sum", "linear", ref.print_expectation(sum_body),
             lambda env, n: sum((ref.eval_expectation(sum_body, {**env, "$s": Fraction(j)})
                                 for j in range(n + 1)), ref.ZERO)),
            ("product", "factorial", "[$p = 0] * 1 + [1 <= $p] * $p",
             lambda env, n: Fraction(ref.factorial(n))),
            ("product", "steps", ref.print_expectation(prod_body),
             lambda env, n: math.prod(ref.eval_expectation(prod_body, {**env, "$p": Fraction(j)})
                                      for j in range(n + 1))),
        ]
        self.pairs = [(ref.rand_factor(rng, self.NAMES), ref.rand_factor(rng, self.NAMES))
                      for _ in range(self.PAIRS)]
        self.variants = [self._variant(rng) for _ in range(1 if probe else self.POOL)]

    def _variant(self, rng) -> dict:
        """Seeded inputs of one round."""
        points = [{**ref.rand_state(rng, self.NAMES), "n": Fraction(self.BOUND)} for _ in range(4)]
        quantified = []
        for _ in range(2):
            bundle = []
            for _ in range(3):
                f = ref.rand_quantified(rng, self.NAMES)
                env = ref.rand_state(rng, self.NAMES)
                value = ref.eval_expectation(f, env, self.DOMAIN)
                bundle.append((ref.print_expectation(f), env, value,
                               [value] + rng.sample(self.DOMAIN, 2)))
            quantified.append(bundle)
        return {
            "sequences": [[rng.randint(0, 60) for _ in range(5)] for _ in range(3)],
            "states": [ref.rand_state(rng, self.NAMES) for _ in range(3)],
            "points": points,
            "quantified": quantified,
        }

    def prepare(self, tr):
        self.dom = QDomain(self.DOMAIN)
        # the compiled loop comes last: built first, its millions of nodes
        # would make the collector's full passes during the small builds
        # cost seconds, at points that move with the seed
        self.once = [self._build_aggregate(i) for i in range(len(self.aggregates))]
        self.once += [self._build_pair(i, kind) for i in range(self.PAIRS)
                      for kind in ("odot", "dedekind_product")]
        self.side = [self._build_loop()]
        self.rounds = []
        for v in self.variants:
            queries = [self._roundtrip(seq, env) for seq, env in zip(v["sequences"], v["states"])]
            queries += [self._read_back(env) for env in v["points"]]
            queries += [self._normal_forms(bundle) for bundle in v["quantified"]]
            self.rounds.append(queries)

    # -- constructions, once per run ---------------------------------------

    def _build_loop(self) -> Query:
        names = ("x",)

        def run(tr):
            loop = parse_p(tr, self.LOOP_TEXT)
            post = parse_e(tr, "x")
            enc = tr.call("loops.encode_loop", encode_loop, loop, post, VarSet.of(*names))
            before = rss_mb()
            with tr.span("loops.pure") as span:
                pure = enc.pure
            if tr.enabled:
                span["rss_growth_mb"] = rss_mb() - before
                span["out_nodes"] = exp_tree_size(pure)
            return free_vars(pure)

        return Query("loop-pure", run, lambda fv: {v.name for v in fv} <= set(names))

    def _build_aggregate(self, i) -> Query:
        kind, name, text, _ = self.aggregates[i]
        maker = make_sum if kind == "sum" else make_product

        def run(tr):
            body = parse_e(tr, text)
            self.built[("agg", i)] = tr.call(f"series.make_{kind}", maker, body, Var("n")).pure
            return True

        return Query(f"build-{name}", run, bool)

    def _build_pair(self, i, kind) -> Query:
        f_text, g_text = (ref.print_expectation(e) for e in self.pairs[i])
        maker = odot if kind == "odot" else dedekind_product

        def run(tr):
            f, g = parse_e(tr, f_text), parse_e(tr, g_text)
            with tr.span(f"series.{kind}") as span:
                term = maker(f, g)
            if tr.enabled:
                span["out_nodes"] = exp_tree_size(term)
            self.built[(kind, i)] = term
            return True

        return Query(f"build-{kind}-{i}", run, bool)

    # -- rounds --------------------------------------------------------------

    def _read_back(self, env) -> Query:
        """Every built aggregate and product, evaluated oracle-assisted at one state."""
        sigma = engine_state(env)
        want = [XReal.of(agg[3](env, self.BOUND)) for agg in self.aggregates]
        for f, g in self.pairs:
            product = XReal.of(ref.eval_expectation(f, env) * ref.eval_expectation(g, env))
            want += [product, product]
        keys = [("agg", i) for i in range(len(self.aggregates))]
        keys += [(kind, i) for i in range(self.PAIRS) for kind in ("odot", "dedekind_product")]
        dom = self.dom

        def run(tr):
            return [tr.call("semantics.eval_exp.oracle", eval_exp, self.built[key], sigma, dom, ORACLE)
                    for key in keys]

        return Query("read-back", run, lambda got: got == want)

    def _normal_forms(self, bundle) -> Query:
        """Each expression through the normal forms, evaluated at its state and cuts."""
        dom = self.dom
        cases = []
        for text, env, value, cuts in bundle:
            below = [q for q in self.DOMAIN if q < value]
            cases.append((text, engine_state(env), value, cuts, XReal.of(max(below)) if below else ZERO))

        def one(tr, text, sigma, cuts):
            f = parse_e(tr, text)
            prenex = tr.call("normalform.to_prenex", to_prenex, f)
            tr.call("normalform.to_snf", to_snf, f)
            with tr.span("normalform.to_dnf") as span:
                dnf = to_dnf(f)
            indicator = dnf.to_exp()
            if tr.enabled:
                span["out_nodes"] = exp_tree_size(indicator)
            recovered = tr.call("normalform.dnf_recover", dnf_recover, dnf)
            quantified = "semantics.eval_exp.quantified"
            values = [tr.call(quantified, eval_exp, g, sigma, dom) for g in (f, prenex.to_exp())]
            cut_values = [tr.call(quantified, eval_exp, indicator, sigma.set(dnf.cut_var, r), dom)
                          for r in cuts]
            return values, cut_values, tr.call(quantified, eval_exp, recovered, sigma, dom)

        def run(tr):
            return [one(tr, text, sigma, cuts) for text, sigma, _, cuts, _ in cases]

        def check(answers) -> bool:
            ok = len(answers) == len(cases)
            for (values, cut_values, recovered), (_, _, value, cuts, want_recovered) in zip(answers, cases):
                # the cut form is {0,1}-valued and reads [r < value]
                ok = ok and all(got == (XReal.of(1) if r < value else ZERO)
                                for r, got in zip(cuts, cut_values))
                ok = ok and values == [XReal.of(value)] * 2 and recovered == want_recovered
            return ok

        return Query("normal-forms", run, check)

    def _roundtrip(self, seq, env) -> Query:
        sigma = engine_state(env)
        varset = VarSet.of(*self.NAMES)

        def run(tr):
            code = tr.call("goedel.encode_seq", encode_seq, seq)
            decoded = tr.call("goedel.decode_seq", decode_seq, code.num, code.length)
            state_code = tr.call("goedel.encode_state", encode_state, sigma, varset)
            return decoded, tr.call("goedel.decode_state", decode_state, state_code.num, varset)

        return Query("goedel-roundtrip", run, lambda got: got == (seq, sigma))


# ---------------------------------------------------------------------------
# README CLI examples
# ---------------------------------------------------------------------------

def run_child(argv, cwd=None, env=None):
    """Run a process to completion; return (stdout, exit code)."""
    proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    return proc.stdout.decode(), proc.returncode


GEO_FILE = "while (c = 1) { {c := 0} [1/2] {c := 1}; x := x + 1 }\n"
COIN_FILE = "{x := 0} [1/3] {x := 1}\n"


def _forward_ok(out: str) -> bool:
    payload = json.loads(out)
    weights = [e["weight"] for e in payload["entries"]]
    xs = [e["state"]["x"] for e in payload["entries"]]
    return weights == ["1/2", "1/4", "1/8"] and xs == ["1", "2", "3"] and payload["mass"] == "7/8"


# (subcommand, arguments, check of stdout) for each README example
README_COMMANDS = [
    ("wp", ["wp", "--syntactic", "-p", "coin.pgcl", "-f", "x"],
     lambda out: out.strip() == "1/3 * 0 + 2/3 * 1"),
    ("wp", ["wp", "--kleene", "4", "-p", "geo.pgcl", "-f", "x", "--at", "c=1,x=0"],
     lambda out: out.strip() == "11/8"),
    ("forward", ["forward", "-p", "geo.pgcl", "--at", "c=1,x=0", "--fuel", "3", "--format", "json"],
     _forward_ok),
    ("normalize", ["normalize", "--dnf", "-f", "x"],
     lambda out: "$cut" in out and out.strip().endswith("* 1")),
    ("goedel", ["goedel", "encode-seq", "3,1,4"], lambda out: out.strip() == "191277"),
    ("goedel", ["goedel", "decode-seq", "191277", "3"], lambda out: out.strip() == "3,1,4"),
    ("series", ["series", "sum", "--body", "1/$s", "--n", "3"],
     lambda out: out.strip() == ref.fmt_rat(ref.harmonic(3))),
    ("series", ["series", "product", "--body", "[$p = 0] * 1 + [1 <= $p] * $p", "--n", "5"],
     lambda out: out.strip() == str(ref.factorial(5))),
    ("encode-loop", ["encode-loop", "--program", "geo.pgcl", "--post", "x", "--eval-at", "c=1,x=0",
                     "--depth-k", "8"],
     lambda out: out.strip().splitlines() == [ref.encode_loop_line(k) for k in range(9)]),
]
EMIT_PURE = ["series", "sum", "--body", "1/$s", "--n", "3", "--emit-pure"]


class ReadmeCli:
    """Every README command example as a fresh engine process.

    Not a workload of its own: the traced ``loop-free-duality`` run makes
    one pass, for the ``cli.*`` layer metrics.  The seed orders the commands
    within the pass; the two ``--emit-pure`` calls stay adjacent, so the
    second can be compared byte for byte with the first.
    """

    def __init__(self, seed: int, root: Path, probe: bool = False):
        self.workdir = root / "bench" / "results" / f"cli-{os.getpid()}"
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        groups = [[c] for c in README_COMMANDS] + [["emit-pure"]]
        random.Random(seed).shuffle(groups)
        self.plan = [c for g in groups for c in g]
        self._first_pure: str | None = None

    def prepare(self, tr):
        self.workdir.mkdir(parents=True, exist_ok=True)
        (self.workdir / "geo.pgcl").write_text(GEO_FILE)
        (self.workdir / "coin.pgcl").write_text(COIN_FILE)
        if tr.enabled:
            probe = ("import time; t = time.perf_counter(); import wpengine.cli; "
                     "print(time.perf_counter() - t)")
            for _ in range(5):
                out, _ = run_child([sys.executable, "-c", probe], env=self.env)
                tr.add("cli.import", float(out))
        passes = []
        for item in self.plan:
            if item == "emit-pure":
                passes += [self._emit_pure(first=True), self._emit_pure(first=False)]
            else:
                passes.append(self._command(*item))
        self.rounds = [passes]

    def cleanup(self):
        for name in ("geo.pgcl", "coin.pgcl"):
            (self.workdir / name).unlink(missing_ok=True)
        if self.workdir.exists():
            self.workdir.rmdir()

    def _call(self, tr, sub, args):
        with tr.span(f"cli.{sub}"):
            return run_child([sys.executable, "-m", "wpengine.cli", *args],
                             cwd=self.workdir, env=self.env)

    def _command(self, sub, args, ok) -> Query:
        return Query(f"cli-{sub}", lambda tr: self._call(tr, sub, args),
                     lambda got: got[1] == 0 and ok(got[0]))

    def _emit_pure(self, first: bool) -> Query:
        def check(got) -> bool:
            out, code = got
            lines = out.splitlines()
            ok = code == 0 and len(lines) == 2 and lines[0] == "11/6"
            if first:
                self._first_pure = out
                return ok
            return ok and out == self._first_pure

        return Query("cli-series-emit-pure", lambda tr: self._call(tr, "series", EMIT_PURE), check)


WORKLOADS = {
    "loop-oracles": LoopOracles,
    "loop-free-duality": LoopFreeDuality,
    "symbolic-terms": SymbolicTerms,
}
