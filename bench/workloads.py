"""The three workloads: what one operation is and how its answer is checked.

Every workload is a closed loop with one client.  ``run_op(k)`` performs
operation k (the only part that is timed), ``check(k, result)`` compares
its result with an expectation the benchmark knows independently, and
``floor()`` is the adjacent do-nothing operation subtracted in
``over_floor_ms``.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import userdb
from nielsencalc import classifier, homotopy_db, selfcoincidence
from nielsencalc.classifier import ProjectiveClass
from nielsencalc.fgab import FgAbGroup
from nielsencalc.homotopy_db import SpaceId

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "cli_child.py"
CHILD_TIMEOUT = 60

# The README command mix: name -> argv.  Expected stdout and exit codes
# are pinned in cli_expected.json.
CLI_COMMANDS = {
    "classify_row1": ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "2", "--f2", "2"],
    "classify_row2": ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "1"],
    "classify_row3": ["classify", "--K", "R", "--m", "6", "--nprime", "6", "--f1", "1", "--f2=-1"],
    "classify_row4": ["classify", "--K", "R", "--m", "6", "--nprime", "6", "--f1", "3", "--f2", "1"],
    "classify_row5": ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "0"],
    "classify_row6": ["classify", "--K", "C", "--m", "5", "--nprime", "2", "--f1", "1", "--f2", "1"],
    "classify_row7": ["classify", "--K", "H", "--m", "11", "--nprime", "2", "--f1", "1", "--f2", "2"],
    "self": ["self", "--K", "R", "--m", "11", "--nprime", "6", "--f", "1"],
    "sphere": ["sphere", "--m", "11", "--n", "6", "--f1", "1", "--f2", "0"],
    "sphere_circle": ["sphere", "--m", "1", "--n", "1", "--f1", "3", "--f2", "1"],
    "spaceform_text": ["spaceform", "--order", "5", "--n", "3", "--homotopic", "false"],
    "spaceform_machine": ["spaceform", "--order", "5", "--n", "3", "--homotopic", "false", "--output", "machine"],
    "db_validate": ["db-validate"],
    "db_show": ["db-show"],
    "insufficient_data": ["classify", "--K", "R", "--m", "12", "--nprime", "6", "--f1", "1", "--f2", "1"],
    "usage_error": ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "x", "--f2", "1"],
}


def load_expected():
    with open(BENCH / "cli_expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env(root: Path, cached: bool = True) -> dict:
    """Environment of every child interpreter.

    ``cached``: bytecode is written to and read from a benchmark-owned
    cache prefix.  Otherwise writing is off and no prefix is set, so the
    package is compiled on every start.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    if cached:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def run_child(argv, env):
    """Run a child interpreter to completion; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable, *argv], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT,
                          text=True)
    return proc.returncode, proc.stdout


def cli_child(argvs, env):
    """Run ``cli.main`` on each argv in one fresh traced child."""
    code, out = run_child([str(CHILD), json.dumps(argvs)], env)
    if code != 0:
        raise RuntimeError(f"traced CLI child exited with {code}")
    return json.loads(out)


# ---------------------------------------------------------------------------
# answer checks shared by the in-process workloads

def _count(x):
    return x if isinstance(x, int) else repr(x)


def _le(a, b):
    return b == "inf" or (a != "inf" and a <= b)


def triple_ok(answer, expected) -> bool:
    """The answer's triple equals ``expected`` and N# <= MCC <= MC."""
    nielsen, mcc, mc = (_count(x) for x in answer.triple)
    return ((nielsen, mcc, mc) == tuple(expected)
            and _le(nielsen, mcc) and _le(mcc, mc))


def verdict_ok(verdict, expected: dict) -> bool:
    return all(getattr(verdict, key) == value for key, value in expected.items())


def answer_ok(kind, answer, expected) -> bool:
    if kind == "classify":
        case, triple = expected
        return answer.case_id == case and triple_ok(answer, triple)
    if kind == "self":
        return verdict_ok(answer, expected)
    return triple_ok(answer, expected)


class _InProcess:
    """Common parts of the workloads that call the library directly."""

    floor_is_reference = False

    def floor(self):
        pass

    def traced_setup(self):
        """Set-up work repeated under tracing (none by default)."""


# ---------------------------------------------------------------------------
# cli_session

class CliSession:
    """One op is one ``nielsencalc`` subprocess call from the README mix."""

    name = "cli_session"
    # the python -c pass floor gauges the host's speed for child processes
    floor_is_reference = True
    # what a call pays before main() can run
    setup_code = "import nielsencalc.cli"

    def __init__(self, seed, root: Path):
        self.env = child_env(root)
        self.rng = random.Random(f"cli-{seed}")
        self.expected = load_expected()
        self.order: list[str] = []
        self.tracer = None
        self.import_ns: list[int] = []   # per traced child

    def sizes(self):
        return {"commands": len(CLI_COMMANDS)}

    def setup(self):
        # compiles the package and the standard library into the cache
        # prefix, so that timed calls read bytecode
        for argv in CLI_COMMANDS.values():
            run_child(["-m", "nielsencalc", *argv], self.env)
        run_child(["-c", "pass"], self.env)

    def traced_setup(self):
        pass

    def command(self, k):
        while len(self.order) <= k:
            names = sorted(CLI_COMMANDS)
            self.rng.shuffle(names)
            self.order += names
        return self.order[k]

    def run_op(self, k):
        argv = CLI_COMMANDS[self.command(k)]
        if self.tracer is None:
            return run_child(["-m", "nielsencalc", *argv], self.env)
        payload = cli_child([argv], self.env)
        self.tracer.merge(payload["spans"], payload["counts"], k)
        self.import_ns.append(payload["import_ns"])
        return tuple(payload["results"][0])

    def floor(self):
        run_child(["-c", "pass"], self.env)

    def check(self, k, result):
        want = self.expected[self.command(k)]
        return list(result) == [want["exit"], want["stdout"]]


# ---------------------------------------------------------------------------
# batch_shipped

POOL = 4000
# query kinds by position: 70% classify, 20% self, 10% sphere
MIX = ("classify",) * 7 + ("self",) * 2 + ("sphere",)
# how f1 is drawn for a classify query: 40% f1 = f2, 15% f1 = A∘f2 (R only;
# f1 = f2 on C and H), 45% independent; uniform draws alone land almost
# always in cases 4, 5 and 7
PAIR_MODES = ("same",) * 8 + ("antipode",) * 3 + ("random",) * 9
# the projective slices of the shipped database: (K, m, n')
SHIPPED_SLICES = (("R", 11, 6), ("R", 6, 6), ("C", 5, 2), ("H", 11, 2))
# the sphere groups that carry an antipodal action: (m, n)
SHIPPED_SPHERES = ((11, 6), (6, 6), (11, 11), (1, 1))
FIELD_DIMS = {"R": 1, "C": 2, "H": 4}
LIFT_RANGE = 12


class ShippedModel:
    """Independent evaluation over the shipped database's 1x1 matrices.

    Reads the group orders and the 1x1 matrices from the database text
    with its own parser, and evaluates the classification table, the
    verdicts and the sphere answers in modular integer arithmetic.
    """

    _GROUP = re.compile(r"^group (\S+) (\d+) = (\d+) \[([^\]]*)\]")
    _HOM = re.compile(r"^hom (\w+) (\S+?),(\d+) -> (\S+?),(\d+) matrix \[\[(-?\d+)\]\] ")

    def __init__(self, text: str):
        self.modulus, self.homs = {}, {}
        for line in text.splitlines():
            m = self._GROUP.match(line)
            if m:
                free, torsion = int(m.group(3)), m.group(4).strip()
                key = (m.group(1), int(m.group(2)))
                if free == 1 and not torsion:
                    self.modulus[key] = 0
                elif free == 0 and torsion and "," not in torsion:
                    self.modulus[key] = int(torsion)
                elif free == 0 and not torsion:
                    self.modulus[key] = 1
            m = self._HOM.match(line)
            if m:
                key = (m.group(1), (m.group(2), int(m.group(3))),
                       (m.group(4), int(m.group(5))))
                self.homs[key] = int(m.group(6))

    def reduce(self, x, key):
        mod = self.modulus[key]
        return x % mod if mod else x

    def _in_image(self, e, y, target):
        mod = self.modulus[target]
        if mod:
            return y % math.gcd(e, mod) == 0
        return y == 0 if e == 0 else y % e == 0

    def _slice(self, K, m, nprime):
        d = FIELD_DIMS[K]
        n = d * nprime
        lift = (f"S({n + d - 1})", m)
        low, high = (f"S({n - 1})", m - 1), (f"S({n})", m)
        return (lift, low, high, self.homs[("boundary_K", lift, low)],
                self.homs[("suspension_E", low, high)],
                self.homs.get(("antipodal_A", lift, lift)))

    def lift_key(self, K, m, nprime):
        return self._slice(K, m, nprime)[0]

    def antipode(self, key, x):
        return self.reduce(self.homs[("antipodal_A", key, key)] * x, key)

    def case(self, K, m, nprime, l1, l2):
        lift, low, high, b, e, a = self._slice(K, m, nprime)
        b2 = self.reduce(b * l2, low)
        eb2 = self.reduce(e * b2, high)
        if K == "R":
            a2 = self.reduce(a * l2, lift)
            fh = l1 == l2 or l1 == a2
            in_im_e = self._in_image(e, self.reduce(l1 - l2, lift), high)
            conds = (fh and b2 == 0, fh and eb2 == 0 and b2 != 0,
                     fh and l2 != a2, not fh and in_im_e, not in_im_e,
                     False, False)
        else:
            equal = l1 == l2
            conds = (equal and b2 == 0, equal and eb2 == 0 and b2 != 0,
                     False, False, False, equal and eb2 != 0, not equal)
        if sum(conds) != 1:
            raise AssertionError(f"table not exclusive for {K}{m},{nprime}")
        return conds.index(True) + 1

    def verdict(self, K, m, nprime, lift):
        _, low, high, b, e, _ = self._slice(K, m, nprime)
        bl = self.reduce(b * lift, low)
        omega_zero = self.reduce(e * bl, high) == 0
        # for K = C or H the lift sphere is odd, so the lifted pair is loose
        return userdb.verdict_fields(bl == 0, omega_zero,
                                     omega_zero if K == "R" else True)

    def sphere(self, m, n, c1, c2):
        if c1 == self.antipode((f"S({n})", m), c2):
            return (0, 0, 0)
        if m == n == 1:
            return (abs(c1 - c2),) * 3
        return (1, 1, 1)


class BatchShipped(_InProcess):
    """One op is one library query against the shipped database."""

    name = "batch_shipped"
    setup_code = "import nielsencalc; nielsencalc.load_default()"

    def __init__(self, seed, root: Path):
        self.seed = seed

    def sizes(self):
        return {"pool": POOL, "mix": {k: MIX.count(k) / len(MIX) for k in set(MIX)},
                "pair_modes": {k: PAIR_MODES.count(k) / len(PAIR_MODES)
                               for k in set(PAIR_MODES)}}

    def setup(self):
        self.db = homotopy_db.load_default()
        model = ShippedModel(homotopy_db.default_db_text())
        rng = random.Random(f"batch-{self.seed}")

        def element(m, n, x):
            group = self.db.get_group(SpaceId.sphere(n), m)
            return group.element((x,))

        # the composition of the pool is the same for every seed: query
        # kind, slice and pair mode are fixed by position, and the seed
        # draws the lift values and the order
        self.pool = []
        for k in range(POOL):
            kind = MIX[k % len(MIX)]
            if kind == "sphere":
                m, n = SHIPPED_SPHERES[k // len(MIX) % len(SHIPPED_SPHERES)]
                key = (f"S({n})", m)
                c2 = model.reduce(rng.randint(-LIFT_RANGE, LIFT_RANGE), key)
                c1 = (model.antipode(key, c2) if k // len(MIX) % 2
                      else model.reduce(rng.randint(-LIFT_RANGE, LIFT_RANGE), key))
                args = (m, n, element(m, n, c1), element(m, n, c2))
                self.pool.append((kind, args, model.sphere(m, n, c1, c2)))
                continue
            K, m, nprime = SHIPPED_SLICES[k // len(MIX) % len(SHIPPED_SLICES)]
            d = FIELD_DIMS[K]
            sphere_n = d * nprime + d - 1
            lift = model.lift_key(K, m, nprime)
            l2 = model.reduce(rng.randint(-LIFT_RANGE, LIFT_RANGE), lift)
            if kind == "self":
                self.pool.append((kind, (K, m, nprime, element(m, sphere_n, l2)),
                                  model.verdict(K, m, nprime, l2)))
                continue
            mode = PAIR_MODES[k // (len(MIX) * len(SHIPPED_SLICES)) % len(PAIR_MODES)]
            if mode == "antipode" and K == "R":
                l1 = model.antipode(lift, l2)
            elif mode == "random":
                l1 = model.reduce(rng.randint(-LIFT_RANGE, LIFT_RANGE), lift)
            else:
                l1 = l2
            case = model.case(K, m, nprime, l1, l2)
            f1, f2 = (ProjectiveClass(K, m, nprime, element(m, sphere_n, x))
                      for x in (l1, l2))
            self.pool.append((kind, (f1, f2),
                              (case, userdb.CASE_TRIPLES[case])))
        rng.shuffle(self.pool)

    def traced_setup(self):
        self.db = homotopy_db.load_default()

    def run_op(self, k):
        kind, args, _ = self.pool[k % POOL]
        if kind == "classify":
            return classifier.classify_projective(self.db, *args)
        if kind == "self":
            return selfcoincidence.self_verdict(self.db, *args)
        return classifier.classify_sphere_target(self.db, *args)

    def check(self, k, result):
        kind, _, expected = self.pool[k % POOL]
        return answer_ok(kind, result, expected)


# ---------------------------------------------------------------------------
# user_db

SCHEDULE = 1000


class UserDb(_InProcess):
    """One op loads a synthetic user database, then queries it.

    About one op in ten loads a copy with one boundary_K entry changed
    instead; it succeeds only if the load is refused with a violation
    naming that entry.
    """

    name = "user_db"
    setup_code = "import nielsencalc"

    def __init__(self, seed, root: Path):
        self.seed = seed

    def sizes(self):
        return userdb.sizes()

    def setup(self):
        self.pool = userdb.generate(self.seed)
        self.calls = []
        for gen in self.pool:
            calls = []
            for kind, index, inputs, expected in gen.queries:
                s = gen.slices[index]
                group = FgAbGroup(s.rank, ())
                elems = [group.element(x) for x in inputs]
                if kind == "classify":
                    args = tuple(ProjectiveClass("R", s.m, s.nprime, e)
                                 for e in elems)
                elif kind == "self":
                    args = ("R", s.m, s.nprime, elems[0])
                else:
                    args = (s.m, s.nprime, *elems)
                calls.append((kind, args, expected))
            self.calls.append(calls)
        rng = random.Random(f"userdb-ops-{self.seed}")
        self.schedule = [(k % len(self.pool), rng.random() < userdb.REJECT_SHARE)
                         for k in range(SCHEDULE)]

    def run_op(self, k):
        index, reject = self.schedule[k % SCHEDULE]
        gen = self.pool[index]
        if reject:
            try:
                homotopy_db.loads(gen.corrupted_text, "<user>")
            except homotopy_db.DatabaseError as exc:
                return exc.violations
            return None
        db = homotopy_db.loads(gen.text, "<user>")
        answers = []
        for kind, args, _ in self.calls[index]:
            if kind == "classify":
                answers.append(classifier.classify_projective(db, *args))
            elif kind == "self":
                answers.append(selfcoincidence.self_verdict(db, *args))
            else:
                answers.append(classifier.classify_sphere_target(db, *args))
        return answers

    def check(self, k, result):
        index, reject = self.schedule[k % SCHEDULE]
        if reject:
            ref = self.pool[index].corrupted_ref
            return result is not None and any(ref in v.subject for v in result)
        calls = self.calls[index]
        return (result is not None and len(result) == len(calls)
                and all(answer_ok(kind, answer, expected)
                        for (kind, _, expected), answer in zip(calls, result)))


WORKLOADS = {w.name: w for w in (CliSession, BatchShipped, UserDb)}
