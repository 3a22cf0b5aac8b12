"""The workloads: seeded inputs, one pass of ops, and the check of every op.

An op runs from `.spekd` text (or, for ``theory``, from arguments) to a
result; only that part is timed.  The check that follows compares the
result with an independent oracle, outside the timed region unless the
comparison is itself part of what the user runs (``compare``).
"""

import itertools
import math
import random
import time

import inputs

WORKLOADS = ("oracle", "families", "theory")
# `spekcat compare --random` draws each diagram's box count from 1..8 and
# its open-port count from 0..5.  An oracle pass takes each of these 48
# pairs 21 times and draws the rest of each diagram at random, so that the
# seed moves its cost less.  Its 1008 diagrams put ten samples beyond the
# 99th percentile, and a short pass lets each be timed often in a run.
STRATA = tuple(itertools.product(range(1, 9), range(6)))
PASS_DIAGRAMS = 21 * len(STRATA)
# no member takes much more than 0.2 s, so that a run times each one often
FAMILY_SIZES = {"chain-int": (16, 20, 24, 28),
                "fan": (10, 11, 12),
                "chain": (9, 10, 11)}
# the ``families`` ops, in the order a pass runs them
FAMILY_MEMBERS = tuple((family, n) for family in FAMILY_SIZES
                       for n in FAMILY_SIZES[family])
# States are enumerated to arity 2.  At arity 3 one Spek enumeration takes
# 3.5-5 s, too few samples in a run to time it steadily on a shared
# machine, and the MSpek enumeration misses 54 of the 2467 states, while a
# workload may hold only ops that succeed.
THEORY_ARITY = 2


def make_inputs(workload, seed):
    """The input texts of one pass; the same seed gives the same bytes.
    ``theory`` takes no input."""
    rng = random.Random(seed)
    if workload == "oracle":
        return [inputs.random_spekd(rng, *STRATA[i % len(STRATA)])
                for i in range(PASS_DIAGRAMS)]
    if workload == "families":
        return [inputs.FAMILIES[family](n, rng)
                for family, n in FAMILY_MEMBERS]
    if workload == "theory":
        return []
    raise ValueError("unknown workload %r" % workload)


def isotropic_subspaces(n, k):
    """Number of k-dimensional isotropic subspaces of the symplectic
    space Z2^(2n)."""
    count = 1
    for i in range(k):
        count = count * (4 ** (n - i) - 1) // (2 ** (i + 1) - 1)
    return count


def expected_counts(theory, max_legs):
    """State counts per leg number from the phase-space model over
    Z2^(2n).  A state is cut out by fixing the values of an isotropic
    subspace of known variables, 2^k ways for a k-dimensional one; Spek
    takes the Lagrangian (k = n) subspaces, MSpek all of them."""
    out = {}
    for n in range(1, max_legs + 1):
        dims = [n] if theory == "spek" else range(n + 1)
        out[n] = sum(isotropic_subspaces(n, k) * 2 ** k for k in dims)
    return out


class Ops:
    """The ops of one run: the best latency of each op, and how many failed.

    An op is named by a key that is the same in every pass, so a pass that
    repeats an op may improve its best latency; noise on a shared machine
    only ever slows an op down.  A failed op is an exception
    (``CapacityError`` included) or a wrong result, one its check rejects;
    it is counted, never fatal.  While a check runs, the tracer (if any) is
    paused, so checks add no spans.
    """

    def __init__(self, tracer=None):
        self.fastest = {}
        self.total = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []
        self.tracer = tracer

    def best(self):
        """The best latency of each op, in the order the ops first ran."""
        return list(self.fastest.values())

    def _record(self, key, seconds):
        self.fastest[key] = min(seconds, self.fastest.get(key, seconds))
        self.total += seconds

    def _fail(self, why):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def run(self, key, work, check=bool):
        """Time ``work()``, then check its result; return the result, or
        None when ``work`` raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = time.perf_counter()
        try:
            result = work()
        except Exception as exc:       # counted as a failed op
            self._record(key, time.perf_counter() - start)
            self._fail("%s: %s: %s" % (key, type(exc).__name__, exc))
            return None
        self._record(key, time.perf_counter() - start)
        if self.tracer is not None:
            self.tracer.active = False
        try:
            ok = check(result)
        except Exception as exc:       # a check that cannot run rejects
            ok = False
            key = "%s (%s: %s)" % (key, type(exc).__name__, exc)
        finally:
            if self.tracer is not None:
                self.tracer.active = True
        if not ok:
            self.wrong += 1
            self._fail("%s: wrong result" % key)
        return result


def percentile(values, q):
    """Nearest-rank percentile, 0 < q <= 100."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Passes:
    """Passes of one workload against spekcat.

    Each family member's oracle value is computed once, by the other
    route, and every pass's result is compared with it.  Every ``theory``
    pass enumerates the states again and checks them.
    """

    def __init__(self, workload):
        from spekcat import diagrams, generators, signatures, verification
        self.dg, self.gen = diagrams, generators
        self.sg, self.vf = signatures, verification
        self.workload = workload
        self.truth = {}

    def run(self, texts, ops):
        """Run every op of one pass; return the summed op time."""
        before = ops.total
        getattr(self, "_" + self.workload)(texts, ops)
        return ops.total - before

    def _compare(self, text):
        dg, sg = self.dg, self.sg
        d = dg.parse(text)
        truth = dg.evaluate(dg.as_state(d))
        form, _ = sg.state_form(d)
        return form.expand() == truth

    def _oracle(self, texts, ops):
        for i, text in enumerate(texts):
            ops.run(i, lambda: self._compare(text))

    def _check(self, text, oracle):
        """A check that compares a result with ``oracle(text)``."""
        def check(result):
            if text not in self.truth:
                self.truth[text] = oracle(self.dg.parse(text))
            return result == self.truth[text]
        return check

    def _families(self, texts, ops):
        """``chain-int`` through ``evaluate``, checked against the closed
        form; ``fan`` through ``state_form`` and ``chain`` through
        ``state_form`` and ``expand``, both checked against ``evaluate``."""
        dg, sg = self.dg, self.sg
        for (family, n), text in zip(FAMILY_MEMBERS, texts):
            key = "%s(%d)" % (family, n)
            if family == "chain-int":
                ops.run(key, lambda: dg.evaluate(dg.parse(text)),
                        self._check(text,
                                    lambda d: sg.state_form(d)[0].expand()))
            elif family == "fan":
                ops.run(key, lambda: sg.state_form(dg.parse(text))[0],
                        lambda form: self._check(text, dg.evaluate)(
                            form.expand()))
            else:
                ops.run(key,
                        lambda: sg.state_form(dg.parse(text))[0].expand(),
                        self._check(text, dg.evaluate))

    def _theory(self, texts, ops):
        """What `spekcat verify --suite all --arity 2` checks, plus the
        state counts of both theories against the phase-space model."""
        vf, gen = self.vf, self.gen
        states = {}
        for theory in ("spek", "mspek"):
            want = expected_counts(theory, THEORY_ARITY)
            got = ops.run(
                "enumerate_%s_s" % theory,
                lambda: vf.enumerate_states(theory, THEORY_ARITY),
                lambda st: {n: len(v) for n, v in st.items()} == want)
            if got is not None:
                states[theory] = got
        for theory, by_legs in states.items():
            for n in sorted(by_legs):
                for k, s in enumerate(by_legs[n]):
                    ops.run("kbp %s %d #%d" % (theory, n, k),
                            lambda: vf.check_kbp(s).ok)
        if "spek" in states:
            ops.run("cardinality.spek-exact",
                    lambda: vf.check_mspek_cardinalities(states["spek"],
                                                         "spek"),
                    lambda c: c.ok and c.spek_exact)
        if "mspek" in states:
            ops.run("cardinality.mspek-range",
                    lambda: vf.check_mspek_cardinalities(states["mspek"],
                                                         "mspek").ok)
        ops.run("duality", lambda: vf.check_map_state_duality("spek"),
                lambda r: r.bijective and r.identity_matches_diagonal)

        def resolve(tag, theory):
            return gen.resolve(gen.GeneratorId(tag, theory))

        for theory in ("spek", "halfspek"):
            ops.run("laws.%s" % theory,
                    lambda: vf.check_basis_structure(
                        resolve("delta", theory), resolve("epsilon", theory)),
                    lambda laws: all(laws.values()))
        ops.run("laws.bottom-not-counit",
                lambda: vf.check_basis_structure(
                    resolve("delta", "spek"),
                    resolve("bottom_dagger", "mspek")),
                lambda laws: not laws["counit-left"])
        ops.run("laws.ghz-delta", vf.ghz_delta_identity)
