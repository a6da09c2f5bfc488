"""The four seeded closed-loop workloads and the reference arithmetic that checks them.

Each workload runs in one process with one client: the next operation
starts only when the previous one has returned.  Every timed call goes
through ``Recorder.run``; its output is checked after the timed interval
against values the benchmark computes itself.  Library functions are
looked up on their module at call time (``self.lr.construction.encode``),
so the tracer's wrapped copies are the ones called in a traced run.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

# The binary fields' defining polynomials, as lrcodes.field fixes them.
# They are part of the code-file format: a codeword depends on them.
BINARY_MODULI = {4: 0x13, 8: 0x11B, 10: 0x409, 16: 0x1002B}

CLI_MAIN = "import sys; from lrcodes.cli import main; sys.exit(main())"

# result files, spans and the cli workload's code file, relative to the checkout
OUT_DIR = Path("perfbench") / "out"

FAILED = object()


class SetupError(RuntimeError):
    """A workload could not build its codes, so nothing can be measured."""


def reference_encode(q: int, msg: list[int], G) -> list[int]:
    """msg . G over GF(q) in numpy, independent of lrcodes' own arithmetic."""
    m = np.asarray(msg, dtype=np.int64)
    g = np.asarray(G, dtype=np.int64)
    if q & (q - 1):
        return ((m @ g) % q).tolist()
    e = q.bit_length() - 1
    modulus = BINARY_MODULI[e]
    a = np.repeat(m[:, None], g.shape[1], axis=1)
    b = g.copy()
    acc = np.zeros_like(g)
    for _ in range(e):
        acc ^= np.where(b & 1, a, 0)
        b >>= 1
        a <<= 1
        a = np.where(a >> e, a ^ modulus, a)
    return np.bitwise_xor.reduce(acc, axis=0).tolist()


def run_python(root: Path, code: str, *args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter running code, importing lrcodes from the checkout's sources."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )


def run_cli(root: Path, *args: str) -> subprocess.CompletedProcess:
    """One command-line call through lrcodes.cli:main."""
    return run_python(root, CLI_MAIN, *args)


class Recorder:
    """Times library calls and counts attempts and failures."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        # seconds per codeword symbol, for ops that produce symbols
        self.per_symbol: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.last = 0.0
        self.errors: list[str] = []

    def run(self, kind: str, fn: Callable, *args, symbols: int = 0):
        """Call fn(*args) as one timed operation of the given kind.

        Returns FAILED when the call raises; the exception counts as a
        failed operation and the run goes on.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that raises is a failed op, not a crash
            self.last = time.perf_counter() - t0
            self.fail(kind, f"{type(exc).__name__}: {exc}")
            return FAILED
        self.last = time.perf_counter() - t0
        self.samples.setdefault(kind, []).append(self.last)
        if symbols:
            self.per_symbol.setdefault(kind, []).append(self.last / symbols)
        return out

    def expect(self, ok: bool, kind: str, detail: str) -> None:
        if not ok:
            self.fail(kind, detail)

    def fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {detail}")


class Workload:
    """One workload: set-up, then seeded closed-loop steps.

    setup() is what set-up time measures and may run several times;
    prepare() (re)starts the seeded input streams, so two workloads with
    the same seed see the same inputs in the same order.
    """

    name = ""
    codes: tuple[tuple[int, int, int, int], ...] = ()
    op_kinds: tuple[str, ...] = ()
    encode_kinds: tuple[str, ...] = ("encode",)
    # percentile reported as op_tail_ms, the highest with at least ten of a
    # run's samples beyond it; None reports the slowest op
    tail_pct: int | None = None
    op_label = ""
    op_unit = ("ms", 1e3)

    def __init__(self, lr, seed: int, rec: Recorder, root: Path) -> None:
        self.lr = lr
        self.seed = seed
        self.rec = rec
        self.root = root

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{self.name}:{stream}:{self.seed}")

    def build(self, code):
        C = self.lr.construction
        return C.build_code(C.validate_params(*code))

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def step(self, i: int) -> None:
        raise NotImplementedError

    def count_step(self, i: int) -> None:
        """The step the field-op counting pass runs."""
        self.step(i)

    def encode_checked(self, spec, msg: list[int], kind: str = "encode") -> list[int]:
        """Encode msg as one timed op; check it against msg . G.

        Returns the reference codeword, which later ops of the step use.
        """
        p = spec.params
        cw = self.rec.run(kind, self.lr.construction.encode, msg, spec, symbols=p.n)
        ref = reference_encode(p.q, msg, spec.G)
        if cw is not FAILED:
            self.rec.expect(cw == ref, kind, f"encode of a message differs from msg.G ({p.q}, {p.n})")
        return ref


class RepairWorkload(Workload):
    """Encode a stripe, then repair each coordinate once, in shuffled order."""

    name = "repair"
    codes = ((65536, 62, 40, 7),)
    op_kinds = ("repair",)
    # not p99: on a noisy host single stalls move p99 by up to 20% between runs
    tail_pct = 90
    op_label = "repair"
    op_unit = ("us", 1e6)

    def setup(self) -> None:
        self.spec = self.build(self.codes[0])

    def prepare(self) -> None:
        self.stream = self.rng("stripes")

    def step(self, i: int) -> None:
        spec, rng = self.spec, self.stream
        p = spec.params
        msg = [rng.randrange(p.q) for _ in range(p.k)]
        order = list(range(1, p.n + 1))
        rng.shuffle(order)
        cw = self.encode_checked(spec, msg)
        R = self.lr.repair
        for idx in order:
            received = list(cw)
            received[idx - 1] = None
            value = self.rec.run("repair", R.repair_coordinate, spec, received, idx)
            if value is not FAILED:
                self.rec.expect(value == cw[idx - 1], "repair", f"coordinate {idx} repaired wrong")


class DegradedWorkload(Workload):
    """Encode a stripe, erase one of four recurring node-failure patterns, decode."""

    name = "degraded"
    codes = ((65521, 118, 80, 4),)
    op_kinds = ("decode",)
    tail_pct = 90
    op_label = "decode"
    patterns_drawn = 4

    def setup(self) -> None:
        self.spec = self.build(self.codes[0])

    def prepare(self) -> None:
        p = self.spec.params
        d = self.lr.bounds.predicted_distance(p)
        draw = self.rng("patterns")
        self.patterns = [sorted(draw.sample(range(p.n), d - 1)) for _ in range(self.patterns_drawn)]
        self.stream = self.rng("stripes")

    def step(self, i: int) -> None:
        spec, rng = self.spec, self.stream
        p = spec.params
        msg = [rng.randrange(p.q) for _ in range(p.k)]
        pattern = self.patterns[rng.randrange(len(self.patterns))]
        cw = self.encode_checked(spec, msg)
        received: list[int | None] = list(cw)
        for j in pattern:
            received[j] = None
        out = self.rec.run("decode", self.lr.repair.decode_erasures, spec, received)
        if out is not FAILED:
            self.rec.expect(out == msg, "decode", "decoded message differs from the sent one")


class CertifyWorkload(Workload):
    """One pass audits seven codes: encode test messages, then run_verification.

    Each pass builds its codes afresh, as an audit of newly made codes
    would, so nothing a spec object might cache carries from one pass to
    the next.  No k = 1 GF(2^16) code: verify's q x q multiply table
    would need about 32 GiB.
    """

    name = "certify"
    codes = (
        (13, 10, 5, 3),
        (13, 11, 5, 2),
        (16, 14, 5, 3),
        (16, 14, 4, 3),
        (17, 15, 5, 3),
        (256, 14, 2, 4),
        (1024, 8, 2, 2),
    )
    op_kinds = ("certify",)
    op_label = "certify"
    op_unit = ("s", 1.0)
    budget = 5_000_000
    audit_msgs = 64

    def setup(self) -> None:
        self.specs = [self.build(code) for code in self.codes]

    def prepare(self) -> None:
        self.stream = self.rng("messages")

    def audit(self, spec) -> float:
        p = spec.params
        spent = 0.0
        for _ in range(self.audit_msgs):
            self.encode_checked(spec, [self.stream.randrange(p.q) for _ in range(p.k)])
            spent += self.rec.last
        return spent

    def step(self, i: int) -> None:
        rec, V = self.rec, self.lr.verify
        spent = 0.0
        for code in self.codes:
            spec = rec.run("build", self.build, code)
            spent += rec.last
            if spec is FAILED:
                continue
            spent += self.audit(spec)
            report = rec.run("verify", V.run_verification, spec, self.budget)
            spent += rec.last
            if report is not FAILED:
                d = self.lr.bounds.predicted_distance(spec.params)
                rec.expect(
                    report.all_ok and report.distance_found == d,
                    "verify",
                    f"{code}: all_ok={report.all_ok} distance {report.distance_found} != {d}",
                )
        rec.samples.setdefault("certify", []).append(spent)

    def count_step(self, i: int) -> None:
        for spec in self.specs:
            self.audit(spec)


class CliWorkload(Workload):
    """Subprocess calls of the command line on the repair workload's code file.

    The calls rotate encode, repair --index and decode (with d - 1 erased
    symbols).  A call counts as failed when it exits non-zero or when its
    stdout differs from the value computed in-process, so a call that
    does nothing is never timed as a fast one.
    """

    name = "cli"
    codes = RepairWorkload.codes
    op_kinds = ("cli.encode", "cli.repair", "cli.decode")
    encode_kinds = ("cli.encode",)
    # about 85 calls fit in a 20 s run, a third of them the slower decode:
    # p85 keeps at least 10 samples beyond it and lies inside the decode cluster
    tail_pct = 85
    op_label = "cli"

    def setup(self) -> None:
        q, n, k, r = self.codes[0]
        self.spec_file = self.root / OUT_DIR / f"cli-code-{self.seed}.json"
        self.spec_file.unlink(missing_ok=True)
        proc = run_cli(
            self.root,
            "construct", "--q", str(q), "--n", str(n), "--k", str(k), "--r", str(r),
            "--out", str(self.spec_file),
        )
        if proc.returncode != 0 or not self.spec_file.is_file():
            raise SetupError(f"construct exited {proc.returncode} and wrote no code file: {proc.stderr.strip()}")

    def prepare(self) -> None:
        self.spec = self.build(self.codes[0])
        p = self.spec.params
        self.d = self.lr.bounds.predicted_distance(p)
        self.stream = self.rng("calls")
        self.order = list(range(1, p.n + 1))
        self.stream.shuffle(self.order)

    def step(self, i: int) -> None:
        spec, rng = self.spec, self.stream
        p = spec.params
        msg = [rng.randrange(p.q) for _ in range(p.k)]
        cw = reference_encode(p.q, msg, spec.G)
        command = ("encode", "repair", "decode")[i % 3]
        spec_arg = ("--spec", str(self.spec_file))
        if command == "encode":
            args = ("encode", *spec_arg, *map(str, msg))
            expected = " ".join(map(str, cw))
        elif command == "repair":
            idx = self.order[(i // 3) % p.n]
            word = [str(v) for v in cw]
            word[idx - 1] = "?"
            args = ("repair", *spec_arg, "--index", str(idx), *word)
            expected = f"repaired value: {cw[idx - 1]}"
        else:
            word = [str(v) for v in cw]
            for j in rng.sample(range(p.n), self.d - 1):
                word[j] = "?"
            args = ("decode", *spec_arg, *word)
            expected = " ".join(map(str, msg))
        kind = f"cli.{command}"
        symbols = p.n if command == "encode" else 0
        proc = self.rec.run(kind, run_cli, self.root, *args, symbols=symbols)
        if proc is FAILED:
            return
        lines = proc.stdout.strip().splitlines()
        got = lines[-1] if lines else ""
        self.rec.expect(
            proc.returncode == 0 and got == expected,
            kind,
            f"exit {proc.returncode}, last stdout line {got[:60]!r}",
        )

    def count_step(self, i: int) -> None:
        """The calls run in child processes, which the counting pass cannot see."""


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (RepairWorkload, DegradedWorkload, CertifyWorkload, CliWorkload)
}


def code_facts(lr, code) -> dict:
    """s, t, d and the subgroup kind of a workload code; refuses t = 0 and s = 1.

    The paper's point is the shortened code, so every benchmark code must
    drop points (t >= 1) and have a short last group of at least two.
    """
    C = lr.construction
    p = C.validate_params(*code)
    if p.t == 0 or p.s < 2:
        raise SetupError(f"code {code} is not shortened (s = {p.s}, t = {p.t})")
    kind = lr.goodpoly.find_subgroup(lr.field.Field(p.q), p.r + 1).kind
    return {
        "code": list(code),
        "s": p.s,
        "t": p.t,
        "d": lr.bounds.predicted_distance(p),
        "subgroup": kind,
    }
