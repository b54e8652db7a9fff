"""The traced benchmark run wraps library names by getattr: each must exist,
and uninstalling the wrappers must put every original object back.  Its CLI
operations run in-process and must pass the subprocesses' checks, and the
long_periods operations pass their checks with and without the wrappers,
which count the same work."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def _namespaces(spans):
    owners = {id(o): o for o in spans.MODULES}
    owners.update({id(o): o for o, *_ in spans.TARGETS if isinstance(o, type)})
    return list(owners.values())


def test_every_target_resolves(spans):
    for owner, attr, name, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_install_then_uninstall_restores_every_object(spans):
    import sgharm.exact

    namespaces = _namespaces(spans)
    before = [dict(vars(ns)) for ns in namespaces]
    original = sgharm.exact.edge_word_matrix
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sgharm.exact.edge_word_matrix is not original
        assert sgharm.exact.edge_word_matrix.__wrapped__ is original
        assert sgharm.exact.edge_word_matrix("0110").pow5 == 4
        assert tracer.counts["exact.fold_letters"] == 4
    finally:
        tracer.uninstall()
    for ns, saved in zip(namespaces, before):
        after = vars(ns)
        assert after.keys() == saved.keys(), ns
        assert all(after[k] is v for k, v in saved.items()), ns


def test_in_process_cli_ops_pass_their_checks(monkeypatch, tmp_path):
    """The traced cli run calls sgharm.cli.main(argv) inside the worker, under
    redirected stdout, and checks what it printed as the subprocess's output."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    worker = importlib.import_module("worker")
    ops = workloads.make_ops(workloads.make_plan("cli", 1), str(BENCH.parent), str(tmp_path))
    in_process = [op for op in ops if op.argv is not None]
    assert in_process
    for op in in_process:
        op.check(worker._in_process(op)())


def test_in_process_cli_ops_pass_their_checks_traced(spans, tmp_path):
    """One round of the same ops through the worker's loop with the wrappers
    installed, as the traced cli run makes them: a wrapper or counter that
    breaks a command fails here."""
    import workloads
    import worker

    ops = workloads.make_ops(workloads.make_plan("cli", 1), str(BENCH.parent), str(tmp_path))
    in_process = [op for op in ops if op.argv is not None]
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = worker.run_phase(in_process, 0, 1, tracer=tracer, in_process=True, rounds=1)
    finally:
        tracer.uninstall()
    assert (result["failed"], result["wrong"]) == (0, 0), result["errors"]
    assert tracer.calls["cli.main"] == result["attempted"] == len(in_process)
    assert tracer.metrics(1)["cli.main_ms"] > 0


# Work counts of one round of long_periods at seed 1.  The exact fold reads
# half of each W + complement(W) period once, for the exponent and the exact
# tangent together; the projective fold only serves direction_at's prefixes, and
# the estimators read two batches of 48 x 4096 bits plus one 4096-bit
# stream.  A change of kernel must not move them, or the traced per-layer
# times would compare different work.
LONG_PERIODS_COUNTS = {"exact.fold_letters": 37661, "tangent.projective_letters": 355,
                       "holder.stream_bits": 397312}
# the letters folded by either path: the exact tangent's period and
# preperiod folds moved from the projective count to the exact one
LONG_PERIODS_FOLDED = 38016


def test_long_periods_ops_pass_their_checks_plain_and_traced(spans, tmp_path):
    import workloads

    plan = workloads.make_plan("long_periods", 1)
    ops = workloads.make_ops(plan, str(BENCH.parent), str(tmp_path))
    assert {op.kind for op in ops} == {"period", "curve", "lyapunov", "estimate"}
    for op in ops:
        op.check(op.call())
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in ops:
            op.check(op.call())
    finally:
        tracer.uninstall()
    assert {name: tracer.counts[name] for name in LONG_PERIODS_COUNTS} == LONG_PERIODS_COUNTS
    folded = tracer.counts["exact.fold_letters"] + tracer.counts["tangent.projective_letters"]
    assert folded == LONG_PERIODS_FOLDED
