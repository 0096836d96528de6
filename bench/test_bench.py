"""Fast checks of the benchmark itself: python3 -m pytest bench -q"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(run.SOURCE_DIR))


@pytest.fixture(scope="module")
def pkg():
    return run.Package()


@pytest.fixture(scope="module")
def items(pkg):
    # Five converging corpus markets keep the traced pass well under a second.
    return [item for item in run.draw_items(pkg, "corpus", 0) if item[0] in {f"corpus k={k}" for k in range(5)}]


def test_self_time_subtracts_child_spans():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    ns = types.SimpleNamespace(inner=lambda: None)
    ns.outer = lambda: (ns.inner(), ns.inner())
    with tracer.installed(
        [(ns, "inner", lambda f: tracer.span("inner", f)), (ns, "outer", lambda f: tracer.span("outer", f))]
    ):
        ns.outer()
    # outer opens at 0, inner runs 1-2 and 3-4, outer closes at 5
    assert tracer.calls() == {"outer": 1, "inner": 2}
    assert tracer.self_times() == {"outer": 3.0, "inner": 2.0}
    assert tracer.inclusive_times() == {"outer": 5.0, "inner": 2.0}
    assert tracer.root_time() == 5.0


def test_span_closes_and_bindings_restore_when_a_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    ns = types.SimpleNamespace(boom=boom)
    with pytest.raises(KeyError):
        with tracer.installed([(ns, "boom", lambda f: tracer.span("boom", f))]):
            ns.boom()
    assert ns.boom is boom
    assert tracer.calls() == {"boom": 1}
    assert tracer.end[0] >= tracer.start[0]


def test_self_times_and_untraced_remainder_sum_to_traced_wall(pkg, items):
    reference = {}
    run.run_passes(pkg, "corpus", items, reference, HostSpeed(), 0.0, run.MIN_PASSES)
    tracer, traced = run.traced_pass(pkg, "corpus", items, reference, HostSpeed())
    assert traced.mismatches == []
    self_times = tracer.self_times()
    assert min(self_times.values()) >= 0.0
    remainder = traced.wall_s - tracer.root_time()
    assert remainder >= 0.0
    assert sum(self_times.values()) + remainder == pytest.approx(traced.wall_s, rel=1e-9)
    calls = tracer.calls()
    assert calls["engine.run_auction"] == len(items)
    assert calls["clearing.clear_market_proximal"] == calls["engine.auction_step"] > 0


def test_wrappers_are_removed_after_a_traced_run(pkg, items):
    targets = [(owner, attr) for owner, attr, _ in run.trace_bindings(pkg, Tracer())]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer, _ = run.traced_pass(pkg, "corpus", items, {}, HostSpeed())
    assert [getattr(owner, attr) for owner, attr in targets] == originals
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(targets, originals))
    spans, constructions = len(tracer), tracer.counts[run.CONSTRUCTIONS]
    run.run_passes(pkg, "corpus", items[:1], {}, HostSpeed(), 0.0, 1)
    assert len(tracer) == spans
    assert tracer.counts[run.CONSTRUCTIONS] == constructions


def test_host_scale_uses_kernel_samples_near_the_interval():
    now = [0.0]
    kernel_s = iter([2 * REFERENCE_S] * 5 + [4 * REFERENCE_S] * 5)

    def kernel():
        now[0] += next(kernel_s)

    speed = HostSpeed(clock=lambda: now[0], kernel=kernel)
    speed.sample()  # ends at 2 * 5 * REFERENCE_S
    now[0] = 100.0
    speed.sample()
    assert speed.scale(0.0, 0.0) == pytest.approx(0.5)  # host at half speed
    assert speed.scale(100.0, 100.0) == pytest.approx(0.25)
    assert speed.scale(50.0, 51.0) == pytest.approx(1 / 3)  # no sample near: both neighbours


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_lists_the_declared_metrics(monkeypatch, capsys, trace):
    monkeypatch.setattr(run, "CORPUS_MARKETS", 5)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "corpus", "--seed", "3", "--seconds", "0", "--trace", trace]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 10 and result["failed"] == 0
    declared = json.loads((run.REPO_DIR / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_missing_package_exits_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "PACKAGE", "no_such_package_here")
    assert run.main(["--workload", "corpus", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
