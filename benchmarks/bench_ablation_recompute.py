"""Ablation: the controller's delayed recomputation (§3 insight).

"Another design insight we gained is the need for a delayed
recomputation of best paths on the controller's side, so as to improve
overall stability and rate-limit route flaps due to bursts in external
BGP input."

Sweeping the debounce delay quantifies the trade: longer delays coalesce
bursty input into fewer recomputations (stability), at the cost of a
higher convergence floor (reaction latency).
"""

from conftest import bench_n, bench_runs, publish, runner_kwargs

from repro.experiments import recompute_delay_sweep


def run():
    return recompute_delay_sweep(
        n=bench_n(),
        delays=(0.0, 0.5, 2.0, 5.0, 15.0),
        sdn_count=bench_n() // 2,
        runs=bench_runs(5),
        **runner_kwargs(),
    )


def report(points):
    lines = [
        "Delayed-recomputation ablation — withdrawal on a half-SDN clique",
        "",
        f"{'delay':>7}  {'convergence med':>16}  {'recomputations':>15}",
    ]
    for p in points:
        lines.append(
            f"{p.delay:>6.1f}s  {p.convergence.median:>15.1f}s  "
            f"{p.recomputations:>15.1f}"
        )
    lines += [
        "",
        "shape: recomputation count falls as the delay grows (bursts",
        "coalesce — the stability the paper wanted) while convergence",
        "time gains a floor proportional to the delay.",
    ]
    return "\n".join(lines)


def test_ablation_recompute_delay(benchmark):
    points = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("ablation_recompute", report(points))
    by_delay = {p.delay: p for p in points}
    # more delay -> fewer recomputations (coalescing works)
    assert by_delay[15.0].recomputations < by_delay[0.0].recomputations
    # monotone non-increasing recomputation counts along the sweep
    counts = [p.recomputations for p in points]
    assert all(a >= b - 1e-9 for a, b in zip(counts, counts[1:])), counts
    # a very long delay visibly costs convergence latency vs a short one
    assert (
        by_delay[15.0].convergence.median
        >= by_delay[0.5].convergence.median - 1.0
    )
