"""Ablation: MRAI is the mechanism centralization bypasses (§3 insight).

BGP's MinRouteAdvertisementInterval serializes withdrawal path
exploration; the IDR controller replaces exploration with one Dijkstra
run.  Sweeping MRAI with and without a half-cluster reproduces two
classic results at once:

- **Griffin & Premore's U-shape** for pure BGP: at MRAI 0 nothing rate-
  limits exploration, the update count explodes, and convergence is
  CPU-bound; at large MRAI each exploration round waits.  The best pure
  BGP can do is a small nonzero MRAI.
- **The paper's point**: the hybrid sits near the controller floor for
  every MRAI, so centralization's advantage grows exactly where BGP's
  rate limiting hurts.
"""

from conftest import bench_n, bench_runs, publish, runner_kwargs

from repro.experiments import mrai_sweep


def run():
    return mrai_sweep(
        n=bench_n(),
        mrai_values=(0.0, 5.0, 15.0, 30.0),
        sdn_count=bench_n() // 2,
        runs=bench_runs(5),
        **runner_kwargs(),
    )


def report(points):
    lines = [
        "MRAI ablation — withdrawal convergence, pure BGP vs half-SDN",
        "",
        f"{'MRAI':>6}  {'pure med':>9} {'pure upd':>9}  "
        f"{'hybrid med':>11} {'hybrid upd':>11}  {'reduction':>10}",
    ]
    for p in points:
        lines.append(
            f"{p.mrai:>5.0f}s  {p.pure_bgp.median:>8.1f}s {p.pure_updates:>9.0f}  "
            f"{p.hybrid.median:>10.1f}s {p.hybrid_updates:>11.0f}  "
            f"{p.reduction:>9.1%}"
        )
    lines += [
        "",
        "shape: pure BGP shows the Griffin-Premore U (MRAI 0 floods updates",
        "and converges CPU-bound; large MRAI converges timer-bound); the",
        "hybrid stays near the controller floor, so centralization's win",
        "grows with MRAI — it removes exactly what rate limiting costs.",
    ]
    return "\n".join(lines)


def test_ablation_mrai(benchmark):
    points = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("ablation_mrai", report(points))
    by_mrai = {p.mrai: p for p in points}
    # pure-BGP convergence grows with MRAI on the timer-bound side
    assert by_mrai[30.0].pure_bgp.median > by_mrai[5.0].pure_bgp.median
    # the larger the MRAI, the bigger the absolute win
    gain_hi = by_mrai[30.0].pure_bgp.median - by_mrai[30.0].hybrid.median
    gain_lo = by_mrai[5.0].pure_bgp.median - by_mrai[5.0].hybrid.median
    assert gain_hi > gain_lo
    # Griffin-Premore U-shape: MRAI 0 floods updates (the factor grows
    # with clique size: ~3x at n=6, ~86x at the paper's n=16)
    assert by_mrai[0.0].pure_updates > 2 * by_mrai[5.0].pure_updates
    if bench_n() >= 12:
        # at paper scale the flood is large enough to become CPU-bound,
        # making MRAI 0 *slower* than the small-MRAI sweet spot — and
        # centralization rescues it
        assert by_mrai[0.0].pure_bgp.median > by_mrai[5.0].pure_bgp.median
        assert by_mrai[0.0].hybrid.median < by_mrai[0.0].pure_bgp.median
