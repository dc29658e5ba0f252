"""Run one ``amcmc`` subcommand in this process, as the installed ``amcmc``
script does (``from amcmc.cli import main; sys.exit(main())``).

    python3 perfbench/cli_launch.py <stamp.json> <trace 0|1> <spans.json> <subcommand> [args...]

Writes ``{"import_done": <time.monotonic()>}`` to ``stamp.json`` once
``amcmc.cli`` is imported, so the caller can time a cold import.  With
trace 1 it wraps the calculus layers in spans and writes them to
``spans.json`` on exit.
"""

from __future__ import annotations

import json
import sys
import time


def _install(tracer) -> None:
    import amcmc.bounds as bounds
    import amcmc.cli as cli
    import amcmc.compminimax as cmx
    import amcmc.diagnostics as diag
    from tracing import file_bytes

    # the bounds the compminimax grid search evaluates
    for attr in ("tv_bound_exact", "tv_bound_approx"):
        tracer.wrap(cmx, attr, "bounds.tv_eval")
    for attr in ("l2_bound_exact", "l2_bound_approx"):
        tracer.wrap(cmx, attr, "bounds.l2_eval")
    tracer.wrap(cmx, "curve_epsilon_vs_budget", "compminimax.curve_epsilon_vs_budget",
                lambda a, k, r: {"discrepancy": a[0].discrepancy})
    tracer.wrap(cli, "write_csv", "config.write_csv", file_bytes)
    tracer.wrap(cli, "write_manifest", "config.write_manifest", file_bytes)
    tracer.wrap(cli, "finite_chain_checks", "cli.finite_chain_checks")
    for attr in ("read_trace_csv", "effective_sample_size", "geweke_z", "phi_max"):
        tracer.wrap(diag, attr, f"diagnostics.{attr}")

    # remember the longest band-path call of variance_factor (alpha t < 0.5);
    # the round process replays it under tracemalloc after its wall-time stamp
    original = bounds.variance_factor

    def noted(t, alpha):
        if alpha * t < 0.5 and t > tracer.notes.get("band_t", 0):
            tracer.notes["band_t"], tracer.notes["band_alpha"] = t, alpha
        return original(t, alpha)

    tracer.patch(bounds, "variance_factor", noted)


def main() -> int:
    stamp_path, traced, spans_path, *argv = sys.argv[1:]
    tracer = None
    if traced == "1":
        from tracing import Tracer

        tracer = Tracer()
        with tracer.span("cli.import"):
            import amcmc.cli
        _install(tracer)
    else:
        import amcmc.cli
    import_done = time.monotonic()
    try:
        return amcmc.cli.main(argv)
    finally:
        with open(stamp_path, "w", encoding="utf-8") as fh:
            json.dump({"import_done": import_done}, fh)
        if tracer is not None:
            tracer.restore()
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
