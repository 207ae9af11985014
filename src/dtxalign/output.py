"""Plot-ready tabular result files."""

from __future__ import annotations

import os


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _write_table(outdir: str, name: str, config_hash: str, header: list,
                 rows: list) -> str:
    """Write the table to outdir/name and return its path."""
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_sweep(summaries: list, outdir: str, config_hash: str) -> str:
    """One row per (strategy, target rate) with steady-state metrics."""
    if not summaries:
        raise ValueError("no summaries to write")
    header = ["strategy", "rate_mbps", "sum_rate_mbps", "mean_power_w",
              "retransmission_prob", "outage_rate", "convergence_frame"]
    rows = [
        (s.strategy, s.rate_mbps, s.sum_rate_mbps, s.mean_power_w,
         s.retransmission_prob, s.outage_rate, s.convergence_frame)
        for s in summaries
    ]
    return _write_table(outdir, "sweep.csv", config_hash, header, rows)


def write_trace(summaries: list, outdir: str, config_hash: str) -> str:
    """One row per (strategy, frame) with the mean center-cell power."""
    if not summaries:
        raise ValueError("no summaries to write")
    header = ["strategy", "rate_mbps", "frame", "power_w"]
    rows = [(s.strategy, s.rate_mbps, f, float(p))
            for s in summaries for f, p in enumerate(s.power_trace_w)]
    return _write_table(outdir, "trace.csv", config_hash, header, rows)


def write_algo_trace(trace: tuple, outdir: str, config_hash: str,
                     labels: list | None = None) -> str:
    """Per-frame score map, capacity ranking and priority, one row per row
    of the (psi, ranking, priority) arrays of `trace`, each (steps, T);
    row i is frame i + 1.  Slot sequences are pipe-joined; labels default
    to 1-based slot numbers."""
    psi, ranking, priority = (a.tolist() for a in trace)
    if labels is None:
        labels = [str(t + 1) for t in range(trace[0].shape[1])]

    def slots(seq):
        return "|".join(labels[t] for t in seq)

    header = ["frame", "psi", "ranking", "priority"]
    rows = [(i + 1, "|".join(f"{lab}:{x}" for lab, x in zip(labels, p)),
             slots(r), slots(v))
            for i, (p, r, v) in enumerate(zip(psi, ranking, priority))]
    return _write_table(outdir, "algorithm_trace.csv", config_hash, header,
                        rows)
