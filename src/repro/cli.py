"""Command-line interface: ``python -m repro <command>``.

Quick access to the library's main entry points without writing a script:

* ``windows E/P``          — print the Pfair windows of a weight (Fig. 1 style)
* ``schedule E/P [E/P...]`` — run PD² on a task set and print the schedule
* ``fig1`` ``fig5``        — regenerate the paper's illustrative figures
* ``fig3`` ``fig4``        — run a (scaled) Fig. 3 / Fig. 4 campaign;
  ``--jobs N`` parallelises the grid over a process pool
* ``campaign run|resume|status`` — the same campaigns through the
  fault-tolerant engine: shards checkpoint into a run directory, an
  interrupted run resumes byte-identically, ``status`` reports live
  progress (see docs/CAMPAIGNS.md); ``--workers host1:port,host2:port``
  farms shards out to worker nodes (docs/DISTRIBUTED.md); ``--trace
  log.swf`` replays real Standard Workload Format windows instead of
  synthetic task sets (docs/TRACES.md)
* ``traces info|fetch|convert`` — inspect an SWF log, download a public
  archive log with mandatory SHA-256 verification, or convert a trace
  window into a task-set JSON file (docs/TRACES.md)
* ``worker --serve``        — run a shard-evaluation worker node for
  distributed campaigns
* ``compare E/P [E/P...]`` — minimum processors under PD² vs EDF-FF with
  the paper's overhead constants (weights are given in quanta)
* ``serve``                — run the admission-control service (TCP,
  JSON lines; see docs/SERVICE.md)
* ``admit E/P [E/P...]``   — ask a running service to admit a task set
* ``svc-stats``            — print a running service's metrics

Weights are written ``E/P`` in integer quanta (e.g. ``8/11``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Iterator, Optional, Sequence,
                    Tuple)

from .analysis.experiments import utilization_grid
from .analysis.figures import fig1_report, fig3_table, fig4_table, fig5_report
from .campaign import RunnerConfig, run_schedulability_campaign
from .analysis.schedulability import evaluate_task_set
from .core.task import PeriodicTask, TaskSet
from .core.trace import render_schedule, render_windows
from .overheads.model import OverheadModel
from .sim.quantum import simulate_pfair
from .traces.mapping import MAPPING_POLICIES as MAPPING_POLICY_CHOICES
from .workload.spec import TaskSpec

if TYPE_CHECKING:
    from .distrib import Coordinator
    from .service.client import AdmissionClient

__all__ = ["main"]


def _parse_weight(text: str) -> Tuple[int, int]:
    try:
        e_s, p_s = text.split("/")
        e, p = int(e_s), int(p_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"weights are written E/P in integer quanta, got {text!r}"
        ) from None
    if not 0 < e <= p:
        raise argparse.ArgumentTypeError(f"need 0 < E <= P, got {text}")
    return e, p


def _int_at_least(text: str, least: int, what: str) -> int:
    """``text`` as an integer of at least ``least``, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {what}, got {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"expected {what}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """A process or slot count: an integer of at least one."""
    return _int_at_least(text, 1, "a positive integer")


def _count_or_default(text: str) -> int:
    """A count where 0 asks for the command's default: an integer >= 0."""
    return _int_at_least(text, 0, "a nonnegative integer")


def _cmd_windows(args: argparse.Namespace) -> int:
    e, p = args.weight
    task = PeriodicTask(e, p, name="T")
    last = args.subtasks if args.subtasks else 2 * e
    print(render_windows(task, 1, last))
    print()
    print("subtask   r   d   b   group-deadline")
    for i in range(1, last + 1):
        s = task.subtask(i)
        print(f"  T{i:<6} {s.release:3d} {s.deadline:3d} {s.b_bit:3d}   "
              f"{s.group_deadline}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    tasks = [PeriodicTask(e, p, name=f"T{i}")
             for i, (e, p) in enumerate(args.weights)]
    ts = TaskSet(tasks)
    m = args.processors if args.processors else ts.min_processors()
    if not ts.is_feasible(m):
        print(f"infeasible: total weight {ts.total_weight()} > {m} processors",
              file=sys.stderr)
        return 1
    horizon = args.horizon if args.horizon else min(ts.hyperperiod() * 2, 200)
    res = simulate_pfair(tasks, m, horizon, trace=True,
                         fastpath=not args.no_fastpath)
    print(f"PD² on {m} processors, {horizon} slots, total weight "
          f"{ts.total_weight()}")
    print(f"misses: {res.stats.miss_count}, preemptions: "
          f"{res.stats.total_preemptions}, migrations: "
          f"{res.stats.total_migrations}\n")
    print(render_schedule(res.trace, tasks, min(horizon, args.width)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    model = OverheadModel()
    if not (args.file or args.weights):
        print("give weights or --file", file=sys.stderr)
        return 2
    try:
        if args.file:
            from .workload.io import load_task_set

            specs = load_task_set(args.file)
        else:
            quantum = model.quantum
            specs = [TaskSpec(e * quantum, p * quantum, name=f"T{i}",
                              cache_delay=args.cache_delay)
                     for i, (e, p) in enumerate(args.weights)]
        point = evaluate_task_set(specs, model)
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(f"{point.n_tasks} tasks, raw utilization {point.utilization:.3f}")
    print(f"minimum processors, PD² (Eq. 2 on inflated weights): "
          f"{point.m_pd2}")
    print(f"minimum processors, EDF-FF (overhead-aware first fit): "
          f"{point.m_ff}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .workload.generator import TaskSetGenerator
    from .workload.io import save_task_set

    gen = TaskSetGenerator(args.seed)
    specs = gen.generate(args.tasks, args.utilization)
    save_task_set(args.output, specs, quantum=gen.quantum)
    print(f"wrote {len(specs)} tasks (target U = {args.utilization}) "
          f"to {args.output}")
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    print(fig1_report())
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    report, results = fig5_report(horizon=args.horizon)
    print(report)
    return 0


def _campaign(args: argparse.Namespace,
              formatter: Callable[..., str]) -> int:
    grid = utilization_grid(args.tasks, points=args.points)
    rows = run_schedulability_campaign(
        args.tasks, grid, sets_per_point=args.sets, seed=args.seed,
        workers=args.jobs,
        progress=lambda msg: print(msg, file=sys.stderr))
    print(formatter(rows, args.tasks, args.sets))
    if args.save:
        from .analysis.persistence import save_campaign

        save_campaign(args.save, rows, seed=args.seed,
                      sets_per_point=args.sets,
                      note=f"{args.command} N={args.tasks}")
        print(f"[campaign saved to {args.save}]", file=sys.stderr)
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    return _campaign(args, fig3_table)


def _cmd_fig4(args: argparse.Namespace) -> int:
    return _campaign(args, fig4_table)


def _campaign_config(args: argparse.Namespace) -> RunnerConfig:
    return RunnerConfig(workers=args.jobs or 1,
                        shard_timeout=args.shard_timeout,
                        max_retries=args.retries)


def _worker_nodes(text: str) -> list:
    """``campaign --workers``: a ``host:port[,host:port...]`` list that
    selects the distributed path (docs/DISTRIBUTED.md)."""
    from .distrib import parse_worker_nodes

    try:
        return parse_worker_nodes(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@contextlib.contextmanager
def _fleet(args: argparse.Namespace,
           nodes: Optional[list]) -> Iterator[Optional["Coordinator"]]:
    """The dispatcher for a ``--workers host:port`` run (None for a
    local run).  With ``-j N`` the local pool joins the fleet as one
    more node: an in-process worker on a loopback port, stopped when
    the run ends."""
    if nodes is None:
        yield None
        return
    from .distrib import Coordinator, DistribConfig, NodeSpec, WorkerServer

    config = DistribConfig(lease_timeout=args.lease_timeout,
                           shard_deadline=args.shard_timeout,
                           max_retries=args.retries)
    if not args.jobs:
        yield Coordinator(nodes, config)
        return
    with WorkerServer(jobs=args.jobs) as (host, port):
        yield Coordinator([*nodes, NodeSpec(host, port)], config)


def _run_campaign_cli(args: argparse.Namespace, grid_args: tuple,
                      *, resume: bool) -> int:
    """Shared body of ``campaign run`` and ``campaign resume``: run the
    campaign locally or (with worker nodes) on the fleet, then print
    the requested figure table."""
    from .campaign import CampaignIncomplete, RunDirError
    from .distrib import DistribError

    n_tasks, utilizations, sets, seed, replicas = grid_args
    try:
        with _fleet(args, args.workers) as dispatcher:
            rows = run_schedulability_campaign(
                n_tasks, utilizations, sets_per_point=sets, seed=seed,
                replicas=replicas, run_dir=args.run_dir, resume=resume,
                config=_campaign_config(args), dispatcher=dispatcher,
                progress=lambda msg: print(msg, file=sys.stderr))
    except (RunDirError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except CampaignIncomplete as exc:
        print(f"campaign incomplete: {exc}", file=sys.stderr)
        return 1
    except (DistribError, OSError) as exc:
        print(f"distributed run failed: {exc}", file=sys.stderr)
        return 1
    formatter = fig4_table if args.fig == 4 else fig3_table
    print(formatter(rows, n_tasks, sets))
    print(f"[campaign "
          f"{'complete' if resume else 'checkpointed'} in {args.run_dir}]",
          file=sys.stderr)
    return 0


def _trace_window_offsets(args: argparse.Namespace) -> Tuple[int, ...]:
    """Consecutive window offsets from ``--window-offset``/``--windows``."""
    return tuple(args.window_offset + i * args.window
                 for i in range(args.windows))


def _run_trace_cli(args: argparse.Namespace, *, grid: "object",
                   resume: bool) -> int:
    """Shared body of ``campaign run --trace`` and its resume: run the
    replay locally or (with worker nodes) on the fleet, then print one
    figure table per trace window."""
    from .campaign import CampaignIncomplete, RunDirError
    from .distrib import DistribError
    from .traces.mapping import MappingConfig
    from .traces.swf import SWFError

    if not Path(args.trace).is_file():
        print(f"{args.trace}: no such trace file", file=sys.stderr)
        return 2
    if grid is None:
        grid_kwargs = dict(
            window_seconds=args.window,
            window_offsets=_trace_window_offsets(args),
            utilizations=utilization_grid(args.tasks, points=args.points),
            n_tasks=args.tasks, sets_per_point=args.sets, seed=args.seed,
            replicas=args.replicas,
            mapping=MappingConfig(policy=args.policy))
    else:
        grid_kwargs = {}
    from .traces.replay import run_trace_campaign

    try:
        with _fleet(args, args.workers) as dispatcher:
            rows = run_trace_campaign(
                args.trace, run_dir=args.run_dir, resume=resume,
                config=_campaign_config(args), grid=grid,
                dispatcher=dispatcher,
                progress=lambda msg: print(msg, file=sys.stderr),
                **grid_kwargs)
    except (SWFError, RunDirError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except CampaignIncomplete as exc:
        print(f"campaign incomplete: {exc}", file=sys.stderr)
        return 1
    except (DistribError, OSError) as exc:
        print(f"distributed run failed: {exc}", file=sys.stderr)
        return 1
    if grid is not None:
        offsets = grid.window_offsets
        per = len(grid.utilizations)
        n_tasks, sets = grid.n_tasks, grid.sets_per_point
    else:
        offsets = grid_kwargs["window_offsets"]
        per = len(grid_kwargs["utilizations"])
        n_tasks, sets = args.tasks, args.sets
    formatter = fig4_table if args.fig == 4 else fig3_table
    for wi, offset in enumerate(offsets):
        print(f"[trace window @{offset}s]")
        print(formatter(rows[wi * per:(wi + 1) * per], n_tasks, sets))
    print(f"[trace campaign "
          f"{'complete' if resume else 'checkpointed'} in {args.run_dir}]",
          file=sys.stderr)
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    if args.trace is not None:
        return _run_trace_cli(args, grid=None, resume=False)
    grid = utilization_grid(args.tasks, points=args.points)
    return _run_campaign_cli(
        args, (args.tasks, grid, args.sets, args.seed, args.replicas),
        resume=False)


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    from .campaign import CheckpointStore, RunDirError

    store = CheckpointStore(args.run_dir)
    try:
        manifest = store.load_manifest()
    except (RunDirError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    grid_dict = manifest["grid"]
    if isinstance(grid_dict, dict) and grid_dict.get("kind"):
        # A trace-replay manifest: the run needs its log back to rebuild
        # the window payloads (the manifest pins the expected SHA-256).
        from .traces.replay import TraceGrid

        if args.trace is None:
            print(f"{args.run_dir} holds a {grid_dict['kind']!r} "
                  f"campaign; pass --trace PATH (the original log, "
                  f"SHA-256 {grid_dict.get('trace_sha256', '?')[:12]}...)",
                  file=sys.stderr)
            return 2
        try:
            trace_grid = TraceGrid.from_dict(grid_dict)
        except (KeyError, TypeError, ValueError) as exc:
            print(f"{args.run_dir}: malformed trace manifest: {exc}",
                  file=sys.stderr)
            return 2
        return _run_trace_cli(args, grid=trace_grid, resume=True)
    if args.trace is not None:
        print(f"{args.run_dir} holds a synthetic campaign; --trace does "
              f"not apply here", file=sys.stderr)
        return 2
    try:
        grid = store.load_grid()
    except (RunDirError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return _run_campaign_cli(
        args, (grid.n_tasks, grid.utilizations, grid.sets_per_point,
               grid.seed, grid.replicas),
        resume=True)


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .campaign import CheckpointStore, RunDirError

    store = CheckpointStore(args.run_dir)
    try:
        manifest = store.load_manifest()
    except (RunDirError, OSError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    g = manifest["grid"]
    print(f"campaign in {args.run_dir}: N={g['n_tasks']}, "
          f"{len(g['utilizations'])} points x {g['replicas']} replica(s), "
          f"{g['sets_per_point']} sets/point, seed {g['seed']} "
          f"(created {manifest['created']})")
    status = store.read_status()
    if status is None:
        print("state: planned (no status written yet)")
        return 0
    print(f"state: {status['state']}   shards: {status['shards_done']}"
          f"/{status['shards_total']}"
          + (f" ({status['shards_resumed']} restored from checkpoints)"
             if status.get("shards_resumed") else ""))
    # A live run rewrites the snapshot only every status interval, so
    # it may trail the shard files, which are what resume restores.
    on_disk = len(store.completed_shards())
    if on_disk != status["shards_done"]:
        print(f"checkpoints on disk: {on_disk} (what resume would restore)")
    retries = status.get("retries", {})
    print("retries: " + (", ".join(f"{k}={v}"
                                   for k, v in sorted(retries.items()))
                         if retries else "none"))
    tput = status.get("throughput_shards_per_sec")
    if tput:
        eta = status.get("eta_seconds")
        print(f"throughput: {tput} shards/s"
              + (f", eta {eta:.0f}s" if eta is not None else ""))
    lat = status.get("shard_latency", {})
    if lat.get("count"):
        print(f"shard latency: p50 {lat['p50_ms']} ms, "
              f"p90 {lat['p90_ms']} ms, max {lat['max_ms']} ms "
              f"over {lat['count']} shard(s)")
    _print_worker_attribution(status)
    if args.shards:
        _print_shard_attribution(store, status)
    return 0


def _print_worker_attribution(status: dict) -> None:
    """Per-worker columns of ``campaign status`` (distributed runs and
    the local pool both appear; old status files simply lack the key)."""
    workers = status.get("workers") or {}
    if workers:
        print("workers:")
        print(f"  {'node':<22} {'shards':>6} {'retries':>7} "
              f"{'shards/s':>9} {'p50 ms':>8}")
        for name, w in sorted(workers.items()):
            retries = sum((w.get("retries") or {}).values())
            tput = w.get("throughput_shards_per_sec")
            lat = (w.get("shard_latency") or {}).get("p50_ms")
            print(f"  {name:<22} {w.get('shards_done', 0):>6} "
                  f"{retries:>7} "
                  f"{tput if tput is not None else '-':>9} "
                  f"{lat if lat is not None else '-':>8}")
    distrib = status.get("distrib") or {}
    if distrib:
        print("coordination: "
              f"queue stalls {distrib.get('queue_stalls', 0)}"
              f"/cap {distrib.get('queue_capacity', '-')}, "
              f"duplicates discarded "
              f"{distrib.get('duplicates_discarded', 0)}, "
              f"leases expired {distrib.get('leases_expired', 0)}, "
              f"lost {distrib.get('leases_lost', 0)}")


def _print_shard_attribution(store: "object", status: dict) -> None:
    """The ``--shards`` table: producing node, attempts, lease history.

    Live-run rows come from the status snapshot's lease attribution;
    checkpointed shards (including restored ones the current run never
    leased) fall back to the provenance recorded in their shard files.
    """
    from .campaign import RunDirError

    attribution = status.get("shards") or {}
    ids = sorted(set(attribution) | store.completed_shards())
    if not ids:
        print("shards: none attempted yet")
        return
    print("shards:")
    print(f"  {'shard':<12} {'worker':<22} {'attempts':>8}  lease history")
    for sid in ids:
        entry = attribution.get(sid)
        if entry is not None:
            worker = entry.get("worker") or "-"
            leases = entry.get("leases") or []
            attempts = len(leases)
            history = " -> ".join(
                f"{rec.get('worker') or '?'}({rec.get('outcome')})"
                for rec in leases) or "-"
        else:
            try:
                meta = store.read_shard_meta(sid)
            except (RunDirError, OSError, ValueError, KeyError):
                continue
            worker = meta.get("worker", "local")
            attempts = meta.get("attempts", 1)
            history = "checkpointed"
        print(f"  {sid:<12} {worker:<22} {attempts:>8}  {history}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.server import AdmissionServer
    from .service.state import ServiceState

    state = ServiceState(args.processors, cache_capacity=args.cache)
    server = AdmissionServer(state, args.host, args.port,
                             max_batch=args.max_batch,
                             max_pending=args.max_pending)

    async def run() -> None:
        host, port = await server.start()
        print(f"admission service on {host}:{port} "
              f"({args.processors} processors, quantum "
              f"{state.model.quantum} ticks); protocol: docs/SERVICE.md",
              file=sys.stderr)
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; draining connections", file=sys.stderr)
    return 0


def _service_client(args: argparse.Namespace) -> "AdmissionClient":
    from .service.client import AdmissionClient

    return AdmissionClient(args.host, args.port, timeout=args.timeout)


def _cmd_admit(args: argparse.Namespace) -> int:
    from .service.client import ServiceResponseError
    from .workload.io import load_task_set

    if args.file:
        try:
            specs = load_task_set(args.file)
        except (OSError, ValueError) as exc:
            print(f"admit: {exc}", file=sys.stderr)
            return 2
        tasks = [{"name": s.name, "execution": s.execution,
                  "period": s.period, "cache_delay": s.cache_delay,
                  "deadline": s.deadline} for s in specs]
    elif args.weights:
        # Weights are quanta; the service speaks ticks.  Names carry the
        # PID so repeated invocations don't collide in the live system.
        import os

        q = 1000
        tasks = [{"name": f"cli{os.getpid()}-{i}",
                  "execution": e * q, "period": p * q}
                 for i, (e, p) in enumerate(args.weights)]
    else:
        print("give weights or --file", file=sys.stderr)
        return 2
    try:
        with _service_client(args) as client:
            r = client.admit(tasks, dry_run=args.dry_run)
    except (ConnectionError, OSError, ServiceResponseError) as exc:
        # Exit 1 means "rejected"; an unreachable server or a service
        # error is neither an answer nor a usage error.
        print(f"admit failed: {exc}", file=sys.stderr)
        return 3
    verdict = "ADMITTED" if r["admitted"] else "REJECTED"
    if args.dry_run:
        verdict += " (dry run)"
    a = r["analysis"]
    print(f"{verdict}: {len(tasks)} tasks, requested weight "
          f"{r['requested_weight']}")
    print(f"  live system: committed {r['committed_weight']} of "
          f"{r['capacity']} processors (Eq. (2) "
          f"{'holds' if r['feasible'] else 'violated'})")
    print(f"  min processors if scheduled alone: PD² {a['m_pd2']}, "
          f"EDF-FF {a['m_edf_ff']}"
          f"{'   [cached]' if a['cached'] else ''}")
    return 0 if r["admitted"] else 1


def _cmd_svc_stats(args: argparse.Namespace) -> int:
    import json as _json

    try:
        with _service_client(args) as client:
            r = client.stats()
    except (ConnectionError, OSError) as exc:
        print(f"stats failed: {exc}", file=sys.stderr)
        return 1
    print(_json.dumps({"metrics": r["metrics"], "cache": r["cache"],
                       "system": r["system"]}, indent=2))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .staticcheck.cli import main as staticcheck_main

    return staticcheck_main(list(getattr(args, "lint_args", []) or []))


def _add_campaign_commands(sub: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    p = sub.add_parser(
        "campaign",
        help="fault-tolerant campaigns: checkpointed shards in a run "
             "directory (docs/CAMPAIGNS.md)")
    csub = p.add_subparsers(dest="campaign_command", required=True)

    def dispatch_opts(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("--jobs", "-j", dest="jobs", type=_positive_int,
                        default=None, metavar="N",
                        help="local worker processes (results are "
                             "byte-identical to the serial run); with "
                             "--workers NODES the local pool joins the "
                             "fleet as one more node of N slots")
        cp.add_argument("--workers", dest="workers", type=_worker_nodes,
                        default=None, metavar="NODES",
                        help="host1:port,host2:port — farm shards out to "
                             "these `repro worker --serve` nodes "
                             "(docs/DISTRIBUTED.md)")
        cp.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-shard deadline; a late shard is "
                             "resubmitted (parallel runs only; in "
                             "distributed runs this is the hard lease "
                             "deadline heartbeats cannot extend)")
        cp.add_argument("--lease-timeout", type=float, default=15.0,
                        metavar="SECONDS",
                        help="distributed runs: soft per-shard lease "
                             "deadline, extended by worker heartbeats "
                             "(default 15)")
        cp.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retry budget per shard for errors/timeouts "
                             "(worker deaths are recovered unbudgeted)")
        cp.add_argument("--fig", type=int, choices=(3, 4), default=3,
                        help="which table to print from the finished rows")

    cp = csub.add_parser("run", help="start a checkpointed campaign")
    cp.add_argument("run_dir", help="run directory (created if missing)")
    cp.add_argument("--tasks", type=int, default=50)
    cp.add_argument("--points", type=int, default=8)
    cp.add_argument("--sets", type=int, default=15)
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--replicas", type=int, default=1,
                    help="shards per grid point (finer checkpoints and "
                         "more parallelism; changes the sampling split)")
    cp.add_argument("--trace", default=None, metavar="LOG.swf",
                    help="replay a Standard Workload Format log instead "
                         "of synthetic task sets: windows of real jobs "
                         "become the task pools (docs/TRACES.md)")
    cp.add_argument("--window", type=int, default=3600, metavar="SECONDS",
                    help="trace window width (default 3600)")
    cp.add_argument("--windows", type=int, default=1, metavar="N",
                    help="number of consecutive trace windows to replay")
    cp.add_argument("--window-offset", type=int, default=0,
                    metavar="SECONDS",
                    help="offset of the first window from the earliest "
                         "submit in the log")
    cp.add_argument("--policy", choices=MAPPING_POLICY_CHOICES,
                    default="runtime",
                    help="job-to-task mapping policy: periods from "
                         "runtimes or from inter-arrival gaps "
                         "(docs/TRACES.md)")
    dispatch_opts(cp)
    cp.set_defaults(fn=_cmd_campaign_run)

    cp = csub.add_parser(
        "resume",
        help="finish an interrupted campaign (grid comes from the "
             "manifest; completed shards are skipped byte-for-byte)")
    cp.add_argument("run_dir", help="existing run directory")
    cp.add_argument("--trace", default=None, metavar="LOG.swf",
                    help="the original SWF log of a trace-replay run "
                         "(required to resume one; the manifest pins its "
                         "SHA-256)")
    dispatch_opts(cp)
    cp.set_defaults(fn=_cmd_campaign_resume)

    cp = csub.add_parser("status",
                         help="report a run's shard progress, retries, "
                              "throughput, and per-worker attribution")
    cp.add_argument("run_dir", help="existing run directory")
    cp.add_argument("--shards", action="store_true",
                    help="also print the per-shard table: producing "
                         "node, attempts, lease history")
    cp.set_defaults(fn=_cmd_campaign_status)


def _cmd_traces_info(args: argparse.Namespace) -> int:
    from .traces.mapping import MappingConfig, machine_size, segment_log
    from .traces.swf import SWFError, parse_swf

    try:
        log = parse_swf(args.trace, strict=False)
    except (SWFError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"trace: {log.name}")
    for key, value in log.directives:
        print(f"  ; {key}: {value}" if key else f"  ; {value}")
    print(f"jobs: {len(log.jobs)}")
    print(f"span: {log.span_seconds()} s")
    try:
        procs = machine_size(log, MappingConfig())
        print(f"machine size: {procs} processor(s)")
    except ValueError as exc:
        print(f"machine size: unknown ({exc})")
    windows = segment_log(log, args.window)
    print(f"windows of {args.window} s with jobs: {len(windows)}")
    for offset, jobs in windows:
        print(f"  @{offset:>8}s  {len(jobs)} job(s)")
    return 0


def _cmd_traces_fetch(args: argparse.Namespace) -> int:
    from .traces.fetch import TRACE_REGISTRY, TraceFetchError, fetch_trace

    if args.list:
        for name, source in sorted(TRACE_REGISTRY.items()):
            print(f"{name}: {source.description}\n    {source.url}")
        return 0
    if args.trace is None or args.output is None:
        print("fetch needs TRACE and OUTPUT (or --list)", file=sys.stderr)
        return 2
    try:
        path = fetch_trace(args.trace, args.output, sha256=args.sha256)
    except TraceFetchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"fetched and verified: {path}")
    return 0


def _cmd_traces_convert(args: argparse.Namespace) -> int:
    from .traces.mapping import (MappingConfig, machine_size, map_jobs,
                                 scale_to_utilization, window_jobs)
    from .traces.swf import SWFError, parse_swf
    from .workload.io import save_task_set

    try:
        log = parse_swf(args.trace, strict=False)
    except (SWFError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    config = MappingConfig(policy=args.policy)
    try:
        procs = machine_size(log, config)
        jobs = window_jobs(log, args.window_offset, args.window)
        if not jobs:
            print(f"{log.name}: no jobs in the window "
                  f"[{args.window_offset}, "
                  f"{args.window_offset + args.window}) s", file=sys.stderr)
            return 2
        specs, rejected = map_jobs(jobs, config, max_procs=procs,
                                   on_invalid="skip")
        if not specs:
            print(f"{log.name}: every job in the window was degenerate",
                  file=sys.stderr)
            return 2
        if args.utilization is not None:
            specs = scale_to_utilization(specs, args.utilization)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    for job_id, reason in rejected:
        print(f"skipped: {reason}", file=sys.stderr)
    save_task_set(args.output, specs, quantum=config.quantum)
    total = sum(s.execution / s.period for s in specs)
    print(f"wrote {len(specs)} task(s) (U = {total:.3f}) to {args.output}")
    return 0


def _add_traces_commands(sub: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    p = sub.add_parser(
        "traces",
        help="Standard Workload Format logs: inspect, fetch, convert "
             "(docs/TRACES.md)")
    tsub = p.add_subparsers(dest="traces_command", required=True)

    tp = tsub.add_parser("info", help="parse an SWF log and summarise it")
    tp.add_argument("trace", help="path to the .swf file")
    tp.add_argument("--window", type=int, default=3600, metavar="SECONDS",
                    help="window width for the occupancy summary "
                         "(default 3600)")
    tp.set_defaults(fn=_cmd_traces_info)

    tp = tsub.add_parser(
        "fetch",
        help="download a workload-archive log with mandatory SHA-256 "
             "verification")
    tp.add_argument("trace", nargs="?", default=None,
                    help="registry name (see --list) or a direct URL")
    tp.add_argument("output", nargs="?", default=None,
                    help="destination .swf path")
    tp.add_argument("--sha256", default=None, metavar="HEX",
                    help="expected digest of the decompressed log; "
                         "required — downloads are refused without a "
                         "pinned checksum")
    tp.add_argument("--list", action="store_true",
                    help="print the known trace registry and exit")
    tp.set_defaults(fn=_cmd_traces_fetch)

    tp = tsub.add_parser(
        "convert",
        help="map one trace window to a task-set JSON file "
             "(usable with `repro compare --file`)")
    tp.add_argument("trace", help="path to the .swf file")
    tp.add_argument("output", help="task-set JSON output path")
    tp.add_argument("--window", type=int, default=3600, metavar="SECONDS",
                    help="window width (default 3600)")
    tp.add_argument("--window-offset", type=int, default=0,
                    metavar="SECONDS",
                    help="offset from the earliest submit (default 0)")
    tp.add_argument("--policy", choices=MAPPING_POLICY_CHOICES,
                    default="runtime",
                    help="job-to-task mapping policy (docs/TRACES.md)")
    tp.add_argument("--utilization", type=float, default=None, metavar="U",
                    help="rescale execution costs to this total "
                         "utilization (periods keep the trace's shape)")
    tp.set_defaults(fn=_cmd_traces_convert)


def _cmd_worker(args: argparse.Namespace) -> int:
    from .distrib import WorkerServer

    server = WorkerServer(args.host, args.port, jobs=args.jobs,
                          heartbeat_interval=args.heartbeat)
    host, port = server.start()
    print(f"worker node on {host}:{port} ({args.jobs} pool job(s), "
          f"heartbeat {args.heartbeat}s); protocol: docs/DISTRIBUTED.md",
          file=sys.stderr)
    try:
        server.wait()
        print("shutdown requested; draining", file=sys.stderr)
    except KeyboardInterrupt:
        print("interrupted; closing connections (in-flight shards are "
              "abandoned — the coordinator re-leases them)",
              file=sys.stderr)
    finally:
        server.stop()
    return 0


def _add_worker_command(sub: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    p = sub.add_parser(
        "worker",
        help="run a shard-evaluation worker node for distributed "
             "campaigns (docs/DISTRIBUTED.md)")
    p.add_argument("--serve", action="store_true", required=True,
                   help="serve shard-run requests until shutdown "
                        "(explicit, so a bare `repro worker` cannot "
                        "silently open a port)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7012,
                   help="listen port (default 7012); 0 picks an "
                        "ephemeral one")
    p.add_argument("--jobs", "-j", type=_positive_int, default=1,
                   metavar="N",
                   help="pool processes = shards evaluated concurrently")
    p.add_argument("--heartbeat", type=float, default=1.0,
                   metavar="SECONDS",
                   help="liveness frame interval while a shard computes")
    p.set_defaults(fn=_cmd_worker)


def _add_service_commands(sub: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=7011,
                       help="service port (default 7011)")
        p.add_argument("--timeout", type=float, default=30.0,
                       help="client socket timeout in seconds")

    p = sub.add_parser("serve",
                       help="run the admission-control service "
                            "(JSON lines over TCP)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7011,
                   help="listen port; 0 picks an ephemeral one")
    p.add_argument("--processors", type=int, default=4,
                   help="live system size M for Eq. (2) admission")
    p.add_argument("--cache", type=int, default=1024,
                   help="LRU analysis-cache capacity")
    p.add_argument("--max-batch", type=int, default=64,
                   help="max pipelined requests answered per write")
    p.add_argument("--max-pending", type=int, default=256,
                   help="per-connection backpressure high-water mark")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("admit",
                       help="ask a running service to admit a task set")
    p.add_argument("weights", type=_parse_weight, nargs="*",
                   help="weights E/P in 1 ms quanta")
    p.add_argument("--file", default=None,
                   help="task-set JSON file (see repro.workload.io)")
    p.add_argument("--dry-run", action="store_true",
                   help="decide but do not join the live system")
    common(p)
    p.set_defaults(fn=_cmd_admit)

    p = sub.add_parser("svc-stats",
                       help="print a running service's metrics as JSON")
    common(p)
    p.set_defaults(fn=_cmd_svc_stats)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'The Case for Fair Multiprocessor "
                    "Scheduling' — Pfair/PD² vs EDF-FF.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("windows", help="print Pfair windows of a weight")
    p.add_argument("weight", type=_parse_weight, help="weight E/P (quanta)")
    p.add_argument("--subtasks", type=_count_or_default, default=0,
                   help="how many subtasks (default: two jobs)")
    p.set_defaults(fn=_cmd_windows)

    p = sub.add_parser("schedule", help="run PD² on a task set")
    p.add_argument("weights", type=_parse_weight, nargs="+",
                   help="weights E/P (quanta)")
    p.add_argument("--processors", type=_count_or_default, default=0,
                   help="processor count (default: ceil of total weight)")
    p.add_argument("--horizon", type=_count_or_default, default=0,
                   help="slots to simulate (default: 2 hyperperiods, <= 200)")
    p.add_argument("--no-fastpath", action="store_true",
                   help="force the reference simulator (disable the "
                        "struct-of-arrays PD² kernel)")
    p.add_argument("--width", type=_positive_int, default=60,
                   help="columns of schedule to print")
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("compare",
                       help="min processors: PD² vs EDF-FF with overheads")
    p.add_argument("weights", type=_parse_weight, nargs="*",
                   help="weights E/P in 1 ms quanta")
    p.add_argument("--file", default=None,
                   help="task-set JSON file (see repro.workload.io)")
    p.add_argument("--cache-delay", type=int, default=33,
                   help="per-task D(T) in µs (default 33)")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("generate", help="write a random task-set JSON file")
    p.add_argument("output", help="output path")
    p.add_argument("--tasks", type=int, default=50)
    p.add_argument("--utilization", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("fig1", help="reproduce Fig. 1 (windows)")
    p.set_defaults(fn=_cmd_fig1)

    p = sub.add_parser("fig5", help="reproduce Fig. 5 (supertasking)")
    p.add_argument("--horizon", type=int, default=900)
    p.set_defaults(fn=_cmd_fig5)

    for name, fn in (("fig3", _cmd_fig3), ("fig4", _cmd_fig4)):
        p = sub.add_parser(name, help=f"run a scaled {name} campaign")
        p.add_argument("--tasks", type=int, default=50)
        p.add_argument("--points", type=int, default=8)
        p.add_argument("--sets", type=int, default=15)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", "-j", dest="jobs",
                       type=_positive_int, default=1, metavar="N",
                       help="worker processes for the campaign grid "
                            "(ProcessPoolExecutor; results are "
                            "byte-identical to the serial run)")
        p.add_argument("--save", default=None,
                       help="write the campaign rows to this JSON file")
        p.set_defaults(fn=fn)

    _add_campaign_commands(sub)
    _add_traces_commands(sub)
    _add_worker_command(sub)
    _add_service_commands(sub)

    # ``repro lint`` is normally handled before argparse in :func:`main`
    # so that staticcheck's own options pass through verbatim; the
    # REMAINDER + ``fn`` default keep the argparse path working too
    # (programmatic ``build_parser().parse_args`` use).
    p = sub.add_parser(
        "lint",
        help="run the repo's AST invariant checker (repro.staticcheck)",
        add_help=False)
    p.add_argument("lint_args", nargs=argparse.REMAINDER,
                   help=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forward verbatim: argparse's REMAINDER cannot pass through
        # option-like tokens (e.g. ``repro lint --list-rules``).
        from .staticcheck.cli import main as staticcheck_main

        return staticcheck_main(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        # The campaign runner has already written its final status,
        # checkpointed every finished shard and shut its pool down.
        print("interrupted (completed shards remain checkpointed — "
              "`repro campaign resume` continues)", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
