"""Module-level fault-injecting workers for campaign engine tests.

The process pool pickles workers by qualified name, so anything the
engine dispatches must live at module level — lambdas and closures
defined inside a test cannot cross the fork boundary.  Fault state is
carried out-of-band:

* generic jobs (the :func:`~repro.campaign.runner.dispatch_jobs` tests)
  embed a *fuse file* path in their payload — the first attempt creates
  the fuse and misbehaves, later attempts see it and succeed, giving a
  deterministic fail-once schedule that works across processes;
* shard workers (the :class:`~repro.campaign.runner.CampaignRunner`
  and worker-node tests) select their victim via environment variables,
  inherited by pool workers at fork time (tests rebuild the warm pool
  after setting them, see ``discard_worker_pool``); the die-once
  worker keys its fuse file by shard id.
"""

import os
import time

from repro.campaign.sched import evaluate_shard

__all__ = [
    "FAIL_SHARD_ENV",
    "DIE_SHARD_ENV",
    "FUSE_DIR_ENV",
    "SLOW_SECONDS_ENV",
    "flaky_job",
    "exit_job",
    "sleep_job",
    "failing_shard",
    "failing_trace_shard",
    "dying_shard",
    "dying_once_shard",
    "slow_shard",
]

#: Shard id that :func:`failing_shard` raises on (every attempt).
FAIL_SHARD_ENV = "REPRO_TEST_FAIL_SHARD"
#: Shard id that :func:`dying_shard` kills its worker process on.
DIE_SHARD_ENV = "REPRO_TEST_DIE_SHARD"
#: Directory for the env-selected workers' fuse files.
FUSE_DIR_ENV = "REPRO_TEST_FUSE_DIR"
#: Seconds :func:`slow_shard` sleeps before evaluating (every shard).
SLOW_SECONDS_ENV = "REPRO_TEST_SLOW_SECONDS"


def flaky_job(payload):
    """Raise until ``payload['fuse']`` exists, then return
    ``payload['value']`` — fails exactly once per fuse path."""
    if not os.path.exists(payload["fuse"]):
        open(payload["fuse"], "w").close()
        raise RuntimeError("injected job failure")
    return payload["value"]


def exit_job(payload):
    """Kill the worker process (``os._exit``) on the first attempt —
    the pool sees ``BrokenProcessPool`` — then succeed."""
    if not os.path.exists(payload["fuse"]):
        open(payload["fuse"], "w").close()
        os._exit(1)
    return payload["value"]


def sleep_job(payload):
    """Sleep past any reasonable shard timeout on the first attempt,
    then return promptly."""
    if not os.path.exists(payload["fuse"]):
        open(payload["fuse"], "w").close()
        time.sleep(payload["sleep"])
    return payload["value"]


def failing_shard(args):
    """Shard evaluator that raises on the env-selected shard, every
    attempt — drives a run into :class:`CampaignIncomplete` while the
    other shards checkpoint normally."""
    spec, _model = args
    if spec.shard_id == os.environ.get(FAIL_SHARD_ENV):
        raise RuntimeError(f"injected failure for {spec.shard_id}")
    return evaluate_shard(args)


def failing_trace_shard(args):
    """Trace-shard evaluator (3-tuple args: spec, model, payload) that
    raises on the env-selected shard, every attempt — the trace twin of
    :func:`failing_shard` for the crash/resume byte-identity test."""
    from repro.traces.replay import evaluate_trace_shard

    spec, _model, _payload = args
    if spec.shard_id == os.environ.get(FAIL_SHARD_ENV):
        raise RuntimeError(f"injected failure for {spec.shard_id}")
    return evaluate_trace_shard(args)


def dying_shard(args):
    """Shard evaluator whose worker process dies on the env-selected
    shard, every attempt — exhausts the pool-rebuild budget so the run
    ends incomplete with the innocent shards checkpointed."""
    spec, _model = args
    if spec.shard_id == os.environ.get(DIE_SHARD_ENV):
        os._exit(1)
    return evaluate_shard(args)


def dying_once_shard(args):
    """Shard evaluator whose worker process dies on the env-selected
    shard's first attempt only, then evaluates normally.

    The fuse is a file named after the shard id in ``FUSE_DIR_ENV``, so
    the schedule holds across pool processes and worker nodes: whichever
    node runs the victim first loses its pool worker once, and every
    later attempt succeeds."""
    spec, _model = args
    if spec.shard_id == os.environ.get(DIE_SHARD_ENV):
        fuse = os.path.join(os.environ[FUSE_DIR_ENV], spec.shard_id)
        if not os.path.exists(fuse):
            open(fuse, "w").close()
            os._exit(1)
    return evaluate_shard(args)


def slow_shard(args):
    """Shard evaluator that stalls every shard by ``SLOW_SECONDS_ENV``
    seconds before producing the normal deterministic points.

    The distributed tests plug this into a :class:`~repro.distrib.worker.
    WorkerServer` whose heartbeat interval exceeds the coordinator's
    lease timeout: every lease expires and is re-leased while the slow
    attempt still runs, so its eventual result arrives as a *late
    duplicate* — exercising accept-first/discard-duplicate without
    changing what any shard computes."""
    time.sleep(float(os.environ.get(SLOW_SECONDS_ENV, "0")))
    return evaluate_shard(args)
