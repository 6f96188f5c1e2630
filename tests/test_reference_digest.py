"""Frozen decisions of the reference quantum simulator.

:class:`~repro.core.quantum.QuantumSimulator` is the engine every
policy (PD², PD, PF, EPDF), every dynamic system and the admission
service run on.  The vector kernel runs only PD² over strictly periodic
tasks with ``on_miss='record'`` and ``preserve_affinity=True``, so the
vector/reference differential suite cannot pin the other policies,
sporadic and IS stalls, ``last_subtask`` leaves, ``capacity_fn``,
``preserve_affinity=False`` or ``on_miss='raise'``.  This battery does,
with per-task early release, phases and traces alongside: each case
drives a seeded system slot by slot through
:meth:`~repro.core.quantum.QuantumSimulator.step` and hashes every
allocation ``(slot, processor, task position,
subtask index)`` together with the run's :class:`~repro.core.metrics.
SimStats` (per-task counters, ``job_preemptions``, misses in order,
busy/idle quanta) and the last-scheduled index per task.

The digests were recorded from the straightforward per-slot engine
(drain arrivals, release, pop, assign, activate successors through
``PfairTask.subtask``); any rewrite of the engine must reproduce them
bit for bit.  A change that is *meant* to alter a decision must say so
and re-record them.
"""

import hashlib
import random

import pytest

from repro.core.dynamic import DynamicPfairSystem
from repro.core.priority import (EPDFPriority, PD2Priority, PDPriority,
                                 PFPriority)
from repro.core.quantum import DeadlineMissError, QuantumSimulator
from repro.core.subtask import pseudo_release
from repro.core.task import IntraSporadicTask, PeriodicTask, SporadicTask

POLICIES = {"PD2": PD2Priority, "PD": PDPriority, "PF": PFPriority,
            "EPDF": EPDFPriority}
SEEDS = range(8)


def _weights(rng, n, max_period=12):
    out = []
    for _ in range(n):
        p = rng.randint(2, max_period)
        out.append((rng.randint(1, p), p))
    return out


def _processors(weights, *, overload=False):
    total_num = 0
    # Exact ceil/floor of the summed weight over a common denominator.
    den = 1
    for _, p in weights:
        den *= p
    total_num = sum(e * (den // p) for e, p in weights)
    if overload:
        return max(1, total_num // den - 1)
    return max(1, -(-total_num // den))


def _periodic(rng, *, n=None, phased=False, per_task_er=False,
              overload=False):
    weights = _weights(rng, n if n is not None else rng.randint(2, 7))
    tasks = [PeriodicTask(e, p, task_id=i, name=f"T{i}",
                          phase=rng.choice([0, 0, rng.randint(1, 6)])
                          if phased else 0,
                          early_release=per_task_er and rng.random() < 0.5)
             for i, (e, p) in enumerate(weights)]
    return tasks, _processors(weights, overload=overload), []


def _sporadic_is(rng):
    """Sporadic jobs and IS subtasks fed in by arrival callbacks, so tasks
    stall between arrivals; some IS subtasks are eligible early."""
    tasks, arrivals = [], []
    weights = _weights(rng, rng.randint(3, 6), max_period=8)
    for i, (e, p) in enumerate(weights):
        kind = i % 3
        if kind == 0:
            tasks.append(PeriodicTask(e, p, task_id=i, name=f"P{i}"))
            continue
        if kind == 1:
            task = SporadicTask(e, p, [rng.randint(0, 3)], task_id=i,
                                name=f"S{i}")
            t = task.job_releases[-1]
            for _ in range(rng.randint(2, 6)):
                t += p + rng.choice([0, 0, rng.randint(1, 5)])
                arrivals.append((max(0, t - rng.randint(0, 2)),
                                 lambda task=task, t=t: task.release_job(t)))
        else:
            task = IntraSporadicTask(e, p, [0], task_id=i, name=f"I{i}")
            theta = arrive_at = 0
            for k in range(2, 3 * e + 2):
                theta += rng.choice([0, 0, 0, 1, 2])
                release = pseudo_release(e, p, k) + theta
                early = max(0, release - rng.randint(0, 2)) \
                    if rng.random() < 0.3 else None
                # Calls stay in index order: offsets must not decrease.
                arrive_at = max(arrive_at, release - rng.randint(0, 3))
                arrivals.append(
                    (arrive_at,
                     lambda task=task, theta=theta, early=early:
                     task.arrive(theta, eligible=early)))
        tasks.append(task)
    total = [(e, p) for e, p in weights]
    return tasks, _processors(total), sorted(arrivals, key=lambda a: a[0])


def _leaves(rng, sim_box):
    """Periodic and sporadic tasks that leave mid-run (their stream is
    truncated at the last-scheduled subtask, as a dynamic leave does)."""
    tasks, processors, _ = _periodic(rng, n=rng.randint(3, 6), phased=True)
    sporadic = SporadicTask(1, 4, [2], task_id=len(tasks), name="S")
    tasks.append(sporadic)
    arrivals = [(9, lambda: sporadic.release_job(9))]

    def leave(task):
        def cb():
            sim = sim_box[0]
            task.last_subtask = sim.last_scheduled_index.get(task.task_id, 0)
        return cb

    for task in rng.sample(tasks, k=rng.randint(1, len(tasks) - 1)):
        arrivals.append((rng.randint(1, 40), leave(task)))
    arrivals.append((12, leave(sporadic)))  # leaves while stalled
    return tasks, processors + 1, sorted(arrivals, key=lambda a: a[0])


def _case(kind, policy_name, seed):
    rng = random.Random(f"{kind}/{policy_name}/{seed}")
    sim_box = []
    external = []
    kwargs = {}
    horizon = 120
    if kind == "periodic":
        tasks, m, arrivals = _periodic(rng)
    elif kind == "phased":
        tasks, m, arrivals = _periodic(rng, phased=True)
    elif kind == "early_release":
        tasks, m, arrivals = _periodic(rng, phased=True)
        kwargs["early_release"] = True
    elif kind == "per_task_er":
        tasks, m, arrivals = _periodic(rng, phased=True, per_task_er=True)
    elif kind == "sporadic_is":
        tasks, m, arrivals = _sporadic_is(rng)
        kwargs["early_release"] = rng.random() < 0.5
    elif kind == "sporadic_between_steps":
        # The same arrivals, applied by the driver between two steps
        # instead of by the simulator: a stalled task must still resume.
        tasks, m, external = _sporadic_is(rng)
        arrivals = []
    elif kind == "leaves":
        tasks, m, arrivals = _leaves(rng, sim_box)
    elif kind == "capacity":
        tasks, m, arrivals = _periodic(rng, phased=True)
        m += 1
        drop = rng.randint(1, m)
        kwargs["capacity_fn"] = (
            lambda t, m=m, drop=drop: m - drop if t % 11 in (3, 4, 5) else m)
    elif kind == "trace":
        tasks, m, arrivals = _periodic(rng, phased=True, per_task_er=True)
        kwargs["trace"] = True
    elif kind == "no_affinity":
        tasks, m, arrivals = _periodic(rng, phased=True)
        kwargs["preserve_affinity"] = False
    elif kind == "overload":
        tasks, m, arrivals = _periodic(rng, n=rng.randint(4, 8),
                                       phased=True, overload=True)
    elif kind == "overload_raise":
        tasks, m, arrivals = _periodic(rng, n=rng.randint(4, 8),
                                       overload=True)
        kwargs["on_miss"] = "raise"
    else:  # pragma: no cover - battery typo
        raise ValueError(kind)
    sim = QuantumSimulator(tasks, m, POLICIES[policy_name](),
                           arrivals=arrivals, **kwargs)
    sim_box.append(sim)
    return sim, tasks, horizon, external


def _run(sim, tasks, horizon, external):
    pos = {t.task_id: i for i, t in enumerate(tasks)}
    allocs = []
    raised = None
    external = list(external)
    try:
        for now in range(horizon):
            while external and external[0][0] <= now:
                external.pop(0)[1]()
            for proc, st in sim.step(now):
                allocs.append((now, proc, pos[st.task.task_id], st.index))
        result = sim.finalize(horizon)
    except DeadlineMissError as exc:
        m = exc.miss
        raised = (pos[m.task.task_id], m.subtask_index, m.deadline,
                  m.completed_at)
        result = None
    return _fingerprint(sim, pos, allocs, raised, result)


def _fingerprint(sim, pos, allocs, raised, result):
    stats = sim.stats
    per_task = sorted(
        (pos[tid], ts.quanta, ts.preemptions, ts.migrations,
         sorted(ts.job_preemptions.items()), ts.last_slot, ts.last_proc,
         ts.last_job)
        for tid, ts in stats.per_task.items())
    misses = [(pos[m.task.task_id], m.subtask_index, m.deadline,
               m.completed_at) for m in stats.misses]
    last = sorted((pos[tid], i) for tid, i in sim.last_scheduled_index.items())
    trace = None
    if sim.trace is not None:
        trace = [(a[0], a[1], pos[a[2].task_id], a[3])
                 for a in sim.trace.allocations()]
        assert sorted(trace) == sorted(allocs)
    record = (allocs, per_task, misses, stats.busy_quanta,
              stats.idle_quanta, stats.slots, last, raised, trace,
              result is not None and result.missed)
    return hashlib.sha256(repr(record).encode()).hexdigest()


def case_digest(kind, policy_name):
    """One sha256 over the battery's seeds for ``kind`` under a policy."""
    h = hashlib.sha256()
    for seed in SEEDS:
        h.update(_run(*_case(kind, policy_name, seed)).encode())
    return h.hexdigest()


def dynamic_digest(policy_name):
    """Joins, leaves and (never failing) reweights on a live system."""
    h = hashlib.sha256()
    for seed in SEEDS:
        rng = random.Random(f"dynamic/{policy_name}/{seed}")
        dyn = DynamicPfairSystem(3, policy=POLICIES[policy_name](),
                                 early_release=seed % 2 == 1, trace=True)
        tasks = []
        for _ in range(6):
            (e, p), = _weights(rng, 1)
            task = PeriodicTask(e, p, phase=dyn.now, name=f"J{len(tasks)}")
            if dyn.try_join(task):
                tasks.append(task)
            dyn.advance(rng.randint(1, 7))
        for task in rng.sample(tasks, k=len(tasks) // 2):
            if rng.random() < 0.5:
                dyn.request_leave(task)
            else:
                # A lighter replacement always fits in the freed weight.
                e = max(1, task.execution - 1)
                _, new = dyn.reweight(task, e, task.period)
                tasks.append(new)
            dyn.advance(rng.randint(1, 9))
        dyn.advance(40)
        sim = dyn.sim
        pos = {t.task_id: i for i, t in enumerate(tasks)}
        allocs = [(a[0], a[1], pos[a[2].task_id], a[3])
                  for a in sim.trace.allocations()]
        h.update(_fingerprint(sim, pos, allocs, None,
                              dyn.finish()).encode())
        h.update(repr((dyn.now, str(dyn.committed_weight()))).encode())
    return h.hexdigest()


KINDS = ("periodic", "phased", "early_release", "per_task_er",
         "sporadic_is", "sporadic_between_steps", "leaves", "capacity", "trace", "no_affinity",
         "overload", "overload_raise")

EXPECTED = {
    "EPDF/periodic":
        "ea065e4ef1379a4ce0d55175a6dcdb23e2576be582f3908b4633b9cb9ab74f8a",
    "PD/periodic":
        "5d4e8e2479332853363214b0859714925853ae7e3d9bcedb26ed0c05490e4c23",
    "PD2/periodic":
        "c5e96056bacedd9a0366e91286e2f5ed86b1693ecacd57c0bd135263230e13dd",
    "PF/periodic":
        "7b462504331c9dcbff03f32d585339fc95412bded8dabd8db4602f9ab4600e10",
    "EPDF/phased":
        "4a04fc21b8d4253226d762570ec074d03a4e843045fe804b23369773cf06e15c",
    "PD/phased":
        "ac7a198a04f94fbef43302086365467514366a8ff926ac228dd3590ba0d3a6d5",
    "PD2/phased":
        "5043920604c48e01f459f6773825889aaaa0afa7b813832a6c3d94b284625103",
    "PF/phased":
        "b427544967064d21bbc8bc2a9373221e0c77d7873bbdfcfe5660f240c95ce05d",
    "EPDF/early_release":
        "e471cff6236c9ef9a9c1fd900d43f85ef6567552809275135b38228d225ba981",
    "PD/early_release":
        "cc17a7f6d3c7b9514d8c5eaa2da1ca041d07333f5862fd5754920d66b6a9be71",
    "PD2/early_release":
        "975ea711adb9266b99e70c85929cb07e9dbea855055c32ca1a1f96aa05250772",
    "PF/early_release":
        "ccca71997d492247b2e9246fa1f83c3e294e053c9436636d14d71bcfd81769e9",
    "EPDF/per_task_er":
        "33f924510b7cb1e1e17d4e176905024c379f609e5e19dc1b24856fc7a9d6bb13",
    "PD/per_task_er":
        "603c59f9e1ba963bff7e70c5c4048c43feed86b40f914c82ae62abb3af1dd064",
    "PD2/per_task_er":
        "6e2e9188d8286e5f8dcb921eb2d10dbb1b22e4a198f5f7fd81bbca7a516eed6d",
    "PF/per_task_er":
        "b61690e83392b0ae1cb58e6e6e882fd6ce7412a95a848a3a07297e0ec70fab3f",
    "EPDF/sporadic_is":
        "3773779aa336dc8c7bc33365fd9e28d25819b26a321ae9272d8d2b8d07094072",
    "PD/sporadic_is":
        "1e7df1fba77d784595ed83f1653e9899831d56b1b73270dee53a09f30f11b857",
    "PD2/sporadic_is":
        "d60559b205bbbdc7dd76cca67b17a6630a394944913ae98fd284fac9c30a260b",
    "PF/sporadic_is":
        "2639ed875f578630d51d763fe0f2333d6278c9e166eedc5140082282652b1b58",
    "EPDF/sporadic_between_steps":
        "f3e18036c9be8c7d2833e0c47f7aa8d2efa587cedfede2c2e6944541a00b2664",
    "PD/sporadic_between_steps":
        "5d00228bfc6fd6b1c6f2435657e2fee192871007f924cdae0329083d6aba8027",
    "PD2/sporadic_between_steps":
        "8fe9d449c1175657e30f89dd50fd4a742abb5792a01ba32563b7d71c13022b49",
    "PF/sporadic_between_steps":
        "dbc195ba9085519a78352a4c9576ac704959f029393fc78aaacecb7d2e8e92a3",
    "EPDF/leaves":
        "858266516b34f83e2554ec1f38c894462abf8f54483e83aa57267f14853d5b51",
    "PD/leaves":
        "3aaaa40e1ff1118d899758a7bc7d5345d1a68a8bb2b9fcfa15352d7243676359",
    "PD2/leaves":
        "8410bc53f33c985a413ab6065236869592ebbfd4150e9a1b08cda658d155b568",
    "PF/leaves":
        "b9b8f8b42088f2072105d74391342cf80a021595889402b7e86d19d91f22db18",
    "EPDF/capacity":
        "86ec7d52475a209cd8008545524c2971f9fea32a33bc4a3161213a3f9811ef44",
    "PD/capacity":
        "6dd5a60e1a691d70e079d552d2d201e622b5cc3193a8279264064778ea4fbde2",
    "PD2/capacity":
        "4ab2cb035e111620330922556002e4898242033c371c88707f99957591324fad",
    "PF/capacity":
        "6fe324b49db6f68518fecac4dc0ea19040ef43f92869c02a619ceca4b4fee004",
    "EPDF/trace":
        "71470a5fa55ac49f2c497df599f1b99d67228041b783d38ecf891442202e2cfd",
    "PD/trace":
        "9a9e37c21ed19a143554ae58f0b075796653fcb298c3d35d46c61b98a5aee916",
    "PD2/trace":
        "137e2039807abeacdb86798593768a1cd3735d6358833c4b340a25d7899a8f8b",
    "PF/trace":
        "fd0290838b4176a9f819fe4424c0d3113abfa71df7985e12743724ed62c1473b",
    "EPDF/no_affinity":
        "fc4aaab1731218b59e381b7d76a5afac3b56da6e54a0efc28b2f7de3f6c8f49b",
    "PD/no_affinity":
        "76819b4446288c602394c3f9e6e99199c58198d5574b5ff31cf88c5369ec0c03",
    "PD2/no_affinity":
        "595ea48174f681a2307c47dd133aa13a6287eabdbb906306896fec5837e31669",
    "PF/no_affinity":
        "0bed165376e7904bf3113eca35216b75f25f3b203089c5c3ad9e06d0a365dfe9",
    "EPDF/overload":
        "6a75a6298f5dd0e3d663ecd4421065745daf419c26f540565b5577981fc746f9",
    "PD/overload":
        "25baa64cefa6c5c290ff4d62064a08af98f5b03fe6bc3e4c32f0c9a7f00a33f2",
    "PD2/overload":
        "bb087d5ebf01c529b8259bf5586ae624fe08f744eb6b2e00c9ad0f2bf1b40fd9",
    "PF/overload":
        "8697f506fc58f56e70277daccf66324d1e82a47a260c6aaf39ca56da3fb4eef9",
    "EPDF/overload_raise":
        "f53f75a9af674296111d2ae0b41f93de227eed06d03641c9c478b524e0930dd3",
    "PD/overload_raise":
        "d93cfbd459a79f52d7fa97486f851697c1dbe0382ce26298bd0aa5a1d1060ddd",
    "PD2/overload_raise":
        "999be8e4667f1ca74e5e9ce999aabbc85bff0aa1fd18680cda16c8a7c50d4664",
    "PF/overload_raise":
        "0676db42ead9013153e57488d4ac8912b0f751a471d43b69aa42bc2ccfe5dac7",
}

DYNAMIC_EXPECTED = {
    "EPDF": "39c796a75f4f61308b834ca148157e06aa3992ba406dbccf2d3723510e0d7698",
    "PD": "addd352d5983a05553491abb4cbbc01ebf0d12c39b724f9ba4b0346c02661ebe",
    "PD2": "899b5b9537644fdf964b1eb59af1df0f59ee9b4ba574f3842373e819e402066c",
    "PF": "59743693996298c78efe2ddb48859d928f64eed46d44772a1c9cb406b0e47137",
}


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("kind", KINDS)
def test_reference_engine_decisions_frozen(kind, policy_name):
    assert case_digest(kind, policy_name) == EXPECTED[f"{policy_name}/{kind}"]


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
def test_dynamic_system_decisions_frozen(policy_name):
    assert dynamic_digest(policy_name) == DYNAMIC_EXPECTED[policy_name]


def test_battery_exercises_what_it_names():
    """The battery is only a pin if its cases reach the options they
    name: stalls, leaves, capacity drops, misses and a raised miss."""
    for kind in ("sporadic_is", "sporadic_between_steps"):
        sim, tasks, horizon, external = _case(kind, "PD2", 0)
        assert bool(external) == (kind == "sporadic_between_steps")
        stalled_seen = False
        for now in range(horizon):
            while external and external[0][0] <= now:
                external.pop(0)[1]()
            sim.step(now)
            stalled_seen = stalled_seen or bool(sim._stalled)
        assert stalled_seen
        assert all(st.quanta > 3 for st in sim.stats.per_task.values())
    sim, tasks, horizon, _ = _case("leaves", "PD2", 0)
    sim.run(horizon)
    assert any(t.last_subtask is not None for t in tasks)
    sim, tasks, horizon, _ = _case("capacity", "PD2", 0)
    assert min(sim.capacity_fn(t) for t in range(horizon)) < sim.processors
    for seed in SEEDS:
        sim, tasks, horizon, _ = _case("overload", "EPDF", seed)
        if sim.run(horizon).missed:
            break
    else:
        pytest.fail("no overloaded case missed a deadline")
    sim, tasks, horizon, _ = _case("overload_raise", "PD2", 0)
    with pytest.raises(DeadlineMissError):
        sim.run(horizon)
