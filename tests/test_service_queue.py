"""Fair-share scheduling in the compile service's task queue."""

import pytest

from repro.driver.function_master import FunctionTask
from repro.service.queue import (
    PRIORITY_CLASSES,
    FairShareQueue,
    priority_index,
)


def _task(section, function, cost=1.0):
    return FunctionTask(section, function, "", [], cost_hint=cost)


def _names(wave):
    return [(q.job_id, q.task.function_name) for q in wave]


class TestPriorityIndex:
    def test_ranks_every_class(self):
        assert [priority_index(p) for p in PRIORITY_CLASSES] == [0, 1, 2]

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown priority"):
            priority_index("urgent")


class TestFairShare:
    def test_task_cost_is_its_hint_floored_at_min_cost(self):
        def queued_cost(hint):
            queue = FairShareQueue()
            queue.enqueue("j", "t", 1, [FunctionTask("s", "f", "", [], hint)])
            return queue.next_wave(1)[0].cost

        assert queued_cost(5.0) == 5.0
        assert queued_cost(9.0) == 9.0
        assert queued_cost(0.0) == 1.0  # the min_cost floor

    def test_single_job_is_fifo(self):
        q = FairShareQueue()
        q.enqueue("j1", "a", 1, [_task("s", f"f{i}") for i in range(4)])
        wave = q.next_wave(10)
        assert [t.task.function_name for t in wave] == ["f0", "f1", "f2", "f3"]
        assert not q.has_pending()

    def test_small_tenant_not_starved_by_huge_job(self):
        """The headline property: a tiny job's tasks land in the very
        first wave even when a huge job from another tenant arrived
        first with far more work."""
        q = FairShareQueue()
        q.enqueue(
            "huge", "a", 1,
            [_task("s", f"big{i}", cost=50.0) for i in range(10)],
        )
        q.enqueue("tiny", "b", 1, [_task("t", "t0"), _task("t", "t1")])
        wave = q.next_wave(4)
        jobs = [t.job_id for t in wave]
        # both tiny tasks dispatched in the first wave of four
        assert jobs.count("tiny") == 2
        # and the huge job is not locked out either
        assert jobs.count("huge") == 2

    def test_huge_job_cannot_monopolize_any_wave(self):
        q = FairShareQueue()
        q.enqueue(
            "huge", "a", 1,
            [_task("s", f"big{i}", cost=20.0) for i in range(20)],
        )
        q.enqueue(
            "small", "b", 1,
            [_task("t", f"sm{i}", cost=1.0) for i in range(20)],
        )
        # cost-weighted stride: each huge task (cost 20) pushes the huge
        # tenant 20 units of virtual time ahead, so while small work is
        # pending the huge job can never take two consecutive slots
        order = []
        while q.has_pending():
            order.extend(t.job_id for t in q.next_wave(8))
        small_left = order.count("small")
        for current, following in zip(order, order[1:]):
            small_left -= current == "small"
            if current == "huge" and small_left > 0:
                assert following == "small"

    def test_weighted_tenants_split_proportionally(self):
        q = FairShareQueue(tenant_weights={"a": 3.0, "b": 1.0})
        q.enqueue("ja", "a", 1, [_task("s", f"a{i}") for i in range(12)])
        q.enqueue("jb", "b", 1, [_task("t", f"b{i}") for i in range(12)])
        wave = q.next_wave(8)
        jobs = [t.job_id for t in wave]
        assert jobs.count("ja") == 6
        assert jobs.count("jb") == 2

    def test_within_tenant_small_job_overtakes(self):
        """The per-job second level: one tenant's tiny job overtakes
        the same tenant's huge job."""
        q = FairShareQueue()
        q.enqueue(
            "huge", "a", 1,
            [_task("s", f"big{i}", cost=30.0) for i in range(6)],
        )
        q.enqueue("tiny", "a", 1, [_task("t", "t0", cost=1.0)])
        first = q.next_wave(1)[0]
        second = q.next_wave(1)[0]
        # huge was first in line, but right after its first task the
        # tiny job's lower job-vtime wins the slot
        assert first.job_id == "huge"
        assert second.job_id == "tiny"

    def test_strict_priority_preempts_fair_share(self):
        q = FairShareQueue()
        q.enqueue("batch", "a", priority_index("batch"),
                  [_task("s", f"f{i}") for i in range(3)])
        q.enqueue("inter", "b", priority_index("interactive"),
                  [_task("t", "t0")])
        wave = q.next_wave(2)
        assert _names(wave)[0] == ("inter", "t0")

    def test_dispatch_order_is_deterministic(self):
        def build():
            q = FairShareQueue(tenant_weights={"a": 2.0})
            q.enqueue("j1", "a", 1,
                      [_task("s", f"x{i}", cost=3.0) for i in range(5)])
            q.enqueue("j2", "b", 1,
                      [_task("t", f"y{i}", cost=1.0) for i in range(5)])
            q.enqueue("j3", "b", 0, [_task("u", "z0")])
            order = []
            while q.has_pending():
                order.extend(_names(q.next_wave(3)))
            return order

        assert build() == build()

    def test_result_key_collision_defers_whole_job(self):
        """Two jobs compiling the same (section, function): one wave
        never carries both (the pool routes results by that key)."""
        q = FairShareQueue()
        q.enqueue("j1", "a", 1, [_task("s", "main")])
        q.enqueue("j2", "b", 1, [_task("s", "main")])
        first = q.next_wave(8)
        second = q.next_wave(8)
        assert len(first) == 1 and len(second) == 1
        assert {first[0].job_id, second[0].job_id} == {"j1", "j2"}

    def test_idle_tenant_reactivates_at_floor(self):
        """A tenant that was idle while others ran does not bank
        credit: on re-activation it shares from *now* instead of
        monopolizing until its vtime catches up — and it is not
        punished for having been idle either."""
        q = FairShareQueue()
        q.enqueue("ja", "a", 1,
                  [_task("s", f"a{i}", cost=10.0) for i in range(4)])
        q.next_wave(4)  # tenant a's vtime is now 40
        q.enqueue("ja2", "a", 1, [_task("s", "a4", cost=10.0)])
        q.enqueue("jb", "b", 1,
                  [_task("t", f"b{i}", cost=10.0) for i in range(2)])
        wave = q.next_wave(3)
        jobs = [t.job_id for t in wave]
        # b activates at the floor (a's 40), so they alternate instead
        # of b draining everything first
        assert jobs.count("jb") == 2
        assert jobs.count("ja2") == 1

    def test_discard_job_drops_pending_tasks(self):
        q = FairShareQueue()
        q.enqueue("j1", "a", 1, [_task("s", f"f{i}") for i in range(3)])
        q.enqueue("j2", "b", 1, [_task("t", "g")])
        assert q.pending_tasks() == 4
        assert q.discard_job("j1") == 3
        assert q.pending_tasks() == 1
        assert q.discard_job("j2") == 1
        assert not q.has_pending()
        assert q.discard_job("j1") == 0

    def test_cost_floor_applies(self):
        q = FairShareQueue()
        q.min_cost = 2.0
        q.enqueue("j1", "a", 1, [_task("s", "f", cost=0.001)])
        assert q.next_wave(1)[0].cost == 2.0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            FairShareQueue(tenant_weights={"a": 0.0})
        with pytest.raises(ValueError):
            FairShareQueue(tenant_weights={"a": 1.0, "b": -1.0})


class TestResultKeys:
    def test_function_task_has_one_key(self):
        """A queued task routes by its task's key — its result's key."""
        q = FairShareQueue()
        q.enqueue("j1", "a", 1, [_task("s", "main")])
        (queued,) = q.next_wave(4)
        assert queued.task.key == ("s", "main")


class ReferenceQueue:
    """The queue as it was before it forgot idle tenants: every tenant
    ever seen keeps its virtual time.  Kept verbatim (less docstrings
    and the lock) as the oracle the forgetting queue must equal."""

    default_weight = 1.0
    min_cost = 1.0

    def __init__(self, tenant_weights=None):
        from collections import OrderedDict

        self._weights = dict(tenant_weights or {})
        self._jobs = OrderedDict()
        self._tenant_vtime = {}
        self._vfloor = 0.0
        self._seq = 0
        self.dispatched = 0

    def enqueue(self, job_id, tenant, priority, tasks):
        from collections import deque
        from types import SimpleNamespace

        from repro.service.queue import QueuedTask

        job = self._jobs.get(job_id)
        if job is None:
            tenant_vtime = max(
                self._tenant_vtime.get(tenant, 0.0), self._vfloor
            )
            self._tenant_vtime[tenant] = tenant_vtime
            job = SimpleNamespace(
                tenant=tenant, priority=priority, seq=self._seq,
                vtime=tenant_vtime, tasks=deque(),
            )
            self._jobs[job_id] = job
        count = 0
        for task in tasks:
            job.tasks.append(
                QueuedTask(
                    job_id=job_id, tenant=tenant, priority=priority,
                    task=task, cost=max(float(task.cost_hint), self.min_cost),
                    seq=self._seq,
                )
            )
            self._seq += 1
            count += 1
        if not job.tasks:
            del self._jobs[job_id]
        return count

    def next_wave(self, max_tasks):
        wave, used_keys, blocked = [], set(), set()
        while len(wave) < max_tasks:
            choice = self._select(blocked)
            if choice is None:
                break
            job_id, job = choice
            head = job.tasks[0]
            if head.task.key in used_keys:
                blocked.add(job_id)
                continue
            job.tasks.popleft()
            wave.append(head)
            used_keys.add(head.task.key)
            weight = self._weights.get(job.tenant, self.default_weight)
            self._vfloor = self._tenant_vtime[job.tenant]
            self._tenant_vtime[job.tenant] += head.cost / weight
            job.vtime += head.cost
            self.dispatched += 1
            if not job.tasks:
                del self._jobs[job_id]
        return wave

    def _select(self, blocked):
        best_priority = None
        for job_id, job in self._jobs.items():
            if job_id in blocked or not job.tasks:
                continue
            if best_priority is None or job.priority < best_priority:
                best_priority = job.priority
        if best_priority is None:
            return None
        chosen = chosen_rank = None
        for job_id, job in self._jobs.items():
            if job_id in blocked or not job.tasks or job.priority != best_priority:
                continue
            rank = (self._tenant_vtime[job.tenant], job.tenant, job.vtime, job.seq)
            if chosen_rank is None or rank < chosen_rank:
                chosen, chosen_rank = (job_id, job), rank
        return chosen

    def discard_job(self, job_id):
        job = self._jobs.pop(job_id, None)
        return 0 if job is None else len(job.tasks)


class TestForgetIdleTenants:
    """An idle tenant at or under every queued tenant's vtime and the
    floor is forgotten, and forgetting changes no dispatch."""

    def test_ten_thousand_drained_tenants_leave_at_most_two_entries(self):
        q = FairShareQueue()
        dispatched = 0
        for n in range(10_000):
            q.enqueue(
                f"j{n}", f"tenant{n}", n % len(PRIORITY_CLASSES),
                [_task("s", f"f{i}", cost=1.0 + i) for i in range(3)],
            )
            while q.has_pending():
                dispatched += len(q.next_wave(2))
        assert dispatched == 30_000
        assert len(q._tenant_vtime) <= 2

    @staticmethod
    def _history(seed):
        """One seeded mix of enqueues, waves and cancellations over
        every priority class; yields (operation, arguments)."""
        import random

        rng = random.Random(seed)
        tenants = [f"t{i}" for i in range(rng.randint(2, 7))]
        jobs = []
        for step in range(rng.randint(20, 80)):
            roll = rng.random()
            if roll < 0.45 or not jobs:
                job_id = (
                    rng.choice(jobs) if jobs and rng.random() < 0.1
                    else f"j{step}"
                )
                tenant = rng.choice(tenants)
                tasks = [
                    _task(
                        rng.choice("st"), f"f{rng.randint(0, 5)}",
                        cost=rng.choice((0.5, 1.0, 3.0, rng.uniform(0, 40))),
                    )
                    for _ in range(rng.randint(0, 5))
                ]
                if job_id not in jobs:
                    jobs.append(job_id)
                yield "enqueue", (job_id, tenant, rng.randint(0, 2), tasks)
            elif roll < 0.9:
                yield "next_wave", (rng.randint(1, 6),)
            else:
                yield "discard_job", (rng.choice(jobs),)

    def _replay(self, seed):
        """Replay history ``seed`` on both queues, asserting every
        wave and cancellation agrees; returns the most tenants the
        forgetting queue was ever short of the reference's."""
        weights = {"t0": 2.0, "t1": 0.5} if seed % 3 == 0 else None
        queue, reference = FairShareQueue(weights), ReferenceQueue(weights)
        forgotten = 0
        for operation, args in self._history(seed):
            if operation == "enqueue":
                job_id, tenant = args[:2]
                owner = reference._jobs.get(job_id)
                if owner is not None and owner.tenant != tenant:
                    continue  # refused by the queue; not a history
            got = getattr(queue, operation)(*args)
            want = getattr(reference, operation)(*args)
            if operation == "next_wave":
                got, want = _names(got), _names(want)
            assert got == want, f"seed {seed}: {operation}{args}"
            forgotten = max(
                forgotten,
                len(reference._tenant_vtime) - len(queue._tenant_vtime),
            )
        while reference._jobs:
            assert _names(queue.next_wave(4)) == _names(
                reference.next_wave(4)
            ), f"seed {seed}: drain"
        return forgotten

    def test_two_hundred_seeded_histories_dispatch_as_the_reference(self):
        for seed in range(200):
            self._replay(seed)

    def test_the_histories_forget_tenants(self):
        assert any(self._replay(seed) for seed in range(20))
