"""famabpe's most uploads over every activation sequence (ROADMAP item 13).

Before its stop, a famabpe run's uploads depend only on its activations,
gamma, K and M (`reference.replay_uploads`): an agent that downloaded a server
total C uploads once it holds more than floor(gamma C) pulls. So the most
uploads that any activation sequence can produce in a number of rounds is a
search over count states, and the greedy sequence reaches it: keep
activating the agent with the fewest pulls left before its upload. The
search checks the greedy rule on a small grid, the asynchronous driver fed
the greedy sequence sends exactly the greedy uploads, and at reference scale
the greedy count stays inside the paper's deterministic cap.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from fedpex import runner
from fedpex.core import MabInstance, RunConfig
from fedpex.runner import mab_comm_bound, run_famabpe


def greedy(k, m, gamma, rounds):
    """The uploads (agent, pulls), agents 0-based, in `rounds` rounds after
    set-up when every round activates the agent with the fewest pulls left
    before its upload, the lowest index among ties; and the agent next in
    line. Each agent starts from set-up's total K with no pulls held, and the
    chosen one stays the choice until it uploads, so no other agent holds a
    pull: each upload is the agent with the smallest limit, sending limit + 1."""
    num, den = gamma.as_integer_ratio()
    total, limits, uploads, used = k, [num * k // den] * m, [], 0
    while True:
        a = limits.index(min(limits))
        sent = limits[a] + 1
        if used + sent > rounds:
            return uploads, a
        uploads.append((a, sent))
        used, total = used + sent, total + sent
        limits[a] = num * total // den


def most_uploads(k, m, gamma, rounds):
    """The most uploads over every activation sequence, for each number of
    rounds after set-up up to `rounds`: a memoized search over the count
    states, the server total and each agent's (limit, held pulls), the agents
    sorted since they are interchangeable."""
    num, den = gamma.as_integer_ratio()

    @lru_cache(maxsize=None)
    def best(total, agents, r):
        if r == 0:
            return 0
        most = 0
        for i, (limit, held) in enumerate(agents):
            if i and agents[i - 1] == (limit, held):
                continue
            if held + 1 > limit:  # the agent uploads and downloads the new total
                after, state, gain = total + held + 1, (num * (total + held + 1) // den, 0), 1
            else:
                after, state, gain = total, (limit, held + 1), 0
            rest = tuple(sorted(agents[:i] + agents[i + 1 :] + (state,)))
            most = max(most, gain + best(after, rest, r - 1))
        return most

    start = ((num * k // den, 0),) * m
    return [best(k, start, r) for r in range(rounds + 1)]


GRID = [
    (m, k, gamma)
    for m in (1, 2, 3)
    for k in (2, 3, 5)
    for gamma in (Fraction(1, 2 * m * k), Fraction(1, 4), Fraction(1, 2), Fraction(2, 3))
]


@pytest.mark.parametrize("m,k,gamma", GRID, ids=[f"M{m}-K{k}-g{g}" for m, k, g in GRID])
def test_greedy_reaches_the_most_uploads(m, k, gamma):
    rounds = 18 if m == 3 else 25
    most = most_uploads(k, m, gamma, rounds)
    assert [len(greedy(k, m, gamma, r)[0]) for r in range(rounds + 1)] == most
    # the search is not trivial: the warm phase uploads every pull, then fewer
    assert most[rounds] < rounds or gamma == Fraction(1, 2 * m * k)


@pytest.mark.parametrize("m,k", [(1, 5), (3, 5), (10, 5)])
def test_the_driver_sends_the_greedy_uploads(m, k, monkeypatch):
    # a gap of 0.001 at sigma 1 and epsilon 0 runs past the cut
    instance, rounds = MabInstance(means=(0.501, *[0.5] * (k - 1)), sigma=1.0), 20_000
    config = RunConfig(n_agents=m, seed=3, max_rounds=k + rounds)
    gamma = config.resolved(k).gamma
    uploads, next_agent = greedy(k, m, gamma, rounds)
    agents = [a for a, sent in uploads for _ in range(sent)]
    agents += [next_agent] * (rounds - len(agents))  # too few pulls to upload

    class Greedy:
        """The activation source of the driver: the greedy agents and the
        rounds' normals."""

        def __init__(self, policy, n_agents):
            self.t = 0

        def block(self, rng, n):
            t, self.t = self.t, self.t + min(n, 4096)
            return agents[t : self.t], rng.standard_normal(self.t - t).tolist()

    monkeypatch.setattr(runner, "ActivationSchedule", Greedy)
    log = []
    res = run_famabpe(instance, config, audit=True, audit_log=log)
    assert not res.terminated and res.comm_cost == 2 * len(uploads)
    assert [(rec.agent - 1, rec.pulls) for rec in log] == uploads


# the greedy uploads' messages over mab_comm_bound at M=10, K=5, gamma=1/100
SLACK = {10**4: 0.378, 10**5: 0.439, 10**6: 0.481, 10**7: 0.510}


@pytest.mark.parametrize("tau", sorted(SLACK))
def test_the_cap_holds_over_every_activation_sequence(tau):
    m, k, gamma = 10, 5, Fraction(1, 100)
    uploads, _next = greedy(k, m, gamma, tau - k)
    ratio = 2 * len(uploads) / mab_comm_bound(m, gamma, tau)
    assert round(ratio, 3) == SLACK[tau]
