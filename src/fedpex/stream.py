"""The random stream of an asynchronous run after its initialization: the
active agent and the reward noise of every round, drawn per round or in
blocks decoded from the bit generator's raw words, the same stream either
way.
"""

from __future__ import annotations

import numpy as np

from .core import Rng

# PCG64 (O'Neill 2014) steps a 128-bit LCG by this multiplier and outputs the
# XSL-RR of the new state: its high half xor its low half, rotated right by
# its top six bits. A state whose high half is 0 outputs its low half.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_BLOCK_TRIPLETS = 128  # A N N word triplets per uniform block, two rounds each
_LOW32, _LOW9, _LOW52 = np.uint64(0xFFFFFFFF), np.uint64(0x1FF), np.uint64((1 << 52) - 1)
_SHIFT32, _SHIFT9 = np.uint64(32), np.uint64(9)
_ziggurat = None  # numpy's (wi, ki) ziggurat tables, read on first use


class ActivationSchedule:
    """Picks the single active agent for each round t >= K+1, and draws it
    in blocks together with the rounds' reward normals.

    uniform-random draws from the run's rng; round-robin cycles 1..M.
    With one agent the choice is vacuous and consumes no randomness, which
    keeps single-agent reward streams aligned across harnesses.

    A uniform round draws `int(rng.integers(M))`: for M < 2^32 (RunConfig
    refuses more) numpy maps one `next_uint32` word w to (w M) >> 32 and
    redraws while the low 32 bits of w M fall below 2^32 mod M (Lemire's
    nearly-divisionless rejection), which `block` decodes from raw words.
    """

    def __init__(self, policy: str, n_agents: int):
        if policy not in ("uniform-random", "round-robin"):
            raise ValueError(f"unknown activation policy {policy!r}")
        self.policy = policy
        self.n_agents = n_agents
        self._next = 0
        self._threshold = ((1 << 32) - n_agents) % n_agents

    def block(self, rng: Rng, n: int) -> tuple[list, list]:
        """The active agents and standard normals of the next rounds, at most
        n >= 1 of them: byte-identical to the active agent (rng.integers(M)
        for uniform-random over M > 1, the cycle for round-robin, 0 for M = 1)
        followed by rng.standard_normal() in every round, and leaving rng
        where those calls leave it (but for a 32-bit half that numpy has
        marked used, which it never reads). rng must run on PCG64, as
        make_rng's does; on another bit generator each call draws one round.

        A uniform round with M > 1 takes a 32-bit half of a buffered 64-bit
        word and then whole words, so the block decodes raw PCG64 words: from
        an empty buffer they run A N N A N N ..., an A word serving two
        rounds (low half, then high half), and a full buffer puts one round
        first, N A N N .... Rounds are taken up to the first irregular one,
        an activation that redraws or a normal off the ziggurat's fast path;
        that round is drawn per round from its first word by numpy's own calls.
        """
        m = self.n_agents
        if m == 1 or self.policy == "round-robin":
            z = rng.standard_normal(min(n, 2 * _BLOCK_TRIPLETS)).tolist()
            a = self._next
            self._next = (a + len(z)) % m
            return [(a + i) % m for i in range(len(z))], z
        bg = rng.bit_generator
        state = bg.state if isinstance(bg, np.random.PCG64) else None
        buffered = state["has_uint32"] if state else 0
        t = min((n - buffered) // 2, _BLOCK_TRIPLETS)
        if t < 1 or state is None:
            return [int(rng.integers(m))], [rng.standard_normal()]
        words = bg.random_raw(buffered + 3 * t)
        triplets = words[buffered:].reshape(t, 3)
        halves = triplets[:, 0].astype("<u8").view("<u4").astype(np.uint64)
        normal_words = triplets[:, 1:].ravel()
        if buffered:
            halves = np.concatenate((np.array([state["uinteger"]], dtype=np.uint64), halves))
            normal_words = np.concatenate((words[:1], normal_words))
        prods = halves * np.uint64(m)
        normals, regular = _decode_normals(normal_words, _ziggurat_tables())
        if self._threshold:
            regular &= (prods & _LOW32) >= np.uint64(self._threshold)
        r = int(regular.argmin())
        if regular[r]:
            r = len(regular)
        agents, normals = (prods[:r] >> _SHIFT32).tolist(), normals[:r].tolist()
        if r < len(regular):
            # back to round r's first word, which empties the 32-bit buffer; a
            # round that took the buffered half keeps an accepted product, and
            # numpy's redraw of a rejected one reads only the words after it
            k, from_buffer = divmod(r - buffered, 2)
            bg.advance((buffered + 3 * k + 2 * from_buffer - len(words)) % (1 << 128))
            prod = int(prods[r])
            accepted = from_buffer and prod & 0xFFFFFFFF >= self._threshold
            agents.append(prod >> 32 if accepted else int(rng.integers(m)))
            normals.append(rng.standard_normal())
        elif buffered:
            bg.advance(0)  # round 0 took the buffered half; this empties the buffer
        return agents, normals


def _decode_normals(words: np.ndarray, tables) -> tuple[np.ndarray, np.ndarray]:
    """Fast-path standard normals of 64-bit words, and where that path holds.

    numpy's ziggurat splits a word into idx (8 bits), a sign bit and rabs
    (52 bits) and returns rabs * wi[idx], negated on the sign bit, from that
    word alone when rabs < ki[idx]. The tables here are indexed by sign and
    idx together (the low 9 bits), the sign folded into wi: rabs * -w equals
    -(rabs * w) bit for bit, zeros included.
    """
    wi, ki = tables
    idx = (words & _LOW9).view(np.int64)
    rabs = (words >> _SHIFT9) & _LOW52
    return rabs.astype(np.float64) * wi.take(idx), rabs < ki.take(idx)


def _ziggurat_tables():
    global _ziggurat
    if _ziggurat is None:
        _ziggurat = _read_ziggurat()
    return _ziggurat


def _read_ziggurat():
    """numpy's ziggurat tables, read from the running numpy by drawing
    crafted words: a binary search on rabs finds each ki, and rabs = 1 gives
    wi (about 13.5k draws). If the tables fail a check against numpy on
    random words, or cannot be read, ki is 0 everywhere: every round is then
    irregular and drawn per round, which stays exact."""
    bg = np.random.PCG64()
    normal = np.random.Generator(bg).standard_normal
    inverse = pow(_PCG64_MULT, -1, 1 << 128)

    def draw(word: int) -> tuple[float, bool]:
        """numpy's normal from `word`, and whether it took that word alone."""
        # with inc 1, this state steps to state `word`, which outputs `word`
        pre = (word - 1) * inverse % (1 << 128)
        bg.state = {"bit_generator": "PCG64", "state": {"state": pre, "inc": 1}, "has_uint32": 0, "uinteger": 0}
        x = normal()
        return x, bg.state["state"]["state"] == word

    wi, ki = np.zeros(512), np.zeros(512, dtype=np.uint64)
    try:
        for idx in range(256):
            lo, hi = 0, 1 << 52  # the least rabs off the fast path lies in [lo, hi]
            while lo < hi:
                mid = (lo + hi) // 2
                if draw(mid << 9 | idx)[1]:
                    lo = mid + 1
                else:
                    hi = mid
            ki[idx] = ki[idx + 256] = lo
            if lo > 1:  # otherwise wi is never read but as 0 * wi
                wi[idx] = draw(1 << 9 | idx)[0]
        wi[256:] = -wi[:256]
        words = np.random.PCG64(8).random_raw(512)
        for w, x, fast in zip(words.tolist(), *(a.tolist() for a in _decode_normals(words, (wi, ki)))):
            got, alone = draw(w)
            if alone != fast or (fast and got.hex() != x.hex()):
                raise ValueError("ziggurat tables disagree with numpy")
    except (KeyError, TypeError, ValueError):  # a state layout or tables unlike numpy's
        ki[:] = 0
    return wi, ki
