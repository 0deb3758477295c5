"""The random stream of an asynchronous run after its initialization: the
active agent and the reward noise of every round, drawn per round or in
blocks decoded from the bit generator's raw words, the same stream either
way.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .core import Rng

# PCG64 (O'Neill 2014) steps a 128-bit LCG by this multiplier and outputs the
# XSL-RR of the new state: its high half xor its low half, rotated right by
# its top six bits. A state whose high half is 0 outputs its low half.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_CHUNK = 4096  # raw words decoded per uniform block, or normals per other block
_LOW32, _LOW9, _LOW52 = np.uint64(0xFFFFFFFF), np.uint64(0x1FF), np.uint64((1 << 52) - 1)
_SHIFT32, _SHIFT9 = np.uint64(32), np.uint64(9)
_ziggurat = None  # numpy's (wi, ki) ziggurat tables, read on first use


class ActivationSchedule:
    """Picks the single active agent for each round t >= K+1, and draws it
    in blocks together with the rounds' reward normals.

    uniform-random draws from the run's rng and round-robin cycles 1..M
    (RunConfig refuses any other policy). One agent's choice is vacuous and
    consumes no randomness, keeping single-agent reward streams aligned.

    A uniform round draws `int(rng.integers(M))`: for M < 2^32 (RunConfig
    refuses more) numpy maps one `next_uint32` word w to (w M) >> 32 and
    redraws while the low 32 bits of w M fall below 2^32 mod M (Lemire's
    nearly-divisionless rejection), which `block` decodes from raw words.
    """

    def __init__(self, policy: str, n_agents: int):
        self.policy = policy
        self.n_agents = n_agents
        self._next = 0
        self._threshold = ((1 << 32) - n_agents) % n_agents
        self._spare = None  # the Generator that draws slow normals, built on first use

    def block(self, rng: Rng, n: int) -> tuple[list, list]:
        """The active agents and standard normals of the next rounds, at most
        n >= 1 of them: byte-identical to the active agent (rng.integers(M)
        for uniform-random over M > 1, the cycle for round-robin, 0 for M = 1)
        followed by rng.standard_normal() in every round, and leaving rng
        where those calls leave it (but for a 32-bit half that numpy has
        marked used, which it never reads). rng must run on PCG64, as
        make_rng's does.

        A uniform round with M > 1 takes 32-bit halves of buffered 64-bit
        words and then whole words, so the block decodes a chunk of raw PCG64
        words, each once as a normal and as two halves: from an empty buffer
        they run A N N A N N ..., an A word serving two rounds (low half, then
        high half), and a round that takes a buffered half reads only its
        normal's words. An activation that redraws takes the halves after its
        own. A normal off the ziggurat's fast path is drawn by numpy's own
        call on a second PCG64 put at its word, and decoding goes on from the
        word after those numpy read. The block ends after n rounds or where a
        round reads past the chunk; if round 0 does, numpy's own calls draw it.
        """
        m = self.n_agents
        if m == 1 or self.policy == "round-robin":
            z = rng.standard_normal(min(n, _CHUNK)).tolist()
            a = self._next
            self._next = (a + len(z)) % m
            return [(a + i) % m for i in range(len(z))], z
        bg = rng.bit_generator
        state = bg.state
        size = min(_CHUNK, 2 * n + 8)  # n rounds read 1.5 n words, and more for redraws and slow normals
        words = bg.random_raw(size)
        normals, fast = _decode_normals(words, _ziggurat_tables())
        # half 0 is the state's buffered one, 2w + 1 and 2w + 2 the low and
        # high halves of word w: a redraw reads the halves after its own
        prods = np.empty(2 * size + 1, dtype=np.uint64)
        prods[0] = state["uinteger"]
        prods[1:] = words.astype("<u8").view("<u4")
        prods *= np.uint64(m)
        accepted = (prods & _LOW32) >= np.uint64(self._threshold)
        # word w opens a regular A N N triplet when both its halves are
        # accepted and both normals after it take the fast path; the other
        # words end the stretches of triplets that start at a word w' = w mod 3
        regular = accepted[1::2] & accepted[2::2]
        regular[:-2] &= fast[1:-1] & fast[2:]
        regular[-2:] = False
        ends = ([], [], [])
        for w in np.flatnonzero(~regular).tolist() + [size, size + 1, size + 2]:
            ends[w % 3].append(w)

        # each stretch of rounds as its first half, first normal's word and
        # count; a count above 1 only for triplets
        halves, normal_words, counts = [], [], []
        word, held = 0, 0 if state["has_uint32"] else None  # the next word, the buffered half
        spare, at, overrun = None, 0, False  # the second PCG64, at chunk word `at`
        rounds = 0
        while rounds < n:
            if held is None:
                stretch = ends[word % 3]
                r = min(2 * ((stretch[bisect_left(stretch, word)] - word) // 3), n - rounds)
                if r:
                    halves.append(2 * word + 1)
                    normal_words.append(word + 1)
                    counts.append(r)
                    rounds += r
                    word += 3 * (r // 2)
                    if r % 2:  # only the last stretch: its last round opened a word
                        held, word = 2 * word + 2, word + 2
                    if rounds == n:
                        break
            if held is not None and accepted[held]:
                half, after, q = held, None, word
            else:
                # numpy reads halves in order until one is accepted: the low
                # half of the next word leaves its high half buffered
                half = 2 * word + 1
                if word < size and not accepted[half]:
                    half += int(accepted[half:].argmax())
                after, q = (half + 1, (half + 1) // 2) if half % 2 else (None, half // 2)
            if q >= size or not accepted[half]:
                break
            if fast[q]:
                word = q + 1
            else:
                if spare is None:
                    if self._spare is None:
                        self._spare = np.random.Generator(np.random.PCG64(0))
                    spare = self._spare.bit_generator
                    spare.state = {**state, "has_uint32": 0, "uinteger": 0}
                spare.advance((q - at) % (1 << 128))
                normals[q] = self._spare.standard_normal()
                # decoding goes on at the word after those numpy read
                after_normal = spare.random_raw()
                word = q + 1
                while word < size and int(words[word]) != after_normal:
                    word += 1
                overrun = word == size
                at = word + 1
            halves.append(half)
            normal_words.append(q)
            counts.append(1)
            rounds += 1
            held = after
            if overrun:
                break

        if not rounds:  # round 0 does not fit the chunk: numpy draws it
            bg.state = state
            return [int(rng.integers(m))], [rng.standard_normal()]
        if overrun:  # numpy's normal read past the chunk, and the spare one word past that
            spare.advance((1 << 128) - 1)
            bg.state = spare.state
        else:
            bg.advance((word - size) % (1 << 128))  # back to the first unused word; empties the buffer
        if held is not None:
            restored = bg.state
            restored["has_uint32"], restored["uinteger"] = 1, int(words[held // 2 - 1]) >> 32
            bg.state = restored
        counts = np.array(counts)
        i = np.arange(rounds) - np.repeat(np.cumsum(counts) - counts, counts)
        # round i of a stretch is in its triplet i // 2, 3 words and 6 halves
        # on, and takes the low half and first normal, or the high and second
        step = 3 * (i >> 1) + (i & 1)
        agents = prods[np.repeat(halves, counts) + step + 3 * (i >> 1)] >> _SHIFT32
        return agents.tolist(), normals[np.repeat(normal_words, counts) + step].tolist()


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
