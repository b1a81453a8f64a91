"""Metropolis-Hastings search over inclusion vectors.

Proposals flip a fixed number of freely chosen bits (never the pinned
first bit) in exactly one of the two vectors per iteration, picked by
a fair coin; the kernel is symmetric, so a candidate is accepted with
probability min{1, exp(log-density difference)}.

Flipping an even number of bits keeps the parity of the number of
selected free bits, so with even flip counts (the default flip_gamma =
flip_r = 2) a chain never leaves the parity class of its initial state,
e.g. from two free change-points it never reaches one or three.

The chain is the sequential one, computed in blocks.  Each iteration
draws, in this order, the coin (mode sp only), the flip indices and,
only when the log-density change is finite and negative, the accept
uniform.  Most proposals are rejected, so the kernel speculates
(pre-fetching, Brockwell 2006), in three steps: draw, score, walk.

Draw.  ``_draw_block`` draws the next B proposals as if every one drew
its uniform, from one bulk read of the generator's raw PCG64 words
decoded exactly as numpy's ``random`` and ``choice`` decode them
(Floyd's sampling, Lemire's bounded integers), and notes
the word offset and buffered half-word just before each uniform.  So
the block draws depend only on PCG64's raw output.  All 32-bit draws
of a block consume one stream of half-words: the half buffered at its
start, if any, then the low and high halves of each word they read.
When both vectors flip the same number of bits, each proposal takes
the same number of halves, so where every coin, 32-bit word and
uniform sits follows from the block's size, its buffered half and
whether it has coins, and blocks of ARRAY_MIN_BLOCK proposals or more
decode in numpy uint64 arithmetic.  Shorter blocks, unequal flip
counts, a range of 0 or one that needs 64-bit draws, numpy's tail
shuffle and any block with a Lemire rejection go to a scalar decoder,
one Python call per draw, which is also the reference for the array
one.

Score.  Each pass of the kernel's loop takes the block's proposals not
walked yet and scores them once, before its walk, from the current
state: an accept always ends a pass, so no proposal before the pass's
last one can change that state.  The pass goes through the screen
where its gate applies (below); then one ``_score`` call sends to
``evaluate_stack`` every proposal the walk may reach that the screen
does not vouch for (with no screen, every proposal), stacked with the
accepted states still waiting for a density (``pending``), the
current one among them when its density is not known.
``_score`` is the module's one ``evaluate_stack`` call site; it also
scores the initial state and, after the loop, the states left waiting.

Walk.  The walk decides, rewinds and records; it scores nothing.  A
proposal that needs its uniform uses the pre-drawn one; if it is
accepted, the proposals after it stay valid (the draws do not depend
on the state) and the next pass scores them from the new state.  A
proposal whose change is >= 0 or -inf draws no uniform in the
sequential chain, so the walk moves the generator to that proposal's
offset and half-word and the next pass draws a new block there.  An
accepted proposal's state is ``_flip`` of its own flip row, and its
density is its score, or waits in ``pending`` if the screen vouched
for it.  A density is a function of its state alone, the same to the
last bit in any stack, so the random stream, and hence the trace, is
the sequential kernel's for any B.  B is three times the number of
iterations per event so far (an accept or a -inf proposal, each of
which ends a pass), at most MAX_BLOCK: one call costs about as much
as a hundred extra candidates, so a block should usually outlast the
run to the next event.

A single-flip chain in mode sp (the application preset's) sends a pass
through ``FlipScreen`` first while its current state is large,
d_g·(d_r + 1)² >= SCREEN_MIN_WORK: each proposal's change comes from
rank-one updates of the current state's factors in O(d_r²), against
O(d_g·d_r²) to score it afresh.  Those changes are not
``evaluate_stack``'s to the last bit, so a proposal goes on to the
pass's ``_score`` call when the screen flags it or when its change
lies within GUARD of one of the two thresholds its decision compares
it with, 0 and the log of its pre-drawn uniform.  Any other change is
more than GUARD from both, and the screen is far closer than GUARD to
``evaluate_stack`` (below), so its decision, its uniform or rewind and
hence every later draw are the sequential kernel's.  The walk never
passes an unflagged proposal whose change ends the pass (an accept, or
a change of -inf), so no proposal after the first such one goes on.
The trace holds ``evaluate_stack``'s own values: a screened accept's
state waits in ``pending`` for a later pass's ``_score`` call, which
by stack invariance gives the value a stack of one would.  A pass
makes that call, even when the screen vouches for all its proposals,
once MAX_BLOCK states wait.  An accept that undoes the accept before
it (the same target and index) returns to the state that accept left,
so it takes back that state's screen, if one was built, instead of
factoring the state again: a screen depends on its state alone.

GUARD = 1e-6 nats is four orders above the largest difference measured
between a screened change and ``evaluate_stack``'s: 1.2e-10 nats over
all single-flip neighbours (660693 of them) of 33 states of the three
``long-app`` chains of seed 1 (n = 20000, d_g up to 74, d_r up to
8), and at most 3e-12 on the test suite's n = 40 states and 400
random instances with n <= 64.  None of the 60000 proposals of those
three chains landed within GUARD of a threshold, so the band costs
nothing measurable.  At d_g = 64 and d_r = 7 a pass through the screen
costs about 60 µs to factor a new state plus 120 µs a call, almost
whatever the block's size, and a pass through ``evaluate_stack`` about
255 µs a call plus 12 µs a proposal (one core of a shared 2-CPU x86-64
machine, one BLAS thread).  Small states favour ``evaluate_stack``:
SCREEN_MIN_WORK is the measured crossover.  On single-flip chains
(medians of 5), the screen from d_g·(d_r + 1)² = 64 made an n = 40
chain whose states measure 48 to 125 cost 26 % more than without it,
while gates of 64 to 256 took 18-20 % off chains whose states measure
300 to 1150 (n = 2000, the exchange and point100 dictionaries), and
gates of 512 or more lost part of that.  Criterion 3's n = 8 chain
(states of 8 to 48) stays on ``evaluate_stack``.

A trace is the initial state plus the log of accepted flips: per
iteration, the proposal target, the acceptance flag, the log density
of the resulting state and the indices that changed.  The state after
any iteration, the inclusion counts and joint occupancies are computed
from the flips of each vector in one pass of array operations: a bit's
state is its initial value XOR the parity of its flips so far, and a
flip sets its bit when its rank among that bit's flips says the bit
was clear.  Traces also count the -inf proposals per target, the
evaluator calls after the initial state (``evaluate_stack`` and
``FlipScreen.changes`` calls alike), the rows those calls scored
(proposals and pending states), the proposals decoded, including
those discarded at a rewind, the screened proposals sent on to
``evaluate_stack``, whether or not the walk reaches them, and the
screens built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ComputeError, ValidationError
from .posterior import MODE_SP, FlipScreen, LatentState, PosteriorContext, evaluate_stack

TARGET_GAMMA = 0
TARGET_R = 1
MAX_BLOCK = 64
ARRAY_MIN_BLOCK = 12
# a single-flip chain in mode sp scores proposals through FlipScreen
# while d_g·(d_r + 1)² of its state reaches this (see the module docstring)
SCREEN_MIN_WORK = 256
# nats: a screened change this near 0 or the log of its uniform is
# re-scored by evaluate_stack (see the module docstring)
GUARD = 1e-6


@dataclass(frozen=True)
class MHConfig:
    total_iterations: int = 20000
    burn_in: int = 5000
    flip_gamma: int = 2
    flip_r: int = 2
    init_segments: int = 3
    init_functions: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.total_iterations < 1:
            raise ValidationError("total_iterations must be >= 1")
        if not 0 <= self.burn_in < self.total_iterations:
            raise ValidationError("burn_in must satisfy 0 <= burn_in < total_iterations")
        if self.flip_gamma < 1 or self.flip_r < 1:
            raise ValidationError("flip counts must be >= 1")
        if self.init_segments < 1 or self.init_functions < 1:
            raise ValidationError("initial counts must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class InclusionProbabilities:
    """Post-burn-in componentwise means of the inclusion bits."""

    gamma_prob: np.ndarray
    r_prob: np.ndarray | None = None


def _draw_flip_indices(rng: np.random.Generator, length: int, count: int) -> np.ndarray:
    """0-based indices to flip, uniform without replacement from {1..length-1}."""
    if count > length - 1:
        raise ValidationError(f"cannot flip {count} of {length - 1} free bits")
    return rng.choice(length - 1, size=count, replace=False) + 1


_LOW = (1 << 32) - 1
_WORD = (1 << 64) - 1
_UNIT = 1.0 / (1 << 53)


def _seek(bit_generator, start: dict, offset: int, half: int | None) -> None:
    """Put a PCG64 ``offset`` words past the state ``start``, with ``half``
    as its buffered 32-bit half-word (None: no half-word buffered)."""
    bit_generator.state = start
    bit_generator.advance(offset)
    if half is not None:
        _buffer(bit_generator, half)


def _buffer(bit_generator, half: int | None) -> None:
    """Give a PCG64 ``half`` as its buffered 32-bit half-word (None: none)."""
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = (0, 0) if half is None else (1, half)
    bit_generator.state = state


def _draw_block(bit_generator, size: int, gamma: tuple[int, int],
                r: tuple[int, int] | None = None):
    """The next ``size`` proposals from one bulk read of a PCG64 stream.

    ``gamma`` and ``r`` are (vector length, flip count); with ``r`` each
    proposal starts with the coin.  Proposal j gets exactly the coin, flip
    indices and uniform that ``rng.random() >= 0.5``,
    ``_draw_flip_indices(rng, length, count)`` and ``rng.random()`` would
    give, in that order, on a ``Generator`` over ``bit_generator``.

    Blocks of ARRAY_MIN_BLOCK proposals or more are decoded as arrays
    (``_decode_array``); the rest, and every block that the array layout
    does not cover, go whole to ``_decode_scalar``, the reference
    decoder.  ARRAY_MIN_BLOCK is the measured crossover (medians of 15
    runs of 200 blocks on one core of a shared 2-CPU x86-64 machine).
    With 2-bit flips at n = 100 in mode p, 64 proposals take 41 µs as
    arrays against 190 µs scalar, 12 take 33 against 46 µs and 8 take
    33 against 33 µs.  With the application preset's single flips at
    n = 20000 and 12 atoms, 64 take 59 against 157 µs, 16 take 45
    against 49 µs and 12 take 40 against 36 µs.  So 12 sits between the
    2-bit crossover, near 8, and the single-flip one, near 15.  Below it
    the arrays' fixed cost, about 30 µs, is more than the scalar decoder
    spends.

    Returns the targets (True for gamma), the flip rows of each vector
    (padded with its length where the other vector is flipped), the
    uniforms, the block's start state and, per proposal, the word offset
    and buffered half-word just before its uniform: ``_seek`` there is
    the stream after a proposal that draws no uniform.  Leaves the
    generator at the block's end.
    """
    if size >= ARRAY_MIN_BLOCK:
        block = _decode_array(bit_generator, size, gamma, r)
        if block is not None:
            return block
    return _decode_scalar(bit_generator, size, gamma, r)


@lru_cache(maxsize=16)
def _ranges(gamma: tuple[int, int], r: tuple[int, int] | None):
    """The array decoder's tables, or None where it does not apply.

    Per vector (rows: gamma, then r) and per 32-bit draw of a proposal
    (columns: Floyd's draws, then the shuffle's), the range h + 1 of a
    draw in [0, h]; the largest of Lemire's rejection thresholds
    2³² mod (h + 1); per vector, Floyd's replacement for each of its first
    ``count`` draws, h + 1 as a 1-based index; and its length, which pads
    its rows.  None when the two flip counts differ, or a range is 0 or
    needs 64-bit draws, or numpy's tail shuffle applies.
    """
    count = gamma[1]
    if r is not None and r[1] != count:
        return None
    vectors = (gamma, r) if r is not None else (gamma,)
    highs = []
    for length, _ in vectors:
        pop = length - 1
        if pop > 10000 and count > pop // 50:
            return None
        high = list(range(pop - count, pop)) + list(range(count - 1, 0, -1))
        if not 0 < min(high) <= max(high) <= _LOW:
            return None
        highs.append(high)
    excl = np.array(highs, dtype=np.uint64) + 1
    top = max((1 << 32) % int(e) for e in excl.ravel())
    return (excl, np.uint64(top), excl[:, :count].astype(np.int64),
            np.array([length for length, _ in vectors]))


class _Layout(NamedTuple):
    """Where each draw of a block sits in its raw words (see ``_layout``)."""

    ends: list               # the words read by the first j proposals, j = 0..length
    coins: np.ndarray        # the word of each proposal's coin
    uniforms: np.ndarray     # the word of each proposal's uniform
    words: np.ndarray        # (length, k): the word of each 32-bit draw
    shifts: np.ndarray       # (length, k): 0 for its low half, 32 for its high half
    mark_words: list         # the words read before each uniform
    halves: np.ndarray       # the word whose high half is buffered after each
                             # proposal, where one is
    rows: np.ndarray         # arange(length)


@lru_cache(maxsize=16)
def _layout(length: int, buffered: int, coin: int, k: int) -> _Layout:
    """The words of the first ``length`` proposals of a block, none of
    whose draws is rejected, each with ``coin`` coin words, k 32-bit draws
    and a uniform, from a stream with ``buffered`` (0 or 1) half-words
    buffered.  A shorter block takes the first rows of each table.

    The 32-bit draws consume one stream of half-words: the buffered
    half, if any, then the low and high halves of each word that a
    32-bit draw reads, in order.  So draw q of the block takes half q,
    proposal j's draws read ⌈(j·k − buffered)/2⌉ words before them, and
    the coin, those words and the uniform follow one another.  The
    buffered start half is word -1: the decoder appends it to the words
    it reads.
    """
    j = np.arange(length + 1)
    read = (j * k - buffered + 1) // 2
    step = 1 + coin
    ends = j * step + read
    coins = j[:-1] * step + read[:-1]
    uniforms = j[:-1] * step + coin + read[1:]
    other = np.ones(ends[-1], dtype=bool)
    other[uniforms] = False
    if coin:
        other[coins] = False
    # half t of the stream after the buffered one; t = -1 is that one
    t = np.arange(length * k + 1) - buffered
    words = np.append(np.flatnonzero(other), -1)[np.maximum(t, 0) // 2]
    words[t < 0] = -1
    shifts = np.where(t < 0, 0, 32 * (t % 2)).astype(np.uint64)
    layout = _Layout(ends.tolist(), coins, uniforms, words[:-1].reshape(length, k),
                     shifts[:-1].reshape(length, k), uniforms.tolist(), words[k::k], j[:-1])
    for table in layout:
        if isinstance(table, np.ndarray):
            table.flags.writeable = False  # every block of this shape shares it
    return layout


def _decode_array(bit_generator, size: int, gamma: tuple[int, int],
                  r: tuple[int, int] | None):
    """``_decode_scalar``'s block decoded in numpy uint64 arithmetic, or
    None, with the generator where it was, where the layout does not apply.

    With equal flip counts the words of a block follow from its size, its
    buffered half-word and its coin alone (``_layout``).  The coin is
    word >= 2⁶³, the uniform (word >> 11)·2⁻⁵³, and a 32-bit draw in
    [0, h] the high word of half·(h + 1); Floyd's sampling and the
    shuffle run as column operations.  A draw that Lemire's method
    rejects (its low word below 2³² mod (h + 1), about h/2³² per draw)
    shifts every later word, so a block with a low word below the
    largest threshold goes whole to ``_decode_scalar``.
    """
    tables = _ranges(gamma, r)
    if tables is None:
        return None
    excl, top, replace, pads = tables
    count, k = gamma[1], excl.shape[1]
    start = bit_generator.state
    buffered = start["has_uint32"]
    lay = _layout(max(size, MAX_BLOCK), buffered, int(r is not None), k)
    raw = bit_generator.random_raw(lay.ends[size])
    if buffered:
        raw = np.append(raw, np.uint64(start["uinteger"]))
    # the table row of each proposal: 1 where its coin picks r
    row = 0 if r is None else (raw.take(lay.coins[:size]) >> 63).view(np.int64)
    prod = ((raw.take(lay.words[:size]) >> lay.shifts[:size]) & _LOW) * excl.take(row, axis=0)
    if ((prod & _LOW) < top).any():
        bit_generator.state = start
        return None
    draws = (prod >> 32).view(np.int64)
    picked = draws[:, :count] + 1
    for i in range(1, count):
        seen = picked[:, 0] == picked[:, i]
        for h in range(1, i):
            seen |= picked[:, h] == picked[:, i]
        picked[:, i] = np.where(seen, replace.take(row, axis=0)[..., i], picked[:, i])
    at = lay.rows[:size]
    for col, i in zip(range(count, k), range(count - 1, 0, -1)):
        j = draws[:, col]
        old = picked[:, i].copy()
        picked[:, i] = picked[at, j]
        picked[at, j] = old
    # a half-word is buffered after proposal j if (j + 1)·k − buffered is
    # odd: after every other proposal for odd k, after all or none for
    # even k.  The uniform leaves it alone, so the last one stays at the end.
    every = slice(buffered, size, 2) if k % 2 else slice(0, size * buffered)
    halves = [None] * size
    halves[every] = (raw.take(lay.halves[every]) >> 32).tolist()
    if halves[-1] is not None or buffered:
        # random_raw moved the generator to the block's end but left its
        # buffered half-word alone
        _buffer(bit_generator, halves[-1])
    uniforms = ((raw.take(lay.uniforms[:size]) >> 11) * _UNIT).tolist()
    marks = list(zip(lay.mark_words, halves))
    if r is None:
        return [True] * size, picked, None, uniforms, start, marks
    to_r = row[:, None] == 1
    return ((row == 0).tolist(), np.where(to_r, pads[0], picked),
            np.where(to_r, picked, pads[1]), uniforms, start, marks)


def _decode_scalar(bit_generator, size: int, gamma: tuple[int, int],
                   r: tuple[int, int] | None = None):
    """``_draw_block``'s proposals decoded one Python call per draw: the
    reference decoder, and the path for every block that ``_decode_array``
    does not cover.  The raw words are decoded as numpy decodes them.
    - ``random`` is (word >> 11)·2⁻⁵³, so the coin is word >> 63.
    - A 32-bit draw takes the low half of a word and buffers the high
      half for the next 32-bit draw; 64-bit draws leave the buffer alone.
    - An integer in [0, k] is Lemire's multiply-and-reject, 32-bit below
      2³², 64-bit above, and no draw for k = 0.
    - ``choice`` without replacement is Floyd's sampling then a shuffle,
      or for length - 1 > 10000 and count > (length - 1) // 50 a tail
      shuffle of the whole range.  One flip is Floyd's single draw, the
      same value and words as ``integers(length - 1)``.
    """
    start = bit_generator.state
    half = start["uinteger"] if start["has_uint32"] else None
    chunk = size * (2 + max(gamma[1], r[1] if r else 0))
    words = bit_generator.random_raw(chunk).tolist()
    pos = 0

    def word():
        nonlocal pos
        if pos == len(words):
            words.extend(bit_generator.random_raw(chunk).tolist())
        pos += 1
        return words[pos - 1]

    def bounded(high):
        # numpy's Lemire test, leftover < high + 1 and leftover < threshold,
        # is leftover < threshold alone, as threshold <= high
        nonlocal half
        if high == 0:
            return 0
        excl = high + 1
        if high > _LOW:
            threshold = (_WORD - high) % excl
            while (prod := word() * excl) & _WORD < threshold:
                pass
            return prod >> 64
        threshold = (_LOW - high) % excl
        while True:
            if half is None:
                low = word()
                half, prod = low >> 32, (low & _LOW) * excl
            else:
                prod, half = half * excl, None
            if prod & _LOW >= threshold:
                return prod >> 32

    def flip_indices(pop, count):
        # 0-based draws from {0..pop-1}
        if pop > 10000 and count > pop // 50:
            moved = {}
            for i in range(pop - 1, max(pop - count, 1) - 1, -1):
                j = bounded(i)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return [moved.get(i, i) for i in range(pop - count, pop)]
        picked = []
        for j in range(pop - count, pop):
            v = bounded(j)
            picked.append(j if v in picked else v)
        for i in range(count - 1, 0, -1):
            j = bounded(i)
            picked[i], picked[j] = picked[j], picked[i]
        return picked

    # rows hold draws from {0..length-2}, one less than the indices, so a
    # row of length - 1 is padding
    on_gamma, rows_g, rows_r, uniforms, marks = [], [], [], [], []
    pop_g, count_g = gamma[0] - 1, gamma[1]
    pad_g = [pop_g] * count_g
    pop_r, count_r = (r[0] - 1, r[1]) if r else (0, 0)
    pad_r = [pop_r] * count_r
    for _ in range(size):
        if r is not None and word() >> 63:
            on_gamma.append(False)
            rows_g.append(pad_g)
            rows_r.append(flip_indices(pop_r, count_r))
        else:
            on_gamma.append(True)
            rows_g.append(flip_indices(pop_g, count_g))
            rows_r.append(pad_r)
        marks.append((pos, half))
        uniforms.append((word() >> 11) * _UNIT)
    _seek(bit_generator, start, pos, half)
    flips_g = np.array(rows_g, dtype=np.int64) + 1
    flips_r = np.array(rows_r, dtype=np.int64) + 1 if r else None
    return on_gamma, flips_g, flips_r, uniforms, start, marks


def _flip(selected: np.ndarray, flips: np.ndarray, pad: int) -> np.ndarray:
    """Selected indices after each row of ``flips`` is flipped.

    ``selected`` holds the ascending indices of the set bits, ``flips``
    (B, count) distinct indices per row, where ``pad`` (one past the
    last bit) flips nothing.  Returns (B, w) ascending rows; an index
    flipped off becomes ``pad``, which sorts last, and columns that are
    padding in every row are dropped.
    """
    rows = np.empty((len(flips), len(selected) + flips.shape[1]), dtype=np.int64)
    rows[:, :len(selected)] = selected
    rows[:, len(selected):] = flips
    rows.sort(axis=1)
    twice = rows[:, 1:] == rows[:, :-1]
    rows[:, 1:][twice] = pad
    rows[:, :-1][twice] = pad
    rows.sort(axis=1)
    # the column minima ascend; a column is padding in every row where its minimum is pad
    return rows[:, :rows.min(axis=0, initial=pad).searchsorted(pad)]


class MHTrace:
    """Initial state plus the log of accepted flips of one chain."""

    def __init__(self, initial_gamma, initial_r, initial_log_density, which, accepted,
                 log_density, flip_offsets, flip_indices, neg_inf=(0, 0),
                 evaluator_calls=0, candidates_evaluated=0, proposals_drawn=0, rescored=0,
                 screens_built=0):
        self.initial_gamma = initial_gamma
        self.initial_r = initial_r
        self.initial_log_density = initial_log_density
        self.which = which
        self.accepted = accepted
        self.log_density = log_density
        self.flip_offsets = flip_offsets
        self.flip_indices = flip_indices
        # (gamma, r) counts of proposals with density -inf, and the work
        # of the block kernel after the initial state: its evaluate_stack
        # and FlipScreen.changes calls, the proposals and pending states
        # they scored, the proposals it decoded, counting those discarded
        # at a rewind, the screened proposals that a flag or the guard
        # band sent on to evaluate_stack, and the FlipScreens built; none
        # of them enters the exported files
        self.neg_inf = tuple(neg_inf)
        self.evaluator_calls = evaluator_calls
        self.candidates_evaluated = candidates_evaluated
        self.proposals_drawn = proposals_drawn
        self.rescored = rescored
        self.screens_built = screens_built

    def __len__(self) -> int:
        return len(self.accepted)

    def changed_indices(self, t: int) -> np.ndarray:
        """0-based indices (within the target vector) flipped at iteration t."""
        return self.flip_indices[self.flip_offsets[t]:self.flip_offsets[t + 1]]

    def _target(self, name: str) -> int:
        """TARGET_GAMMA or TARGET_R for the name 'gamma' or 'r'."""
        if name == "gamma":
            return TARGET_GAMMA
        if name != "r":
            raise ValidationError(f"target must be 'gamma' or 'r', got {name!r}")
        if self.initial_r is None:
            raise ValidationError("trace has no atom component")
        return TARGET_R

    def _toggles(self, target: int, start: int):
        """One vector's bits after iteration ``start`` and its later flips.

        Returns (bits, times, idx, on): the flips after ``start`` in
        iteration order, with ``on`` True where a flip sets its bit.  A
        flip of rank k among its bit's flips finds the bit at its state
        after ``start`` if k is even and flipped if k is odd.
        """
        times = np.repeat(np.arange(len(self)), np.diff(self.flip_offsets))
        mine = self.which[times] == target
        times, idx = times[mine], self.flip_indices[mine]
        initial = self.initial_gamma if target == TARGET_GAMMA else self.initial_r
        split = np.searchsorted(times, start, side="right")
        bits = initial ^ (np.bincount(idx[:split], minlength=len(initial)) % 2 == 1)
        times, idx = times[split:], idx[split:]
        order = np.argsort(idx, kind="stable")
        rank = np.empty(len(idx), dtype=np.int64)
        rank[order] = np.arange(len(idx)) - np.searchsorted(idx[order], idx[order])
        return bits, times, idx, bits[idx] == (rank % 2 == 1)

    def _check_burn_in(self, burn_in: int) -> None:
        if not 0 <= burn_in < len(self):
            raise ValidationError("burn-in leaves no post-burn-in iterations")

    def state_at(self, t: int) -> LatentState:
        """State after iteration t (t = -1 gives the initial state)."""
        if not -1 <= t < len(self):
            raise ValidationError(f"iteration {t} out of range")
        r = self._toggles(TARGET_R, t)[0] if self.initial_r is not None else None
        return LatentState(gamma=self._toggles(TARGET_GAMMA, t)[0], r=r)

    def iter_states(self, start: int = 0):
        """Yield (t, gamma, r) for t = start..end; arrays are live views,
        copy them if kept."""
        state = self.state_at(start)
        gamma, r = state.gamma, state.r
        yield start, gamma, r
        for t in range(start + 1, len(self)):
            idx = self.changed_indices(t)
            if idx.size:
                if self.which[t] == TARGET_GAMMA:
                    gamma[idx] = ~gamma[idx]
                else:
                    r[idx] = ~r[idx]
            yield t, gamma, r

    def _set_counts(self, target: int, burn_in: int) -> np.ndarray:
        """Number of iterations in [burn_in, T) with each bit set."""
        self._check_burn_in(burn_in)
        total = len(self)
        bits, times, idx, on = self._toggles(target, burn_in)
        counts = np.where(bits, total - burn_in, 0)
        # a flip at t sets (clears) its bit for the T - t iterations from t on
        np.add.at(counts, idx, np.where(on, total - times, times - total))
        return counts

    def occupancy_any(self, indices, target: str = "gamma", burn_in: int = 0) -> float:
        """Fraction of post-burn-in iterations where any of the given
        1-based indices is set (joint occupancy, not a sum of marginals)."""
        tgt = self._target(target)
        self._check_burn_in(burn_in)
        tracked = np.unique(np.asarray(indices, dtype=np.int64) - 1)
        bits, times, idx, on = self._toggles(tgt, burn_in)
        if tracked.size and not 0 <= tracked[0] <= tracked[-1] < len(bits):
            raise ValidationError(f"indices must lie in [1, {len(bits)}]")
        mine = np.isin(idx, tracked)
        # tracked bits set from burn-in and from each tracked flip to the
        # next; flips in one iteration leave intervals of length 0 between them
        num_on = np.cumsum(np.r_[bits[tracked].sum(), np.where(on[mine], 1, -1)])
        spans = np.diff(np.r_[burn_in, times[mine], len(self)])
        return float(spans[num_on > 0].sum() / (len(self) - burn_in))

    def acceptance_rate(self, target: str | None = None) -> float:
        accepted = self.accepted
        if target is not None:
            accepted = accepted[self.which == self._target(target)]
        if not accepted.size:
            return float("nan")
        return float(accepted.mean())

    def acceptance_by_block(self, block: int = 1000) -> np.ndarray:
        """Acceptance fraction per block of iterations."""
        if block < 1:
            raise ValidationError(f"block must be >= 1, got {block}")
        total = len(self)
        edges = list(range(0, total, block)) + [total]
        return np.array([self.accepted[a:b].mean() for a, b in zip(edges, edges[1:])])


def _sample_initial(ctx: PosteriorContext, config: MHConfig,
                    rng: np.random.Generator) -> LatentState:
    n = ctx.n
    if config.init_segments > n:
        raise ValidationError("init_segments exceeds series length")
    gamma = np.zeros(n, dtype=bool)
    gamma[0] = True
    gamma[_draw_flip_indices(rng, n, config.init_segments - 1)] = True
    r = None
    if ctx.mode == MODE_SP:
        m = ctx.num_atoms
        if config.init_functions > m:
            raise ValidationError("init_functions exceeds dictionary size")
        r = np.zeros(m, dtype=bool)
        r[0] = True
        r[_draw_flip_indices(rng, m, config.init_functions - 1)] = True
    return LatentState(gamma=gamma, r=r)


def run_metropolis_hastings(ctx: PosteriorContext, config: MHConfig) -> MHTrace:
    """Run one chain in ``ctx.mode``; deterministic given (ctx, config)."""
    # default_rng's stream; _draw_block decodes PCG64's raw words
    rng = np.random.Generator(np.random.PCG64(config.seed))
    n = ctx.n
    m = ctx.num_atoms
    if config.flip_gamma > n - 1:
        raise ValidationError("flip_gamma exceeds the number of free positions")
    if ctx.mode == MODE_SP and config.flip_r > m - 1:
        raise ValidationError("flip_r exceeds the number of free atoms")

    sp = ctx.mode == MODE_SP
    screened = sp and config.flip_gamma == config.flip_r == 1
    total = config.total_iterations
    # densities[i] is the log density of the state after the i-th accept
    # (i = 0: the initial state); ``visits`` counts the accepts so far.  A
    # state whose density is not known yet waits in ``pending``, by its i,
    # for the next evaluate_stack call.
    densities = np.empty(total + 1)
    no_flips = np.empty((0, 1), dtype=np.int64)
    for _ in range(100):
        state = _sample_initial(ctx, config, rng)
        gidx = np.flatnonzero(state.gamma)
        ridx = np.flatnonzero(state.r) if sp else None
        _score(ctx, {0: (gidx, ridx)}, densities, gidx, ridx, no_flips, no_flips if sp else None)
        if densities[0] > -np.inf:
            break
    else:
        raise ComputeError("could not find an initial state with finite density")

    which = np.zeros(total, dtype=np.uint8)
    accepted = np.zeros(total, dtype=bool)
    flipped: list[int] = []
    neg_inf = [0, 0]
    events = calls = scored = drawn = rescored = visits = built = 0
    pending: dict[int, tuple[np.ndarray, np.ndarray | None]] = {}
    # the current state's screen, and the screen of the state the last
    # accept left with that accept's flip, which an accept of the same
    # flip returns to
    screen = left = last_flip = None

    t = first = size = 0  # proposals first..size-1 of the block are not walked yet
    while t < total:
        if first == size:
            first, size = 0, min(MAX_BLOCK, total - t, max(1, 3 * (t + 1) // (events + 1)))
            on_gamma, flips_g, flips_r, uniforms, origin, marks = _draw_block(
                rng.bit_generator, size, (n, config.flip_gamma),
                (m, config.flip_r) if sp else None)
            drawn += size
        # score: the screen where the gate applies, then one evaluate_stack
        # call on every proposal it does not vouch for and the pending states
        changes, ask, rows = None, range(size - first), slice(first, size)
        if screened and len(gidx) * (len(ridx) + 1) ** 2 >= SCREEN_MIN_WORK:
            if screen is None:
                screen, built = FlipScreen(ctx, gidx, ridx), built + 1
            changes, ask = _screen(screen, on_gamma[first:], flips_g[first:, 0],
                                   flips_r[first:, 0], uniforms[first:])
            values, rows = [None] * len(changes), first + ask
            calls, scored, rescored = calls + 1, scored + len(changes), rescored + len(ask)
        if len(ask) or len(pending) >= MAX_BLOCK:
            calls, scored = calls + 1, scored + len(pending) + len(ask)
            exact = _score(ctx, pending, densities, gidx, ridx, flips_g[rows],
                           flips_r[rows] if sp else None)
            here = float(densities[visits])
            if changes is None:
                values, changes = exact, [value - here for value in exact]
            else:
                for k, value in zip(ask, exact):
                    values[k], changes[k] = value, value - here
        # walk: decide in order; an accept or a -inf proposal ends the pass
        start, first = first, size
        for k, j in enumerate(range(start, size)):
            delta = changes[k]
            target = TARGET_GAMMA if on_gamma[j] else TARGET_R
            which[t] = target
            t += 1
            used = -np.inf < delta < 0.0
            if used and math.log(uniforms[j]) >= delta:
                continue
            events += 1
            if used:
                # the later proposals stay valid: the next pass scores
                # them from the new state
                first = j + 1
            else:
                # the sequential kernel draws no uniform here: rewind the
                # stream to just before it and start a new block
                _seek(rng.bit_generator, origin, *marks[j])
                if not delta >= 0.0:
                    neg_inf[target] += 1
                    break
            accepted[t - 1] = True
            if target == TARGET_GAMMA:
                row = flips_g[j:j + 1]
                gidx = _flip(gidx, row, n)[0]
            else:
                row = flips_r[j:j + 1]
                ridx = _flip(ridx, row, m)[0]
            flip = (target, *sorted(row[0].tolist()))
            flipped += flip[1:]
            visits += 1
            if values[k] is None:
                pending[visits] = (gidx, ridx)
            else:
                densities[visits] = values[k]
            screen, left = (left if flip == last_flip else None), screen
            last_flip = flip
            break

    if pending:
        calls, scored = calls + 1, scored + len(pending)
        _score(ctx, pending, densities, gidx, ridx, no_flips, no_flips if sp else None)
    counts = np.where(which == TARGET_GAMMA, config.flip_gamma, config.flip_r) * accepted
    return MHTrace(
        initial_gamma=state.gamma, initial_r=state.r,
        initial_log_density=float(densities[0]),
        which=which, accepted=accepted,
        log_density=densities.take(np.cumsum(accepted)),
        flip_offsets=np.concatenate(([0], np.cumsum(counts))),
        flip_indices=np.array(flipped, dtype=np.int32),
        neg_inf=neg_inf, evaluator_calls=calls, candidates_evaluated=scored,
        proposals_drawn=drawn, rescored=rescored, screens_built=built,
    )


def _score(ctx, pending: dict, densities: np.ndarray, gidx, ridx, flips_g, flips_r) -> list:
    """One ``evaluate_stack`` call on the states in ``pending``, whose
    values it puts in ``densities`` by their keys before clearing
    ``pending``, and on the proposals with the given flip rows from the
    state (gidx, ridx), whose log densities it returns.  In mode p
    ``ridx``, ``flips_r`` and each pending state's atoms are None."""
    g_stack = _flip(gidx, flips_g, ctx.n)
    r_stack = _flip(ridx, flips_r, ctx.num_atoms) if flips_r is not None else None
    if pending:
        g_stack = _stack([g for g, _ in pending.values()], g_stack, ctx.n)
        if r_stack is not None:
            r_stack = _stack([r for _, r in pending.values()], r_stack, ctx.num_atoms)
    values = evaluate_stack(ctx, g_stack, r_stack).tolist()
    for visit in pending:
        densities[visit] = values.pop(0)
    pending.clear()
    return values


def _stack(states: list, stack: np.ndarray, pad: int) -> np.ndarray:
    """The selected indices of each of ``states``, then the rows of
    ``stack``, padded with ``pad`` to one width."""
    rows = np.full((len(states) + len(stack), max(stack.shape[1], *map(len, states))), pad)
    for row, selected in zip(rows, states):
        row[:len(selected)] = selected
    rows[len(states):, :stack.shape[1]] = stack
    return rows


def _screen(screen: FlipScreen, on_gamma, flips_g, flips_r, uniforms):
    """The screen's log-density changes of a block's single-flip
    proposals, and the positions of those that need ``evaluate_stack``'s
    value: those the screen flags and those within GUARD of 0 or of the
    log of their uniform, where the change decides the proposal, up to
    the first proposal that surely ends the pass (the walk stops there)."""
    on_gamma = np.array(on_gamma)
    (gamma, flag_g), (atoms, flag_r) = screen.changes(flips_g[on_gamma], flips_r[~on_gamma])
    changes = np.empty(len(on_gamma))
    changes[on_gamma], changes[~on_gamma] = gamma, atoms
    flagged = np.empty(len(on_gamma), dtype=bool)
    flagged[on_gamma], flagged[~on_gamma] = flag_g, flag_r
    with np.errstate(divide="ignore"):
        log_u = np.log(uniforms)
    flagged |= (np.abs(changes) <= GUARD) | (np.abs(changes - log_u) <= GUARD)
    if flagged.any():
        # an unflagged accept or -inf change surely ends the walk there
        ends = ~flagged & ((log_u < changes) | (changes == -np.inf))
        flagged &= np.cumsum(ends) == 0
    return changes.tolist(), np.flatnonzero(flagged)


def inclusion_probabilities(trace: MHTrace, burn_in: int) -> InclusionProbabilities:
    """Componentwise means of the post-burn-in inclusion bits."""
    m = len(trace) - burn_in
    gamma_prob = trace._set_counts(TARGET_GAMMA, burn_in) / m
    r_prob = None
    if trace.initial_r is not None:
        r_prob = trace._set_counts(TARGET_R, burn_in) / m
    return InclusionProbabilities(gamma_prob=gamma_prob, r_prob=r_prob)


def select_median_probability_model(probs: InclusionProbabilities,
                                    threshold: float = 0.5) -> LatentState:
    """Keep the components whose inclusion probability strictly exceeds
    the threshold; the pinned first bits are always kept."""
    if not 0.0 < threshold < 1.0:
        raise ValidationError("threshold must lie in (0, 1)")
    gamma = probs.gamma_prob > threshold
    gamma[0] = True
    r = None
    if probs.r_prob is not None:
        r = probs.r_prob > threshold
        r[0] = True
    return LatentState(gamma=gamma, r=r)


def intersect_selections(states) -> LatentState:
    """Componentwise AND of several selections (the run-several-chains-
    and-intersect recipe)."""
    states = list(states)
    if not states:
        raise ValidationError("need at least one selection")
    gamma = states[0].gamma.copy()
    r = states[0].r.copy() if states[0].r is not None else None
    for s in states[1:]:
        gamma &= s.gamma
        if r is not None:
            r &= s.r
    gamma[0] = True
    if r is not None:
        r[0] = True
    return LatentState(gamma=gamma, r=r)
