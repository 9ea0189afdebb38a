"""The tests' own frame sampler, written the direct way for
tests/test_tableau.py to check the package's delta-coded replay against.
It runs its own reference tableau, takes each random collapse's whole flip
operator from ``StabilizerState.measure_flip`` (or ``reset``), draws each
event from the float reference ``CounterRandom.uniform``, and XORs a fired
row into one frame row per letter of the flip or noise operator.  Every
feed-forward parity is read in full.  Only the tableau and the draws'
addressing (collapse coin j on stream j, the j-th noise site in program
order on stream ``_NOISE_STREAM_BASE + j``) are shared with the package."""

import numpy as np

from dyncirc import tableau as tb
from dyncirc.pauli import PauliString


def _letters(p: PauliString):
    """The qubits of ``p``'s X letters and of its Z letters."""
    return [q for q in range(p.n) if p.x_bit(q)], [q for q in range(p.n) if p.z_bit(q)]


def _words(rows, shots):
    """Python-int rows, bit s for shot s, as (rows, ceil(shots/64)) uint64."""
    n_words = (shots + 63) // 64
    raw = b"".join(v.to_bytes(8 * n_words, "little") for v in rows)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(len(rows), n_words)


def direct_sample(circ, shots, seed, noise=(), mode="feed_forward"):
    """(records, fx, fz, dx, dz) of ``shots`` shots under ``seed``, in the
    layout of ``Program.sample``'s result; dx and dz are None in
    feed-forward mode."""
    post = mode == "post_process"
    n = circ.n_qubits
    draws = tb.CounterRandom(seed)
    ids = np.arange(shots, dtype=np.uint64)
    ones = (1 << shots) - 1

    def fire(stream, weight):
        hit = draws.uniform(stream, ids) < weight
        return int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")

    st = tb.StabilizerState(n)
    FX, FZ = [0] * n, [0] * n
    DX, DZ = ([0] * n, [0] * n) if post else (FX, FZ)
    parts = [(FX, FZ), (DX, DZ)] if post else [(FX, FZ)]  # what gates act on
    ref = [0] * circ.n_records
    diff = [0] * circ.n_records
    coins = 0

    def flip(p, f):
        xq, zq = _letters(p)
        for q in xq:
            FX[q] ^= f
        for q in zq:
            FZ[q] ^= f

    # sites in program order: site j of that order draws on its stream
    sites = sorted(noise, key=lambda s: s.before_index)
    j = 0
    for k, ins in enumerate(list(circ.instructions) + [None]):
        while j < len(sites) and sites[j].before_index == k:
            flip(sites[j].pauli, fire(tb._NOISE_STREAM_BASE + j, float(sites[j].omega)))
            j += 1
        if ins is None or ins.op in ("input", "barrier", "x", "y", "z"):
            continue
        op, qs = ins.op, ins.qubits
        if op == "cx":
            st.apply_clifford("cx", *qs)
            c, t = qs
            for X, Z in parts:
                X[t] ^= X[c]
                Z[c] ^= Z[t]
        elif op in ("h", "s", "sdg"):
            st.apply_clifford(op, qs[0])
            q = qs[0]
            for X, Z in parts:
                if op == "h":
                    X[q], Z[q] = Z[q], X[q]
                else:
                    Z[q] ^= X[q]
        elif op in ("measure", "reset"):
            q = qs[0]
            outcome, was_random, p = (st.measure_flip if op == "measure" else st.reset)(q, forced=0)
            if was_random:
                flip(p, fire(coins, 0.5))
                coins += 1
            if op == "measure":
                ref[ins.record] = outcome
                diff[ins.record] = FX[q] ^ DX[q] if post else FX[q]
            else:
                FX[q] = FZ[q] = 0
        elif op == "cpauli":
            q = qs[0]
            ref_par, par = 0, 0
            for r in ins.parity:
                ref_par ^= ref[r]
                par ^= diff[r]
            if ref_par and not post:
                st.apply_pauli(PauliString.single(n, q, ins.pauli))
            (DX if ins.pauli == "X" else DZ)[q] ^= par ^ ones if ref_par and post else par
        else:
            raise AssertionError(f"unexpected op {op}")
    records = np.array([[ref[r] ^ (diff[r] >> s & 1) for r in range(circ.n_records)] for s in range(shots)], dtype=np.uint8)
    frames = [_words(FX, shots), _words(FZ, shots)]
    frames += [_words(DX, shots), _words(DZ, shots)] if post else [None, None]
    return (records, *frames)
