"""The tests' own known-zero analysis and idle-window sweep, written the
direct way for tests/test_circuits.py and tests/test_tableau.py to check
the package's schedule walk against.  Only ``validate`` is shared with it,
to require a valid circuit."""


def unfolded_zero_timeline(circ):
    """Per qubit, the (time, is_known_zero) change points of its content,
    starting zero at 0, with every cpauli parity read in full.  Content is a
    GF(2) affine form (label mask, constant): ``input`` and ``h`` mint a
    fresh label, ``x`` and ``y`` flip the constant, ``cx`` XORs the
    control's form onto the target's, a measurement copies the form into its
    record and a cpauli X XORs on the forms of its records."""
    exprs = {q: (0, 0) for q in range(circ.n_qubits)}
    rec_exprs = {}
    events = {q: [(0.0, True)] for q in range(circ.n_qubits)}
    labels = 0

    def update(q, new, t):
        if (new == (0, 0)) != (exprs[q] == (0, 0)):
            events[q].append((t, new == (0, 0)))
        exprs[q] = new

    for ins in circ.instructions:
        q, t = ins.qubits[0] if ins.qubits else None, ins.end
        if ins.op in ("input", "h"):
            labels += 1
            update(q, (1 << labels, 0), ins.start if ins.op == "input" else t)
        elif ins.op in ("x", "y"):
            update(q, (exprs[q][0], exprs[q][1] ^ 1), t)
        elif ins.op == "cx":
            (mc, cc), (mt, ct) = exprs[ins.qubits[0]], exprs[ins.qubits[1]]
            update(ins.qubits[1], (mc ^ mt, cc ^ ct), t)
        elif ins.op == "measure":
            rec_exprs[ins.record] = exprs[q]
        elif ins.op == "reset":
            update(q, (0, 0), t)
        elif ins.op == "cpauli" and ins.pauli == "X":
            m, c = exprs[q]
            for r in ins.parity:
                m ^= rec_exprs[r][0]
                c ^= rec_exprs[r][1]
            update(q, (m, c), t)
    return events


def idle_reference(circ):
    """Idle windows the direct way: per qubit and per segment between its
    sorted boundaries, scan every busy window for the midpoint and the zero
    events from the start for the content there.  The circuit must pass
    validation."""
    circ.validate()
    makespan = circ.makespan
    zero_events = unfolded_zero_timeline(circ)
    busy = {q: [] for q in range(circ.n_qubits)}
    for ins in circ.instructions:
        if ins.duration > 0:
            for q in ins.qubits:
                busy[q].append((ins.start, ins.end))
    out = []
    for q in range(circ.n_qubits):
        bounds = {0.0, makespan}
        for s, e in busy[q]:
            bounds.update((s, e))
        bounds.update(t for t, _ in zero_events[q])
        pts = sorted(b for b in bounds if 0.0 <= b <= makespan)
        for a, b in zip(pts, pts[1:]):
            if b - a < 1e-12:
                continue
            mid = (a + b) / 2
            operated = any(s <= mid < e for s, e in busy[q])
            zero = True
            for t, z in zero_events[q]:
                if t <= mid:
                    zero = z
                else:
                    break
            if not operated and not zero:
                if out and out[-1][0] == q and abs(out[-1][2] - a) < 1e-12:
                    out[-1] = (q, out[-1][1], b)
                else:
                    out.append((q, a, b))
    return out
