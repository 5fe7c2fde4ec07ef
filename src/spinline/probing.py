"""Probe-state protocol: measure the line parameters from receiver outputs.

A prescribed family of two-term sender states, :func:`probe_set`, is sent
through the line; its order is the one probe layout.  A probe's state is a
plain control vector x (:meth:`ProbeState.controls`), and
:func:`simulate_probes` evaluates all of them at once.  Each probe output
is a (ProbeState, 4x4 receiver matrix) pair, the matrix a plain array
(JSON: :func:`probe_outputs_to_json`).  The receiver matrices are stacked
in probe-set order and inverted stage by stage, each stage as array
expressions over its block:

  1. vacuum+single probes give the bare amplitudes onto nodes N-1 and N;
  2. single+pair probes give the mixed P parameters, and those of the
     best-conditioned node the receiver-pair amplitude and the diagonal
     environment bilinears;
  3. pair+pair probes with real and with imaginary relative phase give the
     real and imaginary parts of the off-diagonal bilinears.

The protocol is exactly determined: each equal-weight probe fixes its own
parameter parts (:func:`_determines`), and extraction reproduces the
directly computed parameter set to solver precision.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import control_slices, sender_pairs
from .errors import (ConditioningError, ExtractionError, InputError, check_keys, malformed,
                     numbers)
from .receiver import LineParams, assemble_rho

PROBE_KINDS = ("single", "single-pair", "pair-pair-real", "pair-pair-imag")
SPLIT = 1.0 / math.sqrt(2.0)
DIVISION_GUARD = 1e-13


@dataclass(frozen=True)
class ProbeState:
    """One probe: a two-term sender state with known real amplitudes.

    ``indices`` is (k,) for kind "single", (k, n, m) for "single-pair" and
    (k, l, n, m) for the two pair-pair kinds.  Both amplitudes equal
    1/sqrt(2); the imaginary kind multiplies the second term by i.
    """

    kind: str
    indices: tuple

    def controls(self):
        """The probe's control vector x of a four-node sender, the one sender
        size :func:`probe_set` enumerates."""
        # position of each term in x; a kind's indices split into its first
        # and its second term at ``cut``
        single, pair = control_slices(4)
        slot = {(): 0}
        slot.update(zip([(k,) for k in range(1, 5)], range(single.start, single.stop)))
        slot.update(zip(sender_pairs(4), range(pair.start, pair.stop)))
        cut = {"single": 0, "single-pair": 1, "pair-pair-real": 2, "pair-pair-imag": 2}
        if self.kind not in cut:
            raise InputError(f"unknown probe kind {self.kind!r}")
        first, second = self.indices[: cut[self.kind]], self.indices[cut[self.kind] :]
        x = np.zeros(pair.stop, complex)
        x[slot[first]] = SPLIT
        x[slot[second]] = 1j * SPLIT if self.kind == "pair-pair-imag" else SPLIT
        return x


def probe_set(n_sender=4):
    """The complete probe enumeration for a four-node sender (58 states): the
    4 singles, the 4 x 6 single-pair probes in (node, pair) order, then the
    15 real and the 15 imaginary pair-pair probes over the pairs a < b."""
    if n_sender != 4:
        raise InputError(f"probe protocol is enumerated for n_sender=4, got {n_sender}")
    pairs = sender_pairs(n_sender)
    nodes = range(1, n_sender + 1)
    probes = [ProbeState("single", (k,)) for k in nodes]
    probes += [ProbeState("single-pair", (k, *nm)) for k in nodes for nm in pairs]
    probes += [ProbeState(kind, kl + nm) for kind in PROBE_KINDS[2:]
               for kl, nm in itertools.combinations(pairs, 2)]
    return probes


def _determines(probe):
    """The parameter parts (kind, indices, part) that only ``probe`` fixes."""
    i = probe.indices
    if probe.kind == "single":
        return [("p_N", i, "full"), ("p_Nm1", i, "full")]
    if probe.kind == "single-pair":
        return [("P_Nm1", i, "full"), ("P_N", i, "full")]
    part = "re" if probe.kind == "pair-pair-real" else "im"
    return [(kind, i, part) for kind in ("P_mm", "P_NN", "P_mN")] + [("P_mN", i[2:] + i[:2], part)]


def simulate_probes(params):
    """Receiver outputs (probe, 4x4 receiver matrix) for the full probe set on
    a line with known params; InputError unless the line has a four-node
    sender."""
    probes = probe_set(params.n_sender)
    x = np.array([probe.controls() for probe in probes])
    return list(zip(probes, assemble_rho(params, x)))


def extract_params(probe_outputs, t0):
    """Invert the probe outputs into the full parameter set.

    ``probe_outputs`` is a list of (ProbeState, 4x4 receiver matrix) covering
    :func:`probe_set` in any order, registered at time ``t0`` (the outputs
    do not carry it).  The receiver matrices are stacked in ``probe_set``
    order, and each stage reads its block of that stack as arrays.  Raises
    InputError naming the first probe that is not in :func:`probe_set` or
    appears twice, ExtractionError listing the parts that the missing
    probes would fix, in ``probe_set`` order, and ConditioningError when
    the reference amplitude of stage 2 vanishes.
    """
    probes = probe_set()
    n_sender = sum(p.kind == "single" for p in probes)  # one single probe per sender node
    known, by_probe = set(probes), {}
    for p, r in probe_outputs:
        if p not in known or p in by_probe:
            what = "appears twice" if p in by_probe else "is not in the probe set"
            raise InputError(f"probe {p.kind} {p.indices} {what}")
        by_probe[p] = r
    undetermined = [part for p in probes if p not in by_probe for part in _determines(p)]
    if undetermined:
        raise ExtractionError(undetermined)
    n_pairs = len(sender_pairs(n_sender))
    rho = np.array([by_probe[p] for p in probes], dtype=complex)
    m = n_sender * (1 + n_pairs)
    single, single_pair = rho[:n_sender], rho[n_sender:m].reshape(n_sender, n_pairs, 4, 4)
    rho_r, rho_i = rho[m:].reshape(2, -1, 4, 4)
    s2 = SPLIT * SPLIT  # product of the two probe amplitudes

    # stage 1: vacuum+single probes -> bare single-node amplitudes
    p_Nm1 = np.conj(single[:, 0, 1]) / s2
    p_N = np.conj(single[:, 0, 2]) / s2

    # best-conditioned reference node for the pair-related divisions
    k = int(np.argmax(np.abs(p_N) ** 2 + np.abs(p_Nm1) ** 2))
    use_N = abs(p_N[k]) >= abs(p_Nm1[k])
    ref = p_N[k] if use_N else p_Nm1[k]
    if abs(ref) < DIVISION_GUARD:
        raise ConditioningError(f"reference amplitude for node {k + 1} has magnitude {abs(ref):.1e}")

    # stage 2: single+pair probes, and the row of the reference node
    P_Nm1 = single_pair[:, :, 0, 1] / s2
    P_N = single_pair[:, :, 0, 2] / s2
    row = single_pair[k]
    # cross term rho_{N or N-1, (N-1)N} = p_ref * conj(p_pair) * a_k a_nm
    cross = row[:, 2, 3] if use_N else row[:, 1, 3]
    p_pair = np.conj(cross / (ref * s2))
    mN_diag = (row[:, 1, 2] - p_Nm1[k] * np.conj(p_N[k]) * s2) / s2

    # stage 3: pair+pair probes over the pairs a < b -> off-diagonal bilinears
    a, b = np.triu_indices(n_pairs, 1)
    P = {}
    for name, r, amp in (("P_mm", 1, p_Nm1[k]), ("P_NN", 2, p_N[k])):
        diag = (row[:, r, r].real - abs(amp) ** 2 * s2) / s2
        pair_diag = (diag[a] + diag[b]) * s2
        re = (rho_r[:, r, r].real - pair_diag) / (2 * s2)
        im = (rho_i[:, r, r].real - pair_diag) / (2 * s2)
        P[name] = np.diag(diag).astype(complex)
        P[name][a, b] = re + 1j * im
        P[name][b, a] = re - 1j * im
    # P_mN has no exchange symmetry: the real probe measures the sum of the
    # two orderings, the imaginary probe their difference
    pair_diag = (mN_diag[a] + mN_diag[b]) * s2
    s_plus = (rho_r[:, 1, 2] - pair_diag) / s2
    s_minus = (rho_i[:, 1, 2] - pair_diag) / (1j * s2)
    P["P_mN"] = np.diag(mN_diag)
    P["P_mN"][a, b] = (s_plus - s_minus) / 2
    P["P_mN"][b, a] = (s_plus + s_minus) / 2

    return LineParams.from_kinds(t0, p_N=p_N, p_Nm1=p_Nm1, p_pair=p_pair,
                                 P_Nm1=P_Nm1, P_N=P_N, **P)


def probe_outputs_to_json(probe_outputs):
    """Serialize (probe, receiver matrix) pairs for external consumers."""
    records = [{"probe": {"kind": probe.kind, "indices": list(probe.indices)},
                "rho": {"re": rho.real.tolist(), "im": rho.imag.tolist()}}
               for probe, rho in probe_outputs]
    return json.dumps(records, sort_keys=True)


def probe_outputs_from_json(text):
    """Inverse of :func:`probe_outputs_to_json`.

    Raises InputError for text that is not a JSON list of records with a
    probe kind, integer indices and a numeric 4x4 ``rho``, for a key beyond
    those :func:`probe_outputs_to_json` writes, and for a ``rho`` with a
    non-finite entry (JSON readers accept NaN and Infinity).
    """
    outputs = []
    with malformed("malformed probe outputs"):
        for j, rec in enumerate(json.loads(text)):
            check_keys(rec, {"probe", "rho"}, f"record {j}")
            check_keys(rec["probe"], {"kind", "indices"}, f"record {j} probe")
            probe = ProbeState(rec["probe"]["kind"], tuple(rec["probe"]["indices"]))
            if not all(type(i) is int for i in probe.indices):
                raise ValueError(f"probe indices must be integers, got {list(probe.indices)}")
            check_keys(rec["rho"], {"re", "im"}, f"record {j} rho")
            re, im = (numbers(rec["rho"][part], f"record {j} rho.{part}") for part in ("re", "im"))
            rho = re + 1j * im
            if rho.shape != (4, 4):
                raise ValueError(f"rho must be 4x4, got {rho.shape}")
            outputs.append((probe, rho))
    bad = next((p for p, rho in outputs if not np.isfinite(rho).all()), None)
    if bad is not None:
        raise InputError(f"probe {bad.kind} {bad.indices}: rho has a non-finite entry")
    return outputs
