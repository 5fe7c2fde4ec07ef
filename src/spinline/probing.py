"""Probe-state protocol: measure the line parameters from receiver outputs.

A prescribed family of two-term sender states is sent through the line and
the resulting receiver density matrices are inverted stage by stage:

  1. vacuum+single probes give the bare amplitudes onto nodes N-1 and N;
  2. single+pair probes give the receiver-pair amplitude, the diagonal
     environment bilinears and the mixed P parameters;
  3. pair+pair probes with real and with imaginary relative phase give the
     real and imaginary parts of the off-diagonal bilinears.

The protocol is exactly determined: one amplitude split (equal weights)
per probe suffices, and extraction reproduces the directly computed
parameter set to solver precision.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .basis import SenderState, sender_pairs
from .errors import ConditioningError, ExtractionError, InputError
from .receiver import LineParams, ReceiverState, receiver_operator, receiver_rho

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

    def to_sender_state(self, n_sender=4):
        # position of each term in x = (a0, a_single, a_double); a kind's
        # indices split into its first and its second term at ``cut``
        slot = {(): 0, **{(k,): k for k in range(1, n_sender + 1)}}
        slot.update({nm: 1 + n_sender + s for s, nm in enumerate(sender_pairs(n_sender))})
        cut = {"single": 0, "single-pair": 1, "pair-pair-real": 2, "pair-pair-imag": 2}
        if self.kind not in cut:
            raise ValueError(f"unknown probe kind {self.kind!r}")
        first, second = self.indices[: cut[self.kind]], self.indices[cut[self.kind] :]
        x = np.zeros(len(slot), complex)
        x[slot[first]] = SPLIT
        x[slot[second]] = 1j * SPLIT if self.kind == "pair-pair-imag" else SPLIT
        return SenderState(x[0].real, x[1 : 1 + n_sender], x[1 + n_sender :], n_sender)


def probe_set(n_sender=4):
    """The complete probe enumeration for a four-node sender (58 states)."""
    if n_sender != 4:
        raise InputError(f"probe protocol is enumerated for n_sender=4, got {n_sender}")
    pairs = sender_pairs(n_sender)
    probes = [ProbeState("single", (k,)) for k in range(1, n_sender + 1)]
    probes += [
        ProbeState("single-pair", (k, n, m))
        for k in range(1, n_sender + 1)
        for (n, m) in pairs
    ]
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            probes.append(ProbeState("pair-pair-real", pairs[a] + pairs[b]))
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            probes.append(ProbeState("pair-pair-imag", pairs[a] + pairs[b]))
    return probes


def simulate_probes(params, n_sender=4):
    """Receiver outputs for the full probe set on a line with known params."""
    probes = probe_set(n_sender)
    x = np.array([probe.to_sender_state(n_sender).vector for probe in probes])
    rho = receiver_rho(receiver_operator(params), x)
    return [(probe, ReceiverState(rho=r)) for probe, r in zip(probes, rho)]


def extract_params(probe_outputs, t0, n_sender=4):
    """Invert the probe outputs into the full parameter set.

    ``probe_outputs`` is a list of (ProbeState, ReceiverState) covering the
    full probe set, registered at time ``t0`` (the outputs do not carry
    it).  Raises ExtractionError listing the undetermined
    parameter parts when probes are missing, and ConditioningError when an
    inversion step would divide by a vanishing amplitude.
    """
    pairs = sender_pairs(n_sender)
    pidx = {p: i for i, p in enumerate(pairs)}
    n_pairs = len(pairs)
    by_probe = {(p.kind, p.indices): r.rho for p, r in probe_outputs}
    s2 = SPLIT * SPLIT  # product of the two probe amplitudes

    undetermined = []
    for k in range(1, n_sender + 1):
        if ("single", (k,)) not in by_probe:
            undetermined += [("p_N", (k,), "full"), ("p_Nm1", (k,), "full")]
    for k in range(1, n_sender + 1):
        for nm in pairs:
            if ("single-pair", (k,) + nm) not in by_probe:
                undetermined += [
                    ("P_Nm1", (k,) + nm, "full"),
                    ("P_N", (k,) + nm, "full"),
                ]
    for a in range(n_pairs):
        for b in range(a + 1, n_pairs):
            key = pairs[a] + pairs[b]
            if ("pair-pair-real", key) not in by_probe:
                undetermined += [
                    ("P_mm", key, "re"),
                    ("P_NN", key, "re"),
                    ("P_mN", key, "re"),
                    ("P_mN", pairs[b] + pairs[a], "re"),
                ]
            if ("pair-pair-imag", key) not in by_probe:
                undetermined += [
                    ("P_mm", key, "im"),
                    ("P_NN", key, "im"),
                    ("P_mN", key, "im"),
                    ("P_mN", pairs[b] + pairs[a], "im"),
                ]
    if undetermined:
        raise ExtractionError(undetermined)

    def guard(value, what):
        if abs(value) < DIVISION_GUARD:
            raise ConditioningError(f"{what} has magnitude {abs(value):.1e}")
        return value

    # stage 1: vacuum+single probes -> bare single-node amplitudes
    p_N = np.zeros(n_sender, complex)
    p_Nm1 = np.zeros(n_sender, complex)
    for k in range(1, n_sender + 1):
        rho = by_probe[("single", (k,))]
        p_Nm1[k - 1] = np.conj(rho[0, 1]) / s2
        p_N[k - 1] = np.conj(rho[0, 2]) / s2

    # best-conditioned reference node for the pair-related divisions
    k_ref = int(np.argmax(np.abs(p_N) ** 2 + np.abs(p_Nm1) ** 2)) + 1
    use_N = abs(p_N[k_ref - 1]) >= abs(p_Nm1[k_ref - 1])
    ref = guard(
        p_N[k_ref - 1] if use_N else p_Nm1[k_ref - 1],
        f"reference amplitude for node {k_ref}",
    )

    # stage 2: single+pair probes
    p_pair = np.zeros(n_pairs, complex)
    P_Nm1 = np.zeros((n_sender, n_pairs), complex)
    P_N = np.zeros((n_sender, n_pairs), complex)
    mm_diag = np.zeros(n_pairs)
    NN_diag = np.zeros(n_pairs)
    mN_diag = np.zeros(n_pairs, complex)
    for k in range(1, n_sender + 1):
        for s, nm in enumerate(pairs):
            rho = by_probe[("single-pair", (k,) + nm)]
            P_Nm1[k - 1, s] = rho[0, 1] / s2
            P_N[k - 1, s] = rho[0, 2] / s2
    for s, nm in enumerate(pairs):
        rho = by_probe[("single-pair", (k_ref,) + nm)]
        # cross term rho_{N or N-1, (N-1)N} = p_ref * conj(p_pair) * a_k a_nm
        cross = rho[2, 3] if use_N else rho[1, 3]
        p_pair[s] = np.conj(cross / (ref * s2))
        mm_diag[s] = (rho[1, 1].real - abs(p_Nm1[k_ref - 1]) ** 2 * s2) / s2
        NN_diag[s] = (rho[2, 2].real - abs(p_N[k_ref - 1]) ** 2 * s2) / s2
        mN_diag[s] = (
            rho[1, 2] - p_Nm1[k_ref - 1] * np.conj(p_N[k_ref - 1]) * s2
        ) / s2

    # stage 3: pair+pair probes -> off-diagonal bilinears
    P_mm = np.zeros((n_pairs, n_pairs), complex)
    P_NN = np.zeros((n_pairs, n_pairs), complex)
    P_mN = np.zeros((n_pairs, n_pairs), complex)
    np.fill_diagonal(P_mm, mm_diag)
    np.fill_diagonal(P_NN, NN_diag)
    np.fill_diagonal(P_mN, mN_diag)
    for a in range(n_pairs):
        for b in range(a + 1, n_pairs):
            key = pairs[a] + pairs[b]
            rho_r = by_probe[("pair-pair-real", key)]
            rho_i = by_probe[("pair-pair-imag", key)]
            diag_mm = (mm_diag[a] + mm_diag[b]) * s2
            diag_NN = (NN_diag[a] + NN_diag[b]) * s2
            diag_mN = (mN_diag[a] + mN_diag[b]) * s2
            re_mm = (rho_r[1, 1].real - diag_mm) / (2 * s2)
            im_mm = (rho_i[1, 1].real - diag_mm) / (2 * s2)
            re_NN = (rho_r[2, 2].real - diag_NN) / (2 * s2)
            im_NN = (rho_i[2, 2].real - diag_NN) / (2 * s2)
            P_mm[a, b] = re_mm + 1j * im_mm
            P_mm[b, a] = re_mm - 1j * im_mm
            P_NN[a, b] = re_NN + 1j * im_NN
            P_NN[b, a] = re_NN - 1j * im_NN
            # P_mN has no exchange symmetry: the real probe measures the sum
            # of the two orderings, the imaginary probe their difference
            s_plus = (rho_r[1, 2] - diag_mN) / s2
            s_minus = (rho_i[1, 2] - diag_mN) / (1j * s2)
            P_mN[a, b] = (s_plus - s_minus) / 2
            P_mN[b, a] = (s_plus + s_minus) / 2

    return LineParams(
        n_sender=n_sender,
        t0=float(t0),
        p_N=p_N,
        p_Nm1=p_Nm1,
        p_pair=p_pair,
        P_Nm1=P_Nm1,
        P_N=P_N,
        P_mm=P_mm,
        P_mN=P_mN,
        P_NN=P_NN,
    )


def probe_outputs_to_json(probe_outputs):
    """Serialize (probe, receiver state) pairs for external consumers."""
    records = []
    for probe, rec in probe_outputs:
        records.append(
            {
                "probe": {"kind": probe.kind, "indices": list(probe.indices)},
                "rho": {
                    "re": rec.rho.real.tolist(),
                    "im": rec.rho.imag.tolist(),
                },
            }
        )
    return json.dumps(records, indent=1)


def probe_outputs_from_json(text):
    """Inverse of :func:`probe_outputs_to_json`.

    Raises InputError for text that is not a JSON list of records with a
    probe kind and indices and a numeric 4x4 ``rho``.
    """
    outputs = []
    try:
        for rec in json.loads(text):
            probe = ProbeState(rec["probe"]["kind"], tuple(rec["probe"]["indices"]))
            rho = np.asarray(rec["rho"]["re"], float) + 1j * np.asarray(rec["rho"]["im"], float)
            if rho.shape != (4, 4):
                raise ValueError(f"rho must be 4x4, got {rho.shape}")
            outputs.append((probe, ReceiverState(rho=rho)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed probe outputs ({type(exc).__name__}: {exc})") from exc
    return outputs
