"""Seeded request streams for the benchmark workloads.

Each workload is an endless cycle over a fixed pattern of request classes;
only the values inside each request come from the seed.  Any prefix of a
stream therefore has the same class mix, so a run that stops on a deadline
measures the same mix whatever the seed, and the variation left between
seeds is the variation of the program on different inputs of one class.

Inputs are written as files under a work directory; the program receives
only those files (and argv).  The expectations stored with each request are
computed here, independently of the program, except for the grid-oracle
lower bound of 3-point distances, which calls the program's oracle once in
set-up.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Malformed inputs that the CLI handles as documented: a JSON error with exit
# code 1 or 2.  The timed cli-cold stream cycles over these.
MALFORMED_KINDS = ("bad.schema", "bad.state-index", "bad.json", "bad.label", "bad.box")

# Malformed inputs that the CLI handled wrongly when this was written: it exited
# 0 and printed NaN tokens or a plausible answer instead of a JSON error.  A
# timed stream must not fail, so these run once per cli-cold run, untimed,
# and every run reports whether each defect is still there.
KNOWN_DEFECTS = ("bad.nan-causal", "bad.inf-causal", "bad.nan-fluctuate")


@dataclass
class Request:
    """One request: a CLI argv (or a direct library call) and its expectations."""

    kind: str
    command: str
    argv: list | None = None
    expect: dict = field(default_factory=dict)


def _cx(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _matrix(m) -> list:
    return [[_cx(x) for x in row] for row in np.asarray(m, dtype=complex)]


def diagonal_triple_doc(d_f: np.ndarray) -> dict:
    """Triple document of the commutative n-point space with internal Dirac d_f."""
    n = d_f.shape[0]
    return {
        "dim_H": n,
        "generators": [_matrix(np.diag(row)) for row in np.eye(n)],
        "D_F": _matrix(d_f),
        "J_F": None,
        "gamma_F": None,
        "labels": [f"p{k}" for k in range(n)],
    }


def two_point_dirac(m: complex) -> np.ndarray:
    return np.array([[0.0, m], [np.conj(m), 0.0]], dtype=complex)


def random_dirac(rng, n: int, *, isolate_last: bool = False) -> np.ndarray:
    """Symmetric D_F with couplings drawn from [0.5, 1.5] and a zero diagonal.

    Real positive couplings keep the solve time of one triple within about
    0.2-0.4 of its mean.  With complex Gaussian couplings it varies by
    0.3-0.85 of its mean, and throughput varied by 12% from seed to seed.
    """
    d = np.zeros((n, n), dtype=complex)
    iu = np.triu_indices(n, 1)
    d[iu] = rng.uniform(0.5, 1.5, size=iu[0].size)
    if isolate_last:
        d[:, n - 1] = 0.0
    d = np.triu(d, 1)
    return d + d.conj().T


def infinite_expected(d_f: np.ndarray, weights_a, weights_b) -> bool:
    """The distance is +inf iff a connected component of D_F's graph carries
    net weight: then the component's indicator is a free direction."""
    n = d_f.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if d_f[i, j] != 0:
                parent[find(i)] = find(j)
    net = {}
    for k in range(n):
        net[find(k)] = net.get(find(k), 0.0) + float(weights_a[k] - weights_b[k])
    return any(abs(v) > 1e-12 for v in net.values())


def _mixed(rng, n: int) -> list:
    w = rng.dirichlet(np.ones(n))
    w[-1] = 1.0 - float(np.sum(w[:-1]))
    return [float(x) for x in w]


def _pure(index: int, n: int) -> list:
    return [1.0 if k == index else 0.0 for k in range(n)]


def _state_arg(weights: list) -> str:
    if sorted(weights) == [0.0] * (len(weights) - 1) + [1.0]:
        return str(weights.index(1.0))
    return json.dumps(weights)


class _Writer:
    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def json(self, doc) -> str:
        return self.text(json.dumps(doc))

    def text(self, text: str) -> str:
        self.count += 1
        path = self.directory / f"in{self.count:05d}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)


def _event(rng, scale: float = 1.0) -> dict:
    return {"t": float(rng.uniform(-scale, scale)),
            "x": [float(v) for v in rng.uniform(-scale, scale, size=3)]}


def _event_pair(rng) -> tuple:
    """Random events; about half of the pairs are causally ordered."""
    a = _event(rng)
    dt = float(rng.uniform(-0.5, 3.0))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    dx = direction * rng.uniform(0.0, 3.0)
    b = {"t": a["t"] + dt, "x": [float(u + v) for u, v in zip(a["x"], dx)]}
    return a, b


def _mass(rng, allow_zero: bool = False) -> list:
    if allow_zero:
        return [0.0, 0.0]
    return [float(rng.uniform(0.3, 3.0)) * float(rng.choice([-1.0, 1.0])),
            float(rng.uniform(-1.0, 1.0))]


# --- request builders --------------------------------------------------------

def distance_request(w: _Writer, kind: str, d_f: np.ndarray, a: list, b: list,
                     oracle_step: float | None = None) -> Request:
    path = w.json(diagonal_triple_doc(d_f))
    argv = ["distance", "--triple", path, "--state-a", _state_arg(a),
            "--state-b", _state_arg(b)]
    if oracle_step is not None:
        argv += ["--oracle-step", repr(oracle_step)]
    expect = {"d_f": d_f, "a": a, "b": b, "oracle_step": oracle_step,
              "inf": infinite_expected(d_f, a, b)}
    if d_f.shape[0] == 2 and not expect["inf"]:
        expect["analytic"] = abs(a[0] - b[0]) / abs(d_f[0, 1])
    return Request(kind, "distance", argv, expect)


def causal_request(w: _Writer, rng, kind: str, *, mixed: bool, massless: bool = False
                   ) -> Request:
    ev_a, ev_b = _event_pair(rng)
    doc = {"event_a": ev_a, "event_b": ev_b, "m": _mass(rng, massless)}
    if mixed:
        xi = float(rng.uniform())
        doc["xis"] = [xi, xi if massless and rng.uniform() < 0.5 else float(rng.uniform())]
    else:
        doc["sheets"] = [int(rng.integers(2)), int(rng.integers(2))]
    return Request(kind, "causal", ["causal", w.json(doc)], {"doc": doc})


def affine_cone_request(w: _Writer, rng, kind: str) -> Request:
    k = [float(v) for v in rng.normal(size=4)]
    k[0] = abs(k[0]) * 2.0 if rng.uniform() < 0.5 else k[0]
    return Request(kind, "cone", ["cone", w.json({"k": k})], {"doc": {"k": k}})


def box_cone_request(w: _Writer, rng, kind: str, n: int) -> Request:
    box = {name: sorted(float(v) for v in rng.uniform(-2.0, 2.0, size=2))
           for name in ("t", "x", "y", "z")}
    box["n"] = n
    doc = {"k0": [float(v) for v in rng.normal(size=4)],
           "k1": [float(v) for v in rng.normal(size=4)],
           "c0": float(rng.normal()), "c1": float(rng.normal()),
           "m": _mass(rng), "box": box}
    return Request(kind, "cone", ["cone", w.json(doc)], {"doc": doc})


def scan_request(w: _Writer, rng, kind: str, steps: int) -> Request:
    doc = {"m": _mass(rng),
           "t_min": float(rng.uniform(-0.5, 0.5)), "t_max": float(rng.uniform(2.0, 4.0)),
           "t_steps": steps,
           "r_min": 0.0, "r_max": float(rng.uniform(2.0, 4.0)), "r_steps": steps}
    return Request(kind, "lightcone-scan", ["lightcone-scan", w.json(doc)], {"doc": doc})


def curve_oracle_request(rng, kind: str) -> Request:
    """A direct library call of proper_time_curve_oracle on a timelike pair."""
    a = _event(rng)
    r = float(rng.uniform(0.0, 2.0))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    b = {"t": a["t"] + r + float(rng.uniform(0.1, 2.0)),
         "x": [float(u + r * v) for u, v in zip(a["x"], direction)]}
    return Request(kind, "curve-oracle", None, {"event_a": a, "event_b": b})


def validate_request(w: _Writer, kind: str, doc: dict, all_passed: bool,
                     names: tuple) -> Request:
    return Request(kind, "validate", ["validate", "--triple", w.json(doc)],
                   {"all_passed": all_passed, "names": names})


def classify_request(w: _Writer, rng, kind: str, shell: str) -> Request:
    m = _mass(rng)
    triple = w.json(diagonal_triple_doc(two_point_dirac(complex(*m))))
    p = [float(v) for v in rng.normal(size=3)]
    mass = abs(complex(*m))
    e_shell = math.sqrt(sum(v * v for v in p) + mass * mass)
    energy = {"on": e_shell, "above": e_shell + 0.5, "below": 0.5 * e_shell}[shell]
    doc = {"triple_file": triple, "E": energy, "p": p,
           "internal_index": int(rng.integers(2))}
    return Request(kind, "classify", ["classify", w.json(doc)],
                   {"doc": doc, "mass": mass, "shell": shell})


def fluctuate_request(w: _Writer, rng, kind: str, broken: bool) -> Request:
    doc = {"m_e": _mass(rng)}
    if broken:
        doc.update(v=float(rng.uniform(0.5, 2.0)), h=float(rng.normal(scale=0.3)))
    else:
        doc.update(h1=[float(v) for v in rng.normal(size=2)],
                   h2=[float(v) for v in rng.normal(size=2)])
    return Request(kind, "fluctuate", ["fluctuate", w.json(doc)], {"doc": doc})


EW_LABELS = ("nu_R", "e_R", "nu_L", "e_L", "anti_nu_R", "anti_e_R", "anti_nu_L", "anti_e_L")


def ew_dispersion_request(w: _Writer, rng, kind: str, label: str) -> Request:
    doc = {"m_e": _mass(rng), "v": float(rng.uniform(0.5, 2.0)),
           "h": float(rng.normal(scale=0.3)),
           "p": [float(v) for v in rng.normal(size=3)], "state": label}
    return Request(kind, "ew-dispersion", ["ew-dispersion", w.json(doc)], {"doc": doc})


# --- workloads ---------------------------------------------------------------

def _two_point_pair(rng):
    if rng.uniform() < 0.5:
        return _pure(0, 2), _pure(1, 2)
    return _mixed(rng, 2), _mixed(rng, 2)


def _cold_valid(w: _Writer, rng, command: str, variant: int, ew_doc: dict) -> Request:
    if command == "validate":
        if variant % 3 == 0:
            return validate_request(w, "validate.electroweak", ew_doc, True,
                                    ("dirac_hermitian", "algebra_closure", "order_zero",
                                     "first_order", "grading"))
        d_f = two_point_dirac(complex(*_mass(rng)))
        if variant % 3 == 1:
            return validate_request(w, "validate.two-point", diagonal_triple_doc(d_f),
                                    True, ("dirac_hermitian", "algebra_closure"))
        d_f[1, 0] *= 2.0
        return validate_request(w, "validate.non-hermitian", diagonal_triple_doc(d_f),
                                False, ("dirac_hermitian", "algebra_closure"))
    if command == "distance":
        a, b = _two_point_pair(rng)
        return distance_request(w, "distance.n2", two_point_dirac(complex(*_mass(rng))),
                                a, b)
    if command == "causal":
        return causal_request(w, rng, "causal.mixed" if variant % 2 else "causal.pure",
                              mixed=bool(variant % 2))
    if command == "cone":
        if variant % 2:
            return box_cone_request(w, rng, "cone.box2", 2)
        return affine_cone_request(w, rng, "cone.affine")
    if command == "lightcone-scan":
        return scan_request(w, rng, "scan.10", 10)
    if command == "classify":
        return classify_request(w, rng, "classify", ("on", "above", "below")[variant % 3])
    if command == "fluctuate":
        return fluctuate_request(w, rng, "fluctuate", broken=bool(variant % 2))
    return ew_dispersion_request(w, rng, "ew-dispersion", EW_LABELS[variant % 8])


def _cold_malformed(w: _Writer, rng, kind: str) -> Request:
    """One malformed input of the given kind, with the error codes it expects."""
    ev_a, ev_b = _event_pair(rng)
    if kind == "bad.schema":
        doc = {"event_a": ev_a, "event_b": ev_b, "m": _mass(rng), "sheets": [0, 1],
               "speed": 1.0}
        argv, codes = ["causal", w.json(doc)], (2,)
    elif kind == "bad.nan-causal":
        text = json.dumps({"event_a": ev_a, "event_b": ev_b, "m": [math.nan, 0.0],
                           "sheets": [0, 1]})
        argv, codes = ["causal", w.text(text)], (1, 2)
    elif kind == "bad.state-index":
        path = w.json(diagonal_triple_doc(two_point_dirac(complex(*_mass(rng)))))
        argv, codes = ["distance", "--triple", path, "--state-a", "0",
                       "--state-b", str(int(rng.integers(2, 9)))], (1,)
    elif kind == "bad.json":
        argv, codes = ["cone", w.text('{"k": [1.0, 0.0, 0.0')], (2,)
    elif kind == "bad.inf-causal":
        text = json.dumps({"event_a": ev_a, "event_b": ev_b, "m": [math.inf, 0.0],
                           "xis": [float(rng.uniform()), float(rng.uniform())]})
        argv, codes = ["causal", w.text(text)], (1, 2)
    elif kind == "bad.label":
        doc = {"m_e": _mass(rng), "v": 1.0, "h": 0.0, "p": [0.0, 0.0, 1.0], "state": "mu_L"}
        argv, codes = ["ew-dispersion", w.json(doc)], (1,)
    elif kind == "bad.nan-fluctuate":
        text = json.dumps({"m_e": [math.nan, 0.0], "v": 1.0, "h": float(rng.normal())})
        argv, codes = ["fluctuate", w.text(text)], (1, 2)
    else:
        doc = {"k0": [1.0, 0.0, 0.0, 0.0], "k1": [1.0, 0.0, 0.0, 0.0], "c0": 0.0,
               "c1": 0.0, "m": _mass(rng),
               "box": {"t": [0.0, 1.0], "x": [0.0, 1.0], "y": [0.0, 1.0], "z": [0.0, 1.0],
                       "n": 9}}
        argv, codes = ["cone", w.json(doc)], (2,)
    return Request(kind, argv[0], argv, {"error_codes": codes})


COLD_COMMANDS = ("validate", "distance", "causal", "cone", "lightcone-scan", "classify",
                 "fluctuate", "ew-dispersion")


def cli_cold(w: _Writer, rng, length: int, ew_doc: dict) -> list:
    """Blocks of the 8 subcommands in seeded order, then one malformed input."""
    out = []
    block = 0
    while len(out) < length:
        for c in rng.permutation(len(COLD_COMMANDS)):
            out.append(_cold_valid(w, rng, COLD_COMMANDS[c], block, ew_doc))
        out.append(_cold_malformed(w, rng, MALFORMED_KINDS[block % len(MALFORMED_KINDS)]))
        block += 1
    return out[:length]


def known_defect_requests(seed: int, directory: Path) -> list:
    """One request of each KNOWN_DEFECTS kind, for the untimed defect probe."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, len(WORKLOADS)])
    writer = _Writer(directory)
    return [_cold_malformed(writer, rng, kind) for kind in KNOWN_DEFECTS]


# Small requests (n = 2 and the split 3-point space, about 15 ms each) fill
# 13 of 20 slots, and all but the oracle one take the same time, so the
# median falls well inside one group of like requests.  The n = 8 solves are
# the slowest class and number about 30 in a run, so the tail sample (the
# 11th largest) falls inside that class.  Pure-state solves at n >= 5 are
# left out: their time varies more from one triple to the next.
DISTANCE_PATTERN = (
    "n2.pure", "n3.mixed", "n2.mixed", "n8.mixed", "n2.massless", "n3.split", "n5.mixed",
    "n2.pure", "n3.pure", "n2.mixed", "n8.mixed", "n2.massless", "n3.split", "n2.oracle",
    "n5.mixed", "n2.pure", "n3.oracle", "n2.mixed", "n2.massless", "n3.split",
)


def _oracle_step(d_f: np.ndarray) -> float:
    """A step giving the 3-point oracle 150 points along its longest axis."""
    gens = np.eye(d_f.shape[0])[:-1]
    nus = [np.linalg.svd(d_f * (g[None, :] - g[:, None]), compute_uv=False)[0] for g in gens]
    return float(2.1 / min(nus) / 150)


def _distance(w: _Writer, rng, slot: str) -> Request:
    size, variant = slot.split(".")
    n = int(size[1:])
    kind = f"distance.{slot}"
    if n == 2:
        m = 0.0 if variant == "massless" else complex(*_mass(rng))
        if variant == "pure":
            a, b = _pure(0, 2), _pure(1, 2)
        else:
            a, b = _mixed(rng, 2), _mixed(rng, 2)
        return distance_request(w, kind, two_point_dirac(m), a, b,
                                1e-3 if variant == "oracle" else None)
    d_f = random_dirac(rng, n, isolate_last=variant == "split")
    if variant == "pure":
        i, j = rng.choice(n, size=2, replace=False)
        a, b = _pure(int(i), n), _pure(int(j), n)
    elif n == 3:
        a, b = _pure(int(rng.integers(n)), n), _mixed(rng, n)
    else:
        a, b = _mixed(rng, n), _mixed(rng, n)
    return distance_request(w, kind, d_f, a, b,
                            _oracle_step(d_f) if variant == "oracle" else None)


def warm_distance(w: _Writer, rng, length: int) -> list:
    return [_distance(w, rng, DISTANCE_PATTERN[i % len(DISTANCE_PATTERN)])
            for i in range(length)]


# The 12 small requests (causal and affine cone, about 15 ms each) hold the
# median; the tail sample (the 11th largest) falls among the n = 8 boxes,
# since a run holds about 8 of them and 8 of the 300x300 scans.
CAUSAL_PATTERN = (
    "scan.300", "causal.pure", "cone.affine", "cone.box8", "causal.mixed", "scan.100",
    "causal.pure-massless", "cone.affine", "cone.box5", "causal.pure", "curve-oracle",
    "causal.mixed", "cone.affine", "scan.30", "causal.mixed-massless", "curve-oracle",
    "causal.pure", "cone.affine", "cone.box3", "causal.mixed",
)


def _causal(w: _Writer, rng, slot: str) -> Request:
    if slot.startswith("scan."):
        return scan_request(w, rng, slot, int(slot[5:]))
    if slot.startswith("cone.box"):
        return box_cone_request(w, rng, slot, int(slot[8:]))
    if slot == "cone.affine":
        return affine_cone_request(w, rng, slot)
    if slot == "curve-oracle":
        return curve_oracle_request(rng, slot)
    return causal_request(w, rng, slot, mixed=slot.startswith("causal.mixed"),
                          massless=slot.endswith("massless"))


def warm_causal(w: _Writer, rng, length: int) -> list:
    return [_causal(w, rng, CAUSAL_PATTERN[i % len(CAUSAL_PATTERN)]) for i in range(length)]


# Stream lengths: about twice what one run at the default length uses on a
# 2-core machine, so that requests repeat only on a much faster program.
WORKLOADS = {
    "cli-cold": (cli_cold, 240),
    "warm-distance": (warm_distance, 400),
    "warm-causal": (warm_causal, 320),
}


def build(name: str, seed: int, directory: Path, ew_doc: dict, length: int | None = None
          ) -> list:
    """The request stream of workload name for seed, with inputs under directory."""
    make, default_length = WORKLOADS[name]
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(name)])
    writer = _Writer(directory)
    n = default_length if length is None else length
    if name == "cli-cold":
        return make(writer, rng, n, ew_doc)
    return make(writer, rng, n)


def warmup_requests(directory: Path, ew_doc: dict) -> list:
    """One small request per subcommand, to finish lazy set-up before timing."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(12345)
    writer = _Writer(directory)
    reqs = [_cold_valid(writer, rng, c, 0, ew_doc) for c in COLD_COMMANDS]
    reqs.append(curve_oracle_request(rng, "curve-oracle"))
    return reqs
