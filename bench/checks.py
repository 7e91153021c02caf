"""Correctness checks on a workload's outputs, computed apart from the program.

Nothing here imports trajvoi. The expected cell matrix, the row counts of
the degraded files, the projection, the Matérn-3/2 GP and the integral are
restated from the program's documented protocol and computed with dense
numpy linear algebra; the expected counts come from the input generator.
None of the checks compares against a stored copy of earlier output.

The reference GP is the model as defined, with no diagonal jitter. The
program adds a nominal 1e-10 sigma0^2 to every noise variance for
conditioning, which moves an integrated gain by up to about 1.3e-4 of its
value on these inputs (6e-10 when the reference adds the same jitter), so
gains are compared at a relative tolerance of 1e-3 (IG_RTOL). A GP route
without that jitter is held to the same tolerance.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import gen

SIGMA0 = 7500.0                       # gp.sigma0_m
BOUNDS_H = (0.01, 10.0)               # gp.length_scale_bounds_h
GRID_SIZE = 32                        # gp.grid_size
GRID_STEP = 60.0                      # integration.grid_step_s
DAY = 86400.0                         # integration.day_seconds
DEFAULT_SIGMA = 3.0                   # segmentation.default_sigma_m
REFERENCE = {                         # degradation and priors defaults
    "noise_levels_m": [3.0, 10.0, 100.0, 200.0, 300.0, 400.0],
    "truncation_ratios": [0.8, 0.6, 0.4, 0.2, 0.05],
    "subsampling_ratios": [0.8, 0.6, 0.4, 0.2, 0.05],
    "include_identity": True,
    "prior_perturbation_noise_m": [400.0, 300.0],
    "prior_truncation_ratios": [0.05, 0.2],
    "prior_subsampling_ratios": [0.05, 0.2],
    "prior_uninformative": True,
}

IG_RTOL = 1e-3
LML_RTOL = 1e-9          # of |LML|, for rounding between two dense routes
LML_ATOL = 1e-6          # nats
LONLAT_TOL = 1e-7        # degrees
TIME_TOL = 5e-4          # seconds: the CSV keeps milliseconds


# --- the documented matrix ---------------------------------------------------

def _matrix(cfg: dict):
    """(specs, priors) of a run config, with the documented defaults.

    A spec is (kind, param); a prior is (kind, param) or ("uninformative",
    None). Released priors pair with their own family and the identity
    release; the uninformative prior pairs with every release.
    """
    deg = cfg.get("degradation", {})
    pri = cfg.get("priors", {})

    def get(section, key, ref_key):
        return section.get(key, REFERENCE[ref_key])

    specs = [("identity", 1.0)] if get(deg, "include_identity",
                                        "include_identity") else []
    specs += [("perturbation", float(v))
              for v in get(deg, "noise_levels_m", "noise_levels_m")]
    specs += [("truncation", float(v))
              for v in get(deg, "truncation_ratios", "truncation_ratios")]
    specs += [("subsampling", float(v))
              for v in get(deg, "subsampling_ratios", "subsampling_ratios")]
    priors = [("uninformative", None)] if get(pri, "uninformative",
                                               "prior_uninformative") else []
    priors += [("perturbation", float(v)) for v in
               get(pri, "perturbation_noise_m", "prior_perturbation_noise_m")]
    priors += [("truncation", float(v)) for v in
               get(pri, "truncation_ratios", "prior_truncation_ratios")]
    priors += [("subsampling", float(v)) for v in
               get(pri, "subsampling_ratios", "prior_subsampling_ratios")]
    return specs, priors


def _label(kind, param):
    return "uninformative" if kind == "uninformative" else f"{kind}:{param:g}"


def _file_name(kind, param):
    return "identity.csv" if kind == "identity" else f"{kind}_{param:g}.csv"


def expected_cells(cfg: dict, trajectory_ids):
    """Report keys (trajectory_id, prior label, kind, param) of a config."""
    specs, priors = _matrix(cfg)
    cells = []
    for tid in trajectory_ids:
        for pk, pp in priors:
            for kind, param in specs:
                if pk == "uninformative" or kind in ("identity", pk):
                    cells.append((tid, _label(pk, pp), kind, param))
    return cells


def _known_fault(prior_label: str, kind: str, param: float) -> bool:
    """A truncation or subsampling release scored against a released prior
    of its own family with a larger ratio: the release is a strict subset
    of what the recipient already holds. The program scores it from the
    release alone and reports a negative gain."""
    if prior_label == "uninformative" or kind == "identity":
        return False
    pk, pp = prior_label.split(":")
    return pk == kind and kind in ("truncation", "subsampling") \
        and param < float(pp)


# --- reading outputs ---------------------------------------------------------

def read_csv(path: Path) -> dict:
    """Trajectory CSV -> {id: dict of numpy columns}, in file order."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    columns = list(zip(*(line.split(",") for line in lines[1:]))) \
        if len(lines) > 1 else [()] * len(header)
    col = dict(zip(header, columns))
    ids = np.asarray(col["trajectory_id"])
    out = {}
    if not ids.size:
        return out
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    ends = np.r_[starts[1:], ids.size]
    for a, b in zip(starts, ends):
        out[str(ids[a])] = {k: np.asarray(col[k][a:b], dtype=float)
                            for k in ("t", "x", "y", "sigma")}
    return out


def _config(ws, command) -> dict:
    return json.loads(Path(ws.configs[command]).read_text())


def _report(ws) -> list:
    text = (ws.out / "voi_report.jsonl").read_text()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _scored_ids(ws, command) -> list:
    limit = _config(ws, command).get("limit")
    ids = ws.expected["trajectory_ids"]
    return ids if limit is None else ids[:limit]


# --- operation accounting ----------------------------------------------------

def account(ws, command: str, code: int) -> dict:
    """Operations of one command invocation and how many failed.

    Operations are: each PLT file ingested, each degraded file written,
    each voi cell, each baselines row. An ingest or degrade invocation
    fails as a whole when its exit code is not 0. A cell fails when it is
    missing from the report, or when it is a known-fault cell (see
    ``_known_fault``) whose gain came out negative; a baselines row fails
    when it is missing.
    """
    if command == "ingest":
        n = ws.expected["files"]
        return {"attempted": n, "failed": n if code else 0}
    if command == "degrade":
        n = len(_matrix(_config(ws, "degrade"))[0])
        return {"attempted": n, "failed": n if code else 0}
    if command == "voi":
        cells = expected_cells(_config(ws, "voi"), _scored_ids(ws, "voi"))
        got = {(r["trajectory_id"], r["prior"], r["kind"], float(r["param"])):
               r["ig_bit_seconds"] for r in _report(ws)} if code in (0, 2) else {}
        failed = sum(got.get(c) is None
                     or (got[c] < 0 and _known_fault(*c[1:])) for c in cells)
        return {"attempted": len(cells), "failed": failed}
    ids = _scored_ids(ws, "baselines")
    rows = (ws.out / "baselines.csv").read_text().splitlines()[1:] \
        if code in (0, 2) else []
    present = {r.split(",", 1)[0] for r in rows}
    return {"attempted": len(ids),
            "failed": sum(tid not in present for tid in ids)}


# --- dense reference GP --------------------------------------------------------

def _matern(d_h, l):
    r = (math.sqrt(3.0) / l) * np.abs(d_h)
    return SIGMA0 ** 2 * (1.0 + r) * np.exp(-r)


def posterior_variance(t, sigma, query, l):
    """Latent variance at ``query`` given fixes at ``t`` with noise ``sigma``
    (seconds, meters), by a dense Cholesky factor and a general solve."""
    th = np.asarray(t) / 3600.0
    K = _matern(th[:, None] - th[None, :], l) + np.diag(np.asarray(sigma) ** 2)
    L = np.linalg.cholesky(K)
    V = np.linalg.solve(L, _matern(th[:, None] - np.asarray(query)[None, :] / 3600.0, l))
    return SIGMA0 ** 2 - np.einsum("ij,ij->j", V, V)


def log_evidence(t, channels, sigma, length_scales):
    """Summed log marginal likelihood of residual channels at each length
    scale, by a dense Cholesky factor and forward substitution."""
    th = np.asarray(t) / 3600.0
    D = np.abs(th[:, None] - th[None, :])
    R = np.column_stack(channels)
    noise = np.asarray(sigma) ** 2
    out = []
    for l in length_scales:
        K = _matern(D, l)
        K[np.diag_indices_from(K)] += noise
        L = np.linalg.cholesky(K)
        Y = np.empty_like(R)
        for i in range(R.shape[0]):
            Y[i] = (R[i] - L[i, :i] @ Y[:i]) / L[i, i]
        out.append(-0.5 * float(np.sum(Y * Y))
                   - R.shape[1] * (float(np.sum(np.log(np.diag(L))))
                                   + 0.5 * R.shape[0] * math.log(2.0 * math.pi)))
    return out


def _ols_residual(t, v):
    A = np.column_stack([np.ones_like(t), t - t.mean()])
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    return v - A @ coef


def _integrated_gain(prior_var, post_var, grid):
    f = np.log2(prior_var) - np.log2(post_var)     # two equal coordinates
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(grid)))


# --- checks --------------------------------------------------------------------

def check_outputs(ws):
    """Every check of a run's final outputs. Returns the problems found and
    the largest relative gap between a reported gain and the dense one."""
    problems = []
    trajectories = _check_ingest(ws, problems)
    degraded = _check_degraded(ws, trajectories, problems)
    ig_gap = _check_voi(ws, trajectories, degraded, problems)
    _check_baselines(ws, trajectories, problems)
    return problems, ig_gap


def _check_ingest(ws, problems) -> dict:
    exp = ws.expected
    manifest = json.loads((ws.out / "ingest_manifest.json").read_text())
    want = {"files_read": exp["files"], "lines_skipped": exp["malformed"],
            "measurements_retained": exp["retained"],
            "trajectories": exp["trajectories"]}
    for k, v in want.items():
        if manifest.get(k) != v:
            problems.append(f"manifest {k} = {manifest.get(k)}, generated {v}")

    trajectories = read_csv(ws.out / "trajectories.csv")
    ids = list(trajectories)
    if ids != exp["trajectory_ids"]:
        problems.append(f"trajectory ids {ids[:3]}... differ from generated "
                        f"{exp['trajectory_ids'][:3]}...")
        return trajectories
    sizes = [trajectories[i]["t"].size for i in ids]
    if sizes != exp["trajectory_sizes"]:
        problems.append("trajectory sizes differ from generated")
        return trajectories
    with np.load(ws.input / "expected.npz") as e:
        lon, lat, t = e["lon"], e["lat"], e["t"]
    x = np.concatenate([trajectories[i]["x"] for i in ids])
    y = np.concatenate([trajectories[i]["y"] for i in ids])
    got_lon, got_lat = gen.unproject(x, y)
    worst = max(np.max(np.abs(got_lon - lon)), np.max(np.abs(got_lat - lat)))
    if not worst <= LONLAT_TOL:
        problems.append(f"CSV points unproject {worst:.2e} deg from generated")
    got_t = np.concatenate([trajectories[i]["t"] for i in ids])
    if not np.max(np.abs(got_t - t)) <= TIME_TOL:
        problems.append("CSV times differ from generated")
    if any(np.any(trajectories[i]["sigma"] != DEFAULT_SIGMA) for i in ids):
        problems.append(f"CSV sigmas differ from {DEFAULT_SIGMA}")
    return trajectories


def _check_degraded(ws, trajectories, problems) -> dict:
    specs, _ = _matrix(_config(ws, "degrade"))
    degraded = {}
    for kind, param in specs:
        path = ws.out / "degraded" / _file_name(kind, param)
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        d = degraded[(kind, param)] = read_csv(path)
        if list(d) != list(trajectories):
            problems.append(f"{path.name}: trajectory ids differ")
            continue
        for tid, s in trajectories.items():
            z, n = d[tid], s["t"].size
            if kind == "identity":
                ok = all(np.array_equal(z[c], s[c]) for c in ("t", "x", "y", "sigma"))
            elif kind == "perturbation":
                ok = np.array_equal(z["t"], s["t"]) and np.all(z["sigma"] == param)
            elif kind == "truncation":
                m = max(1, math.floor(param * n))
                ok = z["t"].size == m and all(
                    np.array_equal(z[c], s[c][:m]) for c in ("t", "x", "y", "sigma"))
            else:
                ok = 1 <= z["t"].size <= n and np.all(np.isin(z["t"], s["t"]))
            if not ok:
                problems.append(f"{path.name}: trajectory {tid} is wrong")
                break
    subs = sorted(p for k, p in degraded if k == "subsampling")
    for lo, hi in zip(subs, subs[1:]):
        for tid in trajectories:
            if not np.all(np.isin(degraded[("subsampling", lo)][tid]["t"],
                                  degraded[("subsampling", hi)][tid]["t"])):
                problems.append(f"subsampling {lo:g} not nested in {hi:g} "
                                f"for {tid}")
                break
    return degraded


def _release(kind, param, tid, trajectories, degraded):
    """(t, sigma) of a release, from the degraded files where the program's
    random streams decide it and from the original where a rule does."""
    s = trajectories[tid]
    if kind == "identity":
        return s["t"], s["sigma"]
    if kind == "perturbation":
        return s["t"], np.full(s["t"].size, param)
    if kind == "truncation":
        m = max(1, math.floor(param * s["t"].size))
        return s["t"][:m], s["sigma"][:m]
    z = degraded.get((kind, param), {}).get(tid)
    if z is None:
        raise ValueError(f"no degraded file holds {kind} {param:g}")
    return z["t"], z["sigma"]


def _evidence(z, omega, prior_kind):
    """Release fused with the prior release: inverse-variance sums where
    both hold a fix at the same instant, and the union of fixes otherwise."""
    (zt, zs), (ot, os_) = z, omega
    if prior_kind == "perturbation":
        if not np.array_equal(zt, ot):
            raise ValueError("perturbation prior and release differ in time")
        return zt, (zs ** -2 + os_ ** -2) ** -0.5
    t, idx = np.unique(np.concatenate([zt, ot]), return_index=True)
    return t, np.concatenate([zs, os_])[idx]


def _check_voi(ws, trajectories, degraded, problems):
    cfg = _config(ws, "voi")
    errors = (ws.out / "voi_errors.jsonl").read_text().strip()
    if errors:
        problems.append(f"voi_errors.jsonl is not empty: {errors[:200]}")
    rows = {(r["trajectory_id"], r["prior"], r["kind"], float(r["param"])): r
            for r in _report(ws)}
    cells = expected_cells(cfg, _scored_ids(ws, "voi"))
    missing = [c for c in cells if c not in rows]
    if missing:
        problems.append(f"{len(missing)} expected cells missing, e.g. {missing[0]}")
    extra = set(rows) - set(cells)
    if extra:
        problems.append(f"{len(extra)} unexpected cells, e.g. {min(extra)}")

    day0 = float(ws.expected["day_start"])
    grid = day0 + GRID_STEP * np.arange(int(round(DAY / GRID_STEP)) + 1)
    cache = {}

    def variance(t, s, l, query_key, query):
        key = (t.tobytes(), s.tobytes(), l, query_key)
        if key not in cache:
            cache[key] = posterior_variance(t, s, query, l)
        return cache[key]

    worst = 0.0
    for cell in cells:
        row = rows.get(cell)
        if row is None:
            continue
        tid, prior, kind, param = cell
        ig = row["ig_bit_seconds"]
        fault = ig < 0 and _known_fault(prior, kind, param)
        if ig < 0 and not fault:
            problems.append(f"negative gain {ig:.6g} in {cell}")
        if row["length_scale_x"] != row["length_scale_y"]:
            problems.append(f"x and y length scales differ in {cell}")
        if (row["day_start"], row["day_end"]) != (day0, day0 + DAY):
            problems.append(f"window {row['day_start']}..{row['day_end']} is "
                            f"not the generated day in {cell}")
            continue
        if fault:
            continue
        try:
            z = _release(kind, param, tid, trajectories, degraded)
            if prior == "uninformative":
                ev, omega_t = z, np.empty(0)
            else:
                pk, pp = prior.split(":")
                omega = _release(pk, float(pp), tid, trajectories, degraded)
                ev, omega_t = _evidence(z, omega, pk), omega[0]
        except ValueError as e:
            problems.append(f"cannot rebuild the evidence of {cell}: {e}")
            continue
        l = row["length_scale_x"]
        data = np.union1d(ev[0], omega_t)
        query = np.union1d(grid, data[(data >= day0) & (data <= day0 + DAY)])
        qkey = data.tobytes()
        post = variance(ev[0], ev[1], l, qkey, query)
        pv = np.full(query.size, SIGMA0 ** 2) if prior == "uninformative" \
            else variance(omega[0], omega[1], l, qkey, query)
        ref = _integrated_gain(pv, post, query)
        err = abs(ig - ref) / max(abs(ref), 1.0)
        worst = max(worst, err)
        if not err <= IG_RTOL:
            problems.append(f"gain {ig:.9g} vs dense {ref:.9g} in {cell}")
    _check_families(rows, cells, problems)
    _check_length_scales(rows, trajectories, degraded, problems)
    return worst


def _check_families(rows, cells, problems):
    """At a released prior's shared length scale the gain orders by how
    informative the release is: lower noise, larger ratio, identity top."""
    by_family = {}
    for cell in cells:
        if cell in rows and cell[1] != "uninformative":
            by_family.setdefault(cell[:2], []).append(rows[cell])
    for (tid, prior), fam in by_family.items():
        if len({r["length_scale_x"] for r in fam}) != 1:
            problems.append(f"length scale not shared under {prior} for {tid}")
        pk = prior.split(":")[0]

        def informativeness(r):
            if r["kind"] == "identity":
                return math.inf
            return -r["param"] if pk == "perturbation" else r["param"]

        fam = sorted(fam, key=informativeness)
        scale = max(abs(r["ig_bit_seconds"]) for r in fam) or 1.0
        for a, b in zip(fam, fam[1:]):
            if a["ig_bit_seconds"] > b["ig_bit_seconds"] + 1e-9 * scale:
                problems.append(f"gain not monotone under {prior} for {tid}: "
                                f"{a['kind']} {a['param']:g} > "
                                f"{b['kind']} {b['param']:g}")
                break


def _check_length_scales(rows, trajectories, degraded, problems):
    """The reported length scale scores at least as high as every point of
    the 32-point log grid. Checked for every trajectory's identity cell
    under the uninformative prior (zero mean) and for its truncation and
    subsampling released priors (least-squares line mean); perturbation
    priors are drawn from a stream whose values no output holds."""
    grid = np.exp(np.linspace(math.log(BOUNDS_H[0]), math.log(BOUNDS_H[1]),
                              GRID_SIZE))
    for (tid, prior, kind, param), row in sorted(rows.items()):
        s = trajectories.get(tid)
        if s is None:
            continue
        if prior == "uninformative" and kind == "identity":
            t, sig = s["t"], s["sigma"]
            channels = [s["x"], s["y"]]
        elif prior != "uninformative" and kind == "identity" \
                and prior.split(":")[0] in ("truncation", "subsampling"):
            pk, pp = prior.split(":")
            if pk == "truncation":
                m = max(1, math.floor(float(pp) * s["t"].size))
                o = {c: s[c][:m] for c in ("t", "x", "y", "sigma")}
            else:
                o = degraded.get((pk, float(pp)), {}).get(tid)
                if o is None:
                    continue
            t, sig = o["t"], o["sigma"]
            channels = [_ols_residual(t, o["x"]), _ols_residual(t, o["y"])]
        else:
            continue
        l = row["length_scale_x"]
        if t.size < 2:
            if l != math.sqrt(BOUNDS_H[0] * BOUNDS_H[1]):
                problems.append(f"length scale {l} for a single fix in "
                                f"{tid} {prior}")
            continue
        if not BOUNDS_H[0] <= l <= BOUNDS_H[1]:
            problems.append(f"length scale {l} outside bounds for {tid} {prior}")
            continue
        best, *others = log_evidence(t, channels, sig, [l, *grid])
        for g, other in zip(grid, others):
            if other > best + LML_RTOL * abs(best) + LML_ATOL:
                problems.append(f"length scale {l:.6g} h scores {best:.9g}, "
                                f"below grid point {g:.6g} h at {other:.9g}, "
                                f"for {tid} {prior}")
                break


def _check_baselines(ws, trajectories, problems):
    lines = (ws.out / "baselines.csv").read_text().splitlines()
    header = lines[0].split(",")
    got = {r[0]: dict(zip(header, r)) for r in (ln.split(",") for ln in lines[1:])}
    for tid in _scored_ids(ws, "baselines"):
        r, s = got.get(tid), trajectories.get(tid)
        if r is None or s is None:
            problems.append(f"baselines row missing for {tid}")
            continue
        distance = float(np.sum(np.hypot(np.diff(s["x"]), np.diff(s["y"]))))
        err = float(r["correctness_err_m"])
        if int(r["size"]) != s["t"].size \
                or float(r["duration_s"]) != s["t"][-1] - s["t"][0] \
                or not math.isclose(float(r["distance_m"]), distance,
                                    rel_tol=1e-9) \
                or not (math.isfinite(err) and err > 0):
            problems.append(f"baselines row wrong for {tid}: {r}")
