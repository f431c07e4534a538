"""Print sha256(results_bytes())[:8] of every shipped config and benchmark workload, and eight digests of the library.

Usage, from any directory:

    python scripts/results_hashes.py [--seeds 7 101]

Each config under configs/ runs without its output section, so no report is
written.  Each workload of bench/workloads.py runs at every seed given; that
module is only imported, without writing its bytecode cache.  The line "near
digest" hashes sample_near_points' output on fixed instances under both
metrics (see near_digest): a workload's hash can stay put when its near
points move.  So can an iop-* workload's when its trials move: its results
hold the IOP counts and only the unsatisfied trials' worst_cases, not
x_true, so the trial and witness digests are the check on a change to the
trial path (generators aliased by list(seeding.generators(...)) move both
digests and no workload hash).  The line "certificate digest" hashes
certified_minimum's output arrays and "decode digest" decode's, on the same
fixed random Fourier instances (see fourier_instances), so a change to the
box bounds and a change to the polish each show on their own line.  The
line "operator digest" hashes the operators drawn from fixed seeds and their
gaps (see operator_digest), "trial digest" the IOP trials that _draw_trials
draws on fixed instances (see trial_digest), "witness digest" the arrays of
check_iop_inequality's witness on fixed instances (see witness_digest), and
"estimator digest" every field of the LRIP and BP estimates on fixed
instances (see estimator_digest): no config or workload hash covers
lrip_from_iop_witness, a violating pair, eta > 0, a single pair or near
fallbacks over several row blocks.  The last
line, "lineage digest", hashes the seed lineage of every config and workload
run above, which lists the streams each run derived.
The library is the one in this checkout's src/, so two checkouts can be
compared line by line.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from lrip_lab import (  # noqa: E402
    DecoderOptions,
    LinearGaussianOperator,
    OperatorLaw,
    Pseudometric,
    RandomFourierOperator,
    UnionOfSubspaces,
    check_iop_inequality,
    decode,
    estimate_bp,
    estimate_lrip,
    harness,
    lrip_from_iop_witness,
    seeding,
)
from lrip_lab.certifier import _draw_trials  # noqa: E402
from lrip_lab.decoder import certified_minimum  # noqa: E402
from lrip_lab.models import sample_model_points, sample_near_points  # noqa: E402


def results_hash(config: dict, lineage) -> str:
    """sha256(results_bytes())[:8] of the config's run; the sha256 object lineage takes the run's seed lineage."""
    report = harness.run(harness.ExperimentConfig.from_dict(config))
    lineage.update(json.dumps(report.seed_lineage, sort_keys=True).encode())
    return hashlib.sha256(report.results_bytes()).hexdigest()[:8]


def near_digest() -> str:
    """sha256(...)[:8] over sample_near_points' (points, found), on fixed instances under both metrics.

    Each instance is a random union of subspaces, (d, s, N, M) = (20, 2, 5, 1)
    from seed 99 and (6, 3, 4, 0.7) from seed 1, with 2,000 anchors drawn on
    it from seed 4, near_eps 0.1 and sampler seed 5; the metrics are the
    Euclidean one and the Gaussian kernel at sigma = 1.
    """
    digest = hashlib.sha256()
    for d, s, N, M, seed in ((20, 2, 5, 1.0, 99), (6, 3, 4, 0.7, 1)):
        model = UnionOfSubspaces.random(d, s, N, M, seed)
        anchors = sample_model_points(model, 2000, 4)
        for metric in (Pseudometric("euclidean"), Pseudometric("gaussian-kernel", 1.0)):
            for a in sample_near_points(model, metric, anchors, 0.1, 5):
                digest.update(a.tobytes())
    return digest.hexdigest()[:8]


def fourier_instances():
    """(model, op, Y) of the certificate and decode digests: random Fourier maps on random unions of subspaces.

    Each has d = s + 2, N = 3, M = 1, m = 16, with rows drawn off the model
    from default_rng(s): 16 rows at each of s = 1, 2 and 3, and 2 rows at
    s = 8.
    """
    for s, n in ((1, 16), (2, 16), (3, 16), (8, 2)):
        rng = np.random.default_rng(s)
        model = UnionOfSubspaces.random(s + 2, s, 3, 1.0, s)
        op = RandomFourierOperator.from_seed(16, s + 2, 1.0, s)
        Y = op.apply_batch(rng.normal(scale=0.5, size=(n, s + 2))) + 0.05 * rng.normal(size=(n, 16))
        yield model, op, Y


def certificate_digest() -> str:
    """sha256(...)[:8] over certified_minimum's (lower, cells, sub, Z) at target 1e-6, on fourier_instances."""
    digest = hashlib.sha256()
    for model, op, Y in fourier_instances():
        lower, cells, (sub, Z) = certified_minimum(op, model, Y, 1e-6, np.inf)
        for a in (lower, cells, sub, Z):
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:8]


def decode_digest() -> str:
    """sha256(...)[:8] over decode's arrays at the default DecoderOptions, on fourier_instances."""
    digest = hashlib.sha256()
    for model, op, Y in fourier_instances():
        dec = decode(op, model, Y, DecoderOptions())
        for a in (dec.xhat, dec.residual, dec.subspace_index, dec.optimizer_iters, dec.converged, dec.gap):
            digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:8]


def operator_digest() -> str:
    """sha256(...)[:8] over operators drawn from fixed seeds and over OperatorLaw.gaps.

    The first part is from_seed's matrix of the linear map and frequencies and
    weights of the Fourier map at (m, d, sigma, seed) = (1, 1, 1.0, 0),
    (16, 3, 0.7, 5) and (55, 20, 1.0, 7).  The second is each kind's gaps at
    m = 55, d = 20, sigma = 1.0 over 16 draws, from default_rng(0) to
    default_rng(15), on the one secant default_rng(99).normal(size=20).
    """
    digest = hashlib.sha256()
    for m, d, sigma, seed in ((1, 1, 1.0, 0), (16, 3, 0.7, 5), (55, 20, 1.0, 7)):
        fourier = RandomFourierOperator.from_seed(m, d, sigma, seed)
        for a in (LinearGaussianOperator.from_seed(m, d, seed).matrix, fourier.omegas, fourier.weights):
            digest.update(a.tobytes())
    delta = np.random.default_rng(99).normal(size=20)
    for kind in ("linear-gaussian", "random-fourier"):
        law = OperatorLaw(kind, 55, 20, 1.0)
        digest.update(law.gaps([law.draw(np.random.default_rng(seed)) for seed in range(16)], delta).tobytes())
    return digest.hexdigest()[:8]


def trial_digest() -> str:
    """sha256(...)[:8] over _draw_trials' (x*, y, points), on fixed instances.

    The model is a random union of subspaces, (d, s, N, M) = (6, 2, 3, 1)
    from seed 3, and the operators are both kinds at m = 12, sigma = 1.0,
    sampled from seed 4.  Each draws 64 trials from the streams (11, 2, k)
    at (noise_scale, model_error_scale) = (0, 0), (0.1, 0), (0, 0.3) and
    (0.1, 0.3), with 0 and with 4 candidates.
    """
    digest = hashlib.sha256()
    model = UnionOfSubspaces.random(6, 2, 3, 1.0, 3)
    for kind in ("linear-gaussian", "random-fourier"):
        op = OperatorLaw(kind, 12, 6, 1.0).sample(4)
        for scales in ((0.0, 0.0), (0.1, 0.0), (0.0, 0.3), (0.1, 0.3)):
            for candidates in (0, 4):
                for a in _draw_trials(op, model, seeding.generators(11, 2, np.arange(64)), 64, *scales, candidates):
                    digest.update(a.tobytes())
    return digest.hexdigest()[:8]


def witness_digest() -> str:
    """sha256(...)[:8] over the arrays of check_iop_inequality's witness, on fixed instances.

    The model and the two operators are trial_digest's.  The linear map is
    checked under the Euclidean metric and the Fourier map under the Gaussian
    kernel at sigma = 1, at A = 0.5, B = 1, lambda = 0, noise_scale 0.1,
    model_error_scale 0.3 and seed 12, with 0 and with 4 candidates, over 70
    trials in one chunk (a chunk of 64 trials made them two, with the same
    digest); 53 of the 70 trials are satisfied on the linear map and 61 on
    the Fourier map.
    """
    digest = hashlib.sha256()
    model = UnionOfSubspaces.random(6, 2, 3, 1.0, 3)
    for kind, metric in (("linear-gaussian", Pseudometric("euclidean")),
                         ("random-fourier", Pseudometric("gaussian-kernel", 1.0))):
        op = OperatorLaw(kind, 12, 6, 1.0).sample(4)
        for candidates in (0, 4):
            w = check_iop_inequality(op, model, metric, DecoderOptions(), 0.5, 1.0, 0.0, 70, 0.1, 0.3, 12, candidates)
            for a in (w.x_true, w.decode_dist, w.model_dist, w.lambda_eff, w.satisfied):
                digest.update(a.tobytes())
    return digest.hexdigest()[:8]


def _estimate_bytes(est) -> bytes:
    """Every field of an LRIP or BP estimate, in field order; a pair is its two arrays' bytes."""
    fields = []
    for f in dataclasses.fields(est):
        v = getattr(est, f.name)
        fields.append((f.name, [a.tobytes() for a in v] if isinstance(v, tuple) else v))
    return repr(fields).encode()


def estimator_digest() -> str:
    """sha256(...)[:8] over every field of estimate_lrip's, estimate_bp's and lrip_from_iop_witness' estimates.

    The instances are trial_digest's model with its linear map under the
    Euclidean metric and its Fourier map under the Gaussian kernel at
    sigma = 1; the axes of R^4 (M = 1) under LinearGaussianOperator.from_seed(3, 4, 5)
    with its first column zeroed, so pairs on the first axis collapse; and
    span(e1, e2) and span(e2, e3) in R^4 (M = 1) under the same map unchanged,
    whose pair spans overlap.  On each, estimate_lrip runs uniform and
    anchored at the model point sample_model_points(model, 1, 6)[0], at
    pairs = 1, 2 and 2000, eta = 0 and 0.05, seed 8, near_eps 0.1, and once
    more uniform at 6 pairs and near_eps 1e-300, so its near rows fall back;
    estimate_bp at the same pair counts, seed 9; and lrip_from_iop_witness
    at B = 0.5, lambda = 0.01, 40 pairs, seed 10.  Last, on each instance,
    estimate_lrip uniform at 5,000 pairs, seed 8 and near_eps 1e-16, where
    rounding decides which near rows are found (265 to 1,622 of the 2,500
    fall back), and estimate_bp at 5,000 pairs, seed 9: every stratum of
    these spans several of the estimators' row blocks.
    """
    digest = hashlib.sha256()
    model = UnionOfSubspaces.random(6, 2, 3, 1.0, 3)
    collapsing = LinearGaussianOperator.from_seed(3, 4, 5).matrix.copy()
    collapsing[:, 0] = 0.0
    e = np.eye(4)
    instances = [
        (model, OperatorLaw("linear-gaussian", 12, 6, 1.0).sample(4), Pseudometric("euclidean")),
        (model, OperatorLaw("random-fourier", 12, 6, 1.0).sample(4), Pseudometric("gaussian-kernel", 1.0)),
        (UnionOfSubspaces.axes(4, 1.0), LinearGaussianOperator(collapsing), Pseudometric("euclidean")),
        (UnionOfSubspaces((e[:, :2], e[:, 1:3]), 1.0), LinearGaussianOperator.from_seed(3, 4, 5),
         Pseudometric("euclidean")),
    ]
    for model, op, metric in instances:
        anchor = sample_model_points(model, 1, 6)[0]
        for pairs in (1, 2, 2000):
            for a in (None, anchor):
                for eta in (0.0, 0.05):
                    digest.update(_estimate_bytes(estimate_lrip(op, model, metric, pairs, 8, a, eta, 0.1)))
            digest.update(_estimate_bytes(estimate_bp(op, model, metric, pairs, 9)))
        digest.update(_estimate_bytes(estimate_lrip(op, model, metric, 6, 8, None, 0.0, 1e-300)))
        digest.update(_estimate_bytes(lrip_from_iop_witness(op, model, metric, DecoderOptions(), 0.5, 0.01, 40, 10)))
    for model, op, metric in instances:
        digest.update(_estimate_bytes(estimate_lrip(op, model, metric, 5000, 8, None, 0.0, 1e-16)))
        digest.update(_estimate_bytes(estimate_bp(op, model, metric, 5000, 9)))
    return digest.hexdigest()[:8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 101], help="benchmark seeds of the workloads")
    args = parser.parse_args(argv)
    lineage = hashlib.sha256()
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = harness.read_config(path)
        config.pop("output", None)
        print(f"{path.stem}\t{results_hash(config, lineage)}", flush=True)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name in workloads.WORKLOADS:
        hashes = [results_hash(workloads.build_config(name, seed)[0], lineage) for seed in args.seeds]
        print(f"{name} (seeds {' / '.join(map(str, args.seeds))})\t{' / '.join(hashes)}", flush=True)
    print(f"near digest\t{near_digest()}", flush=True)
    print(f"certificate digest\t{certificate_digest()}", flush=True)
    print(f"decode digest\t{decode_digest()}", flush=True)
    print(f"operator digest\t{operator_digest()}", flush=True)
    print(f"trial digest\t{trial_digest()}", flush=True)
    print(f"witness digest\t{witness_digest()}", flush=True)
    print(f"estimator digest\t{estimator_digest()}", flush=True)
    print(f"lineage digest\t{lineage.hexdigest()[:8]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
