"""Synthetic domain generator, proxy detector, baseline samplers, benchmark.

The generator emits Gaussian-mixture frames: each cluster owns a scene-level
offset and an orthonormal ROI direction; the target domain shifts the scene
center by ``domain_shift`` and drags every ROI direction toward its
neighbouring cluster. The proxy detector is a multinomial logistic regression
on re-weighted ROI vectors whose held-out accuracy stands in for detection AP
at desk scale.
One softmax trainer, ``_descend``, fits the proxy detector and each committee
head; a head weights every row 1 and has no L2 penalty.

``_descend`` turns each epoch's logits into the weighted softmax error in
place, with the bytes of the plain expressions: its row max, ``np.maximum.reduce``
over a transposed copy, has the value of ``Z.max(axis=1)`` (max is exact, and
``exp`` erases the sign of a zero max). ``tests/test_simulator.py`` checks both.

Per-frame work that cannot change is done once: a ``ProxyDetector`` is the
one source of ROI rows. Its ``roi_rows`` re-weights the frames it has not
seen with one call of ``target_sampler.reweight`` and keeps each frame's row,
which its fits, ``run_bidomain``'s banks and ``sample_committee`` all read.
The entropy baseline hands ``sample_entropy`` a per-run cache of its frames'
entropies. A detector also pretrains each frame sequence once. ``benchmark``
builds one detector per seed and hands it to each of that seed's runs, so a
seed's runs pretrain once and re-weight each frame once between them, and
the diversity column reads the selected frames' rows from that detector.

``generate`` draws each frame's values in seeded order and then runs the
arithmetic on them (means, noise scales, clipping, ROI normalization, float32
casts) once for a block of up to ``GENERATE_BLOCK`` frames; each frame's
arrays are views into its block's. The scene center and ROI direction of a
lam = 1 frame (every target and eval frame) are computed once per cluster.
The frames keep the bytes of a frame-by-frame loop over the plain numpy calls,
and ``tests/test_simulator.py`` pins both the frames' bytes and each numpy
equivalence this relies on: ``rng.choice(K, p=p)`` is
``_cdf(p).searchsorted(rng.random(), side="right")``; ``rng.uniform(lo, hi)``,
scalar or array, is ``lo + (hi - lo) * rng.random(...)``, even with the
scaling run later on a block; one ``rng.normal`` call draws the scene and feature noise that two
consecutive calls would; ``np.linalg.norm`` of a vector is
``np.sqrt(v.dot(v))`` and of each row is ``np.sqrt(np.add.reduce(x * x,
axis=1, keepdims=True))``, the same per row in a stacked block; and
``np.clip`` of finite values is ``np.minimum(np.maximum(x, lo), hi)``.
Elementwise ``+``, ``*``, ``/``, ``sqrt`` and casts give each element the same
bytes in a block as alone, and in place as not.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from .core import BudgetSchedule, Domain, FrameRecord, SyntheticConfig, canonical_json
from .discriminator import TrainConfig
from .pipeline import PipelineConfig, RunReport, _run, run_bidomain
from .scoring import entropy_map
from .target_sampler import _cosine, reweight


CLUSTER_SCENE_SCALE = 1.0
SCENE_NOISE = 1.0
FEATURE_NOISE = 0.25

SOFTMAX_LR = 0.2  # the step of ``_descend``, for the proxy detector and every committee head
PROXY_L2 = 1e-3
# labeled target frames are scarce; upweighting them mimics the emphasis a
# detector fine-tune would give freshly annotated data
TARGET_WEIGHT = 3.0
COMMITTEE_HEADS = 2
COMMITTEE_EPOCHS = 100
ROUND_EPOCHS = 25  # fine-tune epochs after each round of every strategy
PERMUTATION_RESAMPLES = 10000
STRATEGIES = ("random", "entropy", "committee", "bidomain")  # what ``run_strategy`` runs
# frames that ``generate`` assembles at once: its float64 scratch stays near
# 0.6 MB at the default feature dims, whatever the pool size
GENERATE_BLOCK = 256


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.sqrt(v.dot(v))


def _cdf(p: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice(len(p), p=p)`` searches with one ``random()`` draw."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def generate(
    cfg: SyntheticConfig,
) -> Tuple[List[FrameRecord], List[FrameRecord], List[FrameRecord]]:
    """Seeded (source, target, eval) frame lists; eval is cluster-balanced."""
    rng = np.random.default_rng(cfg.seed)
    C, H, W, Cp, d = cfg.feature_dims
    K = cfg.clusters_per_domain

    scene_offsets = CLUSTER_SCENE_SCALE * rng.normal(size=(K, C))
    shift_dir = _unit(rng.normal(size=C))
    target_center = cfg.domain_shift * shift_dir

    # orthonormal cluster directions (QR of a random matrix) keep the
    # cross-cluster geometry identical across seeds
    q_mat, _ = np.linalg.qr(rng.normal(size=(d, min(K, d))))
    roi_dirs_s = np.stack([q_mat[:, k % d] for k in range(K)])
    # the target domain drags each cluster toward its neighbour, so a
    # source-only classifier genuinely confuses adjacent target clusters
    morph = min(0.9, cfg.domain_shift / 4.0)
    roi_dirs_t = np.stack(
        [
            _unit((1.0 - morph) * roi_dirs_s[k] + morph * roi_dirs_s[(k + 1) % K])
            if K > 1
            else roi_dirs_s[k]
            for k in range(K)
        ]
    )
    skew = cfg.cluster_skew ** np.arange(K)
    target_cdf = _cdf(skew / skew.sum())
    sqrt_d = np.sqrt(d)

    def means(domain: Domain, cluster: int, lam: float) -> Tuple[np.ndarray, np.ndarray]:
        # lam interpolates a frame's position between the source manifold
        # (0) and the target manifold (1); target frames sit at 1, source
        # frames spread over [0, 1] to model intra-domain variation. Scene
        # centers of source frames reach only halfway so the two domains
        # stay separable for the discriminator.
        scene_lam = lam if domain == Domain.TARGET else 0.5 * lam
        scene = scene_lam * target_center + scene_offsets[cluster]
        roi = _unit((1.0 - lam) * roi_dirs_s[cluster] + lam * roi_dirs_t[cluster])
        return scene, roi

    # every target and eval frame sits at lam = 1
    target_means = [means(Domain.TARGET, k, 1.0) for k in range(K)]

    def frames(
        fid: str, domain: Domain, n: int, noisy_label: bool,
        pick: Callable[[int], Tuple[int, np.ndarray, np.ndarray]],
    ) -> List[FrameRecord]:
        """``n`` frames; ``pick(j)`` gives frame j's (cluster, scene mean, ROI mean).

        Each frame's values are drawn in seeded order, ``pick``'s draws first;
        the arithmetic on them is elementwise, so it runs once per block of
        frames with the bytes it has per frame.
        """
        out: List[FrameRecord] = []
        for start in range(0, n, GENERATE_BLOCK):
            rows = range(start, min(n, start + GENERATE_BLOCK))
            noise = np.empty((len(rows), C + C * H * W))  # scene noise, then feature noise
            obj = np.empty((len(rows), Cp, H, W))
            density = np.empty((len(rows), 1, 1, 1))
            roi_scale = np.empty(len(rows))
            scene_means, bases, rois, confs, labels = [], [], [], [], []
            for r, j in enumerate(rows):
                cluster, scene_mean, base = pick(j)
                noise[r] = rng.normal(size=C + C * H * W)
                density[r] = 0.2 + (0.8 - 0.2) * rng.random()  # = rng.uniform(0.2, 0.8)
                obj[r] = rng.normal(size=(Cp, H, W))
                k_roi = int(rng.integers(1, 6))
                # a minority of frames are hard (blurry / occluded): their ROI
                # features carry several times the usual noise
                roi_scale[r] = cfg.roi_noise * (4.0 if rng.random() < 0.10 else 1.0)
                rois.append(rng.normal(size=(k_roi, d)))
                confs.append(rng.random(k_roi))
                label = cluster
                if noisy_label and cfg.label_noise > 0 and rng.random() < cfg.label_noise:
                    label = int((cluster + 1 + rng.integers(0, K - 1)) % K) if K > 1 else cluster
                scene_means.append(scene_mean)
                bases.append(base)
                labels.append(label)

            scene = np.stack(scene_means) + SCENE_NOISE * noise[:, :C]
            fmap = noise[:, C:].reshape(len(rows), C, H, W)
            fmap *= FEATURE_NOISE
            fmap += scene[:, :, None, None]
            obj *= 0.1
            obj += density
            np.minimum(np.maximum(obj, 1e-4, out=obj), 1.0 - 1e-4, out=obj)
            counts = [len(x) for x in rois]
            owner = np.repeat(np.arange(len(rows)), counts)
            roi = np.concatenate(rois)
            roi *= (roi_scale / sqrt_d)[owner, None]
            roi += np.stack(bases)[owner]
            roi /= np.sqrt(np.add.reduce(roi * roi, axis=1, keepdims=True))

            fmap, obj, roi = fmap.astype(np.float32), obj.astype(np.float32), roi.astype(np.float32)
            # = rng.uniform(0.3, 1.0, size=k_roi) per frame
            conf = (0.3 + (1.0 - 0.3) * np.concatenate(confs)).astype(np.float32)
            end = 0
            for r, j in enumerate(rows):
                begin, end = end, end + counts[r]
                out.append(FrameRecord(
                    id=fid % j,
                    domain=domain,
                    feature_map=fmap[r],
                    objectness_map=obj[r],
                    roi_features=roi[begin:end],
                    roi_confidences=conf[begin:end],
                    hidden_label=labels[r],
                ))
        return out

    def source_pick(i: int) -> Tuple[int, np.ndarray, np.ndarray]:
        cluster = int(rng.integers(0, K))
        lam = rng.random()  # = rng.uniform(0.0, 1.0)
        return (cluster,) + means(Domain.SOURCE, cluster, lam)

    def target_pick(j: int) -> Tuple[int, np.ndarray, np.ndarray]:
        cluster = int(target_cdf.searchsorted(rng.random(), side="right"))
        return (cluster,) + target_means[cluster]

    source = frames("s%05d", Domain.SOURCE, cfg.n_source, True, source_pick)
    target = frames("t%05d", Domain.TARGET, cfg.n_target, True, target_pick)
    eval_frames = frames(
        "e%05d", Domain.TARGET, cfg.n_eval, False, lambda j: (j % K,) + target_means[j % K]
    )
    return source, target, eval_frames


class ProxyDetector:
    """Regularized softmax regression on re-weighted ROI vectors."""

    def __init__(self, n_classes, roi_dim, pretrain_epochs=100):
        self.n_classes = int(n_classes)
        self.roi_dim = int(roi_dim)
        self.pretrain_epochs = int(pretrain_epochs)
        # each frame object's re-weighted ROI row, computed once per detector; a
        # NaN or infinity in it raises naming the frame before any fit or logit
        self._rows: Dict[FrameRecord, np.ndarray] = {}
        # each pretrained frame sequence's state, keyed on its frame objects in order
        self._pretrained: Dict[Tuple[FrameRecord, ...], Dict[str, np.ndarray]] = {}

    def roi_rows(self, frames: Sequence[FrameRecord]) -> np.ndarray:
        """The re-weighted ROI vectors of ``frames`` as one ``(n, roi_dim)`` matrix, each
        row computed once; the frames not seen yet are re-weighted in one ``reweight`` call."""
        new = [f for f in frames if f not in self._rows]
        if new:
            self._rows.update(zip(new, reweight(new, roi_dim=self.roi_dim)))
        return np.array([self._rows[f] for f in frames]).reshape(len(frames), self.roi_dim)

    def _design(self, labeled):
        for f, lab in labeled:
            if lab not in range(self.n_classes):
                raise ValueError("frame %r has label %r, not a class index below the detector's "
                                 "%d classes" % (f.id, lab, self.n_classes))
        X = self.roi_rows([f for f, _ in labeled])
        y = np.array([int(lab) for _, lab in labeled])
        w = np.array(
            [
                TARGET_WEIGHT if f.domain == Domain.TARGET else 1.0
                for f, _ in labeled
            ]
        )
        # class-balanced weighting keeps skewed label batches from tilting
        # the class priors
        counts = np.bincount(y, minlength=self.n_classes).astype(float)
        w = w / counts[y]
        return X, y, w / w.mean()

    def pretrain(self, frames: Sequence[FrameRecord]):
        """Fit zero weights to ``frames``' own labels; each frame sequence is fitted once.

        Frames compare by identity, so another order or a ``replace``d frame
        is another sequence. Each call returns its own copy of the state, and
        a fit that raises is not kept.
        """
        key = tuple(frames)
        if key not in self._pretrained:
            state = {
                "W": np.zeros((self.roi_dim, self.n_classes)),
                "b": np.zeros(self.n_classes),
            }
            labeled = [(f, f.hidden_label) for f in key]
            self._pretrained[key] = self.finetune(state, labeled, self.pretrain_epochs)
        return {name: a.copy() for name, a in self._pretrained[key].items()}

    def finetune(self, state, labeled, epochs: int):
        W = state["W"].copy()
        b = state["b"].copy()
        if not labeled or epochs == 0:
            return {"W": W, "b": b}
        X, y, w = self._design(labeled)
        _descend(X, _one_hot(y, self.n_classes), w, W, b, PROXY_L2, epochs)
        return {"W": W, "b": b}

    def logits(self, state, frames: Sequence[FrameRecord]) -> np.ndarray:
        return self.roi_rows(frames) @ state["W"] + state["b"]

    def evaluate(self, state, frames: Sequence[FrameRecord]) -> float:
        preds = np.argmax(self.logits(state, frames), axis=1)
        truth = np.array([int(f.hidden_label) for f in frames])
        return float(np.mean(preds == truth))


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """``np.eye(n_classes)[labels]`` without the n_classes x n_classes identity."""
    Y = np.zeros((len(labels), n_classes))
    Y[np.arange(len(labels)), labels] = 1.0
    return Y


def _descend(X, Y, w, W, b, l2, epochs) -> None:
    """Full-batch descent on row-weighted, L2-penalized softmax cross-entropy, in place.

    Each epoch's bytes are those of ``err = w[:, None] * (softmax(X @ W + b) - Y) / n``,
    ``W -= SOFTMAX_LR * (X.T @ err + l2 * W)`` and ``b -= SOFTMAX_LR * err.sum(axis=0)``.
    """
    n = X.shape[0]
    w = w[:, None]
    for _ in range(epochs):
        err = X @ W
        err += b
        err -= np.maximum.reduce(err.T.copy(), axis=0)[:, None]
        np.exp(err, out=err)
        err /= np.add.reduce(err, axis=1, keepdims=True)
        err -= Y
        err *= w
        err /= n
        dW = X.T @ err
        dW += l2 * W
        dW *= SOFTMAX_LR
        W -= dW
        db = err.sum(axis=0)
        db *= SOFTMAX_LR
        b -= db


def sample_random(
    unlabeled: Sequence[FrameRecord], budget: int, seed: int
) -> List[str]:
    """Uniform without replacement over ascending ids, deterministic per seed."""
    ids = sorted(f.id for f in unlabeled)
    if budget <= 0:
        return []
    if budget >= len(ids):
        return ids
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(ids), size=budget, replace=False)
    return [ids[i] for i in picks]


def frame_entropy(frame: FrameRecord) -> float:
    """Mean binary entropy of ROI confidences (0 when there are none)."""
    confs = np.asarray(frame.roi_confidences, dtype=np.float64)
    if confs.size == 0:
        return 0.0
    return float(np.mean(entropy_map(confs)))


def sample_entropy(
    unlabeled: Sequence[FrameRecord], budget: int, entropy: Callable[[FrameRecord], float]
) -> List[str]:
    """Top-budget frames by ``entropy``, descending, id tie-break.

    ``entropy`` is ``frame_entropy`` or a cache of it.
    """
    ranked = sorted(unlabeled, key=lambda f: (-entropy(f), f.id))
    return [f.id for f in ranked[: max(budget, 0)]]


def sample_committee(
    unlabeled: Sequence[FrameRecord],
    roi_rows: Callable[[Sequence[FrameRecord]], np.ndarray],
    labeled_X: np.ndarray,
    labeled_y: np.ndarray,
    n_classes: int,
    budget: int,
    seed: int,
) -> List[str]:
    """Disagreement sampling: heads with different inits, ranked by logit distance.

    ``roi_rows`` gives the unlabeled frames' ROI matrix, one row per frame.
    """
    labels = np.asarray(labeled_y, dtype=int)
    outside = labels[(labels < 0) | (labels >= n_classes)]
    if outside.size:
        raise ValueError("committee label %d is not a class index below %d"
                         % (outside[0], n_classes))
    if budget <= 0:
        return []
    roi_dim = labeled_X.shape[1]
    Y = _one_hot(labels, n_classes)
    ones = np.ones(labeled_X.shape[0])
    heads = []
    for h in range(COMMITTEE_HEADS):
        W = 0.1 * np.random.default_rng(seed + h).normal(size=(roi_dim, n_classes))
        b = np.zeros(n_classes)
        _descend(labeled_X, Y, ones, W, b, 0.0, COMMITTEE_EPOCHS)
        heads.append((W, b))
    X = roi_rows(unlabeled)
    logits = [X @ W + b for W, b in heads]
    dist = np.zeros(X.shape[0])
    for i in range(len(heads)):
        for j in range(i + 1, len(heads)):
            dist += np.linalg.norm(logits[i] - logits[j], axis=1)
    order = sorted(range(len(unlabeled)), key=lambda i: (-dist[i], unlabeled[i].id))
    return [unlabeled[i].id for i in order[:budget]]


def default_schedule(budget: int, frac: float) -> BudgetSchedule:
    """Two rounds for small budgets, five otherwise, at fixed trigger epochs."""
    rounds = 2 if (frac <= 0.02 or budget < 5) else 5
    rounds = min(rounds, budget)
    epochs = (0, 5) if rounds == 2 else tuple(range(0, 2 * rounds, 2))
    return BudgetSchedule.equal_split(budget, rounds, epochs)


def run_strategy(
    strategy: str,
    source: Sequence[FrameRecord],
    target: Sequence[FrameRecord],
    eval_frames: Sequence[FrameRecord],
    schedule: BudgetSchedule,
    seed: int,
    oracle: ProxyDetector,
    disc_epochs: int = 150,
) -> RunReport:
    """One full pipeline run for one strategy; returns its report.

    Every strategy runs ``pipeline``'s one run function, so each sorts both
    pools by id, pretrains and clips ``schedule`` alike. ``oracle`` is the
    run's detector; runs on the same frames can share one, which pretrains
    them once.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % strategy)
    cfg = PipelineConfig(
        schedule=schedule,
        discriminator=TrainConfig(epochs=disc_epochs, seed=seed),
        seed=seed,
        round_finetune_epochs=ROUND_EPOCHS,
    )
    if strategy == "bidomain":
        return run_bidomain(source, target, oracle, cfg, eval_frames)[1]
    return _run(source, target, oracle, cfg, functools.partial(_baseline_stages, strategy),
                eval_frames)[1]


def _baseline_stages(strategy, source, target, oracle, cfg, det_state, report):
    """A baseline's stage hook: the whole source pool, labeled, and the baseline's pick."""
    src_labeled = [(f, f.hidden_label) for f in source]
    return det_state, src_labeled, _baseline_pick(strategy, src_labeled, cfg.seed, oracle)


def _baseline_pick(strategy, src_labeled, seed, oracle):
    """The round loop's pick for a baseline; baselines report no scores.

    The committee reads its ROI rows from ``oracle``, the run's detector, so
    each frame is re-weighted once per detector.
    """
    if strategy == "random":
        return lambda unlabeled, budget, k, _: (
            sample_random(unlabeled, budget, seed + 7919 * k), {}
        )
    if strategy == "entropy":
        # a frame's entropy never changes, so each is computed once per run
        entropy = functools.cache(frame_entropy)
        return lambda unlabeled, budget, k, _: (sample_entropy(unlabeled, budget, entropy), {})
    # the committee: ``run_strategy`` has rejected every other name
    X = oracle.roi_rows([f for f, _ in src_labeled])
    y = np.array([lab for _, lab in src_labeled])
    return lambda unlabeled, budget, k, _: (sample_committee(
        unlabeled, oracle.roi_rows, X, y, oracle.n_classes, budget, seed + 7919 * k,
    ), {})


def selection_diversity(vecs: Sequence[np.ndarray]) -> float:
    """Mean pairwise cosine distance of the selected frames' re-weighted ROI vectors."""
    if len(vecs) < 2:
        return 0.0
    norms = [np.linalg.norm(v) for v in vecs]  # each vector's once, not once per pair
    dists = [
        1.0 - _cosine(vecs[i], vecs[j], norms[i], norms[j])
        for i in range(len(vecs))
        for j in range(i + 1, len(vecs))
    ]
    return float(np.mean(dists))


def paired_permutation_pvalue(diffs: Sequence[float], seed: int = 0) -> float:
    """One-sided sign-flip test for mean(diffs) > 0; no distributional assumption."""
    d = np.asarray(diffs, dtype=np.float64)
    rng = np.random.default_rng(seed)
    observed = d.mean()
    signs = rng.choice([-1.0, 1.0], size=(PERMUTATION_RESAMPLES, d.size))
    resampled = (signs * d).mean(axis=1)
    return float((1 + np.sum(resampled >= observed)) / (PERMUTATION_RESAMPLES + 1))


@dataclass(frozen=True)
class BenchRow:
    """One strategy, seed and budget of a sweep: a row of ``BenchmarkReport.rows``."""

    strategy: str
    seed: int
    budget: int
    accuracy: float
    diversity: float


@dataclass(frozen=True)
class BenchSummary:
    """``BenchmarkReport.summary``: each a strategy -> budget -> value map."""

    mean_accuracy: Dict[str, Dict[str, float]]
    std_accuracy: Dict[str, Dict[str, float]]
    pvalue_vs_random: Dict[str, Dict[str, float]]


@dataclass(frozen=True)
class BenchFile:
    """What ``BenchmarkReport.to_json`` writes; ``bidal report`` reads it back through it."""

    rows: List[BenchRow]
    summary: BenchSummary


@dataclass
class BenchmarkReport:
    """A sweep's rows and summary as plain dicts, in the shapes ``BenchFile`` declares."""

    rows: List[Dict[str, Any]]
    summary: Dict[str, Any]

    def to_json(self) -> str:
        return canonical_json({"rows": self.rows, "summary": self.summary})


def benchmark(
    cfg: SyntheticConfig,
    strategies: Sequence[str] = ("random", "bidomain"),
    seeds: Sequence[int] = tuple(range(20)),
    budget_fracs: Sequence[float] = (0.01, 0.05),
    disc_epochs: int = 150,
) -> BenchmarkReport:
    """Full strategy-by-seed-by-budget sweep with paired statistics vs Random."""
    if not seeds:
        raise ValueError("need at least one seed")
    if not strategies:
        raise ValueError("need at least one strategy")
    if not budget_fracs:
        raise ValueError("need at least one budget fraction")
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ValueError("unknown strategy %r" % unknown[0])
    if not all(0 < f <= 1 for f in budget_fracs):
        raise ValueError("budget fractions must lie in (0, 1], got %r" % list(budget_fracs))
    # a repeated cell would be written twice and counted twice in its summary
    for name, values in (("seed", [int(s) for s in seeds]), ("strategy", list(strategies))):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError("%s %r is repeated" % (name, repeated[0]))
    budgets = [max(1, round(frac * cfg.n_target)) for frac in budget_fracs]
    for i, budget in enumerate(budgets):
        if budget in budgets[:i]:
            raise ValueError("budget fractions %r and %r both give budget %d of %d target frames"
                             % (budget_fracs[budgets.index(budget)], budget_fracs[i], budget,
                                cfg.n_target))
    rows: List[Dict[str, Any]] = []
    for seed in seeds:
        data_cfg = replace(cfg, seed=cfg.seed + int(seed))
        source, target, eval_frames = generate(data_cfg)
        by_id = {f.id: f for f in target}
        # one detector per seed: its runs share the pretrain and the ROI rows
        oracle = ProxyDetector(n_classes=cfg.clusters_per_domain, roi_dim=cfg.feature_dims[4])
        for frac, budget in zip(budget_fracs, budgets):
            schedule = default_schedule(budget, frac)
            for strategy in strategies:
                report = run_strategy(
                    strategy, source, target, eval_frames, schedule, seed=int(seed),
                    oracle=oracle, disc_epochs=disc_epochs,
                )
                # the detector re-weighted each selected frame in its fine-tunes
                rows.append(asdict(BenchRow(
                    strategy, int(seed), budget, report.final_metric,
                    selection_diversity(oracle.roi_rows(
                        [by_id[i] for i in report.labeled_target])),
                )))
    summary = _summarize(rows, strategies, seeds)
    return BenchmarkReport(rows=rows, summary=summary)


def _summarize(rows, strategies, seeds) -> Dict[str, Any]:
    """``asdict`` of the sweep's ``BenchSummary``, each cell over its seeds in ``seeds`` order."""
    budgets = sorted({r["budget"] for r in rows})
    acc = {(r["strategy"], r["budget"], r["seed"]): r["accuracy"] for r in rows}

    def accs(strategy, budget):
        return [acc[strategy, budget, s] for s in seeds if (strategy, budget, s) in acc]

    summary = BenchSummary({}, {}, {})
    for strategy in strategies:
        mean = summary.mean_accuracy[strategy] = {}
        std = summary.std_accuracy[strategy] = {}
        for budget in budgets:
            vals = accs(strategy, budget)
            if vals:
                mean[str(budget)] = float(np.mean(vals))
                std[str(budget)] = float(np.std(vals))
        if strategy == "random" or "random" not in strategies:
            continue
        pvals = summary.pvalue_vs_random[strategy] = {}
        for budget in budgets:
            a, b = np.array(accs(strategy, budget)), np.array(accs("random", budget))
            if a.size and a.size == b.size:
                pvals[str(budget)] = paired_permutation_pvalue(a - b, seed=budget)
    return asdict(summary)
