"""Two-stage training: LM loss, top-k logit distillation, synthetic tasks.

Stage semantics follow the grafting recipe: in the ``pretrain`` stage every
baseline-inherited parameter is frozen and only the new components train
(cross-attention, state-space blocks, and the blend weights); the
``instruct`` stage finetunes everything and forces the distillation weight
to zero so the teacher cannot cap the student.

The distillation loss restricts both distributions to the teacher's top-k
logit indices, renormalizes each by a softmax over those indices, and takes
KL(teacher || student) averaged over positions.  Gradients reach the
student only.

Synthetic tasks stand in for caption/instruction data at desk scale.  Both
kinds are solvable by construction: a brute-force reader that inspects the
generated vectors recovers the target with accuracy 1, which is what the
generator self-consistency tests check.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import numerics as ng
from .model import ConfigError, Model, make_sequence, named_parameters, text_logits
from .numerics import ContractError, NumericError, Tensor

__all__ = [
    "STAGE_PRETRAIN",
    "STAGE_INSTRUCT",
    "LAMBDA_GRID",
    "TrainConfig",
    "SyntheticTask",
    "TaskInstance",
    "TOK_BOS",
    "TOK_QUERY_BASE",
    "TOK_COPY_QUERY",
    "TOK_CLASS_BASE",
    "lm_loss",
    "distill_loss",
    "combined_loss",
    "class_codebook",
    "generate_task",
    "oracle_answer",
    "instance_sequence",
    "stage_trainable",
    "AdamW",
    "cosine_lr",
    "train",
    "evaluate",
]

STAGE_PRETRAIN = "pretrain"
STAGE_INSTRUCT = "instruct"

# the distillation-weight grid exercised by the bundled sweep
LAMBDA_GRID = (0.0, 0.001, 0.01, 0.5, 1.0, 2.0)

# token id layout shared by all synthetic tasks
TOK_BOS = 0
TOK_QUERY_BASE = 1  # query for needle ordinal i -> id 1 + i
TOK_COPY_QUERY = 40
TOK_CLASS_BASE = 64  # class c -> id 64 + c

DISTILL_TOP_K = 100

# optimizer settings of every training run
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.95
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01
GRAD_CLIP = 1.0  # global gradient-norm ceiling


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


@dataclass
class TrainConfig:
    stage: str = STAGE_PRETRAIN
    lam: float = 0.0  # distillation weight
    lr: float = 3e-3
    steps: int = 100
    batch: int = 4
    seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.stage not in (STAGE_PRETRAIN, STAGE_INSTRUCT):
            raise ConfigError(f"unknown stage {self.stage!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError("distillation weight lambda must be finite and non-negative")
        if self.stage == STAGE_INSTRUCT and self.lam != 0.0:
            raise ConfigError("the instruct stage trains with the LM loss only (lambda must be 0)")
        if not (math.isfinite(self.lr) and self.lr > 0) or self.steps < 0 or self.batch < 1:
            raise ConfigError("lr must be finite and positive, steps >= 0, batch >= 1")
        return self


def stage_trainable(stage: str, path: str) -> bool:
    """Pretrain touches only the grafted components; instruct trains all."""
    if stage == STAGE_INSTRUCT:
        return True
    return ".cross_attn" in path or ".mamba" in path or path.endswith("alpha_raw")


# --------------------------------------------------------------------------
# Losses
# --------------------------------------------------------------------------


def lm_loss(logits: Tensor, targets) -> Tensor:
    """Mean next-token cross-entropy over supervised positions.

    `targets[t]` is the id the row-t logits should predict, or -1 to
    exclude the position from the loss."""
    t = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or t.shape != (logits.shape[0],):
        raise ContractError("lm_loss expects [T, vocab] logits and T targets")
    vocab = logits.shape[1]
    if t.max() >= vocab or t.min() < -1:
        raise ContractError("target id outside [0, vocab)")
    sup = np.flatnonzero(t >= 0)
    if sup.size == 0:
        raise ContractError("lm_loss: no supervised positions")
    rows = ng.index_rows(logits, sup)
    picked = ng.take_along_rows(ng.log_softmax_rows(rows), t[sup][:, None])
    return ng.mul(ng.tsum(picked), -1.0 / sup.size)


def distill_loss(teacher_logits, student_logits: Tensor, k: int = DISTILL_TOP_K) -> Tensor:
    """KL(teacher || student) over the teacher's top-k logit indices.

    Both distributions are renormalized by a softmax restricted to those
    indices.  The teacher is treated as a constant: no gradient reaches it.
    """
    t_data = teacher_logits.data if isinstance(teacher_logits, Tensor) else np.asarray(
        teacher_logits, dtype=np.float64
    )
    if t_data.shape != student_logits.shape:
        raise ContractError("teacher and student logits must share a shape")
    vocab = t_data.shape[1]
    if k <= 0 or k > vocab:
        raise ContractError(f"top-k must satisfy 0 < k <= vocab, got {k}")

    # stable ties: sort by descending logit, index order breaking ties
    idx = np.argsort(-t_data, axis=1, kind="stable")[:, :k]
    t_rows = np.take_along_axis(t_data, idx, axis=1)

    # identical restricted-softmax routine on both sides, so a student that
    # equals its teacher yields exactly zero
    log_p_t = ng.log_softmax_rows(Tensor(t_rows)).data
    log_p_s = ng.log_softmax_rows(ng.take_along_rows(student_logits, idx))
    p_t = np.exp(log_p_t)
    gap = ng.sub(Tensor(log_p_t), log_p_s)
    return ng.mul(ng.tsum(ng.mul(Tensor(p_t), gap)), 1.0 / t_data.shape[0])


def combined_loss(lm: Tensor, distill: Tensor | None, lam: float) -> Tensor:
    """lm + lam * distill; lam = 0 returns the LM term unchanged."""
    if lam < 0:
        raise ContractError("lambda must be non-negative")
    if lam == 0.0:
        return lm
    if distill is None:
        raise ContractError("lambda > 0 requires a distillation term")
    return ng.add(lm, ng.mul(distill, lam))


# --------------------------------------------------------------------------
# Synthetic tasks
# --------------------------------------------------------------------------


@dataclass
class SyntheticTask:
    """Task family description; every instance is fully determined by seed."""

    kind: str = "needle_retrieval"  # or "copy"
    m: int = 256
    n_classes: int = 5
    needle_count: int = 1
    seed: int = 0

    def validate(self) -> "SyntheticTask":
        if self.kind not in ("needle_retrieval", "copy"):
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.n_classes < 2:
            raise ConfigError("need at least two classes")
        if self.needle_count < 1:
            raise ConfigError("needle_count must be positive")
        if self.kind == "needle_retrieval" and self.m < self.needle_count:
            raise ConfigError("need M >= needle_count")
        if self.kind == "copy" and self.m < self.needle_count + 1:
            raise ConfigError("copy needs room for the marker and segment")
        if self.needle_count > TOK_COPY_QUERY - TOK_QUERY_BASE:
            raise ConfigError("needle_count exceeds the query token range")
        return self

    @property
    def n_text(self) -> int:
        # [BOS, query, answer...] under teacher forcing
        return 3 if self.kind == "needle_retrieval" else 2 + self.needle_count

    @property
    def answer_len(self) -> int:
        return 1 if self.kind == "needle_retrieval" else self.needle_count


@dataclass
class TaskInstance:
    video: np.ndarray  # [M, d]
    text_ids: np.ndarray  # [N] teacher-forced text, answer tokens at the end
    targets: np.ndarray  # [N] next-token target per position, -1 unsupervised
    answer_len: int


_CODEBOOK_SEED = 0xC0DE


def class_codebook(n_classes: int, d: int) -> np.ndarray:
    """Fixed unit-norm class vectors plus one marker row (index n_classes)."""
    rng = ng.new_rng(_CODEBOOK_SEED)
    v = rng.standard_normal((n_classes + 1, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def generate_task(task: SyntheticTask, d: int) -> TaskInstance:
    """Materialize one instance; identical seeds give identical instances."""
    task.validate()
    rng = ng.new_rng(task.seed)
    book = class_codebook(task.n_classes, d)
    video = rng.standard_normal((task.m, d))
    video /= np.linalg.norm(video, axis=1, keepdims=True)

    if task.kind == "needle_retrieval":
        positions = np.sort(rng.choice(task.m, size=task.needle_count, replace=False))
        classes = rng.integers(0, task.n_classes, size=task.needle_count)
        for pos, cls in zip(positions, classes):
            video[pos] = book[cls]
        which = int(rng.integers(0, task.needle_count))
        answer = TOK_CLASS_BASE + int(classes[which])
        text_ids = np.array([TOK_BOS, TOK_QUERY_BASE + which, answer])
        targets = np.array([-1, answer, -1])
        return TaskInstance(video, text_ids, targets, answer_len=1)

    seg = task.needle_count
    start = int(rng.integers(0, task.m - seg))  # marker at start, segment after
    classes = rng.integers(0, task.n_classes, size=seg)
    video[start] = book[task.n_classes]  # marker row
    for i, cls in enumerate(classes):
        video[start + 1 + i] = book[cls]
    answer = TOK_CLASS_BASE + classes
    text_ids = np.concatenate([[TOK_BOS, TOK_COPY_QUERY], answer])
    targets = np.concatenate([[-1], answer, [-1]])
    return TaskInstance(video, text_ids, targets, answer_len=seg)


def oracle_answer(task: SyntheticTask, inst: TaskInstance) -> np.ndarray:
    """Brute-force reader over the raw video vectors (generator oracle)."""
    d = inst.video.shape[1]
    book = class_codebook(task.n_classes, d)
    dists = np.linalg.norm(inst.video[:, None, :] - book[None, :, :], axis=2)
    hit = dists.min(axis=1) < 1e-9
    labels = dists.argmin(axis=1)
    if task.kind == "needle_retrieval":
        needles = np.flatnonzero(hit & (labels < task.n_classes))
        which = int(inst.text_ids[1]) - TOK_QUERY_BASE
        return np.array([TOK_CLASS_BASE + int(labels[needles[which]])])
    marker = np.flatnonzero(hit & (labels == task.n_classes))[0]
    seg = labels[marker + 1 : marker + 1 + inst.answer_len]
    return TOK_CLASS_BASE + seg


def instance_sequence(model: Model, inst: TaskInstance, include_answer: bool = True):
    """Build the model-facing sequence; optionally strip the answer suffix."""
    ids = inst.text_ids if include_answer else inst.text_ids[: -inst.answer_len]
    return make_sequence(model, inst.video, ids)


# --------------------------------------------------------------------------
# Optimizer
# --------------------------------------------------------------------------


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict, with the
    module's `ADAM_*` and `WEIGHT_DECAY` settings; the learning rate comes
    with each step.

    Weight decay applies only to matrices (ndim >= 2); gains, biases and
    scalars are left undecayed."""

    def __init__(self):
        self.step_count = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], lr_t: float) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in params.items():
            if p.grad is None:
                continue
            g = p.grad
            m = self._m.setdefault(name, np.zeros_like(p.data))
            v = self._v.setdefault(name, np.zeros_like(p.data))
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * (g * g)
            m_hat = m / (1 - ADAM_BETA1 ** t)
            v_hat = v / (1 - ADAM_BETA2 ** t)
            upd = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if p.data.ndim >= 2:
                upd = upd + WEIGHT_DECAY * p.data
            p.data = p.data - lr_t * upd


def cosine_lr(base_lr: float, step: int, total: int) -> float:
    if total <= 0:
        return base_lr
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * step / total))


def _global_grad_norm(params: dict[str, Tensor]) -> float:
    sq = 0.0
    for p in params.values():
        if p.grad is not None:
            sq += float((p.grad * p.grad).sum())
    return math.sqrt(sq)


# --------------------------------------------------------------------------
# The training loop
# --------------------------------------------------------------------------


@contextmanager
def _frozen(params):
    """Mark `params` not differentiable inside the block, then restore them."""
    flipped = [p for p in params if p.requires_grad]
    for p in flipped:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in flipped:
            p.requires_grad = True


def _check_task_fits(model: Model, task: SyntheticTask) -> None:
    """Validate the task, and check that its class tokens are in the model's
    vocabulary."""
    task.validate()
    top = TOK_CLASS_BASE + task.n_classes
    if top > model.config.vocab_size:
        raise ConfigError(f"{task.n_classes} classes need token ids up to {top - 1}, "
                          f"outside the model's vocabulary of {model.config.vocab_size}")


def train(
    model: Model,
    cfg: TrainConfig,
    task: SyntheticTask,
    teacher: Model | None = None,
    log_path: str | None = None,
) -> list[dict]:
    """Gradient descent on the synthetic task; returns one record per step.

    Deterministic given (model, cfg, task): instance seeds derive from
    task.seed alone (cfg.seed is not read) and no wall-clock enters the
    records.  The stage's frozen parameters are not differentiable during
    the call."""
    cfg.validate()
    _check_task_fits(model, task)
    if cfg.lam > 0 and teacher is None:
        raise ConfigError("distillation (lambda > 0) requires a teacher model")

    all_params = named_parameters(model)
    trainable = {
        name: p for name, p in all_params.items() if stage_trainable(cfg.stage, name)
    }
    opt = AdamW()
    records: list[dict] = []

    with _frozen(p for name, p in all_params.items() if name not in trainable):
        for step in range(cfg.steps):
            for p in trainable.values():
                p.grad = None
            lm_sum = 0.0
            distill_sum = 0.0
            try:
                for b in range(cfg.batch):
                    inst_seed = task.seed + 1 + step * cfg.batch + b
                    inst = generate_task(replace(task, seed=inst_seed), model.config.d)
                    seq = instance_sequence(model, inst)
                    logits = text_logits(model, seq)
                    lm = lm_loss(logits, inst.targets)
                    dl = None
                    if cfg.lam > 0:
                        with ng.no_grad():
                            t_seq = instance_sequence(teacher, inst)
                            t_logits = text_logits(teacher, t_seq)
                        sup = np.flatnonzero(inst.targets >= 0)
                        dl = distill_loss(
                            t_logits.data[sup],
                            ng.index_rows(logits, sup),
                            k=min(DISTILL_TOP_K, model.config.vocab_size),
                        )
                        distill_sum += dl.item()
                    total = combined_loss(lm, dl, cfg.lam)
                    lm_sum += lm.item()
                    if not math.isfinite(total.item()):
                        raise NumericError("non-finite loss")
                    ng.backward(ng.mul(total, 1.0 / cfg.batch), accumulate=True)
            except NumericError as exc:
                raise NumericError(f"{exc} (training step {step})") from exc

            grad_norm = _global_grad_norm(trainable)
            if grad_norm > GRAD_CLIP:
                scale = GRAD_CLIP / grad_norm
                for p in trainable.values():
                    if p.grad is not None:
                        p.grad = p.grad * scale
            lr_t = cosine_lr(cfg.lr, step, cfg.steps)
            opt.step(trainable, lr_t)

            alphas = [
                float(ng._sigmoid_np(l.self_attn.alpha_raw.data))
                for l in model.layers
                if l.cross_attn is not None
            ]
            records.append(
                {
                    "step": step,
                    "stage": cfg.stage,
                    "loss_lm": lm_sum / cfg.batch,
                    "loss_distill": distill_sum / cfg.batch if cfg.lam > 0 else 0.0,
                    "loss_total": (lm_sum + cfg.lam * distill_sum) / cfg.batch,
                    "grad_norm": grad_norm,
                    "lr": lr_t,
                    "alpha": alphas,
                }
            )

    if log_path is not None:
        with open(log_path, "w") as f:
            for rec in records:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


def evaluate(
    model: Model, task: SyntheticTask, n_instances: int = 50, seed: int = 10_000_000
) -> tuple[float, float]:
    """Greedy exact-match accuracy on the answer tokens, and the mean LM loss.

    Both come from one no-grad, teacher-forced forward per instance.  An
    instance counts as correct iff the argmax at every supervised row is
    that row's target.  This is greedy exact match: up to the first wrong
    answer token, greedy decoding feeds exactly the teacher-forced tokens,
    and decode agrees with the forward to ~1e-15, so the first wrong token
    is the same in both (`model.generate_greedy` is the oracle the tests
    check this against).
    """
    _check_task_fits(model, task)
    if n_instances < 1:
        raise ContractError(f"evaluate needs at least one instance, got {n_instances}")
    correct = 0
    loss_sum = 0.0
    for i in range(n_instances):
        inst = generate_task(replace(task, seed=seed + i), model.config.d)
        with ng.no_grad():
            logits = text_logits(model, instance_sequence(model, inst))
            loss_sum += lm_loss(logits, inst.targets).item()
        sup = inst.targets >= 0
        correct += bool(np.all(np.argmax(logits.data[sup], axis=1) == inst.targets[sup]))
    return correct / n_instances, loss_sum / n_instances
