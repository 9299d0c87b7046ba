"""E10 - paper Table V: Top-1/Top-5 accuracy drop of SCONNA inference.

The paper measures the drop that SCONNA's stochastic pipeline (floor
rounding + 1.3 %-MAPE PCA/ADC error) inflicts on four 8-bit-quantized
ImageNet CNNs: gmean 0.4 % Top-1 / 0.3 % Top-5, with compact
depthwise-style networks degrading most (MobileNet_V2: 1.5 %).

Offline substitution (DESIGN.md section 4): four proxy CNNs of graded
capacity trained on the synthetic 10-class dataset, then run through the
*same* int8 and SCONNA datapaths.  The drop is averaged over several ADC
noise seeds (the single-draw variance at a few-hundred-image test set
would otherwise swamp sub-percent effects).

A top-1 drop of a fraction of a point is one or two test images, and
the floor rounding alone produces one, so the drop checks pass with the
ADC noise switched off.  A continuous, logit-level metric sees the
noise: the relative logit error against int8
(:func:`relative_logit_error`), swept over ADC MAPE
:data:`MAPE_SWEEP`, must rise with the MAPE and separate the paper's
1.3 % from 5 % (SC-DCNN sweeps accuracy against its noise source for
the same reason).

Training is the expensive step, so results are memoised per
configuration within the process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import ExperimentResult
from repro.cnn.datasets import generate_dataset, train_test_split
from repro.cnn.inference import QuantizedModel
from repro.cnn.train import PROXY_MODELS, build_proxy, train
from repro.stochastic.error_models import SconnaErrorModel
from repro.utils.tables import Table, geometric_mean

#: paper Table V Top-1 / Top-5 accuracy drops [% points]
PAPER_TABLE5 = {
    "GoogleNet": (0.1, 0.1),
    "ResNet50": (0.4, 0.3),
    "MobileNet_V2": (1.5, 0.7),
    "ShuffleNet_V2": (0.5, 0.4),
    "gmean": (0.4, 0.3),
}

#: per-proxy training hyper-parameters (tuned: all proxies converge to
#: crisp margins - under-trained models make the drop metric noisy)
TRAIN_CFG = {
    "gnet_proxy": {"epochs": 9, "lr": 0.04},
    "rnet_proxy": {"epochs": 8, "lr": 0.03},
    "mnet_proxy": {"epochs": 7, "lr": 0.05},
    "snet_proxy": {"epochs": 6, "lr": 0.05},
}

#: ADC MAPEs of the noise sweep; the paper's 1.3 % sets the top-1 drop
MAPE_SWEEP = (0.0, 0.013, 0.05, 0.10)
PAPER_MAPE = 0.013


def relative_logit_error(logits: np.ndarray, reference: np.ndarray) -> float:
    """Mean over images of ``||logits - reference|| / ||reference||``."""
    diff = np.linalg.norm(logits - reference, axis=1)
    return float(np.mean(diff / np.linalg.norm(reference, axis=1)))


@dataclass(frozen=True)
class ProxyAccuracy:
    proxy: str
    paper_model: str
    top1_float: float
    top1_int8: float
    top1_sconna: float
    top5_int8: float
    top5_sconna: float
    #: relative logit error against int8 [%] at each of MAPE_SWEEP,
    #: averaged over the noise seeds
    logit_error_pct: "tuple[float, ...]"

    @property
    def top1_drop_pp(self) -> float:
        return (self.top1_int8 - self.top1_sconna) * 100.0

    @property
    def top5_drop_pp(self) -> float:
        return (self.top5_int8 - self.top5_sconna) * 100.0


_CACHE: "dict[tuple, list[ProxyAccuracy]]" = {}


def evaluate_proxies(
    n_per_class: int = 120,
    error_seeds: "tuple[int, ...]" = (0, 1, 2),
    proxies: "tuple[str, ...] | None" = None,
) -> "list[ProxyAccuracy]":
    """Train, quantize and evaluate each proxy (memoised)."""
    proxies = proxies or tuple(PROXY_MODELS)
    key = (n_per_class, error_seeds, proxies)
    if key in _CACHE:
        return _CACHE[key]

    dataset = generate_dataset(n_per_class, seed=0)
    train_set, test_set = train_test_split(dataset, test_fraction=0.3, seed=1)
    results = []
    for proxy in proxies:
        cfg = TRAIN_CFG[proxy]
        model = build_proxy(proxy, seed=0)
        train(
            model,
            train_set,
            epochs=cfg["epochs"],
            lr=cfg["lr"],
            seed=0,
        )
        qmodel = QuantizedModel.from_trained(model, train_set.images[:64])

        logits_float = qmodel.predict_logits(test_set.images, mode="float")
        logits_int8 = qmodel.predict_logits(test_set.images, mode="int8")
        top1_float = qmodel.top_k_from_logits(logits_float, test_set.labels, 1)
        top1_int8 = qmodel.top_k_from_logits(logits_int8, test_set.labels, 1)
        top5_int8 = qmodel.top_k_from_logits(logits_int8, test_set.labels, 5)

        top1_s, top5_s = [], []
        logit_error = []
        for mape in MAPE_SWEEP:
            errors = []
            for seed in error_seeds:
                logits = qmodel.predict_logits(
                    test_set.images,
                    mode="sconna",
                    error_model=SconnaErrorModel(adc_mape=mape, seed=seed),
                )
                errors.append(relative_logit_error(logits, logits_int8))
                if mape == PAPER_MAPE:
                    top1_s.append(
                        qmodel.top_k_from_logits(logits, test_set.labels, 1))
                    top5_s.append(
                        qmodel.top_k_from_logits(logits, test_set.labels, 5))
            logit_error.append(100.0 * float(np.mean(errors)))

        results.append(
            ProxyAccuracy(
                proxy=proxy,
                paper_model=PROXY_MODELS[proxy],
                top1_float=top1_float,
                top1_int8=top1_int8,
                top1_sconna=float(np.mean(top1_s)),
                top5_int8=top5_int8,
                top5_sconna=float(np.mean(top5_s)),
                logit_error_pct=tuple(logit_error),
            )
        )
    _CACHE[key] = results
    return results


def run_table5(
    n_per_class: int = 120,
    error_seeds: "tuple[int, ...]" = (0, 1, 2),
) -> ExperimentResult:
    results = evaluate_proxies(n_per_class, error_seeds)
    table = Table(
        [
            "proxy (paper model)",
            "float top-1",
            "int8 top-1",
            "SCONNA top-1",
            "drop [pp] (paper)",
            "top-5 drop [pp] (paper)",
            "logit err [%] at MAPE " + " / ".join(
                f"{m * 100:g}" for m in MAPE_SWEEP) + " %",
        ],
        title="Table V - SCONNA accuracy drop vs exact int-8 inference",
    )
    for r in results:
        p1, p5 = PAPER_TABLE5[r.paper_model]
        table.add_row(
            [
                f"{r.proxy} ({r.paper_model})",
                f"{r.top1_float * 100:.1f} %",
                f"{r.top1_int8 * 100:.1f} %",
                f"{r.top1_sconna * 100:.1f} %",
                f"{r.top1_drop_pp:+.2f} ({p1})",
                f"{r.top5_drop_pp:+.2f} ({p5})",
                " / ".join(f"{e:.2f}" for e in r.logit_error_pct),
            ]
        )
    drops1 = [max(r.top1_drop_pp, 1e-3) for r in results]
    drops5 = [max(r.top5_drop_pp, 1e-3) for r in results]
    g1, g5 = geometric_mean(drops1), geometric_mean(drops5)
    m1 = float(np.mean([r.top1_drop_pp for r in results]))
    m5 = float(np.mean([r.top5_drop_pp for r in results]))
    table.add_row(
        [
            "gmean",
            "-",
            "-",
            "-",
            f"{g1:.2f} ({PAPER_TABLE5['gmean'][0]})",
            f"{g5:.2f} ({PAPER_TABLE5['gmean'][1]})",
            "-",
        ]
    )
    table.add_row(
        ["mean", "-", "-", "-", f"{m1:.2f}", f"{m5:.2f}", "-"]
    )

    trained_ok = all(r.top1_float > 0.9 for r in results)
    checks = {
        "all proxies trained (float top-1 > 90 %)": trained_ok,
        "every drop small (<= 2.5 pp, paper regime)": all(
            r.top1_drop_pp <= 2.5 for r in results
        ),
        "gmean top-1 drop within the paper's band (0-1.5 pp)": 0.0 <= g1 <= 1.5,
        "top-5 drops do not exceed top-1 drops (gmean)": g5 <= g1 + 0.05,
        "logit error rises with ADC MAPE and separates 1.3 % from 5 % "
        "(5 % excess >= 2x the 1.3 % excess over 0 %)": all(
            _sees_noise(r.logit_error_pct) for r in results
        ),
    }
    return ExperimentResult(
        experiment_id="E10",
        title="inference-accuracy impact (Table V)",
        table=table,
        checks=checks,
        notes=[
            f"SCONNA accuracy averaged over {len(error_seeds)} ADC noise "
            "seeds; proxies trained on the synthetic dataset "
            "(ImageNet substitution - DESIGN.md section 4)",
            "logit err: mean over test images of ||l_sconna - l_int8|| / "
            "||l_int8||, averaged over the same seeds; at 0 % only the "
            "floor rounding differs from int8",
        ],
        data={"results": results},
    )


def _sees_noise(errors: "tuple[float, ...]") -> bool:
    """Strictly rising over MAPE_SWEEP, and the excess over the
    noiseless value at 5 % at least twice the excess at 1.3 %."""
    base, paper, five, _ = errors
    rising = all(a < b for a, b in zip(errors, errors[1:]))
    return rising and five - base >= 2.0 * (paper - base)
