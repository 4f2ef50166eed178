"""Train and score the quality fixture, and print held-out quality per seed.

    python3 tests/quality_fixture.py {ad,mse} LEARNING_RATE

trains the default ADNetConfig(input_dim=16) for 16 epochs on
SynthConfig(num_videos=40, class_mean_separation=0.5, seed=7), once per
train seed 1 to 5, with the AD loss (ad) or the MSE alone (mse) at the
given learning rate. Features pass through float32, as the .adnf round
trip does. Each run scores 80 held-out videos of the same config at seed
99 and prints frame AUC, abnormal F1@{10,25,50} and the largest ratio of
one epoch's mean train MSE to the epoch's before. A last line gives the
mean and population sd over the seeds, and the seeds whose train MSE
rose more than 2x between epochs. The package comes from the `src/` of
the checkout holding this script; pytest does not collect this file.
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from adnet import evaluation, model, synth, training  # noqa: E402

SEEDS = (1, 2, 3, 4, 5)
KS = (10, 25, 50)


def corpus(num_videos: int, seed: int) -> list:
    """(video id, float32-rounded features, manifest) of a synthetic corpus."""
    config = synth.SynthConfig(num_videos=num_videos, class_mean_separation=0.5, seed=seed)
    return [(video.manifest.video_id,
             video.features.features.astype(np.float32).astype(np.float64), video.manifest)
            for video in synth.generate(config)]


def run(train_set, held_out, use_ad_loss: bool, learning_rate: float, seed: int) -> list:
    """[frame AUC, abnormal F1@k for each of KS, largest train-MSE ratio]."""
    train_config = training.TrainConfig(epochs=16, seed=seed, learning_rate=learning_rate,
                                        use_ad_loss=use_ad_loss)
    dataset = [(features, training.clip_labels(manifest.segments, manifest.frames_per_clip,
                                               features.shape[1],
                                               train_config.clip_label_fraction))
               for _, features, manifest in train_set]
    model_config = model.ADNetConfig(input_dim=16)
    result = training.train(dataset, model_config, train_config)
    scores = {video_id: model.score_sequence(result.params, features)
              for video_id, features, _ in held_out}
    report = evaluation.evaluate(scores, {video_id: manifest.segments
                                          for video_id, _, manifest in held_out},
                                 held_out[0][2].frames_per_clip, ks=KS,
                                 threshold=model_config.threshold)
    mse = [entry.mean_mse for entry in result.log]
    return [report.frame_auc, *(report.scopes["abnormal"][k][2] for k in KS),
            max(after / before for before, after in zip(mse, mse[1:]))]


def line(auc: str, f1s: list[str], last: str) -> str:
    return "  ".join([f"frame AUC {auc}", *(f"F1@{k} {f1}" for k, f1 in zip(KS, f1s)), last])


def spread(values, digits: int) -> str:
    """Mean ± population sd."""
    return f"{statistics.fmean(values):.{digits}f} ± {statistics.pstdev(values):.{digits}f}"


def main() -> None:
    if len(sys.argv) != 3 or sys.argv[1] not in ("ad", "mse"):
        sys.exit(__doc__)
    use_ad_loss, learning_rate = sys.argv[1] == "ad", float(sys.argv[2])
    train_set, held_out = corpus(40, 7), corpus(80, 99)
    print(f"{'AD loss' if use_ad_loss else 'MSE only'}, lr {learning_rate:g}, 16 epochs, "
          f"train seeds {SEEDS[0]}-{SEEDS[-1]}", flush=True)
    rows = []
    for seed in SEEDS:
        rows.append(run(train_set, held_out, use_ad_loss, learning_rate, seed))
        auc, *f1s, ratio = rows[-1]
        print(f"seed {seed}: " + line(f"{auc:.3f}", [f"{f1:.1f}" for f1 in f1s],
                                      f"max train-MSE ratio {ratio:.2f}"), flush=True)
    aucs, *f1s, ratios = zip(*rows)
    print("mean ± sd: " + line(spread(aucs, 3), [spread(column, 1) for column in f1s],
                               f"seeds whose train MSE rose > 2x: "
                               f"{sum(ratio > 2 for ratio in ratios)} of {len(SEEDS)} "
                               f"(worst {max(ratios):.2f}x)"))


if __name__ == "__main__":
    main()
