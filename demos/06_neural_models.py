"""One network, two families: a dense MLP and a text-fusion CNN.

Both are FusionNet, on the reverse-mode kernel whose gradients are finite-
difference-checked in the test suite. With convolution widths it has a
text branch: it embeds token ids, convolves at each width, max-pools over
positions, and concatenates any structured block before the dense head.
Without widths it is that dense head alone, the MLP. Exits non-zero if a
checkpoint does not restore the exact predictions.
"""

import pathlib
import sys
import tempfile

import numpy as np

from icumort.neural import (
    CnnParams,
    MlpParams,
    pad_sequences,
    predict_proba_net,
    save_checkpoint,
    load_checkpoint,
    train_cnn_fusion,
    train_mlp,
)

# MLP on two gaussian blobs
rng = np.random.default_rng(0)
X = np.vstack([rng.normal(size=(120, 6)) + 0.9,
               rng.normal(size=(120, 6)) - 0.9])
y = np.array([1] * 120 + [0] * 120)
mlp, log = train_mlp(X, y, MlpParams(hidden=16, dropout=0.0,
                                     learning_rate=0.01, max_epochs=40,
                                     patience=None), seed=1)
acc = ((predict_proba_net(mlp, X) >= 0.5).astype(int) == y).mean()
print(f"MLP: train loss {log[0]['train_loss']:.3f} -> "
      f"{log[-1]['train_loss']:.3f}, accuracy {acc:.3f}")

# CNN on a token-presence rule: token 5 means positive
docs = [[2, 3, 5, 4], [5, 2], [3, 4, 5], [2, 5, 3, 3],
        [2, 3, 4, 2], [4, 4, 3], [2, 2], [3, 2, 4, 4]]
yd = np.array([1, 1, 1, 1, 0, 0, 0, 0])
S = np.zeros((8, 0))  # no structured block for this one
params = CnnParams(widths=(2, 3), filters=6, embed_dim=8, hidden=12,
                   dropout=0.0, max_len=6, learning_rate=0.01,
                   batch_size=4, max_epochs=200, patience=None)
ids = pad_sequences(docs, params.max_len)
cnn, _ = train_cnn_fusion(ids, S, yd, params, seed=0, vocab_size=6)
p = predict_proba_net(cnn, (ids, S))
print("\nCNN on the token-presence rule:")
for doc, prob, label in zip(docs, p, yd):
    print(f"  {str(doc):<16} p(death)={prob:.3f}  label={label}")

# checkpoints restore bit-identical predictions, for both families
exact = True
print()
with tempfile.TemporaryDirectory() as d:
    for name, net, inputs in (("mlp", mlp, X), ("cnn", cnn, (ids, S))):
        ck = pathlib.Path(d) / f"{name}.ckpt"
        save_checkpoint(net, ck)
        same = np.array_equal(predict_proba_net(net, inputs),
                              predict_proba_net(load_checkpoint(ck), inputs))
        print(f"{name} checkpoint round trip exact: {same}")
        exact = exact and same
if not exact:
    sys.exit(1)
