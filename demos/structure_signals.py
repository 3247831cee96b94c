"""Derive every structural signal the encoder consumes from one program.

Shows the tree shortest-path distances, the row-normalized position
weights, the clipped distance buckets, the three relation views behind
the multi-view mask, and the signed sequential offsets.
"""

import numpy as np

from scriptsum import (
    bucketize,
    encode_structure,
    floyd_apsp,
    leaf_tokens,
    multiview,
    normalize,
    parse_minilang,
    sequential_relpos,
)
from scriptsum.structure import ast_view, dataflow_view, flow_view

np.set_printoptions(precision=3, suppress=True, linewidth=120)

SOURCE = "result = base * rate + offset; print(result);"

ast = parse_minilang(SOURCE)
tokens, align = leaf_tokens(ast)
print("tokens:", tokens, "\n")

node_d = floyd_apsp(ast)
print(f"node distance matrix is {len(node_d)}x{len(node_d)}; token view gathers the leaf rows:")
rows = np.asarray(align.token_to_node)
m = node_d.astype(np.int64)[np.ix_(rows, rows)]
print(m, "\n")

# nearer tokens get more weight; each live row sums to one
m_bar = normalize(m)
print("normalized position weights (rows sum to 1):")
print(m_bar)
print("row sums:", m_bar.sum(axis=1), "\n")

for clip in (2, 4):
    buckets = bucketize(m, clip)
    print(f"buckets at clip {clip} (everything >= {clip} shares one id):")
    print(buckets, "\n")

# the three binary relation views, then their weighted combination
for name, view in (("ast", ast_view), ("flow", flow_view), ("dataflow", dataflow_view)):
    print(f"{name} view:")
    print(view(ast, align).astype(int), "\n")

print("weighted combination (1/3 each):")
print(multiview(ast, align, (1 / 3, 1 / 3, 1 / 3)), "\n")

print("signed sequential offsets, window 3:")
print(sequential_relpos(len(tokens), 3), "\n")

# one call bundles all of it exactly the way the model wants it
bundle = encode_structure(ast, align, 4, (1 / 3, 1 / 3, 1 / 3))
print("bundle fields:", {
    "distances": bundle.distances.shape,
    "distance_weights": bundle.distance_weights.shape,
    "bucket_ids": bundle.bucket_ids.shape,
    "multiview": bundle.multiview.shape,
})
